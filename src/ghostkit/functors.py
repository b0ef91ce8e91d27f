"""The five label-level functors: spectral flow, conjugation and the duals.

Spectral flow and conjugation are exact covariant equivalences; the
restricted dual is exact contravariant.  The star dual is conjugation
composed with the restricted dual; on labels it only swaps the letters
``B`` and ``T``, so the restricted dual is computed as conjugation of the
star dual.  The tensor dual is the restricted dual followed by one unit of
spectral flow.  On labels:

* flow shifts every flow index,
* conjugation sends factor flows ``l -> -1-l`` and keeps Loewy rows,
* the restricted dual sends ``l -> -1-l`` and swaps rows (contravariance
  reverses arrows).

The closed forms, the unique re-canonicalizations of these factor rules,
are the label methods ``flowed``, ``conjugated`` and ``starred``; the
functors here lift them to formal sums.  Tests cross-check them against the
word transformation for all string lengths up to 8.
"""

from __future__ import annotations

from operator import methodcaller

from .modules import (
    BOTTOM, TOP, ExactSequence, FormalSum, Module, Vac, as_sum, bstr, string_rows, tstr,
)


def _lift(fn):
    def apply(x):
        return x.map_modules(fn) if isinstance(x, FormalSum) else fn(x)

    return apply


def flow(x, ell: int):
    """Spectral flow by ``ell`` of a label or a sum."""
    return x.flowed(ell)


conjugate = _lift(methodcaller("conjugated"))
# conjugation is an involution, so the restricted dual is conjugation
# composed with the star dual
dual_restricted = _lift(lambda mod: mod.starred().conjugated())


def dual_star(x):
    """Conjugation composed with the restricted dual.  Fixes every simple
    and staggered label and swaps ``B[n,m] <-> T[n,m]``."""
    if isinstance(x, FormalSum):
        return x.map_modules(methodcaller("starred"))
    return x.starred()


def dual_tensor(x):
    """The rigid tensor dual: restricted dual followed by one unit of flow."""
    return flow(dual_restricted(x), 1)


def transform_word(mod: Module, *, flip_flows: bool, swap_rows: bool) -> Module:
    """Re-canonicalize a simple or string module from its transformed word.

    This is the raw factor/row rule underlying :func:`conjugate`
    (``flip_flows`` only) and :func:`dual_restricted` (both flags); it exists
    so tests can check the closed forms against first principles.
    """
    word = list(string_rows(mod))
    if flip_flows:
        word = [(-1 - f, r) for f, r in word]
    if swap_rows:
        word = [(f, TOP if r == BOTTOM else BOTTOM) for f, r in word]
    word.sort()
    flows = [f for f, _ in word]
    if flows != list(range(flows[0], flows[0] + len(flows))):
        raise ValueError("transformed word is not a consecutive chain")
    if len(word) == 1:
        return Vac(flows[0])
    first_row = word[0][1]
    return bstr(len(word), flows[0]) if first_row == BOTTOM else tstr(len(word), flows[0])


def sequence_image(functor, seq, *, contravariant: bool = False):
    """Image of an exact sequence under an exact functor; contravariant
    functors swap the sub and quotient terms."""
    sub, mid, quot = functor(seq.sub), functor(seq.middle), functor(seq.quotient)
    if contravariant:
        sub, quot = quot, sub
    return ExactSequence(seq.name, as_sum(sub), as_sum(mid), as_sum(quot), seq.tag)
