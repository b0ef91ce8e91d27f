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

The closed forms below are the unique re-canonicalizations of these factor
rules; tests cross-check them against the word transformation for all
string lengths up to 8.
"""

from __future__ import annotations

from .modules import (
    BStr, FormalSum, Module, Proj, TStr, Typ, Vac, as_sum, bstr, tstr,
)


def _lift(fn):
    def apply(x, *args):
        if isinstance(x, FormalSum):
            return x.map_modules(lambda m: fn(m, *args))
        return fn(x, *args)

    return apply


def _flow_one(mod: Module, ell: int) -> Module:
    if isinstance(mod, Vac):
        return Vac(mod.ell + ell)
    if isinstance(mod, Typ):
        return Typ(mod.coset, mod.ell + ell)
    if isinstance(mod, BStr):
        return BStr(mod.n, mod.m + ell)
    if isinstance(mod, TStr):
        return TStr(mod.n, mod.m + ell)
    if isinstance(mod, Proj):
        return Proj(mod.m + ell)
    raise TypeError(f"not a canonical module: {mod!r}")


def _conjugate_one(mod: Module) -> Module:
    if isinstance(mod, Vac):
        return Vac(-1 - mod.ell)
    if isinstance(mod, Typ):
        return Typ(-mod.coset, -mod.ell)
    if isinstance(mod, Proj):
        return Proj(-1 - mod.m)
    # Strings: factors at flows m..m+n-1 move to -m-n..-1-m keeping rows,
    # so the letter flips exactly when n is even.
    if isinstance(mod, BStr):
        base = -mod.m - mod.n
        return BStr(mod.n, base) if mod.n % 2 else TStr(mod.n, base)
    if isinstance(mod, TStr):
        base = -mod.m - mod.n
        return TStr(mod.n, base) if mod.n % 2 else BStr(mod.n, base)
    raise TypeError(f"not a canonical module: {mod!r}")


def _dual_star_one(mod: Module) -> Module:
    if isinstance(mod, BStr):
        return TStr(mod.n, mod.m)
    if isinstance(mod, TStr):
        return BStr(mod.n, mod.m)
    if isinstance(mod, (Vac, Typ, Proj)):
        return mod
    raise TypeError(f"not a canonical module: {mod!r}")


def flow(x, ell: int):
    """Spectral flow by ``ell``.  Flowing every term of a sum by the same
    amount keeps the terms distinct and in canonical order, so the flowed
    sum is built without re-sorting."""
    if isinstance(x, FormalSum):
        return FormalSum._from_sorted(tuple([(_flow_one(m, ell), k) for m, k in x.terms]))
    return _flow_one(x, ell)


conjugate = _lift(_conjugate_one)
# conjugation is an involution, so the restricted dual is conjugation
# composed with the star dual
dual_restricted = _lift(lambda mod: _conjugate_one(_dual_star_one(mod)))


def dual_star(x):
    """Conjugation composed with the restricted dual.  Fixes every simple
    and staggered label and swaps ``B[n,m] <-> T[n,m]``."""
    if isinstance(x, FormalSum):
        return x.map_modules(_dual_star_one)
    return _dual_star_one(x)


def dual_tensor(x):
    """The rigid tensor dual: restricted dual followed by one unit of flow."""
    return flow(dual_restricted(x), 1)


def transform_word(mod: Module, *, flip_flows: bool, swap_rows: bool) -> Module:
    """Re-canonicalize a simple or string module from its transformed word.

    This is the raw factor/row rule underlying :func:`conjugate`
    (``flip_flows`` only) and :func:`dual_restricted` (both flags); it exists
    so tests can check the closed forms against first principles.
    """
    from .modules import BOTTOM, TOP, string_rows

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
    from .modules import ExactSequence

    sub, mid, quot = functor(seq.sub), functor(seq.middle), functor(seq.quotient)
    if contravariant:
        sub, quot = quot, sub
    return ExactSequence(seq.name, as_sum(sub), as_sum(mid), as_sum(quot), seq.tag)
