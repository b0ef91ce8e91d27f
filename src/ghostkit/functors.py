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
functors here lift them to formal sums.  The tests cross-check them against
the word transformation for all string lengths up to 8.
"""

from __future__ import annotations

from operator import methodcaller

from .modules import FormalSum


def _lift(fn):
    def apply(x):
        return x.map_modules(fn) if isinstance(x, FormalSum) else fn(x)

    return apply


def flow(x, ell: int):
    """Spectral flow by ``ell`` of a label or a sum."""
    return x.flowed(ell)


conjugate = _lift(methodcaller("conjugated"))
# conjugation composed with the restricted dual: fixes every simple and
# staggered label and swaps B[n,m] <-> T[n,m]
dual_star = _lift(methodcaller("starred"))
# conjugation is an involution, so the restricted dual is conjugation
# composed with the star dual
dual_restricted = _lift(lambda mod: mod.starred().conjugated())


def dual_tensor(x):
    """The rigid tensor dual: restricted dual followed by one unit of flow."""
    return flow(dual_restricted(x), 1)
