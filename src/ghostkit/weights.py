"""Exact weight and coset arithmetic.

Every state in a ghost module carries a pair of weights: the ghost weight
``j`` (eigenvalue of the Heisenberg zero mode) and the conformal weight
``h`` (generalised eigenvalue of ``L_0``).  Spectral flow by ``ell`` and
conjugation act on such pairs by fixed affine transformations, implemented
here over exact rationals.  Floating point never enters this module.

Ghost-weight cosets (rationals mod 1) label the relaxed modules; the zero
coset is special and never labels a simple relaxed module.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple


class Weight(NamedTuple):
    """A (ghost weight, conformal weight) pair, both exact rationals."""

    j: Fraction
    h: Fraction


def weight(j, h) -> Weight:
    """Build a :class:`Weight` from anything ``Fraction`` accepts."""
    return Weight(Fraction(j), Fraction(h))


def flow_weight(w: Weight, ell: int) -> Weight:
    """Apply spectral flow by ``ell``: ``[j, h] -> [j - l, h + l*j - l(l+1)/2]``."""
    j, h = Fraction(w[0]), Fraction(w[1])
    return Weight(j - ell, h + ell * j - Fraction(ell * (ell + 1), 2))


def conj_weight(w: Weight) -> Weight:
    """Apply conjugation: ``[j, h] -> [1 - j, h]``."""
    j, h = Fraction(w[0]), Fraction(w[1])
    return Weight(1 - j, h)


def coset(value) -> Fraction:
    """Reduce a rational to its canonical coset representative in ``[0, 1)``."""
    return Fraction(value) % 1


def coset_add(a, b) -> Fraction:
    """Sum of two ghost-weight cosets, reduced to ``[0, 1)``."""
    return (Fraction(a) + Fraction(b)) % 1


def coset_str(c) -> str:
    """Serialize a coset as ``"p/q"`` (or ``"0"`` for the zero coset)."""
    return str(Fraction(c))
