"""Hom and first-Ext dimensions, projective covers, injective hulls and
minimal presentations.

Hom and Ext dimensions are computed on pairs of labels and lifted
bilinearly to sums.  Hom is computed structurally:

* projective and injective objects coincide here, and the simple head of a
  projective, ``W`` itself or ``V[m]`` for ``P[m]``, is also its socle; Hom
  out of or into a projective is that simple's composition multiplicity in
  the other side;
* for modules in the vacuum sector (simples and strings) Hom counts pairs
  of matching labeled segments, one occurring as a quotient of the source
  and one as a submodule of the target.

A segment of a string is a consecutive run of factors.  It is a quotient
occurrence when no arrow of the complement enters it (its bottom endpoints
must be endpoints of the whole string) and a submodule occurrence when no
arrow leaves it (its top endpoints must be endpoints of the whole string).

First Ext groups come from the terminating Hom-Ext sequence of a minimal
projective presentation ``0 -> K -> P0 -> M -> 0`` with ``P0`` both
projective and injective:

    ext(M, N) = hom(K, N) - hom(P0, N) + hom(M, N).

The presentation kernels and cokernels are pinned by exactness: the
composition factors of the cover must equal those of the module plus those
of the kernel, and dually for hulls.  This balance requirement fixes the
flow subscripts of the odd-length entries (``verify``'s ``presentation
balance`` check, criterion 6, enforces it for every module in the
verification pool).
"""

from __future__ import annotations

from collections import Counter

from .modules import (
    BOTTOM, TOP, BStr, ExactSequence, FormalSum, Module, Proj, TStr, as_sum,
    bstr, head, is_projective, socle,
)


def _segments(word, closed: str):
    """Labels ``(start flow, length, first row)`` of the segments of ``word``
    whose endpoints in row ``closed`` are endpoints of the whole string:
    quotients for ``BOTTOM``, submodules for ``TOP``.  A single factor has no
    row in its label."""
    last = len(word) - 1
    for i, (flow, row) in enumerate(word):
        if row == closed and i > 0:
            continue
        for j in range(i, last + 1):
            if word[j][1] == closed and j < last:
                continue
            yield flow, j - i + 1, row if j > i else None


def _hom_modules(m: Module, n: Module) -> int:
    # a projective source sees the factors of n equal to its head, and a
    # projective (so injective) target the factors of m equal to its socle
    if is_projective(m):
        return sum(n.factors().count(s) for s in head(m).modules())
    if is_projective(n):
        return sum(m.factors().count(s) for s in socle(n).modules())
    # Both sides now live in the vacuum sector (simple or string).
    subs = Counter(_segments(n.rows(), TOP))
    return sum(subs[lab] for lab in _segments(m.rows(), BOTTOM))


def _bilinear(one, m, n) -> int:
    # the lift of a rule on pairs of labels to sums
    total = 0
    for ma, ka in as_sum(m):
        for mb, kb in as_sum(n):
            total += ka * kb * one(ma, mb)
    return total


def hom_dim(m, n) -> int:
    """Dimension of the space of module maps ``m -> n``; bilinear in sums."""
    return _bilinear(_hom_modules, m, n)


def _staggered_over(x, simples) -> FormalSum:
    # each non-projective summand -> the P[l] over its simples(mod) V[l]
    def one(mod: Module) -> FormalSum:
        if is_projective(mod):
            return FormalSum.of(mod)
        return simples(mod).map_modules(lambda s: Proj(s.ell))

    return as_sum(x).map_modules(one)


def projective_cover(x) -> FormalSum:
    """Minimal projective mapping onto ``x``: the cover of its head."""
    return _staggered_over(x, head)


def injective_hull(x) -> FormalSum:
    """Minimal injective containing ``x``: the hull of its socle."""
    return _staggered_over(x, socle)


def presentation_kernel(mod: Module) -> Module:
    """Kernel of the projective cover map ``P0 ->> mod``."""
    if is_projective(mod):
        raise ValueError(f"{mod} is projective; its presentation is trivial")
    n = len(mod.factors())
    if isinstance(mod, BStr):
        if n % 2:
            return bstr(n - 2, mod.m + 1)
        return BStr(n, mod.m + 1)
    # T[n,m], with V[l] read as the string T[1,l]: its odd rule then gives
    # rad P[l], the wedge with socle V[l] and head V[l-1], V[l+1]
    if n % 2:
        return TStr(n + 2, mod.flow - 1)
    return TStr(n, mod.flow - 1)


def presentation_cokernel(mod: Module) -> Module:
    """Cokernel of the injective hull embedding ``mod -> I0``.  The star dual
    is exact, contravariant and fixes projectives, so it turns the cover of
    ``mod.starred()`` into the hull of ``mod``."""
    if is_projective(mod):
        raise ValueError(f"{mod} is injective; its presentation is trivial")
    return presentation_kernel(mod.starred()).starred()


def _ext_modules(m: Module, n: Module) -> int:
    if is_projective(m) or is_projective(n):
        return 0
    p0 = projective_cover(m)
    k = presentation_kernel(m)
    return hom_dim(k, n) - hom_dim(p0, n) + hom_dim(m, n)


def ext_dim(m, n) -> int:
    """Dimension of the first extension group ``Ext^1(m, n)``; zero whenever
    either argument is projective.  Bilinear in sums."""
    return _bilinear(_ext_modules, m, n)


def euler_check(seq: ExactSequence, probe: Module) -> bool:
    """Exactness bookkeeping against a projective (= injective) probe.

    Checks that Hom from the probe and Hom into the probe are both additive
    across the sequence.
    """
    if not is_projective(probe):
        raise ValueError(f"probe {probe} must be projective/injective")
    covariant = hom_dim(probe, seq.middle) == hom_dim(probe, seq.sub) + hom_dim(
        probe, seq.quotient)
    contravariant = hom_dim(seq.middle, probe) == hom_dim(seq.sub, probe) + hom_dim(
        seq.quotient, probe)
    return covariant and contravariant
