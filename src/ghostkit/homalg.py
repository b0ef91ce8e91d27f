"""Hom and first-Ext dimensions, projective covers, injective hulls and
minimal presentations.

Hom dimensions are computed structurally:

* a projective source or injective target reduces Hom to a composition
  factor multiplicity (here projective and injective objects coincide);
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
flow subscripts of the odd-length entries (see the tests, which enforce it
for every module in the verification pool).
"""

from __future__ import annotations

from .modules import (
    BOTTOM, TOP, BStr, ExactSequence, FormalSum, Module, Proj, TStr, Typ,
    Vac, as_sum, bstr, composition_factors, head, is_projective, socle,
)


def _segment_label(word, i, j):
    # (start flow, length, first row); row irrelevant for single factors
    length = j - i + 1
    first_row = word[i][1] if length > 1 else None
    return (word[i][0], length, first_row)


def _quotient_segments(word):
    n = len(word)
    out = []
    for i in range(n):
        if word[i][1] == BOTTOM and i > 0:
            continue
        for j in range(i, n):
            if word[j][1] == BOTTOM and j < n - 1:
                continue
            out.append(_segment_label(word, i, j))
    return out


def _submodule_segments(word):
    n = len(word)
    out = []
    for i in range(n):
        if word[i][1] == TOP and i > 0:
            continue
        for j in range(i, n):
            if word[j][1] == TOP and j < n - 1:
                continue
            out.append(_segment_label(word, i, j))
    return out


def _hom_modules(m: Module, n: Module) -> int:
    src_factors = composition_factors(m)
    tgt_factors = composition_factors(n)
    if isinstance(m, Proj):
        return tgt_factors.get(Vac(m.m), 0)
    if isinstance(m, Typ):
        return tgt_factors.get(m, 0)
    if isinstance(n, Proj):
        return src_factors.get(Vac(n.m), 0)
    if isinstance(n, Typ):
        return src_factors.get(n, 0)
    # Both sides now live in the vacuum sector (simple or string).
    quots = _quotient_segments(m.rows())
    subs = _submodule_segments(n.rows())
    sub_counts: dict = {}
    for lab in subs:
        sub_counts[lab] = sub_counts.get(lab, 0) + 1
    return sum(sub_counts.get(lab, 0) for lab in quots)


def hom_dim(m, n) -> int:
    """Dimension of the space of module maps ``m -> n``; bilinear in sums."""
    total = 0
    for ma, ka in as_sum(m):
        for mb, kb in as_sum(n):
            total += ka * kb * _hom_modules(ma, mb)
    return total


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
    if isinstance(mod, Vac):
        # rad P[m]: the wedge with socle V[m] and head V[m-1], V[m+1]
        return TStr(3, mod.ell - 1)
    if isinstance(mod, BStr):
        if mod.n % 2:
            return bstr(mod.n - 2, mod.m + 1)
        return BStr(mod.n, mod.m + 1)
    if isinstance(mod, TStr):
        if mod.n % 2:
            return TStr(mod.n + 2, mod.m - 1)
        return TStr(mod.n, mod.m - 1)
    raise TypeError(f"not a canonical module: {mod!r}")


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
    either argument is projective."""
    total = 0
    for ma, ka in as_sum(m):
        for mb, kb in as_sum(n):
            total += ka * kb * _ext_modules(ma, mb)
    return total


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
