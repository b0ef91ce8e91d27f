"""Hom and first-Ext dimensions, projective covers, injective hulls and
minimal presentations.

Hom and Ext dimensions are computed on pairs of labels and lifted
bilinearly to sums.  Hom is computed structurally:

* projective and injective objects coincide here, and the simple head of a
  projective, ``W`` itself or ``V[k]`` for ``P[k]``, is also its socle, so
  Hom out of or into a projective is that simple's multiplicity in the
  other side: equality when either side is a ``W``, ``max(0, 2 - |k - l|)``
  against ``P[l]``, and ``lo <= k <= hi`` against a simple or string of
  span ``[lo, hi]``, which has each flow of its span once.  The cover or
  hull of a simple is its projective (``W`` or ``P[l]`` over ``V[l]``), and
  a projective is its own, so a cover has one ``P[l]`` per head factor
  ``V[l]`` of each simple or string summand, and a hull one per socle
  factor; both are read from the summand's span and top-row parity (see
  below), building no simples;
* for modules in the vacuum sector (simples and strings) Hom counts images,
  segments that are quotients of the source and submodules of the target.

A segment of a string is a consecutive run of factors: a quotient when its
bottom-row ends are ends of the string, a submodule when its top-row ends
are.  A string's rows alternate, so the parity of its top-row flows fixes
them; a simple's one factor is both top and bottom.  On the overlap
``[lo, hi]`` of the two spans, the images of one factor are the top factors
of the source that are bottom factors of the target; a longer image needs
two strings with the same rows and is then all of ``[lo, hi]``.

First Ext groups come from the terminating Hom-Ext sequence of a minimal
projective presentation ``0 -> K -> P0 -> M -> 0`` with ``P0`` both
projective and injective:

    ext(M, N) = hom(K, N) - hom(P0, N) + hom(M, N).

The cover ``P0`` has one ``P[l]`` per head factor ``V[l]`` of ``M``, and
``hom(P[l], N) = [N : V[l]]``, so the middle term is read from labels as
``sum over the head (V[l], k) of M of k * [N : V[l]]``; no cover is built.
A simple or string ``N`` has each flow of its span as a factor exactly once.

The support rule: the vacuum block is the quiver with vertices ``l`` and
arrows ``l -> l+1`` and ``l -> l-1`` (``P[l]`` is the diamond with
``V[l-1] + V[l+1]`` in its middle row), so ``Hom(M, N)`` needs a
composition factor common to ``M`` and ``N``, and ``Ext^1(M, N)`` a factor
of ``M`` and one of ``N`` at flows at most 1 apart.  The factor span of a
label is ``(l, l)`` for ``V[l]`` and ``W[c,l]``, ``(m, m+n-1)`` for
``B[n,m]`` and ``T[n,m]`` and ``(m-1, m+1)`` for ``P[m]``; when the spans of
two labels are more than 1 apart, both Hom and Ext are 0 before any other
rule is applied.

The presentation kernels and cokernels are pinned by exactness: the
composition factors of the cover must equal those of the module plus those
of the kernel, and dually for hulls.  This balance requirement fixes the
flow subscripts of the odd-length entries (``verify``'s ``presentation
balance`` check, criterion 6, enforces it for every module in the
verification pool).
"""

from __future__ import annotations

from .modules import (
    BStr, ExactSequence, FormalSum, Module, Proj, TStr, Typ, Vac, _merge, as_sum, bstr,
    is_projective,
)


def _span(mod: Module) -> tuple[int, int]:
    # the least and greatest flow of a composition factor of mod
    if isinstance(mod, Proj):
        return mod.m - 1, mod.m + 1
    if isinstance(mod, (BStr, TStr)):
        return mod.m, mod.m + mod.n - 1
    return mod.ell, mod.ell


def _apart(m: Module, n: Module) -> bool:
    """Whether the factor spans of ``m`` and ``n`` are more than 1 apart, so
    that both Hom and Ext between them vanish."""
    (lo_m, hi_m), (lo_n, hi_n) = _span(m), _span(n)
    return lo_n > hi_m + 1 or lo_m > hi_n + 1


def _tops(mod: Module) -> tuple[int, ...]:
    # the parities of the top-row flows: one for a string, both for a simple
    return (0, 1) if isinstance(mod, Vac) else ((mod.m + isinstance(mod, BStr)) % 2,)


def _count(lo: int, hi: int, parities) -> int:
    # the number of flows in [lo, hi] with one of the given parities
    return sum(max(0, (hi - p) // 2 - (lo - 1 - p) // 2) for p in parities)


def _hom_modules(m: Module, n: Module) -> int:
    if _apart(m, n):
        return 0
    if is_projective(m) or is_projective(n):
        # the multiplicity of p's simple head, which is also its socle, in
        # the other side (see the module docstring)
        p, other = (m, n) if is_projective(m) else (n, m)
        if isinstance(p, Typ) or isinstance(other, Typ):
            return int(p == other)
        if isinstance(other, Proj):
            return max(0, 2 - abs(p.m - other.m))
        lo, hi = _span(other)
        return int(lo <= p.m <= hi)
    # Both sides are simples or strings: count the images on the overlap
    # [lo, hi] of the spans (see the module docstring).
    (lo_m, hi_m), (lo_n, hi_n) = _span(m), _span(n)
    lo, hi = max(lo_m, lo_n), min(hi_m, hi_n)
    tops, tops_n = _tops(m), _tops(n)
    hom = _count(lo, hi, [p for p in tops if 1 - p in tops_n])
    if lo < hi and tops == tops_n:
        # each bottom-row end must be an end of m, each top-row end one of n
        hom += (lo == (lo_n if lo % 2 in tops else lo_m)
                and hi == (hi_n if hi % 2 in tops else hi_m))
    return hom


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


def _projectives_over(x, row: int) -> FormalSum:
    # one P[f] per factor V[f] in the top (row 0) or bottom (row 1) row of
    # each simple or string summand, read from its span and top-row parity;
    # a projective summand is its own cover and hull
    out = []
    for mod, k in as_sum(x):
        if is_projective(mod):
            out.append((mod, k))
            continue
        lo, hi = _span(mod)
        for p in _tops(mod):
            p ^= row
            out.extend([(Proj(f), k) for f in range(lo + (lo - p) % 2, hi + 1, 2)])
    return FormalSum._from_sorted(_merge(out))


def projective_cover(x) -> FormalSum:
    """Minimal projective mapping onto ``x``: the cover of its head."""
    return _projectives_over(x, 0)


def injective_hull(x) -> FormalSum:
    """Minimal injective containing ``x``: the hull of its socle."""
    return _projectives_over(x, 1)


def presentation_kernel(mod: Module) -> Module:
    """Kernel of the projective cover map ``P0 ->> mod``."""
    if is_projective(mod):
        raise ValueError(f"{mod} is projective; its presentation is trivial")
    n = 1 if isinstance(mod, Vac) else mod.n
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


def _cover_hom(m: Module, n: Module) -> int:
    """``hom(P0, n)`` for the projective cover ``P0`` of ``m``, both ``m``
    and ``n`` simple or strings: the head factors of ``m`` in ``n``'s span."""
    (lo_m, hi_m), (lo_n, hi_n) = _span(m), _span(n)
    return _count(max(lo_m, lo_n), min(hi_m, hi_n), _tops(m))


def _ext_modules(m: Module, n: Module) -> int:
    if is_projective(m) or is_projective(n) or _apart(m, n):
        return 0
    k = presentation_kernel(m)
    return _hom_modules(k, n) - _cover_hom(m, n) + _hom_modules(m, n)


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
