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
  factor; both come from ``modules._row_sum``, the reader of ``head`` and
  ``socle``, which reads the summand's span and top-row parity (see below)
  and builds no simples;
* for modules in the vacuum sector (simples and strings) Hom counts images,
  segments that are quotients of the source and submodules of the target.

A segment of a string is a consecutive run of factors: a quotient when its
bottom-row ends are ends of the string, a submodule when its top-row ends
are.  A string's rows alternate, so the parity of its top-row flows fixes
them; a simple's one factor is both top and bottom.  On the overlap
``[lo, hi]`` of the two spans, the images of one factor are the top factors
of the source that are bottom factors of the target; a longer image needs
two strings with the same rows and is then all of ``[lo, hi]``.  The span
(``_span``), the top-row parities (``_tops``) and the flows of one parity
in a range (``_flows``) are stated once, in ``modules``.

First Ext groups come from the terminating Hom-Ext sequence of a minimal
projective presentation ``0 -> K -> P0 -> M -> 0`` with ``P0`` both
projective and injective:

    ext(M, N) = hom(K, N) - hom(P0, N) + hom(M, N).

The cover ``P0`` has one ``P[l]`` per head factor ``V[l]`` of ``M``, and
``hom(P[l], N) = [N : V[l]]``, so the middle term is read from labels as
``sum over the head (V[l], k) of M of k * [N : V[l]]``; no cover is built.

The support rule: the vacuum block is the quiver with vertices ``l`` and
arrows ``l -> l+1`` and ``l -> l-1`` (``P[l]`` is the diamond with
``V[l-1] + V[l+1]`` in its middle row), so ``Hom(M, N)`` needs a
composition factor common to ``M`` and ``N``, and ``Ext^1(M, N)`` a factor
of ``M`` and one of ``N`` at flows at most 1 apart.  The factor span of a
label is ``(l, l)`` for ``V[l]`` and ``W[c,l]``, ``(m, m+n-1)`` for
``B[n,m]`` and ``T[n,m]`` and ``(m-1, m+1)`` for ``P[m]``; when the spans of
two labels are more than 1 apart, both Hom and Ext are 0 before any other
rule is applied.

The vacuum block is the zigzag algebra of type A-infinity-infinity, whose
strings are the ``B`` and ``T`` modules.  One rule, ``_syzygy``, gives the
kernel of the cover (``row`` 0) and the cokernel of the hull (``row`` 1) of
a simple or string: each end in row ``row`` moves out by one flow, each
other end moves in by one, and every end keeps its row, so the result is a
``T`` when its base factor is in the top row.  ``V[l]``'s one factor is in
both rows: its kernel is ``T[3,l-1]`` and its cokernel ``B[3,l-1]``.
"""

from __future__ import annotations

from .modules import (
    BStr, ExactSequence, FormalSum, Module, Proj, TStr, Typ, Vac, _flows, _row_sum, _span,
    _tops, as_sum, is_projective,
)


def _apart(m: Module, n: Module) -> bool:
    """Whether the factor spans of ``m`` and ``n`` are more than 1 apart, so
    that both Hom and Ext between them vanish."""
    (lo_m, hi_m), (lo_n, hi_n) = _span(m), _span(n)
    return lo_n > hi_m + 1 or lo_m > hi_n + 1


def _count(lo: int, hi: int, parities) -> int:
    # the number of flows in [lo, hi] with one of the given parities
    return sum(len(_flows(lo, hi, p)) for p in parities)


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


def projective_cover(x) -> FormalSum:
    """Minimal projective mapping onto ``x``: the cover of its head."""
    return _row_sum(x, 0, Proj)


def injective_hull(x) -> FormalSum:
    """Minimal injective containing ``x``: the hull of its socle."""
    return _row_sum(x, 1, Proj)


def _syzygy(mod: Module, row: int) -> Module:
    """Kernel of the cover (``row`` 0) or cokernel of the hull (``row`` 1)."""
    (lo, hi), tops = _span(mod), _tops(mod)
    # an end is in row `row` when its parity, flipped for row 1, is a
    # top-row parity; a simple's one factor is in both rows
    out_lo, out_hi = (lo % 2 ^ row) in tops, (hi % 2 ^ row) in tops
    lo, hi = (lo - 1 if out_lo else lo + 1), (hi + 1 if out_hi else hi - 1)
    # the base end is in the top row if it left row 0 or came in from row 1
    return Vac(lo) if lo == hi else (TStr if out_lo != row else BStr)(hi - lo + 1, lo)


def presentation_kernel(mod: Module) -> Module:
    """Kernel of the projective cover map ``P0 ->> mod``."""
    if is_projective(mod):
        raise ValueError(f"{mod} is projective; its presentation is trivial")
    return _syzygy(mod, 0)


def presentation_cokernel(mod: Module) -> Module:
    """Cokernel of the injective hull embedding ``mod -> I0``."""
    if is_projective(mod):
        raise ValueError(f"{mod} is injective; its presentation is trivial")
    return _syzygy(mod, 1)


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
