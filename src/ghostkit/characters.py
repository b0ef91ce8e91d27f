"""Doubly truncated graded dimensions (ghost weight x conformal weight).

A character here is a table ``(j, h) -> dim`` of simultaneous weight-space
dimensions, truncated in two directions: conformal weights up to a bound
and ghost weights inside a window.  Both truncations are necessary because
fixed-``h`` slices are infinite in the ghost direction (the vacuum module
has ground states at every nonpositive ghost weight).

Two independent routes compute the untwisted simple characters:

* :func:`pbw_character_oracle` literally enumerates monomials of negative
  modes over the ground states and sums each column entry by entry -- the
  ground truth;
* :func:`character` uses a generating-function count of the free monoid
  and regrades columns through the spectral-flow weight map.

The fast route shares no counting code with the oracle.  Its monomial
counts come from one module-level table, built from the closed form of the
generating function by charge (the Appell-Lerch expansion of ``1/theta``,
whose pieces are the string functions of the ghost characters), which
:func:`free_monomial_counts` returns as it is: a tuple of rows, one per
ghost charge, each holding suffix sums over charge by weight, so a whole
column of a vacuum-type simple is one slice of one row and a relaxed
column is a slice of the totals.  The table is rebuilt only when a larger
weight is needed, and never beyond :data:`MAX_TABLE_WEIGHT`: a character
that would need more raises :class:`ValueError` before anything is
allocated; so does a ghost window wider than :data:`MAX_WINDOW_WIDTH`.  The
oracle refuses weights above :data:`MAX_ORACLE_WEIGHT`, where its
enumeration would run for seconds.

All weights of a flowed simple share their fractional parts (its sector),
so a :class:`CharSeries` keeps, per sector, each column (an integer offset
within the sector) as a tuple of maximal runs of nonzero counts over
consecutive integer offsets in ``h``, and keys its per-column certified
bounds ``col_hmax`` (entries at or below one are complete, nothing is
claimed above it) by integer offsets too.  A column of a simple is one run
ending at the sector's top, so :func:`character` stores the table slices as
they are and adds the factors of a sector column by column, their tops
aligned.  Sums and comparisons cut and add runs; the flow and dual
transforms re-key whole columns, one step per column whatever its depth,
with one rational step per distinct bound and, for a flow, per column;
``Fraction`` keys are built only when entries or bounds are read out.

Characters of non-simple indecomposables are the sums of their composition
factors' characters (graded dimension ignores the filtration), and
characters of formal sums are linear.
"""

from __future__ import annotations

import heapq
import math
from collections import namedtuple
from collections.abc import Iterator, Mapping
from fractions import Fraction
from operator import add, sub

from .modules import Module, Vac, composition_factors, is_simple


class TruncationError(ValueError):
    """Raised by :meth:`CharSeries.coeff` for ``h`` above a column's certified bound."""


def _split(x) -> tuple[Fraction, int]:
    """``x`` as its fractional part in ``[0, 1)`` and its integer part."""
    n = math.floor(x)
    return x - n, n


def _per_bound(cols: dict[int, Fraction], f) -> dict:
    # ``{a: f(bound)}``, one call per run of columns sharing one bound object;
    # one call per column instead read the char-grid op loop 41.0 -> 49.2 ms
    # (medians of 12 alternating in-process runs, seed 3, Python 3.11, 2 cores)
    out, last = {}, None
    for a, bound in cols.items():
        if bound is not last:
            last, value = bound, f(bound)
        out[a] = value
    return out


def _runs_of(pairs) -> tuple:
    # ascending ``(b, d)`` pairs as maximal runs ``(lo, counts)`` of nonzero
    # counts, ``counts[i]`` at ``lo + i``; zeros end a run and are not kept
    runs, lo, counts = [], 0, []
    for b, d in pairs:
        if not d:
            continue
        if b != lo + len(counts):
            if counts:
                runs.append((lo, tuple(counts)))
            lo, counts = b, []
        counts.append(d)
    if counts:
        runs.append((lo, tuple(counts)))
    return tuple(runs)


def _add_runs(x: tuple, y: tuple) -> tuple:
    """The sum of two columns, each a tuple of maximal runs, as maximal runs
    (empty when everything cancels)."""
    if len(x) == 1 == len(y):
        (lo, c), = x
        (hi, s), = y
        if lo > hi:
            lo, c, hi, s = hi, s, lo, c
        # two overlapping runs add as aligned slices unless a sum is 0; the
        # sum is built in a list, as short-lived tuples of many lengths would
        # stay on CPython's tuple free lists: char-grid peak_rss_mb 21.69
        # against 20.95 (one run each, seed 3)
        if (i := hi - lo) < len(c):
            out, n = list(c), i + len(s)
            out[i:n] = map(add, out[i:n], s)
            if n > len(out):
                out += s[len(out) - i:]
            if all(out):
                return ((lo, tuple(out)),)
    total: dict[int, int] = {}
    for lo, counts in (*x, *y):
        for b, d in enumerate(counts, lo):
            total[b] = total.get(b, 0) + d
    return _runs_of(sorted(total.items()))


def _cut(runs: tuple, limit: int) -> tuple:
    # the part of one column's runs at or below ``limit``
    lo, counts = runs[-1]
    if lo + len(counts) <= limit + 1:
        return runs
    out = []
    for lo, counts in runs:
        if lo > limit:
            break
        out.append((lo, counts[:limit + 1 - lo]))
    return tuple(out)


class CharSeries:
    """A truncated character table with per-column certified bounds.

    ``col_hmax`` maps each ghost column ``j`` to its certified bound.  Both
    are stored by the fractional part ``jf`` of ``j``, in ``[0, 1)``: the
    bounds as ``{jf: {a: bound}}`` for the column ``jf + a``, the entries per
    sector ``(jf, hf)`` as ``{a: runs}``, one nonempty tuple of runs per
    nonempty column ``jf + a``.  A run ``(lo, counts)`` holds nonzero plain
    integers, ``counts[i]`` standing for the weight ``(jf + a, hf + lo + i)``;
    the runs of a column ascend and never touch, so each series has one
    stored form and a zero count is no entry.  ``Fraction`` keys are built
    only by :attr:`col_hmax`, :attr:`coeffs` and :meth:`entries`.
    """

    __slots__ = ("_bounds", "_sectors")

    def __init__(self, col_hmax: Mapping[Fraction, Fraction],
                 coeffs: Mapping[tuple[Fraction, Fraction], int]):
        self._bounds = {}
        for j, bound in col_hmax.items():
            jf, a = _split(Fraction(j))
            self._bounds.setdefault(jf, {})[a] = bound
        columns: dict = {}
        for (j, h), d in coeffs.items():
            if d:
                (jf, a), (hf, b) = _split(Fraction(j)), _split(Fraction(h))
                columns.setdefault((jf, hf), {}).setdefault(a, []).append((b, d))
        self._sectors = {sector: {a: _runs_of(sorted(col)) for a, col in cols.items()}
                         for sector, cols in columns.items()}

    @classmethod
    def _from_sectors(cls, bounds, sectors) -> "CharSeries":
        out = cls.__new__(cls)
        out._bounds, out._sectors = bounds, sectors
        return out

    def __repr__(self) -> str:
        return f"CharSeries({self.col_hmax!r}, {self.coeffs!r})"

    def _sector_entries(self) -> Iterator[list[tuple[Fraction, Fraction, int]]]:
        # per sector, its entries ``(j, h, d)`` in ascending order
        for (jf, hf), cols in self._sectors.items():
            hs: dict[int, Fraction] = {}
            out = []
            for a in sorted(cols):
                j = jf + a if jf else Fraction(a)
                for lo, counts in cols[a]:
                    for b, d in enumerate(counts, lo):
                        if (h := hs.get(b)) is None:
                            h = hs[b] = hf + b if hf else Fraction(b)
                        out.append((j, h, d))
            yield out

    @property
    def col_hmax(self) -> dict[Fraction, Fraction]:
        """The certified bounds as ``{j: bound}``, built on each access."""
        return {jf + a if jf else Fraction(a): bound
                for jf, cols in self._bounds.items() for a, bound in cols.items()}

    @property
    def coeffs(self) -> dict[tuple[Fraction, Fraction], int]:
        """The entries as ``{(j, h): d}``, built on each access."""
        return {(j, h): d for run in self._sector_entries() for j, h, d in run}

    def columns(self) -> tuple[Fraction, ...]:
        return tuple(sorted(self.col_hmax))

    def bound(self, j) -> Fraction:
        return self.col_hmax[Fraction(j)]

    def coeff(self, j, h) -> int:
        jj, hh = Fraction(j), Fraction(h)
        jf, a = _split(jj)
        if (bound := self._bounds.get(jf, {}).get(a)) is None:
            raise KeyError(f"ghost column {jj} outside the computed window")
        if hh > bound:
            raise TruncationError(f"h={hh} above certified bound in column {jj}")
        return self.column_profile(jj).get(hh, 0)

    def entries(self) -> Iterator[tuple[Fraction, Fraction, int]]:
        # sectors never share a weight, so the sorted runs merge without ties
        yield from heapq.merge(*self._sector_entries())

    def column_profile(self, j) -> dict[Fraction, int]:
        jf, a = _split(Fraction(j))
        return {hf + b: d for (sf, hf), cols in self._sectors.items() if sf == jf
                for lo, counts in cols.get(a, ()) for b, d in enumerate(counts, lo)}

    def _common_region(self, other: "CharSeries") -> tuple[dict, dict, dict]:
        # the common certified region, column by column, and each side's entries in it
        bounds = {}
        for jf, mine in self._bounds.items():
            theirs = other._bounds.get(jf, {})
            if common := {a: min(mine[a], theirs[a]) for a in mine.keys() & theirs.keys()}:
                bounds[jf] = common
        return bounds, self._inside(bounds), other._inside(bounds)

    def _inside(self, bounds: dict[Fraction, dict[int, Fraction]]) -> dict:
        # per sector, the runs of each column of ``bounds`` cut at its bound:
        # one integer limit on ``b`` per column
        out = {}
        for (jf, hf), cols in self._sectors.items():
            limits = _per_bound(bounds.get(jf, {}), lambda bound: math.floor(bound - hf))
            if kept := {a: cut for a, runs in cols.items()
                        if a in limits and (cut := _cut(runs, limits[a]))}:
                out[(jf, hf)] = kept
        return out

    def __add__(self, other: "CharSeries") -> "CharSeries":
        bounds, sectors, theirs = self._common_region(other)
        for sector, cols in theirs.items():
            mine = sectors.setdefault(sector, {})
            for a, runs in cols.items():
                if a in mine:
                    runs = _add_runs(mine[a], runs)
                if runs:
                    mine[a] = runs
                else:
                    del mine[a]
            if not mine:
                del sectors[sector]
        return CharSeries._from_sectors(bounds, sectors)

    def __eq__(self, other) -> bool:
        return (isinstance(other, CharSeries)
                and self._bounds == other._bounds
                and self._sectors == other._sectors)

    def agrees_with(self, other: "CharSeries", *, min_points: int = 1) -> bool:
        """Exact agreement on the intersection of certified regions, which
        must hold at least ``min_points`` of this series' entries."""
        _, mine, theirs = self._common_region(other)
        return mine == theirs and sum(
            len(counts) for cols in mine.values() for runs in cols.values()
            for _, counts in runs) >= min_points


def _parse_window(jwindow) -> tuple[Fraction, Fraction]:
    jmin, jmax = Fraction(jwindow[0]), Fraction(jwindow[1])
    if jmin > jmax:
        raise ValueError(f"empty ghost window {jwindow}")
    if jmax - jmin > MAX_WINDOW_WIDTH:
        raise ValueError(
            f"ghost window {jmin}:{jmax} is {jmax - jmin} wide, above the limit "
            f"{MAX_WINDOW_WIDTH}; narrow the window")
    return jmin, jmax


# The largest weight of the shared monomial table.  The table lives for the
# whole process; at this weight the closed-form build takes about 0.03 s,
# and a process that builds it peaks at about 32 MB (Python 3.11, one core
# of an Intel Xeon server).
MAX_TABLE_WEIGHT = 550

# The widest ghost window.  A character keeps one column per integer ghost
# weight in its window whatever the flow, and the columns are built before
# anything else bounds them; at this width the vacuum character to h = 8
# takes about 10 ms and 1 MB.  The suites need width 18 at the defaults.
MAX_WINDOW_WIDTH = 1000

# The suffix sums over ghost charge, stored by charge: for a table of weight
# ``W``, row ``g + W`` (``g`` in ``-W..W``) holds at index ``w`` (``0..W``)
# the number of monomials of weight ``w`` and ghost charge at least ``g``.
# Row 0 is therefore the totals per weight; a row reads the total at ``w``
# where ``g < -w`` and 0 where ``g > w``.  A character column is one slice
# of one row.  Replaced, never mutated, when a larger weight is asked for.
_SUFFIX: tuple[tuple[int, ...], ...] = ((1,),)


def _build_suffix_table(max_weight: int) -> tuple[tuple[int, ...], ...]:
    # 1/prod_{n>=1} (1 - z q^n)(1 - q^n/z) by charge in closed form: the
    # Appell-Lerch expansion of 1/theta (Kac-Wakimoto, CMP 215, 2001), whose
    # pieces are the ghost string functions (Ridout-Wood, arXiv:1408.4185).
    # The totals are 1/(q;q)^2, two-coloured partitions, by Euler's pentagonal
    # recurrence run twice.  The count at charge >= g >= 1 is the totals times
    # sum_{n>=1} (-1)^(n+1) q^(n(n+1)/2 + n(g-1)); counts are even in the
    # charge, so at g <= 0 it is the total less the count at charge >= 1 - g.
    top = max_weight
    totals = [1] + [0] * top
    pentagonal = [(p, k % 2) for k in range(-top, top + 1) if k and (p := k * (3 * k - 1) // 2) <= top]
    for _ in range(2):
        for w in range(1, top + 1):
            totals[w] += sum(totals[w - p] if odd else -totals[w - p] for p, odd in pentagonal if p <= w)
    below, above = [tuple(totals)], []  # charges -top..0 and top..1
    for g in range(top, 0, -1):
        row, n = [0] * (top + 1), 1
        while (e := n * (n + 1) // 2 + n * (g - 1)) <= top:
            row[e:] = map(add if n % 2 else sub, row[e:], totals)
            n += 1
        # row g is 0 below weight g, so row 1 - g shares the totals there
        below.append((*totals[:g], *map(sub, totals[g:], row[g:])))
        above.append(tuple(row))
    return tuple(below + above[::-1])


def free_monomial_counts(max_weight: int) -> tuple[tuple[int, ...], ...]:
    """Count monomials in the free negative modes by (ghost, weight).

    Generators: one ghost-raising and one ghost-lowering mode at every
    positive integer weight, each of unbounded multiplicity.  All callers
    share one table, rebuilt only when a larger weight is asked for, and
    the result is that table itself: suffix sums over ghost charge, one row
    per charge, laid out as :data:`_SUFFIX` describes, of weight at least
    ``max_weight`` (it may reach further).  Raises :class:`ValueError`
    above :data:`MAX_TABLE_WEIGHT`, before allocating.
    """
    global _SUFFIX
    if max_weight > MAX_TABLE_WEIGHT:
        raise ValueError(
            f"characters need the monomial table to weight {max_weight}, above the "
            f"limit {MAX_TABLE_WEIGHT}; lower hmax or the flows")
    table = _SUFFIX
    if max_weight > len(table) // 2:
        table = _SUFFIX = _build_suffix_table(max_weight)
    return table


def _enumerate_free_monomials(max_weight: int) -> dict[tuple[int, int], int]:
    # Independent route: explicit recursive enumeration, one monomial at a time.
    counts: dict[tuple[int, int], int] = {}
    gens = [(n, s) for n in range(1, max_weight + 1) for s in (1, -1)]

    def rec(idx: int, ghost: int, wt: int):
        counts[(ghost, wt)] = counts.get((ghost, wt), 0) + 1
        for i in range(idx, len(gens)):
            n, s = gens[i]
            if wt + n <= max_weight:
                rec(i, ghost + s, wt + n)

    rec(0, 0, 0)
    return counts


def _column(free: Mapping[tuple[int, int], int], lowest: int, h: int) -> int:
    # The monomials of weight h and ghost charge at least ``lowest``.  Vacuum
    # ground states sit at ghost weights 0, -1, -2, ...; a monomial of ghost
    # charge g on ground state -k lands at ghost weight g - k, so column j
    # counts the charges g >= j.  Relaxed ground states exist at every ghost
    # weight in the coset line, so every column has the same profile: all
    # charges g >= -h.
    return sum(free.get((g, h), 0) for g in range(lowest, h + 1))


# The largest weight the enumeration oracle counts to.  Its cost doubles
# about every two weights; at this weight one call takes about 1 s (Python
# 3.11, one core of an Intel Xeon server).
MAX_ORACLE_WEIGHT = 24


def oracle_weight(hmax) -> int:
    """The weight :func:`pbw_character_oracle` enumerates to at ``hmax``.
    Raises :class:`ValueError` above :data:`MAX_ORACLE_WEIGHT`."""
    hmax = Fraction(hmax)
    wmax = int(hmax) if hmax >= 0 else -1
    if wmax > MAX_ORACLE_WEIGHT:
        raise ValueError(
            f"the enumeration oracle at hmax={hmax} counts monomials to weight {wmax}, "
            f"above the limit {MAX_ORACLE_WEIGHT}; lower hmax")
    return wmax


def pbw_character_oracle(mod: Module, hmax, jwindow) -> CharSeries:
    """Brute-force character of an untwisted simple by monomial enumeration."""
    if not (is_simple(mod) and mod.flow == 0):
        raise ValueError(f"oracle only handles untwisted simples, got {mod}")
    jmin, jmax = _parse_window(jwindow)
    wmax = oracle_weight(hmax)
    hmax = Fraction(hmax)
    free = _enumerate_free_monomials(max(wmax, 0))
    vacuum = isinstance(mod, Vac)
    offset = Fraction(0) if vacuum else mod.coset
    columns = range(math.ceil(jmin - offset), math.floor(jmax - offset) + 1)
    bounds = dict.fromkeys([offset + a for a in columns], hmax)
    coeffs: dict[tuple[Fraction, Fraction], int] = {}
    for j in bounds:
        for h in range(0, wmax + 1):
            d = _column(free, int(j) if vacuum else -h, h)
            if d:
                coeffs[(j, Fraction(h))] = d
    return CharSeries(bounds, coeffs)


# where the columns of a flowed vacuum or relaxed module lie, and the table
# weight they need
_Layout = namedtuple("_Layout", "vacuum ell sector cols off0 bmax weight")


def _layout(vacuum: bool, coset: Fraction | int, ell: int, hmax: Fraction,
            jmin: Fraction, jmax: Fraction, integral: tuple[range, int]) -> _Layout:
    """Where the columns of ``flow(base, ell)`` lie, ``base`` the vacuum or
    the relaxed module of coset ``coset`` (``0`` for the vacuum) at flow 0.

    A state of weight ``(j', h')`` in ``base`` appears at
    ``(j' - ell, h' + ell*j' - ell(ell+1)/2)`` after flowing, so the target
    column ``j`` is fed by source column ``j + ell`` with the conformal
    weight shifted by a per-column offset.  All its weights share their
    fractional parts ``(jf, hf) = (coset, ell*coset mod 1)``, its sector; the
    integer key ``(a, b)`` stands for the weight ``(jf + a, hf + b)``,
    ``(p, q, r)`` for the sector ``(p/q, r/q)``; ``integral`` is the coset-0
    sector's ``(cols, bmax)``."""
    p, q = coset.numerator, coset.denominator
    # Column a has source column jf + a + ell and offset hf + off0 + ell*a,
    # so source weight h' lands at b = h' + off0 + ell*a, and b <= bmax.
    off0 = ell * (ell - 1) // 2 + ell * p // q
    sector = (p, q, ell * p % q)
    if p:
        cols = range(math.ceil(jmin - coset), math.floor(jmax - coset) + 1)
        bmax = math.floor(hmax - Fraction(sector[2], q))
    else:
        cols, bmax = integral
    ends = (cols[0], cols[-1]) if cols else ()
    needed = max((bmax - off0 - ell * a for a in ends), default=0)
    return _Layout(vacuum, ell, sector, cols, off0, bmax, max(needed, 0))


def _simple_character(layout: _Layout, rows: tuple[tuple[int, ...], ...]) -> dict:
    """The nonempty columns of the module laid out by :func:`_layout`, each
    as a run ``a -> (lowest b, counts)`` of nonzero entries ending at
    ``bmax``, read from a table (:data:`_SUFFIX` layout) of at least the
    weight it needs."""
    vacuum, ell, _, cols, off0, bmax, _ = layout
    top = len(rows) // 2
    runs = {}
    # column a reads the charges >= g = a + g0 at source weights 0..n-1,
    # nonzero from weight g on when g >= 0; rows below charge -top read as
    # row 0, the totals, which every relaxed column reads
    g0 = ell if vacuum else -top - cols.stop
    for a in cols:
        off = off0 + ell * a
        n = bmax - off + 1
        g = a + g0
        if 0 <= g < n:
            runs[a] = (g + off, rows[g + top][g:n])
        elif g < 0 < n:
            runs[a] = (off, rows[g + top if g + top > 0 else 0][:n])
    return runs


def _series(layouts: list[tuple[_Layout, int]], hmax: Fraction) -> CharSeries:
    """The character of the sum of ``k`` times each ``layout``'s module."""
    # one table for every factor, so its weight limit is checked before any build
    rows = free_monomial_counts(max((layout.weight for layout, _ in layouts), default=0))
    # sector -> (column indices, column a -> runs); each column of a simple
    # is one run ending at its sector's bmax, so the factors add column by
    # column, tops aligned, and every column stays one run
    sectors: dict[tuple[int, int, int], tuple[range, dict]] = {}
    for layout, k in layouts:
        columns = sectors.setdefault(layout.sector, (layout.cols, {}))[1]
        for a, (lo, counts) in _simple_character(layout, rows).items():
            runs = ((lo, counts if k == 1 else tuple(k * d for d in counts)),)
            columns[a] = _add_runs(columns[a], runs) if a in columns else runs
    bounds, out = {}, {}
    for (p, q, r), (cols, columns) in sectors.items():
        jf = Fraction(p, q)
        if cols:
            bounds[jf] = dict.fromkeys(cols, hmax)
        if columns:
            out[(jf, Fraction(r, q))] = columns
    return CharSeries._from_sectors(bounds, out)


def character(x, hmax=8, jwindow=(-6, 6)) -> CharSeries:
    """Character of a module or formal sum on the requested truncation."""
    jmin, jmax = _parse_window(jwindow)
    hmax = Fraction(hmax)
    integral = range(math.ceil(jmin), math.floor(jmax) + 1), math.floor(hmax)
    return _series([(_layout(True, 0, simple.ell, hmax, jmin, jmax, integral)
                     if isinstance(simple, Vac) else
                     _layout(False, simple.coset, simple.ell, hmax, jmin, jmax, integral), k)
                    for simple, k in composition_factors(x).items()], hmax)


def char_flow(ch: CharSeries, ell: int) -> CharSeries:
    """Regrade a character by spectral flow, tracking certified bounds.

    Each entry ``(j, h, d)`` moves to ``flow_weight((j, h), ell)``, computed
    as ``(j - ell, h + ell*j - ell(ell+1)/2)`` on the stored keys, and the
    certified bound of a target column is the image of the source bound, so
    the result reports exactly which region is determined.
    """
    half = ell * (ell + 1) // 2
    # column jf + a moves to jf + a - ell, its bound to (bound + ell*jf - half) + ell*a
    bounds, sectors = {}, {}
    for jf, cols in ch._bounds.items():
        moved = _per_bound(cols, lambda bound: bound + ell * jf - half)
        bounds[jf] = {a - ell: moved[a] + ell * a for a in cols}
    # (jf + a, hf + b) moves to (jf + a - ell, hf' + b + ell*a + k), where
    # hf + ell*jf - ell(ell+1)/2 = hf' + k with hf' in [0, 1): each run of
    # column a moves as a whole
    for (jf, hf), cols in ch._sectors.items():
        hf_tgt, k = _split(hf + ell * jf - half)
        sectors[(jf, hf_tgt)] = {a - ell: tuple([(lo + ell * a + k, counts) for lo, counts in runs])
                                 for a, runs in cols.items()}
    return CharSeries._from_sectors(bounds, sectors)


def char_dual(ch: CharSeries) -> CharSeries:
    """Regrade by the restricted dual: ``(j, h) -> (1 - j, h)``."""
    # 1 - (jf + a) = jd + (c - a) with jd in [0, 1) and c an integer
    bounds, sectors = {}, {}
    for jf, cols in ch._bounds.items():
        jd, c = _split(1 - jf)
        bounds[jd] = {c - a: bound for a, bound in cols.items()}
    for (jf, hf), cols in ch._sectors.items():
        jd, c = _split(1 - jf)
        sectors[(jd, hf)] = {c - a: runs for a, runs in cols.items()}
    return CharSeries._from_sectors(bounds, sectors)
