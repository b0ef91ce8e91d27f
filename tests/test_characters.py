import functools
import hashlib
import itertools
import math
import operator
import time
from fractions import Fraction

import pytest

from ghostkit import characters, fusion
from ghostkit.characters import (
    MAX_ORACLE_WEIGHT, MAX_TABLE_WEIGHT, MAX_WINDOW_WIDTH, CharSeries, TruncationError,
    _build_suffix_table, _enumerate_free_monomials, char_dual, char_flow, character, free_monomial_counts,
    pbw_character_oracle,
)
from ghostkit.config import Config
from ghostkit.functors import dual_restricted, flow
from ghostkit.grammar import parse_module_expr
from ghostkit.modules import (
    bstr, composition_factors, proj, sequence_catalog, tstr, typ, vac,
)
from ghostkit.verify import characters_suite, pool_modules, zero_coset_standard
from ghostkit.weights import flow_weight, weight

THIRD = Fraction(1, 3)
WINDOW = (-6, 6)

# SHA-256 of every character of the default pool at hmax 8 on WINDOW, and of
# the flows (|ell| <= 3) and duals of the characters suite's five probes
CHARACTER_TABLE_SHA256 = "f6865bd50b24014703ca0452c961104103ba71db7ae973760a0a8b2a4676f06f"


def monomial_counts(rows, max_weight):
    # the nonzero counts of the shared table to ``max_weight`` as
    # ``{(ghost, weight): count}``: differences of adjacent suffix sums
    top = len(rows) // 2
    padded = rows + ((0,) * len(rows[0]),)
    return {(g, w): c for w in range(max_weight + 1) for g in range(-w, w + 1)
            if (c := padded[g + top][w] - padded[g + top + 1][w])}


def test_free_monomial_counts_small():
    f = monomial_counts(free_monomial_counts(2), 2)
    assert f[(0, 0)] == 1          # empty monomial
    assert f[(1, 1)] == 1          # single raising mode at weight 1
    assert f[(-1, 1)] == 1
    assert f[(0, 2)] == 1          # raising and lowering at weight 1
    assert f[(2, 2)] == 1
    assert f[(1, 2)] == 1
    assert (3, 2) not in f


def test_shared_table_matches_enumeration_in_any_order(monkeypatch):
    # start from an unbuilt table so the ascending pass grows it step by step
    monkeypatch.setattr(characters, "_SUFFIX", ((1,),))
    weights = list(range(11))
    for w in weights + weights[::-1]:
        assert monomial_counts(free_monomial_counts(w), w) == _enumerate_free_monomials(w), w
    with pytest.raises(TypeError):
        free_monomial_counts(3)[(0, 0)] = 7


def test_table_rows_by_charge_match_enumeration():
    for top in range(11):
        counts = _enumerate_free_monomials(top)
        rows = _build_suffix_table(top)
        assert len(rows) == 2 * top + 1
        for g in range(-top, top + 1):
            at_least = tuple(sum(c for (h, w), c in counts.items() if w == v and h >= g)
                             for v in range(top + 1))
            assert rows[g + top] == at_least, (top, g)
        # below charge -w a row reads the total at w, above charge w it reads 0
        totals = tuple(sum(c for (_, w), c in counts.items() if w == v) for v in range(top + 1))
        assert all(rows[g + top][w] == totals[w]
                   for w in range(top + 1) for g in range(-top, -w))
        assert all(rows[g + top][w] == 0 for w in range(top + 1) for g in range(w + 1, top + 1))
        assert rows[0] == totals


def full_width_suffix_table(max_weight):
    """Test-only oracle for ``_build_suffix_table``: the knapsack run on
    every charge -w..w, with no use of the symmetry under g -> -g, then the
    same suffix sums, padding and transpose."""
    counts = [[0] * (2 * w + 1) for w in range(max_weight + 1)]
    counts[0][0] = 1
    for n in range(1, max_weight + 1):
        for s in (1, -1):
            lo = n + s
            for w in range(n, max_weight + 1):
                row, prev = counts[w], counts[w - n]
                hi = lo + len(prev)
                row[lo:hi] = map(operator.add, row[lo:hi], prev)
    for w, row in enumerate(counts):
        suffix = list(itertools.accumulate(reversed(row)))[::-1]
        pad = max_weight - w
        counts[w] = [suffix[0]] * pad + suffix + [0] * pad
    return tuple(zip(*counts))


def test_closed_form_table_matches_the_full_width_knapsack_oracle():
    # 67 is the deepest table the char-grid benchmark builds; at 200 the
    # closed form's terms reach charges and weights in the hundreds
    for top in [*range(41), 67, 200]:
        assert _build_suffix_table(top) == full_width_suffix_table(top), top


def test_table_weight_limit_is_checked_before_building(monkeypatch):
    def no_build(weight):
        raise AssertionError(f"table build started for weight {weight}")

    monkeypatch.setattr(characters, "_build_suffix_table", no_build)
    too_big = MAX_TABLE_WEIGHT + 1
    with pytest.raises(ValueError, match=f"weight {too_big}, above the limit {MAX_TABLE_WEIGHT}"):
        free_monomial_counts(too_big)
    with pytest.raises(ValueError, match="above the limit"):
        character(vac(0), too_big, (0, 0))


def test_vacuum_oracle_hand_values():
    ch = pbw_character_oracle(vac(0), 4, WINDOW)
    assert ch.coeff(0, 0) == 1
    assert ch.coeff(-1, 0) == 1
    assert ch.coeff(-5, 0) == 1
    assert ch.coeff(1, 0) == 0
    assert ch.coeff(1, 1) == 1
    assert ch.coeff(0, 1) == 1
    # hand enumeration: weight 2 at ghost 0 comes from a raising/lowering
    # pair, one ground shift with a weight-2 raising mode, and two ground
    # shifts with two weight-1 raising modes
    assert ch.coeff(0, 2) == 3
    assert ch.coeff(1, 2) == 2
    assert ch.coeff(-1, 1) == 2


def test_relaxed_oracle_hand_values():
    ch = pbw_character_oracle(typ(THIRD, 0), 3, WINDOW)
    cols = ch.columns()
    assert Fraction(1, 3) in cols and Fraction(-5, 3) in cols
    for j in cols:
        assert ch.coeff(j, 0) == 1
        assert ch.coeff(j, 1) == 2
    assert Fraction(1, 2) not in cols


def test_oracle_weight_limit_is_checked_before_enumerating(monkeypatch):
    def no_enumeration(*args):
        raise AssertionError("monomials were enumerated")

    def no_character(*args):
        raise AssertionError("a character was computed")

    monkeypatch.setattr(characters, "_enumerate_free_monomials", no_enumeration)
    monkeypatch.setattr(characters, "character", no_character)
    too_big = MAX_ORACLE_WEIGHT + 1
    with pytest.raises(ValueError, match=f"hmax={too_big} .* above the limit {MAX_ORACLE_WEIGHT}"):
        pbw_character_oracle(vac(0), too_big, WINDOW)
    with pytest.raises(ValueError, match=f"hmax={too_big} "):
        characters_suite(Config(hmax=Fraction(too_big)))


def test_empty_window_is_refused():
    with pytest.raises(ValueError, match=r"empty ghost window \(1, 0\)"):
        character(vac(0), 8, (1, 0))


def test_oracle_rejects_twisted_and_composite():
    with pytest.raises(ValueError):
        pbw_character_oracle(vac(1), 4, WINDOW)
    with pytest.raises(ValueError):
        pbw_character_oracle(bstr(2, 0), 4, WINDOW)


def test_character_matches_oracle_on_untwisted_simples():
    for mod in (vac(0), typ(THIRD, 0)):
        oracle = pbw_character_oracle(mod, 8, WINDOW)
        fast = character(mod, 8, WINDOW)
        assert oracle == fast


def clamped_simple_character(layout, rows):
    """Test-only oracle for ``_simple_character``: one loop for both kinds
    of simple, clamping each column's lowest weight and its row to 0."""
    vacuum, ell, _, cols, off0, bmax, _ = layout
    top = len(rows) // 2
    runs = {}
    for a in cols:
        off = off0 + ell * a
        n = bmax - off + 1
        lo = max(a + ell, 0) if vacuum else 0
        if lo < n:
            row = rows[max(a + ell + top, 0)] if vacuum else rows[0]
            runs[a] = (lo + off, row[lo:n])
    return runs


@functools.cache
def _suffix_table(top):
    return _build_suffix_table(top)


def test_column_reads_match_the_clamped_oracle():
    modules = [make(ell) for ell in range(-6, 7) for make in (
        vac, functools.partial(typ, THIRD), functools.partial(bstr, 3),
        functools.partial(tstr, 3), proj)]
    simples = {simple for mod in modules for simple in composition_factors(mod)}
    negative = 0
    # at flows -6..6 each window has columns that read charges g = a + ell on
    # both sides of 0
    for window in ((-9, 9), (3, 7), (-7, -3)):
        jmin, jmax = map(Fraction, window)
        for hmax in (Fraction(0), Fraction(8), Fraction(30), Fraction(7, 2)):
            vacuum = range(math.ceil(jmin), math.floor(jmax) + 1), math.floor(hmax)
            for simple in simples:
                coset = getattr(simple, "coset", 0)  # 0 for the vacuum
                layout = characters._layout(not coset, coset, simple.ell, hmax, jmin, jmax, vacuum)
                # a table of just the weight needed, and a deeper shared one
                for top in (layout.weight, 80):
                    rows = _suffix_table(top)
                    runs = characters._simple_character(layout, rows)
                    oracle = clamped_simple_character(layout, rows)
                    assert runs == oracle and list(runs) == list(oracle), (simple, hmax, window)
                negative += layout.vacuum and any(a + layout.ell < 0 for a in runs)
    assert negative > 100


def test_zero_coset_standard_module_on_a_wider_grid(monkeypatch):
    grid = [(ell, hmax, window) for hmax in (Fraction(8), Fraction(15, 2), Fraction(20))
            for window in ((-6, 6), (-9, 9), (2, 7), (-7, -3)) for ell in range(-6, 7)]
    assert all(zero_coset_standard(*case) for case in grid)

    def points(ell, hmax, window):
        return len(character(parse_module_expr(f"V[{ell}] + V[{ell - 1}]"), hmax, window).coeffs)

    # the standard-module half of a consistent ring mutant, W_0^l = V[l] + V[l+1],
    # fails every case whose truncation holds a state, and the suite's check
    # on every flow
    monkeypatch.setattr(fusion, "_standard",
                        lambda c, ell: (typ(c, ell),) if c else (vac(ell), vac(ell + 1)))
    seen = [case for case in grid if points(*case)]
    assert len(seen) > 130
    assert not any(zero_coset_standard(*case) for case in seen)
    check = {c.name: c for c in characters_suite()}["zero-coset standard module"]
    assert not check.passed and check.cases == 13 and "13 failed" in check.detail


def test_character_additivity_by_construction():
    ch = character(bstr(2, 0), 6, WINDOW)
    parts = character(vac(0), 6, WINDOW) + character(vac(1), 6, WINDOW)
    assert ch == parts
    assert character(proj(0), 6, WINDOW).coeff(0, 0) == 2


@pytest.mark.parametrize("hmax", (8, 30))
def test_factor_columns_of_different_lengths_add_top_aligned(hmax):
    # the vacuum-sector factors flow differently, so their columns start at
    # different h; each factor is added on its own, once per multiplicity
    x = parse_module_expr("3*B[4,-1] + 2*P[0] + V[2] + T[3,1] + 2*W[1/3,0] + W[1/3,1]")
    window = (-9, 9)
    factors = composition_factors(x)
    assert max(factors.values()) > 1
    chars = {simple: character(simple, hmax, window) for simple in factors}
    assert len({min(ch.column_profile(0)) for ch in chars.values() if ch.column_profile(0)}) > 1
    # ``+`` keeps the common columns, so factors are summed per column set
    sums: dict[frozenset, CharSeries] = {}
    for simple, k in factors.items():
        ch = chars[simple]
        for _ in range(k):
            cols = frozenset(ch.col_hmax)
            sums[cols] = sums[cols] + ch if cols in sums else ch
    assert len(sums) == 2
    col_hmax, coeffs = {}, {}
    for ch in sums.values():
        col_hmax.update(ch.col_hmax)
        coeffs.update(ch.coeffs)
    assert character(x, hmax, window) == CharSeries(col_hmax, coeffs)


def test_character_additivity_on_catalog():
    for seq in sequence_catalog(5):
        mid = character(seq.middle, 6, WINDOW)
        parts = character(seq.sub, 6, WINDOW) + character(seq.quotient, 6, WINDOW)
        assert mid == parts, seq.name


def test_twisted_character_against_direct_transform():
    # the vacuum entry moves to (-1, -1) under one unit of flow
    ch = character(vac(1), 8, WINDOW)
    assert ch.coeff(-1, -1) == 1
    src = character(vac(0), 40, (-9, 9))
    moved = char_flow(src, 1)
    assert moved.agrees_with(ch, min_points=50)


EDGE_HMAX = (0, Fraction(7, 2), 8)
EDGE_WINDOW = (Fraction(-5, 2), 3)
EDGE_BASES = (vac(0), typ(THIRD, 0), typ(Fraction(2, 7), 0), typ(Fraction(1, 2), 0))


def require_certified(ch, hmax, jwindow):
    # test-only check that the certified region of ``ch`` covers ``h <= hmax``
    # on every column of the window; returns ``ch``
    want_hmax = Fraction(hmax)
    jmin, jmax = Fraction(jwindow[0]), Fraction(jwindow[1])
    for j, b in ch.col_hmax.items():
        if jmin <= j <= jmax and b < want_hmax:
            raise TruncationError(
                f"column {j} certified only to h <= {b}, need {want_hmax}; "
                "recompute the source with a larger truncation")
    return ch


@functools.cache
def _deep_edge_character(base):
    # deep and wide enough to certify every flow |ell| <= 3 on EDGE_WINDOW
    return character(base, 40, (-7, 7))


@pytest.mark.parametrize("hmax", EDGE_HMAX)
@pytest.mark.parametrize("ell", range(-3, 4))
@pytest.mark.parametrize("base", EDGE_BASES, ids=str)
def test_integer_grids_at_fractional_edges(base, ell, hmax):
    direct = character(flow(base, ell), hmax, EDGE_WINDOW)
    moved = require_certified(char_flow(_deep_edge_character(base), ell), hmax, EDGE_WINDOW)
    lo, hi = EDGE_WINDOW
    assert set(direct.col_hmax) == {j for j in moved.col_hmax if lo <= j <= hi}
    assert dict(direct.coeffs) == {(j, h): d for (j, h), d in moved.coeffs.items()
                                   if lo <= j <= hi and h <= hmax}
    assert moved.agrees_with(direct)
    if ell == 0:
        assert pbw_character_oracle(base, hmax, EDGE_WINDOW) == direct


def test_char_flow_moves_entries_by_flow_weight():
    src = character(typ(THIRD, 0), 6, WINDOW)
    for ell in (-3, -1, 2):
        moved = char_flow(src, ell)
        assert moved.coeffs == {flow_weight(weight(j, h), ell): d
                                for (j, h), d in src.coeffs.items()}


def test_char_flow_identity():
    ch = character(bstr(3, -1), 6, WINDOW)
    assert char_flow(ch, 0) == ch


@pytest.mark.parametrize("ell", range(-3, 4))
def test_char_flow_matches_module_flow(ell):
    for mod in (vac(0), typ(THIRD, 0), tstr(3, -1)):
        src = character(mod, 45, (-9, 9))
        direct = character(flow(mod, ell), 8, WINDOW)
        assert char_flow(src, ell).agrees_with(direct, min_points=20), (mod, ell)


def test_char_dual_matches_module_dual():
    for mod in (vac(0), typ(THIRD, 0), bstr(4, -2), proj(0)):
        src = character(mod, 8, (-9, 9))
        direct = character(dual_restricted(mod), 8, WINDOW)
        assert char_dual(src).agrees_with(direct, min_points=20), mod


def test_char_dual_is_involution_up_to_window():
    ch = character(vac(0), 6, (-3, 3))
    back = char_dual(char_dual(ch))
    assert back.agrees_with(ch, min_points=10)
    assert set(back.columns()) == set(ch.columns())


def test_certified_bounds_track_flow():
    ch = character(vac(0), 8, (-2, 2))
    moved = char_flow(ch, 1)
    # target column j certified up to 8 + (j + 1)*1 - 1
    assert moved.bound(-3) == 8 + (-2) * 1 - 1
    assert moved.bound(1) == 8 + 2 - 1


def test_truncation_error_when_requested_region_uncertified():
    shallow = character(vac(0), 2, (-1, 1))
    # a big downward flow pushes certified bounds below the requested region
    with pytest.raises(TruncationError):
        require_certified(char_flow(shallow, -8), 0, (7, 9))
    # the same transform succeeds when nothing extra is demanded
    moved = char_flow(shallow, -8)
    assert moved.bound(8) < 0
    # and a deep enough source certifies the region
    deep = character(vac(0), 40, (-1, 1))
    require_certified(char_flow(deep, -8), 0, (7, 9))


def test_coeff_access_guards():
    ch = character(vac(0), 4, (-2, 2))
    with pytest.raises(KeyError):
        ch.coeff(5, 0)
    with pytest.raises(TruncationError):
        ch.coeff(0, 100)


def test_window_width_limit():
    half = MAX_WINDOW_WIDTH // 2
    assert len(character(vac(0), 0, (-half, half)).columns()) == 2 * half + 1
    with pytest.raises(ValueError, match="above the limit"):
        character(vac(0), 0, (-half, half + Fraction(1, 2)))


def test_per_column_finiteness_and_lower_bounds():
    ch = character(proj(0), 8, WINDOW)
    for j in ch.columns():
        profile = ch.column_profile(j)
        assert all(d >= 0 for d in profile.values())
        if profile:
            assert min(profile) >= -abs(j) * 8  # crude lower bound sanity


def test_series_compare_and_add_on_the_common_region():
    F = Fraction
    a = CharSeries({F(0): F(2), F(1): F(5)},
                   {(F(0), F(1)): 3, (F(0), F(3)): 7, (F(1), F(4)): 1, (F(9), F(0)): 4})
    b = CharSeries({F(0): F(1), F(1): F(4), F(2): F(9)},
                   {(F(0), F(1)): 3, (F(0), F(2)): 8, (F(1), F(4)): 1, (F(2), F(0)): 6})
    # the region is column 0 to h <= 1 and column 1 to h <= 4: two entries
    # each side, equal; everything outside it is ignored
    assert a.agrees_with(b, min_points=2) and b.agrees_with(a, min_points=2)
    assert not a.agrees_with(b, min_points=3)
    assert not a.agrees_with(CharSeries(b.col_hmax, {**b.coeffs, (F(1), F(0)): 1}))
    total = a + b
    assert dict(total.col_hmax) == {F(0): F(1), F(1): F(4)}
    assert dict(total.coeffs) == {(F(0), F(1)): 6, (F(1), F(4)): 2}


def test_series_keeps_its_own_column_bounds():
    F = Fraction
    bounds = {F(0): F(2)}
    series = CharSeries(bounds, {(F(0), F(1)): 3})
    bounds[F(0)] = F(-5)
    assert series.coeff(0, 1) == 3
    assert series == CharSeries({F(0): F(2)}, {(F(0), F(1)): 3})


def test_a_sparse_column_costs_nothing():
    # two entries 10**9 apart in one column: a stored form that filled the
    # gap would not finish
    start = time.perf_counter()
    ch = CharSeries({0: 10**9}, {(0, 0): 1, (0, 10**9): 1})
    assert ch.coeffs == {(0, 0): 1, (0, 10**9): 1}
    assert (ch.coeff(0, 0), ch.coeff(0, 1), ch.coeff(0, 10**9 - 1), ch.coeff(0, 10**9)) == (1, 0, 0, 1)
    assert list(ch.entries()) == [(0, 0, 1), (0, 10**9, 1)]
    assert (ch + ch).coeffs == {(0, 0): 2, (0, 10**9): 2}
    assert ch.agrees_with(CharSeries({0: 10**9}, {(0, 0): 1, (0, 10**9): 1}), min_points=2)
    for ell in (-2, 1, 3):
        moved = char_flow(ch, ell)
        assert moved.coeffs == {flow_weight(weight(j, h), ell): d for (j, h), d in ch.coeffs.items()}
        assert char_flow(moved, -ell) == ch
    assert char_dual(ch).coeffs == {(1, 0): 1, (1, 10**9): 1}
    assert char_dual(char_dual(ch)) == ch
    assert time.perf_counter() - start < 1


def test_a_zero_count_is_not_an_entry():
    empty = CharSeries({0: 5}, {})
    assert CharSeries({0: 5}, {(0, 1): 0}) == empty
    assert CharSeries({0: 5}, {(0, 1): 0}).coeffs == {}
    a = CharSeries({0: 5}, {(0, 1): 2, (0, 2): 3})
    total = a + CharSeries({0: 5}, {(0, 1): -2, (0, 2): -3})
    assert total == empty and total.coeffs == {} and total._sectors == {}
    assert total.coeff(0, 1) == 0
    # a sum that cancels inside a run splits it in two
    b = CharSeries({0: 5}, {(0, 1): 1, (0, 2): 1, (0, 3): 1})
    assert b + CharSeries({0: 5}, {(0, 2): -1}) == CharSeries({0: 5}, {(0, 1): 1, (0, 3): 1})


def _split(x):
    n = math.floor(x)
    return x - n, n


class FractionKeyedSeries:
    """Test-only oracle for the certified-region arithmetic of ``CharSeries``:
    bounds kept eagerly as ``{j: bound}`` with ``Fraction`` keys, and regions
    intersected by splitting each column's key in turn."""

    def __init__(self, col_hmax, coeffs):
        self.col_hmax = {Fraction(j): b for j, b in col_hmax.items()}
        self.sectors = {}
        for (j, h), d in coeffs.items():
            (jf, a), (hf, b) = _split(Fraction(j)), _split(Fraction(h))
            self.sectors.setdefault((jf, hf), {})[(a, b)] = d

    @classmethod
    def character(cls, x, hmax, jwindow):
        # every column of the window in the ghost coset of each factor
        jmin, jmax = Fraction(jwindow[0]), Fraction(jwindow[1])
        cosets = {getattr(simple, "coset", Fraction(0)) for simple in composition_factors(x)}
        bounds = {c + a: Fraction(hmax) for c in cosets
                  for a in range(math.ceil(jmin - c), math.floor(jmax - c) + 1)}
        return cls(bounds, character(x, hmax, jwindow).coeffs)

    @property
    def coeffs(self):
        return {(jf + a, hf + b): d for (jf, hf), grid in self.sectors.items()
                for (a, b), d in grid.items()}

    def flowed(self, ell):
        half = Fraction(ell * (ell + 1), 2)
        return FractionKeyedSeries(
            {j - ell: b + ell * j - half for j, b in self.col_hmax.items()},
            {(j - ell, h + ell * j - half): d for (j, h), d in self.coeffs.items()})

    def dualed(self):
        return FractionKeyedSeries({1 - j: b for j, b in self.col_hmax.items()},
                                   {(1 - j, h): d for (j, h), d in self.coeffs.items()})

    def _common_bounds(self, other):
        return {j: min(self.col_hmax[j], other.col_hmax[j])
                for j in set(self.col_hmax) & set(other.col_hmax)}

    def _inside(self, bounds):
        by_frac = {}
        for j, bound in bounds.items():
            jf, a = _split(j)
            by_frac.setdefault(jf, {})[a] = bound
        out = {}
        for (jf, hf), grid in self.sectors.items():
            limits = {a: math.floor(bound - hf) for a, bound in by_frac.get(jf, {}).items()}
            kept = {(a, b): d for (a, b), d in grid.items()
                    if a in limits and b <= limits[a]}
            if kept:
                out[(jf, hf)] = kept
        return out

    def __add__(self, other):
        bounds = self._common_bounds(other)
        total = {}
        for side in (self, other):
            for (jf, hf), grid in side._inside(bounds).items():
                for (a, b), d in grid.items():
                    total[(jf + a, hf + b)] = total.get((jf + a, hf + b), 0) + d
        return FractionKeyedSeries(bounds, total)

    def __eq__(self, other):
        return self.col_hmax == other.col_hmax and self.sectors == other.sectors

    def points_inside(self, other):
        return sum(map(len, self._inside(self._common_bounds(other)).values()))

    def agrees_with(self, other, *, min_points=1):
        bounds = self._common_bounds(other)
        mine = self._inside(bounds)
        return (mine == other._inside(bounds)
                and sum(map(len, mine.values())) >= min_points)


def _bounds_text(col_hmax):
    return ",".join(f"{j}:{b}" for j, b in sorted(col_hmax.items()))


def _oracle_pairs():
    # (series, its oracle twin), each built independently of the other
    F = Fraction
    pairs = []
    for x, hmax, window in (
            ("W[2/7,0] + W[2/7,1]", 8, WINDOW),       # two sectors share one jf
            ("W[2/7,0] + W[2/7,1]", F(7, 2), EDGE_WINDOW),
            ("W[1/3,1]", 10, (-6, 6)),                # deeper than its neighbour below
            ("W[1/3,1] + V[2]", 8, (-6, 6)),
            ("V[0]", F(17, 3), (F(-1, 2), 4)),
            ("B[3,-1] + 2*P[0]", 8, (-6, 2)),          # partly overlapping windows
            ("B[3,-1] + 2*P[0]", 7, (-1, 6)),
            ("V[0]", 8, (3, 6))):                      # disjoint from (-6, 2)
        expr = parse_module_expr(x)
        pairs.append((character(expr, hmax, window),
                      FractionKeyedSeries.character(expr, hmax, window)))
    for x in ("V[0]", "W[1/3,0]"):                     # flows: bounds differ per column
        expr = parse_module_expr(x)
        src, twin = character(expr, 20, (-7, 7)), FractionKeyedSeries.character(expr, 20, (-7, 7))
        pairs += [(char_flow(src, ell), twin.flowed(ell)) for ell in (-2, 1, 3)]
    expr = parse_module_expr("B[3,-1] + W[1/3,1]")
    pairs.append((char_dual(character(expr, 8, (-9, 9))),
                  FractionKeyedSeries.character(expr, 8, (-9, 9)).dualed()))
    for col_hmax, coeffs in (                          # the public constructor
            ({0: 2, 1: 5, F(1, 3): F(7, 2)}, {(0, 1): 3, (1, 4): 1, (F(1, 3), F(4, 3)): 2}),
            ({F(0): F(3), F(1, 3): F(5, 2), F(4, 3): 6},
             {(0, 1): 3, (F(1, 3), F(1, 3)): 1, (F(1, 3), F(7, 3)): 4, (F(4, 3), 2): 5}),
            # gaps inside columns 0 and 1/3, so a column holds several runs
            ({0: 9, 1: 9, F(1, 3): F(20, 3)},
             {(0, 0): 1, (0, 1): 2, (0, 4): 3, (0, 5): 1, (0, 8): 2, (1, 2): 1,
              (F(1, 3), F(1, 3)): 2, (F(1, 3), F(10, 3)): 1, (F(1, 3), F(13, 3)): 6}),
            # columns starting at different h, one run each
            ({-1: 8, 0: 8, 1: 8, F(1, 3): 7},
             {**{(0, h): h + 1 for h in range(9)}, **{(1, h): 2 for h in range(3, 9)},
              **{(-1, h): 5 for h in range(6, 9)}, (F(1, 3), F(4, 3)): 3})):
        pairs.append((CharSeries(col_hmax, coeffs), FractionKeyedSeries(col_hmax, coeffs)))
    return pairs


def test_integer_bounds_match_the_fraction_keyed_oracle():
    pairs = _oracle_pairs()
    for ch, twin in pairs:
        assert ch.col_hmax == twin.col_hmax
        assert _bounds_text(ch.col_hmax) == _bounds_text(twin.col_hmax)
        assert ch.coeffs == twin.coeffs
    overlapping = 0
    for (x, ox), (y, oy) in itertools.product(pairs, repeat=2):
        total, twin_total = x + y, ox + oy
        assert total.col_hmax == twin_total.col_hmax
        assert _bounds_text(total.col_hmax) == _bounds_text(twin_total.col_hmax)
        assert total.coeffs == twin_total.coeffs
        assert total == CharSeries(twin_total.col_hmax, twin_total.coeffs)
        assert (x == y) == (ox == oy)
        n = ox.points_inside(oy)
        overlapping += n > 0
        for k in (1, n, n + 1):
            assert x.agrees_with(y, min_points=k) == ox.agrees_with(oy, min_points=k)
    # the pairs include disjoint and partly overlapping regions, and
    # agreeing ones besides each series with itself
    assert 0 < overlapping < len(pairs) ** 2
    assert sum(x.agrees_with(y) for (x, _), (y, _) in itertools.product(pairs, repeat=2)) > len(pairs)


def _table_digest_input(tag, ch):
    return repr((tag, sorted(ch.col_hmax.items()), list(ch.entries()))).encode()


def test_character_table_is_pinned():
    pool = pool_modules()
    assert len(pool) == 119
    probes = [vac(0), typ(THIRD, 0), bstr(3, 0), tstr(4, -2), proj(1)]
    h = hashlib.sha256()
    for mod in pool:
        h.update(_table_digest_input(str(mod), character(mod, 8, WINDOW)))
    for mod in probes:
        ch = character(mod, 8, WINDOW)
        for ell in range(-3, 4):
            h.update(_table_digest_input(f"flow {mod} {ell}", char_flow(ch, ell)))
        h.update(_table_digest_input(f"dual {mod}", char_dual(ch)))
    assert h.hexdigest() == CHARACTER_TABLE_SHA256


def test_sector_form_round_trips_and_composes():
    # vacuum flows (V[1] and the factors of B[3,-1]) and two relaxed sectors
    ch = character(parse_module_expr("V[1] + W[1/3,0] + 2*W[1/3,1] + B[3,-1]"), 8, WINDOW)
    assert {(j % 1, h % 1) for j, h, _ in ch.entries()} == {
        (0, 0), (THIRD, 0), (THIRD, THIRD)}
    assert all(type(j) is Fraction and type(h) is Fraction for j, h, _ in ch.entries())
    assert CharSeries(ch.col_hmax, ch.coeffs) == ch
    assert eval(repr(ch), {"CharSeries": CharSeries, "Fraction": Fraction}) == ch
    for a, b in ((1, 2), (-3, 1), (2, -2)):
        assert char_flow(char_flow(ch, a), b) == char_flow(ch, a + b), (a, b)
    assert char_dual(char_dual(ch)) == ch
    assert char_dual(ch).coeffs == {(1 - j, h): d for (j, h), d in ch.coeffs.items()}
