import gc
import hashlib
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from ghostkit import fusion
from ghostkit.functors import conjugate, dual_restricted, dual_star, dual_tensor, flow
from ghostkit.fusion import (
    MAX_COMPACT_ENTRIES, GuardExtensionError, expand_projsum, fuse, fuse_detailed,
    groth_class, groth_product, unit_class,
)
from ghostkit.modules import FormalSum, bstr, proj, tstr, typ, vac
from ghostkit.verify import pool_modules

THIRD = Fraction(1, 3)
HALF = Fraction(1, 2)
TWO_THIRDS = Fraction(2, 3)


def s_expected(m, n, k):
    # independent transcription of the projective sums used by the table tests
    if m == 0 or n == 0:
        return FormalSum()
    terms = []
    for r in range(1, m + n):
        terms.append((proj(k + 2 * r - 1), min(r, m, n, m + n - r)))
    return FormalSum(terms)


def test_expand_projsum_examples():
    assert expand_projsum(1, 1, 1) == FormalSum.of(proj(2))
    # a record equals only a record of its own type
    assert fusion.ProjSum(1, 1, 0) != (1, 1, 0)
    assert expand_projsum(2, 2, 0) == FormalSum(
        ((proj(1), 1), (proj(3), 2), (proj(5), 1)))
    with pytest.raises(ValueError):
        expand_projsum(0, 2, 0)
    with pytest.raises(ValueError):
        expand_projsum(3, -1, 0)


def test_expand_projsum_refuses_non_integral_arguments():
    assert expand_projsum(2.0, Fraction(2), 0.0) == expand_projsum(2, 2, 0)
    with pytest.raises(ValueError, match="must be an integer"):
        expand_projsum(1.5, 1.5, 0.5)
    with pytest.raises(ValueError, match="k must be an integer"):
        expand_projsum(1, 1, 0.5)


def test_expand_projsum_total_multiplicity_brute_force():
    for m in range(1, 13):
        for n in range(1, 13):
            total = sum(min(r, m, n, m + n - r) for r in range(1, m + n))
            assert total == m * n
            assert expand_projsum(m, n, 0).total() == m * n


def test_unit_and_flow_shortcuts():
    b = bstr(4, 2)
    assert fuse(vac(0), b) == FormalSum.of(b)
    assert fuse(vac(-3), b) == FormalSum.of(bstr(4, -1))
    assert fuse(vac(1), typ(THIRD, 2)) == FormalSum.of(typ(THIRD, 3))


def test_relaxed_fusion():
    assert fuse(typ(THIRD, 0), typ(THIRD, 0)) == FormalSum(
        ((typ(TWO_THIRDS, -1), 1), (typ(TWO_THIRDS, 0), 1)))
    assert fuse(typ(THIRD, 0), typ(TWO_THIRDS, 0)) == FormalSum.of(proj(-1))
    # flows add, with the staggered summand one unit down
    assert fuse(typ(THIRD, 2), typ(TWO_THIRDS, -1)) == FormalSum.of(proj(0))


def test_projective_ideal_rule():
    assert fuse(proj(0), vac(3)) == FormalSum.of(proj(3))
    assert fuse(proj(0), typ(THIRD, 0)) == FormalSum(
        ((typ(THIRD, -1), 1), (typ(THIRD, 0), 2), (typ(THIRD, 1), 1)))
    assert fuse(proj(0), proj(0)) == FormalSum(
        ((proj(-1), 1), (proj(0), 2), (proj(1), 1)))
    assert fuse(proj(0), bstr(3, 1)) == FormalSum(
        ((proj(1), 1), (proj(2), 1), (proj(3), 1)))
    assert fuse(typ(HALF, 0), tstr(4, -1)) == FormalSum(
        (typ(HALF, j), 1) for j in range(-1, 3))


def test_small_string_products():
    assert fuse(tstr(2, 0), bstr(2, 0)) == FormalSum.of(proj(1))
    assert fuse(bstr(2, 0), bstr(2, 0)) == FormalSum(
        ((bstr(2, 0), 1), (bstr(2, 1), 1)))
    assert fuse(tstr(2, 0), tstr(2, 0)) == FormalSum(
        ((tstr(2, 0), 1), (tstr(2, 1), 1)))
    assert fuse(bstr(3, 0), bstr(3, 0)) == FormalSum.of(bstr(5, 0)) + s_expected(1, 1, 1)


@pytest.mark.parametrize("m,n", [(m, n) for m in range(1, 5)
                                 for n in range(1, m + 1)])
def test_fusion_table_rows(m, n):
    """Each table row with both lengths <= 9 at base flow 0, under the stated
    ordering of the length parameters (m >= n)."""
    B, T = bstr, tstr

    def S(mm, nn, k):
        return s_expected(mm, nn, k)

    rows = [
        (B(2 * m + 1, 0), B(2 * n + 1, 0),
         FormalSum.of(B(2 * m + 2 * n + 1, 0)) + S(m, n, 1)),
        (T(2 * m + 1, 0), T(2 * n + 1, 0),
         FormalSum.of(T(2 * m + 2 * n + 1, 0)) + S(m, n, 1)),
        (B(2 * m + 1, 0), B(2 * n, 0), FormalSum.of(B(2 * n, 0)) + S(m, n, 1)),
        (T(2 * m + 1, 0), T(2 * n, 0), FormalSum.of(T(2 * n, 0)) + S(m, n, 1)),
        (B(2 * m, 0), B(2 * n, 0),
         FormalSum.of(B(2 * n, 2 * m - 1)) + FormalSum.of(B(2 * n, 0))
         + S(m - 1, n, 1)),
        (T(2 * m, 0), T(2 * n, 0),
         FormalSum.of(T(2 * n, 2 * m - 1)) + FormalSum.of(T(2 * n, 0))
         + S(m - 1, n, 1)),
        (T(2 * m + 1, 0), B(2 * n + 1, 0),
         FormalSum.of(T(2 * m - 2 * n + 1, 2 * n)) + S(m + 1, n, 0)),
        (B(2 * m + 1, 0), T(2 * n + 1, 0),
         FormalSum.of(B(2 * m - 2 * n + 1, 2 * n)) + S(m + 1, n, 0)),
        (T(2 * m, 0), B(2 * n + 1, 0), FormalSum.of(T(2 * m, 2 * n)) + S(m, n, 0)),
        (B(2 * m, 0), T(2 * n + 1, 0), FormalSum.of(B(2 * m, 2 * n)) + S(m, n, 0)),
        (T(2 * m, 0), B(2 * n, 0), S(m, n, 0)),
        (B(2 * m, 0), T(2 * n, 0), S(m, n, 0)),
    ]
    for a, b, expected in rows:
        got = fuse_detailed(a, b)
        assert got.total == expected, f"{a} x {b}"
        assert not got.guard_extended


def test_guard_extension_flagging():
    # odd half smaller than even half has no reordering inside the guard
    res = fuse_detailed(bstr(3, 0), bstr(4, 0))
    assert res.guard_extended
    assert res.total == FormalSum.of(bstr(4, 0)) + s_expected(1, 2, 1)
    # mixed odd lengths always reorder into the guard
    res = fuse_detailed(tstr(3, 0), bstr(5, 0))
    assert not res.guard_extended
    assert res.total == FormalSum.of(bstr(3, 2)) + s_expected(3, 1, 0)


def test_strict_guards_raise():
    with pytest.raises(GuardExtensionError):
        fuse(bstr(3, 0), bstr(4, 0), strict_guards=True)
    # non-extended products still work in strict mode
    assert fuse(bstr(5, 0), bstr(4, 0), strict_guards=True) == \
        fuse(bstr(5, 0), bstr(4, 0))


def test_strict_guards_raise_on_fresh_and_cached_pairs(monkeypatch):
    # the guard flag is read with the pair product, whether the product is
    # built by the call or read from the cache; alone and as one term pair
    extended = (bstr(3, 0), bstr(4, 0))
    left = FormalSum(((bstr(3, 0), 1), (vac(0), 1)))
    right = FormalSum(((bstr(4, 0), 1), (tstr(5, 1), 2)))
    key = (bstr(3, 0)._id, bstr(4, 0)._id)
    for cached in (False, True):
        for fn in (fuse, fuse_detailed):
            for x, y in (extended, (left, right)):
                _fresh_caches(monkeypatch)
                if cached:
                    fuse(*extended)  # a non-strict call caches the extended pair
                    assert fusion._PAIR_CACHE[key][1]
                with pytest.raises(GuardExtensionError, match=r"B\[3,0\] x B\[4,0\]"):
                    fn(x, y, strict_guards=True)
    # without the extended pair the same sums fuse in strict mode
    for x, y in ((left, FormalSum.of(tstr(5, 1), 2)), (FormalSum.of(vac(0)), right)):
        res = fuse_detailed(x, y)
        assert not res.guard_extended
        assert fuse(x, y, strict_guards=True) == res.total
        assert fuse_detailed(x, y, strict_guards=True) == res


def test_guard_extended_products_match_proven_length2_formulas():
    # products with a length-2 factor are known for every length; they land
    # in the guard-extended branch once the other factor is longer
    for n in range(1, 4):
        assert fuse(tstr(2, 0), bstr(2 * n + 1, 0)) == \
            FormalSum.of(tstr(2, 2 * n)) + s_expected(1, n, 0)
        assert fuse(bstr(2, 0), tstr(2 * n + 1, 0)) == \
            FormalSum.of(bstr(2, 2 * n)) + s_expected(1, n, 0)
        assert fuse(bstr(2, 0), bstr(2 * n + 1, 0)) == \
            FormalSum.of(bstr(2, 0)) + s_expected(n, 1, 1)
        assert fuse(tstr(2, 0), bstr(2 * n, 0)) == s_expected(1, n, 0)


def test_bilinearity_over_sums():
    a = FormalSum(((vac(0), 1), (typ(THIRD, 0), 2)))
    b = FormalSum.of(typ(TWO_THIRDS, 0))
    assert fuse(a, b) == fuse(vac(0), b) + 2 * fuse(typ(THIRD, 0), b)


def test_fusion_flow_compatibility():
    a, b = bstr(3, 1), tstr(4, -2)
    assert fuse(flow(a, 2), flow(b, -1)) == flow(fuse(a, b), 1)


def test_fusion_star_compatibility():
    a, b = bstr(4, 0), bstr(3, -1)
    assert fuse(dual_star(a), dual_star(b)) == dual_star(fuse(a, b))


def test_duals_are_monoidal_up_to_the_unit_twist():
    # the tensor dual is monoidal; conjugation and the restricted dual send
    # the unit V[0] to V[-1], so they are monoidal only up to one flow
    pairs = list(combinations_with_replacement(pool_modules(4, 2), 2))
    assert len(pairs) == 1540
    for a, b in pairs:
        ab = fuse(a, b)
        assert dual_tensor(ab) == fuse(dual_tensor(a), dual_tensor(b)), (a, b)
        for functor in (conjugate, dual_restricted):
            assert functor(ab) == flow(fuse(functor(a), functor(b)), 1), (functor, a, b)
    unit = vac(0)
    assert conjugate(unit) == vac(-1)
    assert conjugate(fuse(unit, unit)) != fuse(conjugate(unit), conjugate(unit))


def test_rigidity_trace_objects():
    for ell in range(-3, 4):
        assert fuse(dual_tensor(vac(ell)), vac(ell)) == FormalSum.of(vac(0))
        w = typ(THIRD, ell)
        assert fuse(dual_tensor(w), w) == FormalSum.of(proj(0))


def test_groth_class_examples():
    assert groth_class(bstr(2, 0)).terms == ((vac(0), 1), (vac(1), 1))
    assert groth_class(proj(0)).terms == ((vac(-1), 1), (vac(0), 2), (vac(1), 1))
    a, b = bstr(3, 0), proj(2)
    assert groth_class(FormalSum.of(a) + FormalSum.of(b)) == \
        groth_class(a) + groth_class(b)
    assert str(groth_class(proj(0))) == "[V[-1]] + 2*[V[0]] + [V[1]]"
    assert str(groth_class(FormalSum())) == "0"
    with pytest.raises(ValueError, match="Grothendieck classes live on simples, got B"):
        fusion.GrothClass.from_dict({bstr(2, 0): 1})


def test_groth_product_examples():
    vv = groth_class(bstr(2, 0))  # [V0] + [V1]
    sq = groth_product(vv, vv)
    assert sq.terms == ((vac(0), 1), (vac(1), 2), (vac(2), 1))
    w1 = groth_class(typ(THIRD, 0))
    w2 = groth_class(typ(TWO_THIRDS, 0))
    assert groth_product(w1, w2).terms == ((vac(-2), 1), (vac(-1), 2), (vac(0), 1))
    assert groth_product(unit_class(), sq) == sq


def test_groth_homomorphism_spot_checks():
    pairs = [
        (bstr(3, 0), bstr(4, 0)),   # guard-extended
        (tstr(2, 0), bstr(7, -2)),  # guard-extended
        (proj(0), bstr(5, 1)),
        (typ(THIRD, 0), typ(TWO_THIRDS, 1)),
        (tstr(6, 0), bstr(6, 0)),
    ]
    for a, b in pairs:
        assert groth_class(fuse(a, b)) == groth_product(groth_class(a),
                                                        groth_class(b))


def test_fusion_is_commutative_spot_checks():
    mods = [vac(2), typ(THIRD, -1), bstr(3, 0), bstr(4, 1), tstr(5, -2), proj(1)]
    for a in mods:
        for b in mods:
            assert fuse(a, b) == fuse(b, a)


def test_compact_display_side_channel():
    res = fuse_detailed(bstr(3, 0), bstr(3, 0))
    assert res.compact == ("S[1,1;1]",)
    assert res.projective_part == FormalSum.of(proj(2))
    res = fuse_detailed(tstr(2, 1), bstr(2, 0))
    assert res.compact == ("S[1,1;1]",)
    assert res.total == FormalSum.of(proj(2))


def test_string_products_beyond_the_pin():
    # every ordered pair of base-flow-0 strings of lengths 2-15; the table
    # pin stops at length 7
    strings = [make(n, 0) for make in (bstr, tstr) for n in range(2, 16)]
    for a in strings:
        for b in strings:
            res, rev = fuse_detailed(a, b), fuse_detailed(b, a)
            assert groth_class(res.total) == groth_product(groth_class(a), groth_class(b))
            assert (rev.total, rev.guard_extended, rev.compact) == (
                res.total, res.guard_extended, res.compact)
            # at most one S[m,n;k] per pair product, none only for two
            # length-2 strings of one letter
            assert [mult for _, mult in res.sums] == (
                [] if a.n == b.n == 2 and type(a) is type(b) else [1])
            expanded = res.sums[0][0].expand() if res.sums else FormalSum()
            assert expanded == res.projective_part


# sha256 over every ordered pair (a, b) of the default pool_modules(), in
# pool order, of repr((str(a), str(b), str(total), guard_extended,
# str(projective_part), compact)) for res = fuse_detailed(a, b), computed
# with the dataclass labels and dict-and-sort FormalSum that preceded the
# stored-key labels.  Any change to a product, its order of terms, its guard
# flag or its compact display changes it.
FUSION_TABLE_SHA256 = "f0bf4e7983b857db89ed245319a4e3fe5480d2f404a1d80b166685028008b39f"


def test_full_fusion_table_is_pinned():
    pool = pool_modules()
    assert len(pool) == 119
    h = hashlib.sha256()
    for a in pool:
        for b in pool:
            res = fuse_detailed(a, b)
            h.update(repr((str(a), str(b), str(res.total), res.guard_extended,
                           str(res.projective_part), res.compact)).encode())
    assert h.hexdigest() == FUSION_TABLE_SHA256


def assert_canonical(total: FormalSum) -> None:
    assert FormalSum(total.terms) == total
    keys = [m._key for m, _ in total.terms]
    assert all(k1 < k2 for k1, k2 in zip(keys, keys[1:]))  # distinct and in order
    assert all(type(k) is int and k > 0 for _, k in total.terms)


def test_fusion_totals_are_canonical():
    pool = pool_modules()
    for a, b in combinations_with_replacement(pool, 2):
        total = fuse_detailed(a, b).total
        assert_canonical(total)
        # a single product is the pair cache's own sum, not a copy
        assert total is fusion._fuse_modules(a, b)[0]
    rng = random.Random(18)
    for _ in range(300):
        a, b = (FormalSum([(rng.choice(pool), rng.randint(1, 3))
                           for _ in range(rng.randint(1, 4))]) for _ in range(2))
        assert_canonical(fuse_detailed(a, b).total)


def test_pair_cache_is_bounded(monkeypatch):
    pool = pool_modules(3, 2, (THIRD,))
    pairs = [(a, b) for a in pool for b in pool]
    expected = [fuse_detailed(a, b) for a, b in pairs]
    monkeypatch.setattr(fusion, "_PAIR_CACHE", {})
    monkeypatch.setattr(fusion, "_PAIR_HELD", 0)
    monkeypatch.setattr(fusion, "PAIR_CACHE_LIMIT", 7)
    sizes, held = [], []
    for (a, b), want in zip(pairs, expected):
        assert fuse_detailed(a, b) == want
        sizes.append(len(fusion._PAIR_CACHE))
        held.append(fusion._PAIR_HELD)
        # the limit counts each product once and each of its terms once
        assert held[-1] == sum(1 + len(total.terms)
                               for total, _, _ in fusion._PAIR_CACHE.values())
    assert max(held) == 7 and sizes.count(1) > 1  # filled up and emptied


def test_every_fusion_cache_is_bounded(monkeypatch):
    # distinct cosets at nonzero flow: distinct flowed pairs and distinct
    # pairs at base flow 0
    pairs = [(typ(Fraction(1, k + 2), k), typ(Fraction(1, k + 3), -1))
             for k in range(1, 38)]
    expected = [fuse(a, b) for a, b in pairs]
    caches = [name for name, value in vars(fusion).items()
              if name.endswith("_CACHE") and isinstance(value, dict)]
    assert "_PAIR_CACHE" in caches
    for name in caches:
        monkeypatch.setattr(fusion, name, {})
    monkeypatch.setattr(fusion, "_PAIR_HELD", 0)
    monkeypatch.setattr(fusion, "PAIR_CACHE_LIMIT", 7)
    for (a, b), want in zip(pairs, expected):
        assert fuse(a, b) == want
        assert max(len(getattr(fusion, name)) for name in caches) <= 7


def test_pair_cache_is_bounded_by_the_labels_it_holds(monkeypatch):
    # each flowed product B[1000,k] x T[999,k] holds 999 new labels, about
    # 240 KiB; a cache bounded by entries alone grows by that per product
    limit = 20_000
    monkeypatch.setattr(fusion, "_PAIR_CACHE", {})
    monkeypatch.setattr(fusion, "_PAIR_HELD", 0)
    monkeypatch.setattr(fusion, "PAIR_CACHE_LIMIT", limit)
    sizes = []
    tracemalloc.start()
    try:
        for k in range(1, 101):
            assert len(fuse(bstr(1000, k), tstr(999, k))) == 999
            sizes.append(len(fusion._PAIR_CACHE))
            assert fusion._PAIR_HELD <= limit
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert max(sizes) == limit // 1000 and sizes.count(1) > 1  # filled up and emptied
    # 100 such products would hold about 24 MiB; the limit keeps 20 of them
    assert peak < 8 * 2**20


def test_flowed_miss_reads_the_cached_base_product(monkeypatch):
    base_calls = []
    fuse_base = fusion._fuse_base

    def counted(a, b):
        base_calls.append((a, b))
        return fuse_base(a, b)

    monkeypatch.setattr(fusion, "_PAIR_CACHE", {})
    monkeypatch.setattr(fusion, "_PAIR_HELD", 0)
    monkeypatch.setattr(fusion, "_fuse_base", counted)
    pool = pool_modules(4, 1, (THIRD, TWO_THIRDS))
    for a, b in combinations_with_replacement([m for m in pool if m.flow == 0], 2):
        fuse(a, b)
    built = len(base_calls)
    assert built > 0
    for a, b in combinations_with_replacement(pool, 2):
        if a.flow or b.flow:
            want = flow(fuse(a.flowed(-a.flow), b.flowed(-b.flow)), a.flow + b.flow)
            before = len(fusion._PAIR_CACHE)
            assert fuse(a, b) == want, (a, b)
            # the base product is cached, so only the flowed one is added
            assert len(fusion._PAIR_CACHE) == before + 1, (a, b)
    assert len(base_calls) == built
    # a flowed product whose base product is not cached stores both
    fusion._PAIR_CACHE.clear()
    assert fuse(bstr(5, 3), tstr(4, -1)) == flow(fuse(bstr(5, 0), tstr(4, 0)), 2)
    assert len(fusion._PAIR_CACHE) == 2 and len(base_calls) == built + 1


def test_compact_display_is_capped():
    res = fuse_detailed(FormalSum.of(bstr(3, 0), MAX_COMPACT_ENTRIES), bstr(3, 0))
    assert res.compact == ("S[1,1;1]",) * MAX_COMPACT_ENTRIES
    res = fuse_detailed(FormalSum.of(bstr(3, 0), 10**9), bstr(3, 0))
    assert res.total == FormalSum(((bstr(5, 0), 10**9), (proj(2), 10**9)))
    assert res.projective_part == FormalSum.of(proj(2), 10**9)
    limit = f"1000000000 entries, above the limit {MAX_COMPACT_ENTRIES}"
    with pytest.raises(ValueError, match=limit):
        res.compact


def _fresh_caches(monkeypatch):
    monkeypatch.setattr(fusion, "_PAIR_CACHE", {})
    monkeypatch.setattr(fusion, "_LABELS", {})
    monkeypatch.setattr(fusion, "_PAIR_HELD", 0)


def test_cached_products_share_their_labels(monkeypatch):
    _fresh_caches(monkeypatch)
    # two flowed misses on one base product, B[3,0] x B[3,0], both at shift 82
    first, second = fuse(bstr(3, 40), bstr(3, 42)), fuse(bstr(3, 41), bstr(3, 41))
    assert first == second and len(first.terms) > 1
    assert all(m is n for (m, _), (n, _) in zip(first.terms, second.terms))
    # the base product's labels are the table's too, and flowed back to base
    # flow a product finds them
    base = fuse(bstr(3, 0), bstr(3, 0))
    assert all(fusion._LABELS[m._id] is m for m, _ in base.terms)
    back = fuse(bstr(3, 1), bstr(3, -1))
    assert all(m is n for (m, _), (n, _) in zip(base.terms, back.terms))


def test_label_table_is_bounded_by_the_pair_cache(monkeypatch):
    _fresh_caches(monkeypatch)
    pool = pool_modules()
    for a, b in combinations_with_replacement(pool, 2):
        fuse(a, b)
    assert 0 < len(fusion._LABELS) <= fusion._PAIR_HELD
    # every label of every cached product is the table's own object
    for total, _, _ in fusion._PAIR_CACHE.values():
        for m, _ in total.terms:
            assert fusion._LABELS[m._id] is m


def test_cancelled_flows_take_their_labels_from_the_table(monkeypatch):
    _fresh_caches(monkeypatch)
    fuse(bstr(3, 0), bstr(3, 0))
    # the next store empties the cache and the table, but B[3,5] x B[3,-5]
    # still finds its base product, fetched before the store
    monkeypatch.setattr(fusion, "PAIR_CACHE_LIMIT", fusion._PAIR_HELD + 1)
    fuse(bstr(3, 5), bstr(3, -5))
    for total, _, _ in fusion._PAIR_CACHE.values():
        for m, _ in total.terms:
            assert fusion._LABELS.get(m._id) is m, m


def test_label_table_is_emptied_with_the_pair_cache(monkeypatch):
    pool = pool_modules(3, 1)
    pairs = [(a, b) for a in pool for b in pool]
    expected = [fuse(a, b) for a, b in pairs]
    _fresh_caches(monkeypatch)
    monkeypatch.setattr(fusion, "PAIR_CACHE_LIMIT", 250)
    inner, depth, nested_clears = fusion._fuse_modules, [0], []

    def watched(a, b):
        held = fusion._PAIR_HELD
        depth[0] += 1
        try:
            return inner(a, b)
        finally:
            depth[0] -= 1
            if depth[0] and fusion._PAIR_HELD < held:  # emptied inside a base call
                nested_clears.append((a, b))

    monkeypatch.setattr(fusion, "_fuse_modules", watched)
    sizes = []
    for (a, b), want in zip(pairs, expected):
        assert fuse(a, b) == want, (a, b)
        assert len(fusion._LABELS) <= fusion._PAIR_HELD <= 250
        # the table keeps no label of a product the cache dropped
        held = {id(m) for total, _, _ in fusion._PAIR_CACHE.values() for m, _ in total.terms}
        assert all(id(m) in held for m in fusion._LABELS.values())
        sizes.append(len(fusion._LABELS))
    assert any(later < earlier for earlier, later in zip(sizes, sizes[1:]))  # emptied
    assert nested_clears


def test_fusion_leaves_the_collector_settings_alone():
    enabled, threshold = gc.isenabled(), gc.get_threshold()
    pool = pool_modules(4, 1)
    for a, b in combinations_with_replacement(pool, 2):
        fuse(flow(a, 5), b)
    assert (gc.isenabled(), gc.get_threshold()) == (enabled, threshold)


@pytest.mark.parametrize("limit", [None, 1000])
def test_fuse_agrees_with_fuse_detailed(monkeypatch, limit):
    # fuse runs fuse_detailed's loop without building a FusionResult; the
    # caches fill from empty, and with a low limit they are emptied during
    # the sweep
    pool = pool_modules()
    _fresh_caches(monkeypatch)
    if limit is not None:
        monkeypatch.setattr(fusion, "PAIR_CACHE_LIMIT", limit)
    held = []
    for a in pool:
        for b in pool:
            assert fuse(a, b) is fuse_detailed(a, b).total, (a, b)
            held.append(fusion._PAIR_HELD)
    rng = random.Random(32)
    sums = []
    for _ in range(300):
        terms = [(rng.choice(pool), rng.randint(1, 3)) for _ in range(rng.randint(1, 4))]
        sums.append(FormalSum(terms + [terms[0]]))  # a repeated label
    for x, y in zip(sums, sums[1:] + sums[:1]):
        assert fuse(x, y) == fuse_detailed(x, y).total, (x, y)
        held.append(fusion._PAIR_HELD)
    emptied = any(later < earlier for earlier, later in zip(held, held[1:]))
    assert emptied == (limit is not None)
