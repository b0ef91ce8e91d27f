import hashlib
import random
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
    monkeypatch.setattr(fusion, "PAIR_CACHE_LIMIT", 7)
    sizes = []
    for (a, b), want in zip(pairs, expected):
        assert fuse_detailed(a, b) == want
        sizes.append(len(fusion._PAIR_CACHE))
    assert max(sizes) == 7 and sizes.count(1) > 1  # filled up and emptied


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
    monkeypatch.setattr(fusion, "PAIR_CACHE_LIMIT", 7)
    for (a, b), want in zip(pairs, expected):
        assert fuse(a, b) == want
        assert max(len(getattr(fusion, name)) for name in caches) <= 7


def test_compact_display_is_capped():
    res = fuse_detailed(FormalSum.of(bstr(3, 0), MAX_COMPACT_ENTRIES), bstr(3, 0))
    assert res.compact == ("S[1,1;1]",) * MAX_COMPACT_ENTRIES
    res = fuse_detailed(FormalSum.of(bstr(3, 0), 10**9), bstr(3, 0))
    assert res.total == FormalSum(((bstr(5, 0), 10**9), (proj(2), 10**9)))
    assert res.projective_part == FormalSum.of(proj(2), 10**9)
    limit = f"1000000000 entries, above the limit {MAX_COMPACT_ENTRIES}"
    with pytest.raises(ValueError, match=limit):
        res.compact
