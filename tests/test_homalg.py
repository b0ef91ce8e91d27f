import hashlib
from collections import Counter
from fractions import Fraction

import pytest

from ghostkit import homalg
from ghostkit.functors import dual_star, flow
from ghostkit.homalg import (
    ext_dim, euler_check, hom_dim, injective_hull, presentation_cokernel,
    presentation_kernel, projective_cover,
)
from ghostkit.modules import (
    BOTTOM, TOP, FormalSum, Typ, Vac, bstr, composition_factors, head, is_projective,
    proj, sequence_catalog, socle, tstr, typ, vac,
)
from ghostkit.verify import ext_table_expected, hom_table_expected, pool_modules

THIRD = Fraction(1, 3)

POOL = pool_modules(max_length=6, max_flow=2, cosets=(THIRD, Fraction(1, 2)))


def test_hom_examples():
    for n in range(-2, 3):
        for m in range(-2, 3):
            want = (1 if n == m - 1 else 0) + (2 if n == m else 0) \
                + (1 if n == m + 1 else 0)
            assert hom_dim(proj(n), proj(m)) == want
    assert hom_dim(bstr(2, 0), bstr(2, 1)) == 1
    assert hom_dim(bstr(3, 0), bstr(3, 0)) == 1
    assert hom_dim(typ(THIRD, 0), typ(THIRD, 0)) == 1
    assert hom_dim(typ(THIRD, 0), typ(THIRD, 1)) == 0
    assert hom_dim(typ(THIRD, 0), typ(Fraction(2, 3), 0)) == 0


def test_hom_and_ext_tables_all_offsets():
    fams = lambda k: [vac(k), tstr(2, k), bstr(2, k), proj(k)]
    for off in range(-4, 5):
        for row in fams(0):
            for col in fams(off):
                assert hom_dim(row, col) == hom_table_expected(row, col), \
                    (row, col)
                want_ext = ext_table_expected(row, col)
                if want_ext is not None:
                    assert ext_dim(row, col) == want_ext, (row, col)


def segment_labels(word, closed: str):
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


def segment_hom(m, n) -> int:
    """Hom between two simples or strings by listing every quotient segment
    of ``m`` and every submodule segment of ``n`` and counting the matching
    pairs: the test oracle of ``homalg``'s span-and-parity count."""
    subs = Counter(segment_labels(n.rows(), TOP))
    return sum(subs[lab] for lab in segment_labels(m.rows(), BOTTOM))


def rows_cover_hom(m, n) -> int:
    # hom(P0, n) for the cover P0 of m: the head factors of m, read from
    # its rows, in n's span
    lo, hi = homalg._span(n)
    if isinstance(m, Vac):
        return int(lo <= m.ell <= hi)
    return sum(1 for flow, row in m.rows() if row == TOP and lo <= flow <= hi)


# every simple and string of length at most 10 with base flow in -7..7
VACUUM_POOL = list(dict.fromkeys(
    mk(n, f) for f in range(-7, 8) for n in range(1, 11) for mk in (bstr, tstr)))


def test_hom_and_ext_agree_with_segment_listing():
    assert len(VACUUM_POOL) == 285
    for m in VACUUM_POOL:
        k = presentation_kernel(m)
        for n in VACUUM_POOL:
            hom = segment_hom(m, n)
            assert hom_dim(m, n) == hom, (m, n)
            ext = segment_hom(k, n) - rows_cover_hom(m, n) + hom
            assert ext_dim(m, n) == ext, (m, n)


def test_hom_between_long_strings():
    # one-factor images only (opposite rows), and one longer image (same rows)
    assert hom_dim(bstr(1000, 0), bstr(999, 1)) == 500
    assert hom_dim(bstr(1000, 0), bstr(1000, -2)) == 1
    assert hom_dim(tstr(1000, 0), tstr(1000, -2)) == 0
    for m, n in ((bstr(1000, 0), bstr(1000, -2)), (tstr(1000, 0), tstr(1000, -2))):
        assert hom_dim(m, n) == segment_hom(m, n), (m, n)


def factor_count_hom(m, n) -> int:
    """Hom with a projective by counting, in the other side's factor list,
    the projective's simple head (also its socle): the test oracle of
    ``homalg``'s span rule for projectives."""
    p, other = (m, n) if is_projective(m) else (n, m)
    top = p if isinstance(p, Typ) else vac(p.m)
    return other.factors().count(top)


def test_hom_with_a_projective_agrees_with_factor_counts():
    projectives = [proj(f) for f in range(-7, 8)] + [
        typ(c, f) for c in (THIRD, Fraction(1, 2), Fraction(2, 3)) for f in range(-7, 8)]
    labels = VACUUM_POOL + projectives
    for p in projectives:
        for other in labels:
            assert hom_dim(p, other) == factor_count_hom(p, other), (p, other)
            assert hom_dim(other, p) == factor_count_hom(other, p), (other, p)
    for other in (bstr(1000, 0), tstr(1000, 0), bstr(1000, -996), tstr(999, 6)):
        for m, n in ((proj(5), other), (other, proj(5))):
            assert hom_dim(m, n) == factor_count_hom(m, n), (m, n)
    assert hom_dim(proj(5), bstr(1000, 0)) == hom_dim(bstr(1000, 0), proj(5)) == 1


def test_covers_and_hulls_of_sums_are_per_summand():
    import random
    rng = random.Random(5)
    labels = POOL + [bstr(1000, 0), tstr(999, -3)]
    for _ in range(200):
        terms = [(rng.choice(labels), rng.randint(1, 3)) for _ in range(rng.randint(1, 6))]
        terms += terms[:rng.randint(0, 2)]  # repeated summands
        x = FormalSum(terms)
        for op, simples in ((projective_cover, head), (injective_hull, socle)):
            want = FormalSum()
            for mod, k in x:
                if is_projective(mod):
                    want += k * FormalSum.of(mod)
                else:
                    want += k * FormalSum((proj(s.ell), j) for s, j in simples(mod))
            assert op(x) == want, (op.__name__, x)


def test_string_endomorphisms_are_scalars():
    for mk in (bstr, tstr):
        for n in range(2, 9):
            assert hom_dim(mk(n, 0), mk(n, 0)) == 1


def test_segment_rule_agrees_with_socle_head_rule():
    # maps from a simple see the socle; maps to a simple see the head
    for mod in POOL:
        if is_projective(mod):
            continue
        for k in range(-3, 4):
            v = vac(k)
            assert hom_dim(v, mod) == composition_factors(socle(mod)).get(v, 0)
            assert hom_dim(mod, v) == composition_factors(head(mod)).get(v, 0)


def test_ext_examples():
    assert ext_dim(vac(0), vac(1)) == 1
    assert ext_dim(vac(0), vac(-1)) == 1
    assert ext_dim(vac(0), vac(0)) == 0
    assert ext_dim(vac(0), vac(2)) == 0
    for n in range(-2, 3):
        for m in range(-2, 3):
            want = (1 if n == m + 1 else 0) + (1 if n == m + 2 else 0)
            assert ext_dim(tstr(2, n), tstr(2, m)) == want
    # projectives never extend
    assert ext_dim(typ(THIRD, 2), bstr(5, -1)) == 0
    assert ext_dim(bstr(5, -1), typ(THIRD, 2)) == 0
    assert ext_dim(proj(0), vac(0)) == 0
    assert ext_dim(vac(0), proj(0)) == 0


def test_string_extension_lemma_families():
    for n in range(1, 4):
        for m in range(1, 8):
            assert ext_dim(tstr(2 * n + 1, 0), bstr(m, 2 * n + 1)) == 1
            assert ext_dim(bstr(2 * n, 0), bstr(m, 2 * n)) == 1


def test_covers_and_hulls_examples():
    assert projective_cover(bstr(3, 0)) == FormalSum.of(proj(1))
    assert injective_hull(bstr(3, 0)) == FormalSum(((proj(0), 1), (proj(2), 1)))
    assert projective_cover(vac(4)) == FormalSum.of(proj(4))
    assert injective_hull(vac(4)) == FormalSum.of(proj(4))
    w = typ(THIRD, 3)
    assert projective_cover(w) == FormalSum.of(w)
    assert injective_hull(proj(2)) == FormalSum.of(proj(2))


def test_cover_hull_closed_forms():
    for k in range(1, 5):
        for m in (-2, 0, 3):
            assert projective_cover(bstr(2 * k + 1, m)) == FormalSum(
                (proj(m + 2 * i + 1), 1) for i in range(k))
            assert injective_hull(bstr(2 * k + 1, m)) == FormalSum(
                (proj(m + 2 * i), 1) for i in range(k + 1))
            assert projective_cover(tstr(2 * k + 1, m)) == FormalSum(
                (proj(m + 2 * i), 1) for i in range(k + 1))
            assert injective_hull(tstr(2 * k + 1, m)) == FormalSum(
                (proj(m + 2 * i + 1), 1) for i in range(k))
            assert projective_cover(bstr(2 * k, m)) == FormalSum(
                (proj(m + 2 * i + 1), 1) for i in range(k))
            assert injective_hull(tstr(2 * k, m)) == FormalSum(
                (proj(m + 2 * i + 1), 1) for i in range(k))


def cover_of_simple(simple):
    # test-only oracle: the projective cover, and injective hull, of a simple
    return simple if isinstance(simple, Typ) else proj(simple.ell)


def test_covers_and_hulls_match_the_head_and_socle_route():
    import random
    labels = [bstr(n, m) for n in range(1, 11) for m in range(-7, 8)]
    labels += [tstr(n, m) for n in range(2, 11) for m in range(-7, 8)]
    labels += [proj(m) for m in range(-7, 8)] + [typ(c, m) for c in (THIRD, Fraction(1, 2))
                                                for m in range(-7, 8)]
    labels += [bstr(1000, 0), bstr(1000, -7), tstr(1000, 1), bstr(999, 3), tstr(999, -4)]
    rng = random.Random(25)
    sums = [FormalSum([(rng.choice(labels), rng.randint(1, 3))
                       for _ in range(rng.randint(1, 6))]) for _ in range(200)]
    for x in labels + sums:
        for op, simples in ((projective_cover, head), (injective_hull, socle)):
            want = simples(x).map_modules(cover_of_simple)
            got = op(x)
            assert got == want, (op.__name__, x)
            assert got.terms == want.terms and str(got) == str(want)


def test_presentation_kernels_examples():
    assert presentation_kernel(bstr(3, 0)) == vac(1)
    assert presentation_kernel(bstr(4, 0)) == bstr(4, 1)
    assert presentation_kernel(tstr(2, 0)) == tstr(2, -1)
    assert presentation_cokernel(bstr(3, 0)) == bstr(5, -1)
    assert presentation_cokernel(tstr(3, 0)) == vac(1)
    # the simple vacuum flows present through the staggered diamond
    assert presentation_kernel(vac(0)) == tstr(3, -1)
    assert presentation_cokernel(vac(0)) == bstr(3, -1)
    with pytest.raises(ValueError):
        presentation_kernel(proj(0))
    with pytest.raises(ValueError):
        presentation_cokernel(typ(THIRD, 0))


def test_presentation_balance_everywhere():
    for mod in POOL:
        if is_projective(mod):
            continue
        cover = projective_cover(mod)
        kernel = presentation_kernel(mod)
        assert composition_factors(cover) == composition_factors(
            FormalSum.of(mod) + FormalSum.of(kernel)), mod
        hull = injective_hull(mod)
        coker = presentation_cokernel(mod)
        assert composition_factors(hull) == composition_factors(
            FormalSum.of(mod) + FormalSum.of(coker)), mod


def test_presentations_are_dual_to_each_other():
    for mod in POOL:
        if is_projective(mod):
            continue
        assert presentation_cokernel(dual_star(mod)) == \
            dual_star(presentation_kernel(mod))


def test_ext_agrees_with_injective_route():
    # independent recomputation: resolve the target instead of the source
    def ext_via_target(m, n):
        if is_projective(n) or is_projective(m):
            return 0
        hull = injective_hull(n)
        coker = presentation_cokernel(n)
        return hom_dim(m, coker) - hom_dim(m, hull) + hom_dim(m, n)

    import random
    rng = random.Random(11)
    sample = rng.sample(POOL, 30)
    for a in sample:
        for b in sample:
            assert ext_dim(a, b) == ext_via_target(a, b), (a, b)


def test_hom_ext_duality_and_flow_symmetry():
    import random
    rng = random.Random(3)
    sample = rng.sample(POOL, 25)
    for a in sample:
        for b in sample:
            h = hom_dim(a, b)
            assert h == hom_dim(dual_star(b), dual_star(a))
            assert h == hom_dim(flow(a, 3), flow(b, 3))
            e = ext_dim(a, b)
            assert e == ext_dim(dual_star(b), dual_star(a))
            assert e == ext_dim(flow(a, -2), flow(b, -2))


def test_support_rule_changes_no_answer(monkeypatch):
    # with the support test switched off only the span-and-parity count and
    # the multiplicity route are left; it must give the shipped answer on every ordered pair
    pool = pool_modules(max_length=6, max_flow=4, cosets=(THIRD, Fraction(2, 3)))
    pairs = [(a, b) for a in pool for b in pool]
    assert len(pairs) == 126 ** 2
    shipped = [(hom_dim(a, b), ext_dim(a, b)) for a, b in pairs]
    # 5,886 of the 15,876 pairs are apart
    apart = sum(homalg._apart(a, b) for a, b in pairs)
    assert apart > len(pairs) // 3
    monkeypatch.setattr(homalg, "_apart", lambda m, n: False)
    assert [(hom_dim(a, b), ext_dim(a, b)) for a, b in pairs] == shipped


def test_cover_term_is_hom_out_of_the_cover():
    pool = [mod for mod in pool_modules() if not is_projective(mod)]
    for m in pool:
        cover = projective_cover(m)
        for n in pool:
            assert homalg._cover_hom(m, n) == hom_dim(cover, n), (m, n)


def test_hom_bilinearity():
    s = FormalSum(((proj(0), 2), (vac(1), 1)))
    t = FormalSum(((proj(0), 1), (bstr(2, 0), 3)))
    assert hom_dim(s, t) == 2 * hom_dim(proj(0), t) + hom_dim(vac(1), t)
    assert hom_dim(s, t) == hom_dim(s, proj(0)) + 3 * hom_dim(s, bstr(2, 0))


def test_euler_check_on_catalog():
    catalog = sequence_catalog(6)
    probes = [proj(k) for k in range(-2, 3)] + [typ(THIRD, 0)]
    for seq in catalog:
        for probe in probes:
            assert euler_check(seq, probe), (seq.name, probe)


def test_euler_check_rejects_bad_probe():
    seq = sequence_catalog(2)[0]
    with pytest.raises(ValueError):
        euler_check(seq, bstr(2, 0))


def test_defining_sequences_have_unique_extensions():
    for seq in sequence_catalog(6):
        if seq.tag in {"b-odd-grow", "b-even-grow", "t-odd-grow", "t-even-grow"}:
            quot = next(seq.quotient.modules())
            sub = next(seq.sub.modules())
            assert ext_dim(quot, sub) == 1, seq.name


HOM_EXT_TABLE_SHA256 = "b39fd507ec4d7d4165761ccb73cc4969223e587e809ab4bb33cb24e0313eaef0"


def test_full_hom_ext_table_is_pinned():
    # every ordered pair of the default pool, then the presentation of every
    # non-projective module in it
    pool = pool_modules()
    assert len(pool) == 119
    h = hashlib.sha256()
    for a in pool:
        for b in pool:
            h.update(f"{a}|{b}|{hom_dim(a, b)}|{ext_dim(a, b)}\n".encode())
    for m in pool:
        if not is_projective(m):
            h.update(f"{m}|{presentation_kernel(m)}|{presentation_cokernel(m)}|"
                     f"{projective_cover(m)}|{injective_hull(m)}\n".encode())
    assert h.hexdigest() == HOM_EXT_TABLE_SHA256
