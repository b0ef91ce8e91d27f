import pickle
import random
from fractions import Fraction

import pytest

from ghostkit.modules import (
    BOTTOM, TOP, BStr, FormalSum, Proj, TStr, Typ, Vac, _Label, _tops, as_sum, bstr,
    composition_factors, head, is_injective, is_projective, is_simple, length, loewy, proj,
    sequence_catalog, socle, tstr, typ, vac, w_zero_minus, w_zero_plus,
)


def sort_key(mod) -> tuple:
    """The canonical order of labels: by family, then by their fields, with
    relaxed labels ordered by coset value."""
    if isinstance(mod, _Label):
        return mod._key
    raise TypeError(f"not a canonical module: {mod!r}")


LABELS = (vac(-2), typ(Fraction(1, 3), 4), bstr(3, -1), tstr(2, 5), proj(0))


def test_alias_resolution():
    assert bstr(1, 3) == vac(3)
    assert tstr(1, -2) == vac(-2)
    assert w_zero_minus() == BStr(2, -1)
    assert w_zero_plus() == TStr(2, -1)
    # flowing the aliases: B[2,0] is one unit of flow on the minus module
    assert w_zero_minus(1) == BStr(2, 0)


def test_invalid_labels_rejected():
    with pytest.raises(ValueError):
        BStr(1, 0)
    with pytest.raises(ValueError):
        bstr(0, 0)
    with pytest.raises(ValueError):
        typ(0, 2)
    with pytest.raises(ValueError):
        Typ(Fraction(3), 1)


def test_factories_refuse_non_integral_values():
    assert (vac(2.0), bstr(Fraction(3), -1.0), proj(Fraction(4, 2))) == (
        vac(2), bstr(3, -1), proj(2))
    cases = [(vac, (2.5,)), (typ, (Fraction(1, 3), 0.5)), (bstr, (3.9, 0.5)),
             (tstr, (3, Fraction(1, 2))), (proj, (-0.5,)), (vac, (float("nan"),)),
             (bstr, ("3",))]
    for make, args in cases:
        with pytest.raises(ValueError, match="must be an integer"):
            make(*args)


def test_label_constructors_refuse_non_int_fields():
    # the classes themselves take ints only; the factories above convert
    for make in (lambda: Vac(1.5), lambda: Typ(Fraction(1, 3), 1.5), lambda: BStr(2.0, 0),
                 lambda: Proj("1")):
        with pytest.raises(TypeError, match="must be (an int|ints)"):
            make()
    with pytest.raises(ValueError, match="string length must be >= 1, got 0"):
        tstr(0)
    with pytest.raises(TypeError, match="multiplicity must be an int, got 1.5"):
        FormalSum([(vac(0), 1.5)])


def test_formal_sum_refuses_bool_multiplicity():
    # bool is an int subclass, refused here as the label constructors refuse it
    for mult in (True, False):
        with pytest.raises(TypeError, match=f"multiplicity must be an int, got {mult}"):
            FormalSum([(vac(0), mult)])
        with pytest.raises(TypeError, match="multiplicity must be an int"):
            FormalSum.of(vac(0), mult)
    assert FormalSum([(vac(0), 1)]).terms == ((vac(0), 1),)


def test_typ_normalizes_coset():
    assert typ(Fraction(-1, 3), 0) == typ(Fraction(2, 3), 0)
    assert typ(Fraction(4, 3), 5).coset == Fraction(1, 3)


def test_equal_labels_from_different_routes():
    a, b = typ(Fraction(-1, 3), 0), typ(Fraction(2, 3), 0)
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert Typ(Fraction(5, 3), 0) == a and {a: 1}[b] == 1
    assert bstr(1, 4) == Vac(4) and hash(bstr(1, 4)) == hash(vac(4))


def test_labels_of_different_families_differ():
    assert Vac(2) != Proj(2)
    assert BStr(2, 0) != TStr(2, 0)
    assert len({Vac(2), Proj(2), BStr(2, 0), TStr(2, 0)}) == 4
    assert vac(0) != (0, 0) and vac(0) != "V[0]"


def test_labels_are_immutable():
    fields = (("ell",), ("coset", "ell"), ("n", "m"), ("n", "m"), ("m",))
    for mod, names in zip(LABELS, fields):
        for field in names:
            with pytest.raises(AttributeError):
                setattr(mod, field, 1)
        with pytest.raises(AttributeError):
            mod.extra = 1
        assert pickle.loads(pickle.dumps(mod)) == mod


# every family, with labels that an alias or a coset outside (0, 1) resolves to
FLOWED_LABELS = LABELS + (
    bstr(1, 4), tstr(1, -3), w_zero_minus(2), w_zero_plus(-1), typ(Fraction(5, 3), -7),
    typ(Fraction(-1, 2), 0), bstr(1000, -1000), tstr(999, 999), proj(-1))


def test_flow_is_the_last_entry_of_both_keys():
    # fusion reads a flowed pair's base-flow key off its identity keys
    for mod in FLOWED_LABELS:
        assert mod._id[-1] == mod._key[-1] == mod.flow, mod
        for k in (-1000, -1, 1, 3, 1000):
            moved = mod.flowed(k)
            assert type(moved) is type(mod)
            assert moved._id == mod._id[:-1] + (mod.flow + k,), (mod, k)
            assert moved._key == mod._key[:-1] + (mod.flow + k,), (mod, k)
            assert hash(moved) == hash(moved._id)


def test_labels_refuse_assignment_and_deletion_of_every_slot():
    for mod in FLOWED_LABELS:
        for name in mod._fields + ("_key", "_id", "_hash"):
            value = getattr(mod, name)
            with pytest.raises(AttributeError, match="immutable"):
                setattr(mod, name, value)
            with pytest.raises(AttributeError, match="immutable"):
                delattr(mod, name)
            assert getattr(mod, name) == value


def test_label_repr_str_and_fields():
    assert [repr(m) for m in LABELS] == [
        "Vac(ell=-2)", "Typ(coset=Fraction(1, 3), ell=4)", "BStr(n=3, m=-1)",
        "TStr(n=2, m=5)", "Proj(m=0)"]
    assert [str(m) for m in LABELS] == ["V[-2]", "W[1/3,4]", "B[3,-1]", "T[2,5]", "P[0]"]
    w = LABELS[1]
    assert (w.coset, w.ell, LABELS[2].n, LABELS[2].m) == (Fraction(1, 3), 4, 3, -1)


def test_non_labels_are_rejected():
    with pytest.raises(TypeError):
        FormalSum((("V[0]", 1),))
    with pytest.raises(TypeError):
        FormalSum.of("V[0]")
    with pytest.raises(TypeError):
        sort_key("V[0]")
    with pytest.raises(ValueError):
        FormalSum.of(vac(0), -1)
    assert not FormalSum.of(vac(0), 0)


def test_relaxed_terms_sort_by_coset_value():
    s = FormalSum(((typ(Fraction(1, 2), 0), 1), (typ(Fraction(1, 3), 0), 1),
                   (typ(Fraction(2, 7), 0), 1)))
    assert str(s) == "W[2/7,0] + W[1/3,0] + W[1/2,0]"


def test_composition_factors():
    assert composition_factors(proj(0)) == {vac(-1): 1, vac(0): 2, vac(1): 1}
    assert composition_factors(vac(3)) == {vac(3): 1}
    assert composition_factors(bstr(4, 2)) == {
        vac(2): 1, vac(3): 1, vac(4): 1, vac(5): 1}
    assert composition_factors(typ(Fraction(1, 3), -1)) == {typ(Fraction(1, 3), -1): 1}


def test_length():
    assert length(vac(0)) == 1
    assert length(typ(Fraction(1, 2), 4)) == 1
    assert length(bstr(6, -3)) == 6
    assert length(proj(9)) == 4


def test_loewy_words():
    assert loewy(bstr(2, 0)).entries == ((0, BOTTOM), (1, TOP))
    assert loewy(tstr(5, 0)).entries == (
        (0, TOP), (1, BOTTOM), (2, TOP), (3, BOTTOM), (4, TOP))
    assert loewy(vac(0)).entries == ((0, BOTTOM),)
    word = loewy(proj(2))
    assert word.diamond
    flows = [f for f, _ in word.entries]
    assert flows == [2, 1, 3, 2]


def test_loewy_row_parity_anchored_at_base():
    # bottom at even offsets for B, top at even offsets for T
    for n in range(2, 9):
        b = bstr(n, 0).rows()
        t = tstr(n, 0).rows()
        for k in range(n):
            assert b[k] == (k, BOTTOM if k % 2 == 0 else TOP)
            assert t[k] == (k, TOP if k % 2 == 0 else BOTTOM)


def test_socle_and_head():
    assert socle(bstr(3, 0)) == FormalSum(((vac(0), 1), (vac(2), 1)))
    assert head(bstr(3, 0)) == FormalSum.of(vac(1))
    assert socle(proj(7)) == FormalSum.of(vac(7))
    assert head(proj(7)) == FormalSum.of(vac(7))
    w = typ(Fraction(1, 5), 2)
    assert socle(w) == FormalSum.of(w)
    assert head(w) == FormalSum.of(w)


def test_socle_head_alternate_along_strings():
    for n in range(2, 8):
        for mk, cls in ((bstr, BOTTOM), (tstr, TOP)):
            mod = mk(n, -1)
            soc = dict(composition_factors(socle(mod)))
            hd = dict(composition_factors(head(mod)))
            assert set(soc) | set(hd) == set(composition_factors(mod))
            assert not set(soc) & set(hd)


def row_factors(x, row: str) -> FormalSum:
    """The factors in Loewy row ``row`` of each summand of ``x``, read from
    its ``rows()`` word, with a simple summand kept whole: the head and
    socle route before both were read from span and top-row parity.  A
    test-only oracle."""
    out = FormalSum()
    for mod, k in as_sum(x):
        if is_simple(mod):
            out += FormalSum.of(mod, k)
        else:
            out += FormalSum((Vac(f), k) for f, r in mod.rows() if r == row)
    return out


# every string of length at most 10 at base flows -7..7, projectives, relaxed
# simples, strings of length 999 and 1000, and 200 seeded sums of them
ROW_LABELS = [bstr(n, m) for n in range(1, 11) for m in range(-7, 8)]
ROW_LABELS += [tstr(n, m) for n in range(2, 11) for m in range(-7, 8)]
ROW_LABELS += [proj(m) for m in range(-7, 8)] + [
    typ(c, m) for c in (Fraction(1, 3), Fraction(1, 2)) for m in range(-7, 8)]
ROW_LABELS += [bstr(1000, 0), bstr(1000, -7), tstr(1000, 1), bstr(999, 3), tstr(999, -4)]
_rng = random.Random(25)
ROW_SUMS = [FormalSum([(_rng.choice(ROW_LABELS), _rng.randint(1, 3))
                       for _ in range(_rng.randint(1, 6))]) for _ in range(200)]


def test_head_and_socle_match_the_rows_route():
    for x in ROW_LABELS + ROW_SUMS:
        for op, row in ((head, TOP), (socle, BOTTOM)):
            got, want = op(x), row_factors(x, row)
            assert got.terms == want.terms and str(got) == str(want), (op.__name__, x)


def test_length_counts_the_composition_factors():
    for x in ROW_LABELS + ROW_SUMS:
        assert length(x) == sum(composition_factors(x).values()), x


def test_top_row_parities_match_the_rows():
    # the one row rule: rows() and _tops read the same class attribute
    for mod in ROW_LABELS:
        if isinstance(mod, (BStr, TStr)) and mod.n <= 10:
            tops = {f % 2 for f, r in mod.rows() if r == TOP}
            assert tops == set(_tops(mod)) and len(_tops(mod)) == 1, mod


def test_projectivity_flags():
    assert is_projective(proj(5))
    assert is_projective(typ(Fraction(1, 3), -2))
    assert not is_projective(bstr(2, 0))
    assert not is_projective(vac(0))
    for mod in (proj(5), typ(Fraction(1, 3), -2), bstr(2, 0), vac(0), tstr(7, 3)):
        assert is_projective(mod) == is_injective(mod)


def test_formal_sum_arithmetic():
    s = FormalSum.of(vac(0)) + 2 * FormalSum.of(proj(1))
    assert s.multiplicity(proj(1)) == 2
    assert s.multiplicity(vac(1)) == 0
    assert s.total() == 3
    assert str(s) == "V[0] + 2*P[1]"
    assert FormalSum() + s == s
    with pytest.raises(ValueError):
        FormalSum(((vac(0), -1),))
    assert not FormalSum(((vac(0), 0),))


def test_formal_sum_canonical_order_and_equality():
    a = FormalSum(((proj(1), 1), (vac(0), 1), (proj(1), 1)))
    b = FormalSum(((vac(0), 1), (proj(1), 2)))
    assert a == b
    assert hash(a) == hash(b)


def old_merge(terms) -> tuple:
    """The merge ``FormalSum`` used before it shared term tuples: one
    ``[key, mod, mult]`` list per label, merged on the identity key and
    sorted on the sort key.  A test-only oracle."""
    combined = {}
    for mod, mult in terms:
        if mult == 0:
            continue
        entry = combined.get(mod._id)
        if entry is None:
            combined[mod._id] = [mod._key, mod, mult]
        else:
            entry[2] += mult
    ordered = sorted(combined.values(), key=lambda entry: entry[0])
    return tuple([(mod, mult) for _, mod, mult in ordered])


# 2/5 < 1/2 by value but not by numerator, and 3/7 < 1/2 < 4/7 by value
# while their numerators run 3, 1, 4; typ(-3/5) and typ(2/5) are equal labels
# built by different routes
MERGE_LABELS = (
    [typ(c, l) for c in (Fraction(2, 5), Fraction(1, 2), Fraction(3, 7), Fraction(4, 7),
                         Fraction(-3, 5)) for l in (-1, 0)]
    + [vac(l) for l in (-1, 0, 1)] + [bstr(n, 0) for n in (2, 3)]
    + [tstr(2, 0), tstr(2, 1), proj(0), proj(-1)])


def test_merge_matches_the_old_merge_and_shares_single_terms():
    rng = random.Random(18)
    for _ in range(400):
        terms = [(rng.choice(MERGE_LABELS), rng.randint(0, 3))
                 for _ in range(rng.randint(0, 12))]
        if terms and rng.random() < 0.3:
            terms += rng.sample(terms, rng.randint(1, len(terms)))  # the same tuples again
        got = FormalSum(terms)
        want = old_merge(terms)
        assert got.terms == want
        # the label kept for a repeated term is the first one given
        assert all(a is b for (a, _), (b, _) in zip(got.terms, want))
        keys = [m._key for m, _ in got.terms]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)
        counts = {}
        for term in terms:
            if term[1]:
                counts[term[0]._id] = counts.get(term[0]._id, 0) + 1
        for term in terms:
            if term[1] and counts[term[0]._id] == 1:
                assert any(out is term for out in got.terms)
        assert (got + got).terms == old_merge(got.terms + got.terms)
        other = FormalSum(terms[:3])
        assert (got + other).terms == old_merge(got.terms + other.terms)


def test_catalog_shapes():
    catalog = sequence_catalog(4)
    tags = {seq.tag for seq in catalog}
    assert tags == {
        "w-plus", "w-minus", "stag-sub", "stag-quot",
        "b-odd-grow", "b-even-grow", "t-odd-grow", "t-even-grow",
        "b-top-strip", "b-odd-cap", "b-even-cap", "b-shift-two",
        "t-bottom-strip", "t-odd-cap", "t-even-cap",
    }
    for seq in catalog:
        assert seq.factors_balance(), seq.name


def test_catalog_known_sequences():
    catalog = {((seq.tag, str(seq.sub), str(seq.middle), str(seq.quotient)))
               for seq in sequence_catalog(3)}
    # length-2 relaxed extensions of the vacuum
    assert ("w-plus", "V[0]", "T[2,-1]", "V[-1]") in catalog
    assert ("w-minus", "V[-1]", "B[2,-1]", "V[0]") in catalog
    # staggered module between the two zero-coset strings
    assert ("stag-sub", "B[2,0]", "P[0]", "B[2,-1]") in catalog
    assert ("stag-quot", "T[2,-1]", "P[0]", "T[2,0]") in catalog
    # even-length cap at n=1: 0 -> V[0] -> B[2,0] -> V[1] -> 0
    assert ("b-even-cap", "V[0]", "B[2,0]", "V[1]") in catalog


def test_catalog_bound_validation():
    with pytest.raises(ValueError):
        sequence_catalog(0)
