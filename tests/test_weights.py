from fractions import Fraction

from hypothesis import given, strategies as st

from ghostkit.weights import (
    conj_weight, coset, coset_add, coset_str, flow_weight, weight,
)

rationals = st.fractions(max_denominator=40)
small_ints = st.integers(min_value=-10, max_value=10)


def test_flow_weight_known_values():
    # vacuum vector under one unit of flow
    assert flow_weight(weight(0, 0), 1) == weight(-1, -1)
    # identity flow
    assert flow_weight(weight(Fraction(2, 7), 5), 0) == weight(Fraction(2, 7), 5)
    # by hand: h' = -3 + 2*(-2) - 3 = -10
    assert flow_weight(weight(-2, -3), 2) == weight(-4, -10)


def test_conj_weight_known_values():
    assert conj_weight(weight(Fraction(1, 2), 3)) == weight(Fraction(1, 2), 3)
    assert conj_weight(weight(0, 0)) == weight(1, 0)


@given(rationals, rationals, small_ints, small_ints)
def test_flow_is_a_group_action(j, h, k, l):
    w = weight(j, h)
    assert flow_weight(flow_weight(w, k), l) == flow_weight(w, k + l)


@given(rationals, rationals)
def test_conjugation_is_an_involution(j, h):
    w = weight(j, h)
    assert conj_weight(conj_weight(w)) == w


@given(rationals, rationals, small_ints)
def test_dihedral_relation_on_weights(j, h, ell):
    w = weight(j, h)
    assert flow_weight(conj_weight(w), -ell) == conj_weight(flow_weight(w, ell))


def test_coset_reduction():
    assert coset(Fraction(7, 3)) == Fraction(1, 3)
    assert coset(Fraction(-1, 3)) == Fraction(2, 3)
    assert coset(5) == 0


def test_coset_add():
    assert coset_add(Fraction(1, 3), Fraction(1, 3)) == Fraction(2, 3)
    assert coset_add(Fraction(2, 3), Fraction(1, 3)) == 0
    assert coset_add(Fraction(1, 2), Fraction(3, 4)) == Fraction(1, 4)


@given(rationals, rationals)
def test_coset_add_commutes_and_reduces(a, b):
    s = coset_add(a, b)
    assert 0 <= s < 1
    assert s == coset_add(b, a)


def test_coset_serialization_round_trip():
    for c in (Fraction(0), Fraction(1, 3), Fraction(5, 7)):
        assert coset(coset_str(c)) == c
    assert coset_str(Fraction(0)) == "0"
    assert coset_str(Fraction(2, 6)) == "1/3"
