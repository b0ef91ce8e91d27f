from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ghostkit.grammar import (
    MAX_STRING_LENGTH, ParseError, parse_module_expr, parse_single_module,
)
from ghostkit.modules import FormalSum, bstr, proj, tstr, typ, vac

cosets = st.fractions(min_value=0, max_value=1, max_denominator=12).filter(
    lambda c: c % 1 != 0)
flows = st.integers(min_value=-20, max_value=20)
lengths = st.integers(min_value=1, max_value=9)


@st.composite
def modules(draw):
    kind = draw(st.sampled_from("VWBTP"))
    if kind == "V":
        return vac(draw(flows))
    if kind == "W":
        return typ(draw(cosets), draw(flows))
    if kind == "B":
        return bstr(draw(lengths), draw(flows))
    if kind == "T":
        return tstr(draw(lengths), draw(flows))
    return proj(draw(flows))


sums = st.lists(st.tuples(modules(), st.integers(min_value=1, max_value=5)),
                max_size=5).map(FormalSum)


def test_atoms():
    assert parse_module_expr("V[3]") == FormalSum.of(vac(3))
    assert parse_module_expr("W[1/3,-2]") == FormalSum.of(typ(Fraction(1, 3), -2))
    assert parse_module_expr("B[3,0]") == FormalSum.of(bstr(3, 0))
    assert parse_module_expr("T[5,-1]") == FormalSum.of(tstr(5, -1))
    assert parse_module_expr("P[-4]") == FormalSum.of(proj(-4))


def test_sums_and_multiplicities():
    got = parse_module_expr("2*P[1] + V[0]")
    assert got == FormalSum(((proj(1), 2), (vac(0), 1)))
    assert parse_module_expr("0") == FormalSum()
    assert parse_module_expr(" 1*V[0]+2*V[0] ") == FormalSum.of(vac(0), 3)
    assert parse_module_expr("0*V[5] + P[0]") == FormalSum.of(proj(0))


def test_canonicalization_on_parse():
    assert parse_module_expr("B[1,3]") == FormalSum.of(vac(3))
    assert parse_module_expr("T[1,0]") == FormalSum.of(vac(0))
    # coset reduced mod 1
    assert parse_module_expr("W[4/3,0]") == FormalSum.of(typ(Fraction(1, 3), 0))
    assert parse_module_expr("W[-1/3,0]") == FormalSum.of(typ(Fraction(2, 3), 0))
    assert parse_module_expr("W[2/6,0]") == FormalSum.of(typ(Fraction(1, 3), 0))


def test_validation_errors():
    with pytest.raises(ParseError):
        parse_module_expr("W[0/1,2]")  # zero coset
    with pytest.raises(ParseError):
        parse_module_expr("B[0,2]")
    with pytest.raises(ParseError):
        parse_module_expr("B[-3,2]")


def test_string_length_limit():
    n = MAX_STRING_LENGTH
    assert parse_module_expr(f"B[{n},0] + T[{n},-3]") == FormalSum(
        ((bstr(n, 0), 1), (tstr(n, -3), 1)))
    for text, position in ((f"V[0] + B[{n + 1},0]", 9), (f"V[0] + T[ {10**12},0]", 10)):
        with pytest.raises(ParseError, match=f"above the limit {n}") as err:
            parse_module_expr(text)
        assert err.value.position == position


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse_module_expr("V[1] + Q[2]")
    assert err.value.position == 7
    with pytest.raises(ParseError):
        parse_module_expr("V[1")
    with pytest.raises(ParseError):
        parse_module_expr("V[1] V[2]")
    with pytest.raises(ParseError):
        parse_module_expr("")
    with pytest.raises(ParseError):
        parse_module_expr("W[1/0,2]")


@pytest.mark.parametrize("text", ["", "   ", "V[0] +", "V[0] + ", "2*", "3 * "])
def test_missing_atom_at_end_of_input_is_reported_at_the_end(text):
    with pytest.raises(ParseError) as err:
        parse_module_expr(text)
    assert str(err.value) == f"expected a module atom V/W/B/T/P (at position {len(text)})"
    assert err.value.position == len(text)


def test_digits_are_the_decimal_digits_int_accepts():
    # a superscript or other non-decimal digit is not an integer, and is
    # reported at its own position; every decimal digit is one
    for text, position in (("V[\u00b2]", 2), ("W[1/\u00b2,0]", 4), ("\u00b2*V[0]", 0)):
        with pytest.raises(ParseError) as err:
            parse_module_expr(text)
        assert err.value.position == position, text
    with pytest.raises(ParseError, match=r"expected an integer \(at position 2\)"):
        parse_module_expr("V[\u00b2]")
    assert parse_module_expr("V[\u0663]") == FormalSum.of(vac(3))
    assert parse_module_expr("\u0662*P[-\u0661]") == FormalSum.of(proj(-1), 2)


def test_single_module():
    assert parse_single_module("B[2,0]") == bstr(2, 0)
    with pytest.raises(ParseError):
        parse_single_module("2*B[2,0]")
    with pytest.raises(ParseError):
        parse_single_module("V[0] + V[1]")


@given(sums)
def test_print_parse_round_trip(s):
    assert parse_module_expr(str(s)) == s


@given(modules())
def test_module_round_trip(m):
    assert parse_single_module(str(m)) == m


def test_print_parse_idempotent():
    text = "2*P[1]+V[0]+  V[0]"
    once = str(parse_module_expr(text))
    assert str(parse_module_expr(once)) == once
