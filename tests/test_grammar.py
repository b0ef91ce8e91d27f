import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ghostkit.grammar import (
    MAX_STRING_LENGTH, ParseError, parse_module_expr, parse_single_module,
)
from ghostkit.modules import FormalSum, Module, bstr, proj, tstr, typ, vac


# A character-at-a-time scanner for the same grammar, the test oracle of the
# one-pattern parser: both must give the same sum, or the same exception
# type, message and position.  One difference is known and left in: the
# scanner lets an over-long multiplicity's bare ValueError out, which no
# input of the corpora below reaches.
class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            raise ParseError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] in "+-":
            self.pos += 1
        digits = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if self.pos == digits:
            raise ParseError("expected an integer", start)
        return int(self.text[start:self.pos])

    def fraction(self) -> Fraction:
        num = self.integer()
        self.skip_ws()
        if self.peek() == "/":
            self.pos += 1
            den_pos = self.pos
            den = self.integer()
            if den == 0:
                raise ParseError("zero denominator", den_pos)
            return Fraction(num, den)
        return Fraction(num)

    def done(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)


def _scan_atom(sc: _Scanner) -> Module:
    sc.skip_ws()
    start = sc.pos
    letter = sc.peek()
    # at the end of input peek() gives "", which ``in`` finds in any string
    if not letter or letter not in "VWBTP":
        raise ParseError("expected a module atom V/W/B/T/P", start)
    sc.pos += 1
    sc.expect("[")
    try:
        if letter == "V":
            mod = vac(sc.integer())
        elif letter == "P":
            mod = proj(sc.integer())
        elif letter == "W":
            c = sc.fraction()
            sc.expect(",")
            ell = sc.integer()
            mod = typ(c, ell)
        else:
            sc.skip_ws()
            n_pos = sc.pos
            n = sc.integer()
            if n > MAX_STRING_LENGTH:
                raise ParseError(
                    f"string length {n} is above the limit {MAX_STRING_LENGTH}", n_pos)
            sc.expect(",")
            m = sc.integer()
            mod = bstr(n, m) if letter == "B" else tstr(n, m)
    except ParseError:
        raise
    except ValueError as exc:
        raise ParseError(str(exc), start) from exc
    sc.expect("]")
    return mod


def _scan_term(sc: _Scanner) -> tuple[Module, int]:
    mult = 1
    # a leading digit, so the multiplicity has no sign
    if sc.peek().isdecimal():
        mult = sc.integer()
        sc.expect("*")
    return _scan_atom(sc), mult


def scanner_parse(text: str) -> FormalSum:
    sc = _Scanner(text)
    sc.skip_ws()
    if sc.peek() == "0":
        mark = sc.pos
        sc.pos += 1
        if sc.done():
            return FormalSum()
        sc.pos = mark
    terms = [_scan_term(sc)]
    while not sc.done():
        sc.expect("+")
        terms.append(_scan_term(sc))
    return FormalSum(terms)


def outcome(parse, text):
    """What ``parse`` makes of ``text``: the sum, or the exception's type,
    message and position."""
    try:
        return parse(text)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


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


def test_whitespace_and_digit_classes_are_those_of_str():
    # the pattern's \s and \d stand for str.isspace and str.isdecimal over
    # all of Unicode, so the pattern skips and reads what the scanner did
    everything = "".join(map(chr, range(sys.maxunicode + 1)))
    assert re.findall(r"\s", everything) == [ch for ch in everything if ch.isspace()]
    assert re.findall(r"\d", everything) == [ch for ch in everything if ch.isdecimal()]


@given(sums)
def test_round_trip_sums_parse_as_the_scanner_parses_them(s):
    text = str(s)
    assert outcome(parse_module_expr, text) == outcome(scanner_parse, text)


MUTATION_ALPHABET = "VWBTP[]/,+-*0123456789 \t٣²"


def _spaced(rng, tokens):
    """``tokens`` joined with random whitespace, none inside a token."""
    gaps = ["", "", "", " ", "  ", "\t"]
    return rng.choice(gaps) + "".join(tok + rng.choice(gaps) for tok in tokens)


def _valid_expression(rng) -> str:
    if rng.random() < 0.02:
        return _spaced(rng, ["0"])
    tokens = []
    for i in range(rng.randint(1, 3)):
        if i:
            tokens.append("+")
        if rng.random() < 0.3:
            tokens += [str(rng.randint(0, 12)), "*"]
        letter = rng.choice("VWBTP")
        flow = rng.choice(["", "+", "-"]) + str(rng.randint(0, 30))
        tokens += [letter, "["]
        if letter == "W":
            tokens += [str(rng.randint(-7, 9))]
            if rng.random() < 0.8:
                tokens += ["/", str(rng.choice([-3, 2, 3, 4, 7]))]
            tokens += [",", flow]
        elif letter in "BT":
            tokens += [str(rng.randint(1, 9)), ",", flow]
        else:
            tokens.append(flow)
        tokens.append("]")
    return _spaced(rng, tokens)


def _mutant(rng, text: str) -> str:
    """``text`` with one character inserted, deleted or replaced."""
    op = rng.choice(("insert", "delete", "replace") if text else ("insert",))
    i = rng.randrange(len(text) + (op == "insert"))
    if op == "delete":
        return text[:i] + text[i + 1:]
    ch = rng.choice(MUTATION_ALPHABET)
    return text[:i] + ch + text[i + (op == "replace"):]


def test_mutated_expressions_parse_as_the_scanner_parses_them():
    rng = random.Random(20260)
    texts = []
    for _ in range(2000):
        valid = _valid_expression(rng)
        texts.append(valid)
        texts += [_mutant(rng, valid) for _ in range(11)]
    mismatches = [(text, outcome(parse_module_expr, text), outcome(scanner_parse, text))
                  for text in texts
                  if outcome(parse_module_expr, text) != outcome(scanner_parse, text)]
    assert mismatches[:5] == []
    # the corpus reaches every kind of answer and of refusal
    results = [outcome(parse_module_expr, text) for text in texts]
    refusals = {re.sub(r"[-\d]+", "#", r[1]) for r in results if isinstance(r, tuple)}
    assert refusals == {
        "expected a module atom V/W/B/T/P (at position #)",
        "expected '[' (at position #)", "expected ']' (at position #)",
        "expected ',' (at position #)", "expected '*' (at position #)",
        "expected '+' (at position #)", "expected an integer (at position #)",
        "zero denominator (at position #)",
        "relaxed modules W require a nonzero ghost coset (at position #)",
        "string length must be >= #, got # (at position #)",
        "string length # is above the limit # (at position #)",
    }
    assert sum(isinstance(r, FormalSum) for r in results) > len(texts) // 4
    assert len(texts) == 24000


def test_overlong_multiplicity_is_refused_at_its_position():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("int reads decimal strings of any length here")
    digits = limit + 1
    text = "V[0] +  " + "1" * digits + "*V[0]"
    with pytest.raises(ParseError, match=r"Exceeds the limit .*\(at position 8\)$") as err:
        parse_module_expr(text)
    assert err.value.position == 8
    # an over-long atom field names the atom's start, as before
    with pytest.raises(ParseError, match=r"Exceeds the limit .*\(at position 2\)$") as err:
        parse_module_expr("  V[" + "1" * digits + "]")
    assert err.value.position == 2
