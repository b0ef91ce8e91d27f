"""Parser for the textual module grammar.

    Sum  := Term ('+' Term)*
    Term := [int '*'] Atom
    Atom := V[l] | W[p/q,l] | B[n,m] | T[n,m] | P[m]

``"0"`` parses to the empty sum.  Atoms canonicalize on construction
(``B[1,3]`` becomes ``V[3]``, relaxed cosets reduce mod 1), so parsing and
printing round-trip on canonical forms.  Errors carry the offending
position in the input; string lengths above ``MAX_STRING_LENGTH`` are refused.
"""

from __future__ import annotations

from fractions import Fraction

from .modules import MAX_STRING_LENGTH, FormalSum, Module, bstr, proj, tstr, typ, vac


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


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
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == digits:
            raise ParseError("expected an integer", start)
        return int(self.text[start:self.pos])

    def fraction(self) -> Fraction:
        start = self.pos
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


def _atom(sc: _Scanner) -> Module:
    sc.skip_ws()
    start = sc.pos
    letter = sc.peek()
    if letter not in "VWBTP":
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


def _term(sc: _Scanner) -> tuple[Module, int]:
    mult = 1
    # a leading digit, so the multiplicity has no sign
    if sc.peek().isdigit():
        mult = sc.integer()
        sc.expect("*")
    return _atom(sc), mult


def parse_module_expr(text: str) -> FormalSum:
    """Parse a formal-sum expression into its canonical form."""
    sc = _Scanner(text)
    sc.skip_ws()
    if sc.peek() == "0":
        mark = sc.pos
        sc.pos += 1
        if sc.done():
            return FormalSum()
        sc.pos = mark
    terms = [_term(sc)]
    while not sc.done():
        sc.expect("+")
        terms.append(_term(sc))
    return FormalSum(terms)


def parse_single_module(text: str) -> Module:
    """Parse an expression that must denote a single module (multiplicity 1)."""
    total = parse_module_expr(text)
    if len(total.terms) != 1 or total.terms[0][1] != 1:
        raise ParseError("expected a single module expression", 0)
    return total.terms[0][0]
