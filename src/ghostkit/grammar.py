"""Parser for the textual module grammar.

    Sum  := Term ('+' Term)*
    Term := [int '*'] Atom
    Atom := V[l] | W[p/q,l] | B[n,m] | T[n,m] | P[m]

``"0"`` parses to the empty sum.  Atoms canonicalize on construction
(``B[1,3]`` becomes ``V[3]``, relaxed cosets reduce mod 1), so parsing and
printing round-trip on canonical forms.  An integer is an optional sign and
a run of decimal digits, as ``int`` reads them; a multiplicity has no sign.
Whitespace may stand between any two tokens, but not between a sign and its
digits.

One compiled pattern, ``_TERM``, reads a whole term, the ``+`` after it
included.  Each token is an optional group, so the pattern always matches;
a term that does not fit its letter is refused at its first missing or
unexpected token, checked in grammar order, and ``\\s`` and ``\\d`` match
exactly what ``str.isspace`` and ``str.isdecimal`` accept.  Every error is
a ``ParseError`` that names its position in the input, an over-long
multiplicity included.  An error in an atom's value (a zero coset, a string
length below 1, an integer field too long for ``int``) names the atom's
start; string lengths above ``MAX_STRING_LENGTH`` are refused at the length.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .modules import MAX_STRING_LENGTH, FormalSum, Module, Proj, Typ, Vac, bstr, tstr


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# The tokens of a term in grammar order.  The star is read only after a
# multiplicity; the fields a, b and c are the first integer, the one after
# "/" and the one after ",".  An absent token is an empty group, whose start
# is where the token was expected, after any whitespace.
_TERM = re.compile(
    r"\s*(?:(?P<mult>\d+)\s*(?P<star>\*?)\s*)?(?P<letter>[VWBTP]?)\s*(?P<open>\[?)"
    r"\s*(?P<a>[+-]?\d+|)\s*(?P<slash>/?)\s*(?P<b>[+-]?\d+|)\s*(?P<comma>,?)"
    r"\s*(?P<c>[+-]?\d+|)\s*(?P<close>]?)\s*(?P<plus>\+?)")
_ATOM = "expected a module atom V/W/B/T/P"


def _atom(m: re.Match, letter, open_, a, slash, b, comma, c, close) -> Module:
    """The atom of a term match, given its groups from the letter on,
    checked token by token in grammar order."""
    if not letter:
        raise ParseError(_ATOM, m.start("letter"))
    if not open_:
        raise ParseError("expected '['", m.start("open"))
    if not a:
        raise ParseError("expected an integer", m.start("a"))
    try:
        n = int(a)
        if letter in "VP":
            # nothing may stand between the field and "]"; whatever does
            # starts where the slash is expected
            if slash or b or comma or c or not close:
                raise ParseError("expected ']'", m.start("slash"))
            return Vac(n) if letter == "V" else Proj(n)
        if letter == "W":
            coset = n
            if slash:
                if not b:
                    raise ParseError("expected an integer", m.start("b"))
                den = int(b)
                if den == 0:
                    raise ParseError("zero denominator", m.end("slash"))
                coset = Fraction(n, den)
            elif b:
                raise ParseError("expected ','", m.start("b"))
        elif n > MAX_STRING_LENGTH:
            raise ParseError(
                f"string length {n} is above the limit {MAX_STRING_LENGTH}", m.start("a"))
        elif slash or b:
            raise ParseError("expected ','", m.start("slash"))
        if not comma:
            raise ParseError("expected ','", m.start("comma"))
        if not c:
            raise ParseError("expected an integer", m.start("c"))
        ell = int(c)
        mod = Typ(coset, ell) if letter == "W" else (bstr if letter == "B" else tstr)(n, ell)
    except ParseError:
        raise
    except ValueError as exc:
        raise ParseError(str(exc), m.start("letter")) from exc
    if not close:
        raise ParseError("expected ']'", m.start("close"))
    return mod


def parse_module_expr(text: str) -> FormalSum:
    """Parse a formal-sum expression into its canonical form."""
    if text.strip() == "0":
        return FormalSum()
    terms = []
    end = len(text)
    pos = 0
    while True:
        m = _TERM.match(text, pos)
        mult, star, letter, open_, a, slash, b, comma, c, close, plus = m.groups()
        if mult is None:
            k = 1
        else:
            try:
                k = int(mult)
            except ValueError as exc:
                raise ParseError(str(exc), m.start("mult")) from exc
            if not star:
                raise ParseError("expected '*'", m.start("star"))
        terms.append((_atom(m, letter, open_, a, slash, b, comma, c, close), k))
        pos = m.end()
        if not plus:
            if pos == end:
                return FormalSum(terms)
            raise ParseError("expected '+'", pos)


def parse_single_module(text: str) -> Module:
    """Parse an expression that must denote a single module (multiplicity 1)."""
    total = parse_module_expr(text)
    if len(total.terms) != 1 or total.terms[0][1] != 1:
        raise ParseError("expected a single module expression", 0)
    return total.terms[0][0]
