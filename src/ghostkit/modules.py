"""Canonical labels for the indecomposable ghost modules.

Every indecomposable falls into one of five families:

* ``Vac(ell)``   -- spectral flows ``V[l]`` of the vacuum module,
* ``Typ(c, ell)``-- flows ``W[p/q,l]`` of relaxed modules with nonzero coset,
* ``BStr(n, m)`` -- length-``n`` strings ``B[n,m]`` whose base factor ``V[m]``
  sits in the bottom (socle) row,
* ``TStr(n, m)`` -- strings ``T[n,m]`` whose base factor sits in the top row,
* ``Proj(m)``    -- the staggered projective ``P[m]`` (length 4, diamond).

Aliases are resolved at construction so each isomorphism class has exactly
one label: ``B[1,m]`` and ``T[1,m]`` are ``V[m]``, and the two length-2
relaxed modules at the zero coset appear as ``B[2,-1]`` and ``T[2,-1]``.
Label equality is module equality.

A string ``B[n,m]`` has composition factors ``V[m], ..., V[m+n-1]`` with the
factor at offset ``k`` in the bottom row iff ``k`` is even; ``T[n,m]`` uses
the opposite parity.  Arrows of the module action always point from a top
factor to its adjacent bottom factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Union

from .weights import coset, coset_str

TOP = "top"
BOTTOM = "bottom"
MIDDLE = "middle"


@dataclass(frozen=True)
class Vac:
    """Spectral flow ``V[ell]`` of the vacuum module (simple)."""

    ell: int

    def __post_init__(self):
        if not isinstance(self.ell, int):
            raise TypeError(f"flow index must be an int, got {self.ell!r}")

    def __str__(self):
        return f"V[{self.ell}]"


@dataclass(frozen=True)
class Typ:
    """Flow ``W[coset, ell]`` of a relaxed module; the coset is never zero."""

    coset: Fraction
    ell: int

    def __post_init__(self):
        c = Fraction(self.coset) % 1
        if c == 0:
            raise ValueError("relaxed modules W require a nonzero ghost coset")
        object.__setattr__(self, "coset", c)
        if not isinstance(self.ell, int):
            raise TypeError(f"flow index must be an int, got {self.ell!r}")

    def __str__(self):
        return f"W[{coset_str(self.coset)},{self.ell}]"


@dataclass(frozen=True)
class BStr:
    """Bottom-anchored string ``B[n,m]`` of length ``n >= 2``."""

    n: int
    m: int

    def __post_init__(self):
        if not isinstance(self.n, int) or not isinstance(self.m, int):
            raise TypeError("string parameters must be ints")
        if self.n < 2:
            raise ValueError("BStr requires n >= 2; use bstr() to resolve aliases")

    def __str__(self):
        return f"B[{self.n},{self.m}]"


@dataclass(frozen=True)
class TStr:
    """Top-anchored string ``T[n,m]`` of length ``n >= 2``."""

    n: int
    m: int

    def __post_init__(self):
        if not isinstance(self.n, int) or not isinstance(self.m, int):
            raise TypeError("string parameters must be ints")
        if self.n < 2:
            raise ValueError("TStr requires n >= 2; use tstr() to resolve aliases")

    def __str__(self):
        return f"T[{self.n},{self.m}]"


@dataclass(frozen=True)
class Proj:
    """The staggered projective/injective ``P[m]`` covering ``V[m]``."""

    m: int

    def __post_init__(self):
        if not isinstance(self.m, int):
            raise TypeError(f"flow index must be an int, got {self.m!r}")

    def __str__(self):
        return f"P[{self.m}]"


Module = Union[Vac, Typ, BStr, TStr, Proj]

_VARIANT_RANK = {Vac: 0, Typ: 1, BStr: 2, TStr: 3, Proj: 4}


def _install_cached_hash(cls):
    # Fraction hashing is costly; labels are hashed constantly in fusion
    # sweeps, so compute each instance's hash once.
    fields = tuple(cls.__dataclass_fields__)
    rank = _VARIANT_RANK[cls]

    def __hash__(self):
        h = self.__dict__.get("_h")
        if h is None:
            h = hash((rank,) + tuple(getattr(self, f) for f in fields))
            object.__setattr__(self, "_h", h)
        return h

    cls.__hash__ = __hash__


for _cls in (Vac, Typ, BStr, TStr, Proj):
    _install_cached_hash(_cls)


def vac(ell: int = 0) -> Vac:
    return Vac(int(ell))


def typ(c, ell: int = 0) -> Typ:
    return Typ(coset(c), int(ell))


def bstr(n: int, m: int = 0) -> Module:
    """``B[n,m]`` with the alias ``B[1,m] = V[m]`` resolved."""
    n, m = int(n), int(m)
    if n < 1:
        raise ValueError(f"string length must be >= 1, got {n}")
    if n == 1:
        return Vac(m)
    return BStr(n, m)


def tstr(n: int, m: int = 0) -> Module:
    """``T[n,m]`` with the alias ``T[1,m] = V[m]`` resolved."""
    n, m = int(n), int(m)
    if n < 1:
        raise ValueError(f"string length must be >= 1, got {n}")
    if n == 1:
        return Vac(m)
    return TStr(n, m)


def proj(m: int = 0) -> Proj:
    return Proj(int(m))


def w_zero_minus(ell: int = 0) -> Module:
    """The length-2 relaxed module at the zero coset with the vacuum on top
    of its flow range; resolves to ``B[2, ell-1]``."""
    return BStr(2, ell - 1)


def w_zero_plus(ell: int = 0) -> Module:
    """The dual length-2 relaxed module at the zero coset; ``T[2, ell-1]``."""
    return TStr(2, ell - 1)


def sort_key(mod: Module):
    if isinstance(mod, Vac):
        return (0, mod.ell)
    if isinstance(mod, Typ):
        return (1, mod.coset, mod.ell)
    if isinstance(mod, BStr):
        return (2, mod.n, mod.m)
    if isinstance(mod, TStr):
        return (3, mod.n, mod.m)
    if isinstance(mod, Proj):
        return (4, mod.m)
    raise TypeError(f"not a canonical module: {mod!r}")


def is_simple(mod: Module) -> bool:
    return isinstance(mod, (Vac, Typ))


def is_projective(mod: Module) -> bool:
    """Projective objects are exactly the relaxed simples and the staggered
    modules; projectivity and injectivity coincide here."""
    return isinstance(mod, (Typ, Proj))


def is_injective(mod: Module) -> bool:
    return is_projective(mod)


class FormalSum:
    """A direct sum of canonical modules with positive integer multiplicities.

    Immutable; terms are kept sorted so equality and hashing are structural.
    The empty sum stands for the zero module.
    """

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Iterable[tuple[Module, int]] = ()):
        combined: dict[Module, int] = {}
        for mod, mult in terms:
            if not isinstance(mult, int):
                raise TypeError(f"multiplicity must be an int, got {mult!r}")
            if mult < 0:
                raise ValueError(f"negative multiplicity {mult} for {mod}")
            if mult == 0:
                continue
            combined[mod] = combined.get(mod, 0) + mult
        self._terms = tuple(sorted(combined.items(), key=lambda t: sort_key(t[0])))
        self._hash = hash(self._terms)

    @classmethod
    def of(cls, mod: Module, mult: int = 1) -> "FormalSum":
        return cls(((mod, mult),))

    @property
    def terms(self) -> tuple[tuple[Module, int], ...]:
        return self._terms

    def multiplicity(self, mod: Module) -> int:
        for m, k in self._terms:
            if m == mod:
                return k
        return 0

    def total(self) -> int:
        """Total number of summands counted with multiplicity."""
        return sum(k for _, k in self._terms)

    def modules(self) -> Iterator[Module]:
        return (m for m, _ in self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def map_modules(self, fn) -> "FormalSum":
        """Apply ``fn`` (module -> module or FormalSum) term by term."""
        out: list[tuple[Module, int]] = []
        for mod, mult in self._terms:
            image = fn(mod)
            if isinstance(image, FormalSum):
                out.extend((m, k * mult) for m, k in image.terms)
            else:
                out.append((image, mult))
        return FormalSum(out)

    def __add__(self, other: "FormalSum") -> "FormalSum":
        if not isinstance(other, FormalSum):
            return NotImplemented
        return FormalSum(self._terms + other._terms)

    def __rmul__(self, k: int) -> "FormalSum":
        if not isinstance(k, int):
            return NotImplemented
        return FormalSum((m, k * c) for m, c in self._terms)

    __mul__ = __rmul__

    def __iter__(self) -> Iterator[tuple[Module, int]]:
        return iter(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, FormalSum) and self._terms == other._terms

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for mod, mult in self._terms:
            parts.append(str(mod) if mult == 1 else f"{mult}*{mod}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"FormalSum({self})"


def as_sum(x) -> FormalSum:
    """Coerce a module or sum to a :class:`FormalSum`."""
    if isinstance(x, FormalSum):
        return x
    return FormalSum.of(x)


def composition_factors(x) -> dict[Module, int]:
    """Multiset of simple composition factors of a module or formal sum."""
    out: dict[Module, int] = {}

    def bump(mod: Module, k: int):
        out[mod] = out.get(mod, 0) + k

    for mod, mult in as_sum(x):
        if isinstance(mod, (Vac, Typ)):
            bump(mod, mult)
        elif isinstance(mod, (BStr, TStr)):
            for k in range(mod.n):
                bump(Vac(mod.m + k), mult)
        elif isinstance(mod, Proj):
            bump(Vac(mod.m - 1), mult)
            bump(Vac(mod.m), 2 * mult)
            bump(Vac(mod.m + 1), mult)
        else:
            raise TypeError(f"not a canonical module: {mod!r}")
    return {m: k for m, k in sorted(out.items(), key=lambda t: sort_key(t[0]))}


def length(x) -> int:
    """Composition length (1 for simples, n for strings, 4 for staggered)."""
    return sum(composition_factors(x).values())


@dataclass(frozen=True)
class LoewyWord:
    """The row structure of an indecomposable.

    For simples and strings, ``entries`` lists ``(flow, row)`` along the
    string, flows increasing by one.  For a staggered module the word is the
    diamond ``V[m] (top) -> V[m-1], V[m+1] (middle) -> V[m] (bottom)`` and
    ``diamond`` is set.
    """

    entries: tuple[tuple[int, str], ...]
    diamond: bool = False

    def row(self, which: str) -> tuple[int, ...]:
        return tuple(f for f, r in self.entries if r == which)


def string_rows(mod: Module) -> tuple[tuple[int, str], ...]:
    """The ``(flow, row)`` chain for a simple or string module."""
    if isinstance(mod, Vac):
        return ((mod.ell, BOTTOM),)  # single factor; row is conventional
    if isinstance(mod, Typ):
        return ((mod.ell, BOTTOM),)
    if isinstance(mod, BStr):
        return tuple((mod.m + k, BOTTOM if k % 2 == 0 else TOP) for k in range(mod.n))
    if isinstance(mod, TStr):
        return tuple((mod.m + k, TOP if k % 2 == 0 else BOTTOM) for k in range(mod.n))
    raise TypeError(f"{mod} has no chain word")


def loewy(mod: Module) -> LoewyWord:
    """Loewy word of an indecomposable canonical module."""
    if isinstance(mod, Proj):
        m = mod.m
        entries = ((m, TOP), (m - 1, MIDDLE), (m + 1, MIDDLE), (m, BOTTOM))
        return LoewyWord(entries, diamond=True)
    return LoewyWord(string_rows(mod))


def socle(x) -> FormalSum:
    """Maximal semisimple submodule, as a sum of simples."""

    def one(mod: Module) -> FormalSum:
        if is_simple(mod):
            return FormalSum.of(mod)
        if isinstance(mod, Proj):
            return FormalSum.of(Vac(mod.m))
        word = string_rows(mod)
        return FormalSum((Vac(f), 1) for f, r in word if r == BOTTOM)

    return as_sum(x).map_modules(one)


def head(x) -> FormalSum:
    """Maximal semisimple quotient, as a sum of simples."""

    def one(mod: Module) -> FormalSum:
        if is_simple(mod):
            return FormalSum.of(mod)
        if isinstance(mod, Proj):
            return FormalSum.of(Vac(mod.m))
        word = string_rows(mod)
        return FormalSum((Vac(f), 1) for f, r in word if r == TOP)

    return as_sum(x).map_modules(one)


@dataclass(frozen=True)
class ExactSequence:
    """A non-split short exact sequence ``0 -> sub -> middle -> quotient -> 0``."""

    name: str
    sub: FormalSum
    middle: FormalSum
    quotient: FormalSum
    tag: str

    def factors_balance(self) -> bool:
        both = composition_factors(self.sub + self.quotient)
        return both == composition_factors(self.middle)


def _seq(name: str, tag: str, sub, middle, quotient) -> ExactSequence:
    return ExactSequence(name, as_sum(sub), as_sum(middle), as_sum(quotient), tag)


def sequence_catalog(bound: int = 8) -> list[ExactSequence]:
    """The catalog of defining and derived non-split exact sequences.

    Family parameters run from their smallest sensible value up to ``bound``.
    All sequences are stated at base flow 0; flowing a sequence preserves
    exactness.
    """
    if bound < 1:
        raise ValueError("catalog bound must be >= 1")
    out = [
        _seq("zero-coset plus", "w-plus", vac(0), w_zero_plus(), vac(-1)),
        _seq("zero-coset minus", "w-minus", vac(-1), w_zero_minus(), vac(0)),
        _seq("staggered sub", "stag-sub", bstr(2, 0), proj(0), bstr(2, -1)),
        _seq("staggered quot", "stag-quot", tstr(2, -1), proj(0), tstr(2, 0)),
    ]
    for n in range(1, bound + 1):
        out.append(_seq(f"b-odd-grow n={n}", "b-odd-grow",
                        bstr(2 * n - 1, 0), bstr(2 * n + 1, 0), tstr(2, 2 * n - 1)))
        out.append(_seq(f"t-odd-grow n={n}", "t-odd-grow",
                        bstr(2, 2 * n - 1), tstr(2 * n + 1, 0), tstr(2 * n - 1, 0)))
        out.append(_seq(f"b-odd-cap n={n}", "b-odd-cap",
                        vac(2 * n), bstr(2 * n + 1, 0), bstr(2 * n, 0)))
        out.append(_seq(f"b-even-cap n={n}", "b-even-cap",
                        bstr(2 * n - 1, 0), bstr(2 * n, 0), vac(2 * n - 1)))
        out.append(_seq(f"t-odd-cap n={n}", "t-odd-cap",
                        tstr(2 * n, 0), tstr(2 * n + 1, 0), vac(2 * n)))
        out.append(_seq(f"t-even-cap n={n}", "t-even-cap",
                        vac(2 * n - 1), tstr(2 * n, 0), tstr(2 * n - 1, 0)))
    for n in range(2, bound + 1):
        out.append(_seq(f"b-even-grow n={n}", "b-even-grow",
                        bstr(2, 2 * n - 2), bstr(2 * n, 0), bstr(2 * n - 2, 0)))
        out.append(_seq(f"t-even-grow n={n}", "t-even-grow",
                        tstr(2 * n - 2, 0), tstr(2 * n, 0), tstr(2, 2 * n - 2)))
        out.append(_seq(f"b-top-strip n={n}", "b-top-strip",
                        vac(0), bstr(n, 0), tstr(n - 1, 1)))
        out.append(_seq(f"t-bottom-strip n={n}", "t-bottom-strip",
                        bstr(n - 1, 1), tstr(n, 0), vac(0)))
    for n in range(3, bound + 1):
        out.append(_seq(f"b-shift-two n={n}", "b-shift-two",
                        bstr(n - 2, 2), bstr(n, 0), bstr(2, 0)))
    return out

