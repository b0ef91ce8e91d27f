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

Labels, like ``fusion.ProjSum`` and ``fusion.GrothClass``, are immutable
``__slots__`` records on one base, ``_Record``, which gives the
``Name(field=value, ...)`` repr, refusal to assign or delete attributes,
pickling through the constructor, and field-wise ``==`` and ``hash``.
Each label validates its fields and then stores, once, its sort key (family
rank, then fields, with relaxed labels ordered by the value of their coset),
an identity key made of ints only (the coset as numerator and denominator)
and the hash of that key.  ``_Label`` overrides ``==`` and ``hash`` to read
those stored keys, so equality and hashing run no ``Fraction`` arithmetic.
The flow is the last entry of both keys, so ``flowed(k)`` changes only that
entry.  Records fill their slots through the slots' member descriptors,
whose ``__set__`` methods are bound once below each class (``_set_vac_ell``
is ``Vac.ell.__set__``): a descriptor writes the slot without going through
``_Record.__setattr__``, which refuses every assignment, and costs less
than ``object.__setattr__`` with the slot's name.

Every sum is merged by one function, ``_merge``: terms are merged on the
identity key and sorted on the stored sort key.  A term whose label occurs
once is kept as the very tuple it came in, so sums built from other sums
share their term tuples instead of copying them.

A string ``B[n,m]`` has composition factors ``V[m], ..., V[m+n-1]`` with the
factor at offset ``k`` in the bottom row iff ``k`` is even; ``T[n,m]`` uses
the opposite parity.  Each string class states that rule once, as ``_top``,
the parity of its top-row offsets, which ``rows()`` reads.  Arrows of the
module action always point from a top factor to its adjacent bottom factors.

A label's Loewy structure is read from its fields here, once: ``_span``
(the least and greatest factor flow), ``_tops`` (the parities of the
top-row flows of a simple or string) and ``_flows`` (the flows of one
parity in a range).  ``length`` reads the fields alone, and ``_row_sum``,
the one reader of a Loewy row, gives ``head`` and ``socle`` here and
``homalg``'s covers and hulls; ``homalg`` counts Hom and Ext from them.

Each per-family rule is one label method, which the rest of the package
calls: ``flow`` (the flow index) and ``flowed(ell)``, ``conjugated()``,
``starred()`` (the ``B <-> T`` swap, else the identity), ``factors()`` (the
simple composition factors, repeated by multiplicity) and ``rows()`` (the
``(flow, row)`` Loewy word).  :meth:`FormalSum.flowed` flows a whole sum.
"""

from __future__ import annotations

from fractions import Fraction
from operator import attrgetter
from typing import Iterable, Iterator, NamedTuple, Union

from .weights import coset, coset_str

TOP = "top"
BOTTOM = "bottom"
MIDDLE = "middle"


class _Record:
    """An immutable ``__slots__`` record whose ``_fields`` are its
    constructor arguments: ``==`` and ``hash`` by fields, a
    ``Name(field=value, ...)`` repr, refusal to assign or delete attributes,
    and pickling through the constructor."""

    __slots__ = ()
    _fields: tuple[str, ...]

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self), self._values()

    def __repr__(self):
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({args})"


class _Label(_Record):
    """Behaviour shared by the five label classes: the sort key ``_key``,
    the all-int identity key ``_id`` led by the family rank, both ending in
    the flow, and the hash of ``_id``, all stored by ``_freeze`` at the end
    of each constructor, with equality and hashing on those stored keys.
    The defaults below are those of a simple module."""

    __slots__ = ("_key", "_id", "_hash")

    def _freeze(self, key: tuple, ident: tuple) -> None:
        _set_key(self, key)
        _set_id(self, ident)
        _set_hash(self, hash(ident))

    def __eq__(self, other):
        return self is other or (other.__class__ is self.__class__ and other._id == self._id)

    def __hash__(self):
        return self._hash

    def starred(self) -> "Module":
        return self

    def factors(self) -> tuple["Module", ...]:
        return (self,)

    def rows(self) -> tuple[tuple[int, str], ...]:
        return ((self.flow, BOTTOM),)  # single factor; row is conventional


_set_key, _set_id, _set_hash = _Label._key.__set__, _Label._id.__set__, _Label._hash.__set__


class Vac(_Label):
    """Spectral flow ``V[ell]`` of the vacuum module (simple)."""

    __slots__ = ("ell",)
    _fields = __slots__

    def __init__(self, ell: int):
        if ell.__class__ is not int:
            raise TypeError(f"flow index must be an int, got {ell!r}")
        _set_vac_ell(self, ell)
        key = (0, ell)
        self._freeze(key, key)

    flow = property(attrgetter("ell"))

    def flowed(self, ell: int) -> "Vac":
        return Vac(self.ell + ell)

    def conjugated(self) -> "Vac":
        return Vac(-1 - self.ell)

    def __str__(self):
        return f"V[{self.ell}]"


_set_vac_ell = Vac.ell.__set__


class Typ(_Label):
    """Flow ``W[coset, ell]`` of a relaxed module; the coset is never zero."""

    __slots__ = ("coset", "ell")
    _fields = __slots__

    def __init__(self, coset: Fraction, ell: int):
        c = coset
        # a Fraction strictly between 0 and 1 is already reduced mod 1
        if not (type(c) is Fraction and 0 < c.numerator < c.denominator):
            c = Fraction(c) % 1
            if c == 0:
                raise ValueError("relaxed modules W require a nonzero ghost coset")
        if ell.__class__ is not int:
            raise TypeError(f"flow index must be an int, got {ell!r}")
        _set_typ_coset(self, c)
        _set_typ_ell(self, ell)
        self._freeze((1, c, ell), (1, c.numerator, c.denominator, ell))

    flow = property(attrgetter("ell"))

    def flowed(self, ell: int) -> "Typ":
        return Typ(self.coset, self.ell + ell)

    def conjugated(self) -> "Typ":
        return Typ(-self.coset, -self.ell)

    def __str__(self):
        return f"W[{coset_str(self.coset)},{self.ell}]"


_set_typ_coset, _set_typ_ell = Typ.coset.__set__, Typ.ell.__set__


class _String(_Label):
    """A string module of length ``n >= 2`` with base factor ``V[m]``."""

    __slots__ = ("n", "m")
    _fields = __slots__
    _rank: int
    _letter: str
    _top: int  # the parity of the offsets of the top-row factors
    _swap: type["_String"]  # the other letter

    def __init__(self, n: int, m: int):
        if n.__class__ is not int or m.__class__ is not int:
            raise TypeError("string parameters must be ints")
        if n < 2:
            name = type(self).__name__
            raise ValueError(f"{name} requires n >= 2; use {name.lower()}() to resolve aliases")
        _set_string_n(self, n)
        _set_string_m(self, m)
        key = (self._rank, n, m)
        self._freeze(key, key)

    flow = property(attrgetter("m"))

    def flowed(self, ell: int) -> "_String":
        return type(self)(self.n, self.m + ell)

    def conjugated(self) -> "_String":
        # factors at flows m..m+n-1 move to -m-n..-1-m keeping rows, so the
        # letter flips exactly when n is even
        cls = type(self) if self.n % 2 else self._swap
        return cls(self.n, -self.m - self.n)

    def starred(self) -> "_String":
        return self._swap(self.n, self.m)

    def factors(self) -> tuple[Vac, ...]:
        return tuple([Vac(self.m + k) for k in range(self.n)])

    def rows(self) -> tuple[tuple[int, str], ...]:
        return tuple([(self.m + k, TOP if k % 2 == self._top else BOTTOM)
                      for k in range(self.n)])

    def __str__(self):
        return f"{self._letter}[{self.n},{self.m}]"


_set_string_n, _set_string_m = _String.n.__set__, _String.m.__set__


class BStr(_String):
    """Bottom-anchored string ``B[n,m]`` of length ``n >= 2``."""

    __slots__ = ()
    _rank = 2
    _letter = "B"
    _top = 1


class TStr(_String):
    """Top-anchored string ``T[n,m]`` of length ``n >= 2``."""

    __slots__ = ()
    _rank = 3
    _letter = "T"
    _top = 0


BStr._swap, TStr._swap = TStr, BStr


class Proj(_Label):
    """The staggered projective/injective ``P[m]`` covering ``V[m]``."""

    __slots__ = ("m",)
    _fields = __slots__

    def __init__(self, m: int):
        if m.__class__ is not int:
            raise TypeError(f"flow index must be an int, got {m!r}")
        _set_proj_m(self, m)
        key = (4, m)
        self._freeze(key, key)

    flow = property(attrgetter("m"))

    def flowed(self, ell: int) -> "Proj":
        return Proj(self.m + ell)

    def conjugated(self) -> "Proj":
        return Proj(-1 - self.m)

    def factors(self) -> tuple[Vac, ...]:
        return (Vac(self.m - 1), Vac(self.m), Vac(self.m), Vac(self.m + 1))

    def rows(self) -> tuple[tuple[int, str], ...]:
        """The diamond ``V[m] (top) -> V[m-1], V[m+1] (middle) -> V[m] (bottom)``."""
        m = self.m
        return ((m, TOP), (m - 1, MIDDLE), (m + 1, MIDDLE), (m, BOTTOM))

    def __str__(self):
        return f"P[{self.m}]"


_set_proj_m = Proj.m.__set__


Module = Union[Vac, Typ, BStr, TStr, Proj]

_KEY = attrgetter("_key")


def _integral(x, what: str) -> int:
    """``x`` as an int, refusing rather than truncating a non-integral value."""
    try:
        n = int(x)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or n != x:
        raise ValueError(f"{what} must be an integer, got {x!r}")
    return n


def vac(ell: int = 0) -> Vac:
    return Vac(_integral(ell, "flow index"))


def typ(c, ell: int = 0) -> Typ:
    return Typ(coset(c), _integral(ell, "flow index"))


def _resolve_string(cls: type[_String], n, m) -> Module:
    # the string cls(n, m), or V[m], its alias at length 1
    n, m = _integral(n, "string length"), _integral(m, "flow index")
    if n < 1:
        raise ValueError(f"string length must be >= 1, got {n}")
    return Vac(m) if n == 1 else cls(n, m)


def bstr(n: int, m: int = 0) -> Module:
    """``B[n,m]`` with the alias ``B[1,m] = V[m]`` resolved."""
    return _resolve_string(BStr, n, m)


def tstr(n: int, m: int = 0) -> Module:
    """``T[n,m]`` with the alias ``T[1,m] = V[m]`` resolved."""
    return _resolve_string(TStr, n, m)


def proj(m: int = 0) -> Proj:
    return Proj(_integral(m, "flow index"))


def w_zero_minus(ell: int = 0) -> Module:
    """The length-2 relaxed module at the zero coset with the vacuum on top
    of its flow range; resolves to ``B[2, ell-1]``."""
    return BStr(2, ell - 1)


def w_zero_plus(ell: int = 0) -> Module:
    """The dual length-2 relaxed module at the zero coset; ``T[2, ell-1]``."""
    return TStr(2, ell - 1)


def is_simple(mod: Module) -> bool:
    return isinstance(mod, (Vac, Typ))


def is_projective(mod: Module) -> bool:
    """Projective objects are exactly the relaxed simples and the staggered
    modules; projectivity and injectivity coincide here."""
    return isinstance(mod, (Typ, Proj))


def is_injective(mod: Module) -> bool:
    return is_projective(mod)


def _term_key(term: tuple[Module, int]) -> tuple:
    return term[0]._key


def _merge(terms: Iterable[tuple[Module, int]]) -> tuple[tuple[Module, int], ...]:
    """Merge checked ``(label, positive int)`` terms and sort them: the one
    merge of every sum.  Terms are merged on the identity key, whose hash and
    equality run in C, and sorted on the stored sort key.  A label that occurs
    once keeps its incoming tuple; the terms of a repeated label become one
    new tuple led by its first label."""
    merged: dict[tuple, tuple[Module, int]] = {}
    for term in terms:
        ident = term[0]._id
        seen = merged.get(ident)
        merged[ident] = term if seen is None else (seen[0], seen[1] + term[1])
    return tuple(sorted(merged.values(), key=_term_key))


class FormalSum:
    """A direct sum of canonical modules with positive integer multiplicities.

    Immutable; terms are kept sorted so equality and hashing are structural.
    The empty sum stands for the zero module.  The constructor checks its
    terms and merges them with ``_merge``; sums of sums skip the check and
    share the term tuples that need no merging.  Being immutable, a sum and
    its term tuples may be shared freely.
    """

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Iterable[tuple[Module, int]] = ()):
        checked: list[tuple[Module, int]] = []
        for term in terms:
            mod, mult = term
            if mult.__class__ is not int:
                raise TypeError(f"multiplicity must be an int, got {mult!r}")
            if mult < 0:
                raise ValueError(f"negative multiplicity {mult} for {mod}")
            if mult == 0:
                continue
            if not isinstance(mod, _Label):
                raise TypeError(f"not a canonical module: {mod!r}")
            checked.append(term if term.__class__ is tuple else (mod, mult))
        self._terms = _merge(checked)
        self._hash = None

    @classmethod
    def _from_sorted(cls, terms: tuple[tuple[Module, int], ...]) -> "FormalSum":
        """Wrap a term tuple that is already canonical: distinct labels in
        ``_key`` order, positive int multiplicities.  Nothing is checked."""
        self = object.__new__(cls)
        self._terms = terms
        self._hash = None
        return self

    @classmethod
    def of(cls, mod: Module, mult: int = 1) -> "FormalSum":
        if isinstance(mod, _Label) and mult.__class__ is int and mult > 0:
            return cls._from_sorted(((mod, mult),))
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

    def flowed(self, ell: int) -> "FormalSum":
        """Spectral flow by ``ell``.  Flowing every term by the same amount
        keeps the terms distinct and in canonical order, so nothing is
        re-sorted."""
        return FormalSum._from_sorted(tuple([(m.flowed(ell), k) for m, k in self._terms]))

    def map_modules(self, fn) -> "FormalSum":
        """Apply ``fn`` (module -> module) term by term."""
        return FormalSum([(fn(mod), mult) for mod, mult in self._terms])

    def __add__(self, other: "FormalSum") -> "FormalSum":
        if not isinstance(other, FormalSum):
            return NotImplemented
        return FormalSum._from_sorted(_merge(self._terms + other._terms))

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
        # most sums are never hashed, so the hash is taken on first use
        if self._hash is None:
            self._hash = hash(self._terms)
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
    for mod, mult in as_sum(x):
        for simple in mod.factors():
            out[simple] = out.get(simple, 0) + mult
    return {mod: out[mod] for mod in sorted(out, key=_KEY)}


def length(x) -> int:
    """Composition length (1 for simples, n for strings, 4 for staggered),
    read from the label fields."""
    return sum(k * (mod.n if isinstance(mod, _String) else 4 if isinstance(mod, Proj) else 1)
               for mod, k in as_sum(x))


def _span(mod: Module) -> tuple[int, int]:
    # the least and greatest flow of a composition factor of mod
    if isinstance(mod, Proj):
        return mod.m - 1, mod.m + 1
    if isinstance(mod, _String):
        return mod.m, mod.m + mod.n - 1
    return mod.ell, mod.ell


def _tops(mod: Module) -> tuple[int, ...]:
    # the parities of the top-row flows: one for a string, both for a simple
    return (0, 1) if isinstance(mod, Vac) else ((mod.m + mod._top) % 2,)


def _flows(lo: int, hi: int, p: int) -> range:
    # the flows of parity p in [lo, hi]
    return range(lo + (lo - p) % 2, hi + 1, 2)


def _row_sum(x, row: int, label) -> FormalSum:
    """One ``label(f)`` per factor ``V[f]`` in the top (``row`` 0) or bottom
    (``row`` 1) row of each summand of ``x``: ``f = m`` for ``P[m]``, else
    the flows of that row's parity in the span of a simple or string.  A
    ``W`` is kept.  ``label`` is ``Vac`` for head and socle, ``Proj`` for
    projective cover and injective hull."""
    out = []
    for mod, k in as_sum(x):
        if isinstance(mod, Typ):
            out.append((mod, k))
        elif isinstance(mod, Proj):
            out.append((label(mod.m), k))
        else:
            lo, hi = _span(mod)
            for p in _tops(mod):
                out.extend([(label(f), k) for f in _flows(lo, hi, p ^ row)])
    return FormalSum._from_sorted(_merge(out))


class LoewyWord(NamedTuple):
    """The row structure of an indecomposable.

    For simples and strings, ``entries`` lists ``(flow, row)`` along the
    string, flows increasing by one.  For a staggered module the word is the
    diamond ``V[m] (top) -> V[m-1], V[m+1] (middle) -> V[m] (bottom)`` and
    ``diamond`` is set.
    """

    entries: tuple[tuple[int, str], ...]
    diamond: bool = False


def loewy(mod: Module) -> LoewyWord:
    """Loewy word of an indecomposable canonical module."""
    return LoewyWord(mod.rows(), diamond=isinstance(mod, Proj))


def socle(x) -> FormalSum:
    """Maximal semisimple submodule, as a sum of simples."""
    return _row_sum(x, 1, Vac)


def head(x) -> FormalSum:
    """Maximal semisimple quotient, as a sum of simples."""
    return _row_sum(x, 0, Vac)


class ExactSequence(NamedTuple):
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


# The longest string the grammar accepts.  At length 1000, in one process on
# a 2-core x86 machine with Python 3.11, ``hom`` or ``ext`` of two strings
# takes about 0.01 ms, ``fuse`` about 2 ms and a cover or hull about 0.3 ms.
MAX_STRING_LENGTH = 1000
# The largest catalog bound: the longest string of the catalog,
# ``B[2*bound+1,0]``, must still parse.
MAX_CATALOG_BOUND = (MAX_STRING_LENGTH - 1) // 2


def sequence_catalog(bound: int = 8) -> list[ExactSequence]:
    """The catalog of defining and derived non-split exact sequences.

    Family parameters run from their smallest sensible value up to ``bound``,
    at most :data:`MAX_CATALOG_BOUND`.  All sequences are stated at base
    flow 0; flowing a sequence preserves exactness.
    """
    if bound < 1:
        raise ValueError("catalog bound must be >= 1")
    if bound > MAX_CATALOG_BOUND:
        raise ValueError(
            f"catalog bound {bound} is above the limit {MAX_CATALOG_BOUND}: its longest "
            f"string would have length {2 * bound + 1}, above {MAX_STRING_LENGTH}")
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

