"""The fusion product engine and the Grothendieck fusion ring.

Fusion is computed on canonical labels.  The algorithm:

1. the vacuum flows are invertible units: ``V[l] x M = flow(M, l)``;
2. flow reduction: both factors are reduced to base flow 0 and the total
   flow is re-applied to the result (spectral flow is monoidal,
   ``flow(A, k) x flow(B, l) = flow(A x B, k + l)``);
3. relaxed simples fuse additively in the coset, with a staggered module
   appearing exactly when the cosets cancel;
4. projectives form a tensor ideal: a projective ``X`` (``W`` or ``P``)
   times a non-relaxed ``M`` is one flow of ``X`` per composition factor of
   ``M``, ``sum_f flow(X, flow(f))``;
5. string times string follows six closed formulas, one for each pair of
   length parities (odd x odd, odd x even, even x even) with equal or
   different letters.  Each is written once for both letters and both
   orders, and its projective part is at most one staggered sum
   ``S[m,n;k]`` (:class:`ProjSum`); only two length-2 strings of one letter
   give none.

Every pair product has one shape, ``(total, guard, ProjSum or None)``.  The
odd x even formulas are stated for ordered length parameters.  Where the
factors do not meet that guard the same formula shape is applied and the
result is flagged ``guard_extended``; with ``strict_guards`` such products
raise :class:`GuardExtensionError` instead.  Every guard-extended product is
still required (and tested) to satisfy the Grothendieck ring homomorphism.

Products of label pairs, the base-flow pairs among them, are kept in one
cache keyed by the pair's identity keys.  The flow is the last entry of
every identity key, so a flowed pair that misses finds its base product
under its own key with both flows set to 0, and builds the two base-flow
labels only when that product is not cached either.  The cached products
share their labels: one table, ``_LABELS``, holds one label per identity
key, so equal terms of different products are one object and compare by
identity.  Every stored product takes its labels from the table in one
step: each label of the base product is looked up under its key with the
flow moved by the pair's total flow (0 for a base pair), and is entered,
flowed by that total, only when the table lacks it.  The cache is bounded
by what it holds, one for each product and one for each of its terms, and
is emptied, with the table, before a store would take that count above
``PAIR_CACHE_LIMIT``; the table holds only labels of cached products, so it
never holds more than that count.
:func:`fuse_detailed` adds the pair products of two sums with the one merge
of ``modules``, which keeps each unmerged term tuple of a cached product
rather than copying it; the product of two single terms of multiplicity
one is the cached sum itself.  The projective part and the compact
``S[m,n;k]`` display of a :class:`FusionResult` are derived on demand.
"""

from __future__ import annotations

from typing import NamedTuple

from .modules import (
    _KEY, FormalSum, Module, Proj, _Record, TStr, Typ, Vac, _integral, _merge, as_sum,
    bstr, composition_factors, is_projective, is_simple, tstr,
)
from .weights import coset_add


class GuardExtensionError(ValueError):
    """Raised in strict mode when a fusion product needs the guard extension."""


class ProjSum(_Record):
    """The compact projective sum ``S[m,n;k]``.

    Expands to ``sum_r N_r * P[k + 2r - 1]`` over ``r = 1..m+n-1`` with
    ``N_r = min(r, m, n, m+n-r)``; total multiplicity is ``m*n``.
    """

    __slots__ = ("m", "n", "k")
    _fields = __slots__

    def __init__(self, m: int, n: int, k: int):
        if m.__class__ is not int or n.__class__ is not int or k.__class__ is not int:
            raise TypeError(f"S[m,n;k] parameters must be ints, got {m!r}, {n!r}, {k!r}")
        if m < 1 or n < 1:
            raise ValueError(f"S[m,n;k] requires m, n >= 1, got m={m}, n={n}")
        _set_sum_m(self, m)
        _set_sum_n(self, n)
        _set_sum_k(self, k)

    def expand(self) -> FormalSum:
        m, n, k = self.m, self.n, self.k
        return FormalSum((Proj(k + 2 * r - 1), min(r, m, n, m + n - r))
                         for r in range(1, m + n))

    def __str__(self):
        return f"S[{self.m},{self.n};{self.k}]"


_set_sum_m, _set_sum_n, _set_sum_k = ProjSum.m.__set__, ProjSum.n.__set__, ProjSum.k.__set__


def expand_projsum(m: int, n: int, k: int) -> FormalSum:
    """Expanded form of ``S[m,n;k]``; rejects nonpositive or non-integral
    ``m`` or ``n`` and a non-integral ``k``."""
    return ProjSum(_integral(m, "m"), _integral(n, "n"), _integral(k, "k")).expand()


# ``FusionResult.compact`` has one string per sum and unit of multiplicity
# (10^9 for ``1000000000*B[3,0] x B[3,0]``); above this many it refuses.
MAX_COMPACT_ENTRIES = 100_000


class FusionResult(NamedTuple):
    """A fusion decomposition.  ``total`` is the full expansion; ``sums``
    pairs the ``S[m,n;k]`` of each product of summands that has one with the
    product's multiplicity, from which ``compact`` is built on demand, so
    :func:`fuse` never pays.
    """

    total: FormalSum
    guard_extended: bool
    sums: tuple[tuple[ProjSum, int], ...]

    @property
    def projective_part(self) -> FormalSum:
        """The projective summands of ``total``: its ``W`` and ``P`` terms."""
        # a filtered canonical tuple is still canonical
        return FormalSum._from_sorted(
            tuple([(m, k) for m, k in self.total.terms if is_projective(m)]))

    @property
    def compact(self) -> tuple[str, ...]:
        """The ``S[m,n;k]`` forms of the projective parts the string formulas
        produced, one per unit of multiplicity."""
        count = sum(mult for _, mult in self.sums)
        if count > MAX_COMPACT_ENTRIES:
            raise ValueError(
                f"the compact projective display has {count} entries, above the "
                f"limit {MAX_COMPACT_ENTRIES}")
        return tuple([str(s) for s, mult in self.sums for _ in range(mult)])


def _string_fuse(a: Module, b: Module) -> tuple[FormalSum, bool, ProjSum | None]:
    """Fusion of two base-flow-0 strings via the closed formulas, in either
    order.  A string of length ``n >= 2`` has ``n = 2p`` or ``n = 2p + 1``
    with ``p = n // 2 >= 1``."""
    same = type(a) is type(b)
    if a.n % 2 != b.n % 2:  # odd x even
        odd, even = (a, b) if a.n % 2 else (b, a)
        p, q = odd.n // 2, even.n // 2
        if same:
            return _with_sum(FormalSum.of(type(a)(even.n, 0)), ProjSum(p, q, 1), guard=p < q)
        return _with_sum(FormalSum.of(type(even)(even.n, 2 * p)), ProjSum(q, p, 0), guard=q < p)
    long, short = (a, b) if a.n >= b.n else (b, a)
    p, q = long.n // 2, short.n // 2
    if a.n % 2:  # odd x odd
        if same:
            return _with_sum(FormalSum.of(type(a)(a.n + b.n - 1, 0)), ProjSum(p, q, 1))
        # at p == q both letters give V[2q]
        string = tstr if isinstance(long, TStr) else bstr
        return _with_sum(FormalSum.of(string(2 * (p - q) + 1, 2 * q)), ProjSum(p + 1, q, 0))
    if same:  # even x even
        body = FormalSum.of(type(a)(2 * q, 2 * p - 1)) + FormalSum.of(type(a)(2 * q, 0))
        # only two length-2 strings leave no projective sum
        return _with_sum(body, ProjSum(p - 1, q, 1) if p > 1 else None)
    return _with_sum(FormalSum(), ProjSum(p, q, 0))


def _with_sum(body: FormalSum, s: ProjSum | None = None, *, guard: bool = False):
    """The shape of every pair product, ``(total, guard, s)``: ``total`` is
    ``body`` plus the expansion of the projective sum ``s``, if any."""
    return (body if s is None else body + s.expand()), guard, s


def _fuse_base(a: Module, b: Module) -> tuple[FormalSum, bool, ProjSum | None]:
    """Fusion of two modules at base flow 0, ``a``'s family rank not above
    ``b``'s; every formula is symmetric within a family."""
    if isinstance(a, Vac):
        return _with_sum(FormalSum.of(b))
    if isinstance(a, Typ) and isinstance(b, Typ):
        c = coset_add(a.coset, b.coset)
        if c == 0:
            return _with_sum(FormalSum.of(Proj(-1)))
        return _with_sum(FormalSum.of(Typ(c, 0)) + FormalSum.of(Typ(c, -1)))
    if is_projective(a) or is_projective(b):
        # Projectives form a tensor ideal: the product sees only the other
        # factor's composition factors, one flowed projective for each.
        p, other = (a, b) if is_projective(a) else (b, a)
        return _with_sum(FormalSum((p.flowed(f.flow), 1) for f in other.factors()))
    return _string_fuse(a, b)


# Products of label pairs, flowed and at base flow 0.  Without the flowed
# pairs the fusion suite takes about twice as long and over twice the peak
# memory; without the base pairs 1.0-1.2 times as long (Python 3.11, shared
# 2-core VM).  The cache is bounded by what it holds: each stored product
# counts ``1 + len(total.terms)``, and the cache is emptied before a store
# would take the count above this limit.  One product of two length-1000
# strings holds about 1,000 labels (about 243 KiB), so the limit bounds the
# cache at about 130 MB.  ``_LABELS``, keyed by identity key, is emptied with
# the cache and every stored product takes its labels from it, so it holds
# only labels of cached products and is bounded by the same count.  The
# fusion suite ends at 42,646 products holding 238,767, with 897 labels in
# the table, and no benchmark workload comes near the limit.
PAIR_CACHE_LIMIT = 1 << 19
_PAIR_CACHE: dict[tuple, tuple[FormalSum, bool, ProjSum | None]] = {}
_PAIR_HELD = 0  # the count of what _PAIR_CACHE holds, as above
_LABELS: dict[tuple, Module] = {}  # the one label per identity key, as above


def _fuse_modules(a: Module, b: Module) -> tuple[FormalSum, bool, ProjSum | None]:
    global _PAIR_HELD
    # keyed by identity keys (hashed and compared in C), which the family
    # rank leads and the flow ends
    ia, ib = a._id, b._id
    if ia > ib:
        a, b, ia, ib = b, a, ib, ia
    key = (ia, ib)
    hit = _PAIR_CACHE.get(key)
    if hit is not None:
        return hit
    fa, fb = ia[-1], ib[-1]
    shift = fa + fb
    if fa or fb:
        # The base pair's key is this key with both flows set to 0, still in
        # order; its labels are built only when it is not cached.
        base = _PAIR_CACHE.get((ia[:-1] + (0,), ib[:-1] + (0,)))
        if base is None:
            base = _fuse_modules(a.flowed(-fa), b.flowed(-fb))
        total, guard, s = base
    else:
        total, guard, s = _fuse_base(a, b)
    held = 1 + len(total.terms)
    # emptied before this product's labels enter the table, so that the
    # table holds only labels of cached products
    if _PAIR_HELD + held > PAIR_CACHE_LIMIT:
        _PAIR_CACHE.clear()
        _LABELS.clear()
        _PAIR_HELD = 0
    # each label is looked up under its identity key, the flow moved by a
    # nonzero shift, and built only when the table lacks it
    terms = []
    for m, k in total.terms:
        i = m._id
        if shift:
            i = i[:-1] + (i[-1] + shift,)
        label = _LABELS.get(i)
        if label is None:
            label = _LABELS[i] = m.flowed(shift) if shift else m
        terms.append((label, k))
    total = FormalSum._from_sorted(tuple(terms))
    if shift and s is not None:
        s = ProjSum(s.m, s.n, s.k + shift)
    out = (total, guard, s)
    _PAIR_CACHE[key] = out
    _PAIR_HELD += held
    return out


def fuse_detailed(a, b, *, strict_guards: bool = False) -> FusionResult:
    """Fusion with guard flag and compact projective-part display."""
    terms_a, terms_b = as_sum(a).terms, as_sum(b).terms
    collected: list[tuple[Module, int]] = []
    guard_any = False
    sums: list[tuple[ProjSum, int]] = []
    for ma, ka in terms_a:
        for mb, kb in terms_b:
            part, guard, s = _fuse_modules(ma, mb)
            if guard:
                guard_any = True
                if strict_guards:
                    raise GuardExtensionError(
                        f"fusion {ma} x {mb} falls outside the stated length guard")
            mult = ka * kb
            collected.extend(part.terms if mult == 1 else [(m, mult * k) for m, k in part.terms])
            if s is not None:
                sums.append((s, mult))
    if len(terms_a) == len(terms_b) == 1 and mult == 1:
        total = part  # a single product is the cached sum itself
    else:
        total = FormalSum._from_sorted(_merge(collected))
    return FusionResult(total, guard_any, tuple(sums))


def fuse(a, b, *, strict_guards: bool = False) -> FormalSum:
    """Fusion product of modules or formal sums, fully expanded."""
    return fuse_detailed(a, b, strict_guards=strict_guards).total


class GrothClass(_Record):
    """An element of the Grothendieck fusion ring: an integer combination of
    simple classes with multiplication induced by fusion."""

    __slots__ = ("terms",)
    _fields = __slots__

    def __init__(self, terms: tuple[tuple[Module, int], ...]):
        _set_groth_terms(self, terms)

    @classmethod
    def from_dict(cls, d: dict[Module, int]) -> "GrothClass":
        for m, c in d.items():
            if c and not is_simple(m):
                raise ValueError(f"Grothendieck classes live on simples, got {m}")
        return cls(tuple([(m, d[m]) for m in sorted(d, key=_KEY) if d[m]]))

    def __add__(self, other: "GrothClass") -> "GrothClass":
        d = dict(self.terms)
        for m, c in other.terms:
            d[m] = d.get(m, 0) + c
        return GrothClass.from_dict(d)

    def __mul__(self, other: "GrothClass") -> "GrothClass":
        """The standard-module Verlinde rule (Ridout-Wood, arXiv:1408.4185):

        * ``[V^l] [M] = [M.flowed(l)]``: vacuum flows are units;
        * ``[W_a^l] [W_b^m] = [W_{a+b}^{l+m}] + [W_{a+b}^{l+m-1}]``, where
          ``[W_0^k] := [V^k] + [V^{k-1}]`` at the zero coset.
        """
        d: dict[Module, int] = {}
        for s1, c1 in self.terms:
            for s2, c2 in other.terms:
                if isinstance(s1, Vac):
                    simples = (s2.flowed(s1.ell),)
                elif isinstance(s2, Vac):
                    simples = (s1.flowed(s2.ell),)
                else:
                    c, k = coset_add(s1.coset, s2.coset), s1.ell + s2.ell
                    simples = _standard(c, k) + _standard(c, k - 1)
                for mod in simples:
                    d[mod] = d.get(mod, 0) + c1 * c2
        return GrothClass.from_dict(d)

    def __str__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"[{m}]" if c == 1 else f"{c}*[{m}]" for m, c in self.terms)


_set_groth_terms = GrothClass.terms.__set__


def _standard(c, ell: int) -> tuple[Module, ...]:
    """The simple factors of the standard module ``W_c^ell``."""
    return (Typ(c, ell),) if c else (Vac(ell), Vac(ell - 1))


def groth_class(x) -> GrothClass:
    """Image of a module or formal sum in the Grothendieck group."""
    return GrothClass.from_dict(composition_factors(x))


def groth_product(a: GrothClass, b: GrothClass) -> GrothClass:
    """Product in the Grothendieck fusion ring."""
    return a * b


def unit_class() -> GrothClass:
    return groth_class(Vac(0))
