"""Property suites behind the ``verify`` command.

Each suite returns a list of :class:`Check` results; a suite passes when
every check does.  The sweeps run over a configurable pool of canonical
modules (all five families, bounded string length and flow, a few cosets).
These suites are the single implementation of the property sweeps: the
acceptance tests assert on their results.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from typing import NamedTuple

from . import characters, fusion, homalg, rigidity
from .config import Config
from .functors import conjugate, dual_restricted, dual_star, dual_tensor, flow
from .fusion import expand_projsum, fuse, fuse_detailed, groth_class, groth_product
from .modules import (
    MAX_STRING_LENGTH, BStr, FormalSum, Module, Proj, TStr, Vac, _span, bstr,
    composition_factors, head, is_projective, is_simple, proj, sequence_catalog, socle,
    tstr, typ, vac,
)
from .weights import coset


class Check(NamedTuple):
    name: str
    passed: bool
    detail: str = ""
    cases: int = 0

    def line(self) -> str:
        status = "FAIL" if not self.passed else "ok" if self.cases else "skip"
        suffix = f"; {self.detail}" if self.detail else ""
        return f"{status:4s} {self.name} ({self.cases} cases{suffix})"


def _check(name: str, cases, holds, detail: str = "") -> Check:
    """Evaluate ``holds(*case)`` on every case tuple.

    The check passes when every case holds; otherwise its detail counts the
    failures and names the first failing case.
    """
    count = failures = 0
    first = None
    for case in cases:
        count += 1
        if not holds(*case):
            failures += 1
            first = first or case
    if failures:
        where = ", ".join(map(str, first))
        detail = "; ".join(filter(None, [detail, f"{failures} failed, first at {where}"]))
    return Check(name, failures == 0, detail, count)


# The largest pool bounds.  Associativity grows cubically in the pool: at
# (8, 4) the fusion suite takes 21 s and 73 MB, against 6 s and 44 MB at
# (7, 3) (Python 3.11, a shared 2-core VM, one run each).
MAX_POOL_LENGTH = 8
MAX_POOL_FLOW = 4
# The most cosets a pool may list; each adds one relaxed simple per flow.
# At (8, 4) six cosets give 198 modules, and the fusion suite took 23 s and
# 92 MB peak RSS, against 21 s and 73 MB for the 171 modules of the
# default three (Python 3.11, a shared 2-core VM, one run each).
MAX_POOL_COSETS = 6


def pool_modules(max_length: int = 7, max_flow: int = 3,
                 cosets=(Fraction(1, 3), Fraction(1, 2), Fraction(2, 3))) -> list[Module]:
    if max_length < 0 or max_flow < 0:
        raise ValueError(f"pool bounds must be non-negative, got max_length="
                         f"{max_length}, max_flow={max_flow}")
    if max_length > MAX_POOL_LENGTH or max_flow > MAX_POOL_FLOW:
        raise ValueError(f"pool bounds must be at most max_length={MAX_POOL_LENGTH}, "
                         f"max_flow={MAX_POOL_FLOW}, got {max_length}, {max_flow}")
    if len(cosets) > MAX_POOL_COSETS:
        raise ValueError(f"a pool lists at most {MAX_POOL_COSETS} cosets, got {len(cosets)}")
    flows = range(-max_flow, max_flow + 1)
    pool: list[Module] = [vac(l) for l in flows]
    # cosets equal mod 1 name one module; keep the first of each
    pool += [typ(c, l) for c in dict.fromkeys(map(coset, cosets)) for l in flows]
    pool += [bstr(n, m) for n in range(2, max_length + 1) for m in flows]
    pool += [tstr(n, m) for n in range(2, max_length + 1) for m in flows]
    pool += [proj(m) for m in flows]
    return pool


def _pool(cfg: Config) -> list[Module]:
    return pool_modules(cfg.pool_max_length, cfg.pool_max_flow, cfg.pool_cosets)


def _ring_character(x) -> dict[tuple[tuple[int, int], int], int]:
    """An exact character of the Grothendieck ring: ``V[l]`` goes to
    ``(-x)^l`` and ``W[a,l]`` to ``(-1)^(l+1) [a] x^(l-1) (1-x)``, with ``x``
    a formal variable and ``[a]`` the group element ``a`` of ``Q/Z``, summed
    over the composition factors of ``x``.  Stored as ``{(coset, power of x):
    coefficient}`` without zero coefficients, a coset ``p/q`` as the ints
    ``(p, q)``.  ``1 - x`` is not a zero divisor, so the character is
    injective on classes."""
    out: dict[tuple[tuple[int, int], int], int] = {}
    for mod, k in composition_factors(x).items():
        ell = mod.ell
        sign = -1 if ell % 2 else 1
        if isinstance(mod, Vac):
            parts = ((((0, 1), ell), sign),)
        else:
            a = (mod.coset.numerator, mod.coset.denominator)
            parts = (((a, ell - 1), -sign), ((a, ell), sign))
        for key, c in parts:
            out[key] = out.get(key, 0) + k * c
    return {key: c for key, c in out.items() if c}


def _ring_product(f: dict, g: dict) -> dict[tuple[tuple[int, int], int], int]:
    # the product of two ring characters: cosets add mod 1, powers of x add
    out: dict[tuple[tuple[int, int], int], int] = {}
    for ((p, q), i), c in f.items():
        for ((r, t), j), d in g.items():
            num, den = (p * t + r * q) % (q * t), q * t
            h = math.gcd(num, den)
            key = ((num // h, den // h), i + j)
            out[key] = out.get(key, 0) + c * d
    return {key: c for key, c in out.items() if c}


def _nonproj(x) -> FormalSum:
    """The sum of the non-projective terms of ``x``."""
    return FormalSum([(m, k) for m, k in x if not is_projective(m)])


def _flow_class(x: FormalSum) -> tuple[FormalSum, int]:
    """``x`` as ``(flow(x, -f), f)`` with ``f`` the flow of its first term.
    Flowing a sum keeps its term order, so the first part is one sum per
    flow class, and two sums are equal exactly when their pairs are."""
    f = x.terms[0][0].flow
    return (x.flowed(-f) if f else x), f


# The pool's strings stop at length 7, so no pool check reads a string
# product past length 13.  The full-length check reads this many seeded
# string pairs, three of each class in each half, in 0.8-1.0 s (Python
# 3.11, a shared 2-core VM).
FULL_LENGTH_PAIRS = 48
FULL_LENGTH_SEED = 5986


def full_length_pairs() -> list[tuple[Module, Module]]:
    """``FULL_LENGTH_PAIRS`` seeded pairs of strings at flows -3..3, cycling
    through the 8 classes of (first parity, second parity, same letter): the
    first half of length 2-20, the second of length 2 to
    ``MAX_STRING_LENGTH``."""
    rng = random.Random(FULL_LENGTH_SEED)
    pairs = []
    for i in range(FULL_LENGTH_PAIRS):
        top = 20 if i < FULL_LENGTH_PAIRS // 2 else MAX_STRING_LENGTH
        odd_a, odd_b, same = i & 1, i >> 1 & 1, i >> 2 & 1
        letter = rng.choice((BStr, TStr))
        a = letter(rng.randrange(2 + odd_a, top + 1, 2), rng.randint(-3, 3))
        other = letter if same else letter._swap
        pairs.append((a, other(rng.randrange(2 + odd_b, top + 1, 2), rng.randint(-3, 3))))
    return pairs


def full_length_adjunction(pairs) -> Check:
    """Rigidity against a simple ``S = V[l]``, with ``B^v = dual_tensor(B)``:
    ``hom(A x B, S) = hom(A, flow(B^v, l))``, ``hom(S, A x B) = hom(flow(B^v,
    l), A)`` and ``ext(A x B, S) = ext(A, flow(B^v, l))``, for every ``l`` in
    the span of ``A x B`` and one beyond each end.  The left sides read the
    head and socle of the product, as dicts, and the Ext of its
    non-projective terms; no right side fuses."""
    reads, spans = {}, {}
    for a, b in pairs:
        product = fuse(a, b)
        reads[(a, b)] = (dict(head(product).terms), dict(socle(product).terms),
                         _nonproj(product), dual_tensor(b))
        ends = [_span(m) for m, _ in product]
        spans[(a, b)] = range(min(lo for lo, _ in ends) - 1, max(hi for _, hi in ends) + 2)

    def rigid(a, b, ell):
        top, bottom, nonproj, dual = reads[(a, b)]
        simple, partner = vac(ell), dual.flowed(ell)
        return (top.get(simple, 0) == homalg.hom_dim(a, partner)
                and bottom.get(simple, 0) == homalg.hom_dim(partner, a)
                and homalg.ext_dim(nonproj, simple) == homalg.ext_dim(a, partner))

    return _check("adjunction at full string length",
                  ((a, b, ell) for a, b in pairs for ell in spans[(a, b)]), rigid,
                  f"hom and ext of A x B against V[l], {len(pairs)} seeded string pairs "
                  f"to length {MAX_STRING_LENGTH}")


def fusion_suite(cfg: Config | None = None) -> list[Check]:
    pool = _pool(cfg or Config())
    pairs = list(itertools.combinations_with_replacement(pool, 2))
    products: dict[tuple[Module, Module], FormalSum] = {}
    classes: dict[tuple[Module, Module], tuple[FormalSum, int]] = {}
    ordinary, guarded = [], []
    for a, b in pairs:
        res = fuse_detailed(a, b)
        products[(a, b)] = products[(b, a)] = res.total
        classes[(a, b)] = classes[(b, a)] = _flow_class(res.total)
        (guarded if res.guard_extended else ordinary).append((a, b))
    # associativity fuses each pair product with every third module.  Fusion
    # is flow-equivariant, so a step is fused once per flow class of its
    # product and module: (P, c) at flows p and k gives the class of
    # fuse(P, c) with its flow moved by p + k
    bases = {mod: (mod.flowed(-mod.flow), mod.flow) for mod in pool}
    steps: dict[tuple[FormalSum, Module], tuple[FormalSum, int]] = {}

    def fuse_step(pair, c):
        (product, p), (base, k) = classes[pair], bases[c]
        if (hit := steps.get((product, base))) is None:
            hit = steps[(product, base)] = _flow_class(fuse(product, base))
        return hit[0], hit[1] + p + k

    def grothendieck(a, b):
        return groth_class(products[(a, b)]) == groth_product(groth_class(a), groth_class(b))

    ring = {mod: _ring_character(mod) for mod in pool}

    def ring_character(a, b):
        return _ring_character(products[(a, b)]) == _ring_product(ring[a], ring[b])

    # M x N is exact in M and projectives form a tensor ideal, so a syzygy
    # and a cosyzygy of M pass through fusion up to projective summands
    shifts = [(m, n) for m in pool if not is_projective(m) for n in pool]

    def commutes(omega):
        return lambda m, n: _nonproj(fuse(omega(m), n)) == FormalSum(
            [(omega(t), k) for t, k in _nonproj(products[(m, n)])])

    # rigidity makes - x B left adjoint to - x B^v with B^v = dual_tensor(B)
    # (Etingof-Gelaki-Nikshych-Ostrik, Tensor Categories, 2.10), and fusion
    # is exact, so Hom and Ext out of A x B match those into C x B^v; every
    # ordered pair (A, B) against a fixed slice of the pool as C
    duals = {mod: dual_tensor(mod) for mod in pool}
    targets = pool[::17]
    adjoints = {(c, b): fuse(c, duals[b]) for c in targets for b in pool}

    def adjunction(name, dim):
        return _check(f"{name} adjunction", itertools.product(pool, pool, targets),
                      lambda a, b, c: dim(products[(a, b)], c) == dim(a, adjoints[(c, b)]),
                      f"{name}(A x B, C) = {name}(A, C x B^v), ordered pairs (A, B), "
                      f"{len(targets)} modules C")

    def twisted_monoidal(functor):
        # conjugation and the restricted dual send the unit V[0] to V[-1], so
        # they are monoidal only up to one flow
        return lambda a, b: functor(products[(a, b)]) == flow(fuse(functor(a), functor(b)), 1)

    def rigidity_trace(mod):
        unit = vac(0) if isinstance(mod, Vac) else proj(0)
        return fuse(duals[mod], mod) == FormalSum.of(unit)

    return [
        _check("commutativity", pairs, lambda a, b: products[(a, b)] == fuse(b, a),
               f"unordered pairs, {len(guarded)} guard-extended"),
        _check("associativity", itertools.combinations_with_replacement(pool, 3),
               lambda a, b, c: fuse_step((a, b), c) == fuse_step((b, c), a),
               "unordered triples"),
        _check("flow compatibility",
               ((a, b, k, l) for a, b in pairs for k, l in ((1, 0), (-2, 1), (3, -1))),
               lambda a, b, k, l: fuse(flow(a, k), flow(b, l)) == flow(products[(a, b)], k + l),
               "shifts (1,0), (-2,1), (3,-1)"),
        _check("star-dual compatibility", pairs,
               lambda a, b: fuse(dual_star(a), dual_star(b)) == dual_star(products[(a, b)])),
        _check("conjugation-flow compatibility",
               ((mod, ell) for mod in pool for ell in range(-3, 4)),
               lambda mod, ell: conjugate(flow(mod, ell)) == flow(conjugate(mod), -ell),
               "|ell| <= 3"),
        _check("conjugation is twisted monoidal", pairs, twisted_monoidal(conjugate),
               "conj(A x B) = flow(conj(A) x conj(B), 1), unordered pairs"),
        _check("restricted dual is twisted monoidal", pairs, twisted_monoidal(dual_restricted),
               "the same for the restricted dual, unordered pairs"),
        _check("Grothendieck homomorphism", ordinary, grothendieck, "ordinary pairs"),
        _check("Grothendieck homomorphism, guard-extended", guarded, grothendieck,
               "guard-extended pairs"),
        _check("ring character", pairs, ring_character,
               "chi(A x B) = chi(A) chi(B) exactly, unordered pairs"),
        _check("syzygy commutes with fusion", shifts, commutes(homalg.presentation_kernel),
               "nonproj(Omega(M) x N) = Omega(nonproj(M x N)), M not projective"),
        _check("cosyzygy commutes with fusion", shifts, commutes(homalg.presentation_cokernel),
               "the same for Omega^-1, M not projective"),
        _check("projective sum totals",
               ((m, n) for m in range(1, 13) for n in range(1, 13)),
               lambda m, n: expand_projsum(m, n, 0).total() == m * n, "m, n <= 12"),
        adjunction("Hom", homalg.hom_dim),
        adjunction("Ext", homalg.ext_dim),
        _check("tensor dual is monoidal", pairs,
               lambda a, b: dual_tensor(products[(a, b)]) == fuse(duals[a], duals[b]),
               "(A x B)^v = A^v x B^v, unordered pairs"),
        _check("rigidity trace on simples",
               ((mod,) for mod in pool if is_simple(mod)), rigidity_trace),
        full_length_adjunction(full_length_pairs()),
    ]


def _short_kind(m: Module) -> tuple[str | None, int]:
    # (family, flow) in the four short families, else (None, 0)
    if isinstance(m, Vac):
        return "V", m.ell
    if isinstance(m, TStr) and m.n == 2:
        return "T2", m.m
    if isinstance(m, BStr) and m.n == 2:
        return "B2", m.m
    if isinstance(m, Proj):
        return "P", m.m
    return None, 0


# The paper's tables, (row family, column family) -> {row flow - column
# flow: dimension}; every other flow offset has dimension 0.
_HOM_TABLE = {
    ("V", "V"): {0: 1}, ("V", "T2"): {1: 1}, ("V", "B2"): {0: 1}, ("V", "P"): {0: 1},
    ("T2", "V"): {0: 1}, ("T2", "T2"): {0: 1, 1: 1}, ("T2", "B2"): {0: 1},
    ("T2", "P"): {-1: 1, 0: 1},
    ("B2", "V"): {-1: 1}, ("B2", "T2"): {0: 1}, ("B2", "B2"): {-1: 1, 0: 1},
    ("B2", "P"): {-1: 1, 0: 1},
    ("P", "V"): {0: 1}, ("P", "T2"): {0: 1, 1: 1}, ("P", "B2"): {0: 1, 1: 1},
    ("P", "P"): {-1: 1, 0: 2, 1: 1},
}
_EXT_TABLE = {
    ("V", "V"): {-1: 1, 1: 1}, ("V", "T2"): {2: 1}, ("V", "B2"): {-1: 1},
    ("T2", "V"): {1: 1}, ("T2", "T2"): {1: 1, 2: 1}, ("T2", "B2"): {},
    ("B2", "V"): {-2: 1}, ("B2", "T2"): {}, ("B2", "B2"): {-2: 1, -1: 1},
}


def _table_entry(table: dict, row: Module, col: Module) -> int | None:
    (rk, n), (ck, m) = _short_kind(row), _short_kind(col)
    dims = table.get((rk, ck))
    return None if dims is None else dims.get(n - m, 0)


def hom_table_expected(row: Module, col: Module) -> int | None:
    """Closed-form Hom dimensions for the four short families, by flow."""
    return _table_entry(_HOM_TABLE, row, col)


def ext_table_expected(row: Module, col: Module) -> int | None:
    """Closed-form Ext dimensions for the three non-projective short families."""
    return _table_entry(_EXT_TABLE, row, col)


def _short_family(flow_idx: int) -> list[Module]:
    return [vac(flow_idx), tstr(2, flow_idx), bstr(2, flow_idx), proj(flow_idx)]


def _proj_run(m: int, k: int) -> FormalSum:
    """``P[m] + P[m+2] + ... `` with ``k`` summands."""
    return FormalSum((proj(m + 2 * i), 1) for i in range(k))


def _cover_hull_cases():
    for k in range(1, 5):
        for m in (-2, 0, 3):
            yield "cover", bstr(2 * k + 1, m), _proj_run(m + 1, k)
            yield "cover", bstr(2 * k, m), _proj_run(m + 1, k)
            yield "cover", tstr(2 * k + 1, m), _proj_run(m, k + 1)
            yield "cover", tstr(2 * k, m), _proj_run(m, k)
            yield "hull", bstr(2 * k + 1, m), _proj_run(m, k + 1)
            yield "hull", bstr(2 * k, m), _proj_run(m, k)
            yield "hull", tstr(2 * k + 1, m), _proj_run(m + 1, k)
            yield "hull", tstr(2 * k, m), _proj_run(m + 1, k)


# presentation side -> (cover or hull, kernel or cokernel)
_PRESENTATIONS = {
    "cover": (homalg.projective_cover, homalg.presentation_kernel),
    "hull": (homalg.injective_hull, homalg.presentation_cokernel),
}


def _presentation_balanced(side: str, mod: Module) -> bool:
    envelope, rest = _PRESENTATIONS[side]
    return composition_factors(envelope(mod)) == \
        composition_factors(FormalSum.of(mod) + FormalSum.of(rest(mod)))


def _hom_ext_symmetric(a: Module, b: Module) -> bool:
    h, e = homalg.hom_dim(a, b), homalg.ext_dim(a, b)
    return (h == homalg.hom_dim(dual_star(b), dual_star(a))
            and h == homalg.hom_dim(flow(a, 2), flow(b, 2))
            and e == homalg.ext_dim(dual_star(b), dual_star(a))
            and e == homalg.ext_dim(flow(a, -3), flow(b, -3))
            and not (e and (is_projective(a) or is_projective(b))))


def homalg_suite(cfg: Config | None = None) -> list[Check]:
    cfg = cfg or Config()
    pool = _pool(cfg)
    catalog = sequence_catalog(cfg.catalog_bound)
    probes = [m for m in pool if is_projective(m)]
    simples = [m for m in pool if is_simple(m)]
    relaxed = typ(Fraction(1, 3), 1)
    rng = random.Random(7)
    sample = rng.sample(pool, min(len(pool), 25))

    def ext_is(a, b, want):
        return homalg.ext_dim(a, b) == want

    def simple_ext_cases():
        for k in range(-4, 5):
            for l in range(-4, 5):
                yield vac(k), vac(l), 1 if abs(k - l) == 1 else 0
            yield typ(Fraction(1, 3), k), vac(0), 0
            yield bstr(3, 0), typ(Fraction(1, 3), k), 0

    def string_ext_cases():
        for n in range(1, 4):
            for m in range(1, 8):
                yield tstr(2 * n + 1, 0), bstr(m, 2 * n + 1), 1
                yield bstr(2 * n, 0), bstr(m, 2 * n), 1

    def defining_extension_unique(seq):
        return homalg.ext_dim(next(seq.quotient.modules()), next(seq.sub.modules())) == 1

    return [
        _check("hom table",
               ((row, col) for off in range(-4, 5)
                for row in _short_family(0) for col in _short_family(off)),
               lambda row, col: homalg.hom_dim(row, col) == hom_table_expected(row, col),
               "flow offsets -4..4"),
        _check("ext table",
               ((row, col) for off in range(-4, 5)
                for row in _short_family(0)[:3] for col in _short_family(off)[:3]),
               lambda row, col: homalg.ext_dim(row, col) == ext_table_expected(row, col),
               "flow offsets -4..4"),
        _check("simple ext dimensions", simple_ext_cases(), ext_is),
        _check("string extension lemma", string_ext_cases(), ext_is, "n <= 3, m <= 7"),
        _check("ext against a relaxed simple vanishes",
               itertools.chain(((relaxed, m, 0) for m in pool), ((m, relaxed, 0) for m in pool)),
               ext_is, f"{relaxed} against every pool module, both sides"),
        _check("socle/head identity", itertools.product(simples, pool),
               lambda s, m: homalg.hom_dim(s, m) == socle(m).multiplicity(s)
               and homalg.hom_dim(m, s) == head(m).multiplicity(s),
               "hom(S, M) = [socle M : S] and hom(M, S) = [head M : S], S simple"),
        _check("covers and hulls", _cover_hull_cases(),
               lambda side, mod, want: _PRESENTATIONS[side][0](mod) == want,
               "k <= 4, m in {-2, 0, 3}"),
        _check("presentation balance",
               ((side, mod) for mod in pool if not is_projective(mod) for side in _PRESENTATIONS),
               _presentation_balanced,
               "factors(cover) = factors(M) + factors(kernel), and dually"),
        _check("catalog factor balance", ((seq,) for seq in catalog),
               lambda seq: seq.factors_balance()),
        _check("Euler characteristic vs projective probes",
               ((seq, probe) for seq in catalog for probe in probes), homalg.euler_check,
               f"{len(catalog)} sequences x {len(probes)} probes"),
        _check("defining extensions are unique",
               ((seq,) for seq in catalog
                if seq.tag in {"b-odd-grow", "b-even-grow", "t-odd-grow", "t-even-grow"}),
               defining_extension_unique),
        _check("Ext2 by dimension shifting",
               itertools.product([m for m in pool if not is_projective(m)], repeat=2),
               lambda m, n: homalg.ext_dim(homalg.presentation_kernel(m), n)
               == homalg.ext_dim(m, homalg.presentation_cokernel(n)),
               "ext(Omega(M), N) = ext(M, Omega^-1(N)), neither projective"),
        _check("duality and flow symmetry of hom/ext",
               itertools.product(sample, repeat=2), _hom_ext_symmetric,
               f"{len(sample)}^2 sampled pairs"),
    ]


def zero_coset_standard(ell: int, hmax: Fraction, window) -> bool:
    """The ring's zero-coset standard module ``W_0^ell`` (Ridout-Wood,
    arXiv:1408.4185), read from ``fusion._standard``, has the character of
    the coset-0 relaxed layout, exactly."""
    jmin, jmax = map(Fraction, window)
    integral = range(math.ceil(jmin), math.floor(jmax) + 1), math.floor(hmax)
    layout = characters._layout(False, 0, ell, hmax, jmin, jmax, integral)
    factors = FormalSum((mod, 1) for mod in fusion._standard(0, ell))
    return characters.character(factors, hmax, window) == characters._series([(layout, 1)], hmax)


def characters_suite(cfg: Config | None = None) -> list[Check]:
    cfg = cfg or Config()
    hmax, window = cfg.hmax, cfg.jwindow
    characters.oracle_weight(hmax)  # refuse before anything is built
    catalog = sequence_catalog(cfg.catalog_bound)
    probe_mods = [vac(0), typ(Fraction(1, 3), 0), bstr(3, 0), tstr(4, -2), proj(1)]
    wide = (window[0] - 3, window[1] + 3)
    deep = hmax + 3 * (abs(window[1]) + 6) + 6
    deep_chars = {mod: characters.character(mod, deep, wide) for mod in probe_mods}

    def char(mod, h=hmax, w=window):
        return characters.character(mod, h, w)

    def flow_agrees(mod, ell):
        moved = characters.char_flow(deep_chars[mod], ell)
        return moved.agrees_with(char(flow(mod, ell)), min_points=10)

    def dual_agrees(mod):
        moved = characters.char_dual(char(mod, w=wide))
        return moved.agrees_with(char(dual_restricted(mod)), min_points=10)

    return [
        _check("oracle agreement", ((vac(0),), (typ(Fraction(1, 3), 0),)),
               lambda mod: characters.pbw_character_oracle(mod, hmax, window) == char(mod),
               "enumeration equals generating function exactly"),
        _check("additivity on the catalog", ((seq,) for seq in catalog),
               lambda seq: char(seq.middle) == char(seq.sub) + char(seq.quotient)),
        _check("flow transform", ((mod, ell) for mod in probe_mods for ell in range(-3, 4)),
               flow_agrees, "|ell| <= 3 on certified regions, >= 10 points each"),
        _check("dual transform", ((mod,) for mod in probe_mods), dual_agrees,
               ">= 10 points each"),
        _check("zero-coset standard module", ((ell,) for ell in range(-6, 7)),
               lambda ell: zero_coset_standard(ell, hmax, window),
               "ch W_0^l = ch V[l] + ch V[l-1] exactly, |l| <= 6"),
    ]


def numerics_suite(cfg: Config | None = None) -> list[Check]:
    grid = rigidity.default_grid(50)
    sizes = {j: abs(rigidity.rigidity_constant(j)) for j in grid}
    return [
        _check("hypergeometric and beta identities", ((j,) for j in grid),
               rigidity.identities_hold, f"grid points at {rigidity.IDENTITY_TOL:g}"),
        _check("rigidity constant non-vanishing", ((j,) for j in grid),
               lambda j: sizes[j] > rigidity.NONVANISHING_FLOOR,
               f"grid points, min |I| = {min(sizes.values()):.3e}"),
    ]


SUITES = {
    "fusion": fusion_suite,
    "homalg": homalg_suite,
    "characters": characters_suite,
    "numerics": numerics_suite,
}


def run_suites(names, cfg: Config | None = None) -> dict[str, list[Check]]:
    out = {}
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
        out[name] = SUITES[name](cfg)
    return out
