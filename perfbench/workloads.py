"""Inputs, operations and correctness checks of the benchmark workloads.

A workload is built from a seed and a size.  Building it is the set-up the
benchmark times.  ``ops()`` yields ``(fn, args)`` pairs; the runner times
each call on its own and keeps the answer.  Afterwards, outside the timed
operations, ``check(fn, args, answer)`` decides whether the answer is right
and ``canonical(fn, args, answer)`` gives the text that goes into the
workload's digest.  Every call into ghostkit goes through a module attribute
(``fusion.fuse``, not a name imported here), so the layer tracer and the
fault injector, which replace those attributes, see every call.
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement

from ghostkit import characters, functors, fusion, grammar, homalg, modules

# Denominator 7 keeps c, 1 - c, 1/2 and their sums of up to three distinct
# from each other, so every seed gives the sweep the same structure.
COSETS = [Fraction(p, 7) for p in range(1, 7)]

SIZES = {
    "fusion-sweep": {
        "full": {"flows": {"V": 4, "W": 3, "B": 3, "T": 3, "P": 4}, "lengths": range(2, 7)},
        "tiny": {"flows": {"V": 2, "W": 1, "B": 1, "T": 1, "P": 2}, "lengths": range(2, 4)},
    },
    "char-grid": {
        "full": {"catalog": 8, "ells": range(-3, 4)},
        "tiny": {"catalog": 1, "ells": range(-1, 2)},
    },
    "query-stream": {"full": {"queries": 4000}, "tiny": {"queries": 240}},
    "cli-oneshot": {"full": {"per_kind": 3}, "tiny": {"per_kind": 1}},
}


def series_text(ch) -> str:
    bounds = ",".join(f"{j}:{b}" for j, b in sorted(ch.col_hmax.items()))
    return bounds + "|" + ",".join(f"{j},{h},{d}" for j, h, d in ch.entries())


class FusionSweep:
    """Criterion-2 shape: the pair table of a pool, then associativity of
    every unordered triple with a memo of ``(sum, module)`` products.

    The pool has a fixed number of modules per family and string length, so
    the amount of work does not depend on the seed; the seed shifts the flow
    window and picks the cosets ``c, 1 - c, 1/2`` with ``c`` in sevenths.
    """

    def __init__(self, seed: int, size: str):
        cfg = SIZES["fusion-sweep"][size]
        rng = random.Random(f"fusion-sweep:{seed}")
        # Products add flows, so the pool keeps clear of flow 0: with
        # |shift| >= 20 pair results never share flows with the pool, and the
        # caches see the same number of distinct pairs for every seed.
        shift = rng.choice((-1, 1)) * rng.randint(20, 60)

        def flows(fam):
            return range(shift, shift + cfg["flows"][fam])

        c = rng.choice(COSETS)
        cosets = sorted({c, 1 - c, Fraction(1, 2)})
        pool = [modules.vac(l) for l in flows("V")]
        pool += [modules.typ(x, l) for x in cosets for l in flows("W")]
        pool += [modules.bstr(n, m) for n in cfg["lengths"] for m in flows("B")]
        pool += [modules.tstr(n, m) for n in cfg["lengths"] for m in flows("T")]
        pool += [modules.proj(m) for m in flows("P")]
        self.pool = pool
        self.pairs: dict = {}
        self.sums: dict = {}
        self._names: dict = {}

    def _pair(self, a, b):
        res = fusion.fuse_detailed(a, b)
        self.pairs[(a, b)] = self.pairs[(b, a)] = res
        return res

    def _fuse_sum(self, s, c):
        key = (s, c)
        hit = self.sums.get(key)
        if hit is None:
            hit = self.sums[key] = fusion.fuse(s, c)
        return hit

    def _triple(self, a, b, c):
        return (self._fuse_sum(self.pairs[(a, b)].total, c),
                self._fuse_sum(self.pairs[(b, c)].total, a))

    def ops(self):
        for a, b in combinations_with_replacement(self.pool, 2):
            yield self._pair, (a, b)
        for a, b, c in combinations_with_replacement(self.pool, 3):
            yield self._triple, (a, b, c)

    def check(self, fn, args, out) -> bool:
        if fn == self._pair:
            a, b = args
            return out.total == fusion.fuse(b, a)
        left, right = out
        return left == right

    def _name(self, s) -> str:
        # Triple answers are shared objects from the memo: print each once,
        # and keep a short digest of it rather than the text.
        text = self._names.get(id(s))
        if text is None:
            text = self._names[id(s)] = hashlib.blake2b(
                str(s).encode(), digest_size=16).hexdigest()
        return text

    def canonical(self, fn, args, out) -> str:
        if fn == self._pair:
            return (f"{args[0]} x {args[1]} = {out.total}"
                    f" guard={int(out.guard_extended)} {' '.join(out.compact)}")
        return self._name(out[0])


class CharGrid:
    """Criterion-7 shape: oracle agreement for the untwisted simples,
    additivity over the sequence catalog, and the flow and dual transforms
    against direct characters.  One op computes the characters of one check.

    The flows of the grid are fixed, because the cost of a character grows
    quickly with the flow; the seed picks the relaxed coset.
    """

    hmax, window = 8, (-6, 6)
    wide = (-9, 9)

    def __init__(self, seed: int, size: str):
        cfg = SIZES["char-grid"][size]
        rng = random.Random(f"char-grid:{seed}")
        c = rng.choice(COSETS)
        self.ells = cfg["ells"]
        # deep enough that the flowed source still covers hmax on the window
        self.deep = self.hmax + 12 * max(abs(ell) for ell in self.ells) + 6
        self.simples = [modules.vac(0), modules.typ(c, 0)]
        self.catalog = modules.sequence_catalog(cfg["catalog"])
        self.probes = [modules.vac(0), modules.typ(c, 0), modules.bstr(3, 0),
                       modules.tstr(4, -2), modules.proj(1)]
        self.sources: dict = {}

    def _oracle(self, mod):
        return (characters.pbw_character_oracle(mod, self.hmax, self.window),
                characters.character(mod, self.hmax, self.window))

    def _additivity(self, seq):
        return (characters.character(seq.middle, self.hmax, self.window),
                characters.character(seq.sub, self.hmax, self.window)
                + characters.character(seq.quotient, self.hmax, self.window))

    def _source(self, mod):
        src = self.sources[mod] = characters.character(mod, self.deep, self.wide)
        return src

    def _flow(self, mod, ell):
        return (characters.char_flow(self.sources[mod], ell),
                characters.character(functors.flow(mod, ell), self.hmax, self.window))

    def _dual(self, mod):
        return (characters.char_dual(characters.character(mod, self.hmax, self.wide)),
                characters.character(functors.dual_restricted(mod), self.hmax, self.window))

    def ops(self):
        for mod in self.simples:
            yield self._oracle, (mod,)
        for seq in self.catalog:
            yield self._additivity, (seq,)
        for mod in self.probes:
            yield self._source, (mod,)
            for ell in self.ells:
                yield self._flow, (mod, ell)
            yield self._dual, (mod,)

    def check(self, fn, args, out) -> bool:
        if fn == self._source:
            return out.agrees_with(
                characters.character(args[0], self.hmax, self.window), min_points=10)
        first, second = out
        if fn in (self._oracle, self._additivity):
            return first == second
        return first.agrees_with(second, min_points=10)

    def canonical(self, fn, args, out) -> str:
        if fn == self._source:
            return series_text(out)
        return series_text(out[0]) + "/" + series_text(out[1])


def _deck(rng, values, n: int) -> list:
    """``n`` items taking each of ``values`` equally often, shuffled."""
    values = list(values)
    items = [values[i % len(values)] for i in range(n)]
    rng.shuffle(items)
    return items


def _flow_deck(rng, n: int, lo: int = -1000, hi: int = 1000) -> list[int]:
    """``n`` flows, one from each of ``n`` equal slices of ``[lo, hi]``, shuffled."""
    width = (hi - lo + 1) / n
    flows = [lo + int((i + rng.random()) * width) for i in range(n)]
    rng.shuffle(flows)
    return flows


def _exprs(rng, count: int, anchors=None) -> tuple[list[str], list[int]]:
    """``count`` random expressions of 1-3 terms over all five families, and
    the flow of each expression's first term.

    Term counts, families, flows, string lengths and multiplicities come from
    shuffled decks, so a stream's total work barely depends on the seed.
    Flows come from a deck over ``[-1000, 1000]``, or, given ``anchors``,
    lie within 2 of the expression's anchor flow.
    """
    sizes = _deck(rng, (1, 2, 3), count)
    n = sum(sizes)
    families = _deck(rng, "VWBTP", n)
    if anchors is None:
        flows = _flow_deck(rng, n)
    else:
        deltas = _deck(rng, range(-2, 3), n)
        per_term = [anchor for anchor, k in zip(anchors, sizes) for _ in range(k)]
        flows = [anchor + delta for anchor, delta in zip(per_term, deltas)]
    lengths = _deck(rng, range(1, 9), n)
    denominators = _deck(rng, range(2, 8), n)
    mults = _deck(rng, (1, 1, 1, 1, 1, 1, 2, 3), n)
    atoms = []
    for fam, ell, length, q, mult in zip(families, flows, lengths, denominators, mults):
        if fam == "W":
            atom = f"W[{rng.randint(1, q - 1)}/{q},{ell}]"
        elif fam in "BT":
            atom = f"{fam}[{length},{ell}]"
        else:
            atom = f"{fam}[{ell}]"
        atoms.append(atom if mult == 1 else f"{mult}*{atom}")
    out, firsts, i = [], [], 0
    for k in sizes:
        out.append(" + ".join(atoms[i:i + k]))
        firsts.append(flows[i])
        i += k
    return out, firsts


QUERY_MIX = {"fuse": 5, "hom": 2, "ext": 2, "char": 1, "dual": 1, "cover": 1}
# One char query in CHAR_NEAR has its terms near flow 0, where the character
# on the default window is not empty; the rest are empty there.
CHAR_NEAR = 16


def _factors(x) -> Counter:
    return Counter(modules.composition_factors(x))


def _hom_into_injective(a, inj) -> int:
    """``hom(a, inj)`` for an injective sum, from composition factors alone:
    each summand is the injective hull of its socle ``S``, and
    ``hom(a, I(S)) = [a : S]``."""
    factors = _factors(a)
    return sum(k * j * factors[s] for m, k in inj for s, j in modules.socle(m))


def _hom_by_hull(xa, xb) -> int:
    """``hom(xa, xb)`` from the injective copresentation
    ``0 -> b -> I0 -> C -> 0`` of each summand ``b`` of ``xb``:
    ``hom(a, b) = hom(a, I0) - hom(a, C) + ext(a, b)``, as ``Ext^1(a, I0) = 0``.
    ``ext_dim`` works from the projective presentation of ``a`` instead."""
    total = 0
    for a, ka in modules.as_sum(xa):
        for b, kb in modules.as_sum(xb):
            part = _hom_into_injective(a, homalg.injective_hull(b))
            if not modules.is_projective(b):
                part += homalg.ext_dim(a, b) - homalg.hom_dim(
                    a, homalg.presentation_cokernel(b))
            total += ka * kb * part
    return total


def _ext_by_hull(xa, xb) -> int:
    """``ext(xa, xb)`` from the same copresentation of each summand of ``xb``:
    ``ext(a, b) = hom(a, C) - hom(a, I0) + hom(a, b)``."""
    total = 0
    for a, ka in modules.as_sum(xa):
        for b, kb in modules.as_sum(xb):
            if modules.is_projective(a) or modules.is_projective(b):
                continue
            total += ka * kb * (homalg.hom_dim(a, homalg.presentation_cokernel(b))
                                - _hom_into_injective(a, homalg.injective_hull(b))
                                + homalg.hom_dim(a, b))
    return total


def _nonempty(out) -> bool:
    return bool(out.coeffs) if isinstance(out, characters.CharSeries) else bool(out)


class QueryStream:
    """Independent text queries, each parsed and answered through the
    public API, like an interactive library user.

    Both operands of a fuse query and the operand of a dual or cover query
    have independent flows, so almost every fusion pair is new.  The second
    operand of a hom or ext query lies near the first one's leading term, as
    when a user asks about related modules; otherwise nearly every answer
    would be 0.
    """

    def __init__(self, seed: int, size: str):
        rng = random.Random(f"query-stream:{seed}")
        mix = [kind for kind, weight in QUERY_MIX.items() for _ in range(weight)]
        kinds = _deck(rng, mix, SIZES["query-stream"][size]["queries"])
        operands = {}
        for kind in QUERY_MIX:
            n = kinds.count(kind)
            if kind == "fuse":
                exprs, _ = _exprs(rng, 2 * n)
                pairs = zip(exprs[0::2], exprs[1::2])
            elif kind in ("hom", "ext"):
                first, anchors = _exprs(rng, n)
                second, _ = _exprs(rng, n, anchors)
                pairs = zip(first, second)
            elif kind == "char":
                near = n // CHAR_NEAR
                anchors = _flow_deck(rng, near, -9, 9) + _flow_deck(rng, n - near)
                rng.shuffle(anchors)
                pairs = ((x,) for x in _exprs(rng, n, anchors)[0])
            else:
                pairs = ((x,) for x in _exprs(rng, n)[0])
            operands[kind] = iter(pairs)
        self.queries = [f"{kind} " + " | ".join(next(operands[kind])) for kind in kinds]
        # kind -> answers checked, answers not zero or empty, failed checks
        self.coverage: dict[str, Counter] = {}

    @staticmethod
    def answer(text: str):
        kind, _, rest = text.partition(" ")
        args = [grammar.parse_module_expr(part) for part in rest.split("|")]
        if kind == "fuse":
            return fusion.fuse(*args)
        if kind == "hom":
            return homalg.hom_dim(*args)
        if kind == "ext":
            return homalg.ext_dim(*args)
        if kind == "char":
            return characters.character(args[0])
        if kind == "dual":
            return functors.dual_star(args[0])
        if kind == "cover":
            return homalg.projective_cover(args[0])
        raise ValueError(f"unknown query kind {kind!r}")

    def ops(self):
        for text in self.queries:
            yield self.answer, (text,)

    def check(self, fn, args, out) -> bool:
        kind, _, rest = args[0].partition(" ")
        counts = self.coverage.setdefault(kind, Counter())
        counts["answers"] += 1
        counts["non-empty"] += _nonempty(out)
        counts["failed"] += 1  # taken back below if the check passes
        ok = self._check(kind, [grammar.parse_module_expr(part) for part in rest.split("|")],
                         out)
        counts["failed"] -= ok
        return ok

    @staticmethod
    def _check(kind, xs, out) -> bool:
        if kind == "fuse":
            a, b = xs
            return fusion.groth_class(out) == fusion.groth_product(
                fusion.groth_class(a), fusion.groth_class(b))
        if kind == "hom":
            return out >= 0 and out == _hom_by_hull(*xs)
        if kind == "ext":
            return out >= 0 and out == _ext_by_hull(*xs)
        x = xs[0]
        if kind == "char":
            direct = characters.character(functors.dual_restricted(x))
            dual = characters.char_dual(out)
            # compare at least one point wherever the direct route has one
            points = sum(1 for j, _, _ in direct.entries() if j in dual.col_hmax)
            return dual.agrees_with(direct, min_points=min(points, 1))
        if kind == "dual":
            return functors.dual_star(out) == x and _factors(out).total() == _factors(x).total()
        # cover: projective, and factors(cover) = factors(x) + factors(kernel)
        want = _factors(x)
        for mod, mult in x:
            if not modules.is_projective(mod):
                for simple, k in _factors(homalg.presentation_kernel(mod)).items():
                    want[simple] += mult * k
        return (all(modules.is_projective(m) for m in out.modules())
                and _factors(out) == want)

    def canonical(self, fn, args, out) -> str:
        if isinstance(out, characters.CharSeries):
            return f"{args[0]} = {series_text(out)}"
        return f"{args[0]} = {out}"


class CliOneshot:
    """One ``python -m ghostkit.cli`` process per call, cycling through the
    README examples with seeded labels.  ``char P[0]`` stays as in the README
    because a character's cost depends on its flows."""

    def __init__(self, seed: int, size: str):
        rng = random.Random(f"cli-oneshot:{seed}")

        def atom():
            fam = rng.choice("VWBTP")
            ell = rng.randint(-3, 3)
            if fam == "W":
                q = rng.randint(2, 7)
                return f"W[{rng.randint(1, q - 1)}/{q},{ell}]"
            if fam in "BT":
                return f"{fam}[{rng.randint(2, 5)},{ell}]"
            return f"{fam}[{ell}]"

        argvs = []
        for _ in range(SIZES["cli-oneshot"][size]["per_kind"]):
            argvs.append(["fuse", atom(), atom(), "--format", "json"])
            argvs.append(["hom", atom(), atom()])
            argvs.append(["ext", atom(), atom()])
            argvs.append(["char", "P[0]", "--hmax", "8", "--jwindow=-6:6", "--format", "csv"])
        rng.shuffle(argvs)
        self.argvs = argvs


WORKLOADS = {
    "fusion-sweep": FusionSweep,
    "char-grid": CharGrid,
    "query-stream": QueryStream,
    "cli-oneshot": CliOneshot,
}
