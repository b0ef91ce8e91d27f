import json
from fractions import Fraction

import pytest

from ghostkit import fusion
from ghostkit.cli import main
from ghostkit.config import Config
from ghostkit.modules import BStr, FormalSum, Proj, TStr, Typ, Vac
from ghostkit.verify import (
    MAX_POOL_COSETS, SUITES, _ring_character, _ring_product, full_length_adjunction,
    full_length_pairs, fusion_suite, numerics_suite, pool_modules, run_suites,
)


def test_pool_composition():
    pool = pool_modules(max_length=7, max_flow=3)
    assert len(pool) == 119
    kinds = {}
    for mod in pool:
        kinds[type(mod)] = kinds.get(type(mod), 0) + 1
    assert kinds == {Vac: 7, Typ: 21, BStr: 42, TStr: 42, Proj: 7}


def test_pool_merges_equal_cosets_in_first_order():
    third, two_thirds = Fraction(1, 3), Fraction(2, 3)
    pool = pool_modules(0, 0, [third, Fraction(4, 3)])
    assert [str(mod) for mod in pool] == ["V[0]", "W[1/3,0]", "P[0]"]
    pool = pool_modules(0, 0, [two_thirds, third, Fraction(-1, 3), Fraction(5, 3)])
    assert [str(mod) for mod in pool] == ["V[0]", "W[2/3,0]", "W[1/3,0]", "P[0]"]
    # the cap counts the cosets as listed, before any are merged
    with pytest.raises(ValueError, match="at most"):
        pool_modules(0, 0, [third] * (MAX_POOL_COSETS + 1))


def test_run_suites_rejects_unknown():
    with pytest.raises(ValueError):
        run_suites(["nope"])


def test_all_suites_pass_on_small_pool():
    cfg = Config(pool_max_length=3, pool_max_flow=1, catalog_bound=3)
    results = run_suites(list(SUITES), cfg)
    for name, checks in results.items():
        for check in checks:
            assert check.passed, (name, check.name, check.detail)


def test_fusion_suite_reports_counts():
    cfg = Config(pool_max_length=2, pool_max_flow=1)
    checks = fusion_suite(cfg)
    by_name = {c.name: c for c in checks}
    assert "unordered triples" in by_name["associativity"].detail
    assert "guard-extended" in by_name["commutativity"].detail


def test_full_length_adjunction_fails_the_long_string_letter_swap(monkeypatch):
    # a letter swap in the odd x odd same-letter body past length 13 passes
    # every pool check; the full-length check fails every pair it changes
    string_fuse = fusion._string_fuse

    def swapped(a, b):
        total, guard, s = string_fuse(a, b)
        if a.n % 2 and b.n % 2 and type(a) is type(b) and max(a.n, b.n) > 13:
            total = FormalSum([(m._swap(m.n, m.m) if isinstance(m, (BStr, TStr)) else m, k)
                               for m, k in total])
        return total, guard, s

    for name in ("_PAIR_CACHE", "_LABELS"):
        monkeypatch.setattr(fusion, name, {})
    monkeypatch.setattr(fusion, "_PAIR_HELD", 0)
    monkeypatch.setattr(fusion, "_string_fuse", swapped)
    pairs = full_length_pairs()
    changed = [(a, b) for a, b in pairs
               if a.n % 2 and b.n % 2 and type(a) is type(b) and max(a.n, b.n) > 13]
    assert len(changed) == 6
    assert [pair for pair in pairs if not full_length_adjunction([pair]).passed] == changed


def test_commutativity_fails_a_string_fusion_that_depends_on_argument_order(monkeypatch):
    # the engine calls _string_fuse with the B first, so a term added only
    # for a T first passes every other check and fails commutativity
    string_fuse = fusion._string_fuse

    def ordered(a, b):
        total, guard, s = string_fuse(a, b)
        if isinstance(a, TStr) and isinstance(b, BStr):
            total = total + FormalSum.of(Vac(0))
        return total, guard, s

    for name in ("_PAIR_CACHE", "_LABELS"):
        monkeypatch.setattr(fusion, name, {})
    monkeypatch.setattr(fusion, "_PAIR_HELD", 0)
    monkeypatch.setattr(fusion, "_string_fuse", ordered)
    checks = fusion_suite(Config(pool_max_length=3, pool_max_flow=1))
    assert [c.name for c in checks if not c.passed] == ["commutativity"]


def test_fusion_suite_leaves_the_fusion_caches_empty():
    fusion_suite(Config(pool_max_length=2, pool_max_flow=1))
    assert fusion._PAIR_CACHE == {} and fusion._LABELS == {}
    assert fusion._PAIR_HELD == 0


def test_cli_verify_fusion_small_pool(capsys):
    code = main(["--format", "json", "verify", "--suite", "fusion",
                 "--max-length", "3", "--max-flow", "1"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    names = {c["name"] for c in payload["suites"]["fusion"]}
    assert "associativity" in names


def test_cli_verify_failure_exit_code(capsys, monkeypatch):
    from ghostkit import verify as verify_mod
    from ghostkit.verify import Check

    monkeypatch.setitem(verify_mod.SUITES, "numerics",
                        lambda cfg: [Check("forced failure", False, "injected")])
    code = main(["verify", "--suite", "numerics"])
    out = capsys.readouterr().out
    assert code == 2
    assert "suite numerics: FAIL" in out


def test_failed_check_names_its_count_and_first_case(monkeypatch):
    from ghostkit import verify as verify_mod
    from ghostkit.modules import proj

    hom_dim = verify_mod.homalg.hom_dim
    monkeypatch.setattr(verify_mod.homalg, "hom_dim",
                        lambda a, b: hom_dim(a, b) + (a == b == proj(0)))
    cfg = Config(pool_max_length=3, pool_max_flow=1, catalog_bound=3)
    lines = [check.line() for check in verify_mod.homalg_suite(cfg)]
    assert "FAIL hom table (144 cases; flow offsets -4..4; 1 failed, first at P[0], P[0])" \
        in lines


@pytest.mark.parametrize("check, patched, broken", [
    ("hypergeometric and beta identities", "identity_report",
     lambda real, j: {**real(j), "gauss": 1.0}),
    ("rigidity constant non-vanishing", "rigidity_constant", lambda real, j: 0.0),
])
def test_numerics_failure_names_its_grid_point(monkeypatch, check, patched, broken):
    from ghostkit import rigidity

    bad = rigidity.default_grid(50)[17]
    real = getattr(rigidity, patched)
    monkeypatch.setattr(rigidity, patched, lambda j: broken(real, j) if j == bad else real(j))
    result = {c.name: c for c in numerics_suite()}[check]
    assert not result.passed
    assert result.cases == 50
    assert result.detail.endswith(f"; 1 failed, first at {bad}")


def test_ring_character_values():
    third, two_thirds = Typ(Fraction(1, 3), 0), Typ(Fraction(2, 3), 2)
    # V[l] -> (-x)^l; W[a,l] -> (-1)^(l+1) [a] x^(l-1) (1-x)
    assert _ring_character(Vac(-3)) == {((0, 1), -3): -1}
    assert _ring_character(two_thirds) == {((2, 3), 1): -1, ((2, 3), 2): 1}
    # P[0] has factors V[-1] + 2 V[0] + V[1]: -1/x + 2 - x
    assert _ring_character(Proj(0)) == {((0, 1), -1): -1, ((0, 1), 0): 2, ((0, 1), 1): -1}
    assert _ring_character(FormalSum([(Vac(0), 2), (Vac(1), 2)])) == {
        ((0, 1), 0): 2, ((0, 1), 1): -2}
    assert _ring_character(FormalSum()) == {}
    # W[1/3,0] x W[2/3,2] is P[1]; the character tells it from the other flows of P
    product = _ring_product(_ring_character(third), _ring_character(two_thirds))
    assert product == _ring_character(Proj(1))
    assert product != _ring_character(Proj(2)) and product != _ring_character(Proj(0))
