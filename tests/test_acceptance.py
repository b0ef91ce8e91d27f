"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Criterion 1 checks the fusion table against its own closed forms.  Criteria
2-9 assert on the checks of the ``verify`` suites, run once each on the
pinned configuration ``GATE``.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines live.
"""

import functools
import time
from fractions import Fraction

from ghostkit.config import Config
from ghostkit.fusion import expand_projsum, fuse
from ghostkit.modules import FormalSum, bstr, proj, tstr, typ
from ghostkit.verify import SUITES, run_suites

THIRD, HALF, TWO_THIRDS = Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)
# the gate's inputs, pinned here even though they equal the Config defaults
GATE = Config(hmax=Fraction(8), jwindow=(Fraction(-6), Fraction(6)), catalog_bound=8,
              pool_max_length=7, pool_max_flow=3, pool_cosets=(THIRD, HALF, TWO_THIRDS))


@functools.cache
def _suite(name):
    """Run one verify suite on ``GATE`` once per session.

    Returns its checks by name and the seconds the run took, so a budget
    times the suite run whichever test asked for it first.
    """
    t0 = time.perf_counter()
    checks = run_suites([name], GATE)[name]
    return {c.name: c for c in checks}, time.perf_counter() - t0


# criterion -> (verify suite, the checks of that suite the criterion asserts)
CRITERION_CHECKS = {
    2: ("fusion", ("commutativity", "associativity")),
    3: ("fusion", ("flow compatibility", "star-dual compatibility",
                   "conjugation-flow compatibility", "syzygy commutes with fusion",
                   "cosyzygy commutes with fusion")),
    4: ("fusion", ("Grothendieck homomorphism",
                   "Grothendieck homomorphism, guard-extended", "ring character",
                   "projective sum totals")),
    5: ("homalg", ("hom table", "ext table", "simple ext dimensions",
                   "ext against a relaxed simple vanishes", "string extension lemma",
                   "covers and hulls", "defining extensions are unique")),
    # presentation balance pins the odd-length subscripts (m+1 kernels on
    # bottom-anchored strings, and the dual flows on the rest)
    6: ("homalg", ("catalog factor balance", "Euler characteristic vs projective probes",
                   "presentation balance", "Ext2 by dimension shifting",
                   "duality and flow symmetry of hom/ext")),
    7: ("characters", ("oracle agreement", "additivity on the catalog",
                       "flow transform", "dual transform")),
    8: ("numerics", ("hypergeometric and beta identities",
                     "rigidity constant non-vanishing")),
    9: ("fusion", ("rigidity trace on simples", "Hom adjunction", "Ext adjunction",
                   "tensor dual is monoidal")),
}


def _passed(num):
    """Assert that every check criterion ``num`` names passed; return them."""
    suite, names = CRITERION_CHECKS[num]
    checks = _suite(suite)[0]
    for name in names:
        assert checks[name].passed, f"{suite}: {checks[name].line()}"
    return [checks[name] for name in names]


def criterion(num, name, budget=None):
    """Print one PASS/FAIL line.  A budget times the verify suite the
    criterion reads, or the test body when it reads none."""
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            ok = False
            try:
                fn(*args, **kwargs)
                if budget is not None:
                    if num in CRITERION_CHECKS:
                        spent = _suite(CRITERION_CHECKS[num][0])[1]
                    else:
                        spent = time.perf_counter() - t0
                    assert spent < budget, \
                        f"runtime {spent:.2f}s exceeds the {budget}s budget"
                ok = True
            finally:
                elapsed = time.perf_counter() - t0
                status = "PASS" if ok else "FAIL"
                print(f"\nACCEPTANCE {num} {name}: {status} ({elapsed:.2f}s)")
        return wrapper
    return deco


def _s(m, n, k):
    if m == 0 or n == 0:
        return FormalSum()
    return FormalSum((proj(k + 2 * r - 1), min(r, m, n, m + n - r))
                     for r in range(1, m + n))


@criterion(1, "fusion table reproduction", budget=1.0)
def test_criterion_1_fusion_table():
    lam, mu = THIRD, Fraction(1, 5)
    assert fuse(typ(lam), typ(mu)) == FormalSum(
        ((typ(lam + mu, -1), 1), (typ(lam + mu, 0), 1)))
    assert fuse(typ(lam), typ(-lam)) == FormalSum.of(proj(-1))
    B, T = bstr, tstr
    for m in range(1, 5):
        for n in range(1, m + 1):
            rows = [
                (B(2 * m + 1, 0), B(2 * n + 1, 0),
                 FormalSum.of(B(2 * m + 2 * n + 1, 0)) + _s(m, n, 1)),
                (T(2 * m + 1, 0), T(2 * n + 1, 0),
                 FormalSum.of(T(2 * m + 2 * n + 1, 0)) + _s(m, n, 1)),
                (B(2 * m + 1, 0), B(2 * n, 0),
                 FormalSum.of(B(2 * n, 0)) + _s(m, n, 1)),
                (T(2 * m + 1, 0), T(2 * n, 0),
                 FormalSum.of(T(2 * n, 0)) + _s(m, n, 1)),
                (B(2 * m, 0), B(2 * n, 0),
                 FormalSum.of(B(2 * n, 2 * m - 1)) + FormalSum.of(B(2 * n, 0))
                 + _s(m - 1, n, 1)),
                (T(2 * m, 0), T(2 * n, 0),
                 FormalSum.of(T(2 * n, 2 * m - 1)) + FormalSum.of(T(2 * n, 0))
                 + _s(m - 1, n, 1)),
                (T(2 * m + 1, 0), B(2 * n + 1, 0),
                 FormalSum.of(T(2 * m - 2 * n + 1, 2 * n)) + _s(m + 1, n, 0)),
                (B(2 * m + 1, 0), T(2 * n + 1, 0),
                 FormalSum.of(B(2 * m - 2 * n + 1, 2 * n)) + _s(m + 1, n, 0)),
                (T(2 * m, 0), B(2 * n + 1, 0),
                 FormalSum.of(T(2 * m, 2 * n)) + _s(m, n, 0)),
                (B(2 * m, 0), T(2 * n + 1, 0),
                 FormalSum.of(B(2 * m, 2 * n)) + _s(m, n, 0)),
                (T(2 * m, 0), B(2 * n, 0), _s(m, n, 0)),
                (B(2 * m, 0), T(2 * n, 0), _s(m, n, 0)),
            ]
            for a, b, expected in rows:
                assert fuse(a, b) == expected, f"{a} x {b}"
    for mm in range(1, 5):
        for nn in range(1, 5):
            assert expand_projsum(mm, nn, 0) == _s(mm, nn, 0)


@criterion(2, "associativity and commutativity sweep", budget=120.0)
def test_criterion_2_associativity_sweep():
    _, associativity = _passed(2)
    assert associativity.cases == 287980


@criterion(3, "functor compatibilities")
def test_criterion_3_functor_compat():
    _passed(3)


@criterion(4, "Grothendieck ring homomorphism")
def test_criterion_4_grothendieck():
    _, guarded, *_ = _passed(4)
    assert guarded.cases > 0  # the sweep genuinely covers guard-extended cases


@criterion(5, "hom/ext table reproduction")
def test_criterion_5_hom_ext_tables():
    _passed(5)


@criterion(6, "homological consistency")
def test_criterion_6_homological_consistency():
    _passed(6)


@criterion(7, "character suite", budget=30.0)
def test_criterion_7_characters():
    _passed(7)


@criterion(8, "rigidity numerics", budget=1.0)
def test_criterion_8_rigidity_numerics():
    _passed(8)


@criterion(9, "rigidity trace at object level")
def test_criterion_9_rigidity_trace():
    _passed(9)


def test_every_verify_check_is_asserted():
    """Criteria 2-9 together assert every check the verify suites run; the
    names do not depend on the config, so ``GATE`` stands for ``Config()``."""
    asserted = {(suite, name) for suite, names in CRITERION_CHECKS.values()
                for name in names}
    assert asserted == {(suite, name) for suite in SUITES for name in _suite(suite)[0]}
