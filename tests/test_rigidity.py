import math

import pytest

from ghostkit.rigidity import (
    bailey_summation, beta_fn, contiguous_half_value, default_grid, gamma_fn,
    hyp2f1, identities_hold, identity_report, rigidity_constant,
)
from ghostkit.verify import numerics_suite

GRID = default_grid(50)


def test_gamma_known_values():
    assert abs(gamma_fn(1.0) - 1.0) < 1e-14
    assert abs(gamma_fn(0.5) ** 2 - math.pi) < 1e-10
    assert abs(gamma_fn(5.0) - 24.0) < 1e-10
    # against the library implementation across the working range
    for k in range(1, 100):
        x = k / 10.0
        assert abs(gamma_fn(x) - math.gamma(x)) <= 1e-12 * abs(math.gamma(x))


def test_gamma_pole_rejection():
    for x in (0.0, -1.0, -2.0):
        with pytest.raises(ValueError):
            gamma_fn(x)


def test_beta_reflection():
    for mu in [0.1 * k for k in range(1, 10)]:
        assert abs(beta_fn(1 + mu, 1 - mu) - math.pi * mu / math.sin(math.pi * mu)) \
            < 1e-10
        assert abs(beta_fn(mu, 1 - mu) * math.sin(math.pi * mu) / math.pi - 1) < 1e-10


def test_hyp2f1_basics():
    assert hyp2f1(0.3, 0.7, 1.2, 0.0) == 1.0
    # classical logarithm identity as an independent sanity oracle
    x = 0.5
    assert abs(hyp2f1(1.0, 1.0, 2.0, x) + math.log(1 - x) / x) < 1e-10
    # binomial series
    assert abs(hyp2f1(-3.0, 1.0, 1.0, 0.25) - (1 - 0.25) ** 3) < 1e-13


def test_hyp2f1_domain_errors():
    with pytest.raises(ValueError):
        hyp2f1(0.1, 0.2, 1.0, 1.0)
    with pytest.raises(ValueError):
        hyp2f1(0.1, 0.2, -2.0, 0.5)


def test_gauss_half_identity_on_grid():
    for j in GRID:
        lhs = hyp2f1(1 - j, j, 1.0, 0.5)
        assert abs(lhs - bailey_summation(1 - j)) < 1e-10, j


def test_contiguity_identity_on_grid():
    # 2F1(-j, j; 1; x) is the average of its two parameter neighbours
    for j in GRID:
        lhs = hyp2f1(-j, j, 1.0, 0.5)
        rhs = 0.5 * (hyp2f1(1 - j, j, 1.0, 0.5) + hyp2f1(-j, 1 + j, 1.0, 0.5))
        assert abs(lhs - rhs) < 1e-12, j
        assert abs(lhs - contiguous_half_value(j)) < 1e-10, j
        assert abs(hyp2f1(-j, 1 + j, 1.0, 0.5) - bailey_summation(-j)) < 1e-10, j


def test_both_final_factors_gamma_evaluable_and_positive():
    for j in GRID:
        assert bailey_summation(1 - j) > 0
        assert contiguous_half_value(j) > 0


def test_rigidity_constant_nonvanishing():
    for j in (0.3, 0.5, 0.77):
        assert abs(rigidity_constant(j, 1.0)) > 1e-8
    assert abs(rigidity_constant(0.3, 1.0)) > 0


def test_rigidity_constant_ell_only_scales():
    base = rigidity_constant(0.3, 1.0, ell=0)
    twisted = rigidity_constant(0.3, 1.0, ell=2)
    assert abs(base) > 1e-8 and abs(twisted) > 1e-8


def test_rigidity_constant_tends_to_four_pi_squared_as_j_vanishes():
    # -4 e^{3 pi i j} pi^2 (j - 1) -> 4 pi^2 at w1 = 1, ell = 0, where every
    # other factor tends to 1; the phase and 1/sin^2 factors of the closed
    # form vanish and blow up there, so they are never formed apart
    for j in (1e-12, 1e-160, 1e-300):
        assert math.isclose(abs(rigidity_constant(j)), 4 * math.pi ** 2, rel_tol=1e-9), j


def test_rigidity_constant_domain():
    with pytest.raises(ValueError):
        rigidity_constant(0.0, 1.0)
    with pytest.raises(ValueError):
        rigidity_constant(1.0, 1.0)
    with pytest.raises(ValueError):
        rigidity_constant(0.3, -1.0)


def test_identity_report_and_sweep():
    devs = identity_report(0.41)
    assert max(devs.values()) < 1e-10
    identities, nonvanishing = numerics_suite()
    assert identities.passed and identities.cases == len(GRID)
    assert nonvanishing.passed and nonvanishing.cases == len(GRID)
    assert min(abs(rigidity_constant(j)) for j in GRID) > 1e-8


@pytest.mark.parametrize("j", [0.9999999, 0.99999999, 1 - 1e-12])
def test_identities_hold_near_one(j):
    # the float pi*j keeps few digits of its distance to pi here
    assert identity_report(j)["beta"] < 1e-14
    assert identities_hold(j)
