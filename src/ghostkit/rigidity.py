"""Floating-point checks of the special-function identities behind rigidity.

The rigidity of the relaxed simples reduces to the non-vanishing of a
proportionality constant built from contour integrals; those integrals
collapse to Gauss hypergeometric and Beta factors.  This module evaluates
the closed form at the standard specialization ``w2 = 2*w1`` and verifies
the identities that pin its factors:

* the Gauss series value ``2F1(1-j, j; 1; 1/2)`` against its Gamma closed
  form,
* ``B(1+u, 1-u) = pi*u / sin(pi*u)``,
* the contiguity relation expressing ``2F1(-j, j; 1; x)`` through its two
  parameter-shifted neighbours, each Gamma-evaluable at ``x = 1/2``.

Everything is plain ``math``/``cmath``; exactness is not the point here,
agreement to a relative ``IDENTITY_TOL`` on a parameter grid is.
"""

from __future__ import annotations

import cmath
import math
import sys

# each identity holds when its two sides agree to this relative deviation
IDENTITY_TOL = 1e-10
# the sweep's |I| must stay above this at every grid point
NONVANISHING_FLOOR = 1e-8
# the hypergeometric series stops when a term falls below this share of the sum
_SERIES_RTOL = 1e-14
_SERIES_MAX_TERMS = 100000
# the sweep's grid spans [_GRID_LO, _GRID_HI] inside the coset range (0, 1)
_GRID_LO, _GRID_HI = 0.02, 0.98


def gamma_fn(x: float) -> float:
    """The Gamma function, ``math.gamma`` with its poles named."""
    if x <= 0 and float(x).is_integer():
        raise ValueError(f"gamma pole at {x}")
    return math.gamma(x)


def beta_fn(a: float, b: float) -> float:
    """Euler Beta function ``B(a, b) = Gamma(a)Gamma(b)/Gamma(a+b)``."""
    return gamma_fn(a) * gamma_fn(b) / gamma_fn(a + b)


def hyp2f1(a: float, b: float, c: float, x: float) -> float:
    """Gauss hypergeometric series, summed with term-ratio stopping.

    Valid for ``|x| < 1``; ``c`` must not be a nonpositive integer.
    """
    if abs(x) >= 1:
        raise ValueError(f"series argument must satisfy |x| < 1, got {x}")
    if c <= 0 and float(c).is_integer():
        raise ValueError(f"lower parameter c={c} is a nonpositive integer")
    term = 1.0
    acc = 1.0
    for k in range(_SERIES_MAX_TERMS):
        term *= (a + k) * (b + k) / ((c + k) * (k + 1)) * x
        acc += term
        if abs(term) <= _SERIES_RTOL * max(abs(acc), 1e-300):
            return acc
    raise ArithmeticError("hypergeometric series did not converge")


def gauss_half_closed_form(j: float) -> float:
    """Gamma closed form of ``2F1(1-j, j; 1; 1/2)``."""
    return gamma_fn(0.5) * gamma_fn(1.0) / (gamma_fn(1.0 - j / 2.0)
                                            * gamma_fn(0.5 + j / 2.0))


def bailey_half_closed_form(j: float) -> float:
    """Gamma closed form of ``2F1(-j, 1+j; 1; 1/2)``."""
    return gamma_fn(0.5) * gamma_fn(1.0) / (gamma_fn(0.5 - j / 2.0)
                                            * gamma_fn(1.0 + j / 2.0))


def contiguous_half_value(j: float) -> float:
    """``2F1(-j, j; 1; 1/2)`` via the contiguity relation.

    ``(a-b) F(a,b) = a F(a+1,b) - b F(a,b+1)`` at ``(a, b) = (-j, j)`` gives
    the midpoint of the two Gamma-evaluable neighbours.
    """
    return 0.5 * (gauss_half_closed_form(j) + bailey_half_closed_form(j))


def rigidity_constant(j: float, w1: float = 1.0, *, ell: int = 0) -> complex:
    """The proportionality constant ``I(w1, 2*w1)`` of the rigidity maps.

    ``j`` is the ghost-coset representative in ``(0, 1)``; ``w1`` must be a
    positive real so all non-integer powers stay on the principal branch.
    ``ell`` only enters through a nonzero prefactor and defaults to the
    untwisted representative.  A prefactor or constant that is zero, subnormal
    or not finite raises :class:`ValueError`; a zero or overflowing prefactor
    is refused before any series is summed.
    """
    j = float(j)
    if not 0.0 < j < 1.0:
        raise ValueError(f"coset representative must lie in (0, 1), got {j}")
    w1 = float(w1)
    w2 = 2.0 * w1
    if not (w1 > 0 and math.isfinite(w2)):
        raise ValueError(f"w1 must be a positive real with 2*w1 finite, got {w1}")
    try:
        expo = ell * ell + j * (1 - 2 * ell)
        prefactor = ((w2 - w1) ** expo) * (w2 ** ((j - 1) * (2 * j - ell - 1))) \
            * (w1 ** expo)
    except OverflowError:
        prefactor = math.inf
    _check_range(prefactor, "the prefactor", ell, w1)
    # (-1)^j (e^{2 pi i j} - 1)^2 / sin^2(pi j) = -4 e^{3 pi i j}: in closed
    # form, since the two sides of the quotient vanish together as j -> 0
    phase = -4.0 * cmath.exp(3j * math.pi * j)
    f_left = hyp2f1(-j, j, 1.0, (w2 - w1) / w2)
    f_right = hyp2f1(1.0 - j, j, 1.0, w1 / w2)
    value = phase * prefactor * (w2 ** (2 * j - 1)) * math.pi ** 2 * (j - 1.0) \
        * f_left * f_right
    _check_range(value, "the constant", ell, w1, sys.float_info.min)
    # a subnormal prefactor leaves too few digits even in a normal constant
    _check_range(prefactor, "the prefactor", ell, w1, sys.float_info.min)
    return value


def _check_range(x, what: str, ell: int, w1: float, smallest: float = 0.0):
    # the constant is non-zero, so a float zero or infinity would be wrong;
    # below ``smallest`` (a subnormal float) too few digits are left to print
    if x == 0:
        fault = "underflows to zero"
    elif abs(x) < smallest:
        fault = "underflows to a subnormal float"
    elif not math.isfinite(abs(x)):
        fault = "overflows a float"
    else:
        return
    raise ValueError(f"ell={ell} with w1={w1} is out of range: {what} {fault}")


def default_grid(points: int = 50):
    """Evenly spaced coset representatives used by the verification sweep."""
    step = (_GRID_HI - _GRID_LO) / (points - 1)
    return [_GRID_LO + i * step for i in range(points)]


def identity_report(j: float) -> dict[str, float]:
    """Relative deviations of the three pinned identities at one grid point.

    Each deviation is taken relative to the closed-form side, since both
    sides of the Beta identity grow like ``1/(1-j)``.  Within about 1e-7 of
    ``j = 1`` the float ``pi*j`` keeps too few digits of its distance to
    ``pi``, so ``sin(pi*j)`` and the Beta deviation still exceed
    ``IDENTITY_TOL`` there.
    """
    def rel(value: float, closed_form: float) -> float:
        return abs(value - closed_form) / abs(closed_form)

    return {
        "gauss": rel(hyp2f1(1.0 - j, j, 1.0, 0.5), gauss_half_closed_form(j)),
        "beta": rel(beta_fn(1.0 + j, 1.0 - j), math.pi * j / math.sin(math.pi * j)),
        "contiguity": rel(hyp2f1(-j, j, 1.0, 0.5), contiguous_half_value(j)),
    }


def identities_hold(j: float) -> bool:
    """Whether every identity holds at ``j`` to ``IDENTITY_TOL``; a NaN fails."""
    return all(dev < IDENTITY_TOL for dev in identity_report(j).values())


def sweep(points: int = 50):
    """Run the identity grid and the non-vanishing check.

    Returns ``(identities_ok, nonvanishing_ok, min_abs_I)``.  Both flags
    require the strict inequality at every grid point, so a NaN fails them.
    """
    identities_ok = nonvanishing_ok = True
    min_abs = math.inf
    for j in default_grid(points):
        identities_ok &= identities_hold(j)
        size = abs(rigidity_constant(j))
        nonvanishing_ok &= size > NONVANISHING_FLOOR
        min_abs = min(min_abs, size)
    return identities_ok, nonvanishing_ok, min_abs
