"""The exact Laguerre-series radial integrals of dirac._overlap.

For nu > 1 every radial integrand here is a polynomial of degree 2 n_r
against the weight x^beta e^-x: the norm integral (beta = 2 nu) for every
level and the radial integrals (beta = 2 nu - 3) for |kappa| >= 2.  The
series and the Gauss rule with n_r + 2 nodes both give such an integral up
to rounding, and mpmath at 60 digits gives it outright.
"""

import sys
from fractions import Fraction

import numpy as np
import pytest

from nchydro.dirac import _laguerre_series, _overlap, make_state, radial_polynomials
from nchydro.shifts import radial_integral_quadrature
from nchydro.specfun import IntegrationResult, gauss_laguerre


def _levels(n_max):
    # every (n_r, kappa) with principal number n <= n_max
    return [(n - abs(kappa), kappa) for n in range(1, n_max + 1) for l in range(n)
            for kappa in ((l, -l - 1) if l else (-1,))]


def _integrals(kappa):
    # (shift, sign): the norm, then the radial sum and diff where they exist
    return [(0, 1.0)] + ([(-3, 1.0), (-3, -1.0)] if abs(kappa) >= 2 else [])


def _gauss(state, shift, sign):
    rule = gauss_laguerre(state.n_r + 2, 2.0 * state.nu + shift)
    pf, pg = radial_polynomials(state, np.array(rule.nodes))
    return float(np.sum(np.array(rule.weights) * (pf * pf + sign * pg * pg)))


@pytest.mark.parametrize("n_r,kappa", _levels(15))
def test_series_matches_gauss_rule(n_r, kappa):
    state = make_state(n_r, kappa, 0.5)
    for shift, sign in _integrals(kappa):
        res = _overlap(state, shift)[sign < 0.0]
        assert res.order == n_r + 1
        # the rounding bound eps (terms + 1) sum|t| / |sum t|: the terms barely cancel
        assert res.converged and res.drift <= 1.001 * (n_r + 2) * sys.float_info.epsilon
        assert res.value == pytest.approx(_gauss(state, shift, sign), rel=1e-13), (shift, sign)
        if shift:  # the radial quadrature is this series times norm^2, bit for bit
            assert radial_integral_quadrature(state, "diff" if sign < 0.0 else "sum") == (
                IntegrationResult(res.value * (state.norm * state.norm), res.order, res.drift,
                                  res.converged))


def _mp_integral(mp, state, shift, sign):
    """int x^beta e^-x (P_f^2 + sign P_g^2) dx from the monomial coefficients
    of the defining Laguerre polynomials, at the working precision of mp."""
    nu = mp.mpf(state.nu)
    f1, f2, g1, g2 = (mp.mpf(c) for c in state.shape)

    def laguerre(n, a):  # L_n^a(x) = sum_i (-1)^i C(n + a, n - i) x^i / i!
        return [(-1) ** i * mp.binomial(n + a, n - i) / mp.factorial(i) for i in range(n + 1)]

    low = laguerre(state.n_r, 2 * nu - 1)
    high = [mp.mpf(0)] + (laguerre(state.n_r - 1, 2 * nu + 1) if state.n_r else [])
    pf = [f1 * h + f2 * v for h, v in zip(high, low)]
    pg = [g1 * h + g2 * v for h, v in zip(high, low)]
    beta = 2 * nu + shift
    return mp.fsum((pf[i] * pf[k] + sign * pg[i] * pg[k]) * mp.gamma(beta + i + k + 1)
                   for i in range(len(pf)) for k in range(len(pf)))


@pytest.mark.parametrize("n_r,kappa", _levels(6))
def test_series_matches_60_digits(n_r, kappa):
    mpmath = pytest.importorskip("mpmath")
    state = make_state(n_r, kappa, 0.5)
    with mpmath.workdps(60):
        for shift, sign in _integrals(kappa):
            exact = _mp_integral(mpmath.mp, state, shift, sign)
            value = _overlap(state, shift)[sign < 0.0].value
            assert float(abs(value - exact) / abs(exact)) <= 1e-13, (shift, sign)


@pytest.mark.parametrize("n_r,kappa", _levels(5))
def test_series_sums_are_correctly_rounded(n_r, kappa):
    # the value and the drift's sum |t_k| are the exact sums of the float
    # terms, rounded once, on every Python version (the built-in sum is
    # compensated from 3.12 on only, and plain before)
    state = make_state(n_r, kappa, 0.5)
    for shift, sign in _integrals(kappa):
        p, q, h = _laguerre_series(state, shift)
        terms = [(a * a + sign * b * b) * w for a, b, w in zip(p, q, h)]
        res = _overlap(state, shift)[sign < 0.0]
        value = float(sum(map(Fraction, terms)))
        magnitude = float(sum(Fraction(abs(t)) for t in terms))
        assert res.value == value, (shift, sign)
        assert res.drift == sys.float_info.epsilon * (len(terms) + 1) * magnitude / abs(value)
