"""Nonrelativistic limit: Schrodinger hydrogen and its correction budget.

Covers the closed-form inverse-radius moments <r^-3>, <r^-4>, <r^-5> with
quadrature cross-checks, the table of first-order expectation values that
the noncommutative Hamiltonian needs, the ordinary fine-structure shift,
the theta-proportional hyperfine-like shift, and the cutoff-regularized
S-state channel.

Sign conventions carried over verbatim from the closed-form tables are kept
verbatim (and flagged where they disagree with independent routes):

* the quartic momentum line is tabulated with a negative sign although the
  operator is positive definite; fine_structure_shift consumes it as
  tabulated by default and flips it with p4_sign_corrected=True, which then
  reproduces the standard Dirac expansion to O(alpha^6);
* the S-state shift formula is (e^4 / 8m) times its parent cutoff
  expectation value, but assembling the same quantity line by line from
  the expectation table gives 1/3 of it; tests/test_nonrel.py keeps both
  assemblies as references.

Each fine-structure factor is one formula in kappa (<L_z> is
shifts.lz_expectation).  kappa comes from specfun.lj_to_kappa, the one test
of j = l +/- 1/2; specfun.check_magnetic is the one half-integer test.
_check_nl is the one (n, l) test, for SchrodingerState and every function
taking n; _moment_precondition alone decides which moments exist, and a
number that does not exist is None, not inf: inf or NaN means overflow.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import partial

from .constants import (DEFAULT_CONSTANTS, DEFAULT_LAMBDA_QCD_EV, LAMB_ACCURACY_1S_HZ,
                        PhysicalConstants, _checked, check_lambda_qcd, check_theta)
from .errors import DivergenceError, DomainError, ValidationError
from .shifts import ThetaBound, lz_expectation, theta_bound
from .specfun import (check_integer, check_magnetic, gauss_laguerre, laguerre_general,
                      lj_to_kappa)

__all__ = [
    "SchrodingerState",
    "schrodinger_energy",
    "r_inverse_moment",
    "r_inverse_moment_quadrature",
    "expectation_p4_physical",
    "ExpectationTable",
    "expectation_table",
    "fine_structure_shift",
    "HyperfineShift",
    "nc_hyperfine_shift",
    "s_state_shift",
    "s_state_bound",
]


@_checked
class SchrodingerState(namedtuple("SchrodingerState", "n l j m_j constants",
                                  defaults=(DEFAULT_CONSTANTS,))):
    """Hydrogen level (n, l, j = l +/- 1/2, m_j) in the nonrelativistic stack,
    n and l ints, j and m_j floats; (l, j) and m_j are checked for every l,
    0 included."""

    __slots__ = ()

    def _check(self):
        _check_nl(self.n, self.l)
        lj_to_kappa(self.l, self.j)
        check_magnetic(self.j, self.m_j)
        return self

    @property
    def kappa(self) -> int:
        return lj_to_kappa(self.l, self.j)

    @property
    def branch(self) -> int:
        """+1 for j = l + 1/2 (kappa < 0), -1 for j = l - 1/2."""
        return 1 if self.kappa < 0 else -1


def _check_nl(n: int, l: int = 0):
    """The one (n, l) test: integers with 0 <= l < n; _check_nl(n) checks n."""
    check_integer("n", n, 1)
    check_integer("l", l, 0)
    if l >= n:
        raise ValidationError(f"l must satisfy 0 <= l < n, got l={l}, n={n}")


def schrodinger_energy(n: int, constants: PhysicalConstants = DEFAULT_CONSTANTS) -> float:
    """Unperturbed level energy -alpha^2 m / (2 n^2) in eV."""
    _check_nl(n)
    return -constants.alpha ** 2 * constants.m_e / (2.0 * n * n)


def _radial_norm(n: int, l: int, a0: float) -> float:
    # makes int R^2 r^2 dr = 1 with the modern lower-index Laguerre
    return math.sqrt((2.0 / (n * a0)) ** 3
                     * math.factorial(n - l - 1) / (2.0 * n * math.factorial(n + l)))


# ---------------------------------------------------------------------------
# Inverse-radius moments
# ---------------------------------------------------------------------------


def _moment_precondition(l: int, k: int):
    """<r^-k> exists iff x^(2l+2-k) is integrable at the origin: 2l + 3 > k."""
    if k not in (3, 4, 5):
        raise DomainError(f"k must be 3, 4 or 5, got {k}")
    if 2 * l + 3 <= k:
        raise DivergenceError(f"<r^-{k}> diverges for l = {l} (needs 2l + 3 > k)")


def r_inverse_moment(n: int, l: int, k: int,
                     constants: PhysicalConstants = DEFAULT_CONSTANTS) -> float:
    """Closed-form <r^-k> for k in {3, 4, 5}, in eV^k.

    Raises DivergenceError when the moment does not exist (l = 0 for any k,
    l = 1 for k = 5).
    """
    _check_nl(n, l)
    _moment_precondition(l, k)
    a0 = constants.bohr_radius
    if k == 3:
        return 1.0 / (a0 ** 3 * n ** 3) / (l * (l + 0.5) * (l + 1.0))
    if k == 4:
        return (2.0 / (a0 ** 4 * n ** 3) / ((2.0 * l + 3.0) * (2.0 * l - 1.0) * (l + 0.5))
                * (-1.0 / n ** 2 + 3.0 / (l * (l + 1.0))))
    bracket = (-2.0 / (n ** 2 * l * (l + 1.0))
               + 5.0 / ((2.0 * l + 3.0) * (l - 0.5)) * (-1.0 / n ** 2 + 3.0 / (l * (l + 1.0))))
    return 1.0 / (3.0 * a0 ** 5 * n ** 3) / ((l + 2.0) * (l - 1.0) * (l + 0.5)) * bracket


def _moment_integrands(n: int, l: int, ks) -> list:
    """The integrands x^(2l+2-k) L_{n-l-1}^{2l+1}(x)^2 of <r^-k>, one per k
    of ks, in x = 2r / (n a0) against e^-x: functions of a float x that
    share one laguerre_general evaluation per x."""
    lag = {}

    def integrand(power, x):
        if x not in lag:
            lag[x] = laguerre_general(n - l - 1, 2 * l + 1, x)
        return x ** power * lag[x] * lag[x]

    return [partial(integrand, 2 * l + 2 - k) for k in ks]


def _moment_quadratures(n: int, l: int, ks, constants: PhysicalConstants,
                        order: int | None = None) -> list[float]:
    """<r^-k> for each k of ks by Gauss-Laguerre quadrature of
    int R^2 r^(2-k) dr on the order-node rule (default n), with one
    laguerre_general evaluation per node for all of them; each sum is
    math.fsum."""
    a0 = constants.bohr_radius
    rule = gauss_laguerre(n if order is None else order)
    norm = _radial_norm(n, l, a0) ** 2
    return [rule.integrate(integrand) * norm * (n * a0 / 2.0) ** (3 - k)
            for k, integrand in zip(ks, _moment_integrands(n, l, ks))]


def r_inverse_moment_quadrature(n: int, l: int, k: int,
                                constants: PhysicalConstants = DEFAULT_CONSTANTS,
                                order: int | None = None, check: bool = True) -> float:
    """<r^-k> by Gauss-Laguerre quadrature of int R^2 r^(2-k) dr.

    The default order is n: for a finite moment the integrand
    x^(2l+2-k) L_{n-l-1}^{2l+1}(x)^2 is a polynomial of degree 2n - k, so
    the n-node rule is exact.  With check=True the divergent cases raise
    DivergenceError up front (their x-space exponent 2l + 2 - k falls to -1
    or below); with check=False the raw finite sample is returned.  The
    value is _moment_quadratures', as the oracle reports it.
    """
    _check_nl(n, l)
    if check:
        _moment_precondition(l, k)
    return _moment_quadratures(n, l, (k,), constants, order)[0]


def expectation_p4_physical(n: int, l: int,
                            constants: PhysicalConstants = DEFAULT_CONSTANTS) -> float:
    """Positive-definite <p^4> = (4 m^2 e^4 / n^3 a0^2) [1/(l+1/2) - 3/(4n)]."""
    _check_nl(n, l)
    m, alpha = constants.m_e, constants.alpha
    a0 = constants.bohr_radius
    return 4.0 * m * m * alpha * alpha / (n ** 3 * a0 ** 2) * (1.0 / (l + 0.5) - 3.0 / (4.0 * n))


# ---------------------------------------------------------------------------
# Expectation-value table for the perturbed Hamiltonian (l >= 1)
# ---------------------------------------------------------------------------


class ExpectationTable(namedtuple("ExpectationTable", (
        "p4_printed p4_physical theta_L_over_r3 theta_L_over_r4 theta_L_over_r5 "
        "sigma_theta_over_r4 sigma_r_theta_r_over_r6 sigma_L_over_r3 thetaL_sigmaL_over_r5 "
        "pi_delta3 thetaL_p2_over_r3 l_z s_z"))):
    """All tabulated first-order expectation values for one (n, l, j, m_j),
    each a float.

    Entries proportional to a moment that does not exist (theta_L_over_r5
    and thetaL_sigmaL_over_r5 can be such entries) are None, not inf (or 0
    when their angular coefficient vanishes), and listed in `divergent`.
    hbar = 1: angular momenta are pure numbers.
    """

    __slots__ = ()

    @property
    def divergent(self) -> tuple[str, ...]:
        return tuple(name for name, value in zip(self._fields, self) if value is None)


def _spin_orbit(kappa: int) -> int:
    """<sigma.L> = j(j+1) - l(l+1) - 3/4 on the (l, j) pair of kappa."""
    return -(kappa + 1)


def _bracket5(state: SchrodingerState) -> float:
    l, mj, sgn = state.l, state.m_j, state.branch
    first = (l + mj + 0.5) * (l - mj + 0.5) / (2.0 * l + 1.0) ** 2
    second = (l + mj + 0.5 + sgn) * (l - mj + 1.5) / (2.0 * (l + sgn) + 1.0) ** 2
    return first + second


def _moment_terms(state: SchrodingerState, k: int, *coefficients: float) -> list[float | None]:
    """coefficient * <r^-k> at the state's (n, l) for each coefficient: 0 where
    it is 0, None (not inf) where r_inverse_moment finds that the moment
    does not exist."""
    if not any(coefficients):
        return [0.0] * len(coefficients)
    try:
        moment = r_inverse_moment(state.n, state.l, k, state.constants)
    except DivergenceError:
        return [None if c else 0.0 for c in coefficients]
    return [c * moment if c else 0.0 for c in coefficients]


def expectation_table(state: SchrodingerState, theta: float) -> ExpectationTable:
    """Evaluate every tabulated entry for an l >= 1 state at a given theta."""
    if state.l < 1:
        raise DomainError("the expectation table applies to l >= 1; "
                          "use the cutoff S-state channel for l = 0")
    check_theta(theta)
    c = state.constants
    n, l, mj, sgn = state.n, state.l, state.m_j, state.branch
    l_z = lz_expectation(state.j, l, mj)
    so_factor = _spin_orbit(state.kappa)
    r3 = r_inverse_moment(n, l, 3, c)
    r4 = r_inverse_moment(n, l, 4, c)
    tl5, tlsl5 = _moment_terms(state, 5, theta * l_z, theta * l_z * so_factor)
    p4_phys = expectation_p4_physical(n, l, c)
    tl3 = theta * l_z * r3
    tl4 = theta * l_z * r4
    sth4 = sgn * theta * 2.0 * mj / (2.0 * l + 1.0) * r4
    srtr = sgn * theta * 2.0 * mj / (2.0 * l + 1.0) * _bracket5(state) * r4
    sl3 = so_factor * r3
    tlp2 = 2.0 * theta * c.m_e * c.alpha * l_z * (r3 / (2.0 * c.bohr_radius * n * n) + r4)
    return ExpectationTable(
        p4_printed=-p4_phys,
        p4_physical=p4_phys,
        theta_L_over_r3=tl3,
        theta_L_over_r4=tl4,
        theta_L_over_r5=tl5,
        sigma_theta_over_r4=sth4,
        sigma_r_theta_r_over_r6=srtr,
        sigma_L_over_r3=sl3,
        thetaL_sigmaL_over_r5=tlsl5,
        pi_delta3=0.0,
        thetaL_p2_over_r3=tlp2,
        l_z=l_z,
        s_z=sgn * mj / (2.0 * l + 1.0),
    )


# ---------------------------------------------------------------------------
# Fine structure and the theta-proportional hyperfine analog
# ---------------------------------------------------------------------------


def fine_structure_shift(n: int, l: int, j: float,
                         constants: PhysicalConstants = DEFAULT_CONSTANTS,
                         p4_sign_corrected: bool = False) -> float:
    """Ordinary fine-structure correction for l >= 1, in eV.

    The quartic-momentum term is <p^4>/8m^3 (expectation_p4_physical).  By
    default it enters with the positive sign the closed-form table carries;
    with p4_sign_corrected=True it enters with the physical negative sign,
    and the total then matches the standard expansion
    -(alpha^4 m / 2 n^4)(n/(j+1/2) - 3/4) to O(alpha^6).
    """
    _check_nl(n, l)
    so_factor = _spin_orbit(lj_to_kappa(l, j))
    if l < 1:
        raise DomainError("fine_structure_shift applies to l >= 1")
    m, alpha = constants.m_e, constants.alpha
    kinetic = expectation_p4_physical(n, l, constants) / (8.0 * m ** 3)
    if p4_sign_corrected:
        kinetic = -kinetic
    spin_orbit = alpha / (4.0 * m * m) * so_factor * r_inverse_moment(n, l, 3, constants)
    return kinetic + spin_orbit


class HyperfineShift(namedtuple("HyperfineShift", "total r3_term r4_term r5_term")):
    """theta-proportional first-order shift in eV, split by moment order;
    where <r^-5> does not exist, r5_term and total are None, not inf."""

    __slots__ = ()

    @property
    def r5_divergent(self) -> bool:
        return self.r5_term is None


def nc_hyperfine_shift(state: SchrodingerState, theta: float) -> HyperfineShift:
    """The hyperfine-analog shift for l >= 1, assembled as tabulated.

    Linear in theta.  For l = 1 the <r^-5> moment does not exist: its term
    and the total are None unless its angular coefficient vanishes (which
    happens for j = l - 1/2, where the bracket is exactly zero and the
    total stays finite).
    """
    if state.l < 1:
        raise DomainError("nc_hyperfine_shift applies to l >= 1; "
                          "use s_state_shift for l = 0")
    check_theta(theta)
    c = state.constants
    m, alpha = c.m_e, c.alpha
    n, l, mj, sgn = state.n, state.l, state.m_j, state.branch
    l_z = lz_expectation(state.j, l, mj)
    prefactor = 0.5 * theta * alpha

    r3 = r_inverse_moment(n, l, 3, c)
    r4 = r_inverse_moment(n, l, 4, c)
    c3 = (-1.0 + alpha * alpha / (4.0 * n * n)) * l_z
    c4 = -(alpha / (2.0 * m)) * mj * ((5.0 + sgn * 6.0 / (2.0 * l + 1.0))
                                      + sgn * 4.0 / (2.0 * l + 1.0) * _bracket5(state))
    c5 = (3.0 / (4.0 * m * m)) * l_z * (1 - state.kappa)
    r3_term = prefactor * c3 * r3
    r4_term = prefactor * c4 * r4
    r5_term, = _moment_terms(state, 5, prefactor * c5)
    total = None if r5_term is None else r3_term + r4_term + r5_term
    return HyperfineShift(total=total, r3_term=r3_term, r4_term=r4_term, r5_term=r5_term)


# ---------------------------------------------------------------------------
# S states: cutoff-regularized channel
# ---------------------------------------------------------------------------


def s_state_shift(theta: float, lambda_qcd: float = DEFAULT_LAMBDA_QCD_EV,
                  constants: PhysicalConstants = DEFAULT_CONSTANTS) -> float:
    """1S level shift theta alpha^5 m^2 Lambda / 6 in eV.

    (e^4 / 8m) times the cutoff-regularized 1S expectation of the
    sigma/theta contact pair, (4 theta / 3) alpha^3 m^3 Lambda.  Linear in
    both theta and the cutoff.
    """
    check_theta(theta)
    check_lambda_qcd(lambda_qcd)
    alpha, m = constants.alpha, constants.m_e
    return theta * alpha ** 5 * m * m * lambda_qcd / 6.0


def s_state_bound(accuracy_hz: float = LAMB_ACCURACY_1S_HZ,
                  lambda_qcd: float = DEFAULT_LAMBDA_QCD_EV,
                  constants: PhysicalConstants = DEFAULT_CONSTANTS) -> ThetaBound:
    """Bound on theta from the 1S accuracy: theta_max = E(acc)/(alpha^5 m^2 Lambda/6)."""
    check_lambda_qcd(lambda_qcd)
    alpha, m = constants.alpha, constants.m_e
    coefficient = alpha ** 5 * m * m * lambda_qcd / 6.0
    return theta_bound(coefficient, accuracy_hz, constants)

