import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nchydro.dirac import make_state, radial_polynomials
from nchydro.errors import DomainError
from nchydro.shifts import cross_radial_integral_quadrature, radial_integral_quadrature
from nchydro.specfun import (_endpoint_rule, adaptive_sampled_endpoint, adaptive_weighted,
                             gauss_laguerre, laguerre_general, sphere_rule, spherical_harmonic,
                             spinor_harmonic, spinor_orbital_m)


def numpy_laguerre_rule(n: int, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """The independent reference for the Gauss rules: Golub-Welsch nodes by
    numpy's dense symmetric eigensolver, weights from the Christoffel sum
    1/sum_k p~_k(x)^2 in exponentially scaled form q_k = p~_k(x)
    x^{beta/2} e^{-x/2} so nothing overflows."""
    i = np.arange(n, dtype=float)
    diag = 2.0 * i + 1.0 + beta
    k = np.arange(1, n, dtype=float)
    off = np.sqrt(k * (k + beta))
    jmat = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    x = np.linalg.eigvalsh(jmat)
    mu0 = math.gamma(1.0 + beta)
    with np.errstate(under="ignore"):
        log_w = -x + beta * np.log(x)
        q = np.exp(0.5 * log_w) / math.sqrt(mu0)
        s = q * q
        q_prev = np.zeros_like(x)
        for kk in range(1, n):
            b_k = math.sqrt(kk * (kk + beta))
            b_km = math.sqrt((kk - 1.0) * (kk - 1.0 + beta)) if kk >= 2 else 0.0
            q_prev, q = q, ((x - (2.0 * (kk - 1.0) + 1.0 + beta)) * q - b_km * q_prev) / b_k
            s += q * q
        w = np.zeros_like(x)
        alive = s > 0.0  # far-tail nodes underflow; their true weights are ~0
        w[alive] = np.exp(log_w[alive]) / s[alive]
    return x, w


def sphere_grid(n_theta: int, n_phi: int) -> tuple[list, list, np.ndarray]:
    """numpy's n_theta-node Gauss-Legendre rule in cos(theta) times the
    n_phi-point trapezoid in phi, flattened theta-major: theta and phi as
    float lists and the product weights, which sum to 4 pi."""
    x, w = np.polynomial.legendre.leggauss(n_theta)
    phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
    return (np.repeat(np.arccos(x), n_phi).tolist(), np.tile(phi, n_theta).tolist(),
            np.repeat(w, n_phi) * (2.0 * math.pi / n_phi))


class TestGamma:
    """Gamma(1 + beta) as carried by the generalized rule: its weights sum
    to the zeroth moment of x^beta e^-x."""

    @staticmethod
    def gamma(x: float) -> float:
        return float(np.sum(gauss_laguerre(4, x - 1.0).weights))

    def test_gamma_one(self):
        assert self.gamma(1.0) == pytest.approx(1.0, rel=1e-14)

    def test_gamma_half_is_sqrt_pi(self):
        assert self.gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)

    def test_gamma_4_2_by_recursion_from_1_2(self):
        # Gamma(4.2) = 3.2 * 2.2 * 1.2 * Gamma(1.2)
        expected = 3.2 * 2.2 * 1.2 * self.gamma(1.2)
        assert self.gamma(4.2) == pytest.approx(expected, rel=1e-13)

    def test_nonpositive_rejected(self):
        with pytest.raises(DomainError):
            self.gamma(0.0)
        with pytest.raises(DomainError):
            self.gamma(-2.5)

    @given(st.floats(min_value=0.1, max_value=40.0))
    def test_recursion_property(self, x):
        assert self.gamma(x + 1.0) == pytest.approx(x * self.gamma(x), rel=1e-13)

    def test_against_stdlib(self):
        for x in np.linspace(0.05, 50.0, 997):
            assert self.gamma(float(x)) == pytest.approx(math.gamma(float(x)), rel=1e-13)


class TestLaguerre:
    def test_degree_zero_is_one(self):
        for a in (-0.5, 0.0, 2.7):
            for x in (0.0, 1.0, 42.0):
                assert laguerre_general(0, a, x) == 1.0

    def test_degree_one(self):
        for a, x in [(0.5, 2.0), (-0.3, 7.0), (3.0, 0.0)]:
            assert laguerre_general(1, a, x) == pytest.approx(1.0 + a - x, rel=1e-15)

    def test_degree_minus_one_is_zero(self):
        assert laguerre_general(-1, 1.5, 3.0) == 0.0

    def test_series_oracle_n3(self):
        # direct series: L_n^a(x) = sum_k (-1)^k C(n+a, n-k) x^k / k!
        n, a, x = 3, 1.5, 2.0
        total = 0.0
        for k in range(n + 1):
            binom = (math.gamma(n + a + 1.0)
                     / (math.gamma(a + k + 1.0) * math.factorial(n - k)))
            total += (-1.0) ** k * binom * x ** k / math.factorial(k)
        assert laguerre_general(n, a, x) == pytest.approx(total, rel=1e-13)

    @given(st.integers(min_value=1, max_value=20),
           st.floats(min_value=-0.5, max_value=5.0),
           st.floats(min_value=1e-6, max_value=50.0))
    def test_three_term_recurrence(self, n, a, x):
        lhs = (n + 1.0) * laguerre_general(n + 1, a, x)
        rhs = ((2.0 * n + 1.0 + a - x) * laguerre_general(n, a, x)
               - (n + a) * laguerre_general(n - 1, a, x))
        scale = max(abs(lhs), abs(rhs), 1.0)
        assert abs(lhs - rhs) / scale < 1e-12

    def test_vectorized(self):
        x = np.linspace(0.1, 10.0, 7)
        vals = laguerre_general(2, 0.5, x)
        assert vals.shape == x.shape
        assert vals[0] == pytest.approx(laguerre_general(2, 0.5, float(x[0])))


class TestSphericalHarmonic:
    def test_y00(self):
        assert spherical_harmonic(0, 0, 0.7, 1.9) == pytest.approx(
            1.0 / math.sqrt(4.0 * math.pi))

    def test_y10(self):
        th = 0.8
        assert spherical_harmonic(1, 0, th, 0.3) == pytest.approx(
            math.sqrt(3.0 / (4.0 * math.pi)) * math.cos(th), rel=1e-14)

    def test_y11_condon_shortley(self):
        th, ph = 0.8, 2.1
        expected = -math.sqrt(3.0 / (8.0 * math.pi)) * math.sin(th) * np.exp(1j * ph)
        assert spherical_harmonic(1, 1, th, ph) == pytest.approx(expected, rel=1e-14)

    def test_negative_m_conjugation(self):
        th, ph = 1.1, 0.6
        y = spherical_harmonic(2, -1, th, ph)
        expected = (-1) * np.conj(spherical_harmonic(2, 1, th, ph))
        assert y == pytest.approx(expected, rel=1e-14)

    def test_m_out_of_range(self):
        with pytest.raises(DomainError):
            spherical_harmonic(1, 2, 0.1, 0.1)

    def test_sphere_weights_sum_to_4pi(self):
        # the phi integral contributes 2 pi, the cos(theta) weights sum to 2
        cos_theta, weights = sphere_rule()
        assert len(cos_theta) == len(weights) == 16
        assert 2.0 * math.pi * math.fsum(weights) == pytest.approx(4.0 * math.pi, rel=1e-14)

    def test_legendre_factor_matches_numpy(self):
        # absolute: the edge weights (0.027) differ by 1.9e-14 relative, as
        # far as numpy's eigh route stood from the exact ones (1.7e-14)
        cos_theta, weights = sphere_rule()
        x, w = np.polynomial.legendre.leggauss(16)
        assert np.max(np.abs(np.array(cos_theta) - x)) <= 1e-14
        assert np.max(np.abs(np.array(weights) - w)) <= 1e-14

    def test_orthonormality_by_quadrature(self):
        theta, phi, w = sphere_grid(16, 16)
        y11 = np.array([spherical_harmonic(1, 1, t, p) for t, p in zip(theta, phi)])
        y10 = np.array([spherical_harmonic(1, 0, t, p) for t, p in zip(theta, phi)])
        assert abs(np.sum(w * np.conj(y11) * y10)) < 1e-13
        assert np.sum(w * np.abs(y11) ** 2) == pytest.approx(1.0, abs=1e-13)


class TestSpinorHarmonic:
    def test_s_state_single_term(self):
        th, ph = 0.4, 0.9
        om = spinor_harmonic(0.5, 0, 0.5, th, ph)
        assert om[0] == pytest.approx(spherical_harmonic(0, 0, th, ph))
        assert om[1] == 0.0

    def test_coefficient_pattern_j_half_l_one(self):
        # (j=1/2, l=1, M=1/2): coefficients (-sqrt(1/3), sqrt(2/3))
        th, ph = 0.9, 0.2
        om = spinor_harmonic(0.5, 1, 0.5, th, ph)
        assert om[0] == pytest.approx(
            -math.sqrt(1.0 / 3.0) * spherical_harmonic(1, 0, th, ph), rel=1e-13)
        assert om[1] == pytest.approx(
            math.sqrt(2.0 / 3.0) * spherical_harmonic(1, 1, th, ph), rel=1e-13)

    def test_normalization_j32(self):
        theta, phi, w = sphere_grid(16, 16)
        om = np.array([spinor_harmonic(1.5, 1, 0.5, t, p) for t, p in zip(theta, phi)]).T
        assert np.sum(w * (np.abs(om[0]) ** 2 + np.abs(om[1]) ** 2)) == pytest.approx(
            1.0, abs=1e-12)

    def test_rounded_m_keeps_its_component(self):
        # M = 1/2 + 1e-13 carries the orbital m = 1 of the lower component;
        # rounding decides |m| <= l, so that component is kept
        lower = spinor_harmonic(0.5 + 1e-10, 1, 0.5 + 1e-13, 0.7, 0.3)[1]
        assert abs(lower - spinor_harmonic(0.5, 1, 0.5, 0.7, 0.3)[1]) <= 1e-12
        assert abs(lower) > 0.1

    def test_inconsistent_jl_pair(self):
        from nchydro.errors import ValidationError
        with pytest.raises(ValidationError):
            spinor_harmonic(0.5, 2, 0.5, 0.1, 0.1)

    @pytest.mark.parametrize("j,l,M", [(0.5, 1, 0.5), (1.5, 1, -0.5), (2.5, 2, 1.5)])
    def test_lz_eigencomponents_by_finite_difference(self, j, l, M):
        # -i d/dphi on each component returns its orbital magnetic number
        th = 1.0
        ph = 0.7
        h = 1e-5
        m_up, m_dn = spinor_orbital_m(M)
        plus = np.array(spinor_harmonic(j, l, M, th, ph + h))
        minus = np.array(spinor_harmonic(j, l, M, th, ph - h))
        center = np.array(spinor_harmonic(j, l, M, th, ph))
        deriv = -1j * (plus - minus) / (2.0 * h)
        for comp, m_val in ((0, m_up), (1, m_dn)):
            if abs(center[comp]) > 1e-12:
                assert deriv[comp] / center[comp] == pytest.approx(m_val, abs=1e-8)


# every beta verify builds a rule for: 2 nu - 3 and 2 nu for |kappa| = 2, 3,
# and 0 for the moments; then the edge -0.5 and a large 4.99
VERIFY_BETAS = [2.0 * make_state(0, kappa, 0.5).nu + shift
                for kappa in (-2, -3) for shift in (-3.0, 0.0)] + [0.0]


@pytest.mark.parametrize("beta", VERIFY_BETAS + [-0.5, 4.99])
def test_gauss_laguerre_matches_numpy(beta):
    for n in range(1, 49):
        rule = gauss_laguerre(n, beta)
        assert all(type(v) is float for v in rule.nodes + rule.weights)
        x, w = numpy_laguerre_rule(n, beta)
        assert np.max(np.abs(np.array(rule.nodes) / x - 1.0)) <= 1e-12, n
        kept = w > 1e-250
        assert np.max(np.abs(np.array(rule.weights)[kept] / w[kept] - 1.0)) <= 1e-12, n


class TestGaussLaguerre:
    def test_one_point_rule(self):
        rule = gauss_laguerre(1)
        assert rule.nodes[0] == pytest.approx(1.0, rel=1e-14)
        assert rule.weights[0] == pytest.approx(1.0, rel=1e-14)

    def test_two_point_nodes(self):
        rule = gauss_laguerre(2)
        assert rule.nodes[0] == pytest.approx(2.0 - math.sqrt(2.0), rel=1e-13)
        assert rule.nodes[1] == pytest.approx(2.0 + math.sqrt(2.0), rel=1e-13)

    def test_x5_integral_is_120(self):
        rule = gauss_laguerre(40)
        val = rule.integrate(lambda x: x ** 5)
        assert val == pytest.approx(120.0, rel=1e-12)

    def test_weight_sum_is_one(self):
        # weights are strictly positive at these orders (the far tail only
        # underflows to zero for orders in the several hundreds)
        for n in (1, 2, 8, 40, 80):
            rule = gauss_laguerre(n)
            assert np.sum(rule.weights) == pytest.approx(1.0, abs=1e-12)
            assert np.all(np.array(rule.weights) > 0)
            assert np.all(np.diff(rule.nodes) > 0)

    @pytest.mark.parametrize("n", [1, 2, 8, 40])
    def test_moments_factorial(self, n):
        rule = gauss_laguerre(n)
        for k in range(0, 2 * n):
            val = rule.integrate(lambda x, k=k: x ** float(k))
            assert abs(val - math.factorial(k)) / math.factorial(k) < 1e-11

    def test_generalized_weight_moments(self):
        beta = 0.73
        rule = gauss_laguerre(16, beta)
        for k in (0, 1, 4, 9):
            val = rule.integrate(lambda x, k=k: x ** float(k))
            assert val == pytest.approx(math.gamma(beta + k + 1.0), rel=1e-13)

    def test_invalid_inputs(self):
        with pytest.raises(DomainError):
            gauss_laguerre(0)
        with pytest.raises(DomainError):
            gauss_laguerre(8, beta=-1.0)
        with pytest.raises(DomainError, match="not integrable"):
            gauss_laguerre(8, beta=math.nan)

    def test_adaptive_converges_on_polynomial(self):
        res = adaptive_weighted(lambda x: x ** 3 + 2.0, start=8, tol=1e-12)
        assert res.converged
        assert res.value == pytest.approx(8.0, rel=1e-13)


class TestEndpointRule:
    """The pure-Python rule of adaptive_sampled_endpoint against numpy's
    Golub-Welsch rule (numpy_laguerre_rule)."""

    @pytest.mark.parametrize("n", [16, 40, 80, 160, 320])
    def test_matches_golub_welsch(self, n):
        t, rule_weights = numpy_laguerre_rule(n, 0.0)
        with np.errstate(under="ignore"):
            weights = 2.0 * t * rule_weights * np.exp(t - t * t)
        kept = int(np.count_nonzero(weights))
        assert kept == {80: 29, 160: 42}.get(n, kept)  # as README states
        assert np.all(weights[:kept] > 0.0) and not np.any(weights[kept:])
        x, w = _endpoint_rule(n)
        assert len(x) == len(w) == kept
        assert np.max(np.abs(np.array(x) / (t[:kept] * t[:kept]) - 1.0)) <= 1e-12
        assert np.max(np.abs(np.array(w) / weights[:kept] - 1.0)) <= 1e-10

    def test_rejects_fewer_than_16_nodes(self):
        with pytest.raises(DomainError, match="start >= 16"):
            adaptive_sampled_endpoint(lambda x: x, start=8)

    def test_is_plain_floats(self):
        x, w = _endpoint_rule(80)
        assert all(type(v) is float for v in x + w)

    def test_samples_a_smooth_integrand(self):
        # int x^3 e^-x dx = 6; after x = t^2 the integrand is smooth in t
        res = adaptive_sampled_endpoint(lambda x: x ** 3)
        assert res.value == pytest.approx(6.0, rel=1e-13)
        assert res.order == 160 and res.drift < 1e-7


KAPPA_1 = [(n - 1, -1) for n in range(1, 6)] + [(n - 1, 1) for n in range(2, 6)]


def _golub_welsch_sample(bra, ket, sign, order):
    """The endpoint sample as numpy took it: radial_polynomials on the
    squared nodes of numpy's order-node Golub-Welsch rule."""
    t, rule_weights = numpy_laguerre_rule(order, 0.0)
    x = t * t
    pf, pg = radial_polynomials(bra, x)
    pf2, pg2 = radial_polynomials(ket, x)
    with np.errstate(under="ignore"):
        vals = (2.0 * t * np.exp((2.0 * bra.nu - 3.0) * np.log(x))
                * (pf * pf2 + sign * pg * pg2) * np.exp(t - t * t))
    return float(np.sum(rule_weights * vals)) * bra.norm * ket.norm


def _assert_same_samples(result, bra, ket, sign):
    lo, hi = (_golub_welsch_sample(bra, ket, sign, n) for n in (80, 160))
    assert result.value == pytest.approx(hi, rel=1e-11)
    assert result.drift == pytest.approx(abs(hi - lo) / max(abs(hi), abs(lo)), rel=1e-9)


@pytest.mark.parametrize("n_r, kappa", KAPPA_1)
@pytest.mark.parametrize("kind", ["sum", "diff"])
def test_kappa_1_samples_match_golub_welsch(n_r, kappa, kind):
    state = make_state(n_r, kappa, 0.5)
    _assert_same_samples(radial_integral_quadrature(state, kind), state, state,
                         1.0 if kind == "sum" else -1.0)


def test_cross_sample_matches_golub_welsch():
    _assert_same_samples(cross_radial_integral_quadrature(), make_state(1, -1, 0.5),
                         make_state(1, 1, 0.5), -1.0)


@pytest.mark.parametrize("n, a", [(-1, 2.5), (0, 1.0), (1, 0.3), (4, 1.9999), (7, 3.0)])
def test_laguerre_float_equals_array_element(n, a):
    x = np.array([0.01, 0.7, 3.3, 41.0])
    vals = laguerre_general(n, a, x)
    assert vals.shape == x.shape
    for xi, vi in zip(x.tolist(), vals.tolist()):
        scalar = laguerre_general(n, a, xi)
        assert type(scalar) is float and scalar == vi


@pytest.mark.parametrize("n_r, kappa", [(0, -1), (1, 1), (0, -2), (3, -1), (2, 2)])
def test_radial_polynomials_float_equals_array_element(n_r, kappa):
    state = make_state(n_r, kappa, 0.5)
    x = np.array([0.02, 1.5, 9.0, 80.0])
    pf, pg = radial_polynomials(state, x)
    for i, xi in enumerate(x.tolist()):
        assert radial_polynomials(state, xi) == (pf[i], pg[i])
