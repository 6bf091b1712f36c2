import math

import numpy as np
import pytest

from nchydro.constants import DEFAULT_CONSTANTS, PhysicalConstants
from nchydro.dirac import (dirac_binding_energy, dirac_energy, level_label, make_state,
                           parse_level_label, radial_fg, radial_polynomials)
from nchydro.errors import DomainError, ValidationError
from nchydro.specfun import gauss_laguerre

C = DEFAULT_CONSTANTS
ALPHA = C.alpha
M_E = C.m_e


class TestMakeState:
    def test_ground_state(self):
        s = make_state(0, -1, 0.5)
        assert s.l == 0 and s.j == 0.5
        assert s.nu == pytest.approx(math.sqrt(1.0 - ALPHA ** 2), rel=1e-15)
        assert s.label == "1S1/2"

    def test_2p12_quantum_numbers(self):
        s = make_state(1, 1, 0.5)
        assert (s.l, s.j) == (1, 0.5)
        assert s.label == "2P1/2"

    def test_2p32_quantum_numbers(self):
        s = make_state(0, -2, 1.5)
        assert (s.l, s.j) == (1, 1.5)
        assert s.label == "2P3/2"

    def test_invalid_states(self):
        with pytest.raises(ValidationError):
            make_state(0, 0, 0.5)       # kappa = 0
        with pytest.raises(ValidationError):
            make_state(0, 1, 0.5)       # unnormalizable
        with pytest.raises(ValidationError):
            make_state(1, 1, 1.5)       # |M| > j
        with pytest.raises(ValidationError):
            make_state(1, 1, 0.0)       # M not half-integral
        with pytest.raises(ValidationError):
            make_state(0, -1, 0.5, C.with_(alpha=1.5 - 0.5))  # alpha >= |kappa|

    @pytest.mark.parametrize("change", [{"m_e": 1e-300}, {"alpha": 1e-320}, {"alpha": 1e-9}])
    def test_lam_of_zero_is_an_arithmetic_error(self, change):
        # (m - E)(m + E) is 0, which no bound state gives: it underflows
        # (m_e = 1e-300, alpha = 1e-320) or E rounds to m (alpha = 1e-9); the
        # true a is about 3.6e-3, 5e-321 and 5e-10, not 0
        with pytest.raises(ArithmeticError, match="rounds to 0"):
            make_state(0, -2, 1.5, C.with_(**change))


class TestEnergy:
    def test_1s_collapses_to_m_sqrt(self):
        expected = M_E * math.sqrt(1.0 - ALPHA ** 2)
        assert dirac_energy(0, -1) == pytest.approx(expected, rel=1e-14)

    def test_alpha_to_zero_limit(self):
        weak = C.with_(alpha=1e-8)
        assert dirac_energy(0, -1, weak) == pytest.approx(weak.m_e, rel=1e-15)

    def test_2p12_binding_against_expansion(self):
        # binding = m [alpha^2/8 + 5 alpha^4/128] + O(alpha^6)
        binding = dirac_binding_energy(1, 1)
        series = M_E * (ALPHA ** 2 / 8.0 + 5.0 * ALPHA ** 4 / 128.0)
        assert abs(binding - series) < M_E * ALPHA ** 6
        assert binding == pytest.approx(13.60569 / 4.0, abs=0.01)

    def test_degeneracy_in_kappa_sign(self):
        # equal (n_r + |kappa|, |kappa|) implies equal energy
        e_2s = dirac_energy(1, -1)
        e_2p12 = dirac_energy(1, 1)
        assert e_2s == pytest.approx(e_2p12, rel=1e-12)
        e_3p32 = dirac_energy(1, -2)
        e_3d32 = dirac_energy(1, 2)
        assert e_3p32 == pytest.approx(e_3d32, rel=1e-12)

    def test_monotonic_in_principal_number(self):
        for kappa in (-1, 1, -2):
            energies = [dirac_energy(n_r, kappa) for n_r in range(0 if kappa < 0 else 1, 6)]
            assert all(a < b for a, b in zip(energies, energies[1:]))

    def test_nonrelativistic_consistency(self):
        # (E - m) - eps_n0 should be O(alpha^4 m), ratio bounded by 1
        for n_r, kappa in [(0, -1), (1, -1), (1, 1), (0, -2), (2, -1), (3, -2), (2, -3)]:
            n = n_r + abs(kappa)
            eps0 = -ALPHA ** 2 * M_E / (2.0 * n * n)
            gap = abs((dirac_energy(n_r, kappa) - M_E) - eps0)
            assert gap / (M_E * ALPHA ** 4) < 1.0


class TestRadialFunctions:
    def test_nodeless_states_have_single_term(self):
        # n_r = 0: polynomial parts are constants, so f/g is constant in r
        s = make_state(0, -1, 0.5)
        r = np.array([0.3, 1.0, 5.0]) / s.lam
        f, g = np.array([radial_fg(s, ri) for ri in r.tolist()]).T
        ratios = g / f
        assert np.allclose(ratios, ratios[0], rtol=1e-12)

    def test_1s_ratio_value(self):
        # g/f = alpha/(kappa - nu) = -alpha/(1 + nu)
        s = make_state(0, -1, 0.5)
        f, g = radial_fg(s, 1.0 / s.lam)
        assert g / f == pytest.approx(ALPHA / (-1.0 - s.nu), rel=1e-12)

    def test_r_must_be_positive(self):
        s = make_state(0, -1, 0.5)
        with pytest.raises(DomainError):
            radial_fg(s, 0.0)
        with pytest.raises(DomainError):
            [radial_fg(s, ri) for ri in (1.0, -2.0)]

    @pytest.mark.parametrize("n_r,kappa", [(0, -1), (1, -1), (1, 1), (0, -2), (2, 2), (0, -3)])
    def test_norm_is_one(self, n_r, kappa):
        from nchydro.oracle import norm_self_consistency
        assert norm_self_consistency(n_r, kappa) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("n_r,kappa", [(0, -1), (1, -1), (1, 1), (0, -2), (1, 2), (0, -3)])
    def test_solves_radial_equations(self, n_r, kappa):
        # G = r f, F = r g must satisfy the coupled first-order system
        #   G' + (kappa/r) G - (E + m - V) F = 0
        #   F' - (kappa/r) F + (E - m - V) G = 0   with V = -alpha/r.
        # Residuals are dominated by the O(h^2) finite difference.
        s = make_state(n_r, kappa, 0.5)
        r = np.linspace(0.3 / s.lam, 12.0 / s.lam, 4000)
        h = r[1] - r[0]
        f, g = np.array([radial_fg(s, ri) for ri in r.tolist()]).T
        G, F = r * f, r * g
        dG = np.gradient(G, h, edge_order=2)
        dF = np.gradient(F, h, edge_order=2)
        v = -ALPHA / r
        res1 = dG + (kappa / r) * G - (s.energy + M_E - v) * F
        res2 = dF - (kappa / r) * F + (s.energy - M_E - v) * G
        scale = np.max(np.abs(G)) * max(s.energy, s.lam)
        assert np.max(np.abs(res1)) / scale < 5e-7
        assert np.max(np.abs(res2)) / scale < 5e-7


class TestNormalizationConstant:
    @staticmethod
    def norm_functional(s, c):
        # c^2 int (f~^2 + g~^2) r^2 dr on a rule far above the exact order
        rule = gauss_laguerre(48, 2.0 * s.nu)
        pf, pg = radial_polynomials(s, np.array(rule.nodes))
        integral = float(np.sum(np.array(rule.weights) * (pf * pf + pg * pg)))
        return c ** 2 * integral / (2.0 * s.lam) ** 3

    def test_quadratic_scaling(self):
        # state.norm normalizes; doubling it quadruples the norm functional
        s = make_state(1, 1, 0.5)
        norm_1 = self.norm_functional(s, s.norm)
        norm_2 = self.norm_functional(s, 2.0 * s.norm)
        assert norm_1 == pytest.approx(1.0, rel=1e-13)
        assert norm_2 == pytest.approx(4.0 * norm_1, rel=1e-14)

    def test_1s_against_closed_form(self):
        # n_r = 0: one term per component, C^2 = (2 lam)^3 / ((f2^2 + g2^2) Gamma(2 nu + 1))
        s = make_state(0, -1, 0.5)
        _, f2, _, g2 = s.shape
        closed = (2.0 * s.lam) ** 3 / ((f2 * f2 + g2 * g2) * math.gamma(2.0 * s.nu + 1.0))
        assert s.norm == pytest.approx(math.sqrt(closed), rel=1e-12)

    def test_idempotent_renormalization(self):
        from nchydro.oracle import norm_self_consistency
        assert norm_self_consistency(0, -2) == pytest.approx(1.0, abs=1e-10)


class TestPhysicalConstants:
    @pytest.mark.parametrize("field,value", [
        ("m_e", math.inf), ("m_e", math.nan), ("m_e", -1.0), ("m_e", "510998.95"),
        ("alpha", math.nan), ("alpha", 1.0), ("alpha", "0.007"), ("hbar_eV_s", math.inf),
    ])
    def test_rejects_non_finite_or_non_numeric(self, field, value):
        with pytest.raises(ValidationError):
            PhysicalConstants(**{field: value})


class TestLabels:
    @pytest.mark.parametrize("label,expected", [
        ("1S1/2", (0, -1)),
        ("2S1/2", (1, -1)),
        ("2P1/2", (1, 1)),
        ("2P3/2", (0, -2)),
        ("3D3/2", (1, 2)),
        ("3D5/2", (0, -3)),
    ])
    def test_parse_round_trip(self, label, expected):
        assert parse_level_label(label) == expected
        assert level_label(*expected) == label

    @pytest.mark.parametrize("bad", ["2Q1/2", "0S1/2", "2P5/2", "1P1/2", "x", "2P3", "2S2/2"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValidationError):
            parse_level_label(bad)
