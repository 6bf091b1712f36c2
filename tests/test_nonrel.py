import math

import pytest

from nchydro.constants import DEFAULT_CONSTANTS
from nchydro.errors import DivergenceError, DomainError, ValidationError
from nchydro.nonrel import (SchrodingerState, _bracket5, expectation_p4_physical,
                            expectation_table, fine_structure_shift, nc_hyperfine_shift,
                            r_inverse_moment, r_inverse_moment_quadrature, s_state_bound,
                            s_state_shift, schrodinger_energy)

C = DEFAULT_CONSTANTS
ALPHA = C.alpha
M_E = C.m_e
A0 = C.bohr_radius


def _dirac_expansion(n, j):
    """Standard O(alpha^4) fine-structure term of the exact spectrum, in eV."""
    return -(ALPHA ** 4 * M_E / (2.0 * n ** 4)) * (n / (j + 0.5) - 0.75)


def _s_state_cutoff_expectation(theta, lam):
    """Cutoff-regularized 1S expectation of the sigma/theta contact pair,
    (4 theta / 3) alpha^3 m^3 Lambda, in eV^2."""
    return (4.0 * theta / 3.0) * ALPHA ** 3 * M_E ** 3 * lam


def _s_state_shift_assembled(theta, lam):
    """The 1S shift assembled line by line from the two l = 0 table lines with
    the cutoff moment <r^-4>_1S = 4 alpha^3 m^3 Lambda, at m_j = 1/2."""
    m_j = 0.5
    r4_cut = 4.0 * ALPHA ** 3 * M_E ** 3 * lam
    bracket = _bracket5(SchrodingerState(n=1, l=0, j=0.5, m_j=m_j))
    return (ALPHA * ALPHA / (8.0 * M_E)) * theta * 2.0 * m_j * r4_cut * (1.0 - 4.0 * bracket)


class TestEnergy:
    def test_ground_state_rydberg(self):
        assert schrodinger_energy(1) == pytest.approx(-13.6057, abs=2e-4)

    def test_ratio_between_first_levels(self):
        assert schrodinger_energy(1) / schrodinger_energy(2) == pytest.approx(4.0, rel=1e-14)

    def test_large_n_goes_to_zero_from_below(self):
        val = schrodinger_energy(10 ** 6)
        assert val < 0.0
        assert abs(val) < 1e-10

    def test_invalid_n(self):
        with pytest.raises(ValidationError):
            schrodinger_energy(0)


class TestMoments:
    def test_r3_2p(self):
        assert r_inverse_moment(2, 1, 3) == pytest.approx(1.0 / (24.0 * A0 ** 3), rel=1e-13)

    @pytest.mark.parametrize("n,l,k", [
        (2, 1, 3), (2, 1, 4), (3, 1, 3), (3, 1, 4),
        (3, 2, 3), (3, 2, 4), (3, 2, 5), (5, 3, 5), (6, 2, 5),
    ])
    def test_closed_matches_quadrature(self, n, l, k):
        closed = r_inverse_moment(n, l, k)
        quad = r_inverse_moment_quadrature(n, l, k)
        assert closed == pytest.approx(quad, rel=1e-12)

    @pytest.mark.parametrize("l,k", [(0, 3), (0, 4), (0, 5), (1, 5)])
    def test_divergent_moments_rejected(self, l, k):
        with pytest.raises(DivergenceError):
            r_inverse_moment(max(l + 1, 2), l, k)
        with pytest.raises(DivergenceError):
            r_inverse_moment_quadrature(max(l + 1, 2), l, k)

    def test_divergent_moment_drifts_numerically(self):
        lo = r_inverse_moment_quadrature(2, 0, 4, order=128, check=False)
        hi = r_inverse_moment_quadrature(2, 0, 4, order=256, check=False)
        assert abs(lo - hi) / abs(hi) > 1e-3

    def test_invalid_k(self):
        with pytest.raises(DomainError):
            r_inverse_moment(3, 2, 6)


class TestExpectationTable:
    def test_theta_l_r3_for_2p12(self):
        # m_j (1 + 1/(2l+1)) <r^-3> with m_j = 1/2, l = 1 gives (2/3) <r^-3>
        state = SchrodingerState(n=2, l=1, j=0.5, m_j=0.5)
        theta = 1.0e-19
        table = expectation_table(state, theta)
        expected = theta * 0.5 * (4.0 / 3.0) / (24.0 * A0 ** 3)
        assert table.theta_L_over_r3 == pytest.approx(expected, rel=1e-12)

    def test_sigma_l_factors(self):
        t_12 = expectation_table(SchrodingerState(n=2, l=1, j=0.5, m_j=0.5), 0.0)
        t_32 = expectation_table(SchrodingerState(n=2, l=1, j=1.5, m_j=0.5), 0.0)
        r3 = r_inverse_moment(2, 1, 3)
        assert t_12.sigma_L_over_r3 == pytest.approx(-2.0 * r3, rel=1e-12)
        assert t_32.sigma_L_over_r3 == pytest.approx(1.0 * r3, rel=1e-12)

    def test_contact_term_zero_for_l_ge_1(self):
        table = expectation_table(SchrodingerState(n=3, l=2, j=2.5, m_j=0.5), 1.0e-19)
        assert table.pi_delta3 == 0.0

    @pytest.mark.parametrize("n,l,j,mj", [
        (2, 1, 1.5, 0.5), (2, 1, 0.5, -0.5), (3, 2, 2.5, 1.5), (3, 2, 1.5, -0.5),
    ])
    def test_lz_plus_sz_is_mj(self, n, l, j, mj):
        table = expectation_table(SchrodingerState(n=n, l=l, j=j, m_j=mj), 0.0)
        assert table.l_z + table.s_z == pytest.approx(mj, rel=1e-14)

    def test_p4_signs(self):
        table = expectation_table(SchrodingerState(n=2, l=1, j=1.5, m_j=0.5), 0.0)
        assert table.p4_physical > 0.0
        assert table.p4_printed == -table.p4_physical

    def test_p4_against_operator_identity(self):
        # p^4 = 4 m^2 (H - V)^2 expanded with <V> and <V^2>
        n, l = 3, 1
        eps = schrodinger_energy(n)
        r1 = 1.0 / (A0 * n * n)                         # <1/r>
        r2 = 1.0 / (A0 ** 2 * n ** 3 * (l + 0.5))       # <1/r^2>
        expected = 4.0 * M_E ** 2 * (eps ** 2 + 2.0 * eps * ALPHA * r1 + ALPHA ** 2 * r2)
        assert expectation_p4_physical(n, l) == pytest.approx(expected, rel=1e-12)

    def test_l1_r5_entries_flagged(self):
        table = expectation_table(SchrodingerState(n=2, l=1, j=1.5, m_j=0.5), 1.0e-19)
        assert "theta_L_over_r5" in table.divergent
        assert table.theta_L_over_r5 is None

    def test_overflow_is_not_divergence(self):
        # every moment of l = 2 exists; entries that overflow stay inf and
        # are not reported as moments that do not exist
        table = expectation_table(SchrodingerState(n=3, l=2, j=2.5, m_j=0.5), 1e300)
        assert table.divergent == ()
        assert math.isinf(table.theta_L_over_r5)

    def test_l0_rejected(self):
        with pytest.raises(DomainError):
            expectation_table(SchrodingerState(n=1, l=0, j=0.5, m_j=0.5), 0.0)


class TestFineStructure:
    def test_ordering_matches_physical_fine_structure(self):
        assert fine_structure_shift(2, 1, 0.5) < fine_structure_shift(2, 1, 1.5)

    def test_vanishes_as_alpha_to_zero(self):
        weak = C.with_(alpha=1e-6)
        val = fine_structure_shift(2, 1, 0.5, weak)
        assert abs(val) < 1e-20 * weak.m_e

    def test_corrected_sign_matches_standard_expansion(self):
        for n, l, j in [(2, 1, 0.5), (2, 1, 1.5), (3, 2, 2.5), (4, 1, 0.5)]:
            corrected = fine_structure_shift(n, l, j, p4_sign_corrected=True)
            standard = _dirac_expansion(n, j)
            assert corrected == pytest.approx(standard, rel=1e-12)

    def test_corrected_matches_exact_spectrum_to_alpha6(self):
        from nchydro.dirac import dirac_energy
        # 2P1/2: exact binding minus Bohr term equals the corrected shift to O(alpha^6)
        exact_fs = (dirac_energy(1, 1) - M_E) - schrodinger_energy(2)
        corrected = fine_structure_shift(2, 1, 0.5, p4_sign_corrected=True)
        assert abs(exact_fs - corrected) < M_E * ALPHA ** 6

    def test_as_tabulated_differs_from_standard(self):
        # the sign convention carried by the tabulated quartic term shifts the
        # total by twice the kinetic piece; this stays visible, not hidden
        verbatim = fine_structure_shift(2, 1, 0.5)
        standard = _dirac_expansion(2, 0.5)
        kinetic = M_E * ALPHA ** 4 / 16.0 * (2.0 / 3.0 - 3.0 / 8.0)
        assert verbatim - standard == pytest.approx(2.0 * kinetic, rel=1e-10)


class TestHyperfineShift:
    def test_zero_theta(self):
        state = SchrodingerState(n=3, l=2, j=2.5, m_j=0.5)
        assert nc_hyperfine_shift(state, 0.0).total == 0.0

    def test_mj_flip_on_upper_branch(self):
        # both the r^-3 and r^-4 parts are odd in m_j on the j = l + 1/2 branch
        theta = 1.0e-19
        up = nc_hyperfine_shift(SchrodingerState(n=3, l=2, j=2.5, m_j=1.5), theta)
        dn = nc_hyperfine_shift(SchrodingerState(n=3, l=2, j=2.5, m_j=-1.5), theta)
        assert up.r3_term == pytest.approx(-dn.r3_term, rel=1e-12)
        assert up.r4_term == pytest.approx(-dn.r4_term, rel=1e-12)

    def test_assembly_against_expectation_table(self):
        # the moment brackets must reproduce the table's branch/m_j factors
        state = SchrodingerState(n=3, l=2, j=2.5, m_j=0.5)
        theta = 1.0e-19
        shift = nc_hyperfine_shift(state, theta)
        table = expectation_table(state, theta)
        r3 = r_inverse_moment(3, 2, 3)
        prefactor = 0.5 * theta * ALPHA * state.m_j
        c3 = (-1.0 + ALPHA ** 2 / 36.0) * (table.theta_L_over_r3 / (theta * r3 * state.m_j))
        assert shift.r3_term == pytest.approx(prefactor * c3 * r3, rel=1e-12)
        assert not shift.r5_divergent
        assert shift.total == pytest.approx(shift.r3_term + shift.r4_term + shift.r5_term,
                                            rel=1e-14)

    def test_l1_lower_branch_finite(self):
        # j = l - 1/2 zeroes the <r^-5> coefficient, so l = 1 stays finite
        shift = nc_hyperfine_shift(SchrodingerState(n=2, l=1, j=0.5, m_j=0.5), 1.0e-19)
        assert not shift.r5_divergent
        assert shift.r5_term == 0.0
        assert math.isfinite(shift.total)

    def test_l1_upper_branch_divergence_flagged(self):
        shift = nc_hyperfine_shift(SchrodingerState(n=2, l=1, j=1.5, m_j=0.5), 1.0e-19)
        assert shift.r5_divergent
        assert shift.r5_term is None
        assert math.isfinite(shift.r3_term + shift.r4_term)

    def test_total_of_a_divergent_shift_does_not_exist(self):
        shift = nc_hyperfine_shift(SchrodingerState(n=2, l=1, j=1.5, m_j=0.5), 1.0e-19)
        assert shift.total is None

    def test_overflow_is_not_divergence(self):
        shift = nc_hyperfine_shift(SchrodingerState(n=3, l=2, j=2.5, m_j=0.5), 1e308)
        assert shift.r5_divergent is False
        assert math.isinf(shift.r5_term)

    def test_linear_in_theta(self):
        state = SchrodingerState(n=4, l=3, j=3.5, m_j=0.5)
        a = nc_hyperfine_shift(state, 2.0e-20).total
        b = nc_hyperfine_shift(state, 4.0e-20).total
        assert b == pytest.approx(2.0 * a, rel=1e-12)

    def test_l0_delegated(self):
        with pytest.raises(DomainError):
            nc_hyperfine_shift(SchrodingerState(n=1, l=0, j=0.5, m_j=0.5), 1.0e-19)


class TestSStateChannel:
    def test_shift_formula_exact(self):
        theta, lam = 1.0e-19, 2.0e8
        expected = theta * ALPHA ** 5 * M_E ** 2 * lam / 6.0
        assert s_state_shift(theta, lam) == pytest.approx(expected, rel=1e-15)

    def test_zero_theta(self):
        assert s_state_shift(0.0) == 0.0

    def test_linear_in_cutoff(self):
        assert s_state_shift(1.0e-19, 4.0e8) == pytest.approx(
            2.0 * s_state_shift(1.0e-19, 2.0e8), rel=1e-14)

    def test_consistent_with_cutoff_expectation(self):
        # (e^4 / 8m) times the cutoff expectation reproduces the shift exactly
        theta, lam = 1.0e-19, 2.0e8
        assembled = (ALPHA ** 2 / (8.0 * M_E)) * _s_state_cutoff_expectation(theta, lam)
        assert assembled == pytest.approx(s_state_shift(theta, lam), rel=1e-14)

    def test_line_by_line_assembly_is_one_third(self):
        # assembling from the table lines gives 1/3 of the direct formula;
        # the discrepancy is exposed, not reconciled
        theta, lam = 1.0e-19, 2.0e8
        ratio = _s_state_shift_assembled(theta, lam) / s_state_shift(theta, lam)
        assert ratio == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_bound_scales(self):
        b1 = s_state_bound(14.0e3)
        b2 = s_state_bound(7.0e3)
        assert b1.theta_max_ev2 == pytest.approx(2.0 * b2.theta_max_ev2, rel=1e-14)
        b3 = s_state_bound(14.0e3, lambda_qcd=4.0e8)
        assert b3.theta_max_ev2 == pytest.approx(0.5 * b1.theta_max_ev2, rel=1e-14)

    def test_accuracy_to_zero(self):
        assert s_state_bound(1e-6).theta_max_ev2 < 1e-28

    def test_invalid_inputs(self):
        with pytest.raises(ValidationError):
            s_state_shift(-1.0e-19)
        with pytest.raises(ValidationError):
            s_state_shift(1.0e-19, -2.0e8)

    @pytest.mark.parametrize("lam", [math.nan, math.inf, 0.0, -2.0e8, "2e8", True])
    def test_bound_rejects_bad_cutoff(self, lam):
        with pytest.raises(ValidationError):
            s_state_bound(14.0e3, lam)

class TestSchrodingerStateValidation:
    def test_bad_l(self):
        with pytest.raises(ValidationError):
            SchrodingerState(n=2, l=2, j=1.5, m_j=0.5)

    def test_bad_j(self):
        with pytest.raises(ValidationError):
            SchrodingerState(n=3, l=1, j=2.5, m_j=0.5)

    def test_bad_mj(self):
        with pytest.raises(ValidationError):
            SchrodingerState(n=3, l=1, j=1.5, m_j=2.5)

    def test_branch_sign(self):
        assert SchrodingerState(n=2, l=1, j=1.5, m_j=0.5).branch == 1
        assert SchrodingerState(n=2, l=1, j=0.5, m_j=0.5).branch == -1
