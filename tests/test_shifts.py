import json
import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nchydro import cli, dirac, shifts, specfun
from nchydro.constants import DEFAULT_CONSTANTS
from nchydro.dirac import dirac_energy, lj_to_kappa, make_state, radial_polynomials
from nchydro.errors import DomainError, ValidationError
from nchydro.shifts import (Level, cross_radial_integral_closed,
                            cross_radial_integral_quadrature, level_shift, lz_block,
                            lz_block_numeric, lz_expectation, radial_integral_closed,
                            radial_integral_quadrature, sigma_cross_block, theta_bound,
                            transition_element_2s2p)
from nchydro.specfun import (_ENDPOINT_RULES, gauss_laguerre, spinor_harmonic,
                             spinor_orbital_m)

C = DEFAULT_CONSTANTS
ALPHA = C.alpha
M_E = C.m_e
M3A3 = M_E ** 3 * ALPHA ** 3

# published coefficients these computations are compared against
COEFF_2P32_EV3 = 1.578e6
COEFF_2P12_PRINTED_EV3 = 6.57668e6

# (j, l) of the 25 fine-structure levels with n <= 5; the angular blocks
# depend on nothing else
PARTIAL_WAVES = sorted({(l + s / 2, l) for n in range(1, 6) for l in range(n)
                        for s in (-1, 1) if 2 * l + s > 0})
# the labels of those 25 levels
LEVEL_LABELS = [f"{n}{'SPDFG'[l]}{int(2 * j)}/2" for n in range(1, 6) for j, l in PARTIAL_WAVES
                if l < n]
# (bra, ket) pairs of PARTIAL_WAVES sharing j: the sigma-cross blocks
SAME_J_PAIRS = [(a, b) for a in PARTIAL_WAVES for b in PARTIAL_WAVES if a[0] == b[0]]

# The brute-force reference for the angular blocks: numpy's 64-node
# Gauss-Legendre rule in cos(theta) times the 128-point trapezoid in phi,
# flattened theta-major, with product weights summing to 4 pi
_X, _W = np.polynomial.legendre.leggauss(64)
GRID_THETA = np.repeat(np.arccos(_X), 128)
GRID_PHI = np.tile(2.0 * math.pi * np.arange(128) / 128, 64)
GRID_WEIGHTS = np.repeat(_W, 128) * (2.0 * math.pi / 128)


@lru_cache(maxsize=None)
def _sampled_spinors(j: float, l: int) -> np.ndarray:
    """spinor_harmonic's point values on the grid, shape (2j + 1, 2, points)
    over increasing M."""
    return np.array([[spinor_harmonic(j, l, M, t, p)
                      for t, p in zip(GRID_THETA.tolist(), GRID_PHI.tolist())]
                     for M in shifts.m_values(j)]).transpose(0, 2, 1)


def _brute_block(bra: tuple, ket: tuple, act) -> np.ndarray:
    """<bra, M_a| O |ket, M_b> as the weighted grid sum (numpy's pairwise
    summation over the points); act(upper, lower, M) applies O to the ket's
    sampled components of magnetic number M."""
    acted = np.array([act(*k, M) for k, M in zip(_sampled_spinors(*ket), shifts.m_values(ket[0]))])
    terms = np.conj(_sampled_spinors(*bra))[:, None] * acted[None] * GRID_WEIGHTS
    return terms.sum(axis=-1).sum(axis=-1)


def _level(wave: tuple) -> Level:
    j, l = wave
    return Level.from_quantum_numbers(1, lj_to_kappa(l, j))


def _brute_lz(upper, lower, M):
    m_up, m_dn = spinor_orbital_m(M)
    return m_up * upper, m_dn * lower


def _brute_sigma_cross(upper, lower, M):
    # i sigma.(z-hat x r-hat) = [[0, e^{-i phi} sin th], [-e^{i phi} sin th, 0]]
    top = np.sin(GRID_THETA) * np.exp(-1j * GRID_PHI)
    return top * lower, -np.conj(top) * upper


def _count_series_expansions(monkeypatch) -> list:
    """Record the (state, shift) of every dirac._laguerre_series call."""
    calls, expand = [], dirac._laguerre_series
    monkeypatch.setattr(dirac, "_laguerre_series", lambda state, shift: (
        calls.append((state, shift)) or expand(state, shift)))
    return calls


class TestAngularBlocks:
    def test_2p12_block(self):
        block = lz_block(0.5, 1)
        assert np.allclose(block.matrix, (2.0 / 3.0) * np.diag([-1.0, 1.0]))
        assert np.diag(block.matrix) == pytest.approx([-2.0 / 3.0, 2.0 / 3.0])

    def test_2p32_block(self):
        block = lz_block(1.5, 1)
        diag = np.real(np.diag(block.matrix))
        assert diag == pytest.approx([-1.0, -1.0 / 3.0, 1.0 / 3.0, 1.0])

    def test_s_state_block_vanishes(self):
        block = lz_block(0.5, 0)
        assert np.allclose(block.matrix, 0.0)

    @pytest.mark.parametrize("j,l", [(0.5, 0), (0.5, 1), (1.5, 1), (1.5, 2), (2.5, 2)])
    def test_block_invariants(self, j, l):
        matrix = np.array(lz_block(j, l).matrix)
        assert np.max(np.abs(matrix - np.diag(np.diag(matrix)))) < 1e-12
        assert np.max(np.abs(matrix - matrix.conj().T)) < 1e-12
        assert abs(np.trace(matrix)) < 1e-12  # full multiplet is traceless

    def test_eigenvalues_are_the_sorted_diagonal(self):
        # the block is diagonal in M, so its eigenvalues are its diagonal
        block = lz_block_numeric(1.5, 1)
        diagonal = [row[i] for i, row in enumerate(block.matrix)]
        assert sorted(diagonal) == pytest.approx([-1.0, -1.0 / 3.0, 1.0 / 3.0, 1.0], abs=1e-13)
        assert all(type(v) is float for row in block.matrix for v in row)

    @pytest.mark.parametrize("j,l", PARTIAL_WAVES)
    def test_numeric_matches_closed(self, j, l):
        # the 16-node sphere rule is exact for these blocks
        numeric = lz_block_numeric(j, l)
        closed = lz_block(j, l)
        assert np.max(np.abs(np.array(numeric.matrix) - np.array(closed.matrix))) <= 1e-13

    @pytest.mark.parametrize("j,l", PARTIAL_WAVES)
    def test_default_rule_matches_fine_grid(self, j, l):
        # the 16-node sphere rule against the brute-force 64 x 128 grid sum
        numeric = np.array(lz_block_numeric(j, l).matrix)
        assert np.max(np.abs(numeric - _brute_block((j, l), (j, l), _brute_lz))) <= 1e-13

    @pytest.mark.parametrize("j,l", PARTIAL_WAVES)
    def test_numeric_off_diagonal_exactly_zero(self, j, l):
        # the phi integral of e^{i (M_b - M_a) phi} is taken exactly
        block = lz_block_numeric(j, l).matrix
        assert all(v == 0j for a, row in enumerate(block) for b, v in enumerate(row) if a != b)

    def test_invalid_pair(self):
        with pytest.raises(ValidationError):
            lz_expectation(2.5, 1, 0.5)


class TestSigmaCrossBlocks:
    def test_within_2p12_vanishes(self):
        level = Level.from_label("2P1/2")
        block = sigma_cross_block(level, level)
        assert np.max(np.abs(block.matrix)) < 1e-12

    def test_within_2p32_vanishes(self):
        level = Level.from_label("2P3/2")
        block = sigma_cross_block(level, level)
        assert np.max(np.abs(block.matrix)) < 1e-12

    def test_2s_to_2p12(self):
        block = sigma_cross_block(Level.from_label("2S1/2"), Level.from_label("2P1/2"))
        expected = (2.0 / 3.0) * np.diag([1.0, -1.0])
        assert np.max(np.abs(block.matrix - expected)) < 1e-12

    @pytest.mark.parametrize("bra,ket", SAME_J_PAIRS)
    def test_default_rule_matches_fine_grid(self, bra, ket):
        # the 16-node sphere rule against the brute-force 64 x 128 grid sum
        block = np.array(sigma_cross_block(_level(bra), _level(ket)).matrix)
        assert np.max(np.abs(block - _brute_block(bra, ket, _brute_sigma_cross))) <= 1e-13

    @pytest.mark.parametrize("bra,ket", SAME_J_PAIRS)
    def test_off_diagonal_exactly_zero(self, bra, ket):
        # the phi integral of e^{i (M_b - M_a) phi} is taken exactly
        block = sigma_cross_block(_level(bra), _level(ket)).matrix
        assert all(v == 0j for a, row in enumerate(block) for b, v in enumerate(row) if a != b)

    def test_requires_shared_j(self):
        with pytest.raises(ValidationError):
            sigma_cross_block(Level.from_label("2S1/2"), Level.from_label("2P3/2"))

    def test_each_legendre_profile_is_computed_once_per_block(self, monkeypatch):
        # one profile of Y_lm over the 16 nodes per (l, m) of the block: the
        # spinors of adjacent M share one m, and equal waves share all
        calls, legendre = [], specfun._norm_legendre

        def recording(l, m, cos_theta, sin_theta):
            calls.append((l, m))
            return legendre(l, m, cos_theta, sin_theta)

        for module in (specfun, shifts):
            monkeypatch.setattr(module, "_norm_legendre", recording, raising=False)
        for block, expected in [
                (lambda: lz_block_numeric(1.5, 2), {(2, m) for m in range(-2, 3)}),
                (lambda: sigma_cross_block(Level.from_label("2P3/2"),
                                           Level.from_label("2P3/2")),
                 {(1, m) for m in range(-1, 2)}),
                (lambda: sigma_cross_block(Level.from_label("2S1/2"),
                                           Level.from_label("2P1/2")),
                 {(0, 0)} | {(1, m) for m in range(-1, 2)})]:
            calls.clear()
            block()
            assert sorted(calls) == sorted(list(expected) * 16)


class TestRadialClosedForms:
    def test_2p32_magnitude(self):
        # closed form evaluates to (m a)^3 / 15 = m^3 alpha^3 / 120 up to O(alpha^2)
        s = make_state(0, -2, 0.5)
        val = radial_integral_closed(s, "sum")
        assert val == pytest.approx(M3A3 / 120.0, rel=1e-4)

    def test_2p32_reproduces_published_coefficient(self):
        s = make_state(0, -2, 0.5)
        coeff = (ALPHA / 2.0) * radial_integral_closed(s, "sum")
        assert coeff == pytest.approx(COEFF_2P32_EV3, rel=0.01)

    def test_mass_scaling(self):
        s1 = make_state(0, -2, 0.5)
        s2 = make_state(0, -2, 0.5, C.with_(m_e=2.0 * M_E))
        ratio = radial_integral_closed(s2, "sum") / radial_integral_closed(s1, "sum")
        assert ratio == pytest.approx(8.0, rel=1e-9)

    def test_diff_over_sum_to_one_at_small_alpha(self):
        weak = C.with_(alpha=5.0e-4)
        s = make_state(0, -2, 0.5, weak)
        ratio = radial_integral_closed(s, "diff") / radial_integral_closed(s, "sum")
        assert abs(ratio - 1.0) < 1e-6

    def test_bad_kind(self):
        s = make_state(0, -2, 0.5)
        with pytest.raises(ValidationError):
            radial_integral_closed(s, "product")


class TestRadialQuadrature:
    def test_2p32_matches_nonrelativistic_moment(self):
        s = make_state(0, -2, 0.5)
        res = radial_integral_quadrature(s, "sum")
        assert res.converged
        assert res.value == pytest.approx(M3A3 / 24.0, rel=1e-3)

    def test_2p12_sampled_value_near_nonrelativistic_moment(self):
        s = make_state(1, 1, 0.5)
        res = radial_integral_quadrature(s, "sum")
        assert not res.converged  # nonintegrable endpoint
        assert res.value == pytest.approx(M3A3 / 24.0, rel=0.05)

    def test_exact_rule_for_kappa_ge_2(self):
        # a polynomial against x^(2nu-3) e^-x: the Laguerre series has n_r + 1
        # terms, and its drift is its rounding bound
        s = make_state(2, 3, 0.5)
        res = radial_integral_quadrature(s, "diff")
        assert res.order == s.n_r + 1
        assert res.converged and res.drift <= 1e-13
        rule = gauss_laguerre(40, 2.0 * s.nu - 3.0)
        pf, pg = radial_polynomials(s, np.array(rule.nodes))
        reference = s.norm ** 2 * float(np.sum(np.array(rule.weights) * (pf * pf - pg * pg)))
        assert res.value == pytest.approx(reference, rel=1e-13)

    def test_diff_to_sum_ratio_small_alpha(self):
        # g -> 0 with alpha, so the diff and sum integrals of 2P3/2 meet
        s = make_state(0, -2, 0.5, C.with_(alpha=5.0e-4))
        ratio = (radial_integral_quadrature(s, "diff").value
                 / radial_integral_quadrature(s, "sum").value)
        assert abs(ratio - 1.0) < 1e-6

    def test_cross_integral_against_schrodinger_oracle(self):
        # nonrelativistic value: int R20 R21 / r dr = 1/(8 sqrt(3) a0^3)
        res = cross_radial_integral_quadrature()
        expected = M3A3 / (8.0 * math.sqrt(3.0))
        assert abs(res.value) == pytest.approx(expected, rel=5e-3)

    def test_cross_closed_form_uses_shared_energy(self):
        # the degenerate n = 2, |kappa| = 1 energy appears inside the formula
        nu1 = math.sqrt(1.0 - ALPHA ** 2)
        e1 = M_E / math.sqrt(1.0 + (ALPHA / (1.0 + nu1)) ** 2)
        assert e1 == pytest.approx(dirac_energy(1, 1), rel=1e-14)
        assert cross_radial_integral_closed() == pytest.approx(13.0 / 96.0 * M3A3, rel=1e-3)

    @pytest.mark.parametrize("alpha", [ALPHA, 1e-3, 0.05, 0.3])
    def test_cross_closed_form_is_the_2p12_diff_form(self, alpha):
        # one closed form at one energy: the 2P1/2 state's own
        c = C.with_(alpha=alpha)
        assert cross_radial_integral_closed(c) == radial_integral_closed(
            make_state(1, 1, 0.5, c), "diff")


class TestLevelShift:
    def test_2p32_pattern(self):
        report = level_shift("2P3/2", 1.0e-19)
        mags = sorted(abs(c) for c in report.coefficients)
        assert mags[0] == mags[1]
        assert mags[2] == mags[3]
        assert mags[3] == pytest.approx(COEFF_2P32_EV3, rel=0.01)
        assert mags[3] / mags[0] == pytest.approx(3.0, rel=1e-12)

    def test_symmetric_pairs(self):
        report = level_shift("2P1/2", 2.0e-19)
        assert report.shifts_eV[0] == pytest.approx(-report.shifts_eV[1], rel=1e-14)

    def test_theta_zero_gives_zero_shifts(self):
        report = level_shift("2P3/2", 0.0)
        assert all(s == 0.0 for s in report.shifts_eV)

    def test_s_level_unshifted_by_scalar_channel(self):
        report = level_shift("2S1/2", 1.0e-19)
        assert all(s == 0.0 for s in report.shifts_eV)

    def test_report_is_flagged_and_carries_both_routes(self):
        report = level_shift("2P1/2", 1.0e-19)
        assert report.flagged
        assert report.rho1 != pytest.approx(report.rho1_quadrature, rel=1e-3)
        assert len(report.coefficients_quadrature) == len(report.coefficients)

    def test_quadrature_provenance(self):
        # |kappa| = 1: a divergent integral sampled at order 2 x 80
        report = level_shift("2P1/2", 1.0e-19)
        assert report.quadrature_order == 160
        assert report.quadrature_drift > 1e-10
        assert "order 160" in report.notes[0]
        assert report.quadrature_route == "endpoint_sample"
        # |kappa| >= 2: the exact Laguerre series, n_r + 1 terms, its rounding
        # bound as drift
        for label in ("2P3/2", "5D5/2"):
            report = level_shift(label, 1.0e-19)
            assert report.quadrature_route == "laguerre_series"
            assert report.quadrature_order == Level.from_label(label).n_r + 1
            assert report.quadrature_drift <= 1e-13
            d = report.as_dict()
            assert (d["quadrature_route"], d["quadrature_order"], d["quadrature_drift"]) == (
                report.quadrature_route, report.quadrature_order, report.quadrature_drift)

    def test_warm_kappa_ge_2_reads_the_level_memo(self, monkeypatch):
        level = Level.from_label("3D5/2")
        cold = level_shift(level, 1.0e-19)
        calls = _count_series_expansions(monkeypatch)
        assert level_shift(level, 1.0e-19) == cold
        assert calls == []

    def test_only_the_first_state_sums_its_norm(self, monkeypatch):
        # building a 3D5/2 Level sums exactly one norm: its five other states
        # are the first with M replaced
        calls = _count_series_expansions(monkeypatch)
        level = Level.from_label("3D5/2")
        first = level.states[0]
        assert [(state[:3], shift) for state, shift in calls] == [(first[:3], 0)]
        assert level.states == tuple(first._replace(M=m) for m in level.m_basis)
        level_shift(level, 1.0e-19)
        assert calls[1:] == [(first, -3)]

    def test_kappa_1_is_sampled_on_every_call(self, monkeypatch):
        # the divergent |kappa| = 1 integrals have no series to keep
        level = Level.from_label("2P1/2")
        level_shift(level, 1.0e-19)
        calls, sample = [], shifts.adaptive_sampled_endpoint
        monkeypatch.setattr(shifts, "adaptive_sampled_endpoint", lambda func: (
            calls.append(func) or sample(func)))
        for warm in (1, 2):
            report = level_shift(level, 1.0e-19)
            assert (report.quadrature_route, report.quadrature_order) == ("endpoint_sample", 160)
            assert len(calls) == 2 * warm  # one sample per kind, sum and diff
        sampled = radial_integral_quadrature(level.states[0])
        assert (sampled.value, sampled.order) == (report.rho1_quadrature, 160)

    def test_kappa_1_sum_and_diff_share_one_evaluation_per_node(self, monkeypatch):
        level = Level.from_label("3S1/2")
        points, overlap_at = [], shifts._overlap_at

        def recording(*args):
            at = overlap_at(*args)
            return lambda x: points.append(x) or at(x)

        monkeypatch.setattr(shifts, "_overlap_at", recording)
        level_shift(level, 1.0e-19)
        nodes = _ENDPOINT_RULES[80][0] + _ENDPOINT_RULES[160][0]
        assert sorted(points) == sorted(nodes)

    @pytest.mark.parametrize("label, bounds", [("2P1/2", 1), ("3D5/2", 1), ("2S1/2", 0)])
    def test_first_call_derives_the_closed_form_once(self, monkeypatch, label, bounds):
        calls, closed, bound = [], shifts.radial_integral_closed, shifts.theta_bound
        monkeypatch.setattr(shifts, "radial_integral_closed", lambda state, kind: (
            calls.append(kind) or closed(state, kind)))
        monkeypatch.setattr(shifts, "theta_bound", lambda *args: (
            calls.append("bound") or bound(*args)))
        level = Level.from_label(label)  # fresh: nothing derived yet
        level_shift(level, 1.0e-19)
        assert sorted(calls) == ["bound"] * bounds + ["diff", "sum"]
        for theta in (0.0, 1.0e-19, 3.7e-21):
            level_shift(level, theta)
        assert len(calls) == 2 + bounds

    @pytest.mark.parametrize("label", ["1S1/2", "2P1/2", "2P3/2", "5G9/2"])
    def test_shifts_are_the_kept_coefficients_times_theta(self, label):
        level = Level.from_label(label)
        r1, r2 = level_shift(level, 1.0e-19), level_shift(level, 3.7e-21)
        assert r1.coefficients is r2.coefficients
        assert r1.theta_bound is r2.theta_bound
        for report, theta in ((r1, 1.0e-19), (r2, 3.7e-21)):
            assert report.shifts_eV == tuple(c * theta for c in report.coefficients)

    def test_warm_level_equals_a_cold_one(self):
        warm, cold = Level.from_label("2P3/2"), Level.from_label("2P3/2")
        level_shift(warm, 1.0e-19)
        assert "closed_form" in vars(warm) and "closed_form" not in vars(cold)
        assert warm == cold
        assert hash(warm) == hash(cold)
        assert repr(warm) == repr(cold)

    @pytest.mark.parametrize("label", [lbl for lbl in LEVEL_LABELS if not lbl.endswith("1/2")])
    def test_warm_kappa_ge_2_reports_share_the_level_fields(self, label):
        # every theta-independent field is the memo's one object
        level = Level.from_label(label)
        level_shift(level, 1.0e-19)
        r1, r2 = level_shift(level, 1.0e-19), level_shift(level, 3.7e-21)
        assert r1.notes  # not the empty tuple, which is one object anyway
        for name in ("coefficients_quadrature", "notes", "eigenvalues"):
            assert getattr(r1, name) is getattr(r2, name), name

    @pytest.mark.parametrize("label", LEVEL_LABELS)
    def test_warm_report_equals_a_fresh_levels(self, label):
        warm = Level.from_label(label)
        level_shift(warm, 1.0e-19)
        for theta in (0.0, 1.0e-24, 1.0e-20, 1.0e-16):
            fresh = level_shift(Level.from_label(label), theta)
            report = level_shift(warm, theta)
            assert report == fresh
            assert report.as_dict() == fresh.as_dict()

    def test_report_is_a_named_tuple_of_its_fields(self):
        report = level_shift("2P3/2", 1.0e-19)
        assert shifts.ShiftReport._fields == (
            "label", "theta", "eigenvalues", "rho1", "rho2", "rho1_quadrature",
            "rho2_quadrature", "quadrature_converged", "quadrature_route", "quadrature_order",
            "quadrature_drift", "coefficients", "coefficients_quadrature", "shifts_eV",
            "theta_bound", "flagged", "notes")
        label, theta, *_, notes = report
        assert (label, theta, notes) == ("2P3/2", 1.0e-19, report.notes)
        assert report == tuple(report) and hash(report) == hash(tuple(report))

    @pytest.mark.parametrize("label", ["2P1/2", "3D5/2", "2S1/2"])
    def test_bound_builds_no_report(self, monkeypatch, capsys, label):
        # a report at a theta is the level's report with theta replaced
        thetas, replace = [], shifts.ShiftReport._replace

        def replace_recording_theta(report, **changes):
            if "theta" in changes:
                thetas.append(changes["theta"])
            return replace(report, **changes)

        def no_shift(*args, **kwargs):
            raise AssertionError("level_shift called")

        monkeypatch.setattr(shifts.ShiftReport, "_replace", replace_recording_theta)
        level_shift(label, 1.0e-19)
        assert thetas == [1.0e-19]  # the positive control: a shift records its theta
        monkeypatch.setattr(shifts, "level_shift", no_shift)
        with pytest.raises(AssertionError, match="level_shift called"):
            cli.main(["shift", label, "--theta", "1e-19"])  # and goes through level_shift
        assert cli.main(["bound", label, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["label"] == label
        assert thetas == [1.0e-19]

    def test_level_constants_set_alpha(self):
        # a Level built with other constants must not mix in the defaults
        other = C.with_(alpha=1.0e-3)
        level = Level.from_label("2P3/2", other)
        report = level_shift(level, 1.0e-19)
        assert report == level_shift(level, 1.0e-19, other)
        assert report == level_shift("2P3/2", 1.0e-19, other)
        with pytest.raises(ValidationError):
            level_shift(level, 1.0e-19, C)

    @given(st.floats(min_value=1e-24, max_value=1e-18))
    def test_linearity(self, theta):
        r1 = level_shift("2P3/2", theta)
        r2 = level_shift("2P3/2", 2.0 * theta)
        for a, b in zip(r1.shifts_eV, r2.shifts_eV):
            assert b == pytest.approx(2.0 * a, rel=1e-12)

    def test_negative_theta_rejected(self):
        with pytest.raises(ValidationError):
            level_shift("2P3/2", -1.0e-19)

    def test_non_finite_theta_rejected(self):
        for theta in (math.nan, math.inf):
            with pytest.raises(ValidationError):
                level_shift("2P3/2", theta)
            with pytest.raises(ValidationError):
                transition_element_2s2p(theta)


class TestTransitionElement:
    def test_zero_at_zero_theta(self):
        assert transition_element_2s2p(0.0) == 0.0

    def test_closed_form_value(self):
        # (alpha^2/4)(2/3)(13/96) m^3 alpha^3 up to O(alpha^2)
        val = transition_element_2s2p(1.0)
        assert val == pytest.approx((13.0 / 576.0) * M3A3 * ALPHA ** 2, rel=1e-3)

    def test_quadrature_ratio_to_2p12_splitting_is_alpha(self):
        theta = 1.0e-19
        element = transition_element_2s2p(theta, method="quadrature")
        report = level_shift("2P1/2", theta)
        split = max(abs(s) for s in report.coefficients_quadrature) * theta
        assert element / split == pytest.approx(ALPHA, rel=0.2)

    def test_linear_in_theta(self):
        v1 = transition_element_2s2p(3.0e-20)
        v2 = transition_element_2s2p(6.0e-20)
        assert v2 == pytest.approx(2.0 * v1, rel=1e-12)


class TestThetaBound:
    def test_published_2p12_coefficient_gives_4gev(self):
        bound = theta_bound(COEFF_2P12_PRINTED_EV3, 80.0)
        assert bound.gev_scale == pytest.approx(4.0, rel=0.15)

    def test_2p32_coefficients(self):
        assert theta_bound(COEFF_2P32_EV3, 80.0).gev_scale == pytest.approx(2.0, rel=0.15)
        assert theta_bound(COEFF_2P32_EV3 / 3.0, 80.0).gev_scale == pytest.approx(1.2, rel=0.15)

    def test_doubling_accuracy_doubles_theta(self):
        b1 = theta_bound(1.0e6, 80.0)
        b2 = theta_bound(1.0e6, 160.0)
        assert b2.theta_max_ev2 == pytest.approx(2.0 * b1.theta_max_ev2, rel=1e-14)

    def test_invalid_inputs(self):
        with pytest.raises(DomainError):
            theta_bound(-1.0, 80.0)
        with pytest.raises(DomainError):
            theta_bound(1.0e6, 0.0)

    def test_non_finite_rejected(self):
        for coefficient, accuracy in ((math.nan, 80.0), (math.inf, 80.0),
                                      (1.0e6, math.nan), (1.0e6, math.inf),
                                      (1.0e6, True), ("1e6", 80.0)):
            with pytest.raises(DomainError):
                theta_bound(coefficient, accuracy)
