import pytest

from nchydro import nonrel, oracle, specfun
from nchydro.cli import main
from nchydro.constants import DEFAULT_CONSTANTS
from nchydro.dirac import make_state
from nchydro.errors import DivergenceError, ValidationError
from nchydro.nonrel import _moment_integrands, r_inverse_moment, r_inverse_moment_quadrature
from nchydro.oracle import (norm_self_consistency, run_all, validate_angular,
                            validate_moments, validate_radial)
from nchydro.specfun import _ENDPOINT_RULES, adaptive_sampled_endpoint, gauss_laguerre

C = DEFAULT_CONSTANTS
MOMENTS_N_LE_6 = [(n, l, k) for n in range(1, 7) for l in range(n) for k in (3, 4, 5)]
CRITERION_6_STATES = [(n_r, kappa) for kappa in (-3, -2, -1, 1, 2, 3) for n_r in range(4)
                      if not (n_r == 0 and kappa > 0)]


def _diverges(n: int, l: int, k: int) -> bool:
    try:
        r_inverse_moment(n, l, k)
    except DivergenceError:
        return True
    return False


@pytest.fixture
def rules_built(monkeypatch):
    """Node counts of every Laguerre rule built (cache cleared first)."""
    built = []
    rule = specfun._laguerre_rule
    rule.cache_clear()

    def recorder(n, beta):
        built.append(n)
        return rule(n, beta)

    monkeypatch.setattr(specfun, "_laguerre_rule", recorder)
    return built


class TestValidateRadial:
    def test_2p32_routes_agree(self):
        report = validate_radial(0, -2, "sum")
        # the quadrature routes self-validate; the closed form is known to
        # disagree with its own defining integral here, which is flagged
        assert report.quad_drift < 1e-8
        assert report.verdict in ("match", "flagged_paper_inconsistency")
        assert report.quadrature == pytest.approx(
            C.m_e ** 3 * C.alpha ** 3 / 24.0, rel=1e-3)

    def test_2p12_flagged_divergent(self):
        report = validate_radial(1, 1, "sum")
        assert report.verdict == "flagged_paper_inconsistency"
        assert "diverges" in report.note

    def test_2s_flagged_divergent(self):
        report = validate_radial(1, -1, "diff")
        assert report.verdict == "flagged_paper_inconsistency"

    def test_high_kappa_match_quality(self):
        report = validate_radial(0, -3, "sum")
        assert report.quad_drift < 1e-10

    def test_cross_reported(self):
        report = validate_radial(0, 0, "cross")
        assert report.verdict in ("match", "flagged_paper_inconsistency")
        assert report.closed_form is not None and report.quadrature is not None

    def test_deterministic(self):
        a = validate_radial(0, -2, "sum")
        b = validate_radial(0, -2, "sum")
        assert a == b

    def test_routes_that_disagree_are_a_mismatch(self, monkeypatch, capsys):
        gauss_pair = oracle._gauss_pair
        monkeypatch.setattr(oracle, "_gauss_pair", lambda state: tuple(
            value * (1.0 + 1e-6) for value in gauss_pair(state)))
        report = validate_radial(0, -2, "sum")
        assert report.verdict == "mismatch"
        assert "Laguerre series and Gauss rule disagree" in report.note
        assert report.quad_drift == pytest.approx(1e-6, rel=1e-3)
        assert main(["verify"]) == 2
        assert "unexpected mismatches" in capsys.readouterr().out


class TestValidateAngular:
    def test_theta_l_2p12(self):
        assert validate_angular("2P1/2", operator="theta_L").verdict == "match"

    def test_theta_l_2p32(self):
        report = validate_angular("2P3/2", operator="theta_L")
        assert report.verdict == "match"
        assert report.rel_error < 1e-10

    def test_sigma_cross_same_parity_zero(self):
        report = validate_angular("2P1/2", "2P1/2", "sigma_cross")
        assert report.verdict == "match"
        assert report.quadrature < 1e-12

    def test_sigma_cross_2s_2p(self):
        report = validate_angular("2S1/2", "2P1/2", "sigma_cross")
        assert report.verdict == "match"
        assert report.closed_form == pytest.approx(2.0 / 3.0, rel=1e-12)

    def test_sigma_cross_p_d_partners(self):
        # l = 1 -> 2 at j = 3/2: the closed diagonal -8M/15, largest 0.8 at |M| = 3/2
        report = validate_angular("2P3/2", "3D3/2", "sigma_cross")
        assert report.verdict == "match"
        assert report.closed_form == 0.8

    def test_unknown_operator_rejected(self):
        with pytest.raises(ValidationError, match="operator"):
            validate_angular("2P1/2", operator="theta_x")


class TestValidateMoments:
    def test_2p_match(self):
        reports = validate_moments(2, 1)
        by_name = {r.name: r for r in reports}
        r3 = by_name["moment <r^-3> (n=2, l=1)"]
        assert r3.verdict == "match"
        assert r3.closed_form == pytest.approx(1.0 / (24.0 * C.bohr_radius ** 3), rel=1e-12)

    def test_3d_all_match(self):
        assert all(r.verdict == "match" for r in validate_moments(3, 2))

    def test_divergent_detected_both_paths(self):
        reports = validate_moments(4, 1)
        r5 = [r for r in reports if "<r^-5>" in r.name][0]
        assert r5.verdict == "match"
        assert "divergent" in r5.note
        assert r5.closed_form is None

    def test_divergent_moment_has_no_drift(self):
        r5 = validate_moments(4, 1)[2]
        assert (r5.closed_form, r5.quadrature, r5.quad_drift) == (None, None, None)
        assert r5.rel_error == 0.0

    def test_l0_all_divergent(self):
        reports = validate_moments(2, 0)
        assert all("divergent" in r.note for r in reports)

    def test_moment_rules_stay_small(self, rules_built):
        for n in range(1, 7):
            for l in range(n):
                validate_moments(n, l)
        assert max(rules_built) <= 6

    def test_divergent_moments_drift_between_probe_orders(self):
        # the endpoint samples at 80 and 160 nodes, as validate_moments takes them
        divergent = [(n, l, k) for n, l, k in MOMENTS_N_LE_6 if _diverges(n, l, k)]
        assert len(divergent) == 23
        for n, l, k in divergent:
            integrand, = _moment_integrands(n, l, [k])
            result = adaptive_sampled_endpoint(integrand)
            assert result.order == 160 and result.drift > 0.1, (n, l, k)

    def test_laguerre_evaluated_once_per_node_per_rule(self, monkeypatch):
        # the n-node rule serves the finite k of an (n, l), the endpoint
        # tables its divergent k; each evaluates L once per node for all k
        points, lag = [], nonrel.laguerre_general
        monkeypatch.setattr(nonrel, "laguerre_general", lambda *args: (
            points.append(args) or lag(*args)))
        endpoint = _ENDPOINT_RULES[80][0] + _ENDPOINT_RULES[160][0]
        for n in range(1, 7):
            for l in range(n):
                points.clear()
                validate_moments(n, l)
                expected = ((gauss_laguerre(n).nodes if l >= 1 else ())
                            + (endpoint if any(_diverges(n, l, k) for k in (3, 4, 5)) else ()))
                assert sorted(points) == sorted((n - l - 1, 2 * l + 1, x) for x in expected)

    def test_finite_moments_exact_on_n_node_rule(self):
        finite = [(n, l, k) for n, l, k in MOMENTS_N_LE_6 if not _diverges(n, l, k)]
        assert len(finite) == 3 * 21 - 23
        for n, l, k in finite:
            closed = r_inverse_moment(n, l, k)
            quad = r_inverse_moment_quadrature(n, l, k, order=n)
            assert quad == pytest.approx(closed, rel=1e-13, abs=0.0), (n, l, k)
            report = [r for r in validate_moments(n, l) if f"<r^-{k}>" in r.name][0]
            assert report.quadrature == quad


class TestSuite:
    def test_run_all_no_unexpected_mismatches(self):
        reports = run_all()
        assert len(reports) == 112
        mismatches = [r for r in reports if r.verdict == "mismatch"]
        assert mismatches == []

    def test_run_all_samples_each_kappa_1_state_once(self, monkeypatch):
        # one pair of endpoint samples, sum and diff, for each of the 7
        # |kappa| = 1 states and the 2S-2P element; the radial reports are
        # validate_radial's, one kind at a time, in the same order
        from nchydro import shifts

        calls, sample = [], shifts.adaptive_sampled_endpoint
        monkeypatch.setattr(shifts, "adaptive_sampled_endpoint", lambda func: (
            calls.append(func) or sample(func)))
        reports = run_all()
        assert len(calls) == 2 * (7 + 1)
        radial = [validate_radial(n_r, kappa, kind) for n_r, kappa in CRITERION_6_STATES
                  for kind in ("sum", "diff")] + [validate_radial(0, 0, "cross")]
        assert reports[:len(radial)] == radial

    def test_norm_self_consistency_sample(self):
        for n_r, kappa in [(0, -1), (1, 1), (0, -2), (3, -3)]:
            assert norm_self_consistency(n_r, kappa) == pytest.approx(1.0, abs=1e-8)
        # the exact Gauss rule against the exact series: rounding only, on
        # every level with n <= 15 (225 levels, |kappa| = 1 included)
        levels = [(n - abs(kappa), kappa) for n in range(1, 16) for kappa in range(-n, n)
                  if kappa != 0]
        assert len(levels) == 225
        for n_r, kappa in levels:
            assert abs(norm_self_consistency(n_r, kappa) - 1.0) <= 1e-14, (n_r, kappa)

    def test_gauss_route_evaluates_each_node_once(self, monkeypatch):
        # per |kappa| >= 2 state one pass over the beta = 2 nu - 3 rule for
        # the sum and the diff, and one over the beta = 2 nu rule for the norm
        points, polynomials = [], oracle.radial_polynomials
        monkeypatch.setattr(oracle, "radial_polynomials", lambda state, x: (
            points.append((state.n_r, state.kappa, x)) or polynomials(state, x)))
        run_all()
        states = [make_state(n_r, kappa, 0.5) for n_r, kappa in CRITERION_6_STATES
                  if abs(kappa) >= 2]
        assert sorted(points) == sorted(
            (s.n_r, s.kappa, x) for s in states for shift in (-3.0, 0.0)
            for x in gauss_laguerre(s.n_r + 2, 2.0 * s.nu + shift).nodes)

    def test_run_all_builds_only_the_rules_that_depend_on_input(self, monkeypatch):
        # a fresh run_all: the n_r + 2 node rules for beta = 2 nu - 3 and
        # 2 nu of the |kappa| >= 2 states and the n-node moment rules of
        # n = 2 ... 6 (n = 1 has no finite moment); the endpoint and sphere
        # rules are tables
        built, golub_welsch = [], specfun._golub_welsch
        monkeypatch.setattr(specfun, "_golub_welsch", lambda diag, *args: (
            built.append((len(diag), diag[0] - 1.0)) or golub_welsch(diag, *args)))
        specfun._laguerre_rule.cache_clear()
        run_all()
        specfun._laguerre_rule.cache_clear()
        states = [make_state(n_r, kappa, 0.5) for n_r, kappa in CRITERION_6_STATES
                  if abs(kappa) >= 2]
        expected = ({(s.n_r + 2, 2.0 * s.nu + shift) for s in states for shift in (-3.0, 0.0)}
                    | {(n, 0.0) for n in range(2, 7)})
        assert len(built) == len(expected)
        assert sorted(built) == pytest.approx(sorted(expected), rel=1e-15, abs=1e-15)

    def test_no_default_path_builds_a_large_rule(self, rules_built):
        from nchydro.shifts import level_shift, transition_element_2s2p

        kappa_1 = [f"{n}S1/2" for n in range(1, 6)] + [f"{n}P1/2" for n in range(2, 6)]
        for label in kappa_1:
            level_shift(label, 1.0e-19)
        transition_element_2s2p(1.0e-19, method="quadrature")
        run_all()
        for n_r, kappa in CRITERION_6_STATES:
            norm_self_consistency(n_r, kappa)
        assert max(rules_built) < 80  # the endpoint samples build no Golub-Welsch rule

    def test_kappa_1_sampled_at_two_orders(self):
        # |kappa| = 1: the defining integral diverges, so the quadrature is a
        # deterministic sample at order 160 that drifts from the order-80 one
        from nchydro.dirac import make_state
        from nchydro.shifts import radial_integral_quadrature

        for n_r, kappa in ((0, -1), (1, 1)):  # 1S1/2, 2P1/2
            state = make_state(n_r, kappa, 0.5)
            for kind in ("sum", "diff"):
                res = radial_integral_quadrature(state, kind)
                assert res.order == 160
                assert res.converged is False and res.drift > 1e-10
                assert radial_integral_quadrature(state, kind) == res
