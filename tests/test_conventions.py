"""Each quantum-number convention is decided in one place.

specfun.check_integer is the only integer test, specfun.lj_to_kappa the
only test of j = l +/- 1/2 and specfun.check_magnetic the only half-integer
test; dirac._check_level is the only bound-state test of (n_r, kappa) and
nonrel._check_nl the only (n, l) test.  Every fine-structure factor follows
from kappa, and every entry point rejects what they reject.  Likewise
constants.check_theta (a finite real theta >= 0, through
constants.finite_real) and the level-label parser decide alone which theta
and which label an entry point takes.
"""

import math
import re
from fractions import Fraction

import numpy as np
import pytest

from nchydro.constants import DEFAULT_CONSTANTS, ThetaTensor, ev2_to_gev_scale, finite_real
from nchydro.dirac import (deformed_potential, dirac_binding_energy, dirac_energy,
                           kappa_to_lj, lj_to_kappa, make_state, parse_level_label)
from nchydro.errors import DomainError, ValidationError
from nchydro.nonrel import (SchrodingerState, _spin_orbit, expectation_p2,
                            expectation_p4_physical, expectation_table,
                            fine_structure_dirac_expansion, fine_structure_shift,
                            pi_delta_expectation, r_inverse_moment,
                            nc_hyperfine_shift, r_inverse_moment_quadrature, radial_R,
                            radial_R_prime, s_state_shift, schrodinger_energy)
from nchydro.shifts import (Level, level_shift, lz_expectation, perturbation_kernels,
                            radial_integral_closed, radial_integral_quadrature,
                            selection_allowed, transition_element_2s2p)
from nchydro.specfun import (laguerre_general, spherical_harmonic, spinor_clebsch,
                             spinor_harmonic)

STATES = [(l, j, -j + k) for l in range(7) for j in ((l - 0.5, l + 0.5) if l else (0.5,))
          for k in range(int(2 * j) + 1)]


@pytest.mark.parametrize("l,j,M", STATES, ids=[f"l{l}-j{j}-M{M}" for l, j, M in STATES])
def test_factors_follow_from_kappa(l, j, M):
    kappa = lj_to_kappa(l, j)
    upper = kappa < 0  # j = l + 1/2
    assert kappa_to_lj(kappa) == (l, j)
    assert kappa == (-(l + 1) if j > l else l)

    lz = lz_expectation(j, l, M)
    assert lz == M * (1.0 + 1.0 / (2.0 * kappa + 1.0))
    # bit for bit the (l, j) form M (1 -/+ 1/(2l+1)), upper sign for j = l + 1/2
    assert lz == M * ((1.0 - 1.0 / (2.0 * l + 1.0)) if upper else (1.0 + 1.0 / (2.0 * l + 1.0)))

    state = SchrodingerState(n=l + 1, l=l, j=j, m_j=M)
    assert state.kappa == kappa
    assert state.branch == (1 if upper else -1)
    assert _spin_orbit(kappa) == j * (j + 1.0) - l * (l + 1.0) - 0.75
    if l >= 1:
        table = expectation_table(state, 1.0)
        assert table.l_z == lz
        assert table.sigma_L_over_r3 == _spin_orbit(kappa) * r_inverse_moment(l + 1, l, 3)

    # |c_up|^2 = (1 - 2M/(2 kappa + 1))/2, and c_up < 0 exactly on the j = l - 1/2 branch
    c_up, c_dn = spinor_clebsch(j, l, M)
    assert c_up ** 2 == pytest.approx(0.5 * (1.0 - 2.0 * M / (2.0 * kappa + 1.0)), abs=1e-15)
    assert c_dn ** 2 == pytest.approx(0.5 * (1.0 + 2.0 * M / (2.0 * kappa + 1.0)), abs=1e-15)
    assert math.copysign(1.0, c_up) == (1.0 if upper else -1.0)


PAIRS = sorted({(l, j) for l, j, _ in STATES})


@pytest.mark.parametrize("l,j", PAIRS, ids=[f"l{l}-j{j}" for l, j in PAIRS])
def test_level_eigenvalues_are_lz(l, j):
    level = Level.from_quantum_numbers(1, lj_to_kappa(l, j))
    assert level_shift(level, 0.0).eigenvalues == tuple(
        lz_expectation(j, l, M) for M in level.m_basis)


# j = l +/- 3/2, and j = -1/2 with l = 0 (which the branch formula would map to kappa = 0)
BAD_PAIRS = [(1, 2.5), (1, -0.5), (2, 3.5), (2, 0.5), (0, 1.5), (0, -0.5)]
PAIR_ENTRY_POINTS = {
    "lj_to_kappa": lambda l, j: lj_to_kappa(l, j),
    "spinor_harmonic": lambda l, j: spinor_harmonic(j, l, 0.5, 0.3, 0.2),
    "lz_expectation": lambda l, j: lz_expectation(j, l, 0.5),
    "SchrodingerState": lambda l, j: SchrodingerState(n=l + 3, l=l, j=j, m_j=0.5),
    "fine_structure_shift": lambda l, j: fine_structure_shift(l + 3, l, j),
}
# 2P3/2 (kappa = -2) with a magnetic number that is not a half-integer
BAD_M = [1.0, 0.0, -1, 0.25, math.nan, "1/2", True]
M_ENTRY_POINTS = {
    "make_state": lambda M: make_state(1, -2, M),
    "spinor_harmonic": lambda M: spinor_harmonic(1.5, 1, M, 0.3, 0.2),
    "lz_expectation": lambda M: lz_expectation(1.5, 1, M),
    "SchrodingerState": lambda M: SchrodingerState(n=2, l=1, j=1.5, m_j=M),
}
# (n_r, kappa) pairs that name no bound level: n_r or kappa not an integer
# (bools and 1.0-style floats included), n_r < 0, and n_r = 0 with kappa > 0
BAD_LEVELS = ([(n_r, -1) for n_r in (-1, 1.5, True)] + [(0, 1)]
              + [(1, kappa) for kappa in (1.5, -1.0, True)])
LEVEL_ENTRY_POINTS = {
    "dirac_energy": dirac_energy,
    "dirac_binding_energy": dirac_binding_energy,
    "make_state": lambda n_r, kappa: make_state(n_r, kappa, 0.5),
    "Level.from_quantum_numbers": Level.from_quantum_numbers,
}
# (n, l) outside integers 0 <= l < n, and the bad n among them
BAD_NL = [(0, 0), (2.5, 1), (2, 2), (2, 1.5), (True, 0)]
BAD_N = [0, 2.5, True]
NL_ENTRY_POINTS = {
    "SchrodingerState": lambda n, l: SchrodingerState(n=n, l=l, j=l + 0.5, m_j=0.5),
    "radial_R": lambda n, l: radial_R(n, l, 1.0),
    "radial_R_prime": lambda n, l: radial_R_prime(n, l, 1.0),
    "r_inverse_moment": lambda n, l: r_inverse_moment(n, l, 3),
    "r_inverse_moment_quadrature": lambda n, l: r_inverse_moment_quadrature(n, l, 3),
    "expectation_p2": expectation_p2,
    "expectation_p4_physical": expectation_p4_physical,
    "pi_delta_expectation": pi_delta_expectation,
    "fine_structure_shift": lambda n, l: fine_structure_shift(n, l, l + 0.5),
}
N_ENTRY_POINTS = {
    "schrodinger_energy": schrodinger_energy,
    "fine_structure_dirac_expansion": lambda n: fine_structure_dirac_expansion(n, 0.5),
}
# j that no l < n = 2 carries: not a positive half-integer, or above n - 1/2
BAD_J_AT_N2 = [-0.5, 7.5, 1.0, 2.5, math.nan]
# theta (eV^-2) that is not a finite real >= 0: a bool and a str are not numbers
BAD_THETA = [True, "1e-19", None, math.nan, math.inf, -1.0]
THETA_ENTRY_POINTS = {
    "level_shift": lambda theta: level_shift("2P3/2", theta),
    "transition_element_2s2p": transition_element_2s2p,
    "perturbation_kernels": lambda theta: perturbation_kernels(
        make_state(1, 1, 0.5), theta, [1.0, 0.0, 0.0]),
    "s_state_shift": s_state_shift,
    "expectation_table": lambda theta: expectation_table(
        SchrodingerState(n=2, l=1, j=1.5, m_j=0.5), theta),
    "nc_hyperfine_shift": lambda theta: nc_hyperfine_shift(
        SchrodingerState(n=2, l=1, j=1.5, m_j=0.5), theta),
    "ev2_to_gev_scale": ev2_to_gev_scale,
}
# level labels that are not a str
BAD_LABELS = [2, None, b"2P3/2"]
LABEL_ENTRY_POINTS = {
    "level_shift": lambda label: level_shift(label, 1.0e-19),
    "Level.from_label": Level.from_label,
    "parse_level_label": parse_level_label,
}
REJECTED = (
    [pytest.param(call, (l, j), id=f"{name}-l{l}-j{j}")
     for name, call in PAIR_ENTRY_POINTS.items() for l, j in BAD_PAIRS]
    + [pytest.param(call, (M,), id=f"{name}-M{M!r}")
       for name, call in M_ENTRY_POINTS.items() for M in BAD_M]
    + [pytest.param(call, (0,), id=f"{name}-kappa0")
       for name, call in {"kappa_to_lj": kappa_to_lj,
                          "make_state": lambda kappa: make_state(1, kappa, 0.5),
                          "dirac_energy": lambda kappa: dirac_energy(1, kappa)}.items()]
    + [pytest.param(call, pair, id=f"{name}-n_r{pair[0]!r}-kappa{pair[1]!r}")
       for name, call in LEVEL_ENTRY_POINTS.items() for pair in BAD_LEVELS]
    + [pytest.param(call, pair, id=f"{name}-n{pair[0]!r}-l{pair[1]!r}")
       for name, call in NL_ENTRY_POINTS.items() for pair in BAD_NL]
    + [pytest.param(call, (n,), id=f"{name}-n{n!r}")
       for name, call in N_ENTRY_POINTS.items() for n in BAD_N]
    + [pytest.param(fine_structure_dirac_expansion, (2, j),
                    id=f"fine_structure_dirac_expansion-n2-j{j!r}") for j in BAD_J_AT_N2]
    + [pytest.param(call, (theta,), id=f"{name}-theta{theta!r}")
       for name, call in THETA_ENTRY_POINTS.items() for theta in BAD_THETA]
    + [pytest.param(call, (label,), id=f"{name}-label{label!r}")
       for name, call in LABEL_ENTRY_POINTS.items() for label in BAD_LABELS]
)


@pytest.mark.parametrize("call,args", REJECTED)
def test_rejected_at_every_entry_point(call, args):
    with pytest.raises(ValidationError):
        call(*args)


# Arguments outside an entry point's own domain, each rejected by that entry
# point's own check
OUT_OF_DOMAIN = [
    pytest.param(DomainError, "vanishing denominator", lambda: radial_integral_closed(
        make_state(0, -1, 0.5, DEFAULT_CONSTANTS.with_(alpha=math.sqrt(0.75)))),
        id="radial_integral_closed-1S1/2-nu-1/2"),
    pytest.param(DomainError, "3-vector", lambda: perturbation_kernels(
        make_state(0, -2, 0.5), 1.0e-19, [1.0, 0.0]), id="perturbation_kernels-2-vector"),
    pytest.param(DomainError, "3-vector", lambda: deformed_potential(
        [1.0, 0.0], ThetaTensor.z_axis(1.0e-19)), id="deformed_potential-2-vector"),
    pytest.param(DomainError, "l >= 1", lambda: fine_structure_shift(2, 0, 0.5),
                 id="fine_structure_shift-l0"),
    pytest.param(DomainError, "r > 0", lambda: radial_R(1, 0, 0.0), id="radial_R-r0"),
    pytest.param(DomainError, "n >= -1", lambda: laguerre_general(-2, 0.0, 1.0),
                 id="laguerre_general-n-2"),
    pytest.param(DomainError, "a > -1", lambda: laguerre_general(1, -1.0, 1.0),
                 id="laguerre_general-a-1"),
    pytest.param(DomainError, "l >= 0", lambda: spherical_harmonic(-1, 0, 0.1, 0.2),
                 id="spherical_harmonic-l-1"),
    pytest.param(ValidationError, "kind must be", lambda: radial_integral_quadrature(
        make_state(0, -2, 0.5), "bogus"), id="radial_integral_quadrature-kind"),
    pytest.param(ValidationError, "method must be", lambda: transition_element_2s2p(
        1.0e-19, method="bogus"), id="transition_element_2s2p-method"),
    pytest.param(ValidationError, "kind must be", lambda: selection_allowed(
        make_state(0, -1, 0.5), make_state(0, -2, 0.5), "bogus"),
        id="selection_allowed-kind"),
]


@pytest.mark.parametrize("error,message,call", OUT_OF_DOMAIN)
def test_out_of_domain_rejected(error, message, call):
    with pytest.raises(error, match=re.escape(message)):
        call()


# finite_real takes a float on a fast path and everything else through the
# numbers.Real check; both must give the same answers
FINITE_REALS = [0.0, -0.0, 1.0e-19, -2.5, 0, 3, -7, np.float64(1.5), np.float64(-0.0),
                Fraction(1, 3)]
NOT_FINITE_REALS = [True, False, "1e-19", "nan", None, b"1", math.nan, math.inf, -math.inf,
                    np.float64(math.nan), np.float64(math.inf), 1j, [1.0]]


@pytest.mark.parametrize("value", FINITE_REALS, ids=repr)
def test_finite_real_accepts(value):
    assert finite_real(value) is True


@pytest.mark.parametrize("value", NOT_FINITE_REALS, ids=repr)
def test_finite_real_rejects(value):
    assert finite_real(value) is False
