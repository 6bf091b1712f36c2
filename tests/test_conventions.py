"""Each quantum-number convention is decided in one place.

specfun.check_integer is the only integer test, specfun.lj_to_kappa the
only test of j = l +/- 1/2 and specfun.check_magnetic the only half-integer
test; dirac._check_level is the only bound-state test of (n_r, kappa) and
nonrel._check_nl the only (n, l) test.  Every fine-structure factor follows
from kappa, and every entry point rejects what they reject.  Likewise
constants.check_theta (a finite real theta >= 0, through
constants.finite_real) and the level-label parser decide alone which theta
and which label an entry point takes, and constants.check_radius and
check_position (through check_triple, which ThetaTensor shares) which radius
and which point.  Every top-level function and class of the package has a
caller in it, or one listed reason to stay (UNREFERENCED).
"""

import ast
import math
import re
from fractions import Fraction
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import nchydro
from nchydro.constants import DEFAULT_CONSTANTS, ThetaTensor, ev2_to_gev_scale, finite_real
from nchydro.dirac import (deformed_potential, dirac_binding_energy, dirac_energy,
                           kappa_to_lj, lj_to_kappa, make_state, parse_level_label, radial_fg)
from nchydro.errors import DomainError, ValidationError
from nchydro.nonrel import (SchrodingerState, _spin_orbit, expectation_p4_physical,
                            expectation_table, fine_structure_shift, nc_hyperfine_shift,
                            r_inverse_moment, r_inverse_moment_quadrature, s_state_shift,
                            schrodinger_energy)
from nchydro.shifts import (Level, level_shift, lz_block, lz_block_numeric, lz_expectation,
                            perturbation_kernels, radial_integral_closed,
                            radial_integral_quadrature, selection_allowed, sigma_cross_block,
                            transition_element_2s2p)
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
    "r_inverse_moment": lambda n, l: r_inverse_moment(n, l, 3),
    "r_inverse_moment_quadrature": lambda n, l: r_inverse_moment_quadrature(n, l, 3),
    "expectation_p4_physical": expectation_p4_physical,
    "fine_structure_shift": lambda n, l: fine_structure_shift(n, l, l + 0.5),
}
N_ENTRY_POINTS = {
    "schrodinger_energy": schrodinger_energy,
}
# theta (eV^-2) that is not a finite real >= 0: a bool and a str are not
# numbers, and 10**400 does not convert to a finite float
BAD_THETA = [True, "1e-19", None, math.nan, math.inf, -1.0, 10**400]
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
# angles that are not finite reals
BAD_ANGLES = [math.nan, math.inf, -math.inf]
ANGLE_ENTRY_POINTS = {
    "spherical_harmonic-theta": lambda a: spherical_harmonic(1, 0, a, 0.2),
    "spherical_harmonic-phi": lambda a: spherical_harmonic(1, 0, 0.3, a),
    "spinor_harmonic-theta": lambda a: spinor_harmonic(1.5, 1, 0.5, a, 0.2),
    "spinor_harmonic-phi": lambda a: spinor_harmonic(1.5, 1, 0.5, 0.3, a),
}
# (l, m) of a spherical harmonic that are not integers
BAD_LM = [(1.0, 0), (True, 0), (2, 1.0)]
# a radius or a point component (eV^-1) that is not a finite real
BAD_COORDINATES = [math.nan, math.inf, -math.inf, True, "1", 10**400]
RADIAL_ENTRY_POINTS = {
    "radial_fg": lambda r: radial_fg(make_state(1, -2, 0.5), r),
}
POSITION_ENTRY_POINTS = {
    "deformed_potential": lambda x: deformed_potential([1.0, x, 0.0],
                                                       ThetaTensor.z_axis(1.0e-19)),
    "perturbation_kernels": lambda x: perturbation_kernels(make_state(1, -2, 0.5), 1.0e-19,
                                                           [1.0, x, 0.0]),
    "ThetaTensor-space_vector": lambda x: ThetaTensor(space_vector=(0.0, x, 1.0e-19)),
    "ThetaTensor-time_row": lambda x: ThetaTensor((0.0, 0.0, 1.0e-19), time_row=(x, 0.0, 0.0)),
}
# Integers beyond the float range: check_integer rejects them before any
# float conversion could raise OverflowError
HUGE_QUANTUM_NUMBERS = [
    pytest.param(make_state, (10**400, -1, 0.5), id="huge-n_r"),
    pytest.param(make_state, (0, 10**400, 0.5), id="huge-kappa"),
    pytest.param(lz_expectation, (1.5, 10**400, 0.5), id="huge-l"),
]
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
    + [pytest.param(call, (theta,), id=f"{name}-theta{theta!r}")
       for name, call in THETA_ENTRY_POINTS.items() for theta in BAD_THETA]
    + [pytest.param(call, (label,), id=f"{name}-label{label!r}")
       for name, call in LABEL_ENTRY_POINTS.items() for label in BAD_LABELS]
    + [pytest.param(call, (a,), id=f"{name}{a!r}")
       for name, call in ANGLE_ENTRY_POINTS.items() for a in BAD_ANGLES]
    + [pytest.param(spherical_harmonic, (l, m, 0.3, 0.2), id=f"spherical_harmonic-l{l!r}-m{m!r}")
       for l, m in BAD_LM]
    + [pytest.param(call, (r,), id=f"{name}-r{r!r}")
       for name, call in RADIAL_ENTRY_POINTS.items() for r in BAD_COORDINATES]
    + [pytest.param(call, (x,), id=f"{name}-component{x!r}")
       for name, call in POSITION_ENTRY_POINTS.items() for x in BAD_COORDINATES]
    + [pytest.param(ThetaTensor.z_axis, (theta,), id=f"ThetaTensor.z_axis-theta{theta!r}")
       for theta in (math.nan, True, "1e-19")]
    + [pytest.param(call, (math.nan, 1), id=f"{call.__name__}-jnan")
       for call in (lz_block, lz_block_numeric)]
    + [pytest.param(sigma_cross_block, ("2S1/2", "2P1/2"), id="sigma_cross_block-labels")]
    + HUGE_QUANTUM_NUMBERS
)


@pytest.mark.parametrize("call,args", REJECTED)
def test_rejected_at_every_entry_point(call, args):
    with pytest.raises(ValidationError):
        call(*args)


# Values whose repr runs to hundreds of characters, at entry points that
# quote the rejected value; the message quotes it cut to a fixed length
LONG_REJECTED = (
    [pytest.param(call, (10**400,), id=f"{name}-theta-huge-int")
     for name, call in THETA_ENTRY_POINTS.items()]
    + [pytest.param(call, (10**400,), id=f"{name}-huge-int")
       for name, call in {**RADIAL_ENTRY_POINTS, **POSITION_ENTRY_POINTS}.items()]
    + [pytest.param(lambda value: DEFAULT_CONSTANTS.with_(m_e=value), (10**400,),
                    id="PhysicalConstants-m_e-huge-int"),
       pytest.param(kappa_to_lj, ("1" * 1000,), id="kappa_to_lj-long-str"),
       pytest.param(lj_to_kappa, (1, 10**400), id="lj_to_kappa-j-huge-int"),
       pytest.param(make_state, (0, -1, 10**400), id="make_state-M-huge-int")]
    + HUGE_QUANTUM_NUMBERS
)


@pytest.mark.parametrize("call, args", LONG_REJECTED)
def test_message_quotes_a_long_value_cut_short(call, args):
    with pytest.raises(ValidationError) as info:
        call(*args)
    assert "..." in str(info.value) and len(str(info.value)) <= 100


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
    pytest.param(OverflowError, "out of float range", lambda: deformed_potential(
        [1.0e-200, 0.0, 0.0], ThetaTensor.z_axis(1.0e-19)), id="deformed_potential-r1e-200"),
    pytest.param(OverflowError, "out of float range", lambda: perturbation_kernels(
        make_state(1, -2, 0.5), 1.0e-19, [1.0e-200, 0.0, 0.0]), id="perturbation_kernels-r1e-200"),
] + [pytest.param(DomainError, "r > 0", partial(call, r), id=f"{name}-r{r:g}")
     for name, call in RADIAL_ENTRY_POINTS.items() for r in (0.0, -1.0)]


@pytest.mark.parametrize("error,message,call", OUT_OF_DOMAIN)
def test_out_of_domain_rejected(error, message, call):
    with pytest.raises(error, match=re.escape(message)):
        call()


# Finite arguments where a term's true value underflows: the term is its
# underflowed limit 0.0, not NaN from an inf intermediate or an exception
UNDERFLOWED = [
    pytest.param(partial(RADIAL_ENTRY_POINTS["radial_fg"], 1.0e308), (0.0, 0.0),
                 id="radial_fg-r1e308"),
    pytest.param(lambda: deformed_potential([1.0e200, 1.0e200, 0.0], ThetaTensor.z_axis(1.0e-19)),
                 (-math.sqrt(DEFAULT_CONSTANTS.alpha) / math.hypot(1.0e200, 1.0e200),
                  (0.0, 0.0, 0.0)), id="deformed_potential-r1.4e200"),
    pytest.param(lambda: perturbation_kernels(make_state(1, -2, 0.5), 1.0e-19,
                                              [1.0e200, 1.0e200, 0.0]),
                 (0.0, (0.0, 0.0, 0.0)), id="perturbation_kernels-r1.4e200"),
]


@pytest.mark.parametrize("call,expected", UNDERFLOWED)
def test_underflowed_terms_are_zero(call, expected):
    assert call() == expected


def test_kernels_near_the_origin_are_their_values():
    # r^3 underflows at r = 1e-110, but both kernels are finite there: each
    # is its exact rational value rounded, within two ulps
    state, theta, r = make_state(1, -2, 0.5), 1.0e-19, 1.0e-110
    scalar, (vx, vy, vz) = perturbation_kernels(state, theta, [r, 0.0, 0.0])
    alpha = Fraction(DEFAULT_CONSTANTS.alpha)
    lz = Fraction(lz_expectation(state.j, state.l, state.M))
    assert scalar == pytest.approx(float(-alpha / 2 * Fraction(theta) * lz / Fraction(r) ** 3),
                                   rel=4.5e-16)
    assert vy == pytest.approx(float(-alpha ** 2 / 4 * Fraction(theta) / Fraction(r) ** 3),
                               rel=4.5e-16)
    assert (vx, vz) == (0.0, 0.0)


# finite_real takes a float on a fast path and everything else through the
# numbers.Real check; both must give the same answers
FINITE_REALS = [0.0, -0.0, 1.0e-19, -2.5, 0, 3, -7, np.float64(1.5), np.float64(-0.0),
                Fraction(1, 3)]
NOT_FINITE_REALS = [True, False, "1e-19", "nan", None, b"1", math.nan, math.inf, -math.inf,
                    np.float64(math.nan), np.float64(math.inf), 1j, [1.0], 10**400]


@pytest.mark.parametrize("value", FINITE_REALS, ids=repr)
def test_finite_real_accepts(value):
    assert finite_real(value) is True


@pytest.mark.parametrize("value", NOT_FINITE_REALS, ids=repr)
def test_finite_real_rejects(value):
    assert finite_real(value) is False


# Every top-level function and class of the package, and every method of a
# class but its dunders, that no package module names, with the one reason
# it stays.  A new unreferenced name fails, and
# so does a name here that was deleted or gained a caller: the list only
# shrinks.
UNREFERENCED = {
    "constants.ThetaTensor.z_axis": "constructor for the deformed_potential tests; waits "
                                    "on direction 3",
    "dirac.deformed_potential": "waits on direction 3's 3-D route",
    "dirac.dirac_energy": "README library list",
    "dirac.radial_fg": "README library list",
    "oracle.norm_self_consistency": "acceptance-test import",
    "shifts.perturbation_kernels": "waits on direction 3's 3-D route",
    "shifts.radial_integral_quadrature": "README library list; WRAPPED table of "
                                         "perfbench/tracer.py",
    "shifts.selection_allowed": "waits on direction 10's transition element",
    "shifts.transition_element_2s2p": "README library list",
    "specfun.adaptive_weighted": "WRAPPED table of perfbench/tracer.py",
    "specfun.spherical_harmonic": "test reference for spinor_harmonic",
    "specfun.spinor_harmonic": "waits on direction 3's 3-D route",
}


def test_every_unreferenced_definition_has_a_reason():
    # a reference is a name or an attribute in any package module; the
    # strings of __all__ and of the lazy name table do not count
    defined, referenced = set(), set()
    for path in Path(nchydro.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined.update(f"{path.stem}.{node.name}" for node in tree.body
                       if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                       and not (path.stem == "__init__" and node.name.startswith("__")))
        defined.update(f"{path.stem}.{node.name}.{member.name}" for node in tree.body
                       if isinstance(node, ast.ClassDef) for member in node.body
                       if isinstance(member, ast.FunctionDef)
                       and not (member.name.startswith("__") and member.name.endswith("__")))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    unreferenced = {name for name in defined if name.split(".")[-1] not in referenced}
    assert sorted(unreferenced) == sorted(UNREFERENCED)


# The package's dataclasses, each with the one reason it is not a named
# tuple: none.  Every value type is a named tuple, and importing dataclasses
# (which loads inspect, ast, dis and tokenize) costs every CLI process
# milliseconds; a new dataclass, or a module that imports dataclasses, fails.
DATACLASSES = {}


def _is_dataclass_decorator(node) -> bool:
    # @dataclass, @dataclass(...), @dataclasses.dataclass(...)
    target = node.func if isinstance(node, ast.Call) else node
    return (getattr(target, "id", None) == "dataclass"
            or getattr(target, "attr", None) == "dataclass")


def test_only_the_listed_classes_are_dataclasses():
    decorated, importers = set(), set()
    for path in Path(nchydro.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and any(map(_is_dataclass_decorator,
                                                          node.decorator_list)):
                decorated.add(f"{path.stem}.{node.name}")
            elif isinstance(node, ast.ImportFrom) and node.module == "dataclasses":
                importers.add(path.stem)
            elif isinstance(node, ast.Import) and any(alias.name == "dataclasses"
                                                      for alias in node.names):
                importers.add(path.stem)
    assert sorted(decorated) == sorted(DATACLASSES)
    assert importers == {name.split(".")[0] for name in DATACLASSES}
