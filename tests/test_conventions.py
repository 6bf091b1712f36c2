"""Each quantum-number convention is decided in one place.

specfun.check_integer is the only integer test, specfun.lj_to_kappa the
only test of j = l +/- 1/2 and specfun.check_magnetic the only half-integer
test; dirac._check_level is the only bound-state test of (n_r, kappa) and
nonrel._check_nl the only (n, l) test.  Every fine-structure factor follows
from kappa, and every entry point rejects what they reject.  Likewise
constants.check_theta (a finite real theta >= 0, through
constants.finite_real) and the level-label parser decide alone which theta
and which label an entry point takes, and constants.check_radius which
radius.  Every top-level function and class of the package, and every method
but its dunders, is reached from an entry point (module-level code, cli.main,
README's library imports and the acceptance tests' imports), or has one
listed reason to stay (UNREFERENCED).
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
from nchydro.cli import _format, parse_half_integer, parse_theta
from nchydro.constants import DEFAULT_CONSTANTS, ev2_to_gev_scale, finite_real
from nchydro.dirac import (dirac_binding_energy, dirac_energy, kappa_to_lj, lj_to_kappa,
                           make_state, parse_level_label, radial_fg)
from nchydro.errors import DomainError, ValidationError
from nchydro.nonrel import (SchrodingerState, _spin_orbit, expectation_p4_physical,
                            expectation_table, fine_structure_shift, nc_hyperfine_shift,
                            r_inverse_moment, r_inverse_moment_quadrature, s_state_shift,
                            schrodinger_energy)
from nchydro.shifts import (Level, level_shift, lz_block, lz_block_numeric, lz_expectation,
                            radial_integral_closed, radial_integral_quadrature,
                            sigma_cross_block, transition_element_2s2p)
from nchydro.specfun import (check_integer, laguerre_general, spherical_harmonic,
                             spinor_clebsch, spinor_harmonic)


def short(value) -> str:
    """repr(value) for a test id; a repr over 40 characters (10**400 has 401)
    becomes huge-<type name>, as constants.shown cuts it in a message."""
    text = repr(value)
    return text if len(text) <= 40 else f"huge-{type(value).__name__}"


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
# a radius (eV^-1) that is not a finite real
BAD_RADII = [math.nan, math.inf, -math.inf, True, "1", 10**400]
RADIAL_ENTRY_POINTS = {
    "radial_fg": lambda r: radial_fg(make_state(1, -2, 0.5), r),
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
    + [pytest.param(call, (M,), id=f"{name}-M{short(M)}")
       for name, call in M_ENTRY_POINTS.items() for M in BAD_M]
    + [pytest.param(call, (0,), id=f"{name}-kappa0")
       for name, call in {"kappa_to_lj": kappa_to_lj,
                          "make_state": lambda kappa: make_state(1, kappa, 0.5),
                          "dirac_energy": lambda kappa: dirac_energy(1, kappa)}.items()]
    + [pytest.param(call, pair, id=f"{name}-n_r{short(pair[0])}-kappa{short(pair[1])}")
       for name, call in LEVEL_ENTRY_POINTS.items() for pair in BAD_LEVELS]
    + [pytest.param(call, pair, id=f"{name}-n{short(pair[0])}-l{short(pair[1])}")
       for name, call in NL_ENTRY_POINTS.items() for pair in BAD_NL]
    + [pytest.param(call, (n,), id=f"{name}-n{short(n)}")
       for name, call in N_ENTRY_POINTS.items() for n in BAD_N]
    + [pytest.param(call, (theta,), id=f"{name}-theta{short(theta)}")
       for name, call in THETA_ENTRY_POINTS.items() for theta in BAD_THETA]
    + [pytest.param(call, (label,), id=f"{name}-label{short(label)}")
       for name, call in LABEL_ENTRY_POINTS.items() for label in BAD_LABELS]
    + [pytest.param(call, (a,), id=f"{name}{short(a)}")
       for name, call in ANGLE_ENTRY_POINTS.items() for a in BAD_ANGLES]
    + [pytest.param(spherical_harmonic, (l, m, 0.3, 0.2),
                    id=f"spherical_harmonic-l{short(l)}-m{short(m)}")
       for l, m in BAD_LM]
    + [pytest.param(call, (r,), id=f"{name}-r{short(r)}")
       for name, call in RADIAL_ENTRY_POINTS.items() for r in BAD_RADII]
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
       for name, call in RADIAL_ENTRY_POINTS.items()]
    + [pytest.param(lambda value: DEFAULT_CONSTANTS.with_(m_e=value), (10**400,),
                    id="PhysicalConstants-m_e-huge-int"),
       pytest.param(kappa_to_lj, ("1" * 1000,), id="kappa_to_lj-long-str"),
       pytest.param(lj_to_kappa, (1, 10**400), id="lj_to_kappa-j-huge-int"),
       pytest.param(make_state, (0, -1, 10**400), id="make_state-M-huge-int"),
       pytest.param(spherical_harmonic, (1, 0, 10**400, 0.2),
                    id="spherical_harmonic-theta-huge-int"),
       pytest.param(parse_level_label, ("x" * 1000,), id="parse_level_label-long-str"),
       pytest.param(parse_level_label, ("1" * 1000 + "X1/2",),
                    id="parse_level_label-letter-long-str"),
       pytest.param(parse_level_label, (" " * 1000 + "1P1/2",),
                    id="parse_level_label-no-level-long-str"),
       pytest.param(parse_level_label, ("1" * 5000 + "P3/2",),
                    id="parse_level_label-digits-long-str"),
       pytest.param(parse_level_label, ("2P" + "1" * 1000 + "/2",),
                    id="parse_level_label-j-digits-long-str"),
       pytest.param(parse_theta, ("x" * 1000,), id="parse_theta-long-str"),
       pytest.param(parse_theta, ("(" + "0" * 1000 + "1e-200 GeV)^-2",),
                    id="parse_theta-gev-long-str"),
       pytest.param(parse_half_integer, ("x" * 1000,), id="parse_half_integer-long-str"),
       pytest.param(parse_half_integer, ("1/" + "0" * 1000,),
                    id="parse_half_integer-zero-long-str"),
       pytest.param(parse_half_integer, ("1" * 1000,), id="parse_half_integer-inf-long-str"),
       pytest.param(_format, ("x" * 1000,), id="format-long-str")]
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
]


@pytest.mark.parametrize("call,expected", UNDERFLOWED)
def test_underflowed_terms_are_zero(call, expected):
    assert call() == expected


# finite_real takes a float on a fast path and everything else through the
# numbers.Real check; both must give the same answers
FINITE_REALS = [0.0, -0.0, 1.0e-19, -2.5, 0, 3, -7, np.float64(1.5), np.float64(-0.0),
                Fraction(1, 3)]
NOT_FINITE_REALS = [True, False, "1e-19", "nan", None, b"1", math.nan, math.inf, -math.inf,
                    np.float64(math.nan), np.float64(math.inf), 1j, [1.0], 10**400]


@pytest.mark.parametrize("value", FINITE_REALS, ids=short)
def test_finite_real_accepts(value):
    assert finite_real(value) is True


@pytest.mark.parametrize("value", NOT_FINITE_REALS, ids=short)
def test_finite_real_rejects(value):
    assert finite_real(value) is False


# check_integer takes an int on a fast path and everything else through the
# numbers.Integral check; numpy's integers take the second
INTEGERS = [0, 3, -7, 2**60, np.int64(3), np.int64(-2)]
NOT_INTEGERS = [True, False, 3.0, np.float64(3.0), "3", None, Fraction(3, 1), 10**400]


@pytest.mark.parametrize("value", INTEGERS, ids=short)
def test_check_integer_accepts(value):
    check_integer("n", value)
    check_integer("n", value, -7)


@pytest.mark.parametrize("value", NOT_INTEGERS, ids=short)
def test_check_integer_rejects(value):
    with pytest.raises(ValidationError, match="n must be a finite integer, got"):
        check_integer("n", value)


def _spelled(trees) -> set[str]:
    """Every Name spelled in trees, and every Attribute as "." + its name."""
    return {node.id if isinstance(node, ast.Name) else "." + node.attr
            for tree in trees for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def unreached(sources: dict[str, str], roots) -> set[str]:
    """The definitions of sources (module name -> text) that nothing reaches.

    A definition is a top-level function or class but the dunders
    (module.name), or a method of such a class but the dunders
    (module.class.name); a class's other statements belong to the class.
    What a module runs on import is reached: its other statements, its
    top-level dunders (hooks such as __getattr__) and each definition's
    decorators, argument defaults and bases.  So is each definition in
    roots.  A reached definition reaches every top-level definition whose
    name it spells as a Name or an Attribute, and every method of a reached
    class whose name it spells as an Attribute (a local variable of the same
    name calls no method), until nothing new is reached.  A string, such as
    an entry of the package's export table, spells nothing.
    """
    # definition -> the names it spells, method -> its class, and the names
    # that import runs spell
    spells, owner, loaded = {}, {}, set()
    for module, text in sources.items():
        for node in ast.parse(text).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or _dunder(node.name):
                loaded |= _spelled([node])
                continue
            name = f"{module}.{node.name}"
            if isinstance(node, ast.FunctionDef):
                loaded |= _spelled(node.decorator_list + node.args.defaults
                                   + [d for d in node.args.kw_defaults if d is not None])
                spells[name] = _spelled([node])
                continue
            methods = [member for member in node.body
                       if isinstance(member, ast.FunctionDef) and not _dunder(member.name)]
            loaded |= _spelled(node.decorator_list + node.bases + node.keywords)
            spells[name] = _spelled([member for member in node.body if member not in methods])
            for member in methods:
                spells[f"{name}.{member.name}"] = _spelled([member])
                owner[f"{name}.{member.name}"] = name
    named = {}  # spelling -> the definitions it names
    for name in spells:
        last = name.rsplit(".", 1)[-1]
        for word in ("." + last,) if name in owner else (last, "." + last):
            named.setdefault(word, set()).add(name)
    reached = set(roots) & set(spells)
    while True:
        words = loaded.union(*(spells[name] for name in reached))
        new = {d for word in words for d in named.get(word, ())
               if d not in owner or owner[d] in reached} - reached
        if not new:
            return set(spells) - reached
        reached |= new


def test_reachability_follows_calls_from_the_roots():
    # dead is called by no reached code, and dead_helper by dead alone: a
    # scan that counts a name spelled anywhere takes dead_helper as used
    source = """
def root():
    return helper()


def helper():
    return 1


def dead():
    return dead_helper()


def dead_helper():
    return 2
"""
    assert unreached({"mod": source}, {"mod.root"}) == {"mod.dead", "mod.dead_helper"}


def test_what_import_runs_is_reached():
    # a table and a decorator run on import; a method is reached where an
    # attribute spells it and its class is reached, and a dunder method
    # belongs to its class
    source = """
TABLE = {"tabled": tabled}


@decorator
def decorated():
    return Box().used()


def tabled():
    return 3


def decorator(function):
    return function


class Box:
    def __init__(self):
        self.value = 4

    def used(self):
        return self.value

    def unused(self):
        return 5


class Spare:
    def used(self):
        return 6
"""
    assert unreached({"mod": source}, set()) == {
        "mod.decorated", "mod.Box", "mod.Box.used", "mod.Box.unused", "mod.Spare",
        "mod.Spare.used"}
    assert unreached({"mod": source}, {"mod.decorated"}) == {"mod.Box.unused", "mod.Spare",
                                                             "mod.Spare.used"}


def test_a_local_variable_reaches_no_method():
    # a method is called through an attribute: root's local variable spells
    # size, the name of Box's method, and reaches no method
    source = """
class Box:
    def size(self):
        return 1


def root():
    size = 2
    return Box(), size
"""
    assert unreached({"mod": source}, {"mod.root"}) == {"mod.Box.size"}


PACKAGE = Path(nchydro.__file__).parent
REPO = PACKAGE.parents[1]


def _entry_points() -> set[str]:
    """cli.main (the console script of pyproject.toml) and the package
    definitions that README's "Library entry points" block and
    tests/test_acceptance.py import, as module.name."""
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library entry points\n+```python\n(.*?)```", readme, re.S).group(1)
    acceptance = (REPO / "tests" / "test_acceptance.py").read_text(encoding="utf-8")
    names = {"cli.main"}
    for tree in (ast.parse(block), ast.parse(acceptance)):
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("nchydro"):
                module = node.module.partition(".")[2]
                names.update(f"{module or nchydro._EXPORTS.get(alias.name)}.{alias.name}"
                             for alias in node.names)
    return names


# Every definition that no entry point reaches, with the one reason it
# stays; each is a root of the scan too.  A newly unreached definition
# fails, and so does a name here that was deleted or that an entry point
# reaches: the list only shrinks.
UNREFERENCED = {
    "specfun.adaptive_weighted": "perfbench/tracer.py's WRAPPED table names it",
    "specfun.spherical_harmonic": "reference of the Y_lm checks in tests/test_specfun.py "
                                  "and of spinor_harmonic there",
    "specfun.spinor_harmonic": "reference of the brute-force angular blocks in "
                               "tests/test_shifts.py",
}


def test_every_unreferenced_definition_has_a_reason():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    entry_points = _entry_points()
    assert sorted(set(UNREFERENCED) - unreached(sources, entry_points)) == []
    assert sorted(unreached(sources, entry_points | set(UNREFERENCED))) == []
    assert all(reason and "waits on" not in reason for reason in UNREFERENCED.values())


def _assigns_all(source: str) -> bool:
    return any(isinstance(target, ast.Name) and target.id == "__all__"
               for node in ast.walk(ast.parse(source))
               if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))
               for target in getattr(node, "targets", [getattr(node, "target", None)]))


def test_only_the_package_declares_all():
    # the export table in __init__.py is the one declaration of the public
    # API: no submodule keeps an __all__ of its own
    assigners = {path.stem for path in PACKAGE.glob("*.py")
                 if _assigns_all(path.read_text(encoding="utf-8"))}
    assert assigners == {"__init__"}
    assert nchydro.__all__ == [name for names in nchydro._SUBMODULE_NAMES.values()
                               for name in names]


def test_the_all_scan_sees_each_assignment():
    # the positive control: plain, annotated and augmented assignments
    assert all(map(_assigns_all, ['__all__ = ["f"]', '__all__: list = []',
                                  '__all__ += ["g"]', 'if True:\n    __all__ = []']))
    assert not any(map(_assigns_all, ['all_ = []', 'x.__all__ = []', '"__all__"']))


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


# What every process would pay for on import: a collections.namedtuple class
# compiles its __new__ through eval (constants.Record builds the value types
# without either), and json costs a CLI request about 2 ms, so only the one
# function that reads a JSON file imports it.
def _namedtuple_eval_and_json(source: str) -> list[str]:
    """Each use in source of namedtuple or eval, and each module-level json import."""
    tree, found = ast.parse(source), []
    for node in ast.walk(tree):
        names = ([alias.name for alias in node.names] if isinstance(node, ast.ImportFrom)
                 else [getattr(node, "attr", None) or getattr(node, "id", None)])
        found += [f"line {node.lineno}: {name}" for name in names
                  if name in ("namedtuple", "eval")]
    for node in tree.body:
        modules = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                   else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
        found += [f"line {node.lineno}: import json" for module in modules
                  if module.split(".")[0] == "json"]
    return found


def test_no_module_uses_namedtuple_or_eval_or_imports_json():
    found = {path.stem: _namedtuple_eval_and_json(path.read_text(encoding="utf-8"))
             for path in PACKAGE.glob("*.py")}
    assert {module: uses for module, uses in found.items() if uses} == {}


def test_the_source_scan_sees_each_use():
    # the positive control: each use once, and a json import inside a function is allowed
    source = ("import json\nfrom json import loads\nfrom collections import namedtuple as nt\n"
              "import collections\nP = collections.namedtuple('P', 'x')\nQ = eval('1')\n"
              "def read():\n    import json\n")
    assert sorted(_namedtuple_eval_and_json(source)) == [
        "line 1: import json", "line 2: import json", "line 3: namedtuple", "line 5: namedtuple",
        "line 6: eval"]
