"""Special functions and quadrature kernel.

Everything here is a pure function of its arguments: generalized Laguerre
polynomials, complex spherical harmonics with the Condon-Shortley phase,
two-component spinor spherical harmonics, Gauss-Laguerre rules (plain and
generalized weight x^beta e^-x), a two-order endpoint sample for integrals
that diverge at the origin, and the 16-node Gauss-Legendre rule in
cos(theta) for the angular blocks.  Units never enter; callers scale their
own variables.

Three quantum-number conventions are decided here and nowhere else:
check_integer is the one integer test (bools and floats are not integers),
lj_to_kappa the one test of j = l +/- 1/2 and check_magnetic the one
half-integer test.  dirac re-exports kappa_to_lj and lj_to_kappa.

No module of the package imports numpy: the rules, harmonics and sums
here are pure Python on floats and tuples.  The rules that depend on no
input are float tables, written with repr: _ENDPOINT_RULES (the 80- and
160-node endpoint rules) and _SPHERE_RULE (the 16-node Legendre rule);
tests/rule_tables.py rebuilds them and checks every bit.  The Gauss-Laguerre
rules, whose order and beta the caller chooses, are built at run time,
once per (n, beta) in a process: nodes from an eigenvalue-only implicit QL
on the Jacobi matrix, weights from the scaled Christoffel sum.
laguerre_general also maps an ndarray x elementwise when a caller passes
one.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache
from operator import mul

from .constants import finite_real, shown
from .errors import DomainError, ValidationError

__all__ = [
    "QuadratureRule",
    "IntegrationResult",
    "check_integer",
    "kappa_to_lj",
    "lj_to_kappa",
    "check_magnetic",
    "laguerre_general",
    "spherical_harmonic",
    "spinor_harmonic",
    "spinor_orbital_m",
    "gauss_laguerre",
    "adaptive_weighted",
    "adaptive_sampled_endpoint",
]


def laguerre_general(n: int, a: float, x):
    """Generalized Laguerre polynomial L_n^a(x) by forward recurrence.

    The recurrence (k+1) L_{k+1} = (2k+1+a-x) L_k - (k+a) L_{k-1} is stable
    for the moderate degrees and x ranges bound states produce.  n = -1 is
    accepted and returns 0 (empty-sum convention used by radial solutions).
    x is a float (plain floats, no numpy) or an ndarray (elementwise).
    """
    if n < -1:
        raise DomainError(f"laguerre_general requires n >= -1, got {n}")
    if a <= -1.0:
        raise DomainError(f"laguerre_general requires a > -1, got {a}")
    if n < 1:
        return 0.0 * x + (n + 1)  # L_{-1} = 0 and L_0 = 1, shaped like x
    prev, cur = 0.0 * x + 1.0, 1.0 + a - x
    for k in range(1, n):
        prev, cur = cur, ((2.0 * k + 1.0 + a - x) * cur - (k + a) * prev) / (k + 1.0)
    return cur


def _norm_legendre(l: int, m: int, cos_theta: float, sin_theta: float) -> float:
    """The real theta factor of Y_lm = P e^{i m phi}: the fully normalized
    associated Legendre P~_l^|m| (sqrt((2l+1)/(4 pi) (l-m)!/(l+m)!) and the
    Condon-Shortley phase included), times (-1)^m for m < 0 from Y_l,-m =
    (-1)^m conj(Y_lm).  Stable seeded recurrence (sectoral seed, upward in l).
    """
    am = abs(m)
    sign = -1.0 if m < 0 and am % 2 else 1.0
    p_mm = 1.0 / math.sqrt(4.0 * math.pi)
    for k in range(1, am + 1):
        p_mm = -math.sqrt((2.0 * k + 1.0) / (2.0 * k)) * sin_theta * p_mm
    if l == am:
        return sign * p_mm
    p_next = math.sqrt(2.0 * am + 3.0) * cos_theta * p_mm
    for ll in range(am + 2, l + 1):
        a = math.sqrt((4.0 * ll * ll - 1.0) / (ll * ll - am * am))
        b = math.sqrt(((ll - 1.0) ** 2 - am * am) / (4.0 * (ll - 1.0) ** 2 - 1.0))
        p_mm, p_next = p_next, a * (cos_theta * p_next - b * p_mm)
    return sign * p_next


def _check_angles(theta, phi):
    if not (finite_real(theta) and finite_real(phi)):
        raise ValidationError(f"theta and phi must be finite reals, got {shown(theta)} and "
                              f"{shown(phi)}")


def spherical_harmonic(l: int, m: int, theta: float, phi: float) -> complex:
    """Orthonormal complex spherical harmonic Y_lm(theta, phi).

    Condon-Shortley phase; integral of |Y_lm|^2 over the sphere is 1.
    l and m are integers, theta and phi finite reals.
    """
    check_integer("l", l)
    check_integer("m", m)
    _check_angles(theta, phi)
    if l < 0:
        raise DomainError(f"spherical_harmonic requires l >= 0, got l={l}")
    if abs(m) > l:
        raise DomainError(f"spherical_harmonic requires |m| <= l, got l={l}, m={m}")
    return (_norm_legendre(l, m, math.cos(theta), math.sin(theta))
            * complex(math.cos(m * phi), math.sin(m * phi)))


def check_integer(name: str, value, minimum: int | None = None):
    """Reject value unless it is an integer (not a bool), finite as a float and >= minimum."""
    if type(value) is int:  # the common case, without the numbers.Integral ABC check
        integral = True
    else:
        import numbers
        integral = isinstance(value, numbers.Integral)
    if not (integral and finite_real(value) and (minimum is None or value >= minimum)):
        bound = "" if minimum is None else f" >= {minimum}"
        raise ValidationError(f"{name} must be a finite integer{bound}, got {shown(value)}")


def kappa_to_lj(kappa: int) -> tuple[int, float]:
    """Orbital l and total j encoded by a nonzero integer kappa."""
    check_integer("kappa", kappa)
    if kappa == 0:
        raise ValidationError("kappa = 0 is not allowed")
    return (kappa if kappa > 0 else -kappa - 1), abs(kappa) - 0.5


def lj_to_kappa(l: int, j: float) -> int:
    """kappa = l for j = l - 1/2 and -(l + 1) for j = l + 1/2 (l an integer >=
    0); anything else, the j = -1/2 that would give kappa = 0 included, fails."""
    check_integer("l", l, 0)
    if finite_real(j):
        if abs(j - (l - 0.5)) < 1e-9 and l > 0:
            return l
        if abs(j - (l + 0.5)) < 1e-9:
            return -l - 1
    raise ValidationError(f"(l, j) = ({l}, {shown(j)}) is not a fine-structure pair")


def check_magnetic(j: float, M: float):
    """Reject M unless 2 M is an odd integer (to 1e-12) and |M| <= j."""
    if not (finite_real(M) and abs(2.0 * M - round(2.0 * M)) <= 1e-12
            and round(2.0 * M) % 2 == 1 and abs(M) <= j):
        raise ValidationError(f"M = {shown(M)} is not a half-integer with |M| <= j = {j}")


def spinor_clebsch(j: float, l: int, M: float) -> tuple[float, float]:
    """Coefficients (c_up, c_down) coupling Y_{l,M-1/2}, Y_{l,M+1/2} to (j, M)."""
    kappa = lj_to_kappa(l, j)
    check_magnetic(j, M)
    if kappa < 0:  # j = l + 1/2
        c_up = math.sqrt((l + M + 0.5) / (2.0 * l + 1.0))
        c_dn = math.sqrt((l - M + 0.5) / (2.0 * l + 1.0))
    else:  # j = l - 1/2
        c_up = -math.sqrt((l - M + 0.5) / (2.0 * l + 1.0))
        c_dn = math.sqrt((l + M + 0.5) / (2.0 * l + 1.0))
    return c_up, c_dn


def _spinor_profiles(j: float, l: int, M: float, profile) -> tuple:
    """spinor_harmonic's (upper, lower) components at a set of points: each
    is (m, c, p), its value at point i being c p[i] e^{i m phi}, where
    p = profile(m) lists the real theta factor of Y_lm at the points.  A
    component with |m| > l or c = 0 vanishes: its c is 0.0 and its p ()."""
    parts = []
    for c, m in zip(spinor_clebsch(j, l, M), spinor_orbital_m(M)):
        m = int(round(m))
        parts.append((m, c, profile(m)) if abs(m) <= l and c != 0.0 else (m, 0.0, ()))
    return tuple(parts)


def spinor_harmonic(j: float, l: int, M: float, theta: float,
                    phi: float) -> tuple[complex, complex]:
    """Two-component spinor spherical harmonic for total momentum (j, M).

    Upper component carries Y_{l, M-1/2}, lower Y_{l, M+1/2}, weighted by
    the two-branch coupling coefficients.  Normalized over the sphere.
    theta and phi are finite reals; returns (upper, lower).
    """
    _check_angles(theta, phi)
    cos_theta, sin_theta = math.cos(theta), math.sin(theta)
    return tuple(c * (p[0] * complex(math.cos(m * phi), math.sin(m * phi))) if c else 0j
                 for m, c, p in _spinor_profiles(j, l, M, lambda m: (
                     _norm_legendre(l, m, cos_theta, sin_theta),)))


def spinor_orbital_m(M: float) -> tuple[float, float]:
    """Orbital magnetic numbers (M-1/2, M+1/2) carried by the two components."""
    return M - 0.5, M + 0.5


# ---------------------------------------------------------------------------
# Gauss-Laguerre quadrature
# ---------------------------------------------------------------------------


def _tridiagonal_eigenvalues(diag, off) -> list[float]:
    """Eigenvalues, ascending, of the symmetric tridiagonal matrix with
    diagonal diag and off-diagonal off (one entry shorter): implicit QL with
    Wilkinson shifts, eigenvalues only (Bowdler, Martin, Reinsch and
    Wilkinson, Numer. Math. 11, 1968)."""
    d, e = list(diag), list(off) + [0.0]
    n = len(d)
    for l in range(n):
        for _ in range(64):
            m = l
            while m < n - 1:
                dd = abs(d[m]) + abs(d[m + 1])
                if abs(e[m]) + dd == dd:  # negligible: the matrix splits at m
                    break
                m += 1
            if m == l:
                break
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            g = d[m] - d[l] + e[l] / (g + math.copysign(math.hypot(g, 1.0), g))
            s = c = 1.0
            p = 0.0
            for i in range(m - 1, l - 1, -1):
                f, b = s * e[i], c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:  # underflow: deflate and sweep again
                    d[i + 1] -= p
                    e[m] = 0.0
                    break
                s, c = f / r, g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
            else:
                d[l] -= p
                e[l] = g
                e[m] = 0.0
        else:
            raise DomainError(f"implicit QL did not converge for eigenvalue {l} of {n}")
    return sorted(d)


def _golub_welsch(diag, off, mu0: float,
                  log_weight) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Gauss rule of the Jacobi matrix (diag, off) of a weight function of
    total mass mu0 (Golub and Welsch, Math. Comp. 23, 1969): the nodes are
    its eigenvalues and each weight is the Christoffel number
    1 / sum_k p~_k(x)^2 of the orthonormal polynomials, summed in the scaled
    form q_k = p~_k(x) e^{log_weight(x) / 2} so nothing overflows, and
    w = e^{log_weight(x)} / sum_k q_k^2.  A far-tail node whose q underflows
    to 0 gets weight 0, its true weight being ~0."""
    nodes = _tridiagonal_eigenvalues(diag, off)
    steps = list(zip(diag, [0.0] + list(off), off))  # (a_k, b_k, b_{k+1})
    weights = []
    for x in nodes:
        log_w = log_weight(x)
        q_prev, q = 0.0, math.exp(0.5 * log_w) / math.sqrt(mu0)
        s = q * q
        for a_k, b_k, b_next in steps:
            q_prev, q = q, ((x - a_k) * q - b_k * q_prev) / b_next
            s += q * q
        weights.append(math.exp(log_w) / s if s > 0.0 else 0.0)
    return tuple(nodes), tuple(weights)


class QuadratureRule(namedtuple("QuadratureRule", "nodes weights beta", defaults=(0.0,))):
    """Nodes and weights (float tuples) for integration against x^beta e^-x
    on (0, inf)."""

    __slots__ = ()

    def integrate(self, func) -> float:
        """math.fsum of w func(x) over the nodes; func maps a float to a float."""
        return math.fsum(map(mul, self.weights, map(func, self.nodes)))


@lru_cache(maxsize=512)
def _laguerre_rule(n: int, beta: float) -> tuple[tuple[float, ...], tuple[float, ...]]:
    # Jacobi matrix of x^beta e^-x: diagonal 2k + 1 + beta, off-diagonal
    # sqrt(k (k + beta)), mass Gamma(1 + beta); the weights are scaled by
    # x^(beta/2) e^(-x/2)
    return _golub_welsch([2.0 * k + 1.0 + beta for k in range(n)],
                         [math.sqrt(k * (k + beta)) for k in range(1, n)],
                         math.gamma(1.0 + beta), lambda x: -x + beta * math.log(x))


def gauss_laguerre(n: int, beta: float = 0.0) -> QuadratureRule:
    """n-point Gauss rule for the weight x^beta e^-x on (0, inf).

    beta = 0 is the plain Gauss-Laguerre rule, exact for polynomials of
    degree <= 2n - 1.  Requires beta > -1 for an integrable weight.
    """
    if n < 1:
        raise DomainError(f"gauss_laguerre requires n >= 1, got {n}")
    if not beta > -1.0:  # NaN included
        raise DomainError(f"weight x^beta e^-x is not integrable for beta={beta}")
    nodes, weights = _laguerre_rule(int(n), float(beta))
    return QuadratureRule(nodes=nodes, weights=weights, beta=beta)


class IntegrationResult(namedtuple("IntegrationResult", "value order drift converged")):
    """A radial integral's value (float), its order (int: series terms, or
    the final quadrature order) and drift (float: the series' rounding
    bound, or the gap to the previous order), and whether that drift is
    within tolerance (converged, a bool)."""

    __slots__ = ()

    def scaled(self, factor: float) -> IntegrationResult:
        """The same result with its value multiplied by factor."""
        return self._replace(value=self.value * factor)


def adaptive_weighted(func, beta: float = 0.0, tol: float = 1e-10,
                      start: int = 80, max_order: int = 1280) -> IntegrationResult:
    """Integral of func(x) x^beta e^-x dx over (0, inf) by doubling the
    Gauss-Laguerre order until the relative change falls below tol; func maps
    a float to a float.  No package code calls it; it stays while the
    benchmark's tracer names it."""
    order = start
    prev = gauss_laguerre(order, beta).integrate(func)
    drift = math.inf
    while order < max_order:
        order *= 2
        cur = gauss_laguerre(order, beta).integrate(func)
        drift = abs(cur - prev) / max(abs(cur), abs(prev), 1e-300)
        if drift <= tol:
            return IntegrationResult(value=cur, order=order, drift=drift, converged=True)
        prev = cur
    return IntegrationResult(value=prev, order=order, drift=drift, converged=False)


# The endpoint rules of adaptive_sampled_endpoint, order n -> (x, w): the
# n-node plain Gauss-Laguerre rule after the substitution x = t^2, with
# x = t^2 and w = 2 t w_t e^(t - t^2) at the ascending roots t of L_n (w_t
# the plain rule's weight), kept up to the first w that underflows to 0 (29
# of 80 nodes, 42 of 160).  tests/rule_tables.py rebuilds them by Halley
# steps on L_n and checks every bit.
_ENDPOINT_RULES = {
    80: ((
        0.0003225768051402857, 0.008956713131579001, 0.05411339877510493, 0.18661756135679808,
        0.4800118311223397, 1.030697143147008, 1.95811797796368, 3.4049929699575725,
        5.537591993420534, 8.546061090599308, 12.64479685977006, 18.072872188234815,
        25.094515499531326, 33.99964598941108, 45.10446765469551, 58.752125276733224,
        75.31342591105593, 95.18762986171988, 118.80331558809644, 146.61932350967416,
        179.12578424775504, 216.84523747980862, 260.33384829194284, 310.18272870814735,
        367.0193729640457, 431.5092160922585, 504.3573265128998, 586.3102445958439,
        678.1579806042224,
    ), (
        0.0016551692816821678, 0.020131069326004367, 0.07433695252477111, 0.16495041453778134,
        0.2500224097136498, 0.25587216266668444, 0.16390240068549938, 0.05844598570460807,
        0.009984967595564437, 0.0006831569537353317, 1.5223436999697953e-05,
        8.748797932015688e-08, 9.998294610706904e-11, 1.7059518387250793e-14,
        3.1759625952738934e-19, 4.587052226338671e-25, 3.553387160009184e-32,
        9.917839608962218e-41, 6.504882429484354e-51, 6.342634715914815e-63,
        5.636571333467607e-77, 2.709291856506184e-93, 4.041352926131994e-112,
        1.0364548518072485e-133, 2.44128913378676e-158, 2.7159627715808047e-186,
        7.053771116351444e-218, 2.0278709438686387e-253, 2.9296463563998695e-293,
    )),
    160: ((
        8.114596263240929e-05, 0.002252842534206393, 0.013607993523482739, 0.046914546488692324,
        0.12062329696626746, 0.25887668075978904, 0.49152035596062643, 0.8541175454470243,
        1.3879661523526956, 2.140118668443408, 3.1634048994523294, 4.51645753507715,
        6.26374059495218, 8.475580785563102, 11.228201806799376, 14.603761650653531,
        18.690392938488323, 23.582246347313724, 29.379537179653774, 36.1885951358526,
        44.12191735207714, 53.29822477183479, 63.842521923550116, 75.88616018164632,
        89.5669045936707, 105.02900436130167, 122.42326706859282, 141.90713675656565,
        163.6447759492682, 187.80715174270094, 214.57212607457663, 244.1245502997673,
        276.6563642035033, 312.366699591964, 351.4619886078493, 394.15607692688513,
        440.67034200001444, 491.2338165152863, 546.0833172632258, 605.4635795997649,
        669.6273977116886, 738.8357709010354,
    ), (
        0.0004164616415379265, 0.005097164137550567, 0.019462874751399715, 0.04766890186109808,
        0.08995081199242334, 0.1389439759469744, 0.17813554527379932, 0.18765633022064815,
        0.1584044197497962, 0.10333948370500902, 0.0498039388240831, 0.01681698285855228,
        0.003746051261104767, 0.0005147886976365188, 4.054521875757495e-05, 1.689396973190779e-06,
        3.415615086891558e-08, 3.0540259903684444e-10, 1.0937808180157004e-12,
        1.4121922526715946e-15, 5.878590006507006e-19, 7.011702207959059e-23,
        2.1160621256359647e-27, 1.4176864205647503e-32, 1.8380449722362764e-38,
        3.9938607046714596e-45, 1.2512899424809172e-52, 4.830795456155385e-61,
        1.9507843615680556e-70, 6.946973605654554e-81, 1.8265761103716478e-92,
        2.94815381049479e-105, 2.4113486488235326e-119, 8.191500918624939e-135,
        9.403279840561024e-152, 2.9457829230800333e-170, 2.0185724782606633e-190,
        2.4065644123157767e-212, 3.939694921686305e-236, 6.934245919646209e-262,
        1.0192099208837246e-289, 9.637e-320,
    )),
}


def adaptive_sampled_endpoint(func, start: int = 80) -> IntegrationResult:
    """Samples of int func(x) e^-x dx over (0, inf) at orders 80 and 160.

    Each sample is the plain Gauss-Laguerre rule after the substitution
    x = t^2 (_ENDPOINT_RULES), which clusters nodes near an algebraic
    endpoint singularity; func maps a float x to a float.  Meant for
    integrals the caller already knows to diverge at the origin, where more
    nodes only move the sample, so there is no refinement loop.  Reports
    the 160 sample with order = 160, the relative gap between the two
    samples as drift and converged = drift <= 1e-10; for a divergent
    integrand converged is False and the value is a sample, not a value of
    the integral.  Only start = 80 is accepted (the rules are tables); the
    parameter stays because the benchmark's tracer reads it.
    """
    if start != 80:
        raise DomainError(f"adaptive_sampled_endpoint requires start = 80, got {start}")
    prev, cur = (math.fsum(map(mul, weights, map(func, nodes)))
                 for nodes, weights in (_ENDPOINT_RULES[80], _ENDPOINT_RULES[160]))
    drift = abs(cur - prev) / max(abs(cur), abs(prev), 1e-300)
    return IntegrationResult(value=cur, order=160, drift=drift, converged=drift <= 1e-10)


# ---------------------------------------------------------------------------
# Sphere quadrature: Gauss-Legendre in cos(theta), phi taken exactly
# ---------------------------------------------------------------------------


# The 16-node Gauss-Legendre rule (cos_theta, weights) on (-1, 1) of the
# angular blocks; its weights sum to 2.  tests/rule_tables.py rebuilds it by
# _golub_welsch (zero diagonal, off-diagonal k / sqrt(4k^2 - 1), mass 2) and
# checks every bit.
#
# It is exact for the angular blocks: their integrands are one e^{ik phi},
# integer k, whose phi integral (2 pi for k = 0, else 0) is taken exactly,
# times a polynomial in cos(theta) of degree at most l_a + l_b + 1 between
# levels l_a and l_b; 16 nodes are exact to degree 31, so to l_a + l_b <= 30.
_SPHERE_RULE = ((
    -0.9894009349916498, -0.9445750230732328, -0.8656312023878316, -0.7554044083550031,
    -0.617876244402644, -0.4580167776572273, -0.2816035507792589, -0.09501250983763743,
    0.09501250983763743, 0.281603550779259, 0.4580167776572274, 0.617876244402644,
    0.7554044083550031, 0.8656312023878315, 0.9445750230732325, 0.98940093499165,
), (
    0.02715245941175428, 0.06225352393864768, 0.09515851168249294, 0.12462897125553386,
    0.14959598881657674, 0.16915651939500254, 0.18260341504492364, 0.18945061045506847,
    0.18945061045506847, 0.18260341504492358, 0.16915651939500254, 0.14959598881657674,
    0.12462897125553386, 0.095158511682493, 0.06225352393864804, 0.027152459411753673,
))
