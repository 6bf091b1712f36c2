"""Special functions and quadrature kernel.

Everything here is a pure function of its arguments: generalized Laguerre
polynomials, complex spherical harmonics with the Condon-Shortley phase,
two-component spinor spherical harmonics, Gauss-Laguerre rules (plain and
generalized weight x^beta e^-x), a two-order endpoint sample for integrals
that diverge at the origin, and a fixed 16 x 16 sphere rule for the
angular blocks.  Units never enter; callers scale their own variables.

Three quantum-number conventions are decided here and nowhere else:
check_integer is the one integer test (bools and floats are not integers),
lj_to_kappa the one test of j = l +/- 1/2 and check_magnetic the one
half-integer test.  dirac re-exports kappa_to_lj and lj_to_kappa.

No module of the package imports numpy: the rules, harmonics and sums
here are pure Python on floats and tuples.  Both Gauss rules (Laguerre and
the Legendre factor of the sphere rule) take their nodes from one
eigenvalue-only implicit QL on the Jacobi matrix and their weights from
the scaled Christoffel sum.  laguerre_general also maps an ndarray x
elementwise when a caller passes one.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from operator import mul

from .constants import finite_real
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
    "sphere_rule",
    "sphere_integrate",
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


def _norm_legendre(l: int, m: int, cos_theta, sin_theta):
    """Fully normalized associated Legendre P~_l^m for m >= 0.

    Normalization includes sqrt((2l+1)/(4 pi) (l-m)!/(l+m)!) and the
    Condon-Shortley phase, so Y_lm = P~_l^m(cos theta) e^{i m phi}.
    Stable seeded recurrence (sectoral seed, upward in l).
    """
    p_mm = 1.0 / math.sqrt(4.0 * math.pi)
    for k in range(1, m + 1):
        p_mm = -math.sqrt((2.0 * k + 1.0) / (2.0 * k)) * sin_theta * p_mm
    if l == m:
        return p_mm
    p_next = math.sqrt(2.0 * m + 3.0) * cos_theta * p_mm
    if l == m + 1:
        return p_next
    for ll in range(m + 2, l + 1):
        a = math.sqrt((4.0 * ll * ll - 1.0) / (ll * ll - m * m))
        b = math.sqrt(((ll - 1.0) ** 2 - m * m) / (4.0 * (ll - 1.0) ** 2 - 1.0))
        p_mm, p_next = p_next, a * (cos_theta * p_next - b * p_mm)
    return p_next


def _harmonic_grid(l: int, m: int, theta, phi) -> list[complex]:
    """Y_lm at every point of the tensor grid theta x phi, theta-major: the
    Legendre factor once per theta and e^{i m phi} once per phi.  The
    (-1)^m of Y_l,-m = (-1)^m conj(Y_lm) goes on the real Legendre factor."""
    am = abs(m)
    sign = -1.0 if m < 0 and am % 2 else 1.0
    legendre = [sign * _norm_legendre(l, am, math.cos(t), math.sin(t)) for t in theta]
    waves = [complex(math.cos(m * p), math.sin(m * p)) for p in phi]
    return [p * w for p in legendre for w in waves]


def spherical_harmonic(l: int, m: int, theta: float, phi: float) -> complex:
    """Orthonormal complex spherical harmonic Y_lm(theta, phi).

    Condon-Shortley phase; integral of |Y_lm|^2 over the sphere is 1.
    theta and phi are floats.
    """
    if l < 0:
        raise DomainError(f"spherical_harmonic requires l >= 0, got l={l}")
    if abs(m) > l:
        raise DomainError(f"spherical_harmonic requires |m| <= l, got l={l}, m={m}")
    return _harmonic_grid(l, m, (theta,), (phi,))[0]


def check_integer(name: str, value, minimum: int | None = None):
    """Reject value unless it is an integer (not a bool) and >= minimum."""
    if not (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and (minimum is None or value >= minimum)):
        bound = "" if minimum is None else f" >= {minimum}"
        raise ValidationError(f"{name} must be an integer{bound}, got {value!r}")


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
    raise ValidationError(f"(l, j) = ({l}, {j}) is not a fine-structure pair")


def check_magnetic(j: float, M: float):
    """Reject M unless 2 M is an odd integer (to 1e-12) and |M| <= j."""
    if not (finite_real(M) and abs(2.0 * M - round(2.0 * M)) <= 1e-12
            and round(2.0 * M) % 2 == 1 and abs(M) <= j):
        raise ValidationError(f"M = {M} is not a half-integer with |M| <= j = {j}")


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


def _spinor_grid(j: float, l: int, M: float, theta, phi) -> tuple[list, list]:
    """spinor_harmonic at every point of the tensor grid theta x phi: two
    theta-major lists of complex, one per component."""
    parts = []
    for c, m in zip(spinor_clebsch(j, l, M), spinor_orbital_m(M)):
        if abs(m) <= l and c != 0.0:
            parts.append([c * y for y in _harmonic_grid(l, int(round(m)), theta, phi)])
        else:
            parts.append([0j] * (len(theta) * len(phi)))
    return parts[0], parts[1]


def spinor_harmonic(j: float, l: int, M: float, theta: float,
                    phi: float) -> tuple[complex, complex]:
    """Two-component spinor spherical harmonic for total momentum (j, M).

    Upper component carries Y_{l, M-1/2}, lower Y_{l, M+1/2}, weighted by
    the two-branch coupling coefficients.  Normalized over the sphere.
    theta and phi are floats; returns (upper, lower).
    """
    up, down = _spinor_grid(j, l, M, (theta,), (phi,))
    return up[0], down[0]


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


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights (float tuples) for integration against x^beta e^-x
    on (0, inf)."""

    nodes: tuple[float, ...]
    weights: tuple[float, ...]
    beta: float = 0.0

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


@dataclass(frozen=True)
class IntegrationResult:
    """A radial integral's value, its order (series terms, or the final
    quadrature order) and drift (the series' rounding bound, or the gap to
    the previous order), and whether that drift is within tolerance."""

    value: float
    order: int
    drift: float
    converged: bool

    def scaled(self, factor: float) -> IntegrationResult:
        """The same result with its value multiplied by factor."""
        return IntegrationResult(value=self.value * factor, order=self.order,
                                 drift=self.drift, converged=self.converged)


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


@lru_cache(maxsize=None)
def _endpoint_rule(n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The n-node plain Gauss-Laguerre rule after x = t^2, in floats: x = t^2
    and w = 2 t w_t e^(t - t^2), w_t = 1 / (t L_n'(t)^2), for the ascending
    roots t of L_n up to the first w that underflows to 0.  Each root is
    found by Halley steps on the three-term recurrence (L'' from Laguerre's
    equation), started from Tricomi's t ~ j^2 / v (1 + (j^2 - 2) / (3 v^2)),
    v = 4n + 2, with McMahon's i-th zero j of the Bessel J_0."""
    # L_{k+1} = (a_k - b_k t) L_k - c_k L_{k-1}
    steps = [((2.0 * k + 1.0) / (k + 1.0), 1.0 / (k + 1.0), k / (k + 1.0))
             for k in range(1, n)]
    v = 4.0 * n + 2.0
    rule = []
    for i in range(1, n + 1):
        b = (i - 0.25) * math.pi
        j = b + 1.0 / (8.0 * b) - 124.0 / (3.0 * (8.0 * b) ** 3)
        t = j * j / v * (1.0 + (j * j - 2.0) / (3.0 * v * v))
        for _ in range(8):
            prev, cur = 1.0, 1.0 - t  # L_0, L_1
            for a_k, b_k, c_k in steps:
                prev, cur = cur, (a_k - b_k * t) * cur - c_k * prev
            d1 = n * (cur - prev) / t  # L_n' = n (L_n - L_{n-1}) / t
            d2 = ((t - 1.0) * d1 - n * cur) / t
            step = cur / d1 / (1.0 - cur * d2 / (2.0 * d1 * d1))
            t -= step
            if abs(step) <= 1e-10 * t:
                break
        d1 -= d2 * step  # L_n' at the final t
        w = 2.0 * math.exp(t - t * t) / (d1 * d1)  # 2 t w_t e^(t - t^2)
        if w == 0.0:
            break
        rule.append((t * t, w))
    return tuple(zip(*rule))


def adaptive_sampled_endpoint(func, start: int = 80) -> IntegrationResult:
    """Samples of int func(x) e^-x dx over (0, inf) at orders start and 2 start.

    Each sample is the plain Gauss-Laguerre rule after the substitution
    x = t^2, which clusters nodes near an algebraic endpoint singularity;
    func maps a float x to a float.  Meant for integrals the caller already
    knows to diverge at the origin, where more nodes only move the sample,
    so there is no refinement loop.  Reports the 2 start sample with
    order = 2 start, the relative gap between the two samples as drift and
    converged = drift <= 1e-10; for a divergent integrand converged is
    False and the value is a sample, not a value of the integral.  The
    rule's starting guesses for its roots need start >= 16.
    """
    if start < 16:
        raise DomainError(f"adaptive_sampled_endpoint requires start >= 16, got {start}")

    def sample(order):
        nodes, weights = _endpoint_rule(order)
        return math.fsum(map(mul, weights, map(func, nodes)))

    prev, cur = sample(start), sample(2 * start)
    drift = abs(cur - prev) / max(abs(cur), abs(prev), 1e-300)
    return IntegrationResult(value=cur, order=2 * start, drift=drift, converged=drift <= 1e-10)


# ---------------------------------------------------------------------------
# Sphere quadrature: Gauss-Legendre in cos(theta) x trapezoid in phi
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def sphere_rule():
    """16 x 16 tensor rule over the unit sphere, as its two factors
    (theta, theta_weights, phi, phi_weights), float tuples of 16.

    Gauss-Legendre in cos(theta) by _golub_welsch: the Jacobi matrix has
    zero diagonal and off-diagonal k / sqrt(4k^2 - 1), mass 2.  Trapezoid
    in phi.  The weight of grid point (i, j) is theta_weights[i] *
    phi_weights[j]; the 256 weights sum to 4 pi.

    Exact for every angular block checked here: a block between levels
    l_a and l_b integrates a polynomial in cos(theta) of degree at most
    l_a + l_b + 1 times e^{ik phi} with |k| <= l_a + l_b + 1.  16 Legendre
    nodes are exact to degree 31 and 16 trapezoid points for |k| <= 15, so
    the rule is exact for l_a + l_b <= 14.
    """
    n = 16
    x, w = _golub_welsch([0.0] * n, [k / math.sqrt(4.0 * k * k - 1.0) for k in range(1, n)],
                         2.0, lambda x: 0.0)
    return (tuple(math.acos(v) for v in x), w,
            tuple(2.0 * math.pi * k / n for k in range(n)), (2.0 * math.pi / n,) * n)


def sphere_integrate(values, rule=None) -> complex:
    """Integrate samples on a sphere rule's grid (theta-major: values[i *
    len(phi) + j] at (theta[i], phi[j])) as the fsum of the weighted
    samples, real and imaginary parts apart."""
    _, theta_weights, _, phi_weights = sphere_rule() if rule is None else rule
    terms = list(map(mul, [a * b for a in theta_weights for b in phi_weights], values))
    return complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
