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

numpy is imported inside the functions that build or take arrays, so
importing this module (and the package) does not load it; the endpoint
sample and laguerre_general at a float are plain floats.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from operator import mul
from typing import TYPE_CHECKING

from .constants import finite_real
from .errors import DomainError, ValidationError

if TYPE_CHECKING:  # numpy is imported where arrays are built
    import numpy as np

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
    import numpy as np

    p_mm = np.full_like(cos_theta, 1.0 / math.sqrt(4.0 * math.pi))
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


def spherical_harmonic(l: int, m: int, theta, phi):
    """Orthonormal complex spherical harmonic Y_lm(theta, phi).

    Condon-Shortley phase; integral of |Y_lm|^2 over the sphere is 1.
    theta and phi may be scalars or broadcastable arrays.
    """
    import numpy as np

    if l < 0:
        raise DomainError(f"spherical_harmonic requires l >= 0, got l={l}")
    if abs(m) > l:
        raise DomainError(f"spherical_harmonic requires |m| <= l, got l={l}, m={m}")
    th = np.asarray(theta, dtype=float)
    ph = np.asarray(phi, dtype=float)
    am = abs(m)
    p = _norm_legendre(l, am, np.cos(th), np.sin(th))
    y = p * np.exp(1j * am * ph)
    if m < 0:
        y = (-1) ** am * np.conj(y)
    return y if (np.ndim(theta) or np.ndim(phi)) else complex(y)


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


def spinor_harmonic(j: float, l: int, M: float, theta, phi):
    """Two-component spinor spherical harmonic for total momentum (j, M).

    Upper component carries Y_{l, M-1/2}, lower Y_{l, M+1/2}, weighted by
    the two-branch coupling coefficients.  Normalized over the sphere.
    Returns an array of shape (2,) + broadcast shape of theta/phi.
    """
    import numpy as np

    c_up, c_dn = spinor_clebsch(j, l, M)
    th = np.asarray(theta, dtype=float)
    ph = np.asarray(phi, dtype=float)
    shape = np.broadcast(th, ph).shape
    out = np.zeros((2,) + shape, dtype=complex)
    m_up, m_dn = M - 0.5, M + 0.5
    if abs(m_up) <= l and c_up != 0.0:
        out[0] = c_up * spherical_harmonic(l, int(round(m_up)), th, ph)
    if abs(m_dn) <= l and c_dn != 0.0:
        out[1] = c_dn * spherical_harmonic(l, int(round(m_dn)), th, ph)
    return out


def spinor_orbital_m(M: float) -> tuple[float, float]:
    """Orbital magnetic numbers (M-1/2, M+1/2) carried by the two components."""
    return M - 0.5, M + 0.5


# ---------------------------------------------------------------------------
# Gauss-Laguerre quadrature
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights for integration against x^beta e^-x on (0, inf)."""

    nodes: np.ndarray
    weights: np.ndarray
    beta: float = 0.0

    def integrate(self, func) -> float:
        import numpy as np

        return float(np.sum(self.weights * func(self.nodes)))


@lru_cache(maxsize=512)
def _laguerre_rule(n: int, beta: float) -> tuple[np.ndarray, np.ndarray]:
    import numpy as np

    # Golub-Welsch nodes from the symmetric Jacobi matrix; weights from the
    # Christoffel sum 1/sum_k p~_k(x)^2 evaluated in exponentially scaled
    # form q_k = p~_k(x) x^{beta/2} e^{-x/2} so nothing overflows.
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
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def gauss_laguerre(n: int, beta: float = 0.0) -> QuadratureRule:
    """n-point Gauss rule for the weight x^beta e^-x on (0, inf).

    beta = 0 is the plain Gauss-Laguerre rule, exact for polynomials of
    degree <= 2n - 1.  Requires beta > -1 for an integrable weight.
    """
    if n < 1:
        raise DomainError(f"gauss_laguerre requires n >= 1, got {n}")
    if beta <= -1.0:
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
    Gauss-Laguerre order until the relative change falls below tol.  No
    package code calls it; it stays while the benchmark's tracer names it."""
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
    """16 x 16 tensor rule over the unit sphere.

    Gauss-Legendre in cos(theta), with nodes and weights by Golub-Welsch:
    the Jacobi matrix has zero diagonal and off-diagonal k / sqrt(4k^2 - 1),
    its eigenvalues are the nodes and 2 v_0^2 (v_0 the first component of
    each unit eigenvector) the weights.  Trapezoid in phi.

    Exact for every angular block checked here: a block between levels
    l_a and l_b integrates a polynomial in cos(theta) of degree at most
    l_a + l_b + 1 times e^{ik phi} with |k| <= l_a + l_b + 1.  16 Legendre
    nodes are exact to degree 31 and 16 trapezoid points for |k| <= 15, so
    the rule is exact for l_a + l_b <= 14.

    Returns (theta_grid, phi_grid, weight_grid), each of shape (16, 16),
    with sum(weights) = 4 pi.
    """
    import numpy as np

    n = 16
    k = np.arange(1, n, dtype=float)
    off = k / np.sqrt(4.0 * k * k - 1.0)
    x, vecs = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    w = 2.0 * vecs[0] ** 2
    theta = np.arccos(x)
    phi = 2.0 * math.pi * np.arange(n) / n
    th_grid, ph_grid = np.meshgrid(theta, phi, indexing="ij")
    w_grid = np.repeat(w[:, None], n, axis=1) * (2.0 * math.pi / n)
    for arr in (th_grid, ph_grid, w_grid):
        arr.setflags(write=False)
    return th_grid, ph_grid, w_grid


def sphere_integrate(values, rule=None) -> complex:
    """Integrate grid samples produced on sphere_rule grids."""
    import numpy as np

    if rule is None:
        rule = sphere_rule()
    _, _, w = rule
    return complex(np.sum(w * values))
