"""Weighted quadrature over semirings/rings and every explicit modulus bound.

The recurring measure is d(nu)(x) = |x - x0|^(-n) dm(x); in log-radial
coordinates x = x0 + e^s z it factors into ds * d(sigma)(z), so quadrature is
a tensor product of Gauss-Legendre in s and a spherical rule in z.  For the
half shapes the spherical part runs over the upper hemisphere and
nu(S) = (omega_{n-1}/2) log(r1/r0); full rings drop the factor 2 and use the
whole sphere ("ring variant" of every bound below).

The bound evaluators return a BoundReport carrying both sides, a quadrature
error estimate from one refinement step, and a verdict; ``violated`` is only
reported when the gap exceeds the combined error, otherwise a failed
comparison stays ``inconclusive``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from .constants import ball_volume, sphere_area
from .dilatation import angular_dilatation_field, normal_dilatation_field
from .geometry import Annulus, HalfSemiring, Shape, exact_modulus
from .maps import Mapping, MapDomainError
from .special import constants_for


@dataclass(frozen=True)
class QuadratureSpec:
    """Tensor quadrature parameters: log-radial x spherical product rule."""

    radial: int = 32
    angular: int = 24
    rel_tol: float = 1e-7
    max_refine: int = 3

    def __post_init__(self):
        if self.radial < 8 or self.angular < 8:
            raise ValueError("quadrature needs at least 8 nodes each way")
        if not 0.0 < self.rel_tol <= 1e-2:
            raise ValueError("rel_tol must lie in (0, 1e-2]")


DEFAULT_SPEC = QuadratureSpec()

MC_SEED = 20240229
MC_MIN_POINTS = 100_000
QUAD_BLOCK = 1 << 16      # integrand points per call of g in _quad_once


@dataclass
class BoundReport:
    """Evaluated sides of an inequality with an error estimate and verdict."""

    inequality: str
    left: float | None
    right: float | list | None
    error: float
    verdict: str                      # holds / violated / inconclusive
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "id": self.inequality,
            "left": self.left,
            "right": self.right,
            "error": self.error,
            "verdict": self.verdict,
            "details": {k: (list(v) if isinstance(v, np.ndarray) else v)
                        for k, v in self.details.items()},
        }


@lru_cache(maxsize=64)
def _leggauss(m: int):
    return np.polynomial.legendre.leggauss(m)


def _gauss(m: int, a: float, b: float):
    x, w = _leggauss(m)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


@lru_cache(maxsize=64)
def _sphere_rule(n: int, count: int, hemisphere: bool):
    """Unit directions and weights integrating the (hemi)sphere measure.

    n = 2: Gauss-Legendre in the angle (half circle) or a uniform periodic
    rule (full circle).  n = 3: product Gauss in cos(polar) x uniform
    azimuthal.  n >= 4: fixed-seed Monte Carlo with >= 1e5 points.
    """
    if n == 2:
        if hemisphere:
            th, w = _gauss(count, 0.0, math.pi)
        else:
            th = np.arange(2 * count) * (math.pi / count)
            w = np.full(2 * count, math.pi / count)
        Z = np.stack([np.cos(th), np.sin(th)], axis=1)
        return Z, w
    if n == 3:
        lo = 0.0 if hemisphere else -1.0
        u, wu = _gauss(count, lo, 1.0)
        m_az = 2 * count
        psi = np.arange(m_az) * (2.0 * math.pi / m_az)
        s = np.sqrt(1.0 - u ** 2)
        Z = np.stack([np.outer(s, np.cos(psi)),
                      np.outer(s, np.sin(psi)),
                      np.outer(u, np.ones(m_az))], axis=-1).reshape(-1, 3)
        w = np.outer(wu, np.full(m_az, 2.0 * math.pi / m_az)).ravel()
        return Z, w
    pts = max(MC_MIN_POINTS, count * count)
    rng = np.random.default_rng(MC_SEED)
    Z = rng.standard_normal((pts, n))
    Z /= np.linalg.norm(Z, axis=1, keepdims=True)
    if hemisphere:
        Z[:, -1] = np.abs(Z[:, -1])
        total = sphere_area(n) / 2.0
    else:
        total = sphere_area(n)
    return Z, np.full(pts, total / pts)


def nu_measure(shape: Shape) -> float:
    """Total mass of |x - x0|^(-n) dm over the shape."""
    half = 0.5 if shape.kind == "semiring" else 1.0
    return half * sphere_area(shape.n) * exact_modulus(shape)


def _check_quad_shape(shape: Shape):
    if not isinstance(shape, (Annulus, HalfSemiring)):
        raise TypeError("weighted quadrature supports annuli and half semirings")


def _quad_once(g: Callable, shape: Shape, nr: int, na: int) -> float:
    n = shape.n
    hemisphere = shape.kind == "semiring"
    Z, wz = _sphere_rule(n, na, hemisphere)
    s, ws = _gauss(nr, math.log(shape.r0), math.log(shape.r1))
    radius = np.exp(s)
    # blocks of points in row-major (radius, direction) order bound the memory;
    # each point is computed as in one whole-level array, so the sum is unchanged
    vals = np.empty(len(s) * len(Z))
    for lo in range(0, len(vals), QUAD_BLOCK):
        idx = np.arange(lo, min(lo + QUAD_BLOCK, len(vals)))
        X = shape.x0 + radius[idx // len(Z), None] * Z[idx % len(Z)]
        vals[idx] = np.asarray(g(X), dtype=float)
    vals = vals.reshape(len(s), len(Z))
    if not np.all(np.isfinite(vals)):
        raise ValueError("non-finite integrand sample")
    return float(ws @ (vals @ wz))


def quad_weighted_with_error(g: Callable, shape: Shape,
                             spec: QuadratureSpec = DEFAULT_SPEC) -> tuple[float, float]:
    """Integral of g(x) |x - x0|^(-n) dm over the shape, with error estimate.

    Refines the tensor rule (doubling both directions) until the change is
    below spec.rel_tol or the refinement cap; the last change is the error
    estimate.
    """
    _check_quad_shape(shape)
    nr, na = spec.radial, spec.angular
    val = _quad_once(g, shape, nr, na)
    err = math.inf
    for _ in range(spec.max_refine):
        nr, na = 2 * nr, 2 * na
        nxt = _quad_once(g, shape, nr, na)
        err = abs(nxt - val)
        val = nxt
        if err <= spec.rel_tol * max(1.0, abs(val)):
            break
    return val, err


def quad_weighted(g: Callable, shape: Shape, spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    return quad_weighted_with_error(g, shape, spec)[0]


# ---------------------------------------------------------------------------
# moduli sandwich (averages of the directional dilatations)
# ---------------------------------------------------------------------------

def eq1est_bounds(mapping: Mapping, shape: Shape, spec: QuadratureSpec = DEFAULT_SPEC,
                  image_mo: float | None = None, image_mo_error: float = 0.0) -> BoundReport:
    """Two-sided bound on mo f(S) / mo S from the directional dilatations.

    lower = (nu-average of the angular dilatation)^(1/(1-n)),
    upper = nu-average of the normal dilatation.  When ``image_mo`` is given
    the verdict checks lower <= image_mo / mo S <= upper within the combined
    error estimates.
    """
    _check_quad_shape(shape)
    n = shape.n
    nu = nu_measure(shape)
    I_d, e_d = quad_weighted_with_error(angular_dilatation_field(mapping, shape.x0), shape, spec)
    I_t, e_t = quad_weighted_with_error(normal_dilatation_field(mapping, shape.x0), shape, spec)
    avg_d, avg_t = I_d / nu, I_t / nu
    lower = avg_d ** (1.0 / (1.0 - n))
    upper = avg_t
    err_lower = abs(lower / avg_d) * (e_d / nu) / (n - 1.0)
    err_upper = e_t / nu
    details = {"avg_angular": avg_d, "avg_normal": avg_t,
               "err_lower": err_lower, "err_upper": err_upper}
    if image_mo is None:
        verdict = "inconclusive"
    else:
        ratio = image_mo / exact_modulus(shape)
        ratio_err = image_mo_error / exact_modulus(shape)
        details["ratio"] = ratio
        # absolute floor: sharp cases sit exactly on a bound, and when two
        # quadrature levels agree to the last bit the error estimate is zero,
        # so rounding alone would decide the verdict
        floor = 1e-9 * max(1.0, abs(ratio))
        ok_low = ratio >= lower - err_lower - ratio_err - floor
        ok_high = ratio <= upper + err_upper + ratio_err + floor
        verdict = "holds" if (ok_low and ok_high) else "violated"
    return BoundReport("eq1est", lower, upper, err_lower + err_upper, verdict, details)


def eq2est_bounds(mapping: Mapping, shape: Shape, spec: QuadratureSpec = DEFAULT_SPEC,
                  image_mo: float | None = None, image_mo_error: float = 0.0) -> BoundReport:
    """Bracket for the modulus defect mo S - mo f(S).

    lower = -pref * integral of (normal - 1) d nu,
    upper = +pref * integral of (angular - 1) d nu,
    with pref = 2/omega_{n-1} on half shapes and 1/omega_{n-1} on rings.
    The lower inequality always applies; the upper one is only claimed when
    mo S >= mo f(S), otherwise it is reported inconclusive.
    """
    _check_quad_shape(shape)
    pref = (2.0 if shape.kind == "semiring" else 1.0) / sphere_area(shape.n)
    d_field = angular_dilatation_field(mapping, shape.x0)
    t_field = normal_dilatation_field(mapping, shape.x0)
    I_t, e_t = quad_weighted_with_error(lambda X: t_field(X) - 1.0, shape, spec)
    I_d, e_d = quad_weighted_with_error(lambda X: d_field(X) - 1.0, shape, spec)
    lower = -pref * I_t
    upper = pref * I_d
    err = pref * (e_t + e_d)
    details = {"err_lower": pref * e_t, "err_upper": pref * e_d}
    if image_mo is None:
        verdict = "inconclusive"
    else:
        diff = exact_modulus(shape) - image_mo
        details["difference"] = diff
        floor = 1e-9 * max(1.0, abs(diff))
        lower_ok = diff >= lower - pref * e_t - image_mo_error - floor
        details["lower_verdict"] = "holds" if lower_ok else "violated"
        if diff >= -image_mo_error - floor:
            upper_ok = diff <= upper + pref * e_d + image_mo_error + floor
            details["upper_verdict"] = "holds" if upper_ok else "violated"
        else:
            upper_ok = True
            details["upper_verdict"] = "inconclusive"
        if not (lower_ok and upper_ok):
            verdict = "violated"
        elif details["upper_verdict"] == "inconclusive":
            verdict = "inconclusive"
        else:
            verdict = "holds"
    return BoundReport("eq2est", lower, upper, err, verdict, details)


# ---------------------------------------------------------------------------
# radial integral lower bound
# ---------------------------------------------------------------------------

def _sphere_jitter(Z: np.ndarray, n: int, hemisphere: bool) -> np.ndarray:
    """Deterministic nudge keeping nodes on the (hemi)sphere, used once when a
    cubature node lands on an irregular point."""
    if n == 2:
        th = np.arctan2(Z[:, 1], Z[:, 0])
        mid = math.pi / 2 if hemisphere else 0.0
        th = th + 1e-5 * np.sign(mid - th + 1e-16)
        return np.stack([np.cos(th), np.sin(th)], axis=1)
    c, s = math.cos(1e-5), math.sin(1e-5)
    R = np.eye(n)
    R[0, 0], R[0, 1], R[1, 0], R[1, 1] = c, -s, s, c
    return Z @ R.T


def psi_D(mapping: Mapping, t: float, x0, spec: QuadratureSpec = DEFAULT_SPEC,
          full_sphere: bool = False) -> float:
    """Spherical average of the angular dilatation on the shell of radius t."""
    if t <= 0:
        raise ValueError("radius must be positive")
    x0 = np.asarray(x0, dtype=float)
    n = len(x0)
    Z, wz = _sphere_rule(n, spec.angular, hemisphere=not full_sphere)
    g = angular_dilatation_field(mapping, x0)
    try:
        vals = g(x0 + t * Z)
    except (MapDomainError, ValueError):
        # one deterministic jitter when a node lands on an irregular point
        Zj = _sphere_jitter(Z, n, not full_sphere)
        vals = g(x0 + t * Zj)
    return float(np.dot(vals, wz) / wz.sum())


def _modint_once(mapping, x0, r, R, nr, na_spec, full_sphere):
    n = len(x0)
    s, ws = _gauss(nr, math.log(r), math.log(R))
    Z, wz = _sphere_rule(n, na_spec, hemisphere=not full_sphere)
    g = angular_dilatation_field(mapping, np.asarray(x0, float))
    X = np.asarray(x0, float) + np.exp(s)[:, None, None] * Z[None, :, :]
    vals = np.asarray(g(X.reshape(-1, n))).reshape(len(s), len(Z))
    psi = (vals @ wz) / wz.sum()
    return float(ws @ psi ** (1.0 / (1.0 - n)))


def modintbound_with_error(mapping: Mapping, x0, r: float, R: float,
                           spec: QuadratureSpec = DEFAULT_SPEC,
                           full_sphere: bool = False) -> tuple[float, float]:
    """Lower bound for mo f(S(x0; r, R)): radial integral of the reciprocal
    (n-1)-root of the shell averages of the angular dilatation."""
    if not 0 < r < R:
        raise ValueError("need 0 < r < R")
    x0 = np.asarray(x0, dtype=float)
    nr, na = spec.radial, spec.angular
    val = _modint_once(mapping, x0, r, R, nr, na, full_sphere)
    err = math.inf
    for _ in range(spec.max_refine):
        nr, na = 2 * nr, 2 * na
        nxt = _modint_once(mapping, x0, r, R, nr, na, full_sphere)
        err = abs(nxt - val)
        val = nxt
        if err <= spec.rel_tol * max(1.0, abs(val)):
            break
    return val, err


def modintbound(mapping: Mapping, x0, r: float, R: float,
                spec: QuadratureSpec = DEFAULT_SPEC, full_sphere: bool = False) -> float:
    return modintbound_with_error(mapping, x0, r, R, spec, full_sphere)[0]


# ---------------------------------------------------------------------------
# dominating factors
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DominatingFactor:
    """Increasing factor H with exp(H) convex, used to bound exponential means.

    Families: linear H(t) = gamma*t; power H(t) = c*max(t, t0)^alpha with the
    flatness threshold t0 chosen so exp(H) stays convex; tabulated monotone
    samples.  ``inverse`` is only defined above H(t0).
    """

    family: str                        # linear / power / tabulated
    gamma: float = 0.0
    coeff: float = 0.0
    alpha: float = 0.0
    t0: float = 0.0
    table_t: np.ndarray = None
    table_h: np.ndarray = None

    @classmethod
    def linear(cls, gamma: float) -> "DominatingFactor":
        if gamma <= 0:
            raise ValueError("linear factor needs gamma > 0")
        return cls(family="linear", gamma=gamma)

    @classmethod
    def power(cls, coeff: float, alpha: float, t0: float | None = None) -> "DominatingFactor":
        if coeff <= 0 or alpha <= 0:
            raise ValueError("power factor needs c > 0 and alpha > 0")
        # exp(c t^alpha) convex needs c*alpha*t^alpha >= 1-alpha
        t_min = 0.0 if alpha >= 1 else ((1.0 - alpha) / (coeff * alpha)) ** (1.0 / alpha)
        t0 = t_min if t0 is None else max(t0, t_min)
        return cls(family="power", coeff=coeff, alpha=alpha, t0=t0)

    @classmethod
    def tabulated(cls, t, h) -> "DominatingFactor":
        t = np.asarray(t, dtype=float)
        h = np.asarray(h, dtype=float)
        if len(t) < 4 or np.any(np.diff(t) <= 0) or np.any(np.diff(h) <= 0):
            raise ValueError("tabulated factor needs >= 4 strictly increasing samples")
        eh = np.exp(h - h.max())
        slopes = np.diff(eh) / np.diff(t)
        if np.any(np.diff(slopes) < -1e-12 * np.abs(slopes[:-1])):
            raise ValueError("tabulated factor fails convexity of exp(H) on the sample grid")
        return cls(family="tabulated", t0=float(t[0]), table_t=t, table_h=h)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if self.family == "linear":
            return self.gamma * t
        if self.family == "power":
            return self.coeff * np.maximum(t, self.t0) ** self.alpha
        lo = self.table_h[0]
        out = np.interp(t, self.table_t, self.table_h)
        if np.any(t > self.table_t[-1]):
            raise ValueError("argument beyond tabulated range")
        return np.where(t < self.t0, lo, out)

    def inverse(self, tau):
        tau = np.asarray(tau, dtype=float)
        if self.family == "linear":
            return tau / self.gamma
        if self.family == "power":
            if np.any(tau < self.coeff * self.t0 ** self.alpha - 1e-15):
                raise ValueError("inverse undefined below H(t0)")
            return (tau / self.coeff) ** (1.0 / self.alpha)
        if np.any(tau < self.table_h[0]) or np.any(tau > self.table_h[-1]):
            raise ValueError("inverse beyond tabulated range")
        return np.interp(tau, self.table_h, self.table_t)


def is_divergence_type(factor: DominatingFactor, n: int) -> str:
    """Classify: does the integral of H(t) t^(-n/(n-1)) over [1, inf) diverge?

    Linear factors always diverge; powers diverge exactly when
    alpha >= 1/(n-1).  Tabulated factors get a numeric growth test on the
    available range and may come back inconclusive.
    """
    if n < 2:
        raise ValueError("dimension must be >= 2")
    crit = 1.0 / (n - 1.0)
    if factor.family == "linear":
        return "divergent"
    if factor.family == "power":
        return "divergent" if factor.alpha >= crit else "convergent"
    t = factor.table_t
    hi = min(t[-1], 1e6)
    lo = max(t[0], hi / 10.0, 1.0)
    if hi <= lo * 1.5:
        return "inconclusive"
    slope = (math.log(float(factor(hi))) - math.log(float(factor(lo)))) / (math.log(hi) - math.log(lo))
    margin = 0.05
    if slope > crit + margin:
        return "divergent"
    if slope < crit - margin:
        return "convergent"
    return "inconclusive"


@dataclass(frozen=True)
class DominatedBound:
    value: float                # quadrature of the lower-bound integral
    closed_form: float | None   # exact value for linear factors
    sigma: float
    constants: dict


def dominated_modulus_bound(m: float, big_m: float, r0: float, n: int,
                            factor: DominatingFactor) -> DominatedBound:
    """Lower bound for the image modulus under an exponential-mean constraint.

    Integrates 1 / H^{-1}(n t + sigma)^(1/(n-1)) over t in [1/n, m] with
    sigma = log(2 n M / (omega_{n-1} r0^n)).  For linear factors the integral
    has the closed form

        n = 2:  C2 * log((n m + sigma) / (1 + sigma)),  C2 = gamma^(1/(n-1))/n
        n >= 3: C1 * ((n m + sigma)^mu - (1 + sigma)^mu),
                C1 = (n-1) gamma^(1/(n-1)) / (n (n-2)),  mu = (n-2)/(n-1),

    which is also returned for cross-checking the quadrature.
    """
    if n < 2:
        raise ValueError("dimension must be >= 2")
    if m <= 1.0 / n:
        raise ValueError(f"need m > 1/n, got m = {m}")
    if big_m <= 0 or r0 <= 0:
        raise ValueError("need M > 0 and r0 > 0")
    arg = 2.0 * n * big_m / (sphere_area(n) * r0 ** n)
    if arg <= 0:
        raise ValueError("sigma undefined: nonpositive log argument")
    sigma = math.log(arg)
    if factor.family == "linear" and 1.0 + sigma <= 0:
        raise ValueError("integrand undefined: n t + sigma must stay positive")

    expo = 1.0 / (n - 1.0)

    def integrand(t):
        return 1.0 / factor.inverse(n * t + sigma) ** expo

    nr = 96
    t, w = _gauss(nr, 1.0 / n, m)
    val = float(w @ integrand(t))
    for _ in range(3):
        nr *= 2
        t, w = _gauss(nr, 1.0 / n, m)
        nxt = float(w @ integrand(t))
        done = abs(nxt - val) <= 1e-12 * max(1.0, abs(nxt))
        val = nxt
        if done:
            break

    closed = None
    constants: dict = {"sigma": sigma}
    if factor.family == "linear":
        g = factor.gamma ** expo
        if n == 2:
            c2 = g / n
            closed = c2 * math.log((n * m + sigma) / (1.0 + sigma))
            constants.update(c2=c2)
        else:
            mu = (n - 2.0) / (n - 1.0)
            c1 = (n - 1.0) * g / (n * (n - 2.0))
            closed = c1 * ((n * m + sigma) ** mu - (1.0 + sigma) ** mu)
            constants.update(c1=c1, mu=mu)
    return DominatedBound(value=val, closed_form=closed, sigma=sigma, constants=constants)


# ---------------------------------------------------------------------------
# separation / boundary regularity constants
# ---------------------------------------------------------------------------

def separation_bound(mo: float, n: int = 2) -> float:
    """Upper bound Q_n exp(-mo/2) for the smaller complementary diameter."""
    return constants_for(n).q_value * math.exp(-0.5 * mo)


def boundary_estimate(mo: float, dist: float, n: int = 2) -> float:
    """Upper bound exp(A_n) * dist * exp(-mo); requires mo > A_n."""
    if dist <= 0:
        raise ValueError("distance must be positive")
    a = constants_for(n).a_value
    if not mo > a:
        raise ValueError(f"precondition mo > A_n fails: {mo} <= {a}")
    return math.exp(a) * dist * math.exp(-mo)


@dataclass(frozen=True)
class LipschitzConstants:
    c1: float                  # exp(A_n + 2M/omega_{n-1}) / R
    c2: float                  # exp(A_n) / R
    admissible_radius: float   # R exp(-A_n - 2M/omega_{n-1})
    conservative: bool         # True when built from the A_n upper bound


def lipschitz_constants(a_n: float, big_m: float, R: float, n: int,
                        conservative: bool | None = None) -> LipschitzConstants:
    """Local Lipschitz constants of the extended boundary map."""
    if R <= 0:
        raise ValueError("R must be positive")
    if big_m < 0:
        raise ValueError("M must be nonnegative")
    bump = 2.0 * big_m / sphere_area(n)
    if conservative is None:
        conservative = n >= 3
    return LipschitzConstants(
        c1=math.exp(a_n + bump) / R,
        c2=math.exp(a_n) / R,
        admissible_radius=R * math.exp(-a_n - bump),
        conservative=conservative,
    )


# ---------------------------------------------------------------------------
# averaged-dilatation identity behind the weak Hoelder estimate
# ---------------------------------------------------------------------------

def _omega_profile(mapping: Mapping, t_pt: np.ndarray, radii: np.ndarray,
                   nq: int, na: int) -> np.ndarray:
    """omega(s) = (2/(Omega_n s^n)) * integral over the half ball of (D - 1).

    With rho = s*q the half-ball integral becomes
    (2 n / omega-normalizer) ... evaluated as a (s, q, z) tensor rule; the
    integrand is bounded, so plain Gauss in q suffices.
    """
    n = len(t_pt)
    Z, wz = _sphere_rule(n, na, hemisphere=True)
    q, wq = _gauss(nq, 0.0, 1.0)
    g = angular_dilatation_field(mapping, t_pt)
    # X[i,j,k] = t + radii[i]*q[j]*Z[k]
    X = t_pt + radii[:, None, None, None] * q[None, :, None, None] * Z[None, None, :, :]
    vals = np.asarray(g(X.reshape(-1, n))).reshape(len(radii), len(q), len(Z)) - 1.0
    inner = vals @ wz                      # (s, q) surface integrals on unit shells
    radial = (inner * (q ** (n - 1.0))) @ wq
    return 2.0 * radial / ball_volume(n)


def holder_identity_check(mapping: Mapping, t_pt, r: float, R: float,
                          spec: QuadratureSpec = DEFAULT_SPEC) -> BoundReport:
    """Verify the exact identity linking the nu-average and ball averages:

    (P - 1) log(R/r) = (omega(R) - omega(r))/n + integral_r^R omega(s)/s ds,

    where P is the nu-average of the angular dilatation over S(t; r, R) and
    omega(s) the normalized half-ball average of (angular - 1) at radius s.
    Both sides are evaluated by quadrature at two refinement levels; the
    verdict is ``holds`` when they agree within the combined error.
    """
    if not 0 < r < R:
        raise ValueError("need 0 < r < R")
    t_pt = np.asarray(t_pt, dtype=float)
    if t_pt[-1] != 0.0:
        raise ValueError("reference point must lie on the boundary hyperplane")
    n = len(t_pt)
    shape = HalfSemiring(n=n, r0=r, r1=R, center=t_pt)

    def both_sides(nr, na, nq):
        P_int = _quad_once(angular_dilatation_field(mapping, t_pt), shape, nr, na)
        P = P_int / nu_measure(shape)
        lhs = (P - 1.0) * math.log(R / r)
        s_nodes, ws = _gauss(nr, math.log(r), math.log(R))
        omega_mid = _omega_profile(mapping, t_pt, np.exp(s_nodes), nq, na)
        omega_ends = _omega_profile(mapping, t_pt, np.array([R, r]), nq, na)
        rhs = (omega_ends[0] - omega_ends[1]) / n + float(ws @ omega_mid)
        return lhs, rhs

    lhs1, rhs1 = both_sides(spec.radial, spec.angular, spec.radial)
    lhs2, rhs2 = both_sides(2 * spec.radial, 2 * spec.angular, 2 * spec.radial)
    err = abs(lhs2 - lhs1) + abs(rhs2 - rhs1) + 1e-10
    gap = abs(lhs2 - rhs2)
    verdict = "holds" if gap <= err else ("violated" if gap > 2.0 * err else "inconclusive")
    return BoundReport("holder-identity", lhs2, rhs2, err, verdict,
                       details={"gap": gap})


# ---------------------------------------------------------------------------
# modulus of continuity at the boundary
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ContinuityBound:
    value: float               # bound on |f(x1)-f(x0)| (n=2) or log|f(x1)-f(x0)| (n>=3)
    is_log_bound: bool
    constants: dict
    conservative: bool


def continuity_bounds(n: int, gamma: float, big_m: float, r0: float,
                      dist: float, separation: float) -> ContinuityBound:
    """Explicit modulus-of-continuity bound for a linear dominating factor.

    n = 2 bounds the displacement by alpha * (log(r0/d))^(-C2); n >= 3 bounds
    its logarithm by -beta * (log(r0/d))^mu + delta, with d = |x1 - x0| and
    the constants assembled from gamma, M, r0 and A_n (upper bound used for
    n >= 3, which only enlarges the constants).
    """
    if not 0 < separation < r0:
        raise ValueError("need 0 < |x1 - x0| < r0")
    if gamma <= 0 or big_m <= 0 or dist <= 0:
        raise ValueError("gamma, M and dist must be positive")
    sc = constants_for(n)
    a = sc.a_value
    sigma = math.log(2.0 * n * big_m / (sphere_area(n) * r0 ** n))
    g = gamma ** (1.0 / (n - 1.0))
    L = math.log(r0 / separation)
    if n == 2:
        c2 = g / n
        alpha = dist * math.exp(a - c2 * math.log(n))
        return ContinuityBound(
            value=alpha * L ** (-c2),
            is_log_bound=False,
            constants={"alpha": alpha, "c2": c2, "sigma": sigma, "a_n": a},
            conservative=not sc.a_is_exact,
        )
    mu = (n - 2.0) / (n - 1.0)
    c1 = (n - 1.0) * g / (n * (n - 2.0))
    beta = c1 * n ** mu
    delta = a + c1 * (1.0 + sigma) ** mu + math.log(dist)
    return ContinuityBound(
        value=-beta * L ** mu + delta,
        is_log_bound=True,
        constants={"beta": beta, "delta": delta, "c1": c1, "mu": mu, "sigma": sigma, "a_n": a},
        conservative=not sc.a_is_exact,
    )


# ---------------------------------------------------------------------------
# behavior at infinity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrendReport:
    radii: tuple
    values: tuple
    verdict: str               # extends / inconclusive


def infinity_check(field_or_map, r0: float, radii, n: int | None = None,
                   spec: QuadratureSpec = DEFAULT_SPEC, x0=None) -> TrendReport:
    """Decay test of (log R)^(-2) * integral of (D - 1) d nu over S(0; r0, R).

    Accepts either a mapping (its angular dilatation about x0 is used) or a
    raw scalar field x -> D(x).  Verdict ``extends`` needs the sequence to be
    decreasing with final value below 1e-2; anything else is inconclusive.
    """
    radii = list(radii)
    if any(b <= a for a, b in zip(radii, radii[1:])) or not radii:
        raise ValueError("radii must be increasing and nonempty")
    if isinstance(field_or_map, Mapping):
        if x0 is None:
            if n is None:
                raise ValueError("pass n (or x0) when using a mapping")
            x0 = np.zeros(n)
        x0 = np.asarray(x0, dtype=float)
        n = len(x0)
        field = angular_dilatation_field(field_or_map, x0)
    else:
        if n is None:
            raise ValueError("pass n when using a raw field")
        field = field_or_map
        x0 = np.zeros(n) if x0 is None else np.asarray(x0, float)

    vals = []
    for R in radii:
        if R <= r0:
            raise ValueError("all radii must exceed r0")
        shape = HalfSemiring(n=n, r0=r0, r1=R, center=x0)
        I, _ = quad_weighted_with_error(lambda X: np.asarray(field(X)) - 1.0, shape, spec)
        vals.append(I / math.log(R) ** 2)
    decreasing = all(b < a + 1e-12 for a, b in zip(vals, vals[1:]))
    verdict = "extends" if (decreasing and abs(vals[-1]) < 1e-2) else "inconclusive"
    return TrendReport(radii=tuple(radii), values=tuple(vals), verdict=verdict)
