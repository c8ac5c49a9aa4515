"""Weighted quadrature over semirings/rings and every explicit modulus bound.

The recurring measure is d(nu)(x) = |x - x0|^(-n) dm(x); in log-radial
coordinates x = x0 + e^s z it factors into ds * d(sigma)(z), so quadrature is
a tensor product of Gauss-Legendre in s and a spherical rule in z.  For the
half shapes the spherical part runs over the upper hemisphere and
nu(S) = (omega_{n-1}/2) log(r1/r0); full rings drop the factor 2 and use the
whole sphere ("ring variant" of every bound below).

Every shell quantity goes through the same two steps: ``_shell_sums``
evaluates the integrand on blocks of shell points and sums each shell with
the spherical rule, and ``_refine`` doubles the radial and angular node
counts up to ``max_refine`` times, stopping once the value changes by at
most QUAD_RTOL relative; the last change is the error estimate.  The
sandwich bounds eq1est and eq2est integrate the angular and the normal
dilatation over the same nodes: one frame per point gives both fields
(``_quad_dilatations``), and ``_refine_each`` refines each on its own
stopping rule, so both read the bits of two separate quadratures.  A value
whose last change still exceeds the tolerance stopped at its cap
(``_capped``); every refined report (eq1est, eq2est, modintbound, Hoelder,
domfac and infinity) says so in ``details["capped"]``.

The evaluators ``eq1est_bounds``, ``eq2est_bounds``, ``modintbound``,
``dominated_modulus_bound``, ``holder_identity_check``,
``continuity_bounds``, ``separation_bound`` and ``infinity_check`` return a
BoundReport carrying the bound (and, for a two-sided check, the other side),
the error estimate, and a verdict.  ``boundary_estimate`` and ``psi_D``
return a float and ``modintbound_with_error`` a value with its error.  One
rule judges every checked side: a side that fails by ``excess`` with
combined error ``err`` is ``inconclusive`` when err is not finite, ``holds``
when excess <= err + VERDICT_FLOOR and ``violated`` otherwise; a report
takes its worst side.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from .constants import ball_volume, sphere_area
# normal_dilatation_field is no longer called here; it stays importable from
# this module, as perfbench's warm-up reaches it
from .dilatation import _dilatations, angular_dilatation_field, normal_dilatation_field  # noqa: F401
from .geometry import Annulus, HalfSemiring, Shape, exact_modulus, span_area
from .maps import Mapping, MapDomainError
from .special import constants_for


@dataclass(frozen=True)
class QuadratureSpec:
    """Tensor quadrature parameters: the starting log-radial and spherical node
    counts of the product rule, and how often both may be doubled.  The
    doubling stops early once the value changes by at most QUAD_RTOL
    relative."""

    radial: int = 32
    angular: int = 24
    max_refine: int = 3

    def __post_init__(self):
        # the counts are doubled by shifts and max_refine counts doublings;
        # numpy integers pass, bools and floats do not
        for name in ("radial", "angular", "max_refine"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.radial < 8 or self.angular < 8:
            raise ValueError("quadrature needs at least 8 nodes each way")
        if self.max_refine < 0:
            raise ValueError(f"max_refine must be >= 0, got {self.max_refine}")


DEFAULT_SPEC = QuadratureSpec()

QUAD_RTOL = 1e-7          # relative change at which _refine stops doubling
# integrand points per call of g in _shell_sums.  At 1 << 14 the temporaries
# of a block of the planar angular field (component rows of the points,
# (2, 2, N) Jacobian, dual rows) fit a 2 MiB L2 and stay below glibc's mmap
# threshold, so the heap reuses them instead of faulting them in again: on a
# 2-core Xeon (BLAS on 1 thread) a perfbench `bounds` pass took 3,400-4,300
# minor faults at 1 << 16 and about 3 at 1 << 14.  With component-row
# blocks and one frame for both dilatations, an in-process seed-1 pass, the
# median of 5 in each of 10 alternating rounds, read 34.9 ms at 1 << 14
# against 37.1, 35.5, 37.9 and 42.5 ms at 1 << 12, 1 << 13, 1 << 15 and
# 1 << 16, which beat it in at most 3 of the 10 rounds
QUAD_BLOCK = 1 << 14
# absolute slack of every verdict: sharp cases sit exactly on a bound, and
# when two quadrature levels agree to the last bit the error estimate is 0,
# so rounding alone would otherwise decide the verdict
VERDICT_FLOOR = 1e-10
# rounding error of a quadrature side relative to its magnitude (8 ulps)
_SIDE_ROUNDING = 8.0 * float(np.finfo(float).eps)


@dataclass
class BoundReport:
    """Evaluated sides of an inequality with an error estimate and verdict."""

    inequality: str
    left: float | None
    right: float | None
    error: float
    verdict: str          # holds / violated / inconclusive / not-checked / extends
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


_SEVERITY = ("holds", "inconclusive", "violated")


def _side_verdict(excess: float, err: float) -> str:
    """Verdict of one side of an inequality that fails by ``excess`` (at most
    0 when it holds exactly), with combined error ``err``."""
    if not math.isfinite(err):
        return "inconclusive"
    return "holds" if excess <= err + VERDICT_FLOOR else "violated"


def _worst(*verdicts: str) -> str:
    """The verdict of a report: the worst of its sides."""
    return max(verdicts, key=_SEVERITY.index)


@lru_cache(maxsize=64)
def _leggauss(m: int):
    return np.polynomial.legendre.leggauss(m)


def _gauss(m: int, a: float, b: float):
    x, w = _leggauss(m)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


def _gauss_jacobi_sym(m: int, a: float):
    """m-node Gauss rule for the weight (1 - t^2)^a on [-1, 1] (Golub and
    Welsch 1969): the nodes are the eigenvalues of the Jacobi matrix of the
    weight's orthogonal polynomials, the weights mu0 = int (1 - t^2)^a dt
    times the squared first components of their unit eigenvectors."""
    k = np.arange(1, m)
    off = np.sqrt(k * (k + 2 * a) / ((2 * k + 2 * a + 1) * (2 * k + 2 * a - 1)))
    t, v = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    mu0 = math.sqrt(math.pi) * math.gamma(a + 1) / math.gamma(a + 1.5)
    return t, mu0 * v[0] ** 2


@lru_cache(maxsize=64)
def _sphere_rule(n: int, count: int, hemisphere: bool):
    """Unit directions and weights integrating the (hemi)sphere measure.

    n = 2: Gauss-Legendre in the angle (half circle) or a uniform periodic
    rule (full circle).  n = 3: product Gauss in cos(polar) x uniform
    azimuthal, count x 2 count directions.  n = 4, 5: product Gauss rule
    (Stroud 1971) built from the n = 3 rule by z = (t, sqrt(1 - t^2) y), with
    t on [-1, 1] at the Gauss-Jacobi nodes of the weight (1 - t^2)^((d-3)/2)
    for each dimension d = 4 .. n (``_gauss_jacobi_sym``, Golub-Welsch in
    numpy) and y from the rule one dimension lower;
    every factor has m nodes, m the least integer with m^(n-1) >= count^2,
    so the 2 m^(n-1) directions grow like the 2 count^2 of n = 3.  The rule
    integrates every even polynomial of degree < 2 m exactly.  Every rule is
    deterministic and, for count >= 8, its nodes change when count doubles,
    so doubling it is a real refinement; n >= 6 has no such rule of that
    size and is rejected, as is n < 2.
    """
    if not 2 <= n <= 5:
        raise ValueError(f"sphere rules are implemented for 2 <= n <= 5, got n = {n}")
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
    m = next(k for k in itertools.count(1) if k ** (n - 1) >= count * count)
    Z, w = _sphere_rule(3, m, hemisphere)
    for d in range(4, n + 1):
        t, wt = _gauss_jacobi_sym(m, 0.5 * (d - 3))
        Zd = np.empty((m, len(Z), d))
        Zd[..., 0] = t[:, None]
        Zd[..., 1:] = np.sqrt(1.0 - t * t)[:, None, None] * Z
        Z, w = Zd.reshape(-1, d), np.outer(wt, w).ravel()
    return Z, w


def nu_measure(shape: Shape) -> float:
    """Total mass of |x - x0|^(-n) dm over the shape."""
    return span_area(shape.kind, shape.n) * exact_modulus(shape)


def _check_quad_shape(shape: Shape):
    if not isinstance(shape, (Annulus, HalfSemiring)):
        raise TypeError("weighted quadrature supports annuli and half semirings")


def _shell_sums(g: Callable, x0: np.ndarray, radii: np.ndarray, rule) -> np.ndarray:
    """Spherical-rule sums of g over the shells x0 + radius z, one per radius.

    ``rule`` is a (directions, weights) pair from ``_sphere_rule``.  g maps
    points X: (N, n) to N values, or to a (k, N) array of k fields, which
    give k rows of sums.  The points run through blocks of at most
    QUAD_BLOCK in (radius, direction) order, which bound the memory and
    keep each block's temporaries cache-sized (see QUAD_BLOCK).  A block is
    built as component rows: the (n, shells, directions) array
    x0 + radius * z over the shells the block spans (fewer than
    QUAD_BLOCK + 2 len(directions) points), from the directions transposed
    once per call, then cut to the block; g gets its (N, n) transpose view,
    whose columns are contiguous, so the elementwise steps of the
    dilatation fields and the maps' Jacobians run over contiguous memory.
    Each point is computed as in one whole-level row-major array, so the
    values are too, and the level is summed only once every block is in:
    the result does not depend on QUAD_BLOCK.  A non-finite value raises
    ValueError.
    """
    Z, wz = rule
    m, n = Z.shape
    ZT = np.ascontiguousarray(Z.T)
    total = len(radii) * m
    vals = None
    for lo in range(0, total, QUAD_BLOCK):
        hi = min(lo + QUAD_BLOCK, total)
        i0, i1 = lo // m, (hi - 1) // m + 1
        X = (x0[:, None, None] + radii[i0:i1, None] * ZT[:, None, :]).reshape(n, -1)
        block = np.asarray(g(X[:, lo - i0 * m:hi - i0 * m].T), dtype=float)
        if vals is None:
            vals = np.empty(block.shape[:-1] + (total,))
        vals[..., lo:hi] = block
    if not np.all(np.isfinite(vals)):
        raise ValueError("non-finite integrand sample")
    sums = [row @ wz for row in vals.reshape(-1, len(radii), m)]
    return np.stack(sums).reshape(vals.shape[:-1] + (len(radii),))


def _capped(val: float, err: float, rel_tol: float = QUAD_RTOL) -> bool:
    """Whether a refined (value, error) missed the stopping tolerance of
    ``_refine``, i.e. stopped at its cap."""
    return not err <= rel_tol * max(1.0, abs(val))


def _refine(level: Callable[[int], float], max_refine: int,
            rel_tol: float = QUAD_RTOL) -> tuple[float, float, bool]:
    """(value, error, capped) of ``level(k)``, a rule with its node counts
    doubled k times: doubles up to max_refine times, stopping once the value
    changes by at most rel_tol * max(1, |value|); the error is the last
    change, inf without a doubling, and capped says the tolerance was not met
    within max_refine doublings."""
    return _refine_each(lambda k, live: [level(k)], 1, max_refine, rel_tol)[0]


def _refine_each(level: Callable, count: int, max_refine: int,
                 rel_tol: float = QUAD_RTOL) -> list[tuple[float, float, bool]]:
    """``_refine`` of ``count`` quantities that share their levels:
    ``level(k, live)`` gives the values at doubling k of the quantities whose
    indices are listed in ``live``.  Each quantity stops on its own rule and
    leaves ``live`` when it does, so later levels do not compute it; its
    (value, error, capped) are those of ``_refine`` on it alone."""
    vals, errs = list(level(0, range(count))), [math.inf] * count
    live = list(range(count))
    for k in range(1, max_refine + 1):
        for i, nxt in zip(live, level(k, live)):
            errs[i] = abs(nxt - vals[i])
            vals[i] = nxt
        live = [i for i in live if _capped(vals[i], errs[i], rel_tol)]
        if not live:
            break
    return [(val, err, _capped(val, err, rel_tol)) for val, err in zip(vals, errs)]


def _quad_once(g: Callable, shape: Shape, nr: int, na: int):
    """One level of the weighted integral of g: a float, or a list of k
    floats when g gives k fields (see ``_shell_sums``)."""
    s, ws = _gauss(nr, math.log(shape.r0), math.log(shape.r1))
    rule = _sphere_rule(shape.n, na, shape.kind == "semiring")
    sums = _shell_sums(g, shape.x0, np.exp(s), rule)
    return float(ws @ sums) if sums.ndim == 1 else [float(ws @ row) for row in sums]


def quad_weighted_with_error(g: Callable, shape: Shape,
                             spec: QuadratureSpec = DEFAULT_SPEC) -> tuple[float, float]:
    """Integral of g(x) |x - x0|^(-n) dm over the shape, with error estimate.

    Doubles both node counts of the tensor rule up to spec.max_refine times,
    stopping once the value changes by at most QUAD_RTOL relative; the error
    estimate is the last change (inf when spec.max_refine is 0).  ``_capped``
    tells whether the result stopped at the cap.
    """
    _check_quad_shape(shape)
    return _refine(lambda k: _quad_once(g, shape, spec.radial << k, spec.angular << k),
                   spec.max_refine)[:2]


def quad_weighted(g: Callable, shape: Shape, spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    return quad_weighted_with_error(g, shape, spec)[0]


def _quad_dilatations(mapping: Mapping, shape: Shape, spec: QuadratureSpec,
                      shift: float = 0.0) -> tuple[tuple[float, float], tuple[float, float]]:
    """((I_d, e_d), (I_t, e_t)): the angular and the normal dilatation of
    ``mapping`` about the shape's x0, minus ``shift``, each integrated as
    ``quad_weighted_with_error`` integrates its field, to the same bits.
    Both come from one ``_frame`` per point, and each field is refined on its
    own (``_refine_each``): once one has stopped, later levels evaluate only
    the other, and the normal field's kernel runs only while it is live."""
    _check_quad_shape(shape)
    x0 = shape.x0

    def level(k, live):
        def g(X):
            fields = _dilatations(mapping, x0, X, normal=1 in live)
            return np.stack([fields[i] for i in live]) - shift

        return _quad_once(g, shape, spec.radial << k, spec.angular << k)

    (I_d, e_d, _), (I_t, e_t, _) = _refine_each(level, 2, spec.max_refine)
    return (I_d, e_d), (I_t, e_t)


# ---------------------------------------------------------------------------
# moduli sandwich (averages of the directional dilatations)
# ---------------------------------------------------------------------------

def _require_image_mo(image_mo: float | None, image_mo_error: float) -> None:
    """ValueError unless ``image_mo`` is None or finite and positive, and
    ``image_mo_error`` finite and nonnegative."""
    _require_finite(image_mo_error=image_mo_error)
    if not image_mo_error >= 0:
        raise ValueError(f"image_mo_error must be nonnegative, got {image_mo_error}")
    if image_mo is not None:
        _require_finite(image_mo=image_mo)
        if not image_mo > 0:
            raise ValueError(f"image_mo must be positive, got {image_mo}")


def eq1est_bounds(mapping: Mapping, shape: Shape, spec: QuadratureSpec = DEFAULT_SPEC,
                  image_mo: float | None = None, image_mo_error: float = 0.0) -> BoundReport:
    """Two-sided bound on mo f(S) / mo S from the directional dilatations.

    lower = (nu-average of the angular dilatation)^(1/(1-n)),
    upper = nu-average of the normal dilatation.  Both averages come from
    one frame per point (``_quad_dilatations``), each refined on its own as
    ``quad_weighted_with_error`` refines it.  When ``image_mo`` is given
    the verdict checks lower <= image_mo / mo S <= upper within the combined
    error estimates, and the reported error includes image_mo_error / mo S.
    """
    _require_image_mo(image_mo, image_mo_error)
    n = shape.n
    nu = nu_measure(shape)
    (I_d, e_d), (I_t, e_t) = _quad_dilatations(mapping, shape, spec)
    avg_d, avg_t = I_d / nu, I_t / nu
    lower = avg_d ** (1.0 / (1.0 - n))
    upper = avg_t
    err_lower = abs(lower / avg_d) * (e_d / nu) / (n - 1.0)
    err_upper = e_t / nu
    error = err_lower + err_upper
    details = {"avg_angular": avg_d, "avg_normal": avg_t,
               "err_lower": err_lower, "err_upper": err_upper,
               "capped": _capped(I_d, e_d) or _capped(I_t, e_t)}
    if image_mo is None:
        verdict = "inconclusive"
    else:
        ratio = image_mo / exact_modulus(shape)
        ratio_err = image_mo_error / exact_modulus(shape)
        details.update(ratio=ratio, image_mo_error=image_mo_error)
        error += ratio_err
        verdict = _worst(_side_verdict(lower - ratio, err_lower + ratio_err),
                         _side_verdict(ratio - upper, err_upper + ratio_err))
    return BoundReport("eq1est", lower, upper, error, verdict, details)


def eq2est_bounds(mapping: Mapping, shape: Shape, spec: QuadratureSpec = DEFAULT_SPEC,
                  image_mo: float | None = None, image_mo_error: float = 0.0) -> BoundReport:
    """Bracket for the modulus defect mo S - mo f(S).

    lower = -pref * integral of (normal - 1) d nu,
    upper = +pref * integral of (angular - 1) d nu,
    with pref = 2/omega_{n-1} on half shapes and 1/omega_{n-1} on rings.
    Both integrals come from one frame per point (``_quad_dilatations``),
    each refined on its own as ``quad_weighted_with_error`` refines it.
    The lower inequality always applies; the upper one is only claimed when
    mo S >= mo f(S), otherwise it is reported inconclusive.  With
    ``image_mo`` the reported error includes ``image_mo_error``.
    """
    _require_image_mo(image_mo, image_mo_error)
    pref = 1.0 / span_area(shape.kind, shape.n)
    (I_d, e_d), (I_t, e_t) = _quad_dilatations(mapping, shape, spec, shift=1.0)
    lower = -pref * I_t
    upper = pref * I_d
    err = pref * (e_t + e_d)
    details = {"err_lower": pref * e_t, "err_upper": pref * e_d,
               "capped": _capped(I_t, e_t) or _capped(I_d, e_d)}
    if image_mo is None:
        verdict = "inconclusive"
    else:
        diff = exact_modulus(shape) - image_mo
        details.update(difference=diff, image_mo_error=image_mo_error)
        err += image_mo_error
        details["lower_verdict"] = _side_verdict(lower - diff, pref * e_t + image_mo_error)
        if diff >= -image_mo_error - VERDICT_FLOOR:
            details["upper_verdict"] = _side_verdict(diff - upper, pref * e_d + image_mo_error)
        else:
            details["upper_verdict"] = "inconclusive"
        verdict = _worst(details["lower_verdict"], details["upper_verdict"])
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
    """Spherical average of the angular dilatation on the shell of radius t;
    t must be positive and finite."""
    if not 0 < t < math.inf:
        raise ValueError(f"need 0 < t < inf for the shell radius t, got {t}")
    x0 = np.asarray(x0, dtype=float)
    n = len(x0)
    Z, wz = _sphere_rule(n, spec.angular, hemisphere=not full_sphere)
    g = angular_dilatation_field(mapping, x0)
    try:
        total = _shell_sums(g, x0, np.array([t]), (Z, wz))
    except (MapDomainError, ValueError):
        # one deterministic jitter when a node lands on an irregular point
        total = _shell_sums(g, x0, np.array([t]), (_sphere_jitter(Z, n, not full_sphere), wz))
    return float(total[0] / wz.sum())


def _modint_once(mapping, x0, r, R, nr, na_spec, full_sphere):
    n = len(x0)
    s, ws = _gauss(nr, math.log(r), math.log(R))
    Z, wz = _sphere_rule(n, na_spec, hemisphere=not full_sphere)
    psi = _shell_sums(angular_dilatation_field(mapping, x0), x0, np.exp(s), (Z, wz)) / wz.sum()
    return float(ws @ psi ** (1.0 / (1.0 - n)))


def modintbound_with_error(mapping: Mapping, x0, r: float, R: float,
                           spec: QuadratureSpec = DEFAULT_SPEC,
                           full_sphere: bool = False) -> tuple[float, float]:
    """Lower bound for mo f(S(x0; r, R)): radial integral of the reciprocal
    (n-1)-root of the shell averages of the angular dilatation over the
    shells of radius r to R, 0 < r < R < inf."""
    if not 0 < r < R < math.inf:
        raise ValueError(f"need 0 < r < R < inf, got r = {r}, R = {R}")
    x0 = np.asarray(x0, dtype=float)
    return _refine(lambda k: _modint_once(mapping, x0, r, R, spec.radial << k,
                                          spec.angular << k, full_sphere),
                   spec.max_refine)[:2]


def modintbound(mapping: Mapping, x0, r: float, R: float,
                spec: QuadratureSpec = DEFAULT_SPEC, full_sphere: bool = False) -> BoundReport:
    """``modintbound_with_error`` as a report: the lower bound on the left,
    its last refinement change as the error, verdict ``not-checked``, and
    ``details`` r, R and capped."""
    val, err = modintbound_with_error(mapping, x0, r, R, spec, full_sphere)
    return BoundReport("modintbound", val, None, err, "not-checked",
                       {"r": r, "R": R, "capped": _capped(val, err)})


# ---------------------------------------------------------------------------
# dominating factors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DominatingFactor:
    """Power dominating factor H(t) = c*max(t, t0)^alpha, increasing with exp(H) convex.

    ``coeff`` (c) and ``alpha`` must be finite and positive.  The flatness
    threshold t0 is derived from them: exp(c t^alpha) is convex where
    c*alpha*t^alpha >= 1 - alpha, so t0 = 0 for alpha >= 1 and
    ((1 - alpha) / (c alpha))^(1/alpha) below.  ``linear(gamma)`` is the
    power with c = gamma and alpha = 1.  ``inverse`` is only defined above
    H(t0).
    """

    coeff: float
    alpha: float

    def __post_init__(self):
        if not (math.isfinite(self.coeff) and math.isfinite(self.alpha)
                and self.coeff > 0 and self.alpha > 0):
            raise ValueError("dominating factor needs finite c > 0 and alpha > 0")

    @classmethod
    def linear(cls, gamma: float) -> "DominatingFactor":
        return cls(gamma, 1.0)

    @property
    def t0(self) -> float:
        if self.alpha >= 1:
            return 0.0
        return ((1.0 - self.alpha) / (self.coeff * self.alpha)) ** (1.0 / self.alpha)

    def __call__(self, t):
        return self.coeff * np.maximum(np.asarray(t, dtype=float), self.t0) ** self.alpha

    def inverse(self, tau):
        tau = np.asarray(tau, dtype=float)
        if np.any(tau < self.coeff * self.t0 ** self.alpha - 1e-15):
            raise ValueError("inverse undefined below H(t0)")
        return (tau / self.coeff) ** (1.0 / self.alpha)


def is_divergence_type(factor: DominatingFactor, n: int) -> str:
    """Classify: does the integral of H(t) t^(-n/(n-1)) over [1, inf) diverge?

    The tail of H is c t^alpha, so the integral diverges exactly when
    alpha >= 1/(n-1), and linear factors (alpha = 1) always do.  Returns
    ``divergent`` or ``convergent``.
    """
    if n < 2:
        raise ValueError("dimension must be >= 2")
    return "divergent" if factor.alpha >= 1.0 / (n - 1.0) else "convergent"


def _require_finite(**values: float) -> None:
    """ValueError naming the first of ``values`` that is NaN or infinite; the
    range tests after it (``m <= 1/n``, ``gamma <= 0``, ...) let NaN through."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def _bound_constants(n: int, big_m: float, r0: float, gamma: float | None = None) -> dict:
    """sigma = log(2 n M / (omega_{n-1} r0^n)) and, for a linear factor of
    slope gamma, C2 = gamma^(1/(n-1))/n (n = 2) or
    C1 = (n-1) gamma^(1/(n-1)) / (n (n-2)) and mu = (n-2)/(n-1) (n >= 3).
    sigma is summed in logs, log(2 n / omega_{n-1}) + log M - n log r0, so it
    stays finite for every finite positive M and r0, even where r0^n
    underflows or 2 n M overflows."""
    out = {"sigma": math.log(2.0 * n / sphere_area(n)) + math.log(big_m) - n * math.log(r0)}
    if gamma is not None:
        g = gamma ** (1.0 / (n - 1.0))
        if n == 2:
            out["c2"] = g / n
        else:
            out.update(c1=(n - 1.0) * g / (n * (n - 2.0)), mu=(n - 2.0) / (n - 1.0))
    return out


def dominated_modulus_bound(m: float, big_m: float, r0: float, n: int,
                            factor: DominatingFactor) -> BoundReport:
    """Lower bound for the image modulus under an exponential-mean constraint.

    Integrates 1 / H^{-1}(n t + sigma)^(1/(n-1)) over t in [1/n, m] with
    sigma = log(2 n M / (omega_{n-1} r0^n)).  For linear factors (powers with
    alpha = 1, slope gamma = c) the integral has the closed form

        n = 2:  C2 * log((n m + sigma) / (1 + sigma)),  C2 = gamma^(1/(n-1))/n
        n >= 3: C1 * ((n m + sigma)^mu - (1 + sigma)^mu),
                C1 = (n-1) gamma^(1/(n-1)) / (n (n-2)),  mu = (n-2)/(n-1),

    which is reported as the right side for cross-checking the quadrature on
    the left.  The error is the last change of the Gauss refinement.
    """
    if n < 2:
        raise ValueError("dimension must be >= 2")
    _require_finite(m=m, M=big_m, r0=r0)
    if m <= 1.0 / n:
        raise ValueError(f"need m > 1/n, got m = {m}")
    if big_m <= 0 or r0 <= 0:
        raise ValueError("need M > 0 and r0 > 0")
    linear = factor.alpha == 1.0
    consts = _bound_constants(n, big_m, r0, factor.coeff if linear else None)
    sigma = consts["sigma"]
    if linear and 1.0 + sigma <= 0:
        raise ValueError("integrand undefined: n t + sigma must stay positive")

    expo = 1.0 / (n - 1.0)

    def integrand(t):
        return 1.0 / factor.inverse(n * t + sigma) ** expo

    def level(k):
        t, w = _gauss(96 << k, 1.0 / n, m)
        return float(w @ integrand(t))

    val, err, capped = _refine(level, 3, rel_tol=1e-12)

    closed = None
    if linear and n == 2:
        closed = consts["c2"] * math.log((n * m + sigma) / (1.0 + sigma))
    elif linear:
        mu = consts["mu"]
        closed = consts["c1"] * ((n * m + sigma) ** mu - (1.0 + sigma) ** mu)
    return BoundReport("domfac", val, closed, err, "not-checked",
                       {**consts, "divergence": is_divergence_type(factor, n), "capped": capped})


# ---------------------------------------------------------------------------
# separation / boundary regularity constants
# ---------------------------------------------------------------------------

def separation_bound(mo: float, n: int = 2) -> BoundReport:
    """Upper bound Q_n exp(-mo/2) for the smaller complementary diameter, as
    a report: a closed form, so its error is 0, verdict ``not-checked``."""
    _require_finite(mo=mo)
    return BoundReport("separation", constants_for(n).q_value * math.exp(-0.5 * mo), None,
                       0.0, "not-checked")


def boundary_estimate(mo: float, dist: float, n: int = 2) -> float:
    """Upper bound exp(A_n) * dist * exp(-mo); requires mo > A_n."""
    _require_finite(mo=mo, dist=dist)
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


def lipschitz_constants(big_m: float, R: float, n: int) -> LipschitzConstants:
    """Local Lipschitz constants of the extended boundary map, with A_n from
    ``constants_for(n)``; conservative for n >= 3, where only an upper bound
    of A_n is known."""
    _require_finite(M=big_m, R=R)
    if R <= 0:
        raise ValueError("R must be positive")
    if big_m < 0:
        raise ValueError("M must be nonnegative")
    sc = constants_for(n)
    a_n = sc.a_value
    bump = 2.0 * big_m / sphere_area(n)
    return LipschitzConstants(
        c1=math.exp(a_n + bump) / R,
        c2=math.exp(a_n) / R,
        admissible_radius=R * math.exp(-a_n - bump),
        conservative=not sc.a_is_exact,
    )


# ---------------------------------------------------------------------------
# averaged-dilatation identity behind the weak Hoelder estimate
# ---------------------------------------------------------------------------

def _omega_profile(mapping: Mapping, t_pt: np.ndarray, radii: np.ndarray,
                   nq: int, na: int) -> np.ndarray:
    """omega(s) = (2 / (Omega_n s^n)) * integral over the half ball of (D - 1)
             = (2 / Omega_n) * int_0^1 q^(n-1) int_{half sphere} (D - 1)(t + s q z) dsigma(z) dq,

    where Omega_n is the volume of the unit ball, the half ball has radius s
    about t, and the second form writes its points as t + rho z with
    rho = s q.  It is evaluated as a (s, q, z) tensor rule; the integrand is
    bounded, so plain Gauss in q suffices.
    """
    n = len(t_pt)
    q, wq = _gauss(nq, 0.0, 1.0)
    g = angular_dilatation_field(mapping, t_pt)
    # (s, q) surface integrals of D - 1 on the shells of radius s*q about t
    inner = _shell_sums(lambda X: g(X) - 1.0, t_pt, np.outer(radii, q).ravel(),
                        _sphere_rule(n, na, hemisphere=True)).reshape(len(radii), len(q))
    radial = (inner * (q ** (n - 1.0))) @ wq
    return 2.0 * radial / ball_volume(n)


def holder_identity_check(mapping: Mapping, t_pt, r: float, R: float,
                          spec: QuadratureSpec = DEFAULT_SPEC) -> BoundReport:
    """Verify the exact identity linking the nu-average and ball averages:

    (P - 1) log(R/r) = (omega(R) - omega(r))/n + integral_r^R omega(s)/s ds,

    where P is the nu-average of the angular dilatation over S(t; r, R) and
    omega(s) the normalized half-ball average of (angular - 1) at radius s.
    Each side is refined on its own: the left through
    ``quad_weighted_with_error``, the right by doubling the (s, q, z) rule of
    the omega profile; the verdict compares their gap with the summed error.
    The half semiring S(t; r, R) refuses radii outside 0 < r < R and a
    reference point off the boundary hyperplane.
    """
    t_pt = np.asarray(t_pt, dtype=float)
    n = len(t_pt)
    shape = HalfSemiring(n=n, r0=r, r1=R, center=t_pt)
    nu, log_ratio = nu_measure(shape), math.log(R / r)
    P_int, P_err = quad_weighted_with_error(angular_dilatation_field(mapping, t_pt), shape, spec)
    lhs = (P_int / nu - 1.0) * log_ratio

    def rhs_level(k):
        nr, na = spec.radial << k, spec.angular << k
        s_nodes, ws = _gauss(nr, math.log(r), math.log(R))
        omega_mid = _omega_profile(mapping, t_pt, np.exp(s_nodes), nr, na)
        omega_ends = _omega_profile(mapping, t_pt, np.array([R, r]), nr, na)
        return (omega_ends[0] - omega_ends[1]) / n + float(ws @ omega_mid)

    rhs, rhs_err, rhs_capped = _refine(rhs_level, spec.max_refine)
    # where both refinement levels agree to rounding (a constant dilatation)
    # their change understates the error, so the rounding of the sides is added
    err = P_err / nu * log_ratio + rhs_err + _SIDE_ROUNDING * (abs(lhs) + abs(rhs))
    gap = abs(lhs - rhs)
    return BoundReport("holder-identity", lhs, rhs, err, _side_verdict(gap, err),
                       details={"gap": gap, "capped": _capped(P_int, P_err) or rhs_capped})


# ---------------------------------------------------------------------------
# modulus of continuity at the boundary
# ---------------------------------------------------------------------------

def continuity_bounds(n: int, gamma: float, big_m: float, r0: float,
                      dist: float, separation: float) -> BoundReport:
    """Explicit modulus-of-continuity bound for a linear dominating factor.

    n = 2 bounds the displacement by alpha * (log(r0/d))^(-C2); n >= 3 bounds
    its logarithm by -beta * (log(r0/d))^mu + delta, with d = |x1 - x0| and
    the constants assembled from gamma, M, r0 and A_n (upper bound used for
    n >= 3, which only enlarges the constants).  n >= 3 needs 1 + sigma > 0.
    The bound is a closed form, so its error is 0.
    """
    _require_finite(gamma=gamma, M=big_m, r0=r0, dist=dist, separation=separation)
    if not 0 < separation < r0:
        raise ValueError("need 0 < |x1 - x0| < r0")
    if gamma <= 0 or big_m <= 0 or dist <= 0:
        raise ValueError("gamma, M and dist must be positive")
    sc = constants_for(n)
    a = sc.a_value
    c = _bound_constants(n, big_m, r0, gamma)
    L = math.log(r0 / separation)
    details = {**c, "a_n": a, "is_log_bound": n >= 3, "conservative": not sc.a_is_exact}
    if n == 2:
        c2 = c["c2"]
        alpha = dist * math.exp(a - c2 * math.log(n))
        details["alpha"] = alpha
        value = alpha * L ** (-c2)
    else:
        c1, mu, sigma = c["c1"], c["mu"], c["sigma"]
        if 1.0 + sigma <= 0:
            raise ValueError(f"need 1 + sigma > 0 for n >= 3, got sigma = {sigma}")
        beta = c1 * n ** mu
        delta = a + c1 * (1.0 + sigma) ** mu + math.log(dist)
        details.update(beta=beta, delta=delta)
        value = -beta * L ** mu + delta
    return BoundReport("continuity", value, None, 0.0, "not-checked", details)


# ---------------------------------------------------------------------------
# behavior at infinity
# ---------------------------------------------------------------------------

def infinity_check(field_or_map, r0: float, radii, x0,
                   spec: QuadratureSpec = DEFAULT_SPEC) -> BoundReport:
    """Decay test of (log R)^(-2) * integral of (D - 1) d nu over S(x0; r0, R).

    Accepts either a mapping (its angular dilatation about x0 is used) or a
    raw scalar field x -> D(x); the dimension n is len(x0).  Radii must exceed
    1, so that log R > 0, and each half semiring S(x0; r0, R) refuses
    R <= r0 and an x0 off the boundary hyperplane.  The report's left side
    is the value at the last radius and its error that radius's quadrature
    error over (log R)^2; ``details["capped"]`` says whether any radius's
    quadrature stopped at its cap.  Verdict ``extends`` needs the sequence
    to be decreasing with final value below 1e-2 and a finite error;
    anything else is inconclusive.
    """
    radii = list(radii)
    if any(b <= a for a, b in zip(radii, radii[1:])) or not radii:
        raise ValueError("radii must be increasing and nonempty")
    if not all(R > 1.0 for R in radii):
        raise ValueError("radii must exceed 1: each value is divided by (log R)^2")
    x0 = np.asarray(x0, dtype=float)
    field = (angular_dilatation_field(field_or_map, x0)
             if isinstance(field_or_map, Mapping) else field_or_map)

    vals, capped = [], False
    for R in radii:
        shape = HalfSemiring(n=len(x0), r0=r0, r1=R, center=x0)
        I, e = quad_weighted_with_error(lambda X: np.asarray(field(X)) - 1.0, shape, spec)
        vals.append(I / math.log(R) ** 2)
        capped = capped or _capped(I, e)
    err = e / math.log(radii[-1]) ** 2
    decreasing = all(b < a + 1e-12 for a, b in zip(vals, vals[1:]))
    extends = decreasing and abs(vals[-1]) < 1e-2 and math.isfinite(err)
    return BoundReport("infinity", vals[-1], None, err, "extends" if extends else "inconclusive",
                       details={"values": vals, "radii": radii, "capped": capped})
