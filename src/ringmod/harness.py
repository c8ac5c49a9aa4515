"""Named verification scenarios, report aggregation, and CSV/SVG emission.

Each scenario runs a fixed set of checks against expected values that are
versioned with the code.  Every expected value carries a provenance tag:

* ``literature`` -- a constant or identity quoted from the literature,
* ``trivial``    -- immediate from the definitions,
* ``derived``    -- computed here by an independent oracle (closed form,
                    enumeration, or a second numerical route).

Reports serialize to JSON deterministically; reruns with identical
configuration produce byte-identical output except for the wall-time field.
User configuration can only tighten tolerances (``tol_scale >= 1`` divides
every tolerance), never loosen them.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from . import bounds as bd
from . import discrete, geometry, maps, special
from .dilatation import (
    angular_dilatation_field,
    directional_sample,
    matrix_dilatations,
    max_directional_stretch,
    min_directional_stretch,
)


@dataclass(frozen=True)
class HarnessConfig:
    tol_scale: float = 1.0
    jobs: int = 1

    def __post_init__(self):
        # written so that NaN fails it too
        if not 1.0 <= self.tol_scale < math.inf:
            raise ValueError("tol_scale must be finite and >= 1 (tolerances may only tighten)")
        # a float would reach the process pool and a bool the config JSON; a
        # numpy integer is stored as int, which the JSON takes
        if isinstance(self.jobs, bool) or not isinstance(self.jobs, numbers.Integral):
            raise ValueError(f"jobs must be an integer, got {self.jobs!r}")
        object.__setattr__(self, "jobs", int(self.jobs))
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")

    def to_json(self) -> dict:
        return {"tol_scale": self.tol_scale, "jobs": self.jobs}

    def digest(self) -> str:
        return hashlib.sha256(json.dumps(self.to_json(), sort_keys=True).encode()).hexdigest()[:16]


@dataclass
class CheckResult:
    name: str
    expected: float | str
    actual: float | str
    tolerance: float
    provenance: str
    passed: bool

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "expected": self.expected,
            "actual": self.actual,
            "tolerance": self.tolerance,
            "provenance": self.provenance,
            "verdict": "pass" if self.passed else "fail",
        }


@dataclass
class Report:
    scenario: str
    checks: list
    passed: bool
    wall_time: float
    version: str
    config_digest: str

    def to_json(self) -> dict:
        return {
            "scenario": self.scenario,
            "checks": [c.to_json() for c in self.checks],
            "passed": self.passed,
            "wall_time": self.wall_time,
            "version": self.version,
            "config": self.config_digest,
        }


@dataclass(frozen=True)
class Scenario:
    id: str
    tags: tuple
    description: str
    runner: object


SCENARIOS: dict[str, Scenario] = {}


def _register(sid: str, tags: tuple, description: str):
    def deco(fn):
        SCENARIOS[sid] = Scenario(id=sid, tags=tags, description=description, runner=fn)
        return fn
    return deco


def _close(name, actual, expected, tol, provenance, cfg: HarnessConfig) -> CheckResult:
    tol_eff = tol / cfg.tol_scale
    ok = math.isfinite(actual) and abs(actual - expected) <= tol_eff
    return CheckResult(name, expected, float(actual), tol_eff, provenance, ok)


def _in_bracket(name, actual, lo, hi, tol, provenance, cfg: HarnessConfig) -> CheckResult:
    """Check that ``actual`` lies within ``tol`` of the interval [lo, hi]."""
    tol_eff = tol / cfg.tol_scale
    ok = math.isfinite(actual) and lo - tol_eff <= actual <= hi + tol_eff
    return CheckResult(name, f"[{lo}, {hi}]", float(actual), tol_eff, provenance, ok)


def _flag(name, condition: bool, provenance, expected="true") -> CheckResult:
    return CheckResult(name, expected, "true" if condition else "false", 0.0, provenance, bool(condition))


# ---------------------------------------------------------------------------
# special functions
# ---------------------------------------------------------------------------

@_register("a2", ("fast", "special"), "planar supremum constant recovered numerically")
def _sc_a2(cfg):
    t0 = time.perf_counter()
    res = special.compute_A2()
    dt = time.perf_counter() - t0
    return [
        _close("a2-value", res.value, math.pi, 1e-6, "literature", cfg),
        _flag("a2-at-boundary", res.attained_at_boundary, "derived"),
        _flag("a2-runtime-under-1s", dt < 1.0, "trivial"),
    ]


@_register("lambda2", ("fast", "special"), "planar growth constant of the extremal ring")
def _sc_lambda2(cfg):
    checks = [_close("phi2-ratio-at-1e8", special.phi2(1e8) / 1e8, 4.0, 1e-6, "literature", cfg)]
    vals = [special.phi2(s) / s for s in (1e4, 1e5, 1e6, 1e8)]
    checks.append(_flag("phi2-ratio-increasing", all(b > a for a, b in zip(vals, vals[1:])), "derived"))
    checks.append(_flag("phi2-ratio-below-4", all(v <= 4.0 for v in vals), "derived"))
    return checks


@_register("special-constants", ("fast", "special"), "dimension-n constant bounds and identities")
def _sc_constants(cfg):
    c2 = special.constants_for(2)
    c3 = special.constants_for(3)
    return [
        _close("q2", c2.q_value, 4.0 * math.exp(math.pi / 2.0), 1e-12, "derived", cfg),
        _close("lambda3-upper", c3.lambda_upper, 2.0 ** 1.5 * math.exp(1.5), 1e-12, "derived", cfg),
        _close("a2-upper-bound-consistent", math.log((3 + 2 * math.sqrt(2)) * 16 / 4) - math.pi,
               0.0076, 0.0005, "derived", cfg),
        _close("q3-formula", c3.q_value, 4.0 * math.exp(c3.a_value / 2.0), 1e-12, "trivial", cfg),
    ]


# ---------------------------------------------------------------------------
# measure and trivial-map suites
# ---------------------------------------------------------------------------

@_register("measure-selftest", ("fast", "bounds"), "weighted measure of standard shells")
def _sc_measure(cfg):
    one = lambda X: np.ones(len(X))
    s2 = geometry.HalfSemiring(n=2, r0=1.0, r1=math.e)
    s3 = geometry.HalfSemiring(n=3, r0=1.0, r1=math.e)
    s4 = geometry.HalfSemiring(n=4, r0=1.0, r1=math.e)
    spec4 = bd.QuadratureSpec(radial=8, angular=8, max_refine=1)
    # z4^2 / |z|^2 averages to 1/n over the hemisphere of S^3 (area pi^2)
    moment4 = lambda X: X[:, 3] ** 2 / np.sum(X ** 2, axis=1)
    return [
        _close("nu-n2", bd.quad_weighted(one, s2), math.pi, 1e-6, "literature", cfg),
        _close("nu-n3", bd.quad_weighted(one, s3), 2.0 * math.pi, 1e-6, "literature", cfg),
        _close("nu-n4", bd.quad_weighted(one, s4, spec4), math.pi ** 2, 1e-12, "literature", cfg),
        _close("moment-n4", bd.quad_weighted(moment4, s4, spec4), math.pi ** 2 / 4.0, 1e-12,
               "derived", cfg),
        _close("nu-zero", bd.quad_weighted(lambda X: np.zeros(len(X)), s2), 0.0, 1e-15, "trivial", cfg),
    ]


@_register("identity-all", ("fast", "bounds"), "every bound at its trivial value for the identity")
def _sc_identity(cfg):
    ident = maps.Identity()
    shape = geometry.HalfSemiring(n=2, r0=1.0, r1=math.e)
    r1 = bd.eq1est_bounds(ident, shape, image_mo=1.0)
    r2 = bd.eq2est_bounds(ident, shape, image_mo=1.0)
    psi = bd.psi_D(ident, 1.5, np.zeros(2))
    mib = bd.modintbound(ident, np.zeros(2), 1.0, math.e).left
    hol = bd.holder_identity_check(ident, np.zeros(2), 0.5, 1.0)
    return [
        _close("eq1est-lower", r1.left, 1.0, 1e-9, "trivial", cfg),
        _close("eq1est-upper", r1.right, 1.0, 1e-9, "trivial", cfg),
        _flag("eq1est-holds", r1.verdict == "holds", "trivial"),
        _close("eq2est-lower", r2.left, 0.0, 1e-9, "trivial", cfg),
        _close("eq2est-upper", r2.right, 0.0, 1e-9, "trivial", cfg),
        _close("psi", psi, 1.0, 1e-12, "trivial", cfg),
        _close("modintbound", mib, 1.0, 1e-9, "trivial", cfg),
        _close("holder-lhs", hol.left, 0.0, 1e-9, "trivial", cfg),
        _close("holder-rhs", hol.right, 0.0, 1e-9, "trivial", cfg),
    ]


@_register("radial-sharpness", ("fast", "bounds"), "contracting radial stretch attains both bounds")
def _sc_radial(cfg):
    a = 0.8
    m = maps.RadialStretch(a=a)
    shape = geometry.HalfSemiring(n=2, r0=1.0, r1=math.e)
    rep = bd.eq1est_bounds(m, shape, image_mo=a)   # image is S(0; 1, e^a), modulus a
    mib = bd.modintbound(m, np.zeros(2), 1.0, math.e).left
    return [
        _close("eq1est-lower", rep.left, a, 1e-3, "derived", cfg),
        _close("eq1est-upper", rep.right, a, 1e-3, "derived", cfg),
        _flag("eq1est-holds", rep.verdict == "holds", "derived"),
        _close("modintbound-sharp", mib, a, 1e-6, "derived", cfg),
        _close("psi-const", bd.psi_D(m, 2.0, np.zeros(2)), a ** (1 - 2), 1e-9, "derived", cfg),
    ]


@_register("eq2est-sandwich", ("fast", "bounds"), "defect bracket for radial stretches")
def _sc_eq2(cfg):
    shape = geometry.HalfSemiring(n=2, r0=1.0, r1=math.e)
    contract = bd.eq2est_bounds(maps.RadialStretch(a=0.8), shape, image_mo=0.8)
    expand = bd.eq2est_bounds(maps.RadialStretch(a=1.25), shape, image_mo=1.25)
    return [
        _close("contracting-lower", contract.left, 0.2, 1e-4, "derived", cfg),
        _close("contracting-upper", contract.right, 0.25, 1e-4, "derived", cfg),
        _flag("contracting-holds", contract.verdict == "holds", "derived"),
        _flag("expanding-upper-inconclusive",
              expand.details.get("upper_verdict") == "inconclusive", "derived"),
        _flag("expanding-lower-holds", expand.details.get("lower_verdict") == "holds", "derived"),
    ]


# ---------------------------------------------------------------------------
# dilatation suites
# ---------------------------------------------------------------------------

def _random_ball_points(rng, count, n, rmin=1e-3, rmax=1.0):
    pts = rng.standard_normal((count, n))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    radii = rng.uniform(rmin, rmax, size=count)
    return pts * radii[:, None]


@_register("twist-certification", ("fast", "dilatation"),
           "volume-preserving plane twist: determinant, coefficients, angular dilatation")
def _sc_twist(cfg):
    out = []
    tw = maps.RotationTwist()
    for n in (2, 3):
        rng = np.random.default_rng(1000 + n)
        X = _random_ball_points(rng, 1000, n, rmin=1e-2)
        J = tw.jacobian(X)
        dets = np.linalg.det(J)
        out.append(_close(f"n{n}-max-det-dev", float(np.abs(dets - 1.0).max()), 0.0, 1e-10,
                          "literature", cfg))
        expect = (1.0 + math.sqrt(2.0)) ** n
        md = matrix_dilatations(J)
        out.append(_close(f"n{n}-max-inner-dev", float(np.abs(md.inner - expect).max()), 0.0, 1e-6,
                          "literature", cfg))
        out.append(_close(f"n{n}-max-outer-dev", float(np.abs(md.outer - expect).max()), 0.0, 1e-6,
                          "literature", cfg))
        D = angular_dilatation_field(tw, np.zeros(n))(X)
        out.append(_close(f"n{n}-max-angular-dev", float(np.abs(D - 1.0).max()), 0.0, 1e-8,
                          "literature", cfg))
        imgs = np.linalg.norm(tw(X), axis=1) - np.linalg.norm(X, axis=1)
        out.append(_close(f"n{n}-radius-preserved", float(np.abs(imgs).max()), 0.0, 1e-10,
                          "literature", cfg))
    return out


# golden-section ratios and step cap, the values of SciPy's golden method
_GOLD_R = 0.61803399
_GOLD_C = 1.0 - _GOLD_R
_GOLD_MAXITER = 5000


def _dual_max_stretch(A, u):
    """min over k > 0 of lambda_max(A^T A / k + k u u^T) / 2, over s = log k,
    for A: (..., n, n) and unit u: (..., n); one case gives a numpy scalar.

    An upper bound on max_{|h|=1} |Ah| |h.u| for every k (AM-GM), equal to it
    at the best k.  f(s) = lambda_max(e^-s A^T A + e^s u u^T) / 2 is convex in
    s, a maximum of convex functions.  With sigma = |A|_2, f(log sigma) <=
    sigma, while f(s) >= e^s / 2 and f(s) >= sigma^2 e^-s / 2, so f exceeds
    sigma outside [log(sigma/2), log(2 sigma)] and the minimiser lies inside.
    One golden section runs over the whole stack, with one stacked eigvalsh per
    step; each case narrows its own bracket until, as in scipy, |x3 - x0| <=
    1e-15 (|x1| + |x2|) or 5000 steps.  Golden section, not Brent: Brent's
    absolute step floor of 1e-11 leaves ~3e-12 at the kink the trust-region
    hard case puts at the minimum, while golden section refines until the
    bracket is relatively 1e-15.
    """
    A, u = np.asarray(A, dtype=float), np.asarray(u, dtype=float)
    n, shape = u.shape[-1], u.shape[:-1]
    u = u.reshape(-1, n)
    B = np.swapaxes(A, -1, -2).reshape(-1, n, n) @ A.reshape(-1, n, n)
    uu = u[:, :, None] * u[:, None, :]

    def f(idx, s):
        M = B[idx] * np.exp(-s)[:, None, None] + uu[idx] * np.exp(s)[:, None, None]
        return np.linalg.eigvalsh(M)[:, -1] / 2.0

    sigma = np.sqrt(np.linalg.eigvalsh(B)[:, -1])
    x0, x3 = np.log(sigma / 2.0), np.log(2.0 * sigma)
    x1, x2 = x0 + _GOLD_C * (x3 - x0), x0 + _GOLD_R * (x3 - x0)
    live = np.arange(len(u))
    f1, f2 = f(live, x1), f(live, x2)
    for _ in range(_GOLD_MAXITER):
        live = live[np.abs(x3[live] - x0[live]) > 1e-15 * (np.abs(x1[live]) + np.abs(x2[live]))]
        if not live.size:
            break
        a0, a1, a2, a3, g1, g2 = x0[live], x1[live], x2[live], x3[live], f1[live], f2[live]
        right = g2 < g1                     # the minimiser lies in [x1, x3]
        new = np.where(right, _GOLD_R * a2 + _GOLD_C * a3, _GOLD_R * a1 + _GOLD_C * a0)
        g = f(live, new)
        x0[live], x3[live] = np.where(right, a1, a0), np.where(right, a3, a2)
        x1[live], x2[live] = np.where(right, a2, new), np.where(right, new, a1)
        f1[live], f2[live] = np.where(right, g2, g), np.where(right, g, g1)
    return np.minimum(f1, f2).reshape(shape)[()]


@_register("dilatation-chains", ("fast", "dilatation"),
           "coefficient chains and the exact minimal and maximal stretches")
def _sc_chains(cfg):
    out = []
    worst_relat = 0.0
    for n in (2, 3, 4):
        # the first 1000 draws with |det| >= 1e-3, drawn in batches
        rng = np.random.default_rng(2000 + n)
        As = np.empty((0, n, n))
        while len(As) < 1000:
            draws = rng.standard_normal((1100, n, n))
            As = np.concatenate([As, draws[np.abs(np.linalg.det(draws)) >= 1e-3]])
        md = matrix_dilatations(As[:1000])
        h, lo, hi = md.linear, np.minimum(md.inner, md.outer), np.maximum(md.inner, md.outer)
        v = np.max([h - lo, lo - h ** (n / 2.0), h ** (n / 2.0) - hi, hi - h ** (n - 1.0)], axis=0)
        worst_relat = max(worst_relat, float(np.max(v / np.maximum(1.0, hi))))
    out.append(_close("coefficient-chain-violation", worst_relat, 0.0, 1e-9, "literature", cfg))

    # directional chains across the built-in maps
    worst_dir = 0.0
    catalog = [maps.RotationTwist(), maps.RadialStretch(a=0.8), maps.RadialStretch(a=1.6),
               maps.Identity()]
    rng = np.random.default_rng(77)
    per_map = 250
    for m in catalog:
        for n in (2, 3):
            X = _random_ball_points(rng, per_map // 2, n, rmin=0.05)
            s = directional_sample(m, X, X + rng.standard_normal(X.shape) * 0.3)
            hi_, ho_ = s.matrix.inner, s.matrix.outer
            v22 = np.maximum(1.0 / ho_ - s.angular, s.angular - hi_)
            v23 = np.max([1.0 / ho_ - hi_ ** (1.0 / (1.0 - n)),
                          hi_ ** (1.0 / (1.0 - n)) - s.normal,
                          s.normal - ho_ ** (1.0 / (n - 1.0)),
                          ho_ ** (1.0 / (n - 1.0)) - hi_], axis=0)
            chain = np.max([s.matrix.small - s.min_stretch,
                            s.min_stretch - s.max_stretch,
                            s.max_stretch - s.matrix.norm], axis=0)
            worst_dir = max(worst_dir, float(np.max([v22 / np.maximum(1.0, hi_),
                                                     v23 / np.maximum(1.0, hi_),
                                                     chain / np.maximum(1.0, s.matrix.norm)])))
    out.append(_close("directional-chain-violation", worst_dir, 0.0, 1e-9, "literature", cfg))

    # closed-form minimal stretch vs direction sampling, planar: with
    # h = (cos t, sin t), |Ah|^2 = h^T A^T A h is three scaled sums; the
    # ratio |Ah| / |h.u| is even in h, so the half circle [0, pi) suffices
    rng = np.random.default_rng(31)
    th = np.arange(50_000) * (math.pi / 50_000)
    cos, sin = np.cos(th), np.sin(th)
    cc, cs, ss = cos * cos, 2.0 * cos * sin, sin * sin
    As, us, sampled = [], [], []
    for _ in range(100):
        A = rng.standard_normal((2, 2))
        while abs(np.linalg.det(A)) < 1e-2:
            A = rng.standard_normal((2, 2))
        u = rng.standard_normal(2)
        u /= np.linalg.norm(u)
        B = A.T @ A
        dots = np.abs(u[0] * cos + u[1] * sin)
        q = B[0, 0] * cc + B[0, 1] * cs + B[1, 1] * ss
        sampled.append(math.sqrt(np.min(q / (dots * dots), where=dots > 1e-9, initial=np.inf)))
        As.append(A)
        us.append(u)
    sampled = np.array(sampled)
    closed = min_directional_stretch(np.array(As), np.array(us))
    worst_ell = float(np.max(np.abs(closed - sampled) / sampled))
    out.append(_close("min-stretch-oracle-reldev", worst_ell, 0.0, 1e-5, "derived", cfg))

    # exact maximal stretch: never below direction sampling, equal to the dual
    # bound; |Ah|^2 (h.u)^2 for a block of directions and every case is one
    # product, and blocks of 2000 directions keep its (directions x cases)
    # temporaries at 1.6 MB instead of 16 MB; the running max is exact
    rng = np.random.default_rng(41)
    worst_max = 0.0
    for n in (2, 3):
        dirs = rng.standard_normal((20_000, n))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        draws = rng.standard_normal((100, n * n + n))
        As, us = draws[:, :n * n].reshape(100, n, n), draws[:, n * n:]
        us /= np.linalg.norm(us, axis=1, keepdims=True)
        BT = (np.swapaxes(As, 1, 2) @ As).reshape(-1, n * n).T
        top = np.full(len(As), -np.inf)
        for lo in range(0, len(dirs), 2000):
            h = dirs[lo:lo + 2000]
            hh = (h[:, :, None] * h[:, None, :]).reshape(-1, n * n)
            np.maximum(top, np.max((hh @ BT) * (h @ us.T) ** 2, axis=0), out=top)
        sampled = np.sqrt(top)
        exact = max_directional_stretch(As, us)
        dual = _dual_max_stretch(As, us)
        worst_max = max(worst_max, float(np.max((sampled - exact) / exact)),
                        float(np.max(np.abs(exact - dual) / dual)))
    out.append(_close("max-stretch-oracle-reldev", worst_max, 0.0, 1e-12, "derived", cfg))
    return out


# ---------------------------------------------------------------------------
# dominating factors, boundary constants, trends
# ---------------------------------------------------------------------------

@_register("dominating-factor", ("fast", "bounds"), "divergence classes and the closed-form bound")
def _sc_domfac(cfg):
    out = []
    out.append(_flag("linear-divergent",
                     bd.is_divergence_type(bd.DominatingFactor.linear(2.0), 3) == "divergent",
                     "literature"))
    out.append(_flag("power-convergent",
                     bd.is_divergence_type(bd.DominatingFactor(1.0, 0.5), 2) == "convergent",
                     "derived"))
    out.append(_flag("power-boundary-divergent",
                     bd.is_divergence_type(bd.DominatingFactor(1.0, 1.0), 2) == "divergent",
                     "derived"))
    worst = 0.0
    for n in (2, 3, 4):
        for gamma in (0.5, 1.0, 2.0):
            H = bd.DominatingFactor.linear(gamma)
            for m in (1.0, 10.0, 100.0):
                res = bd.dominated_modulus_bound(m, math.pi, 1.0, n, H)
                worst = max(worst, abs(res.left - res.right) / abs(res.right))
    out.append(_close("closed-form-reldev-27grid", worst, 0.0, 1e-8, "derived", cfg))
    H1 = bd.DominatingFactor.linear(1.0)
    lo = bd.dominated_modulus_bound(10.0, math.pi, 1.0, 2, H1).left
    hi = bd.dominated_modulus_bound(1e4, math.pi, 1.0, 2, H1).left
    out.append(_flag("bound-diverges", hi - lo > 1.0, "literature"))
    return out


@_register("holder-identity", ("fast", "bounds"), "averaged-dilatation identity on thin shells")
def _sc_holder(cfg):
    out = []
    for m, label in ((maps.Identity(), "identity"),
                     (maps.RadialStretch(a=0.5), "radial-0.5"),
                     (maps.RadialStretch(a=0.8), "radial-0.8")):
        rep = bd.holder_identity_check(m, np.zeros(2), 0.01, 1.0)
        out.append(_flag(f"{label}-holds", rep.verdict == "holds", "derived"))
        out.append(_close(f"{label}-gap", rep.details["gap"], 0.0, rep.error, "derived", cfg))
    # constant profile value for the contracting stretch
    m = maps.RadialStretch(a=0.8)
    field = angular_dilatation_field(m, np.zeros(2))
    X = np.array([[0.3, 0.1], [0.0, 0.7]])
    dev = float(np.abs(field(X) - 1.25).max())
    out.append(_close("exponent-equality", dev, 0.0, 1e-9, "derived", cfg))
    return out


@_register("infinity-trend", ("fast", "bounds"), "decay/limit of the normalized tail integral")
def _sc_infinity(cfg):
    radii = [math.exp(5), math.exp(10), math.exp(20), math.exp(40), math.exp(80)]
    rep = bd.infinity_check(maps.RadialStretch(a=0.8), 1.0, radii, np.zeros(2))
    out = [_flag("radial-extends", rep.verdict == "extends", "derived")]
    out.append(_close("radial-last-value", rep.left, 0.25 * math.pi / 80.0, 1e-6,
                      "derived", cfg))

    def log_field(X):
        return 1.0 + np.log(np.linalg.norm(X, axis=1))

    rep2 = bd.infinity_check(log_field, 1.0, [math.e ** 2, math.e ** 4, math.e ** 8], np.zeros(2))
    out.append(_flag("log-field-inconclusive", rep2.verdict == "inconclusive", "derived"))
    # the tail integral of (log|x|)/|x|^2 makes the normalized values level
    # off at a quarter of the circle length instead of decaying
    out.append(_close("log-field-limit", rep2.left, math.pi / 2.0,
                      0.05 * math.pi / 2.0, "derived", cfg))
    return out


@_register("boundary-constants", ("fast", "bounds"), "separation, boundary and Lipschitz constants")
def _sc_boundary(cfg):
    lc = bd.lipschitz_constants(0.0, 1.0, 2)
    out = [
        _close("sep-bound-mo10", bd.separation_bound(10.0, 2).left,
               4.0 * math.exp(math.pi / 2.0) * math.exp(-5.0), 1e-5, "derived", cfg),
        _flag("sep-monotone",
              bd.separation_bound(11.0, 2).left < bd.separation_bound(10.0, 2).left, "trivial"),
        _close("lipschitz-c1", lc.c1, math.exp(math.pi), 1e-9, "derived", cfg),
        _close("lipschitz-c2", lc.c2, math.exp(math.pi), 1e-9, "derived", cfg),
        _flag("lipschitz-halving", abs(bd.lipschitz_constants(0.0, 2.0, 2).c1
                                       - lc.c1 / 2.0) < 1e-12, "trivial"),
    ]
    eps = 1e-4
    out.append(_close("boundary-estimate-limit", bd.boundary_estimate(math.pi + eps, 1.0, 2),
                      1.0, 2 * eps, "trivial", cfg))
    return out


@_register("continuity-constants", ("fast", "bounds"), "modulus-of-continuity constants and decay")
def _sc_continuity(cfg):
    b3 = bd.continuity_bounds(3, 1.0, math.pi, 1.0, 1.0, 1e-3)
    b2 = bd.continuity_bounds(2, 1.0, math.pi, 1.0, 1.0, 1e-3)
    ds = [1e-2, 1e-4, 1e-8, 1e-16]
    vals = [bd.continuity_bounds(2, 1.0, math.pi, 1.0, 1.0, d).left for d in ds]
    return [
        _close("c2-exponent", b2.details["c2"], 0.5, 1e-12, "literature", cfg),
        _close("mu-n3", b3.details["mu"], 0.5, 1e-12, "derived", cfg),
        _close("beta-n3", b3.details["beta"], (2.0 / 3.0) * math.sqrt(3.0), 1e-12,
               "derived", cfg),
        _flag("bound-decreasing", all(b < a for a, b in zip(vals, vals[1:])), "trivial"),
    ]


@_register("blowup-trend", ("fast", "bounds"), "image modulus grows without bound as the shell thins")
def _sc_blowup(cfg):
    m = maps.RadialStretch(a=0.8)
    vals = [bd.modintbound(m, np.zeros(2), r, 1.0).left for r in (1e-1, 1e-2, 1e-4, 1e-8)]
    growing = all(b > a for a, b in zip(vals, vals[1:]))
    return [
        _flag("image-modulus-blows-up", growing and vals[-1] > 10.0, "derived"),
        _close("thin-shell-value", vals[-1], 0.8 * math.log(1e8), 1e-6, "derived", cfg),
    ]


# ---------------------------------------------------------------------------
# solver suites
# ---------------------------------------------------------------------------

@_register("solver-annulus", ("solver",), "plane ring estimate against the closed form")
def _sc_solver_annulus(cfg):
    shape = geometry.Annulus(n=2, r0=1.0, r1=math.e)
    est = discrete.modulus_connect(discrete.build_grid(shape, 64, 256))
    exact = geometry.gamma_family_modulus(shape)
    rel = abs(est.m_gamma - exact) / exact
    return [_close("annulus-64x256-reldev", rel, 0.0, 1e-3, "derived", cfg)]


@_register("solver-semiring", ("solver",), "half ring estimate against the closed form")
def _sc_solver_semiring(cfg):
    shape = geometry.HalfSemiring(n=2, r0=1.0, r1=math.e)
    est = discrete.modulus_connect(discrete.build_grid(shape, 64, 129))
    exact = geometry.gamma_family_modulus(shape)
    rel = abs(est.m_gamma - exact) / exact
    return [_close("semiring-64x129-reldev", rel, 0.0, 1e-3, "literature", cfg)]


@_register("solver-apollonian", ("solver",), "bipolar-chart estimate against the closed form")
def _sc_solver_apollonian(cfg):
    shape = geometry.ApollonianSemiring(n=2, r0=0.1, r1=1.0)
    est = discrete.modulus_connect(discrete.build_grid(shape, 64, 129))
    exact = geometry.exact_modulus(shape)
    rel = abs(est.mo - exact) / exact
    return [_close("apollonian-mo-reldev", rel, 0.0, 1e-3, "literature", cfg)]


@_register("solver-refinement", ("solver",), "error decreases under grid refinement")
def _sc_solver_refine(cfg):
    shape = geometry.Annulus(n=2, r0=1.0, r1=math.e)
    exact, rels = geometry.gamma_family_modulus(shape), []
    for (K, M) in ((16, 64), (32, 128), (64, 256)):
        est = discrete.modulus_connect(discrete.build_grid(shape, K, M))
        rels.append(abs(est.m_gamma - exact) / exact)
    return [
        _flag("refinement-decreasing", rels[0] > rels[1] > rels[2], "derived"),
        _close("finest-reldev", rels[2], 0.0, 1e-3, "derived", cfg),
    ]


@_register("solver-symmetry", ("solver",), "half ring carries half the ring family modulus")
def _sc_solver_symmetry(cfg):
    ga = discrete.build_grid(geometry.Annulus(n=2, r0=1.0, r1=math.e), 32, 128)
    gs = discrete.build_grid(geometry.HalfSemiring(n=2, r0=1.0, r1=math.e), 32, 65)
    ea = discrete.modulus_connect(ga)
    es = discrete.modulus_connect(gs)
    rel = abs(es.m_gamma - ea.m_gamma / 2.0) / (ea.m_gamma / 2.0)
    return [_close("half-vs-full-reldev", rel, 0.0, 1e-9, "derived", cfg)]


@_register("solver-image-invariance", ("solver",),
           "twist image matches the direct ring estimate; sheared images meet certified brackets")
def _sc_solver_image(cfg):
    shape = geometry.Annulus(n=2, r0=1.0, r1=math.e)
    half = geometry.HalfSemiring(n=2, r0=1.0, r1=math.e)
    direct = discrete.modulus_connect(discrete.build_grid(shape, 64, 256))
    img = discrete.image_modulus(maps.RotationTwist(), shape, (64, 256))
    rel = abs(img.mo - direct.mo) / direct.mo
    # brackets from conforming P1 energies of the connecting and the conjugate
    # problem on nested polygons; the twisted semiring is the parallelogram
    # {0 <= s <= 1, 0 <= phi - 2 s <= pi} in log-polar coordinates
    shear = discrete.image_modulus(maps.Linear(np.array([[1.0, 0.6], [0.0, 1.0]])), shape,
                                   (32, 128))
    twisted = discrete.image_modulus(maps.RotationTwist(), half, (64, 129))
    return [
        _close("image-vs-direct-reldev", rel, 0.0, 1e-3, "derived", cfg),
        _close("image-mo", img.mo, geometry.exact_modulus(shape), 1e-3, "derived", cfg),
        _in_bracket("shear-image-mo", shear.mo, 0.881555, 0.881637, 5e-3, "derived", cfg),
        _in_bracket("twisted-semiring-mo", twisted.mo, 1.69068, 1.69821, 5e-3, "derived", cfg),
    ]


@_register("solver-eq1est-ratio", ("solver",), "sandwich ratio measured with the image solver")
def _sc_solver_ratio(cfg):
    a = 0.8
    shape = geometry.HalfSemiring(n=2, r0=1.0, r1=math.e)
    est = discrete.image_modulus(maps.RadialStretch(a=a), shape, (48, 97))
    ratio = est.mo / geometry.exact_modulus(shape)
    rep = bd.eq1est_bounds(maps.RadialStretch(a=a), shape,
                           image_mo=est.mo, image_mo_error=0.02 * est.mo)
    return [
        _close("image-ratio", ratio, a, 1e-3, "derived", cfg),
        _flag("sandwich-holds", rep.verdict == "holds", "derived"),
        _close("identity-image", discrete.image_modulus(
            maps.Identity(), shape, (48, 97)).mo, 1.0, 1e-3, "trivial", cfg),
    ]


# ---------------------------------------------------------------------------
# running and reporting
# ---------------------------------------------------------------------------

def run_scenario(sid: str, config: HarnessConfig | None = None) -> Report:
    """Execute one scenario; operation errors become failed checks, not crashes."""
    if sid not in SCENARIOS:
        raise KeyError(f"unknown scenario {sid!r}; known: {sorted(SCENARIOS)}")
    config = config or HarnessConfig()
    t0 = time.perf_counter()
    try:
        checks = SCENARIOS[sid].runner(config)
    except Exception as exc:  # noqa: BLE001 - recorded as a failure by contract
        checks = [CheckResult("scenario-error", "no exception", f"{type(exc).__name__}: {exc}",
                              0.0, "trivial", False)]
    wall = time.perf_counter() - t0
    return Report(
        scenario=sid,
        checks=checks,
        passed=all(c.passed for c in checks),
        wall_time=wall,
        version=__version__,
        config_digest=config.digest(),
    )


def run_all(tag: str | None = None, config: HarnessConfig | None = None) -> dict:
    """Run every registered scenario matching the tag; aggregate by id order.
    A tag that no scenario carries raises KeyError."""
    config = config or HarnessConfig()
    ids = sorted(sid for sid, sc in SCENARIOS.items() if tag is None or tag in sc.tags)
    if not ids:
        known = sorted({t for sc in SCENARIOS.values() for t in sc.tags})
        raise KeyError(f"unknown tag {tag!r}; known: {known}")
    if config.jobs > 1 and len(ids) > 1:
        from concurrent.futures import ProcessPoolExecutor

        # the pool may fork all its workers at once: no more than there are scenarios
        with ProcessPoolExecutor(max_workers=min(config.jobs, len(ids))) as pool:
            reports = list(pool.map(run_scenario, ids, [config] * len(ids)))
    else:
        reports = [run_scenario(sid, config) for sid in ids]
    reports.sort(key=lambda r: r.scenario)
    return {
        "version": __version__,
        "config": config.to_json(),
        "filter": tag,
        "scenarios": [r.to_json() for r in reports],
        "passed": all(r.passed for r in reports),
    }


def report_to_json(aggregate: dict) -> str:
    return json.dumps(aggregate, sort_keys=True, indent=2) + "\n"


def emit_csv(path: str, columns: list[str], rows: list) -> None:
    """CSV with a header row; one row per sample.  Empty rows give header-only;
    a field with a comma, such as a check's "[lo, hi]", is quoted."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        # plain-float repr also for numpy scalars, which subclass float
        writer.writerows([repr(float(v)) if isinstance(v, float) else str(v) for v in row]
                         for row in rows)


def report_rows(aggregate: dict) -> tuple[list[str], list]:
    cols = ["scenario", "check", "expected", "actual", "tolerance", "provenance", "verdict"]
    rows = []
    for sc in aggregate["scenarios"]:
        for c in sc["checks"]:
            rows.append([sc["scenario"], c["name"], c["expected"], c["actual"],
                         c["tolerance"], c["provenance"], c["verdict"]])
    return cols, rows


def emit_svg(path: str, xs, ys, xlabel: str, ylabel: str, title: str = "") -> None:
    """Minimal single-polyline chart; CSV stays the canonical output."""
    W, H, pad = 640, 400, 50
    xs = np.asarray(xs, float)
    ys = np.asarray(ys, float)
    if len(xs) == 0:
        body = ""
    else:
        x0, x1 = float(xs.min()), float(xs.max())
        y0, y1 = float(ys.min()), float(ys.max())
        sx = (W - 2 * pad) / (x1 - x0 if x1 > x0 else 1.0)
        sy = (H - 2 * pad) / (y1 - y0 if y1 > y0 else 1.0)
        pts = " ".join(f"{pad + (x - x0) * sx:.2f},{H - pad - (y - y0) * sy:.2f}"
                       for x, y in zip(xs, ys))
        body = f'<polyline fill="none" stroke="black" stroke-width="1.5" points="{pts}"/>'
    svg = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}">'
        f'<rect width="{W}" height="{H}" fill="white"/>'
        f'<line x1="{pad}" y1="{H - pad}" x2="{W - pad}" y2="{H - pad}" stroke="black"/>'
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{H - pad}" stroke="black"/>'
        f'<text x="{W // 2}" y="{H - 12}" text-anchor="middle" font-size="12">{xlabel}</text>'
        f'<text x="14" y="{H // 2}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 14 {H // 2})">{ylabel}</text>'
        f'<text x="{W // 2}" y="24" text-anchor="middle" font-size="14">{title}</text>'
        f"{body}</svg>"
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(svg + "\n")


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def sweep(name: str) -> tuple[list[str], list]:
    """Named parameter sweeps for plotting; returns (columns, rows)."""
    if name == "teichmuller-gap":
        ts = np.exp(np.linspace(math.log(1.001), math.log(1e3), 200))
        rows = [[float(t), special.mo_teichmuller2(float(t)) - math.log(float(t))] for t in ts]
        return ["t", "gap"], rows
    if name == "continuity2":
        ds = np.exp(np.linspace(math.log(1e-9), math.log(0.5), 100))
        rows = [[float(d), bd.continuity_bounds(2, 1.0, math.pi, 1.0, 1.0, float(d)).left]
                for d in ds]
        return ["d", "bound"], rows
    if name == "image-blowup":
        rs = np.exp(np.linspace(math.log(1e-6), math.log(0.5), 40))[::-1]
        m = maps.RadialStretch(a=0.8)
        rows = [[float(r), bd.modintbound(m, np.zeros(2), float(r), 1.0).left] for r in rs]
        return ["r", "lower_bound"], rows
    raise KeyError(f"unknown sweep {name!r}; known: teichmuller-gap, continuity2, image-blowup")
