"""Seeded inputs, one timed pass per workload, and the closed-form checks.

Every call goes through ringmod's public functions by module attribute
(``discrete.build_grid``, ``bounds.eq1est_bounds``, ...), exactly as the
``ringmod modulus``, ``ringmod bounds`` and ``ringmod verify`` subcommands
make them, so the tracing wrappers installed by ``tracing.py`` see every call.

A pass returns ``(results, calls)``: ``results`` is a JSON-serialisable list
of ``[case, value, ...]`` rows (the numbers the bit-identity self-test
compares) and ``calls`` lists ``[stage, call, seconds]`` for every timed call.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np

from ringmod import bounds, discrete, geometry, harness, maps

WORKLOADS = ("modulus", "bounds", "verify")

# stage names of each workload, in pass order; the metric is "<stage>_s"
# (a verify pass is one stage, so pass_s is its only time)
STAGES = {
    "modulus": ("modulus_planar", "modulus_large", "modulus_apollonian",
                "modulus_image", "modulus_3d"),
    "bounds": ("eq1est_n2", "eq2est_n2", "eq1est_n3", "shell_bounds"),
    "verify": (),
}

# the harness's own solver tolerances (relative error of the modulus)
GRID_TOL = 0.02           # planar, image and 3D grids
APOLLONIAN_TOL = 0.03
SHARP_TOL = 1e-3          # radial eq1est sharpness, as in radial-sharpness
EXACT_TOL = 1e-9          # closed forms the quadrature reproduces to rounding
OPTIMIZER_TOL = 1e-6      # closed forms reached through the normal-dilatation optimizer

# the Apollonian solve stays at the harness's shape: its round count is
# chaotic in the input (7 to 12 rounds for r0 in [0.09, 0.16] or a rotated
# pole), which would spread pass times by seed far beyond any useful bound
APOLLONIAN = dict(n=2, r0=0.1, r1=1.0)

SMALL_SPEC = bounds.QuadratureSpec(radial=8, angular=8, max_refine=1)
SHELL_SPEC = bounds.QuadratureSpec(radial=8, angular=8)


def _radii(rng) -> tuple[float, float]:
    """Inner radius in [0.5, 2] and a modulus log(r1/r0) in [0.8, 1.2]."""
    r0 = float(rng.uniform(0.5, 2.0))
    return r0, r0 * math.exp(float(rng.uniform(0.8, 1.2)))


def make_inputs(workload: str, seed: int) -> dict:
    """Draw one workload's inputs from the seed; sizes never depend on it."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    rng = np.random.default_rng(seed)
    a = float(rng.uniform(0.75, 0.9))      # radial eq1est is sharp for a >= 1/sqrt(2)
    if workload == "modulus":
        return {
            "annulus": geometry.Annulus(2, *_radii(rng)),
            "large": geometry.Annulus(2, *_radii(rng)),
            "semiring": geometry.HalfSemiring(2, *_radii(rng)),
            "apollonian": geometry.ApollonianSemiring(**APOLLONIAN),
            "twist_ring": geometry.Annulus(2, *_radii(rng)),
            "radial_semiring": geometry.HalfSemiring(2, *_radii(rng)),
            "annulus3": geometry.Annulus(3, *_radii(rng)),
            "a": a,
        }
    if workload == "bounds":
        r0, r1 = _radii(rng)
        return {
            "semiring": geometry.HalfSemiring(2, *_radii(rng)),
            "ring": geometry.Annulus(2, *_radii(rng)),
            "semiring3": geometry.HalfSemiring(3, *_radii(rng)),
            "shell": (r0, r1),
            "psi_t": float(rng.uniform(r0, r1)),
            "a": a,
        }
    return {}


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

def _modulus_cases(inp: dict):
    """(stage, case, graph builder, exact modulus, tolerance) in pass order."""
    radial = maps.RadialStretch(a=inp["a"])
    exact = geometry.exact_modulus
    return [
        ("modulus_planar", "annulus-64x256",
         lambda: discrete.build_grid(inp["annulus"], 64, 256), exact(inp["annulus"]), GRID_TOL),
        ("modulus_planar", "semiring-64x129",
         lambda: discrete.build_grid(inp["semiring"], 64, 129), exact(inp["semiring"]), GRID_TOL),
        ("modulus_large", "annulus-256x1024",
         lambda: discrete.build_grid(inp["large"], 256, 1024), exact(inp["large"]), GRID_TOL),
        ("modulus_apollonian", "apollonian-64x129",
         lambda: discrete.build_grid(inp["apollonian"], 64, 129), exact(inp["apollonian"]),
         APOLLONIAN_TOL),
        ("modulus_image", "twist-image-64x256",
         lambda: discrete.build_image_grid(maps.RotationTwist(), inp["twist_ring"], (64, 256)),
         exact(inp["twist_ring"]), GRID_TOL),
        ("modulus_image", "radial-image-48x97",
         lambda: discrete.build_image_grid(radial, inp["radial_semiring"], (48, 97)),
         inp["a"] * exact(inp["radial_semiring"]), GRID_TOL),
        ("modulus_3d", "annulus3-32x32",
         lambda: discrete.build_grid(inp["annulus3"], 32, 32), exact(inp["annulus3"]), GRID_TOL),
    ]


def _timed(calls: list, stage: str, call: str, fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    calls.append([stage, call, time.perf_counter() - t0])
    return out


def _pass_modulus(inp: dict):
    results, calls = [], []
    for stage, case, build, _, _ in _modulus_cases(inp):
        # build and solve are timed apart, so that each part's fastest repeat
        # is taken on its own; the solve pops the graph, so freeing it is timed
        graph = [_timed(calls, stage, f"{case}/build", build)]
        est = _timed(calls, stage, f"{case}/solve", lambda: discrete.modulus_connect(graph.pop()))
        results.append([case, float(est.mo), float(est.m_gamma), int(est.iterations),
                        int(est.n_paths)])
    return results, calls


def _bound_row(case: str, rep) -> list:
    return [case, float(rep.left), float(rep.right), float(rep.error), rep.verdict]


def _pass_bounds(inp: dict):
    a = inp["a"]
    radial = maps.RadialStretch(a=a)
    twist = maps.RotationTwist()
    sr, ring, sr3 = inp["semiring"], inp["ring"], inp["semiring3"]
    r0, r1 = inp["shell"]
    calls: list = []
    rows = [
        _bound_row("eq1est-radial-n2", _timed(
            calls, "eq1est_n2", "eq1est-radial-n2", bounds.eq1est_bounds, radial, sr,
            image_mo=a * geometry.exact_modulus(sr))),
        _bound_row("eq2est-twist-n2", _timed(
            calls, "eq2est_n2", "eq2est-twist-n2", bounds.eq2est_bounds, twist, ring)),
        _bound_row("eq1est-twist-n3", _timed(
            calls, "eq1est_n3", "eq1est-twist-n3", bounds.eq1est_bounds, twist, sr3, SMALL_SPEC,
            image_mo=geometry.exact_modulus(sr3))),
    ]
    for n in (2, 4):
        val, err = _timed(calls, "shell_bounds", f"modintbound-n{n}", bounds.modintbound_with_error,
                          radial, np.zeros(n), r0, r1, SHELL_SPEC)
        rows.append([f"modintbound-n{n}", float(val), float(err)])
    rows.append(_bound_row("holder-radial-n2", _timed(
        calls, "shell_bounds", "holder-radial-n2", bounds.holder_identity_check,
        radial, np.zeros(2), r0, r1)))
    psi = _timed(calls, "shell_bounds", "psi-radial-n3", bounds.psi_D,
                 radial, inp["psi_t"], np.zeros(3))
    rows.append(["psi-radial-n3", float(psi)])
    return rows, calls


def _pass_verify(inp: dict):
    agg = harness.run_all(config=harness.HarnessConfig(jobs=1))
    # the harness times each scenario call itself; wall_time stays out of the results
    calls = [["verify", sc["scenario"], sc.pop("wall_time")] for sc in agg["scenarios"]]
    return [["verify-report", json.loads(harness.report_to_json(agg))]], calls


def run_pass(workload: str, inp: dict):
    """One full pass; returns (results, calls) with calls as [stage, call, seconds] rows."""
    passes = {"modulus": _pass_modulus, "bounds": _pass_bounds, "verify": _pass_verify}
    return passes[workload](inp)


# ---------------------------------------------------------------------------
# checks against closed forms
# ---------------------------------------------------------------------------

def _twist_normal_dilatation() -> float:
    """Normal dilatation of the planar twist, constant in x (x0 = 0).

    The Jacobian is a rotation times I + 2 v u^T (u radial, v tangential).
    With h = cos(phi) u + sin(phi) v and t = tan(phi), the squared stretch
    |Ah|^2 (h.u)^2 is (t^2 + 4t + 5) / (1 + t^2)^2, whose maximum sits at a
    real root of t^3 + 6t^2 + 9t - 2 = 0; T = max^2 / det = max^2 as det = 1.
    """
    roots = np.roots([1.0, 6.0, 9.0, -2.0])
    t = roots[np.abs(roots.imag) < 1e-12].real
    return float(np.max((t * t + 4.0 * t + 5.0) / (1.0 + t * t) ** 2))


def _close(failures: list, case: str, what: str, actual: float, expected: float, tol: float):
    if not (math.isfinite(actual) and abs(actual - expected) <= tol):
        failures.append(f"{case}: {what} = {actual!r}, expected {expected!r} within {tol:g}")


def check(workload: str, inp: dict, results: list) -> tuple[int, list[str], dict]:
    """Check one pass; returns (attempted, failure messages, accuracy figures)."""
    failures: list[str] = []
    attempted = 0
    accuracy: dict = {}
    rows = {r[0]: r for r in results}

    if workload == "modulus":
        worst = 0.0
        for _, case, _, exact, tol in _modulus_cases(inp):
            rel = abs(rows[case][1] - exact) / exact
            worst = max(worst, rel)
            attempted += 1
            _close(failures, case, "relative modulus error", rel, 0.0, tol)
        accuracy["modulus_rel_err"] = worst

    elif workload == "bounds":
        a = inp["a"]
        r0, r1 = inp["shell"]
        shell_mo = math.log(r1 / r0)
        expect = [
            # radial stretch: both sides of eq1est equal a
            ("eq1est-radial-n2", 1, "lower", a, SHARP_TOL),
            ("eq1est-radial-n2", 2, "upper", a, SHARP_TOL),
            # twist: angular dilatation 1, normal dilatation the constant above
            ("eq2est-twist-n2", 1, "lower",
             -(_twist_normal_dilatation() - 1.0) * geometry.exact_modulus(inp["ring"]),
             OPTIMIZER_TOL),
            ("eq2est-twist-n2", 2, "upper", 0.0, OPTIMIZER_TOL),
            # volume- and radius-preserving twist: ratio 1 = lower bound
            ("eq1est-twist-n3", 1, "lower", 1.0, EXACT_TOL),
            # psi of a radial stretch is a^(1-n), so every shell bound is a log(R/r)
            ("modintbound-n2", 1, "value", a * shell_mo, EXACT_TOL),
            ("modintbound-n4", 1, "value", a * shell_mo, EXACT_TOL),
            ("holder-radial-n2", 1, "lhs", (1.0 / a - 1.0) * shell_mo, EXACT_TOL),
            ("psi-radial-n3", 1, "value", a ** -2.0, EXACT_TOL),
        ]
        for case, col, what, value, tol in expect:
            attempted += 1
            _close(failures, case, what, rows[case][col], value, tol)
        for case in ("eq1est-radial-n2", "eq1est-twist-n3", "holder-radial-n2"):
            attempted += 1
            if rows[case][4] != "holds":
                failures.append(f"{case}: verdict {rows[case][4]!r}, expected 'holds'")
        attempted += 1
        if not rows["eq1est-twist-n3"][2] >= 1.0 - EXACT_TOL:
            failures.append(f"eq1est-twist-n3: upper {rows['eq1est-twist-n3'][2]!r} below ratio 1")

    else:
        report = rows["verify-report"][1]
        for sc in report["scenarios"]:
            for c in sc["checks"]:
                attempted += 1
                if c["verdict"] != "pass":
                    failures.append(f"verify {sc['scenario']}/{c['name']}: "
                                    f"actual {c['actual']!r}, expected {c['expected']!r}")
        attempted += 1
        if not report["passed"]:
            failures.append("verify: report 'passed' flag is false")
    return attempted, failures, accuracy


# ---------------------------------------------------------------------------
# warm-up
# ---------------------------------------------------------------------------

def warm_up() -> None:
    """Run every layer once on tiny inputs, untimed, so lazy imports and
    first-call set-up finish before the timed passes."""
    ring = geometry.Annulus(2, 1.0, math.e)
    half = geometry.HalfSemiring(2, 1.0, math.e)
    discrete.modulus_connect(discrete.build_grid(ring, 16, 64))
    discrete.modulus_connect(discrete.build_grid(geometry.ApollonianSemiring(**APOLLONIAN), 16, 33))
    discrete.modulus_connect(discrete.build_image_grid(maps.RotationTwist(), ring, (16, 64)))
    discrete.modulus_connect(discrete.build_grid(geometry.Annulus(3, 1.0, math.e), 8, 8))
    spec = bounds.QuadratureSpec(radial=8, angular=8, max_refine=0)
    bounds.eq1est_bounds(maps.RadialStretch(a=0.8), half, spec)
    x = np.array([[0.3, 0.4, 0.5], [1.0, 0.2, 0.1]])
    bounds.normal_dilatation_field(maps.RotationTwist(), np.zeros(3))(x)
    bounds.psi_D(maps.RadialStretch(a=0.8), 1.5, np.zeros(3), spec)
    harness.run_all(tag="special")
