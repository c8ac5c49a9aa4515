"""Acceptance suite: every criterion runs at its stated tolerance.

Each criterion is one test named test_criterion_NN_*, so `pytest -v` emits a
pass/fail line per criterion; an explicit PASS line is also printed for runs
with output capture disabled.
"""

import json
import math
import time

import numpy as np
import pytest

from ringmod import (
    Annulus,
    ApollonianSemiring,
    DominatingFactor,
    HalfSemiring,
    Identity,
    RadialStretch,
    RotationTwist,
    build_grid,
    compute_A2,
    dominated_modulus_bound,
    eq1est_bounds,
    eq2est_bounds,
    harness,
    holder_identity_check,
    image_modulus,
    infinity_check,
    is_divergence_type,
    matrix_dilatations,
    min_directional_stretch,
    modulus_connect,
    phi2,
    quad_weighted,
)
from ringmod.dilatation import angular_dilatation_field, directional_sample

E = math.e
PI = math.pi


def report(num, text):
    print(f"PASS criterion {num}: {text}")


def test_criterion_01_a2_recovery():
    t0 = time.perf_counter()
    res = compute_A2()
    dt = time.perf_counter() - t0
    assert res.value == pytest.approx(PI, abs=1e-6)
    assert dt < 1.0
    report(1, f"A2 = {res.value:.9f} within 1e-6 of pi in {dt:.3f}s")


def test_criterion_02_lambda2_recovery():
    val = phi2(1e8) / 1e8
    assert val == pytest.approx(4.0, abs=1e-6)
    report(2, f"phi2(1e8)/1e8 = {val:.9f} within 1e-6 of 4")


def test_criterion_03_solver_vs_closed_form():
    t0 = time.perf_counter()
    est = modulus_connect(build_grid(Annulus(n=2, r0=1.0, r1=E), 64, 256))
    t_ann = time.perf_counter() - t0
    assert est.m_gamma == pytest.approx(2 * PI, rel=0.02)
    assert t_ann < 60.0

    t0 = time.perf_counter()
    est2 = modulus_connect(build_grid(HalfSemiring(n=2, r0=1.0, r1=E), 64, 129))
    t_semi = time.perf_counter() - t0
    assert est2.m_gamma == pytest.approx(PI, rel=0.02)
    assert t_semi < 60.0

    t0 = time.perf_counter()
    est3 = modulus_connect(build_grid(ApollonianSemiring(n=2, r0=0.1, r1=1.0), 64, 129))
    t_apo = time.perf_counter() - t0
    assert est3.mo == pytest.approx(math.log(10.0), rel=0.03)
    assert t_apo < 60.0
    report(3, f"solver: ring {est.m_gamma:.4f}~2pi ({t_ann:.1f}s), "
              f"half {est2.m_gamma:.4f}~pi ({t_semi:.1f}s), "
              f"bipolar mo {est3.mo:.4f}~log10 ({t_apo:.1f}s)")


def test_criterion_04_twist_certification():
    tw = RotationTwist()
    for n in (2, 3):
        rng = np.random.default_rng(1000 + n)
        pts = rng.standard_normal((1000, n))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        pts *= rng.uniform(1e-2, 1.0, size=(1000, 1))
        J = tw.jacobian(pts)
        assert np.abs(np.linalg.det(J) - 1.0).max() < 1e-10
        expect = (1.0 + math.sqrt(2.0)) ** n
        for i in range(len(pts)):
            md = matrix_dilatations(J[i])
            assert abs(md.inner - expect) < 1e-6
            assert abs(md.outer - expect) < 1e-6
        D = angular_dilatation_field(tw, np.zeros(n))(pts)
        assert np.abs(D - 1.0).max() < 1e-8
    report(4, "twist: det=1 (1e-10), coefficients=(1+sqrt2)^n (1e-6), "
              "angular=1 (1e-8) at 1000 points, n=2,3")


def test_criterion_05_eq1est_sharpness():
    a = 0.8
    shape = HalfSemiring(n=2, r0=1.0, r1=E)
    rep = eq1est_bounds(RadialStretch(a=a), shape)
    assert rep.left == pytest.approx(a, abs=1e-3)
    assert rep.right == pytest.approx(a, abs=1e-3)
    est = image_modulus(RadialStretch(a=a), shape, (48, 97))
    ratio = est.mo / 1.0
    assert ratio == pytest.approx(a, rel=0.02)
    report(5, f"eq1est sharp: lower {rep.left:.5f}, upper {rep.right:.5f}, "
              f"solver ratio {ratio:.5f} all ~ 0.8")


def test_criterion_06_eq2est_sandwich():
    rep = eq2est_bounds(RadialStretch(a=0.8), HalfSemiring(n=2, r0=1.0, r1=E), image_mo=0.8)
    assert rep.left == pytest.approx(0.2, abs=1e-4)
    assert rep.right == pytest.approx(0.25, abs=1e-4)
    assert rep.left - 1e-4 <= 0.2 <= rep.right + 1e-4
    assert rep.verdict == "holds"
    report(6, f"eq2est: lower {rep.left:.6f} = defect 0.2, upper {rep.right:.6f} = 0.25")


def test_criterion_07_measure_selftest():
    one = lambda X: np.ones(len(X))
    v2 = quad_weighted(one, HalfSemiring(n=2, r0=1.0, r1=E))
    assert v2 == pytest.approx(PI, abs=1e-6)
    v3 = quad_weighted(one, HalfSemiring(n=3, r0=1.0, r1=E))
    assert v3 == pytest.approx(2 * PI, abs=1e-6)
    report(7, f"measure: n=2 {v2:.8f}~pi, n=3 {v3:.8f}~2pi within 1e-6")


def test_criterion_08_dilatation_chains():
    # coefficient chain at 1000 random matrices per dimension
    for n in (2, 3, 4):
        rng = np.random.default_rng(4000 + n)
        for _ in range(1000):
            A = rng.standard_normal((n, n))
            while abs(np.linalg.det(A)) < 1e-3:
                A = rng.standard_normal((n, n))
            md = matrix_dilatations(A)
            h, lo, hi = md.linear, min(md.inner, md.outer), max(md.inner, md.outer)
            tol = 1e-9 * max(1.0, hi)
            assert h <= lo + tol and lo <= h ** (n / 2) + tol
            assert h ** (n / 2) <= hi + tol and hi <= h ** (n - 1) + tol
    # directional chains across built-in maps, 1000 samples per dimension
    catalog = [RotationTwist(), RadialStretch(a=0.8), RadialStretch(a=1.5), Identity()]
    for n in (2, 3, 4):
        rng = np.random.default_rng(5000 + n)
        done = 0
        while done < 1000:
            m = catalog[done % len(catalog)]
            x = rng.standard_normal(n)
            if np.linalg.norm(x[:2]) < 0.05 or np.linalg.norm(x) < 0.05:
                continue
            x0 = x + rng.standard_normal(n)
            if np.linalg.norm(x - x0) < 1e-6:
                continue
            s = directional_sample(m, x, x0)
            hi, ho = s.matrix.inner, s.matrix.outer
            tol = 1e-9 * max(1.0, hi)
            assert 1.0 / ho <= s.angular + tol <= hi + 2 * tol
            assert 1.0 / ho <= hi ** (1.0 / (1.0 - n)) + tol
            assert hi ** (1.0 / (1.0 - n)) <= s.normal + tol
            assert s.normal <= ho ** (1.0 / (n - 1.0)) + tol <= hi + 2 * tol
            done += 1
    # closed-form minimal stretch against the direction-sampling oracle
    rng = np.random.default_rng(31)
    th = np.arange(100_000) * (2 * PI / 100_000)
    H = np.stack([np.cos(th), np.sin(th)], axis=1)
    for _ in range(100):
        A = rng.standard_normal((2, 2))
        while abs(np.linalg.det(A)) < 1e-2:
            A = rng.standard_normal((2, 2))
        u = rng.standard_normal(2)
        u /= np.linalg.norm(u)
        dots = np.abs(H @ u)
        mask = dots > 1e-9
        sampled = np.min(np.linalg.norm(H[mask] @ A.T, axis=1) / dots[mask])
        assert min_directional_stretch(A, u) == pytest.approx(sampled, rel=1e-3)
    report(8, "chains hold at 1000 samples per n in {2,3,4} (1e-9); "
              "closed-form minimal stretch matches sampling (1e-3) on 100 matrices")


def test_criterion_09_dominating_factor():
    assert is_divergence_type(DominatingFactor.linear(1.0), 2) == "divergent"
    worst = 0.0
    for n in (2, 3, 4):
        for gamma in (0.5, 1.0, 2.0):
            for m in (1.0, 10.0, 100.0):
                res = dominated_modulus_bound(m, PI, 1.0, n, DominatingFactor.linear(gamma))
                worst = max(worst, abs(res.left - res.right) / abs(res.right))
    assert worst < 1e-8
    H = DominatingFactor.linear(1.0)
    lo = dominated_modulus_bound(10.0, PI, 1.0, 2, H).left
    hi = dominated_modulus_bound(1e4, PI, 1.0, 2, H).left
    assert hi - lo > 1.0
    report(9, f"dominating factor: closed form matches quadrature to {worst:.1e} "
              f"over 27 cases; bound grows by {hi - lo:.2f} > 1")


def test_criterion_10_holder_identity():
    for m in (Identity(), RadialStretch(a=0.5), RadialStretch(a=0.8)):
        rep = holder_identity_check(m, np.zeros(2), 0.01, 1.0)
        assert rep.verdict == "holds"
        assert abs(rep.left - rep.right) <= rep.error
    report(10, "averaged-dilatation identity holds within combined quadrature error "
               "for identity and radial stretches 0.5, 0.8 on S(0;0.01,1)")


def test_criterion_11_infinity_check():
    radii = [math.exp(5), math.exp(10), math.exp(20), math.exp(40), math.exp(80)]
    rep = infinity_check(RadialStretch(a=0.8), 1.0, radii, np.zeros(2))
    assert rep.verdict == "extends"
    field = lambda X: 1.0 + np.log(np.linalg.norm(X, axis=1))
    rep2 = infinity_check(field, 1.0, [E ** 2, E ** 4, E ** 8], np.zeros(2))
    assert rep2.verdict == "inconclusive"
    assert rep2.details["values"][-1] == pytest.approx(PI / 2.0, rel=0.05)
    report(11, f"tail trend: radial decays to {rep.details['values'][-1]:.4f} (extends); "
               f"log field levels at {rep2.details['values'][-1]:.4f} ~ pi/2 (inconclusive)")


def strip_times(payload):
    if isinstance(payload, dict):
        return {k: strip_times(v) for k, v in payload.items() if k != "wall_time"}
    if isinstance(payload, list):
        return [strip_times(v) for v in payload]
    return payload


def test_criterion_12_determinism_and_budget():
    t0 = time.perf_counter()
    a = harness.run_all()
    b = harness.run_all()
    dt = time.perf_counter() - t0
    assert a["passed"] and b["passed"]
    ja = json.dumps(strip_times(a), sort_keys=True)
    jb = json.dumps(strip_times(b), sort_keys=True)
    assert ja == jb
    assert dt / 2.0 < 600.0
    report(12, f"verify suite deterministic; one full run takes {dt / 2.0:.1f}s < 600s")
