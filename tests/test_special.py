import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from scipy.integrate import quad

import ringmod
from ringmod import (
    compute_A2,
    constants_for,
    elliptic_K,
    grotzsch_mu,
    mo_grotzsch2,
    mo_teichmuller2,
    phi2,
    psi2,
)

# frozen oracle values: adaptive quadrature of the defining integral
# int_0^{pi/2} dt / sqrt(1 - k^2 sin^2 t)
K_ORACLE = {
    1.0 / math.sqrt(2.0): 1.8540746773013719,
    0.5: 1.6857503548125963,
}


def oracle_K(k):
    val, err = quad(lambda t: 1.0 / np.sqrt(1.0 - (k * np.sin(t)) ** 2),
                    0.0, math.pi / 2.0, epsabs=1e-13, epsrel=1e-13)
    assert err < 1e-10
    return val


def test_elliptic_K_against_quadrature():
    assert elliptic_K(0.0) == pytest.approx(math.pi / 2.0, abs=1e-15)
    for k, frozen in K_ORACLE.items():
        assert oracle_K(k) == pytest.approx(frozen, abs=1e-12)
        assert elliptic_K(k) == pytest.approx(frozen, abs=1e-9)
    with pytest.raises(ValueError):
        elliptic_K(1.0)
    with pytest.raises(ValueError):
        elliptic_K(-0.1)


def test_mu_special_points():
    assert grotzsch_mu(1.0) == 0.0
    assert grotzsch_mu(1.0 / math.sqrt(2.0)) == pytest.approx(math.pi / 2.0, abs=1e-14)
    # frozen from the agm evaluation; the small-r asymptote log(4/r) agrees to 1e-6
    assert grotzsch_mu(1e-3) == pytest.approx(8.294049390101927, abs=1e-12)
    assert grotzsch_mu(1e-3) == pytest.approx(math.log(4000.0), abs=1e-6)
    with pytest.raises(ValueError):
        grotzsch_mu(0.0)
    with pytest.raises(ValueError):
        grotzsch_mu(1.5)


def test_mu_reflection_identity():
    for r in np.arange(0.1, 0.95, 0.1):
        prod = grotzsch_mu(r) * grotzsch_mu(math.sqrt(1.0 - r * r))
        assert prod == pytest.approx(math.pi ** 2 / 4.0, abs=1e-9)


def test_extremal_ring_identity():
    assert mo_teichmuller2(1.0) == pytest.approx(math.pi, abs=1e-12)
    for t in (0.5, 2.0, 10.0):
        assert mo_teichmuller2(t) == pytest.approx(
            2.0 * mo_grotzsch2(math.sqrt(t + 1.0)), abs=1e-12)


def test_large_argument_asymptotes():
    assert mo_grotzsch2(1e8) - math.log(1e8) == pytest.approx(math.log(4.0), abs=1e-6)
    assert phi2(1e8) / 1e8 == pytest.approx(4.0, abs=1e-6)
    # gap at t = 1e6 sits near log 16, clearly below pi
    gap = mo_teichmuller2(1e6) - math.log(1e6)
    assert gap == pytest.approx(2.7725892222395814, abs=1e-9)
    assert gap < math.pi
    vals = [phi2(s) / s for s in (1e4, 1e5, 1e6, 1e8)]
    assert all(4.0 - 1e-5 <= v <= 4.0 for v in vals)
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_monotonicity():
    ss = (1.5, 2.0, 5.0, 20.0, 100.0)
    vals = [mo_grotzsch2(s) for s in ss]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    ts = (0.5, 1.0, 3.0, 10.0, 50.0)
    vals = [mo_teichmuller2(t) for t in ts]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_compute_A2():
    res = compute_A2()
    assert res.value == pytest.approx(math.pi, abs=1e-6)
    assert res.attained_at_boundary
    # the grid's maximum, bit for bit: the point s = -35, t - 1 = 3 ulps
    assert (res.value, res.argmax_t) == (3.1415926535897944, 1.0000000000000007)
    assert res.method == "grid search on t = 1 + e^s"
    # supremum property over a random sample of arguments
    rng = np.random.default_rng(9)
    ts = np.exp(rng.uniform(np.log(1.0 + 1e-9), np.log(1e6), size=1000)) + 0.0
    gaps = [mo_teichmuller2(float(t)) - math.log(float(t)) for t in 1.0 + ts - 1.0 if t > 1.0]
    assert res.value >= max(gaps) - 1e-12
    # the gap decreases away from the boundary
    grid = [1.01, 1.1, 2.0, 10.0, 100.0]
    gvals = [mo_teichmuller2(t) - math.log(t) for t in grid]
    assert all(b < a for a, b in zip(gvals, gvals[1:]))


def test_import_graph_has_no_optimizer():
    # a fresh interpreter, so that no other test's imports are counted
    code = ("import sys, ringmod, ringmod.cli, ringmod.harness; "
            "sys.exit('scipy.optimize' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ringmod.__file__)))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_only_a_discrete_solve_loads_scipy():
    # a fresh interpreter: the imports, an n = 2 eq1est, the n = 4, 5 sphere
    # rules and the special scenarios load neither scipy nor the process
    # pool; the first discrete solve then loads scipy.sparse, which shows the
    # check can see a module that is loaded
    code = textwrap.dedent("""
        import math, sys
        import ringmod, ringmod.cli, ringmod.harness
        from ringmod import bounds, discrete, geometry, harness, maps

        bounds.eq1est_bounds(maps.RotationTwist(), geometry.HalfSemiring(2, 1.0, math.e),
                             bounds.QuadratureSpec(8, 8, max_refine=1))
        bounds._sphere_rule(4, 8, True)
        bounds._sphere_rule(5, 8, False)
        assert harness.run_all(tag="special")["passed"]
        loaded = sorted(m for m in sys.modules
                        if m.split(".")[0] == "scipy" or m == "concurrent.futures")
        assert not loaded, loaded
        discrete.modulus_connect(discrete.build_grid(geometry.Annulus(2, 1.0, math.e), 16, 64))
        assert "scipy.sparse" in sys.modules
    """)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ringmod.__file__)))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


def test_psi2_growth():
    # large-argument behavior ~ 16 t
    assert psi2(1e6) / 1e6 == pytest.approx(16.0, rel=1e-5)


def test_constants_for():
    c2 = constants_for(2)
    assert c2.lambda_lower == c2.lambda_upper == 4.0
    assert c2.a_value == pytest.approx(math.pi)
    assert c2.a_is_exact
    assert c2.q_value == pytest.approx(4.0 * math.exp(math.pi / 2.0))
    assert c2.q_value == pytest.approx(19.2420, abs=1e-4)
    # the generic upper bound at n = 2 stays consistent (above pi)
    assert math.log((3.0 + 2.0 * math.sqrt(2.0)) * 16.0 / 4.0) >= math.pi

    c3 = constants_for(3)
    assert c3.lambda_upper == pytest.approx(2.0 ** 1.5 * math.exp(1.5))
    assert c3.lambda_upper == pytest.approx(12.676131, abs=1e-6)
    assert not c3.a_is_exact
    assert c3.q_value == pytest.approx(4.0 * math.exp(c3.a_value / 2.0), rel=1e-15)
    with pytest.raises(ValueError):
        constants_for(1)
