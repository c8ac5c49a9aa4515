import math

import numpy as np
import pytest

from ringmod import (
    Annulus,
    DominatingFactor,
    HalfSemiring,
    Identity,
    RadialStretch,
    RotationTwist,
    QuadratureSpec,
    boundary_estimate,
    continuity_bounds,
    dominated_modulus_bound,
    eq1est_bounds,
    eq2est_bounds,
    holder_identity_check,
    infinity_check,
    is_divergence_type,
    lipschitz_constants,
    modintbound,
    nu_measure,
    psi_D,
    quad_weighted,
    separation_bound,
)
from ringmod.bounds import DEFAULT_SPEC

E = math.e
PI = math.pi
ONE = lambda X: np.ones(len(X))


# ---------------------------------------------------------------------------
# weighted quadrature
# ---------------------------------------------------------------------------

def test_quad_weighted_measure():
    assert quad_weighted(ONE, HalfSemiring(n=2, r0=1.0, r1=E)) == pytest.approx(PI, abs=1e-6)
    s3 = HalfSemiring(n=3, r0=1.0, r1=E * E)
    assert quad_weighted(ONE, s3) == pytest.approx(4 * PI, abs=1e-6 * 4 * PI)
    assert quad_weighted(lambda X: np.zeros(len(X)),
                         HalfSemiring(n=2, r0=1.0, r1=E)) == 0.0


def test_quad_weighted_ring_variant():
    ring = Annulus(n=2, r0=1.0, r1=E)
    assert quad_weighted(ONE, ring) == pytest.approx(2 * PI, abs=1e-6)
    assert nu_measure(ring) == pytest.approx(2 * PI)
    assert nu_measure(HalfSemiring(n=2, r0=1.0, r1=E)) == pytest.approx(PI)


def test_quad_weighted_monte_carlo_dimension():
    # n >= 4 falls back to a fixed-seed Monte Carlo sphere rule; the constant
    # integrand is integrated exactly by the equal weights
    from ringmod import sphere_area
    s4 = HalfSemiring(n=4, r0=1.0, r1=E)
    spec = QuadratureSpec(radial=16, angular=8, max_refine=1)
    val = quad_weighted(ONE, s4, spec)
    assert val == pytest.approx(sphere_area(4) / 2.0, rel=1e-12)


def test_quad_weighted_nonconstant():
    # radially symmetric integrand: closed form via the log substitution
    shape = HalfSemiring(n=2, r0=1.0, r1=E)
    val = quad_weighted(lambda X: np.log(np.linalg.norm(X, axis=1)), shape)
    assert val == pytest.approx(PI / 2.0, abs=1e-9)


def test_quad_level_evaluated_in_bounded_blocks():
    from ringmod import bounds
    shape = HalfSemiring(n=3, r0=1.0, r1=E)
    nr, na = 64, 48
    batches = []

    def g(X):
        batches.append(len(X))
        r = np.linalg.norm(X - shape.x0, axis=1)
        return np.log(r) * (1.0 + X[:, 0] ** 2) + X[:, 2]

    blocked = bounds._quad_once(g, shape, nr, na)
    assert sum(batches) == nr * 2 * na * na > bounds.QUAD_BLOCK
    assert max(batches) <= bounds.QUAD_BLOCK
    # one unblocked evaluation of the whole level gives the same bits
    Z, wz = bounds._sphere_rule(3, na, True)
    s, ws = bounds._gauss(nr, 0.0, 1.0)
    X = shape.x0 + np.exp(s)[:, None, None] * Z[None, :, :]
    whole = float(ws @ (g(X.reshape(-1, 3)).reshape(len(s), len(Z)) @ wz))
    assert blocked == whole


def test_quad_rejects_bad_input():
    from ringmod import ApollonianSemiring
    with pytest.raises(TypeError):
        quad_weighted(ONE, ApollonianSemiring(n=2, r0=0.1, r1=1.0))
    with pytest.raises(ValueError):
        QuadratureSpec(radial=4)
    with pytest.raises(ValueError):
        QuadratureSpec(rel_tol=0.5)
    with pytest.raises(ValueError):
        quad_weighted(lambda X: np.full(len(X), np.nan),
                      HalfSemiring(n=2, r0=1.0, r1=E))


# ---------------------------------------------------------------------------
# moduli sandwich
# ---------------------------------------------------------------------------

def test_eq1est_identity():
    rep = eq1est_bounds(Identity(), HalfSemiring(n=2, r0=1.0, r1=E), image_mo=1.0)
    assert rep.left == pytest.approx(1.0, abs=1e-9)
    assert rep.right == pytest.approx(1.0, abs=1e-9)
    assert rep.verdict == "holds"


def test_eq1est_radial_sharp():
    a = 0.8
    rep = eq1est_bounds(RadialStretch(a=a), HalfSemiring(n=2, r0=1.0, r1=E), image_mo=a)
    assert rep.left == pytest.approx(a, abs=1e-3)
    assert rep.right == pytest.approx(a, abs=1e-3)
    assert rep.verdict == "holds"


def test_eq1est_radial_sharp_n3():
    # both dilatations of a radial stretch are constant, so the sandwich is exact
    rep = eq1est_bounds(RadialStretch(a=0.8), HalfSemiring(n=3, r0=1.0, r1=E), DEFAULT_SPEC)
    assert rep.left == pytest.approx(0.8, abs=1e-9)
    assert rep.right == pytest.approx(0.8, abs=1e-9)


def test_eq1est_twist_ring_variant():
    shape = Annulus(n=2, r0=1.0, r1=E)
    rep = eq1est_bounds(RotationTwist(), shape, image_mo=1.0)
    # the angular average is 1, so the lower bound is sharp at the true ratio 1
    assert rep.left == pytest.approx(1.0, abs=1e-8)
    assert rep.right >= 1.0
    assert rep.verdict == "holds"


def test_eq2est_radial():
    rep = eq2est_bounds(RadialStretch(a=0.8), HalfSemiring(n=2, r0=1.0, r1=E), image_mo=0.8)
    assert rep.left == pytest.approx(0.2, abs=1e-4)
    assert rep.right == pytest.approx(0.25, abs=1e-4)
    assert rep.verdict == "holds"
    assert rep.details["lower_verdict"] == "holds"
    assert rep.details["upper_verdict"] == "holds"


def test_eq2est_identity():
    rep = eq2est_bounds(Identity(), HalfSemiring(n=2, r0=1.0, r1=E), image_mo=1.0)
    assert rep.left == pytest.approx(0.0, abs=1e-9)
    assert rep.right == pytest.approx(0.0, abs=1e-9)
    assert rep.verdict == "holds"


def test_eq1est_composed_map_sandwich():
    from ringmod import Composition
    comp = Composition(stages=(RadialStretch(a=0.9), RadialStretch(a=0.9)))
    # composed radial stretches multiply exponents: image modulus 0.81
    rep = eq1est_bounds(comp, HalfSemiring(n=2, r0=1.0, r1=E), image_mo=0.81)
    assert rep.left == pytest.approx(0.81, abs=1e-3)
    assert rep.right == pytest.approx(0.81, abs=1e-3)
    assert rep.verdict == "holds"


def test_modintbound_stays_below_image_estimate():
    from ringmod import image_modulus
    shape = HalfSemiring(n=2, r0=1.0, r1=E)
    est = image_modulus(RadialStretch(a=0.8), shape, (32, 65))
    lower = modintbound(RadialStretch(a=0.8), np.zeros(2), 1.0, E)
    assert lower <= est.mo + 0.02 * est.mo
    ring = Annulus(n=2, r0=1.0, r1=E)
    est2 = image_modulus(RotationTwist(), ring, (32, 128))
    lower2 = modintbound(RotationTwist(), np.zeros(2), 1.0, E, full_sphere=True)
    assert lower2 <= est2.mo + 0.02 * est2.mo


def test_eq2est_expanding_map_inconclusive_upper():
    rep = eq2est_bounds(RadialStretch(a=1.25), HalfSemiring(n=2, r0=1.0, r1=E), image_mo=1.25)
    assert rep.details["upper_verdict"] == "inconclusive"
    assert rep.details["lower_verdict"] == "holds"
    assert rep.verdict == "inconclusive"


# ---------------------------------------------------------------------------
# shell averages and the radial integral bound
# ---------------------------------------------------------------------------

def test_psi_values():
    assert psi_D(Identity(), 1.5, np.zeros(2)) == pytest.approx(1.0, abs=1e-12)
    for t in (0.5, 1.0, 3.0):
        assert psi_D(RadialStretch(a=0.8), t, np.zeros(2)) == pytest.approx(1.25, abs=1e-10)
    # ring variant: full-circle average of the twist is exactly 1
    assert psi_D(RotationTwist(), 2.0, np.zeros(2), full_sphere=True) == pytest.approx(
        1.0, abs=1e-10)
    with pytest.raises(ValueError):
        psi_D(Identity(), -1.0, np.zeros(2))


def test_modintbound_values():
    assert modintbound(Identity(), np.zeros(2), 1.0, E) == pytest.approx(1.0, abs=1e-9)
    # sharp for the radial stretch: matches the true image modulus
    assert modintbound(RadialStretch(a=0.8), np.zeros(2), 1.0, E) == pytest.approx(
        0.8, abs=1e-9)
    assert modintbound(RotationTwist(), np.zeros(2), 1.0, E,
                       full_sphere=True) == pytest.approx(1.0, abs=1e-8)
    with pytest.raises(ValueError):
        modintbound(Identity(), np.zeros(2), 2.0, 1.0)


# ---------------------------------------------------------------------------
# dominating factors
# ---------------------------------------------------------------------------

def test_dominating_factor_families():
    lin = DominatingFactor.linear(2.0)
    assert lin(3.0) == pytest.approx(6.0)
    assert lin.inverse(6.0) == pytest.approx(3.0)
    pw = DominatingFactor.power(1.0, 2.0)
    assert pw(2.0) == pytest.approx(4.0)
    assert pw.inverse(4.0) == pytest.approx(2.0)
    # flat threshold keeps exp(H) convex for sublinear powers
    pw2 = DominatingFactor.power(1.0, 0.5)
    assert pw2.t0 > 0
    ts = np.linspace(0.0, 10.0, 200)
    eh = np.exp(pw2(ts))
    slopes = np.diff(eh) / np.diff(ts)
    assert np.all(np.diff(slopes) >= -1e-9)
    with pytest.raises(ValueError):
        DominatingFactor.linear(-1.0)
    with pytest.raises(ValueError):
        DominatingFactor.tabulated([1, 2, 3, 2], [1, 2, 3, 4])


def test_divergence_classification():
    assert is_divergence_type(DominatingFactor.linear(2.0), 3) == "divergent"
    assert is_divergence_type(DominatingFactor.power(1.0, 0.5), 2) == "convergent"
    assert is_divergence_type(DominatingFactor.power(1.0, 1.0), 2) == "divergent"
    # 20-point grid against the closed-form criterion alpha >= 1/(n-1)
    alphas = np.linspace(0.1, 2.0, 5)
    for n in (2, 3, 4, 5):
        for alpha in alphas:
            want = "divergent" if alpha >= 1.0 / (n - 1) else "convergent"
            assert is_divergence_type(DominatingFactor.power(1.0, float(alpha)), n) == want
    # tabulated factors get a numeric growth test
    t = np.exp(np.linspace(0.0, math.log(1e6), 200))
    fast = DominatingFactor.tabulated(t, 2.0 * t)
    assert is_divergence_type(fast, 3) == "divergent"
    # logarithmic growth keeps exp(H) convex yet integrates finitely
    slow = DominatingFactor.tabulated(t, 1.0 + 1.5 * np.log(t))
    assert is_divergence_type(slow, 2) == "convergent"
    # linear growth sits exactly on the planar threshold: the numeric test
    # cannot call it either way
    assert is_divergence_type(fast, 2) == "inconclusive"


def test_dominated_bound_closed_form():
    for n in (2, 3, 4):
        for gamma in (0.5, 1.0, 2.0):
            H = DominatingFactor.linear(gamma)
            for m in (1.0, 10.0, 100.0):
                res = dominated_modulus_bound(m, PI, 1.0, n, H)
                assert res.value == pytest.approx(res.closed_form, rel=1e-8)


def test_dominated_bound_constants():
    res = dominated_modulus_bound(10.0, PI, 1.0, 3, DominatingFactor.linear(1.0))
    assert res.constants["mu"] == pytest.approx(0.5)
    assert res.constants["c1"] == pytest.approx(2.0 / 3.0)
    res2 = dominated_modulus_bound(10.0, PI, 1.0, 2, DominatingFactor.linear(1.0))
    assert res2.constants["c2"] == pytest.approx(0.5)
    # unbounded growth in the shell thickness parameter
    lo = dominated_modulus_bound(10.0, PI, 1.0, 2, DominatingFactor.linear(1.0)).value
    hi = dominated_modulus_bound(1e4, PI, 1.0, 2, DominatingFactor.linear(1.0)).value
    assert hi - lo > 1.0
    with pytest.raises(ValueError):
        dominated_modulus_bound(0.1, PI, 1.0, 2, DominatingFactor.linear(1.0))
    with pytest.raises(ValueError):
        dominated_modulus_bound(10.0, -1.0, 1.0, 2, DominatingFactor.linear(1.0))


# ---------------------------------------------------------------------------
# separation / boundary / continuity constants
# ---------------------------------------------------------------------------

def test_separation_bound():
    assert separation_bound(10.0, 2) == pytest.approx(0.12965096653297603, abs=1e-9)
    assert separation_bound(11.0, 2) < separation_bound(10.0, 2)


def test_boundary_estimate():
    eps = 1e-6
    assert boundary_estimate(PI + eps, 1.0, 2) == pytest.approx(1.0, abs=1e-5)
    with pytest.raises(ValueError):
        boundary_estimate(1.0, 1.0, 2)   # modulus below the threshold
    with pytest.raises(ValueError):
        boundary_estimate(10.0, -1.0, 2)


def test_lipschitz_constants():
    lc = lipschitz_constants(PI, 0.0, 1.0, 2)
    assert lc.c1 == pytest.approx(math.exp(PI))
    assert lc.c2 == pytest.approx(math.exp(PI))
    assert lc.c1 == pytest.approx(23.1407, abs=1e-4)
    assert lc.admissible_radius == pytest.approx(math.exp(-PI))
    lc2 = lipschitz_constants(PI, 0.0, 2.0, 2)
    assert lc2.c1 == pytest.approx(lc.c1 / 2.0)
    assert lc2.c2 == pytest.approx(lc.c2 / 2.0)
    lc3 = lipschitz_constants(PI, 1.0, 1.0, 2)
    assert lc3.c1 > lc3.c2


def test_continuity_bounds():
    b2 = continuity_bounds(2, 1.0, PI, 1.0, 1.0, 1e-3)
    assert b2.constants["c2"] == pytest.approx(0.5)
    assert not b2.is_log_bound
    b3 = continuity_bounds(3, 1.0, PI, 1.0, 1.0, 1e-3)
    assert b3.is_log_bound
    assert b3.constants["mu"] == pytest.approx(0.5)
    assert b3.constants["beta"] == pytest.approx((2.0 / 3.0) * math.sqrt(3.0))
    ds = [1e-2, 1e-4, 1e-8]
    vals = [continuity_bounds(2, 1.0, PI, 1.0, 1.0, d).value for d in ds]
    assert vals[0] > vals[1] > vals[2]
    with pytest.raises(ValueError):
        continuity_bounds(2, 1.0, PI, 1.0, 1.0, 2.0)   # separation beyond r0


# ---------------------------------------------------------------------------
# averaged identity and the tail trend
# ---------------------------------------------------------------------------

def test_holder_identity_trivial_and_constant():
    rep = holder_identity_check(Identity(), np.zeros(2), 0.01, 1.0)
    assert rep.left == pytest.approx(0.0, abs=1e-9)
    assert rep.right == pytest.approx(0.0, abs=1e-9)
    assert rep.verdict == "holds"
    rep = holder_identity_check(RadialStretch(a=0.8), np.zeros(2), 0.5, 1.0)
    # constant angular dilatation 1.25 makes both sides 0.25 log(R/r)
    assert rep.left == pytest.approx(0.25 * math.log(2.0), abs=1e-6)
    assert rep.verdict == "holds"
    with pytest.raises(ValueError):
        holder_identity_check(Identity(), np.array([0.0, 1.0]), 0.1, 1.0)


def test_infinity_trend_extends():
    radii = [math.exp(5), math.exp(10), math.exp(20), math.exp(40), math.exp(80)]
    rep = infinity_check(RadialStretch(a=0.8), 1.0, radii, n=2)
    assert rep.verdict == "extends"
    # closed form: 0.25 * (half circle length) * log(R) / (log R)^2 at r0 = 1
    assert rep.values[0] == pytest.approx(0.25 * PI / 5.0, rel=1e-6)
    assert rep.values[-1] < 1e-2


def test_infinity_trend_inconclusive():
    field = lambda X: 1.0 + np.log(np.linalg.norm(X, axis=1))
    rep = infinity_check(field, 1.0, [E ** 2, E ** 4, E ** 8], n=2)
    assert rep.verdict == "inconclusive"
    assert rep.values[-1] == pytest.approx(PI / 2.0, rel=1e-6)
    with pytest.raises(ValueError):
        infinity_check(field, 1.0, [10.0, 5.0], n=2)
