import math

import numpy as np
import pytest

from ringmod import (
    Annulus,
    Composition,
    DominatingFactor,
    HalfSemiring,
    Identity,
    Linear,
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
from ringmod import bounds, dilatation
from ringmod.bounds import DEFAULT_SPEC
from ringmod.dilatation import angular_dilatation_field, normal_dilatation_field
from ringmod.geometry import exact_modulus
from ringmod.special import constants_for

E = math.e
PI = math.pi
ONE = lambda X: np.ones(len(X))
# a smooth non-constant angular dilatation in n = 4 (positive determinant)
LINEAR_N4 = np.array([[1.3, 0.2, 0.0, 0.1],
                      [0.0, 0.9, 0.3, 0.0],
                      [0.2, 0.0, 1.1, 0.2],
                      [0.0, 0.1, 0.0, 0.8]])


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


def test_sphere_rule_high_dimension():
    # n = 4, 5: product Gauss rule with m nodes per factor, m the least
    # integer with m^(n-1) >= count^2; it integrates even polynomials of
    # degree < 2 m exactly, so the constant and both moments hold to rounding
    from ringmod import sphere_area
    for n in (4, 5):
        for hemisphere in (True, False):
            area = sphere_area(n) / (2.0 if hemisphere else 1.0)
            for c, m in zip((8, 16), {4: (4, 7), 5: (3, 4)}[n]):
                Z, w = bounds._sphere_rule(n, c, hemisphere)
                assert len(Z) == len(w) == 2 * m ** (n - 1)
                assert np.allclose(np.linalg.norm(Z, axis=1), 1.0, rtol=0.0, atol=1e-15)
                if hemisphere:
                    assert Z[:, -1].min() >= 0.0
                else:
                    assert Z[:, -1].min() < 0.0
                assert w.sum() == pytest.approx(area, rel=1e-12)
                zn2 = Z[:, -1] ** 2
                assert w @ zn2 == pytest.approx(area / n, rel=1e-12)
                assert w @ (Z[:, 0] ** 2 * zn2) == pytest.approx(area / (n * (n + 2)), rel=1e-12)
    with pytest.raises(ValueError):
        bounds._sphere_rule(6, 8, True)
    # the constant through the whole weighted quadrature
    s4 = HalfSemiring(n=4, r0=1.0, r1=E)
    spec = QuadratureSpec(radial=16, angular=8, max_refine=1)
    assert quad_weighted(ONE, s4, spec) == pytest.approx(sphere_area(4) / 2.0, rel=1e-12)


def test_gauss_jacobi_rule_matches_scipy():
    # the numpy Golub-Welsch rule for the weight (1 - t^2)^a against scipy's
    # roots_jacobi, at every node count m that a DEFAULT_SPEC level reaches
    # at n = 4, 5, and its exactness on even monomials of degree < 2 m
    from scipy.special import roots_jacobi
    counts = {next(k for k in range(1, 100) if k ** (n - 1) >= c * c)
              for n in (4, 5)
              for c in (DEFAULT_SPEC.angular << k for k in range(DEFAULT_SPEC.max_refine + 1))}
    assert max(counts) == 34
    for a in (0.5, 1.0):
        for m in sorted(counts):
            t, w = bounds._gauss_jacobi_sym(m, a)
            t_ref, w_ref = roots_jacobi(m, a, a)
            assert np.abs(t - t_ref).max() <= 1e-14
            assert np.abs(w / w_ref - 1.0).max() <= 1e-12
            for j in range(m):
                beta = math.gamma(j + 0.5) * math.gamma(a + 1) / math.gamma(j + a + 1.5)
                assert w @ t ** (2 * j) == pytest.approx(beta, rel=1e-13)


def test_sphere_rule_refuses_dimension_one():
    # the n >= 4 node count m^(n-1) >= count^2 has no solution at n = 1
    with pytest.raises(ValueError, match="2 <= n <= 5"):
        psi_D(Identity(), 1.0, [0.0])
    with pytest.raises(ValueError, match="2 <= n <= 5"):
        modintbound(Identity(), [0.0], 1.0, 2.0)


def test_sphere_rule_size_tracks_n3():
    # every level of DEFAULT_SPEC: the n = 4, 5 rules stay within 1.3 times
    # the n = 3 rule at the same count, and each doubling changes the nodes;
    # the deepest level stays under the 256 x 1e5 points of the Monte Carlo
    # rule that preceded the product rule
    for n in (4, 5):
        for hemisphere in (True, False):
            sizes = []
            for k in range(DEFAULT_SPEC.max_refine + 1):
                c = DEFAULT_SPEC.angular * 2 ** k
                size = len(bounds._sphere_rule(n, c, hemisphere)[0])
                assert size <= 1.3 * len(bounds._sphere_rule(3, c, hemisphere)[0])
                sizes.append(size)
            assert all(a < b for a, b in zip(sizes, sizes[1:]))
            assert DEFAULT_SPEC.radial * 2 ** DEFAULT_SPEC.max_refine * sizes[-1] < 256 * 10 ** 5


def test_quad_weighted_nonconstant():
    # radially symmetric integrand: closed form via the log substitution
    shape = HalfSemiring(n=2, r0=1.0, r1=E)
    val = quad_weighted(lambda X: np.log(np.linalg.norm(X, axis=1)), shape)
    assert val == pytest.approx(PI / 2.0, abs=1e-9)


def test_quad_refinement_stops_at_tolerance_or_cap(monkeypatch):
    shape = HalfSemiring(n=2, r0=1.0, r1=E)
    levels, quad_once = [], bounds._quad_once

    # a level is one rule, evaluated in as many QUAD_BLOCK calls of g as it needs
    def counted(g, shape, nr, na):
        levels.append((nr, na))
        return quad_once(g, shape, nr, na)

    monkeypatch.setattr(bounds, "_quad_once", counted)
    # no doubling leaves no error estimate
    val, err = bounds.quad_weighted_with_error(ONE, shape, QuadratureSpec(max_refine=0))
    assert val == pytest.approx(PI) and err == math.inf and len(levels) == 1
    # a constant is exact at every level, so one doubling settles it
    levels.clear()
    val, err = bounds.quad_weighted_with_error(ONE, shape)
    assert val == pytest.approx(PI) and err <= bounds.QUAD_RTOL * PI and len(levels) == 2
    # a jump in the angle keeps changing the value, so every doubling runs
    levels.clear()
    jump = lambda X: (X[:, 1] > X[:, 0]).astype(float)
    val, err = bounds.quad_weighted_with_error(jump, shape)
    assert len(levels) == 1 + DEFAULT_SPEC.max_refine
    assert bounds.QUAD_RTOL * val < err < 1e-2
    assert val == pytest.approx(0.75 * PI, abs=1e-2)


def _flat_blocks(total):
    """Sizes of the integrand calls over a level of ``total`` points: full
    QUAD_BLOCK blocks in row-major order, then the rest."""
    full, rest = divmod(total, bounds.QUAD_BLOCK)
    return [bounds.QUAD_BLOCK] * full + ([rest] if rest else [])


def test_quad_level_evaluated_in_bounded_blocks():
    shape = HalfSemiring(n=3, r0=1.0, r1=E)
    nr, na = 64, 48
    batches = []

    def g(X):
        batches.append(len(X))
        r = np.linalg.norm(X - shape.x0, axis=1)
        return np.log(r) * (1.0 + X[:, 0] ** 2) + X[:, 2]

    blocked = bounds._quad_once(g, shape, nr, na)
    assert nr * 2 * na * na > bounds.QUAD_BLOCK
    assert batches == _flat_blocks(nr * 2 * na * na)
    # one unblocked evaluation of the whole level gives the same bits
    Z, wz = bounds._sphere_rule(3, na, True)
    s, ws = bounds._gauss(nr, 0.0, 1.0)
    X = shape.x0 + np.exp(s)[:, None, None] * Z[None, :, :]
    whole = float(ws @ (g(X.reshape(-1, 3)).reshape(len(s), len(Z)) @ wz))
    assert blocked == whole

    # the shell levels of modintbound go through the same blocks
    class Recording(Linear):
        def _jacobian(self, x, dist):
            batches.append(len(x))
            return super()._jacobian(x, dist)

    mapping = Recording(LINEAR_N4)
    x0, nr, na = np.zeros(4), 128, 24
    Z, wz = bounds._sphere_rule(4, na, True)
    batches.clear()
    blocked = bounds._modint_once(mapping, x0, 1.0, E, nr, na, False)
    assert nr * len(Z) > bounds.QUAD_BLOCK
    assert batches == _flat_blocks(nr * len(Z))
    s, ws = bounds._gauss(nr, 0.0, 1.0)
    X = x0 + np.exp(s)[:, None, None] * Z[None, :, :]
    vals = angular_dilatation_field(mapping, x0)(X.reshape(-1, 4)).reshape(len(s), len(Z))
    whole = float(ws @ ((vals @ wz) / wz.sum()) ** (1.0 / (1.0 - 4)))
    assert blocked == whole

    # and so do the half-ball profiles of the Hoelder identity
    radii, nq = np.array([0.5, 1.0, 2.0]), 48
    batches.clear()
    blocked = bounds._omega_profile(mapping, x0, radii, nq, na)
    assert len(radii) * nq * len(Z) > bounds.QUAD_BLOCK
    assert batches == _flat_blocks(len(radii) * nq * len(Z))
    q, wq = bounds._gauss(nq, 0.0, 1.0)
    X = x0 + radii[:, None, None, None] * q[None, :, None, None] * Z[None, None, :, :]
    vals = angular_dilatation_field(mapping, x0)(X.reshape(-1, 4)) - 1.0
    inner = vals.reshape(len(radii), nq, len(Z)) @ wz
    whole = 2.0 * ((inner * q ** 3.0) @ wq) / bounds.ball_volume(4)
    assert np.array_equal(blocked, whole)


def test_bounds_do_not_depend_on_the_block_size(monkeypatch):
    # each point is computed as in one whole-level array and each level is
    # summed once all its blocks are in, so every bound reads the same bits
    # whether a block cuts a shell midway or spans a whole level: psi_D's one
    # shell of 18432 points, modintbound's shells of 1458 points, and the
    # 196608-point level of the Hoelder profile
    def reports():
        twist = RotationTwist()
        sides = [(r.left, r.right, r.error, r.details) for r in (
            eq1est_bounds(twist, HalfSemiring(n=2, r0=1.0, r1=E)),
            eq1est_bounds(twist, HalfSemiring(n=3, r0=1.0, r1=E), QuadratureSpec(8, 8, 1)),
            eq2est_bounds(twist, HalfSemiring(n=2, r0=1.0, r1=E)),
            holder_identity_check(RadialStretch(a=0.8), np.zeros(2), 0.01, 1.0))]
        modint = bounds.modintbound_with_error(Linear(LINEAR_N4), np.zeros(4), 1.0, E,
                                               QuadratureSpec(16, 24, 1))
        psi = psi_D(RadialStretch(a=0.8), 1.0, (0.3, 0.2, 0.1), QuadratureSpec(angular=96))
        return repr((sides, modint, psi))

    seen = {}
    for block in (1 << 10, 1 << 14, 1 << 16):
        monkeypatch.setattr(bounds, "QUAD_BLOCK", block)
        seen[block] = reports()
    assert seen[1 << 10] == seen[1 << 14] == seen[1 << 16]


def _block_maps(n):
    """A built-in map of each kind in dimension n, orientation-preserving."""
    A = np.eye(n) + 0.1 * np.arange(n * n).reshape(n, n) / n
    return [Identity(), RadialStretch(a=0.8), RotationTwist(), Linear(A),
            Composition((RadialStretch(a=1.3), Linear(A), RotationTwist()))]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_shell_blocks_are_component_rows(n, monkeypatch):
    # every block reaches the integrand as the (N, n) view of component rows,
    # so each coordinate is a contiguous column, and the built-in fields give
    # the same bits on it as on a C-ordered copy of the same points
    monkeypatch.setattr(bounds, "QUAD_BLOCK", 100)           # blocks cut shells midway
    blocks = []

    def recording(X):
        blocks.append(X)
        return np.ones(len(X))

    x0 = np.r_[0.3, -0.2, np.zeros(n - 2)]
    Z, wz = bounds._sphere_rule(n, 16, True)
    radii = np.exp(np.linspace(0.0, 1.0, 16))
    bounds._shell_sums(recording, x0, radii, (Z, wz))
    assert len(blocks) > 2 and sum(len(X) for X in blocks) == len(radii) * len(Z)
    for X in blocks:
        assert X.shape[1] == n and X.strides[0] == X.itemsize
    points = np.concatenate([np.ascontiguousarray(X) for X in blocks])
    assert points.tobytes() == (x0 + radii[:, None, None] * Z).reshape(-1, n).tobytes()
    for mapping in _block_maps(n):
        for field in (angular_dilatation_field, normal_dilatation_field):
            f = field(mapping, x0)
            for X in blocks[:2]:
                assert f(X).tobytes() == f(np.ascontiguousarray(X)).tobytes()


def _separate_quadratures(mapping, shape, spec, shift=0.0):
    """The two integrals of ``bounds._quad_dilatations`` as two separate
    ``quad_weighted_with_error`` calls over the public fields, as
    eq1est_bounds (shift 0) and eq2est_bounds (shift 1) took them before
    both fields came from one frame per point."""
    out = []
    for field in (angular_dilatation_field, normal_dilatation_field):
        f = field(mapping, shape.x0)
        g = f if shift == 0.0 else (lambda X, f=f: f(X) - shift)
        out.append(bounds.quad_weighted_with_error(g, shape, spec))
    return tuple(out)


# the twist about (0.5, 0) on the half semiring S(1, e): its normal field stops
# at the first doubling of QuadratureSpec(8, 8, 3) and its angular field at the
# second.  Found by counting the levels of each field's own
# quad_weighted_with_error for the twist, a radial stretch, a random linear map
# and compositions of them with a linear stretch, on rings and half semirings
# about the origin and about (0.5, 0, ...) in n = 2 and 3; the normal field
# stopped first only here and for the twist composed with the stretch
SPLIT_STOP = (RotationTwist(), HalfSemiring(n=2, r0=1.0, r1=E, center=(0.5, 0.0)),
              QuadratureSpec(8, 8, 3))


@pytest.mark.parametrize("case", [
    (RadialStretch(a=0.8), HalfSemiring(n=2, r0=1.0, r1=E), DEFAULT_SPEC),
    (RotationTwist(), Annulus(n=2, r0=1.0, r1=E), DEFAULT_SPEC),
    (RotationTwist(), HalfSemiring(n=3, r0=1.0, r1=E), QuadratureSpec(8, 8, 1)),
    (Linear(LINEAR_N4), HalfSemiring(n=4, r0=1.0, r1=E), QuadratureSpec(8, 8, 1)),
    SPLIT_STOP,
], ids=["radial-n2", "twist-n2", "twist-n3", "linear-n4", "split-stop-n2"])
def test_sandwich_equals_two_separate_quadratures(case, monkeypatch):
    # one frame per point, each field refined on its own, gives eq1est and
    # eq2est bit for bit what two quad_weighted_with_error calls give
    mapping, shape, spec = case
    mo = exact_modulus(shape)

    def reports():
        return repr([(r.left, r.right, r.error, r.verdict, r.details) for r in (
            eq1est_bounds(mapping, shape, spec),
            eq1est_bounds(mapping, shape, spec, image_mo=0.9 * mo, image_mo_error=1e-3),
            eq2est_bounds(mapping, shape, spec),
            eq2est_bounds(mapping, shape, spec, image_mo=0.9 * mo, image_mo_error=1e-3))])

    fused = reports()
    monkeypatch.setattr(bounds, "_quad_dilatations", _separate_quadratures)
    assert fused == reports()


def test_a_stopped_field_is_not_evaluated_again(monkeypatch):
    mapping, shape, spec = SPLIT_STOP
    levels, quad_once = [], bounds._quad_once

    def counted_levels(g, shape, nr, na):
        levels.append(nr)
        return quad_once(g, shape, nr, na)

    monkeypatch.setattr(bounds, "_quad_once", counted_levels)
    stops = []
    for field in (angular_dilatation_field, normal_dilatation_field):
        levels.clear()
        bounds.quad_weighted_with_error(field(mapping, shape.x0), shape, spec)
        stops.append(len(levels))
    assert stops == [3, 2]                     # the normal field stops first

    kernel_points, kernel = [], dilatation._max_stretch_batch

    def counted_kernel(A, u):
        kernel_points.append(u.shape[0])
        return kernel(A, u)

    monkeypatch.setattr(dilatation, "_max_stretch_batch", counted_kernel)
    levels.clear()
    eq1est_bounds(mapping, shape, spec)
    assert len(levels) == 3                    # the fused levels, the angular field's
    # the kernel ran on the points of the normal field's two levels only
    level_points = [(spec.radial << k) * len(bounds._sphere_rule(2, spec.angular << k, True)[0])
                    for k in range(3)]
    assert kernel_points == level_points[:2]


def test_quad_rejects_bad_input():
    from ringmod import ApollonianSemiring
    with pytest.raises(TypeError):
        quad_weighted(ONE, ApollonianSemiring(n=2, r0=0.1, r1=1.0))
    with pytest.raises(ValueError):
        QuadratureSpec(radial=4)
    # a float count failed later, in a shift; a negative max_refine read as 0
    for field, value in (("radial", 16.0), ("angular", 24.0), ("max_refine", 1.0),
                         ("max_refine", -1), ("radial", True)):
        with pytest.raises(ValueError, match=field):
            QuadratureSpec(**{field: value})
    shape = HalfSemiring(n=2, r0=1.0, r1=E)
    spec = QuadratureSpec(radial=np.int64(8), angular=np.int32(8), max_refine=np.int64(1))
    assert quad_weighted(ONE, shape, spec) == quad_weighted(ONE, shape, QuadratureSpec(8, 8, 1))
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
    lower = modintbound(RadialStretch(a=0.8), np.zeros(2), 1.0, E).left
    assert lower <= est.mo + 0.02 * est.mo
    ring = Annulus(n=2, r0=1.0, r1=E)
    est2 = image_modulus(RotationTwist(), ring, (32, 128))
    lower2 = modintbound(RotationTwist(), np.zeros(2), 1.0, E, full_sphere=True).left
    assert lower2 <= est2.mo + 0.02 * est2.mo


def test_image_error_is_reported():
    # the twisted semiring's image modulus with the CLI's 2 percent error: the
    # verdict allows that error, so the reported error must include it
    shape = HalfSemiring(n=2, r0=1.0, r1=E)
    image_mo = 1.685
    image_mo_error = 0.02 * image_mo
    rep = eq1est_bounds(RotationTwist(), shape, image_mo=image_mo, image_mo_error=image_mo_error)
    assert rep.details["image_mo_error"] == image_mo_error
    assert rep.error >= 0.02 * rep.details["ratio"]
    assert rep.error == pytest.approx(rep.details["err_lower"] + rep.details["err_upper"]
                                      + image_mo_error / exact_modulus(shape), rel=1e-12)
    rep2 = eq2est_bounds(RotationTwist(), shape, image_mo=image_mo, image_mo_error=image_mo_error)
    assert rep2.details["image_mo_error"] == image_mo_error
    assert rep2.error == pytest.approx(rep2.details["err_lower"] + rep2.details["err_upper"]
                                       + image_mo_error, rel=1e-12)
    # without an image the error is the quadrature error alone
    bare = eq1est_bounds(RotationTwist(), shape)
    assert "image_mo_error" not in bare.details
    assert bare.error == bare.details["err_lower"] + bare.details["err_upper"]


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


@pytest.mark.filterwarnings("error")
def test_shell_bounds_refuse_radii_that_are_not_finite():
    # an infinite or NaN radius used to pass the range test, warn about an
    # invalid value and blame the map with an IrregularPointError
    m, x0 = RadialStretch(a=0.8), np.zeros(2)
    for t in (math.inf, math.nan, -math.inf, 0.0):
        with pytest.raises(ValueError, match="shell radius t") as info:
            psi_D(m, t, x0)
        assert type(info.value) is ValueError
    for r, R in ((1.0, math.inf), (math.inf, math.inf), (math.nan, 2.0), (1.0, math.nan),
                 (0.0, 2.0), (2.0, 1.0)):
        for call in (bounds.modintbound_with_error, modintbound):
            with pytest.raises(ValueError, match="need 0 < r < R < inf") as info:
                call(m, x0, r, R)
            assert type(info.value) is ValueError


def test_psi_jitter_on_singular_node(monkeypatch):
    # the periodic rule puts a node at (0, 1.2e-16), on the twist's singular
    # axis, so the average is taken once more on jittered nodes
    calls = []
    jitter = bounds._sphere_jitter

    def spy(*args):
        calls.append(args)
        return jitter(*args)

    monkeypatch.setattr(bounds, "_sphere_jitter", spy)
    value = psi_D(RotationTwist(), 1.0, (1.0, 0.0), full_sphere=True)
    assert len(calls) == 1
    assert math.isfinite(value)
    for dy in (1e-4, -1e-4):
        near = psi_D(RotationTwist(), 1.0, (1.0, dy), full_sphere=True)
        assert value == pytest.approx(near, abs=1e-4)


def test_modintbound_linear_map_n4_exact():
    # the angular dilatation of a linear map, det(A) |A^-T u|^n, is constant
    # along rays; for n = 4 it is a quartic on the sphere with average
    # det(A) (tr(M)^2 + 2 tr(M^2)) / (n (n + 2)), M = A^-1 A^-T, which the
    # product rule integrates exactly, so the bound is log(e/1) psi^(1/(1-n))
    M = np.linalg.inv(LINEAR_N4) @ np.linalg.inv(LINEAR_N4).T
    psi = np.linalg.det(LINEAR_N4) * (np.trace(M) ** 2 + 2.0 * np.trace(M @ M)) / 24.0
    exact = psi ** (1.0 / (1.0 - 4))
    val, err = bounds.modintbound_with_error(Linear(LINEAR_N4), np.zeros(4), 1.0, E,
                                             QuadratureSpec(radial=8, angular=8))
    assert val == pytest.approx(exact, rel=1e-12)
    assert err <= 1e-12


def test_modintbound_error_from_refining_n5():
    # in n = 5 the same dilatation is (u^T M u)^(5/2), not a polynomial: the
    # error estimate comes from refining the sphere rule, so it is far above
    # rounding and covers the distance to a finer reference
    A = np.eye(5)
    A[:4, :4] = LINEAR_N4
    A[4, 0], A[1, 4], A[4, 4] = 0.3, 0.2, 1.2
    val, err = bounds.modintbound_with_error(Linear(A), np.zeros(5), 1.0, E,
                                             QuadratureSpec(radial=8, angular=8))
    ref = bounds.modintbound(Linear(A), np.zeros(5), 1.0, E,
                             QuadratureSpec(radial=8, angular=32)).left
    assert err > 1e-12
    assert abs(val - ref) <= err


def test_modintbound_values():
    assert modintbound(Identity(), np.zeros(2), 1.0, E).left == pytest.approx(1.0, abs=1e-9)
    # sharp for the radial stretch: matches the true image modulus
    assert modintbound(RadialStretch(a=0.8), np.zeros(2), 1.0, E).left == pytest.approx(
        0.8, abs=1e-9)
    assert modintbound(RotationTwist(), np.zeros(2), 1.0, E,
                       full_sphere=True).left == pytest.approx(1.0, abs=1e-8)
    with pytest.raises(ValueError):
        modintbound(Identity(), np.zeros(2), 2.0, 1.0)


# ---------------------------------------------------------------------------
# dominating factors
# ---------------------------------------------------------------------------

def test_dominating_factor_families():
    lin = DominatingFactor.linear(2.0)
    assert lin == DominatingFactor(2.0, 1.0)
    assert lin(3.0) == pytest.approx(6.0)
    assert lin.inverse(6.0) == pytest.approx(3.0)
    pw = DominatingFactor(1.0, 2.0)
    assert pw(2.0) == pytest.approx(4.0)
    assert pw.inverse(4.0) == pytest.approx(2.0)
    # flat threshold keeps exp(H) convex for sublinear powers:
    # t0 = ((1 - alpha) / (c alpha))^(1/alpha) = 1 at c = 1, alpha = 1/2
    pw2 = DominatingFactor(1.0, 0.5)
    assert pw2.t0 == 1.0
    assert lin.t0 == pw.t0 == 0.0
    ts = np.linspace(0.0, 10.0, 200)
    eh = np.exp(pw2(ts))
    slopes = np.diff(eh) / np.diff(ts)
    assert np.all(np.diff(slopes) >= -1e-9)
    with pytest.raises(ValueError):
        DominatingFactor.linear(-1.0)
    # direct construction is validated like the named one
    for c, alpha in ((0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -0.5),
                     (math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, math.inf)):
        with pytest.raises(ValueError):
            DominatingFactor(c, alpha)


def test_divergence_classification():
    assert is_divergence_type(DominatingFactor.linear(2.0), 3) == "divergent"
    assert is_divergence_type(DominatingFactor(1.0, 0.5), 2) == "convergent"
    assert is_divergence_type(DominatingFactor(1.0, 1.0), 2) == "divergent"
    # 20-point grid against the closed-form criterion alpha >= 1/(n-1)
    alphas = np.linspace(0.1, 2.0, 5)
    for n in (2, 3, 4, 5):
        for alpha in alphas:
            want = "divergent" if alpha >= 1.0 / (n - 1) else "convergent"
            assert is_divergence_type(DominatingFactor(1.0, float(alpha)), n) == want
    # the exact threshold alpha = 1/(n-1) diverges: H(t) t^(-n/(n-1)) ~ 1/t
    for n in (3, 4, 5):
        assert is_divergence_type(DominatingFactor(1.0, 1.0 / (n - 1)), n) == "divergent"


def test_dominated_bound_closed_form():
    for n in (2, 3, 4):
        for gamma in (0.5, 1.0, 2.0):
            H = DominatingFactor.linear(gamma)
            for m in (1.0, 10.0, 100.0):
                res = dominated_modulus_bound(m, PI, 1.0, n, H)
                assert res.left == pytest.approx(res.right, rel=1e-8)


def test_linear_factor_is_the_power_at_alpha_one():
    for n in (2, 3):
        for gamma in (0.5, 2.0):
            lin = dominated_modulus_bound(10.0, PI, 1.0, n, DominatingFactor.linear(gamma))
            pw = dominated_modulus_bound(10.0, PI, 1.0, n, DominatingFactor(gamma, 1.0))
            assert pw.right is not None
            assert (lin.left, lin.right, lin.error) == (pw.left, pw.right, pw.error)
            assert lin.details["divergence"] == pw.details["divergence"] == "divergent"


def test_dominated_bound_constants():
    res = dominated_modulus_bound(10.0, PI, 1.0, 3, DominatingFactor.linear(1.0))
    assert res.details["mu"] == pytest.approx(0.5)
    assert res.details["c1"] == pytest.approx(2.0 / 3.0)
    res2 = dominated_modulus_bound(10.0, PI, 1.0, 2, DominatingFactor.linear(1.0))
    assert res2.details["c2"] == pytest.approx(0.5)
    # unbounded growth in the shell thickness parameter
    lo = dominated_modulus_bound(10.0, PI, 1.0, 2, DominatingFactor.linear(1.0)).left
    hi = dominated_modulus_bound(1e4, PI, 1.0, 2, DominatingFactor.linear(1.0)).left
    assert hi - lo > 1.0
    with pytest.raises(ValueError):
        dominated_modulus_bound(0.1, PI, 1.0, 2, DominatingFactor.linear(1.0))
    with pytest.raises(ValueError):
        dominated_modulus_bound(10.0, -1.0, 1.0, 2, DominatingFactor.linear(1.0))


# ---------------------------------------------------------------------------
# separation / boundary / continuity constants
# ---------------------------------------------------------------------------

def test_separation_bound():
    assert separation_bound(10.0, 2).left == pytest.approx(0.12965096653297603, abs=1e-9)
    assert separation_bound(11.0, 2).left < separation_bound(10.0, 2).left


def test_modintbound_and_separation_reports():
    # the exact reports that `ringmod bounds modintbound` and `separation` print
    mib = modintbound(RadialStretch(a=0.8), np.zeros(2), 1.0, E)
    assert mib.to_json() == {"id": "modintbound", "left": 0.8, "right": None, "error": 0.0,
                             "verdict": "not-checked",
                             "details": {"r": 1.0, "R": E, "capped": False}}
    assert separation_bound(10.0, 2).to_json() == {
        "id": "separation", "left": 0.12965096653297603, "right": None, "error": 0.0,
        "verdict": "not-checked", "details": {}}


def test_boundary_estimate():
    eps = 1e-6
    assert boundary_estimate(PI + eps, 1.0, 2) == pytest.approx(1.0, abs=1e-5)
    with pytest.raises(ValueError):
        boundary_estimate(1.0, 1.0, 2)   # modulus below the threshold
    with pytest.raises(ValueError):
        boundary_estimate(10.0, -1.0, 2)


def test_lipschitz_constants():
    lc = lipschitz_constants(0.0, 1.0, 2)
    assert lc.c1 == pytest.approx(math.exp(PI))
    assert lc.c2 == pytest.approx(math.exp(PI))
    assert lc.c1 == pytest.approx(23.1407, abs=1e-4)
    assert lc.admissible_radius == pytest.approx(math.exp(-PI))
    lc2 = lipschitz_constants(0.0, 2.0, 2)
    assert lc2.c1 == pytest.approx(lc.c1 / 2.0)
    assert lc2.c2 == pytest.approx(lc.c2 / 2.0)
    lc3 = lipschitz_constants(1.0, 1.0, 2)
    assert lc3.c1 > lc3.c2


def test_lipschitz_constants_read_a_n_from_the_dimension():
    R = 2.0
    lc = lipschitz_constants(0.0, R, 3)
    assert lc.conservative
    assert lc.c2 == math.exp(constants_for(3).a_value) / R
    assert not lipschitz_constants(0.0, R, 2).conservative


def test_continuity_bounds():
    b2 = continuity_bounds(2, 1.0, PI, 1.0, 1.0, 1e-3)
    assert b2.details["c2"] == pytest.approx(0.5)
    assert not b2.details["is_log_bound"]
    b3 = continuity_bounds(3, 1.0, PI, 1.0, 1.0, 1e-3)
    assert b3.details["is_log_bound"]
    assert b3.details["mu"] == pytest.approx(0.5)
    assert b3.details["beta"] == pytest.approx((2.0 / 3.0) * math.sqrt(3.0))
    ds = [1e-2, 1e-4, 1e-8]
    vals = [continuity_bounds(2, 1.0, PI, 1.0, 1.0, d).left for d in ds]
    assert vals[0] > vals[1] > vals[2]
    with pytest.raises(ValueError):
        continuity_bounds(2, 1.0, PI, 1.0, 1.0, 2.0)   # separation beyond r0
    with pytest.raises(ValueError):
        continuity_bounds(3, 1.0, 0.01, 1.0, 1.0, 1e-3)   # 1 + sigma < 0


def test_bound_constants_survive_underflow_and_overflow():
    # r0^n underflows to 0 and 2 n M overflows to inf, but sigma, summed in
    # logs, stays finite, and so do the bounds built on it
    lin = DominatingFactor.linear(1.0)
    for m, big_m, r0, n in ((10.0, PI, 1e-300, 2), (10.0, PI, 1e-100, 4), (10.0, 1e308, 1.0, 4)):
        res = dominated_modulus_bound(m, big_m, r0, n, lin)
        assert math.isfinite(res.details["sigma"])
        assert math.isfinite(res.left) and math.isfinite(res.right)
        assert res.left == pytest.approx(res.right, rel=1e-8)
    for n, big_m, r0, d in ((2, PI, 1e-300, 1e-301), (3, 1e308, 1.0, 1e-3)):
        res = continuity_bounds(n, 1.0, big_m, r0, 0.5, d)
        assert math.isfinite(res.details["sigma"]) and math.isfinite(res.left)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_bounds_refuse_non_finite_inputs(bad):
    # each call is valid with 1.0 in place of bad; the range tests alone
    # (m <= 1/n, M <= 0, gamma <= 0, ...) let NaN through
    lin = DominatingFactor.linear(1.0)
    calls = [
        lambda x: dominated_modulus_bound(10.0 * x, PI, 1.0, 2, lin),
        lambda x: dominated_modulus_bound(10.0, PI * x, 1.0, 2, lin),
        lambda x: dominated_modulus_bound(10.0, PI, x, 2, lin),
        lambda x: continuity_bounds(2, x, PI, 1.0, 1.0, 1e-3),
        lambda x: continuity_bounds(2, 1.0, PI * x, 1.0, 1.0, 1e-3),
        lambda x: continuity_bounds(2, 1.0, PI, x, 1.0, 1e-3),
        lambda x: continuity_bounds(2, 1.0, PI, 1.0, x, 1e-3),
        lambda x: continuity_bounds(2, 1.0, PI, 1.0, 1.0, 1e-3 * x),
        lambda x: separation_bound(10.0 * x, 2),
        lambda x: boundary_estimate(10.0 * x, 1.0, 2),
        lambda x: boundary_estimate(10.0, x, 2),
        lambda x: lipschitz_constants(x, 1.0, 2),
        lambda x: lipschitz_constants(0.0, x, 2),
    ]
    for call in calls:
        call(1.0)
        with pytest.raises(ValueError, match="finite"):
            call(bad)


def test_sandwich_refuses_a_bad_image_modulus():
    # a NaN, infinite or non-positive image modulus would read as "violated",
    # a false finding, and a negative or NaN image error would enter the report
    shape, spec = HalfSemiring(n=2, r0=1.0, r1=E), QuadratureSpec(8, 8, 1)
    for evaluator in (eq1est_bounds, eq2est_bounds):
        assert evaluator(Identity(), shape, spec, image_mo=1.0, image_mo_error=0.0).verdict == "holds"
        for image_mo in (math.nan, math.inf, -math.inf, -1.0, 0.0):
            with pytest.raises(ValueError, match="image_mo must"):
                evaluator(Identity(), shape, spec, image_mo=image_mo)
        for error in (math.nan, math.inf, -0.5):
            with pytest.raises(ValueError, match="image_mo_error must"):
                evaluator(Identity(), shape, spec, image_mo=1.0, image_mo_error=error)


# ---------------------------------------------------------------------------
# averaged identity and the tail trend
# ---------------------------------------------------------------------------

def test_unrefined_error_gives_inconclusive():
    # without a doubling no error is known, so no side can be judged, even
    # where the comparison fails by far (ratio 5 against a sandwich at 0.8,
    # defect 0.9 against the bracket [0.2, 0.25])
    m = RadialStretch(a=0.8)
    spec = QuadratureSpec(8, 8, max_refine=0)
    shape = HalfSemiring(n=2, r0=1.0, r1=E)
    for rep in (eq1est_bounds(m, shape, spec, image_mo=5.0),
                eq2est_bounds(m, shape, spec, image_mo=0.1),
                holder_identity_check(m, np.zeros(2), 0.5, 1.0, spec)):
        assert rep.error == math.inf
        assert rep.verdict == "inconclusive"


def test_refinement_cap_is_reported():
    # the n = 3 twist still changes by 3.6e-4 at its one doubling; both
    # dilatations of a radial stretch are constant and settle at once
    spec = QuadratureSpec(8, 8, max_refine=1)
    shape = HalfSemiring(n=3, r0=1.0, r1=E)
    for evaluator in (eq1est_bounds, eq2est_bounds):
        twist = evaluator(RotationTwist(), shape, spec)
        assert twist.details["capped"] is True
        assert twist.error == pytest.approx(3.6e-4, rel=0.05)
        assert evaluator(RadialStretch(a=0.8), shape, spec).details["capped"] is False
    m = RadialStretch(a=0.8)
    assert holder_identity_check(m, np.zeros(2), 0.5, 1.0).details["capped"] is False
    unrefined = QuadratureSpec(8, 8, max_refine=0)
    assert holder_identity_check(m, np.zeros(2), 0.5, 1.0, unrefined).details["capped"] is True
    dom = dominated_modulus_bound(10.0, PI, 1.0, 2, DominatingFactor.linear(1.0))
    assert dom.details["capped"] is False
    assert modintbound(m, np.zeros(2), 1.0, E, unrefined).details["capped"] is True
    radii = [E ** 5, E ** 10]
    assert infinity_check(m, 1.0, radii, np.zeros(2)).details["capped"] is False
    trend = infinity_check(m, 1.0, radii, np.zeros(2), unrefined)
    assert trend.details["capped"] is True
    assert trend.error == math.inf and trend.verdict == "inconclusive"
    # _refine itself: a value that keeps moving stops at the cap
    assert bounds._refine(lambda k: 2.0 ** -k, 3) == (0.125, 0.125, True)
    assert bounds._refine(lambda k: 1.0, 3) == (1.0, 0.0, False)


def test_every_evaluator_returns_a_bound_report():
    dom = dominated_modulus_bound(10.0, PI, 1.0, 2, DominatingFactor.linear(1.0))
    cont = continuity_bounds(2, 1.0, PI, 1.0, 1.0, 1e-3)
    trend = infinity_check(RadialStretch(a=0.8), 1.0, [E ** 5, E ** 10], np.zeros(2))
    for rep, ident in ((dom, "domfac"), (cont, "continuity"), (trend, "infinity")):
        assert isinstance(rep, bounds.BoundReport)
        assert rep.inequality == ident
        assert rep.to_json()["id"] == ident
    # the domfac error is the change of the last Gauss doubling
    assert 0.0 <= dom.error < 1e-12 * dom.left
    assert dom.details["divergence"] == "divergent"
    assert cont.error == 0.0 and cont.right is None
    assert trend.left == trend.details["values"][-1]
    assert 0.0 <= trend.error < 1e-9


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


def test_holder_error_covers_rounding():
    # a constant angular dilatation: both refinement levels of each side
    # agree to rounding, and their change (4.5e-16 here) alone is below the
    # gap of 5.0e-16 between the sides
    rep = holder_identity_check(RadialStretch(a=0.7628473750715437), np.zeros(2),
                                0.8552157598941496, 2.6224481633044454)
    assert 0.0 < rep.details["gap"] <= rep.error < 1e-14
    assert rep.verdict == "holds"


def test_infinity_trend_extends():
    radii = [math.exp(5), math.exp(10), math.exp(20), math.exp(40), math.exp(80)]
    rep = infinity_check(RadialStretch(a=0.8), 1.0, radii, np.zeros(2))
    assert rep.verdict == "extends"
    # closed form: 0.25 * (half circle length) * log(R) / (log R)^2 at r0 = 1
    assert rep.details["values"][0] == pytest.approx(0.25 * PI / 5.0, rel=1e-6)
    assert rep.details["values"][-1] < 1e-2
    assert rep.details["capped"] is False


def test_infinity_check_about_a_shifted_center():
    radii = [math.exp(5), math.exp(10), math.exp(20)]
    rep = infinity_check(Identity(), 1.0, radii, np.array([3.0, 0.0]))
    assert rep.verdict == "extends"
    assert np.allclose(rep.details["values"], 0.0, atol=1e-12)
    with pytest.raises(ValueError):
        infinity_check(Identity(), 1.0, [0.5, 2.0], np.zeros(2))   # R <= r0
    # (log R)^2 vanishes at R = 1, and R < 1 is no trend toward infinity
    for bad in ([1.0, 10.0], [0.8, 10.0]):
        with pytest.raises(ValueError):
            infinity_check(RadialStretch(a=0.8), 0.5, bad, np.zeros(2))
    with pytest.raises(ValueError):
        infinity_check(Identity(), 1.0, radii, np.array([0.0, 1.0]))   # off the plane


def test_infinity_trend_inconclusive():
    field = lambda X: 1.0 + np.log(np.linalg.norm(X, axis=1))
    rep = infinity_check(field, 1.0, [E ** 2, E ** 4, E ** 8], np.zeros(2))
    assert rep.verdict == "inconclusive"
    assert rep.details["values"][-1] == pytest.approx(PI / 2.0, rel=1e-6)
    with pytest.raises(ValueError):
        infinity_check(field, 1.0, [10.0, 5.0], np.zeros(2))
