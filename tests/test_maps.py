import math

import numpy as np
import pytest

from ringmod import (
    Composition,
    HalfSemiring,
    Identity,
    IrregularPointError,
    Linear,
    MapDomainError,
    RadialStretch,
    RotationTwist,
    eq1est_bounds,
    parse_map,
)
from ringmod.dilatation import angular_dilatation_field
from ringmod.discrete import _ApollonianChart
from ringmod import maps
from ringmod.maps import _norm

ALL_MAPS = [
    Identity(),
    RadialStretch(a=0.5),
    RadialStretch(a=0.8),
    RadialStretch(a=1.7),
    RotationTwist(),
    Linear(matrix=np.array([[2.0, 1.0], [0.0, 0.5]])),
    Composition(stages=(RadialStretch(a=0.7), RotationTwist())),
]


def test_eval_examples():
    assert np.allclose(Identity()(np.array([1.0, 2.0])), [1.0, 2.0])
    assert np.allclose(RadialStretch(a=0.5)(np.array([4.0, 0.0])), [2.0, 0.0])
    # unit cylindrical radius means zero twist angle
    x = np.array([math.cos(0.3), math.sin(0.3)])
    assert np.allclose(RotationTwist()(x), x, atol=1e-14)


def test_twist_preserves_radius_and_volume():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((1000, 2))
    X = X[np.hypot(X[:, 0], X[:, 1]) > 1e-3]
    tw = RotationTwist()
    assert np.allclose(np.linalg.norm(tw(X), axis=1), np.linalg.norm(X, axis=1), atol=1e-10)
    dets = np.linalg.det(tw.jacobian(X))
    assert np.abs(dets - 1.0).max() < 1e-10


@pytest.mark.parametrize("mapping", ALL_MAPS, ids=lambda m: m.describe())
def test_fd_matches_analytic(mapping):
    rng = np.random.default_rng(11)
    for _ in range(20):
        x = rng.standard_normal(2)
        if np.linalg.norm(x) < 0.3:
            continue
        J = mapping.jacobian(x)
        Jf = mapping.jacobian_fd(x)
        assert np.abs(J - Jf).max() <= 1e-4 * max(1.0, np.abs(J).max())


def test_fd_step_is_per_point():
    # a far point in the batch does not coarsen a near point's step
    tw = RotationTwist()
    near = np.array([0.3, 0.4])
    alone = tw.jacobian_fd(near)
    batched = tw.jacobian_fd(np.array([near, [300.0, 400.0]]))
    assert np.array_equal(batched[0], alone)
    assert np.abs(alone - tw.jacobian(near)).max() < 1e-9


def test_radial_stretch_jacobian_structure():
    a = 0.6
    x = np.array([0.0, 1.0])
    J = RadialStretch(a=a).jacobian(x)
    det = np.linalg.det(J)
    sv = np.linalg.svd(J, compute_uv=False)
    assert sorted(sv) == pytest.approx(sorted([a, 1.0]))
    assert det == pytest.approx(a)


def _scaled_points(rng, n, scales):
    """Random points in R^n, off the origin and off-centre, with coordinates
    spread over several decades around each scale."""
    pts = []
    for scale in scales:
        centre = rng.uniform(-3.0, 3.0, n)
        X = centre + rng.standard_normal((400, n)) * np.exp(rng.uniform(-3.0, 3.0, (400, 1)))
        pts.append(scale * X)
    return np.concatenate(pts)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_norm_is_linalg_norm_bit_for_bit(n):
    rng = np.random.default_rng(100 + n)
    X = _scaled_points(rng, n, [1e-20, 1e-10, 1.0, 1e10, 1e20])
    np.testing.assert_array_equal(_norm(X), np.linalg.norm(X, axis=-1))
    for x in X[:50]:
        assert _norm(x) == np.linalg.norm(x, axis=-1)
    batch = X[:60].reshape(4, 15, n)
    np.testing.assert_array_equal(_norm(batch), np.linalg.norm(batch, axis=-1))


def _broadcast_radial_jacobian(a, x):
    """The radial stretch's Jacobian r^(a-1) (I + (a-1) u u^T) as one broadcast
    expression over a batch."""
    n = x.shape[-1]
    r = np.linalg.norm(x, axis=-1)
    u = x / r[..., None]
    eye = np.broadcast_to(np.eye(n), x.shape[:-1] + (n, n))
    uu = u[..., :, None] * u[..., None, :]
    return (r ** (a - 1.0))[..., None, None] * (eye + (a - 1.0) * uu)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("a", [0.5, 0.8, 1.6, 3.0])
def test_radial_jacobian_matches_broadcast_formula(a, n):
    rng = np.random.default_rng(int(10 * a) + n)
    X = _scaled_points(rng, n, [1e-3, 1.0, 1e3])
    m = RadialStretch(a=a)
    J = m.jacobian(X)
    np.testing.assert_array_equal(J, _broadcast_radial_jacobian(a, X))
    for x in X[:20]:
        np.testing.assert_array_equal(m.jacobian(x), _broadcast_radial_jacobian(a, x))
    batch = X[:60].reshape(4, 15, n)
    np.testing.assert_array_equal(m.jacobian(batch), _broadcast_radial_jacobian(a, batch))
    # and the central differences agree to their O(h^2) error
    Y = _scaled_points(rng, n, [1.0])
    Y = Y[np.linalg.norm(Y, axis=-1) > 0.1]
    Ja, Jf = m.jacobian(Y), m.jacobian_fd(Y)
    scale = np.abs(Ja).max(axis=(-2, -1))
    assert np.all(np.abs(Ja - Jf).max(axis=(-2, -1)) <= 1e-7 * scale)


def _row_major_twist_jacobian(x):
    """The twist's Jacobian written into a (..., n, n) array entry by entry."""
    n = x.shape[-1]
    x1, x2 = x[..., 0], x[..., 1]
    rho2 = x1 ** 2 + x2 ** 2
    th = np.log(rho2)
    c, s = np.cos(th), np.sin(th)
    J = np.zeros(x.shape[:-1] + (n, n))
    for i in range(2, n):
        J[..., i, i] = 1.0
    g = 2.0 / rho2
    m00, m01, m10, m11 = 1.0 + g * (-x2) * x1, g * (-x2) * x2, g * x1 * x1, 1.0 + g * x1 * x2
    J[..., 0, 0] = c * m00 - s * m10
    J[..., 0, 1] = c * m01 - s * m11
    J[..., 1, 0] = s * m00 + c * m10
    J[..., 1, 1] = s * m01 + c * m11
    return J


@pytest.mark.parametrize("n", [2, 3, 4])
def test_builtin_jacobians_are_component_major_with_the_row_major_values(n):
    rng = np.random.default_rng(40 + n)
    X = _scaled_points(rng, n, [1e-3, 1.0, 1e3])
    matrix = rng.standard_normal((n, n)) + 3.0 * np.eye(n)
    cases = [(Identity(), lambda x: np.broadcast_to(np.eye(n), x.shape[:-1] + (n, n))),
             (RadialStretch(a=0.6), lambda x: _broadcast_radial_jacobian(0.6, x)),
             (RotationTwist(), _row_major_twist_jacobian),
             (Linear(matrix=matrix), lambda x: np.broadcast_to(matrix, x.shape[:-1] + (n, n)))]
    for mapping, row_major in cases:
        for x in (X, X[:60].reshape(4, 15, n), X[0]):
            J = mapping.jacobian(x)
            # the matrices view a C-contiguous (n, n, *batch) array
            base = J if J.base is None else J.base
            assert base.shape == (n, n) + x.shape[:-1] and base.flags.c_contiguous
            np.testing.assert_array_equal(np.moveaxis(base, (0, 1), (-2, -1)), J)
            np.testing.assert_array_equal(J, row_major(x))


def test_radial_jacobian_takes_one_norm(monkeypatch):
    # the domain check's norms are the radii of the Jacobian
    calls = []
    norm = maps._norm

    def counted(x):
        calls.append(x.shape)
        return norm(x)

    monkeypatch.setattr(maps, "_norm", counted)
    X = np.random.default_rng(9).standard_normal((50, 3))
    for x in (X, X[0], X.reshape(5, 10, 3)):
        calls.clear()
        RadialStretch(a=0.7).jacobian(x)
        assert calls == [x.shape]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_radial_jacobian_overflow_is_refused_by_the_dilatation_field():
    # at |x| = 1e3, r^(a-1) = 1e3^399 overflows: the Jacobian carries inf and
    # NaN entries without a warning, and the field refuses the point
    steep = RadialStretch(a=400.0)
    for X in (np.array([[600.0, 800.0]]), np.array([[1.0, 2.0, 2.0], [600.0, 0.0, 800.0]])):
        assert not np.all(np.isfinite(steep.jacobian(X)[-1]))
        assert np.all(np.isfinite(steep.jacobian(X[:-1])))
        with pytest.raises(IrregularPointError):
            angular_dilatation_field(steep, np.zeros(X.shape[-1]))(X)


def test_composition_chain_rule():
    comp = Composition(stages=(RadialStretch(a=0.7), RotationTwist()))
    x = np.array([0.8, -0.4])
    J = comp.jacobian(x)
    J1 = RadialStretch(a=0.7).jacobian(x)
    y = RadialStretch(a=0.7)(x)
    J2 = RotationTwist().jacobian(y)
    assert np.allclose(J, J2 @ J1, atol=1e-12)



def test_composition_checks_each_stage_once(monkeypatch):
    # each stage is checked at its own input as the composition walks the
    # stages: one check per stage for a call or a Jacobian, one evaluation
    # per stage for a call, only the images a later stage needs for a
    # Jacobian, and the same numbers as the stages chained by hand
    checks, evals, jacobians = [], [], []
    for cls in (RadialStretch, RotationTwist):
        for name, calls in (("_singularity_distance", checks), ("_eval", evals),
                            ("_jacobian", jacobians)):
            def counted(self, x, *rest, original=getattr(cls, name), calls=calls):
                calls.append(self)
                return original(self, x, *rest)
            monkeypatch.setattr(cls, name, counted)
    radial, twist = RadialStretch(a=0.7), RotationTwist()
    comp = Composition(stages=(radial, twist))
    x = np.array([[0.8, -0.4], [0.3, 1.1]])
    J = comp.jacobian(x)
    assert (checks, evals, jacobians) == ([radial, twist], [radial], [radial, twist])
    y = comp(x)
    assert checks == [radial, twist] * 2
    assert evals == [radial, radial, twist]
    middle = radial(x)
    np.testing.assert_array_equal(y, twist(middle))
    np.testing.assert_array_equal(J, twist.jacobian(middle) @ radial.jacobian(x))
    # a second stage singular at the first stage's image is still refused
    doubled = Composition(stages=(Linear(matrix=2.0 * np.eye(2)), RadialStretch(a=0.5)))
    with pytest.raises(MapDomainError):
        doubled(np.zeros(2))
    with pytest.raises(MapDomainError):
        doubled.jacobian(np.zeros(2))
    with pytest.raises(MapDomainError):
        doubled.jacobian_fd(np.zeros(2))
    assert doubled.singularity_distance(np.zeros(2)) == 0.0


def test_a_map_without_an_analytic_jacobian_refuses_it_by_name():
    # the Apollonian chart only places grid nodes and defines no _jacobian:
    # alone, as a stage of a composition and under a bound, its Jacobian is
    # refused with a clear error, and central differences still work
    chart = _ApollonianChart(np.array([1.0, 0.0]))
    comp = Composition((chart, Identity()))
    x = np.array([0.5, 0.5])
    for m in (chart, comp):
        with pytest.raises(NotImplementedError, match="apollonian-chart.*jacobian_fd"):
            m.jacobian(x)
        assert np.all(np.isfinite(m.jacobian_fd(x)))
    with pytest.raises(NotImplementedError, match="apollonian-chart"):
        eq1est_bounds(comp, HalfSemiring(n=2, r0=1.0, r1=math.e))


def test_domain_errors():
    with pytest.raises(MapDomainError):
        RadialStretch(a=0.5)(np.zeros(2))
    with pytest.raises(MapDomainError):
        RotationTwist()(np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        RadialStretch(a=-1.0)
    with pytest.raises(ValueError):
        Linear(matrix=np.zeros((2, 2)))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_parameters_refused_at_construction():
    # refused before numpy's det or the map ever sees them
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="matrix must be finite"):
            Linear(matrix=np.array([[bad, 0.0], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="exponent a must be positive and finite"):
            RadialStretch(a=bad)
    with pytest.raises(ValueError, match="matrix must be finite"):
        parse_map("linear:nan,0,0,1")
    with pytest.raises(ValueError, match="exponent a"):
        parse_map("radial:a=inf")
    # a finite matrix whose determinant overflows is refused by name
    named = r"matrix \[\[1e\+200, 0.0\], \[0.0, 1e\+200\]\] has a non-finite determinant"
    with pytest.raises(ValueError, match=named):
        Linear(matrix=np.diag([1e200, 1e200]))


def test_singularity_distance():
    assert RotationTwist().singularity_distance(np.array([0.0, 0.0, 2.0])) == 0.0
    assert RadialStretch(a=2.0).singularity_distance(np.array([3.0, 4.0])) == pytest.approx(5.0)
    assert np.isinf(Identity().singularity_distance(np.array([1.0, 1.0])))


def test_parse_map_roundtrip():
    x = np.array([0.7, -0.3])
    for spec in ("identity", "twist", "radial:a=0.8",
                 "linear:2,1,0,0.5", "compose:radial:a=0.7;twist",
                 "compose:compose:radial:a=0.7;twist"):
        m = parse_map(spec)
        again = parse_map(m.describe())
        assert np.allclose(m(x), again(x))
    m = parse_map("linear:2,1,0,0.5")
    assert np.allclose(m.matrix, [[2.0, 1.0], [0.0, 0.5]])
    with pytest.raises(ValueError):
        parse_map("spiral:a=1")
    with pytest.raises(ValueError):
        parse_map("linear:1,2,3")


def test_vectorized_eval_shapes():
    X = np.random.default_rng(0).standard_normal((5, 7, 3)) + 3.0
    tw = RotationTwist()
    assert tw(X).shape == (5, 7, 3)
    assert tw.jacobian(X).shape == (5, 7, 3, 3)
