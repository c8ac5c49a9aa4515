import math

import numpy as np
import pytest

from ringmod import (
    Composition,
    Identity,
    Linear,
    MapDomainError,
    RadialStretch,
    RotationTwist,
    parse_map,
)

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


def test_composition_chain_rule():
    comp = Composition(stages=(RadialStretch(a=0.7), RotationTwist()))
    x = np.array([0.8, -0.4])
    J = comp.jacobian(x)
    J1 = RadialStretch(a=0.7).jacobian(x)
    y = RadialStretch(a=0.7)(x)
    J2 = RotationTwist().jacobian(y)
    assert np.allclose(J, J2 @ J1, atol=1e-12)


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


def test_singularity_distance():
    assert RotationTwist().singularity_distance(np.array([0.0, 0.0, 2.0])) == 0.0
    assert RadialStretch(a=2.0).singularity_distance(np.array([3.0, 4.0])) == pytest.approx(5.0)
    assert np.isinf(Identity().singularity_distance(np.array([1.0, 1.0])))


def test_parse_map_roundtrip():
    x = np.array([0.7, -0.3])
    for spec in ("identity", "twist", "radial:a=0.8",
                 "linear:2,1,0,0.5", "compose:radial:a=0.7;twist"):
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
