import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ringmod import (
    Annulus,
    ApollonianSemiring,
    HalfSemiring,
    exact_modulus,
    gamma_family_modulus,
    parse_shape,
    sphere_area,
    ball_volume,
)


def test_constants_identities():
    assert sphere_area(2) == pytest.approx(2 * math.pi)
    assert sphere_area(3) == pytest.approx(4 * math.pi)
    assert ball_volume(2) == pytest.approx(math.pi)
    for n in range(2, 8):
        assert sphere_area(n) == pytest.approx(n * ball_volume(n), rel=1e-14)


def test_exact_modulus_values():
    assert exact_modulus(Annulus(n=2, r0=1.0, r1=math.e)) == pytest.approx(1.0)
    assert exact_modulus(ApollonianSemiring(n=2, r0=0.1, r1=1.0)) == pytest.approx(math.log(10))
    eps = 1e-9
    assert exact_modulus(HalfSemiring(n=2, r0=1.0, r1=1.0 + eps)) == pytest.approx(eps, rel=1e-6)


def test_degenerate_semiring_rejected():
    with pytest.raises(ValueError):
        HalfSemiring(n=2, r0=2.0, r1=2.0)
    with pytest.raises(ValueError):
        Annulus(n=2, r0=3.0, r1=1.0)
    with pytest.raises(ValueError):
        ApollonianSemiring(n=2, r0=0.1, r1=1.0, pole=np.array([2.0, 0.0]))
    with pytest.raises(ValueError):
        HalfSemiring(n=2, r0=1.0, r1=2.0, center=np.array([0.0, 0.5]))
    # non-finite vectors are refused by every shape
    for center in ([math.inf, 0.0], [math.nan, 0.0]):
        with pytest.raises(ValueError):
            HalfSemiring(n=2, r0=1.0, r1=2.0, center=center)
    with pytest.raises(ValueError):
        ApollonianSemiring(n=2, r0=0.1, r1=1.0, pole=[math.nan, 1.0])


def test_gamma_family_values():
    assert gamma_family_modulus(HalfSemiring(n=2, r0=1.0, r1=math.e)) == pytest.approx(math.pi)
    assert gamma_family_modulus(Annulus(n=2, r0=1.0, r1=math.e)) == pytest.approx(2 * math.pi)
    assert gamma_family_modulus(HalfSemiring(n=3, r0=1.0, r1=math.e)) == pytest.approx(2 * math.pi)


def test_half_ring_is_half_of_ring():
    for n in (2, 3, 4):
        ring = Annulus(n=n, r0=0.5, r1=3.0)
        half = HalfSemiring(n=n, r0=0.5, r1=3.0)
        assert gamma_family_modulus(half) == pytest.approx(gamma_family_modulus(ring) / 2.0)


@given(scale=st.floats(1e-3, 1e3), r0=st.floats(0.1, 5.0), width=st.floats(0.05, 5.0))
def test_modulus_scale_invariant(scale, r0, width):
    base = Annulus(n=2, r0=r0, r1=r0 + width)
    scaled = Annulus(n=2, r0=scale * r0, r1=scale * (r0 + width))
    assert exact_modulus(scaled) == pytest.approx(exact_modulus(base), rel=1e-9)


@given(cx=st.floats(-10, 10), cy=st.floats(-10, 10))
def test_modulus_translation_invariant(cx, cy):
    moved = Annulus(n=2, r0=1.0, r1=2.0, center=np.array([cx, cy]))
    assert exact_modulus(moved) == pytest.approx(math.log(2.0))
    half = HalfSemiring(n=2, r0=1.0, r1=2.0, center=np.array([cx, 0.0]))
    assert exact_modulus(half) == pytest.approx(math.log(2.0))


def test_parse_shape():
    s = parse_shape("annulus:n=2,r0=1,r1=2.5,c=1,2")
    assert isinstance(s, Annulus)
    assert np.allclose(s.center, [1.0, 2.0])
    s = parse_shape("semiring:n=3,r=0.5,R=4,x0=1,1,0")
    assert isinstance(s, HalfSemiring)
    assert s.r0 == 0.5 and s.r1 == 4.0
    s = parse_shape("apollonian:n=2,r0=0.1,r1=1,xi=0,1")
    assert isinstance(s, ApollonianSemiring)
    assert np.allclose(s.pole, [0.0, 1.0])
    # the pole xi defaults to e_1
    assert np.array_equal(parse_shape("apollonian:n=2,r0=0.1,r1=1").pole, [1.0, 0.0])
    with pytest.raises(ValueError):
        parse_shape("torus:n=2")
    with pytest.raises(ValueError):
        parse_shape("annulus:n=2,r0=1")


def test_parse_semiring_radius_aliases():
    canonical = parse_shape("semiring:n=2,r0=1,r1=2.718281828,x0=0.5,0")
    alias = parse_shape("semiring:n=2,r=1,R=2.718281828,x0=0.5,0")
    for s in (canonical, alias):
        assert isinstance(s, HalfSemiring)
        assert (s.r0, s.r1) == (1.0, 2.718281828)
        assert np.array_equal(s.center, [0.5, 0.0])
    assert parse_shape("semiring:n=2,r0=1,R=3").r1 == 3.0
    with pytest.raises(ValueError, match="both r0 and its alias r"):
        parse_shape("semiring:n=2,r0=1,r=1,R=3")
    with pytest.raises(ValueError, match="both r1 and its alias R"):
        parse_shape("semiring:n=2,r=1,r1=3,R=3")
    with pytest.raises(ValueError, match="missing key 'r1'"):
        parse_shape("semiring:n=2,r0=1")


def test_parse_shape_refuses_unknown_keys():
    with pytest.raises(ValueError, match="semiring takes no key c"):
        parse_shape("semiring:n=2,r0=1,r1=2,c=5,0")
    with pytest.raises(ValueError, match="apollonian takes no key x0"):
        parse_shape("apollonian:n=2,r0=0.1,r1=1,x0=0,1")
    with pytest.raises(ValueError, match="annulus takes no key R, r"):
        parse_shape("annulus:n=2,r=1,R=2")
    with pytest.raises(ValueError, match="annulus takes no key m"):
        parse_shape("annulus:n=2,r0=1,r1=2,m=3")
    # the aliases stay a semiring's own keys, and each kind keeps its vector key
    s = parse_shape("semiring:n=2,r=1,R=2,x0=5,0")
    assert (s.r0, s.r1) == (1.0, 2.0) and np.array_equal(s.center, [5.0, 0.0])
    assert np.array_equal(parse_shape("annulus:n=2,r0=1,r1=2,c=5,0").center, [5.0, 0.0])
    assert np.array_equal(parse_shape("apollonian:n=2,r0=0.1,r1=1,xi=0,1").pole, [0.0, 1.0])
