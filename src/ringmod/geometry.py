"""Ring and semiring geometries and their exact conformal moduli.

Three shapes are supported, all with modulus log(r1/r0):

* ``Annulus``      -- {x : r0 <= |x - c| <= r1}
* ``HalfSemiring`` -- {x in closed upper half-space : r0 <= |x - x0| <= r1}
  with the center x0 on the bounding hyperplane,
* ``ApollonianSemiring`` -- {x in closed unit ball : r0 <= |x-xi|/|x+xi| <= r1}
  for a pole xi on the unit sphere.

Shapes are closed sets; boundary sample points are allowed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import sphere_area
from .maps import parse_vector


def _read_vector(v, n: int, name: str) -> np.ndarray:
    """A read-only float copy of v, which must be a finite vector of length n."""
    v = np.array(v, dtype=float)
    if v.shape != (n,):
        raise ValueError(f"{name} has wrong dimension")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} must be finite")
    v.setflags(write=False)
    return v


@dataclass(frozen=True, eq=False)
class _ShapeBase:
    """Dimension n >= 2 and radii 0 < r0 < r1 < inf, shared by every shape."""

    n: int
    r0: float
    r1: float

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("dimension must be >= 2")
        if not (0 < self.r0 < self.r1 < math.inf):
            raise ValueError(f"need 0 < r0 < r1 < inf, got ({self.r0}, {self.r1})")


@dataclass(frozen=True, eq=False)
class Annulus(_ShapeBase):
    """Spherical ring {r0 <= |x - center| <= r1} in R^n."""

    center: np.ndarray = None

    kind = "ring"

    def __post_init__(self):
        super().__post_init__()
        c = np.zeros(self.n) if self.center is None else self.center
        object.__setattr__(self, "center", _read_vector(c, self.n, "center"))

    @property
    def x0(self) -> np.ndarray:
        return self.center


@dataclass(frozen=True, eq=False)
class HalfSemiring(_ShapeBase):
    """Half ring {x in H^n : r0 <= |x - x0| <= r1}, x0 on the boundary plane.

    The upper half-space H^n is {x : x_n >= 0}; x0 must have last
    coordinate exactly 0.
    """

    center: np.ndarray = None

    kind = "semiring"

    def __post_init__(self):
        super().__post_init__()
        c = np.zeros(self.n) if self.center is None else self.center
        c = _read_vector(c, self.n, "center")
        if c[-1] != 0.0:
            raise ValueError("semiring center must lie on the boundary hyperplane x_n = 0")
        object.__setattr__(self, "center", c)

    @property
    def x0(self) -> np.ndarray:
        return self.center


@dataclass(frozen=True, eq=False)
class ApollonianSemiring(_ShapeBase):
    """Region of the unit ball between two Apollonian spheres about +/- xi.

    The level sets |x - xi| / |x + xi| = const for |xi| = 1 foliate the ball;
    the shape collects levels in [r0, r1] with 0 < r0 < r1 < inf.
    """

    pole: np.ndarray = None

    kind = "semiring"

    def __post_init__(self):
        super().__post_init__()
        p = np.eye(self.n)[0] if self.pole is None else self.pole
        p = _read_vector(p, self.n, "pole")
        nrm = np.linalg.norm(p)
        if abs(nrm - 1.0) > 1e-6:
            raise ValueError(f"pole must lie on the unit sphere, |xi| = {nrm}")
        object.__setattr__(self, "pole", _read_vector(p / nrm, self.n, "pole"))

    @property
    def x0(self) -> np.ndarray:
        return self.pole


Shape = Annulus | HalfSemiring | ApollonianSemiring


def exact_modulus(shape: Shape) -> float:
    """Conformal modulus; equals log(r1/r0) for every supported shape."""
    return math.log(shape.r1 / shape.r0)


def span_area(kind: str, n: int) -> float:
    """Area of the sphere of directions a shape of this kind covers:
    omega_{n-1} for rings, omega_{n-1}/2 for semirings, which are half rings
    (up to a Moebius map for the Apollonian kind)."""
    if kind == "ring":
        return sphere_area(n)
    if kind == "semiring":
        return sphere_area(n) / 2.0
    raise ValueError(f"unknown shape kind {kind!r}")


def gamma_family_modulus(shape: Shape) -> float:
    """Exact modulus of the family of curves connecting the two boundaries:
    span_area * (log(r1/r0))^(1-n)."""
    return span_area(shape.kind, shape.n) * exact_modulus(shape) ** (1 - shape.n)


# shape kind -> (class, its vector key, the attribute that key sets), besides n, r0, r1
_SHAPE_KINDS = {
    "annulus": (Annulus, "c", "center"),
    "semiring": (HalfSemiring, "x0", "center"),
    "apollonian": (ApollonianSemiring, "xi", "pole"),
}
_VECTOR_KEYS = frozenset(vec for _, vec, _ in _SHAPE_KINDS.values())


def _parse_kv(body: str):
    """Split 'k=v,k=v,vec=1,2,3' honoring trailing bare components of vectors."""
    out: dict[str, str] = {}
    current_vec = None
    for tok in body.split(","):
        if "=" in tok:
            k, v = tok.split("=", 1)
            out[k.strip()] = v
            current_vec = k.strip() if k.strip() in _VECTOR_KEYS else None
        elif current_vec is not None:
            out[current_vec] += "," + tok
        else:
            raise ValueError(f"stray token {tok!r} in shape spec")
    return out


def parse_shape(spec: str) -> Shape:
    """Parse the shape mini-language.

    Forms: 'annulus:n=<int>,r0=<f>,r1=<f>[,c=<vec>]',
    'semiring:n=<int>,r0=<f>,r1=<f>[,x0=<vec>]',
    'apollonian:n=<int>,r0=<f>,r1=<f>[,xi=<vec>]', whose pole xi defaults
    to e_1.  A semiring also takes r and R as aliases of r0 and r1, but not
    a radius under both names.  Vectors are comma-separated floats and must
    come last.  A key the kind does not take is refused.
    """
    spec = spec.strip()
    head, _, body = spec.partition(":")
    if head not in _SHAPE_KINDS:
        raise ValueError(f"unknown shape kind {head!r}")
    cls, vec_key, attr = _SHAPE_KINDS[head]
    kv = _parse_kv(body)
    if head == "semiring":
        for key, alias in (("r0", "r"), ("r1", "R")):
            if alias in kv:
                if key in kv:
                    raise ValueError(f"shape spec {spec!r} gives both {key} and its alias {alias}")
                kv[key] = kv.pop(alias)
    unknown = sorted(kv.keys() - {"n", "r0", "r1", vec_key})
    if unknown:
        raise ValueError(f"shape spec {spec!r}: {head} takes no key {', '.join(unknown)}")
    try:
        vec = parse_vector(kv[vec_key]) if vec_key in kv else None
        return cls(n=int(kv["n"]), r0=float(kv["r0"]), r1=float(kv["r1"]), **{attr: vec})
    except KeyError as exc:
        raise ValueError(f"shape spec {spec!r} is missing key {exc}") from None
