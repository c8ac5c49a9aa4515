"""Test mappings of R^n with vectorized evaluation and Jacobians.

Every map accepts points of shape (n,) or batches (..., n) and is a
deterministic, pure function of (map, point).  Analytic Jacobians are exact;
the finite-difference fallback uses central differences with a relative step.

Evaluation refuses points closer than SINGULAR_EPS to a map's singular set
(quadrature and solvers are expected to keep their sample points away from
singular sets).

Jacobians are stored component-major: each built-in map fills an array of
shape (n, n, *batch), so that entry (i, j) of every matrix in the batch is
one contiguous row, and ``jacobian`` returns its (*batch, n, n) view
(``np.moveaxis``).  Elementwise work on one entry over a batch, as in the
dilatation layer, then reads contiguous memory instead of an n*n*8-byte
stride.  Values do not depend on the layout.  A composition's Jacobian is
the ``@`` product of its stages' and has numpy's layout for that product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SINGULAR_EPS = 1e-12

# central-difference step scale, h = FD_STEP_SCALE * max(1, |x|)
FD_STEP_SCALE = 1e-6


class MapDomainError(ValueError):
    """A point lies on (or too close to) the singular set of a map."""


def _norm(x: np.ndarray) -> np.ndarray:
    """Euclidean norms over the last axis, bit for bit ``np.linalg.norm(x,
    axis=-1)``: the squares are summed in the same order, x0*x0 + x1*x1 + ...,
    without the reduction's per-call overhead."""
    s = x[..., 0] * x[..., 0]
    for i in range(1, x.shape[-1]):
        s += x[..., i] * x[..., i]
    return np.sqrt(s)


def _batch_view(J: np.ndarray) -> np.ndarray:
    """The (*batch, n, n) view of a component-major (n, n, *batch) array."""
    return np.moveaxis(J, (0, 1), (-2, -1))


def _constant_jacobian(M: np.ndarray, batch: tuple) -> np.ndarray:
    """The matrix M at every point of a batch, stored component-major."""
    J = np.empty(M.shape + batch)
    J[...] = M.reshape(M.shape + (1,) * len(batch))
    return _batch_view(J)


def _as_points(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] < 2:
        raise ValueError("points must have at least 2 coordinates")
    return x


class Mapping:
    """Base class; subclasses implement _eval/_jacobian on (..., n) batches."""

    def __call__(self, x) -> np.ndarray:
        x = _as_points(x)
        return self._eval(x, self._check_domain(x))

    def jacobian(self, x) -> np.ndarray:
        """Analytic Jacobian matrices, shape (..., n, n); a view of a
        component-major (n, n, ...) array for the built-in maps."""
        return self._jacobian_image(_as_points(x), False)[0]

    def _jacobian_image(self, x, image: bool):
        """(Jacobian at x, image of x if ``image`` else None) from one domain
        check of x."""
        dist = self._check_domain(x)
        return self._jacobian(x, dist), (self._eval(x, dist) if image else None)

    def jacobian_fd(self, x) -> np.ndarray:
        """Central-difference Jacobian with step h = FD_STEP_SCALE * max(1, |x|)
        for each point; componentwise error O(h^2)."""
        x = _as_points(x)
        self._check_domain(x)
        h = FD_STEP_SCALE * np.maximum(1.0, np.linalg.norm(x, axis=-1))[..., None]
        cols = [(self(x + h * e) - self(x - h * e)) / (2.0 * h) for e in np.eye(x.shape[-1])]
        return np.stack(cols, axis=-1)

    def singularity_distance(self, x) -> np.ndarray:
        """Distance from each point to the map's singular set (inf if none)."""
        x = _as_points(x)
        return self._singularity_distance(x)

    def _check_domain(self, x) -> np.ndarray:
        """Refuse points near the singular set; returns their distances to it."""
        d = self._singularity_distance(x)
        if np.any(d < SINGULAR_EPS):
            raise MapDomainError(f"{self.describe()}: point within {SINGULAR_EPS} of singular set")
        return d

    # _eval(x, dist) and _jacobian(x, dist) get the distances the domain
    # check computed
    def _jacobian(self, x, dist) -> np.ndarray:
        raise NotImplementedError(f"{self.describe()} has no analytic Jacobian; "
                                  "use jacobian_fd for central differences")

    def _singularity_distance(self, x) -> np.ndarray:
        return np.full(x.shape[:-1], np.inf)

    def describe(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class Identity(Mapping):
    def _eval(self, x, dist):
        return x.copy()

    def _jacobian(self, x, dist):
        return _constant_jacobian(np.eye(x.shape[-1]), x.shape[:-1])

    def describe(self):
        return "identity"


@dataclass(frozen=True)
class RadialStretch(Mapping):
    """x -> |x|^(a-1) x for finite a > 0; singular at the origin.

    At |x| = r the derivative has singular values {a r^(a-1)} radially and
    {r^(a-1)} tangentially, so det = a r^(n(a-1)).
    """

    a: float

    def __post_init__(self):
        if not 0 < self.a < float("inf"):
            raise ValueError(f"stretch exponent a must be positive and finite, got {self.a}")

    # r is the norm the domain check took, the singularity distance
    def _eval(self, x, r):
        return r[..., None] ** (self.a - 1.0) * x

    def _jacobian(self, x, r):
        # entry (i, j) is r^(a-1) ((i == j) + (a - 1) u_i u_j), u = x/r, written
        # out entry by entry; the matrix is symmetric
        n = x.shape[-1]
        u = [x[..., i] / r for i in range(n)]
        am1 = self.a - 1.0
        J = np.empty((n, n) + x.shape[:-1])
        # overflow leaves inf or NaN entries, which the dilatation layer refuses
        with np.errstate(over="ignore", invalid="ignore"):
            p = r ** am1
            for i in range(n):
                for j in range(i, n):
                    J[i, j] = J[j, i] = p * ((i == j) + am1 * (u[i] * u[j]))
        return _batch_view(J)

    def _singularity_distance(self, x):
        return _norm(x)

    def describe(self):
        return f"radial:a={self.a}"


@dataclass(frozen=True)
class RotationTwist(Mapping):
    """Rotate the (x1, x2)-plane by the radius-dependent angle log(x1^2+x2^2).

    Volume preserving (det = 1 everywhere); singular on the axis x1 = x2 = 0.
    Remaining coordinates are left unchanged.
    """

    def _eval(self, x, dist):
        rho2 = x[..., 0] ** 2 + x[..., 1] ** 2
        th = np.log(rho2)
        c, s = np.cos(th), np.sin(th)
        out = x.copy()
        out[..., 0] = x[..., 0] * c - x[..., 1] * s
        out[..., 1] = x[..., 1] * c + x[..., 0] * s
        return out

    def _jacobian(self, x, dist):
        n = x.shape[-1]
        x1, x2 = x[..., 0], x[..., 1]
        rho2 = x1 ** 2 + x2 ** 2
        th = np.log(rho2)
        c, s = np.cos(th), np.sin(th)
        J = np.zeros((n, n) + x.shape[:-1])
        for i in range(2, n):
            J[i, i] = 1.0
        # d/dz [R(th(z)) z] = R(th) (I + (2/rho^2) (Jz) z^T), Jz = (-x2, x1)
        g = 2.0 / rho2
        m00 = 1.0 + g * (-x2) * x1
        m01 = g * (-x2) * x2
        m10 = g * x1 * x1
        m11 = 1.0 + g * x1 * x2
        J[0, 0] = c * m00 - s * m10
        J[0, 1] = c * m01 - s * m11
        J[1, 0] = s * m00 + c * m10
        J[1, 1] = s * m01 + c * m11
        return _batch_view(J)

    def _singularity_distance(self, x):
        return np.hypot(x[..., 0], x[..., 1])

    def describe(self):
        return "twist"


@dataclass(frozen=True, eq=False)
class Linear(Mapping):
    """x -> A x for a finite invertible matrix A."""

    matrix: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.matrix, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("linear map needs a square matrix")
        if not np.all(np.isfinite(A)):
            raise ValueError(f"linear map matrix must be finite, got {A.tolist()}")
        # a finite matrix can still overflow det: refuse that rather than warn
        with np.errstate(over="ignore", invalid="ignore"):
            det = np.linalg.det(A)
        if not np.isfinite(det):
            raise ValueError(f"linear map matrix {A.tolist()} has a non-finite determinant")
        if abs(det) < 1e-300:
            raise ValueError("linear map matrix must be invertible")
        A = A.copy()
        A.setflags(write=False)
        object.__setattr__(self, "matrix", A)

    def _eval(self, x, dist):
        return x @ self.matrix.T

    def _jacobian(self, x, dist):
        return _constant_jacobian(self.matrix, x.shape[:-1])

    def describe(self):
        flat = ",".join(repr(float(v)) for v in self.matrix.ravel())
        return f"linear:{flat}"


@dataclass(frozen=True, eq=False)
class Composition(Mapping):
    """Apply the listed maps in order: stages[0] first."""

    stages: tuple

    def __post_init__(self):
        stages = tuple(self.stages)
        if not stages:
            raise ValueError("composition needs at least one stage")
        object.__setattr__(self, "stages", stages)

    # a call and a Jacobian check each stage at its own input as they go,
    # which evaluates each stage once and hands it its own distances; _eval
    # runs the stages unchecked, for an outer walk that has already checked
    # them, and takes each stage's distances itself
    def __call__(self, x):
        for m in self.stages:
            x = m(x)
        return x

    def _jacobian_image(self, x, image):
        J = None
        for k, m in enumerate(self.stages):
            # every stage but the last hands its image to the next
            Jm, x = m._jacobian_image(x, image or k + 1 < len(self.stages))
            J = Jm if J is None else Jm @ J
        return J, x

    def _eval(self, x, dist):
        for m in self.stages:
            x = m._eval(x, m._singularity_distance(x))
        return x

    def _singularity_distance(self, x):
        d = dm = self.stages[0]._singularity_distance(x)
        for prev, m in zip(self.stages, self.stages[1:]):
            if np.any(d < SINGULAR_EPS):
                break
            x = prev._eval(x, dm)
            dm = m._singularity_distance(x)
            d = np.minimum(d, dm)
        return d

    def describe(self):
        return "compose:" + ";".join(m.describe() for m in self.stages)


def parse_vector(text: str) -> np.ndarray:
    try:
        return np.array([float(v) for v in text.split(",")], dtype=float)
    except ValueError as exc:
        raise ValueError(f"bad vector {text!r}") from exc


def parse_map(spec: str) -> Mapping:
    """Parse the map mini-language.

    Forms: 'identity', 'radial:a=<float>', 'twist',
    'linear:<n^2 comma-separated floats, row-major>',
    'compose:<spec>;<spec>;...'.  ';' always splits the outer stages, so a
    stage that is itself 'compose:<spec>' holds that one spec and gives the
    same map as the spec alone.
    """
    spec = spec.strip()
    if spec == "identity":
        return Identity()
    if spec == "twist":
        return RotationTwist()
    if spec.startswith("radial:"):
        body = spec[len("radial:"):]
        if not body.startswith("a="):
            raise ValueError(f"radial map needs a=<float>, got {spec!r}")
        return RadialStretch(a=float(body[2:]))
    if spec.startswith("linear:"):
        vals = parse_vector(spec[len("linear:"):])
        n = int(round(len(vals) ** 0.5))
        if n * n != len(vals):
            raise ValueError(f"linear map needs n^2 entries, got {len(vals)}")
        return Linear(matrix=vals.reshape(n, n))
    if spec.startswith("compose:"):
        parts = [p for p in spec[len("compose:"):].split(";") if p.strip()]
        return Composition(stages=tuple(parse_map(p) for p in parts))
    raise ValueError(f"unknown map spec {spec!r}")
