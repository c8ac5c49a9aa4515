"""Discrete modulus of connecting path families on weighted grid graphs.

The continuum modulus of the family of curves joining the two boundary
components is approximated by the convex program

    minimize   sum_e  w_e * rho_e^p
    subject to sum_{e in path} len_e * rho_e >= 1   for every source-sink path,

where ``len_e`` is the Euclidean edge length (line-integral weight) and
``w_e`` is the measure weight of the flow tube the edge represents, so the
objective is a Riemann sum of the p-energy.  On a finite graph this modulus
equals the p-capacity (Duffin, "The extremal length of a network", 1962):
the minimum of sum_e sigma_e |dphi_e|^p with sigma_e = w_e / len_e^p over
potentials phi = 0 on the source and 1 on the sink, and the extremal
density is rho_e = |dphi_e| / len_e.  ``modulus_connect`` finds that
potential with one Jacobi-preconditioned conjugate-gradient solve for p = 2
and with Newton's method, one such solve per step, for p > 2.

Grids are structured log-polar (log-spherical for n = 3) products aligned
with the shapes, which keeps level sets of the extremal potentials along
grid lines and the discretization error small.  Image grids push nodes through a mapping,
recompute edge lengths as image chords and tube weights as image cell areas;
for full rings the grid is pre-rotated layer by layer to follow the map's
angular drift, so that the image grid stays close to orthogonal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import cg

from .constants import sphere_area
from .geometry import Annulus, ApollonianSemiring, HalfSemiring, Shape
from .maps import Identity, Mapping


class ConvergenceError(RuntimeError):
    """A CG solve or the Newton iteration of the potential solver did not converge."""


@dataclass(eq=False)
class GridGraph:
    """Weighted discretization of a shape with two marked boundary node sets."""

    nodes: np.ndarray          # (N, n)
    edges: np.ndarray          # (E, 2) int
    lengths: np.ndarray        # (E,) Euclidean lengths
    weights: np.ndarray        # (E,) energy measure weights
    source: np.ndarray         # node ids on the inner boundary
    sink: np.ndarray           # node ids on the outer boundary
    p: float                   # modulus exponent (ambient dimension for conformal)
    dim: int
    kind: str                  # "ring" or "semiring" (modulus normalization)
    resolution: tuple

    def __post_init__(self):
        if len(self.source) == 0 or len(self.sink) == 0:
            raise ValueError("source and sink sets must be nonempty")
        if set(self.source.tolist()) & set(self.sink.tolist()):
            raise ValueError("source and sink sets must be disjoint")
        if np.any(self.lengths <= 0):
            raise ValueError("every edge length must be positive")
        if np.any(self.weights <= 0):
            raise ValueError("every edge weight must be positive")


@dataclass(frozen=True)
class ModulusEstimate:
    m_gamma: float             # estimated modulus of the connecting family
    mo: float                  # derived ring/semiring modulus
    iterations: int            # linear solves: 1 for p = 2, 1 + Newton steps for p > 2
    residual: float            # net flux at free nodes relative to that at source and sink
    resolution: tuple
    n_paths: int = 0           # no paths are enumerated; kept for perfbench, which reads it
    rho: np.ndarray = field(repr=False, default=None)


def mo_from_gamma(m_gamma: float, kind: str, n: int) -> float:
    """Ring/semiring modulus from the connecting-family modulus.

    Rings use (omega_{n-1} / M)^(1/(n-1)); semirings carry the reflection
    factor 2 next to M.
    """
    if m_gamma <= 0:
        raise ValueError(f"connecting-family modulus must be positive, got {m_gamma}")
    if kind == "ring":
        return (sphere_area(n) / m_gamma) ** (1.0 / (n - 1.0))
    if kind == "semiring":
        return (sphere_area(n) / (2.0 * m_gamma)) ** (1.0 / (n - 1.0))
    raise ValueError(f"unknown shape kind {kind!r}")


# ---------------------------------------------------------------------------
# grid construction
# ---------------------------------------------------------------------------

def _polar_template(K: int, M: int, r0: float, r1: float, wrap: bool, span: float,
                    offsets: np.ndarray | None):
    """Log-polar product grid in (r, theta) parameters.

    Returns node parameters (K*M, 2), edge list, per-edge flow-tube corner
    parameters (E, 4, 2), and the source/sink node ids.  ``offsets`` rotates
    every layer k by offsets[k].
    """
    radii = np.exp(np.linspace(math.log(r0), math.log(r1), K))
    if wrap:
        theta = np.arange(M) * (span / M)
        dth = span / M
    else:
        theta = np.linspace(0.0, span, M)
        dth = span / (M - 1)
    off = np.zeros(K) if offsets is None else np.asarray(offsets, float)

    node_r = np.repeat(radii, M)
    node_t = np.tile(theta, K) + np.repeat(off, M)
    params = np.stack([node_r, node_t], axis=1)

    def nid(k, m):
        return k * M + (m % M if wrap else m)

    r_half = np.sqrt(radii[:-1] * radii[1:])
    r_lo = np.concatenate([[radii[0]], r_half])
    r_hi = np.concatenate([r_half, [radii[-1]]])

    edges = []
    corners = []
    for k in range(K - 1):           # radial edges
        for m in range(M):
            edges.append((nid(k, m), nid(k + 1, m)))
            t = theta[m]
            if wrap:
                tm, tp = t - dth / 2, t + dth / 2
            else:
                tm, tp = max(0.0, t - dth / 2), min(span, t + dth / 2)
            corners.append(((radii[k], tm + off[k]), (radii[k], tp + off[k]),
                            (radii[k + 1], tp + off[k + 1]), (radii[k + 1], tm + off[k + 1])))
    m_stop = M if wrap else M - 1
    for k in range(K):               # angular edges
        for m in range(m_stop):
            edges.append((nid(k, m), nid(k, m + 1)))
            t0, t1 = theta[m] + off[k], theta[m] + dth + off[k]
            corners.append(((r_lo[k], t0), (r_lo[k], t1), (r_hi[k], t1), (r_hi[k], t0)))

    src = np.array([nid(0, m) for m in range(M)])
    snk = np.array([nid(K - 1, m) for m in range(M)])
    return params, np.array(edges), np.array(corners), src, snk


def _shoelace(quads: np.ndarray) -> np.ndarray:
    x, y = quads[..., 0], quads[..., 1]
    return 0.5 * np.abs(np.sum(x * np.roll(y, -1, axis=-1) - np.roll(x, -1, axis=-1) * y, axis=-1))


def _embed_2d(params: np.ndarray) -> np.ndarray:
    r, t = params[..., 0], params[..., 1]
    return np.stack([r * np.cos(t), r * np.sin(t)], axis=-1)


def _apollonian_embed(pole: np.ndarray):
    """Conformal chart of the Apollonian semiring in the plane.

    The Moebius map z -> pole * (1 + w)/(1 - w) carries the half-annulus
    {r0 <= |w| <= r1, Re w <= 0} onto the region of the unit disk between two
    Apollonian circles about +/- pole; grid orthogonality is preserved.
    """
    xi = complex(pole[0], pole[1])

    def chart(x: np.ndarray) -> np.ndarray:
        w = (x[..., 0] + 1j * x[..., 1]) * 1j     # rotate half-plane Re<=0 onto param span
        z = xi * (1.0 + w) / (1.0 - w)
        return np.stack([z.real, z.imag], axis=-1)

    return chart


def _materialize_2d(params, corners, chart, mapping: Mapping | None):
    pts = chart(_embed_2d(params))
    crn = chart(_embed_2d(corners))
    if mapping is not None:
        pts = mapping(pts)
        crn = mapping(crn.reshape(-1, 2)).reshape(corners.shape[:-1] + (2,))
    return pts, _shoelace(crn)


def _build_2d(shape: Shape, K: int, M: int, mapping: Mapping | None,
              offsets: np.ndarray | None) -> GridGraph:
    if isinstance(shape, Annulus):
        wrap, span = True, 2.0 * math.pi
        center = shape.center

        def chart(x):
            return x + center
    elif isinstance(shape, HalfSemiring):
        wrap, span = False, math.pi
        center = shape.center

        def chart(x):
            return x + center
    elif isinstance(shape, ApollonianSemiring):
        wrap, span = False, math.pi
        chart = _apollonian_embed(shape.pole)
    else:
        raise TypeError(f"unsupported shape {type(shape).__name__}")

    params, edges, corners, src, snk = _polar_template(K, M, shape.r0, shape.r1, wrap, span, offsets)
    pts, weights = _materialize_2d(params, corners, chart, mapping)
    lengths = np.linalg.norm(pts[edges[:, 1]] - pts[edges[:, 0]], axis=1)
    return GridGraph(nodes=pts, edges=edges, lengths=lengths, weights=weights,
                     source=src, sink=snk, p=float(shape.n), dim=shape.n,
                     kind=shape.kind, resolution=(K, M))


def _build_3d(shape: Shape, K: int, J: int) -> GridGraph:
    """Log-spherical product grid; azimuthal count is 2*J.

    Tube weights come from the two-point flux rule: weight = face area times
    center distance, so that weight/length^2 is the conductance of the tube.
    Polar cells are cell-centered, which keeps nodes off the axis.
    """
    if isinstance(shape, Annulus):
        hemi = False
    elif isinstance(shape, HalfSemiring):
        hemi = True
    else:
        raise NotImplementedError("three-dimensional grids support annuli and half semirings only")
    I = 2 * J
    radii = np.exp(np.linspace(math.log(shape.r0), math.log(shape.r1), K))
    phimax = math.pi / 2 if hemi else math.pi
    dphi = phimax / J
    phis = (np.arange(J) + 0.5) * dphi
    dpsi = 2.0 * math.pi / I
    psis = np.arange(I) * dpsi

    def nid(k, j, i):
        return (k * J + j) * I + (i % I)

    rr, pp, ss = np.meshgrid(radii, phis, psis, indexing="ij")
    nodes = np.stack([rr * np.sin(pp) * np.cos(ss),
                      rr * np.sin(pp) * np.sin(ss),
                      rr * np.cos(pp)], axis=-1).reshape(-1, 3) + shape.center

    r_half = np.sqrt(radii[:-1] * radii[1:])
    r_lo = np.concatenate([[radii[0]], r_half])
    r_hi = np.concatenate([r_half, [radii[-1]]])

    edges, lengths, weights = [], [], []
    for k in range(K):
        ring_area = 0.5 * (r_hi[k] ** 2 - r_lo[k] ** 2)
        for j in range(J):
            cell_solid = dpsi * (math.cos(phis[j] - dphi / 2) - math.cos(phis[j] + dphi / 2))
            for i in range(I):
                a = nid(k, j, i)
                if k < K - 1:
                    b = nid(k + 1, j, i)
                    edges.append((a, b))
                    lengths.append(np.linalg.norm(nodes[b] - nodes[a]))
                    weights.append(r_half[k] ** 2 * cell_solid * (radii[k + 1] - radii[k]))
                if j < J - 1:
                    b = nid(k, j + 1, i)
                    edges.append((a, b))
                    lengths.append(np.linalg.norm(nodes[b] - nodes[a]))
                    weights.append(math.sin(phis[j] + dphi / 2) * dpsi * ring_area * radii[k] * dphi)
                b = nid(k, j, i + 1)
                edges.append((a, b))
                lengths.append(np.linalg.norm(nodes[b] - nodes[a]))
                weights.append(dphi * ring_area * radii[k] * math.sin(phis[j]) * dpsi)

    src = np.array([nid(0, j, i) for j in range(J) for i in range(I)])
    snk = np.array([nid(K - 1, j, i) for j in range(J) for i in range(I)])
    return GridGraph(nodes=nodes, edges=np.array(edges), lengths=np.array(lengths),
                     weights=np.array(weights), source=src, sink=snk,
                     p=float(shape.n), dim=shape.n, kind=shape.kind, resolution=(K, J, I))


def build_grid(shape: Shape, radial_cells: int, angular_cells: int) -> GridGraph:
    """Structured grid aligned with the shape.

    Radii are log-uniform in [r0, r1]; angles uniform on the (hemi)circle or
    (hemi)sphere.  The inner boundary layer is the source set, the outer the
    sink.  Apollonian grids are built in the conformal bipolar chart, so their
    level sets follow the Apollonian spheres.
    """
    if radial_cells < 8 or angular_cells < 8:
        raise ValueError("resolution too small: need at least 8 cells each way")
    if shape.n == 2:
        return _build_2d(shape, radial_cells, angular_cells, None, None)
    if shape.n == 3:
        return _build_3d(shape, radial_cells, angular_cells)
    raise NotImplementedError("grids are implemented for n in {2, 3}")


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------

_CG_RTOL = 1e-12       # relative residual of every CG solve
_NEWTON_RTOL = 1e-10   # Newton stops once the net-flux residual falls below this
_NEWTON_CAP = 50       # Newton steps before ConvergenceError
_WEIGHT_FLOOR = 1e-12  # Hessian weights floored at this multiple of their maximum


def _free_nodes(graph: GridGraph, fixed: np.ndarray) -> np.ndarray:
    """Nodes off the source and sink in components that touch either.

    Components touching neither carry no energy (their potential stays 0);
    dropping them keeps the reduced Laplacian nonsingular.
    """
    N = len(graph.nodes)
    adj = sp.coo_matrix((np.ones(len(graph.edges)), (graph.edges[:, 0], graph.edges[:, 1])),
                        shape=(N, N))
    _, label = connected_components(adj, directed=False)
    if not np.intersect1d(label[graph.source], label[graph.sink]).size:
        raise ValueError("graph is disconnected between source and sink")
    return np.flatnonzero(np.isin(label, label[fixed]) & ~fixed)


def modulus_connect(graph: GridGraph) -> ModulusEstimate:
    """Discrete p-modulus of the source-to-sink path family, as a p-capacity.

    With sigma = w / len^p the modulus is the minimum of
    F(phi) = sum_e sigma_e |dphi_e|^p over potentials phi = 0 on the source
    and 1 on the sink, and rho = |dphi| / len is the extremal density.  p = 2
    is one Jacobi-preconditioned CG solve of the weighted Laplacian; p > 2
    runs Newton with backtracking on F from the p = 2 potential, one CG
    solve per step.  rho has rho-length >= 1 on every source-sink path by
    telescoping, so it is admissible without rescaling and m_gamma = F(phi)
    is an upper bound on the graph modulus.  Deterministic.
    """
    p = graph.p
    if p < 2:
        raise ValueError(f"modulus exponent must be at least 2, got {p}")
    E, N = len(graph.edges), len(graph.nodes)
    fixed = np.zeros(N, dtype=bool)
    fixed[graph.source] = fixed[graph.sink] = True
    free = _free_nodes(graph, fixed)
    inc = sp.csr_matrix((np.repeat([-1.0, 1.0], E),
                         (np.tile(np.arange(E), 2), graph.edges.T.ravel())), shape=(E, N))
    inc_free = inc[:, free]
    inc_free_t = inc_free.T.tocsr()
    sigma = graph.weights / graph.lengths ** p

    def solve(c, rhs):
        """Jacobi-preconditioned CG on the free-node Laplacian with edge weights c."""
        if not len(free):
            return rhs
        L = inc_free_t @ sp.diags(c) @ inc_free
        x, info = cg(L, rhs, rtol=_CG_RTOL, atol=0.0, M=sp.diags(1.0 / L.diagonal()))
        if info != 0:
            raise ConvergenceError(f"conjugate gradients did not converge (info={info})")
        return x

    def energy(x):
        return float(sigma @ np.abs(inc @ x) ** p)

    phi = np.zeros(N)
    phi[graph.sink] = 1.0
    phi[free] = solve(sigma, -(inc_free_t @ (sigma * (inc @ phi))))
    solves = 1
    while True:
        dphi = inc @ phi
        scale = np.abs(dphi) ** (p - 2.0)
        flux = p * sigma * scale * dphi
        net = inc.T @ flux
        grad = net[free]
        residual = float(np.linalg.norm(grad) / np.linalg.norm(net[fixed]))
        if p == 2.0 or residual <= _NEWTON_RTOL:
            break
        if solves > _NEWTON_CAP:
            raise ConvergenceError(f"Newton did not converge in {_NEWTON_CAP} steps "
                                   f"(residual {residual:.3g})")
        hess = p * (p - 1.0) * sigma * scale
        step = solve(np.maximum(hess, _WEIGHT_FLOOR * hess.max()), -grad)
        solves += 1
        f0, slope, t = energy(phi), float(grad @ step), 1.0
        while True:
            trial = phi.copy()
            trial[free] += t * step
            # the allowance admits steps whose gain is below rounding in F
            if energy(trial) <= f0 + 1e-4 * t * slope + 1e-14 * f0:
                break
            t *= 0.5
            if t < 1e-10:
                raise ConvergenceError(f"Newton line search failed (residual {residual:.3g})")
        phi = trial

    rho = np.abs(inc @ phi) / graph.lengths
    m_gamma = float(np.sum(graph.weights * rho ** p))
    return ModulusEstimate(
        m_gamma=m_gamma,
        mo=mo_from_gamma(m_gamma, graph.kind, graph.dim),
        iterations=solves,
        residual=residual,
        resolution=graph.resolution,
        rho=rho,
    )


# ---------------------------------------------------------------------------
# image grids
# ---------------------------------------------------------------------------

def _circular_unwrap(angles: np.ndarray, reference: float) -> float:
    """Circular mean of ``angles`` unwrapped near ``reference``."""
    z = np.exp(1j * angles).mean()
    mean = math.atan2(z.imag, z.real)
    k = round((reference - mean) / (2.0 * math.pi))
    return mean + 2.0 * math.pi * k


def _angular_drift(mapping: Mapping, shape: Annulus, K: int, samples: int = 64) -> np.ndarray:
    """Per-layer mean rotation of the image of each circle about the image center.

    Pre-rotating layer k by -drift[k] makes the image grid of a rotation-like
    map stay orthogonal (a sheared image grid systematically underestimates
    the modulus).  For maps without angular drift this is ~0 and harmless.
    """
    radii = np.exp(np.linspace(math.log(shape.r0), math.log(shape.r1), K))
    th = np.arange(samples) * (2.0 * math.pi / samples)
    ring = np.stack([np.cos(th), np.sin(th)], axis=1)
    img_inner = mapping(shape.center + radii[0] * ring)
    center_img = img_inner.mean(axis=0)
    drift = np.zeros(K)
    prev = 0.0
    for k in range(K):
        pts = mapping(shape.center + radii[k] * ring)
        rel = pts - center_img
        dang = np.arctan2(rel[:, 1], rel[:, 0]) - th
        prev = _circular_unwrap(dang, prev)
        drift[k] = prev
    return drift


def build_image_grid(mapping: Mapping, shape: Shape, resolution: tuple[int, int]) -> GridGraph:
    """Grid of the image of ``shape`` under ``mapping``.

    Every grid node is pushed through the map, edge lengths become image chord
    lengths and tube weights image cell areas.  Planar shapes only; the map
    must be nonsingular on the closed shape.
    """
    if shape.n != 2:
        raise NotImplementedError("image grids are implemented for n = 2")
    K, M = resolution
    if K < 8 or M < 8:
        raise ValueError("resolution too small: need at least 8 cells each way")
    offsets = None
    if isinstance(shape, Annulus) and not isinstance(mapping, Identity):
        offsets = -_angular_drift(mapping, shape, K)
    return _build_2d(shape, K, M, mapping, offsets)


def image_modulus(mapping: Mapping, shape: Shape, resolution: tuple[int, int]) -> ModulusEstimate:
    """Modulus of the image of ``shape`` under ``mapping``: the potential solve
    of ``modulus_connect`` on the pushed-forward grid of ``build_image_grid``."""
    return modulus_connect(build_image_grid(mapping, shape, resolution))
