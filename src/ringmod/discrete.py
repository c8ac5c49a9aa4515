"""Discrete modulus of the family of curves joining two boundary node sets.

A grid graph carries one conductance sigma_e per edge, and the discrete
modulus of the connecting family is the p-capacity

    minimize   F(phi) = sum_e  sigma_e |dphi_e|^p
    subject to phi = 0 on the source and phi = 1 on the sink.

Planar grids carry the P1 (piecewise-linear) conductances of a
triangulation, so F is the Dirichlet energy of the piecewise-linear
potential; they are signed on sheared meshes.  The 3D grids carry positive
two-point conductances, so F is a two-point p-energy, and on a finite graph
with positive conductances its minimum is the modulus of the source-sink
path family (Duffin, "The extremal length of a network", 1962).

``modulus_connect`` finds the potential with one preconditioned
conjugate-gradient solve for p = 2 and with Newton's method, one such solve
per step, for p > 2.  Each solve starts from the Galerkin solution over
potentials constant on the levels (Nicolaides, "Deflation of conjugate
gradients", 1987): the radial layers a builder numbers the nodes by, or the
hop layers from the source of a graph without them.  Only a start that fails
CG's own stopping test, its residual from a pass over the edge arrays, has
the Laplacian assembled and CG run; on aligned grids none has.  CG on a
planar builder grid is preconditioned with the Laplacian of the aligned
log-polar grid the builder started from, which fast transforms invert
(``_source_inverse``), so its iteration count does not grow with the mesh;
on 3D grids and on graphs built by hand or edited, with the Laplacian
diagonal (Jacobi).  The Laplacian diagonal is summed at most once per
solve and only where it is read: in the assembled Laplacian, and at p = 2 by
the refusal of a non-positive diagonal on the graphs that Jacobi would
precondition, whose sum the Laplacian then takes.  scipy is imported
by the first solve, so a caller that never solves loads numpy only, and
every CG solve calls the module-level ``cg``.

Grids are structured log-polar (log-spherical for n = 3) products aligned
with the shapes, which keeps level sets of the extremal potentials along
grid lines and the discretization error small.  Builders are array code over
the product index grid: node ids form an array with the radial axis first,
one helper pairs every node with its neighbour along each axis (only the
angular or azimuthal axis wraps), and the first and last radial layers are
the source and sink.  Planar grids carry the cotangent conductances of a
triangulation of their quads (Pinkall and Polthier, "Computing discrete
minimal surfaces and their conjugates", 1993), which are consistent on any
shape-regular mesh.  Every planar grid is the log-polar grid of an annulus or
a half semiring, with its nodes pushed through a map or not: an Apollonian
semiring is the half semiring through its Moebius chart, a private
``Mapping``, and an image grid of it goes through the chart and then the map.
Where a map moves the nodes, each quad is split along its local Delaunay
diagonal, which is always an edge, and the cotangents come from the moved
nodes.  An aligned grid's quads are similar cyclic trapezoids that a centre
only translates: every quad takes the cotangents of the first one, and no
diagonal, whose conductance is 0, so an off-centre grid has the centred
conductances bit for bit.  No map needs special treatment.  The 3D grids are
orthogonal, with two-point tube conductances from closed-form chords that
ignore the centre.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .geometry import Annulus, ApollonianSemiring, HalfSemiring, Shape, span_area
from .maps import Composition, Mapping


class ConvergenceError(RuntimeError):
    """A CG solve or the Newton iteration of the potential solver did not converge."""


@dataclass(eq=False)
class GridGraph:
    """Discretization of a shape: edge conductances and two marked boundary node sets.

    The energy of a potential phi is sum_e conductance_e |dphi_e|^p.
    Conductances must be finite; where p != 2 they must also be positive, as
    Newton needs a convex energy.  At p = 2 the energy is quadratic and signed
    conductances, such as the P1 cotangent weights of a sheared planar mesh,
    are allowed.
    """

    nodes: np.ndarray          # (N, n)
    edges: np.ndarray          # (E, 2) int node ids
    conductance: np.ndarray    # (E,) sigma_e of the energy sum_e sigma_e |dphi_e|^p
    source: np.ndarray         # node ids on the inner boundary
    sink: np.ndarray           # node ids on the outer boundary
    p: float                   # modulus exponent (ambient dimension for conformal)
    kind: str                  # "ring" or "semiring" (modulus normalization)
    resolution: tuple
    # radial layer of each node, set by the builders; None on a graph built by
    # hand or edited with dataclasses.replace, whose hop layers the solver finds
    layer: np.ndarray = field(init=False, default=None, repr=False)
    # angular over radial P1 conductance of the aligned log-polar grid a planar
    # builder starts from, before any map; None on 3D grids and
    # on graphs built by hand or edited, whose CG the solver Jacobi-preconditions
    ratio: float = field(init=False, default=None, repr=False)

    def __post_init__(self):
        if len(self.source) == 0 or len(self.sink) == 0:
            raise ValueError("source and sink sets must be nonempty")
        if not np.issubdtype(self.edges.dtype, np.integer) or self.edges.shape[1:] != (2,):
            raise ValueError(f"edges must be an integer array of shape (E, 2), got "
                             f"{self.edges.dtype} of shape {self.edges.shape}")
        for name in ("edges", "source", "sink"):      # a negative id would wrap
            ids = getattr(self, name)
            if np.any((ids < 0) | (ids >= len(self.nodes))):
                raise ValueError(f"{name} holds a node id outside [0, {len(self.nodes)})")
        if set(self.source.tolist()) & set(self.sink.tolist()):
            raise ValueError("source and sink sets must be disjoint")
        if self.conductance.shape != (len(self.edges),):
            raise ValueError(f"conductance must have shape ({len(self.edges)},), one value per "
                             f"edge, got {self.conductance.shape}")
        if not np.all(np.isfinite(self.conductance)):
            raise ValueError("every edge conductance must be finite")
        if self.p != 2.0 and not np.all(self.conductance > 0):
            raise ValueError("every edge conductance must be positive unless p = 2, "
                             "where the energy is quadratic")


@dataclass(frozen=True)
class ModulusEstimate:
    m_gamma: float             # estimated modulus of the connecting family: the energy of potential
    mo: float                  # derived ring/semiring modulus
    iterations: int            # linear solves: 1 for p = 2, 1 + Newton steps for p > 2
    cg_iterations: int         # CG iterations summed over those solves
    residual: float            # net flux at free nodes relative to that at source and sink
    resolution: tuple
    n_paths: int = 0           # no paths are enumerated; kept for perfbench, which reads it
    potential: np.ndarray = field(repr=False, default=None)   # phi per node


def mo_from_gamma(m_gamma: float, kind: str, n: int) -> float:
    """Ring/semiring modulus from the connecting-family modulus.

    mo = (span_area / M)^(1/(n-1)), the inverse of ``gamma_family_modulus``.
    """
    if m_gamma <= 0:
        raise ValueError(f"connecting-family modulus must be positive, got {m_gamma}")
    return (span_area(kind, n) / m_gamma) ** (1.0 / (n - 1.0))


# ---------------------------------------------------------------------------
# grid construction
# ---------------------------------------------------------------------------

def _grid_edges(ids: np.ndarray, wrap_axis: int | None) -> np.ndarray:
    """(E, 2) edges joining index neighbours of the node-id array ``ids``,
    axis by axis and in C order of the tail within an axis.  Only
    ``wrap_axis`` (None for none) wraps around.  Each axis's head and tail
    ids are sliced first and written once, into their rows of the result."""
    pairs = []
    for axis in range(ids.ndim):
        if axis == wrap_axis:
            pairs.append((ids, np.roll(ids, -1, axis)))
        else:
            cut = (slice(None),) * axis
            pairs.append((ids[cut + (slice(-1),)], ids[cut + (slice(1, None),)]))
    edges = np.empty((sum(head.size for head, _ in pairs), 2), dtype=ids.dtype)
    lo = 0
    for head, tail in pairs:
        block = edges[lo:lo + head.size].reshape(head.shape + (2,))
        block[..., 0], block[..., 1] = head, tail
        lo += head.size
    return edges


def _grid_graph(shape: Shape, ids: np.ndarray, nodes: np.ndarray, edges: np.ndarray,
                conductance: np.ndarray) -> GridGraph:
    """Graph of a product grid whose first axis is radial: the first radial
    layer is the source and the last the sink, and every node keeps its layer."""
    graph = GridGraph(nodes=nodes, edges=edges, conductance=conductance,
                      source=ids[0].ravel(), sink=ids[-1].ravel(), p=float(shape.n),
                      kind=shape.kind, resolution=ids.shape)
    graph.layer = np.arange(ids.size) // ids[0].size
    return graph


def _cot(u: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Cotangent of the angle at v of each triangle (u, v, w) of complex points:
    conj(u - v) (w - v) has the dot product as real and the cross product as
    imaginary part."""
    z = np.conj(u - v) * (w - v)
    return z.real / np.abs(z.imag)


@dataclass(frozen=True, eq=False)
class _ApollonianChart(Mapping):
    """Conformal chart of the Apollonian semiring about +/- ``pole`` in the plane.

    The Moebius map z -> pole (1 + w)/(1 - w), w = i z, carries the half
    annulus {r0 <= |z| <= r1, Im z >= 0} of ``HalfSemiring(2, r0, r1)`` onto
    the region of the unit disk between two Apollonian circles about +/- pole,
    and keeps the grid orthogonal.  Points are read and written as complex
    views of their coordinate pairs.
    """

    pole: np.ndarray

    def _eval(self, x):
        w = np.ascontiguousarray(x).view(complex)[..., 0] * 1j   # Im z >= 0 onto Re w <= 0
        return (complex(self.pole[0], self.pole[1]) * (1.0 + w) / (1.0 - w))[..., None].view(float)

    def describe(self):
        return f"apollonian-chart:xi={float(self.pole[0])!r},{float(self.pole[1])!r}"


def _build_2d(shape: Shape, K: int, M: int, mapping: Mapping | None) -> GridGraph:
    """Log-polar product grid of an annulus or half semiring, through
    ``mapping`` if one is given, with the P1 conductances of its triangulation.

    Each quad a, b, c, d = (k, m), (k+1, m), (k+1, m+1), (k, m+1) is split
    into two triangles along a diagonal, and every triangle adds half the
    cotangent of each of its angles to the conductance of the opposite edge
    (Pinkall and Polthier 1993), so the edge energy sum_e sigma_e dphi_e^2 is
    the Dirichlet energy of the piecewise-linear potential.

    The quads of the log-polar source grid are similar isosceles trapezoids,
    and a centre only translates them, which changes no cotangent.  So an
    aligned grid (no map) takes every quad's cotangents from the first source
    quad, split along a-c, whose two radial sides take the mean of their
    cotangents, equal in exact arithmetic; its quads are cyclic, so the
    diagonal's conductance, half the cotangent sum of the corners facing it,
    is 0 and it is not an edge.  Where a map (``Identity`` and the Apollonian
    chart too) moves the nodes, every quad takes its own cotangents, is split
    along the diagonal of larger cotangent weight (the local Delaunay choice)
    and keeps that diagonal, so the energy is exactly the P1 energy of the
    triangulation.  Both assemble the same way: the sides on the semiring's
    end columns and on the source and sink layers border one triangle.  Edges
    are the radial ones, the angular ones, then the diagonals, each block in
    (k, m) order.  ``ratio`` is the first source quad's angular over radial
    conductance.
    """
    wrap = shape.kind == "ring"
    radii = np.exp(np.linspace(math.log(shape.r0), math.log(shape.r1), K))
    theta = np.arange(M) * (2.0 * math.pi / M) if wrap else np.linspace(0.0, math.pi, M)
    source = radii[:, None] * np.exp(1j * theta)
    pts = np.stack([source.real, source.imag], axis=-1).reshape(-1, 2) + shape.center

    def sides(a, b, c, d, ac):
        # each side ab, bc, cd, da takes the cotangent at the corner opposite
        # it in its triangle, the first of the pair for an a-c split
        return [_cot(u, np.where(ac, o_ac, o_bd), w) for u, w, o_ac, o_bd in
                ((a, b, c, d), (b, c, a, d), (c, d, a, b), (d, a, c, b))]

    ids = np.arange(K * M).reshape(K, M)
    Q = M if wrap else M - 1                      # quads per radial step
    # the first source quad, split along a-c: its cotangents give the ratio
    # and, on an aligned grid, the conductances of every quad; the mean of
    # its radial sides ab and cd keeps their sum, so a semiring's end columns
    # carry exactly half the interior radial conductance
    cots = sides(source[0, 0], source[1, 0], source[1, 1], source[0, 1], True)
    cots[0] = cots[2] = 0.5 * (cots[0] + cots[2])
    ratio = float((cots[3] + cots[1]) / (cots[0] + cots[2]))      # (da + bc) / (ab + cd)
    edges, s_diag = [_grid_edges(ids, 1 if wrap else None)], []
    if mapping is not None:
        pts = mapping(pts)
        if not np.all(np.isfinite(pts)):
            raise ValueError(f"{mapping.describe()} maps grid nodes to non-finite points")
        z = (pts[:, 0] + 1j * pts[:, 1]).reshape(K, M)
        nxt, zn = np.roll(ids, -1, axis=1)[:, :Q], np.roll(z, -1, axis=1)[:, :Q]
        a, b, c, d = z[:-1, :Q], z[1:, :Q], zn[1:], zn[:-1]
        angle = [_cot(d, a, b), _cot(a, b, c), _cot(b, c, d), _cot(c, d, a)]
        ac = angle[1] + angle[3] >= angle[0] + angle[2]      # split along a-c, else b-d
        cots = sides(a, b, c, d, ac)
        # the kept diagonal's sum is the larger, and a NaN one reaches the graph, which refuses it
        s_diag.append(np.maximum(angle[1] + angle[3], angle[0] + angle[2]).ravel())
        edges.append(np.where(ac[..., None], np.stack([ids[:-1, :Q], nxt[1:]], axis=-1),
                              np.stack([ids[1:, :Q], nxt[:-1]], axis=-1)).reshape(-1, 2))
    s_ab, s_bc, s_cd, s_da = (np.broadcast_to(s, (K - 1, Q)) for s in cots)
    pad = ((0, 0), (0, M - Q))        # a semiring layer has one radial edge more than quads
    sigma = 0.5 * np.concatenate([
        (np.pad(s_ab, pad) + np.roll(np.pad(s_cd, pad), 1, axis=1)).ravel(),
        (np.pad(s_da, ((0, 1), (0, 0))) + np.pad(s_bc, ((1, 0), (0, 0)))).ravel(), *s_diag])
    graph = _grid_graph(shape, ids, pts, np.concatenate(edges), sigma)
    graph.ratio = ratio
    return graph


def _build_planar(shape: Shape, K: int, M: int, mapping: Mapping | None) -> GridGraph:
    """``_build_2d`` of a planar shape, refusing any other kind with TypeError.
    An Apollonian semiring is the half semiring ``HalfSemiring(2, r0, r1)``
    pushed through its chart and then through ``mapping``."""
    if K < 8 or M < 8:
        raise ValueError("resolution too small: need at least 8 cells each way")
    if isinstance(shape, ApollonianSemiring):
        chart, shape = _ApollonianChart(shape.pole), HalfSemiring(2, shape.r0, shape.r1)
        mapping = chart if mapping is None else Composition((chart, mapping))
    elif not isinstance(shape, (Annulus, HalfSemiring)):
        raise TypeError(f"unsupported shape {type(shape).__name__}")
    return _build_2d(shape, K, M, mapping)


def _build_3d(shape: Shape, K: int, J: int) -> GridGraph:
    """Log-spherical product grid; azimuthal count is 2*J.

    Node ids run over (radius, polar, azimuth) in C order and edges come axis
    by axis: radial, polar, then the wrapping azimuthal edges.  A node is its
    radius times a unit direction from the (polar, azimuth) table, plus the
    shape's centre, which moves the nodes only.  Conductances come from the
    two-point flux rule for the p = 3 energy: an edge's tube has the volume
    weight = (area of its dual face) * (arc between its nodes along the grid
    line), and sigma = weight / chord^3, so that sigma |dphi|^3 = weight
    (|dphi| / chord)^3.  The chords are closed forms: r_{k+1} - r_k radially,
    2 r sin(dphi/2) along a meridian and 2 r sin(phi) sin(dpsi/2) along a
    parallel.  Weights and chords are (radius, polar) tables repeated along
    the azimuth.  Polar cells are cell-centered, keeping nodes off the axis.
    """
    if not isinstance(shape, (Annulus, HalfSemiring)):
        raise NotImplementedError("three-dimensional grids support annuli and half semirings only")
    if K < 8 or J < 8:
        raise ValueError("resolution too small: need at least 8 cells each way")
    I = 2 * J
    radii = np.exp(np.linspace(math.log(shape.r0), math.log(shape.r1), K))
    dphi = (math.pi / 2 if isinstance(shape, HalfSemiring) else math.pi) / J
    phis = (np.arange(J) + 0.5) * dphi
    dpsi = 2.0 * math.pi / I
    psis = np.arange(I) * dpsi

    ids = np.arange(K * J * I).reshape(K, J, I)
    r = radii[:, None, None]
    phi = phis[:, None]
    directions = np.stack([np.sin(phi) * np.cos(psis), np.sin(phi) * np.sin(psis),
                           np.broadcast_to(np.cos(phi), (J, I))], axis=-1)
    nodes = (r[..., None] * directions).reshape(-1, 3) + shape.center

    r_half = np.sqrt(radii[:-1] * radii[1:])
    cell_ends = np.concatenate([[radii[0]], r_half, [radii[-1]]])
    ring_area = 0.5 * np.diff(cell_ends ** 2)[:, None, None]
    cell_solid = dpsi * (np.cos(phi - dphi / 2) - np.cos(phi + dphi / 2))
    # radial, polar and azimuthal tube weights and chords, constant along the azimuth
    tube = [r_half[:, None, None] ** 2 * cell_solid * np.diff(r, axis=0),
            np.sin(phi[:-1] + dphi / 2) * dpsi * ring_area * r * dphi,
            dphi * ring_area * r * np.sin(phi) * dpsi]
    chord = [np.diff(r, axis=0), 2.0 * r * math.sin(dphi / 2),
             2.0 * r * np.sin(phi) * math.sin(dpsi / 2)]
    sigma = np.concatenate([np.repeat(w / c ** 3, I) for w, c in zip(tube, chord)])
    return _grid_graph(shape, ids, nodes, _grid_edges(ids, 2), sigma)


def build_grid(shape: Shape, radial_cells: int, angular_cells: int) -> GridGraph:
    """Structured grid aligned with the shape.

    Radii are log-uniform in [r0, r1]; angles uniform on the (hemi)circle or
    (hemi)sphere.  The inner boundary layer is the source set, the outer the
    sink.  A planar Apollonian grid is the grid of ``HalfSemiring(2, r0, r1)``
    pushed through the conformal bipolar chart, so its level sets follow the
    Apollonian circles.
    """
    if shape.n == 2:
        return _build_planar(shape, radial_cells, angular_cells, None)
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


def cg(A, b, **kwargs):
    """``scipy.sparse.linalg.cg``, imported on the first call.  Every CG solve
    of ``modulus_connect`` looks up this module attribute, so replacing it
    reaches the solver."""
    from scipy.sparse.linalg import cg as scipy_cg
    return scipy_cg(A, b, **kwargs)


def _level_system(graph: GridGraph):
    """Free node ids, their levels, the first right-hand side and the level operators.

    A node's layer is the radial layer its builder numbered it by, or on a
    graph without layers (built by hand, or edited by ``dataclasses.replace``)
    its hop distance from the source over the edges with no end on the sink,
    whatever their weight.  The free nodes are the nodes off the source and
    sink with a layer.  Every node carries one level: layer - 1, in 0 .. D - 1,
    on a free node, -1 on the source and D on the sink and on the nodes
    without a layer, which only the sink reaches.  An edge is classed by the
    lower and higher level of its ends: one inside a level (a self-loop too)
    adds nothing to P^T L P (P the 0/1 level indicator), one between adjacent
    free levels adds to its off-diagonal bands, one with a single free end to
    its main band, and one from the sink to a free node to the right-hand
    side.  Levels of neighbouring free nodes differ by at most one, so
    P^T L P is tridiagonal.  Returns the free nodes, their levels, the first
    right-hand side (each free node's summed sink-edge conductance), the
    contiguous edge ends (e0, e1) and three functions of the conductances c:
    ``bands(c)``, the (3, D) bands of P^T L P; ``diagonal(c)``, the free
    nodes' Laplacian diagonal, without self-loops; and ``laplacian(c, diag)``,
    the free Laplacian L as CSR with the diagonal ``diag`` that its caller
    summed, the only code that numbers the free nodes.  The self-loop and
    inner-edge masks are built inside the last two, which only CG and the
    Jacobi refusal call.
    """
    import scipy.sparse as sp

    N = len(graph.nodes)
    layer = graph.layer
    if layer is None:
        from scipy.sparse.csgraph import dijkstra
        edges = graph.edges[~np.isin(graph.edges, graph.sink).any(axis=1)]
        adj = sp.csr_matrix((np.ones(len(edges)), edges.T), shape=(N, N))
        layer = dijkstra(adj, directed=False, indices=graph.source, unweighted=True, min_only=True)
    reached = layer < np.inf
    reached[graph.source] = reached[graph.sink] = False
    free = np.flatnonzero(reached)
    D = int(layer[free].max(initial=0))
    level = np.full(N, D, np.intp)               # D on the sink and the nodes only it reaches
    level[free], level[graph.source] = layer[free] - 1, -1
    e0, e1 = graph.edges.T.copy()     # contiguous: bincount would copy a strided column
    lo, hi = np.minimum(level[e0], level[e1]), np.maximum(level[e0], level[e1])
    to_sink = np.flatnonzero((hi == D) & (lo < D))
    if not len(to_sink):                         # no sink edge reaches a free node or the source
        raise ValueError("graph is disconnected between source and sink")
    cross = np.flatnonzero((lo >= 0) & (hi < D) & (lo < hi))     # from a free level to the next
    # with lo < hi, one end is free where exactly one of lo >= 0 and hi < D holds
    bound = np.flatnonzero(((lo >= 0) != (hi < D)) & (lo < hi))
    near = np.where(hi[bound] < D, hi[bound], lo[bound])          # the free end's level

    def bands(c):
        up = np.bincount(lo[cross], c[cross], D)  # its last entry, from level D - 1 to D, is 0
        # the main band from the same sums as its neighbours: P^T L P keeps the
        # zero row sums of L between levels in rounding
        main = up + np.roll(up, 1) + np.bincount(near, c[bound], D)
        return np.array([-np.roll(up, 1), main, -up])

    def diagonal(c):
        kept = c * (e0 != e1)                    # a self-loop adds nothing
        return (np.bincount(e0, kept, N) + np.bincount(e1, kept, N))[free]

    def laplacian(c, diag):
        inner = (lo >= 0) & (hi < D) & (e0 != e1)                 # both ends free
        i, j = (np.cumsum(reached) - 1)[graph.edges[inner].T]    # free nodes as 0 .. F - 1
        F, v = len(free), -c[inner]
        return sp.csr_matrix((np.r_[v, v, diag], (np.r_[i, j, :F], np.r_[j, i, :F])), shape=(F, F))

    # a sink edge adds its conductance to both ends, and only the free one is kept
    rhs = np.bincount(graph.edges[to_sink].ravel(), np.repeat(graph.conductance[to_sink], 2), N)
    return free, level[free], rhs[free], (e0, e1), bands, diagonal, laplacian


def _source_inverse(graph: GridGraph):
    """r -> S^-1 r on the free nodes of a planar builder grid, by fast transforms.

    The free nodes of a (K, M) grid are its (K - 2, M) inner layers.  On them
    the Laplacian of the aligned log-polar source grid, over its radial
    conductance, is S = T (x) H + ratio I (x) L_theta, ratio = ``graph.ratio``:
    T is the radial path Laplacian held at both ends, L_theta the angular
    cycle (ring) or path (semiring) Laplacian, and H = I on a ring and
    diag(1/2, 1, ..., 1, 1/2) on a semiring, whose end columns carry exactly
    half the radial conductance.  A DST-I diagonalises T, with eigenvalues
    2 - 2 cos(pi i / (K - 1)), i = 1 .. K - 2.  An rfft diagonalises the cycle,
    with eigenvalues 2 - 2 cos(2 pi j / M), and a DCT-I diagonalises H^-1 times
    the path, with eigenvalues 2 - 2 cos(pi j / (M - 1)).  So S^-1 r is a
    division by mu_i + ratio lambda_j between the transforms, of r / H on a
    semiring.  On an image grid it preconditions the image Laplacian L
    (Concus and Golub, "Use of fast direct methods for the efficient
    numerical solution of nonseparable elliptic equations", 1973).  A linear
    map with singular values s1 >= s2 changes the Dirichlet energy of every
    triangle by at most K = s1/s2 each way, and both splits of a cyclic
    source quad give the same energy, so S^-1 L has condition number at
    most K^2 on any mesh; smooth maps, the Apollonian chart among them, come
    close to that.
    """
    from scipy import fft

    K, M = graph.resolution
    mu = 2.0 - 2.0 * np.cos(np.arange(1, K - 1) * (math.pi / (K - 1)))
    if graph.kind == "ring":
        h = 1.0
        lam = 2.0 - 2.0 * np.cos(np.arange(M // 2 + 1) * (2.0 * math.pi / M))
        forward, backward = partial(fft.rfft, axis=1), partial(fft.irfft, n=M, axis=1)
    else:
        h = np.r_[0.5, np.ones(M - 2), 0.5]
        lam = 2.0 - 2.0 * np.cos(np.arange(M) * (math.pi / (M - 1)))
        forward, backward = partial(fft.dct, type=1, axis=1), partial(fft.idct, type=1, axis=1)
    scale = 1.0 / (mu[:, None] + graph.ratio * lam)

    def apply(r):
        y = forward(fft.dst(r.reshape(K - 2, M) / h, type=1, axis=0)) * scale
        return fft.idst(backward(y), type=1, axis=0).ravel()

    return apply


def modulus_connect(graph: GridGraph) -> ModulusEstimate:
    """Discrete p-modulus of the connecting family: the least edge energy.

    Minimizes F(phi) = sum_e sigma_e |dphi_e|^p, sigma = ``graph.conductance``,
    over potentials phi = 0 on the source and 1 on the sink, and returns
    m_gamma = F(phi) with the minimizing ``potential``.  The unknowns are the
    free nodes of ``_level_system``, which also returns the first right-hand
    side; the others take the sink's potential.  Newton (p > 2) backtracks on F
    from the p = 2 potential, and the edge differences of each potential give
    its flux, Hessian weights and energy.  Each solve, on the weighted
    Laplacian L, starts from x0 = P (P^T L P)^-1 P^T rhs, the level-constant
    vector of least energy error, and runs CG only if x0 fails CG's stopping
    test.  The first solve tests x0 on the potential itself, so at p = 2 its
    net flux is also the reported residual's.  Only a failed start assembles
    L, once per solve.  CG is preconditioned with the source grid's Laplacian
    where the graph carries its ``ratio`` (planar builder grids, see
    ``_source_inverse``) and with the diagonal of L (Jacobi) elsewhere.  With
    positive conductances m_gamma is the graph's path-family modulus up to
    the solver tolerance.  Where Jacobi would run at p = 2, signed
    conductances need a positive Laplacian diagonal at every free node,
    which the solve checks before its level start; otherwise ValueError.
    Deterministic.
    """
    import scipy.sparse as sp
    from scipy.linalg import solve_banded

    p = graph.p
    if p < 2:
        raise ValueError(f"modulus exponent must be at least 2, got {p}")
    free, level, rhs, (e0, e1), bands, diagonal, laplacian = _level_system(graph)
    N = len(graph.nodes)
    cg_steps = []             # one entry per CG iteration

    def net(flux):
        # net flux at every node, L_c x for flux = c * (x[e1] - x[e0])
        return np.bincount(e1, flux, N) - np.bincount(e0, flux, N)

    def solve(c, rhs, phi=None):
        # the free values y of L_c y = rhs and, for a level start that passes
        # CG's stopping test, the net flux of the start: of the potential phi
        # with y filled in, whose boundary values give rhs, or of y alone
        if not len(free):
            return rhs, None
        # at p != 2 conductances are positive and Newton floors its weights, so
        # only p = 2 can have a free node with a diagonal of 0 or less
        diag = diagonal(c) if p == 2.0 and graph.ratio is None else None
        if diag is not None and np.any(diag <= 0):
            raise ValueError("a free node has a non-positive Laplacian diagonal, "
                             "which Jacobi cannot precondition")
        x = np.zeros(N) if phi is None else phi.copy()
        tri = bands(c)
        x[free] = solve_banded((1, 1), tri, np.bincount(level, rhs, tri.shape[1]))[level]
        # CG's own stopping test at the level start, L assembled only if it
        # fails: at the free nodes the net flux of phi is L y - rhs, of y L y
        flux = net(c * (x[e1] - x[e0]))
        if np.linalg.norm((0.0 if phi is not None else rhs) - flux[free]) < \
                _CG_RTOL * np.linalg.norm(rhs):
            return x[free], flux
        diag = diagonal(c) if diag is None else diag
        L = laplacian(c, diag)
        if graph.ratio is None:
            precondition = sp.diags(1.0 / diag)
        else:
            from scipy.sparse.linalg import LinearOperator
            precondition = LinearOperator((len(free),) * 2, matvec=_source_inverse(graph),
                                          dtype=float)
        x, info = cg(L, rhs, x0=x[free], rtol=_CG_RTOL, atol=0.0,
                     M=precondition, callback=lambda _: cg_steps.append(1))
        if info != 0:
            raise ConvergenceError(f"conjugate gradients did not converge (info={info})")
        return x, None

    def differences(x):
        # pairwise summation of F: a dot product drifts by 6e-15 relative at 256x1024
        dphi = x[e1] - x[e0]
        w = graph.conductance if p == 2.0 else graph.conductance * np.abs(dphi) ** (p - 2.0)
        return dphi, w, float(np.sum(w * (dphi * dphi)))

    phi = np.ones(len(graph.nodes))   # unreached nodes take the sink's potential
    phi[graph.source] = 0.0
    phi[free], flux = solve(graph.conductance, rhs, phi)
    dphi, w, f = differences(phi)
    solves = 1
    while True:
        # at p = 2, w = sigma, so an accepted level start has the flux already
        net_flux = p * flux if p == 2.0 and flux is not None else net(p * w * dphi)
        grad, ends = net_flux[free], net_flux[np.r_[graph.source, graph.sink]]
        residual = float(np.linalg.norm(grad) / np.linalg.norm(ends))
        if p == 2.0 or residual <= _NEWTON_RTOL:
            break
        if solves > _NEWTON_CAP:
            raise ConvergenceError(f"Newton did not converge in {_NEWTON_CAP} steps "
                                   f"(residual {residual:.3g})")
        hess = p * (p - 1.0) * w
        step = solve(np.maximum(hess, _WEIGHT_FLOOR * hess.max()), -grad)[0]
        solves += 1
        f0, slope, t = f, float(grad @ step), 1.0
        while True:
            trial = phi.copy()
            trial[free] += t * step
            dphi, w, f = differences(trial)
            # the allowance admits steps whose gain is below rounding in F
            if f <= f0 + 1e-4 * t * slope + 1e-14 * f0:
                break
            t *= 0.5
            if t < 1e-10:
                raise ConvergenceError(f"Newton line search failed (residual {residual:.3g})")
        phi = trial

    return ModulusEstimate(m_gamma=f, mo=mo_from_gamma(f, graph.kind, graph.nodes.shape[1]),
                           iterations=solves, cg_iterations=len(cg_steps), residual=residual,
                           resolution=graph.resolution, potential=phi)


# ---------------------------------------------------------------------------
# image grids
# ---------------------------------------------------------------------------

def build_image_grid(mapping: Mapping, shape: Shape, resolution: tuple[int, int]) -> GridGraph:
    """Grid of the image of ``shape`` under ``mapping``.

    Every grid node is pushed through the map, and the conductances are the
    P1 cotangent conductances of the image triangulation (see ``_build_2d``).
    An Apollonian semiring's nodes go through its chart first, as in
    ``build_grid``.  Planar shapes only; the map must be nonsingular on the
    closed shape.
    """
    if shape.n != 2:
        raise NotImplementedError("image grids are implemented for n = 2")
    return _build_planar(shape, *resolution, mapping)


def image_modulus(mapping: Mapping, shape: Shape, resolution: tuple[int, int]) -> ModulusEstimate:
    """Modulus of the image of ``shape`` under ``mapping``: the potential solve
    of ``modulus_connect`` on the pushed-forward grid of ``build_image_grid``."""
    return modulus_connect(build_image_grid(mapping, shape, resolution))
