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

``modulus_connect`` finds the potential with one Jacobi-preconditioned
conjugate-gradient solve for p = 2 and with Newton's method, one such solve
per step, for p > 2.  One sparse matrix, assembled from the edge arrays,
gives the hop levels from the source (by a BFS) and the Laplacian, and the
sink edges alone the first right-hand side.  Each solve starts from the
Galerkin solution over potentials constant on the levels (the radial shells
of a product grid; Nicolaides, "Deflation of conjugate gradients", 1987), so
on aligned grids CG starts converged.  scipy (the sparse matrix, the BFS, CG
and the banded solve) is imported by the first solve, so a caller that never
solves loads numpy only.  Every CG solve calls the module-level ``cg``.

Grids are structured log-polar (log-spherical for n = 3) products aligned
with the shapes, which keeps level sets of the extremal potentials along
grid lines and the discretization error small.  Builders are array code over
the product index grid: node ids form an array with the radial axis first,
one helper pairs every node with its neighbour along each axis (only the
angular or azimuthal axis wraps), and the first and last radial layers are
the source and sink.  Planar grids are built from node positions alone:
each quad is split along its local Delaunay diagonal and every edge gets the
cotangent conductance of the triangles beside it (Pinkall and Polthier,
"Computing discrete minimal surfaces and their conjugates", 1993), which is
consistent on any shape-regular mesh.  A diagonal is written as an edge only
where its conductance is nonzero beyond rounding; on a cyclic quad (every
quad of an aligned grid, of the Apollonian chart and of a radial image) it
is zero.  An image grid is the same grid with its nodes pushed through the
map, so no map needs special treatment.  The 3D grids are orthogonal and
take two-point tube conductances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import Annulus, ApollonianSemiring, HalfSemiring, Shape, span_area
from .maps import Mapping


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

    def __post_init__(self):
        if len(self.source) == 0 or len(self.sink) == 0:
            raise ValueError("source and sink sets must be nonempty")
        if set(self.source.tolist()) & set(self.sink.tolist()):
            raise ValueError("source and sink sets must be disjoint")
        if np.any((self.edges < 0) | (self.edges >= len(self.nodes))):
            raise ValueError(f"every end of edges must be a node index in [0, {len(self.nodes)})")
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
    ``wrap_axis`` (None for none) wraps around."""
    blocks = []
    for axis in range(ids.ndim):
        pairs = np.stack([ids, np.roll(ids, -1, axis)], axis=-1)
        if axis != wrap_axis:
            pairs = np.delete(pairs, -1, axis)
        blocks.append(pairs.reshape(-1, 2))
    return np.concatenate(blocks)


def _grid_graph(shape: Shape, ids: np.ndarray, nodes: np.ndarray, edges: np.ndarray,
                conductance: np.ndarray) -> GridGraph:
    """Graph of a product grid whose first axis is radial: the first radial
    layer is the source and the last the sink."""
    return GridGraph(nodes=nodes, edges=edges, conductance=conductance,
                     source=ids[0].ravel(), sink=ids[-1].ravel(), p=float(shape.n),
                     kind=shape.kind, resolution=ids.shape)


def _cot(u: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Cotangent of the angle at v of each triangle (u, v, w) of complex points:
    conj(u - v) (w - v) has the dot product as real and the cross product as
    imaginary part."""
    z = np.conj(u - v) * (w - v)
    return z.real / np.abs(z.imag)


def _apollonian_embed(pole: np.ndarray):
    """Conformal chart of the Apollonian semiring in the complex plane.

    The Moebius map z -> pole * (1 + w)/(1 - w) carries the half-annulus
    {r0 <= |w| <= r1, Re w <= 0} onto the region of the unit disk between two
    Apollonian circles about +/- pole; grid orthogonality is preserved.
    """
    xi = complex(pole[0], pole[1])

    def chart(z: np.ndarray) -> np.ndarray:
        w = z * 1j                                # rotate half-plane Re<=0 onto param span
        return xi * (1.0 + w) / (1.0 - w)

    return chart


def _build_2d(shape: Shape, K: int, M: int, mapping: Mapping | None) -> GridGraph:
    """Log-polar product grid, through the shape's chart and then ``mapping``,
    with the P1 conductances of its triangulation.

    Each quad (k, m), (k+1, m), (k+1, m+1), (k, m+1) is split along the
    diagonal of larger cotangent weight (the local Delaunay choice).  Every
    triangle adds half the cotangent of each of its angles to the conductance
    of the opposite edge (Pinkall and Polthier 1993), so the edge energy
    sum_e sigma_e dphi_e^2 is the Dirichlet energy of the piecewise-linear
    potential.

    The diagonal's conductance is s / 2, s = cot B + cot D over the two
    corners facing it, and s = 0 in exact arithmetic on a cyclic quad
    (B + D = pi).  It is kept only where |s| exceeds the rounding of ``_cot``
    for that quad.  Each node carries an error |dz| <= k eps R, with R the
    largest corner modulus of the quad, so a side, of length at least the
    quad's shortest side h, moves by up to 2 k eps R.  The cotangent of the
    angle between sides e1 and e2 then moves by

        |d cot| <= 2 k eps R (1/|e1| + 1/|e2|) (1 + |cot|) / sin
                <= 4 sqrt(2) k eps (R / h) (1 + cot^2),

    so |ds| <= 4 sqrt(2) k eps (R / h) (2 + cot^2 B + cot^2 D).  The
    diagonal is dropped where |s| is within 64 eps (R / h) (2 + cot^2 B +
    cot^2 D), this bound for k = 11 (the log, linspace and exp of the radii,
    the chart and the map round each node a few times).  A dropped diagonal
    changes the energy by no more than the rounding of the side conductances
    does.  Edges are the radial ones, the angular ones, then the kept
    diagonals, each block in (k, m) order.
    """
    if isinstance(shape, ApollonianSemiring):
        wrap, chart = False, _apollonian_embed(shape.pole)
    elif isinstance(shape, (Annulus, HalfSemiring)):
        wrap, center = isinstance(shape, Annulus), complex(*shape.center)

        def chart(z):
            return z + center
    else:
        raise TypeError(f"unsupported shape {type(shape).__name__}")

    radii = np.exp(np.linspace(math.log(shape.r0), math.log(shape.r1), K))
    theta = np.arange(M) * (2.0 * math.pi / M) if wrap else np.linspace(0.0, math.pi, M)
    z = chart(radii[:, None] * np.exp(1j * theta))                  # (K, M) complex nodes
    pts = np.stack([z.real, z.imag], axis=-1).reshape(-1, 2)
    if mapping is not None:
        pts = mapping(pts)
        if not np.all(np.isfinite(pts)):
            raise ValueError(f"{mapping.describe()} maps grid nodes of the shape "
                             "to non-finite points")
        z = (pts[:, 0] + 1j * pts[:, 1]).reshape(K, M)

    ids = np.arange(K * M).reshape(K, M)
    Q = M if wrap else M - 1                      # quads per radial step
    nxt = np.roll(ids, -1, axis=1)[:, :Q]        # one angular step on
    zn = np.roll(z, -1, axis=1)[:, :Q]
    a, b, c, d = z[:-1, :Q], z[1:, :Q], zn[1:], zn[:-1]
    angle = [_cot(d, a, b), _cot(a, b, c), _cot(b, c, d), _cot(c, d, a)]
    ac = angle[1] + angle[3] >= angle[0] + angle[2]      # split along a-c, else b-d
    cot_b, cot_d = np.where(ac, angle[1], angle[0]), np.where(ac, angle[3], angle[2])
    s_diag = cot_b + cot_d
    # largest corner modulus R and shortest side h of each quad, from the
    # moduli of the nodes and of the radial and angular sides
    rz, rad, ang = np.abs(z), np.abs(z[1:] - z[:-1]), np.abs(zn - z[:, :Q])
    R = np.maximum(rz[:-1], rz[1:])
    R = np.maximum(R, np.roll(R, -1, axis=1))[:, :Q]
    h = np.minimum(np.minimum(rad, np.roll(rad, -1, axis=1))[:, :Q], np.minimum(ang[:-1], ang[1:]))
    # a NaN sum is kept, and the graph refuses it
    keep = ~(np.abs(s_diag) <= 64 * np.finfo(float).eps * R / h * (2 + cot_b ** 2 + cot_d ** 2))
    # each side ab, bc, cd, da takes the cotangent at the corner opposite it
    # in its triangle, the first of the pair for an a-c split
    s_ab, s_bc, s_cd, s_da = (_cot(u, np.where(ac, o_ac, o_bd), w) for u, w, o_ac, o_bd in
                              ((a, b, c, d), (b, c, a, d), (c, d, a, b), (d, a, c, b)))
    pad = ((0, 0), (0, M - Q))        # a semiring layer has one radial edge more than quads
    sigma = 0.5 * np.concatenate([
        (np.pad(s_ab, pad) + np.roll(np.pad(s_cd, pad), 1, axis=1)).ravel(),
        (np.pad(s_da, ((0, 1), (0, 0))) + np.pad(s_bc, ((1, 0), (0, 0)))).ravel(),
        s_diag[keep]])
    diagonal = np.where(ac[..., None], np.stack([ids[:-1, :Q], nxt[1:]], axis=-1),
                        np.stack([ids[1:, :Q], nxt[:-1]], axis=-1))
    edges = np.concatenate([_grid_edges(ids, 1 if wrap else None), diagonal[keep]])
    return _grid_graph(shape, ids, pts, edges, sigma)


def _build_3d(shape: Shape, K: int, J: int) -> GridGraph:
    """Log-spherical product grid; azimuthal count is 2*J.

    Node ids run over (radius, polar, azimuth) in C order and edges come axis
    by axis: radial, polar, then the wrapping azimuthal edges.  Conductances
    come from the two-point flux rule for the p = 3 energy.  The tube of an
    edge has the volume weight = (area of its dual face) * (arc between its
    nodes along the grid line), and its conductance is weight / chord^3, so
    that sigma |dphi|^3 = weight (|dphi| / chord)^3: the numerator uses the
    arc, the denominator the chord.  Polar cells are cell-centered, which
    keeps nodes off the axis.
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

    ids = np.arange(K * J * I).reshape(K, J, I)
    rr, pp, ss = np.meshgrid(radii, phis, psis, indexing="ij")
    nodes = np.stack([rr * np.sin(pp) * np.cos(ss),
                      rr * np.sin(pp) * np.sin(ss),
                      rr * np.cos(pp)], axis=-1).reshape(-1, 3) + shape.center
    edges = _grid_edges(ids, 2)

    r_half = np.sqrt(radii[:-1] * radii[1:])
    r_lo = np.concatenate([[radii[0]], r_half])
    r_hi = np.concatenate([r_half, [radii[-1]]])
    ring_area = (0.5 * (r_hi ** 2 - r_lo ** 2))[:, None, None]
    r = radii[:, None, None]
    phi = phis[:, None]
    cell_solid = dpsi * (np.cos(phi - dphi / 2) - np.cos(phi + dphi / 2))
    # (radius, polar) tables of the radial, polar and azimuthal tube weights,
    # which do not vary along the azimuth
    tube = [r_half[:, None, None] ** 2 * cell_solid * np.diff(r, axis=0),
            np.sin(phi[:-1] + dphi / 2) * dpsi * ring_area * r * dphi,
            dphi * ring_area * r * np.sin(phi) * dpsi]
    weights = np.concatenate([np.repeat(w, I) for w in tube])
    chord = np.linalg.norm(nodes[edges[:, 1]] - nodes[edges[:, 0]], axis=1)
    return _grid_graph(shape, ids, nodes, edges, weights / chord ** 3)


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
        return _build_2d(shape, radial_cells, angular_cells, None)
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
    """Free node ids, their hop levels, and their weighted Laplacians.

    Nodes off the source and sink are the candidates 0..K-1, the source set
    is one root K.  A BFS from the root of one CSR, a Laplacian row per
    candidate and a root row, counts every edge whatever its weight: the
    free nodes are the candidates it reaches, and a level is a hop distance
    minus one.  Adjacent levels differ by at most one, so P^T L P (P the 0/1
    level indicator) is tridiagonal.  Returns L and the (3, levels) bands of
    P^T L P for the conductances, the first right-hand side (each free node's
    summed sink-edge conductance) and a function giving L and bands for c.
    """
    import scipy.sparse as sp
    from scipy.sparse.csgraph import breadth_first_order

    candidate = np.ones(len(graph.nodes), dtype=bool)
    candidate[graph.source] = candidate[graph.sink] = False
    idx = np.cumsum(candidate) - 1
    K = int(idx[-1]) + 1
    idx[graph.source], idx[graph.sink] = K, K + 1
    ends = idx[graph.edges.T]
    lo, hi = np.minimum(*ends), np.maximum(*ends)
    inner, at_root, at_sink = hi < K, hi == K, hi > K
    lo_in, hi_in, diag = lo[inner], hi[inner], np.arange(K)
    coords = (np.concatenate([lo_in, hi_in, hi[at_root], diag]),
              np.concatenate([hi_in, lo_in, lo[at_root], diag]))

    def assemble(c):
        c_in = c[inner]
        d = np.bincount(ends[0], c, K + 2)[:K] + np.bincount(ends[1], c, K + 2)[:K]
        data = np.concatenate([c_in, c_in, c[at_root], -d])
        return sp.csr_matrix((np.negative(data, out=data), coords), shape=(K + 1, K + 1)), c_in, d

    A, c_in, d = assemble(graph.conductance)
    order, pred = breadth_first_order(A, K, return_predecessors=True)
    pos = np.full(K + 2, len(order))             # unreached and the sink: past the order
    pos[order] = np.arange(len(order))
    if not np.any(pos[lo[at_sink]] < len(order)):    # no sink edge has an end reached
        raise ValueError("graph is disconnected between source and sink")
    # BFS appends each node's children as it takes the nodes in order: parent
    # positions never decrease, and each hop starts after the last one's children
    parent = pos[pred[order[1:]]]
    start = [1]
    while start[-1] < len(order):
        start.append(1 + int(parent.searchsorted(start[-1])))
    D = len(start) - 1
    lev = np.full(K, 2 * D)                      # unreached: past every band
    lev[order[1:]] = np.repeat(np.arange(D), np.diff(start))
    free = np.flatnonzero(lev < D)
    level = lev[free]
    band_of = lev[lo_in] + lev[hi_in]            # 2a within level a, 2a + 1 from a to a + 1
    renumber = (np.cumsum(lev < D) - 1).astype(A.indices.dtype)

    def restrict(A, c_in, d):
        band = np.bincount(band_of, c_in, 2 * D)[:2 * D]
        upper = -band[1::2]                      # its last entry, from level D - 1 to D, is 0
        main = np.bincount(level, d[free], D) - 2.0 * band[0::2]
        rows = A[free]                           # free rows reach no unreached candidate
        L = sp.csr_matrix((rows.data, renumber[rows.indices], rows.indptr), shape=(len(free),) * 2)
        return L, np.array([np.roll(upper, 1), main, upper])

    rhs = np.bincount(lo[at_sink], graph.conductance[at_sink], K + 2)[free]
    return (np.flatnonzero(candidate)[free], level, restrict(A, c_in, d), rhs,
            lambda c: restrict(*assemble(c)))


def modulus_connect(graph: GridGraph) -> ModulusEstimate:
    """Discrete p-modulus of the connecting family: the least edge energy.

    Minimizes F(phi) = sum_e sigma_e |dphi_e|^p, sigma = ``graph.conductance``,
    over potentials phi = 0 on the source and 1 on the sink, and returns
    m_gamma = F(phi) with the minimizing ``potential``.  The unknowns are the
    free nodes of ``_level_system``, which also returns the first right-hand
    side; the others take the sink's potential.  Newton (p > 2) backtracks on F
    from the p = 2 potential, and the edge differences of each potential give
    its flux, Hessian weights and energy.  Each CG solve, on the weighted
    Laplacian L, starts from x0 = P (P^T L P)^-1 P^T rhs, the level-constant
    vector of least energy error.  With positive conductances m_gamma is the
    graph's path-family modulus up to the solver tolerance.  Signed ones need a
    positive Laplacian diagonal at every free node, for the Jacobi
    preconditioner; otherwise ValueError.  Deterministic.
    """
    import scipy.sparse as sp
    from scipy.linalg import solve_banded

    p = graph.p
    if p < 2:
        raise ValueError(f"modulus exponent must be at least 2, got {p}")
    free, level, first, rhs, laplacian = _level_system(graph)
    e0, e1 = graph.edges.T.copy()     # contiguous: bincount would copy a strided column
    cg_steps = []             # one entry per CG iteration

    def solve(L, bands, rhs):
        if not len(free):
            return rhs
        diag = L.diagonal()
        if np.any(diag <= 0):
            raise ValueError("a free node has a non-positive Laplacian diagonal")
        x0 = solve_banded((1, 1), bands, np.bincount(level, rhs, bands.shape[1]))[level]
        x, info = cg(L, rhs, x0=x0, rtol=_CG_RTOL, atol=0.0, M=sp.diags(1.0 / diag),
                     callback=lambda _: cg_steps.append(1))
        if info != 0:
            raise ConvergenceError(f"conjugate gradients did not converge (info={info})")
        return x

    def differences(x):
        # pairwise summation of F: a dot product drifts by 6e-15 relative at 256x1024
        dphi = x[e1] - x[e0]
        w = graph.conductance * np.abs(dphi) ** (p - 2.0)
        return dphi, w, float(np.sum(w * (dphi * dphi)))

    phi = np.ones(len(graph.nodes))   # unreached nodes take the sink's potential
    phi[graph.source] = 0.0
    phi[free] = solve(*first, rhs)
    dphi, w, f = differences(phi)
    solves = 1
    while True:
        flux = p * w * dphi
        net = np.bincount(e1, flux, phi.size) - np.bincount(e0, flux, phi.size)
        grad, ends = net[free], net[np.r_[graph.source, graph.sink]]
        residual = float(np.linalg.norm(grad) / np.linalg.norm(ends))
        if p == 2.0 or residual <= _NEWTON_RTOL:
            break
        if solves > _NEWTON_CAP:
            raise ConvergenceError(f"Newton did not converge in {_NEWTON_CAP} steps "
                                   f"(residual {residual:.3g})")
        hess = p * (p - 1.0) * w
        step = solve(*laplacian(np.maximum(hess, _WEIGHT_FLOOR * hess.max())), -grad)
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
    Planar shapes only; the map must be nonsingular on the closed shape.
    """
    if shape.n != 2:
        raise NotImplementedError("image grids are implemented for n = 2")
    K, M = resolution
    if K < 8 or M < 8:
        raise ValueError("resolution too small: need at least 8 cells each way")
    return _build_2d(shape, K, M, mapping)


def image_modulus(mapping: Mapping, shape: Shape, resolution: tuple[int, int]) -> ModulusEstimate:
    """Modulus of the image of ``shape`` under ``mapping``: the potential solve
    of ``modulus_connect`` on the pushed-forward grid of ``build_image_grid``."""
    return modulus_connect(build_image_grid(mapping, shape, resolution))
