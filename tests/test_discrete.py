import math
import time
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra
from scipy.sparse.linalg import LinearOperator, spsolve

from ringmod import (
    Annulus,
    ApollonianSemiring,
    ConvergenceError,
    GridGraph,
    HalfSemiring,
    Identity,
    Linear,
    RadialStretch,
    RotationTwist,
    build_grid,
    image_modulus,
    matrix_dilatations,
    mo_from_gamma,
    modulus_connect,
)
from ringmod import discrete

E = math.e
TWO_PI = 2 * math.pi


def single_edge_graph(conductance=1.0, p=2.0):
    return GridGraph(
        nodes=np.array([[0.0, 0.0], [1.0, 0.0]]),
        edges=np.array([[0, 1]]),
        conductance=np.array([conductance]),
        source=np.array([0]),
        sink=np.array([1]),
        p=p,
        kind="ring",
        resolution=(1, 1),
    )


def chain_graph(chains, p):
    """Disjoint source-sink chains; chain k has edge conductances chains[k]."""
    edges, sigma, source, sink = [], [], [], []
    node = 0
    for chain in chains:
        source.append(node)
        for s in chain:
            edges.append((node, node + 1))
            sigma.append(s)
            node += 1
        sink.append(node)
        node += 1
    return GridGraph(
        nodes=np.stack([np.arange(float(node)), np.zeros(node)], axis=1),
        edges=np.array(edges), conductance=np.array(sigma),
        source=np.array(source), sink=np.array(sink),
        p=p, kind="ring", resolution=(len(chains), 1),
    )


def chain_modulus(sigma, p):
    """p-modulus of one chain: (sum sigma_e^(-1/(p-1)))^(-(p-1))."""
    return float(np.sum(np.asarray(sigma) ** (-1.0 / (p - 1.0))) ** (1.0 - p))


def least_path_drop(g, phi):
    """Least sum of |dphi| along a source-sink path, by Dijkstra from a supersource.
    It is at least phi(sink) - phi(source) by telescoping, so the density
    |dphi| / length is admissible."""
    N = len(g.nodes)
    s, t = N, N + 1
    rows = np.concatenate([g.edges[:, 0], g.edges[:, 1], np.full(len(g.source), s), g.sink])
    cols = np.concatenate([g.edges[:, 1], g.edges[:, 0], g.source, np.full(len(g.sink), t)])
    w = np.abs(phi[g.edges[:, 1]] - phi[g.edges[:, 0]])
    data = np.concatenate([w, w, np.zeros(len(g.source) + len(g.sink))])
    dist = dijkstra(sp.csr_matrix((data, (rows, cols)), shape=(N + 2, N + 2)), indices=s)
    return dist[t]


def direct_m_gamma(g):
    """p-energy of the potential of one direct sparse solve of the reduced
    Laplacian with the graph's conductances (the p-capacity for p = 2)."""
    N, p = len(g.nodes), g.p
    sigma = g.conductance
    i, j = g.edges.T
    L = sp.coo_matrix((np.concatenate([sigma, sigma, -sigma, -sigma]),
                       (np.concatenate([i, j, i, j]), np.concatenate([i, j, j, i]))),
                      shape=(N, N)).tocsr()
    fixed = np.zeros(N, dtype=bool)
    fixed[g.source] = fixed[g.sink] = True
    free = np.flatnonzero(~fixed)
    phi = np.zeros(N)
    phi[g.sink] = 1.0
    phi[free] = spsolve(L[free][:, free].tocsc(), -(L[free] @ phi))
    return float(sigma @ np.abs(phi[j] - phi[i]) ** p)


def test_single_edge():
    est = modulus_connect(single_edge_graph())
    assert est.m_gamma == pytest.approx(1.0, abs=1e-5)
    np.testing.assert_allclose(est.potential, [0.0, 1.0], atol=1e-5)
    assert est.residual <= 1e-8


def test_series_and_parallel_edges():
    for p in (2.0, 3.0):
        # two unit edges in series: admissibility splits, energy 2^(1-p)
        g = GridGraph(
            nodes=np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]),
            edges=np.array([[0, 1], [1, 2]]),
            conductance=np.ones(2),
            source=np.array([0]),
            sink=np.array([2]),
            p=p, kind="ring", resolution=(2, 1),
        )
        est = modulus_connect(g)
        assert est.m_gamma == pytest.approx(2.0 ** (1.0 - p), abs=1e-5)
        # two disjoint unit edges in parallel: moduli add
        g = GridGraph(
            nodes=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
            edges=np.array([[0, 1], [2, 3]]),
            conductance=np.ones(2),
            source=np.array([0, 2]),
            sink=np.array([1, 3]),
            p=p, kind="ring", resolution=(1, 2),
        )
        est = modulus_connect(g)
        assert est.m_gamma == pytest.approx(2.0, abs=1e-4)
        # parallel chains with unequal conductances: chain moduli in closed form,
        # and the p = 2 start is not optimal for p = 3, so Newton has to iterate
        chains = [[1.0, 2.0, 0.5], [3.0, 0.25], [1.5, 1.5, 4.0, 0.7]]
        est = modulus_connect(chain_graph(chains, p))
        exact = sum(chain_modulus(c, p) for c in chains)
        assert est.m_gamma == pytest.approx(exact, rel=1e-9)
        assert est.residual <= 1e-8
        # chains of unequal lengths mix them on the hop levels, so CG iterates
        assert est.cg_iterations > 0
        if p == 2.0:
            assert est.iterations == 1
        else:
            assert est.iterations > 2


def test_sink_only_component():
    # nodes 3 and 4 hang off the sink: the source reaches them only through
    # the sink, so they are not free, take the sink's potential and carry no
    # energy
    for p in (2.0, 3.0):
        g = GridGraph(
            nodes=np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [4.0, 0.0]]),
            edges=np.array([[0, 1], [1, 2], [2, 3], [3, 4]]),
            conductance=np.ones(4),
            source=np.array([0]),
            sink=np.array([2]),
            p=p, kind="ring", resolution=(5, 1),
        )
        est = modulus_connect(g)
        assert est.m_gamma == pytest.approx(2.0 ** (1.0 - p), rel=1e-12)
        np.testing.assert_allclose(est.potential, [0.0, 0.5, 1.0, 1.0, 1.0], atol=1e-12)
        assert est.residual <= 1e-8
        # a triangle 5, 6, 7 touching neither the source nor the sink is left
        # out of the solve and carries no energy either
        est_isolated = modulus_connect(replace(
            g, nodes=np.vstack([g.nodes, [[0.0, 1.0], [1.0, 1.0], [0.0, 2.0]]]),
            edges=np.vstack([g.edges, [[5, 6], [6, 7], [7, 5]]]),
            conductance=np.ones(7)))
        assert est_isolated.m_gamma == est.m_gamma
        np.testing.assert_array_equal(est_isolated.potential[2:], 1.0)
        assert est_isolated.residual <= 1e-8


def reference_levels(g):
    """Free nodes and levels by the definition: the nodes off the source and
    sink that a BFS from the source through edges with no end on the sink
    reaches, at hop distance minus one."""
    N = len(g.nodes)
    is_sink = np.zeros(N, dtype=bool)
    is_sink[g.sink] = True
    edges = g.edges[~is_sink[g.edges].any(axis=1)]
    adj = sp.csr_matrix((np.ones(len(edges)), (edges[:, 0], edges[:, 1])), shape=(N, N))
    hops = dijkstra(adj, directed=False, indices=g.source, unweighted=True, min_only=True)
    hops[g.source] = np.inf
    free = np.flatnonzero(np.isfinite(hops))
    return free, hops[free].astype(int) - 1


def dense_free_operators(g, c, free, level):
    """B^T diag(c) B on the free nodes, B the dense edge-node incidence matrix,
    P^T L P with P the 0/1 indicator of the levels, and the right-hand side
    -(B^T diag(c) B)[free, sink] @ 1 of the potential 1 on the sink."""
    rows = np.arange(len(g.edges))
    B = np.zeros((len(g.edges), len(g.nodes)))
    np.add.at(B, (rows, g.edges[:, 0]), -1.0)
    np.add.at(B, (rows, g.edges[:, 1]), 1.0)
    L_all = (B.T * c) @ B
    L = L_all[np.ix_(free, free)]
    P = np.eye(level.max() + 1)[level]
    return L, P.T @ L @ P, -L_all[np.ix_(free, g.sink)] @ np.ones(len(g.sink))


def test_level_system_levels():
    # sources 0, 1 and 10, sink 6; node 3 is two hops from source 0 and three
    # from source 1, node 7 hangs off the sink, nodes 8 and 9 touch neither
    # terminal, and source 10 is adjacent to the sink
    edges = np.array([[0, 2], [2, 3], [1, 4], [4, 5], [5, 3], [3, 11], [11, 6], [6, 7],
                      [8, 9], [10, 6]])
    g = GridGraph(
        nodes=np.stack([np.arange(12.0), np.zeros(12)], axis=1),
        edges=edges, conductance=np.ones(len(edges)),
        source=np.array([0, 1, 10]), sink=np.array([6]),
        p=2.0, kind="ring", resolution=(12, 1),
    )
    free, level = discrete._level_system(g)[:2]
    np.testing.assert_array_equal(free, [2, 3, 4, 5, 11])
    np.testing.assert_array_equal(level, [0, 1, 0, 1, 2])
    # without the edge at source 10 the path through node 11 still connects;
    # cutting that one as well leaves no source-sink path
    discrete._level_system(replace(g, edges=edges[:-1], conductance=np.ones(9)))
    with pytest.raises(ValueError, match="disconnected"):
        discrete._level_system(replace(g, edges=np.delete(edges, [6, 9], axis=0),
                                       conductance=np.ones(8)))
    # an edge of conductance 0 still links its ends: node 12, joined to node 5
    # by it alone, is free at level 2 and leaves the other levels as they
    # are, and the solve refuses its Laplacian diagonal of 0
    g12 = replace(g, nodes=np.vstack([g.nodes, [[12.0, 0.0]]]), edges=np.vstack([edges, [[5, 12]]]),
                  conductance=np.append(np.ones(len(edges)), 0.0))
    free, level = discrete._level_system(g12)[:2]
    np.testing.assert_array_equal(free, [2, 3, 4, 5, 11, 12])
    np.testing.assert_array_equal(level, [0, 1, 0, 1, 2, 2])
    with pytest.raises(ValueError, match="non-positive Laplacian diagonal"):
        modulus_connect(g12)


def test_level_system_long_chain():
    # 20,000 nodes in a row: one free node on each of 19,998 levels, so the
    # level solve is exact and CG has nothing left to do
    n = 20_000
    g = chain_graph([np.ones(n - 1)], 2.0)
    t0 = time.perf_counter()
    est = modulus_connect(g)
    assert time.perf_counter() - t0 < 1.0
    free, level = discrete._level_system(g)[:2]
    np.testing.assert_array_equal(free, np.arange(1, n - 1))
    np.testing.assert_array_equal(level, np.arange(n - 2))
    assert est.m_gamma == pytest.approx(1.0 / (n - 1), rel=1e-12)
    assert est.cg_iterations == 0


def test_level_system_assembles_the_free_laplacian():
    # a graph with parallel edges 1-2 and 1-5, self-loops at 2 and at the
    # source, a source-sink edge, parallel sink edges 5-6 (one of them
    # reversed), a sink edge 4-6 of conductance 0 beside one of 1.3, and a
    # node 3 that hangs off the sink and adds nothing to the right-hand side;
    # a sheared image grid, whose conductances are signed; and a 3D grid with
    # the Newton weights of its p = 3 potential
    hand = GridGraph(
        nodes=np.zeros((7, 2)),
        edges=np.array([[0, 1], [1, 2], [2, 1], [2, 2], [2, 5], [1, 5], [5, 1], [5, 6],
                        [0, 4], [4, 6], [6, 3], [0, 0], [0, 6], [6, 5], [6, 4]]),
        conductance=np.array([1.0, 2.0, 0.5, 3.0, 1.5, 0.7, 0.2, 1.1, 0.9, 1.3, 0.8, 4.0,
                              2.5, 0.6, 0.0]),
        source=np.array([0]), sink=np.array([6]), p=2.0, kind="ring", resolution=(7, 1),
    )
    shear = discrete.build_image_grid(Linear(np.array([[1.0, 0.6], [0.0, 1.0]])),
                                      Annulus(n=2, r0=1.0, r1=E), (8, 16))
    assert np.any(shear.conductance < 0)
    g3 = build_grid(Annulus(n=3, r0=1.0, r1=E), 8, 8)
    phi = modulus_connect(g3).potential
    hess = 6.0 * g3.conductance * np.abs(phi[g3.edges[:, 1]] - phi[g3.edges[:, 0]])
    for g, c in ((hand, hand.conductance), (shear, shear.conductance), (g3, g3.conductance),
                 (g3, np.maximum(hess, 1e-12 * hess.max()))):
        free, level, rhs, _, bands, diagonal, laplacian = discrete._level_system(g)
        ref_free, ref_level = reference_levels(g)
        np.testing.assert_array_equal(free, ref_free)
        np.testing.assert_array_equal(level, ref_level)
        diag, bands = diagonal(c), bands(c)
        L = laplacian(c, diag)
        L_ref, galerkin_ref, rhs_ref = dense_free_operators(g, c, free, level)
        galerkin = (np.diag(bands[1]) + np.diag(bands[0, 1:], 1) + np.diag(bands[2, :-1], -1))
        tol = 1e-13 * np.abs(c).sum()
        np.testing.assert_allclose(L.toarray(), L_ref, rtol=0, atol=tol)
        np.testing.assert_array_equal(diag, L.diagonal())
        np.testing.assert_allclose(galerkin, galerkin_ref, rtol=0, atol=tol)
        if c is g.conductance:
            np.testing.assert_allclose(rhs, rhs_ref, rtol=0, atol=tol)
    # free nodes 1, 2, 4 and 5: the sink edges of 4 and 5, and nothing from node 3
    np.testing.assert_array_equal(discrete._level_system(hand)[2], [0.0, 0.0, 1.3, 1.1 + 0.6])


@pytest.mark.parametrize("build", [
    lambda: build_grid(Annulus(n=2, r0=1.0, r1=E), 16, 64),
    lambda: build_grid(HalfSemiring(n=2, r0=1.0, r1=E), 16, 33),
    lambda: build_grid(ApollonianSemiring(n=2, r0=0.1, r1=1.0), 16, 33),
    # the twist keeps every diagonal, an edge between layers
    lambda: discrete.build_image_grid(RotationTwist(), Annulus(n=2, r0=1.0, r1=E), (16, 64)),
    lambda: build_grid(Annulus(n=3, r0=1.0, r1=E), 8, 8),
    lambda: build_grid(HalfSemiring(n=3, r0=1.0, r1=E), 8, 8),
], ids=["ring", "semiring", "apollonian", "twist-image", "ring-3d", "semiring-3d"])
def test_builder_layers_are_the_hop_layers(build):
    # a builder numbers its nodes by radial layer; dataclasses.replace drops
    # the layers, so the copy takes its hop layers from the source instead,
    # and both give the same system and the same potential, bit for bit.  It
    # drops the planar source ratio too; the copy gets it back, so that both
    # solves run the same preconditioner
    g = build()
    hops = replace(g)
    assert g.layer is not None and hops.layer is None
    assert (g.ratio is not None) == (g.p == 2.0) and hops.ratio is None
    hops.ratio = g.ratio
    system, hop_system = discrete._level_system(g), discrete._level_system(hops)
    for a, b in zip(system[:3], hop_system[:3]):
        np.testing.assert_array_equal(a, b)
    (bands, diagonal, laplacian), (hop_bands, hop_diagonal, hop_laplacian) = system[4:], hop_system[4:]
    c = g.conductance
    np.testing.assert_array_equal(diagonal(c), hop_diagonal(c))
    np.testing.assert_array_equal(bands(c), hop_bands(c))
    np.testing.assert_array_equal(laplacian(c, diagonal(c)).toarray(),
                                  hop_laplacian(c, hop_diagonal(c)).toarray())
    np.testing.assert_array_equal(modulus_connect(g).potential, modulus_connect(hops).potential)


def test_m_gamma_is_the_energy_of_the_potential():
    # p = 2 on an aligned and on a sheared image grid, and p = 3 on unequal
    # parallel chains, where Newton steps from the p = 2 potential
    shear = Linear(np.array([[1.0, 0.6], [0.0, 1.0]]))
    chains = chain_graph([[1.0, 2.0, 0.5], [3.0, 0.25], [1.5, 1.5, 4.0, 0.7]], 3.0)
    for g in (build_grid(Annulus(n=2, r0=1.0, r1=E), 32, 128),
              discrete.build_image_grid(shear, Annulus(n=2, r0=1.0, r1=E), (32, 128)), chains):
        est = modulus_connect(g)
        dphi = est.potential[g.edges[:, 1]] - est.potential[g.edges[:, 0]]
        assert est.m_gamma == pytest.approx(np.sum(g.conductance * np.abs(dphi) ** g.p), rel=1e-14)
        assert est.iterations > 1 if g is chains else est.iterations == 1


def test_level_start_matches_direct_solve():
    # grids whose potential is not constant on the radial shells (Apollonian,
    # a sheared image) and a 3D grid, whose radial p = 2 potential is also
    # the p = 3 minimizer, against one direct sparse solve
    shear = Linear(np.array([[1.0, 0.6], [0.0, 1.0]]))
    for g in (build_grid(ApollonianSemiring(n=2, r0=0.1, r1=1.0), 16, 33),
              discrete.build_image_grid(shear, HalfSemiring(n=2, r0=1.0, r1=E), (16, 33)),
              build_grid(Annulus(n=3, r0=1.0, r1=E), 8, 8)):
        assert modulus_connect(g).m_gamma == pytest.approx(direct_m_gamma(g), rel=1e-10)


def test_aligned_annulus_needs_no_cg_iterations():
    est = modulus_connect(build_grid(Annulus(n=2, r0=1.0, r1=E), 64, 256))
    assert est.iterations == 1
    assert est.cg_iterations <= 2
    assert est.residual <= 1e-8


def test_aligned_annulus_potential_is_linear_in_the_layer(monkeypatch):
    # the discrete potential of an aligned annulus is k/(K - 1) on layer k,
    # and the level start meets it, so the solve never calls CG
    def refuse(A, b, **kwargs):
        raise AssertionError("CG called on an aligned grid")

    monkeypatch.setattr(discrete, "cg", refuse)
    K, M = 256, 1024
    est = modulus_connect(build_grid(Annulus(n=2, r0=1.0, r1=E), K, M))
    exact = np.arange(K) / (K - 1.0)
    assert np.abs(est.potential.reshape(K, M) - exact[:, None]).max() <= 1e-13
    assert est.residual <= 1e-12
    assert est.cg_iterations == 0


def test_solver_sums_the_diagonal_only_where_it_reads_it(monkeypatch):
    # the free Laplacian's diagonal is read by the Jacobi refusal, on a graph
    # without the source ratio at p = 2, and by L, after a failed level start;
    # each solve sums it once, and L takes the sum the refusal made.  At p = 3
    # the 3D annulus needs neither
    real, calls, sums = discrete._level_system, [], []

    def counted(graph):
        *head, bands, diagonal, laplacian = real(graph)

        def counted_bands(c):
            calls.append("bands")
            return bands(c)

        def counted_diagonal(c):
            calls.append("diagonal")
            sums.append(diagonal(c))
            return sums[-1]

        def counted_laplacian(c, diag):
            calls.append("laplacian")
            assert diag is sums[-1]
            return laplacian(c, diag)

        return (*head, counted_bands, counted_diagonal, counted_laplacian)

    monkeypatch.setattr(discrete, "_level_system", counted)
    aligned = build_grid(Annulus(n=2, r0=1.0, r1=E), 64, 256)
    apollonian = build_grid(ApollonianSemiring(n=2, r0=0.1, r1=1.0), 64, 129)
    for g, expected in ((aligned, ["bands"]),
                        (apollonian, ["bands", "diagonal", "laplacian"]),
                        (replace(aligned), ["diagonal", "bands"]),
                        (replace(apollonian), ["diagonal", "bands", "laplacian"])):
        calls.clear()
        modulus_connect(g)
        assert calls == expected, (g.resolution, g.ratio, calls)
    calls.clear()
    modulus_connect(build_grid(Annulus(n=3, r0=1.0, r1=E), 32, 32))
    assert calls and set(calls) == {"bands"}, calls


@pytest.mark.parametrize("M", [64, 65])
@pytest.mark.parametrize("shape", [Annulus(n=2, r0=1.0, r1=E), HalfSemiring(n=2, r0=1.0, r1=E)],
                         ids=["ring", "semiring"])
def test_source_inverse_is_exact_on_aligned_grids(shape, M):
    # an aligned grid is its own source grid: its free Laplacian is c_r S,
    # with c_r the radial conductance of an interior column (edge 1 joins
    # nodes (0, 1) and (1, 1)), so the fast transforms invert it
    g = build_grid(shape, 24, M)
    free, *_, diagonal, laplacian = discrete._level_system(g)
    L = laplacian(g.conductance, diagonal(g.conductance))
    x = np.random.default_rng(M).standard_normal(len(free))
    y = discrete._source_inverse(g)(L @ x / g.conductance[1])
    assert np.linalg.norm(y - x) <= 1e-12 * np.linalg.norm(x)


def test_preconditioned_iterations_do_not_grow_with_the_mesh():
    """CG iterations of image grids over three levels, each twice as fine.

    A K-quasiconformal map changes a Dirichlet energy by at most a factor K
    each way, so the source-preconditioned Laplacian has condition number at
    most K^2, and CG reduces the energy-norm error by rtol within
    (K/2) ln(2/rtol) iterations.  For a linear map that holds per triangle,
    with K the ratio of its singular values; the twist's Jacobian has the
    same ratio, (1 + sqrt 2)^2, at every point.  CG stops on the residual and
    starts from the level start, so the ceiling is measured, not a theorem.
    Jacobi's counts double with each halving (shear: 162, 324, 1180 at
    256x1024); these stay within 5 percent of the coarsest (twist: 68, 70, 69).
    """
    ring, semi = Annulus(n=2, r0=1.0, r1=E), HalfSemiring(n=2, r0=1.0, r1=E)
    rings = ((32, 128), (64, 256), (128, 512))
    for mapping, shape, grids in ((Linear(np.array([[1.0, 0.6], [0.0, 1.0]])), ring, rings),
                                  (Linear(np.diag([2.0, 1.0])), ring, rings),
                                  (RotationTwist(), semi, ((32, 65), (64, 129), (128, 257)))):
        counts = [image_modulus(mapping, shape, grid).cg_iterations for grid in grids]
        assert max(counts) <= 1.05 * counts[0], (mapping.describe(), counts)
        K = float(matrix_dilatations(mapping.jacobian(np.array([1.0, 0.0]))).linear)
        ceiling = math.ceil(K / 2 * math.log(2 / 1e-12))     # 26, 29 and 83
        assert max(counts) <= ceiling, (mapping.describe(), counts, ceiling)


def test_mo_from_gamma():
    assert mo_from_gamma(math.pi, "semiring", 2) == pytest.approx(1.0)
    assert mo_from_gamma(TWO_PI, "ring", 2) == pytest.approx(1.0)
    assert mo_from_gamma(TWO_PI, "semiring", 3) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        mo_from_gamma(-1.0, "ring", 2)
    with pytest.raises(ValueError):
        mo_from_gamma(1.0, "blob", 2)


def quad_diagonals(g, quads):
    """Quad index k * quads + m of each edge after the radial and angular
    blocks, asserting that these are at most one diagonal per quad (k, m),
    (k+1, m), (k+1, m+1), (k, m+1), in (k, m) order, joining opposite corners."""
    K, M = g.resolution
    k, m = np.divmod(np.arange((K - 1) * quads), quads)

    def pair(k0, m0, k1, m1):
        return np.sort(np.stack([k0 * M + m0 % M, k1 * M + m1 % M], axis=1), axis=1)

    corners = {tuple(e): q for pairs in (pair(k, m, k + 1, m + 1), pair(k + 1, m, k, m + 1))
               for q, e in enumerate(pairs.tolist())}
    diag = np.sort(g.edges[(K - 1) * M + K * quads:], axis=1).tolist()
    assert all(tuple(e) in corners for e in diag)
    quad = np.array([corners[tuple(e)] for e in diag], dtype=int)
    assert np.all(np.diff(quad) > 0)
    return quad


def test_build_grid_structure():
    # planar grids: radial, angular, then at most one diagonal per quad; an
    # aligned grid's quads are cyclic, so it keeps none
    g = build_grid(Annulus(n=2, r0=1.0, r1=E), 16, 64)
    assert len(g.nodes) == 16 * 64
    assert len(g.edges) == 15 * 64 + 16 * 64
    assert len(g.source) == 64 and len(g.sink) == 64
    assert not set(g.source) & set(g.sink)
    g = build_grid(HalfSemiring(n=2, r0=1.0, r1=E), 16, 33)
    assert len(g.nodes) == 16 * 33
    assert len(g.edges) == 15 * 33 + 16 * 32
    assert len(g.source) == 33 and len(g.sink) == 33
    # semiring nodes stay in the closed upper half plane
    assert g.nodes[:, 1].min() >= -1e-12
    # the twist's quads are not cyclic: every quad keeps its diagonal
    g = discrete.build_image_grid(RotationTwist(), Annulus(n=2, r0=1.0, r1=E), (16, 64))
    np.testing.assert_array_equal(quad_diagonals(g, 64), np.arange(15 * 64))
    with pytest.raises(ValueError):
        build_grid(Annulus(n=2, r0=1.0, r1=E), 4, 64)

    K, J = 9, 8
    I = 2 * J
    radii = np.exp(np.linspace(0.0, 1.0, K))
    r_half = np.sqrt(radii[:-1] * radii[1:])
    for shape, c in ((Annulus(n=3, r0=1.0, r1=E), 4 * math.pi),
                     (HalfSemiring(n=3, r0=1.0, r1=E), TWO_PI)):
        g = build_grid(shape, K, J)
        assert len(g.nodes) == K * J * I
        assert len(g.edges) == (K - 1) * J * I + K * (J - 1) * I + K * J * I
        assert len({tuple(e) for e in np.sort(g.edges, axis=1).tolist()}) == len(g.edges)
        assert np.array_equal(np.sort(g.source), np.arange(J * I))
        assert np.array_equal(np.sort(g.sink), np.arange((K - 1) * J * I, K * J * I))
        # (k, j, i) of both ends differ by one step along one axis; only i wraps
        tail, head = (np.stack(np.unravel_index(g.edges[:, s], (K, J, I)), axis=1)
                      for s in (0, 1))
        step = np.abs(head - tail)
        step[:, 2] = np.minimum(step[:, 2], I - step[:, 2])
        assert np.all(step.sum(axis=1) == 1)
        # the tube weights conductance * chord^3 of a layer's radial edges
        # telescope to the full (hemi)sphere's shell; the chords here come from
        # the nodes, independently of the builder's closed forms
        radial = step[:, 0] == 1
        layer = np.minimum(tail[radial, 0], head[radial, 0])
        chord = np.linalg.norm(g.nodes[g.edges[:, 1]] - g.nodes[g.edges[:, 0]], axis=1)
        sums = np.bincount(layer, weights=(g.conductance * chord ** 3)[radial], minlength=K - 1)
        np.testing.assert_allclose(sums, c * r_half ** 2 * np.diff(radii), rtol=1e-12, atol=0)


@pytest.mark.parametrize("shape", [Annulus, HalfSemiring])
def test_3d_conductances_ignore_the_centre(shape):
    # the chords are closed forms in the radii and angles, so the centre moves
    # the nodes only: conductances and moduli match the centred grid's bit for
    # bit, even where the node coordinates carry 1e6 and lose digits
    centred = build_grid(shape(n=3, r0=1.0, r1=E), 16, 16)
    m_gamma = modulus_connect(centred).m_gamma
    for c in (10.0, 1e3, 1e6):
        moved = build_grid(shape(n=3, r0=1.0, r1=E, center=np.array([c, 0.0, 0.0])), 16, 16)
        np.testing.assert_allclose(moved.nodes - [c, 0.0, 0.0], centred.nodes,
                                   rtol=0, atol=4 * np.finfo(float).eps * c)
        np.testing.assert_array_equal(moved.conductance, centred.conductance)
        assert modulus_connect(moved).m_gamma == m_gamma


@pytest.mark.parametrize("shape, M", [(Annulus, 256), (HalfSemiring, 129)], ids=["ring", "semiring"])
def test_off_centre_planar_grids_equal_centred_ones(shape, M):
    # an aligned grid's conductances come from its source quads, which the
    # centre only translates: at (1e6, 0) they and m_gamma are the centred
    # ones bit for bit, and neither solve needs a CG iteration
    centred = build_grid(shape(n=2, r0=1.0, r1=E), 64, M)
    far = build_grid(shape(n=2, r0=1.0, r1=E, center=np.array([1e6, 0.0])), 64, M)
    np.testing.assert_array_equal(far.edges, centred.edges)
    np.testing.assert_array_equal(far.conductance, centred.conductance)
    assert far.ratio == centred.ratio
    a, b = modulus_connect(centred), modulus_connect(far)
    assert a.m_gamma.hex() == b.m_gamma.hex()
    assert a.cg_iterations == b.cg_iterations == 0


def shoelace(xy):
    x, y = xy[:, 0], xy[:, 1]
    return 0.5 * abs(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def boundary_area(g):
    """Area inside the boundary polygon of a planar product grid: the outer
    layer less the inner one for a ring, one closed loop for a semiring."""
    K, M = g.resolution
    ids = np.arange(K * M).reshape(K, M)
    if g.kind == "ring":
        return shoelace(g.nodes[ids[-1]]) - shoelace(g.nodes[ids[0]])
    loop = np.concatenate([ids[0], ids[1:, -1], ids[-1, -2::-1], ids[-2:0:-1, 0]])
    return shoelace(g.nodes[loop])


SHEAR = Linear(np.array([[1.0, 0.6], [0.0, 1.0]]))


@pytest.mark.parametrize("build", [
    lambda: build_grid(Annulus(n=2, r0=1.0, r1=E), 16, 64),
    lambda: build_grid(HalfSemiring(n=2, r0=0.5, r1=2.0, center=np.array([0.3, 0.0])), 16, 33),
    lambda: build_grid(ApollonianSemiring(n=2, r0=0.1, r1=1.0), 16, 33),
    lambda: discrete.build_image_grid(RotationTwist(), Annulus(n=2, r0=1.0, r1=E), (16, 64)),
    lambda: discrete.build_image_grid(RotationTwist(), HalfSemiring(n=2, r0=1.0, r1=E), (16, 33)),
    lambda: discrete.build_image_grid(SHEAR, Annulus(n=2, r0=1.0, r1=E), (16, 64)),
    lambda: discrete.build_image_grid(SHEAR, HalfSemiring(n=2, r0=1.0, r1=E), (16, 33)),
], ids=["aligned-ring", "aligned-semiring", "apollonian", "twist-ring", "twist-semiring",
        "shear-ring", "shear-semiring"])
def test_planar_patch(build):
    g = build()
    # the edge energy of a linear potential a.x is the P1 Dirichlet energy
    # |a|^2 area, whatever the mesh's shear or the signs of its conductances
    sigma = g.conductance
    dx = g.nodes[g.edges[:, 1]] - g.nodes[g.edges[:, 0]]
    area = boundary_area(g)
    for a in (np.array([1.0, 0.0]), np.array([0.3, -1.7])):
        assert sigma @ (dx @ a) ** 2 == pytest.approx((a @ a) * area, rel=1e-12)


def quad_cotangents(g, quads):
    """Cotangents at the corners a, b, c, d = (k, m), (k+1, m), (k+1, m+1),
    (k, m+1) of every quad, the largest corner modulus R and the shortest
    side h, each of shape (K - 1, quads), from the nodes alone."""
    K, M = g.resolution
    P = g.nodes.reshape(K, M, 2)
    Pn = np.roll(P, -1, axis=1)
    a, b, c, d = P[:-1, :quads], P[1:, :quads], Pn[1:, :quads], Pn[:-1, :quads]

    def cot(u, v, w):
        e1, e2 = u - v, w - v
        cross = e1[..., 0] * e2[..., 1] - e1[..., 1] * e2[..., 0]
        return np.sum(e1 * e2, axis=-1) / np.abs(cross)

    cots = [cot(d, a, b), cot(a, b, c), cot(b, c, d), cot(c, d, a)]
    R = np.linalg.norm(np.stack([a, b, c, d]), axis=-1).max(axis=0)
    h = np.linalg.norm(np.stack([b - a, c - b, d - c, a - d]), axis=-1).min(axis=0)
    return cots, R, h


@pytest.mark.parametrize("build, moved", [
    (lambda: build_grid(Annulus(n=2, r0=1.0, r1=E), 16, 64), False),
    (lambda: build_grid(HalfSemiring(n=2, r0=0.5, r1=2.0, center=np.array([0.3, 0.0])), 16, 33),
     False),
    (lambda: build_grid(Annulus(n=2, r0=1.0, r1=E, center=np.array([1e6, 0.0])), 16, 64), False),
    (lambda: build_grid(ApollonianSemiring(n=2, r0=0.1, r1=1.0), 64, 129), True),
    (lambda: discrete.build_image_grid(RadialStretch(a=0.8), Annulus(n=2, r0=1.0, r1=E), (16, 64)),
     True),
    (lambda: discrete.build_image_grid(RadialStretch(a=0.8), HalfSemiring(n=2, r0=1.0, r1=E),
                                       (48, 97)), True),
    (lambda: discrete.build_image_grid(RotationTwist(), Annulus(n=2, r0=1.0, r1=E), (16, 64)), True),
    (lambda: discrete.build_image_grid(RotationTwist(), HalfSemiring(n=2, r0=1.0, r1=E), (16, 33)),
     True),
    (lambda: discrete.build_image_grid(SHEAR, Annulus(n=2, r0=1.0, r1=E), (16, 64)), True),
    (lambda: discrete.build_image_grid(SHEAR, HalfSemiring(n=2, r0=1.0, r1=E), (16, 33)), True),
], ids=["aligned-ring", "aligned-semiring", "aligned-ring-far", "apollonian", "radial-ring",
        "radial-semiring", "twist-ring", "twist-semiring", "shear-ring", "shear-semiring"])
def test_diagonals_kept_beyond_rounding(build, moved):
    # a diagonal's conductance is half the cotangent sum of the corners facing
    # it, 0 on a cyclic quad.  An aligned grid, centred or not, writes none:
    # its quads stay cyclic within 64 eps (R / h) (2 + cot^2 + cot^2), a bound
    # on the rounding of the nodes.  Where the chart or a map moves the nodes,
    # every quad keeps the diagonal of its Delaunay split, whose facing
    # corners have the larger sum; on a cyclic quad (Apollonian, radial) the
    # two sums tie within that bound
    g = build()
    K, M = g.resolution
    quads = M if g.kind == "ring" else M - 1
    cots, R, h = quad_cotangents(g, quads)
    ac = cots[1] + cots[3] >= cots[0] + cots[2]        # the local Delaunay split
    cot_b, cot_d = np.where(ac, cots[1], cots[0]), np.where(ac, cots[3], cots[2])
    total = cot_b + cot_d
    bound = 64 * np.finfo(float).eps * R / h * (2 + cot_b ** 2 + cot_d ** 2)
    first = (K - 1) * M + K * quads
    if not moved:
        assert len(g.edges) == first
        assert np.all(np.abs(total) <= bound)
        return
    # one diagonal per quad, joining the corners of a split whose sum is the
    # larger up to the bound, and carrying half that sum
    np.testing.assert_array_equal(quad_diagonals(g, quads), np.arange(total.size))
    k, m = np.divmod(np.arange(total.size), quads)
    a_c = np.sort(np.stack([k * M + m, (k + 1) * M + (m + 1) % M], axis=1), axis=1)
    is_ac = np.all(np.sort(g.edges[first:], axis=1) == a_c, axis=1).reshape(total.shape)
    written = np.where(is_ac, cots[1] + cots[3], cots[0] + cots[2])
    assert np.all(written >= total - bound)
    np.testing.assert_allclose(g.conductance[first:], 0.5 * written.ravel(), rtol=0,
                               atol=bound.max())


@pytest.mark.parametrize("shape", [
    Annulus(n=2, r0=1.0, r1=E),
    Annulus(n=2, r0=1.0, r1=E, center=np.array([1e6, 0.0])),
    HalfSemiring(n=2, r0=1.0, r1=E),
    HalfSemiring(n=2, r0=0.5, r1=2.0, center=np.array([-1e3, 0.0])),
], ids=["ring", "ring-far", "semiring", "semiring-off-centre"])
def test_aligned_grid_takes_one_quads_cotangents(monkeypatch, shape):
    # an aligned build reads the cotangents of one source quad, which give
    # every interior conductance and the ratio; the sides on the first and
    # last layers, and on a semiring's end columns, border one triangle each,
    # so each such line carries one value and the two sum to the interior one
    real, sizes = discrete._cot, []

    def counted(u, v, w):
        sizes.extend(np.size(x) for x in (u, v, w))
        return real(u, v, w)

    monkeypatch.setattr(discrete, "_cot", counted)
    K, M = 16, 64 if shape.kind == "ring" else 33
    g = build_grid(shape, K, M)
    assert sizes and set(sizes) == {1}
    Q = M if shape.kind == "ring" else M - 1
    assert len(g.edges) == (K - 1) * M + K * Q
    radial = g.conductance[:(K - 1) * M].reshape(K - 1, M)
    angular = g.conductance[(K - 1) * M:].reshape(K, Q)
    inner = radial if shape.kind == "ring" else radial[:, 1:-1]
    assert len(np.unique(inner)) == 1 and len(np.unique(angular[1:-1])) == 1
    ends = [(angular[0], angular[-1], angular[1, 0])]
    if shape.kind == "semiring":
        ends.append((radial[:, 0], radial[:, -1], inner[0, 0]))
        # the two radial sides of a source quad, equal in exact arithmetic,
        # take their mean, so each end column carries exactly half of it
        assert radial[0, 0] == inner[0, 0] / 2
    for first, last, interior in ends:
        assert len(np.unique(first)) == len(np.unique(last)) == 1
        assert first[0] + last[0] == interior
    assert g.ratio == angular[1, 0] / inner[0, 0]


def test_apollonian_grid_in_unit_ball():
    # the chart carries the half semiring's source and sink layers onto the
    # Apollonian circles |x - xi| / |x + xi| = r0 and r1, and the grid into
    # the closed unit disk, up to rounding
    for pole in ((1.0, 0.0), (0.6, 0.8), (-1.0, 0.0)):
        shape = ApollonianSemiring(n=2, r0=0.1, r1=1.0, pole=np.array(pole))
        g = build_grid(shape, 16, 33)
        assert np.linalg.norm(g.nodes, axis=1).max() <= 1.0 + 4 * np.finfo(float).eps, pole
        ratios = (np.linalg.norm(g.nodes - shape.pole, axis=1)
                  / np.linalg.norm(g.nodes + shape.pole, axis=1))
        np.testing.assert_allclose(ratios[g.source], 0.1, rtol=1e-14, atol=0, err_msg=str(pole))
        np.testing.assert_allclose(ratios[g.sink], 1.0, rtol=1e-14, atol=0, err_msg=str(pole))
        assert 0.1 * (1 - 1e-14) <= ratios.min() and ratios.max() <= 1.0 + 1e-14, pole


def test_apollonian_image_grid_maps_the_chart_nodes():
    # an image grid over the Apollonian shape pushes the chart's nodes
    # through the map: the same nodes, bit for bit, as mapping build_grid's
    shape, shear = ApollonianSemiring(n=2, r0=0.1, r1=1.0), Linear([[1.0, 0.6], [0.0, 1.0]])
    image = discrete.build_image_grid(shear, shape, (16, 33))
    np.testing.assert_array_equal(image.nodes, shear(build_grid(shape, 16, 33).nodes))


def test_annulus_estimate_and_admissibility():
    g = build_grid(Annulus(n=2, r0=1.0, r1=E), 32, 128)
    est = modulus_connect(g)
    assert est.m_gamma == pytest.approx(TWO_PI, rel=0.02)
    assert est.residual <= 1e-8
    # admissibility of the density |dphi| / length, checked independently
    assert least_path_drop(g, est.potential) >= 1.0 - 1e-9


def test_semiring_estimate():
    g = build_grid(HalfSemiring(n=2, r0=1.0, r1=E), 32, 65)
    est = modulus_connect(g)
    assert est.m_gamma == pytest.approx(math.pi, rel=0.02)
    assert est.mo == pytest.approx(1.0, rel=0.02)


def test_apollonian_estimate():
    g = build_grid(ApollonianSemiring(n=2, r0=0.1, r1=1.0), 32, 65)
    est = modulus_connect(g)
    assert est.mo == pytest.approx(math.log(10.0), rel=0.03)


def test_refinement_errors_decrease():
    rels = []
    for (K, M) in ((16, 64), (32, 128), (64, 256)):
        g = build_grid(Annulus(n=2, r0=1.0, r1=E), K, M)
        est = modulus_connect(g)
        rels.append(abs(est.m_gamma - TWO_PI) / TWO_PI)
    assert rels[0] > rels[1] > rels[2]


def test_three_dimensional_refinement_order():
    # m_gamma against 4 pi on Annulus(3, 1, e): the error falls by about 4
    # per doubling, the h^2 order a Richardson estimate assumes
    errs = [abs(modulus_connect(build_grid(Annulus(n=3, r0=1.0, r1=E), k, k)).m_gamma
                - 4 * math.pi) for k in (16, 32, 64)]
    ratios = [errs[0] / errs[1], errs[1] / errs[2]]
    assert all(3.5 < r < 4.5 for r in ratios), ratios


def test_symmetry_principle():
    ea = modulus_connect(build_grid(Annulus(n=2, r0=1.0, r1=E), 32, 128))
    es = modulus_connect(build_grid(HalfSemiring(n=2, r0=1.0, r1=E), 32, 65))
    assert es.m_gamma == pytest.approx(ea.m_gamma / 2.0, rel=1e-14)


def test_three_dimensional_grid():
    g = build_grid(HalfSemiring(n=3, r0=1.0, r1=E), 12, 8)
    assert g.p == 3.0
    est = modulus_connect(g)
    assert est.m_gamma == pytest.approx(TWO_PI, rel=0.05)
    assert est.mo == pytest.approx(1.0, rel=0.05)


def test_determinism():
    g1 = build_grid(Annulus(n=2, r0=1.0, r1=E), 16, 64)
    g2 = build_grid(Annulus(n=2, r0=1.0, r1=E), 16, 64)
    e1 = modulus_connect(g1)
    e2 = modulus_connect(g2)
    assert e1.m_gamma == e2.m_gamma
    assert np.array_equal(e1.potential, e2.potential)


def test_image_identity():
    shape = HalfSemiring(n=2, r0=1.0, r1=E)
    est = image_modulus(Identity(), shape, (32, 65))
    assert est.mo == pytest.approx(1.0, rel=0.02)


def test_image_radial_stretch():
    shape = HalfSemiring(n=2, r0=1.0, r1=E)
    est = image_modulus(RadialStretch(a=0.8), shape, (32, 65))
    assert est.mo == pytest.approx(0.8, rel=0.02)


def test_image_twist_matches_direct():
    shape = Annulus(n=2, r0=1.0, r1=E)
    direct = modulus_connect(build_grid(shape, 32, 128))
    img = image_modulus(RotationTwist(), shape, (32, 128))
    assert img.mo == pytest.approx(direct.mo, rel=0.01)
    assert img.mo == pytest.approx(1.0, rel=0.02)


def test_linear_images_within_certified_brackets():
    # brackets from conforming P1 energies of the connecting and the
    # conjugate problem on nested polygonal rings at 128x512
    ring = Annulus(n=2, r0=1.0, r1=E)
    for matrix, (lo, hi) in ((np.diag([2.0, 1.0]), (0.843596, 0.843679)),
                             (np.array([[1.0, 0.6], [0.0, 1.0]]), (0.881555, 0.881637))):
        mo = image_modulus(Linear(matrix), ring, (64, 256)).mo
        assert lo * (1.0 - 2e-4) <= mo <= hi * (1.0 + 2e-4), (matrix.tolist(), mo)


def test_twisted_semiring_within_certified_bracket():
    # in log-polar coordinates the image is the parallelogram
    # {0 <= s <= 1, 0 <= phi - 2 s <= pi}, certified at 129x385; its corners
    # slow convergence (the error falls by about 2.4 per doubling), so the
    # grid value trails the bracket by about 3e-3
    mo = image_modulus(RotationTwist(), HalfSemiring(n=2, r0=1.0, r1=E), (64, 129)).mo
    assert 1.69068 - 5e-3 <= mo <= 1.69821 + 5e-3, mo


def test_image_grid_refuses_overflowing_map():
    # |x|^399 x overflows at |x| = 1e3, so every mapped node is inf
    steep = RadialStretch(a=400.0)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ValueError, match="radial:a=400.*non-finite"):
        image_modulus(steep, HalfSemiring(n=2, r0=1e3, r1=2e3), (8, 17))


def test_disconnected_graph_rejected():
    g = GridGraph(
        nodes=np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]),
        edges=np.array([[0, 1], [2, 3]]),
        conductance=np.ones(2),
        source=np.array([0]),
        sink=np.array([3]),
        p=2.0, kind="ring", resolution=(1, 1),
    )
    with pytest.raises(ValueError, match="disconnected"):
        modulus_connect(g)


def test_solver_failures_raise_convergence_error(monkeypatch):
    # builder grids run CG with the source transforms, and a copy made by
    # dataclasses.replace with Jacobi: a stalled CG is caught under either
    apollonian = build_grid(ApollonianSemiring(n=2, r0=0.1, r1=1.0), 16, 33)
    shear = discrete.build_image_grid(Linear(np.array([[1.0, 0.6], [0.0, 1.0]])),
                                      Annulus(n=2, r0=1.0, r1=E), (16, 64))
    preconditioners = []

    def stalled_cg(A, b, **kwargs):
        preconditioners.append(kwargs["M"])
        return np.zeros_like(b), 17

    with monkeypatch.context() as m:
        m.setattr(discrete, "cg", stalled_cg)
        for g in (apollonian, shear, replace(shear)):
            with pytest.raises(ConvergenceError, match="conjugate gradients"):
                modulus_connect(g)
    assert [isinstance(M, LinearOperator) for M in preconditioners] == [True, True, False]
    # a Newton step cap of one is too few for unequal chain conductances at p = 3
    monkeypatch.setattr(discrete, "_NEWTON_CAP", 1)
    with pytest.raises(ConvergenceError, match="Newton"):
        modulus_connect(chain_graph([[1.0, 2.0, 0.5], [3.0, 0.25]], 3.0))


def test_graph_validation():
    with pytest.raises(ValueError):
        GridGraph(nodes=np.zeros((2, 2)), edges=np.array([[0, 1]]),
                  conductance=np.array([1.0]),
                  source=np.array([0]), sink=np.array([0]),
                  p=2.0, kind="ring", resolution=(1, 1))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            single_edge_graph(conductance=bad)
    # one conductance per edge, and every edge end a node index
    with pytest.raises(ValueError, match="conductance"):
        GridGraph(nodes=np.zeros((2, 2)), edges=np.array([[0, 1]]),
                  conductance=np.ones(2),
                  source=np.array([0]), sink=np.array([1]),
                  p=2.0, kind="ring", resolution=(1, 1))
    with pytest.raises(ValueError, match="edges"):
        GridGraph(nodes=np.zeros((2, 2)), edges=np.array([[0, 2]]),
                  conductance=np.ones(1),
                  source=np.array([0]), sink=np.array([1]),
                  p=2.0, kind="ring", resolution=(1, 1))
    with pytest.raises(ValueError, match="exponent"):
        modulus_connect(single_edge_graph(p=1.5))
    # Newton needs a convex energy: no non-positive conductance where p > 2
    with pytest.raises(ValueError, match="positive"):
        single_edge_graph(conductance=-1.0, p=3.0)
    # p = 2 takes signed conductances, but the Jacobi preconditioner needs a
    # positive Laplacian diagonal at every free node; node 1 has 1 - 1 = 0
    g = GridGraph(nodes=np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]),
                  edges=np.array([[0, 1], [1, 2]]),
                  conductance=np.array([1.0, -1.0]), source=np.array([0]), sink=np.array([2]),
                  p=2.0, kind="ring", resolution=(3, 1))
    with pytest.raises(ValueError, match="diagonal"):
        modulus_connect(g)


def test_graph_refuses_malformed_edges_and_terminals():
    # a 4-node chain 0 - 1 - 2 - 3 from source 0 to sink 3
    chain = chain_graph([[1.0, 1.0, 1.0]], 2.0)
    assert modulus_connect(chain).m_gamma == pytest.approx(1.0 / 3.0, rel=1e-12)
    # a sink id N would fail inside the solver's indexing, and a negative id
    # would wrap: source -4 is node 0, the sink, named twice
    for source, sink, name in (([0], [4], "sink"), ([-4], [0], "source"),
                               ([0], [-1], "sink"), ([5], [3], "source")):
        with pytest.raises(ValueError, match=name):
            replace(chain, source=np.array(source), sink=np.array(sink))
    # edges must be integer node ids in an (E, 2) array
    for edges in (chain.edges.astype(float), np.array([[0, 1, 2], [1, 2, 3]]),
                  chain.edges.ravel(), chain.edges[:, :, None]):
        with pytest.raises(ValueError, match="edges"):
            replace(chain, edges=edges, conductance=np.ones(len(edges)))
