import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra

from ringmod import (
    Annulus,
    ApollonianSemiring,
    ConvergenceError,
    GridGraph,
    HalfSemiring,
    Identity,
    RadialStretch,
    RotationTwist,
    build_grid,
    image_modulus,
    mo_from_gamma,
    modulus_connect,
)
from ringmod import discrete

E = math.e
TWO_PI = 2 * math.pi


def single_edge_graph(length=1.0, weight=None, p=2.0):
    return GridGraph(
        nodes=np.array([[0.0, 0.0], [length, 0.0]]),
        edges=np.array([[0, 1]]),
        lengths=np.array([length]),
        weights=np.array([weight if weight is not None else length]),
        source=np.array([0]),
        sink=np.array([1]),
        p=p,
        dim=2,
        kind="ring",
        resolution=(1, 1),
    )


def chain_graph(chains, p):
    """Disjoint source-sink chains; chain k has edge conductances chains[k].

    Lengths vary along each chain and weights are set so that
    sigma = weight / length^p takes the given values.
    """
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
    lengths = 0.5 + 0.25 * np.arange(len(edges))
    return GridGraph(
        nodes=np.stack([np.arange(float(node)), np.zeros(node)], axis=1),
        edges=np.array(edges), lengths=lengths,
        weights=np.array(sigma) * lengths ** p,
        source=np.array(source), sink=np.array(sink),
        p=p, dim=2, kind="ring", resolution=(len(chains), 1),
    )


def chain_modulus(sigma, p):
    """p-modulus of one chain: (sum sigma_e^(-1/(p-1)))^(-(p-1))."""
    return float(np.sum(np.asarray(sigma) ** (-1.0 / (p - 1.0))) ** (1.0 - p))


def shortest_rho_length(g, rho):
    """Least rho-length of a source-sink path, by Dijkstra from a supersource."""
    N = len(g.nodes)
    s, t = N, N + 1
    rows = np.concatenate([g.edges[:, 0], g.edges[:, 1], np.full(len(g.source), s), g.sink])
    cols = np.concatenate([g.edges[:, 1], g.edges[:, 0], g.source, np.full(len(g.sink), t)])
    w = g.lengths * rho
    data = np.concatenate([w, w, np.zeros(len(g.source) + len(g.sink))])
    dist = dijkstra(sp.csr_matrix((data, (rows, cols)), shape=(N + 2, N + 2)), indices=s)
    return dist[t]


def test_single_edge():
    est = modulus_connect(single_edge_graph())
    assert est.m_gamma == pytest.approx(1.0, abs=1e-5)
    assert est.rho[0] == pytest.approx(1.0, abs=1e-5)
    assert est.residual <= 1e-8


def test_series_and_parallel_edges():
    for p in (2.0, 3.0):
        # two unit edges in series: admissibility splits, energy 2^(1-p)
        g = GridGraph(
            nodes=np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]),
            edges=np.array([[0, 1], [1, 2]]),
            lengths=np.ones(2),
            weights=np.ones(2),
            source=np.array([0]),
            sink=np.array([2]),
            p=p, dim=2, kind="ring", resolution=(2, 1),
        )
        est = modulus_connect(g)
        assert est.m_gamma == pytest.approx(2.0 ** (1.0 - p), abs=1e-5)
        # two disjoint unit edges in parallel: moduli add
        g = GridGraph(
            nodes=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
            edges=np.array([[0, 1], [2, 3]]),
            lengths=np.ones(2),
            weights=np.ones(2),
            source=np.array([0, 2]),
            sink=np.array([1, 3]),
            p=p, dim=2, kind="ring", resolution=(1, 2),
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
        if p == 2.0:
            assert est.iterations == 1
        else:
            assert est.iterations > 2


def test_mo_from_gamma():
    assert mo_from_gamma(math.pi, "semiring", 2) == pytest.approx(1.0)
    assert mo_from_gamma(TWO_PI, "ring", 2) == pytest.approx(1.0)
    assert mo_from_gamma(TWO_PI, "semiring", 3) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        mo_from_gamma(-1.0, "ring", 2)
    with pytest.raises(ValueError):
        mo_from_gamma(1.0, "blob", 2)


def test_build_grid_structure():
    g = build_grid(Annulus(n=2, r0=1.0, r1=E), 16, 64)
    assert len(g.nodes) == 16 * 64
    assert len(g.source) == 64 and len(g.sink) == 64
    assert not set(g.source) & set(g.sink)
    g = build_grid(HalfSemiring(n=2, r0=1.0, r1=E), 16, 33)
    assert len(g.nodes) == 16 * 33
    assert len(g.source) == 33 and len(g.sink) == 33
    # semiring nodes stay in the closed upper half plane
    assert g.nodes[:, 1].min() >= -1e-12
    with pytest.raises(ValueError):
        build_grid(Annulus(n=2, r0=1.0, r1=E), 4, 64)


def test_apollonian_grid_in_unit_ball():
    shape = ApollonianSemiring(n=2, r0=0.1, r1=1.0)
    g = build_grid(shape, 16, 33)
    assert np.linalg.norm(g.nodes, axis=1).max() <= 1.0 + 1e-9
    ratios = (np.linalg.norm(g.nodes - shape.pole, axis=1)
              / np.linalg.norm(g.nodes + shape.pole, axis=1))
    assert ratios.min() >= 0.1 - 1e-9
    assert ratios.max() <= 1.0 + 1e-9


def test_annulus_estimate_and_admissibility():
    g = build_grid(Annulus(n=2, r0=1.0, r1=E), 32, 128)
    est = modulus_connect(g)
    assert est.m_gamma == pytest.approx(TWO_PI, rel=0.02)
    assert est.residual <= 1e-8
    # admissibility of the returned density, checked independently
    assert shortest_rho_length(g, est.rho) >= 1.0 - 1e-9


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


def test_symmetry_principle():
    ea = modulus_connect(build_grid(Annulus(n=2, r0=1.0, r1=E), 32, 128))
    es = modulus_connect(build_grid(HalfSemiring(n=2, r0=1.0, r1=E), 32, 65))
    assert es.m_gamma == pytest.approx(ea.m_gamma / 2.0, rel=0.03)


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
    assert np.array_equal(e1.rho, e2.rho)


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


def test_disconnected_graph_rejected():
    g = GridGraph(
        nodes=np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]),
        edges=np.array([[0, 1], [2, 3]]),
        lengths=np.ones(2),
        weights=np.ones(2),
        source=np.array([0]),
        sink=np.array([3]),
        p=2.0, dim=2, kind="ring", resolution=(1, 1),
    )
    with pytest.raises(ValueError, match="disconnected"):
        modulus_connect(g)


def test_solver_failures_raise_convergence_error(monkeypatch):
    g = build_grid(ApollonianSemiring(n=2, r0=0.1, r1=1.0), 16, 33)

    def stalled_cg(A, b, **kwargs):
        return np.zeros_like(b), 17

    with monkeypatch.context() as m:
        m.setattr(discrete, "cg", stalled_cg)
        with pytest.raises(ConvergenceError, match="conjugate gradients"):
            modulus_connect(g)
    # a Newton step cap of one is too few for unequal chain conductances at p = 3
    monkeypatch.setattr(discrete, "_NEWTON_CAP", 1)
    with pytest.raises(ConvergenceError, match="Newton"):
        modulus_connect(chain_graph([[1.0, 2.0, 0.5], [3.0, 0.25]], 3.0))


def test_graph_validation():
    with pytest.raises(ValueError):
        GridGraph(nodes=np.zeros((2, 2)), edges=np.array([[0, 1]]),
                  lengths=np.array([0.0]), weights=np.array([1.0]),
                  source=np.array([0]), sink=np.array([1]),
                  p=2.0, dim=2, kind="ring", resolution=(1, 1))
    with pytest.raises(ValueError):
        GridGraph(nodes=np.zeros((2, 2)), edges=np.array([[0, 1]]),
                  lengths=np.array([1.0]), weights=np.array([1.0]),
                  source=np.array([0]), sink=np.array([0]),
                  p=2.0, dim=2, kind="ring", resolution=(1, 1))
    with pytest.raises(ValueError, match="exponent"):
        modulus_connect(single_edge_graph(p=1.5))
