import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from ringmod import (
    Identity,
    IrregularPointError,
    Linear,
    RadialStretch,
    RotationTwist,
    directional_sample,
    matrix_dilatations,
    max_directional_stretch,
    min_directional_stretch,
    psi_D,
)
from ringmod.bounds import modintbound_with_error
from ringmod.dilatation import (
    _BISECTIONS,
    _BLOCK,
    _NEWTON_STEPS,
    _det_dual,
    _max_stretch_block,
    _max_stretch_planar,
    angular_dilatation_field,
    normal_dilatation_field,
)
from ringmod.harness import _dual_max_stretch

SQ2 = math.sqrt(2.0)


def test_matrix_dilatations_examples():
    md = matrix_dilatations(np.eye(3))
    assert (md.norm, md.small, md.inner, md.outer, md.linear) == (1, 1, 1, 1, 1)
    md = matrix_dilatations(np.diag([2.0, 0.5]))
    assert md.norm == pytest.approx(2.0)
    assert md.small == pytest.approx(0.5)
    assert md.det_abs == pytest.approx(1.0)
    assert md.inner == pytest.approx(4.0)
    assert md.outer == pytest.approx(4.0)
    assert md.linear == pytest.approx(4.0)
    with pytest.raises(IrregularPointError):
        matrix_dilatations(np.array([[1.0, 2.0], [2.0, 4.0]]))


def test_twist_jacobian_coefficients():
    tw = RotationTwist()
    x = np.array([0.4, -0.7])
    md = matrix_dilatations(tw.jacobian(x))
    assert md.inner == pytest.approx((1 + SQ2) ** 2, abs=1e-9)
    assert md.outer == pytest.approx((1 + SQ2) ** 2, abs=1e-9)


def test_coefficient_chain_random():
    rng = np.random.default_rng(42)
    for n in (2, 3, 4):
        for _ in range(300):
            A = rng.standard_normal((n, n))
            if abs(np.linalg.det(A)) < 1e-6:
                continue
            md = matrix_dilatations(A)
            h = md.linear
            lo, hi = min(md.inner, md.outer), max(md.inner, md.outer)
            tol = 1e-9 * max(1.0, hi)
            assert h <= lo + tol
            assert lo <= h ** (n / 2.0) + tol
            assert h ** (n / 2.0) <= hi + tol
            assert hi <= h ** (n - 1.0) + tol


def test_min_stretch_closed_form_vs_sampling():
    rng = np.random.default_rng(3)
    th = np.arange(100_000) * (2 * math.pi / 100_000)
    H = np.stack([np.cos(th), np.sin(th)], axis=1)
    for _ in range(100):
        A = rng.standard_normal((2, 2))
        if abs(np.linalg.det(A)) < 1e-2:
            continue
        u = rng.standard_normal(2)
        u /= np.linalg.norm(u)
        dots = np.abs(H @ u)
        mask = dots > 1e-9
        sampled = np.min(np.linalg.norm(H[mask] @ A.T, axis=1) / dots[mask])
        assert min_directional_stretch(A, u) == pytest.approx(sampled, rel=1e-3)


def test_min_stretch_radial():
    a = 0.8
    u = np.array([1.0, 0.0])
    A = RadialStretch(a=a).jacobian(u)
    assert min_directional_stretch(A, u) == pytest.approx(a, abs=1e-12)


@pytest.mark.parametrize("a,expected", [
    (0.8, 0.8),                       # boundary maximum at h = u since a^2 > 1/2
    (0.5, 0.5773502691896258),        # interior maximum, value 1/sqrt(3)
])
def test_max_stretch_radial_cases(a, expected):
    u = np.array([1.0, 0.0])
    A = RadialStretch(a=a).jacobian(u)
    assert max_directional_stretch(A, u) == pytest.approx(expected, abs=1e-9)


def test_max_stretch_identity():
    u = np.array([0.0, 1.0])
    assert max_directional_stretch(np.eye(2), u) == pytest.approx(1.0, abs=1e-10)


def _radial_closed_form(a):
    return 1.0 / (2.0 * math.sqrt(1.0 - a * a)) if a * a <= 0.5 else a


def _hard_cases(rng):
    """(A, u, closed form or None) with u orthogonal or nearly orthogonal to
    eigenvectors of A^T A: the trust-region hard case and its neighbours, at a
    simple and at a repeated top eigenvalue."""
    cases = []
    for n in (2, 3, 4):
        axis = np.eye(n)[0]
        tilted = rng.standard_normal(n)
        tilted /= np.linalg.norm(tilted)
        for a in (0.3, 0.5, 0.8, 1.6):
            for x in (axis, tilted):       # |x| = 1, x0 = 0: u = x is an eigenvector
                cases.append((RadialStretch(a=a).jacobian(x), x, _radial_closed_form(a)))
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        u = rng.standard_normal(n)
        cases.append((2.5 * Q, u / np.linalg.norm(u), 2.5))     # B = 6.25 I, repeated
        D = np.diag(rng.uniform(0.2, 3.0, n))
        cases += [(D, e, None) for e in np.eye(n)]
    cases += [(A + 1e-8 * rng.standard_normal(A.shape), u, None) for A, u, _ in cases]
    # near-hard sweep: u on an eigen-axis of a diagonal A, perturbed at 1e-12 .. 1e-7
    for _ in range(100):
        A = np.diag(rng.uniform(0.2, 3.0, 4)) + 10.0 ** rng.uniform(-12, -7) * rng.standard_normal((4, 4))
        cases.append((A, np.eye(4)[rng.integers(4)], None))
    # a tied top eigenvalue of A^T A, split by eigh's rounding, with u on the bottom
    # eigenvector: beta = (0.5, ..., 4, 4), A = diag(sqrt(beta)) Q^T and u = Q e1, so
    # that the maximum is sqrt(beta_max^2 / (4 (beta_max - beta_min))) = sqrt(8/7)
    for n in (3, 4, 5):
        beta = np.array([0.5, 1.0, 2.0][:n - 2] + [4.0, 4.0])
        Q = np.linalg.qr(np.random.default_rng(0).standard_normal((500, n, n)))[0]
        cases += [(np.sqrt(beta)[:, None] * q.T, q[:, 0], math.sqrt(8.0 / 7.0)) for q in Q]
    return cases


def test_max_stretch_never_below_sampling():
    rng = np.random.default_rng(8)
    sphere = {}
    for n in (2, 3, 4, 5):
        dirs = sphere[n] = rng.standard_normal((20_000, n))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        for _ in range(25):
            A = rng.standard_normal((n, n))
            u = rng.standard_normal(n)
            u /= np.linalg.norm(u)
            sampled = np.max(np.linalg.norm(dirs @ A.T, axis=1) * np.abs(dirs @ u))
            exact = max_directional_stretch(A, u)
            assert exact >= sampled - 1e-9
            assert exact == pytest.approx(_dual_max_stretch(A, u), rel=1e-12)
    cases = _hard_cases(rng)
    for n, dirs in sphere.items():
        A, u, closed = (np.array(c, dtype=float) for c in zip(*(c for c in cases if len(c[1]) == n)))
        exact = max_directional_stretch(A, u)
        sampled = [np.max(np.linalg.norm(dirs @ a.T, axis=1) * np.abs(dirs @ v)) for a, v in zip(A, u)]
        assert np.all(exact >= np.array(sampled) - 1e-9)
        np.testing.assert_allclose(exact, _dual_max_stretch(A, u), rtol=1e-12, atol=0.0)
        known = ~np.isnan(closed)
        np.testing.assert_allclose(exact[known], closed[known], rtol=1e-12, atol=0.0)


def _near_hard_window(rng, n, reps):
    """(A, u) with A^T A = Q diag(beta) Q^T and one or two eigen-components y_j
    of u set to a size from 1e-12 to 0.3, a second one 1000 times smaller:
    small components at the top pole, where the secular polynomial is
    rooted, and at the others, where it is not."""
    As, us = [], []
    for size in (1e-12, 1e-9, 1e-6, 1e-5, 1e-4, 1e-3, 5e-3, 2e-2, 0.1, 0.3):
        for count in range(1, min(2, n - 1) + 1):
            for _ in range(reps):
                Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
                beta = rng.uniform(0.05, 9.0, n)
                y = rng.standard_normal(n)
                small = rng.choice(n, count, replace=False)
                rest = np.setdiff1d(np.arange(n), small)
                y[small] = size * np.sign(y[small]) * np.array([1.0, 1e-3])[:count]
                y[rest] *= math.sqrt(1.0 - np.sum(y[small] ** 2)) / np.linalg.norm(y[rest])
                As.append(np.sqrt(beta)[:, None] * Q.T)
                us.append(Q @ y)
    return np.array(As), np.array(us)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_max_stretch_near_hard_window(n):
    As, us = _near_hard_window(np.random.default_rng(70 + n), n, 30)
    exact = max_directional_stretch(As, us)
    for e, d in zip(exact, _dual_max_stretch(As, us)):
        assert e == pytest.approx(d, rel=1e-12)


def _companion_max_stretch(A: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The maximal stretch for A: (N, n, n) and unit u: (N, n) from all roots of
    the secular polynomial: the former kernel for n >= 3, kept as a test oracle.
    ``_max_stretch_batch`` scales A to entries below 1 in size first, so
    that A^T A neither overflows nor underflows; the coefficients below, in
    beta / beta_max, do not depend on the scale of A.

    With B = A^T A = V diag(beta) V^T and y = V^T u, the squared objective
    (h^T B h)(h.u)^2 is stationary on the sphere where (beta_i - alpha) h_i
    is proportional to y_i, with alpha = 2 h^T B h.  Eliminating h leaves the
    secular equation sum_i y_i^2 (alpha - 2 beta_i) / (beta_i - alpha)^2 = 0,
    a polynomial of degree 2n - 1.  Its roots come from companion-matrix
    eigenvalues in the scaled variable s = (alpha - beta_max) / beta_max, in
    which the poles d_i = (beta_i - beta_max) / beta_max lie in [-1, 0],
    beta_i - alpha = beta_max (d_i - s) needs no cancelling subtraction and
    h is proportional to y / (d - s).  The maximizer has
    beta_max <= alpha <= 2 beta_max, so s in [0, 1]: h^T B h <= beta_max
    gives the upper end; by the dual (``_dual_max_stretch``) h is the top
    eigenvector of B / k + k u u^T, with eigenvalue 2 h^T B h / k >=
    beta_max / k, which gives the lower.  Roots near a pole with a small y_i lose their accuracy
    unless the shift sits at that pole, and only the top one can hold the
    maximizer, so each point is rooted once, at the top shift.

    The hard case alpha = beta_k with y_k = 0 (More & Sorensen 1983) then
    has beta_k = beta_max, and h = gamma z +- tau e_top with z = y / d off
    the top eigenspace and 0 on it, where |h| = 1 and h^T B h = beta_max / 2
    fix gamma^2 and tau^2; both signs are kept, since a tiny nonzero y_top
    decides which one is larger.  ``eigh`` splits a top eigenvalue of
    multiplicity m by rounding, which leaves y / d of order 1 in the tied
    components, so one candidate pair is taken for each possible m = 1 ..
    n - 1, with the top m components of z set to 0; no threshold decides m.
    Every candidate is a unit vector after scaling, so none exceeds the
    maximum, and the maximizer is among them.
    """
    beta, V = np.linalg.eigh(np.swapaxes(A, -1, -2) @ A)
    y = np.einsum("nji,nj->ni", V, u)
    N, n = y.shape
    deg = 2 * n - 1
    top = np.fmax(beta[:, -1:], np.finfo(float).tiny)    # A = 0 has beta_max = 0
    d = (beta - top) / top
    # ascending coefficients in s of sum_i y_i^2 (s - 1 - 2 d_i) prod_{j != i} (d_j - s)^2
    coef = np.zeros((N, deg + 1))
    for i in range(n):
        p = np.zeros((N, deg + 1))
        p[:, 0] = -1.0 - 2.0 * d[:, i]
        p[:, 1] = 1.0
        for j in range(n):
            if j != i:      # times (d_j - s)^2; the rolled-over top entries are still zero
                c = d[:, j, None]
                p = c * c * p - 2.0 * c * np.roll(p, 1, axis=-1) + np.roll(p, 2, axis=-1)
        coef += y[:, i, None] ** 2 * p
    companion = np.zeros((N, deg, deg))
    companion[:, 1:, :-1] = np.eye(deg - 1)
    companion[:, :, -1] = -coef[:, :-1] / coef[:, -1:]
    s = np.linalg.eigvals(companion).real             # (N, deg)

    # infeasible or degenerate candidates come out non-finite and count as 0
    with np.errstate(divide="ignore", invalid="ignore"):
        generic = _best_candidate(y[:, None, :] / (d[:, None, :] - s[..., None]), beta, y)
        # z[:, m - 1] is y / d with its top m components set to 0
        z = np.where(np.arange(n) < n - np.arange(1, n)[:, None], (y / d)[:, None, :], 0.0)
        gamma = np.sqrt(-1.0 / (2.0 * np.einsum("nmi,ni->nm", z, y)))
        tau = np.sqrt(1.0 - gamma ** 2 * np.einsum("nmi,nmi->nm", z, z))
        hard = [gamma[..., None] * z + sign * tau[..., None] * np.eye(n)[-1] for sign in (1.0, -1.0)]
        return np.maximum.reduce([generic, *(_best_candidate(H, beta, y) for H in hard)])


def _best_candidate(H: np.ndarray, beta: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Largest |Ah| |h.u| / |h|^2 over candidate rows H: (N, S, n) in eigen-coordinates."""
    val = (np.sqrt(np.einsum("nsi,nsi,ni->ns", H, H, beta)) * np.abs(np.einsum("nsi,ni->ns", H, y))
           / np.einsum("nsi,nsi->ns", H, H))
    return np.where(np.isfinite(val), val, 0.0).max(axis=1)


def _unit_scaled(A):
    """A over the power of two of its largest entry, as ``_max_stretch_batch`` scales it."""
    return np.ldexp(A, -np.frexp(np.abs(A).max(axis=(1, 2)))[1][:, None, None])


def _oracle_families(rng, n):
    """(A, u) at n: random; columns scaled by 1e-3 .. 1e3; the near-hard
    windows; u an eigenvector of A^T A, exactly and perturbed by 1e-12 ..
    1e-4; and the hard cases of ``_hard_cases``."""
    count = 300
    A = rng.standard_normal((4, count, n, n))
    A[1] *= 10.0 ** rng.uniform(-3.0, 3.0, (count, 1, n))
    u = rng.standard_normal((2, count, n))
    _, V = np.linalg.eigh(np.swapaxes(A[2:], -1, -2) @ A[2:])
    axis = np.take_along_axis(V, rng.integers(n, size=(1, count, 1, 1)), axis=-1)[..., 0]
    axis[1] += 10.0 ** rng.uniform(-12.0, -4.0, (count, 1)) * rng.standard_normal((count, n))
    near_A, near_u = _near_hard_window(rng, n, 10)
    hard = [(a, v) for a, v, _ in _hard_cases(rng) if len(v) == n]
    As = np.concatenate([A.reshape(-1, n, n), near_A, [a for a, _ in hard]])
    us = np.concatenate([u.reshape(-1, n), axis.reshape(-1, n), near_u, [v for _, v in hard]])
    return _unit_scaled(As), us / np.linalg.norm(us, axis=1, keepdims=True)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_max_stretch_matches_dual_and_companion_oracle(n):
    A, u = _oracle_families(np.random.default_rng(80 + n), n)
    mx = _max_stretch_block(A, u)
    np.testing.assert_allclose(mx, _companion_max_stretch(A, u), rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(mx, _dual_max_stretch(A, u), rtol=1e-12, atol=0.0)


def _in_order_max_stretch(A: np.ndarray, u: np.ndarray, bisections: int = _BISECTIONS,
                          newton_steps: int = _NEWTON_STEPS):
    """``_max_stretch_block`` on row-major (N, n, n) and (N, n) arrays, with
    every sum over components written out in index order and the counts of
    its root schedule as arguments.  62 bisections, which end on adjacent
    doubles, and no Newton step are the former kernel, whose candidate was
    the upper end of that bracket.  Returns the maximal stretch and phi =
    f / W at each Newton iterate, NaN where f is positive at no bisection
    point: y_top = 0 or nearly, where the hard-case pair holds the maximizer."""
    N, n = u.shape

    def total(terms):
        out = terms[0]
        for t in terms[1:]:
            out = out + t
        return out

    def score(h):
        val = (np.sqrt(total([h[:, i] * h[:, i] * beta[:, i] for i in range(n)]))
               * np.abs(total([h[:, i] * y[:, i] for i in range(n)]))
               / total([h[:, i] * h[:, i] for i in range(n)]))
        return np.where(np.isfinite(val), val, 0.0)

    B = np.empty((N, n, n))
    for i in range(n):
        for j in range(n):
            B[:, i, j] = total([A[:, k, i] * A[:, k, j] for k in range(n)])
    beta, V = np.linalg.eigh(B)
    y = np.stack([total([V[:, j, i] * u[:, j] for j in range(n)]) for i in range(n)], axis=1)
    top = np.fmax(beta[:, -1:], np.finfo(float).tiny)
    d = (beta - top) / top
    e = 1.0 + 2.0 * d
    c = 2.0 * e - d
    lo, hi = np.zeros(N, np.int64), np.full(N, np.float64(1.0).view(np.int64))
    phi = []
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for _ in range(bisections):
            mid = (lo + hi) >> 1
            s = mid.view(float)
            q = y / (d - s[:, None])
            positive = total([q[:, i] * q[:, i] * (e[:, i] - s) for i in range(n)]) > 0.0
            lo, hi = np.where(positive, mid, lo), np.where(positive, hi, mid)
        lo, hi = lo.view(float), hi.view(float)
        sign_change = lo > 0.0
        s = 0.5 * (lo + hi) if newton_steps else hi
        for _ in range(newton_steps):
            r = 1.0 / (d - s[:, None])
            q = y * r
            w = q * q
            g = w * r
            f = total([w[:, i] * (e[:, i] - s) for i in range(n)])
            W = total([w[:, i] for i in range(n)])
            phi.append(np.where(sign_change, f / W, np.nan))
            positive = f > 0.0
            lo, hi = np.where(positive, s, lo), np.where(positive, hi, s)
            df = total([g[:, i] * (c[:, i] - s) for i in range(n)])
            s = s - f / (df - f / W * (2.0 * total([g[:, i] for i in range(n)])))
            s = np.where(np.isfinite(s), np.clip(s, lo, hi), 0.5 * (lo + hi))
        best = score(y / (d - s[:, None]))
        for m in range(1, n):
            z = np.where(np.arange(n) < n - m, y / d, 0.0)
            gamma = np.sqrt(-1.0 / (2.0 * total([z[:, i] * y[:, i] for i in range(n)])))
            tau = np.sqrt(1.0 - gamma ** 2 * total([z[:, i] * z[:, i] for i in range(n)]))
            for sign in (1.0, -1.0):
                best = np.maximum(best, score(gamma[:, None] * z + sign * tau[:, None] * np.eye(n)[-1]))
    return best, np.array(phi)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_max_stretch_kernel_is_the_in_order_reference_in_either_layout(n):
    # the kernel sums over components in index order on rows; einsum's order
    # differed from it at 14% of n = 3 points
    rng = np.random.default_rng(90 + n)
    A, u = _schedule_families(rng, n)
    X = rng.uniform(0.2, 2.0, (500, n))
    twist = _unit_scaled(RotationTwist().jacobian(X))      # component-major, as the field has it
    A, u = np.concatenate([A, twist]), np.concatenate([u, X / np.linalg.norm(X, axis=1, keepdims=True)])
    expected, _ = _in_order_max_stretch(A, u)
    np.testing.assert_array_equal(_max_stretch_block(A, u), expected)
    component_major = np.moveaxis(np.ascontiguousarray(np.moveaxis(A, 0, -1)), -1, 0)
    np.testing.assert_array_equal(_max_stretch_block(component_major, u), expected)
    np.testing.assert_array_equal(_max_stretch_block(twist, u[-500:]), expected[-500:])


def _tiny_root_family(rng, n, count=300):
    """(A, u) with A^T A = Q diag(beta) Q^T and u nearly orthogonal to its top
    eigenvector: |y_top| from 1e-4 down to 1e-150, so that the secular root,
    about |y_top| in size where there is one, spans many binades."""
    Q = np.linalg.qr(rng.standard_normal((count, n, n)))[0]
    beta = np.sort(rng.uniform(0.05, 9.0, (count, n)), axis=1)
    y = rng.standard_normal((count, n))
    y[:, -1] = np.sign(y[:, -1]) * 10.0 ** -rng.uniform(4.0, 150.0, count)
    y[:, :-1] *= np.sqrt(1.0 - y[:, -1:] ** 2) / np.linalg.norm(y[:, :-1], axis=1, keepdims=True)
    return np.sqrt(beta)[:, :, None] * np.swapaxes(Q, 1, 2), np.einsum("nij,nj->ni", Q, y)


def _schedule_families(rng, n):
    """(A, u) at n, scaled as the kernel gets them: ``_oracle_families``,
    twist Jacobians, ``_tied_top_family``, ``_near_hard_window`` and
    ``_tiny_root_family``."""
    X = rng.uniform(0.2, 2.0, (500, n))
    parts = [_oracle_families(rng, n), (RotationTwist().jacobian(X), X / np.linalg.norm(X, axis=1, keepdims=True)),
             *(_tied_top_family(n, noise) for noise in (1e-12, 1e-10, 1e-8)),
             _near_hard_window(rng, n, 30), _tiny_root_family(rng, n)]
    A, u = (np.concatenate(x) for x in zip(*parts))
    return _unit_scaled(A), u


@pytest.mark.parametrize("n", [3, 4, 5])
def test_max_stretch_schedule_matches_the_62_step_bisection(n):
    # agreement to rounding only: near the root the computed sign of f flips
    # within a band of several ulps, so the bisection's end depended on its path
    A, u = _schedule_families(np.random.default_rng(100 + n), n)
    former, _ = _in_order_max_stretch(A, u, bisections=62, newton_steps=0)
    np.testing.assert_allclose(_max_stretch_block(A, u), former, rtol=2e-15, atol=0.0)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_max_stretch_newton_steps_end_at_rounding(n):
    # one more Newton step would move s by |phi / phi'| <= |phi|, as phi' <= -1:
    # |phi| within 4 eps at the final iterate puts that step at the rounding
    # of phi, which is O(1); ulps of s would not do, since for s << 1 the
    # rounding of phi spans hundreds of them
    A, u = _schedule_families(np.random.default_rng(100 + n), n)
    _, phi = _in_order_max_stretch(A, u, newton_steps=_NEWTON_STEPS + 1)
    final = phi[-1][~np.isnan(phi[-1])]
    assert len(final) >= 0.97 * len(u)
    assert np.max(np.abs(final)) <= 4.0 * np.finfo(float).eps


def _tied_top_family(n, noise):
    """(A, u) with beta = (0.5, .., 4, 4), tied at the top, and y = V^T u = e1
    plus noise of the given size on the top two components: 200 seeded
    rotations, u nearly orthogonal to the top eigenspace."""
    beta = np.array([0.5, 1.0, 2.0][:n - 2] + [4.0, 4.0])
    rng = np.random.default_rng(round(-math.log10(noise)))
    Q = np.linalg.qr(rng.standard_normal((200, n, n)))[0]
    y = np.zeros((200, n))
    y[:, 0] = 1.0
    y[:, -2:] += noise * rng.standard_normal((200, 2))
    y /= np.linalg.norm(y, axis=1, keepdims=True)
    return np.sqrt(beta)[:, None] * np.swapaxes(Q, 1, 2), np.einsum("nij,nj->ni", Q, y)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_max_stretch_tied_top_with_u_nearly_off_it(n):
    # eigh splits the tie into poles 0 and about -6e-16, and the root sits
    # near |y_top|: the companion kernel read up to 3e-10 low here at n = 5
    for noise in (1e-12, 1e-11, 1e-10, 1e-9, 1e-8):
        A, u = _tied_top_family(n, noise)
        np.testing.assert_allclose(max_directional_stretch(A, u), _dual_max_stretch(A, u),
                                   rtol=1e-12, atol=0.0, err_msg=f"noise {noise}")


def test_max_stretch_calls_no_eigvals_and_one_eigh_per_block(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("eigvals called")

    decomposed = []
    eigh = np.linalg.eigh

    def counted(a):
        decomposed.append(math.prod(a.shape[:-2]))
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigvals", refused)
    monkeypatch.setattr(np.linalg, "eigh", counted)
    rng = np.random.default_rng(31)
    A = rng.standard_normal((3000, 3, 3))
    u = rng.standard_normal((3000, 3))
    # u near an eigenvector of A^T A: two small components at some points
    _, V = eigh(np.swapaxes(A[:40], 1, 2) @ A[:40])
    u[:40] = V[:, :, 0] + 10.0 ** rng.uniform(-9, -2, (40, 1)) * rng.standard_normal((40, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    _, V = eigh(np.swapaxes(A, 1, 2) @ A)
    small = (np.abs(np.einsum("nji,nj->ni", V, u)) < 1e-2).sum(axis=1)
    assert (small >= 2).sum() >= 20
    max_directional_stretch(A, u)
    assert decomposed == [3000]
    for n in (3, 4, 5):
        decomposed.clear()
        A = rng.standard_normal((4100, n, n))
        u = rng.standard_normal((4100, n))
        max_directional_stretch(A, u / np.linalg.norm(u, axis=1, keepdims=True))
        assert decomposed == [_BLOCK, 4100 - _BLOCK]


def test_max_stretch_exact_at_every_scale():
    # the cubic's coefficients grow like |A|^6 and A^T A like |A|^2: without
    # scaling, the n = 3 kernel reads 1.1% low at 1e-160 A and 0 at 1e-200 A
    e1 = np.array([1.0, 0.0])
    for A, u, exact in [(np.diag([1e-160, 1e-160]), e1, 1e-160), (np.diag([1e-100, 1e-100]), e1, 1e-100),
                        (np.diag([1e150, 1e150]), e1, 1e150),
                        (1e100 * np.eye(2), e1, 1e100), (1e-100 * np.eye(2), e1, 1e-100),
                        (1e100 * np.eye(3), np.eye(3)[0], 1e100), (1e-100 * np.eye(3), np.eye(3)[0], 1e-100)]:
        assert max_directional_stretch(A, u) == pytest.approx(exact, rel=1e-15, abs=0.0)
    rng = np.random.default_rng(12)
    k = np.arange(-900, 481)
    for n in (2, 3, 4):
        A = rng.standard_normal((n, n))
        u = rng.standard_normal(n)
        u /= np.linalg.norm(u)
        mx = max_directional_stretch(A, u)
        scaled = max_directional_stretch(np.ldexp(A, k[:, None, None]), np.broadcast_to(u, (len(k), n)))
        assert np.array_equal(scaled, np.ldexp(mx, k))
        for c in (1e-40, 1e40):
            assert max_directional_stretch(c * A, u) == pytest.approx(c * mx, rel=1e-14)


def _planar_cases(rng, count):
    """(A, u) at n = 2: random matrices with condition numbers up to 1e8, u an
    eigenvector of A^T A exactly and perturbed by 1e-14 .. 1e-5, and b = Au.Av
    = 0 with d = |Av|^2 from 1e-8 a to 1e8 a."""
    A = _conditioned(rng, count, 2)
    u = rng.standard_normal((count, 2))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    _, V = np.linalg.eigh(np.swapaxes(A, 1, 2) @ A)
    eig = V[np.arange(count), :, rng.integers(2, size=count)]
    tilted = eig + 10.0 ** rng.uniform(-14, -5, (count, 1)) * rng.standard_normal((count, 2))
    tilted /= np.linalg.norm(tilted, axis=1, keepdims=True)
    Q = np.linalg.qr(rng.standard_normal((count, 2, 2)))[0]
    D = np.zeros((count, 2, 2))
    D[:, 0, 0], D[:, 1, 1] = 1.0, 10.0 ** rng.uniform(-4, 4, count)
    # A = Q D [u v]^T maps u to Q e1 and v to d^(1/2) Q e2
    rot = np.stack([eig, eig[:, ::-1] * [-1.0, 1.0]], axis=1)
    return np.concatenate([A, A, A, Q @ D @ rot]), np.concatenate([u, eig, tilted, eig])


def test_planar_max_stretch_matches_secular_kernel():
    A, u = _planar_cases(np.random.default_rng(13), 25_000)
    closed = _max_stretch_planar(A, u)
    np.testing.assert_allclose(closed, _max_stretch_block(A, u), rtol=1e-14, atol=0.0)
    # the dual, a golden section over 2x2 eigvalsh calls, costs about 60 us
    # a case: every fourth case of each kind keeps it near 1.5 s
    np.testing.assert_allclose(closed[::4], _dual_max_stretch(A[::4], u[::4]), rtol=1e-12, atol=0.0)
    # h = u is the maximizer where the three roots meet (b = 0, d = 2a, up
    # to rounding) and at d = 0, where t = (s - b) / d is not defined
    e1 = np.array([[1.0, 0.0]])
    for diag in ([1.0, math.sqrt(2.0)], [1.0, 0.0]):
        assert _max_stretch_planar(np.diag(diag)[None], e1) == pytest.approx(1.0, rel=1e-15)


def test_planar_normal_field_calls_no_lapack(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("LAPACK called")

    monkeypatch.setattr(np.linalg, "eigh", refused)
    monkeypatch.setattr(np.linalg, "eigvals", refused)
    X = np.random.default_rng(14).uniform(0.5, 2.0, (4096, 2))
    T = normal_dilatation_field(RotationTwist(), np.zeros(2))(X)
    assert T.shape == (4096,) and np.all(np.isfinite(T) & (T > 0.0))


def _dual_objective(A, u, s):
    return np.linalg.eigvalsh(A.T @ A * math.exp(-s) + np.outer(u, u) * math.exp(s))[-1] / 2.0


def _scalar_dual(A, u):
    """The dual by scipy's scalar golden section, one case at a time."""
    return minimize_scalar(lambda s: _dual_objective(A, u, s), bracket=(-1.0, 1.0),
                           method="golden", tol=1e-15).fun


def test_batched_dual_matches_scalar_golden_section():
    # the draws of the dilatation-chains scenario
    rng = np.random.default_rng(41)
    for n in (2, 3):
        rng.standard_normal((20_000, n))        # the sampled directions
        draws = rng.standard_normal((100, n * n + n))
        As, us = draws[:, :n * n].reshape(100, n, n), draws[:, n * n:]
        us /= np.linalg.norm(us, axis=1, keepdims=True)
        dual = _dual_max_stretch(As, us)
        assert dual.shape == (100,)
        for A, u, d in zip(As, us, dual):
            assert d == pytest.approx(_scalar_dual(A, u), rel=1e-13)
    # near-hard sweep: u on an eigen-axis, so the kink sits at the minimum
    rng = np.random.default_rng(9)
    As = np.array([np.diag(rng.uniform(0.2, 3.0, 4))
                   + 10.0 ** rng.uniform(-12, -7) * rng.standard_normal((4, 4)) for _ in range(100)])
    us = np.eye(4)[rng.integers(4, size=100)]
    for A, u, d in zip(As, us, _dual_max_stretch(As, us)):
        assert d == pytest.approx(_scalar_dual(A, u), rel=1e-13)


def test_dual_single_case_is_scalar_entry_of_stack():
    rng = np.random.default_rng(5)
    As = rng.standard_normal((2, 3, 3, 3))
    us = rng.standard_normal((2, 3, 3))
    us /= np.linalg.norm(us, axis=-1, keepdims=True)
    stacked = _dual_max_stretch(As, us)
    assert stacked.shape == (2, 3)
    one = _dual_max_stretch(As[1, 2], us[1, 2])
    assert isinstance(one, np.floating) and np.ndim(one) == 0
    assert one == stacked[1, 2]


def test_dual_bracket_holds_the_minimiser():
    # f is convex in s, so f at both ends of [log(sigma/2), log(2 sigma)] at
    # least f(log sigma) puts a minimiser inside
    rng = np.random.default_rng(6)
    for n in (2, 3, 4):
        for scale in (1e-3, 1.0, 1e3):
            for _ in range(50):
                A = scale * rng.standard_normal((n, n))
                u = rng.standard_normal(n)
                u /= np.linalg.norm(u)
                sigma = np.linalg.norm(A, 2)
                mid = _dual_objective(A, u, math.log(sigma))
                assert _dual_objective(A, u, math.log(sigma / 2.0)) >= mid
                assert _dual_objective(A, u, math.log(2.0 * sigma)) >= mid


def test_directional_sample_identity():
    s = directional_sample(Identity(), np.array([0.3, 0.4]), np.zeros(2))
    assert s.angular == pytest.approx(1.0)
    assert s.normal == pytest.approx(1.0)


def test_directional_sample_twist():
    s = directional_sample(RotationTwist(), np.array([0.5, 0.2]), np.zeros(2))
    assert s.jac_det == pytest.approx(1.0, abs=1e-12)
    assert s.angular == pytest.approx(1.0, abs=1e-8)
    # frozen oracle: dense sampling with 2e6 directions at this point
    assert s.max_stretch == pytest.approx(2.3237010677002248, abs=1e-8)


def test_directional_sample_radial():
    s = directional_sample(RadialStretch(a=0.8), np.array([1.0, 0.0]), np.zeros(2))
    assert s.angular == pytest.approx(1.25, abs=1e-10)
    assert s.normal == pytest.approx(0.8, abs=1e-9)


def test_directional_chains_random():
    rng = np.random.default_rng(12)
    for mapping in (RotationTwist(), RadialStretch(a=0.8), RadialStretch(a=1.5)):
        for _ in range(60):
            n = int(rng.integers(2, 4))
            x = rng.standard_normal(n)
            if np.linalg.norm(x[:2]) < 0.1 or np.linalg.norm(x) < 0.1:
                continue
            x0 = x + rng.standard_normal(n)
            if np.linalg.norm(x - x0) < 1e-6:
                continue
            s = directional_sample(mapping, x, x0)
            hi, ho = s.matrix.inner, s.matrix.outer
            tol = 1e-9 * max(1.0, hi)
            assert 1.0 / ho <= s.angular + tol
            assert s.angular <= hi + tol
            assert 1.0 / ho <= hi ** (1.0 / (1.0 - n)) + tol
            assert hi ** (1.0 / (1.0 - n)) <= s.normal + tol
            assert s.normal <= ho ** (1.0 / (n - 1.0)) + tol
            assert ho ** (1.0 / (n - 1.0)) <= hi + tol
            assert s.matrix.small <= s.min_stretch + tol
            assert s.max_stretch <= s.matrix.norm + tol
            # the stretch along the reference direction sits between the two
            along_u = np.linalg.norm(mapping.jacobian(x) @ s.u)
            assert s.min_stretch <= along_u + tol
            assert along_u <= s.max_stretch + tol


def test_rotation_invariance():
    rng = np.random.default_rng(21)
    A = rng.standard_normal((3, 3))
    u = rng.standard_normal(3)
    u /= np.linalg.norm(u)
    Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    assert min_directional_stretch(Q @ A, u) == pytest.approx(
        min_directional_stretch(A, u), abs=1e-10)
    assert max_directional_stretch(Q @ A, u) == pytest.approx(
        max_directional_stretch(A, u), abs=1e-10)


def test_conformal_gives_unit_dilatations():
    rng = np.random.default_rng(77)
    Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    if np.linalg.det(Q) < 0:
        Q[:, 0] *= -1
    mapping = Linear(matrix=2.5 * Q)
    s = directional_sample(mapping, np.array([1.0, 2.0, -1.0]), np.zeros(3))
    assert s.angular == pytest.approx(1.0, abs=1e-10)
    assert s.normal == pytest.approx(1.0, abs=1e-9)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_irregular_points_refused():
    with pytest.raises(ValueError):
        directional_sample(Identity(), np.array([1.0, 1.0]), np.array([1.0, 1.0]))
    flip = Linear(matrix=np.diag([1.0, -1.0]))    # orientation-reversing
    with pytest.raises(IrregularPointError):
        directional_sample(flip, np.array([1.0, 0.5]), np.zeros(2))
    # at |x| = 1e3 the Jacobian of x -> |x|^399 x overflows and its determinant is NaN
    steep, x, x0 = RadialStretch(a=400.0), np.array([600.0, 800.0]), np.zeros(2)
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(np.linalg.det(steep.jacobian(x)))
    with pytest.raises(IrregularPointError):
        directional_sample(steep, x, x0)
    with pytest.raises(IrregularPointError):
        angular_dilatation_field(steep, x0)(x[None])
    with pytest.raises(IrregularPointError):
        normal_dilatation_field(steep, x0)(x[None])
    with pytest.raises(IrregularPointError):
        psi_D(steep, 1e3, x0)
    with pytest.raises(IrregularPointError):
        modintbound_with_error(steep, x0, 1e3, 2e3)
    # non-finite matrices, and determinants or results that overflow
    e1 = np.array([1.0, 0.0])
    for A, u in [(np.full((2, 2), np.nan), e1), (np.diag([np.inf, 1.0]), e1),
                 (np.diag([1e200, 1e200]), e1), (np.diag([1e160, 1e160]), e1),
                 (np.eye(2), np.array([np.nan, 0.0])), (np.full((3, 3), np.nan), np.ones(3))]:
        for fn in (min_directional_stretch, max_directional_stretch):
            with pytest.raises(IrregularPointError):
                fn(A, u)
        if np.all(np.isfinite(u)):
            with pytest.raises(IrregularPointError):
                matrix_dilatations(A)


def _conditioned(rng, count, n):
    """count random n x n matrices with largest singular value 1 and condition
    numbers spread up to 1e8, with one, two or all singular values small.
    np.linalg.det returns exp(log|det|), whose error grows with |log|det||;
    the unit norm keeps that below cond(A) eps."""
    Q1 = np.linalg.qr(rng.standard_normal((count, n, n)))[0]
    Q2 = np.linalg.qr(rng.standard_normal((count, n, n)))[0]
    sv = 10.0 ** -(rng.uniform(0.0, 1.0, (count, n)) * rng.uniform(0.0, 8.0, (count, 1)))
    return Q1 * (sv / sv.max(axis=1, keepdims=True))[:, None, :] @ Q2


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_closed_form_kernel_matches_lapack(n, seed):
    rng = np.random.default_rng(seed)
    A = _conditioned(rng, 20_000, n)
    u = rng.standard_normal((20_000, n))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    cond = np.linalg.cond(A)
    assert cond.max() > 1e6
    tol = 8.0 * cond * np.finfo(float).eps
    J, _ = _det_dual(A, u)
    det = np.linalg.det(A)
    assert np.all(np.abs(J - det) <= tol * np.abs(det))
    mn = min_directional_stretch(A, u)
    lapack = 1.0 / np.linalg.norm(np.linalg.solve(np.swapaxes(A, 1, 2), u[..., None])[..., 0], axis=1)
    assert np.all(np.abs(mn - lapack) <= tol * lapack)


def test_det_dual_pivot_rows_do_not_depend_on_the_batch():
    # the n = 3 pivot row is indexed when every point of a batch shares it and
    # chosen pointwise among those that occur otherwise: values are only
    # selected, so every batch, one point included, gives the same bits
    rng = np.random.default_rng(19)
    A = rng.standard_normal((3000, 3, 3))
    u = rng.standard_normal((3000, 3))
    J, v2 = _det_dual(A, u)
    k = np.argmax(np.abs(A[:, 0]), axis=1)      # the pivot row's shift
    for sel in (k == 0, k == 1, k == 2, k != 0, k != 1, k != 2):
        assert 0 < sel.sum() < len(k)
        Js, vs = _det_dual(A[sel], u[sel])
        assert np.array_equal(Js, J[sel]) and np.array_equal(vs, v2[sel])
    for i in range(0, 3000, 97):
        assert _det_dual(A[i], u[i]) == (J[i], v2[i])


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("mapping", [RotationTwist(), RadialStretch(a=0.7), RadialStretch(a=2.5)],
                         ids=["twist", "radial-0.7", "radial-2.5"])
def test_angular_field_matches_lapack_pointwise(mapping, n):
    rng = np.random.default_rng(8)
    x0 = 0.3 * rng.standard_normal(n)
    X = rng.standard_normal((200, n))
    field = angular_dilatation_field(mapping, x0)(X)
    for x, D in zip(X, field):
        A = mapping.jacobian(x)
        u = (x - x0) / np.linalg.norm(x - x0)
        expected = np.linalg.det(A) * np.linalg.norm(np.linalg.solve(A.T, u)) ** n
        assert D == pytest.approx(expected, rel=8.0 * (n + 1) * np.linalg.cond(A) * np.finfo(float).eps)


def test_exactly_singular_matrices_refused():
    e1 = np.array([1.0, 0.0, 0.0])
    singular = [(np.array([[1.0, 2.0], [2.0, 4.0]]), e1[:2]), (np.zeros((2, 2)), e1[:2]),
                (np.zeros((3, 3)), e1),
                (np.array([[1.0, 2.0, 2.0], [3.0, -1.0, -1.0], [0.5, 4.0, 4.0]]), e1),
                (np.array([[1.0, 1.0, 2.0], [2.0, 2.0, 1.0], [3.0, 3.0, 0.0]]), e1)]
    for A, u in singular:
        with pytest.raises(IrregularPointError, match="singular"):
            min_directional_stretch(A, u)
        with pytest.raises(IrregularPointError, match="singular"):
            matrix_dilatations(A)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("mapping", [RotationTwist(), RadialStretch(a=0.5), RadialStretch(a=1.6)],
                         ids=["twist", "radial-0.5", "radial-1.6"])
def test_normal_field_matches_pointwise(mapping, n):
    rng = np.random.default_rng(5)
    x0 = 0.3 * rng.standard_normal(n)
    X = rng.standard_normal((40, n))
    field = normal_dilatation_field(mapping, x0)(X)
    pointwise = [directional_sample(mapping, x, x0).normal for x in X]
    np.testing.assert_allclose(field, pointwise, rtol=1e-14, atol=0.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("n", [2, 3, 4])
def test_batched_calls_match_single_calls(n):
    rng = np.random.default_rng(60 + n)
    count = 4100                                   # more than one block of the max-stretch kernel
    A = rng.standard_normal((count, n, n))
    u = rng.standard_normal((count, n))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    md = matrix_dilatations(A)
    single = [matrix_dilatations(a) for a in A]
    for name in ("norm", "small", "det_abs", "inner", "outer", "linear"):
        assert np.array_equal(getattr(md, name), [getattr(m, name) for m in single])
    for fn in (min_directional_stretch, max_directional_stretch):
        batched = fn(A, u)
        assert batched.shape == (count,)
        assert np.array_equal(batched, [fn(a, v) for a, v in zip(A, u)])
        assert np.array_equal(fn(A[:35].reshape(5, 7, n, n), u[:35].reshape(5, 7, n)),
                              batched[:35].reshape(5, 7))
        assert isinstance(fn(A[0], u[0]), np.float64)
    assert np.array_equal(matrix_dilatations(A[:35].reshape(5, 7, n, n)).inner,
                          md.inner[:35].reshape(5, 7))

    for mapping in (RotationTwist(), RadialStretch(a=0.6)):
        X = rng.standard_normal((50, n))
        X0 = X + 0.3 * rng.standard_normal((50, n))
        batch = directional_sample(mapping, X, X0).to_json()
        points = [directional_sample(mapping, x, x0).to_json() for x, x0 in zip(X, X0)]
        for key, value in batch.items():
            parts = value.items() if key == "matrix" else [(key, value)]
            for name, got in parts:
                expected = [p["matrix"][name] if key == "matrix" else p[name] for p in points]
                np.testing.assert_allclose(got, expected, rtol=1e-14, atol=0.0, err_msg=name)

    # empty batches give empty results of the batch shape
    for batch in ((0,), (3, 0)):
        A0, u0 = np.zeros(batch + (n, n)), np.zeros(batch + (n,))
        for fn in (min_directional_stretch, max_directional_stretch):
            assert fn(A0, u0).shape == batch
        assert matrix_dilatations(A0).inner.shape == batch
        for mapping in (RotationTwist(), RadialStretch(a=0.6)):
            assert normal_dilatation_field(mapping, np.zeros(n))(u0).shape == batch
            assert directional_sample(mapping, u0, np.ones(n)).normal.shape == batch

    # one singular matrix or irregular point anywhere in a batch is refused
    A[1234] = 0.0
    with pytest.raises(IrregularPointError):
        matrix_dilatations(A)
    with pytest.raises(IrregularPointError):
        min_directional_stretch(A, u)
    X = np.concatenate([rng.standard_normal((9, n)), np.full((1, n), 1e3)])
    with pytest.raises(IrregularPointError):
        directional_sample(RadialStretch(a=400.0), X, np.zeros(n))
