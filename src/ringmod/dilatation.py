"""Matrix dilatation coefficients and directional dilatations at a point.

For an invertible matrix A with largest/smallest singular values ||A|| and
l(A), the classical coefficients are

    inner  H_I = |det A| / l(A)^n,
    outer  H_O = ||A||^n / |det A|,
    linear H   = ||A|| / l(A),

which satisfy H <= min(H_I, H_O) <= H^(n/2) <= max(H_I, H_O) <= H^(n-1).

The directional quantities measure stretching relative to the unit vector
u = (x - x0)/|x - x0|:

    min_directional_stretch(A, u) = min_{|h|=1} |Ah| / |h.u|  = 1/|A^{-T} u|,
    max_directional_stretch(A, u) = max_{|h|=1} |Ah| * |h.u|,

and combine with the Jacobian determinant J into the angular and normal
dilatations D = J / min^n and T = (max^n / J)^(1/(n-1)).  Both can be < 1,
unlike the classical coefficients.  Both stretches are exact to rounding:
the minimum in the closed form above, the maximum from the real roots of a
cubic at n = 2 and from the one root of a secular equation in a proven
bracket for n >= 3, with no sampling, no tolerance and no optimizer.
Since A^{-T} u = w / J with the cofactor product w = cof(A) u, the minimum
is |J| / |w| and D = |w|^n / J^(n-1) = J |A^{-T} u|^n.  For n = 2 and 3,
J and A^{-T} u are written out (Cramer's rule at n = 2; one pivoted
elimination step and Cramer's rule on the 2x2 remainder at n = 3), so the
angular field calls no LAPACK routine; n >= 4 takes them from
``np.linalg.det`` and ``np.linalg.solve`` (see ``_det_dual``).
For the maximum each A is first divided by the power of two of its largest
entry, which is exact, so the result does not depend on the scale of A.
At n = 2 the stationary points of |Ah| |h.u| solve a cubic, rooted in closed
form in numpy with no LAPACK call (see ``_max_stretch_planar``).  For
n >= 3 the maximizer's multiplier lies in [beta_max, 2 beta_max], beta_max
the top eigenvalue of A^T A, where the secular equation of the stationary
points changes sign exactly once; 20 bisections over the bit patterns of
the doubles bracket that root to 2^-10 of its size and 3 safeguarded Newton
steps close it to rounding, one eigh per point, and the hard-case branch at
beta_max covers the rest (see ``_max_stretch_block``).

The kernels work on rows: entry (i, j) of A over a block of points, and
component i of u or of an eigen-coordinate vector, is one array over the
points, contiguous when A comes from a built-in map, whose Jacobians are
stored component-major (see ``maps``).  Every sum over components in the
n >= 3 kernel is taken in index order, x_0 + x_1 + ..., whatever the
batch, so a point gives the same bits alone and in any stack.

Every function takes stacks: matrices A of shape (..., n, n), directions u
and points x of shape (..., n).  Results have the batch shape, and a single
input gives numpy scalars.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .maps import Mapping, _norm


class IrregularPointError(ValueError):
    """Jacobian is singular, orientation-reversing or not finite at the sample
    point, or a determinant or stretch overflows."""


@dataclass(frozen=True)
class MatrixDilatations:
    norm: np.ndarray      # largest singular value
    small: np.ndarray     # smallest singular value
    det_abs: np.ndarray
    inner: np.ndarray     # |det| / small^n
    outer: np.ndarray     # norm^n / |det|
    linear: np.ndarray    # norm / small


def matrix_dilatations(A) -> MatrixDilatations:
    """All dilatation coefficients of invertible matrices A: (..., n, n); a
    singular or non-finite matrix, and a determinant or coefficient that
    overflows, raise IrregularPointError."""
    A = np.asarray(A, dtype=float)
    n = A.shape[-1]
    if not np.all(np.isfinite(A)):
        raise IrregularPointError("matrix not finite")
    sv = np.linalg.svd(A, compute_uv=False)
    big, small = sv[..., 0], sv[..., -1]
    if np.any((big == 0.0) | (small < 1e-13 * big)):
        raise IrregularPointError("matrix is singular")
    # overflow comes without floating-point warnings: it is refused below
    with np.errstate(over="ignore", invalid="ignore"):
        det = np.prod(sv, axis=-1)
        md = MatrixDilatations(
            norm=big,
            small=small,
            det_abs=det,
            inner=det / small ** n,
            outer=big ** n / det,
            linear=big / small,
        )
    if not all(np.all(np.isfinite(v)) for v in vars(md).values()):
        raise IrregularPointError("determinant or a dilatation coefficient overflows")
    return md


def min_directional_stretch(A, u):
    """min over |h| = 1 of |Ah| / |h.u|, in closed form 1/|A^{-T} u|.

    Substituting g = Ah and Cauchy-Schwarz on h.u = g.(A^{-T}u) shows the
    minimum equals 1/|A^{-T}u|, attained at h parallel to A^{-1}A^{-T}u.
    Directions with h.u = 0 give +inf and never attain the minimum.  With the
    cofactor product w = cof(A) u = J A^{-T} u, J = det A, this is |J| / |w|
    (see ``_det_dual``).  A singular matrix, a non-finite input and a
    determinant or result that overflows raise IrregularPointError.
    """
    J, v2 = _det_dual(np.asarray(A, dtype=float), np.asarray(u, dtype=float))
    if np.any(J == 0.0):
        raise IrregularPointError("matrix is singular")
    with np.errstate(divide="ignore"):          # v2 = 0 gives inf, refused below
        mn = 1.0 / np.sqrt(v2)
    if not np.all((mn > 0.0) & (mn < np.inf) & (np.abs(J) < np.inf)):
        raise IrregularPointError("matrix not finite, or its determinant or minimal stretch overflows")
    return mn[()]


def _det_dual(A: np.ndarray, u: np.ndarray):
    """J = det A and |A^{-T} u|^2 for A: (..., n, n) and u: (..., n).

    A^{-T} u = w / J with the cofactor product w = cof(A) u.  For n = 2,
    J = ad - bc and w = (d u1 - c u2, a u2 - b u1), divided by J before it is
    squared.  For n = 3 the cofactor expansion J = c1.(c2 x c3) over the
    columns c_i of A loses accuracy like cond(A)^2 eps when two singular
    values are small, so B v = u, B = A^T, is solved by one step of Gaussian
    elimination with partial pivoting, written out, and Cramer's rule on the
    2x2 Schur complement.  Both agree with LAPACK to about 3 cond(A) eps
    relative.  Non-finite values, J = 0 included, come without floating-point
    warnings: every caller refuses them.  For other n, J and A^{-T} u come
    from ``np.linalg.det`` and ``np.linalg.solve``, and an exactly singular A
    raises IrregularPointError.
    """
    n = A.shape[-1]
    if n not in (2, 3):
        try:
            v = np.linalg.solve(np.swapaxes(A, -1, -2), u[..., None])[..., 0]
        except np.linalg.LinAlgError as exc:
            raise IrregularPointError("matrix is singular") from exc
        with np.errstate(all="ignore"):
            return np.linalg.det(A), np.einsum("...i,...i", v, v)
    a = np.moveaxis(A, (-2, -1), (0, 1))              # a[i][j] = A_ij
    u = np.moveaxis(u, -1, 0)
    with np.errstate(all="ignore"):
        if n == 2:
            J = a[0][0] * a[1][1] - a[0][1] * a[1][0]
            r = 1.0 / J
            v = ((a[1][1] * u[0] - a[1][0] * u[1]) * r, (a[0][0] * u[1] - a[0][1] * u[0]) * r)
        else:
            # the rows of B, and u, rotate cyclically by k (which keeps det B = J)
            # to put the row of largest |B_i0| = |A_0i| first: by indexing where
            # every point has the same k, one point included, and else by a
            # pointwise choice among the values of k that occur
            m0, m1, m2 = np.abs(a[0])
            c1 = (m1 > m0) & (m1 >= m2)
            c2 = (m2 > m0) & (m2 > m1)
            n1, n2 = np.count_nonzero(c1), np.count_nonzero(c2)
            k = 1 if n1 == c1.size else 2 if n2 == c1.size else 0
            mixed = [(j, c) for j, c, count in ((1, c1, n1), (2, c2, n2)) if 0 < count < c1.size]

            def pivot_first(x):
                rows = [x[(i + k) % 3] for i in range(3)]
                for j, c in mixed:
                    rows = [np.where(c, x[(i + j) % 3], row) for i, row in enumerate(rows)]
                return rows

            (b00, b10, b20), (b01, b11, b21), (b02, b12, b22) = map(pivot_first, a)
            u0, u1, u2 = pivot_first(u)
            l1, l2 = b10 / b00, b20 / b00
            s00, s01, s10, s11 = b11 - l1 * b01, b12 - l1 * b02, b21 - l2 * b01, b22 - l2 * b02
            r1, r2 = u1 - l1 * u0, u2 - l2 * u0
            det_s = s00 * s11 - s01 * s10
            J = b00 * np.where(b00 != 0.0, det_s, 0.0)      # b00 = 0: B has a zero column
            y1, y2 = (s11 * r1 - s01 * r2) / det_s, (s00 * r2 - s10 * r1) / det_s
            v = ((u0 - b01 * y1 - b02 * y2) / b00, y1, y2)
        return J, sum(vi * vi for vi in v)     # products: a numpy scalar's ** 2 may round differently


def max_directional_stretch(A, u):
    """max over |h| = 1 of |Ah| * |h.u| for a unit vector u, exactly.

    After A is divided by the power of two of its largest entry, the
    stationary points on the sphere come in closed form at n = 2, the real
    roots of a cubic (see ``_max_stretch_planar``).  For n >= 3 only one of
    them outside the hard case can be the maximizer: the root of a secular
    equation that changes sign exactly once in a proven bracket, where
    bisection and then Newton's method close on it to rounding (see
    ``_max_stretch_block``).
    The value also equals
    min over k > 0 of lambda_max(A^T A / k + k u u^T) / 2: AM-GM gives
    |Ah| |h.u| <= h^T (A^T A / k + k u u^T) h / 2, and equality holds for the
    best k because the joint numerical range of two quadratic forms is convex
    (Brickman 1961).  The tests use this dual as an independent upper bound.
    A non-finite input and an A whose A^T A overflows raise
    IrregularPointError; the result, at most the norm of A, is then finite.
    """
    A, u = np.asarray(A, dtype=float), np.asarray(u, dtype=float)
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(u))):
        raise IrregularPointError("matrix or direction not finite")
    # the diagonal of A^T A, the squared column norms of A, holds its largest entries
    if not np.all(np.einsum("...ij,...ij->...j", A, A) < np.inf):
        raise IrregularPointError("A^T A overflows, and so may the maximal stretch")
    return _max_stretch_batch(A, u)


# points per call of the maximal-stretch kernel, which peaks at about 0.5 kB
# per point at n = 3 and 0.9 kB at n = 4 on random, radial and twist input
# alike (tracemalloc, 4096 points); a fixed block keeps fine quadrature
# levels within memory
_BLOCK = 4096

# the fixed root-finding schedule of ``_secular_root``: bisections on the
# bit patterns of the doubles, then safeguarded Newton steps
_BISECTIONS = 20
_NEWTON_STEPS = 3


def _max_stretch_batch(A: np.ndarray, u: np.ndarray) -> np.ndarray:
    """max_directional_stretch for A: (..., n, n) and unit u: (..., n) of the
    same batch shape, in blocks of ``_BLOCK`` points.

    Each A is written 2^e M with the largest |M_ij| in [1/2, 1) (frexp and
    ldexp, both exact), the kernel runs on M, and its result is multiplied
    by 2^e.  The cubic's coefficients at n = 2 grow like |A|^6 and A^T A at
    n >= 3 like |A|^2, which overflows or underflows at scales far inside
    the range of A itself; on M they stay near 1.  The result is
    then exactly homogeneous: 2^k A gives 2^k times the result of A, bit
    for bit, as long as no entry or result is subnormal.
    """
    n = u.shape[-1]
    A, U = A.reshape(-1, n, n), u.reshape(-1, n)
    if len(U) == 0:
        return np.empty(u.shape[:-1])
    e = np.frexp(np.abs(A).max(axis=(1, 2)))[1]
    M = np.ldexp(A, -e[:, None, None])
    kernel = _max_stretch_planar if n == 2 else _max_stretch_block
    mx = np.concatenate([kernel(M[s:s + _BLOCK], U[s:s + _BLOCK]) for s in range(0, len(U), _BLOCK)])
    return np.ldexp(mx, e).reshape(u.shape[:-1])[()]


def _max_stretch_planar(A: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The maximal stretch for A: (N, 2, 2) and unit u: (N, 2), in closed form.

    With v the vector u turned by 90 degrees, a = |Au|^2, b = Au.Av and
    d = |Av|^2, the squared objective along h = (u + t v) / sqrt(1 + t^2) is
    g(t) = (a + 2bt + dt^2) / (1 + t^2)^2, and h = +-v gives 0.  g is
    stationary at the real roots of d t^3 + 3b t^2 + (2a - d) t - b; in
    s = dt + b this is the depressed cubic s^3 - p s - q with
    p = b^2 + d^2 - 2 j^2 and q = 2 b j^2, where j = Au x Av = det A, so that
    j^2 = ad - b^2 comes without that subtraction's cancellation.  The roots
    come from the trigonometric form when there are three real ones and from
    Cardano's formula, in its form without cancellation inside the cube
    root, when there is one.  One Newton step on the cubic in t polishes
    each: when d << a the step from s back to t loses up to a factor
    sqrt(a/d) of accuracy.

    g is stationary at each root, so a root error delta moves the value by
    O(delta^2).  Every real t is a unit direction, so no candidate exceeds
    the maximum.  The maximizer is a simple root, where Newton converges,
    except at the only triple root, t = 0 when b = 0 and d = 2a; so t = 0
    (h = u) is a candidate too, which is also the maximizer when d = 0.  A
    candidate that is not finite counts as 0.  The unpolished roots are not
    kept as candidates: the maximum over two values that differ by rounding
    alone is biased upwards.  Against ``_max_stretch_block``, the root of
    the secular equation, this agrees to 7.9e-16 relative on random,
    badly conditioned (to cond(A) = 1e15), radial (u an eigenvector of
    A^T A) and nearly radial input and near double and triple roots.
    """
    u0, u1 = u[:, 0], u[:, 1]
    a00, a01, a10, a11 = A[:, 0, 0], A[:, 0, 1], A[:, 1, 0], A[:, 1, 1]
    p0, p1 = a00 * u0 + a01 * u1, a10 * u0 + a11 * u1        # Au
    r0, r1 = a01 * u0 - a00 * u1, a11 * u0 - a10 * u1        # Av with v = (-u1, u0)
    a, b, d = p0 * p0 + p1 * p1, p0 * r0 + p1 * r1, r0 * r0 + r1 * r1
    jj = (p0 * r1 - p1 * r0) ** 2
    p, q = b * b + d * d - 2.0 * jj, 2.0 * b * jj
    with np.errstate(all="ignore"):
        disc = 0.25 * q * q - p * p * p / 27.0
        third = np.arccos(np.clip(1.5 * q / p * np.sqrt(3.0 / p), -1.0, 1.0)) / 3.0
        trig = 2.0 * np.sqrt(p / 3.0)[:, None] * np.cos(third[:, None] - np.arange(3) * (2.0 * np.pi / 3.0))
        w = np.cbrt(0.5 * q + np.copysign(np.sqrt(disc), q))
        s = np.where((disc < 0.0)[:, None], trig, (w + p / (3.0 * w))[:, None])
        a, b, d = a[:, None], b[:, None], d[:, None]
        t = (s - b) / d
        t -= (((d * t + 3.0 * b) * t + 2.0 * a - d) * t - b) / ((3.0 * d * t + 6.0 * b) * t + 2.0 * a - d)
        g = (a + (2.0 * b + d * t) * t) / (1.0 + t * t) ** 2
        return np.sqrt(np.fmax(np.fmax.reduce(g, axis=1), a[:, 0]))


def _max_stretch_block(A: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The maximal stretch for A: (N, n, n) and unit u: (N, n), the kernel
    for n >= 3 and the test oracle of ``_max_stretch_planar`` at n = 2.
    ``_max_stretch_batch`` scales A to entries below 1 in size first, so
    that A^T A neither overflows nor underflows; the terms below, in
    beta / beta_max, do not depend on the scale of A.

    With B = A^T A = V diag(beta) V^T and y = V^T u, the squared objective
    (h^T B h)(h.u)^2 is stationary on the sphere where (beta_i - alpha) h_i
    is proportional to y_i, with alpha = 2 h^T B h.  In the scaled variable
    s = (alpha - beta_max) / beta_max the poles d_i = (beta_i - beta_max) /
    beta_max lie in [-1, 0], beta_i - alpha = beta_max (d_i - s) needs no
    cancelling subtraction, h is proportional to y / (d - s), and
    eliminating h leaves the secular equation
    f(s) = sum_i y_i^2 (1 + 2 d_i - s) / (d_i - s)^2 = 0 (Bunch, Nielsen
    and Sorensen 1978).  The maximizer has beta_max <= alpha <= 2 beta_max,
    so s in [0, 1]: h^T B h <= beta_max gives the upper end; by the dual
    below h is the top eigenvector of B / k + k u u^T, with eigenvalue
    2 h^T B h / k >= beta_max / k, which gives the lower.  On (0, 1],
    f = (sum_i w_i) phi(s) with w_i = y_i^2 / (d_i - s)^2 > 0 and
    phi = 2 R - (1 + s), R the w-weighted mean of 1 + d_i.  R falls as s
    grows, since the weights of the larger d_i, nearer s, fall fastest; so
    phi' <= -1, phi(1) = 2 R - 2 <= 0, phi(0+) = 1 when y_top != 0, and f
    changes sign exactly once.  ``_secular_root`` closes on that root to
    rounding.  The objective is stationary there, so an error delta in s
    moves the value by O(delta^2), and the root is one candidate, not the
    larger of two that differ by rounding alone, which would be biased
    upwards.  With y_top = 0, f may be negative on all of (0, 1]; the root's
    bracket then closes on 0 and the hard-case pair below holds the
    maximizer.

    The hard case alpha = beta_k with y_k = 0 (More & Sorensen 1983) then
    has beta_k = beta_max, and h = gamma z +- tau e_top with z = y / d off
    the top eigenspace and 0 on it, where |h| = 1 and h^T B h = beta_max / 2
    fix gamma^2 and tau^2; both signs are kept, since a tiny nonzero y_top
    decides which one is larger.  ``eigh`` splits a top eigenvalue of
    multiplicity m by rounding, which leaves y / d of order 1 in the tied
    components, so one candidate pair is taken for each possible m = 1 ..
    n - 1, with the top m components of z set to 0; no threshold decides m.
    Every candidate is a direction, scaled to a unit vector, so none
    exceeds the maximum.

    Every array indexed by an eigen-coordinate (beta, y, d, the candidates)
    and A^T A are kept as rows, component first and point last, so that
    each elementwise step runs over contiguous rows; A is read through its
    (n, n, N) view, contiguous rows when it is component-major as the maps'
    Jacobians are.  Each sum over components, A^T A, y = V^T u, f and the
    sums of the Newton step and the candidate scores, is taken in index
    order (``_rowsum``), so a point's result does not depend on the batch it
    comes in.
    """
    n = u.shape[-1]
    a = np.moveaxis(A, 0, -1)                             # a[k, i] = A_ki, rows over the points
    B = _rowsum(a[:, :, None] * a[:, None])               # B_ij = sum_k A_ki A_kj
    beta, V = np.linalg.eigh(np.moveaxis(B, -1, 0))
    beta, V, u = (np.ascontiguousarray(np.moveaxis(x, 0, -1)) for x in (beta, V, u))
    y = _rowsum(V * u[:, None])                           # y_i = sum_j V_ji u_j
    top = np.fmax(beta[-1], np.finfo(float).tiny)         # A = 0 has beta_max = 0
    d = (beta - top) / top
    # infeasible or degenerate candidates come out non-finite and count as 0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        root = _stretch(y / (d - _secular_root(y, d)), beta, y)
        # z[:, m - 1] is y / d with its top m components set to 0
        keep = np.arange(n)[:, None] < np.arange(n - 1, 0, -1)
        z = np.where(keep[..., None], (y / d)[:, None], 0.0)
        y, beta = y[:, None], beta[:, None]
        gamma = np.sqrt(-1.0 / (2.0 * _rowsum(z * y)))
        tau = np.sqrt(1.0 - gamma ** 2 * _rowsum(z * z))
        e_top = np.eye(n)[:, -1, None, None]
        hard = [_stretch(gamma * z + sign * tau * e_top, beta, y).max(axis=0) for sign in (1.0, -1.0)]
        return np.maximum.reduce([root, *hard])


def _secular_root(y: np.ndarray, d: np.ndarray) -> np.ndarray:
    """The root in [0, 1] of f(s) = sum_i y_i^2 (e_i - s) / (d_i - s)^2,
    e_i = 1 + 2 d_i, for rows y and d: (n, N) as ``_max_stretch_block``
    has them, on a fixed schedule: the same operations for every point in
    any batch.

    First ``_BISECTIONS`` halvings of the int64 bit patterns of the doubles,
    which are ordered like the doubles: those in [0, 1] lie below 2^62, so
    20 halvings fix the binade and 10 bits of the mantissa, a sign bracket
    [lo, hi] about 2^-10 wide relative to the root whatever its size.  Then
    ``_NEWTON_STEPS`` Newton steps on phi = f / W from the bracket's
    midpoint: with w_i = y_i^2 / (d_i - s)^2, r_i = 1 / (d_i - s),
    W = sum_i w_i, W' = 2 sum_i w_i r_i and f' = sum_i w_i r_i
    (2 e_i - d_i - s), the step phi / phi' is f / (f' - phi W').  phi is
    smooth on (0, 1] with phi' <= -1, so the steps converge quadratically,
    from a relative error of about 1e-3 to rounding in three.  Each step
    first moves the end of the bracket that the sign of f names to the
    current iterate; a Newton iterate that leaves the bracket is put back
    on the end it passed, which may lie closer to the root than Newton's
    overshoot, and one that is not finite on the bracket's midpoint.

    y_i / (d_i - s) overflows near s = 0 to an inf that f's sign takes; the
    caller ignores floating-point warnings.
    """
    e = 1.0 + 2.0 * d
    lo, hi = np.zeros(d.shape[1], np.int64), np.full(d.shape[1], np.float64(1.0).view(np.int64))
    for _ in range(_BISECTIONS):
        mid = (lo + hi) >> 1
        s = mid.view(float)
        q = y / (d - s)
        positive = _rowsum(q * q * (e - s)) > 0.0                # f(s) > 0
        lo, hi = np.where(positive, mid, lo), np.where(positive, hi, mid)
    lo, hi = lo.view(float), hi.view(float)
    s = 0.5 * (lo + hi)
    c = 2.0 * e - d                                           # f' = sum_i w_i r_i (c_i - s)
    for _ in range(_NEWTON_STEPS):
        r = 1.0 / (d - s)
        q = y * r
        w = q * q
        f, g = _rowsum(w * (e - s)), w * r
        positive = f > 0.0
        lo, hi = np.where(positive, s, lo), np.where(positive, hi, s)
        s = s - f / (_rowsum(g * (c - s)) - f / _rowsum(w) * (2.0 * _rowsum(g)))
        s = np.where(np.isfinite(s), np.clip(s, lo, hi), 0.5 * (lo + hi))
    return s


def _rowsum(t: np.ndarray) -> np.ndarray:
    """t[0] + t[1] + ... in index order; a reduction may pair the terms
    differently, for instance over a contiguous first axis."""
    total = t[0] + t[1]
    for row in t[2:]:
        total += row
    return total


def _stretch(h: np.ndarray, beta: np.ndarray, y: np.ndarray) -> np.ndarray:
    """|Ah| |h.u| / |h|^2 for directions h in eigen-coordinates, components
    on the first axis; 0 where it is not finite."""
    hh = h * h
    val = np.sqrt(_rowsum(hh * beta)) * np.abs(_rowsum(h * y)) / _rowsum(hh)
    return np.where(np.isfinite(val), val, 0.0)


@dataclass(frozen=True, eq=False)
class DilatationSample:
    """All dilatation data of a map at points x relative to reference points x0;
    u has the shape of x, the numbers and ``matrix`` fields its batch shape."""

    x: np.ndarray
    x0: np.ndarray
    u: np.ndarray
    min_stretch: np.ndarray   # min |Ah|/|h.u|
    max_stretch: np.ndarray   # max |Ah| |h.u|
    angular: np.ndarray       # D = J / min_stretch^n
    normal: np.ndarray        # T = (max_stretch^n / J)^(1/(n-1))
    jac_det: np.ndarray
    matrix: MatrixDilatations

    def to_json(self) -> dict:
        return {key: {k: v.tolist() for k, v in vars(value).items()} if key == "matrix"
                else value.tolist() for key, value in vars(self).items()}


def _frame(mapping: Mapping, x0: np.ndarray, X: np.ndarray):
    """Unit directions u = (X - x0)/|X - x0|, Jacobians A, determinants J and
    |A^{-T} u|^2 at the points X; refuses X = x0 (ValueError), and every J
    that is not positive and finite or |A^{-T} u|^2 that is not finite
    (IrregularPointError)."""
    diff = X - x0
    d = _norm(diff)[..., None]
    if np.any(d == 0.0):
        raise ValueError("x and x0 must be distinct")
    u = diff / d
    A = mapping.jacobian(X)
    J, v2 = _det_dual(A, u)
    if not np.all((J > 0.0) & (J < np.inf) & (v2 < np.inf)):
        raise IrregularPointError("irregular point: Jacobian determinant not positive and finite,"
                                  " or |A^-T u| overflows")
    return u, A, J, v2


def directional_sample(mapping: Mapping, x, x0) -> DilatationSample:
    """Evaluate every dilatation of ``mapping`` at points x: (..., n) relative
    to x0, one reference point or one per point.

    Requires x != x0 and a regular, orientation-preserving point (J > 0);
    anything else raises IrregularPointError rather than extending the
    definitions by convention.
    """
    x = np.asarray(x, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    n = x.shape[-1]
    u, A, J, v2 = _frame(mapping, x0, x)
    mx = max_directional_stretch(A, u)
    return DilatationSample(
        x=x,
        x0=x0,
        u=u,
        min_stretch=1.0 / np.sqrt(v2),
        max_stretch=mx,
        angular=J * v2 ** (0.5 * n),
        normal=(mx ** n / J) ** (1.0 / (n - 1.0)),
        jac_det=J,
        matrix=matrix_dilatations(A),
    )


def angular_dilatation_field(mapping: Mapping, x0):
    """Vectorized x -> D(x, x0) = |w|^n / J^(n-1) = J |A^{-T} u|^n, with the
    cofactor product w = cof(A) u; cheap: J and w are written out for n = 2
    and 3 and come from LAPACK for n >= 4 (see ``_det_dual``)."""
    x0 = np.asarray(x0, dtype=float)

    def field(X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        _, _, J, v2 = _frame(mapping, x0, X)
        return J * v2 ** (0.5 * X.shape[-1])

    return field


def normal_dilatation_field(mapping: Mapping, x0):
    """Vectorized x -> T(x, x0); uses the exact batched maximal stretch."""
    x0 = np.asarray(x0, dtype=float)

    def field(X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        n = X.shape[-1]
        u, A, J, _ = _frame(mapping, x0, X)
        return (_max_stretch_batch(A, u) ** n / J) ** (1.0 / (n - 1.0))

    return field
