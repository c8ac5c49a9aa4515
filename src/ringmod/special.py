"""Planar ring special functions and the dimension-n constant bounds.

The planar quantities are exact, built on the arithmetic-geometric mean:

* ``elliptic_K(k)``       complete elliptic integral of the first kind,
* ``grotzsch_mu(r)``      modulus of the ring between the unit circle and the
                          radial slit [1/r, inf), i.e. mu(r) = (pi/2) K'/K,
* ``mo_grotzsch2(s)``     planar extremal ring modulus mu(1/s), s > 1,
* ``mo_teichmuller2(t)``  = 2 mu(1/sqrt(t+1)), via the classical identity
                          linking the two extremal rings,
* ``compute_A2()``        the supremum over t > 1 of mo_teichmuller2(t) - log t
                          (known to be pi; read off a grid in s, t = 1 + e^s).

For n >= 3 no closed forms exist; ``constants_for`` returns the standard
bounds 4 <= lambda_n <= 2^(n/(n-1)) e^(n(n-2)/(n-1)) and the derived upper
bound A_n <= log((3 + 2 sqrt 2) lambda_n^2 / 4), plus Q_n = 4 exp(A_n / 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

_AGM_REL_TOL = 1e-15
_AGM_MAX_ITER = 60


def _agm(a: float, b: float) -> float:
    """Arithmetic-geometric mean; quadratic convergence makes 60 iterations safe."""
    for _ in range(_AGM_MAX_ITER):
        if abs(a - b) < _AGM_REL_TOL * a:
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return 0.5 * (a + b)


def elliptic_K(k: float) -> float:
    """Complete elliptic integral of the first kind, 0 <= k < 1.

    K(k) = agm-based evaluation of the integral of (1 - k^2 sin^2 t)^(-1/2)
    over [0, pi/2]; absolute error below 1e-12 away from k = 1.
    """
    if not 0.0 <= k < 1.0:
        raise ValueError(f"elliptic modulus must satisfy 0 <= k < 1, got {k}")
    kc = math.sqrt((1.0 - k) * (1.0 + k))
    return math.pi / (2.0 * _agm(1.0, kc))


def grotzsch_mu(r: float) -> float:
    """mu(r) for 0 < r <= 1, with mu(1) = 0.

    Evaluated as (pi/2) agm(1, r') / agm(1, r) with r' = sqrt(1 - r^2); this
    form avoids the catastrophic cancellation of K(sqrt(1-r^2)) at small r and
    stays accurate down to r ~ 1e-300.
    """
    if not 0.0 < r <= 1.0:
        raise ValueError(f"mu needs 0 < r <= 1, got {r}")
    if r == 1.0:
        return 0.0
    rc = math.sqrt((1.0 - r) * (1.0 + r))
    return (math.pi / 2.0) * _agm(1.0, rc) / _agm(1.0, r)


def mo_grotzsch2(s: float) -> float:
    """Planar modulus of the extremal ring separating |x|<=1 from [s, inf)."""
    if not s > 1.0:
        raise ValueError(f"need s > 1, got {s}")
    return grotzsch_mu(1.0 / s)


def mo_teichmuller2(t: float) -> float:
    """Planar modulus of the extremal ring separating [-1,0] from [t, inf)."""
    if not t > 0.0:
        raise ValueError(f"need t > 0, got {t}")
    return 2.0 * grotzsch_mu(1.0 / math.sqrt(t + 1.0))


def phi2(s: float) -> float:
    """exp(mo_grotzsch2(s)); behaves like 4s for large s."""
    return math.exp(mo_grotzsch2(s))


def psi2(t: float) -> float:
    """exp(mo_teichmuller2(t)); behaves like 16t for large t."""
    return math.exp(mo_teichmuller2(t))


@dataclass(frozen=True)
class A2Result:
    value: float
    argmax_t: float
    attained_at_boundary: bool
    method: str = "grid search on t = 1 + e^s"


def _gap2(t: float) -> float:
    return mo_teichmuller2(t) - math.log(t)


def compute_A2() -> A2Result:
    """Maximize mo_teichmuller2(t) - log t over t in (1, inf) on a grid.

    The substitution t = 1 + e^s with s in [-40, 40] compactifies the search
    to 161 points, whose maximum is the answer.  The gap tends to pi at the
    open boundary t -> 1+; the largest grid value, at s = -35, is reported
    with ``attained_at_boundary`` set.  Refining between its neighbours
    could not move it: s in [-35.5, -34.5] holds only the four floats
    t - 1 = 2 .. 5 ulps, where the gap is pi up to rounding (<= 1.3e-15).
    """
    s_lo, s_hi, grid_points = -40.0, 40.0, 161
    ss = [s_lo + i * (s_hi - s_lo) / (grid_points - 1) for i in range(grid_points)]
    vals = [_gap2(1.0 + math.exp(s)) for s in ss]
    i = max(range(grid_points), key=vals.__getitem__)
    t_best = 1.0 + math.exp(ss[i])
    # the interval is open at t = 1; flag a supremum that sits on that edge
    at_boundary = (t_best - 1.0) < 1e-6 or i == 0
    return A2Result(value=vals[i], argmax_t=t_best, attained_at_boundary=at_boundary)


@dataclass(frozen=True)
class SpecialConstants:
    """lambda_n bounds, A_n (exact for n = 2, upper bound otherwise), and Q_n."""

    n: int
    lambda_lower: float
    lambda_upper: float
    a_value: float
    a_is_exact: bool
    q_value: float


def constants_for(n: int) -> SpecialConstants:
    """Constant bounds in dimension n.

    n = 2 returns the exact values lambda_2 = 4 and A_2 = pi.  For n >= 3 only
    the upper bounds are known; Q_n is computed from the A_n upper bound,
    which keeps every place Q_n is used conservative.
    """
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got {n}")
    if n == 2:
        lam_lo = lam_hi = 4.0
        a = math.pi
        exact = True
    else:
        lam_lo = 4.0
        lam_hi = 2.0 ** (n / (n - 1.0)) * math.exp(n * (n - 2.0) / (n - 1.0))
        a = math.log((3.0 + 2.0 * math.sqrt(2.0)) * lam_hi ** 2 / 4.0)
        exact = False
    return SpecialConstants(
        n=n,
        lambda_lower=lam_lo,
        lambda_upper=lam_hi,
        a_value=a,
        a_is_exact=exact,
        q_value=4.0 * math.exp(a / 2.0),
    )
