"""Dimensional constants: unit-sphere areas and unit-ball volumes."""

from __future__ import annotations

import math


def sphere_area(n: int) -> float:
    """Surface area of the unit sphere in R^n (the (n-1)-dimensional measure).

    n=2 gives 2*pi (circle length), n=3 gives 4*pi.
    """
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got {n}")
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def ball_volume(n: int) -> float:
    """Volume of the unit ball in R^n.  n=2 gives pi."""
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got {n}")
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)
