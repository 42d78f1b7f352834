"""Pairing two equal-size families of points or polynomials.

Every comparison of two unordered sets in the package goes through here,
under one of two named semantics:

- *sum-optimal*: the pairing that minimises the total cost (set distances
  between point clouds);
- *bottleneck*: the smallest achievable largest cost over all pairings
  (the closed-form oracle for generation families).

Zero tracking pairs no sets here: `solvers.track_zeros` certifies its
nearest-zero pairing geometrically instead.

The bottleneck value is found by the threshold method (Garfinkel, Oper.
Res. 1971): binary search over the sorted distinct costs, testing each
threshold for a perfect matching that uses only edges at or below it.

Both semantics call scipy's `linear_sum_assignment`, imported on first
use: only `verify`, the oracle and the scripts match sets, so the
`generate`, `simulate` and `solve` commands never load scipy.
"""

from __future__ import annotations

import numpy as np


def distance_matrix(a, b) -> np.ndarray:
    """|a_i - b_j| for every pair.  When the rows are coefficient vectors,
    the distance is the largest absolute coefficient difference."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if len(a) != len(b):
        raise ValueError("family sizes differ")
    d = np.abs(a[:, None] - b[None, :])
    return d.max(axis=-1) if d.ndim == 3 else d


def bottleneck(cost) -> float:
    """Minimum over perfect matchings of the largest matched cost.

    The result is one of the entries of `cost`, so it equals the brute
    force minimum over all permutations exactly.
    """
    from scipy.optimize import linear_sum_assignment

    cost = np.asarray(cost, dtype=float)
    if cost.size == 0:
        return 0.0
    values = np.unique(cost)
    lo, hi = 0, len(values) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        # a zero-total assignment on the 0/1 matrix uses only allowed edges
        blocked = cost > values[mid]
        rows, cols = linear_sum_assignment(blocked)
        if blocked[rows, cols].any():
            lo = mid + 1
        else:
            hi = mid
    return float(values[lo])


def set_distance(a, b) -> float:
    """Max matched distance between two same-size point clouds under the
    sum-optimal pairing."""
    from scipy.optimize import linear_sum_assignment

    cost = distance_matrix(a, b)
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())
