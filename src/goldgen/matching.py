"""Pairing two equal-size families of points or polynomials.

Every comparison of two unordered sets in the package goes through here,
under one of two named semantics:

- *sum-optimal*: the pairing that minimises the total cost (zero tracking,
  set distances between point clouds);
- *bottleneck*: the smallest achievable largest cost over all pairings
  (the closed-form oracle for generation families).

The bottleneck value is found by the threshold method (Garfinkel, Oper.
Res. 1971): binary search over the sorted distinct costs, testing each
threshold for a perfect matching that uses only edges at or below it.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment


def distance_matrix(a, b) -> np.ndarray:
    """|a_i - b_j| for every pair.  When the rows are coefficient vectors,
    the distance is the largest absolute coefficient difference."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if len(a) != len(b):
        raise ValueError("family sizes differ")
    d = np.abs(a[:, None] - b[None, :])
    return d.max(axis=-1) if d.ndim == 3 else d


def sum_optimal(cost) -> np.ndarray:
    """Columns of the sum-optimal pairing: row i goes to column cols[i]."""
    _, cols = linear_sum_assignment(cost)
    return cols


def second_best(cost, cols) -> float:
    """Exact second-best total cost, found by forbidding each edge of the
    optimal pairing `cols` in turn."""
    second = np.inf
    sentinel = (1.0 + float(cost.max())) * (len(cols) + 1) * 1e6
    for r, c in enumerate(cols):
        forbidden = cost.copy()
        forbidden[r, c] = sentinel
        rr, cc = linear_sum_assignment(forbidden)
        val = forbidden[rr, cc].sum()
        if val < sentinel:  # assignment avoided the forbidden edge
            second = min(second, val)
    return second


def bottleneck(cost) -> float:
    """Minimum over perfect matchings of the largest matched cost.

    The result is one of the entries of `cost`, so it equals the brute
    force minimum over all permutations exactly.
    """
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
    cost = distance_matrix(a, b)
    cols = sum_optimal(cost)
    return float(cost[np.arange(len(cols)), cols].max())
