"""The distance between two equal-size unordered sets.

Only functions of the unordered zero set are well defined (Remark 1.1), so
every comparison of two families in the package, of points or of
polynomials, goes through `set_distance`: the sum-optimal pairing, then its
largest cost.  It is the largest cost of one complete pairing, so it is
never below the smallest largest cost any pairing achieves.

Zero tracking pairs no sets here: `solvers.track_zeros` certifies its
nearest-zero pairing geometrically instead.

scipy's `linear_sum_assignment` is imported on first use: only `verify`,
the oracle and the scripts match sets, so the `generate`, `simulate` and
`solve` commands never load scipy.
"""

from __future__ import annotations

import numpy as np


def set_distance(a, b) -> float:
    """Largest matched cost under the sum-optimal pairing of two same-size
    families; 0.0 for two empty ones.

    The cost of a pair is |a_i - b_j| for points and, when the rows are
    coefficient vectors, the largest absolute coefficient difference.
    """
    from scipy.optimize import linear_sum_assignment

    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if len(a) != len(b):
        raise ValueError("family sizes differ")
    if len(a) == 0:
        return 0.0
    cost = np.abs(a[:, None] - b[None, :])
    if cost.ndim == 3:
        cost = cost.max(axis=-1)
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())
