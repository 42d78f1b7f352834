#!/usr/bin/env python3
"""Asymptotic isochrony of the damped generation-1 model.

With seed damping a > 0 the configuration is not periodic, but the
set-wise deviation between x(t) and x(t + T), T = 2*pi, decays to zero:
the transient mode e^{-a t} dies out and only the periodic mode e^{i t}
survives.  Prints the per-period deviation and the ratio between
consecutive periods (expected to approach e^{-2*pi*a}).

Usage: python scripts/isochrony_decay.py [a] [n_periods]
"""

import sys

import numpy as np

from goldgen.dynamics import ModelSpec
from goldgen.solvers import solve_generation_path
from goldgen.matching import set_distance

X0 = np.array([0.9 + 0.1j, -0.2 - 0.5j, -0.8 + 0.6j])
V0 = np.array([0.1 - 0.2j, 0.25 + 0.1j, -0.15 + 0.05j])


def main(argv):
    a = float(argv[0]) if argv else 0.5
    n_periods = int(argv[1]) if len(argv) > 1 else 6
    spec = ModelSpec("linear_seed", a=a, depth=1)
    T = 2 * np.pi
    pts = 240
    grid = np.linspace(0.0, n_periods * T, n_periods * pts + 1)
    path = solve_generation_path(spec, X0, V0, (2,), grid)

    print(f"a = {a}, base period T = 2*pi, expected ratio "
          f"e^(-2*pi*a) = {np.exp(-2 * np.pi * a):.6f}\n")
    print("window        max set deviation   ratio")
    prev = None
    for w in range(n_periods - 1):
        lo, hi = w * pts, (w + 1) * pts
        dev = max(
            set_distance(path.values[i], path.values[i + pts])
            for i in range(lo, hi + 1)
        )
        ratio = "" if prev is None else f"{dev / prev:.6f}"
        print(f"[{w}T, {w + 1}T]    {dev:.6e}        {ratio}")
        prev = dev
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
