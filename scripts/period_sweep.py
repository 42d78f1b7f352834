#!/usr/bin/env python3
"""Period multipliers of the generation-1 model over all first-level
branches mu = 1..6 (N = 3, undamped seed).

Each branch is solved algebraically on a uniform grid covering several
base periods T = 2*pi, then scanned for the smallest integer p with
x(t + p T) = x(t) labelwise.
"""

import sys

import numpy as np

from goldgen.dynamics import ModelSpec
from goldgen.errors import GoldgenError, failure_text
from goldgen.solvers import detect_period, solve_generation_path

X0 = np.array([0.9 + 0.1j, -0.2 - 0.5j, -0.8 + 0.6j])
V0 = np.array([0.1 - 0.2j, 0.25 + 0.1j, -0.15 + 0.05j])


def main():
    spec = ModelSpec("linear_seed", a=0.0, depth=1)
    T = 2 * np.pi
    p_max = 6
    grid = np.linspace(0.0, (p_max + 1) * T, (p_max + 1) * 240 + 1)
    print("branch  period multiplier  residual")
    for mu in range(1, 7):
        try:
            path = solve_generation_path(spec, X0, V0, (mu,), grid)
            rep = detect_period(path, T, p_max)
            print(f"mu={mu}     p={rep.multiplier}              "
                  f"{rep.residual:.3e}")
        except GoldgenError as e:
            print(f"mu={mu}     {failure_text(e)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
