#!/usr/bin/env python3
"""Expand the generation tree of a quadratic seed and cross-check the
first three levels against the nested-radical closed forms.

Usage: python scripts/generation_demo.py [b_re b_im c_re c_im]
"""

import sys

from goldgen.errors import failure_text
from goldgen.matching import set_distance
from goldgen.permgen import nested_radical_family, generation_tree


def main(argv):
    if len(argv) == 4:
        b = complex(float(argv[0]), float(argv[1]))
        c = complex(float(argv[2]), float(argv[3]))
    else:
        b, c = 0.7 - 0.3j, -1.2 + 0.5j
    print(f"seed: z^2 + ({b}) z + ({c})")

    tree = generation_tree([b, c], depth=3)
    closed = nested_radical_family(b, c)
    for k in (1, 2, 3):
        nodes = tree.level(k)
        print(f"\ngeneration {k}: {len(nodes)} polynomials")
        for node in nodes:
            cs = ", ".join(f"{z:.6f}" for z in node.poly.coeffs)
            print(f"  mu={list(node.address)}: [{cs}]")
        dev = set_distance([p.coeffs for p in closed[k - 1]],
                           [n.poly.coeffs for n in nodes])
        print(f"  closed-form deviation: {dev:.3e}")
    if tree.failed:
        print("\nhalted branches:")
        for addr, e in tree.failed.items():
            print(f"  mu={list(addr)}: {failure_text(e)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
