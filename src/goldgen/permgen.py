"""Permutation indexing and the generation construction.

A generation step turns the zeros of one monic polynomial into the
coefficients of the next: order the parent's zeros canonically, apply the
mu-th lexicographic permutation, and read the result as a coefficient
vector; `lift` takes that step.  A depth-k tree therefore has (N!)^k nodes
at level k, addressed by k-vectors of permutation indices in [1, N!].

Also holds the closed-form N=2 family (three generations by nested square
roots) used as an independent oracle against the tree engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateZeros, NonFiniteState, TreeBudgetExceeded
from .matching import set_distance
from .polycore import (
    MonicPoly,
    Tolerances,
    canonical_order,
    zeros_batch,
    zeros_from_coeffs,
)

DEFAULT_NODE_BUDGET = 10**6


def mu_to_perm(mu: int, n: int) -> tuple[int, ...]:
    """The mu-th permutation of (1..n) in lexicographic order, mu in [1, n!].

    Factorial-base (Lehmer) unranking; mu=1 is the identity.
    """
    nf = math.factorial(n)
    if not 1 <= mu <= nf:
        raise ValueError(f"mu={mu} out of range [1, {nf}]")
    r = mu - 1
    avail = list(range(1, n + 1))
    out = []
    for i in range(n, 0, -1):
        f = math.factorial(i - 1)
        idx, r = divmod(r, f)
        out.append(avail.pop(idx))
    return tuple(out)


def perm_to_mu(perm, n: int | None = None) -> int:
    """Lexicographic rank (1-based) of a permutation of (1..n)."""
    perm = tuple(int(p) for p in perm)
    n = n if n is not None else len(perm)
    if sorted(perm) != list(range(1, n + 1)):
        raise ValueError(f"not a permutation of 1..{n}: {perm}")
    avail = list(range(1, n + 1))
    r = 0
    for i, p in enumerate(perm):
        idx = avail.index(p)
        r += idx * math.factorial(n - 1 - i)
        avail.pop(idx)
    return r + 1


def lift(frames, mu: int, tol: Tolerances = Tolerances()):
    """The mu-th generation step of every zero set in `frames`, a (T, N)
    path of them.

    The labels are assigned once, at frame 0, and kept along the path
    (Remark 1.1): `order` is the canonical order of frames[0] followed by
    the mu-th permutation, and row k of coefficients is frames[k, order].
    Returns (zeros, order), with the zeros of all rows found in one batched
    solve, each row in canonical order; raises the first failed row's error.
    """
    frames = np.asarray(frames, dtype=np.complex128)
    order = canonical_order(frames[0])[np.asarray(mu_to_perm(mu, frames.shape[1])) - 1]
    return zeros_from_coeffs(frames[:, order], tol), order


@dataclass(frozen=True)
class GenerationNode:
    address: tuple[int, ...]
    poly: MonicPoly
    zeros: np.ndarray  # in canonical order


@dataclass
class GenerationTree:
    seed: GenerationNode
    depth: int
    nodes: dict[tuple[int, ...], GenerationNode] = field(default_factory=dict)
    # addresses whose expansion failed (value = error message)
    failed: dict[tuple[int, ...], str] = field(default_factory=dict)

    def level(self, k: int) -> list[GenerationNode]:
        return [n for a, n in sorted(self.nodes.items()) if len(a) == k]

    def to_json(self) -> str:
        """The tree as json.dumps writes {"seed", "depth", "nodes": [{"mu",
        "coeffs", "zeros"}]} (nodes in address order, complex numbers as
        [re, im]), formatting each float once: `str` of two floats is json's
        text for them, and a child's coeffs join its parent's zero strings in
        the mu-th order.  The bytes match because every zero and seed
        coefficient is finite (zeros_batch fails non-finite rows; MonicPoly
        validates the seed), addresses are Python ints, and node.poly.coeffs
        is bit for bit parent.zeros[perm], as generation_tree builds it."""
        addrs = sorted(self.nodes)
        n = len(self.seed.zeros)
        z = np.concatenate([self.seed.poly.coeffs, self.seed.zeros]
                           + [self.nodes[a].zeros for a in addrs])
        pairs = list(map(str, np.stack((z.real, z.imag), axis=1).tolist()))
        zeros = {a: pairs[n * i:n * i + n] for i, a in enumerate([(), *addrs], 1)}
        perms = {mu: mu_to_perm(mu, n) for mu in {a[-1] for a in addrs}}
        nodes = ", ".join(
            '{"mu": %s, "coeffs": [%s], "zeros": [%s]}' % (
                list(a),
                ", ".join([zeros[a[:-1]][p - 1] for p in perms[a[-1]]]),
                ", ".join(zeros[a]))
            for a in addrs)
        return '{"seed": [%s], "depth": %d, "nodes": [%s]}' % (
            ", ".join(pairs[:n]), self.depth, nodes)


def generation_tree(
    seed: MonicPoly | np.ndarray,
    depth: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
    tol: Tolerances = Tolerances(),
) -> GenerationTree:
    """Expand the generation tree of `seed`, a MonicPoly or its coefficient
    vector, to the given depth.

    Each level is root-extracted in one batched solve.  Branches whose solve
    fails (degenerate or unconverged zeros) are recorded in `tree.failed`
    and not expanded further.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if not isinstance(seed, MonicPoly):
        seed = MonicPoly(seed)
    n = len(seed.coeffs)
    nf = math.factorial(n)
    # stop summing once past the budget: nf**depth can have millions of digits
    count, width = 0, 1
    for _ in range(depth):
        width *= nf
        count += width
        if count > node_budget:
            raise TreeBudgetExceeded(
                f"a depth-{depth} tree would exceed the node budget of {node_budget}"
            )

    root = GenerationNode((), seed, zeros_from_coeffs(seed.coeffs, tol))
    tree = GenerationTree(seed=root, depth=depth)
    frontier = [root]
    mus = range(1, nf + 1)
    perms = np.array([mu_to_perm(mu, n) for mu in mus]) - 1
    for _ in range(depth):
        if not frontier:
            break
        addresses = [parent.address + (mu,) for parent in frontier for mu in mus]
        # one batched solve for the whole level: row (parent, mu) holds the
        # mu-th ordering of the parent's zeros, which zeros_batch returned
        # checked and in canonical order
        coeffs = np.concatenate([parent.zeros[perms] for parent in frontier])
        zeros, errors = zeros_batch(coeffs, tol)
        frontier = []
        for i, address in enumerate(addresses):
            if i in errors:
                tree.failed[address] = str(errors[i])
                continue
            # zeros_batch fails every row with a non-finite coefficient
            node = GenerationNode(address, MonicPoly.trusted(coeffs[i]), zeros[i])
            tree.nodes[address] = node
            frontier.append(node)
    return tree


def _psqrt(z: complex) -> complex:
    """Principal square root: nonnegative real part; on the negative real
    axis the branch with positive imaginary part."""
    r = complex(np.sqrt(complex(z)))
    if r.real < 0 or (r.real == 0 and r.imag < 0):
        r = -r
    return r


def nested_radical_family(
    b: complex, c: complex, tol: float = 1e-12
) -> tuple[list[MonicPoly], list[MonicPoly], list[MonicPoly]]:
    """Closed-form generations 1-3 for the quadratic seed z^2 + b z + c.

    Every radical is taken as the principal square root; the per-level
    polynomial *sets* are branch-independent, individual labels are not.
    Raises DegenerateZeros when a radical is below tol in modulus, and
    NonFiniteState when a radical or coefficient overflows or is NaN.
    """
    b = complex(b)
    c = complex(c)
    r0 = _psqrt(b * b - 4 * c)
    r11 = _psqrt(8 * b + 2 * b * b - 4 * c + 8 * r0 - 2 * b * r0)
    r12 = _psqrt(8 * b + 2 * b * b - 4 * c - 8 * r0 + 2 * b * r0)
    base2 = -8 * b + 4 * b * b - 8 * c
    r21 = _psqrt(base2 + 24 * r0 - 4 * b * r0 + 16 * r11 + 2 * b * r11 - 2 * r0 * r11)
    r22 = _psqrt(base2 + 24 * r0 - 4 * b * r0 - 16 * r11 - 2 * b * r11 + 2 * r0 * r11)
    r23 = _psqrt(base2 - 24 * r0 + 4 * b * r0 + 16 * r12 + 2 * b * r12 + 2 * r0 * r12)
    r24 = _psqrt(base2 - 24 * r0 + 4 * b * r0 - 16 * r12 - 2 * b * r12 - 2 * r0 * r12)
    for name, r in [("r0", r0), ("r11", r11), ("r12", r12), ("r21", r21),
                    ("r22", r22), ("r23", r23), ("r24", r24)]:
        if abs(r) < tol:
            raise DegenerateZeros(f"degenerate radicand: {name} ~ 0")

    def quad(u: complex, r: complex, s: float) -> tuple[complex, complex]:
        # z^2 + u (z + 1) + s r (z - 1) -> y = (u + s r, u - s r)
        return u + s * r, u - s * r

    rows = np.array([
        # generation 1
        quad(-b / 2, r0 / 2, +1.0),
        quad(-b / 2, r0 / 2, -1.0),
        # generation 2
        quad((b - r0) / 4, r11 / 4, +1.0),
        quad((b - r0) / 4, r11 / 4, -1.0),
        quad((b + r0) / 4, r12 / 4, +1.0),
        quad((b + r0) / 4, r12 / 4, -1.0),
        # generation 3
        quad((-b + r0 - r11) / 8, r21 / 8, +1.0),
        quad((-b + r0 - r11) / 8, r21 / 8, -1.0),
        quad((-b + r0 + r11) / 8, r22 / 8, +1.0),
        quad((-b + r0 + r11) / 8, r22 / 8, -1.0),
        quad((-b - r0 - r12) / 8, r23 / 8, +1.0),
        quad((-b - r0 - r12) / 8, r23 / 8, -1.0),
        quad((-b - r0 + r12) / 8, r24 / 8, +1.0),
        quad((-b - r0 + r12) / 8, r24 / 8, -1.0),
    ], dtype=np.complex128)
    # every radical enters some coefficient, so one check covers them all
    if not np.isfinite(rows).all():
        raise NonFiniteState("a radical or coefficient of the family overflows or is NaN")
    family = [MonicPoly.trusted(row) for row in rows]
    return family[:2], family[2:6], family[6:]


def match_poly_sets(a: list[MonicPoly], b: list[MonicPoly]) -> float:
    """`set_distance` of two polynomial families' coefficient rows.  It stays
    only until the benchmark reads coefficient arrays (ROADMAP item 1)."""
    return set_distance([p.coeffs for p in a], [p.coeffs for p in b])
