"""Permutation indexing and the generation construction.

A generation step turns the zeros of one monic polynomial into the
coefficients of the next: order the parent's zeros canonically, apply the
mu-th lexicographic permutation, and read the result as coefficients
(`lift`).  A depth-k tree has (N!)^k nodes at level k, addressed by
k-vectors of permutation indices in [1, N!]; `GenerationTree` keeps each
level as arrays and makes node objects only for callers that ask for them.

Also holds the closed-form N=2 family (three generations by nested square
roots) used as an independent oracle against the tree engine.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateZeros, GoldgenError, NonFiniteState, TreeBudgetExceeded
from .matching import set_distance
from .polycore import (
    MonicPoly,
    Tolerances,
    as_vector,
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
    """A generation tree kept as level arrays: levels[k] = (rows, coeffs,
    zeros) of level k's solved nodes in address order, levels[0] the seed's;
    row parent * N! + mu - 1 indexes the previous level's nodes times the N!
    orderings, and zeros are canonically ordered.  `to_json` reads only these;
    `nodes` and `level(k)` are GenerationNode views made on access."""

    depth: int
    levels: list[tuple[np.ndarray, np.ndarray, np.ndarray]]
    # addresses whose expansion failed, each with the error that stopped it
    failed: dict[tuple[int, ...], GoldgenError] = field(default_factory=dict)
    _views: dict[int, list[GenerationNode]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    @functools.cached_property
    def perms(self) -> np.ndarray:
        """Row mu - 1 is the mu-th permutation of range(N) (permutations()
        yields them in lexicographic order)."""
        return np.array(list(itertools.permutations(range(self.levels[0][1].shape[1]))))

    def _addresses(self, upto: int | None = None) -> list[np.ndarray]:
        """The addresses of levels 0..upto (all by default), level k's an
        (R_k, k) array whose rows are its nodes' mu entries."""
        nf, out = math.factorial(self.levels[0][1].shape[1]), [np.zeros((1, 0), int)]
        for rows, _, _ in self.levels[1:][:upto]:
            out.append(np.column_stack((out[-1][rows // nf], rows % nf + 1)))
        return out

    @functools.cached_property
    def nodes(self) -> dict[tuple[int, ...], GenerationNode]:
        return {nd.address: nd for k in range(1, len(self.levels)) for nd in self.level(k)}

    def level(self, k: int) -> list[GenerationNode]:
        """Level k's nodes (k >= 1) in address order, made on first access."""
        if k not in self._views:
            coeffs, zeros = self.levels[k][1:] if 0 < k < len(self.levels) else ((), ())
            self._views[k] = [GenerationNode(tuple(a), MonicPoly(c), z) for a, c, z
                              in zip(self._addresses(k)[-1].tolist(), coeffs, zeros)]
        return self._views[k]

    def to_json(self) -> str:
        """The tree as json.dumps writes {"seed", "depth", "nodes": [{"mu",
        "coeffs", "zeros"}]}, nodes in address order and complex numbers as
        [re, im], in one join of texts: a float's `repr` is json's text for it
        (all are finite), and a child's coeffs, bit for bit its parent's
        zeros[perm], are its parent's zero texts in the mu-th order."""
        n, depth = self.levels[0][1].shape[1], len(self.levels) - 1
        nf, pairs = math.factorial(n), ", ".join(["[%s, %s]"] * n)
        z = np.concatenate([self.levels[0][1]] + [lv[2] for lv in self.levels], axis=None)
        # text[0]: seed coeffs; text[i + 1]: the zeros of node i (level order, root 0)
        text = np.array(list(map(repr, z.view(np.float64).tolist())),
                        dtype=object).reshape(-1, n, 2)
        head = '{"seed": [%s], "depth": %d, "nodes": [' % (
            pairs % tuple(text[0].flat), self.depth)
        starts = np.cumsum([0] + [len(rows) for rows, _, _ in self.levels])
        if starts[-1] == 1:  # no node but the root
            return head + "]}"
        addr = np.zeros((starts[-1], depth), dtype=int)  # zero-padded
        for k, level_addr in enumerate(self._addresses()):
            addr[starts[k]:starts[k + 1], :k] = level_addr
        # node i of level k >= 1: ordering rows[i] % nf of node starts[k-1] + rows[i] // nf
        rows = np.concatenate([rows for rows, _, _ in self.levels])
        parent = np.repeat(np.append(0, starts[:-2]), np.diff(starts)) + rows // nf
        node = np.lexsort(addr.T[::-1])[1:]  # address order, the root dropped
        mu = np.array(list(map(str, range(nf + 1))), dtype=object)
        rest = np.where(np.arange(nf + 1) > 0, ", " + mu, "")  # 0 pads an address
        args = np.concatenate((mu[addr[node, :1]], rest[addr[node, 1:]], text[
            parent[node, None] + 1, self.perms[rows[node] % nf]].reshape(len(node), -1),
            text[node + 1].reshape(len(node), -1)), axis=1)
        tokens = np.empty((len(node), 2 * args.shape[1] + 1), dtype=object)
        tokens[:, 1::2] = args
        node_text = '], "coeffs": [%s], "zeros": [%s]}, ' % (pairs, pairs)
        tokens[:, ::2] = ('{"mu": [' + "%s" * depth + node_text).split("%s")
        tokens[0, 0], tokens[-1, -1] = head + tokens[0, 0], tokens[-1, -1][:-2] + "]}"
        return "".join(tokens.ravel().tolist())


def generation_tree(
    seed: MonicPoly | np.ndarray,
    depth: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
    tol: Tolerances = Tolerances(),
) -> GenerationTree:
    """Expand the generation tree of `seed`, a MonicPoly or its coefficient
    vector (1-d, finite, N >= 1, else ValueError), to the given depth.

    Each level's rows are one fancy index of the previous level's zeros,
    root-extracted in one batched solve.  Branches whose solve fails
    (degenerate or unconverged zeros) are recorded in `tree.failed`, with
    their error, and not expanded further.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    coeffs = as_vector(seed.coeffs if isinstance(seed, MonicPoly) else seed)
    n = len(coeffs)
    if n < 1:
        raise ValueError("degree must be >= 1")
    nf = math.factorial(n)
    # stop summing once past the budget: nf**depth can have millions of digits.
    # N = 1 addresses hold depth**2 / 2 entries, so 2**depth - 1 counts too
    count, width = 0, 1
    for _ in range(depth):
        width *= nf
        count += width
        if count > node_budget or depth >= (node_budget + 1).bit_length():
            raise TreeBudgetExceeded(f"a depth-{depth} tree would exceed the node "
                                     f"budget of {node_budget}")

    zeros = zeros_from_coeffs(coeffs, tol)[None]
    tree = GenerationTree(depth, [(np.arange(1), coeffs[None], zeros)])
    while len(tree.levels) <= depth and len(zeros):
        # row parent * nf + mu - 1 holds the mu-th ordering of the parent's
        # checked, canonically ordered zeros; the reshape copies it in C order
        coeffs = zeros[:, tree.perms].reshape(-1, n)
        zeros, errors = zeros_batch(coeffs, tol)
        tree.levels.append((np.arange(len(coeffs)), coeffs, zeros))
        if errors:  # record the failed rows' addresses and drop the rows
            addrs = tree._addresses()[-1][list(errors)].tolist()
            tree.failed.update(zip(map(tuple, addrs), errors.values()))
            rows = np.delete(np.arange(len(coeffs)), list(errors))
            zeros = zeros[rows]
            tree.levels[-1] = (rows, coeffs[rows], zeros)
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
    family = [MonicPoly(row) for row in rows]
    return family[:2], family[2:6], family[6:]


def match_poly_sets(a: list[MonicPoly], b: list[MonicPoly]) -> float:
    """`set_distance` of two polynomial families' coefficient rows.  It stays
    only until the benchmark reads coefficient arrays (ROADMAP item 1)."""
    return set_distance([p.coeffs for p in a], [p.coeffs for p in b])
