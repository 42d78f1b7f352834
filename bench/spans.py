"""Layer spans for the traced run, recorded from outside the program.

Each boundary wraps goldgen functions at the name their calling module
binds, so `solvers.zeros_from_coeffs` and `permgen.zeros_from_coeffs` are
both wrapped.  A span is (boundary, start, end, parent span, case id); spans
stay in compact arrays while the run lasts and are written out at its end.
A boundary's self time is its span minus the spans directly inside it.
"""

from __future__ import annotations

import contextlib
import math
from array import array

import numpy as np

from goldgen import cli, dynamics, permgen, polycore, solvers

# boundary -> (module, attribute) pairs it wraps
BOUNDARIES = {
    "polycore.roots": [(solvers, "zeros_from_coeffs"), (permgen, "zeros_from_coeffs"),
                       (polycore, "zeros_from_coeffs")],
    "polycore.transfer": [(dynamics, "coeffs_velocity"), (dynamics, "zeros_acceleration"),
                          (dynamics, "elem_sym_all"), (polycore, "r_matrix")],
    "dynamics.rhs": [(dynamics, "rhs")],
    "dynamics.integrate": [(dynamics, "integrate")],
    "dynamics.initial": [(dynamics, "build_initial_state")],
    "solvers.seed": [(solvers, "solve_linear_seed"), (solvers, "solve_iso_goldfish_at")],
    "solvers.path": [(solvers, "solve_generation_path")],
    "solvers.track": [(solvers, "track_zeros")],
    "permgen.tree": [(permgen, "generation_tree")],
    "permgen.match": [(permgen, "match_poly_sets")],
    "cli": [(cli, "main")],
}
NAMES = list(BOUNDARIES)

# counts taken from a boundary's return value: key -> function of the result
OBSERVE = {
    "dynamics.integrate": lambda tr: {"steps": tr.steps, "rejected": tr.rejected,
                                      "min_gap": tr.min_gap},
    "solvers.track": lambda path: {"frames": len(path.times)},
    "permgen.tree": lambda tree: {"nodes": len(tree.nodes),
                                  "failed_branches": len(tree.failed)},
}


class Tracer:
    """Collects spans while installed; `installed()` restores every wrapper."""

    def __init__(self, clock):
        self.clock = clock
        self.name = array("b")
        self.parent = array("l")
        self.case = array("l")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self.stack: list[int] = []
        self.case_id = -1
        self.counts: dict[tuple[int, str], float] = {}
        self.missing: list[str] = []

    def _count(self, key: str, value: float, combine=lambda a, b: a + b) -> None:
        k = (self.case_id, key)
        self.counts[k] = combine(self.counts[k], value) if k in self.counts else value

    def _wrap(self, boundary: str, fn):
        code = NAMES.index(boundary)
        observe = OBSERVE.get(boundary)

        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name.append(code)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.case.append(self.case_id)
            self.raised.append(0)
            self.end.append(0.0)
            self.stack.append(idx)
            self.start.append(self.clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.raised[idx] = 1
                raise
            finally:
                self.end[idx] = self.clock()
                self.stack.pop()
            if observe is not None:
                for key, value in observe(result).items():
                    self._count(f"{boundary}.{key}", value,
                                min if key == "min_gap" else (lambda a, b: a + b))
            return result

        return wrapper

    def _count_lsa(self, fn):
        track = NAMES.index("solvers.track")

        def wrapper(*args, **kwargs):
            if self.stack and self.name[self.stack[-1]] == track:
                self._count("solvers.track.lsa", 1)
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def installed(self, case_id: int):
        """Wrap every boundary for one case, and unwrap on the way out."""
        self.case_id = case_id
        saved = []
        targets = [(b, mod, attr) for b, pairs in BOUNDARIES.items()
                   for mod, attr in pairs]
        targets.append((None, solvers, "linear_sum_assignment"))
        try:
            for boundary, mod, attr in targets:
                fn = getattr(mod, attr, None)
                if fn is None:  # renamed or removed in the program
                    self.missing.append(f"{mod.__name__}.{attr}")
                    continue
                saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(boundary, fn) if boundary
                        else self._count_lsa(fn))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)
            self.case_id = -1

    def arrays(self) -> dict:
        return {key: np.array(getattr(self, key)) for key in
                ("name", "parent", "case", "start", "end", "raised")}

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(NAMES), **self.arrays())

    def per_case(self, case_ids) -> dict:
        """Per case: self seconds, calls and raised calls per boundary, and
        the seconds covered by top-level spans."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        inner = a["parent"] >= 0
        child = np.bincount(a["parent"][inner], weights=dur[inner], minlength=len(dur))
        own = dur - child
        out = {}
        for cid in case_ids:
            sel = a["case"] == cid
            names = a["name"][sel]
            nb = len(NAMES)
            out[cid] = {
                "self_s": np.bincount(names, weights=own[sel], minlength=nb),
                "total_s": np.bincount(names, weights=dur[sel], minlength=nb),
                "calls": np.bincount(names, minlength=nb),
                "raised": np.bincount(names, weights=a["raised"][sel], minlength=nb),
                "covered_s": float(dur[sel & ~inner].sum()),
                "counts": {k: v for (c, k), v in self.counts.items() if c == cid},
            }
        return out


def layer_metrics(rows: list[dict]) -> dict:
    """Per-layer metrics from traced cases.

    Each row holds a case's `trace` record (from `per_case`), its `ref` in
    seconds, and its traced and untraced case times in ref units.  Counts
    and ref times are means per case; shares divide by the untraced case
    time summed over cases, so the self shares plus the remainder share add
    up to 1 + overhead share.
    """
    cases = len(rows)
    untraced = sum(r["untraced_ref"] for r in rows)
    traced = sum(r["traced_ref"] for r in rows)
    self_ref = sum(r["trace"]["self_s"] / r["ref"] for r in rows)
    total_ref = sum(r["trace"]["total_s"] / r["ref"] for r in rows)
    calls = sum(r["trace"]["calls"] for r in rows)
    raised = sum(r["trace"]["raised"] for r in rows)
    covered = sum(r["trace"]["covered_s"] / r["ref"] for r in rows)

    def count(key: str) -> float:
        return float(sum(r["trace"]["counts"].get(key, 0) for r in rows))

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m = {}
    for i, name in enumerate(NAMES):
        m[f"{name}.calls"] = (calls[i] / cases, "count/case")
        m[f"{name}.self_ref"] = (self_ref[i] / cases, "ref/case")
        m[f"{name}.self_share"] = (ratio(self_ref[i], untraced), "ratio")
    roots, rhs, track = (NAMES.index(n) for n in
                         ("polycore.roots", "dynamics.rhs", "solvers.track"))
    m["polycore.roots.ref_per_call"] = (ratio(total_ref[roots], calls[roots]), "ref")
    m["polycore.roots.failed"] = (float(raised[roots]), "count")
    m["dynamics.rhs.ref_per_call"] = (ratio(total_ref[rhs], calls[rhs]), "ref")
    steps, rejected = count("dynamics.integrate.steps"), count("dynamics.integrate.rejected")
    gaps = [r["trace"]["counts"]["dynamics.integrate.min_gap"] for r in rows
            if "dynamics.integrate.min_gap" in r["trace"]["counts"]]
    m["dynamics.integrate.steps"] = (steps / cases, "count/case")
    m["dynamics.integrate.rejected"] = (rejected / cases, "count/case")
    m["dynamics.integrate.accept_ratio"] = (ratio(steps, steps + rejected), "ratio")
    m["dynamics.integrate.min_gap"] = (min(gaps) if gaps and math.isfinite(min(gaps)) else 0.0,
                                       "length")
    frames = count("solvers.track.frames")
    m["solvers.track.frames"] = (frames / cases, "count/case")
    m["solvers.track.lsa_per_frame"] = (ratio(count("solvers.track.lsa"), frames), "ratio")
    m["solvers.track.failed"] = (float(raised[track]), "count")
    nodes, failed = count("permgen.tree.nodes"), count("permgen.tree.failed_branches")
    m["permgen.tree.nodes"] = (nodes / cases, "count/case")
    m["permgen.tree.failed_branches"] = (failed, "count")
    m["permgen.tree.node_ratio"] = (ratio(nodes, nodes + failed), "ratio")
    m["cli.bytes_written"] = (sum(r["bytes_written"] for r in rows) / cases, "B/case")
    m["trace.overhead_share"] = (ratio(traced, untraced) - 1.0, "ratio")
    m["trace.remainder_share"] = (ratio(traced - covered, untraced), "ratio")
    return m
