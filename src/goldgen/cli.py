"""Command-line front-end.

Subcommands: generate (tree JSON), simulate (trajectory CSV), solve
(labeled-path CSV), verify (acceptance suites), period (period report).

Exit codes: 0 ok, 1 verification failure, 2 usage/config error (also an
unwritable output), 3 numerical failure.  Outputs are written atomically,
with the file mode a plain write gives.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import math
import os
import stat
import sys
import tempfile
import time

import numpy as np

from . import dynamics, permgen, solvers, verify
from .config import ConfigError, RunConfig, load_config
from .errors import GoldgenError, NoPeriodFound, failure_text

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _atomic_write(path: str, text: str) -> None:
    """Write through a temporary file, which no failure leaves behind, with
    the mode open(path, "w") leaves: the old file's, else 0o666 & ~umask."""
    try:
        try:
            mode = stat.S_IMODE(os.stat(path).st_mode)
        except FileNotFoundError:
            umask = os.umask(0o077)  # the only way to read it is to set it
            os.umask(umask)
            mode = 0o666 & ~umask
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                                   prefix=".goldgen-")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            os.chmod(tmp, mode)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as e:
        raise ConfigError(f"cannot write {path}: {e.strerror or e}") from e


def csv_text(times, **series) -> str:
    """CSV with a column t, then columns name1_re, name1_im, ..., nameN_im
    for each (T, N) complex series, at full precision (%.17g, the digits of
    format(v, ".17g"))."""
    cols = ["t"]
    table = [np.asarray(times, dtype=float)[:, None]]
    for name, values in series.items():
        n = values.shape[1]
        cols += [f"{name}{i}_{p}" for i in range(1, n + 1) for p in ("re", "im")]
        table.append(np.stack((values.real, values.imag), axis=2).reshape(-1, 2 * n))
    table = np.hstack(table)
    row = ",".join(["%.17g"] * len(cols)) + "\n"
    return ",".join(cols) + "\n" + (row * len(table)) % tuple(table.ravel().tolist())


def _out_path(cfg: RunConfig, args, default: str) -> str:
    return args.output or cfg.output or default


def cmd_generate(cfg: RunConfig, args) -> int:
    if cfg.seed_coeffs is None:
        raise ConfigError("config needs seed_coeffs")
    depth = args.depth if args.depth is not None else cfg.depth
    if depth < 0:
        raise ConfigError(f"--depth must be >= 0, not {depth}")
    tree = permgen.generation_tree(cfg.seed_coeffs, depth, node_budget=cfg.node_budget,
                                   tol=cfg.tolerances)
    path = _out_path(cfg, args, "tree.json")
    _atomic_write(path, tree.to_json())
    print(f"wrote {path}: {sum(len(r) for r, *_ in tree.levels[1:])} nodes, depth {depth}")
    for addr, e in tree.failed.items():
        print(f"  branch mu={list(addr)} halted: {failure_text(e)}", file=sys.stderr)
    return EXIT_OK


def cmd_simulate(cfg: RunConfig, args) -> int:
    x0, v0 = dynamics.build_initial_state(*cfg.initial, cfg.mu, cfg.tolerances)
    traj = dynamics.integrate(cfg.model, x0, v0, cfg.grid.times, cfg.tolerances)
    path = _out_path(cfg, args, "trajectory.csv")
    _atomic_write(path, csv_text(traj.times, x=traj.x, v=traj.v))
    print(
        f"wrote {path}: {len(traj.times)} samples, {traj.steps} steps "
        f"({traj.rejected} rejected: {traj.rejected_error} error, "
        f"{traj.rejected_guard} guard), {traj.rhs_calls} RHS calls, "
        f"min gap {float(traj.min_gap)!r}"  # every digit: it reads back exactly
    )
    return EXIT_OK


def cmd_solve(cfg: RunConfig, args) -> int:
    path = solvers.solve_generation_path(
        cfg.model, *cfg.initial, cfg.mu, cfg.grid.times, cfg.tolerances
    )
    out = _out_path(cfg, args, "path.csv")
    _atomic_write(out, csv_text(path.times, x=path.values))
    print(f"wrote {out}: {len(path.times)} samples")
    return EXIT_OK


def cmd_verify(args) -> int:
    names = [args.suite] if args.suite != "all" else list(verify.SUITES)
    all_ok = True
    for name in names:
        start = time.perf_counter()
        try:
            checks = verify.SUITES[name]()
        except GoldgenError as e:  # the engine failed: report it, run the rest
            print(f"[FAIL] {name}: {failure_text(e)}")
            all_ok, checks = False, []
        elapsed = time.perf_counter() - start
        for c in checks:
            print(f"[{'PASS' if c.passed else 'FAIL'}] {name}: {c.name}  "
                  f"(residual {c.residual:.3e}, threshold {c.threshold:.3e})")
            all_ok = all_ok and c.passed
        print(f"{name}: {elapsed:.2f} s")
    return EXIT_OK if all_ok else EXIT_VERIFY


def _read_path_csv(path: str):
    """Times and positions (T, N) from the t, x1_re, x1_im, ... columns of
    a CSV; ValueError saying what is wrong with it."""
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if not rows:
        raise ValueError("the CSV is empty")
    header = [name.strip() for name in rows[0]]
    if any(len(row) != len(header) for row in rows):
        raise ValueError("the CSV has rows of unequal length")
    if len(rows) < 4:  # a header and the 2 shift + 1 >= 3 rows detect_period needs
        raise ValueError(
            f"the CSV needs at least three rows of data, not {len(rows) - 1}")
    n = max(1, sum(name.startswith("x") for name in header) // 2)
    needed = ["t"] + [f"x{i}_{p}" for i in range(1, n + 1) for p in ("re", "im")]
    missing = [c for c in needed if c not in header]
    if missing:
        raise ValueError(f"the CSV lacks column(s) {', '.join(missing)}")
    cols = [header.index(c) for c in needed]
    table = np.array([[float(row[c]) for c in cols] for row in rows[1:]])
    times, values = table[:, 0], table[:, 1::2] + 1j * table[:, 2::2]
    if not (np.isfinite(times).all() and np.isfinite(np.abs(values)).all()):
        raise ValueError("the CSV holds a value that is not a finite number")
    if not (np.diff(times) > 0).all():
        raise ValueError("the times are not strictly increasing")
    return times, values


def cmd_period(args) -> int:
    for flag, value, ok, rule in (
        ("--period", args.period, math.isfinite(args.period) and args.period > 0,
         "finite and > 0"),
        ("--p-max", args.p_max, args.p_max >= 1, ">= 1"),
        ("--tol", args.tol, math.isfinite(args.tol) and args.tol > 0,
         "finite and > 0"),
    ):
        if not ok:
            raise ConfigError(f"{flag} must be {rule}, not {value!r}")
    try:
        path = solvers.LabeledPath(*_read_path_csv(args.trajectory))
        # a ValueError here: the grid is not uniform, its step does not divide T
        # or it is too short to compare p = 1
        rep = solvers.detect_period(path, args.period, args.p_max, period_tol=args.tol)
    except (OSError, ValueError, csv.Error) as e:
        raise ConfigError(str(e)) from e
    print(json.dumps(dataclasses.asdict(rep)))
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="goldgen",
        description="Generations of monic polynomials and solvable "
        "goldfish-type dynamics",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_config(p):
        p.add_argument("--config", required=True, help="JSON run config")
        p.add_argument("--output", help="override output path")

    g = sub.add_parser("generate", help="expand a generation tree to JSON")
    add_config(g)
    g.add_argument("--depth", type=int, default=None)

    s = sub.add_parser("simulate", help="integrate a model, write CSV")
    add_config(s)

    so = sub.add_parser("solve", help="algebraic solution path, write CSV")
    add_config(so)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument(
        "suite",
        choices=sorted(verify.SUITES) + ["all"],
    )

    p = sub.add_parser("period", help="detect the period of a CSV path")
    p.add_argument("trajectory", help="CSV file with t,x1_re,... columns")
    p.add_argument("--period", type=float, required=True, help="base period T")
    p.add_argument("--p-max", type=int, default=math.factorial(6))
    p.add_argument("--tol", type=float, default=solvers.DEFAULT_PERIOD_TOL)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "verify":
        return cmd_verify(args)
    # every overflow is caught by an explicit finiteness check (exit 2 or 3)
    with np.errstate(all="ignore"):
        try:
            if args.command == "period":
                return cmd_period(args)
            command = {"generate": cmd_generate, "simulate": cmd_simulate,
                       "solve": cmd_solve}[args.command]
            cfg = load_config(args.config)
            needs_path = command is not cmd_generate
            if needs_path and (cfg.initial is None or cfg.model is None):
                raise ConfigError("config needs 'initial' and 'model'")
            return command(cfg, args)
        except ConfigError as e:
            print(f"{args.command}: {e}", file=sys.stderr)
            return EXIT_CONFIG
        except GoldgenError as e:
            print(f"{args.command}: {failure_text(e)}", file=sys.stderr)
            return EXIT_VERIFY if isinstance(e, NoPeriodFound) else EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
