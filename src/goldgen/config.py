"""Run configuration: JSON ingestion, schema validation, dataclasses."""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from importlib import resources

import jsonschema
import jsonschema.exceptions
import numpy as np

from .dynamics import ModelSpec
from .polycore import Tolerances


class ConfigError(Exception):
    pass


def _schema() -> dict:
    text = resources.files("goldgen").joinpath("config_schema.json").read_text()
    return json.loads(text)


@functools.cache
def _validator() -> jsonschema.Draft202012Validator:
    """The schema's validator, built (and the schema checked) once."""
    schema = _schema()
    jsonschema.Draft202012Validator.check_schema(schema)
    return jsonschema.Draft202012Validator(schema)


def pairs_to_complex(pairs) -> np.ndarray:
    return np.array([complex(re, im) for re, im in pairs], dtype=np.complex128)


@dataclass
class Grid:
    t0: float = 0.0
    t1: float = 6.283185307179586
    dt_out: float = 0.02617993877991494  # 2 pi / 240

    def times(self) -> np.ndarray:
        """t0 + k dt_out for k = 0..count, where count dt_out = t1 - t0 to
        within 1e-9 max(1, |t1 - t0|)."""
        span = self.t1 - self.t0
        if not math.isfinite(span / self.dt_out):
            raise ConfigError("grid: (t1 - t0) / dt_out is not finite")
        count = round(span / self.dt_out)
        if count < 1:
            raise ConfigError("grid must contain at least two output times")
        if abs(self.t0 + count * self.dt_out - self.t1) > 1e-9 * max(1.0, abs(span)):
            raise ConfigError(
                f"grid: dt_out {self.dt_out!r} does not divide t1 - t0 = {span!r}"
            )
        return self.t0 + self.dt_out * np.arange(count + 1)


@dataclass
class RunConfig:
    n: int = 2
    model: ModelSpec | None = None
    mu: tuple[int, ...] = ()
    seed_coeffs: np.ndarray | None = None
    depth: int = 0
    node_budget: int = 10**6
    initial: tuple[np.ndarray, np.ndarray] | None = None  # (positions, velocities)
    grid: Grid = field(default_factory=Grid)
    tolerances: Tolerances = field(default_factory=Tolerances)
    output: str | None = None


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    return parse_config(raw)


def _check_finite(value, field: str) -> None:
    """ConfigError naming the first number in value that is not a finite
    float (JSON admits NaN, Infinity, 1e400 and integers of any size)."""
    if isinstance(value, dict):
        for key, item in value.items():
            _check_finite(item, f"{field}.{key}" if field else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _check_finite(item, f"{field}[{i}]")
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            finite = math.isfinite(float(value))
        except OverflowError:
            finite = False
        if not finite:
            raise ConfigError(f"{field} is not a finite number within float range")


def parse_config(raw: dict) -> RunConfig:
    # best_match picks the error jsonschema.validate would raise
    error = jsonschema.exceptions.best_match(_validator().iter_errors(raw))
    if error is not None:
        raise ConfigError(f"config rejected by schema: {error.message}") from error
    _check_finite(raw, "")

    cfg = RunConfig()
    cfg.n = int(raw.get("n", 2))
    cfg.mu = tuple(int(m) for m in raw.get("mu", []))
    cfg.depth = int(raw.get("depth", 0))
    cfg.node_budget = int(raw.get("node_budget", 10**6))
    cfg.output = raw.get("output")
    if "grid" in raw:
        cfg.grid = Grid(**raw["grid"])
        cfg.grid.times()  # raises unless two or more times end at t1
    if "tolerances" in raw:
        cfg.tolerances = Tolerances(**raw["tolerances"])
    if "seed_coeffs" in raw:
        cfg.seed_coeffs = pairs_to_complex(raw["seed_coeffs"])
    if "initial" in raw:
        pos = pairs_to_complex(raw["initial"]["positions"])
        vel = pairs_to_complex(raw["initial"]["velocities"])
        if len(pos) != len(vel):
            raise ConfigError("positions/velocities lengths differ")
        cfg.initial = (pos, vel)
        nf = math.factorial(len(pos))
        for m in cfg.mu:
            if not 1 <= m <= nf:
                raise ConfigError(
                    f"mu={m} out of range [1, {nf}] for {len(pos)} particles"
                )
    if "model" in raw:
        m = raw["model"]
        a = complex(*m["a"]) if "a" in m else 0.0
        kind = m["kind"]
        if kind == "generation":
            seed_kind = m.get("seed_kind", "linear_seed")
            seed = ModelSpec(
                seed_kind,
                omega=float(m.get("omega", 0.0)),
                a=a,
                ia_sign=int(m.get("ia_sign", 1)),
            )
            try:
                cfg.model = ModelSpec(
                    "generation",
                    depth=int(m.get("depth", len(cfg.mu) or 1)),
                    seed=seed,
                )
            except ValueError as e:
                raise ConfigError(str(e)) from e
        else:
            cfg.model = ModelSpec(
                kind,
                omega=float(m.get("omega", 0.0)),
                a=a,
                ia_sign=int(m.get("ia_sign", 1)),
            )
        if cfg.mu and len(cfg.mu) != cfg.model.depth:
            raise ConfigError(
                f"mu has length {len(cfg.mu)} but the model has depth "
                f"{cfg.model.depth}"
            )
    if "n" in raw:
        counts = {
            "initial.positions": None if cfg.initial is None else len(cfg.initial[0]),
            "seed_coeffs": None if cfg.seed_coeffs is None else len(cfg.seed_coeffs),
        }
        for name, count in counts.items():
            if count is not None and count != cfg.n:
                raise ConfigError(f"n={cfg.n} but {name} has {count} entries")
    return cfg
