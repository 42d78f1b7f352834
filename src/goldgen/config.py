"""Run configuration: JSON ingestion, schema validation, dataclasses.

`parse_config` checks a raw config against `config_schema.json` with a
small walker (`_violation`) that implements exactly the JSON Schema
keywords that file uses, with Draft 2020-12 semantics: booleans are not
numbers, an integral float counts as an integer, `enum` does not take True
for 1, and a bound passes whatever compares false (NaN included, which
`_check_finite` then rejects).  The schema is loaded once, and loading it
fails on any keyword the walker does not implement.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import operator
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .dynamics import ModelSpec
from .permgen import DEFAULT_NODE_BUDGET
from .polycore import Tolerances


class ConfigError(Exception):
    pass


_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "number": lambda v: isinstance(v, numbers.Number) and not isinstance(v, bool),
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool))
    or (isinstance(v, float) and v.is_integer()),
}
# keyword: (the test that fails, written as jsonschema writes it; reason)
_BOUNDS = {
    "minimum": (operator.lt, "less than the minimum of"),
    "maximum": (operator.gt, "greater than the maximum of"),
    "exclusiveMinimum": (operator.le, "less than or equal to the minimum of"),
}
_KEYWORDS = {"type", "enum", "properties", "required", "additionalProperties",
             "items", "minItems", "maxItems", *_BOUNDS, "$schema", "title"}


def _check_keywords(schema: dict, path: str = "/") -> None:
    """ValueError unless `_violation` implements every keyword of schema
    and of its subschemas (`type` only as one of `_TYPES`,
    `additionalProperties` only as false)."""
    unknown = set(schema) - _KEYWORDS
    if schema.get("type", "object") not in _TYPES:
        unknown.add("type")
    if schema.get("additionalProperties", False) is not False:
        unknown.add("additionalProperties")
    if unknown:
        raise ValueError(f"config schema at {path}: unsupported {sorted(unknown)}")
    for key, sub in schema.get("properties", {}).items():
        _check_keywords(sub, f"{path}{key}/")
    if "items" in schema:
        _check_keywords(schema["items"], f"{path}items/")


@functools.cache
def _schema() -> dict:
    text = resources.files("goldgen").joinpath("config_schema.json").read_text()
    schema = json.loads(text)
    _check_keywords(schema)
    return schema


def _join(field: str, key) -> str:
    return f"{field}.{key}" if field else str(key)


def _violation(value, schema: dict, field: str = "") -> str | None:
    """'field: reason' for the first way value breaks schema, or None."""
    where = field or "(config)"
    kind = schema.get("type")
    if kind is not None and not _TYPES[kind](value):
        return f"{where}: {value!r} is not of type {kind!r}"
    enum = schema.get("enum")
    # jsonschema's equality: True and False equal only themselves
    if enum is not None and not any(
        value is e or not isinstance(value, bool) and not isinstance(e, bool)
        and value == e for e in enum
    ):
        return f"{where}: {value!r} is not one of {enum!r}"
    if _TYPES["number"](value):
        for key, (fails, reason) in _BOUNDS.items():
            if key in schema and fails(value, schema[key]):
                return f"{where}: {value!r} is {reason} {schema[key]!r}"
    children = []
    if isinstance(value, dict):
        props = schema.get("properties", {})
        for key in schema.get("required", ()):
            if key not in value:
                return f"{_join(field, key)}: required property is missing"
        for key in value if "additionalProperties" in schema else ():
            if key not in props:
                return f"{_join(field, key)}: property is not allowed"
        children = [(value[k], sub, _join(field, k))
                    for k, sub in props.items() if k in value]
    if isinstance(value, list):
        for key, bound in (("minItems", "minimum"), ("maxItems", "maximum")):
            fails, reason = _BOUNDS[bound]
            if key in schema and fails(len(value), schema[key]):
                return f"{where}: length {len(value)} is {reason} {schema[key]!r}"
        if "items" in schema:
            children = [(item, schema["items"], f"{field}[{i}]")
                        for i, item in enumerate(value)]
    return next(filter(None, (_violation(*child) for child in children)), None)


def pairs_to_complex(pairs) -> np.ndarray:
    return np.array([complex(re, im) for re, im in pairs], dtype=np.complex128)


@dataclass
class Grid:
    t0: float = 0.0
    t1: float = 6.283185307179586
    dt_out: float = 0.02617993877991494  # 2 pi / 240

    def times(self) -> np.ndarray:
        """t0 + k dt_out for k = 0..count, where count dt_out = t1 - t0 to
        within 1e-9 max(1, |t1 - t0|); they must be strictly increasing as
        rounded (a dt_out below the spacing of floats near t0 repeats times)."""
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
        try:
            steps = np.arange(count + 1)
        except (ValueError, MemoryError) as e:  # more than numpy can index
            raise ConfigError(f"grid: {count + 1:.3g} output times are too many") from e
        times = self.t0 + self.dt_out * steps
        if not (np.diff(times) > 0).all():
            raise ConfigError(
                f"grid: t0 + k dt_out is not strictly increasing in floating point "
                f"(t0 {self.t0!r}, dt_out {self.dt_out!r})"
            )
        return times


@dataclass
class RunConfig:
    model: ModelSpec | None = None
    mu: tuple[int, ...] = ()
    seed_coeffs: np.ndarray | None = None
    depth: int = 0
    node_budget: int = DEFAULT_NODE_BUDGET
    initial: tuple[np.ndarray, np.ndarray] | None = None  # (positions, velocities)
    grid: Grid = field(default_factory=Grid)
    tolerances: Tolerances = field(default_factory=Tolerances)
    output: str | None = None


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    # ValueError: bad JSON, bytes that are not UTF-8, or an integer literal
    # past Python's digit limit
    except (OSError, ValueError) as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    return parse_config(raw)


def _check_finite(value, field: str) -> None:
    """ConfigError naming the first number in value that is not a finite
    float (JSON admits NaN, Infinity, 1e400 and integers of any size)."""
    if isinstance(value, dict):
        for key, item in value.items():
            _check_finite(item, _join(field, key))
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
    error = _violation(raw, _schema())
    if error is not None:
        raise ConfigError(f"config rejected by schema: {error}")
    _check_finite(raw, "")

    cfg = RunConfig()
    cfg.mu = tuple(int(m) for m in raw.get("mu", []))
    cfg.depth = int(raw.get("depth", 0))
    cfg.node_budget = int(raw.get("node_budget", cfg.node_budget))
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
        kind = m["kind"]
        if kind == "generation":
            kind = m.get("seed_kind", "linear_seed")
            depth = m.get("depth", len(cfg.mu) or 1)
        elif "depth" in m or "seed_kind" in m:
            raise ConfigError(f"model kind {kind!r} takes no depth or seed_kind")
        else:
            depth = 0
        cfg.model = ModelSpec(
            kind,
            omega=float(m.get("omega", 0.0)),
            a=complex(*m["a"]) if "a" in m else 0.0,
            ia_sign=int(m.get("ia_sign", 1)),
            depth=int(depth),
        )
        if len(cfg.mu) != cfg.model.depth:
            raise ConfigError(
                f"mu has length {len(cfg.mu)} but the model has depth "
                f"{cfg.model.depth}"
            )
    if "n" in raw:
        n = int(raw["n"])
        counts = {
            "initial.positions": None if cfg.initial is None else len(cfg.initial[0]),
            "seed_coeffs": None if cfg.seed_coeffs is None else len(cfg.seed_coeffs),
        }
        for name, count in counts.items():
            if count is not None and count != n:
                raise ConfigError(f"n={n} but {name} has {count} entries")
    return cfg
