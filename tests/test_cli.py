import contextlib
import csv
import io
import json
import math
import os
import re
import stat
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import goldgen
from goldgen import cli
from goldgen import config as cfgmod
from goldgen import dynamics as dyn
from goldgen import permgen
from goldgen import solvers as sv
from goldgen.cli import csv_text, main
from goldgen.errors import NoPeriodFound
from goldgen.matching import set_distance
from goldgen.polycore import MonicPoly
from test_permgen import assert_tree_json


def write_config(tmp_path, data, name="run.json"):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return str(p)


BASE_SIM = {
    "n": 3,
    "model": {"kind": "iso_goldfish", "omega": 1.0},
    "initial": {
        "positions": [[0.9, 0.1], [-0.2, -0.5], [-0.8, 0.6]],
        "velocities": [[0.1, -0.2], [0.25, 0.1], [-0.15, 0.05]],
    },
    "grid": {"t0": 0.0, "t1": 1.0, "dt_out": 0.1},
}


SCHEMA_REJECTED = "config rejected by schema: "
GENERATION_CONFIG = {
    "n": 2,
    "mu": [1],
    "model": {"kind": "generation", "seed_kind": "iso_goldfish", "omega": 1.0,
              "a": [0.5, 0.0], "ia_sign": -1, "depth": 1},
    "seed_coeffs": [[1.0, 0.0], [-1.0, 0.5]],
    "depth": 2,
    "node_budget": 100,
    "tolerances": {"ode_rel": 1e-9, "ode_abs": 1e-12, "root_tol": 1e-12,
                   "sep_tol": 1e-9},
    "output": "tree.json",
}

# wrong types (bools, integral floats, strings, lists, objects), numbers out
# of every range in the schema, NaN and the infinities
_junk = st.one_of(
    st.booleans(),
    st.none(),
    st.integers(-2, 14),
    st.sampled_from([0.0, -0.0, 1.0, 2.0, 13.0, -1.0, 0.5, 1e-300, 1e300, -1e300,
                     float("nan"), float("inf"), float("-inf"), 10**400]),
    st.sampled_from(["", "fast", "goldfish", "generation", "1"]),
    st.lists(st.sampled_from([0.5, -1.0, 2.0, True, "x"]), max_size=3),
    st.just({}),
)


def _slots(value, field=""):
    """(field name as the schema messages write it, container, key) for every
    node below value."""
    if isinstance(value, dict):
        named = [(f"{field}.{key}" if field else key, key) for key in value]
    elif isinstance(value, list):
        named = [(f"{field}[{i}]", i) for i in range(len(value))]
    else:
        named = []
    for name, key in named:
        yield name, value, key
        yield from _slots(value[key], name)


@st.composite
def schema_mutations(draw):
    """(config, field): BASE_SIM or GENERATION_CONFIG with one field given a
    wrong value, removed, added, or (for an array) made longer or shorter."""
    raw = json.loads(json.dumps(draw(st.sampled_from([BASE_SIM, GENERATION_CONFIG]))))
    slots = list(_slots(raw))
    nodes = {"": raw, **{name: container[key] for name, container, key in slots}}
    action = draw(st.sampled_from(["replace", "delete", "add", "resize"]))
    if action == "add":
        parent = draw(st.sampled_from(
            [name for name, node in nodes.items() if isinstance(node, dict)]))
        key = draw(st.sampled_from(["extra", "kind", "depth", "t0", "positions"]))
        nodes[parent][key] = draw(_junk)
        return raw, f"{parent}.{key}" if parent else key
    if action == "resize":
        field = draw(st.sampled_from(
            [name for name, node in nodes.items() if isinstance(node, list)]))
        items = nodes[field]
        if items and draw(st.booleans()):
            items.pop()
        else:
            items.append(draw(_junk) if not items or draw(st.booleans())
                         else json.loads(json.dumps(items[0])))
        return raw, field
    field, container, key = draw(st.sampled_from(slots))
    if action == "delete" and isinstance(container, dict):
        del container[key]
    else:
        container[key] = draw(_junk)
    return raw, field


class TestConfigParsing:
    def test_minimal_roundtrip(self):
        cfg = cfgmod.parse_config(BASE_SIM)
        assert cfg.model.kind == "iso_goldfish"
        assert cfg.model.omega == 1.0
        assert [len(a) for a in cfg.initial] == [3, 3]
        np.testing.assert_allclose(cfg.grid.times[:2], [0.0, 0.1])

    def test_schema_rejects_unknown_kind(self):
        bad = dict(BASE_SIM, model={"kind": "nonsense"})
        with pytest.raises(cfgmod.ConfigError):
            cfgmod.parse_config(bad)

    def test_schema_rejects_bad_pair(self):
        bad = json.loads(json.dumps(BASE_SIM))
        bad["initial"]["positions"][0] = [1.0]  # not a [re, im] pair
        with pytest.raises(cfgmod.ConfigError):
            cfgmod.parse_config(bad)

    def test_checked_in_schema_is_valid(self):
        jsonschema.Draft202012Validator.check_schema(cfgmod._schema())

    @settings(max_examples=300, deadline=None)
    @given(schema_mutations())
    @example((dict(BASE_SIM, model={"kind": "nonsense"}), "model.kind"))
    @example((dict(BASE_SIM, grid={"t0": 0.0, "dt_out": "fast"}), "grid"))
    @example((dict(BASE_SIM, extra=1), "extra"))
    @example(({"initial": {"positions": [[1.0]], "velocities": [[0.0, 0.0]]}},
              "initial.positions[0]"))
    # Draft 2020-12 semantics: a bool is not a number, an integral float is
    # an integer, True is not 1 in an enum, and NaN passes every bound
    @example((dict(BASE_SIM, n=True), "n"))
    @example((dict(BASE_SIM, n=3.0), "n"))
    @example((dict(GENERATION_CONFIG, model=dict(GENERATION_CONFIG["model"],
                                                 ia_sign=True)), "model.ia_sign"))
    @example((dict(BASE_SIM, grid=dict(BASE_SIM["grid"], dt_out=0)), "grid.dt_out"))
    @example((dict(BASE_SIM, grid=dict(BASE_SIM["grid"], dt_out=float("nan"))),
              "grid.dt_out"))
    # bounds before finiteness: -inf breaks exclusiveMinimum, as jsonschema
    # says, while 10**400 passes type and bound and only then is not finite
    @example((dict(BASE_SIM, grid=dict(BASE_SIM["grid"], dt_out=float("-inf"))),
              "grid.dt_out"))
    @example((dict(BASE_SIM, node_budget=10**400), "node_budget"))
    def test_schema_agrees_with_jsonschema(self, case):
        raw, field = case
        try:
            cfgmod.parse_config(raw)
            message = ""
        except cfgmod.ConfigError as e:
            message = str(e)
        valid = jsonschema.Draft202012Validator(cfgmod._schema()).is_valid(raw)
        rejected = message.startswith(SCHEMA_REJECTED)
        assert rejected == (not valid), message
        if rejected:
            named = message[len(SCHEMA_REJECTED):]
            assert named.startswith((f"{field}:", f"{field}.", f"{field}[")), message

    @pytest.mark.parametrize("bad", [
        dict(BASE_SIM, model={"kind": "nonsense"}),
        dict(BASE_SIM, grid={"t0": 0.0, "dt_out": "fast"}),
        dict(BASE_SIM, extra=1),
        {"initial": {"positions": [[1.0]], "velocities": [[0.0, 0.0]]}},
    ])
    def test_schema_message_matches_jsonschema_validate(self, bad):
        # the walker words its own reasons; it rejects what jsonschema.validate
        # rejects and names a field at or below the path jsonschema reports
        with pytest.raises(jsonschema.ValidationError) as want:
            jsonschema.validate(bad, cfgmod._schema())
        with pytest.raises(cfgmod.ConfigError) as got:
            cfgmod.parse_config(bad)
        message = str(got.value)
        assert message.startswith(SCHEMA_REJECTED), message
        path = want.value.json_path.removeprefix("$").removeprefix(".")
        named = message[len(SCHEMA_REJECTED):]
        assert named.startswith((f"{path}:", f"{path}.", f"{path}[")) or (
            not path and named.split(":")[0] in bad), message

    def test_schema_message_names_the_field(self):
        bad = dict(BASE_SIM, grid={"t0": 0.0, "t1": 1.0, "dt_out": "fast"})
        with pytest.raises(cfgmod.ConfigError) as got:
            cfgmod.parse_config(bad)
        assert str(got.value) == (
            "config rejected by schema: grid.dt_out: 'fast' is not of type 'number'")

    @pytest.mark.parametrize("schema", [
        {"type": "string", "pattern": "^a"},
        {"properties": {"x": {"type": "integer", "multipleOf": 2}},
         "additionalProperties": False},
        {"items": {"type": "null"}},
        {"additionalProperties": {"type": "number"}},
        {"properties": {"x": {"type": "number"}}},
    ], ids=["pattern", "nested-multipleOf", "type-null", "additional-schema",
            "open-properties"])
    def test_schema_keyword_outside_the_walker_is_refused(self, schema):
        # an object schema that admits other keys would hide their numbers
        # from the walk's finiteness test
        with pytest.raises(ValueError, match="unsupported"):
            cfgmod._check_keywords(schema)

    @pytest.mark.parametrize("raw, message", [
        (dict(BASE_SIM, grid=dict(BASE_SIM["grid"], dt_out=float("-inf"))),
         "config rejected by schema: grid.dt_out: -inf is less than or equal to "
         "the minimum of 0"),
        (dict(BASE_SIM, node_budget=10**400),
         "node_budget is not a finite number within float range"),
        (dict(BASE_SIM, grid=dict(BASE_SIM["grid"], t0=float("nan")), output=5),
         "grid.t0 is not a finite number within float range"),
        (dict(BASE_SIM, n=True, grid=dict(BASE_SIM["grid"], t0=float("nan"))),
         "config rejected by schema: n: True is not of type 'integer'"),
    ], ids=["bound-first", "finite-after-bound", "finite-field-first",
            "schema-field-first"])
    def test_first_fault_in_schema_order_is_reported(self, raw, message):
        with pytest.raises(cfgmod.ConfigError) as got:
            cfgmod.parse_config(raw)
        assert str(got.value) == message

    def test_period_tol_is_rejected(self, tmp_path, capsys):
        # the field was parsed and never read; it is no longer accepted
        raw = dict(BASE_SIM, tolerances={"period_tol": 1e-6},
                   output=str(tmp_path / "x.csv"))
        assert main(["simulate", "--config", write_config(tmp_path, raw)]) == 2
        assert "config rejected by schema" in capsys.readouterr().err

    def test_grid_span_overflow_is_config_error(self):
        # finite ends whose difference overflows
        bad = dict(BASE_SIM, grid={"t0": -1e308, "t1": 1e308, "dt_out": 1.0})
        with pytest.raises(cfgmod.ConfigError, match="not finite"):
            cfgmod.parse_config(bad)

    def test_length_mismatch(self):
        bad = json.loads(json.dumps(BASE_SIM))
        bad["initial"]["velocities"] = bad["initial"]["velocities"][:2]
        with pytest.raises(cfgmod.ConfigError):
            cfgmod.parse_config(bad)

    def test_generation_model_nests_seed(self):
        raw = dict(
            BASE_SIM,
            mu=[2, 2],
            model={"kind": "generation", "seed_kind": "linear_seed",
                   "a": [0.5, 0.0], "depth": 2},
        )
        cfg = cfgmod.parse_config(raw)
        assert cfg.model.depth == 2
        assert cfg.model.kind == "linear_seed"
        assert cfg.model.a == 0.5


class TestNonFiniteNumbers:
    """JSON admits NaN, Infinity, 1e400 and integers of any size; a config
    holding one exits 2 and names the field."""

    SOLVE = dict(BASE_SIM, mu=[2],
                 model={"kind": "generation", "seed_kind": "linear_seed",
                        "a": [0.5, 0.0], "depth": 1})

    def run(self, tmp_path, command, raw):
        raw = dict(raw, output=str(tmp_path / "out"))
        code = main([command, "--config", write_config(tmp_path, raw)])
        assert not (tmp_path / "out").exists()
        return code

    @pytest.mark.parametrize("command", ["simulate", "solve"])
    def test_infinite_position(self, tmp_path, capsys, command):
        raw = json.loads(json.dumps(self.SOLVE))
        raw["initial"]["positions"][1][0] = float("inf")
        assert self.run(tmp_path, command, raw) == 2
        assert "initial.positions[1][0] is not a finite number" in capsys.readouterr().err

    def test_nan_position_goldfish(self, tmp_path):
        raw = json.loads(json.dumps(BASE_SIM))
        raw["model"] = {"kind": "goldfish"}
        raw["initial"]["positions"][0][1] = float("nan")
        assert self.run(tmp_path, "simulate", raw) == 2

    def test_infinite_seed_coefficient(self, tmp_path, capsys):
        raw = {"seed_coeffs": [[1.0, 0.0], [float("inf"), 0.5]], "depth": 1}
        assert self.run(tmp_path, "generate", raw) == 2
        assert "seed_coeffs[1][0]" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("grid.t1", "Infinity"), ("grid.t1", "1e400"), ("grid.dt_out", "NaN"),
        ("tolerances.sep_tol", "NaN"), ("grid.t0", "1" + "0" * 400),
    ], ids=["t1-inf", "t1-1e400", "dt_out-nan", "sep_tol-nan", "t0-400-digits"])
    def test_field_is_named(self, tmp_path, capsys, field, value):
        block, key = field.split(".")
        raw = json.loads(json.dumps(BASE_SIM))
        raw.setdefault(block, {})[key] = "@"
        raw["output"] = str(tmp_path / "out")
        path = tmp_path / "run.json"
        path.write_text(json.dumps(raw).replace('"@"', value))
        assert main(["simulate", "--config", str(path)]) == 2
        assert f"{field} is not a finite number" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestGenerate:
    def test_halted_branches_name_their_error(self, tmp_path, capsys):
        # zeros 0, 1, -1: with sep_tol 0.3 two grandchildren of branch 5
        # have zeros too close, and the tree keeps its other 40 nodes
        cfg = write_config(tmp_path, {"seed_coeffs": [[0, 0], [-1, 0], [0, 0]], "depth": 2,
                                      "tolerances": {"sep_tol": 0.3},
                                      "output": str(tmp_path / "tree.json")})
        assert main(["generate", "--config", cfg]) == 0
        out, err = capsys.readouterr()
        assert out.endswith(": 40 nodes, depth 2\n")
        assert err.splitlines() == [
            f"  branch mu={mu} halted: DegenerateZeros: near-multiple root: gap {gap} <= "
            "4.854e-01" for mu, gap in (([5, 1], "1.537e-01"), ([5, 2], "3.820e-01"))]

    def test_tree_json(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {"seed_coeffs": [[1.0, 0.0], [-1.0, 0.5]], "depth": 2,
             "output": str(tmp_path / "tree.json")},
        )
        assert main(["generate", "--config", cfg]) == 0
        d = json.loads((tmp_path / "tree.json").read_text())
        assert d["depth"] == 2
        assert len(d["nodes"]) == 6  # 2 at level 1 + 4 at level 2
        addrs = {tuple(n["mu"]) for n in d["nodes"]}
        assert (1,) in addrs and (2, 2) in addrs

    def test_tree_json_is_compact_and_unchanged(self, tmp_path):
        raw = {"seed_coeffs": [[1.0, 0.0], [-1.0, 0.5], [0.3, 0.2]], "depth": 2,
               "output": str(tmp_path / "tree.json")}
        assert main(["generate", "--config", write_config(tmp_path, raw)]) == 0
        text = (tmp_path / "tree.json").read_text()
        cfg = cfgmod.parse_config(raw)
        tree = permgen.generation_tree(cfg.seed_coeffs, 2, tol=cfg.tolerances)
        assert_tree_json(text, tree)
        assert "\n" not in text

    def test_n_must_match_seed_coeffs(self, tmp_path, capsys):
        raw = {"n": 3, "seed_coeffs": [[1.0, 0.0], [-1.0, 0.5]], "depth": 1,
               "output": str(tmp_path / "tree.json")}
        assert main(["generate", "--config", write_config(tmp_path, raw)]) == 2
        assert "n=3 but seed_coeffs has 2 entries" in capsys.readouterr().err
        assert not (tmp_path / "tree.json").exists()

    def test_depth_flag_overrides(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"seed_coeffs": [[1.0, 0.0], [-1.0, 0.5]], "depth": 1,
             "output": str(tmp_path / "tree.json")},
        )
        assert main(["generate", "--config", cfg, "--depth", "3"]) == 0
        d = json.loads((tmp_path / "tree.json").read_text())
        assert len(d["nodes"]) == 14

    def test_main_runs_repeatedly_in_one_process(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {"seed_coeffs": [[1.0, 0.0], [-1.0, 0.5]], "depth": 1,
             "output": str(tmp_path / "tree.json")},
        )
        nodes = []
        for extra in (["--depth", "3"], [], ["--depth", "2"], []):
            assert main(["generate", "--config", cfg, *extra]) == 0
            nodes.append(len(json.loads((tmp_path / "tree.json").read_text())["nodes"]))
        assert nodes == [14, 2, 6, 2]  # no --depth leaks into the next call
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["generate", "--depth", "3"])
            assert exc.value.code == 2
            assert "--config" in capsys.readouterr().err

    def test_missing_seed_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, {"depth": 1})
        assert main(["generate", "--config", cfg]) == 2

    def test_degenerate_seed_is_numeric_error(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"seed_coeffs": [[-2.0, 0.0], [1.0, 0.0]], "depth": 1,
             "tolerances": {"sep_tol": 1e-6},
             "output": str(tmp_path / "tree.json")},
        )
        assert main(["generate", "--config", cfg]) == 3

    def test_overflowing_seed_is_numeric_error(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {"seed_coeffs": [[1e120, 0.0], [1e200, 0.0], [1.0, 0.0]], "depth": 1,
             "output": str(tmp_path / "tree.json")},
        )
        assert main(["generate", "--config", cfg]) == 3
        assert capsys.readouterr().err.startswith("generate: RootSolveFailed: ")
        assert not (tmp_path / "tree.json").exists()

    def test_seed_modulus_overflow_is_root_solve_failed(self, tmp_path, capsys):
        # finite parts whose modulus, 2.1e308, overflows: refused before any
        # tolerance is scaled by it (an inf scale fails the gap test as
        # "gap inf <= inf")
        cfg = write_config(
            tmp_path,
            {"seed_coeffs": [[-1.5e308, 1.5e308]], "depth": 1,
             "output": str(tmp_path / "tree.json")},
        )
        assert main(["generate", "--config", cfg]) == 3
        assert capsys.readouterr().err == (
            "generate: RootSolveFailed: non-finite coefficients: "
            "some |y_k| is NaN or overflows\n")
        assert not (tmp_path / "tree.json").exists()

    def test_budget_exceeded_is_numeric_error(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"seed_coeffs": [[0.0, 0.0], [0.0, 1.0], [0.5, 0.0], [0.0, -1.0]],
             "depth": 4, "node_budget": 50,
             "output": str(tmp_path / "tree.json")},
        )
        assert main(["generate", "--config", cfg]) == 3

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([[[1.0, 0.0], [-1.0, 0.5]],
                            [[1.0, 0.0], [-1.0, 0.5], [0.3, 0.2]]]),
           st.one_of(st.integers(-2, 6), st.integers(-10**6, 10**6)))
    def test_any_depth_exits_cleanly_at_once(self, seed, depth):
        with tempfile.TemporaryDirectory() as work:
            raw = {"seed_coeffs": seed, "node_budget": 100,
                   "output": str(Path(work) / "tree.json")}
            cfg = Path(work) / "run.json"
            cfg.write_text(json.dumps(raw))
            start = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(["generate", "--config", str(cfg), "--depth", str(depth)])
            assert time.perf_counter() - start < 1.0
        # past depth 8 every seed here exceeds the budget of 100 nodes
        nodes = sum(math.factorial(len(seed)) ** k for k in range(1, min(depth, 8) + 1))
        assert code == (2 if depth < 0 else 0 if nodes <= 100 else 3)

    @pytest.mark.parametrize("depth", ["30000", "1000000"])
    def test_huge_depth_is_budget_error_at_once(self, tmp_path, capsys, depth):
        # the node count nf**depth has thousands of digits and is never formed
        out = tmp_path / "tree.json"
        raw = {"seed_coeffs": [[1.0, 0.0], [-1.0, 0.5]], "depth": 1,
               "output": str(out)}
        start = time.perf_counter()
        code = main(["generate", "--config", write_config(tmp_path, raw),
                     "--depth", depth])
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert capsys.readouterr().err == (
            f"generate: TreeBudgetExceeded: a depth-{depth} tree would exceed "
            f"the node budget of 1000000\n")
        assert not out.exists()

    @pytest.mark.parametrize("depth", ["20", "1000000000000000000"])
    def test_one_zero_seed_past_the_budget_exits_3_at_once(self, tmp_path, capsys,
                                                           depth):
        out = tmp_path / "tree.json"
        raw = {"seed_coeffs": [[0.5, 0.1]], "depth": 1, "output": str(out)}
        start = time.perf_counter()
        code = main(["generate", "--config", write_config(tmp_path, raw),
                     "--depth", depth])
        assert time.perf_counter() - start < 1.0
        assert code == 3 and "TreeBudgetExceeded" in capsys.readouterr().err
        assert not out.exists()

    def test_generate_makes_no_node_objects(self, tmp_path, monkeypatch):
        # the tree stays level arrays: no GenerationNode and no MonicPoly on
        # the way from the config to the JSON
        made = []

        def counting(name, make):
            def counted(*args, **kwargs):
                made.append(name)
                return make(*args, **kwargs)
            return counted

        node_init, poly_init = permgen.GenerationNode.__init__, MonicPoly.__init__
        monkeypatch.setattr(permgen.GenerationNode, "__init__",
                            counting("GenerationNode", node_init))
        monkeypatch.setattr(MonicPoly, "__init__", counting("MonicPoly", poly_init))
        raw = {"seed_coeffs": [[1.0, 0.0], [-1.0, 0.5], [0.3, 0.2]], "depth": 2,
               "output": str(tmp_path / "tree.json")}
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["generate", "--config", write_config(tmp_path, raw)]) == 0
        assert made == []
        # the counters see what the views make
        tree = permgen.generation_tree(cfgmod.parse_config(raw).seed_coeffs, 2)
        assert len(tree.nodes) == 42
        assert made.count("GenerationNode") == made.count("MonicPoly") == 42
        monkeypatch.undo()
        assert_tree_json((tmp_path / "tree.json").read_text(), tree)


EMPTY_INITIAL = {k: v for k, v in BASE_SIM.items() if k != "n"}
EMPTY_INITIAL["initial"] = {"positions": [], "velocities": []}


@pytest.mark.parametrize("command, raw, extra", [
    ("generate", {"seed_coeffs": [[1.0, 0.0], [-1.0, 0.5]], "depth": 1},
     ["--depth", "-1"]),
    ("generate", {"seed_coeffs": [], "depth": 1}, []),
    ("solve", EMPTY_INITIAL, []),
    ("simulate", EMPTY_INITIAL, []),
], ids=["negative-depth", "empty-seed", "solve-empty-initial",
        "simulate-empty-initial"])
def test_empty_or_negative_input_is_config_error(tmp_path, capsys, command, raw,
                                                 extra):
    raw = dict(raw, output=str(tmp_path / "out"))
    assert main([command, "--config", write_config(tmp_path, raw), *extra]) == 2
    assert capsys.readouterr().err.startswith(f"{command}: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["generate", "simulate", "solve"])
@pytest.mark.parametrize("where, reason", [("missing/out", "No such file or directory"),
                                           ("outdir", "Is a directory")])
def test_unwritable_output_is_config_error(tmp_path, capsys, command, where, reason):
    # a missing directory fails the temporary file, an existing directory
    # the rename; neither leaves a temporary file behind
    (tmp_path / "outdir").mkdir()
    out = str(tmp_path / where)
    raw = dict(BASE_SIM, seed_coeffs=BASE_SIM["initial"]["positions"], depth=1)
    code = main([command, "--config", write_config(tmp_path, raw), "--output", out])
    assert code == 2
    assert capsys.readouterr().err == f"{command}: cannot write {out}: {reason}\n"
    assert sorted(os.listdir(tmp_path)) == ["outdir", "run.json"]
    assert not os.listdir(tmp_path / "outdir")


@pytest.mark.parametrize("command", ["generate", "simulate", "solve"])
def test_output_gets_the_mode_a_plain_write_gives(tmp_path, command):
    # a new output gets 0o666 & ~umask, an existing one keeps its mode
    raw = dict(BASE_SIM, seed_coeffs=BASE_SIM["initial"]["positions"], depth=1)
    config = write_config(tmp_path, raw)
    new, old = tmp_path / "new", tmp_path / "old"
    old.write_text("")
    old.chmod(0o604)
    umask = os.umask(0o027)
    try:
        for out in (new, old):
            assert main([command, "--config", config, "--output", str(out)]) == 0
    finally:
        os.umask(umask)
    assert stat.S_IMODE(new.stat().st_mode) == 0o640
    assert stat.S_IMODE(old.stat().st_mode) == 0o604


@pytest.mark.parametrize("command", ["simulate", "solve"])
def test_output_times_are_computed_once(tmp_path, monkeypatch, command):
    # the config check and the command share one array of output times
    times = cfgmod.Grid.times
    compute, calls = times.func, []

    def counted(grid):
        calls.append(grid)
        return compute(grid)

    monkeypatch.setattr(times, "func", counted)
    raw = dict(BASE_SIM, output=str(tmp_path / "out.csv"))
    assert main([command, "--config", write_config(tmp_path, raw)]) == 0
    assert len(calls) == 1


README_CONFIG = {
    "n": 3,
    "mu": [2, 2],
    "model": {"kind": "generation", "seed_kind": "linear_seed",
              "a": [0.5, 0.0], "depth": 2},
    "initial": BASE_SIM["initial"],
    "grid": {"t0": 0.0, "t1": 6.283185307179586, "dt_out": 0.02617993877991494},
}

# a depth-1 goldfish seed with two equal positions
EQUAL_SEED_POSITIONS = dict(
    BASE_SIM,
    mu=[1],
    model={"kind": "generation", "seed_kind": "goldfish", "depth": 1},
    initial={"positions": [[0.5, 0.0], [0.5, 0.0], [-0.7, 0.2]],
             "velocities": [[0.1, 0.0], [-0.1, 0.0], [0.0, 0.2]]},
)


class TestSimulate:
    @pytest.mark.parametrize("grid", [{"t0": 0.0, "t1": 1e-15, "dt_out": 1e-15},
                                      {"t0": 1e6, "t1": 1e6 + 1e-9, "dt_out": 1e-9}])
    def test_grid_shorter_than_the_step_floor(self, tmp_path, grid):
        # the span is below the integrator's step-size floor; solve and
        # simulate both take it
        raw = dict(BASE_SIM, model={"kind": "linear_seed", "a": [0.5, 0.0]}, grid=grid,
                   output=str(tmp_path / "t.csv"))
        cfg = write_config(tmp_path, raw)
        for command in ("simulate", "solve"):
            assert main([command, "--config", cfg]) == 0
            assert len(np.loadtxt(tmp_path / "t.csv", delimiter=",", skiprows=1)) == 2

    def test_grid_that_repeats_a_time_is_a_config_error(self, tmp_path, capsys):
        # floats near 1e16 are 2 apart, so t0 + k * 0.5 repeats times
        raw = dict(BASE_SIM, mu=[2], output=str(tmp_path / "t.csv"),
                   model={"kind": "generation", "seed_kind": "linear_seed",
                          "a": [0.5, 0.0], "depth": 1},
                   grid={"t0": 1e16, "t1": 1e16 + 4, "dt_out": 0.5})
        cfg = write_config(tmp_path, raw)
        for command in ("simulate", "solve"):
            assert main([command, "--config", cfg]) == 2
            assert "not strictly increasing" in capsys.readouterr().err
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("t0", [2.0**34, 2.0**40])
    def test_late_start_steps_as_from_zero(self, tmp_path, t0):
        # the integrator steps in the time elapsed since t0, so the step-size
        # floor 1e-14 * |t| does not refuse the first step of a late start
        def x_v_columns(start):
            raw = dict(BASE_SIM, mu=[2], output=str(tmp_path / "t.csv"),
                       model={"kind": "generation", "seed_kind": "linear_seed",
                              "a": [0.5, 0.0], "depth": 1},
                       grid={"t0": start, "t1": start + 0.25, "dt_out": 2.0**-4})
            assert main(["simulate", "--config", write_config(tmp_path, raw)]) == 0
            rows = (tmp_path / "t.csv").read_text().splitlines()
            return [row.split(",", 1)[1] for row in rows]

        assert x_v_columns(t0) == x_v_columns(0.0)

    def test_writes_csv(self, tmp_path):
        out = tmp_path / "traj.csv"
        cfg = write_config(tmp_path, dict(BASE_SIM, output=str(out)))
        assert main(["simulate", "--config", cfg]) == 0
        data = np.genfromtxt(out, delimiter=",", names=True)
        assert len(data) == 11
        assert "x3_im" in data.dtype.names and "v1_re" in data.dtype.names

    def test_reports_integrator_counters(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(BASE_SIM, output=str(tmp_path / "t.csv")))
        assert main(["simulate", "--config", cfg]) == 0
        m = re.search(r"11 samples, (\d+) steps \((\d+) rejected: (\d+) error, "
                      r"(\d+) guard\), (\d+) RHS calls, min gap (\S+)$",
                      capsys.readouterr().out.strip())
        steps, rejected, error, guard, calls = map(int, m.groups()[:5])
        assert rejected == error + guard
        assert calls >= 6 * (steps + error) + 1
        # the min gap is printed in full: it reads back to the integrator's
        # float bit for bit
        run = cfgmod.load_config(cfg)
        x0, v0 = dyn.build_initial_state(*run.initial, run.mu, run.tolerances)
        traj = dyn.integrate(run.model, x0, v0, run.grid.times, run.tolerances)
        assert (steps, error, guard, calls) == (traj.steps, traj.rejected_error,
                                                traj.rejected_guard, traj.rhs_calls)
        assert float(m.group(6)).hex() == float(traj.min_gap).hex()

    def test_output_flag_overrides(self, tmp_path):
        out = tmp_path / "other.csv"
        cfg = write_config(tmp_path, dict(BASE_SIM, output=str(tmp_path / "a.csv")))
        assert main(["simulate", "--config", cfg, "--output", str(out)]) == 0
        assert out.exists()

    def test_generation_model_lifts_initial_data(self, tmp_path):
        out = tmp_path / "gen.csv"
        raw = dict(
            BASE_SIM,
            mu=[2],
            model={"kind": "generation", "seed_kind": "linear_seed",
                   "a": [0.5, 0.0], "depth": 1},
            output=str(out),
        )
        cfg = write_config(tmp_path, raw)
        assert main(["simulate", "--config", cfg]) == 0
        assert out.exists()

    def test_collision_is_numeric_error(self, tmp_path):
        raw = dict(
            BASE_SIM,
            n=2,
            model={"kind": "goldfish"},
            initial={
                "positions": [[1.0, 0.0], [-1.0, 0.0]],
                "velocities": [[-1.0, 0.0], [1.0, 0.0]],
            },
            grid={"t0": 0.0, "t1": 5.0, "dt_out": 0.5},
            output=str(tmp_path / "x.csv"),
        )
        cfg = write_config(tmp_path, raw)
        assert main(["simulate", "--config", cfg]) == 3

    def test_lift_failure_is_numeric_error(self, tmp_path, capsys):
        # level 1's roots cannot meet the residual tolerance: a clean exit 3
        raw = dict(
            BASE_SIM,
            n=2,
            mu=[1],
            model={"kind": "generation", "seed_kind": "linear_seed", "depth": 1},
            initial={"positions": [[1e300, 0.0], [-1e300, 1.0]],
                     "velocities": [[0.0, 0.0], [0.0, 0.0]]},
            output=str(tmp_path / "x.csv"),
        )
        assert main(["simulate", "--config", write_config(tmp_path, raw)]) == 3
        assert "RootSolveFailed" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("command", ["simulate", "solve"])
    def test_root_tol_reaches_the_lift(self, tmp_path, capsys, command):
        # level 1's roots reach a residual above root_tol 1e-16: simulate's
        # lift and solve's path extraction both refuse them, naming level 1
        raw = dict(README_CONFIG, tolerances={"root_tol": 1e-16},
                   output=str(tmp_path / "x.csv"))
        assert main([command, "--config", write_config(tmp_path, raw)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"{command}: RootSolveFailed (level 1): root residual ")
        assert "1.000e-16" in err
        assert not (tmp_path / "x.csv").exists()

    def test_collision_names_its_level(self, tmp_path, capsys):
        # equal seed positions are equal level-1 coefficients: the first
        # right-hand side refuses them one level below the coordinates
        raw = dict(EQUAL_SEED_POSITIONS, output=str(tmp_path / "x.csv"))
        assert main(["simulate", "--config", write_config(tmp_path, raw)]) == 3
        assert capsys.readouterr().err.startswith(
            "simulate: CollisionError (level 1): minimum gap ")
        assert not (tmp_path / "x.csv").exists()

    def test_solve_names_the_same_level(self, tmp_path, capsys):
        # solve's seed path refuses the equal seed positions at their level, 1
        raw = dict(EQUAL_SEED_POSITIONS, output=str(tmp_path / "x.csv"))
        assert main(["solve", "--config", write_config(tmp_path, raw)]) == 3
        assert capsys.readouterr().err.startswith(
            "solve: DegenerateZeros (level 1): minimum pairwise gap ")

    @pytest.mark.parametrize("command", ["simulate", "solve"])
    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_both_commands_number_levels_one_way(self, tmp_path, capsys, command, depth):
        # no lift's roots meet root_tol 1e-17, so the first lift fails; it
        # makes level depth - 1 (0 = the output coordinates, depth = the seed)
        raw = dict(README_CONFIG, mu=[1] * depth, model=dict(README_CONFIG["model"],
                                                              depth=depth),
                   grid={"t0": 0.0, "t1": 1.0, "dt_out": 0.5},
                   tolerances={"root_tol": 1e-17}, output=str(tmp_path / "x.csv"))
        assert main([command, "--config", write_config(tmp_path, raw)]) == 3
        assert capsys.readouterr().err.startswith(
            f"{command}: RootSolveFailed (level {depth - 1}): root residual ")

    def test_missing_initial_is_config_error(self, tmp_path):
        raw = {k: v for k, v in BASE_SIM.items() if k != "initial"}
        raw["output"] = str(tmp_path / "x.csv")
        cfg = write_config(tmp_path, raw)
        assert main(["simulate", "--config", cfg]) == 2

    def test_malformed_json_is_config_error(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert main(["simulate", "--config", str(p)]) == 2

    @pytest.mark.parametrize("data", [
        b'{"node_budget": 1' + b"0" * 5000 + b"}",
        b'{"output": "\xff.csv"}',
    ], ids=["int-past-digit-limit", "not-utf-8"])
    def test_unreadable_config_is_config_error(self, tmp_path, capsys, data):
        p = tmp_path / "bad.json"
        p.write_bytes(data)
        assert main(["simulate", "--config", str(p)]) == 2
        assert capsys.readouterr().err.startswith("simulate: cannot read config")

    def test_grid_past_numpy_size_is_config_error(self, tmp_path, capsys):
        raw = dict(BASE_SIM, grid={"t0": 0.0, "t1": 1e300, "dt_out": 1.0},
                   output=str(tmp_path / "x.csv"))
        assert main(["simulate", "--config", write_config(tmp_path, raw)]) == 2
        assert capsys.readouterr().err == (
            "simulate: grid: 1e+300 output times are too many\n")

    def test_mu_out_of_range_is_config_error(self, tmp_path):
        raw = dict(
            BASE_SIM,
            mu=[7],
            model={"kind": "generation", "seed_kind": "linear_seed", "depth": 1},
            initial={"positions": [[1.0, 0.0], [-1.0, 0.0]],
                     "velocities": [[0.0, 0.1], [0.0, -0.1]]},
            output=str(tmp_path / "x.csv"),
        )
        cfg = write_config(tmp_path, raw)
        assert main(["simulate", "--config", cfg]) == 2
        assert not (tmp_path / "x.csv").exists()


class TestSolve:
    def test_iso_goldfish_closed_form(self, tmp_path):
        out = tmp_path / "path.csv"
        cfg = write_config(tmp_path, dict(BASE_SIM, output=str(out)))
        assert main(["solve", "--config", cfg]) == 0
        data = np.genfromtxt(out, delimiter=",", names=True)
        assert len(data) == 11
        assert "v1_re" not in data.dtype.names  # positions only

    def test_solve_matches_simulate(self, tmp_path):
        sim_out = tmp_path / "sim.csv"
        sol_out = tmp_path / "sol.csv"
        cfg = write_config(tmp_path, dict(BASE_SIM, output=str(sim_out)))
        assert main(["simulate", "--config", cfg]) == 0
        assert main(["solve", "--config", cfg, "--output", str(sol_out)]) == 0
        sim = np.genfromtxt(sim_out, delimiter=",", names=True)
        sol = np.genfromtxt(sol_out, delimiter=",", names=True)
        for row_sim, row_sol in zip(sim, sol):
            a = {complex(row_sim[f"x{i}_re"], row_sim[f"x{i}_im"])
                 for i in range(1, 4)}
            b = [complex(row_sol[f"x{i}_re"], row_sol[f"x{i}_im"])
                 for i in range(1, 4)]
            for z in b:
                assert min(abs(z - w) for w in a) < 1e-6

    @pytest.mark.parametrize("seed_model", [
        {"seed_kind": "linear_seed", "a": [0.5, 0.0]},
        {"seed_kind": "iso_goldfish", "omega": 1.0},
    ])
    def test_solve_matches_simulate_from_a_later_start(self, tmp_path, seed_model):
        # the initial state sits at t0 = 1: both routes start there
        raw = dict(BASE_SIM, mu=[2], grid={"t0": 1.0, "t1": 2.0, "dt_out": 0.025},
                   model={"kind": "generation", "depth": 1, **seed_model})
        cfg = write_config(tmp_path, raw)
        sim_out, sol_out = tmp_path / "sim.csv", tmp_path / "sol.csv"
        assert main(["simulate", "--config", cfg, "--output", str(sim_out)]) == 0
        assert main(["solve", "--config", cfg, "--output", str(sol_out)]) == 0
        sim = np.genfromtxt(sim_out, delimiter=",", names=True)
        sol = np.genfromtxt(sol_out, delimiter=",", names=True)
        assert sim["t"][0] == sol["t"][0] == 1.0
        assert np.array_equal(sim["t"], sol["t"])

        def clouds(data):
            return np.stack([data[f"x{i}_re"] + 1j * data[f"x{i}_im"]
                             for i in range(1, 4)], axis=1)

        assert max(map(set_distance, clouds(sim), clouds(sol))) <= 1e-6

    def test_overflowing_iso_seed_is_numeric_error(self, tmp_path, capsys):
        # y_2 overflows to inf: the rows fail as non-finite coefficients
        raw = json.loads(json.dumps(BASE_SIM))
        raw["initial"]["positions"] = [[1e200, 0.0], [-1e200, 1.0], [0.0, 5.0]]
        raw["output"] = str(tmp_path / "x.csv")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["solve", "--config", write_config(tmp_path, raw)]) == 3
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err
        assert err.startswith("solve: RootSolveFailed (level 0): ")
        assert "RuntimeWarning" not in err
        assert not (tmp_path / "x.csv").exists()

    def test_goldfish_seed_solve_matches_simulate(self, tmp_path):
        # the plain goldfish seed is solved as iso-goldfish at omega = 0; a
        # configured omega is ignored, as the equations of motion ignore it
        models = [{"kind": "goldfish", "omega": 1.0},
                  {"kind": "generation", "seed_kind": "goldfish", "depth": 1},
                  {"kind": "generation", "seed_kind": "goldfish", "depth": 2}]
        for model, mu in zip(models, ([], [2], [2, 5])):
            cfg = write_config(tmp_path, dict(BASE_SIM, model=model, mu=mu))
            sim_out, sol_out = tmp_path / "sim.csv", tmp_path / "sol.csv"
            assert main(["simulate", "--config", cfg, "--output", str(sim_out)]) == 0
            assert main(["solve", "--config", cfg, "--output", str(sol_out)]) == 0
            sim = np.loadtxt(sim_out, delimiter=",", skiprows=1)
            sol = np.loadtxt(sol_out, delimiter=",", skiprows=1)
            np.testing.assert_array_equal(sim[:, 0], sol[:, 0])
            # labels agree too: both start from the same lifted state
            assert np.max(np.abs(sim[:, 1:7] - sol[:, 1:])) < 1e-6

    def test_mu_out_of_range_is_config_error(self, tmp_path, capsys):
        raw = dict(
            BASE_SIM,
            mu=[2, 7],
            model={"kind": "generation", "seed_kind": "linear_seed", "depth": 2},
            output=str(tmp_path / "x.csv"),
        )
        cfg = write_config(tmp_path, raw)
        assert main(["solve", "--config", cfg]) == 2
        assert "mu=7 out of range [1, 6]" in capsys.readouterr().err


class TestTrajectoryCSV:
    def trajectory_csv(self, traj):
        return csv_text(traj.times, x=traj.x, v=traj.v)

    def test_header_and_shape(self):
        traj = dyn.integrate(dyn.ModelSpec("goldfish"), [1.0, -1.0], [0.1, -0.1],
                             np.linspace(0, 0.5, 6))
        text = self.trajectory_csv(traj)
        lines = text.strip().split("\n")
        assert lines[0] == (
            "t,x1_re,x1_im,x2_re,x2_im,v1_re,v1_im,v2_re,v2_im"
        )
        assert len(lines) == 7

    def test_roundtrip_precision(self):
        traj = dyn.integrate(dyn.ModelSpec("goldfish"), [1 / 3, -1.0], [0.1, -0.1],
                             [0.0, 0.2])
        text = self.trajectory_csv(traj)
        data = np.genfromtxt(text.splitlines(), delimiter=",", names=True)
        assert data["x1_re"][0] == 1 / 3

    def test_csv_format(self):
        ts = np.linspace(0.0, 0.2, 5)
        frames = [np.array([1 + t, -1 - t]) for t in ts]
        path = sv.track_zeros(frames, times=ts)
        text = csv_text(path.times, x=path.values)
        lines = text.strip().split("\n")
        assert lines[0] == "t,x1_re,x1_im,x2_re,x2_im"
        assert len(lines) == 6

    def test_digits_are_format_17g(self):
        values = np.array([[complex(1 / 3, -0.0), complex(-2e-300, np.pi)]])
        row = csv_text([0.1], x=values).splitlines()[1].split(",")
        want = [0.1, 1 / 3, -0.0, -2e-300, np.pi]
        assert row == [format(v, ".17g") for v in want]


@pytest.mark.parametrize("command", ["simulate", "solve"])
class TestConfigContradictions:
    def run(self, tmp_path, command, **changes):
        raw = dict(
            BASE_SIM,
            mu=[2],
            model={"kind": "generation", "seed_kind": "linear_seed",
                   "a": [0.5, 0.0], "depth": 1},
            output=str(tmp_path / "out.csv"),
        )
        raw.update(changes)
        code = main([command, "--config", write_config(tmp_path, raw)])
        assert code == 0 or not (tmp_path / "out.csv").exists()
        return code

    def test_consistent_config_runs(self, tmp_path, command):
        assert self.run(tmp_path, command) == 0

    def test_mu_shorter_than_depth(self, tmp_path, command, capsys):
        model = {"kind": "generation", "seed_kind": "linear_seed",
                 "a": [0.5, 0.0], "depth": 2}
        assert self.run(tmp_path, command, model=model) == 2
        assert "mu has length 1 but the model has depth 2" in capsys.readouterr().err

    def test_mu_longer_than_depth(self, tmp_path, command):
        assert self.run(tmp_path, command, mu=[2, 3]) == 2

    def test_mu_for_a_seed_model(self, tmp_path, command):
        model = {"kind": "iso_goldfish", "omega": 1.0}
        assert self.run(tmp_path, command, model=model) == 2

    @pytest.mark.parametrize("raw, message", [
        ({k: v for k, v in README_CONFIG.items() if k != "mu"},
         "mu has length 0 but the model has depth 2"),
        (dict(BASE_SIM, model={"kind": "linear_seed", "depth": 2,
                               "seed_kind": "iso_goldfish"}),
         "model kind 'linear_seed' takes no depth or seed_kind"),
    ], ids=["readme-without-mu", "depth-on-a-seed-kind"])
    def test_model_levels_must_match_mu(self, tmp_path, command, capsys, raw,
                                        message):
        raw = dict(raw, output=str(tmp_path / "out.csv"))
        assert main([command, "--config", write_config(tmp_path, raw)]) == 2
        assert capsys.readouterr().err == f"{command}: {message}\n"
        assert not (tmp_path / "out.csv").exists()

    def test_n_must_match_positions(self, tmp_path, command, capsys):
        assert self.run(tmp_path, command, n=7) == 2
        assert "n=7 but initial.positions has 3 entries" in capsys.readouterr().err

    def test_grid_needs_two_output_times(self, tmp_path, command, capsys):
        grid = {"t0": 0.0, "t1": 0.001, "dt_out": 0.01}
        assert self.run(tmp_path, command, grid=grid) == 2
        assert "at least two output times" in capsys.readouterr().err

    def test_grid_step_must_divide_span(self, tmp_path, command, capsys):
        # 240 steps of 0.02618 end at 6.2832, 1.5e-5 past t1 = 2 pi
        grid = {"t0": 0.0, "t1": 2 * np.pi, "dt_out": 0.02618}
        assert self.run(tmp_path, command, grid=grid) == 2
        assert "does not divide" in capsys.readouterr().err

    def test_grid_ends_at_t1(self, tmp_path, command):
        grid = {"t0": 0.0, "t1": 2 * np.pi, "dt_out": 2 * np.pi / 240}
        assert self.run(tmp_path, command, grid=grid) == 0
        t = np.genfromtxt(tmp_path / "out.csv", delimiter=",", names=True)["t"]
        assert len(t) == 241
        assert abs(t[-1] - 2 * np.pi) <= 4 * np.finfo(float).eps * 2 * np.pi

    def test_n_may_be_omitted(self, tmp_path, command):
        raw = {k: v for k, v in BASE_SIM.items() if k != "n"}
        raw["output"] = str(tmp_path / "out.csv")
        assert main([command, "--config", write_config(tmp_path, raw)]) == 0


class TestVerifyAndPeriod:
    def test_verify_identities_passes(self, capsys):
        assert main(["verify", "identities"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out

    def test_verify_prints_suite_wall_time(self, capsys):
        assert main(["verify", "hermite"]) == 0
        last = capsys.readouterr().out.strip().splitlines()[-1]
        assert re.fullmatch(r"hermite: \d+\.\d\d s", last)

    def test_verify_rejects_unknown_suite(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "nonsense"])
        assert exc.value.code == 2

    def test_period_detects_multiplier(self, tmp_path, capsys):
        ts = np.linspace(0.0, 8 * np.pi, 8 * 60 + 1)
        lines = ["t,x1_re,x1_im"]
        for t in ts:
            z = np.exp(1j * t / 2)  # period 4*pi = 2 * (2*pi)
            lines.append(f"{t:.17g},{z.real:.17g},{z.imag:.17g}")
        p = tmp_path / "path.csv"
        p.write_text("\n".join(lines) + "\n")
        assert main(["period", str(p), "--period", str(2 * np.pi)]) == 0
        rep = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert rep["multiplier"] == 2

    def test_period_not_found_is_verify_failure(self, tmp_path):
        ts = np.linspace(0.0, 10.0, 101)
        lines = ["t,x1_re,x1_im"]
        for t in ts:
            lines.append(f"{t:.17g},{np.exp(t):.17g},0")
        p = tmp_path / "path.csv"
        p.write_text("\n".join(lines) + "\n")
        assert main(["period", str(p), "--period", "1.0", "--p-max", "5"]) == 1

    def test_period_one_row_is_config_error(self, tmp_path, capsys):
        p = tmp_path / "one.csv"
        p.write_text("t,x1_re,x1_im\n0,1,0\n")
        assert main(["period", str(p), "--period", "1.0"]) == 2
        assert capsys.readouterr().err.startswith("period: ")

    def test_period_two_rows_is_config_error(self, tmp_path, capsys):
        # two rows can never show a period: not "no period fits" (exit 1)
        p = tmp_path / "two.csv"
        p.write_text("t,x1_re,x1_im\n0,1,0\n1,1,0\n")
        assert main(["period", str(p), "--period", "1.0"]) == 2
        assert capsys.readouterr().err == (
            "period: the CSV needs at least three rows of data, not 2\n")

    def test_period_too_short_for_one_base_period_is_config_error(self, tmp_path,
                                                                   capsys):
        # p = 1 needs a full base period of overlap, 2 * 4 + 1 rows: four rows
        # compare nothing, so "no multiple fits" (exit 1) would be unfounded
        p = tmp_path / "four.csv"
        p.write_text("t,x1_re,x1_im\n0,1,0\n1,1,0\n2,1,0\n3,1,0\n")
        assert main(["period", str(p), "--period", "4"]) == 2
        assert capsys.readouterr().err == (
            "period: the path has 4 rows; a base period of 4 grid steps needs 9 "
            "to compare p = 1\n")

    def test_period_multiple_needs_a_full_base_period(self, tmp_path, capsys):
        # x(8), x(9) = x(0), x(1) is a quarter of the base period: p = 2,
        # which needs 13 rows, is not compared, and p = 1 does not fit
        p = tmp_path / "ten.csv"
        p.write_text("t,x1_re,x1_im\n" + "".join(
            f"{t},{x},0\n" for t, x in enumerate([0, 1, 2, 3, 4, 5, 6, 7, 0, 1])))
        assert main(["period", str(p), "--period", "4"]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == ("period: NoPeriodFound: no period multiple p <= 1 found; "
                           "p = 2 needs 13 rows, the path has 10\n")

    def test_period_grid_mismatch_is_config_error(self, tmp_path, capsys):
        uniform = np.linspace(0.0, 10.0, 101)
        # period / spacing underflows to 0 or overflows to inf in the last two
        for ts, period in ((uniform, "0.25"), (uniform**2 / 10.0, "1.0"),
                           (uniform * 1e301, "1e-300"), (uniform * 1e-299, "1e300")):
            lines = ["t,x1_re,x1_im"]
            lines += [f"{t:.17g},{np.cos(t):.17g},0" for t in ts]
            p = tmp_path / "path.csv"
            p.write_text("\n".join(lines) + "\n")
            assert main(["period", str(p), "--period", period]) == 2
            assert capsys.readouterr().err.startswith("period: ")

    @pytest.mark.parametrize("header", ["time,x1_re,x1_im", "t,x1_re,x2_im",
                                        "t,y1_re,y1_im"])
    def test_period_missing_column_is_config_error(self, tmp_path, capsys, header):
        p = tmp_path / "path.csv"
        p.write_text(header + "\n0,1,0\n1,1,0\n2,1,0\n")
        assert main(["period", str(p), "--period", "1.0"]) == 2
        assert capsys.readouterr().err.startswith("period: ")

    def test_period_missing_file_is_config_error(self, tmp_path):
        assert main(["period", str(tmp_path / "nope.csv"),
                     "--period", "1.0"]) == 2

    @pytest.mark.parametrize("text", [
        "",
        "t,x1_re,x1_im\n0,1,0\n1,1\n2,1,0\n",
        "t,x1_re,x1_im\n0,1,0\n0,1,0\n0,1,0\n",
        "t,x1_re,x1_im\n0,1,0\n2,1,0\n1,1,0\n",
        "t,x1_re,x1_im\n0,1,0\n1,one,0\n2,1,0\n",
        "t,x1_re,x1_im\n0,1,0\n1,nan,0\n2,1,0\n",
        "t,x1_re,x1_im\n0,1,0\n1,1,0\ninf,1,0\n",
    ], ids=["empty", "ragged", "repeated", "decreasing", "text", "nan", "inf"])
    def test_period_bad_csv_is_config_error(self, tmp_path, capsys, text):
        p = tmp_path / "path.csv"
        p.write_text(text)
        assert main(["period", str(p), "--period", "1.0"]) == 2
        assert capsys.readouterr().err.startswith("period: ")

    @pytest.mark.parametrize("period", ["0", "-1", "inf", "nan"])
    def test_period_must_be_finite_and_positive(self, tmp_path, capsys, period):
        p = tmp_path / "path.csv"
        p.write_text("t,x1_re,x1_im\n0,1,0\n1,1,0\n2,1,0\n3,1,0\n")
        assert main(["period", str(p), f"--period={period}"]) == 2
        assert capsys.readouterr().err.startswith("period: --period must be")

    @pytest.mark.parametrize("flag, rule", [
        ("--p-max=0", "--p-max must be >= 1, not 0"),
        ("--tol=-1", "--tol must be finite and > 0, not -1.0"),
        ("--tol=nan", "--tol must be finite and > 0, not nan"),
    ], ids=["p-max-0", "tol-negative", "tol-nan"])
    def test_period_flags_out_of_range_are_config_errors(self, tmp_path, capsys,
                                                         flag, rule):
        p = tmp_path / "path.csv"
        p.write_text("t,x1_re,x1_im\n0,1,0\n1,1,0\n2,1,0\n3,1,0\n")
        assert main(["period", str(p), "--period=1.0", flag]) == 2
        assert capsys.readouterr().err == f"period: {rule}\n"

    def test_period_bad_flag_raises_config_error(self, tmp_path, capsys):
        p = tmp_path / "path.csv"
        p.write_text("t,x1_re,x1_im\n0,1,0\n1,1,0\n2,1,0\n3,1,0\n")
        args = cli.build_parser().parse_args(["period", str(p), "--period=1.0",
                                              "--p-max=0"])
        with pytest.raises(cfgmod.ConfigError) as exc:
            cli.cmd_period(args)
        assert str(exc.value) == "--p-max must be >= 1, not 0"
        assert capsys.readouterr().err == ""

    def test_period_not_found_raises(self, tmp_path, capsys):
        p = tmp_path / "path.csv"
        p.write_text("t,x1_re,x1_im\n" + "".join(f"{t},{np.exp(t):.17g},0\n"
                                                  for t in range(11)))
        args = cli.build_parser().parse_args(["period", str(p), "--period=1.0",
                                              "--p-max=5"])
        with pytest.raises(NoPeriodFound):
            cli.cmd_period(args)
        assert capsys.readouterr().err == ""


# numbers of ordinary size, and of sizes that overflow a product, a square or
# an exponential; the band in between (|z| ~ 1e3..1e10) makes the explicit
# integrator take up to its step budget, which is slow but not a failure
_numbers = st.one_of(
    st.floats(-3.0, 3.0),
    st.builds(lambda sign, e: sign * 10.0**e, st.sampled_from([-1.0, 1.0]),
              st.sampled_from([-300, -200, -100, -30, 30, 100, 200, 300])),
)
_pairs = st.lists(_numbers, min_size=2, max_size=2)


@st.composite
def run_configs(draw):
    """Schema-valid configs, some of them contradicting themselves."""
    n = draw(st.integers(2, 4))
    kind = draw(st.sampled_from(dyn.SEED_KINDS + ("generation",)))
    model = {"kind": kind}
    raw = {"n": n, "model": model}
    if kind == "generation":
        depth = draw(st.integers(1, 2))
        model.update(seed_kind=draw(st.sampled_from(dyn.SEED_KINDS)), depth=depth)
        # n! + 1 is out of range: exit 2
        raw["mu"] = draw(st.lists(st.integers(1, math.factorial(n) + 1),
                                  min_size=depth, max_size=depth))
    if draw(st.booleans()):
        model["omega"] = draw(_numbers)
    if draw(st.booleans()):
        model["a"] = draw(_pairs)
    count = draw(st.sampled_from([n, n, n, n + 1]))  # n + 1 contradicts n
    states = st.lists(_pairs, min_size=count, max_size=count)
    raw["initial"] = {"positions": draw(states), "velocities": draw(states)}
    frames = draw(st.integers(1, 30))
    dt_out = draw(st.floats(1e-3, 0.5))
    t0 = draw(st.floats(-5.0, 5.0))
    raw["grid"] = {"t0": t0, "t1": t0 + frames * dt_out, "dt_out": dt_out}
    return raw


class TestCliProperty:
    @settings(max_examples=200, deadline=None)
    @given(run_configs(), st.sampled_from(["simulate", "solve"]))
    def test_exit_codes_and_finite_output(self, raw, command):
        with tempfile.TemporaryDirectory() as work:
            out = Path(work) / "out.csv"
            cfg = Path(work) / "run.json"
            cfg.write_text(json.dumps(dict(raw, output=str(out))))
            code = main([command, "--config", str(cfg)])
            assert code in (0, 1, 2, 3)
            if code == 0:
                text = out.read_text().lower()
                assert "nan" not in text and "inf" not in text
            else:
                assert not out.exists()


@st.composite
def period_csvs(draw):
    """CSV text near what simulate writes: a t column and x columns, with
    at most one fault: junk headers, a ragged row, a non-numeric cell, or
    times that repeat, decrease or are not uniform."""
    n = draw(st.integers(1, 2))
    header = ["t"] + [f"x{i}_{p}" for i in range(1, n + 1) for p in ("re", "im")]
    fault = draw(st.sampled_from([None] * 4 + ["header", "cell", "ragged", "time"]))
    if fault == "header":
        header = draw(st.one_of(
            st.permutations(header + ["v1_re", "junk"]),
            st.lists(st.sampled_from(header + ["x3_re", "junk"]), max_size=6),
        ))
    count = draw(st.one_of(st.integers(0, 2), st.integers(10, 30)))
    dt = draw(st.sampled_from([0.25, 0.5, 1.0, 1e-300, 1e300]))
    times = [k * dt for k in range(count)]
    if fault == "time" and count:
        k = draw(st.integers(0, count - 1))
        times[k] = draw(st.sampled_from(
            [times[k - 1], -times[k], times[k] * 1.1, times[k] + 0.3 * dt]))
    freq = draw(st.sampled_from([0.0, np.pi / 2, np.pi, 1.0]))
    rows = []
    for t in times:
        cells = {"t": repr(t)}
        for i in range(1, n + 1):
            z = np.exp(1j * freq * t / i)
            cells[f"x{i}_re"], cells[f"x{i}_im"] = repr(float(z.real)), repr(float(z.imag))
        rows.append([cells.get(name, "0") for name in header])
    if fault in ("cell", "ragged") and rows and header:
        row = rows[draw(st.integers(0, len(rows) - 1))]
        if fault == "cell":
            row[draw(st.integers(0, len(row) - 1))] = draw(
                st.sampled_from(["nan", "inf", "-inf", "one", "", "1e400"]))
        else:
            row.append("0") if draw(st.booleans()) else row.pop()
    return "\n".join(",".join(r) for r in [header] + rows) + "\n"


_period_flags = st.one_of(
    st.sampled_from(["0", "-1", "nan", "inf", "-inf", "1e300", "1e-300", "-1e300"]),
    st.builds(lambda m, dt: repr(m * dt), st.integers(1, 4),
              st.sampled_from([0.25, 0.5, 1.0, 1e300])),
    st.builds(lambda m, dt: repr(m * dt), st.integers(1, 4),
              st.sampled_from([0.25, 0.5, 1.0, 1e-300])),
)


class TestPeriodProperty:
    @settings(max_examples=150, deadline=None)
    @given(period_csvs(), _period_flags,
           st.one_of(st.integers(-1, 8), st.integers(-10**9, 10**9)),
           st.one_of(st.sampled_from(["1e-6", "0", "-1", "nan", "inf", "1e-300",
                                      "1e300"]),
                     st.floats(allow_nan=True, allow_infinity=True).map(repr)))
    # p = 2 fits only the two rows past t = 8, a quarter of the base period
    @example("t,x1_re,x1_im\n" + "".join(
        f"{t},{x},0\n" for t, x in enumerate([0, 1, 2, 3, 4, 5, 6, 7, 0, 1])),
        "4.0", 8, "1e-6")
    def test_exit_codes_and_report(self, text, period, p_max, tol):
        with tempfile.TemporaryDirectory() as work:
            path = Path(work) / "path.csv"
            path.write_text(text)
            out = io.StringIO()
            with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                warnings.simplefilter("error")
                code = main(["period", str(path), f"--period={period}",
                             f"--p-max={p_max}", f"--tol={tol}"])
        assert code in (0, 1, 2)
        if p_max < 1 or not all(math.isfinite(float(v)) and float(v) > 0
                                for v in (period, tol)):
            assert code == 2
        if code == 0:
            rep = json.loads(out.getvalue())
            assert math.isfinite(rep["base_period"]) and rep["base_period"] > 0
            assert 1 <= rep["multiplier"] <= p_max
            # the reported multiple had a full base period of overlap
            rows = list(csv.reader(io.StringIO(text)))
            t = [float(row[rows[0].index("t")]) for row in rows[1:]]
            shift = round(rep["base_period"] / (t[1] - t[0]))
            assert (rep["multiplier"] + 1) * shift + 1 <= len(t)


def test_cli_runs_without_scipy_or_jsonschema(tmp_path):
    """solve, simulate and generate load neither: scipy is imported by the
    set matching of verify alone, and the config walker replaces jsonschema.
    numpy.polynomial (the Hermite oracle of the tests) stays out too."""
    configs = {
        "solve": dict(BASE_SIM, output=str(tmp_path / "path.csv")),
        "simulate": dict(BASE_SIM, output=str(tmp_path / "traj.csv")),
        "generate": {"seed_coeffs": [[1.0, 0.0], [-1.0, 0.5]], "depth": 2,
                     "output": str(tmp_path / "tree.json")},
    }
    args = [arg for command, raw in configs.items()
            for arg in (command, write_config(tmp_path, raw, f"{command}.json"))]
    script = (
        "import sys\n"
        "from goldgen.cli import main\n"
        "args = sys.argv[1:]\n"
        "for command, config in zip(args[::2], args[1::2]):\n"
        "    assert main([command, '--config', config]) == 0, command\n"
        "print(sorted({'scipy', 'jsonschema', 'numpy.polynomial'}\n"
        "             & set(sys.modules)))\n"
    )
    src = str(Path(goldgen.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", script, *args],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"
    assert all((tmp_path / name).exists()
               for name in ("path.csv", "traj.csv", "tree.json"))
