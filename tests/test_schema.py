"""The declared config rules: their messages, their coverage, and a
property test that no single bad value gets past them.

The property test starts from small valid `train`, `lr-preview`,
`variance` and `ratio-study` configs that spell out every field the
schema declares, replaces the value at one path with a value from a pool
of likely mistakes (or adds an unknown key), and runs the command in
process. Whatever it does, it must end with exit 0, 2 or 3 and at most
one stderr line, never an exception or a traceback. A second property
runs each perturbed `train` config through `lr-preview` and `gen-data`
too: when one of the three exits 2, all three exit 2 with `train`'s line.
"""

import contextlib
import copy
import io
import json
import math
from dataclasses import dataclass, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bigbatch import cli, collectives, optim
from bigbatch.data import MAX_CLASSES, DatasetSpec
from bigbatch.model import MAX_LAYER_WIDTH, LayerSpec
from bigbatch.analysis import (MAX_BATCHES_PER_CELL, MAX_TRIALS, RatioCell, SamplerSpec,
                               VarianceSpec)
from bigbatch.schema import (array, boolean, csv_header, csv_line, csv_text, integer, json_text,
                             mapping, number, one_of, string)
from bigbatch.trainer import CSV_HEADER, ExperimentConfig, MetricsRow


@pytest.mark.parametrize("rule,value,message", [
    (integer(gt=0), True, "x must be a positive integer, got True"),
    (integer(gt=0), 2.0, "x must be a positive integer, got 2.0"),
    (integer(ge=0), -1, "x must be a non-negative integer, got -1"),
    (integer(ge=2), 1, "x must be an integer >= 2, got 1"),
    (integer(gt=0), 2**53 + 1, f"x must be at most 2**53 in magnitude, got {2**53 + 1}"),
    (number(gt=0), False, "x must be a positive number, got False"),
    (number(), math.nan, "x must be a number, got nan"),
    (number(), -math.inf, "x must be a number, got -inf"),
    (number(), 10**400, f"x must be at most 2**53 in magnitude, got {10**400}"),
    (number(ge=0, lt=1), 1, "x must be a number >= 0 and < 1, got 1"),
    (number(gt=0, null=True), "1", "x must be a positive number or null, got '1'"),
    (boolean(), 0, "x must be true or false, got 0"),
    (string(), None, "x must be a string, got None"),
    (one_of("a", "b"), "c", "x must be one of 'a', 'b', got 'c'"),
    (array(integer()), [], "x must not be empty"),
    (array(integer()), "12", "x must be an array, got '12'"),
    (array(integer()), [1, "2"], "x[1] must be an integer, got '2'"),
    (array(integer(), number()), [1], "x must be an array of 2 entries, got [1]"),
    (mapping({"a": integer()}), {"a": 1, "b": 2}, "unknown x fields ['b']; expected ['a']"),
    (mapping({"a": integer()}, label="spec"), {"a": 0.5}, "spec: a must be an integer, got 0.5"),
    (mapping(DatasetSpec), {"size": 8}, "x.classes must be given"),
])
def test_rule_message(rule, value, message):
    assert rule(value, "x") == message


@pytest.mark.parametrize("rule,value", [
    (integer(gt=0), 2**53), (number(), 1), (number(), -2.5e300), (integer(null=True), None),
    (array(integer(), number()), [1, 0.5]), (mapping(LayerSpec), {"kind": "relu"}),
    (array(array(integer(), number())), ((1, 0.5),)),  # a tuple, as Python callers pass
])
def test_rule_takes(rule, value):
    assert rule(value, "x") is None


@pytest.mark.parametrize("cls", [ExperimentConfig, LayerSpec, DatasetSpec, SamplerSpec,
                                 VarianceSpec])
def test_every_field_declares_a_rule(cls):
    # a field added without a rule would go unchecked
    for f in fields(cls):
        assert callable(f.metadata.get("rule")), f"{cls.__name__}.{f.name} has no rule"


@pytest.mark.parametrize("cls,name,cap,rule_text", [
    (LayerSpec, "out_channels", MAX_LAYER_WIDTH, "an integer > 0 and <= 256 or null"),
    (LayerSpec, "out_features", MAX_LAYER_WIDTH, "an integer > 0 and <= 256 or null"),
    (DatasetSpec, "classes", MAX_CLASSES, "an integer >= 2 and <= 256"),
    (VarianceSpec, "trials", MAX_TRIALS, "an integer >= 100 and <= 65536"),
    (SamplerSpec, "batches_per_cell", MAX_BATCHES_PER_CELL, "an integer > 0 and <= 1048576"),
])
def test_capped_rule_admits_its_cap(cls, name, cap, rule_text):
    # checked on the rule alone; the memory or time each cap buys is in its comment
    rule = next(f.metadata["rule"] for f in fields(cls) if f.name == name)
    assert rule(cap, name) is None
    assert rule(cap + 1, name) == f"{name} must be {rule_text}, got {cap + 1}"


def test_config_declares_the_library_rules():
    # one rule object per bound, so the config and the library cannot drift apart
    rules = {f.name: f.metadata["rule"] for f in fields(ExperimentConfig)}
    assert rules["world_size"] is collectives.WORLD_SIZE
    assert rules["base_lr"] is optim.RATE and rules["base_batch"] is optim.BATCH
    assert rules["policy"] is optim.POLICY


def test_report_defaults_are_unchanged():
    assert cli.VARIANCE_DEFAULTS == {
        "batch_sizes": [1, 2, 4, 8, 16], "trials": 1000, "ks": [1, 2, 4], "rate": 0.02,
        "small_batch": 8}
    assert cli.RATIO_DEFAULTS == {
        "pos_counts": [[0, 0.25], [1, 0.35], [3, 0.25], [12, 0.12], [40, 0.03]],
        "neg_counts": [[96, 0.5], [128, 0.5]], "batch_sizes": [16, 32, 64, 128, 256],
        "epochs": 4, "batches_per_cell": 400, "drift_early_scale": 0.3,
        "drift_late_scale": 1.0, "drift_rate": 0.6, "drift_batch_exponent": 0.5}


def test_csv_rule():
    # ints as they are, None empty, anything else repr(float(v)): a numpy
    # float's own repr would read np.float64(...)
    @dataclass
    class Row:
        n: int
        numpy_float: float
        python_float: float
        missing: float | None

    row = Row(2**60 + 1, np.float64(1 / 3), 0.1, None)
    assert csv_header(Row) == "n,numpy_float,python_float,missing"
    assert csv_line(row) == f"{2**60 + 1},{1 / 3!r},0.1,"
    assert csv_text(Row, [row]) == f"{csv_header(Row)}\n{csv_line(row)}\n"
    assert csv_text(Row, []) == csv_header(Row) + "\n"


def test_csv_headers_are_the_record_fields():
    assert CSV_HEADER == ",".join(f.name for f in fields(MetricsRow))
    assert cli.RATIO_CSV_HEADER == ",".join(f.name for f in fields(RatioCell))


def test_json_layout():
    assert json_text({"b": 1, "a": [2]}) == '{\n  "a": [\n    2\n  ],\n  "b": 1\n}\n'


LAYERS = [{"kind": "conv3x3", "out_features": None, "out_channels": 2, "variant": "local",
           "eps": 1e-5, "running_momentum": 0.1, "name": ""},
          {"kind": "bn", "variant": "cross"}, {"kind": "relu"}, {"kind": "global_mean_pool"},
          {"kind": "dense", "out_features": None}]
TRAIN = dict(world_size=1, per_device_batch=4, bn_group_size=None, policy="normal",
             base_lr=0.1, base_batch=4, warmup_iters=0, half_lr=False, epochs=1,
             momentum=0.9, weight_decay=1e-4, model=LAYERS, one_pass_bn=False,
             dataset={"size": 8, "classes": 2, "height": 4, "width": 4, "separation": 4.0,
                      "noise_sigma": 1.0, "eval_size": 2, "blob_sigma": None},
             seed=0, out_dir=None, checksum_interval=1)
VARIANCE = {"batch_sizes": [1], "trials": 100, "ks": [1], "rate": 0.02, "small_batch": 1}
RATIO = {"pos_counts": [[0, 0.5], [2, 0.5]], "neg_counts": [[8, 1.0]], "batch_sizes": [4],
         "epochs": 1, "batches_per_cell": 3, "drift_early_scale": 0.5,
         "drift_late_scale": 1.0, "drift_rate": 0.5, "drift_batch_exponent": 0.5}
BASES = {"train": TRAIN, "lr-preview": TRAIN, "variance": VARIANCE, "ratio-study": RATIO}
POOL = ["x", True, False, None, math.nan, math.inf, -math.inf, 0, -1, 2.5, 2**64, [], {}]
UNKNOWN = object()  # stands for "add an undeclared key here"


def test_bases_spell_out_every_declared_field():
    assert list(TRAIN) == [f.name for f in fields(ExperimentConfig)]
    assert list(TRAIN["dataset"]) == [f.name for f in fields(DatasetSpec)]
    assert list(LAYERS[0]) == [f.name for f in fields(LayerSpec)]
    assert list(VARIANCE) == [f.name for f in fields(VarianceSpec)]
    assert list(RATIO) == list(cli.RATIO_DEFAULTS)


def paths(value, prefix=()):
    """Every path into a JSON value, containers first."""
    yield prefix
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, inner in items:
        yield from paths(inner, prefix + (key,))


def perturbed(base, path, value):
    cfg = copy.deepcopy(base)
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    if value is UNKNOWN:
        target = parent[path[-1]] if path else cfg
        if isinstance(target, dict):
            target["bogus"] = 1
    else:
        parent[path[-1]] = value
    return cfg


def run(command, cfg, tmp):
    path = tmp / "cfg.json"
    path.write_text(json.dumps(cfg))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main([command, "--config", str(path), "--out", str(tmp / "out")])
    return code, err.getvalue()


@pytest.mark.parametrize("command,examples", [
    ("train", 60), ("lr-preview", 60), ("variance", 12), ("ratio-study", 60)])
def test_one_bad_value_never_escapes(tmp_path_factory, command, examples):
    base = BASES[command]
    assert run(command, base, tmp_path_factory.mktemp("base")) == (cli.EXIT_OK, "")

    @settings(max_examples=examples, derandomize=True, deadline=None, database=None)
    @given(path=st.sampled_from(list(paths(base))),
           value=st.sampled_from(POOL + [UNKNOWN]))
    def check(path, value):
        if value is not UNKNOWN and not path:
            return  # the root is always a JSON object, read_json_object's case
        code, err = run(command, perturbed(base, path, value), tmp_path_factory.mktemp("run"))
        assert code in (cli.EXIT_OK, cli.EXIT_BAD_CONFIG, cli.EXIT_DIVERGED), (code, err)
        assert err.count("\n") <= 1 and err.endswith("\n") == bool(err)
        assert err.startswith("config error: ") == (code == cli.EXIT_BAD_CONFIG)

    check()


def test_lr_preview_and_gen_data_give_trains_verdict(tmp_path_factory):
    # whenever one of the three commands that read a training config
    # rejects a perturbed one, all three reject it with train's line
    commands = ("train", "lr-preview", "gen-data")
    for command in commands:
        assert run(command, TRAIN, tmp_path_factory.mktemp("base")) == (cli.EXIT_OK, "")

    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(path=st.sampled_from(list(paths(TRAIN))), value=st.sampled_from(POOL + [UNKNOWN]))
    def check(path, value):
        if value is not UNKNOWN and not path:
            return  # the root is always a JSON object, read_json_object's case
        cfg = perturbed(TRAIN, path, value)
        verdicts = {c: run(c, cfg, tmp_path_factory.mktemp("run")) for c in commands}
        if any(code == cli.EXIT_BAD_CONFIG for code, _ in verdicts.values()):
            assert set(verdicts.values()) == {verdicts["train"]}, verdicts

    check()
