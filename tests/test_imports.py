"""Every name a module imports is used in it, and every private module-level
name of the package is used in the package (no linter ships with the lab).

The import check covers the package, the tests and the demos. README's
config tables name exactly the fields of the configs they document, and
every class whose fields declare rules checks them when an instance is
made. The bench's tracer must still find every binding it wraps, and the
line audit's collector must still find a line that never ran.
"""

import ast
import importlib.util
import json
import re
import sys
from dataclasses import fields, is_dataclass
from pathlib import Path
from types import ModuleType, SimpleNamespace

import numpy as np
import pytest

import bigbatch
from bigbatch import cli
from bigbatch.analysis import SamplerSpec, VarianceSpec
from bigbatch.data import DatasetSpec
from bigbatch.model import LayerSpec
from bigbatch.trainer import ExperimentConfig

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "bigbatch"
MODULES = sorted(SRC.glob("*.py"))
SCRIPTS = sorted([*(ROOT / "tests").glob("*.py"), *(ROOT / "demos").glob("*.py")])


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_guard_catches_an_unused_import():
    src = "import json\nfrom os import path, sep as s\nfrom a.b import c\nprint(path, s)\n"
    assert unused_imports(src) == ["c (line 3)", "json (line 1)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports_in_tests_and_demos(path):
    assert unused_imports(path.read_text()) == []


def test_package_exports_only_its_version():
    # every public name is imported from its defining module, not the package
    assert bigbatch.__all__ == ["__version__"]
    tree = ast.parse((SRC / "__init__.py").read_text())
    assert not [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]


def unused_private_names(sources: dict) -> list:
    """Module-level names `_x` defined in `sources` (file name -> text) that no
    source reads, as a name or as an attribute."""
    defined, used = {}, set()
    for file, text in sources.items():
        tree = ast.parse(text)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                names = [n.id for n in ast.walk(node)
                         if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
            else:
                continue
            defined.update((name, f"{file}:{node.lineno}") for name in names
                           if name.startswith("_") and not name.startswith("__"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return sorted(f"{name} ({where})" for name, where in defined.items() if name not in used)


def test_guard_catches_an_unused_private_name():
    sources = {"a.py": "_used = 1\n_dead, _kept = 2, 3\ndef _helper():\n    return _used\n"
                       "class _Gone:\n    pass\n__all__ = []\n",
               "b.py": "from a import _helper\nimport a\nprint(_helper(), a._kept)\n"}
    assert unused_private_names(sources) == ["_Gone (a.py:5)", "_dead (a.py:2)"]


def test_no_unused_private_names():
    assert unused_private_names({p.name: p.read_text() for p in SRC.glob("*.py")}) == []


def config_table_names(readme: str) -> list:
    """The backticked names in the first column of each table under
    "## Config reference", one list per table, in order."""
    section = readme.split("\n## Config reference\n", 1)[1].split("\n## ", 1)[0]
    tables, rows = [], None
    for line in section.splitlines():
        if not line.startswith("|"):
            rows = None
        elif rows is None:  # a table's header row
            rows = []
            tables.append(rows)
        else:  # the separator row's first cell holds no backticks
            rows.extend(re.findall(r"`([^`]+)`", line.split("|")[1]))
    return tables


def test_guard_reads_each_config_table():
    readme = ("| `x` | y |\n\n## Config reference\n\nprose `p`\n\n| field | rule |\n"
              "|---|---|\n| `a` | `b` |\n| `c`, `d` | e |\n\nprose\n\n| field | rule |\n"
              "|---|---|\n| `e` | f |\n\n## Next\n\n| `g` | h |\n")
    assert config_table_names(readme) == [["a", "c", "d"], ["e"]]


def test_config_reference_names_every_field():
    assert config_table_names((ROOT / "README.md").read_text()) == [
        [f.name for f in fields(ExperimentConfig)],
        [f.name for f in fields(DatasetSpec)],
        [f.name for f in fields(LayerSpec)],
        list(cli.VARIANCE_DEFAULTS),
        list(cli.RATIO_DEFAULTS),
    ]


def ruled_classes(modules) -> list:
    """Every dataclass defined in `modules` that declares a field with `ruled`."""
    return sorted((cls for m in modules for cls in vars(m).values()
                   if isinstance(cls, type) and cls.__module__ == m.__name__
                   and is_dataclass(cls) and any("rule" in f.metadata for f in fields(cls))),
                  key=lambda cls: cls.__name__)


def unchecked_fields(cls, valid: dict) -> list:
    """The ruled fields of `cls` that take `object()`, which every rule refuses,
    when an instance is built from the keyword arguments `valid`."""
    taken = []
    for f in fields(cls):
        if "rule" in f.metadata:
            try:
                cls(**{**valid, f.name: object()})
            except ValueError:  # every config error class is one
                continue
            taken.append(f.name)
    return taken


def test_guard_finds_a_ruled_class_that_does_not_check_itself():
    snippet = ModuleType("snippet")
    exec("from dataclasses import dataclass\n"
         "from bigbatch.schema import check_fields, integer, ruled\n"
         "@dataclass\nclass Loose:\n    n: int = ruled(integer(), 0)\n    note: str = ''\n"
         "@dataclass\nclass Strict:\n    n: int = ruled(integer(), 0)\n"
         "    def __post_init__(self):\n        check_fields(self, ValueError)\n"
         "@dataclass\nclass Plain:\n    n: int = 0\n", vars(snippet))
    assert ruled_classes([snippet]) == [snippet.Loose, snippet.Strict]
    assert unchecked_fields(snippet.Loose, {}) == ["n"]
    assert unchecked_fields(snippet.Strict, {}) == []


def test_every_ruled_class_checks_itself_when_made():
    # a rule that only a separate call applies is a rule some caller forgets
    valid = {ExperimentConfig: {}, DatasetSpec: {"size": 8, "classes": 2},
             LayerSpec: {"kind": "relu"}, VarianceSpec: cli.VARIANCE_DEFAULTS,
             SamplerSpec: {"seed": 0, **cli.RATIO_DEFAULTS}}
    modules = [importlib.import_module(f"bigbatch.{p.stem}")
               for p in MODULES if p.stem not in ("__init__", "__main__")]
    classes = ruled_classes(modules)
    assert set(classes) == set(valid), "give each ruled class a valid instance here"
    assert {cls.__name__: unchecked_fields(cls, valid[cls]) for cls in classes} == {
        cls.__name__: [] for cls in classes}


def test_line_audit_reports_the_line_never_run(tmp_path):
    # `line_audit.py` is not collected; its collector must see device threads
    from line_audit import Collector
    snippet = tmp_path / "snippet.py"
    snippet.write_text("import threading\n\n\ndef f(x):\n    if x:\n        return 1\n"
                       "    return 2\n\n\nt = threading.Thread(target=f, args=(1,))\n"
                       "t.start()\nt.join()\n")
    collector = Collector([snippet])
    with collector.tracing():
        exec(compile(snippet.read_text(), str(snippet), "exec"), {})
    assert collector.missed(tmp_path.resolve()) == ["snippet.py:7: return 2"]


def load_by_path(monkeypatch, name, path):
    """Import the file at `path` as module `name`, registered until the test ends."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def load_bench(monkeypatch):
    """The bench's `spans` and `workloads` modules, and the package as it loads it."""
    spans = load_by_path(monkeypatch, "spans", ROOT / "bench" / "spans.py")
    workloads = load_by_path(monkeypatch, "workloads", ROOT / "bench" / "workloads.py")
    bb = SimpleNamespace(**{m: importlib.import_module(f"bigbatch.{m}") for m in (
        "cli", "trainer", "model", "batchnorm", "collectives", "tensor", "data", "analysis")})
    return spans, workloads, bb


def test_bench_tracing_installs_on_the_package_and_restores(monkeypatch):
    spans, workloads, bb = load_bench(monkeypatch)
    owners = [*vars(bb).values(), bb.tensor.Tensor, bb.collectives.DeviceGroup,
              bb.data.Dataset]
    before = [dict(vars(owner)) for owner in owners]
    traced = [(bb.model, "sync_bn_forward"), (bb.model, "sync_bn_backward"),
              (bb.batchnorm, "allreduce_sum")]
    originals = [getattr(owner, attr) for owner, attr in traced]
    patches = spans.Patches()
    try:
        workloads.install_tracing(bb, spans.Tracer(), patches)
        assert all(getattr(owner, attr) is not fn
                   for (owner, attr), fn in zip(traced, originals))
    finally:
        patches.restore()
    assert [dict(vars(owner)) for owner in owners] == before


def test_bench_traced_names_stay_on_the_call_path(monkeypatch):
    # a wrapper on a name the training step no longer calls would read 0
    # for its per-layer metric instead of failing
    spans, workloads, bb = load_bench(monkeypatch)
    tracer, patches = spans.Tracer(), spans.Patches()
    try:
        workloads.install_tracing(bb, tracer, patches)
        cfg = bb.trainer.ExperimentConfig.from_dict({  # the default model: cross BN
            "world_size": 2, "per_device_batch": 4, "epochs": 1,
            "dataset": {"size": 16, "classes": 2}})
        assert bb.trainer.run_training(cfg).status == "ok"
    finally:
        patches.restore()
    recorded = {tracer.names[int(i)] for log in tracer.logs for i in log.table()[:, 2]}
    assert {"trainer.forward", "trainer.eval", "trainer.backward", "trainer.sgd_step",
            "trainer.allreduce_sum", "model.sync_bn_forward", "model.sync_bn_backward",
            "batchnorm.allreduce_sum"} <= recorded


def test_bench_analysis_names_stay_on_the_call_path(monkeypatch, tmp_path):
    # the analysis twin: an entry point or callback the reports stopped calling
    # by its traced name would read 0, and a setup probe that never fired
    # would count the whole report as setup
    spans, workloads, bb = load_bench(monkeypatch)
    first, probes = workloads.FirstCall(), spans.Patches()
    tracer, patches = spans.Tracer(), spans.Patches()
    trials, sizes, k = 100, [2, 4], 2
    configs = {"variance": {"trials": trials, "batch_sizes": sizes, "ks": [k]},
               "ratio-study": {"epochs": 1, "batch_sizes": [16], "batches_per_cell": 2}}
    try:
        for owner, attr in workloads.WORKLOADS["analysis"].probe_targets(bb):
            probes.install(owner, attr, first.wrap)
        workloads.install_tracing(bb, tracer, patches)
        for command, cfg in configs.items():
            path = tmp_path / f"{command}.json"
            path.write_text(json.dumps(cfg))
            assert bb.cli.main([command, "--config", str(path), "--out", str(tmp_path)]) == 0
    finally:
        patches.restore()
        probes.restore()
    table = np.concatenate([log.table() for log in tracer.logs])
    names = np.array(tracer.names)[table[:, 2].astype(int)]
    assert {*workloads.ENTRY_POINTS, *workloads.CALLBACKS} <= set(names)
    draws = np.isin(names, ["cli.normal_pair_sampler", "analysis._draw_mixture"])
    # the law draws once per trial and size, each update-variance estimate (scaled
    # and unscaled) 1 + k times per trial, and the study a mixture pair per batch
    assert draws.sum() == len(sizes) * trials + 2 * trials * (1 + k) + 2 * 1 * 1 * 2
    assert first.at is not None and first.at < table[draws, 3].min()
