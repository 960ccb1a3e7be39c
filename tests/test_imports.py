"""Every name a module imports is used in it, and every private module-level
name of the package is used in the package (no linter ships with the lab).

The import check covers the package, the tests and the demos. The
package's `__init__.py` is exempt: it imports to re-export, and exports
exactly what it imports. README's config tables name exactly the fields of
the configs they document. The bench's tracer must still find every
binding it wraps.
"""

import ast
import importlib.util
import re
import sys
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import pytest

import bigbatch
from bigbatch import cli
from bigbatch.data import DatasetSpec
from bigbatch.model import LayerSpec
from bigbatch.trainer import ExperimentConfig

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "bigbatch"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
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


def test_package_exports_exactly_what_it_imports():
    tree = ast.parse((SRC / "__init__.py").read_text())
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert imported == set(bigbatch.__all__) - {"__version__"}


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
