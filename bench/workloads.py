"""The benchmark's workloads, their correctness checks and their metrics.

Every workload is a closed loop: this single harness thread runs one
repetition after another through the user path, `bigbatch.cli.main`, and
the program's own device threads are the system under test. The workload
seed only reaches the program through the config files written here (and
the `--seed` flag of the analysis reports, which have no seed field).

- dp8x8: `train` on 8 devices x batch 8 with cross-device BN over the
  whole world, the paper's large-batch layout. Collectives, synchronized
  BN and per-call overhead on batch-8 arrays do most of the work.
- single1x64: the same model, data, seed and warmup on 1 device x 64, the
  same math as dp8x8 (acceptance criterion 6). Model and tensor compute
  dominate and a world-1 allreduce is a copy, so a collectives change must
  show no gain here.
- analysis: the `variance` and `ratio-study` reports with raised trial
  counts. No threads, model or collectives: a training change must not
  move it.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import spans

# Acceptance-criterion-7 model and blob data.
MODEL = [
    {"kind": "conv3x3", "out_channels": 6}, {"kind": "bn", "variant": "cross"},
    {"kind": "relu"},
    {"kind": "conv3x3", "out_channels": 6}, {"kind": "bn", "variant": "cross"},
    {"kind": "relu"},
    {"kind": "global_mean_pool"}, {"kind": "dense", "out_features": None},
]
DATASET = {"size": 512, "classes": 4, "separation": 4.0, "eval_size": 256}
TRAIN_BASE = {"base_lr": 0.10, "base_batch": 8, "warmup_iters": 32,
              "model": MODEL, "dataset": DATASET}
LAYOUTS = {"dp8x8": (8, 8), "single1x64": (1, 64)}
TRAIN_OUTPUTS = ("metrics.csv", "manifest.json", "checkpoint.npz")

VARIANCE_CONFIG = {"trials": 5000}
RATIO_CONFIG = {"batches_per_cell": 800}
ANALYSIS_OUTPUTS = ("variance.json", "ratio_study.csv", "ratio_study.json")

ACC_FLOOR = 0.75            # chance is 0.25; seeds 0-23 reach 0.83-0.99
PARITY_RTOL = 1e-7          # criterion 6: 8 devices vs 1 device
LAW_TOLERANCE = 0.15        # criterion 4: N * Var within 15% of 1


@dataclass
class Rep:
    """One repetition: its timings, its work and what its checks found."""

    wall_s: float
    setup_s: float
    items: int
    hashes: dict
    problems: list = field(default_factory=list)
    eval_acc: float | None = None
    iterations: int = 0
    speed: float = 1.0      # host speed around this repetition


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class FirstCall:
    """Remembers when the first of the functions it wraps was entered."""

    def __init__(self):
        self.at = None

    def wrap(self, fn):
        def probed(*args, **kwargs):
            if self.at is None:
                self.at = time.perf_counter()
            return fn(*args, **kwargs)
        return probed


# This shared 2-vCPU host runs the same code up to 2x slower for minutes at
# a time. Each repetition's timings are therefore scaled by the host speed
# measured around it: a fixed kernel's time on the reference host over its
# time now. The kernel matches the workload's kind of work, because the
# slowdowns hit Python-level loops and numpy array work differently.


def conv_kernel() -> float:
    """Wall time of 3x3 patch extraction and a small matmul, as in the model."""
    x = np.linspace(0.0, 1.0, 64 * 6 * 8 * 8).reshape(64, 6, 8, 8)
    w = np.linspace(-1.0, 1.0, 6 * 54).reshape(6, 54)
    t0 = time.perf_counter()
    for _ in range(20):
        padded = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        win = np.lib.stride_tricks.sliding_window_view(padded, (3, 3), axis=(2, 3))
        cols = win.transpose(0, 2, 3, 1, 4, 5).reshape(-1, 54)
        np.cumsum(cols @ w.T, axis=0)
    return time.perf_counter() - t0


def loop_kernel() -> float:
    """Wall time of a Python loop of small numpy calls, as in the analysis trials.

    About 0.1 s: Python-level speed on this host flips between a fast and a
    slow state every few hundred ms, and a shorter loop samples one state.
    """
    a = np.ones(64)
    t0 = time.perf_counter()
    total = 0.0
    for _ in range(20000):
        total += float(np.mean(a * 1.5))
    return time.perf_counter() - t0


def call_cli(bb, argv, first: FirstCall, main=None):
    """Run `cli.main(argv)` with stdout captured; (exit code, stdout, wall, setup)."""
    main = main or bb.cli.main
    buf = io.StringIO()
    first.at = None
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    wall = time.perf_counter() - t0
    setup = (first.at - t0) if first.at is not None else wall
    return code, buf.getvalue(), wall, setup


class TrainWorkload:
    kind = "train"
    reference_s = 0.0188    # conv_kernel() on the host named in baseline.json

    def __init__(self, name: str):
        self.name = name
        self.world, self.per_device_batch = LAYOUTS[name]
        self.partner = next(n for n in LAYOUTS if n != name)

    def probe_targets(self, bb):
        return [(bb.collectives.DeviceGroup, "run")]

    def host_speed(self) -> float:
        """Host speed relative to the reference: above 1 is faster."""
        return self.reference_s / conv_kernel()

    def write_inputs(self, work: Path, seed: int) -> dict:
        paths = {}
        for name, (world, batch) in LAYOUTS.items():
            path = work / f"{name}.json"
            path.write_text(json.dumps({**TRAIN_BASE, "world_size": world,
                                        "per_device_batch": batch, "seed": seed}))
            paths[name] = path
        return paths

    def run_rep(self, bb, inputs, out: Path, first: FirstCall, main=None,
                layout=None) -> Rep:
        cfg = inputs[layout or self.name]
        code, text, wall, setup = call_cli(
            bb, ["train", "--config", str(cfg), "--out", str(out)], first, main)
        problems = []
        if code != 0:
            problems.append(f"train exited {code}")
        if "status: ok" not in text.splitlines():
            problems.append("train did not report status ok")
        missing = [n for n in TRAIN_OUTPUTS if not (out / n).is_file()]
        if missing:
            problems.append(f"missing outputs {missing}")
            return Rep(wall, setup, 0, {}, problems)
        manifest = json.loads((out / "manifest.json").read_text())
        if manifest["status"] != "ok":
            problems.append(f"manifest status {manifest['status']}")
        resolved = manifest["resolved"]
        iterations = resolved["iters_per_epoch"] * resolved["epochs"]
        acc = read_metrics(out / "metrics.csv")[1][-1][1]
        if not acc >= ACC_FLOOR:
            problems.append(f"final eval accuracy {acc} below floor {ACC_FLOOR}")
        return Rep(wall, setup, iterations * resolved["total_batch"],
                   {n: _sha(out / n) for n in TRAIN_OUTPUTS}, problems,
                   eval_acc=acc, iterations=iterations)

    def run_checks(self, bb, inputs, work: Path, first: FirstCall, reference: Path):
        """Criterion 6: the partner layout trains the same trajectory."""
        out = work / "partner"
        rep = self.run_rep(bb, inputs, out, first, layout=self.partner)
        problems = list(rep.problems)
        if not problems:
            problems += compare_trajectories(reference / "metrics.csv",
                                             out / "metrics.csv")
        return [f"{self.partner} parity: {p}" for p in problems]


def read_metrics(path: Path):
    """(task losses, (epoch, eval_acc) pairs) from a run's metrics.csv."""
    losses, evals = [], []
    with path.open() as f:
        for row in csv.DictReader(f):
            if row["task_loss"]:
                losses.append(float(row["task_loss"]))
            if row["eval_acc"]:
                evals.append((int(row["epoch"]), float(row["eval_acc"])))
    return losses, evals


def compare_trajectories(a: Path, b: Path) -> list:
    la, ea = read_metrics(a)
    lb, eb = read_metrics(b)
    problems = []
    if len(la) != len(lb):
        problems.append(f"{len(la)} vs {len(lb)} iterations")
    else:
        worst = max(abs(x - y) / max(abs(x), abs(y), 1e-300) for x, y in zip(la, lb))
        if not worst <= PARITY_RTOL:
            problems.append(f"task loss differs by {worst:.3e} relative (tol {PARITY_RTOL})")
    if ea != eb:
        problems.append("eval histories differ")
    return problems


class AnalysisWorkload:
    kind = "analysis"
    name = "analysis"
    reference_s = 0.09      # loop_kernel() on the host named in baseline.json

    def probe_targets(self, bb):
        return [(bb.cli, "estimate_grad_variance"), (bb.cli, "posneg_ratio_study")]

    def host_speed(self) -> float:
        """Host speed relative to the reference: above 1 is faster."""
        return self.reference_s / loop_kernel()

    def write_inputs(self, work: Path, seed: int) -> dict:
        variance, ratio = work / "variance.json", work / "ratio.json"
        variance.write_text(json.dumps(VARIANCE_CONFIG))
        ratio.write_text(json.dumps(RATIO_CONFIG))
        return {"variance": variance, "ratio": ratio, "seed": seed}

    @staticmethod
    def draws(bb) -> int:
        """Sampler calls per repetition, from the reports' configs."""
        v = {**bb.cli.VARIANCE_DEFAULTS, **VARIANCE_CONFIG}
        r = {**bb.cli.RATIO_DEFAULTS, **RATIO_CONFIG}
        law = len(v["batch_sizes"]) * v["trials"]
        equivalence = sum(2 * v["trials"] * (1 + k) for k in v["ks"])
        ratio = 2 * r["epochs"] * len(r["batch_sizes"]) * r["batches_per_cell"]
        return law + equivalence + ratio

    def run_rep(self, bb, inputs, out: Path, first: FirstCall, main=None) -> Rep:
        seed = str(inputs["seed"])
        wall = setup = 0.0
        problems = []
        for command, cfg in (("variance", inputs["variance"]),
                             ("ratio-study", inputs["ratio"])):
            code, _, w, s = call_cli(
                bb, [command, "--config", str(cfg), "--seed", seed, "--out", str(out)],
                first, main)
            wall += w
            setup += s
            if code != 0:
                problems.append(f"{command} exited {code}")
        missing = [n for n in ANALYSIS_OUTPUTS if not (out / n).is_file()]
        if missing:
            problems.append(f"missing outputs {missing}")
            return Rep(wall, setup, 0, {}, problems)
        law = json.loads((out / "variance.json").read_text())["variance_law"]
        worst = max(abs(e["n_times_aggregate"] - 1.0) for e in law)
        if not worst <= LAW_TOLERANCE:
            problems.append(f"n_times_aggregate off 1 by {worst:.3f} (tol {LAW_TOLERANCE})")
        return Rep(wall, setup, self.draws(bb),
                   {n: _sha(out / n) for n in ANALYSIS_OUTPUTS}, problems)

    def run_checks(self, bb, inputs, work, first, reference):
        return []


WORKLOADS = {"dp8x8": TrainWorkload("dp8x8"),
             "single1x64": TrainWorkload("single1x64"),
             "analysis": AnalysisWorkload()}


# -- tracing -----------------------------------------------------------------

CALLBACKS = ("cli.scalar_linear_grad", "cli.normal_pair_sampler",
             "analysis._draw_mixture")
ENTRY_POINTS = {"cli.estimate_grad_variance": "analysis.grad_variance_ms",
                "cli.variance_equivalence_ratio": "analysis.equivalence_ms",
                "cli.posneg_ratio_study": "analysis.ratio_study_ms"}
ALLREDUCES = ("trainer.allreduce_sum", "batchnorm.allreduce_sum")
LAYER_UNITS = {
    "trainer.step_ms_p50": "ms", "trainer.step_ms_p90": "ms", "trainer.eval_ms": "ms",
    "trainer.write_ms": "ms", "trainer.checksum_us": "us", "trainer.cpu_per_wall": "ratio",
    "model.forward_cpu_us": "us", "model.backward_cpu_us": "us",
    "batchnorm.sync_forward_cpu_us": "us", "batchnorm.sync_backward_cpu_us": "us",
    "collectives.allreduce_per_iter": "count", "collectives.broadcast_per_iter": "count",
    "collectives.elements_per_iter": "count", "collectives.allreduce_cpu_us": "us",
    "collectives.allreduce_wait_us_p50": "us", "collectives.allreduce_wait_us_p90": "us",
    "collectives.wait_share": "ratio", "tensor.constructs_per_iter": "count",
    "tensor.construct_cpu_us": "us", "optim.sgd_step_cpu_us": "us",
    "data.generate_ms": "ms", "data.hash_ms": "ms",
    "analysis.grad_variance_ms": "ms", "analysis.equivalence_ms": "ms",
    "analysis.ratio_study_ms": "ms", "analysis.callback_share": "ratio",
    "tracing.items_per_s_delta": "1/s",
}


def install_tracing(bb, tracer: spans.Tracer, patches: spans.Patches) -> None:
    """Wrap the program's functions where trainer, model and cli call them."""
    wrap = tracer.wrap
    plain = [
        (bb.trainer, "backward", "trainer.backward"),
        (bb.trainer, "sgd_step", "trainer.sgd_step"),
        (bb.trainer, "check_replica_sync", "trainer.check_replica_sync"),
        (bb.trainer, "broadcast", "trainer.broadcast"),
        (bb.trainer, "resolve_dataset", "trainer.resolve_dataset"),
        (bb.cli, "write_outputs", "cli.write_outputs"),
        (bb.model, "sync_bn_forward", "model.sync_bn_forward"),
        (bb.model, "sync_bn_backward", "model.sync_bn_backward"),
        (bb.tensor.Tensor, "__init__", "Tensor.__init__"),
        (bb.data.Dataset, "content_hash", "Dataset.content_hash"),
        (bb.cli, "scalar_linear_grad", "cli.scalar_linear_grad"),
        (bb.cli, "normal_pair_sampler", "cli.normal_pair_sampler"),
        (bb.analysis, "_draw_mixture", "analysis._draw_mixture"),
    ] + [(bb.cli, name.split(".")[1], name) for name in ENTRY_POINTS]
    for owner, attr, name in plain:
        patches.install(owner, attr, lambda fn, name=name: wrap(fn, name))

    def payload(args):
        return np.size(args[2])

    patches.install(bb.trainer, "allreduce_sum",
                    lambda fn: wrap(fn, "trainer.allreduce_sum", payload))
    patches.install(bb.batchnorm, "allreduce_sum",
                    lambda fn: wrap(fn, "batchnorm.allreduce_sum", payload))

    def forward(fn):
        train, ev = wrap(fn, "trainer.forward"), wrap(fn, "trainer.eval")
        return lambda *a, **kw: (ev if kw.get("mode") == "eval" else train)(*a, **kw)

    patches.install(bb.trainer, "forward", forward)

    def group_run(fn):
        traced = wrap(fn, "DeviceGroup.run")
        return lambda group, worker, *a, **kw: traced(
            group, wrap(worker, "worker"), *a, **kw)

    patches.install(bb.collectives.DeviceGroup, "run", group_run)


class SpanSet:
    """The spans of several traced repetitions, grouped by name."""

    def __init__(self, tracers: list):
        self.groups: dict[str, list[dict]] = {}
        self.per_rep: list[dict[str, dict]] = []
        for tracer in tracers:
            rep_groups: dict[str, list[dict]] = {}
            for log in tracer.logs:
                cols = spans.span_columns(log.table())
                for nid, name in enumerate(tracer.names):
                    mask = cols["name"] == nid
                    if mask.any():
                        part = {k: v[mask] for k, v in cols.items()}
                        part["thread"] = log.thread
                        rep_groups.setdefault(name, []).append(part)
                        self.groups.setdefault(name, []).append(part)
            self.per_rep.append(rep_groups)

    def col(self, names, key, thread_prefix="", groups=None) -> np.ndarray:
        groups = self.groups if groups is None else groups
        names = (names,) if isinstance(names, str) else names
        parts = [p[key] for n in names for p in groups.get(n, [])
                 if p["thread"].startswith(thread_prefix)]
        return np.concatenate(parts) if parts else np.zeros(0)

    def step_intervals(self) -> np.ndarray:
        """Wall between consecutive sgd_step returns on rank 0, per repetition."""
        out = [np.diff(np.sort(p["t1"])) for rep in self.per_rep
               for p in rep.get("trainer.sgd_step", []) if p["thread"] == "device-0"]
        return np.concatenate(out) if out else np.zeros(0)


def _mean(a) -> float:
    return float(np.mean(a)) if len(a) else 0.0


def _median(a) -> float:
    return float(np.median(a)) if len(a) else 0.0


def _pct(a, p) -> float:
    return spans.percentile(a, p) if len(a) else 0.0


def layer_metrics(s: SpanSet, rank_iterations: int) -> dict:
    """Every per-layer metric; a layer a workload does not reach reads 0."""
    per_iter = 1.0 / rank_iterations if rank_iterations else 0.0
    steps = s.step_intervals()
    ar_wait = s.col(ALLREDUCES, "wait")
    worker_wall = s.col("worker", "wall").sum()
    group_wall = s.col("DeviceGroup.run", "wall").sum()
    busy = s.col("worker", "cpu").sum() + s.col("DeviceGroup.run", "cpu").sum()
    entry_wall = s.col(tuple(ENTRY_POINTS), "wall").sum()
    m = {
        "trainer.step_ms_p50": 1e3 * _pct(steps, 50),
        "trainer.step_ms_p90": 1e3 * _pct(steps, 90),
        "trainer.eval_ms": 1e3 * _median(s.col("trainer.eval", "wall")),
        "trainer.write_ms": 1e3 * _median(s.col("cli.write_outputs", "wall")),
        "trainer.checksum_us": 1e6 * _median(s.col("trainer.check_replica_sync", "wall")),
        "trainer.cpu_per_wall": busy / group_wall if group_wall else 0.0,
        "model.forward_cpu_us": 1e6 * _mean(s.col("trainer.forward", "self_cpu")),
        "model.backward_cpu_us": 1e6 * _mean(s.col("trainer.backward", "self_cpu")),
        "batchnorm.sync_forward_cpu_us":
            1e6 * _mean(s.col("model.sync_bn_forward", "self_cpu")),
        "batchnorm.sync_backward_cpu_us":
            1e6 * _mean(s.col("model.sync_bn_backward", "self_cpu")),
        "collectives.allreduce_per_iter": len(ar_wait) * per_iter,
        "collectives.broadcast_per_iter":
            len(s.col("trainer.broadcast", "wall")) * per_iter,
        "collectives.elements_per_iter": s.col(ALLREDUCES, "elements").sum() * per_iter,
        "collectives.allreduce_cpu_us": 1e6 * _mean(s.col(ALLREDUCES, "cpu")),
        "collectives.allreduce_wait_us_p50": 1e6 * _pct(ar_wait, 50),
        "collectives.allreduce_wait_us_p90": 1e6 * _pct(ar_wait, 90),
        "collectives.wait_share":
            (ar_wait.sum() + s.col("trainer.broadcast", "wait").sum()) / worker_wall
            if worker_wall else 0.0,
        "tensor.constructs_per_iter":
            len(s.col("Tensor.__init__", "wall", "device-")) * per_iter,
        "tensor.construct_cpu_us": 1e6 * _mean(s.col("Tensor.__init__", "cpu")),
        "optim.sgd_step_cpu_us": 1e6 * _mean(s.col("trainer.sgd_step", "cpu")),
        "data.generate_ms": 1e3 * _median(s.col("trainer.resolve_dataset", "wall")),
        "data.hash_ms": 1e3 * _median(s.col("Dataset.content_hash", "wall")),
        "analysis.callback_share":
            s.col(CALLBACKS, "wall").sum() / entry_wall if entry_wall else 0.0,
    }
    for entry, metric in ENTRY_POINTS.items():
        per_rep = [s.col(entry, "wall", groups=g).sum() for g in s.per_rep]
        m[metric] = 1e3 * _median(per_rep)
    return m


def count_checks(workload, s: SpanSet, reps: list, manifest: dict | None) -> list:
    """Counted work against what the configs and the cost model imply."""
    problems = []
    if workload.kind == "analysis":
        counted = len(s.col(("cli.normal_pair_sampler", "analysis._draw_mixture"), "wall"))
        expected = sum(r.items for r in reps)
        if counted != expected:
            problems.append(f"counted {counted} sampler draws, configs imply {expected}")
        return problems
    rank_iterations = sum(r.iterations for r in reps) * workload.world
    if manifest is None or not rank_iterations:
        return ["no manifest or no traced iterations to count"]
    rounds = len(s.col(ALLREDUCES, "wall")) / rank_iterations
    cost = manifest["wall_model_ms"]
    latency = cost["allreduce_round_ms"] * (workload.world - 1).bit_length()
    modelled = workload.per_device_batch * cost["sample_step_ms"] + rounds * latency
    if rounds != int(rounds) or modelled != cost["per_iteration"]:
        problems.append(f"{rounds} allreduces per rank-iteration do not give the "
                        f"cost model's {cost['per_iteration']} ms per iteration")
    return problems
