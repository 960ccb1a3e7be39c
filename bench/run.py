"""The bigbatch benchmark: one workload, one seed, one measured run.

    python3 bench/run.py --workload dp8x8 --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the program is imported from its
`src/` directory, so nothing needs installing. With `--trace 0` the run
reports the end-to-end metrics of BENCHMARK.json; with `--trace 1` it
alternates traced and untraced repetitions and reports the per-layer
metrics. Human-readable lines come first; the last line of stdout is one
JSON object with `correct`, `attempted`, `failed` and `metrics`.

Scratch outputs go under `.bench_work/` in the checkout; the spans of a
traced run are written to `.bench_work/traces/` and every run's result,
with the environment it ran in, to `.bench_work/results/`.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy loads, identically on every side of
# a comparison: the simulated devices already oversubscribe the cores.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
# The harness and the device threads it starts run on one CPU. On two vCPUs
# the eight device threads hand the interpreter lock across cores, which
# made an 8x8 repetition about 2x slower and its time depend on what else
# the host ran; on one CPU the handoffs stay local.
PINNED_CPU = max(os.sched_getaffinity(0))

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
MIN_REPS = 3
MODULES = ("cli", "trainer", "model", "batchnorm", "collectives", "tensor",
           "data", "analysis")


def load_program():
    """The checkout's own bigbatch modules, or None if the sources are absent."""
    if not (SRC / "bigbatch" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    mods = {m: importlib.import_module(f"bigbatch.{m}") for m in MODULES}
    if not Path(mods["cli"].__file__).resolve().is_relative_to(SRC):
        return None
    return SimpleNamespace(**mods)


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_threads_pinned": BLAS_THREADS,
        "pinned_cpu": PINNED_CPU,
    }


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def attempt(fn) -> workloads.Rep:
    """Run one repetition; an exception is a failed repetition, not a crash."""
    try:
        return fn()
    except Exception as e:  # noqa: BLE001 - reported as a failed repetition
        return workloads.Rep(0.0, 0.0, 0, {}, [f"raised {type(e).__name__}: {e}"])


def measure(bb, workload, seed: int, seconds: float, trace: bool) -> dict:
    work = WORK / f"{workload.name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    first, probes = workloads.FirstCall(), spans.Patches()
    reps, traced, tracers = [], [], []
    # The first repetition's outputs are the reference every later one must
    # match byte for byte, and the trajectory the parity check compares.
    reference = work / "rep1"
    try:
        inputs = workload.write_inputs(work, seed)
        for owner, attr in workload.probe_targets(bb):
            probes.install(owner, attr, first.wrap)
        deadline = time.perf_counter() + seconds
        speed = workload.host_speed()
        while (len(reps) < MIN_REPS or (trace and len(traced) < MIN_REPS)
               or time.perf_counter() < deadline):
            out = work / f"rep{len(reps) + len(traced) + 1}"
            if trace and len(traced) <= len(reps):
                tracer, patches = spans.Tracer(), spans.Patches()
                workloads.install_tracing(bb, tracer, patches)
                main = tracer.wrap(bb.cli.main, "cli.main")
                try:
                    rep = attempt(lambda: workload.run_rep(bb, inputs, out, first, main))
                finally:
                    patches.restore()
                tracers.append(tracer)
                traced.append(rep)
            else:
                rep = attempt(lambda: workload.run_rep(bb, inputs, out, first))
                reps.append(rep)
            after = workload.host_speed()
            rep.speed, speed = (speed + after) / 2, after
            if out != reference:
                if not rep.problems and rep.hashes != (reps + traced)[0].hashes:
                    rep.problems.append("outputs differ from the first repetition's")
                shutil.rmtree(out, ignore_errors=True)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        try:
            run_problems = workload.run_checks(bb, inputs, work, first, reference)
        except Exception as e:  # noqa: BLE001 - reported as a failed check
            run_problems = [f"parity run raised {type(e).__name__}: {e}"]
        manifest_path = reference / "manifest.json"
        manifest = (json.loads(manifest_path.read_text())
                    if workload.kind == "train" and manifest_path.is_file() else None)
    finally:
        probes.restore()
        shutil.rmtree(work, ignore_errors=True)
    done = reps + traced
    problems = [f"repetition {i}: {p}" for i, rep in enumerate(done, 1)
                for p in rep.problems] + run_problems
    attempted = len(done) + (workload.kind == "train")
    failed = sum(bool(r.problems) for r in done) + bool(run_problems)
    result = {"reps": reps, "traced": traced, "tracers": tracers,
              "eval_acc": done[0].eval_acc, "peak_rss_mb": peak_rss_mb,
              "problems": problems, "attempted": attempted, "failed": failed}
    if trace:
        span_set = workloads.SpanSet(tracers)
        count_problems = workloads.count_checks(workload, span_set, traced, manifest)
        result["problems"] += [f"counts: {p}" for p in count_problems]
        result["attempted"] += 1
        result["failed"] += bool(count_problems)
        rank_iterations = sum(r.iterations for r in traced) * getattr(workload, "world", 0)
        result["layers"] = workloads.layer_metrics(span_set, rank_iterations)
    return result


def rates(reps, at_reference=True) -> list:
    """Items per second of each good repetition, at reference host speed or raw."""
    return [r.items / r.wall_s / (r.speed if at_reference else 1.0)
            for r in reps if r.wall_s > 0 and not r.problems]


def report(workload, seed, seconds, trace, env, res) -> dict:
    """Print the human-readable summary and return the result object."""
    reps = res["reps"]
    item_name = ("analysis_draws_per_s" if workload.kind == "analysis"
                 else "train_samples_per_s")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload {workload.name} seed {seed}: {len(reps)} untraced and "
          f"{len(res['traced'])} traced repetitions "
          f"(closed loop, one harness thread, at least {seconds}s measured)")
    ok = [r for r in reps if not r.problems] or reps
    throughput = rates(reps) or [0.0]
    setups = [r.setup_s * r.speed for r in ok]
    lines = [(f"{item_name} (items_per_s)", "1/s", throughput),
             ("setup_s", "s", setups),
             (f"{item_name}, unscaled", "1/s", rates(reps, at_reference=False) or [0.0]),
             ("setup_s, unscaled", "s", [r.setup_s for r in ok]),
             ("host speed", "x reference", [r.speed for r in ok])]
    for label, unit, values in lines:
        q1, med, q3 = quartiles(values)
        tail = spans.tail_percentile(values)
        tail_text = (f"p{tail[0]:g} {tail[1]:.6g}" if tail
                     else "no tail percentile (fewer than 20 samples)")
        print(f"  {label}: median {med:.6g} {unit}, q1 {q1:.6g}, q3 {q3:.6g}, "
              f"{tail_text}, n={len(values)}")
    print(f"  peak_rss_mb: {res['peak_rss_mb']:.1f} MB")
    if res["eval_acc"] is not None:
        print(f"  final_eval_acc: {res['eval_acc']:.4f} "
              f"(floor {workloads.ACC_FLOOR}, identical in every repetition)")
    fail_ratio = res["failed"] / res["attempted"]
    print(f"  fail_ratio: {fail_ratio:.4g} ({res['failed']} of {res['attempted']})")
    for p in res["problems"]:
        print(f"  FAILED CHECK: {p}")
    if trace:
        untraced, traced = statistics.median(throughput), statistics.median(
            rates(res["traced"]) or [0.0])
        metrics = dict(res["layers"])
        metrics["tracing.items_per_s_delta"] = traced - untraced
        print(f"  tracing overhead: {item_name} {traced:.6g} traced vs "
              f"{untraced:.6g} untraced ({traced - untraced:+.6g} 1/s)")
        for name, value in metrics.items():
            print(f"  {name}: {value:.6g}")
        metrics = {k: {"value": v, "unit": workloads.LAYER_UNITS[k]}
                   for k, v in metrics.items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "items_per_s": {"value": statistics.median(throughput), "unit": "1/s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bb = load_program()
    if bb is None:
        print(f"bench: no bigbatch sources under {SRC}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    env = environment()
    os.sched_setaffinity(0, {PINNED_CPU})
    res = measure(bb, workload, args.seed, args.seconds, bool(args.trace))
    result = report(workload, args.seed, args.seconds, args.trace, env, res)
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (WORK / "results" / f"{stem}.json").write_text(
        json.dumps({"environment": env, **result}, indent=2) + "\n")
    if args.trace:
        (WORK / "traces").mkdir(parents=True, exist_ok=True)
        spans.save(WORK / "traces" / f"{stem}.npz", res["tracers"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
