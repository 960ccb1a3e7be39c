"""Command-line front end.

Subcommands: `train` (one experiment), `verify` (invariant suites),
`variance` (gradient-variance and update-equivalence report),
`ratio-study` (positive/negative sample-ratio table), `lr-preview`
(schedule dump), `gen-data` (materialize a dataset directory).

Config fields declare their rules (`schema`): `train`, `lr-preview` and
`gen-data` on the config dataclasses, `ratio-study` on `SamplerSpec`, `variance` on
`VarianceSpec`. Each command builds its config once, through `schema.load`,
and that construction checks it; `--seed` replaces a training config's
file seed before it, and is `ratio-study`'s only seed.

Exit codes: 0 success, 1 verification failure, 2 invalid configuration,
3 training divergence, 4 run failed (a collective or replica error).
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

from . import __version__
from .analysis import (
    AnalysisError,
    RatioCell,
    SamplerSpec,
    VarianceSpec,
    estimate_grad_variance,
    normal_pair_sampler,
    posneg_ratio_study,
    scalar_linear_grad,
    variance_equivalence_ratio,
)
from .collectives import CollectiveError
from .data import DataError, generate_dataset, save_dataset
from .optim import ScheduleError, lr_at
from .schema import SEED, check, csv_text, integer, json_text, load
from .trainer import (
    ConfigError,
    ExperimentConfig,
    TrainerError,
    build_model,
    read_json_object,
    resolve,
    resolve_dataset,
    run_training,
    write_outputs,
)
from .verify import SUITES, run_suite

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_RUN_FAILED = 4


@dataclass
class LRPoint:  # a row of lr_preview.csv
    iter: int
    lr: float


# the report commands' defaults; ratio-study's seed is the --seed flag
VARIANCE_DEFAULTS = {"batch_sizes": [1, 2, 4, 8, 16], "trials": 1000, "ks": [1, 2, 4],
                     "rate": 0.02, "small_batch": 8}
RATIO_DEFAULTS = {
    "pos_counts": [[0, 0.25], [1, 0.35], [3, 0.25], [12, 0.12], [40, 0.03]],
    "neg_counts": [[96, 0.5], [128, 0.5]], "batch_sizes": [16, 32, 64, 128, 256],
    "epochs": 4, "batches_per_cell": 400, "drift_early_scale": 0.3,
    "drift_late_scale": 1.0, "drift_rate": 0.6, "drift_batch_exponent": 0.5}

# lr-preview builds its CSV in memory, about 100 bytes a row: 2**20 rows is ~100 MiB
MAX_PREVIEW_ROWS = 2**20
PREVIEW_ROWS = integer(le=MAX_PREVIEW_ROWS)  # epochs * iters_per_epoch, one row per iteration


def _out_dir(path) -> Path:
    """An output directory path, which must not name or lie under an existing file."""
    out = Path(path)
    for p in (out, *out.parents):
        if p.exists():
            if not p.is_dir():
                raise ConfigError(f"output directory {path} is an existing file" if p == out
                                  else f"output directory {path} is under {p}, an existing file")
            break
    return out


def _emit(out, texts: dict) -> None:
    """Write each {file name: text} of `texts` under `out`; with no `out`, print the first."""
    if not out:
        print(next(iter(texts.values())), end="")
        return
    out.mkdir(parents=True, exist_ok=True)
    for name, text in texts.items():
        (out / name).write_text(text)
    print("wrote " + " and ".join(str(out / name) for name in texts))


def _experiment_config(args) -> ExperimentConfig:
    if args.config is None:
        raise ConfigError("this subcommand requires --config")
    raw = read_json_object(args.config)
    # --seed replaces a file seed its rule takes; a bad one is reported with the rest
    if args.seed is not None and SEED(raw.get("seed", args.seed), "seed") is None:
        raw = {**raw, "seed": args.seed}
    return ExperimentConfig.from_dict(raw)


def cmd_train(args) -> int:
    cfg = _experiment_config(args)
    out_dir = args.out or cfg.out_dir
    if out_dir is None:
        raise ConfigError("train needs an output directory (--out or config out_dir)")
    _out_dir(out_dir)
    result = run_training(cfg)
    write_outputs(result, out_dir)
    resolved = result.manifest["resolved"]
    print(f"status: {result.status}")
    print(f"warmup_iters: {resolved['warmup_iters']}")
    if resolved["dropped_per_epoch"]:
        print(f"dropped per epoch: {resolved['dropped_per_epoch']} samples "
              "(dataset not divisible by total batch)")
    if result.eval_history:
        epoch, acc = result.eval_history[-1]
        print(f"final eval accuracy (epoch {epoch}): {acc:.4f}")
    if result.diverged_at:
        print(f"diverged at: {result.diverged_at}")
    print(f"measured wall time: {result.measured_wall_s:.2f}s "
          "(wall_ms column is the idealized cost model)")
    print(f"outputs in: {out_dir}")
    return EXIT_DIVERGED if result.status == "diverged" else EXIT_OK


def cmd_verify(args) -> int:
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    failed = 0
    for name in names:
        for check in run_suite(name, seed=args.seed):
            print(check.line())
            failed += 0 if check.passed else 1
    print(f"{'OK' if failed == 0 else 'FAILED'}: "
          f"{failed} failing check(s) across {len(names)} suite(s)")
    return EXIT_OK if failed == 0 else EXIT_CHECK_FAILED


def cmd_variance(args) -> int:
    raw = {} if args.config is None else read_json_object(args.config)
    cfg = {**VARIANCE_DEFAULTS, **raw}
    spec = load(VarianceSpec, cfg, AnalysisError)
    out = args.out and _out_dir(args.out)
    seed = args.seed if args.seed is not None else 0
    law = []
    for n in spec.batch_sizes:
        rep = estimate_grad_variance(scalar_linear_grad, normal_pair_sampler,
                                     n, spec.trials, seed)
        law.append({**asdict(rep), "n_times_aggregate": n * rep.aggregate})
    ratios = []
    for k in spec.ks:
        for scaled in (True, False):
            rep = variance_equivalence_ratio(
                scalar_linear_grad, normal_pair_sampler, spec.small_batch, k,
                spec.rate, spec.trials, seed + k, scaled=scaled)
            ratios.append(asdict(rep))
    report = {
        "seed": seed,
        "config": cfg,
        "variance_law": law,
        "equivalence_ratios": ratios,
    }
    _emit(out, {"variance.json": json_text(report)})
    return EXIT_OK


def cmd_ratio_study(args) -> int:
    raw = {} if args.config is None else read_json_object(args.config)
    cfg = {**RATIO_DEFAULTS, **raw}
    seed = args.seed if args.seed is not None else 0
    spec = load(SamplerSpec, cfg, AnalysisError, seed=seed)  # a file seed is unknown
    out = args.out and _out_dir(args.out)
    cells = posneg_ratio_study(spec)
    report = {"seed": seed, "config": cfg, "cells": [asdict(c) for c in cells]}
    _emit(out, {"ratio_study.csv": csv_text(RatioCell, cells),
                "ratio_study.json": json_text(report)})
    return EXIT_OK


def cmd_lr_preview(args) -> int:
    cfg = _experiment_config(args)
    # the sizes come from the spec: generating the data to count it is waste
    spec = cfg.dataset_spec or resolve_dataset(cfg).spec
    res = resolve(cfg, spec)
    build_model(cfg, spec.classes, (1, spec.height, spec.width))  # rejects what train would
    n = res.iters_per_epoch
    check(ConfigError, (PREVIEW_ROWS, res.epochs * n, "epochs * iters_per_epoch"))
    text = csv_text(LRPoint, (LRPoint(epoch * n + it, lr_at(res.policy, epoch, it, n))
                              for epoch in range(res.epochs) for it in range(n)))
    if args.out:
        path = Path(args.out)
        if path.suffix != ".csv":
            path = path / "lr_preview.csv"
        if path.is_dir():
            raise ConfigError(f"output file {path} is an existing directory")
        _emit(_out_dir(path.parent), {path.name: text})
    else:
        print(text, end="")
    return EXIT_OK


def cmd_gen_data(args) -> int:
    cfg = _experiment_config(args)
    spec = cfg.dataset_spec
    if spec is None:
        raise ConfigError("gen-data needs a generator spec, not a dataset dir")
    if args.out is None:
        raise ConfigError("gen-data requires --out")
    _out_dir(args.out)
    build_model(cfg, spec.classes, (1, spec.height, spec.width))  # rejects what train would
    ds = generate_dataset(spec, cfg.seed)
    meta = save_dataset(ds, args.out)
    print(f"wrote dataset ({ds.spec.size} train / {ds.eval_images.shape[0]} eval "
          f"samples) to {args.out}")
    print(f"content hash: {meta['content_hash']}")
    return EXIT_OK


@functools.cache  # built on the first command, reused by every later one
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bigbatch",
        description="Simulated multi-device large-batch training laboratory.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", help="output directory")

    common(sub.add_parser("train", help="run one training experiment"))
    v = sub.add_parser("verify", help="run an invariant suite")
    v.add_argument("suite", choices=[*sorted(SUITES), "all"])
    v.add_argument("--seed", type=int, default=0)
    common(sub.add_parser("variance", help="gradient-variance report"))
    common(sub.add_parser("ratio-study", help="positive/negative ratio table"))
    common(sub.add_parser("lr-preview", help="dump the LR schedule"))
    common(sub.add_parser("gen-data", help="materialize a synthetic dataset"))
    return parser


COMMANDS = {
    "train": cmd_train,
    "verify": cmd_verify,
    "variance": cmd_variance,
    "ratio-study": cmd_ratio_study,
    "lr-preview": cmd_lr_preview,
    "gen-data": cmd_gen_data,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.seed is not None:
            check(ConfigError, (SEED, args.seed, "seed"))
        return COMMANDS[args.command](args)
    except (ConfigError, DataError, AnalysisError, ScheduleError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except (CollectiveError, TrainerError) as e:
        print(f"run failed: {e}", file=sys.stderr)
        return EXIT_RUN_FAILED

