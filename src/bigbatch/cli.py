"""Command-line front end.

Subcommands: `train` (one experiment), `verify` (invariant suites),
`variance` (gradient-variance and update-equivalence report),
`ratio-study` (positive/negative sample-ratio table), `lr-preview`
(schedule dump), `gen-data` (materialize a dataset directory).

Exit codes: 0 success, 1 verification failure, 2 invalid configuration,
3 training divergence.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .analysis import (
    AnalysisError,
    SamplerSpec,
    estimate_grad_variance,
    normal_pair_sampler,
    posneg_ratio_study,
    scalar_linear_grad,
    variance_equivalence_ratio,
)
from .data import DataError, DatasetSpec, generate_dataset, save_dataset
from .optim import DivergenceError, ScheduleError, lr_at
from .trainer import (
    ConfigError,
    ExperimentConfig,
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

RATIO_CSV_HEADER = ("epoch,batch_size,mean_ratio_pct,std_ratio_pct,"
                    "mean_pos_frac_pct,std_pos_frac_pct,zero_positive_batches")

VARIANCE_DEFAULTS = {
    "batch_sizes": [1, 2, 4, 8, 16],
    "trials": 1000,
    "ks": [1, 2, 4],
    "rate": 0.02,
    "small_batch": 8,
}

RATIO_DEFAULTS = {
    "pos_counts": [[0, 0.25], [1, 0.35], [3, 0.25], [12, 0.12], [40, 0.03]],
    "neg_counts": [[96, 0.5], [128, 0.5]],
    "batch_sizes": [16, 32, 64, 128, 256],
    "epochs": 4,
    "batches_per_cell": 400,
    "drift_early_scale": 0.3,
    "drift_late_scale": 1.0,
    "drift_rate": 0.6,
    "drift_batch_exponent": 0.5,
}


def _type_problem(value, default, name: str) -> str | None:
    """Why `value` does not have the JSON type of `default`, or None.

    Scalar defaults are integers or numbers (an integer passes for a number,
    a boolean for neither). Arrays are checked entry by entry: against the
    default's first entry when its entries share one type, else position by
    position, as in a `[count, probability]` pair.
    """
    if isinstance(default, list):
        if not isinstance(value, list):
            return f"{name} must be an array, got {value!r}"
        if len({type(d) for d in default}) == 1:
            templates = [default[0]] * len(value)
        elif len(value) != len(default):
            return f"{name} must have {len(default)} entries, got {value!r}"
        else:
            templates = default
        for i, (v, d) in enumerate(zip(value, templates)):
            problem = _type_problem(v, d, f"{name}[{i}]")
            if problem:
                return problem
        return None
    what, types = ("a number", (int, float)) if isinstance(default, float) else ("an integer", int)
    if isinstance(value, bool) or not isinstance(value, types):
        return f"{name} must be {what}, got {value!r}"
    return None


def _load_json_config(path, defaults: dict) -> dict:
    merged = dict(defaults)
    if path is not None:
        raw = read_json_object(path)
        unknown = sorted(set(raw) - set(defaults))
        if unknown:
            raise ConfigError(f"unknown fields {unknown}; expected {sorted(defaults)}")
        problems = [p for k in sorted(raw) if (p := _type_problem(raw[k], defaults[k], k))]
        if problems:
            raise ConfigError("; ".join(problems))
        merged.update(raw)
    return merged


def _experiment_config(args) -> ExperimentConfig:
    if args.config is None:
        raise ConfigError("this subcommand requires --config")
    cfg = ExperimentConfig.from_json(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
        cfg.validate()
    return cfg


def cmd_train(args) -> int:
    cfg = _experiment_config(args)
    out_dir = args.out or cfg.out_dir
    if out_dir is None:
        raise ConfigError("train needs an output directory (--out or config out_dir)")
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
        for check in run_suite(name, seed=args.seed or 0):
            print(check.line())
            failed += 0 if check.passed else 1
    print(f"{'OK' if failed == 0 else 'FAILED'}: "
          f"{failed} failing check(s) across {len(names)} suite(s)")
    return EXIT_OK if failed == 0 else EXIT_CHECK_FAILED


def cmd_variance(args) -> int:
    cfg = _load_json_config(args.config, VARIANCE_DEFAULTS)
    for name in ("batch_sizes", "ks"):
        if not cfg[name]:
            raise ConfigError(f"{name} must not be empty")
    seed = args.seed if args.seed is not None else 0
    law = []
    for n in cfg["batch_sizes"]:
        rep = estimate_grad_variance(scalar_linear_grad, normal_pair_sampler,
                                     n, cfg["trials"], seed)
        entry = rep.as_dict()
        entry["n_times_aggregate"] = n * rep.aggregate
        law.append(entry)
    ratios = []
    for k in cfg["ks"]:
        for scaled in (True, False):
            rep = variance_equivalence_ratio(
                scalar_linear_grad, normal_pair_sampler, cfg["small_batch"], k,
                cfg["rate"], cfg["trials"], seed + k, scaled=scaled)
            ratios.append(rep.as_dict())
    report = {
        "seed": seed,
        "config": cfg,
        "variance_law": law,
        "equivalence_ratios": ratios,
    }
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        (Path(args.out) / "variance.json").write_text(text + "\n")
        print(f"wrote {Path(args.out) / 'variance.json'}")
    else:
        print(text)
    return EXIT_OK


def cmd_ratio_study(args) -> int:
    cfg = _load_json_config(args.config, RATIO_DEFAULTS)
    seed = args.seed if args.seed is not None else 0
    spec = SamplerSpec(
        pos_counts=tuple((v, p) for v, p in cfg["pos_counts"]),
        neg_counts=tuple((v, p) for v, p in cfg["neg_counts"]),
        batch_sizes=tuple(cfg["batch_sizes"]),
        epochs=cfg["epochs"],
        batches_per_cell=cfg["batches_per_cell"],
        seed=seed,
        drift_early_scale=cfg["drift_early_scale"],
        drift_late_scale=cfg["drift_late_scale"],
        drift_rate=cfg["drift_rate"],
        drift_batch_exponent=cfg["drift_batch_exponent"],
    )
    cells = posneg_ratio_study(spec)
    lines = [RATIO_CSV_HEADER]
    for c in cells:
        lines.append(f"{c.epoch},{c.batch_size},{c.mean_ratio_pct!r},"
                     f"{c.std_ratio_pct!r},{c.mean_pos_frac_pct!r},"
                     f"{c.std_pos_frac_pct!r},{c.zero_positive_batches}")
    csv_text = "\n".join(lines) + "\n"
    report = {"seed": seed, "config": cfg, "cells": [c.as_dict() for c in cells]}
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "ratio_study.csv").write_text(csv_text)
        (out / "ratio_study.json").write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"wrote {out / 'ratio_study.csv'} and {out / 'ratio_study.json'}")
    else:
        print(csv_text, end="")
    return EXIT_OK


def cmd_lr_preview(args) -> int:
    cfg = _experiment_config(args)
    dataset = resolve_dataset(cfg)
    res = resolve(cfg, dataset)
    lines = ["iter,lr"]
    for epoch in range(res.epochs):
        for it in range(res.iters_per_epoch):
            g = epoch * res.iters_per_epoch + it
            lines.append(f"{g},{lr_at(res.policy, epoch, it, res.iters_per_epoch)!r}")
    text = "\n".join(lines) + "\n"
    if args.out:
        path = Path(args.out)
        if path.suffix != ".csv":
            path.mkdir(parents=True, exist_ok=True)
            path = path / "lr_preview.csv"
        path.write_text(text)
        print(f"wrote {path}")
    else:
        print(text, end="")
    return EXIT_OK


def cmd_gen_data(args) -> int:
    cfg = _experiment_config(args)
    if "dir" in cfg.dataset:
        raise ConfigError("gen-data needs a generator spec, not a dataset dir")
    if args.out is None:
        raise ConfigError("gen-data requires --out")
    ds = generate_dataset(DatasetSpec(**cfg.dataset), cfg.seed)
    meta = save_dataset(ds, args.out)
    print(f"wrote dataset ({ds.spec.size} train / {ds.eval_images.shape[0]} eval "
          f"samples) to {args.out}")
    print(f"content hash: {meta['content_hash']}")
    return EXIT_OK


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
    v.add_argument("suite", choices=sorted(SUITES) + ["all"])
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
        return COMMANDS[args.command](args)
    except (ConfigError, DataError, AnalysisError, ScheduleError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except DivergenceError as e:
        print(f"diverged: {e}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())
