"""Exercises every subcommand in process through main(argv).

File outputs land in tmp_path; stdout/stderr are checked through capsys so
the printed contract (status lines, CSV headers, exit codes) is pinned.
"""

import argparse
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bigbatch
from bigbatch.analysis import (
    MAX_DRAW_SAMPLES,
    MAX_TRIAL_DRAWS,
    MAX_TRIALS,
    TRIAL_DRAWS,
    AnalysisError,
    RatioCell,
    SamplerSpec,
    VarianceSpec,
    estimate_grad_variance,
    scalar_linear_grad,
    variance_equivalence_ratio,
)
from bigbatch.batchnorm import sync_bn_backward
from bigbatch.data import DatasetSpec, generate_dataset, save_dataset
from bigbatch.cli import (
    EXIT_BAD_CONFIG,
    EXIT_CHECK_FAILED,
    EXIT_DIVERGED,
    EXIT_OK,
    EXIT_RUN_FAILED,
    MAX_PREVIEW_ROWS,
    PREVIEW_ROWS,
    VARIANCE_DEFAULTS,
    build_parser,
    main,
)
from bigbatch.collectives import CollectiveProtocolError, DeviceGroup
from bigbatch.trainer import ExperimentConfig, TrainerError
from bigbatch.optim import lr_at, make_policy
from bigbatch.schema import csv_header
from bigbatch.trainer import MetricsRow
from bigbatch.verify import (FD_TOL, SUITES, CheckResult, _random_case, run_suite,
                             sync_bn_fd_max_err)

from helpers import WIDTH_ONE_CONV
from test_mutants import col2im_without_edge_zeroing


def write_config(tmp_path, name="cfg.json", **fields):
    p = tmp_path / name
    p.write_text(json.dumps(fields))
    return str(p)


def train_config(tmp_path, **overrides):
    fields = dict(
        world_size=1,
        per_device_batch=8,
        base_lr=0.1,
        warmup_iters=0,
        epochs=2,
        dataset={"size": 64, "classes": 4},
        seed=0,
    )
    fields.update(overrides)
    return write_config(tmp_path, **fields)


DIVERGENT = dict(
    world_size=1, per_device_batch=8, base_lr=2000.0, warmup_iters=0,
    momentum=0.0, epochs=3,
    model=[{"kind": "global_mean_pool"}, {"kind": "dense", "out_features": None}],
    dataset={"size": 128, "classes": 4, "height": 4, "width": 4}, seed=0,
)


class TestExitCodes:
    def test_values_are_pinned(self):
        assert (EXIT_OK, EXIT_CHECK_FAILED, EXIT_BAD_CONFIG, EXIT_DIVERGED) == (0, 1, 2, 3)

    def test_missing_subcommand_is_a_usage_error(self):
        with pytest.raises(SystemExit):
            main([])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["--version"])
        assert e.value.code == 0


class TestTrain:
    def test_happy_path_writes_the_run_directory(self, tmp_path, capsys):
        cfg = train_config(tmp_path)
        out = tmp_path / "run"
        assert main(["train", "--config", cfg, "--out", str(out)]) == EXIT_OK
        stdout = capsys.readouterr().out
        assert "status: ok" in stdout
        assert f"outputs in: {out}" in stdout
        assert (out / "metrics.csv").read_text().splitlines()[0] == csv_header(MetricsRow)
        assert (out / "manifest.json").exists()
        assert (out / "checkpoint.npz").exists()

    def test_requires_config(self, capsys):
        assert main(["train", "--out", "/tmp/x"]) == EXIT_BAD_CONFIG
        assert "requires --config" in capsys.readouterr().err

    def test_requires_an_output_directory(self, tmp_path, capsys):
        cfg = train_config(tmp_path)
        assert main(["train", "--config", cfg]) == EXIT_BAD_CONFIG
        assert "output directory" in capsys.readouterr().err

    def test_out_dir_can_come_from_the_config(self, tmp_path, capsys):
        out = tmp_path / "from_cfg"
        cfg = train_config(tmp_path, out_dir=str(out))
        assert main(["train", "--config", cfg]) == EXIT_OK
        assert (out / "metrics.csv").exists()

    def test_missing_config_file(self, capsys):
        assert main(["train", "--config", "/no/such.json", "--out", "/tmp/x"]) == EXIT_BAD_CONFIG
        assert "not found" in capsys.readouterr().err

    def test_invalid_config_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path, learning_rate=0.1)
        assert main(["train", "--config", cfg, "--out", str(tmp_path)]) == EXIT_BAD_CONFIG
        assert "unknown fields ['learning_rate']" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", [-1, 1.5, "0", True])
    def test_invalid_seed(self, tmp_path, capsys, seed):
        cfg = train_config(tmp_path, seed=seed)
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "r")]) == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "seed must be a non-negative integer" in err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("field,value", [
        ("world_size", "8"), ("world_size", 2.5), ("base_lr", "0.1"),
        ("per_device_batch", True), ("per_device_batch", None), ("epochs", 1.5),
        ("one_pass_bn", "false"),
    ])
    def test_wrong_typed_field(self, tmp_path, capsys, field, value):
        cfg = train_config(tmp_path, **{field: value})
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "r")]) == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"config error: {field} must be ")
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("command", ["train", "lr-preview", "gen-data"])
    @pytest.mark.parametrize("field,value", [("eps", 0), ("running_momentum", 1.5)])
    def test_bad_bn_layer(self, tmp_path, capsys, command, field, value):
        # lr-preview and gen-data used to exit 0 on what train rejects
        model = [{"kind": "conv3x3", "out_channels": 2}, {"kind": "bn", field: value},
                 {"kind": "global_mean_pool"}, {"kind": "dense", "out_features": None}]
        cfg = train_config(tmp_path, model=model)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "r")]) == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"config error: model[1].{field} must be ")
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("command", ["train", "lr-preview", "gen-data"])
    def test_conv_without_out_channels(self, tmp_path, capsys, command):
        model = [{"kind": "conv3x3"}, {"kind": "global_mean_pool"},
                 {"kind": "dense", "out_features": None}]
        cfg = train_config(tmp_path, model=model)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "r")]) == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "conv3x3 layer needs out_channels" in err
        assert not (tmp_path / "r").exists()

    POOLED_BN = [{"kind": "global_mean_pool"}, {"kind": "bn"},
                 {"kind": "dense", "out_features": None}]

    def test_bn_too_small_to_normalize(self, tmp_path, capsys):
        cfg = train_config(tmp_path, per_device_batch=1, model=self.POOLED_BN)
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "r")]) == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("config error: model layer 01_bn: ")
        assert "1 element per channel, needs at least 2" in err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("command", ["train", "lr-preview", "gen-data"])
    def test_patch_matrix_over_the_cap(self, tmp_path, capsys, monkeypatch, command):
        # 228 8x8 images into a 256-wide conv make a 269 MB patch matrix; building
        # one would raise here, so the exit shows the rule ran before any did
        def no_patches(*args):
            raise MemoryError("a patch matrix was built")
        monkeypatch.setattr(bigbatch.model, "_im2col", no_patches)
        model = [{"kind": "conv3x3", "out_channels": 256}, {"kind": "conv3x3", "out_channels": 2},
                 {"kind": "global_mean_pool"}, {"kind": "dense", "out_features": None}]
        cfg = train_config(tmp_path, per_device_batch=228, model=model,
                           dataset={"size": 256, "classes": 4})
        assert main([command, "--config", cfg, "--out", str(tmp_path / "r")]) == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(
            "config error: model layer 01_conv3x3: per_device_batch 228 makes a ")
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("command", ["train", "lr-preview", "gen-data"])
    def test_world_patch_matrices_over_the_cap(self, tmp_path, capsys, monkeypatch, command):
        # 8 ranks of 114 8x8 images into a 256-wide conv: each rank's 134 MB
        # patch matrix is under the per-rank cap, the world's 1.08 GB over its own
        def no_patches(*args):
            raise MemoryError("a patch matrix was built")
        monkeypatch.setattr(bigbatch.model, "_im2col", no_patches)
        model = [{"kind": "conv3x3", "out_channels": 256}, {"kind": "conv3x3", "out_channels": 2},
                 {"kind": "global_mean_pool"}, {"kind": "dense", "out_features": None}]
        cfg = train_config(tmp_path, world_size=8, per_device_batch=114, model=model,
                           dataset={"size": 1024, "classes": 4})
        assert main([command, "--config", cfg, "--out", str(tmp_path / "r")]) == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(
            "config error: model layer 01_conv3x3: world_size 8 ranks at per_device_batch 114 ")
        assert not (tmp_path / "r").exists()

    def test_bn_with_two_elements_per_channel_trains(self, tmp_path, capsys):
        cfg = train_config(tmp_path, per_device_batch=2, epochs=1, model=self.POOLED_BN)
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "r")]) == EXIT_OK

    def test_negative_seed_flag(self, tmp_path, capsys):
        cfg = train_config(tmp_path)
        out = str(tmp_path / "r")
        assert main(["train", "--config", cfg, "--seed", "-1", "--out", out]) == EXIT_BAD_CONFIG
        assert "seed must be a non-negative integer, got -1" in capsys.readouterr().err

    def test_same_invocation_same_bytes(self, tmp_path, capsys):
        cfg = train_config(tmp_path)
        main(["train", "--config", cfg, "--out", str(tmp_path / "a")])
        main(["train", "--config", cfg, "--out", str(tmp_path / "b")])
        for name in ("metrics.csv", "manifest.json", "checkpoint.npz"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes()), name

    def test_seed_flag_overrides_the_config(self, tmp_path, capsys):
        cfg = train_config(tmp_path)
        main(["train", "--config", cfg, "--out", str(tmp_path / "a")])
        main(["train", "--config", cfg, "--seed", "7", "--out", str(tmp_path / "b")])
        assert ((tmp_path / "a" / "metrics.csv").read_bytes()
                != (tmp_path / "b" / "metrics.csv").read_bytes())
        manifest = json.loads((tmp_path / "b" / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 7

    def test_ragged_dataset_is_reported(self, tmp_path, capsys):
        cfg = train_config(tmp_path, world_size=2,
                           dataset={"size": 100, "classes": 4})
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "r")]) == EXIT_OK
        assert "dropped per epoch: 4 samples" in capsys.readouterr().out

    def test_divergence_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, **DIVERGENT)
        out = tmp_path / "boom"
        assert main(["train", "--config", cfg, "--out", str(out)]) == EXIT_DIVERGED
        stdout = capsys.readouterr().out
        assert "status: diverged" in stdout
        assert "diverged at: epoch 0 iter 2" in stdout
        # the manifest still records what happened
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "diverged"

    def test_diverged_run_removes_an_earlier_checkpoint(self, tmp_path, capsys):
        out = str(tmp_path / "r")
        assert main(["train", "--config", train_config(tmp_path), "--out", out]) == EXIT_OK
        assert (tmp_path / "r" / "checkpoint.npz").exists()
        cfg = train_config(tmp_path, base_lr=1e300, warmup_iters=0)
        assert main(["train", "--config", cfg, "--out", out]) == EXIT_DIVERGED
        manifest = json.loads((tmp_path / "r" / "manifest.json").read_text())
        assert manifest["status"] == "diverged"
        assert not (tmp_path / "r" / "checkpoint.npz").exists()


class TestVerify:
    def test_single_suite_passes(self, capsys):
        assert main(["verify", "schedule"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "[PASS] schedule.base_case" in out
        assert out.strip().endswith("0 failing check(s) across 1 suite(s)")

    def test_all_suites_pass(self, capsys):
        assert main(["verify", "all"]) == EXIT_OK
        out = capsys.readouterr().out
        for name in ("bn.concat_equivalence", "grad.sync_bn_fd",
                     "collectives.rank_symmetry", "schedule.normal_breakpoints"):
            assert f"[PASS] {name}" in out
        assert "FAIL]" not in out

    def test_random_bn_case_normalizes_two_elements_at_least(self):
        # seed 1486 draws one shard of one 1x1 image; the case adds an image to it
        g, c, xs, gamma, beta = _random_case(np.random.default_rng(1486))
        assert g == 1 and [x.shape for x in xs] == [(2, c, 1, 1)]

    def test_unknown_suite_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "nope"])
        assert run_suite.__name__  # and the API mirrors the rejection:
        with pytest.raises(ValueError, match="unknown suite"):
            run_suite("nope")

    def test_the_parser_is_built_once(self, capsys, monkeypatch):
        # rebuilding it took 1.4 ms a command
        parser = build_parser()

        def no_parser(*args, **kwargs):
            raise AssertionError("built another parser")
        monkeypatch.setattr(argparse, "ArgumentParser", no_parser)
        assert main(["verify", "schedule"]) == EXIT_OK
        assert "[PASS] schedule.base_case" in capsys.readouterr().out
        assert build_parser() is parser

    def test_failing_check_yields_exit_one(self, capsys, monkeypatch):
        monkeypatch.setitem(
            SUITES, "schedule",
            lambda seed=0: [CheckResult("doomed.check", False, "injected")])
        assert main(["verify", "schedule"]) == EXIT_CHECK_FAILED
        out = capsys.readouterr().out
        assert "[FAIL] doomed.check  (injected)" in out
        assert "FAILED: 1 failing" in out

    def test_grad_suite_catches_an_eps_mismatch(self, monkeypatch):
        # the FD check has teeth: a backward pass run with the wrong
        # variance epsilon must fail it, the matching one pass
        args = (2, (3, 2), 3, (2, 2), 0)
        assert sync_bn_fd_max_err(*args) <= FD_TOL

        def wrong_eps(handle, dy, cache, state):
            return sync_bn_backward(handle, dy, cache, dataclasses.replace(state, eps=3e-3))
        monkeypatch.setattr("bigbatch.verify.sync_bn_backward", wrong_eps)
        assert sync_bn_fd_max_err(*args) > FD_TOL

    def test_grad_suite_catches_a_col2im_without_edge_zeroing(self, capsys, monkeypatch):
        # the model FD check's second conv forms an input gradient, so a
        # scatter that adds the taps crossing an image edge must fail it
        monkeypatch.setattr("bigbatch.model._col2im", col2im_without_edge_zeroing)
        assert main(["verify", "grad"]) == EXIT_CHECK_FAILED
        assert "[FAIL] grad.model_fd" in capsys.readouterr().out

    def test_check_line_format(self):
        assert CheckResult("a.b", True).line() == "[PASS] a.b"
        assert CheckResult("a.b", False, "why").line() == "[FAIL] a.b  (why)"


class TestVariance:
    FAST = dict(batch_sizes=[1, 4], trials=120, ks=[2], rate=0.02, small_batch=4)

    def test_report_with_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path, **self.FAST)
        assert main(["variance", "--config", cfg, "--seed", "5"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["seed"] == 5
        assert [e["batch_size"] for e in report["variance_law"]] == [1, 4]
        for entry in report["variance_law"]:
            assert entry["n_times_aggregate"] == entry["batch_size"] * entry["aggregate"]
        kinds = {(e["k"], e["scaled"]) for e in report["equivalence_ratios"]}
        assert kinds == {(2, True), (2, False)}

    def test_out_writes_json_file(self, tmp_path, capsys):
        cfg = write_config(tmp_path, **self.FAST)
        out = tmp_path / "rep"
        assert main(["variance", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert "wrote" in capsys.readouterr().out
        report = json.loads((out / "variance.json").read_text())
        assert report["config"]["trials"] == 120

    def test_unknown_field_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, batch_size=[1])
        assert main(["variance", "--config", cfg]) == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert "unknown fields" in err and "batch_size" in err

    def test_integer_passes_for_a_number_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path, **{**self.FAST, "rate": 1})
        assert main(["variance", "--config", cfg]) == EXIT_OK

    @pytest.mark.parametrize("field", ["batch_sizes", "ks"])
    def test_empty_list_rejected(self, tmp_path, capsys, field):
        cfg = write_config(tmp_path, **{**self.FAST, field: []})
        out = tmp_path / "rep"
        assert main(["variance", "--config", cfg, "--out", str(out)]) == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert err == f"config error: {field} must not be empty\n"
        assert not out.exists()


@pytest.mark.parametrize("command,field,value", [
    ("variance", "trials", "x"), ("variance", "trials", True),
    ("variance", "rate", "0.1"), ("variance", "ks", 3),
    ("variance", "batch_sizes", ["a"]), ("variance", "batch_sizes", [2.5]),
    ("ratio-study", "epochs", "2"), ("ratio-study", "drift_rate", None),
    ("ratio-study", "batch_sizes", [16.0]), ("ratio-study", "pos_counts", [1, 2]),
    ("ratio-study", "pos_counts", [[1, "a"]]), ("ratio-study", "neg_counts", [[32, 0.5, 1]]),
])
def test_report_config_wrong_typed_field(tmp_path, capsys, command, field, value):
    cfg = write_config(tmp_path, **{field: value})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "r")]) == EXIT_BAD_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"config error: {field}")
    assert " must " in err and not (tmp_path / "r").exists()


class TestRatioStudy:
    # point-mass counts with drift off: every batch draws exactly 2
    # positives and 32 negatives, so the table is fully predictable (the
    # dyadic ratio keeps even the spread exactly zero)
    FIXED = dict(pos_counts=[[2, 1.0]], neg_counts=[[32, 1.0]],
                 batch_sizes=[8, 16], epochs=2, batches_per_cell=30,
                 drift_early_scale=1.0, drift_late_scale=1.0, drift_rate=0.0,
                 drift_batch_exponent=0.5)

    def test_header_is_pinned(self):
        assert csv_header(RatioCell) == ("epoch,batch_size,mean_ratio_pct,std_ratio_pct,"
                                         "mean_pos_frac_pct,std_pos_frac_pct,"
                                         "zero_positive_batches")

    def test_stdout_table(self, tmp_path, capsys):
        cfg = write_config(tmp_path, **self.FIXED)
        assert main(["ratio-study", "--config", cfg]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == csv_header(RatioCell)
        assert len(lines) == 1 + 2 * 2  # epochs x batch sizes
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "8"
        assert float(first[2]) == 100 * 2 / 32
        assert float(first[3]) == 0.0  # deterministic counts, zero spread

    def test_out_writes_csv_and_json(self, tmp_path, capsys):
        cfg = write_config(tmp_path, **self.FIXED)
        out = tmp_path / "study"
        assert main(["ratio-study", "--config", cfg, "--out", str(out)]) == EXIT_OK
        csv = (out / "ratio_study.csv").read_text().splitlines()
        assert csv[0] == csv_header(RatioCell)
        report = json.loads((out / "ratio_study.json").read_text())
        assert len(report["cells"]) == 4
        assert report["cells"][0]["zero_positive_batches"] == 0

    def test_seed_changes_sampled_tables(self, tmp_path, capsys):
        cfg = write_config(tmp_path, pos_counts=[[0, 0.5], [4, 0.5]],
                           neg_counts=[[30, 1.0]], batch_sizes=[8],
                           epochs=1, batches_per_cell=40,
                           drift_early_scale=1.0, drift_late_scale=1.0,
                           drift_rate=0.0, drift_batch_exponent=0.5)
        main(["ratio-study", "--config", cfg, "--seed", "0"])
        a = capsys.readouterr().out
        main(["ratio-study", "--config", cfg, "--seed", "1"])
        b = capsys.readouterr().out
        main(["ratio-study", "--config", cfg, "--seed", "0"])
        again = capsys.readouterr().out
        assert a != b
        assert a == again


class TestLrPreview:
    def test_schedule_dump_matches_the_policy(self, tmp_path, capsys):
        # total batch 256 = 16x the base: the ramp ends at 0.32 exactly
        cfg = train_config(tmp_path, world_size=16, per_device_batch=16,
                           base_lr=0.02, warmup_iters=4, epochs=6,
                           dataset={"size": 256, "classes": 4})
        assert main(["lr-preview", "--config", cfg]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "iter,lr"
        assert len(lines) == 1 + 6  # one iteration per epoch at this size
        assert lines[1] == "0,0.02"
        assert lines[5].split(",") == ["4", "0.32"]
        policy = make_policy("normal", actual_batch=256, warmup_iters=4)
        for line in lines[1:]:
            g, lr = line.split(",")
            assert float(lr) == lr_at(policy, int(g), 0, 1)

    def test_out_directory_gets_a_named_file(self, tmp_path, capsys):
        cfg = train_config(tmp_path)
        out = tmp_path / "sched"
        assert main(["lr-preview", "--config", cfg, "--out", str(out)]) == EXIT_OK
        text = (out / "lr_preview.csv").read_text()
        assert text.splitlines()[0] == "iter,lr"

    def test_out_csv_path_is_used_verbatim(self, tmp_path, capsys):
        cfg = train_config(tmp_path)
        target = tmp_path / "my_schedule.csv"
        assert main(["lr-preview", "--config", cfg, "--out", str(target)]) == EXIT_OK
        assert target.exists()

    def test_out_csv_path_gets_its_parent_created(self, tmp_path, capsys):
        # used to exit 1 with a FileNotFoundError traceback
        cfg = train_config(tmp_path)
        target = tmp_path / "new" / "deeper" / "schedule.csv"
        assert main(["lr-preview", "--config", cfg, "--out", str(target)]) == EXIT_OK
        assert target.read_text().splitlines()[0] == "iter,lr"
        assert capsys.readouterr().out == f"wrote {target}\n"

    def test_out_csv_path_naming_a_directory(self, tmp_path, capsys):
        # used to exit 1 with an IsADirectoryError traceback
        cfg = train_config(tmp_path)
        target = tmp_path / "d.csv"
        target.mkdir()
        assert main(["lr-preview", "--config", cfg, "--out", str(target)]) == EXIT_BAD_CONFIG
        assert capsys.readouterr().err == (
            f"config error: output file {target} is an existing directory\n")
        assert list(target.iterdir()) == []

    def test_generator_spec_is_not_generated(self, tmp_path, capsys, monkeypatch):
        # the sizes come from the spec; generating 500000 samples to learn
        # them took 1.15 s and 776 MB. A dataset dir is still loaded.
        fields = dict(world_size=2, per_device_batch=4, base_lr=0.1, warmup_iters=3,
                      epochs=2, dataset={"size": 44, "classes": 4}, seed=0)
        data_dir = tmp_path / "data"
        main(["gen-data", "--config", write_config(tmp_path, **fields), "--out", str(data_dir)])
        capsys.readouterr()

        def refuse(*args, **kwargs):
            raise AssertionError("lr-preview generated the dataset")

        monkeypatch.setattr("bigbatch.cli.generate_dataset", refuse)
        monkeypatch.setattr("bigbatch.trainer.generate_dataset", refuse)
        want = ("iter,lr\n0,0.1\n1,0.08333333333333334\n2,0.06666666666666668\n"
                + "".join(f"{i},0.05\n" for i in range(3, 10)))
        assert main(["lr-preview", "--config", write_config(tmp_path, **fields)]) == EXIT_OK
        assert capsys.readouterr().out == want
        from_dir = write_config(tmp_path, "dir.json",
                                **{**fields, "dataset": {"dir": str(data_dir)}})
        assert main(["lr-preview", "--config", from_dir]) == EXIT_OK
        assert capsys.readouterr().out == want
        (data_dir / "labels.npy").unlink()
        assert main(["lr-preview", "--config", from_dir]) == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"{data_dir / 'labels.npy'} is missing" in err


class TestGenData:
    def test_writes_a_loadable_dataset(self, tmp_path, capsys):
        cfg = train_config(tmp_path, dataset={"size": 32, "classes": 4})
        out = tmp_path / "data"
        assert main(["gen-data", "--config", cfg, "--out", str(out)]) == EXIT_OK
        stdout = capsys.readouterr().out
        assert "content hash:" in stdout
        meta = json.loads((out / "meta.json").read_text())
        assert meta["content_hash"] in stdout
        assert np.load(out / "images.npy").shape == (32, 1, 8, 8)

    def test_round_trips_into_training(self, tmp_path, capsys):
        cfg = train_config(tmp_path, dataset={"size": 32, "classes": 4})
        data_dir = tmp_path / "data"
        main(["gen-data", "--config", cfg, "--out", str(data_dir)])
        run_cfg = train_config(tmp_path, name="run.json",
                               dataset={"dir": str(data_dir)})
        out = tmp_path / "run"
        assert main(["train", "--config", run_cfg, "--out", str(out)]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["dataset_spec"]["size"] == 32

    def test_byte_stable_across_invocations(self, tmp_path, capsys):
        cfg = train_config(tmp_path, dataset={"size": 32, "classes": 4})
        main(["gen-data", "--config", cfg, "--out", str(tmp_path / "a")])
        main(["gen-data", "--config", cfg, "--out", str(tmp_path / "b")])
        for name in ("images.npy", "labels.npy", "eval_images.npy",
                     "eval_labels.npy", "meta.json"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes()), name

    @pytest.mark.parametrize("name", ["images.npy", "eval_labels.npy"])
    def test_training_on_a_dataset_missing_a_file(self, tmp_path, capsys, name):
        cfg = train_config(tmp_path, dataset={"size": 32, "classes": 4})
        data_dir = tmp_path / "data"
        main(["gen-data", "--config", cfg, "--out", str(data_dir)])
        (data_dir / name).unlink()
        run_cfg = train_config(tmp_path, name="run.json", dataset={"dir": str(data_dir)})
        capsys.readouterr()
        out = tmp_path / "run"
        assert main(["train", "--config", run_cfg, "--out", str(out)]) == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"{data_dir / name} is missing" in err
        assert not out.exists()

    @pytest.mark.parametrize("name,index,value", [
        ("images", (3, 0, 1, 1), np.nan), ("eval_images", (0, 0, 0, 0), np.inf),
        ("labels", (5,), 4)])
    def test_training_on_a_corrupt_dataset(self, tmp_path, capsys, name, index, value):
        # saved with a matching hash, each used to exit 1 with a traceback
        ds = generate_dataset(DatasetSpec(size=32, classes=4), 0)
        getattr(ds, name)[index] = value
        data_dir = tmp_path / "data"
        save_dataset(ds, data_dir)
        cfg = train_config(tmp_path, dataset={"dir": str(data_dir)})
        out = tmp_path / "run"
        assert main(["train", "--config", cfg, "--out", str(out)]) == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"dataset file {data_dir / name}.npy holds " in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "lr-preview"])
    def test_saved_dataset_smaller_than_the_total_batch(self, tmp_path, capsys, command):
        # a spec's size is checked with the config; a saved dataset's once it is read
        data_dir = tmp_path / "data"
        cfg = train_config(tmp_path, dataset={"size": 8, "classes": 4})
        assert main(["gen-data", "--config", cfg, "--out", str(data_dir)]) == EXIT_OK
        capsys.readouterr()
        cfg = train_config(tmp_path, name="run.json", world_size=4, per_device_batch=4,
                           dataset={"dir": str(data_dir)})
        assert main([command, "--config", cfg, "--out", str(tmp_path / "r")]) == EXIT_BAD_CONFIG
        assert capsys.readouterr().err == ("config error: dataset size 8 is smaller than the "
                                           "total batch 16\n")
        assert not (tmp_path / "r").exists()

    def test_requires_out(self, tmp_path, capsys):
        cfg = train_config(tmp_path)
        assert main(["gen-data", "--config", cfg]) == EXIT_BAD_CONFIG
        assert "requires --out" in capsys.readouterr().err

    def test_rejects_a_dataset_dir_config(self, tmp_path, capsys):
        cfg = train_config(tmp_path, dataset={"dir": str(tmp_path)})
        assert main(["gen-data", "--config", cfg, "--out", str(tmp_path / "x")]) == EXIT_BAD_CONFIG
        assert "generator spec" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "variance", "ratio-study"])
@pytest.mark.parametrize("text,message", [
    (None, "not found"), ("{nope", "not valid JSON"), (b"\xff\xfe", "not valid JSON"),
    ("null", "JSON object"), ('["trials"]', "JSON object"), ("3", "JSON object"),
    ("<directory>", "cannot be read"),
])
def test_unreadable_config_file(tmp_path, capsys, command, text, message):
    path = tmp_path / "cfg.json"
    if text == "<directory>":
        path.mkdir()
    elif isinstance(text, bytes):
        path.write_bytes(text)
    elif text is not None:
        path.write_text(text)
    assert main([command, "--config", str(path), "--out", str(tmp_path / "r")]) == EXIT_BAD_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err


NAN, INF = float("nan"), float("inf")
SPEC = {"size": 64, "classes": 4}


@pytest.mark.parametrize("command,fields,field", [
    ("train", {"model": "abc"}, "model"),
    ("train", {"model": [3]}, "model[0]"),
    ("train", {"dataset": {"dir": 5}}, "dataset.dir"),
    ("lr-preview", {"dataset": {"dir": 5}}, "dataset.dir"),
    ("train", {"out_dir": 5, "<no --out>": True}, "out_dir"),
    ("train", {"dataset": {"size": 256.5, "classes": 4}}, "size"),
    ("train", {"dataset": {**SPEC, "eval_size": 0}}, "eval_size"),
    ("train", {"dataset": {**SPEC, "eval_size": -3}}, "eval_size"),
    ("train", {"dataset": {**SPEC, "blob_sigma": 0}}, "blob_sigma"),
    ("train", {"dataset": {**SPEC, "blob_sigma": "a"}}, "blob_sigma"),
    ("train", {"dataset": {**SPEC, "separation": NAN}}, "separation"),
    ("train", {"base_lr": NAN}, "base_lr"),
    ("train", {"base_lr": INF}, "base_lr"),
    ("train", {"weight_decay": NAN}, "weight_decay"),
    ("train", {"world_size": 2, "collective_timeout_s": 1e300}, "collective_timeout_s"),
    ("train", {"dataset": {"dir": "d", "size": 3}}, "size"),
    ("train", {"model": [{"kind": "global_mean_pool"},
                         {"kind": "dense", "out_features": True}]}, "model[1].out_features"),
    ("variance", {"rate": NAN}, "rate"),
    ("variance", {"small_batch": 0}, "small_batch"),
    ("ratio-study", {"drift_rate": NAN}, "drift_rate"),
])
def test_bad_value_is_one_named_line(tmp_path, capsys, command, fields, field):
    # every case here used to exit 1 with a traceback, 3 as "diverged", 0
    # with NaN in its report, or silently ignore the value
    fields = dict(fields)
    out = [] if fields.pop("<no --out>", False) else ["--out", str(tmp_path / "r")]
    if command in ("variance", "ratio-study"):
        cfg = write_config(tmp_path, **fields)
    else:
        cfg = train_config(tmp_path, **fields)
    assert main([command, "--config", cfg, *out]) == EXIT_BAD_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error: ") and field in err
    assert not (tmp_path / "r").exists()


TRAIN_FIELDS = [f.name for f in dataclasses.fields(ExperimentConfig)]
RATIO_FIELDS = [f.name for f in dataclasses.fields(SamplerSpec) if f.name != "seed"]


@pytest.mark.parametrize("command, fields, expected, bad", [
    ("train", {"bogus": 1, "epochs": 0}, TRAIN_FIELDS,
     "epochs must be a positive integer or null, got 0"),
    ("variance", {"bogus": 1, "trials": 5}, list(VARIANCE_DEFAULTS),
     "trials must be an integer >= 100 and <= 65536, got 5"),
    ("ratio-study", {"bogus": 1, "epochs": 0}, RATIO_FIELDS,
     "epochs must be a positive integer, got 0"),
])
def test_unknown_key_and_bad_value_are_one_line(tmp_path, capsys, command, fields, expected,
                                               bad):
    cfg = write_config(tmp_path, **fields)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "r")]) == EXIT_BAD_CONFIG
    assert capsys.readouterr().err == (
        f"config error: unknown fields ['bogus']; expected {expected}; {bad}\n")
    assert not (tmp_path / "r").exists()


def test_ratio_study_seed_comes_from_the_flag_only(tmp_path, capsys):
    cfg = write_config(tmp_path, seed=3)
    assert main(["ratio-study", "--config", cfg, "--seed", "3"]) == EXIT_BAD_CONFIG
    assert capsys.readouterr().err == (
        f"config error: unknown fields ['seed']; expected {RATIO_FIELDS}\n")


@pytest.mark.parametrize("command", ["train", "lr-preview", "gen-data"])
def test_seed_flag_does_not_hide_a_bad_file_seed(tmp_path, capsys, command):
    cfg = train_config(tmp_path, seed=-1)
    assert main([command, "--config", cfg, "--seed", "5",
                 "--out", str(tmp_path / "r")]) == EXIT_BAD_CONFIG
    assert capsys.readouterr().err == (
        "config error: seed must be a non-negative integer, got -1\n")
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("error", [
    CollectiveProtocolError("deadlock, every live rank is blocked: allreduce[bn0#0]: rank 1 "
                            "waits for rank(s) [0]; allreduce[world#0]: rank 0 waits for "
                            "rank(s) [1]"),
    TrainerError("replica checksum mismatch on rank 1 at epoch 0 iter 0"),
])
def test_run_failure_is_one_line_with_its_own_exit_code(tmp_path, capsys, monkeypatch, error):
    def fail(config):
        raise error
    monkeypatch.setattr("bigbatch.cli.run_training", fail)
    cfg = train_config(tmp_path)
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "r")]) == EXIT_RUN_FAILED == 4
    assert capsys.readouterr().err == f"run failed: {error}\n"
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("argv", [
    ["variance"],
    ["ratio-study"],
    ["verify", "bn"],
])
def test_negative_seed_flag_of_report_and_verify_commands(tmp_path, capsys, argv):
    # each used to exit 1 with a ValueError traceback; for verify, exit 1
    # also reads as a failed check
    out = [] if argv[0] == "verify" else ["--out", str(tmp_path / "r")]
    assert main([*argv, "--seed", "-1", *out]) == EXIT_BAD_CONFIG
    captured = capsys.readouterr()
    assert captured.err == "config error: seed must be a non-negative integer, got -1\n"
    assert captured.out == ""
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("exponent", [1000, -21, 20.5])
def test_drift_batch_exponent_is_bounded(tmp_path, capsys, exponent):
    # 1000 used to exit 1 with OverflowError from (batch / 16) ** exponent
    cfg = write_config(tmp_path, drift_batch_exponent=exponent)
    assert main(["ratio-study", "--config", cfg, "--out", str(tmp_path / "r")]) == EXIT_BAD_CONFIG
    err = capsys.readouterr().err
    assert err == (f"config error: drift_batch_exponent must be a number >= -20 and <= 20, "
                   f"got {exponent!r}\n")
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("exponent", [-20, 20])
def test_drift_batch_exponent_at_its_bounds_runs(tmp_path, capsys, exponent):
    cfg = write_config(tmp_path, drift_batch_exponent=exponent, batch_sizes=[1, 16, 256],
                       epochs=1, batches_per_cell=2)
    assert main(["ratio-study", "--config", cfg]) == EXIT_OK
    assert capsys.readouterr().out.startswith(csv_header(RatioCell) + "\n")


@pytest.mark.parametrize("command", ["train", "variance", "ratio-study", "lr-preview",
                                     "gen-data"])
def test_out_naming_an_existing_file(tmp_path, capsys, monkeypatch, command):
    # each used to exit 1 with a FileExistsError traceback, train only after its run
    def never(config):
        raise AssertionError("trained before checking --out")
    monkeypatch.setattr("bigbatch.cli.run_training", never)
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    cfg = [] if command in ("variance", "ratio-study") else ["--config", train_config(tmp_path)]
    assert main([command, *cfg, "--out", str(taken)]) == EXIT_BAD_CONFIG
    assert capsys.readouterr().err == (
        f"config error: output directory {taken} is an existing file\n")
    assert taken.read_text() == "not a directory\n"


@pytest.mark.parametrize("command", ["train", "variance", "ratio-study", "lr-preview",
                                     "gen-data"])
def test_out_under_an_existing_file(tmp_path, capsys, monkeypatch, command):
    # each used to exit 1 with a NotADirectoryError traceback, train only after its run
    def never(config):
        raise AssertionError("trained before checking --out")
    monkeypatch.setattr("bigbatch.cli.run_training", never)
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    out = taken / "sub"
    cfg = [] if command in ("variance", "ratio-study") else ["--config", train_config(tmp_path)]
    assert main([command, *cfg, "--out", str(out)]) == EXIT_BAD_CONFIG
    assert capsys.readouterr().err == (
        f"config error: output directory {out} is under {taken}, an existing file\n")
    assert taken.read_text() == "not a directory\n"


def run_module(*args):
    src = str(Path(bigbatch.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    return subprocess.run([sys.executable, "-m", "bigbatch", *args], env=env,
                          capture_output=True, text=True, timeout=60)


def test_python_dash_m_runs_the_cli():
    done = run_module("--help")
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: bigbatch ")


def test_diverging_train_leaves_stderr_empty(tmp_path):
    # the one-pass statistics overflow first; the finiteness scans report
    # the divergence, and numpy prints no RuntimeWarning on top of it
    cfg = train_config(tmp_path, world_size=2, per_device_batch=4, one_pass_bn=True,
                       base_lr=1e300, warmup_iters=None, epochs=1,
                       dataset={"size": 32, "classes": 2})
    done = run_module("train", "--config", cfg, "--out", str(tmp_path / "run"))
    assert done.returncode == EXIT_DIVERGED, done.stderr
    assert "diverged at: epoch 0 iter 1: bn_forward: non-finite" in done.stdout
    assert done.stderr == ""


def test_overflowing_rate_exits_2_naming_rate(tmp_path):
    # the update variance overflowed: variance.json got "ratio": NaN and
    # "var_large": Infinity, which are not JSON, under a RuntimeWarning, exit 0
    cfg = write_config(tmp_path, rate=1e200, ks=[4], trials=100)
    done = run_module("variance", "--config", cfg, "--out", str(tmp_path / "r"))
    assert done.returncode == EXIT_BAD_CONFIG, done.stderr
    assert done.stderr.count("\n") == 1
    assert done.stderr.startswith("config error: rate 1e+200 overflows the update variance")
    assert done.stdout == "" and not (tmp_path / "r").exists()


def test_underflowing_rate_exits_2_naming_rate(tmp_path, capsys):
    # the gradients vary but rate * gradient squares to 0; this used to
    # blame the sampler as degenerate
    cfg = write_config(tmp_path, rate=1e-300, trials=100, ks=[1], batch_sizes=[1])
    assert main(["variance", "--config", cfg]) == EXIT_BAD_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("config error: rate 1e-300 underflows the update variance")


def no_json_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("command,fields", [
    ("variance", TestVariance.FAST),
    ("variance", {**TestVariance.FAST, "rate": 1e150}),  # large, yet finite variances
    ("variance", {**TestVariance.FAST, "ks": [1, 3], "small_batch": 1}),
    ("ratio-study", TestRatioStudy.FIXED),
    ("ratio-study", {"pos_counts": [[0, 1.0]], "epochs": 1, "batches_per_cell": 1}),
    ("ratio-study", {"batch_sizes": [1, 300], "epochs": 2, "batches_per_cell": 3}),
])
def test_report_json_has_no_nan_or_infinity(tmp_path, capsys, command, fields):
    out = tmp_path / "r"
    assert main([command, "--config", write_config(tmp_path, **fields), "--out", str(out)]) == 0
    texts = [path.read_text() for path in sorted(out.glob("*.json"))]
    assert texts
    for text in texts:
        json.loads(text, parse_constant=no_json_constant)


@pytest.mark.parametrize("command,fields,field", [
    ("ratio-study", {"batch_sizes": [1099511627776]}, "batch_sizes[0]"),
    ("ratio-study", {"batch_sizes": [16, MAX_DRAW_SAMPLES + 1]}, "batch_sizes[1]"),
    ("variance", {"batch_sizes": [10**12]}, "batch_sizes[0]"),
    ("variance", {"small_batch": 10**12}, "small_batch"),
    ("variance", {"ks": [10**12]}, "ks[0] * small_batch"),
    ("variance", {"ks": [1, 2**20], "small_batch": 2**10}, "ks[1] * small_batch"),
])
def test_oversized_draw_is_one_named_line(tmp_path, capsys, monkeypatch, command, fields, field):
    # each used to exit 1 with numpy's "Unable to allocate 7.28 TiB" traceback
    def no_draw(*args):
        raise AssertionError("drew samples before checking the config")
    monkeypatch.setattr("bigbatch.cli.normal_pair_sampler", no_draw)
    monkeypatch.setattr("bigbatch.analysis._draw_mixture", no_draw)
    cfg = write_config(tmp_path, **fields)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "r")]) == EXIT_BAD_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"config error: {field} must be ")
    assert str(MAX_DRAW_SAMPLES) in err and not (tmp_path / "r").exists()


def no_draw(*args):
    raise AssertionError("drew samples before checking the bounds")


def grad_variance(batch_size, trials):
    return estimate_grad_variance(scalar_linear_grad, no_draw, batch_size, trials, 0)


def equivalence(batch_size, k):
    return variance_equivalence_ratio(scalar_linear_grad, no_draw, batch_size, k, 0.02, 100, 0)


@pytest.mark.parametrize("call,name,fields,field", [
    (lambda: grad_variance(4, 5), "trials", {"trials": 5}, "trials"),
    (lambda: grad_variance(0, 100), "batch_size", {"batch_sizes": [0]}, "batch_sizes[0]"),
    (lambda: equivalence(4, 0), "k", {"ks": [0]}, "ks[0]"),
    (lambda: equivalence(2**12, 2**13), "k * batch_size", {"ks": [2**13], "small_batch": 2**12},
     "ks[0] * small_batch"),
], ids=["trials", "batch_size", "k", "draw"])
def test_variance_bound_reads_the_same_from_python_and_the_cli(
        tmp_path, capsys, monkeypatch, call, name, fields, field):
    # one rule object per bound: `need at least 100 trials` from Python used
    # to read `trials must be an integer >= 100` from the command
    monkeypatch.setattr("bigbatch.cli.normal_pair_sampler", no_draw)
    with pytest.raises(AnalysisError) as e:
        call()
    rule_text = str(e.value).removeprefix(name)
    assert rule_text.startswith(" must be ")
    cfg = write_config(tmp_path, **fields)
    assert main(["variance", "--config", cfg]) == EXIT_BAD_CONFIG
    assert capsys.readouterr().err == f"config error: {field}{rule_text}\n"


@pytest.mark.parametrize("world", [257, 1000000])
def test_oversized_world_is_one_named_line(tmp_path, capsys, monkeypatch, world):
    # one device per rank: a world this size would be built before anything checked it
    def no_group(*args, **kwargs):
        raise AssertionError("a DeviceGroup was built or run")
    monkeypatch.setattr(DeviceGroup, "__init__", no_group)
    monkeypatch.setattr(DeviceGroup, "run", no_group)
    cfg = train_config(tmp_path, world_size=world, per_device_batch=1,
                       dataset={"size": world, "classes": 2, "height": 2, "width": 2})
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "r")]) == EXIT_BAD_CONFIG
    assert capsys.readouterr().err == (
        f"config error: world_size must be an integer > 0 and <= 256, got {world}\n")
    assert not (tmp_path / "r").exists()


POOL_DENSE = [{"kind": "global_mean_pool"}, {"kind": "dense", "out_features": None}]


@pytest.mark.parametrize("command,fields,allocates,message", [
    ("train", {"model": [{"kind": "conv3x3", "out_channels": 10**9}, *POOL_DENSE]},
     "bigbatch.trainer.init_params",
     "model[0].out_channels must be an integer > 0 and <= 256 or null, got 1000000000"),
    ("train", {"model": [{"kind": "conv3x3", "out_channels": 2}, POOL_DENSE[0],
                         {"kind": "dense", "out_features": 257}, POOL_DENSE[1]]},
     "bigbatch.trainer.init_params",
     "model[2].out_features must be an integer > 0 and <= 256 or null, got 257"),
    ("train", {"dataset": {"size": 300, "classes": 257}}, "bigbatch.data.class_means",
     "dataset spec: classes must be an integer >= 2 and <= 256, got 257"),
    ("gen-data", {"dataset": {"size": 300, "classes": 257}}, "bigbatch.data.class_means",
     "dataset spec: classes must be an integer >= 2 and <= 256, got 257"),
    ("variance", {"trials": 2**16 + 1}, "bigbatch.analysis._collect_grads",
     "trials must be an integer >= 100 and <= 65536, got 65537"),
    ("variance", {"trials": 100, "ks": [1, 10**6]}, "bigbatch.analysis._collect_grads",
     "trials * (1 + ks[1]) must be an integer <= 327680, got 100000100"),
    ("ratio-study", {"batches_per_cell": 10**10}, "bigbatch.cli.posneg_ratio_study",
     "batches_per_cell must be an integer > 0 and <= 1048576, got 10000000000"),
], ids=["out_channels", "out_features", "classes-train", "classes-gen-data", "trials",
        "trial-draws", "batches_per_cell"])
def test_capped_field_is_one_named_line(tmp_path, capsys, monkeypatch, command, fields,
                                        allocates, message):
    # a billion channels, or ten billion batches per cell, used to exit 1
    # with numpy's _ArrayMemoryError traceback; 2,000 classes took 19 s
    def allocate(*args, **kwargs):
        raise AssertionError("allocated before checking the cap")
    monkeypatch.setattr(allocates, allocate)
    if command in ("variance", "ratio-study"):
        cfg = write_config(tmp_path, **fields)
    else:
        cfg = train_config(tmp_path, **fields)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "r")]) == EXIT_BAD_CONFIG
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "r").exists()


def test_width_and_classes_at_their_caps_train(tmp_path, capsys):
    model = [{"kind": "conv3x3", "out_channels": 256}, *POOL_DENSE]
    # at noise_sigma 1 the 256 class means reach 462 on this grid and the
    # first step diverges; a smaller sigma scales them down
    cfg = train_config(tmp_path, model=model, epochs=1,
                       dataset={"size": 256, "classes": 256, "height": 2, "width": 2,
                                "noise_sigma": 0.01})
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "r")]) == EXIT_OK
    manifest = json.loads((tmp_path / "r" / "manifest.json").read_text())
    assert manifest["model"][2]["out_features"] == 256  # the dense head, one per class


@pytest.mark.parametrize("command", ["train", "gen-data"])
def test_overflowing_dataset_spec_is_one_named_line(tmp_path, command):
    # gen-data used to write all-Inf images and exit 0, and train to exit 1
    # with a NonFiniteError traceback from its first batch
    cfg = write_config(tmp_path, dataset={"size": 16, "classes": 2, "separation": 1e308,
                                          "noise_sigma": 1e10})
    done = run_module(command, "--config", cfg, "--out", str(tmp_path / "r"))
    assert done.returncode == EXIT_BAD_CONFIG, done.stderr
    assert done.stderr == ("config error: separation 1e+308 and noise_sigma 10000000000.0 "
                           "overflow the generated images to NaN or Inf\n")
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("command", ["train", "lr-preview", "gen-data"])
@pytest.mark.parametrize("sigma,code", [(0.018, EXIT_BAD_CONFIG), (0.02, EXIT_OK)])
def test_blob_sigma_too_small_for_the_grid(tmp_path, capsys, command, sigma, code):
    # on the 8x8 grid a bump's norm underflows to zero below blob_sigma 0.01841;
    # train and gen-data used to blame separation and noise_sigma, lr-preview to run
    cfg = train_config(tmp_path, epochs=1, dataset={**SPEC, "blob_sigma": sigma})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "r")]) == code
    err = capsys.readouterr().err
    if code == EXIT_OK:
        assert err == "" and (tmp_path / "r").exists()
    else:
        assert err == (f"config error: dataset spec: blob_sigma {sigma} is too small for "
                       "the 8x8 grid: class 0's bump underflows to zero\n")
        assert not (tmp_path / "r").exists()


def test_preview_row_rule_admits_the_cap():
    # checked on the rule alone: a preview at the cap holds ~100 MiB of rows
    assert PREVIEW_ROWS(MAX_PREVIEW_ROWS, "rows") is None
    assert PREVIEW_ROWS(MAX_PREVIEW_ROWS + 1, "rows") is not None


def test_oversized_preview_is_one_named_line(tmp_path, capsys, monkeypatch):
    # 10**12 epochs of 8 rows each used to be built in memory, and never finished
    def no_rows(*args):
        raise AssertionError("built the rows before counting them")
    monkeypatch.setattr("bigbatch.cli.csv_text", no_rows)
    cfg = train_config(tmp_path, epochs=10**12)
    assert main(["lr-preview", "--config", cfg]) == EXIT_BAD_CONFIG
    err = capsys.readouterr().err
    assert err == (f"config error: epochs * iters_per_epoch must be an integer <= "
                   f"{MAX_PREVIEW_ROWS}, got {8 * 10**12}\n")


@pytest.mark.parametrize("drift", [{}, {"drift_early_scale": 1.0, "drift_rate": 0}])
def test_positive_sum_beyond_int64_is_one_named_line(tmp_path, capsys, drift):
    # used to exit 0 with the int64 sums wrapped: a ratio of -6.4e12 %, or,
    # with the drift off, no positive in any batch
    cfg = write_config(tmp_path, pos_counts=[[2**53, 1.0]], batch_sizes=[2048], epochs=1,
                       batches_per_cell=2, **drift)
    assert main(["ratio-study", "--config", cfg, "--out", str(tmp_path / "r")]) == EXIT_BAD_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error: the largest pos_counts ")
    assert "batch_sizes" in err and "2**63 - 1" in err and not (tmp_path / "r").exists()


@pytest.mark.parametrize("drift", [{}, {"drift_early_scale": 1.0, "drift_rate": 0}])
def test_positive_sum_within_int64_runs(tmp_path, capsys, drift):
    # 2047 images of 2**52 positives each sum to just below 2**63
    cfg = write_config(tmp_path, pos_counts=[[2**52, 1.0]], batch_sizes=[2047], epochs=1,
                       batches_per_cell=2, **drift)
    assert main(["ratio-study", "--config", cfg, "--out", str(tmp_path / "r")]) == EXIT_OK
    (cell,) = json.loads((tmp_path / "r" / "ratio_study.json").read_text())["cells"]
    assert cell["zero_positive_batches"] == 0 and cell["mean_ratio_pct"] > 0
    if drift:  # every count passes through: 2047 * 2**52 positives per batch
        assert cell["mean_pos_frac_pct"] == pytest.approx(100.0)


@pytest.mark.parametrize("spec,name", [(VarianceSpec, "batch_sizes"),
                                       (VarianceSpec, "small_batch"),
                                       (SamplerSpec, "batch_sizes")])
def test_draw_size_rule_admits_the_cap(spec, name):
    # checked on the rule alone: a draw at the cap allocates hundreds of MiB
    rule = next(f.metadata["rule"] for f in dataclasses.fields(spec) if f.name == name)
    value = [MAX_DRAW_SAMPLES] if name != "small_batch" else MAX_DRAW_SAMPLES
    assert rule(value, name) is None
    bigger = [MAX_DRAW_SAMPLES + 1] if name != "small_batch" else MAX_DRAW_SAMPLES + 1
    assert rule(bigger, name) is not None


def test_trial_draws_rule_admits_the_cap():
    # checked on the rule alone: the cap keeps 327,680 gradients
    assert TRIAL_DRAWS(MAX_TRIAL_DRAWS, "n") is None
    assert TRIAL_DRAWS(MAX_TRIAL_DRAWS + 1, "n") is not None
    # the default ks at the trials cap and at the benchmark's 5000 trials
    for trials in (MAX_TRIALS, 5000):
        VarianceSpec(**{**VARIANCE_DEFAULTS, "trials": trials})
    with pytest.raises(AnalysisError, match=r"^trials \* \(1 \+ ks\[0\]\) must be "):
        VarianceSpec(**{**VARIANCE_DEFAULTS, "trials": MAX_TRIALS, "ks": [5]})


def test_report_draw_counts(tmp_path, capsys, monkeypatch):
    # one sampler call per gradient and one _draw_mixture call per mixture
    # draw, each looked up by name: a traced benchmark run counts exactly these
    counts = {"sampler": 0, "mixture": 0}

    def counted(kind, fn):
        def call(*args):
            counts[kind] += 1
            return fn(*args)
        return call
    monkeypatch.setattr("bigbatch.cli.normal_pair_sampler",
                        counted("sampler", bigbatch.cli.normal_pair_sampler))
    monkeypatch.setattr("bigbatch.analysis._draw_mixture",
                        counted("mixture", bigbatch.analysis._draw_mixture))
    v = {"batch_sizes": [1, 3], "trials": 100, "ks": [1, 3], "small_batch": 2}
    r = {"batch_sizes": [4, 8, 16], "epochs": 2, "batches_per_cell": 5}
    assert main(["variance", "--config", write_config(tmp_path, "v.json", **v)]) == EXIT_OK
    assert main(["ratio-study", "--config", write_config(tmp_path, "r.json", **r)]) == EXIT_OK
    law = len(v["batch_sizes"]) * v["trials"]
    equivalence = sum(2 * v["trials"] * (1 + k) for k in v["ks"])
    ratio = 2 * r["epochs"] * len(r["batch_sizes"]) * r["batches_per_cell"]
    assert counts == {"sampler": law + equivalence, "mixture": ratio}


# sha256 of each report file, recorded at 77252a7, before the report loops
# were rewritten to skip numpy's per-call wrappers; same-version determinism
# alone would not see the bytes move across versions
PINNED_POS = [[0, 0.25], [2, 0.0], [5, 0.5], [9, 0.25], [40, 0.0]]
PINNED_RATIO = {"epochs": 2, "batches_per_cell": 20, "batch_sizes": [8, 32],
                "pos_counts": PINNED_POS}
PINNED_REPORTS = {
    "variance": ("variance", {"trials": 101, "batch_sizes": [1, 4], "ks": [2]}, {
        "variance.json": "1205a1cb55e1842b15c2b0895b902c6cf5a065f723b876445f2b55ea6c30ab63"}),
    "ratio-drift": ("ratio-study", PINNED_RATIO, {
        "ratio_study.csv": "6200e2af6f44604247c2cacc45cead6a1bc504502a8da97bb0ccc04c0dd7c682",
        "ratio_study.json": "2d2d31682f0d5a7a88075fdae9e446faf42ce6183f6e24fc0cb6f8b81d688dba"}),
    "ratio-no-drift": ("ratio-study", {**PINNED_RATIO, "drift_early_scale": 1.0,
                                       "drift_rate": 0.0}, {
        "ratio_study.csv": "c84808cf03606823b9f7006c865c009eaef5ad75f572f84b6973cba818c7e4cb",
        "ratio_study.json": "b957020798c7f19e2182681be965b729a5bb1ab4dd1544bf30e2cb5f98a26933"}),
}


@pytest.mark.parametrize("case", sorted(PINNED_REPORTS))
def test_report_bytes_are_pinned(tmp_path, capsys, case):
    command, fields, digests = PINNED_REPORTS[case]
    out = tmp_path / "r"
    cfg = write_config(tmp_path, **fields)
    assert main([command, "--config", cfg, "--seed", "3", "--out", str(out)]) == EXIT_OK
    assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in digests} == digests


# sha256 of each `train` output, recorded at df5015d (`bn-group-one` and
# `eval-off-chunk` at a2575a1); same-version determinism alone would not see a
# model or trainer change move the bytes across versions
POOL_BN = [{"kind": "conv3x3", "out_channels": 3}, {"kind": "relu"},
           {"kind": "global_mean_pool"}, {"kind": "bn"}, {"kind": "dense", "out_features": None}]
PINNED_TRAIN = {
    "cross-bn-group-one-pass": (dict(world_size=4, per_device_batch=2, bn_group_size=2,
                                     one_pass_bn=True, epochs=2, seed=1,
                                     dataset={"size": 64, "classes": 4}), EXIT_OK, {
        "checkpoint.npz": "01983cf29f0c4cfd48768edc1515fbdf428c1eaca8ddb9d65da678e706ac7e1e",
        "manifest.json": "25ea5dedf419fa1bd5276355439b3221bea42420916a78fcfbd25e1e4ebc7fad",
        "metrics.csv": "95eca9a3990bf30d33d5948d70cde8f860be5794a7ce6dfb4efe433b14d84dc9"}),
    "local-bn-after-pool": (dict(world_size=2, per_device_batch=4, epochs=2, seed=2,
                                 model=POOL_BN, dataset={"size": 64, "classes": 4}), EXIT_OK, {
        "checkpoint.npz": "f230deb91b30cd647ff012e75396e7d28191b696c86ac18f26929e4f15f43cef",
        "manifest.json": "fd9987987cb76a3114917ed69842116defa982cd840f788c34b1ce3185262b98",
        "metrics.csv": "1c4b08907bdfcaad440e15c41b72b627aa7d075e85181d562fb753e254d3983a"}),
    "5x5": (dict(world_size=2, per_device_batch=4, epochs=2, seed=4,
                 dataset={"size": 64, "classes": 3, "height": 5, "width": 5}), EXIT_OK, {
        "checkpoint.npz": "d4103e1617c84898c8baef8c3fff1b92d8bb3ddd8db5f0dd2d651e7116481272",
        "manifest.json": "c9ad0ee7888c3bf0bba01f53a59690b0af7d7d5675cb176edfad4e0b15c56015",
        "metrics.csv": "4510b1fc6b1204ea1897deef7233afd5b4f8af9371f106ee8db59aa7637af398"}),
    # one-rank BN scopes at world 4
    "bn-group-one": (dict(world_size=4, per_device_batch=2, bn_group_size=1, epochs=2, seed=5,
                          dataset={"size": 64, "classes": 4}), EXIT_OK, {
        "checkpoint.npz": "50badefb4025853d13bd9a02a91d4c35abca5e656685889fcad0cba771cb60f0",
        "manifest.json": "8158e7c865bda8359428d010b957ed8448dc781bcf8344416bfd4376dbea0763",
        "metrics.csv": "d133f11ce579793568ebe75cccf1152681d8522aabcb26f9fdd4aede465f033d"}),
    # 5x7 images: 117 an eval forward, so 130 eval images take two
    "eval-off-chunk": (dict(world_size=2, per_device_batch=4, epochs=2, seed=6,
                            model=WIDTH_ONE_CONV,
                            dataset={"size": 64, "classes": 3, "height": 5, "width": 7,
                                     "eval_size": 130}), EXIT_OK, {
        "checkpoint.npz": "363d37abe462fba72c4a8bb507c915410762a4c1975518f2164e026984fc4e07",
        "manifest.json": "882a98acdcfab39371975d99ccf828fd532d9c65a2489f85cce3b513c3a98352",
        "metrics.csv": "12a5fd04e0425619304231aee0f8fc7b165b51a2e59ae3614c38587ab505c33a"}),
    "diverging": ({**DIVERGENT, "world_size": 2, "per_device_batch": 4}, EXIT_DIVERGED, {
        "manifest.json": "6a6abcfe31c9bfcb0d4a4e559cc8b8583b68d0055e19d3ad3f2f29d677adec91",
        "metrics.csv": "1faae4e7600da4eb07c8ddd4e3f147d7de43f6e8237843ff865059eabec98c31"}),
}


@pytest.mark.parametrize("case", sorted(PINNED_TRAIN))
def test_train_bytes_are_pinned(tmp_path, capsys, case):
    fields, code, digests = PINNED_TRAIN[case]
    out = tmp_path / "run"
    assert main(["train", "--config", write_config(tmp_path, **fields),
                 "--out", str(out)]) == code
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in out.iterdir()} == digests


# `verify all`'s stdout, recorded at 5f6ecf0: a change that keeps every check
# passing can still move the errors the checks print. grad.model_fd's line
# moved when its model gained a second conv, whose input gradient it checks
PINNED_VERIFY_ALL = """\
[PASS] bn.concat_equivalence  (max rel err 2.220e-13 over 25 cases)
[PASS] bn.single_group_bitwise  (synchronized path at group size 1 equals local BN byte for byte)
[PASS] bn.one_pass_agreement  (max rel err 4.215e-15)
[PASS] bn.running_stats  (momentum-1 update equals unbiased batch stats; eval leaves them alone)
[PASS] collectives.rank_symmetry  (world 8: every rank saw identical bytes)
[PASS] collectives.repeat_determinism  (two runs produced identical bytes)
[PASS] collectives.sequential_order  (sum equals strict rank 0..n-1 left-to-right accumulation)
[PASS] collectives.scope_isolation  (per-subgroup sums [3.0, 3.0, 7.0, 7.0])
[PASS] grad.sync_bn_fd  (max rel err 2.882e-09)
[PASS] grad.model_fd  (max rel err 1.106e-08)
[PASS] schedule.base_case  (batch 16 keeps the 0.02 base rate)
[PASS] schedule.normal_breakpoints  (x0.1 at epochs 8 and 10, exact)
[PASS] schedule.long_breakpoints  (x0.1 at 11/14 plus x0.5 at 17, exact)
[PASS] schedule.warmup_endpoints  (ramp runs from 0.02 to 0.32 exactly)
[PASS] schedule.nonincreasing_after_warmup  (rate never rises once the ramp is over)
OK: 0 failing check(s) across 4 suite(s)
"""


def test_verify_all_output_is_pinned(capsys):
    assert main(["verify", "all"]) == EXIT_OK
    assert capsys.readouterr().out == PINNED_VERIFY_ALL
