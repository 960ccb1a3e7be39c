"""Experiment config, divergence handling, and end-to-end training runs.

The integration tests here stay deliberately tiny (8x8 images, a handful
of epochs) so the whole file runs in seconds; the heavyweight parity and
accuracy checks live in test_acceptance.py.
"""

import contextlib
import json
import math
import sys
import threading
import time
import zlib
from collections import Counter
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bigbatch import (
    ConfigError,
    DeviceGroup,
    ExperimentConfig,
    MetricsRow,
    SCOPE_WORLD,
    TrainerError,
    allreduce_sum,
    backward,
    check_replica_sync,
    forward,
    init_buffers,
    init_params,
    l2_penalty,
    lr_at,
    plan,
    run_training,
    sgd_step,
    write_outputs,
    SGDState,
    Tensor,
)
from bigbatch import batchnorm, cli, data, schema, trainer
from bigbatch.collectives import CollectiveProtocolError
from bigbatch.data import DatasetSpec, generate_dataset, save_dataset
from bigbatch.model import ModelSpec, LayerSpec
from bigbatch.schema import csv_header, csv_line
from bigbatch.tensor import NonFiniteError
from bigbatch.trainer import (
    MAX_PATCH_BYTES,
    MAX_WORLD_PATCH_BYTES,
    _count_allreduce_rounds,
    build_model,
    iteration_wall_ms,
    read_json_object,
    resolve,
    resolve_dataset,
)

from helpers import WIDTH_ONE_CONV, rank_outcomes, rel_err


def smoke_config(**overrides):
    base = dict(
        world_size=1,
        per_device_batch=8,
        base_lr=0.1,
        warmup_iters=0,
        epochs=3,
        dataset={"size": 64, "classes": 4},
        seed=0,
        checksum_interval=1,
    )
    base.update(overrides)
    return ExperimentConfig.from_dict(base)


@contextlib.contextmanager
def rule_evaluations():
    """Count the `schema` rule evaluations (calls of the closure every rule
    is) in this thread and in the threads it starts, as a list of 1s."""
    rule = schema.integer().__code__
    calls = []

    def hook(frame, event, arg):
        if event == "call" and frame.f_code is rule:
            calls.append(1)
    sys.setprofile(hook)
    threading.setprofile(hook)
    try:
        yield calls
    finally:
        threading.setprofile(None)
        sys.setprofile(None)


class TestReplicaSync:
    def test_matching_replicas_pass(self):
        group = DeviceGroup(2)

        def worker(h):
            sgd = SGDState.create({"w": np.arange(6.0).reshape(2, 3), "b": np.zeros(3)},
                                  momentum=0.0, weight_decay=0.0)
            check_replica_sync(h, sgd.flat_params, "epoch 0 iter 0")
            return "ok"

        assert group.run(worker) == ["ok", "ok"]

    def test_drifted_replica_is_named(self):
        group = DeviceGroup(2)

        def worker(h):
            flat = np.ones(4)
            if h.rank == 1:
                flat = flat + 1e-12
            check_replica_sync(h, flat, "epoch 1 iter 4")
            return "ok"

        out = rank_outcomes(group, worker)
        assert out[0] == "ok"
        assert isinstance(out[1], TrainerError)
        assert "rank 1" in str(out[1])
        assert "epoch 1 iter 4" in str(out[1])

    def test_one_ulp_in_any_span_is_named(self):
        params = {"a.w": np.arange(6.0).reshape(2, 3), "a.b": np.zeros(3), "z": np.ones(1)}
        spans = SGDState.create(dict(params), 0.0, 0.0).spans
        for key, span in spans.items():
            for i in (span.start, span.stop - 1):
                def worker(h):
                    flat = SGDState.create(dict(params), 0.0, 0.0).flat_params
                    if h.rank == 1:
                        flat[i] = np.nextafter(flat[i], np.inf)
                    check_replica_sync(h, flat, f"epoch 2 iter {i}")
                    return "ok"

                out = rank_outcomes(DeviceGroup(2), worker)
                assert out[0] == "ok", key
                assert str(out[1]) == f"replica checksum mismatch on rank 1 at epoch 2 iter {i}"

    def test_flat_crc_is_the_chained_per_key_crc(self):
        # the checksum rank 0 broadcasts is the one a per-key walk in sorted
        # order would chain, so hashing the flat buffer changes no value
        rng = np.random.default_rng(4)
        params = {"b.w": rng.normal(size=(3, 2)), "a.b": rng.normal(size=4),
                  "a.w": rng.normal(size=(2, 2, 3))}
        sgd = SGDState.create(params, 0.9, 1e-4)
        crc = 0
        for key in sorted(params):
            crc = zlib.crc32(np.ascontiguousarray(params[key]).tobytes(), crc)
        assert zlib.crc32(sgd.flat_params) == crc


class TestExperimentConfig:
    def test_defaults_round_trip(self):
        cfg = ExperimentConfig.from_dict({})
        assert cfg.world_size == 1
        assert cfg.total_batch == 8
        assert asdict(ExperimentConfig.from_dict(asdict(cfg))) == asdict(cfg)

    def test_total_batch(self):
        cfg = ExperimentConfig(world_size=4, per_device_batch=16)
        assert cfg.total_batch == 64

    def test_bn_group_defaults_to_the_world(self):
        assert ExperimentConfig(world_size=4).bn_group == 4
        assert ExperimentConfig(world_size=4, bn_group_size=2).bn_group == 2

    def test_unknown_fields_rejected_by_name(self):
        with pytest.raises(ConfigError, match=r"unknown fields \['learning_rate'\]"):
            ExperimentConfig.from_dict({"learning_rate": 0.1, "seed": 3})

    def test_validate_reports_every_problem_at_once(self):
        with pytest.raises(ConfigError) as e:
            ExperimentConfig(world_size=0, base_lr=-1.0, momentum=1.5)
        msg = str(e.value)
        assert "world_size" in msg
        assert "base_lr" in msg
        assert "momentum" in msg

    def test_bn_group_must_divide_world(self):
        with pytest.raises(ConfigError, match="divide"):
            ExperimentConfig(world_size=4, bn_group_size=3)

    def test_dataset_smaller_than_total_batch(self):
        with pytest.raises(ConfigError, match="smaller than the total batch"):
            ExperimentConfig(world_size=4, per_device_batch=16,
                             dataset={"size": 32, "classes": 4})

    def test_bad_policy_name(self):
        with pytest.raises(ConfigError, match="policy"):
            ExperimentConfig(policy="cosine")

    def test_dataset_spec_errors_surface(self):
        with pytest.raises(ConfigError, match="dataset spec"):
            ExperimentConfig(dataset={"size": 64, "classes": 1})
        # the spec's own checks, past its fields' rules, raise DataError
        with pytest.raises(ConfigError, match="^dataset spec: size must cover at least one "):
            ExperimentConfig(per_device_batch=2, dataset={"size": 3, "classes": 4})
        with pytest.raises(ConfigError, match="mapping"):
            ExperimentConfig(dataset=[64, 4])

    def test_dataset_dir_skips_spec_validation(self):
        # pointing at a directory defers all checks to load time
        assert ExperimentConfig(dataset={"dir": "/nonexistent/for/now"}).dataset_spec is None

    @pytest.mark.parametrize("seed", [[], ["--seed", "5"]], ids=["file seed", "seed flag"])
    @pytest.mark.parametrize("command, builds, passes", [
        ("train", 1, 2), ("lr-preview", 1, 1), ("gen-data", 1, 2)])
    def test_dataset_spec_is_built_once_per_command(self, tmp_path, monkeypatch, capsys,
                                                     command, builds, passes, seed):
        # a spec build runs the class-bump code for the blob_sigma rule;
        # train and gen-data run it once more to draw the data. --seed
        # replaces the file's seed before the one construction
        counts = Counter()
        init, bumps = DatasetSpec.__post_init__, data._unit_bumps
        monkeypatch.setattr(DatasetSpec, "__post_init__",
                            lambda spec: counts.update(["builds"]) or init(spec))
        monkeypatch.setattr(data, "_unit_bumps",
                            lambda spec: counts.update(["passes"]) or bumps(spec))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"per_device_batch": 4, "epochs": 1,
                                    "dataset": {"size": 16, "classes": 2}}))
        assert cli.main([command, "--config", str(path), "--out", str(tmp_path / "out"),
                         *seed]) == 0
        assert (counts["builds"], counts["passes"]) == (builds, passes)

    RAW = {"world_size": 2, "per_device_batch": 4, "epochs": 1, "seed": 3,
           "model": [{"kind": "conv3x3", "out_channels": 2}, {"kind": "bn"},
                     {"kind": "relu"}, {"kind": "global_mean_pool"}, {"kind": "dense"}],
           "dataset": {"size": 16, "classes": 2}}

    def test_from_dict_runs_each_rule_as_construction_does(self):
        # a valid dict is checked once, by the construction's own rules
        with rule_evaluations() as direct:
            ExperimentConfig(**self.RAW)
        with rule_evaluations() as loaded:
            ExperimentConfig.from_dict(self.RAW)
        assert direct and len(loaded) == len(direct)

    @pytest.mark.parametrize("command", ["train", "lr-preview", "gen-data"])
    def test_seed_flag_adds_at_most_two_rule_evaluations(self, tmp_path, capsys, command):
        # one for the flag in main, one for the file seed it replaces
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(self.RAW))
        counts = []
        for seed in ([], ["--seed", "5"]):
            argv = [command, "--config", str(path), "--out", str(tmp_path / str(len(seed)))]
            with rule_evaluations() as calls:
                assert cli.main(argv + seed) == 0
            counts.append(len(calls))
        assert counts[0] < counts[1] <= counts[0] + 2

    def test_from_a_json_file(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"world_size": 2, "per_device_batch": 4}))
        cfg = ExperimentConfig.from_dict(read_json_object(p))
        assert cfg.total_batch == 8

        with pytest.raises(ConfigError, match="not found"):
            read_json_object(tmp_path / "missing.json")
        (tmp_path / "broken.json").write_text("{nope")
        with pytest.raises(ConfigError, match="not valid JSON"):
            read_json_object(tmp_path / "broken.json")
        (tmp_path / "list.json").write_text("[1, 2]")
        with pytest.raises(ConfigError, match="JSON object"):
            read_json_object(tmp_path / "list.json")


class TestBuildModelAndResolve:
    def test_default_model_gets_class_count_and_loss_head(self):
        cfg = ExperimentConfig()
        spec = build_model(cfg, classes=5, in_shape=(1, 8, 8))
        kinds = [l.kind for l in spec.layers]
        assert kinds == ["conv3x3", "bn", "relu", "global_mean_pool",
                         "dense", "softmax_xent"]
        assert spec.layers[4].out_features == 5
        assert spec.classes == 5

    def test_explicit_model_without_loss_head(self):
        cfg = ExperimentConfig(model=[{"kind": "global_mean_pool"},
                                      {"kind": "dense", "out_features": None}])
        spec = build_model(cfg, classes=3, in_shape=(1, 4, 4))
        assert spec.layers[-1].kind == "softmax_xent"
        assert len(spec.layers) == 3

    def test_class_count_mismatch(self):
        cfg = ExperimentConfig(model=[{"kind": "global_mean_pool"},
                                      {"kind": "dense", "out_features": 7}])
        with pytest.raises(ConfigError, match="emits 7 classes"):
            build_model(cfg, classes=4, in_shape=(1, 4, 4))

    def test_bad_layer_kind(self):
        # the config's layer rule rejects it before any layer is built
        with pytest.raises(ConfigError, match=r"^model\[0\]\.kind must be one of "):
            ExperimentConfig(model=[{"kind": "attention"}])

    def test_model_shape_error_is_a_config_error(self):
        cfg = ExperimentConfig(model=[{"kind": "global_mean_pool"}, {"kind": "global_mean_pool"},
                                      {"kind": "dense", "out_features": None}])
        with pytest.raises(ConfigError, match=r"^model: 01_global_mean_pool: pool needs "):
            build_model(cfg, classes=4, in_shape=(1, 4, 4))

    POOLED_BN = [{"kind": "global_mean_pool"}, {"kind": "bn", "variant": "local"},
                 {"kind": "dense", "out_features": None}]

    @pytest.mark.parametrize("world, batch, group, variant, count", [
        (1, 1, None, "local", 1),     # one pooled value per channel
        (2, 1, None, "local", 1),     # local BN sees only the rank's batch
        (4, 1, 1, "cross", 1),        # a sub-group of one rank
    ])
    def test_bn_too_small_to_normalize(self, world, batch, group, variant, count):
        model = [dict(layer) for layer in self.POOLED_BN]
        model[1]["variant"] = variant
        cfg = ExperimentConfig(world_size=world, per_device_batch=batch,
                               bn_group_size=group, model=model)
        with pytest.raises(ConfigError,
                           match=f"^model layer 01_bn: .* {count} element per channel"):
            build_model(cfg, classes=4, in_shape=(1, 4, 4))

    @pytest.mark.parametrize("world, batch, group, variant, first", [
        (1, 2, None, "local", "global_mean_pool"),  # exactly 2 per channel
        (2, 1, None, "cross", "global_mean_pool"),  # 1 per rank, 2 over the group
        (4, 1, 2, "cross", "global_mean_pool"),
        (1, 1, None, "local", "conv3x3"),           # 1 image, 4x4 positions
    ])
    def test_bn_count_of_two_or_more_is_accepted(self, world, batch, group, variant, first):
        model = [dict(layer) for layer in self.POOLED_BN]
        model[1]["variant"] = variant
        if first == "conv3x3":
            model[0] = {"kind": "conv3x3", "out_channels": 2}
            model.insert(2, {"kind": "global_mean_pool"})
        cfg = ExperimentConfig(world_size=world, per_device_batch=batch,
                               bn_group_size=group, model=model)
        build_model(cfg, classes=4, in_shape=(1, 4, 4))

    # a 256-wide conv feeding a second one: per 8x8 image the second's patch
    # matrix holds 64 * 9 * 256 float64, 1,179,648 bytes
    WIDE_CONVS = [{"kind": "conv3x3", "out_channels": 256}, {"kind": "conv3x3", "out_channels": 2},
                  {"kind": "global_mean_pool"}, {"kind": "dense", "out_features": None}]
    # a dataset that holds every total batch the cap tests build, up to 3641
    FITS = {"size": 4096, "classes": 4}

    def test_patch_matrix_cap(self):
        per_image = 64 * 9 * 256 * 8
        largest = MAX_PATCH_BYTES // per_image
        assert largest == 227
        build_model(ExperimentConfig(per_device_batch=largest, model=self.WIDE_CONVS,
                                     dataset=self.FITS), classes=4, in_shape=(1, 8, 8))
        cfg = ExperimentConfig(world_size=4, per_device_batch=largest + 1, model=self.WIDE_CONVS,
                               dataset=self.FITS)
        with pytest.raises(ConfigError) as err:
            build_model(cfg, classes=4, in_shape=(1, 8, 8))
        assert str(err.value) == (
            f"model layer 01_conv3x3: per_device_batch 228 makes a {228 * per_image}-byte "
            f"patch matrix (batch * 8x8 * 9 * 256 channels * 8), more than {MAX_PATCH_BYTES}")

    def test_world_patch_matrix_cap(self):
        # the ranks are threads of one process, so their patch matrices add up
        per_image = 64 * 9 * 256 * 8
        largest = MAX_WORLD_PATCH_BYTES // (8 * per_image)
        assert largest == 113 and (largest + 1) * per_image < MAX_PATCH_BYTES
        build_model(ExperimentConfig(world_size=8, per_device_batch=largest,
                                     model=self.WIDE_CONVS, dataset=self.FITS),
                    classes=4, in_shape=(1, 8, 8))
        cfg = ExperimentConfig(world_size=8, per_device_batch=largest + 1, model=self.WIDE_CONVS,
                               dataset=self.FITS)
        with pytest.raises(ConfigError) as err:
            build_model(cfg, classes=4, in_shape=(1, 8, 8))
        assert str(err.value) == (
            f"model layer 01_conv3x3: world_size 8 ranks at per_device_batch 114 make "
            f"{8 * 114 * per_image} bytes of patch matrices, more than {MAX_WORLD_PATCH_BYTES}")

    def test_patch_matrix_cap_counts_the_image_size(self):
        # one input channel: 72 bytes per pixel, so 2**28 // (72 * 32 * 32) = 3640 images
        model = [{"kind": "conv3x3", "out_channels": 2}, {"kind": "global_mean_pool"},
                 {"kind": "dense", "out_features": None}]
        build_model(ExperimentConfig(per_device_batch=3640, model=model, dataset=self.FITS),
                    4, (1, 32, 32))
        cfg = ExperimentConfig(per_device_batch=3641, model=model, dataset=self.FITS)
        with pytest.raises(ConfigError, match="^model layer 00_conv3x3: per_device_batch 3641 "):
            build_model(cfg, 4, (1, 32, 32))

    def test_impossible_bn_fails_before_any_thread_starts(self, monkeypatch):
        def no_threads(*args, **kwargs):
            raise AssertionError("DeviceGroup.run was reached")
        monkeypatch.setattr(DeviceGroup, "run", no_threads)
        cfg = smoke_config(per_device_batch=1, model=self.POOLED_BN)
        with pytest.raises(ConfigError, match="01_bn"):
            run_training(cfg)

    def test_resolve_drops_the_ragged_tail(self):
        cfg = smoke_config(world_size=2, per_device_batch=8,
                           dataset={"size": 100, "classes": 4})
        res = resolve(cfg, resolve_dataset(cfg).spec)
        assert res.total_batch == 16
        assert res.iters_per_epoch == 6
        assert res.dropped_per_epoch == 4

    def test_warmup_defaults_to_one_epoch_when_short(self):
        cfg = ExperimentConfig(warmup_iters=None,
                               dataset={"size": 64, "classes": 4})
        res = resolve(cfg, resolve_dataset(cfg).spec)
        assert res.iters_per_epoch == 8
        assert res.warmup_iters == 8

    def test_warmup_default_caps_at_500(self):
        cfg = ExperimentConfig(per_device_batch=1, warmup_iters=None,
                               dataset={"size": 600, "classes": 4})
        res = resolve(cfg, resolve_dataset(cfg).spec)
        assert res.iters_per_epoch == 600
        assert res.warmup_iters == 500

    def test_epochs_default_to_the_policy_end(self):
        cfg = ExperimentConfig(dataset={"size": 64, "classes": 4})
        assert resolve(cfg, resolve_dataset(cfg).spec).epochs == 11
        cfg_long = ExperimentConfig(policy="long", dataset={"size": 64, "classes": 4})
        assert resolve(cfg_long, resolve_dataset(cfg_long).spec).epochs == 18
        cfg_short = ExperimentConfig(epochs=2, dataset={"size": 64, "classes": 4})
        assert resolve(cfg_short, resolve_dataset(cfg_short).spec).epochs == 2

    def test_resolved_serializes_the_policy(self):
        cfg = smoke_config()
        d = resolve(cfg, resolve_dataset(cfg).spec).as_dict()
        assert d["policy"]["actual_batch"] == 8
        assert d["policy"]["milestones"] == [[8, 0.1], [10, 0.1]]
        assert d["eval_size"] == 16


class TestMetricsAndWallModel:
    def test_header_is_pinned(self):
        assert csv_header(MetricsRow) == "epoch,iter,lr,task_loss,reg_loss,total_loss,eval_acc,wall_ms"

    def test_csv_line_formats_floats_and_blanks(self):
        row = MetricsRow(epoch=0, iter=1, lr=0.1, task_loss=1.5, reg_loss=None,
                         total_loss=None, eval_acc=None, wall_ms=8.0)
        assert csv_line(row) == "0,1,0.1,1.5,,,,8.0"

    def test_csv_line_keeps_full_float_precision(self):
        lr = 0.1 + 1e-17  # still 0.1 after rounding, repr must not truncate others
        row = MetricsRow(0, 0, lr, 1 / 3, 0.0, 1 / 3, None, 4.0)
        cells = csv_line(row).split(",")
        assert float(cells[3]) == 1 / 3
        assert cells[3] == repr(1 / 3)

    def test_round_counting_for_cross_bn(self):
        cfg = ExperimentConfig()
        model = build_model(cfg, 4, (1, 8, 8))
        # gradient exchange + (two-pass stats + backward sums) for one bn
        assert _count_allreduce_rounds(model, one_pass=False) == 4
        assert _count_allreduce_rounds(model, one_pass=True) == 3

    def test_local_bn_costs_no_collectives_beyond_gradients(self):
        spec = ModelSpec(layers=[
            LayerSpec(kind="conv3x3", out_channels=2),
            LayerSpec(kind="bn", variant="local"),
            LayerSpec(kind="global_mean_pool"),
            LayerSpec(kind="dense", out_features=4),
            LayerSpec(kind="softmax_xent"),
        ], in_shape=(1, 8, 8))
        assert _count_allreduce_rounds(spec, one_pass=False) == 1

    # a spatial and a pooled BN layer, each set to the case's variant
    TWO_BN = [{"kind": "conv3x3", "out_channels": 3}, {"kind": "bn"}, {"kind": "relu"},
              {"kind": "global_mean_pool"}, {"kind": "bn"}, {"kind": "dense", "out_features": None}]

    @pytest.mark.parametrize("variant,one_pass,group", [
        ("cross", False, None), ("cross", True, None), ("local", False, None), ("cross", False, 1)],
        ids=["cross-two-pass", "cross-one-pass", "local", "cross-group-1"])
    def test_counted_collectives_match_the_cost_model(self, monkeypatch, variant, one_pass, group):
        # through the bindings the bench counts; the checksum broadcast is
        # traffic the cost model leaves out
        calls = {"allreduce": Counter(), "broadcast": Counter()}

        def counting(kind, fn):
            def call(handle, *args):
                calls[kind][handle.rank] += 1  # one thread per rank
                return fn(handle, *args)
            return call

        for module in (trainer, batchnorm):
            monkeypatch.setattr(module, "allreduce_sum",
                                counting("allreduce", module.allreduce_sum))
        monkeypatch.setattr(trainer, "broadcast", counting("broadcast", trainer.broadcast))
        model = [dict(layer, variant=variant) if layer["kind"] == "bn" else layer
                 for layer in self.TWO_BN]
        cfg = smoke_config(world_size=4, per_device_batch=2, bn_group_size=group,
                           one_pass_bn=one_pass, epochs=2, checksum_interval=3, model=model,
                           dataset={"size": 40, "classes": 4, "height": 4, "width": 4})
        assert run_training(cfg).status == "ok"
        rounds = _count_allreduce_rounds(build_model(cfg, 4, (1, 4, 4)), one_pass)
        iters = 40 // 8  # per epoch; checked at iterations 0 and 3
        assert calls["allreduce"] == {rank: 2 * iters * rounds for rank in range(4)}
        assert calls["broadcast"] == {rank: 2 * math.ceil(iters / 3) for rank in range(4)}

    def test_single_device_pays_no_latency(self):
        cfg = ExperimentConfig(world_size=1, per_device_batch=8)
        assert iteration_wall_ms(cfg, allreduce_rounds=4) == 8.0

    def test_latency_grows_with_tree_depth(self):
        cfg = ExperimentConfig(world_size=8, per_device_batch=8)
        # (8-1).bit_length() = 3 rounds of 0.5 ms each, 4 reductions
        assert iteration_wall_ms(cfg, allreduce_rounds=4) == 8.0 + 4 * 0.5 * 3


class TestRunTraining:
    def test_smoke_run_learns(self):
        result = run_training(smoke_config(base_lr=0.2, epochs=8,
                                           dataset={"size": 128, "classes": 4}))
        assert result.status == "ok"
        assert result.diverged_at is None
        # 16 train rows + 1 eval row per epoch
        assert len(result.rows) == 8 * 17
        train = [r.task_loss for r in result.rows if r.task_loss is not None]
        assert len(train) == 128
        assert train[-1] < 0.5 * train[0]
        assert len(result.eval_history) == 8
        assert result.eval_history[-1][1] >= 0.6  # chance is 0.25
        assert result.final_params is not None

    def test_eval_history_is_the_eval_rows(self):
        diverging = {
            "world_size": 1, "per_device_batch": 8, "base_lr": 2000.0,
            "warmup_iters": 0, "momentum": 0.0, "epochs": 3,
            "model": [{"kind": "global_mean_pool"},
                      {"kind": "dense", "out_features": None}],
            "dataset": {"size": 128, "classes": 4, "height": 4, "width": 4},
        }
        ok = run_training(smoke_config(world_size=2, per_device_batch=4, epochs=2))
        diverged = run_training(ExperimentConfig.from_dict(diverging))
        assert (ok.status, diverged.status) == ("ok", "diverged")
        for result, epochs in ((ok, [0, 1]), (diverged, [])):
            evals = [r for r in result.rows if r.task_loss is None]
            assert result.eval_history == [(r.epoch, r.eval_acc) for r in evals]
            assert [epoch for epoch, _ in result.eval_history] == epochs

    def test_rows_follow_the_cost_model_and_schedule(self):
        cfg = smoke_config()
        result = run_training(cfg)
        res = resolve(cfg, resolve_dataset(cfg).spec)
        for row in result.rows:
            if row.task_loss is None:  # eval row
                assert row.iter == res.iters_per_epoch
                assert row.reg_loss is None and row.total_loss is None
                assert row.eval_acc is not None
                assert row.wall_ms == res.eval_size * 0.25
            else:
                assert row.lr == lr_at(res.policy, row.epoch, row.iter,
                                       res.iters_per_epoch)
                assert row.eval_acc is None
                assert row.wall_ms == 8.0  # world 1: no latency term
                assert row.total_loss == row.task_loss + row.reg_loss

    def test_reg_loss_is_the_pre_step_penalty(self):
        cfg = smoke_config(world_size=2, per_device_batch=4, epochs=1, weight_decay=0.01)
        ds = resolve_dataset(cfg)
        model = build_model(cfg, ds.spec.classes, (1, ds.spec.height, ds.spec.width))
        first = run_training(cfg).rows[0]
        assert (first.epoch, first.iter) == (0, 0)
        assert first.reg_loss == l2_penalty(init_params(model, cfg.seed), 0.01)
        assert first.reg_loss > 0.0

    def test_zero_weight_decay_reports_zero_reg_loss(self):
        rows = run_training(smoke_config(world_size=2, per_device_batch=4, epochs=1,
                                         weight_decay=0)).rows
        train = [r for r in rows if r.task_loss is not None]
        assert train and all(r.reg_loss == 0.0 for r in train)

    def test_identical_configs_produce_identical_bytes(self, tmp_path):
        cfg = smoke_config(epochs=2)
        a, b = tmp_path / "a", tmp_path / "b"
        write_outputs(run_training(cfg), a)
        write_outputs(run_training(smoke_config(epochs=2)), b)
        for name in ("metrics.csv", "manifest.json", "checkpoint.npz"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_seed_changes_the_trajectory(self):
        r0 = run_training(smoke_config(epochs=1))
        r1 = run_training(smoke_config(epochs=1, seed=1))
        t0 = [r.task_loss for r in r0.rows if r.task_loss is not None]
        t1 = [r.task_loss for r in r1.rows if r.task_loss is not None]
        assert t0 != t1

    def test_two_devices_match_one_device_at_equal_total_batch(self):
        # same total batch of 16, same seed: the two-device run shards the
        # identical permutation and its cross-device bn sees the same 16
        # samples, so the trajectories agree to roundoff
        wide = run_training(smoke_config(world_size=2, per_device_batch=8,
                                         epochs=2, checksum_interval=1))
        narrow = run_training(smoke_config(world_size=1, per_device_batch=16,
                                           epochs=2, checksum_interval=1))
        assert wide.status == narrow.status == "ok"
        lt_wide = [r for r in wide.rows if r.task_loss is not None]
        lt_narrow = [r for r in narrow.rows if r.task_loss is not None]
        assert len(lt_wide) == len(lt_narrow) == 8
        for a, b in zip(lt_wide, lt_narrow):
            assert a.lr == b.lr
            assert abs(a.task_loss - b.task_loss) <= 1e-9 * max(1.0, abs(b.task_loss))
        for (ea, aa), (eb, ab) in zip(wide.eval_history, narrow.eval_history):
            assert ea == eb and aa == ab

    def test_megdet_layout_matches_one_device(self):
        # MegDet's 2 images per device, at 64 devices, against one device at
        # the same total batch of 128, on the bench model: criterion 6's check
        model = [{"kind": "conv3x3", "out_channels": 6}, {"kind": "bn", "variant": "cross"},
                 {"kind": "relu"},
                 {"kind": "conv3x3", "out_channels": 6}, {"kind": "bn", "variant": "cross"},
                 {"kind": "relu"},
                 {"kind": "global_mean_pool"}, {"kind": "dense", "out_features": None}]
        base = dict(base_lr=0.10, base_batch=8, warmup_iters=32, epochs=1, model=model,
                    dataset={"size": 512, "classes": 4, "separation": 4.0, "eval_size": 64},
                    seed=0)
        t0 = time.perf_counter()
        wide = run_training(ExperimentConfig.from_dict(
            {**base, "world_size": 64, "per_device_batch": 2}))
        narrow = run_training(ExperimentConfig.from_dict(
            {**base, "world_size": 1, "per_device_batch": 128}))
        elapsed = time.perf_counter() - t0
        assert wide.status == narrow.status == "ok"
        lw = [r.task_loss for r in wide.rows if r.task_loss is not None]
        ln = [r.task_loss for r in narrow.rows if r.task_loss is not None]
        assert len(lw) == len(ln) == 4
        assert max(rel_err(a, b) for a, b in zip(lw, ln)) <= 1e-7
        assert wide.eval_history == narrow.eval_history
        assert elapsed < 30.0

    def test_bn_groups_train_like_devices_holding_a_group_each(self):
        # (world, g, B) against (world / g, 1, g * B): each BN group's shards
        # are contiguous slices of one permutation, so by concat-equivalence
        # the groups normalize what the wider devices do; g = 1 would compare
        # a run with itself
        @settings(max_examples=16, derandomize=True, deadline=None, database=None)
        @given(layout=st.sampled_from([(w, g) for w in (2, 4, 8) for g in (2, 4, 8)
                                       if w % g == 0]),
               batch=st.integers(1, 3), one_pass=st.booleans(),
               convs=st.integers(1, 2), bn_after_pool=st.booleans())
        def check(layout, batch, one_pass, convs, bn_after_pool):
            (world, g), cross = layout, {"kind": "bn", "variant": "cross"}
            model = [*[layer for _ in range(convs) for layer in (
                {"kind": "conv3x3", "out_channels": 3}, cross, {"kind": "relu"})],
                {"kind": "global_mean_pool"}, *([cross] if bn_after_pool else []),
                {"kind": "dense", "out_features": None}]
            base = dict(base_lr=0.1, base_batch=8, warmup_iters=2, epochs=1, model=model,
                        one_pass_bn=one_pass, seed=world * 10 + batch,
                        dataset={"size": 4 * world * batch, "classes": 2, "eval_size": 8,
                                 "height": 4, "width": 4})
            wide = run_training(ExperimentConfig.from_dict(
                {**base, "world_size": world, "bn_group_size": g, "per_device_batch": batch}))
            narrow = run_training(ExperimentConfig.from_dict(
                {**base, "world_size": world // g, "bn_group_size": 1,
                 "per_device_batch": g * batch}))
            assert wide.status == narrow.status == "ok"
            lw = [r.task_loss for r in wide.rows if r.task_loss is not None]
            ln = [r.task_loss for r in narrow.rows if r.task_loss is not None]
            assert len(lw) == len(ln) == 4
            assert max(rel_err(a, b) for a, b in zip(lw, ln)) <= 1e-10
            assert wide.eval_history == narrow.eval_history
            assert wide.final_buffers.keys() == narrow.final_buffers.keys()
            for key, a in wide.final_buffers.items():
                assert rel_err(a, narrow.final_buffers[key]) <= 1e-10, key

        check()

    def test_one_pass_bn_changes_cost_not_outcome(self):
        two_pass = run_training(smoke_config(world_size=2, per_device_batch=4,
                                             epochs=1))
        one_pass = run_training(smoke_config(world_size=2, per_device_batch=4,
                                             epochs=1, one_pass_bn=True))
        a = [r.task_loss for r in two_pass.rows if r.task_loss is not None]
        b = [r.task_loss for r in one_pass.rows if r.task_loss is not None]
        np.testing.assert_allclose(a, b, rtol=1e-9)
        wall_two = two_pass.manifest["wall_model_ms"]["per_iteration"]
        wall_one = one_pass.manifest["wall_model_ms"]["per_iteration"]
        assert wall_one == wall_two - 0.5  # one fewer reduction round

    def test_checksum_interval_zero_disables_the_check(self):
        result = run_training(smoke_config(world_size=2, per_device_batch=4,
                                           epochs=1, checksum_interval=0))
        assert result.status == "ok"

    def test_manifest_contents(self):
        cfg = smoke_config(epochs=2)
        result = run_training(cfg)
        m = result.manifest
        assert set(m) == {"config", "resolved", "model", "dataset_hash",
                          "dataset_spec", "status", "diverged_at", "wall_model_ms"}
        assert m["status"] == "ok"
        assert m["diverged_at"] is None
        assert m["config"] == asdict(cfg)
        # config section must round-trip through the validator unchanged
        assert asdict(ExperimentConfig.from_dict(m["config"])) == m["config"]
        assert m["dataset_hash"] == resolve_dataset(cfg).content_hash()
        assert m["resolved"]["iters_per_epoch"] == 8
        assert m["resolved"]["dropped_per_epoch"] == 0
        assert m["model"][-1]["kind"] == "softmax_xent"
        assert m["wall_model_ms"]["per_iteration"] == 8.0
        assert m["wall_model_ms"]["sample_step_ms"] == 1.0

    def test_written_files(self, tmp_path):
        cfg = smoke_config(epochs=1)
        result = run_training(cfg)
        write_outputs(result, tmp_path / "run")
        csv = (tmp_path / "run" / "metrics.csv").read_text().splitlines()
        assert csv[0] == csv_header(MetricsRow)
        assert len(csv) == 1 + 9
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest == result.manifest
        with np.load(tmp_path / "run" / "checkpoint.npz") as ckpt:
            keys = set(ckpt.files)
            assert "param/00_conv3x3.w" in keys
            assert "buffer/01_bn.running_mean" in keys
            for k, v in result.final_params.items():
                np.testing.assert_array_equal(ckpt[f"param/{k}"], v)

    def test_divergent_run_reports_and_stops(self, tmp_path):
        cfg = ExperimentConfig.from_dict({
            "world_size": 1, "per_device_batch": 8, "base_lr": 2000.0,
            "warmup_iters": 0, "momentum": 0.0, "epochs": 3,
            "model": [{"kind": "global_mean_pool"},
                      {"kind": "dense", "out_features": None}],
            "dataset": {"size": 128, "classes": 4, "height": 4, "width": 4},
            "seed": 0,
        })
        result = run_training(cfg)
        assert result.status == "diverged"
        assert result.diverged_at == "epoch 0 iter 2: loss became non-finite"
        assert result.manifest["status"] == "diverged"
        # the blow-up happened mid-allreduce, so no trustworthy state exists
        assert result.final_params is None
        write_outputs(result, tmp_path / "run")
        assert (tmp_path / "run" / "metrics.csv").read_text() == csv_header(MetricsRow) + "\n"
        assert not (tmp_path / "run" / "checkpoint.npz").exists()

    def test_trained_params_are_views_of_one_buffer(self):
        result = run_training(smoke_config(world_size=2, per_device_batch=4, epochs=1))
        params = result.final_params
        flat = next(iter(params.values())).base
        assert flat.ndim == 1 and flat.size == sum(v.size for v in params.values())
        for key, value in params.items():
            assert value.base is flat and value.flags.c_contiguous, key

    def test_divergence_is_clean_across_devices(self):
        cfg = ExperimentConfig.from_dict({
            "world_size": 2, "per_device_batch": 4, "base_lr": 2000.0,
            "warmup_iters": 0, "momentum": 0.0, "epochs": 3,
            "model": [{"kind": "global_mean_pool"},
                      {"kind": "dense", "out_features": None}],
            "dataset": {"size": 128, "classes": 4, "height": 4, "width": 4},
            "seed": 0,
        })
        # both replicas see the same averaged loss, so they stop together
        # instead of deadlocking in a half-entered collective
        result = run_training(cfg)
        assert result.status == "diverged"
        assert "loss became non-finite" in result.diverged_at


    def test_one_rank_diverging_alone_names_the_run(self, monkeypatch):
        # rank 1 blows up mid-forward while rank 0 waits in cross-BN for it:
        # the group names rank 1's error, and rank 0 only saw the abort
        aborted = {}
        real_forward = trainer.forward

        def forward(rank_plan, *args, **kwargs):  # each worker passes its plan
            handle = rank_plan.handle
            if handle.rank == 1:
                raise NonFiniteError("injected on rank 1")
            try:
                return real_forward(rank_plan, *args, **kwargs)
            except CollectiveProtocolError as e:
                aborted[handle.rank] = e
                raise
        monkeypatch.setattr(trainer, "forward", forward)
        result = run_training(smoke_config(world_size=2, per_device_batch=4, epochs=1))
        assert result.status == "diverged"
        assert result.diverged_at == "epoch 0 iter 0: injected on rank 1"
        assert result.final_params is None and result.rows == []
        assert list(aborted) == [0] and aborted[0].from_abort
        assert "rank 1 failed with DivergenceError" in str(aborted[0])

    def test_bn_state_is_built_once_per_worker(self, monkeypatch):
        # each worker's plan builds one state per BN layer for all its steps,
        # and rank 0's eval forward, once an epoch, runs on that plan
        import bigbatch.model as model_module
        built = []

        class CountingState(model_module.BNLayerState):
            def __post_init__(self):
                built.append(self)
                super().__post_init__()
        monkeypatch.setattr(model_module, "BNLayerState", CountingState)
        result = run_training(smoke_config(world_size=2, per_device_batch=4, epochs=2))
        assert result.status == "ok"
        assert len(result.rows) == 2 * (64 // 8 + 1)  # 8 steps and one eval an epoch
        assert len(built) == 2  # one BN layer: two workers

    def test_training_constructs_no_tensor(self, monkeypatch):
        # every batch and the eval set are slices of a checked dataset: no
        # copy and rescan through Tensor(...), on any rank or in the eval
        calls = []
        real_init = Tensor.__init__

        def counted(self, *args, **kwargs):
            calls.append(args)
            real_init(self, *args, **kwargs)
        monkeypatch.setattr(Tensor, "__init__", counted)
        result = run_training(smoke_config(world_size=2, per_device_batch=4, epochs=2))
        assert result.status == "ok" and len(result.eval_history) == 2
        assert calls == []


# the bench's model (bench/workloads.py)
BENCH_MODEL = [{"kind": "conv3x3", "out_channels": 6}, {"kind": "bn", "variant": "cross"},
               {"kind": "relu"}, {"kind": "conv3x3", "out_channels": 6},
               {"kind": "bn", "variant": "cross"}, {"kind": "relu"},
               {"kind": "global_mean_pool"}, {"kind": "dense", "out_features": None}]


def test_fortran_ordered_dataset_trains_to_the_same_bytes(tmp_path):
    # the trainer hands the model the dataset's images without a copy, in
    # whatever layout `np.load` gives them; the model's entry converts them
    ds = generate_dataset(DatasetSpec(size=64, classes=4), 0)
    save_dataset(ds, tmp_path / "c")
    save_dataset(ds, tmp_path / "f")
    for key in ("images", "eval_images"):
        np.save(tmp_path / "f" / f"{key}.npy", np.asfortranarray(getattr(ds, key)))
    c, f = (run_training(smoke_config(world_size=2, per_device_batch=4, epochs=2,
                                      dataset={"dir": str(tmp_path / d)})) for d in "cf")
    assert f.rows == c.rows and f.eval_history == c.eval_history
    assert {k: v.tobytes() for k, v in f.final_params.items()} == {
        k: v.tobytes() for k, v in c.final_params.items()}


class TestEvalChunks:
    """Rank 0's eval forwards at most `EVAL_ROWS` pixel rows at a time."""

    def test_eval_forwards_stay_within_the_row_limit(self, monkeypatch):
        sizes = []
        real_forward = trainer.forward

        def forward(rank_plan, x, *args, mode="train", **kwargs):
            if mode == "eval":
                sizes.append(x.shape[0])
            return real_forward(rank_plan, x, *args, mode=mode, **kwargs)
        monkeypatch.setattr(trainer, "forward", forward)
        config = smoke_config(epochs=2, dataset={"size": 64, "classes": 4, "eval_size": 100})
        result = run_training(config)
        assert trainer.EVAL_ROWS == 4096 and sizes == [64, 36] * 2  # 8x8 images, per epoch
        sizes.clear()
        monkeypatch.setattr(trainer, "EVAL_ROWS", 100 * 64)  # one forward of all 100
        reference = run_training(config)
        assert sizes == [100] * 2
        assert result.eval_history == reference.eval_history and result.rows == reference.rows

    @pytest.mark.parametrize("layers, hw, n", [(BENCH_MODEL, (8, 8), 256),
                                               (WIDTH_ONE_CONV, (5, 7), 333)])
    def test_chunked_logits_are_bitwise_one_call(self, layers, hw, n):
        h, w = hw
        model = build_model(smoke_config(model=layers), 4, (1, h, w))
        rng = np.random.default_rng(7)
        params, buffers = init_params(model, 3), init_buffers(model)
        for v in buffers.values():  # running statistics away from their init
            v[...] = rng.uniform(0.5, 1.5, v.shape)
        rank_plan = plan(model, params, buffers)
        x = rng.standard_normal((n, 1, h, w))
        step = trainer.EVAL_ROWS // (h * w)
        chunks = [Tensor(x[i:i + step]) for i in range(0, n, step)]
        assert len(chunks) in (3, 4)
        chunked = trainer.eval_logits(rank_plan, chunks)
        whole = forward(rank_plan, Tensor(x), mode="eval").logits
        assert chunked.tobytes() == whole.tobytes()


class TestLocalBNIsThePathology:
    """Why replica checks watch params only: local-variant bn buffers are
    expected to drift apart across devices, and that is the failure mode
    cross-device bn exists to remove."""

    def _one_step(self, variant):
        spec = ModelSpec(layers=[
            LayerSpec(kind="conv3x3", out_channels=2),
            LayerSpec(kind="bn", variant=variant),
            LayerSpec(kind="relu"),
            LayerSpec(kind="global_mean_pool"),
            LayerSpec(kind="dense", out_features=3),
            LayerSpec(kind="softmax_xent"),
        ], in_shape=(1, 4, 4))
        group = DeviceGroup(2)

        def worker(h):
            params = init_params(spec, seed=5)
            buffers = init_buffers(spec)
            sgd = SGDState.create(params, momentum=0.9, weight_decay=0.0)
            rng = np.random.default_rng((11, h.rank))
            x = Tensor(rng.normal(size=(6, 1, 4, 4)))
            y = rng.integers(0, 3, size=6)
            rank_plan = plan(spec, params, buffers, h)
            out = forward(rank_plan, x, y, mode="train")
            grads = backward(rank_plan, out.caches)
            keys = sorted(grads)
            flat = np.concatenate([grads[k].ravel() for k in keys])
            mean = allreduce_sum(h, SCOPE_WORLD, flat) / 2
            off = 0
            for k in keys:
                n = params[k].size
                grads[k] = mean[off:off + n].reshape(params[k].shape)
                off += n
            sgd_step(params, grads, sgd, lr=0.1)
            return params, buffers

        return group.run(worker)

    @pytest.mark.parametrize("variant", ["local", "cross"])
    def test_params_stay_identical_either_way(self, variant):
        (p0, _), (p1, _) = self._one_step(variant)
        for k in p0:
            np.testing.assert_array_equal(p0[k], p1[k])

    def test_local_running_stats_drift_apart(self):
        (_, b0), (_, b1) = self._one_step("local")
        assert not np.allclose(b0["01_bn.running_mean"], b1["01_bn.running_mean"])

    def test_cross_running_stats_agree_bitwise(self):
        (_, b0), (_, b1) = self._one_step("cross")
        for k in b0:
            np.testing.assert_array_equal(b0[k], b1[k])
