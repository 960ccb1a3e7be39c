"""Experiment config, divergence handling, and end-to-end training runs.

The integration tests here stay deliberately tiny (8x8 images, a handful
of epochs) so the whole file runs in seconds; the heavyweight parity and
accuracy checks live in test_acceptance.py.
"""

import json
from dataclasses import asdict

import numpy as np
import pytest

from bigbatch import (
    CSV_HEADER,
    ConfigError,
    DeviceGroup,
    DivergenceError,
    DivergenceMonitor,
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
    run_training,
    sgd_step,
    write_outputs,
    SGDState,
    Tensor,
)
from bigbatch import trainer
from bigbatch.collectives import CollectiveProtocolError
from bigbatch.model import ModelSpec, LayerSpec
from bigbatch.schema import csv_line
from bigbatch.tensor import NonFiniteError
from bigbatch.trainer import (
    _count_allreduce_rounds,
    build_model,
    iteration_wall_ms,
    resolve,
    resolve_dataset,
)

from helpers import rank_outcomes


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


class TestDivergenceMonitor:
    def test_defaults(self):
        m = DivergenceMonitor()
        assert m.factor == 1e3
        assert m.streak == 100

    def test_non_finite_raises_naming_the_iteration(self):
        m = DivergenceMonitor()
        m.observe(1.0)
        with pytest.raises(DivergenceError, match="epoch 2 iter 7"):
            m.observe(float("nan"), "epoch 2 iter 7")
        with pytest.raises(DivergenceError):
            DivergenceMonitor().observe(float("inf"), "start")

    def test_trips_on_exactly_the_streak_th_high_loss(self):
        m = DivergenceMonitor(factor=10.0, streak=5)
        assert m.observe(1.0) is False  # sets the baseline
        for _ in range(4):
            assert m.observe(50.0) is False
        assert m.observe(50.0) is True

    def test_recovery_resets_the_count(self):
        m = DivergenceMonitor(factor=10.0, streak=3)
        m.observe(1.0)
        m.observe(100.0)
        m.observe(100.0)
        assert m.observe(2.0) is False  # back under the bar
        m.observe(100.0)
        m.observe(100.0)
        assert m.observe(100.0) is True

    def test_threshold_is_relative_to_the_first_loss(self):
        m = DivergenceMonitor(factor=10.0, streak=1)
        m.observe(3.0)
        assert m.observe(29.9) is False
        assert m.observe(30.1) is True

    def test_magnitude_not_sign(self):
        m = DivergenceMonitor(factor=10.0, streak=1)
        m.observe(-2.0)
        assert m.observe(-21.0) is True

    def test_zero_initial_loss_does_not_blow_up(self):
        # the baseline gets floored at the smallest positive float, so any
        # later nonzero loss counts as runaway rather than dividing by zero
        m = DivergenceMonitor(factor=10.0, streak=1)
        assert m.observe(0.0) is False
        assert m.observe(1e-300) is True


class TestReplicaSync:
    def test_matching_replicas_pass(self):
        group = DeviceGroup(2)

        def worker(h):
            params = {"w": np.arange(6.0).reshape(2, 3), "b": np.zeros(3)}
            check_replica_sync(h, params, "epoch 0 iter 0")
            return "ok"

        assert group.run(worker) == ["ok", "ok"]

    def test_drifted_replica_is_named(self):
        group = DeviceGroup(2)

        def worker(h):
            params = {"w": np.ones((2, 2))}
            if h.rank == 1:
                params["w"] = params["w"] + 1e-12
            check_replica_sync(h, params, "epoch 1 iter 4")
            return "ok"

        out = rank_outcomes(group, worker)
        assert out[0] == "ok"
        assert isinstance(out[1], TrainerError)
        assert "rank 1" in str(out[1])
        assert "epoch 1 iter 4" in str(out[1])


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
        cfg = ExperimentConfig(world_size=0, base_lr=-1.0, momentum=1.5)
        with pytest.raises(ConfigError) as e:
            cfg.validate()
        msg = str(e.value)
        assert "world_size" in msg
        assert "base_lr" in msg
        assert "momentum" in msg

    def test_bn_group_must_divide_world(self):
        with pytest.raises(ConfigError, match="divide"):
            ExperimentConfig(world_size=4, bn_group_size=3).validate()

    def test_dataset_smaller_than_total_batch(self):
        cfg = ExperimentConfig(world_size=4, per_device_batch=16,
                               dataset={"size": 32, "classes": 4})
        with pytest.raises(ConfigError, match="smaller than the total batch"):
            cfg.validate()

    def test_bad_policy_name(self):
        with pytest.raises(ConfigError, match="policy"):
            ExperimentConfig(policy="cosine").validate()

    def test_dataset_spec_errors_surface(self):
        with pytest.raises(ConfigError, match="dataset spec"):
            ExperimentConfig(dataset={"size": 64, "classes": 1}).validate()
        with pytest.raises(ConfigError, match="mapping"):
            ExperimentConfig(dataset=[64, 4]).validate()

    def test_dataset_dir_skips_spec_validation(self):
        # pointing at a directory defers all checks to load time
        ExperimentConfig(dataset={"dir": "/nonexistent/for/now"}).validate()

    def test_from_json(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"world_size": 2, "per_device_batch": 4}))
        cfg = ExperimentConfig.from_json(p)
        assert cfg.total_batch == 8

        with pytest.raises(ConfigError, match="not found"):
            ExperimentConfig.from_json(tmp_path / "missing.json")
        (tmp_path / "broken.json").write_text("{nope")
        with pytest.raises(ConfigError, match="not valid JSON"):
            ExperimentConfig.from_json(tmp_path / "broken.json")
        (tmp_path / "list.json").write_text("[1, 2]")
        with pytest.raises(ConfigError, match="JSON object"):
            ExperimentConfig.from_json(tmp_path / "list.json")


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
        cfg = ExperimentConfig(model=[{"kind": "attention"}])
        with pytest.raises(ConfigError, match="model layer"):
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
        assert CSV_HEADER == "epoch,iter,lr,task_loss,reg_loss,total_loss,eval_acc,wall_ms"

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
        assert csv[0] == CSV_HEADER
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
        assert (tmp_path / "run" / "metrics.csv").read_text() == CSV_HEADER + "\n"
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

        def forward(*args, handle=None, **kwargs):
            if handle is not None and handle.rank == 1:
                raise NonFiniteError("injected on rank 1")
            try:
                return real_forward(*args, handle=handle, **kwargs)
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
            out = forward(spec, params, buffers, x, y, mode="train", handle=h)
            grads = backward(spec, params, out.caches, handle=h)
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
