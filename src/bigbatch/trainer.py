"""Deterministic data-parallel training runs on the simulated device group.

An ExperimentConfig is frozen and checks itself when it is made (see
`schema`), once per command: `--seed` replaces the file's seed first. From
it the orchestrator builds the dataset, model, and schedule; it spawns one
worker per device and owns all file output. A failed worker or a deadlock
in the collectives ends the run at once with the error `DeviceGroup.run`
names; if that is a DivergenceError (a rank's loss, activation or update
went non-finite), the run's status is `diverged`. A slow worker is waited
for. The dataset's images are finite, so each batch goes to the model as
is. Each worker builds one model `RankPlan` and runs every step on it; the
plan's BN layers update the worker's running-statistics buffers in place,
and rank 0 evaluates on its plan once an epoch, one forward per chunk of
at most `EVAL_ROWS` pixel rows, so the conv patch matrix stays
cache-sized. Workers keep identical parameter replicas: every iteration
they compute gradients on their shard, average them with a world
AllReduce, and apply the same SGD step. The AllReduce payload is the
gradients in the optimizer's sorted-key order followed by the task loss,
so the mean's gradient part is already in the layout of the replica's flat
parameter buffer and goes to `sgd_step` as one vector. Sharding is a
seeded epoch permutation split into contiguous per-rank slices, which is
what makes an n-device run directly comparable to a single device training
on the concatenated batch.

Every byte of the output files (metrics CSV, manifest, checkpoint) is a
function of the config alone. The wall_ms column therefore reports a
fixed idealized cost model, not measured time; measured duration goes to
stdout only.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, asdict
from functools import cached_property
from pathlib import Path

import numpy as np

from .collectives import (
    SCOPE_WORLD,
    WORLD_SIZE,
    DeviceGroup,
    allreduce_sum,
    broadcast,
)
from .data import DataError, Dataset, DatasetSpec, generate_dataset, load_dataset
from .model import (
    LayerSpec,
    ModelSpec,
    ModelError,
    accuracy,
    backward,
    forward,
    init_buffers,
    init_params,
    plan,
)
from .optim import (
    BATCH,
    POLICY,
    RATE,
    DivergenceError,
    LRPolicy,
    SGDState,
    default_warmup_iters,
    l2_penalty,
    lr_at,
    make_policy,
    sgd_step,
)
from .schema import (SEED, array, boolean, check_fields, csv_text, integer,
                     json_text, keyed, load, mapping, number, ruled, string)
from .tensor import NonFiniteError, Tensor

# Idealized per-iteration cost model (documented, deterministic):
# a training step costs SAMPLE_STEP_MS per local sample plus one latency
# term per AllReduce round; evaluation costs SAMPLE_EVAL_MS per sample.
SAMPLE_STEP_MS = 1.0
SAMPLE_EVAL_MS = 0.25
ALLREDUCE_ROUND_MS = 0.5

# Rank 0 evaluates at most this many pixel rows per forward: at 8x8 images the
# conv patch matrix stays near 1.8 MB instead of 7.1 MB for 256 images at once.
EVAL_ROWS = 4096
# The largest conv patch matrix a rank's training forward may build and keep
# until backward forms its same-sized gradient: per_device_batch * H * W * 9 *
# C_in float64. 2**28 bytes (256 MiB) is 151 times the bench model's 1.8 MB (64
# 8x8 images into 6 channels), 75 times the largest test's 3.5 MB (128 images).
MAX_PATCH_BYTES = 2**28
# Every rank is a thread of one process, so the world's patch matrices add up:
# world_size times the per-rank figure, at most 2**30 bytes (1 GiB), 606 times
# the bench's largest total (1.8 MB), 303 times the largest test's (3.5 MB).
MAX_WORLD_PATCH_BYTES = 2**30

DEFAULT_MODEL = (
    {"kind": "conv3x3", "out_channels": 4},
    {"kind": "bn", "variant": "cross"},
    {"kind": "relu"},
    {"kind": "global_mean_pool"},
    {"kind": "dense", "out_features": None},  # None: filled with the class count
)


class ConfigError(ValueError):
    """One or more invalid experiment-config fields."""


class TrainerError(RuntimeError):
    """Replica-consistency violation or orchestration failure."""


def read_json_object(path) -> dict:
    """Parse a JSON config file whose root must be an object."""
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except OSError as e:
        raise ConfigError(f"config file {path} cannot be read: {e.strerror}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise ConfigError(f"config file {path} is not valid JSON: {e}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"config root must be a JSON object, got {type(raw).__name__}")
    return raw


@dataclass(frozen=True)
class ExperimentConfig:
    # parallel layout
    world_size: int = ruled(WORLD_SIZE, 1)
    per_device_batch: int = ruled(integer(gt=0), 8)
    bn_group_size: int | None = ruled(integer(gt=0, null=True), None)  # None: world_size
    # schedule
    policy: str = ruled(POLICY, "normal")
    base_lr: float = ruled(RATE, 0.02)
    base_batch: int = ruled(BATCH, 16)
    warmup_iters: int | None = ruled(integer(ge=0, null=True), None)  # None: min(500, one epoch)
    half_lr: bool = ruled(boolean(), False)
    epochs: int | None = ruled(integer(gt=0, null=True), None)  # None: the policy's end epoch
    # optimizer
    momentum: float = ruled(number(ge=0, lt=1), 0.9)
    weight_decay: float = ruled(number(ge=0), 1e-4)
    # model and data
    model: list | None = ruled(array(mapping(LayerSpec), null=True), None)  # None: small conv net
    one_pass_bn: bool = ruled(boolean(), False)
    dataset: dict = ruled(keyed("dir", mapping({"dir": string()}),  # a saved dataset, or a spec
                                mapping(DatasetSpec, label="dataset spec")),
                          default_factory=lambda: {"size": 256, "classes": 4})
    # run plumbing
    seed: int = ruled(SEED, 0)
    out_dir: str | None = ruled(string(null=True), None)
    # the replica check runs where this divides the iteration index in the epoch; 0: never
    checksum_interval: int = ruled(integer(ge=0), 10)

    @property
    def total_batch(self) -> int:
        return self.world_size * self.per_device_batch

    @property
    def bn_group(self) -> int:
        return self.world_size if self.bn_group_size is None else self.bn_group_size

    @cached_property  # not a field: asdict and the manifest leave it out
    def dataset_spec(self) -> DatasetSpec | None:
        """The generator spec, built once per config; None for a saved dataset."""
        if "dir" in self.dataset:
            return None
        try:
            return DatasetSpec(**self.dataset)
        except DataError as e:
            raise ConfigError(f"dataset spec: {e}") from None

    def __post_init__(self):
        check_fields(self, ConfigError)
        if self.world_size % self.bn_group != 0:
            raise ConfigError(f"bn_group_size {self.bn_group} must divide world_size "
                              f"{self.world_size}")
        if self.dataset_spec is not None and self.dataset_spec.size < self.total_batch:
            raise ConfigError(f"dataset size {self.dataset_spec.size} is smaller than the "
                              f"total batch {self.total_batch}")

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        return load(cls, raw, ConfigError)


def resolve_dataset(config: ExperimentConfig) -> Dataset:
    if config.dataset_spec is None:
        return load_dataset(config.dataset["dir"])
    return generate_dataset(config.dataset_spec, config.seed)


def build_model(config: ExperimentConfig, classes: int, in_shape: tuple) -> ModelSpec:
    """ModelSpec from the config's layer dicts, loss head appended.

    Rejects a BN layer that could not normalize in training: fewer than two
    elements per channel under the config's batch and BN group size. Rejects
    a conv whose patch matrix on one rank would exceed MAX_PATCH_BYTES, or
    whose patch matrices over the world would exceed MAX_WORLD_PATCH_BYTES.
    """
    raw = config.model if config.model is not None else [dict(d) for d in DEFAULT_MODEL]
    layers = []
    for entry in raw:
        entry = dict(entry)
        if entry.get("kind") == "dense" and entry.get("out_features") is None:
            entry["out_features"] = classes
        entry.pop("name", None)
        try:
            layers.append(LayerSpec(**entry))
        except ModelError as e:
            raise ConfigError(f"model layer {entry}: {e}") from None
    if not layers or layers[-1].kind != "softmax_xent":
        layers.append(LayerSpec(kind="softmax_xent"))
    try:
        spec = ModelSpec(layers=layers, in_shape=in_shape)
    except ModelError as e:
        raise ConfigError(f"model: {e}") from None
    if spec.classes != classes:
        raise ConfigError(
            f"model emits {spec.classes} classes but the dataset has {classes}")
    for layer, (ishape, _) in zip(spec.layers, spec.shapes):
        if layer.kind == "conv3x3":
            patch = config.per_device_batch * int(np.prod(ishape)) * 9 * 8
            if patch > MAX_PATCH_BYTES:
                raise ConfigError(
                    f"model layer {layer.name}: per_device_batch {config.per_device_batch} "
                    f"makes a {patch}-byte patch matrix (batch * {ishape[1]}x{ishape[2]} "
                    f"* 9 * {ishape[0]} channels * 8), more than {MAX_PATCH_BYTES}")
            if config.world_size * patch > MAX_WORLD_PATCH_BYTES:
                raise ConfigError(
                    f"model layer {layer.name}: world_size {config.world_size} ranks at "
                    f"per_device_batch {config.per_device_batch} make {config.world_size * patch} "
                    f"bytes of patch matrices, more than {MAX_WORLD_PATCH_BYTES}")
        if layer.kind != "bn":
            continue
        # per-channel elements a training step normalizes over: the rank's
        # batch times the spatial extent, times the sub-group for cross BN
        count = config.per_device_batch * int(np.prod(ishape[1:]))
        if layer.variant == "cross":
            count *= config.bn_group
        if count < 2:
            raise ConfigError(
                f"model layer {layer.name}: training-mode bn normalizes {count} element "
                "per channel, needs at least 2")
    return spec


@dataclass
class Resolved:
    """Every default made explicit; serialized into the run manifest."""

    bn_group_size: int
    total_batch: int
    iters_per_epoch: int
    dropped_per_epoch: int
    epochs: int
    warmup_iters: int
    policy: LRPolicy
    eval_size: int

    def as_dict(self) -> dict:
        d = asdict(self)  # milestones as lists, as the manifest file reads them back
        d["policy"]["milestones"] = [list(m) for m in self.policy.milestones]
        return d


def resolve(config: ExperimentConfig, spec: DatasetSpec) -> Resolved:
    total = config.total_batch
    if spec.size < total:
        raise ConfigError(
            f"dataset size {spec.size} is smaller than the total batch {total}")
    iters = spec.size // total
    warmup = (default_warmup_iters(iters) if config.warmup_iters is None
              else config.warmup_iters)
    policy = make_policy(config.policy, actual_batch=total, base_lr=config.base_lr,
                         base_batch=config.base_batch, warmup_iters=warmup,
                         half_lr=config.half_lr)
    return Resolved(
        bn_group_size=config.bn_group,
        total_batch=total,
        iters_per_epoch=iters,
        dropped_per_epoch=spec.size - iters * total,
        epochs=policy.end_epoch if config.epochs is None else config.epochs,
        warmup_iters=warmup,
        policy=policy,
        eval_size=spec.resolved_eval_size(),
    )


@dataclass
class MetricsRow:
    epoch: int
    iter: int
    lr: float
    task_loss: float | None
    reg_loss: float | None
    total_loss: float | None
    eval_acc: float | None
    wall_ms: float


def iteration_wall_ms(config: ExperimentConfig, allreduce_rounds: int) -> float:
    latency = ALLREDUCE_ROUND_MS * (config.world_size - 1).bit_length()
    return config.per_device_batch * SAMPLE_STEP_MS + allreduce_rounds * latency


def check_replica_sync(handle, flat_params: np.ndarray, context: str) -> None:
    """Raise TrainerError if this rank's parameter bytes differ from rank 0's.

    `flat_params` is the replica's one parameter buffer (`SGDState.flat_params`),
    whose CRC-32 is the checksum. Every rank in the world scope must call this
    together; rank 0 broadcasts its checksum and the others compare. Catches
    silent replica drift (a missed gradient exchange, a stray in-place edit)
    close to where it happened instead of at the end of the run.
    """
    crc = zlib.crc32(flat_params)
    ref = broadcast(handle, SCOPE_WORLD, 0,
                    np.array([float(crc)]) if handle.rank == 0 else None)
    if int(ref[0]) != crc:
        raise TrainerError(
            f"replica checksum mismatch on rank {handle.rank} at {context}")


@dataclass
class TrainResult:
    status: str                      # "ok" or "diverged"
    rows: list
    eval_history: list               # (epoch, accuracy) of each eval row
    final_params: dict | None
    final_buffers: dict | None
    diverged_at: str | None
    manifest: dict
    measured_wall_s: float


def _count_allreduce_rounds(model: ModelSpec, one_pass: bool) -> int:
    """Allreduce rounds a rank makes per iteration, under the wall-clock cost model.

    The replica checksum broadcast, one round at each iteration whose index
    within the epoch is a multiple of `checksum_interval`, is left out:
    `wall_ms` does not depend on that setting.
    """
    rounds = 1  # gradient AllReduce
    per_bn = 2 if not one_pass else 1
    for layer in model.layers:
        if layer.kind == "bn" and layer.variant == "cross":
            rounds += per_bn + 1  # forward stats + backward sums
    return rounds


def eval_logits(rank_plan, chunks: list) -> np.ndarray:
    """Eval-mode logits of the chunks' images in order, one `forward` per chunk."""
    return np.concatenate([forward(rank_plan, x, mode="eval").logits for x in chunks])


def run_training(config: ExperimentConfig) -> TrainResult:
    """Execute one experiment; pure computation, no file output here."""
    import time

    t0 = time.perf_counter()
    dataset = resolve_dataset(config)
    res = resolve(config, dataset.spec)
    model = build_model(config, dataset.spec.classes,
                        (1, dataset.spec.height, dataset.spec.width))
    iter_ms = iteration_wall_ms(config, _count_allreduce_rounds(model, config.one_pass_bn))
    eval_ms = res.eval_size * SAMPLE_EVAL_MS
    world = config.world_size

    # finite since the dataset was made; each batch slice below is a fresh copy
    images, labels = dataset.images, dataset.labels
    step = max(1, EVAL_ROWS // (dataset.spec.height * dataset.spec.width))
    eval_chunks = [Tensor._wrap(dataset.eval_images[i:i + step])  # views, no copy
                   for i in range(0, res.eval_size, step)]

    # A diverging run overflows before the finiteness scans name the layer
    # and stop it; numpy's warnings would only repeat that on stderr.
    @np.errstate(over="ignore", invalid="ignore")
    def worker(handle):
        params = init_params(model, config.seed)
        buffers = init_buffers(model)
        sgd = SGDState.create(params, config.momentum, config.weight_decay)
        rank_plan = plan(model, params, buffers, handle, config.one_pass_bn)
        # gradients in the sgd.spans layout, then the task loss; the allreduce copies it
        payload = np.empty(sgd.flat_params.size + 1)
        rows = []
        for epoch in range(res.epochs):
            perm = np.random.default_rng((config.seed, 3, epoch)).permutation(
                images.shape[0])
            for it in range(res.iters_per_epoch):
                base = it * res.total_batch
                sl = perm[base + handle.rank * config.per_device_batch:
                          base + (handle.rank + 1) * config.per_device_batch]
                x = Tensor._wrap(images[sl])
                y = labels[sl]
                lr = lr_at(res.policy, epoch, it, res.iters_per_epoch)
                try:
                    out = forward(rank_plan, x, y, mode="train")
                    grads = backward(rank_plan, out.caches)
                except NonFiniteError as e:
                    raise DivergenceError(f"epoch {epoch} iter {it}: {e}") from e
                sgd.pack(grads, params, payload)
                payload[-1] = out.loss
                mean = allreduce_sum(handle, SCOPE_WORLD, payload) / world
                if handle.rank == 0:  # only rank 0 reports; reg_loss is the pre-step penalty
                    task, reg = float(mean[-1]), l2_penalty(params, config.weight_decay)
                    rows.append(MetricsRow(epoch, it, lr, task, reg, task + reg, None, iter_ms))
                sgd_step(params, mean[:-1], sgd, lr)
                if config.checksum_interval and it % config.checksum_interval == 0:
                    check_replica_sync(handle, sgd.flat_params, f"epoch {epoch} iter {it}")
            if handle.rank == 0:  # the eval row carries the epoch's last rate
                acc = accuracy(eval_logits(rank_plan, eval_chunks), dataset.eval_labels)
                rows.append(MetricsRow(epoch, res.iters_per_epoch, lr,
                                       None, None, None, acc, eval_ms))
        return rows, params, buffers

    group = DeviceGroup(world, bn_group_size=res.bn_group_size)
    try:  # rank 0 reports; the other ranks' rows are empty, their state the same
        rows, params, buffers = group.run(worker)[0]
        status, diverged_at = "ok", None
    except DivergenceError as e:  # a blow-up mid-step leaves no trustworthy state
        status, diverged_at, rows, params, buffers = "diverged", str(e), [], None, None

    manifest = {
        "config": asdict(config),
        "resolved": res.as_dict(),
        "model": [asdict(layer) for layer in model.layers],
        "dataset_hash": dataset.content_hash(),
        "dataset_spec": asdict(dataset.spec),
        "status": status,
        "diverged_at": diverged_at,
        "wall_model_ms": {
            "per_iteration": iter_ms,
            "per_eval": eval_ms,
            "sample_step_ms": SAMPLE_STEP_MS,
            "sample_eval_ms": SAMPLE_EVAL_MS,
            "allreduce_round_ms": ALLREDUCE_ROUND_MS,
        },
    }
    return TrainResult(
        status=status, rows=rows,
        eval_history=[(r.epoch, r.eval_acc) for r in rows if r.eval_acc is not None],
        final_params=params,
        final_buffers=buffers, diverged_at=diverged_at, manifest=manifest,
        measured_wall_s=time.perf_counter() - t0,
    )


def write_outputs(result: TrainResult, out_dir) -> None:
    """Metrics CSV, run manifest, and final checkpoint under `out_dir`."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "metrics.csv").write_text(csv_text(MetricsRow, result.rows))
    (out / "manifest.json").write_text(json_text(result.manifest))
    if result.final_params is not None:
        arrays = {f"param/{k}": v for k, v in sorted(result.final_params.items())}
        arrays.update({f"buffer/{k}": v
                       for k, v in sorted(result.final_buffers.items())})
        np.savez(out / "checkpoint.npz", **arrays)
    else:  # no final parameters: an earlier run's checkpoint must not outlive this run
        (out / "checkpoint.npz").unlink(missing_ok=True)
