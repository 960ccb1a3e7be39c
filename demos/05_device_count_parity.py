#!/usr/bin/env python3
"""One device or eight: the same total batch trains the same model.

The training loop shards a seeded permutation across devices, averages
gradients with a deterministic reduction, and normalizes across the whole
group, so an 8-device run is arithmetically the run you would get from a
single device holding the concatenated batch. This script trains both
layouts and prints the loss trajectories side by side, then shows the
idealized wall-clock model rewarding the parallel layout anyway.
"""

from bigbatch.trainer import ExperimentConfig, run_training

COMMON = dict(
    per_device_batch=8,
    base_lr=0.1,
    warmup_iters=8,
    epochs=4,
    dataset={"size": 256, "classes": 4},
    seed=0,
)

print("training twice at total batch 64: 8 devices x 8 vs 1 device x 64\n")
wide = run_training(ExperimentConfig.from_dict({**COMMON, "world_size": 8}))
narrow = run_training(ExperimentConfig.from_dict(
    {**COMMON, "world_size": 1, "per_device_batch": 64}))

lw = [r for r in wide.rows if r.task_loss is not None]
ln = [r for r in narrow.rows if r.task_loss is not None]

print(f"  {'iter':>5} {'8 devices':>12} {'1 device':>12} {'|gap|':>10}")
for i, (a, b) in enumerate(zip(lw, ln)):
    if i % 2 == 0:
        gap = abs(a.task_loss - b.task_loss)
        print(f"  {i:>5} {a.task_loss:>12.8f} {b.task_loss:>12.8f} {gap:>10.2e}")

worst = max(abs(a.task_loss - b.task_loss) for a, b in zip(lw, ln))
print(f"\n  worst gap across {len(lw)} iterations: {worst:.2e}")
print(f"  eval histories identical: {wide.eval_history == narrow.eval_history}")

# --- what the cost model says ----------------------------------------------
# Real multi-device training is not free: each iteration pays a latency
# term per reduction, growing with the tree depth. The idealized wall
# clock in the metrics makes the trade visible without a real cluster.

per_iter_wide = wide.manifest["wall_model_ms"]["per_iteration"]
per_iter_narrow = narrow.manifest["wall_model_ms"]["per_iteration"]
print("\nidealized cost per iteration (1 ms per local sample +"
      " 0.5 ms per reduction round x tree depth):")
print(f"  8 devices: {per_iter_wide:.1f} ms   1 device: {per_iter_narrow:.1f} ms"
      f"   speedup {per_iter_narrow / per_iter_wide:.1f}x")

accs = ", ".join(f"{a:.3f}" for _, a in wide.eval_history)
print(f"\n  accuracy per epoch: {accs}")
