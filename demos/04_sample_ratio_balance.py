#!/usr/bin/env python3
"""What a larger batch does to positive/negative sample balance.

Detection-style losses normalize by the number of positive examples in
the batch, and that count is tiny and noisy: many images carry zero or
one positive region. Growing the batch pools more images into each
normalizer, which stabilizes the ratio (roughly sqrt(batch) fewer percent
of spread) and, when the sampling distribution itself shifts over the
first epochs, averages across that shift.
"""

from bigbatch.analysis import SamplerSpec, posneg_ratio_study

COUNTS = dict(
    pos_counts=((0, 0.25), (1, 0.35), (3, 0.25), (12, 0.12), (40, 0.03)),
    neg_counts=((96, 0.5), (128, 0.5)),
)

# --- i.i.d. sampling: spread vs batch size ---------------------------------

iid = SamplerSpec(batch_sizes=(16, 32, 64, 128, 256), epochs=1,
                  batches_per_cell=400, seed=0, **COUNTS)
cells = posneg_ratio_study(iid)

print("stationary sampling, 400 batches per size\n")
print(f"  {'batch':>6} {'pos/neg %':>10} {'spread %':>9} {'zero-pos batches':>17}")
for c in cells:
    print(f"  {c.batch_size:>6} {c.mean_ratio_pct:>10.2f} {c.std_ratio_pct:>9.2f} "
          f"{c.zero_positive_batches:>17}")
small = cells[0]
big = cells[-1]
print(f"\n  16 -> 256 shrinks the spread "
      f"{small.std_ratio_pct / big.std_ratio_pct:.1f}x (sqrt(16) = 4 predicted)")

# --- starved normalizers at per-device batch sizes --------------------------
# The loss divides by the positive count. A single device's slice of the
# batch is tiny, and with sparse positives it regularly contains none at
# all; pooling the count across devices is what makes it dependable.

sparse = SamplerSpec(pos_counts=((0, 0.55), (1, 0.30), (3, 0.15)),
                     neg_counts=((96, 0.5), (128, 0.5)),
                     batch_sizes=(2, 4, 8, 32), epochs=1,
                     batches_per_cell=400, seed=1)
print("\nsparser positives (55% of images have none), 400 batches per size\n")
print(f"  {'batch':>6} {'batches with zero positives':>28}")
for c in posneg_ratio_study(sparse):
    pct = 100.0 * c.zero_positive_batches / sparse.batches_per_cell
    print(f"  {c.batch_size:>6} {c.zero_positive_batches:>14} ({pct:.0f}%)")

# --- drifting sampling: early epochs are not stationary ---------------------

drift = SamplerSpec(batch_sizes=(16, 64, 256), epochs=4, batches_per_cell=400,
                    seed=0, drift_early_scale=0.3, drift_late_scale=1.0,
                    drift_rate=0.6, drift_batch_exponent=0.5, **COUNTS)
cells = posneg_ratio_study(drift)

print("\nwith an early-epoch deficit in positives (30% of the late rate):\n")
print(f"  {'epoch':>6} " + "".join(f"{f'batch {b}':>11}" for b in drift.batch_sizes))
for epoch in range(drift.epochs):
    row = [c.mean_ratio_pct for c in cells if c.epoch == epoch]
    print(f"  {epoch:>6} " + "".join(f"{v:>11.2f}" for v in row))
print(f"  (stationary reference mean: {small.mean_ratio_pct:.2f})")

print("\nLarger batches see through the drift sooner: each batch spans more")
print("of the sampling timeline, so its average is closer to the steady state")
print("while a batch of 16 is still dominated by the early deficit.")
