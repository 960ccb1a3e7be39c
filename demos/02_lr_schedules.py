#!/usr/bin/env python3
"""Learning-rate recipes for growing the batch.

The rule: multiply the batch by kappa, multiply the rate by kappa, and
walk the first iterations up a linear ramp so the freshly scaled rate
does not hit cold weights. This script prints the resulting schedules for
a few batch sizes, sketches the warmup ramp, and shows the exact step
products at the decay breakpoints.
"""

from bigbatch.optim import lr_at, make_policy, scaled_target_lr

BASE_BATCH = 16
IPE = 100  # iterations per epoch for the printouts


def bar(value, scale):
    return "#" * max(1, round(value / scale))


# --- linear scaling table ---------------------------------------------------

print("target rate after linear scaling (base: batch 16 at 0.02)\n")
print(f"  {'batch':>6} {'factor':>7} {'rate':>7}   half-rate variant")
for batch in (16, 32, 64, 128, 256, 512):
    p = make_policy("normal", actual_batch=batch)
    ph = make_policy("normal", actual_batch=batch, half_lr=True)
    k = batch // BASE_BATCH
    print(f"  {batch:>6} {k:>6}x {scaled_target_lr(p):>7.3f}   {scaled_target_lr(ph):.3f}")

# --- warmup ramp ------------------------------------------------------------

p = make_policy("normal", actual_batch=256, warmup_iters=20)
target = scaled_target_lr(p)
print(f"\nwarmup at batch 256: {p.base_lr} -> {target} over {p.warmup_iters} iterations\n")
for it in range(0, 24, 2):
    lr = lr_at(p, 0, it, IPE)
    print(f"  iter {it:>3}  lr {lr:.4f}  {bar(lr, target / 40)}")

# --- decay breakpoints are products, not approximations ---------------------

print("\nstep decay, batch 256 (normal plan: x0.1 at epochs 8 and 10):")
for epoch in (7, 8, 9, 10):
    lr = lr_at(p, epoch, 0, IPE)
    print(f"  epoch {epoch:>2}: {lr!r}")
assert lr_at(p, 8, 0, IPE) == target * 0.1
assert lr_at(p, 10, 0, IPE) == (target * 0.1) * 0.1
print("  (both breakpoints compare equal to the folded products, not just close)")

pl = make_policy("long", actual_batch=256, warmup_iters=20)
print("\nlong plan (x0.1 at 11 and 14, then x0.5 at 17):")
for epoch in (10, 11, 14, 17):
    print(f"  epoch {epoch:>2}: {lr_at(pl, epoch, 0, IPE)!r}")

# --- the whole trajectory, coarsely ----------------------------------------

print("\nfull normal-plan trajectory at batch 256 (one row per epoch):")
for epoch in range(11):
    lr = lr_at(p, epoch, IPE - 1, IPE)
    print(f"  epoch {epoch:>2}  lr {lr:.5f}  {bar(lr, target / 40)}")
