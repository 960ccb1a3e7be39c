#!/usr/bin/env python3
"""The variance argument behind linear rate scaling.

For i.i.d. samples the mini-batch gradient has variance proportional to
1/N, so a batch k times larger is k times quieter per step. One update at
rate k*r on the big batch then matches k accumulated updates at rate r on
small batches, both in expectation and in update variance. This script
measures both claims on a probe model whose per-sample gradient variance
is exactly 1, so the predicted curve is known in closed form.
"""

from bigbatch.analysis import (
    estimate_grad_variance,
    normal_pair_sampler,
    scalar_linear_grad,
    variance_equivalence_ratio,
)

TRIALS = 1000

# --- 1/N law ----------------------------------------------------------------

print(f"mini-batch gradient variance, {TRIALS} draws per size")
print(f"  (probe model: per-sample variance exactly 1, so N x Var should be 1)\n")
print(f"  {'N':>4} {'Var':>10} {'N x Var':>9} {'95% ci':>9}")
for rep in estimate_grad_variance(scalar_linear_grad, normal_pair_sampler,
                                  (1, 2, 4, 8, 16, 32), TRIALS, seed=0):
    n = rep.batch_size
    print(f"  {n:>4} {rep.aggregate:>10.4f} {n * rep.aggregate:>9.4f} "
          f"{rep.ci_half_width:>9.4f}")

# --- one big step vs k small steps -----------------------------------------

print("\nVar(one step, batch k*B at rate k*r) / Var(k steps, batch B at rate r)")
print("  scaled rate: the ratio should sit near 1 (the recipes are twins)")
print("  unscaled:    the big step is k^2 too quiet, i.e. ratio ~ 1/k^2\n")
print(f"  {'k':>3} {'scaled':>8} {'unscaled':>9} {'unscaled x k^2':>15}")
for k in (2, 4, 8):
    s = variance_equivalence_ratio(scalar_linear_grad, normal_pair_sampler,
                                   8, k, 0.02, TRIALS, seed=k, scaled=True)
    u = variance_equivalence_ratio(scalar_linear_grad, normal_pair_sampler,
                                   8, k, 0.02, TRIALS, seed=k, scaled=False)
    print(f"  {k:>3} {s.ratio:>8.4f} {u.ratio:>9.4f} {u.ratio * k * k:>15.4f}")

print("\nReading the table: leaving the rate alone while growing the batch")
print("does not train the same model faster, it trains a different, overly")
print("timid trajectory. Matching the variance is what the linear rule buys.")
