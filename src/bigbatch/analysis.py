"""Statistical checks behind large-batch training.

Three groups of tools live here:

* gradient-variance estimation over repeated mini-batches, to exhibit the
  1/N law for i.i.d. samples at a fixed parameter point;
* the update-variance comparison that justifies linear LR scaling: one
  large-batch step at rate k*r versus k accumulated small-batch steps at
  rate r;
* a synthetic sampler for the per-batch positive/negative sample ratio,
  with an epoch drift model, to show how batch size tames that ratio.

Everything is seeded and reduces in trial-index order, so reports are
reproducible regardless of how trials might be scheduled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BOOTSTRAP_RESAMPLES = 1000
MIN_TRIALS = 100
# |drift_batch_exponent| <= 20 keeps (batch/16)**exponent finite and nonzero for
# every batch size SamplerSpec admits (<= 2**53): 20 * log2(2**53 / 16) = 980 < 1024
DRIFT_EXPONENT_BOUND = 20


class AnalysisError(ValueError):
    """Degenerate sampler or invalid study parameters."""


# ---------------------------------------------------------------------------
# gradient variance


@dataclass
class VarianceReport:
    batch_size: int
    trials: int
    block_variance: dict
    aggregate: float
    ci_half_width: float


def _collect_grads(grad_fn, sampler, n, trials, seed):
    """T gradient dicts, each from an independently seeded mini-batch."""
    out = []
    for t in range(trials):
        rng = np.random.default_rng((seed, t))
        out.append(grad_fn(sampler(rng, n)))
    return out


def _stack_blocks(grad_dicts):
    keys = sorted(grad_dicts[0])
    return {k: np.stack([np.asarray(g[k], dtype=float) for g in grad_dicts]) for k in keys}


def _aggregate_variance(stacks: dict, idx=None) -> tuple[dict, float]:
    per_block = {}
    for key, arr in stacks.items():
        sel = arr if idx is None else arr[idx]
        per_block[key] = float(np.mean(np.var(sel, axis=0, ddof=1)))
    agg = float(np.mean(list(per_block.values())))
    return per_block, agg


def estimate_grad_variance(grad_fn, sampler, batch_size: int, trials: int,
                           seed: int) -> VarianceReport:
    """Empirical variance of the mini-batch gradient at a fixed point.

    `sampler(rng, n)` draws n i.i.d. samples; `grad_fn(batch)` returns the
    mini-batch gradient as a dict of arrays. The report carries the mean
    elementwise variance per parameter block, their overall mean, and a
    bootstrap confidence half-width for that mean.
    """
    if trials < MIN_TRIALS:
        raise AnalysisError(f"need at least {MIN_TRIALS} trials, got {trials}")
    if batch_size <= 0:
        raise AnalysisError(f"batch_size must be positive, got {batch_size}")
    grads = _collect_grads(grad_fn, sampler, batch_size, trials, seed)
    stacks = _stack_blocks(grads)
    per_block, agg = _aggregate_variance(stacks)
    boot_rng = np.random.default_rng((seed, 999983))
    boot = np.empty(BOOTSTRAP_RESAMPLES)
    for b in range(BOOTSTRAP_RESAMPLES):
        idx = boot_rng.integers(0, trials, size=trials)
        _, boot[b] = _aggregate_variance(stacks, idx)
    lo, hi = np.quantile(boot, [0.025, 0.975])
    return VarianceReport(
        batch_size=batch_size,
        trials=trials,
        block_variance=per_block,
        aggregate=agg,
        ci_half_width=float((hi - lo) / 2.0),
    )


@dataclass
class EquivalenceReport:
    batch_size: int
    k: int
    rate: float
    scaled: bool
    trials: int
    var_large: float
    var_small: float
    ratio: float


def variance_equivalence_ratio(grad_fn, sampler, batch_size: int, k: int,
                               rate: float, trials: int, seed: int,
                               scaled: bool = True) -> EquivalenceReport:
    """Var(one large-batch update) / Var(k accumulated small-batch updates).

    The large side takes one gradient over k*batch_size samples at rate
    k*rate (or just `rate` when scaled=False); the small side sums k
    independent gradients over batch_size samples at rate `rate`, all at
    the same frozen parameter point. Scaled, the ratio tends to 1; with
    the unscaled rate it tends to 1/k^2, which is the whole argument for
    scaling the learning rate linearly.
    """
    if trials < MIN_TRIALS:
        raise AnalysisError(f"need at least {MIN_TRIALS} trials, got {trials}")
    if k < 1:
        raise AnalysisError(f"k must be >= 1, got {k}")
    if batch_size <= 0:
        raise AnalysisError(f"batch_size must be positive, got {batch_size}")
    large_lr = (k * rate) if scaled else rate
    large = []
    small = []
    for t in range(trials):
        rng = np.random.default_rng((seed, t))
        g_large = grad_fn(sampler(rng, k * batch_size))
        large.append({key: large_lr * np.asarray(v, dtype=float)
                      for key, v in g_large.items()})
        acc = None
        for _ in range(k):
            g = grad_fn(sampler(rng, batch_size))
            if acc is None:
                acc = {key: rate * np.asarray(v, dtype=float) for key, v in g.items()}
            else:
                for key in acc:
                    acc[key] = acc[key] + rate * np.asarray(g[key], dtype=float)
        small.append(acc)
    _, var_large = _aggregate_variance(_stack_blocks(large))
    _, var_small = _aggregate_variance(_stack_blocks(small))
    if var_small == 0.0:
        raise AnalysisError("small-batch update variance is zero; sampler is degenerate")
    return EquivalenceReport(
        batch_size=batch_size, k=k, rate=rate, scaled=scaled, trials=trials,
        var_large=var_large, var_small=var_small, ratio=var_large / var_small,
    )


# ---------------------------------------------------------------------------
# closed-form reference model: l(w) = (w*x - y)^2 / 2 at w = 0
#
# The per-sample gradient there is -x*y; for x, y independent standard
# normals that product has mean 0 and variance exactly 1, so the
# mini-batch gradient over N samples has variance 1/N.


def scalar_linear_grad(batch) -> dict:
    x, y = batch
    return {"w": np.array(float(np.mean(-x * y)))}


def normal_pair_sampler(rng: np.random.Generator, n: int):
    return rng.standard_normal(n), rng.standard_normal(n)


# ---------------------------------------------------------------------------
# positive/negative sample-ratio study


@dataclass(frozen=True)
class SamplerSpec:
    """Synthetic per-image sample counts with an epoch drift model.

    Each image draws an integer positive count from the discrete mixture
    `pos_counts` ((value, prob) pairs) and a negative count from
    `neg_counts`. The drift model binomially thins the positives: each
    survives with probability equal to the current scale, which moves from
    `drift_early_scale` toward `drift_late_scale` as training progresses.
    Progress per epoch grows with batch size as
    (batch/16)**drift_batch_exponent, so bigger batches approach the
    late-stage balance sooner. With the drift off (both scales 1, or
    drift_rate=0 and equal scales) counts pass through untouched, so a
    point-mass mixture gives exactly zero ratio variance.
    """

    pos_counts: tuple
    neg_counts: tuple
    batch_sizes: tuple
    epochs: int
    batches_per_cell: int
    seed: int
    drift_early_scale: float = 1.0
    drift_late_scale: float = 1.0
    drift_rate: float = 0.0
    drift_batch_exponent: float = 1.0

    def __post_init__(self):
        for name in ("pos_counts", "neg_counts"):
            pairs = getattr(self, name)
            if not pairs:
                raise AnalysisError(f"{name} must not be empty")
            values = np.array([v for v, _ in pairs], dtype=float)
            probs = np.array([p for _, p in pairs], dtype=float)
            if np.any(values != np.round(values)):
                raise AnalysisError(f"{name}: counts must be integers")
            if np.any(values < 0) or (name == "neg_counts" and np.any(values < 1)):
                raise AnalysisError(
                    f"{name}: counts must be nonnegative (negatives at least 1 per image)")
            if np.any(probs < 0) or not np.isclose(probs.sum(), 1.0):
                raise AnalysisError(f"{name}: probabilities must be >= 0 and sum to 1")
        for name in ("drift_early_scale", "drift_late_scale"):
            s = getattr(self, name)
            if not 0.0 < s <= 1.0:
                raise AnalysisError(f"{name} must lie in (0, 1], got {s}")
        if not 0 <= self.drift_rate < np.inf:
            raise AnalysisError(f"drift_rate must be finite and >= 0, got {self.drift_rate}")
        if not abs(self.drift_batch_exponent) <= DRIFT_EXPONENT_BOUND:  # also rejects nan
            raise AnalysisError(f"drift_batch_exponent must lie in [-{DRIFT_EXPONENT_BOUND}, "
                                f"{DRIFT_EXPONENT_BOUND}], got {self.drift_batch_exponent}")
        if self.epochs < 1 or self.batches_per_cell < 1 or not self.batch_sizes:
            raise AnalysisError("need epochs >= 1, batches_per_cell >= 1, batch sizes")
        if min(self.batch_sizes) < 1 or max(self.batch_sizes) > 2**53:
            raise AnalysisError("batch sizes must lie in [1, 2**53]")


def _draw_mixture(rng, pairs, size):
    values = np.array([v for v, _ in pairs], dtype=float)
    probs = np.array([p for _, p in pairs], dtype=float)
    probs = probs / probs.sum()
    return values[rng.choice(len(values), size=size, p=probs)]


def drift_scale(spec: SamplerSpec, epoch: int, batch_size: int) -> float:
    """Positive-count multiplier for a given epoch and batch size.

    Progress counts the epoch being trained ((epoch + 1), so the effect is
    visible within the first epoch) and grows with batch size, modelling
    that larger batches reach the late-stage balance sooner.
    """
    progress = (spec.drift_rate * (epoch + 1)
                * (batch_size / 16.0) ** spec.drift_batch_exponent)
    early, late = spec.drift_early_scale, spec.drift_late_scale
    if progress == 0.0:
        return float(early)
    return float(late + (early - late) * np.exp(-progress))


@dataclass
class RatioCell:
    epoch: int
    batch_size: int
    mean_ratio_pct: float       # 100 * sum(pos) / sum(neg)
    std_ratio_pct: float
    mean_pos_frac_pct: float    # 100 * sum(pos) / (sum(pos) + sum(neg))
    std_pos_frac_pct: float
    zero_positive_batches: int


def posneg_ratio_study(spec: SamplerSpec) -> list:
    """Mean and std of the per-batch sample ratio for every (epoch, batch).

    Two ratio definitions are reported side by side, positives/negatives
    and positives/total, since either reading is defensible. Batches that
    drew no positive sample at all have a well-defined ratio of zero; they
    are included in the statistics and counted separately so heavy-tailed
    configurations can be audited.
    """
    cells = []
    for epoch in range(spec.epochs):
        for batch in spec.batch_sizes:
            rng = np.random.default_rng((spec.seed, epoch, batch))
            scale = drift_scale(spec, epoch, batch)
            ratios = np.empty(spec.batches_per_cell)
            fracs = np.empty(spec.batches_per_cell)
            zero_pos = 0
            for b in range(spec.batches_per_cell):
                base = _draw_mixture(rng, spec.pos_counts, batch).astype(np.int64)
                pos = rng.binomial(base, scale).sum() if scale < 1.0 else base.sum()
                neg = _draw_mixture(rng, spec.neg_counts, batch).sum()
                if pos == 0:
                    zero_pos += 1
                ratios[b] = 100.0 * pos / neg
                fracs[b] = 100.0 * pos / (pos + neg)
            cells.append(RatioCell(
                epoch=epoch, batch_size=batch,
                mean_ratio_pct=float(ratios.mean()),
                std_ratio_pct=float(ratios.std(ddof=1)) if spec.batches_per_cell > 1 else 0.0,
                mean_pos_frac_pct=float(fracs.mean()),
                std_pos_frac_pct=float(fracs.std(ddof=1)) if spec.batches_per_cell > 1 else 0.0,
                zero_positive_batches=zero_pos,
            ))
    return cells
