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
reproducible regardless of how trials might be scheduled. The 1/N law
takes all its batch sizes in one call and draws each bootstrap index array
once for all of them. The trial loops cost little beyond sampling and the
gradients themselves: numpy's wrapped calls (`np.mean`, `np.var`,
`Generator.choice(p=)`) are taken in their own steps, bit for bit;
per-trial arithmetic runs once over the stacked trials; trial t's fresh
generator gets `default_rng((seed, t))`'s state from one vectorized
SeedSequence pass over all trials (`_trial_seed_words`, pinned by
`tests/test_analysis.py::TestTrialSeeds`); and `normal_pair_sampler` draws a
pair as one draw of 2n normals, bitwise the same as two draws of n.
"""

from __future__ import annotations

import operator
from collections import defaultdict
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .schema import SEED, array, check, check_fields, integer, number, ruled

BOOTSTRAP_RESAMPLES = 1000
# Trials per estimate: at least enough for a stable bootstrap, at most 2**16.
# `_collect_grads` keeps every trial's gradient of every draw as a numpy array
# (104 bytes each for the scalar model, 1 + k draws a trial), and each of
# the 1000 bootstrap resamples draws and gathers `trials` entries: at the
# cap and k = 4, a 48 MiB peak (tracemalloc) and 1 MiB per resample. The 1/N
# law holds one `trials`-long float stack per batch size until its bootstrap
# ends: 512 KiB a size for the scalar model at the cap.
MAX_TRIALS = 2**16
TRIALS = integer(ge=100, le=MAX_TRIALS)
PROBABILITY = number(ge=0, le=1)  # of a (count, probability) mixture entry
# The most samples a single draw takes. A draw holds a few float64 arrays of
# its size (a sampler's pair, a gradient's products, a mixture's uniforms and
# indices), so a batch of 2**40 would ask for terabytes and die in numpy;
# 2**24 keeps each array at 128 MiB, far beyond any batch the reports model.
MAX_DRAW_SAMPLES = 2**24
DRAW_SIZE = integer(gt=0, le=MAX_DRAW_SAMPLES)  # a batch size: the samples of one draw
K = integer(gt=0)  # small batches accumulated against one large batch
# The gradients one equivalence estimate keeps: `_collect_grads` holds every
# trial's 1 + k draws, `trials * (1 + k)` of them, at about 150 bytes each (a
# 104-byte scalar array, its list slot and its share of the float stack). 2**16
# trials at k = 4 keep 327,680 of them, a 48 MiB peak (tracemalloc); that product
# is the cap, where `ks: [10**6]` would ask for 15 GiB at 100 trials.
MAX_TRIAL_DRAWS = 5 * MAX_TRIALS
TRIAL_DRAWS = integer(le=MAX_TRIAL_DRAWS)
# |drift_batch_exponent| <= 20 keeps (batch/16)**exponent finite and nonzero for
# every batch size up to 2**53, past what SamplerSpec admits: 20 * log2(2**53 / 16) = 980 < 1024
DRIFT_EXPONENT_BOUND = 20
# A study cell keeps about six arrays of `batches_per_cell` 8-byte entries (the
# positive and negative sums, their ratios and fractions, and temporaries): 48
# MiB at 2**20, where ten billion would ask for 447 GiB.
MAX_BATCHES_PER_CELL = 2**20


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


def _hashmix(const: int, mult: int):
    """SeedSequence's hash step on uint32 arrays: XOR in the running constant,
    step the constant by `mult`, multiply by it, fold the high half down."""
    def step(value):
        nonlocal const
        value = value ^ const
        const = const * mult & 0xFFFFFFFF
        value *= const
        return value ^ value >> 16
    return step


def _trial_seed_words(seed: int, trials: int) -> np.ndarray:
    """(trials, 4) uint64 whose row t is `SeedSequence((seed, t)).generate_state(4,
    np.uint64)`, hashed for every trial at once: the entropy is the seed's
    little-endian 32-bit words, then t, mixed into a pool of 4 words."""
    seed = operator.index(seed)
    if seed < 0:
        raise AnalysisError(f"seed must be a non-negative integer, got {seed}")
    entropy = [np.full(trials, seed >> s & 0xFFFFFFFF, np.uint32)
               for s in range(0, max(seed.bit_length(), 1), 32)]
    entropy.append(np.arange(trials, dtype=np.uint32))
    entropy += [np.zeros(trials, np.uint32)] * (4 - len(entropy))
    hashmix = _hashmix(0x43B0D7E5, 0x931E8875)

    def mix(x, y):
        r = 0xCA01F9DD * x - 0x4973F715 * y
        return r ^ r >> 16

    pool = [hashmix(word) for word in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:  # entropy past the pool mixes into every pool word
        pool = [mix(p, hashmix(word)) for p in pool]
    out = _hashmix(0x8B51F9DD, 0x58F38DED)  # generate_state: 8 uint32, paired little-endian
    words = np.stack([out(pool[i % 4]) for i in range(8)], axis=1)
    return words.astype("<u4").view("<u8").astype(np.uint64)


class _Words(ISeedSequence):
    """Hands `PCG64` one precomputed row of `_trial_seed_words`; it cannot spawn."""
    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _collect_grads(grad_fn, sampler, sizes, trials, seed) -> dict:
    """Per block, a (trials, len(sizes), ...) float stack of gradients: trial t
    draws one mini-batch of each of `sizes` in turn from its own generator,
    whose state is bitwise `np.random.default_rng((seed, t))`'s. A trial's
    generator does not support `spawn`."""
    cols = defaultdict(list)
    for words in _trial_seed_words(seed, trials):
        rng = np.random.Generator(np.random.PCG64(_Words(words)))
        for n in sizes:
            for key, g in grad_fn(sampler(rng, n)).items():
                cols[key].append(g)
    stacks = {key: np.array(cols[key], dtype=float) for key in sorted(cols)}
    return {key: a.reshape(trials, len(sizes), *a.shape[1:]) for key, a in stacks.items()}


def _mean(a):
    """np.mean of float64 `a` in its own two steps, so bitwise, without its Python wrapper."""
    return np.add.reduce(a, axis=None) / np.size(a)


def _aggregate_variance(stacks: dict, idx=None) -> tuple[dict, float]:
    """Each block's mean of np.var(axis=0, ddof=1) over the rows `idx`, and their mean.

    The variance takes np.var's own steps (mean, squared deviations in place,
    sum over n - 1), so it is bitwise np.var without its wrapper.
    """
    per_block = {}
    for key, arr in stacks.items():
        sel = arr if idx is None else arr[idx]
        dev = sel - np.add.reduce(sel) / len(sel)
        dev *= dev
        per_block[key] = float(_mean(np.add.reduce(dev) / (len(sel) - 1)))
    return per_block, float(_mean(list(per_block.values())))


def estimate_grad_variance(grad_fn, sampler, batch_sizes, trials: int,
                           seed: int) -> list:
    """Empirical variance of the mini-batch gradient at a fixed point, one
    `VarianceReport` per entry of `batch_sizes`, in order.

    `sampler(rng, n)` draws n i.i.d. samples; `grad_fn(batch)` returns the
    mini-batch gradient as a dict of arrays. A report carries the mean
    elementwise variance per parameter block, their overall mean, and a
    bootstrap confidence half-width for that mean. Each size's trials draw
    as a call for that size alone would; the bootstrap's index arrays,
    from `default_rng((seed, 999983))`, are drawn once and resample every
    size's trials, so each report is bitwise the one-size call's.
    """
    check(AnalysisError, (array(DRAW_SIZE), batch_sizes, "batch_sizes"),
          (TRIALS, trials, "trials"))
    stacks = [{key: a[:, 0] for key, a in
               _collect_grads(grad_fn, sampler, (n,), trials, seed).items()}
              for n in batch_sizes]
    boot_rng = np.random.default_rng((seed, 999983))
    idxs = (boot_rng.integers(0, trials, size=trials) for _ in range(BOOTSTRAP_RESAMPLES))
    boot = np.array([[_aggregate_variance(s, idx)[1] for s in stacks] for idx in idxs])
    reports = []
    for n, size_stacks, size_boot in zip(batch_sizes, stacks, boot.T):
        per_block, agg = _aggregate_variance(size_stacks)
        lo, hi = np.quantile(size_boot, [0.025, 0.975])
        reports.append(VarianceReport(
            batch_size=n,
            trials=trials,
            block_variance=per_block,
            aggregate=agg,
            ci_half_width=float((hi - lo) / 2.0),
        ))
    return reports


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
    scaling the learning rate linearly. A rate whose updates overflow the
    variance, or underflow it to zero, raises AnalysisError naming it.
    """
    check(AnalysisError, (DRAW_SIZE, batch_size, "batch_size"), (K, k, "k"),
          (TRIALS, trials, "trials"))
    check(AnalysisError, (DRAW_SIZE, k * batch_size, "k * batch_size"))
    check(AnalysisError, (TRIAL_DRAWS, trials * (1 + k), "trials * (1 + k)"))
    large_lr = (k * rate) if scaled else rate
    # per trial, one draw of k * batch_size samples, then k of batch_size
    stacks = _collect_grads(grad_fn, sampler, (k * batch_size,) + (batch_size,) * k,
                            trials, seed)
    large, small = {}, {}
    with np.errstate(over="ignore", invalid="ignore"):  # a huge rate is reported below
        for key, a in stacks.items():
            large[key] = large_lr * a[:, 0]
            small[key] = rate * a[:, 1]
            for j in range(2, k + 1):  # summed in draw order, as k successive updates
                small[key] = small[key] + rate * a[:, j]
        _, var_large = _aggregate_variance(large)
        _, var_small = _aggregate_variance(small)
    if not (np.isfinite(var_large) and np.isfinite(var_small)):
        raise AnalysisError(f"rate {rate!r} overflows the update variance "
                            f"(var_large {var_large}, var_small {var_small})")
    if var_small == 0.0:
        if any(np.any(a[:, 1:] != a[0, 1:]) for a in stacks.values()):
            raise AnalysisError(f"rate {rate!r} underflows the update variance to zero "
                                "although the gradients vary")
        raise AnalysisError("small-batch update variance is zero; sampler is degenerate")
    return EquivalenceReport(
        batch_size=batch_size, k=k, rate=rate, scaled=scaled, trials=trials,
        var_large=var_large, var_small=var_small, ratio=var_large / var_small,
    )


@dataclass(frozen=True)
class VarianceSpec:
    """The variance report: the 1/N law over `batch_sizes`, then for each k of
    `ks` one draw of k * `small_batch` samples against k of `small_batch`, at
    `rate`; every estimate over `trials` trials."""

    batch_sizes: tuple = ruled(array(DRAW_SIZE))
    trials: int = ruled(TRIALS)
    ks: tuple = ruled(array(K))
    rate: float = ruled(number(gt=0))
    small_batch: int = ruled(DRAW_SIZE)

    def __post_init__(self):
        check_fields(self, AnalysisError)
        check(AnalysisError, *((DRAW_SIZE, k * self.small_batch, f"ks[{i}] * small_batch")
                               for i, k in enumerate(self.ks)))
        check(AnalysisError, *((TRIAL_DRAWS, self.trials * (1 + k), f"trials * (1 + ks[{i}])")
                               for i, k in enumerate(self.ks)))


# ---------------------------------------------------------------------------
# closed-form reference model: l(w) = (w*x - y)^2 / 2 at w = 0
#
# The per-sample gradient there is -x*y; for x, y independent standard
# normals that product has mean 0 and variance exactly 1, so the
# mini-batch gradient over N samples has variance 1/N.


def scalar_linear_grad(batch) -> dict:
    x, y = batch
    # add.reduce / n is bitwise np.mean on 1-D float64, without its Python wrapper
    return {"w": np.array(np.add.reduce(-x * y) / len(x))}


def normal_pair_sampler(rng: np.random.Generator, n: int):
    z = rng.standard_normal(2 * n)  # one draw of 2n, bitwise two draws of n and their state
    return z[:n], z[n:]


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

    pos_counts: tuple = ruled(array(array(integer(ge=0), PROBABILITY)))
    neg_counts: tuple = ruled(array(array(integer(gt=0), PROBABILITY)))  # at least 1 per image
    batch_sizes: tuple = ruled(array(DRAW_SIZE))
    epochs: int = ruled(integer(gt=0))
    batches_per_cell: int = ruled(integer(gt=0, le=MAX_BATCHES_PER_CELL))
    seed: int = ruled(SEED)
    drift_early_scale: float = ruled(number(gt=0, le=1), 1.0)
    drift_late_scale: float = ruled(number(gt=0, le=1), 1.0)
    drift_rate: float = ruled(number(ge=0), 0.0)
    drift_batch_exponent: float = ruled(
        number(ge=-DRIFT_EXPONENT_BOUND, le=DRIFT_EXPONENT_BOUND), 1.0)

    def __post_init__(self):
        check_fields(self, AnalysisError)
        for name in ("pos_counts", "neg_counts"):
            probs = np.array([p for _, p in getattr(self, name)], dtype=float)
            if not np.isclose(probs.sum(), 1.0):
                raise AnalysisError(f"{name}: probabilities must sum to 1")
        # a batch's positive count is an int64 sum
        count, batch = max(v for v, _ in self.pos_counts), max(self.batch_sizes)
        if count * batch > 2**63 - 1:
            raise AnalysisError("the largest pos_counts count times the largest batch_sizes "
                                f"entry must be at most 2**63 - 1, got {count} * {batch}")


def _mixture_table(pairs) -> tuple:
    """(values, cdf) of a (value, prob) mixture, the cdf as `Generator.choice(p=)` builds it."""
    values = np.array([v for v, _ in pairs], dtype=float)
    probs = np.array([p for _, p in pairs], dtype=float)
    cdf = (probs / probs.sum()).cumsum()
    cdf /= cdf[-1]
    return values, cdf


def _draw_mixture(rng, table, size):
    """`size` draws from a `_mixture_table`: the values and generator state of
    `values[rng.choice(len(values), size, p=probs)]`, without its per-call checks."""
    values, cdf = table
    return values[cdf.searchsorted(rng.random(size), side="right")]


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
    pos_table, neg_table = _mixture_table(spec.pos_counts), _mixture_table(spec.neg_counts)
    cells = []
    for epoch in range(spec.epochs):
        for batch in spec.batch_sizes:
            rng = np.random.default_rng((spec.seed, epoch, batch))
            scale = drift_scale(spec, epoch, batch)
            pos = np.empty(spec.batches_per_cell, dtype=np.int64)
            neg = np.empty(spec.batches_per_cell)
            for b in range(spec.batches_per_cell):
                base = _draw_mixture(rng, pos_table, batch).astype(np.int64)
                pos[b] = np.add.reduce(rng.binomial(base, scale) if scale < 1.0 else base)
                neg[b] = np.add.reduce(_draw_mixture(rng, neg_table, batch))
            ratios = 100.0 * pos / neg
            fracs = 100.0 * pos / (pos + neg)
            cells.append(RatioCell(
                epoch=epoch, batch_size=batch,
                mean_ratio_pct=float(ratios.mean()),
                std_ratio_pct=float(ratios.std(ddof=1)) if spec.batches_per_cell > 1 else 0.0,
                mean_pos_frac_pct=float(fracs.mean()),
                std_pos_frac_pct=float(fracs.std(ddof=1)) if spec.batches_per_cell > 1 else 0.0,
                zero_positive_batches=int(np.count_nonzero(pos == 0)),
            ))
    return cells
