from dataclasses import asdict

import numpy as np
import pytest

from bigbatch.analysis import (
    DRIFT_EXPONENT_BOUND,
    MAX_DRAW_SAMPLES,
    MAX_TRIALS,
    AnalysisError,
    SamplerSpec,
    _aggregate_variance,
    _draw_mixture,
    _mixture_table,
    _trial_seed_words,
    _Words,
    drift_scale,
    estimate_grad_variance,
    normal_pair_sampler,
    posneg_ratio_study,
    scalar_linear_grad,
    variance_equivalence_ratio,
)
from helpers import loop_block_variance, loop_grad_variance, loop_update_variances

HEAVY_POS = ((0, 0.25), (1, 0.35), (3, 0.25), (12, 0.12), (40, 0.03))
NEGS = ((96, 0.5), (128, 0.5))


class TestScalarModel:
    def test_gradient_formula(self):
        # d/dw (w*x - y)^2 / 2 at w=0 is -x*y, averaged over the batch.
        g = scalar_linear_grad((np.array([2.0, 0.0]), np.array([3.0, 5.0])))
        assert g["w"] == -3.0

    def test_sampler_shapes(self):
        x, y = normal_pair_sampler(np.random.default_rng(0), 7)
        assert x.shape == (7,) and y.shape == (7,)


class TestEstimateGradVariance:
    def test_requires_enough_trials(self):
        with pytest.raises(AnalysisError, match="trials"):
            estimate_grad_variance(scalar_linear_grad, normal_pair_sampler, 4, 50, 0)

    def test_requires_positive_batch(self):
        with pytest.raises(AnalysisError, match="batch_size"):
            estimate_grad_variance(scalar_linear_grad, normal_pair_sampler, 0, 200, 0)

    def test_constant_sampler_has_zero_variance(self):
        fixed = (np.ones(3), np.ones(3))
        rep = estimate_grad_variance(scalar_linear_grad, lambda rng, n: fixed, 3, 150, 1)
        assert rep.aggregate == 0.0
        assert rep.ci_half_width == 0.0

    def test_matches_closed_form_one_over_n(self):
        # Var of the per-sample gradient is exactly 1; a batch of N averages
        # it down to 1/N.
        rep = estimate_grad_variance(scalar_linear_grad, normal_pair_sampler,
                                     batch_size=4, trials=800, seed=3)
        assert abs(rep.aggregate - 0.25) < max(4 * rep.ci_half_width, 0.03)
        assert rep.ci_half_width < 0.05

    def test_one_over_n_scaling_between_sizes(self):
        r1 = estimate_grad_variance(scalar_linear_grad, normal_pair_sampler, 2, 600, 4)
        r2 = estimate_grad_variance(scalar_linear_grad, normal_pair_sampler, 8, 600, 4)
        assert 0.8 < (r1.aggregate / r2.aggregate) / 4.0 < 1.25

    def test_deterministic(self):
        a = estimate_grad_variance(scalar_linear_grad, normal_pair_sampler, 4, 150, 9)
        b = estimate_grad_variance(scalar_linear_grad, normal_pair_sampler, 4, 150, 9)
        assert asdict(a) == asdict(b)

    def test_vector_blocks(self):
        # Two parameter blocks; each coordinate is an independent mean of N
        # standard normals, so every block variance sits near 1/N.
        def grad_fn(batch):
            return {"a": batch[:, :2].mean(axis=0), "b": batch[:, 2:].mean(axis=0)}

        rep = estimate_grad_variance(
            grad_fn, lambda rng, n: rng.standard_normal((n, 5)),
            batch_size=8, trials=600, seed=5)
        assert set(rep.block_variance) == {"a", "b"}
        for v in rep.block_variance.values():
            assert abs(v - 1 / 8) < 0.02
        assert abs(rep.aggregate - 1 / 8) < 0.02


class TestEquivalenceRatio:
    def test_scaled_ratio_near_one(self):
        rep = variance_equivalence_ratio(scalar_linear_grad, normal_pair_sampler,
                                         batch_size=8, k=2, rate=0.02,
                                         trials=400, seed=0, scaled=True)
        assert 0.8 < rep.ratio < 1.25
        assert rep.scaled is True

    def test_unscaled_ratio_near_inverse_k_squared(self):
        rep = variance_equivalence_ratio(scalar_linear_grad, normal_pair_sampler,
                                         batch_size=8, k=2, rate=0.02,
                                         trials=400, seed=0, scaled=False)
        assert 0.8 < rep.ratio * 4.0 < 1.25

    def test_scaled_and_unscaled_differ_by_exactly_k_squared(self):
        # Same seed means identical gradient draws; the two runs differ only
        # in the constant multiplying the large-batch side.
        a = variance_equivalence_ratio(scalar_linear_grad, normal_pair_sampler,
                                       8, 4, 0.02, 200, 7, scaled=True)
        b = variance_equivalence_ratio(scalar_linear_grad, normal_pair_sampler,
                                       8, 4, 0.02, 200, 7, scaled=False)
        assert abs(a.ratio / b.ratio - 16.0) < 1e-9
        assert a.var_small == b.var_small

    def test_k_one_sanity(self):
        rep = variance_equivalence_ratio(scalar_linear_grad, normal_pair_sampler,
                                         batch_size=16, k=1, rate=0.1,
                                         trials=400, seed=2)
        assert 0.7 < rep.ratio < 1.4

    def test_degenerate_sampler_rejected(self):
        fixed = (np.ones(4), np.ones(4))
        with pytest.raises(AnalysisError, match="degenerate"):
            variance_equivalence_ratio(scalar_linear_grad, lambda rng, n: fixed,
                                       4, 2, 0.02, 150, 0)

    def test_underflowing_rate_names_rate(self):
        # varying gradients, but rate * gradient squares to 0
        with pytest.raises(AnalysisError, match=r"rate 1e-300 underflows"):
            variance_equivalence_ratio(scalar_linear_grad, normal_pair_sampler,
                                       1, 1, 1e-300, 100, 0)

    def test_trial_draws_are_capped_before_drawing(self, monkeypatch):
        # `VarianceSpec` rejects these values; called directly, the function
        # would keep 10**8 gradients
        def no_collect(*args):
            raise AssertionError("collected gradients before checking the bounds")
        monkeypatch.setattr("bigbatch.analysis._collect_grads", no_collect)
        with pytest.raises(AnalysisError, match=r"^trials \* \(1 \+ k\) must be "):
            variance_equivalence_ratio(scalar_linear_grad, normal_pair_sampler,
                                       1, 10**6, 0.02, 100, 0)

    def test_bad_k(self):
        with pytest.raises(AnalysisError, match="k must be"):
            variance_equivalence_ratio(scalar_linear_grad, normal_pair_sampler,
                                       4, 0, 0.02, 150, 0)

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_requires_positive_batch(self, batch_size):
        # a zero batch would average empty gradients into NaN ratios
        with pytest.raises(AnalysisError, match="batch_size must be an integer > 0"):
            variance_equivalence_ratio(scalar_linear_grad, normal_pair_sampler,
                                       batch_size, 2, 0.02, 150, 0)

    def test_overflowing_rate_names_rate(self):
        # the update variance overflows to inf (and the ratio to nan); reporting
        # them would write NaN and Infinity, which are not JSON
        with pytest.raises(AnalysisError, match=r"rate 1e\+200 overflows"):
            variance_equivalence_ratio(scalar_linear_grad, normal_pair_sampler,
                                       8, 4, 1e200, 100, 0)

    def test_deterministic(self):
        a = variance_equivalence_ratio(scalar_linear_grad, normal_pair_sampler,
                                       4, 2, 0.02, 150, 11)
        b = variance_equivalence_ratio(scalar_linear_grad, normal_pair_sampler,
                                       4, 2, 0.02, 150, 11)
        assert asdict(a) == asdict(b)


class TestSamplerSpec:
    def base(self, **kw):
        args = dict(pos_counts=HEAVY_POS, neg_counts=NEGS, batch_sizes=(16,),
                    epochs=1, batches_per_cell=10, seed=0)
        args.update(kw)
        return SamplerSpec(**args)

    def test_valid(self):
        spec = self.base()
        assert spec.batch_sizes == (16,)

    def test_empty_mixture(self):
        with pytest.raises(AnalysisError):
            self.base(pos_counts=())

    def test_probs_must_sum_to_one(self):
        with pytest.raises(AnalysisError, match="sum to 1"):
            self.base(pos_counts=((1, 0.4), (2, 0.4)))

    def test_counts_must_be_integers(self):
        with pytest.raises(AnalysisError, match="must be a non-negative integer, got 1.5"):
            self.base(pos_counts=((1.5, 1.0),))

    def test_negatives_at_least_one_per_image(self):
        with pytest.raises(AnalysisError):
            self.base(neg_counts=((0, 1.0),))

    def test_positive_counts_nonnegative(self):
        with pytest.raises(AnalysisError):
            self.base(pos_counts=((-1, 1.0),))

    def test_drift_scales_in_unit_interval(self):
        with pytest.raises(AnalysisError, match="drift_early_scale"):
            self.base(drift_early_scale=0.0)
        with pytest.raises(AnalysisError, match="drift_late_scale"):
            self.base(drift_late_scale=1.5)

    def test_drift_rate_nonnegative(self):
        with pytest.raises(AnalysisError, match="drift_rate"):
            self.base(drift_rate=-0.5)

    @pytest.mark.parametrize("rate", [float("nan"), float("inf")])
    def test_drift_rate_finite(self, rate):
        with pytest.raises(AnalysisError, match="drift_rate"):
            self.base(drift_rate=rate)

    @pytest.mark.parametrize("exponent", [float("nan"), 1000.0, -21.0, float("inf")])
    def test_drift_batch_exponent_bounded(self, exponent):
        # unbounded, 1000 overflows the power and nan silently skips the thinning
        with pytest.raises(AnalysisError, match="drift_batch_exponent"):
            self.base(drift_batch_exponent=exponent)

    @pytest.mark.parametrize("exponent", [-DRIFT_EXPONENT_BOUND, DRIFT_EXPONENT_BOUND])
    def test_drift_batch_exponent_bounds_are_inclusive(self, exponent):
        self.base(drift_batch_exponent=exponent)

    def test_structure_bounds(self):
        with pytest.raises(AnalysisError):
            self.base(epochs=0)
        with pytest.raises(AnalysisError):
            self.base(batches_per_cell=0)
        with pytest.raises(AnalysisError):
            self.base(batch_sizes=())
        with pytest.raises(AnalysisError):
            self.base(batch_sizes=(0,))
        # would overflow the drift
        with pytest.raises(AnalysisError, match=r"batch_sizes\[0\] must be an integer > 0"):
            self.base(batch_sizes=(2**53 + 1,))

    def test_batch_sizes_are_capped_per_draw(self):
        # a batch is the sample count of one mixture draw; beyond the cap numpy
        # would fail to allocate it
        assert self.base(batch_sizes=(1, MAX_DRAW_SAMPLES)).batch_sizes[-1] == MAX_DRAW_SAMPLES
        with pytest.raises(AnalysisError, match=rf"must be an integer > 0 and <= {MAX_DRAW_SAMPLES},"):
            self.base(batch_sizes=(16, MAX_DRAW_SAMPLES + 1))


class TestDriftScale:
    def spec(self, **kw):
        args = dict(pos_counts=HEAVY_POS, neg_counts=NEGS,
                    batch_sizes=(16, 256), epochs=4, batches_per_cell=10, seed=0,
                    drift_early_scale=0.3, drift_late_scale=1.0, drift_rate=0.6,
                    drift_batch_exponent=0.5)
        args.update(kw)
        return SamplerSpec(**args)

    def test_zero_rate_stays_early(self):
        spec = self.spec(drift_rate=0.0)
        assert drift_scale(spec, 0, 16) == 0.3
        assert drift_scale(spec, 3, 256) == 0.3

    def test_approaches_late_scale(self):
        spec = self.spec()
        assert drift_scale(spec, 100, 256) == pytest.approx(1.0, abs=1e-9)

    def test_monotone_in_epoch_and_batch(self):
        spec = self.spec()
        assert drift_scale(spec, 0, 16) < drift_scale(spec, 1, 16)
        assert drift_scale(spec, 0, 16) < drift_scale(spec, 0, 256)

    def test_visible_within_first_epoch(self):
        spec = self.spec()
        assert drift_scale(spec, 0, 16) > spec.drift_early_scale



@pytest.mark.parametrize("exponent", [-20, 20])
@pytest.mark.parametrize("batch_size", [1, 2**53])
@pytest.mark.parametrize("rate", [0.0, 0.6, 1e308])
def test_drift_scale_stays_finite_within_the_cli_exponent_bound(exponent, batch_size, rate):
    # ratio-study bounds |drift_batch_exponent| by 20 and batch sizes by 2**53,
    # so the power neither overflows (OverflowError) nor underflows to 0 (0 * inf)
    spec = TestDriftScale().spec(drift_rate=rate, drift_batch_exponent=exponent)
    scale = drift_scale(spec, 3, batch_size)
    assert 0.3 <= scale <= 1.0

class TestRatioStudy:
    def test_point_mass_counts_have_zero_spread(self):
        spec = SamplerSpec(pos_counts=((2, 1.0),), neg_counts=((64, 1.0),),
                           batch_sizes=(8, 32), epochs=2, batches_per_cell=40, seed=3)
        for cell in posneg_ratio_study(spec):
            assert cell.mean_ratio_pct == 100.0 * 2 / 64
            assert cell.std_ratio_pct == 0.0
            assert cell.std_pos_frac_pct == 0.0
            assert cell.zero_positive_batches == 0

    def test_all_zero_positives_is_well_defined(self):
        spec = SamplerSpec(pos_counts=((0, 1.0),), neg_counts=((10, 1.0),),
                           batch_sizes=(4,), epochs=1, batches_per_cell=25, seed=4)
        (cell,) = posneg_ratio_study(spec)
        assert cell.mean_ratio_pct == 0.0
        assert cell.zero_positive_batches == 25

    def test_iid_std_shrinks_with_batch_size(self):
        spec = SamplerSpec(pos_counts=HEAVY_POS, neg_counts=NEGS,
                           batch_sizes=(16, 256), epochs=1,
                           batches_per_cell=400, seed=11)
        c16, c256 = posneg_ratio_study(spec)
        ratio = c16.std_ratio_pct / c256.std_ratio_pct
        assert 3.0 < ratio < 5.5  # CLT predicts sqrt(256/16) = 4

    def test_iid_mean_matches_population_ratio(self):
        # E[pos]/E[neg] = 3.74 / 112 for the heavy-tailed mixture.
        spec = SamplerSpec(pos_counts=HEAVY_POS, neg_counts=NEGS,
                           batch_sizes=(256,), epochs=1,
                           batches_per_cell=400, seed=12)
        (cell,) = posneg_ratio_study(spec)
        assert cell.mean_ratio_pct == pytest.approx(100 * 3.74 / 112, rel=0.05)

    def test_drift_makes_epoch_zero_monotone_in_batch(self):
        spec = SamplerSpec(pos_counts=HEAVY_POS, neg_counts=NEGS,
                           batch_sizes=(16, 32, 64, 128, 256), epochs=2,
                           batches_per_cell=400, seed=7,
                           drift_early_scale=0.3, drift_late_scale=1.0,
                           drift_rate=0.6, drift_batch_exponent=0.5)
        cells = posneg_ratio_study(spec)
        for epoch in (0, 1):
            means = [c.mean_ratio_pct for c in cells if c.epoch == epoch]
            assert all(a < b for a, b in zip(means, means[1:]))

    def test_later_epochs_approach_undrifted_mean(self):
        spec = SamplerSpec(pos_counts=HEAVY_POS, neg_counts=NEGS,
                           batch_sizes=(128,), epochs=8,
                           batches_per_cell=300, seed=8,
                           drift_early_scale=0.3, drift_late_scale=1.0,
                           drift_rate=0.6, drift_batch_exponent=0.5)
        cells = posneg_ratio_study(spec)
        assert cells[0].mean_ratio_pct < cells[-1].mean_ratio_pct
        assert cells[-1].mean_ratio_pct == pytest.approx(100 * 3.74 / 112, rel=0.08)

    def test_deterministic(self):
        spec = SamplerSpec(pos_counts=HEAVY_POS, neg_counts=NEGS,
                           batch_sizes=(16, 64), epochs=2, batches_per_cell=50, seed=9)
        a = [asdict(c) for c in posneg_ratio_study(spec)]
        b = [asdict(c) for c in posneg_ratio_study(spec)]
        assert a == b

    def test_cell_dict_keys(self):
        spec = SamplerSpec(pos_counts=((1, 1.0),), neg_counts=((4, 1.0),),
                           batch_sizes=(2,), epochs=1, batches_per_cell=5, seed=0)
        (cell,) = posneg_ratio_study(spec)
        assert set(asdict(cell)) == {
            "epoch", "batch_size", "mean_ratio_pct", "std_ratio_pct",
            "mean_pos_frac_pct", "std_pos_frac_pct", "zero_positive_batches",
        }


def two_block_grad(batch):
    x, y = batch
    return {"b": np.array([np.mean(x), np.mean(y), np.mean(x * y)]), "a": np.mean(-x * y)}


class TestFastFormsMatchTheirReferences:
    """The report loops skip numpy's Python wrappers; these pin them to the
    wrapped calls they replace, draw for draw and bit for bit."""

    MIXTURES = {
        "default_pos": HEAVY_POS,
        "default_neg": NEGS,
        "zero_prob_inside_and_at_end": ((0, 0.25), (2, 0.0), (5, 0.5), (9, 0.25), (40, 0.0)),
        "zero_prob_first": ((3, 0.0), (4, 1.0)),
        "thirds": ((1, 1 / 3), (2, 1 / 3), (3, 1 / 3)),
        "sevenths": tuple((v, 1 / 7) for v in range(7)),
        "one_value": ((7, 1.0),),
    }

    @pytest.mark.parametrize("size", [1, 7, 256])
    @pytest.mark.parametrize("name", sorted(MIXTURES))
    def test_mixture_draw_is_rng_choice(self, name, size):
        pairs = self.MIXTURES[name]
        values = np.array([v for v, _ in pairs], dtype=float)
        probs = np.array([p for _, p in pairs], dtype=float)
        table = _mixture_table(pairs)
        fast, oracle = np.random.default_rng((4, size)), np.random.default_rng((4, size))
        for _ in range(25):
            got = _draw_mixture(fast, table, size)
            want = values[oracle.choice(len(values), size, p=probs / probs.sum())]
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert fast.random() == oracle.random()  # the generators stayed in step

    @pytest.mark.parametrize("prob", [1 / 7, 0.7 / 7])
    def test_mixture_cdf_ends_at_one(self, prob):
        # normalized, these cumulative sums end one ulp past or two short of 1;
        # short of 1, a uniform draw could index past the last value
        assert _mixture_table([(v, prob) for v in range(7)])[1][-1] == 1.0

    def test_scalar_grad_is_np_mean(self):
        for n in [*range(1, 65), 1000]:
            for seed in range(3):
                x, y = normal_pair_sampler(np.random.default_rng((seed, n)), n)
                got = scalar_linear_grad((x, y))["w"]
                want = np.array(float(np.mean(-x * y)))
                assert got.shape == () and got.tobytes() == want.tobytes(), n

    @pytest.mark.parametrize("shape", [(), (3,), (2, 2)])
    def test_block_variance_is_np_var(self, shape):
        # nine blocks, so their mean is a pairwise sum, not a running one
        rng = np.random.default_rng(1)
        grads = [{f"k{j}": (10.0 ** j) * rng.standard_normal(shape) for j in range(9)}
                 for _ in range(157)]
        stacks = {key: np.stack([g[key] for g in grads]) for key in sorted(grads[0])}
        for idx in (None, rng.integers(0, 157, size=157)):
            assert _aggregate_variance(stacks, idx) == loop_block_variance(grads, idx)

    @pytest.mark.parametrize("grad_fn", [scalar_linear_grad, two_block_grad])
    def test_grad_variance_is_the_loop(self, grad_fn):
        rep = estimate_grad_variance(grad_fn, normal_pair_sampler, 5, 131, 6)
        per_block, agg, half = loop_grad_variance(grad_fn, normal_pair_sampler, 5, 131, 6)
        assert (rep.block_variance, rep.aggregate, rep.ci_half_width) == (per_block, agg, half)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("scaled", [True, False])
    @pytest.mark.parametrize("grad_fn", [scalar_linear_grad, two_block_grad])
    def test_update_variances_are_the_loop(self, grad_fn, scaled, k):
        rep = variance_equivalence_ratio(grad_fn, normal_pair_sampler, 3, k, 0.07, 101, 2,
                                         scaled=scaled)
        assert (rep.var_large, rep.var_small) == loop_update_variances(
            grad_fn, normal_pair_sampler, 3, k, 0.07, 101, 2, scaled)


class TestTrialSeeds:
    """Trial t's generator is bitwise `default_rng((seed, t))`, built from
    `_trial_seed_words` without numpy's per-call seeding."""

    # 2**200 is seven 32-bit words: with t, eight entropy words, four past the pool
    SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**200]
    TRIAL_INDICES = [*range(12), 255, 256, 4097, 40_503, MAX_TRIALS - 2, MAX_TRIALS - 1]

    @pytest.mark.parametrize("seed", SEEDS, ids=["0", "1", "2**32-1", "2**32", "2**64+3",
                                                  "2**200"])
    def test_generators_are_default_rng(self, seed):
        words = _trial_seed_words(seed, MAX_TRIALS)
        assert words.shape == (MAX_TRIALS, 4) and words.dtype == np.uint64
        for t in self.TRIAL_INDICES:
            assert np.array_equal(words[t], np.random.SeedSequence((seed, t))
                                  .generate_state(4, np.uint64)), t
            rng = np.random.Generator(np.random.PCG64(_Words(words[t])))
            ref = np.random.default_rng((seed, t))
            assert rng.bit_generator.state == ref.bit_generator.state, t
            assert np.array_equal(rng.standard_normal(5), ref.standard_normal(5)), t

    def test_negative_seed_is_rejected(self):
        with pytest.raises(AnalysisError, match="seed must be a non-negative integer, got -1"):
            _trial_seed_words(-1, 100)

    @pytest.mark.parametrize("report", ["variance", "equivalence"])
    def test_each_trial_keeps_its_own_generator(self, report):
        seen = []

        def keeping_sampler(rng, n):
            seen.append(rng)
            return normal_pair_sampler(rng, n)

        trials, seed, sizes = 120, 11, (6,) if report == "variance" else (6, 3, 3)
        if report == "variance":
            estimate_grad_variance(scalar_linear_grad, keeping_sampler, 6, trials, seed)
        else:
            variance_equivalence_ratio(scalar_linear_grad, keeping_sampler, 3, 2, 0.1,
                                       trials, seed)
        per_trial = seen[::len(sizes)]
        assert seen == [rng for rng in per_trial for _ in sizes]
        assert len({id(rng) for rng in per_trial}) == trials
        for t in (0, 1, trials // 2, trials - 1):  # every trial is done; each draws on
            ref = np.random.default_rng((seed, t))
            for n in sizes:
                normal_pair_sampler(ref, n)
            assert np.array_equal(per_trial[t].standard_normal(4), ref.standard_normal(4)), t
