"""Acceptance gate: the eight end-to-end claims this package stands on.

Each test prints a single verdict line straight to the terminal (capture
bypassed) so a plain `pytest -v` run ends with a human-readable scorecard,
then asserts the same condition. Tolerances and time budgets are fixed
here on purpose; loosening them is an API change, not a test tweak.

The checks deliberately recompute their references independently: BN
against the single-big-batch path, gradients against central differences,
variances against the closed-form 1/N law of a model whose per-sample
gradient variance is exactly 1, schedules against hand-folded products.
"""

import time

import numpy as np
import pytest

from bigbatch import (
    BNLayerState,
    DeviceGroup,
    ExperimentConfig,
    SCOPE_BN_GROUP,
    SCOPE_WORLD,
    SamplerSpec,
    allreduce_sum,
    bn_forward_local,
    broadcast,
    estimate_grad_variance,
    lr_at,
    make_policy,
    normal_pair_sampler,
    posneg_ratio_study,
    run_training,
    scalar_linear_grad,
    scaled_target_lr,
    sync_bn_backward,
    sync_bn_forward,
    variance_equivalence_ratio,
)

from helpers import rel_err


@pytest.fixture
def verdict(capsys):
    def _verdict(label, passed, detail):
        with capsys.disabled():
            print(f"\n[{label}] {'PASS' if passed else 'FAIL'}: {detail}")
        assert passed, f"{label}: {detail}"
    return _verdict


def test_criterion_1_cross_device_bn_matches_concatenated_batch(verdict):
    """Sharded forward == local forward on the concatenated batch, 1e-9."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    cases = 200
    worst = 0.0
    for _ in range(cases):
        g = int(rng.choice([1, 2, 3, 4, 8]))
        c = int(rng.integers(1, 6))
        h = int(rng.integers(1, 5))
        w = int(rng.integers(1, 5))
        shards = [int(rng.integers(1, 5)) for _ in range(g)]
        if sum(shards) * h * w < 2:
            shards[0] += 1
        xs = [rng.standard_normal((n, c, h, w)) for n in shards]
        gamma = rng.standard_normal(c)
        beta = rng.standard_normal(c)

        def worker(handle):
            state = BNLayerState.create(c)
            y, _ = sync_bn_forward(handle, xs[handle.rank], gamma, beta, state)
            return y

        outs = DeviceGroup(g).run(worker)
        ref_state = BNLayerState.create(c)
        ref, _ = bn_forward_local(np.concatenate(xs), gamma, beta, ref_state)
        worst = max(worst, rel_err(np.concatenate(outs), ref))
    elapsed = time.perf_counter() - t0
    verdict("cross-device bn == one big batch",
            worst <= 1e-9 and elapsed < 60.0,
            f"max rel err {worst:.3e} over {cases} cases "
            f"(groups 1..8, tol 1e-9) in {elapsed:.1f}s")


def _fd_case(case_seed, step=1e-5):
    """Max rel err between analytic and central-difference gradients for
    one random sharded configuration. The scalar objective sums <y_r, c_r>
    over ranks; every rank evaluates every perturbed objective in lockstep
    so the collective call pattern stays aligned."""
    rng = np.random.default_rng(case_seed)
    world = int(rng.choice([1, 2, 4]))
    shards = [int(rng.integers(1, 4)) for _ in range(world)]
    c = int(rng.integers(1, 4))
    h = int(rng.integers(1, 4))
    w = int(rng.integers(1, 4))
    if sum(shards) * h * w < 2:
        shards[0] += 1
    xs = [rng.standard_normal((n, c, h, w)) for n in shards]
    cots = [rng.standard_normal(x.shape) for x in xs]
    gamma = rng.standard_normal(c)
    beta = rng.standard_normal(c)
    coords = {r: [tuple(int(rng.integers(0, e)) for e in xs[r].shape)
                  for _ in range(2)]
              for r in range(world)}

    def worker(handle):
        me = handle.rank

        def objective(local_x, g_vec, b_vec):
            state = BNLayerState.create(c)
            y, _ = sync_bn_forward(handle, local_x, g_vec, b_vec, state)
            part = float(np.sum(y * cots[me]))
            return float(allreduce_sum(handle, SCOPE_WORLD, np.array([part]))[0])

        state = BNLayerState.create(c)
        _, cache = sync_bn_forward(handle, xs[me], gamma, beta, state)
        dx, dgamma, dbeta = sync_bn_backward(handle, cots[me], cache, state)

        worst = 0.0
        for r in range(world):
            for idx in coords[r]:
                hi, lo = xs[me].copy(), xs[me].copy()
                if r == me:
                    hi[idx] += step
                    lo[idx] -= step
                fd = (objective(hi, gamma, beta)
                      - objective(lo, gamma, beta)) / (2 * step)
                if r == me:
                    worst = max(worst, rel_err(fd, dx[idx]))
        for ci in range(c):
            hi, lo = gamma.copy(), gamma.copy()
            hi[ci] += step
            lo[ci] -= step
            fd = (objective(xs[me], hi, beta)
                  - objective(xs[me], lo, beta)) / (2 * step)
            worst = max(worst, rel_err(fd, dgamma[ci]))
            hi, lo = beta.copy(), beta.copy()
            hi[ci] += step
            lo[ci] -= step
            fd = (objective(xs[me], gamma, hi)
                  - objective(xs[me], gamma, lo)) / (2 * step)
            worst = max(worst, rel_err(fd, dbeta[ci]))
        return worst

    return max(DeviceGroup(world).run(worker))


def test_criterion_2_bn_gradients_match_finite_differences(verdict):
    t0 = time.perf_counter()
    cases = 50
    worst = max(_fd_case(1000 + i) for i in range(cases))
    elapsed = time.perf_counter() - t0
    verdict("sync bn backward == central differences",
            worst <= 1e-6 and elapsed < 300.0,
            f"max rel err {worst:.3e} over {cases} sharded cases "
            f"(tol 1e-6) in {elapsed:.1f}s")


def _hundred_rounds(run_seed):
    group = DeviceGroup(8, bn_group_size=4)

    def worker(handle):
        rng = np.random.default_rng((run_seed, handle.rank, 77))
        world_parts, group_parts = [], []
        for i in range(100):
            world_parts.append(
                allreduce_sum(handle, SCOPE_WORLD, rng.standard_normal(6)))
            mine = np.array([float((handle.rank + 1) * (i + 1))])
            group_parts.append(allreduce_sum(handle, SCOPE_BN_GROUP, mine))
            root = i % 8
            payload = (np.arange(4, dtype=float) * (i + 1)
                       if handle.rank == root else None)
            world_parts.append(broadcast(handle, SCOPE_WORLD, root, payload))
        return np.concatenate(world_parts), np.concatenate(group_parts)

    return group.run(worker)


def test_criterion_3_collectives_bitwise_reproducible(verdict):
    t0 = time.perf_counter()
    first = _hundred_rounds(run_seed=3)
    second = _hundred_rounds(run_seed=3)

    across_runs = all(
        np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        for a, b in zip(first, second))
    world_vals = [w for w, _ in first]
    across_ranks = all(np.array_equal(world_vals[0], v) for v in world_vals[1:])
    group_vals = [g for _, g in first]
    within_groups = (
        all(np.array_equal(group_vals[0], v) for v in group_vals[1:4])
        and all(np.array_equal(group_vals[4], v) for v in group_vals[5:]))
    isolated = not np.array_equal(group_vals[0], group_vals[4])
    elapsed = time.perf_counter() - t0
    verdict("collectives bitwise reproducible",
            across_runs and across_ranks and within_groups and isolated
            and elapsed < 30.0,
            f"world 8, 300 collectives over 100 rounds: identical bytes across "
            f"ranks and across runs, sub-groups isolated, in {elapsed:.1f}s")


def test_criterion_4_gradient_variance_follows_one_over_n(verdict):
    # the probe model's per-sample gradient has variance exactly 1, so
    # N * Var(mini-batch gradient) should sit at 1.0 for every N
    t0 = time.perf_counter()
    sizes = (1, 2, 4, 8, 16)
    trials = 1000
    scaled_n = []
    for n in sizes:
        rep = estimate_grad_variance(scalar_linear_grad, normal_pair_sampler,
                                     n, trials, seed=0)
        scaled_n.append(n * rep.aggregate)
    law_dev = max(abs(v - 1.0) for v in scaled_n)

    scaled_ratios, unscaled_scaled = [], []
    for k in (2, 4):
        s = variance_equivalence_ratio(scalar_linear_grad, normal_pair_sampler,
                                       8, k, 0.02, trials, seed=k, scaled=True)
        u = variance_equivalence_ratio(scalar_linear_grad, normal_pair_sampler,
                                       8, k, 0.02, trials, seed=k, scaled=False)
        scaled_ratios.append(s.ratio)
        unscaled_scaled.append(u.ratio * k * k)
    equiv_ok = (all(0.85 <= r <= 1.15 for r in scaled_ratios)
                and all(0.8 <= r <= 1.2 for r in unscaled_scaled))
    elapsed = time.perf_counter() - t0
    verdict("gradient variance follows 1/N; linear scaling matches accumulation",
            law_dev <= 0.15 and equiv_ok and elapsed < 120.0,
            f"max |N*Var - 1| = {law_dev:.3f} over N={sizes}; "
            f"scaled-rate update ratios {[round(r, 3) for r in scaled_ratios]} "
            f"(k=2,4, want ~1); unscaled x k^2 = "
            f"{[round(r, 3) for r in unscaled_scaled]} in {elapsed:.1f}s")


def test_criterion_5_lr_schedule_exact(verdict):
    checks = []
    ipe = 500

    p16 = make_policy("normal", actual_batch=16)
    checks.append(scaled_target_lr(p16) == 0.02)

    p256 = make_policy("normal", actual_batch=256, warmup_iters=100)
    r = scaled_target_lr(p256)
    checks.append(r == 0.02 * 16)
    checks.append(lr_at(p256, 0, 0, ipe) == 0.02)
    checks.append(lr_at(p256, 0, 100, ipe) == 0.32)
    checks.append(lr_at(p256, 0, 50, ipe) == 0.02 + (0.32 - 0.02) * (50 / 100))
    checks.append(lr_at(p256, 7, ipe - 1, ipe) == r)
    checks.append(lr_at(p256, 8, 0, ipe) == r * 0.1)
    checks.append(lr_at(p256, 10, 0, ipe) == (r * 0.1) * 0.1)

    p64h = make_policy("normal", actual_batch=64, half_lr=True)
    checks.append(scaled_target_lr(p64h) == 0.04)

    pl = make_policy("long", actual_batch=128, warmup_iters=0)
    rl = scaled_target_lr(pl)
    checks.append(rl == 0.16)
    checks.append(lr_at(pl, 10, 0, ipe) == rl)
    checks.append(lr_at(pl, 11, 0, ipe) == rl * 0.1)
    checks.append(lr_at(pl, 14, 0, ipe) == (rl * 0.1) * 0.1)
    checks.append(lr_at(pl, 17, 0, ipe) == ((rl * 0.1) * 0.1) * 0.5)

    verdict("lr schedule breakpoints exact",
            all(checks),
            f"{len(checks)} probes (warmup endpoints and midpoint, x16 and "
            f"half-rate scaling, step products for both decay plans), all ==")


def test_criterion_6_device_count_invariance(verdict):
    t0 = time.perf_counter()
    base = dict(per_device_batch=8, warmup_iters=16, epochs=21,
                dataset={"size": 640, "classes": 4}, seed=0)
    wide = run_training(ExperimentConfig.from_dict({**base, "world_size": 8}))
    narrow = run_training(ExperimentConfig.from_dict(
        {**base, "world_size": 1, "per_device_batch": 64}))
    ok = wide.status == narrow.status == "ok"
    lw = [r.task_loss for r in wide.rows if r.task_loss is not None]
    ln = [r.task_loss for r in narrow.rows if r.task_loss is not None]
    worst = max(rel_err(a, b) for a, b in zip(lw, ln))
    evals_equal = wide.eval_history == narrow.eval_history
    elapsed = time.perf_counter() - t0
    verdict("8 devices == 1 device at the same total batch",
            ok and len(lw) >= 200 and worst <= 1e-7 and evals_equal
            and elapsed < 300.0,
            f"max rel loss gap {worst:.3e} over {len(lw)} iterations "
            f"(tol 1e-7), eval history identical, in {elapsed:.1f}s")


CRITERION_7_MODEL = [
    {"kind": "conv3x3", "out_channels": 6}, {"kind": "bn", "variant": "cross"},
    {"kind": "relu"},
    {"kind": "conv3x3", "out_channels": 6}, {"kind": "bn", "variant": "cross"},
    {"kind": "relu"},
    {"kind": "global_mean_pool"}, {"kind": "dense", "out_features": None},
]


def test_criterion_7_large_batch_accuracy_parity(verdict):
    # reference recipe (batch 8) against 8 devices at 8x the batch with the
    # linearly scaled rate and a warmup ramp; parity within 2 points
    t0 = time.perf_counter()
    dataset = {"size": 1024, "classes": 4, "separation": 4.0, "eval_size": 256}

    def final_acc(world, warmup, seed):
        cfg = ExperimentConfig.from_dict(dict(
            world_size=world, per_device_batch=8, warmup_iters=warmup,
            base_lr=0.10, base_batch=8, model=CRITERION_7_MODEL,
            dataset=dataset, seed=seed))
        result = run_training(cfg)
        assert result.status == "ok"
        return result.eval_history[-1][1]

    seeds = range(5)
    small = [final_acc(1, 0, s) for s in seeds]
    large = [final_acc(8, 32, s) for s in seeds]
    gap = abs(float(np.mean(small)) - float(np.mean(large)))
    elapsed = time.perf_counter() - t0
    verdict("large-batch recipe holds accuracy",
            gap <= 0.02 and elapsed < 900.0,
            f"5-seed mean accuracy {np.mean(small):.4f} (batch 8) vs "
            f"{np.mean(large):.4f} (8 devices, batch 64, scaled lr + warmup): "
            f"gap {gap * 100:.2f}pp (budget 2pp) in {elapsed:.0f}s")


def test_criterion_8_ratio_spread_and_drift(verdict):
    t0 = time.perf_counter()
    counts = dict(
        pos_counts=((0, 0.25), (1, 0.35), (3, 0.25), (12, 0.12), (40, 0.03)),
        neg_counts=((96, 0.5), (128, 0.5)))

    # i.i.d. sampling: a 16x larger batch should shrink the ratio spread
    # by about 4x; demand at least 3x
    iid = SamplerSpec(batch_sizes=(16, 256), epochs=1, batches_per_cell=400,
                      seed=0, **counts)
    small_cell, big_cell = posneg_ratio_study(iid)
    spread_ratio = small_cell.std_ratio_pct / big_cell.std_ratio_pct
    spread_ok = spread_ratio >= 3.0

    # with early-epoch drift switched on, bigger batches mix earlier and
    # later sampling regimes, so the epoch-0 mean climbs with batch size
    drift = SamplerSpec(batch_sizes=(16, 32, 64, 128, 256), epochs=4,
                        batches_per_cell=400, seed=0,
                        drift_early_scale=0.3, drift_late_scale=1.0,
                        drift_rate=0.6, drift_batch_exponent=0.5, **counts)
    cells = posneg_ratio_study(drift)
    epoch0 = sorted((c for c in cells if c.epoch == 0),
                    key=lambda c: c.batch_size)
    means0 = [c.mean_ratio_pct for c in epoch0]
    mono_ok = all(a < b for a, b in zip(means0, means0[1:]))

    # by the last epoch the drift has mostly washed out: every batch size
    # ends closer to the undrifted i.i.d. mean than it started
    anchor = small_cell.mean_ratio_pct

    def devs(epoch):
        sel = sorted((c for c in cells if c.epoch == epoch),
                     key=lambda c: c.batch_size)
        return [abs(c.mean_ratio_pct - anchor) / anchor for c in sel]

    first_devs, last_devs = devs(0), devs(drift.epochs - 1)
    settle_ok = (all(l < f for f, l in zip(first_devs, last_devs))
                 and max(last_devs) <= 0.15)

    elapsed = time.perf_counter() - t0
    verdict("ratio spread shrinks with batch size; drift skews early epochs",
            spread_ok and mono_ok and settle_ok and elapsed < 60.0,
            f"std(batch 16)/std(batch 256) = {spread_ratio:.2f} (want >= 3); "
            f"epoch-0 means {[round(m, 2) for m in means0]} strictly rising; "
            f"final-epoch offsets from the i.i.d. mean "
            f"{max(last_devs) * 100:.0f}% (down from "
            f"{max(first_devs) * 100:.0f}%), in {elapsed:.1f}s")
