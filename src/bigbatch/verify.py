"""Self-check suites behind the `verify` subcommand.

Four suites cover the load-bearing invariants: `bn` (concat-equivalence
and statistics bookkeeping), `grad` (finite-difference agreement of the
hand-written backward passes and of `sgd_step`'s weight-decay term),
`collectives` (bitwise determinism and rank symmetry), and `schedule`
(exact breakpoint arithmetic). Each check
returns a named pass/fail result so CI output pinpoints what broke.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .batchnorm import BNLayerState, bn_forward_local, sync_bn_backward, sync_bn_forward
from .collectives import SCOPE_BN_GROUP, SCOPE_WORLD, DeviceGroup, allreduce_sum, broadcast
from .model import LayerSpec, ModelSpec, backward, forward, init_buffers, init_params, plan
from .optim import SGDState, l2_penalty, lr_at, make_policy, scaled_target_lr, sgd_step
from .tensor import Tensor, image_rows

FD_STEP = 1e-5
FD_TOL = 1e-6
BN_TOL = 1e-9
REL_FLOOR = 1e-3  # below this magnitude the comparison is effectively absolute


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        suffix = f"  ({self.detail})" if self.detail else ""
        return f"[{mark}] {self.name}{suffix}"


def rel_err(a, b) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), REL_FLOOR)
    return float(np.max(np.abs(a - b) / denom))


# ---------------------------------------------------------------------------
# bn suite


def _random_case(rng):
    g = int(rng.integers(1, 5))
    c = int(rng.integers(1, 6))
    h = int(rng.integers(1, 5))
    w = int(rng.integers(1, 5))
    shards = [int(rng.integers(1, 5)) for _ in range(g)]
    if sum(shards) * h * w < 2:
        shards[0] += 1
    xs = [image_rows(rng.standard_normal((n, c, h, w))) for n in shards]
    gamma = rng.standard_normal(c)
    beta = rng.standard_normal(c)
    return g, c, xs, gamma, beta


def _group_forward(g, xs, gamma, beta, one_pass=False):
    group = DeviceGroup(g)

    def worker(handle):
        y, cache = sync_bn_forward(handle, xs[handle.rank], gamma, beta,
                                   BNLayerState.create(gamma.shape[0]), one_pass=one_pass)
        return y, cache.mu, cache.var

    return group.run(worker)


def check_concat_equivalence(seed) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(25):
        g, c, xs, gamma, beta = _random_case(rng)
        outs = _group_forward(g, xs, gamma, beta)
        ref, _ = bn_forward_local(np.concatenate(xs), gamma, beta, BNLayerState.create(c))
        stacked = np.concatenate([y for y, _, _ in outs])
        worst = max(worst, rel_err(stacked, ref))
    return CheckResult("bn.concat_equivalence", worst <= BN_TOL,
                       f"max rel err {worst:.3e} over 25 cases")


def check_single_group_bitwise(seed) -> CheckResult:
    rng = np.random.default_rng(seed)
    x = image_rows(rng.standard_normal((5, 3, 2, 2)))
    gamma, beta = rng.standard_normal(3), rng.standard_normal(3)
    (y_sync, mu, var), = _group_forward(1, [x], gamma, beta)
    y_local, cache = bn_forward_local(x, gamma, beta, BNLayerState.create(3))
    same = (np.array_equal(y_sync, y_local)
            and np.array_equal(mu, cache.mu) and np.array_equal(var, cache.var))
    return CheckResult("bn.single_group_bitwise", same,
                       "synchronized path at group size 1 equals local BN byte for byte")


def check_one_pass_agreement(seed) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(10):
        g, c, xs, gamma, beta = _random_case(rng)
        two = _group_forward(g, xs, gamma, beta, one_pass=False)
        one = _group_forward(g, xs, gamma, beta, one_pass=True)
        for (y2, _, var2), (y1, _, var1) in zip(two, one):
            worst = max(worst, rel_err(y2, y1), rel_err(var2, var1))
    return CheckResult("bn.one_pass_agreement", worst <= BN_TOL,
                       f"max rel err {worst:.3e}")


def check_running_stats(seed) -> CheckResult:
    rng = np.random.default_rng(seed)
    x = image_rows(rng.standard_normal((6, 2, 3, 3)))
    state = BNLayerState.create(2, running_momentum=1.0)
    gamma, beta = np.ones(2), np.zeros(2)
    _, cache = bn_forward_local(x, gamma, beta, state)
    m = cache.total_count
    want_var = cache.var * (m / (m - 1.0))
    ok = (np.allclose(state.running_mean, cache.mu, rtol=0, atol=0)
          and np.allclose(state.running_var, want_var, rtol=0, atol=0))
    before = state.running_mean.tobytes() + state.running_var.tobytes()
    # another batch: an eval that blended its statistics would rewrite both buffers
    bn_forward_local(2 * x + 1, gamma, beta, state, mode="eval")
    ok = ok and state.running_mean.tobytes() + state.running_var.tobytes() == before
    return CheckResult("bn.running_stats", ok,
                       "momentum-1 update equals unbiased batch stats; eval leaves them alone")


def suite_bn(seed: int = 0) -> list:
    return [
        check_concat_equivalence(seed),
        check_single_group_bitwise(seed + 1),
        check_one_pass_agreement(seed + 2),
        check_running_stats(seed + 3),
    ]


# ---------------------------------------------------------------------------
# grad suite


def _central_diff(f, a: np.ndarray, idx=None) -> float:
    """(f(hi) - f(lo)) / (2 * FD_STEP) on two copies of `a`, moved by +-FD_STEP
    at `idx`. With idx None both stay unmoved: a rank that owns no coordinate
    still evaluates a collective objective in lockstep with its peers."""
    hi = a.copy()
    lo = a.copy()
    if idx is not None:
        hi[idx] += FD_STEP
        lo[idx] -= FD_STEP
    return (f(hi) - f(lo)) / (2 * FD_STEP)


def sync_bn_fd_max_err(world_size: int, shard_sizes, channels: int, hw, seed: int) -> float:
    """Max relative error between analytic and central-difference gradients
    through a full multi-device synchronized forward.

    The scalar objective is sum over ranks of <y_r, c_r> for fixed random
    cotangents c_r, reduced with a world AllReduce so every rank sees the
    same value. All ranks evaluate every perturbed objective in lockstep;
    only the owning rank applies the perturbation to its shard.
    """
    h, w = hw
    rng = np.random.default_rng(seed)
    xs = [rng.standard_normal((n, channels, h, w)) for n in shard_sizes]
    cots = [image_rows(rng.standard_normal(x.shape)) for x in xs]
    gamma = rng.standard_normal(channels)
    beta = rng.standard_normal(channels)
    coord_rng = np.random.default_rng((seed, 7))
    coords = {r: [tuple(int(coord_rng.integers(0, e)) for e in xs[r].shape)
                  for _ in range(4)]
              for r in range(world_size)}
    # BN takes rows: image i's pixel (y, x), channel c, is entry ((i*h + y)*w + x, c)
    coords = {r: [((i * h + y) * w + x, c) for i, c, y, x in idxs] for r, idxs in coords.items()}
    xs = [image_rows(x) for x in xs]
    group = DeviceGroup(world_size)

    def worker(handle):
        me = handle.rank

        def objective(local_x, g_vec, b_vec):
            y, _ = sync_bn_forward(handle, local_x, g_vec, b_vec, BNLayerState.create(channels))
            part = float(np.sum(y * cots[me]))
            return float(allreduce_sum(handle, SCOPE_WORLD, np.array([part]))[0])

        state = BNLayerState.create(channels)
        _, cache = sync_bn_forward(handle, xs[me], gamma, beta, state)
        dx, dgamma, dbeta = sync_bn_backward(handle, cots[me], cache, state)

        worst = 0.0
        for r in range(world_size):
            for idx in coords[r]:
                fd = _central_diff(lambda a: objective(a, gamma, beta), xs[me],
                                   idx if r == me else None)
                if r == me:
                    worst = max(worst, rel_err(fd, dx[idx]))
        for c in range(channels):
            fd_gamma = _central_diff(lambda g: objective(xs[me], g, beta), gamma, c)
            fd_beta = _central_diff(lambda b: objective(xs[me], gamma, b), beta, c)
            worst = max(worst, rel_err(fd_gamma, dgamma[c]), rel_err(fd_beta, dbeta[c]))
        return worst

    return max(group.run(worker))


def _tiny_model() -> ModelSpec:
    return ModelSpec(layers=[
        LayerSpec(kind="conv3x3", out_channels=3),
        LayerSpec(kind="bn"),
        LayerSpec(kind="relu"),
        LayerSpec(kind="conv3x3", out_channels=3),  # a second conv forms an input gradient
        LayerSpec(kind="relu"),
        LayerSpec(kind="global_mean_pool"),
        LayerSpec(kind="dense", out_features=3),
        LayerSpec(kind="softmax_xent"),
    ], in_shape=(1, 4, 4))


def model_fd_max_err(seed: int) -> float:
    """FD check of the gradient training applies against task loss + `l2_penalty`.

    That gradient is the velocity of one zero-rate, zero-momentum `sgd_step`.
    """
    model = _tiny_model()
    params = init_params(model, seed)
    rng = np.random.default_rng((seed, 1))
    x = Tensor(rng.standard_normal((6, 1, 4, 4)))
    labels = rng.integers(0, 3, size=6)
    # Nudge the BN scale off its all-ones init so its gradient path is generic.
    params["01_bn.gamma"] = params["01_bn.gamma"] + 0.3 * rng.standard_normal(3)

    def total_loss(p):
        out = forward(plan(model, p, init_buffers(model)), x, labels, mode="train")
        return out.loss + l2_penalty(p, 1e-2)

    model_plan = plan(model, params, init_buffers(model))
    out = forward(model_plan, x, labels, mode="train")
    replica = dict(params)
    sgd = SGDState.create(replica, momentum=0.0, weight_decay=1e-2)
    sgd_step(replica, backward(model_plan, out.caches), sgd, lr=0.0)
    grads = sgd.velocity  # g + wd * w
    worst = 0.0
    coord_rng = np.random.default_rng((seed, 2))
    for key in sorted(params):
        shape = params[key].shape
        n = params[key].size
        picks = coord_rng.choice(n, size=min(6, n), replace=False)
        for i in picks:
            fd = _central_diff(lambda w: total_loss({**params, key: w.reshape(shape)}),
                               params[key].ravel(), i)
            worst = max(worst, rel_err(fd, grads[key].ravel()[i]))
    return worst


def suite_grad(seed: int = 0) -> list:
    worst_bn = max(
        sync_bn_fd_max_err(2, (3, 2), 3, (2, 2), seed),
        sync_bn_fd_max_err(4, (2, 2, 2, 2), 2, (3, 2), seed + 1),
    )
    results = [CheckResult("grad.sync_bn_fd", worst_bn <= FD_TOL,
                           f"max rel err {worst_bn:.3e}")]
    worst_model = model_fd_max_err(seed)
    results.append(CheckResult("grad.model_fd", worst_model <= FD_TOL,
                               f"max rel err {worst_model:.3e}"))
    return results


# ---------------------------------------------------------------------------
# collectives suite


def _round_trip(seed):
    world = 8
    group = DeviceGroup(world)

    def worker(handle):
        rng = np.random.default_rng((seed, handle.rank, 42))
        acc = []
        for i in range(20):
            v = rng.standard_normal(5)
            acc.append(allreduce_sum(handle, SCOPE_WORLD, v).copy())
            root = i % world
            payload = np.arange(3, dtype=float) * (i + 1) if handle.rank == root else None
            acc.append(broadcast(handle, SCOPE_WORLD, root, payload).copy())
        return np.concatenate(acc)

    return group.run(worker)


def check_rank_symmetry(seed) -> CheckResult:
    outs = _round_trip(seed)
    same = all(np.array_equal(outs[0], o) for o in outs[1:])
    return CheckResult("collectives.rank_symmetry", same,
                       f"world {len(outs)}: every rank saw identical bytes")


def check_repeat_determinism(seed) -> CheckResult:
    a = _round_trip(seed)
    b = _round_trip(seed)
    same = all(np.array_equal(x, y) for x, y in zip(a, b))
    return CheckResult("collectives.repeat_determinism", same,
                       "two runs produced identical bytes")


def check_sequential_order(seed) -> CheckResult:
    rng = np.random.default_rng(seed)
    vecs = [rng.standard_normal(7) for _ in range(5)]
    expect = vecs[0].copy()
    for v in vecs[1:]:
        expect = expect + v
    group = DeviceGroup(5)
    outs = group.run(lambda h: allreduce_sum(h, SCOPE_WORLD, vecs[h.rank]))
    same = all(np.array_equal(o, expect) for o in outs)
    return CheckResult("collectives.sequential_order", same,
                       "sum equals strict rank 0..n-1 left-to-right accumulation")


def check_scope_isolation() -> CheckResult:
    group = DeviceGroup(4, bn_group_size=2)

    def worker(handle):
        mine = np.array([float(handle.rank + 1)])
        return allreduce_sum(handle, SCOPE_BN_GROUP, mine)[0]

    outs = [float(v) for v in group.run(worker)]
    ok = outs == [3.0, 3.0, 7.0, 7.0]
    return CheckResult("collectives.scope_isolation", ok,
                       f"per-subgroup sums {outs}")


def suite_collectives(seed: int = 0) -> list:
    return [
        check_rank_symmetry(seed),
        check_repeat_determinism(seed + 1),
        check_sequential_order(seed + 2),
        check_scope_isolation(),
    ]


# ---------------------------------------------------------------------------
# schedule suite


def suite_schedule() -> list:
    results = []
    base = make_policy("normal", actual_batch=16)
    results.append(CheckResult(
        "schedule.base_case", scaled_target_lr(base) == 0.02,
        "batch 16 keeps the 0.02 base rate"))

    p = make_policy("normal", actual_batch=16)
    r_hat = scaled_target_lr(p)
    ipe = 100
    probes = [(7, r_hat), (8, r_hat * 0.1), (10, r_hat * 0.1 * 0.1)]
    ok = all(lr_at(p, e, 0, ipe) == want for e, want in probes)
    results.append(CheckResult("schedule.normal_breakpoints", ok,
                               "x0.1 at epochs 8 and 10, exact"))

    pl = make_policy("long", actual_batch=16)
    rl = scaled_target_lr(pl)
    probes = [(10, rl), (11, rl * 0.1), (14, rl * 0.1 * 0.1),
              (17, rl * 0.1 * 0.1 * 0.5)]
    ok = all(lr_at(pl, e, 0, ipe) == want for e, want in probes)
    results.append(CheckResult("schedule.long_breakpoints", ok,
                               "x0.1 at 11/14 plus x0.5 at 17, exact"))

    pw = make_policy("normal", actual_batch=256, warmup_iters=50)
    start = lr_at(pw, 0, 0, ipe)
    end = lr_at(pw, 0, 50, ipe)
    ok = start == pw.base_lr and end == scaled_target_lr(pw)
    results.append(CheckResult("schedule.warmup_endpoints", ok,
                               f"ramp runs from {start} to {end} exactly"))

    vals = [lr_at(pw, e, i, ipe) for e in range(11) for i in range(0, ipe, 7)]
    after = vals[8:]
    ok = all(b <= a for a, b in zip(after, after[1:]))
    results.append(CheckResult("schedule.nonincreasing_after_warmup", ok,
                               "rate never rises once the ramp is over"))
    return results


SUITES = {
    "bn": suite_bn,
    "grad": suite_grad,
    "collectives": suite_collectives,
    "schedule": lambda seed=0: suite_schedule(),
}


def run_suite(name: str, seed: int = 0) -> list:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}, expected one of {sorted(SUITES)}")
    return SUITES[name](seed=seed)
