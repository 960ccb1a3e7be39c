"""SGD with momentum, weight decay, and step-decay schedules with warmup.

The learning-rate side implements the linear scaling rule: when the total
mini-batch grows by a factor k over the reference batch, the target rate
becomes k times the base rate, optionally approached through a linear
per-iteration warmup ramp. Two named decay policies are provided, "normal"
(decay by 0.1 at epochs 8 and 10, stop after 11) and "long" (0.1 at 11 and
14, a further 0.5 at 17, stop after 18).

The optimizer side keeps each replica's parameters and momentum in two flat
float64 buffers laid out in sorted-key order; the parameter dict holds views
of the first. One update is a handful of whole-buffer operations, with
weight decay applied on the decay keys' spans only, and it is written in
place after the results pass a finiteness scan. Every element sees the same
operations in the same order as a per-key update, so the results are
bitwise equal to one.

Weight decay lives here alone: `weight_keys` says which parameters decay,
`l2_penalty` is the 0.5 * wd * ||w||^2 the trainer reports as `reg_loss`,
and `sgd_step` adds its gradient, wd * w. The model returns the task loss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .schema import check, integer, number, one_of

BASE_BATCH = 16
BASE_LR = 0.02
RATE = number(gt=0)  # a learning rate
BATCH = integer(gt=0)  # a batch size

POLICIES = {"normal": (((8, 0.1), (10, 0.1)), 11),  # name: ((epoch, multiplier)s, end epoch)
            "long": (((11, 0.1), (14, 0.1), (17, 0.5)), 18)}
POLICY = one_of(*POLICIES)

DEFAULT_WARMUP_CAP = 500


class ScheduleError(ValueError):
    """Invalid learning-rate policy."""


class DivergenceError(FloatingPointError):
    """An update produced non-finite parameters or velocity."""


@dataclass(frozen=True)
class LRPolicy:
    base_lr: float
    actual_batch: int
    base_batch: int = BASE_BATCH
    warmup_iters: int = 0
    milestones: tuple = ()
    end_epoch: int = 1
    half_lr: bool = False

    def __post_init__(self):
        check(ScheduleError, (RATE, self.base_lr, "base_lr"),
              (BATCH, self.actual_batch, "actual_batch"), (BATCH, self.base_batch, "base_batch"),
              (integer(ge=0), self.warmup_iters, "warmup_iters"),
              (integer(gt=0), self.end_epoch, "end_epoch"))
        target = scaled_target_lr(self)
        if not np.isfinite(target):  # warmup would ramp toward it through NaN
            raise ScheduleError(
                f"the target rate (actual_batch / base_batch) * base_lr must be finite, got "
                f"({self.actual_batch} / {self.base_batch}) * {self.base_lr!r} = {target}")
        last = -1
        for epoch, mult in self.milestones:
            if epoch <= last:
                raise ScheduleError("milestone epochs must be strictly increasing")
            if not 0.0 < mult <= 1.0:
                raise ScheduleError(f"milestone multiplier must be in (0, 1], got {mult}")
            last = epoch


def make_policy(name: str, actual_batch: int, base_lr: float = BASE_LR,
                base_batch: int = BASE_BATCH, warmup_iters: int = 0,
                half_lr: bool = False) -> LRPolicy:
    """A named step-decay schedule of `POLICIES`, parameterized by batch size."""
    check(ScheduleError, (POLICY, name, "policy"))
    milestones, end = POLICIES[name]
    return LRPolicy(base_lr=base_lr, actual_batch=actual_batch, base_batch=base_batch,
                    warmup_iters=warmup_iters, milestones=milestones,
                    end_epoch=end, half_lr=half_lr)


def default_warmup_iters(iters_per_epoch: int) -> int:
    """Default ramp length: 500 iterations or one epoch, whichever is shorter."""
    return min(DEFAULT_WARMUP_CAP, iters_per_epoch)


def scaled_target_lr(policy: LRPolicy) -> float:
    """Post-warmup plateau rate: (actual/base) * base_lr, halved on request."""
    lr = (policy.actual_batch / policy.base_batch) * policy.base_lr
    return 0.5 * lr if policy.half_lr else lr


def lr_at(policy: LRPolicy, epoch: int, iter_in_epoch: int, iters_per_epoch: int) -> float:
    """Effective rate at a given iteration.

    During warmup the rate ramps linearly from base_lr to the scaled
    target; from the iteration the ramp ends the value is exactly the
    target times the product of all milestone multipliers whose epoch has
    been reached.
    """
    if iters_per_epoch <= 0:
        raise ScheduleError("iters_per_epoch must be positive")
    global_iter = epoch * iters_per_epoch + iter_in_epoch
    if global_iter < 0:
        raise ScheduleError("iteration index must be nonnegative")
    r = policy.base_lr
    target = scaled_target_lr(policy)
    if global_iter < policy.warmup_iters:
        return r + (target - r) * (global_iter / policy.warmup_iters)
    # Milestones fold into the rate one by one (lr *= mult at each epoch
    # boundary passed), so a decayed value is exactly the product written
    # out left to right.
    lr = target
    for m_epoch, mult in policy.milestones:
        if m_epoch <= epoch:
            lr *= mult
    return lr


def weight_keys(params: dict) -> list:
    """Parameter keys subject to weight decay, sorted: the .w matrices and kernels."""
    return sorted(k for k in params if k.endswith(".w"))


def l2_penalty(params: dict, weight_decay: float) -> float:
    """0.5 * weight_decay * the sum of squares over `weight_keys`, in their order."""
    total = 0.0
    if weight_decay:  # with no decay the penalty is a signed zero: skip the squares
        for k in weight_keys(params):
            w = params[k]
            total += float(np.dot(w.ravel(), w.ravel()))
    return 0.5 * weight_decay * total


@dataclass(eq=False)
class SGDState:
    """Momentum SGD over one flat parameter layout.

    `create` packs the parameters, in sorted-key order, into one float64
    buffer, `flat_params`, and rebinds each `params[key]` to a C-contiguous
    view of it; `velocity[key]` views `flat_velocity` the same way.
    `spans[key]` is the key's slice of both buffers, in that order.
    `decay_spans` are the slices of the parameters that receive the
    weight-decay term, `weight_keys`: the weight matrices and kernels,
    never biases or normalization affines.
    """

    momentum: float
    weight_decay: float
    spans: dict
    decay_spans: tuple
    flat_params: np.ndarray
    flat_velocity: np.ndarray
    views: dict                 # key -> the view `params[key]` is bound to
    velocity: dict

    @classmethod
    def create(cls, params: dict, momentum: float, weight_decay: float):
        spans, start = {}, 0
        for k in sorted(params):
            spans[k] = slice(start, start + np.size(params[k]))
            start = spans[k].stop
        flat_params = np.empty(start)
        for k, s in spans.items():
            flat_params[s] = np.ravel(params[k])
        flat_velocity = np.zeros(start)
        views = {k: flat_params[s].reshape(np.shape(params[k])) for k, s in spans.items()}
        params.update(views)
        return cls(
            momentum=momentum,
            weight_decay=weight_decay,
            spans=spans,
            decay_spans=tuple(spans[k] for k in weight_keys(params)),
            flat_params=flat_params,
            flat_velocity=flat_velocity,
            views=views,
            velocity={k: flat_velocity[s].reshape(views[k].shape)
                      for k, s in spans.items()},
        )

    def pack(self, grads: dict, params: dict, out: np.ndarray | None = None) -> np.ndarray:
        """A gradient dict, checked against `params`, as one flat vector in the
        layout: a new one, or the leading entries of `out`, which is returned."""
        if set(grads) != set(params):
            missing = set(params) ^ set(grads)
            raise ValueError(f"grads and params disagree on keys: {sorted(missing)}")
        flat = np.empty(self.flat_params.shape) if out is None else out
        for key, s in self.spans.items():
            g, w = grads[key], params[key]
            if g.shape != w.shape:
                raise ValueError(f"{key}: grad shape {g.shape} != param shape {w.shape}")
            flat[s] = np.ravel(g)
        return flat


def sgd_step(params: dict, grads, state: SGDState, lr: float) -> None:
    """One momentum-SGD update of the state's flat buffers, in place; returns None.

    g' = grad + wd * w on the decay spans, v <- m * v + g', w <- w - lr * v,
    elementwise over the whole layout. `grads` is either a dict keyed like
    `params` or one vector in the state's layout (the trainer passes the
    allreduced mean). `params` must still hold the views `state` bound it
    to; they and `state.velocity` see the step. Any non-finite result
    aborts with DivergenceError, naming the first affected key in sorted
    order, before anything is written.
    """
    if not np.isfinite(lr):
        raise DivergenceError(f"learning rate is non-finite: {lr}")
    if params.keys() != state.views.keys() or any(
            params[k] is not v for k, v in state.views.items()):
        raise ValueError("params are not the arrays this SGDState was created from")
    g = state.pack(grads, params) if isinstance(grads, dict) else grads
    if g.shape != state.flat_params.shape:
        raise ValueError(f"flat grad shape {g.shape} != layout shape {state.flat_params.shape}")
    w = state.flat_params
    if state.weight_decay and state.decay_spans:
        g = g.copy()
        for s in state.decay_spans:
            g[s] += state.weight_decay * w[s]
    v = state.momentum * state.flat_velocity + g
    w_new = w - lr * v
    if not (np.isfinite(v).all() and np.isfinite(w_new).all()):
        first = int(np.argmin(np.isfinite(v) & np.isfinite(w_new)))
        key = next(k for k, s in state.spans.items() if first < s.stop)
        raise DivergenceError(f"non-finite update for parameter {key!r}")
    state.flat_velocity[:] = v
    w[:] = w_new
