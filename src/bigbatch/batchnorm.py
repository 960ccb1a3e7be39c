"""Batch normalization, local and synchronized across a device group.

The cross-device variant aggregates statistics over a normalization
sub-group with two collective rounds: per-device sums are reduced to the
group mean, then per-device squared deviations are reduced to the group
variance, and each device normalizes its own shard. Its defining property
is concat-equivalence: the result equals local batch norm applied to the
rank-ordered concatenation of all shards.

A one-pass variant (single reduction of sums, squared sums, and counts) is
available behind a flag; it saves a collective round at the cost of the
classic cancellation hazard in ``E[x^2] - E[x]^2``.

The four public functions take and return ndarrays of layout (N, C) or
(N, C, H, W), float32 or float64, and convert once each way; what they
return is C-ordered. In between, all runs in the input's dtype on
C-ordered (M, C) rows, one per (n, y, x) position: folds on the rows,
per-channel arithmetic on their `channel_blocks`, one NaN/Inf scan per
output, which is where a non-finite input stops. The model's activations
are such rows already. Each call refills the small operand arrays its
state holds, so a caller that runs one layer step after step keeps the
same state and allocates them once per row count and dtype.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .collectives import SCOPE_BN_GROUP, DeviceHandle, allreduce_sum
from .schema import check, number
from .tensor import _check_finite, channel_blocks, repeats, sequential_sum_rows


class BatchNormError(ValueError):
    """Invalid state, layout, or cache for a batch-norm operation."""


EPS = number(gt=0)  # `LayerSpec` declares both rules for its fields
RUNNING_MOMENTUM = number(ge=0, le=1)


class BNOperands:
    """A BN layer's per-step operands, refilled in place while its input keeps
    one row count and dtype, reallocated when either changes: the packed
    statistics vectors, whose count slot is filled at allocation, and the
    `channel_blocks` repeats of the step's per-channel vectors."""

    key = None

    def fit(self, rows: np.ndarray) -> None:
        m, c = rows.shape
        if self.key != (m, rows.dtype):
            self.key = (m, rows.dtype)
            self.two_pass = np.empty(c + 1)         # sums, count
            self.one_pass = np.empty(2 * c + 1)     # sums, squared sums, count
            self.two_pass[c] = self.one_pass[2 * c] = m
            self.grad_sums = np.empty(2 * c, rows.dtype)  # dy, dy * x_hat
            self.mu = repeats(rows, 1, np.float64)  # the packed sums are float64
            self.normalize = repeats(rows, 4)
            self.grad = repeats(rows, 3)


@dataclass
class BNLayerState:
    """A BN layer's running statistics, what it carries from step to step.

    `running_momentum` is the fraction of the batch statistic blended into
    the running estimate each training step (0 freezes the statistics, 1
    replaces them outright). A state serves one rank: each training
    forward blends into its running statistics in place, and every call
    refills its `operands`. The affine gamma and beta are the caller's,
    passed to each forward.
    """

    running_mean: np.ndarray
    running_var: np.ndarray
    eps: float = 1e-5
    running_momentum: float = 0.1
    operands: BNOperands = field(default_factory=BNOperands, init=False, repr=False, compare=False)

    @classmethod
    def create(cls, channels: int, eps: float = 1e-5, running_momentum: float = 0.1):
        return cls(running_mean=np.zeros(channels), running_var=np.ones(channels),
                   eps=eps, running_momentum=running_momentum)

    def __post_init__(self):
        c = self.channels
        for name in ("running_mean", "running_var"):
            if getattr(self, name).shape != (c,):
                raise BatchNormError(f"{name} must have length {c}")
        check(BatchNormError, (EPS, self.eps, "eps"),
              (RUNNING_MOMENTUM, self.running_momentum, "running_momentum"))
        if np.any(self.running_var < 0):
            raise BatchNormError("running_var must be elementwise nonnegative")

    @property
    def channels(self) -> int:
        return self.running_mean.shape[0]


@dataclass
class BNForwardCache:
    """Values saved by a training-mode forward pass for the backward pass.

    `x_hat` is kept as (M, C) rows; `shape` is the caller's layout, which
    the cotangent must match; `gamma` is the scale the forward read, which
    the backward differentiates. `total_count` is the number of scalar
    elements per channel that the statistics were reduced over, across the
    whole normalization group.
    """

    x_hat: np.ndarray
    shape: tuple[int, ...]
    gamma: np.ndarray
    mu: np.ndarray
    var: np.ndarray
    total_count: int
    scope_key: str | None = None  # None for a purely local forward


def _rows(x: np.ndarray, state: BNLayerState, gamma=None, beta=None) -> np.ndarray:
    """`x` as C-ordered (M, C) rows, once its layout, dtype and extents fit
    `state`, and a forward's `gamma` and `beta` have one entry per channel;
    the state's operands are then fitted to the rows."""
    if x.ndim not in (2, 4):
        raise BatchNormError(f"expected layout (N,C) or (N,C,H,W), got shape {x.shape}")
    if x.dtype not in (np.float64, np.float32) or 0 in x.shape:
        raise BatchNormError(f"expected float32 or float64 values and positive extents, "
                             f"got {x.dtype} of shape {x.shape}")
    if x.shape[1] != state.channels:
        raise BatchNormError(
            f"input has {x.shape[1]} channels but state has {state.channels}"
        )
    affine_shape = (state.channels,)
    if gamma is not None and (gamma.shape != affine_shape or beta.shape != affine_shape):
        raise BatchNormError(f"gamma and beta must have length {state.channels}")
    rows = (np.ascontiguousarray(x) if x.ndim == 2 else
            np.ascontiguousarray(x.transpose(0, 2, 3, 1)).reshape(-1, state.channels))
    state.operands.fit(rows)
    return rows


def _unrows(rows: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The inverse of `_rows` for an input of `shape`, C-ordered."""
    if len(shape) == 2:
        return rows
    n, c, h, w = shape
    return np.ascontiguousarray(rows.reshape(n, h, w, c).transpose(0, 3, 1, 2))


def _normalize(rows: np.ndarray, state: BNLayerState, gamma, beta,
               mu, var) -> tuple[np.ndarray, np.ndarray]:
    """(y, x_hat) as (M, C) rows in the dtype of `rows`: y = gamma * x_hat + beta,
    x_hat = inv_std * rows + (-mu * inv_std). Only y is scanned: it is
    non-finite wherever x_hat is."""
    inv_std = 1.0 / np.sqrt(var + state.eps)
    blocks, (inv, shift, gamma_k, beta_k) = channel_blocks(
        rows, inv_std, -mu * inv_std, gamma, beta, out=state.operands.normalize)
    x_hat = blocks * inv
    x_hat += shift
    y = x_hat * gamma_k
    y += beta_k
    return _check_finite(y.reshape(rows.shape), "bn_forward"), x_hat.reshape(rows.shape)


def _train_forward(rows: np.ndarray, shape, gamma, beta, state: BNLayerState, reduce_vec,
                   scope_key, one_pass: bool) -> tuple[np.ndarray, BNForwardCache]:
    c, ops = state.channels, state.operands
    if one_pass:
        packed = ops.one_pass
        packed[:c] = sequential_sum_rows(rows)
        packed[c:2 * c] = sequential_sum_rows(rows * rows)
        total = reduce_vec(packed)
        s, ssq, m = total[:c], total[c:2 * c], total[2 * c]
        mu = s / m
        var = np.maximum(ssq / m - mu * mu, 0.0)
    else:
        packed = ops.two_pass
        packed[:c] = sequential_sum_rows(rows)
        total = reduce_vec(packed)
        s, m = total[:c], total[c]
        mu = s / m
        blocks, (mu_k,) = channel_blocks(rows, mu, out=ops.mu)  # promoted as rows - mu
        diff = blocks - mu_k
        diff *= diff
        var = reduce_vec(sequential_sum_rows(diff.reshape(rows.shape))) / m
    m_int = int(round(m))
    if m_int < 2:
        raise BatchNormError(
            f"training-mode statistics need at least 2 elements per channel, got {m_int}"
        )
    y, x_hat = _normalize(rows, state, gamma, beta, mu, var)
    bn_update_running(state, mu, var, m_int)
    return y, BNForwardCache(x_hat, shape, gamma, mu, var, m_int, scope_key)


def bn_forward_local(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, state: BNLayerState,
                     mode: str = "train") -> tuple[np.ndarray, BNForwardCache | None]:
    """Batch normalization over a single device's batch.

    Training mode computes biased per-channel statistics from `x`, updates
    the running estimates and returns the backward cache; eval mode
    normalizes with the running statistics, leaves the state untouched and
    returns None for the cache.
    """
    rows = _rows(x, state, gamma, beta)
    if mode == "train":
        y, cache = _train_forward(rows, x.shape, gamma, beta, state, lambda v: v, None, False)
    elif mode == "eval":
        y, _ = _normalize(rows, state, gamma, beta, state.running_mean, state.running_var)
        cache = None
    else:
        raise BatchNormError(f"mode must be 'train' or 'eval', got {mode!r}")
    return _unrows(y, x.shape), cache


def sync_bn_forward(handle: DeviceHandle, x_local: np.ndarray, gamma: np.ndarray,
                    beta: np.ndarray, state: BNLayerState,
                    one_pass: bool = False) -> tuple[np.ndarray, BNForwardCache]:
    """Training-mode batch normalization synchronized across a BN sub-group.

    Every rank of the sub-group must call this with arrays of identical
    channel/spatial extents (per-device batch sizes may differ; counts are
    reduced along with the sums so the mean stays exact). All ranks end up
    with bitwise-identical statistics, and the output matches
    `bn_forward_local` on the concatenation of all shards.
    """
    rows = _rows(x_local, state, gamma, beta)
    y, cache = _train_forward(
        rows, x_local.shape, gamma, beta, state,
        lambda v: allreduce_sum(handle, SCOPE_BN_GROUP, v), handle.bn_scope_key, one_pass)
    return _unrows(y, x_local.shape), cache


def _backward_core(dy: np.ndarray, cache: BNForwardCache, state: BNLayerState, reduce_vec):
    if cache is None:  # what an eval forward returns
        raise BatchNormError("backward requires a training-mode forward cache")
    if dy.shape != cache.shape:
        raise BatchNormError(
            f"cotangent shape {dy.shape} does not match cached shape {cache.shape}"
        )
    c = state.channels
    if cache.mu.shape != (c,):
        raise BatchNormError("cache does not match this layer state")
    rows, x_hat, ops = _rows(dy, state), cache.x_hat, state.operands
    ops.grad_sums[:c] = sequential_sum_rows(rows)
    ops.grad_sums[c:] = sequential_sum_rows(rows * x_hat)
    total = reduce_vec(ops.grad_sums)
    dbeta, dgamma = total[:c], total[c:]
    m = float(cache.total_count)
    # dx = inv_std * (rows - dbeta / m - x_hat * dgamma / m), in the rows' dtype
    blocks, (dbeta_m, dgamma_k, inv_std) = channel_blocks(
        rows, dbeta / m, dgamma, cache.gamma / np.sqrt(cache.var + state.eps), out=ops.grad)
    dx = blocks - dbeta_m
    scaled = x_hat.reshape(blocks.shape) * dgamma_k
    scaled /= m
    dx -= scaled
    dx *= inv_std
    return _check_finite(dx.reshape(rows.shape), "bn_backward"), dgamma, dbeta


def bn_backward_local(dy: np.ndarray, cache: BNForwardCache,
                      state: BNLayerState) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backward pass matching a local training-mode forward."""
    if cache is not None and cache.scope_key is not None:
        raise BatchNormError("cache came from a synchronized forward; use sync_bn_backward")
    # the local sums are the totals, copied out of the operand the next step refills
    dx, dgamma, dbeta = _backward_core(dy, cache, state, np.copy)
    return _unrows(dx, dy.shape), dgamma, dbeta


def sync_bn_backward(handle: DeviceHandle, dy_local: np.ndarray, cache: BNForwardCache,
                     state: BNLayerState) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backward pass matching `sync_bn_forward` on the same sub-group.

    The two per-channel reductions (sum of dy and sum of dy * x_hat) are
    aggregated over the sub-group, so dgamma/dbeta are identical on every
    rank and the whole pass is the exact adjoint of the forward.
    """
    scope_key = handle.bn_scope_key
    if cache is not None and cache.scope_key != scope_key:
        raise BatchNormError(
            f"cache was produced under scope {cache.scope_key!r} but this device "
            f"belongs to {scope_key!r}"
        )
    dx, dgamma, dbeta = _backward_core(dy_local, cache, state,
                                       lambda v: allreduce_sum(handle, SCOPE_BN_GROUP, v))
    return _unrows(dx, dy_local.shape), dgamma, dbeta


def bn_update_running(state: BNLayerState, mu: np.ndarray, var: np.ndarray,
                      count: int) -> None:
    """Blend batch statistics into the running estimates, in place; returns None.

    The state's arrays are written, not rebound: a model's `buffers` see the
    new values. The running variance uses the unbiased correction
    count/(count-1); the batch variance itself stays biased for normalization.
    """
    if count <= 1:
        raise BatchNormError(f"running-variance update needs count > 1, got {count}")
    rho = state.running_momentum
    unbiased = var * (count / (count - 1.0))
    state.running_mean[...] = (1.0 - rho) * state.running_mean + rho * mu
    state.running_var[...] = (1.0 - rho) * state.running_var + rho * unbiased
