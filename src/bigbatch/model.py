"""Small feed-forward models with hand-written forward and backward passes.

A model is a flat list of layer specs. Parameters and gradients live in
plain dicts keyed by layer name so the optimizer and the finite-difference
checker can treat them uniformly. The loss is the task loss alone; the L2
penalty, value and gradient, belongs to `optim`. Batch-norm layers come in
a local and a cross-device variant; the cross variant synchronizes
statistics over the device handle's normalization sub-group and degrades
to the local one when no handle is given.

Inputs arrive as (N, C, H, W) and are converted once, at the model entry.
From there every spatial activation is carried as a (N*H*W, C) rows
matrix, rows ordered (n, y, x): a conv output `cols @ W.T` is already in
that layout (its bias, like BN's per-channel arithmetic, is added on
`channel_blocks`), BN treats it as an (N, C) batch with the same
per-channel accumulation order, and global mean pooling folds it back.
The patch matrix `cols` is Fortran-ordered (see `_im2col`); for two or
more output channels the unit suite pins that BLAS forms both conv
products from it bitwise equal to a C-ordered copy (with one, OpenBLAS
takes a matrix-vector path whose bits differ). The conv input gradient
goes the other way: the patch gradient is formed channel-major,
`W.T @ dout.T`, and `_col2im` scatters it with nine long shifted adds.
Flat activations after pooling are plain (N, F).

Activations and gradients pass between layers as plain ndarrays; each
layer output is scanned for NaN/Inf under the layer's name, once, except
a ReLU's, which is finite wherever its input is. `Tensor` appears only at
the boundaries: the model input, `ForwardResult.logits`, and the BN
functions, which take and return the rows wrapped without a copy or a
second scan. Each BN layer builds its `BNLayerState` once per forward and
hands it to `backward` through the cache; an eval forward keeps no caches.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .batchnorm import (
    EPS,
    RUNNING_MOMENTUM,
    BNLayerState,
    bn_backward_local,
    bn_forward_local,
    sync_bn_backward,
    sync_bn_forward,
)
from .schema import check_fields, integer, one_of, ruled, string
from .tensor import NonFiniteError, Tensor, _check_finite, channel_blocks

KINDS = ("dense", "conv3x3", "relu", "bn", "global_mean_pool", "softmax_xent")
# The widest layer, 32 times the widest any shipped config uses. A conv3x3
# between two layers at the cap holds 256 * 256 * 9 float64 weights (4.5 MiB),
# which a rank keeps about four times (weights, gradient, velocity, allreduce
# payload); its patch matrix takes 9 * 256 float64 (18 KiB) per pixel of the
# rank's batch, 72 MiB for 64 8x8 images.
MAX_LAYER_WIDTH = 2**8
WIDTH = integer(gt=0, le=MAX_LAYER_WIDTH, null=True)  # out_features, out_channels


class ModelError(ValueError):
    """Malformed model spec or incompatible inputs."""


@dataclass
class LayerSpec:
    kind: str = ruled(one_of(*KINDS))
    out_features: int | None = ruled(WIDTH, None)                     # dense
    out_channels: int | None = ruled(WIDTH, None)                     # conv3x3
    variant: str = ruled(one_of("local", "cross"), "local")           # bn
    eps: float = ruled(EPS, 1e-5)                         # bn
    running_momentum: float = ruled(RUNNING_MOMENTUM, 0.1)  # bn
    name: str = ruled(string(), "")                       # filled in by ModelSpec

    def __post_init__(self):
        check_fields(self, ModelError, f"{self.kind} " if self.kind in KINDS else "unknown layer ")
        width = {"dense": "out_features", "conv3x3": "out_channels"}.get(self.kind)
        if width and getattr(self, width) is None:
            raise ModelError(f"{self.kind} layer needs {width}")


@dataclass
class ModelSpec:
    """Layer list plus the per-example input shape, e.g. (1, 8, 8).

    The last layer must be the single softmax_xent loss head; shapes are
    walked once at construction so mismatches fail early rather than deep
    inside a training loop.
    """

    layers: list[LayerSpec]
    in_shape: tuple
    shapes: list = field(init=False, repr=False)

    def __post_init__(self):
        self.in_shape = tuple(int(e) for e in self.in_shape)
        if not self.layers:
            raise ModelError("model needs at least one layer")
        losses = [i for i, l in enumerate(self.layers) if l.kind == "softmax_xent"]
        if losses != [len(self.layers) - 1]:
            raise ModelError("model must end with exactly one softmax_xent layer")
        for i, layer in enumerate(self.layers):
            layer.name = f"{i:02d}_{layer.kind}"
        self.shapes = self._walk_shapes()

    def _walk_shapes(self):
        """Per-layer (in_shape, out_shape) pairs, excluding the batch axis."""
        shapes = []
        cur = self.in_shape
        for layer in self.layers:
            k = layer.kind
            if k == "conv3x3":
                if len(cur) != 3:
                    raise ModelError(f"{layer.name}: conv3x3 needs (C,H,W) input, got {cur}")
                out = (layer.out_channels, cur[1], cur[2])
            elif k == "dense":
                if len(cur) != 1:
                    raise ModelError(f"{layer.name}: dense needs flat (F,) input, got {cur}")
                out = (layer.out_features,)
            elif k == "global_mean_pool":
                if len(cur) != 3:
                    raise ModelError(f"{layer.name}: pool needs (C,H,W) input, got {cur}")
                out = (cur[0],)
            elif k in ("relu", "bn", "softmax_xent"):
                if k == "bn" and len(cur) not in (1, 3):
                    raise ModelError(f"{layer.name}: bn needs (F,) or (C,H,W) input, got {cur}")
                if k == "softmax_xent" and (len(cur) != 1 or cur[0] < 2):
                    raise ModelError(
                        f"{layer.name}: loss head needs flat logits over >= 2 classes, got {cur}")
                out = cur
            shapes.append((cur, out))
            cur = out
        return shapes

    @property
    def classes(self) -> int:
        return self.shapes[-1][0][0]


@dataclass
class ForwardResult:
    logits: Tensor
    loss: float | None  # the task loss; the L2 penalty is `optim.l2_penalty`
    caches: list


def init_params(model: ModelSpec, seed: int) -> dict:
    """Fan-in-scaled uniform init, independently seeded per layer.

    Weight tensors use bound sqrt(6 / fan_in); biases, BN shifts start at
    zero and BN scales at one.
    """
    params = {}
    for i, layer in enumerate(model.layers):
        rng = np.random.default_rng((seed, i))
        ishape, _ = model.shapes[i]
        if layer.kind == "dense":
            fan_in = ishape[0]
            bound = np.sqrt(6.0 / fan_in)
            params[f"{layer.name}.w"] = rng.uniform(-bound, bound, (layer.out_features, fan_in))
            params[f"{layer.name}.b"] = np.zeros(layer.out_features)
        elif layer.kind == "conv3x3":
            fan_in = ishape[0] * 9
            bound = np.sqrt(6.0 / fan_in)
            params[f"{layer.name}.w"] = rng.uniform(
                -bound, bound, (layer.out_channels, ishape[0], 3, 3))
            params[f"{layer.name}.b"] = np.zeros(layer.out_channels)
        elif layer.kind == "bn":
            c = ishape[0]
            params[f"{layer.name}.gamma"] = np.ones(c)
            params[f"{layer.name}.beta"] = np.zeros(c)
    return params


def init_buffers(model: ModelSpec) -> dict:
    buffers = {}
    for i, layer in enumerate(model.layers):
        if layer.kind == "bn":
            c = model.shapes[i][0][0]
            buffers[f"{layer.name}.running_mean"] = np.zeros(c)
            buffers[f"{layer.name}.running_var"] = np.ones(c)
    return buffers


def _im2col(rows: np.ndarray, n: int, h: int, w: int) -> np.ndarray:
    """(N*H*W, C) rows -> (N*H*W, C*9) patch matrix for a 3x3, pad-1 convolution.

    Columns are ordered (c, i, j), matching the (Cout, C, 3, 3) kernel
    flattened row-major. It is the transpose of a C-ordered (C*9, N*H*W)
    array whose row (c, i, j) is channel c shifted by (i-1, j-1): one long
    copy out of a zero-margined channel-major buffer, after which the
    positions whose shift crosses an image edge are zeroed.
    """
    c, p = rows.shape[1], n * h * w
    src = np.zeros((c, p + 2 * (w + 1)), dtype=rows.dtype)
    src[:, w + 1:w + 1 + p] = rows.T
    # shifted[c, i, j, q] = src[c, q + i*w + j] = rows[q + (i-1)*w + (j-1), c]
    s0, s1 = src.strides
    out = np.ndarray((c, 3, 3, p), src.dtype, src, 0, (s0, w * s1, s1, s1)).copy()
    img = out.reshape(c, 3, 3, n, h, w)
    img[:, 0, :, :, 0] = 0
    img[:, 2, :, :, h - 1] = 0
    img[:, :, 0, :, :, 0] = 0
    img[:, :, 2, :, :, w - 1] = 0
    return out.reshape(c * 9, p).T


def _col2im(dcols: np.ndarray, n: int, h: int, w: int) -> np.ndarray:
    """Adjoint of _im2col: (N*H*W, C*9) patch gradient -> (N*H*W, C) rows.

    It mirrors `_im2col`, and is fastest when `dcols.T` is C-ordered, as
    `(W.T @ dout.T).T` is. Each tap (i, j) of every channel is copied to a
    private scratch, so `dcols` is not written; the positions whose shift
    crosses an image edge are zeroed; and the tap is added in one run at
    offset i*W + j of a zero-margined channel-major buffer. Each pixel so
    gets its taps in (i, j) order from +0.0, as a padded scatter adds them,
    and the zeros that land on a neighbouring row, image or channel change
    nothing: a sum that starts at +0.0 is never -0.0.
    """
    c, p = dcols.shape[1] // 9, n * h * w
    taps = dcols.T.reshape(c, 3, 3, p)
    dst = np.zeros(c * p + 2 * (w + 1), dtype=dcols.dtype)
    tap = np.empty((c, n, h, w), dtype=dcols.dtype)
    for i in range(3):
        for j in range(3):
            np.copyto(tap.reshape(c, p), taps[:, i, j])
            if i != 1:
                tap[:, :, 0 if i == 0 else h - 1] = 0
            if j != 1:
                tap[:, :, :, 0 if j == 0 else w - 1] = 0
            dst[i * w + j:i * w + j + c * p] += tap.reshape(-1)
    return np.ascontiguousarray(dst[w + 1:w + 1 + c * p].reshape(c, p).T)


def _bn_state(layer: LayerSpec, params: dict, buffers: dict) -> BNLayerState:
    return BNLayerState(
        gamma=params[f"{layer.name}.gamma"],
        beta=params[f"{layer.name}.beta"],
        eps=layer.eps,
        running_mean=buffers[f"{layer.name}.running_mean"],
        running_var=buffers[f"{layer.name}.running_var"],
        running_momentum=layer.running_momentum,
    )


def forward(model: ModelSpec, params: dict, buffers: dict, x: Tensor,
            labels: np.ndarray | None = None, mode: str = "train",
            handle=None, one_pass_bn: bool = False) -> ForwardResult:
    """Run the model on a batch; with labels, also compute the task loss.

    `mode` selects BN behavior ("train" uses batch statistics and updates
    the running buffers in place, "eval" reads them and keeps no caches).
    Cross BN layers reduce over `handle`'s normalization sub-group; with
    handle=None they use device-local statistics. `one_pass_bn` selects
    the fused single-exchange statistics path for those layers.
    """
    if mode not in ("train", "eval"):
        raise ModelError(f"mode must be 'train' or 'eval', got {mode!r}")
    if x.shape[1:] != model.in_shape:
        raise ModelError(f"input shape {x.shape[1:]} does not match model {model.in_shape}")
    caches = []
    keep = caches.append if mode == "train" else lambda entry: None
    n = x.shape[0]
    cur = x.array
    if len(model.in_shape) == 3:
        c, h, wd = model.in_shape
        cur = cur.transpose(0, 2, 3, 1).reshape(n * h * wd, c)  # scanned by the Tensor
    for layer, (ishape, _) in zip(model.layers, model.shapes):
        k = layer.kind
        if k == "dense":
            w, b = params[f"{layer.name}.w"], params[f"{layer.name}.b"]
            keep(("dense", cur))
            cur = _check_finite(cur @ w.T + b, layer.name)
        elif k == "conv3x3":
            w, b = params[f"{layer.name}.w"], params[f"{layer.name}.b"]
            cols = _im2col(cur, n, ishape[1], ishape[2])
            keep(("conv3x3", cols))
            out = cols @ w.reshape(w.shape[0], -1).T
            blocks, (bias,) = channel_blocks(out, b)
            blocks += bias
            cur = _check_finite(blocks.reshape(out.shape), layer.name)
        elif k == "relu":
            mask = cur > 0
            keep(("relu", mask))
            cur = cur * mask  # finite, as the scanned input is
        elif k == "bn":
            state = _bn_state(layer, params, buffers)
            x_bn = Tensor._wrap(cur)  # scanned as the previous layer's output
            if mode == "eval":
                y, cache = bn_forward_local(x_bn, state, mode="eval")
            elif layer.variant == "cross" and handle is not None:
                y, cache = sync_bn_forward(handle, x_bn, state, one_pass=one_pass_bn)
            else:
                y, cache = bn_forward_local(x_bn, state, mode="train")
            if mode == "train":
                buffers[f"{layer.name}.running_mean"] = state.running_mean
                buffers[f"{layer.name}.running_var"] = state.running_var
            keep(("bn", cache, state))
            cur = y.array
        elif k == "global_mean_pool":
            c, h, wd = ishape
            # numpy's pairwise sum depends on memory layout: each (n, c) mean
            # runs over H*W contiguous values, the order the outputs pin.
            maps = np.ascontiguousarray(cur.reshape(n, h * wd, c).transpose(0, 2, 1))
            keep(("global_mean_pool",))
            cur = _check_finite(maps.mean(axis=2), layer.name)
        elif k == "softmax_xent":
            logits = Tensor._wrap(cur)  # scanned as the previous layer's output
            if labels is None:
                return ForwardResult(logits=logits, loss=None, caches=caches)
            z = cur
            labels = np.asarray(labels)
            if labels.shape != (z.shape[0],):
                raise ModelError(f"labels shape {labels.shape} does not match batch {z.shape[0]}")
            if labels.min() < 0 or labels.max() >= z.shape[1]:
                raise ModelError("label values out of range for the class count")
            zs = z - z.max(axis=1, keepdims=True)
            ez = np.exp(zs)
            probs = ez / ez.sum(axis=1, keepdims=True)
            picked = probs[np.arange(z.shape[0]), labels]
            # picked can underflow to zero for a wildly confident wrong
            # prediction; the resulting inf is caught right below.
            with np.errstate(divide="ignore"):
                task = float(np.mean(-np.log(picked)))
            keep(("softmax_xent", probs, labels))
            if not np.isfinite(task):
                raise NonFiniteError("loss became non-finite")
            return ForwardResult(logits=logits, loss=task, caches=caches)
    raise ModelError("model has no loss head")  # unreachable after validation


def backward(model: ModelSpec, params: dict, caches: list, handle=None) -> dict:
    """Gradients of the task loss for every parameter.

    Must be called with the cache list of a train-mode forward that reached
    the loss head. The weight-decay gradient is not here: `optim.sgd_step`
    adds it.

    Under data parallelism every entry follows one convention: averaging
    the returned dicts across all ranks yields the gradient of the global
    mean loss. Ordinary layers satisfy this with their per-rank partial
    sums; synchronized BN hands back gamma/beta gradients already reduced
    over its sub-group (every member holds the same total), so those are
    divided by the sub-group size here to keep the convention uniform.
    """
    if not caches or caches[-1][0] != "softmax_xent":
        raise ModelError("backward needs caches from a forward pass that computed a loss")
    grads = {}
    _, probs, labels = caches[-1]
    n = probs.shape[0]
    d = probs.copy()
    d[np.arange(n), labels] -= 1.0
    d /= n
    cur = d
    for layer, (ishape, _), cache in zip(reversed(model.layers[:-1]),
                                         reversed(model.shapes[:-1]),
                                         reversed(caches[:-1])):
        k = layer.kind
        if k == "dense":
            x_in = cache[1]
            w = params[f"{layer.name}.w"]
            grads[f"{layer.name}.w"] = cur.T @ x_in
            grads[f"{layer.name}.b"] = cur.sum(axis=0)
            cur = cur @ w
        elif k == "conv3x3":
            cols = cache[1]
            w = params[f"{layer.name}.w"]
            grads[f"{layer.name}.w"] = (cur.T @ cols).reshape(w.shape)
            # einsum adds whole C-ordered rows in turn: bitwise `sum(axis=0)`
            # for two or more columns, and 4x faster at (4096, 6). One column
            # is a contiguous run, which `sum` folds pairwise and einsum not.
            grads[f"{layer.name}.b"] = (np.einsum("ij->j", cur) if cur.shape[1] > 1
                                        else cur.sum(axis=0))
            if layer is not model.layers[0]:  # the input gradient is never used
                cur = _col2im((w.reshape(w.shape[0], -1).T @ cur.T).T, n, ishape[1], ishape[2])
        elif k == "relu":
            cur = cur * cache[1]
        elif k == "bn":
            _, bn_cache, state = cache  # the forward's state: same gamma and eps
            dy = Tensor._wrap(_check_finite(cur, f"{layer.name}.backward"))
            if bn_cache.scope_key is not None:
                if handle is None:
                    raise ModelError(f"{layer.name}: synchronized cache needs a device handle")
                dx, dgamma, dbeta = sync_bn_backward(handle, dy, bn_cache, state)
                share = handle.group.bn_group_size
                dgamma = dgamma / share
                dbeta = dbeta / share
            else:
                dx, dgamma, dbeta = bn_backward_local(dy, bn_cache, state)
            grads[f"{layer.name}.gamma"] = dgamma
            grads[f"{layer.name}.beta"] = dbeta
            cur = dx.array
        elif k == "global_mean_pool":
            c, h, wd = ishape
            cur = np.broadcast_to(
                (cur / (h * wd))[:, None, :], (n, h * wd, c)).reshape(n * h * wd, c)
    return grads


def accuracy(logits: Tensor, labels: np.ndarray) -> float:
    """Fraction of rows whose arg-max class matches the label."""
    pred = np.argmax(logits.array, axis=1)
    return float(np.mean(pred == np.asarray(labels)))
