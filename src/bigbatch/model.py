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

Activations and gradients pass between layers as plain ndarrays, the BN
functions' arguments and results and the logits included; each layer
output is scanned for NaN/Inf under the layer's name, once, except a
ReLU's, which is finite wherever its input is. `Tensor` is the type of
the model input alone; `forward` rejects any other input. `forward` and
`backward` run a `RankPlan`, which `plan` builds once over a rank's
parameters, buffers and device handle. It holds the `params` dict, each
layer's parameter keys and each BN layer's `BNLayerState`, which keeps the
layer's step operands; a layer looks its arrays up in `params` when it
runs, so the dict stays their one holder. A BN layer's running statistics
are the `buffers` arrays themselves, which each training forward blends
in place; an eval forward reads them and keeps no caches.
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
    logits: np.ndarray
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
        if layer.kind in ("dense", "conv3x3"):
            shape = ((layer.out_features, ishape[0]) if layer.kind == "dense"
                     else (layer.out_channels, ishape[0], 3, 3))
            bound = np.sqrt(6.0 / np.prod(shape[1:]))  # fan-in
            params[f"{layer.name}.w"] = rng.uniform(-bound, bound, shape)
            params[f"{layer.name}.b"] = np.zeros(shape[0])
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
    tap_cp, tap_flat = tap.reshape(c, p), tap.reshape(-1)
    for i in range(3):
        for j in range(3):
            np.copyto(tap_cp, taps[:, i, j])
            if i != 1:
                tap[:, :, 0 if i == 0 else h - 1] = 0
            if j != 1:
                tap[:, :, :, 0 if j == 0 else w - 1] = 0
            dst[i * w + j:i * w + j + c * p] += tap_flat
    return np.ascontiguousarray(dst[w + 1:w + 1 + c * p].reshape(c, p).T)


class RankPlan:
    """One rank's model over one set of parameters and buffers, built once.

    Per layer it holds the spec, the input shape, the parameter keys and, for
    a BN layer, one validated `BNLayerState` over its running buffers, which a
    training forward blends in place. It holds no parameter array: each layer
    looks its arrays up in `params` when it runs. `handle` is the rank's
    device handle, over whose normalization sub-group cross BN layers reduce
    (with None they use device-local statistics); `one_pass_bn` selects the
    fused single-exchange statistics path for those layers.
    """

    def __init__(self, model: ModelSpec, params: dict, buffers: dict,
                 handle=None, one_pass_bn: bool = False):
        self.model, self.params, self.handle, self.one_pass_bn = model, params, handle, one_pass_bn
        self.layers = []  # (spec, input shape, parameter keys, BN state or None)
        for layer, (ishape, _) in zip(model.layers, model.shapes):
            name, state = layer.name, None
            suffixes = {"dense": ("w", "b"), "conv3x3": ("w", "b"),
                        "bn": ("gamma", "beta")}.get(layer.kind, ())
            keys = tuple(f"{name}.{suffix}" for suffix in suffixes)
            if layer.kind == "bn":
                state = BNLayerState(
                    running_mean=buffers[f"{name}.running_mean"],
                    running_var=buffers[f"{name}.running_var"],
                    eps=layer.eps, running_momentum=layer.running_momentum)
            self.layers.append((layer, ishape, keys, state))


plan = RankPlan  # model.plan(spec, params, buffers, handle=None, one_pass_bn=False)


def forward(plan: RankPlan, x: Tensor, labels: np.ndarray | None = None,
            mode: str = "train") -> ForwardResult:
    """Run the plan's model on a batch; with labels, also compute the task loss.

    `mode` selects BN behavior: "train" uses batch statistics and updates
    the running buffers in place, "eval" reads them and keeps no caches.
    """
    model, params, handle = plan.model, plan.params, plan.handle
    if mode not in ("train", "eval"):
        raise ModelError(f"mode must be 'train' or 'eval', got {mode!r}")
    if not isinstance(x, Tensor):
        raise ModelError(f"model input must be a Tensor, got {type(x).__name__}")
    if x.shape[1:] != model.in_shape:
        raise ModelError(f"input shape {x.shape[1:]} does not match model {model.in_shape}")
    caches = []
    keep = caches.append if mode == "train" else lambda entry: None
    n = x.shape[0]
    cur = x.array
    if len(model.in_shape) == 3:
        c, h, wd = model.in_shape
        cur = cur.transpose(0, 2, 3, 1).reshape(n * h * wd, c)  # scanned by the Tensor
    for layer, ishape, keys, state in plan.layers[:-1]:  # the loss head runs below
        k = layer.kind
        if k == "dense":
            keep(("dense", cur))
            cur = _check_finite(cur @ params[keys[0]].T + params[keys[1]], layer.name)
        elif k == "conv3x3":
            w = params[keys[0]]
            cols = _im2col(cur, n, ishape[1], ishape[2])
            keep(("conv3x3", cols))
            out = cols @ w.reshape(w.shape[0], -1).T  # the (Cout, C*9) kernel view
            blocks, (bias,) = channel_blocks(out, params[keys[1]])
            blocks += bias
            cur = _check_finite(blocks.reshape(out.shape), layer.name)
        elif k == "relu":
            mask = cur > 0
            keep(("relu", mask))
            cur = cur * mask  # finite, as the scanned input is
        elif k == "bn":  # cur is scanned already
            gamma, beta = params[keys[0]], params[keys[1]]
            if mode == "eval":
                cur, cache = bn_forward_local(cur, gamma, beta, state, mode="eval")
            elif layer.variant == "cross" and handle is not None:
                cur, cache = sync_bn_forward(handle, cur, gamma, beta, state,
                                             one_pass=plan.one_pass_bn)
            else:
                cur, cache = bn_forward_local(cur, gamma, beta, state, mode="train")
            keep(("bn", cache))
        elif k == "global_mean_pool":
            c, h, wd = ishape
            # numpy's pairwise sum depends on memory layout: each (n, c) mean
            # runs over H*W contiguous values, the order the outputs pin. The
            # sum and division are `mean`'s own two steps, without its wrapper.
            maps = np.ascontiguousarray(cur.reshape(n, h * wd, c).transpose(0, 2, 1))
            keep(("global_mean_pool",))
            cur = _check_finite(np.add.reduce(maps, axis=2) / (h * wd), layer.name)
    z = cur  # the logits, scanned as the last layer's output
    if labels is None:
        return ForwardResult(logits=z, loss=None, caches=caches)
    labels = np.asarray(labels)
    if labels.shape != (z.shape[0],):
        raise ModelError(f"labels shape {labels.shape} does not match batch {z.shape[0]}")
    if labels.min() < 0 or labels.max() >= z.shape[1]:
        raise ModelError("label values out of range for the class count")
    zs = z - z.max(axis=1, keepdims=True)
    ez = np.exp(zs)
    probs = ez / ez.sum(axis=1, keepdims=True)
    picked = probs[np.arange(z.shape[0]), labels]
    # picked can underflow to zero for a wildly confident wrong prediction;
    # the resulting inf is caught right below.
    with np.errstate(divide="ignore"):
        task = float(np.add.reduce(-np.log(picked)) / n)  # np.mean's two steps
    keep(("softmax_xent", probs, labels))
    if not np.isfinite(task):
        raise NonFiniteError("loss became non-finite")
    return ForwardResult(logits=z, loss=task, caches=caches)


def backward(plan: RankPlan, caches: list) -> dict:
    """Gradients of the task loss for every parameter.

    Must be called with the cache list of a train-mode forward on the same
    plan that reached the loss head. The weight-decay gradient is not here:
    `optim.sgd_step` adds it.

    Under data parallelism every entry follows one convention: averaging
    the returned dicts across all ranks yields the gradient of the global
    mean loss. Ordinary layers satisfy this with their per-rank partial
    sums; synchronized BN hands back gamma/beta gradients already reduced
    over its sub-group (every member holds the same total), so those are
    divided by the sub-group size here to keep the convention uniform.
    """
    params, handle = plan.params, plan.handle
    if not caches or caches[-1][0] != "softmax_xent":
        raise ModelError("backward needs caches from a forward pass that computed a loss")
    grads = {}
    _, probs, labels = caches[-1]
    n = probs.shape[0]
    d = probs.copy()
    d[np.arange(n), labels] -= 1.0
    d /= n
    cur = d
    first = plan.layers[0][0]
    for (layer, ishape, keys, state), cache in zip(reversed(plan.layers[:-1]),
                                                   reversed(caches[:-1])):
        k = layer.kind
        if k == "dense":
            grads[keys[0]] = cur.T @ cache[1]
            grads[keys[1]] = cur.sum(axis=0)
            cur = cur @ params[keys[0]]
        elif k == "conv3x3":
            cols, w = cache[1], params[keys[0]]
            grads[keys[0]] = (cur.T @ cols).reshape(w.shape)
            # einsum adds whole C-ordered rows in turn: bitwise `sum(axis=0)`
            # for two or more columns, and 4x faster at (4096, 6). One column
            # is a contiguous run, which `sum` folds pairwise and einsum not.
            grads[keys[1]] = (np.einsum("ij->j", cur) if cur.shape[1] > 1
                              else cur.sum(axis=0))
            if layer is not first:  # the input gradient is never used
                cur = _col2im((w.reshape(w.shape[0], -1).T @ cur.T).T, n, ishape[1], ishape[2])
        elif k == "relu":
            cur = cur * cache[1]
        elif k == "bn":
            bn_cache = cache[1]  # it holds the gamma the forward read
            dy = _check_finite(cur, f"{layer.name}.backward")
            if bn_cache.scope_key is not None:
                cur, dgamma, dbeta = sync_bn_backward(handle, dy, bn_cache, state)
                share = handle.group.bn_group_size
                dgamma = dgamma / share
                dbeta = dbeta / share
            else:
                cur, dgamma, dbeta = bn_backward_local(dy, bn_cache, state)
            grads[keys[0]] = dgamma
            grads[keys[1]] = dbeta
        elif k == "global_mean_pool":
            c, h, wd = ishape
            cur = (cur / (h * wd)).repeat(h * wd, axis=0)  # each image's row, H*W times
    return grads


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of rows whose arg-max class matches the label."""
    pred = np.argmax(logits, axis=1)
    return float(np.mean(pred == np.asarray(labels)))
