"""Hand-rolled reference computations for the test suite.

Everything here is written with plain Python loops (or the most naive
numpy expression possible) and deliberately shares no code with the
package. When a test compares a library result against one of these, a
bug would have to appear in two independent implementations to slip
through.

`rank_outcomes` is the one helper that is not an oracle: it records what
each simulated device's worker did, for the tests of failing ranks.
"""

import math

import numpy as np


def channel_rows(x):
    """Per-location channel vectors of a (N,C) or (N,C,H,W) array.

    Ordered the way the library promises to accumulate: sample-major,
    then row, then column.
    """
    x = np.asarray(x)
    if x.ndim == 2:
        return [x[n] for n in range(x.shape[0])]
    if x.ndim == 4:
        return [
            x[n, :, i, j]
            for n in range(x.shape[0])
            for i in range(x.shape[2])
            for j in range(x.shape[3])
        ]
    raise ValueError(f"rank must be 2 or 4, got {x.ndim}")


def loop_sequential_sum(rows):
    """Strict left-to-right fold, one row at a time, in the rows' dtype."""
    rows = [np.asarray(r) for r in rows]
    total = rows[0].copy()
    for r in rows[1:]:
        total = total + r
    return total


def loop_channel_sum(x):
    return loop_sequential_sum(channel_rows(x))


def loop_bn_forward(x, gamma, beta, eps):
    """Two-pass batch norm over the full batch, element by element.

    Returns (y, mu, var) in float64. Statistics use the biased variance,
    matching training-mode normalization.
    """
    x = np.asarray(x, dtype=np.float64)
    c = x.shape[1]
    rows = [np.asarray(r, dtype=np.float64) for r in channel_rows(x)]
    m = len(rows)
    mu = np.zeros(c)
    for ch in range(c):
        acc = 0.0
        for r in rows:
            acc += float(r[ch])
        mu[ch] = acc / m
    var = np.zeros(c)
    for ch in range(c):
        acc = 0.0
        for r in rows:
            d = float(r[ch]) - mu[ch]
            acc += d * d
        var[ch] = acc / m
    y = np.zeros_like(x)
    it = np.ndindex(x.shape)
    for idx in it:
        ch = idx[1]
        xhat = (x[idx] - mu[ch]) / math.sqrt(var[ch] + eps)
        y[idx] = gamma[ch] * xhat + beta[ch]
    return y, mu, var


def loop_conv3x3(x, w, b):
    """Direct 3x3 convolution with zero padding, stride 1.

    Layouts: x (N, Cin, H, W), w (Cout, Cin, 3, 3), b (Cout,).
    """
    x = np.asarray(x, dtype=np.float64)
    n_, cin, h, wd = x.shape
    cout = w.shape[0]
    y = np.zeros((n_, cout, h, wd))
    for n in range(n_):
        for co in range(cout):
            for i in range(h):
                for j in range(wd):
                    acc = float(b[co])
                    for ci in range(cin):
                        for di in range(3):
                            for dj in range(3):
                                ii, jj = i + di - 1, j + dj - 1
                                if 0 <= ii < h and 0 <= jj < wd:
                                    acc += float(w[co, ci, di, dj]) * float(x[n, ci, ii, jj])
                    y[n, co, i, j] = acc
    return y


def nchw_im2col(a):
    """(N,C,H,W) -> (N*H*W, C*9) patch matrix for a 3x3, pad-1 convolution.

    Rows are ordered (n, y, x) and columns (c, i, j). This is the layout
    the model used when it carried activations as (N,C,H,W); the tests
    keep it as the bitwise reference for the channels-last path.
    """
    n, c, h, w = a.shape
    ap = np.pad(a, ((0, 0), (0, 0), (1, 1), (1, 1)))
    win = np.lib.stride_tricks.sliding_window_view(ap, (3, 3), axis=(2, 3))
    return win.transpose(0, 2, 3, 1, 4, 5).reshape(n * h * w, c * 9)


def nchw_col2im(dcols, shape):
    """Adjoint of nchw_im2col: scatter-add patch gradients onto (N,C,H,W).

    Accumulates in the dtype of `dcols`, from +0.0.
    """
    n, c, h, w = shape
    dpad = np.zeros((n, c, h + 2, w + 2), dtype=dcols.dtype)
    d6 = dcols.reshape(n, h, w, c, 3, 3).transpose(0, 3, 1, 2, 4, 5)
    for i in range(3):
        for j in range(3):
            dpad[:, :, i:i + h, j:j + w] += d6[:, :, :, :, i, j]
    return dpad[:, :, 1:1 + h, 1:1 + w]


def loop_dense(x, w, b):
    """y[n, o] = sum_i x[n, i] * w[o, i] + b[o]."""
    x = np.asarray(x, dtype=np.float64)
    n_, fin = x.shape
    out = w.shape[0]
    y = np.zeros((n_, out))
    for n in range(n_):
        for o in range(out):
            acc = float(b[o])
            for i in range(fin):
                acc += float(x[n, i]) * float(w[o, i])
            y[n, o] = acc
    return y


def loop_global_mean_pool(x):
    x = np.asarray(x, dtype=np.float64)
    n_, c, h, w = x.shape
    y = np.zeros((n_, c))
    for n in range(n_):
        for ch in range(c):
            acc = 0.0
            for i in range(h):
                for j in range(w):
                    acc += float(x[n, ch, i, j])
            y[n, ch] = acc / (h * w)
    return y


def loop_softmax_xent(z, labels):
    """Mean cross-entropy of softmax(z) against integer labels."""
    z = np.asarray(z, dtype=np.float64)
    total = 0.0
    for n in range(z.shape[0]):
        mx = max(float(v) for v in z[n])
        lse = mx + math.log(sum(math.exp(float(v) - mx) for v in z[n]))
        total += lse - float(z[n, labels[n]])
    return total / z.shape[0]


def fd_entry(fn, arr, idx, h=1e-5):
    """Central difference of scalar-valued fn() in one array coordinate.

    `arr` must be a writable array that fn reads; it is restored before
    returning.
    """
    old = arr[idx]
    arr[idx] = old + h
    fp = fn()
    arr[idx] = old - h
    fm = fn()
    arr[idx] = old
    return (fp - fm) / (2.0 * h)


def rel_err(a, b, floor=1e-3):
    """Max elementwise relative error with an absolute floor on the scale."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / scale))


def loop_sgd_step(params, grads, velocity, momentum, weight_decay, decay_keys, lr):
    """One momentum-SGD step, one key at a time in sorted order.

    The per-key update the optimizer ran before it kept a flat layout:
    g' = g + wd * w on decay keys (when wd is nonzero), v = m * v + g',
    w = w - lr * v. Returns new (params, velocity) dicts; the inputs are
    left alone.
    """
    new_params, new_velocity = {}, {}
    for key in sorted(params):
        g = grads[key]
        w = params[key]
        if key in decay_keys and weight_decay:
            g = g + weight_decay * w
        v = momentum * velocity[key] + g
        new_velocity[key] = v
        new_params[key] = w - lr * v
    return new_params, new_velocity


def nearest_mean_probe(images, labels):
    """Accuracy of the classifier that assigns each image to the nearest
    empirical class mean: a cheap linear probe for separability checks."""
    flat = images.reshape(len(images), -1)
    classes = int(labels.max()) + 1
    means = np.stack([flat[labels == c].mean(axis=0) for c in range(classes)])
    d2 = ((flat[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
    pred = np.argmin(d2, axis=1)
    return float(np.mean(pred == labels))


def loop_block_variance(grad_dicts, idx=None):
    """Per block np.mean(np.var(axis=0, ddof=1)) of stacked gradient dicts, and their mean."""
    keys = sorted(grad_dicts[0])
    stacks = {k: np.stack([np.asarray(g[k], dtype=float) for g in grad_dicts]) for k in keys}
    per_block = {k: float(np.mean(np.var(a if idx is None else a[idx], axis=0, ddof=1)))
                 for k, a in stacks.items()}
    return per_block, float(np.mean(list(per_block.values())))


def loop_grad_variance(grad_fn, sampler, batch_size, trials, seed, resamples=1000):
    """estimate_grad_variance as a plain loop: one gradient dict per seeded
    trial, then one np.var per bootstrap resample."""
    grads = [grad_fn(sampler(np.random.default_rng((seed, t)), batch_size))
             for t in range(trials)]
    per_block, agg = loop_block_variance(grads)
    boot_rng = np.random.default_rng((seed, 999983))
    boot = np.empty(resamples)
    for b in range(resamples):
        boot[b] = loop_block_variance(grads, boot_rng.integers(0, trials, size=trials))[1]
    lo, hi = np.quantile(boot, [0.025, 0.975])
    return per_block, agg, float((hi - lo) / 2.0)


def loop_update_variances(grad_fn, sampler, batch_size, k, rate, trials, seed, scaled):
    """(Var(large update), Var(k accumulated small updates)) as a plain loop:
    per seeded trial, one k*batch_size gradient at the large rate, then k
    batch_size gradients summed update by update."""
    large_lr = k * rate if scaled else rate
    large, small = [], []
    for t in range(trials):
        rng = np.random.default_rng((seed, t))
        g = grad_fn(sampler(rng, k * batch_size))
        large.append({key: large_lr * np.asarray(v, dtype=float) for key, v in g.items()})
        acc = None
        for _ in range(k):
            g = grad_fn(sampler(rng, batch_size))
            step = {key: rate * np.asarray(v, dtype=float) for key, v in g.items()}
            acc = step if acc is None else {key: acc[key] + step[key] for key in acc}
        small.append(acc)
    return loop_block_variance(large)[1], loop_block_variance(small)[1]


def rank_outcomes(group, fn):
    """Each rank's result or exception from `group.run(fn)`, by rank.

    Every rank stores its outcome and re-raises a failure, so a failing rank
    still aborts its peers as in any run; the error the run raises is
    dropped here, since its rule has tests of its own.
    """
    outcomes = [None] * group.world_size

    def recorded(handle):
        try:
            outcomes[handle.rank] = fn(handle)
        except BaseException as exc:
            outcomes[handle.rank] = exc
            raise
        return outcomes[handle.rank]

    try:
        group.run(recorded)
    except Exception:  # noqa: BLE001 - each rank's is in `outcomes`
        pass
    return outcomes
