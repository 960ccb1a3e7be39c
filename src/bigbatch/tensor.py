"""Minimal dense tensor type, `image_rows` (the package's one conversion of
(N, C, H, W) images to rows), and the order-pinned row fold and the block
view that every per-channel statistic and elementwise op is built on.

`sequential_sum_rows` accumulates the columns of a rows matrix strictly
in ascending row order (no pairwise trees), so the same input always
produces bitwise-identical sums and a scalar loop reproduces them
exactly; its docstring says which numpy fold keeps that order on which
input. `channel_blocks` says why its block view keeps the broadcast's bits.

`Tensor` is the type of the model's input and nothing else: `Tensor(...)`
copies and scans a caller's values, and `Tensor._wrap` takes a dataset's
images, or a slice of them, checked where the dataset was made, without
a copy. The model and batch norm compute on plain arrays and run one
finiteness scan (`_check_finite`) on every one they compute, under the
name of the layer or operation that produced it.
"""

from __future__ import annotations

import numpy as np


class TensorError(ValueError):
    """Invalid shape, layout, or argument for a tensor operation."""


class NonFiniteError(FloatingPointError):
    """A public operation produced or received NaN/Inf values."""


def _check_finite(a: np.ndarray, context: str) -> np.ndarray:
    """Return `a`, or raise NonFiniteError naming `context` if it holds NaN/Inf."""
    if not np.logical_and.reduce(np.isfinite(a), axis=None):
        raise NonFiniteError(f"{context}: non-finite values in tensor data")
    return a


class Tensor:
    """Immutable dense array, f64 by default, row-major as the constructor
    copies it; `_wrap` keeps the layout of the dataset's arrays.

    Values are finite: the constructor scans them, and `_wrap` takes only
    arrays checked before, so NaN/Inf never enter the model silently.
    The underlying buffer is marked read-only and may be shared freely
    across device workers.
    """

    __slots__ = ("_a",)

    def __init__(self, values):
        a = np.array(values, order="C")
        if a.dtype not in (np.dtype(np.float64), np.dtype(np.float32)):
            a = a.astype(np.float64)
        if a.ndim == 0:
            raise TensorError("tensor shape must be nonempty (rank >= 1)")
        if any(e <= 0 for e in a.shape):
            raise TensorError(f"tensor extents must be positive, got shape {a.shape}")
        _check_finite(a, "Tensor")
        a.flags.writeable = False
        self._a = a

    @classmethod
    def _wrap(cls, a: np.ndarray) -> "Tensor":
        """Wrap a dataset's images or a slice of them, checked where the
        dataset was made, without a copy, and mark them read-only. Only for
        f64/f32 arrays with a positive extent on every axis that no caller
        holds a writable reference to."""
        t = cls.__new__(cls)
        t._a = a
        a.flags.writeable = False
        return t

    @property
    def shape(self) -> tuple[int, ...]:
        return self._a.shape

    @property
    def array(self) -> np.ndarray:
        """Read-only view with the tensor's shape."""
        return self._a


def image_rows(x: np.ndarray) -> np.ndarray:
    """(N, C, H, W) images as C-ordered (N*H*W, C) rows, ordered (n, y, x)."""
    return np.ascontiguousarray(x.transpose(0, 2, 3, 1)).reshape(-1, x.shape[1])


def sequential_sum_rows(rows: np.ndarray) -> np.ndarray:
    """Column sums of `rows` accumulated strictly row 0, row 1, ... row M-1.

    A C-ordered input with at least two columns folds through
    `np.einsum("ij->j")`, whose inner loop runs along a row and adds it to
    the running total, one row after another. Any other input takes the
    final row of `np.cumsum`, which follows the prefix recurrence
    out[i] = out[i-1] + row[i] but writes the whole prefix array; einsum
    would reduce a single column, or a column-major one, with SIMD partial
    sums. The unit suite pins both paths against an explicit scalar loop.
    """
    if rows.shape[0] == 1:
        return rows[0].copy()
    if rows.shape[1] > 1 and rows.flags.c_contiguous:
        return np.einsum("ij->j", rows)
    return np.cumsum(rows, axis=0)[-1]


def repeats(rows: np.ndarray, count: int, dtype=None) -> np.ndarray:
    """An uninitialised (count, k*C) operand for `channel_blocks(rows, ...)` to fill."""
    m, c = rows.shape
    return np.empty((count, min(m & -m, 64) * c), rows.dtype if dtype is None else dtype)


def channel_blocks(rows: np.ndarray, *vecs: np.ndarray, out=None):
    """`rows` (M, C) as (M/k, k*C) blocks of k whole rows, and each (C,) vector
    of `vecs` repeated k times, as (len(vecs), k*C), filled into `out`, a
    `repeats` operand of these rows, or a fresh one in the rows' dtype. k is
    the lowest set bit of M, capped at 64: 64 on 8x8 images.

    An elementwise op of the blocks with a repeated vector meets each element
    with the operand of the (M, C) broadcast, so its result is bitwise the
    broadcast's, from an inner loop k*C long instead of C. The blocks copy
    rows that are not C-ordered: reshape results back, never write through.
    Folds depend on the layout and stay on `sequential_sum_rows`.
    """
    m, c = rows.shape
    reps = repeats(rows, len(vecs)) if out is None else out
    k = reps.shape[1] // c
    reps.reshape(len(vecs), k, c).transpose(1, 0, 2)[...] = vecs  # cast as `np.asarray(v, dtype)`
    return rows.reshape(m // k, k * c), reps
