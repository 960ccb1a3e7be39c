"""Minimal dense tensor type plus the channel reductions and affine maps
the rest of the library is built on.

Only two layouts are supported: (N, C) and (N, C, H, W), with the channel
axis always at position 1. Reductions accumulate strictly in ascending
flat-index order (no pairwise trees), so the same input always produces
bitwise-identical sums and a scalar loop reproduces them exactly; see
`sequential_sum_rows` for which numpy fold keeps that order on which input.

`Tensor` is the type of the public boundaries: the model input, the
logits, and the batch-norm functions' inputs and outputs. Between layers
the model carries plain arrays and runs the same finiteness scan
(`_check_finite`) on every one it computes. Arrays the library has just
computed become tensors through `Tensor._adopt`, which scans them but
does not copy, or through `Tensor._wrap` when the model has already
scanned them as a layer's output; `Tensor(...)` always copies its input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DTYPES = {"f64": np.float64, "f32": np.float32}


class TensorError(ValueError):
    """Invalid shape, layout, or argument for a tensor operation."""


class NonFiniteError(FloatingPointError):
    """A public operation produced or received NaN/Inf values."""


def _resolve_dtype(dtype):
    if isinstance(dtype, str):
        try:
            return np.dtype(DTYPES[dtype])
        except KeyError:
            raise TensorError(f"unsupported dtype {dtype!r}; expected one of {sorted(DTYPES)}")
    dt = np.dtype(dtype)
    if dt not in (np.dtype(np.float64), np.dtype(np.float32)):
        raise TensorError(f"unsupported dtype {dt}; only f64 and f32 are supported")
    return dt


def _check_finite(a: np.ndarray, context: str) -> np.ndarray:
    """Return `a`, or raise NonFiniteError naming `context` if it holds NaN/Inf."""
    if not np.isfinite(a).all():
        raise NonFiniteError(f"{context}: non-finite values in tensor data")
    return a


class Tensor:
    """Immutable dense array, row-major, f64 by default.

    Values are validated to be finite on construction; every public
    operation in this module returns a new `Tensor`, so NaN/Inf can never
    propagate silently. The underlying buffer is marked read-only and may
    be shared freely across device workers.
    """

    __slots__ = ("_a",)

    def __init__(self, values, dtype=None, _context="Tensor"):
        dt = _resolve_dtype(dtype) if dtype is not None else None
        a = np.array(values, dtype=dt, order="C")
        if a.dtype not in (np.dtype(np.float64), np.dtype(np.float32)):
            a = a.astype(np.float64)
        if a.ndim == 0:
            raise TensorError("tensor shape must be nonempty (rank >= 1)")
        if any(e <= 0 for e in a.shape):
            raise TensorError(f"tensor extents must be positive, got shape {a.shape}")
        _check_finite(a, _context)
        a.flags.writeable = False
        self._a = a

    @classmethod
    def _adopt(cls, a: np.ndarray, context: str) -> "Tensor":
        """Wrap an array the library has just computed, copying it only if it
        is not C-ordered.

        Runs the constructor's finiteness scan and marks the buffer read-only.
        Only for f64/f32 arrays with a positive extent on every axis that no
        caller holds a writable reference to.
        """
        return cls._wrap(_check_finite(a, context))

    @classmethod
    def _wrap(cls, a: np.ndarray) -> "Tensor":
        """`_adopt` without the scan, for an array already scanned under the
        name of the layer that produced it."""
        if not a.flags.c_contiguous:
            a = np.ascontiguousarray(a)
        t = cls.__new__(cls)
        t._a = a
        a.flags.writeable = False
        return t

    @property
    def shape(self) -> tuple[int, ...]:
        return self._a.shape

    @property
    def dtype(self) -> np.dtype:
        return self._a.dtype

    @property
    def size(self) -> int:
        return self._a.size

    @property
    def array(self) -> np.ndarray:
        """Read-only view with the tensor's shape."""
        return self._a

    @property
    def data(self) -> np.ndarray:
        """Read-only flat (row-major) view of the underlying buffer."""
        return self._a.reshape(-1)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name})"


def new_tensor(shape, fill: float, dtype="f64") -> Tensor:
    """Create a tensor of `shape` with every element equal to `fill`."""
    shape = tuple(int(e) for e in np.atleast_1d(np.asarray(shape, dtype=object)))
    if len(shape) == 0:
        raise TensorError("shape must be nonempty")
    if any(e <= 0 for e in shape):
        raise TensorError(f"extents must be >= 1, got {shape}")
    dt = _resolve_dtype(dtype)
    return Tensor(np.full(shape, fill, dtype=dt), _context="new_tensor")


@dataclass
class ChannelStats:
    """Per-channel reduction result.

    `count` is the number of scalar elements reduced into each channel
    entry. `sum_sq` is only populated when requested; the default two-pass
    normalization path never needs it.
    """

    count: int
    sum: np.ndarray
    sum_sq: np.ndarray | None = None

    def __post_init__(self):
        if self.count <= 0:
            raise TensorError(f"ChannelStats.count must be positive, got {self.count}")
        if self.sum_sq is not None and self.sum_sq.shape != self.sum.shape:
            raise TensorError("ChannelStats.sum and sum_sq must have equal length")


def _channels_last_rows(a: np.ndarray) -> np.ndarray:
    """Reshape (N,C) or (N,C,H,W) to (rows, C) preserving per-channel flat order."""
    if a.ndim == 2:
        return a
    if a.ndim == 4:
        n, c, h, w = a.shape
        return a.transpose(0, 2, 3, 1).reshape(n * h * w, c)
    raise TensorError(f"expected layout (N,C) or (N,C,H,W), got rank {a.ndim}")


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


def channel_sum(x: Tensor, with_sum_sq: bool = False) -> ChannelStats:
    """Per-channel sums over all non-channel axes of an (N,C) or (N,C,H,W) tensor.

    Accumulation order is fixed (ascending flat index within each channel),
    so identical inputs give bitwise-identical sums.
    """
    rows = _channels_last_rows(x.array)
    stats = ChannelStats(count=rows.shape[0], sum=sequential_sum_rows(rows))
    if with_sum_sq:
        stats.sum_sq = sequential_sum_rows(rows * rows)
    return stats


def channel_affine(x: Tensor, scale, shift) -> Tensor:
    """Per-channel affine map: out[n,c,...] = scale[c] * x[n,c,...] + shift[c]."""
    a = x.array
    if a.ndim not in (2, 4):
        raise TensorError(f"expected layout (N,C) or (N,C,H,W), got rank {a.ndim}")
    c = a.shape[1]
    scale = np.asarray(scale, dtype=a.dtype)
    shift = np.asarray(shift, dtype=a.dtype)
    if scale.shape != (c,) or shift.shape != (c,):
        raise TensorError(
            f"scale/shift must have length C={c}, got {scale.shape} and {shift.shape}"
        )
    return _channel_affine(a, scale, shift)


def _channel_affine(a: np.ndarray, scale, shift) -> Tensor:
    """`channel_affine` on an array, without its argument checks or a copy."""
    bshape = (1, a.shape[1]) + (1,) * (a.ndim - 2)
    out = (np.asarray(scale, dtype=a.dtype).reshape(bshape) * a
           + np.asarray(shift, dtype=a.dtype).reshape(bshape))
    return Tensor._adopt(out, "channel_affine")
