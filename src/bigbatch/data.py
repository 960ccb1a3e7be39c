"""Seeded synthetic classification data: Gaussian class blobs on an image grid.

Each class mean is a smooth bump at a class-specific location on the
(1, H, W) grid; samples add i.i.d. Gaussian pixel noise. The bump set is
rescaled so the minimum pairwise distance between class means equals
`separation` noise standard deviations exactly, which gives closed-form
Bayes-accuracy oracles (two classes at 4 sigma: Phi(2) ~ 0.977).

Generation is a pure function of (spec, seed) and file output is
byte-stable, so dataset identity can be pinned by content hash.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from .schema import check_fields, integer, json_text, number, ruled


class DataError(ValueError):
    """Invalid dataset spec or corrupted dataset files."""


# Generated images live in memory as float64: 2**27 elements is 1 GiB.
MAX_DATASET_ELEMENTS = 2**27
# `class_means` compares every pair of classes in a Python loop, once per
# dataset: 2**8 classes make 32,640 pairs, 0.19 s on one CPU; the count
# grows with classes**2.
MAX_CLASSES = 2**8


@dataclass(frozen=True)
class DatasetSpec:
    size: int = ruled(integer(gt=0))
    classes: int = ruled(integer(ge=2, le=MAX_CLASSES))
    height: int = ruled(integer(ge=2), 8)
    width: int = ruled(integer(ge=2), 8)
    separation: float = ruled(number(gt=0), 4.0)
    noise_sigma: float = ruled(number(gt=0), 1.0)
    eval_size: int | None = ruled(integer(gt=0, null=True), None)  # None: max(size // 4, classes)
    blob_sigma: float | None = ruled(number(gt=0, null=True), None)  # None: min(height, width) / 6

    def __post_init__(self):
        check_fields(self, DataError)
        if self.size < self.classes:
            raise DataError("size must cover at least one sample per class")
        n = (self.size + self.resolved_eval_size()) * self.height * self.width
        if n > MAX_DATASET_ELEMENTS:
            raise DataError(f"(size + eval_size) * height * width must be <= 2**27, got {n}")
        for _ in _unit_bumps(self):  # raises on a class bump that underflows
            pass

    def resolved_eval_size(self) -> int:
        if self.eval_size is not None:
            return self.eval_size
        return max(self.size // 4, self.classes)

    def resolved_blob_sigma(self) -> float:
        if self.blob_sigma is not None:
            return self.blob_sigma
        return min(self.height, self.width) / 6.0


def _unit_bumps(spec: DatasetSpec):
    """Each class's mean before scaling, in class order: its amplitude times
    a unit-norm bump. Raises DataError, naming `blob_sigma`, when a bump's
    norm is not positive: no grid point lies close enough to its center."""
    h, w, c = spec.height, spec.width, spec.classes
    sig = spec.resolved_blob_sigma()
    ys, xs = np.arange(h)[:, None], np.arange(w)  # the grid, broadcast to (h, w) below
    radius = 0.35 * min(h - 1, w - 1)
    for i in range(c):
        ang = 2.0 * np.pi * i / c
        cy = (h - 1) / 2.0 + radius * np.sin(ang)
        cx = (w - 1) / 2.0 + radius * np.cos(ang)
        with np.errstate(divide="ignore", invalid="ignore"):  # sig * sig may underflow
            bump = np.exp(-((ys - cy) ** 2 + (xs - cx) ** 2) / (2.0 * sig * sig))
        norm = np.linalg.norm(bump)
        if not 0 < norm < np.inf:
            raise DataError(f"blob_sigma {sig!r} is too small for the {h}x{w} grid: "
                            f"class {i}'s bump underflows to zero")
        yield (1 + i // 2) * (1 if i % 2 == 0 else -1) * bump.ravel() / norm


def class_means(spec: DatasetSpec) -> np.ndarray:
    """(classes, 1, H, W) mean images with exact minimum separation.

    Class i is a smooth bump at position i on a circle around the grid
    center, with a signed amplitude ramp (+1, -1, +2, -2, ...) so classes
    stay distinguishable even through channel-pooling layers. The whole
    set is scaled so the closest pair of means is separation * noise_sigma
    apart in L2. Two unit bumps are non-negative and differ in amplitude or
    sign, so the closest pair is at least 1 apart before scaling.
    """
    bumps = np.array([*_unit_bumps(spec)])
    dmin = np.inf
    for i in range(spec.classes):
        for j in range(i + 1, spec.classes):
            dmin = min(dmin, np.linalg.norm(bumps[i] - bumps[j]))
    scale = spec.separation * spec.noise_sigma / dmin
    return (scale * bumps).reshape(spec.classes, 1, spec.height, spec.width)


@dataclass
class Dataset:
    spec: DatasetSpec
    seed: int
    images: np.ndarray
    labels: np.ndarray
    eval_images: np.ndarray
    eval_labels: np.ndarray

    def content_hash(self) -> str:
        digest = hashlib.sha256()
        for arr in (self.images, self.labels, self.eval_images, self.eval_labels):
            digest.update(np.ascontiguousarray(arr).tobytes())
        digest.update(json.dumps(asdict(self.spec), sort_keys=True).encode())
        digest.update(str(self.seed).encode())
        return digest.hexdigest()


def _draw_split(spec: DatasetSpec, means: np.ndarray, rng: np.random.Generator, n: int):
    # Balanced label assignment in a seeded random order; avoids empty
    # classes on small splits, which would break nearest-mean probes.
    labels = rng.permutation(np.arange(n) % spec.classes).astype(np.int64)
    noise = rng.standard_normal((n, 1, spec.height, spec.width))
    images = means[labels] + spec.noise_sigma * noise
    return images, labels


@np.errstate(over="ignore", invalid="ignore")  # an overflow is named below
def generate_dataset(spec: DatasetSpec, seed: int) -> Dataset:
    means = class_means(spec)
    images, labels = _draw_split(spec, means, np.random.default_rng((seed, 0)), spec.size)
    ev_images, ev_labels = _draw_split(
        spec, means, np.random.default_rng((seed, 1)), spec.resolved_eval_size())
    if not (np.isfinite(images).all() and np.isfinite(ev_images).all()):  # as load_dataset
        raise DataError(f"separation {spec.separation!r} and noise_sigma "
                        f"{spec.noise_sigma!r} overflow the generated images to NaN or Inf")
    return Dataset(spec=spec, seed=seed, images=images, labels=labels,
                   eval_images=ev_images, eval_labels=ev_labels)


def save_dataset(ds: Dataset, out_dir) -> dict:
    """Write the four arrays plus a meta.json; returns the meta mapping."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    np.save(out / "images.npy", ds.images)
    np.save(out / "labels.npy", ds.labels)
    np.save(out / "eval_images.npy", ds.eval_images)
    np.save(out / "eval_labels.npy", ds.eval_labels)
    meta = {
        "spec": asdict(ds.spec),
        "seed": ds.seed,
        "content_hash": ds.content_hash(),
    }
    (out / "meta.json").write_text(json_text(meta))
    return meta


def _load_array(path: Path, dtype, shape: tuple, classes: int | None = None) -> np.ndarray:
    """One saved array, which must hold `dtype` values of `shape`: finite
    images or, given `classes`, labels in [0, classes)."""
    try:
        a = np.load(path, allow_pickle=False)
    except FileNotFoundError:
        raise DataError(f"dataset file {path} is missing") from None
    except (OSError, ValueError, EOFError) as e:
        raise DataError(f"dataset file {path} cannot be read: {e}") from None
    if a.dtype != dtype or a.shape != shape:
        raise DataError(f"dataset file {path} holds {a.dtype} {a.shape}, "
                        f"expected {np.dtype(dtype)} {shape}")
    if classes is None and not np.isfinite(a).all():
        raise DataError(f"dataset file {path} holds a NaN or Inf")
    if classes is not None and np.any((a < 0) | (a >= classes)):
        raise DataError(f"dataset file {path} holds a label outside [0, {classes})")
    return a


def load_dataset(in_dir) -> Dataset:
    """Read a directory written by `save_dataset`.

    Raises DataError, naming the file, when `meta.json` or an array file is
    missing or unreadable, when an array has the wrong shape or dtype for
    the recorded spec, when images hold a NaN or Inf or a label lies outside
    [0, classes), or when the contents do not match the recorded hash.
    """
    src = Path(in_dir)
    try:
        meta = json.loads((src / "meta.json").read_text())
        spec = DatasetSpec(**meta["spec"])
        seed, recorded_hash = meta["seed"], meta["content_hash"]
    except FileNotFoundError:
        raise DataError(f"no meta.json under {src}") from None
    except (OSError, ValueError, KeyError, TypeError) as e:
        raise DataError(f"{src / 'meta.json'} does not describe a dataset: {e!r}") from None
    grid = (1, spec.height, spec.width)
    n, n_eval = spec.size, spec.resolved_eval_size()
    ds = Dataset(
        spec=spec,
        seed=seed,
        images=_load_array(src / "images.npy", np.float64, (n, *grid)),
        labels=_load_array(src / "labels.npy", np.int64, (n,), spec.classes),
        eval_images=_load_array(src / "eval_images.npy", np.float64, (n_eval, *grid)),
        eval_labels=_load_array(src / "eval_labels.npy", np.int64, (n_eval,), spec.classes),
    )
    if ds.content_hash() != recorded_hash:
        raise DataError(f"dataset under {src} does not match its recorded hash")
    return ds
