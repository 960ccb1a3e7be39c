import json
import warnings

import numpy as np
import pytest

from bigbatch import data
from bigbatch.data import (
    DataError,
    DatasetSpec,
    class_means,
    generate_dataset,
    load_dataset,
    save_dataset,
)

from helpers import nearest_mean_probe


class TestSpec:
    @pytest.mark.parametrize("fields", [
        dict(size=10**6, classes=4, height=10**6, width=10**6),
        dict(size=2**21, classes=4, eval_size=1, height=8, width=8),  # one element over
    ])
    def test_generated_size_is_capped(self, fields):
        # only the spec is built: a dataset over the cap is never drawn
        with pytest.raises(DataError, match=r"height \* width must be <= 2\*\*27"):
            DatasetSpec(**fields)

    def test_size_at_the_cap_is_accepted(self):
        DatasetSpec(size=2**21 - 1, classes=4, eval_size=1, height=8, width=8)

    def test_defaults(self):
        spec = DatasetSpec(size=100, classes=4)
        assert spec.resolved_eval_size() == 25
        assert spec.resolved_blob_sigma() == 8 / 6

    def test_explicit_blob_sigma(self):
        spec = DatasetSpec(size=16, classes=2, blob_sigma=0.5)
        assert spec.resolved_blob_sigma() == 0.5
        assert not np.array_equal(class_means(spec), class_means(DatasetSpec(16, 2)))

    @pytest.mark.parametrize("sigma", [0.0184, 1e-200])
    def test_blob_sigma_too_small_for_the_grid(self, sigma):
        # every bump underflows to zero, and normalizing it made NaN means;
        # at 1e-200 sigma squared is zero too, which numpy must not warn of
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError) as e:
                DatasetSpec(size=16, classes=4, blob_sigma=sigma)
        assert str(e.value) == (f"blob_sigma {sigma!r} is too small for the 8x8 grid: "
                                "class 0's bump underflows to zero")

    def test_blob_sigma_just_large_enough(self):
        # only the two pixels nearest each bump's center stay above zero
        spec = DatasetSpec(size=16, classes=4, blob_sigma=0.0185, separation=3.0)
        means = class_means(spec).reshape(4, -1)
        assert [np.count_nonzero(m) for m in means] == [2, 2, 2, 2]
        dmin = min(np.linalg.norm(means[i] - means[j]) for i in range(4) for j in range(i))
        assert abs(dmin - 3.0) < 1e-12

    def test_eval_size_floor(self):
        spec = DatasetSpec(size=10, classes=5)
        assert spec.resolved_eval_size() == 5  # at least one per class

    def test_validation(self):
        with pytest.raises(DataError):
            DatasetSpec(size=10, classes=1)
        with pytest.raises(DataError):
            DatasetSpec(size=2, classes=4)
        with pytest.raises(DataError):
            DatasetSpec(size=10, classes=2, height=1)
        with pytest.raises(DataError):
            DatasetSpec(size=10, classes=2, separation=0.0)
        with pytest.raises(DataError):
            DatasetSpec(size=10, classes=2, noise_sigma=-1.0)


class TestClassMeans:
    def test_minimum_separation_is_exact(self):
        for classes, sep, sigma in [(2, 4.0, 1.0), (4, 6.0, 0.5), (5, 3.0, 2.0)]:
            spec = DatasetSpec(size=100, classes=classes, separation=sep,
                               noise_sigma=sigma)
            means = class_means(spec).reshape(classes, -1)
            dmin = min(
                float(np.linalg.norm(means[i] - means[j]))
                for i in range(classes) for j in range(i + 1, classes)
            )
            assert abs(dmin - sep * sigma) < 1e-9 * sep * sigma

    def test_shape(self):
        spec = DatasetSpec(size=50, classes=3, height=6, width=10)
        assert class_means(spec).shape == (3, 1, 6, 10)

    def test_channel_means_differ_after_pooling(self):
        # The signed amplitude ramp keeps classes apart even when all
        # spatial structure is averaged away.
        spec = DatasetSpec(size=50, classes=4)
        pooled = class_means(spec).mean(axis=(1, 2, 3))
        gaps = [abs(pooled[i] - pooled[j])
                for i in range(4) for j in range(i + 1, 4)]
        assert min(gaps) > 0.01

    def test_deterministic(self):
        spec = DatasetSpec(size=50, classes=3)
        assert np.array_equal(class_means(spec), class_means(spec))


class TestGeneration:
    def test_shapes_and_balance(self):
        spec = DatasetSpec(size=64, classes=4, height=5, width=7)
        ds = generate_dataset(spec, seed=3)
        assert ds.images.shape == (64, 1, 5, 7)
        assert ds.labels.shape == (64,)
        assert ds.eval_images.shape == (16, 1, 5, 7)
        counts = np.bincount(ds.labels, minlength=4)
        assert counts.max() - counts.min() <= 1  # balanced up to remainder
        assert ds.labels.dtype == np.int64

    def test_seed_determinism(self):
        spec = DatasetSpec(size=32, classes=2)
        a = generate_dataset(spec, seed=5)
        b = generate_dataset(spec, seed=5)
        assert a.images.tobytes() == b.images.tobytes()
        assert a.content_hash() == b.content_hash()
        c = generate_dataset(spec, seed=6)
        assert a.content_hash() != c.content_hash()

    def test_class_means_are_computed_once(self, monkeypatch):
        # both splits draw around one set: the pairwise comparison grows
        # with classes**2 and takes 0.19 s at the class cap
        calls = []
        monkeypatch.setattr(data, "class_means",
                            lambda spec: calls.append(spec) or class_means(spec))
        spec = DatasetSpec(size=16, classes=2, eval_size=16)
        generate_dataset(spec, seed=1)
        assert calls == [spec]

    def test_train_and_eval_draws_are_independent(self):
        spec = DatasetSpec(size=16, classes=2, eval_size=16)
        ds = generate_dataset(spec, seed=1)
        assert not np.array_equal(ds.images, ds.eval_images)

    def test_hash_covers_labels(self):
        spec = DatasetSpec(size=16, classes=2)
        ds = generate_dataset(spec, seed=1)
        h0 = ds.content_hash()
        ds.labels = ds.labels.copy()
        ds.labels[0] = (ds.labels[0] + 1) % 2
        assert ds.content_hash() != h0

    def test_two_classes_at_four_sigma_probe_accuracy(self):
        # Bayes accuracy for two classes 4 sigma apart is Phi(2) ~ 0.977;
        # the nearest-mean probe on a large sample should land close.
        spec = DatasetSpec(size=2000, classes=2, separation=4.0)
        ds = generate_dataset(spec, seed=7)
        acc = nearest_mean_probe(ds.images, ds.labels)
        assert acc > 0.95
        assert acc < 1.0  # the task is noisy by design

    @pytest.mark.parametrize("separation,noise_sigma", [(1e308, 1e10), (4.0, 1e308)])
    def test_overflowing_images_are_a_data_error(self, separation, noise_sigma):
        # the images used to come out all Inf, which gen-data saved and
        # train rejected only at its first batch, with a traceback
        spec = DatasetSpec(size=16, classes=2, separation=separation, noise_sigma=noise_sigma)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and numpy prints nothing on top of it
            with pytest.raises(DataError) as e:
                generate_dataset(spec, seed=0)
        assert str(e.value) == (f"separation {separation!r} and noise_sigma {noise_sigma!r} "
                                "overflow the generated images to NaN or Inf")

    def test_large_finite_images_are_kept(self):
        ds = generate_dataset(DatasetSpec(size=16, classes=2, noise_sigma=1e300), seed=0)
        assert np.isfinite(ds.images).all() and np.abs(ds.images).max() > 1e299

    def test_wider_separation_is_easier(self):
        near = generate_dataset(DatasetSpec(size=800, classes=4, separation=2.0), 9)
        far = generate_dataset(DatasetSpec(size=800, classes=4, separation=6.0), 9)
        assert nearest_mean_probe(far.images, far.labels) > \
            nearest_mean_probe(near.images, near.labels)


class TestSaveLoad:
    def test_round_trip(self, tmp_path):
        spec = DatasetSpec(size=24, classes=3)
        ds = generate_dataset(spec, seed=2)
        meta = save_dataset(ds, tmp_path)
        assert meta["content_hash"] == ds.content_hash()
        back = load_dataset(tmp_path)
        assert back.spec == spec
        assert back.seed == 2
        assert np.array_equal(back.images, ds.images)
        assert np.array_equal(back.eval_labels, ds.eval_labels)

    def test_files_byte_stable(self, tmp_path):
        spec = DatasetSpec(size=24, classes=3)
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        save_dataset(generate_dataset(spec, seed=2), a_dir)
        save_dataset(generate_dataset(spec, seed=2), b_dir)
        for name in ("images.npy", "labels.npy", "eval_images.npy",
                     "eval_labels.npy", "meta.json"):
            assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()

    def test_missing_meta(self, tmp_path):
        with pytest.raises(DataError, match="meta.json"):
            load_dataset(tmp_path)

    def test_tamper_detection(self, tmp_path):
        ds = generate_dataset(DatasetSpec(size=16, classes=2), seed=4)
        save_dataset(ds, tmp_path)
        tampered = ds.labels.copy()
        tampered[0] = 1 - tampered[0]
        np.save(tmp_path / "labels.npy", tampered)
        with pytest.raises(DataError, match="hash"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("name", ["images.npy", "labels.npy", "eval_images.npy",
                                      "eval_labels.npy"])
    def test_missing_array_file_is_named(self, tmp_path, name):
        save_dataset(generate_dataset(DatasetSpec(size=16, classes=2), 0), tmp_path)
        (tmp_path / name).unlink()
        with pytest.raises(DataError, match=f"{name} is missing"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("make", [
        lambda p: p.write_bytes(b""),                      # empty
        lambda p: p.write_bytes(b"not an npy file"),       # garbage
        lambda p: p.write_bytes(p.read_bytes()[:100]),     # truncated
        lambda p: (p.unlink(), p.mkdir()),                 # a directory
        lambda p: np.save(p, np.array([{}]), allow_pickle=True),  # pickled objects
    ])
    def test_unreadable_array_file_is_named(self, tmp_path, make):
        save_dataset(generate_dataset(DatasetSpec(size=16, classes=2), 0), tmp_path)
        make(tmp_path / "images.npy")
        with pytest.raises(DataError, match="images.npy cannot be read"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("name, change", [
        ("images.npy", lambda a: a[:-1]),                  # one sample short
        ("images.npy", lambda a: a.reshape(len(a), -1)),   # flattened images
        ("images.npy", lambda a: a.astype(np.float32)),
        ("labels.npy", lambda a: a.astype(np.int32)),
        ("eval_labels.npy", lambda a: a.astype(np.float64)),
        ("eval_images.npy", lambda a: a[:, :, :-1]),
    ])
    def test_wrong_shape_or_dtype_is_named(self, tmp_path, name, change):
        save_dataset(generate_dataset(DatasetSpec(size=16, classes=2), 0), tmp_path)
        np.save(tmp_path / name, change(np.load(tmp_path / name)))
        with pytest.raises(DataError, match=f"{name} holds .* expected"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("name,index,value,problem", [
        ("images", (3, 0, 1, 1), np.nan, "a NaN or Inf"),
        ("eval_images", (0, 0, 0, 0), -np.inf, "a NaN or Inf"),
        ("labels", (5,), 2, r"a label outside \[0, 2\)"),
        ("eval_labels", (0,), -1, r"a label outside \[0, 2\)"),
    ])
    def test_corrupt_values_are_named(self, tmp_path, name, index, value, problem):
        # written by save_dataset, so the recorded hash matches
        ds = generate_dataset(DatasetSpec(size=16, classes=2), 0)
        getattr(ds, name)[index] = value
        save_dataset(ds, tmp_path)
        with pytest.raises(DataError, match=f"{name}.npy holds {problem}"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("text", ["{nope", "[]", '{"seed": 0}',
                                      '{"spec": {"size": 1}, "seed": 0, "content_hash": ""}'])
    def test_malformed_meta_is_a_data_error(self, tmp_path, text):
        save_dataset(generate_dataset(DatasetSpec(size=16, classes=2), 0), tmp_path)
        (tmp_path / "meta.json").write_text(text)
        with pytest.raises(DataError, match="meta.json does not describe a dataset"):
            load_dataset(tmp_path)

    def test_meta_is_json_with_spec(self, tmp_path):
        save_dataset(generate_dataset(DatasetSpec(size=16, classes=2), 0), tmp_path)
        meta = json.loads((tmp_path / "meta.json").read_text())
        assert meta["spec"]["size"] == 16
        assert meta["seed"] == 0
        assert len(meta["content_hash"]) == 64


class TestProbe:
    def test_perfect_when_noiseless(self):
        spec = DatasetSpec(size=40, classes=4)
        means = class_means(spec)
        labels = np.arange(40) % 4
        images = means[labels]
        assert nearest_mean_probe(images, labels) == 1.0
