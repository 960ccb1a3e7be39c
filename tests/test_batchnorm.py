import dataclasses

import numpy as np
import pytest

from bigbatch import batchnorm
from bigbatch.batchnorm import (
    BatchNormError,
    BNForwardCache,
    BNLayerState,
    bn_backward_local,
    bn_forward_local,
    sync_bn_backward,
    sync_bn_forward,
)
from bigbatch.collectives import CollectiveProtocolError, DeviceGroup
from bigbatch.tensor import NonFiniteError, image_rows

from helpers import (
    channel_rows,
    fd_entry,
    loop_bn_forward,
    loop_channel_sum,
    loop_sequential_sum,
)


def random_state(rng, channels, eps=1e-5, momentum=0.1):
    """A fresh state with a random (gamma, beta): returns (state, gamma, beta)."""
    gamma, beta = rng.uniform(0.5, 1.5, channels), rng.normal(size=channels)
    return BNLayerState.create(channels, eps, momentum), gamma, beta


def identity(channels):
    """The (gamma, beta) a BN layer starts from."""
    return np.ones(channels), np.zeros(channels)


def rows(a):
    """An (N, C) batch as it is, (N, C, H, W) images as the rows BN takes."""
    return a if a.ndim == 2 else image_rows(a)


def group_forward(world, bn_group, shards, gamma, beta, one_pass=False, momentum=0.1):
    """Run sync BN on per-rank shards, each rank on a fresh state; returns
    per-rank (y, cache, state)."""
    g = DeviceGroup(world, bn_group_size=bn_group)

    def fn(h):
        st = BNLayerState.create(gamma.shape[0], running_momentum=momentum)
        y, cache = sync_bn_forward(h, shards[h.rank], gamma, beta, st, one_pass=one_pass)
        return y, cache, st

    return g.run(fn)


class TestStateValidation:
    def test_create_defaults(self):
        st = BNLayerState.create(3)
        assert st.channels == 3
        assert np.array_equal(st.running_mean, np.zeros(3))
        assert np.array_equal(st.running_var, np.ones(3))

    def test_holds_only_its_running_statistics(self):
        # gamma and beta are the caller's parameters, passed to each forward
        names = [f.name for f in dataclasses.fields(BNLayerState)]
        assert names == ["running_mean", "running_var", "eps", "running_momentum", "operands"]

    def test_length_mismatch(self):
        with pytest.raises(BatchNormError, match="running_var must have length 3"):
            BNLayerState(running_mean=np.zeros(3), running_var=np.ones(2))

    def test_eps_must_be_positive(self):
        with pytest.raises(BatchNormError):
            BNLayerState.create(2, eps=0.0)

    def test_momentum_range(self):
        BNLayerState.create(2, running_momentum=0.0)
        BNLayerState.create(2, running_momentum=1.0)
        with pytest.raises(BatchNormError):
            BNLayerState.create(2, running_momentum=1.01)
        with pytest.raises(BatchNormError):
            BNLayerState.create(2, running_momentum=-0.1)

    def test_negative_running_var_rejected(self):
        with pytest.raises(BatchNormError):
            BNLayerState(running_mean=np.zeros(2), running_var=np.array([0.1, -0.1]))


class TestAffineArguments:
    """gamma and beta come from the caller; each forward checks their length."""

    @pytest.mark.parametrize("wrong", ["gamma", "beta"])
    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_local_forward_names_the_length_in_one_line(self, mode, wrong):
        affine = {"gamma": np.ones(3), "beta": np.zeros(3), wrong: np.ones(2)}
        with pytest.raises(BatchNormError) as e:
            bn_forward_local(np.ones((4, 3)), affine["gamma"], affine["beta"],
                             BNLayerState.create(3), mode=mode)
        assert str(e.value) == "gamma and beta must have length 3"

    @pytest.mark.parametrize("wrong", ["gamma", "beta"])
    def test_sync_forward_fails_on_both_ranks_before_a_collective(self, wrong):
        affine = {"gamma": np.ones(3), "beta": np.zeros(3), wrong: np.ones((3, 1))}

        def fn(h):
            with pytest.raises(BatchNormError) as e:
                sync_bn_forward(h, np.ones((2, 3)), affine["gamma"], affine["beta"],
                                BNLayerState.create(3))
            return str(e.value)

        assert DeviceGroup(2).run(fn) == ["gamma and beta must have length 3"] * 2

    def test_sync_forward_with_one_bad_rank_raises_its_line(self):
        # rank 1 fails before its first reduction, which aborts rank 0's
        def fn(h):
            gamma = np.ones(3 if h.rank == 0 else 2)
            return sync_bn_forward(h, np.ones((2, 3)), gamma, np.zeros(3),
                                   BNLayerState.create(3))

        with pytest.raises(BatchNormError, match="^gamma and beta must have length 3$"):
            DeviceGroup(2).run(fn)

    @pytest.mark.parametrize("path", ["local", "two_pass", "one_pass"])
    def test_cache_holds_the_gamma_its_forward_read(self, path):
        def fn(rank, forward, backward):
            rng = np.random.default_rng((73, rank))
            st, gamma, beta = random_state(rng, 3)
            x, dy = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
            _, cache = forward(x, gamma, beta, st)
            assert cache.gamma is gamma
            dx = backward(dy, cache, st)[0]
            cache.gamma = 2 * gamma  # the backward differentiates the scale the cache holds
            assert np.array_equal(backward(dy, cache, st)[0], 2 * dx)

        on_path(path, fn)


class TestLocalForward:
    @pytest.mark.parametrize("shape, dtype", [
        ((4, 2), np.float64), ((3, 5), np.float64), ((2, 3, 4, 4), np.float64),
        ((6, 1, 2, 3), np.float64), ((2, 3, 4, 4), np.float32),
    ], ids=["shape0", "shape1", "shape2", "shape3", "float32"])
    def test_matches_loop_oracle(self, shape, dtype):
        rng = np.random.default_rng(sum(shape))
        x = rows(rng.normal(size=shape).astype(dtype))
        st, gamma, beta = random_state(rng, shape[1])
        y, cache = bn_forward_local(x, gamma, beta, st, mode="train")
        want_y, want_mu, want_var = loop_bn_forward(x, gamma, beta, st.eps)
        assert y.dtype == dtype  # the input's dtype is kept
        if dtype == np.float32:
            assert np.allclose(y, want_y, rtol=0, atol=1e-5)
            assert np.allclose(cache.mu, want_mu, rtol=1e-6, atol=1e-7)
            assert np.allclose(cache.var, want_var, rtol=1e-6, atol=1e-7)
        else:
            assert np.allclose(y, want_y, rtol=0, atol=1e-12)
            assert np.allclose(cache.mu, want_mu, rtol=1e-13, atol=0)
            assert np.allclose(cache.var, want_var, rtol=1e-12, atol=1e-15)
        assert cache.total_count == x.size // shape[1]
        assert cache.scope_key is None

    @pytest.mark.parametrize("shape", [(5, 3), (2, 4, 3, 3), (7, 1, 2, 5), (1, 6, 2, 1)])
    def test_channel_sums_fold_rows_in_order(self, shape):
        # mu and dbeta are the sequential per-channel sums over the rows,
        # bitwise, an image's in (n, y, x) order; (1, C, H, W) has a single image
        rng = np.random.default_rng(sum(shape))
        x, dy = rows(rng.normal(size=shape)), rows(rng.normal(size=shape))
        st = BNLayerState.create(shape[1])
        _, cache = bn_forward_local(x, *identity(shape[1]), st)
        assert np.array_equal(cache.mu, loop_channel_sum(x) / (x.size // shape[1]))
        _, _, dbeta = bn_backward_local(dy, cache, st)
        assert np.array_equal(dbeta, loop_channel_sum(dy))

    def test_frozen_case(self):
        # Literals computed once with scalar loops.
        rng = np.random.default_rng(23)
        x = rng.normal(size=(4, 2))
        gamma, beta = np.array([1.5, 0.5]), np.array([0.1, -0.2])
        y, cache = bn_forward_local(x, gamma, beta, BNLayerState.create(2))
        assert abs(cache.mu[0] - 0.4591714964384243) < 1e-15
        assert abs(cache.mu[1] - -0.90541242423664) < 1e-15
        assert abs(cache.var[0] - 0.12006252582474286) < 1e-15
        assert abs(cache.var[1] - 1.7584970005300984) < 1e-15
        assert abs(y[0, 0] - 0.5072946592418226) < 1e-12
        assert abs(y[0, 1] - 0.22343109749756324) < 1e-12

    def test_normalized_stats(self):
        # The outputs of training-mode BN with identity affine have mean 0
        # and biased variance 1 by construction.
        rng = np.random.default_rng(31)
        x = image_rows(rng.normal(loc=3.0, scale=2.5, size=(64, 3, 2, 2)))
        st = BNLayerState.create(3)
        y, _ = bn_forward_local(x, *identity(3), st)
        rows = np.stack(channel_rows(y))
        assert np.allclose(rows.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(rows.var(axis=0), 1.0, atol=1e-4)  # eps skews slightly

    def test_single_element_batch_rejected(self):
        st = BNLayerState.create(3)
        with pytest.raises(BatchNormError, match="at least 2"):
            bn_forward_local(np.ones((1, 3)), *identity(3), st)

    @pytest.mark.parametrize("x, named", [
        (np.arange(6, dtype=np.int64).reshape(3, 2), "int64"),
        (np.ones((0, 2)), r"shape \(0, 2\)"),
        (np.ones((3, 0)), r"shape \(3, 0\)"),
    ], ids=["int64", "no_rows", "no_channels"])
    def test_values_rejected(self, x, named):
        # not int64 results, nor a ZeroDivisionError from the block view
        with pytest.raises(BatchNormError, match=named) as err:
            bn_forward_local(x, *identity(2), BNLayerState.create(2))
        assert "\n" not in str(err.value)

    def test_channel_mismatch(self):
        st = BNLayerState.create(3)
        with pytest.raises(BatchNormError):
            bn_forward_local(np.ones((4, 2)), *identity(3), st)

    def test_bad_mode(self):
        st = BNLayerState.create(2)
        with pytest.raises(BatchNormError):
            bn_forward_local(np.ones((4, 2)), *identity(2), st, mode="test")


@pytest.mark.parametrize("shape", [(12,), (4, 3, 1), (1, 3, 2, 2)], ids=["1d", "3d", "4d"])
class TestRowsOnly:
    """Each public function takes (M, C) rows and refuses any other rank with
    one line that names the shape; a synchronized one on every rank, before
    the first collective of its call."""

    def test_forward_local(self, shape):
        with pytest.raises(BatchNormError) as e:
            bn_forward_local(np.ones(shape), *identity(3), BNLayerState.create(3))
        assert str(e.value) == f"expected (M, C) rows, got shape {shape}"

    def test_backward_local(self, shape):
        st = BNLayerState.create(3)
        _, cache = bn_forward_local(np.ones((4, 3)), *identity(3), st)
        with pytest.raises(BatchNormError) as e:
            bn_backward_local(np.ones(shape), cache, st)
        assert str(e.value) == f"cotangent shape {shape} does not match cached shape (4, 3)"

    @pytest.mark.parametrize("backward", [False, True], ids=["forward", "backward"])
    def test_sync_on_every_rank(self, shape, backward):
        def fn(h):
            st = BNLayerState.create(3)
            with pytest.raises(BatchNormError) as e:
                if backward:
                    _, cache = sync_bn_forward(h, np.ones((4, 3)), *identity(3), st)
                    sync_bn_backward(h, np.ones(shape), cache, st)
                else:
                    sync_bn_forward(h, np.ones(shape), *identity(3), st)
            return str(e.value)

        g = DeviceGroup(2)
        want = (f"cotangent shape {shape} does not match cached shape (4, 3)" if backward
                else f"expected (M, C) rows, got shape {shape}")
        assert g.run(fn) == [want] * 2
        assert g._tables["bn0"].round == (2 if backward else 0)  # the forward's two rounds


class TestEvalForward:
    def test_uses_running_stats(self):
        gamma, beta = np.array([2.0, 1.0]), np.array([0.0, 1.0])
        st = BNLayerState(
            running_mean=np.array([1.0, -1.0]), running_var=np.array([4.0, 0.25]), eps=1e-5,
        )
        x = np.array([[3.0, 0.0], [1.0, -1.0]])
        y, cache = bn_forward_local(x, gamma, beta, st, mode="eval")
        want = np.empty_like(x)
        for n in range(2):
            for c in range(2):
                xh = (x[n, c] - st.running_mean[c]) / np.sqrt(st.running_var[c] + 1e-5)
                want[n, c] = gamma[c] * xh + beta[c]
        assert np.allclose(y, want, atol=1e-12)
        assert cache is None

    def test_eval_does_not_touch_state(self):
        st = BNLayerState.create(2)
        before = (st.running_mean.copy(), st.running_var.copy())
        bn_forward_local(np.random.default_rng(1).normal(size=(8, 2)), *identity(2), st,
                         mode="eval")
        assert np.array_equal(st.running_mean, before[0])
        assert np.array_equal(st.running_var, before[1])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(5, 3), (2, 3, 4, 3)])
    def test_returns_no_cache_and_leaves_buffers_bitwise(self, shape, dtype):
        rng = np.random.default_rng(3)
        st, gamma, beta = random_state(rng, 3)
        st.running_mean[:] = rng.normal(size=3)
        st.running_var[:] = rng.uniform(0.5, 2.0, size=3)
        mean, var = st.running_mean, st.running_var
        before = mean.tobytes() + var.tobytes()
        _, cache = bn_forward_local(rows(rng.normal(size=shape).astype(dtype)), gamma, beta, st,
                                    mode="eval")
        assert cache is None
        assert st.running_mean is mean and st.running_var is var
        assert mean.tobytes() + var.tobytes() == before

    def test_eval_cache_rejected_by_backward(self):
        st = BNLayerState.create(2)
        x = np.random.default_rng(2).normal(size=(4, 2))
        _, cache = bn_forward_local(x, *identity(2), st, mode="eval")
        with pytest.raises(BatchNormError, match="training-mode"):
            bn_backward_local(x, cache, st)


class TestRunningStats:
    def test_blend_matches_hand_formula(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(10, 2))
        st, gamma, beta = random_state(rng, 2, momentum=0.25)
        rm0, rv0 = st.running_mean.copy(), st.running_var.copy()
        _, cache = bn_forward_local(x, gamma, beta, st)
        m = cache.total_count
        want_mean = 0.75 * rm0 + 0.25 * cache.mu
        want_var = 0.75 * rv0 + 0.25 * cache.var * (m / (m - 1.0))
        assert np.allclose(st.running_mean, want_mean, atol=1e-14)
        assert np.allclose(st.running_var, want_var, atol=1e-14)

    def test_momentum_zero_freezes(self):
        st = BNLayerState.create(2, running_momentum=0.0)
        bn_forward_local(np.random.default_rng(8).normal(size=(6, 2)), *identity(2), st)
        assert np.array_equal(st.running_mean, np.zeros(2))
        assert np.array_equal(st.running_var, np.ones(2))

    def test_momentum_one_replaces(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(5, 3))
        st = BNLayerState.create(3, running_momentum=1.0)
        _, cache = bn_forward_local(x, *identity(3), st)
        assert np.allclose(st.running_mean, cache.mu, atol=0)
        assert np.allclose(st.running_var, cache.var * (5 / 4), atol=1e-15)

    def test_update_writes_the_given_arrays(self):
        # a model's buffers are the state's arrays; rebinding them would
        # leave the buffers behind
        rng = np.random.default_rng(10)
        mean, var = rng.normal(size=3), rng.uniform(0.5, 2.0, size=3)
        st = BNLayerState(running_mean=mean, running_var=var, running_momentum=0.3)
        mu, batch_var = rng.normal(size=3), rng.uniform(0.5, 2.0, size=3)
        want_mean = (1.0 - 0.3) * mean + 0.3 * mu
        want_var = (1.0 - 0.3) * var + 0.3 * (batch_var * (6 / 5.0))
        assert batchnorm._update_running(st, mu, batch_var, 6) is None
        assert st.running_mean is mean and st.running_var is var
        assert np.array_equal(mean, want_mean) and np.array_equal(var, want_var)

    @pytest.mark.parametrize("path", ["local", "two_pass", "one_pass"])
    def test_overflowing_variance_stops_every_rank_before_the_running_stats(self, path):
        # rows near 1e200 square past the float64 range: the variance was inf,
        # inv_std 0 and y finite, so the output scan passed and inf reached
        # the running variance
        def fn(h):
            x = 1e200 * np.random.default_rng((41, h.rank)).normal(size=(4, 3))
            st = BNLayerState.create(3)
            with np.errstate(over="ignore", invalid="ignore"), \
                    pytest.raises(NonFiniteError) as e:
                if path == "local":
                    bn_forward_local(x, *identity(3), st)
                else:
                    sync_bn_forward(h, x, *identity(3), st, one_pass=path == "one_pass")
            return str(e.value), st.running_mean, st.running_var

        results = DeviceGroup(1 if path == "local" else 2).run(fn)
        for message, mean, var in results:
            assert message == "bn_forward: non-finite values in tensor data"
            assert np.array_equal(mean, np.zeros(3)) and np.array_equal(var, np.ones(3))


class TestSyncForward:
    def test_equals_local_on_concatenation(self):
        rng = np.random.default_rng(40)
        for world, bn_group in [(2, 2), (4, 4), (4, 2), (3, 3), (6, 3)]:
            c = int(rng.integers(1, 5))
            use4d = rng.random() < 0.5
            shards = []
            for _ in range(world):
                n = int(rng.integers(1, 5))
                shape = (n, c, 2, 3) if use4d else (n, c)
                shards.append(rows(rng.normal(size=shape)))
            gamma = rng.uniform(0.5, 1.5, c)
            beta = rng.normal(size=c)

            out = group_forward(world, bn_group, shards, gamma, beta)
            for gi in range(world // bn_group):
                members = range(gi * bn_group, (gi + 1) * bn_group)
                concat = np.concatenate([shards[r] for r in members], axis=0)
                ref_y, ref_cache = bn_forward_local(concat, gamma, beta, BNLayerState.create(c))
                got_y = np.concatenate([out[r][0] for r in members], axis=0)
                assert np.allclose(got_y, ref_y, rtol=1e-9, atol=1e-12)
                for r in members:
                    assert np.allclose(out[r][1].mu, ref_cache.mu, rtol=1e-12, atol=1e-15)
                    assert np.allclose(out[r][1].var, ref_cache.var, rtol=1e-12, atol=1e-15)
                    assert out[r][1].total_count == ref_cache.total_count

    def test_matches_loop_oracle_directly(self):
        rng = np.random.default_rng(41)
        shards = [image_rows(rng.normal(size=(3, 2, 2, 2))),
                  image_rows(rng.normal(size=(2, 2, 2, 2)))]
        gamma = np.array([1.25, 0.75])
        beta = np.array([-0.5, 0.25])
        out = group_forward(2, 2, shards, gamma, beta)
        concat = np.concatenate(shards, axis=0)
        want_y, want_mu, want_var = loop_bn_forward(concat, gamma, beta, 1e-5)
        got_y = np.concatenate([out[0][0], out[1][0]], axis=0)
        assert np.allclose(got_y, want_y, atol=1e-12)
        assert np.allclose(out[0][1].mu, want_mu, atol=1e-14)
        assert np.allclose(out[0][1].var, want_var, atol=1e-14)

    def test_stats_bitwise_identical_across_ranks(self):
        rng = np.random.default_rng(42)
        shards = [rng.normal(size=(2, 3)) for _ in range(4)]
        out = group_forward(4, 4, shards, *identity(3))
        for r in range(1, 4):
            assert np.array_equal(out[r][1].mu, out[0][1].mu)
            assert np.array_equal(out[r][1].var, out[0][1].var)

    def test_group_of_one_bitwise_equals_local(self):
        rng = np.random.default_rng(43)
        x = image_rows(rng.normal(size=(4, 3, 2, 2)))
        out = group_forward(2, 1, [x, image_rows(rng.normal(size=(4, 3, 2, 2)))], *identity(3))
        y_sync, cache_sync = out[0][0], out[0][1]
        y_local, cache_local = bn_forward_local(x, *identity(3), BNLayerState.create(3))
        assert np.array_equal(y_sync, y_local)  # bitwise
        assert np.array_equal(cache_sync.mu, cache_local.mu)
        assert np.array_equal(cache_sync.var, cache_local.var)

    def test_identical_shards_give_local_stats(self):
        # Every device holding the same shard: group statistics collapse to
        # the single-shard statistics (sums double exactly for group size 2).
        rng = np.random.default_rng(44)
        x = rng.normal(size=(5, 2))
        out = group_forward(2, 2, [x, x.copy()], *identity(2))
        _, cache_local = bn_forward_local(x, *identity(2), BNLayerState.create(2))
        assert np.array_equal(out[0][1].mu, cache_local.mu)
        assert np.array_equal(out[0][1].var, cache_local.var)
        assert np.array_equal(out[0][0], out[1][0])

    def test_one_pass_close_to_two_pass(self):
        rng = np.random.default_rng(45)
        shards = [image_rows(rng.normal(loc=2.0, size=(3, 4, 2, 2))) for _ in range(3)]
        two = group_forward(3, 3, shards, *identity(4), one_pass=False)
        one = group_forward(3, 3, shards, *identity(4), one_pass=True)
        for r in range(3):
            num = np.abs(one[r][0] - two[r][0])
            den = np.maximum(np.abs(two[r][0]), 1e-3)
            assert float(np.max(num / den)) < 1e-9

    def test_running_stats_updated_identically_on_all_ranks(self):
        rng = np.random.default_rng(46)
        shards = [rng.normal(size=(3, 2)) for _ in range(2)]
        out = group_forward(2, 2, shards, *identity(2), momentum=1.0)
        st0, st1 = out[0][2], out[1][2]
        assert np.array_equal(st0.running_mean, st1.running_mean)
        assert np.array_equal(st0.running_var, st1.running_var)
        concat = np.concatenate(shards, axis=0)
        _, ref = bn_forward_local(concat, *identity(2), BNLayerState.create(2))
        assert np.allclose(st0.running_mean, ref.mu, atol=1e-15)
        assert np.allclose(st0.running_var, ref.var * (6 / 5), atol=1e-15)

    def test_lone_device_with_one_row_cannot_normalize(self):
        # a group of two or more ranks counts at least 2 elements, since
        # every shard has at least one row
        g1 = DeviceGroup(1)

        def lone(h):
            with pytest.raises(BatchNormError, match="at least 2"):
                sync_bn_forward(h, np.ones((1, 3)), *identity(3), BNLayerState.create(3))
            return True

        assert g1.run(lone) == [True]

    def test_channel_disagreement_across_ranks_fails(self):
        g = DeviceGroup(2)

        def fn(h):
            c = 3 if h.rank == 0 else 4
            st = BNLayerState.create(c)
            return sync_bn_forward(h, np.ones((2, c)) * h.rank, *identity(c), st)

        with pytest.raises(CollectiveProtocolError):
            g.run(fn)


class TestBackwardLocal:
    def test_affine_grads_match_loop_sums(self):
        rng = np.random.default_rng(50)
        x = image_rows(rng.normal(size=(3, 2, 2, 2)))
        dy = image_rows(rng.normal(size=(3, 2, 2, 2)))
        st, gamma, beta = random_state(rng, 2)
        _, cache = bn_forward_local(x, gamma, beta, st)
        _, dgamma, dbeta = bn_backward_local(dy, cache, st)
        want_dbeta = loop_sequential_sum(channel_rows(dy))
        assert cache.x_hat.shape == (12, 2)  # rows in (n, y, x) order
        want_dgamma = loop_sequential_sum(
            [r * xh for r, xh in zip(channel_rows(dy), cache.x_hat)])
        assert np.allclose(dbeta, want_dbeta, atol=1e-12)
        assert np.allclose(dgamma, want_dgamma, atol=1e-12)

    def test_dx_matches_finite_differences(self):
        rng = np.random.default_rng(51)
        x = rng.normal(size=(4, 3))
        c_obj = rng.normal(size=(4, 3))  # fixed cotangent: loss = <y, c>
        st, gamma, beta = random_state(rng, 3)

        def loss():
            y, _ = bn_forward_local(x, gamma, beta, BNLayerState.create(3, st.eps))
            return float(np.sum(y * c_obj))

        _, cache = bn_forward_local(x, gamma.copy(), beta.copy(), BNLayerState.create(3, st.eps))
        dx, dgamma, dbeta = bn_backward_local(c_obj, cache, st)

        for idx in [(0, 0), (1, 2), (3, 1), (2, 0)]:
            fd = fd_entry(loss, x, idx, h=1e-6)
            assert abs(dx[idx] - fd) < 2e-6 * max(1.0, abs(fd))

        for ci in range(3):
            fd_g = fd_entry(loss, gamma, (ci,), h=1e-6)
            fd_b = fd_entry(loss, beta, (ci,), h=1e-6)
            assert abs(dgamma[ci] - fd_g) < 2e-6 * max(1.0, abs(fd_g))
            assert abs(dbeta[ci] - fd_b) < 2e-6 * max(1.0, abs(fd_b))

    def test_rejects_sync_cache(self):
        st = BNLayerState.create(2)
        cache = BNForwardCache(x_hat=np.ones((2, 2)), gamma=np.ones(2), mu=np.zeros(2),
                               var=np.ones(2), total_count=2, scope_key="bn0")
        with pytest.raises(BatchNormError, match="synchronized"):
            bn_backward_local(np.ones((2, 2)), cache, st)

    def test_rejects_no_cache_with_one_line(self):
        with pytest.raises(BatchNormError) as e:
            bn_backward_local(np.ones((2, 2)), None, BNLayerState.create(2))
        assert str(e.value) == "backward requires a training-mode forward cache"

    def test_shape_mismatch(self):
        st = BNLayerState.create(2)
        x = np.random.default_rng(52).normal(size=(4, 2))
        _, cache = bn_forward_local(x, *identity(2), st)
        with pytest.raises(BatchNormError, match="cotangent"):
            bn_backward_local(np.ones((3, 2)), cache, st)
        # as many elements, another shape
        with pytest.raises(BatchNormError, match="cotangent"):
            bn_backward_local(np.ones((2, 4)), cache, st)

    def test_cache_of_another_layer_state(self):
        # the cotangent fits the cache; the state, with other channels, does not
        x = np.random.default_rng(55).normal(size=(4, 2))
        _, cache = bn_forward_local(x, *identity(2), BNLayerState.create(2))
        with pytest.raises(BatchNormError, match="cache does not match this layer state"):
            bn_backward_local(np.ones((4, 2)), cache, BNLayerState.create(3))


    def test_float32_keeps_dtype(self):
        # the forward keeps float32; the backward used to return float64
        rng = np.random.default_rng(54)
        x, dy = (image_rows(rng.normal(size=(2, 3, 4, 4))) for _ in range(2))
        st, gamma, beta = random_state(rng, 3)
        st64 = BNLayerState.create(3)
        _, cache = bn_forward_local(x.astype(np.float32), gamma, beta, st)
        dx, dgamma, dbeta = bn_backward_local(dy.astype(np.float32), cache, st)
        assert (dx.dtype, dgamma.dtype, dbeta.dtype) == (np.float32,) * 3
        _, cache64 = bn_forward_local(x, gamma, beta, st64)
        dx64, dgamma64, dbeta64 = bn_backward_local(dy, cache64, st64)
        assert np.allclose(dx, dx64, rtol=0, atol=1e-5)
        assert np.allclose(dgamma, dgamma64, rtol=0, atol=1e-4)
        assert np.allclose(dbeta, dbeta64, rtol=0, atol=1e-4)


def transcribed_bn(x, dy, gamma, beta, st):
    """Local batch norm as first written: (M, C) rows against (C,) broadcasts.

    Returns the train forward's (y, mu, var, x_hat), its backward's
    (dx, dgamma, dbeta) and the eval forward's y. The folds are scalar-loop
    sums in row order.
    """
    rows, drows = x, dy
    m = float(rows.shape[0])
    mu = loop_sequential_sum(rows) / m
    diff = rows - mu
    var = loop_sequential_sum(diff * diff) / m
    inv_std = 1.0 / np.sqrt(var + st.eps)
    x_hat = inv_std * rows + (-mu * inv_std)
    y = gamma * x_hat + beta
    dbeta = loop_sequential_sum(drows)
    dgamma = loop_sequential_sum(drows * x_hat)
    inv_std = gamma / np.sqrt(var + st.eps)
    dx = inv_std * (drows - dbeta / m - x_hat * dgamma / m)
    inv_std = 1.0 / np.sqrt(st.running_var + st.eps)
    x_hat_eval = inv_std * rows + (-st.running_mean * inv_std)
    y_eval = gamma * x_hat_eval + beta
    return (y, mu, var, x_hat), (dx, dgamma, dbeta), y_eval


class TestBytesAtEveryRowCount:
    """BN's outputs are bitwise the broadcast formulas at row counts that
    are not powers of two, where the per-channel ops run on the fewest
    rows per block."""

    @pytest.mark.parametrize("shape", [(24, 3), (96, 6), (100, 3), (100, 6), (24, 6),
                                       (75, 3), (75, 6)])
    def test_train_and_eval_match_the_transcription(self, shape):
        rng = np.random.default_rng(sum(shape))
        x, dy = rng.normal(loc=0.7, size=shape), rng.normal(size=shape)
        st, gamma, beta = random_state(rng, shape[1])
        st.running_mean = rng.normal(size=shape[1])
        st.running_var = rng.uniform(0.2, 3.0, size=shape[1])
        (y_w, mu_w, var_w, x_hat_w), (dx_w, dgamma_w, dbeta_w), y_eval_w = (
            transcribed_bn(x, dy, gamma, beta, st))

        y_eval, _ = bn_forward_local(x, gamma, beta, st, mode="eval")
        assert np.array_equal(y_eval, y_eval_w)
        y, cache = bn_forward_local(x, gamma, beta, st)
        dx, dgamma, dbeta = bn_backward_local(dy, cache, st)
        for got, want in [(y, y_w), (cache.mu, mu_w), (cache.var, var_w),
                          (cache.x_hat, x_hat_w), (dx, dx_w),
                          (dgamma, dgamma_w), (dbeta, dbeta_w)]:
            assert np.array_equal(got, want)


class TestArraysAtTheEdge:
    """Inputs in any memory order; outputs are C-ordered ndarrays, bitwise the
    results of C-ordered copies of the inputs."""

    @pytest.mark.parametrize("path", ["local", "two_pass", "one_pass"])
    def test_fortran_order_gives_the_c_order_bits(self, path):
        shape = (37, 3)
        rng = np.random.default_rng(sum(shape))
        x, dy = (rng.normal(loc=0.4, size=shape[::-1]).T for _ in range(2))
        assert x.flags.f_contiguous and not x.flags.c_contiguous
        gamma, beta = rng.uniform(0.5, 1.5, shape[1]), rng.normal(size=shape[1])

        def run(x, dy):
            def fn(h):
                st = BNLayerState.create(shape[1])
                if path == "local":
                    y, cache = bn_forward_local(x, gamma, beta, st)
                    return (y, *bn_backward_local(dy, cache, st))
                y, cache = sync_bn_forward(h, x, gamma, beta, st, one_pass=path == "one_pass")
                return (y, *sync_bn_backward(h, dy, cache, st))

            return DeviceGroup(1).run(fn)[0]

        got = run(x, dy)
        want = run(np.ascontiguousarray(x), np.ascontiguousarray(dy))
        for a in got[:2]:
            assert type(a) is np.ndarray and a.shape == shape and a.flags.c_contiguous
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()


class TestBackwardSync:
    def test_matches_concatenated_local_backward(self):
        rng = np.random.default_rng(60)
        shards = [rng.normal(size=(2, 3)), rng.normal(size=(4, 3))]
        dys = [rng.normal(size=(2, 3)), rng.normal(size=(4, 3))]
        gamma = rng.uniform(0.5, 1.5, 3)
        beta = rng.normal(size=3)
        g = DeviceGroup(2)

        def fn(h):
            st = BNLayerState.create(3)
            _, cache = sync_bn_forward(h, shards[h.rank], gamma, beta, st)
            return sync_bn_backward(h, dys[h.rank], cache, st)

        out = g.run(fn)
        st_ref = BNLayerState.create(3)
        _, cache_ref = bn_forward_local(np.concatenate(shards), gamma, beta, st_ref)
        dx_ref, dgamma_ref, dbeta_ref = bn_backward_local(
            np.concatenate(dys), cache_ref, st_ref)
        got_dx = np.concatenate([out[0][0], out[1][0]])
        assert np.allclose(got_dx, dx_ref, rtol=1e-9, atol=1e-12)
        for r in range(2):
            assert np.allclose(out[r][1], dgamma_ref, rtol=1e-12, atol=1e-14)
            assert np.allclose(out[r][2], dbeta_ref, rtol=1e-12, atol=1e-14)

    def test_affine_grads_identical_across_ranks(self):
        rng = np.random.default_rng(61)
        shards = [rng.normal(size=(3, 2)) for _ in range(4)]
        dys = [rng.normal(size=(3, 2)) for _ in range(4)]
        g = DeviceGroup(4, bn_group_size=2)

        def fn(h):
            st = BNLayerState.create(2)
            _, cache = sync_bn_forward(h, shards[h.rank], *identity(2), st)
            return sync_bn_backward(h, dys[h.rank], cache, st)

        out = g.run(fn)
        assert np.array_equal(out[0][1], out[1][1])  # group 0 agrees
        assert np.array_equal(out[2][1], out[3][1])  # group 1 agrees
        assert not np.array_equal(out[0][1], out[2][1])  # groups differ

    def test_rejects_foreign_scope_cache(self):
        g = DeviceGroup(1)

        def fn(h):
            cache = BNForwardCache(x_hat=np.ones((2, 2)), gamma=np.ones(2), mu=np.zeros(2),
                                   var=np.ones(2), total_count=2, scope_key="bn7")
            with pytest.raises(BatchNormError, match="bn7"):
                sync_bn_backward(h, np.ones((2, 2)), cache,
                                 BNLayerState.create(2))
            return True

        assert g.run(fn) == [True]

    def test_rejects_no_cache_with_one_line(self):
        # every rank refuses before it enters a collective
        def fn(h):
            with pytest.raises(BatchNormError) as e:
                sync_bn_backward(h, np.ones((2, 2)), None, BNLayerState.create(2))
            return str(e.value)

        assert DeviceGroup(2).run(fn) == ["backward requires a training-mode forward cache"] * 2

    def test_rejects_local_cache(self):
        g = DeviceGroup(1)

        def fn(h):
            st = BNLayerState.create(2)
            x = np.random.default_rng(62).normal(size=(4, 2))
            _, cache = bn_forward_local(x, *identity(2), st)
            with pytest.raises(BatchNormError):
                sync_bn_backward(h, x, cache, st)
            return True

        assert g.run(fn) == [True]


def on_path(path, fn):
    """Rank 0's `fn(rank, forward, backward)` for one BN path: local on one
    rank, or synchronized two-pass or one-pass over a group of two."""
    if path == "local":
        return fn(0, bn_forward_local, bn_backward_local)

    def worker(h):
        return fn(h.rank, lambda x, gamma, beta, st: sync_bn_forward(
                      h, x, gamma, beta, st, one_pass=path == "one_pass"),
                  lambda dy, cache, st: sync_bn_backward(h, dy, cache, st))

    return DeviceGroup(2).run(worker)[0]


def operand_arrays(st):
    return {name: a for name, a in vars(st.operands).items() if isinstance(a, np.ndarray)}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("path", ["local", "two_pass", "one_pass"])
class TestOperandsOnTheState:
    """Every BN call refills the operand arrays its state keeps."""

    def test_refilled_at_one_row_count_and_dtype(self, path, dtype):
        def fn(rank, forward, backward):
            rng = np.random.default_rng((70, rank))
            st, gamma, beta = random_state(rng, 3)
            x = image_rows(rng.normal(size=(4, 3, 2, 2)).astype(dtype))
            _, cache = forward(x, gamma, beta, st)
            held = operand_arrays(st)
            for _ in range(2):
                backward(x, cache, st)
                _, cache = forward(x * 2, gamma, beta, st)
            now = operand_arrays(st)
            assert len(held) == 6 and now.keys() == held.keys()
            assert all(now[name] is held[name] for name in held)

        on_path(path, fn)

    def test_a_new_row_count_or_dtype_reallocates(self, path, dtype):
        other = np.float64 if dtype == np.float32 else np.float32

        def fn(rank, forward, backward):
            rng = np.random.default_rng((71, rank))
            st, gamma, beta = random_state(rng, 3)
            x = image_rows(rng.normal(size=(4, 3, 2, 2)))
            forward(x.astype(dtype), gamma, beta, st)
            for x2 in (x[:3].astype(dtype), x[:3].astype(other)):
                held = operand_arrays(st)
                forward(x2, gamma, beta, st)
                now = operand_arrays(st)
                assert all(now[name] is not held[name] for name in held)

        on_path(path, fn)

    @pytest.mark.parametrize("second", [(4, 3, 2, 2), (5, 3, 2, 2)], ids=["same", "more"])
    def test_interleaved_calls_are_bitwise_fresh_states(self, path, dtype, second):
        # forward x1, forward x2, then backward on the first cache and on the
        # second: each result is what a fresh state gives for its own call pair
        def fn(rank, forward, backward):
            rng = np.random.default_rng((72, rank))
            st, gamma, beta = random_state(rng, 3)
            xs = [image_rows(rng.normal(loc=0.5, size=shape).astype(dtype))
                  for shape in ((4, 3, 2, 2), second)]
            dys = [rng.normal(size=x.shape).astype(dtype) for x in xs]
            outs = [forward(x, gamma, beta, st) for x in xs]
            grads = [backward(dy, cache, st) for dy, (_, cache) in zip(dys, outs)]
            for x, dy, (y, cache), got in zip(xs, dys, outs, grads):
                fresh = BNLayerState.create(3)
                want_y, want_cache = forward(x, gamma, beta, fresh)
                assert cache.total_count == x.size // 3 * (1 if path == "local" else 2)
                assert cache.total_count == want_cache.total_count
                for a, b in [(y, want_y), (cache.x_hat, want_cache.x_hat),
                             (cache.mu, want_cache.mu), (cache.var, want_cache.var),
                             *zip(got, backward(dy, want_cache, fresh))]:
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

        on_path(path, fn)
