import numpy as np
import pytest

from bigbatch.tensor import (
    NonFiniteError,
    Tensor,
    TensorError,
    channel_blocks,
    repeats,
    sequential_sum_rows,
)

from helpers import loop_sequential_sum


class TestTensorConstruction:
    def test_defaults_to_f64(self):
        t = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert t.array.dtype == np.float64
        assert t.shape == (2, 2)

    def test_int_input_promoted_to_f64(self):
        t = Tensor(np.arange(6).reshape(2, 3))
        assert t.array.dtype == np.float64

    def test_f32_kept(self):
        t = Tensor(np.ones((2, 2), dtype=np.float32))
        assert t.array.dtype == np.float32

    def test_rejects_scalar(self):
        with pytest.raises(TensorError):
            Tensor(3.0)

    def test_rejects_empty_extent(self):
        with pytest.raises(TensorError):
            Tensor(np.zeros((0, 3)))

    def test_rejects_nan_and_inf(self):
        with pytest.raises(NonFiniteError):
            Tensor([1.0, np.nan])
        with pytest.raises(NonFiniteError):
            Tensor([np.inf, 0.0])

    def test_buffer_is_read_only(self):
        t = Tensor([[1.0, 2.0]])
        assert not t.array.flags.writeable
        with pytest.raises(ValueError):
            t.array[0, 0] = 5.0

    def test_detached_from_source(self):
        src = np.ones(3)
        t = Tensor(src)
        src[0] = 99.0
        assert t.array[0] == 1.0


class TestSequentialSum:
    def test_matches_left_to_right_loop(self):
        rng = np.random.default_rng(3)
        rows = rng.normal(size=(37, 5))
        got = sequential_sum_rows(rows)
        want = loop_sequential_sum(rows)
        assert np.array_equal(got, want)  # bitwise

    def test_single_column_matches_loop(self):
        # One-column input is the shape where a pairwise reduction would
        # be easiest to slip in unnoticed, so it is pinned separately.
        rng = np.random.default_rng(4)
        rows = rng.normal(size=(101, 1))
        assert np.array_equal(sequential_sum_rows(rows), loop_sequential_sum(rows))

    def test_order_sensitivity_detected(self):
        # These three values do not sum associatively; the oracle fixes
        # the only acceptable answer.
        rows = np.array([[1e16], [1.0], [-1e16]])
        got = sequential_sum_rows(rows)
        assert got[0] == 0.0  # (1e16 + 1) rounds back to 1e16
        assert got[0] != np.float64(1.0)

    def test_f32_accumulation_stays_f32(self):
        rng = np.random.default_rng(5)
        rows = rng.normal(size=(23, 4)).astype(np.float32)
        got = sequential_sum_rows(rows)
        assert got.dtype == np.float32
        assert np.array_equal(got, loop_sequential_sum(rows))

    def test_single_row_is_copy(self):
        rows = np.array([[1.0, 2.0]])
        got = sequential_sum_rows(rows)
        got[0] = 42.0
        assert rows[0, 0] == 1.0

    def test_fortran_order_input(self):
        rows = np.asfortranarray(np.random.default_rng(6).normal(size=(11, 3)))
        assert np.array_equal(sequential_sum_rows(rows), loop_sequential_sum(rows))


class TestFoldAtEveryLayout:
    """`sequential_sum_rows` takes einsum for C-ordered rows with two or more
    columns and cumsum otherwise; each path must keep the row-by-row order."""

    @staticmethod
    def spiked(m, c, big, dtype=np.float64):
        # each column: big, then m - 2 ones, then -big. Left to right, every
        # one is absorbed into big and the total is 0; any pairwise or SIMD
        # partial sum of the ones survives.
        rows = np.ones((m, c), dtype=dtype)
        rows[0], rows[-1] = big, -big
        return rows

    def test_multi_column_order_sensitivity(self):
        rows = np.array([[1e16] * 4, [1.0] * 4, [-1e16] * 4])
        assert np.array_equal(sequential_sum_rows(rows), np.zeros(4))
        assert np.array_equal(sequential_sum_rows(rows), loop_sequential_sum(rows))

    @pytest.mark.parametrize("shape", [(1002, 1), (1002, 2), (1002, 6), (1002, 33)])
    def test_long_columns_are_not_split(self, shape):
        rows = self.spiked(*shape, 1e16)
        assert np.array_equal(sequential_sum_rows(rows), np.zeros(shape[1]))

    @pytest.mark.parametrize("shape", [(512, 6), (16384, 6)])  # bench BN, eval-sized
    def test_bench_shapes_match_loop(self, shape):
        rows = np.random.default_rng(7).normal(size=shape)
        assert np.array_equal(sequential_sum_rows(rows), loop_sequential_sum(rows))

    def test_f32_multi_column(self):
        rows = np.random.default_rng(8).normal(size=(512, 6)).astype(np.float32)
        got = sequential_sum_rows(rows)
        assert got.dtype == np.float32
        assert np.array_equal(got, loop_sequential_sum(rows))
        spiked = self.spiked(1002, 3, 1e8, np.float32)  # 1e8 + 1 rounds to 1e8 in f32
        assert np.array_equal(sequential_sum_rows(spiked), np.zeros(3, np.float32))

    @pytest.mark.parametrize("view", ["columns", "strided rows", "fortran"])
    def test_non_contiguous_input_matches_loop(self, view):
        base = np.random.default_rng(9).normal(size=(600, 6))
        rows = {"columns": base[:, 1:4], "strided rows": base[::3],
                "fortran": np.asfortranarray(base)}[view]
        assert not rows.flags.c_contiguous
        assert np.array_equal(sequential_sum_rows(rows), loop_sequential_sum(rows))
        spiked = self.spiked(1002, 6, 1e16)[:, 1:4]
        assert np.array_equal(sequential_sum_rows(spiked), np.zeros(3))



class TestChannelBlocks:
    OPS = [np.add, np.subtract, np.multiply, np.divide]

    @pytest.mark.parametrize("m", [1, 3, 96, 512, 4096])
    @pytest.mark.parametrize("c", [1, 3, 6])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bitwise_the_broadcast(self, m, c, dtype):
        rng = np.random.default_rng(m * c)
        rows = rng.normal(size=(m, c)).astype(dtype)
        vecs = [rng.normal(size=c), rng.uniform(0.5, 2.0, size=c)]
        blocks, reps = channel_blocks(rows, *vecs)
        k = min(m & -m, 64)
        assert blocks.shape == (m // k, k * c) and reps.shape == (2, k * c)
        assert reps.dtype == dtype and np.shares_memory(blocks, rows)
        for v, rep in zip(vecs, reps):
            for op in self.OPS:
                got = op(blocks, rep).reshape(rows.shape)
                want = op(rows, np.asarray(v, dtype=dtype))
                assert got.dtype == dtype
                assert np.array_equal(got, want)
                assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("m", [24, 100])
    def test_dtype_argument(self, m):
        # float32 rows against float64 vectors: the broadcast promotes
        rows = np.random.default_rng(m).normal(size=(m, 3)).astype(np.float32)
        mu = np.array([0.1, -0.3, 2.0 / 3.0])
        blocks, (mu_k,) = channel_blocks(rows, mu, out=repeats(rows, 1, mu.dtype))
        got = (blocks - mu_k).reshape(rows.shape)
        assert got.dtype == np.float64
        assert np.array_equal(got, rows - mu)

    def test_refilled_operand_equals_a_fresh_one(self):
        rng = np.random.default_rng(5)
        rows = rng.normal(size=(96, 3))
        out = repeats(rows, 2)
        for _ in range(2):
            vecs = rng.normal(size=(2, 3))
            _, reps = channel_blocks(rows, *vecs, out=out)
            assert reps is out and np.array_equal(reps, channel_blocks(rows, *vecs)[1])

    def test_rows_that_are_not_c_ordered(self):
        rows = np.asfortranarray(np.random.default_rng(4).normal(size=(64, 3)))
        blocks, (v,) = channel_blocks(rows, np.arange(3.0))
        assert np.array_equal((blocks * v).reshape(rows.shape), rows * np.arange(3.0))
