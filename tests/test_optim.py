import numpy as np
import pytest

from bigbatch.optim import (
    BASE_BATCH,
    BASE_LR,
    DivergenceError,
    LRPolicy,
    ScheduleError,
    SGDState,
    default_warmup_iters,
    l2_penalty,
    lr_at,
    make_policy,
    scaled_target_lr,
    sgd_step,
    weight_keys,
)

from helpers import loop_sgd_step


class TestPolicyValidation:
    def test_positive_fields(self):
        with pytest.raises(ScheduleError):
            LRPolicy(base_lr=0.0, actual_batch=16)
        with pytest.raises(ScheduleError):
            LRPolicy(base_lr=0.02, actual_batch=0)
        with pytest.raises(ScheduleError):
            LRPolicy(base_lr=0.02, actual_batch=16, base_batch=-1)
        with pytest.raises(ScheduleError):
            LRPolicy(base_lr=0.02, actual_batch=16, warmup_iters=-5)
        with pytest.raises(ScheduleError):
            LRPolicy(base_lr=0.02, actual_batch=16, end_epoch=0)

    def test_milestones_strictly_increasing(self):
        with pytest.raises(ScheduleError, match="increasing"):
            LRPolicy(base_lr=0.02, actual_batch=16, milestones=((8, 0.1), (8, 0.1)))
        with pytest.raises(ScheduleError, match="increasing"):
            LRPolicy(base_lr=0.02, actual_batch=16, milestones=((10, 0.1), (8, 0.1)))

    def test_multiplier_range(self):
        with pytest.raises(ScheduleError, match="multiplier"):
            LRPolicy(base_lr=0.02, actual_batch=16, milestones=((8, 0.0),))
        with pytest.raises(ScheduleError, match="multiplier"):
            LRPolicy(base_lr=0.02, actual_batch=16, milestones=((8, 1.5),))

    def test_make_policy_names(self):
        n = make_policy("normal", actual_batch=256)
        assert n.milestones == ((8, 0.1), (10, 0.1))
        assert n.end_epoch == 11
        lg = make_policy("long", actual_batch=256)
        assert lg.milestones == ((11, 0.1), (14, 0.1), (17, 0.5))
        assert lg.end_epoch == 18
        with pytest.raises(ScheduleError, match="policy must be one of 'normal', 'long', got 'cosine'"):
            make_policy("cosine", actual_batch=16)

    def test_default_warmup(self):
        assert default_warmup_iters(100) == 100
        assert default_warmup_iters(500) == 500
        assert default_warmup_iters(5000) == 500


class TestScaledTarget:
    def test_reference_batch_is_identity(self):
        p = LRPolicy(base_lr=BASE_LR, actual_batch=BASE_BATCH)
        assert scaled_target_lr(p) == 0.02

    def test_linear_in_batch(self):
        p = LRPolicy(base_lr=0.02, actual_batch=256)
        assert scaled_target_lr(p) == 0.32
        p = LRPolicy(base_lr=0.02, actual_batch=8)
        assert scaled_target_lr(p) == 0.01

    def test_half_rate_variant(self):
        p = LRPolicy(base_lr=0.02, actual_batch=64, half_lr=True)
        assert scaled_target_lr(p) == 0.04


class TestLRAt:
    def test_flat_when_unscaled_and_no_warmup(self):
        p = make_policy("normal", actual_batch=16)
        for epoch in range(8):
            for it in (0, 3, 9):
                assert lr_at(p, epoch, it, 10) == 0.02

    def test_warmup_endpoints_exact(self):
        p = LRPolicy(base_lr=0.02, actual_batch=128, warmup_iters=40)
        assert lr_at(p, 0, 0, 100) == 0.02          # starts at the base rate
        assert lr_at(p, 0, 40, 100) == 0.16         # lands exactly on the target
        assert lr_at(p, 0, 41, 100) == 0.16

    def test_warmup_is_linear(self):
        p = LRPolicy(base_lr=0.02, actual_batch=128, warmup_iters=40)
        r, target = 0.02, 0.16
        for t in range(40):
            want = r + (target - r) * (t / 40)
            assert lr_at(p, 0, t, 100) == want

    def test_warmup_spans_epochs(self):
        # 25 iterations per epoch, 40 warmup iterations: the ramp continues
        # into epoch 1 based on the global iteration index.
        p = LRPolicy(base_lr=0.02, actual_batch=128, warmup_iters=40)
        a = lr_at(p, 0, 24, 25)
        b = lr_at(p, 1, 0, 25)
        assert b > a
        assert b == 0.02 + (0.16 - 0.02) * (25 / 40)

    def test_decay_breakpoints_are_exact_products(self):
        p = make_policy("normal", actual_batch=256)
        assert lr_at(p, 7, 9, 10) == 0.32
        assert lr_at(p, 8, 0, 10) == 0.32 * 0.1
        assert lr_at(p, 9, 9, 10) == 0.32 * 0.1
        assert lr_at(p, 10, 0, 10) == (0.32 * 0.1) * 0.1

    def test_long_policy_breakpoints(self):
        p = make_policy("long", actual_batch=64)
        target = 0.08
        assert lr_at(p, 10, 0, 10) == target
        assert lr_at(p, 11, 0, 10) == target * 0.1
        assert lr_at(p, 14, 5, 10) == (target * 0.1) * 0.1
        assert lr_at(p, 17, 0, 10) == ((target * 0.1) * 0.1) * 0.5

    def test_nonincreasing_after_warmup(self):
        p = make_policy("normal", actual_batch=256, warmup_iters=30)
        ipe = 20
        prev = None
        for epoch in range(11):
            for it in range(ipe):
                if epoch * ipe + it < 30:
                    continue
                lr = lr_at(p, epoch, it, ipe)
                if prev is not None:
                    assert lr <= prev
                prev = lr

    def test_rate_is_affine_in_batch_ratio(self):
        # During the ramp, lr is affine in the scaled target, which is
        # linear in the batch ratio; midpoints must agree.
        mk = lambda k: LRPolicy(base_lr=0.02, actual_batch=16 * k, warmup_iters=50)
        for t in (0, 10, 25, 49, 50, 80):
            a = lr_at(mk(1), 0, t, 100)
            b = lr_at(mk(2), 0, t, 100)
            c = lr_at(mk(3), 0, t, 100)
            assert abs((a + c) - 2 * b) < 1e-15

    def test_invalid_args(self):
        p = make_policy("normal", actual_batch=16)
        with pytest.raises(ScheduleError):
            lr_at(p, 0, 0, 0)
        with pytest.raises(ScheduleError):
            lr_at(p, -1, 5, 10)


class TestSGDStep:
    def test_plain_step(self):
        params = {"w": np.array([1.0, -2.0])}
        grads = {"w": np.array([0.5, 0.25])}
        st = SGDState.create(params, momentum=0.0, weight_decay=0.0)
        sgd_step(params, grads, st, lr=0.1)
        assert np.allclose(params["w"], [1.0 - 0.05, -2.0 - 0.025], atol=0)

    def test_two_momentum_steps_hand_unrolled(self):
        # Constant gradient g, momentum 0.9: velocities are g then 1.9 g, so
        # after two steps w = w0 - lr * (1 + 1.9) * g.
        w0 = np.array([2.0, -1.0])
        g = np.array([0.4, 0.8])
        params = {"w": w0.copy()}
        st = SGDState.create(params, momentum=0.9, weight_decay=0.0)
        sgd_step(params, {"w": g.copy()}, st, lr=0.1)
        sgd_step(params, {"w": g.copy()}, st, lr=0.1)
        assert np.allclose(params["w"], w0 - 0.1 * 2.9 * g, atol=1e-15)
        assert np.allclose(st.velocity["w"], 1.9 * g, atol=1e-15)

    def test_weight_decay_only_on_decay_keys(self):
        params = {"layer.w": np.array([2.0]), "layer.b": np.array([2.0])}
        grads = {"layer.w": np.array([0.0]), "layer.b": np.array([0.0])}
        st = SGDState.create(params, momentum=0.0, weight_decay=0.1)
        assert weight_keys(params) == ["layer.w"]
        sgd_step(params, grads, st, lr=1.0)
        assert params["layer.w"][0] == 2.0 - 0.1 * 2.0
        assert params["layer.b"][0] == 2.0

    def test_zero_lr_moves_velocity_not_params(self):
        params = {"w": np.array([1.0])}
        st = SGDState.create(params, momentum=0.9, weight_decay=0.0)
        sgd_step(params, {"w": np.array([3.0])}, st, lr=0.0)
        assert params["w"][0] == 1.0
        assert st.velocity["w"][0] == 3.0

    def test_key_mismatch(self):
        params = {"w": np.ones(2)}
        st = SGDState.create(params, 0.0, 0.0)
        with pytest.raises(ValueError, match="keys"):
            sgd_step(params, {"v": np.ones(2)}, st, lr=0.1)

    def test_shape_mismatch(self):
        params = {"w": np.ones(2)}
        st = SGDState.create(params, 0.0, 0.0)
        with pytest.raises(ValueError, match="shape"):
            sgd_step(params, {"w": np.ones(3)}, st, lr=0.1)

    def test_non_finite_gradient_diverges(self):
        params = {"w": np.ones(2)}
        st = SGDState.create(params, 0.0, 0.0)
        with pytest.raises(DivergenceError):
            sgd_step(params, {"w": np.array([1.0, np.nan])}, st, lr=0.1)

    def test_non_finite_lr_diverges(self):
        params = {"w": np.ones(1)}
        st = SGDState.create(params, 0.0, 0.0)
        with pytest.raises(DivergenceError):
            sgd_step(params, {"w": np.ones(1)}, st, lr=np.inf)

    def test_overflowing_update_diverges(self):
        params = {"w": np.array([1e308])}
        st = SGDState.create(params, 0.0, 0.0)
        with np.errstate(over="ignore"):
            with pytest.raises(DivergenceError):
                sgd_step(params, {"w": np.array([-1e308])}, st, lr=1e10)

    def test_divergence_is_a_floating_point_error(self):
        assert issubclass(DivergenceError, FloatingPointError)


class TestL2Penalty:
    """The penalty whose gradient is sgd_step's decay term, over the same keys."""

    def test_sums_squares_of_weight_keys_only(self):
        p = {"b.w": np.array([[1.0, -2.0]]), "a.w": np.array([3.0]),
             "a.b": np.array([5.0]), "bn.gamma": np.array([7.0])}
        assert weight_keys(p) == ["a.w", "b.w"]
        assert l2_penalty(p, 0.1) == 0.5 * 0.1 * (9.0 + 5.0)

    def test_zero_decay_skips_the_squares(self):
        p = {"w.w": np.array([np.inf])}
        assert l2_penalty(p, 0.0) == 0.0
        assert np.copysign(1.0, l2_penalty(p, 0.0)) == 1.0


class TestFlatLayout:
    """The state keeps every parameter and velocity in one flat buffer."""

    # sorted order interleaves decay (.w) and non-decay keys
    SHAPES = {"a.b": (3,), "a.w": (3, 2, 3, 3), "b.gamma": (2,), "c.beta": (4,),
              "c.w": (4, 5), "d.b": (1,)}

    def setup(self, seed=0):
        rng = np.random.default_rng(seed)
        params = {k: rng.normal(size=s) for k, s in reversed(self.SHAPES.items())}
        return params, rng

    @pytest.mark.parametrize("flat", [False, True])
    def test_matches_the_per_key_loop_bitwise(self, flat):
        params, rng = self.setup(1)
        ref_p = {k: v.copy() for k, v in params.items()}
        ref_v = {k: np.zeros_like(v) for k, v in params.items()}
        st = SGDState.create(params, momentum=0.9, weight_decay=1e-2)
        assert list(st.spans) == sorted(self.SHAPES)
        for lr in (0.1, 0.05, 0.0, 0.3):
            grads = {k: rng.normal(size=s) for k, s in self.SHAPES.items()}
            ref_p, ref_v = loop_sgd_step(ref_p, grads, ref_v, 0.9, 1e-2,
                                         weight_keys(params), lr)
            arg = np.concatenate([grads[k].ravel() for k in st.spans]) if flat else grads
            sgd_step(params, arg, st, lr)
            for k in self.SHAPES:
                assert np.array_equal(params[k], ref_p[k]), (lr, k)
                assert np.array_equal(st.velocity[k], ref_v[k]), (lr, k)

    def test_no_decay_without_momentum_matches_too(self):
        params, rng = self.setup(2)
        ref_p = {k: v.copy() for k, v in params.items()}
        ref_v = {k: np.zeros_like(v) for k, v in params.items()}
        st = SGDState.create(params, momentum=0.0, weight_decay=0.0)
        for lr in (0.2, 0.0):
            grads = {k: rng.normal(size=s) for k, s in self.SHAPES.items()}
            ref_p, ref_v = loop_sgd_step(ref_p, grads, ref_v, 0.0, 0.0, weight_keys(params), lr)
            sgd_step(params, grads, st, lr)
            for k in self.SHAPES:
                assert np.array_equal(params[k], ref_p[k])
                assert np.array_equal(st.velocity[k], ref_v[k])

    def test_params_and_velocity_are_views_that_see_each_step(self):
        params, rng = self.setup(3)
        st = SGDState.create(params, momentum=0.9, weight_decay=1e-3)
        bound = dict(params)
        velocity = dict(st.velocity)
        for k, v in params.items():
            assert v.shape == self.SHAPES[k] and v.flags.c_contiguous
            assert np.shares_memory(v, st.flat_params)
            assert np.shares_memory(st.velocity[k], st.flat_velocity)
        for _ in range(2):
            before = {k: v.copy() for k, v in params.items()}
            grads = {k: rng.normal(size=s) for k, s in self.SHAPES.items()}
            sgd_step(params, grads, st, 0.1)
            for k in self.SHAPES:
                assert params[k] is bound[k] and st.velocity[k] is velocity[k]
                assert not np.array_equal(params[k], before[k])
                assert np.array_equal(params[k].ravel(), st.flat_params[st.spans[k]])
                assert np.array_equal(st.velocity[k].ravel(),
                                      st.flat_velocity[st.spans[k]])

    def test_first_bad_key_in_sorted_order_is_named(self):
        params, _ = self.setup(4)
        st = SGDState.create(params, momentum=0.9, weight_decay=1e-3)
        before = st.flat_params.copy()
        grads = {k: np.zeros(s) for k, s in self.SHAPES.items()}
        grads["c.w"][2, 1] = np.nan
        grads["b.gamma"][1] = np.inf
        with pytest.raises(DivergenceError, match="parameter 'b.gamma'"):
            sgd_step(params, grads, st, 0.1)
        # nothing is written before the scan
        assert np.array_equal(st.flat_params, before)
        assert not st.flat_velocity.any()

    def test_overflow_in_the_new_weights_names_its_key(self):
        params = {"a": np.ones(2), "b": np.array([1.0, 1e308])}
        st = SGDState.create(params, 0.0, 0.0)
        with np.errstate(over="ignore"), pytest.raises(DivergenceError, match="'b'"):
            sgd_step(params, {"a": np.ones(2), "b": np.array([0.0, -1e308])}, st, 1e10)

    def test_rebound_param_is_rejected(self):
        params = {"w": np.ones(2)}
        st = SGDState.create(params, 0.0, 0.0)
        params["w"] = np.ones(2)
        with pytest.raises(ValueError, match="created from"):
            sgd_step(params, {"w": np.ones(2)}, st, lr=0.1)

    def test_flat_grad_length_is_checked(self):
        params = {"a": np.ones(2), "b": np.ones(3)}
        st = SGDState.create(params, 0.0, 0.0)
        with pytest.raises(ValueError, match="layout shape"):
            sgd_step(params, np.ones(4), st, lr=0.1)


class TestAccumulateEquivalence:
    """k plain-SGD steps of rate r against one step of rate k*r, with frozen
    gradients: the identity behind linear scaling."""

    def test_momentum_breaks_the_identity(self):
        # The fused/stepwise identity is specific to plain SGD. With
        # momentum 0.9 and a constant gradient, k=2 stepwise applies
        # (1 + 1.9) * lr * g while the fused step applies 2 * lr * g.
        g = np.array([1.0])

        pa = {"w": np.array([0.0])}
        st = SGDState.create(pa, momentum=0.9, weight_decay=0.0)
        sgd_step(pa, {"w": g.copy()}, st, lr=0.1)
        sgd_step(pa, {"w": g.copy()}, st, lr=0.1)

        pb = {"w": np.array([0.0])}
        st2 = SGDState.create(pb, momentum=0.9, weight_decay=0.0)
        sgd_step(pb, {"w": g.copy()}, st2, lr=0.2)  # fused: one step at k*r

        gap = abs(pa["w"][0] - pb["w"][0])
        assert abs(pa["w"][0] - (-0.29)) < 1e-15
        assert abs(pb["w"][0] - (-0.20)) < 1e-15
        assert gap > 0.05
