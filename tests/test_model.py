import numpy as np
import pytest

from bigbatch.batchnorm import BNLayerState, bn_backward_local, bn_forward_local
from bigbatch.collectives import DeviceGroup
from bigbatch.model import (
    LayerSpec,
    ModelError,
    ModelSpec,
    _col2im,
    _im2col,
    accuracy,
    backward,
    forward,
    init_buffers,
    init_params,
    plan,
)
from bigbatch.optim import SGDState, l2_penalty, sgd_step, weight_keys
from bigbatch.tensor import NonFiniteError, Tensor, image_rows

from helpers import (
    fd_entry,
    loop_conv3x3,
    loop_dense,
    loop_global_mean_pool,
    loop_softmax_xent,
    nchw_col2im,
    nchw_im2col,
    rel_err,
)


def tiny_model():
    return ModelSpec(
        layers=[
            LayerSpec("conv3x3", out_channels=2),
            LayerSpec("bn"),
            LayerSpec("relu"),
            LayerSpec("global_mean_pool"),
            LayerSpec("dense", out_features=3),
            LayerSpec("softmax_xent"),
        ],
        in_shape=(1, 4, 4),
    )


class TestSpecValidation:
    def test_names_are_positional(self):
        m = tiny_model()
        assert m.layers[0].name == "00_conv3x3"
        assert m.layers[4].name == "04_dense"

    def test_classes_property(self):
        assert tiny_model().classes == 3

    def test_loss_head_must_be_last(self):
        with pytest.raises(ModelError, match="softmax_xent"):
            ModelSpec([LayerSpec("dense", out_features=2)], in_shape=(4,))
        with pytest.raises(ModelError, match="softmax_xent"):
            ModelSpec([LayerSpec("softmax_xent"), LayerSpec("dense", out_features=2)],
                      in_shape=(4,))

    def test_single_loss_head(self):
        with pytest.raises(ModelError):
            ModelSpec([LayerSpec("softmax_xent"), LayerSpec("softmax_xent")],
                      in_shape=(4,))

    def test_conv_needs_spatial_input(self):
        with pytest.raises(ModelError, match="conv3x3"):
            ModelSpec([LayerSpec("conv3x3", out_channels=2), LayerSpec("softmax_xent")],
                      in_shape=(4,))

    def test_dense_needs_flat_input(self):
        with pytest.raises(ModelError, match="dense"):
            ModelSpec([LayerSpec("dense", out_features=2), LayerSpec("softmax_xent")],
                      in_shape=(1, 4, 4))

    def test_needs_a_layer(self):
        with pytest.raises(ModelError, match="^model needs at least one layer$"):
            ModelSpec([], in_shape=(4,))

    def test_pool_needs_spatial_input(self):
        with pytest.raises(ModelError, match=r"^00_global_mean_pool: pool needs \(C,H,W\) "):
            ModelSpec([LayerSpec("global_mean_pool"), LayerSpec("softmax_xent")],
                      in_shape=(4,))

    def test_bn_needs_flat_or_spatial_input(self):
        with pytest.raises(ModelError, match=r"^00_bn: bn needs \(F,\) or \(C,H,W\) input, "
                                             r"got \(4, 4\)$"):
            ModelSpec([LayerSpec("bn"), LayerSpec("softmax_xent")], in_shape=(4, 4))

    def test_loss_head_needs_flat_logits(self):
        with pytest.raises(ModelError, match="loss head"):
            ModelSpec([LayerSpec("conv3x3", out_channels=2), LayerSpec("softmax_xent")],
                      in_shape=(1, 4, 4))

    def test_unknown_kind(self):
        with pytest.raises(ModelError, match="unknown layer kind"):
            LayerSpec("attention")

    def test_dense_requires_out_features(self):
        with pytest.raises(ModelError):
            LayerSpec("dense")

    def test_bn_variant_checked(self):
        with pytest.raises(ModelError):
            LayerSpec("bn", variant="global")

    @pytest.mark.parametrize("field,value", [
        ("eps", 0), ("eps", -1e-5), ("eps", float("nan")), ("eps", "1e-5"), ("eps", True),
        ("running_momentum", -0.1), ("running_momentum", 1.5), ("running_momentum", None),
    ])
    def test_bn_eps_and_momentum_checked(self, field, value):
        with pytest.raises(ModelError, match=f"^bn {field} must "):
            LayerSpec("bn", **{field: value})

    def test_bn_bounds_are_inclusive_for_momentum(self):
        LayerSpec("bn", running_momentum=0)
        LayerSpec("bn", running_momentum=1.0, eps=1)


class TestInit:
    def test_deterministic(self):
        m = tiny_model()
        a, b = init_params(m, 5), init_params(m, 5)
        assert sorted(a) == sorted(b)
        for k in a:
            assert np.array_equal(a[k], b[k])
        c = init_params(m, 6)
        assert not np.array_equal(a["00_conv3x3.w"], c["00_conv3x3.w"])

    def test_fan_in_bound(self):
        m = tiny_model()
        p = init_params(m, 0)
        conv_bound = np.sqrt(6.0 / (1 * 9))
        dense_bound = np.sqrt(6.0 / 2)
        assert np.max(np.abs(p["00_conv3x3.w"])) <= conv_bound
        assert np.max(np.abs(p["04_dense.w"])) <= dense_bound
        assert np.max(np.abs(p["00_conv3x3.w"])) > 0.5 * conv_bound  # actually spread out

    def test_biases_zero_affines_identity(self):
        p = init_params(tiny_model(), 0)
        assert np.array_equal(p["00_conv3x3.b"], np.zeros(2))
        assert np.array_equal(p["04_dense.b"], np.zeros(3))
        assert np.array_equal(p["01_bn.gamma"], np.ones(2))
        assert np.array_equal(p["01_bn.beta"], np.zeros(2))

    def test_buffers(self):
        b = init_buffers(tiny_model())
        assert sorted(b) == ["01_bn.running_mean", "01_bn.running_var"]
        assert np.array_equal(b["01_bn.running_var"], np.ones(2))

    def test_weight_keys(self):
        p = init_params(tiny_model(), 0)
        assert weight_keys(p) == ["00_conv3x3.w", "04_dense.w"]


class TestLayerForwards:
    def test_dense_matches_loop(self):
        m = ModelSpec([LayerSpec("dense", out_features=3), LayerSpec("softmax_xent")],
                      in_shape=(4,))
        rng = np.random.default_rng(70)
        p = init_params(m, 1)
        p["00_dense.b"] = rng.normal(size=3)  # exercise the bias too
        x = rng.normal(size=(6, 4))
        out = forward(plan(m, p, init_buffers(m)), Tensor(x))
        want = loop_dense(x, p["00_dense.w"], p["00_dense.b"])
        assert np.allclose(out.logits, want, atol=1e-12)
        assert out.loss is None

    def test_conv_and_pool_match_loops(self):
        m = ModelSpec([LayerSpec("conv3x3", out_channels=3),
                       LayerSpec("global_mean_pool"),
                       LayerSpec("softmax_xent")],
                      in_shape=(2, 5, 4))
        rng = np.random.default_rng(71)
        p = init_params(m, 2)
        p["00_conv3x3.b"] = rng.normal(size=3)
        x = rng.normal(size=(2, 2, 5, 4))
        out = forward(plan(m, p, init_buffers(m)), Tensor(x))
        want = loop_global_mean_pool(loop_conv3x3(x, p["00_conv3x3.w"], p["00_conv3x3.b"]))
        assert np.allclose(out.logits, want, atol=1e-12)

    def test_relu_clamps(self):
        m = ModelSpec([LayerSpec("relu"), LayerSpec("softmax_xent")], in_shape=(3,))
        x = np.array([[-1.0, 0.0, 2.0], [0.5, -3.0, 0.0]])
        out = forward(plan(m, {}, {}), Tensor(x))
        assert np.array_equal(out.logits, [[0.0, 0.0, 2.0], [0.5, 0.0, 0.0]])

    def test_loss_matches_loop(self):
        m = ModelSpec([LayerSpec("relu"), LayerSpec("softmax_xent")], in_shape=(4,))
        rng = np.random.default_rng(72)
        z = np.abs(rng.normal(size=(5, 4)))  # positive so relu is identity
        labels = rng.integers(0, 4, size=5)
        out = forward(plan(m, {}, {}), Tensor(z), labels)
        assert abs(out.loss - loop_softmax_xent(z, labels)) < 1e-12
        assert l2_penalty({}, 0.0) == 0.0

    def test_reg_loss_formula(self):
        m = ModelSpec([LayerSpec("dense", out_features=2), LayerSpec("softmax_xent")],
                      in_shape=(3,))
        p = init_params(m, 3)
        x = np.random.default_rng(73).normal(size=(4, 3))
        out = forward(plan(m, p, {}), Tensor(x), np.zeros(4, dtype=int))
        reg = l2_penalty(p, 0.03)
        want = 0.5 * 0.03 * float(np.sum(p["00_dense.w"] ** 2))  # biases excluded
        assert abs(reg - want) < 1e-15
        assert abs((out.loss + reg) - (out.loss + want)) < 1e-15

    def test_accuracy(self):
        logits = np.array([[2.0, 1.0], [0.0, 3.0], [1.0, 0.5], [0.1, 0.2]])
        assert accuracy(logits, np.array([0, 1, 1, 1])) == 0.75


class TestForwardValidation:
    def test_input_shape_checked(self):
        m = tiny_model()
        with pytest.raises(ModelError, match="input shape"):
            forward(plan(m, init_params(m, 0), init_buffers(m)), Tensor(np.ones((2, 1, 5, 5))))

    @pytest.mark.parametrize("x", [np.ones((2, 3)), [[1.0, 2.0, 3.0]]])
    def test_input_must_be_a_tensor(self, x):
        m = ModelSpec([LayerSpec("dense", out_features=2), LayerSpec("softmax_xent")],
                      in_shape=(3,))
        with pytest.raises(ModelError) as err:
            forward(plan(m, init_params(m, 0), {}), x)
        assert str(err.value) == f"model input must be a Tensor, got {type(x).__name__}"

    def test_mode_checked(self):
        m = tiny_model()
        with pytest.raises(ModelError, match="mode"):
            forward(plan(m, init_params(m, 0), init_buffers(m)),
                    Tensor(np.ones((2, 1, 4, 4))), mode="predict")

    def test_label_shape_checked(self):
        m = ModelSpec([LayerSpec("softmax_xent")], in_shape=(3,))
        with pytest.raises(ModelError, match="labels shape"):
            forward(plan(m, {}, {}), Tensor(np.ones((4, 3))), np.zeros((2, 2), dtype=int))

    def test_label_range_checked(self):
        m = ModelSpec([LayerSpec("softmax_xent")], in_shape=(3,))
        with pytest.raises(ModelError, match="out of range"):
            forward(plan(m, {}, {}), Tensor(np.ones((4, 3))), np.array([0, 1, 3, 0]))

    def test_backward_needs_loss_caches(self):
        m = tiny_model()
        rank_plan = plan(m, init_params(m, 0), init_buffers(m))
        out = forward(rank_plan, Tensor(np.ones((2, 1, 4, 4))))  # no labels
        with pytest.raises(ModelError, match="backward"):
            backward(rank_plan, out.caches)

    @pytest.mark.parametrize("labels", [None, [0, 1]])
    def test_eval_keeps_no_caches(self, labels):
        # nothing reads an eval forward's caches; keeping them held the
        # patch matrices of a whole eval batch alive
        m = tiny_model()
        rank_plan = plan(m, init_params(m, 0), init_buffers(m))
        x = Tensor(np.random.default_rng(3).normal(size=(2, 1, 4, 4)))
        out = forward(rank_plan, x, labels, mode="eval")
        assert out.caches == []
        with pytest.raises(ModelError, match="backward"):
            backward(rank_plan, out.caches)


class TestFiniteness:
    """Activations move between layers as arrays; each is still scanned."""

    def batch(self):
        rng = np.random.default_rng(74)
        return Tensor(rng.normal(size=(3, 1, 4, 4))), rng.integers(0, 3, size=3)

    def test_inf_conv_weight_names_the_conv(self):
        m = tiny_model()
        p = init_params(m, 0)
        p["00_conv3x3.w"][0, 0, 1, 1] = np.inf
        x, labels = self.batch()
        with pytest.raises(NonFiniteError, match="^00_conv3x3: non-finite"):
            forward(plan(m, p, init_buffers(m)), x, labels)

    def test_overflowing_bn_names_the_bn_forward(self):
        m = tiny_model()
        p = init_params(m, 0)
        p["01_bn.gamma"] = np.full_like(p["01_bn.gamma"], 1e308)  # gamma * x_hat overflows
        x, labels = self.batch()
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match="^bn_forward: non-finite"):
            forward(plan(m, p, init_buffers(m)), x, labels)

    def test_nan_cotangent_names_the_bn_backward(self):
        m = tiny_model()
        p = init_params(m, 0)
        x, labels = self.batch()
        rank_plan = plan(m, p, init_buffers(m))
        out = forward(rank_plan, x, labels)
        p["04_dense.w"][...] = np.nan  # only backward reads it now
        with pytest.raises(NonFiniteError, match="^01_bn.backward: non-finite"):
            backward(rank_plan, out.caches)

    def test_overflowing_dense_names_the_dense(self):
        m = tiny_model()
        p = init_params(m, 0)
        p["04_dense.w"] = np.full_like(p["04_dense.w"], 1e308)  # pooled relu output is > 0
        p["04_dense.b"] = np.full_like(p["04_dense.b"], np.finfo(np.float64).max)
        x, labels = self.batch()
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match="^04_dense: non-finite"):
            forward(plan(m, p, init_buffers(m)), x, labels)

    def test_each_value_scanned_once(self, monkeypatch):
        # the input Tensor was scanned when built, and a ReLU of finite
        # values is finite: neither is scanned again
        import bigbatch.model as model_module
        scanned = []

        def counting(a, context):
            scanned.append(context)
            return a

        monkeypatch.setattr(model_module, "_check_finite", counting)
        m = tiny_model()
        x, labels = self.batch()
        forward(plan(m, init_params(m, 0), init_buffers(m)), x, labels)
        assert scanned == ["00_conv3x3", "03_global_mean_pool", "04_dense"]

    def test_one_bn_state_per_layer_per_step(self, monkeypatch):
        import bigbatch.model as model_module
        built = []

        class CountingState(BNLayerState):
            def __post_init__(self):
                built.append(self)
                super().__post_init__()

        m = tiny_model()  # LayerSpec checks its rules itself and builds no BNLayerState
        p = init_params(m, 0)
        monkeypatch.setattr(model_module, "BNLayerState", CountingState)
        x, labels = self.batch()
        rank_plan = plan(m, p, init_buffers(m))
        out = forward(rank_plan, x, labels)
        backward(rank_plan, out.caches)
        assert len(built) == sum(layer.kind == "bn" for layer in m.layers) == 1

    def test_params_stay_writable_and_unchanged(self):
        m = tiny_model()
        p = init_params(m, 0)
        before = {k: v.copy() for k, v in p.items()}
        x, labels = self.batch()
        rank_plan = plan(m, p, init_buffers(m))
        out = forward(rank_plan, x, labels)
        l2_penalty(p, 1e-3)
        backward(rank_plan, out.caches)
        for key, value in p.items():
            assert value.flags.writeable, key
            assert np.array_equal(value, before[key]), key


class TestGradients:
    def test_whole_model_matches_finite_differences(self):
        m = tiny_model()
        rng = np.random.default_rng(80)
        params = init_params(m, 4)
        params["01_bn.gamma"] = rng.uniform(0.8, 1.2, 2)  # move off the identity
        params["01_bn.beta"] = rng.normal(scale=0.1, size=2)
        x = rng.normal(size=(5, 1, 4, 4))
        labels = rng.integers(0, 3, size=5)
        wd = 1e-2

        def loss():
            return (forward(plan(m, params, init_buffers(m)), Tensor(x), labels).loss
                    + l2_penalty(params, wd))

        rank_plan = plan(m, params, init_buffers(m))
        out = forward(rank_plan, Tensor(x), labels)
        # the gradient training applies: a zero-rate step leaves v = g + wd * w
        replica = dict(params)
        sgd = SGDState.create(replica, momentum=0.0, weight_decay=wd)
        sgd_step(replica, backward(rank_plan, out.caches), sgd, lr=0.0)
        grads = sgd.velocity

        worst = 0.0
        for key in sorted(params):
            arr = params[key]
            flat = [np.unravel_index(i, arr.shape)
                    for i in rng.choice(arr.size, size=min(4, arr.size), replace=False)]
            for idx in flat:
                fd = fd_entry(loss, arr, idx, h=1e-5)
                err = abs(grads[key][idx] - fd) / max(abs(fd), 1e-3)
                worst = max(worst, err)
        assert worst < 1e-6

    def test_eval_forward_keeps_buffers(self):
        m = tiny_model()
        p = init_params(m, 0)
        bufs = init_buffers(m)
        x = Tensor(np.random.default_rng(81).normal(size=(4, 1, 4, 4)))
        before = {k: v.copy() for k, v in bufs.items()}
        forward(plan(m, p, bufs), x, mode="eval")
        for k in bufs:
            assert np.array_equal(bufs[k], before[k])
        forward(plan(m, p, bufs), x, mode="train")
        assert not np.array_equal(bufs["01_bn.running_mean"], before["01_bn.running_mean"])

    def test_cross_bn_without_handle_equals_local(self):
        layers = lambda variant: [
            LayerSpec("conv3x3", out_channels=2),
            LayerSpec("bn", variant=variant),
            LayerSpec("relu"),
            LayerSpec("global_mean_pool"),
            LayerSpec("dense", out_features=2),
            LayerSpec("softmax_xent"),
        ]
        mc = ModelSpec(layers("cross"), in_shape=(1, 4, 4))
        ml = ModelSpec(layers("local"), in_shape=(1, 4, 4))
        rng = np.random.default_rng(82)
        x = rng.normal(size=(4, 1, 4, 4))
        labels = rng.integers(0, 2, size=4)
        pc, pl = init_params(mc, 7), init_params(ml, 7)
        oc = forward(plan(mc, pc, init_buffers(mc)), Tensor(x), labels)
        ol = forward(plan(ml, pl, init_buffers(ml)), Tensor(x), labels)
        assert oc.loss == ol.loss  # bitwise same path

    def test_world_mean_of_grads_is_global_gradient(self):
        # The convention the trainer relies on: averaging each rank's grad
        # dict over the world must equal the single-device gradient of the
        # mean loss over the full batch. Cross BN is the layer that makes
        # this nontrivial.
        layers = [
            LayerSpec("conv3x3", out_channels=2),
            LayerSpec("bn", variant="cross"),
            LayerSpec("relu"),
            LayerSpec("global_mean_pool"),
            LayerSpec("dense", out_features=3),
            LayerSpec("softmax_xent"),
        ]
        rng = np.random.default_rng(83)
        x = rng.normal(size=(6, 1, 4, 4))
        labels = rng.integers(0, 3, size=6)

        def make():
            m = ModelSpec([LayerSpec(l.kind, out_features=l.out_features,
                                     out_channels=l.out_channels, variant=l.variant)
                           for l in layers], in_shape=(1, 4, 4))
            return m, init_params(m, 9)

        # Reference: one device holding all six samples.
        g1 = DeviceGroup(1)

        def whole(h):
            m, p = make()
            rank_plan = plan(m, p, init_buffers(m), h)
            return backward(rank_plan, forward(rank_plan, Tensor(x), labels).caches)

        (ref,) = g1.run(whole)

        g3 = DeviceGroup(3)

        def shard(h):
            m, p = make()
            sl = slice(2 * h.rank, 2 * h.rank + 2)
            rank_plan = plan(m, p, init_buffers(m), h)
            return backward(rank_plan, forward(rank_plan, Tensor(x[sl]), labels[sl]).caches)

        outs = g3.run(shard)
        for key in ref:
            mean = sum(o[key] for o in outs) / 3
            assert np.allclose(mean, ref[key], rtol=1e-12, atol=1e-14), key


PLAN_CASES = {
    # the bench model's two conv + cross BN blocks, on the one-pass statistics
    "cross-one-pass": ((1, 8, 8), True, [
        dict(kind="conv3x3", out_channels=6), dict(kind="bn", variant="cross"),
        dict(kind="relu"), dict(kind="conv3x3", out_channels=6),
        dict(kind="bn", variant="cross"), dict(kind="relu"),
        dict(kind="global_mean_pool"), dict(kind="dense", out_features=4)]),
    # local BN on the pooled (N, F) features
    "local-bn-after-pool": ((1, 8, 8), False, [
        dict(kind="conv3x3", out_channels=3), dict(kind="relu"),
        dict(kind="global_mean_pool"), dict(kind="bn"), dict(kind="dense", out_features=3)]),
    # N * 25 rows: the blocks are as short as the lowest set bit of N
    "5x5": ((1, 5, 5), False, [
        dict(kind="conv3x3", out_channels=3), dict(kind="bn", variant="cross"),
        dict(kind="relu"), dict(kind="global_mean_pool"), dict(kind="dense", out_features=3)]),
}


class TestRankPlan:
    @pytest.mark.parametrize("n", [2, 8, 64])
    @pytest.mark.parametrize("case", sorted(PLAN_CASES))
    def test_plan_is_bitwise_fresh_calls(self, case, n):
        # one plan over 4 SGD steps on each of two ranks, against fresh
        # forward/backward calls on a second replica every step
        in_shape, one_pass, layers = PLAN_CASES[case]
        m = ModelSpec([LayerSpec(**layer) for layer in layers] + [LayerSpec("softmax_xent")],
                      in_shape=in_shape)

        def worker(h):
            rng = np.random.default_rng((n, h.rank))
            replicas = []
            for _ in range(2):
                params, buffers = init_params(m, 3), init_buffers(m)
                replicas.append((params, buffers, SGDState.create(params, 0.9, 1e-3)))
            (p, b, sgd), (fp, fb, fsgd) = replicas
            rank_plan = plan(m, p, b, handle=h, one_pass_bn=one_pass)
            held = []  # every step's results, which the later steps must not touch
            for _ in range(4):
                x = Tensor(rng.normal(size=(n, *in_shape)))
                y = rng.integers(0, m.classes, size=n)
                out = forward(rank_plan, x, y)
                grads = backward(rank_plan, out.caches)
                fresh = plan(m, fp, fb, handle=h, one_pass_bn=one_pass)
                ref = forward(fresh, x, y)
                ref_grads = backward(fresh, ref.caches)
                assert out.loss == ref.loss
                assert np.array_equal(out.logits, ref.logits)
                assert grads.keys() == ref_grads.keys()
                for key in grads:
                    assert np.array_equal(grads[key], ref_grads[key]), key
                for key in fb:
                    assert np.array_equal(b[key], fb[key]), key
                held.append((out.logits, grads, ref.logits, ref_grads))
                sgd_step(p, grads, sgd, lr=0.05)
                sgd_step(fp, ref_grads, fsgd, lr=0.05)
            x = Tensor(rng.normal(size=(3, *in_shape)))  # eval at another batch size
            got = forward(rank_plan, x, mode="eval").logits
            assert np.array_equal(got, forward(plan(m, fp, fb), x, mode="eval").logits)
            for logits, grads, ref_logits, ref_grads in held:
                assert np.array_equal(logits, ref_logits)
                assert all(np.array_equal(grads[key], ref_grads[key]) for key in grads)

        DeviceGroup(2).run(worker)

    def test_plan_built_before_the_optimizer_state_trains_alike(self):
        # `SGDState.create` rebinds every `params` entry to a view of its flat
        # buffer; a plan that kept the arrays it was built over would train
        # on the initial weights for ever
        m = ModelSpec(CRITERION_7 + [LayerSpec("softmax_xent")], in_shape=(1, 8, 8))

        def worker(h):
            rng = np.random.default_rng((97, h.rank))
            runs = []
            for before in (True, False):
                params, buffers = init_params(m, 3), init_buffers(m)
                rank_plan = plan(m, params, buffers, handle=h) if before else None
                sgd = SGDState.create(params, 0.9, 1e-3)
                rank_plan = rank_plan or plan(m, params, buffers, handle=h)
                runs.append((rank_plan, params, buffers, sgd, []))
            for _ in range(5):
                x = Tensor(rng.normal(size=(4, 1, 8, 8)))
                y = rng.integers(0, m.classes, size=4)
                for rank_plan, params, _, sgd, log in runs:
                    out = forward(rank_plan, x, y)
                    grads = backward(rank_plan, out.caches)
                    log.append((out.loss, grads))
                    sgd_step(params, grads, sgd, lr=0.05)
            (a, ap, ab, _, alog), (b, bp, bb, _, blog) = runs
            for (aloss, agrads), (bloss, bgrads) in zip(alog, blog):
                assert aloss == bloss
                assert all(np.array_equal(agrads[key], bgrads[key]) for key in ap)
            assert alog[0][0] != alog[-1][0]  # it trained
            for ours, theirs in ((ap, bp), (ab, bb)):
                assert all(np.array_equal(ours[key], theirs[key]) for key in ours)
            x = Tensor(rng.normal(size=(3, 1, 8, 8)))
            assert np.array_equal(forward(a, x, mode="eval").logits,
                                  forward(b, x, mode="eval").logits)

        DeviceGroup(2).run(worker)

    def test_running_stats_are_blended_into_the_buffers_in_place(self):
        m = tiny_model()
        layer = m.layers[1]
        b = init_buffers(m)
        rank_plan = plan(m, init_params(m, 0), b)
        rng = np.random.default_rng(84)
        keys = ("01_bn.running_mean", "01_bn.running_var")
        arrays = tuple(b[key] for key in keys)
        for _ in range(3):
            old = tuple(a.copy() for a in arrays)
            x = Tensor(rng.normal(size=(4, 1, 4, 4)))
            out = forward(rank_plan, x, rng.integers(0, 3, size=4))
            assert all(b[key] is a for key, a in zip(keys, arrays))
            cache, rho = out.caches[1][1], layer.running_momentum
            count = cache.total_count
            # `batchnorm._update_running`'s blend, computed out of place
            want_mean = (1.0 - rho) * old[0] + rho * cache.mu
            want_var = (1.0 - rho) * old[1] + rho * (cache.var * (count / (count - 1.0)))
            assert np.array_equal(b[keys[0]], want_mean)
            assert np.array_equal(b[keys[1]], want_var)
        before = tuple(a.copy() for a in arrays)
        forward(rank_plan, Tensor(rng.normal(size=(3, 1, 4, 4))), mode="eval")
        assert all(b[key] is a for key, a in zip(keys, arrays))
        assert all(np.array_equal(a, want) for a, want in zip(arrays, before))


def images(rows, shape):
    """(N*H*W, C) rows as the C-ordered (N, C, H, W) images of `shape`."""
    n, c, h, w = shape
    return np.ascontiguousarray(rows.reshape(n, h, w, c).transpose(0, 3, 1, 2))


def nchw_reference(m, params, buffers, x, labels, mode="train"):
    """Logits, loss and gradients of `m` with activations kept as (N,C,H,W).

    The model carries spatial activations as (N*H*W, C) rows; this is the
    layout it used before, conv through `nchw_im2col`/`nchw_col2im` and BN
    on each 4-D tensor's `image_rows`, its results turned back into images.
    Every reduction sees the same values in the same order, so the two must
    agree bitwise. Updates `buffers` like a train forward; in eval mode BN
    reads them, and only the logits are returned.
    """
    caches = []
    cur = np.asarray(x, dtype=np.float64)
    for layer in m.layers[:-1]:
        name, k = layer.name, layer.kind
        if k == "conv3x3":
            w, b = params[f"{name}.w"], params[f"{name}.b"]
            n, _, h, wd = cur.shape
            cols = nchw_im2col(cur)
            out = cols @ w.reshape(w.shape[0], -1).T + b
            caches.append((cols, cur.shape))
            cur = np.ascontiguousarray(out.reshape(n, h, wd, -1).transpose(0, 3, 1, 2))
        elif k == "bn":
            state = BNLayerState(
                running_mean=buffers[f"{name}.running_mean"],
                running_var=buffers[f"{name}.running_var"],
                eps=layer.eps, running_momentum=layer.running_momentum)
            y, cache = bn_forward_local(image_rows(cur), params[f"{name}.gamma"],
                                        params[f"{name}.beta"], state, mode=mode)
            caches.append((state, cache))
            cur = images(y, cur.shape)
        elif k == "relu":
            caches.append(cur > 0)
            cur = cur * caches[-1]
        elif k == "global_mean_pool":
            caches.append(cur.shape)
            cur = cur.mean(axis=(2, 3))
        elif k == "dense":
            caches.append(cur)
            cur = cur @ params[f"{name}.w"].T + params[f"{name}.b"]
    logits = cur
    if mode == "eval":
        return logits
    ez = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs = ez / ez.sum(axis=1, keepdims=True)
    rows = np.arange(len(labels))
    loss = float(np.mean(-np.log(probs[rows, labels])))
    cur = probs.copy()
    cur[rows, labels] -= 1.0
    cur /= len(labels)
    grads = {}
    for layer, cache in zip(reversed(m.layers[:-1]), reversed(caches)):
        name, k = layer.name, layer.kind
        if k == "conv3x3":
            cols, shape = cache
            w = params[f"{name}.w"]
            dout = cur.transpose(0, 2, 3, 1).reshape(-1, w.shape[0])
            grads[f"{name}.w"] = (dout.T @ cols).reshape(w.shape)
            grads[f"{name}.b"] = dout.sum(axis=0)
            cur = nchw_col2im(dout @ w.reshape(w.shape[0], -1), shape)
        elif k == "bn":
            state, bn_cache = cache
            dx, grads[f"{name}.gamma"], grads[f"{name}.beta"] = bn_backward_local(
                image_rows(cur), bn_cache, state)
            cur = images(dx, cur.shape)
        elif k == "relu":
            cur = cur * cache
        elif k == "global_mean_pool":
            h, wd = cache[2:]
            cur = np.broadcast_to(cur[:, :, None, None] / (h * wd), cache).copy()
        elif k == "dense":
            grads[f"{name}.w"] = cur.T @ cache
            grads[f"{name}.b"] = cur.sum(axis=0)
            cur = cur @ params[f"{name}.w"]
    return logits, loss, grads


LAYOUT_CASES = {
    # two convs on a single input channel, H != W
    "conv-bn-relu-x2": ((1, 5, 4), [
        LayerSpec("conv3x3", out_channels=3), LayerSpec("bn"), LayerSpec("relu"),
        LayerSpec("conv3x3", out_channels=2), LayerSpec("bn"), LayerSpec("relu"),
        LayerSpec("global_mean_pool"), LayerSpec("dense", out_features=3)]),
    # BN on the raw three-channel input, before any conv
    "bn-first": ((3, 4, 6), [
        LayerSpec("bn"), LayerSpec("conv3x3", out_channels=2), LayerSpec("relu"),
        LayerSpec("conv3x3", out_channels=3), LayerSpec("global_mean_pool"),
        LayerSpec("dense", out_features=2)]),
    # relu before any conv; pool straight after BN
    "relu-first": ((3, 3, 5), [
        LayerSpec("relu"), LayerSpec("conv3x3", out_channels=4), LayerSpec("bn"),
        LayerSpec("global_mean_pool"), LayerSpec("dense", out_features=3)]),
    # the loop_conv3x3 case of TestLayerForwards
    "conv-pool": ((2, 5, 4), [
        LayerSpec("conv3x3", out_channels=3), LayerSpec("global_mean_pool")]),
}

# the acceptance-criterion-7 model the bench trains; cross BN without a
# device handle is local BN
CRITERION_7 = [
    LayerSpec("conv3x3", out_channels=6), LayerSpec("bn", variant="cross"), LayerSpec("relu"),
    LayerSpec("conv3x3", out_channels=6), LayerSpec("bn", variant="cross"), LayerSpec("relu"),
    LayerSpec("global_mean_pool"), LayerSpec("dense", out_features=4)]


class TestChannelsLastLayout:
    @pytest.mark.parametrize("shape", [(2, 1, 4, 4), (3, 2, 5, 4), (2, 3, 3, 6)])
    def test_patch_helpers_match_nchw(self, shape):
        rng = np.random.default_rng(90)
        n, c, h, w = shape
        x = rng.normal(size=shape)
        to_rows = lambda a: a.transpose(0, 2, 3, 1).reshape(n * h * w, c)
        cols = _im2col(to_rows(x), n, h, w)
        assert np.array_equal(cols, nchw_im2col(x))
        dcols = rng.normal(size=cols.shape)
        assert np.array_equal(_col2im(dcols, n, h, w), to_rows(nchw_col2im(dcols, shape)))

    @pytest.mark.parametrize("shape", [(2, 1, 4, 4), (2, 2, 5, 4), (1, 3, 3, 6)])
    def test_nchw_reference_matches_loop(self, shape):
        rng = np.random.default_rng(91)
        x = rng.normal(size=shape)
        w, b = rng.normal(size=(2, shape[1], 3, 3)), rng.normal(size=2)
        n, _, h, wd = shape
        out = (nchw_im2col(x) @ w.reshape(2, -1).T + b).reshape(n, h, wd, 2)
        assert np.allclose(out.transpose(0, 3, 1, 2), loop_conv3x3(x, w, b), atol=1e-12)

    @pytest.mark.parametrize("case", sorted(LAYOUT_CASES))
    def test_model_is_bitwise_the_nchw_model(self, case):
        in_shape, layers = LAYOUT_CASES[case]
        assert_bitwise_the_nchw_model(in_shape, layers, 5)

    @pytest.mark.parametrize("n", [8, 64, 256])
    def test_bench_model_is_bitwise_the_nchw_model(self, n):
        # The bench's rank step sizes: batch 8 (dp8x8) and 64 (single1x64),
        # and its eval size, 256, in eval mode. BLAS and the numpy loops may
        # switch code paths with the row count, so a change that breaks the
        # bytes only at these sizes fails here.
        assert_bitwise_the_nchw_model((1, 8, 8), CRITERION_7, n,
                                      mode="eval" if n == 256 else "train")


    def test_one_output_channel_conv_first_is_the_nchw_model_to_rounding(self):
        # With one output channel OpenBLAS forms the conv products on the
        # Fortran-ordered patch matrix by a matrix-vector path, whose bits are
        # not those of a C-ordered copy: the values agree, and a fresh plan
        # repeats the bits.
        m = ModelSpec([LayerSpec("conv3x3", out_channels=1), LayerSpec("relu"),
                       LayerSpec("conv3x3", out_channels=3), LayerSpec("bn"), LayerSpec("relu"),
                       LayerSpec("global_mean_pool"), LayerSpec("dense", out_features=3),
                       LayerSpec("softmax_xent")], in_shape=(2, 4, 5))
        rng = np.random.default_rng(98)
        params = init_params(m, 11)
        x, labels = rng.normal(size=(5, 2, 4, 5)), rng.integers(0, 3, size=5)
        runs = []
        for _ in range(2):
            rank_plan = plan(m, params, init_buffers(m))
            out = forward(rank_plan, Tensor(x), labels)
            runs.append((out.logits, backward(rank_plan, out.caches)))
        (logits, grads), (again, grads_again) = runs
        assert np.array_equal(logits, again)
        assert all(np.array_equal(grads[key], grads_again[key]) for key in params)
        ref_logits, _, ref_grads = nchw_reference(m, params, init_buffers(m), x, labels)
        assert sorted(grads) == sorted(ref_grads) == sorted(params)
        # a conv bias feeding BN has a zero gradient, here rounding noise near
        # 1e-17, which `rel_err`'s floor of 1e-3 keeps from reading as large
        assert rel_err(logits, ref_logits) <= 1e-12
        assert all(rel_err(grads[key], ref_grads[key]) <= 1e-12 for key in params)


def assert_bitwise_the_nchw_model(in_shape, layers, n, mode="train"):
    m = ModelSpec(layers + [LayerSpec("softmax_xent")], in_shape=in_shape)
    rng = np.random.default_rng(92)
    params = init_params(m, 11)
    for key in params:  # move biases and BN affines off their init values
        if not key.endswith(".w"):
            params[key] = params[key] + rng.normal(scale=0.1, size=params[key].shape)
    x = rng.normal(size=(n,) + in_shape)
    labels = rng.integers(0, m.classes, size=n)
    buffers, ref_buffers = init_buffers(m), init_buffers(m)
    if mode == "eval":  # move the running statistics off their init values
        for key in buffers:
            buffers[key] = ref_buffers[key] = rng.uniform(0.5, 1.5, size=buffers[key].shape)
        logits = nchw_reference(m, params, ref_buffers, x, None, mode="eval")
        out = forward(plan(m, params, buffers), Tensor(x), mode="eval")
        assert np.array_equal(out.logits, logits)
        return

    rank_plan = plan(m, params, buffers)
    out = forward(rank_plan, Tensor(x), labels)
    grads = backward(rank_plan, out.caches)
    logits, loss, ref_grads = nchw_reference(m, params, ref_buffers, x, labels)

    assert np.array_equal(out.logits, logits)
    assert out.loss == loss
    assert sorted(grads) == sorted(ref_grads) == sorted(params)
    for key in params:
        assert np.array_equal(grads[key], ref_grads[key]), key
        assert np.array_equal(np.signbit(grads[key]), np.signbit(ref_grads[key])), key
    for key in buffers:
        assert np.array_equal(buffers[key], ref_buffers[key]), key


def _rows(x):
    n, c, h, w = x.shape
    return np.ascontiguousarray(x.transpose(0, 2, 3, 1).reshape(n * h * w, c))


@pytest.mark.parametrize("n", [8, 64, 256])
@pytest.mark.parametrize("c", [1, 6])
def test_conv_products_on_the_patch_matrix_at_bench_sizes(n, c):
    # The patch matrix is Fortran-ordered; the model's outputs stay bitwise
    # only while BLAS forms its two products exactly as on a C-ordered copy.
    # BLAS may switch code paths with the row count, so pin the batch sizes
    # the bench runs: 8 and 64 per rank step, 256 for the eval. `c` is the
    # conv's input channels; the output has six. With one output channel
    # OpenBLAS takes a matrix-vector path and the two products are not
    # bitwise equal to the C-ordered ones, so that case is not pinned.
    rng = np.random.default_rng(93)
    x = rng.normal(size=(n, c, 8, 8))
    cols = _im2col(_rows(x), n, 8, 8)
    assert cols.flags.f_contiguous
    assert np.array_equal(cols, nchw_im2col(x))
    ccols = np.ascontiguousarray(cols)
    w, b = rng.normal(size=(6, c * 9)), rng.normal(size=6)
    dout = rng.normal(size=(n * 64, 6))
    assert np.array_equal(cols @ w.T + b, ccols @ w.T + b)
    assert np.array_equal(dout.T @ cols, dout.T @ ccols)
    # the backward forms the patch gradient channel-major for `_col2im`
    assert np.array_equal(w.T @ dout.T, (dout @ w).T)


@pytest.mark.parametrize("shape", [(3, 2, 1, 1), (2, 2, 1, 5), (2, 3, 4, 1), (1, 1, 2, 2)])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_patch_matrix_of_thin_images(shape, dtype):
    # one-pixel rows or columns: both shifts along that axis cross an edge
    n, c, h, w = shape
    x = np.random.default_rng(94).normal(size=shape).astype(dtype)
    cols = _im2col(_rows(x), n, h, w)
    want = nchw_im2col(x)
    assert cols.dtype == dtype and np.array_equal(cols, want)
    assert not np.signbit(cols[want == 0]).any()  # padding is +0.0, as np.pad writes


def test_one_channel_conv_bias_gradient_is_the_column_sum():
    # Rows of two or more columns are folded by einsum, bitwise `sum(axis=0)`;
    # a single column is not, so a one-channel conv keeps `sum` there.
    m = ModelSpec([LayerSpec("conv3x3", out_channels=1), LayerSpec("global_mean_pool"),
                   LayerSpec("dense", out_features=2), LayerSpec("softmax_xent")],
                  in_shape=(1, 8, 8))
    params = init_params(m, 3)
    rng = np.random.default_rng(96)
    labels = rng.integers(0, 2, size=8)
    rank_plan = plan(m, params, init_buffers(m))
    out = forward(rank_plan, Tensor(rng.normal(size=(8, 1, 8, 8))), labels)
    grads = backward(rank_plan, out.caches)
    d = out.caches[-1][1].copy()
    d[np.arange(8), labels] -= 1.0
    d /= 8
    dout = np.repeat(d @ params["02_dense.w"] / 64, 64, axis=0)  # the pool's backward
    assert np.array_equal(grads["00_conv3x3.b"], dout.sum(axis=0))


def _crossing(n, c, h, w):
    """(N*H*W, C*9) mask of the patch entries whose 3x3 shift leaves the image."""
    y, x = np.divmod(np.arange(h * w), w)
    i, j = np.divmod(np.arange(9), 3)
    yy, xx = y[:, None] + i - 1, x[:, None] + j - 1
    return np.tile((yy < 0) | (yy >= h) | (xx < 0) | (xx >= w), (n, c))


@pytest.mark.parametrize("shape", [(3, 2, 1, 1), (2, 2, 1, 5), (2, 3, 4, 1), (1, 1, 2, 2),
                                   (2, 3, 4, 5)])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("order", ["rows", "channel-major"])
def test_col2im_of_thin_images(shape, dtype, order):
    # one-pixel rows or columns: both shifts along that axis cross an edge
    n, c, h, w = shape
    rng = np.random.default_rng(95)
    dcols = rng.normal(size=(n * h * w, c * 9)).astype(dtype)
    dcols[rng.random(dcols.shape) < 0.2] = -0.0
    crossing = _crossing(n, c, h, w)
    dcols[crossing & (rng.random(dcols.shape) < 0.5)] = np.inf  # dropped, never added
    if order == "channel-major":  # as the model passes it: (W.T @ dout.T).T
        dcols = np.ascontiguousarray(dcols.T).T
    before = dcols.copy()
    got = _col2im(dcols, n, h, w)
    want = _rows(nchw_col2im(dcols, shape))
    assert got.dtype == dtype and got.flags.c_contiguous and np.isfinite(got).all()
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    # the edge zeroing goes to a private buffer, not the caller's array
    assert np.array_equal(dcols, before) and np.array_equal(np.signbit(dcols), np.signbit(before))
