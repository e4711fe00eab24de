"""Tensor-core behavior: op semantics against loop oracles, fixed hand
cases, and analytic gradients against central differences.

Gradient checks run the graph in float64 (grad_check promotes in place) so
the 1e-3 bound measures the backward rules, not float32 rounding.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nuseg.prng import Prng
from nuseg.tensor import (Tape, Tensor, activation, add, backward, batch_norm,
                          bce_loss, channel_pool, concat_channels, conv2d,
                          global_avg_pool, grad_check, linear, max_pool2d,
                          mul_broadcast, relu, scale, sigmoid, sum_all,
                          upsample_bilinear, zero_grads)

from oracles import (batchnorm_train_loops, bce_f64, bilinear_loops,
                     conv2d_loops, maxpool_loops)


def rand(prng, *shape):
    return Tensor(prng.normal(shape), requires_grad=True)


def weighted_sum(out, prng):
    """Scalar loss with fixed random weights, so no gradient can hide by
    cancelling against its neighbors."""
    if out.data.ndim != 4:
        return sum_all(out)
    w = Tensor(prng.normal(out.data.shape).astype(out.data.dtype))
    return sum_all(mul_broadcast(out, w))


def _op_cases():
    """op name -> (call over the input tensors, input arrays), every op once."""
    p = Prng(21)

    def r(*shape):
        return p.normal(shape)

    def u(*shape):
        return p.uniform_array(math.prod(shape)).reshape(shape) * 0.8 + 0.1

    rm, rv = Tensor(np.zeros(2, np.float32)), Tensor(np.ones(2, np.float32))
    return {
        "conv2d": (lambda x, w, b: conv2d(x, w, b, pad=1), [r(1, 2, 4, 4), r(3, 2, 3, 3), r(3)]),
        "max_pool2d": (max_pool2d, [r(1, 2, 4, 4)]),
        "upsample_bilinear": (lambda x: upsample_bilinear(x, 6, 6), [r(1, 2, 3, 3)]),
        "batch_norm": (lambda x, g, b: batch_norm(x, g, b, rm, rv),
                       [r(2, 2, 3, 3), r(2), r(2)]),
        "relu": (relu, [r(1, 2, 3, 3)]),
        "sigmoid": (sigmoid, [r(1, 2, 3, 3)]),
        "global_avg_pool": (global_avg_pool, [r(1, 2, 3, 3)]),
        "channel_pool_avg": (lambda x: channel_pool(x, "avg"), [r(1, 3, 3, 3)]),
        "channel_pool_max": (lambda x: channel_pool(x, "max"), [r(1, 3, 3, 3)]),
        "mul_broadcast": (mul_broadcast, [r(1, 2, 3, 3), r(1, 2, 1, 1)]),
        "concat_channels": (lambda *xs: concat_channels(list(xs)), [r(1, 1, 3, 3), r(1, 2, 3, 3)]),
        "linear": (linear, [r(2, 4, 1, 1), r(3, 4), r(3)]),
        "bce_loss": (bce_loss, [u(1, 1, 3, 3), u(1, 1, 3, 3)]),
        "add": (add, [r(1, 2, 3, 3), r(1, 2, 3, 3)]),
        "scale": (lambda x: scale(x, 2.0), [r(1, 2, 3, 3)]),
        "sum_all": (sum_all, [r(1, 2, 3, 3)]),
    }


OP_CASES = _op_cases()


class TestGraphMembership:
    @pytest.mark.parametrize("name", sorted(OP_CASES))
    def test_only_an_input_that_requires_grad_joins_the_graph(self, name):
        fn, arrays = OP_CASES[name]
        const = fn(*[Tensor(a) for a in arrays])
        assert not const.requires_grad
        assert const._parents == () and const._backward is None
        for i in range(len(arrays)):
            inputs = [Tensor(a, requires_grad=(j == i)) for j, a in enumerate(arrays)]
            out = fn(*inputs)
            assert out.requires_grad, f"input {i}"
            assert out._parents == tuple(inputs), f"input {i}"
            assert out._backward is not None, f"input {i}"


class TestTensorBasics:
    def test_scalar_rank0_loss_required(self):
        x = Tensor(np.ones((1, 1, 2, 2), dtype=np.float32), requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            backward(x)

    def test_sum_all_grad_is_ones(self):
        x = Tensor(np.arange(8, dtype=np.float32).reshape(1, 2, 2, 2),
                   requires_grad=True)
        backward(sum_all(x))
        np.testing.assert_array_equal(x.grad, np.ones_like(x.data))

    def test_backward_linearity(self):
        """grad of (loss1 + loss2) equals the sum of the individual grads."""
        prng = Prng(4)
        base = prng.normal((1, 2, 3, 3))
        x1 = Tensor(base.copy(), requires_grad=True)
        backward(add(sum_all(relu(x1)), scale(sum_all(x1), 2.0)))
        joint = x1.grad.copy()

        xa = Tensor(base.copy(), requires_grad=True)
        backward(sum_all(relu(xa)))
        xb = Tensor(base.copy(), requires_grad=True)
        backward(scale(sum_all(xb), 2.0))
        np.testing.assert_allclose(joint, xa.grad + xb.grad, rtol=1e-6)

    def test_repeat_backward_accumulates(self):
        x = Tensor(np.ones((1, 1, 2, 2), dtype=np.float32), requires_grad=True)
        loss = sum_all(x)
        backward(loss)
        zero_grads([loss])
        backward(loss)
        np.testing.assert_array_equal(x.grad, 2 * np.ones_like(x.data))

    def test_forward_determinism(self):
        prng = Prng(7)
        x = prng.normal((2, 3, 6, 6))
        w = prng.normal((4, 3, 3, 3))
        b = prng.normal((4,))
        outs = [conv2d(Tensor(x.copy()), Tensor(w.copy()), Tensor(b.copy()),
                       pad=1).data for _ in range(2)]
        np.testing.assert_array_equal(outs[0], outs[1])

    def test_tape_records_ops_in_order(self):
        x = Tensor(np.ones((1, 1, 4, 4), dtype=np.float32))
        with Tape() as tape:
            y = max_pool2d(x)
            z = relu(y)
        assert tape.names() == ["max_pool2d", "relu"]
        assert tape.ops[1].inputs == (y,) and tape.ops[1].output is z


class TestConv2d:
    def test_hand_case_4x4_ones_kernel(self):
        """3x3 all-ones kernel, pad 1 on the 1..16 ramp: corner sums 1+2+5+6."""
        x = Tensor(np.arange(1, 17, dtype=np.float32).reshape(1, 1, 4, 4))
        w = Tensor(np.ones((1, 1, 3, 3), dtype=np.float32))
        b = Tensor(np.zeros(1, dtype=np.float32))
        out = conv2d(x, w, b, pad=1)
        assert out.data.shape == (1, 1, 4, 4)
        assert out.data[0, 0, 0, 0] == 14.0

    def test_matches_loop_oracle(self):
        prng = Prng(21)
        for k in (3, 1):
            for stride, pad, dil in ((1, 1, 1), (1, 2, 2), (2, 1, 1), (1, 3, 3), (1, 0, 1)):
                x = prng.normal((2, 3, 9, 9))
                w = prng.normal((4, 3, k, k))
                b = prng.normal((4,))
                got = conv2d(Tensor(x), Tensor(w), Tensor(b),
                             stride=stride, pad=pad, dilation=dil).data
                want = conv2d_loops(x, w, b, stride=stride, pad=pad, dilation=dil)
                np.testing.assert_allclose(got, want, rtol=2e-5, atol=2e-5)

    def test_pad_equals_dilation_preserves_size(self):
        """3x3 kernels at stride 1 keep H,W whenever pad == dilation."""
        prng = Prng(2)
        for dil in (1, 2, 3, 5):
            x = rand(prng, 1, 2, 13, 11)
            w = rand(prng, 2, 2, 3, 3)
            b = rand(prng, 2)
            out = conv2d(x, w, b, pad=dil, dilation=dil)
            assert out.data.shape == x.data.shape

    def test_even_kernel_rejected(self):
        x = Tensor(np.ones((1, 1, 4, 4), dtype=np.float32))
        w = Tensor(np.ones((1, 1, 2, 2), dtype=np.float32))
        b = Tensor(np.zeros(1, dtype=np.float32))
        with pytest.raises(ValueError, match="odd"):
            conv2d(x, w, b)

    def test_nonintegral_output_rejected(self):
        x = Tensor(np.ones((1, 1, 4, 4), dtype=np.float32))
        w = Tensor(np.ones((1, 1, 3, 3), dtype=np.float32))
        b = Tensor(np.zeros(1, dtype=np.float32))
        with pytest.raises(ValueError, match="not integral"):
            conv2d(x, w, b, stride=2)

    def test_channel_mismatch_rejected(self):
        x = Tensor(np.ones((1, 3, 5, 5), dtype=np.float32))
        w = Tensor(np.ones((1, 2, 3, 3), dtype=np.float32))
        b = Tensor(np.zeros(1, dtype=np.float32))
        with pytest.raises(ValueError, match="channel mismatch"):
            conv2d(x, w, b)

    def test_grad_small(self):
        prng = Prng(31)
        x, w, b = rand(prng, 1, 2, 5, 5), rand(prng, 3, 2, 3, 3), rand(prng, 3)
        err = grad_check(lambda x_, w_, b_: weighted_sum(
            conv2d(x_, w_, b_, pad=1), Prng(1)), [x, w, b])
        assert err < 1e-3

    def test_grad_strided_dilated(self):
        prng = Prng(32)
        for k in (3, 1):
            x, w, b = rand(prng, 2, 2, 7, 7), rand(prng, 2, 2, k, k), rand(prng, 2)
            err = grad_check(lambda x_, w_, b_: weighted_sum(
                conv2d(x_, w_, b_, stride=2, pad=2, dilation=2), Prng(2)), [x, w, b])
            assert err < 1e-3


class TestMaxPool:
    def test_hand_case_2x2(self):
        x = Tensor(np.array([[1, 2], [3, 4]], dtype=np.float32).reshape(1, 1, 2, 2))
        np.testing.assert_array_equal(max_pool2d(x).data, [[[[4.0]]]])

    def test_matches_loop_oracle(self):
        prng = Prng(41)
        x = prng.normal((2, 3, 8, 8))
        np.testing.assert_array_equal(max_pool2d(Tensor(x)).data, maxpool_loops(x))

    def test_constant_input_stays_constant(self):
        x = Tensor(np.full((1, 2, 4, 4), 0.7, dtype=np.float32))
        np.testing.assert_array_equal(max_pool2d(x).data,
                                      np.full((1, 2, 2, 2), 0.7, dtype=np.float32))

    def test_tie_routes_grad_to_first_occurrence(self):
        """All-equal window: only the top-left element receives gradient."""
        x = Tensor(np.ones((1, 1, 2, 2), dtype=np.float32), requires_grad=True)
        backward(sum_all(max_pool2d(x)))
        np.testing.assert_array_equal(
            x.grad, np.array([[[[1, 0], [0, 0]]]], dtype=np.float32))

    def test_non_tiling_rejected(self):
        x = Tensor(np.ones((1, 1, 5, 4), dtype=np.float32))
        with pytest.raises(ValueError, match="tile"):
            max_pool2d(x)

    def test_grad(self):
        prng = Prng(42)
        x = rand(prng, 2, 2, 6, 6)
        err = grad_check(lambda x_: weighted_sum(max_pool2d(x_), Prng(3)), [x])
        assert err < 1e-3


class TestUpsampleBilinear:
    def test_hand_case_1x2_to_1x4(self):
        """Half-pixel centers: [[0,1]] widens to [0, 0.25, 0.75, 1]."""
        x = Tensor(np.array([[0.0, 1.0]], dtype=np.float32).reshape(1, 1, 1, 2))
        out = upsample_bilinear(x, 1, 4)
        np.testing.assert_allclose(out.data[0, 0, 0], [0.0, 0.25, 0.75, 1.0],
                                   atol=1e-7)

    def test_same_size_is_exact_identity(self):
        prng = Prng(5)
        x = Tensor(prng.normal((1, 3, 5, 7)))
        np.testing.assert_array_equal(upsample_bilinear(x, 5, 7).data, x.data)

    def test_constant_stays_constant(self):
        x = Tensor(np.full((1, 1, 3, 3), 0.3, dtype=np.float32))
        np.testing.assert_allclose(upsample_bilinear(x, 7, 9).data, 0.3, rtol=1e-6)

    def test_matches_loop_oracle(self):
        prng = Prng(51)
        x = prng.normal((2, 2, 3, 5))
        got = upsample_bilinear(Tensor(x), 7, 8).data
        np.testing.assert_allclose(got, bilinear_loops(x, 7, 8), rtol=1e-5, atol=1e-6)

    def test_downsample_rejected(self):
        x = Tensor(np.ones((1, 1, 4, 4), dtype=np.float32))
        with pytest.raises(ValueError, match="smaller"):
            upsample_bilinear(x, 2, 4)

    def test_grad(self):
        prng = Prng(52)
        x = rand(prng, 1, 2, 3, 4)
        err = grad_check(lambda x_: weighted_sum(
            upsample_bilinear(x_, 6, 7), Prng(4)), [x])
        assert err < 1e-3


class TestBatchNorm:
    @staticmethod
    def fresh(c):
        gamma = Tensor(np.ones(c, dtype=np.float32), requires_grad=True)
        beta = Tensor(np.zeros(c, dtype=np.float32), requires_grad=True)
        rm = Tensor(np.zeros(c, dtype=np.float32))
        rv = Tensor(np.ones(c, dtype=np.float32))
        return gamma, beta, rm, rv

    def test_standardized_input_passes_through(self):
        """Per-channel mean-0 var-1 input comes out scaled by 1/sqrt(1+eps)."""
        prng = Prng(6)
        x = prng.normal((4, 2, 8, 8)).astype(np.float64)
        x = (x - x.mean(axis=(0, 2, 3), keepdims=True)) / x.std(axis=(0, 2, 3),
                                                                keepdims=True)
        x = x.astype(np.float32)
        gamma, beta, rm, rv = self.fresh(2)
        out = batch_norm(Tensor(x), gamma, beta, rm, rv, training=True)
        np.testing.assert_allclose(out.data, x / np.sqrt(1.0 + 1e-5),
                                   rtol=1e-4, atol=1e-5)

    def test_gamma_zero_gives_beta(self):
        prng = Prng(61)
        x = Tensor(prng.normal((2, 3, 4, 4)))
        gamma, beta, rm, rv = self.fresh(3)
        gamma.data[:] = 0.0
        beta.data[:] = [1.0, -2.0, 0.5]
        out = batch_norm(x, gamma, beta, rm, rv, training=True)
        np.testing.assert_allclose(
            out.data, np.broadcast_to(beta.data[None, :, None, None], x.data.shape),
            atol=1e-7)

    def test_matches_loop_oracle(self):
        prng = Prng(62)
        x = prng.normal((3, 4, 5, 5))
        gamma = prng.normal((4,))
        beta = prng.normal((4,))
        g, b, rm, rv = self.fresh(4)
        g.data[:] = gamma
        b.data[:] = beta
        out = batch_norm(Tensor(x), g, b, rm, rv, training=True)
        np.testing.assert_allclose(out.data, batchnorm_train_loops(x, gamma, beta),
                                   rtol=1e-4, atol=1e-5)

    def test_running_stats_update_rule(self):
        """running <- 0.9*running + 0.1*batch with the biased batch variance."""
        prng = Prng(63)
        x = prng.normal((4, 2, 6, 6))
        gamma, beta, rm, rv = self.fresh(2)
        rm.data[:] = [1.0, -1.0]
        rv.data[:] = [2.0, 3.0]
        batch_norm(Tensor(x), gamma, beta, rm, rv, training=True)
        mu = x.mean(axis=(0, 2, 3))
        var = x.var(axis=(0, 2, 3))
        np.testing.assert_allclose(rm.data, 0.9 * np.array([1.0, -1.0]) + 0.1 * mu,
                                   rtol=1e-5)
        np.testing.assert_allclose(rv.data, 0.9 * np.array([2.0, 3.0]) + 0.1 * var,
                                   rtol=1e-5)

    def test_eval_mode_uses_running_stats_only(self):
        prng = Prng(64)
        x = prng.normal((2, 2, 4, 4))
        gamma, beta, rm, rv = self.fresh(2)
        rm.data[:] = [0.5, -0.5]
        rv.data[:] = [4.0, 0.25]
        out = batch_norm(Tensor(x), gamma, beta, rm, rv, training=False)
        want = (x - rm.data[None, :, None, None]) / np.sqrt(
            rv.data[None, :, None, None] + 1e-5)
        np.testing.assert_allclose(out.data, want, rtol=1e-5)
        # and the buffers did not move
        np.testing.assert_array_equal(rm.data, [0.5, -0.5])

    def test_grad_training_mode(self):
        prng = Prng(65)
        x = rand(prng, 2, 3, 4, 4)
        gamma = Tensor(prng.normal((3,)), requires_grad=True)
        beta = Tensor(prng.normal((3,)), requires_grad=True)
        _, _, rm, rv = self.fresh(3)
        err = grad_check(lambda x_, g_, b_: weighted_sum(
            batch_norm(x_, g_, b_, rm, rv, training=True), Prng(5)),
            [x, gamma, beta])
        assert err < 1e-3


class TestActivations:
    def test_relu_values(self):
        x = Tensor(np.array([-3.0, 0.0, 3.0], dtype=np.float32))
        np.testing.assert_array_equal(relu(x).data, [0.0, 0.0, 3.0])

    def test_relu_grad_zero_at_zero(self):
        x = Tensor(np.array([-1.0, 0.0, 2.0], dtype=np.float32), requires_grad=True)
        backward(sum_all(relu(x)))
        np.testing.assert_array_equal(x.grad, [0.0, 0.0, 1.0])

    def test_sigmoid_center(self):
        x = Tensor(np.zeros(3, dtype=np.float32))
        np.testing.assert_array_equal(sigmoid(x).data, np.full(3, 0.5))

    def test_sigmoid_saturates_exactly(self):
        """Extreme logits land on exact 0.0 / 1.0 without overflow warnings."""
        x = Tensor(np.array([-1e4, 1e4], dtype=np.float32))
        with np.errstate(over="raise"):
            out = sigmoid(x).data
        assert out[0] == 0.0 and out[1] == 1.0

    def test_sigmoid_symmetry(self):
        prng = Prng(71)
        z = prng.normal((100,), std=4.0)
        s = sigmoid(Tensor(z)).data + sigmoid(Tensor(-z)).data
        np.testing.assert_allclose(s, 1.0, atol=1e-6)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown activation"):
            activation(Tensor(np.zeros(1, dtype=np.float32)), "tanh")

    def test_grads(self):
        prng = Prng(72)
        x = rand(prng, 1, 2, 3, 3)
        assert grad_check(lambda x_: weighted_sum(relu(x_), Prng(6)), [x]) < 1e-3
        y = rand(prng, 1, 2, 3, 3)
        assert grad_check(lambda y_: weighted_sum(sigmoid(y_), Prng(7)), [y]) < 1e-3


class TestChannelOps:
    def test_gap_constant_map(self):
        x = Tensor(np.full((1, 2, 4, 4), 0.25, dtype=np.float32))
        np.testing.assert_allclose(global_avg_pool(x).data.reshape(-1), [0.25, 0.25])

    def test_gap_matches_mean(self):
        prng = Prng(81)
        x = prng.normal((2, 3, 5, 5))
        np.testing.assert_allclose(global_avg_pool(Tensor(x)).data,
                                   x.mean(axis=(2, 3), keepdims=True), rtol=1e-6)

    def test_channel_pool_single_channel_identity(self):
        prng = Prng(82)
        x = Tensor(prng.normal((1, 1, 3, 3)))
        np.testing.assert_array_equal(channel_pool(x, "avg").data, x.data)
        np.testing.assert_array_equal(channel_pool(x, "max").data, x.data)

    def test_channel_pool_hand_case(self):
        x = Tensor(np.array([1.0, 3.0], dtype=np.float32).reshape(1, 2, 1, 1))
        assert channel_pool(x, "avg").data[0, 0, 0, 0] == 2.0
        assert channel_pool(x, "max").data[0, 0, 0, 0] == 3.0

    def test_channel_pool_grads(self):
        prng = Prng(83)
        for mode, key in (("avg", 8), ("max", 9)):
            x = rand(prng, 2, 3, 3, 3)
            err = grad_check(lambda x_: weighted_sum(
                channel_pool(x_, mode), Prng(key)), [x])
            assert err < 1e-3, mode

    def test_gap_grad(self):
        prng = Prng(84)
        x = rand(prng, 2, 3, 4, 4)
        assert grad_check(lambda x_: weighted_sum(
            global_avg_pool(x_), Prng(10)), [x]) < 1e-3


class TestMulBroadcast:
    def test_ones_identity(self):
        prng = Prng(91)
        x = Tensor(prng.normal((1, 3, 4, 4)))
        ones = Tensor(np.ones((1, 3, 1, 1), dtype=np.float32))
        np.testing.assert_array_equal(mul_broadcast(x, ones).data, x.data)

    def test_zeros_annihilate(self):
        prng = Prng(92)
        x = Tensor(prng.normal((1, 3, 4, 4)))
        zeros = Tensor(np.zeros((1, 1, 4, 4), dtype=np.float32))
        np.testing.assert_array_equal(mul_broadcast(x, zeros).data,
                                      np.zeros_like(x.data))

    def test_channel_gate_matches_loop(self):
        prng = Prng(93)
        x = prng.normal((2, 4, 5, 5))
        gate = prng.normal((2, 4, 1, 1))
        got = mul_broadcast(Tensor(x), Tensor(gate)).data
        want = np.empty_like(x)
        for n in range(2):
            for c in range(4):
                want[n, c] = x[n, c] * gate[n, c, 0, 0]
        np.testing.assert_array_equal(got, want)

    def test_incompatible_shape_rejected(self):
        x = Tensor(np.ones((1, 3, 4, 4), dtype=np.float32))
        a = Tensor(np.ones((1, 2, 1, 1), dtype=np.float32))
        with pytest.raises(ValueError, match="incompatible"):
            mul_broadcast(x, a)

    def test_grads_both_gate_shapes(self):
        prng = Prng(94)
        for gshape, key in (((2, 3, 1, 1), 11), ((2, 1, 4, 4), 12)):
            x = rand(prng, 2, 3, 4, 4)
            a = Tensor(prng.normal(gshape), requires_grad=True)
            err = grad_check(lambda x_, a_: weighted_sum(
                mul_broadcast(x_, a_), Prng(key)), [x, a])
            assert err < 1e-3, gshape


class TestConcat:
    def test_shapes(self):
        a = Tensor(np.ones((1, 2, 4, 4), dtype=np.float32))
        b = Tensor(np.ones((1, 3, 4, 4), dtype=np.float32))
        assert concat_channels([a, b]).data.shape == (1, 5, 4, 4)

    def test_single_tensor_identity(self):
        prng = Prng(101)
        x = Tensor(prng.normal((1, 2, 3, 3)))
        np.testing.assert_array_equal(concat_channels([x]).data, x.data)

    def test_backward_splits_gradient(self):
        """Concat then reduce: each input recovers exactly its channel slice."""
        prng = Prng(102)
        a = Tensor(prng.normal((1, 2, 3, 3)), requires_grad=True)
        b = Tensor(prng.normal((1, 3, 3, 3)), requires_grad=True)
        w = Tensor(prng.normal((1, 5, 3, 3)))
        backward(sum_all(mul_broadcast(concat_channels([a, b]), w)))
        np.testing.assert_allclose(a.grad, w.data[:, :2], rtol=1e-6)
        np.testing.assert_allclose(b.grad, w.data[:, 2:], rtol=1e-6)

    def test_spatial_mismatch_rejected(self):
        a = Tensor(np.ones((1, 1, 4, 4), dtype=np.float32))
        b = Tensor(np.ones((1, 1, 3, 4), dtype=np.float32))
        with pytest.raises(ValueError, match="mismatch"):
            concat_channels([a, b])

    @given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4))
    @settings(max_examples=20, deadline=None)
    def test_channel_count_adds(self, c1, c2):
        a = Tensor(np.zeros((1, c1, 2, 2), dtype=np.float32))
        b = Tensor(np.zeros((1, c2, 2, 2), dtype=np.float32))
        assert concat_channels([a, b]).data.shape[1] == c1 + c2


class TestLinear:
    def test_identity_weight(self):
        x = Tensor(np.array([2.0, 3.0], dtype=np.float32).reshape(1, 2, 1, 1))
        w = Tensor(np.eye(2, dtype=np.float32))
        b = Tensor(np.zeros(2, dtype=np.float32))
        np.testing.assert_array_equal(linear(x, w, b).data, x.data)

    def test_hand_case_sum(self):
        x = Tensor(np.array([2.0, 3.0], dtype=np.float32).reshape(1, 2, 1, 1))
        w = Tensor(np.array([[1.0, 1.0]], dtype=np.float32))
        b = Tensor(np.zeros(1, dtype=np.float32))
        assert linear(x, w, b).data[0, 0, 0, 0] == 5.0

    def test_spatial_dims_must_be_1x1(self):
        x = Tensor(np.ones((1, 2, 2, 2), dtype=np.float32))
        w = Tensor(np.eye(2, dtype=np.float32))
        b = Tensor(np.zeros(2, dtype=np.float32))
        with pytest.raises(ValueError, match="1x1"):
            linear(x, w, b)

    def test_grad(self):
        prng = Prng(111)
        x = rand(prng, 3, 4, 1, 1)
        w = Tensor(prng.normal((2, 4)), requires_grad=True)
        b = Tensor(prng.normal((2,)), requires_grad=True)
        err = grad_check(lambda x_, w_, b_: weighted_sum(
            linear(x_, w_, b_), Prng(13)), [x, w, b])
        assert err < 1e-3


class TestBceLoss:
    def test_half_prediction_gives_ln2(self):
        pred = Tensor(np.full((1, 1, 2, 2), 0.5, dtype=np.float32))
        target = Tensor(np.array([[0, 1], [1, 0]], dtype=np.float32).reshape(1, 1, 2, 2))
        loss = bce_loss(pred, target)
        np.testing.assert_allclose(float(loss.data), math.log(2.0), rtol=1e-6)

    def test_confident_correct(self):
        pred = Tensor(np.full((1, 1, 1, 1), 0.9, dtype=np.float32))
        target = Tensor(np.ones((1, 1, 1, 1), dtype=np.float32))
        np.testing.assert_allclose(float(bce_loss(pred, target).data),
                                   0.105360545, rtol=1e-5)

    def test_clamp_keeps_loss_finite(self):
        """Exactly-wrong saturated predictions cost about -ln(clamp), not inf."""
        pred = Tensor(np.array([0.0, 1.0], dtype=np.float32).reshape(1, 1, 1, 2))
        target = Tensor(np.array([1.0, 0.0], dtype=np.float32).reshape(1, 1, 1, 2))
        loss = float(bce_loss(pred, target).data)
        assert math.isfinite(loss)
        np.testing.assert_allclose(loss, -math.log(1e-7), rtol=0.02)

    def test_saturated_predictions_get_zero_grad(self):
        pred = Tensor(np.array([0.0, 0.5, 1.0], dtype=np.float32).reshape(1, 1, 1, 3),
                      requires_grad=True)
        target = Tensor(np.zeros((1, 1, 1, 3), dtype=np.float32))
        backward(bce_loss(pred, target))
        assert pred.grad[0, 0, 0, 0] == 0.0
        assert pred.grad[0, 0, 0, 2] == 0.0
        assert pred.grad[0, 0, 0, 1] != 0.0

    def test_matches_f64_oracle(self):
        prng = Prng(121)
        p = np.clip(prng.normal((1, 1, 6, 6), std=0.2) + 0.5, 0.0, 1.0)
        t = (prng.normal((1, 1, 6, 6)) > 0).astype(np.float32)
        got = float(bce_loss(Tensor(p.astype(np.float32)), Tensor(t)).data)
        np.testing.assert_allclose(got, bce_f64(p, t), rtol=1e-5)

    def test_grad_interior(self):
        prng = Prng(122)
        p = Tensor(np.clip(prng.normal((1, 1, 4, 4), std=0.15) + 0.5,
                           0.05, 0.95).astype(np.float32), requires_grad=True)
        t = Tensor((prng.normal((1, 1, 4, 4)) > 0).astype(np.float32))
        err = grad_check(lambda p_: bce_loss(p_, t), [p], promote=[t])
        assert err < 1e-3


class TestGradCheckHarness:
    def test_linear_loss_has_zero_error(self):
        """sum(x) is linear, so central differences are exact up to rounding."""
        x = Tensor(np.arange(6, dtype=np.float32).reshape(1, 1, 2, 3),
                   requires_grad=True)
        assert grad_check(lambda x_: sum_all(x_), [x]) < 1e-9

    def test_restores_float32_data(self):
        x = Tensor(np.ones((1, 1, 2, 2), dtype=np.float32), requires_grad=True)
        grad_check(lambda x_: sum_all(x_), [x])
        assert x.data.dtype == np.float32

    def test_detects_a_wrong_gradient(self):
        """A deliberately broken backward rule must produce a large error."""
        x = Tensor(np.array([0.3, -0.7, 1.2], dtype=np.float32), requires_grad=True)

        def broken(x_):
            out = sum_all(relu(x_))
            inner = out._backward

            def wrong(g):
                x_.accum_grad(np.full_like(x_.data, 0.123))
            out._backward = wrong if inner is not None else None
            return out

        assert grad_check(broken, [x]) > 0.1

    def test_builds_one_graph_and_restores_the_flags(self):
        """Only the analytic pass builds a graph; every perturbed evaluation
        runs on constants."""
        prng = Prng(123)
        x, w, b = rand(prng, 1, 2, 4, 4), rand(prng, 3, 2, 3, 3), rand(prng, 3)
        b.requires_grad = False
        graphs = []

        def build(x_, w_, b_):
            out = sum_all(relu(conv2d(x_, w_, b_, pad=1)))
            graphs.append(out._backward is not None)
            return out

        grad_check(build, [x, w, b])
        assert graphs.count(True) == 1 and graphs[0]
        assert len(graphs) == 1 + 2 * (x.data.size + w.data.size + b.data.size)
        assert (x.requires_grad, w.requires_grad, b.requires_grad) == (True, True, False)
