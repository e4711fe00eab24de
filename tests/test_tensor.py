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

from nuseg import tensor
from nuseg.prng import Prng
from nuseg.tensor import (Tape, Tensor, activation, add, backward, batch_norm,
                          bce_loss, channel_pool, concat_channels, conv2d,
                          global_avg_pool, grad_check, linear, max_pool2d,
                          mul_broadcast, relu, scale, sigmoid, sum_all,
                          upsample_bilinear, zero_grads)

import test_acceptance as acceptance
from oracles import (batchnorm_bits_reference, batchnorm_train_loops, bce_f64,
                     bilinear_loops, conv2d_loops, grad_check_loops,
                     interp_matrix_bits_reference, linear_loops, maxpool_grad_loops,
                     maxpool_loops)


def rand(prng, *shape):
    return Tensor(prng.normal(shape), requires_grad=True)


def weighted_sum(out, prng):
    """Scalar loss with fixed random weights, so no gradient can hide by
    cancelling against its neighbors."""
    if out.data.ndim != 4:
        return sum_all(out)
    w = Tensor(prng.normal(out.data.shape).astype(out.data.dtype))
    return sum_all(mul_broadcast(out, w))


def cell_bound(cell) -> bool:
    """False for a closure cell whose name the call never bound."""
    try:
        cell.cell_contents
    except ValueError:
        return False
    return True


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
        "conv2d_no_bias": (lambda x, w: conv2d(x, w, None, pad=1),
                           [r(1, 2, 4, 4), r(3, 2, 3, 3)]),
        "linear_no_bias": (lambda x, w: linear(x, w, None), [r(2, 4, 1, 1), r(3, 4)]),
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

    def test_rank0_results_keep_float64(self):
        """`scale` and `add` of a rank-0 float64 tensor stay float64, so a
        loss that sums weighted scalars grad-checks in double precision."""
        x = Tensor(Prng(31).normal((1, 1, 4, 4)))
        x64 = Tensor(x.data.astype(np.float64))
        assert scale(sum_all(x64), 0.5).dtype == np.float64
        assert add(sum_all(x64), sum_all(x64)).dtype == np.float64
        err = grad_check(lambda t: add(sum_all(t), scale(sum_all(t), 0.5)), [x], eps=1e-5)
        assert err < 1e-3

    def test_repeat_backward_accumulates(self):
        x = Tensor(np.ones((1, 1, 2, 2), dtype=np.float32), requires_grad=True)
        loss = sum_all(x)
        backward(loss)
        zero_grads([loss])
        backward(loss)
        np.testing.assert_array_equal(x.grad, 2 * np.ones_like(x.data))

    def test_backward_releases_interior_grads(self):
        """After `backward` only the leaves hold a grad. Those grads are bit
        for bit the ones a walk that keeps every interior grad gives, and a
        second `backward` over the same graph doubles them."""
        prng = Prng(17)
        arrays = [prng.normal((2, 2, 5, 5)), prng.normal((3, 2, 3, 3)), prng.normal((3,)),
                  1.0 + prng.uniform_array(3), prng.normal((3,))]

        def build():
            x, w, b, gamma, beta = leaves = [Tensor(a.copy(), requires_grad=True)
                                             for a in arrays]
            rm, rv = Tensor(np.zeros(3, np.float32)), Tensor(np.ones(3, np.float32))
            with Tape() as tape:
                loss = sum_all(relu(batch_norm(conv2d(x, w, b, pad=1), gamma, beta, rm, rv)))
            return loss, leaves, [r.output for r in tape.ops]

        loss, leaves, interior = build()
        backward(loss)
        assert len(interior) == 4
        assert all(t._backward is not None and t.grad is None for t in interior)
        first = [t.grad.copy() for t in leaves]

        ref_loss, ref_leaves, ref_interior = build()
        ref_loss.accum_grad(np.ones_like(ref_loss.data))
        for t in reversed(ref_interior):  # tape order is creation order
            t._backward(t.grad)
        assert all(t.grad is not None for t in ref_interior)
        for got, ref in zip(first, ref_leaves):
            np.testing.assert_array_equal(got, ref.grad)

        backward(loss)
        for t, g in zip(leaves, first):
            np.testing.assert_array_equal(t.grad, 2 * g)

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

    def test_tape_inputs_of_bias_free_ops(self):
        prng = Prng(8)
        x, w = Tensor(prng.normal((1, 2, 4, 4))), Tensor(prng.normal((3, 2, 3, 3)))
        v, m = Tensor(prng.normal((2, 3, 1, 1))), Tensor(prng.normal((4, 3)))
        with Tape() as tape:
            conv2d(x, w, None, pad=1)
            linear(v, m, None)
        assert [r.inputs for r in tape.ops] == [(x, w), (v, m)]


# (x shape, k, stride, pad, dilation, dtype, transposed input)
CONV_LAYOUTS = [
    ((1, 2, 9, 13), 3, 2, 0, 2, np.float32, False),
    ((3, 2, 6, 5), 3, 1, 1, 1, np.float32, False),
    ((2, 3, 7, 6), 3, 1, 2, 2, np.float64, False),
    ((2, 2, 8, 5), 3, 1, 1, 1, np.float32, True),
    ((2, 3, 5, 4), 1, 1, 1, 1, np.float32, False),
]
CONV_LAYOUT_IDS = ["nonsquare_pad0_dil2_stride2", "batch3", "float64", "transposed_view",
                   "1x1_pad1"]


def conv_layout_inputs(case):
    shape, k, _, _, _, dtype, transposed = case
    prng = Prng(22)
    x = prng.normal(shape).astype(dtype)
    if transposed:
        x = np.ascontiguousarray(x.transpose(0, 1, 3, 2)).transpose(0, 1, 3, 2)
        assert not x.flags.c_contiguous
    w = prng.normal((4, shape[1], k, k)).astype(dtype)
    b = prng.normal((4,)).astype(dtype)
    return x, w, b


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
                # b None sums from 0: the oracle without a bias, and a zero
                # bias bit for bit
                got = conv2d(Tensor(x), Tensor(w), None,
                             stride=stride, pad=pad, dilation=dil).data
                want = conv2d_loops(x, w, None, stride=stride, pad=pad, dilation=dil)
                np.testing.assert_allclose(got, want, rtol=2e-5, atol=2e-5)
                zero = conv2d(Tensor(x), Tensor(w), Tensor(np.zeros(4, np.float32)),
                              stride=stride, pad=pad, dilation=dil).data
                np.testing.assert_array_equal(got, zero)

    @pytest.mark.parametrize("case", CONV_LAYOUTS, ids=CONV_LAYOUT_IDS)
    def test_matches_loop_oracle_layouts(self, case):
        _, _, stride, pad, dil, dtype, _ = case
        x, w, b = conv_layout_inputs(case)
        got = conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, pad=pad, dilation=dil).data
        want = conv2d_loops(x, w, b, stride=stride, pad=pad, dilation=dil)
        assert got.dtype == dtype
        np.testing.assert_allclose(got, want, rtol=2e-5, atol=2e-5)

    # budgets, in bytes, at which every window GEMM of the case ends on a partial chunk
    @pytest.mark.parametrize("case, budget", list(zip(CONV_LAYOUTS, (900, 1728, 1728, 900, 900))),
                             ids=CONV_LAYOUT_IDS)
    def test_window_column_chunks(self, case, budget, monkeypatch):
        """A window budget of a kilobyte or two splits each of the three
        window GEMMs (forward, dW, dX) into several column chunks, the last
        one partial: the output still matches the loop oracle, the gradients
        pass grad_check, and all four agree with the one-chunk run."""
        _, _, stride, pad, dil, dtype, _ = case
        x, w, b = conv_layout_inputs(case)

        def conv(x_, w_, b_):
            return conv2d(x_, w_, b_, stride=stride, pad=pad, dilation=dil)

        def run():
            leaves = [Tensor(a.copy(), requires_grad=True) for a in (x, w, b)]
            out = conv(*leaves)
            backward(weighted_sum(out, Prng(7)))
            return [out.data] + [t.grad for t in leaves]

        whole = run()
        widths = []
        chunks = tensor._window_chunks

        def spy(*args):
            got = list(chunks(*args))
            widths.append([hi - lo for lo, hi, _ in got])
            return iter(got)

        monkeypatch.setattr(tensor, "_WINDOW_BYTES", budget)
        monkeypatch.setattr(tensor, "_window_chunks", spy)
        split = run()
        assert len(widths) == 3  # forward, dW, dX
        for cols in widths:
            assert len(cols) > 1 and cols[-1] < cols[0]
        np.testing.assert_allclose(split[0], conv2d_loops(x, w, b, stride=stride, pad=pad,
                                                          dilation=dil), rtol=2e-5, atol=2e-5)
        for got, want in zip(split, whole):
            assert got.dtype == want.dtype == dtype
            assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max()
        leaves = [Tensor(a.copy(), requires_grad=True) for a in (x, w, b)]
        assert grad_check(lambda *ls: weighted_sum(conv(*ls), Prng(7)), leaves) < 1e-3

    def test_output_is_c_contiguous(self):
        prng = Prng(23)
        for k, pad in ((3, 1), (1, 0)):
            x, w, b = rand(prng, 2, 3, 6, 7), rand(prng, 4, 3, k, k), rand(prng, 4)
            assert conv2d(x, w, b, pad=pad).data.flags.c_contiguous
        for k, pad, stride in ((3, 1, 1), (1, 0, 1), (3, 1, 2), (1, 1, 1)):
            x, w = rand(prng, 2, 3, 7, 9), rand(prng, 4, 3, k, k)
            assert conv2d(x, w, None, stride=stride, pad=pad).data.flags.c_contiguous

    def test_bias_shape_rejected(self):
        x = Tensor(np.ones((1, 1, 4, 4), dtype=np.float32))
        w = Tensor(np.ones((2, 1, 3, 3), dtype=np.float32))
        for b in (np.zeros(3, np.float32), np.zeros((2, 1), np.float32)):
            with pytest.raises(ValueError, match="bias shape"):
                conv2d(x, w, Tensor(b), pad=1)

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

    def test_grad_nonsquare_unpadded_dilated(self):
        prng = Prng(33)
        x, w, b = rand(prng, 2, 2, 7, 9), rand(prng, 3, 2, 3, 3), rand(prng, 3)
        err = grad_check(lambda x_, w_, b_: weighted_sum(
            conv2d(x_, w_, b_, pad=0, dilation=2), Prng(4)), [x, w, b])
        assert err < 1e-3

    def test_grad_no_bias(self):
        prng = Prng(34)
        for k, stride, pad, dil in ((3, 1, 1, 1), (3, 2, 2, 2), (1, 2, 2, 2)):
            x, w = rand(prng, 2, 2, 7, 7), rand(prng, 3, 2, k, k)
            err = grad_check(lambda x_, w_: weighted_sum(
                conv2d(x_, w_, None, stride=stride, pad=pad, dilation=dil), Prng(5)), [x, w])
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

    @pytest.mark.parametrize("h,w", [(4, 5), (4, 3), (1, 4), (4, 1), (0, 4), (4, 0)])
    def test_odd_or_short_sides_rejected(self, h, w):
        with pytest.raises(ValueError, match="tile"):
            max_pool2d(Tensor(np.ones((1, 1, h, w), dtype=np.float32)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_ties_match_loop_oracles(self, dtype):
        """Values from {0, 1, 2} tie inside most windows; every pair of taps
        ties at the window max somewhere, and the gradient goes to the first."""
        prng = Prng(43)
        shape = (3, 2, 8, 6)
        x = np.floor(prng.uniform_array(math.prod(shape)) * 3).reshape(shape).astype(dtype)
        taps = [x[..., i::2, j::2] for i in (0, 1) for j in (0, 1)]
        top = np.maximum.reduce(taps)
        for a in range(4):
            for b in range(a + 1, 4):
                assert ((taps[a] == top) & (taps[b] == top)).any(), (a, b)
        xt = Tensor(x, requires_grad=True)
        out = max_pool2d(xt)
        assert out.data.dtype == dtype
        np.testing.assert_array_equal(out.data, maxpool_loops(x))
        g = prng.normal(out.data.shape).astype(dtype)
        backward(sum_all(mul_broadcast(out, Tensor(g))))
        np.testing.assert_array_equal(xt.grad, maxpool_grad_loops(x, g))

    def test_output_is_c_contiguous_and_taped(self):
        x = Tensor(Prng(44).normal((2, 3, 6, 4)))
        with Tape() as tape:
            out = max_pool2d(x)
        assert out.data.flags["C_CONTIGUOUS"]
        assert out.data.shape == (2, 3, 3, 2)
        assert tape.names() == ["max_pool2d"]

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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n_in, n_out", [(1, 4), (3, 7), (5, 5)])
    def test_interp_matrix_bits_equal_the_add_at_reference(self, n_in, n_out, dtype):
        got = tensor._interp_matrix(n_in, n_out, dtype)
        want = interp_matrix_bits_reference(n_in, n_out, dtype)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_interp_matrix_is_shared_and_read_only(self):
        m = tensor._interp_matrix(3, 7, np.dtype(np.float32))
        assert tensor._interp_matrix(3, 7, np.dtype(np.float32)) is m
        assert not m.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            m[0, 0] = 2.0

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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("training", [True, False])
    def test_bits_equal_the_mean_based_reference(self, dtype, training):
        """Output, both running buffers and all three gradients keep the bits
        of the ndarray.mean / .sum spelling, in both modes and dtypes."""
        prng = Prng(66)
        for shape in ((2, 3, 4, 4), (1, 5, 7, 3), (4, 2, 1, 1), (3, 4, 9, 11)):
            c = shape[1]
            x = (prng.normal(shape) * 3.0 + 1.0).astype(dtype)
            gamma, beta, g = (prng.normal(s).astype(dtype) for s in ((c,), (c,), shape))
            rm0 = prng.normal((c,))
            rv0 = prng.uniform_array(c) + np.float32(0.5)
            leaves = [Tensor(a.copy(), requires_grad=True) for a in (x, gamma, beta)]
            rm, rv = Tensor(rm0.copy()), Tensor(rv0.copy())
            out = batch_norm(*leaves, rm, rv, training=training)
            out._backward(g)
            got = [out.data, rm.data, rv.data] + [t.grad for t in leaves]
            want = batchnorm_bits_reference(x, gamma, beta, rm0, rv0, training, g)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("training", [True, False])
    def test_backward_keeps_no_input_sized_array(self, training):
        """The closure recomputes xhat from x.data, so no cell of it holds an
        array as large as the input; in eval mode it reads a copy of the
        running mean taken at the forward, not the buffer."""
        prng = Prng(67)
        x = Tensor(prng.normal((2, 3, 4, 5)), requires_grad=True)
        gamma, beta, rm, rv = self.fresh(3)
        rm.data[:] = [0.5, -0.5, 0.25]
        out = batch_norm(x, gamma, beta, rm, rv, training=training)
        held = [cell.cell_contents for cell in out._backward.__closure__
                if cell_bound(cell)]
        assert not [v.shape for v in held if isinstance(v, np.ndarray) and v.size >= x.data.size]
        g = prng.normal(out.data.shape)
        want = batchnorm_bits_reference(x.data, gamma.data, beta.data, np.array([0.5, -0.5, 0.25],
                                        np.float32), np.ones(3, np.float32), training, g)[3:]
        rm.data[:] = 9.0  # a later training-mode call moves the buffer in place
        out._backward(g)
        for t, ref in zip((x, gamma, beta), want):
            assert t.grad.tobytes() == ref.tobytes()

    def test_repeat_backward_is_bit_identical_in_both_modes(self):
        """A graph with a training-mode and an eval-mode batch norm gives the
        same leaf grads, bit for bit, from every `backward` over it."""
        prng = Prng(68)
        x = rand(prng, 2, 2, 5, 5)
        w = rand(prng, 3, 2, 3, 3)
        g1, b1, rm1, rv1 = self.fresh(3)
        g2, b2, rm2, rv2 = self.fresh(3)
        rm2.data[:] = prng.normal((3,))
        rv2.data[:] = 0.5 + prng.uniform_array(3)
        leaves = [x, w, g1, b1, g2, b2]
        h = batch_norm(conv2d(x, w, None, pad=1), g1, b1, rm1, rv1, training=True)
        loss = weighted_sum(batch_norm(relu(h), g2, b2, rm2, rv2, training=False), Prng(69))
        runs = []
        for _ in range(3):
            zero_grads(leaves)
            backward(loss)
            runs.append([t.grad.tobytes() for t in leaves])
        assert runs[0] == runs[1] == runs[2]

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

    @pytest.mark.parametrize("mutate", ["clear", "refill"])
    def test_backward_ignores_a_later_change_to_the_list(self, mutate):
        """The closure routes the grad to the tensors the call concatenated,
        whatever the caller does to its list afterwards."""
        prng = Prng(103)
        arrays = [prng.normal((1, 2, 3, 3)), prng.normal((1, 3, 3, 3))]
        w = Tensor(prng.normal((1, 5, 3, 3)))

        def grads(change):
            a, b = (Tensor(x.copy(), requires_grad=True) for x in arrays)
            xs = [a, b]
            out = concat_channels(xs)
            change(xs)
            backward(sum_all(mul_broadcast(out, w)))
            return a.grad, b.grad

        def clear(xs):
            xs.clear()

        def refill(xs):
            xs[:] = [Tensor(np.zeros((1, 5, 3, 3), np.float32), requires_grad=True)]

        want = grads(lambda xs: None)
        got = grads(clear if mutate == "clear" else refill)
        for g, ref in zip(got, want):
            assert g is not None and g.tobytes() == ref.tobytes()

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

    def test_matches_loop_oracle_with_and_without_bias(self):
        prng = Prng(112)
        x, w, b = prng.normal((3, 5, 1, 1)), prng.normal((4, 5)), prng.normal((4,))
        for bias in (b, None):
            got = linear(Tensor(x), Tensor(w), None if bias is None else Tensor(bias)).data
            np.testing.assert_allclose(got, linear_loops(x, w, bias), rtol=1e-5, atol=1e-6)

    def test_bias_shape_rejected(self):
        x = Tensor(np.ones((1, 2, 1, 1), dtype=np.float32))
        w = Tensor(np.eye(2, dtype=np.float32))
        with pytest.raises(ValueError, match="bias shape"):
            linear(x, w, Tensor(np.zeros(3, dtype=np.float32)))

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

    def test_grad_no_bias(self):
        prng = Prng(113)
        x = rand(prng, 3, 4, 1, 1)
        w = Tensor(prng.normal((2, 4)), requires_grad=True)
        err = grad_check(lambda x_, w_: weighted_sum(linear(x_, w_, None), Prng(14)), [x, w])
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


def _both_hex(build, leaves, **kw):
    """grad_check and the whole-graph loop on the same graph, as float.hex."""
    got = grad_check(build, leaves, **kw)
    want = grad_check_loops(build, leaves, **kw)
    return float(got).hex(), float(want).hex()


class TestGradCheckReplay:
    """Perturbed evaluations reuse the op outputs that the perturbed leaf
    cannot reach; the error must equal the whole-graph loop's to the bit."""

    @pytest.mark.parametrize("seed", [0, 7, 13])
    def test_c01_graphs_match_the_loop_oracle(self, seed, monkeypatch):
        pairs = []

        def both(build, leaves, **kw):
            pairs.append(_both_hex(build, leaves, **kw))
            return float.fromhex(pairs[-1][0])
        monkeypatch.setattr(acceptance, "grad_check", both)
        acceptance._per_op_errors(seed)
        acceptance._composed_error(seed)
        assert len(pairs) == 20
        assert [got for got, _ in pairs] == [want for _, want in pairs]

    def test_a_leaf_copied_outside_any_op_is_not_replayed(self):
        """The copy is a fresh tensor each time, so no op reading it replays;
        its path carries no analytic grad, which both checkers must report."""
        prng = Prng(31)
        a, b = rand(prng, 1, 2, 3, 3), rand(prng, 1, 2, 3, 3)
        w = Tensor(prng.normal((1, 2, 3, 3)))

        def build(a_, b_):
            copy = Tensor(a_.data.copy())
            return sum_all(mul_broadcast(add(sigmoid(copy), relu(b_)), w))

        got, want = _both_hex(build, [a, b], promote=[w])
        assert got == want and float.fromhex(got) > 0.1

    def test_the_branch_off_the_perturbed_leaf_replays(self):
        """Each branch's ops run in the analytic pass and when its own leaf is
        perturbed; the other leaf's perturbations replay them."""
        prng = Prng(32)
        a, b = rand(prng, 1, 2, 3, 3), rand(prng, 1, 2, 2, 2)
        wa, wb = Tensor(prng.normal((1, 2, 3, 3))), Tensor(prng.normal((1, 2, 4, 4)))

        def build(a_, b_):
            left = sum_all(mul_broadcast(sigmoid(a_), wa))
            right = sum_all(mul_broadcast(scale(upsample_bilinear(b_, 4, 4), 0.5), wb))
            return add(left, right)

        with Tape() as tape:
            got = grad_check(build, [a, b], promote=[wa, wb])
        assert float(got).hex() == float(grad_check_loops(build, [a, b], promote=[wa, wb])).hex()
        names = tape.names()
        assert names.count("sigmoid") == 1 + 2 * a.data.size
        assert names.count("upsample_bilinear") == names.count("scale") == 1 + 2 * b.data.size
        assert names.count("add") == 1 + 2 * (a.data.size + b.data.size)

    def test_a_wrong_backward_below_replayed_ops_is_flagged(self):
        prng = Prng(33)
        a, b = rand(prng, 1, 1, 2, 3), rand(prng, 1, 1, 2, 3)

        def broken(a_, b_):
            out = sum_all(add(relu(a_), sigmoid(b_)))
            if out._backward is not None:
                def wrong(g):
                    b_.accum_grad(np.full_like(b_.data, 0.123))
                out._backward = wrong
            return out

        got, want = _both_hex(broken, [a, b])
        assert got == want and float.fromhex(got) > 0.1

    def test_no_replay_outlives_grad_check(self):
        prng = Prng(34)
        x = rand(prng, 1, 1, 2, 2)
        grad_check(lambda x_: sum_all(relu(x_)), [x])
        assert tensor._Replay._active is None
        calls = []

        def failing(x_):
            calls.append(tensor._Replay._active)
            if len(calls) == 3:
                raise RuntimeError("build failed")
            return sum_all(relu(x_))

        with pytest.raises(RuntimeError, match="build failed"):
            grad_check(failing, [x])
        assert calls[0] is not None and tensor._Replay._active is None
        assert x.data.dtype == np.float32 and x.requires_grad

