"""Residual U-block behavior: wiring, residual identity, receptive field.

The straight-line oracle in oracles.py re-derives the whole forward pass
with loop convolutions and two-pass batch statistics; agreement on random
parameters is the strongest single check of the block's plumbing.
"""

import numpy as np
import pytest

from nuseg.prng import Prng
from nuseg.rsu import (RsuParams, RsuSpec, conv_receptive_field,
                       dilation_schedule, rsu_forward, rsu_receptive_field)
from nuseg.tensor import (Tape, Tensor, backward, mul_broadcast, sum_all,
                          zero_grads)

from oracles import rsu_forward_loops


def make(depth, in_ch, mid_ch, out_ch, mode, seed=0):
    return RsuParams(RsuSpec(depth, in_ch, mid_ch, out_ch, mode), Prng(seed))


class TestSpecValidation:
    def test_depth_floor(self):
        with pytest.raises(ValueError, match="depth"):
            RsuSpec(1, 3, 4, 8, "pooling")

    def test_channel_floor(self):
        with pytest.raises(ValueError, match="mid_ch"):
            RsuSpec(3, 3, 0, 8, "pooling")

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            RsuSpec(3, 3, 4, 8, "strided")

    def test_dilation_schedule_doubling(self):
        assert dilation_schedule(RsuSpec(4, 1, 1, 1, "dilated")) == [1, 2, 4, 8]

    def test_dilation_schedule_pooling(self):
        """Pooling mode dilates only the bottom conv (rate 2)."""
        assert dilation_schedule(RsuSpec(4, 1, 1, 1, "pooling")) == [1, 1, 1, 2]


class TestForwardShape:
    @pytest.mark.parametrize("mode", ["pooling", "dilated"])
    @pytest.mark.parametrize("depth", [2, 3, 4])
    def test_resolution_maintained(self, mode, depth):
        params = make(depth, 3, 2, 4, mode)
        x = Tensor(Prng(5).normal((1, 3, 16, 16)))
        out = rsu_forward(params, x, training=True)
        assert out.data.shape == (1, 4, 16, 16)

    def test_pooling_divisibility_enforced(self):
        params = make(4, 1, 1, 2, "pooling")  # two pool steps -> need /4
        x = Tensor(Prng(1).normal((1, 1, 10, 12)))
        with pytest.raises(ValueError, match="divisible by 4"):
            rsu_forward(params, x, training=True)

    def test_dilated_takes_any_size(self):
        params = make(4, 1, 1, 2, "dilated")
        x = Tensor(Prng(1).normal((1, 1, 10, 13)))
        assert rsu_forward(params, x, training=True).data.shape == (1, 2, 10, 13)

    def test_wrong_in_channels_rejected(self):
        params = make(3, 3, 2, 4, "pooling")
        x = Tensor(Prng(1).normal((1, 2, 8, 8)))
        with pytest.raises(ValueError, match=r"\[N,3,H,W\]"):
            rsu_forward(params, x, training=True)


class TestResidualIdentity:
    @pytest.mark.parametrize("mode", ["pooling", "dilated"])
    def test_zeroed_top_decoder_collapses_to_input_conv(self, mode):
        """With the top decoder kernel and its BN gamma zeroed, the inner U
        contributes relu(beta) = 0 (beta is zero at init), so the block output
        equals the input conv exactly, bit for bit."""
        params = make(3, 3, 2, 4, mode, seed=9)
        top = params.dec_top()
        top.w.data[:] = 0.0
        top.bn.gamma.data[:] = 0.0
        x = Tensor(Prng(10).normal((1, 3, 8, 8)))
        out = rsu_forward(params, x, training=True)
        f = params.conv_in.apply(x, True)
        np.testing.assert_array_equal(out.data, f.data)


class TestOpTrace:
    def test_dilated_mode_never_pools_or_resamples(self):
        params = make(4, 2, 2, 4, "dilated")
        x = Tensor(Prng(2).normal((1, 2, 9, 9)))
        with Tape() as tape:
            rsu_forward(params, x, training=True)
        names = set(tape.names())
        assert "max_pool2d" not in names
        assert "upsample_bilinear" not in names

    def test_pooling_mode_pools_once_per_inner_level(self):
        params = make(4, 2, 2, 4, "pooling")
        x = Tensor(Prng(2).normal((1, 2, 8, 8)))
        with Tape() as tape:
            rsu_forward(params, x, training=True)
        assert tape.names().count("max_pool2d") == 2
        assert tape.names().count("upsample_bilinear") == 2


class TestAgainstStraightLineOracle:
    def test_dilated_matches(self):
        params = make(3, 3, 2, 4, "dilated", seed=33)
        x = Prng(34).normal((1, 3, 16, 16))
        got = rsu_forward(params, Tensor(x), training=True).data
        want = rsu_forward_loops(params, x)
        np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-5)

    def test_pooling_matches(self):
        params = make(3, 2, 2, 3, "pooling", seed=35)
        x = Prng(36).normal((1, 2, 8, 8))
        got = rsu_forward(params, Tensor(x), training=True).data
        want = rsu_forward_loops(params, x)
        np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-5)


class TestGradientFlow:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_every_parameter_receives_gradient(self, seed):
        """One backward pass on a random loss gives every trainable (conv
        weights and BN gamma/beta; no conv carries a bias) a non-zero
        gradient."""
        params = make(3, 2, 2, 3, "dilated", seed=seed)
        x = Tensor(Prng(100 + seed).normal((2, 2, 8, 8)))
        trainables = params.trainables()
        zero_grads(trainables)
        out = rsu_forward(params, x, training=True)
        w = Tensor(Prng(200 + seed).normal(out.data.shape))
        backward(sum_all(mul_broadcast(out, w)))
        for i, t in enumerate(trainables):
            assert t.grad is not None, f"param {i}"
            assert np.any(t.grad != 0), f"param {i}"


class TestReceptiveField:
    def test_single_conv_values(self):
        assert conv_receptive_field(3, 1) == 3
        assert conv_receptive_field(3, 2) == 5

    def test_dilated_closed_form(self):
        """Doubling dilations stack as 1 + 2*(1+1+2+4+...): depth 4 gives 47."""
        assert rsu_receptive_field(RsuSpec(4, 1, 1, 1, "dilated")) == 47
        assert rsu_receptive_field(RsuSpec(2, 1, 1, 1, "dilated")) == 11

    def test_dilated_probe_matches_walk(self):
        """Empirical check: perturbing the input at the claimed radius moves
        the center output; one pixel further out does not. Eval-mode BN keeps
        the forward local; positive weights keep every relu active."""
        spec = RsuSpec(3, 1, 1, 1, "dilated")
        rf = rsu_receptive_field(spec)  # 23 -> radius 11
        radius = (rf - 1) // 2
        params = RsuParams(spec, Prng(0))
        for unit in ([params.conv_in] + params.encs + [params.bottom] + params.decs):
            unit.w.data[:] = 0.05
        size = rf + 8
        center = size // 2
        x = np.full((1, 1, size, size), 0.1, dtype=np.float32)

        def center_out(arr):
            return float(rsu_forward(params, Tensor(arr), training=False)
                         .data[0, 0, center, center])

        base = center_out(x)
        inside = x.copy()
        inside[0, 0, center, center + radius] += 1.0
        outside = x.copy()
        outside[0, 0, center, center + radius + 1] += 1.0
        assert center_out(inside) != base
        assert center_out(outside) == base


class TestParameterBookkeeping:
    def test_named_covers_every_stage(self):
        params = make(3, 3, 2, 4, "pooling")
        names = params.named("r")
        for stem in ("r.cin.w", "r.en1.w", "r.en2.w", "r.bt.w", "r.de2.w", "r.de1.w"):
            assert stem in names
        # 6 conv units x (w, bn.g, bn.b, bn.rm, bn.rv); the convs have no bias
        assert len(names) == 30

    def test_trainable_scalar_count_hand_sum(self):
        """depth 3, 2->2(mid)->4: six conv units, each cout*cin*9 + 2*cout."""
        params = make(3, 2, 2, 4, "pooling")
        hand = (4 * 2 * 9 + 8) + (2 * 4 * 9 + 4) + (2 * 2 * 9 + 4) \
            + (2 * 2 * 9 + 4) + (2 * 4 * 9 + 4) + (4 * 4 * 9 + 8)
        assert sum(t.data.size for t in params.trainables()) == hand == 464

    def test_two_seeds_differ(self):
        a = make(3, 1, 1, 1, "dilated", seed=1)
        b = make(3, 1, 1, 1, "dilated", seed=2)
        assert not np.array_equal(a.conv_in.w.data, b.conv_in.w.data)

    def test_same_seed_identical(self):
        a = make(3, 1, 2, 2, "pooling", seed=5)
        b = make(3, 1, 2, 2, "pooling", seed=5)
        for ta, tb in zip(a.trainables(), b.trainables()):
            np.testing.assert_array_equal(ta.data, tb.data)
