"""Attention module behavior: gate shapes and ranges, forced-gate
degeneracies, scale covariance, and equivalence with the straight-line
loop reimplementation.

Gate forcing exploits the layout: the excitation's second batch norm means
only its beta can push the pre-sigmoid value around for constant inputs, and
the 3x3 fusion conv (no BN after it) is forced through its bias.
"""

import numpy as np
import pytest

from nuseg.ica import (IcaParams, channel_attention, channel_gate, ica_forward,
                       spatial_attention, spatial_gate)
from nuseg.prng import Prng
from nuseg.tensor import Tensor

from oracles import ica_forward_loops


def fresh(channels=4, seed=0):
    return IcaParams(Prng(seed), channels)


def rand(seed, *shape):
    return Tensor(Prng(seed).normal(shape))


class TestParamLayout:
    def test_reduction_must_divide(self):
        with pytest.raises(ValueError, match="divisible"):
            IcaParams(Prng(0), 6)

    def test_trainable_scalar_count(self):
        """C=4, r=4: excitation 4+2 and 4+8 (no biases, BN follows each),
        reduce conv 4+2, fuse 18+1."""
        params = fresh(4)
        assert sum(t.data.size for t in params.trainables()) == 43

    def test_fixed_reduce_bias_is_not_trainable_or_named(self):
        params = fresh(4)
        assert all(t is not params.c1_bias for t in params.trainables())
        named = params.named("a")
        assert "a.c1.b" not in named
        assert params.c1_bias.requires_grad is False

    def test_named_keys(self):
        named = fresh(4).named("ica2")
        for key in ("ica2.w1", "ica2.w2", "ica2.c1.w", "ica2.c3.w",
                    "ica2.bn1.g", "ica2.c1.bn.rm"):
            assert key in named
        for key in ("ica2.b1", "ica2.b2"):
            assert key not in named
        # w1, w2, c1.w, c3.w, c3.b + three BNs x (g, b, rm, rv)
        assert len(named) == 17


class TestChannelGate:
    def test_shape_and_open_range(self):
        params = fresh(4)
        g = channel_gate(rand(1, 2, 4, 8, 8), params, training=True)
        assert g.data.shape == (2, 4, 1, 1)
        assert np.all(g.data > 0.0) and np.all(g.data < 1.0)

    def test_zero_input_gives_half_across_channels(self):
        """Zero features through the bias-free excitation: every normalization
        sees zeros, so the gate is sigmoid(0) = 0.5 on every channel, exactly."""
        params = fresh(8)
        g = channel_gate(Tensor(np.zeros((2, 8, 4, 4), dtype=np.float32)),
                         params, training=True)
        np.testing.assert_array_equal(g.data, np.full((2, 8, 1, 1), 0.5,
                                                      dtype=np.float32))

    def test_gate_depends_only_on_high_level_input(self):
        params = fresh(4)
        f_h = rand(3, 1, 4, 6, 6)
        f_l1 = rand(4, 1, 4, 6, 6)
        f_l2 = rand(5, 1, 4, 6, 6)
        g1 = channel_attention(f_h, f_l1, params, training=True)
        g2 = channel_attention(f_h, f_l2, params, training=True)
        ratio1 = g1.data / f_l1.data
        ratio2 = g2.data / f_l2.data
        np.testing.assert_allclose(ratio1, ratio2, rtol=1e-4)

    def test_scale_covariance_power_of_two(self):
        """Doubling f_l doubles the attended output bit-exactly (the gate
        never sees f_l, and *2 is exact in floating point)."""
        params = fresh(4)
        f_h = rand(6, 1, 4, 5, 5)
        f_l = rand(7, 1, 4, 5, 5)
        once = channel_attention(f_h, f_l, params, training=True).data
        twice = channel_attention(f_h, Tensor(2.0 * f_l.data), params,
                                  training=True).data
        np.testing.assert_array_equal(twice, 2.0 * once)

    def test_shape_mismatch_rejected(self):
        params = fresh(4)
        with pytest.raises(ValueError, match="differ"):
            channel_attention(rand(1, 1, 4, 4, 4), rand(2, 1, 4, 5, 5), params)

    def test_wrong_channel_count_rejected(self):
        params = fresh(4)
        with pytest.raises(ValueError, match="channels"):
            channel_attention(rand(1, 1, 2, 4, 4), rand(2, 1, 2, 4, 4), params)


class TestSpatialGate:
    def test_shape_and_open_range(self):
        params = fresh(4)
        g = spatial_gate(rand(8, 2, 4, 6, 6), params, "sigmoid", training=True)
        assert g.data.shape == (2, 1, 6, 6)
        assert np.all(g.data > 0.0) and np.all(g.data < 1.0)

    def test_unknown_gate_kind_rejected(self):
        params = fresh(4)
        with pytest.raises(ValueError, match="gate_kind"):
            spatial_gate(rand(1, 1, 4, 4, 4), params, "tanh", training=True)

    def test_zeroed_fusion_conv_sigmoid_gives_half(self):
        params = fresh(4)
        params.c3_w.data[:] = 0.0
        f_h = rand(9, 1, 4, 6, 6)
        f_ca = rand(10, 1, 4, 6, 6)
        out = spatial_attention(f_ca, f_h, params, "sigmoid", training=True)
        np.testing.assert_array_equal(out.data, 0.5 * f_h.data)

    def test_zeroed_fusion_conv_relu_gives_zero(self):
        params = fresh(4)
        params.c3_w.data[:] = 0.0
        f_h = rand(11, 1, 4, 6, 6)
        f_ca = rand(12, 1, 4, 6, 6)
        out = spatial_attention(f_ca, f_h, params, "relu", training=True)
        np.testing.assert_array_equal(out.data, np.zeros_like(f_h.data))


class TestForcedGates:
    @staticmethod
    def force_open(params):
        # constants die in the excitation BN, so steer through beta / the
        # fusion bias, which sit after the last normalization
        params.w2.data[:] = 0.0
        params.bn2.beta.data[:] = 30.0
        params.c3_w.data[:] = 0.0
        params.c3_b.data[:] = 30.0

    def test_forced_open_reduces_to_plain_concat(self):
        params = fresh(4)
        self.force_open(params)
        f_h = rand(13, 1, 4, 8, 8)
        f_l = rand(14, 1, 4, 8, 8)
        out = ica_forward(f_h, f_l, params, training=True)
        want = np.concatenate([f_l.data, f_h.data], axis=1)
        np.testing.assert_allclose(out.fused.data, want, atol=1e-6)

    def test_forced_closed_channel_gate_zeroes_exactly(self):
        """beta2 = -120 drives sigmoid into exact f32 zero, so the attended
        low-level features are exactly zero."""
        params = fresh(4)
        params.w2.data[:] = 0.0
        params.bn2.beta.data[:] = -120.0
        f_h = rand(15, 1, 4, 8, 8)
        f_l = rand(16, 1, 4, 8, 8)
        out = channel_attention(f_h, f_l, params, training=True)
        np.testing.assert_array_equal(out.data, np.zeros_like(f_l.data))


class TestIcaForward:
    def test_fused_has_double_channels_and_no_resample_at_same_size(self):
        params = fresh(4)
        f_h = rand(17, 1, 4, 8, 8)
        f_l = rand(18, 1, 4, 8, 8)
        out = ica_forward(f_h, f_l, params, training=True)
        assert out.fused.data.shape == (1, 8, 8, 8)
        np.testing.assert_array_equal(out.fused.data[:, :4], out.f_ca.data)
        np.testing.assert_array_equal(out.fused.data[:, 4:], out.f_ica.data)

    def test_coarser_high_level_is_upsampled(self):
        params = fresh(4)
        f_h = rand(19, 1, 4, 4, 4)
        f_l = rand(20, 1, 4, 8, 8)
        out = ica_forward(f_h, f_l, params, training=True)
        assert out.f_ica.data.shape == (1, 4, 8, 8)

    def test_finer_high_level_rejected(self):
        params = fresh(4)
        with pytest.raises(ValueError, match="exceeds"):
            ica_forward(rand(21, 1, 4, 9, 9), rand(22, 1, 4, 8, 8), params)

    def test_matches_loop_oracle(self):
        """N=2 so the excitation batch norms see nonzero batch variance and
        the channel gate is nontrivial."""
        params = fresh(4, seed=40)
        f_h = Prng(41).normal((2, 4, 8, 8))
        f_l = Prng(42).normal((2, 4, 8, 8))
        out = ica_forward(Tensor(f_h), Tensor(f_l), params, training=True)
        ca, icafeat, fused = ica_forward_loops(f_h, f_l, params)
        np.testing.assert_allclose(out.f_ca.data, ca, rtol=1e-4, atol=1e-5)
        np.testing.assert_allclose(out.f_ica.data, icafeat, rtol=1e-4, atol=1e-5)
        np.testing.assert_allclose(out.fused.data, fused, rtol=1e-4, atol=1e-5)

    def test_relu_gate_loop_oracle(self):
        params = fresh(4, seed=43)
        f_h = Prng(44).normal((2, 4, 8, 8))
        f_l = Prng(45).normal((2, 4, 8, 8))
        out = ica_forward(Tensor(f_h), Tensor(f_l), params, gate_kind="relu",
                          training=True)
        _, icafeat, _ = ica_forward_loops(f_h, f_l, params, gate_kind="relu")
        np.testing.assert_allclose(out.f_ica.data, icafeat, rtol=1e-4, atol=1e-5)

    def test_training_flag_changes_normalization(self):
        params = fresh(4, seed=46)
        # push running stats away from the batch statistics
        params.bn2.running_mean.data[:] = 5.0
        f_h = rand(47, 1, 4, 6, 6)
        f_l = rand(48, 1, 4, 6, 6)
        train = ica_forward(f_h, f_l, params, training=True).fused.data.copy()
        params2 = fresh(4, seed=46)
        params2.bn2.running_mean.data[:] = 5.0
        evalm = ica_forward(f_h, f_l, params2, training=False).fused.data
        assert not np.array_equal(train, evalm)
