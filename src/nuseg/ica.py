"""Interactive-cross attention: the skip-connection replacement.

High-level decoder features squeeze to a per-channel gate that scales the
low-level encoder features (channel attention). The gated result is reduced
1x1, pooled across channels into (avg; max) planes, and fused by a 3x3 conv
into one spatial gate that scales the high-level features back (spatial
attention). The decoder consumes the channel concat of both gated maps.

The spatial gate nonlinearity is selectable: sigmoid (default, bounded) or
relu. Both are kept so the ablation harness can compare them.
"""

from dataclasses import dataclass

import numpy as np

from .layers import BnParams, Params, _he_normal, zeros_param
from .prng import Prng
from .tensor import (Tensor, activation, channel_pool, concat_channels, conv2d,
                     global_avg_pool, linear, mul_broadcast, upsample_bilinear)

__all__ = ["IcaParams", "IcaOutput", "channel_gate", "channel_attention",
           "spatial_gate", "spatial_attention", "ica_forward"]

GATE_KINDS = ("sigmoid", "relu")
REDUCTION = 4  # channel squeeze ratio r of the excitation and the 1x1 reduction


class IcaParams(Params):
    """Parameters for one attention module over C-channel features.

    The excitation pair maps C -> C/r -> C, with r = REDUCTION, and has BN
    after each matrix, so neither matrix has a bias. The 1x1 reduction conv
    (C -> C/r) is followed by BN too; its bias `c1_bias` is a fixed zero,
    neither trained nor checkpointed. The 3x3 fusion conv, with a trained
    bias, maps the 2-channel pooled stack to a single-plane gate.
    """

    def __init__(self, prng: Prng, channels: int):
        if channels % REDUCTION:
            raise ValueError(f"channels {channels} not divisible by reduction {REDUCTION}")
        self.channels = channels
        squeezed = channels // REDUCTION
        self.w1 = _he_normal(prng, (squeezed, channels))
        self.bn1 = BnParams(squeezed)
        self.w2 = _he_normal(prng, (channels, squeezed))
        self.bn2 = BnParams(channels)
        self.c1_w = _he_normal(prng, (squeezed, channels, 1, 1))
        self.c1_bias = Tensor(np.zeros(squeezed, dtype=np.float32))  # fixed 0, BN follows
        self.c1_bn = BnParams(squeezed)
        self.c3_w = _he_normal(prng, (1, 2, 3, 3))
        self.c3_b = zeros_param(1)

    def named(self, prefix: str) -> dict:
        out = {f"{prefix}.w1": self.w1, f"{prefix}.w2": self.w2,
               f"{prefix}.c1.w": self.c1_w,
               f"{prefix}.c3.w": self.c3_w, f"{prefix}.c3.b": self.c3_b}
        out.update(self.bn1.named(f"{prefix}.bn1"))
        out.update(self.bn2.named(f"{prefix}.bn2"))
        out.update(self.c1_bn.named(f"{prefix}.c1.bn"))
        return out


@dataclass
class IcaOutput:
    f_ca: Tensor    # channel-attended low-level features
    f_ica: Tensor   # spatially-attended high-level features
    fused: Tensor   # concat([f_ca, f_ica]), 2C channels


def _check_pair(f_h: Tensor, f_l: Tensor, params: IcaParams) -> None:
    if f_h.data.shape != f_l.data.shape:
        raise ValueError(f"feature shapes differ: {f_h.data.shape} vs {f_l.data.shape}")
    if f_h.data.shape[1] != params.channels:
        raise ValueError(f"features have {f_h.data.shape[1]} channels, "
                         f"params expect {params.channels}")


def channel_gate(f_h: Tensor, params: IcaParams, training: bool) -> Tensor:
    """Squeeze-excite gate from high-level features: [N,C,H,W] -> [N,C,1,1]."""
    z = global_avg_pool(f_h)
    t = activation(params.bn1.apply(linear(z, params.w1, None), training), "relu")
    s = params.bn2.apply(linear(t, params.w2, None), training)
    return activation(s, "sigmoid")


def channel_attention(f_h: Tensor, f_l: Tensor, params: IcaParams,
                      training: bool = True) -> Tensor:
    """Scale each low-level channel by the gate derived from f_h."""
    _check_pair(f_h, f_l, params)
    return mul_broadcast(f_l, channel_gate(f_h, params, training))


def spatial_gate(f_ca: Tensor, params: IcaParams, gate_kind: str,
                 training: bool) -> Tensor:
    """One-plane spatial gate from channel-attended features: -> [N,1,H,W]."""
    if gate_kind not in GATE_KINDS:
        raise ValueError(f"gate_kind must be one of {GATE_KINDS}, got {gate_kind!r}")
    t = conv2d(f_ca, params.c1_w, params.c1_bias)
    t = activation(params.c1_bn.apply(t, training), "relu")
    m = concat_channels([channel_pool(t, "avg"), channel_pool(t, "max")])
    g = conv2d(m, params.c3_w, params.c3_b, pad=1)
    return activation(g, gate_kind)


def spatial_attention(f_ca: Tensor, f_h: Tensor, params: IcaParams,
                      gate_kind: str = "sigmoid", training: bool = True) -> Tensor:
    """Scale high-level features by the spatial gate computed from f_ca."""
    _check_pair(f_ca, f_h, params)
    return mul_broadcast(f_h, spatial_gate(f_ca, params, gate_kind, training))


def ica_forward(f_h_raw: Tensor, f_l: Tensor, params: IcaParams,
                gate_kind: str = "sigmoid", training: bool = True) -> IcaOutput:
    """Full module: upsample f_h to f_l's grid, gate both ways, concatenate."""
    n, c, h, w = f_h_raw.data.shape
    th, tw = f_l.data.shape[2], f_l.data.shape[3]
    if h > th or w > tw:
        raise ValueError(f"high-level feature {h}x{w} exceeds low-level grid {th}x{tw}")
    f_h = upsample_bilinear(f_h_raw, th, tw)
    f_ca = channel_attention(f_h, f_l, params, training)
    f_ica = spatial_attention(f_ca, f_h, params, gate_kind, training)
    return IcaOutput(f_ca=f_ca, f_ica=f_ica, fused=concat_channels([f_ca, f_ica]))
