"""Residual U-blocks: a small U-Net used as a single layer.

Two variants share one parameter layout. The pooling variant downsamples
between encoder stages with 2x2 max-pool and mirrors back up with bilinear
upsampling; only its bottom conv is dilated (rate 2). The dilated variant
keeps full resolution everywhere and walks a doubling dilation schedule up
and back down. Both end with the residual sum: decoder top + input conv.
"""

from dataclasses import dataclass

from .layers import ConvBnRelu, Params
from .prng import Prng
from .tensor import Tensor, add, concat_channels, max_pool2d, upsample_bilinear

__all__ = ["RsuSpec", "RsuParams", "rsu_forward",
           "dilation_schedule", "conv_receptive_field", "rsu_receptive_field"]

MODES = ("pooling", "dilated")


@dataclass(frozen=True)
class RsuSpec:
    """Shape of one residual U-block: depth, channel widths, and mode."""

    depth: int
    in_ch: int
    mid_ch: int
    out_ch: int
    mode: str

    def __post_init__(self):
        if self.depth < 2:
            raise ValueError(f"RSU depth must be >= 2, got {self.depth}")
        for name in ("in_ch", "mid_ch", "out_ch"):
            if getattr(self, name) < 1:
                raise ValueError(f"RSU {name} must be >= 1, got {getattr(self, name)}")
        if self.mode not in MODES:
            raise ValueError(f"RSU mode must be one of {MODES}, got {self.mode!r}")

    @property
    def pool_steps(self) -> int:
        return self.depth - 2 if self.mode == "pooling" else 0


def dilation_schedule(spec: RsuSpec) -> list:
    """Dilation per level for [enc1 .. enc(L-1), bottom].

    Dilated mode doubles every level: 1, 2, 4, ..., 2^(L-1). Pooling mode
    keeps rate 1 everywhere except the single dilated bottom conv (rate 2);
    depth there comes from pooling instead.
    """
    if spec.mode == "dilated":
        return [2 ** i for i in range(spec.depth)]
    return [1] * (spec.depth - 1) + [2]


class RsuParams(Params):
    """Parameters of one block; construction order fixes the rng draws."""

    def __init__(self, spec: RsuSpec, prng: Prng):
        self.spec = spec
        sched = dilation_schedule(spec)
        self.conv_in = ConvBnRelu(prng, spec.in_ch, spec.out_ch, dilation=1)
        self.encs = [ConvBnRelu(prng, spec.out_ch, spec.mid_ch, dilation=sched[0])]
        for j in range(2, spec.depth):
            self.encs.append(ConvBnRelu(prng, spec.mid_ch, spec.mid_ch, dilation=sched[j - 1]))
        self.bottom = ConvBnRelu(prng, spec.mid_ch, spec.mid_ch, dilation=sched[spec.depth - 1])
        # decoders stored deepest-first; level j takes 2*mid in, top one emits out_ch
        self.decs = []
        for j in range(spec.depth - 1, 0, -1):
            cout = spec.mid_ch if j > 1 else spec.out_ch
            self.decs.append(ConvBnRelu(prng, 2 * spec.mid_ch, cout, dilation=sched[j - 1]))

    def dec_top(self) -> ConvBnRelu:
        return self.decs[-1]

    def named(self, prefix: str) -> dict:
        out = {}
        out.update(self.conv_in.named(f"{prefix}.cin"))
        for j, enc in enumerate(self.encs, start=1):
            out.update(enc.named(f"{prefix}.en{j}"))
        out.update(self.bottom.named(f"{prefix}.bt"))
        for i, dec in enumerate(self.decs):
            out.update(dec.named(f"{prefix}.de{self.spec.depth - 1 - i}"))
        return out


def rsu_forward(params: RsuParams, x: Tensor, training: bool) -> Tensor:
    """Run one block; output is [N, out_ch, H, W] for input [N, in_ch, H, W]."""
    spec = params.spec
    if x.data.ndim != 4 or x.data.shape[1] != spec.in_ch:
        raise ValueError(f"rsu input must be [N,{spec.in_ch},H,W], got {x.data.shape}")
    div = 2 ** spec.pool_steps
    h, w = x.data.shape[2], x.data.shape[3]
    if h % div or w % div:
        raise ValueError(f"rsu pooling mode depth {spec.depth} needs H,W divisible by {div}, "
                         f"got {h}x{w}")

    # Each map is dropped at its last read, so a pass that builds no graph
    # frees it there; a graph keeps what its backward reads.
    hin = params.conv_in.apply(x, training)
    del x
    feats = [params.encs[0].apply(hin, training)]
    for enc in params.encs[1:]:
        nxt = max_pool2d(feats[-1]) if spec.mode == "pooling" else feats[-1]
        feats.append(enc.apply(nxt, training))
        del nxt
    d = params.bottom.apply(feats[-1], training)
    for i, dec in enumerate(params.decs):  # deepest first, each reads its level's encoder map
        skip = feats.pop()
        if i and spec.mode == "pooling":
            d = upsample_bilinear(d, skip.data.shape[2], skip.data.shape[3])
        d = dec.apply(concat_channels([d, skip]), training)
    return add(d, hin)


def conv_receptive_field(k: int, dilation: int = 1) -> int:
    """Receptive field of a single stride-1 conv: dilation*(k-1) + 1."""
    return dilation * (k - 1) + 1


def rsu_receptive_field(spec: RsuSpec) -> int:
    """Receptive field along the block's deepest path (input conv, every
    encoder, bottom, every decoder), accumulated by the usual recurrence
    rf += (k_eff - 1) * jump with jump doubling at each pool and halving at
    each upsample (bilinear taps count one extra step at the finer scale)."""
    sched = dilation_schedule(spec)
    rf, jump = 1, 1
    rf += 2 * jump  # input conv, 3x3 rate 1
    rf += conv_receptive_field(3, sched[0]) - 1  # enc1 at full resolution
    for j in range(2, spec.depth):
        if spec.mode == "pooling":
            rf += jump
            jump *= 2
        rf += (conv_receptive_field(3, sched[j - 1]) - 1) * jump
    rf += (conv_receptive_field(3, sched[spec.depth - 1]) - 1) * jump  # bottom
    rf += (conv_receptive_field(3, sched[spec.depth - 2]) - 1) * jump  # deepest decoder
    for j in range(spec.depth - 2, 0, -1):
        if spec.mode == "pooling":
            jump //= 2
            rf += jump
        rf += (conv_receptive_field(3, sched[j - 1]) - 1) * jump
    return rf
