"""Full segmentation network: an outer U of residual U-blocks.

Encoder stages are RSU blocks separated by 2x2 max-pool; the deepest stage
runs in dilated mode. Each decoder stage consumes the upsampled previous
stage concatenated with a skip path, where the skip is either the plain
encoder feature or, with attention enabled, the interactive-cross attention
fusion of the encoder feature with a 1x1-projected decoder feature. The
bottom stage and every decoder stage emit a single-channel side logit map
through a 3x3 head, upsampled to input resolution; a 1x1 conv over the
concatenated side maps yields the fused logits.

Presets: `tiny` (3 stages, desk scale), `small` (4 stages), `full`
(6 stages at published-architecture widths). Tiny and small follow a family
rule so `stages` and per-stage `mid_ch.<i>` overrides stay consistent.
"""

from dataclasses import dataclass

from .ica import GATE_KINDS, REDUCTION, IcaParams, ica_forward
from .layers import Conv, Params
from .prng import Prng
from .rsu import RsuParams, RsuSpec, rsu_forward
from .tensor import (Tensor, activation, concat_channels, max_pool2d,
                     upsample_bilinear)

__all__ = ["ModelConfig", "ModelParams", "SideOutputs", "parse_model_config",
           "render_model_config", "forward", "forward_features", "infer",
           "count_params", "count_flops", "PRESETS", "CONFIG_KEYS"]

PRESETS = ("tiny", "small", "full")
INPUT_CHANNELS = 3  # images enter as 3 channels (a grey frame repeated)
# the config keys and their types, in render order; `mid_ch.<i>` is the
# one pattern key. ModelConfig.__init__ holds the defaults.
_MODEL_KEYS = {"preset": str, "stages": int, "ica_enabled": bool, "gate_kind": str}
_MID_KEY = "mid_ch."
CONFIG_KEYS = ", ".join(sorted([*_MODEL_KEYS, _MID_KEY + "<i>"]))

# family rule for tiny/small: stage i doubles mid/out until the cap
_FAMILY = {
    "tiny": {"stages": 3, "mid0": 4, "mid_cap": 8, "out0": 8, "out_cap": 16},
    "small": {"stages": 4, "mid0": 8, "mid_cap": 16, "out0": 16, "out_cap": 32},
}

# fixed table for the full preset: (depth, mid, out, mode) per encoder stage
_FULL_ENCODERS = [
    (7, 32, 64, "pooling"),
    (6, 32, 128, "pooling"),
    (5, 64, 256, "pooling"),
    (4, 128, 512, "pooling"),
    (4, 256, 512, "dilated"),
    (4, 256, 512, "dilated"),
]
# (mid, out) per decoder, deepest first; depth/mode mirror the same-level encoder
_FULL_DECODER_WIDTHS = [(256, 512), (128, 256), (64, 128), (32, 64), (16, 64)]


class ModelConfig:
    """Resolved architecture: the five config knobs plus derived stage lists."""

    def __init__(self, preset: str = "tiny", stages: int = None,
                 mid_overrides: dict = None, ica_enabled: bool = True,
                 gate_kind: str = "sigmoid"):
        if preset not in PRESETS:
            raise ValueError(f"unknown preset {preset!r}, choose from {PRESETS}")
        if gate_kind not in GATE_KINDS:
            raise ValueError(f"gate_kind must be one of {GATE_KINDS}, got {gate_kind!r}")
        if preset == "full" and stages is not None:
            raise ValueError("preset full has a fixed stage table; stages is not settable")
        self.preset = preset
        self.ica_enabled = bool(ica_enabled)
        self.gate_kind = gate_kind
        self.mid_overrides = dict(mid_overrides or {})

        if preset == "full":
            self.stages = len(_FULL_ENCODERS)
            enc_rows = list(_FULL_ENCODERS)
            dec_widths = list(_FULL_DECODER_WIDTHS)
        else:
            fam = _FAMILY[preset]
            self.stages = fam["stages"] if stages is None else int(stages)
            if self.stages < 3:
                raise ValueError(f"need at least 3 stages, got {self.stages}")
            enc_rows, dec_widths = self._family_rows(fam, self.stages)

        for i, mid in self.mid_overrides.items():
            if not 1 <= i <= self.stages:
                raise ValueError(f"mid_ch.{i} out of range for {self.stages} stages")
            if mid < 1:
                raise ValueError(f"mid_ch.{i} must be >= 1, got {mid}")
            depth, _, out, mode = enc_rows[i - 1]
            enc_rows[i - 1] = (depth, mid, out, mode)
            if i < self.stages:
                dec_widths[self.stages - 1 - i] = (mid, dec_widths[self.stages - 1 - i][1])

        self.encoders = []
        cin = INPUT_CHANNELS
        for depth, mid, out, mode in enc_rows:
            self.encoders.append(RsuSpec(depth, cin, mid, out, mode))
            cin = out

        # decoders deepest-first; input = upsampled deeper stage + skip,
        # where attention doubles the skip width
        self.decoders = []
        skip_mult = 2 if self.ica_enabled else 1
        up_ch = self.encoders[-1].out_ch
        for k, (mid, out) in enumerate(dec_widths):
            level = self.stages - 1 - k
            enc = self.encoders[level - 1]
            cin = up_ch + skip_mult * enc.out_ch
            self.decoders.append(RsuSpec(enc.depth, cin, mid, out, enc.mode))
            up_ch = out

    @staticmethod
    def _family_rows(fam: dict, stages: int):
        top_depth = min(stages + 1, 7)
        enc_rows = []
        for i in range(1, stages + 1):
            depth = max(top_depth - (i - 1), 3)
            mid = min(fam["mid0"] * 2 ** (i - 1), fam["mid_cap"])
            out = min(fam["out0"] * 2 ** (i - 1), fam["out_cap"])
            mode = "dilated" if i == stages else "pooling"
            enc_rows.append((depth, mid, out, mode))
        dec_widths = [(enc_rows[i - 1][1], enc_rows[i - 1][2])
                      for i in range(stages - 1, 0, -1)]
        return enc_rows, dec_widths

    @property
    def n_side(self) -> int:
        """K: one map per decoder stage plus the bottom stage."""
        return self.stages

    def required_divisor(self) -> int:
        return 2 ** (self.stages - 1)


def _config_lines(text: str):
    """(key, value) pairs of flat `key = value` lines; `#` starts a comment.
    A key set on two lines is an error naming both."""
    first_line = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key = value, got {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key in first_line:
            raise ValueError(f"config key {key!r} set twice, on lines {first_line[key]} and {lineno}")
        first_line[key] = lineno
        yield key, val


def _parse_value(key: str, val: str, kind: type):
    """`val` as `kind`: int, float, bool (`true`/`false`), str, or list
    (comma-separated floats). A bad value is an error naming the key."""
    if kind is str:
        return val
    if kind is bool:
        if val in ("true", "false"):
            return val == "true"
        raise ValueError(f"config key {key!r}: expected true or false, got {val!r}")
    if kind is list:
        return [_parse_value(key, p, float) for p in val.split(",") if p.strip()]
    try:
        return kind(val)
    except ValueError:
        expected = "integer" if kind is int else "number"
        raise ValueError(f"config key {key!r}: expected {expected}, got {val!r}") from None


def _render_lines(pairs) -> str:
    """`key = value` lines in the order given; a None value is left out."""
    lines = []
    for key, val in pairs:
        if val is None:
            continue
        if isinstance(val, bool):
            val = "true" if val else "false"
        elif isinstance(val, float):
            val = repr(val)
        elif isinstance(val, list):
            val = ",".join(repr(v) for v in val)
        lines.append(f"{key} = {val}")
    return "\n".join(lines) + "\n"


def parse_model_config(text: str) -> ModelConfig:
    """Parse flat `key = value` lines; unknown keys are hard errors."""
    knobs = {}
    mid_overrides = {}
    for key, val in _config_lines(text):
        if key in _MODEL_KEYS:
            knobs[key] = _parse_value(key, val, _MODEL_KEYS[key])
        elif key.startswith(_MID_KEY):
            stage = _parse_value(key, key[len(_MID_KEY):], int)
            mid_overrides[stage] = _parse_value(key, val, int)
        else:
            raise ValueError(f"unknown config key {key!r}; valid keys: {CONFIG_KEYS}")
    return ModelConfig(mid_overrides=mid_overrides, **knobs)


def render_model_config(cfg: ModelConfig) -> str:
    """Canonical text form; parse(render(cfg)) reproduces the same config."""
    values = {key: getattr(cfg, key) for key in _MODEL_KEYS}
    if cfg.preset == "full":
        values["stages"] = None  # fixed by the full preset's table
    mids = [(f"{_MID_KEY}{i}", cfg.mid_overrides[i]) for i in sorted(cfg.mid_overrides)]
    return _render_lines([*values.items(), *mids])


@dataclass
class SideOutputs:
    d: list       # K side logit maps [N,1,H,W]: decoders top..bottom order
    fused: Tensor  # fused logits [N,1,H,W]

    def probability_maps(self) -> list:
        """sigmoid over every logit map, fused last."""
        return [activation(t, "sigmoid") for t in self.d + [self.fused]]


class ModelParams(Params):
    """All parameters; build order is encoders, then per-decoder skip modules
    and decoder blocks deepest-first, then side heads, then fusion. Encoders
    come first so their draws do not move when attention is toggled. With
    prng None every weight is zero and nothing is drawn (a model to load into)."""

    def __init__(self, cfg: ModelConfig, prng: Prng | None):
        self.cfg = cfg
        s = cfg.stages
        self.encoders = [RsuParams(spec, prng) for spec in cfg.encoders]
        self.projs = []
        self.icas = []
        self.decoders = []
        up_ch = cfg.encoders[-1].out_ch
        for k, spec in enumerate(cfg.decoders):
            skip_ch = cfg.encoders[s - 2 - k].out_ch
            if cfg.ica_enabled:
                self.projs.append(Conv(prng, up_ch, skip_ch, k=1))
                self.icas.append(IcaParams(prng, skip_ch))
            self.decoders.append(RsuParams(spec, prng))
            up_ch = spec.out_ch
        # heads in side-output order: De1..De(S-1), then bottom
        head_ch = [cfg.decoders[s - 1 - j].out_ch for j in range(1, s)]
        head_ch.append(cfg.encoders[-1].out_ch)
        self.heads = [Conv(prng, ch, 1, k=3) for ch in head_ch]
        self.fuse = Conv(prng, cfg.n_side, 1, k=1)

    def named(self, prefix: str = "") -> dict:
        """The root of the tree: keys are the checkpoint names after `prefix`."""
        out = {}
        s = self.cfg.stages
        for i, enc in enumerate(self.encoders, start=1):
            out.update(enc.named(f"{prefix}en{i}"))
        for k, dec in enumerate(self.decoders):
            level = s - 1 - k
            if self.cfg.ica_enabled:
                out.update(self.projs[k].named(f"{prefix}proj{level}"))
                out.update(self.icas[k].named(f"{prefix}ica{level}"))
            out.update(dec.named(f"{prefix}de{level}"))
        for j, head in enumerate(self.heads, start=1):
            out.update(head.named(f"{prefix}head{j}"))
        out.update(self.fuse.named(f"{prefix}fuse"))
        return out


def _check_input(cfg: ModelConfig, x: Tensor) -> None:
    if x.data.ndim != 4 or x.data.shape[1] != INPUT_CHANNELS:
        raise ValueError(f"model input must be [N,{INPUT_CHANNELS},H,W], "
                         f"got {x.data.shape}")
    div = cfg.required_divisor()
    n, c, h, w = x.data.shape
    if h % div or w % div:
        pad_h = (div - h % div) % div
        pad_w = (div - w % div) % div
        raise ValueError(
            f"input {h}x{w} not divisible by {div}; pad by {pad_h} rows and "
            f"{pad_w} cols (to {h + pad_h}x{w + pad_w})")


def _decoder_input(params: ModelParams, k: int, prev: Tensor, skip_feat: Tensor,
                   training: bool) -> Tensor:
    """The k-th decoder's input, deepest first: `prev` upsampled to the skip's
    grid, concatenated with the skip, or with the skip's IC-A fusion with the
    projected `prev`. The parts are locals, so a pass that builds no graph
    frees them on return, before the decoder reads the concat."""
    cfg = params.cfg
    up = upsample_bilinear(prev, skip_feat.data.shape[2], skip_feat.data.shape[3])
    if cfg.ica_enabled:
        f_h_raw = params.projs[k].apply(prev)
        skip = ica_forward(f_h_raw, skip_feat, params.icas[k], cfg.gate_kind, training).fused
    else:
        skip = skip_feat
    return concat_channels([up, skip])


def forward_features(params: ModelParams, x: Tensor, training: bool) -> dict:
    """Run the network and keep intermediate features for inspection.

    Returns {"enc": [En1..EnS outputs], "dec": [De(S-1)..De1 outputs],
    "side": SideOutputs}.
    """
    cfg = params.cfg
    _check_input(cfg, x)
    h, w = x.data.shape[2], x.data.shape[3]

    enc_feats = []
    cur = x
    for i, enc in enumerate(params.encoders):
        if i > 0:
            cur = max_pool2d(cur)
        cur = rsu_forward(enc, cur, training)
        enc_feats.append(cur)

    dec_feats = []
    prev = enc_feats[-1]
    for k, dec in enumerate(params.decoders):
        skip_feat = enc_feats[cfg.stages - 2 - k]
        prev = rsu_forward(dec, _decoder_input(params, k, prev, skip_feat, training), training)
        dec_feats.append(prev)

    side = []
    for j in range(1, cfg.stages):  # De1 .. De(S-1)
        logit = params.heads[j - 1].apply(dec_feats[cfg.stages - 1 - j])
        side.append(upsample_bilinear(logit, h, w))
    bottom_logit = params.heads[cfg.stages - 1].apply(enc_feats[-1])
    side.append(upsample_bilinear(bottom_logit, h, w))
    fused = params.fuse.apply(concat_channels(side))
    return {"enc": enc_feats, "dec": dec_feats, "side": SideOutputs(d=side, fused=fused)}


def forward(params: ModelParams, x: Tensor, training: bool) -> SideOutputs:
    return forward_features(params, x, training)["side"]


def infer(params: ModelParams, image: Tensor) -> Tensor:
    """Eval-mode probability map from the fused head: [N,1,H,W] in [0,1].
    Builds no autodiff graph: the parameters' grad flags are off for the call."""
    trainables = params.trainables()
    try:
        for t in trainables:
            t.requires_grad = False
        return activation(forward(params, image, training=False).fused, "sigmoid")
    finally:
        for t in trainables:
            t.requires_grad = True


def count_params(params: ModelParams) -> int:
    """Total trainable scalar count (kernels, biases, BN affine)."""
    return sum(t.data.size for t in params.trainables())


def _conv_macs(cin: int, cout: int, k: int, h: int, w: int) -> int:
    return h * w * cout * cin * k * k


def _rsu_macs(spec: RsuSpec, h: int, w: int) -> int:
    total = _conv_macs(spec.in_ch, spec.out_ch, 3, h, w)
    total += _conv_macs(spec.out_ch, spec.mid_ch, 3, h, w)
    hs, ws = h, w
    for _ in range(2, spec.depth):
        if spec.mode == "pooling":
            hs //= 2
            ws //= 2
        total += _conv_macs(spec.mid_ch, spec.mid_ch, 3, hs, ws)
    total += _conv_macs(spec.mid_ch, spec.mid_ch, 3, hs, ws)  # bottom
    total += _conv_macs(2 * spec.mid_ch, spec.mid_ch, 3, hs, ws)  # deepest decoder
    for j in range(spec.depth - 2, 0, -1):
        if spec.mode == "pooling":
            hs *= 2
            ws *= 2
        cout = spec.mid_ch if j > 1 else spec.out_ch
        total += _conv_macs(2 * spec.mid_ch, cout, 3, hs, ws)
    return total


def _ica_macs(channels: int, h: int, w: int) -> int:
    squeezed = channels // REDUCTION
    total = squeezed * channels + channels * squeezed  # excitation pair
    total += _conv_macs(channels, squeezed, 1, h, w)
    total += _conv_macs(2, 1, 3, h, w)
    return total


def count_flops(cfg: ModelConfig, h: int, w: int) -> int:
    """Multiply-accumulate count of every conv and linear for one [1,Cin,h,w]
    forward pass (1 MAC = 2 flops; reported as MACs)."""
    div = cfg.required_divisor()
    if h % div or w % div:
        raise ValueError(f"input {h}x{w} not divisible by {div}")
    total = 0
    hs, ws = h, w
    res = []
    for i, spec in enumerate(cfg.encoders):
        if i > 0:
            hs //= 2
            ws //= 2
        res.append((hs, ws))
        total += _rsu_macs(spec, hs, ws)
    up_ch = cfg.encoders[-1].out_ch
    for k, spec in enumerate(cfg.decoders):
        level = cfg.stages - 1 - k
        rh, rw = res[level - 1]
        skip_ch = cfg.encoders[level - 1].out_ch
        if cfg.ica_enabled:
            total += _conv_macs(up_ch, skip_ch, 1, res[level][0], res[level][1])  # projection
            total += _ica_macs(skip_ch, rh, rw)
        total += _rsu_macs(spec, rh, rw)
        up_ch = spec.out_ch
        total += _conv_macs(spec.out_ch, 1, 3, rh, rw)  # side head
    total += _conv_macs(cfg.encoders[-1].out_ch, 1, 3, res[-1][0], res[-1][1])  # bottom head
    total += _conv_macs(cfg.n_side, 1, 1, h, w)  # fusion over side maps
    return total
