"""Synthetic small-target scenes and bit-exact image I/O.

A scene is a procedural background plus Gaussian blobs plus pixel noise,
clamped to [0,1] and fully determined by a u64 seed. Ground truth marks the
pixels where a blob's own contribution reaches e^-2 of its amplitude, i.e.
a 2-sigma disk per target, deliberately a little larger than the bright
core. Targets stay under 30x30 pixels by construction (6-sigma box).
Randomized scenes share one fixed distribution, the module constants below.

Images and masks travel as binary PGM (P5, maxval 255); the u8 <-> f32/255
mapping is exact in both directions, so load -> save is byte-identical.
"""

import math
import os
from dataclasses import dataclass

import numpy as np

from .io import _write_lines
from .model import INPUT_CHANNELS
from .prng import Prng
from .tensor import Tensor

__all__ = ["MASK_LEVEL", "Background", "TargetSpec", "SceneSpec", "Sample",
           "DatasetTemplate", "gen_scene", "gen_dataset", "save_pgm",
           "load_pgm", "load_dataset"]

MASK_LEVEL = math.exp(-2.0)  # of amplitude: the 2-sigma disk

BACKGROUND_KINDS = ("flat", "lowpass_noise", "gradient")

# the distribution of a randomized scene; every range is inclusive
MIN_TARGETS = 1
SIGMA_RANGE = (1.8, 3.2)
AMPLITUDE_RANGE = (0.75, 1.0)
NOISE_STD_RANGE = (0.0, 0.01)
FLAT_LEVEL_RANGE = (0.05, 0.25)
LOWPASS_CUTOFF_RANGE = (2, 5)
LOWPASS_GAIN_RANGE = (0.02, 0.06)
# the widest target's 6-sigma box, centre pixel included, must fit
MIN_SIZE = math.ceil(6.0 * SIGMA_RANGE[1] + 1.0)


@dataclass(frozen=True)
class Background:
    """flat(level) | lowpass_noise(cutoff, gain) | gradient(angle)."""

    kind: str
    level: float = 0.0    # flat: constant base value
    cutoff: int = 3       # lowpass_noise: box-blur half-window, larger = smoother
    gain: float = 0.05    # lowpass_noise: amplitude of the structure around 0.5
    angle: float = 0.0    # gradient: ramp direction, radians

    def __post_init__(self):
        if self.kind not in BACKGROUND_KINDS:
            raise ValueError(f"background kind must be one of {BACKGROUND_KINDS}, "
                             f"got {self.kind!r}")
        if self.kind == "flat" and not 0.0 <= self.level <= 1.0:
            raise ValueError(f"flat level must be in [0,1], got {self.level}")
        if self.kind == "lowpass_noise":
            if self.cutoff < 1:
                raise ValueError(f"lowpass cutoff must be >= 1, got {self.cutoff}")
            if self.gain < 0:
                raise ValueError(f"lowpass gain must be >= 0, got {self.gain}")


@dataclass(frozen=True)
class TargetSpec:
    cx: float
    cy: float
    sigma: float
    amplitude: float


@dataclass(frozen=True)
class SceneSpec:
    width: int
    height: int
    background: Background
    targets: tuple
    noise_std: float
    seed: int

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError(f"scene size must be positive, got "
                             f"{self.width}x{self.height}")
        if self.noise_std < 0:
            raise ValueError(f"noise_std must be >= 0, got {self.noise_std}")
        object.__setattr__(self, "targets", tuple(self.targets))
        for i, t in enumerate(self.targets):
            if not 0.0 < t.amplitude <= 1.0:
                raise ValueError(f"target {i}: amplitude must be in (0,1], "
                                 f"got {t.amplitude}")
            if t.sigma <= 0:
                raise ValueError(f"target {i}: sigma must be > 0, got {t.sigma}")
            if 6.0 * t.sigma >= 30.0:
                raise ValueError(f"target {i}: 6*sigma = {6 * t.sigma} px, "
                                 "footprint must stay under 30x30")
            half = 3.0 * t.sigma
            if not (half <= t.cx <= self.width - 1 - half
                    and half <= t.cy <= self.height - 1 - half):
                raise ValueError(f"target {i}: 6-sigma box around "
                                 f"({t.cx}, {t.cy}) leaves the image")


@dataclass
class Sample:
    image: Tensor          # [1,3,H,W], grayscale replicated
    mask: Tensor           # [1,1,H,W], values {0,1}
    spec: SceneSpec = None
    name: str = None


def _box1d(a: np.ndarray, k: int, axis: int) -> np.ndarray:
    pad = [(0, 0)] * a.ndim
    pad[axis] = (k // 2, k - 1 - k // 2)
    ap = np.pad(a, pad, mode="edge")
    c = np.cumsum(ap, axis=axis, dtype=np.float64)
    c = np.insert(c, 0, 0.0, axis=axis)
    lead = np.take(c, range(k, c.shape[axis]), axis=axis)
    lag = np.take(c, range(0, c.shape[axis] - k), axis=axis)
    return (lead - lag) / k


def _render_background(spec: SceneSpec, rng: Prng) -> np.ndarray:
    bg = spec.background
    h, w = spec.height, spec.width
    if bg.kind == "flat":
        return np.full((h, w), bg.level, dtype=np.float64)
    if bg.kind == "lowpass_noise":
        white = rng.normal((h, w)).astype(np.float64)
        k = 2 * bg.cutoff + 1
        smooth = white
        for _ in range(2):
            smooth = _box1d(_box1d(smooth, k, 0), k, 1)
        sd = smooth.std()
        if sd > 0:
            smooth = (smooth - smooth.mean()) / sd
        return 0.5 + bg.gain * smooth
    # gradient: ramp over [0, 0.5] along the given direction
    xn = np.linspace(0.0, 1.0, w) if w > 1 else np.zeros(w)
    yn = np.linspace(0.0, 1.0, h) if h > 1 else np.zeros(h)
    proj = math.cos(bg.angle) * xn[None, :] + math.sin(bg.angle) * yn[:, None]
    lo, hi = proj.min(), proj.max()
    if hi > lo:
        proj = (proj - lo) / (hi - lo)
    else:
        proj = np.zeros_like(proj)
    return 0.5 * proj


def _model_input(image: np.ndarray) -> np.ndarray:
    """[H, W] grey frame -> the model's [1, INPUT_CHANNELS, H, W] input, the
    frame repeated on every channel."""
    return np.repeat(image[None, None], INPUT_CHANNELS, axis=1)


def gen_scene(spec: SceneSpec) -> Sample:
    """Render one scene; a pure function of the spec (seed included).

    Draw order is fixed: background first (lowpass noise consumes H*W
    normals), then pixel noise (skipped entirely when noise_std is 0).
    """
    rng = Prng(spec.seed)
    h, w = spec.height, spec.width
    field = _render_background(spec, rng)

    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    mask = np.zeros((h, w), dtype=bool)
    for t in spec.targets:
        contrib = t.amplitude * np.exp(
            -((xx - t.cx) ** 2 + (yy - t.cy) ** 2) / (2.0 * t.sigma ** 2))
        field += contrib
        mask |= contrib >= MASK_LEVEL * t.amplitude

    if spec.noise_std > 0:
        field += rng.normal((h, w), std=spec.noise_std).astype(np.float64)

    image = _model_input(np.clip(field, 0.0, 1.0).astype(np.float32))
    mask_t = Tensor(mask.astype(np.float32)[None, None])
    return Sample(image=Tensor(image), mask=mask_t, spec=spec)


@dataclass(frozen=True)
class DatasetTemplate:
    """Size and target-count cap of randomized scenes, each of which holds
    MIN_TARGETS to max_targets targets; the module constants fix the rest."""

    width: int = 64
    height: int = 64
    max_targets: int = 2

    def __post_init__(self):
        if self.max_targets < MIN_TARGETS:
            raise ValueError(f"bad target count range [{MIN_TARGETS}, {self.max_targets}]")
        if min(self.width, self.height) < MIN_SIZE:
            raise ValueError(f"image size {self.width}x{self.height} is below the minimum "
                             f"of {MIN_SIZE} px for these targets")


def _lerp(rng: Prng, lo: float, hi: float) -> float:
    return lo + (hi - lo) * rng.next_f32()


def _rand_int(rng: Prng, lo: int, hi: int) -> int:
    return lo + rng.next_u64() % (hi - lo + 1) if hi > lo else lo


def _draw_spec(template: DatasetTemplate, seed: int) -> SceneSpec:
    rng = Prng(seed)
    scene_seed = rng.next_u64()
    kind = BACKGROUND_KINDS[rng.next_u64() % len(BACKGROUND_KINDS)]
    if kind == "flat":
        bg = Background("flat", level=_lerp(rng, *FLAT_LEVEL_RANGE))
    elif kind == "lowpass_noise":
        bg = Background("lowpass_noise",
                        cutoff=_rand_int(rng, *LOWPASS_CUTOFF_RANGE),
                        gain=_lerp(rng, *LOWPASS_GAIN_RANGE))
    else:
        bg = Background("gradient", angle=_lerp(rng, 0.0, 2.0 * math.pi))
    n_targets = _rand_int(rng, MIN_TARGETS, template.max_targets)
    targets = []
    for _ in range(n_targets):
        sigma = _lerp(rng, *SIGMA_RANGE)
        half = 3.0 * sigma
        targets.append(TargetSpec(
            cx=_lerp(rng, half, template.width - 1 - half),
            cy=_lerp(rng, half, template.height - 1 - half),
            sigma=sigma,
            amplitude=_lerp(rng, *AMPLITUDE_RANGE)))
    return SceneSpec(width=template.width, height=template.height, background=bg,
                     targets=tuple(targets), noise_std=_lerp(rng, *NOISE_STD_RANGE),
                     seed=scene_seed)


def gen_dataset(out_dir, n: int, template: DatasetTemplate, seed: int) -> list:
    """Write n scenes as PGM pairs plus manifest.csv; returns the specs.

    Per-sample seeds are consecutive raw outputs of one splitmix64 stream,
    so any prefix of the dataset is independent of n.
    """
    if n < 1:
        raise ValueError(f"need n >= 1 samples, got {n}")
    os.makedirs(out_dir, exist_ok=True)
    master = Prng(seed)
    specs = []
    manifest = ["filename,n_targets,centers"]
    for i in range(n):
        spec = _draw_spec(template, master.next_u64())
        sample = gen_scene(spec)
        base = f"sample_{i:04d}"
        save_pgm(os.path.join(out_dir, f"{base}.img.pgm"), sample.image.data[0, 0])
        save_pgm(os.path.join(out_dir, f"{base}.mask.pgm"), sample.mask.data[0, 0])
        centers = ";".join(f"{t.cx!r}:{t.cy!r}" for t in spec.targets)
        manifest.append(f"{base}.img.pgm,{len(spec.targets)},{centers}")
        specs.append(spec)
    _write_lines(os.path.join(out_dir, "manifest.csv"), manifest)
    return specs


# ---------------------------------------------------------------------------
# PGM (P5, maxval 255)


def save_pgm(path, arr: np.ndarray) -> None:
    """Write a 2-D float map in [0,1] as binary PGM (round-half-up to u8)."""
    arr = np.asarray(arr)
    if arr.ndim != 2:
        raise ValueError(f"save_pgm needs a 2-D array, got shape {arr.shape}")
    quantized = np.clip(np.floor(arr * 255.0 + 0.5), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode("ascii"))
        fh.write(quantized.tobytes())


def _pgm_tokens(path, data: bytes, count: int, pos: int) -> tuple:
    """Read whitespace-separated header tokens, skipping # comment lines."""
    tokens = []
    while len(tokens) < count:
        while pos < len(data) and data[pos: pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos: pos + 1] == b"#":
            while pos < len(data) and data[pos: pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos: pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ValueError(f"{path}: truncated PGM header")
        tokens.append(data[start:pos])
    return tokens, pos


def load_pgm(path) -> np.ndarray:
    """Read a binary PGM into a 2-D float32 array, exact u8/255 values."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:2] != b"P5":
        raise ValueError(f"{path}: not a binary PGM (magic {data[:2]!r})")
    tokens, pos = _pgm_tokens(path, data, 3, 2)
    for name, tok in zip(("width", "height", "maxval"), tokens):
        if not tok.isdigit():
            raise ValueError(f"{path}: PGM {name} must be a decimal integer, got {tok!r}")
    width, height, maxval = (int(t) for t in tokens)
    if width < 1 or height < 1:
        raise ValueError(f"{path}: PGM size must be at least 1x1, got {width}x{height}")
    if maxval != 255:
        raise ValueError(f"{path}: maxval must be 255, got {maxval}")
    pos += 1  # single whitespace byte after maxval
    expected = width * height
    payload = data[pos: pos + expected]
    if len(payload) != expected:
        raise ValueError(f"{path}: payload holds {len(payload)} bytes, "
                         f"expected {expected}")
    arr = np.frombuffer(payload, dtype=np.uint8).reshape(height, width)
    return arr.astype(np.float32) / 255.0


def load_dataset(dir_path) -> list:
    """Load `*.img.pgm` / `*.mask.pgm` pairs, sorted by name.

    Masks binarize at 128/255. Mixed image sizes are allowed; an unpaired
    file or an empty directory is a hard error.
    """
    names = sorted(os.listdir(dir_path))
    stems = {}
    for name in names:
        if name.endswith(".img.pgm"):
            stems.setdefault(name[: -len(".img.pgm")], {})["img"] = name
        elif name.endswith(".mask.pgm"):
            stems.setdefault(name[: -len(".mask.pgm")], {})["mask"] = name
    for stem in sorted(stems):
        have = stems[stem]
        if "img" not in have:
            raise ValueError(f"unpaired mask file: {have['mask']}")
        if "mask" not in have:
            raise ValueError(f"unpaired image file: {have['img']}")
    if not stems:
        raise ValueError(f"no image/mask pairs found in {dir_path}")
    samples = []
    for stem in sorted(stems):
        img = load_pgm(os.path.join(dir_path, stems[stem]["img"]))
        mask = load_pgm(os.path.join(dir_path, stems[stem]["mask"]))
        if img.shape != mask.shape:
            raise ValueError(f"{stem}: image {img.shape} and mask {mask.shape} differ")
        image = _model_input(img)
        binary = (mask >= 128.0 / 255.0).astype(np.float32)[None, None]
        samples.append(Sample(image=Tensor(image), mask=Tensor(binary), name=stem))
    return samples
