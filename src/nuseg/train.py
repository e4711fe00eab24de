"""Training: deep-supervision BCE objective, Adam, and checkpointing.

Every supervised map (each side logit plus the fused logit) contributes a
weighted BCE term against the same target mask. Optimization is textbook
Adam with bias correction. The loop shuffles sample order once per epoch
from a seed-derived stream, logs `step,loss,iou` rows, and serializes the
complete training state (model tensors, BN running stats, Adam moments,
step counter, config echoes) into one container file whose save -> load ->
save round-trip is byte-identical.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import io as tio
from .metrics import _check_thr, binarize, compute_report, iou_dataset
from .model import (ModelConfig, ModelParams, _config_lines, _parse_float, _parse_int,
                    forward, infer, parse_model_config, render_model_config)
from .prng import Prng
from .tensor import Tensor, _stable_sigmoid, add, backward, bce_loss, scale, zero_grads

__all__ = ["TrainConfig", "AdamState", "parse_train_config", "render_train_config",
           "total_loss", "adam_step", "train_loop", "save_checkpoint",
           "load_checkpoint", "evaluate_dataset", "run_ablation"]

TRAIN_KEYS = ("batch_size, beta1, beta2, epochs, eps_adam, loss_weights, "
              "lr, seed, threshold")


@dataclass
class TrainConfig:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps_adam: float = 1e-8
    batch_size: int = 4
    epochs: int = 50
    seed: int = 0
    loss_weights: list = None  # None -> all ones, resolved once K is known
    threshold: float = 0.5

    def __post_init__(self):
        for name in ("lr", "eps_adam"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {v}")
        for name in ("beta1", "beta2"):
            b = getattr(self, name)
            if not 0.0 <= b < 1.0:
                raise ValueError(f"{name} must be in [0,1), got {b}")
        _check_thr(self.threshold, "threshold")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError(f"seed must be a u64, got {self.seed}")
        if self.loss_weights is not None:
            ws = [float(w) for w in self.loss_weights]
            if not all(math.isfinite(w) and w >= 0 for w in ws):
                raise ValueError(f"loss_weights must be finite and >= 0, got {ws}")
            if not any(w > 0 for w in ws):
                raise ValueError("loss_weights must not be all zero")
            self.loss_weights = ws


def parse_train_config(text: str) -> TrainConfig:
    """Flat `key = value` lines; unknown keys are hard errors."""
    kwargs = {}
    for key, val in _config_lines(text):
        if key in ("lr", "beta1", "beta2", "eps_adam", "threshold"):
            kwargs[key] = _parse_float(key, val)
        elif key in ("batch_size", "epochs", "seed"):
            kwargs[key] = _parse_int(key, val)
        elif key == "loss_weights":
            kwargs[key] = [_parse_float(key, p) for p in val.split(",") if p.strip()]
        else:
            raise ValueError(f"unknown config key {key!r}; valid keys: {TRAIN_KEYS}")
    return TrainConfig(**kwargs)


def render_train_config(cfg: TrainConfig) -> str:
    lines = [f"lr = {cfg.lr!r}",
             f"beta1 = {cfg.beta1!r}",
             f"beta2 = {cfg.beta2!r}",
             f"eps_adam = {cfg.eps_adam!r}",
             f"batch_size = {cfg.batch_size}",
             f"epochs = {cfg.epochs}",
             f"seed = {cfg.seed}",
             f"threshold = {cfg.threshold!r}"]
    if cfg.loss_weights is not None:
        lines.append("loss_weights = " + ",".join(repr(w) for w in cfg.loss_weights))
    return "\n".join(lines) + "\n"


def total_loss(outputs, target: Tensor, weights) -> Tensor:
    """Sum of weighted BCE terms over sigmoid(d_1..d_K) and sigmoid(fused)."""
    maps = outputs.probability_maps()
    if len(weights) != len(maps):
        raise ValueError(f"need {len(maps)} loss weights "
                         f"({len(maps) - 1} side + fused), got {len(weights)}")
    total = None
    for w, prob in zip(weights, maps):
        term = scale(bce_loss(prob, target), float(w))
        total = term if total is None else add(total, term)
    return total


class AdamState:
    """First/second moment buffers aligned with a parameter list."""

    def __init__(self, params: list):
        self.params = list(params)
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        self.t = 0


def adam_step(state: AdamState, cfg: TrainConfig) -> None:
    """One update from the gradients currently held by the parameters."""
    state.t += 1
    b1, b2 = cfg.beta1, cfg.beta2
    bc1 = 1.0 - b1 ** state.t
    bc2 = 1.0 - b2 ** state.t
    for p, m, v in zip(state.params, state.m, state.v):
        g = p.grad_or_zeros()
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        mhat = m / bc1
        vhat = v / bc2
        p.data -= cfg.lr * mhat / (np.sqrt(vhat) + cfg.eps_adam)


def _stack_batch(samples: list) -> tuple:
    shapes = {s.image.data.shape for s in samples}
    if len(shapes) > 1:
        raise ValueError(f"cannot batch mixed image sizes {sorted(shapes)}; "
                         "use batch_size=1 for mixed datasets")
    x = np.concatenate([s.image.data for s in samples], axis=0)
    y = np.concatenate([s.mask.data for s in samples], axis=0)
    return Tensor(x), Tensor(y)


def train_loop(params: ModelParams, dataset: list, cfg: TrainConfig,
               ckpt_path=None, curve_path=None, ckpt_every: int = 0,
               max_steps: int = 0) -> dict:
    """Train in place; returns {"rows": [(step, loss, iou)], "state": AdamState}.

    Shuffling is per-epoch deterministic: epoch e uses the (e+1)-th raw
    output of a splitmix64 stream seeded with cfg.seed. A non-finite loss
    aborts immediately, naming the step. `max_steps` > 0 caps total steps.
    """
    if not dataset:
        raise ValueError("training dataset is empty")
    weights = cfg.loss_weights
    if weights is None:
        weights = [1.0] * (params.cfg.n_side + 1)
    state = AdamState(params.trainables())
    epoch_seeds = Prng(cfg.seed)
    rows = []
    order = list(range(len(dataset)))
    step = 0
    done = False
    for epoch in range(cfg.epochs):
        if done:
            break
        Prng(epoch_seeds.next_u64()).shuffle(order)
        for lo in range(0, len(order), cfg.batch_size):
            batch = [dataset[i] for i in order[lo: lo + cfg.batch_size]]
            x, y = _stack_batch(batch)
            zero_grads(state.params)
            out = forward(params, x, training=True)
            loss = total_loss(out, y, weights)
            loss_val = float(loss.data)
            if not math.isfinite(loss_val):
                raise RuntimeError(f"non-finite loss at step {step}: {loss_val}")
            backward(loss)
            adam_step(state, cfg)
            pred = binarize(_stable_sigmoid(out.fused.data), cfg.threshold)
            batch_iou = iou_dataset([pred], [y.data])
            rows.append((step, loss_val, batch_iou))
            step += 1
            if max_steps and step >= max_steps:
                done = True
                break
        if ckpt_path is not None and ckpt_every and (epoch + 1) % ckpt_every == 0:
            save_checkpoint(ckpt_path, params, state=state, step=step, train_cfg=cfg)
    if ckpt_path is not None:
        save_checkpoint(ckpt_path, params, state=state, step=step, train_cfg=cfg)
    if curve_path is not None:
        write_curve(rows, curve_path)
    return {"rows": rows, "state": state}


def write_curve(rows: list, path) -> None:
    lines = ["step,loss,iou"]
    for step, loss_val, iou_val in rows:
        lines.append(f"{step},{float(loss_val)!r},{float(iou_val)!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# checkpoint container


def _text_tensor(text: str) -> np.ndarray:
    return np.frombuffer(text.encode("utf-8"), dtype=np.uint8).astype(np.float32)


def _tensor_text(arr: np.ndarray) -> str:
    return bytes(arr.astype(np.uint8)).decode("utf-8")


def _checkpoint_entries(params: ModelParams, state, step: int, train_cfg) -> dict:
    entries = {"meta.model_cfg": _text_tensor(render_model_config(params.cfg)),
               "meta.step": np.asarray(float(step), dtype=np.float32)}
    if train_cfg is not None:
        entries["meta.train_cfg"] = _text_tensor(render_train_config(train_cfg))
    named = params.named()
    entries.update((name, t.data) for name, t in named.items())
    if state is not None:
        entries["adam.t"] = np.asarray(float(state.t), dtype=np.float32)
        name_of = {id(t): name for name, t in named.items()}
        for p, m, v in zip(state.params, state.m, state.v):
            name = name_of[id(p)]
            entries[f"adam.{name}.m"] = m
            entries[f"adam.{name}.v"] = v
    return entries


def save_checkpoint(path, params: ModelParams, state: AdamState = None,
                    step: int = 0, train_cfg: TrainConfig = None) -> None:
    tio.save_entries(path, _checkpoint_entries(params, state, step, train_cfg))


def load_checkpoint(path, params: ModelParams) -> dict:
    """Restore tensors in place into a model built with the identical config.

    Returns {"state": AdamState or None, "step": int, "train_cfg": TrainConfig
    or None}. Any missing, extra, or shape-mismatched tensor is a hard error
    naming it.
    """
    return _restore(tio.load_entries(path), params)[1]


def open_checkpoint(path) -> tuple:
    """Build a model from the config stored in a checkpoint and load into it.

    Returns (params, info) with info as in load_checkpoint.
    """
    return _restore(tio.load_entries(path))


def _scalar_entry(entries: dict, name: str) -> int:
    arr = entries[name]
    if arr.shape != ():
        raise ValueError(f"checkpoint entry {name!r} must be a scalar, got shape {arr.shape}")
    return int(arr)


def _restore(entries: dict, params: ModelParams = None) -> tuple:
    """Load checkpoint entries into params (built from the stored config when
    None); returns (params, info)."""
    if "meta.model_cfg" not in entries:
        raise ValueError("checkpoint missing entry 'meta.model_cfg'")
    stored_cfg = _tensor_text(entries["meta.model_cfg"])
    if params is None:
        params = ModelParams(parse_model_config(stored_cfg), None)
    expected = render_model_config(params.cfg)
    if stored_cfg != expected:
        raise ValueError("checkpoint model config does not match this model:\n"
                         f"stored:   {stored_cfg!r}\nexpected: {expected!r}")
    named = params.named()
    for name, t in named.items():
        if name not in entries:
            raise ValueError(f"checkpoint missing tensor {name!r}")
        arr = entries[name]
        if arr.shape != t.data.shape:
            raise ValueError(f"checkpoint tensor {name!r} has shape {arr.shape}, "
                             f"model expects {t.data.shape}")
        t.data[...] = arr
    known = set(named)
    step = _scalar_entry(entries, "meta.step") if "meta.step" in entries else 0
    train_cfg = None
    if "meta.train_cfg" in entries:
        train_cfg = parse_train_config(_tensor_text(entries["meta.train_cfg"]))
    state = None
    if "adam.t" in entries:
        state = AdamState(params.trainables())
        state.t = _scalar_entry(entries, "adam.t")
        name_of = {id(t): name for name, t in named.items()}
        for i, p in enumerate(state.params):
            base = f"adam.{name_of[id(p)]}"
            for suffix, buf in ((".m", state.m), (".v", state.v)):
                key = base + suffix
                if key not in entries:
                    raise ValueError(f"checkpoint missing tensor {key!r}")
                if entries[key].shape != p.data.shape:
                    raise ValueError(f"checkpoint tensor {key!r} has shape "
                                     f"{entries[key].shape}, expected {p.data.shape}")
                buf[i][...] = entries[key]
                known.add(key)
        known.add("adam.t")
    known.update(("meta.model_cfg", "meta.step", "meta.train_cfg"))
    extra = sorted(set(entries) - known)
    if extra:
        raise ValueError(f"checkpoint holds unknown tensors: {extra}")
    return params, {"state": state, "step": step, "train_cfg": train_cfg}


# ---------------------------------------------------------------------------
# evaluation / ablation harness


def evaluate_dataset(params: ModelParams, dataset: list, thr: float = 0.5,
                     n_thresholds: int = 0, fpr_mode: str = "standard") -> dict:
    """Eval-mode fused-head metrics over a sample list: infer every image once,
    then `metrics.compute_report` (with a ROC when n_thresholds > 0).

    Returns {"iou", "niou", "per_sample", "scores", "gts", "report"}.
    """
    if not dataset:
        raise ValueError("evaluation dataset is empty")
    _check_thr(thr)  # before the inference, which is the costly part
    scores = [infer(params, s.image).data[0, 0] for s in dataset]
    gts = [s.mask.data[0, 0] for s in dataset]
    report = compute_report(scores, gts, thr=thr, n_thresholds=n_thresholds,
                            fpr_mode=fpr_mode)
    return {"iou": report.iou,
            "niou": report.niou,
            "per_sample": report.per_sample_iou,
            "scores": scores,
            "gts": gts,
            "report": report}


def run_ablation(dataset: list, train_cfg: TrainConfig, out_path=None,
                 preset: str = "tiny", gate_kind: str = "sigmoid",
                 max_steps: int = 0) -> list:
    """Train attention-on and attention-off variants from one seed and report
    `config,iou,niou` rows (the structural comparison the harness exists for)."""
    rows = []
    for ica_enabled in (True, False):
        cfg = ModelConfig(preset=preset, ica_enabled=ica_enabled, gate_kind=gate_kind)
        params = ModelParams(cfg, Prng(train_cfg.seed))
        train_loop(params, dataset, train_cfg, max_steps=max_steps)
        scores = evaluate_dataset(params, dataset, train_cfg.threshold)
        label = "ica_on" if ica_enabled else "ica_off"
        rows.append((label, scores["iou"], scores["niou"]))
    if out_path is not None:
        lines = ["config,iou,niou"]
        for label, iou_val, niou_val in rows:
            lines.append(f"{label},{iou_val!r},{niou_val!r}")
        with open(out_path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    return rows
