"""The benchmark's three workloads, driven through nuseg's public functions.

Each workload makes its inputs from one seed, times one kind of unit from
outside, and checks the program's outputs:

- `train_tiny`: `train.train_loop` on the tiny preset; unit = one Adam step;
- `eval_small`: the `nuseg report` path; unit = one `model.infer` call;
- `gradcheck`: `tensor.grad_check` over c01's composed graph; unit = a block
  of `grad_block` consecutive loss evaluations, i.e. calls of the graph's
  build function. c01's per-op graphs are checked after the timed phase.

Library functions are called through their modules (`train.train_loop`, not a
name imported once), so the tracer's rebinding reaches these calls too.
"""

import math
import os
import shutil
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from nuseg import data, ica, metrics, model, rsu, tensor as T, train
from nuseg.data import DatasetTemplate
from nuseg.ica import IcaParams
from nuseg.layers import Conv
from nuseg.model import ModelConfig, ModelParams
from nuseg.prng import Prng
from nuseg.rsu import RsuParams, RsuSpec
from nuseg.tensor import Tape, Tensor
from nuseg.train import TrainConfig

__all__ = ["Size", "FULL", "SMOKE", "Phase", "WORKLOADS", "gradcheck_graphs"]


@dataclass(frozen=True)
class Size:
    """Input sizes. FULL is the benchmark; SMOKE is the smallest valid run."""

    train_scenes: int = 8
    train_px: int = 64
    batch: int = 4
    eval_images: int = 8
    eval_px: int = 128
    roc_thresholds: int = 200
    graph_seeds: int = 8
    grad_block: int = 64


FULL = Size()
SMOKE = Size(train_scenes=2, train_px=32, batch=2, eval_images=2, eval_px=32,
             roc_thresholds=10, graph_seeds=1, grad_block=8)


@dataclass
class Phase:
    """One timed phase: per-unit latencies in seconds and the failure tally."""

    latencies: list = field(default_factory=list)
    elapsed: float = 0.0
    attempted: int = 0
    failed_units: set = field(default_factory=set)  # indices of attempted units
    errors: list = field(default_factory=list)

    @property
    def failed(self) -> int:
        return len(self.failed_units)

    @property
    def throughput(self) -> float:
        return len(self.latencies) / self.elapsed if self.elapsed > 0 else 0.0

    def fail(self, units, message: str) -> None:
        self.failed_units.update(units)
        self.errors.append(message)


def _done(t0: float, seconds: float, units: int, min_units: int) -> bool:
    return perf_counter() - t0 >= seconds and units >= min_units


def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


class _Workload:
    name = ""

    def __init__(self, workdir: str, size: Size):
        self.workdir = os.path.join(workdir, self.name)
        self.size = size
        self._setups = 0

    def discard(self) -> None:
        """Remove the files earlier set-ups wrote, so set-ups do not pile up."""
        shutil.rmtree(self.workdir, ignore_errors=True)

    def _fresh_dir(self) -> str:
        self._setups += 1
        path = os.path.join(self.workdir, f"setup{self._setups}")
        os.makedirs(path)
        return path

    def coverage(self, tracer) -> list:
        """Run one unit under a Tape with the tracer installed; the traced
        conv2d calls must equal the taped ones, so no call site escaped."""
        before_conv = tracer.ops["conv2d"].calls
        with Tape() as tape:
            self._one_unit()
        traced = tracer.ops["conv2d"].calls - before_conv
        taped = sum(1 for r in tape.ops if r.name == "conv2d")
        if traced != taped:
            return [f"{self.name}: traced conv2d calls {traced} != tape records {taped}"]
        return []

    def _macs_check(self, tracer, params, x, training: bool) -> list:
        before = tracer.macs
        model.forward(params, x, training=training)
        traced = tracer.macs - before
        n, _, h, w = x.data.shape
        expected = n * model.count_flops(params.cfg, h, w)
        if traced != expected:
            return [f"{self.name}: traced conv+linear MACs {traced} != "
                    f"count_flops {expected}"]
        return []


class TrainTiny(_Workload):
    """train_loop on the tiny preset; a checkpoint and curve every epoch."""

    name = "train_tiny"

    def __init__(self, seed, workdir, size=FULL):
        super().__init__(workdir, size)
        rng = Prng(seed)
        self.data_seed = rng.next_u64()
        self.model_seed = rng.next_u64()
        self.epoch_seeds = rng.next_u64()

    def setup(self) -> None:
        d = self._fresh_dir()
        template = DatasetTemplate(width=self.size.train_px, height=self.size.train_px)
        data.gen_dataset(os.path.join(d, "data"), self.size.train_scenes, template,
                         self.data_seed)
        self.dataset = data.load_dataset(os.path.join(d, "data"))
        self.params = ModelParams(ModelConfig(preset="tiny"), Prng(self.model_seed))
        self.dir = d

    def _cfg(self, seed: int) -> TrainConfig:
        return TrainConfig(seed=seed, epochs=1, batch_size=self.size.batch)

    def _epoch(self, cfg: TrainConfig, tag: str, params=None) -> dict:
        return train.train_loop(self.params if params is None else params, self.dataset, cfg,
                                ckpt_path=os.path.join(self.dir, f"{tag}.ckpt"),
                                curve_path=os.path.join(self.dir, f"{tag}.curve.csv"))

    def run(self, seconds: float, min_units: int) -> Phase:
        """One train_loop call per epoch, each writing its checkpoint and
        curve; a unit ends at each return of train.adam_step."""
        phase = Phase()
        stamps = []
        inner = train.adam_step

        def stamped(state, cfg):
            inner(state, cfg)
            stamps.append(perf_counter())

        seeds = Prng(self.epoch_seeds)
        train.adam_step = stamped
        try:
            t0 = perf_counter()
            while True:
                first, done_before = phase.attempted, len(stamps)
                try:
                    rows = self._epoch(self._cfg(seeds.next_u64()), "run")["rows"]
                except Exception as exc:  # the raising step is a failed unit
                    phase.attempted += len(stamps) - done_before + 1
                    phase.fail([phase.attempted - 1], _error(exc))
                    rows = []
                else:
                    phase.attempted += len(rows)
                for i, (step, loss, iou) in enumerate(rows):
                    if not (math.isfinite(loss) and 0.0 <= iou <= 1.0):
                        phase.fail([first + i], f"step {step}: loss {loss!r}, iou {iou!r}")
                if _done(t0, seconds, len(stamps), min_units):
                    break
            phase.elapsed = perf_counter() - t0
        finally:
            train.adam_step = inner
        phase.latencies = np.diff([t0] + stamps).tolist()
        return phase

    def check(self, phase: Phase) -> None:
        """Two same-seed runs of a one-epoch prefix must write identical
        checkpoint and curve bytes."""
        blobs = []
        for k in range(2):
            params = ModelParams(ModelConfig(preset="tiny"), Prng(self.model_seed))
            self._epoch(self._cfg(self.epoch_seeds), f"det{k}", params)
            blobs.append([_read(os.path.join(self.dir, f"det{k}{ext}"))
                          for ext in (".ckpt", ".curve.csv")])
        if blobs[0] != blobs[1]:
            phase.fail(range(phase.attempted), "same-seed prefix runs wrote different files")

    def _one_unit(self) -> None:
        train.train_loop(self.params, self.dataset, self._cfg(self.epoch_seeds), max_steps=1)

    def coverage(self, tracer) -> list:
        batch = self.dataset[: self.size.batch]
        x = Tensor(np.concatenate([s.image.data for s in batch], axis=0))
        return super().coverage(tracer) + self._macs_check(tracer, self.params, x, True)


class EvalSmall(_Workload):
    """The `nuseg report` path: open a checkpoint, load a dataset, infer every
    image, then compute the report with a ROC and write its three files."""

    name = "eval_small"
    threshold = 0.5

    def __init__(self, seed, workdir, size=FULL):
        super().__init__(workdir, size)
        rng = Prng(seed)
        self.data_seed = rng.next_u64()
        self.model_seed = rng.next_u64()

    def setup(self) -> None:
        d = self._fresh_dir()
        px = self.size.eval_px
        data.gen_dataset(os.path.join(d, "data"), self.size.eval_images,
                         DatasetTemplate(width=px, height=px), self.data_seed)
        built = ModelParams(ModelConfig(preset="small"), Prng(self.model_seed))
        train.save_checkpoint(os.path.join(d, "model.ckpt"), built)
        self.params, _ = train.open_checkpoint(os.path.join(d, "model.ckpt"))
        self.dataset = data.load_dataset(os.path.join(d, "data"))
        self.out_dir = os.path.join(d, "report")
        os.makedirs(self.out_dir)
        self.passes = []  # (first unit, units, iou, niou) per pass

    def run(self, seconds: float, min_units: int) -> Phase:
        phase = Phase()
        px = self.size.eval_px
        gts = [s.mask.data[0, 0] for s in self.dataset]
        t0 = perf_counter()
        while True:
            first = phase.attempted
            scores = []
            for s in self.dataset:
                unit = phase.attempted
                phase.attempted += 1
                t = perf_counter()
                try:
                    prob = model.infer(self.params, s.image)
                except Exception as exc:
                    phase.fail([unit], _error(exc))
                    continue
                phase.latencies.append(perf_counter() - t)
                p = prob.data
                if not (p.shape == (1, 1, px, px) and np.all((p >= 0.0) & (p <= 1.0))):
                    phase.fail([unit], f"probability map shape {p.shape} or range "
                                  f"[{np.nanmin(p)}, {np.nanmax(p)}] invalid")
                scores.append(p[0, 0])
            if len(scores) == len(gts):
                report = metrics.compute_report(scores, gts, thr=self.threshold,
                                                n_thresholds=self.size.roc_thresholds)
                metrics.write_report_csv(report, os.path.join(self.out_dir, "report.csv"))
                metrics.write_roc_csv(report.roc, os.path.join(self.out_dir, "roc.csv"))
                metrics.write_roc_svg(report.roc, os.path.join(self.out_dir, "roc.svg"))
                self.passes.append((first, len(gts), report.iou, report.niou))
            if _done(t0, seconds, len(phase.latencies), min_units):
                break
        phase.elapsed = perf_counter() - t0
        return phase

    def check(self, phase: Phase) -> None:
        """Every report must agree exactly with train.evaluate_dataset."""
        ref = train.evaluate_dataset(self.params, self.dataset, self.threshold)
        for first, units, iou, niou in self.passes:
            if (iou, niou) != (ref["iou"], ref["niou"]):
                phase.fail(range(first, first + units), f"report iou/niou {iou!r}/{niou!r} != evaluate_dataset "
                                  f"{ref['iou']!r}/{ref['niou']!r} (units {first}..)")
        self.passes = []

    def _one_unit(self) -> None:
        model.infer(self.params, self.dataset[0].image)

    def coverage(self, tracer) -> list:
        return (super().coverage(tracer)
                + self._macs_check(tracer, self.params, self.dataset[0].image, False))


# Central differences at eps=1e-5 and the 1e-3 bound, over the graph seeds
# 0..19, as the c01 acceptance test. Central differences are wrong wherever a
# +/-eps step crosses a relu kink or a max-pool tie, and other seeds do hit
# one (seed 6540261's composed graph reads 0.044), so the workload keeps to
# the seeds c01 validates; the benchmark seed picks where in them a run starts.
GRAD_EPS = 1e-5
GRAD_BOUND = 1e-3
GRAD_SEEDS = 20


@dataclass
class Graph:
    name: str
    build: object
    leaves: list
    promote: list = field(default_factory=list)


def _rand(prng: Prng, *shape) -> Tensor:
    return Tensor(prng.normal(shape), requires_grad=True)


def _wsum(out: Tensor, seed: int) -> Tensor:
    # fixed random weighting so no per-element gradient error can cancel
    if out.data.ndim != 4:
        return T.sum_all(out)
    w = Tensor(Prng(seed).normal(out.data.shape).astype(out.data.dtype))
    return T.sum_all(T.mul_broadcast(out, w))


def gradcheck_graphs(seed: int) -> list:
    """c01's graphs for one seed: one per differentiable op (both conv
    variants, both BN modes, both channel-pool reductions, both gate shapes)
    and the composed pooling-RSU -> dilated-RSU -> ICA -> head -> BCE path."""
    p = Prng(seed)
    gs = []

    def op(name, build, leaves, promote=()):
        gs.append(Graph(name, build, leaves, list(promote)))

    x, w, b = _rand(p, 2, 3, 6, 6), _rand(p, 4, 3, 3, 3), _rand(p, 4)
    op("conv2d", lambda x_, w_, b_: _wsum(T.conv2d(x_, w_, b_, pad=1), seed), [x, w, b])
    x, w, b = _rand(p, 1, 2, 7, 7), _rand(p, 3, 2, 3, 3), _rand(p, 3)
    op("conv2d_strided_dilated", lambda x_, w_, b_: _wsum(
        T.conv2d(x_, w_, b_, stride=2, pad=2, dilation=2), seed + 1), [x, w, b])
    op("max_pool2d", lambda x_: _wsum(T.max_pool2d(x_), seed + 2), [_rand(p, 2, 2, 6, 6)])
    op("upsample_bilinear", lambda x_: _wsum(T.upsample_bilinear(x_, 6, 7), seed + 3),
       [_rand(p, 1, 2, 3, 4)])
    rm = Tensor(np.zeros(2, np.float32))
    rv = Tensor(np.ones(2, np.float32))
    x, g, be = _rand(p, 3, 2, 4, 4), _rand(p, 2), _rand(p, 2)
    op("batch_norm_train", lambda x_, g_, b_: _wsum(
        T.batch_norm(x_, g_, b_, rm, rv, training=True), seed + 4), [x, g, be], [rm, rv])
    x = _rand(p, 2, 2, 3, 3)
    op("batch_norm_eval", lambda x_, g_, b_: _wsum(
        T.batch_norm(x_, g_, b_, rm, rv, training=False), seed + 5), [x, g, be], [rm, rv])
    op("relu", lambda x_: _wsum(T.relu(x_), seed + 6), [_rand(p, 2, 3, 4, 4)])
    op("sigmoid", lambda x_: _wsum(T.sigmoid(x_), seed + 7), [_rand(p, 2, 3, 4, 4)])
    op("global_avg_pool", lambda x_: _wsum(T.global_avg_pool(x_), seed + 8),
       [_rand(p, 2, 4, 5, 5)])
    for mode in ("avg", "max"):
        op(f"channel_pool_{mode}",
           lambda x_, mode=mode: _wsum(T.channel_pool(x_, mode), seed + 9),
           [_rand(p, 2, 4, 4, 4)])
    x, a = _rand(p, 2, 3, 4, 4), _rand(p, 2, 3, 1, 1)
    op("mul_broadcast_channel", lambda x_, a_: _wsum(T.mul_broadcast(x_, a_), seed + 10),
       [x, a])
    x, a = _rand(p, 2, 3, 4, 4), _rand(p, 2, 1, 4, 4)
    op("mul_broadcast_spatial", lambda x_, a_: _wsum(T.mul_broadcast(x_, a_), seed + 11),
       [x, a])
    op("concat_channels", lambda *ts: _wsum(T.concat_channels(list(ts)), seed + 12),
       [_rand(p, 2, c, 3, 3) for c in (1, 2, 3)])
    x, w, b = _rand(p, 3, 4, 1, 1), _rand(p, 2, 4), _rand(p, 2)
    op("linear", lambda x_, w_, b_: _wsum(T.linear(x_, w_, b_), seed + 13), [x, w, b])
    z = _rand(p, 2, 1, 4, 4)
    t = Tensor((p.uniform_array(32) < 0.5).astype(np.float32).reshape(2, 1, 4, 4))
    op("bce_loss", lambda z_: T.bce_loss(T.sigmoid(z_), t), [z], [t])
    x, y = _rand(p, 2, 2, 3, 3), _rand(p, 2, 2, 3, 3)
    op("add", lambda x_, y_: _wsum(T.add(x_, y_), seed + 14), [x, y])
    op("scale", lambda x_: _wsum(T.scale(x_, -1.7), seed + 15), [_rand(p, 2, 2, 3, 3)])
    op("sum_all", lambda x_: T.sum_all(x_), [_rand(p, 2, 2, 3, 3)])
    gs.append(_composed_graph(seed))
    return gs


def _composed_graph(seed: int) -> Graph:
    prng = Prng(seed)
    rsu_a = RsuParams(RsuSpec(3, 1, 1, 4, "pooling"), prng)
    rsu_b = RsuParams(RsuSpec(3, 4, 1, 4, "dilated"), prng)
    ica_p = IcaParams(prng, 4)
    head = Conv(prng, 8, 1, k=3)
    x = Tensor(prng.normal((1, 1, 4, 4)))
    target = Tensor((prng.uniform_array(16) < 0.5).astype(np.float32).reshape(1, 1, 4, 4))

    def build(*_):
        f_l = rsu.rsu_forward(rsu_a, x, training=True)
        f_h = rsu.rsu_forward(rsu_b, f_l, training=True)
        fused = ica.ica_forward(f_h, f_l, ica_p, training=True).fused
        return T.bce_loss(T.activation(head.apply(fused), "sigmoid"), target)

    leaves = (rsu_a.trainables() + rsu_b.trainables() + ica_p.trainables()
              + head.trainables() + [x])
    return Graph("composed", build, leaves, [ica_p.c1_bias, target])


class GradCheck(_Workload):
    """grad_check over c01's composed graph for consecutive graph seeds,
    timed; the per-op graphs of the same seeds are checked afterwards."""

    name = "gradcheck"

    def __init__(self, seed, workdir, size=FULL):
        super().__init__(workdir, size)
        first = Prng(seed).next_u64() % GRAD_SEEDS
        self.graph_seeds = [(first + k) % GRAD_SEEDS for k in range(self.size.graph_seeds)]

    def setup(self) -> None:
        self.cases = [gradcheck_graphs(s) for s in self.graph_seeds]

    def run(self, seconds: float, min_units: int) -> Phase:
        """Whole seeds only, so every run times the same work; a unit ends at
        every `grad_block`-th loss evaluation. A single evaluation lasts a few
        ms, short enough that the host's swings in speed split its latencies
        into clusters; a block spans enough of them to even those out."""
        phase = Phase()
        stamps = []
        calls = 0
        block = self.size.grad_block

        def counted(build):
            def call(*leaves):
                nonlocal calls
                out = build(*leaves)
                calls += 1
                if calls % block == 0:
                    stamps.append(perf_counter())
                return out
            return call

        t0 = perf_counter()
        k = 0
        while True:
            seed = self.graph_seeds[k % len(self.cases)]
            g = self.cases[k % len(self.cases)][-1]
            k += 1
            start, raised, message = calls, False, None
            try:
                err = T.grad_check(counted(g.build), g.leaves, eps=GRAD_EPS,
                                   promote=g.promote)
            except Exception as exc:
                raised, message = True, f"seed {seed} {g.name}: {_error(exc)}"
            else:
                if not err < GRAD_BOUND:
                    message = f"seed {seed} {g.name}: gradient error {err!r}"
            if message is not None:
                # every block that holds one of this seed's evaluations,
                # the one that raised included
                end = calls + 1 if raised else calls
                phase.fail(range(start // block, (end - 1) // block + 1), message)
            if _done(t0, seconds, len(stamps), min_units) or (
                    raised and perf_counter() - t0 >= seconds):
                break
        phase.elapsed = (stamps[-1] if stamps else perf_counter()) - t0
        phase.latencies = np.diff([t0] + stamps).tolist()
        phase.attempted = max([len(stamps)] + [u + 1 for u in phase.failed_units])
        return phase

    def check(self, phase: Phase) -> None:
        """The composed graphs were bounded as each seed finished; the per-op
        graphs of the same seeds must stay below the bound too."""
        for seed, graphs in zip(self.graph_seeds, self.cases):
            for g in graphs[:-1]:
                try:
                    err = T.grad_check(g.build, g.leaves, eps=GRAD_EPS, promote=g.promote)
                except Exception as exc:
                    phase.fail(range(phase.attempted), f"seed {seed} {g.name}: {_error(exc)}")
                    continue
                if not err < GRAD_BOUND:
                    phase.fail(range(phase.attempted),
                               f"seed {seed} {g.name}: gradient error {err!r}")

    def _one_unit(self) -> None:
        g = self.cases[0][-1]
        g.build(*g.leaves)


WORKLOADS = {w.name: w for w in (TrainTiny, EvalSmall, GradCheck)}


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()
