"""nuseg benchmark: one workload per invocation, closed loop, one process.

    python3 perfbench/run.py --workload train_tiny --seed 1 --seconds 30 --trace 0

`--trace 0` measures the end-to-end metrics with nothing wrapped but the
unit boundary. `--trace 1` measures untraced for half the time, then installs
the tracer, sets up again and measures traced for the other half, and prints
the per-layer metrics, the per-module table and the tracing overhead. Both
print stable `key=value` lines, then one JSON object as the last line. The
exit code is 1 if any correctness check failed, 2 if the program cannot be
found. Run it from the root of a checkout; it writes only under
`.perfbench_work/` there and removes that directory when it ends.
"""

import os
import sys

# BLAS threads are pinned before NumPy is first imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
SETUP_REPEATS = 9  # at least this many set-ups,
SETUP_MIN_S = 2.0  # and at least this long in all
LATENCY_Q = 0.9

WORKLOAD_WHY = {
    "train_tiny": "Large working set and a heavy backward pass: conv2d and autodiff do most "
                  "of the work; the only workload that writes checkpoints.",
    "eval_small": "Forward only, so every backward closure built is wasted; the metrics and "
                  "file-writing layers do real work here and nowhere else.",
    "gradcheck": "Tiny 4x4 graphs evaluated thousands of times: per-call overhead dominates, "
                 "so it shows set-up cost a faster conv kernel might add.",
}
# name, unit, better, bound. The timing bounds are wide because a shared
# 2-core VM drifts: six consecutive gradcheck runs read 3.8 to 4.6 units/s.
END_TO_END = (
    ("latency_ms_p50", "ms", "lower", 0.25),
    ("latency_ms_p90", "ms", "lower", 0.25),
    ("throughput_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("setup_s", "s", "lower", 0.25),
)
_OPS_TIMED = ("conv2d", "batch_norm", "activation", "max_pool2d", "upsample_bilinear",
              "concat_channels", "mul_broadcast", "other")
_OPS_ALL = _OPS_TIMED[:-1] + ("bce_loss", "other")
# Per-layer figures are per unit of work of the traced phase; `setup.*` ones
# are for one traced set-up. A time is listed here only if its layer runs on
# every workload, so no listed time reads 0 by construction; `--trace 1`
# prints every other figure as a `layer=` line.
PER_LAYER = (
    tuple((f"tensor.{k}.fwd_ms", "ms", "lower") for k in _OPS_TIMED)
    + tuple((f"tensor.{k}.ms", "ms", "lower") for k in _OPS_TIMED)
    + tuple((f"tensor.{k}.calls", "count", "lower") for k in _OPS_ALL)
    + tuple((f"tensor.{k}.out_bytes", "B", "lower") for k in _OPS_ALL)
    + (
        ("tensor.conv2d.macs", "count", "lower"),
        ("tensor.conv2d.gmacs_per_s", "GMAC/s", "higher"),
        ("tensor.closures_built", "count", "lower"),
        ("tensor.closures_run", "count", "lower"),
        ("tensor.closure_use_ratio", "ratio", "higher"),
        ("tensor.backward.calls", "count", "lower"),
        ("model.forward.macs", "count", "lower"),
        ("io.save_entries.bytes", "B", "lower"),
        ("metrics.connected_components.pixels", "count", "lower"),
        ("setup.prng.normal.ms", "ms", "lower"),
        ("setup.prng.normal.values", "count", "lower"),
        ("setup.data.load_pgm.bytes", "B", "lower"),
        ("setup.io.save_entries.bytes", "B", "lower"),
        ("setup.io.load_entries.bytes", "B", "lower"),
        ("trace.overhead_ratio", "ratio", "higher"),
    )
)
# Layer figures every traced run prints, as 0 where a workload does not
# reach the layer.
ALWAYS_PHASE = (
    ("tensor.backward.ms", "ms"), ("model.forward.ms", "ms"), ("model.infer.ms", "ms"),
    ("model.forward.macs", "count"), ("train.adam_step.ms", "ms"),
    ("train.total_loss.ms", "ms"), ("train.save_checkpoint.ms", "ms"),
    ("metrics.compute_report.ms", "ms"), ("metrics.roc.ms", "ms"),
    ("metrics.connected_components.ms", "ms"),
    ("metrics.connected_components.pixels", "count"), ("metrics.iou_dataset.ms", "ms"),
    ("io.save_entries.ms", "ms"), ("io.save_entries.bytes", "B"),
)
ALWAYS_SETUP = (
    ("train.open_checkpoint.ms", "ms"), ("io.save_entries.ms", "ms"),
    ("io.save_entries.bytes", "B"), ("io.load_entries.ms", "ms"),
    ("io.load_entries.bytes", "B"), ("data.gen_dataset.ms", "ms"),
    ("data.load_dataset.ms", "ms"), ("data.load_pgm.bytes", "B"),
    ("prng.normal.ms", "ms"), ("prng.normal.values", "count"),
)


def spec() -> dict:
    """The contents of BENCHMARK.json, derived from the tables above."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 30,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOAD_WHY.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def environment() -> dict:
    import numpy as np

    blas_name = blas_version = "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name, blas_version = blas.get("name", "unknown"), blas.get("version", "unknown")
    except (TypeError, KeyError):
        pass
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"blas": blas_name, "blas_version": blas_version, "blas_threads": BLAS_THREADS,
            "numpy": np.__version__, "python": platform.python_version(),
            "nproc": os.cpu_count(), "cpu_model": cpu}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _untraced(w, seconds: float, out) -> tuple:
    """Median of several set-ups, then one timed phase: the end-to-end metrics."""
    import measure

    setups = []
    while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_MIN_S:
        w.discard()
        t0 = perf_counter()
        w.setup()
        setups.append(perf_counter() - t0)
    phase = w.run(seconds, measure.min_samples(LATENCY_Q))
    w.check(phase)
    lat_ms = [1e3 * s for s in phase.latencies] or [0.0]
    values = {
        "latency_ms_p50": (statistics.median(lat_ms), "ms"),
        "latency_ms_p90": (measure.percentile(lat_ms, LATENCY_Q), "ms"),
        "throughput_per_s": (phase.throughput, "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    for metric, (value, unit) in values.items():
        extra = f" samples={len(phase.latencies)}" if metric.startswith("latency") else ""
        out(f"metric={metric} value={value!r} unit={unit}{extra}")
    error_rate = phase.failed / phase.attempted if phase.attempted else 1.0
    out(f"metric=error_rate value={error_rate!r} unit=ratio "
        f"failed={phase.failed} attempted={phase.attempted}")
    return [phase], {m: values[m] for m, *_ in END_TO_END}


def _traced(w, seconds: float, out) -> tuple:
    """Half the time untraced, then set-up and half the time traced: the
    per-layer metrics, the per-module table and the coverage checks."""
    import tracer as tracing

    w.setup()
    plain = w.run(seconds / 2, 1)
    w.check(plain)
    tr = tracing.Tracer()
    tr.install()
    try:
        w.setup()
        setup_layers = tr.layer_metrics(ALWAYS_SETUP, all_ops=False)
        tr.reset()
        traced = w.run(seconds / 2, 1)
        units = max(1, len(traced.latencies))
        layers = tr.layer_metrics(ALWAYS_PHASE, per=units)
        table = tr.module_table(per=units)
        tr.reset()
        problems = w.coverage(tr)
    finally:
        tr.uninstall()
    w.check(traced)
    for problem in problems:
        traced.fail(range(traced.attempted), f"coverage: {problem}")
    layers.update((f"setup.{k}", v) for k, v in setup_layers.items())
    ratio = traced.throughput / plain.throughput if plain.throughput else 0.0
    layers["trace.overhead_ratio"] = (ratio, "ratio")
    out(f"trace.units={len(traced.latencies)}")
    out(f"trace.untraced_per_s={plain.throughput!r}")
    out(f"trace.traced_per_s={traced.throughput!r}")
    out(f"trace.coverage={'ok' if not problems else 'FAILED'}")
    for key in sorted(layers):
        value, unit = layers[key]
        out(f"layer={key} value={value!r} unit={unit}")
    for row in table:
        out(" ".join(f"{k}={v!r}" if isinstance(v, float) else f"{k}={v}"
                     for k, v in row.items()))
    return [plain, traced], {m: layers.get(m, (0.0, unit)) for m, unit, _ in PER_LAYER}


def execute(name: str, seed: int, seconds: float, trace: bool, workdir: str,
            size=None, out=print) -> dict:
    """Run one workload; returns the result object printed as the last line."""
    import workloads

    w = workloads.WORKLOADS[name](seed, workdir, size or workloads.FULL)
    phases, metrics = (_traced if trace else _untraced)(w, seconds, out)
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    for p in phases:
        for message in p.errors:
            out(f"error={message}")
    return {"correct": failed == 0 and attempted > 0, "attempted": attempted, "failed": failed,
            "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOAD_WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "nuseg", "__init__.py")):
        print(f"error: nuseg sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    try:
        for key, value in environment().items():
            print(f"env.{key}={value}")
        print(f"workload={args.workload}")
        print(f"seed={args.seed}")
        result = execute(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        parent = os.path.dirname(workdir)
        if os.path.isdir(parent) and not os.listdir(parent):
            os.rmdir(parent)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
