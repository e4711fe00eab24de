"""Per-image `infer` latency and peak RSS over presets and image sizes.

    python3 tools/infer_sweep.py --presets tiny,small,full --sizes 64,128,192,256,320 --calls 5

For each preset, one fresh process builds the model from `Prng(0)` and
saves its checkpoint to a temporary directory. For each (preset, size), one
fresh process opens that checkpoint, as `nuseg infer` does, and calls `infer`
`--calls` times on one generated [1, 3, size, size] image. Every process
imports perfbench's `run` first, which pins BLAS to one thread before NumPy
is imported.

Output is `key=value` lines: the environment as `env.*`, then per preset
`<preset>.build_s` and `<preset>.build_peak_rss_mb`, and per configuration
`<preset>.<size>.open_s`, `.open_peak_rss_mb`, `.infer_peak_rss_mb`,
`.latency_ms_p50` and `.calls`. A peak is the process's `ru_maxrss` at that
point, so `infer_peak_rss_mb` is never below `open_peak_rss_mb`. Run it from
the root of a checkout; it reads the sources under `src/`.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402  (pins BLAS threads before NumPy is imported)

import argparse  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from time import perf_counter  # noqa: E402


def _build(preset: str, ckpt: str) -> None:
    from nuseg.model import ModelConfig, ModelParams
    from nuseg.prng import Prng
    from nuseg.train import save_checkpoint

    t = perf_counter()
    params = ModelParams(ModelConfig(preset=preset), Prng(0))
    print(f"build_s={perf_counter() - t:.4f}")
    print(f"build_peak_rss_mb={run.peak_rss_mb():.2f}")
    save_checkpoint(ckpt, params)


def _infer(ckpt: str, size: int, calls: int) -> None:
    from nuseg.model import infer
    from nuseg.prng import Prng
    from nuseg.tensor import Tensor
    from nuseg.train import open_checkpoint

    image = Tensor(Prng(0).uniform_array(3 * size * size).reshape(1, 3, size, size))
    t = perf_counter()
    params, _ = open_checkpoint(ckpt)
    print(f"open_s={perf_counter() - t:.4f}")
    print(f"open_peak_rss_mb={run.peak_rss_mb():.2f}")
    times = []
    for _ in range(calls):
        t = perf_counter()
        infer(params, image)
        times.append(perf_counter() - t)
    print(f"infer_peak_rss_mb={run.peak_rss_mb():.2f}")
    print(f"latency_ms_p50={1e3 * statistics.median(times):.3f}")
    print(f"calls={calls}")


def _child(prefix: str, *args: str) -> None:
    """Run this script's `--child` mode in a fresh process and print its
    lines under `prefix`."""
    res = subprocess.run([sys.executable, os.path.abspath(__file__), "--child", *args],
                         capture_output=True, text=True, check=False)
    if res.returncode != 0:
        sys.stderr.write(res.stderr)
        raise SystemExit(f"{prefix}: child process failed with exit code {res.returncode}")
    for line in res.stdout.splitlines():
        print(f"{prefix}.{line}", flush=True)


def _int_list(text: str) -> list:
    return [int(v) for v in text.split(",") if v.strip()]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--presets", default="tiny,small,full")
    ap.add_argument("--sizes", type=_int_list, default=[64, 128, 192, 256, 320])
    ap.add_argument("--calls", type=int, default=5, help="infer calls per configuration")
    ap.add_argument("--child", nargs="+", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        mode, *rest = args.child
        if mode == "build":
            _build(rest[0], rest[1])
        else:
            _infer(rest[0], int(rest[1]), args.calls)
        return 0
    if args.calls < 1:
        ap.error("--calls must be at least 1")

    for key, value in run.environment().items():
        print(f"env.{key}={value}")
    with tempfile.TemporaryDirectory(prefix="infer_sweep_") as work:
        for preset in args.presets.split(","):
            ckpt = os.path.join(work, f"{preset}.ckpt")
            _child(preset, "build", preset, ckpt)
            for size in args.sizes:
                _child(f"{preset}.{size}", "infer", ckpt, str(size), f"--calls={args.calls}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
