"""`tools/infer_sweep.py` end to end at the smallest size: every figure it
promises is printed as a `key=value` line, from fresh processes."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "infer_sweep.py"


def sweep(*args):
    return subprocess.run([sys.executable, str(SCRIPT), *args], capture_output=True,
                          text=True, timeout=300, check=False)


def test_tiny_at_32px_prints_every_figure():
    res = sweep("--presets", "tiny", "--sizes", "32", "--calls", "2")
    assert res.returncode == 0, res.stderr
    lines = dict(line.split("=", 1) for line in res.stdout.splitlines())
    assert lines["env.blas_threads"] == "1"
    assert lines["tiny.32.calls"] == "2"
    for key in ("tiny.build_s", "tiny.build_peak_rss_mb", "tiny.32.open_s",
                "tiny.32.open_peak_rss_mb", "tiny.32.infer_peak_rss_mb",
                "tiny.32.latency_ms_p50"):
        assert float(lines[key]) > 0, key
    assert float(lines["tiny.32.infer_peak_rss_mb"]) >= float(lines["tiny.32.open_peak_rss_mb"])


def test_a_failed_configuration_is_an_error_naming_it():
    res = sweep("--presets", "tiny", "--sizes", "30", "--calls", "1")
    assert res.returncode != 0
    assert "tiny.30" in res.stderr and "not divisible" in res.stderr
