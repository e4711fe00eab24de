"""Tests for the benchmark's own logic: span arithmetic, the percentile and
sample-count rule, the tracer's coverage, and a smallest-size run of every
workload in both modes.

Run from the repository root: `PYTHONPATH=src python -m pytest perfbench`.
"""

import json
import os
import shutil
import statistics
import subprocess
import sys

import pytest

import measure
import run
import tracer as tracing
import workloads
from nuseg import layers, model, tensor


def test_self_time_subtracts_union_of_overlapping_children():
    # [1,4] and [3,6] overlap, [8,12] sticks out of the span: cover = 5 + 2
    assert measure.self_time(0.0, 10.0, [(1.0, 4.0), (3.0, 6.0), (8.0, 12.0)]) == 3.0
    assert measure.self_time(0.0, 10.0, [(2.0, 5.0), (2.0, 5.0), (3.0, 4.0)]) == 7.0
    assert measure.self_time(0.0, 10.0, [(-3.0, 20.0)]) == 0.0
    assert measure.self_time(2.0, 5.0, []) == 3.0


def test_union_length_ignores_order_and_empty_intervals():
    assert measure.union_length([(5, 7), (0, 2), (1, 3), (4, 4)]) == 5
    assert measure.union_length([]) == 0


def test_percentile_matches_statistics_inclusive_method():
    xs = [((i * 7919) % 101) / 7.0 for i in range(137)]
    deciles = statistics.quantiles(xs, n=10, method="inclusive")
    assert measure.percentile(xs, 0.9) == pytest.approx(deciles[8], rel=1e-12)
    assert measure.percentile(xs, 0.5) == pytest.approx(statistics.median(xs), rel=1e-12)
    assert measure.percentile([4.0], 0.9) == 4.0


def test_sample_count_rule_leaves_ten_beyond_p90():
    n = measure.min_samples(0.9)
    assert measure.tail_count(n, 0.9) >= 10
    assert measure.tail_count(n - 1, 0.9) < 10
    for size in (n - 1, n, n + 5, 250):
        xs = list(range(size))
        beyond = sum(1 for x in xs if x > measure.percentile(xs, 0.9))
        assert beyond == measure.tail_count(size, 0.9)


def test_benchmark_json_matches_the_tables_in_run():
    with open(run.SPEC_PATH) as fh:
        assert json.load(fh) == run.spec()


def test_tracer_rebinds_every_import_site_and_restores_it():
    original = tensor.conv2d
    tr = tracing.Tracer()
    tr.install()
    try:
        assert tensor.conv2d is not original
        assert layers.conv2d is tensor.conv2d
    finally:
        tr.uninstall()
    assert tensor.conv2d is original and layers.conv2d is original
    assert model.forward.__module__ == "nuseg.model" and not hasattr(model.forward,
                                                                     "__wrapped__")


def test_coverage_check_catches_an_unwrapped_call_site(tmp_path, monkeypatch):
    inner = layers.conv2d
    monkeypatch.setattr(layers, "conv2d", lambda *a, **kw: inner(*a, **kw))
    w = workloads.EvalSmall(0, str(tmp_path), workloads.SMOKE)
    w.setup()
    tr = tracing.Tracer()
    tr.install()
    try:
        problems = w.coverage(tr)
    finally:
        tr.uninstall()
    assert any("tape records" in p for p in problems)
    assert any("count_flops" in p for p in problems)


def test_eval_check_counts_out_of_range_maps_as_failed(tmp_path, monkeypatch):
    def bad_infer(params, image):
        return tensor.Tensor(image.data[:, :1] * 3.0)

    monkeypatch.setattr(model, "infer", bad_infer)
    w = workloads.EvalSmall(0, str(tmp_path), workloads.SMOKE)
    w.setup()
    phase = w.run(0, 1)
    assert phase.failed == phase.attempted > 0


def test_gradcheck_unit_is_a_block_and_a_bad_seed_fails_its_blocks(tmp_path, monkeypatch):
    def over_bound(build, leaves, eps, promote=()):
        for _ in range(20):
            build(*leaves)
        return 1.0

    monkeypatch.setattr(tensor, "grad_check", over_bound)
    w = workloads.GradCheck(0, str(tmp_path), workloads.SMOKE)
    w.setup()
    phase = w.run(0, 5)
    # 20 evaluations a seed, 8 to a block: two seeds are blocks 0-2 and 2-4
    assert workloads.SMOKE.grad_block == 8
    assert len(phase.latencies) == 5
    assert phase.attempted == phase.failed == 5


def _execute(name, trace, tmp_path):
    lines = []
    result = run.execute(name, 3, 0, trace, str(tmp_path), workloads.SMOKE, lines.append)
    assert not [ln for ln in lines if ln.startswith("error=")]
    return result, lines


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_untraced(name, tmp_path):
    result, lines = _execute(name, False, tmp_path)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= measure.min_samples(run.LATENCY_Q)
    assert list(result["metrics"]) == [m for m, *_ in run.END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert any(ln.startswith("metric=error_rate value=0.0 ") for ln in lines)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_traced(name, tmp_path):
    result, lines = _execute(name, True, tmp_path)
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m for m, *_ in run.PER_LAYER]
    assert "trace.coverage=ok" in lines
    for metric, unit, _ in run.PER_LAYER:
        assert result["metrics"][metric]["unit"] == unit
        if unit == "ms":
            assert result["metrics"][metric]["value"] > 0, metric
    if name != "gradcheck":
        modules = {ln.split()[0] for ln in lines if ln.startswith("module=")}
        assert {"module=en1", "module=de1", "module=ica1", "module=proj1",
                "module=head1", "module=fuse"} <= modules


def test_exits_nonzero_without_a_result_when_sources_are_missing(tmp_path):
    here = os.path.dirname(os.path.abspath(__file__))
    shutil.copytree(here, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.SPEC_PATH, tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gradcheck", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
