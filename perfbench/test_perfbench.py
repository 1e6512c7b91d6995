"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py

Run from the repository root.  The traced-run tests start run.py twice
per workload and take a few minutes.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import spans  # noqa: E402
from workloads import WORKLOADS, GapRecorder, Ops  # noqa: E402

from protoabs import clustering, corpus_tools, tls_default  # noqa: E402


def _bench():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(workload, seed, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def test_benchmark_json_names_what_the_runner_reports():
    bench = _bench()
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert bench["command"] == ["python3", "perfbench/run.py"]
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == spans.per_layer_units()
    assert [m["name"] for m in bench["end_to_end"]] == [
        "learn_s", "setup_s", "peak_rss_mb", "ari", "purity"]
    setup_bound = next(m["bound"] for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert all(m["bound"] <= setup_bound <= 0.25 for m in bench["end_to_end"])


def _small_problem():
    spec = tls_default.default_synth_spec(n_messages=400, seed=1)
    corpus, _ = corpus_tools.generate_synthetic(spec)
    return corpus, clustering.MpckConfig(k=21, seed=0)


def test_nested_spans_count_no_interval_twice():
    corpus, config = _small_problem()
    originals = (clustering.run_mpck, clustering.PenaltyContext.__dict__["build"])
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.active = True
        model = clustering.run_kmeans(corpus, config)
        tracer.active = False
    finally:
        tracer.uninstall()
    assert (clustering.run_mpck, clustering.PenaltyContext.__dict__["build"]) == originals
    calls, kmeans_total, kmeans_self = tracer.stats["clustering.run_kmeans"]
    mpck_total = tracer.stats["clustering.run_mpck"][1]
    assert calls == 1 and kmeans_self <= kmeans_total - mpck_total + 1e-9
    assert tracer.self_seconds(*tracer.stats) <= kmeans_total + 1e-9
    assert tracer.counters["clustering.penalty_builds"] == tracer.stats[
        "clustering.PenaltyContext.build"][0]
    # k-means runs without cannot-links: every build inside it is unused
    assert tracer.counters["clustering.penalty_builds_no_cannot"] == tracer.counters[
        "clustering.penalty_builds"]
    assert tracer.counters["clustering.iterations"] == model.iterations


def test_gap_recorder_sees_runs_inside_kmeans_and_checks_them():
    corpus, config = _small_problem()
    original = clustering.run_mpck
    gaps = GapRecorder()
    gaps.install()
    try:
        clustering.run_kmeans(corpus, config)
    finally:
        gaps.uninstall()
    assert clustering.run_mpck is original
    assert len(gaps.gaps) == 1
    ops = Ops()
    gaps.check(ops)
    assert (ops.attempted, ops.failed, gaps.gaps) == (1, 0, [])
    gaps.check(ops)             # a pass that ran no clustering fails the check
    gaps.gaps = [1e-6]
    gaps.check(ops)
    assert ops.failed == 2


def test_a_removed_name_is_reported_absent(monkeypatch):
    monkeypatch.setattr(spans, "SPANS", spans.SPANS + [
        ("clustering.gone", [("protoabs.clustering", "no_such_function")], {})])
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["protoabs.clustering.no_such_function"]


def _non_time_fields(stdout):
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    report = json.loads(lines[-2][len("report "):])
    units = {name: unit for name, unit, _, _, _ in spans.LAYER_METRICS}
    counts = {k: v["value"] for k, v in result["metrics"].items()
              if units.get(k) not in (None, "s")}
    digests = {k: report["result"][k] for k in ("ari", "purity", "assignments_sha256",
                                               "artifacts_sha256")}
    return result, report, dict(counts, traced_assignments=report["traced_assignments_sha256"],
                                **digests)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_runs_repeat_and_fire_every_span(workload):
    first = _run(workload, 7, 1)
    second = _run(workload, 7, 1)
    assert first.returncode == 0, first.stderr
    assert second.returncode == 0, second.stderr
    result, report, fields = _non_time_fields(first.stdout)
    assert _non_time_fields(second.stdout)[2] == fields
    assert result["correct"] and result["failed"] == 0
    assert report["missing_spans"] == [] and report["absent_sites"] == []
    sums = report["self_s_sum"]
    assert sums["setup"] <= sums["setup_wall"] and sums["learn"] <= sums["learn_wall"]
    assert set(result["metrics"]) == {m["name"] for m in _bench()["per_layer"]}


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run("headline", 0, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
