"""Span bookkeeping: self time, missing hooks, and the metric list."""

import json
import threading
import types
from pathlib import Path

import pytest

import spans

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def test_covered_length_counts_overlaps_once_and_clips():
    assert spans.covered_length([(1, 3), (2, 4), (6, 7)], 0, 10) == pytest.approx(4.0)
    assert spans.covered_length([(-1, 2), (9, 12)], 0, 10) == pytest.approx(3.0)
    assert spans.covered_length([], 0, 10) == 0.0


def test_self_time_subtracts_children_and_worker_threads_attach_to_main_span():
    rec = spans.Recorder()
    seen = {}

    def child():
        seen["thread"] = threading.get_ident()

    def parent():
        rec.call("child", child, (), {})
        worker = threading.Thread(target=rec.call, args=("worker", child, (), {}))
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()

    rec.call("parent", parent, (), {})
    by_name = {s.name: s for s in rec.spans}
    assert by_name["child"].parent == by_name["parent"].id
    assert by_name["worker"].parent == by_name["parent"].id
    summary = spans.Summary(rec)
    p = by_name["parent"]
    children = [(s.start, s.end) for s in rec.spans if s.parent == p.id]
    want = (p.end - p.start) - spans.covered_length(children, p.start, p.end)
    assert summary.self_time[p.id] == pytest.approx(want)
    assert summary.count("child", "worker") == 2


def test_hooks_wrap_and_restore_and_report_missing_targets(monkeypatch):
    module = types.ModuleType("fake_layer")
    module.work = lambda x: x + 1
    monkeypatch.setitem(__import__("sys").modules, "fake_layer", module)
    original = module.work
    rec = spans.Recorder()
    rec.install([("fake_layer", "work", None), ("fake_layer", "gone", None)])
    assert module.work(1) == 2
    assert [s.name for s in rec.spans] == ["fake_layer.work"]
    assert "fake_layer.gone" in rec.missing
    rec.uninstall()
    assert module.work is original


def test_missing_hook_makes_its_metrics_null_not_zero():
    rec = spans.Recorder()
    rec.missing["model.logistic_loss_and_grad"] = "hook target gone"
    out = spans.layer_metrics(spans.Summary(rec), {"traces_bytes": 0, "artifact_bytes": 0})
    assert out["model.loss_grad_calls"]["value"] is None
    assert "gone" in out["model.loss_grad_calls"]["missing"]
    assert out["model.loss_grad_us"]["value"] is None  # no samples either
    assert out["sweeps.runs"]["value"] == 0


def test_benchmark_json_lists_exactly_the_metrics_the_harness_reports():
    doc = json.loads(BENCHMARK.read_text())
    layer = [(m["name"], m["unit"]) for m in doc["per_layer"]]
    want = [(n, u) for n, u, *_ in spans.LAYER_METRICS] + list(spans.TRACE_METRICS)
    assert layer == want
    assert [m["name"] for m in doc["end_to_end"]] == [
        "setup_s", "wall_s", "cpu_s", "peak_rss_mb", "solve_ms", "score_us"]
    assert [w["name"] for w in doc["workloads"]] == ["staged-cli", "on-device"]
