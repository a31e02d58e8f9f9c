"""Harness test for the performance ledger.

Runs every workload definition at 12 satellites x 8 stations for two
hours through the same functions ``run.py`` uses, and checks the
harness itself: every metric is emitted, the traced report equals the
untraced one, the coverage guard names what it cannot wrap, and
``compare.py`` applies its rule.  Not part of tier-1 (``testpaths``
is ``tests``)::

    PYTHONPATH=src python -m pytest benchmarks/ledger/test_ledger.py
"""

from __future__ import annotations

import json

import pytest

import compare
import run
import spans
import workloads

SMALL = (12, 8, 7200.0)
METRICS = (
    {name for name, *_ in workloads.END_TO_END}
    | {name for name, *_ in workloads.PER_LAYER}
)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_emits_every_metric(name):
    result = run.run_workload(name, seed=0, seconds=0.0, size=SMALL)
    assert result["failures"] == []
    assert result["failed"] == 0 and result["attempted"] >= 2
    assert set(result["metrics"]) == METRICS
    assert result["traced_digest"] == result["digest"] is not None
    assert result["metrics"]["engine.self_share"] < 1.0


def test_benchmark_json_matches_the_definitions():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"])
        for m in spec["end_to_end"]
    ] == list(workloads.END_TO_END)
    assert [
        (m["name"], m["unit"], m["better"]) for m in spec["per_layer"]
    ] == list(workloads.PER_LAYER)


def test_missing_entry_point_is_named(monkeypatch):
    monkeypatch.setattr(spans, "WRAPPED", spans.WRAPPED + (
        ("repro.scheduling.scheduler", "DownlinkScheduler.no_such_step",
         "graph"),
    ))
    tracer = spans.Tracer()
    with pytest.raises(spans.CoverageError, match="no_such_step"):
        tracer.install()
    from repro.scheduling.scheduler import DownlinkScheduler

    # A failed install leaves nothing patched behind.
    assert not hasattr(DownlinkScheduler.contact_graph, "__wrapped__")


def test_silent_entry_point_is_named():
    with pytest.raises(spans.CoverageError,
                       match="DownlinkScheduler.contact_graph"):
        spans.Tracer().check_coverage(["graph"])


def _runs(values):
    return [{"workload": "paper-day", "metrics": {
        "setup_s": 1.0, "run_s": v, "peak_rss_mb": 300.0,
        "tick_p50_ms": 1.0, "tick_p99_ms": 4.0,
    }} for v in values]


def _verdicts(parent, change):
    rows, regressed = compare.compare(
        {"paper-day": _runs(parent)}, {"paper-day": _runs(change)}
    )
    return {row[1].split()[0]: row[-1] for row in rows}, regressed


def test_compare_claims_a_gain_only_on_nine_of_ten_pairs():
    parent = [2.0, 2.1, 2.0, 2.2, 2.1, 2.0, 2.1, 2.2, 2.0, 2.1]
    verdicts, regressed = _verdicts(parent, [v - 0.5 for v in parent])
    assert verdicts["run_s"] == "gain" and verdicts["setup_s"] == "same"
    assert not regressed
    verdicts, _ = _verdicts(parent, [v - 0.5 for v in parent[:8]]
                            + [3.0, 3.0])
    assert verdicts["run_s"] != "gain"


def test_compare_sees_a_uniform_regression():
    parent = [2.0, 2.1, 2.0, 2.2, 2.1, 2.0, 2.1, 2.2, 2.0, 2.1]
    verdicts, regressed = _verdicts(parent, [v * 1.5 for v in parent])
    assert verdicts["run_s"] == "regression" and regressed


def test_compare_marks_wide_spread_unresolved():
    parent = [1.0, 3.0, 1.0, 3.0, 1.0, 3.0, 1.0, 3.0, 1.0, 3.0]
    verdicts, _ = _verdicts(parent, [v * 1.01 for v in parent])
    assert verdicts["run_s"] == "unresolved"
