"""Observability layer: no-op equivalence, stage coverage, traced runs.

The contract under test: with observability disabled (the default) the
engine's output is bit-identical to an instrumented run and the recorder
costs nothing measurable; with it enabled, the run emits schema-valid
JSONL, a manifest, and stage timings that account for the run loop.
"""

import json
from collections import Counter
from dataclasses import replace
from datetime import datetime, timedelta

import pytest

from repro.core.scenarios import build_paper_fleet, build_storm_weather
from repro.faults import BackhaulFault, FaultSchedule
from repro.groundstations.network import satnogs_like_network
from repro.obs import ObsConfig, validate_trace_file
from repro.orbits.constellation import synthetic_leo_constellation
from repro.satellites.satellite import Satellite
from repro.scheduling.value_functions import LatencyValue
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import Simulation
from repro.weather.cells import RainCellField
from repro.weather.provider import QuantizedWeatherCache

EPOCH = datetime(2020, 6, 1)


def build_sim(observability=None, duration_h=2.0, use_forecast=False,
              weather=None):
    tles = synthetic_leo_constellation(8, EPOCH, seed=21)
    sats = [Satellite(tle=t, chunk_size_gb=0.5) for t in tles]
    network = satnogs_like_network(20, seed=13)
    config = SimulationConfig(
        start=EPOCH, duration_s=duration_h * 3600.0, step_s=60.0,
        use_forecast=use_forecast,
    )
    if weather is None:
        weather = QuantizedWeatherCache(RainCellField(seed=3))
    return Simulation(
        satellites=sats, network=network, value_function=LatencyValue(),
        config=config, truth_weather=weather, observability=observability,
    )


class TestNoOpEquivalence:
    def test_observed_run_is_bit_identical(self, tmp_path):
        plain = build_sim().run()
        observed = build_sim(observability=ObsConfig(
            trace_path=str(tmp_path / "trace.jsonl"),
        )).run()
        plain_dict = plain.to_dict()
        observed_dict = observed.to_dict()
        # Stage timings are wall-clock and only present when observed;
        # everything simulation-derived must match exactly.
        plain_dict.pop("stage_timings")
        observed_dict.pop("stage_timings")
        assert plain_dict == observed_dict

    def test_default_recorder_is_the_shared_null(self):
        sim = build_sim()
        from repro.obs import NULL_RECORDER

        assert sim.obs is NULL_RECORDER
        assert sim.run().stage_timings == {}


class _CallLog(QuantizedWeatherCache):
    """A quantized cache that records every call made on it, in order."""

    def __init__(self, inner):
        super().__init__(inner)
        self.calls = []

    def sample(self, lat_deg, lon_deg, when):
        self.calls.append(("sample", lat_deg, lon_deg, when))
        return super().sample(lat_deg, lon_deg, when)

    def sample_prequantized(self, lat_q, lon_q, lat_deg, lon_deg, when):
        self.calls.append(
            ("sample_prequantized", lat_q, lon_q, lat_deg, lon_deg, when)
        )
        return super().sample_prequantized(lat_q, lon_q, lat_deg, lon_deg,
                                           when)


class TestObservedWeatherPath:
    def test_recorder_leaves_provider_calls_unchanged(self):
        """The recorder times weather; it does not pick how it is sampled.

        On and off, the provider sees the same method with the same
        arguments in the same order, and the reports match byte for
        byte once the wall-clock stage timings are set aside.
        """
        runs = {}
        for observed in (False, True):
            weather = _CallLog(RainCellField(seed=3))
            sim = build_sim(
                observability=ObsConfig() if observed else None,
                weather=weather,
            )
            report = sim.run().to_dict()
            report.pop("stage_timings")
            runs[observed] = (
                weather.calls,
                json.dumps(report, sort_keys=True),
                sim.obs.counters_snapshot(),
            )
        (calls_off, report_off, _), (calls_on, report_on, counters) = (
            runs[False], runs[True]
        )
        assert calls_on == calls_off
        assert report_on == report_off
        # The scheduler's memo is the only caller of the pre-quantized
        # form; the counter counts exactly those calls.
        memo_calls = sum(call[0] == "sample_prequantized" for call in calls_on)
        assert memo_calls > 0
        assert counters["weather_samples"] == memo_calls


class TestStageTimings:
    def test_stages_cover_the_run(self):
        report = build_sim(observability=ObsConfig()).run()
        stages = report.run_stage_seconds()
        assert {"generate", "backend_advance", "schedule", "execute",
                "bookkeeping", "drain"} <= set(stages)
        # The acceptance bar is >= 95% on the fig3a workload (asserted in
        # the benchmark suite); this tiny run keeps a looser floor since
        # per-step span overhead is proportionally larger.
        assert report.stage_coverage() >= 0.6

    def test_nested_scheduler_spans_present(self):
        report = build_sim(observability=ObsConfig()).run()
        assert "run/schedule/graph_build" in report.stage_timings
        assert "run/schedule/matching" in report.stage_timings
        assert "ephemeris_build" in report.stage_timings


class TestTracedRun:
    def test_trace_validates_and_has_expected_kinds(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        build_sim(observability=ObsConfig(trace_path=str(trace))).run()
        count = validate_trace_file(str(trace))
        assert count > 0
        kinds = {json.loads(line)["kind"]
                 for line in trace.read_text().splitlines()}
        assert {"run_start", "step", "run_end"} <= kinds

    def test_run_end_carries_counters_and_timings(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        build_sim(observability=ObsConfig(trace_path=str(trace))).run()
        last = json.loads(trace.read_text().splitlines()[-1])
        assert last["kind"] == "run_end"
        assert last["status"] == "ok"
        assert "run" in last["stage_timings"]
        assert "weather_samples" in last["counters"]
        assert any(k.startswith("backend/") for k in last["gauges"])

    def test_manifest_written_and_linked(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        manifest_path = tmp_path / "manifest.json"
        build_sim(observability=ObsConfig(
            trace_path=str(trace),
            manifest_path=str(manifest_path),
            seeds={"fleet": 21, "weather": 3},
        )).run()
        manifest = json.loads(manifest_path.read_text())
        assert manifest["seeds"] == {"fleet": 21, "weather": 3}
        assert manifest["config_sha256"]
        first = json.loads(trace.read_text().splitlines()[0])
        assert first["kind"] == "run_start"
        assert first["manifest"]["config_sha256"] == manifest["config_sha256"]

    def test_assignment_events_under_forecast(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        build_sim(observability=ObsConfig(trace_path=str(trace)),
                  use_forecast=True).run()
        lines = [json.loads(line) for line in trace.read_text().splitlines()]
        assignments = [r for r in lines if r["kind"] == "assignment"]
        assert assignments
        assert all(isinstance(a["decoded"], bool) for a in assignments)


#: Trace ``fault`` kind -> the FaultCounters field it narrates.
FAULT_COUNTERS = {
    "station_outage": "station_outage_steps",
    "partial_outage": "partial_outage_steps",
    "undecoded": "undecoded_steps",
    "stale_tle": "stale_tle_steps",
    "receipt_dropped": "receipts_dropped",
    "receipt_delayed": "receipts_delayed",
    "ack_batch_missed": "ack_batches_missed",
    "redelivery": "redelivered_chunks",
}


def build_faulted_storm_sim(execution_mode, observability):
    """20 satellites, 15 stations, 6 h of storms and seeded faults.

    A two-hour partition of every station on top of the generated faults,
    with a 15-minute ack timeout, drops receipts early enough that their
    chunks come back as redeliveries within the run.
    """
    fleet = build_paper_fleet(count=20)
    network = satnogs_like_network(15, seed=11)
    duration_s = 6 * 3600.0
    generated = FaultSchedule.generate(
        station_ids=[st.station_id for st in network],
        satellite_ids=[sat.satellite_id for sat in fleet],
        start=EPOCH, horizon_s=duration_s, intensity=0.3, seed=7,
    )
    partition = tuple(
        BackhaulFault(st.station_id, EPOCH, EPOCH + timedelta(hours=2),
                      partitioned=True)
        for st in network
    )
    return Simulation(
        satellites=fleet, network=network, value_function=LatencyValue(),
        config=SimulationConfig(
            start=EPOCH, duration_s=duration_s, ack_timeout_s=900.0,
            execution_mode=execution_mode, diversity_receivers=2,
        ),
        truth_weather=build_storm_weather(3),
        faults=replace(generated, backhaul=generated.backhaul + partition),
        observability=observability,
    )


class TestNarrationMatchesReport:
    @pytest.mark.parametrize("execution_mode", ["live", "diversity"])
    def test_trace_narrates_what_the_report_counts(self, tmp_path,
                                                   execution_mode):
        """One delivery event per credited chunk and one fault event per
        counted fault, whichever station landed the data."""
        trace = tmp_path / "trace.jsonl"
        report = build_faulted_storm_sim(
            execution_mode, ObsConfig(trace_path=str(trace)),
        ).run()
        assert validate_trace_file(str(trace)) > 0
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        deliveries = [r for r in records if r["kind"] == "delivery"]
        credited = sum(len(samples) for samples in report.latency_s.values())
        assert credited > 0
        assert len(deliveries) == credited
        assert sum(r["bits"] for r in deliveries) == report.delivered_bits
        counters = report.fault_counters
        for name in ("redelivered_chunks", "receipts_dropped",
                     "receipts_delayed", "stale_tle_steps"):
            assert counters[name] > 0, name
        traced = Counter(r["fault"] for r in records if r["kind"] == "fault")
        assert {
            name: traced[fault] for fault, name in FAULT_COUNTERS.items()
        } == counters


class TestComponentStats:
    def test_weather_cache_counters_populate(self):
        # With the contact-window index on, the scheduler's per-bucket
        # weather memo absorbs repeat reads, so the provider sees only
        # the one miss per (station, bucket) -- hits stay at zero.
        sim = build_sim(observability=ObsConfig())
        sim.run()
        gauges = sim.obs.gauges_snapshot()
        assert gauges.get("weather_cache/truth_weather/misses", 0) > 0
        counters = sim.obs.counters_snapshot()
        assert counters.get("weather_samples", 0) > 0
        assert counters.get("contact_edges", 0) > 0
        assert counters.get("window_index_hits", 0) > 0

    def test_weather_cache_hits_without_window_index(self):
        # Without the index the scheduler has no per-bucket memo and
        # re-reads the provider every step, so the quantized cache's hit
        # counter populates.
        sim = build_sim(observability=ObsConfig())
        sim.scheduler.window_index = None
        sim.run()
        gauges = sim.obs.gauges_snapshot()
        assert gauges.get("weather_cache/truth_weather/hits", 0) > 0

    def test_profile_dump(self, tmp_path):
        sim = build_sim(observability=ObsConfig(
            profile_spans=("run",), profile_dir=str(tmp_path),
        ), duration_h=0.5)
        sim.run()
        assert (tmp_path / "run.prof").exists()
