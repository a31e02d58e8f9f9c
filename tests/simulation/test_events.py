"""Tests for the simulation event log."""

from datetime import datetime, timedelta

import pytest

from repro.simulation.events import Event, EventLog

EPOCH = datetime(2020, 6, 1)


class TestEventLog:
    def test_append_and_filter(self):
        log = EventLog()
        log.record(EPOCH, "transmission", "sat-A", "gs-1", bits=100.0)
        log.record(EPOCH + timedelta(minutes=1), "delivery", "sat-A", "gs-1",
                   chunk_id=7)
        log.record(EPOCH + timedelta(minutes=2), "plan_upload", "sat-B", "gs-2")
        assert len(log) == 3
        assert len(log.of_kind("delivery")) == 1
        assert len(log.for_satellite("sat-A")) == 2
        window = log.between(EPOCH, EPOCH + timedelta(minutes=2))
        assert len(window) == 2

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            EventLog().record(EPOCH, "teleportation", "sat-A")

    def test_jsonl_round_trip(self):
        log = EventLog()
        log.record(EPOCH, "transmission", "sat-A", "gs-1", bits=100.0,
                   decoded=True)
        log.record(EPOCH, "ack_batch", "sat-B", "gs-2", chunk_count=3)
        again = EventLog.from_jsonl(log.to_jsonl())
        assert len(again) == 2
        assert again.of_kind("ack_batch")[0].data["chunk_count"] == 3

    def test_event_json_fields(self):
        import json

        event = Event(EPOCH, "loss", "sat-A", "gs-1", {"bits": 5.0})
        raw = json.loads(event.to_json())
        assert raw["kind"] == "loss"
        assert raw["bits"] == 5.0
        assert raw["when"] == EPOCH.isoformat()


class TestEngineEventRecording:
    @pytest.fixture(scope="class")
    def run_with_events(self):
        from repro.groundstations.network import satnogs_like_network
        from repro.orbits.constellation import synthetic_leo_constellation
        from repro.satellites.satellite import Satellite
        from repro.scheduling.value_functions import LatencyValue
        from repro.simulation.config import SimulationConfig
        from repro.simulation.engine import Simulation

        tles = synthetic_leo_constellation(8, EPOCH, seed=21)
        sats = [Satellite(tle=t, chunk_size_gb=0.5) for t in tles]
        network = satnogs_like_network(20, seed=13)
        config = SimulationConfig(start=EPOCH, duration_s=4 * 3600.0,
                                  record_events=True)
        sim = Simulation(satellites=sats, network=network, value_function=LatencyValue(), config=config)
        return sim, sim.run()

    def test_events_recorded(self, run_with_events):
        sim, _report = run_with_events
        assert sim.events is not None
        assert len(sim.events) > 0

    def test_delivery_events_match_metrics(self, run_with_events):
        sim, report = run_with_events
        delivered_via_events = sum(
            e.data["bits"] for e in sim.events.of_kind("delivery")
        )
        assert delivered_via_events == pytest.approx(report.delivered_bits)

    def test_delivery_latencies_match(self, run_with_events):
        sim, report = run_with_events
        event_latencies = sorted(
            e.data["latency_s"] for e in sim.events.of_kind("delivery")
        )
        metric_latencies = sorted(report.all_latencies_s())
        assert event_latencies == pytest.approx(metric_latencies)

    def test_plan_uploads_only_at_tx_stations(self, run_with_events):
        sim, _report = run_with_events
        tx_ids = {s.station_id for s in sim.network.transmit_capable}
        for event in sim.events.of_kind("plan_upload"):
            assert event.station_id in tx_ids

    @pytest.mark.parametrize("case", [
        "healthy", "unannounced_faults", "legacy_outages", "planned",
    ])
    def test_loss_events_account_for_every_lost_bit(self, case):
        """Every undecoded transmission is narrated as a loss, including
        those at a dark station, an injected hard outage and a misaligned
        planned contact."""
        from repro.faults import FaultSchedule
        from repro.groundstations.network import satnogs_like_network
        from repro.orbits.constellation import synthetic_leo_constellation
        from repro.satellites.satellite import Satellite
        from repro.scheduling.value_functions import LatencyValue
        from repro.simulation.config import SimulationConfig
        from repro.simulation.engine import Simulation
        from repro.simulation.faults import OutageSchedule

        tles = synthetic_leo_constellation(8, EPOCH, seed=21)
        sats = [Satellite(tle=t, chunk_size_gb=0.5) for t in tles]
        network = satnogs_like_network(20, tx_capable_fraction=0.3, seed=13)
        station_ids = [st.station_id for st in network]
        duration_s = 4 * 3600.0
        config = dict(start=EPOCH, duration_s=duration_s, record_events=True)
        inputs = {}
        if case == "unannounced_faults":
            inputs = dict(faults=FaultSchedule.generate(
                station_ids=station_ids,
                satellite_ids=[s.satellite_id for s in sats],
                start=EPOCH, horizon_s=duration_s, intensity=0.3, seed=7,
            ), faults_announced=False)
        elif case == "legacy_outages":
            inputs = dict(outages=OutageSchedule.random_failures(
                station_ids, EPOCH, duration_s,
                mean_time_between_failures_s=4 * 3600.0,
                mean_repair_s=3600.0, seed=5,
            ))
        elif case == "planned":
            config.update(execution_mode="planned", plan_refresh_s=1800.0)
        sim = Simulation(
            satellites=sats, network=network, value_function=LatencyValue(),
            config=SimulationConfig(**config), **inputs,
        )
        report = sim.run()
        if case != "healthy":
            assert report.lost_transmission_bits > 0.0
        lost_via_events = sum(
            e.data["bits"] for e in sim.events.of_kind("loss")
        )
        assert lost_via_events == report.lost_transmission_bits

    def test_disabled_by_default(self):
        from repro.groundstations.network import satnogs_like_network
        from repro.orbits.constellation import synthetic_leo_constellation
        from repro.satellites.satellite import Satellite
        from repro.scheduling.value_functions import LatencyValue
        from repro.simulation.config import SimulationConfig
        from repro.simulation.engine import Simulation

        tles = synthetic_leo_constellation(3, EPOCH, seed=21)
        sats = [Satellite(tle=t) for t in tles]
        network = satnogs_like_network(8, seed=13)
        sim = Simulation(
            satellites=sats, network=network, value_function=LatencyValue(),
            config=SimulationConfig(start=EPOCH, duration_s=600.0),
        )
        sim.run()
        assert sim.events is None
