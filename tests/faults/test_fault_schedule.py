"""Unit tests for the fault event types and the seeded FaultSchedule."""

import dataclasses
from datetime import datetime, timedelta

import pytest

from repro.faults import (
    BackhaulFault,
    FaultCounters,
    FaultSchedule,
    StaleTleWindow,
    StationOutage,
    UndecodedPass,
)

EPOCH = datetime(2020, 6, 1)


def hours(h):
    return EPOCH + timedelta(hours=h)


class TestEvents:
    def test_half_open_window(self):
        o = StationOutage("gs-1", EPOCH, hours(1))
        assert o.covers(EPOCH)
        assert o.covers(hours(1) - timedelta(seconds=1))
        assert not o.covers(hours(1))
        assert not o.covers(EPOCH - timedelta(seconds=1))

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            StationOutage("gs-1", EPOCH, EPOCH)

    def test_severity_bounds(self):
        with pytest.raises(ValueError):
            StationOutage("gs-1", EPOCH, hours(1), severity=0.0)
        with pytest.raises(ValueError):
            StationOutage("gs-1", EPOCH, hours(1), severity=1.1)
        partial = StationOutage("gs-1", EPOCH, hours(1), severity=0.4)
        assert partial.availability == pytest.approx(0.6)

    def test_backhaul_must_do_something(self):
        with pytest.raises(ValueError):
            BackhaulFault("gs-1", EPOCH, hours(1))
        with pytest.raises(ValueError):
            BackhaulFault("gs-1", EPOCH, hours(1), extra_latency_s=-5.0)
        assert BackhaulFault("gs-1", EPOCH, hours(1), partitioned=True)
        assert BackhaulFault("gs-1", EPOCH, hours(1), extra_latency_s=30.0)

    def test_duration(self):
        assert UndecodedPass("gs-1", EPOCH, hours(2)).duration_s == 7200.0
        assert StaleTleWindow("sat-1", EPOCH, hours(1)).duration_s == 3600.0


class TestScheduleQueries:
    def test_availability_healthy_by_default(self):
        schedule = FaultSchedule()
        assert schedule.station_availability("gs-1", EPOCH) == 1.0
        assert schedule.event_count == 0

    def test_availability_worst_outage_wins(self):
        schedule = FaultSchedule(outages=[
            StationOutage("gs-1", EPOCH, hours(2), severity=0.5),
            StationOutage("gs-1", hours(1), hours(3), severity=1.0),
        ])
        assert schedule.station_availability("gs-1", hours(0.5)) == 0.5
        assert schedule.station_availability("gs-1", hours(1.5)) == 0.0
        assert schedule.station_availability("gs-1", hours(2.5)) == 0.0
        assert schedule.station_availability("gs-1", hours(3)) == 1.0
        assert schedule.station_availability("gs-2", hours(1.5)) == 1.0

    def test_partition_wins_over_latency_spike(self):
        schedule = FaultSchedule(backhaul=[
            BackhaulFault("gs-1", EPOCH, hours(2), extra_latency_s=300.0),
            BackhaulFault("gs-1", hours(1), hours(2), partitioned=True),
        ])
        assert not schedule.is_partitioned("gs-1", hours(0.5))
        assert schedule.backhaul_fault("gs-1", hours(0.5)).extra_latency_s \
            == 300.0
        assert schedule.is_partitioned("gs-1", hours(1.5))
        assert schedule.backhaul_fault("gs-1", hours(3)) is None

    def test_undecoded_and_stale_tle(self):
        schedule = FaultSchedule(
            undecoded=[UndecodedPass("gs-1", EPOCH, hours(1))],
            stale_tle=[StaleTleWindow("sat-A", hours(1), hours(2))],
        )
        assert schedule.is_undecoded("gs-1", hours(0.5))
        assert not schedule.is_undecoded("gs-1", hours(1.5))
        assert not schedule.is_undecoded("gs-2", hours(0.5))
        assert schedule.is_tle_stale("sat-A", hours(1.5))
        assert not schedule.is_tle_stale("sat-B", hours(1.5))

    def test_faulted_stations(self):
        schedule = FaultSchedule(
            outages=[StationOutage("gs-1", EPOCH, hours(1))],
            backhaul=[BackhaulFault("gs-2", EPOCH, hours(1),
                                    partitioned=True)],
            undecoded=[UndecodedPass("gs-3", hours(2), hours(3))],
        )
        assert schedule.faulted_stations(hours(0.5)) == {"gs-1", "gs-2"}
        assert schedule.faulted_stations(hours(2.5)) == {"gs-3"}

    def test_station_blackout_helper(self):
        schedule = FaultSchedule.station_blackout(["a", "b"], EPOCH, 3600.0)
        assert schedule.station_availability("a", hours(0.5)) == 0.0
        assert schedule.station_availability("b", hours(0.5)) == 0.0
        assert schedule.station_availability("a", hours(2)) == 1.0


class TestGenerate:
    STATIONS = [f"gs-{i:03d}" for i in range(20)]
    SATS = [f"sat-{i}" for i in range(8)]

    def test_same_seed_bit_identical(self):
        kwargs = dict(start=EPOCH, horizon_s=86400.0, intensity=0.4, seed=11)
        a = FaultSchedule.generate(self.STATIONS, self.SATS, **kwargs)
        b = FaultSchedule.generate(self.STATIONS, self.SATS, **kwargs)
        assert a.outages == b.outages
        assert a.backhaul == b.backhaul
        assert a.undecoded == b.undecoded
        assert a.stale_tle == b.stale_tle

    def test_different_seed_differs(self):
        a = FaultSchedule.generate(self.STATIONS, self.SATS, EPOCH, 86400.0,
                                   intensity=0.4, seed=1)
        b = FaultSchedule.generate(self.STATIONS, self.SATS, EPOCH, 86400.0,
                                   intensity=0.4, seed=2)
        assert a.event_count > 0
        assert (a.outages, a.backhaul) != (b.outages, b.backhaul)

    def test_zero_intensity_empty(self):
        schedule = FaultSchedule.generate(self.STATIONS, self.SATS, EPOCH,
                                          86400.0, intensity=0.0, seed=5)
        assert schedule.event_count == 0

    def test_intensity_scales_event_count(self):
        light = FaultSchedule.generate(self.STATIONS, self.SATS, EPOCH,
                                       86400.0, intensity=0.05, seed=9)
        heavy = FaultSchedule.generate(self.STATIONS, self.SATS, EPOCH,
                                       86400.0, intensity=0.8, seed=9)
        assert heavy.event_count > light.event_count

    def test_all_event_classes_generated(self):
        schedule = FaultSchedule.generate(self.STATIONS, self.SATS, EPOCH,
                                          7 * 86400.0, intensity=0.5, seed=3)
        assert schedule.outages
        assert schedule.backhaul
        assert schedule.undecoded
        assert schedule.stale_tle
        assert any(o.severity < 1.0 for o in schedule.outages)
        assert any(o.severity == 1.0 for o in schedule.outages)
        assert any(b.partitioned for b in schedule.backhaul)
        assert any(not b.partitioned for b in schedule.backhaul)

    def test_windows_inside_horizon(self):
        horizon = 43200.0
        schedule = FaultSchedule.generate(self.STATIONS, self.SATS, EPOCH,
                                          horizon, intensity=0.6, seed=4)
        end = EPOCH + timedelta(seconds=horizon)
        for events in (schedule.outages, schedule.backhaul,
                       schedule.undecoded, schedule.stale_tle):
            for event in events:
                assert EPOCH <= event.start < end
                assert event.end <= end

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            FaultSchedule.generate(self.STATIONS, self.SATS, EPOCH, 100.0,
                                   intensity=1.5)
        with pytest.raises(ValueError):
            FaultSchedule.generate(self.STATIONS, self.SATS, EPOCH, 0.0)

    @pytest.mark.parametrize("name, value", [
        ("horizon_s", float("inf")),
        ("horizon_s", float("nan")),
        ("horizon_s", -1.0),
        ("mean_outage_s", -60.0),
        ("mean_outage_s", 0.0),
        ("mean_outage_s", float("inf")),
        ("mean_backhaul_s", float("nan")),
        ("mean_undecoded_s", 0.0),
        ("mean_stale_tle_s", -1.0),
    ])
    def test_rejects_unbounded_durations(self, name, value):
        """These used to loop forever (or divide by zero) drawing windows."""
        kwargs = dict(start=EPOCH, horizon_s=3600.0, intensity=0.3, seed=0)
        kwargs[name] = value
        with pytest.raises(ValueError, match=name):
            FaultSchedule.generate(self.STATIONS, self.SATS, **kwargs)


class TestImmutability:
    OUTAGE = StationOutage("gs-1", EPOCH, hours(1), severity=0.5)

    def test_fields_cannot_be_assigned(self):
        schedule = FaultSchedule(outages=[self.OUTAGE])
        with pytest.raises(dataclasses.FrozenInstanceError):
            schedule.outages = ()

    def test_list_inputs_come_back_as_tuples(self):
        schedule = FaultSchedule(
            outages=[self.OUTAGE],
            backhaul=[BackhaulFault("gs-1", EPOCH, hours(1),
                                    partitioned=True)],
            undecoded=[UndecodedPass("gs-2", EPOCH, hours(1))],
            stale_tle=[StaleTleWindow("sat-A", EPOCH, hours(1))],
        )
        for field in dataclasses.fields(schedule):
            assert isinstance(getattr(schedule, field.name), tuple)
        assert schedule == FaultSchedule(
            outages=(self.OUTAGE,), backhaul=schedule.backhaul,
            undecoded=schedule.undecoded, stale_tle=schedule.stale_tle,
        )
        assert hash(schedule) == hash(dataclasses.replace(schedule))

    def test_replace_answers_from_the_new_outages(self):
        schedule = FaultSchedule(outages=[self.OUTAGE])
        moved = dataclasses.replace(schedule, outages=[
            StationOutage("gs-2", EPOCH, hours(1), severity=1.0),
        ])
        assert moved.station_availability("gs-1", hours(0.5)) == 1.0
        assert moved.station_availability("gs-2", hours(0.5)) == 0.0
        assert schedule.station_availability("gs-1", hours(0.5)) == 0.5


class TestCounters:
    def test_as_dict_stable_order(self):
        counters = FaultCounters()
        counters.receipts_dropped = 3
        d = counters.as_dict()
        assert d["receipts_dropped"] == 3
        assert list(d) == [
            "station_outage_steps", "partial_outage_steps",
            "undecoded_steps", "stale_tle_steps", "receipts_dropped",
            "receipts_delayed", "ack_batches_missed", "redelivered_chunks",
        ]
        assert counters.total_events == 3
