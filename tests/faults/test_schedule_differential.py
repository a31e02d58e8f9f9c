"""Differential suite: indexed fault queries against a linear-scan oracle.

:class:`FaultSchedule` answers point-in-time queries from a per-entity
index.  The oracle below is the plain scan over the whole schedule, in
list order, that the index replaces; every query must agree with it
exactly, and ``backhaul_fault`` must return the very event object the
scan picks (a partition wins, else the first active latency spike in
list order).
"""

from datetime import datetime, timedelta

from hypothesis import given, settings, strategies as st

from repro.faults import (
    BackhaulFault,
    FaultSchedule,
    StaleTleWindow,
    StationOutage,
    UndecodedPass,
)

EPOCH = datetime(2020, 6, 1)
STATIONS = ["gs-0", "gs-1", "gs-2"]
SATELLITES = ["sat-0", "sat-1"]
#: Ids no generated window uses.
UNKNOWN_STATION = "gs-unknown"
UNKNOWN_SATELLITE = "sat-unknown"
MICRO = timedelta(microseconds=1)


# -- the oracle: a linear scan over the whole schedule ------------------------


def scan_station_availability(schedule, station_id, when):
    worst = 1.0
    for o in schedule.outages:
        if o.station_id == station_id and o.covers(when):
            worst = min(worst, o.availability)
    return worst


def scan_backhaul_fault(schedule, station_id, when):
    active = None
    for b in schedule.backhaul:
        if b.station_id == station_id and b.covers(when):
            if b.partitioned:
                return b
            if active is None:
                active = b
    return active


def scan_is_undecoded(schedule, station_id, when):
    return any(u.station_id == station_id and u.covers(when)
               for u in schedule.undecoded)


def scan_is_tle_stale(schedule, satellite_id, when):
    return any(w.satellite_id == satellite_id and w.covers(when)
               for w in schedule.stale_tle)


def scan_faulted_stations(schedule, when):
    down = {o.station_id for o in schedule.outages if o.covers(when)}
    down |= {b.station_id for b in schedule.backhaul if b.covers(when)}
    down |= {u.station_id for u in schedule.undecoded if u.covers(when)}
    return down


# -- strategies ---------------------------------------------------------------

# Whole-second instants on a short span: windows overlap on one entity and
# share start/end instants often.
_starts = st.integers(min_value=0, max_value=40)
_lengths = st.integers(min_value=1, max_value=20)

outages = st.builds(
    lambda sid, start, length, severity: StationOutage(
        sid, EPOCH + timedelta(seconds=start),
        EPOCH + timedelta(seconds=start + length), severity=severity),
    st.sampled_from(STATIONS), _starts, _lengths,
    st.sampled_from([0.25, 0.5, 0.7, 1.0]),
)
backhaul = st.builds(
    lambda sid, start, length, partitioned, spike_s: BackhaulFault(
        sid, EPOCH + timedelta(seconds=start),
        EPOCH + timedelta(seconds=start + length),
        extra_latency_s=spike_s, partitioned=partitioned),
    st.sampled_from(STATIONS), _starts, _lengths, st.booleans(),
    st.sampled_from([30.0, 60.0, 300.0]),
)
undecoded = st.builds(
    lambda sid, start, length: UndecodedPass(
        sid, EPOCH + timedelta(seconds=start),
        EPOCH + timedelta(seconds=start + length)),
    st.sampled_from(STATIONS), _starts, _lengths,
)
stale_tle = st.builds(
    lambda sat, start, length: StaleTleWindow(
        sat, EPOCH + timedelta(seconds=start),
        EPOCH + timedelta(seconds=start + length)),
    st.sampled_from(SATELLITES), _starts, _lengths,
)


def edge_instants(events):
    """Every window edge, and the instants one microsecond either side."""
    instants = {EPOCH - MICRO}
    for event in events:
        for edge in (event.start, event.end):
            instants.update((edge - MICRO, edge, edge + MICRO))
    return sorted(instants)


# -- FaultSchedule ------------------------------------------------------------


class TestFaultScheduleMatchesScan:
    @settings(max_examples=200, deadline=None)
    @given(
        outages=st.lists(outages, max_size=12),
        backhaul=st.lists(backhaul, max_size=12),
        undecoded=st.lists(undecoded, max_size=12),
        stale_tle=st.lists(stale_tle, max_size=8),
    )
    def test_every_query_equals_the_scan(self, outages, backhaul, undecoded,
                                         stale_tle):
        schedule = FaultSchedule(outages=outages, backhaul=backhaul,
                                 undecoded=undecoded, stale_tle=stale_tle)
        events = outages + backhaul + undecoded + stale_tle
        for when in edge_instants(events):
            for sid in STATIONS + [UNKNOWN_STATION]:
                assert schedule.station_availability(sid, when) \
                    == scan_station_availability(schedule, sid, when)
                expected = scan_backhaul_fault(schedule, sid, when)
                assert schedule.backhaul_fault(sid, when) is expected
                assert schedule.is_partitioned(sid, when) == (
                    expected is not None and expected.partitioned)
                assert schedule.is_undecoded(sid, when) \
                    == scan_is_undecoded(schedule, sid, when)
            for sat in SATELLITES + [UNKNOWN_SATELLITE]:
                assert schedule.is_tle_stale(sat, when) \
                    == scan_is_tle_stale(schedule, sat, when)
            assert schedule.faulted_stations(when) \
                == scan_faulted_stations(schedule, when)
        assert schedule.event_count == len(events)

