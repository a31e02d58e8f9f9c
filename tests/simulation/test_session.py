"""Session lifecycle semantics and the replay-equivalence guarantee.

The headline pin: an event-free :class:`SimulationSession` produces a
:class:`SimulationReport` *byte-identical* (via ``to_json()``) to the
batch ``Simulation.run()`` on the same spec -- with and without tenants,
regardless of how the horizon is sliced into ``advance()`` calls.
"""

from datetime import datetime, timedelta, timezone

import pytest

from repro.core.scenarios import ScenarioSpec
from repro.demand import tenant_mix
from repro.demand.tenant import MAX_SLA_DEADLINE_S
from repro.simulation import (
    OutageNotice,
    QuotaUpdate,
    SimulationSession,
    SubmitRequest,
)

EPOCH = datetime(2020, 6, 1)


def plain_spec(**overrides):
    params = dict(num_satellites=6, num_stations=10, duration_s=3600.0)
    params.update(overrides)
    return ScenarioSpec.dgs(**params)


def tenant_spec(**overrides):
    params = dict(num_satellites=6, num_stations=10, duration_s=3600.0,
                  tenants=tenant_mix("balanced"), value="deadline")
    params.update(overrides)
    return ScenarioSpec.dgs(**params)


class TestReplayEquivalence:
    def test_plain_session_matches_batch_byte_for_byte(self):
        batch = plain_spec().build().simulation.run()
        session = SimulationSession(plain_spec())
        while not session.step >= session.horizon_steps:
            session.advance(steps=7)
        report = session.finalize()
        assert report.to_json() == batch.to_json()

    def test_tenanted_session_matches_batch_byte_for_byte(self):
        batch = tenant_spec().build().simulation.run()
        session = SimulationSession(tenant_spec())
        report = session.run_to_horizon()
        assert report.to_json() == batch.to_json()

    def test_slicing_does_not_matter(self):
        """1-step ticks and one big advance() land on the same bytes."""
        fine = SimulationSession(plain_spec(duration_s=1800.0))
        while fine.step < fine.horizon_steps:
            fine.advance()
        coarse = SimulationSession(plain_spec(duration_s=1800.0))
        coarse.advance(steps=coarse.horizon_steps)
        assert fine.finalize().to_json() == coarse.finalize().to_json()

    def test_advance_until_wall_clock(self):
        session = SimulationSession(plain_spec())
        session.advance(until=EPOCH + timedelta(minutes=30))
        step_s = session.simulation.config.step_s
        assert session.step == int(1800.0 // step_s)

    def test_planned_mode_session_matches_batch(self):
        spec = plain_spec(execution_mode="planned")
        batch = spec.build().simulation.run()
        report = SimulationSession(spec).run_to_horizon()
        assert report.to_json() == batch.to_json()


class TestIngestSemantics:
    def test_duplicate_request_id_is_idempotent(self):
        session = SimulationSession(tenant_spec())
        sat = session.simulation.satellites[0].satellite_id
        first = session.ingest([SubmitRequest("req-1", "premium", sat)])
        again = session.ingest([SubmitRequest("req-1", "premium", sat)])
        assert first[0]["status"] == "queued"
        assert again[0]["status"] == "duplicate"
        assert len(session._pending) == 1

    def test_atomic_batch_rejection(self):
        """One bad event rejects the whole batch; nothing queues."""
        session = SimulationSession(tenant_spec())
        sat = session.simulation.satellites[0].satellite_id
        with pytest.raises(ValueError, match="unknown tenant"):
            session.ingest([
                SubmitRequest("req-ok", "premium", sat),
                QuotaUpdate("nobody", 10.0),
            ])
        assert not session._pending
        assert "req-ok" not in session._seen_request_ids

    @pytest.mark.parametrize("quota", [float("nan"), float("inf")])
    def test_non_finite_quota_rejects_batch(self, quota):
        """``nan < 0`` is False, so a plain sign check queued NaN quotas;
        the tenant then priced as over quota for good and the report
        JSON carried a bare ``NaN``."""
        session = SimulationSession(tenant_spec())
        sat = session.simulation.satellites[0].satellite_id
        with pytest.raises(ValueError, match="quota_gb_per_day"):
            session.ingest([
                SubmitRequest("req-ok", "premium", sat),
                QuotaUpdate("premium", quota),
            ])
        assert session.snapshot()["pending_events"] == 0
        assert "req-ok" not in session._seen_request_ids

    @pytest.mark.parametrize("term, value", [
        ("sla_deadline_s", float("nan")),
        ("sla_deadline_s", float("inf")),
        ("sla_deadline_s", 0.0),
        ("sla_deadline_s", -60.0),
        ("sla_deadline_s", 1e15),
        ("sla_deadline_s", 1e13),
        ("sla_deadline_s", 3e11),
        ("priority", float("nan")),
        ("priority", float("-inf")),
    ])
    def test_bad_request_terms_reject_batch(self, term, value):
        """A NaN, infinite or past-``datetime`` deadline used to queue,
        then raise inside ``advance()`` at the satellite's next capture."""
        session = SimulationSession(tenant_spec())
        sat = session.simulation.satellites[0].satellite_id
        with pytest.raises(ValueError, match=term):
            session.ingest([
                SubmitRequest("req-ok", "premium", sat),
                SubmitRequest("req-bad", "premium", sat, **{term: value}),
            ])
        assert session.snapshot()["pending_events"] == 0
        assert "req-ok" not in session._seen_request_ids
        session.run_to_horizon()

    def test_deadline_at_bound_accepted(self):
        """The longest deadline allowed queues, is stamped on a capture,
        and the session runs to the horizon."""
        session = SimulationSession(tenant_spec())
        sat = session.simulation.satellites[0].satellite_id
        acks = session.ingest([SubmitRequest(
            "req-max", "premium", sat, sla_deadline_s=MAX_SLA_DEADLINE_S,
        )])
        assert acks[0]["status"] == "queued"
        session.run_to_horizon()
        assert not session.simulation.demand.assigner._pending[sat]

    def test_ingest_after_advance_applies_at_next_tick(self):
        """Events land at the *next* tick boundary, never retroactively."""
        session = SimulationSession(tenant_spec())
        session.advance(steps=3)
        sat = session.simulation.satellites[0].satellite_id
        session.ingest([SubmitRequest("late", "premium", sat, chunks=2)])
        assert session.snapshot()["pending_events"] == 1
        assert not session.simulation.demand.assigner._pending
        session.advance()
        assert session.snapshot()["pending_events"] == 0
        pending = session.simulation.demand.assigner._pending[sat]
        assert pending and pending[0][0].tenant_id == "premium"

    def test_submit_needs_tenanted_scenario(self):
        session = SimulationSession(plain_spec())
        sat = session.simulation.satellites[0].satellite_id
        with pytest.raises(ValueError, match="tenanted scenario"):
            session.ingest([SubmitRequest("r", "premium", sat)])

    def test_validation_errors(self):
        session = SimulationSession(tenant_spec())
        sat = session.simulation.satellites[0].satellite_id
        with pytest.raises(ValueError, match="unknown satellite"):
            session.ingest([SubmitRequest("r", "premium", "sat-999")])
        with pytest.raises(ValueError, match="chunks"):
            session.ingest([SubmitRequest("r", "premium", sat, chunks=0)])
        with pytest.raises(ValueError, match="request_id"):
            session.ingest([SubmitRequest("", "premium", sat)])
        with pytest.raises(ValueError, match="quota"):
            session.ingest([QuotaUpdate("premium", -1.0)])
        with pytest.raises(ValueError, match="unknown station"):
            session.ingest([OutageNotice("gs-999", EPOCH,
                                         EPOCH + timedelta(hours=1))])
        with pytest.raises(ValueError, match="end after"):
            station = session.simulation.network[0].station_id
            session.ingest([OutageNotice(station, EPOCH, EPOCH)])
        with pytest.raises(ValueError, match="unknown event type"):
            session.ingest(["not-an-event"])

    def test_finalized_session_rejects_events_and_ticks(self):
        session = SimulationSession(plain_spec(duration_s=600.0))
        session.run_to_horizon()
        with pytest.raises(RuntimeError, match="finalized"):
            session.ingest([])
        with pytest.raises(RuntimeError, match="finalized"):
            session.advance()


class TestEventEffects:
    def test_submitted_request_stamps_chunks(self):
        """An injected request preempts the seeded stream: the next
        captures carry its tenant, priority, and region tags."""
        session = SimulationSession(tenant_spec(duration_s=2 * 3600.0))
        sat = session.simulation.satellites[0]
        session.ingest([SubmitRequest("flood-1", "premium",
                                      sat.satellite_id, chunks=5,
                                      priority=9.0, region="flood")])
        session.run_to_horizon()
        stamped = [c for c in sat.storage.all_chunks()
                   if c.region == "flood"]
        assert stamped, "injected request never stamped a capture"
        assert len(stamped) <= 5
        for chunk in stamped:
            assert chunk.tenant_id == "premium"
            assert chunk.priority == 9.0

    def test_quota_update_takes_effect(self):
        session = SimulationSession(tenant_spec())
        session.advance()
        session.ingest([QuotaUpdate("premium", 123.0)])
        session.advance()
        accountant = session.simulation.demand.accountant
        tenant = accountant._tenants["premium"]
        assert tenant.quota_gb_per_day == 123.0

    def test_outage_notice_blocks_station(self):
        """A notice ingested after several ticks, on top of one the
        scheduler has been querying since tick 0, prunes its station from
        the very next tick's contact graph."""
        def record_graphs(session):
            scheduler = session.simulation.scheduler
            build = scheduler.contact_graph
            graphs = []

            def spy(when, *args, **kwargs):
                graph = build(when, *args, **kwargs)
                graphs.append(graph)
                return graph

            scheduler.contact_graph = spy
            return graphs

        # An undisturbed run finds a tick past the first few with edges.
        reference = SimulationSession(plain_spec())
        graphs = record_graphs(reference)
        stations_at = []
        while reference.step < reference.horizon_steps:
            graphs.clear()
            reference.advance()
            stations_at.append({e.station_index
                                for g in graphs for e in g.edges})
        tick = next(i for i, seen in enumerate(stations_at)
                    if i >= 5 and seen)
        index = min(stations_at[tick])

        session = SimulationSession(plain_spec())
        sim = session.simulation
        station = sim.network[index].station_id
        bystander = sim.network[(index + 1) % len(sim.network)].station_id
        # Past the horizon: queried every tick, never down.
        session.ingest([OutageNotice(bystander, EPOCH + timedelta(hours=5),
                                     EPOCH + timedelta(hours=6))])
        session.advance(steps=tick)
        now = session.now
        session.ingest([OutageNotice(station, now,
                                     now + timedelta(hours=2))])
        graphs = record_graphs(session)
        session.advance()
        assert sim.outages is not None
        assert sim.outages_announced
        assert sim.outages.is_down(station, now + timedelta(minutes=30))
        assert not sim.outages.is_down(station, now + timedelta(hours=3))
        assert graphs, "the tick built no contact graph"
        assert all(e.station_index != index
                   for g in graphs for e in g.edges)

    def test_outage_refused_over_unannounced_schedule(self):
        from repro.simulation import OutageSchedule

        scenario = plain_spec().build()
        scenario.simulation.outages = OutageSchedule()
        scenario.simulation.outages_announced = False
        session = SimulationSession(scenario=scenario)
        station = scenario.simulation.network[0].station_id
        with pytest.raises(ValueError, match="unannounced"):
            session.ingest([OutageNotice(station, EPOCH,
                                         EPOCH + timedelta(hours=1))])


class TestPlanDeltas:
    def test_deltas_deterministic_across_identical_sessions(self):
        def feed(session):
            sat = session.simulation.satellites[1].satellite_id
            session.advance(steps=5)
            session.ingest([SubmitRequest("r-1", "standard", sat, chunks=3)])
            session.advance(steps=session.horizon_steps - 5)
            return session.finalize()

        spec = tenant_spec(duration_s=2 * 3600.0)
        a = SimulationSession(spec)
        b = SimulationSession(spec)
        report_a, report_b = feed(a), feed(b)
        assert report_a.to_json() == report_b.to_json()
        assert [d.to_dict() for d in a.plan_deltas()] == \
               [d.to_dict() for d in b.plan_deltas()]

    def test_delta_log_is_incremental(self):
        session = SimulationSession(plain_spec(duration_s=2 * 3600.0))
        session.run_to_horizon()
        deltas = session.plan_deltas()
        assert deltas, "a 2h run should see at least one link change"
        assert [d.seq for d in deltas] == list(range(1, len(deltas) + 1))
        tail = session.plan_deltas(since=deltas[0].seq)
        assert tail == deltas[1:]
        with pytest.raises(ValueError):
            session.plan_deltas(since=-1)

    def test_plan_reflects_last_executed_links(self):
        session = SimulationSession(plain_spec(duration_s=2 * 3600.0))
        session.run_to_horizon()
        plan = session.plan()
        sat_ids = [link["satellite_id"] for link in plan]
        assert sat_ids == sorted(sat_ids)
        valid_stations = {s.station_id for s in session.simulation.network}
        assert all(link["station_id"] in valid_stations for link in plan)


class TestSnapshotAndLifecycle:
    def test_snapshot_shape(self):
        session = SimulationSession(plain_spec())
        snap = session.snapshot()
        assert snap["step"] == 0
        assert snap["finished"] is False
        assert snap["now"] == EPOCH.isoformat()
        assert set(snap["backlog_gb"]) == {
            s.satellite_id for s in session.simulation.satellites
        }
        session.advance(steps=4)
        assert session.snapshot()["step"] == 4

    def test_requires_exactly_one_of_spec_or_scenario(self):
        with pytest.raises(TypeError, match="exactly one"):
            SimulationSession()
        with pytest.raises(TypeError, match="exactly one"):
            SimulationSession(plain_spec(),
                              scenario=plain_spec().build())

    def test_scenario_keyword_accepted(self):
        scenario = plain_spec(duration_s=600.0).build()
        session = SimulationSession(scenario=scenario)
        assert session.simulation is scenario.simulation
        session.run_to_horizon()

    def test_advance_rejects_both_until_and_steps(self):
        session = SimulationSession(plain_spec())
        with pytest.raises(TypeError, match="at most one"):
            session.advance(until=EPOCH, steps=1)
        with pytest.raises(ValueError, match=">= 0"):
            session.advance(steps=-1)

    def test_advance_caps_at_horizon(self):
        session = SimulationSession(plain_spec(duration_s=600.0))
        session.advance(steps=10_000)
        assert session.step == session.horizon_steps

    def test_finalize_is_idempotent(self):
        session = SimulationSession(plain_spec(duration_s=600.0))
        session.advance(steps=session.horizon_steps)
        first = session.finalize()
        assert session.finalize() is first

    def test_finalize_without_ticks_still_reports(self):
        session = SimulationSession(plain_spec(duration_s=600.0))
        report = session.finalize()
        assert report.delivered_bits == 0.0
        assert session.finished


PLUS2 = timezone(timedelta(hours=2))


class TestOutageTimeZones:
    """The simulation clock is naive UTC; aware notice times convert to it."""

    @pytest.mark.parametrize("start, end", [
        (datetime(2020, 6, 1, 2, 30, tzinfo=PLUS2), datetime(2020, 6, 1, 1)),
        (datetime(2020, 6, 1, 2, 30, tzinfo=PLUS2),
         datetime(2020, 6, 1, 3, tzinfo=PLUS2)),
        (datetime(2020, 6, 1, 0, 30), datetime(2020, 6, 1, 1)),
    ], ids=["mixed", "aware", "naive"])
    def test_notice_blocks_its_station_at_the_utc_tick(self, start, end):
        session = SimulationSession(plain_spec())
        sim = session.simulation
        station = sim.network[0].station_id
        assert session.ingest([OutageNotice(station, start, end)])[0][
            "status"] == "queued"
        session.advance(steps=45)
        for minute, down in ((29, False), (30, True), (59, True),
                             (60, False)):
            when = EPOCH + timedelta(minutes=minute)
            assert sim.outages.is_down(station, when) is down
            assert sim.scheduler.station_available(0, when) is not down
        assert session.run_to_horizon().generated_bits > 0

    def test_notice_ending_before_its_utc_start_is_rejected(self):
        session = SimulationSession(plain_spec())
        station = session.simulation.network[0].station_id
        with pytest.raises(ValueError, match="end after it starts"):
            session.ingest([OutageNotice(
                station, datetime(2020, 6, 1, 2, 30, tzinfo=PLUS2),
                datetime(2020, 6, 1, 0, 20),
            )])
        assert session.snapshot()["pending_events"] == 0
