"""Workload and metric definitions for the performance ledger.

Everything here is plain data plus two functions (:func:`scenario_spec`
and :func:`session_events`) that the repetition child calls.  This module
imports ``repro`` only inside those functions, so the parent process that
schedules repetitions never loads the simulator itself.

Inputs come only from the workload seed.  The population -- the fleet's
orbits and the station placement -- is part of a workload's definition
and stays at the repository's default seeds; the seed re-draws weather,
storms, faults, tenant demand, diversity draws and the session's event
stream.  Re-drawing the population as well moved peak RSS by about 3%
between seeds, the size of that metric's bound, without changing which
code runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from datetime import timedelta

#: End-to-end metrics: (name, unit, better, bound).  ``bound`` is the share
#: of the parent's median by which the metric may worsen before a change
#: counts as a regression.  Timings get the widest bound allowed: on the
#: shared 2-core host the same commit's run-to-run spread (IQR / median
#: over ten runs) reached 14% even with fastest-repetition estimates.
#: Peak RSS repeats to 0.3%.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("run_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("tick_p50_ms", "ms", "lower", 0.25),
    ("tick_p99_ms", "ms", "lower", 0.25),
)

#: Per-layer metrics from the traced repetition: (name, unit, better).
PER_LAYER = (
    ("scenarios.fleet_s", "s", "lower"),
    ("groundstations.network_s", "s", "lower"),
    ("orbits.ephemeris_s", "s", "lower"),
    ("windows.index_s", "s", "lower"),
    ("windows.pairs", "count", "lower"),
    ("windows.idle_step_ratio", "ratio", "higher"),
    ("graph.self_s", "s", "lower"),
    ("graph.ms_p50", "ms", "lower"),
    ("graph.ms_p99", "ms", "lower"),
    ("graph.edges", "count", "lower"),
    ("weather.lookups", "count", "lower"),
    ("weather.field_samples", "count", "lower"),
    ("weather.hit_ratio", "ratio", "higher"),
    ("weather.field_s", "s", "lower"),
    ("value.edge_values_s", "s", "lower"),
    ("value.queue_refresh_s", "s", "lower"),
    ("value.queue_refreshes", "count", "lower"),
    ("matching.s", "s", "lower"),
    ("matching.ms_p50", "ms", "lower"),
    ("matching.ms_p99", "ms", "lower"),
    ("matching.assignments", "count", "higher"),
    ("matching.useful_edge_ratio", "ratio", "higher"),
    ("matching.weight_vs_optimal", "ratio", "higher"),
    ("faults.query_s", "s", "lower"),
    ("faults.queries", "count", "lower"),
    ("linkbudget.esn0_s", "s", "lower"),
    ("linkbudget.esn0_calls", "count", "lower"),
    ("linkbudget.decode_s", "s", "lower"),
    ("diversity.s", "s", "lower"),
    ("diversity.rescue_ratio", "ratio", "higher"),
    ("session.ingest_s", "s", "lower"),
    ("session.events", "count", "higher"),
    ("session.duplicates", "count", "lower"),
    ("session.deltas", "count", "lower"),
    ("satellites.storage_s", "s", "lower"),
    ("satellites.storage_calls", "count", "lower"),
    ("backend.s", "s", "lower"),
    ("backend.calls", "count", "lower"),
    ("backend.duplicate_receipts", "count", "lower"),
    ("engine.self_s", "s", "lower"),
    ("engine.self_share", "ratio", "lower"),
    ("metrics.report_json_s", "s", "lower"),
    ("report.backlog_overcount_gb", "GB", "lower"),
    ("trace.overhead", "ratio", "lower"),
)

#: Entry points every workload drives; the traced run fails if one of
#: these is missing or never fires.
_COMMON_LAYERS = (
    "scenarios.fleet", "groundstations.network", "orbits.ephemeris",
    "windows.index", "engine.tick", "scheduler.step", "graph",
    "weather.lookup", "weather.field", "value.edge_values",
    "value.queue_refresh", "satellites.storage", "backend",
    "metrics.report_json",
)

_SESSION_LAYERS = (
    "faults.query", "linkbudget.esn0", "linkbudget.decode",
    "diversity.combine", "diversity.groups", "session.ingest",
    "session.advance", "session.plan_deltas", "session.finalize",
)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a scenario plus how it is driven."""

    name: str
    why: str
    #: ``ScenarioSpec.dgs`` keyword arguments at full size.
    spec_kwargs: dict
    #: Driven tick by tick through ``SimulationSession`` with an event
    #: stream (closed loop, one client) instead of ``Simulation.run()``.
    session: bool = False
    #: Ticks the session client drives before finalizing (at most the
    #: scenario's horizon).
    session_ticks: int = 0
    #: ``generated == delivered + sum(final backlog)`` holds exactly.
    conserves: bool = True

    @property
    def exact_matcher(self) -> bool:
        """The matcher is exact, so its weight must equal the oracle's."""
        return self.spec_kwargs.get("matcher") == "optimal"

    @property
    def layers(self) -> tuple:
        """Span names (see ``spans.WRAPPED``) that must fire when traced."""
        if self.session:
            return _COMMON_LAYERS + _SESSION_LAYERS
        return _COMMON_LAYERS + ("engine.run",)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="paper-day",
            why=("The paper's Fig 3a setting: 259x173 for a day, stable "
                 "matching; graph, weather, pricing, storage and backend "
                 "do the loop's work."),
            spec_kwargs=dict(num_satellites=259, num_stations=173,
                             duration_s=86400.0),
        ),
        Workload(
            name="walker-hour",
            why=("Walker-delta 2500x1000 for an hour: set-up (ephemeris, "
                 "window index) and memory dominate, the tick loop is "
                 "small."),
            spec_kwargs=dict(constellation="walker", num_satellites=2500,
                             num_stations=1000, duration_s=3600.0),
        ),
        Workload(
            name="session-storm-6h",
            why=("The service path: a 259x173 storm day with faults, "
                 "diversity and tenant pricing, driven 6 h by one client "
                 "writing events and reading plan deltas."),
            # The scenario is the whole day, so the fault schedule the
            # queries scan is the day's; six hours keep a repetition short
            # enough for several per run on a noisy host.
            spec_kwargs=dict(num_satellites=259, num_stations=173,
                             duration_s=86400.0, value="deadline",
                             weather="storms", execution_mode="diversity",
                             diversity_receivers=2, fault_intensity=0.3),
            session=True,
            session_ticks=360,
            # Chunks re-queued after delivery (their receipt or ack was
            # lost) are counted again in the final backlog; the
            # overcount is pinned instead.
            conserves=False,
        ),
        Workload(
            name="optimal-16min",
            why=("The paper's optimal arm at 259x173: matching is nearly "
                 "all of the wall time; minutes 14-15 are the first with "
                 "data to match."),
            # 1 GB chunks take 14.4 min to fill, so earlier ticks have no
            # edges; two matched ticks keep a repetition short.
            spec_kwargs=dict(num_satellites=259, num_stations=173,
                             duration_s=960.0, matcher="optimal"),
        ),
    )
}


def scenario_spec(workload: Workload, seed: int,
                  size: tuple[int, int, float] | None = None):
    """The workload's ``ScenarioSpec`` for ``seed``.

    ``size`` = (satellites, stations, duration_s) shrinks the workload
    for the harness test; everything else about it is unchanged.
    """
    from repro import ScenarioSpec, tenant_mix

    kwargs = dict(workload.spec_kwargs)
    if workload.session:
        kwargs["tenants"] = tenant_mix("balanced")
    if size is not None:
        kwargs.update(num_satellites=size[0], num_stations=size[1],
                      duration_s=size[2])
    base = ScenarioSpec.dgs(**kwargs)
    return replace(base.derive_seeds(seed), fleet_seed=base.fleet_seed,
                   network_seed=base.network_seed)


def session_events(simulation, tenants, seed: int, ticks: int):
    """The closed-loop client's event stream, one batch per tick.

    Per tick: two new ``SubmitRequest`` of 1-3 chunks; every tenth tick a
    re-submitted earlier id (acknowledged as a duplicate); every hour a
    ``QuotaUpdate``; every two hours an ``OutageNotice`` starting within
    the next half hour.  Covers ``ticks`` ticks, at most the horizon.
    Returns ``[(events, expected_statuses), ...]``.
    """
    from repro import OutageNotice, QuotaUpdate, SubmitRequest

    rng = random.Random(f"{seed}:events")
    config = simulation.config
    satellite_ids = [s.satellite_id for s in simulation.satellites]
    station_ids = [st.station_id for st in simulation.network]
    tenant_ids = [t.tenant_id for t in tenants]
    submitted: list[str] = []
    batches = []
    for k in range(min(ticks, config.num_steps)):
        events, expected = [], []
        for _ in range(2):
            request_id = f"req-{len(submitted) + 1}"
            submitted.append(request_id)
            events.append(SubmitRequest(
                request_id, rng.choice(tenant_ids),
                rng.choice(satellite_ids), chunks=rng.randint(1, 3),
            ))
            expected.append("queued")
        if k % 10 == 9:
            events.append(SubmitRequest(
                rng.choice(submitted), rng.choice(tenant_ids),
                rng.choice(satellite_ids),
            ))
            expected.append("duplicate")
        if k % 60 == 0:
            events.append(QuotaUpdate(
                rng.choice(tenant_ids), rng.choice((0.0, 20.0, 40.0, 80.0)),
            ))
            expected.append("queued")
        if k % 120 == 0:
            start = config.start + timedelta(
                seconds=k * config.step_s + 60 * rng.randint(1, 30)
            )
            events.append(OutageNotice(
                rng.choice(station_ids), start,
                start + timedelta(minutes=rng.randint(10, 60)),
            ))
            expected.append("queued")
        batches.append((events, expected))
    return batches
