"""Span tracing from outside the program, for the ledger's traced run.

:class:`Tracer` patches the public entry points listed in :data:`WRAPPED`
-- on their classes, or in the namespace of the module that imported
them -- with wrappers that record one span per call: name, start, end,
parent (from a stack) and the current tick as the shared identifier.
Spans stay in memory; :meth:`Tracer.layer_metrics` derives the
per-layer metrics from them (self time = duration minus the direct
children's durations) and :meth:`Tracer.dump` writes them out.

The program's own ``ObsConfig`` recorder stays off: turning it on
switches the scheduler's weather memo to a different code path.
"""

from __future__ import annotations

import importlib
import itertools
import time

import numpy as np

#: (module, attribute path, span name).  Several entry points may share
#: one span name; a layer's time is the time of its outermost spans.
WRAPPED = (
    ("repro.core.scenarios", "ScenarioSpec.build_fleet", "scenarios.fleet"),
    ("repro.core.scenarios", "satnogs_like_network",
     "groundstations.network"),
    ("repro.simulation.engine", "shared_ephemeris_table", "orbits.ephemeris"),
    ("repro.simulation.engine", "shared_window_index", "windows.index"),
    ("repro.simulation.engine", "Simulation.run", "engine.run"),
    ("repro.simulation.engine", "Simulation._step_once", "engine.tick"),
    ("repro.scheduling.scheduler", "DownlinkScheduler.schedule_step",
     "scheduler.step"),
    ("repro.scheduling.scheduler", "DownlinkScheduler.contact_graph",
     "graph"),
    ("repro.weather.provider", "QuantizedWeatherCache.sample",
     "weather.lookup"),
    ("repro.weather.provider", "QuantizedWeatherCache.sample_prequantized",
     "weather.lookup"),
    ("repro.weather.cells", "RainCellField.sample", "weather.field"),
    ("repro.weather.storms", "StormWeatherProvider.sample", "weather.field"),
    ("repro.scheduling.value_functions", "LatencyValue.edge_values",
     "value.edge_values"),
    ("repro.scheduling.value_functions", "DeadlineSlaValue.edge_values",
     "value.edge_values"),
    ("repro.scheduling.value_functions", "FleetQueueProfile.refresh",
     "value.queue_refresh"),
    ("repro.faults.schedule", "FaultSchedule.station_availability",
     "faults.query"),
    ("repro.faults.schedule", "FaultSchedule.backhaul_fault",
     "faults.query"),
    ("repro.faults.schedule", "FaultSchedule.is_undecoded", "faults.query"),
    ("repro.faults.schedule", "FaultSchedule.is_partitioned",
     "faults.query"),
    ("repro.linkbudget.budget", "LinkBudget.esn0_db", "linkbudget.esn0"),
    ("repro.simulation.engine", "decode_probability", "linkbudget.decode"),
    ("repro.network.diversity", "DiversityCombiner.combine",
     "diversity.combine"),
    ("repro.scheduling.matching", "diversity_groups", "diversity.groups"),
    ("repro.simulation.session", "SimulationSession.ingest",
     "session.ingest"),
    ("repro.simulation.session", "SimulationSession.advance",
     "session.advance"),
    ("repro.simulation.session", "SimulationSession.plan_deltas",
     "session.plan_deltas"),
    ("repro.simulation.session", "SimulationSession.finalize",
     "session.finalize"),
    ("repro.satellites.storage", "OnboardStorage.transmit",
     "satellites.storage"),
    ("repro.satellites.storage", "OnboardStorage.capture",
     "satellites.storage"),
    ("repro.satellites.storage", "OnboardStorage.acknowledge",
     "satellites.storage"),
    ("repro.satellites.storage", "OnboardStorage.requeue_stale_unacked",
     "satellites.storage"),
    ("repro.network.backend", "BackendCollator.submit_receipt", "backend"),
    ("repro.network.backend", "BackendCollator.advance", "backend"),
    ("repro.network.backend", "BackendCollator.issue_ack_batch", "backend"),
    ("repro.simulation.metrics", "SimulationReport.to_json",
     "metrics.report_json"),
)

#: Spans whose self time is the engine's own loop work.
ENGINE_SPANS = ("engine.run", "engine.tick", "session.advance",
                "session.finalize")

#: Span the optimality oracle runs under; it is excluded from ``run_s``.
ORACLE_SPAN = "oracle"


class CoverageError(RuntimeError):
    """A wrapped entry point is missing or never fired."""


class Tracer:
    """Records spans around the program's entry points while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        #: Closed spans: (index, name id, start, end, parent index, tick).
        self._records: list[tuple] = []
        self._next_index = itertools.count().__next__
        #: Indexes of the open spans; -1 is the root's parent.
        self._stack: list[int] = [-1]
        self.tick = -1
        #: Per-call counters the wrappers read off arguments and results.
        self.counts = {
            "graph.edges": 0,
            "matching.assignments": 0, "diversity.rescued": 0,
            "session.events": 0, "session.duplicates": 0,
            "session.deltas": 0,
        }
        #: Per-tick (matched weight, optimal weight) from the oracle.
        self.oracle: list[tuple[float, float]] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> tuple:
        """Open a span; pass the returned token to :meth:`close`."""
        index = self._next_index()
        parent = self._stack[-1]
        self._stack.append(index)
        return (index, self._id(name), parent, self.tick,
                time.perf_counter())

    def close(self, token: tuple) -> None:
        end = time.perf_counter()
        index, nid, parent, tick, start = token
        self._stack.pop()
        self._records.append((index, nid, start, end, parent, tick))

    def _wrapper(self, func, name: str):
        # The hot path: every wrapped call pays for this body, so it
        # inlines open/close over pre-bound locals.
        tracer = self
        nid = self._id(name)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)
        next_index = self._next_index
        stack = self._stack
        push, pop = stack.append, stack.pop
        record = self._records.append
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = next_index()
            parent = stack[-1]
            push(index)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                pop()
                record((index, nid, start, end, parent, tracer.tick))
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = func
        traced.__name__ = getattr(func, "__name__", name)
        return traced

    # -- per-entry-point hooks (run after the span closes) -----------------

    def _after_graph(self, args, kwargs, graph):
        self.counts["graph.edges"] += graph.num_edges

    def _after_session_ingest(self, args, kwargs, acks):
        self.counts["session.events"] += len(acks)
        self.counts["session.duplicates"] += sum(
            1 for ack in acks if ack["status"] == "duplicate"
        )

    def _after_session_plan_deltas(self, args, kwargs, deltas):
        self.counts["session.deltas"] += len(deltas)

    def _after_diversity_combine(self, args, kwargs, reception):
        self.counts["diversity.rescued"] += int(reception.rescued)

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Patch every entry point in :data:`WRAPPED`.

        Raises :class:`CoverageError` naming the first symbol that no
        longer exists, so a refactor cannot silently zero its metrics.
        """
        for module_name, path, name in WRAPPED:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            try:
                for part in parents:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
            except (AttributeError, KeyError):
                self.uninstall()
                raise CoverageError(
                    f"wrapped entry point {module_name}.{path} is missing"
                ) from None
            if name == "scheduler.step":
                patched = self._schedule_step_wrapper(original)
            else:
                patched = self._wrapper(original, name)
            setattr(owner, attr, patched)
            self._patched.append((owner, attr, original))
        engine = importlib.import_module("repro.simulation.engine")
        step_once = engine.Simulation._step_once
        tracer = self

        def step_with_tick(sim, k):
            tracer.tick = k
            return step_once(sim, k)

        engine.Simulation._step_once = step_with_tick
        self._patched.append(
            (engine.Simulation, "_step_once", step_once)
        )

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _schedule_step_wrapper(self, func):
        """Force ``keep_graph=True`` so the oracle sees every tick's graph.

        The oracle runs after the span closes, under its own span, and
        the graph is dropped again when the caller did not ask for it, so
        the program sees the step it would have seen untraced.
        """
        tracer = self

        def traced(scheduler, when, forecast_issued_at=None,
                   keep_graph=False):
            token = tracer.open("scheduler.step")
            try:
                step = func(scheduler, when, forecast_issued_at,
                            keep_graph=True)
            finally:
                tracer.close(token)
            tracer.counts["matching.assignments"] += len(step.assignments)
            oracle = tracer.open(ORACLE_SPAN)
            try:
                if step.graph.num_edges:
                    matched = sum(a.weight for a in step.assignments)
                    best = optimal_weight(step.graph, scheduler.capacities)
                    tracer.oracle.append((matched, best))
            finally:
                tracer.close(oracle)
            if not keep_graph:
                step.graph = None
            return step

        traced.__wrapped__ = func
        return traced

    # -- results -------------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        """The spans as parallel arrays, in opening order.

        Call once every span has closed; a span's row is then its index,
        so ``parent`` is the parent's row (-1 for a root).
        """
        _index, name, start, end, parent, tick = zip(*sorted(self._records))
        return {
            "name": np.array(name, dtype=np.int32),
            "start": np.array(start),
            "end": np.array(end),
            "parent": np.array(parent, dtype=np.int64),
            "tick": np.array(tick, dtype=np.int64),
        }

    def dump(self, path: str) -> None:
        """Write the spans and the name table to ``path`` (``.npz``)."""
        np.savez(path, names=np.array(self.names), **self.spans())

    def fired(self) -> set[str]:
        """Span names with at least one recorded call."""
        return {self.names[r[1]] for r in self._records}

    def check_coverage(self, expected) -> None:
        """Raise :class:`CoverageError` naming entry points that never fired."""
        fired = self.fired()
        silent = [name for name in expected if name not in fired]
        if silent:
            symbols = [
                f"{module}.{path}" for module, path, name in WRAPPED
                if name in silent
            ]
            raise CoverageError(
                "wrapped entry points never fired: " + ", ".join(symbols)
            )

    def layer_metrics(self, simulation, run_s: float) -> dict[str, float]:
        """Per-layer metrics from the spans, the index and the counters.

        ``run_s`` is the traced run's wall time with the oracle excluded.
        """
        spans = self.spans()
        name = spans["name"]
        parent = spans["parent"]
        duration = spans["end"] - spans["start"]
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=duration[nested],
                               minlength=duration.size)
        self_time = duration - children
        ids = {n: i for i, n in enumerate(self.names)}
        none = np.zeros(duration.size, dtype=bool)

        def mask(span_name: str) -> np.ndarray:
            nid = ids.get(span_name)
            return none if nid is None else name == nid

        def outermost(span_name: str) -> np.ndarray:
            """Spans of ``span_name`` not nested in another of the same."""
            own = mask(span_name)
            parent_own = np.zeros(duration.size, dtype=bool)
            parent_own[nested] = own[parent[nested]]
            return own & ~parent_own

        def total(span_name: str) -> float:
            return float(duration[outermost(span_name)].sum())

        def calls(span_name: str) -> int:
            return int(outermost(span_name).sum())

        def ms_percentile(values: np.ndarray, q: float) -> float:
            if values.size == 0:
                return 0.0
            return float(np.percentile(values, q)) * 1e3

        graph_ms = duration[mask("graph")]
        matching = self_time[mask("scheduler.step")]
        index = simulation.window_index
        active = [index.active_count(k) for k in range(index.num_steps)]
        lookups = calls("weather.lookup")
        edges = self.counts["graph.edges"]
        assignments = self.counts["matching.assignments"]
        matched = sum(m for m, _ in self.oracle)
        best = sum(b for _, b in self.oracle)
        passes = calls("diversity.combine")
        engine_self = float(sum(
            self_time[mask(span_name)].sum() for span_name in ENGINE_SPANS
        ))
        backend = simulation.backend
        weather = simulation.truth_weather
        return {
            "scenarios.fleet_s": total("scenarios.fleet"),
            "groundstations.network_s": total("groundstations.network"),
            "orbits.ephemeris_s": total("orbits.ephemeris"),
            "windows.index_s": total("windows.index"),
            "windows.pairs": sum(active),
            "windows.idle_step_ratio": (
                sum(1 for n in active if n == 0) / len(active)
            ),
            "graph.self_s": float(self_time[mask("graph")].sum()),
            "graph.ms_p50": ms_percentile(graph_ms, 50),
            "graph.ms_p99": ms_percentile(graph_ms, 99),
            "graph.edges": edges,
            "weather.lookups": lookups,
            "weather.field_samples": calls("weather.field"),
            # The cache's own lifetime counters: every lookup in these
            # workloads goes through the one truth-weather cache.
            "weather.hit_ratio": (
                weather.hits / (weather.hits + weather.misses)
                if weather.hits + weather.misses else 0.0
            ),
            "weather.field_s": total("weather.field"),
            "value.edge_values_s": total("value.edge_values"),
            "value.queue_refresh_s": total("value.queue_refresh"),
            "value.queue_refreshes": calls("value.queue_refresh"),
            "matching.s": float(matching.sum()),
            "matching.ms_p50": ms_percentile(matching, 50),
            "matching.ms_p99": ms_percentile(matching, 99),
            "matching.assignments": assignments,
            "matching.useful_edge_ratio": assignments / edges if edges else 0.0,
            "matching.weight_vs_optimal": matched / best if best else 1.0,
            "faults.query_s": total("faults.query"),
            "faults.queries": calls("faults.query"),
            "linkbudget.esn0_s": total("linkbudget.esn0"),
            "linkbudget.esn0_calls": calls("linkbudget.esn0"),
            "linkbudget.decode_s": total("linkbudget.decode"),
            "diversity.s": total("diversity.combine")
            + total("diversity.groups"),
            "diversity.rescue_ratio": (
                self.counts["diversity.rescued"] / passes if passes else 0.0
            ),
            "session.ingest_s": total("session.ingest"),
            "session.events": self.counts["session.events"],
            "session.duplicates": self.counts["session.duplicates"],
            "session.deltas": self.counts["session.deltas"],
            "satellites.storage_s": total("satellites.storage"),
            "satellites.storage_calls": calls("satellites.storage"),
            "backend.s": total("backend"),
            "backend.calls": calls("backend"),
            "backend.duplicate_receipts": backend.duplicate_receipts,
            "engine.self_s": engine_self,
            "engine.self_share": engine_self / run_s if run_s > 0 else 0.0,
            "metrics.report_json_s": total("metrics.report_json"),
        }

    def oracle_gap(self) -> float:
        """Largest per-tick relative shortfall of the matched weight."""
        gaps = [(best - matched) / best
                for matched, best in self.oracle if best > 0]
        return max(gaps, default=0.0)

    def oracle_seconds(self) -> float:
        """Wall time spent in the optimality oracle."""
        nid = self._name_ids.get(ORACLE_SPAN)
        return sum(r[3] - r[2] for r in self._records if r[1] == nid)


def optimal_weight(graph, capacities=None) -> float:
    """Maximum total matched weight of a contact graph.

    ``scipy.optimize.linear_sum_assignment`` on the capacity-expanded
    weight matrix, restricted to satellites and stations that have an
    edge (missing pairs weigh 0, which is the same as leaving a row
    unmatched because every edge weight is positive).
    """
    from scipy.optimize import linear_sum_assignment

    cols = graph.columns()
    sats, sat_row = np.unique(cols.satellite_index, return_inverse=True)
    stations, station_col = np.unique(cols.station_index,
                                      return_inverse=True)
    if capacities is None:
        reps = np.ones(stations.size, dtype=np.int64)
    else:
        reps = np.asarray(capacities, dtype=np.int64)[stations]
    weight = np.zeros((sats.size, stations.size))
    weight[sat_row, station_col] = cols.weight
    expanded = np.repeat(weight, reps, axis=1)
    rows, picked = linear_sum_assignment(expanded, maximize=True)
    return float(expanded[rows, picked].sum())
