"""Cross-time (horizon) scheduling -- the paper's stated future work.

Sec. 3.1: "We do not optimize for links across time.  This optimization
can further benefit DGS but we leave this to future work."  This module
implements that future work as a model-predictive scheduler:

1. Build contact graphs for the next H steps (using forecasts, exactly
   like plan building).
2. Greedily assign (satellite, station, step) triples in descending value
   over the whole window -- a 1/2-approximation to the time-expanded
   maximum-weight matching -- while discounting a satellite's later-step
   weights by the backlog fraction its accepted slots will already drain
   (otherwise one stale queue would win every slot in the window).
3. Execute the window's first R steps, then re-plan (receding horizon).

The matching degenerates to the paper's per-instant scheduler at H=1, and
the ablation bench quantifies what the lookahead buys -- which is itself a
result the paper left open.
"""

from __future__ import annotations

from datetime import datetime, timedelta

from repro.scheduling.graph import ContactGraph
from repro.scheduling.matching import Assignment
from repro.scheduling.scheduler import DownlinkScheduler, ScheduleStep


class HorizonScheduler(DownlinkScheduler):
    """Receding-horizon variant of the DGS scheduler.

    Parameters (beyond :class:`DownlinkScheduler`):

    horizon_steps:
        Window length H in scheduling steps.
    replan_steps:
        Execute this many steps of each window before re-planning
        (1 = re-plan every step; H = plan once per window).
    """

    def __init__(self, *args, horizon_steps: int = 10,
                 replan_steps: int = 5, **kwargs):
        super().__init__(*args, **kwargs)
        if horizon_steps < 1:
            raise ValueError("horizon must be at least 1 step")
        if not 1 <= replan_steps <= horizon_steps:
            raise ValueError("replan_steps must be in [1, horizon_steps]")
        self.horizon_steps = horizon_steps
        self.replan_steps = replan_steps
        self._window_start: datetime | None = None
        self._window: dict[int, list[Assignment]] = {}
        #: The window's priced graphs, one per step, kept until the next
        #: re-plan so ``schedule_step(keep_graph=True)`` can return the
        #: graph a step was planned on.
        self._window_graphs: list[ContactGraph] = []

    # -- public interface --------------------------------------------------

    def schedule_step(self, when: datetime,
                      forecast_issued_at: datetime | None = None,
                      keep_graph: bool = False) -> ScheduleStep:
        offset = self._window_offset(when)
        if offset is None or offset >= self.replan_steps:
            self._plan_window(when, forecast_issued_at)
            offset = 0
        assignments = self._window.get(offset, [])
        return ScheduleStep(
            when=when,
            assignments=assignments,
            num_edges=self._window_edge_count,
            graph=self._window_graphs[offset] if keep_graph else None,
        )

    # -- internals -----------------------------------------------------------

    def _window_offset(self, when: datetime) -> int | None:
        if self._window_start is None:
            return None
        delta = (when - self._window_start).total_seconds()
        if delta < 0:
            return None
        offset = round(delta / self.step_s)
        if abs(delta - offset * self.step_s) > 1e-6 or offset >= self.horizon_steps:
            return None
        return offset

    def _plan_window(self, start: datetime,
                     forecast_issued_at: datetime | None) -> None:
        graphs = []
        for k in range(self.horizon_steps):
            when = start + timedelta(seconds=k * self.step_s)
            graphs.append(self.contact_graph(when, forecast_issued_at))
        self._window_edge_count = graphs[0].num_edges if graphs else 0

        # All (step, edge) candidates, heaviest first.
        candidates = [
            (k, edge) for k, graph in enumerate(graphs) for edge in graph.edges
        ]
        candidates.sort(
            key=lambda item: (-item[1].weight, item[0],
                              item[1].satellite_index, item[1].station_index)
        )
        caps = self.capacities or [1] * len(self.network)
        station_load = [[0] * len(self.network) for _ in range(self.horizon_steps)]
        sat_busy: set[tuple[int, int]] = set()
        # Backlog drain bookkeeping: discount later-step weights once a
        # satellite's accepted slots cover its current backlog.
        remaining_bits = {
            i: sat.storage.backlog_bits for i, sat in enumerate(self.satellites)
        }
        window: dict[int, list[Assignment]] = {k: [] for k in range(self.horizon_steps)}
        for k, edge in candidates:
            sat = edge.satellite_index
            if (sat, k) in sat_busy:
                continue
            if station_load[k][edge.station_index] >= caps[edge.station_index]:
                continue
            if remaining_bits.get(sat, 0.0) <= 0.0:
                continue  # nothing left worth a slot in this window
            sat_busy.add((sat, k))
            station_load[k][edge.station_index] += 1
            remaining_bits[sat] = remaining_bits.get(sat, 0.0) - (
                edge.bitrate_bps * self.step_s
            )
            window[k].append(Assignment.from_edge(edge))
        self._window_start = start
        self._window = window
        self._window_graphs = graphs
