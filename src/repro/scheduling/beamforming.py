"""Ground-station beamforming -- the paper's Sec. 3.3 extension.

"Some modern designs of ground stations have explored beamforming at the
ground station.  This will be an interesting addition to DGS by enabling
each ground station to split power between multiple satellites ... We
leave the exploration of this new optimization problem to future work."

Model: a station with ``beams`` = B can hold B simultaneous links, but an
analog power-split aperture loses ``10*log10(b)`` dB of gain on each link
when b beams are active (a digital array with per-beam full gain is the
``lossless=True`` variant).  The scheduler matches with per-station
capacity B, then *re-prices* each link for the beam count actually used:
the DVB-S2 operating point is re-selected at the penalized Es/N0, and
links that no longer close are dropped.  The plan the satellites receive
is therefore already beam-aware -- consistent with the ack-free design,
where transmission parameters must be committed in advance.
"""

from __future__ import annotations

import math
from datetime import datetime

from repro.linkbudget.dvbs2 import best_modcod
from repro.scheduling.matching import Assignment
from repro.scheduling.scheduler import DownlinkScheduler, ScheduleStep


class BeamformingScheduler(DownlinkScheduler):
    """DGS scheduler for stations with multi-beam receivers.

    Parameters (beyond :class:`DownlinkScheduler`):

    beams:
        Simultaneous beams per station (uniform; per-station counts can be
        passed via ``capacities`` instead).
    lossless:
        True models a fully digital array (no gain split); False (default)
        models an analog power split costing 10*log10(b) dB per link.
    """

    def __init__(self, *args, beams: int = 2, lossless: bool = False, **kwargs):
        if beams < 1:
            raise ValueError("beams must be >= 1")
        if "capacities" not in kwargs or kwargs["capacities"] is None:
            kwargs["capacities"] = None  # set after super().__init__
        super().__init__(*args, **kwargs)
        self.beams = beams
        self.lossless = lossless
        if self.capacities is None:
            self.capacities = [beams] * len(self.network)

    def schedule_step(self, when: datetime,
                      forecast_issued_at: datetime | None = None,
                      keep_graph: bool = False) -> ScheduleStep:
        step = super().schedule_step(when, forecast_issued_at, keep_graph)
        if self.lossless:
            return step
        return ScheduleStep(
            when=step.when,
            assignments=self._reprice(step.assignments),
            num_edges=step.num_edges,
            graph=step.graph,
        )

    def _reprice(self, assignments: list[Assignment]) -> list[Assignment]:
        """Re-select MODCODs under the per-station beam-split penalty."""
        by_station: dict[int, list[Assignment]] = {}
        for a in assignments:
            by_station.setdefault(a.station_index, []).append(a)
        repriced: list[Assignment] = []
        for station_index, group in by_station.items():
            active = len(group)
            penalty_db = 10.0 * math.log10(active)
            for a in group:
                if active == 1:
                    repriced.append(a)
                    continue
                sat = self.satellites[a.satellite_index]
                budget = self._link_budget_for(sat, station_index)
                # The matching-time Es/N0 backed out of the committed
                # MODCOD and margin; recompute the full budget cheaply by
                # shifting the stored requirement instead.
                esn0 = self._esn0_for(a, budget) - penalty_db
                modcod = best_modcod(esn0, budget.acm_margin_db)
                if modcod is None:
                    continue  # this beam cannot close; drop the link
                channels = min(sat.radio.channels,
                               self.network[station_index].receiver.channels)
                repriced.append(Assignment(
                    satellite_index=a.satellite_index,
                    station_index=a.station_index,
                    weight=a.weight,
                    bitrate_bps=modcod.bitrate_bps(sat.radio.symbol_rate_baud)
                    * channels,
                    elevation_deg=a.elevation_deg,
                    range_km=a.range_km,
                    required_esn0_db=modcod.esn0_db,
                ))
        return repriced

    def _esn0_for(self, assignment: Assignment, budget) -> float:
        """Clear-sky Es/N0 at the assignment's geometry (weather-free).

        Weather already shaped the matching; the beam penalty applies on
        top of the committed operating point, so recomputing from the
        clear-sky budget with the original margin is a close, cheap
        approximation.
        """
        sat = self.satellites[assignment.satellite_index]
        station = self.network[assignment.station_index]
        result = budget.evaluate(
            range_km=assignment.range_km,
            elevation_deg=assignment.elevation_deg,
            station_latitude_deg=station.latitude_deg,
        )
        return result.esn0_db
