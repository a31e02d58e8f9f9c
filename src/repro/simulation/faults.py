"""Fault injection: ground-station outages.

The paper's Sec. 1 motivates DGS with robustness -- "the centralized link
is a single point of failure" -- but never quantifies it.  This module
makes outages a first-class simulation input so the robustness experiment
(:mod:`repro.experiments.robustness`) can compare how the baseline and
DGS degrade when stations fail.

An :class:`OutageSchedule` is a set of (station_id, start, end) downtime
intervals; the engine drops any scheduled transmission whose station is
down (the scheduler may also be made outage-aware, modelling announced
maintenance vs. unannounced failure).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone

from repro.faults.schedule import require_finite_positive


def _sim_clock(when: datetime) -> datetime:
    """``when`` on the simulation clock, which is naive UTC.

    Offset-aware times convert to UTC and drop the offset; naive times
    are already UTC.
    """
    if when.utcoffset() is None:
        return when
    return when.astimezone(timezone.utc).replace(tzinfo=None)


@dataclass(frozen=True)
class Outage:
    """One downtime interval for one station, on the simulation clock.

    Every outage -- generated, scheduled, or announced through
    :meth:`Simulation.announce_outage`, a session ``OutageNotice`` or the
    daemon's ``POST /outages`` -- is built here, so offset-aware bounds
    are converted to naive UTC in this one place.
    """

    station_id: str
    start: datetime
    end: datetime

    def __post_init__(self) -> None:
        object.__setattr__(self, "start", _sim_clock(self.start))
        object.__setattr__(self, "end", _sim_clock(self.end))
        if self.end <= self.start:
            raise ValueError("outage must end after it starts")

    def covers(self, when: datetime) -> bool:
        return self.start <= when < self.end

    @property
    def duration_s(self) -> float:
        return (self.end - self.start).total_seconds()


@dataclass
class OutageSchedule:
    """A collection of outages with point-in-time queries."""

    outages: list[Outage] = field(default_factory=list)

    def add(self, outage: Outage) -> None:
        self.outages.append(outage)

    def is_down(self, station_id: str, when: datetime) -> bool:
        return any(
            o.station_id == station_id and o.covers(when) for o in self.outages
        )

    def down_stations(self, when: datetime) -> set[str]:
        return {o.station_id for o in self.outages if o.covers(when)}

    def total_downtime_s(self, station_id: str) -> float:
        return sum(
            o.duration_s for o in self.outages if o.station_id == station_id
        )

    @classmethod
    def total_failure(cls, station_ids, start: datetime,
                      duration_s: float) -> "OutageSchedule":
        """Every listed station hard-down for one interval."""
        end = start + timedelta(seconds=duration_s)
        return cls([Outage(sid, start, end) for sid in station_ids])

    @classmethod
    def random_failures(
        cls,
        station_ids,
        start: datetime,
        horizon_s: float,
        mean_time_between_failures_s: float,
        mean_repair_s: float,
        seed: int = 0,
    ) -> "OutageSchedule":
        """Poisson failures with exponential repair, independently per station.

        MTBF counts operating time; a station can fail repeatedly over the
        horizon.  Deterministic given the seed.
        """
        require_finite_positive(
            horizon_s=horizon_s,
            mean_time_between_failures_s=mean_time_between_failures_s,
            mean_repair_s=mean_repair_s,
        )
        rng = random.Random(seed)
        schedule = cls()
        for sid in station_ids:
            clock = 0.0
            while True:
                clock += rng.expovariate(1.0 / mean_time_between_failures_s)
                if clock >= horizon_s:
                    break
                repair = rng.expovariate(1.0 / mean_repair_s)
                begin = start + timedelta(seconds=clock)
                finish = start + timedelta(seconds=min(clock + repair, horizon_s))
                if finish > begin:
                    schedule.add(Outage(sid, begin, finish))
                clock += repair
        return schedule
