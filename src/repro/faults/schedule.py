"""The fault schedule: every injected fault for one run, plus queries.

A :class:`FaultSchedule` is immutable data -- the engine and scheduler
query it point-in-time and cannot mutate it, so one schedule can be
replayed across experiment variants.  It indexes its windows by entity
once, at construction, so a query costs O(that entity's windows) rather
than O(the whole schedule).  :meth:`FaultSchedule.generate` draws a full
schedule from a single seeded RNG; the same (entities, horizon,
intensity, seed) always produces the identical schedule, which is what
makes fault runs bit-reproducible.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from datetime import datetime, timedelta
from typing import Iterable, Sequence

from repro.faults.events import (
    BackhaulFault,
    StaleTleWindow,
    StationOutage,
    UndecodedPass,
)

#: How the generator splits the requested intensity across fault classes.
#: Outages dominate (station churn is the GSaaS norm); backhaul and
#: decode faults share the rest; stale TLEs are per-satellite on top.
_OUTAGE_SHARE = 0.4
_BACKHAUL_SHARE = 0.3
_UNDECODED_SHARE = 0.3
_STALE_TLE_SHARE = 0.3


def require_finite_positive(**values: float) -> None:
    """Raise ``ValueError`` naming the first value not finite and > 0.

    The window generators loop until a drawn clock passes the horizon, so
    an infinite or NaN horizon, or a non-positive mean duration, would
    never return.
    """
    for name, value in values.items():
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and > 0, got {value!r}")


def _by_entity(events: Iterable, key: str) -> dict[str, tuple]:
    """Group events by their entity id, keeping list order within each."""
    index: dict[str, list] = {}
    for event in events:
        index.setdefault(getattr(event, key), []).append(event)
    return {entity: tuple(group) for entity, group in index.items()}


@dataclass(frozen=True)
class FaultSchedule:
    """Every fault injected into one simulation run.

    List inputs are stored as tuples.  The per-entity index (station id;
    satellite id for stale TLEs; list order kept) is not a field, so
    ``==``, ``repr`` and ``hash`` see only the four collections.
    """

    outages: tuple[StationOutage, ...] = ()
    backhaul: tuple[BackhaulFault, ...] = ()
    undecoded: tuple[UndecodedPass, ...] = ()
    stale_tle: tuple[StaleTleWindow, ...] = ()

    def __post_init__(self) -> None:
        for name in ("outages", "backhaul", "undecoded", "stale_tle"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        object.__setattr__(self, "_outages_by_station",
                           _by_entity(self.outages, "station_id"))
        object.__setattr__(self, "_backhaul_by_station",
                           _by_entity(self.backhaul, "station_id"))
        object.__setattr__(self, "_undecoded_by_station",
                           _by_entity(self.undecoded, "station_id"))
        object.__setattr__(self, "_stale_tle_by_satellite",
                           _by_entity(self.stale_tle, "satellite_id"))

    # -- queries (all half-open [start, end)) --------------------------------

    @property
    def event_count(self) -> int:
        return (len(self.outages) + len(self.backhaul)
                + len(self.undecoded) + len(self.stale_tle))

    def station_availability(self, station_id: str, when: datetime) -> float:
        """Usable capacity fraction in [0, 1]; 1.0 = healthy, 0.0 = dark.

        Overlapping outages compound pessimistically: the worst one wins.
        """
        worst = 1.0
        for o in self._outages_by_station.get(station_id, ()):
            if o.covers(when):
                worst = min(worst, o.availability)
        return worst

    def backhaul_fault(self, station_id: str,
                       when: datetime) -> BackhaulFault | None:
        """The active backhaul fault: a partition wins, else the first
        active latency spike in list order."""
        active = None
        for b in self._backhaul_by_station.get(station_id, ()):
            if b.covers(when):
                if b.partitioned:
                    return b
                if active is None:
                    active = b
        return active

    def is_partitioned(self, station_id: str, when: datetime) -> bool:
        fault = self.backhaul_fault(station_id, when)
        return fault is not None and fault.partitioned

    def is_undecoded(self, station_id: str, when: datetime) -> bool:
        return any(
            u.covers(when)
            for u in self._undecoded_by_station.get(station_id, ())
        )

    def is_tle_stale(self, satellite_id: str, when: datetime) -> bool:
        return any(
            w.covers(when)
            for w in self._stale_tle_by_satellite.get(satellite_id, ())
        )

    def faulted_stations(self, when: datetime) -> set[str]:
        """Stations with any active fault (outage, backhaul, or decode)."""
        down = {o.station_id for o in self.outages if o.covers(when)}
        down |= {b.station_id for b in self.backhaul if b.covers(when)}
        down |= {u.station_id for u in self.undecoded if u.covers(when)}
        return down

    # -- generation ----------------------------------------------------------

    @classmethod
    def generate(
        cls,
        station_ids: Sequence[str],
        satellite_ids: Sequence[str],
        start: datetime,
        horizon_s: float,
        *,
        intensity: float = 0.25,
        seed: int = 0,
        mean_outage_s: float = 3600.0,
        mean_backhaul_s: float = 1800.0,
        mean_undecoded_s: float = 900.0,
        mean_stale_tle_s: float = 7200.0,
    ) -> "FaultSchedule":
        """Draw a full fault schedule from one seeded RNG.

        ``intensity`` in [0, 1] is, per fault class, roughly the expected
        fraction of entity-time spent faulted (scaled by the class share
        constants above); 0 yields an empty schedule.  Identical inputs
        produce the identical schedule -- the RNG is consumed in a fixed
        entity-by-entity, class-by-class order.
        """
        if not 0.0 <= intensity <= 1.0:
            raise ValueError("intensity must be in [0, 1]")
        require_finite_positive(
            horizon_s=horizon_s, mean_outage_s=mean_outage_s,
            mean_backhaul_s=mean_backhaul_s,
            mean_undecoded_s=mean_undecoded_s,
            mean_stale_tle_s=mean_stale_tle_s,
        )
        if intensity == 0.0:
            return cls()
        rng = random.Random(seed)
        outages: list[StationOutage] = []
        backhaul: list[BackhaulFault] = []
        undecoded: list[UndecodedPass] = []
        stale_tle: list[StaleTleWindow] = []

        def windows(share: float, mean_s: float):
            """Poisson arrivals with exponential durations, clamped to
            the horizon; expected covered fraction ~= intensity * share."""
            fraction = min(intensity * share, 0.95)
            if fraction <= 0.0:
                return
            mtbf = mean_s * (1.0 - fraction) / fraction
            clock = 0.0
            while True:
                clock += rng.expovariate(1.0 / mtbf)
                if clock >= horizon_s:
                    return
                duration = rng.expovariate(1.0 / mean_s)
                begin = start + timedelta(seconds=clock)
                finish = start + timedelta(
                    seconds=min(clock + duration, horizon_s)
                )
                if finish > begin:
                    yield begin, finish
                clock += duration

        for sid in station_ids:
            for begin, finish in windows(_OUTAGE_SHARE, mean_outage_s):
                if rng.random() < 0.6:
                    severity = 1.0  # hard down
                else:
                    severity = rng.uniform(0.3, 0.9)  # partial capacity
                outages.append(
                    StationOutage(sid, begin, finish, severity=severity)
                )
            for begin, finish in windows(_BACKHAUL_SHARE, mean_backhaul_s):
                if rng.random() < 0.5:
                    backhaul.append(
                        BackhaulFault(sid, begin, finish, partitioned=True)
                    )
                else:
                    spike_s = 60.0 + rng.expovariate(1.0 / 600.0)
                    backhaul.append(
                        BackhaulFault(sid, begin, finish,
                                      extra_latency_s=spike_s)
                    )
            for begin, finish in windows(_UNDECODED_SHARE, mean_undecoded_s):
                undecoded.append(UndecodedPass(sid, begin, finish))
        for sat_id in satellite_ids:
            for begin, finish in windows(_STALE_TLE_SHARE, mean_stale_tle_s):
                stale_tle.append(
                    StaleTleWindow(sat_id, begin, finish)
                )
        return cls(outages=outages, backhaul=backhaul, undecoded=undecoded,
                   stale_tle=stale_tle)

    @classmethod
    def station_blackout(cls, station_ids: Sequence[str], start: datetime,
                         duration_s: float) -> "FaultSchedule":
        """Every listed station hard-down for one interval (scenario helper)."""
        end = start + timedelta(seconds=duration_s)
        return cls(outages=[
            StationOutage(sid, start, end, severity=1.0)
            for sid in station_ids
        ])
