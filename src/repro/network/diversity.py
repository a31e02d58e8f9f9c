"""Backend diversity combiner: merge independently-errored pass copies.

The hybrid-GS argument (paper Sec. 3.3) is that several cheap stations
listening to the *same* pass can substitute for one good station, because
their decode errors are independent: the backend only needs *one* clean
copy of each chunk.  This module is the Internet-side half of that story.
Stations attempt to decode the common downlink stream; each attempt is a
:class:`CopyOutcome` with a per-station decode probability (from
:func:`repro.linkbudget.decode.decode_probability`) resolved by a seeded,
hash-keyed draw; the :class:`DiversityCombiner` ORs the copies into one
:class:`CombinedReception` and keeps the ``diversity_*`` counters that
surface in :class:`repro.simulation.metrics.SimulationReport`.

Receipt dedup is NOT re-implemented here: the engine submits one receipt
per (chunk, successful station) through the normal
:class:`repro.network.backend.BackendCollator` path, whose existing
duplicate-receipt handling collapses the extra copies.  The combiner is
pure accounting plus the deterministic per-copy randomness.

Determinism contract: a draw depends only on
``(seed, satellite_id, station_id, timestamp)`` -- never on evaluation
order, process, or whether the link budget ran scalar or batched -- so
diversity runs are bit-reproducible, on production and on the test
oracle alike.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from datetime import datetime


def diversity_draw(seed: int, satellite_id: str, station_id: str,
                   when: datetime) -> float:
    """Deterministic uniform in [0, 1) for one station's decode attempt."""
    key = f"{seed}:{satellite_id}:{station_id}:{when.isoformat()}"
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


@dataclass(frozen=True)
class CopyOutcome:
    """One station's attempt at decoding the shared downlink stream."""

    station_index: int
    station_id: str
    is_primary: bool
    decode_probability: float
    decoded: bool


@dataclass(frozen=True)
class CombinedReception:
    """The merged result of all copies of one pass step."""

    satellite_id: str
    when: datetime
    copies: tuple[CopyOutcome, ...]

    @property
    def decoded(self) -> bool:
        """The backend has the data iff *any* copy decoded."""
        return any(copy.decoded for copy in self.copies)

    @property
    def rescued(self) -> bool:
        """A secondary saved a pass the primary alone would have lost."""
        primary_ok = any(c.decoded for c in self.copies if c.is_primary)
        return not primary_ok and self.decoded


@dataclass
class DiversityCombiner:
    """Seeded decode draws + ``diversity_*`` accounting for the report.

    One combiner instance lives for a simulation run; the engine calls
    :meth:`combine` once per executed pass step with the per-copy decode
    probabilities it priced from each station's *true* weather.
    """

    seed: int = 19
    passes: int = 0
    copies_attempted: int = 0
    copies_decoded: int = 0
    combined_decoded: int = 0
    combined_failed: int = 0
    #: Pass steps where the primary failed but a secondary decoded --
    #: the quantity diversity reception exists to maximize.
    rescued_by_diversity: int = 0
    #: station_id -> {"copies": n, "decoded": n, "primary": n}
    _stations: dict[str, dict[str, int]] = field(default_factory=dict)

    def combine(self, satellite_id: str, when: datetime,
                attempts: list[tuple[int, str, bool, float]]) -> CombinedReception:
        """Resolve one pass step's copies.

        ``attempts`` is ``[(station_index, station_id, is_primary,
        decode_probability), ...]``; the primary must be listed (usually
        first).  Draws are keyed per station so adding or removing a
        secondary never perturbs any other station's outcome.
        """
        copies = []
        for station_index, station_id, is_primary, probability in attempts:
            draw = diversity_draw(self.seed, satellite_id, station_id, when)
            decoded = draw < probability
            copies.append(CopyOutcome(
                station_index=station_index,
                station_id=station_id,
                is_primary=is_primary,
                decode_probability=probability,
                decoded=decoded,
            ))
            stats = self._stations.setdefault(
                station_id, {"copies": 0, "decoded": 0, "primary": 0}
            )
            stats["copies"] += 1
            if decoded:
                stats["decoded"] += 1
            if is_primary:
                stats["primary"] += 1

        reception = CombinedReception(
            satellite_id=satellite_id, when=when, copies=tuple(copies)
        )
        self.passes += 1
        self.copies_attempted += len(copies)
        self.copies_decoded += sum(1 for c in copies if c.decoded)
        if reception.decoded:
            self.combined_decoded += 1
            if reception.rescued:
                self.rescued_by_diversity += 1
        else:
            self.combined_failed += 1
        return reception

    def as_dict(self) -> dict:
        """The ``diversity`` block of the report (plain JSON types)."""
        return {
            "passes": self.passes,
            "copies_attempted": self.copies_attempted,
            "copies_decoded": self.copies_decoded,
            "combined_decoded": self.combined_decoded,
            "combined_failed": self.combined_failed,
            "rescued_by_diversity": self.rescued_by_diversity,
            "stations": {
                station_id: dict(stats)
                for station_id, stats in sorted(self._stations.items())
            },
        }
