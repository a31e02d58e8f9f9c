"""Tenant definitions for the multi-tenant demand layer.

Sec. 3.1 sketches SLA weighting and "bidding for priority access" over a
shared ground segment; a :class:`Tenant` is one paying customer of that
segment -- a priority tier, a per-day downlink quota, an SLA deadline on
capture-to-ground latency, and optional regions of interest.  Tenants are
frozen and hashable so a tuple of them can sit inside a frozen
:class:`~repro.core.scenarios.ScenarioSpec` and survive serialization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

#: Mirrors :data:`repro.simulation.metrics.GB_TO_BITS` without importing
#: the metrics module from this low-level package.
GB_TO_BITS = 8e9


def check_quota_gb_per_day(quota_gb_per_day: float) -> None:
    """Raise ``ValueError`` unless a quota is finite and >= 0 (0 = unlimited).

    A NaN quota compares False against every delivered volume, so its
    tenant would stay over quota for good, and it would reach the report
    JSON as a bare ``NaN`` token; an infinite one would too.
    """
    if not (math.isfinite(quota_gb_per_day) and quota_gb_per_day >= 0.0):
        raise ValueError(
            "quota_gb_per_day must be finite and >= 0 (0 = unlimited), "
            f"got {quota_gb_per_day!r}"
        )


#: Longest SLA deadline accepted: 100 Julian years.  A chunk's deadline
#: is a ``datetime``, which ends at year 9999; ``timedelta(seconds=1e15)``
#: already raises, and ``datetime(2020, 1, 1)`` plus 3e11 s is out of
#: range, so the bound sits well inside what any capture time can carry.
MAX_SLA_DEADLINE_S = 100 * 365.25 * 86400.0


def check_sla_deadline_s(sla_deadline_s: float) -> None:
    """Raise ``ValueError`` unless 0 < ``sla_deadline_s`` <= 100 years.

    A chunk's deadline is its capture time plus this many seconds, so a
    NaN or infinite one -- or a finite one past
    :data:`MAX_SLA_DEADLINE_S`, beyond what a ``datetime`` holds -- would
    raise at the satellite's next capture instead of where it was set.
    """
    if not (math.isfinite(sla_deadline_s)
            and 0.0 < sla_deadline_s <= MAX_SLA_DEADLINE_S):
        raise ValueError(
            "sla_deadline_s must be finite, > 0 and <= "
            f"{MAX_SLA_DEADLINE_S:.0f} s (100 years), got {sla_deadline_s!r}"
        )


def _check_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


@dataclass(frozen=True)
class Tenant:
    """One customer of the shared ground-station network.

    Parameters
    ----------
    tenant_id:
        Stable identifier; chunks are stamped with it at capture.
    tier:
        Priority tier (1 = bulk, higher = more urgent).  Stamped onto
        chunks as their ``priority`` so priority-aware queue orders and
        value functions see it.
    weight:
        Multiplier the :class:`DeadlineSlaValue` pricing applies to this
        tenant's data (what the tier is *worth*).
    quota_gb_per_day:
        Per-day delivered-volume quota; pricing discounts a tenant that
        has already exceeded its quota for the current day so others
        catch up.  ``0`` = unlimited.
    sla_deadline_s:
        Capture-to-delivery SLA; each chunk's deadline is its capture
        time plus this.  Deliveries after the deadline (or never) count
        as SLA violations.
    regions:
        Optional geographic regions of interest; requests draw a region
        tag from these for geography-aware value functions.
    demand_share:
        Relative share of the capture stream mapped to this tenant by
        the seeded request generator.
    """

    tenant_id: str
    tier: int = 1
    weight: float = 1.0
    quota_gb_per_day: float = 0.0
    sla_deadline_s: float = 21600.0
    regions: tuple[str, ...] = ()
    demand_share: float = 1.0

    def __post_init__(self) -> None:
        if not self.tenant_id:
            raise ValueError("tenant_id cannot be empty")
        if self.tier < 1:
            raise ValueError(f"tier must be >= 1, got {self.tier}")
        _check_positive("weight", self.weight)
        check_quota_gb_per_day(self.quota_gb_per_day)
        check_sla_deadline_s(self.sla_deadline_s)
        _check_positive("demand_share", self.demand_share)
        # from_dict round-trips hand lists in; the spec needs hashability.
        object.__setattr__(self, "regions", tuple(self.regions))

    @property
    def quota_bits_per_day(self) -> float:
        """The quota in bits, or +inf when unlimited."""
        if self.quota_gb_per_day == 0.0:
            return float("inf")
        return self.quota_gb_per_day * GB_TO_BITS

    def to_dict(self) -> dict:
        """JSON-compatible dict; stable round-trip via :meth:`from_dict`."""
        return {
            "tenant_id": self.tenant_id,
            "tier": self.tier,
            "weight": self.weight,
            "quota_gb_per_day": self.quota_gb_per_day,
            "sla_deadline_s": self.sla_deadline_s,
            "regions": list(self.regions),
            "demand_share": self.demand_share,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "Tenant":
        unknown = set(raw) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown Tenant fields: {sorted(unknown)}")
        return cls(**raw)


#: Named tenant mixes for sweeps and the CLI.  Shares are relative; the
#: request generator normalizes them.
TENANT_MIXES: dict[str, tuple[Tenant, ...]] = {
    # A premium EO customer with a tight SLA, a standard tier under a
    # daily quota, and a bulk archive tier that tolerates a day of delay.
    "balanced": (
        Tenant("premium", tier=3, weight=4.0, sla_deadline_s=3600.0,
               regions=("americas", "europe"), demand_share=0.2),
        Tenant("standard", tier=2, weight=2.0, quota_gb_per_day=40.0,
               sla_deadline_s=21600.0, demand_share=0.5),
        Tenant("bulk", tier=1, weight=1.0, sla_deadline_s=86400.0,
               demand_share=0.3),
    ),
    # Premium demand dominates the capture stream: the pricing has to
    # ration station time between many urgent chunks.
    "premium-heavy": (
        Tenant("premium", tier=3, weight=4.0, sla_deadline_s=3600.0,
               demand_share=0.6),
        Tenant("standard", tier=2, weight=2.0, quota_gb_per_day=40.0,
               sla_deadline_s=21600.0, demand_share=0.3),
        Tenant("bulk", tier=1, weight=1.0, sla_deadline_s=86400.0,
               demand_share=0.1),
    ),
    # Small per-day quotas on every tier: the over-quota discount is the
    # dominant pricing term and fairness pressure is maximal.
    "quota-tight": (
        Tenant("alpha", tier=2, weight=2.0, quota_gb_per_day=10.0,
               sla_deadline_s=14400.0, demand_share=0.34),
        Tenant("beta", tier=2, weight=2.0, quota_gb_per_day=10.0,
               sla_deadline_s=14400.0, demand_share=0.33),
        Tenant("gamma", tier=1, weight=1.0, quota_gb_per_day=10.0,
               sla_deadline_s=43200.0, demand_share=0.33),
    ),
}


def tenant_mix(name: str) -> tuple[Tenant, ...]:
    """A named preset mix, or a ValueError naming the valid choices."""
    try:
        return TENANT_MIXES[name]
    except KeyError:
        raise ValueError(
            f"unknown tenant mix {name!r} (choose from "
            f"{', '.join(sorted(TENANT_MIXES))})"
        ) from None
