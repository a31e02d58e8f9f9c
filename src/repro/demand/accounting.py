"""Per-tenant delivery accounting: quotas, deadlines, fairness.

The accountant is shared between the engine (which reports generations
and deliveries as they happen) and the :class:`DeadlineSlaValue` pricing
(which reads the current day's quota state to discount over-quota
tenants).  At the end of a run it folds undelivered-but-overdue chunks
into the SLA-violation counts and summarizes everything into the
per-tenant block of the :class:`~repro.simulation.metrics.SimulationReport`.
"""

from __future__ import annotations

from dataclasses import replace
from datetime import datetime
from typing import TYPE_CHECKING, Iterable

from repro.demand.tenant import GB_TO_BITS, Tenant, check_quota_gb_per_day

if TYPE_CHECKING:
    from repro.satellites.data import DataChunk
    from repro.satellites.satellite import Satellite


class TenantAccountant:
    """Accumulates per-tenant demand metrics during one run."""

    def __init__(self, tenants: tuple[Tenant, ...], start: datetime):
        self._tenants = {t.tenant_id: t for t in tenants}
        if len(self._tenants) != len(tenants):
            raise ValueError("tenant ids must be unique")
        self._start = start
        self.generated_bits = {t.tenant_id: 0.0 for t in tenants}
        self.delivered_bits = {t.tenant_id: 0.0 for t in tenants}
        self.delivered_chunks = {t.tenant_id: 0 for t in tenants}
        self.deadline_hits = {t.tenant_id: 0 for t in tenants}
        self.late_deliveries = {t.tenant_id: 0 for t in tenants}
        self.missed_undelivered = {t.tenant_id: 0 for t in tenants}
        #: (tenant_id, day index) -> bits delivered in that UTC day of
        #: the run; the per-day quota ledger the pricing reads.
        self._delivered_by_day: dict[tuple[str, int], float] = {}

    def _day_index(self, when: datetime) -> int:
        return int((when - self._start).total_seconds() // 86400.0)

    # -- engine-side recording ---------------------------------------------

    def record_generation(self, chunk: "DataChunk") -> None:
        if chunk.tenant_id in self.generated_bits:
            self.generated_bits[chunk.tenant_id] += chunk.size_bits

    def record_delivery(self, chunk: "DataChunk", now: datetime) -> None:
        """Account a first decoded delivery (the engine dedups redeliveries)."""
        tenant_id = chunk.tenant_id
        if tenant_id not in self.delivered_bits:
            return
        self.delivered_bits[tenant_id] += chunk.size_bits
        self.delivered_chunks[tenant_id] += 1
        day = (tenant_id, self._day_index(now))
        self._delivered_by_day[day] = (
            self._delivered_by_day.get(day, 0.0) + chunk.size_bits
        )
        if chunk.deadline is None or now <= chunk.deadline:
            self.deadline_hits[tenant_id] += 1
        else:
            self.late_deliveries[tenant_id] += 1

    def record_run_end(self, satellites: Iterable["Satellite"],
                       end: datetime) -> None:
        """Fold undelivered-but-overdue chunks into the violation counts.

        Mirrors ``true_backlog_bits``: the onboard queue plus chunks the
        satellite believes delivered but the ground never decoded.
        """
        for sat in satellites:
            undelivered = list(sat.storage.onboard_chunks)
            undelivered += [
                c for c in sat.storage.delivered_unacked_chunks
                if not c.ground_received
            ]
            for chunk in undelivered:
                if (
                    chunk.tenant_id in self.missed_undelivered
                    and chunk.deadline is not None
                    and chunk.deadline < end
                ):
                    self.missed_undelivered[chunk.tenant_id] += 1

    # -- mid-run control inputs ---------------------------------------------

    def set_quota(self, tenant_id: str, quota_gb_per_day: float) -> None:
        """Apply a mid-run quota change for one tenant.

        Takes effect immediately for :meth:`under_quota` reads (so
        quota-aware pricing sees it at the next scheduling pass) and for
        the end-of-run summary; already-delivered bits in the day ledger
        are kept.
        """
        tenant = self._tenants.get(tenant_id)
        if tenant is None:
            raise KeyError(f"unknown tenant {tenant_id!r}")
        check_quota_gb_per_day(quota_gb_per_day)
        self._tenants[tenant_id] = replace(
            tenant, quota_gb_per_day=float(quota_gb_per_day)
        )

    # -- pricing-side reads -------------------------------------------------

    def under_quota(self, tenant_id: str, now: datetime) -> bool:
        """Whether the tenant still has quota left for ``now``'s day."""
        tenant = self._tenants.get(tenant_id)
        if tenant is None or tenant.quota_gb_per_day == 0.0:
            return True
        delivered = self._delivered_by_day.get(
            (tenant_id, self._day_index(now)), 0.0
        )
        return delivered < tenant.quota_bits_per_day

    # -- summary -------------------------------------------------------------

    def summary(self) -> dict[str, dict]:
        """Per-tenant report block, keyed by tenant id."""
        out: dict[str, dict] = {}
        for tenant_id, tenant in self._tenants.items():
            hits = self.deadline_hits[tenant_id]
            late = self.late_deliveries[tenant_id]
            missed = self.missed_undelivered[tenant_id]
            tracked = hits + late + missed
            out[tenant_id] = {
                "tier": tenant.tier,
                "quota_gb_per_day": tenant.quota_gb_per_day,
                "generated_bits": self.generated_bits[tenant_id],
                "delivered_bits": self.delivered_bits[tenant_id],
                "delivered_gb": self.delivered_bits[tenant_id] / GB_TO_BITS,
                "delivered_chunks": self.delivered_chunks[tenant_id],
                "deadline_hits": hits,
                "late_deliveries": late,
                "missed_undelivered": missed,
                "sla_violations": late + missed,
                "deadline_hit_rate": (
                    hits / tracked if tracked else 1.0
                ),
            }
        return out

    def fairness_index(self) -> float:
        """Jain's index over demand-share-normalized delivered bits.

        Dividing each tenant's delivered volume by its demand share asks
        "did everyone get ground time proportional to what they asked
        for?", so a bulk tenant with a small share is not counted as
        starved merely for being small.
        """
        from repro.analysis.fairness import jain_index

        return jain_index(
            self.delivered_bits[t.tenant_id] / t.demand_share
            for t in self._tenants.values()
        )
