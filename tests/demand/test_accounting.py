"""Tests for per-tenant quota, deadline, and fairness accounting."""

from datetime import datetime, timedelta
from types import SimpleNamespace

import pytest

from repro.demand import Tenant, TenantAccountant
from repro.satellites.data import ChunkState, DataChunk

EPOCH = datetime(2020, 6, 1)

TENANTS = (
    Tenant("premium", tier=3, weight=4.0, sla_deadline_s=3600.0,
           demand_share=0.5),
    Tenant("metered", tier=2, weight=2.0, quota_gb_per_day=10.0,
           sla_deadline_s=21600.0, demand_share=0.5),
)


def _chunk(tenant_id, size_bits=4e9, capture=EPOCH, deadline_s=3600.0,
           chunk_id=0):
    return DataChunk(
        satellite_id="sat-1",
        size_bits=size_bits,
        capture_time=capture,
        chunk_id=chunk_id,
        tenant_id=tenant_id,
        deadline=capture + timedelta(seconds=deadline_s),
    )


class TestDeliveryAccounting:
    def test_generation_and_delivery_totals(self):
        acct = TenantAccountant(TENANTS, start=EPOCH)
        chunk = _chunk("premium")
        acct.record_generation(chunk)
        acct.record_delivery(chunk, EPOCH + timedelta(minutes=30))
        block = acct.summary()["premium"]
        assert block["generated_bits"] == 4e9
        assert block["delivered_bits"] == 4e9
        assert block["delivered_gb"] == pytest.approx(0.5)
        assert block["delivered_chunks"] == 1

    def test_on_time_vs_late(self):
        acct = TenantAccountant(TENANTS, start=EPOCH)
        on_time = _chunk("premium", chunk_id=1)
        late = _chunk("premium", chunk_id=2)
        acct.record_delivery(on_time, EPOCH + timedelta(minutes=59))
        acct.record_delivery(late, EPOCH + timedelta(hours=2))
        block = acct.summary()["premium"]
        assert block["deadline_hits"] == 1
        assert block["late_deliveries"] == 1
        assert block["sla_violations"] == 1
        assert block["deadline_hit_rate"] == 0.5

    def test_unknown_tenant_ignored(self):
        acct = TenantAccountant(TENANTS, start=EPOCH)
        acct.record_generation(_chunk("stranger"))
        acct.record_delivery(_chunk("stranger"), EPOCH)
        assert acct.summary()["premium"]["delivered_bits"] == 0.0

    def test_no_tracked_chunks_is_perfect_hit_rate(self):
        acct = TenantAccountant(TENANTS, start=EPOCH)
        assert acct.summary()["premium"]["deadline_hit_rate"] == 1.0

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            TenantAccountant((Tenant("a"), Tenant("a")), start=EPOCH)


class TestQuota:
    def test_quota_exhaustion_and_daily_reset(self):
        acct = TenantAccountant(TENANTS, start=EPOCH)
        assert acct.under_quota("metered", EPOCH)
        # 10 GB/day quota = 8e10 bits; deliver 9 GB then 2 GB more.
        acct.record_delivery(_chunk("metered", size_bits=7.2e10, chunk_id=1),
                             EPOCH + timedelta(hours=1))
        assert acct.under_quota("metered", EPOCH + timedelta(hours=1))
        acct.record_delivery(_chunk("metered", size_bits=1.6e10, chunk_id=2),
                             EPOCH + timedelta(hours=2))
        assert not acct.under_quota("metered", EPOCH + timedelta(hours=2))
        # The ledger is per-day: the next UTC day starts fresh.
        assert acct.under_quota("metered", EPOCH + timedelta(days=1, hours=1))

    def test_unlimited_tenant_never_exhausts(self):
        acct = TenantAccountant(TENANTS, start=EPOCH)
        acct.record_delivery(_chunk("premium", size_bits=1e15), EPOCH)
        assert acct.under_quota("premium", EPOCH)

    def test_unknown_tenant_treated_as_unlimited(self):
        acct = TenantAccountant(TENANTS, start=EPOCH)
        assert acct.under_quota("stranger", EPOCH)

    @pytest.mark.parametrize("quota", [-1.0, float("nan"), float("inf")])
    def test_set_quota_rejects_invalid_and_keeps_old(self, quota):
        acct = TenantAccountant(TENANTS, start=EPOCH)
        with pytest.raises(ValueError, match="quota_gb_per_day"):
            acct.set_quota("metered", quota)
        assert acct.summary()["metered"]["quota_gb_per_day"] == 10.0
        assert acct.under_quota("metered", EPOCH)


class TestRunEnd:
    def _satellite(self, onboard=(), unacked=()):
        storage = SimpleNamespace(
            onboard_chunks=list(onboard),
            delivered_unacked_chunks=list(unacked),
        )
        return SimpleNamespace(storage=storage)

    def test_overdue_onboard_chunks_count_as_missed(self):
        acct = TenantAccountant(TENANTS, start=EPOCH)
        overdue = _chunk("premium", deadline_s=3600.0, chunk_id=1)
        still_ok = _chunk("premium", deadline_s=86400.0, chunk_id=2)
        sat = self._satellite(onboard=[overdue, still_ok])
        acct.record_run_end([sat], end=EPOCH + timedelta(hours=6))
        block = acct.summary()["premium"]
        assert block["missed_undelivered"] == 1
        assert block["sla_violations"] == 1

    def test_undecoded_unacked_chunks_count_as_missed(self):
        acct = TenantAccountant(TENANTS, start=EPOCH)
        lost = _chunk("premium", chunk_id=1)
        lost.state = ChunkState.DELIVERED
        lost.ground_received = False
        landed = _chunk("premium", chunk_id=2)
        landed.state = ChunkState.DELIVERED
        sat = self._satellite(unacked=[lost, landed])
        acct.record_run_end([sat], end=EPOCH + timedelta(hours=6))
        assert acct.summary()["premium"]["missed_undelivered"] == 1


class TestFairness:
    def test_share_weighted_equality_is_fair(self):
        tenants = (
            Tenant("big", demand_share=0.8),
            Tenant("small", demand_share=0.2),
        )
        acct = TenantAccountant(tenants, start=EPOCH)
        # Deliveries exactly proportional to shares -> Jain's index 1.
        acct.record_delivery(_chunk("big", size_bits=8e9, chunk_id=1), EPOCH)
        acct.record_delivery(_chunk("small", size_bits=2e9, chunk_id=2), EPOCH)
        assert acct.fairness_index() == pytest.approx(1.0)

    def test_starvation_lowers_index(self):
        tenants = (Tenant("a", demand_share=0.5), Tenant("b", demand_share=0.5))
        acct = TenantAccountant(tenants, start=EPOCH)
        acct.record_delivery(_chunk("a", size_bits=8e9), EPOCH)
        assert acct.fairness_index() == pytest.approx(0.5)

    def test_nothing_delivered_is_vacuously_fair(self):
        acct = TenantAccountant(TENANTS, start=EPOCH)
        assert acct.fairness_index() == 1.0
