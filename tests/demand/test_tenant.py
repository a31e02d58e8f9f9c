"""Tests for tenant definitions and the preset mixes."""

import pytest

from repro.demand import TENANT_MIXES, Tenant, tenant_mix
from repro.demand.tenant import MAX_SLA_DEADLINE_S


class TestTenantValidation:
    def test_defaults_are_valid(self):
        tenant = Tenant("acme")
        assert tenant.tier == 1
        assert tenant.weight == 1.0
        assert tenant.quota_gb_per_day == 0.0
        assert tenant.regions == ()

    def test_empty_id_rejected(self):
        with pytest.raises(ValueError, match="tenant_id"):
            Tenant("")

    def test_invalid_tier(self):
        with pytest.raises(ValueError, match="tier"):
            Tenant("acme", tier=0)

    def test_invalid_weight(self):
        with pytest.raises(ValueError, match="weight"):
            Tenant("acme", weight=0.0)

    def test_negative_quota(self):
        with pytest.raises(ValueError, match="quota"):
            Tenant("acme", quota_gb_per_day=-1.0)

    @pytest.mark.parametrize("quota", [float("nan"), float("inf")])
    def test_non_finite_quota(self, quota):
        with pytest.raises(ValueError, match="quota_gb_per_day"):
            Tenant("acme", quota_gb_per_day=quota)

    def test_invalid_sla(self):
        with pytest.raises(ValueError, match="sla"):
            Tenant("acme", sla_deadline_s=0.0)

    def test_invalid_share(self):
        with pytest.raises(ValueError, match="demand_share"):
            Tenant("acme", demand_share=0.0)

    @pytest.mark.parametrize("term", ["weight", "sla_deadline_s",
                                      "demand_share"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_terms_rejected(self, term, value):
        """``nan <= 0`` is False, so sign checks alone let NaN through."""
        with pytest.raises(ValueError, match=term):
            Tenant("acme", **{term: value})

    @pytest.mark.parametrize("deadline", [1e15, 1e13, 3e11])
    def test_deadline_past_datetime_range_rejected(self, deadline):
        """Capture time plus such a deadline overflows ``datetime``."""
        with pytest.raises(ValueError, match="sla_deadline_s"):
            Tenant("acme", sla_deadline_s=deadline)

    def test_deadline_at_bound_accepted(self):
        tenant = Tenant("acme", sla_deadline_s=MAX_SLA_DEADLINE_S)
        assert tenant.sla_deadline_s == MAX_SLA_DEADLINE_S

    def test_regions_normalized_to_tuple(self):
        tenant = Tenant("acme", regions=["americas", "europe"])
        assert tenant.regions == ("americas", "europe")
        # Normalization keeps the dataclass hashable for frozen specs.
        assert hash(tenant) == hash(Tenant("acme", regions=("americas", "europe")))


class TestQuota:
    def test_zero_means_unlimited(self):
        assert Tenant("acme").quota_bits_per_day == float("inf")

    def test_quota_converts_to_bits(self):
        assert Tenant("acme", quota_gb_per_day=10.0).quota_bits_per_day == 8e10


class TestSerialization:
    def test_round_trip(self):
        tenant = Tenant("acme", tier=3, weight=4.0, quota_gb_per_day=25.0,
                        sla_deadline_s=3600.0, regions=("asia",),
                        demand_share=0.4)
        assert Tenant.from_dict(tenant.to_dict()) == tenant

    def test_regions_serialize_as_list(self):
        raw = Tenant("acme", regions=("asia",)).to_dict()
        assert raw["regions"] == ["asia"]

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            Tenant.from_dict({"tenant_id": "acme", "colour": "blue"})


class TestMixes:
    @pytest.mark.parametrize("name", sorted(TENANT_MIXES))
    def test_presets_are_well_formed(self, name):
        tenants = tenant_mix(name)
        assert len(tenants) >= 2
        ids = [t.tenant_id for t in tenants]
        assert len(set(ids)) == len(ids)
        assert all(t.demand_share > 0 for t in tenants)

    def test_unknown_mix(self):
        with pytest.raises(ValueError, match="balanced"):
            tenant_mix("nonsense")
