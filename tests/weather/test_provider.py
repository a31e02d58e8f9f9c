"""Tests for weather provider implementations and the quantizing cache."""

from datetime import datetime, timedelta

import pytest

from repro.weather.cells import RainCellField, WeatherSample
from repro.weather.provider import (
    ClearSkyProvider,
    ConstantWeatherProvider,
    QuantizedWeatherCache,
    WeatherProvider,
)

EPOCH = datetime(2020, 6, 1)


class CountingProvider:
    """Test double that counts how often the inner provider is hit."""

    def __init__(self):
        self.calls = 0

    def sample(self, lat_deg, lon_deg, when):
        self.calls += 1
        return WeatherSample(1.0, 0.2)


class TestProtocol:
    def test_implementations_satisfy_protocol(self):
        for provider in (ClearSkyProvider(),
                         ConstantWeatherProvider(WeatherSample(0.0, 0.0)),
                         RainCellField(seed=1),
                         QuantizedWeatherCache(ClearSkyProvider())):
            assert isinstance(provider, WeatherProvider)


class TestClearSky:
    def test_always_dry(self):
        provider = ClearSkyProvider()
        s = provider.sample(10.0, 20.0, EPOCH)
        assert s.rain_rate_mm_h == 0.0
        assert s.cloud_water_kg_m2 == 0.0


class TestConstant:
    def test_returns_configured_sample(self):
        sample = WeatherSample(42.0, 1.5)
        provider = ConstantWeatherProvider(sample)
        assert provider.sample(0.0, 0.0, EPOCH) is sample


class TestQuantizedCache:
    def test_same_bucket_hits_cache(self):
        inner = CountingProvider()
        cache = QuantizedWeatherCache(inner, period_s=300.0)
        cache.sample(47.0, 8.0, EPOCH)
        cache.sample(47.0, 8.0, EPOCH + timedelta(seconds=60))
        cache.sample(47.0, 8.0, EPOCH + timedelta(seconds=299))
        assert inner.calls == 1

    def test_new_bucket_misses(self):
        inner = CountingProvider()
        cache = QuantizedWeatherCache(inner, period_s=300.0)
        cache.sample(47.0, 8.0, EPOCH)
        cache.sample(47.0, 8.0, EPOCH + timedelta(seconds=600))
        assert inner.calls == 2

    def test_different_locations_cached_separately(self):
        inner = CountingProvider()
        cache = QuantizedWeatherCache(inner, period_s=300.0)
        cache.sample(47.0, 8.0, EPOCH)
        cache.sample(48.0, 8.0, EPOCH)
        assert inner.calls == 2

    def test_values_match_inner(self):
        truth = RainCellField(seed=5)
        cache = QuantizedWeatherCache(truth, period_s=1.0)
        when = EPOCH + timedelta(hours=3)
        assert cache.sample(47.0, 8.0, when) == truth.sample(47.0, 8.0, when)

    def test_eviction_keeps_working(self):
        inner = CountingProvider()
        cache = QuantizedWeatherCache(inner, period_s=300.0, max_entries=4)
        for k in range(20):
            cache.sample(10.0 + k, 0.0, EPOCH)
        assert inner.calls == 20
        assert cache.sample(10.0, 0.0, EPOCH).rain_rate_mm_h == 1.0

    def test_invalid_period(self):
        with pytest.raises(ValueError):
            QuantizedWeatherCache(ClearSkyProvider(), period_s=0.0)


class TestPrequantizedSample:
    """``sample_prequantized`` shares keys, counters, and values with
    ``sample`` -- the scheduler's per-station memo rounds once up front."""

    def test_interleaves_with_sample_on_one_cache(self):
        inner = CountingProvider()
        cache = QuantizedWeatherCache(inner, period_s=300.0)
        lat, lon = 47.1234567, 8.7654321
        first = cache.sample(lat, lon, EPOCH)
        again = cache.sample_prequantized(
            round(lat, 3), round(lon, 3), lat, lon,
            EPOCH + timedelta(seconds=120),
        )
        assert again is first
        assert inner.calls == 1
        assert cache.hits == 1 and cache.misses == 1

    def test_miss_samples_with_unrounded_coordinates(self):
        class EchoProvider:
            def sample(self, lat_deg, lon_deg, when):
                return WeatherSample(lat_deg, lon_deg)

        cache = QuantizedWeatherCache(EchoProvider(), period_s=300.0)
        lat, lon = 47.1239, -12.0004
        value = cache.sample_prequantized(
            round(lat, 3), round(lon, 3), lat, lon, EPOCH
        )
        assert value.rain_rate_mm_h == lat  # unrounded, as sample() does
        assert value.cloud_water_kg_m2 == lon
        # The rounded key serves a later plain sample() at the same spot.
        assert cache.sample(lat, lon, EPOCH) is value

    def test_values_match_inner_field(self):
        truth = RainCellField(seed=5)
        cache = QuantizedWeatherCache(truth, period_s=1.0)
        when = EPOCH + timedelta(hours=3)
        got = cache.sample_prequantized(
            round(47.05678, 3), round(8.01234, 3), 47.05678, 8.01234, when
        )
        assert got == truth.sample(47.05678, 8.01234, when)


class TestBoundedCache:
    """A full cache drops every past bucket and never the bucket it is
    writing: one sample per (location, bucket) holds."""

    def test_full_cache_keeps_the_bucket_being_written(self):
        class Counting:
            def __init__(self, inner):
                self.inner = inner
                self.calls = 0

            def sample(self, lat_deg, lon_deg, when):
                self.calls += 1
                return self.inner.sample(lat_deg, lon_deg, when)

        provider = Counting(RainCellField(seed=3))
        cache = QuantizedWeatherCache(provider, period_s=300.0,
                                      max_entries=3)
        noon = datetime(2020, 6, 1, 12, 0)
        first = cache.sample(10.0, 20.0, noon)
        # Three more keys in the same bucket: the fourth overflows.
        for lon in (21.0, 22.0, 23.0):
            cache.sample(10.0, lon, noon)
        assert provider.calls == 4
        # Two minutes on, still the 12:00-12:05 bucket: the sample taken
        # at 12:00, not a fresh one at 12:02 (whose cloud differs).
        later = noon + timedelta(minutes=2)
        assert provider.inner.sample(10.0, 20.0, later) != first
        assert cache.sample(10.0, 20.0, later) is first
        assert provider.calls == 4

        # Time moves on: each new bucket evicts the old ones whole, so
        # the size stays bounded and the current bucket stays complete.
        for step in range(1, 7):
            when = noon + timedelta(minutes=5 * step)
            samples = [cache.sample(10.0, lon, when)
                       for lon in (20.0, 21.0)]
            assert len(cache._cache) <= cache.max_entries
            again = [cache.sample(10.0, lon, when + timedelta(seconds=90))
                     for lon in (20.0, 21.0)]
            assert all(a is b for a, b in zip(again, samples))
        assert provider.calls == 4 + 2 * 6
        assert cache.misses == provider.calls
