"""Weather provider protocol and trivial providers for tests and ablations.

The scheduler and simulator depend only on this protocol -- the synthetic
rain-cell field, the forecast wrapper, a clear-sky stub, and any future
real-data loader are interchangeable.
"""

from __future__ import annotations

from datetime import datetime
from typing import Protocol, runtime_checkable

from repro.weather.cells import WeatherSample


@runtime_checkable
class WeatherProvider(Protocol):
    """Anything that can report point weather: the Dark Sky role."""

    def sample(self, lat_deg: float, lon_deg: float,
               when: datetime) -> WeatherSample:
        """Weather at a location and UTC instant."""
        ...


class QuantizedWeatherCache:
    """Memoizes a provider on a (location, time-bucket) grid.

    Rain systems decorrelate over hours; quantizing lookups to
    ``period_s`` (default 5 minutes) loses nothing physically and makes
    minute-cadence simulation loops ~period/step times cheaper.

    Each (location, bucket) key is sampled once, at the first instant
    asked, and every later lookup in that bucket returns that sample.
    The bound keeps that contract: once the cache holds ``max_entries``
    samples, a miss first drops every bucket older than the one it is
    writing, so a bucket's keys leave together, the current bucket and
    any later ones stay, and a week-long simulation does not grow
    without bound.
    """

    def __init__(self, inner: WeatherProvider, period_s: float = 300.0,
                 max_entries: int = 200_000):
        if period_s <= 0:
            raise ValueError("period must be positive")
        self.inner = inner
        self.period_s = period_s
        #: Published bucket width.  Schedulers that memoize per-station
        #: samples (``scheduling.scheduler._StationWeatherMemo``) key their
        #: staleness stamps on ``int(when.timestamp() // quantize_s)`` so
        #: that they re-sample exactly when this cache would miss anyway;
        #: the memo then issues the *same first call per bucket* the
        #: unmemoized loop would have issued, keeping cache contents (which
        #: depend on the first ``when`` seen per bucket) bit-identical.
        self.quantize_s = period_s
        self.max_entries = max_entries
        #: (lat_q, lon_q, bucket) -> sample; ``key[2]`` is the bucket.
        self._cache: dict[tuple, WeatherSample] = {}
        #: Last (when, bucket) seen, compared by object identity: loops
        #: sample many stations at one shared instant, and
        #: ``datetime.timestamp()`` on naive datetimes costs a libc
        #: ``mktime`` round-trip per call.  Identity on an immutable
        #: datetime implies an equal timestamp, so this changes nothing.
        self._when_memo: tuple[datetime, int] | None = None
        #: Lifetime hit/miss totals, read by the observability layer.
        self.hits = 0
        self.misses = 0

    def sample(self, lat_deg: float, lon_deg: float,
               when: datetime) -> WeatherSample:
        memo = self._when_memo
        if memo is not None and memo[0] is when:
            bucket = memo[1]
        else:
            bucket = int(when.timestamp() // self.period_s)
            self._when_memo = (when, bucket)
        key = (round(lat_deg, 3), round(lon_deg, 3), bucket)
        hit = self._cache.get(key)
        if hit is not None:
            self.hits += 1
            return hit
        return self._miss(key, bucket, lat_deg, lon_deg, when)

    def sample_prequantized(self, lat_q: float, lon_q: float,
                            lat_deg: float, lon_deg: float,
                            when: datetime) -> WeatherSample:
        """:meth:`sample` with the caller holding pre-rounded coordinates.

        ``lat_q``/``lon_q`` must equal ``round(lat_deg, 3)`` /
        ``round(lon_deg, 3)``; fixed-location callers (the scheduler's
        per-station memo) round once instead of twice per sample.  Cache
        keys, counters, and miss sampling (which uses the *unrounded*
        coordinates, as :meth:`sample` does) are identical.
        """
        memo = self._when_memo
        if memo is not None and memo[0] is when:
            bucket = memo[1]
        else:
            bucket = int(when.timestamp() // self.period_s)
            self._when_memo = (when, bucket)
        key = (lat_q, lon_q, bucket)
        hit = self._cache.get(key)
        if hit is not None:
            self.hits += 1
            return hit
        return self._miss(key, bucket, lat_deg, lon_deg, when)

    def _miss(self, key: tuple, bucket: int, lat_deg: float,
              lon_deg: float, when: datetime) -> WeatherSample:
        """Sample the provider and store the result under ``key``."""
        self.misses += 1
        value = self.inner.sample(lat_deg, lon_deg, when)
        if len(self._cache) >= self.max_entries:
            # One pass drops every past bucket.  It runs once per
            # ``max_entries / locations`` buckets, so its cost amortizes.
            self._cache = {k: v for k, v in self._cache.items()
                           if k[2] >= bucket}
        self._cache[key] = value
        return value


class ClearSkyProvider:
    """No rain, no clouds, ever.  Isolates geometry from weather effects."""

    #: Every sample is identically zero, so batch consumers (the edge
    #: pricing kernel) may skip per-station sampling entirely.
    always_clear = True

    def sample(self, lat_deg: float, lon_deg: float,
               when: datetime) -> WeatherSample:
        return WeatherSample(rain_rate_mm_h=0.0, cloud_water_kg_m2=0.0)


class ConstantWeatherProvider:
    """The same sample everywhere, always.  Useful for budget unit tests."""

    def __init__(self, sample: WeatherSample):
        self._sample = sample

    def sample(self, lat_deg: float, lon_deg: float,
               when: datetime) -> WeatherSample:
        return self._sample
