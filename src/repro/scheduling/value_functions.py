"""Value functions Phi(x, t) weighting satellite-station edges.

Sec. 3.1: "for any subset x of X_i and time t elapsed since the capture of
the data, Phi(x, t) denotes the value of transmitting that data to Earth".
The paper gives two canonical instances -- Phi = t to minimize latency and
Phi = |x| to maximize throughput -- and sketches SLA/geography weighting
and bidding.  All four are here, plus composition.

A value function sees the satellite's queue head (what would actually be
sent), the predicted link bitrate, and the step duration, and returns the
edge weight for the matching stage.  Higher = more valuable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime
from typing import Protocol, runtime_checkable

import numpy as np

from repro.satellites.satellite import Satellite

#: Reference instant for integer-microsecond timestamps.  Chunk ages are
#: ``(now_us - capture_us) / 1e6``: the microsecond difference is an exact
#: int64, and dividing it by 1e6 performs the single correctly-rounded
#: float division that ``timedelta.total_seconds()`` performs -- which is
#: what makes the vectorized ages bit-identical to the scalar path.
_US_REF = datetime(2000, 1, 1)


def _microseconds_since_ref(when: datetime) -> int:
    delta = when - _US_REF
    return (delta.days * 86400 + delta.seconds) * 1_000_000 + delta.microseconds


#: Deadline sentinel for untenanted chunks: far enough in the future that
#: the urgency-pressure clip lands on an exact 0.0, matching the scalar
#: path's ``deadline is None`` branch bit for bit.
_NO_DEADLINE_US = 2**62


class FleetQueueProfile:
    """Padded per-satellite send-queue arrays for vectorized edge pricing.

    ``prefix_age_value`` reads three per-chunk fields (remaining bits,
    size, capture time) plus the queue backlog and head size; this cache
    holds them as ``(num_satellites, max_chunks)`` arrays so a value
    function can price every edge of an instant in a handful of numpy
    passes instead of a Python call per pair.  Rows refresh lazily against
    :attr:`OnboardStorage.version`, so between scheduling steps only the
    satellites that actually transmitted, captured, or requeued data are
    re-read.
    """

    def __init__(self, satellites: list[Satellite]):
        self._satellites = satellites
        self._storages = [sat.storage for sat in satellites]
        n = len(satellites)
        self._versions = np.full(n, -1, dtype=np.int64)
        self._cols = 4
        # Demand columns (tenant slot + deadline); allocated lazily by
        # ensure_demand so tenant-free runs pay nothing.
        self._demand_order: tuple[str, ...] | None = None
        self._tenant_lookup: dict[str, int] = {}
        self._tenant_slot: np.ndarray | None = None
        self._deadline_us: np.ndarray | None = None
        self._alloc(n, self._cols)

    def _alloc(self, n: int, cols: int) -> None:
        remaining = np.zeros((n, cols))
        sizes = np.ones((n, cols))
        capture_us = np.zeros((n, cols), dtype=np.int64)
        old = getattr(self, "_remaining", None)
        if old is None:
            self._counts = np.zeros(n, dtype=np.intp)
            self._backlog = np.zeros(n)
            self._head_size = np.zeros(n)
        else:
            # Growing the chunk axis: copy the existing rows.  The new
            # columns hold the padding values (remaining 0, size 1,
            # capture 0), which contribute an exact +0.0 to any prefix
            # evaluation -- so grown rows stay valid and versions are
            # untouched.
            prev = old.shape[1]
            remaining[:, :prev] = old
            sizes[:, :prev] = self._sizes
            capture_us[:, :prev] = self._capture_us
        self._remaining = remaining
        self._sizes = sizes
        self._capture_us = capture_us
        if self._demand_order is not None:
            tenant_slot = np.zeros((n, cols), dtype=np.intp)
            deadline_us = np.full((n, cols), _NO_DEADLINE_US, dtype=np.int64)
            if self._tenant_slot is not None and old is not None:
                prev = self._tenant_slot.shape[1]
                tenant_slot[:, :prev] = self._tenant_slot
                deadline_us[:, :prev] = self._deadline_us
            self._tenant_slot = tenant_slot
            self._deadline_us = deadline_us
        self._cols = cols

    def ensure_demand(self, tenant_order: tuple[str, ...]) -> None:
        """Enable the demand columns (idempotent per tenant ordering).

        Tenant slot 0 is reserved for untenanted chunks; tenant ``k`` of
        ``tenant_order`` occupies slot ``k + 1``.  Enabling (or changing
        the ordering) invalidates every row so the next refresh fills the
        new columns.
        """
        order = tuple(tenant_order)
        if self._demand_order == order:
            return
        self._demand_order = order
        self._tenant_lookup = {tid: k + 1 for k, tid in enumerate(order)}
        n = len(self._satellites)
        self._tenant_slot = np.zeros((n, self._cols), dtype=np.intp)
        self._deadline_us = np.full(
            (n, self._cols), _NO_DEADLINE_US, dtype=np.int64
        )
        self._versions[:] = -1

    def refresh(self, sat_indices) -> None:
        """Re-read queues whose mutation counter moved since last seen."""
        storages = self._storages
        idx = np.asarray(sat_indices)
        idx_l = idx.tolist()
        current = np.fromiter(
            (storages[i].version for i in idx_l), np.int64, count=idx.size
        )
        moved = idx[current != self._versions[idx]]
        for i in moved.tolist():
            storage = storages[i]
            remaining, sizes, captures, backlog, head_size = (
                storage.queue_snapshot()
            )
            count = len(remaining)
            if count > self._cols:
                self._alloc(len(self._satellites), max(count, 2 * self._cols))
            row_r = self._remaining[i]
            row_s = self._sizes[i]
            row_c = self._capture_us[i]
            row_r[:count] = remaining
            row_r[count:] = 0.0
            row_s[:count] = sizes
            row_s[count:] = 1.0
            for c in range(count):
                row_c[c] = _microseconds_since_ref(captures[c])
            row_c[count:] = 0
            if self._tenant_slot is not None:
                tenant_ids, deadlines = storage.queue_demand_snapshot()
                row_t = self._tenant_slot[i]
                row_d = self._deadline_us[i]
                lookup = self._tenant_lookup
                for c in range(count):
                    row_t[c] = lookup.get(tenant_ids[c], 0)
                    deadline = deadlines[c]
                    row_d[c] = (
                        _NO_DEADLINE_US if deadline is None
                        else _microseconds_since_ref(deadline)
                    )
                row_t[count:] = 0
                row_d[count:] = _NO_DEADLINE_US
            self._counts[i] = count
            self._backlog[i] = backlog
            self._head_size[i] = head_size
            self._versions[i] = storage.version

    def prefix_age_values(self, sat_idx: np.ndarray, bits_budgets: np.ndarray,
                          now: datetime) -> np.ndarray:
        """Vectorized :meth:`OnboardStorage.prefix_age_value` per edge.

        ``sat_idx[p]`` is the satellite of edge ``p`` and ``bits_budgets[p]``
        its step budget.  The chunk loop runs sequentially over the (few)
        queue positions and vectorized over edges, performing the same
        elementwise operations in the same order as the scalar loop --
        padded positions contribute an exact ``+0.0``.
        """
        now_us = _microseconds_since_ref(now)
        left = np.maximum(0.0, bits_budgets)
        value = np.zeros(len(left))
        cmax = int(self._counts[sat_idx].max()) if sat_idx.size else 0
        for c in range(cmax):
            remaining = self._remaining[sat_idx, c]
            sendable = np.minimum(remaining, left)
            ages = np.maximum(
                0.0, (now_us - self._capture_us[sat_idx, c]) / 1e6
            )
            value = value + ages * (sendable / self._sizes[sat_idx, c])
            left = left - sendable
            if not left.any():
                # Every edge's budget is exactly exhausted; all further
                # chunks would contribute an exact +0.0.
                break
        return value

    def prefix_deadline_values(self, sat_idx: np.ndarray,
                               bits_budgets: np.ndarray, now: datetime,
                               slot_weights: np.ndarray,
                               urgency_weight_s: float,
                               urgency_horizon_s: float) -> np.ndarray:
        """The :class:`DeadlineSlaValue` prefix kernel, vectorized per edge.

        Same loop structure as :meth:`prefix_age_values`, with each
        chunk's age term scaled by its tenant's (weight x quota factor)
        from ``slot_weights`` and boosted by deadline pressure.  Padded
        positions contribute an exact ``+0.0`` (sendable is 0), and the
        no-deadline sentinel clips pressure to an exact 0.0, so the
        result is bit-identical to the scalar loop.
        """
        if self._tenant_slot is None:
            raise RuntimeError("demand columns not enabled; call ensure_demand")
        now_us = _microseconds_since_ref(now)
        left = np.maximum(0.0, bits_budgets)
        value = np.zeros(len(left))
        cmax = int(self._counts[sat_idx].max()) if sat_idx.size else 0
        for c in range(cmax):
            remaining = self._remaining[sat_idx, c]
            sendable = np.minimum(remaining, left)
            ages = np.maximum(
                0.0, (now_us - self._capture_us[sat_idx, c]) / 1e6
            )
            slack_s = (self._deadline_us[sat_idx, c] - now_us) / 1e6
            pressure = np.minimum(np.maximum(
                (urgency_horizon_s - slack_s) / urgency_horizon_s, 0.0
            ), 2.0)
            weights = slot_weights[self._tenant_slot[sat_idx, c]]
            value = value + weights * (
                ages + urgency_weight_s * pressure
            ) * (sendable / self._sizes[sat_idx, c])
            left = left - sendable
            if not left.any():
                break
        return value

    def backlog_of(self, sat_idx: np.ndarray) -> np.ndarray:
        return self._backlog[sat_idx]

    def head_size_of(self, sat_idx: np.ndarray) -> np.ndarray:
        return self._head_size[sat_idx]

    def counts_of(self, sat_idx: np.ndarray) -> np.ndarray:
        return self._counts[sat_idx]


@runtime_checkable
class ValueFunction(Protocol):
    """Edge-weight oracle for the bipartite matching.

    An implementation may add a vectorized ``edge_values(profile,
    sat_idx, bitrate_bps, now, step_s)`` over a
    :class:`FleetQueueProfile`.  Such an ``edge_values`` must return
    exactly 0.0 for every edge whose satellite has an empty send queue
    (``profile.counts_of == 0``), at any bitrate and instant: the graph's
    pricing tail drops those pairs before the link-budget kernel runs
    and never calls it for them.  Value functions that price an empty
    queue above zero implement only :meth:`edge_value`, which is called
    for every feasible pair.
    """

    def edge_value(
        self,
        satellite: Satellite,
        station_id: str,
        bitrate_bps: float,
        now: datetime,
        step_s: float,
    ) -> float:
        """Value of satellite->station transmitting for one step at this rate."""
        ...


@dataclass(frozen=True)
class LatencyValue:
    """Phi(x, t) = t, summed over the data x the link can move this step.

    Per the paper (Sec. 3.2): "we compute the value corresponding to the
    data that the satellite can send on that link using Phi".  With
    Phi = t, that value is the total age of the queue prefix the link's
    rate can drain during the step -- so both staleness and link rate
    matter, and the matching drains old data over the fastest feasible
    links.
    """

    #: Floor each chunk's age at one step so freshly captured data still
    #: attracts downlink capacity.
    min_age_factor: float = 1.0

    def edge_value(self, satellite: Satellite, station_id: str,
                   bitrate_bps: float, now: datetime, step_s: float) -> float:
        if bitrate_bps <= 0.0:
            return 0.0
        value = satellite.storage.prefix_age_value(bitrate_bps * step_s, now)
        if value <= 0.0 and satellite.storage.backlog_bits > 0.0:
            # All-new data: value by deliverable volume at a one-step age.
            deliverable = min(bitrate_bps * step_s, satellite.storage.backlog_bits)
            chunk = satellite.storage.peek_sendable()
            size = chunk.size_bits if chunk is not None else deliverable
            value = self.min_age_factor * step_s * deliverable / max(size, 1.0)
        return value

    def edge_values(self, profile: FleetQueueProfile, sat_idx: np.ndarray,
                    bitrate_bps: np.ndarray, now: datetime,
                    step_s: float) -> np.ndarray:
        """Vectorized :meth:`edge_value` over one instant's edges.

        Bit-identical to the scalar method: the prefix-age kernel mirrors
        its loop operation for operation, and the all-new-data fallback is
        the same expression evaluated elementwise.
        """
        budgets = bitrate_bps * step_s
        value = profile.prefix_age_values(sat_idx, budgets, now)
        backlog = profile.backlog_of(sat_idx)
        deliverable = np.minimum(budgets, backlog)
        head_size = np.where(
            profile.counts_of(sat_idx) > 0,
            profile.head_size_of(sat_idx), deliverable,
        )
        fallback = (self.min_age_factor * step_s * deliverable
                    / np.maximum(head_size, 1.0))
        value = np.where((value <= 0.0) & (backlog > 0.0), fallback, value)
        return np.where(bitrate_bps > 0.0, value, 0.0)


@dataclass(frozen=True)
class DeadlineSlaValue:
    """Tenant-priced Phi(x, t): age x tier weight x quota fairness + urgency.

    Sec. 3.1's SLA weighting made concrete.  Each chunk in the sendable
    prefix contributes::

        weight(tenant) * quota_factor(tenant)
            * (age_s + urgency_weight_s * pressure)
            * (sendable / size)

    where ``pressure`` ramps from 0 (more than ``urgency_horizon_s`` of
    SLA slack left) to 2 (a full horizon past the deadline), clipped --
    so a chunk approaching its deadline attracts downlink capacity as if
    it were ``urgency_weight_s`` seconds older, and an over-quota
    tenant's data is discounted by ``over_quota_factor`` until the next
    UTC day restores its quota.  Untenanted chunks price at weight 1
    with no deadline pressure, which makes the function degrade to
    :class:`LatencyValue`-like behavior on legacy data.

    ``edge_values`` is the vectorized fast path; it enables the fleet
    profile's demand columns on first use and is bit-identical to the
    scalar method.
    """

    tenants: tuple = ()
    #: The shared per-run quota ledger (None = no quota discounting).
    #: Excluded from equality: it is mutable run state, not identity.
    accountant: "object | None" = field(default=None, compare=False,
                                        repr=False)
    #: Seconds of effective age one unit of deadline pressure is worth.
    urgency_weight_s: float = 1800.0
    #: Slack window over which pressure ramps toward the deadline.
    urgency_horizon_s: float = 3600.0
    #: Price multiplier on a tenant that exhausted today's quota.
    over_quota_factor: float = 0.25
    #: Floor for the all-new-data fallback (mirrors LatencyValue).
    min_age_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.urgency_horizon_s <= 0.0:
            raise ValueError("urgency_horizon_s must be positive")
        if not 0.0 < self.over_quota_factor <= 1.0:
            raise ValueError("over_quota_factor must be in (0, 1]")
        order = tuple(t.tenant_id for t in self.tenants)
        object.__setattr__(self, "_order", order)
        object.__setattr__(
            self, "_slot", {tid: k + 1 for k, tid in enumerate(order)}
        )
        # Slot 0 = untenanted: weight 1, never quota-limited.
        object.__setattr__(
            self, "_weights",
            np.array([1.0] + [t.weight for t in self.tenants]),
        )

    def _slot_weights(self, now: datetime) -> np.ndarray:
        """Per-slot (tenant weight x today's quota factor)."""
        factors = np.ones(len(self._order) + 1)
        if self.accountant is not None:
            for k, tenant_id in enumerate(self._order):
                if not self.accountant.under_quota(tenant_id, now):
                    factors[k + 1] = self.over_quota_factor
        return self._weights * factors

    def edge_value(self, satellite: Satellite, station_id: str,
                   bitrate_bps: float, now: datetime, step_s: float) -> float:
        if bitrate_bps <= 0.0:
            return 0.0
        storage = satellite.storage
        weights = self._slot_weights(now)
        now_us = _microseconds_since_ref(now)
        left = bitrate_bps * step_s
        value = 0.0
        for chunk in storage.onboard_chunks:
            if left <= 0.0:
                break
            sendable = min(chunk.remaining_bits, left)
            ages = max(
                0.0,
                (now_us - _microseconds_since_ref(chunk.capture_time)) / 1e6,
            )
            if chunk.deadline is None:
                pressure = 0.0
            else:
                slack_s = (
                    _microseconds_since_ref(chunk.deadline) - now_us
                ) / 1e6
                pressure = min(max(
                    (self.urgency_horizon_s - slack_s)
                    / self.urgency_horizon_s, 0.0
                ), 2.0)
            value = value + weights[self._slot.get(chunk.tenant_id, 0)] * (
                ages + self.urgency_weight_s * pressure
            ) * (sendable / chunk.size_bits)
            left = left - sendable
        if value <= 0.0 and storage.backlog_bits > 0.0:
            # All-new data: value by deliverable volume at a one-step age.
            deliverable = min(bitrate_bps * step_s, storage.backlog_bits)
            chunk = storage.peek_sendable()
            size = chunk.size_bits if chunk is not None else deliverable
            value = self.min_age_factor * step_s * deliverable / max(size, 1.0)
        return value

    def edge_values(self, profile: FleetQueueProfile, sat_idx: np.ndarray,
                    bitrate_bps: np.ndarray, now: datetime,
                    step_s: float) -> np.ndarray:
        """Vectorized :meth:`edge_value` over one instant's edges.

        First use enables the profile's demand columns (invalidating its
        rows), so the extra refresh here re-reads exactly the rows this
        call prices; on later steps it is a version-match no-op.
        """
        profile.ensure_demand(self._order)
        if sat_idx.size:
            run_start = np.empty(sat_idx.size, dtype=bool)
            run_start[0] = True
            np.not_equal(sat_idx[1:], sat_idx[:-1], out=run_start[1:])
            profile.refresh(sat_idx[run_start])
        budgets = bitrate_bps * step_s
        value = profile.prefix_deadline_values(
            sat_idx, budgets, now, self._slot_weights(now),
            self.urgency_weight_s, self.urgency_horizon_s,
        )
        backlog = profile.backlog_of(sat_idx)
        deliverable = np.minimum(budgets, backlog)
        head_size = np.where(
            profile.counts_of(sat_idx) > 0,
            profile.head_size_of(sat_idx), deliverable,
        )
        fallback = (self.min_age_factor * step_s * deliverable
                    / np.maximum(head_size, 1.0))
        value = np.where((value <= 0.0) & (backlog > 0.0), fallback, value)
        return np.where(bitrate_bps > 0.0, value, 0.0)


@dataclass(frozen=True)
class ThroughputValue:
    """Phi(x, t) = |x|: the bits this link can move during the step."""

    def edge_value(self, satellite: Satellite, station_id: str,
                   bitrate_bps: float, now: datetime, step_s: float) -> float:
        if bitrate_bps <= 0.0:
            return 0.0
        sendable = satellite.storage.backlog_bits
        if sendable <= 0.0:
            return 0.0
        return min(bitrate_bps * step_s, sendable)

    def edge_values(self, profile: FleetQueueProfile, sat_idx: np.ndarray,
                    bitrate_bps: np.ndarray, now: datetime,
                    step_s: float) -> np.ndarray:
        """Vectorized :meth:`edge_value`: deliverable bits per edge."""
        backlog = profile.backlog_of(sat_idx)
        value = np.minimum(bitrate_bps * step_s, backlog)
        return np.where((bitrate_bps > 0.0) & (backlog > 0.0), value, 0.0)


@dataclass(frozen=True)
class PriorityValue:
    """Operator priorities: SLA tiers and geographic urgency.

    Weighs the queue head's ``priority`` field (e.g. disaster imagery
    tagged high) and an optional per-region multiplier, on top of age, so
    urgent data preempts stale-but-ordinary data.
    """

    region_multipliers: dict[str, float] = field(default_factory=dict)
    priority_weight: float = 3600.0  # 1 priority unit == 1 hour of age

    def edge_value(self, satellite: Satellite, station_id: str,
                   bitrate_bps: float, now: datetime, step_s: float) -> float:
        if bitrate_bps <= 0.0:
            return 0.0
        head = satellite.storage.peek_sendable()
        if head is None:
            return 0.0
        age_s = max(step_s, (now - head.capture_time).total_seconds())
        multiplier = self.region_multipliers.get(head.region, 1.0)
        return multiplier * (age_s + self.priority_weight * head.priority)


@dataclass(frozen=True)
class AuctionValue:
    """Bidding for station time (Sec. 3.1: "bidding for priority access").

    Each satellite operator posts a bid per station (or a default); the
    edge weight is bid x deliverable bits, i.e. what the operator would
    pay for this step.  Stations then naturally prefer the highest-paying
    feasible satellite under stable matching.
    """

    bids: dict[tuple[str, str], float] = field(default_factory=dict)
    default_bid: float = 1.0

    def edge_value(self, satellite: Satellite, station_id: str,
                   bitrate_bps: float, now: datetime, step_s: float) -> float:
        if bitrate_bps <= 0.0 or satellite.storage.backlog_bits <= 0.0:
            return 0.0
        bid = self.bids.get((satellite.satellite_id, station_id), self.default_bid)
        deliverable = min(bitrate_bps * step_s, satellite.storage.backlog_bits)
        return bid * deliverable


@dataclass(frozen=True)
class CompositeValue:
    """Weighted sum of value functions (e.g. 0.7*latency + 0.3*throughput)."""

    components: tuple[tuple[ValueFunction, float], ...]

    def edge_value(self, satellite: Satellite, station_id: str,
                   bitrate_bps: float, now: datetime, step_s: float) -> float:
        return sum(
            weight * vf.edge_value(satellite, station_id, bitrate_bps, now, step_s)
            for vf, weight in self.components
        )
