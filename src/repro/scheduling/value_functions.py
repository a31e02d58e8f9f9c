"""Value functions Phi(x, t) weighting satellite-station edges.

Sec. 3.1: "for any subset x of X_i and time t elapsed since the capture of
the data, Phi(x, t) denotes the value of transmitting that data to Earth".
The paper gives two canonical instances -- Phi = t to minimize latency and
Phi = |x| to maximize throughput -- and sketches SLA/geography weighting
and bidding.  All four are here, plus composition.

A value function prices one instant's closing pairs at once
(``edge_values``): it sees each satellite's send queue through the fleet
queue profile (what would actually be sent), each pair's predicted link
bitrate, and the step duration, and returns the edge weights for the
matching stage.  Higher = more valuable.  The per-edge scalar form of
every function here is the test oracle's reference (``tests/oracle.py``);
a user's scalar ``edge_value`` runs through :class:`PerEdgeValue`.
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
#: what makes the vectorized ages bit-identical to the per-edge reference.
_US_REF = datetime(2000, 1, 1)


def _microseconds_since_ref(when: datetime) -> int:
    delta = when - _US_REF
    return (delta.days * 86400 + delta.seconds) * 1_000_000 + delta.microseconds


#: Deadline sentinel for untenanted chunks: far enough in the future that
#: the urgency-pressure clip lands on an exact 0.0, matching the per-edge
#: reference's ``deadline is None`` branch bit for bit.
_NO_DEADLINE_US = 2**62


class FleetQueueProfile:
    """Padded per-satellite send-queue arrays for vectorized edge pricing.

    Age pricing reads three per-chunk fields (remaining bits, size,
    capture time) plus the queue backlog and head size; this cache holds
    them as ``(num_satellites, max_chunks)`` arrays so a value function
    can price every edge of an instant in a handful of numpy passes
    instead of a Python call per pair.  Rows refresh lazily against
    :attr:`OnboardStorage.version`, so between scheduling steps only the
    satellites that actually transmitted, captured, or requeued data are
    re-read.

    ``satellites`` and ``station_ids`` (the network's, by station index)
    name the indices a value function is given, for prices that depend
    on more than the queue arrays: a head chunk's tags, a bid per
    (satellite, station).
    """

    def __init__(self, satellites: list[Satellite],
                 station_ids: tuple[str, ...] = ()):
        self.satellites = satellites
        self.station_ids = tuple(station_ids)
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
        n = len(self.satellites)
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
                self._alloc(len(self.satellites), max(count, 2 * self._cols))
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
        """Summed age (seconds, chunk-weighted) of the data each edge moves.

        The paper's latency value evaluated on the subset x that fits in
        a step: over the queue prefix, chunk age x the fraction of the
        chunk that fits.  ``sat_idx[p]`` is the satellite of edge ``p``
        and ``bits_budgets[p]`` its step budget.  The chunk loop runs
        sequentially over the (few) queue positions and vectorized over
        edges, in the per-chunk order of the scalar reference
        (``tests/oracle.py``) -- padded positions contribute an exact
        ``+0.0``.
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
        result is bit-identical to the per-chunk scalar loop.
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

    ``edge_values(profile, sat_idx, gs_idx, bitrate_bps, now, step_s)``
    prices one instant's closing pairs at once: row ``p`` is satellite
    ``sat_idx[p]`` transmitting to station ``gs_idx[p]`` at
    ``bitrate_bps[p]`` for one step of ``step_s`` seconds.  ``profile``
    is the :class:`FleetQueueProfile`, already refreshed for every
    satellite in the rows; ``profile.satellites`` and
    ``profile.station_ids`` name the indices.  It returns one float64
    weight per row, and the graph keeps the rows weighing more than 0.

    ``zero_on_empty_queue`` is the implementation's declaration that
    ``edge_values`` returns exactly 0.0 for every row whose satellite has
    an empty send queue (``profile.counts_of == 0``), at any bitrate,
    station and instant.  When it is true the pricing tail drops those
    rows before the link budget runs and never prices them; when it is
    false every feasible pair is priced.  A value function with only a
    scalar ``edge_value`` goes through :class:`PerEdgeValue`.
    """

    #: True when an empty send queue always prices at exactly 0.0.
    zero_on_empty_queue: bool

    def edge_values(self, profile: FleetQueueProfile, sat_idx: np.ndarray,
                    gs_idx: np.ndarray, bitrate_bps: np.ndarray,
                    now: datetime, step_s: float) -> np.ndarray:
        """Value of each row's satellite->station step at its rate."""
        ...


def _run_starts(sat_idx: np.ndarray) -> np.ndarray:
    """The satellites of ``sat_idx``, one per run of equal neighbours.

    Rows arrive row-major by satellite, so this dedupes them without a
    sort; an unsorted input just repeats some satellites.
    """
    run_start = np.empty(sat_idx.size, dtype=bool)
    run_start[0] = True
    np.not_equal(sat_idx[1:], sat_idx[:-1], out=run_start[1:])
    return sat_idx[run_start]


def _with_fallback(value: np.ndarray, profile: FleetQueueProfile,
                   sat_idx: np.ndarray, budgets: np.ndarray,
                   step_s: float, min_age_factor: float) -> np.ndarray:
    """The all-new-data fallback of the age-priced value functions.

    A queue whose prefix ages sum to <= 0 (every chunk captured this
    instant) is valued by deliverable volume at ``min_age_factor`` steps
    of age, in head-chunk units.
    """
    backlog = profile.backlog_of(sat_idx)
    deliverable = np.minimum(budgets, backlog)
    head_size = np.where(
        profile.counts_of(sat_idx) > 0,
        profile.head_size_of(sat_idx), deliverable,
    )
    fallback = (min_age_factor * step_s * deliverable
                / np.maximum(head_size, 1.0))
    return np.where((value <= 0.0) & (backlog > 0.0), fallback, value)


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

    zero_on_empty_queue = True

    #: Floor each chunk's age at one step so freshly captured data still
    #: attracts downlink capacity.
    min_age_factor: float = 1.0

    def edge_values(self, profile: FleetQueueProfile, sat_idx: np.ndarray,
                    gs_idx: np.ndarray, bitrate_bps: np.ndarray,
                    now: datetime, step_s: float) -> np.ndarray:
        """The prefix age sum per row, then the all-new-data fallback."""
        budgets = bitrate_bps * step_s
        value = profile.prefix_age_values(sat_idx, budgets, now)
        value = _with_fallback(value, profile, sat_idx, budgets, step_s,
                               self.min_age_factor)
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
    UTC day restores its quota.  Untenanted chunks, and chunks of a
    tenant not in ``tenants``, price at weight 1; a chunk without a
    deadline feels no pressure.  That makes the function degrade to
    :class:`LatencyValue`-like behavior on legacy data.
    """

    zero_on_empty_queue = True

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

    def edge_values(self, profile: FleetQueueProfile, sat_idx: np.ndarray,
                    gs_idx: np.ndarray, bitrate_bps: np.ndarray,
                    now: datetime, step_s: float) -> np.ndarray:
        """The deadline prefix sum per row, then the all-new-data fallback.

        First use enables the profile's demand columns (invalidating its
        rows), so the extra refresh here re-reads exactly the rows this
        call prices; on later steps it is a version-match no-op.
        """
        profile.ensure_demand(self._order)
        if sat_idx.size:
            profile.refresh(_run_starts(sat_idx))
        budgets = bitrate_bps * step_s
        value = profile.prefix_deadline_values(
            sat_idx, budgets, now, self._slot_weights(now),
            self.urgency_weight_s, self.urgency_horizon_s,
        )
        value = _with_fallback(value, profile, sat_idx, budgets, step_s,
                               self.min_age_factor)
        return np.where(bitrate_bps > 0.0, value, 0.0)


@dataclass(frozen=True)
class ThroughputValue:
    """Phi(x, t) = |x|: the bits this link can move during the step."""

    zero_on_empty_queue = True

    def edge_values(self, profile: FleetQueueProfile, sat_idx: np.ndarray,
                    gs_idx: np.ndarray, bitrate_bps: np.ndarray,
                    now: datetime, step_s: float) -> np.ndarray:
        """Deliverable bits per row."""
        backlog = profile.backlog_of(sat_idx)
        value = np.minimum(bitrate_bps * step_s, backlog)
        return np.where((bitrate_bps > 0.0) & (backlog > 0.0), value, 0.0)


@dataclass(frozen=True)
class PriorityValue:
    """Operator priorities: SLA tiers and geographic urgency.

    Weighs the queue head's ``priority`` field (e.g. disaster imagery
    tagged high) and an optional per-region multiplier, on top of age, so
    urgent data preempts stale-but-ordinary data.  A region missing from
    ``region_multipliers`` weighs 1.
    """

    zero_on_empty_queue = True

    region_multipliers: dict[str, float] = field(default_factory=dict)
    priority_weight: float = 3600.0  # 1 priority unit == 1 hour of age

    def edge_values(self, profile: FleetQueueProfile, sat_idx: np.ndarray,
                    gs_idx: np.ndarray, bitrate_bps: np.ndarray,
                    now: datetime, step_s: float) -> np.ndarray:
        """The head chunk's value per row.

        The value depends on the satellite alone, so each distinct
        satellite's head chunk is read once, from its storage, and the
        value is spread to its rows.  An empty queue has no head and
        prices 0.
        """
        sats, row_of = np.unique(sat_idx, return_inverse=True)
        head_value = np.zeros(sats.size)
        satellites = profile.satellites
        for k, i in enumerate(sats.tolist()):
            head = satellites[i].storage.peek_sendable()
            if head is None:
                continue
            age_s = max(step_s, (now - head.capture_time).total_seconds())
            multiplier = self.region_multipliers.get(head.region, 1.0)
            head_value[k] = multiplier * (
                age_s + self.priority_weight * head.priority
            )
        return np.where(bitrate_bps > 0.0, head_value[row_of], 0.0)


@dataclass(frozen=True)
class AuctionValue:
    """Bidding for station time (Sec. 3.1: "bidding for priority access").

    Each satellite operator posts a bid per station (or a default); the
    edge weight is bid x deliverable bits, i.e. what the operator would
    pay for this step.  Stations then naturally prefer the highest-paying
    feasible satellite under stable matching.
    """

    zero_on_empty_queue = True

    bids: dict[tuple[str, str], float] = field(default_factory=dict)
    default_bid: float = 1.0

    def edge_values(self, profile: FleetQueueProfile, sat_idx: np.ndarray,
                    gs_idx: np.ndarray, bitrate_bps: np.ndarray,
                    now: datetime, step_s: float) -> np.ndarray:
        """Bid x deliverable bits per row.

        Bids are keyed by ``(satellite_id, station_id)``, so a row's bid
        is looked up by its ids; without bids every row pays the
        default.
        """
        if self.bids:
            satellites = profile.satellites
            station_ids = profile.station_ids
            lookup = self.bids.get
            default = self.default_bid
            bid = np.fromiter(
                (lookup((satellites[i].satellite_id, station_ids[j]), default)
                 for i, j in zip(sat_idx.tolist(), gs_idx.tolist())),
                float, sat_idx.size,
            )
        else:
            bid = np.full(sat_idx.size, self.default_bid, dtype=float)
        backlog = profile.backlog_of(sat_idx)
        value = bid * np.minimum(bitrate_bps * step_s, backlog)
        return np.where((bitrate_bps > 0.0) & (backlog > 0.0), value, 0.0)


@dataclass(frozen=True)
class CompositeValue:
    """Weighted sum of value functions (e.g. 0.7*latency + 0.3*throughput).

    Every component must have ``edge_values``; wrap a scalar one in
    :class:`PerEdgeValue`.  The sum prices an empty queue at 0.0 when
    every component does.
    """

    components: tuple[tuple[ValueFunction, float], ...]

    @property
    def zero_on_empty_queue(self) -> bool:
        return all(vf.zero_on_empty_queue for vf, _weight in self.components)

    def edge_values(self, profile: FleetQueueProfile, sat_idx: np.ndarray,
                    gs_idx: np.ndarray, bitrate_bps: np.ndarray,
                    now: datetime, step_s: float) -> np.ndarray:
        """The components' weighted values, added in order from 0."""
        total = np.zeros(sat_idx.size)
        for vf, weight in self.components:
            total = total + weight * vf.edge_values(
                profile, sat_idx, gs_idx, bitrate_bps, now, step_s
            )
        return total


class PerEdgeValue:
    """A value function with only a scalar ``edge_value``, row by row.

    ``inner.edge_value(satellite, station_id, bitrate_bps, now, step_s)``
    is called once per row, in row order, with the row's
    :class:`~repro.satellites.satellite.Satellite` and station id.  The
    adapter cannot know what ``inner`` makes of an empty queue, so it
    declares ``zero_on_empty_queue = False`` and every feasible pair is
    priced.  :class:`~repro.scheduling.scheduler.DownlinkScheduler`
    stores a value function that is not a :class:`ValueFunction` wrapped
    in it.
    """

    zero_on_empty_queue = False

    def __init__(self, inner):
        self.inner = inner

    def edge_values(self, profile: FleetQueueProfile, sat_idx: np.ndarray,
                    gs_idx: np.ndarray, bitrate_bps: np.ndarray,
                    now: datetime, step_s: float) -> np.ndarray:
        satellites = profile.satellites
        station_ids = profile.station_ids
        edge_value = self.inner.edge_value
        return np.fromiter(
            (edge_value(satellites[i], station_ids[j], rate, now, step_s)
             for i, j, rate in zip(sat_idx.tolist(), gs_idx.tolist(),
                                   bitrate_bps.tolist())),
            float, sat_idx.size,
        )
