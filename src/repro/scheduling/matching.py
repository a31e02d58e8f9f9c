"""Matching algorithms for the contact graph (paper Sec. 3.1, step 3).

The paper chooses **stable matching** (Gale-Shapley) so that in a
fragmented, multi-operator network no satellite-station pair has an
incentive to defect from the schedule, and discusses **optimal matching**
as the alternative that maximizes global value.  Both are here, plus a
greedy heuristic, so experiments can compare them (the ablation benches
do).

All algorithms respect station capacity (``max_concurrent``): a station
with multiple independently steerable antennas can serve several
satellites, the common case being capacity 1 ("most current ground
stations can only support point to point links").  A station with
capacity 0 takes nobody; negative capacities are rejected.

Preferences on both sides derive from the same edge weight -- the value of
the link -- exactly as the paper constructs them; ties are broken by index
so results are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.scheduling.graph import ContactEdge, ContactGraph


@dataclass(frozen=True)
class Assignment:
    """One scheduled link: a chosen edge of the contact graph."""

    satellite_index: int
    station_index: int
    weight: float
    bitrate_bps: float
    elevation_deg: float = 90.0
    range_km: float = 0.0
    required_esn0_db: float = -100.0

    @classmethod
    def from_edge(cls, edge: ContactEdge) -> "Assignment":
        return cls(
            satellite_index=edge.satellite_index,
            station_index=edge.station_index,
            weight=edge.weight,
            bitrate_bps=edge.bitrate_bps,
            elevation_deg=edge.elevation_deg,
            range_km=edge.range_km,
            required_esn0_db=edge.required_esn0_db,
        )


def _station_capacities(graph: ContactGraph,
                        capacities: list[int] | None) -> list[int]:
    if capacities is None:
        return [1] * graph.num_stations
    if len(capacities) != graph.num_stations:
        raise ValueError(
            f"capacities length {len(capacities)} != stations {graph.num_stations}"
        )
    if any(cap < 0 for cap in capacities):
        raise ValueError(f"station capacities must be >= 0, got {capacities}")
    return capacities


def _assignments_at(graph: ContactGraph, positions: list[int],
                    sat_l: list[int], gs_l: list[int],
                    w_l: list[float]) -> list[Assignment]:
    """Assignments for the chosen edge positions of the graph's columns.

    Extracts only the chosen positions: the matching is bounded by
    min(M, N) while the edge count is not, so converting whole columns
    to lists here would dominate small-step costs.  ``float()`` on a
    float64 element is value-exact, so assignments are bit-identical to
    the previous whole-column ``tolist`` extraction.
    """
    cols = graph.columns()
    bitrate = cols.bitrate_bps
    elev = cols.elevation_deg
    rng = cols.range_km
    esn0 = cols.required_esn0_db
    return [
        Assignment(
            satellite_index=sat_l[p],
            station_index=gs_l[p],
            weight=w_l[p],
            bitrate_bps=float(bitrate[p]),
            elevation_deg=float(elev[p]),
            range_km=float(rng[p]),
            required_esn0_db=float(esn0[p]),
        )
        for p in positions
    ]


def gale_shapley(graph: ContactGraph,
                 capacities: list[int] | None = None) -> list[Assignment]:
    """Satellite-proposing deferred acceptance (Gale-Shapley).

    Satellites propose to stations in descending edge weight; a station
    holds its best ``capacity`` proposals and rejects the rest.  Runs in
    O(E log E) for preference sorting plus O(E) proposal rounds -- the
    K^2 bound the paper quotes with K = max(M, N).

    Operates on the graph's column arrays (edge positions, never edge
    objects): preference order comes from one fleet-wide lexsort and the
    proposal loop shuffles integer positions, so matching cost tracks the
    edge count without materializing per-edge objects.  Order semantics
    are identical to the historical edge-object implementation --
    satellites prefer (higher weight, lower station index), stations
    prefer (higher weight, lower satellite index) -- and pair uniqueness
    makes every comparison key distinct, so results are deterministic.

    The result is stable: no satellite-station pair both strictly prefer
    each other to their assignments (verified by :func:`is_stable` in
    tests).
    """
    caps = _station_capacities(graph, capacities)
    cols = graph.columns()
    sat_arr, gs_arr, w_arr = (
        cols.satellite_index, cols.station_index, cols.weight
    )
    sat_l = sat_arr.tolist()
    gs_l = gs_arr.tolist()
    w_l = w_arr.tolist()
    # Preference lists: per satellite, edge positions by descending weight
    # (ties: ascending station), via one lexsort over all edges.  Edge
    # order is satellite-major, so ascending-satellite grouping preserves
    # the historical first-appearance key order.
    order = np.lexsort((gs_arr, -w_arr, sat_arr))
    sat_sorted = sat_arr[order]
    uniq_sats, starts = np.unique(sat_sorted, return_index=True)
    order_l = order.tolist()
    bounds = starts.tolist() + [len(order_l)]
    prefs: dict[int, list[int]] = {
        int(s): order_l[bounds[k]:bounds[k + 1]]
        for k, s in enumerate(uniq_sats.tolist())
    }
    next_proposal = {sat: 0 for sat in prefs}
    # Station state: currently held edge positions, kept sorted ascending
    # by (weight, -satellite) so the weakest is at index 0.
    held: dict[int, list[int]] = {}
    free = list(prefs.keys())
    station_key = lambda p: (w_l[p], -sat_l[p])  # noqa: E731
    while free:
        sat = free.pop()
        options = prefs[sat]
        idx = next_proposal[sat]
        if idx >= len(options):
            continue  # exhausted all stations; stays unmatched
        next_proposal[sat] = idx + 1
        pos = options[idx]
        station = gs_l[pos]
        capacity = caps[station]
        if capacity == 0:
            free.append(sat)  # the station takes nobody; try the next one
            continue
        station_held = held.setdefault(station, [])
        if len(station_held) < capacity:
            station_held.append(pos)
            station_held.sort(key=station_key)
        else:
            weakest = station_held[0]
            if station_key(pos) > station_key(weakest):
                station_held[0] = pos
                station_held.sort(key=station_key)
                free.append(sat_l[weakest])
            else:
                free.append(sat)
    chosen = [pos for positions in held.values() for pos in positions]
    return _assignments_at(graph, chosen, sat_l, gs_l, w_l)


def greedy_matching(graph: ContactGraph,
                    capacities: list[int] | None = None) -> list[Assignment]:
    """Globally greedy: repeatedly take the heaviest remaining feasible edge.

    A 1/2-approximation to the optimum; cheaper and simpler than either
    alternative, included as the ablation straw man.  Like
    :func:`gale_shapley`, consumes the graph's column arrays: the
    (-weight, satellite, station) scan order is one lexsort.
    """
    caps = _station_capacities(graph, capacities)
    cols = graph.columns()
    sat_l = cols.satellite_index.tolist()
    gs_l = cols.station_index.tolist()
    w_l = cols.weight.tolist()
    order = np.lexsort(
        (cols.station_index, cols.satellite_index, -cols.weight)
    )
    remaining_cap = list(caps)
    taken_sats: set[int] = set()
    chosen: list[int] = []
    for pos in order.tolist():
        sat = sat_l[pos]
        if sat in taken_sats:
            continue
        if remaining_cap[gs_l[pos]] <= 0:
            continue
        taken_sats.add(sat)
        remaining_cap[gs_l[pos]] -= 1
        chosen.append(pos)
    return _assignments_at(graph, chosen, sat_l, gs_l, w_l)


def hungarian(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-cost assignment on a rectangular cost matrix.

    A from-scratch Jonker-Volgenant-style shortest-augmenting-path
    implementation, O(n^3).  Returns (row_indices, col_indices) like
    ``scipy.optimize.linear_sum_assignment`` (against which the test suite
    cross-checks it), ordered by row.  Works on rows <= cols; a taller
    matrix is transposed internally and the indices mapped back.

    Each row is inserted by a Dijkstra search over the columns whose step
    is a handful of whole-row numpy operations: relax the reduced costs
    of the unsettled columns, settle the first minimum (``argmin``, so
    ties go to the lowest column), and stop at an unassigned column.  Dual potentials are updated once
    per row from the settled distances, as in the LAPJV formulation.
    """
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2:
        raise ValueError("cost must be a 2-D matrix")
    transposed = cost.shape[0] > cost.shape[1]
    if transposed:
        cost = np.ascontiguousarray(cost.T)
    n_rows, n_cols = cost.shape
    u = np.zeros(n_rows)
    v = np.zeros(n_cols)
    row4col = np.full(n_cols, -1, dtype=np.intp)
    col4row = np.full(n_rows, -1, dtype=np.intp)
    path = np.zeros(n_cols, dtype=np.intp)
    for cur_row in range(n_rows):
        dist = np.full(n_cols, np.inf)
        # v with settled columns at -inf: their reduced cost becomes +inf,
        # so they never relax again and ``argmin`` never picks them.
        live_v = v.copy()
        settled: list[int] = []
        settled_dist: list[float] = []
        row = cur_row
        min_val = 0.0
        while True:
            reduced = cost[row] - live_v
            reduced += min_val - u[row]
            better = reduced < dist
            np.copyto(dist, reduced, where=better)
            path[better] = row
            col = int(dist.argmin())
            min_val = float(dist[col])
            if row4col[col] < 0:
                break
            settled.append(col)
            settled_dist.append(min_val)
            dist[col] = np.inf
            live_v[col] = -np.inf
            row = row4col[col]
        u[cur_row] += min_val
        if settled:
            cols = np.array(settled)
            shift = min_val - np.array(settled_dist)
            u[row4col[cols]] += shift
            v[cols] -= shift
        while True:  # augment along the shortest path back to cur_row
            row = path[col]
            row4col[col] = row
            col4row[row], col = col, col4row[row]
            if row == cur_row:
                break
    if transposed:
        col_idx = np.flatnonzero(row4col >= 0)
        return col_idx, row4col[col_idx]
    return np.arange(n_rows), col4row


def _component_labels(sat: np.ndarray, gs: np.ndarray) -> np.ndarray:
    """Connected-component label of every edge of a bipartite edge list.

    Min-label propagation with pointer jumping over the compressed node
    set (satellites first, then stations): each round pulls both endpoints
    of every edge down to the smaller of their labels, then replaces each
    label by its label's label.  A label is always a node of its own
    component, and the fixed point gives both endpoints of every edge the
    same label, so equal labels are exactly connected components.
    """
    sats, a = np.unique(sat, return_inverse=True)
    stations, b = np.unique(gs, return_inverse=True)
    b = b + sats.size
    label = np.arange(sats.size + stations.size)
    while True:
        low = np.minimum(label[a], label[b])
        new = label.copy()
        np.minimum.at(new, a, low)
        np.minimum.at(new, b, low)
        new = new[new]
        if np.array_equal(new, label):
            return label[a]
        label = new


def _solve_component(sat: np.ndarray, gs: np.ndarray, w: np.ndarray,
                     caps: np.ndarray) -> np.ndarray:
    """Optimal matching of one connected component of the contact graph.

    Takes the component's edges as parallel arrays and returns the chosen
    edges as indices into them.  Rows are the component's satellites;
    each station gets min(capacity, degree) replicated columns -- it can
    never take more satellites than it has edges to.  Missing pairs weigh
    0, so the full assignment ``hungarian`` returns restricts to a
    maximum-weight matching once padding entries are dropped.
    """
    if w.size == 1:
        return np.zeros(1, dtype=np.intp)
    sats, row = np.unique(sat, return_inverse=True)
    stations, station = np.unique(gs, return_inverse=True)
    reps = np.minimum(caps[stations],
                      np.bincount(station, minlength=stations.size))
    first_col = np.cumsum(reps) - reps
    # Each edge fills its station's reps columns: edge e, copy k -> column
    # first_col[station[e]] + k.
    copies = reps[station]
    edge = np.repeat(np.arange(w.size), copies)
    copy = np.arange(edge.size) - np.repeat(np.cumsum(copies) - copies,
                                            copies)
    col = first_col[station[edge]] + copy
    shape = (sats.size, int(reps.sum()))
    weight = np.zeros(shape)
    weight[row[edge], col] = w[edge]
    entry_edge = np.full(shape, -1, dtype=np.intp)
    entry_edge[row[edge], col] = edge
    # Maximize weight == minimize (max - weight).
    rows, cols = hungarian(weight.max() - weight)
    chosen = entry_edge[rows, cols]
    return chosen[chosen >= 0]


def max_weight_matching(graph: ContactGraph,
                        capacities: list[int] | None = None) -> list[Assignment]:
    """Optimal (maximum total value) matching, solved per component.

    A component-split sparse shortest-augmenting-path solver, numpy only:
    edges with weight <= 0 and stations with capacity 0 are dropped, the
    remaining edge list is split into connected components, and each
    component is compressed to its own satellites and stations (capacity
    replicated per component, not fleet-wide) and solved with
    :func:`hungarian`.  A contact graph at one instant falls apart into
    pass clusters, so this solves many small problems instead of one
    fleet-wide M x sum(capacity) matrix.

    Reads the graph's column arrays like the other matchers; assignments
    come out in ascending satellite index whatever the component order.
    """
    caps = np.asarray(_station_capacities(graph, capacities), dtype=np.intp)
    cols = graph.columns()
    sat_arr, gs_arr, w_arr = (
        cols.satellite_index, cols.station_index, cols.weight
    )
    live = np.flatnonzero((w_arr > 0.0) & (caps[gs_arr] > 0))
    if live.size == 0:
        return []
    labels = _component_labels(sat_arr[live], gs_arr[live])
    order = np.argsort(labels, kind="stable")
    by_component = live[order]
    bounds = np.flatnonzero(np.diff(labels[order])) + 1
    chosen = np.concatenate([
        part[_solve_component(sat_arr[part], gs_arr[part], w_arr[part], caps)]
        for part in np.split(by_component, bounds)
    ])
    chosen = chosen[np.argsort(sat_arr[chosen])]
    return _assignments_at(graph, chosen.tolist(), sat_arr.tolist(),
                           gs_arr.tolist(), w_arr.tolist())


def is_stable(graph: ContactGraph, assignments: list[Assignment],
              capacities: list[int] | None = None) -> bool:
    """Check the stability property of a matching.

    A blocking pair is an edge (s, g) where s strictly prefers g to its
    current assignment (or is unassigned) AND g either has spare capacity
    or holds some satellite it values strictly less than s.
    """
    caps = _station_capacities(graph, capacities)
    sat_weight: dict[int, float] = {}
    station_held: dict[int, list[float]] = {}
    for a in assignments:
        sat_weight[a.satellite_index] = a.weight
        station_held.setdefault(a.station_index, []).append(a.weight)
    for edge in graph.edges:
        current = sat_weight.get(edge.satellite_index)
        sat_prefers = current is None or edge.weight > current
        if not sat_prefers:
            continue
        held = station_held.get(edge.station_index, [])
        has_room = len(held) < caps[edge.station_index]
        would_evict = any(edge.weight > w for w in held)
        if has_room or would_evict:
            return False
    return True


def diversity_groups(
    graph: ContactGraph,
    assignments: list[Assignment],
    max_receivers: int,
) -> dict[int, list[ContactEdge]]:
    """Pick extra listening stations per matched satellite (diversity).

    For each assignment, stations that (a) can also see the satellite --
    they have an edge to it in the same priced graph -- and (b) were not
    matched as anyone's primary nor already claimed as another
    satellite's secondary, are recruited as additional receivers, best
    candidate edge first (descending weight, ascending station index for
    determinism).  Each satellite gets at most ``max_receivers - 1``
    secondaries.

    Purely a function of the graph's edges and the matching, so the
    selection is deterministic and depends on nothing else.  Reads the
    graph's columns: a stable sort by satellite gives each matched
    satellite its edge positions in edge order, and only the chosen
    edges become :class:`ContactEdge` rows.
    """
    if max_receivers < 1:
        raise ValueError("max_receivers must be >= 1")
    cols = graph.columns()
    by_satellite = np.argsort(cols.satellite_index, kind="stable")
    sorted_sats = cols.satellite_index[by_satellite]
    matched = [a.satellite_index for a in assignments]
    lo = np.searchsorted(sorted_sats, matched, side="left").tolist()
    hi = np.searchsorted(sorted_sats, matched, side="right").tolist()
    positions = by_satellite.tolist()
    gs_l = cols.station_index.tolist()
    w_l = cols.weight.tolist()
    taken = {a.station_index for a in assignments}
    groups: dict[int, list[ContactEdge]] = {}
    for a, first, last in zip(assignments, lo, hi):
        candidates = [
            p for p in positions[first:last]
            if gs_l[p] != a.station_index and gs_l[p] not in taken
        ]
        candidates.sort(key=lambda p: (-w_l[p], gs_l[p]))
        chosen = candidates[: max_receivers - 1]
        for p in chosen:
            taken.add(gs_l[p])
        groups[a.satellite_index] = [cols.edge_at(p) for p in chosen]
    return groups
