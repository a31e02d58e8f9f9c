"""Stable vs greedy vs optimal matching on the paper's full-day scenario.

Usage::

    PYTHONPATH=src python scripts/matching_gap.py [--hours 24] \
        [--satellites 259] [--stations 173]

Runs the same DGS scenario once per matcher and prints, per arm, the
delivered data, median and p90 capture-to-reception latency, the median
matching time per matched tick, and the per-tick total-weight gap
against the optimum: on every tick with edges, the arm's matched weight
is compared with ``max_weight_matching`` on that same priced graph, so
the gap measures what the arm's own matching gave up at that instant
(the arms' trajectories diverge, so each is compared on its own graphs).
The run time excludes that reference solve.
"""

from __future__ import annotations

import argparse
import dataclasses
import time

import numpy as np

from repro.core.scenarios import ScenarioSpec
from repro.scheduling import scheduler as scheduler_module
from repro.scheduling.matching import max_weight_matching

MATCHERS = ("stable", "greedy", "optimal")


def run_arm(matcher: str, satellites: int, stations: int,
            hours: float) -> dict:
    spec = ScenarioSpec.dgs(num_satellites=satellites,
                            num_stations=stations,
                            duration_s=hours * 3600.0, matcher=matcher)
    sim = spec.build().simulation
    sched = sim.scheduler
    step_fn = sched.schedule_step
    match_fn = scheduler_module._MATCHERS[matcher]
    gaps: list[float] = []
    match_ms: list[float] = []
    oracle_s = 0.0

    def timed_match(graph, capacities=None):
        start = time.perf_counter()
        result = match_fn(graph, capacities)
        if graph.num_edges:
            match_ms.append((time.perf_counter() - start) * 1e3)
        return result

    def schedule_step(when, forecast_issued_at=None, keep_graph=False):
        nonlocal oracle_s
        step = step_fn(when, forecast_issued_at, keep_graph=True)
        if step.num_edges:
            start = time.perf_counter()
            best = sum(a.weight for a in max_weight_matching(
                step.graph, sched.capacities))
            oracle_s += time.perf_counter() - start
            got = sum(a.weight for a in step.assignments)
            if best > 0:
                gaps.append((best - got) / best)
        return step if keep_graph else dataclasses.replace(step, graph=None)

    sched.schedule_step = schedule_step
    scheduler_module._MATCHERS[matcher] = timed_match
    try:
        start = time.perf_counter()
        report = sim.run()
        wall = time.perf_counter() - start - oracle_s
    finally:
        scheduler_module._MATCHERS[matcher] = match_fn
    lat = report.latency_percentiles_min((50, 90))
    gap = np.asarray(gaps)
    return {
        "delivered_tb": report.delivered_tb,
        "lat_p50": lat[50],
        "lat_p90": lat[90],
        "ticks": gap.size,
        "gap_mean": float(gap.mean()) if gap.size else 0.0,
        "gap_p90": float(np.percentile(gap, 90)) if gap.size else 0.0,
        "gap_max": float(gap.max()) if gap.size else 0.0,
        "gap_ticks": int(np.count_nonzero(gap > 1e-12)),
        "match_ms_p50": float(np.median(match_ms)) if match_ms else 0.0,
        "wall_s": wall,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--hours", type=float, default=24.0)
    parser.add_argument("--satellites", type=int, default=259)
    parser.add_argument("--stations", type=int, default=173)
    args = parser.parse_args()
    print("| matcher | delivered (TB) | latency p50 / p90 (min) "
          "| weight gap mean / p90 / max | ticks with a gap "
          "| matching ms per matched tick (p50) | run (s) |")
    print("|---|---|---|---|---|---|---|")
    for matcher in MATCHERS:
        r = run_arm(matcher, args.satellites, args.stations, args.hours)
        print(f"| {matcher} | {r['delivered_tb']:.3f} "
              f"| {r['lat_p50']:.1f} / {r['lat_p90']:.1f} "
              f"| {r['gap_mean']:.2%} / {r['gap_p90']:.2%} / "
              f"{r['gap_max']:.2%} | {r['gap_ticks']} of {r['ticks']} "
              f"| {r['match_ms_p50']:.2f} | {r['wall_s']:.1f} |")


if __name__ == "__main__":
    main()
