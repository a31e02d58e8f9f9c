"""Contact-window index benchmarks: span gate, end-to-end gate, idle skip.

Three acceptance contracts for the precomputed contact-window index
(``repro.scheduling.windows``), all at the fig3a paper population
(259 satellites x 173 stations) regardless of ``REPRO_BENCH_SCALE`` --
the gates pin the scale the claims were measured at:

1. Schedule-span gate -- per-step ``contact_graph`` with the window
   index costs at most 1/3 of the one-step culled scan that instants off
   the index's grid still run; the "off" arm is the same scheduler with
   its index detached (``SPAN_SPEEDUP_FLOOR = 3.0``).  Both sides are
   warmed first and timed interleaved best-of-5 on ``time.process_time``
   so scheduler jitter on shared CI boxes hits them equally.
2. End-to-end gate -- a full simulated day of fig3a (build + run) is
   at least 1.5x faster with the index than with it detached, with
   byte-identical reports.  Measured steady-state: the session-scoped
   ephemeris and window-index caches are warm, matching how the figure
   sweeps and the scheduler service actually run (scenarios are
   memoized across figures within a session).  The cold first build
   pays the one-shot index scan (~1.4 s CPU at paper scale); the cold
   numbers land in the printed summary for eyeballing but are not
   gated.
3. Idle-tick fast-forward -- on a sparse toy constellation the engine
   skips graph build and matching outright whenever the index reports
   zero active pairs (``idle_ticks_skipped > 0``), while the report
   stays byte-identical to the detached run, the index serves pairs
   (``window_index_hits > 0``) and demand-first pricing fires
   (``0 < priced_pairs < visible_pairs``: pairs whose satellite has
   nothing queued never reach the link-budget kernel).

The pytest-benchmark timings feed the committed
``benchmarks/baselines/BENCH_windows.baseline.json`` that
``compare_bench.py`` gates in CI.  Like the other benches this file is
not tier-1 (``testpaths`` excludes ``benchmarks/``).
"""

import json
import math
import time
from dataclasses import replace
from datetime import timedelta

from repro.core.scenarios import PAPER_EPOCH, ScenarioSpec
from repro.obs import ObsConfig
from repro.orbits.ephemeris import clear_ephemeris_cache
from repro.scheduling.windows import clear_window_index_cache

GATE_SATELLITES = 259
GATE_STATIONS = 173
#: Gate thresholds from the issue: >=3x on the schedule span, >=1.5x
#: end to end over the full fig3a day.
SPAN_SPEEDUP_FLOOR = 3.0
E2E_SPEEDUP_FLOOR = 1.5
#: Instants timed by the span gate (one simulated hour at 60 s cadence).
SPAN_STEPS = 60


def _fig3a(windows: bool):
    """The fig3a scenario, with its window index detached unless ``windows``.

    Detached, every instant runs the one-step culled scan.
    """
    scenario = ScenarioSpec.dgs(
        num_satellites=GATE_SATELLITES,
        num_stations=GATE_STATIONS,
        duration_s=86400.0,
    ).build()
    if not windows:
        scenario.simulation.scheduler.window_index = None
    return scenario


def _comparable(report) -> dict:
    """Report JSON minus wall-clock stage timings (machine noise)."""
    data = json.loads(report.to_json())
    data.pop("stage_timings", None)
    return data


def _span_pair():
    """Warmed (windows-on, windows-off) scenarios plus the timed instants."""
    scen_on = _fig3a(True)
    scen_off = _fig3a(False)
    instants = [PAPER_EPOCH + timedelta(minutes=k) for k in range(SPAN_STEPS)]
    for scen in (scen_on, scen_off):
        for when in instants:
            scen.simulation.scheduler.contact_graph(when)
    return scen_on, scen_off, instants


def _measure_span(scen_on, scen_off, instants) -> tuple[float, float]:
    """Interleaved best-of-5 per-step CPU seconds (windows, culled)."""
    best = {True: math.inf, False: math.inf}
    for _ in range(5):
        for flag, scen in ((True, scen_on), (False, scen_off)):
            scheduler = scen.simulation.scheduler
            start = time.process_time()
            for when in instants:
                scheduler.contact_graph(when)
            elapsed = (time.process_time() - start) / len(instants)
            best[flag] = min(best[flag], elapsed)
    return best[True], best[False]


def test_bench_window_graph_span(benchmark):
    """Per-step ``contact_graph`` with the window index, fig3a scale."""
    scen_on, _, instants = _span_pair()
    scheduler = scen_on.simulation.scheduler

    def span():
        for when in instants:
            scheduler.contact_graph(when)

    benchmark.pedantic(span, rounds=3, iterations=1)


def test_bench_culled_graph_span(benchmark):
    """Per-step ``contact_graph`` with the index detached, fig3a scale."""
    _, scen_off, instants = _span_pair()
    scheduler = scen_off.simulation.scheduler

    def span():
        for when in instants:
            scheduler.contact_graph(when)

    benchmark.pedantic(span, rounds=3, iterations=1)


def test_contact_graph_span_gate():
    """Acceptance gate: window-index span >= 3x the culled span.

    One remeasure retry absorbs the occasional scheduler hiccup that
    best-of-5 interleaving cannot -- the gate fails only when both
    measurements land under the floor.
    """
    scen_on, scen_off, instants = _span_pair()
    on_s, off_s = _measure_span(scen_on, scen_off, instants)
    ratio = off_s / on_s
    if ratio < SPAN_SPEEDUP_FLOOR:
        on_s, off_s = _measure_span(scen_on, scen_off, instants)
        ratio = off_s / on_s
    print(f"\ncontact_graph span {GATE_SATELLITES}x{GATE_STATIONS}: "
          f"windows {1e3 * on_s:.3f} ms/step, culled {1e3 * off_s:.3f} "
          f"ms/step, speedup {ratio:.2f}x (floor {SPAN_SPEEDUP_FLOOR}x)")
    assert ratio >= SPAN_SPEEDUP_FLOOR, (
        f"window-index span speedup {ratio:.2f}x is under the "
        f"{SPAN_SPEEDUP_FLOOR}x floor"
    )


def test_end_to_end_fullday_gate():
    """Acceptance gate: full-day fig3a >= 1.5x end to end, reports equal.

    Steady state: one cold pass per side populates the session caches
    (and pays the one-shot index build), then two interleaved timed
    passes per side are gated on best-of CPU time.  Every pass's report
    must match byte for byte.
    """
    clear_ephemeris_cache()
    clear_window_index_cache()

    def run(windows: bool) -> tuple[float, dict]:
        start = time.process_time()
        report = _fig3a(windows).simulation.run()
        return time.process_time() - start, _comparable(report)

    cold_on, baseline = run(True)
    cold_off, report = run(False)
    assert report == baseline, "cold reports diverged (windows on vs off)"
    best = {True: math.inf, False: math.inf}
    for _ in range(2):
        for flag in (True, False):
            elapsed, report = run(flag)
            assert report == baseline, (
                f"warm report diverged (windows={flag})"
            )
            best[flag] = min(best[flag], elapsed)
    ratio = best[False] / best[True]
    print(f"\nfull-day fig3a end to end: windows {best[True]:.2f} s, "
          f"culled {best[False]:.2f} s, speedup {ratio:.2f}x "
          f"(floor {E2E_SPEEDUP_FLOOR}x; cold {cold_on:.2f} s vs "
          f"{cold_off:.2f} s)")
    assert ratio >= E2E_SPEEDUP_FLOOR, (
        f"end-to-end speedup {ratio:.2f}x is under the "
        f"{E2E_SPEEDUP_FLOOR}x floor"
    )


def test_idle_tick_fast_forward_sparse_toy():
    """Sparse toy: idle ticks skipped, empty queues unpriced, same report."""
    spec = ScenarioSpec.dgs(num_satellites=6, num_stations=4,
                            duration_s=14400.0)
    observed = replace(spec, observability=ObsConfig()).build()
    observed.simulation.run()
    counters = observed.simulation.obs.counters_snapshot()
    assert counters.get("idle_ticks_skipped", 0) > 0, (
        "sparse toy never fast-forwarded an idle tick"
    )
    assert counters.get("window_index_hits", 0) > 0
    # Demand-first pricing: some visible pairs reach the kernel, and the
    # pairs of satellites with nothing queued do not.
    assert 0 < counters.get("priced_pairs", 0) < counters["visible_pairs"]
    assert "window_index_build" in observed.simulation.obs.span_calls()

    on = spec.build().simulation.run()
    detached = spec.build().simulation
    detached.scheduler.window_index = None
    off = detached.run()
    assert on.to_json() == off.to_json(), (
        "sparse-toy report diverged between the index and the scan step"
    )
