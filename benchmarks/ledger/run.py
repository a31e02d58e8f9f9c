"""The performance ledger: end-to-end and per-layer metrics in one command.

Usage, from the repository root::

    python3 benchmarks/ledger/run.py --seed 0 [--workload NAME]
        [--seconds 30] [--trace 0|1] [--out FILE]

Each repetition (timed set-up, then timed run) is a fresh child
interpreter (``rep.py``), one at a time, with one BLAS thread and no
ephemeris disk cache.  A run starts repetitions for ``--seconds``
seconds, then tops the set-up sample up to :data:`MIN_SETUPS` with
set-up-only children.  ``--trace 1`` adds one traced repetition and
reports the per-layer metrics instead of the end-to-end ones; without
``--trace`` a run reports both.  Every repetition's outputs are checked
(see :func:`check_rep`); a failed repetition counts as a failed
operation and its timings are dropped.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--out FILE`` appends the run, with every
sample, as one JSON line for ``compare.py``, and writes the traced
repetition's spans next to it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

#: Set-up samples a run collects at least, adding set-up-only children.
MIN_SETUPS = 3
#: Traced repetition wall time relative to an untimed one (budgeting).
TRACE_COST = 1.4
#: A child that runs longer than this is killed and counts as failed.
CHILD_TIMEOUT_S = 170.0
#: Largest relative per-tick shortfall an exact matcher may show.
OPTIMAL_TOLERANCE = 1e-9
#: Absolute tolerance on the pinned backlog overcount (GB).
OVERCOUNT_TOLERANCE_GB = 1e-6

EXPECTED = json.loads((HERE / "expected.json").read_text())
UNITS = {name: unit for name, unit, *_ in
         workloads.END_TO_END + workloads.PER_LAYER}


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tick_floor(reps: list[dict]) -> list[float]:
    """Each tick's fastest time over the repetitions of one run.

    The repetitions kept by a run produced the same report, so tick ``i``
    did the same work in each of them; its fastest time is that work with
    the least interference from the rest of the host.  A single slow tick
    in one repetition -- the host, not the program -- no longer sets the
    tail, while a tick that got slower in the code is slower in every
    repetition and still shows.
    """
    series = [r["ticks_ms"] for r in reps if r.get("ticks_ms")]
    if not series:
        return []
    return [min(times) for times in zip(*series)]


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("REPRO_EPHEMERIS_CACHE", None)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(request: dict) -> tuple[dict, float]:
    """Run one repetition; returns (result, wall seconds)."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "rep.py"), json.dumps(request)],
            capture_output=True, text=True, env=child_env(), cwd=ROOT,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return ({"error": f"repetition exceeded {CHILD_TIMEOUT_S:.0f} s"},
                time.perf_counter() - start)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        return ({"error": f"repetition exited {proc.returncode}: "
                          + " | ".join(tail)}, wall)
    return json.loads(lines[-1]), wall


def check_rep(workload, result: dict, seed: int, pinned: bool) -> list[str]:
    """Output checks for one repetition; an empty list means it passed."""
    if "error" in result:
        return [result["error"]]
    problems = []
    if result["delivered_gb"] > result["generated_gb"]:
        problems.append("delivered more than generated")
    if workload.conserves and not result["conserved"]:
        problems.append("generated != delivered + final backlog")
    if result["bad_acks"]:
        problems.append(f"{result['bad_acks']} unexpected event acks")
    expected = EXPECTED.get(workload.name, {}).get(str(seed))
    if pinned and expected is not None:
        if result["digest"] != expected["digest"]:
            problems.append("report digest differs from expected.json")
        pinned_overcount = expected.get("backlog_overcount_gb")
        if pinned_overcount is not None and abs(
            result["backlog_overcount_gb"] - pinned_overcount
        ) > OVERCOUNT_TOLERANCE_GB:
            problems.append("backlog overcount differs from expected.json")
    if workload.exact_matcher and result.get("oracle_gap", 0.0) \
            > OPTIMAL_TOLERANCE:
        problems.append(
            f"matched weight {result['oracle_gap']:.3g} below the optimum"
        )
    return problems


def run_workload(name: str, seed: int, seconds: float, trace: str = "both",
                 size=None, spans_path: str | None = None) -> dict:
    """Measure one workload; ``trace`` is ``"0"``, ``"1"`` or ``"both"``.

    ``size`` = (satellites, stations, duration_s) shrinks the workload
    (the harness test); pinned digests apply only at full size.
    """
    workload = workloads.WORKLOADS[name]
    traced = trace in ("1", "both")
    timed_metrics = trace in ("0", "both")
    pinned = size is None
    request = {"workload": name, "seed": seed, "size": size}
    started = time.perf_counter()

    reps, failures = [], []
    while True:
        result, wall = run_child(dict(request, mode="timed"))
        reps.append(result)
        elapsed = time.perf_counter() - started
        reserve = wall * TRACE_COST if traced else 0.0
        if elapsed + wall + reserve > seconds:
            break

    # Reps whose report disagrees with the majority failed.
    digests = [r.get("digest") for r in reps if "digest" in r]
    majority = max(set(digests), key=digests.count) if digests else None
    ok = []
    for result in reps:
        problems = check_rep(workload, result, seed, pinned)
        if "digest" in result and result["digest"] != majority:
            problems.append("report differs from the other repetitions")
        failures.extend(f"timed: {p}" for p in problems)
        if not problems:
            ok.append(result)
    kept = ok or reps
    attempted = len(reps) + sum(r.get("events", 0) for r in reps)
    failed = len(reps) - len(ok) + sum(r.get("bad_acks", 0) for r in reps)

    setups = [r["setup_s"] for r in kept if "setup_s" in r]
    if timed_metrics:
        while len(setups) < MIN_SETUPS:
            result, _wall = run_child(dict(request, mode="setup"))
            if "error" in result:
                failures.append(f"setup: {result['error']}")
                attempted += 1
                failed += 1
                break
            setups.append(result["setup_s"])

    metrics: dict[str, float] = {}
    ticks = tick_floor(kept)
    samples: dict[str, list] = {
        "setup_s": setups,
        "run_s": [r["run_s"] for r in kept if "run_s" in r],
        "peak_rss_mb": [r["rss_mb"] for r in kept if "rss_mb" in r],
        "ticks_ms": ticks,
    }
    if timed_metrics:
        # Timings of the run take the fastest repetition (and each tick
        # its fastest time): interference from other tenants of the host
        # only ever adds time, and it comes in phases longer than a
        # repetition.
        metrics.update(
            setup_s=statistics.median(setups) if setups else 0.0,
            run_s=min(samples["run_s"], default=0.0),
            peak_rss_mb=statistics.median(samples["peak_rss_mb"] or [0.0]),
            tick_p50_ms=percentile(ticks, 50) if ticks else 0.0,
            tick_p99_ms=percentile(ticks, 99) if ticks else 0.0,
        )

    traced_digest = None
    if traced:
        result, _wall = run_child(
            dict(request, mode="traced", spans=spans_path)
        )
        problems = check_rep(workload, result, seed, pinned)
        traced_digest = result.get("digest")
        if traced_digest is not None and traced_digest != majority:
            problems.append("traced report differs from the untraced one")
        attempted += 1
        if problems:
            failed += 1
            failures.extend(f"traced: {p}" for p in problems)
        layers = dict(result.get("layers", {}))
        layers["report.backlog_overcount_gb"] = result.get(
            "backlog_overcount_gb", 0.0
        )
        untraced = samples["run_s"]
        layers["trace.overhead"] = (
            result["run_s"] / min(untraced) - 1.0
            if "run_s" in result and untraced else 0.0
        )
        for metric, _unit, _better in workloads.PER_LAYER:
            metrics[metric] = layers.get(metric, 0.0)

    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "samples": samples,
        "digest": majority,
        "traced_digest": traced_digest,
        "failures": failures,
        "wall_s": time.perf_counter() - started,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        help="one workload (default: all, in order)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time per workload")
    parser.add_argument("--trace", choices=("0", "1"), default=None,
                        help="0: end-to-end metrics only; 1: per-layer "
                             "metrics only (default: both)")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="append each run as a JSON line to FILE")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}/repro; run from the "
              "repository root", file=sys.stderr)
        return 2

    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    results = []
    for name in names:
        spans_path = None
        if args.out:
            out = Path(args.out)
            spans_path = str(
                out.with_name(f"{out.stem}-{name}-seed{args.seed}-spans.npz")
            )
        result = run_workload(name, args.seed, args.seconds,
                              args.trace or "both", spans_path=spans_path)
        results.append(result)
        for metric, value in result["metrics"].items():
            print(f"{name} {metric} {value:.6g} {UNITS[metric]}")
        print(f"{name} ops {result['attempted']} ops_failed "
              f"{result['failed']} digest {result['digest']}")
        for failure in result["failures"]:
            print(f"{name} FAILED {failure}", file=sys.stderr)
        if args.out:
            with open(args.out, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(result, sort_keys=True) + "\n")

    def entry(metric, value):
        return {"value": value, "unit": UNITS[metric]}

    if len(results) == 1:
        metrics = {m: entry(m, v) for m, v in results[0]["metrics"].items()}
    else:
        metrics = {
            f"{r['workload']}/{m}": entry(m, v)
            for r in results for m, v in r["metrics"].items()
        }
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
