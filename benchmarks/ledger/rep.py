"""One repetition of a ledger workload, in a fresh interpreter.

Started by ``run.py`` as ``python rep.py '<request json>'``; prints one
JSON object on its last stdout line.  The request names the workload,
the seed, an optional reduced size, and the mode:

* ``setup`` -- build the scenario (or session) only;
* ``timed`` -- build, run to the finalized report, check the outputs;
* ``traced`` -- the same with :class:`spans.Tracer` installed, adding
  the per-layer metrics, the coverage guard and the optimality oracle.

Fresh processes keep repetitions cold and independent: in one
interpreter a second build is served from the process-wide ephemeris and
window-index caches (0.02 s instead of 1.02 s on ``paper-day``).
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time

import workloads

GB = 8e9


def _report_digest(text: str) -> str:
    """SHA-256 of the report JSON without its wall-clock stage timings."""
    payload = json.loads(text)
    payload.pop("stage_timings", None)
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()


def _install_tick_clock(ticks: list[float]) -> None:
    """Time each engine step of a batch run that executed a link.

    Steps with nothing to downlink (no pass, or no data yet) cost a small
    fraction of a scheduling step and would otherwise set the median.
    """
    from repro.simulation.engine import Simulation

    step_once = Simulation._step_once

    def timed_step(sim, k):
        start = time.perf_counter()
        executed = step_once(sim, k)
        elapsed = time.perf_counter() - start
        if executed:
            ticks.append(elapsed)
        return executed

    Simulation._step_once = timed_step


def _drive_session(session, batches, ticks: list[float]):
    """The closed-loop client: ingest, advance one tick, read the deltas."""
    acks = []
    last_seq = 0
    for events, _expected in batches:
        start = time.perf_counter()
        acks.append(session.ingest(events))
        session.advance(steps=1)
        deltas = session.plan_deltas(since=last_seq)
        ticks.append(time.perf_counter() - start)
        if deltas:
            last_seq = deltas[-1].seq
    return session.finalize(), acks


def run(request: dict) -> dict:
    workload = workloads.WORKLOADS[request["workload"]]
    seed = int(request["seed"])
    mode = request["mode"]
    size = request.get("size")
    tracer = None
    if mode == "traced":
        from spans import CoverageError, Tracer

        tracer = Tracer()
        try:
            tracer.install()
        except CoverageError as exc:
            return {"error": str(exc)}

    import repro

    spec = workloads.scenario_spec(workload, seed,
                                   tuple(size) if size else None)
    ticks: list[float] = []
    if mode == "timed" and not workload.session:
        _install_tick_clock(ticks)

    root = tracer.open("setup") if tracer else None
    start = time.perf_counter()
    if workload.session:
        built = repro.SimulationSession(spec)
        simulation = built.simulation
    else:
        built = spec.build()
        simulation = built.simulation
    setup_s = time.perf_counter() - start
    if tracer:
        tracer.close(root)
    result = {"setup_s": setup_s}
    if mode == "setup":
        result["rss_mb"] = _peak_rss_mb()
        return result

    batches = []
    if workload.session:
        batches = workloads.session_events(simulation, spec.tenants, seed,
                                           workload.session_ticks)
    root = tracer.open("run") if tracer else None
    start = time.perf_counter()
    if workload.session:
        report, acks = _drive_session(built, batches, ticks)
    else:
        report = simulation.run()
        acks = []
    run_s = time.perf_counter() - start
    if tracer:
        tracer.close(root)
    result["rss_mb"] = _peak_rss_mb()

    text = report.to_json()
    backlog_gb = sum(report.final_backlog_gb.values())
    result.update(
        run_s=run_s,
        ticks_ms=[t * 1e3 for t in ticks],
        digest=_report_digest(text),
        generated_gb=report.generated_bits / GB,
        delivered_gb=report.delivered_bits / GB,
        backlog_overcount_gb=(
            report.delivered_bits / GB + backlog_gb
            - report.generated_bits / GB
        ),
        conserved=(
            report.generated_bits == report.delivered_bits + backlog_gb * GB
        ),
        events=sum(len(batch) for batch in acks),
        bad_acks=sum(
            sum(ack["status"] != want for ack, want in zip(got, expected))
            + abs(len(got) - len(expected))
            for got, (_events, expected) in zip(acks, batches)
        ),
    )
    if tracer is not None:
        tracer.uninstall()
        oracle_s = tracer.oracle_seconds()
        result["run_s"] = run_s - oracle_s
        result["oracle_s"] = oracle_s
        result["oracle_gap"] = tracer.oracle_gap()
        result["layers"] = tracer.layer_metrics(simulation, run_s - oracle_s)
        try:
            tracer.check_coverage(workload.layers)
        except CoverageError as exc:
            result["error"] = str(exc)
        if request.get("spans"):
            tracer.dump(request["spans"])
    return result


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


if __name__ == "__main__":
    print(json.dumps(run(json.loads(sys.argv[1]))))
