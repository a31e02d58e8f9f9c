"""Worker-side cell execution (top-level functions, so pools can pickle).

A shard is one worker's slice of the grid.  The worker rebuilds each
frozen spec from its dict, runs it, strips the wall-clock half of the
result into the ``runtime`` sidecar (keeping the ``cell`` payload
deterministic), and checkpoints the entry before moving on -- so a kill
mid-shard loses at most the cell in flight.
"""

from __future__ import annotations

import os
import time
from dataclasses import replace

from repro.core.scenarios import ScenarioSpec
from repro.simulation.metrics import SimulationReport


def run_cell(label: str, spec: ScenarioSpec,
             trace_dir: str | None = None) -> tuple[dict, dict]:
    """Run one cell; return its (deterministic payload, runtime sidecar)."""
    from repro.runners.sweep import CELL_SCHEMA

    digest = spec.config_sha256()
    observed_spec = spec
    if trace_dir is not None:
        from repro.obs import ObsConfig

        os.makedirs(trace_dir, exist_ok=True)
        observed_spec = replace(spec, observability=ObsConfig(
            trace_path=os.path.join(trace_dir, f"{digest}.jsonl"),
            manifest_extra={"sweep_label": label,
                            "sweep_cell": digest},
        ))
    started = time.perf_counter()
    result = observed_spec.build().run(label=label)
    wall_s = time.perf_counter() - started
    report_dict = result.report.to_dict()
    # Stage timings are wall-clock facts: they belong to the runtime
    # sidecar (and the sweep manifest), never the deterministic payload.
    stage_timings = report_dict.pop("stage_timings", {})
    report_dict["stage_timings"] = {}
    payload = {
        "schema": CELL_SCHEMA,
        "label": label,
        "config_sha256": digest,
        "spec": spec.to_dict(),
        "seeds": spec.seeds(),
        "num_satellites": result.num_satellites,
        "num_stations": result.num_stations,
        "report": report_dict,
    }
    runtime = {"wall_s": wall_s, "stage_timings": stage_timings}
    return payload, runtime


def run_shard(args: tuple) -> list[dict]:
    """Run one shard: ``(index, [(label, spec_dict)], run_dir, trace_dir)``.

    Returns the finished entries; when ``run_dir`` is set each entry is
    also checkpointed as it completes.
    """
    from repro.runners.sweep import write_checkpoint

    shard_index, cell_dicts, run_dir, trace_dir = args
    entries: list[dict] = []
    for label, spec_dict in cell_dicts:
        spec = ScenarioSpec.from_dict(spec_dict)
        payload, runtime = run_cell(label, spec, trace_dir=trace_dir)
        runtime["shard"] = shard_index
        entry = {"cell": payload, "runtime": runtime}
        if run_dir is not None:
            write_checkpoint(run_dir, entry)
        entries.append(entry)
    return entries


def report_from_payload(payload: dict) -> SimulationReport:
    """The cell's :class:`SimulationReport`, rebuilt from its payload."""
    return SimulationReport.from_dict(payload["report"])
