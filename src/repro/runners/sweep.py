"""The parallel sweep engine: shard, checkpoint, merge, resume.

The paper's evaluation is a grid of simulations; this runner takes a grid
of frozen :class:`~repro.core.scenarios.ScenarioSpec` cells and executes
it across ``N`` worker processes with deterministic sharding (longest
processing time first over a static per-cell cost estimate, ties broken
by config hash), checkpointing each finished cell's report under the
spec's config hash so a killed sweep resumes where it stopped.

The merged output is the schema-versioned ``repro-sweep/1`` report: every
cell's :class:`~repro.simulation.metrics.SimulationReport`, spec, seeds,
and population sizes, ordered by config hash.  Wall-clock facts (per-cell
durations, shard assignment, worker count, stage timings) live in the
separate ``repro-sweep-manifest/1`` so the report is **byte-identical**
whether the grid ran serially, in parallel, or across a kill/resume --
the property the equivalence tests assert.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

from repro.core.scenarios import ScenarioSpec
from repro.obs.manifest import build_manifest

#: Version tags of the sweep artifacts.
SWEEP_SCHEMA = "repro-sweep/1"
SWEEP_MANIFEST_SCHEMA = "repro-sweep-manifest/1"
CELL_SCHEMA = "repro-sweep-cell/1"

#: File layout inside a run directory.
CELLS_SUBDIR = "cells"
TRACES_SUBDIR = "traces"
REPORT_FILENAME = "sweep_report.json"
MANIFEST_FILENAME = "sweep_manifest.json"


@dataclass(frozen=True)
class SweepCell:
    """One grid cell: a display label and the frozen spec behind it."""

    label: str
    spec: ScenarioSpec

    def config_sha256(self) -> str:
        return self.spec.config_sha256()

    def cost_estimate(self) -> float:
        """Static relative cost: contact-graph work x graphs built.

        Deterministic by construction (no timing involved), so the shard
        assignment it drives is reproducible across runs and machines.
        Graph count scales beyond raw steps for the scheduler families
        that rebuild graphs per lookahead step: the horizon scheduler
        prices ``horizon_steps`` instants per replan, and planned
        execution re-runs the whole matcher over each plan horizon -- a
        2.5k-satellite horizon cell costs hundreds of times a same-size
        live cell, which uniform per-step costing shards unfairly.
        """
        from repro.simulation.config import SimulationConfig

        spec = self.spec
        if spec.kind == "baseline":
            stations = spec.station_count
        else:
            stations = max(1, round(spec.num_stations * spec.station_fraction))
        steps = max(1, int(spec.duration_s // spec.step_s))
        graphs = float(steps)
        if spec.scheduler == "horizon" and spec.horizon_steps > 1:
            # HorizonScheduler re-prices horizon_steps instants every
            # replan_steps (= max(1, horizon_steps // 2)) steps.
            replan = max(1, spec.horizon_steps // 2)
            graphs += steps * (spec.horizon_steps / replan)
        if spec.execution_mode == "planned":
            # Each plan refresh rolls the matcher over the plan horizon.
            refreshes = max(1.0, spec.duration_s / SimulationConfig.plan_refresh_s)
            graphs += refreshes * (SimulationConfig.plan_horizon_s / spec.step_s)
        if spec.scheduler == "beamforming" and spec.beams > 1:
            graphs *= spec.beams
        return float(spec.num_satellites) * stations * graphs


def shard_cells(cells: list[SweepCell],
                workers: int) -> list[list[SweepCell]]:
    """Partition cells across ``workers`` shards, deterministically.

    Longest-processing-time-first over :meth:`SweepCell.cost_estimate`:
    cells are placed heaviest-first onto the currently lightest shard
    (ties: lowest shard index), so one expensive fig3 variant cannot pile
    onto the same worker as another.  Hash-ordered tie-breaking makes the
    assignment a pure function of the grid.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    order = sorted(
        cells, key=lambda c: (-c.cost_estimate(), c.config_sha256())
    )
    shards: list[list[SweepCell]] = [[] for _ in range(workers)]
    loads = [0.0] * workers
    for cell in order:
        lightest = min(range(workers), key=lambda i: (loads[i], i))
        shards[lightest].append(cell)
        loads[lightest] += cell.cost_estimate()
    return [shard for shard in shards if shard]


def checkpoint_path(run_dir: str, config_sha256: str) -> str:
    return os.path.join(run_dir, CELLS_SUBDIR, f"{config_sha256}.json")


def write_checkpoint(run_dir: str, entry: dict) -> str:
    """Atomically persist one finished cell (tmp file + rename)."""
    path = checkpoint_path(run_dir, entry["cell"]["config_sha256"])
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(entry, handle, sort_keys=True, indent=2)
        handle.write("\n")
    os.replace(tmp, path)
    return path


def load_checkpoint(run_dir: str, cell: SweepCell) -> dict | None:
    """A previously finished cell's entry, or None when absent/stale.

    A checkpoint only counts when its stored spec matches the grid's --
    a run directory reused across edited grids must re-run edited cells,
    never serve a stale report for them.
    """
    path = checkpoint_path(run_dir, cell.config_sha256())
    try:
        with open(path, "r", encoding="utf-8") as handle:
            entry = json.load(handle)
    except (OSError, json.JSONDecodeError):
        return None
    payload = entry.get("cell", {})
    if payload.get("schema") != CELL_SCHEMA:
        return None
    if payload.get("config_sha256") != cell.config_sha256():
        return None
    if payload.get("spec") != cell.spec.to_dict():
        return None
    return entry


def merge_cells(entries: list[dict]) -> dict:
    """The deterministic ``repro-sweep/1`` report from finished cells."""
    payloads = sorted(
        (entry["cell"] for entry in entries),
        key=lambda payload: payload["config_sha256"],
    )
    return {
        "schema": SWEEP_SCHEMA,
        "cell_count": len(payloads),
        "cells": payloads,
    }


def sweep_report_json(merged: dict) -> str:
    """Canonical serialized form (the byte-identity contract)."""
    return json.dumps(merged, sort_keys=True, indent=2) + "\n"


@dataclass
class SweepResult:
    """A finished sweep: the merged report plus its runtime manifest."""

    merged: dict
    manifest: dict
    completed: int
    skipped: int
    report_path: str | None = None
    manifest_path: str | None = None

    def to_json(self) -> str:
        return sweep_report_json(self.merged)

    def payloads_by_label(self) -> dict[str, dict]:
        return {cell["label"]: cell for cell in self.merged["cells"]}


class SweepRunner:
    """Execute a grid of scenario specs, optionally across processes.

    ``workers=0`` runs every cell in this process (the serial reference
    path -- no pool, shared in-process caches); ``workers>=1`` shards the
    grid across that many worker processes.  Either way the merged report
    bytes are identical, because cells are independent, seeded, and the
    merge order is the config-hash order, not the execution order.

    ``run_dir`` enables checkpointing (and is required for ``resume`` and
    for per-worker traces); ``sweep_seed`` re-derives every cell's RNG
    seeds from the sweep seed (grids that vary only non-seed knobs then
    share identical derived seeds per cell identity).
    """

    def __init__(self, cells: list[SweepCell], *, run_dir: str | None = None,
                 workers: int = 0, sweep_seed: int | None = None,
                 trace: bool = False):
        if sweep_seed is not None:
            cells = [
                replace(cell, spec=cell.spec.derive_seeds(sweep_seed))
                for cell in cells
            ]
        if not cells:
            raise ValueError("sweep grid is empty")
        labels = [cell.label for cell in cells]
        if len(set(labels)) != len(labels):
            dupes = sorted({lab for lab in labels if labels.count(lab) > 1})
            raise ValueError(f"duplicate cell labels in grid: {dupes}")
        by_hash: dict[str, str] = {}
        for cell in cells:
            digest = cell.config_sha256()
            if digest in by_hash:
                raise ValueError(
                    f"duplicate spec in grid: cells {by_hash[digest]!r} and "
                    f"{cell.label!r} hash to {digest[:12]}"
                )
            by_hash[digest] = cell.label
        if trace and run_dir is None:
            raise ValueError("per-worker traces require a run_dir")
        self.cells = list(cells)
        self.run_dir = run_dir
        self.workers = int(workers)
        self.trace = trace

    # -- execution ----------------------------------------------------------

    def run(self, resume: bool = False) -> SweepResult:
        """Run (or finish) the grid and merge the per-cell reports."""
        from repro.runners.worker import run_shard

        if resume and self.run_dir is None:
            raise ValueError("resume requires a run_dir")
        done: list[dict] = []
        pending: list[SweepCell] = []
        if resume:
            for cell in self.cells:
                entry = load_checkpoint(self.run_dir, cell)
                if entry is not None:
                    entry.setdefault("runtime", {})["resumed"] = True
                    done.append(entry)
                else:
                    pending.append(cell)
        else:
            pending = list(self.cells)
        trace_dir = (
            os.path.join(self.run_dir, TRACES_SUBDIR) if self.trace else None
        )
        shard_hashes: list[list[str]] = []
        if pending and self.workers >= 1:
            shards = shard_cells(pending, self.workers)
            shard_hashes = [
                [cell.config_sha256() for cell in shard] for shard in shards
            ]
            shard_args = [
                (
                    index,
                    [(cell.label, cell.spec.to_dict()) for cell in shard],
                    self.run_dir,
                    trace_dir,
                )
                for index, shard in enumerate(shards)
            ]
            with ProcessPoolExecutor(max_workers=len(shards)) as pool:
                for entries in pool.map(run_shard, shard_args):
                    done.extend(entries)
        elif pending:
            # Serial reference path: one in-process "shard" in merge order.
            ordered = sorted(pending, key=lambda c: c.config_sha256())
            shard_hashes = [[cell.config_sha256() for cell in ordered]]
            done.extend(run_shard((
                0,
                [(cell.label, cell.spec.to_dict()) for cell in ordered],
                self.run_dir,
                trace_dir,
            )))
        merged = merge_cells(done)
        skipped = len(self.cells) - len(pending)
        manifest = self._build_manifest(done, shard_hashes, skipped)
        result = SweepResult(
            merged=merged, manifest=manifest,
            completed=len(pending), skipped=skipped,
        )
        if self.run_dir is not None:
            os.makedirs(self.run_dir, exist_ok=True)
            result.report_path = os.path.join(self.run_dir, REPORT_FILENAME)
            with open(result.report_path, "w", encoding="utf-8") as handle:
                handle.write(result.to_json())
            result.manifest_path = os.path.join(
                self.run_dir, MANIFEST_FILENAME
            )
            with open(result.manifest_path, "w", encoding="utf-8") as handle:
                json.dump(manifest, handle, sort_keys=True, indent=2)
                handle.write("\n")
        return result

    def _build_manifest(self, entries: list[dict],
                        shard_hashes: list[list[str]],
                        skipped: int) -> dict:
        """The runtime side: who ran what, where, and for how long."""
        cells = {}
        for entry in entries:
            payload, runtime = entry["cell"], entry.get("runtime", {})
            cells[payload["config_sha256"]] = {
                "label": payload["label"],
                "shard": runtime.get("shard"),
                "wall_s": runtime.get("wall_s"),
                "resumed": runtime.get("resumed", False),
                "cost_estimate": SweepCell(
                    payload["label"],
                    ScenarioSpec.from_dict(payload["spec"]),
                ).cost_estimate(),
            }
        return build_manifest(extra={
            "schema": SWEEP_MANIFEST_SCHEMA,
            "workers": self.workers,
            "cell_count": len(self.cells),
            "completed_cells": len(self.cells) - skipped,
            "resumed_cells": skipped,
            "shard_assignment": shard_hashes,
            "traced": self.trace,
            "cells": cells,
        })


def run_specs(cells: list[SweepCell], *, workers: int = 0,
              run_dir: str | None = None,
              resume: bool = False) -> dict[str, dict]:
    """Run a grid and return ``label -> cell payload`` (experiments' view).

    The payload is the deterministic half of a checkpoint: spec, seeds,
    population sizes, and the full serialized
    :class:`~repro.simulation.metrics.SimulationReport` under ``report``.
    """
    runner = SweepRunner(cells, run_dir=run_dir, workers=workers)
    result = runner.run(resume=resume)
    return result.payloads_by_label()
