"""Tests for the parallel sweep engine: shard, checkpoint, merge, resume.

The load-bearing property is byte-identity: the merged ``repro-sweep/1``
report must serialize to the same bytes whether the grid ran serially,
across a process pool, or through a kill/resume cycle.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.core.scenarios import ScenarioSpec
from repro.runners import (
    CELL_SCHEMA,
    SWEEP_MANIFEST_SCHEMA,
    SWEEP_SCHEMA,
    SweepCell,
    SweepRunner,
    merge_cells,
    report_from_payload,
    run_specs,
    shard_cells,
    sweep_report_json,
)
from repro.runners.sweep import checkpoint_path, load_checkpoint, write_checkpoint

DURATION_S = 900.0


def tiny_spec(fleet_seed: int = 7, **kwargs) -> ScenarioSpec:
    return ScenarioSpec.dgs(
        num_satellites=2, num_stations=5, duration_s=DURATION_S,
        fleet_seed=fleet_seed, **kwargs,
    )


def tiny_grid(n: int = 4) -> list[SweepCell]:
    return [SweepCell(f"cell{i}", tiny_spec(fleet_seed=7 + i))
            for i in range(n)]


class TestSweepCell:
    def test_config_hash_is_stable(self):
        a, b = SweepCell("a", tiny_spec()), SweepCell("b", tiny_spec())
        assert a.config_sha256() == b.config_sha256()  # label is not identity

    def test_config_hash_separates_specs(self):
        assert (SweepCell("a", tiny_spec(fleet_seed=7)).config_sha256()
                != SweepCell("a", tiny_spec(fleet_seed=8)).config_sha256())

    def test_cost_scales_with_population_and_steps(self):
        small = SweepCell("s", tiny_spec())
        big = SweepCell("b", ScenarioSpec.dgs(
            num_satellites=4, num_stations=5, duration_s=2 * DURATION_S,
        ))
        assert big.cost_estimate() == pytest.approx(4 * small.cost_estimate())

    def test_baseline_cost_uses_station_count(self):
        cell = SweepCell("b", ScenarioSpec.baseline(
            num_satellites=2, duration_s=DURATION_S, station_count=5,
        ))
        steps = int(DURATION_S // cell.spec.step_s)
        assert cell.cost_estimate() == pytest.approx(2 * 5 * steps)

    def test_lookahead_schedulers_cost_more_than_live(self):
        """Horizon/planned/beam cells rebuild graphs beyond raw steps."""
        live = SweepCell("l", tiny_spec()).cost_estimate()
        horizon = SweepCell("h", tiny_spec(
            scheduler="horizon", horizon_steps=10,
        )).cost_estimate()
        planned = SweepCell("p", tiny_spec(
            execution_mode="planned",
        )).cost_estimate()
        beams = SweepCell("bf", tiny_spec(
            scheduler="beamforming", beams=3,
        )).cost_estimate()
        assert horizon > 2 * live
        assert planned > 2 * live
        assert beams == pytest.approx(3 * live)


class TestSharding:
    def test_deterministic(self):
        cells = tiny_grid(7)
        assert shard_cells(cells, 3) == shard_cells(list(reversed(cells)), 3)

    def test_partition_is_exact(self):
        cells = tiny_grid(7)
        shards = shard_cells(cells, 3)
        flattened = [c.config_sha256() for shard in shards for c in shard]
        assert sorted(flattened) == sorted(c.config_sha256() for c in cells)
        assert len(flattened) == len(set(flattened))

    def test_more_workers_than_cells_drops_empty_shards(self):
        shards = shard_cells(tiny_grid(2), 8)
        assert len(shards) == 2
        assert all(shard for shard in shards)

    def test_balances_heterogeneous_costs(self):
        cells = tiny_grid(2) + [
            SweepCell("heavy", ScenarioSpec.dgs(
                num_satellites=8, num_stations=5, duration_s=4 * DURATION_S,
            )),
        ]
        shards = shard_cells(cells, 2)
        heavy_shard = next(
            s for s in shards if any(c.label == "heavy" for c in s)
        )
        # LPT never co-locates the dominating cell with the whole remainder.
        assert len(heavy_shard) < len(cells)

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError, match="workers"):
            shard_cells(tiny_grid(2), 0)


class TestSpecSerialization:
    def test_round_trip_preserves_identity(self):
        spec = tiny_spec(weather_intensity=2.0, scheduler="horizon",
                         horizon_steps=5, fault_intensity=0.25)
        clone = ScenarioSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.config_sha256() == spec.config_sha256()

    def test_from_dict_rejects_unknown_keys(self):
        raw = tiny_spec().to_dict()
        raw["warp_drive"] = True
        with pytest.raises(ValueError, match="warp_drive"):
            ScenarioSpec.from_dict(raw)

    def test_retired_path_knobs_rejected_hash_and_seeds_kept(self):
        """``spatial_culling``/``contact_windows`` and
        ``ephemeris_dtype``/``ephemeris_window_steps`` are gone from the
        spec, but the hash and derived seeds still count them at their
        old defaults, so checkpoint keys and seeds match specs that
        carried them."""
        spec = ScenarioSpec.dgs()
        raw = spec.to_dict()
        for key, value in (("spatial_culling", True),
                           ("contact_windows", True),
                           ("ephemeris_dtype", "float64"),
                           ("ephemeris_window_steps", 0)):
            assert key not in raw
            with pytest.raises(ValueError, match=key):
                ScenarioSpec.from_dict({**raw, key: value})
            with pytest.raises(TypeError):
                ScenarioSpec.dgs(**{key: value})
        # Values recorded before the retirements, when the four keys
        # were spec fields at these defaults.
        assert spec.config_sha256() == (
            "7cd85f5d689d9ec2a6437bb0ae2afde8bbfdd3facddbad79586b70c55b23173c"
        )
        derived = spec.derive_seeds(0)
        assert derived.seeds() == {
            "fleet": 851242861, "weather": 1274414154, "network": 463497898,
        }
        assert (derived.fault_seed, derived.demand_seed, derived.storm_seed,
                derived.diversity_seed) == (
            256580227, 954093406, 555133700, 2094889396,
        )

    def test_derive_seeds_is_deterministic(self):
        spec = tiny_spec()
        assert spec.derive_seeds(1).seeds() == spec.derive_seeds(1).seeds()
        assert spec.derive_seeds(1).seeds() != spec.derive_seeds(2).seeds()

    def test_derive_seeds_keyed_by_seed_free_identity(self):
        # Two cells differing only in their seed knobs share one derived
        # seed set -- the sweep seed controls the whole grid's RNG.
        a = tiny_spec(fleet_seed=7).derive_seeds(99)
        b = tiny_spec(fleet_seed=8).derive_seeds(99)
        assert a.seeds() == b.seeds()
        c = tiny_spec(fleet_seed=7, weather_intensity=2.0).derive_seeds(99)
        assert c.seeds() != a.seeds()


class TestCheckpoints:
    def _entry(self, cell: SweepCell) -> dict:
        return {
            "cell": {
                "schema": CELL_SCHEMA,
                "label": cell.label,
                "config_sha256": cell.config_sha256(),
                "spec": cell.spec.to_dict(),
                "report": {"delivered_bits": 1.0},
            },
            "runtime": {"wall_s": 0.1, "shard": 0},
        }

    def test_round_trip(self, tmp_path):
        cell = tiny_grid(1)[0]
        entry = self._entry(cell)
        write_checkpoint(str(tmp_path), entry)
        assert load_checkpoint(str(tmp_path), cell) == entry

    def test_missing_returns_none(self, tmp_path):
        assert load_checkpoint(str(tmp_path), tiny_grid(1)[0]) is None

    def test_corrupt_returns_none(self, tmp_path):
        cell = tiny_grid(1)[0]
        path = checkpoint_path(str(tmp_path), cell.config_sha256())
        os.makedirs(os.path.dirname(path))
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{truncated")
        assert load_checkpoint(str(tmp_path), cell) is None

    def test_edited_spec_invalidates_checkpoint(self, tmp_path):
        cell = tiny_grid(1)[0]
        entry = self._entry(cell)
        entry["cell"]["spec"]["duration_s"] = 123.0  # grid was edited
        write_checkpoint(str(tmp_path), entry)
        assert load_checkpoint(str(tmp_path), cell) is None


class TestMerge:
    def test_orders_by_config_hash(self):
        entries = [
            {"cell": {"config_sha256": "bb", "label": "late"}},
            {"cell": {"config_sha256": "aa", "label": "early"}},
        ]
        merged = merge_cells(entries)
        assert merged["schema"] == SWEEP_SCHEMA
        assert merged["cell_count"] == 2
        assert [c["label"] for c in merged["cells"]] == ["early", "late"]

    def test_json_is_canonical(self):
        merged = merge_cells([])
        assert sweep_report_json(merged) == sweep_report_json(
            json.loads(sweep_report_json(merged))
        )


class TestRunnerValidation:
    def test_empty_grid(self):
        with pytest.raises(ValueError, match="empty"):
            SweepRunner([])

    def test_duplicate_labels(self):
        cells = [SweepCell("x", tiny_spec(7)), SweepCell("x", tiny_spec(8))]
        with pytest.raises(ValueError, match="duplicate cell labels"):
            SweepRunner(cells)

    def test_duplicate_specs(self):
        cells = [SweepCell("a", tiny_spec()), SweepCell("b", tiny_spec())]
        with pytest.raises(ValueError, match="duplicate spec"):
            SweepRunner(cells)

    def test_trace_requires_run_dir(self):
        with pytest.raises(ValueError, match="run_dir"):
            SweepRunner(tiny_grid(1), trace=True)

    def test_resume_requires_run_dir(self):
        with pytest.raises(ValueError, match="run_dir"):
            SweepRunner(tiny_grid(1)).run(resume=True)


@pytest.fixture(scope="module")
def serial_result(tmp_path_factory):
    run_dir = tmp_path_factory.mktemp("serial")
    return SweepRunner(tiny_grid(), run_dir=str(run_dir), workers=0).run()


class TestEquivalence:
    def test_parallel_matches_serial_bytes(self, serial_result):
        parallel = SweepRunner(tiny_grid(), workers=2).run()
        assert parallel.to_json() == serial_result.to_json()

    def test_resume_matches_serial_bytes(self, serial_result, tmp_path):
        # Simulate a killed sweep: two of four checkpoints survive.
        grid = tiny_grid()
        run_dir = str(tmp_path / "resumed")
        for cell in grid[:2]:
            entry = load_checkpoint(
                os.path.dirname(serial_result.report_path), cell
            )
            write_checkpoint(run_dir, entry)
        resumed = SweepRunner(grid, run_dir=run_dir, workers=2).run(
            resume=True
        )
        assert resumed.skipped == 2
        assert resumed.completed == 2
        assert resumed.to_json() == serial_result.to_json()
        with open(resumed.report_path, encoding="utf-8") as handle:
            assert handle.read() == serial_result.to_json()

    def test_fresh_run_ignores_checkpoints_without_resume(self, tmp_path):
        grid = tiny_grid(2)
        run_dir = str(tmp_path)
        first = SweepRunner(grid, run_dir=run_dir).run()
        again = SweepRunner(grid, run_dir=run_dir).run(resume=False)
        assert again.skipped == 0
        assert again.to_json() == first.to_json()


class TestArtifacts:
    def test_report_schema_and_payloads(self, serial_result):
        merged = serial_result.merged
        assert merged["schema"] == SWEEP_SCHEMA
        assert merged["cell_count"] == 4
        hashes = [c["config_sha256"] for c in merged["cells"]]
        assert hashes == sorted(hashes)
        for payload in merged["cells"]:
            assert payload["schema"] == CELL_SCHEMA
            assert payload["report"]["stage_timings"] == {}
            assert payload["seeds"]["fleet"] == payload["spec"]["fleet_seed"]
            report = report_from_payload(payload)
            assert report.generated_bits > 0

    def test_manifest_records_runtime_facts(self, serial_result):
        manifest = serial_result.manifest
        assert manifest["schema"] == SWEEP_MANIFEST_SCHEMA
        assert manifest["workers"] == 0
        assert manifest["cell_count"] == 4
        assert manifest["completed_cells"] == 4
        assert manifest["resumed_cells"] == 0
        assert [h for shard in manifest["shard_assignment"] for h in shard]
        for digest, cell in manifest["cells"].items():
            assert cell["wall_s"] > 0
            assert cell["shard"] == 0
            assert cell["resumed"] is False
            assert cell["cost_estimate"] > 0
            assert len(digest) == 64

    def test_checkpoints_on_disk(self, serial_result):
        run_dir = os.path.dirname(serial_result.report_path)
        for cell in tiny_grid():
            assert os.path.exists(
                checkpoint_path(run_dir, cell.config_sha256())
            )

    def test_traces_validate(self, tmp_path):
        from repro.obs import validate_trace_file

        grid = tiny_grid(2)
        runner = SweepRunner(grid, run_dir=str(tmp_path), trace=True)
        result = runner.run()
        assert result.manifest["traced"] is True
        for cell in grid:
            trace = tmp_path / "traces" / f"{cell.config_sha256()}.jsonl"
            assert validate_trace_file(str(trace)) > 0

    def test_trace_does_not_change_report_bytes(self, serial_result,
                                                tmp_path):
        traced = SweepRunner(
            tiny_grid(), run_dir=str(tmp_path), trace=True
        ).run()
        assert traced.to_json() == serial_result.to_json()


class TestRunSpecs:
    def test_returns_payloads_by_label(self):
        grid = tiny_grid(2)
        payloads = run_specs(grid)
        assert set(payloads) == {"cell0", "cell1"}
        assert payloads["cell0"]["label"] == "cell0"

    def test_sweep_seed_rewrites_cell_seeds(self):
        grid = [
            SweepCell("calm", tiny_spec(weather_intensity=1.0)),
            SweepCell("stormy", tiny_spec(weather_intensity=2.0)),
        ]
        seeded = SweepRunner(grid, workers=0, sweep_seed=5)
        derived = {cell.label: cell.spec.seeds() for cell in seeded.cells}
        assert derived["calm"] != grid[0].spec.seeds()
        assert derived["calm"] != derived["stormy"]

    def test_sweep_seed_collapses_seed_only_grids(self):
        # Cells distinguished only by their seed knobs become identical
        # once the sweep seed rewrites them; the runner must say so
        # rather than silently running one cell twice.
        with pytest.raises(ValueError, match="duplicate spec"):
            SweepRunner(tiny_grid(2), sweep_seed=5)


class TestNamedGrids:
    def test_build_grid_names(self):
        from repro.runners.grids import GRID_BUILDERS, build_grid

        for name in GRID_BUILDERS:
            cells = build_grid(name, 3600.0, 0.1)
            assert cells
            labels = [c.label for c in cells]
            assert len(labels) == len(set(labels))
            hashes = [c.config_sha256() for c in cells]
            assert len(hashes) == len(set(hashes))

    def test_build_grid_unknown_name(self):
        from repro.runners.grids import build_grid

        with pytest.raises(ValueError, match="unknown grid"):
            build_grid("nope", 3600.0, 0.1)

    def test_fig3_seed_grid_has_eight_cells(self):
        from repro.runners.grids import fig3_seed_grid

        cells = fig3_seed_grid(3600.0, 0.1)
        assert len(cells) == 8

    def test_grid_file_round_trip(self, tmp_path):
        from repro.runners.grids import cells_from_json, load_grid_file

        grid = tiny_grid(2)
        text = json.dumps([
            {"label": c.label, "spec": c.spec.to_dict()} for c in grid
        ])
        assert cells_from_json(text) == grid
        path = tmp_path / "grid.json"
        path.write_text(text, encoding="utf-8")
        assert load_grid_file(str(path)) == grid

    def test_grid_file_rejects_garbage(self):
        from repro.runners.grids import cells_from_json

        with pytest.raises(ValueError, match="non-empty"):
            cells_from_json("[]")
        with pytest.raises(ValueError, match="spec"):
            cells_from_json('[{"label": "x"}]')
