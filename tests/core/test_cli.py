"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["teleport"])


class TestPasses:
    def test_prints_windows(self, capsys):
        assert main(["passes", "--hours", "12"]) == 0
        out = capsys.readouterr().out
        assert "passes" in out
        assert "max el" in out


class TestSchedule:
    def test_prints_assignments(self, capsys):
        assert main(["schedule", "--satellites", "10",
                     "--stations", "15", "--minute", "30"]) == 0
        out = capsys.readouterr().out
        assert "feasible links" in out

    def test_matcher_flag(self, capsys):
        assert main(["schedule", "--satellites", "6", "--stations", "10",
                     "--matcher", "greedy"]) == 0
        assert "greedy matching" in capsys.readouterr().out


class TestSimulate:
    def test_dgs_run(self, capsys):
        assert main(["simulate", "--hours", "1", "--satellites", "6",
                     "--stations", "10"]) == 0
        out = capsys.readouterr().out
        assert "delivered:" in out
        assert "latency" in out

    def test_matcher_flag(self, monkeypatch, capsys):
        from repro.scheduling import scheduler

        calls = []
        optimal = scheduler._MATCHERS["optimal"]

        def spy(graph, capacities=None):
            calls.append(graph.num_edges)
            return optimal(graph, capacities)

        monkeypatch.setitem(scheduler._MATCHERS, "optimal", spy)
        assert main(["simulate", "--hours", "1", "--satellites", "6",
                     "--stations", "10", "--matcher", "optimal"]) == 0
        assert "delivered:" in capsys.readouterr().out
        assert calls

    def test_baseline_run(self, capsys):
        assert main(["simulate", "--system", "baseline", "--hours", "1",
                     "--satellites", "6"]) == 0
        assert "baseline" in capsys.readouterr().out

    def test_traced_run_artifacts(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        manifest = tmp_path / "manifest.json"
        report = tmp_path / "report.json"
        assert main(["simulate", "--hours", "0.5", "--satellites", "5",
                     "--stations", "8",
                     "--trace", str(trace),
                     "--manifest", str(manifest),
                     "--json-out", str(report)]) == 0
        assert "stage timings" in capsys.readouterr().out
        from repro.obs import validate_trace_file
        from repro.simulation.metrics import SimulationReport

        assert validate_trace_file(str(trace)) > 0
        assert json.loads(manifest.read_text())["schema"] == "repro-manifest/1"
        loaded = SimulationReport.from_json(report.read_text())
        assert loaded.stage_timings


class TestValidateTrace:
    def test_valid_trace_ok(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        assert main(["simulate", "--hours", "0.25", "--satellites", "4",
                     "--stations", "6", "--trace", str(trace)]) == 0
        capsys.readouterr()
        assert main(["validate-trace", str(trace)]) == 0
        assert "schema ok" in capsys.readouterr().out

    def test_invalid_trace_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"kind": "mystery"}\n')
        assert main(["validate-trace", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro validate-trace: error:")
        assert err.count("\n") == 1


class TestErrorReporting:
    def test_missing_trace_file(self, capsys):
        assert main(["validate-trace", "/no/such/trace.jsonl"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_tle_file(self, capsys):
        assert main(["passes", "--tle-file", "/no/such/elements.tle"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unwritable_dataset_output(self, capsys):
        assert main(["dataset", "--stations", "3", "--satellites", "3",
                     "--days", "1",
                     "--output", "/no/such/dir/out.json"]) == 2
        assert "error:" in capsys.readouterr().err


class TestPassesTleFile:
    def test_passes_from_file(self, tmp_path, capsys):
        from datetime import datetime

        from repro.orbits.catalog import TLECatalog
        from repro.orbits.constellation import synthetic_leo_constellation

        catalog = TLECatalog()
        catalog.extend(
            synthetic_leo_constellation(2, datetime(2020, 6, 1), seed=7)
        )
        path = tmp_path / "fleet.tle"
        path.write_text(catalog.to_3le())
        assert main(["passes", "--tle-file", str(path),
                     "--satellites", "2", "--hours", "6"]) == 0
        assert "passes" in capsys.readouterr().out


class TestDataset:
    def test_stdout_json(self, capsys):
        assert main(["dataset", "--stations", "10", "--satellites", "5",
                     "--days", "1"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["stations"]) == 10
        assert len(data["satellites"]) == 5

    def test_file_output(self, tmp_path, capsys):
        target = tmp_path / "dataset.json"
        assert main(["dataset", "--stations", "8", "--satellites", "4",
                     "--days", "1", "--output", str(target)]) == 0
        data = json.loads(target.read_text())
        assert len(data["stations"]) == 8

    def test_filter_flag(self, capsys):
        assert main(["dataset", "--stations", "30", "--satellites", "4",
                     "--days", "1", "--filter"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert all(s["status"] == "online" for s in data["stations"])


class TestSweepGridFileErrors:
    """Bad --grid-file inputs keep the one-line-stderr + exit-2 contract."""

    def run_sweep(self, path, capsys):
        code = main(["sweep", "--grid-file", str(path), "--workers", "1"])
        err = capsys.readouterr().err
        return code, err

    def assert_one_line_error(self, code, err):
        assert code == 2
        assert err.startswith("repro sweep: error:")
        assert err.count("\n") == 1, f"stderr not one line: {err!r}"

    def test_missing_file(self, capsys):
        code, err = self.run_sweep("/no/such/grid.json", capsys)
        self.assert_one_line_error(code, err)
        assert "cannot read grid file" in err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "grid.json"
        path.write_text("{not json at all")
        code, err = self.run_sweep(path, capsys)
        self.assert_one_line_error(code, err)
        assert "not valid JSON" in err

    def test_not_a_list(self, tmp_path, capsys):
        path = tmp_path / "grid.json"
        path.write_text('{"label": "x"}')
        code, err = self.run_sweep(path, capsys)
        self.assert_one_line_error(code, err)
        assert "non-empty JSON list" in err

    def test_entry_without_spec(self, tmp_path, capsys):
        path = tmp_path / "grid.json"
        path.write_text('[{"label": "x"}]')
        code, err = self.run_sweep(path, capsys)
        self.assert_one_line_error(code, err)
        assert "grid entry 0" in err

    def test_mistyped_spec_field(self, tmp_path, capsys):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(
            [{"label": "bad", "spec": {"kind": "dgs",
                                       "station_fraction": "lots"}}]
        ))
        code, err = self.run_sweep(path, capsys)
        self.assert_one_line_error(code, err)
        assert "grid entry 0" in err

    def test_unknown_spec_field(self, tmp_path, capsys):
        # The retired path knobs are unknown keys like any other.
        path = tmp_path / "grid.json"
        for key, value in (("warp_drive", 9), ("contact_windows", False),
                           ("spatial_culling", True),
                           ("ephemeris_dtype", "float32"),
                           ("ephemeris_window_steps", 8)):
            path.write_text(json.dumps(
                [{"label": "bad", "spec": {"kind": "dgs", key: value}}]
            ))
            code, err = self.run_sweep(path, capsys)
            self.assert_one_line_error(code, err)
            assert key in err

    def test_grid_and_grid_file_mutually_exclusive(self, capsys):
        code = main(["sweep", "--grid", "fig3", "--grid-file", "x.json"])
        err = capsys.readouterr().err
        self.assert_one_line_error(code, err)
        assert "exactly one" in err


class TestServe:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.port == 0
        assert args.host == "127.0.0.1"
        assert args.pace == 0.0
        assert args.tenants is None

    def test_serve_smoke_over_http(self, tmp_path):
        """Boot `repro serve` as a subprocess, hit it, shut it down."""
        import http.client
        import os
        import pathlib
        import subprocess
        import sys as _sys

        import repro

        env = dict(os.environ)
        env["PYTHONPATH"] = str(pathlib.Path(repro.__file__).parents[1])
        report_path = tmp_path / "report.json"
        proc = subprocess.Popen(
            [_sys.executable, "-m", "repro.cli", "serve",
             "--satellites", "3", "--stations", "5", "--hours", "0.5",
             "--pace", "0.02", "--tenants", "balanced",
             "--value", "deadline", "--json-out", str(report_path)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        )
        try:
            banner = proc.stderr.readline()
            assert banner.startswith("repro serve: http://")
            port = int(banner.split("http://127.0.0.1:")[1].split(" ")[0])
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
            try:
                conn.request("GET", "/healthz")
                health = json.loads(conn.getresponse().read())
                assert health["status"] == "ok"
                conn.request("POST", "/shutdown", body="{}")
                shut = json.loads(conn.getresponse().read())
                assert "report" in shut
            finally:
                conn.close()
            out, _err = proc.communicate(timeout=60)
        finally:
            proc.kill()
        assert proc.returncode == 0
        assert out.startswith("served ")
        report = json.loads(report_path.read_text())
        assert report["delivered_bits"] >= 0.0


class TestEphemerisFlags:
    """The float64 ephemeris table is the only form; the flags that
    narrowed, streamed or shared it are retired."""

    def test_rejected_on_simulate_and_sweep(self, capsys):
        for argv in (["simulate", "--ephemeris-dtype", "float32"],
                     ["simulate", "--ephemeris-window", "8"],
                     ["sweep", "--grid", "fig3", "--share-ephemeris"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err


class TestWindowIndexFlag:
    """The contact-window index is always on; its switches are retired."""

    def test_rejected_on_simulate_and_serve(self, capsys):
        for argv in (["simulate", "--no-window-index"],
                     ["serve", "--no-window-index"],
                     ["simulate", "--no-culling"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_reports_identical_with_and_without_index(self, tmp_path, capsys):
        """The CLI's report equals the same spec run with the index detached."""
        from repro.core.scenarios import ScenarioSpec

        out = tmp_path / "on.json"
        assert main(["simulate", "--hours", "1", "--satellites", "6",
                     "--stations", "10", "--json-out", str(out)]) == 0
        capsys.readouterr()
        sim = ScenarioSpec.dgs(num_satellites=6, num_stations=10,
                               duration_s=3600.0).build().simulation
        sim.scheduler.window_index = None
        reports = {
            "on": json.loads(out.read_text()),
            "off": json.loads(sim.run().to_json()),
        }
        for report in reports.values():
            report.pop("stage_timings", None)
        assert reports["on"] == reports["off"]
        assert reports["on"]["delivered_bits"] > 0

    def test_operational_error_one_line_exit_2(self, capsys):
        """An unwritable --json-out: one stderr line, exit 2."""
        assert main(["simulate", "--hours", "0.5", "--satellites", "3",
                     "--stations", "5",
                     "--json-out", "/no/such/dir/report.json"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert len(err.strip().splitlines()) == 1
