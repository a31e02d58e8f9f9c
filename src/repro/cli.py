"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``passes``         -- predict contact windows for a satellite (synthetic
                        or from a TLE file) over a ground site.
* ``schedule``       -- print one scheduling instant for a synthetic world.
* ``simulate``       -- run a data-transfer simulation and print the
                        report (optionally tracing it and saving JSON).
* ``experiment``     -- run one paper experiment (fig3a, fig3b, fig3c,
                        summary, setup, ablations, robustness).
* ``sweep``          -- run a grid of frozen scenario specs across worker
                        processes, with checkpoint/resume and a merged
                        schema-versioned report.
* ``serve``          -- boot the scheduler-as-a-service daemon: a ticking
                        simulation session behind HTTP endpoints for
                        request submission, plan polling, and metrics.
* ``dataset``        -- generate a SatNOGS-like dataset as JSON.
* ``validate-trace`` -- schema-check a JSONL trace emitted by a run.

Everything is synthetic and seeded, so runs are reproducible; this is the
operational face of the library for people who want numbers without
writing Python.  Every command exits non-zero with a one-line message on
stderr for operational errors (missing files, malformed inputs) instead
of a traceback.
"""

from __future__ import annotations

import argparse
import sys
from datetime import datetime, timedelta

EPOCH = datetime(2020, 6, 1)


def _load_tles(path: str, limit: int):
    """Element sets from a 2LE/3LE file (newest per satellite, capped)."""
    from repro.orbits.catalog import TLECatalog

    with open(path, "r", encoding="utf-8") as handle:
        catalog = TLECatalog.from_3le(handle.read())
    tles = [catalog.latest(satnum) for satnum in catalog.satnums]
    return tles[:limit] if limit > 0 else tles


def _cmd_passes(args: argparse.Namespace) -> int:
    from repro.orbits.passes import PassPredictor
    from repro.orbits.sgp4 import SGP4

    if args.tle_file:
        tles = _load_tles(args.tle_file, args.satellites)
        # Real elements may be epoch-ed far from the synthetic scenario
        # epoch; predict from the catalog's newest epoch instead.
        predictor_start = max(tle.epoch for tle in tles)
    else:
        from repro.orbits.constellation import synthetic_leo_constellation

        tles = synthetic_leo_constellation(
            args.satellites, EPOCH, seed=args.seed
        )
        predictor_start = EPOCH
    for tle in tles[: args.satellites]:
        predictor = PassPredictor(
            SGP4(tle).propagate, args.lat, args.lon, 0.0,
            min_elevation_deg=args.min_elevation,
        )
        windows = list(
            predictor.passes(predictor_start,
                             predictor_start + timedelta(hours=args.hours))
        )
        print(f"{tle.name} (incl {tle.inclination_deg:.1f} deg): "
              f"{len(windows)} passes")
        for w in windows:
            print(f"  {w.rise_time:%Y-%m-%d %H:%M:%S} -> "
                  f"{w.set_time:%H:%M:%S}  {w.duration_seconds / 60:4.1f} min  "
                  f"max el {w.max_elevation_deg:4.1f} deg")
    return 0


def _cmd_schedule(args: argparse.Namespace) -> int:
    from repro.core.scenarios import build_paper_fleet, build_paper_weather
    from repro.groundstations.network import satnogs_like_network
    from repro.scheduling.scheduler import DownlinkScheduler
    from repro.scheduling.value_functions import LatencyValue

    fleet = build_paper_fleet(args.satellites, seed=args.seed)
    for sat in fleet:
        sat.generate_data(EPOCH - timedelta(hours=1), 3600.0)
    network = satnogs_like_network(args.stations, seed=args.seed + 1)
    scheduler = DownlinkScheduler(
        fleet, network, LatencyValue(),
        matcher=args.matcher, weather=build_paper_weather(),
    )
    when = EPOCH + timedelta(minutes=args.minute)
    step = scheduler.schedule_step(when)
    print(f"{when:%Y-%m-%d %H:%M} UTC: {step.num_edges} feasible links, "
          f"{len(step.assignments)} scheduled ({args.matcher} matching)")
    for a in sorted(step.assignments, key=lambda a: -a.weight):
        print(f"  {fleet[a.satellite_index].satellite_id:>12s} -> "
              f"{network[a.station_index].station_id:<8s} "
              f"{a.bitrate_bps / 1e6:7.1f} Mbps  el {a.elevation_deg:4.1f}  "
              f"value {a.weight:.1f}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.core.scenarios import ScenarioSpec
    from repro.obs import ObsConfig

    observability = None
    if args.trace or args.manifest or args.profile_dir:
        observability = ObsConfig(
            trace_path=args.trace,
            manifest_path=args.manifest,
            profile_dir=args.profile_dir,
            profile_spans=("run",) if args.profile_dir else (),
        )
    tenants = None
    if args.tenants:
        from repro.demand import tenant_mix

        tenants = tenant_mix(args.tenants)
    common = dict(
        value=args.value, num_satellites=args.satellites,
        duration_s=args.hours * 3600.0, observability=observability,
        tenants=tenants, weather=args.weather,
        storm_rate=args.storm_rate, storm_speed=args.storm_speed,
        matcher=args.matcher,
    )
    if args.diversity > 0:
        common.update(execution_mode="diversity",
                      diversity_receivers=args.diversity)
    if args.system == "baseline":
        spec = ScenarioSpec.baseline(**common)
    else:
        spec = ScenarioSpec.dgs(
            station_fraction=args.fraction,
            num_stations=args.stations,
            constellation=args.constellation,
            **common,
        )
    sim = spec.build().simulation
    report = sim.run()
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            handle.write(report.to_json(indent=2))
        print(f"wrote report to {args.json_out}", file=sys.stderr)
    lat = report.latency_percentiles_min((50, 90, 99))
    backlog = report.backlog_percentiles_gb((50, 90, 99))
    print(f"system: {args.system} (value function: {args.value})")
    print(f"generated: {report.generated_bits / 8e12:8.2f} TB")
    print(f"delivered: {report.delivered_tb:8.2f} TB "
          f"({report.delivery_fraction:.1%})")
    print(f"latency  p50/p90/p99: {lat[50]:.1f} / {lat[90]:.1f} / "
          f"{lat[99]:.1f} min  (mean {report.mean_latency_min():.1f})")
    print(f"backlog  p50/p90/p99: {backlog[50]:.2f} / {backlog[90]:.2f} / "
          f"{backlog[99]:.2f} GB")
    if report.tenant_reports:
        print(f"tenants (fairness {report.tenant_fairness:.3f}, "
              f"{report.total_sla_violations()} SLA violations):")
        for tenant_id, block in sorted(report.tenant_reports.items()):
            print(f"  {tenant_id:<12s} tier {block['tier']}  "
                  f"{block['delivered_gb']:8.1f} GB delivered  "
                  f"deadline hit {block['deadline_hit_rate']:.1%}  "
                  f"violations {block['sla_violations']}")
    if report.diversity:
        d = report.diversity
        per_copy = (d["copies_decoded"] / d["copies_attempted"]
                    if d["copies_attempted"] else 0.0)
        combined = (d["combined_decoded"] / d["passes"]
                    if d["passes"] else 0.0)
        print(f"diversity: {d['passes']} pass steps, "
              f"{d['copies_attempted']} copies "
              f"(decode {per_copy:.1%} per copy, {combined:.1%} combined), "
              f"{d['rescued_by_diversity']} rescued by extra receivers")
    if report.stage_timings:
        total = report.stage_timings.get("run", 0.0)
        print(f"stage timings ({total:.2f} s run loop, "
              f"{report.stage_coverage():.0%} covered):")
        for name, seconds in sorted(report.run_stage_seconds().items(),
                                    key=lambda kv: -kv[1]):
            print(f"  {name:<16s} {seconds:8.2f} s")
    if args.plot and report.all_latencies_s().size:
        from repro.analysis.plots import render_cdfs

        print()
        print(render_cdfs(
            {"latency": [v / 60.0 for v in report.all_latencies_s()]},
            title="latency CDF", x_label="minutes",
        ))
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    import inspect

    from repro import experiments

    modules = {
        "fig3a": experiments.fig3a,
        "fig3b": experiments.fig3b,
        "fig3c": experiments.fig3c,
        "summary": experiments.summary,
        "setup": experiments.setup_validation,
        "ablations": experiments.ablations,
        "robustness": experiments.robustness,
        "storage": experiments.storage_requirement,
    }
    module = modules[args.name]
    kwargs = {}
    if "workers" in inspect.signature(module.run).parameters:
        kwargs["workers"] = args.workers
    elif args.workers:
        print(f"repro experiment: note: {args.name} runs in-process; "
              "--workers ignored", file=sys.stderr)
    result = module.run(duration_s=args.hours * 3600.0, scale=args.scale,
                        **kwargs)
    print(result.render())
    if args.plot and result.series:
        from repro.analysis.plots import render_cdfs

        plottable = {k: v for k, v in result.series.items() if len(v) > 1}
        if plottable:
            print()
            print(render_cdfs(plottable, title=result.description))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.runners import SweepRunner
    from repro.runners.grids import build_grid, load_grid_file

    if bool(args.grid) == bool(args.grid_file):
        raise ValueError("pass exactly one of --grid or --grid-file")
    if args.workers < 0:
        raise ValueError(f"--workers must be >= 0, got {args.workers}")
    if args.resume and args.out and args.resume != args.out:
        raise ValueError("--resume DIR already names the run directory; "
                         "drop --out or make them match")
    if args.grid_file:
        cells = load_grid_file(args.grid_file)
    else:
        cells = build_grid(args.grid, args.hours * 3600.0, args.scale)
    run_dir = args.resume or args.out
    if args.trace and run_dir is None:
        raise ValueError("--trace requires --out DIR (or --resume DIR)")
    runner = SweepRunner(
        cells, run_dir=run_dir, workers=args.workers,
        sweep_seed=args.sweep_seed, trace=args.trace,
    )
    result = runner.run(resume=args.resume is not None)
    mode = f"{args.workers} workers" if args.workers else "in-process"
    print(f"sweep: {result.merged['cell_count']} cells "
          f"({result.completed} run, {result.skipped} resumed; {mode})")
    for payload in result.merged["cells"]:
        report = payload["report"]
        delivered_tb = report["delivered_bits"] / 8e12
        print(f"  {payload['label']:<28s} {delivered_tb:7.2f} TB delivered  "
              f"[{payload['config_sha256'][:12]}]")
    if result.report_path:
        print(f"wrote {result.report_path}", file=sys.stderr)
        print(f"wrote {result.manifest_path}", file=sys.stderr)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.core.scenarios import ScenarioSpec
    from repro.service import SchedulerService
    from repro.simulation.session import SimulationSession

    tenants = None
    if args.tenants:
        from repro.demand import tenant_mix

        tenants = tenant_mix(args.tenants)
    spec = ScenarioSpec.dgs(
        num_satellites=args.satellites, num_stations=args.stations,
        duration_s=args.hours * 3600.0, value=args.value, tenants=tenants,
    )
    service = SchedulerService(
        SimulationSession(spec), host=args.host, port=args.port,
        pace_s=args.pace,
    )
    host, port = service.address
    session = service.session
    print(f"repro serve: http://{host}:{port} -- "
          f"{args.satellites} satellites x {args.stations} stations, "
          f"{session.horizon_steps} steps"
          + (f", tenants={args.tenants}" if args.tenants else "")
          + "; POST /shutdown to finalize", file=sys.stderr)
    try:
        report = service.serve_forever()
    except KeyboardInterrupt:
        report = service.finalize()
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            handle.write(report.to_json(indent=2))
        print(f"wrote report to {args.json_out}", file=sys.stderr)
    print(f"served {session.step}/{session.horizon_steps} steps: "
          f"{report.delivered_tb:.2f} TB delivered "
          f"({report.delivery_fraction:.1%}), "
          f"{len(session.plan_deltas())} plan deltas")
    return 0


def _cmd_dataset(args: argparse.Namespace) -> int:
    from repro.satnogs.dataset import generate_dataset

    dataset = generate_dataset(
        num_stations=args.stations, num_satellites=args.satellites,
        days=args.days, seed=args.seed,
    )
    if args.filter:
        dataset = dataset.filter_operational()
    text = dataset.to_json()
    if args.output == "-":
        print(text)
    else:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"wrote {len(dataset.stations)} stations, "
              f"{len(dataset.satellites)} satellites, "
              f"{len(dataset.observations)} observations to {args.output}",
              file=sys.stderr)
    return 0


def _cmd_validate_trace(args: argparse.Namespace) -> int:
    from repro.obs import validate_trace_file

    count = validate_trace_file(args.path)
    print(f"{args.path}: {count} events, schema ok")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DGS: distributed hybrid ground station network (HotNets '20)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("passes", help="predict contact windows")
    p.add_argument("--lat", type=float, default=47.6)
    p.add_argument("--lon", type=float, default=-122.3)
    p.add_argument("--min-elevation", type=float, default=5.0)
    p.add_argument("--hours", type=float, default=24.0)
    p.add_argument("--satellites", type=int, default=1)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--tle-file", default=None,
                   help="predict from a 2LE/3LE element file instead of "
                        "the synthetic constellation")
    p.set_defaults(func=_cmd_passes)

    p = sub.add_parser("schedule", help="print one scheduling instant")
    p.add_argument("--satellites", type=int, default=30)
    p.add_argument("--stations", type=int, default=40)
    p.add_argument("--minute", type=int, default=0,
                   help="minutes after the scenario epoch")
    p.add_argument("--matcher", choices=("stable", "optimal", "greedy"),
                   default="stable")
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=_cmd_schedule)

    p = sub.add_parser("simulate", help="run a data-transfer simulation")
    p.add_argument("--system", choices=("dgs", "baseline"), default="dgs")
    p.add_argument("--satellites", type=int, default=50)
    p.add_argument("--stations", type=int, default=60)
    p.add_argument("--fraction", type=float, default=1.0)
    p.add_argument("--value", choices=("latency", "throughput", "deadline"),
                   default="latency")
    p.add_argument("--tenants", default=None,
                   choices=("balanced", "premium-heavy", "quota-tight"),
                   help="attach a preset multi-tenant demand mix "
                        "(required for --value deadline)")
    p.add_argument("--hours", type=float, default=6.0)
    p.add_argument("--matcher", choices=("stable", "optimal", "greedy"),
                   default="stable",
                   help="per-instant matching: Gale-Shapley stable (the "
                        "paper's choice), optimal max-weight, or greedy")
    p.add_argument("--weather", choices=("cells", "storms"), default="cells",
                   help="weather process: stationary rain cells or the "
                        "same plus advected storm tracks")
    p.add_argument("--storm-rate", type=float, default=1.0,
                   help="storm births-per-day multiplier (--weather storms)")
    p.add_argument("--storm-speed", type=float, default=1.0,
                   help="storm track-speed multiplier (--weather storms)")
    p.add_argument("--diversity", type=int, default=0, metavar="N",
                   help="diversity reception with N receivers per pass "
                        "(0 = off; primary + N-1 extra listeners)")
    p.add_argument("--plot", action="store_true")
    p.add_argument("--trace", default=None, metavar="PATH",
                   help="write a schema-versioned JSONL event trace")
    p.add_argument("--manifest", default=None, metavar="PATH",
                   help="write the run manifest (config hash, seeds, "
                        "versions) as JSON")
    p.add_argument("--constellation", choices=("paper", "walker"),
                   default="paper",
                   help="fleet synthesis: paper EO mix or Walker-delta shell")
    p.add_argument("--profile-dir", default=None, metavar="DIR",
                   help="cProfile the run span; dump stats under DIR")
    p.add_argument("--json-out", default=None, metavar="PATH",
                   help="write the full simulation report as JSON")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("experiment", help="run one paper experiment")
    p.add_argument("name", choices=("fig3a", "fig3b", "fig3c", "summary",
                                    "setup", "ablations", "robustness",
                                    "storage"))
    p.add_argument("--scale", type=float, default=0.3)
    p.add_argument("--hours", type=float, default=12.0)
    p.add_argument("--plot", action="store_true")
    p.add_argument("--workers", type=int, default=0,
                   help="shard the experiment's scenario grid across this "
                        "many worker processes (0 = in this process)")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("sweep",
                       help="run a scenario grid across worker processes")
    p.add_argument("--grid", default=None,
                   help="named grid: fig3, fig3-seeds, ablations, "
                        "fault-sweep, constellation-scaling, demand-sweep, "
                        "storm-diversity")
    p.add_argument("--grid-file", default=None, metavar="PATH",
                   help="explicit grid: JSON list of {label, spec} objects")
    p.add_argument("--workers", type=int, default=0,
                   help="worker processes (0 = serial, in this process)")
    p.add_argument("--hours", type=float, default=6.0)
    p.add_argument("--scale", type=float, default=0.3)
    p.add_argument("--out", default=None, metavar="DIR",
                   help="run directory: per-cell checkpoints plus the "
                        "merged report and runtime manifest")
    p.add_argument("--resume", default=None, metavar="DIR",
                   help="resume a killed sweep from its run directory "
                        "(finished cells are skipped)")
    p.add_argument("--sweep-seed", type=int, default=None,
                   help="re-derive every cell's RNG seeds from this seed")
    p.add_argument("--trace", action="store_true",
                   help="write a per-cell JSONL trace under DIR/traces/")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("serve",
                       help="boot the scheduler-as-a-service daemon")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="listen port (0 = pick an ephemeral port)")
    p.add_argument("--satellites", type=int, default=50)
    p.add_argument("--stations", type=int, default=60)
    p.add_argument("--hours", type=float, default=6.0)
    p.add_argument("--value", choices=("latency", "throughput", "deadline"),
                   default="latency")
    p.add_argument("--tenants", default=None,
                   choices=("balanced", "premium-heavy", "quota-tight"),
                   help="attach a preset multi-tenant demand mix "
                        "(required for --value deadline)")
    p.add_argument("--pace", type=float, default=0.0, metavar="SECONDS",
                   help="sleep between ticks so clients can steer the "
                        "plan (0 = free-running)")
    p.add_argument("--json-out", default=None, metavar="PATH",
                   help="write the final simulation report as JSON")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("dataset", help="generate a SatNOGS-like dataset")
    p.add_argument("--stations", type=int, default=200)
    p.add_argument("--satellites", type=int, default=259)
    p.add_argument("--days", type=int, default=30)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--filter", action="store_true",
                   help="apply the paper's operational/1k-observation filter")
    p.add_argument("--output", default="-")
    p.set_defaults(func=_cmd_dataset)

    p = sub.add_parser("validate-trace",
                       help="schema-check a JSONL trace file")
    p.add_argument("path")
    p.set_defaults(func=_cmd_validate_trace)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, KeyError) as exc:
        # Operational errors (missing files, malformed inputs, schema
        # violations) get one line on stderr, not a traceback.
        message = str(exc) or type(exc).__name__
        print(f"repro {args.command}: error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
