"""Named sweep grids: the paper's evaluation as lists of frozen cells.

Each builder returns ``list[SweepCell]`` for the sweep runner; the CLI
(``repro sweep --grid NAME``) and benches select them by name.  Explicit
grids come from a JSON file: ``[{"label": ..., "spec": {...}}, ...]``
with spec dicts in :meth:`ScenarioSpec.to_dict` form.
"""

from __future__ import annotations

import json

from repro.core.scenarios import ScenarioSpec
from repro.runners.sweep import SweepCell


def fig3_grid(duration_s: float = 86400.0,
              scale: float = 1.0) -> list[SweepCell]:
    """The four headline scenario runs behind Figs. 3a/3b/3c."""
    from repro.experiments.paper_runs import spec_for_variant

    return [
        SweepCell(variant, spec_for_variant(variant, duration_s, scale))
        for variant in ("baseline-L", "dgs-L", "dgs25-L", "dgs25-T")
    ]


def fig3_seed_grid(duration_s: float = 86400.0, scale: float = 1.0,
                   fleet_seeds: tuple[int, ...] = (7, 8)) -> list[SweepCell]:
    """Fig. 3 variants replicated over constellation draws (8+ cells).

    Varying ``fleet_seed`` makes each replicate a genuinely different
    constellation -- the robustness-of-figures grid, and the bench grid
    for the parallel runner (no cross-cell ephemeris sharing to flatter
    the serial baseline).
    """
    from dataclasses import replace

    from repro.experiments.paper_runs import spec_for_variant

    cells = []
    for seed in fleet_seeds:
        for variant in ("baseline-L", "dgs-L", "dgs25-L", "dgs25-T"):
            spec = replace(
                spec_for_variant(variant, duration_s, scale),
                fleet_seed=seed,
            )
            cells.append(SweepCell(f"{variant}@fleet{seed}", spec))
    return cells


def ablation_grid(duration_s: float = 21600.0,
                  scale: float = 0.3) -> list[SweepCell]:
    """Every spec-expressible ablation section, one flat grid.

    Sections share reference cells (e.g. ``matching algorithm:stable``
    and ``weather intensity:nominal`` are the same simulation); identical
    specs are deduplicated to their first label, since the cell identity
    is the spec, not the section naming it.
    """
    from repro.experiments import ablations

    cells = []
    seen: set[str] = set()
    for section, pairs in ablations.section_specs(duration_s, scale):
        for label, spec in pairs:
            cell = SweepCell(f"{section}:{label}", spec)
            if cell.config_sha256() in seen:
                continue
            seen.add(cell.config_sha256())
            cells.append(cell)
    return cells


def fault_sweep_grid(duration_s: float = 21600.0, scale: float = 0.2,
                     intensities: tuple[float, ...] = (0.0, 0.1, 0.25, 0.5),
                     seed: int = 7,
                     announced: bool = True) -> list[SweepCell]:
    """The DGS fault-intensity sweep as sweep cells."""
    from repro.experiments.robustness import fault_sweep_specs

    return [
        SweepCell(label, spec)
        for label, spec in fault_sweep_specs(
            duration_s, scale, intensities=intensities, seed=seed,
            announced=announced,
        )
    ]


def constellation_scaling_grid(duration_s: float = 3600.0,
                               scale: float = 1.0) -> list[SweepCell]:
    """Mega-constellation scaling cells: Walker shells at 2.5k and 10k.

    Short-horizon (default one hour) runs of deterministic Walker-delta
    shells against the full paper network -- the scaling regime the
    spatial-culling and sparse-graph machinery targets.  ``scale``
    multiplies the shell sizes (CI smoke uses ``scale=1`` with the 2.5k
    cell only; see the bench baselines).
    """
    cells = []
    for label, sats in (("walker2500", 2500), ("walker10000", 10000)):
        count = max(4, int(round(sats * scale)))
        spec = ScenarioSpec.dgs(
            constellation="walker",
            num_satellites=count,
            duration_s=duration_s,
        )
        cells.append(SweepCell(label, spec))
    return cells


def demand_sweep_grid(duration_s: float = 21600.0,
                      scale: float = 0.3) -> list[SweepCell]:
    """The tenant-mix sweep: multi-tenant demand under deadline pricing.

    One legacy single-tenant reference cell, the three preset tenant
    mixes under :class:`DeadlineSlaValue`, and the balanced mix under
    plain latency pricing (same demand, paper's Phi = t) -- so the sweep
    isolates both what tenancy does to the traffic and what the
    SLA-aware pricing buys over the paper's value function.
    """
    from repro.core.scenarios import PAPER_SATELLITES, PAPER_STATIONS
    from repro.demand import tenant_mix

    sats = max(4, int(round(PAPER_SATELLITES * scale)))
    stations = max(6, int(round(PAPER_STATIONS * scale)))

    def spec(**kwargs) -> ScenarioSpec:
        return ScenarioSpec.dgs(
            num_satellites=sats, num_stations=stations,
            duration_s=duration_s, **kwargs,
        )

    cells = [SweepCell("singletenant-L", spec())]
    for mix in ("balanced", "premium-heavy", "quota-tight"):
        cells.append(SweepCell(
            f"{mix}-D", spec(tenants=tenant_mix(mix), value="deadline"),
        ))
    cells.append(SweepCell(
        "balanced-L", spec(tenants=tenant_mix("balanced"), value="latency"),
    ))
    return cells


def storm_diversity_grid(duration_s: float = 21600.0,
                         scale: float = 0.3) -> list[SweepCell]:
    """How many cheap overlapping stations equal one good one under a
    moving regional wipeout?

    One stationary-weather reference cell, the same network under storm
    tracks (how much a moving wipeout costs without diversity), the storm
    scenario with 1/2/3 receivers per pass (``div1`` isolates the
    stochastic per-copy loss model from the combiner's gain), and the
    centralized few-good-dishes baseline under the same storms -- the
    comparison the paper's geographic-redundancy argument rests on.
    """
    from repro.core.scenarios import PAPER_SATELLITES, PAPER_STATIONS

    sats = max(4, int(round(PAPER_SATELLITES * scale)))
    stations = max(6, int(round(PAPER_STATIONS * scale)))

    def spec(**kwargs) -> ScenarioSpec:
        return ScenarioSpec.dgs(
            num_satellites=sats, num_stations=stations,
            duration_s=duration_s, **kwargs,
        )

    storm = dict(weather="storms", storm_rate=2.0)
    cells = [
        SweepCell("cells-live", spec()),
        SweepCell("storms-live", spec(**storm)),
    ]
    for receivers in (1, 2, 3):
        cells.append(SweepCell(
            f"storms-div{receivers}",
            spec(**storm, execution_mode="diversity",
                 diversity_receivers=receivers),
        ))
    cells.append(SweepCell(
        "baseline-storms",
        ScenarioSpec.baseline(duration_s=duration_s,
                              num_satellites=sats, **storm),
    ))
    return cells


#: Grid names the CLI accepts.
GRID_BUILDERS = {
    "fig3": fig3_grid,
    "fig3-seeds": fig3_seed_grid,
    "ablations": ablation_grid,
    "fault-sweep": fault_sweep_grid,
    "constellation-scaling": constellation_scaling_grid,
    "demand-sweep": demand_sweep_grid,
    "storm-diversity": storm_diversity_grid,
}


def build_grid(name: str, duration_s: float, scale: float) -> list[SweepCell]:
    """A named grid, or a ValueError naming the valid choices."""
    try:
        builder = GRID_BUILDERS[name]
    except KeyError:
        raise ValueError(
            f"unknown grid {name!r} (choose from "
            f"{', '.join(sorted(GRID_BUILDERS))})"
        ) from None
    return builder(duration_s, scale)


def cells_from_json(text: str) -> list[SweepCell]:
    """Parse an explicit grid: a JSON list of {label, spec} objects.

    Every malformed input -- bad JSON, wrong shape, unknown or
    mistyped spec fields -- raises ``ValueError`` with the offending
    entry named, so the CLI's one-line-stderr + exit-2 contract holds
    (a bare ``TypeError`` out of the spec constructor would surface as
    a traceback).
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"grid file is not valid JSON: {exc}")
    if not isinstance(raw, list) or not raw:
        raise ValueError("grid file must be a non-empty JSON list")
    cells = []
    for index, item in enumerate(raw):
        if not isinstance(item, dict) or "spec" not in item:
            raise ValueError(
                f"grid entry {index} must be an object with a 'spec' key"
            )
        if not isinstance(item["spec"], dict):
            raise ValueError(f"grid entry {index}: 'spec' must be an object")
        try:
            spec = ScenarioSpec.from_dict(item["spec"])
        except (TypeError, ValueError) as exc:
            raise ValueError(f"grid entry {index}: {exc}")
        label = str(item.get("label", f"cell-{index}"))
        cells.append(SweepCell(label, spec))
    return cells


def load_grid_file(path: str) -> list[SweepCell]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ValueError(f"cannot read grid file {path!r}: {exc}")
    try:
        return cells_from_json(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}")
