"""Production vs the oracle on random scenarios: one differential check.

Production builds each instant's contact graph from one pair source --
the contact-window index on its grid, one culled scan step off it -- and
one mask-and-price tail.  ``tests/oracle.py`` builds the same graph
densely and prices it pair by pair with the per-edge reference of the
value function.  Hypothesis draws small scenarios (8-20 satellites x
8-25 stations, 1-2 h) across every edge-shaping mode -- announced and
unannounced faults, storms with diversity reception, tenants with
deadline pricing, forecast-driven scheduling, planned execution, the
horizon and beamforming schedulers, constraint bitmaps, plan gating and
station outages -- and every in-tree value function, and each one's
report must be byte-identical on both.

The fixed-scenario cases (edge-for-edge graphs on and off the index's
grid, counters, paper and mega-constellation scale) live in
``test_batched_equivalence.py``, ``test_culling_equivalence.py`` and
``test_windows_equivalence.py``, against the same oracle.
"""

from datetime import timedelta

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.scenarios import ScenarioSpec
from repro.demand import tenant_mix
from repro.groundstations.station import DownlinkConstraints
from repro.scheduling.value_functions import (
    AuctionValue,
    CompositeValue,
    DeadlineSlaValue,
    LatencyValue,
    PriorityValue,
    ThroughputValue,
)
from repro.simulation.faults import Outage, OutageSchedule
from tests.oracle import report_dict, use_oracle

#: The in-tree value functions.  ``ScenarioSpec.value`` names only the
#: first three, so the drawn one is set on the built scheduler.
VALUES = ("latency", "throughput", "deadline", "priority", "auction",
          "composite")


def _value_function(name: str, sim):
    """The named value function, its bids drawn from ``sim``'s ids."""
    if name == "latency":
        return LatencyValue()
    if name == "throughput":
        return ThroughputValue()
    if name == "deadline":
        return DeadlineSlaValue()
    if name == "priority":
        return PriorityValue(priority_weight=600.0)
    if name == "auction":
        # Every other satellite bids at every third station; the rest
        # pay the default.
        return AuctionValue(bids={
            (sat.satellite_id, station.station_id): 1.0 + (i + j) % 3
            for i, sat in enumerate(sim.satellites[::2])
            for j, station in enumerate(list(sim.network)[::3])
        }, default_bid=0.5)
    return CompositeValue((
        (LatencyValue(), 1.0), (ThroughputValue(), 1e-6),
        (PriorityValue(), 0.5),
    ))


@st.composite
def scenarios(draw):
    """A small spec plus the post-build edits both runs receive."""
    scheduler = draw(st.sampled_from(["downlink", "horizon", "beamforming"]))
    modes = ["live", "planned"]
    if scheduler == "downlink":
        modes.append("diversity")
    kwargs = dict(
        num_satellites=draw(st.integers(8, 20)),
        num_stations=draw(st.integers(8, 25)),
        duration_s=60.0 * draw(st.integers(60, 120)),
        scheduler=scheduler,
        execution_mode=draw(st.sampled_from(modes)),
        weather=draw(st.sampled_from(["cells", "storms"])),
        storm_rate=3.0,
        use_forecast=draw(st.booleans()),
        enforce_plan_distribution=draw(st.booleans()),
        fault_intensity=draw(st.sampled_from([0.0, 0.3])),
        faults_announced=draw(st.booleans()),
        fleet_seed=draw(st.integers(0, 99)),
        network_seed=draw(st.integers(0, 99)),
        weather_seed=draw(st.integers(0, 99)),
    )
    if scheduler == "horizon":
        kwargs["horizon_steps"] = draw(st.integers(2, 4))
    elif scheduler == "beamforming":
        kwargs["beams"] = draw(st.integers(2, 3))
    if kwargs["execution_mode"] == "diversity":
        kwargs["diversity_receivers"] = draw(st.integers(2, 3))
    # Tenants price through the spec's deadline value, which the demand
    # layer wires to its quota ledger; without them any value function.
    value = None
    if draw(st.booleans()):
        kwargs.update(tenants=tenant_mix("balanced"), value="deadline")
    else:
        value = draw(st.sampled_from(VALUES))
    bitmaps = draw(st.booleans())
    outages = draw(st.sampled_from([None, "announced", "unannounced"]))
    return ScenarioSpec.dgs(**kwargs), value, bitmaps, outages


def _named(scheduler: str, mode: str, value: str):
    """A fixed scenario: ``scheduler`` in ``mode``, priced by ``value``."""
    kwargs = dict(
        num_satellites=12, num_stations=14, duration_s=5400.0,
        scheduler=scheduler, execution_mode=mode, weather="storms",
        storm_rate=3.0, fleet_seed=3, network_seed=4, weather_seed=5,
    )
    if scheduler == "horizon":
        kwargs["horizon_steps"] = 3
    elif scheduler == "beamforming":
        kwargs["beams"] = 2
    if mode == "diversity":
        kwargs["diversity_receivers"] = 2
    return ScenarioSpec.dgs(**kwargs), value, False, None


#: Planned, horizon, beamforming and diversity runs under the value
#: functions that only the per-edge oracle prices the way they used to
#: be priced: always among the examples, whatever Hypothesis draws.
NAMED = [
    _named(scheduler, mode, value)
    for scheduler, mode in (("downlink", "planned"), ("horizon", "live"),
                            ("beamforming", "live"),
                            ("downlink", "diversity"))
    for value in ("priority", "auction", "composite")
]


def _with_named(test):
    for case in NAMED:
        test = example(case)(test)
    return test


def _report(spec, value, bitmaps, outages, oracle: bool) -> dict:
    sim = spec.build().simulation
    if value is not None:
        sim.scheduler.value_function = _value_function(value, sim)
    satellites = len(sim.satellites)
    start = sim.config.start
    if bitmaps:
        # Every third station refuses the first two satellites.
        for station in list(sim.network)[::3]:
            station.constraints = DownlinkConstraints.from_allowed_indices(
                range(2, satellites), satellites
            )
    windows = [
        (sim.network[j].station_id,
         start + timedelta(minutes=10 + 7 * j),
         start + timedelta(minutes=55 + 7 * j))
        for j in range(0, len(sim.network), 4)
    ]
    if outages == "announced":
        for station_id, begin, end in windows:
            sim.announce_outage(station_id, begin, end)
    elif outages == "unannounced":
        sim.outages = OutageSchedule([Outage(*w) for w in windows])
        sim.outages_announced = False
    if oracle:
        use_oracle(sim.scheduler)
    return report_dict(sim.run())


class TestRandomScenarios:
    @settings(max_examples=10, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(scenarios())
    @_with_named
    def test_production_report_equals_oracle(self, scenario):
        spec, value, bitmaps, outages = scenario
        assert _report(spec, value, bitmaps, outages, oracle=False) == \
            _report(spec, value, bitmaps, outages, oracle=True)
