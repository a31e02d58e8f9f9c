"""DGSNetwork: the one-object public API.

Wraps a satellite fleet, a ground-station network, a weather source, and a
value function into the operations a ground-segment operator performs:
inspect visibility, predict passes, estimate link quality, compute a
schedule or an uplink plan, and run data-transfer simulations.
"""

from __future__ import annotations

from datetime import datetime, timedelta

from repro.groundstations.network import GroundStationNetwork
from repro.groundstations.station import GroundStation
from repro.linkbudget.budget import LinkBudget, LinkResult
from repro.orbits.frames import teme_to_ecef
from repro.orbits.passes import ContactWindow, PassPredictor
from repro.orbits.timebase import datetime_to_jd
from repro.orbits.topocentric import Topocentric, look_angles
from repro.satellites.satellite import Satellite
from repro.scheduling.scheduler import (
    DownlinkPlan,
    DownlinkScheduler,
    MatcherName,
    ScheduleStep,
)
from repro.scheduling.value_functions import LatencyValue, ValueFunction
from repro.obs import ObsConfig
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import Simulation
from repro.simulation.metrics import SimulationReport
from repro.weather.provider import ClearSkyProvider, WeatherProvider


class DGSNetwork:
    """A distributed ground station network bound to a satellite fleet.

    All constructor arguments are keyword-only; ``satellites`` and
    ``network`` are required.
    """

    def __init__(
        self,
        *args,
        satellites: list[Satellite] | None = None,
        network: GroundStationNetwork | None = None,
        value_function: ValueFunction | None = None,
        weather: WeatherProvider | None = None,
        matcher: MatcherName = "stable",
        step_s: float = 60.0,
    ):
        if args:
            raise TypeError(
                "DGSNetwork() no longer accepts positional arguments (the "
                "PR-3 deprecation shim was removed); pass satellites=, "
                "network= (and value_function=, weather=) as keywords"
            )
        if satellites is None or network is None:
            raise TypeError(
                "DGSNetwork missing required keyword arguments: satellites=, "
                "network="
            )
        if not satellites:
            raise ValueError("need at least one satellite")
        if len(network) == 0:
            raise ValueError("need at least one ground station")
        self.satellites = satellites
        self.network = network
        self.value_function = value_function or LatencyValue()
        self.weather = weather or ClearSkyProvider()
        self.matcher: MatcherName = matcher
        self.step_s = step_s
        self._scheduler = DownlinkScheduler(
            satellites=satellites,
            network=network,
            value_function=self.value_function,
            matcher=matcher,
            weather=self.weather,
            step_s=step_s,
        )

    # -- geometry ---------------------------------------------------------------

    def look_angles(self, satellite: Satellite, station: GroundStation,
                    when: datetime) -> Topocentric:
        """Azimuth/elevation/range of a satellite from a station."""
        pos_teme, vel_teme = satellite.position_teme(when)
        pos_ecef = teme_to_ecef(pos_teme, datetime_to_jd(when))
        return look_angles(
            station.latitude_deg, station.longitude_deg, station.altitude_km,
            pos_ecef,
        )

    def predict_passes(self, satellite: Satellite, station: GroundStation,
                       start: datetime, end: datetime) -> list[ContactWindow]:
        """All contact windows between one satellite and one station."""
        predictor = PassPredictor(
            satellite.position_teme,
            station.latitude_deg,
            station.longitude_deg,
            station.altitude_km,
            min_elevation_deg=station.min_elevation_deg,
        )
        return list(predictor.passes(start, end))

    # -- link quality ---------------------------------------------------------------

    def link_quality(self, satellite: Satellite, station: GroundStation,
                     when: datetime) -> LinkResult:
        """Predicted link state (Es/N0, MODCOD, bitrate) for a pair now."""
        topo = self.look_angles(satellite, station, when)
        sample = self.weather.sample(
            station.latitude_deg, station.longitude_deg, when
        )
        budget = LinkBudget(radio=satellite.radio, receiver=station.receiver)
        return budget.evaluate(
            range_km=topo.range_km,
            elevation_deg=topo.elevation_deg,
            station_latitude_deg=station.latitude_deg,
            rain_rate_mm_h=sample.rain_rate_mm_h,
            cloud_water_kg_m2=sample.cloud_water_kg_m2,
            station_altitude_km=station.altitude_km,
        )

    # -- scheduling ---------------------------------------------------------------

    def schedule(self, when: datetime) -> ScheduleStep:
        """The matching the scheduler picks at one instant."""
        return self._scheduler.schedule_step(when)

    def build_plan(self, issued_at: datetime,
                   horizon_s: float = 6 * 3600.0) -> DownlinkPlan:
        """A horizon downlink plan (what a tx-capable station uploads)."""
        return self._scheduler.build_plan(issued_at, horizon_s)

    # -- simulation ---------------------------------------------------------------

    def simulate(self, start: datetime, duration_s: float,
                 config: SimulationConfig | None = None,
                 observability: ObsConfig | None = None) -> SimulationReport:
        """Run a data-transfer simulation over this network.

        Satellites' storage state is mutated; construct a fresh fleet per
        independent run (:func:`repro.core.scenarios.build_paper_fleet`).
        Pass ``observability=ObsConfig(...)`` to record stage timings, a
        JSONL event trace, and a run manifest.
        """
        if config is None:
            config = SimulationConfig(
                start=start, duration_s=duration_s, step_s=self.step_s,
                matcher=self.matcher,
            )
        sim = Simulation(
            satellites=self.satellites,
            network=self.network,
            value_function=self.value_function,
            config=config,
            truth_weather=self.weather,
            observability=observability,
        )
        return sim.run()

    # -- convenience ---------------------------------------------------------------

    def visible_pairs(self, when: datetime) -> list[tuple[int, int]]:
        """(satellite_index, station_index) pairs currently in sight.

        Every pair above its station's elevation mask, whether or not
        the link closes or the satellite has data to send.
        """
        sat, gs, _elevation, _range = self._scheduler.visible_pairs(when)
        return list(zip(sat.tolist(), gs.tolist()))

    def next_contact(self, satellite: Satellite, start: datetime,
                     search_hours: float = 24.0) -> tuple[GroundStation, ContactWindow] | None:
        """The earliest upcoming pass of a satellite over any station."""
        end = start + timedelta(hours=search_hours)
        best: tuple[GroundStation, ContactWindow] | None = None
        for station in self.network:
            for window in self.predict_passes(satellite, station, start, end):
                if best is None or window.rise_time < best[1].rise_time:
                    best = (station, window)
                break  # passes are chronological; first is earliest for station
        return best
