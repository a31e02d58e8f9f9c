"""Weather-aware downlink routing: dodging rain with geographic diversity.

Run:  python examples/weather_routing.py

Sec. 3: "If the link from satellite alpha to ground station i is expected
to encounter clouds, then it could downlink data at a different ground
station j that falls along its path."  This example puts one satellite
over Europe with two candidate stations, soaks one of them in heavy rain,
and shows the scheduler's choice flip; it then quantifies the system-wide
effect of weather-aware scheduling by comparing a weather-blind scheduler
(clear-sky predictions, rainy truth) against the weather-aware one on the
same rainy world.
"""

from datetime import datetime, timedelta

from repro.core.scenarios import build_paper_fleet
from repro.groundstations import satnogs_like_network
from repro.scheduling.value_functions import LatencyValue
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import Simulation
from repro.weather.cells import RainCellField, WeatherSample
from repro.weather.provider import ClearSkyProvider, QuantizedWeatherCache

EPOCH = datetime(2020, 6, 1)


class RainOverStation:
    """Truth weather: torrential rain at one location, clear elsewhere."""

    def __init__(self, lat: float, lon: float, radius_deg: float = 3.0):
        self.lat, self.lon, self.radius = lat, lon, radius_deg

    def sample(self, lat_deg, lon_deg, when):
        if (abs(lat_deg - self.lat) < self.radius
                and abs(lon_deg - self.lon) < self.radius):
            return WeatherSample(rain_rate_mm_h=60.0, cloud_water_kg_m2=3.0)
        return WeatherSample(rain_rate_mm_h=0.0, cloud_water_kg_m2=0.0)


def link_choice_demo() -> None:
    from repro import DGSNetwork

    satellites = build_paper_fleet(count=1, seed=7)
    network = satnogs_like_network(30, seed=11)
    satellites[0].generate_data(EPOCH - timedelta(hours=1), 3600.0)

    # Find an instant where the satellite has a usable link to at least
    # two stations (in sight is not enough: the link must also close).
    clear = DGSNetwork(satellites=satellites, network=network, weather=ClearSkyProvider())
    when = None
    probe = EPOCH
    for _ in range(24 * 60):
        if clear.schedule(probe).num_edges >= 2:
            when = probe
            break
        probe += timedelta(minutes=1)
    if when is None:
        print("satellite never links to two stations at once; re-seed")
        return

    step = clear.schedule(when)
    chosen = step.assignments[0].station_index
    station = network[chosen]
    print("=== Link choice under weather ===")
    print(f"clear sky: satellite downlinks to {station.station_id} "
          f"({station.latitude_deg:.1f}N, {station.longitude_deg:.1f}E)")

    rainy = DGSNetwork(
        satellites=satellites, network=network,
        weather=RainOverStation(station.latitude_deg, station.longitude_deg),
    )
    step_rain = rainy.schedule(when)
    if step_rain.assignments:
        alt = network[step_rain.assignments[0].station_index]
        if alt.station_id != station.station_id:
            print(f"with a storm over it: scheduler reroutes to "
                  f"{alt.station_id} ({alt.latitude_deg:.1f}N, "
                  f"{alt.longitude_deg:.1f}E)")
        else:
            print("storm not strong enough to flip this link (X band shrugs "
                  "off moderate rain)")
    else:
        print("with the storm the link does not close at all this instant")


def system_effect_demo() -> None:
    print("\n=== System-wide effect of weather-aware scheduling ===")
    truth = QuantizedWeatherCache(RainCellField(seed=3, intensity_scale=2.5))
    results = {}
    for label in ("aware", "blind"):
        satellites = build_paper_fleet(count=25, seed=7)
        network = satnogs_like_network(50, seed=11)
        config = SimulationConfig(start=EPOCH, duration_s=4 * 3600.0)
        sim = Simulation(satellites=satellites, network=network, value_function=LatencyValue(), config=config,
                         truth_weather=truth)
        if label == "blind":
            # The scheduler predicts with clear skies; reality is rainy, so
            # over-predicted rates fail to decode.
            sim.config.use_forecast = True
            sim.forecast = _ClearSkyForecast()
            sim.scheduler.weather = sim.forecast
        results[label] = sim.run()
    for label, report in results.items():
        lost_gb = report.lost_transmission_bits / 8e9
        print(f"{label:>6}: delivered {report.delivered_bits / 8e9:7.1f} GB, "
              f"lost to failed decodes {lost_gb:6.1f} GB")


class _ClearSkyForecast:
    """A 'forecast' that always promises clear skies (weather-blind)."""

    def forecast(self, lat, lon, issued_at, valid_at):
        return WeatherSample(0.0, 0.0)

    def sample(self, lat, lon, when):
        return WeatherSample(0.0, 0.0)


def main() -> None:
    link_choice_demo()
    system_effect_demo()


if __name__ == "__main__":
    main()
