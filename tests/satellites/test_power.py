"""Tests for the spacecraft power model."""

import pytest
from hypothesis import given, strategies as st

from repro.satellites.power import PowerModel


class TestEnergyBalance:
    def test_starts_full(self):
        power = PowerModel(battery_capacity_wh=40.0)
        assert power.state_of_charge == 1.0
        assert power.can_transmit()

    def test_idle_in_sunlight_stays_charged(self):
        power = PowerModel()
        power.step(3600.0, sunlit=True, transmitting=False)
        assert power.state_of_charge == 1.0  # clamped at capacity

    def test_transmitting_in_eclipse_drains(self):
        power = PowerModel()
        before = power.energy_wh
        power.step(3600.0, sunlit=False, transmitting=True)
        # idle 3 W + tx 25 W for 1 h = 28 Wh drained.
        assert power.energy_wh == pytest.approx(before - 28.0)

    def test_charging_nets_out_loads(self):
        power = PowerModel(energy_wh=10.0)
        power.step(3600.0, sunlit=True, transmitting=True)
        # +20 generation, -28 loads -> net -8 Wh.
        assert power.energy_wh == pytest.approx(2.0)

    def test_clamps_at_zero(self):
        power = PowerModel(energy_wh=1.0)
        power.step(7200.0, sunlit=False, transmitting=True)
        assert power.energy_wh == 0.0

    def test_transmit_gate(self):
        power = PowerModel(battery_capacity_wh=40.0, energy_wh=7.0,
                           min_transmit_soc=0.2)
        assert not power.can_transmit()
        power.step(3600.0, sunlit=True, transmitting=False)  # +17 Wh net
        assert power.can_transmit()

    @given(
        duration=st.floats(min_value=0.0, max_value=86400.0),
        sunlit=st.booleans(),
        transmitting=st.booleans(),
    )
    def test_energy_stays_in_bounds(self, duration, sunlit, transmitting):
        power = PowerModel(energy_wh=20.0)
        power.step(duration, sunlit, transmitting)
        assert 0.0 <= power.energy_wh <= power.battery_capacity_wh

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            PowerModel(panel_watts=-1.0)
        with pytest.raises(ValueError):
            PowerModel(min_transmit_soc=1.0)
        with pytest.raises(ValueError):
            PowerModel().step(-1.0, True, False)


class TestSustainableDuty:
    def test_reference_point(self):
        power = PowerModel()  # 20 W panels, 3 W idle, 25 W tx
        duty = power.sustainable_transmit_duty(0.63)
        assert duty == pytest.approx((20.0 * 0.63 - 3.0) / 25.0)

    def test_dark_orbit_zero_duty(self):
        assert PowerModel().sustainable_transmit_duty(0.0) == 0.0

    def test_clamped_at_one(self):
        generous = PowerModel(panel_watts=1000.0)
        assert generous.sustainable_transmit_duty(1.0) == 1.0

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            PowerModel().sustainable_transmit_duty(1.5)

    def test_free_transmitter_with_surplus(self):
        power = PowerModel(transmit_load_watts=0.0)
        assert power.sustainable_transmit_duty(1.0) == 1.0

    def test_free_transmitter_cannot_outrun_idle_drain(self):
        """Regression: a zero-watt transmitter used to report full duty
        even when the idle load alone drained the battery."""
        power = PowerModel(transmit_load_watts=0.0, panel_watts=2.0,
                           idle_load_watts=3.0)
        assert power.sustainable_transmit_duty(1.0) == 0.0
        assert power.sustainable_transmit_duty(0.0) == 0.0


class TestEngineIntegration:
    def test_power_gated_simulation(self, small_tles):
        """Satellites with drained batteries transmit nothing."""
        from datetime import datetime

        from repro.groundstations.network import satnogs_like_network
        from repro.satellites.satellite import Satellite
        from repro.scheduling.value_functions import LatencyValue
        from repro.simulation.config import SimulationConfig
        from repro.simulation.engine import Simulation

        epoch = datetime(2020, 6, 1)
        sats = [
            Satellite(
                tle=t,
                chunk_size_gb=0.5,
                power=PowerModel(energy_wh=0.0, panel_watts=0.0),
            )
            for t in small_tles[:4]
        ]
        network = satnogs_like_network(15, seed=13)
        config = SimulationConfig(start=epoch, duration_s=2 * 3600.0)
        sim = Simulation(satellites=sats, network=network, value_function=LatencyValue(), config=config)
        report = sim.run()
        assert report.delivered_bits == 0.0

    def test_healthy_power_allows_transmission(self, small_tles):
        from datetime import datetime

        from repro.groundstations.network import satnogs_like_network
        from repro.satellites.satellite import Satellite
        from repro.scheduling.value_functions import LatencyValue
        from repro.simulation.config import SimulationConfig
        from repro.simulation.engine import Simulation

        epoch = datetime(2020, 6, 1)
        sats = [
            Satellite(tle=t, chunk_size_gb=0.5, power=PowerModel())
            for t in small_tles
        ]
        network = satnogs_like_network(15, seed=13)
        config = SimulationConfig(start=epoch, duration_s=4 * 3600.0)
        sim = Simulation(satellites=sats, network=network, value_function=LatencyValue(), config=config)
        report = sim.run()
        assert report.delivered_bits > 0.0
        # Batteries were actually integrated.
        assert any(s.power.energy_wh < s.power.battery_capacity_wh
                   or s.power.state_of_charge == 1.0 for s in sats)


class TestDarkStationPower:
    """The battery gates, and is charged for, transmissions to dark stations.

    With unannounced outages the scheduler still matches satellites to
    the dark stations and each satellite transmits per plan, every bit
    wasted.  Those transmissions go through the same power gate as the
    ones that land.
    """

    @staticmethod
    def _run(small_tles, power, announced):
        from datetime import datetime, timedelta

        from repro.groundstations.network import satnogs_like_network
        from repro.satellites.satellite import Satellite
        from repro.scheduling.value_functions import LatencyValue
        from repro.simulation.config import SimulationConfig
        from repro.simulation.engine import Simulation
        from repro.simulation.faults import Outage, OutageSchedule

        epoch = datetime(2020, 6, 1)
        sats = [Satellite(tle=t, chunk_size_gb=0.5, power=power())
                for t in small_tles[:4]]
        network = satnogs_like_network(15, seed=13)
        hours = 2
        # Every station is dark for the whole run.
        outages = OutageSchedule([
            Outage(station.station_id, epoch,
                   epoch + timedelta(hours=hours))
            for station in network
        ])
        sim = Simulation(
            satellites=sats, network=network,
            value_function=LatencyValue(),
            config=SimulationConfig(start=epoch, duration_s=hours * 3600.0),
            outages=outages, outages_announced=announced,
        )
        return sim, sim.run(), sats

    def test_drained_battery_sends_nothing_to_a_dark_station(self, small_tles):
        sim, report, _sats = self._run(
            small_tles, lambda: PowerModel(energy_wh=0.0, panel_watts=0.0),
            announced=False,
        )
        assert report.delivered_bits == 0.0
        assert report.lost_transmission_bits == 0.0
        assert sim.power_blocked_steps > 0

    def test_transmission_to_a_dark_station_is_charged(self, small_tles):
        # Announced outages prune every edge, so nothing transmits; an
        # unannounced one lets the satellites transmit, and pay for it.
        _sim, idle, idle_sats = self._run(small_tles, PowerModel,
                                          announced=True)
        _sim, wasted, wasted_sats = self._run(small_tles, PowerModel,
                                              announced=False)
        assert idle.lost_transmission_bits == 0.0
        assert wasted.lost_transmission_bits > 0.0
        assert sum(s.power.energy_wh for s in wasted_sats) < \
            sum(s.power.energy_wh for s in idle_sats)

    def test_drained_battery_skips_a_misaligned_planned_contact(
            self, small_tles):
        # The satellite holds an older plan than the stations follow, so
        # its planned contact falls on a dish pointed elsewhere.
        from datetime import datetime, timedelta

        from repro.groundstations.network import satnogs_like_network
        from repro.satellites.satellite import Satellite
        from repro.scheduling.scheduler import DownlinkPlan, SatellitePlanEntry
        from repro.scheduling.value_functions import LatencyValue
        from repro.simulation.config import SimulationConfig
        from repro.simulation.engine import Simulation

        epoch = datetime(2020, 6, 1)
        sat = Satellite(tle=small_tles[0], chunk_size_gb=0.5,
                        power=PowerModel(energy_wh=0.0, panel_watts=0.0))
        sat.generate_data(epoch - timedelta(hours=1), 3600.0)
        sim = Simulation(
            satellites=[sat], network=satnogs_like_network(15, seed=13),
            value_function=LatencyValue(),
            config=SimulationConfig(start=epoch, duration_s=3600.0,
                                    execution_mode="planned"),
        )
        sim._latest_plan = DownlinkPlan(issued_at=epoch, horizon_s=3600.0)
        sim._next_plan_issue = epoch + timedelta(hours=1)
        sim._satellite_plans[0] = DownlinkPlan(
            issued_at=epoch - timedelta(hours=1), horizon_s=7200.0,
            entries={0: [SatellitePlanEntry(start=epoch, station_index=0,
                                            expected_bitrate_bps=1e8)]},
        )
        backlog = sat.storage.backlog_bits

        sim._planned_step(epoch)

        assert sim.plan_mismatch_steps == 1
        assert sim.power_blocked_steps == 1
        assert sat.storage.backlog_bits == backlog
        assert sim.metrics.lost_transmission_bits == 0.0
