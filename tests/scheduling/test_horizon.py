"""Tests for the receding-horizon scheduler."""

from datetime import datetime, timedelta

import pytest

from repro.scheduling.horizon import HorizonScheduler
from repro.scheduling.scheduler import DownlinkScheduler
from repro.scheduling.value_functions import LatencyValue

EPOCH = datetime(2020, 6, 1)


@pytest.fixture()
def loaded(small_fleet, small_network):
    for sat in small_fleet:
        sat.generate_data(EPOCH - timedelta(hours=2), 7200.0)
    return small_fleet, small_network


class TestConstruction:
    def test_invalid_horizon(self, loaded):
        fleet, network = loaded
        with pytest.raises(ValueError):
            HorizonScheduler(fleet, network, LatencyValue(), horizon_steps=0)

    def test_invalid_replan(self, loaded):
        fleet, network = loaded
        with pytest.raises(ValueError):
            HorizonScheduler(fleet, network, LatencyValue(),
                             horizon_steps=5, replan_steps=6)


class TestWindowing:
    def test_h1_matches_valid_assignment_structure(self, loaded):
        fleet, network = loaded
        sched = HorizonScheduler(fleet, network, LatencyValue(),
                                 horizon_steps=1, replan_steps=1)
        step = sched.schedule_step(EPOCH)
        sats = [a.satellite_index for a in step.assignments]
        assert len(sats) == len(set(sats))

    def test_window_reused_until_replan(self, loaded):
        fleet, network = loaded
        sched = HorizonScheduler(fleet, network, LatencyValue(),
                                 horizon_steps=6, replan_steps=3, step_s=60.0)
        sched.schedule_step(EPOCH)
        first_window_start = sched._window_start
        sched.schedule_step(EPOCH + timedelta(seconds=60))
        sched.schedule_step(EPOCH + timedelta(seconds=120))
        assert sched._window_start == first_window_start
        sched.schedule_step(EPOCH + timedelta(seconds=180))
        assert sched._window_start == EPOCH + timedelta(seconds=180)

    def test_off_grid_time_triggers_replan(self, loaded):
        fleet, network = loaded
        sched = HorizonScheduler(fleet, network, LatencyValue(),
                                 horizon_steps=4, replan_steps=4, step_s=60.0)
        sched.schedule_step(EPOCH)
        sched.schedule_step(EPOCH + timedelta(seconds=90))  # not on the grid
        assert sched._window_start == EPOCH + timedelta(seconds=90)


class TestAssignmentValidity:
    def test_capacity_respected_every_step(self, loaded):
        fleet, network = loaded
        sched = HorizonScheduler(fleet, network, LatencyValue(),
                                 horizon_steps=8, replan_steps=8, step_s=60.0)
        for k in range(8):
            step = sched.schedule_step(EPOCH + timedelta(seconds=60 * k))
            stations = [a.station_index for a in step.assignments]
            assert len(stations) == len(set(stations))  # capacity 1

    def test_comparable_first_step_value(self, loaded):
        """The window's first step should be within 2x of the myopic
        stable matching (greedy over the window trades instantaneous value
        for future slots)."""
        fleet, network = loaded
        myopic = DownlinkScheduler(fleet, network, LatencyValue(), step_s=60.0)
        horizon = HorizonScheduler(fleet, network, LatencyValue(),
                                   horizon_steps=5, replan_steps=5, step_s=60.0)
        when = None
        for hour in range(48):
            candidate = EPOCH + timedelta(hours=hour)
            if myopic.contact_graph(candidate).edges:
                when = candidate
                break
        assert when is not None
        myopic_value = sum(a.weight for a in myopic.schedule_step(when).assignments)
        horizon_value = sum(
            a.weight for a in horizon.schedule_step(when).assignments
        )
        if myopic_value > 0:
            assert horizon_value >= 0.5 * myopic_value


class TestWindowIndexWiring:
    def test_idle_ticks_still_reach_the_horizon_scheduler(self):
        """The replacement reads the engine's index, yet every tick --
        idle ones included -- calls its ``schedule_step``, so its re-plan
        cadence is the one a scheduler without the index would keep."""
        from repro.core.scenarios import ScenarioSpec

        sim = ScenarioSpec.dgs(
            num_satellites=6, num_stations=4, duration_s=14400.0,
            scheduler="horizon", horizon_steps=4,
        ).build().simulation
        scheduler = sim.scheduler
        assert isinstance(scheduler, HorizonScheduler)
        index = scheduler.window_index
        assert index is not None and index is sim.window_index
        steps = sim.config.num_steps
        assert any(index.active_count(k) == 0 for k in range(steps))
        calls = []
        schedule_step = scheduler.schedule_step

        def counted(when, forecast_issued_at=None, keep_graph=False):
            calls.append(when)
            return schedule_step(when, forecast_issued_at, keep_graph)

        scheduler.schedule_step = counted
        sim.run()
        assert len(calls) == steps
