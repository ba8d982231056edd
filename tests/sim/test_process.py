"""PeriodicTask: cadence, jitter, stop semantics."""

import numpy as np
import pytest

from repro.sim.kernel import Simulator
from repro.sim.process import PeriodicTask


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestPeriodicTask:
    def test_fires_at_fixed_cadence(self, sim):
        times = []
        PeriodicTask(sim, 2.0, lambda: times.append(sim.now), stagger=False)
        sim.run(until=7.0)
        assert times == [2.0, 4.0, 6.0]

    def test_stagger_offsets_first_firing(self, sim, rng):
        times = []
        PeriodicTask(sim, 2.0, lambda: times.append(sim.now),
                     rng=rng, stagger=True)
        sim.run(until=1.99)
        assert len(times) == 1  # first firing within one interval
        assert 0.0 <= times[0] < 2.0

    def test_stop_halts_firing(self, sim):
        count = [0]
        task = PeriodicTask(sim, 1.0, lambda: count.__setitem__(0, count[0] + 1),
                            stagger=False)
        sim.run(until=2.5)
        task.stop()
        sim.run(until=10.0)
        assert count[0] == 2
        assert task.firings == 2

    def test_stop_from_within_callback(self, sim):
        task_box = {}

        def fn():
            task_box["t"].stop()

        task_box["t"] = PeriodicTask(sim, 1.0, fn, stagger=False)
        sim.run(until=10.0)
        assert task_box["t"].firings == 1

    def test_restart_after_stop(self, sim):
        count = [0]
        task = PeriodicTask(sim, 1.0, lambda: count.__setitem__(0, count[0] + 1),
                            stagger=False)
        sim.run(until=1.5)
        task.stop()
        task.start()
        sim.run(until=3.0)
        assert count[0] == 2  # at t=1.0 then t=2.5

    def test_restart_from_within_callback_arms_one_timer(self, sim):
        # A callback that stops and restarts its own task (an on-demand
        # timer re-armed mid-fire) must leave exactly one pending firing.
        times = []
        box = {}

        def fn():
            times.append(sim.now)
            box["t"].stop()
            box["t"].start()

        box["t"] = PeriodicTask(sim, 1.0, fn, stagger=False)
        sim.run(until=3.5)
        assert times == [1.0, 2.0, 3.0]

    def test_jitter_varies_cadence(self, sim, rng):
        times = []
        PeriodicTask(sim, 1.0, lambda: times.append(sim.now),
                     rng=rng, jitter=0.3, stagger=False)
        sim.run(until=20.0)
        gaps = np.diff(times)
        assert all(0.7 - 1e-9 <= g <= 1.3 + 1e-9 for g in gaps)
        assert np.std(gaps) > 0.0

    def test_start_is_idempotent(self, sim):
        count = [0]
        task = PeriodicTask(sim, 1.0, lambda: count.__setitem__(0, count[0] + 1),
                            stagger=False)
        task.start()  # second start must not double-schedule
        sim.run(until=1.5)
        assert count[0] == 1

    def test_rejects_bad_params(self, sim, rng):
        with pytest.raises(ValueError):
            PeriodicTask(sim, 0.0, lambda: None, stagger=False)
        with pytest.raises(ValueError):
            PeriodicTask(sim, 1.0, lambda: None, jitter=1.5, rng=rng)
        with pytest.raises(ValueError):
            PeriodicTask(sim, 1.0, lambda: None, jitter=0.1)  # jitter needs rng


@pytest.fixture
def sim():
    return Simulator()
