"""Kernel event-loop profiling: opt-in, accurate, non-perturbing."""

import math

from repro.sim.kernel import Simulator
from repro.sim.process import PeriodicTask
from repro.telemetry import KernelProfile


def _burn(sim, results, depth):
    results.append(sim.now)
    if depth > 0:
        sim.schedule(1.0, _burn, sim, results, depth - 1)


class TestKernelProfile:
    def test_default_is_unprofiled(self):
        sim = Simulator()
        assert sim.profile is None

    def test_profiled_run_matches_bare_run(self):
        bare, prof = [], []
        s1 = Simulator()
        s1.schedule(0.0, _burn, s1, bare, 10)
        s1.run()
        s2 = Simulator()
        s2.profile = KernelProfile()
        s2.schedule(0.0, _burn, s2, prof, 10)
        s2.run()
        assert bare == prof
        assert s1.now == s2.now

    def test_profile_accounting(self):
        sim = Simulator()
        sim.profile = KernelProfile()
        out = []
        sim.schedule(0.0, _burn, sim, out, 5)
        n = sim.run()
        assert sim.profile.events == n == 6
        assert sim.profile.runs == 1
        assert sim.profile.wall_seconds > 0
        assert sim.profile.events_per_second > 0
        assert sim.profile.heap_peak >= 1
        # The callback site is named after the function.
        (site, calls, cum), = sim.profile.top_sites()
        assert "_burn" in site
        assert calls == 6
        assert cum >= 0

    def test_periodic_task_site_is_its_callback(self):
        # Every periodic timer fires through PeriodicTask._fire; the
        # profile must name the protocol callback it runs instead.
        class Node:
            def __init__(self):
                self.ticks = 0

            def tick(self):
                self.ticks += 1

        sim = Simulator()
        sim.profile = KernelProfile()
        node = Node()
        PeriodicTask(sim, 1.0, node.tick, stagger=False)
        sim.schedule(0.5, _burn, sim, [], 0)
        sim.run(until=3.5)
        sites = {site: calls for site, calls, _ in sim.profile.top_sites()}
        assert node.ticks == 3
        assert sites == {f"{Node.__qualname__}.tick": 3, "_burn": 1}

    def test_profile_accumulates_across_runs(self):
        profile = KernelProfile()
        for _ in range(3):
            sim = Simulator()
            sim.profile = profile
            out = []
            sim.schedule(0.0, _burn, sim, out, 2)
            sim.run()
        assert profile.runs == 3
        assert profile.events == 9

    def test_empty_profile_summary(self):
        profile = KernelProfile()
        s = profile.summary()
        assert s["events"] == 0
        assert math.isnan(profile.events_per_second)
