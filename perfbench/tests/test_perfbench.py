"""Output checks and workload-contrast tests for the benchmark.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

Each workload runs once untraced and once traced (one replica, default
seed), and each BENCHMARK.json workload once more through the command
with one replica, so the module takes three to four minutes.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from perfbench import run as bench
from perfbench.tracer import Tracer
from perfbench import workloads
from perfbench.hostspeed import REF_LOOP_S, HostSpeed
from perfbench.workloads import WORKLOADS, replicas_for, run_cell
from repro.grid.node import GridNode
from repro.match.select import LeastLoadedPolicy
from repro.sim.kernel import Simulator
from repro.sim.process import PeriodicTask

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def workload_run(request):
    """(name, untraced results, traced results, per-layer metrics).

    The untraced run samples the host's speed, as the command's does.
    """
    name = request.param
    cells = replicas_for(name, bench.DEFAULT_SEED, replicas=1)[0]
    with HostSpeed() as speed:
        untraced = [run_cell(c, clock=speed.seconds) for c in cells]
    with Tracer() as tracer:
        traced = [run_cell(c, tracer) for c in cells]
    return name, untraced, traced, bench.per_layer(tracer, traced, [untraced])


def _sim(results):
    return [(r.name, r.sim) for r in results]


# -- output checks ----------------------------------------------------------

def test_traced_run_simulates_exactly_the_untraced_run(workload_run):
    _, untraced, traced, _ = workload_run
    assert _sim(traced) == _sim(untraced)


def test_mirrors_consistent_at_end_of_every_cell(workload_run):
    _, untraced, traced, _ = workload_run
    assert [p for r in untraced + traced for p in r.problems] == []


def test_layer_self_times_add_up_to_kernel_run_wall(workload_run):
    _, _, _, layers = workload_run
    total = layers["sim.kernel.residual_s"] + sum(
        layers[k] for k in bench.RUN_LAYERS)
    assert total == pytest.approx(layers["sim.kernel.run_s"], rel=1e-6)
    assert set(layers) == set(bench.metric_units("per_layer")) \
        == set(bench.MOVES)


def test_unsettled_jobs_count_as_not_completed(workload_run):
    _, untraced, _, _ = workload_run
    out = bench.outcomes(untraced)
    settled = sum(out[f"grid.jobs.{k}"]
                  for k in ("completed", "failed", "lost", "unsettled"))
    assert settled == out["grid.jobs.submitted"]


# -- workload contrast --------------------------------------------------------

def test_search_runs_at_least_once_per_completed_job(workload_run):
    _, untraced, _, layers = workload_run
    completed = sum(r.sim["completed"] for r in untraced)
    assert layers["match.search.calls"] >= completed


def test_figure2_sweep_arms_no_timer_and_makes_no_rpc(workload_run):
    name, _, _, layers = workload_run
    if name != "figure2-sweep":
        pytest.skip("figure2-sweep only")
    assert layers["grid.timers.fires"] == 0
    assert layers["sim.rpc.calls"] == 0


def test_churn_recovery_uses_timers_and_rpc(workload_run):
    name, _, _, layers = workload_run
    if name != "churn-recovery":
        pytest.skip("churn-recovery only")
    assert layers["grid.timers.fires"] > 0
    assert layers["sim.rpc.calls"] > 0


def test_heartbeat_large_is_dominated_by_timer_fires(workload_run):
    name, _, _, layers = workload_run
    if name != "heartbeat-large":
        pytest.skip("heartbeat-large only")
    assert layers["grid.timers.fires"] > 0.5 * layers["sim.kernel.events"]


def test_churn_recovery_reports_client_server_failures(workload_run):
    name, untraced, _, _ = workload_run
    if name != "churn-recovery":
        pytest.skip("churn-recovery only")
    server = next(r for r in untraced if r.name.endswith("/client-server"))
    assert server.sim["failed"] > 0
    out = bench.outcomes(untraced)
    assert out["grid.jobs.failed.owner_routing_failed"] == server.sim["failed"]
    metrics = bench.end_to_end(untraced, [untraced], [1.0], peak_rss_mb=1.0)
    assert metrics["completed_frac"] < 1.0


# -- harness ------------------------------------------------------------------

def test_reference_seconds_drop_the_loop_and_scale_by_its_speed():
    speed = HostSpeed()
    # Loops at 1.0 and 1.2 s in [0, 2]; one at 3.0 s in (2, 4].
    speed.at = [1.0, 1.2, 3.0]
    speed.took = [REF_LOOP_S, 3 * REF_LOOP_S, 4 * REF_LOOP_S]
    assert speed.seconds(0.0, 2.0) == pytest.approx(
        (2.0 - 4 * REF_LOOP_S) / 2)
    assert speed.seconds(2.0, 4.0) == pytest.approx((2.0 - 4 * REF_LOOP_S) / 4)
    # No loop inside: scaled by the last one before.
    assert speed.seconds(3.5, 3.6) == pytest.approx(0.1 / 4)
    assert HostSpeed().seconds(0.0, 1.5) == 1.5


def test_tracer_restores_every_patched_attribute():
    before = (Simulator.run, GridNode.handle_message, PeriodicTask.start,
              LeastLoadedPolicy.rank)
    with Tracer():
        assert Simulator.run is not before[0]
    assert (Simulator.run, GridNode.handle_message, PeriodicTask.start,
            LeastLoadedPolicy.rank) == before


def _boom() -> None:
    raise RuntimeError("injected")


def test_a_cell_that_raises_is_a_failed_operation():
    cell = replicas_for("churn-recovery", 1, replicas=1)[0][0]
    cell = replace(cell, churn=lambda grid: grid.sim.schedule(50.0, _boom))
    result = run_cell(cell)
    assert result.error == "RuntimeError: injected"
    assert result.sim["unsettled"] > 0


def test_the_takeover_cap_stops_a_cell_at_the_same_event(monkeypatch):
    monkeypatch.setattr(workloads, "TAKEOVER_CAP", 2000)
    cell = next(c for c in replicas_for("churn-recovery", 1, replicas=1)[0]
                if c.name.endswith("can-push"))
    first, second = run_cell(cell), run_cell(cell)
    assert first.error.startswith("TakeoverCapExceeded")
    assert first.sim == second.sim


@pytest.mark.parametrize("name", [w["name"] for w in json.loads(
    (ROOT / "BENCHMARK.json").read_text())["workloads"]])
def test_every_run_re_runs_replicas_on_the_same_seed(name, monkeypatch,
                                                      capsys):
    # One replica keeps this short; a run at any --seconds re-runs at
    # least MIN_RERUNS replicas after the statistics pass.
    monkeypatch.setitem(workloads.REPLICAS, name, 1)
    code = bench.main(["--workload", name, "--seed", "1",
                       "--seconds", "0.01", "--trace", "0"])
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert code == 0 and result["correct"]
    reruns = re.search(r"(\d+) re-runs", lines[-2])
    assert int(reruns.group(1)) >= bench.MIN_RERUNS >= 2
    # Re-runs repeat operations: attempted is the cell count of the seed.
    assert result["attempted"] == len(replicas_for(name, 1, replicas=1)[0])
    assert set(result["metrics"]) == set(bench.metric_units("end_to_end"))


def test_without_the_program_the_benchmark_exits_nonzero(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "churn-recovery",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={"PATH": "/usr/bin:/bin"})
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
