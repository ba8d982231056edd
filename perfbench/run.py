"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload heartbeat-large --seed 1 \\
        --seconds 40 --trace 0

A run first drives every replica of the workload's cells once (the
*statistics pass*, see :mod:`perfbench.workloads`); the virtual-time
metrics come from it.  It then re-runs replicas 0, 1, ... in turn, at
least ``MIN_RERUNS`` times and until ``--seconds`` of host time are used,
and checks that each re-run simulated exactly what the statistics pass
did on the same seed.  ``jobs_per_s`` is the throughput of a typical
replica over every replica run.  Untraced runs time in reference seconds
(:mod:`perfbench.hostspeed`), which cancel the host's speed swings.
``--trace 1`` adds one run of replica 0 with span wrappers
installed (:mod:`perfbench.tracer`), checks that it simulated exactly
what the untraced runs did, writes its spans under ``.perfbench_out/``
and reports the per-layer metrics instead of the end-to-end ones.

Metric names, units and directions are read from ``BENCHMARK.json``;
this module adds what that file has no key for: each end-to-end
metric's clock (``CLOCKS``) and the end-to-end metric and workload each
per-layer metric should move (``MOVES``).

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``.
An *operation* is one cell of the statistics pass, so ``attempted`` is
the workload's cell count and ``failed`` counts the cells whose
simulation raised; both depend on the seed alone.  Re-runs and the
traced run repeat those operations and must reproduce each one exactly,
its error included, so they add checks, not operations.  Job outcomes
inside the simulation (failed, lost, unsettled jobs) are measurements,
printed as a breakdown on the line before.
"""

from __future__ import annotations

import argparse
import json
import re
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

#: Seed the benchmark runs by default, and the one held out from tuning:
#: a claimed gain must hold on both.
DEFAULT_SEED = 1
HELD_OUT_SEED = 20071

#: Minimum set-up samples behind ``setup_s``.
SETUP_SAMPLES = 5
#: Minimum replica re-runs after the statistics pass: every run checks
#: same-seed determinism at least this often.
MIN_RERUNS = 2

#: Clock of each end-to-end metric.  Host = wall time of the machine
#: running the simulation; reference = host time scaled to a reference
#: machine speed (:mod:`perfbench.hostspeed`); virtual = the modelled
#: grid's simulated time.
CLOCKS = {
    "jobs_per_s": "reference",
    "setup_s": "reference",
    "peak_rss_mb": "host",
    "wait_p50_s": "virtual",
    "wait_p99_s": "virtual",
    "turnaround_p99_s": "virtual",
    "completed_frac": "virtual",
    "first_attempt_frac": "virtual",
    "msgs_per_job": "virtual",
    "match_cost_mean": "virtual",
    "load_fairness": "virtual",
}

#: The end-to-end metric and workload each per-layer metric should move.
#: ``figure2-sweep`` runs with ``--workload`` but is not in BENCHMARK.json
#: (see README.md).
MOVES = {
    "sim.kernel.events": "jobs_per_s on heartbeat-large",
    "sim.kernel.events_per_job": "jobs_per_s on heartbeat-large",
    "sim.kernel.events_per_s": "jobs_per_s on heartbeat-large",
    "sim.kernel.run_s": "jobs_per_s on all workloads",
    "sim.kernel.residual_s": "jobs_per_s on heartbeat-large",
    "grid.timers.fires": "jobs_per_s on heartbeat-large (0 on figure2-sweep)",
    "grid.timers.s": "jobs_per_s on heartbeat-large",
    "grid.timers.useful_ratio": "jobs_per_s on heartbeat-large",
    "grid.node.handle_message.calls":
        "jobs_per_s on churn-recovery, heartbeat-large",
    "grid.node.handle_message.s":
        "jobs_per_s on churn-recovery, heartbeat-large",
    "grid.node.owner_receive.calls": "jobs_per_s on churn-recovery",
    "grid.node.owner_receive.s":
        "jobs_per_s on churn-recovery, heartbeat-large",
    "match.find_owner.calls": "jobs_per_s, match_cost_mean on figure2-sweep",
    "match.find_owner.s": "jobs_per_s on figure2-sweep",
    "match.find_owner.hops_mean": "match_cost_mean on figure2-sweep",
    "match.search.calls": "jobs_per_s on figure2-sweep",
    "match.search.s": "jobs_per_s on figure2-sweep",
    "match.search.hit_ratio": "match_cost_mean on figure2-sweep",
    "match.search.candidates_mean": "load_fairness on figure2-sweep",
    "match.select.calls": "jobs_per_s on figure2-sweep",
    "match.select.s": "jobs_per_s on figure2-sweep",
    "match.select.probes_mean":
        "match_cost_mean, load_fairness on figure2-sweep",
    "dht.route.calls": "jobs_per_s on churn-recovery",
    "dht.route.hops_mean": "match_cost_mean on figure2-sweep",
    "dht.route.fail_ratio": "completed_frac on churn-recovery",
    "dht.maintenance.calls": "jobs_per_s on churn-recovery",
    "dht.maintenance.s": "jobs_per_s on churn-recovery; setup_s on all",
    "sim.network.sent": "msgs_per_job on churn-recovery, heartbeat-large",
    "sim.network.send_s": "jobs_per_s on churn-recovery, heartbeat-large",
    "sim.network.dropped_ratio": "msgs_per_job on churn-recovery",
    "sim.rpc.calls": "jobs_per_s on churn-recovery (0 on figure2-sweep)",
    "sim.rpc.call_s": "jobs_per_s on churn-recovery",
    "sim.rpc.timeout_ratio": "turnaround_p99_s on churn-recovery",
    "grid.membership.calls": "jobs_per_s on churn-recovery",
    "grid.membership.s": "jobs_per_s on churn-recovery",
    "grid.client.submits": "completed_frac on churn-recovery",
    "grid.client.resubmissions":
        "first_attempt_frac, completed_frac on churn-recovery",
    "workloads.population_s": "setup_s on all, mostly heartbeat-large",
    "grid.build_s": "setup_s on all, mostly heartbeat-large",
    "trace.overhead_frac": "none (tracing cost)",
}

#: Self times that, with the kernel residual, make up Simulator.run wall.
RUN_LAYERS = ("grid.timers.s", "grid.node.handle_message.s",
              "grid.node.owner_receive.s", "match.find_owner.s",
              "match.search.s", "match.select.s", "dht.maintenance.s",
              "sim.network.send_s", "sim.rpc.call_s", "grid.membership.s")


def _fail(message: str) -> int:
    print(f"perfbench: error: {message}", file=sys.stderr)
    return 2


def _import_program():
    """Import the repository's ``repro`` package from ``<root>/src`` only."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise ImportError(f"no program source at {src}")
    sys.path[:0] = [str(ROOT), str(src)]
    import repro
    if Path(repro.__file__).resolve().parent != src / "repro":
        raise ImportError(f"repro imported from {repro.__file__}, not {src}")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def metric_units(kind: str) -> dict[str, str]:
    """Metric name -> unit of ``kind`` (``end_to_end`` or ``per_layer``),
    as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def _jobs_per_s(results) -> float:
    """Jobs ÷ drive time of a typical replica.

    A cell's drive time is its median over its runs (the statistics pass
    and the re-runs).  For each kind of cell (its name without the
    replica seed), the replicas' drive times are averaged after dropping
    the fastest and the slowest, when there are five or more; jobs and
    times are then summed over kinds.  The trimmed mean is steadier
    across seeds than the median, because CAN cells under churn take
    one of two typical times (about 1.9 and 3.1 reference seconds) and
    a median flips between them.  A cell whose simulation raised is a
    failed operation, counted in ``failed``, and is left out: its time
    says where it failed, not how fast the program runs.
    """
    runs: dict[str, list] = {}
    for r in results:
        if r.error is None:
            runs.setdefault(r.name, []).append(r)
    kinds: dict[str, list] = {}
    for name, rs in runs.items():
        kinds.setdefault(name.split("/", 1)[1], []).append(
            (rs[0].submitted, statistics.median(r.drive_s for r in rs)))
    jobs = drive = 0.0
    for cells in kinds.values():
        times = sorted(t for _, t in cells)
        if len(times) >= 5:
            times = times[1:-1]
        jobs += statistics.fmean(n for n, _ in cells)
        drive += statistics.fmean(times)
    return _ratio(jobs, drive)


def _wall(results) -> float:
    return sum(r.population_s + r.build_s + r.drive_s for r in results)


def end_to_end(stats, runs, setup_samples: list[float],
               peak_rss_mb: float) -> dict[str, float]:
    """The end-to-end metrics of a run.

    ``stats`` is the statistics pass (every cell once) and ``runs`` every
    replica run (lists of results), the statistics pass's included.  A
    cell whose simulation raised counts in the virtual-time metrics as it
    stood at the exception (its unsettled jobs are not completed), and
    not in ``jobs_per_s``.
    """
    import numpy as np

    submitted = sum(r.submitted for r in stats)
    waits = np.concatenate([r.waits for r in stats])
    turnarounds = np.concatenate([r.turnarounds for r in stats])
    costs = np.concatenate([r.match_costs for r in stats])

    def pct(values, q) -> float:
        return float(np.percentile(values, q)) if values.size else 0.0

    return {
        "jobs_per_s": _jobs_per_s([r for results in runs for r in results]),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": peak_rss_mb,
        "wait_p50_s": pct(waits, 50),
        "wait_p99_s": pct(waits, 99),
        "turnaround_p99_s": pct(turnarounds, 99),
        "completed_frac": _ratio(sum(r.sim["completed"] for r in stats),
                                 submitted),
        "first_attempt_frac": 1.0 - _ratio(
            sum(r.sim["resubmitted_jobs"] for r in stats), submitted),
        "msgs_per_job": _ratio(sum(r.sim["net_sent"] for r in stats),
                               submitted),
        "match_cost_mean": float(costs.mean()) if costs.size else 0.0,
        "load_fairness": statistics.fmean(r.sim["load_fairness"]
                                          for r in stats),
    }


def per_layer(tracer, traced, untraced_runs,
              ref_factor: float = 1.0) -> dict[str, float]:
    """Per-layer metrics of the traced run, against the untraced runs of
    the same cells (see ``MOVES``).

    The traced run's times are host seconds; the untraced runs' are
    reference seconds, ``ref_factor`` per host second on average.
    """
    import numpy as np

    from perfbench import tracer as tr

    calls, self_s, counts = tracer.calls, tracer.self_s, tracer.counts
    stat = {k: sum(r.sim.get(k, 0) for r in traced)
            for k in ("events", "net_sent", "net_dropped",
                      "rpc_calls", "rpc_timeouts", "dht_routes",
                      "dht_route_hops", "dht_route_failed", "resubmissions")}
    names = np.frombuffer(tracer.name, dtype=np.int32)
    starts = np.frombuffer(tracer.start, dtype=np.float64)
    ends = np.frombuffer(tracer.end, dtype=np.float64)
    run_mask = names == tracer.names.index(tr.KERNEL_RUN)
    untraced_drive = statistics.median(
        sum(r.drive_s for r in p) for p in untraced_runs)
    untraced_wall = statistics.median(_wall(p) for p in untraced_runs)
    fires = calls[tr.TIMERS]
    return {
        "sim.kernel.events": stat["events"],
        "sim.kernel.events_per_job": _ratio(
            stat["events"], sum(r.submitted for r in traced)),
        "sim.kernel.events_per_s": _ratio(stat["events"], untraced_drive),
        "sim.kernel.run_s": float((ends[run_mask] - starts[run_mask]).sum()),
        "sim.kernel.residual_s": self_s[tr.KERNEL_RUN],
        "grid.timers.fires": fires,
        "grid.timers.s": self_s[tr.TIMERS],
        "grid.timers.useful_ratio": _ratio(counts["timers.useful"],
                                           counts["timers.protocol_fires"]),
        "grid.node.handle_message.calls": calls[tr.HANDLE_MESSAGE],
        "grid.node.handle_message.s": self_s[tr.HANDLE_MESSAGE],
        "grid.node.owner_receive.calls": calls[tr.OWNER_RECEIVE],
        "grid.node.owner_receive.s": self_s[tr.OWNER_RECEIVE],
        "match.find_owner.calls": calls[tr.FIND_OWNER],
        "match.find_owner.s": self_s[tr.FIND_OWNER],
        "match.find_owner.hops_mean": _ratio(counts["find_owner.hops"],
                                             calls[tr.FIND_OWNER]),
        "match.search.calls": calls[tr.SEARCH],
        "match.search.s": self_s[tr.SEARCH],
        "match.search.hit_ratio": _ratio(counts["search.hits"],
                                         calls[tr.SEARCH]),
        "match.search.candidates_mean": _ratio(counts["search.candidates"],
                                               calls[tr.SEARCH]),
        "match.select.calls": calls[tr.SELECT],
        "match.select.s": self_s[tr.SELECT],
        "match.select.probes_mean": _ratio(counts["select.probes"],
                                           calls[tr.SELECT]),
        "dht.route.calls": stat["dht_routes"],
        "dht.route.hops_mean": _ratio(stat["dht_route_hops"],
                                      stat["dht_routes"]),
        "dht.route.fail_ratio": _ratio(stat["dht_route_failed"],
                                       stat["dht_routes"]),
        "dht.maintenance.calls": calls[tr.MAINTENANCE],
        "dht.maintenance.s": self_s[tr.MAINTENANCE],
        "sim.network.sent": stat["net_sent"],
        "sim.network.send_s": self_s[tr.NET_SEND],
        "sim.network.dropped_ratio": _ratio(
            stat["net_dropped"], stat["net_sent"] + stat["net_dropped"]),
        "sim.rpc.calls": stat["rpc_calls"],
        "sim.rpc.call_s": self_s[tr.RPC_CALL],
        "sim.rpc.timeout_ratio": _ratio(stat["rpc_timeouts"],
                                        stat["rpc_calls"]),
        "grid.membership.calls": calls[tr.MEMBERSHIP],
        "grid.membership.s": self_s[tr.MEMBERSHIP],
        "grid.client.submits": sum(r.injected for r in traced),
        "grid.client.resubmissions": stat["resubmissions"],
        "workloads.population_s": self_s[tr.POPULATION],
        "grid.build_s": self_s[tr.BUILD],
        "trace.overhead_frac": _ratio(
            _wall(traced) * ref_factor - untraced_wall, untraced_wall),
    }


def outcomes(results) -> dict[str, float]:
    """Job-outcome breakdown of the statistics pass, printed with every
    run."""
    keys = ("completed", "failed", "lost", "resubmitted_jobs")
    total = {k: sum(r.sim.get(k, 0) for r in results) for k in keys}
    submitted = sum(r.submitted for r in results)
    out = {"grid.jobs.submitted": submitted,
           **{f"grid.jobs.{k}": total[k] for k in keys[:3]},
           "grid.jobs.unsettled": submitted - total["completed"]
           - total["failed"] - total["lost"]}
    reasons: dict[str, int] = {}
    for r in results:
        for reason, n in r.failure_reasons.items():
            slug = re.sub(r"[^A-Za-z0-9_.-]+", "_", reason).strip("_")
            reasons[slug] = reasons.get(slug, 0) + n
    for slug in sorted(reasons):
        out[f"grid.jobs.failed.{slug}"] = reasons[slug]
    out["failed_frac"] = _ratio(submitted - total["completed"], submitted)
    out["resubmit_frac"] = _ratio(total["resubmitted_jobs"], submitted)
    out["grid.cells.raised"] = sum(r.error is not None for r in results)
    return out


def _sim_stats(results) -> list[tuple[str, dict]]:
    return [(r.name, r.sim) for r in results]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        _import_program()
    except ImportError as exc:
        return _fail(str(exc))
    from perfbench.hostspeed import HostSpeed
    from perfbench.tracer import Tracer
    from perfbench.workloads import WORKLOADS, replicas_for, run_cell, set_up

    if args.workload not in WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        return _fail("--seconds must be positive")
    replicas = replicas_for(args.workload, args.seed)

    # Untraced host times are in reference seconds (perfbench.hostspeed).
    with HostSpeed() as speed:
        t_start = time.perf_counter()
        # The statistics pass: every replica once.
        runs = [(i, [run_cell(c, clock=speed.seconds) for c in cells])
                for i, cells in enumerate(replicas)]
        by_replica = dict(runs)
        problems = [p for _, results in runs for r in results
                    for p in r.problems]
        # Re-run replicas in turn until --seconds are used, at least
        # MIN_RERUNS times, each checked against the statistics pass.
        while (len(runs) < len(replicas) + MIN_RERUNS
               or time.perf_counter() - t_start < args.seconds):
            i = (len(runs) - len(replicas)) % len(replicas)
            results = [run_cell(c, clock=speed.seconds)
                       for c in replicas[i]]
            if _sim_stats(results) != _sim_stats(by_replica[i]):
                problems.append(f"replica {i} simulated differently when "
                                "run again on the same seed")
            runs.append((i, results))
        stats = [r for i in range(len(replicas)) for r in by_replica[i]]
        # Set-up is short and noisy: add set-up-only rounds so its median
        # rests on several samples.
        setup_samples = [sum(r.population_s + r.build_s for r in stats)]
        while len(setup_samples) < SETUP_SAMPLES:
            setup_samples.append(sum(
                sum(set_up(c, clock=speed.seconds)[2:])
                for cells in replicas for c in cells))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted = len(stats)
    failed = sum(r.error is not None for r in stats)

    if args.trace:
        # The traced run is replica 0 (the seed itself), which keeps the
        # span arrays small.
        with Tracer() as tracer:
            traced = [run_cell(c, tracer) for c in replicas[0]]
        problems += [p for r in traced for p in r.problems]
        if _sim_stats(traced) != _sim_stats(by_replica[0]):
            problems.append("the traced run simulated differently from "
                            "the untraced runs")
        metrics = per_layer(tracer, traced,
                            [results for i, results in runs if i == 0],
                            speed.factor())
        run_s = metrics["sim.kernel.run_s"]
        layers = metrics["sim.kernel.residual_s"] + sum(
            metrics[k] for k in RUN_LAYERS)
        if abs(layers - run_s) > 1e-6 * max(run_s, 1.0):
            problems.append(f"layer self times + residual = {layers!r} s, "
                            f"Simulator.run wall = {run_s!r} s")
        tracer.save(OUT_DIR / f"trace-{args.workload}.npz",
                    workload=args.workload, seed=args.seed)
        units = metric_units("per_layer")
    else:
        metrics = end_to_end(stats, [results for _, results in runs],
                             setup_samples, peak_rss_mb)
        units = metric_units("end_to_end")
    if set(metrics) != set(units):
        return _fail("metrics computed differ from BENCHMARK.json: "
                     f"{sorted(set(metrics) ^ set(units))}")

    print("perfbench: jobs/s by replica run:",
          [(i, round(_jobs_per_s(results), 2)) for i, results in runs])
    for r in stats:
        if r.error is not None:
            print(f"perfbench: cell {r.name} raised {r.error}")
    for problem in problems:
        print(f"perfbench: check failed: {problem}")
    print(f"perfbench: {args.workload} seed {args.seed}: {len(replicas)} "
          f"replicas, {len(runs) - len(replicas)} re-runs; outcomes "
          + json.dumps(outcomes(stats)))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]}
                    for k in units},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
