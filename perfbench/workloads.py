"""The benchmark's three workloads, driven through the public experiment API.

Every workload is a fixed list of *cells*.  A cell is one grid: a node
population and job stream from :func:`build_population`, a
:class:`DesktopGrid` with a matchmaker from :func:`make_matchmaker`,
optional :class:`CrashRecoveryProcess` churn, and :func:`drive` to run it.
The workload seed is the only input; every cell derives its population,
job stream and grid RNG from it, so a seed always yields the same inputs
and, the simulator being deterministic, the same simulated statistics.

Why these three (each stresses different layers):

* ``heartbeat-large`` -- one large RN-Tree grid with heartbeats on and no
  failures: periodic runner/monitor timers and the kernel loop dominate,
  matchmaking runs about one search per job.
* ``figure2-sweep`` -- the paper's Figure 2 grid at scale 0.25, no
  heartbeats, oracle probes: matchmaking phase 1/2 and DHT owner routing
  do nearly all the work; no protocol timer and no rpc.  The control.
* ``churn-recovery`` -- the paper's robustness experiment under the full
  message-level protocol: network, rpc, overlay maintenance and the §2
  recovery paths.  The only workload in which jobs fail.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator

import numpy as np

from repro.dht.base import DHTOverlay
from repro.dht.can import CANOverlay
from repro.experiments.churn import ChurnConfig
from repro.experiments.figure2 import FIGURE2_MATCHMAKERS, scaled_scenarios
from repro.experiments.runner import build_population, drive
from repro.grid.job import JobState
from repro.grid.system import DEFAULT_MAX_TIME, DesktopGrid, GridConfig
from repro.match import make_matchmaker
from repro.sim.failure import CrashRecoveryProcess
from repro.workloads.spec import WorkloadConfig

from perfbench.tracer import BUILD, POPULATION

#: Nodes in the ``heartbeat-large`` grid (jobs = 2 per node).
HEARTBEAT_N = 1024
#: Figure 2 scale: 250 nodes / 1,250 jobs per cell.
FIGURE2_SCALE = 0.25
#: Churn-recovery systems, as in ``repro run churn``.
CHURN_SYSTEMS = ("p2p/rn-tree", "p2p/can-push", "client-server")
#: Zone pairs the CAN takeovers of one cell may compare before the cell
#: is stopped as a failed operation.  A takeover scans every live node's
#: zones for each zone of the dead node, and zones fragment under churn.
#: The ``churn-recovery`` CAN cells of seeds 1-30 compare at most 0.47 M
#: pairs in 6.4 s of host time on a 2-core host, except seed 9, where
#: fragmentation runs away to 9.3 M pairs and 77 s.  The cap counts
#: simulated work, not host time, so the same cells stop at the same
#: event on every host.
TAKEOVER_CAP = 1_000_000


@dataclass(frozen=True)
class Cell:
    """One grid of a workload: how to build it and how to drive it."""

    name: str
    workload: WorkloadConfig
    matchmaker: str
    mm_kwargs: dict
    grid_cfg: GridConfig
    max_time: float = DEFAULT_MAX_TIME
    #: Installs churn processes on the built grid (None = no failures).
    churn: Callable[[DesktopGrid], None] | None = None


@dataclass
class CellResult:
    """Host timings plus the simulated statistics of one driven cell."""

    name: str
    population_s: float
    build_s: float
    drive_s: float
    submitted: int
    #: Jobs injected into the grid (each client's first submission).
    injected: int
    #: Exact simulated statistics; equal across runs of the same seed.
    sim: dict
    waits: np.ndarray = field(repr=False)
    turnarounds: np.ndarray = field(repr=False)
    match_costs: np.ndarray = field(repr=False)
    failure_reasons: Counter = field(default_factory=Counter)
    problems: list[str] = field(default_factory=list)

    @property
    def error(self) -> str | None:
        """The exception the simulation raised, or None."""
        return self.sim["error"]


def _digest(values: np.ndarray) -> str:
    return hashlib.sha1(np.ascontiguousarray(values, dtype=float)
                        .tobytes()).hexdigest()


def heartbeat_large(seed: int) -> list[Cell]:
    workload = replace(WorkloadConfig(node_mode="mixed", job_mode="mixed"),
                       n_nodes=HEARTBEAT_N, n_jobs=2 * HEARTBEAT_N,
                       mean_interarrival=100.0 / HEARTBEAT_N)
    cfg = GridConfig(seed=seed, spec=workload.spec, heartbeats_enabled=True)
    return [Cell(f"rn-tree/n{HEARTBEAT_N}", workload, "rn-tree", {}, cfg)]


def figure2_sweep(seed: int) -> list[Cell]:
    cells = []
    for scenario, workload in scaled_scenarios(FIGURE2_SCALE).items():
        for mm in FIGURE2_MATCHMAKERS:
            cfg = GridConfig(seed=seed, spec=workload.spec)
            cells.append(Cell(f"{scenario}/{mm}", workload, mm, {}, cfg))
    return cells


def _churn_installer(cc: ChurnConfig, server: bool
                     ) -> Callable[[DesktopGrid], None]:
    def install(grid: DesktopGrid) -> None:
        workers = [n.node_id for n in grid.node_list]
        if server:
            server_id = grid.matchmaker.server.node_id
            workers.remove(server_id)
            # Outages keep the server's job database (partition, not crash).
            CrashRecoveryProcess(grid.sim, grid.streams["server-outage"],
                                 [server_id],
                                 crash_fn=grid.partition_node,
                                 recover_fn=grid.heal_node,
                                 mean_uptime=cc.server_uptime,
                                 mean_downtime=cc.server_downtime)
        CrashRecoveryProcess(grid.sim, grid.streams["churn"], workers,
                             crash_fn=grid.crash_node,
                             recover_fn=grid.recover_node,
                             mean_uptime=cc.mean_uptime,
                             mean_downtime=cc.mean_downtime)
    return install


def churn_recovery(seed: int) -> list[Cell]:
    cc = ChurnConfig()
    workload = cc.workload()
    # The churn experiment's recovery protocol, under the full
    # message-level pipeline (rpc probes, acknowledged dispatch).
    cfg = GridConfig(
        seed=seed, spec=workload.spec,
        heartbeats_enabled=True,
        heartbeat_interval=cc.heartbeat_interval,
        relay_status_to_client=True,
        client_resubmit_enabled=True,
        client_check_interval=cc.heartbeat_interval * 4,
        client_timeout=cc.client_timeout,
        client_max_attempts=8,
        match_retries=10,
        match_retry_backoff=cc.heartbeat_interval * 2,
        probe_mode="rpc",
        dispatch_ack=True,
    )
    cells = []
    for system in CHURN_SYSTEMS:
        server = system == "client-server"
        mm, kwargs = ("centralized", {"server_mode": True}) if server \
            else (system.split("/", 1)[1], {})
        cells.append(Cell(system, workload, mm, kwargs, cfg, cc.max_time,
                          _churn_installer(cc, server)))
    return cells


#: Workload name -> cell-list factory (seed -> cells).
WORKLOADS: dict[str, Callable[[int], list[Cell]]] = {
    "heartbeat-large": heartbeat_large,
    "figure2-sweep": figure2_sweep,
    "churn-recovery": churn_recovery,
}

#: Independent replicas of each workload's cell list.  Tail statistics
#: (p99 wait, client-server failures) and each grid's jobs/s swing widely
#: between seeds; pooling replicas steadies them across workload seeds.
#: The counts keep one run near a minute on a 2-core host.  A CAN cell
#: under churn drives for 1.6 to 6.4 s, as its last job settles at 1,000
#: to 2,500 virtual seconds, so ``churn-recovery`` needs the most.
REPLICAS = {
    "heartbeat-large": 6,
    "figure2-sweep": 4,
    "churn-recovery": 10,
}


def replica_seed(seed: int, replica: int) -> int:
    """Seed of replica ``replica``; replica 0 runs on ``seed`` itself."""
    return seed + replica * 1_000_003


def replicas_for(workload: str, seed: int, replicas: int | None = None
                 ) -> list[list[Cell]]:
    """The cells of each replica of ``workload`` for workload ``seed``."""
    n = REPLICAS[workload] if replicas is None else replicas
    out = []
    for r in range(n):
        sub = replica_seed(seed, r)
        out.append([replace(c, name=f"s{sub}/{c.name}")
                    for c in WORKLOADS[workload](sub)])
    return out


class TakeoverCapExceeded(Exception):
    """A cell's CAN takeovers compared more than ``TAKEOVER_CAP`` zone
    pairs."""


@contextlib.contextmanager
def takeover_cap() -> Iterator[None]:
    """Stop the simulation once CAN takeovers exceed ``TAKEOVER_CAP``
    zone pairs.

    Counts, before each ``CANOverlay._takeover``, the dead node's zones
    times every live node's zones; the takeover that would pass the cap
    raises :class:`TakeoverCapExceeded` instead of running.
    """
    cap = TAKEOVER_CAP
    original = CANOverlay.__dict__["_takeover"]
    compared = 0

    def capped(overlay: CANOverlay, dead) -> None:
        nonlocal compared
        compared += len(dead.zones) * sum(len(n.zones) for n in overlay._live)
        if compared > cap:
            raise TakeoverCapExceeded(
                f"CAN takeovers compared over {cap} zone pairs")
        original(overlay, dead)

    CANOverlay._takeover = capped
    try:
        yield
    finally:
        CANOverlay._takeover = original


def host_seconds(t0: float, t1: float) -> float:
    """The default clock: host seconds from ``t0`` to ``t1``."""
    return t1 - t0


def set_up(cell: Cell, tracer=None, clock=host_seconds):
    """Generate the cell's inputs and build its grid, timing both steps.

    Returns ``(grid, job stream, population seconds, build seconds)``,
    the seconds as ``clock`` converts two ``perf_counter`` readings;
    ``tracer`` (a :class:`perfbench.tracer.Tracer`) also records the two
    steps as spans.
    """
    gc.collect()
    t0 = time.perf_counter()
    nodes, stream = build_population(cell.workload, cell.grid_cfg.seed)
    t1 = time.perf_counter()
    grid = DesktopGrid(cell.grid_cfg,
                       make_matchmaker(cell.matchmaker, **cell.mm_kwargs),
                       nodes)
    if cell.churn is not None:
        cell.churn(grid)
    t2 = time.perf_counter()
    if tracer is not None:
        tracer.record(POPULATION, t0, t1)
        tracer.record(BUILD, t1, t2)
    return grid, stream, clock(t0, t1), clock(t1, t2)


def run_cell(cell: Cell, tracer=None, clock=host_seconds) -> CellResult:
    """Build and drive one cell; time set-up and drive separately, with
    ``clock`` as in :func:`set_up`.

    A simulation that raises (:class:`TakeoverCapExceeded` included) is
    a failed operation, not a benchmark crash: the result carries the
    error and the grid's state at that point, which is deterministic.
    """
    grid, stream, population_s, build_s = set_up(cell, tracer, clock)
    error = None
    t0 = time.perf_counter()
    try:
        with takeover_cap():
            finished = drive(grid, cell.workload, stream,
                             max_time=cell.max_time)
    except Exception as exc:  # noqa: BLE001 - reported as a failed cell
        finished = False
        error = f"{type(exc).__name__}: {exc}"
        if not isinstance(exc, TakeoverCapExceeded):
            traceback.print_exc(file=sys.stderr)
    drive_s = clock(t0, time.perf_counter())
    return _collect(cell, grid, len(stream), finished, error,
                    population_s, build_s, drive_s)


def _collect(cell: Cell, grid: DesktopGrid, submitted: int, finished: bool,
             error: str | None, population_s: float, build_s: float,
             drive_s: float) -> CellResult:
    jobs = list(grid.jobs.values())
    by_state = Counter(j.state for j in jobs)
    completed = by_state[JobState.COMPLETED]
    failed = by_state[JobState.FAILED]
    lost = by_state[JobState.LOST]
    # Jobs never injected (none today) and jobs still active at max_time
    # both count as unsettled: nothing is dropped from the denominator.
    unsettled = submitted - completed - failed - lost
    reasons = Counter(j.failure_reason or "unknown" for j in jobs
                      if j.state in (JobState.FAILED, JobState.LOST))
    waits = grid.metrics.wait_times()
    turnarounds = grid.metrics.turnarounds()
    costs = grid.metrics.total_matchmaking_cost()
    summary = grid.metrics.summary(node_loads=grid.node_execution_counts())
    overlays = [v for v in vars(grid.matchmaker).values()
                if isinstance(v, DHTOverlay)]
    net, rpc = grid.network.stats, grid.rpc.stats
    sim = {
        "error": error,
        "finished": finished,
        "sim_time": grid.sim.now,
        "events": grid.sim.events_processed,
        "submitted": submitted,
        "completed": completed,
        "failed": failed,
        "lost": lost,
        "unsettled": unsettled,
        "resubmitted_jobs": sum(1 for j in jobs if j.attempt > 1),
        "resubmissions": sum(c.resubmissions for c in grid.clients.values()),
        "net_sent": net.sent,
        "net_dropped": net.dropped_dead_dst + net.dropped_dead_src,
        "rpc_calls": rpc.calls,
        "rpc_timeouts": rpc.timeouts,
        "dht_routes": sum(o.lookup_stats.lookups for o in overlays),
        "dht_route_hops": sum(o.lookup_stats.total_hops for o in overlays),
        "dht_route_failed": sum(o.lookup_stats.failed for o in overlays),
        "load_fairness": summary["load_fairness"],
        "waits": _digest(waits),
        "turnarounds": _digest(turnarounds),
        "match_costs": _digest(costs),
        "failure_reasons": sorted(reasons.items()),
    }
    problems: list[str] = []
    if error is None:
        # A simulation that raised stopped mid-event; its mirrors need
        # not agree, and the failure is already reported.
        problems += [f"registry: {p}"
                     for p in grid.registry.check_consistency()]
    if error is None and grid.job_table is not None:
        problems += [f"job_table: {p}"
                     for p in grid.job_table.check_consistency(grid)]
    return CellResult(cell.name, population_s, build_s, drive_s, submitted,
                      len(jobs), sim, waits, turnarounds, costs, reasons,
                      [f"{cell.name}: {p}" for p in problems])
