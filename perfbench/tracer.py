"""Span tracing from outside the program: wrappers around public entry points.

:class:`Tracer` patches each layer's entry point *on the attribute its
callers look up* (a class method, or a module global imported by name),
records one span per call, and restores every attribute on exit.  Nothing
under ``src/`` changes and the wrappers draw no randomness, so a traced
run simulates exactly what an untraced run does.

A span has a name, a host-clock start and end, a parent (the enclosing
wrapped call) and a trace id (the job GUID when the call carries a job,
else the parent's).  Spans are kept in columnar arrays and written out by
:meth:`Tracer.save` when the traced run ends.  Self time -- a span's
duration minus the time its child spans cover -- is summed per span name
as spans close.

A wrapped call whose innermost open span has the same name runs untraced:
a ``super()`` chain between matchmaker classes, or phase-2 ranking inside
``oracle_select``, is one call of its layer, not two.
"""

from __future__ import annotations

import functools
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import numpy as np

import repro.grid.node as grid_node
import repro.match.base as match_base
from repro.grid.job import Job
from repro.grid.node import GridNode
from repro.grid.system import DesktopGrid
from repro.match import MATCHMAKERS
from repro.match.select import POLICIES
from repro.sim.kernel import Simulator
from repro.sim.network import Network
from repro.sim.process import PeriodicTask
from repro.sim.rpc import RpcLayer

#: Span names (the layer each one times).
KERNEL_RUN = "sim.kernel.run"
TIMERS = "grid.timers"
HANDLE_MESSAGE = "grid.node.handle_message"
OWNER_RECEIVE = "grid.node.owner_receive"
FIND_OWNER = "match.find_owner"
SEARCH = "match.search"
SELECT = "match.select"
MAINTENANCE = "dht.maintenance"
NET_SEND = "sim.network.send"
RPC_CALL = "sim.rpc.call"
MEMBERSHIP = "grid.membership"
POPULATION = "workloads.build_population"
BUILD = "grid.build"


def _job_guid(value: Any) -> int:
    return value.guid if isinstance(value, Job) else 0


def _trace_of_message(args, kwargs) -> int:
    return _job_guid(args[1].payload)


def _trace_of_send(args, kwargs) -> int:
    # Network.send(self, kind, src, dst, payload=None, on_delivered=None,
    #              trace=None); RpcLayer.call has the same shape.
    trace = kwargs.get("trace")
    if trace is not None:
        return trace[0]
    payload = args[4] if len(args) > 4 else kwargs.get("payload")
    return _job_guid(payload)


def _trace_of_arg(i: int) -> Callable[[tuple, dict], int]:
    def trace_of(args, kwargs) -> int:
        return _job_guid(args[i]) if len(args) > i else 0
    return trace_of


class Tracer:
    """Records spans around layer entry points while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # Span columns, one row per span in open order.
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.trace = array("Q")
        #: Open spans: [row, name id, child time so far].
        self._stack: list[list] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        #: Per-layer counts observed at the same boundaries.
        self.counts: dict[str, float] = defaultdict(float)
        self._patches: list[tuple[Any, str, Any]] = []

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- spans -------------------------------------------------------------

    def _open(self, nid: int, trace: int) -> list:
        stack = self._stack
        row = len(self.start)
        parent = stack[-1][0] if stack else -1
        if not trace and parent >= 0:
            trace = self.trace[parent]
        self.name.append(nid)
        self.parent.append(parent)
        self.trace.append(trace)
        self.end.append(0.0)
        frame = [row, nid, 0.0]
        stack.append(frame)
        self.start.append(perf_counter())
        return frame

    def _close(self, frame: list) -> None:
        t1 = perf_counter()
        stack = self._stack
        stack.pop()
        row = frame[0]
        self.end[row] = t1
        duration = t1 - self.start[row]
        own = duration - frame[2]
        name = self.names[frame[1]]
        self.calls[name] += 1
        self.self_s[name] += own
        if stack:
            stack[-1][2] += duration

    def record(self, name: str, t0: float, t1: float) -> None:
        """Add a closed top-level span timed by the caller."""
        self.name.append(self._name_id(name))
        self.parent.append(-1)
        self.trace.append(0)
        self.start.append(t0)
        self.end.append(t1)
        self.calls[name] += 1
        self.self_s[name] += t1 - t0

    def wrap(self, name: str, fn: Callable,
             trace_of: Callable[[tuple, dict], int] | None = None,
             observe: Callable[[tuple, Any], None] | None = None
             ) -> Callable:
        """``fn`` timed as span ``name``; ``observe(args, result)`` counts."""
        nid = self._name_id(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][1] == nid:
                return fn(*args, **kwargs)
            frame = self._open(nid, trace_of(args, kwargs) if trace_of else 0)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame)
            if observe is not None:
                observe(args, result)
            return result
        return traced

    # -- installation --------------------------------------------------------

    def _patch(self, owner: Any, attr: str, name: str, **kw) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), **kw))

    def __enter__(self) -> "Tracer":
        counts = self.counts

        def note_hops(args, result) -> None:
            counts["find_owner.hops"] += result[1]

        def note_search(args, cset) -> None:
            if cset:
                counts["search.hits"] += 1
            n = len(cset.candidates)
            if not n and cset.reg_idx is not None:
                n = int(cset.reg_idx.size)
            counts["search.candidates"] += n

        def note_oracle_probes(args, result) -> None:
            counts["select.probes"] += result[1]

        def note_rank_probes(args, result) -> None:
            # policy.rank(candidates, loads, failed, rng, ...): in rpc mode
            # every probe either replied (loads) or timed out (failed).
            counts["select.probes"] += len(args[2]) + len(args[3])

        self._patch(Simulator, "run", KERNEL_RUN)
        self._patch(GridNode, "handle_message", HANDLE_MESSAGE,
                    trace_of=_trace_of_message)
        self._patch(GridNode, "owner_receive", OWNER_RECEIVE,
                    trace_of=_trace_of_arg(1))
        for module in (grid_node, match_base):
            self._patch(module, "oracle_select", SELECT,
                        observe=note_oracle_probes)
        for cls in POLICIES.values():
            if "rank" in cls.__dict__:
                self._patch(cls, "rank", SELECT, observe=note_rank_probes)
        # Every class a matchmaker inherits an entry point from (the
        # abstract base's versions are never called; wrapping them is
        # harmless).
        for cls in {c for m in MATCHMAKERS.values() for c in m.__mro__}:
            d = cls.__dict__
            if "find_owner" in d:
                self._patch(cls, "find_owner", FIND_OWNER,
                            trace_of=_trace_of_arg(1), observe=note_hops)
            if "search" in d:
                self._patch(cls, "search", SEARCH,
                            trace_of=_trace_of_arg(2), observe=note_search)
            for attr in ("on_crash", "on_join"):
                if attr in d:
                    self._patch(cls, attr, MAINTENANCE)
        self._patch(Network, "send", NET_SEND, trace_of=_trace_of_send)
        self._patch(RpcLayer, "call", RPC_CALL, trace_of=_trace_of_send)
        for attr in ("crash_node", "recover_node", "partition_node",
                     "heal_node"):
            self._patch(DesktopGrid, attr, MEMBERSHIP)
        self._install_timers()
        return self

    def _install_timers(self) -> None:
        """Wrap each ``PeriodicTask.fn`` as the task starts.

        Runner ticks and monitor sweeps are also judged useful or idle
        before the callback runs: a tick is useful when its node has a
        queued or running job, a sweep when its node owns a job.
        """
        original_start = PeriodicTask.start
        has_work = {GridNode._runner_tick: lambda node: node.queue_len > 0,
                    GridNode._monitor_owned: lambda node: bool(node.owned)}
        counts = self.counts

        def start(task: PeriodicTask) -> None:
            fn = task.fn
            if not getattr(fn, "_perfbench", False):
                traced = self.wrap(TIMERS, fn)
                probe = has_work.get(getattr(fn, "__func__", None))
                if probe is None:
                    wrapped = traced
                else:
                    node = fn.__self__

                    def wrapped() -> None:
                        counts["timers.protocol_fires"] += 1
                        if node.alive and probe(node):
                            counts["timers.useful"] += 1
                        traced()
                wrapped._perfbench = True
                task.fn = wrapped
            original_start(task)

        self._patches.append((PeriodicTask, "start", original_start))
        PeriodicTask.start = start

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output ------------------------------------------------------------

    def save(self, path: Path, **meta: Any) -> None:
        """Write every span (columnar ``.npz``) plus ``meta`` scalars."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path,
                 names=np.array(self.names),
                 name=np.frombuffer(self.name, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 trace=np.frombuffer(self.trace, dtype=np.uint64),
                 **{k: np.asarray(v) for k, v in meta.items()})
