"""Columnar job table: array-backed job-state mirror.

At 10k+ nodes the per-job :class:`repro.grid.job.Job` objects stay the
protocol's working state, but every whole-population consumer — the
drain check in :meth:`DesktopGrid.run_until_done`, timeline/load
analytics — otherwise pays a per-job Python loop per scan.  This table
keeps ``state`` and ``owner`` in dense numpy columns, one row per
injected job, fed by the ``Job.state`` / ``Job.owner_id`` property
setters (installed in :mod:`repro.grid.job`) so no transition can
bypass the mirror.

``check_consistency()`` is the tripwire: it re-derives every column from
the per-object truth and reports mismatches, so a new mutation path that
forgets its mirror fails the invariant suite instead of drifting
silently (same contract as :meth:`NodeRegistry.check_consistency`).

A ``settled`` counter (terminal rows) makes the drain check O(1).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.grid.job import Job, JobState

if TYPE_CHECKING:  # pragma: no cover
    from repro.grid.system import DesktopGrid

#: JobState -> int8 column code, declaration order.  Terminal states
#: (COMPLETED, FAILED, LOST) are declared last, so "settled" is one
#: comparison against the smallest terminal code.
STATE_CODE: dict[JobState, int] = {s: i for i, s in enumerate(JobState)}
#: Column code -> JobState (inverse of STATE_CODE).
CODE_STATE: list[JobState] = list(JobState)
_TERMINAL_MIN = STATE_CODE[JobState.COMPLETED]
assert _TERMINAL_MIN == min(
    STATE_CODE[s] for s in (JobState.COMPLETED, JobState.FAILED, JobState.LOST))


class JobTable:
    """Dense columnar view of per-job lifecycle state.

    Rows are appended by :meth:`register` (one per injected job, in
    injection order); columns grow geometrically.  ``owner`` stores
    *dense registry indices* (``node_list`` order, ``-1`` for none)
    rather than GUIDs — GUIDs are sha1-scale integers that do not fit an
    int64 column, and the dense index is what the vectorized consumers
    join against :class:`NodeRegistry` columns.
    """

    __slots__ = ("jobs", "n", "state", "owner", "settled", "_node_index")

    def __init__(self, node_index: dict[int, int], capacity: int = 1024):
        #: node GUID -> dense registry index (NodeRegistry.index).
        self._node_index = node_index
        self.jobs: list[Job] = []          # row -> Job (check_consistency)
        self.n = 0
        self.settled = 0                   # rows in a terminal state
        cap = max(int(capacity), 1)
        self.state = np.zeros(cap, dtype=np.int8)
        self.owner = np.full(cap, -1, dtype=np.int32)

    def __len__(self) -> int:
        return self.n

    # -- registration ------------------------------------------------------

    def _grow(self) -> None:
        cap = len(self.state) * 2
        for name in ("state", "owner"):
            old = getattr(self, name)
            new = np.empty(cap, dtype=old.dtype)
            new[:self.n] = old[:self.n]
            setattr(self, name, new)

    def register(self, job: Job) -> int:
        """Assign ``job`` a row (idempotent; injection is the sole caller)."""
        if job._jt is self:
            return job._jt_idx
        i = self.n
        if i == len(self.state):
            self._grow()
        self.n = i + 1
        self.jobs.append(job)
        code = STATE_CODE[job.state]
        self.state[i] = code
        if code >= _TERMINAL_MIN:
            self.settled += 1
        self.owner[i] = -1 if job.owner_id is None \
            else self._node_index.get(job.owner_id, -1)
        job._jt = self
        job._jt_idx = i
        return i

    # -- global-truth hooks (driven by the Job property setters) ----------

    def note_state(self, idx: int, value: JobState) -> None:
        code = STATE_CODE[value]
        state = self.state
        old = int(state[idx])
        state[idx] = code
        self.settled += (code >= _TERMINAL_MIN) - (old >= _TERMINAL_MIN)

    def note_owner(self, idx: int, owner_id: int | None) -> None:
        self.owner[idx] = -1 if owner_id is None \
            else self._node_index.get(owner_id, -1)

    # -- vectorized consumers ---------------------------------------------

    @property
    def all_settled(self) -> bool:
        """O(1) drain check: every registered job reached a terminal state."""
        return self.settled == self.n

    def state_counts(self) -> dict[JobState, int]:
        """Job count per lifecycle state, one bincount over the column."""
        counts = np.bincount(self.state[:self.n],
                             minlength=len(CODE_STATE))
        return {s: int(counts[i]) for i, s in enumerate(CODE_STATE)}

    # -- tripwire ----------------------------------------------------------

    def check_consistency(self, grid: "DesktopGrid") -> list[str]:
        """Compare every column against the per-object truth (test hook).

        ``state``/``owner`` must always match the Job.  ``grid`` is
        unused (the Job objects carry all the truth); callers pass the
        table's grid.  Returns human-readable mismatch descriptions —
        empty means exact.
        """
        problems: list[str] = []
        index = self._node_index
        settled = 0
        for i, job in enumerate(self.jobs):
            code = STATE_CODE[job.state]
            if code >= _TERMINAL_MIN:
                settled += 1
            if int(self.state[i]) != code:
                problems.append(f"state[{i}] ({job.name}): "
                                f"{int(self.state[i])} != {code}")
            owner_idx = -1 if job.owner_id is None \
                else index.get(job.owner_id, -1)
            if int(self.owner[i]) != owner_idx:
                problems.append(f"owner[{i}] ({job.name}): "
                                f"{int(self.owner[i])} != {owner_idx}")
            if job._jt is not self or job._jt_idx != i:
                problems.append(f"row {i} ({job.name}): back-reference "
                                f"mismatch (idx={job._jt_idx})")
        if settled != self.settled:
            problems.append(f"settled counter: {self.settled} != {settled}")
        return problems
