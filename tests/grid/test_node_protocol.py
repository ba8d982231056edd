"""Run-node/owner protocol: FIFO execution, heartbeats, failure recovery.

These are the §2 behaviours: jobs execute one at a time in FIFO order;
heartbeats cover every queued job; the owner re-matches when the run node
dies; the run node recruits a replacement owner when the owner dies; the
client resubmits only when both die.
"""

import pytest

from repro.grid.job import Job, JobProfile, JobState
from repro.grid.sandbox import SandboxPolicy
from repro.grid.system import GridConfig

from tests.conftest import make_small_grid


def submit_job(grid, client, name, work=10.0, req=(0.0, 0.0, 0.0), at=0.0,
               **extra):
    job = Job(profile=JobProfile(name=name, client_id=client.node_id,
                                 requirements=req, work=work))
    job.extra.update(extra)
    grid.submit_at(at, client, job)
    return job


class TestFIFOExecution:
    def test_jobs_complete(self):
        grid = make_small_grid()
        client = grid.client("c")
        jobs = [submit_job(grid, client, f"fifo-{i}", work=5.0, at=float(i))
                for i in range(5)]
        assert grid.run_until_done(max_time=1000)
        assert all(j.state is JobState.COMPLETED for j in jobs)

    def test_one_at_a_time_fifo_order(self):
        # Force every job onto one node: a 1-node grid.
        grid = make_small_grid(n_nodes=1)
        client = grid.client("c")
        jobs = [submit_job(grid, client, f"serial-{i}", work=10.0, at=0.0)
                for i in range(4)]
        assert grid.run_until_done(max_time=1000)
        starts = sorted(j.start_time for j in jobs)
        for a, b in zip(starts, starts[1:]):
            assert b - a >= 10.0 - 1e-6  # strictly serialized
        # FIFO: start order == enqueue order.
        by_enqueue = sorted(jobs, key=lambda j: j.enqueue_time)
        by_start = sorted(jobs, key=lambda j: j.start_time)
        assert [j.name for j in by_enqueue] == [j.name for j in by_start]

    def test_wait_time_measures_queueing(self):
        grid = make_small_grid(n_nodes=1)
        client = grid.client("c")
        first = submit_job(grid, client, "front", work=20.0, at=0.0)
        second = submit_job(grid, client, "behind", work=5.0, at=0.0)
        grid.run_until_done(max_time=1000)
        assert first.wait_time < 1.0  # just network + matchmaking latency
        assert second.wait_time == pytest.approx(20.0, abs=1.0)

    def test_queue_len_counts_running_and_queued(self):
        grid = make_small_grid(n_nodes=1)
        node = grid.node_list[0]
        client = grid.client("c")
        for i in range(3):
            submit_job(grid, client, f"qlen-{i}", work=100.0, at=0.0)
        grid.run(until=10.0)
        assert node.queue_len == 3
        assert node.running is not None
        assert len(node.queue) == 2

    def test_turnaround_includes_execution(self):
        grid = make_small_grid()
        client = grid.client("c")
        job = submit_job(grid, client, "solo", work=30.0)
        grid.run_until_done(max_time=1000)
        assert job.turnaround == pytest.approx(30.0, abs=1.0)

    def test_execution_time_scales_with_cpu(self):
        cfg = GridConfig(seed=7, scale_runtime_by_cpu=True,
                         reference_cpu_level=10.0,
                         sandbox=SandboxPolicy(max_runtime_factor=None))
        grid = make_small_grid(cfg=cfg)
        node = grid.node_list[0]
        job = Job(profile=JobProfile(name="scaled", client_id=1,
                                     requirements=(0.0, 0.0, 0.0), work=10.0))
        expected = 10.0 / (node.capability[0] / 10.0)
        assert node.execution_time(job) == pytest.approx(expected)


class TestHeartbeatProtocol:
    def make_hb_grid(self, **overrides):
        defaults = dict(seed=7, heartbeats_enabled=True,
                        heartbeat_interval=1.0, heartbeat_miss_limit=2.5)
        defaults.update(overrides)
        return make_small_grid("rn-tree", n_nodes=12, cfg=GridConfig(**defaults))

    def test_heartbeats_flow_while_running(self):
        grid = self.make_hb_grid()
        client = grid.client("c")
        submit_job(grid, client, "hb-job", work=30.0)
        grid.run(until=20.0)
        assert grid.network.stats.by_kind.get("heartbeat", 0) > 5
        assert grid.network.stats.by_kind.get("hb-ack", 0) > 5

    def test_no_heartbeats_when_disabled(self):
        grid = make_small_grid("rn-tree", n_nodes=12,
                               cfg=GridConfig(seed=7, heartbeats_enabled=False))
        client = grid.client("c")
        submit_job(grid, client, "quiet", work=30.0)
        grid.run_until_done(max_time=1000)
        assert grid.network.stats.by_kind.get("heartbeat", 0) == 0

    def test_run_node_crash_triggers_rematch(self):
        grid = self.make_hb_grid()
        client = grid.client("c")
        job = submit_job(grid, client, "survivor", work=60.0)
        grid.run(until=10.0)
        assert job.state is JobState.RUNNING
        grid.crash_node(job.run_node_id)
        assert grid.run_until_done(max_time=5000)
        assert job.state is JobState.COMPLETED
        assert job.run_node_failures >= 1
        assert job.executions >= 2  # restarted from scratch
        assert grid.metrics.recoveries["run-node"] >= 1
        assert job.attempt == 1  # no client resubmission needed

    def test_owner_crash_recruits_replacement(self):
        grid = self.make_hb_grid()
        client = grid.client("c")
        job = submit_job(grid, client, "orphan", work=60.0)
        grid.run(until=10.0)
        assert job.state is JobState.RUNNING
        original_owner = job.owner_id
        assert original_owner != job.run_node_id  # owner != runner here
        grid.crash_node(original_owner)
        assert grid.run_until_done(max_time=5000)
        assert job.state is JobState.COMPLETED
        assert job.owner_failures >= 1
        assert job.owner_id != original_owner
        assert grid.metrics.recoveries["owner"] >= 1
        assert job.attempt == 1

    def test_both_crash_forces_client_resubmission(self):
        grid = self.make_hb_grid(relay_status_to_client=True,
                                 client_resubmit_enabled=True,
                                 client_check_interval=5.0,
                                 client_timeout=20.0,
                                 client_max_attempts=5)
        client = grid.client("c")
        job = submit_job(grid, client, "doomed-once", work=60.0)
        grid.run(until=10.0)
        assert job.state is JobState.RUNNING
        owner_id, run_id = job.owner_id, job.run_node_id
        grid.crash_node(owner_id)
        if run_id != owner_id:
            grid.crash_node(run_id)
        assert grid.run_until_done(max_time=20000)
        assert job.state is JobState.COMPLETED
        assert job.attempt >= 2
        assert client.resubmissions >= 1


class TestSupersededAssignments:
    def test_stale_assignment_is_dropped(self):
        grid = make_small_grid(n_nodes=4)
        node = grid.node_list[0]
        other = grid.node_list[1]
        job = Job(profile=JobProfile(name="stale", client_id=1,
                                     requirements=(0.0, 0.0, 0.0), work=5.0))
        job.run_node_id = other.node_id  # owner re-matched elsewhere
        from repro.sim.network import Message

        node.handle_message(Message("assign", src=2, dst=node.node_id,
                                    payload=job))
        assert node.queue_len == 0


class TestSandboxIntegration:
    def test_network_needing_job_fails(self):
        grid = make_small_grid()
        client = grid.client("c")
        job = submit_job(grid, client, "rogue", work=5.0, needs_network=True)
        grid.run_until_done(max_time=1000)
        assert job.state is JobState.FAILED
        assert "network" in job.failure_reason

    def test_oversized_output_fails_at_completion(self):
        cfg = GridConfig(seed=7, sandbox=SandboxPolicy(output_quota_kb=1.0))
        grid = make_small_grid(cfg=cfg)
        client = grid.client("c")
        job = Job(profile=JobProfile(name="chatty", client_id=client.node_id,
                                     requirements=(0.0, 0.0, 0.0), work=5.0,
                                     output_size_kb=100.0))
        grid.submit_at(0.0, client, job)
        grid.run_until_done(max_time=1000)
        assert job.state is JobState.FAILED
        assert "output-quota" in job.failure_reason

    def test_runaway_killed_at_limit(self):
        # A slow node stretches execution past the runaway factor.
        cfg = GridConfig(seed=7, scale_runtime_by_cpu=True,
                         sandbox=SandboxPolicy(max_runtime_factor=2.0))
        grid = make_small_grid(cfg=cfg, n_nodes=1)
        node = grid.node_list[0]
        node.capability = (1.0,) + tuple(node.capability[1:])  # cpu level 1
        client = grid.client("c")
        job = submit_job(grid, client, "runaway", work=10.0)
        grid.run_until_done(max_time=1000)
        assert job.state is JobState.FAILED
        assert "runtime limit" in job.failure_reason


class TestFairShare:
    def test_fair_share_interleaves_clients(self):
        cfg = GridConfig(seed=7, queue_discipline="fair-share")
        grid = make_small_grid(cfg=cfg, n_nodes=1)
        heavy = grid.client("heavy")
        light = grid.client("light")
        heavy_jobs = [submit_job(grid, heavy, f"h-{i}", work=10.0, at=0.0)
                      for i in range(5)]
        light_job = submit_job(grid, light, "l-0", work=10.0, at=1.0)
        grid.run_until_done(max_time=1000)
        # The light client's job runs after at most one heavy job finishes
        # (plus the in-flight one), never behind the whole burst.
        finished_before_light = sum(
            1 for j in heavy_jobs if j.finish_time <= light_job.start_time + 1e-9)
        assert finished_before_light <= 2

    def test_fifo_starves_late_client(self):
        cfg = GridConfig(seed=7, queue_discipline="fifo")
        grid = make_small_grid(cfg=cfg, n_nodes=1)
        heavy = grid.client("heavy")
        light = grid.client("light")
        heavy_jobs = [submit_job(grid, heavy, f"h-{i}", work=10.0, at=0.0)
                      for i in range(5)]
        light_job = submit_job(grid, light, "l-0", work=10.0, at=1.0)
        grid.run_until_done(max_time=1000)
        finished_before_light = sum(
            1 for j in heavy_jobs if j.finish_time <= light_job.start_time + 1e-9)
        assert finished_before_light >= 4  # waits out the whole burst


def _armed(task):
    return task is not None and task.armed


class TestOnDemandTimers:
    """The runner heartbeat runs only while a node holds a job, and the
    owner monitor only while it owns a record (§2 asks for a heartbeat
    per queued job, not per node)."""

    def make_hb_grid(self, n_nodes=12, **overrides):
        defaults = dict(seed=7, heartbeats_enabled=True,
                        heartbeat_interval=1.0, heartbeat_miss_limit=2.5)
        defaults.update(overrides)
        return make_small_grid("rn-tree", n_nodes=n_nodes,
                               cfg=GridConfig(**defaults))

    def warm_up(self, grid, client, n_jobs=40):
        """Run short jobs to completion and let every task disarm; return
        each node's (heartbeat, monitor) task objects."""
        start = grid.sim.now
        for i in range(n_jobs):
            submit_job(grid, client, f"warm-{i}", work=5.0,
                       at=start + i * 0.5)
        assert grid.run_until_done(max_time=grid.sim.now + 1000)
        grid.run(until=grid.sim.now + 5.0)
        tasks = {n.node_id: (n._hb_task, n._monitor_task)
                 for n in grid.node_list}
        for hb, mon in tasks.values():
            assert not _armed(hb) and not _armed(mon)
        return tasks

    def running_job(self, grid, client, name, work=60.0):
        start = grid.sim.now
        job = submit_job(grid, client, name, work=work, at=start + 1.0)
        grid.run(until=start + 10.0)
        assert job.state is JobState.RUNNING
        assert job.owner_id != job.run_node_id
        return job

    def test_idle_node_has_no_armed_task(self):
        grid = self.make_hb_grid()
        grid.run(until=50.0)
        for node in grid.node_list:
            assert node._hb_task is None and node._monitor_task is None
        # Nodes that ran and owned jobs go back to idle: the warm-up
        # asserts every task disarmed, and nothing is left to simulate.
        self.warm_up(grid, grid.client("c"))
        assert grid.sim.peek_time() is None

    def test_first_enqueue_and_first_owned_record_arm(self):
        grid = self.make_hb_grid()
        client = grid.client("c")
        job = self.running_job(grid, client, "first")
        owner = grid.nodes[job.owner_id]
        runner = grid.nodes[job.run_node_id]
        assert _armed(runner._hb_task)
        assert _armed(owner._monitor_task)
        assert not _armed(owner._hb_task)
        assert not _armed(runner._monitor_task)
        for node in grid.node_list:
            if node is not owner and node is not runner:
                assert not _armed(node._hb_task)
                assert not _armed(node._monitor_task)

    def test_drain_disarms_and_next_job_rearms(self):
        grid = self.make_hb_grid(n_nodes=1)
        node = grid.node_list[0]
        client = grid.client("c")
        submit_job(grid, client, "one", work=10.0)
        grid.run(until=5.0)
        hb, mon = node._hb_task, node._monitor_task
        assert hb.armed and mon.armed
        assert grid.run_until_done(max_time=grid.sim.now + 1000)
        grid.run(until=grid.sim.now + 3.0)
        assert not hb.armed and not mon.armed
        beats = grid.network.stats.by_kind["heartbeat"]
        grid.run(until=grid.sim.now + 20.0)
        assert grid.network.stats.by_kind["heartbeat"] == beats
        submit_job(grid, client, "two", work=10.0, at=grid.sim.now + 1.0)
        grid.run(until=grid.sim.now + 5.0)
        assert node._hb_task is hb and node._monitor_task is mon
        assert hb.armed and mon.armed
        assert grid.run_until_done(max_time=grid.sim.now + 1000)

    def test_partition_then_heal_resumes_heartbeats(self):
        grid = self.make_hb_grid(heartbeat_miss_limit=10.0)
        client = grid.client("c")
        job = self.running_job(grid, client, "dark")
        runner = grid.nodes[job.run_node_id]
        owner = grid.nodes[job.owner_id]
        grid.partition_node(runner.node_id)
        grid.run(until=grid.sim.now + 5.0)
        # Partitioned, not idle: the queue survives, so the timer does.
        assert runner.running is job and runner._hb_task.armed
        heal_time = grid.sim.now
        grid.heal_node(runner.node_id)
        grid.run(until=heal_time + 2.0)
        assert owner.owned[job.guid].last_heartbeat > heal_time
        assert grid.run_until_done(max_time=grid.sim.now + 1000)
        assert job.state is JobState.COMPLETED
        assert job.run_node_failures == 0 and job.owner_failures == 0

    def test_crash_then_recover_starts_clean(self):
        grid = self.make_hb_grid()
        client = grid.client("c")
        job = self.running_job(grid, client, "restart")
        runner = grid.nodes[job.run_node_id]
        hb = runner._hb_task
        grid.crash_node(runner.node_id)
        assert not hb.armed and runner.queue_len == 0
        grid.recover_node(runner.node_id)
        grid.run(until=grid.sim.now + 5.0)
        assert runner._hb_task is hb and not hb.armed
        assert not _armed(runner._monitor_task)
        assert grid.run_until_done(max_time=grid.sim.now + 5000)
        assert job.state is JobState.COMPLETED

    def test_run_node_crash_rematches_on_rearmed_timer(self):
        grid = self.make_hb_grid()
        client = grid.client("c")
        tasks = self.warm_up(grid, client)
        job = self.running_job(grid, client, "survivor")
        # The owner's monitor is the warm-up's task object, re-armed.
        monitor = tasks[job.owner_id][1]
        assert monitor is not None and monitor.armed
        assert grid.nodes[job.owner_id]._monitor_task is monitor
        grid.crash_node(job.run_node_id)
        assert grid.run_until_done(max_time=grid.sim.now + 5000)
        assert job.state is JobState.COMPLETED
        assert job.run_node_failures >= 1
        assert grid.metrics.recoveries["run-node"] >= 1
        assert job.attempt == 1

    def test_owner_crash_reinserts_on_rearmed_timer(self):
        grid = self.make_hb_grid()
        client = grid.client("c")
        tasks = self.warm_up(grid, client)
        job = self.running_job(grid, client, "orphan")
        original_owner = job.owner_id
        # The runner's heartbeat is the warm-up's task object, re-armed.
        heartbeat = tasks[job.run_node_id][0]
        assert heartbeat is not None and heartbeat.armed
        assert grid.nodes[job.run_node_id]._hb_task is heartbeat
        grid.crash_node(original_owner)
        assert grid.run_until_done(max_time=grid.sim.now + 5000)
        assert job.state is JobState.COMPLETED
        assert job.owner_failures >= 1
        assert job.owner_id != original_owner
        assert grid.metrics.recoveries["owner"] >= 1
        assert job.attempt == 1
