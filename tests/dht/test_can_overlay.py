"""CAN overlay: joins, tessellation invariants, routing, takeover."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dht.can import CANNode, CANOverlay
from repro.util.ids import guid_for


def build_overlay(n, dims=3, seed=0, discrete=False):
    ov = CANOverlay(np.random.default_rng(seed), dims=dims)
    rng = np.random.default_rng(seed + 1)
    for i in range(n):
        if discrete:
            # Discrete resource levels + continuous virtual last dim, the
            # matchmaking shape.
            coords = tuple(rng.integers(1, 11, dims - 1) / 10.0) + \
                (float(rng.uniform()),)
        else:
            coords = tuple(rng.uniform(0, 1, dims))
        ov.join(CANNode(guid_for(f"can-{seed}-{i}"), coords))
    return ov


class TestJoin:
    def test_first_node_owns_everything(self):
        ov = CANOverlay(np.random.default_rng(0), dims=2)
        n = CANNode(1, (0.3, 0.7))
        ov.join(n)
        assert n.zone.volume() == pytest.approx(1.0)
        assert ov.route((0.9, 0.9)).owner is n

    def test_invariants_after_many_joins(self):
        ov = build_overlay(120)
        ov.check_invariants()

    def test_invariants_with_discrete_levels(self):
        ov = build_overlay(120, dims=4, discrete=True)
        ov.check_invariants()

    def test_every_node_keeps_its_point(self):
        ov = build_overlay(80)
        for node in ov.live_nodes():
            assert node.zone.contains(node.point)

    def test_identical_points_rejected(self):
        ov = CANOverlay(np.random.default_rng(0), dims=2)
        ov.join(CANNode(1, (0.5, 0.5)))
        with pytest.raises(ValueError):
            ov.join(CANNode(2, (0.5, 0.5)))

    def test_duplicate_id_rejected(self):
        ov = CANOverlay(np.random.default_rng(0), dims=2)
        ov.join(CANNode(1, (0.5, 0.5)))
        with pytest.raises(ValueError):
            ov.join(CANNode(1, (0.4, 0.4)))

    def test_wrong_dims_rejected(self):
        ov = CANOverlay(np.random.default_rng(0), dims=3)
        with pytest.raises(ValueError):
            ov.join(CANNode(1, (0.5, 0.5)))


class TestRouting:
    def test_owner_matches_oracle(self):
        ov = build_overlay(100)
        rng = np.random.default_rng(99)
        for _ in range(200):
            p = tuple(rng.uniform(0, 1, 3))
            res = ov.route(p)
            assert res.success
            assert res.owner is ov.zone_owner(p)

    def test_boundary_targets_resolve(self):
        # Points exactly on shared zone faces (common with discrete levels).
        ov = build_overlay(100, dims=4, discrete=True)
        rng = np.random.default_rng(5)
        for _ in range(200):
            p = tuple(rng.integers(1, 11, 3) / 10.0) + (float(rng.uniform()),)
            res = ov.route(p)
            assert res.success
            assert res.owner is ov.zone_owner(p)

    def test_hops_scale_sublinearly(self):
        small = build_overlay(32, dims=3, seed=1)
        large = build_overlay(512, dims=3, seed=2)
        rng = np.random.default_rng(0)

        def mean_hops(ov):
            hops = []
            for _ in range(200):
                res = ov.route(tuple(rng.uniform(0, 1, 3)))
                assert res.success
                hops.append(res.hops)
            return np.mean(hops)

        # 16x more nodes must cost far less than 16x more hops
        # (theory: N^(1/3) => ~2.5x).
        assert mean_hops(large) < 6 * mean_hops(small)

    def test_route_from_start(self):
        ov = build_overlay(50)
        start = ov.live_nodes()[7]
        res = ov.route((0.9, 0.9, 0.9), start=start)
        assert res.success and res.path[0] == start.node_id

    def test_empty_overlay_fails(self):
        ov = CANOverlay(np.random.default_rng(0), dims=2)
        assert not ov.route((0.5, 0.5)).success


class TestTakeover:
    def test_crash_preserves_tessellation(self):
        ov = build_overlay(60)
        victims = ov.live_nodes()[::4]
        for v in victims:
            ov.crash(v.node_id)
        ov.check_invariants()

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 1000), discrete=st.booleans())
    def test_random_crash_patterns_keep_routing_correct(self, seed, discrete):
        # Discrete capability levels (0.8, 0.9, ...) put split planes on
        # level midpoints, where rounding leaves ulp-wide zones.
        ov = build_overlay(50, seed=seed % 5, discrete=discrete)
        rng = np.random.default_rng(seed)
        for rnd in range(3):
            live = ov.live_nodes()
            for idx in rng.choice(len(live), size=len(live) // 3,
                                  replace=False):
                ov.crash(live[idx].node_id)
            ov.check_invariants()
            for i in range(len(live) // 3):
                if discrete:
                    coords = tuple(rng.integers(1, 11, 2) / 10.0) + \
                        (float(rng.uniform()),)
                else:
                    coords = tuple(rng.uniform(0, 1, 3))
                ov.join(CANNode(guid_for(f"churn-{seed}-{rnd}-{i}"), coords))
            ov.check_invariants()
        for _ in range(30):
            p = tuple(rng.uniform(0, 1, 3))
            res = ov.route(p)
            assert res.success
            assert res.owner is ov.zone_owner(p)

    def test_ulp_sliver_takeover_relabels_its_own_leaf(self):
        # A joiner landing in an *adopted* zone splits it at the midpoint
        # of the owner's point (outside the zone) and its own.  (0.8 +
        # 0.9) / 2 rounds to 0.8500000000000001, one ulp inside the
        # adopted zone's lower edge at 0.85, leaving an ulp-wide sliver.
        ov = CANOverlay(np.random.default_rng(0), dims=2)
        for nid, point in [(1, (0.7, 0.5)), (2, (1.0, 0.5)),
                           (3, (0.8, 0.5))]:
            ov.join(CANNode(nid, point))
        ov.crash(2)                       # node 3 adopts [0.85, 1) x [0, 1)
        ov.join(CANNode(4, (0.9, 0.5)))   # splits the adopted zone
        holder = ov.nodes[3]
        sliver = holder.zones[1]
        assert sliver.lo[0] == 0.85
        assert sliver.hi[0] == np.nextafter(0.85, 1.0)
        ov.join(CANNode(5, (0.9, 0.2)))   # a second sliver neighbor
        ov.check_invariants()
        # The sliver's heir is node 5; its center rounds onto the split
        # plane, inside node 4's zone, which must keep its own owner.
        ov.crash(3)
        ov.check_invariants()
        joiner = CANNode(6, (0.95, 0.8))  # lands in node 4's zone
        ov.join(joiner)
        ov.check_invariants()
        assert joiner.zone.contains(joiner.point)
        assert ov.route((0.85, 0.5)).owner is ov.nodes[5]

    def test_graceful_leave_hands_off_store(self):
        ov = build_overlay(30)
        node = ov.live_nodes()[3]
        node.store[42] = "v"
        ov.leave(node.node_id)
        holders = [n for n in ov.live_nodes() if n.store.get(42) == "v"]
        assert len(holders) == 1
        ov.check_invariants()

    def test_crash_to_single_survivor(self):
        ov = build_overlay(10)
        live = ov.live_nodes()
        for node in live[:-1]:
            ov.crash(node.node_id)
        survivor = ov.live_nodes()[0]
        assert survivor.total_volume() == pytest.approx(1.0)
        res = ov.route((0.1, 0.1, 0.1))
        assert res.success and res.owner is survivor


class TestReplicaSet:
    def test_owner_first_then_neighbors(self):
        ov = build_overlay(40)
        owner = ov.live_nodes()[0]
        rs = ov.replica_set(owner, None, 3)
        assert rs[0] is owner
        assert len(rs) == 3
        assert all(nb in owner.neighbors for nb in rs[1:])
