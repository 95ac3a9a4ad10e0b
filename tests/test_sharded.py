"""Sharded simulation core: determinism, equivalence and ordering.

The contract under test (see ``repro.harness.sharded``): the partition
count is part of a sharded world's identity, while the ``shards``
execution-lane count of ``run_windows`` is pure run-order grouping —
telemetry traces, fabric totals and event counts must be byte-identical
at any lane count.  The barrier's canonical ``(time, priority, seq, src)``
sort is what makes that true, so it gets its own tie-break test.
"""

from __future__ import annotations

import gc

import pytest

from repro.harness.sharded import ShardedWorld
from repro.harness.world import WorldConfig
from repro.net.address import NodeKind
from repro.parallel.executor import derive_seed
from repro.sim.engine import collector_paused

SEED = 4242
PARTITIONS = 4
NODES = 150
WINDOW_S = 10.0
WINDOWS = 4


def _build(shards_unused: int = 0) -> ShardedWorld:
    world = ShardedWorld(
        WorldConfig(seed=SEED, telemetry_enabled=True), partitions=PARTITIONS
    )
    world.populate(NODES)
    world.start_all()
    return world


def _run(shards: int) -> ShardedWorld:
    world = _build()
    world.run_windows(WINDOW_S, WINDOWS, shards=shards)
    return world


class TestPartitioning:
    def test_partition_assignment_is_a_pure_function_of_seed(self):
        a, b = _build(), _build()
        for node_id in range(1, NODES + 1):
            assert a.partition_of(node_id) == b.partition_of(node_id)
            assert (
                a.partition_of(node_id)
                == derive_seed(SEED, "shard-of", node_id) % PARTITIONS
            )

    def test_population_spreads_over_every_partition(self):
        world = _build()
        sizes = [len(w.nodes) for w in world.worlds]
        assert sum(sizes) == NODES
        assert all(size > 0 for size in sizes)

    def test_global_ids_are_dense_like_a_single_world(self):
        world = _build()
        seen = sorted(
            node_id for w in world.worlds for node_id in w.nodes
        )
        assert seen == list(range(1, NODES + 1))

    def test_nat_plan_is_exact_and_layout_independent(self):
        world = _build()
        natted = sum(
            1
            for w in world.worlds
            for node in w.nodes.values()
            if node.cm.kind is NodeKind.NATTED
        )
        assert natted == round(NODES * world.config.natted_fraction)

    def test_introducers_are_the_first_public_nodes_globally(self):
        world = _build()
        descriptors = world.introducers()
        assert len(descriptors) == world.config.introducer_count
        ids = [d.node_id for d in descriptors]
        assert ids == sorted(ids)  # id order, not partition order

    def test_partition_count_must_be_positive(self):
        with pytest.raises(ValueError):
            ShardedWorld(WorldConfig(seed=SEED), partitions=0)


class TestShardEquivalence:
    """Satellite: shards in {1, 2, 4} produce byte-identical output."""

    @pytest.fixture(scope="class")
    def runs(self):
        return {shards: _run(shards) for shards in (1, 2, 4)}

    def test_traces_are_byte_identical_across_lane_counts(self, runs):
        baseline = runs[1].export_jsonl()
        assert runs[2].export_jsonl() == baseline
        assert runs[4].export_jsonl() == baseline

    def test_trace_shas_match(self, runs):
        shas = {world.trace_sha() for world in runs.values()}
        assert len(shas) == 1

    def test_fabric_totals_match(self, runs):
        baseline = runs[1].net_totals()
        assert runs[2].net_totals() == baseline
        assert runs[4].net_totals() == baseline
        assert baseline["delivered"] > 0

    def test_event_counts_match(self, runs):
        counts = {world.events_processed for world in runs.values()}
        assert len(counts) == 1

    def test_cross_shard_traffic_actually_flows(self, runs):
        assert runs[1].cross_shard_msgs > 0
        assert (
            runs[1].cross_shard_msgs
            == runs[2].cross_shard_msgs
            == runs[4].cross_shard_msgs
        )

    def test_lane_count_beyond_partitions_is_clamped(self):
        world = _build()
        world.run_windows(WINDOW_S, WINDOWS, shards=64)
        assert world.trace_sha() == _run(1).trace_sha()

    def test_lane_count_must_be_positive(self):
        with pytest.raises(ValueError):
            _build().run_windows(WINDOW_S, 1, shards=0)


class TestBarrierOrdering:
    def test_exchange_sorts_by_canonical_key(self):
        """Outbox entries injected in (time, priority, seq, src) order.

        Entries are appended out of order across partitions; after the
        barrier the destination simulator must fire them sorted by the
        canonical key, with (seq, src) breaking exact time ties the same
        way at any lane grouping.
        """
        world = ShardedWorld(WorldConfig(seed=9), partitions=2)
        world.populate(8)
        target = next(
            node_id for node_id in range(1, 9) if world.partition_of(node_id) == 0
        )
        dest = world.worlds[0]
        fired: list[tuple] = []

        class _Probe:
            def __init__(self, tag):
                self.tag = tag

        # Bypass the fabric: drop pre-built entries straight into the
        # outboxes with deliberate ties and inverted append order.
        dest.network._deliver = lambda src, message, category: fired.append(
            (dest.sim.now, src, message.tag)
        )
        entries_p1 = [
            (5.0, 0, 0, 7, 0, _Probe("p1-seq0"), "other"),
            (3.0, 0, 1, 7, 0, _Probe("p1-early"), "other"),
        ]
        entries_p0 = [
            (5.0, 0, 0, 2, 0, _Probe("p0-seq0"), "other"),
            (5.0, 0, 1, 2, 0, _Probe("p0-seq1"), "other"),
        ]
        world._outboxes[1].extend(entries_p1)
        world._outboxes[0].extend(entries_p0)
        assert world._exchange(window_end=4.0) == 4
        dest.sim.run(until=10.0)
        # 3.0 clamps to the 4.0 boundary and still precedes the 5.0 tie
        # group, which resolves by (seq, src): seq 0 of both partitions
        # (src 2 before src 7), then seq 1 of both.
        assert [tag for (_, _, tag) in fired] == [
            "p1-early", "p0-seq0", "p1-seq0", "p0-seq1",
        ]
        assert fired[0][0] == 4.0  # quantized to the window boundary

    def test_same_partition_route_falls_back_to_local_delivery(self):
        """A host parsed to the router's own partition schedules locally.

        Covers departed-node endpoints: the single-world behaviour is a
        scheduled delivery that the ingress filter then drops, and the
        sharded router must preserve that (drop accounting included).
        """
        world = ShardedWorld(WorldConfig(seed=11), partitions=2)
        world.populate(12)
        world.start_all()
        victim = next(
            node_id
            for node_id in range(1, 13)
            if world.partition_of(node_id) == 0
            and world.worlds[0].nodes[node_id].cm.kind is NodeKind.PUBLIC
        )
        home = world.worlds[0]
        descriptor = home.nodes[victim].descriptor()
        sender = next(
            node_id
            for node_id in range(1, 13)
            if world.partition_of(node_id) == 0 and node_id != victim
        )
        home.kill_node(victim)
        before = home.network.stats.no_handler + home.network.stats.filtered
        home.network.send(
            sender, descriptor.public_endpoint, "probe", {"x": 1}, 64
        )
        home.sim.run(until=home.sim.now + 5.0)
        after = home.network.stats.no_handler + home.network.stats.filtered
        assert after == before + 1  # delivered-and-dropped, not lost in a void


class TestMergedTrace:
    def test_export_frames_each_partition_with_a_header(self):
        world = _run(1)
        lines = world.export_jsonl().splitlines()
        headers = [line for line in lines if '"kind":"shard"' in line]
        assert len(headers) == PARTITIONS
        import json

        parsed = [json.loads(h) for h in headers]
        assert [p["partition"] for p in parsed] == list(range(PARTITIONS))
        assert all(p["partitions"] == PARTITIONS for p in parsed)
        seeds = {p["seed"] for p in parsed}
        assert len(seeds) == PARTITIONS  # independent per-partition streams

    def test_owner_hint_bound_covers_the_global_host_space(self):
        """Partition fabrics send deployment-wide: no hint-cache thrash."""
        world = _run(1)
        for w in world.worlds:
            stats = w.network.cache_stats()["net.owner_hint"]
            assert stats["capacity"] >= 4 * NODES
            assert stats["evictions"] == 0

    def test_compute_and_barrier_instrumentation_populated(self):
        world = _run(2)
        assert world.barrier_windows == WINDOWS
        assert world.barrier_s >= 0.0
        assert len(world.compute_s) == PARTITIONS
        assert all(s > 0.0 for s in world.compute_s)
        assert all(rss > 0 for rss in world.partition_rss_kb)


class TestCollectorPause:
    """Bulk phases hold the cyclic collector off and restore its state."""

    @pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
    def gc_state(self, request):
        was_enabled = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was_enabled else gc.disable)()

    def test_bulk_phases_restore_the_state_they_found(self, gc_state):
        world = ShardedWorld(WorldConfig(seed=SEED), partitions=PARTITIONS)
        world.populate(40)
        assert gc.isenabled() is gc_state
        world.start_all()
        assert gc.isenabled() is gc_state
        world.run_windows(WINDOW_S, 1)
        assert gc.isenabled() is gc_state

    def test_state_restored_when_a_callback_raises(self, gc_state):
        world = ShardedWorld(WorldConfig(seed=SEED), partitions=PARTITIONS)
        world.populate(40)
        world.start_all()

        def explode():
            raise RuntimeError("boom")

        world.worlds[1].sim.schedule(WINDOW_S / 2, explode)
        with pytest.raises(RuntimeError, match="boom"):
            world.run_windows(WINDOW_S, 2)
        assert gc.isenabled() is gc_state

    def test_partition_runs_do_not_reenable_the_collector_early(self, gc_state):
        """Each partition's own ``Simulator.run`` pause nests inside the
        window loop's: the collector stays off between partition runs and
        through the barrier, and only the outer pause restores it."""
        world = ShardedWorld(WorldConfig(seed=SEED), partitions=PARTITIONS)
        world.populate(40)
        world.start_all()
        seen: list[bool] = []
        for partition in world.worlds:
            run = partition.sim.run

            def probed_run(*args, _run=run, **kwargs):
                _run(*args, **kwargs)
                seen.append(gc.isenabled())

            partition.sim.run = probed_run
        exchange = world._exchange

        def probed_exchange(window_end):
            seen.append(gc.isenabled())
            return exchange(window_end)

        world._exchange = probed_exchange
        world.run_windows(WINDOW_S, 2)
        assert seen == [False] * (2 * (PARTITIONS + 1))
        assert gc.isenabled() is gc_state

    def test_nested_pause_leaves_the_outer_one_in_charge(self):
        was_enabled = gc.isenabled()
        gc.enable()
        try:
            with collector_paused():
                with collector_paused():
                    assert not gc.isenabled()
                assert not gc.isenabled()
            assert gc.isenabled()
        finally:
            (gc.enable if was_enabled else gc.disable)()

    def test_windows_create_no_cyclic_garbage(self):
        """The premise that makes the pause safe: a window loop leaves
        nothing for the collector.  Reference cycles added to the hot path
        fail here instead of growing RSS silently."""
        world = ShardedWorld(WorldConfig(seed=SEED), partitions=3)
        world.populate(600)
        world.start_all()
        gc.collect()
        world.run_windows(1.0, 30)
        world.run_windows(WINDOW_S, 6)
        assert gc.collect() == 0
