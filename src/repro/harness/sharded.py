"""Deterministic multi-shard worlds: the simulation core behind 100k nodes.

A :class:`ShardedWorld` splits one logical deployment into ``partitions``
independent :class:`~repro.harness.world.World` instances and advances them
in lock-stepped cycle windows.  The design goal is the same contract
``repro.parallel.run_sweep`` pins for ``--workers``: the *partition count*
is part of the world's identity (like the seed), while the ``shards``
execution-lane parameter of :meth:`run_windows` only regroups which
partitions run back-to-back — telemetry and traces are byte-identical at
any ``shards`` value because partitions share nothing inside a window.

How the pieces fit:

- **Partitioning** — global node ids are assigned densely (1..N) exactly
  as a single world would; each id is mapped to its home partition by a
  blake2b hash (:func:`~repro.parallel.executor.derive_seed`) of the
  master seed and the id.  The NAT plan is drawn globally from a derived
  stream, so a node's NAT type, endpoints and RNG fork names never depend
  on the partition layout being executed.
- **Per-partition state** — each partition owns a full ``World`` (its own
  ``Simulator``, NAT topology, fabric, latency model, crypto provider and
  telemetry), seeded ``derive_seed(master, "shard", p)``.  Crypto
  envelopes are self-contained (fingerprint + MAC), so payloads sealed in
  one partition open in another.
- **Cross-shard traffic** — each partition's ``Network`` gets a foreign
  router (:meth:`Network.set_foreign_router`): a send whose destination
  host is not locally owned is handed over *after* upload accounting and
  the latency draw, preserving the sender-side pipeline byte-for-byte.
  The router queues ``(arrival_time, priority, seq, src)``-keyed entries
  in the partition's outbox; ``seq`` is a per-partition counter and
  ``src`` the (globally unique) sender id, so the key totally orders the
  merged traffic of a window.
- **Barrier exchange** — at each window boundary the outboxes are
  collected in partition order, merged, sorted by the canonical key and
  injected into their destination simulators at
  ``max(arrival_time, window_end)``.  Quantizing cross-shard arrivals to
  window boundaries is the deliberate fidelity trade: intra-window
  cross-shard latency is rounded up to the boundary, which is why
  experiments choose windows at the protocol cycle period where delivery
  at "next cycle edge" matches gossip semantics.  Injection order is the
  sorted key order, so destination event sequence numbers — and therefore
  every downstream tie-break — are identical regardless of lane grouping.
- **Collector pause** — ``populate``, ``start_all`` and the whole
  ``run_windows`` loop (partition runs, RSS probes and barriers) run under
  :class:`~repro.sim.engine.collector_paused`.  Windows create no cyclic
  garbage, so the collector has nothing to reclaim here; left on between
  partition runs, each barrier's allocations would trigger collections
  that walk every partition's heap.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import resource
import time as _time
from dataclasses import replace
from functools import partial

from ..nat.types import EMULATED_TYPES, NatType
from ..net.address import NodeId, NodeKind
from ..net.message import Message
from ..parallel.executor import derive_seed
from ..sim.engine import collector_paused
from .world import World, WorldConfig

__all__ = ["ShardedWorld"]


def _rss_kb() -> int:
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


class ShardedWorld:
    """``partitions`` lock-stepped Worlds presenting one logical deployment."""

    def __init__(self, config: WorldConfig | None = None, partitions: int = 8) -> None:
        if partitions < 1:
            raise ValueError(f"need at least one partition, got {partitions}")
        self.config = config if config is not None else WorldConfig()
        self.partitions = partitions
        self._master_seed = self.config.seed
        self.worlds: list[World] = [
            World(replace(self.config, seed=derive_seed(self.config.seed, "shard", p)))
            for p in range(partitions)
        ]
        self._outboxes: list[list[tuple]] = [[] for _ in range(partitions)]
        self._outbox_seq = [itertools.count() for _ in range(partitions)]
        self._node_partition: dict[NodeId, int] = {}
        self._ids = itertools.count(1)  # global node ids, dense like World's
        self._nat_cycle = itertools.cycle(EMULATED_TYPES)
        self._introducers: list | None = None
        self.now = 0.0
        # Instrumentation for the perf probe's timing half: where shard
        # wall-time goes (per-partition compute vs barrier exchange) and
        # process peak RSS observed after each partition's turn.
        self.compute_s: list[float] = [0.0] * partitions
        self.partition_rss_kb: list[int] = [0] * partitions
        self.barrier_s = 0.0
        self.barrier_windows = 0
        self.cross_shard_msgs = 0
        for p, world in enumerate(self.worlds):
            world.network.set_foreign_router(self._make_router(p))

    # ------------------------------------------------------------------
    # partitioning
    # ------------------------------------------------------------------
    def partition_of(self, node_id: NodeId) -> int:
        """Home partition of a global node id (stable under any lane count)."""
        home = self._node_partition.get(node_id)
        if home is None:
            home = derive_seed(self._master_seed, "shard-of", node_id) % self.partitions
        return home

    def world_of(self, node_id: NodeId) -> World:
        return self.worlds[self.partition_of(node_id)]

    def _global_nat_plan(self, count: int) -> list[NatType]:
        """The single-world NAT plan semantics, drawn from a derived stream.

        Shares :meth:`World._exact_nat_plan`'s shape (exact natted count,
        even type split, shuffled interleave) but uses its own
        ``derive_seed`` stream so the plan is a function of the master
        seed alone — partition worlds never consume it from their RNGs.
        """
        natted = round(count * self.config.natted_fraction)
        plan: list[NatType] = [NatType.OPEN] * (count - natted)
        plan += [next(self._nat_cycle) for _ in range(natted)]
        random.Random(derive_seed(self._master_seed, "natplan")).shuffle(plan)
        return plan

    def populate(self, count: int) -> None:
        """Create ``count`` nodes with global ids, homed by hash."""
        with collector_paused():
            if self.config.exact_ratio:
                plan = self._global_nat_plan(count)
            else:
                plan = [self._draw_nat_type(i + 1) for i in range(count)]
            for nat_type in plan:
                node_id = next(self._ids)
                home = self.partition_of(node_id)
                self._node_partition[node_id] = home
                self.worlds[home].add_node(nat_type, node_id=node_id)
            # Every partition's fabric addresses the whole deployment's hosts,
            # so its owner-hint working set is the global population, not the
            # local one attach() derives from.
            total = len(self._node_partition)
            for world in self.worlds:
                world.network.reserve_owner_hints(total)

    def _draw_nat_type(self, node_id: NodeId) -> NatType:
        rng = random.Random(derive_seed(self._master_seed, "nattype", node_id))
        if rng.random() < self.config.natted_fraction:
            return rng.choice(EMULATED_TYPES)
        return NatType.OPEN

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def introducers(self) -> list:
        """Global bootstrap set: the first public nodes in id order."""
        if self._introducers:
            return list(self._introducers)
        introducers = []
        for node_id, home in self._node_partition.items():  # insertion = id order
            node = self.worlds[home].nodes.get(node_id)
            if node is not None and node.cm.kind is NodeKind.PUBLIC:
                introducers.append(node.descriptor())
                if len(introducers) >= self.config.introducer_count:
                    break
        if not introducers:
            raise RuntimeError("no public nodes available as introducers")
        self._introducers = introducers
        return list(introducers)

    def start_all(self) -> None:
        with collector_paused():
            introducers = self.introducers()
            for world in self.worlds:
                for node in world.nodes.values():
                    if not node.alive:
                        node.start(list(introducers))

    # ------------------------------------------------------------------
    # cross-shard routing
    # ------------------------------------------------------------------
    def _make_router(self, home: int):
        world = self.worlds[home]
        sim = world.sim
        network = world.network
        outbox = self._outboxes[home]
        next_seq = self._outbox_seq[home].__next__
        node_partition = self._node_partition
        master = self._master_seed
        partitions = self.partitions

        def route(src_node: NodeId, message: Message, category: str, transit: float) -> None:
            host = message.dst.host
            try:
                node_id = int(host.split("-", 1)[1])
            except (IndexError, ValueError):
                node_id = -1
            if node_id >= 0:
                target = node_partition.get(node_id)
                if target is None:
                    target = derive_seed(master, "shard-of", node_id) % partitions
            else:
                target = home
            if target == home:
                # A host this partition owns (or owned): schedule the normal
                # local delivery so ingress filtering and drop accounting
                # treat it exactly like a single world treats a departed
                # endpoint.
                sim.schedule(
                    transit, partial(network._deliver, src_node, message, category)
                )
                return
            outbox.append(
                (sim.now + transit, 0, next_seq(), src_node, target, message, category)
            )

        return route

    def _exchange(self, window_end: float) -> int:
        """Barrier: merge outboxes, sort canonically, inject at the boundary."""
        pending: list[tuple] = []
        for box in self._outboxes:  # partition order, then a total-order sort
            if box:
                pending.extend(box)
                box.clear()  # in place: the routers hold the list objects
        if not pending:
            return 0
        # (arrival_time, priority, seq, src): seq is per-partition but src
        # is globally unique and one sender lives in exactly one partition,
        # so the 4-tuple totally orders the merged window.
        pending.sort(key=lambda entry: entry[:4])
        for arrival, priority, _seq, src, target, message, category in pending:
            world = self.worlds[target]
            at = arrival if arrival > window_end else window_end
            world.sim.schedule_at(
                at,
                partial(world.network._deliver, src, message, category),
                priority=priority,
            )
        self.cross_shard_msgs += len(pending)
        return len(pending)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run_windows(self, window_s: float, windows: int, shards: int = 1) -> None:
        """Advance every partition through ``windows`` barrier windows.

        ``shards`` groups partitions into execution lanes (lane ``l`` runs
        partitions ``l, l+shards, ...``).  It reorders *which partition
        computes first* and nothing else — results are byte-identical for
        every value, which the shard-equivalence tests assert.
        """
        if shards < 1:
            raise ValueError(f"need at least one lane, got {shards}")
        lanes = min(shards, self.partitions)
        order = [
            p for lane in range(lanes) for p in range(lane, self.partitions, lanes)
        ]
        with collector_paused():
            for _ in range(windows):
                window_end = self.now + window_s
                for p in order:
                    started = _time.perf_counter()
                    self.worlds[p].sim.run(until=window_end)
                    self.compute_s[p] += _time.perf_counter() - started
                    rss = _rss_kb()
                    if rss > self.partition_rss_kb[p]:
                        self.partition_rss_kb[p] = rss
                started = _time.perf_counter()
                self._exchange(window_end)
                self.barrier_s += _time.perf_counter() - started
                self.barrier_windows += 1
                self.now = window_end

    # ------------------------------------------------------------------
    # measurement
    # ------------------------------------------------------------------
    @property
    def node_count(self) -> int:
        return sum(len(world.nodes) for world in self.worlds)

    @property
    def events_processed(self) -> int:
        return sum(world.sim.events_processed for world in self.worlds)

    def net_totals(self) -> dict[str, int]:
        totals = {"sent": 0, "delivered": 0, "lost": 0, "filtered": 0, "no_handler": 0}
        for world in self.worlds:
            stats = world.network.stats
            for key in totals:
                totals[key] += getattr(stats, key)
        return totals

    def export_jsonl(self) -> str:
        """Concatenated per-partition trace, framed by shard headers.

        Deterministic for a given (seed, partitions, window schedule) and
        invariant under the ``shards`` lane count — the CI equivalence
        check diffs this byte-for-byte across lane counts.  Each header
        embeds the partition's event count, clock and fabric totals, so
        the SHA pins per-partition behaviour even when telemetry is
        disabled (the big benches run telemetry-off); with telemetry on,
        the full per-partition counter stream follows its header.
        """
        chunks: list[str] = []
        for p, world in enumerate(self.worlds):
            stats = world.network.stats
            chunks.append(
                json.dumps(
                    {
                        "kind": "shard",
                        "partition": p,
                        "partitions": self.partitions,
                        "seed": world.config.seed,
                        "nodes": len(world.nodes),
                        "events": world.sim.events_processed,
                        "now": world.sim.now,
                        "net": {
                            "sent": stats.sent,
                            "delivered": stats.delivered,
                            "lost": stats.lost,
                            "filtered": stats.filtered,
                            "no_handler": stats.no_handler,
                        },
                    },
                    sort_keys=True,
                    separators=(",", ":"),
                )
            )
            telemetry = world.telemetry.export_jsonl().rstrip("\n")
            if telemetry:
                chunks.append(telemetry)
        return "\n".join(chunks) + "\n"

    def trace_sha(self) -> str:
        return hashlib.sha256(self.export_jsonl().encode("utf-8")).hexdigest()
