"""Named, probe-instrumented benchmarks (the bench trajectory's workloads).

Each entry builds a deterministic workload, runs it under a
:class:`~.probe.PerfProbe` with named phases, and returns the
:class:`~.probe.PerfResult`:

- ``scale1k`` — the canonical throughput benchmark: the Fig. 5 workload at
  paper scale (1,000 nodes, 70% natted, Pi=2) gossiping for ``cycles``
  PSS cycles.  Its result is the repository-root ``BENCH_scale.json``.
  ``wire_mode="verify"`` runs the same workload through the wire codec's
  encode→decode loop — the codec-throughput benchmark.
- ``fig5`` — the full Fig. 5 campaign (four Pi values, 120 cycles) under
  one probe; the heavyweight regeneration cost.
- ``fig6`` — the 15-point Fig. 6 sweep under one probe; the multi-point
  sweep benchmark (``workers=N`` exercises the parallel executor).
- ``scale`` — the 5,000-node PSS+WCL headroom experiment
  (:mod:`repro.experiments.scale`).
- ``scale100k`` — the sharded-core headline: 100,000 nodes across
  ``partitions`` deterministic shards gossiping for ``cycles`` barrier
  windows (:mod:`repro.harness.sharded`).  ``shards`` (execution lanes)
  lands in the timing half only — the deterministic half, including the
  merged trace SHA, is byte-identical at any lane count.
- ``bench_load`` — the heavy-traffic ``mixed`` workload scenario
  (:mod:`repro.experiments.load`): CBR streams + Zipf lookups + a flash
  crowd over one world.  The probe's deterministic extras carry the
  per-stream goodput/delivery ledger and the telemetry trace SHA, so
  ``compare --strict`` pins the workload behaviourally, not just by
  throughput.

``scale`` here is the usual population multiplier: ``run_bench("scale1k",
scale=0.2)`` runs a 200-node variant for smoke tests and CI.

``workers`` never enters a probe's ``config``: the deterministic half of
a sweep document must be byte-identical at any worker count, so the
count lands in the ``timing`` section via ``annotate_timing``.
"""

from __future__ import annotations

import gc
import time
from contextlib import contextmanager
from dataclasses import replace
from typing import Any, Callable, Iterator

from ..core.node import WhisperConfig
from ..experiments.common import scaled
from ..harness.world import World, WorldConfig
from .probe import PerfProbe, PerfResult

__all__ = ["BENCHES", "run_bench", "CANONICAL_BENCH", "TRAJECTORY_FILE"]

CANONICAL_BENCH = "scale1k"
TRAJECTORY_FILE = "BENCH_scale.json"


def _net_stats(world: World) -> dict[str, int]:
    stats = world.network.stats
    return {
        "sent": stats.sent,
        "delivered": stats.delivered,
        "lost": stats.lost,
        "filtered": stats.filtered,
        "no_handler": stats.no_handler,
    }


def run_scale1k(
    scale: float = 1.0,
    seed: int = 1005,
    alloc: bool = False,
    label: str = "",
    cycles: int = 30,
    pi: int = 2,
    wire_mode: str = "off",
) -> PerfResult:
    """Fig. 5's 1,000-node PSS workload, measured for throughput.

    ``wire_mode`` belongs to the deterministic config: a verify-mode run
    is a different workload (every send round-trips the codec), not a
    different environment.
    """
    n_nodes = scaled(1000, scale, minimum=100)
    config = {
        "nodes": n_nodes, "cycles": cycles, "seed": seed,
        "pi": pi, "natted_fraction": 0.7, "scale": scale,
    }
    if wire_mode != "off":
        # Only annotate non-default modes so existing "off" documents
        # (and the committed trajectory) keep their config shape.
        config["wire_mode"] = wire_mode
    probe = PerfProbe(
        CANONICAL_BENCH,
        config=config,
        alloc=alloc,
        label=label,
    )
    world = World(
        WorldConfig(
            seed=seed,
            whisper=replace(WhisperConfig(), pi=pi),
            wire_mode=wire_mode,
        )
    )
    with probe.phase("populate"):
        world.populate(n_nodes)
        world.start_all()
    with probe.phase("gossip"):
        world.run(cycles * 10.0)
    probe.attach_sim(world.sim)
    probe.attach_telemetry(world.telemetry)
    probe.record("net", _net_stats(world))
    probe.record("caches", world.network.cache_stats())
    return probe.finish()


class _AggregateSim:
    """Deployment-wide ``sim`` section for a sharded world's probe."""

    def __init__(self, sharded: Any) -> None:
        self.events_processed = sharded.events_processed
        self.now = sharded.now
        self._pending = sum(w.sim.pending() for w in sharded.worlds)

    def pending(self) -> int:
        return self._pending


class _GcPauses:
    """Cyclic-collector activity per phase, observed through ``gc.callbacks``.

    The listener belongs to the bench, not the library: it is registered
    only around the phases it measures, so the simulated code path carries
    no instrumentation.
    """

    def __init__(self) -> None:
        self.collections: dict[str, int] = {}
        self.pause_s: dict[str, float] = {}
        self._phase = ""
        self._started = 0.0

    def _callback(self, stage: str, _info: dict) -> None:
        if stage == "start":
            self._started = time.perf_counter()
            return
        self.collections[self._phase] += 1
        self.pause_s[self._phase] += time.perf_counter() - self._started

    @contextmanager
    def watch(self, phase: str) -> Iterator[None]:
        self._phase = phase
        self.collections[phase] = 0
        self.pause_s[phase] = 0.0
        gc.callbacks.append(self._callback)
        try:
            yield
        finally:
            gc.callbacks.remove(self._callback)


def run_scale100k(
    scale: float = 1.0,
    seed: int = 1013,
    alloc: bool = False,
    label: str = "",
    cycles: int = 6,
    partitions: int = 8,
    shards: int = 1,
) -> PerfResult:
    """A 100,000-node gossip window on the sharded simulation core.

    The population joins through the usual introducer bootstrap, then
    gossips for ``cycles`` PSS cycles with a cross-shard barrier at every
    cycle edge.  ``partitions`` is part of the deterministic config (it is
    part of the world's identity, like the seed); ``shards`` — the
    execution-lane count — is annotated in the timing half only, because
    results are byte-identical at any lane count.  The deterministic
    extras pin the merged trace SHA, the deployment-wide fabric totals,
    per-partition populations and the cross-shard message count; the
    timing half carries per-partition compute seconds and peak-RSS
    watermarks, the total barrier cost and the cyclic collector's
    collections and pause seconds per phase, so the gate sees both *what*
    the sharded core computed and *where* the wall-clock went.
    """
    from ..harness.sharded import ShardedWorld

    n_nodes = scaled(100_000, scale, minimum=1_000)
    probe = PerfProbe(
        "scale100k",
        config={
            "nodes": n_nodes, "cycles": cycles, "seed": seed,
            "partitions": partitions, "natted_fraction": 0.7, "scale": scale,
        },
        alloc=alloc,
        label=label,
    )
    probe.annotate_timing("shards", shards)
    # Telemetry stays OFF like scale1k: per-link counters at 100k nodes
    # would dominate the run.  The merged trace SHA is still a strong
    # witness because the shard headers embed each partition's event
    # count, clock and fabric totals; the telemetry-on JSONL equivalence
    # is pinned at small scale by tests/test_sharded.py.
    sharded = ShardedWorld(WorldConfig(seed=seed), partitions=partitions)
    collector = _GcPauses()
    with probe.phase("populate"), collector.watch("populate"):
        sharded.populate(n_nodes)
        sharded.start_all()
    with probe.phase("gossip"), collector.watch("gossip"):
        sharded.run_windows(10.0, cycles, shards=shards)
    probe.attach_sim(_AggregateSim(sharded))
    for world in sharded.worlds:
        probe.attach_telemetry(world.telemetry, accumulate=True)
    probe.record("net", sharded.net_totals())
    probe.record("trace_sha", sharded.trace_sha())
    probe.record("partition_nodes", [len(w.nodes) for w in sharded.worlds])
    probe.record("cross_shard_msgs", sharded.cross_shard_msgs)
    caches = [w.network.cache_stats() for w in sharded.worlds]
    probe.record("caches", {
        name: {
            key: sum(c[name][key] for c in caches)
            for key in ("hits", "misses", "evictions", "size", "capacity")
        }
        for name in caches[0]
    })
    probe.annotate_timing(
        "shard_compute_s", [round(s, 6) for s in sharded.compute_s]
    )
    probe.annotate_timing("shard_peak_rss_kb", list(sharded.partition_rss_kb))
    probe.annotate_timing("barrier_s", round(sharded.barrier_s, 6))
    probe.annotate_timing("barrier_windows", sharded.barrier_windows)
    probe.annotate_timing("gc_collections", collector.collections)
    probe.annotate_timing(
        "gc_pause_s",
        {phase: round(s, 6) for phase, s in collector.pause_s.items()},
    )
    return probe.finish()


def run_fig5(
    scale: float = 1.0, seed: int = 1005, alloc: bool = False, label: str = "",
    workers: int = 1,
) -> PerfResult:
    """The full Fig. 5 campaign (4 Pi values) under one probe."""
    from ..experiments import fig5_biased_pss

    probe = PerfProbe(
        "fig5",
        config={"scale": scale, "seed": seed},
        alloc=alloc,
        label=label,
    )
    probe.annotate_timing("workers", workers)
    with probe.phase("campaign"):
        report = fig5_biased_pss.run(scale=scale, seed=seed, workers=workers)
    probe.record("sections", len(report.sections))
    probe.record("rendered", report.render())
    return probe.finish()


def run_fig6(
    scale: float = 1.0, seed: int = 1006, alloc: bool = False, label: str = "",
    workers: int = 1, wire_mode: str = "off",
) -> PerfResult:
    """The full 15-point Fig. 6 sweep under one probe.

    The multi-point sweep benchmark: ``workers=N`` fans the points over N
    processes, and the probe records the *rendered report* in the
    deterministic half, so ``repro.perf compare --strict`` proves the
    parallel run reproduced the sequential output byte for byte.
    """
    from ..experiments import fig6_key_sampling

    config: dict[str, Any] = {"scale": scale, "seed": seed}
    if wire_mode != "off":
        config["wire_mode"] = wire_mode
    probe = PerfProbe("fig6", config=config, alloc=alloc, label=label)
    probe.annotate_timing("workers", workers)
    with probe.phase("sweep"):
        report = fig6_key_sampling.run(
            scale=scale, seed=seed, wire_mode=wire_mode, workers=workers
        )
    probe.record("sections", len(report.sections))
    probe.record("rendered", report.render())
    return probe.finish()


def run_scale_experiment(
    scale: float = 1.0, seed: int = 1010, alloc: bool = False, label: str = ""
) -> PerfResult:
    """The 5,000-node PSS+WCL headroom experiment under a probe."""
    from ..experiments import scale as scale_experiment

    probe = PerfProbe(
        "scale",
        config={"scale": scale, "seed": seed},
        alloc=alloc,
        label=label,
    )
    with probe.phase("experiment"):
        report = scale_experiment.run(scale=scale, seed=seed, probe=probe)
    probe.record("sections", len(report.sections))
    return probe.finish()


def run_bench_load(
    scale: float = 1.0, seed: int = 1011, alloc: bool = False, label: str = "",
    scenario: str = "mixed",
) -> PerfResult:
    """One heavy-traffic workload scenario under a probe.

    The workload ledger (per-stream goodput, delivery ratios, pooled
    latency percentiles) and the telemetry trace SHA land in the
    deterministic extras: a perf regression shows up in the timing half,
    a behaviour change shows up as drift.
    """
    from ..experiments import load

    probe = PerfProbe(
        "bench_load",
        config={"scenario": scenario, "scale": scale, "seed": seed},
        alloc=alloc,
        label=label,
    )
    outcome = load.run_scenario(scenario, seed, scale, probe=probe)
    probe.record("trace_sha", outcome.trace_sha)
    probe.record(
        "workload",
        {
            "nodes": outcome.nodes,
            "groups": outcome.groups,
            "offered": outcome.offered,
            "completed": outcome.completed,
            "failed": outcome.failed,
            "lag": outcome.lag,
            "delivery_ratio": round(outcome.delivery_ratio, 4),
            "goodput_bps": outcome.goodput_bps,
            "latency": outcome.latency,
        },
    )
    probe.record("streams", outcome.streams)
    return probe.finish()


def run_bench_onion_throughput(
    scale: float = 1.0, seed: int = 1012, alloc: bool = False, label: str = "",
    key_bits: int = 512,
) -> PerfResult:
    """Per-message onions vs circuit frames over one S->A->B->D path.

    The amortization micro-benchmark behind circuit mode: phase
    ``per_message`` builds and fully peels a fresh RSA onion per message;
    phase ``circuit`` pays one setup onion, then pushes the same messages
    through symmetric ``wrap_layers``/``unwrap_layer`` only.  Real crypto
    (no simulated envelopes) with the fast stream cipher, so the wall
    numbers measure actual work.  The deterministic extras carry the
    *charged* CPU ledger (jitter-free accountant) and the amortized
    speedup, so ``compare --strict`` pins the cost model's verdict while
    the timing half tracks the implementation's wall throughput.
    """
    import random

    from ..core.onion import (
        CircuitHop,
        HopSpec,
        build_circuit_setup,
        build_onion,
        peel,
        peel_setup,
    )
    from ..crypto.costmodel import CpuAccountant
    from ..crypto.provider import RealCryptoProvider

    messages = scaled(2000, scale, minimum=200)
    probe = PerfProbe(
        "bench_onion_throughput",
        config={
            "messages": messages, "key_bits": key_bits,
            "scale": scale, "seed": seed,
        },
        alloc=alloc,
        label=label,
    )
    rng = random.Random(seed)
    accountant = CpuAccountant()  # no RNG: jitter-free, deterministic ms
    provider = RealCryptoProvider(
        rng, accountant, key_bits=key_bits, use_aes=False
    )
    keypairs = [provider.generate_keypair() for _ in range(3)]  # A, B, D
    path = [
        HopSpec(node_id=101 + i, public_key=pair.public)
        for i, pair in enumerate(keypairs)
    ]
    content = {"seq": 0, "body": "x" * 512}
    source, dest = 100, 103

    with probe.phase("per_message"):
        for seq in range(messages):
            packet = build_onion(
                provider, path, {**content, "seq": seq}, 1024,
                node=source, context="bench",
            )
            body = packet.body
            for hop, pair in enumerate(keypairs):
                layer, packet = peel(
                    provider, pair, packet, node=101 + hop, context="bench"
                )
            provider.decrypt_payload(layer.key, body, node=dest, context="bench")

    per_message_ms = {
        node: round(accountant.node_total_ms(node), 6)
        for node in (source, 101, 102, 103)
    }

    circuit_source, circuit_nodes = 200, (201, 202, 203)
    circuit_path = [
        HopSpec(node_id=circuit_nodes[i], public_key=keypairs[i].public)
        for i in range(3)
    ]
    with probe.phase("circuit"):
        keys = tuple(provider.new_symmetric_key() for _ in circuit_path)
        labels = [500 + i for i in range(3)]
        hops = [
            CircuitHop(
                circuit_id=labels[i], key=keys[i],
                next_circuit_id=labels[i + 1] if i < 2 else None,
                lifetime=600.0,
            )
            for i in range(3)
        ]
        setup = build_circuit_setup(
            provider, circuit_path, hops, node=circuit_source, context="bench",
        )
        for hop, pair in enumerate(keypairs):
            _, setup_next = peel_setup(
                provider, pair, setup, node=circuit_nodes[hop], context="bench"
            )
            setup = setup_next
        for seq in range(messages):
            body = provider.wrap_layers(
                list(keys), {**content, "seq": seq}, 1024,
                node=circuit_source, context="bench",
            )
            for hop in range(3):
                body = provider.unwrap_layer(
                    keys[hop], body, node=circuit_nodes[hop], context="bench"
                )

    circuit_ms = {
        node: round(accountant.node_total_ms(node), 6)
        for node in (circuit_source, *circuit_nodes)
    }
    per_message_total = sum(per_message_ms.values())
    circuit_total = sum(circuit_ms.values())
    speedup = (
        per_message_total / circuit_total if circuit_total > 0 else float("inf")
    )
    probe.record("charged_ms", {
        "per_message": per_message_ms,
        "circuit": circuit_ms,
        "per_message_total": round(per_message_total, 6),
        "circuit_total": round(circuit_total, 6),
        "amortized_speedup": round(speedup, 2),
    })
    probe.record("ops", {
        node: {
            op: record.count
            for op, record in sorted(accountant.op_breakdown(node).items())
        }
        for node in (source, 101, 102, 103, circuit_source, *circuit_nodes)
    })
    return probe.finish()


BENCHES: dict[str, Callable[..., PerfResult]] = {
    "scale1k": run_scale1k,
    "scale100k": run_scale100k,
    "fig5": run_fig5,
    "fig6": run_fig6,
    "scale": run_scale_experiment,
    "bench_load": run_bench_load,
    "bench_onion_throughput": run_bench_onion_throughput,
}


def run_bench(name: str, **kwargs: Any) -> PerfResult:
    """Run one named benchmark; unknown names raise ``KeyError``."""
    try:
        bench = BENCHES[name]
    except KeyError:
        known = ", ".join(sorted(BENCHES))
        raise KeyError(f"unknown benchmark {name!r}; known: {known}") from None
    return bench(**kwargs)
