"""The benchmark's four workloads, each one deterministic repetition.

A repetition builds its inputs from the seed alone, times its set-up and
its measured part separately (``Timer``), runs the program's correctness
checks, and returns a :class:`Rep`.  Everything in ``Rep.outcome``,
``Rep.counts`` and ``Rep.digest`` is simulated or counted, so two
repetitions of one seed must agree on it exactly; host times live in
``Rep.timer``, ``Rep.host`` and ``Rep.samples``.

Sizes are fixed here, not on the command line: the benchmark's numbers
only compare across commits when every commit runs the same work.  The
long gossip runs advance one PSS cycle (``overlay``) or one barrier window
(``sharded``) per call, so the speed gauge can be timed between calls;
advancing in those steps processes exactly the same events.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import random
import statistics
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable

from repro import World, WorldConfig, wire
from repro.core import onion
from repro.core.node import WhisperConfig
from repro.crypto import provider as crypto
from repro.crypto.costmodel import CpuAccountant
from repro.experiments import load
from repro.harness.invariants import check_invariants
from repro.harness.sharded import ShardedWorld
from repro.metrics.graph import ViewGraph

__all__ = [
    "WORKLOADS", "Rep", "Timer", "overlay", "group_traffic", "sharded", "onion_path",
]

CYCLE_S = 10.0  # one PSS gossip period

# overlay: the scale1k / Fig. 5 shape, cut to a dozen cycles so that several
# repetitions fit in one run.
OVERLAY_NODES = 1000
OVERLAY_PI = 2
OVERLAY_CYCLES = 12

# group_traffic: the load "mixed" scenario at the smallest scale
# ``load.build_scenario`` allows (2 groups, 100 nodes, 700 s simulated).
GROUP_SCENARIO = "mixed"
GROUP_SCALE = 0.5

# sharded: 10,000 nodes in 4 partitions for one PSS cycle of 1 s windows.
SHARDED_NODES = 10_000
SHARDED_PARTITIONS = 4
SHARDED_WINDOW_S = 1.0
SHARDED_WINDOWS = 10

# onion_path: S -> A -> B -> D with real 512-bit RSA and the stream cipher.
# Message counts are set so the onion and circuit phases take similar
# host time, so wall_s moves with either.
ONION_KEY_BITS = 512
# The path's keys come from a constant seed, so every seed measures the
# same RSA work (key generation time and per-key exponentiation cost vary
# from key to key); the messages come from the workload seed.
ONION_KEY_SEED = 1012
ONION_PAYLOADS = (0, 1024)
ONION_MESSAGES = 40  # per payload size
CIRCUIT_MESSAGES = 300  # per payload size
_SOURCE, _HOPS = 100, (101, 102, 103)


# The speed gauge: a fixed big-integer kernel that shares no code with the
# program.  Host speed on a shared machine drifts by up to ~1.7x within
# minutes; timing the gauge around every timed segment and scaling the
# segment by it cancels part of that drift (see README.md).
_GAUGE_MODULUS = (1 << 511) + 187
_GAUGE_POWS = 8
GAUGE_NOMINAL_S = 0.008  # the gauge's time on the reference machine


def gauge_s() -> float:
    """Host time of the speed gauge, median of three."""
    times = []
    for _ in range(3):
        started = time.perf_counter()
        x = 3
        for i in range(_GAUGE_POWS):
            x = pow(x + i, _GAUGE_MODULUS >> 1, _GAUGE_MODULUS)
        times.append(time.perf_counter() - started)
    return statistics.median(times)


class Timer:
    """Times set-up and measured parts; opens the tracer's windows.

    Host time accumulates raw (``setup_s``, ``wall_s``) and scaled to the
    gauge's nominal speed (``scaled_setup_s``, ``scaled_wall_s``).  With
    ``gauge`` on, the gauge is timed at both ends of every segment, outside
    it; workloads call :meth:`split` between steps of a long timed part so
    that the gauge follows the host's speed through it.

    The tracer's windows cover set-up and timed part alike (``window_s``):
    ``group_traffic``'s set-up runs 120 simulated seconds of gossip, so
    the program's counters, read at the end of a repetition, count the
    work of both.
    """

    def __init__(self, tracer=None, gauge: bool = False) -> None:
        self.tracer = tracer
        self.gauge = gauge
        self.setup_s = self.wall_s = 0.0
        self.scaled_setup_s = self.scaled_wall_s = 0.0
        self._started = 0.0
        self._gauge_before = GAUGE_NOMINAL_S

    def _gauge(self) -> float:
        return gauge_s() if self.gauge else GAUGE_NOMINAL_S

    def _open(self) -> None:
        self._gauge_before = self._gauge()
        self._started = time.perf_counter()

    def _close(self) -> tuple[float, float]:
        elapsed = time.perf_counter() - self._started
        gauge = self._gauge()
        scaled = elapsed * 2 * GAUGE_NOMINAL_S / (self._gauge_before + gauge)
        self._gauge_before = gauge
        return elapsed, scaled

    @property
    def window_s(self) -> float:
        """Raw host time of set-up and timed part together."""
        return self.setup_s + self.wall_s

    @contextlib.contextmanager
    def _window(self):
        if self.tracer is not None:
            self.tracer.begin()
        try:
            yield
        finally:
            if self.tracer is not None:
                self.tracer.end()

    @contextlib.contextmanager
    def setup(self):
        with self._window():
            self._open()
            try:
                yield
            finally:
                elapsed, scaled = self._close()
                self.setup_s += elapsed
                self.scaled_setup_s += scaled

    @contextlib.contextmanager
    def timed(self):
        with self._window():
            self._open()
            try:
                yield
            finally:
                self.split()

    def split(self) -> None:
        """Close the current timed segment and open the next one."""
        elapsed, scaled = self._close()
        self.wall_s += elapsed
        self.scaled_wall_s += scaled
        self._started = time.perf_counter()


@dataclass
class Rep:
    """One repetition's result."""

    timer: Timer
    digest: str
    attempted: int
    failed: int
    nodes: int
    outcome: dict[str, Any]  # simulated / counted: identical across reps
    counts: dict[str, float]  # per-layer program counters: identical too
    host: dict[str, float] = field(default_factory=dict)
    samples: dict[str, list[float]] = field(default_factory=dict)


def _sha(obj: Any) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# gossip workloads (overlay, sharded)
# ----------------------------------------------------------------------
def _gossip_outcome(worlds: list[World], sim_s: float) -> tuple[dict, dict, dict]:
    """Invariants, Fig. 5 uniformity and program counters of a PSS run.

    Returns ``(outcome, counts, views)``.
    """
    views: dict[int, list[int]] = {}
    counts = dict.fromkeys(
        ("sim.events", "net.msgs_sent", "net.msgs_delivered",
         "net.owner_hint.cache_hit", "net.owner_hint.cache_miss",
         "net.up_bytes", "nat.relayed", "nat.punches", "pss.exchanges",
         "pss.initiated", "pss.response_timeouts", "pss.contact_failures",
         "crypto.ops", "crypto.ms"),
        0,
    )
    for world in worlds:
        check_invariants(world)
        counts["sim.events"] += world.sim.events_processed
        stats = world.network.stats
        counts["net.msgs_sent"] += stats.sent
        counts["net.msgs_delivered"] += stats.delivered
        hints = world.network.cache_stats()["net.owner_hint"]
        counts["net.owner_hint.cache_hit"] += hints["hits"]
        counts["net.owner_hint.cache_miss"] += hints["misses"]
        for totals in world.network.accountant.all_totals().values():
            counts["net.up_bytes"] += totals.up_bytes
        for node_id in world.accountant.nodes():
            for record in world.accountant.op_breakdown(node_id).values():
                counts["crypto.ops"] += record.count
                counts["crypto.ms"] += record.total_ms
        for node in world.alive_nodes():
            views[node.node_id] = node.pss.view.node_ids()
            pss = node.pss.stats
            counts["pss.exchanges"] += pss.completed + pss.received
            counts["pss.initiated"] += pss.initiated
            counts["pss.response_timeouts"] += pss.response_timeouts
            counts["pss.contact_failures"] += pss.contact_failures
            counts["nat.relayed"] += node.cm.stats_relayed
            counts["nat.punches"] += node.cm.stats_punches
    graph = ViewGraph(views)
    indegrees = [graph.in_degree(node_id) for node_id in views]
    errors = counts["pss.response_timeouts"] + counts["pss.contact_failures"]
    outcome = {
        "events": counts["sim.events"],
        "error_rate": errors / max(counts["pss.initiated"], 1),
        "bytes_per_node_s": counts["net.up_bytes"] / len(views) / sim_s,
        "overlay_indegree_sd": statistics.pstdev(indegrees),
        "empty_views": sum(1 for ids in views.values() if not ids),
    }
    return outcome, counts, views


def overlay(seed: int, timer: Timer) -> Rep:
    """One ``World``: 1,000 nodes, 70% natted, Pi=2, telemetry off."""
    cycles = OVERLAY_CYCLES
    with timer.setup():
        world = World(
            WorldConfig(seed=seed, whisper=replace(WhisperConfig(), pi=OVERLAY_PI))
        )
        world.populate(OVERLAY_NODES)
        world.start_all()
    with timer.timed():
        for cycle in range(cycles):
            if cycle:
                timer.split()
            world.run(CYCLE_S)
    outcome, counts, views = _gossip_outcome([world], cycles * CYCLE_S)
    digest = _sha({
        "events": world.sim.events_processed,
        "now": world.sim.now,
        "net": counts,
        "views": _sha(sorted(views.items())),
    })
    return Rep(
        timer=timer, digest=digest,
        attempted=len(views), failed=outcome["empty_views"], nodes=len(views),
        outcome=outcome, counts=counts,
    )


def sharded(seed: int, timer: Timer) -> Rep:
    """``ShardedWorld``: 10,000 nodes, 4 partitions, 1 s barrier windows."""
    with timer.setup():
        deployment = ShardedWorld(
            WorldConfig(seed=seed), partitions=SHARDED_PARTITIONS
        )
        deployment.populate(SHARDED_NODES)
        deployment.start_all()
    with timer.timed():
        for window in range(SHARDED_WINDOWS):
            if window:
                timer.split()
            deployment.run_windows(SHARDED_WINDOW_S, 1)
    sim_s = SHARDED_WINDOW_S * SHARDED_WINDOWS
    outcome, counts, views = _gossip_outcome(deployment.worlds, sim_s)
    counts["shard.cross_msgs"] = deployment.cross_shard_msgs
    compute = deployment.compute_s
    digest = _sha({
        "trace": deployment.trace_sha(),
        "cross": deployment.cross_shard_msgs,
        "views": _sha(sorted(views.items())),
    })
    return Rep(
        timer=timer, digest=digest,
        attempted=len(views), failed=outcome["empty_views"], nodes=len(views),
        outcome=outcome, counts=counts,
        host={
            "shard.barrier_s": deployment.barrier_s,
            "shard.compute_skew": max(compute) / min(compute),
        },
    )


# ----------------------------------------------------------------------
# group_traffic
# ----------------------------------------------------------------------
class _ScenarioPhases:
    """The probe ``load.run_scenario`` reports its phases to."""

    def __init__(self, timer: Timer) -> None:
        self.timer = timer
        self.sim = None
        self.telemetry = None

    @contextlib.contextmanager
    def phase(self, name: str):
        if name == "deploy":
            with self.timer.setup():
                yield
            return
        with self.timer.timed():
            yield

    def attach_sim(self, sim) -> None:
        self.sim = sim

    def attach_telemetry(self, telemetry) -> None:
        self.telemetry = telemetry


def _telemetry_totals(telemetry) -> dict[str, float]:
    """Counter totals by name, summed over labels."""
    totals: dict[str, float] = {}
    for (name, _labels), value in telemetry.metrics.snapshot().items():
        totals[name] = totals.get(name, 0) + value
    return totals


def group_traffic(seed: int, timer: Timer) -> Rep:
    """The ``load`` mixed scenario: CBR + Zipf lookups + a flash crowd."""
    phases = _ScenarioPhases(timer)
    result = load.run_scenario(GROUP_SCENARIO, seed, GROUP_SCALE, probe=phases)
    telemetry = phases.telemetry
    totals = _telemetry_totals(telemetry)
    outcomes = {
        dict(labels).get("outcome"): metric.value
        for labels, metric in telemetry.metrics.collect(
            "ppss.exchange_outcome"
        ).items()
    }
    latency = telemetry.aggregate("workload.latency", percentiles=(50.0, 99.0))
    counts = {
        name: totals.get(name, 0)
        for name in (
            "net.msgs_sent", "net.msgs_delivered", "net.owner_hint.cache_hit",
            "net.owner_hint.cache_miss", "net.up_bytes", "nat.relayed",
            "nat.punches", "pss.exchanges", "pss.response_timeouts",
            "pss.contact_failures", "wcl.sent", "wcl.forwarded",
            "wcl.no_path", "ppss.cycles", "crypto.ops", "crypto.ms",
        )
    }
    counts["sim.events"] = phases.sim.events_processed
    counts["ppss.exchange_failures"] = sum(
        value for outcome, value in outcomes.items()
        if outcome not in ("success", "alt")
    )
    counts["workload.offered"] = result.offered
    counts["workload.completed"] = result.completed
    counts["workload.lag"] = result.lag
    outcome = {
        "events": counts["sim.events"],
        "ops": result.offered,
        "error_rate": (result.offered - result.completed) / result.offered,
        "latency_samples": latency["count"],
        "latency_p50_s": latency["p50"],
        "latency_p99_s": latency["p99"],
        "bytes_per_node_s": counts["net.up_bytes"] / result.nodes / phases.sim.now,
    }
    return Rep(
        timer=timer, digest=result.trace_sha,
        attempted=result.offered, failed=result.offered - result.completed,
        nodes=result.nodes, outcome=outcome, counts=counts,
    )


# ----------------------------------------------------------------------
# onion_path
# ----------------------------------------------------------------------
def onion_path(seed: int, timer: Timer) -> Rep:
    """Closed loop over one S->A->B->D path, per-message onions then circuits.

    At every hop the packet is encoded to its wire frame, decoded, then
    peeled (onion) or unwrapped (circuit); a hop's host time covers all
    three.  Every frame must decode (a decode or MAC failure raises) and
    every delivered payload must equal what was sent (``wrong_outputs``).
    """
    with timer.setup():
        rng = random.Random(ONION_KEY_SEED)
        accountant = CpuAccountant()  # no RNG: charged ms are deterministic
        provider = crypto.RealCryptoProvider(
            rng, accountant, key_bits=ONION_KEY_BITS, use_aes=False
        )
        keypairs = [provider.generate_keypair() for _ in _HOPS]
        path = [
            onion.HopSpec(node_id=hop, public_key=pair.public)
            for hop, pair in zip(_HOPS, keypairs)
        ]
    inputs = random.Random(seed)
    frames = hashlib.sha256()
    onion_hops: list[float] = []
    circuit_hops: list[float] = []
    wrong = sent = 0
    phase_s = {"onion": 0.0, "circuit": 0.0}
    wire_totals = {"wire.frames": 0, "wire.bytes": 0}

    def transmit(kind: str, payload: Any) -> Any:
        data = wire.encode_message(kind, payload)
        frames.update(data)
        wire_totals["wire.frames"] += 1
        wire_totals["wire.bytes"] += len(data)
        decoded = wire.decode_message(data)
        if decoded.kind != kind:
            raise wire.WireDecodeError(f"{kind} decoded as {decoded.kind}")
        return decoded.payload

    with timer.timed():
        for size in ONION_PAYLOADS:
            started = time.perf_counter()
            for seq in range(ONION_MESSAGES):
                content = {"seq": seq, "data": inputs.randbytes(size)}
                sent += 1
                packet = onion.build_onion(
                    provider, path, content, size, node=_SOURCE, context="bench"
                )
                for hop, pair in zip(_HOPS, keypairs):
                    hop_started = time.perf_counter()
                    received = transmit("wcl.onion", packet)
                    layer, packet = onion.peel(
                        provider, pair, received, node=hop, context="bench"
                    )
                    if packet is None:
                        delivered = provider.decrypt_payload(
                            layer.key, received.body, node=hop, context="bench"
                        )
                    onion_hops.append((time.perf_counter() - hop_started) * 1e6)
                wrong += delivered != content
            phase_s["onion"] += time.perf_counter() - started

            started = time.perf_counter()
            keys = [provider.new_symmetric_key() for _ in _HOPS]
            labels = [500 + i for i in range(len(_HOPS))]
            hops = [
                onion.CircuitHop(
                    circuit_id=labels[i], key=keys[i],
                    next_circuit_id=labels[i + 1] if i + 1 < len(labels) else None,
                    lifetime=600.0,
                )
                for i in range(len(_HOPS))
            ]
            setup = onion.build_circuit_setup(
                provider, path, hops, node=_SOURCE, context="bench"
            )
            for hop, pair in zip(_HOPS, keypairs):
                installed, setup = onion.peel_setup(
                    provider, pair, transmit("wcl.circuit_setup", setup),
                    node=hop, context="bench",
                )
                wrong += installed.hop.key != keys[_HOPS.index(hop)]
            for seq in range(CIRCUIT_MESSAGES):
                content = {"seq": seq, "data": inputs.randbytes(size)}
                sent += 1
                body = provider.wrap_layers(
                    keys, content, size, node=_SOURCE, context="bench"
                )
                frame = onion.CircuitFrame(circuit_id=labels[0], body=body, trace_id=seq)
                for index, hop in enumerate(_HOPS):
                    hop_started = time.perf_counter()
                    received = transmit("wcl.circuit_data", frame)
                    delivered = provider.unwrap_layer(
                        keys[index], received.body, node=hop, context="bench"
                    )
                    if index + 1 < len(_HOPS):
                        frame = replace(
                            received, circuit_id=labels[index + 1], body=delivered
                        )
                    circuit_hops.append((time.perf_counter() - hop_started) * 1e6)
                wrong += delivered != content
            phase_s["circuit"] += time.perf_counter() - started

    onion_msgs = ONION_MESSAGES * len(ONION_PAYLOADS)
    circuit_msgs = CIRCUIT_MESSAGES * len(ONION_PAYLOADS)
    ops = crypto_ms = 0.0
    for node_id in accountant.nodes():
        for record in accountant.op_breakdown(node_id).values():
            ops += record.count
            crypto_ms += record.total_ms
    return Rep(
        timer=timer,
        digest=frames.hexdigest(), attempted=sent, failed=wrong,
        nodes=1 + len(_HOPS),
        outcome={
            "error_rate": wrong / sent,
            "wrong_outputs": wrong,
            "onion_msgs": onion_msgs,
            "circuit_msgs": circuit_msgs,
        },
        counts={"crypto.ops": ops, "crypto.ms": crypto_ms, **wire_totals},
        host={
            "onion_msgs_per_s": onion_msgs / phase_s["onion"],
            "circuit_msgs_per_s": circuit_msgs / phase_s["circuit"],
        },
        samples={"onion_hop_us": onion_hops, "circuit_hop_us": circuit_hops},
    )


WORKLOADS: dict[str, Callable[[int, Timer], Rep]] = {
    "overlay": overlay,
    "group_traffic": group_traffic,
    "sharded": sharded,
    "onion_path": onion_path,
}
