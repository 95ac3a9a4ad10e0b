"""The repository's benchmark: one command, four workloads, one JSON line.

    python3 perfbench/run.py --workload overlay --seed 7 --seconds 20 --trace 0

Run from the repository root (the package is imported from ``src/``).
``--trace 0`` repeats the workload until ``--seconds`` have passed (at
least twice), scales host times by a speed gauge timed around each timed
segment, checks that every repetition produced the same digest and
simulated outcome, prints a report of every end-to-end metric with its
unit, and ends with the JSON result line.  ``--trace 1`` runs the workload
once untraced and once under :mod:`layertrace`, checks both digests are
equal, and reports the per-layer metrics.  Any failed check makes the
result ``correct: false`` and the exit code 1; a missing package or a bad
argument exits 2 without a result.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK_FILE = ROOT / "BENCHMARK.json"
MIN_REPS = 2
# The traced run fails if more of its wall than this lies outside every
# layer's spans.  The reference runs leave 0-8% unattributed (README.md);
# a layer module the tracer stopped wrapping shows up here.
UNATTRIBUTED_CEILING = 0.2


class GateError(Exception):
    """A correctness check of the benchmark failed."""


_WITHHELD = "fewer than 10 samples beyond"


def _line(name: str, value: float, unit: str, note: str) -> str:
    return f"{name:<26} {value:.6g} {unit}  ({note})"


def percentile_line(name: str, samples: list[float], q: float, unit: str) -> str:
    """``name = value unit (n=...)``, or why the percentile is withheld.

    A percentile is printed only when at least ten samples lie beyond it.
    """
    n = len(samples)
    beyond = n * (100.0 - q) / 100.0
    if beyond < 10:
        return f"{name:<26} n/a  (n={n}: {_WITHHELD} p{q:g})"
    value = statistics.quantiles(samples, n=100, method="inclusive")[round(q) - 1]
    return _line(name, value, unit, f"n={n}")


def check_reps(reps: list) -> None:
    """No repetition may produce a wrong output, and every repetition of
    one seed must agree on everything simulated."""
    first = reps[0]
    for index, rep in enumerate(reps, start=1):
        if rep.outcome.get("wrong_outputs"):
            raise GateError(
                f"repetition {index}: {rep.outcome['wrong_outputs']} outputs "
                "failed to decode or differ from what was sent"
            )
    for index, rep in enumerate(reps[1:], start=2):
        if rep.digest != first.digest:
            raise GateError(
                f"repetition {index} digest {rep.digest[:16]} != "
                f"repetition 1 digest {first.digest[:16]}"
            )
        if rep.outcome != first.outcome or rep.counts != first.counts:
            raise GateError(f"repetition {index} simulated outcome differs")


def _fresh_rep(workload, seed: int, timer):
    gc.collect()  # free the previous repetition outside every timed part
    return workload(seed, timer)


def timed_run(name: str, seed: int, seconds: float) -> tuple[dict, list[str], Any]:
    from workloads import WORKLOADS, Timer

    workload = WORKLOADS[name]
    baseline_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    started = time.perf_counter()
    reps = []
    while True:
        rep_started = time.perf_counter()
        reps.append(_fresh_rep(workload, seed, Timer(gauge=True)))
        now = time.perf_counter()
        if len(reps) >= MIN_REPS and now + (now - rep_started) > started + seconds:
            break
    check_reps(reps)
    first = reps[0]
    outcome = first.outcome
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    timers = [r.timer for r in reps]
    metrics = {
        "wall_s": (statistics.median(t.scaled_wall_s for t in timers), "s"),
        "setup_s": (statistics.median(t.scaled_setup_s for t in timers), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "success_ratio": (1.0 - outcome["error_rate"], "ratio"),
    }
    reps_note = f"host, median of {len(reps)}"
    lines = [
        f"workload {name}  seed {seed}  repetitions {len(reps)}  "
        f"digest {first.digest}",
        _line("wall_s", metrics["wall_s"][0], "s", f"{reps_note}, gauge-scaled"),
        _line("setup_s", metrics["setup_s"][0], "s", f"{reps_note}, gauge-scaled"),
        _line("raw_wall_s", statistics.median(t.wall_s for t in timers), "s", reps_note),
        _line("raw_setup_s", statistics.median(t.setup_s for t in timers), "s", reps_note),
        _line("peak_rss_mb", metrics["peak_rss_mb"][0], "MB", "host"),
        _line("error_rate", outcome["error_rate"], "ratio", "sim"),
    ]
    if name != "onion_path":
        per_node = (peak_kb - baseline_kb) / first.nodes
        lines += [
            _line("rss_kb_per_node", per_node, "KB", f"host, {first.nodes} nodes"),
            _line("bytes_per_node_s", outcome["bytes_per_node_s"], "B/s", "sim"),
            _line("events", outcome["events"], "count", "sim"),
        ]
    if "overlay_indegree_sd" in outcome:
        lines.append(
            _line("overlay_indegree_sd", outcome["overlay_indegree_sd"], "links", "sim")
        )
    if name == "group_traffic":
        count = outcome["latency_samples"]
        for q in (50, 99):
            key = f"latency_p{q}_s"
            if count * (100 - q) / 100 >= 10:
                lines.append(_line(key, outcome[key], "s", f"sim, n={count}"))
            else:
                lines.append(f"{key:<26} n/a  (n={count}: {_WITHHELD} p{q})")
    for key in sorted(first.host):
        value = statistics.median(r.host[key] for r in reps)
        unit = "msg/s" if key.endswith("per_s") else "s" if key.endswith("_s") else "ratio"
        lines.append(_line(key, value, unit, reps_note))
    for key in sorted(first.samples):
        pooled = [s for r in reps for s in r.samples[key]]
        for q in (50, 99):
            lines.append(percentile_line(f"{key[:-3]}_us_p{q}", pooled, q, "us"))
    result = {
        "correct": True,
        "attempted": sum(r.attempted for r in reps),
        "failed": sum(r.failed for r in reps),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, lines, first


def check_coverage(report: dict) -> None:
    """The tracer's attribution must be plausible.

    ``sum(self) + gc + unattributed == wall`` holds by construction (span
    self times telescope), so it guards nothing; this checks what can
    fail: no layer, GC or remainder below zero (a span charged for more
    children than it covered), and at most ``UNATTRIBUTED_CEILING`` of the
    wall outside every span.
    """
    wall = report["wall"]
    parts = {**report["self"], "gc": report["gc"], "unattributed": report["unattributed"]}
    for part, seconds in parts.items():
        if seconds < -1e-6:
            raise GateError(f"{part} self time {seconds:.6f} s is negative")
    share = report["unattributed"] / wall if wall else 0.0
    if share > UNATTRIBUTED_CEILING:
        raise GateError(
            f"{share:.1%} of the traced wall is unattributed "
            f"(ceiling {UNATTRIBUTED_CEILING:.0%})"
        )


def layer_metrics(untraced, traced, report: dict) -> dict[str, float]:
    """Per-layer metrics of one traced repetition (see README.md).

    Counts and host times cover the same window: the whole repetition,
    set-up and timed part (``Timer.window_s``).
    """
    from layertrace import LAYERS

    counts = traced.counts
    wall = report["wall"]
    untraced_wall = untraced.timer.window_s

    def count(key: str) -> float:
        return counts.get(key, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    ops, op_calls = report["ops"], report["op_calls"]

    def op_us(op: str) -> float:
        return ratio(ops.get(op, 0.0), op_calls.get(op, 0)) * 1e6

    self_s = report["self"]
    metrics: dict[str, float] = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
    sent = count("net.msgs_sent")
    hits, misses = count("net.owner_hint.cache_hit"), count("net.owner_hint.cache_miss")
    cross = count("shard.cross_msgs")
    barrier_s = untraced.host.get("shard.barrier_s", 0.0)
    metrics.update({
        "sim.events": count("sim.events"),
        "sim.events_per_s": ratio(count("sim.events"), untraced_wall),
        "sim.cancelled_skipped": report["cancelled"],
        "net.msgs_sent": sent,
        "net.delivered_ratio": ratio(count("net.msgs_delivered"), sent),
        "net.owner_hint_hit_ratio": ratio(hits, hits + misses),
        "nat.relayed": count("nat.relayed"),
        "nat.relay_share": ratio(count("nat.relayed"), sent),
        "nat.punches": count("nat.punches"),
        "pss.exchanges": count("pss.exchanges"),
        "pss.response_timeouts": count("pss.response_timeouts"),
        "pss.us_per_exchange": ratio(self_s["pss"], count("pss.exchanges")) * 1e6,
        "wcl.sent": count("wcl.sent"),
        "wcl.forwarded": count("wcl.forwarded"),
        "wcl.no_path": count("wcl.no_path"),
        "ppss.cycles": count("ppss.cycles"),
        "ppss.exchange_failures": count("ppss.exchange_failures"),
        "crypto.ops": count("crypto.ops"),
        "crypto.charged_ms": count("crypto.ms"),
        "crypto.rsa_us_per_op": op_us("rsa"),
        "crypto.layer_us_per_op": op_us("layer"),
        "wire.encode_us": op_us("encode"),
        "wire.decode_us": op_us("decode"),
        "wire.frame_bytes": ratio(count("wire.bytes"), count("wire.frames")),
        "telemetry.calls": report["calls"]["telemetry"],
        "telemetry.share": ratio(self_s["telemetry"], wall),
        "apps.lookups": op_calls.get("lookup", 0),
        "workload.offered": count("workload.offered"),
        "workload.completed": count("workload.completed"),
        "workload.lag": count("workload.lag"),
        "shard.barrier_s": barrier_s,
        "shard.barrier_share": ratio(barrier_s, untraced_wall),
        "shard.cross_msgs": cross,
        "shard.us_per_cross_msg": ratio(barrier_s, cross) * 1e6,
        "shard.compute_skew": untraced.host.get("shard.compute_skew", 0.0),
        "gc.collections": report["gcn"],
        "gc.pause_s": report["gc"],
        "unattributed_s": report["unattributed"],
        "unattributed_share": ratio(report["unattributed"], wall),
        "trace_overhead_s": wall - untraced_wall,
        "traced_wall_s": wall,
    })
    return metrics


def traced_run(name: str, seed: int) -> tuple[dict, list[str], Any]:
    from layertrace import LAYERS, LayerTracer
    from workloads import WORKLOADS, Timer

    workload = WORKLOADS[name]
    untraced = _fresh_rep(workload, seed, Timer())
    tracer = LayerTracer()
    tracer.install()
    try:
        traced = _fresh_rep(workload, seed, Timer(tracer))
    finally:
        tracer.uninstall_gc()
    if traced.digest != untraced.digest:
        raise GateError(
            f"traced digest {traced.digest[:16]} != untraced {untraced.digest[:16]}"
        )
    check_reps([untraced, traced])
    report = tracer.report()
    check_coverage(report)
    metrics = layer_metrics(untraced, traced, report)
    units = _units("per_layer")
    lines = [
        f"workload {name}  seed {seed}  traced  digest {traced.digest}",
        f"set-up + timed part: untraced {untraced.timer.window_s:.4f} s, "
        f"traced {report['wall']:.4f} s",
        "self time by layer (s, share of traced wall):",
    ]
    for layer in sorted(LAYERS, key=lambda l: -report["self"][l]):
        share = report["self"][layer] / report["wall"]
        lines.append(f"  {layer:<10} {report['self'][layer]:10.4f}  {share:6.1%}")
    lines.append(f"  {'gc':<10} {report['gc']:10.4f}  {report['gc'] / report['wall']:6.1%}")
    lines.append(
        f"  {'unattrib.':<10} {report['unattributed']:10.4f}  "
        f"{report['unattributed'] / report['wall']:6.1%}"
    )
    result = {
        "correct": True,
        "attempted": traced.attempted,
        "failed": traced.failed,
        "metrics": {
            key: {"value": metrics[key], "unit": units[key]} for key in units
        },
    }
    return result, lines, traced


def _units(section: str) -> dict[str, str]:
    with BENCHMARK_FILE.open(encoding="utf-8") as handle:
        entries = json.load(handle)[section]
    return {entry["name"]: entry["unit"] for entry in entries}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not BENCHMARK_FILE.is_file():
        print(f"perfbench: {BENCHMARK_FILE} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from repro.crypto.provider import CryptoError
    from repro.harness.invariants import InvariantViolation
    from repro.wire import WireError
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"known: {', '.join(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    try:
        if args.trace:
            result, lines, _ = traced_run(args.workload, args.seed)
        else:
            result, lines, _ = timed_run(args.workload, args.seed, args.seconds)
    except (GateError, InvariantViolation, CryptoError, WireError) as exc:
        print(f"perfbench: correctness check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
