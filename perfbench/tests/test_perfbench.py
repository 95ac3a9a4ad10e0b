"""Tests of the benchmark itself: its contract file, gates and tracer.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


# ----------------------------------------------------------------------
# BENCHMARK.json
# ----------------------------------------------------------------------
def test_benchmark_json_shape_and_names():
    bench = _benchmark()
    assert set(bench) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert bench["paths"] == ["perfbench"]
    assert 1 <= bench["run_seconds"] <= 60
    names = [w["name"] for w in bench["workloads"]]
    assert names == list(workloads.WORKLOADS)
    for entry in bench["workloads"]:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    metrics = bench["end_to_end"] + bench["per_layer"]
    all_names = names + [m["name"] for m in metrics]
    assert len(all_names) == len(set(all_names))
    for name in all_names:
        assert NAME.fullmatch(name), name
    for metric in bench["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in bench["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in metrics:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_benchmark_json_round_trips():
    text = (ROOT / "BENCHMARK.json").read_text(encoding="utf-8")
    bench = json.loads(text)
    assert json.loads(json.dumps(bench)) == bench
    assert json.dumps(bench, indent=2) + "\n" == text
    assert len(text.encode("utf-8")) <= 64 * 1024


def test_every_layer_metric_has_a_prediction():
    predictions = json.loads((BENCH_DIR / "predictions.json").read_text())
    per_layer = [m["name"] for m in _benchmark()["per_layer"]]
    assert list(predictions) == per_layer
    known = set(workloads.WORKLOADS)
    for name, entry in predictions.items():
        assert set(entry) == {"moves", "on", "flat_on"}, name
        assert set(entry["on"]) <= known and set(entry["flat_on"]) <= known


# ----------------------------------------------------------------------
# gates
# ----------------------------------------------------------------------
def _rep(digest: str, events: int = 10) -> workloads.Rep:
    return workloads.Rep(
        timer=workloads.Timer(), digest=digest, attempted=1, failed=0,
        nodes=1, outcome={"events": events, "error_rate": 0.0}, counts={},
    )


def test_mismatching_digest_fails_the_gate():
    run.check_reps([_rep("a"), _rep("a")])
    with pytest.raises(run.GateError, match="digest"):
        run.check_reps([_rep("a"), _rep("b")])
    with pytest.raises(run.GateError, match="outcome"):
        run.check_reps([_rep("a"), _rep("a", events=11)])
    wrong = _rep("a")
    wrong.outcome["wrong_outputs"] = 1
    with pytest.raises(run.GateError, match="outputs"):
        run.check_reps([wrong])


def test_disagreeing_repetitions_exit_nonzero(monkeypatch, capsys):
    digests = iter(["first", "second"])

    def flaky(seed, timer):
        return _rep(next(digests))

    monkeypatch.setitem(workloads.WORKLOADS, "flaky", flaky)
    assert run.main(["--workload", "flaky", "--seed", "1", "--seconds", "0"]) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False


def _report(unattributed: float, pss: float = 0.5) -> dict:
    self_s = {"pss": pss, "net": 0.3}
    gc_s = 0.05
    wall = sum(self_s.values()) + gc_s + unattributed
    return {"wall": wall, "self": self_s, "gc": gc_s, "unattributed": unattributed}


def test_coverage_gate_fails_on_negative_or_unattributed_time():
    run.check_coverage(_report(unattributed=0.01))
    with pytest.raises(run.GateError, match="negative"):
        run.check_coverage(_report(unattributed=0.01, pss=-0.1))
    with pytest.raises(run.GateError, match="unattributed"):
        run.check_coverage(_report(unattributed=1.0))


def test_percentiles_need_ten_samples_beyond():
    assert "n/a" in run.percentile_line("x_p99", [1.0] * 999, 99, "us")
    assert "n/a" not in run.percentile_line("x_p99", [1.0] * 1000, 99, "us")
    assert "n/a" in run.percentile_line("x_p50", [1.0] * 19, 50, "us")


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        BENCH_DIR, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"),
    )
    done = _run_bench(
        "--workload", "overlay", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


# ----------------------------------------------------------------------
# end to end at tiny scale
# ----------------------------------------------------------------------
def test_onion_path_run_and_traced_run():
    done = _run_bench("--workload", "onion_path", "--seed", "5", "--seconds", "1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in _benchmark()["end_to_end"]}
    untraced_digest = done.stdout.split("digest ")[1].split()[0]

    done = _run_bench("--workload", "onion_path", "--seed", "5", "--trace", "1")
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("digest ")[1].split()[0] == untraced_digest
    result = json.loads(done.stdout.strip().splitlines()[-1])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in _benchmark()["per_layer"]}
    assert metrics["crypto.self_s"] > 0 and metrics["wire.self_s"] > 0
    assert metrics["sim.self_s"] == 0 and metrics["pss.self_s"] == 0


TINY_OVERLAY = """
import json, sys
sys.path[:0] = ["perfbench", "src"]
import run, workloads
workloads.OVERLAY_NODES = 120
workloads.OVERLAY_CYCLES = 3
result, lines, rep = run.traced_run("overlay", 9)
print(json.dumps({"result": result, "digest": rep.digest}))
"""


def test_traced_overlay_reproduces_untraced_digest(monkeypatch):
    done = subprocess.run(
        [sys.executable, "-c", TINY_OVERLAY],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    traced = json.loads(done.stdout.strip().splitlines()[-1])
    metrics = {k: v["value"] for k, v in traced["result"]["metrics"].items()}
    assert metrics["unattributed_share"] <= run.UNATTRIBUTED_CEILING
    assert metrics["pss.self_s"] > 0 and metrics["net.self_s"] > 0
    # Node construction in set-up touches crypto and wcl; nothing after it.
    assert metrics["crypto.ops"] == 0 and metrics["wcl.sent"] == 0

    monkeypatch.setattr(workloads, "OVERLAY_NODES", 120)
    monkeypatch.setattr(workloads, "OVERLAY_CYCLES", 3)
    untraced = workloads.overlay(9, workloads.Timer())
    assert untraced.digest == traced["digest"]
    assert metrics["sim.events"] == untraced.counts["sim.events"]


# ----------------------------------------------------------------------
# cross-checks against the committed perf documents
# ----------------------------------------------------------------------
def test_overlay_matches_committed_scale1k_event_count(monkeypatch):
    monkeypatch.setattr(workloads, "OVERLAY_CYCLES", 30)
    rep = workloads.overlay(1005, workloads.Timer())
    assert rep.outcome["events"] == 660_292  # BENCH_scale.json, seed 1005


def test_group_traffic_matches_committed_bench_load_trace(monkeypatch):
    monkeypatch.setattr(workloads, "GROUP_SCALE", 1.0)
    rep = workloads.group_traffic(1011, workloads.Timer())
    assert rep.digest.startswith("b4003c31")  # BENCH_bench_load.json
    assert rep.attempted == 1541 and rep.failed == 0
    assert rep.outcome["latency_p50_s"] == pytest.approx(0.1514, abs=5e-5)
    assert rep.outcome["latency_p99_s"] == pytest.approx(0.555, abs=5e-4)
