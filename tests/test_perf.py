"""Tests for the perf regression subsystem (probe, compare gate, CLI)."""

from __future__ import annotations

import copy
import json

import pytest

from repro.perf.__main__ import main as perf_main
from repro.perf.bench import run_scale1k
from repro.perf.compare import compare_documents, parse_budget
from repro.perf.probe import PerfProbe, deterministic_view, load_result


def _document(
    events_per_sec: float = 1000.0,
    wall_s: float = 10.0,
    counters: dict | None = None,
) -> dict:
    return {
        "schema": 1,
        "name": "synthetic",
        "config": {"nodes": 100, "seed": 7},
        "sim": {"events": 10_000, "sim_time_s": 50.0, "pending_final": 12},
        "counters": counters if counters is not None else {"sim.events": 10_000},
        "timestamp": "2026-01-01T00:00:00+00:00",
        "timing": {"events_per_sec": events_per_sec, "wall_s": wall_s},
    }


class TestProbeDeterminism:
    def test_same_seed_double_run_is_byte_identical(self):
        """Two same-seed bench runs emit identical deterministic content."""
        first = run_scale1k(scale=0.05, seed=7, cycles=4)
        second = run_scale1k(scale=0.05, seed=7, cycles=4)
        assert first.deterministic_json() == second.deterministic_json()
        # The full documents still differ where they should: wall clock.
        assert first.document["timing"] != {}

    def test_scale100k_deterministic_and_lane_invariant(self):
        """The sharded bench: double-run identical, shards in timing only."""
        from repro.perf.bench import run_scale100k

        first = run_scale100k(scale=0.002, cycles=2, partitions=4, shards=1)
        second = run_scale100k(scale=0.002, cycles=2, partitions=4, shards=4)
        assert first.deterministic_json() == second.deterministic_json()
        assert first.document["trace_sha"] == second.document["trace_sha"]
        assert first.document["timing"]["shards"] == 1
        assert second.document["timing"]["shards"] == 4
        assert len(first.document["timing"]["shard_compute_s"]) == 4
        assert len(first.document["timing"]["shard_peak_rss_kb"]) == 4
        assert "barrier_s" in first.document["timing"]
        assert first.document["config"]["partitions"] == 4
        assert "shards" not in first.document["config"]

    def test_scale_benches_record_cache_hit_rates(self):
        """Satellite: fabric cache behaviour lands in the extras and is
        healthy — the owner-hint cache must be hit-dominated with zero
        evictions now that bounds derive from world size."""
        result = run_scale1k(scale=0.05, seed=7, cycles=4)
        caches = result.document["caches"]
        hints = caches["net.owner_hint"]
        assert hints["hits"] > hints["misses"]
        assert hints["evictions"] == 0
        assert hints["capacity"] >= 4 * result.document["config"]["nodes"]

    def test_soa_pass_speedup_is_recorded_and_sufficient(self):
        """The committed SoA before/after pair shows the gated >=1.15x win.

        Both documents were recorded back-to-back on the same idle
        machine, so their ratio is meaningful; the workloads must be
        identical (same config, same event count) for the comparison to
        hold.
        """
        import pathlib

        results = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "results"
        pre = load_result(results / "BENCH_scale1k_pre_soa.json")
        post = load_result(results / "BENCH_scale1k_post_soa.json")
        assert pre.document["config"] == post.document["config"]
        assert pre.document["sim"]["events"] == post.document["sim"]["events"]
        speedup = post.events_per_sec / pre.events_per_sec
        assert speedup >= 1.15, f"SoA pass speedup {speedup:.2f}x below gate"

    def test_collector_pause_speedup_is_recorded_and_sufficient(self):
        """The committed sharded-core pair shows the gated >=1.3x win from
        holding the cyclic collector off through every bulk phase.

        Recorded back-to-back on the same machine at ``--scale 0.1``; the
        deterministic halves must be identical (a pure speed change).
        """
        import pathlib

        results = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "results"
        pre = load_result(results / "BENCH_scale100k_pre_gcpause.json")
        post = load_result(results / "BENCH_scale100k_post_gcpause.json")
        assert pre.deterministic_json() == post.deterministic_json()
        speedup = post.events_per_sec / pre.events_per_sec
        assert speedup >= 1.3, f"collector-pause speedup {speedup:.2f}x below gate"

    def test_deterministic_view_strips_environment(self):
        doc = _document()
        view = deterministic_view(doc)
        assert "timestamp" not in view
        assert "timing" not in view
        assert view["sim"] == doc["sim"]
        assert view["counters"] == doc["counters"]

    def test_probe_rejects_reserved_record_keys(self):
        probe = PerfProbe("x")
        with pytest.raises(ValueError):
            probe.record("timing", {})
        with pytest.raises(ValueError):
            probe.record("counters", {})

    def test_duplicate_phase_rejected(self):
        probe = PerfProbe("x")
        with probe.phase("a"):
            pass
        with pytest.raises(ValueError):
            probe.phase("a").__enter__()


class TestCompareGate:
    def test_within_budget_passes(self):
        old = _document(events_per_sec=1000.0, wall_s=10.0)
        new = _document(events_per_sec=950.0, wall_s=10.4)
        outcome = compare_documents(old, new, budget=0.10)
        assert outcome.ok()
        assert "PASS" in outcome.render()

    def test_throughput_regression_fails(self):
        """A synthetic >10% events/sec drop must fail the 10% gate."""
        old = _document(events_per_sec=1000.0, wall_s=10.0)
        new = _document(events_per_sec=880.0, wall_s=10.0)
        outcome = compare_documents(old, new, budget=0.10)
        assert not outcome.ok()
        assert any(d.metric == "events_per_sec" for d in outcome.regressions)

    def test_wall_clock_regression_fails(self):
        old = _document(wall_s=10.0)
        new = _document(wall_s=11.5)
        outcome = compare_documents(old, new, budget=0.10)
        assert not outcome.ok()

    def test_improvement_never_fails(self):
        old = _document(events_per_sec=1000.0, wall_s=10.0)
        new = _document(events_per_sec=2500.0, wall_s=4.0)
        assert compare_documents(old, new, budget=0.10).ok()

    def test_drift_only_fails_under_strict(self):
        old = _document()
        new = copy.deepcopy(old)
        new["counters"]["sim.events"] = 10_001
        outcome = compare_documents(old, new, budget=0.10)
        assert outcome.drift
        assert outcome.ok(strict=False)
        assert not outcome.ok(strict=True)

    def test_config_mismatch_reported_as_drift(self):
        old = _document()
        new = copy.deepcopy(old)
        new["config"]["nodes"] = 200
        outcome = compare_documents(old, new, budget=0.10)
        assert any("config" in entry for entry in outcome.drift)

    def test_parse_budget(self):
        assert parse_budget("10%") == pytest.approx(0.10)
        assert parse_budget("0.25") == pytest.approx(0.25)
        with pytest.raises(ValueError):
            parse_budget("-5%")
        with pytest.raises(ValueError):
            parse_budget("1500%")


class TestCli:
    def _write(self, path, doc):
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")

    def test_compare_exit_zero_within_budget(self, tmp_path, capsys):
        old, new = tmp_path / "old.json", tmp_path / "new.json"
        self._write(old, _document(events_per_sec=1000.0))
        self._write(new, _document(events_per_sec=990.0))
        assert perf_main(["compare", str(old), str(new), "--budget", "10%"]) == 0
        assert "verdict: PASS" in capsys.readouterr().out

    def test_compare_exit_one_on_regression(self, tmp_path, capsys):
        """The CI gate: a 12% slowdown against a 10% budget exits non-zero."""
        old, new = tmp_path / "old.json", tmp_path / "new.json"
        self._write(old, _document(events_per_sec=1000.0, wall_s=10.0))
        self._write(new, _document(events_per_sec=880.0, wall_s=11.4))
        assert perf_main(["compare", str(old), str(new), "--budget", "10%"]) == 1
        assert "verdict: FAIL" in capsys.readouterr().out

    def test_compare_exit_two_on_bad_input(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.json"
        bogus.write_text("{}\n", encoding="utf-8")
        good = tmp_path / "good.json"
        self._write(good, _document())
        assert perf_main(["compare", str(bogus), str(good)]) == 2
        assert perf_main(
            ["compare", str(good), str(good), "--budget", "nope"]
        ) == 2

    def test_strict_flag_fails_on_drift(self, tmp_path):
        old, new = tmp_path / "old.json", tmp_path / "new.json"
        doc = _document()
        drifted = copy.deepcopy(doc)
        drifted["sim"]["events"] = 10_005
        self._write(old, doc)
        self._write(new, drifted)
        assert perf_main(["compare", str(old), str(new)]) == 0
        assert perf_main(["compare", str(old), str(new), "--strict"]) == 1

    def test_load_result_validates_schema(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("[]\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_result(str(path))
