"""Bench-history ledger: gauge loading, direction logic, regressions."""

import json

from repro.obs.history import (
    EXPECTED_GAUGE_FAMILIES,
    GaugeDelta,
    HistoryComparison,
    append_history,
    compare_with_history,
    diff_gauges,
    find_bench_files,
    gauge_key,
    load_gauges,
    metric_direction,
    missing_families,
    read_history,
)


def _gauge_line(metric, value, **labels):
    return json.dumps({"kind": "gauge", "metric": metric,
                       "labels": labels, "value": value})


class TestDirections:
    def test_throughput_metrics_higher_is_better(self):
        assert metric_direction("repro_bench_sim_lane_cycles_per_second") \
            == "higher"
        assert metric_direction("repro_bench_gbps") == "higher"
        assert metric_direction("repro_bench_blocks_per_cycle") == "higher"
        assert metric_direction("repro_bench_sim_batched_speedup") == "higher"

    def test_latency_metrics_lower_is_better(self):
        assert metric_direction("repro_bench_latency_cycles") == "lower"
        assert metric_direction("repro_obs_overhead_seconds") == "lower"

    def test_unknown_metric_is_neutral(self):
        assert metric_direction("repro_bench_score") == "neutral"


class TestLoadGauges:
    def test_reads_jsonl_gauges(self, tmp_path):
        p = tmp_path / "BENCH_x.json"
        p.write_text(_gauge_line("m", 1.5, backend="compiled") + "\n"
                     + json.dumps({"kind": "counter", "metric": "n",
                                   "labels": {}, "value": 2}) + "\n")
        gauges = load_gauges([str(p)])
        assert gauges == {gauge_key("m", {"backend": "compiled"}): 1.5}

    def test_find_bench_files_excludes_ledger(self, tmp_path):
        (tmp_path / "BENCH_a.json").write_text("")
        (tmp_path / "BENCH_history.jsonl").write_text("")
        found = find_bench_files(str(tmp_path))
        assert [f.rsplit("/", 1)[-1] for f in found] == ["BENCH_a.json"]


class TestExpectedFamilies:
    """Satellite of the fleet PR: a whole benchmark silently not running
    must surface as a MISSING-family warning, not vanish quietly."""

    @staticmethod
    def _full_set():
        return {gauge_key(prefixes[0] + "x", {}): 1.0
                for prefixes in EXPECTED_GAUGE_FAMILIES.values()}

    def test_fleet_family_is_registered(self):
        assert "fleet" in EXPECTED_GAUGE_FAMILIES
        assert EXPECTED_GAUGE_FAMILIES["fleet"] == ("repro_bench_fleet_",)

    def test_all_families_present_no_warnings(self):
        assert missing_families(self._full_set()) == []

    def test_absent_family_is_flagged(self):
        gauges = self._full_set()
        gauges.pop(gauge_key("repro_bench_fleet_x", {}))
        assert missing_families(gauges) == ["fleet"]

    def test_overlapping_prefixes_resolve_to_longest(self):
        # repro_bench_fleet_obs_* satisfies only the fleet_obs family —
        # it must never mask a missing "fleet" benchmark
        gauges = {gauge_key("repro_bench_fleet_obs_x", {}): 1.0}
        missing = missing_families(gauges)
        assert "fleet" in missing
        assert "fleet_obs" not in missing

    def test_comparison_renders_family_warning(self):
        comparison = HistoryComparison([], missing_families=["fleet"])
        text = comparison.render()
        assert "gauge family 'fleet'" in text
        assert "repro_bench_fleet_" in text
        assert comparison.to_dict()["missing_families"] == ["fleet"]

    def test_compare_with_history_wires_families(self, tmp_path):
        ledger = tmp_path / "BENCH_history.jsonl"
        comparison = compare_with_history(str(ledger), self._full_set())
        assert comparison.missing_families == []
        comparison = compare_with_history(
            str(ledger), {gauge_key("repro_bench_gbps", {}): 1.0})
        assert "fleet" in comparison.missing_families
        assert "throughput" not in comparison.missing_families


class TestDeltas:
    def test_regression_direction_aware(self):
        slower = GaugeDelta("x_cycles_per_second", (), 100.0, 80.0)
        assert slower.is_regression() and not slower.is_improvement()
        faster = GaugeDelta("x_latency_cycles", (), 100.0, 80.0)
        assert faster.is_improvement() and not faster.is_regression()

    def test_tolerance_absorbs_noise(self):
        wiggle = GaugeDelta("x_cycles_per_second", (), 100.0, 95.0)
        assert not wiggle.is_regression(tolerance=0.10)
        assert wiggle.is_regression(tolerance=0.01)

    def test_neutral_metrics_never_flag(self):
        d = GaugeDelta("x_score", (), 100.0, 1.0)
        assert not d.is_regression() and not d.is_improvement()

    def test_new_and_removed_not_comparable(self):
        assert GaugeDelta("x_gbps", (), None, 5.0).change is None
        assert GaugeDelta("x_gbps", (), 5.0, None).change is None
        assert not GaugeDelta("x_gbps", (), None, 5.0).is_regression()

    def test_diff_covers_union(self):
        before = {gauge_key("a", {}): 1.0, gauge_key("b", {}): 2.0}
        after = {gauge_key("b", {}): 2.0, gauge_key("c", {}): 3.0}
        deltas = diff_gauges(before, after)
        assert [d.metric for d in deltas] == ["a", "b", "c"]


class TestLedger:
    def test_append_then_read_round_trips(self, tmp_path):
        ledger = str(tmp_path / "BENCH_history.jsonl")
        gauges = {gauge_key("m", {"k": "v"}): 1.0}
        append_history(ledger, gauges, note="first", timestamp=10.0)
        append_history(ledger, gauges, note="second", timestamp=20.0)
        entries = read_history(ledger)
        assert [e["note"] for e in entries] == ["first", "second"]
        assert entries[0]["gauges"] == [
            {"metric": "m", "labels": {"k": "v"}, "value": 1.0}]

    def test_missing_ledger_is_empty_history(self, tmp_path):
        assert read_history(str(tmp_path / "nope.jsonl")) == []

    def test_first_comparison_is_baseline(self, tmp_path):
        ledger = str(tmp_path / "h.jsonl")
        cmp_ = compare_with_history(ledger, {gauge_key("m_gbps", {}): 1.0})
        assert cmp_.previous_entry is None
        assert not cmp_.regressions
        assert "baseline run" in cmp_.render()

    def test_regression_against_last_entry(self, tmp_path):
        ledger = str(tmp_path / "h.jsonl")
        key = gauge_key("m_cycles_per_second", {})
        append_history(ledger, {key: 100.0}, timestamp=1.0)
        append_history(ledger, {key: 200.0}, timestamp=2.0)  # most recent
        cmp_ = compare_with_history(ledger, {key: 100.0})
        assert len(cmp_.regressions) == 1
        assert "REGRESSION" in cmp_.render()
        d = cmp_.to_dict()
        assert d["regressions"][0]["before"] == 200.0

    def test_each_gauge_diffs_against_its_last_recording(self, tmp_path):
        """A ledger whose latest entry holds one gauge family must still
        compare the other families against their last recorded values."""
        ledger = str(tmp_path / "h.jsonl")
        sim = gauge_key("m_cycles_per_second", {"backend": "compiled"})
        fleet = gauge_key("fleet_goodput_gbps", {})
        append_history(ledger, {sim: 100.0}, timestamp=1.0)
        append_history(ledger, {sim: 200.0}, timestamp=2.0)
        append_history(ledger, {fleet: 5.0}, timestamp=3.0)  # fleet only
        cmp_ = compare_with_history(ledger, {sim: 100.0, fleet: 5.0})
        assert [d.metric for d in cmp_.regressions] == ["m_cycles_per_second"]
        assert cmp_.regressions[0].before == 200.0
        assert cmp_.missing == []
        assert "0 new" in cmp_.render()
        assert cmp_.previous_entry["timestamp"] == 3.0

    def test_improvement_reported(self, tmp_path):
        ledger = str(tmp_path / "h.jsonl")
        key = gauge_key("m_latency_cycles", {})
        append_history(ledger, {key: 100.0}, timestamp=1.0)
        cmp_ = compare_with_history(ledger, {key: 50.0})
        assert len(cmp_.improvements) == 1
        assert not cmp_.regressions

    def test_missing_gauge_called_out_explicitly(self, tmp_path):
        ledger = str(tmp_path / "h.jsonl")
        kept = gauge_key("m_gbps", {})
        gone = gauge_key("m_vanished_gbps", {"backend": "batched"})
        append_history(ledger, {kept: 1.0, gone: 7.5}, timestamp=1.0)
        cmp_ = compare_with_history(ledger, {kept: 1.0})
        assert [d.metric for d in cmp_.missing] == ["m_vanished_gbps"]
        text = cmp_.render()
        assert "MISSING    m_vanished_gbps{backend=batched}" in text
        assert "was 7.5 in the previous run" in text
        assert "1 missing" in text
        d = cmp_.to_dict()
        assert d["missing"][0]["metric"] == "m_vanished_gbps"
        assert d["missing"][0]["before"] == 7.5
        assert d["missing"][0]["after"] is None

    def test_no_missing_when_gauges_match(self, tmp_path):
        ledger = str(tmp_path / "h.jsonl")
        key = gauge_key("m_gbps", {})
        append_history(ledger, {key: 1.0}, timestamp=1.0)
        cmp_ = compare_with_history(ledger, {key: 1.0})
        assert cmp_.missing == []
        assert "0 missing" in cmp_.render()
