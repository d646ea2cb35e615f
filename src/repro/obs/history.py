"""Bench-history regression tracking over the ``BENCH_*.json`` gauges.

The benchmark suite exports its headline numbers as JSONL gauge records
(``{"kind": "gauge", "metric": ..., "labels": {...}, "value": ...}``).
Those files are overwritten on every run, so trends are invisible.  This
module keeps an **append-only** ledger — ``BENCH_history.jsonl``, one
JSON object per run — and a comparator that diffs the current gauges
against the previous entry, flagging regressions.

Whether a change is a regression depends on the metric's *direction*:
``cycles_per_second`` going down is bad, ``latency_cycles`` going down
is good.  Direction is inferred from the metric name (see
:func:`metric_direction`) and a relative ``tolerance`` absorbs run-to-run
noise in wall-clock-derived numbers.

``python -m repro obs history`` runs the full cycle: load gauges,
compare against the last ledger entry, print the verdict, append the
new entry.  ``--no-append`` makes it a dry-run comparator (what CI uses
for pull requests); ``--fail-on-regression`` turns warnings into a
non-zero exit.
"""

from __future__ import annotations

import glob
import json
import os
import time
from typing import Dict, Iterable, List, Optional, Tuple

#: Relative change below this is considered noise, not a regression.
DEFAULT_TOLERANCE = 0.10

#: Gauge families every full bench run is expected to export, as
#: ``family -> metric-name prefixes``.  The per-entry ``missing`` diff
#: only sees gauges that existed in the *previous* ledger entry; this
#: registry catches the other failure mode — a whole benchmark silently
#: not running (file deleted, import error, CI step dropped) so its
#: family never reaches the ledger at all.
EXPECTED_GAUGE_FAMILIES: Dict[str, Tuple[str, ...]] = {
    "throughput": ("repro_bench_blocks_per_cycle", "repro_bench_gbps",
                   "repro_bench_latency_cycles"),
    "sim": ("repro_bench_sim_",),
    "faults": ("repro_bench_faults_",),
    "leakage": ("repro_bench_leakage_",),
    "flows": ("repro_bench_flows_",),
    "power": ("repro_bench_power_",),
    "coverage": ("repro_bench_coverage_",),
    "synth_tags": ("repro_bench_synth_tags_",),
    "fleet": ("repro_bench_fleet_",),
    "fleet_obs": ("repro_bench_fleet_obs_",),
}


def missing_families(gauges: Dict["GaugeKey", float]) -> List[str]:
    """Expected families with zero gauges in the loaded set.

    Prefixes can nest (``repro_bench_fleet_`` vs
    ``repro_bench_fleet_obs_``); a gauge counts only toward the family
    with the *longest* matching prefix, so the fleet-observatory gauges
    cannot mask a silently-missing fleet benchmark.
    """
    all_prefixes = [p for prefixes in EXPECTED_GAUGE_FAMILIES.values()
                    for p in prefixes]
    owned = set()
    for metric, _labels in gauges:
        hits = [p for p in all_prefixes if metric.startswith(p)]
        if hits:
            owned.add(max(hits, key=len))
    missing = []
    for family, prefixes in sorted(EXPECTED_GAUGE_FAMILIES.items()):
        if not any(p in owned for p in prefixes):
            missing.append(family)
    return missing

#: (metric, sorted label items) → hashable gauge identity.
GaugeKey = Tuple[str, Tuple[Tuple[str, str], ...]]

_HIGHER_IS_BETTER = ("per_second", "per_cycle", "speedup", "gbps",
                     "throughput", "accuracy")
_LOWER_IS_BETTER = ("latency", "cycles", "seconds", "overhead", "bytes",
                    "stalls", "drops")


def metric_direction(metric: str) -> str:
    """``"higher"`` / ``"lower"`` is better, or ``"neutral"``.

    Compound names resolve in favour of the rate: ``..._cycles_per_second``
    is a throughput, not a latency.
    """
    name = metric.lower()
    for marker in _HIGHER_IS_BETTER:
        if marker in name:
            return "higher"
    for marker in _LOWER_IS_BETTER:
        if marker in name:
            return "lower"
    return "neutral"


def gauge_key(metric: str, labels: Dict[str, str]) -> GaugeKey:
    return (metric, tuple(sorted((str(k), str(v))
                                 for k, v in labels.items())))


def load_gauges(paths: Iterable[str]) -> Dict[GaugeKey, float]:
    """Read gauge records from JSONL bench artifacts into one flat map."""
    gauges: Dict[GaugeKey, float] = {}
    for path in paths:
        with open(path) as f:
            for line in f:
                line = line.strip()
                if not line:
                    continue
                rec = json.loads(line)
                if rec.get("kind") != "gauge":
                    continue
                gauges[gauge_key(rec["metric"], rec.get("labels", {}))] = \
                    float(rec["value"])
    return gauges


def find_bench_files(root: str = ".") -> List[str]:
    """The current bench artifacts (``BENCH_*.json``, ledger excluded)."""
    return sorted(p for p in glob.glob(os.path.join(root, "BENCH_*.json"))
                  if not p.endswith("BENCH_history.jsonl"))


class GaugeDelta:
    """One gauge compared across two runs."""

    __slots__ = ("metric", "labels", "before", "after", "direction")

    def __init__(self, metric: str, labels: Tuple[Tuple[str, str], ...],
                 before: Optional[float], after: Optional[float]):
        self.metric = metric
        self.labels = labels
        self.before = before
        self.after = after
        self.direction = metric_direction(metric)

    @property
    def change(self) -> Optional[float]:
        """Relative change, or None when not comparable (new/gone/zero)."""
        if self.before is None or self.after is None or self.before == 0:
            return None
        return (self.after - self.before) / abs(self.before)

    def is_regression(self, tolerance: float = DEFAULT_TOLERANCE) -> bool:
        change = self.change
        if change is None:
            return False
        if self.direction == "higher":
            return change < -tolerance
        if self.direction == "lower":
            return change > tolerance
        return False

    def is_improvement(self, tolerance: float = DEFAULT_TOLERANCE) -> bool:
        change = self.change
        if change is None:
            return False
        if self.direction == "higher":
            return change > tolerance
        if self.direction == "lower":
            return change < -tolerance
        return False

    def label_str(self) -> str:
        if not self.labels:
            return ""
        return "{" + ",".join(f"{k}={v}" for k, v in self.labels) + "}"

    def to_dict(self) -> dict:
        return {
            "metric": self.metric,
            "labels": dict(self.labels),
            "before": self.before,
            "after": self.after,
            "change": self.change,
            "direction": self.direction,
        }


def diff_gauges(before: Dict[GaugeKey, float],
                after: Dict[GaugeKey, float]) -> List[GaugeDelta]:
    """Every gauge present in either run, as a delta, sorted by name."""
    deltas = []
    for key in sorted(set(before) | set(after)):
        metric, labels = key
        deltas.append(GaugeDelta(metric, labels,
                                 before.get(key), after.get(key)))
    return deltas


class HistoryComparison:
    """Result of comparing current gauges against the previous run."""

    def __init__(self, deltas: List[GaugeDelta],
                 tolerance: float = DEFAULT_TOLERANCE,
                 previous_entry: Optional[dict] = None,
                 missing_families: Optional[List[str]] = None):
        self.deltas = deltas
        self.tolerance = tolerance
        self.previous_entry = previous_entry
        #: expected gauge families absent from this run's artifacts
        self.missing_families = missing_families or []

    @property
    def regressions(self) -> List[GaugeDelta]:
        return [d for d in self.deltas if d.is_regression(self.tolerance)]

    @property
    def improvements(self) -> List[GaugeDelta]:
        return [d for d in self.deltas if d.is_improvement(self.tolerance)]

    @property
    def missing(self) -> List[GaugeDelta]:
        """Gauges present in the previous ledger entry but absent now.

        A silently vanished gauge usually means a benchmark was dropped
        (or renamed) without anyone noticing — the comparator calls each
        one out explicitly rather than burying it in a count.
        """
        return [d for d in self.deltas if d.after is None]

    def render(self) -> str:
        lines = []
        if self.previous_entry is None:
            lines.append("bench history: no previous entry — baseline run")
        else:
            when = self.previous_entry.get("timestamp")
            note = self.previous_entry.get("note") or ""
            lines.append(f"bench history: comparing against run at "
                         f"{when}{' (' + note + ')' if note else ''}")
        regs = self.regressions
        imps = self.improvements
        for d in regs:
            lines.append(
                f"  REGRESSION {d.metric}{d.label_str()}: "
                f"{d.before:g} -> {d.after:g} "
                f"({d.change:+.1%}, {d.direction} is better)")
        for d in imps:
            lines.append(
                f"  improved   {d.metric}{d.label_str()}: "
                f"{d.before:g} -> {d.after:g} ({d.change:+.1%})")
        miss = self.missing
        for d in miss:
            lines.append(
                f"  MISSING    {d.metric}{d.label_str()}: was {d.before:g} "
                f"in the previous run, absent from this one")
        for family in self.missing_families:
            prefixes = ", ".join(
                p + "*" for p in EXPECTED_GAUGE_FAMILIES[family])
            lines.append(
                f"  MISSING    gauge family {family!r}: no {prefixes} "
                f"gauges loaded — did its benchmark run?")
        steady = sum(1 for d in self.deltas
                     if d.change is not None
                     and not d.is_regression(self.tolerance)
                     and not d.is_improvement(self.tolerance))
        fresh = sum(1 for d in self.deltas if d.before is None)
        lines.append(f"  {steady} steady, {len(imps)} improved, "
                     f"{len(regs)} regressed, {fresh} new, {len(miss)} missing "
                     f"(tolerance ±{self.tolerance:.0%})")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "tolerance": self.tolerance,
            "regressions": [d.to_dict() for d in self.regressions],
            "improvements": [d.to_dict() for d in self.improvements],
            "missing": [d.to_dict() for d in self.missing],
            "missing_families": list(self.missing_families),
            "deltas": [d.to_dict() for d in self.deltas],
        }


def read_history(path: str) -> List[dict]:
    """All ledger entries, oldest first; missing file → empty history."""
    if not os.path.exists(path):
        return []
    entries = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                entries.append(json.loads(line))
    return entries


def append_history(path: str, gauges: Dict[GaugeKey, float],
                   note: str = "", timestamp: Optional[float] = None) -> dict:
    """Append one run's gauges to the ledger; returns the entry written."""
    entry = {
        "timestamp": time.time() if timestamp is None else timestamp,
        "note": note,
        "gauges": [{"metric": metric, "labels": dict(labels), "value": value}
                   for (metric, labels), value in sorted(gauges.items())],
    }
    with open(path, "a") as f:
        f.write(json.dumps(entry, sort_keys=True) + "\n")
    return entry


def _entry_gauges(entry: dict) -> Dict[GaugeKey, float]:
    return {gauge_key(g["metric"], g.get("labels", {})): float(g["value"])
            for g in entry.get("gauges", [])}


def compare_with_history(history_path: str,
                         gauges: Dict[GaugeKey, float],
                         tolerance: float = DEFAULT_TOLERANCE
                         ) -> HistoryComparison:
    """Diff each gauge against the last ledger entry that recorded it.

    One run's artifacts need not carry every gauge family, so diffing
    against the most recent entry alone would make every family it
    lacks read as new (and never regress).  Gauges recorded only before
    the most recent entry and absent from ``gauges`` are left out, so
    :attr:`HistoryComparison.missing` still names what the previous run
    had.
    """
    entries = read_history(history_path)
    previous = entries[-1] if entries else None
    last_seen: Dict[GaugeKey, float] = {}
    for entry in entries:
        last_seen.update(_entry_gauges(entry))
    keep = set(gauges) | set(_entry_gauges(previous) if previous else ())
    before = {k: v for k, v in last_seen.items() if k in keep}
    return HistoryComparison(diff_gauges(before, gauges),
                             tolerance=tolerance, previous_entry=previous,
                             missing_families=missing_families(gauges))


def cmd_obs_history(args) -> int:
    """Implementation of ``python -m repro obs history``."""
    bench_files = (list(args.bench) if args.bench
                   else find_bench_files(args.root))
    if not bench_files:
        print(f"no BENCH_*.json artifacts found under {args.root!r}; "
              "run the benchmark suite first")
        return 1
    gauges = load_gauges(bench_files)
    comparison = compare_with_history(args.history, gauges,
                                      tolerance=args.tolerance)
    if args.json:
        print(json.dumps(comparison.to_dict(), sort_keys=True))
    else:
        print(f"loaded {len(gauges)} gauges from "
              f"{', '.join(os.path.basename(p) for p in bench_files)}")
        print(comparison.render())
    if not args.no_append:
        entry = append_history(args.history, gauges, note=args.note)
        if not args.json:
            print(f"appended entry ({len(entry['gauges'])} gauges) "
                  f"to {args.history}")
    if args.fail_on_regression and comparison.regressions:
        return 1
    return 0
