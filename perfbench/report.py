"""Per-layer figures, table and Chrome trace of a traced run."""

from __future__ import annotations

from collections import defaultdict

#: ``repro`` layer -> its self-time metric (the table's row order)
SELF_TIME = (
    ("elaborate", "elaborate.s"),
    ("synth", "synth.s"),
    ("codegen", "codegen.s"),
    ("step", "step.s"),
    ("poke_peek", "poke_peek.s"),
    ("driver", "driver.s"),
    ("observe.power", "observe.power.s"),
    ("observe.coverage", "observe.coverage.s"),
    ("shard", "shard.tick.s"),
    ("fleet.schedule", "fleet.schedule.s"),
    ("fleet.reply_wait", "fleet.reply_wait.s"),
    ("ipc", "ipc.s"),
    ("verify", "verify.s"),
)

COUNTS = (
    ("synth.shadow_nets", "count"),
    ("codegen.cache_hits", "count"),
    ("codegen.cache_misses", "count"),
    ("step.cycles", "cycles"),
    ("poke.calls", "count"),
    ("peek.calls", "count"),
    ("driver.commands", "count"),
    ("shard.provisions", "count"),
    ("shard.provision_cycles", "cycles"),
    ("ipc.bytes", "bytes"),
    ("verify.blocks", "count"),
)

#: every per-layer metric the traced run prints, with its unit
PER_LAYER = (
    [("import.s", "s"), ("client.s", "s")]
    + [(m, "s") for _, m in SELF_TIME] + list(COUNTS) + [
        ("step.lane_cycles_per_s", "lane-cycles/s"),
        ("observe.snapshots_per_cycle", "snapshots/cycle"),
        ("fleet.rounds", "count"),
        ("fleet.deferrals", "count"),
        ("fleet.dispatched_per_delivered", "ratio"),
        ("unattributed.s", "s"),
        ("attributed.share", "ratio"),
        ("traced.blocks_per_s", "blocks/s"),
        ("untraced.blocks_per_s", "blocks/s"),
        ("tracing.overhead", "ratio"),
    ])

LAYERS = frozenset(layer for layer, _ in SELF_TIME)


def _sum_processes(tracer, workers):
    self_s = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(float)
    for snap in [tracer.snapshot()] + workers:
        for k, v in snap["self_s"].items():
            self_s[k] += v
        for k, v in snap["calls"].items():
            calls[k] += v
        for k, v in snap["counts"].items():
            counts[k] += v
    return self_s, calls, counts


def layer_metrics(workload, tracer, workers, import_s, traced_bps,
                  untraced_bps, extra):
    """Per-layer metrics ``{name: (value, unit)}`` and the printed table.

    Self times and counts are summed over the coordinator and every
    shard worker.  The traced wall time is the coordinator's time with
    the layers wrapped: the traced set-up and the traced rounds.
    ``unattributed.s`` is the part of it that no ``repro`` layer covers:
    ``client.s`` (the benchmark's own code, and any program call it
    makes that no layer wraps) and the gaps between spans.
    ``import.s`` (process start to the tracer's start) is outside it.
    ``tracing.overhead`` is the share of ``blocks_per_s`` lost to
    tracing: traced rounds against the untraced rounds run in turn
    with them.
    """
    self_s, calls, counts = _sum_processes(tracer, workers)
    root = tracer.wall_ns / 1e9
    layer_self = sum(v for k, v in tracer.snapshot()["self_s"].items()
                     if k in LAYERS)
    unattributed = max(0.0, root - layer_self)
    out = {m: (self_s.get(layer, 0.0), "s") for layer, m in SELF_TIME}
    for name, unit in COUNTS:
        out[name] = (counts.get(name, 0.0), unit)
    step_s = self_s.get("step", 0.0)
    out["step.lane_cycles_per_s"] = (
        counts.get("step.lane_cycles", 0.0) / step_s if step_s else 0.0,
        "lane-cycles/s")
    cycles = counts.get("step.cycles", 0.0)
    out["observe.snapshots_per_cycle"] = (
        counts.get("observe.snapshots", 0.0) / cycles if cycles else 0.0,
        "snapshots/cycle")
    out["fleet.rounds"] = (extra.get("rounds", 0), "count")
    out["fleet.deferrals"] = (extra.get("deferrals", 0), "count")
    out["fleet.dispatched_per_delivered"] = (
        extra["dispatched"] / extra["delivered"]
        if extra.get("delivered") else 0.0, "ratio")
    out["import.s"] = (import_s, "s")
    out["client.s"] = (self_s.get("client", 0.0), "s")
    out["unattributed.s"] = (unattributed, "s")
    out["attributed.share"] = (1.0 - unattributed / root if root else 0.0,
                               "ratio")
    out["traced.blocks_per_s"] = (traced_bps, "blocks/s")
    out["untraced.blocks_per_s"] = (untraced_bps, "blocks/s")
    out["tracing.overhead"] = (1.0 - traced_bps / untraced_bps, "ratio")
    return out, _table(workload, out, calls, root, workers, self_s)


def _table(workload, m, calls, root, workers, self_s):
    lines = [f"per-layer self time, {workload} (traced wall {root:.3f} s"
             + (f", {len(workers)} shard workers summed)" if workers
                else ")"),
             f"  {'(imports)':<18} {m['import.s'][0]:>10.4f}   before "
             f"tracing",
             f"  {'layer':<18} {'self s':>10} {'share':>7} {'calls':>10}"]
    for layer, name in SELF_TIME:
        v = m[name][0]
        if not v and not calls.get(layer):
            continue
        lines.append(f"  {layer:<18} {v:>10.4f} {v / root:>7.1%} "
                     f"{calls.get(layer, 0):>10}")
    if self_s.get("worker.idle"):
        lines.append(f"  {'(worker idle)':<18} {self_s['worker.idle']:>10.4f}")
    un, client = m["unattributed.s"][0], m["client.s"][0]
    lines.append(f"  {'unattributed':<18} {un:>10.4f} {un / root:>7.1%}")
    lines.append(f"  {'  of it client':<18} {client:>10.4f} "
                 f"{client / root:>7.1%} {calls.get('client', 0):>10}")
    lines.append("  counts and ratios:")
    for name, (v, unit) in m.items():
        if name.endswith(".s") or name == "attributed.share":
            continue
        lines.append(f"    {name:<32} {v:>14.4f} {unit}")
    lines.append(f"  attributed share of traced wall: "
                 f"{m['attributed.share'][0]:.1%}")
    return "\n".join(lines)


def chrome_trace(tracer, workers) -> dict:
    """All kept spans as Chrome trace events (one pid per process)."""
    snaps = [tracer.snapshot()] + workers
    t0 = min([tracer.t_root] + [s[1] for snap in snaps
                                for s in snap["spans"]])
    events = []
    for snap in snaps:
        pid = snap["pid"]
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "tid": 0, "args": {"name": snap["role"]}})
        for layer, start, end, sid, parent, rid in snap["spans"]:
            args = {"id": sid, "parent": parent}
            if rid is not None:
                args["rid"] = rid
            events.append({"name": layer, "cat": "layer", "ph": "X",
                           "ts": (start - t0) / 1000.0,
                           "dur": (end - start) / 1000.0,
                           "pid": pid, "tid": 0, "args": args})
    return {"traceEvents": events, "displayTimeUnit": "ms"}
