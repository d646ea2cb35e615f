"""Per-module simulation profiler: wall-time and toggle attribution.

Answers "where do simulated cycles go?" for any of the three backends
(interp / compiled / batched) without touching generated code: a
:class:`SimProfiler` attaches to a :class:`~repro.hdl.sim.Simulator` as
a watcher and, every ``sample_interval`` cycles, reads the simulator's
cycle :meth:`~repro.hdl.sim.core.SimCore.snapshot` (shared with the power
and coverage collectors) and its XOR against the previous sample.  From
these it derives

* **toggle activity** — per-net value-change counts, aggregated up the
  module hierarchy and bucketed into cycle windows (the switching
  heatmap);
* **wall-time attribution** — measured wall seconds across the profiled
  run, distributed over modules by each module's share of the netlist's
  expression-node evaluation cost (the same first-reached accounting
  the code generators use, so the estimate tracks what the backends
  actually execute).

Export formats, one per consumer:

* ``flamegraph.folded`` — folded stacks (``aes;pipe;s3 123``) for any
  flamegraph renderer;
* ``profile_trace.json`` — Chrome trace-event counters of per-window
  toggle activity by subsystem (load into chrome://tracing / Perfetto);
* ``toggle_heatmap.json`` — machine-readable per-net / per-module /
  per-window toggle *and* Hamming-distance data (the same per-window
  attribution format the power observatory consumes), the input for
  aiming the next perf PR.

A detached profiler costs nothing: it only exists while attached, and
the disabled-telemetry guard (``benchmarks/bench_obs_overhead.py``)
already pins the bare step path.
"""

from __future__ import annotations

import json
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from ..hdl.nodes import walk


def module_of(path: str) -> str:
    """Owning module of a signal path (``aes.pipe.s3.state`` → ``aes.pipe.s3``)."""
    return path.rsplit(".", 1)[0] if "." in path else path


def subsystem_of(module_path: str, depth: int = 2) -> str:
    """Truncate a module path to its top ``depth`` components."""
    return ".".join(module_path.split(".")[:depth])


def signal_costs(netlist) -> Dict[object, int]:
    """Expression-node evaluation cost per signal, first-reached.

    Walks each driver / reg-next expression in evaluation order and
    charges every node to the first signal that reaches it — the same
    accounting the compiled backends use when they emit each shared node
    exactly once.  Inputs cost 0; registers get +1 for the commit.
    """
    seen: set = set()
    costs: Dict[object, int] = {}

    def charge(roots) -> int:
        fresh = 0
        for node in walk(roots):
            if id(node) not in seen:
                seen.add(id(node))
                fresh += 1
        return fresh

    for sig in netlist.inputs:
        costs[sig] = 0
    for sig in netlist.comb:
        costs[sig] = charge([netlist.drivers[sig]])
    for reg in netlist.regs:
        nxt = netlist.reg_next.get(reg)
        costs[reg] = (charge([nxt]) if nxt is not None else 0) + 1
    return costs


class ProfileReport:
    """Finished attribution: per-net, per-module, per-window."""

    def __init__(self, design: str, backend: str, sample_interval: int,
                 window: int, cycles_sampled: int, wall_seconds: float,
                 net_toggles: Dict[str, int],
                 module_stats: Dict[str, Dict[str, float]],
                 window_series: List[Tuple[int, Dict[str, int]]],
                 hamming_series: Optional[
                     List[Tuple[int, Dict[str, int]]]] = None):
        self.design = design
        self.backend = backend
        self.sample_interval = sample_interval
        self.window = window
        self.cycles_sampled = cycles_sampled
        self.wall_seconds = wall_seconds
        self.net_toggles = net_toggles
        self.module_stats = module_stats
        self.window_series = window_series
        self.hamming_series = hamming_series or []

    # -- folded-stack flamegraph ------------------------------------------------
    def folded_stacks(self) -> List[str]:
        """One line per module: ``root;child;leaf weight``.

        Weights are estimated self-microseconds (wall time × node-cost
        share); when no wall time was observed (e.g. a zero-step run)
        the raw node cost is used so the shape is still renderable.
        """
        wall_us = self.wall_seconds * 1e6
        total_cost = sum(m["node_cost"] for m in self.module_stats.values())
        lines = []
        for mod in sorted(self.module_stats):
            stats = self.module_stats[mod]
            cost = stats["node_cost"]
            if cost <= 0:
                continue
            if wall_us > 0 and total_cost > 0:
                weight = max(1, round(wall_us * cost / total_cost))
            else:
                weight = int(cost)
            lines.append(f"{mod.replace('.', ';')} {weight}")
        return lines

    def write_flamegraph(self, path: str) -> None:
        with open(path, "w") as f:
            f.write("\n".join(self.folded_stacks()) + "\n")

    # -- Chrome trace counters --------------------------------------------------
    def to_chrome_trace(self) -> dict:
        from .tracing import Tracer

        tracer = Tracer()
        tracer.name_track(0, f"profile:{self.design}")
        subsystems = sorted({s for _, counts in self.window_series
                             for s in counts})
        for start_cycle, counts in self.window_series:
            tracer.counter("toggle_activity",
                           {s: float(counts.get(s, 0)) for s in subsystems},
                           ts=start_cycle)
        return tracer.to_chrome_trace()

    def write_chrome_trace(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(self.to_chrome_trace(), f)

    # -- toggle heatmap ---------------------------------------------------------
    def to_heatmap(self) -> dict:
        return {
            "design": self.design,
            "backend": self.backend,
            "sample_interval": self.sample_interval,
            "window_cycles": self.window,
            "cycles_sampled": self.cycles_sampled,
            "wall_seconds": self.wall_seconds,
            "nets": dict(sorted(self.net_toggles.items())),
            "modules": {m: dict(s) for m, s in
                        sorted(self.module_stats.items())},
            # "hamming" rides along per window (bits flipped, where
            # "toggles" counts nets changed) so the profiler and the
            # power observatory share one attribution format; the
            # original keys are unchanged
            "windows": [{"start_cycle": start, "toggles": dict(counts),
                         "hamming": dict(hamming.get(start, {}))}
                        for hamming in (dict(self.hamming_series),)
                        for start, counts in self.window_series],
        }

    def write_heatmap(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(self.to_heatmap(), f, sort_keys=True)

    def write_all(self, out_dir: str) -> Dict[str, str]:
        import os

        os.makedirs(out_dir, exist_ok=True)
        paths = {
            "flamegraph": os.path.join(out_dir, "flamegraph.folded"),
            "profile_trace": os.path.join(out_dir, "profile_trace.json"),
            "toggle_heatmap": os.path.join(out_dir, "toggle_heatmap.json"),
        }
        self.write_flamegraph(paths["flamegraph"])
        self.write_chrome_trace(paths["profile_trace"])
        self.write_heatmap(paths["toggle_heatmap"])
        return paths

    # -- human-readable ---------------------------------------------------------
    def render(self, top: int = 8) -> str:
        lines = [f"profile: {self.design} (backend={self.backend}, "
                 f"{self.cycles_sampled} cycles sampled, "
                 f"{self.wall_seconds:.3f}s wall)"]
        by_wall = sorted(self.module_stats.items(),
                         key=lambda kv: kv[1]["est_wall_us"], reverse=True)
        lines.append(f"  {'module':34s} {'est wall':>10s} {'toggles':>9s} "
                     f"{'nets':>5s}")
        for mod, stats in by_wall[:top]:
            lines.append(f"  {mod:34s} {stats['est_wall_us']:8.0f}us "
                         f"{int(stats['toggles']):9d} "
                         f"{int(stats['signals']):5d}")
        hot = sorted(self.net_toggles.items(), key=lambda kv: kv[1],
                     reverse=True)[:top]
        lines.append("  hottest nets:")
        for path, n in hot:
            lines.append(f"    {path:40s} {n} toggles")
        return "\n".join(lines)


class SimProfiler:
    """Attach to a simulator; sample, attribute, report.

    ``sample_interval`` trades fidelity for speed (1 = every cycle);
    ``window`` is the heatmap bucket size in cycles.  Call
    :meth:`detach` (or use as a context manager) before building the
    :class:`ProfileReport` with :meth:`report`.
    """

    def __init__(self, sim, sample_interval: int = 1, window: int = 64):
        if sample_interval < 1:
            raise ValueError("sample_interval must be >= 1")
        self.sim = sim
        self.sample_interval = sample_interval
        self.window = window
        self.signals = sim.value_signals()
        self._paths = [s.path for s in self.signals]
        self._modules = [module_of(p) for p in self._paths]
        self._subsystems = [subsystem_of(m) for m in self._modules]
        self._costs = signal_costs(sim.netlist)
        self.toggles = [0] * len(self.signals)
        self.cycles_sampled = 0
        self.wall_seconds = 0.0
        self._windows: Dict[int, Dict[str, int]] = {}
        self._hwindows: Dict[int, Dict[str, int]] = {}
        self._prev = None
        self._last_ts: Optional[float] = None
        self._attached = True
        sim.add_watcher(self._on_cycle)

    def __enter__(self) -> "SimProfiler":
        return self

    def __exit__(self, *exc) -> bool:
        self.detach()
        return False

    def detach(self) -> None:
        if self._attached:
            self.sim.remove_watcher(self._on_cycle)
            self._attached = False
            self._last_ts = None

    # -- sampling ---------------------------------------------------------------
    def _on_cycle(self, sim) -> None:
        now = perf_counter()
        if self._last_ts is not None:
            # time since the previous sample point: the backend step plus
            # whatever harness work ran between cycles — the run as the
            # user experiences it
            self.wall_seconds += now - self._last_ts
        cycle = sim.cycle
        if cycle % self.sample_interval == 0:
            snap = self.sim.snapshot()
            prev = self._prev
            if prev is not None:
                toggles = self.toggles
                subsystems = self._subsystems
                start = (cycle // self.window) * self.window
                wslot = self._windows.setdefault(start, {})
                hslot = self._hwindows.setdefault(start, {})
                # lane 0 of the shared cycle XOR, one int per signal
                for i, d in enumerate(snap.signals(snap.diff(prev))):
                    if d:
                        toggles[i] += 1
                        group = subsystems[i]
                        wslot[group] = wslot.get(group, 0) + 1
                        hslot[group] = hslot.get(group, 0) + \
                            bin(d).count("1")
            self._prev = snap
            self.cycles_sampled += 1
        # exclude our own sampling cost from the attributed wall time
        self._last_ts = perf_counter()

    # -- reporting --------------------------------------------------------------
    def report(self) -> ProfileReport:
        module_stats: Dict[str, Dict[str, float]] = {}
        for i, sig in enumerate(self.signals):
            mod = self._modules[i]
            stats = module_stats.setdefault(
                mod, {"toggles": 0, "node_cost": 0, "signals": 0,
                      "est_wall_us": 0.0})
            stats["toggles"] += self.toggles[i]
            stats["node_cost"] += self._costs.get(sig, 0)
            stats["signals"] += 1

        total_cost = sum(m["node_cost"] for m in module_stats.values())
        wall_us = self.wall_seconds * 1e6
        if total_cost > 0:
            for stats in module_stats.values():
                stats["est_wall_us"] = wall_us * stats["node_cost"] / total_cost

        net_toggles = {self._paths[i]: n
                       for i, n in enumerate(self.toggles) if n}
        series = sorted(self._windows.items())
        return ProfileReport(
            design=self.sim.netlist.root.path,
            backend=self.sim.backend_name,
            sample_interval=self.sample_interval,
            window=self.window,
            cycles_sampled=self.cycles_sampled,
            wall_seconds=self.wall_seconds,
            net_toggles=net_toggles,
            module_stats=module_stats,
            window_series=series,
            hamming_series=sorted(self._hwindows.items()),
        )


def profile_workload(blocks_per_tenant: int = 8,
                     backend: str = "compiled",
                     protected: bool = True,
                     reader_stutter: int = 3,
                     seed: int = 2026,
                     sample_interval: int = 1,
                     window: int = 64) -> ProfileReport:
    """Profile the instrumented multi-tenant workload end to end."""
    from .report import run_instrumented_workload

    holder: Dict[str, SimProfiler] = {}

    def attach(soc) -> None:
        holder["prof"] = SimProfiler(soc.driver.sim,
                                     sample_interval=sample_interval,
                                     window=window)

    run_instrumented_workload(
        blocks_per_tenant=blocks_per_tenant, backend=backend,
        protected=protected, reader_stutter=reader_stutter, seed=seed,
        on_soc=attach)
    prof = holder["prof"]
    prof.detach()
    return prof.report()


def cmd_obs_profile(args) -> int:
    """Implementation of ``python -m repro obs profile``."""
    blocks = 2 if args.demo else args.blocks
    report = profile_workload(
        blocks_per_tenant=blocks, backend=args.backend,
        protected=not args.baseline, sample_interval=args.interval,
        window=args.window)
    if args.json:
        print(json.dumps(report.to_heatmap(), sort_keys=True))
    else:
        print(report.render())
    if args.out:
        paths = report.write_all(args.out)
        for kind, path in sorted(paths.items()):
            print(f"wrote {kind}: {path}")
    return 0
