"""Layered host-time benchmark of the protected AES accelerator.

    python3 perfbench/run.py --workload stream --seed 1 --seconds 10 --trace 0

Runs one seeded workload (``stream``, ``fleet`` or ``campaign``; see
README.md) from the root of a checkout: set-up, then whole rounds of the
same operations until ``--seconds`` is spent, checking every output
against an AES computed apart from the program.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` -- the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  The traced run takes traced
and untraced rounds in turn, so that it can report the tracing overhead;
it also prints a per-layer table and writes a Chrome trace under
``perfbench/out/``.
"""

from __future__ import annotations

import time

_T_IMPORT = time.perf_counter()

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")


def process_start() -> float:
    """``perf_counter`` value of this process's start (Linux), else of
    this module's import."""
    try:
        with open("/proc/self/stat") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        boot_now = time.clock_gettime(time.CLOCK_BOOTTIME)
        age = boot_now - start_ticks / os.sysconf("SC_CLK_TCK")
        now = time.perf_counter()
        if 0 <= now - age <= _T_IMPORT:
            return now - age
    except (OSError, ValueError, IndexError, AttributeError):
        pass
    return _T_IMPORT


def _import_program():
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no program sources under {src}")
    sys.path.insert(0, src)
    sys.path.insert(0, ROOT)
    import repro

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, "
                         f"not from {src}")


def percentile(samples, q):
    """Nearest-rank percentile (the smallest sample with at least a
    ``q`` share of samples at or below it)."""
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * q // 1))
    return ordered[int(rank) - 1]


def _workload(name):
    if name == "stream":
        from perfbench.stream import Stream
        return Stream
    if name == "fleet":
        from perfbench.fleet import Fleet
        return Fleet
    if name == "campaign":
        from perfbench.campaign import Campaign
        return Campaign
    raise SystemExit(f"perfbench: unknown workload {name!r}")


WORKLOADS = ("stream", "fleet", "campaign")


def _session(cls, seed, seconds, smoke, flip):
    """Set up one workload, then run whole rounds until ``seconds`` is
    spent; returns the state, the rounds and the end of the set-up
    (``perf_counter``)."""
    state = cls(seed, smoke=smoke, flip=flip)
    ready = time.perf_counter()
    rounds = []
    t0 = time.perf_counter()
    while True:
        rounds.append(state.round())
        elapsed = time.perf_counter() - t0
        if elapsed + elapsed / len(rounds) > seconds:
            break
    # the fleet is ready to serve only once its first round has spawned
    # every shard
    return state, rounds, getattr(state, "ready_at", None) or ready


def _traced_sessions(cls, seed, seconds, smoke, flip, tracer, run_dir):
    """The traced run: a traced and an untraced set-up, then pairs of a
    traced and an untraced round until ``seconds`` is spent, so that a
    drift in the host's speed falls on both alike."""
    from perfbench import layers

    def traced(fn):
        return layers.traced(tracer, cls, run_dir, fn)

    states = (traced(lambda: cls(seed, smoke=smoke, flip=flip)),
              cls(seed, smoke=smoke, flip=flip))
    # looked up under the patches, so that the round is ``client``
    turns = (lambda: traced(lambda: states[0].round()), states[1].round)
    rounds = ([], [])
    t0 = time.perf_counter()
    while True:
        # each goes first in every other pair
        order = (0, 1) if len(rounds[0]) % 2 == 0 else (1, 0)
        for i in order:
            rounds[i].append(turns[i]())
        elapsed = time.perf_counter() - t0
        if elapsed + elapsed / len(rounds[0]) > seconds:
            break
    return [(states[0], rounds[0], None), (states[1], rounds[1], None)]


def _figures(rounds):
    """Check the rounds against each other; returns the check's errors,
    ``blocks_per_s`` and the first round (whose simulated figures every
    round repeats)."""
    first = rounds[0]
    errors = []
    for r in rounds:
        errors.extend(r["errors"])
        if (r["cycles"], r["latencies"]) != (first["cycles"],
                                             first["latencies"]):
            errors.append("simulated figures differ between rounds")
    # the median time of equal units of work: whole rounds, or the
    # round's own windows where it has them (the fleet's shifts)
    if "windows" in first:
        walls = [w for r in rounds for w in r["windows"][0]]
        per_window = first["blocks"] / first["windows"][1]
    else:
        walls = [r["wall"] for r in rounds]
        per_window = first["blocks"]
    return errors, per_window / statistics.median(walls), first


def run(workload, seed, seconds, trace=False, smoke=False, flip=False,
        slow=None, t_start=None):
    """One benchmark run; returns the result object (and the traced
    run's per-layer table as ``result["table"]``)."""
    from perfbench import layers

    t_start = _T_IMPORT if t_start is None else t_start
    cls = _workload(workload)
    run_dir = os.path.join(OUT, f"run-{os.getpid()}")
    try:
        os.makedirs(run_dir, exist_ok=True)
        if trace:
            tracer = layers.Tracer(slow=slow)
            sessions = _traced_sessions(cls, seed, seconds, smoke, flip,
                                        tracer, run_dir)
        else:
            patches = (layers.install_worker_rss(run_dir)
                       if cls.name == "fleet" else None)
            try:
                sessions = [_session(cls, seed, seconds, smoke, flip)]
            finally:
                if patches is not None:
                    layers.uninstall(patches)
    finally:
        try:
            os.rmdir(run_dir)
        except OSError:
            pass

    errors = []
    figures = []
    for _, rounds, _ in sessions:
        err, blocks_per_s, first = _figures(rounds)
        errors.extend(err)
        figures.append((blocks_per_s, first))
    if ((figures[0][1]["cycles"], figures[0][1]["latencies"])
            != (figures[-1][1]["cycles"], figures[-1][1]["latencies"])):
        errors.append("simulated figures differ between set-ups")
    state, _, ready = sessions[-1]
    blocks_per_s, first = figures[-1]
    lat = first["latencies"]
    failed = sum(r["failed"] for s in sessions for r in s[1])
    result = {
        "correct": not errors and not failed and bool(lat),
        "attempted": sum(r["attempted"] for s in sessions for r in s[1]),
        "failed": failed,
        "errors": errors[:10],
        "rounds": sum(len(s[1]) for s in sessions),
        "latency_samples": len(lat),
    }
    if trace:
        from perfbench.report import layer_metrics

        traced_state = sessions[0][0]
        workers = getattr(traced_state, "worker_traces", [])
        metrics, table = layer_metrics(
            workload, tracer, workers, tracer.t_root / 1e9 - t_start,
            figures[0][0], blocks_per_s, getattr(traced_state, "counts", {}))
        result["table"] = table
        result["chrome_trace"] = _write_chrome(workload, tracer, workers)
    else:
        rss = layers.max_rss_mb() + getattr(state, "worker_rss", 0.0)
        metrics = {
            "setup_s": (ready - t_start, "s"),
            "blocks_per_s": (blocks_per_s, "blocks/s"),
            "cycles_per_block": (first["cycles"] / max(1, first["blocks"])
                                 * getattr(state, "lanes", 1),
                                 "cycles/block"),
            "latency_p50_cycles": (percentile(lat, 0.50) if lat else 0,
                                   "cycles"),
            "latency_p99_cycles": (percentile(lat, 0.99) if lat else 0,
                                   "cycles"),
            "peak_rss_mb": (rss, "MB"),
        }
    result["metrics"] = {k: {"value": v, "unit": u}
                         for k, (v, u) in metrics.items()}
    return result


def _write_chrome(workload, tracer, workers):
    from perfbench.report import chrome_trace

    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{workload}-trace.json")
    with open(path, "w") as fh:
        json.dump(chrome_trace(tracer, workers), fh)
    return os.path.relpath(path, ROOT)


def main(argv=None) -> int:
    t_start = process_start()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    _import_program()
    result = run(args.workload, args.seed, args.seconds,
                 trace=bool(args.trace), t_start=t_start)
    if "table" in result:
        print(result.pop("table"))
        print(f"chrome trace: {result.pop('chrome_trace')}")
    for err in result.pop("errors"):
        print(f"check failed: {err}", file=sys.stderr)
    print(f"rounds={result.pop('rounds')} "
          f"latency_samples={result.pop('latency_samples')}",
          file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
