"""Layer tracing for the traced benchmark run.

Nothing under ``src/`` is touched: :func:`install` wraps the public
entry points of each ``repro`` layer (and the few private seams the
fleet's worker protocol needs) from here, and :func:`uninstall` puts the
originals back.  Every wrapped call records a span (layer, start, end,
parent span, request id).  Self time is computed online -- a span's
duration minus the time its child spans cover -- so frequent small calls
such as ``poke``/``peek`` cost one stack push each; only the first
``SPAN_CAP`` spans of each layer are kept for the Chrome trace.

Forked shard workers inherit the wrappers.  Each worker starts a fresh
:class:`Tracer` and writes its totals to a file when the coordinator
sends ``stop``, before it replies, so the coordinator can sum them.
"""

from __future__ import annotations

import json
import os
import resource
import time
from collections import defaultdict
from time import perf_counter_ns

#: spans kept per layer and process for the Chrome trace
SPAN_CAP = 2000

#: layer of each wrapped callable: (module path, attribute path)
WRAPPED = {
    "elaborate": [
        ("repro.hdl.sim.engine", "elaborate"),
        ("repro.hdl.sim.batched", "elaborate"),
        ("repro.accel.protected", "AesAcceleratorProtected.__init__"),
    ],
    "synth": [("repro.ifc.synth", "synthesize_tags")],
    "codegen": [
        ("repro.hdl.sim.compiler", "CompiledBackend.__init__"),
        ("repro.hdl.sim.batched", "BatchedBackend.__init__"),
    ],
    "step": [("repro.hdl.sim.engine", "Simulator.step")],
    "poke_peek": [
        ("repro.hdl.sim.engine", f"Simulator.{m}")
        for m in ("poke", "peek", "poke_mem", "peek_mem", "values")
    ] + [
        ("repro.hdl.sim.batched", f"BatchSimulator.{m}")
        for m in ("poke", "poke_all", "peek", "peek_all", "values")
    ],
    "driver": [
        ("repro.accel.driver", f"AcceleratorDriver.{m}")
        for m in ("__init__", "issue", "step", "set_reader",
                  "allocate_slot", "load_key", "load_key_cell",
                  "wait_key_ready", "write_config", "read_config",
                  "read_debug", "encrypt", "decrypt", "run_collect",
                  "take_responses", "encrypt_blocking", "_poke_cmd",
                  "_idle_inputs", "counters")
    ],
    "observe.power": [
        ("repro.obs.power", f"PowerCollector.{m}")
        for m in ("__init__", "start_trace", "detach")
    ],
    "observe.coverage": [
        ("repro.obs.coverage", f"CoverageCollector.{m}")
        for m in ("__init__", "finish", "detach")
    ],
    "shard": [
        ("repro.soc.shard", "ShardCore.tick"),
        ("repro.soc.shard", "ShardCore.submit"),
        ("repro.soc.shard", "ShardCore.stats"),
        ("repro.soc.fleet", "ShardServer.run_round"),
        ("repro.soc.fleet", "ShardServer._try_seat"),
    ],
    "fleet.schedule": [
        ("repro.soc.fleet", f"AcceleratorFleet.{m}")
        for m in ("__init__", "run", "_spawn", "_admit", "_watchdog",
                  "_build_batch", "_apply_reply")
    ],
    "verify": [("repro.soc.fleet", "encrypt_block")],
}

#: watcher owner class -> layer
WATCHER_LAYERS = {"PowerCollector": "observe.power",
                  "CoverageCollector": "observe.coverage"}


class Tracer:
    """In-memory spans, per-layer self time and counters of one process."""

    def __init__(self, role: str = "coordinator", slow=None):
        self.role = role
        self.pid = os.getpid()
        self.self_ns = defaultdict(int)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.spans = []
        self._kept = defaultdict(int)
        self._stack = []
        self._next_id = 1
        #: request id stamped on spans opened while it is set
        self.rid = None
        #: start of the first traced interval, and the time traced
        self.t_root = None
        self.wall_ns = 0
        #: layer -> seconds slept inside each wrapped call (regression test)
        self.slow = dict(slow or {})

    def call(self, layer, fn, args, kwargs, count=None):
        """Run ``fn`` inside a span of ``layer``; ``count`` names a
        counter bumped once per outermost call of the layer."""
        sid = self._next_id
        self._next_id += 1
        stack = self._stack
        parent = stack[-1] if stack else None
        if count is not None and (parent is None or parent[2] != layer):
            self.counts[count] += 1
        frame = [sid, 0, layer]
        stack.append(frame)
        t0 = perf_counter_ns()
        try:
            if self.slow and layer in self.slow:
                time.sleep(self.slow[layer])
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter_ns()
            stack.pop()
            dur = t1 - t0
            self.self_ns[layer] += dur - frame[1]
            self.calls[layer] += 1
            if parent is not None:
                parent[1] += dur
            if self._kept[layer] < SPAN_CAP:
                self._kept[layer] += 1
                self.spans.append((layer, t0, t1, sid,
                                   parent[0] if parent else 0, self.rid))

    def snapshot(self) -> dict:
        """Totals in a JSON-able form (what a worker ships back)."""
        return {"role": self.role, "pid": self.pid,
                "self_s": {k: v / 1e9 for k, v in self.self_ns.items()},
                "calls": dict(self.calls), "counts": dict(self.counts),
                "spans": self.spans}


# the tracer of this process (forked workers replace it with their own)
# and the directory shard workers leave their reports in
_active = {"tracer": None, "worker_dir": None}


def _resolve(module_path, attr_path):
    import importlib

    obj = importlib.import_module(module_path)
    parts = attr_path.split(".")
    for p in parts[:-1]:
        obj = getattr(obj, p)
    return obj, parts[-1]


def _span_wrapper(layer, fn, before=None, after=None, count=None):
    if before is None and after is None:
        def wrapped(*args, **kwargs):
            tr = _active["tracer"]
            if tr is None:
                return fn(*args, **kwargs)
            return tr.call(layer, fn, args, kwargs, count)
    else:
        def wrapped(*args, **kwargs):
            tr = _active["tracer"]
            if tr is None:
                return fn(*args, **kwargs)
            state = before(tr, args, kwargs) if before is not None else None
            result = tr.call(layer, fn, args, kwargs, count)
            if after is not None:
                after(tr, args, kwargs, result, state)
            return result
    wrapped.__wrapped__ = fn
    wrapped.__name__ = getattr(fn, "__name__", "wrapped")
    return wrapped


# -- counters taken at the layer boundaries ---------------------------------------

def _after_step(tr, args, kwargs, result, state):
    sim = args[0]
    n = args[1] if len(args) > 1 else kwargs.get("n", 1)
    tr.counts["step.cycles"] += n
    tr.counts["step.lane_cycles"] += n * sim.lanes


def _after_synth(tr, args, kwargs, result, state):
    tr.counts["synth.shadow_nets"] += len(result[1].shadow_nets())


def _after_poke_cmd(tr, args, kwargs, result, state):
    tr.counts["driver.commands"] += 1


def _before_try_seat(tr, args, kwargs):
    return args[0].core.driver.sim.cycle


def _after_try_seat(tr, args, kwargs, result, start):
    used = args[0].core.driver.sim.cycle - start
    if used:
        tr.counts["shard.provisions"] += 1
        tr.counts["shard.provision_cycles"] += used


def _rid_run_round(tr, args, kwargs):
    subs = args[1]
    tr.rid = [s["id"] for s in subs] or None
    return None


def _clear_rid(tr, args, kwargs, result, state):
    tr.rid = None


HOOKS = {
    ("repro.hdl.sim.engine", "Simulator.step"): (None, _after_step),
    ("repro.ifc.synth", "synthesize_tags"): (None, _after_synth),
    ("repro.accel.driver", "AcceleratorDriver._poke_cmd"):
        (None, _after_poke_cmd),
    ("repro.soc.fleet", "ShardServer._try_seat"):
        (_before_try_seat, _after_try_seat),
    ("repro.soc.fleet", "ShardServer.run_round"):
        (_rid_run_round, _clear_rid),
}


def _ipc_patches():
    """Connection send/recv/poll: bytes, pickling + pipe time, waits.

    ``send``/``recv`` are re-stated from the standard library (pickle,
    then one framed write or read) so the byte count is exact; the
    blocking wait of a ``recv`` is split off as an explicit ``poll``.
    """
    from multiprocessing.connection import Connection
    from multiprocessing.reduction import ForkingPickler

    orig_poll = Connection.poll

    def send(self, obj):
        tr = _active["tracer"]
        buf = ForkingPickler.dumps(obj)
        tr.counts["ipc.bytes"] += len(buf)
        tr.call("ipc", self._send_bytes, (buf,), {})

    def recv(self):
        tr = _active["tracer"]
        wait = "fleet.reply_wait" if tr.role == "coordinator" else "worker.idle"
        tr.call(wait, orig_poll, (self, None), {})

        def read():
            buf = self._recv_bytes()
            tr.counts["ipc.bytes"] += buf.getbuffer().nbytes
            return ForkingPickler.loads(buf.getbuffer())
        return tr.call("ipc", read, (), {})

    def poll(self, timeout=0.0):
        tr = _active["tracer"]
        wait = "fleet.reply_wait" if tr.role == "coordinator" else "worker.idle"
        return tr.call(wait, orig_poll, (self, timeout), {})

    return [(Connection, "send", send), (Connection, "recv", recv),
            (Connection, "poll", poll)]


def _watcher_patches():
    from repro.hdl.sim.engine import Simulator

    orig_add, orig_remove = Simulator.add_watcher, Simulator.remove_watcher

    def add_watcher(self, fn):
        owner = type(getattr(fn, "__self__", None)).__name__
        layer = WATCHER_LAYERS.get(owner, "observe.other")

        def watcher(sim):
            tr = _active["tracer"]
            tr.counts["observe.snapshots"] += 1
            tr.call(layer, fn, (sim,), {})
        self.__dict__.setdefault("_bench_watchers", {})[fn] = watcher
        orig_add(self, watcher)

    def remove_watcher(self, fn):
        orig_remove(self, self.__dict__.get("_bench_watchers", {}).pop(fn, fn))

    return [(Simulator, "add_watcher", add_watcher),
            (Simulator, "remove_watcher", remove_watcher)]


def cache_totals() -> dict:
    from repro.hdl.sim.batched import batch_cache_stats
    from repro.hdl.sim.compiler import compile_cache_stats

    c, b = compile_cache_stats(), batch_cache_stats()
    return {"hits": c["hits"] + b["hits"],
            "misses": c["misses"] + b["misses"]}


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _worker_patches(outdir, traced, slow):
    """Fresh tracer per forked worker; totals written before ``stop``
    is answered (the coordinator terminates the worker right after)."""
    import repro.soc.fleet as fleet_mod

    orig_main = fleet_mod._shard_worker_main
    orig_handle = fleet_mod.ShardServer.handle
    base = {}

    def worker_main(*args, **kwargs):
        if traced:
            _active["tracer"] = Tracer(role="worker", slow=slow)
        base.update(cache_totals())
        return orig_main(*args, **kwargs)

    def handle(self, msg):
        if msg[0] == "stop":
            out = {"pid": os.getpid(), "max_rss_mb": max_rss_mb()}
            tr = _active["tracer"]
            if traced and tr is not None:
                cache = cache_totals()
                tr.counts["codegen.cache_hits"] += cache["hits"] - base["hits"]
                tr.counts["codegen.cache_misses"] += (cache["misses"]
                                                      - base["misses"])
                out["trace"] = tr.snapshot()
            path = os.path.join(outdir, f"worker-{os.getpid()}.json")
            with open(path, "w") as fh:
                json.dump(out, fh)
        return orig_handle(self, msg)

    return [(fleet_mod, "_shard_worker_main", worker_main),
            (fleet_mod.ShardServer, "handle", handle)]


class Patches:
    """The set of attribute replacements of one run; reversible."""

    def __init__(self):
        self._saved = []

    _INHERITED = object()

    def set(self, owner, name, value):
        if isinstance(owner, type):
            old = owner.__dict__.get(name, self._INHERITED)
        else:
            old = getattr(owner, name)
        self._saved.append((owner, name, old))
        setattr(owner, name, value)

    def undo(self):
        while self._saved:
            owner, name, value = self._saved.pop()
            if value is self._INHERITED:
                delattr(owner, name)
            else:
                setattr(owner, name, value)


def install(tracer, worker_dir=None) -> Patches:
    """Wrap every layer boundary; returns the handle for :func:`uninstall`."""
    patches = Patches()
    _active["tracer"] = tracer
    _active["worker_dir"] = worker_dir
    for layer, targets in WRAPPED.items():
        for module_path, attr_path in targets:
            owner, name = _resolve(module_path, attr_path)
            fn = (owner.__dict__[name] if isinstance(owner, type)
                  else getattr(owner, name))
            before, after = HOOKS.get((module_path, attr_path), (None, None))
            count = None
            if layer == "poke_peek":
                count = "poke.calls" if name.startswith("poke") else \
                    "peek.calls"
            elif layer == "verify":
                count = "verify.blocks"
            patches.set(owner, name,
                        _span_wrapper(layer, fn, before, after, count))
    for owner, name, value in _ipc_patches() + _watcher_patches():
        patches.set(owner, name, value)
    if worker_dir is not None:
        for owner, name, value in _worker_patches(worker_dir, True,
                                                    tracer.slow):
            patches.set(owner, name, value)
    return patches


def install_client(patches: Patches, cls) -> None:
    """The benchmark's own host code (input generation, the driving
    loop, output checks) is the ``client`` span.  It is not a ``repro``
    layer: its self time, which also takes in any program call that no
    layer wraps, counts as unattributed."""
    for name in ("__init__", "round"):
        patches.set(cls, name, _span_wrapper("client", cls.__dict__[name]))


def traced(tracer, cls, worker_dir, fn):
    """Run ``fn()`` with every layer and ``cls``'s own code wrapped; its
    time and the codegen cache traffic of this process count toward
    ``tracer``'s totals."""
    patches = install(tracer, worker_dir=worker_dir)
    install_client(patches, cls)
    cache = cache_totals()
    t0 = perf_counter_ns()
    if tracer.t_root is None:
        tracer.t_root = t0
    try:
        return fn()
    finally:
        tracer.wall_ns += perf_counter_ns() - t0
        end = cache_totals()
        tracer.counts["codegen.cache_hits"] += end["hits"] - cache["hits"]
        tracer.counts["codegen.cache_misses"] += (end["misses"]
                                                  - cache["misses"])
        uninstall(patches)


def install_worker_rss(worker_dir) -> Patches:
    """Untraced fleet runs: only the workers' peak-RSS report."""
    patches = Patches()
    _active["worker_dir"] = worker_dir
    for owner, name, value in _worker_patches(worker_dir, False, None):
        patches.set(owner, name, value)
    return patches


def uninstall(patches: Patches) -> None:
    patches.undo()
    _active["tracer"] = None
    _active["worker_dir"] = None


def take_worker_reports():
    """Load and delete the reports the shard workers stopped so far left
    behind: ``{"pid", "max_rss_mb"}`` plus ``"trace"`` when traced."""
    worker_dir = _active["worker_dir"]
    out = []
    if worker_dir is None or not os.path.isdir(worker_dir):
        return out
    for name in sorted(os.listdir(worker_dir)):
        if name.startswith("worker-") and name.endswith(".json"):
            path = os.path.join(worker_dir, name)
            with open(path) as fh:
                out.append(json.load(fh))
            os.remove(path)
    return out
