"""``fleet``: two shard workers serving 12 tenants from an open-loop trace.

An :class:`~repro.soc.fleet.AcceleratorFleet` with 2 shards on worker
processes (compiled backend, no chaos) replays a seeded open-loop Pareto
trace from 12 tenants -- gold, silver and bronze, one adversarial slow
poller -- onto the 3 key seats of each shard.  The tenants work in two
shifts of six, three per shard, that alternate; a shift's tenants take
the seats of the previous shift's, so every shift change re-provisions
every seat.  Each shift ends with a quiet gap long enough for the queues
and pipelines to drain, so seats are only re-provisioned on an idle
shard (re-provisioning while other seats have blocks in flight loses
blocks; see CHANGES.md).  Rates stay below the per-class admission caps
of the deficit-round-robin scheduler, so no request is shed.

A round is one replay of the trace by a fresh fleet.  Its spawn (fork,
elaboration and codegen in the workers) is set-up, not timed.
"""

from __future__ import annotations

import random
from time import perf_counter

from . import layers, reference

SHARDS = 2
TENANTS = 12
#: mean requests per 1000 cycles by class (DRR admits at most
#: 4/2/1 requests per 64-cycle round: 62.5/31.3/15.6 per 1000 cycles)
RATES = {"gold": 25.0, "silver": 15.0, "bronze": 8.0}
ALPHA = 2.5           # Pareto shape of the gaps between arrivals
SHIFT = 1792          # cycles in which a shift's tenants send
GAP = 768             # quiet cycles after each shift (a multiple of 64)
#: per-tenant admission queue bound: above the deepest Pareto pile-up,
#: so the trace is served without shedding
QUEUE_BOUND = 64


def _tenants(rng):
    from repro.soc.traffic import TENANT_CLASSES, TenantSpec

    specs = [TenantSpec(f"t{i:02d}", TENANT_CLASSES[i % 3],
                        rate=RATES[TENANT_CLASSES[i % 3]],
                        key=rng.getrandbits(128))
             for i in range(TENANTS)]
    # the fleet stripes tenants over shards in (priority, name) order;
    # alternate each shard's tenants of a class between the two shifts
    order = sorted(specs, key=lambda t: (t.priority, t.name))
    seen = {}
    shift_of = {}
    for i, spec in enumerate(order):
        k = (i % SHARDS, spec.tenant_class)
        shift_of[spec.name] = seen.get(k, 0) % 2
        seen[k] = seen.get(k, 0) + 1
    order[-1].adversarial = True   # a bronze tenant: the slow poller
    return specs, shift_of


def _arrivals(rng, spec, start, shift):
    """A fixed number of requests in ``[start, start + shift)``: the
    first when the tenant's shift opens, the rest at Pareto-spaced
    instants."""
    from repro.soc.traffic import Arrival

    n = round(spec.rate * shift / 1000.0)
    gaps = [rng.paretovariate(ALPHA) for _ in range(n)]
    scale = shift / sum(gaps)
    times, t = [start], start
    for gap in gaps[:-1]:
        t += gap * scale
        times.append(int(t))
    return [Arrival(at, spec.name, rng.getrandbits(128)) for at in times]


class Fleet:
    name = "fleet"

    def __init__(self, seed: int, smoke: bool = False, flip: bool = False):
        from repro.soc.fleet import AcceleratorFleet, FleetConfig
        from repro.soc.traffic import TrafficTrace

        self.flip = flip
        self.seed = seed
        rng = random.Random(f"fleet:{seed}")
        self.specs, shift_of = _tenants(rng)
        shifts = 2 if smoke else 6
        span = (SHIFT // 4 if smoke else SHIFT)
        arrivals = []
        for s in range(shifts):
            for spec in self.specs:
                if shift_of[spec.name] == s % 2:
                    arrivals.extend(_arrivals(rng, spec, s * (span + GAP),
                                              span))
        self.trace = TrafficTrace(self.specs, arrivals,
                                  shifts * (span + GAP), seed)
        self.shifts = shifts
        self.shift_rounds = (span + GAP) // 64
        self.keys = {t.name: t.key for t in self.specs}
        self.config = FleetConfig(shards=SHARDS, workers="process",
                                  queue_bound=QUEUE_BOUND)
        self.ready_at = None
        self.counts = {}
        #: largest sum of the shard workers' peak RSS over the rounds, and
        #: every worker's traced totals
        self.worker_rss = 0.0
        self.worker_traces = []

        bench = self

        class BenchFleet(AcceleratorFleet):
            """Notes when every shard is serving, and each shard's cycle."""

            def _spawn(self, slot, rnd):
                super()._spawn(slot, rnd)
                if all(s.live for s in self.slots):
                    self.spawned_at = perf_counter()
                    if bench.ready_at is None:
                        bench.ready_at = self.spawned_at

            def _watchdog(self, rnd, fleet_cycle):
                self.round_started.append(perf_counter())
                super()._watchdog(rnd, fleet_cycle)

            def _apply_reply(self, slot, reply, rnd):
                self.shard_cycles[slot.index] = reply["stats"]["cycle"]
                super()._apply_reply(slot, reply, rnd)

        self._fleet_cls = BenchFleet

    def round(self) -> dict:
        fleet = self._fleet_cls(self.config, self.specs, seed=self.seed)
        fleet.shard_cycles = {}
        fleet.round_started = []
        report = fleet.run(self.trace)
        wall = perf_counter() - fleet.spawned_at
        workers = layers.take_worker_reports()
        self.worker_rss = max(self.worker_rss,
                              sum(w["max_rss_mb"] for w in workers))
        self.worker_traces.extend(w["trace"] for w in workers
                                  if "trace" in w)
        cpr = self.config.cycles_per_round
        # every shift carries the same requests: time each complete one
        # (the last ends as soon as its requests are served)
        starts = fleet.round_started[::self.shift_rounds]
        windows = [b - a for a, b in zip(starts, starts[1:])]
        errors = []
        failed = 0
        latencies = []
        delivered = 0
        for req in fleet.requests:
            if not req.is_terminal:
                errors.append(f"request {req.id} left {req.status}")
            if req.status != "delivered":
                failed += 1
                continue
            result = req.result
            if self.flip:
                result ^= 1
                self.flip = False
            if result != reference.encrypt(self.keys[req.tenant], req.data):
                failed += 1
                continue
            delivered += 1
            # admission happens at the start of the round the request
            # arrives in (FleetRequest.latency counts from its arrival)
            admitted = req.submitted_cycle // cpr * cpr
            latencies.append(req.delivered_cycle - admitted)
        if len(fleet.requests) != len(self.trace.arrivals):
            errors.append(f"admitted {len(fleet.requests)} of "
                          f"{len(self.trace.arrivals)} arrivals")
        if report.cross_user:
            errors.append(f"{report.cross_user} cross-tenant deliveries")
        sup = report.supervisor
        if sup["kills_detected"] or sup["wedges_detected"]:
            errors.append(f"shards lost: {sup}")
        self.counts = {"rounds": fleet.rounds_run,
                       "deferrals": fleet.deferrals,
                       "dispatched": sum(r.attempts for r in fleet.requests),
                       "delivered": delivered}
        return {"attempted": len(fleet.requests), "failed": failed,
                "blocks": delivered,
                "cycles": sum(fleet.shard_cycles.values()),
                "latencies": latencies, "wall": wall,
                "windows": (windows, self.shifts),
                "errors": errors}
