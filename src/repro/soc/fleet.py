"""Fleet-scale serving: a multi-shard accelerator farm under chaos.

The paper's SoC (Sec. 5) serves one protected AES accelerator; the
production question is what happens when *millions of users* contend
for a **pool** of them.  This module is that story:

* **shards** — each shard embeds one :class:`~repro.soc.shard.ShardCore`
  (the refactored single-SoC serving engine) on a worker, either inline
  (same process; deterministic unit tests, benchmarks) or on a forked
  **worker process** (the default: real parallelism across simulators,
  sidestepping the GIL, and a real victim for the chaos harness);
* **seats** — an accelerator has three user key slots, so each shard
  multiplexes its assigned tenants over three labelled *seats*
  (allocate-slot + load-key on demand, eviction only when the departing
  tenant has nothing in flight) — fleet tenants are a software concept,
  hardware isolation stays per-label;
* **admission** — per-tenant bounded queues with backpressure: when a
  queue bound is hit the fleet sheds from the *lowest-priority*
  nonempty queue, and every shed request terminates as ``rejected`` —
  nothing is ever silently dropped (the PR 4 terminal-status invariant,
  fleet-wide);
* **arbitration** — deficit-round-robin across tenants: gold/silver/
  bronze weights 4/2/1, one deficit counter per tenant, so heavy
  bronze bursts cannot starve gold traffic;
* **supervision** — the fleet-level generalization of the PR 4
  watchdog: per-round health probes with timeout, death detection on
  the worker pipe, exponential-backoff respawn, no-progress (wedge)
  detection with quarantine-and-drain, tenant rebalancing onto
  surviving shards, and degraded-mode accounting when no capacity is
  live.

Time is **logical**: the supervisor advances in rounds of
``cycles_per_round`` simulator cycles, commands every live shard once
per round, and collects replies at a barrier.  All latencies are in
fleet cycles, chaos fires at seeded round boundaries, and retry jitter
draws from a seeded RNG — so a fleet run (and its
``fleet_report.json``) is a *byte-identical* function of
``(trace, chaos, config)``, even though the worker processes genuinely
run in parallel.  ``python -m repro fleet`` replays a fixed traffic
trace under chaos and gates CI on the result.
"""

from __future__ import annotations

import multiprocessing
import random
from collections import deque
from typing import Dict, Iterable, List, Optional, Tuple

from ..accel.common import CMD_ENCRYPT
from ..aes.cipher import encrypt_block
from ..obs import Telemetry, capture as _obs_capture, telemetry as _telemetry
from ..obs.metrics import sample_quantile
from .chaos import ChaosSchedule
from .requests import TERMINAL_STATUSES, Request
from .shard import ShardCore
from .traffic import (
    TenantSpec,
    TrafficTrace,
    default_tenants,
    generate_trace,
)

#: the three user key slots of one accelerator: (principal, slot)
SEATS = (("alice", 1), ("bob", 2), ("charlie", 3))

#: reader-stutter period applied to an adversarial tenant's seat
ADVERSARY_STUTTER = 3


class FleetConfig:
    """Sizing and policy knobs for one fleet."""

    def __init__(self, shards: int = 4, backend: str = "compiled",
                 workers: str = "process",
                 cycles_per_round: int = 64,
                 batch_per_round: int = 8,
                 queue_bound: int = 16,
                 request_deadline: int = 1400,
                 max_retries: int = 3,
                 retry_base_rounds: int = 1,
                 retry_jitter_rounds: int = 2,
                 wedge_rounds: int = 3,
                 respawn_base_rounds: int = 2,
                 flush_rounds: int = 60,
                 reply_timeout: float = 120.0,
                 slos: Optional[Dict[str, Dict[str, float]]] = None):
        if workers not in ("process", "inline"):
            raise ValueError(f"workers must be 'process' or 'inline', "
                             f"got {workers!r}")
        self.shards = int(shards)
        self.backend = backend
        self.workers = workers
        #: logical cycles each shard advances per supervisor round
        self.cycles_per_round = int(cycles_per_round)
        #: max requests dispatched to one shard per round (admission rate)
        self.batch_per_round = int(batch_per_round)
        #: per-tenant fleet queue bound; beyond it the fleet sheds from
        #: the lowest-priority nonempty queue
        self.queue_bound = int(queue_bound)
        #: end-to-end budget per request, in fleet cycles
        self.request_deadline = int(request_deadline)
        self.max_retries = int(max_retries)
        self.retry_base_rounds = int(retry_base_rounds)
        self.retry_jitter_rounds = int(retry_jitter_rounds)
        #: rounds a shard may hold in-flight work without delivering
        #: anything before it is declared wedged and quarantined
        self.wedge_rounds = int(wedge_rounds)
        #: respawn backoff base (rounds); doubles per consecutive death
        self.respawn_base_rounds = int(respawn_base_rounds)
        #: extra rounds granted past the traffic horizon to drain
        self.flush_rounds = int(flush_rounds)
        #: wall-clock safety net on worker replies — only a dead or
        #: truly hung worker ever hits this, so determinism holds
        self.reply_timeout = float(reply_timeout)
        self.slos = slos if slos is not None else default_slos()

    def to_dict(self) -> dict:
        return {
            "shards": self.shards, "backend": self.backend,
            "workers": self.workers,
            "cycles_per_round": self.cycles_per_round,
            "batch_per_round": self.batch_per_round,
            "queue_bound": self.queue_bound,
            "request_deadline": self.request_deadline,
            "max_retries": self.max_retries,
            "retry_base_rounds": self.retry_base_rounds,
            "retry_jitter_rounds": self.retry_jitter_rounds,
            "wedge_rounds": self.wedge_rounds,
            "respawn_base_rounds": self.respawn_base_rounds,
            "flush_rounds": self.flush_rounds,
            "slos": self.slos,
        }


def default_slos() -> Dict[str, Dict[str, float]]:
    """Per-class SLOs: p99 latency (fleet cycles) and goodput fraction.

    ``adversarial`` applies to tenants flagged adversarial regardless of
    class — a slow poller self-inflicts latency, so holding it to the
    bronze SLO would punish the fleet for the adversary's own behaviour.
    """
    return {
        "gold": {"p99": 2200.0, "goodput": 0.95},
        "silver": {"p99": 3200.0, "goodput": 0.90},
        "bronze": {"p99": 4500.0, "goodput": 0.80},
        "adversarial": {"p99": 8000.0, "goodput": 0.50},
    }


class FleetRequest:
    """One tenant request tracked by the supervisor end to end."""

    __slots__ = ("id", "tenant", "tenant_class", "slo_class", "priority",
                 "cmd", "data", "status", "submitted_cycle",
                 "delivered_cycle", "result", "verified", "attempts",
                 "retries", "release_round", "shard", "trace_id")

    def __init__(self, id: int, tenant: str, tenant_class: str,
                 slo_class: str, priority: int, cmd: int, data: int,
                 submitted_cycle: int):
        self.id = id
        #: cross-process trace context: stamped at admission, carried in
        #: every shard submission, echoed in worker span args so the
        #: fleet observatory can stitch the full span chain back together
        self.trace_id: Optional[str] = None
        self.tenant = tenant
        self.tenant_class = tenant_class
        self.slo_class = slo_class
        self.priority = priority
        self.cmd = cmd
        self.data = data
        self.status = "queued"
        self.submitted_cycle = submitted_cycle
        self.delivered_cycle: Optional[int] = None
        self.result: Optional[int] = None
        self.verified: Optional[bool] = None
        self.attempts = 0      # dispatches to a shard
        self.retries = 0       # fleet watchdog re-queues
        self.release_round: Optional[int] = None
        self.shard: Optional[int] = None

    @property
    def is_terminal(self) -> bool:
        return self.status in TERMINAL_STATUSES

    @property
    def latency(self) -> Optional[int]:
        if self.delivered_cycle is None:
            return None
        return max(0, self.delivered_cycle - self.submitted_cycle)

    def __repr__(self) -> str:
        return (f"FleetRequest(#{self.id}, {self.tenant}, "
                f"{self.status})")


class ShardDead(Exception):
    """A worker stopped answering (killed, crashed, or hung)."""


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------

class ShardServer:
    """The in-worker serving loop around one :class:`ShardCore`.

    Handles the supervisor's command protocol: ``run`` (submit a batch,
    advance one round, report terminal transitions), ``probe`` (health
    snapshot), ``inject`` (load a chaos fault plan into the live
    simulator), ``stop``.  Tenants are seated on the accelerator's
    three key slots on demand; a seat is evictable only when its
    current tenant has nothing in flight, so reseating never breaks
    per-label response routing.
    """

    def __init__(self, index: int, backend: str = "compiled",
                 fault_targets: Iterable[str] = ("aes.advance",),
                 observe: bool = False):
        self.index = index
        #: worker-local telemetry (fleet-observatory mode): the core, its
        #: driver, and the security probe all instrument into this bundle;
        #: ``_drain_obs`` ships span/metric deltas with every round reply
        self.wtel: Optional[Telemetry] = None
        if observe:
            self.wtel = Telemetry()
            with _obs_capture(self.wtel):
                self.core = ShardCore(
                    protected=True, backend=backend,
                    fault_targets=list(fault_targets),
                    request_deadline=None, shard_id=str(index),
                    telemetry=self.wtel)
            self.wtel.tracer.name_track(0, "shard control")
        else:
            self.core = ShardCore(
                protected=True, backend=backend,
                fault_targets=list(fault_targets),
                request_deadline=None, shard_id=str(index))
        self._sup_tag = self.core.principals["supervisor"].tag
        #: seat principal -> tenant name (None = free)
        self.seats: Dict[str, Optional[str]] = {s: None for s, _ in SEATS}
        self._slot_of = dict(SEATS)
        #: request id -> (core Request, tenant, key)
        self.tracked: Dict[int, Tuple[Request, str, int]] = {}
        self._adversarial_seats: set = set()
        #: request id -> fleet trace id (observe mode)
        self._traces: Dict[int, Optional[str]] = {}
        self._ev_cursor = 0
        self._m_sent: Dict[Tuple[str, tuple], float] = {}
        #: a provisioning attempt of this round timed out and ``in_ready``
        #: has not read 1 since: the pipeline is wedged, so the round's
        #: other attempts would only burn the driver's full wait again
        self._provision_stalled = False

    # -- seating --------------------------------------------------------------
    def _seat_of(self, tenant: str) -> Optional[str]:
        for seat, owner in self.seats.items():
            if owner == tenant:
                return seat
        return None

    def _tenant_busy(self, tenant: str) -> bool:
        return any(t == tenant for _req, t, _k in self.tracked.values())

    def _try_seat(self, tenant: str, key: int,
                  adversarial: bool) -> Optional[str]:
        seat = self._seat_of(tenant)
        if seat is not None:
            return seat
        target = None
        for s, owner in self.seats.items():
            if owner is None:
                target = s
                break
        if target is None:
            for s, owner in self.seats.items():
                if not self._tenant_busy(owner):
                    target = s
                    break
        if target is None:
            return None
        sim, top = self.core.driver.sim, self.core.driver.top
        if self._provision_stalled:
            if not sim.peek(f"{top}.in_ready"):
                return None  # still wedged: defer without stepping
            self._provision_stalled = False
        # (re)provision the seat: slot ownership + the tenant's key.
        # out_ready is held low for the duration so no in-flight block
        # of another seat is consumed by the driver's own step loop.
        prov_start = sim.cycle
        sim.poke(f"{top}.out_ready", 0)
        try:
            principal = self.core.principals[target]
            self.core.driver.allocate_slot(self._slot_of[target],
                                           principal.tag, self._sup_tag)
            self.core.driver.load_key(principal.tag,
                                      self._slot_of[target], key)
        except TimeoutError:
            self._provision_stalled = True
            raise
        finally:
            sim.poke(f"{top}.out_ready", 1)
        if self.wtel is not None:
            self.wtel.tracer.complete(
                "seat_provision", prov_start, sim.cycle - prov_start,
                cat="fleet", tid=self.core.track_of(target),
                tenant=tenant, seat=target)
        principal.key = key
        self.seats[target] = tenant
        if adversarial:
            self._adversarial_seats.add(target)
        else:
            self._adversarial_seats.discard(target)
        self.core.stutter_users = set(self._adversarial_seats)
        self.core.reader_stutter = (
            ADVERSARY_STUTTER if self._adversarial_seats else 0)
        return target

    # -- protocol -------------------------------------------------------------
    def handle(self, msg: tuple):
        op = msg[0]
        if op == "run":
            return self.run_round(msg[1], msg[2])
        if op == "probe":
            return self.core.stats()
        if op == "inject":
            return self.inject(msg[1])
        if op == "stop":
            return "bye"
        raise ValueError(f"unknown shard op {op!r}")

    def run_round(self, submissions: List[dict], cycles: int) -> dict:
        core = self.core
        wtel = self.wtel
        start = core.driver.sim.cycle
        deferred: List[int] = []
        # at most one timed-out provisioning per round: the next round
        # tries again, since the wedge may have cleared by then
        self._provision_stalled = False
        # group by tenant so one seat operation covers a whole burst
        for spec in sorted(submissions, key=lambda s: (s["tenant"], s["id"])):
            try:
                seat = self._try_seat(spec["tenant"], spec["key"],
                                      spec.get("adversarial", False))
            except TimeoutError:
                # a wedged pipeline can stall seat provisioning; hand
                # the work back — the supervisor's no-progress watchdog
                # will quarantine us shortly
                seat = None
            if seat is None:
                deferred.append(spec["id"])
                continue
            req = Request(seat, spec["cmd"], self._slot_of[seat],
                          spec["data"])
            core.submit(req)
            self.tracked[spec["id"]] = (req, spec["tenant"], spec["key"])
            if wtel is not None:
                self._traces[spec["id"]] = spec.get("trace")
        used = core.driver.sim.cycle - start
        if used < cycles:
            core.tick(cycles - used)
        events: List[dict] = []
        delivered_now = 0
        for rid in sorted(self.tracked):
            req, tenant, key = self.tracked[rid]
            if not req.is_terminal:
                continue
            ev = {"id": rid, "status": req.status,
                  "issued_cycle": req.issued_cycle,
                  "delivered_cycle": req.delivered_cycle,
                  "attempts": req.attempts, "result": req.result}
            if req.status == "delivered" and req.cmd == CMD_ENCRYPT:
                ev["verified"] = (req.result == encrypt_block(req.data, key))
            events.append(ev)
            if req.status == "delivered":
                delivered_now += 1
            if wtel is not None:
                self._span_terminal(rid, req, tenant)
            del self.tracked[rid]
        core.driver.responses.clear()  # phantom copies; core owns routing
        reply = {"events": events, "deferred": deferred,
                 "stats": core.stats()}
        if wtel is not None:
            now = core.driver.sim.cycle
            tr = wtel.tracer
            tr.complete("sim_round", start, now - start, cat="fleet", tid=0,
                        submitted=len(submissions), delivered=delivered_now)
            if self.tracked and delivered_now == 0:
                # in-flight work, nothing came out: the worker-side view
                # of a wedge (or just pipeline fill on a fresh batch)
                tr.complete("wedge_stall", start, now - start, cat="stall",
                            tid=0, in_flight=len(self.tracked))
            reply["obs"] = self._drain_obs()
        return reply

    def _span_terminal(self, rid: int, req: Request, tenant: str) -> None:
        """Record the worker half of a request's span chain."""
        tr = self.wtel.tracer
        tid = self.core.track_of(req.user)
        trace = self._traces.pop(rid, None)
        if req.status == "delivered" and req.delivered_cycle is not None:
            begin = (req.issued_cycle if req.issued_cycle is not None
                     else req.submitted_cycle)
            tr.complete("shard_request", begin,
                        max(0, req.delivered_cycle - begin), cat="fleet",
                        tid=tid, trace=trace, rid=rid, tenant=tenant,
                        status=req.status)
        else:
            tr.instant("shard_terminal", cat="fleet", tid=tid,
                       ts=self.core.driver.sim.cycle, trace=trace,
                       rid=rid, tenant=tenant, status=req.status)

    def _drain_obs(self) -> dict:
        """Ship the span/metric deltas accumulated since the last reply.

        Spans travel as raw Chrome events in the worker's own cycle
        domain — the coordinator shifts them into fleet cycles with the
        slot's ``cycle_offset``.  Metric rows are ``(op, name, labels,
        value)``: counters and histogram samples are additive (``add``)
        so respawn epochs accumulate instead of double-counting, gauges
        overwrite (``set``).  Cursor state makes successive payloads
        disjoint, so the coordinator's merge is reply-order independent
        and bit-identical between inline and process hosts.
        """
        wtel = self.wtel
        events = wtel.tracer.events
        spans = events[self._ev_cursor:]
        self._ev_cursor = len(events)
        rows: List[tuple] = []
        for inst in wtel.metrics.instruments():
            op = "set" if inst.kind == "gauge" else "add"
            for name, key, value in inst.samples():
                sent = self._m_sent.get((name, key))
                if op == "set":
                    if sent is None or value != sent:
                        rows.append(("set", name, key, value))
                        self._m_sent[(name, key)] = value
                else:
                    delta = value - (sent if sent is not None else 0.0)
                    if delta:
                        rows.append(("add", name, key, delta))
                        self._m_sent[(name, key)] = value
        return {"spans": spans, "metrics": rows}

    def inject(self, plan_dict: dict) -> dict:
        from ..faults.plan import Fault, FaultPlan

        base = self.core.driver.sim.cycle + 2
        plan = FaultPlan([Fault(**f) for f in plan_dict["faults"]])
        self.core.driver.sim.load_fault_plan(plan.shifted(base))
        return {"injected_at": base, "faults": len(plan)}


def _shard_worker_main(conn, index: int, backend: str,
                       observe: bool = False) -> None:
    """Entry point of one forked shard worker process."""
    try:
        server = ShardServer(index, backend=backend, observe=observe)
    except Exception as exc:  # build failure: report and die visibly
        try:
            conn.send(("err", f"shard {index} failed to build: {exc!r}"))
        finally:
            conn.close()
        return
    conn.send(("ok", "ready"))
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        try:
            result = server.handle(msg)
        except Exception as exc:
            try:
                conn.send(("err", repr(exc)))
            except (BrokenPipeError, OSError):
                pass
            continue
        try:
            conn.send(("ok", result))
        except (BrokenPipeError, OSError):
            break
        if msg[0] == "stop":
            break
    conn.close()


# ---------------------------------------------------------------------------
# hosts: how the supervisor talks to a shard
# ---------------------------------------------------------------------------

class _InlineHost:
    """A shard living in the supervisor's own process (tests, benches)."""

    kind = "inline"

    def __init__(self, index: int, backend: str, reply_timeout: float,
                 observe: bool = False):
        self.server = ShardServer(index, backend=backend, observe=observe)
        self.dead = False

    def request(self, msg: tuple):
        if self.dead:
            raise ShardDead("inline shard was killed")
        try:
            return self.server.handle(msg)
        except ShardDead:
            raise
        except Exception as exc:
            raise ShardDead(f"inline shard crashed: {exc!r}") from exc

    def kill(self) -> None:
        self.dead = True
        self.server = None

    def terminate(self) -> None:
        self.kill()


class _ProcessHost:
    """A shard on its own OS process (fork by default), over a pipe."""

    kind = "process"

    def __init__(self, index: int, backend: str, reply_timeout: float,
                 observe: bool = False):
        ctx = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else "spawn")
        self._conn, child = ctx.Pipe(duplex=True)
        self._timeout = reply_timeout
        self.proc = ctx.Process(target=_shard_worker_main,
                                args=(child, index, backend, observe),
                                daemon=True)
        self.proc.start()
        child.close()
        self._recv()  # ready handshake

    def _recv(self):
        if not self._conn.poll(self._timeout):
            raise ShardDead("worker reply timed out")
        try:
            status, payload = self._conn.recv()
        except (EOFError, OSError) as exc:
            raise ShardDead(f"worker pipe closed: {exc!r}") from exc
        if status != "ok":
            raise ShardDead(f"worker error: {payload}")
        return payload

    def send(self, msg: tuple) -> None:
        try:
            self._conn.send(msg)
        except (BrokenPipeError, OSError) as exc:
            raise ShardDead(f"worker pipe broken: {exc!r}") from exc

    def recv(self):
        return self._recv()

    def request(self, msg: tuple):
        self.send(msg)
        return self._recv()

    def kill(self) -> None:
        if self.proc.is_alive():
            self.proc.kill()

    def terminate(self) -> None:
        try:
            if self.proc.is_alive():
                self.proc.terminate()
                self.proc.join(timeout=5)
                if self.proc.is_alive():
                    self.proc.kill()
                    self.proc.join(timeout=5)
        finally:
            self._conn.close()


_HOSTS = {"inline": _InlineHost, "process": _ProcessHost}


class ShardSlot:
    """Supervisor-side state for one position in the shard pool."""

    __slots__ = ("index", "host", "state", "cycle_offset", "inflight",
                 "rounds_idle", "deaths", "respawn_round", "epoch",
                 "delivered_total", "cross_user")

    def __init__(self, index: int):
        self.index = index
        self.host = None
        self.state = "down"            # live | down
        self.cycle_offset = 0
        #: request id -> FleetRequest currently on this shard
        self.inflight: Dict[int, FleetRequest] = {}
        self.rounds_idle = 0
        self.deaths = 0
        self.respawn_round = 0
        self.epoch = 0
        self.delivered_total = 0
        self.cross_user = 0

    @property
    def live(self) -> bool:
        return self.state == "live"


# ---------------------------------------------------------------------------
# supervisor
# ---------------------------------------------------------------------------

class AcceleratorFleet:
    """The fleet supervisor: shard pool, admission, DRR, chaos recovery."""

    def __init__(self, config: FleetConfig,
                 tenants: Iterable[TenantSpec],
                 seed: int = 2026,
                 telemetry: Optional[Telemetry] = None,
                 observatory=None):
        self.cfg = config
        self.tenants: Dict[str, TenantSpec] = {t.name: t for t in tenants}
        self.seed = int(seed)
        #: the single jitter stream: retry backoff draws come from here,
        #: in a deterministic order, so reports are seed-reproducible
        self._rng = random.Random(f"fleet:{seed}")
        self.slots = [ShardSlot(i) for i in range(config.shards)]
        #: tenant name -> shard index
        self.assignment: Dict[str, int] = {}
        self.queues: Dict[str, deque] = {
            name: deque() for name in self.tenants}
        self._deficit: Dict[str, float] = {
            name: 0.0 for name in self.tenants}
        #: every FleetRequest ever admitted (terminal-status invariant)
        self.requests: List[FleetRequest] = []
        self._backoff: List[FleetRequest] = []
        # supervisor counters
        self.kills_detected = 0
        self.wedges_detected = 0
        self.quarantines = 0
        self.respawns = 0
        self.rebalances = 0
        self.shed = 0
        self.deferrals = 0
        self.retries = 0
        self.degraded_rounds = 0
        self.forced = 0
        self.rounds_run = 0
        self.cross_user_total = 0
        self.obs = telemetry if telemetry is not None else _telemetry()
        #: fleet observatory (:mod:`repro.obs.fleet`): cross-process
        #: trace stitching, worker telemetry harvesting, burn-rate
        #: alerting.  When set, workers run with ``observe=True`` and
        #: piggyback span/metric deltas on every round reply.
        self.fobs = observatory

    # -- shard lifecycle ------------------------------------------------------
    def _spawn(self, slot: ShardSlot, rnd: int) -> None:
        host_cls = _HOSTS[self.cfg.workers]
        slot.host = host_cls(slot.index, self.cfg.backend,
                             self.cfg.reply_timeout,
                             observe=self.fobs is not None)
        stats = slot.host.request(("probe",))
        slot.cycle_offset = rnd * self.cfg.cycles_per_round - stats["cycle"]
        slot.state = "live"
        slot.inflight.clear()
        slot.rounds_idle = 0
        slot.delivered_total = 0
        slot.cross_user = 0
        slot.epoch += 1
        if self.obs is not None:
            self.obs.security.emit(
                "fleet_shard_spawned", source="fleet",
                cycle=rnd * self.cfg.cycles_per_round,
                shard=slot.index, epoch=slot.epoch)
        if self.fobs is not None:
            self.fobs.on_spawn(slot.index, slot.epoch, rnd)

    def _live_slots(self) -> List[ShardSlot]:
        return [s for s in self.slots if s.live]

    def _requeue_front(self, reqs: List[FleetRequest]) -> None:
        """Return requests to the front of their queues, id order kept."""
        for req in sorted(reqs, key=lambda r: -r.id):
            req.status = "queued"
            req.shard = None
            self.queues[req.tenant].appendleft(req)

    def _on_death(self, slot: ShardSlot, rnd: int, cause: str) -> None:
        """A shard stopped serving: reclaim, schedule respawn, rebalance.

        ``cause`` is ``"death"`` (the worker pipe broke — the chaos
        kill detection path) or ``"wedge"`` (the no-progress watchdog
        quarantined a live-but-frozen shard).  Either way every
        in-flight request is reclaimed for retry — the fleet never
        forgets work a dead shard was holding.
        """
        if cause == "death":
            self.kills_detected += 1
        else:
            self.wedges_detected += 1
            self.quarantines += 1
        try:
            slot.host.terminate()
        except (ShardDead, OSError):
            pass
        slot.host = None
        slot.state = "down"
        slot.deaths += 1
        slot.respawn_round = rnd + self.cfg.respawn_base_rounds * (
            2 ** (slot.deaths - 1))
        reclaimed = [slot.inflight[k] for k in sorted(slot.inflight)]
        slot.inflight.clear()
        slot.rounds_idle = 0
        self.cross_user_total += slot.cross_user
        survivors: List[FleetRequest] = []
        for req in reclaimed:
            req.retries += 1
            self.retries += 1
            if req.retries > self.cfg.max_retries:
                req.status = "timed_out"
                if self.fobs is not None:
                    self.fobs.on_timeout(req, rnd)
            else:
                survivors.append(req)
                if self.fobs is not None:
                    self.fobs.on_requeue(req, rnd, cause)
        self._requeue_front(survivors)
        moved = self._rebalance_from(slot)
        if self.fobs is not None:
            self.fobs.on_down(slot.index, rnd, cause,
                              reclaimed=len(reclaimed), rebalanced=moved,
                              respawn_round=slot.respawn_round)
        if self.obs is not None:
            self.obs.security.emit(
                "fleet_shard_down", source="fleet",
                cycle=rnd * self.cfg.cycles_per_round, shard=slot.index,
                cause=cause, reclaimed=len(reclaimed), rebalanced=moved,
                respawn_round=slot.respawn_round)

    def _rebalance_from(self, dead: ShardSlot) -> int:
        """Move the dead shard's tenants onto the emptiest live shards."""
        live = self._live_slots()
        if not live:
            return 0
        moved = 0
        loads = {s.index: sum(1 for t in self.assignment.values()
                              if t == s.index) for s in live}
        for name in sorted(t for t, s in self.assignment.items()
                           if s == dead.index):
            target = min(loads, key=lambda i: (loads[i], i))
            self.assignment[name] = target
            loads[target] += 1
            moved += 1
        self.rebalances += moved
        return moved

    def _rebalance_onto(self, fresh: ShardSlot) -> int:
        """Shift tenants from the most loaded shards onto a respawn."""
        moved = 0
        while True:
            loads: Dict[int, int] = {s.index: 0 for s in self._live_slots()}
            for t, s in self.assignment.items():
                if s in loads:
                    loads[s] += 1
            heaviest = max(loads, key=lambda i: (loads[i], -i))
            if heaviest == fresh.index:
                break
            if loads[heaviest] - loads[fresh.index] <= 1:
                break
            # deterministic pick: last-sorted tenant on the heavy shard
            name = sorted(t for t, s in self.assignment.items()
                          if s == heaviest)[-1]
            self.assignment[name] = fresh.index
            moved += 1
        self.rebalances += moved
        return moved

    # -- admission ------------------------------------------------------------
    def _admit(self, cycle: int, tenant: str, cmd: int, data: int) -> None:
        spec = self.tenants[tenant]
        slo_class = "adversarial" if spec.adversarial else spec.tenant_class
        req = FleetRequest(len(self.requests), tenant, spec.tenant_class,
                           slo_class, spec.priority, cmd, data, cycle)
        req.trace_id = f"{self.seed & 0xFFFFFFFF:08x}-{req.id:06d}"
        self.requests.append(req)
        if self.fobs is not None:
            self.fobs.on_admit(req, cycle)
        if len(self.queues[tenant]) >= self.cfg.queue_bound:
            # backpressure: shed the lowest-priority queued request in
            # the fleet — possibly the incoming one itself — and record
            # it as rejected (terminal), never silently dropped
            victim_name = max(
                (t for t in self.queues if self.queues[t]),
                key=lambda t: (self.tenants[t].priority, t))
            victim_spec = self.tenants[victim_name]
            if (req.priority, tenant) >= (victim_spec.priority, victim_name):
                req.status = "rejected"
                self.shed += 1
                if self.fobs is not None:
                    self.fobs.on_shed(req, cycle, for_tenant=tenant)
                return
            victim = self.queues[victim_name].pop()
            victim.status = "rejected"
            self.shed += 1
            if self.fobs is not None:
                self.fobs.on_shed(victim, cycle, for_tenant=tenant)
            if self.obs is not None:
                self.obs.security.emit(
                    "fleet_request_shed", source="fleet", cycle=cycle,
                    tenant=victim.tenant, for_tenant=tenant)
        req.status = "queued"
        self.queues[tenant].append(req)

    # -- watchdog -------------------------------------------------------------
    def _watchdog(self, rnd: int, fleet_cycle: int) -> None:
        if self._backoff:
            due = [r for r in self._backoff if r.release_round <= rnd]
            if due:
                self._backoff = [r for r in self._backoff
                                 if r.release_round > rnd]
                self._requeue_front(due)
        deadline = self.cfg.request_deadline
        for queue in self.queues.values():
            for req in list(queue):
                # each retry extends the budget: the clock never
                # restarts, so reported latency stays end-to-end honest
                if fleet_cycle - req.submitted_cycle > deadline * (
                        req.retries + 1):
                    queue.remove(req)
                    self._trip(req, rnd)

    def _trip(self, req: FleetRequest, rnd: int) -> None:
        if req.retries < self.cfg.max_retries:
            req.retries += 1
            self.retries += 1
            delay = (self.cfg.retry_base_rounds * (2 ** (req.retries - 1))
                     + self._rng.randrange(self.cfg.retry_jitter_rounds + 1))
            req.status = "backoff"
            req.release_round = rnd + delay
            self._backoff.append(req)
            if self.fobs is not None:
                self.fobs.on_backoff(req, rnd, delay)
        else:
            req.status = "timed_out"
            if self.fobs is not None:
                self.fobs.on_timeout(req, rnd)

    # -- dispatch -------------------------------------------------------------
    def _build_batch(self, slot: ShardSlot, fleet_cycle: int) -> List[dict]:
        assigned = sorted(
            (t for t, s in self.assignment.items() if s == slot.index),
            key=lambda t: (self.tenants[t].priority, t))
        if not assigned:
            return []
        batch: List[dict] = []
        # the shard has len(SEATS) key slots; tenants already holding a
        # seat (in-flight work) count against the budget first
        seated = {r.tenant for r in slot.inflight.values()}
        for name in assigned:
            spec = self.tenants[name]
            q = self.queues[name]
            if not q:
                self._deficit[name] = 0.0
                continue
            self._deficit[name] += spec.weight
            while (q and self._deficit[name] >= 1.0
                   and len(batch) < self.cfg.batch_per_round):
                if name not in seated and len(seated) >= len(SEATS):
                    break
                req = q.popleft()
                self._deficit[name] -= 1.0
                seated.add(name)
                req.status = "dispatched"
                req.attempts += 1
                req.shard = slot.index
                slot.inflight[req.id] = req
                batch.append({"id": req.id, "tenant": name,
                              "cmd": req.cmd, "data": req.data,
                              "key": spec.key,
                              "adversarial": spec.adversarial,
                              "trace": req.trace_id})
                if self.fobs is not None:
                    self.fobs.on_dispatch(req, slot.index, fleet_cycle)
        return batch

    def _apply_reply(self, slot: ShardSlot, reply: dict, rnd: int) -> None:
        if self.fobs is not None and "obs" in reply:
            self.fobs.harvest(slot.index, slot.epoch, slot.cycle_offset,
                              reply["obs"])
        delivered_now = 0
        for ev in reply["events"]:
            req = slot.inflight.pop(ev["id"], None)
            if req is None:
                continue
            if ev["status"] == "delivered":
                req.status = "delivered"
                req.delivered_cycle = slot.cycle_offset + ev["delivered_cycle"]
                req.result = ev["result"]
                req.verified = ev.get("verified")
                delivered_now += 1
            else:
                # the core reached a terminal verdict itself; mirror it
                req.status = ev["status"]
            if self.fobs is not None:
                self.fobs.on_terminal(req, rnd, from_worker=True)
        deferred = [slot.inflight.pop(rid) for rid in reply["deferred"]
                    if rid in slot.inflight]
        if deferred:
            self.deferrals += len(deferred)
            if self.fobs is not None:
                for req in deferred:
                    self.fobs.on_defer(req, slot.index, rnd)
            self._requeue_front(deferred)
        stats = reply["stats"]
        slot.delivered_total = stats["delivered"]
        slot.cross_user = stats["cross_user_deliveries"]
        if slot.inflight and delivered_now == 0:
            slot.rounds_idle += 1
        else:
            slot.rounds_idle = 0

    # -- the round loop -------------------------------------------------------
    def run(self, trace: TrafficTrace,
            chaos: Optional[ChaosSchedule] = None) -> "FleetReport":
        cfg = self.cfg
        chaos = chaos or ChaosSchedule([])
        cpr = cfg.cycles_per_round
        horizon_rounds = -(-trace.horizon // cpr)
        limit = horizon_rounds + cfg.flush_rounds
        if self.fobs is not None:
            self.fobs.bind(self)
        # initial placement: tenants striped over the pool
        names = sorted(self.tenants,
                       key=lambda t: (self.tenants[t].priority, t))
        for i, name in enumerate(names):
            self.assignment[name] = i % cfg.shards
        for slot in self.slots:
            self._spawn(slot, 0)
        self.respawns = 0  # initial spawns are not recoveries

        arrivals = trace.arrivals
        cursor = 0
        rnd = 0
        while rnd < limit:
            fleet_cycle = rnd * cpr
            # 1. chaos fires at the round boundary
            for ev in chaos.at(rnd):
                slot = self.slots[ev.shard]
                if not slot.live:
                    continue
                if ev.kind == "kill":
                    slot.host.kill()   # detection comes from the pipe
                    if self.fobs is not None:
                        self.fobs.on_chaos(ev, rnd)
                elif ev.kind == "wedge":
                    try:
                        slot.host.request(("inject", ev.plan))
                    except ShardDead:
                        self._on_death(slot, rnd, "death")
                    else:
                        if self.fobs is not None:
                            self.fobs.on_chaos(ev, rnd)
            # 2. admit this round's arrivals
            while (cursor < len(arrivals)
                   and arrivals[cursor].cycle < fleet_cycle + cpr):
                a = arrivals[cursor]
                self._admit(a.cycle, a.tenant, a.cmd, a.data)
                cursor += 1
            # 3. watchdog: backoff release + deadline scan
            self._watchdog(rnd, fleet_cycle)
            # 4. respawns that have served their backoff
            for slot in self.slots:
                if slot.state == "down" and rnd >= slot.respawn_round:
                    self._spawn(slot, rnd)
                    self.respawns += 1
                    moved = self._rebalance_onto(slot)
                    if self.fobs is not None:
                        self.fobs.on_rebalance(slot.index, rnd, moved)
            # 5. dispatch: build + send every live shard's round first,
            # then collect replies in index order — process workers all
            # simulate concurrently between the two passes
            live = self._live_slots()
            if not live:
                self.degraded_rounds += 1
            pending: List[Tuple[ShardSlot, tuple]] = []
            for slot in live:
                msg = ("run", self._build_batch(slot, fleet_cycle), cpr)
                if slot.host.kind == "process":
                    try:
                        slot.host.send(msg)
                    except ShardDead:
                        self._on_death(slot, rnd, "death")
                        continue
                pending.append((slot, msg))
            for slot, msg in pending:
                try:
                    reply = (slot.host.recv()
                             if slot.host.kind == "process"
                             else slot.host.request(msg))
                except ShardDead:
                    self._on_death(slot, rnd, "death")
                    continue
                self._apply_reply(slot, reply, rnd)
                # 6. no-progress watchdog: a live shard holding work
                # that delivers nothing for wedge_rounds rounds is
                # wedged — quarantine and drain it
                if slot.rounds_idle >= cfg.wedge_rounds:
                    self._on_death(slot, rnd, "wedge")
            if self.fobs is not None:
                self.fobs.on_round_end(rnd)
            rnd += 1
            self.rounds_run = rnd
            if (cursor >= len(arrivals) and not self._backoff
                    and all(r.is_terminal for r in self.requests)):
                break

        # drain protocol: anything still open is forced terminal so the
        # invariant is checkable — the gate then requires forced == 0
        for req in self.requests:
            if not req.is_terminal:
                req.status = "timed_out"
                self.forced += 1
                if self.fobs is not None:
                    self.fobs.on_timeout(req, self.rounds_run)
        for slot in self.slots:
            if slot.live:
                self.cross_user_total += slot.cross_user
                try:
                    slot.host.request(("stop",))
                except ShardDead:
                    pass
                try:
                    slot.host.terminate()
                except (ShardDead, OSError):
                    pass
                slot.host = None
                slot.state = "down"
        if self.obs is not None:
            self._publish_metrics()
        if self.fobs is not None:
            self.fobs.finalize(self)
        return FleetReport(self, trace, chaos)

    def _publish_metrics(self) -> None:
        m = self.obs.metrics
        totals: Dict[str, int] = {}
        for req in self.requests:
            totals[req.status] = totals.get(req.status, 0) + 1
        g = m.gauge("fleet_requests_by_status",
                    "terminal request counts for the last fleet run",
                    ("status",))
        for status, count in sorted(totals.items()):
            g.set(count, status=status)
        m.gauge("fleet_kills_detected",
                "worker deaths detected via the shard pipe").set(
            self.kills_detected)
        m.gauge("fleet_wedges_detected",
                "no-progress quarantines of live shards").set(
            self.wedges_detected)
        m.gauge("fleet_respawns",
                "shard respawns after backoff").set(self.respawns)
        m.gauge("fleet_rebalances",
                "tenant moves across shards").set(self.rebalances)
        m.gauge("fleet_shed_requests",
                "admission-control rejections under backpressure").set(
            self.shed)
        m.gauge("fleet_degraded_rounds",
                "rounds served with zero live shards").set(
            self.degraded_rounds)
        lat = m.histogram("fleet_request_latency_cycles",
                          "admission-to-delivery latency in fleet cycles",
                          ("tenant_class",), reservoir=512)
        for req in self.requests:
            if req.status == "delivered" and req.latency is not None:
                lat.observe(req.latency, tenant_class=req.slo_class)


# ---------------------------------------------------------------------------
# report + gate
# ---------------------------------------------------------------------------

class FleetReport:
    """The fleet gate's verdict: conservation, SLOs, chaos recovery."""

    def __init__(self, fleet: AcceleratorFleet, trace: TrafficTrace,
                 chaos: ChaosSchedule,
                 ifc_ok: Optional[bool] = None):
        self.config = fleet.cfg.to_dict()
        self.seed = fleet.seed
        self.trace = trace.to_dict()
        self.chaos = chaos.to_dict()
        self.kills_injected = len(chaos.kills())
        self.wedges_injected = len(chaos.wedges())
        self.ifc_ok = ifc_ok

        reqs = fleet.requests
        self.total = len(reqs)
        self.by_status: Dict[str, int] = {}
        for req in reqs:
            self.by_status[req.status] = self.by_status.get(req.status, 0) + 1
        self.conservation_ok = (
            all(r.is_terminal for r in reqs)
            and sum(self.by_status.get(s, 0) for s in TERMINAL_STATUSES)
            == self.total)
        self.forced = fleet.forced

        delivered = [r for r in reqs if r.status == "delivered"]
        self.unverified = sum(
            1 for r in delivered
            if r.cmd == CMD_ENCRYPT and r.verified is not True)
        self.cross_user = fleet.cross_user_total

        self.supervisor = {
            "rounds_run": fleet.rounds_run,
            "kills_detected": fleet.kills_detected,
            "wedges_detected": fleet.wedges_detected,
            "quarantines": fleet.quarantines,
            "respawns": fleet.respawns,
            "rebalances": fleet.rebalances,
            "shed": fleet.shed,
            "deferrals": fleet.deferrals,
            "retries": fleet.retries,
            "degraded_rounds": fleet.degraded_rounds,
            "forced_terminal": fleet.forced,
        }

        self.per_tenant: Dict[str, dict] = {}
        slos = fleet.cfg.slos
        for name in sorted(fleet.tenants):
            spec = fleet.tenants[name]
            mine = [r for r in reqs if r.tenant == name]
            done = [r for r in mine if r.status == "delivered"]
            lats = [r.latency for r in done if r.latency is not None]
            slo_class = "adversarial" if spec.adversarial else spec.tenant_class
            slo = slos[slo_class]
            goodput = (len(done) / len(mine)) if mine else 1.0
            p99 = sample_quantile(lats, 0.99)
            slo_ok = (goodput >= slo["goodput"]
                      and (p99 is not None and p99 <= slo["p99"]
                           if mine else True))
            self.per_tenant[name] = {
                "class": spec.tenant_class,
                "slo_class": slo_class,
                "adversarial": spec.adversarial,
                "submitted": len(mine),
                "delivered": len(done),
                "rejected": sum(1 for r in mine if r.status == "rejected"),
                "timed_out": sum(1 for r in mine
                                 if r.status == "timed_out"),
                "retries": sum(r.retries for r in mine),
                "p50": sample_quantile(lats, 0.50),
                "p95": sample_quantile(lats, 0.95),
                "p99": p99,
                "goodput": round(goodput, 4),
                "slo_p99": slo["p99"],
                "slo_goodput": slo["goodput"],
                "slo_ok": slo_ok,
            }

        self.slo_ok = all(t["slo_ok"] for t in self.per_tenant.values())
        self.chaos_ok = (
            fleet.kills_detected >= self.kills_injected
            and (fleet.wedges_detected >= 1 or self.wedges_injected == 0)
            and (fleet.quarantines >= 1 or self.wedges_injected == 0)
            and (fleet.respawns >= 1
                 or (self.kills_injected + self.wedges_injected) == 0)
            and (fleet.rebalances >= 1
                 or (self.kills_injected + self.wedges_injected) == 0))
        self.security_ok = (self.cross_user == 0 and self.unverified == 0
                            and self.ifc_ok is not False)

    def ok(self) -> bool:
        return (self.conservation_ok and self.forced == 0
                and self.slo_ok and self.chaos_ok and self.security_ok)

    def to_dict(self) -> dict:
        return {
            "ok": self.ok(),
            "seed": self.seed,
            "config": self.config,
            "trace": self.trace,
            "chaos": self.chaos,
            "totals": {"requests": self.total,
                       "by_status": self.by_status},
            "conservation_ok": self.conservation_ok,
            "per_tenant": self.per_tenant,
            "slo_ok": self.slo_ok,
            "supervisor": self.supervisor,
            "chaos_ok": self.chaos_ok,
            "security": {"cross_user_deliveries": self.cross_user,
                         "unverified_deliveries": self.unverified,
                         "ifc_ok": self.ifc_ok,
                         "ok": self.security_ok},
        }

    def render(self) -> str:
        sup = self.supervisor
        lines = [
            "Fleet gate "
            + ("PASS" if self.ok() else "FAIL"),
            f"  shards={self.config['shards']} "
            f"workers={self.config['workers']} "
            f"rounds={sup['rounds_run']} seed={self.seed}",
            f"  trace: {self.trace['arrivals']} arrivals "
            f"(digest {self.trace['digest']})",
            f"  requests: {self.total} total, "
            + ", ".join(f"{k}={v}"
                        for k, v in sorted(self.by_status.items()))
            + f" | conservation {'OK' if self.conservation_ok else 'VIOLATED'}"
            + (f" (forced={self.forced})" if self.forced else ""),
            f"  chaos: kills {sup['kills_detected']}/{self.kills_injected} "
            f"detected, wedges {sup['wedges_detected']}/"
            f"{self.wedges_injected}, quarantines {sup['quarantines']}, "
            f"respawns {sup['respawns']}, rebalances {sup['rebalances']} "
            f"-> {'OK' if self.chaos_ok else 'FAIL'}",
            f"  admission: shed={sup['shed']} deferrals={sup['deferrals']} "
            f"retries={sup['retries']} degraded_rounds="
            f"{sup['degraded_rounds']}",
            f"  security: cross_user={self.cross_user} "
            f"unverified={self.unverified} ifc_ok={self.ifc_ok} "
            f"-> {'OK' if self.security_ok else 'FAIL'}",
            "  per-tenant SLOs "
            + ("(all met):" if self.slo_ok else "(VIOLATIONS):"),
        ]
        for name, t in self.per_tenant.items():
            lines.append(
                f"    {name:<4} {t['slo_class']:<11} "
                f"{t['delivered']}/{t['submitted']} delivered "
                f"p99={t['p99']} (slo {t['slo_p99']:g}) "
                f"goodput={t['goodput']:.2f} (slo {t['slo_goodput']:g}) "
                + ("ok" if t["slo_ok"] else "VIOLATED"))
        return "\n".join(lines)

    def render_md(self) -> str:
        sup = self.supervisor
        lines = [
            "# Fleet serving gate",
            "",
            f"Verdict: **{'PASS' if self.ok() else 'FAIL'}** "
            f"(seed {self.seed}, {self.config['shards']} shards, "
            f"{self.config['workers']} workers, "
            f"{sup['rounds_run']} rounds)",
            "",
            "## Request conservation",
            "",
            f"- requests: {self.total}",
        ]
        for k, v in sorted(self.by_status.items()):
            lines.append(f"- {k}: {v}")
        lines += [
            f"- conservation: "
            f"{'OK' if self.conservation_ok else 'VIOLATED'}"
            + (f" — {self.forced} forced terminal" if self.forced else ""),
            "",
            "## Chaos recovery",
            "",
            f"- kills detected: {sup['kills_detected']} / "
            f"{self.kills_injected} injected",
            f"- wedges quarantined: {sup['wedges_detected']} / "
            f"{self.wedges_injected} injected",
            f"- respawns: {sup['respawns']}, rebalances: "
            f"{sup['rebalances']}, degraded rounds: "
            f"{sup['degraded_rounds']}",
            f"- verdict: {'OK' if self.chaos_ok else 'FAIL'}",
            "",
            "## Security under chaos",
            "",
            f"- cross-user deliveries: {self.cross_user}",
            f"- unverified ciphertexts: {self.unverified}",
            f"- static IFC check: {self.ifc_ok}",
            "",
            "## Per-tenant SLOs",
            "",
            "| tenant | class | delivered | p99 | p99 SLO | goodput "
            "| goodput SLO | verdict |",
            "|---|---|---|---|---|---|---|---|",
        ]
        for name, t in self.per_tenant.items():
            lines.append(
                f"| {name} | {t['slo_class']} "
                f"| {t['delivered']}/{t['submitted']} "
                f"| {t['p99']} | {t['slo_p99']:g} "
                f"| {t['goodput']:.2f} | {t['slo_goodput']:g} "
                f"| {'ok' if t['slo_ok'] else 'VIOLATED'} |")
        lines.append("")
        return "\n".join(lines)


def run_fleet_gate(seed: int = 2026, shards: int = 4,
                   horizon: int = 1536, tenants: int = 6,
                   workers: str = "process", backend: str = "compiled",
                   kills: int = 2, wedges: int = 1,
                   config: Optional[FleetConfig] = None,
                   check_ifc: bool = True) -> FleetReport:
    """One full fleet-under-chaos run: trace, chaos, serve, verdict."""
    cfg = config or FleetConfig(shards=shards, backend=backend,
                                workers=workers)
    specs = default_tenants(tenants, seed=seed)
    trace = generate_trace(specs, horizon, seed=seed)
    rounds = -(-horizon // cfg.cycles_per_round)
    chaos = ChaosSchedule.seeded(seed, rounds, cfg.shards,
                                 kills=kills, wedges=wedges)
    fleet = AcceleratorFleet(cfg, specs, seed=seed)
    report = fleet.run(trace, chaos)

    ifc_ok: Optional[bool] = None
    if check_ifc:
        from ..accel.common import LATTICE
        from ..accel.protected import AesAcceleratorProtected
        from ..hdl.elaborate import elaborate_shallow
        from ..ifc.checker import IfcChecker

        netlist = elaborate_shallow(AesAcceleratorProtected())
        ifc_ok = IfcChecker(netlist, LATTICE,
                            max_hypotheses=1 << 20).check().ok()
    # rebuild the verdict with the IFC leg included
    return FleetReport(fleet, trace, chaos, ifc_ok=ifc_ok)


def cmd_fleet(args) -> int:
    """``python -m repro fleet`` — the fleet-under-chaos CI gate."""
    from ..gate import gate_epilogue

    if args.smoke:
        shards, horizon, tenants, workers = 2, 512, 4, "inline"
    else:
        shards, horizon, tenants = args.shards, args.horizon, args.tenants
        workers = args.workers
    report = run_fleet_gate(
        seed=args.seed, shards=shards, horizon=horizon,
        tenants=tenants, workers=workers, backend=args.backend,
        kills=args.kills, wedges=args.wedges)
    return gate_epilogue(
        args, ok=report.ok(), payload=report.to_dict(),
        render=report.render,
        artifacts={"fleet_report.json": report.to_dict(),
                   "fleet_report.md": report.render_md})
