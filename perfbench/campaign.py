"""``campaign``: the gate-campaign path on 64 batched lanes.

The protected accelerator runs on the batched backend with synthesized
shadow tags and with :class:`~repro.obs.power.PowerCollector` and
:class:`~repro.obs.coverage.CoverageCollector` attached.  Every lane has
its own two users' keys and its own plaintexts; the lanes run in
lockstep, because the protected design's timing does not depend on
data.  Each round sends seeded encrypt/decrypt bursts, then one
cross-user key-misuse attempt per lane (user 1 encrypting with user 0's
slot), which must be refused.

Checks per round: every lane's blocks against that lane's keys; no tag
violation on legitimate traffic, and the misuse flagged by the tag plane
and by the suppressed counter on every lane; no block released under
the victim's key; and, on sampled lanes and cycles, the power trace
point equal to a Hamming distance computed here from
``Simulator.values()``.
"""

from __future__ import annotations

import random
from time import perf_counter

from . import reference

BURST_LEN = (2, 6)


class Campaign:
    name = "campaign"

    def __init__(self, seed: int, smoke: bool = False, flip: bool = False):
        from repro.accel.common import (CMD_CONFIG, CMD_DECRYPT, CMD_ENCRYPT,
                                        CMD_LOAD_KEY, LATTICE)
        from repro.accel.driver import make_users
        from repro.accel.protected import AesAcceleratorProtected
        from repro.hdl.sim import Simulator
        from repro.obs.coverage import CoverageCollector
        from repro.obs.power import PowerCollector

        self.flip = flip
        self._out = []
        self.lanes = lanes = 4 if smoke else 64
        per_lane = 4 if smoke else 16
        rng = random.Random(f"campaign:{seed}")
        users = make_users()
        self.tags = (users["u0"], users["u1"])
        self.enc, self.dec = CMD_ENCRYPT, CMD_DECRYPT
        self.sim = Simulator(AesAcceleratorProtected(), backend="batched",
                             lanes=lanes, tag_tracking=True, lattice=LATTICE)
        self.ls = self.sim.lanes_sim
        self.sim.poke("aes.out_ready", 1)
        # slot u+1 belongs to user u, with a seeded key per lane
        self.keys = [[rng.getrandbits(128) for _ in range(lanes)]
                     for _ in self.tags]
        for u, tag in enumerate(self.tags):
            for cell in (2 * u + 2, 2 * u + 3):
                self._issue(CMD_CONFIG, users["supervisor"], addr=8 + cell,
                            data=tag)
        for u, tag in enumerate(self.tags):
            for word in (0, 1):
                shift = 64 * (1 - word)
                self._issue(CMD_LOAD_KEY, tag, slot=u + 1, word=word,
                            data=[(k >> shift) & (2 ** 64 - 1)
                                  for k in self.keys[u]])
            self._step()
            self._step()
            while self.sim.peek("aes.pipe.kx_busy"):
                self._step()
        self.power = PowerCollector(self.sim)
        self.coverage = CoverageCollector(self.sim)
        self.bursts = self._plan(rng, per_lane)
        self.per_lane = sum(len(b[2]) for b in self.bursts)
        self.misuse = [rng.getrandbits(128) for _ in range(lanes)]
        self.sample_lanes = sorted(rng.sample(range(lanes), 2))
        self.sample_points = sorted(rng.sample(range(per_lane), 3))
        sites = self.sim.tags.plan.sites
        # downgrade sites are watched every cycle (a suppressed misuse
        # arms one while it sits at the exit); flow sites by their counts
        self.markers = [s.now for s in sites if s.kind == "downgrade"]
        self.flows = [s.count for s in sites if s.kind != "downgrade"]
        self._fired = []
        self._capture = {}

    def _plan(self, rng, per_lane):
        """Seeded bursts; the last one (two blocks) follows the misuse
        attempt, so no stale misuse block stays at the pipeline exit."""
        bursts, blocks = [], 0
        while blocks < per_lane:
            u = rng.randrange(2)
            cmd = self.dec if rng.random() < 0.5 else self.enc
            ref = reference.decrypt if cmd == self.dec else reference.encrypt
            left = per_lane - blocks
            n = left if left <= 2 else min(rng.randint(*BURST_LEN), left - 2)
            rows = []
            for _ in range(n):
                data = [rng.getrandbits(128) for _ in range(self.lanes)]
                rows.append((data, [ref(self.keys[u][ln], d)
                                    for ln, d in enumerate(data)]))
            bursts.append((u, cmd, rows))
            blocks += n
        return bursts

    # -- lockstep host interface ---------------------------------------------------
    def _step(self):
        ls = self.ls
        if self._trace_cycle is not None:
            i = self.sim.cycle - self._trace_cycle
            if i in self._capture_at:
                for lane in self.sample_lanes:
                    self._capture[(i, lane)] = ls.values(lane)
        if self._trace_cycle is not None:
            for sig in self.markers:
                if any(ls.peek_all(sig)):
                    self._fired.append(self.sim.cycle)
                    break
        if any(ls.peek_all("aes.out_valid")):
            self._out.append((self.sim.cycle, ls.peek_all("aes.out_valid"),
                              ls.peek_all("aes.out_tag"),
                              ls.peek_all("aes.out_data")))
        self.sim.step()

    _trace_cycle = None
    _capture_at = ()

    def _issue(self, cmd, user, slot=0, word=0, addr=0, data=0):
        sim = self.sim
        for sig, v in (("in_cmd", cmd), ("in_user", user), ("in_slot", slot),
                       ("in_word", word), ("in_addr", addr)):
            sim.poke(f"aes.{sig}", v)
        if isinstance(data, int):
            sim.poke("aes.in_data", data)
        else:
            self.ls.poke_all("aes.in_data", data)
        sim.poke("aes.in_valid", 1)
        while not sim.peek("aes.in_ready"):
            self._step()
        self._step()
        sim.poke("aes.in_valid", 0)

    def _violations(self):
        totals = [0] * self.lanes
        for sig in self.flows:
            for lane, v in enumerate(self.ls.peek_all(sig)):
                totals[lane] += v
        return totals

    # -- one round -------------------------------------------------------------------
    def round(self) -> dict:
        sim, ls, lanes = self.sim, self.ls, self.lanes
        errors = []
        failed = 0
        latencies = []
        t0 = perf_counter()
        c0 = sim.cycle
        self._out = []
        self._released = []
        self._capture = {}
        self._trace_cycle = c0
        self._capture_at = {p + d for p in self.sample_points for d in (0, 1)}
        self.power.start_trace()
        before = self._violations()
        suppressed0 = ls.peek_all("aes.suppressed_count")
        inflight = []   # (expected per lane, burst start, user)
        reader = None

        def follow():
            nonlocal reader
            want = inflight[0][2] if inflight else 1
            if want != reader:
                reader = want
                sim.poke("aes.rd_user", self.tags[want])

        def collect():
            nonlocal failed
            self._released.extend(self._out)
            for cycle, valid, tag, data in self._out:
                if not all(valid):
                    errors.append(f"lanes out of lockstep at cycle {cycle}")
                if not inflight:
                    errors.append(f"unexpected block at cycle {cycle}")
                    continue
                expected, start, user = inflight.pop(0)
                for lane in range(lanes):
                    got = data[lane]
                    if self.flip:
                        got ^= 1
                        self.flip = False
                    if got != expected[lane]:
                        failed += 1
                latencies.extend([cycle - start] * lanes)
            self._out = []

        misuse_at = None
        for i, (u, cmd, rows) in enumerate(self.bursts):
            if i == len(self.bursts) - 1:
                # the cross-user misuse: user 1 encrypts with user 0's slot
                self._issue(self.enc, self.tags[1], slot=1, data=self.misuse)
                misuse_at = sim.cycle
                collect()
                flush_start = len(latencies)
            start = sim.cycle
            for data, expected in rows:
                inflight.append((expected, start, u))
                follow()
                self._issue(cmd, self.tags[u], slot=u + 1, data=data)
                collect()
        while inflight:
            follow()
            self._step()
            collect()
        # the first flush block left right behind the misuse attempt
        flush_out = start + latencies[flush_start]
        if self._violations() != before:
            errors.append("flow violation in the tag plane")
        fired = sorted(set(self._fired))
        self._fired = []
        if not fired:
            errors.append("misuse not flagged by the tag plane")
        elif (fired[0] <= misuse_at or fired[-1] >= flush_out
              or fired != list(range(fired[0], fired[-1] + 1))):
            errors.append(f"tag violation on legitimate traffic "
                          f"(cycles {fired[0] - c0}..{fired[-1] - c0})")
        stolen = [reference.encrypt(self.keys[0][ln], self.misuse[ln])
                  for ln in range(lanes)]
        released = sum(1 for _c, valid, _t, data in self._released
                       for ln in range(lanes)
                       if valid[ln] and data[ln] == stolen[ln])
        self._released = []
        suppressed = ls.peek_all("aes.suppressed_count")
        if any(s != (s0 + 1) & 0xFF for s, s0 in zip(suppressed,
                                                     suppressed0)):
            errors.append("misuse not suppressed on every lane")
        self._trace_cycle = None
        wall = perf_counter() - t0
        errors.extend(self._check_power())
        return {"attempted": lanes * (self.per_lane + 1),
                "failed": failed + released,
                "blocks": lanes * self.per_lane - failed,
                "cycles": sim.cycle - c0, "latencies": latencies,
                "wall": wall, "errors": errors}

    def _check_power(self):
        """Sampled power points against Hamming distances computed here."""
        trace = self.power.traces_hd[-1]
        errors = []
        for p in self.sample_points:
            for lane in self.sample_lanes:
                a = self._capture.get((p, lane))
                b = self._capture.get((p + 1, lane))
                if a is None or b is None:
                    errors.append(f"power sample {p} not captured")
                    continue
                hd = sum(reference.popcount(x ^ y) for x, y in zip(a, b))
                if trace[lane][p] != hd:
                    errors.append(f"power trace lane {lane} point {p}: "
                                  f"{trace[lane][p]} != {hd}")
        return errors
