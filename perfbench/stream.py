"""``stream``: one protected accelerator kept full by back-to-back bursts.

Three users hold seeded keys in slots 1-3 and send encrypt and decrypt
bursts through :class:`~repro.accel.driver.AcceleratorDriver` on the
compiled backend.  Every few bursts one user reloads its key (after the
pipeline drains).  The reader always polls as the owner of the oldest
block in flight, so the pipeline never stalls.

A round starts by reloading the three initial keys, so every round
issues the same commands from the same state and its simulated figures
repeat exactly.
"""

from __future__ import annotations

import random
from collections import defaultdict, deque
from time import perf_counter

from . import reference

USERS = ("u0", "u1", "u2")
RELOAD_EVERY = 6          # bursts between key reloads
BURST_LEN = (4, 32)       # inclusive range of blocks per burst


class Stream:
    name = "stream"

    def __init__(self, seed: int, smoke: bool = False, flip: bool = False):
        from repro.accel.common import CMD_DECRYPT, CMD_ENCRYPT
        from repro.accel.driver import AcceleratorDriver, make_users
        from repro.accel.protected import AesAcceleratorProtected

        self.flip = flip
        rng = random.Random(f"stream:{seed}")
        tags = make_users()
        self.tags = [tags[u] for u in USERS]
        self.keys0 = [rng.getrandbits(128) for _ in USERS]
        self.drv = AcceleratorDriver(AesAcceleratorProtected(),
                                     backend="compiled")
        for i, tag in enumerate(self.tags):
            self.drv.allocate_slot(i + 1, tag)
            self.drv.load_key(tag, i + 1, self.keys0[i])
        self.ops = self._plan(rng, 64 if smoke else 1024,
                              CMD_ENCRYPT, CMD_DECRYPT)
        self.blocks = sum(len(op[3]) for op in self.ops if op[0] == "burst")

    def _plan(self, rng, target, enc, dec):
        """Seeded round: key reloads and bursts of (data, expected)."""
        keys = list(self.keys0)
        ops = [("reload", u, keys[u]) for u in range(len(USERS))]
        blocks = bursts = 0
        while blocks < target:
            if bursts and bursts % RELOAD_EVERY == 0:
                u = rng.randrange(len(USERS))
                keys[u] = rng.getrandbits(128)
                ops.append(("reload", u, keys[u]))
            u = rng.randrange(len(USERS))
            cmd = dec if rng.random() < 0.5 else enc
            ref = reference.decrypt if cmd == dec else reference.encrypt
            data = [rng.getrandbits(128)
                    for _ in range(rng.randint(*BURST_LEN))]
            ops.append(("burst", u, cmd,
                        [(d, ref(keys[u], d)) for d in data]))
            blocks += len(data)
            bursts += 1
        return ops

    def round(self) -> dict:
        drv = self.drv
        sim = drv.sim
        tags = self.tags
        inflight = deque()   # (expected, burst start cycle, position, user)
        by_pos = defaultdict(set)
        latencies = []
        failed = 0
        errors = []
        reader = [None]

        def follow():
            if inflight and inflight[0][3] != reader[0]:
                reader[0] = inflight[0][3]
                drv.set_reader(tags[reader[0]])

        def collect():
            nonlocal failed
            for resp in drv.take_responses():
                if not inflight:
                    errors.append(f"unexpected block at cycle {resp.cycle}")
                    continue
                expected, start, pos, user = inflight.popleft()
                data = resp.data
                if self.flip:
                    data ^= 1
                    self.flip = False
                if data != expected or resp.tag & 0xF != tags[user] & 0xF:
                    failed += 1
                latencies.append(resp.cycle - start)
                by_pos[pos].add(resp.cycle - start)

        def drain():
            while inflight:
                follow()
                drv.step()
                collect()

        t0 = perf_counter()
        c0 = sim.cycle
        for op in self.ops:
            if op[0] == "reload":
                drain()
                _, u, key = op
                drv.load_key(tags[u], u + 1, key)
                collect()
                continue
            _, u, cmd, blocks = op
            start = sim.cycle
            for pos, (data, expected) in enumerate(blocks):
                inflight.append((expected, start, pos, u))
                follow()
                drv.issue(cmd, tags[u], slot=u + 1, data=data)
                collect()
        drain()
        wall = perf_counter() - t0
        spread = {p: sorted(v) for p, v in by_pos.items() if len(v) > 1}
        if spread:
            errors.append(f"latency depends on data or key at burst "
                          f"positions {sorted(spread)[:5]}")
        return {"attempted": self.blocks, "failed": failed,
                "blocks": self.blocks - failed, "cycles": sim.cycle - c0,
                "latencies": latencies, "wall": wall, "errors": errors}
