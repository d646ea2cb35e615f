"""The cycle snapshot shared by the power, coverage and profile reducers."""

import pytest

from repro.hdl import Module, Simulator, mux, when
from repro.hdl.sim.core import ScalarState
from repro.obs.coverage import CoverageCollector
from repro.obs.power import PowerCollector
from repro.obs.profile import SimProfiler

BACKENDS = ("interp", "compiled", "batched")
LANES = 3
CYCLES = 14


class Bus(Module):
    """A counter, a wide (two-limb) accumulator and a written RAM."""

    def __init__(self):
        super().__init__("bus")
        self.en = self.input("en", 1)
        self.d = self.input("d", 8)
        self.w = self.input("w", 100)
        self.addr = self.input("addr", 4)
        self.cnt = self.reg("cnt", 8)
        self.acc = self.reg("acc", 100)
        self.m = self.mem("m", 16, 8)
        self.q = self.output("q", 8)
        self.cnt <<= mux(self.en, self.cnt + 1, self.cnt)
        self.acc <<= self.acc ^ self.w
        self.q <<= self.m.read(self.addr)
        with when(self.en):
            self.m.write(self.addr, self.d ^ self.cnt)


def _sim(backend):
    if backend == "batched":
        pytest.importorskip("numpy")
        return Simulator(Bus(), backend=backend, lanes=LANES)
    return Simulator(Bus(), backend=backend)


def _drive(sim):
    for cyc in range(CYCLES):
        sim.poke("bus.en", int(cyc % 3 != 0))
        sim.poke("bus.d", (0x5A + 7 * cyc) & 0xFF)
        sim.poke("bus.addr", (3 * cyc) % 16)
        sim.poke("bus.w", (0x9E3779B97F4A7C15 << 30 | cyc) >> (cyc % 5))
        if cyc == 5 and sim.lanes > 1:
            sim.lanes_sim.poke("bus.d", 1, 0xFF)  # lanes diverge
        sim.step()


def _run(backend, kinds):
    """Drive one simulator with the named collectors attached; returns
    every output the collectors produce."""
    sim = _sim(backend)
    cols = {}
    if "power" in kinds:
        cols["power"] = PowerCollector(sim)
        cols["power"].start_trace()
    if "coverage" in kinds:
        cols["coverage"] = CoverageCollector(sim)
    if "profile" in kinds:
        cols["profile"] = SimProfiler(sim, window=4)
    _drive(sim)
    out = {}
    if "power" in kinds:
        col = cols["power"]
        col.detach()
        out["power"] = (col.traces_hd, col.traces_weighted, col.group_hd)
    if "coverage" in kinds:
        out["coverage"] = cols["coverage"].finish().fingerprint()
    if "profile" in kinds:
        prof = cols["profile"]
        prof.detach()
        heat = prof.report().to_heatmap()
        # measured wall time is the only field that differs run to run
        heat.pop("wall_seconds")
        for stats in heat["modules"].values():
            stats.pop("est_wall_us")
        out["profile"] = heat
    return out


def _count_captures(monkeypatch):
    """Patch every backend state's snapshot capture to count its calls."""
    from repro.hdl.sim.batched import LaneState

    calls = []
    for cls in (ScalarState, LaneState):
        orig = cls._capture

        def counted(self, orig=orig):
            calls.append(self.epoch)
            return orig(self)
        monkeypatch.setattr(cls, "_capture", counted)
    return calls


@pytest.mark.parametrize("backend", BACKENDS)
class TestSnapshotBus:
    def test_one_snapshot_per_cycle_with_three_collectors(
            self, backend, monkeypatch):
        if backend == "batched":
            pytest.importorskip("numpy")
        calls = _count_captures(monkeypatch)
        _run(backend, ("power", "coverage", "profile"))
        # one per stepped cycle, plus the coverage collector's final look
        assert len(calls) == CYCLES + 1
        assert len(set(calls)) == len(calls)

    def test_xor_computed_once_per_cycle(self, backend):
        sim = _sim(backend)
        sim.poke("bus.w", 5)
        first = sim.snapshot()
        sim.step()
        snap = sim.snapshot()
        assert snap is sim.snapshot()
        assert snap.prev is first
        assert snap.diff(first) is snap.diff(first)

    def test_each_collector_alone_matches_all_together(self, backend):
        together = _run(backend, ("power", "coverage", "profile"))
        for kind in ("power", "coverage", "profile"):
            assert _run(backend, (kind,))[kind] == together[kind], kind

    def test_no_snapshot_work_without_watchers(self, backend, monkeypatch):
        if backend == "batched":
            pytest.importorskip("numpy")
        calls = _count_captures(monkeypatch)
        sim = _sim(backend)
        _drive(sim)
        col = PowerCollector(sim)
        col.start_trace()
        col.detach()
        _drive(sim)
        assert calls == []

    def test_stale_snapshot_refuses_memory_reads(self, backend):
        sim = _sim(backend)
        snap = sim.snapshot()
        sim.poke("bus.en", 1)
        with pytest.raises(Exception, match="superseded"):
            snap.mems
