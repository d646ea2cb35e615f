import pytest

from repro.accel.common import LATTICE, user_label
from repro.accel.key_expand_unit import DEFAULT_MASTER_KEY, KeyExpandUnit
from repro.aes import expand_key, round_key_as_int
from repro.hdl import Simulator, elaborate
from repro.ifc.checker import IfcChecker


def _expand(sim, slot, key, tag):
    sim.poke("keyexp.start", 1)
    sim.poke("keyexp.slot", slot)
    sim.poke("keyexp.key", key)
    sim.poke("keyexp.key_tag", tag)
    sim.step()
    sim.poke("keyexp.start", 0)
    return sim.run_until("keyexp.ready", 1, 200) + 1


class TestFunctional:
    def test_round_keys_match_reference(self):
        sim = Simulator(KeyExpandUnit(protected=True))
        key = 0x2B7E151628AED2A6ABF7158809CF4F3C
        _expand(sim, 2, key, user_label("p2").encode())
        want = [round_key_as_int(rk) for rk in expand_key(key, 128)]
        got = [sim.peek_mem("keyexp.rk_mem_2", i) for i in range(11)]
        assert got == want

    def test_master_key_preloaded(self):
        sim = Simulator(KeyExpandUnit(protected=True))
        want = [round_key_as_int(rk) for rk in
                expand_key(DEFAULT_MASTER_KEY, 128)]
        got = [sim.peek_mem("keyexp.rk_mem_0", i) for i in range(11)]
        assert got == want

    def test_constant_time(self):
        cycles = set()
        for key in (0, (1 << 128) - 1, 0xDEADBEEF):
            sim = Simulator(KeyExpandUnit(protected=True))
            cycles.add(_expand(sim, 1, key, 0x11))
        assert len(cycles) == 1

    def test_flawed_variant_is_key_dependent(self):
        def t(key):
            sim = Simulator(KeyExpandUnit(protected=False, timing_flaw=True))
            return _expand(sim, 1, key, 0x11)

        assert t(0) != t((1 << 128) - 1)

    def test_slot_tag_updated(self):
        sim = Simulator(KeyExpandUnit(protected=True))
        tag = user_label("p3").encode()
        _expand(sim, 3, 0x1234, tag)
        assert sim.peek("keyexp.slot_tag_3") == tag

    def test_busy_during_expansion(self):
        sim = Simulator(KeyExpandUnit(protected=True))
        sim.poke("keyexp.start", 1)
        sim.poke("keyexp.slot", 1)
        sim.poke("keyexp.key", 7)
        sim.poke("keyexp.key_tag", 0x11)
        sim.step()
        sim.poke("keyexp.start", 0)
        assert sim.peek("keyexp.busy") == 1
        sim.step(15)
        assert sim.peek("keyexp.busy") == 0

    def test_rekey_guard_blocks_stale_expansion(self):
        """If the slot is re-tagged mid-expansion the guarded writes stop
        (fail-secure) rather than mixing keys across owners."""
        sim = Simulator(KeyExpandUnit(protected=True))
        sim.poke("keyexp.start", 1)
        sim.poke("keyexp.slot", 1)
        sim.poke("keyexp.key", 0xAAAA)
        sim.poke("keyexp.key_tag", user_label("p1").encode())
        sim.step()
        sim.poke("keyexp.start", 0)
        sim.step(2)
        # backdoor: another owner grabs the slot tag mid-flight
        sim_state_tag = user_label("p2").encode()
        # (simulate via the register directly)
        reg = sim.netlist.signal_by_path("keyexp.slot_tag_1")
        sim._be.poke(reg, sim_state_tag)  # the backend writes any state slot
        before = [sim.peek_mem("keyexp.rk_mem_1", i) for i in range(11)]
        sim.step(12)
        after = [sim.peek_mem("keyexp.rk_mem_1", i) for i in range(11)]
        assert before == after  # no further writes landed


class TestStatic:
    def test_protected_unit_verifies(self):
        report = IfcChecker(
            elaborate(KeyExpandUnit(protected=True)), LATTICE
        ).check()
        assert report.ok(), report.summary()

    def test_flawed_unit_flagged_on_timing(self):
        """Fig. 6: the data-dependent schedule shows up as label errors on
        the public busy/ready signals."""
        report = IfcChecker(
            elaborate(KeyExpandUnit(protected=True, timing_flaw=True)),
            LATTICE,
        ).check()
        assert not report.ok()
        sinks = " ".join(report.distinct_sinks())
        assert "busy" in sinks or "ready" in sinks
