"""Differential fuzzing of the batched backend.

The batched backend re-implements the whole netlist evaluator on numpy
vectors, with enough codegen tricks (byte slabs, mask-multiplied muxes,
fused masked commits) that "looks right" is worthless.  The ground truth
is the two scalar backends: for random stimulus, **every** signal —
combinational and registered — must match the interpreter and the
compiled backend bit-for-bit, cycle by cycle, in every lane.
"""

import random

import pytest

np = pytest.importorskip("numpy")

from repro.accel.mini import MiniTaggedPipeline
from repro.accel.protected import AesAcceleratorProtected
from repro.hdl import HdlError, Simulator, elaborate
from repro.hdl.sim import BatchSimulator
from repro.hdl.sim.batched import batch_cache_stats, clear_batch_cache
from repro.hdl.sim.compiler import clear_compile_cache, compile_cache_stats


def _fuzz_against_scalar_backends(design, cycles, lanes, seed):
    """Drive all three backends with one random stream; compare everything."""
    nl = elaborate(design)
    interp = Simulator(nl, backend="interp")
    compiled = Simulator(nl, backend="compiled")
    batched = BatchSimulator(nl, lanes=lanes)

    rng = random.Random(seed)
    inputs = list(nl.inputs)
    watched = list(nl.comb) + list(nl.regs)
    for cyc in range(cycles):
        for sig in inputs:
            v = rng.getrandbits(sig.width)
            interp.poke(sig, v)
            compiled.poke(sig, v)
            batched.poke_all(sig, v)
        for sig in watched:
            vi = interp.peek(sig)
            vc = compiled.peek(sig)
            vb = batched.peek_all(sig)
            assert vi == vc and all(v == vi for v in vb), (
                f"cycle {cyc}, {sig.path}: interp={vi:#x} compiled={vc:#x} "
                f"batched={vb}"
            )
        interp.step()
        compiled.step()
        batched.step()


class TestDifferentialFuzz:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mini_pipeline_all_signals(self, seed):
        _fuzz_against_scalar_backends(MiniTaggedPipeline(), cycles=100,
                                      lanes=3, seed=seed)

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_protected_accelerator_all_signals(self, seed):
        _fuzz_against_scalar_backends(AesAcceleratorProtected(), cycles=100,
                                      lanes=2, seed=seed)


class TestLaneIndependence:
    def test_lanes_track_independent_scalar_runs(self):
        """Each lane with its own stimulus == its own scalar simulator."""
        lanes = 4
        nl = elaborate(MiniTaggedPipeline())
        batched = BatchSimulator(nl, lanes=lanes)
        refs = [Simulator(nl, backend="compiled") for _ in range(lanes)]
        rngs = [random.Random(100 + ln) for ln in range(lanes)]

        inputs = list(nl.inputs)
        watched = list(nl.comb) + list(nl.regs)
        for cyc in range(60):
            for sig in inputs:
                for ln in range(lanes):
                    v = rngs[ln].getrandbits(sig.width)
                    batched.poke(sig, ln, v)
                    refs[ln].poke(sig, v)
            for sig in watched:
                got = batched.peek_all(sig)
                want = [refs[ln].peek(sig) for ln in range(lanes)]
                assert got == want, f"cycle {cyc}, {sig.path}"
            batched.step()
            for ref in refs:
                ref.step()

    def test_poke_all_accepts_per_lane_sequence(self):
        nl = elaborate(MiniTaggedPipeline())
        bs = BatchSimulator(nl, lanes=3)
        sig = next(iter(nl.inputs))
        bs.poke_all(sig, [1, 0, 1])
        assert bs.peek_all(sig) == [1, 0, 1]
        assert bs.peek(sig, 1) == 0


class TestBatchCompileCache:
    def test_batched_programs_shared_by_fingerprint(self):
        clear_batch_cache()
        nl1 = elaborate(MiniTaggedPipeline())
        nl2 = elaborate(MiniTaggedPipeline())
        assert nl1.fingerprint() == nl2.fingerprint()
        b1 = BatchSimulator(nl1, lanes=1)
        stats = batch_cache_stats()
        assert stats["misses"] == 1 and stats["entries"] == 1
        # same structure, different lane count: code is reused, only the
        # per-instance arrays are rebuilt
        b2 = BatchSimulator(nl2, lanes=8)
        stats = batch_cache_stats()
        assert stats["hits"] == 1 and stats["entries"] == 1
        assert b1._be.kernel.source == b2._be.kernel.source

    def test_distinct_designs_get_distinct_entries(self):
        clear_batch_cache()
        BatchSimulator(elaborate(MiniTaggedPipeline()), lanes=1)
        fp_mini = elaborate(MiniTaggedPipeline()).fingerprint()
        fp_prot = elaborate(AesAcceleratorProtected()).fingerprint()
        assert fp_mini != fp_prot

    def test_compiled_backend_cache_counts_hits(self):
        clear_compile_cache()
        Simulator(elaborate(MiniTaggedPipeline()), backend="compiled")
        Simulator(elaborate(MiniTaggedPipeline()), backend="compiled")
        stats = compile_cache_stats()
        assert stats["misses"] == 1 and stats["hits"] == 1


class TestBatchSimulatorApi:
    def setup_method(self):
        self.nl = elaborate(MiniTaggedPipeline())
        self.input = next(iter(self.nl.inputs))
        self.non_input = next(iter(self.nl.comb))

    def test_poke_non_input_raises(self):
        bs = BatchSimulator(self.nl, lanes=2)
        with pytest.raises(HdlError):
            bs.poke(self.non_input, 0, 1)
        with pytest.raises(HdlError):
            bs.poke_all(self.non_input, 1)

    def test_engine_poke_non_input_raises_on_every_backend(self):
        # regression for the input-set membership check: it must use the
        # hoisted frozenset, not accidentally accept any known signal
        for backend in ("interp", "compiled", "batched"):
            sim = Simulator(self.nl, backend=backend)
            with pytest.raises(HdlError):
                sim.poke(self.non_input, 1)

    def test_poke_oversized_value_raises(self):
        bs = BatchSimulator(self.nl, lanes=1)
        with pytest.raises(ValueError):
            bs.poke(self.input, 0, 1 << self.input.width)

    def test_bad_lane_counts_rejected(self):
        with pytest.raises(ValueError):
            BatchSimulator(self.nl, lanes=0)
        with pytest.raises(ValueError):
            Simulator(self.nl, backend="compiled", lanes=4)

    def test_reset_restores_register_inits(self):
        bs = BatchSimulator(self.nl, lanes=2)
        rng = random.Random(9)
        for _ in range(10):
            for sig in self.nl.inputs:
                bs.poke_all(sig, rng.getrandbits(sig.width))
            bs.step()
        bs.reset()
        for sig in self.nl.inputs:
            bs.poke_all(sig, 0)
        for reg in self.nl.regs:
            assert bs.peek_all(reg) == [reg.init] * 2
