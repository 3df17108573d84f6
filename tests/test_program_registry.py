"""Program containers, opcode histograms, kernel registry."""

import pytest

from repro.errors import IsaError
from repro.isa.instructions import Instr, Opcode, fma
from repro.isa.program import KernelProgram, LoopProgram, opcode_histogram
from repro.kernels.registry import KernelRegistry, registry_for
from repro.kernels.spec import KernelSpec
from repro.errors import KernelError


class TestLoopProgram:
    def test_instruction_count(self):
        body = [fma("vc", "va", "vb")]
        block = LoopProgram([], body, trip=10, teardown=[Instr(Opcode.SBR)])
        assert block.n_instructions == 10 + 1

    def test_negative_trip_rejected(self):
        with pytest.raises(IsaError):
            LoopProgram([], [], trip=-1, teardown=[])


class TestKernelProgram:
    def test_registers_used_counts_distinct(self):
        body = [fma("vc0", "va", "vb"), fma("vc1", "va", "vb")]
        prog = KernelProgram([LoopProgram([], body, 1, [])])
        sregs, vregs = prog.registers_used()
        assert sregs == 0
        assert vregs == 4  # vc0, vc1, va, vb

    def test_meta_roundtrip(self, registry):
        kern = registry.ftimm(6, 64, 64)
        assert kern.program.meta["k_u"] == 2
        assert kern.program.meta["name"] == "ftimm"

    def test_opcode_histogram(self):
        body = [fma("vc", "va", "vb"), fma("vc2", "va", "vb"), Instr(Opcode.SBR)]
        hist = opcode_histogram(body)
        assert hist[Opcode.VFMULAS32] == 2
        assert hist[Opcode.SBR] == 1


class TestKernelSpec:
    def test_v_n(self):
        assert KernelSpec(6, 96, 64).v_n == 3
        assert KernelSpec(6, 64, 64).v_n == 2
        assert KernelSpec(6, 33, 64).v_n == 2
        assert KernelSpec(6, 32, 64).v_n == 1

    def test_padded_n(self):
        assert KernelSpec(6, 33, 64).padded_n == 64
        assert KernelSpec(6, 96, 64).padded_n == 96

    def test_flops(self):
        assert KernelSpec(2, 3, 4).flops == 48

    @pytest.mark.parametrize("m,n,k", [(0, 32, 1), (1, 0, 1), (1, 97, 1), (1, 32, 0)])
    def test_invalid_specs_rejected(self, m, n, k):
        with pytest.raises(KernelError):
            KernelSpec(m, n, k)

    def test_str(self):
        assert str(KernelSpec(6, 64, 512)) == "6x64x512"


class TestRegistry:
    def test_ftimm_cached(self, core):
        reg = KernelRegistry(core)
        a = reg.ftimm(6, 64, 64)
        assert reg.ftimm(6, 64, 64) is a
        assert reg.generated_count == 1

    def test_tgemm_cached(self, core):
        reg = KernelRegistry(core)
        a = reg.tgemm(6, 64, 64)
        assert reg.tgemm(6, 64, 64) is a

    def test_distinct_specs_distinct_kernels(self, core):
        reg = KernelRegistry(core)
        assert reg.ftimm(6, 64, 64) is not reg.ftimm(6, 64, 128)

    def test_clear(self, core):
        reg = KernelRegistry(core)
        reg.ftimm(6, 64, 64)
        reg.clear()
        assert reg.generated_count == 0

    def test_registry_for_is_per_config(self, core):
        assert registry_for(core) is registry_for(core)


class TestRegistryCacheLevels:
    def test_registry_for_keyed_by_value(self, core):
        # regression: keying by id(core) let a collected config's reused id
        # hand a fresh machine another machine's kernels
        import dataclasses

        clone = dataclasses.replace(core)
        assert clone is not core
        assert registry_for(clone) is registry_for(core)

    def test_memory_only_registry(self, core):
        from repro.kernels.registry import KernelRegistry

        reg = KernelRegistry(core)
        kern = reg.ftimm(6, 64, 64)
        assert kern.cycles > 0

    def test_memory_hit_counters(self, core):
        from repro.kernels.registry import KernelRegistry
        from repro.obs import collecting

        reg = KernelRegistry(core)
        with collecting() as obs:
            reg.ftimm(6, 64, 64)
            reg.ftimm(6, 64, 64)
        assert obs.counter("kernels/cache/mem_miss").value == 1
        assert obs.counter("kernels/cache/mem_hit").value == 1
