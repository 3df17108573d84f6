"""The op-stream IR: builder dependency tracking and plan validation."""

import pytest

from repro.core.plans import GemmExecution, Op, OpKind, OpStreamBuilder
from repro.core.shapes import GemmShape
from repro.errors import PlanError
from repro.hw.dma import DmaDescriptor
from repro.hw.memory import MemKind

from conftest import kernel_cycles_by_core


def desc(tag="x"):
    return DmaDescriptor(MemKind.DDR, MemKind.AM, rows=4, row_bytes=64, tag=tag)


class TestBuilder:
    def test_first_fill_has_no_deps(self, cluster):
        b = OpStreamBuilder(cluster.n_cores)
        idx = b.dma(0, desc(), buffer="B_a", slot=0)
        assert b.core_ops[0][idx].deps == ()

    def test_kernel_depends_on_producer(self, cluster):
        b = OpStreamBuilder(cluster.n_cores)
        fill = b.dma(0, desc(), buffer="B_a", slot=0)
        kern = b.kernel(0, 100, 200, reads=(("B_a", 0),))
        assert fill in b.core_ops[0][kern].deps

    def test_refill_depends_on_last_consumer(self, cluster):
        b = OpStreamBuilder(cluster.n_cores)
        b.dma(0, desc(), buffer="B_a", slot=0)
        kern = b.kernel(0, 100, 200, reads=(("B_a", 0),))
        refill = b.dma(0, desc(), buffer="B_a", slot=0)
        assert kern in b.core_ops[0][refill].deps

    def test_slots_are_independent(self, cluster):
        b = OpStreamBuilder(cluster.n_cores)
        b.dma(0, desc(), buffer="B_a", slot=0)
        b.kernel(0, 100, 200, reads=(("B_a", 0),))
        refill_other = b.dma(0, desc(), buffer="B_a", slot=1)
        assert b.core_ops[0][refill_other].deps == ()

    def test_cores_are_independent(self, cluster):
        b = OpStreamBuilder(cluster.n_cores)
        b.dma(0, desc(), buffer="B_a", slot=0)
        b.kernel(0, 100, 200, reads=(("B_a", 0),))
        other = b.dma(1, desc(), buffer="B_a", slot=0)
        assert b.core_ops[1][other].deps == ()

    def test_explicit_consume(self, cluster):
        b = OpStreamBuilder(cluster.n_cores)
        b.dma(0, desc(), buffer="C_a", slot=0)
        out = b.dma(0, desc("out"))
        b.consume(0, "C_a", 0, out)
        refill = b.dma(0, desc(), buffer="C_a", slot=0)
        assert out in b.core_ops[0][refill].deps

    def test_sync_appears_on_every_core(self, cluster):
        b = OpStreamBuilder(cluster.n_cores)
        sid = b.sync(tag="t")
        for ops in b.core_ops:
            assert len(ops) == 1
            assert ops[0].kind is OpKind.SYNC and ops[0].sync_id == sid

    def test_seq_strictly_increasing(self, cluster):
        b = OpStreamBuilder(cluster.n_cores)
        b.dma(0, desc())
        b.kernel(1, 10, 10)
        b.sync()
        seqs = [op.seq for ops in b.core_ops for op in ops]
        assert len(set(seqs)) == len(seqs)

    def test_finish_produces_valid_execution(self, cluster):
        b = OpStreamBuilder(cluster.n_cores)
        b.dma(0, desc(), buffer="B_a", slot=0)
        b.kernel(0, 10, 20, reads=(("B_a", 0),))
        b.sync()
        ex = b.finish(GemmShape(4, 4, 4), "test", cluster)
        assert ex.n_ops == 2 + cluster.n_cores
        assert ex.n_syncs == 1


class TestValidation:
    def test_kernel_with_zero_cycles_rejected(self, cluster):
        op = Op(OpKind.KERNEL, 0, cycles=0)
        with pytest.raises(PlanError):
            op.validate(0)

    def test_dma_without_descriptor_rejected(self):
        with pytest.raises(PlanError):
            Op(OpKind.DMA, 0).validate(0)

    def test_forward_dep_rejected(self):
        op = Op(OpKind.KERNEL, 0, cycles=1, deps=(5,))
        with pytest.raises(PlanError):
            op.validate(3)

    def test_missing_sync_on_a_core_rejected(self, cluster):
        ops = [[] for _ in range(cluster.n_cores)]
        ops[0].append(Op(OpKind.SYNC, 0, sync_id=0))
        ex = GemmExecution(GemmShape(1, 1, 1), "t", cluster, ops, n_syncs=1)
        with pytest.raises(PlanError):
            ex.validate()

    def test_missing_sync_message(self, cluster):
        ops = [[Op(OpKind.SYNC, c, sync_id=0)] for c in range(cluster.n_cores)]
        ops[1].clear()
        ex = GemmExecution(GemmShape(1, 1, 1), "t", cluster, ops, n_syncs=1)
        with pytest.raises(PlanError, match="sync 0 appears 0 times on core 1"):
            ex.validate()

    def test_duplicated_sync_message(self, cluster):
        ops = [[Op(OpKind.SYNC, c, sync_id=0)] for c in range(cluster.n_cores)]
        ops[2].append(Op(OpKind.SYNC, 2, sync_id=0))
        ex = GemmExecution(GemmShape(1, 1, 1), "t", cluster, ops, n_syncs=1)
        with pytest.raises(PlanError, match="sync 0 appears 2 times on core 2"):
            ex.validate()

    def test_forward_dep_message(self, cluster):
        ops = [[] for _ in range(cluster.n_cores)]
        ops[0] += [
            Op(OpKind.KERNEL, 0, cycles=1, deps=(1,)),
            Op(OpKind.KERNEL, 0, cycles=1),
        ]
        ex = GemmExecution(GemmShape(1, 1, 1), "t", cluster, ops, n_syncs=0)
        with pytest.raises(PlanError, match="op 0 depends on later op 1"):
            ex.validate()

    def test_wrong_stream_count_rejected(self, cluster):
        ex = GemmExecution(GemmShape(1, 1, 1), "t", cluster, [[]], n_syncs=0)
        with pytest.raises(PlanError):
            ex.validate()


class TestAggregates:
    def test_totals(self, cluster):
        b = OpStreamBuilder(cluster.n_cores)
        b.dma(0, desc())
        b.dma(1, desc())
        b.kernel(0, 50, 1000)
        b.kernel(2, 70, 2000)
        ex = b.finish(GemmShape(4, 4, 4), "t", cluster)
        assert ex.total_flops == 3000
        assert ex.total_dma_bytes == 2 * 4 * 64
        cycles = kernel_cycles_by_core(ex)
        assert cycles[0] == 50 and cycles[2] == 70


class TestDescribe:
    def test_describe_summary(self, cluster, registry):
        from repro.core.parallel_m import build_parallel_m

        ex = build_parallel_m(GemmShape(1000, 32, 128), cluster, registry=registry)
        text = ex.describe()
        assert "ftimm-m for 1000x32x128" in text
        assert "core0:" in text and f"core{cluster.n_cores - 1}:" in text
        assert "ddr->sm" in text
        assert "on-chip peaks" in text

    def test_describe_kernel_histogram(self, cluster, registry):
        from repro.core.parallel_k import build_parallel_k

        ex = build_parallel_k(GemmShape(32, 32, 4096), cluster, registry=registry)
        text = ex.describe()
        assert " x " in text  # histogram entries
        assert "syncs" in text
