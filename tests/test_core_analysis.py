"""Tests for the access-pattern analysis and the I/O trace/report tools."""

import numpy as np
import pytest

from repro.core import (
    AccessDescriptor,
    IOTrace,
    PatternClass,
    classify_accesses,
    format_table,
    format_trace_report,
    trace_filesystem,
)


def block_descriptors_3d(shape, pgrid):
    """(Block, Block, Block) descriptors over a 3-D processor grid."""
    from repro.amr import BlockPartition

    nprocs = int(np.prod(pgrid))
    part = BlockPartition(shape, nprocs)
    out = []
    for r in range(nprocs):
        starts, sizes = part.block_of(r)
        out.append(
            AccessDescriptor(global_shape=shape, starts=starts, subsizes=sizes)
        )
    return out


class TestClassification:
    def test_block_block_block_is_regular(self):
        descs = block_descriptors_3d((8, 8, 8), (2, 2, 2))
        assert classify_accesses(descs) == PatternClass.REGULAR_BLOCK

    def test_slab_decomposition_is_contiguous(self):
        descs = [
            AccessDescriptor((8, 4, 4), starts=(i * 2, 0, 0), subsizes=(2, 4, 4))
            for i in range(4)
        ]
        assert classify_accesses(descs) == PatternClass.CONTIGUOUS

    def test_1d_block_is_contiguous(self):
        descs = [
            AccessDescriptor((100,), starts=(i * 25,), subsizes=(25,))
            for i in range(4)
        ]
        assert classify_accesses(descs) == PatternClass.CONTIGUOUS

    def test_explicit_indices_is_irregular(self):
        descs = [
            AccessDescriptor((100,), indices=(1, 5, 7)),
            AccessDescriptor((100,), indices=(2, 3)),
        ]
        assert classify_accesses(descs) == PatternClass.IRREGULAR

    def test_overlapping_blocks_is_irregular(self):
        descs = [
            AccessDescriptor((10,), starts=(0,), subsizes=(6,)),
            AccessDescriptor((10,), starts=(4,), subsizes=(6,)),
        ]
        assert classify_accesses(descs) == PatternClass.IRREGULAR

    def test_holes_are_irregular(self):
        descs = [AccessDescriptor((10,), starts=(0,), subsizes=(5,))]
        assert classify_accesses(descs) == PatternClass.IRREGULAR

    def test_descriptor_validation(self):
        with pytest.raises(ValueError):
            AccessDescriptor((10,))
        with pytest.raises(ValueError):
            AccessDescriptor((10,), starts=(0,))
        with pytest.raises(ValueError):
            AccessDescriptor((10,), starts=(0,), subsizes=(20,))
        with pytest.raises(ValueError):
            AccessDescriptor((10,), starts=(0,), subsizes=(5,), indices=(1,))
        with pytest.raises(ValueError, match="index outside"):
            AccessDescriptor((10,), indices=(50, -3))
        with pytest.raises(ValueError, match="index outside"):
            AccessDescriptor((2, 5), indices=(0, 10))
        assert AccessDescriptor((2, 5), indices=(0, 9)).nelements == 2
        with pytest.raises(ValueError):
            classify_accesses([])

    def test_enzo_patterns_classified_as_paper_says(self):
        """Baryon fields regular, particles irregular (paper Fig. 4)."""
        baryon = block_descriptors_3d((16, 16, 16), (2, 2, 1))
        assert classify_accesses(baryon) == PatternClass.REGULAR_BLOCK
        rng = np.random.default_rng(0)
        owner = rng.integers(0, 4, size=64)
        particle = [
            AccessDescriptor(
                (64,), indices=tuple(np.flatnonzero(owner == r).tolist())
            )
            for r in range(4)
        ]
        assert classify_accesses(particle) == PatternClass.IRREGULAR


class TestTrace:
    def test_manual_recording_and_stats(self):
        t = IOTrace()
        t.record(op="write", path="f", offset=0, nbytes=100, start=0.0,
                 end=1.0, node=0)
        t.record(op="write", path="f", offset=100, nbytes=100, start=1.0,
                 end=2.0, node=1)
        t.record(op="write", path="f", offset=500, nbytes=50, start=2.0,
                 end=3.0, node=0)
        assert t.total_bytes("write") == 250
        assert t.sequential_fraction("write") == pytest.approx(1 / 3)
        assert t.bandwidth("write") == pytest.approx(250 / 3.0)
        assert t.per_node_bytes("write") == {0: 150, 1: 100}
        assert len(t) == 3
        assert t.total_bytes("read") == 0
        assert t.bandwidth("read") == 0.0

    def test_size_histogram(self):
        t = IOTrace()
        for size in (100, 2000, 2**18, 2**21):
            t.record(op="read", path="f", offset=0, nbytes=size, start=0.0,
                     end=0.1, node=0)
        h = t.size_histogram("read")
        assert h["<1K"] == 1
        assert h["1K-16K"] == 1
        assert h["128K-1M"] == 1
        assert h[">=1M"] == 1

    def test_trace_filesystem_wrapper(self):
        from repro.pfs import FileSystem

        fs = FileSystem()
        trace = trace_filesystem(fs)
        fs.create("f")
        fs.write("f", 0, b"x" * 64)
        fs.read("f", 0, 64)
        assert len(trace) == 2
        assert trace.ops("write")[0].nbytes == 64
        assert trace.ops("read")[0].nbytes == 64

    def test_report_formatting(self):
        from repro.pfs import FileSystem

        fs = FileSystem()
        trace = trace_filesystem(fs)
        fs.create("f")
        for i in range(5):
            fs.write("f", i * 100, b"y" * 100)
        report = format_trace_report(trace, title="test run")
        assert "test run" in report
        assert "WRITE: 5 requests" in report
        assert "sequential frac" in report

    def test_format_table(self):
        out = format_table(["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert "333" in lines[3]
