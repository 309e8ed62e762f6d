"""Tests of the benchmark itself (not collected by the repo's suite).

    python3 -m pytest perfbench -q

Each test drives a few cheap cells through ``workload.Bench`` in this
process; ``Bench.close`` and ``LayerTracer.uninstall`` undo every patch.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workload  # noqa: E402

workload.import_repro()

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)


def run(cells, *, seed=0, trace=0, baselines=None) -> dict:
    """One benchmark run over ``cells``: set-up, then a single pass."""
    if baselines is None:
        baselines = workload.load_baselines()
    bench = workload.Bench(cells, seed, baselines)
    try:
        return workload.measure(bench, trace, 0, time.time())
    finally:
        bench.close()


def test_untraced_run_reports_every_end_to_end_metric():
    res = run(["fig6:hdf4:8"])
    assert res["correct"] and res["attempted"] == 1 and res["failed"] == 0
    assert set(res["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
        assert res["metrics"][m["name"]]["value"] > 0


def test_wrong_committed_digest_raises_error_rate():
    baselines = copy.deepcopy(workload.load_baselines())
    cell = baselines["regress"]["cells"]["fig6:hdf4:8"]
    cell["trace_digest"] = "sha256:" + "0" * 64
    res = run(["fig6:hdf4:8", "fig6:mpi-io:8"], baselines=baselines)
    assert not res["correct"]
    assert res["failed"] / res["attempted"] == 0.5


def test_readback_check_at_other_seeds():
    res = run(["fig6:hdf4:8"], seed=3)
    assert res["correct"] and res["failed"] == 0


def test_seed_redraws_the_cached_master_outside_the_passes():
    import numpy as np
    from repro.bench.workloads import build_workload

    bench = workload.Bench(["fig6:mpi-io:8"], 3, {})
    try:
        workload.measure_setup(bench, time.time())
        problem = bench.cells[0].cell.problem
        seeded = build_workload(problem)
    finally:
        bench.close()
    committed = build_workload(problem)  # close() dropped the seeded master
    name = workload.RESEEDED_FIELDS[0]
    assert not np.array_equal(seeded.root.fields[name],
                              committed.root.fields[name])
    np.testing.assert_array_equal(seeded.root.fields["density"],
                                  committed.root.fields["density"])


def test_async_cell_gets_a_copy_of_the_master_built_in_setup():
    from repro.enzo.simulation import EnzoSimulation

    bench = workload.Bench(["fig9:mpi-io-async:8"], 0, {})
    try:
        bench.setup()
        (config, master), = bench.masters
        got = EnzoSimulation.build_initial_hierarchy(config)
        assert bench.capture.hierarchies == [got]
    finally:
        bench.close()
    fresh = EnzoSimulation.build_initial_hierarchy(config)
    assert got is not master
    want = workload.hierarchy_arrays(fresh)
    have = workload.hierarchy_arrays(got)
    assert have.keys() == want.keys()
    for key, value in want.items():
        assert (have[key] == value).all(), key


def test_readback_detects_a_corrupted_checkpoint():
    bench = workload.Bench(["fig6:mpi-io:8"], 3, {})
    try:
        bench.setup()

        def flip_a_byte(capture):
            stored = capture.machines[-1].fs.store.open("ckpt")
            stored._buf[stored.size // 2] ^= 0xFF

        bench.run_pass(after_run=flip_a_byte)
    finally:
        bench.close()
    assert (bench.attempted, bench.failed) == (1, 1)


def test_tracer_sees_sieving_waste_and_restores_the_stack():
    from layers import LayerTracer

    import numpy as np
    from repro.mpi.datatypes import FLOAT64, Subarray
    from repro.mpi.runner import run_spmd
    from repro.mpiio.file import File
    from repro.mpiio.hints import Hints
    from repro.topology.presets import PRESETS

    def program(comm):
        fh = File.open(comm, "f", "rw", hints=Hints(ds_read=True))
        fh.write_at(0, np.arange(64, dtype=np.float64))
        # Half of each 8-value row: sieving reads the holes too.
        fh.set_view(0, FLOAT64, Subarray((8, 8), (8, 4), (0, 0), FLOAT64))
        got = fh.read_at(0, np.empty((8, 4)))
        raw = fh.read_at(0, bytearray(8))  # not an ndarray
        fh.close()
        return got, raw

    open_before = vars(File)["open"]
    tracer = LayerTracer()
    tracer.install()
    tracer.active = True
    try:
        machine = PRESETS["origin2000"](nprocs=1)
        got, raw = run_spmd(machine, program, nprocs=1).results[0]
    finally:
        tracer.uninstall()
    assert vars(File)["open"] is open_before
    np.testing.assert_array_equal(got, np.arange(64.0).reshape(8, 8)[:, :4])
    assert raw == np.float64(0).tobytes()
    report = tracer.report()
    asked = report["counters"]["mpiio.read.bytes"]
    assert asked == 8 * 4 * 8 + 8
    assert report["counters"]["pfs.read.bytes"] > asked
    assert report["calls"]["mpiio"] > 0 and report["calls"]["pfs"] > 0


@pytest.fixture(scope="module")
def traced_twice():
    cells = ["fig6:hdf4:8", "scda:mpi-io-scda:4"]
    return run(cells, trace=1), run(cells, trace=1)


def test_traced_run_reports_every_per_layer_metric(traced_twice):
    res = traced_twice[0]
    assert res["correct"] and res["failed"] == 0  # traced == untraced
    assert set(res["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
    metrics = {k: v["value"] for k, v in res["metrics"].items()}
    assert metrics["iostack.scda.crc_combine_calls"] > 0
    assert metrics["hdf4.calls"] > 0 and metrics["sim.calls"] > 0
    assert metrics["cell_s.fig6-hdf4-8"] > 0
    assert metrics["cell_s.fig7-mpi-io-32"] == 0  # not in this run


def test_traced_counts_repeat_exactly(traced_twice):
    first, second = ({k: v["value"] for k, v in res["metrics"].items()}
                     for res in traced_twice)
    exact = [k for k in first
             if k.endswith(".calls") or k.startswith("model.")
             or k in ("sim.context_switches",
                      "iostack.scda.crc_combine_calls")]
    assert len(exact) > 15
    assert {k: first[k] for k in exact} == {k: second[k] for k in exact}


def test_bare_benchmark_directory_fails(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-mix"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=170, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
