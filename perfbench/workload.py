"""One benchmark workload, measured in a fresh process.

    python3 perfbench/workload.py --workload NAME [--seed N] [--seconds S]
                                  [--trace 0|1] [--started-at UNIX_TIME]

``perfbench/run.py`` starts this once per workload and reads the JSON
object it prints as its last line.  The run is a closed loop: one cell
at a time, through ``repro.bench.regression.run_cell`` and
``repro.bench.scale.run_scale_cell`` -- never the executor, so neither
the process pool nor ``.repro-cache/`` sees the traffic.

* **seed** -- every seed runs the committed cells with the committed
  hierarchy structure; a seed other than the committed one redraws the
  data no structure depends on (see :func:`reseed`) in the cached
  masters, once, after set-up and outside every timed region.  The
  index-derived scale hierarchy has no such data and is never redrawn.
* **set-up** -- import ``repro``, then build every hierarchy the cells
  use and construct their machine presets, ``SETUP_REPEATS`` times with
  the workload caches cleared in between; the last build stays cached
  for the passes, as it would in ``repro regress``.  The Enzo driver of
  the async cell builds its hierarchy uncached, so its master is kept
  here and each pass gets a copy (see :func:`install_capture`).
* **passes** -- whole untraced passes over the cells until their times
  add up to ``--seconds``; ``pass_s`` is their median.  Every record is
  checked: at the committed seed against ``BENCH_figures.json`` /
  ``BENCH_scale.json`` (golden digests, exact counters), at any other
  seed by reading the checkpoint back through
  ``repro.enzo.validation.read_checkpoint_arrays`` and comparing it with
  the hierarchy written.  A cell that raises or fails its check counts
  into ``failed``.
* **traced** (``--trace 1``) -- one untraced pass, then one pass with the
  :class:`~layers.LayerTracer` active; the traced records must equal the
  untraced ones.
"""

from __future__ import annotations

import time

_T_IMPORT = time.time()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

from layers import LAYERS, LayerTracer, Patches  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: The seed the committed scenarios (and so the baselines) were built with.
COMMITTED_SEED = 0
#: How many times set-up is repeated; ``setup_s`` reports the median.
SETUP_REPEATS = 5

#: workload -> cell ids, run in this order.  Layers each one exercises
#: most, measured on seed 0:
#:   paper-mix        -- sim hand-off, mpi, iostack.scda (every FS model;
#:                       hdf4/mpi-io/hdf5/scda; initial, sieved and
#:                       restart reads beside the writes)
#:   weak-scale-p512  -- mpiio, mpi (group-wide work repeated per rank)
#:   async-dump-amr64 -- pfs (three overlapped AMR64 dumps, peak memory)
WORKLOADS = {
    "paper-mix": (
        "fig6:hdf4:8",
        "fig6:mpi-io:8",
        "fig7:mpi-io:32",
        "fig8:mpi-io:8",
        "fig10:hdf5:8",
        "lustre:hdf4:8",
        "scda:mpi-io-scda:4",
        "flashx-particles:mpi-io:8",
    ),
    "weak-scale-p512": ("origin2000:mpi-io:P512",),
    "async-dump-amr64": ("fig9:mpi-io-async:8",),
}

ALL_CELLS = tuple(c for cells in WORKLOADS.values() for c in cells)


def cell_metric(cell_id: str) -> str:
    return "cell_s." + cell_id.replace(":", "-")


def import_repro():
    """Import ``repro`` from this checkout's ``src/`` -- never another copy."""
    sys.path.insert(0, SRC)
    import repro

    where = os.path.dirname(os.path.abspath(repro.__file__))
    if os.path.dirname(where) != SRC:
        raise ImportError(f"repro was imported from {where}, not {SRC}")
    return repro


# -- cells --------------------------------------------------------------------


@dataclasses.dataclass
class Capture:
    """What the cell under way built, kept for its correctness check."""

    machines: list = dataclasses.field(default_factory=list)
    hierarchies: list = dataclasses.field(default_factory=list)

    def clear(self) -> None:
        self.machines.clear()
        self.hierarchies.clear()


#: Data no cell's hierarchy structure depends on: the Enzo driver's
#: evolution and refinement read density and particle positions only.
RESEEDED_FIELDS = ("velocity_x", "velocity_y", "velocity_z")


def reseed(hierarchy, seed: int) -> None:
    """Draw the structure-free data of a hierarchy from ``seed``.

    The grids, particle positions and so every cell's I/O pattern stay
    those of the committed scenario, so any seed runs the same workload;
    the bytes written, and so what the read-back check compares, change.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    for grid in hierarchy.grids():
        for name in RESEEDED_FIELDS:
            grid.fields[name] = rng.standard_normal(grid.dims)
        p = grid.particles
        p.mass = rng.random(p.mass.shape)
        p.attributes = rng.random(p.attributes.shape)


def install_capture(capture: Capture, masters: list,
                    patches: Patches) -> None:
    """Record each cell's machines and hierarchy.

    The cells look their workload builders up where they were imported
    (``repro.bench.regression``, ``repro.bench.scale``), so they are
    replaced there.  The async cell builds its hierarchy through the Enzo
    driver, which evolves it in place: what it holds after the run is
    what the last dump wrote.  ``EnzoSimulation.build_initial_hierarchy``
    has no cache, so its replacement hands out a copy of the master built
    for an equal config when ``masters`` (``[(config, hierarchy)]``) holds
    one, and builds afresh otherwise.
    """
    from repro.bench import regression, scale
    from repro.enzo.simulation import EnzoSimulation
    from repro.topology.presets import PRESETS

    def recording(fn, sink):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            sink.append(out)
            return out
        return wrapper

    build_initial_hierarchy = EnzoSimulation.build_initial_hierarchy

    def copy_of_master(config):
        for built, master in masters:
            if built == config:
                return master.copy()
        return build_initial_hierarchy(config)

    for name, factory in list(PRESETS.items()):
        patches.set(PRESETS, name, recording(factory, capture.machines))
    for module, name in ((regression, "build_workload"),
                         (scale, "build_scale_workload")):
        patches.set(module, name, recording(getattr(module, name),
                                            capture.hierarchies))
    patches.set(EnzoSimulation, "build_initial_hierarchy", staticmethod(
        recording(functools.wraps(build_initial_hierarchy)(copy_of_master),
                  capture.hierarchies)))


class BenchCell:
    """One regress or scale cell: how to build, run and check it."""

    def __init__(self, cell_id: str):
        from repro.bench.baselines import MATRIX
        from repro.bench.scale import SCALE_MATRIX
        from repro.iostack import registry

        self.id = cell_id
        by_id = {c.id: c for c in MATRIX}
        if cell_id not in by_id:
            self.cell = next(c for c in SCALE_MATRIX if c.id == cell_id)
            self.kind, self.base = "scale", "scale"
        else:
            self.cell = by_id[cell_id]
            if registry.get(self.cell.strategy).options.get("async"):
                # regression._run_overlap_cell: 3 cycles, a dump each.
                self.kind, self.base = "overlap", "dump.cycle0003"
            else:
                self.kind, self.base = "figure", "ckpt"
        self.family = "scale" if self.kind == "scale" else "regress"

    def build(self, masters: list) -> list:
        """Build what the cell reads; return the masters a seed redraws.

        Regress cells read the workload caches, which keep the masters;
        the async cell's master is added to ``masters``.
        """
        from repro.bench import regression, workloads
        from repro.bench.scale import build_scale_workload
        from repro.enzo.simulation import EnzoConfig, EnzoSimulation

        c = self.cell
        if self.kind == "scale":
            build_scale_workload(c.nprocs)
            return []
        if self.kind == "overlap":
            # regression._run_overlap_cell's config.
            config = EnzoConfig(problem=c.problem, ncycles=3, dump_every=1,
                                overlap=True)
            master = EnzoSimulation.build_initial_hierarchy(config)
            masters.append((config, master))
            return [master]
        regression.build_workload(c.problem)
        scenario = workloads.resolve_scenario(c.problem)
        out = [workloads._cached_hierarchy(scenario, False)]
        if c.read_op == "initial":
            regression.build_initial_workload(c.problem)
            out.append(workloads._cached_hierarchy(scenario, True))
        return out

    def machine(self):
        from repro.topology.presets import PRESETS

        return PRESETS[self.cell.machine](nprocs=self.cell.nprocs)

    def run(self) -> dict:
        from repro.bench.regression import run_cell
        from repro.bench.scale import run_scale_cell

        if self.kind == "scale":
            return run_scale_cell(self.cell)
        return run_cell(self.cell)

    # -- correctness ------------------------------------------------------

    def check_baseline(self, record: dict, baselines: dict) -> str | None:
        """Digests and exact counters against the committed baseline."""
        from repro.bench.regression import compare
        from repro.bench.scale import compare_scale

        compare_fn = compare_scale if self.kind == "scale" else compare
        report = compare_fn({"cells": {self.id: record}, "trends": []},
                            baselines[self.family])
        if report.ok:
            return None
        v = report.violations[0]
        return f"{v['kind']} {v['metric']}: {v['detail']}"

    def check_readback(self, capture: Capture) -> str | None:
        """The checkpoint read back equals the hierarchy written."""
        import numpy as np
        from repro.enzo.validation import read_checkpoint_arrays
        from repro.iostack import registry

        hierarchy = capture.hierarchies[-1]
        fs = capture.machines[-1].fs
        # Drop the other files first (earlier dumps, the initial grids):
        # the read-back must not set the workload's peak memory.
        for path in fs.store.listdir():
            if not path.startswith(self.base):
                fs.store.delete(path)
        got = read_checkpoint_arrays(fs, registry.create(self.cell.strategy),
                                     self.base)
        want = hierarchy_arrays(hierarchy)
        if got.keys() != want.keys():
            return (f"read-back has {len(got)} arrays, "
                    f"the hierarchy {len(want)}")
        for key, value in want.items():
            if not np.array_equal(got[key], value):
                return f"read-back differs at {key}"
        return None


def hierarchy_arrays(hierarchy) -> dict:
    """A hierarchy keyed like ``read_checkpoint_arrays`` output."""
    from repro.amr.fields import BARYON_FIELDS
    from repro.amr.particles import PARTICLE_ARRAYS
    from repro.enzo.layout import TOP

    out = {}
    grids = [(TOP, hierarchy.root)]
    grids += [(g.id, g) for g in hierarchy.subgrids()]
    for key, grid in grids:
        for name in BARYON_FIELDS:
            out[(key, "field", name)] = grid.fields[name]
        particles = grid.particles.sort_by_id()
        for name in PARTICLE_ARRAYS:
            out[(key, "particle", name)] = particles.array(name)
    return out


def model_totals(records: dict) -> dict:
    """Simulated-clock outputs summed over cells, in cell order."""
    return {
        "model.write_s": sum(r["write_s"] for r in records.values()),
        "model.read_s": sum(r.get("read_s", 0.0) for r in records.values()),
        "model.fs_requests": sum(
            r["fs_write_requests"] + r.get("fs_read_requests", 0)
            for r in records.values()),
        "model.trace_events": sum(
            r.get("trace_events", 0) for r in records.values()),
    }


BASELINE_FILES = {"regress": "BENCH_figures.json",
                  "scale": "BENCH_scale.json"}


def load_baselines() -> dict:
    out = {}
    for family, name in BASELINE_FILES.items():
        with open(os.path.join(ROOT, name)) as f:
            out[family] = json.load(f)
    return out


# -- the run ----------------------------------------------------------------


class Bench:
    """A workload's cells, their checks and their counts."""

    def __init__(self, cell_ids, seed: int, baselines: dict):
        self.cells = [BenchCell(c) for c in cell_ids]
        self.seed = seed
        self.baselines = baselines
        self.capture = Capture()
        self.masters: list = []  # (EnzoConfig, hierarchy) of async cells
        self.patches = Patches()
        install_capture(self.capture, self.masters, self.patches)
        self.attempted = 0
        self.failed = 0

    def close(self) -> None:
        """Undo the capture patches and drop masters a seed redrew."""
        from repro.bench import workloads

        self.patches.restore()
        if self.seed != COMMITTED_SEED:
            workloads._cached_hierarchy.cache_clear()
        self.masters.clear()

    def setup(self) -> tuple[float, float]:
        """Build every cell's inputs once: ``(seconds, build seconds)``."""
        from repro.bench import workloads

        start = time.perf_counter()
        workloads._cached_hierarchy.cache_clear()
        workloads._cached_scale_hierarchy.cache_clear()
        self.masters.clear()
        self.built = [cell.build(self.masters) for cell in self.cells]
        built = time.perf_counter()
        for cell in self.cells:
            cell.machine()
        self.capture.clear()
        return time.perf_counter() - start, built - start

    def reseed(self) -> None:
        """Redraw the masters' structure-free data at a non-default seed."""
        if self.seed == COMMITTED_SEED:
            return
        seen: set[int] = set()
        for masters in self.built:
            for master in masters:
                if id(master) not in seen:
                    seen.add(id(master))
                    reseed(master, self.seed)

    def fail(self, what: str, why: str) -> None:
        self.failed += 1
        print(f"FAIL {what}: {why}", file=sys.stderr)

    def run_pass(self, tracer=None, after_run=None
                 ) -> tuple[dict, dict, dict]:
        """One pass: ``(records, wall seconds, process CPU seconds)``.

        ``after_run(capture)`` sees what each cell built before its check.
        """
        records, wall, cpu = {}, {}, {}
        for cell in self.cells:
            self.capture.clear()
            self.attempted += 1
            if tracer is not None:
                tracer.active = True
            w0, c0 = time.perf_counter(), time.process_time()
            try:
                record = cell.run()
            except Exception as err:  # a failing cell counts, never aborts
                record = None
                self.fail(cell.id, f"raised {type(err).__name__}: {err}")
            finally:
                wall[cell.id] = time.perf_counter() - w0
                cpu[cell.id] = time.process_time() - c0
                if tracer is not None:
                    tracer.active = False
            if record is not None:
                if after_run is not None:
                    after_run(self.capture)
                why = self.check(cell, record)
                if why is None:
                    records[cell.id] = record
                else:
                    self.fail(cell.id, why)
            self.capture.clear()
        return records, wall, cpu

    def check(self, cell: BenchCell, record: dict) -> str | None:
        try:
            if self.seed == COMMITTED_SEED:
                return cell.check_baseline(record, self.baselines)
            return cell.check_readback(self.capture)
        except Exception as err:  # a broken check is a failed cell
            return f"check raised {type(err).__name__}: {err}"

    def check_model(self, records: dict) -> None:
        """At the committed seed, ``model.*`` must equal the baselines'."""
        if self.seed != COMMITTED_SEED or len(records) != len(self.cells):
            return
        base = {cell.id: self.baselines[cell.family]["cells"][cell.id]
                for cell in self.cells}
        if model_totals(records) != model_totals(base):
            self.fail("model totals", "differ from the baselines")


def measure_setup(bench: Bench, started_at: float) -> tuple[float, float]:
    """``(setup_s, amr.build_s)``: medians over ``SETUP_REPEATS``.

    The seed is applied to the last build afterwards, untimed.
    """
    imported_s = time.time() - started_at
    totals, builds = zip(*(bench.setup() for _ in range(SETUP_REPEATS)))
    bench.reseed()
    return imported_s + statistics.median(totals), statistics.median(builds)


def untraced(bench: Bench, seconds: float) -> dict:
    """Whole passes until they add up to ``seconds``; the median pass.

    Peak memory is read after the first pass: later passes in the same
    process reuse a fragmented heap, so their peak would depend on how
    many passes fit into ``seconds``.
    """
    passes = []
    while not passes or sum(passes) < seconds:
        _records, wall, _cpu = bench.run_pass()
        passes.append(sum(wall.values()))
        if len(passes) == 1:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"pass_s": (statistics.median(passes), "s"),
            "peak_rss_mb": (rss_kb / 1024.0, "MB")}


def traced(bench: Bench, amr_build_s: float) -> dict:
    base_records, base_wall, _ = bench.run_pass()
    tracer = LayerTracer()
    tracer.install()
    try:
        records, wall, cpu, capacity_ratio = trace_pass(bench, tracer)
    finally:
        tracer.uninstall()
    for cell_id, record in records.items():
        if base_records.get(cell_id) != record:
            bench.fail(cell_id, "traced record differs from untraced")
    bench.check_model(records)
    rep = tracer.report()
    self_cpu, calls, counters = rep["self_cpu"], rep["calls"], rep["counters"]
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_cpu_s"] = (self_cpu[layer], "s")
        out[f"{layer}.calls"] = (calls[layer], "count")
    switches = int(counters["sim.context_switches"])
    out["sim.context_switches"] = (switches, "count")
    out["sim.us_per_switch"] = (
        1e6 * self_cpu["sim"] / switches if switches else 0.0, "us")
    read = counters["pfs.read.bytes"]
    out["mpiio.read_useful_ratio"] = (
        counters["mpiio.read.bytes"] / read if read else 0.0, "ratio")
    out["pfs.store_capacity_ratio"] = (capacity_ratio, "ratio")
    out["iostack.scda.crc_combine_calls"] = (
        int(counters["iostack.scda.crc_combine.calls"]), "count")
    out["iostack.scda.crc_combine_cpu_s"] = (
        counters["iostack.scda.crc_combine.cpu_s"], "s")
    out["amr.build_s"] = (amr_build_s, "s")
    out["core.digest_s"] = (counters["core.digest.cpu_s"], "s")
    process_cpu, traced_wall = sum(cpu.values()), sum(wall.values())
    out["unattributed_cpu_s"] = (process_cpu - sum(self_cpu.values()), "s")
    out["wait_s"] = (traced_wall - process_cpu, "s")
    out["trace.overhead_ratio"] = (traced_wall / sum(base_wall.values()),
                                   "ratio")
    for cell_id in ALL_CELLS:
        out[cell_metric(cell_id)] = (base_wall.get(cell_id, 0.0), "s")
    for name, value in model_totals(records).items():
        unit = "s" if name.endswith("_s") else "count"
        out[name] = (value, unit)
    return out


def trace_pass(bench: Bench, tracer) -> tuple[dict, dict, dict, float]:
    """A traced pass, plus store capacity over logical size at cell end."""
    capacity = size = 0

    def measure_stores(capture):
        nonlocal capacity, size
        for machine in capture.machines:
            store = machine.fs.store
            for path in store.listdir():
                f = store.open(path)
                capacity += len(f._buf)
                size += f.size

    records, wall, cpu = bench.run_pass(tracer, after_run=measure_stores)
    return records, wall, cpu, (capacity / size if size else 0.0)


def measure(bench: Bench, trace: int, seconds: float,
            started_at: float) -> dict:
    """Set up, then the untraced (``trace=0``) or traced run: the result."""
    setup_s, amr_build_s = measure_setup(bench, started_at)
    if trace:
        metrics = traced(bench, amr_build_s)
    else:
        metrics = untraced(bench, seconds)
        metrics["setup_s"] = (setup_s, "s")
    return {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=COMMITTED_SEED)
    p.add_argument("--seconds", type=float, default=19.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--started-at", type=float, default=_T_IMPORT,
                   help="unix time the process was started (set-up clock)")
    args = p.parse_args(argv)

    # The engine runs one rank thread at a time, so the simulator uses one
    # CPU; pinning it there keeps rank hand-offs off cross-CPU wake-ups,
    # whose latency otherwise varies run to run by a factor of two.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    import_repro()
    bench = Bench(WORKLOADS[args.workload], args.seed, load_baselines())
    print(json.dumps(measure(bench, args.trace, args.seconds,
                             args.started_at)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
