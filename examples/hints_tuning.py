#!/usr/bin/env python
"""Tuning MPI-IO hints, and letting the MDMS do it for you.

Sweeps the ROMIO hints that matter for the ENZO dump on the Origin2000 --
collective-buffer size, data sieving on/off, application-specific striping
-- then closes the paper's future-work loop: feed the observed trace into
the Meta-Data Management System and apply the hints *it* suggests.

Run:  python examples/hints_tuning.py
"""

import numpy as np

from repro.bench import build_workload, run_checkpoint_experiment
from repro.core import (
    MDMS,
    MetadataRegistry,
    PatternClass,
    trace_filesystem,
)
from repro.enzo import array_dtype
from repro.iostack import registry
from repro.mpiio import Hints
from repro.topology import origin2000
from repro.core import format_table

NPROCS = 8
PROBLEM = "AMR32"


def timed(hints: Hints):
    machine = origin2000(nprocs=NPROCS)
    result = run_checkpoint_experiment(
        machine,
        registry.create("mpi-io", hints=hints),
        build_workload(PROBLEM),
        nprocs=NPROCS,
        do_read=False,
    )
    return result.write_time


def sweep() -> None:
    rows = []
    for label, hints in [
        ("defaults", Hints()),
        ("cb_buffer 256 KiB", Hints(cb_buffer_size=256 * 1024)),
        ("cb_buffer 16 MiB", Hints(cb_buffer_size=16 << 20)),
        ("no write sieving", Hints(ds_write=False)),
        ("aggregators: all ranks", Hints(cb_nodes=0)),
        ("striping_unit 4 MiB", Hints(striping_unit=4 << 20)),
    ]:
        rows.append([label, f"{timed(hints):.3f}"])
    print(f"MPI-IO dump of {PROBLEM} on Origin2000, {NPROCS} procs:")
    print(format_table(["hints", "write [s]"], rows))


def mdms_loop() -> None:
    """Record a run in the MDMS, then run again with its suggested hints."""
    machine = origin2000(nprocs=NPROCS)
    hierarchy = build_workload(PROBLEM)
    trace = trace_filesystem(machine.fs)
    baseline = run_checkpoint_experiment(
        machine, registry.create("mpi-io"), hierarchy, nprocs=NPROCS,
        do_read=False,
    )

    meta_registry = MetadataRegistry()
    root = hierarchy.root
    for name in root.fields.names:
        meta_registry.register("top", name, root.dims, np.float64,
                          PatternClass.REGULAR_BLOCK)
    from repro.amr.particles import PARTICLE_ARRAYS

    for name in PARTICLE_ARRAYS:
        meta_registry.register("top", f"particle/{name}",
                          (len(root.particles),), array_dtype(name),
                          PatternClass.IRREGULAR)

    mdms = MDMS(machine.fs)
    mdms.register_application(
        "enzo", meta_registry, stripe_size=machine.fs.layout.stripe_size
    )
    mdms.record_run("enzo", trace)
    suggested = mdms.suggest_hints("enzo")
    print()
    print(f"MDMS-suggested hints after one observed run: {suggested}")
    tuned = timed(Hints(**suggested))
    print(f"baseline write: {baseline.write_time:.3f} s   "
          f"MDMS-tuned write: {tuned:.3f} s")


if __name__ == "__main__":
    sweep()
    mdms_loop()
