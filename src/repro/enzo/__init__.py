"""The ENZO cosmology application and the checkpoint I/O strategy interface.

Concrete strategies are built by :func:`repro.iostack.registry.create`.
"""

from .io_base import IOStats, IOStrategy, hierarchy_path
from .layout import TOP, ArrayExtent, CheckpointLayout
from .meta import GridMeta, HierarchyMeta, array_dtype
from .simulation import PROBLEM_SIZES, EnzoConfig, EnzoSimulation
from .sizing import WorkloadModel, grid_bytes, table1
from .sort import parallel_sort_by_id
from .state import PartitionedState, RankState, hierarchies_equivalent, make_owner_map
from .validation import ValidationReport, compare_checkpoints, read_checkpoint_arrays

__all__ = [
    "IOStrategy",
    "IOStats",
    "hierarchy_path",
    "CheckpointLayout",
    "ArrayExtent",
    "TOP",
    "GridMeta",
    "HierarchyMeta",
    "array_dtype",
    "EnzoConfig",
    "EnzoSimulation",
    "PROBLEM_SIZES",
    "WorkloadModel",
    "grid_bytes",
    "table1",
    "parallel_sort_by_id",
    "RankState",
    "PartitionedState",
    "ValidationReport",
    "compare_checkpoints",
    "read_checkpoint_arrays",
    "make_owner_map",
    "hierarchies_equivalent",
]
