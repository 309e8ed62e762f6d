"""AMR grids: a rectangular patch of the domain at some refinement level."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .fields import FieldSet
from .particles import ParticleSet

__all__ = ["Grid"]


@dataclass
class Grid:
    """One grid patch.

    ``left_edge``/``right_edge`` are in domain units ([0, 1]^3 for the root
    grid); ``dims`` is the number of cells per axis.  ``fields`` uniformly
    sample the patch; ``particles`` are those whose position falls inside it.
    """

    id: int
    level: int
    dims: tuple[int, int, int]
    left_edge: np.ndarray
    right_edge: np.ndarray
    fields: FieldSet = None
    particles: ParticleSet = field(default_factory=ParticleSet)
    parent_id: Optional[int] = None
    child_ids: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.dims = tuple(int(d) for d in self.dims)
        self.left_edge = np.asarray(self.left_edge, dtype=np.float64)
        self.right_edge = np.asarray(self.right_edge, dtype=np.float64)
        if self.left_edge.shape != (3,) or self.right_edge.shape != (3,):
            raise ValueError("edges must be 3-vectors")
        if not (self.right_edge > self.left_edge).all():
            raise ValueError("right_edge must exceed left_edge")
        if self.fields is None:
            self.fields = FieldSet(self.dims)

    # -- geometry ------------------------------------------------------------

    @property
    def cell_width(self) -> np.ndarray:
        return (self.right_edge - self.left_edge) / np.array(self.dims)

    @property
    def ncells(self) -> int:
        return int(np.prod(self.dims))

    def contains_points(self, positions: np.ndarray) -> np.ndarray:
        """Boolean mask: which positions fall inside this grid's domain."""
        if len(positions) == 0:
            return np.zeros(0, dtype=bool)
        return (
            (positions >= self.left_edge) & (positions < self.right_edge)
        ).all(axis=1)

    def cell_of(self, positions: np.ndarray) -> np.ndarray:
        """Integer cell coordinates of positions (clipped to the grid)."""
        rel = (positions - self.left_edge) / self.cell_width
        idx = np.floor(rel).astype(np.int64)
        return np.clip(idx, 0, np.array(self.dims) - 1)

    # -- data summary --------------------------------------------------------------

    @property
    def data_nbytes(self) -> int:
        """Bytes of real data (fields + particles); what a dump writes."""
        return self.fields.nbytes + self.particles.nbytes

    def metadata(self) -> dict:
        """The hierarchy metadata every processor keeps (paper Section 2.2)."""
        return {
            "id": self.id,
            "level": self.level,
            "dims": self.dims,
            "left_edge": self.left_edge.tolist(),
            "right_edge": self.right_edge.tolist(),
            "nparticles": len(self.particles),
            "field_names": list(self.fields.names),
            "parent_id": self.parent_id,
            "child_ids": list(self.child_ids),
        }

    def equal(self, other: "Grid") -> bool:
        """Bit-exact data equality (geometry, fields and particles)."""
        return (
            self.id == other.id
            and self.level == other.level
            and self.dims == other.dims
            and np.array_equal(self.left_edge, other.left_edge)
            and np.array_equal(self.right_edge, other.right_edge)
            and self.fields.equal(other.fields)
            and self.particles.equal(other.particles)
        )

    def copy(self) -> "Grid":
        """Deep copy: fields, particles, edges and child list are all fresh."""
        return Grid(
            id=self.id,
            level=self.level,
            dims=self.dims,
            left_edge=self.left_edge.copy(),
            right_edge=self.right_edge.copy(),
            fields=self.fields.copy(),
            particles=self.particles.copy(),
            parent_id=self.parent_id,
            child_ids=list(self.child_ids),
        )

    @classmethod
    def make_root(cls, dims: tuple[int, int, int], grid_id: int = 0) -> "Grid":
        """The root grid covering the unit cube."""
        return cls(
            id=grid_id,
            level=0,
            dims=dims,
            left_edge=np.zeros(3),
            right_edge=np.ones(3),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Grid {self.id} L{self.level} {self.dims} "
            f"[{self.left_edge.round(3)}..{self.right_edge.round(3)}] "
            f"np={len(self.particles)}>"
        )
