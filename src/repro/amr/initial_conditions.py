"""Cosmological initial conditions.

A real ENZO run starts from Zel'dovich-displaced particles and a baryon
density field with a power-law perturbation spectrum.  We generate the same
*statistical structure* (a Gaussian random field with power ~ k^-n, so the
density is clustered rather than uniform, which is what drives refinement)
with numpy FFTs, then sample dark-matter particles from the overdense
regions.  Deterministic for a given seed.
"""

from __future__ import annotations

import numpy as np

from .grid import Grid
from .hierarchy import GridHierarchy

__all__ = ["gaussian_random_field", "make_initial_conditions", "populate_grid_fields"]


def gaussian_random_field(
    dims: tuple[int, int, int],
    *,
    spectral_index: float = -4.5,
    sigma: float = 1.0,
    seed: int = 0,
) -> np.ndarray:
    """A zero-mean Gaussian random field with power spectrum ~ |k|^n.

    Steeper (more negative) ``spectral_index`` gives more large-scale
    clustering.  The default is chosen so overdense regions form a handful
    of localized clusters (like the evolved matter field on cluster scales),
    giving AMR hierarchies with the clustered structure of the paper's
    Figures 1 and 3 rather than noise-driven refinement everywhere.
    """
    rng = np.random.default_rng(seed)
    kx = np.fft.fftfreq(dims[0])[:, None, None]
    ky = np.fft.fftfreq(dims[1])[None, :, None]
    kz = np.fft.rfftfreq(dims[2])[None, None, :]
    k2 = kx**2 + ky**2 + kz**2
    k2[0, 0, 0] = 1.0  # avoid the DC divide; zeroed below
    amplitude = k2 ** (spectral_index / 4.0)  # sqrt of power ~ k^(n/2)
    noise = rng.standard_normal((dims[0], dims[1], dims[2] // 2 + 1)) + 1j * (
        rng.standard_normal((dims[0], dims[1], dims[2] // 2 + 1))
    )
    spec = noise * amplitude
    spec[0, 0, 0] = 0.0
    field = np.fft.irfftn(spec, s=dims, axes=(0, 1, 2))
    std = field.std()
    if std > 0:
        field *= sigma / std
    return field


def populate_grid_fields(grid: Grid, delta: np.ndarray) -> None:
    """Fill a grid's baryon fields from an overdensity field ``delta``.

    Density is ``1 + delta`` clipped positive; the other fields are smooth
    functions of it so checkpoints contain distinguishable data per field.
    """
    if delta.shape != grid.dims:
        raise ValueError(f"delta shape {delta.shape} != grid dims {grid.dims}")
    density = np.clip(1.0 + delta, 0.05, None)
    grid.fields["density"] = density
    grid.fields["temperature"] = 1e4 * density ** (2.0 / 3.0)
    grid.fields["total_energy"] = 1.5 * grid.fields["temperature"] + 0.1
    grid.fields["internal_energy"] = 1.5 * grid.fields["temperature"]
    grid.fields["dark_matter_density"] = 5.0 * density
    # Velocities: gradient-ish flows toward overdensities.
    for axis, name in enumerate(("velocity_x", "velocity_y", "velocity_z")):
        grid.fields[name] = -0.5 * np.gradient(density, axis=axis)


def make_initial_conditions(
    root_dims: tuple[int, int, int],
    *,
    particles_per_cell: float = 0.25,
    seed: int = 0,
    pre_refine: int = 1,
    refine_threshold: float = 1.8,
    refine_kwargs: dict | None = None,
    nested_grids: tuple = (),
    must_refine: tuple = (),
    deep_levels: int = 0,
) -> GridHierarchy:
    """Build the initial hierarchy: root grid + pre-refined subgrids.

    This is what the original code reads from the initial-grid files at the
    start of a new simulation ("the root grid and some initial pre-refined
    subgrids").  Particles are sampled preferentially in overdense cells
    (rejection sampling), giving the irregular spatial distribution the
    paper's particle I/O analysis is about.

    Scenario extensions (each a strict no-op when unset, so the historical
    RNG consumption order -- and with it every pinned digest -- is
    untouched):

    * ``nested_grids``: static initial grids (Enzo
      ``CosmologySimulationGrid*``), seeded before threshold refinement.
    * ``must_refine``: regions force-refined down to a target level after
      threshold refinement (must-refine particle masks).
    * ``deep_levels``: chain this many extra zoom levels onto the densest
      spot of the current finest grid (deep FOGGIE-style hierarchies).
    """
    root = Grid.make_root(root_dims)
    delta = gaussian_random_field(root_dims, seed=seed)
    populate_grid_fields(root, delta)

    # Sample particles with probability proportional to local density.
    rng = np.random.default_rng(seed + 1)
    n_particles = int(np.prod(root_dims) * particles_per_cell)
    density = root.fields["density"]
    prob = (density / density.sum()).ravel()
    cells = rng.choice(len(prob), size=n_particles, p=prob)
    coords = np.column_stack(np.unravel_index(cells, root_dims)).astype(np.float64)
    jitter = rng.random((n_particles, 3))
    positions = (coords + jitter) * root.cell_width + root.left_edge
    velocities = 0.01 * rng.standard_normal((n_particles, 3))
    root.particles = type(root.particles)(
        ids=np.arange(n_particles, dtype=np.int64),
        positions=positions,
        velocities=velocities,
        mass=np.full(n_particles, 1.0 / max(n_particles, 1)),
        attributes=np.column_stack(
            [np.zeros(n_particles), rng.random(n_particles)]
        ),
    )

    hierarchy = GridHierarchy(root)
    if nested_grids:
        _seed_nested_grids(hierarchy, nested_grids)
    if pre_refine > 0:
        from .refinement import refine_hierarchy

        for _ in range(pre_refine):
            refine_hierarchy(
                hierarchy,
                overdensity_threshold=refine_threshold,
                **(refine_kwargs or {}),
            )
    if must_refine:
        _apply_must_refine(hierarchy, must_refine)
    if deep_levels > 0:
        max_level = (refine_kwargs or {}).get("max_level", 4)
        _deepen_hierarchy(hierarchy, deep_levels, max_level=max_level)
    return hierarchy


# ---------------------------------------------------------------------------
# Scenario extensions: static nested grids, must-refine regions, deep zoom.
# All construction below is purely geometric and id-ordered -- no RNG -- so
# the same scenario always yields the same hierarchy bit-for-bit.
# ---------------------------------------------------------------------------


def _snap_box(parent: Grid, left_edge, right_edge):
    """Clip a domain-unit box to ``parent`` and snap it to its cell grid.

    Returns ``(lo, hi)`` cell-index tuples (hi exclusive), or ``None``
    when the intersection is empty.
    """
    cw = parent.cell_width
    lo, hi = [], []
    for axis in range(3):
        left = max(float(left_edge[axis]), float(parent.left_edge[axis]))
        right = min(float(right_edge[axis]), float(parent.right_edge[axis]))
        if right - left <= 1e-12:
            return None
        rel_lo = (left - parent.left_edge[axis]) / cw[axis]
        rel_hi = (right - parent.left_edge[axis]) / cw[axis]
        a = int(np.floor(rel_lo + 1e-9))
        b = int(np.ceil(rel_hi - 1e-9))
        a = max(0, min(a, parent.dims[axis] - 1))
        b = max(a + 1, min(b, parent.dims[axis]))
        lo.append(a)
        hi.append(b)
    return tuple(lo), tuple(hi)


def _make_child(hierarchy: GridHierarchy, parent: Grid, lo, hi) -> Grid:
    """Create a refined child over parent cells ``[lo, hi)`` (refine_grid's
    construction, without the flag clustering)."""
    from .refinement import (
        REFINE_FACTOR,
        _interpolate_fields,
        _move_particles_down,
    )

    cw = parent.cell_width
    child = Grid(
        id=hierarchy.new_grid_id(),
        level=parent.level + 1,
        dims=tuple((h - l) * REFINE_FACTOR for l, h in zip(lo, hi)),
        left_edge=parent.left_edge + np.array(lo) * cw,
        right_edge=parent.left_edge + np.array(hi) * cw,
        parent_id=parent.id,
    )
    _interpolate_fields(parent, child, lo, hi)
    _move_particles_down(parent, child)
    hierarchy.add_grid(child)
    return child


def _seed_nested_grids(hierarchy: GridHierarchy, specs) -> None:
    """Seed static nested initial grids (shallowest level first)."""
    from .refinement import REFINE_FACTOR

    for spec in sorted(specs, key=lambda s: (s.level, s.left_edge)):
        parent = None
        for grid in hierarchy.grids():
            if grid.level != spec.level - 1:
                continue
            if (np.asarray(spec.left_edge) >= grid.left_edge - 1e-12).all() and (
                np.asarray(spec.right_edge) <= grid.right_edge + 1e-12
            ).all():
                parent = grid
                break
        if parent is None:
            raise ValueError(
                f"nested grid at level {spec.level} "
                f"[{spec.left_edge}..{spec.right_edge}] has no containing "
                f"level-{spec.level - 1} grid"
            )
        box = _snap_box(parent, spec.left_edge, spec.right_edge)
        if box is None:
            raise ValueError(f"nested grid {spec} snaps to an empty box")
        lo, hi = box
        got = tuple((h - l) * REFINE_FACTOR for l, h in zip(lo, hi))
        if got != tuple(spec.dims):
            raise ValueError(
                f"nested grid dims {tuple(spec.dims)} disagree with its "
                f"edges (cell-snapped extent implies {got})"
            )
        _make_child(hierarchy, parent, lo, hi)


def _subtract_box(box, hole):
    """Disjoint boxes covering ``box`` minus ``hole`` (cell-index boxes)."""
    lo, hi = box
    hlo = tuple(max(a, b) for a, b in zip(lo, hole[0]))
    hhi = tuple(min(a, b) for a, b in zip(hi, hole[1]))
    if any(a >= b for a, b in zip(hlo, hhi)):
        return [box]
    pieces = []
    cur_lo, cur_hi = list(lo), list(hi)
    for axis in range(3):
        if cur_lo[axis] < hlo[axis]:
            p_lo, p_hi = list(cur_lo), list(cur_hi)
            p_hi[axis] = hlo[axis]
            pieces.append((tuple(p_lo), tuple(p_hi)))
            cur_lo[axis] = hlo[axis]
        if hhi[axis] < cur_hi[axis]:
            p_lo, p_hi = list(cur_lo), list(cur_hi)
            p_lo[axis] = hhi[axis]
            pieces.append((tuple(p_lo), tuple(p_hi)))
            cur_hi[axis] = hhi[axis]
    return pieces


def _apply_must_refine(hierarchy: GridHierarchy, regions) -> None:
    """Force refinement of each region down to its target level.

    Level by level, every grid overlapping a region gains children
    covering the region's footprint -- minus whatever its existing
    children already cover, so must-refine composes with both nested
    grids and threshold refinement without duplicated coverage.
    """
    for region in sorted(regions, key=lambda r: (r.level, r.left_edge)):
        for level in range(1, region.level + 1):
            parents = [g for g in hierarchy.grids() if g.level == level - 1]
            for parent in parents:
                box = _snap_box(parent, region.left_edge, region.right_edge)
                if box is None:
                    continue
                boxes = [box]
                for child_id in parent.child_ids:
                    child = hierarchy[child_id]
                    hole = _snap_box(parent, child.left_edge,
                                     child.right_edge)
                    if hole is None:
                        continue
                    boxes = [p for b in boxes
                             for p in _subtract_box(b, hole)]
                for lo, hi in sorted(boxes):
                    _make_child(hierarchy, parent, lo, hi)


def _deepen_hierarchy(hierarchy: GridHierarchy, deep_levels: int,
                      *, max_level: int) -> None:
    """Chain small zoom grids onto the densest spot, one level at a time."""
    half = 2  # half-width in parent cells: a 4^3 box -> an 8^3 child
    for _ in range(deep_levels):
        finest = hierarchy.max_level
        if finest >= max_level:
            break
        leaves = [g for g in hierarchy.grids() if g.level == finest]
        target = max(leaves, key=lambda g: float(g.fields["density"].max()))
        density = target.fields["density"]
        peak = np.unravel_index(int(np.argmax(density)), density.shape)
        lo, hi = [], []
        for axis in range(3):
            width = min(2 * half, target.dims[axis])
            a = max(0, min(peak[axis] - half, target.dims[axis] - width))
            lo.append(a)
            hi.append(a + width)
        _make_child(hierarchy, target, tuple(lo), tuple(hi))
