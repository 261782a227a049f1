"""The domain and its nested Cartesian quad-grid hierarchy.

The hierarchy is a stack of uniform quad grids where level l+1 is obtained
from level l by splitting every cell into four children. One record,
GridHierarchy, places both discretizations in it: the DG mesh lives on
level dg_level, and the finite-volume subgrid with matching
degree-of-freedom count is the finest level, log2(k+1) levels finer, so a
degree-k DG cell is covered by exactly (k+1) x (k+1) FV subcells.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Domain2D:
    x_min: float
    x_max: float
    z_min: float
    z_max: float

    def __post_init__(self):
        if not self.x_max > self.x_min:
            raise ValueError(f"x_max must exceed x_min, got [{self.x_min}, {self.x_max}]")
        if not self.z_max > self.z_min:
            raise ValueError(f"z_max must exceed z_min, got [{self.z_min}, {self.z_max}]")

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.z_max - self.z_min


class GridHierarchy:
    """Uniform Cartesian grids from the coarse base (level 0) up to the FV
    subgrid of a degree-k DG mesh.

    Level l has (base_nx * 2**l) x (base_nz * 2**l) cells; spacings are
    derived from the domain so that dx_l * nx_l recovers the width exactly.
    The DG mesh is level dg_level. k + 1 must be a power of two, so that
    each DG cell is covered by (k+1) x (k+1) cells of level fv_level =
    dg_level + log2(k+1), the finest, which then has as many cells as the
    DG mesh has nodes. Immutable after construction.
    """

    def __init__(self, domain: Domain2D, base_nx: int, base_nz: int, dg_level: int, k: int):
        if base_nx < 1 or base_nz < 1:
            raise ValueError(f"base grid must be at least 1x1, got {base_nx}x{base_nz}")
        if dg_level < 0:
            raise ValueError(f"dg_level must be nonnegative, got {dg_level}")
        p = k + 1
        if p < 1 or p & (p - 1):
            raise ValueError(f"k + 1 must be a power of two for nested coarsening, got k = {k}")
        self.domain = domain
        self.dg_level = dg_level
        self.fv_level = dg_level + p.bit_length() - 1
        self.n_levels = self.fv_level + 1
        self.nx = [base_nx * 2**l for l in range(self.n_levels)]
        self.nz = [base_nz * 2**l for l in range(self.n_levels)]
        self.dx = [domain.width / n for n in self.nx]
        self.dz = [domain.height / n for n in self.nz]
