"""Nested Cartesian quad-grid hierarchy and the DG and FV subgrid levels.

The hierarchy is a stack of uniform quad grids where level l+1 is obtained
from level l by splitting every cell into four children. The DG mesh lives
on one level; the finite-volume subgrid with matching degree-of-freedom
count lives log2(k+1) levels finer, so a degree-k DG cell is covered by
exactly (k+1) x (k+1) FV subcells.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass


class BoundaryKind(enum.Enum):
    PERIODIC = "periodic"
    SLIP = "slip"


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
    """Uniform Cartesian grids from the coarse base (level 0) upward.

    Level l has (base_nx * 2**l) x (base_nz * 2**l) cells; spacings are
    derived from the domain so that dx_l * nx_l recovers the width exactly.
    Immutable after construction.
    """

    def __init__(self, domain: Domain2D, base_nx: int, base_nz: int, n_levels: int):
        if base_nx < 1 or base_nz < 1:
            raise ValueError(f"base grid must be at least 1x1, got {base_nx}x{base_nz}")
        if n_levels < 1:
            raise ValueError(f"need at least one level, got {n_levels}")
        self.domain = domain
        self.n_levels = n_levels
        self.nx = [base_nx * 2**l for l in range(n_levels)]
        self.nz = [base_nz * 2**l for l in range(n_levels)]
        self.dx = [domain.width / n for n in self.nx]
        self.dz = [domain.height / n for n in self.nz]


@dataclass(frozen=True)
class SubgridMap:
    """Relates the DG mesh level to its finite-volume subgrid level.

    Each DG cell is covered by subcells_per_side**2 FV cells, giving the
    two discretizations the same number of degrees of freedom per component.
    """

    dg_level: int
    fv_level: int
    subcells_per_side: int  # k + 1


def build_hierarchy(
    domain: Domain2D, base_nx: int, base_nz: int, dg_refine_level: int, k: int
) -> tuple[GridHierarchy, SubgridMap]:
    """Build the grid stack for a degree-k DG mesh at the given refinement.

    Requires k+1 to be a power of two so that the FV subgrid nests into the
    binary coarsening of the hierarchy. The returned hierarchy has
    dg_refine_level + log2(k+1) + 1 grids; the finest is the FV subgrid.
    """
    if dg_refine_level < 0:
        raise ValueError(f"dg_refine_level must be nonnegative, got {dg_refine_level}")
    p = k + 1
    if p < 1 or (p & (p - 1)) != 0:
        raise ValueError(
            f"k + 1 must be a power of two for nested coarsening, got k = {k}"
        )
    extra = int(math.log2(p))
    n_levels = dg_refine_level + extra + 1
    hierarchy = GridHierarchy(domain, base_nx, base_nz, n_levels)
    subgrid = SubgridMap(
        dg_level=dg_refine_level, fv_level=dg_refine_level + extra, subcells_per_side=p
    )
    return hierarchy, subgrid
