"""The domain and the uniform Cartesian quad grids on it.

A Grid is one nx x nz grid of the domain. The DG mesh, its finite-volume
subgrid and every level of the multigrid cycle between them are Grid
values; cli.build_solver, the one place that knows how they nest, makes
each level by splitting every cell of the next coarser one into four.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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


@dataclass(frozen=True)
class Grid:
    """The uniform nx x nz Cartesian grid of a domain; its spacings are
    derived from the domain, so that dx * nx recovers the width exactly."""

    domain: Domain2D
    nx: int
    nz: int

    @property
    def dx(self) -> float:
        return self.domain.width / self.nx

    @property
    def dz(self) -> float:
        return self.domain.height / self.nz

    def centres(self) -> tuple[np.ndarray, np.ndarray]:
        """The x and z coordinates of the cell centres."""
        return (self.domain.x_min + self.dx * (np.arange(self.nx) + 0.5),
                self.domain.z_min + self.dz * (np.arange(self.nz) + 0.5))
