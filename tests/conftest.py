"""Shared builders for the test suite."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from dgmg import cases, mesh
from dgmg.cases import CaseSetup
from dgmg.dg import DGBasis, DGOperator
from dgmg.fv import FVLinearization
from dgmg.mesh import Domain2D
from dgmg.physics import Atmosphere, FaceAxis, PhysConstants
from dgmg.transfer import TransferOperators


@dataclass
class Setup:
    case: CaseSetup
    grids: list[mesh.Grid]  # the cycle's grids, coarsest first, as cli.build_solver makes them
    basis: DGBasis
    dg_op: DGOperator

    def fv_op(self, l=-1) -> FVLinearization:
        """The FV level on grids[l], by default the DG mesh's subgrid."""
        return FVLinearization(self.grids[l], self.case)

    def fv_levels(self) -> list[FVLinearization]:
        """One FV level per grid, as a run makes them."""
        return [self.fv_op(l) for l in range(len(self.grids))]

    def transfer(self) -> TransferOperators:
        return TransferOperators(self.basis)


def make_grids(domain: Domain2D, base_nx: int, base_nz: int, level: int, k: int) -> list[mesh.Grid]:
    """The grids of a cycle whose DG mesh is grids[level] and whose FV
    subgrid, of (k+1) x (k+1) cells per DG cell, is grids[-1]."""
    return [mesh.Grid(domain, base_nx << l, base_nz << l)
            for l in range(level + k.bit_length() + 1)]


def make_setup(case_name: str, base_nx: int, base_nz: int, level: int = 0, k: int = 3) -> Setup:
    case = cases.by_name(case_name)
    grids = make_grids(case.domain, base_nx, base_nz, level, k)
    basis = DGBasis(k)
    return Setup(case, grids, basis, DGOperator(grids[level], basis, case))


def unit_sound_speed_constants() -> PhysConstants:
    """gamma = 1.4 gas scaled so the background below has sound speed 1."""
    return PhysConstants(c_p=3.5, c_v=2.5, g=0.0, mu=0.0, p0=1.0)


def advection_case(u: float = 1.0, w: float = 0.0, domain: Domain2D | None = None,
                   periodic_z: bool = True, periodic_x: bool = True) -> CaseSetup:
    """Uniform background (rho = 1, |c_sound| = 1) for manufactured tests."""
    c = unit_sound_speed_constants()
    pbar = 1.0 / c.gamma
    rho_theta = c.p0 ** (c.R_d / c.c_p) * pbar ** (1.0 / c.gamma) / c.R_d
    atm = Atmosphere(
        constants=c,
        theta=lambda x, z: np.full(np.broadcast(x, z).shape, rho_theta),
        pressure=lambda x, z: np.full(np.broadcast(x, z).shape, pbar),
        u=u,
        w=w,
    )
    return CaseSetup(
        name="advection",
        domain=domain or Domain2D(0.0, 1.0, 0.0, 1.0),
        constants=c,
        atmosphere=atm,
        theta_pert=lambda x, z: np.zeros(np.broadcast(x, z).shape),
        faces=(FaceAxis(0, periodic_x), FaceAxis(1, periodic_z)),
        t_final=1.0,
    )


def entropy_wave(X, Z, t, amplitude=0.1, u=1.0, w=0.0):
    """Exact smooth solution of the full system on the advection background:
    density advects at the constant flow speed, pressure and velocity stay
    uniform, so the perturbation is (rho', rho' u, rho' w, 0)."""
    phase = X - u * t if w == 0.0 else X + Z - (u + w) * t
    rho_p = amplitude * np.sin(2.0 * np.pi * phase)
    U = np.zeros(np.shape(phase) + (4,))
    U[..., 0] = rho_p
    U[..., 1] = rho_p * u
    U[..., 2] = rho_p * w
    return U


def rms(u, weights=None):
    if weights is None:
        return float(np.sqrt(np.mean(np.asarray(u) ** 2)))
    return float(np.sqrt(np.sum(weights * np.asarray(u) ** 2)))


@pytest.fixture(scope="session")
def ig_small() -> Setup:
    return make_setup("inertia-gravity", 10, 1, 1)


@pytest.fixture(scope="session")
def bubble_small() -> Setup:
    return make_setup("rising-bubble", 5, 10, 0)
