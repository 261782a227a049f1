"""First-order finite-volume discretization on any hierarchy level.

This is the degree-0 variant of the DG scheme: piecewise-constant cell
values, HLLC face fluxes in perturbation form, two-point viscous fluxes,
and the same slip/periodic boundary treatment. It exists to drive the
multigrid preconditioner; field layout is (nz, nx, 4).

Per axis the cell states are copied into an array padded with one ghost
cell per side (wrapped for periodic sides, mirrored for slip walls; see
physics.FaceAxis), and one HLLC call on two overlapping views of it gives
the fluxes of all faces, boundaries included.

Backgrounds are evaluated at the cell centers of the level, and the face
flux subtracts the background numerical flux computed from the two
adjacent cell backgrounds through the same face path, so the operator is
well balanced on every level independently.
"""

from __future__ import annotations

import numpy as np

from . import physics
from .mesh import BoundaryKind, GridHierarchy
from .physics import FaceAxis, PhysConstants, check_admissible

_EPS_FD = float(np.sqrt(np.finfo(float).eps))


class FVOperator:
    def __init__(self, hierarchy: GridHierarchy, level: int, case):
        self.hierarchy = hierarchy
        self.level = level
        self.case = case
        self.constants: PhysConstants = case.constants
        self.nx = hierarchy.nx[level]
        self.nz = hierarchy.nz[level]
        self.dx = hierarchy.dx[level]
        self.dz = hierarchy.dz[level]
        self.ncalls = 0

        dom = hierarchy.domain
        self.xc = dom.x_min + self.dx * (np.arange(self.nx) + 0.5)
        self.zc = dom.z_min + self.dz * (np.arange(self.nz) + 0.5)
        Xc = np.broadcast_to(self.xc[None, :], (self.nz, self.nx))
        Zc = np.broadcast_to(self.zc[:, None], (self.nz, self.nx))
        self.bg = case.atmosphere.state(Xc, Zc)

        west, east, south, north = case.bc
        self.xfaces = FaceAxis(0, west is BoundaryKind.PERIODIC)
        self.zfaces = FaceAxis(1, south is BoundaryKind.PERIODIC)

        c = self.constants
        bg = self.bg
        # background numerical fluxes through the runtime face path
        self.bg_hflux_x, self.bg_hflux_z = self._face_fluxes(bg)
        if c.mu > 0.0:
            # background two-point viscous fluxes (analytically zero for the
            # constant-primitive atmospheres) subtracted as a grouped
            # difference for exact balance
            self.bg_gx, self.bg_gz = self._viscous_face_fluxes(bg)

    def zero_field(self) -> np.ndarray:
        return np.zeros((self.nz, self.nx, 4))

    def background(self) -> np.ndarray:
        return self.bg

    def __call__(self, up: np.ndarray) -> np.ndarray:
        self.ncalls += 1
        c = self.constants
        full = up + self.bg
        check_admissible(full, self.level, "cell average")

        Hx, Hz = self._face_fluxes(full)
        Hx -= self.bg_hflux_x
        Hz -= self.bg_hflux_z

        if c.mu > 0.0:
            gx, gz = self._viscous_face_fluxes(full)
            Hx[..., 1:] -= gx - self.bg_gx
            Hz[..., 1:] -= gz - self.bg_gz

        rhs = -(Hx[:, 1:] - Hx[:, :-1]) / self.dx - (Hz[1:] - Hz[:-1]) / self.dz
        rhs[..., physics.RHO_W] -= c.g * up[..., physics.RHO]
        return rhs

    def _face_fluxes(self, full):
        """HLLC fluxes through every x- and z-face of the cell states full.

        Each axis pads the cells with one ghost per side, so the left and
        right states of the n + 1 faces are two overlapping views.
        """
        nz, nx = self.nz, self.nx
        Px = np.empty((nz, nx + 2, 4))
        Px[:, 1:-1] = full
        Pz = np.empty((nz + 2, nx, 4))
        Pz[1:-1] = full
        c = self.constants
        self.xfaces.fill_ghosts(Px[:, :-1], Px[:, 1:])
        self.zfaces.fill_ghosts(Pz[:-1], Pz[1:])
        return self.xfaces.flux(Px[:, :-1], Px[:, 1:], c), self.zfaces.flux(Pz[:-1], Pz[1:], c)

    def _viscous_face_fluxes(self, full):
        """Two-point viscous flux mu*rho_face*(V_R - V_L)/h per face for
        the (u, w, theta) rows; zero through slip walls. The combined face
        flux is convective minus viscous."""
        mu = self.constants.mu
        rho = full[..., physics.RHO]
        V = full[..., 1:] / rho[..., None]

        gx = np.zeros((self.nz, self.nx + 1, 3))
        gx[:, 1:-1] = mu * 0.5 * (rho[:, :-1] + rho[:, 1:])[..., None] * (
            V[:, 1:] - V[:, :-1]
        ) / self.dx
        if self.xfaces.periodic:
            gx[:, 0] = mu * 0.5 * (rho[:, -1] + rho[:, 0])[..., None] * (
                V[:, 0] - V[:, -1]
            ) / self.dx
            gx[:, -1] = gx[:, 0]

        gz = np.zeros((self.nz + 1, self.nx, 3))
        gz[1:-1] = mu * 0.5 * (rho[:-1] + rho[1:])[..., None] * (V[1:] - V[:-1]) / self.dz
        if self.zfaces.periodic:
            gz[0] = mu * 0.5 * (rho[-1] + rho[0])[..., None] * (V[0] - V[-1]) / self.dz
            gz[-1] = gz[0]
        return gx, gz


def fv_background(case, hierarchy: GridHierarchy, level: int) -> np.ndarray:
    """Background conserved state at the cell centers of a level."""
    dx, dz = hierarchy.dx[level], hierarchy.dz[level]
    xc = hierarchy.domain.x_min + dx * (np.arange(hierarchy.nx[level]) + 0.5)
    zc = hierarchy.domain.z_min + dz * (np.arange(hierarchy.nz[level]) + 0.5)
    Xc = np.broadcast_to(xc[None, :], (hierarchy.nz[level], hierarchy.nx[level]))
    Zc = np.broadcast_to(zc[:, None], (hierarchy.nz[level], hierarchy.nx[level]))
    return case.atmosphere.state(Xc, Zc)


class FVLinearization:
    """Frozen-state finite-difference linearization of the stage residual.

    Applies g'(u0) w = w - alpha_dt * (f(u0 + eps w) - f(u0)) / eps with
    eps = sqrt(machine eps) / ||w||; a zero w short-circuits without an
    operator evaluation. The operator may be any callable on fields, which
    keeps the FD machinery reusable for model problems.
    """

    def __init__(self, op, u0: np.ndarray, alpha_dt: float, f0: np.ndarray | None = None):
        self.op = op
        self.u0 = u0
        self.alpha_dt = alpha_dt
        self.f0 = op(u0) if f0 is None else f0

    def matvec(self, w: np.ndarray) -> np.ndarray:
        norm = float(np.sqrt(np.mean(w * w)))
        if norm == 0.0:
            return np.zeros_like(w)
        if self.alpha_dt == 0.0:
            return w.copy()
        eps = _EPS_FD / norm
        df = (self.op(self.u0 + eps * w) - self.f0) / eps
        return w - self.alpha_dt * df


def fv_residual_linop(lin: FVLinearization, w: np.ndarray) -> np.ndarray:
    """Jacobian-vector product of the low-order stage residual."""
    return lin.matvec(w)
