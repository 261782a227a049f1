"""First-order finite-volume discretization on any hierarchy level.

This is the degree-0 variant of the DG scheme: piecewise-constant cell
values, HLLC face fluxes in perturbation form, two-point viscous fluxes,
and the same slip/periodic boundary treatment. It exists to drive the
multigrid preconditioner; field layout is (nz, nx, 4).

The primitives (rho, u, w, rho*theta, p, c_s) of each cell are computed
once per call and copied per axis into an array padded with one ghost
cell per side (wrapped for periodic sides, mirrored with the normal
velocity negated for slip walls; see physics.FaceAxis). One HLLC call on
two overlapping views of it gives the fluxes of all faces, boundaries
included, and the two-point viscous flux reads u, w and theta from the
same views.

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

        self.bg = fv_background(case, hierarchy, level)

        west, east, south, north = case.bc
        self.xfaces = FaceAxis(0, west is BoundaryKind.PERIODIC)
        self.zfaces = FaceAxis(1, south is BoundaryKind.PERIODIC)

        # background numerical fluxes through the runtime face path; the
        # background two-point viscous fluxes (analytically zero for the
        # constant-primitive atmospheres) are subtracted as a grouped
        # difference for exact balance
        (self.bg_hflux_x, self.bg_gx), (self.bg_hflux_z, self.bg_gz) = self._face_fluxes(self.bg)

    def zero_field(self) -> np.ndarray:
        return np.zeros((self.nz, self.nx, 4))

    def __call__(self, up: np.ndarray) -> np.ndarray:
        self.ncalls += 1
        c = self.constants
        full = up + self.bg
        check_admissible(full, self.level, "cell average")

        (Hx, gx), (Hz, gz) = self._face_fluxes(full)
        Hx -= self.bg_hflux_x
        Hz -= self.bg_hflux_z
        if c.mu > 0.0:
            Hx[..., 1:] -= gx - self.bg_gx
            Hz[..., 1:] -= gz - self.bg_gz

        rhs = -(Hx[:, 1:] - Hx[:, :-1]) / self.dx - (Hz[1:] - Hz[:-1]) / self.dz
        rhs[..., physics.RHO_W] -= c.g * up[..., physics.RHO]
        return rhs

    def _face_fluxes(self, full):
        """(HLLC, viscous) fluxes through every x-face and every z-face of
        the cell states full; the viscous ones are None when mu = 0.

        The primitives of each cell are computed once and copied into one
        array per axis, laid out (primitive, z-index, x-index) and padded
        with one ghost cell per side, so the left and right states of the
        n + 1 faces are two overlapping views of it.
        """
        nz, nx = self.nz, self.nx
        Qx = np.empty((6, nz, nx + 2))
        Qx[..., 1:-1] = physics.primitives(full, self.constants)
        Qz = np.empty((6, nz + 2, nx))
        Qz[:, 1:-1] = Qx[..., 1:-1]
        return (self._axis_fluxes(self.xfaces, Qx[..., :-1], Qx[..., 1:], self.dx),
                self._axis_fluxes(self.zfaces, Qz[:, :-1], Qz[:, 1:], self.dz))

    def _axis_fluxes(self, faces: FaceAxis, L, R, h: float):
        """HLLC fluxes from the padded primitives L, R of one axis, and the
        two-point viscous flux mu*rho_face*(V_R - V_L)/h of the (u, w,
        theta) rows, zero through slip walls. The combined face flux is
        convective minus viscous."""
        faces.fill_ghosts(L.transpose(1, 2, 0), R.transpose(1, 2, 0))
        H = faces.flux(L, R, self.constants)
        mu = self.constants.mu
        if mu == 0.0:
            return H, None
        coef = mu * 0.5 * (L[0] + R[0])
        G = np.empty(H.shape[:-1] + (3,))
        G[..., 0] = coef * (R[1] - L[1]) / h
        G[..., 1] = coef * (R[2] - L[2]) / h
        G[..., 2] = coef * (R[3] / R[0] - L[3] / L[0]) / h
        if not faces.periodic:
            first, last = faces.ends
            G[first] = G[last] = 0.0
        return H, G


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
