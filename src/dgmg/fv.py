"""First-order finite-volume discretization on any grid of the domain.

This is the degree-0 variant of the DG scheme: piecewise-constant cell
values, HLLC face fluxes, two-point viscous fluxes, and the same
slip/periodic boundary treatment. It exists to drive the multigrid
preconditioner, which sees a level only through its linearization, so no
run evaluates an FV tendency. A run makes one FVLinearization per grid of
the cycle: its constants and geometry, the background state at its cell
centers, its two face axes, the face flux, and the stencil that each
assembly rewrites in place. The states are laid out (nz, nx, 4); the
linearization applies to the multigrid cycle's float32 component-major
vectors (4, nz, nx).

The primitives (rho, u, w, rho*theta, p, c_s) of each cell of a state are
computed once into one array, padded once for both axes with one ghost
cell per side. Every ghost of this module is filled by physics.FaceAxis,
the DG operator's boundary rule. Per axis, one HLLC call on two
overlapping views of it gives the fluxes of all faces, boundaries
included, and the two-point viscous flux reads u, w and theta from the
same views.

Each cell's tendency is a sum of face fluxes over h, and each face flux
depends on the two cells of the face, so the Jacobian of a level is a
5-point stencil of 4x4 blocks. FVLinearization.assemble finds it from
one-sided finite differences of the face fluxes, the usual implicit-FV
assembly (Blazek, Computational Fluid Dynamics, ch. 6), and matvec
applies it as one contraction over five shifted views of a ghost-padded
copy of the vector, with no neighbour table; the multigrid preconditioner
assembles every level at its background (a zero perturbation) and keeps
that stack for the run, re-assembling it only when alpha_dt changes
(MultigridPreconditioner.begin_step). Only these
FV levels are assembled: the outer DG stage system stays Jacobian-free
(timeint.FDLinearization).
"""

from __future__ import annotations

import functools

import numpy as np

from . import physics
from .mesh import Grid
from .physics import FaceAxis, PhysConstants, check_admissible
from .timeint import EPS_FD

# Slots of the 5-point stencil, as (dj, di) offsets in the order the
# assembled blocks store them: self, east, north, south, west.
_SLOTS = ((0, 0), (0, 1), (1, 0), (-1, 0), (0, -1))


class FVLinearization:
    """One FV level and the frozen Jacobian of its implicit stage residual,
    assembled as a 5-point stencil of 4x4 blocks.

    assemble(u0, alpha_dt) freezes the level at the state u0; matvec(w,
    out) then applies g'(u0) w = w - alpha_dt * J(u0) w, where J is the
    Jacobian of the level's first-order tendency. J is found from
    one-sided finite differences of the face fluxes. For each component m,
    that component of every cell is perturbed by sqrt(eps) * max(rms of the
    component's total state, 1), and the padded primitives of the perturbed
    cells are built once, ghosts included. Each face flux is then
    evaluated twice more per axis: with only its left states read from the
    perturbed array, and with only its right ones. A face sees one
    perturbed state in each, so the differences are its derivatives with
    respect to its left and right cell. A cell's tendency is (F_west -
    F_east)/h per axis, so its self block gains (dR_west - dL_east)/h, its
    east block is -dR_east/h and its west block dL_west/h. At a slip wall
    the ghost mirrors the cell itself, so the wall face's derivative goes
    into the self block. The gravity source enters the self block exactly.
    The self blocks, and the slots that read one cell on a periodic axis of
    one or two cells, are summed in float64 before they are stored.

    alpha_dt * J is stored as float32 blocks (4, 20, cells): output
    component, stencil slot x input component, cell. Each assembly writes
    every (slot, component) block in place, so nothing of an earlier state
    survives it. matvec takes and returns the multigrid cycle's float32
    component-major vectors (4, nz, nx). It copies w into the interior of a
    padded (4, nz + 2, nx + 2) buffer, whose ghosts are wrapped on periodic
    sides and stay zero beyond slip walls (the self blocks hold the wall
    faces), copies the five stencil slots, shifted views of that buffer,
    into a (5, 4, nz, nx) buffer, and contracts into out; no neighbour
    table is stored. alpha_dt = 0 gives w exactly. Assembly makes 1 + 4
    primitive evaluations and 2 + 16 face-flux evaluations; matvec none.
    """

    def __init__(self, grid: Grid, case):
        self.grid = grid
        self.constants: PhysConstants = case.constants
        self.nx = nx = grid.nx
        self.nz = nz = grid.nz
        self.dx, self.dz = grid.dx, grid.dz
        self.bg = fv_background(case, grid)

        self.xfaces, self.zfaces = case.faces
        self._padded = np.zeros((4, nz + 2, nx + 2), dtype=np.float32)
        self._slots = [self._padded[:, 1 + dj:nz + 1 + dj, 1 + di:nx + 1 + di]
                       for dj, di in _SLOTS]
        self._wrapped = [(faces, _ghost_sides(faces, self._padded))
                         for faces in (self.xfaces, self.zfaces) if faces.periodic]

    # the level's large arrays are made by its first assembly: made with it,
    # while an earlier run's arrays may still be alive, they fragment the
    # heap (repeated density-current runs in one process grew by 10 MB RSS)
    @functools.cached_property
    def blocks(self) -> np.ndarray:
        """alpha_dt * J as float32 (4, 20, cells), rewritten by assemble."""
        return np.empty((4, 20, self.nz * self.nx), dtype=np.float32)

    @functools.cached_property
    def _stencil(self) -> np.ndarray:
        return np.empty((5, 4, self.nz, self.nx), dtype=np.float32)

    def padded_primitives(self, full: np.ndarray) -> np.ndarray:
        """The primitives of the cell states full (nz, nx, 4), laid out
        (primitive, z-index, x-index) and padded with one ghost cell per
        side of both axes, the ghosts filled from this array's own cells.
        The left and right states of the n + 1 faces of an axis are two
        overlapping views of it; the x and z ghost strips do not overlap,
        and the corners stay unused."""
        Q = np.empty((6, self.nz + 2, self.nx + 2))
        Q[:, 1:-1, 1:-1] = physics.primitives(full, self.constants)
        for faces in (self.xfaces, self.zfaces):
            faces.fill_ghosts(*_ghost_sides(faces, Q))
        return Q

    def face_flux(self, faces: FaceAxis, QL: np.ndarray, QR: np.ndarray) -> np.ndarray:
        """The combined flux through the faces of one axis, the left states
        read from the padded primitives QL and the right ones from QR: the
        HLLC flux minus, when mu > 0, the two-point viscous flux
        mu*rho_face*(V_R - V_L)/h of the (u, w, theta) rows, which is zero
        through slip walls."""
        L, R = _face_sides(faces, QL, QR)
        H = faces.flux(L, R, self.constants)
        mu = self.constants.mu
        if mu == 0.0:
            return H
        coef = mu * 0.5 * (L[0] + R[0])
        # component-major: each row is one contiguous block
        G = np.empty((3,) + H.shape[:-1])
        np.subtract(R[1], L[1], out=G[0])
        np.subtract(R[2], L[2], out=G[1])
        np.divide(R[3], R[0], out=G[2])
        G[2] -= L[3] / L[0]
        G *= coef
        G /= self.dz if faces.normal else self.dx
        faces.zero_walls(G)
        for i, row in enumerate(G):
            H[..., 1 + i] -= row
        return H

    def assemble(self, u0: np.ndarray, alpha_dt: float) -> np.ndarray:
        """Rewrite the blocks as alpha_dt * J(u0), u0 (nz, nx, 4) the
        perturbation of the frozen state from the background. Returns the
        stiffness rate (nz, nx) of the frozen state (physics.stiffness_rate),
        from the wave speeds of the primitives the assembly computes."""
        nz, nx = self.nz, self.nx
        full = u0 + self.bg
        check_admissible(full, self.grid, "cell average")
        steps = EPS_FD * np.maximum(np.sqrt(np.mean(full ** 2, axis=(0, 1))), 1.0)
        Q0 = self.padded_primitives(full)
        # per axis: faces, spacing, cells along it, and the slots of the
        # neighbour across its last and its first face
        axes = ((self.xfaces, self.dx, nx, 1, 4), (self.zfaces, self.dz, nz, 2, 3))
        F0 = [self.face_flux(faces, Q0, Q0) for faces, *_ in axes]
        # (output component, slot, input component, z-index, x-index)
        blocks = self.blocks.reshape(4, 5, 4, nz, nx)
        for m in range(4):
            up = full.copy()
            up[..., m] += steps[m]
            Qm = self.padded_primitives(up)
            diag = np.zeros((4, nz, nx))
            if m == physics.RHO:
                diag[physics.RHO_W] = -alpha_dt * self.constants.g
            for (faces, h, n, east_slot, west_slot), f0 in zip(axes, F0):
                scale = alpha_dt / (steps[m] * h)
                dL, dR = (np.moveaxis(self.face_flux(faces, QL, QR) - f0, -1, 0) * scale
                          for QL, QR in ((Qm, Q0), (Q0, Qm)))
                # (4, z-index, x-index) views of the faces west (south) and
                # east (north) of each cell, and of the first and last cells
                lead = (slice(None),) * (2 - faces.normal)
                west_face, east_face = lead + (slice(None, -1),), lead + (slice(1, None),)
                first, last = ((slice(None),) + e for e in faces.ends)
                diag += dR[west_face]
                diag -= dL[east_face]
                east, west = -dR[east_face], dL[west_face]
                if not faces.periodic:
                    diag[first] += west[first]
                    diag[last] += east[last]
                    west[first] = east[last] = 0.0
                elif n == 1:  # east, west and self read the cell itself
                    diag += east + west
                    east[:] = west[:] = 0.0
                elif n == 2:  # east and west read the same cell
                    east += west
                    west[:] = 0.0
                blocks[:, east_slot, m] = east
                blocks[:, west_slot, m] = west
            blocks[:, 0, m] = diag
        return physics.stiffness_rate(*physics.wave_speeds(Q0[:, 1:-1, 1:-1]), self.dx, self.dz,
                                      self.constants.mu)

    def matvec(self, w: np.ndarray, out: np.ndarray) -> np.ndarray:
        """g'(u0) w of a float32 (4, nz, nx) w, written into out (contiguous
        (4, nz, nx)): in float32 for a float32 out, as the cycle applies it,
        and in float64 for a float64 out, as Level.factor probes it."""
        self._padded[:, 1:-1, 1:-1] = w
        for faces, sides in self._wrapped:
            faces.fill_ghosts(*sides)
        for slot, view in zip(self._stencil, self._slots):
            slot[...] = view
        np.einsum("ijc,jc->ic", self.blocks, self._stencil.reshape(20, -1),
                  out=out.reshape(4, -1))
        return np.subtract(w, out, out=out)


def _face_sides(faces: FaceAxis, QL: np.ndarray, QR: np.ndarray):
    """The (6, z-index, x-index) views of the left states of the faces of
    one axis in the padded array QL and of their right states in QR."""
    if faces.normal == 0:
        return QL[:, 1:-1, :-1], QR[:, 1:-1, 1:]
    return QL[:, :-1, 1:-1], QR[:, 1:, 1:-1]


def _ghost_sides(faces: FaceAxis, Q: np.ndarray):
    """The face states of one axis in the padded array Q (rows, z-index,
    x-index), laid out (z-index, x-index, row) for FaceAxis.fill_ghosts."""
    return [side.transpose(1, 2, 0) for side in _face_sides(faces, Q, Q)]


def fv_background(case, grid: Grid) -> np.ndarray:
    """Background conserved state at the cell centres of a grid."""
    xc, zc = grid.centres()
    return case.atmosphere.state(*np.broadcast_arrays(xc[None, :], zc[:, None]))
