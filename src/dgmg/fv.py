"""First-order finite-volume discretization on any hierarchy level.

This is the degree-0 variant of the DG scheme: piecewise-constant cell
values, HLLC face fluxes in perturbation form, two-point viscous fluxes,
and the same slip/periodic boundary treatment. It exists to drive the
multigrid preconditioner. The operator's states are laid out (nz, nx, 4),
and it also evaluates a batch of fields laid out (nz, nx, B, 4) in one
call; the linearization applies to the multigrid cycle's float32
component-major vectors (4, nz, nx).

The primitives (rho, u, w, rho*theta, p, c_s) of each cell are computed
once per call into one array, padded once for both axes with one ghost
cell per side (wrapped for periodic sides, mirrored with the normal
velocity negated for slip walls; see physics.FaceAxis). Per axis, one
HLLC call on two overlapping views of it gives the fluxes of all faces,
boundaries included, and the two-point viscous flux reads u, w and theta
from the same views.

Backgrounds are evaluated at the cell centers of the level, and the face
flux subtracts the background numerical flux computed from the two
adjacent cell backgrounds through the same face path, so the operator is
well balanced on every level independently.

Each cell's tendency depends on itself and its four face neighbours, so
the Jacobian of a level is a 5-point stencil of 4x4 blocks.
FVLinearization assembles it once from CPR-coloured FD probes,
evaluated in batches against a stencil pattern built once per level, and
applies it as one contraction over five shifted views of a ghost-padded
copy of the vector, with no neighbour table; the multigrid preconditioner
builds these linearizations once per time step. Only these FV levels are
assembled: the outer DG stage system stays Jacobian-free
(timeint.FDLinearization).
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from . import physics
from .mesh import BoundaryKind, GridHierarchy
from .physics import FaceAxis, PhysConstants, check_admissible
from .timeint import EPS_FD


class FVOperator:
    def __init__(self, hierarchy: GridHierarchy, level: int, case):
        self.level = level
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
        # difference for exact balance; they keep a batch axis of length 1
        # that broadcasts over the fields of a batch
        (self.bg_hflux_x, self.bg_gx), (self.bg_hflux_z, self.bg_gz) = (
            self._face_fluxes(self.bg[:, :, None]))

    @cached_property
    def pattern(self) -> StencilPattern:
        """The level's stencil pattern, built at its first assembly. Lazy,
        as built eagerly the patterns of a hierarchy would nearly double
        set-up: 2.4/8.2/10.2 ms against `build_solver` times of 4.1/8.7/12.6
        ms on the ig/bubble/dc benchmark grids (medians, one BLAS thread)."""
        return StencilPattern(self.nz, self.nx, self.xfaces.periodic, self.zfaces.periodic)

    def __call__(self, up: np.ndarray) -> np.ndarray:
        """Tendency of the perturbation field up (nz, nx, 4), or of each
        field of a batch up (nz, nx, B, 4); ncalls counts fields."""
        batch = up if up.ndim == 4 else up[:, :, None]
        self.ncalls += batch.shape[2]
        c = self.constants
        full = batch + self.bg[:, :, None]
        check_admissible(full, self.level, "cell average")

        (Hx, gx), (Hz, gz) = self._face_fluxes(full)
        Hx -= self.bg_hflux_x
        Hz -= self.bg_hflux_z
        if c.mu > 0.0:
            physics.subtract_viscous((Hx, Hz), (gx, gz), (self.bg_gx, self.bg_gz))

        rhs = -(Hx[:, 1:] - Hx[:, :-1]) / self.dx - (Hz[1:] - Hz[:-1]) / self.dz
        rhs[..., physics.RHO_W] -= c.g * batch[..., physics.RHO]
        return rhs if up.ndim == 4 else rhs[:, :, 0]

    def _face_fluxes(self, full):
        """(HLLC, viscous) fluxes through every x-face and every z-face of
        the batch of cell states full (nz, nx, B, 4); the viscous ones are
        None when mu = 0.

        The primitives of each cell are computed once into one array laid
        out (primitive, z-index, x-index, batch) and padded with one ghost
        cell per side of both axes, so the left and right states of the
        n + 1 faces of an axis are two overlapping views of it. The x and z
        ghost strips do not overlap, and the corners stay unused.
        """
        nz, nx, nb = full.shape[:3]
        Q = np.empty((6, nz + 2, nx + 2, nb))
        Q[:, 1:-1, 1:-1] = physics.primitives(full, self.constants)
        return (self._axis_fluxes(self.xfaces, Q[:, 1:-1, :-1], Q[:, 1:-1, 1:], self.dx),
                self._axis_fluxes(self.zfaces, Q[:, :-1, 1:-1], Q[:, 1:, 1:-1], self.dz))

    def _axis_fluxes(self, faces: FaceAxis, L, R, h: float):
        """HLLC fluxes from the padded primitives L, R of one axis, and the
        two-point viscous flux mu*rho_face*(V_R - V_L)/h of the (u, w,
        theta) rows (3, faces), zero through slip walls. The combined face
        flux is convective minus viscous."""
        faces.fill_ghosts(L.transpose(1, 2, 3, 0), R.transpose(1, 2, 3, 0))
        H = faces.flux(L, R, self.constants)
        mu = self.constants.mu
        if mu == 0.0:
            return H, None
        coef = mu * 0.5 * (L[0] + R[0])
        # component-major: each row is one contiguous block
        G = np.empty((3,) + H.shape[:-1])
        np.subtract(R[1], L[1], out=G[0])
        np.subtract(R[2], L[2], out=G[1])
        np.divide(R[3], R[0], out=G[2])
        G[2] -= L[3] / L[0]
        G *= coef
        G /= h
        faces.zero_walls(G)
        return H, G


def fv_background(case, hierarchy: GridHierarchy, level: int) -> np.ndarray:
    """Background conserved state at the cell centers of a level."""
    dx, dz = hierarchy.dx[level], hierarchy.dz[level]
    xc = hierarchy.domain.x_min + dx * (np.arange(hierarchy.nx[level]) + 0.5)
    zc = hierarchy.domain.z_min + dz * (np.arange(hierarchy.nz[level]) + 0.5)
    Xc = np.broadcast_to(xc[None, :], (hierarchy.nz[level], hierarchy.nx[level]))
    Zc = np.broadcast_to(zc[:, None], (hierarchy.nz[level], hierarchy.nx[level]))
    return case.atmosphere.state(Xc, Zc)


# Slots of the 5-point stencil, as (dj, di) offsets in the order the
# assembled blocks store them: self, east, north, south, west.
_SLOTS = ((0, 0), (0, 1), (1, 0), (-1, 0), (0, -1))


class FVLinearization:
    """Frozen Jacobian of the implicit stage residual of one FV level,
    assembled as a 5-point stencil of 4x4 blocks.

    matvec(w) applies g'(u0) w = w - alpha_dt * J(u0) w, where J is the
    Jacobian of the first-order operator op at the frozen state u0. J is
    found with CPR-coloured finite-difference probes (Curtis, Powell &
    Reid 1974): the cells are coloured so that the five cells of every
    stencil carry distinct colours, and one probe per colour and component
    perturbs that component of every cell of the colour by
    sqrt(eps) * max(rms of the component's total state, 1). Each cell then
    sees exactly one perturbed stencil cell, so the difference quotient at
    the cell is one column of its block row. The probes go to op in the
    batches of the level's stencil pattern (op.pattern, shared by every
    linearization of the level) and are evaluated in float64, and each
    batch is scattered straight into the blocks.

    alpha_dt * J is stored as float32 blocks (4, 20, cells): output
    component, stencil slot x input component, cell. matvec takes and
    returns the multigrid cycle's float32 component-major vectors
    (4, nz, nx). It copies w into a padded (4, nz + 2, nx + 2) buffer that
    it keeps, whose ghosts are wrapped on periodic sides and stay zero
    beyond slip walls, reads the five stencil slots as shifted views of
    that buffer, and contracts; no neighbour table is stored. alpha_dt = 0
    gives w exactly. Assembly evaluates op on 1 + 4 * colours fields (21
    on the usual grids), matvec on none.
    """

    def __init__(self, op: FVOperator, u0: np.ndarray, alpha_dt: float):
        pattern = op.pattern
        nz, nx = op.nz, op.nx
        cells = nz * nx
        self.periodic_x, self.periodic_z = op.xfaces.periodic, op.zfaces.periodic
        self.blocks = np.zeros((4, 20, cells), dtype=np.float32)
        self._padded = np.zeros((4, nz + 2, nx + 2), dtype=np.float32)
        self._slots = _slot_views(self._padded)
        steps = EPS_FD * np.maximum(np.sqrt(np.mean((u0 + op.bg) ** 2, axis=(0, 1))), 1.0)
        f0 = op(u0).reshape(cells, 4)
        for batch in pattern.batches:
            fields = np.repeat(u0[:, :, None], len(batch), axis=2)
            flat = fields.reshape(cells, len(batch), 4)
            for b, ((members, _, _), m) in enumerate(batch):
                flat[members, b, m] += steps[m]
            df = op(fields).reshape(cells, len(batch), 4)
            for b, ((_, rows, cols), m) in enumerate(batch):
                self.blocks[:, cols + m, rows] = ((df[rows, b] - f0[rows]) * (alpha_dt / steps[m])).T

    def matvec(self, w: np.ndarray) -> np.ndarray:
        padded = self._padded
        padded[:, 1:-1, 1:-1] = w
        _wrap_ghosts(padded, self.periodic_x, self.periodic_z)
        stencil = np.stack(self._slots).reshape(20, -1)
        out = np.einsum("ijc,jc->ic", self.blocks, stencil).reshape(w.shape)
        return np.subtract(w, out, out=out)


# Most cells x probes in one batched op call of a stencil assembly. Per
# field, a batch of at most this many cell-fields cost 5-15x less than
# single calls on the levels of up to 200 cells and 1.6-2x less on those of
# 640 to 1,024 cells; on the levels of 2,560 to 4,096 cells, batches of 2-6
# fields were within 10% of single calls either way and 8 or more up to
# 1.5x slower (one BLAS thread, 2-core x86-64 host).
_BATCH_CELLS = 4096


class StencilPattern:
    """The part of a level's stencil assembly that depends only on the
    grid: per colour, the cells it perturbs, the block rows that see one
    of them, and the first block column of the stencil slot that holds
    it. The probes, one per colour and component, are grouped into
    batches of at most _BATCH_CELLS cells x probes."""

    def __init__(self, nz: int, nx: int, periodic_x: bool, periodic_z: bool):
        colour = _stencil_colouring(nz, nx, periodic_x, periodic_z)
        padded = np.full((nz + 2, nx + 2), -1)
        padded[1:-1, 1:-1] = colour.reshape(nz, nx)
        _wrap_ghosts(padded, periodic_x, periodic_z)
        slot_colour = np.stack([v.ravel() for v in _slot_views(padded)], axis=1)
        # narrow index types: these tables stay for the life of the level
        probes = []
        for k in np.unique(colour):
            hit = slot_colour == k
            rows = np.flatnonzero(hit.any(axis=1))
            colour_k = (np.flatnonzero(colour == k).astype(np.int32), rows.astype(np.int32),
                        (4 * hit[rows].argmax(axis=1)).astype(np.int8))
            probes += [(colour_k, m) for m in range(4)]
        size = max(1, _BATCH_CELLS // (nz * nx))
        self.batches = [probes[s:s + size] for s in range(0, len(probes), size)]


def _stencil_colouring(nz: int, nx: int, periodic_x: bool, periodic_z: bool) -> np.ndarray:
    """Colour of every cell such that the distinct cells of each stencil
    differ: (i + 2j) mod 5. A periodic axis whose length is not a multiple
    of 5 breaks that pattern across its seam, so its first two columns
    (rows) take a colour set of their own."""
    j, i = np.indices((nz, nx))
    colour = (i + 2 * j) % 5
    if periodic_x and nx % 5:
        colour += 5 * (i < 2)
    if periodic_z and nz % 5:
        colour += 10 * (j < 2)
    return colour.ravel()


def _wrap_ghosts(padded: np.ndarray, periodic_x: bool, periodic_z: bool) -> None:
    """Fill the ghosts of the periodic sides of a padded (..., nz + 2,
    nx + 2) array from the opposite edge; slip-wall ghosts stay as they are."""
    if periodic_x:
        padded[..., 1:-1, 0] = padded[..., 1:-1, -2]
        padded[..., 1:-1, -1] = padded[..., 1:-1, 1]
    if periodic_z:
        padded[..., 0, 1:-1] = padded[..., -2, 1:-1]
        padded[..., -1, 1:-1] = padded[..., 1, 1:-1]


def _slot_views(padded: np.ndarray) -> list[np.ndarray]:
    """The (..., nz, nx) views of a padded array at the stencil slots."""
    nz, nx = padded.shape[-2] - 2, padded.shape[-1] - 2
    return [padded[..., 1 + dj:nz + 1 + dj, 1 + di:nx + 1 + di] for dj, di in _SLOTS]
