"""Nodal tensor-product DG discretization of the perturbation system.

The solution is stored nodally at tensor Gauss-Legendre points, so the
mass matrix is diagonal and volume integrals collocate with the nodes.
Field layout: array of shape (nz, nx, p, p, 4) with axes (cell row,
cell column, z-node, x-node, component) and p = k + 1.

The spatial operator returns f(U') = M^-1 L(U') for the well-balanced
perturbation equations: volume fluxes and sources are differences against
the background, face fluxes are HLLC differences against the background
numerical flux evaluated through the identical code path, which makes
f(0) = 0 bit-exact.

The total trace states of all faces go into one buffer, padded per axis
with ghost states (wrapped for periodic sides, mirrored for slip walls;
see physics.FaceAxis). One admissibility check covers the whole buffer.
Per axis, one physics.primitives call gives the primitives of all left
and right states, with rho and rho*theta as views of the buffer, and one
HLLC call covers interior and boundary faces alike.

Contractions along the x-node axis are single GEMMs of (rows, p*q) views
against kron(M, I_q).T (kron_t(M, np.eye(q))), the z-node ones batched
matmuls on (nz*nx, p, p*q) views.

The viscous terms are component-major: the primitives (u, w, theta) and
their gradients are (3, nz, nx, p, p) arrays, the gradients one GEMM each
on per-cell (p*p) rows, and the traces of the primitives and of their
normal gradients go into (value or gradient, side, 3, faces) arrays padded
like the face buffer. Each of the three viscous rows then updates the
(nz*nx*p*p) column of its component of a flux with one op.

All intermediates go to work arrays that the constructor makes once: its
own background evaluation and every call write into the same arrays.
"""

from __future__ import annotations

import numpy as np

from . import physics
from .mesh import Grid
from .physics import FaceAxis, PhysConstants, check_admissible
from .quadrature import gauss_legendre


def kron_t(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """np.kron(A, B).T as one broadcast product: the same bits at a fraction
    of np.kron's cost. A (rows, s*q) view of (node, component) columns times
    kron_t(M, np.eye(q)) applies the (r, s) matrix M along the node axis."""
    return (A.T[:, None, :, None] * B.T[None, :, None, :]).reshape(A.shape[1] * B.shape[1], -1)


class DGBasis:
    """1D Lagrange basis on Gauss-Legendre nodes of [0, 1].

    Carries the differentiation matrix, its weak (mass-scaled) form, the
    trace vectors at the interval ends and the diagonal mass weights.
    """

    def __init__(self, k: int):
        rule = gauss_legendre(k)
        self.k = k
        self.p = k + 1
        self.nodes = rule.nodes
        self.weights = rule.weights
        # barycentric weights
        diff = self.nodes[:, None] - self.nodes[None, :]
        np.fill_diagonal(diff, 1.0)
        self.bary = 1.0 / np.prod(diff, axis=1)
        # D[i, j] = l_j'(node_i)
        D = np.zeros((self.p, self.p))
        for i in range(self.p):
            for j in range(self.p):
                if i != j:
                    D[i, j] = (self.bary[j] / self.bary[i]) / (
                        self.nodes[i] - self.nodes[j]
                    )
        np.fill_diagonal(D, -D.sum(axis=1))
        self.diff = D
        # weak-form matrix: (Dhat F)_i = sum_m (w_m / w_i) l_i'(node_m) F_m
        self.dhat = (self.weights[None, :] / self.weights[:, None]) * D.T
        e0 = self.eval_matrix(np.array([0.0]))[0]
        e1 = self.eval_matrix(np.array([1.0]))[0]
        self.traces = np.stack([e0, e1])
        self.lift0 = e0 / self.weights
        self.lift1 = e1 / self.weights

    def eval_matrix(self, pts: np.ndarray) -> np.ndarray:
        """Values of every Lagrange basis function at pts, shape (npts, p)."""
        pts = np.atleast_1d(np.asarray(pts, dtype=float))
        diff = pts[:, None] - self.nodes[None, :]
        hit = diff == 0.0
        safe = np.where(hit, 1.0, diff)
        terms = self.bary[None, :] / safe
        out = terms / terms.sum(axis=1, keepdims=True)
        rows = hit.any(axis=1)
        out[rows] = hit[rows].astype(float)
        return out


class DGOperator:
    """Spatial operator for one case on a DG mesh, the grid of its cells.

    Precomputes node coordinates and all background data (volume states,
    face states, background numerical fluxes) at construction; the
    per-call work is pure vectorized arithmetic.
    """

    def __init__(self, grid: Grid, basis: DGBasis, case):
        self.grid = grid
        self.basis = basis
        self.constants: PhysConstants = case.constants
        self.nx, self.nz, self.dx, self.dz = grid.nx, grid.nz, grid.dx, grid.dz

        p = basis.p
        dom = grid.domain
        x_edges = dom.x_min + self.dx * np.arange(self.nx + 1)
        z_edges = dom.z_min + self.dz * np.arange(self.nz + 1)
        # node coordinates per cell: xn[cell, node]
        xn = x_edges[:-1, None] + self.dx * basis.nodes[None, :]
        zn = z_edges[:-1, None] + self.dz * basis.nodes[None, :]
        # volume node coordinate arrays, shape (nz, nx, p, p)
        self.X = np.broadcast_to(xn[None, :, None, :], (self.nz, self.nx, p, p))
        self.Z = np.broadcast_to(zn[:, None, :, None], (self.nz, self.nx, p, p))

        atm = case.atmosphere
        self.bg_vol = atm.state(self.X, self.Z)
        self.bg_Fx, self.bg_Fz = physics.flux_convective_xz(self.bg_vol, self.constants)

        # x-face background: faces indexed 0..nx, nodes along z
        Xf = np.broadcast_to(x_edges[None, :, None], (self.nz, self.nx + 1, p))
        Zf = np.broadcast_to(zn[:, None, :], (self.nz, self.nx + 1, p))
        self.bg_xface = atm.state(Xf, Zf)
        # z-face background: faces 0..nz, nodes along x
        Xg = np.broadcast_to(xn[None, :, :], (self.nz + 1, self.nx, p))
        Zg = np.broadcast_to(z_edges[:, None, None], (self.nz + 1, self.nx, p))
        self.bg_zface = atm.state(Xg, Zg)

        self.xfaces, self.zfaces = case.faces

        # GEMM operands of the x-node contractions and of the lifting
        self.dhat_x, self.traces_x = (kron_t(M, np.eye(4)) for M in (basis.dhat, basis.traces))
        lifts = np.stack([basis.lift0, basis.lift1], axis=1)
        self.lift_x = kron_t(lifts, np.eye(4)).reshape(2, 4, -1)
        self.lift_z = kron_t(lifts, np.eye(4 * p)).reshape(2, 4 * p, -1)

        # work arrays every call overwrites: the total state (then the z
        # contraction), the two volume fluxes, the face buffer with its
        # ghost-padded views Bx (2, nz, nx + 1, p, 4) and Bz (2, nz + 1, nx,
        # p, 4), and the output of the trace GEMMs
        nz, nx = self.nz, self.nx
        self._full = np.empty((nz, nx, p, p, 4))
        self._flux = (np.empty_like(self._full), np.empty_like(self._full))
        nbx = 2 * nz * (nx + 1) * p * 4
        self._buf = np.empty(nbx + 2 * (nz + 1) * nx * p * 4)
        self._Bx = self._buf[:nbx].reshape(2, nz, nx + 1, p, 4)
        self._Bz = self._buf[nbx:].reshape(2, nz + 1, nx, p, 4)
        self._traces = np.empty(nz * nx * p * 2 * 4)

        c = self.constants
        # background numerical fluxes, evaluated through the same face path
        # as the runtime fluxes so the U'=0 difference is bit-exact
        Bx, Bz = self._face_states(self.zero_field())
        self.bg_hflux_x = self._axis_flux(self.xfaces, Bx)
        self.bg_hflux_z = self._axis_flux(self.zfaces, Bz)

        # interior-penalty coefficient eta/h with eta = (k+1)^2
        self.pen_x = p * p / self.dx
        self.pen_z = p * p / self.dz

        if c.mu > 0.0:
            # the gradients as (p*p, p*p) operators on per-cell (z-node,
            # x-node) rows, 1/h folded in; the trace rows (value or normal
            # gradient) x (west or east), applied along the x-node axis as
            # they are and along the z-node axis as a (p*p, 4p) operator
            eye, D = np.eye(p), basis.diff
            self.vgrad_x, self.vgrad_z = kron_t(eye, D / self.dx), kron_t(D / self.dz, eye)
            self.vtrace_x = np.vstack([basis.traces, basis.traces @ D / self.dx])
            self.vtrace_z = kron_t(np.vstack([basis.traces, basis.traces @ D / self.dz]), eye)
            # viscous work arrays, component-major: the primitives V (3, nz,
            # nx, p, p), their x and z gradients G, the rows mu*rho, the
            # trace-GEMM output, and per axis the padded traces T (value or
            # gradient, side, 3, faces) and a block A of seven face-sized rows
            # for the flux, its scratch and the density sum
            self._V = np.empty((3, nz, nx, p, p))
            self._G = np.empty((2,) + self._V.shape)
            self._mu_rho = np.empty((nz, nx, p, p))
            self._vtraces = np.empty((3 * nz * nx, 4 * p))
            self._vfaces = [(np.empty((2, 2, 3) + shape), np.empty((7,) + shape))
                            for shape in ((nz, nx + 1, p), (nz + 1, nx, p))]
            # discrete viscous fluxes of the background itself; analytically
            # zero for the constant-primitive atmospheres used with mu > 0,
            # subtracted as grouped differences so that the perturbation
            # operator vanishes bit-exactly on U' = 0. The background keeps
            # the G its evaluation wrote, and the calls get a fresh one.
            V, self.bg_visc_vol = self._viscous_volume_fluxes(self.bg_vol)
            self._G = np.empty_like(self.bg_visc_vol)
            self.bg_hv = [h.copy() for h in self._viscous_face_fluxes(V, Bx, Bz)]

        w2d = basis.weights[:, None] * basis.weights[None, :]
        w = np.broadcast_to(
            (self.dx * self.dz * w2d)[None, None, :, :, None],
            (self.nz, self.nx, p, p, 4),
        )
        self.norm_weights = w / w.sum()

    # -- small helpers -------------------------------------------------

    def zero_field(self) -> np.ndarray:
        p = self.basis.p
        return np.zeros((self.nz, self.nx, p, p, 4))

    def _admissible_faces(self):
        """One check over the face buffer; the ghosts repeat traces, so
        only a failure needs the per-cell views to find the cell."""
        buf, Bx, Bz = self._buf, self._Bx, self._Bz
        if np.all(np.minimum(buf[physics.RHO::4], buf[physics.RHO_THETA::4]) > 0.0):
            return
        for traces in (Bx[1, :, :-1], Bx[0, :, 1:], Bz[1, :-1], Bz[0, 1:]):
            check_admissible(traces, self.grid, "face trace")

    def rate(self, Up: np.ndarray) -> np.ndarray:
        """Per-cell stiffness rate (physics.stiffness_rate) of U' + Ubar from
        the node maxima of the wave speeds at the effective spacing h/(2k+1)."""
        speeds = physics.wave_speeds(physics.primitives(Up + self.bg_vol, self.constants))
        fac = 2 * self.basis.k + 1
        return physics.stiffness_rate(*(s.max(axis=(2, 3)) for s in speeds), self.dx / fac,
                                      self.dz / fac, self.constants.mu)

    def stable_dt(self, Up: np.ndarray, cfl: float = 0.8) -> float:
        """CFL-based explicit step from the current stiffness rates; the
        stability limit of the SSP(4,3) scheme sits near cfl = 1 in this
        normalization."""
        return cfl / float(self.rate(Up).max())

    # -- the operator --------------------------------------------------

    def __call__(self, Up: np.ndarray, t: float = 0.0) -> np.ndarray:
        """f(U'), a new array; the intermediates go to the operator's work
        arrays, so calls must not overlap."""
        c = self.constants
        b = self.basis
        nz, nx, p = self.nz, self.nx, b.p

        full = np.add(Up, self.bg_vol, out=self._full)
        check_admissible(full, self.grid, "volume node")

        # volume flux difference against the background
        Fx, Fz = physics.flux_convective_xz(full, c, out=self._flux)
        Fx -= self.bg_Fx
        Fz -= self.bg_Fz

        viscous = c.mu > 0.0
        if viscous:
            V, G = self._viscous_volume_fluxes(full)
            physics.subtract_viscous((Fx, Fz), G, self.bg_visc_vol)

        # the face fluxes come before rhs is allocated, so that the HLLC
        # temporaries are freed by then
        Bx, Bz = self._face_states(Up)
        self._admissible_faces()
        Hx = self._axis_flux(self.xfaces, Bx)
        Hx -= self.bg_hflux_x
        Hz = self._axis_flux(self.zfaces, Bz)
        Hz -= self.bg_hflux_z

        if viscous:
            physics.subtract_viscous((Hx, Hz), self._viscous_face_fluxes(V, Bx, Bz), self.bg_hv)

        rhs = (Fx.reshape(-1, 4 * p) @ self.dhat_x).reshape(nz, nx, p, p, 4)
        rhs /= self.dx
        # full is dead: its buffer takes the z contraction
        work = np.matmul(b.dhat, Fz.reshape(nz * nx, p, p * 4), out=full.reshape(nz * nx, p, p * 4))
        work /= self.dz
        rhs += work.reshape(rhs.shape)
        # so is Fz: its rho column takes the gravity source
        rhs[..., physics.RHO_W] -= np.multiply(c.g, Up[..., physics.RHO], out=Fz[..., physics.RHO])

        # lifting (east flux * lift1 - west flux * lift0) / h of Hx seen as
        # (nz, nx*p, 4) and Hz as (nz*nx, p*4), into the dead work and Fx
        for east, west, lift, h in (
            (Hx[:, 1:].reshape(nz, -1, 4), Hx[:, :-1].reshape(nz, -1, 4), self.lift_x, self.dx),
            (Hz[1:].reshape(nz * nx, -1), Hz[:-1].reshape(nz * nx, -1), self.lift_z, self.dz),
        ):
            shape = east.shape[:-1] + (-1,)
            lifted = np.matmul(east, lift[1], out=work.reshape(shape))
            lifted -= np.matmul(west, lift[0], out=Fx.reshape(shape))
            lifted /= h
            rhs -= lifted.reshape(rhs.shape)
        return rhs

    def _face_states(self, Up: np.ndarray):
        """Total face states of U' + Ubar into the face buffer; returns its
        ghost-filled views Bx (2, nz, nx + 1, p, 4) and Bz (2, nz + 1, nx,
        p, 4): index 0 holds the east (north) trace left of each face, index
        1 the west (south) trace right of it."""
        b = self.basis
        nz, nx, p = self.nz, self.nx, b.p
        Bx, Bz, traces = self._Bx, self._Bz, self._traces
        tx = np.matmul(Up.reshape(-1, 4 * p), self.traces_x, out=traces.reshape(-1, 2 * 4))
        tx = tx.reshape(nz, nx, p, 2, 4)
        np.add(tx[..., 1, :], self.bg_xface[:, 1:], out=Bx[0, :, 1:])
        np.add(tx[..., 0, :], self.bg_xface[:, :-1], out=Bx[1, :, :-1])
        tz = np.matmul(b.traces, Up.reshape(nz * nx, p, p * 4), out=traces.reshape(nz * nx, 2, -1))
        tz = tz.reshape(nz, nx, 2, p, 4)
        np.add(tz[:, :, 1], self.bg_zface[1:], out=Bz[0, 1:])
        np.add(tz[:, :, 0], self.bg_zface[:-1], out=Bz[1, :-1])
        self.xfaces.fill_ghosts(*Bx)
        self.zfaces.fill_ghosts(*Bz)
        return Bx, Bz

    def _axis_flux(self, faces: FaceAxis, B: np.ndarray) -> np.ndarray:
        """HLLC flux through the faces of one axis from its ghost-filled
        face states B (see _face_states). The primitives of the whole axis
        come from one call; rho and rho*theta stay views of the buffer."""
        P = physics.primitives(B, self.constants)
        return faces.flux([q[0] for q in P], [q[1] for q in P], self.constants)

    def _viscous_volume_fluxes(self, full: np.ndarray):
        """Primitives V = (u, w, theta) of the total state full and the
        volume fluxes G = (mu*rho*dV/dx, mu*rho*dV/dz), all component-major
        in the viscous work arrays: V from one divide over the component
        rows of full, each gradient one GEMM on its (p*p) rows."""
        V, G, mu_rho = self._V, self._G, self._mu_rho
        rows = full.reshape(-1, 4).T
        np.divide(rows[1:], rows[physics.RHO], out=V.reshape(3, -1))
        Vr = V.reshape(-1, self.basis.p ** 2)
        for g, op in zip(G, (self.vgrad_x, self.vgrad_z)):
            np.matmul(Vr, op, out=g.reshape(Vr.shape))
        np.multiply(self.constants.mu, rows[physics.RHO], out=mu_rho.reshape(-1))
        G *= mu_rho
        return V, G

    def _viscous_face_fluxes(self, V: np.ndarray, Bx: np.ndarray, Bz: np.ndarray):
        """Interior-penalty viscous face fluxes (3, nz, nx + 1, p) and
        (3, nz + 1, nx, p) of the (u, w, theta) rows, from the primitives V
        and the face buffers Bx, Bz of _face_states, into the viscous work
        arrays. One GEMM per axis gives the traces of V and of its normal
        gradient; they go into the padded arrays T laid out (value or
        gradient, side, 3, faces), side 0 left and side 1 right of a face
        as in the face buffers."""
        nz, nx, p = self.nz, self.nx, self.basis.p
        out, ((Tx, Ax), (Tz, Az)) = self._vtraces, self._vfaces
        # t[q, s] holds the west (south) traces at s = 0, the east (north)
        # ones at s = 1; the x ones come from the x-node rows of V
        tx = np.matmul(self.vtrace_x, V.reshape(-1, p).T, out=out.reshape(4, -1))
        tx = tx.reshape(2, 2, 3, nz, nx, p)
        np.copyto(Tx[:, 0, :, :, 1:], tx[:, 1])
        np.copyto(Tx[:, 1, :, :, :-1], tx[:, 0])
        tz = np.matmul(V.reshape(-1, p * p), self.vtrace_z, out=out)
        tz = tz.reshape(3, nz, nx, 2, 2, p).transpose(3, 4, 0, 1, 2, 5)
        np.copyto(Tz[:, 0, :, 1:], tz[:, 1])
        np.copyto(Tz[:, 1, :, :-1], tz[:, 0])
        return (self._ip_flux(self.xfaces, Tx, Bx, self.pen_x, Ax),
                self._ip_flux(self.zfaces, Tz, Bz, self.pen_z, Az))

    def _ip_flux(self, faces: FaceAxis, T, B, pen: float, A) -> np.ndarray:
        """Interior-penalty flux through all faces of one axis, the average
        of mu*rho*grad_n V minus an eta/h penalty on the jump of V, from
        the padded traces T and face states B; zero through slip walls.
        Periodic ghosts wrap around; wall ghosts only have to be finite, as
        wall faces are zeroed. A holds the flux rows (returned), three rows
        of scratch and the density sum."""
        # FaceAxis wants the (z-index, x-index) axes first, components last
        faces.fill_ghosts(*(np.moveaxis(T[:, s], (2, 3, 1), (0, 1, -1)) for s in (0, 1)))
        mu = self.constants.mu
        H, tmp, rho = A[:3], A[3:6], A[6]
        rho_L, rho_R = B[0, ..., physics.RHO], B[1, ..., physics.RHO]
        (V_L, V_R), (G_L, G_R) = T
        np.multiply(rho_L, G_L, out=H)
        H += np.multiply(rho_R, G_R, out=tmp)
        H *= 0.5 * mu
        np.add(rho_L, rho_R, out=rho)
        rho *= 0.5 * mu * pen
        np.subtract(V_L, V_R, out=tmp)
        tmp *= rho
        H -= tmp
        faces.zero_walls(H)
        return H
