"""Reference implementations that production paths are compared against.

The HLLC solver here works on conserved states, face by face: it
recomputes velocities, pressure and sound speed on each side of each face,
which is the arithmetic the primitive-based physics.hllc_flux_axis must
reproduce bit for bit. hllc_flux rotates it to an arbitrary normal for
the consistency and conservation properties, and fv_viscous_fluxes is the
two-point FV viscous flux with its own periodic branch.

reference_fluxes treats every face of a grid direction on its own:
interior and periodic faces call the conserved-state HLLC on the two
adjacent states, slip-wall faces call wall_flux_axis, which solves the
mirrored-ghost Riemann problem. fv_reference makes the first-order FV
tendency of a level from these fluxes in perturbation form, with the
background fluxes, computed once per level, subtracted and the gravity
source of the perturbation; the package evaluates no FV tendency, only the
face fluxes it linearizes.

The DG viscous terms and the DG <-> FV transfers are here in the form
that contracts one node axis at a time (einsum and broadcasts), with the
mass fix as an explicit per-cell mean shift and the viscous face flux
with its own periodic branches. The production GEMM forms change the
order of the sums, so they agree with these to round-off. The one-axis
transfer matrices come from subcell_matrices, and
transfer_cell_matrices reads a cell's matrices of both transfer
directions off the production maps.

stiffness_rate is the per-cell rate of the explicit and pseudo-time step
bounds from conserved states, with the velocities, pressure and sound
speed recomputed from the components in the order of the package's
primitives, so that the rates of the DG and FV operators and the FV
pseudo steps match it bit for bit; pseudo_dtau is that pseudo step.

fv_jacobian is the dense Jacobian of a tendency such as fv_reference, one
FD column per unknown, that the face-flux stencil assembly of
fv.FVLinearization must reproduce. stencil_matvec applies an assembled linearization in
float64 through a neighbour-table gather, where the package reads
shifted views of a padded float32 buffer, and mg_cycle is the multigrid
cycle in float64 on fields (nz, nx, 4) that the float32 component-major
cycle must match to single-precision round-off; its bilinear prolong pads
the coarse field with np.pad and sums the four weights in one 2D pass,
where the package takes two separable passes.

write_snapshot_csv, write_vtk and stats_log format the driver's outputs
value by value with f-strings, the bytes that the row-formatted writers
of dgmg.cli must reproduce.

The rest are oracles the package itself has no use for: the convective
flux tensor, nodal projection, domain integrals and pointwise evaluation
of DG fields, cell areas, and quadrature sums in 1D and over the unit
square.
"""

from dataclasses import dataclass

import numpy as np

from dgmg.dg import DGBasis
from dgmg.physics import RHO, RHO_THETA, RHO_U, RHO_W, InadmissibleStateError, pressure
from dgmg.quadrature import modified_newton_cotes


def hllc_normal(UL, UR, axis, c):
    """HLLC flux in the face frame for grid-aligned normals.

    axis 0 means normal +x (tangential w); axis 1 means normal +z. Returns
    the four flux components (mass, normal momentum, tangential momentum,
    rho*theta) in the face frame.
    """
    mn, mt = 1 + axis, 2 - axis
    rhoL, rhoR = UL[..., RHO], UR[..., RHO]
    rtL, rtR = UL[..., RHO_THETA], UR[..., RHO_THETA]
    if (np.fmin(UL[..., ::3], UR[..., ::3]) <= 0.0).any():
        raise InadmissibleStateError(
            "non-positive density or rho*theta in primitive-variable evaluation"
        )
    unL, unR = UL[..., mn] / rhoL, UR[..., mn] / rhoR
    utL, utR = UL[..., mt] / rhoL, UR[..., mt] / rhoR
    pL = c.p0 * (c.R_d * rtL / c.p0) ** c.gamma
    pR = c.p0 * (c.R_d * rtR / c.p0) ** c.gamma
    cL = np.sqrt(c.gamma * pL / rhoL)
    cR = np.sqrt(c.gamma * pR / rhoR)

    SL = np.minimum(unL - cL, unR - cR)
    SR = np.maximum(unL + cL, unR + cR)
    dL = rhoL * (SL - unL)
    dR = rhoR * (SR - unR)
    SM = (pR - pL + unL * dL - unR * dR) / (dL - dR)
    p_star = pL + dL * (SM - unL)
    if ((p_star <= 0.0) | (SM <= SL) | (SM >= SR)).any():
        raise InadmissibleStateError("vacuum or negative-pressure HLLC star state")

    left = SM >= 0.0
    S = np.where(left, np.minimum(SL, 0.0), np.maximum(SR, 0.0))
    rho = np.where(left, rhoL, rhoR)
    un = np.where(left, unL, unR)
    ut = np.where(left, utL, utR)
    rt = np.where(left, rtL, rtR)
    p = np.where(left, pL, pR)
    Sd = np.where(left, SL, SR)
    fac = (Sd - un) / (Sd - SM)
    fac1 = fac - 1.0
    m = rho * un
    f0 = m + S * (rho * fac1)
    f1 = m * un + p + S * (rho * fac * SM - m)
    f2 = f0 * ut
    f3 = (un + S * fac1) * rt
    return f0, f1, f2, f3


def hllc_flux_axis(UL, UR, axis, c):
    """HLLC flux of conserved states through faces with normal +x or +z."""
    UL, UR = np.asarray(UL), np.asarray(UR)
    f_rho, f_n, f_t, f_rt = hllc_normal(UL, UR, axis, c)
    F = np.empty(np.broadcast(UL, UR).shape)
    F[..., RHO] = f_rho
    F[..., 1 + axis] = f_n
    F[..., 2 - axis] = f_t
    F[..., RHO_THETA] = f_rt
    return F


def hllc_flux(UL, UR, n, c):
    """HLLC flux for an arbitrary unit normal n = (n_x, n_z).

    Consistent (equal states give F_c(U) . n) and conservative
    (hllc(UL, UR, n) == -hllc(UR, UL, -n)).
    """
    UL, UR = np.asarray(UL), np.asarray(UR)
    nx, nz = float(n[0]), float(n[1])
    tx, tz = -nz, nx

    def rotate(U):
        V = U.copy()
        V[..., RHO_U] = U[..., RHO_U] * nx + U[..., RHO_W] * nz
        V[..., RHO_W] = U[..., RHO_U] * tx + U[..., RHO_W] * tz
        return V

    f_rho, f_n, f_t, f_rt = hllc_normal(rotate(UL), rotate(UR), 0, c)
    F = np.empty(np.broadcast(UL, UR).shape)
    F[..., RHO] = f_rho
    F[..., RHO_U] = f_n * nx + f_t * tx
    F[..., RHO_W] = f_n * nz + f_t * tz
    F[..., RHO_THETA] = f_rt
    return F


def fv_viscous_fluxes(full, dx, dz, periodic_x, periodic_z, mu):
    """Two-point FV viscous flux mu*rho_face*(V_R - V_L)/h of the (u, w,
    theta) rows through every x- and z-face of the cell states full;
    periodic faces wrap around, slip-wall faces carry no flux."""
    rho = full[..., RHO]
    V = full[..., 1:] / rho[..., None]
    nz, nx = rho.shape

    gx = np.zeros((nz, nx + 1, 3))
    gx[:, 1:-1] = mu * 0.5 * (rho[:, :-1] + rho[:, 1:])[..., None] * (
        V[:, 1:] - V[:, :-1]
    ) / dx
    if periodic_x:
        gx[:, 0] = mu * 0.5 * (rho[:, -1] + rho[:, 0])[..., None] * (V[:, 0] - V[:, -1]) / dx
        gx[:, -1] = gx[:, 0]

    gz = np.zeros((nz + 1, nx, 3))
    gz[1:-1] = mu * 0.5 * (rho[:-1] + rho[1:])[..., None] * (V[1:] - V[:-1]) / dz
    if periodic_z:
        gz[0] = mu * 0.5 * (rho[-1] + rho[0])[..., None] * (V[0] - V[-1]) / dz
        gz[-1] = gz[0]
    return gx, gz


def wall_flux_axis(U_in, axis, c, ghost_on_left):
    """Slip-wall flux from the mirrored-ghost Riemann problem.

    The ghost state negates the normal momentum of the interior trace;
    ghost_on_left says which side of the face (in global +axis
    orientation) the wall is on. For the mirrored problem the contact
    sits on the wall, so the mass, tangential-momentum and rho*theta
    fluxes vanish; only the normal-momentum (pressure) flux is kept.
    """
    U_in = np.asarray(U_in)
    ghost = U_in.copy()
    ghost[..., 1 + axis] = -ghost[..., 1 + axis]
    UL, UR = (ghost, U_in) if ghost_on_left else (U_in, ghost)
    F = np.zeros_like(U_in)
    F[..., 1 + axis] = hllc_flux_axis(UL, UR, axis, c)[..., 1 + axis]
    return F


def reference_fluxes(lo, hi, normal, periodic, c):
    """Fluxes through faces 0..n, one solver call per face.

    lo[i] and hi[i] are the total states on the low and high side of
    cell i, with the face-counting axis first.
    """
    n = lo.shape[0]
    F = np.empty((n + 1,) + lo.shape[1:])
    for f in range(1, n):
        F[f] = hllc_flux_axis(hi[f - 1], lo[f], normal, c)
    if periodic:
        F[0] = F[n] = hllc_flux_axis(hi[n - 1], lo[0], normal, c)
    else:
        F[0] = wall_flux_axis(lo[0], normal, c, ghost_on_left=True)
        F[n] = wall_flux_axis(hi[n - 1], normal, c, ghost_on_left=False)
    return F


def periodicity(case):
    xfaces, zfaces = case.faces
    return xfaces.periodic, zfaces.periodic


def axis_fluxes(case, west, east, south, north, c):
    """Reference x- and z-face fluxes of (nz, nx, ...) side states."""
    px, pz = periodicity(case)
    Hx = reference_fluxes(np.moveaxis(west, 1, 0), np.moveaxis(east, 1, 0), 0, px, c)
    return np.moveaxis(Hx, 0, 1), reference_fluxes(south, north, 1, pz, c)


def fv_reference(op, case):
    """The tendency up (nz, nx, 4) -> (nz, nx, 4) of perturbations on the
    FV level of op, whose constants, spacings and background it reads; the
    faces take their boundary kinds from case. The background fluxes are
    computed once, here, for every call of the returned tendency."""
    c = op.constants
    bx, bz = axis_fluxes(case, op.bg, op.bg, op.bg, op.bg, c)
    if c.mu > 0.0:
        bgx, bgz = fv_viscous_fluxes(op.bg, op.dx, op.dz, *periodicity(case), c.mu)

    def tendency(up):
        full = up + op.bg
        Hx, Hz = axis_fluxes(case, full, full, full, full, c)
        Hx -= bx
        Hz -= bz
        if c.mu > 0.0:
            gx, gz = fv_viscous_fluxes(full, op.dx, op.dz, *periodicity(case), c.mu)
            Hx[..., 1:] -= gx - bgx
            Hz[..., 1:] -= gz - bgz
        rhs = -(Hx[:, 1:] - Hx[:, :-1]) / op.dx - (Hz[1:] - Hz[:-1]) / op.dz
        rhs[..., RHO_W] -= c.g * up[..., RHO]
        return rhs

    return tendency


def _scatter(vals):
    """(nz, nx, p, p, 4) per-cell values -> flat (nz*p, nx*p, 4) grid."""
    nz, nx, p = vals.shape[:3]
    return vals.transpose(0, 2, 1, 3, 4).reshape(nz * p, nx * p, 4)


def subcell_matrices(k):
    """The one-axis transfer matrices of degree k: T1 (m, i) = l_i(center_m)
    at the k + 1 subcell centers of [0, 1], its inverse, and the modified
    Newton-Cotes weights of those centers."""
    p = k + 1
    T1 = DGBasis(k).eval_matrix((2 * np.arange(p) + 1) / (2 * p))
    return T1, np.linalg.inv(T1), modified_newton_cotes(k).weights


def transfer_cell_matrices(tr):
    """The (p*p, p*p) matrices T and T^-1 of tr.dg_to_fv and tr.fv_to_dg on
    one cell and component, read off the maps applied to unit vectors;
    rows and columns are (z-node or subcell row, x-node or subcell column)
    pairs."""
    p = tr.p
    n = p * p
    U = np.zeros((1, n, p, p, 4))
    U[0, ..., 0] = np.eye(n).reshape(n, p, p)
    T = tr.dg_to_fv(U)[..., 0].reshape(p, n, p).transpose(1, 0, 2).reshape(n, n).T
    u = np.zeros((p, n * p, 4))
    u[..., 0] = np.eye(n).reshape(n, p, p).transpose(1, 0, 2).reshape(p, n * p)
    return T, tr.fv_to_dg(u)[0, ..., 0].reshape(n, n).T


def dg_to_fv(tr, U):
    """Interpolation transfer T, one node axis at a time."""
    T1, _, _ = subcell_matrices(tr.p - 1)
    vals = np.einsum("ma,zxabc->zxmbc", T1, U)
    return _scatter(np.einsum("nb,zxmbc->zxmnc", T1, vals))


def dg_to_fv_massfix(tr, U):
    """T^mf: per cell and component, the interpolated values shifted by
    (subcell mean - Newton-Cotes mean)."""
    T1, _, w = subcell_matrices(tr.p - 1)
    vals = np.einsum("ma,zxabc->zxmbc", T1, U)
    vals = np.einsum("nb,zxmbc->zxmnc", T1, vals)
    fv_mean = vals.mean(axis=(2, 3))
    dg_mean = np.einsum("m,n,zxmnc->zxc", w, w, vals)
    return _scatter(vals - (fv_mean - dg_mean)[:, :, None, None, :])


def fv_to_dg(tr, u):
    """Inverse transfer T^-1, one node axis at a time."""
    p = tr.p
    _, T1inv, _ = subcell_matrices(p - 1)
    vals = u.reshape(u.shape[0] // p, p, u.shape[1] // p, p, 4).transpose(0, 2, 1, 3, 4)
    vals = np.einsum("am,zxmnc->zxanc", T1inv, vals)
    return np.einsum("bn,zxanc->zxabc", T1inv, vals)


def dg_primitive_gradients(op, full):
    """Primitives (u, w, theta) at the DG nodes and their per-cell
    gradients, as node-axis matmuls on (..., p, 3) views."""
    b = op.basis
    nz, nx, p = op.nz, op.nx, b.p
    V = full[..., 1:] / full[..., RHO, None]
    dVdx = (b.diff @ V.reshape(-1, p, 3)).reshape(nz, nx, p, p, 3) / op.dx
    dVdz = (b.diff @ V.reshape(nz * nx, p, p * 3)).reshape(nz, nx, p, p, 3) / op.dz
    return V, dVdx, dVdz


def einsum_traces(basis, V, dVdx, dVdz):
    """x traces (Vw, Ve, Gw, Ge) and z traces (Vs, Vn, Gs, Gn) of the
    primitives and their normal derivatives."""
    x = [np.einsum("b,zxabq->zxaq", e, W) for W in (V, dVdx) for e in basis.traces]
    z = [np.einsum("a,zxabq->zxbq", e, W) for W in (V, dVdz) for e in basis.traces]
    return x, z


def dg_viscous_face_fluxes(op, Bx, Bz, x_traces, z_traces):
    """Interior-penalty DG viscous face flux of the (u, w, theta) rows:
    interior faces from the traces, periodic faces by their own branch,
    slip-wall faces zero. Densities come from the interior slots of the
    face buffers Bx, Bz of DGOperator._face_states."""
    mu = op.constants.mu
    p = op.basis.p

    def ip_flux(rho_L, G_L, V_L, rho_R, G_R, V_R, pen):
        avg = 0.5 * mu * (rho_L[..., None] * G_L + rho_R[..., None] * G_R)
        jump = 0.5 * mu * pen * (rho_L + rho_R)[..., None] * (V_L - V_R)
        return avg - jump

    Vw, Ve, Gw, Ge = x_traces
    rho_e = Bx[0, :, 1:, :, RHO]
    rho_w = Bx[1, :, :-1, :, RHO]
    hvx = np.zeros((op.nz, op.nx + 1, p, 3))
    hvx[:, 1:-1] = ip_flux(
        rho_e[:, :-1], Ge[:, :-1], Ve[:, :-1],
        rho_w[:, 1:], Gw[:, 1:], Vw[:, 1:],
        op.pen_x,
    )
    if op.xfaces.periodic:
        hvx[:, 0] = ip_flux(
            rho_e[:, -1], Ge[:, -1], Ve[:, -1],
            rho_w[:, 0], Gw[:, 0], Vw[:, 0],
            op.pen_x,
        )
        hvx[:, -1] = hvx[:, 0]

    Vs, Vn, Gs, Gn = z_traces
    rho_n = Bz[0, 1:, :, :, RHO]
    rho_s = Bz[1, :-1, :, :, RHO]
    hvz = np.zeros((op.nz + 1, op.nx, p, 3))
    hvz[1:-1] = ip_flux(
        rho_n[:-1], Gn[:-1], Vn[:-1],
        rho_s[1:], Gs[1:], Vs[1:],
        op.pen_z,
    )
    if op.zfaces.periodic:
        hvz[0] = ip_flux(
            rho_n[-1], Gn[-1], Vn[-1], rho_s[0], Gs[0], Vs[0], op.pen_z
        )
        hvz[-1] = hvz[0]
    return hvx, hvz


def flux_convective(U, c):
    """Convective flux tensor, shape (..., 4, 2); column 0 is the x-flux."""
    U = np.asarray(U)
    rho = U[..., RHO]
    u = U[..., RHO_U] / rho
    w = U[..., RHO_W] / rho
    p = pressure(U, c)
    F = np.empty(U.shape + (2,))
    F[..., RHO, 0] = U[..., RHO_U]
    F[..., RHO_U, 0] = U[..., RHO_U] * u + p
    F[..., RHO_W, 0] = U[..., RHO_W] * u
    F[..., RHO_THETA, 0] = U[..., RHO_THETA] * u
    F[..., RHO, 1] = U[..., RHO_W]
    F[..., RHO_U, 1] = U[..., RHO_U] * w
    F[..., RHO_W, 1] = U[..., RHO_W] * w + p
    F[..., RHO_THETA, 1] = U[..., RHO_THETA] * w
    return F


def evaluate(field, basis, i, j, local):
    """Evaluate the tensor polynomial of DG cell (i, j) at reference points.

    local has shape (..., 2) with columns (x-ref, z-ref) in [0, 1]^2.
    """
    local = np.asarray(local, dtype=float)
    pts = local.reshape(-1, 2)
    Ax = basis.eval_matrix(pts[:, 0])
    Az = basis.eval_matrix(pts[:, 1])
    vals = np.einsum("pa,pb,abc->pc", Az, Ax, field[j, i])
    return vals.reshape(local.shape[:-1] + (4,))


def integrate(rule, values):
    """Quadrature sum of a 1D rule over values at its nodes."""
    return float(np.dot(rule.weights, values))


@dataclass(frozen=True)
class QuadRule2D:
    """Tensor-product rule on the unit square."""

    points: np.ndarray   # (n, 2)
    weights: np.ndarray  # (n,)
    degree: int


def tensorize(rule):
    """Tensor product of a 1D rule over the unit square."""
    x, y = np.meshgrid(rule.nodes, rule.nodes, indexing="ij")
    wx, wy = np.meshgrid(rule.weights, rule.weights, indexing="ij")
    points = np.column_stack([x.ravel(), y.ravel()])
    weights = (wx * wy).ravel()
    return QuadRule2D(points, weights, degree=rule.degree)


def stiffness_rate(full, hx, hz, c, node_axes=()):
    """(|u| + c_s)/hx + (|w| + c_s)/hz + 2 mu (1/hx^2 + 1/hz^2) of the total
    states full (..., 4), each directional speed first maximized over
    node_axes (the nodes of a DG cell) when given."""
    rho = full[..., RHO]
    p = c.p0 * (c.R_d * full[..., RHO_THETA] / c.p0) ** c.gamma
    cs = np.sqrt(c.gamma * p / rho)
    lx, lz = (np.max(np.abs(full[..., m] / rho) + cs, axis=node_axes) for m in (RHO_U, RHO_W))
    rate = lx / hx + lz / hz
    if c.mu > 0.0:
        rate = rate + 2.0 * c.mu * (1.0 / hx**2 + 1.0 / hz**2)
    return rate


def pseudo_dtau(full, hx, hz, c, cfl, alpha_dt):
    """The pseudo step cfl / (1 + alpha_dt * rate) of cells with the total
    states full (nz, nx, 4) and spacings hx, hz."""
    return cfl / (1.0 + alpha_dt * stiffness_rate(full, hx, hz, c))


def fv_jacobian(tendency, u0, steps):
    """Dense float64 Jacobian of the callable tendency (nz, nx, 4) ->
    (nz, nx, 4) at u0, one forward difference per unknown; steps[m] is the
    step of component m."""
    f0 = tendency(u0)
    n = u0.size
    J = np.empty((n, n))
    for idx in range(n):
        h = steps[idx % 4]
        up = u0.copy()
        up.reshape(-1)[idx] += h
        J[:, idx] = ((tendency(up) - f0) / h).ravel()
    return J


def stencil_neighbours(nz, nx, periodic_x, periodic_z):
    """(cells, 5) flat indices of the cells of each 5-point stencil, in the
    slot order of fv.FVLinearization's blocks (self, east, north, south,
    west); a neighbour beyond a slip wall is the index `cells`, the zero
    row of the gather in stencil_matvec."""
    j, i = np.divmod(np.arange(nz * nx), nx)
    slots = []
    for dj, di in ((0, 0), (0, 1), (1, 0), (-1, 0), (0, -1)):
        jj, ii = j + dj, i + di
        outside = (ii < 0) | (ii >= nx) | (jj < 0) | (jj >= nz)
        index = (jj % nz) * nx + ii % nx
        periodic = periodic_x if di else periodic_z
        slots.append(index if periodic else np.where(outside, nz * nx, index))
    return np.stack(slots, axis=1)


def stencil_matvec(lin, neighbours, w):
    """g'(u0) w of the FV linearization lin, in float64 on a field w
    (nz, nx, 4): gather the stencil values of every cell through the
    neighbour table and contract them with lin's blocks."""
    cells = w.shape[0] * w.shape[1]
    gather = np.zeros((cells + 1, 4))
    gather[:-1] = w.reshape(cells, 4)
    stencil = gather[neighbours].reshape(cells, 20)
    blocks = lin.blocks.astype(np.float64).transpose(2, 0, 1)
    return w - np.einsum("cij,cj->ci", blocks, stencil).reshape(w.shape)


def prolong(v, periodic):
    """Cell-centred bilinear prolongation of a field v (nz, nx, 4) in one
    2D pass: np.pad adds the ghost ring, wrapped along periodic axes and
    mirrored at slip walls with the wall-normal momentum negated (rho u in
    the x-ghost columns, rho w in the z-ghost rows, both in the corners),
    and each child sums 9/16 of its parent, 3/16 of the parent's
    neighbours on the child's side and 1/16 of the diagonal one."""
    pad = np.pad(v, ((1, 1), (0, 0), (0, 0)), mode="wrap" if periodic[1] else "symmetric")
    if not periodic[1]:
        pad[[0, -1], :, RHO_W] *= -1
    pad = np.pad(pad, ((0, 0), (1, 1), (0, 0)), mode="wrap" if periodic[0] else "symmetric")
    if not periodic[0]:
        pad[:, [0, -1], RHO_U] *= -1
    nz, nx = v.shape[:2]

    def at(dj, di):
        return pad[1 + dj:nz + 1 + dj, 1 + di:nx + 1 + di]

    out = np.empty((2 * nz, 2 * nx, v.shape[2]))
    for a, dj in ((0, -1), (1, 1)):
        for c, di in ((0, -1), (1, 1)):
            out[a::2, c::2] = (9 * at(0, 0) + 3 * at(dj, 0) + 3 * at(0, di) + at(dj, di)) / 16
    return out


def mg_cycle(levels, l, x, b, cfg, stages):
    """mgprecond.mg_cycle in float64 on fields (nz, nx, 4): per level the
    (matvec, dtau, periodic) record of that layout, RK steps of `stages`
    Euler sub-steps, restriction as numpy's mean of the four children,
    prolongation by the 2D pass of prolong above, and on the coarsest level
    np.linalg.solve with the dense matrix of its matvec."""
    matvec, dtau, periodic = levels[l]

    def smooth(x, n):
        for _ in range(n):
            x = x + dtau[..., None] * (b - matvec(x))
        return x

    if l == 0:
        n = b.size
        A = np.column_stack([matvec(e.reshape(b.shape)).ravel() for e in np.eye(n)])
        return np.linalg.solve(A, b.ravel()).reshape(b.shape)
    finest = len(levels) - 1
    pre, post = (cfg.fine_pre, cfg.fine_post) if l == finest else (cfg.mid_pre, cfg.mid_post)
    x = smooth(x, stages * pre)
    nz, nx = b.shape[0] // 2, b.shape[1] // 2
    r = (matvec(x) - b).reshape(nz, 2, nx, 2, 4).mean(axis=(1, 3))
    v = np.zeros_like(r)
    for _ in range(2 if cfg.cycle == "W" else 1):
        v = mg_cycle(levels, l - 1, v, r, cfg, stages)
    x = x - prolong(v, periodic)
    return smooth(x, stages * post)


def cell_area(hierarchy, level):
    return hierarchy.dx[level] * hierarchy.dz[level]


def project(op, fn):
    """Nodal interpolation of fn(x, z) -> (..., 4) at the GL points of the
    DG operator op. Under the diagonal mass matrix this coincides with the
    L2 projection; polynomials of degree <= k per direction are reproduced
    exactly."""
    return np.asarray(fn(op.X, op.Z), dtype=float)


def total_mass(op, field, component):
    """Integral of one component of a DG field over the domain (exact for
    DG polynomials)."""
    w2d = op.basis.weights[:, None] * op.basis.weights[None, :]
    return float(np.einsum("ab,zxabc->c", op.dx * op.dz * w2d, field)[component])


def write_snapshot_csv(fh, xc, zc, u, theta_p):
    """Snapshot CSV: perturbations u[..., :3] and theta_p per cell, x fastest."""
    fh.write("x,z,rho_p,rhou_p,rhow_p,theta_p\n")
    for j, z in enumerate(zc):
        for i, x in enumerate(xc):
            fh.write(
                f"{x:.10g},{z:.10g},{u[j, i, 0]:.12e},{u[j, i, 1]:.12e},"
                f"{u[j, i, 2]:.12e},{theta_p[j, i]:.12e}\n"
            )


def write_vtk(fh, xc, zc, dx, dz, u, theta_p):
    """The snapshot's fields as a legacy-VTK structured-points file."""
    nz, nx = theta_p.shape
    names = {"rho_p": u[..., 0], "rhou_p": u[..., 1], "rhow_p": u[..., 2], "theta_p": theta_p}
    fh.write("# vtk DataFile Version 3.0\nperturbation snapshot\nASCII\n")
    fh.write("DATASET STRUCTURED_POINTS\n")
    fh.write(f"DIMENSIONS {nx} {nz} 1\n")
    fh.write(f"ORIGIN {xc[0]:.10g} {zc[0]:.10g} 0\n")
    fh.write(f"SPACING {dx:.10g} {dz:.10g} 1\n")
    fh.write(f"POINT_DATA {nx * nz}\n")
    for name, data in names.items():
        fh.write(f"SCALARS {name} double\nLOOKUP_TABLE default\n")
        for j in range(nz):
            for i in range(nx):
                fh.write(f"{data[j, i]:.12e}\n")


def stats_log(fmt, rows):
    """The stats log in fmt "csv" or "jsonl", one line per row of (time,
    stage, newton, gmres, dg_ops, residual)."""
    lines = ["time,stage,newton_iters,gmres_iters,dg_ops,residual\n"] if fmt == "csv" else []
    for time, stage, newton, gmres, dg_ops, residual in rows:
        if fmt == "csv":
            lines.append(f"{time:.6f},{stage},{newton},{gmres},{dg_ops},{residual:.12e}\n")
        else:
            lines.append(
                '{"time": %.6f, "stage": %d, "newton_iters": %d, "gmres_iters": %d, '
                '"dg_ops": %d, "residual": %.12e}\n'
                % (time, stage, newton, gmres, dg_ops, residual)
            )
    return "".join(lines)
