"""Point-wise physics for the 2D compressible equations with gravity.

The conserved state is U = (rho, rho*u, rho*w, rho*theta) where theta is
the potential temperature; pressure closes the system through
p = p0 * (R_d * rho * theta / p0)**gamma. All functions are vectorized
over leading axes, with the component axis last.

The well-balanced formulation evolves perturbations U' around a steady
background atmosphere (Atmosphere); the DG operator subtracts the
background's fluxes from the total state's, so a zero perturbation gives
exactly zero.

FaceAxis is the one face-flux path of the DG and FV operators. The
Riemann solve has two parts: primitives computes (rho, u, w, rho*theta,
p, c_s) of a set of states, and hllc_flux_axis works from the primitives
of the left and right states of all faces of a grid direction. The
operators lay those states out in arrays padded with ghost states;
FaceAxis fills every ghost of the package (periodic wrap or slip-wall
mirror) and makes one HLLC call for all faces. Each case holds its pair
(x faces, z faces), the boundary rule that both operators unpack: a
periodic direction wraps its two sides onto each other, and any other
has a slip wall on both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

# component indices
RHO, RHO_U, RHO_W, RHO_THETA = 0, 1, 2, 3


class InadmissibleStateError(ValueError):
    """A state with non-positive density, rho*theta, or star pressure."""

    def __init__(self, message: str, location=None):
        super().__init__(message)
        self.location = location


@dataclass(frozen=True)
class PhysConstants:
    """Gas and problem constants.

    mu is a kinematic-viscosity-like coefficient multiplying rho in the
    diffusive flux; p0 is the reference pressure of the potential
    temperature.
    """

    c_p: float
    c_v: float
    g: float = 9.81
    mu: float = 0.0
    p0: float = 1.0e5

    def __post_init__(self):
        if not self.c_p > self.c_v > 0:
            raise ValueError(f"need c_p > c_v > 0, got c_p={self.c_p}, c_v={self.c_v}")
        if self.mu < 0:
            raise ValueError(f"viscosity coefficient must be nonnegative, got {self.mu}")

    @property
    def R_d(self) -> float:
        return self.c_p - self.c_v

    @property
    def gamma(self) -> float:
        return self.c_p / self.c_v


def pressure(U: np.ndarray, c: PhysConstants, out: np.ndarray | None = None) -> np.ndarray:
    """Pressure from rho*theta: p = p0 (R_d rho theta / p0)**gamma, into
    out (shaped like U without its component axis) if given."""
    rt = np.asarray(U)[..., RHO_THETA]
    if np.any(rt <= 0.0):
        raise InadmissibleStateError("non-positive rho*theta in pressure evaluation")
    p = np.multiply(c.R_d, rt, out=np.empty(rt.shape) if out is None else out)
    p /= c.p0
    np.power(p, c.gamma, out=p)
    p *= c.p0
    return p


def flux_convective_xz(U: np.ndarray, c: PhysConstants, out=None) -> tuple[np.ndarray, np.ndarray]:
    """Convective x- and z-flux columns of the states U, as two arrays
    shaped like U, written into out = (Fx, Fz) if given.

    The pressure and the velocities pass through columns of Fx and Fz
    that take their fluxes last, so no scratch is allocated. Each entry
    is the same product or sum as in the textbook formulas, so the bits
    do not depend on out.
    """
    U = np.asarray(U)
    Fx, Fz = out if out is not None else (np.empty_like(U), np.empty_like(U))
    # Ellipsis indexing keeps views, 0-d ones for a single state
    rho, mx, mz, rt = (U[..., i] for i in range(4))
    p = pressure(U, c, out=Fx[..., RHO_U])
    u = np.divide(mx, rho, out=Fx[..., RHO_THETA])
    w = np.divide(mz, rho, out=Fz[..., RHO_THETA])
    Fz[..., RHO] = mz
    np.multiply(mx, w, out=Fz[..., RHO_U])
    np.multiply(mz, w, out=Fz[..., RHO_W])
    Fz[..., RHO_W] += p
    w *= rt
    Fx[..., RHO] = mx
    # mx * u + p, with mx * u passing through the column it precedes
    p += np.multiply(mx, u, out=Fx[..., RHO_W])
    np.multiply(mz, u, out=Fx[..., RHO_W])
    u *= rt
    return Fx, Fz


def primitives(U: np.ndarray, c: PhysConstants) -> tuple:
    """Primitives (rho, u, w, rho*theta, p, c_s) of the states U (..., 4).

    rho and rho*theta are views of U. Raises on a non-positive density or
    rho*theta; fmin skips a NaN in one of the two, as separate `<= 0`
    tests would.
    """
    U = np.asarray(U)
    rho, rt = U[..., RHO], U[..., RHO_THETA]
    if (np.fmin(rho, rt) <= 0.0).any():
        raise InadmissibleStateError("non-positive density or rho*theta in primitive-variable evaluation")
    p = pressure(U, c)
    return rho, U[..., RHO_U] / rho, U[..., RHO_W] / rho, rt, p, np.sqrt(c.gamma * p / rho)


def wave_speeds(P) -> tuple[np.ndarray, np.ndarray]:
    """Directional max wave speeds (|u| + c_s, |w| + c_s) of the states whose
    primitives are P (see primitives)."""
    _, u, w, _, _, cs = P
    return np.abs(u) + cs, np.abs(w) + cs


def stiffness_rate(lx, lz, hx: float, hz: float, mu: float):
    """The stiffness rate lx/hx + lz/hz + 2 mu (1/hx^2 + 1/hz^2) of cells
    with wave speeds lx, lz and spacings hx, hz: an explicit step, physical
    or pseudo, is stable up to about one over it."""
    rate = lx / hx + lz / hz
    if mu > 0.0:
        rate = rate + 2.0 * mu * (1.0 / hx**2 + 1.0 / hz**2)
    return rate


def hllc_flux_axis(PL, PR, axis: int, c: PhysConstants) -> np.ndarray:
    """HLLC flux through faces with normal +x (axis=0) or +z (axis=1).

    PL and PR are the primitives (see primitives) of the left and right
    states, six arrays each. Wave speeds use the Davis bounds; theta and
    the tangential velocity ride the contact wave. The branchless form
    clips the outer wave speeds to min(S_L, 0) / max(S_R, 0), which folds
    the supersonic cases into the star fluxes, so only the contact sign
    selects a side.
    """
    rhoL, uL, wL, rtL, pL, cL = PL
    rhoR, uR, wR, rtR, pR, cR = PR
    unL, utL, unR, utR = (uL, wL, uR, wR) if axis == 0 else (wL, uL, wR, uR)

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
    F = np.empty(SM.shape + (4,))
    F[..., RHO] = f0
    F[..., 1 + axis] = m * un + p + S * (rho * fac * SM - m)
    F[..., 2 - axis] = f0 * ut
    F[..., RHO_THETA] = (un + S * fac1) * rt
    return F


@dataclass(frozen=True)
class FaceAxis:
    """The faces normal to x (normal = 0) or to z (normal = 1).

    UL and UR are views of one padded array holding the left and right
    states of faces 0..n, laid out (z-index, x-index, ..., component);
    only UL[face 0] and UR[face n] are ghosts. Component 1 + normal is the
    normal momentum of a conserved state or of a multigrid vector and the
    normal velocity of a primitive one: one negation mirrors all three.
    """

    normal: int
    periodic: bool

    @property
    def ends(self) -> tuple:
        """Indices of face 0 and face n in a (z-index, x-index, ...) array."""
        lead = (slice(None),) * (1 - self.normal)
        return lead + (0,), lead + (-1,)

    def fill_ghosts(self, UL: np.ndarray, UR: np.ndarray) -> None:
        """Periodic sides wrap around; slip walls mirror the adjacent state
        with its normal momentum (velocity) negated."""
        first, last = self.ends
        if self.periodic:
            UL[first] = UL[last]
            UR[last] = UR[first]
            return
        UL[first] = UR[first]
        UR[last] = UL[last]
        for ghost in (UL[first], UR[last]):
            ghost[..., 1 + self.normal] = -ghost[..., 1 + self.normal]

    def zero_walls(self, G: np.ndarray) -> None:
        """Zero the viscous flux rows G (rows, z-index, x-index) on slip
        walls: no stress and no heat flux pass through them."""
        if not self.periodic:
            first, last = self.ends
            G[(slice(None),) + first] = G[(slice(None),) + last] = 0.0

    def flux(self, PL, PR, c: PhysConstants) -> np.ndarray:
        """HLLC flux through all faces from the primitives of ghost-filled
        states.

        A periodic axis has one face at both ends, so face n copies face 0.
        The mirrored Riemann problem puts the contact on a slip wall: the
        mass, tangential-momentum and rho*theta fluxes are zeroed exactly.
        """
        F = hllc_flux_axis(PL, PR, self.normal, c)
        first, last = self.ends
        if self.periodic:
            F[last] = F[first]
        else:
            passive = [RHO, 2 - self.normal, RHO_THETA]
            F[first][..., passive] = 0.0
            F[last][..., passive] = 0.0
        return F


def subtract_viscous(F, G, bg) -> None:
    """F[a][..., 1 + i] -= G[a][i] - bg[a][i] for each axis a and the (u, w,
    theta) rows i of the DG viscous fluxes G; G is overwritten. Each row is
    one op on a long strided column of F."""
    for f, g, b in zip(F, G, bg):
        g -= b
        for i, row in enumerate(g):
            f[..., 1 + i] -= row


def check_admissible(full: np.ndarray, level: int, where: str) -> None:
    """Raise InadmissibleStateError, located at the worst cell, if a state
    laid out (z-index, x-index, ...) has rho <= 0 or rho*theta <= 0."""
    bad = np.minimum(full[..., RHO], full[..., RHO_THETA])
    if np.all(bad > 0.0):
        return
    j, i = (int(n) for n in np.unravel_index(np.argmin(bad), bad.shape)[:2])
    raise InadmissibleStateError(
        f"inadmissible total state at {where} of cell (level={level}, i={i}, j={j})",
        location=(level, i, j),
    )


@dataclass(frozen=True)
class Atmosphere:
    """Steady background state, defined by theta and pressure profiles.

    Conserved backgrounds follow from pressure preservation:
    rho*theta = p0**(R_d/c_p) * p**(1/gamma) / R_d depends on pressure only,
    so perturbing theta at fixed pressure leaves rho*theta unchanged.
    """

    constants: PhysConstants
    theta: Callable[[np.ndarray, np.ndarray], np.ndarray]
    pressure: Callable[[np.ndarray, np.ndarray], np.ndarray]
    u: float = 0.0
    w: float = 0.0

    def state(self, x, z, theta_pert=None) -> np.ndarray:
        """Conserved state at (x, z), optionally with a theta perturbation
        inserted pressure-preservingly."""
        c = self.constants
        x, z = np.asarray(x, dtype=float), np.asarray(z, dtype=float)
        th = self.theta(x, z)
        if theta_pert is not None:
            th = th + theta_pert
        p = self.pressure(x, z)
        rho_theta = c.p0 ** (c.R_d / c.c_p) * p ** (1.0 / c.gamma) / c.R_d
        rho = rho_theta / th
        U = np.empty(np.broadcast(rho, rho_theta).shape + (4,))
        U[..., RHO] = rho
        U[..., RHO_U] = rho * self.u
        U[..., RHO_W] = rho * self.w
        U[..., RHO_THETA] = rho_theta
        return U
