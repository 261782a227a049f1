"""The three atmospheric test scenarios.

Each case bundles its domain, gas constants, background atmosphere,
initial potential-temperature perturbation, face axes and final time.
The face axes (physics.FaceAxis) are the case's boundary rule: each
direction is either periodic, its two sides wrapping onto each other, or
bounded by two slip walls. Backgrounds are hydrostatically balanced
analytic profiles; perturbations are inserted pressure-preservingly, so
the initial rho*theta perturbation vanishes and density adjusts as
rho = p0^(R_d/c_p) p^(1/gamma) / (R_d (theta_bar + theta')).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .mesh import Domain2D
from .physics import Atmosphere, FaceAxis, PhysConstants

_SLIP_WALLS = (FaceAxis(0, periodic=False), FaceAxis(1, periodic=False))


@dataclass(frozen=True)
class CaseSetup:
    name: str
    domain: Domain2D
    constants: PhysConstants
    atmosphere: Atmosphere
    theta_pert: Callable[[np.ndarray, np.ndarray], np.ndarray]
    faces: tuple[FaceAxis, FaceAxis]  # the x faces, then the z faces
    t_final: float


def _neutral_atmosphere(constants: PhysConstants, theta0: float, T0: float) -> Atmosphere:
    """Constant-potential-temperature atmosphere at rest.

    T decreases at the adiabatic lapse rate g/c_p and the pressure follows
    p = p0 (T/T0)^(c_p/R_d), which satisfies dp/dz = -rho g exactly.
    """
    c = constants

    def temperature(x, z):
        return T0 - np.asarray(z) * c.g / c.c_p

    return Atmosphere(
        constants=c,
        theta=lambda x, z: np.full(np.broadcast(x, z).shape, theta0),
        pressure=lambda x, z: c.p0 * (temperature(x, z) / T0) ** (c.c_p / c.R_d),
    )


def inertia_gravity() -> CaseSetup:
    """Gravity-wave oscillation of a tiny warm anomaly in a channel.

    Stably stratified background with constant Brunt-Vaisala frequency
    N = 1e-2 1/s and a 20 m/s mean flow; periodic lateral boundaries.
    """
    c = PhysConstants(c_p=1005.0, c_v=717.95, g=9.80665, mu=0.0, p0=1.0e5)
    T0 = 250.0
    N = 1.0e-2
    H = c.g / N**2
    alpha = c.g * H / (c.c_p * T0)

    def theta_bar(x, z):
        return T0 * np.exp(np.asarray(z) / H)

    def temp_bar(z):
        return T0 * (alpha - (alpha - 1.0) * np.exp(np.asarray(z) / H))

    def pressure_bar(x, z):
        z = np.asarray(z)
        return c.p0 * np.exp((c.c_p / c.R_d) * (np.log(temp_bar(z) / T0) - z / H))

    theta_c, x_c, a, Z = 0.01, 100_000.0, 5_000.0, 1.0e4

    def theta_pert(x, z):
        x, z = np.asarray(x), np.asarray(z)
        return theta_c / (1.0 + ((x - x_c) / a) ** 2) * np.sin(np.pi * z / Z)

    return CaseSetup(
        name="inertia-gravity",
        domain=Domain2D(0.0, 300_000.0, 0.0, 10_000.0),
        constants=c,
        atmosphere=Atmosphere(constants=c, theta=theta_bar, pressure=pressure_bar, u=20.0),
        theta_pert=theta_pert,
        faces=(FaceAxis(0, periodic=True), FaceAxis(1, periodic=False)),
        t_final=3000.0,
    )


def rising_bubble() -> CaseSetup:
    """Warm bubble rising through a neutrally stratified atmosphere.

    The perturbation is a flattened Gaussian: constant inside radius a,
    Gaussian falloff out to a + 3s, zero beyond.
    """
    c = PhysConstants(c_p=1005.0, c_v=717.95, g=9.80665, mu=0.0, p0=1.0e5)
    A0, x0, z0, a, s = 0.5, 500.0, 520.0, 50.0, 100.0

    def theta_pert(x, z):
        r = np.hypot(np.asarray(x) - x0, np.asarray(z) - z0)
        return A0 * np.where(
            r < a,
            1.0,
            np.where(r - a <= 3.0 * s, np.exp(-((r - a) / s) ** 2), 0.0),
        )

    return CaseSetup(
        name="rising-bubble",
        domain=Domain2D(0.0, 1000.0, 0.0, 2000.0),
        constants=c,
        atmosphere=_neutral_atmosphere(c, theta0=303.15, T0=303.15),
        theta_pert=theta_pert,
        faces=_SLIP_WALLS,
        t_final=1200.0,
    )


def density_current() -> CaseSetup:
    """Cold blob falling and spreading along the ground, with viscosity.

    A half-bubble centered on the left boundary; the slip wall acts as a
    symmetry plane. mu = 75 m^2/s gives grid-convergent solutions.
    """
    c = PhysConstants(c_p=1004.0, c_v=717.0, g=9.81, mu=75.0, p0=1.0e5)
    theta_c = -15.0
    x_c, z_c, x_r, z_r = 0.0, 3000.0, 4000.0, 2000.0

    def theta_pert(x, z):
        r = np.hypot((np.asarray(x) - x_c) / x_r, (np.asarray(z) - z_c) / z_r)
        return np.where(r < 1.0, 0.5 * theta_c * (1.0 + np.cos(np.pi * r)), 0.0)

    return CaseSetup(
        name="density-current",
        domain=Domain2D(0.0, 25_600.0, 0.0, 6_400.0),
        constants=c,
        atmosphere=_neutral_atmosphere(c, theta0=300.0, T0=300.0),
        theta_pert=theta_pert,
        faces=_SLIP_WALLS,
        t_final=900.0,
    )


CASES: dict[str, Callable[[], CaseSetup]] = {
    "inertia-gravity": inertia_gravity,
    "rising-bubble": rising_bubble,
    "density-current": density_current,
}


def by_name(name: str) -> CaseSetup:
    try:
        return CASES[name]()
    except KeyError:
        raise KeyError(
            f"unknown case {name!r}; available: {', '.join(sorted(CASES))}"
        ) from None


def build_initial_state(case: CaseSetup, dg_op) -> np.ndarray:
    """Nodal DG field of the initial perturbations U' = U(theta_bar + theta')
    - U(theta_bar); exactly zero where the perturbation vanishes."""
    atm = case.atmosphere
    pert = case.theta_pert(dg_op.X, dg_op.Z)
    return atm.state(dg_op.X, dg_op.Z, theta_pert=pert) - dg_op.bg_vol
