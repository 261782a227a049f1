"""The ghost-padded face path of the DG operator and of the FV face flux
against a reference built face by face.

The reference treats every face on its own: interior and periodic faces
call the conserved-state reference HLLC on the two adjacent states,
slip-wall faces call references.wall_flux_axis, which solves the
mirrored-ghost Riemann problem, and the FV viscous flux is the two-point
formula with its own periodic branch, as is the DG interior-penalty flux.
The package must agree with it bit for bit, except for the viscous DG
terms: the operator takes their traces as GEMMs, the reference as
einsums, so they agree to round-off.
"""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import advection_case, make_grids, make_setup
from dgmg import cases, mesh, physics
from dgmg.dg import DGBasis, DGOperator
from dgmg.fv import FVLinearization
from dgmg.physics import RHO, RHO_W, PhysConstants, flux_convective_xz, pressure
from references import (
    axis_fluxes,
    dg_primitive_gradients,
    dg_viscous_face_fluxes,
    einsum_traces,
    fv_viscous_fluxes,
    periodicity,
    wall_flux_axis,
)

RB = PhysConstants(c_p=1005.0, c_v=717.95, g=9.80665, p0=1e5)


def state(rho, u, w, theta):
    return np.array([rho, rho * u, rho * w, rho * theta])


def rest_state(c, T=300.0):
    """Surface state at temperature T and pressure p0 (theta = T there)."""
    rho = c.p0 / (c.R_d * T)
    return state(rho, 0.0, 0.0, T)


def assert_fv_face_fluxes(op, case, full):
    """The face flux of op through both axes, boundaries included, equals
    the reference's bit for bit on the cell states full: HLLC per face
    minus the two-point viscous flux."""
    c = op.constants
    Hx, Hz = axis_fluxes(case, full, full, full, full, c)
    if c.mu > 0.0:
        gx, gz = fv_viscous_fluxes(full, op.dx, op.dz, *periodicity(case), c.mu)
        Hx[..., 1:] -= gx
        Hz[..., 1:] -= gz
    Q = op.padded_primitives(full)
    for faces, want in ((op.xfaces, Hx), (op.zfaces, Hz)):
        assert np.array_equal(op.face_flux(faces, Q, Q), want), faces


def dg_reference(op, case, Up):
    """The DG operator with the face fluxes of references.axis_fluxes; the
    inviscid volume terms and the lifting repeat the operator's arithmetic
    in per-node-axis form, the viscous terms are the references' forms.
    The faces take their boundary kinds from case."""
    b, c = op.basis, op.constants
    nz, nx, p = op.nz, op.nx, b.p
    Fx, Fz = flux_convective_xz(Up + op.bg_vol, c)
    Fx -= op.bg_Fx
    Fz -= op.bg_Fz
    if c.mu > 0.0:
        (vx, vz, hvx, hvz), (bvx, bvz, bhx, bhz) = (
            dg_viscous_reference(op, U) for U in (Up, np.zeros_like(Up))
        )
        Fx[..., 1:] -= vx - bvx
        Fz[..., 1:] -= vz - bvz
    rhs = (b.dhat @ Fx.reshape(-1, p, 4)).reshape(nz, nx, p, p, 4) / op.dx
    rhs += (b.dhat @ Fz.reshape(nz * nx, p, p * 4)).reshape(nz, nx, p, p, 4) / op.dz
    rhs[..., RHO_W] -= c.g * Up[..., RHO]

    def fluxes(U):
        return axis_fluxes(case, *trace_states(op, U), c)

    Hx, Hz = fluxes(Up)
    bx, bz = fluxes(np.zeros_like(Up))
    Hx -= bx
    Hz -= bz
    if c.mu > 0.0:
        Hx[..., 1:] -= hvx - bhx
        Hz[..., 1:] -= hvz - bhz
    l0x, l1x = b.lift0.reshape(1, 1, 1, p, 1), b.lift1.reshape(1, 1, 1, p, 1)
    rhs -= (Hx[:, 1:, :, None, :] * l1x - Hx[:, :-1, :, None, :] * l0x) / op.dx
    l0z, l1z = b.lift0.reshape(1, 1, p, 1, 1), b.lift1.reshape(1, 1, p, 1, 1)
    rhs -= (Hz[1:, :, None, :, :] * l1z - Hz[:-1, :, None, :, :] * l0z) / op.dz
    return rhs


def trace_states(op, U):
    """Total west, east, south and north traces of U + Ubar per cell."""
    b = op.basis
    nz, nx, p = op.nz, op.nx, b.p
    tx = (b.traces @ U.reshape(-1, p, 4)).reshape(nz, nx, p, 2, 4)
    tz = (b.traces @ U.reshape(nz * nx, p, p * 4)).reshape(nz, nx, 2, p, 4)
    return (tx[..., 0, :] + op.bg_xface[:, :-1], tx[..., 1, :] + op.bg_xface[:, 1:],
            tz[:, :, 0] + op.bg_zface[:-1], tz[:, :, 1] + op.bg_zface[1:])


def dg_viscous_reference(op, U):
    """Viscous volume fluxes mu*rho*grad V and face fluxes of U + Ubar,
    with einsum traces and the periodic-branch face flux."""
    mu = op.constants.mu
    full = U + op.bg_vol
    V, dVdx, dVdz = dg_primitive_gradients(op, full)
    rho = full[..., RHO, None]
    west, east, south, north = trace_states(op, U)
    Bx = np.empty((2, op.nz, op.nx + 1) + west.shape[2:])
    Bx[0, :, 1:], Bx[1, :, :-1] = east, west
    Bz = np.empty((2, op.nz + 1) + south.shape[1:])
    Bz[0, 1:], Bz[1, :-1] = north, south
    hvx, hvz = dg_viscous_face_fluxes(op, Bx, Bz, *einsum_traces(op.basis, V, dVdx, dVdz))
    return mu * rho * dVdx, mu * rho * dVdz, hvx, hvz


def viscous_scale(op, Up):
    """Size mu*|V|*eta/h^2 of the penalty terms of the total state U' + Ubar.
    The perturbation form subtracts the background's terms, so their
    round-off stays in f(U') even when U' is negligible."""
    full = Up + op.bg_vol
    V = np.abs(full[..., 1:] / full[..., :1]).max()
    return op.constants.mu * V * max(op.pen_x / op.dx, op.pen_z / op.dz)


def perturbations(shape):
    # a few percent of the unit-sound-speed background: admissible traces
    # and no vacuum star state, also at slip walls
    return arrays(np.float64, shape, elements=st.floats(-0.05, 0.05))


def with_viscosity(case, mu):
    c = dataclasses.replace(case.constants, mu=mu)
    atm = dataclasses.replace(case.atmosphere, constants=c)
    return dataclasses.replace(case, constants=c, atmosphere=atm)


@st.composite
def advection_cases(draw, viscous=False):
    """All four boundary combinations, a small mean flow, grid sizes; with
    viscous, mu = 0 or a drawn mu > 0."""
    case = advection_case(
        u=draw(st.floats(-0.3, 0.3)), w=draw(st.floats(-0.3, 0.3)),
        periodic_x=draw(st.booleans()), periodic_z=draw(st.booleans()),
    )
    if viscous:
        case = with_viscosity(case, draw(st.sampled_from([0.0, 1e-3, 0.05])))
    return case, draw(st.integers(1, 5)), draw(st.integers(1, 5))


class TestWallFlux:
    def test_only_normal_momentum_nonzero(self):
        rng = np.random.default_rng(9)
        for axis in (0, 1):
            for left in (True, False):
                U = state(1.1, 10.0 * rng.random(), -5.0 * rng.random(), 290.0)
                F = wall_flux_axis(U, axis, RB, ghost_on_left=left)
                assert F[0] == 0.0
                assert F[3] == 0.0
                assert F[2 - axis] == 0.0
                assert F[1 + axis] != 0.0

    def test_rest_state_wall_pressure(self):
        U = rest_state(RB)
        p = pressure(U, RB)
        F = wall_flux_axis(U, 1, RB, ghost_on_left=True)
        assert F[2] == pytest.approx(p, rel=1e-12)

    def test_compression_vs_suction(self):
        # updraft toward a top wall compresses; away from a bottom wall pulls
        U = rest_state(RB)
        p = pressure(U, RB)
        U[2] = U[0] * 10.0  # w = +10 m/s
        top = wall_flux_axis(U, 1, RB, ghost_on_left=False)
        bottom = wall_flux_axis(U, 1, RB, ghost_on_left=True)
        assert top[2] > p > bottom[2]


class TestAgainstReference:
    @settings(max_examples=40, deadline=None)
    @given(setup=advection_cases(), k=st.sampled_from([1, 3]), data=st.data())
    def test_dg_operator(self, setup, k, data):
        case, nx, nz = setup
        grid = mesh.Grid(case.domain, nx, nz)
        op = DGOperator(grid, DGBasis(k), case)
        Up = data.draw(perturbations(op.bg_vol.shape))
        assert np.array_equal(op(Up), dg_reference(op, case, Up))

    @settings(max_examples=40, deadline=None)
    @given(setup=advection_cases(), mu=st.sampled_from([1e-3, 0.05]),
           k=st.sampled_from([1, 3]), data=st.data())
    def test_viscous_dg_operator(self, setup, mu, k, data):
        # the GEMM traces sum in another order than the reference's
        # per-node form: round-off of a few p-term sums
        case, nx, nz = setup
        grid = mesh.Grid(case.domain, nx, nz)
        op = DGOperator(grid, DGBasis(k), with_viscosity(case, mu))
        Up = data.draw(perturbations(op.bg_vol.shape))
        rhs = op(Up)
        tol = 1e-12 * (np.abs(rhs).max() + viscous_scale(op, Up))
        assert np.abs(rhs - dg_reference(op, case, Up)).max() <= tol

    @settings(max_examples=40, deadline=None)
    @given(setup=advection_cases(), mu=st.sampled_from([1e-3, 0.05]),
           k=st.sampled_from([1, 3]), data=st.data())
    def test_viscous_faces_equal_periodic_branch_form(self, setup, mu, k, data):
        # one padded evaluation per axis does the per-face arithmetic of
        # the branchy reference, fed the operator's own traces
        case, nx, nz = setup
        grid = mesh.Grid(case.domain, nx, nz)
        op = DGOperator(grid, DGBasis(k), with_viscosity(case, mu))
        Up = data.draw(perturbations(op.bg_vol.shape))
        V, _ = op._viscous_volume_fluxes(Up + op.bg_vol)
        Bx, Bz = op._face_states(Up)
        got = op._viscous_face_fluxes(V, Bx, Bz)
        # the padded traces (value or gradient, side, 3, faces) the call
        # left in the work arrays, as the reference's per-cell (nz, nx, p,
        # 3) traces
        Tx, Tz = (T for T, _ in op._vfaces)
        west, east = Tx[:, 1, :, :, :-1], Tx[:, 0, :, :, 1:]
        south, north = Tz[:, 1, :, :-1], Tz[:, 0, :, 1:]
        expected = dg_viscous_face_fluxes(
            op, Bx, Bz, [np.moveaxis(t[q], 0, -1) for q in (0, 1) for t in (west, east)],
            [np.moveaxis(t[q], 0, -1) for q in (0, 1) for t in (south, north)],
        )
        for flux, want in zip(got, expected):
            assert np.array_equal(np.moveaxis(flux, 0, -1), want)

    def test_viscous_density_current(self):
        case = cases.by_name("density-current")
        op = DGOperator(mesh.Grid(case.domain, 8, 6), DGBasis(3), case)
        assert op.constants.mu > 0.0
        rng = np.random.default_rng(6)
        Up = 1e-3 * np.abs(op.bg_vol).max(axis=(0, 1, 2, 3)) * rng.standard_normal(op.bg_vol.shape)
        rhs = op(Up)
        tol = 1e-12 * (np.abs(rhs).max() + viscous_scale(op, Up))
        assert np.abs(rhs - dg_reference(op, case, Up)).max() <= tol

    @settings(max_examples=60, deadline=None)
    @given(setup=advection_cases(viscous=True), data=st.data())
    def test_fv_operator(self, setup, data):
        case, nx, nz = setup
        op = FVLinearization(mesh.Grid(case.domain, nx, nz), case)
        assert_fv_face_fluxes(op, case, data.draw(perturbations(op.bg.shape)) + op.bg)

    @pytest.mark.parametrize("name", ["inertia-gravity", "rising-bubble", "density-current"])
    def test_stratified_cases(self, name):
        # gravity and a stratified background; the DG reference is
        # inviscid, so the density current's DG operator runs with mu = 0,
        # while its FV face fluxes stay viscous
        case = cases.by_name(name)
        grids = make_grids(case.domain, 4, 3, 1, 3)
        op = DGOperator(grids[1], DGBasis(3), with_viscosity(case, 0.0))
        rng = np.random.default_rng(5)
        scale = 1e-3 * np.abs(op.bg_vol).max(axis=(0, 1, 2, 3))
        Up = scale * rng.standard_normal(op.bg_vol.shape)
        assert np.array_equal(op(Up), dg_reference(op, case, Up))
        for grid in grids:
            fv = FVLinearization(grid, case)
            assert_fv_face_fluxes(fv, case, scale * rng.standard_normal(fv.bg.shape) + fv.bg)


class TestWellBalance:
    @pytest.mark.parametrize(
        "name, base_nx, base_nz",
        [("inertia-gravity", 10, 1), ("rising-bubble", 5, 10), ("density-current", 16, 4)],
    )
    def test_zero_on_every_level(self, name, base_nx, base_nz):
        # the DG grids of the benchmark runs, at DG level 2; the FV levels
        # have no tendency to balance, only the linearization of one
        setup = make_setup(name, base_nx, base_nz, 2)
        assert np.all(setup.dg_op(setup.dg_op.zero_field()) == 0.0)


class TestHLLCHook:
    @pytest.mark.parametrize(
        "name, base_nx, base_nz",
        [("inertia-gravity", 10, 1), ("rising-bubble", 5, 10), ("density-current", 16, 4)],
    )
    def test_one_call_per_axis(self, monkeypatch, name, base_nx, base_nz):
        # every face flux goes through physics.hllc_flux_axis, the function
        # the benchmark's physics.hllc layer counts: one call per axis for
        # the DG operator, nine for the stencil assembly of an FV level,
        # which evaluates its face fluxes once at the frozen state and
        # twice more for each of the four components
        calls = []
        kernel = physics.hllc_flux_axis

        def counted(PL, PR, axis, c):
            calls.append(axis)
            return kernel(PL, PR, axis, c)

        monkeypatch.setattr(physics, "hllc_flux_axis", counted)
        setup = make_setup(name, base_nx, base_nz, 2)
        evaluations = [(1, "dg", lambda: setup.dg_op(setup.dg_op.zero_field()))]
        for lvl in range(len(setup.grids)):
            op = setup.fv_op(lvl)
            evaluations.append((9, lvl, functools.partial(op.assemble, np.zeros_like(op.bg), 1.0)))
        for per_axis, where, evaluate in evaluations:
            del calls[:]
            evaluate()
            assert sorted(calls) == [0] * per_axis + [1] * per_axis, where
