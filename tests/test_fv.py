import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import advection_case, entropy_wave, make_setup, rms
from dgmg import cases, mesh, physics
from dgmg.fv import FVLinearization, fv_background
from dgmg.physics import InadmissibleStateError
from references import fv_jacobian, fv_reference, stencil_neighbours
from test_faces import with_viscosity


def fd_steps(op, u0):
    """The probe step of each component: sqrt(eps) * max(rms of the
    component's total state, 1)."""
    scale = np.sqrt(np.mean((u0 + op.bg) ** 2, axis=(0, 1)))
    return np.sqrt(np.finfo(float).eps) * np.maximum(scale, 1.0)


def stage_matrix(op, case, u0, alpha_dt):
    """I - alpha_dt * J(u0) with J from column-by-column FD of the
    reference tendency of op's level, whose faces take their boundary kinds
    from case."""
    J = fv_jacobian(fv_reference(op, case), u0, fd_steps(op, u0))
    return np.eye(J.shape[0]) - alpha_dt * J


def perturbation(bg, c, rng, amplitude=0.05):
    """A random perturbation of the background states bg (..., 4): density
    and rho*theta change by up to the amplitude (relative), the velocities
    by up to 10 * amplitude times the background sound speed."""
    cs = physics.primitives(bg, c)[5]
    r = rng.uniform(-1.0, 1.0, bg.shape)
    u = amplitude * r * bg
    u[..., 1:3] = 10 * amplitude * r[..., 1:3] * (bg[..., 0] * cs)[..., None]
    return u


def random_state(op, rng, amplitude=0.05):
    """An admissible perturbation of the background of the FV level op, as
    perturbation draws it. A draw whose stencil assembly fails is drawn
    again: flow leaving a slip wall at half the sound speed can empty the
    HLLC star state of the mirrored Riemann problem. Leaves op assembled at
    the state returned, with alpha_dt = 1."""
    while True:
        u = perturbation(op.bg, op.constants, rng, amplitude)
        try:
            op.assemble(u, 1.0)
        except InadmissibleStateError:
            continue
        return u


def assembled(lin, u0, alpha_dt):
    """The FV level lin, assembled at u0 and alpha_dt."""
    lin.assemble(u0, alpha_dt)
    return lin


def apply(lin, w):
    """lin.matvec(w) written into a fresh buffer."""
    return lin.matvec(w, np.empty(w.shape, np.float32))


def mass_change(lin, w):
    """The sum over all cells of the RHO row of w - lin.matvec(w), lin an
    assembled FV level, and its float32 round-off: a few roundings of each
    term summed, the cell's own value and every block entry times the
    stencil value it multiplies."""
    change = (w - apply(lin, w))[physics.RHO].astype(np.float64)
    v = np.abs(field(w))
    nz, nx = v.shape[:2]
    gather = np.zeros((nz * nx + 1, 4))
    gather[:-1] = v.reshape(-1, 4)
    stencil = gather[stencil_neighbours(nz, nx, lin.xfaces.periodic, lin.zfaces.periodic)]
    terms = np.abs(lin.blocks[physics.RHO]).T * stencil.reshape(-1, 20)
    size = v[..., physics.RHO].sum() + terms.sum()
    return change.sum(), 8 * np.finfo(np.float32).eps * size


class TestOperator:
    def test_single_cell_periodic_is_null(self):
        # one periodic cell is its own east, west, north and south
        # neighbour: every face flux enters it twice with opposite signs
        case = advection_case(u=1.0, w=1.0)
        h = mesh.GridHierarchy(case.domain, 1, 1, 0, 0)
        lin = FVLinearization(h, 0, case)
        rng = np.random.default_rng(0)
        for _ in range(5):
            lin.assemble(0.05 * rng.standard_normal((1, 1, 4)), alpha_dt=1.0)
            assert not lin.blocks.any()

    def test_first_order_truncation_on_smooth_advection(self):
        # the stencil at the background applied to the entropy wave:
        # alpha_dt * J w approximates the linear tendency -u d/dx w
        case = advection_case(u=1.0)
        errs = []
        for N in (32, 64, 128):
            h = mesh.GridHierarchy(case.domain, N, 4, 0, 0)
            lin = FVLinearization(h, 0, case)
            X = np.broadcast_to(lin.dx * (np.arange(N) + 0.5), (4, N))
            Z = np.broadcast_to(lin.dz * (np.arange(4)[:, None] + 0.5), (4, N))
            w = cycle_vector(entropy_wave(X, Z, 0.0))
            lin.assemble(np.zeros_like(lin.bg), alpha_dt=1.0)
            out = field(w - apply(lin, w))
            # exact tendency of the entropy wave: d/dt rho' = -u d/dx rho'
            drho = -2 * np.pi * 0.1 * np.cos(2 * np.pi * X)
            exact = np.zeros_like(out)
            exact[..., 0] = drho
            exact[..., 1] = drho
            err = rms(out - exact) / rms(exact)
            errs.append(err)
        r1, r2 = np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2])
        assert 0.7 < r1 < 1.3 and 0.7 < r2 < 1.3, (errs, r1, r2)

    @settings(max_examples=60, deadline=None)
    @given(nx=st.integers(1, 8), nz=st.integers(1, 8),
           periodic_x=st.booleans(), periodic_z=st.booleans(),
           mu=st.sampled_from([0.0, 0.05]), alpha_dt=st.floats(0.01, 10.0),
           seed=st.integers(0, 2**32 - 1))
    def test_mass_conservation(self, nx, nz, periodic_x, periodic_z, mu, alpha_dt, seed):
        # each face's derivative enters its two cells with opposite signs,
        # and the mass flux through a slip wall is exactly zero
        case = with_viscosity(
            advection_case(u=0.2, w=-0.1, periodic_x=periodic_x, periodic_z=periodic_z), mu)
        h = mesh.GridHierarchy(case.domain, nx, nz, 0, 0)
        lin = FVLinearization(h, 0, case)
        rng = np.random.default_rng(seed)
        lin.assemble(random_state(lin, rng), alpha_dt)
        total, tol = mass_change(lin, cycle_vector(rng.standard_normal(lin.bg.shape)))
        assert abs(total) <= tol, (total, tol)

    def test_mass_conservation_slip(self):
        # the bubble's DG subgrid level at its transferred initial state:
        # gravity, a stratified background and slip walls on every side
        setup = make_setup("rising-bubble", 5, 10, 0)
        lin = setup.fv_op(setup.hierarchy.fv_level)
        u0 = setup.transfer().dg_to_fv(cases.build_initial_state(setup.case, setup.dg_op))
        lin.assemble(u0, alpha_dt=10.0)
        rng = np.random.default_rng(4)
        w = cycle_vector(rng.standard_normal(u0.shape) * lin.bg)
        total, tol = mass_change(lin, w)
        assert abs(total) <= tol, (total, tol)


class TestErrors:
    def test_inadmissible_cell_reports_level_and_cell(self):
        setup = make_setup("inertia-gravity", 5, 2, 2)
        op = setup.fv_op(1)
        u = np.zeros_like(op.bg)
        u[3, 7, 0] = -2.0 * op.bg[3, 7, 0]
        # the stencil assembly at the frozen state
        with pytest.raises(InadmissibleStateError, match="cell average") as err:
            op.assemble(u, 1.0)
        assert err.value.location == (1, 7, 3)


class TestBackground:
    def test_rising_bubble_theta_constant(self):
        setup = make_setup("rising-bubble", 5, 10, 0)
        bg = fv_background(setup.case, setup.hierarchy, 2)
        theta = bg[..., 3] / bg[..., 0]
        assert np.allclose(theta, 303.15, rtol=1e-12)

    def test_surface_pressure_is_p0(self):
        case = cases.by_name("rising-bubble")
        assert case.atmosphere.pressure(0.0, 0.0) == pytest.approx(1e5, rel=1e-14)

    @pytest.mark.parametrize("name", ["inertia-gravity", "rising-bubble", "density-current"])
    def test_hydrostatic_to_second_order(self, name):
        # midpoint-rule Taylor oracle: p(z+dz) - p(z) + rho(z+dz/2) g dz = O(dz^3),
        # so the defect against the adjacent-cell average density is O(dz^2)
        case = cases.by_name(name)
        c = case.constants
        defects = []
        for nz in (8, 16):
            setup = make_setup(name, 4, nz, 0)
            bg = fv_background(case, setup.hierarchy, 0)
            lvl_dz = setup.hierarchy.dz[0]
            zc = case.domain.z_min + lvl_dz * (np.arange(nz) + 0.5)
            p = case.atmosphere.pressure(np.zeros_like(zc), zc)
            dp = np.diff(p)
            rho_face = 0.5 * (bg[:-1, 0, 0] + bg[1:, 0, 0])
            defect = np.abs(dp + rho_face * c.g * lvl_dz).max() / (
                np.abs(dp).max() + 1e-30
            )
            defects.append(defect)
        assert defects[1] < 0.35 * defects[0], defects
        assert defects[0] < 2e-3


@functools.cache
def real_case_level(name, level):
    """FV level 0, 1 or 2 (3x2 to 12x8 cells) of a case on a 3x2 DG grid."""
    return make_setup(name, 3, 2, 0).fv_op(level)


def cycle_vector(w):
    """A field (nz, nx, 4) as the multigrid cycle's float32 component-major
    vector (4, nz, nx), the form FVLinearization.matvec applies to."""
    return np.ascontiguousarray(w.transpose(2, 0, 1), dtype=np.float32)


def field(v):
    """A cycle vector (4, nz, nx) as a float64 field (nz, nx, 4)."""
    return v.transpose(1, 2, 0).astype(np.float64)


class TestLinearization:
    def test_zero_vector_short_circuits(self, monkeypatch):
        case = advection_case()
        h = mesh.GridHierarchy(case.domain, 4, 4, 0, 0)
        lin = assembled(FVLinearization(h, 0, case), np.zeros((4, 4, 4)), alpha_dt=1.0)
        # the matvec evaluates no face flux
        monkeypatch.setattr(FVLinearization, "face_flux", lambda *args: pytest.fail("face flux"))
        out = apply(lin, np.zeros((4, 4, 4), dtype=np.float32))
        assert np.all(out == 0.0)

    def test_zero_alpha_dt_is_identity(self):
        case = advection_case()
        h = mesh.GridHierarchy(case.domain, 4, 4, 0, 0)
        lin = assembled(FVLinearization(h, 0, case), np.zeros((4, 4, 4)), alpha_dt=0.0)
        rng = np.random.default_rng(1)
        w = rng.standard_normal((4, 4, 4)).astype(np.float32)
        assert np.allclose(apply(lin, w), w, atol=1e-14)

    def test_matvec_is_float32_component_major(self):
        setup = make_setup("rising-bubble", 2, 3, 0)
        lin = setup.fv_op(1)
        lin.assemble(random_state(lin, np.random.default_rng(13)), 3.0)
        w = np.random.default_rng(14).standard_normal((4, lin.nz, lin.nx)).astype(np.float32)
        out = np.empty_like(w)
        assert lin.matvec(w, out) is out
        assert out.dtype == np.float32 and out.shape == (4, lin.nz, lin.nx)
        assert lin.blocks.shape == (4, 20, lin.nz * lin.nx)

    def test_fd_matches_assembled_matrix_linear_advection(self):
        # 1D periodic advection on an (n, 1) grid at the rest state; the
        # stencil holds the same difference quotients as the columns
        case = advection_case(u=1.0)
        n = 8
        h = mesh.GridHierarchy(case.domain, n, 1, 0, 0)
        lin = FVLinearization(h, 0, case)
        alpha_dt = 0.7
        u0 = np.zeros((1, n, 4))
        lin.assemble(u0, alpha_dt=alpha_dt)
        G = stage_matrix(lin, case, u0, alpha_dt)
        rng = np.random.default_rng(2)
        for _ in range(20):
            w = cycle_vector(rng.standard_normal(u0.shape))
            got = field(apply(lin, w))
            want = (G @ field(w).ravel()).reshape(u0.shape)
            assert rms(got - want) <= 1e-6 * rms(want)

    def test_fd_matches_column_assembled_euler_jacobian(self):
        setup = make_setup("inertia-gravity", 4, 1, 0)
        lvl = 1
        nz, nx = setup.hierarchy.nz[lvl], setup.hierarchy.nx[lvl]
        rng = np.random.default_rng(3)
        u0 = np.zeros((nz, nx, 4))
        u0[..., 0] = 1e-5 * rng.standard_normal((nz, nx))
        lin = assembled(setup.fv_op(lvl), u0, alpha_dt=2.0)
        n = u0.size
        J = np.zeros((n, n))
        scale = np.array([1e-5, 1e-4, 1e-4, 1e-3])
        for idx in range(n):
            e = np.zeros(n)
            e[idx] = scale[idx % 4]
            column = field(apply(lin, cycle_vector(e.reshape(u0.shape))))
            J[:, idx] = column.ravel() / scale[idx % 4]
        for _ in range(10):
            w = cycle_vector(rng.standard_normal(u0.shape) * scale)
            got = field(apply(lin, w))
            want = (J @ field(w).ravel()).reshape(u0.shape)
            assert rms(got - want) <= 2e-5 * rms(want), rms(got - want) / rms(want)

    def test_linearity_to_fd_accuracy(self):
        for name, tol in (("inertia-gravity", 1e-6), ("density-current", 5e-6)):
            setup = make_setup(name, 4, 2, 0)
            lvl = setup.hierarchy.fv_level
            tr = setup.transfer()
            u0 = tr.dg_to_fv(cases.build_initial_state(setup.case, setup.dg_op))
            lin = assembled(setup.fv_op(lvl), u0, alpha_dt=1.5)
            rng = np.random.default_rng(6)
            w = cycle_vector(rng.standard_normal(u0.shape) * np.array([1e-5, 1e-4, 1e-4, 1e-3]))
            base = apply(lin, w)
            for a in (2.0, -1.0):
                scaled = apply(lin, a * w)
                assert rms(scaled - a * base) <= tol * rms(a * base), (name, a)

    @settings(max_examples=60, deadline=None)
    @given(nx=st.sampled_from([1, 2, 3, 4, 7, 8]), nz=st.sampled_from([1, 2, 3, 4, 7, 8]),
           periodic_x=st.booleans(), periodic_z=st.booleans(),
           mu=st.sampled_from([0.0, 0.05]), alpha_dt=st.floats(0.01, 10.0),
           seed=st.integers(0, 2**32 - 1))
    def test_stencil_matches_column_fd_jacobian(self, nx, nz, periodic_x, periodic_z, mu,
                                                alpha_dt, seed):
        # every grid size, including periodic sides of one or two cells,
        # whose east, west and self slots read the same cell, and walls
        # one cell apart
        case = with_viscosity(
            advection_case(u=0.2, w=-0.1, periodic_x=periodic_x, periodic_z=periodic_z), mu)
        h = mesh.GridHierarchy(case.domain, nx, nz, 0, 0)
        lin = FVLinearization(h, 0, case)
        rng = np.random.default_rng(seed)
        u0 = random_state(lin, rng)
        lin.assemble(u0, alpha_dt)
        G = stage_matrix(lin, case, u0, alpha_dt)
        w = cycle_vector(rng.standard_normal(u0.shape))
        got = apply(lin, w)
        want = (G @ field(w).ravel()).reshape(u0.shape)
        # float32 blocks and vectors: a few float32 roundings of w - alpha_dt*J w
        assert rms(field(got) - want) <= 1e-6 * (rms(w) + rms(want - field(w)))
        # exactly linear: scaling by powers of two and negation commute with
        # every rounding; sums to float32 round-off
        assert np.array_equal(apply(lin, 2.0 * w), 2.0 * got)
        assert np.array_equal(apply(lin, -w), -got)
        v = cycle_vector(rng.standard_normal(u0.shape))
        gv = apply(lin, v)
        assert rms(apply(lin, w + v) - got - gv) <= 1e-6 * (rms(got) + rms(gv))
        assert not apply(lin, np.zeros_like(w)).any()
        assert np.array_equal(apply(assembled(lin, u0, 0.0), w), w)

    @settings(max_examples=60, deadline=None)
    @given(nx=st.sampled_from([1, 2, 3, 4]), nz=st.sampled_from([1, 2, 3, 4]),
           periodic_x=st.booleans(), periodic_z=st.booleans(),
           mu=st.sampled_from([0.0, 0.05]), alpha_dt=st.tuples(st.floats(0.01, 10.0),
                                                              st.floats(0.01, 10.0)),
           seed=st.integers(0, 2**32 - 1))
    def test_reassembly_in_place_matches_a_fresh_level(self, nx, nz, periodic_x, periodic_z,
                                                       mu, alpha_dt, seed):
        # a level is assembled once per step for the whole run: assembled
        # at state A, applied, then assembled at state B, its blocks and
        # matvec equal those of a level made and assembled at B only, bit
        # for bit, with periodic axes of one and two cells, whose slots
        # are folded, and slip walls, whose ghosts the matvec never writes
        case = with_viscosity(
            advection_case(u=0.2, w=-0.1, periodic_x=periodic_x, periodic_z=periodic_z), mu)
        h = mesh.GridHierarchy(case.domain, nx, nz, 0, 0)
        rng = np.random.default_rng(seed)
        probe = FVLinearization(h, 0, case)
        state_a, state_b = random_state(probe, rng), random_state(probe, rng)
        w = cycle_vector(rng.standard_normal(state_a.shape))
        lin = assembled(FVLinearization(h, 0, case), state_a, alpha_dt[0])
        apply(lin, cycle_vector(rng.standard_normal(state_a.shape)))
        lin.assemble(state_b, alpha_dt[1])
        fresh = assembled(FVLinearization(h, 0, case), state_b, alpha_dt[1])
        assert np.array_equal(lin.blocks, fresh.blocks)
        assert np.array_equal(apply(lin, w), apply(fresh, w))

    @settings(max_examples=30, deadline=None)
    @given(name=st.sampled_from(["inertia-gravity", "rising-bubble", "density-current"]),
           level=st.integers(0, 2), alpha_dt=st.floats(0.01, 10.0),
           seed=st.integers(0, 2**32 - 1))
    def test_real_cases_match_column_fd_jacobian(self, name, level, alpha_dt, seed):
        # gravity, stratified backgrounds, slip walls and viscosity on the
        # acceptance cases: the gravity block is exact and the wall faces
        # fold into the self blocks, against the FD columns of the
        # reference tendency
        lin = real_case_level(name, level)
        rng = np.random.default_rng(seed)
        u0 = random_state(lin, rng)
        lin.assemble(u0, alpha_dt)
        G = stage_matrix(lin, cases.by_name(name), u0, alpha_dt)
        w = cycle_vector(rng.standard_normal(u0.shape) * lin.bg)
        want = (G @ field(w).ravel()).reshape(u0.shape)
        assert rms(field(apply(lin, w)) - want) <= 1e-5 * rms(want), name
