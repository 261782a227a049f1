import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import advection_case, entropy_wave, make_setup, rms
from dgmg import cases, mesh, physics
from dgmg.fv import FVLinearization, FVOperator, fv_background
from dgmg.physics import InadmissibleStateError
from references import cell_area, fv_jacobian
from test_faces import with_viscosity


def fd_steps(op, u0):
    """The probe step of each component: sqrt(eps) * max(rms of the
    component's total state, 1)."""
    scale = np.sqrt(np.mean((u0 + op.bg) ** 2, axis=(0, 1)))
    return np.sqrt(np.finfo(float).eps) * np.maximum(scale, 1.0)


def stage_matrix(op, u0, alpha_dt):
    """I - alpha_dt * J(u0) with J from column-by-column FD."""
    J = fv_jacobian(op, u0, fd_steps(op, u0))
    return np.eye(J.shape[0]) - alpha_dt * J


def random_state(op, rng, amplitude=0.05):
    """An admissible perturbation of op's background: density and
    rho*theta change by up to the amplitude (relative), the velocities by
    up to 10 * amplitude times the background sound speed. A draw that op
    rejects is drawn again: flow leaving a slip wall at half the sound
    speed can empty the HLLC star state of the mirrored Riemann problem."""
    bg = op.bg
    cs = physics.primitives(bg, op.constants)[5]
    while True:
        r = rng.uniform(-1.0, 1.0, bg.shape)
        u = amplitude * r * bg
        u[..., 1:3] = 10 * amplitude * r[..., 1:3] * (bg[..., 0] * cs)[..., None]
        try:
            op(u)
        except InadmissibleStateError:
            continue
        return u


class TestWellBalance:
    @pytest.mark.parametrize("name", ["inertia-gravity", "rising-bubble", "density-current"])
    def test_zero_on_every_level(self, name):
        setup = make_setup(name, 5, 2, 1)
        for lvl in range(setup.hierarchy.n_levels):
            op = FVOperator(setup.hierarchy, lvl, setup.case)
            out = op(np.zeros_like(op.bg))
            assert np.abs(out).max() == 0.0, (name, lvl)


class TestOperator:
    def test_single_cell_periodic_is_null(self):
        case = advection_case(u=1.0, w=1.0)
        h, _ = mesh.build_hierarchy(case.domain, 1, 1, 0, 0)
        op = FVOperator(h, 0, case)
        rng = np.random.default_rng(0)
        for _ in range(5):
            u = 0.05 * rng.standard_normal((1, 1, 4))
            assert np.abs(op(u)).max() < 1e-14

    def test_first_order_truncation_on_smooth_advection(self):
        case = advection_case(u=1.0)
        errs = []
        for N in (32, 64, 128):
            h, _ = mesh.build_hierarchy(case.domain, N, 4, 0, 0)
            op = FVOperator(h, 0, case)
            X = np.broadcast_to(op.dx * (np.arange(N) + 0.5), (4, N))
            Z = np.broadcast_to(op.dz * (np.arange(4)[:, None] + 0.5), (4, N))
            u = entropy_wave(X, Z, 0.0)
            out = op(u)
            # exact tendency of the entropy wave: d/dt rho' = -u d/dx rho'
            drho = -2 * np.pi * 0.1 * np.cos(2 * np.pi * X)
            exact = np.zeros_like(u)
            exact[..., 0] = drho
            exact[..., 1] = drho
            err = rms(out - exact) / rms(exact)
            errs.append(err)
        r1, r2 = np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2])
        assert 0.7 < r1 < 1.3 and 0.7 < r2 < 1.3, (errs, r1, r2)

    def test_mass_conservation_periodic(self):
        case = advection_case(u=1.0, w=0.4)
        h, _ = mesh.build_hierarchy(case.domain, 16, 16, 0, 0)
        op = FVOperator(h, 0, case)
        rng = np.random.default_rng(4)
        u = 0.01 * rng.standard_normal((16, 16, 4))
        out = op(u)
        area = cell_area(h, 0)
        assert abs(area * out[..., 0].sum()) < 1e-13

    def test_mass_conservation_slip(self):
        setup = make_setup("rising-bubble", 5, 10, 0)
        lvl = setup.subgrid.fv_level
        op = setup.fv_op(lvl)
        tr = setup.transfer()
        u = tr.dg_to_fv(cases.build_initial_state(setup.case, setup.dg_op))
        out = op(u)
        area = cell_area(setup.hierarchy, lvl)
        total_mass = area * op.bg[..., 0].sum()
        assert abs(area * out[..., 0].sum()) < 1e-12 * total_mass


class TestBatch:
    @settings(max_examples=60, deadline=None)
    @given(nx=st.sampled_from([1, 2, 3, 5, 8, 16]), nz=st.sampled_from([1, 2, 3, 5, 8, 16]),
           periodic_x=st.booleans(), periodic_z=st.booleans(),
           mu=st.sampled_from([0.0, 0.05]), nb=st.sampled_from([1, 2, 3, 7, 20]),
           seed=st.integers(0, 2**32 - 1))
    def test_batch_matches_single_calls(self, nx, nz, periodic_x, periodic_z, mu, nb, seed):
        case = with_viscosity(
            advection_case(u=0.2, w=-0.1, periodic_x=periodic_x, periodic_z=periodic_z), mu)
        h, _ = mesh.build_hierarchy(case.domain, nx, nz, 0, 0)
        op = FVOperator(h, 0, case)
        rng = np.random.default_rng(seed)
        batch = np.stack([random_state(op, rng) for _ in range(nb)], axis=2)
        calls = op.ncalls
        got = op(batch)
        assert got.shape == batch.shape and op.ncalls == calls + nb
        want = np.stack([op(batch[:, :, b].copy()) for b in range(nb)], axis=2)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("name", ["inertia-gravity", "rising-bubble", "density-current"])
    def test_real_cases_batch_matches_single_calls(self, name):
        # gravity, stratified backgrounds, slip walls and viscosity
        setup = make_setup(name, 3, 2, 0)
        rng = np.random.default_rng(13)
        for lvl in range(setup.hierarchy.n_levels):
            op = setup.fv_op(lvl)
            batch = np.stack([random_state(op, rng) for _ in range(4)], axis=2)
            want = np.stack([op(batch[:, :, b].copy()) for b in range(4)], axis=2)
            assert np.array_equal(op(batch), want), (name, lvl)


class TestErrors:
    def test_inadmissible_cell_reports_level_and_cell(self):
        setup = make_setup("inertia-gravity", 5, 2, 2)
        op = setup.fv_op(1)
        u = np.zeros_like(op.bg)
        u[3, 7, 0] = -2.0 * op.bg[3, 7, 0]
        with pytest.raises(InadmissibleStateError, match="cell average") as err:
            op(u)
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


def cycle_vector(w):
    """A field (nz, nx, 4) as the multigrid cycle's float32 component-major
    vector (4, nz, nx), the form FVLinearization.matvec applies to."""
    return np.ascontiguousarray(w.transpose(2, 0, 1), dtype=np.float32)


def field(v):
    """A cycle vector (4, nz, nx) as a float64 field (nz, nx, 4)."""
    return v.transpose(1, 2, 0).astype(np.float64)


class TestLinearization:
    def test_zero_vector_short_circuits(self):
        case = advection_case()
        h, _ = mesh.build_hierarchy(case.domain, 4, 4, 0, 0)
        op = FVOperator(h, 0, case)
        lin = FVLinearization(op, np.zeros((4, 4, 4)), alpha_dt=1.0)
        calls = op.ncalls
        out = lin.matvec(np.zeros((4, 4, 4), dtype=np.float32))
        assert np.all(out == 0.0)
        assert op.ncalls == calls  # no operator evaluation

    def test_zero_alpha_dt_is_identity(self):
        case = advection_case()
        h, _ = mesh.build_hierarchy(case.domain, 4, 4, 0, 0)
        op = FVOperator(h, 0, case)
        lin = FVLinearization(op, np.zeros((4, 4, 4)), alpha_dt=0.0)
        rng = np.random.default_rng(1)
        w = rng.standard_normal((4, 4, 4)).astype(np.float32)
        assert np.allclose(lin.matvec(w), w, atol=1e-14)

    def test_matvec_is_float32_component_major(self):
        setup = make_setup("rising-bubble", 2, 3, 0)
        op = setup.fv_op(1)
        lin = FVLinearization(op, random_state(op, np.random.default_rng(13)), 3.0)
        w = np.random.default_rng(14).standard_normal((4, op.nz, op.nx)).astype(np.float32)
        out = lin.matvec(w)
        assert out.dtype == np.float32 and out.shape == (4, op.nz, op.nx)
        assert lin.blocks.shape == (4, 20, op.nz * op.nx)

    def test_fd_matches_assembled_matrix_linear_advection(self):
        # 1D periodic advection on an (n, 1) grid at the rest state; the
        # stencil holds the same difference quotients as the columns
        case = advection_case(u=1.0)
        n = 8
        h, _ = mesh.build_hierarchy(case.domain, n, 1, 0, 0)
        op = FVOperator(h, 0, case)
        alpha_dt = 0.7
        u0 = np.zeros((1, n, 4))
        lin = FVLinearization(op, u0, alpha_dt=alpha_dt)
        G = stage_matrix(op, u0, alpha_dt)
        rng = np.random.default_rng(2)
        for _ in range(20):
            w = cycle_vector(rng.standard_normal(u0.shape))
            got = field(lin.matvec(w))
            want = (G @ field(w).ravel()).reshape(u0.shape)
            assert rms(got - want) <= 1e-6 * rms(want)

    def test_fd_matches_column_assembled_euler_jacobian(self):
        setup = make_setup("inertia-gravity", 4, 1, 0)
        lvl = 1
        op = setup.fv_op(lvl)
        nz, nx = setup.hierarchy.nz[lvl], setup.hierarchy.nx[lvl]
        rng = np.random.default_rng(3)
        u0 = np.zeros((nz, nx, 4))
        u0[..., 0] = 1e-5 * rng.standard_normal((nz, nx))
        lin = FVLinearization(op, u0, alpha_dt=2.0)
        n = u0.size
        J = np.zeros((n, n))
        scale = np.array([1e-5, 1e-4, 1e-4, 1e-3])
        for idx in range(n):
            e = np.zeros(n)
            e[idx] = scale[idx % 4]
            J[:, idx] = field(lin.matvec(cycle_vector(e.reshape(u0.shape)))).ravel() / scale[idx % 4]
        for _ in range(10):
            w = cycle_vector(rng.standard_normal(u0.shape) * scale)
            got = field(lin.matvec(w))
            want = (J @ field(w).ravel()).reshape(u0.shape)
            assert rms(got - want) <= 2e-5 * rms(want), rms(got - want) / rms(want)

    def test_linearity_to_fd_accuracy(self):
        for name, tol in (("inertia-gravity", 1e-6), ("density-current", 5e-6)):
            setup = make_setup(name, 4, 2, 0)
            lvl = setup.subgrid.fv_level
            op = setup.fv_op(lvl)
            tr = setup.transfer()
            u0 = tr.dg_to_fv(cases.build_initial_state(setup.case, setup.dg_op))
            lin = FVLinearization(op, u0, alpha_dt=1.5)
            rng = np.random.default_rng(6)
            w = cycle_vector(rng.standard_normal(u0.shape) * np.array([1e-5, 1e-4, 1e-4, 1e-3]))
            base = lin.matvec(w)
            for a in (2.0, -1.0):
                scaled = lin.matvec(a * w)
                assert rms(scaled - a * base) <= tol * rms(a * base), (name, a)

    @settings(max_examples=60, deadline=None)
    @given(nx=st.sampled_from([1, 2, 3, 4, 7, 8]), nz=st.sampled_from([1, 2, 3, 4, 7, 8]),
           periodic_x=st.booleans(), periodic_z=st.booleans(),
           mu=st.sampled_from([0.0, 0.05]), alpha_dt=st.floats(0.01, 10.0),
           seed=st.integers(0, 2**32 - 1))
    def test_stencil_matches_column_fd_jacobian(self, nx, nz, periodic_x, periodic_z, mu,
                                                alpha_dt, seed):
        # every grid size, including periodic sides shorter than the
        # stencil and lengths that are not multiples of the 5 colours
        case = with_viscosity(
            advection_case(u=0.2, w=-0.1, periodic_x=periodic_x, periodic_z=periodic_z), mu)
        h, _ = mesh.build_hierarchy(case.domain, nx, nz, 0, 0)
        op = FVOperator(h, 0, case)
        rng = np.random.default_rng(seed)
        u0 = random_state(op, rng)
        lin = FVLinearization(op, u0, alpha_dt)
        G = stage_matrix(op, u0, alpha_dt)
        w = cycle_vector(rng.standard_normal(u0.shape))
        calls = op.ncalls
        got = lin.matvec(w)
        want = (G @ field(w).ravel()).reshape(u0.shape)
        # float32 blocks and vectors: a few float32 roundings of w - alpha_dt*J w
        assert rms(field(got) - want) <= 1e-6 * (rms(w) + rms(want - field(w)))
        # exactly linear: scaling by powers of two and negation commute with
        # every rounding; sums to float32 round-off
        assert np.array_equal(lin.matvec(2.0 * w), 2.0 * got)
        assert np.array_equal(lin.matvec(-w), -got)
        v = cycle_vector(rng.standard_normal(u0.shape))
        gv = lin.matvec(v)
        assert rms(lin.matvec(w + v) - got - gv) <= 1e-6 * (rms(got) + rms(gv))
        assert not lin.matvec(np.zeros_like(w)).any()
        assert op.ncalls == calls  # matvecs make no operator call
        assert np.array_equal(FVLinearization(op, u0, 0.0).matvec(w), w)

    def test_real_cases_match_column_fd_jacobian(self):
        # gravity, stratified backgrounds, slip walls and viscosity on the
        # acceptance cases
        for name in ("inertia-gravity", "rising-bubble", "density-current"):
            setup = make_setup(name, 3, 2, 0)
            op = setup.fv_op(1)
            u0 = random_state(op, np.random.default_rng(11))
            alpha_dt = 5.0
            lin = FVLinearization(op, u0, alpha_dt)
            G = stage_matrix(op, u0, alpha_dt)
            w = cycle_vector(np.random.default_rng(12).standard_normal(u0.shape) * op.bg)
            want = (G @ field(w).ravel()).reshape(u0.shape)
            assert rms(field(lin.matvec(w)) - want) <= 1e-5 * rms(want), name
