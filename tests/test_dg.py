import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import advection_case, entropy_wave, make_setup, rms
from dgmg import cases, mesh
from dgmg.dg import DGBasis, DGOperator, kron_t
from dgmg.physics import InadmissibleStateError
from dgmg.quadrature import gauss_legendre
from dgmg.timeint import ssprk34_step
from references import evaluate, project, tensorize, total_mass


class TestBasis:
    def setup_method(self):
        self.b = DGBasis(3)

    def test_derivative_of_constants_vanishes(self):
        assert np.allclose(self.b.diff @ np.ones(4), 0.0, atol=1e-13)

    def test_derivative_exact_for_cubics(self):
        x = self.b.nodes
        for m in range(4):
            d = self.b.diff @ x**m
            expected = m * x ** max(m - 1, 0) if m else np.zeros(4)
            assert np.allclose(d, expected, atol=1e-11)

    def test_eval_matrix_lagrange_property(self):
        A = self.b.eval_matrix(self.b.nodes)
        assert np.allclose(A, np.eye(4), atol=1e-13)

    def test_trace_vectors_partition_unity(self):
        e0, e1 = self.b.traces
        assert e0.sum() == pytest.approx(1.0, abs=1e-13)
        assert e1.sum() == pytest.approx(1.0, abs=1e-13)

    def test_mass_weights_positive_unit_sum(self):
        assert np.all(self.b.weights > 0.0)
        assert self.b.weights.sum() == pytest.approx(1.0, abs=1e-14)


def matrices():
    return arrays(np.float64, st.tuples(st.integers(1, 5), st.integers(1, 5)),
                  elements=st.floats(-1e3, 1e3))


@given(M=matrices(), q=st.integers(1, 16), B=matrices())
def test_kron_t_is_numpy_kron_transposed(M, q, B):
    assert np.array_equal(kron_t(M, np.eye(q)), np.kron(M, np.eye(q)).T)
    assert np.array_equal(kron_t(M, B), np.kron(M, B).T)


class TestProjectionAndEvaluate:
    def setup_method(self):
        case = advection_case()
        grid = mesh.Grid(case.domain, 3, 2)
        self.basis = DGBasis(3)
        self.op = DGOperator(grid, self.basis, case)

    def test_constant_field(self):
        U = project(self.op, lambda x, z: np.broadcast_to([2.5, 0, 0, 1.0], x.shape + (4,)))
        assert np.all(U[..., 0] == 2.5)
        v = evaluate(U, self.basis, 1, 1, np.array([0.3, 0.7]))
        assert np.allclose(v, [2.5, 0, 0, 1.0], atol=1e-13)

    def test_cubic_reproduced(self):
        def f(x, z):
            out = np.zeros(x.shape + (4,))
            out[..., 0] = x**3 - 2 * x * z + z**2
            return out

        U = project(self.op, f)
        # compare at off-node points against the polynomial oracle
        rng = np.random.default_rng(1)
        pts = rng.random((40, 2))
        dom = self.op.grid.domain
        for i, j in [(0, 0), (2, 1)]:
            x = dom.x_min + (i + pts[:, 0]) * self.op.dx
            z = dom.z_min + (j + pts[:, 1]) * self.op.dz
            vals = evaluate(U, self.basis, i, j, pts)
            assert np.allclose(vals[:, 0], x**3 - 2 * x * z + z**2, atol=1e-13)

    def test_evaluate_at_nodes_returns_nodal_values(self):
        rng = np.random.default_rng(2)
        U = rng.standard_normal((2, 3, 4, 4, 4))
        pts = np.array([[self.basis.nodes[1], self.basis.nodes[2]]])
        v = evaluate(U, self.basis, 0, 1, pts)
        assert np.allclose(v[0], U[1, 0, 2, 1], atol=1e-13)

    def test_evaluate_cubic_at_eighths(self):
        rng = np.random.default_rng(3)
        coef = rng.standard_normal((4, 4))

        def poly(x, z):
            return sum(
                coef[m, n] * x**m * z**n for m in range(4) for n in range(4)
            )

        def f(x, z):
            out = np.zeros(x.shape + (4,))
            out[..., 2] = poly(x, z)
            return out

        U = project(self.op, f)
        v = evaluate(U, self.basis, 0, 0, np.array([1 / 8, 3 / 8]))
        x = self.op.grid.domain.x_min + self.op.dx / 8
        z = self.op.grid.domain.z_min + 3 * self.op.dz / 8
        assert v[2] == pytest.approx(poly(x, z), abs=1e-12)

    def test_inertia_gravity_profile_at_nodes(self):
        setup = make_setup("inertia-gravity", 10, 1, 0)
        U = project(
            setup.dg_op, lambda x, z: np.stack([setup.case.theta_pert(x, z)] * 4, axis=-1)
        )
        expected = setup.case.theta_pert(setup.dg_op.X, setup.dg_op.Z)
        assert np.array_equal(U[..., 0], expected)


class TestTotalMass:
    def setup_method(self):
        case = advection_case()
        grid = mesh.Grid(case.domain, 4, 4)
        self.op = DGOperator(grid, DGBasis(3), case)

    def test_constant_on_unit_domain(self):
        U = np.ones((4, 4, 4, 4, 4))
        assert total_mass(self.op, U, 0) == pytest.approx(1.0, rel=1e-13)

    def test_antisymmetric_field(self):
        U = np.zeros((4, 4, 4, 4, 4))
        U[..., 1] = self.op.X - 0.5
        assert abs(total_mass(self.op, U, 1)) < 1e-15

    def test_matches_tensor_quadrature_oracle(self):
        rng = np.random.default_rng(7)
        coef = rng.standard_normal((4, 4))

        def poly(x, z):
            return sum(coef[m, n] * x**m * z**n for m in range(4) for n in range(4))

        U = np.zeros((4, 4, 4, 4, 4))
        U[..., 3] = poly(self.op.X, self.op.Z)
        rule = tensorize(gauss_legendre(3))
        oracle = 0.0
        dom = self.op.grid.domain
        for i in range(4):
            for j in range(4):
                x = dom.x_min + (i + rule.points[:, 0]) * self.op.dx
                z = dom.z_min + (j + rule.points[:, 1]) * self.op.dz
                oracle += self.op.dx * self.op.dz * np.sum(rule.weights * poly(x, z))
        assert total_mass(self.op, U, 3) == pytest.approx(oracle, rel=1e-12)


class TestWellBalance:
    @pytest.mark.parametrize("name", ["inertia-gravity", "rising-bubble", "density-current"])
    def test_operator_vanishes_on_zero_perturbation(self, name):
        setup = make_setup(name, 5, 2, 1)
        out = setup.dg_op(setup.dg_op.zero_field())
        assert np.abs(out).max() == 0.0


class TestWorkArrays:
    """The operator keeps its intermediates in arrays of its own; every call
    must overwrite what it reads of them and return a new array."""

    CASES = [("rising-bubble", 5, 10, 0), ("inertia-gravity", 10, 1, 1),
             ("density-current", 5, 2, 1)]

    @staticmethod
    def states(setup, n):
        rng = np.random.default_rng(7)
        U = cases.build_initial_state(setup.case, setup.dg_op)
        scale = np.abs(setup.dg_op.bg_vol).max(axis=(0, 1, 2, 3))
        return [U + 1e-3 * scale * rng.standard_normal(U.shape) for _ in range(n)]

    @pytest.mark.parametrize("case", CASES)
    def test_later_calls_leave_earlier_results_unchanged(self, case):
        setup = make_setup(*case)
        op = setup.dg_op
        U1, U2 = self.states(setup, 2)
        out1 = op(U1)
        kept = out1.copy()
        out2 = op(U2)
        assert out2 is not out1 and np.array_equal(out1, kept)
        fresh = make_setup(*case).dg_op
        assert np.array_equal(out2, fresh(U2))
        assert np.array_equal(op(U1), kept)

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("where", ["volume node", "face trace"])
    def test_call_after_inadmissible_state_matches_fresh_operator(self, case, where):
        setup = make_setup(*case)
        op = setup.dg_op
        (U,) = self.states(setup, 1)
        bad = U.copy()
        if where == "volume node":
            bad[0, 0, 1, 1, 3] = -2.0 * op.bg_vol[0, 0, 1, 1, 3]
        else:
            # rho*theta' linear across the cell: negative on its east trace only
            x = op.basis.nodes
            bad[0, 0, ..., 3] = -0.97 * op.bg_vol[0, 0, ..., 3] * ((x - 0.5) / (x[-1] - 0.5))[None, :]
        with pytest.raises(InadmissibleStateError, match=where):
            op(bad)
        assert np.array_equal(op(U), make_setup(*case).dg_op(U))
        assert not np.any(op(op.zero_field()))

    @settings(max_examples=40, deadline=None)
    @given(periodic=st.tuples(st.booleans(), st.booleans()), mu=st.sampled_from([0.0, 0.05]),
           nx=st.integers(1, 4), nz=st.integers(1, 4), data=st.data())
    def test_output_independent_of_earlier_states(self, periodic, mu, nx, nz, data):
        # the unit-sound-speed background perturbed by a few percent is
        # admissible; a perturbation of 2 may not be, and then the call
        # raises after writing part of the work arrays
        case = advection_case(u=0.2, w=-0.1, periodic_x=periodic[0], periodic_z=periodic[1])
        c = dataclasses.replace(case.constants, mu=mu)
        case = dataclasses.replace(case, constants=c,
                                   atmosphere=dataclasses.replace(case.atmosphere, constants=c))
        grid = mesh.Grid(case.domain, nx, nz)

        def build():
            return DGOperator(grid, DGBasis(3), case)

        op = build()
        shape = op.bg_vol.shape
        for scale in data.draw(st.lists(st.sampled_from([0.05, 2.0]), max_size=3)):
            try:
                op(data.draw(arrays(np.float64, shape, elements=st.floats(-scale, scale))))
            except InadmissibleStateError:
                pass
        U = data.draw(arrays(np.float64, shape, elements=st.floats(-0.05, 0.05)))
        assert np.array_equal(op(U), build()(U))

    def test_backgrounds_share_no_memory_with_work_arrays(self):
        op = make_setup("density-current", 5, 2, 1).dg_op

        def arrays_in(value):
            if isinstance(value, (tuple, list)):
                return [a for v in value for a in arrays_in(v)]
            return [value] if isinstance(value, np.ndarray) else []

        # seven arrays and views of every call, eight of the viscous terms
        work = arrays_in([value for name, value in vars(op).items() if name.startswith("_")])
        assert len(work) == 15
        for bg in (op.bg_visc_vol, *op.bg_hv, op.bg_hflux_x, op.bg_hflux_z):
            assert not any(np.shares_memory(bg, a) for a in work)

    @staticmethod
    def peak_fields(fn, field):
        """Peak of the bytes fn() allocates, in fields of field's size."""
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1] / field.nbytes
        finally:
            tracemalloc.stop()

    def test_viscous_terms_allocate_nothing(self):
        # the dc-mg-viscous cell layout: 64 x 16 DG cells at k = 3, periodic
        # in x, slip walls in z. The viscous terms write into work arrays
        # made by the constructor; an inviscid operator makes none. What a
        # whole call still allocates is rhs (one field) and, at its peak,
        # the HLLC temporaries of one axis with the other axis' fluxes
        # (1.4 fields here)
        setup = make_setup("density-current", 16, 4, 2)
        viscous = setup.dg_op
        c = dataclasses.replace(setup.case.constants, mu=0.0)
        case = dataclasses.replace(setup.case, constants=c,
                                   atmosphere=dataclasses.replace(setup.case.atmosphere, constants=c))
        inviscid = DGOperator(setup.dg_op.grid, setup.basis, case)
        (U,) = self.states(setup, 1)
        assert "_V" in vars(viscous) and "_V" not in vars(inviscid)
        peaks = []
        for op in (viscous, inviscid):
            op(U)
            peaks.append(self.peak_fields(lambda: op(U), U))
        assert peaks[0] <= peaks[1] + 0.01, peaks
        assert peaks[0] <= 2.5, peaks

        # the viscous terms alone, below the HLLC peak of a whole call
        op = viscous
        full = U + op.bg_vol
        Bx, Bz = op._face_states(U)

        def terms():
            V, _ = op._viscous_volume_fluxes(full)
            op._viscous_face_fluxes(V, Bx, Bz)

        # numpy copies the periodic ghosts, a row of faces, through a
        # temporary (0.03 fields); one face-sized temporary would be 0.06
        assert self.peak_fields(terms, U) <= 0.05


class TestFreeStream:
    def test_constant_state_is_steady_without_gravity(self):
        case = advection_case(u=1.0, w=0.5)
        grid = mesh.Grid(case.domain, 3, 3)
        op = DGOperator(grid, DGBasis(3), case)
        Up = np.zeros((3, 3, 4, 4, 4))
        Up[..., 0] = 0.05
        Up[..., 1] = 0.05 * 1.0
        Up[..., 2] = 0.05 * 0.5
        Up[..., 3] = 0.01
        out = op(Up)
        assert np.abs(out).max() < 1e-13


class TestConservation:
    def test_periodic_mass_production_is_zero(self):
        case = advection_case(u=1.0, w=0.3)
        grid = mesh.Grid(case.domain, 4, 4)
        op = DGOperator(grid, DGBasis(3), case)
        U = project(op, lambda x, z: entropy_wave(x, z, 0.0, u=1.0, w=0.3))
        out = op(U)
        scale = np.abs(total_mass(op, U, 0)) + 1.0
        assert abs(total_mass(op, out, 0)) < 1e-12 * scale

    def test_slip_walls_conserve_mass(self):
        setup = make_setup("rising-bubble", 5, 10, 0)
        U = cases.build_initial_state(setup.case, setup.dg_op)
        out = setup.dg_op(U)
        domain_mass = total_mass(setup.dg_op, setup.dg_op.bg_vol, 0)
        assert abs(total_mass(setup.dg_op, out, 0)) < 1e-12 * domain_mass


class TestManufacturedConvergence:
    def test_entropy_wave_order_k_plus_one(self):
        case = advection_case(u=1.0)
        errs = []
        for N in (4, 8, 16):
            grid = mesh.Grid(case.domain, N, 2)
            op = DGOperator(grid, DGBasis(3), case)
            U = project(op, lambda x, z: entropy_wave(x, z, 0.0))
            t, t_end = 0.0, 0.25
            dt = t_end / np.ceil(t_end / (0.25 / (N * 7 * 2.0)))
            for _ in range(int(round(t_end / dt))):
                U, _ = ssprk34_step(lambda u, tt: op(u, tt), U, t, dt)
                t += dt
            err = rms(U - entropy_wave(op.X, op.Z, t), op.norm_weights)
            errs.append(err)
        r1 = np.log2(errs[0] / errs[1])
        r2 = np.log2(errs[1] / errs[2])
        # expected k+1 = 4; require at least k + 0.5
        assert min(r1, r2) > 3.5, (errs, r1, r2)


class TestViscousOperator:
    def test_matches_analytic_divergence(self):
        sympy = pytest.importorskip("sympy")
        sp = sympy
        case = cases.by_name("density-current")
        c = case.constants
        x, z = sp.symbols("x z")
        Tb = sp.Float(300) - z * sp.Float(c.g) / sp.Float(c.c_p)
        pb = sp.Float(c.p0) * (Tb / sp.Float(300)) ** (sp.Float(c.c_p) / sp.Float(c.R_d))
        rho_b = pb / (sp.Float(c.R_d) * Tb)
        Lx, Lz = case.domain.width, case.domain.height
        # profiles with zero normal derivative at the slip walls
        prims = [
            sp.Float(1e-3) * sp.cos(sp.pi * x / Lx) * sp.cos(sp.pi * z / Lz),
            sp.Float(2e-3) * sp.cos(2 * sp.pi * x / Lx) * sp.cos(sp.pi * z / Lz),
            sp.Float(0.5) * sp.cos(sp.pi * x / Lx) * sp.cos(2 * sp.pi * z / Lz),
        ]
        mu = sp.Float(c.mu)
        div = [
            sp.lambdify((x, z), sp.diff(mu * rho_b * sp.diff(f, x), x)
                        + sp.diff(mu * rho_b * sp.diff(f, z), z), "numpy")
            for f in prims
        ]
        fns = [sp.lambdify((x, z), f, "numpy") for f in prims]

        c0 = dataclasses.replace(c, mu=0.0)
        case0 = dataclasses.replace(
            case, constants=c0, atmosphere=dataclasses.replace(case.atmosphere, constants=c0)
        )
        errs = []
        for N in (4, 8, 16):
            grid = mesh.Grid(case.domain, N, N // 2)
            basis = DGBasis(3)
            op = DGOperator(grid, basis, case)
            op0 = DGOperator(grid, basis, case0)
            bg = op.bg_vol
            U = np.zeros_like(bg)
            U[..., 1] = bg[..., 0] * fns[0](op.X, op.Z)
            U[..., 2] = bg[..., 0] * fns[1](op.X, op.Z)
            U[..., 3] = bg[..., 0] * (bg[..., 3] / bg[..., 0] + fns[2](op.X, op.Z)) - bg[..., 3]
            dv = op(U) - op0(U)
            w = op.norm_weights[..., 0]
            err = 0.0
            for row in range(3):
                ex = div[row](op.X, op.Z) * np.ones_like(op.X)
                err += rms(dv[..., 1 + row] - ex, w) / rms(ex, w)
            errs.append(err)
        assert errs[2] < 0.1 * errs[0], errs
        assert errs[2] < 0.05


class TestErrors:
    def test_inadmissible_state_reports_cell(self):
        setup = make_setup("rising-bubble", 5, 10, 0)
        U = setup.dg_op.zero_field()
        U[3, 2, 1, 1, 3] = -1e6  # drives rho*theta negative
        with pytest.raises(InadmissibleStateError) as err:
            setup.dg_op(U)
        assert err.value.location == (2, 3)
        assert "of cell (i=2, j=3) of the 5 x 10 grid" in str(err.value)

    @pytest.mark.parametrize(
        "name, base_nx, base_nz, axis, side, i, j",
        [
            ("rising-bubble", 5, 10, "x", "lo", 2, 3),  # interior face
            ("rising-bubble", 5, 10, "x", "lo", 0, 3),  # west wall ghost
            ("rising-bubble", 5, 10, "x", "hi", 4, 6),  # east wall ghost
            ("rising-bubble", 5, 10, "z", "lo", 1, 0),  # bottom wall ghost
            ("rising-bubble", 5, 10, "z", "hi", 3, 9),  # top wall ghost
            ("inertia-gravity", 10, 1, "x", "hi", 9, 0),  # periodic seam
            ("inertia-gravity", 10, 1, "x", "lo", 0, 0),
        ],
    )
    def test_inadmissible_trace_reports_cell(self, name, base_nx, base_nz, axis, side, i, j):
        # rho*theta' linear across the cell: positive at every volume node,
        # negative on one face trace only
        setup = make_setup(name, base_nx, base_nz, 0)
        op = setup.dg_op
        x = op.basis.nodes
        r = (0.5 - x) / (0.5 - x[0]) if side == "lo" else (x - 0.5) / (x[-1] - 0.5)
        r = r[None, :] if axis == "x" else r[:, None]
        U = op.zero_field()
        U[j, i, ..., 3] = -0.97 * op.bg_vol[j, i, ..., 3] * r
        assert np.all((U + op.bg_vol)[..., 3] > 0.0)
        with pytest.raises(InadmissibleStateError, match="face trace") as err:
            op(U)
        assert err.value.location == (i, j)
        assert f"of cell (i={i}, j={j}) of the {base_nx} x {base_nz} grid" in str(err.value)
