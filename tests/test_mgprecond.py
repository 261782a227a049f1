import functools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import references
from conftest import advection_case, make_setup, rms
from dgmg import cases, mesh, mgprecond
from dgmg.cases import build_initial_state
from dgmg.fv import FVLinearization, FVOperator
from dgmg.mgprecond import (
    RK_STAGES,
    MGConfig,
    MGConfigError,
    MultigridPreconditioner,
    _pseudo_dtau,
    mg_cycle,
    parse_mg_config,
    prolong,
    restrict,
    smooth,
)
from dgmg.physics import wave_speeds
from dgmg.timeint import (
    SDIRK2_ALPHA,
    FDLinearization,
    NewtonParams,
    sdirk2_step,
)
from test_faces import with_viscosity
from test_fv import field, random_state


class TestConfigParsing:
    def test_paper_keys(self):
        cfg = parse_mg_config("mg111111V")
        assert (cfg.dg_pre, cfg.dg_post) == (1, 1)
        assert (cfg.fine_pre, cfg.fine_post) == (1, 1)
        assert (cfg.mid_pre, cfg.mid_post) == (1, 1)
        assert cfg.cycle == "V"
        assert cfg == MGConfig(1, 1, 1, 1, 1, 1, "V")
        cfg = parse_mg_config("mg001122W")
        assert (cfg.dg_pre, cfg.dg_post, cfg.fine_pre, cfg.fine_post,
                cfg.mid_pre, cfg.mid_post, cfg.cycle) == (0, 0, 1, 1, 2, 2, "W")

    def test_bad_cycle_letter_reports_position(self):
        with pytest.raises(MGConfigError, match="position 8"):
            parse_mg_config("mg111111X")

    def test_bad_digit_reports_position(self):
        with pytest.raises(MGConfigError, match="position 4"):
            parse_mg_config("mg11x111V")

    @pytest.mark.parametrize("digit", ["\u00b2", "\u0663"])  # superscript two, Arabic-Indic three
    def test_non_ascii_digit_reports_position(self, digit):
        with pytest.raises(MGConfigError, match="position 4"):
            parse_mg_config(f"mg11{digit}111V")

    def test_bad_prefix_and_length(self):
        with pytest.raises(MGConfigError, match="prefix"):
            parse_mg_config("xx111111V")
        with pytest.raises(MGConfigError, match="9"):
            parse_mg_config("mg11111V")

    def test_invalid_fields_rejected(self):
        with pytest.raises(MGConfigError):
            MGConfig(0, 0, -1, 0, 0, 0, "V")
        with pytest.raises(MGConfigError):
            MGConfig(0, 0, 0, 0, 0, 0, "Q")


class TestTransfersBetweenLevels:
    # the cycle's component-major layout (components, nz, nx)
    def test_restrict_averages_children(self):
        u = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        assert restrict(u)[0, 0, 0] == pytest.approx(2.5)

    def test_restrict_preserves_constants_and_mass(self):
        rng = np.random.default_rng(0)
        u = rng.standard_normal((4, 8, 6))
        const = np.full((2, 4, 4), 7.0)
        assert np.allclose(restrict(const), 7.0)
        # each coarse cell has 4x the area: total volume-weighted sum conserved
        assert 4.0 * restrict(u).sum() == pytest.approx(u.sum(), rel=1e-12)

    def test_prolong_injects_parent_values(self):
        u = np.arange(6.0).reshape(1, 2, 3)
        v = prolong(u)
        assert v.shape == (1, 4, 6)
        assert np.all(v[0, 0:2, 0:2] == u[0, 0, 0])
        checker = np.indices((2, 2)).sum(axis=0) % 2
        blocks = prolong(checker[None])
        assert np.all(blocks[0, 0:2, 2:4] == 1)
        assert prolong(u.astype(np.float32)).dtype == np.float32

    def test_restrict_after_prolong_is_identity(self):
        rng = np.random.default_rng(1)
        u = rng.standard_normal((4, 3, 5))
        assert np.allclose(restrict(prolong(u)), u, atol=1e-15)

    def test_adjointness_up_to_volume_scaling(self):
        # <R u, v>_coarse * 4 == <u, P v>_fine on uniform grids
        rng = np.random.default_rng(2)
        u = rng.standard_normal((1, 4, 6))
        v = rng.standard_normal((1, 2, 3))
        lhs = 4.0 * np.sum(restrict(u) * v)
        rhs = np.sum(u * prolong(v))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(nz=st.integers(1, 12), nx=st.integers(1, 12),
           dtype=st.sampled_from([np.float32, np.float64]), data=st.data())
    def test_restrict_is_bitwise_the_child_mean(self, nz, nx, dtype, data):
        # numpy's mean over the (2, 2) child axes of the (nz, nx, 4) layout
        # of the frozen FV states; over the component-major layout numpy
        # sums a contiguous pair of children in another order,
        # (a + b) + (c + d)
        shape = (4, 2 * nz, 2 * nx)
        width = np.finfo(dtype).bits
        u = data.draw(arrays(dtype, shape, elements=st.floats(-1e6, 1e6, width=width)))
        fields = np.ascontiguousarray(u.transpose(1, 2, 0))
        mean = fields.reshape(nz, 2, nx, 2, 4).mean(axis=(1, 3)).transpose(2, 0, 1)
        got = restrict(u)
        assert got.dtype == dtype
        assert np.array_equal(got, mean)

    def test_restrict_rejects_odd_grid(self):
        with pytest.raises(ValueError):
            restrict(np.zeros((1, 3, 4)))


class TestSmoother:
    # vectors (components, nz, nx), pseudo steps (nz, nx)
    def test_zero_steps_leave_input(self):
        x = np.ones((1, 2, 2))
        out = smooth(lambda v: v, x, np.zeros_like(x), 0, np.full((2, 2), 0.5))
        assert np.array_equal(out, x)

    def test_scalar_closed_form(self):
        # one Euler step on g' = d: x + dtau (b - d x)
        d, b, x0, dtau = 3.0, 2.0, 0.25, 0.1
        out = smooth(lambda v: d * v, np.array([[[x0]]]), np.array([[[b]]]), 1,
                     np.array([[dtau]]))
        assert out[0, 0, 0] == pytest.approx(x0 + dtau * (b - d * x0), rel=1e-14)

    def test_fixed_point_is_stationary(self):
        rng = np.random.default_rng(3)
        A = np.eye(4) + 0.1 * rng.standard_normal((4, 4))
        xs = rng.standard_normal(4)
        b = A @ xs

        def mv(v):
            return (A @ v.ravel()).reshape(v.shape)

        out = smooth(mv, xs.reshape(1, 1, 4).copy(), b.reshape(1, 1, 4), 5,
                     np.full((1, 4), 0.3))
        assert rms(out.ravel() - xs) <= 1e-12 * rms(xs)

    def test_zero_iterate_skips_matvec(self):
        calls = []

        def mv(v):
            calls.append(1)
            return v

        x = np.zeros((1, 2, 2))
        b = np.ones_like(x)
        smooth(mv, x, b, 1, np.full((2, 2), 0.5))
        assert len(calls) == 0  # first step sees x = 0


# the benchmark grids of the three cases: (case, base_nx, base_nz, level,
# dt, mass-fix transfer)
BENCHMARK_GRIDS = [
    ("inertia-gravity", 10, 1, 2, 25.0, False),
    ("rising-bubble", 5, 10, 2, 10.0, False),
    ("density-current", 16, 4, 2, 10.0, True),
]


class TestSmootherStability:
    """The pseudo steps keep z = dtau * lambda in the disc |z - 1| <= 1,
    and an FV smoothing step, whose stability polynomial is (1 - z)^s,
    does not amplify anywhere on that disc."""

    @pytest.mark.parametrize("name, base_nx, base_nz, level, dt, massfix", BENCHMARK_GRIDS)
    def test_coarse_level_spectra_lie_in_the_disc(self, name, base_nx, base_nz, level, dt,
                                                   massfix):
        setup = make_setup(name, base_nx, base_nz, level)
        fv_ops = [setup.fv_op(l) for l in range(setup.hierarchy.n_levels)]
        mg = MultigridPreconditioner(setup.dg_op, fv_ops, setup.transfer(),
                                     parse_mg_config("mg111111V"), use_massfix=massfix)
        U0 = build_initial_state(setup.case, setup.dg_op)
        for l, (matvec, dtau) in enumerate(mg.fv_levels(U0, SDIRK2_ALPHA * dt)[:2]):
            shape = (4, fv_ops[l].nz, fv_ops[l].nx)
            n = int(np.prod(shape))
            assert n <= 1024
            G = np.column_stack([matvec(e.reshape(shape)).ravel()
                                 for e in np.eye(n, dtype=np.float32)]).astype(np.float64)
            z = np.linalg.eigvals(np.broadcast_to(dtau, shape).reshape(-1, 1) * G)
            assert np.abs(z - 1.0).max() <= 1.0, (l, np.abs(z - 1.0).max())

    def test_step_amplification_is_bounded_on_the_disc(self):
        # a diagonal operator with eigenvalues z / dtau on circles about 1;
        # the single-level cycle makes max(2, 1 + 1) smoothing steps
        theta = np.linspace(0.0, 2.0 * np.pi, 721)
        z = 1.0 + np.array([0.25, 0.5, 0.75, 1.0])[:, None] * np.exp(1j * theta)
        dtau = np.full(z.shape, 0.5)
        lam = (z / dtau)[None]
        x0 = np.ones_like(lam)
        out = mg_cycle([(lambda v: lam * v, dtau)], 0, x0, np.zeros_like(x0),
                       parse_mg_config("mg001100V"))[0]
        step = (1.0 - z) ** RK_STAGES
        assert np.allclose(out, step**2, rtol=0.0, atol=1e-13)
        assert np.abs(out).max() <= 1.0 + 1e-13


def upwind_system(n, alpha_dt=0.5, velocity=1.0, diffusion=0.05):
    """Dense implicit-stage matrix of a periodic upwind advection-diffusion
    discretization on an n x n grid, plus its matvec on (1, n, n) fields."""
    h = 1.0 / n
    N = n * n
    A = np.zeros((N, N))
    for j in range(n):
        for i in range(n):
            k = j * n + i
            for (jj, ii), coef in {
                (j, i): -velocity / h - 2 * diffusion / h**2 * 2,
                (j, (i - 1) % n): velocity / h + diffusion / h**2,
                (j, (i + 1) % n): diffusion / h**2,
                ((j - 1) % n, i): diffusion / h**2,
                ((j + 1) % n, i): diffusion / h**2,
            }.items():
                A[k, jj * n + ii] += coef
    G = np.eye(N) - alpha_dt * A

    def mv(v):
        return (G @ v.ravel()).reshape(v.shape)

    return G, mv


class TestMGCycle:
    def build_levels(self, n, alpha_dt=0.5):
        levels = []
        sizes = []
        m = n
        while m >= 1:
            sizes.append(m)
            if m % 2:
                break
            m //= 2
        for m in reversed(sizes):
            h = 1.0 / m
            G, mv = upwind_system(m, alpha_dt)
            # spectral radius bound of the 2D upwind + 5-point operator
            rate = 2.0 / h + 8 * 0.05 / h**2
            dtau = np.full((m, m), 1.0 / (1.0 + alpha_dt * rate))
            levels.append((mv, dtau))
        return levels

    def test_single_level_reduces_to_smoothing(self):
        levels = self.build_levels(1)
        cfg = parse_mg_config("mg001100V")
        b = np.ones((1, 1, 1))
        out = mg_cycle(levels, 0, np.zeros_like(b), b, cfg)
        # max(2, 1 + 1) RK steps of RK_STAGES Euler sub-steps each
        matvec, dtau = levels[0]
        x = np.zeros_like(b)
        for _ in range(2):
            x = smooth(matvec, x, b, RK_STAGES, dtau)
        assert np.allclose(out, x, atol=1e-14)

    def test_zero_rhs_zero_guess_short_circuits(self):
        calls = []

        def mv(v):
            calls.append(1)
            return v

        levels = [(mv, np.full((2, 2), 0.3)),
                  (mv, np.full((4, 4), 0.3))]
        cfg = parse_mg_config("mg001111V")
        out = mg_cycle(levels, 1, np.zeros((1, 4, 4)), np.zeros((1, 4, 4)), cfg)
        assert np.all(out == 0.0)
        assert len(calls) == 0

    def test_v_cycle_contracts_on_advection_diffusion(self):
        levels = self.build_levels(16)
        cfg = parse_mg_config("mg001111V")
        G, mv = upwind_system(16)
        rng = np.random.default_rng(5)
        b = rng.standard_normal((1, 16, 16))
        x = mg_cycle(levels, len(levels) - 1, np.zeros_like(b), b, cfg)
        r = b - mv(x)
        assert rms(r) < 0.5 * rms(b), rms(r) / rms(b)
        # and repeated cycles approach the dense solve
        xs = np.linalg.solve(G, b.ravel()).reshape(b.shape)
        for _ in range(30):
            x = mg_cycle(levels, len(levels) - 1, x, b, cfg)
        assert rms(x - xs) < 1e-4 * rms(xs)

    def test_w_cycle_not_worse_than_v(self):
        levels = self.build_levels(16)
        G, mv = upwind_system(16)
        rng = np.random.default_rng(6)
        b = rng.standard_normal((1, 16, 16))
        res = {}
        for key in ("mg001111V", "mg001111W"):
            cfg = parse_mg_config(key)
            x = mg_cycle(levels, len(levels) - 1, np.zeros_like(b), b, cfg)
            res[key] = rms(b - mv(x))
        assert res["mg001111W"] <= res["mg001111V"] * (1.0 + 1e-12)


class TestCycleAgainstReference:
    @settings(max_examples=40, deadline=None)
    @given(base_nx=st.integers(1, 3), base_nz=st.integers(1, 3), n_levels=st.integers(1, 3),
           periodic_x=st.booleans(), periodic_z=st.booleans(),
           mu=st.sampled_from([0.0, 0.05]), alpha_dt=st.floats(0.01, 10.0),
           key=st.sampled_from(["mg001111V", "mg002112V", "mg001111W"]),
           seed=st.integers(0, 2**32 - 1))
    def test_float32_cycle_matches_float64_gather_cycle(self, base_nx, base_nz, n_levels,
                                                         periodic_x, periodic_z, mu,
                                                         alpha_dt, key, seed):
        # a stack of stencil linearizations at random states, each level
        # with its own pseudo steps; the reference runs the same cycle in
        # float64 on (nz, nx, 4) fields with the neighbour-table gather
        case = with_viscosity(
            advection_case(u=0.2, w=-0.1, periodic_x=periodic_x, periodic_z=periodic_z), mu)
        h = mesh.GridHierarchy(case.domain, base_nx, base_nz, n_levels)
        rng = np.random.default_rng(seed)
        levels, ref_levels = [], []
        for l in range(n_levels):
            op = FVOperator(h, l, case)
            u0 = random_state(op, rng)
            lin = FVLinearization(op, u0, alpha_dt)
            dtau = _pseudo_dtau(*wave_speeds(u0 + op.bg, op.constants), op.dx, op.dz,
                                op.constants.mu, 1.0, alpha_dt)
            neighbours = references.stencil_neighbours(op.nz, op.nx, periodic_x, periodic_z)
            levels.append((lin.matvec, dtau.astype(np.float32)))
            ref_levels.append((functools.partial(references.stencil_matvec, lin, neighbours),
                               dtau))
        cfg = parse_mg_config(key)
        b = rng.standard_normal((4, h.nz[-1], h.nx[-1])).astype(np.float32)
        got = mg_cycle(levels, n_levels - 1, np.zeros_like(b), b, cfg)
        want = references.mg_cycle(ref_levels, n_levels - 1, np.zeros_like(field(b)), field(b),
                                   cfg, RK_STAGES)
        assert got.dtype == np.float32
        assert rms(field(got) - want) <= 1e-5 * rms(want), rms(field(got) - want) / rms(want)


@pytest.fixture(scope="module")
def ig_precond():
    setup = make_setup("inertia-gravity", 10, 1, 1)
    fv_ops = [FVOperator(setup.hierarchy, l, setup.case) for l in range(setup.hierarchy.n_levels)]
    tr = setup.transfer()
    U0 = build_initial_state(setup.case, setup.dg_op)
    alpha_dt = SDIRK2_ALPHA * 25.0

    def G(V):
        return V - alpha_dt * setup.dg_op(V) - U0

    lin = FDLinearization(G, U0, G(U0), setup.dg_op.norm_weights)
    return setup, fv_ops, tr, lin, alpha_dt


class TestPrecondition:
    def test_deterministic_across_calls(self, ig_precond):
        setup, fv_ops, tr, lin, alpha_dt = ig_precond
        mg = MultigridPreconditioner(setup.dg_op, fv_ops, tr, parse_mg_config("mg111111V"))
        M = mg.factory(lin, alpha_dt)
        rng = np.random.default_rng(7)
        y = rng.standard_normal(lin.u0.shape) * 1e-4
        out1 = M(y)
        out2 = M(y)
        assert np.array_equal(out1, out2)

    @pytest.mark.parametrize("massfix", [False, True])
    def test_returns_float64_of_the_input_shape(self, ig_precond, massfix):
        setup, fv_ops, tr, lin, alpha_dt = ig_precond
        mg = MultigridPreconditioner(setup.dg_op, fv_ops, tr, parse_mg_config("mg001111V"),
                                     use_massfix=massfix)
        y = np.random.default_rng(10).standard_normal(lin.u0.shape) * 1e-4
        out = mg.factory(lin, alpha_dt)(y)
        assert out.dtype == np.float64
        assert out.shape == y.shape
        assert np.all(np.isfinite(out)) and out.any()

    def test_v_cycle_calls_the_hooked_names(self, ig_precond, monkeypatch):
        # the benchmark's tracer times the cycle's parts by wrapping these
        # module-level functions and FVLinearization.matvec; a cycle that
        # bypassed them would read as zero layers there
        setup, fv_ops, tr, lin, alpha_dt = ig_precond
        counts = Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in ("restrict", "prolong", "smooth"):
            monkeypatch.setattr(mgprecond, name, counting(name, getattr(mgprecond, name)))
        monkeypatch.setattr(FVLinearization, "matvec",
                            counting("matvec", FVLinearization.matvec))
        mg = MultigridPreconditioner(setup.dg_op, fv_ops, tr, parse_mg_config("mg001111V"))
        M = mg.factory(lin, alpha_dt)
        counts.clear()
        M(np.random.default_rng(11).standard_normal(lin.u0.shape) * 1e-4)
        n = len(fv_ops)
        assert counts["restrict"] == counts["prolong"] == n - 1
        assert counts["smooth"] == 2 * (n - 1) + 1
        assert counts["matvec"] > 0

    def test_linear_to_fd_accuracy(self, ig_precond):
        setup, fv_ops, tr, lin, alpha_dt = ig_precond
        mg = MultigridPreconditioner(setup.dg_op, fv_ops, tr, parse_mg_config("mg111111V"))
        M = mg.factory(lin, alpha_dt)
        rng = np.random.default_rng(8)
        scale = np.array([1e-5, 1e-4, 1e-4, 1e-3])
        u = rng.standard_normal(lin.u0.shape) * scale
        v = rng.standard_normal(lin.u0.shape) * scale
        lhs = M(u + v)
        # one-sided FD puts a curvature floor (~2e-6 here) under the
        # linearity defect of the composed Jacobian-free maps
        assert rms(lhs - M(u) - M(v)) <= 5e-6 * (rms(M(u)) + rms(M(v)))

    def test_degenerate_config_still_linear(self, ig_precond):
        setup, fv_ops, tr, lin, alpha_dt = ig_precond
        mg = MultigridPreconditioner(setup.dg_op, fv_ops, tr, parse_mg_config("mg000000V"))
        M = mg.factory(lin, alpha_dt)
        rng = np.random.default_rng(9)
        u = rng.standard_normal(lin.u0.shape) * 1e-4
        assert np.allclose(M(2.0 * u), 2.0 * M(u), rtol=1e-9, atol=1e-14)

    def test_frozen_states_restrict_down_the_hierarchy(self, ig_precond):
        # fv_levels freezes level finest - 2 at the twice-restricted
        # transfer of the DG state: its pseudo steps come from that state's
        # wave speeds, and its matvec is the stencil linearization there
        setup, fv_ops, tr, lin, alpha_dt = ig_precond
        mg = MultigridPreconditioner(setup.dg_op, fv_ops, tr, parse_mg_config("mg001111V"))
        # an anomaly 1,000 times the case's (density up to about 4%), so
        # that the float32 stack resolves where it was frozen
        U = 1e3 * lin.u0
        levels = mg.fv_levels(U, alpha_dt)
        l = len(fv_ops) - 3
        op = fv_ops[l]
        # the states stay float64 and (nz, nx, 4) for the FV operators, the
        # child means of that layout bit for bit
        def child_mean(v):
            return v.reshape(v.shape[0] // 2, 2, v.shape[1] // 2, 2, 4).mean(axis=(1, 3))

        u = child_mean(child_mean(tr.dg_to_fv(U)))
        dtau = _pseudo_dtau(*wave_speeds(u + op.bg, op.constants), op.dx, op.dz,
                            op.constants.mu, mg.cfg.pseudo_cfl, alpha_dt)
        matvec, got = levels[l]
        assert got.dtype == np.float32
        assert np.array_equal(got, dtau.astype(np.float32))
        w = np.random.default_rng(4).standard_normal((4, op.nz, op.nx)).astype(np.float32)
        assert np.array_equal(matvec(w), FVLinearization(op, u, alpha_dt).matvec(w))

    def test_fv_stack_assembled_once_per_step(self, ig_precond):
        # 5 colours x 4 components + the base evaluation on every level,
        # all in the first stage; the second stage reuses the stack
        setup, fv_ops, tr, _, _ = ig_precond
        mg = MultigridPreconditioner(setup.dg_op, fv_ops, tr, parse_mg_config("mg001111V"))

        def op_counts():
            return setup.dg_op.ncalls, sum(op.ncalls for op in fv_ops)

        U = build_initial_state(setup.case, setup.dg_op)
        for step in range(2):
            U, stats = sdirk2_step(
                lambda u, t: setup.dg_op(u, t), U, 25.0 * step, 25.0,
                weights=setup.dg_op.norm_weights, precond=mg, op_counts=op_counts,
            )
            assert [st.fv_ops for st in stats] == [21 * len(fv_ops), 0]
            assert all(st.newton_iters > 0 for st in stats)

    def test_new_alpha_dt_rebuilds_fv_stack(self, ig_precond):
        setup, fv_ops, tr, lin, alpha_dt = ig_precond
        mg = MultigridPreconditioner(setup.dg_op, fv_ops, tr, parse_mg_config("mg001111V"))
        calls = lambda: sum(op.ncalls for op in fv_ops)
        mg.begin_step()
        start = calls()
        mg.factory(lin, alpha_dt)
        mg.factory(lin, alpha_dt)
        assert calls() - start == 21 * len(fv_ops)
        mg.factory(lin, 0.5 * alpha_dt)
        assert calls() - start == 2 * 21 * len(fv_ops)

    def test_reduces_gmres_iterations_on_newton_system(self, ig_precond):
        setup, fv_ops, tr, _, _ = ig_precond
        U0 = build_initial_state(setup.case, setup.dg_op)
        params = NewtonParams()
        _, stats_plain = sdirk2_step(
            lambda u, t: setup.dg_op(u, t), U0, 0.0, 25.0,
            params=params, weights=setup.dg_op.norm_weights,
        )
        mg = MultigridPreconditioner(setup.dg_op, fv_ops, tr, parse_mg_config("mg001111V"))
        _, stats_mg = sdirk2_step(
            lambda u, t: setup.dg_op(u, t), U0, 0.0, 25.0,
            params=params, weights=setup.dg_op.norm_weights,
            precond=mg,
        )
        assert (sum(s.gmres_iters for s in stats_mg)
                < sum(s.gmres_iters for s in stats_plain))
