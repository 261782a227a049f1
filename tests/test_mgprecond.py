import csv
import functools
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import references
from conftest import advection_case, make_setup, rms
from dgmg import cases, cli, mesh, mgprecond, physics
from dgmg.cases import build_initial_state
from dgmg.fv import FVLinearization
from dgmg.mgprecond import (
    COARSE_SOLVE_MAX,
    RK_STAGES,
    Level,
    MGConfig,
    MGConfigError,
    MultigridPreconditioner,
    mg_cycle,
    parse_mg_config,
    prolong,
    restrict,
    smooth,
)
from dgmg.physics import FaceAxis
from dgmg.timeint import (
    SDIRK2_ALPHA,
    FDLinearization,
    NewtonParams,
    SolverFailure,
    sdirk2_step,
)
from test_faces import with_viscosity
from test_fv import apply, field, perturbation, random_state


def faces_of(periodic):
    """The (xfaces, zfaces) of a level whose x and z axes are periodic or
    not."""
    return FaceAxis(0, periodic[0]), FaceAxis(1, periodic[1])


PERIODIC = faces_of((True, True))


def prolonged(u, periodic):
    """prolong of u on a level whose x and z axes are periodic or not."""
    c, nz, nx = u.shape
    level = Level(None, None, faces_of(periodic), np.empty((c, 2 * nz, 2 * nx), u.dtype))
    return prolong(u, level)


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

    @settings(max_examples=200, deadline=None)
    @given(nz=st.integers(1, 6), nx=st.integers(1, 6), periodic=st.tuples(st.booleans(),
                                                                          st.booleans()),
           dtype=st.sampled_from([np.float32, np.float64]), data=st.data())
    def test_prolong_spreads_a_parent_by_the_bilinear_weights(self, nz, nx, periodic, dtype,
                                                              data):
        # a unit parent reaches the children 2I-1 .. 2I+2 of each axis with
        # 1/4, 3/4, 3/4, 1/4; a child beyond the grid wraps around a
        # periodic axis, and at a slip wall lands on the child next to it,
        # negated for the wall-normal momentum. The weights are dyadic, so
        # the products are exact in either precision.
        m = data.draw(st.integers(0, 3))
        j, i = data.draw(st.integers(0, nz - 1)), data.draw(st.integers(0, nx - 1))
        u = np.zeros((4, nz, nx), dtype=dtype)
        u[m, j, i] = 1.0

        def kernel(n, parent, wrap, sign):
            k = np.zeros(2 * n)
            for child, weight in zip(range(2 * parent - 1, 2 * parent + 3), (1, 3, 3, 1)):
                if wrap:
                    k[child % (2 * n)] += weight / 4
                else:
                    inside = min(max(child, 0), 2 * n - 1)
                    k[inside] += weight / 4 * (sign if inside != child else 1)
            return k

        kx = kernel(nx, i, periodic[0], -1 if m == physics.RHO_U else 1)
        kz = kernel(nz, j, periodic[1], -1 if m == physics.RHO_W else 1)
        want = np.zeros((4, 2 * nz, 2 * nx))
        want[m] = np.outer(kz, kx)
        got = prolonged(u, periodic)
        assert got.dtype == dtype
        assert np.array_equal(got, want)
        if 0 < j < nz - 1 and 0 < i < nx - 1:
            block = got[m, 2 * j - 1:2 * j + 3, 2 * i - 1:2 * i + 3]
            assert np.array_equal(block, np.outer([1, 3, 3, 1], [1, 3, 3, 1]) / 16)

    @settings(max_examples=100, deadline=None)
    @given(axis=st.sampled_from([-1, -2]), n=st.integers(2, 8), other=st.integers(1, 4),
           other_periodic=st.booleans(), dtype=st.sampled_from([np.float32, np.float64]),
           slope=st.lists(st.integers(-8, 8), min_size=4, max_size=4),
           offset=st.lists(st.integers(-64, 64), min_size=4, max_size=4))
    def test_prolong_reproduces_linear_fields_along_a_periodic_axis(
            self, axis, n, other, other_periodic, dtype, slope, offset):
        # u = offset + slope * I along a periodic axis and constant along
        # the other one: every child lies a quarter cell from its parent,
        # at I -+ 1/4, and takes the linear value there, except the two
        # children next to the seam, which average across it
        index = np.arange(n)
        line = np.array(offset)[:, None] + np.array(slope)[:, None] * index
        shape = (4, other, n) if axis == -1 else (4, n, other)
        u = np.broadcast_to(np.expand_dims(line, -axis), shape).astype(dtype)
        periodic = (True, other_periodic) if axis == -1 else (other_periodic, True)
        got = np.moveaxis(prolonged(u, periodic), axis, -1)
        child = np.arange(2 * n)
        want = np.array(offset)[:, None] + np.array(slope)[:, None] * (child / 2 - 0.25)
        want[:, 0] = 0.75 * line[:, 0] + 0.25 * line[:, -1]
        want[:, -1] = 0.75 * line[:, -1] + 0.25 * line[:, 0]
        # the momentum normal to the other axis is mirrored there, so it is
        # compared only where that axis is periodic
        kept = [m for m in range(4)
                if other_periodic or m != (physics.RHO_W if axis == -1 else physics.RHO_U)]
        assert got.dtype == dtype
        assert np.array_equal(got[kept], np.broadcast_to(want[kept, None], got[kept].shape))

    @settings(max_examples=50, deadline=None)
    @given(nz=st.integers(1, 6), nx=st.integers(1, 6), periodic=st.tuples(st.booleans(),
                                                                          st.booleans()),
           dtype=st.sampled_from([np.float32, np.float64]),
           state=st.lists(st.integers(-16, 16), min_size=4, max_size=4))
    def test_prolong_mirrors_the_normal_momentum_at_slip_walls(self, nz, nx, periodic, dtype,
                                                               state):
        # a uniform state: the ghost beyond a slip wall carries the negated
        # wall-normal momentum, so the children next to that wall keep
        # 3/4 - 1/4 = 1/2 of it; everything else is reproduced
        u = np.broadcast_to(np.array(state, dtype=dtype)[:, None, None], (4, nz, nx))
        got = prolonged(u, periodic)
        want = np.broadcast_to(np.array(state, dtype=float)[:, None, None],
                               (4, 2 * nz, 2 * nx)).copy()
        if not periodic[0]:
            want[physics.RHO_U, :, [0, -1]] /= 2
        if not periodic[1]:
            want[physics.RHO_W, [0, -1], :] /= 2
        assert got.dtype == dtype
        assert np.array_equal(got, want)

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


def into(op):
    """The matvec(w, out) of smooth and Level for a map op(w) -> g' w."""
    def matvec(w, out):
        out[...] = op(w)
        return out
    return matvec


def cycle(levels, b, cfg):
    """A copy of one cycle's result on the finest level of levels for the
    right-hand side b, from a zero iterate."""
    levels[-1].b[...] = b
    return mg_cycle(levels, len(levels) - 1, cfg, zero=True).copy()


class TestSmoother:
    # vectors (components, nz, nx), pseudo steps (nz, nx)
    def test_zero_steps_leave_input(self):
        x = np.ones((1, 2, 2))
        out = smooth(into(lambda v: v), x.copy(), np.zeros_like(x), 0, np.full((2, 2), 0.5),
                     np.empty_like(x))
        assert np.array_equal(out, x)

    def test_scalar_closed_form(self):
        # one Euler step on g' = d: x + dtau (b - d x), in place on x
        d, b, x0, dtau = 3.0, 2.0, 0.25, 0.1
        x = np.array([[[x0]]])
        out = smooth(into(lambda v: d * v), x, np.array([[[b]]]), 1, np.array([[dtau]]),
                     np.empty_like(x))
        assert out is x
        assert out[0, 0, 0] == pytest.approx(x0 + dtau * (b - d * x0), rel=1e-14)

    def test_fixed_point_is_stationary(self):
        rng = np.random.default_rng(3)
        A = np.eye(4) + 0.1 * rng.standard_normal((4, 4))
        xs = rng.standard_normal(4)
        b = A @ xs

        def mv(v):
            return (A @ v.ravel()).reshape(v.shape)

        out = smooth(into(mv), xs.reshape(1, 1, 4).copy(), b.reshape(1, 1, 4), 5,
                     np.full((1, 4), 0.3), np.empty((1, 1, 4)))
        assert rms(out.ravel() - xs) <= 1e-12 * rms(xs)

    def test_zero_iterate_skips_matvec(self):
        calls = []

        def mv(v):
            calls.append(1)
            return v

        # a zero iterate's contents are not read
        x = np.full((1, 2, 2), np.nan)
        b = np.ones_like(x)
        smooth(into(mv), x, b, 1, np.full((2, 2), 0.5), np.empty_like(x), zero=True)
        assert len(calls) == 0  # first step sees x = 0
        assert np.array_equal(x, np.full_like(x, 0.5))
        smooth(into(mv), x, b, 1, np.full((2, 2), 0.5), np.empty_like(x))
        assert len(calls) == 1


# the benchmark grids of the three cases: (case, base_nx, base_nz, level,
# dt, mass-fix transfer)
BENCHMARK_GRIDS = [
    ("inertia-gravity", 10, 1, 2, 25.0, False),
    ("rising-bubble", 5, 10, 2, 10.0, False),
    ("density-current", 16, 4, 2, 10.0, True),
]


@functools.cache
def small_stack(name):
    """A 2x2-cell k = 3 setup of a case and its FV levels."""
    setup = make_setup(name, 2, 2, 0)
    return setup, setup.fv_levels()


class TestStiffnessRate:
    """The rate each operator supplies to its step bounds is the reference
    rate of its states, bit for bit."""

    @settings(max_examples=30, deadline=None)
    @given(name=st.sampled_from(sorted(cases.CASES)), level=st.integers(0, 2),
           amplitude=st.floats(0.0, 0.05), cfl=st.floats(0.1, 1.0),
           seed=st.integers(0, 2**32 - 1))
    def test_operators_supply_the_reference_rate(self, name, level, amplitude, cfl, seed):
        # the density current has mu = 75
        setup, fv_ops = small_stack(name)
        op, rng = setup.dg_op, np.random.default_rng(seed)
        Up = perturbation(op.bg_vol, op.constants, rng, amplitude)
        fac = 2 * op.basis.k + 1
        rate = op.rate(Up)
        assert np.array_equal(rate, references.stiffness_rate(
            Up + op.bg_vol, op.dx / fac, op.dz / fac, op.constants, node_axes=(2, 3)))
        assert op.stable_dt(Up, cfl) == cfl / rate.max()
        lin = fv_ops[level]
        u0 = random_state(lin, rng, amplitude)
        assert np.array_equal(lin.assemble(u0, 1.0), references.stiffness_rate(
            u0 + lin.bg, lin.dx, lin.dz, lin.constants))


class TestSmootherStability:
    """The pseudo steps keep z = dtau * lambda in the disc |z - 1| <= 1,
    and an FV smoothing step, whose stability polynomial is (1 - z)^s,
    does not amplify anywhere on that disc."""

    @pytest.mark.parametrize("name, base_nx, base_nz, level, dt, massfix", BENCHMARK_GRIDS)
    def test_coarse_level_spectra_lie_in_the_disc(self, name, base_nx, base_nz, level, dt,
                                                   massfix):
        setup = make_setup(name, base_nx, base_nz, level)
        fv_ops = setup.fv_levels()
        mg = MultigridPreconditioner(setup.dg_op, fv_ops, setup.transfer(),
                                     parse_mg_config("mg111111V"), use_massfix=massfix)
        U0 = build_initial_state(setup.case, setup.dg_op)
        mg.begin_step(U0, SDIRK2_ALPHA * dt)
        for l, level in enumerate(mg.levels[:2]):
            shape = (4, fv_ops[l].nz, fv_ops[l].nx)
            n = int(np.prod(shape))
            assert n <= 1024
            G = np.column_stack([level.matvec(e.reshape(shape), np.empty(shape, np.float32)).ravel()
                                 for e in np.eye(n, dtype=np.float32)]).astype(np.float64)
            z = np.linalg.eigvals(np.broadcast_to(level.dtau, shape).reshape(-1, 1) * G)
            assert np.abs(z - 1.0).max() <= 1.0, (l, np.abs(z - 1.0).max())

    def test_step_amplification_is_bounded_on_the_disc(self):
        # a diagonal operator with eigenvalues z / dtau on circles about 1;
        # its 2,884 unknowns are above COARSE_SOLVE_MAX, so factor makes no
        # inverse and the single-level cycle makes max(2, 1 + 1) smoothing
        # steps
        theta = np.linspace(0.0, 2.0 * np.pi, 721)
        z = 1.0 + np.array([0.25, 0.5, 0.75, 1.0])[:, None] * np.exp(1j * theta)
        dtau = np.full(z.shape, 0.5)
        lam = (z / dtau)[None]
        level = Level(into(lambda v: lam * v), dtau, PERIODIC, np.ones_like(lam))
        assert lam.size > COARSE_SOLVE_MAX
        level.factor()
        assert level.inverse is None
        level.b[...] = 0.0
        out = mg_cycle([level], 0, parse_mg_config("mg001100V"))[0]
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
            levels.append(Level(into(mv), dtau, PERIODIC, np.zeros((1, m, m))))
        # as begin_step does after assembling the coarsest level
        levels[0].factor()
        return levels

    def test_single_level_reduces_to_smoothing(self):
        # 23 x 23 = 529 unknowns, above COARSE_SOLVE_MAX: no inverse
        levels = self.build_levels(23)
        assert len(levels) == 1 and levels[0].inverse is None
        cfg = parse_mg_config("mg001100V")
        b = np.random.default_rng(4).standard_normal((1, 23, 23))
        out = cycle(levels, b, cfg)
        # max(2, 1 + 1) RK steps of RK_STAGES Euler sub-steps each
        level = levels[0]
        x = np.zeros_like(b)
        for _ in range(2):
            x = smooth(level.matvec, x, b, RK_STAGES, level.dtau, np.empty_like(b))
        assert np.allclose(out, x, rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("key", ["mg001100V", "mg003300W"])
    def test_single_level_below_the_cap_is_solved_exactly(self, key):
        # 11 x 11 = 121 unknowns: one product with the inverse, whatever
        # the smoothing counts and the iterate the visit starts from
        levels = self.build_levels(11)
        assert len(levels) == 1 and levels[0].inverse is not None
        G, _ = upwind_system(11)
        b = np.random.default_rng(5).standard_normal((1, 11, 11))
        xs = np.linalg.solve(G, b.ravel()).reshape(b.shape)
        out = cycle(levels, b, parse_mg_config(key))
        assert rms(out - xs) <= 1e-12 * rms(xs)
        levels[0].x[...] = np.nan
        assert np.array_equal(mg_cycle(levels, 0, parse_mg_config(key)), out)

    def test_zero_rhs_zero_guess_short_circuits(self):
        # a visit that starts from a zero iterate skips the operator call
        # of its first sub-step and of its residual when it has no
        # pre-smoothing; the first coarse visit of a W-cycle starts from
        # zero, the second does not
        calls = []

        def mv(v, out):
            calls.append(1)
            out[...] = v
            return out

        for key, coarse_visits in (("mg001111V", 1), ("mg000111V", 1), ("mg001111W", 2)):
            for exact in (False, True):
                cfg = parse_mg_config(key)
                levels = [Level(mv, np.full((2, 2), 0.3), PERIODIC, np.zeros((1, 2, 2))),
                          Level(mv, np.full((4, 4), 0.3), PERIODIC, np.zeros((1, 4, 4)))]
                if exact:
                    levels[0].factor()
                calls.clear()
                out = cycle(levels, np.zeros((1, 4, 4)), cfg)
                assert np.all(out == 0.0)
                # one call per sub-step and one for the fine residual, less
                # the first sub-step of the fine visit (its residual instead
                # when it has no pre-smoothing) and, when the coarse level
                # is smoothed, of its first visit; an exact coarse visit
                # makes no call
                fine = RK_STAGES * (cfg.fine_pre + cfg.fine_post)
                if exact:
                    assert len(calls) == fine, key
                else:
                    coarse = RK_STAGES * max(2, cfg.mid_pre + cfg.mid_post)
                    assert len(calls) == fine + coarse_visits * coarse - 1, key

    def test_v_cycle_contracts_on_advection_diffusion(self):
        levels = self.build_levels(16)
        cfg = parse_mg_config("mg001111V")
        G, mv = upwind_system(16)
        rng = np.random.default_rng(5)
        b = rng.standard_normal((1, 16, 16))
        x = cycle(levels, b, cfg)
        r = b - mv(x)
        assert rms(r) < 0.5 * rms(b), rms(r) / rms(b)
        # and repeated cycles from the last iterate approach the dense solve
        xs = np.linalg.solve(G, b.ravel()).reshape(b.shape)
        for _ in range(30):
            x = mg_cycle(levels, len(levels) - 1, cfg)
        assert rms(x - xs) < 1e-4 * rms(xs)

    def test_w_cycle_not_worse_than_v(self):
        levels = self.build_levels(16)
        G, mv = upwind_system(16)
        rng = np.random.default_rng(6)
        b = rng.standard_normal((1, 16, 16))
        res = {}
        for key in ("mg001111V", "mg001111W"):
            cfg = parse_mg_config(key)
            res[key] = rms(b - mv(cycle(levels, b, cfg)))
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
        # float64 on (nz, nx, 4) fields with the neighbour-table gather and
        # its own np.pad bilinear prolongation; both solve the coarsest
        # level exactly, the package with its float32 inverse and the
        # reference with np.linalg.solve
        case = with_viscosity(
            advection_case(u=0.2, w=-0.1, periodic_x=periodic_x, periodic_z=periodic_z), mu)
        h = mesh.GridHierarchy(case.domain, base_nx, base_nz, n_levels - 1, 0)
        rng = np.random.default_rng(seed)
        levels, ref_levels = [], []
        for l in range(n_levels):
            lin = FVLinearization(h, l, case)
            u0 = random_state(lin, rng)
            lin.assemble(u0, alpha_dt)
            dtau = references.pseudo_dtau(u0 + lin.bg, lin.dx, lin.dz, lin.constants, 1.0,
                                          alpha_dt)
            neighbours = references.stencil_neighbours(lin.nz, lin.nx, periodic_x, periodic_z)
            levels.append(Level(lin.matvec, dtau.astype(np.float32), (lin.xfaces, lin.zfaces),
                                np.zeros((4, lin.nz, lin.nx), dtype=np.float32)))
            ref_levels.append((functools.partial(references.stencil_matvec, lin, neighbours),
                               dtau, (periodic_x, periodic_z)))
        levels[0].factor()
        cfg = parse_mg_config(key)
        b = rng.standard_normal((4, h.nz[-1], h.nx[-1])).astype(np.float32)
        got = cycle(levels, b, cfg)
        want = references.mg_cycle(ref_levels, n_levels - 1, np.zeros_like(field(b)), field(b),
                                   cfg, RK_STAGES)
        assert got.dtype == np.float32
        assert rms(field(got) - want) <= 1e-5 * rms(want), rms(field(got) - want) / rms(want)


@pytest.fixture(scope="module")
def ig_precond():
    setup = make_setup("inertia-gravity", 10, 1, 1)
    fv_ops = setup.fv_levels()
    tr = setup.transfer()
    U0 = build_initial_state(setup.case, setup.dg_op)
    alpha_dt = SDIRK2_ALPHA * 25.0

    def G(V):
        return V - alpha_dt * setup.dg_op(V) - U0

    lin = FDLinearization(G, U0, G(U0), setup.dg_op.norm_weights)
    return setup, fv_ops, tr, lin, alpha_dt


@pytest.fixture
def fv_calls(monkeypatch):
    """The FV levels made and the FV levels assembled, in call order."""
    calls = {"made": [], "assembled": []}
    init, assemble = FVLinearization.__init__, FVLinearization.assemble

    def counting_init(self, *args):
        calls["made"].append(self)
        init(self, *args)

    def counting_assemble(self, *args):
        calls["assembled"].append(self)
        return assemble(self, *args)

    monkeypatch.setattr(FVLinearization, "__init__", counting_init)
    monkeypatch.setattr(FVLinearization, "assemble", counting_assemble)
    return calls


class TestPrecondition:
    def test_deterministic_across_calls(self, ig_precond):
        setup, fv_ops, tr, lin, alpha_dt = ig_precond
        mg = MultigridPreconditioner(setup.dg_op, fv_ops, tr, parse_mg_config("mg111111V"))
        mg.begin_step(lin.u0, alpha_dt)
        M = mg.factory(lin)
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
        mg.begin_step(lin.u0, alpha_dt)
        out = mg.factory(lin)(y)
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
        mg.begin_step(lin.u0, alpha_dt)
        M = mg.factory(lin)
        counts.clear()
        M(np.random.default_rng(11).standard_normal(lin.u0.shape) * 1e-4)
        n = len(fv_ops)
        assert counts["restrict"] == counts["prolong"] == n - 1
        # the coarsest level (1 x 10 cells) is solved, not smoothed
        assert counts["smooth"] == 2 * (n - 1)
        assert counts["matvec"] > 0

    @pytest.mark.parametrize("key", ["mg001111V", "mg001111W", "mg000112W", "mg110111W"])
    def test_kept_buffers_carry_no_state_between_applies(self, ig_precond, key):
        # the level stack's workspace outlives each application, so an
        # application to another vector in between changes nothing; the
        # keys cover a fine level without pre-smoothing and the DG sweeps
        setup, fv_ops, tr, lin, alpha_dt = ig_precond
        mg = MultigridPreconditioner(setup.dg_op, fv_ops, tr, parse_mg_config(key))
        mg.begin_step(lin.u0, alpha_dt)
        M = mg.factory(lin)
        rng = np.random.default_rng(12)
        a, b = (rng.standard_normal(lin.u0.shape) * 1e-4 for _ in range(2))
        first = M(a)
        assert not np.array_equal(M(b), first)
        assert np.array_equal(M(a), first)

    def test_linear_to_fd_accuracy(self, ig_precond):
        setup, fv_ops, tr, lin, alpha_dt = ig_precond
        mg = MultigridPreconditioner(setup.dg_op, fv_ops, tr, parse_mg_config("mg111111V"))
        mg.begin_step(lin.u0, alpha_dt)
        M = mg.factory(lin)
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
        mg.begin_step(lin.u0, alpha_dt)
        M = mg.factory(lin)
        rng = np.random.default_rng(9)
        u = rng.standard_normal(lin.u0.shape) * 1e-4
        assert np.allclose(M(2.0 * u), 2.0 * M(u), rtol=1e-9, atol=1e-14)

    def test_frozen_states_restrict_down_the_hierarchy(self, ig_precond):
        # begin_step freezes level finest - 2 at the twice-restricted
        # transfer of the DG state: its pseudo steps come from that state's
        # wave speeds, and its matvec is the stencil linearization there
        setup, fv_ops, tr, lin, alpha_dt = ig_precond
        mg = MultigridPreconditioner(setup.dg_op, fv_ops, tr, parse_mg_config("mg001111V"))
        # an anomaly 1,000 times the case's (density up to about 4%), so
        # that the float32 stack resolves where it was frozen
        U = 1e3 * lin.u0
        mg.begin_step(U, alpha_dt)
        levels = mg.levels
        l = len(fv_ops) - 3
        op = fv_ops[l]
        # the states stay float64 and (nz, nx, 4) for the FV levels, the
        # child means of that layout bit for bit
        def child_mean(v):
            return v.reshape(v.shape[0] // 2, 2, v.shape[1] // 2, 2, 4).mean(axis=(1, 3))

        u = child_mean(child_mean(tr.dg_to_fv(U)))
        dtau = references.pseudo_dtau(u + op.bg, op.dx, op.dz, op.constants,
                                      mg.cfg.pseudo_cfl, alpha_dt)
        level = levels[l]
        # inertia-gravity: periodic in x, slip walls in z
        assert level.faces == (op.xfaces, op.zfaces) == faces_of((True, False))
        assert level.dtau.dtype == np.float32
        assert np.array_equal(level.dtau, dtau.astype(np.float32))
        w = np.random.default_rng(4).standard_normal((4, op.nz, op.nx)).astype(np.float32)
        fresh = FVLinearization(setup.hierarchy, l, setup.case)
        fresh.assemble(u, alpha_dt)
        assert np.array_equal(level.matvec(w, np.empty_like(w)), apply(fresh, w))

    def test_fv_stack_assembled_once_per_run(self, ig_precond, fv_calls, monkeypatch):
        # a run makes one FV level per hierarchy level; over two steps at a
        # fixed dt only the first step's begin_step assembles them, once
        # each, and nothing else assembles: no factory call, of either stage
        # or any Newton iteration, and no application. After step 2 the kept
        # stack preconditions as a new one frozen at the state step 1
        # started from.
        setup, _, tr, _, _ = ig_precond
        cfg = parse_mg_config("mg001111V")
        fv_ops = setup.fv_levels()
        mg = MultigridPreconditioner(setup.dg_op, fv_ops, tr, cfg)
        in_begin_step = []
        begin_step = MultigridPreconditioner.begin_step

        def counting_begin_step(self, *args):
            before = len(fv_calls["assembled"])
            begin_step(self, *args)
            in_begin_step.extend(fv_calls["assembled"][before:])

        monkeypatch.setattr(MultigridPreconditioner, "begin_step", counting_begin_step)
        start = U = build_initial_state(setup.case, setup.dg_op)
        for step, built in enumerate([fv_ops, []]):
            fv_calls["assembled"].clear()
            in_begin_step.clear()
            U, stats = sdirk2_step(
                lambda u, t: setup.dg_op(u, t), U, 25.0 * step, 25.0,
                weights=setup.dg_op.norm_weights, precond=mg,
            )
            assert sorted(map(id, fv_calls["assembled"])) == sorted(map(id, built))
            assert in_begin_step == fv_calls["assembled"]
            assert all(st.newton_iters > 0 for st in stats)
        assert fv_calls["made"] == fv_ops
        alpha_dt = SDIRK2_ALPHA * 25.0

        def G(V):
            return V - alpha_dt * setup.dg_op(V, 25.0) - U

        lin = FDLinearization(G, U, G(U), setup.dg_op.norm_weights)
        y = np.random.default_rng(15).standard_normal(U.shape) * 1e-4
        kept = mg.factory(lin)(y)
        fresh = MultigridPreconditioner(setup.dg_op, setup.fv_levels(), tr, cfg)
        fresh.begin_step(start, alpha_dt)
        assert np.array_equal(kept, fresh.factory(lin)(y))

    @settings(max_examples=10, deadline=None)
    @given(amplitude=st.floats(0.0, 2.0), steps=st.sampled_from([1.0, 10.0, 25.0]),
           spread=st.floats(1e-3, 0.5), seed=st.integers(0, 2**32 - 1))
    def test_application_reads_only_the_frozen_step(self, ig_precond, amplitude, steps, spread,
                                                    seed):
        # without DG sweeps (mg001111V) an application reads the stack that
        # begin_step froze and nothing of the Newton iterate: linearizations
        # at two iterates of a step give the same output bit for bit, and so
        # does a new preconditioner frozen at the same state
        setup, fv_ops, tr, lin, _ = ig_precond
        cfg = parse_mg_config("mg001111V")
        U, alpha_dt = amplitude * lin.u0, SDIRK2_ALPHA * steps
        mg = MultigridPreconditioner(setup.dg_op, fv_ops, tr, cfg)
        mg.begin_step(U, alpha_dt)
        rng = np.random.default_rng(seed)
        other = U * (1.0 + spread * rng.standard_normal(U.shape))
        iterates = [FDLinearization(lin.residual, u, lin.residual(u), lin.weights)
                    for u in (U, other)]
        y = rng.standard_normal(U.shape) * 1e-4
        out = mg.factory(iterates[0])(y)
        assert np.array_equal(mg.factory(iterates[1])(y), out)
        fresh = MultigridPreconditioner(setup.dg_op, setup.fv_levels(), tr, cfg)
        fresh.begin_step(U, alpha_dt)
        assert np.array_equal(fresh.factory(iterates[1])(y), out)

    def test_rest_state_step_still_assembles_the_stack(self, ig_precond, fv_calls):
        # at rest (U = 0, the hydrostatic background) both stage residuals
        # are zero, so the step stays at rest without a Newton iteration or
        # a GMRES solve; begin_step still assembles each FV level once
        setup, fv_ops, tr, lin, _ = ig_precond
        mg = MultigridPreconditioner(setup.dg_op, fv_ops, tr, parse_mg_config("mg001111V"))
        U, stats = sdirk2_step(lambda u, t: setup.dg_op(u, t), np.zeros_like(lin.u0), 0.0, 25.0,
                               weights=setup.dg_op.norm_weights, precond=mg)
        assert not U.any()
        assert [st.newton_iters for st in stats] == [0, 0]
        assert sorted(map(id, fv_calls["assembled"])) == sorted(map(id, fv_ops))

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


class TestRebuildRule:
    """begin_step keeps the FV stack while alpha_dt holds and a step's
    applications per factory call stay within REBUILD_GROWTH times those
    of the first step on the stack. The tests make a step's factory calls
    and applications by hand, without a solver, and count the assemblies."""

    @staticmethod
    def step(mg, lin, factories, applies):
        """One step's factory calls and applications, the applications made
        with the closure of the last factory call."""
        M = None
        for _ in range(factories):
            M = mg.factory(lin)
        for _ in range(applies):
            M(np.zeros_like(lin.u0))

    @staticmethod
    def built(fv_calls, fv_ops):
        """Whether the assemblies since the last check were one per FV
        level (True) or none (False); clears the record."""
        assembled = sorted(map(id, fv_calls["assembled"]))
        fv_calls["assembled"].clear()
        assert assembled in ([], sorted(map(id, fv_ops)))
        return bool(assembled)

    def test_keeps_the_stack_within_the_growth_bound(self, ig_precond, fv_calls):
        setup, fv_ops, tr, lin, alpha_dt = ig_precond
        mg = MultigridPreconditioner(setup.dg_op, fv_ops, tr, parse_mg_config("mg001111V"))
        mg.begin_step(lin.u0, alpha_dt)
        assert self.built(fv_calls, fv_ops)
        # the baseline is 5 applications per factory call; 7.5 is at the bound
        for factories, applies in [(2, 10), (2, 15), (4, 30), (1, 2)]:
            self.step(mg, lin, factories, applies)
            mg.begin_step(2.0 * lin.u0, alpha_dt)
            assert not self.built(fv_calls, fv_ops)

    def test_rebuilds_when_applications_per_factory_call_grow(self, ig_precond, fv_calls):
        # past the bound the stack is rebuilt at the state the step starts
        # from, and the first step on the new stack sets the new baseline
        setup, fv_ops, tr, lin, alpha_dt = ig_precond
        cfg = parse_mg_config("mg001111V")
        mg = MultigridPreconditioner(setup.dg_op, fv_ops, tr, cfg)
        mg.begin_step(lin.u0, alpha_dt)
        self.built(fv_calls, fv_ops)
        self.step(mg, lin, 2, 10)
        mg.begin_step(lin.u0, alpha_dt)
        self.step(mg, lin, 2, 16)
        U = 2.0 * lin.u0
        mg.begin_step(U, alpha_dt)
        assert self.built(fv_calls, fv_ops)
        y = np.random.default_rng(16).standard_normal(U.shape) * 1e-4
        fresh = MultigridPreconditioner(setup.dg_op, setup.fv_levels(), tr, cfg)
        fresh.begin_step(U, alpha_dt)
        assert np.array_equal(mg.factory(lin)(y), fresh.factory(lin)(y))
        fv_calls["assembled"].clear()
        # with that application the step makes 2 factory calls and 8
        # applications: 4 is the new baseline, 6 its bound
        self.step(mg, lin, 1, 7)
        mg.begin_step(U, alpha_dt)
        self.step(mg, lin, 2, 12)
        mg.begin_step(U, alpha_dt)
        assert not self.built(fv_calls, fv_ops)
        self.step(mg, lin, 2, 13)
        mg.begin_step(U, alpha_dt)
        assert self.built(fv_calls, fv_ops)

    def test_rebuilds_at_a_new_alpha_dt(self, ig_precond, fv_calls):
        # a shortened last step, min(dt, t_final - t), has a new alpha_dt
        setup, fv_ops, tr, lin, alpha_dt = ig_precond
        mg = MultigridPreconditioner(setup.dg_op, fv_ops, tr, parse_mg_config("mg001111V"))
        mg.begin_step(lin.u0, alpha_dt)
        self.built(fv_calls, fv_ops)
        self.step(mg, lin, 2, 10)
        mg.begin_step(lin.u0, 0.4 * alpha_dt)
        assert self.built(fv_calls, fv_ops)
        y = np.random.default_rng(17).standard_normal(lin.u0.shape) * 1e-4
        fresh = MultigridPreconditioner(setup.dg_op, setup.fv_levels(), tr, mg.cfg)
        fresh.begin_step(lin.u0, 0.4 * alpha_dt)
        assert np.array_equal(mg.factory(lin)(y), fresh.factory(lin)(y))
        fv_calls["assembled"].clear()
        self.step(mg, lin, 2, 10)
        mg.begin_step(lin.u0, 0.4 * alpha_dt)
        assert not self.built(fv_calls, fv_ops)
        mg.begin_step(lin.u0, alpha_dt)
        assert self.built(fv_calls, fv_ops)

    def test_step_without_factory_calls_sets_no_baseline(self, ig_precond, fv_calls):
        # a step from rest makes no Newton iteration; the first step that
        # makes one (4 applications per factory call) sets the baseline, so
        # 6 stays within its bound and 7 rebuilds
        setup, fv_ops, tr, lin, alpha_dt = ig_precond
        mg = MultigridPreconditioner(setup.dg_op, fv_ops, tr, parse_mg_config("mg001111V"))
        mg.begin_step(lin.u0, alpha_dt)
        self.built(fv_calls, fv_ops)
        for factories, applies in [(0, 0), (0, 0), (1, 4), (1, 6)]:
            self.step(mg, lin, factories, applies)
            mg.begin_step(lin.u0, alpha_dt)
            assert not self.built(fv_calls, fv_ops)
        self.step(mg, lin, 1, 7)
        mg.begin_step(lin.u0, alpha_dt)
        assert self.built(fv_calls, fv_ops)


class TestLaggedStackRuns:
    """cli.run on the ig-mg-coarse benchmark configuration keeps the stack
    of its first step, with the Newton and GMRES counts of a stack rebuilt
    every step (32 and 173 over 8 steps)."""

    CONFIG = dict(case="inertia-gravity", level=2, base_nx=10, base_nz=1, dt=25.0,
                  mg="mg001111V", transfer="interp")

    def run(self, tmp_path, monkeypatch, fv_calls, t_final):
        """The stats rows of a run to t_final, and the alpha_dt of each
        begin_step that assembled."""
        builds = []
        begin_step = MultigridPreconditioner.begin_step

        def recording_begin_step(self, U, alpha_dt):
            before = len(fv_calls["assembled"])
            begin_step(self, U, alpha_dt)
            if len(fv_calls["assembled"]) > before:
                builds.append(alpha_dt)

        monkeypatch.setattr(MultigridPreconditioner, "begin_step", recording_begin_step)
        assert cli.run(cli.RunConfig(**self.CONFIG, t_final=t_final, outdir=str(tmp_path))) == 0
        with open(tmp_path / "stats.csv") as fh:
            return list(csv.DictReader(fh)), builds

    def test_eight_steps_assemble_each_level_once(self, tmp_path, monkeypatch, fv_calls):
        rows, builds = self.run(tmp_path, monkeypatch, fv_calls, 200.0)
        assert len(rows) == 16
        assert sum(int(r["newton_iters"]) for r in rows) == 32
        assert sum(int(r["gmres_iters"]) for r in rows) <= 173
        assert builds == [SDIRK2_ALPHA * 25.0]
        assert len(fv_calls["made"]) == 5
        assert sorted(map(id, fv_calls["assembled"])) == sorted(map(id, fv_calls["made"]))

    def test_shortened_last_step_assembles_again(self, tmp_path, monkeypatch, fv_calls):
        # 110 s is four 25 s steps and a 10 s one
        rows, builds = self.run(tmp_path, monkeypatch, fv_calls, 110.0)
        assert [float(r["time"]) for r in rows[1::2]] == pytest.approx([25, 50, 75, 100, 110])
        assert builds == [SDIRK2_ALPHA * 25.0, SDIRK2_ALPHA * 10.0]
        assert Counter(map(id, fv_calls["assembled"])) == Counter(
            {id(lin): 2 for lin in fv_calls["made"]})


class TestWorkspace:
    """A warm application on the bubble's benchmark grid (FV levels up to
    80x160) makes no level-sized array in the smoother. Measured with
    tracemalloc: the largest peak of one smooth call above its start is
    26,832 B, the iterator buffers of a broadcast dtau product on the
    40x80 level (819,760 B, four finest-level fields, before the
    workspace), and a whole application peaks at 820,224 B (1,229,920-
    1,230,760 B when the result was zero-filled, 1,296,864 B when the
    correction was added out of place, 1,742,840 B before the workspace),
    most of it the float64 DG and transfer fields."""

    FIELD = 4 * 80 * 160 * 4  # bytes of a float32 vector on the finest level
    APPLY_PEAK = 1_230_760

    def test_warm_bubble_apply_allocates_no_field_per_substep(self, monkeypatch):
        setup = make_setup("rising-bubble", 5, 10, 2)
        fv_ops = setup.fv_levels()
        assert 16 * fv_ops[-1].nz * fv_ops[-1].nx == self.FIELD
        mg = MultigridPreconditioner(setup.dg_op, fv_ops, setup.transfer(),
                                     parse_mg_config("mg001111V"))
        U0 = build_initial_state(setup.case, setup.dg_op)
        alpha_dt = SDIRK2_ALPHA * 10.0

        def G(V):
            return V - alpha_dt * setup.dg_op(V) - U0

        mg.begin_step(U0, alpha_dt)
        M = mg.factory(FDLinearization(G, U0, G(U0), setup.dg_op.norm_weights))
        y = np.random.default_rng(13).standard_normal(U0.shape) * 1e-4
        M(y)  # prolongation's buffers are made by the first application
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            M(y)
            apply_peak = tracemalloc.get_traced_memory()[1] - start
            peaks = []
            plain = mgprecond.smooth

            def traced(*args, **kwargs):
                start = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                out = plain(*args, **kwargs)
                peaks.append(tracemalloc.get_traced_memory()[1] - start)
                return out

            monkeypatch.setattr(mgprecond, "smooth", traced)
            M(y)
        finally:
            tracemalloc.stop()
        # the coarsest level (10 x 5 cells) is solved, not smoothed
        assert len(peaks) == 2 * (len(fv_ops) - 1)
        assert max(peaks) < self.FIELD / 4, peaks
        assert apply_peak <= self.APPLY_PEAK, apply_peak


class TestCoarseSolve:
    """begin_step factors the coarsest FV level of a stack of at most
    COARSE_SOLVE_MAX unknowns, and a visit there is one product with the
    inverse; a larger coarsest level is smoothed as before."""

    @pytest.mark.parametrize("name, base_nx, base_nz, level, dt, massfix", BENCHMARK_GRIDS)
    def test_one_visit_solves_the_coarsest_level(self, name, base_nx, base_nz, level, dt,
                                                 massfix):
        # 40, 200 and 256 unknowns
        setup = make_setup(name, base_nx, base_nz, level)
        mg = MultigridPreconditioner(setup.dg_op, setup.fv_levels(), setup.transfer(),
                                     parse_mg_config("mg111111W"), use_massfix=massfix)
        mg.begin_step(build_initial_state(setup.case, setup.dg_op), SDIRK2_ALPHA * dt)
        coarse = mg.levels[0]
        assert coarse.x.size == 4 * base_nx * base_nz <= COARSE_SOLVE_MAX
        assert coarse.inverse.dtype == np.float32
        rng = np.random.default_rng(22)
        coarse.b[...] = rng.standard_normal(coarse.b.shape)
        x = mg_cycle(mg.levels, 0, mg.cfg, zero=True).copy()
        r = coarse.b - coarse.matvec(x, np.empty_like(x))
        assert rms(r.astype(np.float64)) <= 1e-5 * rms(coarse.b.astype(np.float64))
        # a W-cycle's second visit starts from the first one's iterate
        coarse.x[...] = rng.standard_normal(coarse.x.shape)
        assert np.array_equal(mg_cycle(mg.levels, 0, mg.cfg), x)

    def test_coarsest_level_above_the_cap_is_smoothed(self, monkeypatch):
        # the rising bubble at dx = 50 and level 0: its coarsest level is
        # the 20 x 40 DG mesh, 3,200 unknowns; begin_step makes nothing of
        # the size of one float32 dense matrix, and the cycle smooths there
        setup = make_setup("rising-bubble", 20, 40, 0)
        mg = MultigridPreconditioner(setup.dg_op, setup.fv_levels(), setup.transfer(),
                                     parse_mg_config("mg001111V"))
        U0 = build_initial_state(setup.case, setup.dg_op)
        tracemalloc.start()
        try:
            mg.begin_step(U0, SDIRK2_ALPHA * 10.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        coarse = mg.levels[0]
        n = coarse.x.size
        assert n == 3200 and coarse.inverse is None
        assert peak < 4 * n * n, peak
        calls = []
        plain = mgprecond.smooth

        def counting(matvec, *args, **kwargs):
            calls.append(matvec)
            return plain(matvec, *args, **kwargs)

        monkeypatch.setattr(mgprecond, "smooth", counting)
        mg.levels[-1].b[...] = np.random.default_rng(23).standard_normal(mg.levels[-1].b.shape)
        mg_cycle(mg.levels, len(mg.levels) - 1, mg.cfg, zero=True)
        assert len(calls) == 2 * (len(mg.levels) - 1) + 1
        assert calls.count(coarse.matvec) == 1

    @pytest.mark.parametrize("value", [0.0, np.nan])
    def test_singular_or_non_finite_operator_raises(self, value):
        level = Level(into(lambda v: np.full_like(v, value)), np.ones((2, 5), np.float32),
                      PERIODIC, np.zeros((4, 2, 5), np.float32))
        with pytest.raises(SolverFailure, match=r"coarsest FV level 0 \(2 x 5 cells\)"):
            level.factor()
        assert level.inverse is None

    def test_singular_coarsest_level_fails_the_run(self, tmp_path, monkeypatch, capsys):
        # a coarsest level whose operator is zero fails the first step's
        # begin_step: exit code 3, a message naming the level, and no cycle
        matvec = FVLinearization.matvec

        def zero_on_level_0(self, w, out):
            if self.level == 0:
                out[...] = 0.0
                return out
            return matvec(self, w, out)

        monkeypatch.setattr(FVLinearization, "matvec", zero_on_level_0)
        cycles = []
        monkeypatch.setattr(mgprecond, "mg_cycle", lambda *args, **kw: cycles.append(args))
        config = cli.RunConfig(**TestLaggedStackRuns.CONFIG, t_final=25.0, outdir=str(tmp_path))
        assert cli.run(config) == 3
        err = capsys.readouterr().err
        assert "solver failure at t = 0.000000: coarsest FV level 0 (1 x 10 cells)" in err, err
        assert cycles == []


class TestGridIndependence:
    """GMRES iterations per Newton iteration over DG levels.

    Inertia-gravity over DG levels 1-3 (20x2 to 80x8 cells), four steps of
    25 s each. Measured: 4.8 / 5.3 / 5.3 with mg001111V, and 17.9 / 35.8
    on levels 1 and 2 without a preconditioner, where every level doubles
    the count. Rising bubble over DG levels 1-2 (10x20 and 20x40 cells),
    one step of 10 s with mg111111V: 12.2 / 11.0 with the exact coarsest
    solve, 12.2 / 12.5 when the coarsest level is smoothed."""

    GROWTH = 1.5  # largest ratio allowed from one level to the next

    @staticmethod
    def gmres_per_newton(name, base_nx, base_nz, level, mg_key, dt, n_steps):
        setup = make_setup(name, base_nx, base_nz, level)
        mg = None
        if mg_key is not None:
            mg = MultigridPreconditioner(setup.dg_op, setup.fv_levels(), setup.transfer(),
                                         parse_mg_config(mg_key))
        U = build_initial_state(setup.case, setup.dg_op)
        newton = gmres = 0
        for step in range(n_steps):
            U, stats = sdirk2_step(setup.dg_op, U, dt * step, dt,
                                   weights=setup.dg_op.norm_weights, precond=mg)
            newton += sum(st.newton_iters for st in stats)
            gmres += sum(st.gmres_iters for st in stats)
        return gmres / newton

    def ig_per_newton(self, level, mg_key):
        return self.gmres_per_newton("inertia-gravity", 10, 1, level, mg_key, 25.0, 4)

    def test_multigrid_iterations_grow_slowly_with_the_grid(self):
        per_newton = [self.ig_per_newton(level, "mg001111V") for level in (1, 2, 3)]
        for coarse, fine in zip(per_newton, per_newton[1:]):
            assert fine <= self.GROWTH * coarse, per_newton

    def test_unpreconditioned_iterations_fail_the_same_bound(self):
        coarse, fine = (self.ig_per_newton(level, None) for level in (1, 2))
        assert fine > self.GROWTH * coarse, (coarse, fine)

    def bubble_per_newton(self, level):
        return self.gmres_per_newton("rising-bubble", 5, 10, level, "mg111111V", 10.0, 1)

    def test_bubble_iterations_grow_slowly_with_the_grid(self):
        coarse, fine = (self.bubble_per_newton(level) for level in (1, 2))
        assert fine <= self.GROWTH * coarse, (coarse, fine)

    def test_bubble_coarse_solve_needs_no_more_iterations_than_smoothing(self, monkeypatch):
        exact = [self.bubble_per_newton(level) for level in (1, 2)]
        monkeypatch.setattr(mgprecond, "COARSE_SOLVE_MAX", 0)
        smoothed = [self.bubble_per_newton(level) for level in (1, 2)]
        assert all(e <= s for e, s in zip(exact, smoothed)), (exact, smoothed)
