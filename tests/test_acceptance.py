"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report. The heavyweight flow runs (criteria 8-11) sit at desk scale but
still dominate the suite runtime.
"""

import dataclasses
import time

import numpy as np
import pytest

from conftest import make_setup, rms
from dgmg import cases, mesh
from dgmg.cases import build_initial_state
from dgmg.dg import DGBasis, DGOperator
from dgmg.fv import FVOperator
from dgmg.mgprecond import MultigridPreconditioner, mg_cycle, parse_mg_config
from dgmg.quadrature import modified_newton_cotes
from dgmg.timeint import (
    SDIRK2_ALPHA,
    FDLinearization,
    NewtonParams,
    sdirk2_step,
    ssprk34_step,
)
from dgmg.transfer import TransferOperators
from references import cell_area, evaluate, integrate, total_mass, transfer_cell_matrices


def report(num, name, detail=""):
    print(f"\nACCEPTANCE {num} ({name}): PASS {detail}")


def ig_solver(base_nx=10, base_nz=1, level=2, mg_key=None):
    setup = make_setup("inertia-gravity", base_nx, base_nz, level)
    mg = None
    if mg_key is not None:
        fv_ops = [FVOperator(setup.hierarchy, l, setup.case)
                  for l in range(setup.hierarchy.n_levels)]
        mg = MultigridPreconditioner(
            setup.dg_op, fv_ops, setup.transfer(), parse_mg_config(mg_key)
        )
    return setup, mg


def run_implicit(setup, mg, dt, t_end, params=None):
    params = params or NewtonParams()
    U = build_initial_state(setup.case, setup.dg_op)
    t = 0.0
    per_step = []
    while t < t_end - 1e-9:
        U, st = sdirk2_step(
            lambda u, tt: setup.dg_op(u, tt), U, t, dt,
            params=params, weights=setup.dg_op.norm_weights, precond=mg,
        )
        per_step.append(sum(s.gmres_iters for s in st))
        t += dt
    return U, per_step


def test_criterion_01_well_balance_exact():
    t0 = time.time()
    for name in ("inertia-gravity", "rising-bubble", "density-current"):
        setup = make_setup(name, 10, 5, 1)  # 20 x 10 DG cells
        assert (setup.hierarchy.nx[setup.subgrid.dg_level],
                setup.hierarchy.nz[setup.subgrid.dg_level]) == (20, 10)
        U = setup.dg_op.zero_field()
        newton_total = 0
        for i in range(10):
            U, st = sdirk2_step(
                lambda u, t: setup.dg_op(u, t), U, 10.0 * i, 10.0,
                params=NewtonParams(), weights=setup.dg_op.norm_weights,
            )
            newton_total += sum(s.newton_iters for s in st)
        assert np.abs(U).max() <= 1e-10, name
        assert newton_total == 0, name
    elapsed = time.time() - t0
    assert elapsed < 60.0
    report(1, "well-balance", f"(max|U'| = 0 after 10 steps x 3 cases, {elapsed:.1f}s)")


def test_criterion_02_appendix_quadrature():
    rule = modified_newton_cotes(3)
    assert rule.weights.tolist() == [1625 / 6000, 1375 / 6000, 1375 / 6000, 1625 / 6000]
    worst = 0.0
    for m in range(4):
        err = abs(integrate(rule, rule.nodes**m) - 1.0 / (m + 1))
        worst = max(worst, err)
    assert worst <= 1e-14
    assert abs(integrate(rule, rule.nodes**3) - 0.25) <= 1e-14
    report(2, "cell-center quadrature", f"(worst monomial defect {worst:.1e})")


def _cell_masses(op, u_fv, subgrid):
    p = subgrid.subcells_per_side
    nz, nx = op.nz, op.nx
    area = cell_area(op.hierarchy, subgrid.fv_level)
    return area * u_fv.reshape(nz, p, nx, p, 4).sum(axis=(1, 3))


def test_criterion_03_massfix_transfer():
    setup = make_setup("rising-bubble", 3, 4, 0)
    tr = setup.transfer()
    op = setup.dg_op
    w2 = op.basis.weights[:, None] * op.basis.weights[None, :]
    rng = np.random.default_rng(42)
    worst = 0.0
    plain_best = np.inf
    for _ in range(5):
        U = rng.standard_normal((op.nz, op.nx, 4, 4, 4))
        dg_mass = op.dx * op.dz * np.einsum("ab,zxabc->zxc", w2, U)
        fixed = _cell_masses(op, tr.dg_to_fv_massfix(U), setup.subgrid)
        rel = np.abs(fixed - dg_mass) / (np.abs(dg_mass) + 1e-30)
        worst = max(worst, rel.max())
        plain = _cell_masses(op, tr.dg_to_fv(U), setup.subgrid)
        plain_best = min(plain_best,
                         (np.abs(plain - dg_mass) / (np.abs(dg_mass) + 1e-30)).max())
    assert worst <= 1e-12
    assert plain_best > 1e-6  # the fix corrects a measurable defect
    report(3, "mass-fix transfer",
           f"(massfix defect {worst:.1e}, plain interpolation {plain_best:.1e})")


def test_criterion_04_transfer_inverse_pair():
    basis = DGBasis(3)
    _, sg = mesh.build_hierarchy(mesh.Domain2D(0, 1, 0, 1), 1, 1, 0, 3)
    tr = TransferOperators(basis, sg)
    T, Tinv = transfer_cell_matrices(tr)
    dev = np.linalg.norm(Tinv @ T - np.eye(16), 2)
    assert dev <= 1e-12
    report(4, "transfer inverse pair", f"(|T^-1 T - I| = {dev:.1e})")


def test_criterion_05_jacobian_free_matvec():
    # first-order upwind advection of a scalar on a periodic 8x8 grid,
    # through the FD linearization of the outer stage systems
    n, vel, h = 8, (1.0, 0.5), 1.0 / 8

    def f_low(u):
        out = -vel[0] * (u - np.roll(u, 1, axis=1)) / h
        out -= vel[1] * (u - np.roll(u, 1, axis=0)) / h
        return out

    def G(u):
        return u - 0.7 * f_low(u)

    u0 = np.zeros((n, n, 1))
    lin = FDLinearization(G, u0, G(u0))
    N = n * n
    J = np.zeros((N, N))
    for idx in range(N):
        e = np.zeros((n, n, 1))
        e[idx // n, idx % n, 0] = 1.0
        J[:, idx] = lin.matvec(e).ravel()
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(20):
        w = rng.standard_normal((n, n, 1))
        got = lin.matvec(w)
        want = (J @ w.ravel()).reshape(w.shape)
        worst = max(worst, rms(got - want) / rms(want))
    assert worst <= 1e-5
    report(5, "Jacobian-free matvec", f"(worst relative defect {worst:.1e})")


def test_criterion_06_integrator_orders():
    t0 = time.time()
    exact = 0.5  # y' = -y^2, y(0) = 1 at t = 1

    def f(u, t):
        return -u * u

    params = NewtonParams(tol=1e-12, eta_initial=1e-10, eta_min=1e-12, eta_max=1e-10)
    errs = []
    for dt in (0.05, 0.025):
        u, t = np.array([1.0]), 0.0
        for _ in range(int(round(1.0 / dt))):
            u, _ = sdirk2_step(f, u, t, dt, params=params)
            t += dt
        errs.append(abs(u[0] - exact))
    order_implicit = np.log2(errs[0] / errs[1])
    errs = []
    for dt in (0.05, 0.025):
        u, t = np.array([1.0]), 0.0
        for _ in range(int(round(1.0 / dt))):
            u = ssprk34_step(f, u, t, dt)
            t += dt
        errs.append(abs(u[0] - exact))
    order_explicit = np.log2(errs[0] / errs[1])
    assert 1.9 <= order_implicit <= 2.1, order_implicit
    assert 2.8 <= order_explicit <= 3.2, order_explicit
    assert time.time() - t0 < 300.0
    report(6, "integrator orders",
           f"(SDIRK2 {order_implicit:.3f}, SSP(4,3) {order_explicit:.3f})")


def test_criterion_07_multigrid_contraction():
    setup, mg = ig_solver(10, 1, 2, "mg111111V")
    assert (setup.hierarchy.nx[setup.subgrid.dg_level],
            setup.hierarchy.nz[setup.subgrid.dg_level]) == (40, 4)
    dt = 25.0
    alpha_dt = SDIRK2_ALPHA * dt
    U0 = build_initial_state(setup.case, setup.dg_op)
    tr = setup.transfer()
    levels = mg.fv_levels(U0, alpha_dt)
    finest = len(levels) - 1
    # right-hand side: the transferred first Newton residual, as the
    # cycle's float32 component-major vector
    G = lambda V: V - alpha_dt * setup.dg_op(V) - U0
    b = np.ascontiguousarray(tr.dg_to_fv(-G(U0)).transpose(2, 0, 1), dtype=np.float32)
    cfg = parse_mg_config("mg111111V")
    x = mg_cycle(levels, finest, np.zeros_like(b), b, cfg)
    matvec, _ = levels[finest]
    r = b - matvec(x)
    factor = rms(b.astype(np.float64)) / rms(r.astype(np.float64))
    assert factor >= 2.0, factor
    report(7, "multigrid contraction", f"(one V-cycle contracts by {factor:.2f}x)")


def test_criterion_08_preconditioner_benefit():
    t0 = time.time()
    setup_plain, _ = ig_solver(10, 1, 2, None)
    U_plain, steps_plain = run_implicit(setup_plain, None, dt=25.0, t_end=500.0)
    assert np.all(np.isfinite(U_plain))
    U0 = build_initial_state(setup_plain.case, setup_plain.dg_op)
    assert np.abs(U_plain).max() <= 100.0 * max(np.abs(U0).max(), 1e-30)

    setup_mg, mg = ig_solver(10, 1, 2, "mg001111V")
    U_mg, steps_mg = run_implicit(setup_mg, mg, dt=25.0, t_end=500.0)
    total_plain, total_mg = sum(steps_plain), sum(steps_mg)
    ratio = total_mg / total_plain
    assert ratio <= 0.60, (total_mg, total_plain)
    elapsed = time.time() - t0
    assert elapsed < 900.0
    report(8, "preconditioner benefit",
           f"(GMRES {total_mg} vs {total_plain} unpreconditioned, "
           f"ratio {ratio:.2f}, {elapsed:.0f}s)")


def test_criterion_09_sublinear_dt_scaling():
    per_step = {}
    for dt in (12.5, 25.0):
        setup, mg = ig_solver(10, 1, 2, "mg001111V")
        _, steps = run_implicit(setup, mg, dt=dt, t_end=250.0)
        per_step[dt] = np.mean(steps)
    factor = per_step[25.0] / per_step[12.5]
    assert factor < 2.0, per_step
    report(9, "sublinear dt scaling",
           f"(per-step GMRES {per_step[12.5]:.1f} -> {per_step[25.0]:.1f}, "
           f"factor {factor:.2f})")


def test_criterion_10_explicit_conservation_and_symmetry():
    t0 = time.time()
    setup = make_setup("rising-bubble", 10, 20, 1)  # 20 x 40 DG cells
    op = setup.dg_op
    assert (op.nx, op.nz) == (20, 40)
    U = build_initial_state(setup.case, op)
    mass0 = total_mass(op, U, 0)
    dt = op.stable_dt(U, cfl=0.8)
    t, t_end = 0.0, 100.0
    nsteps = int(np.ceil(t_end / dt))
    dt = t_end / nsteps
    for _ in range(nsteps):
        U = ssprk34_step(lambda u, tt: op(u, tt), U, t, dt)
        t += dt
    mass = total_mass(op, U, 0)
    mass_drift = abs(mass - mass0) / abs(mass0)
    assert mass_drift <= 1e-10, mass_drift

    # x-symmetry about the domain center: theta' is even, x-momentum odd
    tr = setup.transfer()
    u_fv = tr.dg_to_fv(U)
    from dgmg.fv import fv_background

    bg = fv_background(setup.case, setup.hierarchy, setup.subgrid.fv_level)
    full = u_fv + bg
    theta_p = full[..., 3] / full[..., 0] - bg[..., 3] / bg[..., 0]
    asym = np.abs(theta_p - theta_p[:, ::-1]).max()
    mom_asym = np.abs(u_fv[..., 1] + u_fv[:, ::-1, 1]).max()
    assert asym <= 1e-8, asym
    assert mom_asym <= 1e-8 * max(np.abs(u_fv[..., 1]).max(), 1.0)
    elapsed = time.time() - t0
    report(10, "explicit conservation and symmetry",
           f"(mass drift {mass_drift:.1e}, theta' asymmetry {asym:.1e}, "
           f"{nsteps} steps, {elapsed:.0f}s)")


def test_criterion_11_implicit_bubble_rises():
    t0 = time.time()
    setup = make_setup("rising-bubble", 10, 20, 0)  # 10 x 20 DG cells
    op = setup.dg_op
    fv_ops = [FVOperator(setup.hierarchy, l, setup.case)
              for l in range(setup.hierarchy.n_levels)]
    mg = MultigridPreconditioner(op, fv_ops, setup.transfer(), parse_mg_config("mg111111V"))
    U = build_initial_state(setup.case, op)
    dt_explicit = op.stable_dt(U, cfl=0.8)
    dt = 24.0
    assert dt >= 500.0 * dt_explicit, (dt, dt_explicit)

    def bubble_height(field):
        # peak of theta' along the centerline x = 500 m, sampled densely;
        # the west face of cell nx/2 lies on the symmetry plane
        zs = np.linspace(0.0, 1.0, 101)
        pts = np.column_stack([np.zeros_like(zs), zs])
        heights = []
        vals = []
        i = op.nx // 2
        for j in range(op.nz):
            v = evaluate(field, op.basis, i, j, pts)
            bg = setup.case.atmosphere.state(
                np.full_like(zs, op.hierarchy.domain.x_min + i * op.dx),
                op.hierarchy.domain.z_min + (j + zs) * op.dz,
            )
            full = v + bg
            theta_p = full[..., 3] / full[..., 0] - bg[..., 3] / bg[..., 0]
            k = int(np.argmax(theta_p))
            heights.append((j + zs[k]) * op.dz)
            vals.append(theta_p[k])
        best = int(np.argmax(vals))
        return heights[best]

    heights = [bubble_height(U)]
    t = 0.0
    params = NewtonParams()
    for _ in range(15):
        U, _ = sdirk2_step(lambda u, tt: op(u, tt), U, t, dt, params=params,
                           weights=op.norm_weights, precond=mg)
        t += dt
        if int(round(t)) % 72 == 0:
            heights.append(bubble_height(U))
    assert t == pytest.approx(360.0)
    diffs = np.diff(heights)
    assert np.all(diffs >= -1e-9), heights
    assert heights[-1] - heights[0] >= 50.0, heights
    elapsed = time.time() - t0
    report(11, "implicit bubble rises",
           f"(peak height {heights[0]:.0f} -> {heights[-1]:.0f} m over 360 s, "
           f"dt = {dt / dt_explicit:.0f}x explicit, {elapsed:.0f}s)")
