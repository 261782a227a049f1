import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgmg import timeint
from dgmg.timeint import (
    SDIRK2_ALPHA,
    FDLinearization,
    GMRESInfo,
    NewtonParams,
    SolverFailure,
    eisenstat_walker_eta,
    gmres_solve,
    newton_solve,
    sdirk2_step,
    ssprk34_step,
    weighted_rms,
)


def sdirk2_stability(z):
    """Closed-form stability function of the 2-stage tableau:
    R(z) = (1 + z(1-2a) + z^2(a^2 - 2a + 1/2)) / (1 - a z)^2."""
    a = SDIRK2_ALPHA
    num = 1.0 + z * (1.0 - 2.0 * a) + z * z * (a * a - 2.0 * a + 0.5)
    return num / (1.0 - a * z) ** 2


def exact_params():
    return NewtonParams(tol=1e-12, eta_initial=1e-10, eta_min=1e-12, eta_max=1e-10)


class TestTableau:
    def test_ellsiepen_coefficients(self):
        a = SDIRK2_ALPHA
        assert a == pytest.approx(0.29289321881, abs=1e-10)
        # stiffly accurate: b = (1 - a, a) is the last row of A, c = (a, 1);
        # order two needs sum_i b_i c_i = 1/2
        assert (1.0 - a) * a + a * 1.0 == pytest.approx(0.5, abs=1e-15)

    def test_a_stability_on_imaginary_axis(self):
        y = np.linspace(0.0, 50.0, 100)
        vals = np.abs(sdirk2_stability(1j * y))
        assert np.all(vals <= 1.0 + 1e-12)

    def test_l_stability_limit(self):
        assert abs(sdirk2_stability(-1e8)) < 1e-6


class TestSDIRK2Step:
    def test_zero_rhs_is_identity(self):
        U = np.array([1.0, -2.0, 3.0])
        out, stats = sdirk2_step(lambda u, t: np.zeros_like(u), U, 0.0, 0.5)
        assert np.array_equal(out, U)
        assert sum(s.newton_iters for s in stats) == 0

    def test_dahlquist_amplification_at_z_minus_one(self):
        lam, dt = -1.0, 1.0
        U = np.array([1.0])
        out, _ = sdirk2_step(lambda u, t: lam * u, U, 0.0, dt, params=exact_params())
        assert out[0] == pytest.approx(sdirk2_stability(lam * dt).real, abs=1e-7)

    def test_second_order_on_nonlinear_ode(self):
        # y' = -y^2, y(0) = 1, exact y(t) = 1/(1+t)
        def f(u, t):
            return -u * u

        t_end = 1.0
        errs = []
        for dt in (0.1, 0.05):
            u = np.array([1.0])
            t = 0.0
            for _ in range(int(round(t_end / dt))):
                u, _ = sdirk2_step(f, u, t, dt, params=exact_params())
                t += dt
            errs.append(abs(u[0] - 1.0 / (1.0 + t_end)))
        ratio = errs[0] / errs[1]
        assert 3.6 <= ratio <= 4.4, (errs, ratio)

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            sdirk2_step(lambda u, t: u, np.ones(1), 0.0, 0.0)


class TestNewton:
    def test_exact_initial_guess_takes_zero_iterations(self):
        res = newton_solve(lambda u: np.zeros_like(u), np.ones(5), NewtonParams())
        assert res.iterations == 0

    def test_linear_system_in_one_iteration(self):
        # tolerance above the FD noise floor of ~sqrt(machine eps)
        A = np.array([[2.0, 1.0], [0.5, 3.0]])
        b = np.array([1.0, -2.0])
        params = NewtonParams(tol=1e-6, eta_initial=1e-10, eta_min=1e-12, eta_max=1e-10)
        res = newton_solve(lambda u: A @ u - b, np.zeros(2), params)
        assert res.iterations == 1
        assert np.allclose(res.u, np.linalg.solve(A, b), atol=1e-6)

    def test_quadratic_scalar_newton_sequence(self):
        # G(u) = u^2 - 4 from u0 = 3: classical iterates 13/6, 2.00641...
        def G(u):
            return u * u - 4.0

        # |G| ratios after one, two updates: 0.1389, 0.00514
        res1 = newton_solve(G, np.array([3.0]), NewtonParams(
            tol=0.2, eta_initial=1e-10, eta_min=1e-12, eta_max=1e-10))
        assert res1.iterations == 1
        assert res1.u[0] == pytest.approx(13.0 / 6.0, abs=1e-6)
        res2 = newton_solve(G, np.array([3.0]), NewtonParams(
            tol=0.05, eta_initial=1e-10, eta_min=1e-12, eta_max=1e-10))
        assert res2.iterations == 2
        # u2 = 13/6 - ((13/6)^2 - 4)/(13/3) = 313/156
        assert res2.u[0] == pytest.approx(313.0 / 156.0, abs=1e-6)

    def test_quadratic_convergence_ratio(self):
        def G(u):
            return u * u - 4.0

        errs = []
        for tol in (0.2, 0.05):
            res = newton_solve(G, np.array([3.0]), NewtonParams(
                tol=tol, eta_initial=1e-10, eta_min=1e-12, eta_max=1e-10))
            errs.append(abs(res.u[0] - 2.0))
        # e_{k+1}/e_k^2 approaches |G''/(2 G')| = 1/4
        assert 0.15 < errs[1] / errs[0] ** 2 < 0.35

    def test_unconverged_linear_solves_are_counted(self, monkeypatch):
        # two GMRES iterations per Newton step cannot meet the forcing
        # term on a diagonal system with 40 spread eigenvalues
        d = np.linspace(1.0, 50.0, 40)
        converged = []

        def recording_gmres(*args, **kwargs):
            x, info = gmres_solve(*args, **kwargs)
            converged.append(info.converged)
            return x, info

        monkeypatch.setattr(timeint, "gmres_solve", recording_gmres)
        params = NewtonParams(tol=1e-2, gmres_restart=2, gmres_maxiter=2)
        res = newton_solve(lambda u: d * u - 1.0, np.zeros(40), params)
        assert res.gmres_unconverged == converged.count(False) > 0

        converged.clear()
        _, stats = sdirk2_step(lambda u, t: 1.0 - d * u, np.zeros(40), 0.0, 0.5, params=params)
        assert sum(s.gmres_unconverged for s in stats) == converged.count(False) > 0

    def test_converged_linear_solves_count_zero(self):
        res = newton_solve(lambda u: 2.0 * u - 1.0, np.zeros(3), NewtonParams())
        assert res.gmres_unconverged == 0

    def test_stagnation_raises(self):
        # residual independent of u: no progress possible
        with pytest.raises(SolverFailure):
            newton_solve(lambda u: np.ones_like(u), np.zeros(3),
                         NewtonParams(max_iters=20))


class TestEisenstatWalker:
    def setup_method(self):
        self.params = NewtonParams()

    def test_residual_halved(self):
        assert eisenstat_walker_eta(0.5, 1.0, 0.1, self.params) == pytest.approx(0.05)

    def test_no_progress_gives_gamma(self):
        assert eisenstat_walker_eta(1.0, 1.0, 0.1, self.params) == pytest.approx(0.1)

    def test_safeguard_active_only_above_threshold(self):
        # gamma * eta_prev^alpha = 0.08 <= 0.1: no floor applied
        eta = eisenstat_walker_eta(1e-4, 1.0, 0.8, self.params)
        assert eta == pytest.approx(1e-5)
        # with eta_prev large enough the floor gamma * eta_prev engages
        params = NewtonParams(eta_max=1.0 - 1e-9)
        eta = eisenstat_walker_eta(1e-4, 1.0, 1.5, params)
        assert eta == pytest.approx(0.15)

    def test_clipping(self):
        assert eisenstat_walker_eta(1e-12, 1.0, 0.1, self.params) == self.params.eta_min
        assert eisenstat_walker_eta(1.0, 1e-12, 0.1, self.params) == self.params.eta_max

    def test_rejects_nonpositive_norms(self):
        with pytest.raises(ValueError):
            eisenstat_walker_eta(0.0, 1.0, 0.1, self.params)


class TestGMRES:
    def test_zero_rhs(self):
        x, info = gmres_solve(lambda v: v, np.zeros(4), eta=1e-8)
        assert np.all(x == 0.0) and info.iterations == 0 and info.converged

    def test_identity_in_one_iteration(self):
        rng = np.random.default_rng(0)
        b = rng.standard_normal(7)
        x, info = gmres_solve(lambda v: v, b, eta=1e-10)
        assert info.iterations == 1
        assert np.allclose(x, b, atol=1e-12)

    def _poisson_like(self, n=16, shift=1.0, coef=0.15):
        N = n * n
        A = shift * np.eye(N)
        for i in range(n):
            for j in range(n):
                k = i * n + j
                A[k, k] += 4 * coef
                for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    ii, jj = i + di, j + dj
                    if 0 <= ii < n and 0 <= jj < n:
                        A[k, ii * n + jj] -= coef
        return A

    def test_residual_history_matches_dense_arnoldi_oracle(self):
        # reference: dense Arnoldi, residual from the least-squares problem
        A = self._poisson_like()
        rng = np.random.default_rng(1)
        b = rng.standard_normal(A.shape[0])
        x, info = gmres_solve(lambda v: A @ v, b, eta=1e-9, restart=200, maxiter=200)
        assert info.converged
        bnorm = np.linalg.norm(b) / np.sqrt(b.size)

        beta = np.linalg.norm(b)
        V = [b / beta]
        H = np.zeros((len(info.residual_history) + 1, len(info.residual_history)))
        oracle = []
        for j in range(len(info.residual_history)):
            w = A @ V[j]
            for i in range(j + 1):
                H[i, j] = V[i] @ w
                w = w - H[i, j] * V[i]
            H[j + 1, j] = np.linalg.norm(w)
            V.append(w / H[j + 1, j])
            e1 = np.zeros(j + 2)
            e1[0] = beta
            _, res, *_ = np.linalg.lstsq(H[: j + 2, : j + 1], e1, rcond=None)
            y = np.linalg.lstsq(H[: j + 2, : j + 1], e1, rcond=None)[0]
            oracle.append(np.linalg.norm(e1 - H[: j + 2, : j + 1] @ y) / np.sqrt(b.size))
        assert np.allclose(info.residual_history, oracle, atol=1e-10 * bnorm)

    def test_preconditioned_same_solution(self):
        A = self._poisson_like(n=8, shift=1.0, coef=0.3)
        rng = np.random.default_rng(2)
        b = rng.standard_normal(A.shape[0])
        eta = 1e-6
        Minv = np.linalg.inv(np.diag(np.diag(A)))
        x1, i1 = gmres_solve(lambda v: A @ v, b, eta=eta, restart=100, maxiter=200)
        x2, i2 = gmres_solve(lambda v: A @ v, b, M=lambda v: Minv @ v, eta=eta,
                             restart=100, maxiter=200)
        assert i1.converged and i2.converged
        xs = np.linalg.solve(A, b)
        scale = np.linalg.norm(xs) / np.sqrt(b.size)
        for x in (x1, x2):
            assert weighted_rms(x - xs) <= 10 * eta * scale

    def test_solves_share_rows_and_a_nested_solve_makes_its_own(self):
        # M runs a GMRES solve of the same size and restart: it must not
        # write into the Krylov rows of the outer solve, which keeps them
        A = self._poisson_like(n=8, shift=1.0, coef=0.3)
        P = np.diag(np.diag(A)) + np.diag(np.diag(A, 1), 1)
        b = np.random.default_rng(5).standard_normal(A.shape[0])

        def M(v):
            return gmres_solve(lambda u: P @ u, v, eta=1e-12, restart=20, maxiter=20)[0]

        gmres_solve(lambda v: A @ v, b, eta=1e-6, restart=20)
        (rows,) = timeint._kept_rows.values()
        x, info = gmres_solve(lambda v: A @ v, b, M=M, eta=1e-10, restart=20)
        assert info.converged
        assert weighted_rms(b - A @ x) <= 1e-10 * weighted_rms(b)
        (kept,) = timeint._kept_rows.values()
        assert kept is rows

    def test_restart_still_converges(self):
        A = self._poisson_like(n=8, shift=1.0, coef=0.3)
        rng = np.random.default_rng(3)
        b = rng.standard_normal(A.shape[0])
        x, info = gmres_solve(lambda v: A @ v, b, eta=1e-8, restart=5, maxiter=400)
        assert info.converged
        assert np.linalg.norm(b - A @ x) <= 1e-7 * np.linalg.norm(b)

    def test_rejects_bad_eta(self):
        with pytest.raises(ValueError):
            gmres_solve(lambda v: v, np.ones(3), eta=0.0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_reorthogonalization_keeps_accuracy_on_graded_matrix(self, seed):
        # eigenvalues over eight decades: a single classical Gram-Schmidt
        # pass loses orthogonality and stalls near 1e-6; the second pass
        # reaches the tolerance
        rng = np.random.default_rng(seed)
        n = 120
        A = np.diag(np.logspace(0, 8, n)) + np.triu(rng.standard_normal((n, n)), 1)
        b = rng.standard_normal(n)
        x, info = gmres_solve(lambda v: A @ v, b, eta=1e-8, restart=n, maxiter=n)
        assert info.converged
        assert weighted_rms(b - A @ x) <= 1e-8 * weighted_rms(b)

    @pytest.mark.parametrize("restart, maxiter", [(200, 200), (5, 400), (4, 10)])
    def test_one_matvec_per_iteration_and_per_restart(self, restart, maxiter):
        # the Arnoldi step calls matvec once, each restart once more for the
        # true residual; M runs once per Arnoldi step
        A = self._poisson_like(n=8, shift=1.0, coef=0.3)
        b = np.random.default_rng(4).standard_normal(A.shape[0])
        calls = {"matvec": 0, "M": 0}

        def matvec(v):
            calls["matvec"] += 1
            return A @ v

        def M(v):
            calls["M"] += 1
            return v / np.diag(A)

        _, info = gmres_solve(matvec, b, M=M, eta=1e-10, restart=restart, maxiter=maxiter)
        assert calls["M"] == info.iterations
        if info.converged:
            # converged on the Arnoldi estimate, inside the last cycle
            assert info.residual_history[-1] <= 1e-10 * np.linalg.norm(b) / np.sqrt(b.size)
            restarts = (info.iterations - 1) // restart
        else:
            # stopped at maxiter, at the end of a cycle: no restart follows
            assert info.iterations == maxiter
            restarts = math.ceil(maxiter / restart) - 1
        assert calls["matvec"] == info.iterations + restarts
        assert info.converged == (maxiter > 10)
        assert (restarts > 0) == (restart < 200)


def weighted_residual(A, x, b, weights):
    return weighted_rms(b - (A @ x.ravel()).reshape(b.shape), weights)


@st.composite
def gmres_problems(draw):
    """A well-conditioned nonsymmetric system D + E (D in [1, 3], ||E|| <=
    0.4) of shape-(n,) unknowns laid out in a multi-dimensional b, with
    optional positive weights and a Jacobi or perturbed right
    preconditioner."""
    shape = draw(st.sampled_from([(7,), (3, 4), (2, 3, 2)]))
    n = math.prod(shape)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    E = rng.standard_normal((n, n))
    A = np.diag(rng.uniform(1.0, 3.0, n)) + 0.4 * E / np.linalg.norm(E, 2)
    b = rng.standard_normal(shape)
    weights = rng.uniform(0.1, 1.0, shape) if draw(st.booleans()) else None
    precond = draw(st.sampled_from([None, "jacobi", "perturbed"]))
    Minv = None
    if precond == "jacobi":
        Minv = np.diag(1.0 / np.diag(A))
    elif precond == "perturbed":
        Minv = np.linalg.inv(A) + 0.05 * rng.standard_normal((n, n)) / n
    return A, b, weights, Minv


def shaped(Op, shape):
    def apply(v):
        assert v.shape == shape
        return (Op @ v.ravel()).reshape(shape)
    return apply


@settings(max_examples=60, deadline=None)
@given(problem=gmres_problems(), restart=st.integers(1, 12),
       eta=st.sampled_from([1e-2, 1e-6, 1e-10]))
def test_gmres_converged_solution_meets_its_tolerance(problem, restart, eta):
    A, b, weights, Minv = problem
    n = b.size
    M = shaped(Minv, b.shape) if Minv is not None else None
    x, info = gmres_solve(shaped(A, b.shape), b, M=M, eta=eta, restart=restart,
                          maxiter=6 * n, weights=weights)
    assert x.shape == b.shape
    assert len(info.residual_history) == info.iterations
    bnorm = weighted_rms(b, weights)
    true = weighted_residual(A, x, b, weights)
    if restart >= n:
        # full GMRES on an n-dimensional system ends within n iterations
        assert info.converged and info.iterations <= n
    if info.converged:
        # the Arnoldi estimate tracks the true residual to round-off
        assert true <= eta * bnorm + 1e-12 * bnorm
        # and x is as close to the dense solution as that residual allows:
        # |x - xs| <= |r|_2 / sigma_min, |r|_2 <= |r|_w / sqrt(min weight)
        xs = np.linalg.solve(A, b.ravel())
        smin = np.linalg.svd(A, compute_uv=False)[-1]
        r2 = true * (math.sqrt(n) if weights is None else 1.0 / math.sqrt(weights.min()))
        assert np.linalg.norm(x.ravel() - xs) <= r2 / smin + 1e-12 * np.linalg.norm(xs)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 3), weighted=st.booleans(),
       shape=st.sampled_from([(10,), (2, 5), (2, 3, 2)]))
def test_gmres_happy_breakdown_on_invariant_subspace(seed, k, weighted, shape):
    # b in the span of k eigenvectors of a symmetric A: the Krylov space
    # stops growing at dimension k, and GMRES solves exactly there
    n = math.prod(shape)
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = 1.0 + np.arange(n) + 0.5 * rng.random(n)
    A = (Q * lam) @ Q.T
    b = (Q[:, :k] @ rng.uniform(0.5, 1.5, k)).reshape(shape)
    weights = rng.uniform(0.1, 1.0, shape) if weighted else None
    x, info = gmres_solve(shaped(A, shape), b, eta=1e-12, restart=30, maxiter=30,
                          weights=weights)
    assert info.converged and info.iterations <= k
    assert np.allclose(x.ravel(), np.linalg.solve(A, b.ravel()), rtol=0, atol=1e-9)


class TestFDLinearization:
    def test_matches_dense_jacobian_on_mildly_nonlinear_map(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((6, 6)) * 0.3 + np.eye(6)

        def F(u):
            return A @ u + 0.01 * u**2

        u0 = rng.standard_normal(6)
        lin = FDLinearization(F, u0, F(u0))
        J = A + 0.02 * np.diag(u0)
        for _ in range(10):
            y = rng.standard_normal(6)
            got = lin.matvec(y)
            want = J @ y
            assert np.linalg.norm(got - want) <= 1e-5 * np.linalg.norm(want)

    def test_zero_direction_short_circuits(self):
        calls = []

        def F(u):
            calls.append(1)
            return u

        lin = FDLinearization(F, np.ones(3), np.ones(3))
        out = lin.matvec(np.zeros(3))
        assert np.all(out == 0.0)
        assert len(calls) == 0


class TestSSPRK34:
    def test_zero_rhs_identity(self):
        U = np.array([2.0, -1.0])
        out = ssprk34_step(lambda u, t: np.zeros_like(u), U, 0.0, 0.3)
        assert np.array_equal(out, U)

    def test_linear_amplification_closed_form(self):
        # stage algebra gives R(z) = (1 + z/2) * (2/3 + (1/3)(1 + z/2)^3)
        for z in (0.1, -0.4, 0.25):
            out = ssprk34_step(lambda u, t: z * u, np.array([1.0]), 0.0, 1.0)
            expected = (1 + z / 2) * (2.0 / 3.0 + (1.0 / 3.0) * (1 + z / 2) ** 3)
            assert out[0] == pytest.approx(expected, rel=1e-14)

    def test_third_order_taylor_match(self):
        z = 0.1
        out = ssprk34_step(lambda u, t: z * u, np.array([1.0]), 0.0, 1.0)
        taylor3 = 1 + z + z**2 / 2 + z**3 / 6
        assert abs(out[0] - taylor3) < z**4
        # the z^4 coefficient of this scheme is 1/48
        assert out[0] - taylor3 == pytest.approx(z**4 / 48, rel=1e-9)

    def test_third_order_on_nonlinear_ode(self):
        def f(u, t):
            return -u * u

        errs = []
        for dt in (0.05, 0.025):
            u, t = np.array([1.0]), 0.0
            for _ in range(int(round(1.0 / dt))):
                u = ssprk34_step(f, u, t, dt)
                t += dt
            errs.append(abs(u[0] - 0.5))
        ratio = errs[0] / errs[1]
        assert 6.8 <= ratio <= 9.5, (errs, ratio)
