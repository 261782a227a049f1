"""Implicit SDIRK2 stepping with Jacobian-free Newton-GMRES.

The stage systems G(U) = U - alpha*dt*f(U) - Ubar = 0 are solved by an
inexact Newton method whose linear solves use right-preconditioned,
restarted GMRES with finite-difference Jacobian-vector products. The
forcing tolerance follows the second Eisenstat-Walker criterion. An
explicit 4-stage, 3rd-order SSP integrator serves as the reference
scheme.

All routines operate on plain ndarrays of any shape; norms are discrete
L2 norms weighted by cell volumes and mass weights, normalized to a mean
square so that vector magnitudes stay O(field scale) independent of the
domain size.
"""

from __future__ import annotations

import math
import mmap
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

EPS_FD = float(np.sqrt(np.finfo(float).eps))

# Ellsiepen's 2-stage, order-2, stiffly accurate SDIRK tableau:
# A = [[alpha, 0], [1 - alpha, alpha]], b = A[1], c = (alpha, 1)
SDIRK2_ALPHA = 1.0 - math.sqrt(2.0) / 2.0


@dataclass
class NewtonParams:
    tol: float = 1e-3
    max_iters: int = 50
    ew_gamma: float = 0.1
    ew_alpha: float = 1.0
    eta_initial: float = 0.1
    eta_max: float = 0.5
    eta_min: float = 1e-8
    gmres_restart: int = 30
    gmres_maxiter: int = 400

    def __post_init__(self):
        if not 0.0 < self.tol < 1.0:
            raise ValueError(f"newton tolerance must be in (0, 1), got {self.tol}")
        if not 0.0 < self.ew_gamma <= 1.0:
            raise ValueError(f"ew_gamma must be in (0, 1], got {self.ew_gamma}")


@dataclass
class StageStats:
    """One row of the stats log, fields in column order; the count of
    linear solves that stopped above their tolerance goes to stderr."""

    time: float
    stage: int = 0
    newton_iters: int = 0
    gmres_iters: int = 0
    dg_ops: int = 0
    residual: float = 0.0
    gmres_unconverged: int = 0


class SolverFailure(RuntimeError):
    pass


def weighted_rms(u: np.ndarray, weights: np.ndarray | None = None) -> float:
    """Discrete L2 norm; with weights summing to one this is a volume- and
    mass-weighted root mean square."""
    if weights is None:
        return float(np.sqrt(np.mean(u * u)))
    return float(np.sqrt(np.sum(weights * u * u)))


class FDLinearization:
    """Directional finite-difference linearization G'(u0) y of a residual.

    The base residual G(u0) is computed once and reused by every
    Jacobian-vector product: G'(u0) y ~= (G(u0 + eps y) - G(u0)) / eps
    with eps = sqrt(machine eps) / ||y||.
    """

    def __init__(self, residual, u0: np.ndarray, r0: np.ndarray, weights=None):
        self.residual = residual
        self.u0 = u0
        self.r0 = r0
        self.weights = weights

    def matvec(self, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """G'(u0) y, written into out when given."""
        norm = weighted_rms(y, self.weights)
        if norm == 0.0:
            if out is None:
                return np.zeros_like(y)
            out.fill(0.0)
            return out
        eps = EPS_FD / norm
        return np.divide(self.residual(self.u0 + eps * y) - self.r0, eps, out=out)


@dataclass
class GMRESInfo:
    iterations: int
    converged: bool
    residual_history: list


# The Krylov rows of the last solve, kept for the next one in the process,
# so that a solve neither faults in fresh pages nor frees tens of MB: a freed
# block raises glibc's mmap threshold, the next one then comes from the brk
# heap, and there numpy's huge-page advice lets khugepaged collapse it at
# times that vary from run to run, and the peak resident size with them.
# The rows are a mapping of their own with huge pages declined, so what is
# resident of them is what the solves have written.
_kept_rows: dict[tuple[int, int], np.ndarray] = {}


@contextmanager
def _krylov_rows(rows: int, n: int):
    """A (rows, n) float64 work array, taken from _kept_rows if it holds one
    of that shape and put back, as its only entry, on exit. A solve nested
    in another's M, or running in another thread, finds none and makes its
    own."""
    shape = (rows, n)
    work = _kept_rows.pop(shape, None)
    if work is None:
        buf = mmap.mmap(-1, rows * n * np.dtype(float).itemsize)
        if hasattr(mmap, "MADV_NOHUGEPAGE"):
            buf.madvise(mmap.MADV_NOHUGEPAGE)
        work = np.frombuffer(buf, dtype=float).reshape(shape)
    try:
        yield work
    finally:
        _kept_rows.clear()
        _kept_rows[shape] = work


def gmres_solve(
    matvec,
    b: np.ndarray,
    M=None,
    eta: float = 1e-8,
    restart: int = 30,
    maxiter: int = 400,
    weights: np.ndarray | None = None,
) -> tuple[np.ndarray, GMRESInfo]:
    """Right-preconditioned restarted GMRES.

    Terminates when the true residual norm drops below eta * ||b||; with
    right preconditioning the Arnoldi residual estimate equals the
    unpreconditioned residual. Returns the solution and iteration info;
    a zero right-hand side returns immediately.

    The Krylov basis lives in one (restart + 1, n) array in sqrt(weight)-
    scaled coordinates, where the weighted inner product is a plain dot
    product, so weights must be positive. Each new vector is written into
    its row and orthogonalized by classical Gram-Schmidt run twice (CGS2).
    The preconditioned vectors fill a (restart, n) array, so a cycle's
    update is one product. Both arrays are rows of one work array that is
    kept from one solve to the next. matvec and M receive arrays shaped
    like b.
    """
    if not 0.0 < eta < 1.0:
        raise ValueError(f"forcing tolerance must be in (0, 1), got {eta}")
    bnorm = weighted_rms(b, weights)
    x = np.zeros(b.shape)
    history: list[float] = []
    if bnorm == 0.0:
        return x, GMRESInfo(0, True, history)

    shape, n = b.shape, b.size
    # weighted_rms(u) is the 2-norm of u * scale
    scale = (np.sqrt(np.broadcast_to(weights, shape)).reshape(n) if weights is not None
             else 1.0 / math.sqrt(n))
    k = max(min(restart, maxiter), 0)
    with _krylov_rows(2 * k + 2, n) as rows:
        Z, V = rows[:k], rows[k : 2 * k + 1]
        work = rows[2 * k + 1]  # M's argument, the Gram-Schmidt projection, the update
        tol = eta * bnorm
        total = 0
        r = b
        rnorm = bnorm
        while True:
            m = min(restart, maxiter - total)
            if m <= 0:
                return x, GMRESInfo(total, False, history)
            np.multiply(r.reshape(n), scale, out=V[0])
            V[0] /= rnorm
            H = np.zeros((m + 1, m))
            cs = np.zeros(m)
            sn = np.zeros(m)
            g = np.zeros(m + 1)
            g[0] = rnorm
            j_last = -1
            converged = False
            stalled = False
            cycle_start = rnorm
            for j in range(m):
                if M is None:
                    np.divide(V[j], scale, out=Z[j])
                else:
                    np.divide(V[j], scale, out=work)
                    Z[j].reshape(shape)[...] = M(work.reshape(shape))
                w = V[j + 1]
                np.multiply(matvec(Z[j].reshape(shape)).reshape(n), scale, out=w)
                total += 1
                basis = V[: j + 1]
                h = basis @ w
                w -= np.dot(h, basis, out=work)
                h2 = basis @ w
                w -= np.dot(h2, basis, out=work)
                H[: j + 1, j] = h + h2
                H[j + 1, j] = math.sqrt(w @ w)
                breakdown = H[j + 1, j] < 1e-14 * max(bnorm, 1e-300)
                if not breakdown:
                    w /= H[j + 1, j]
                for i in range(j):
                    t = cs[i] * H[i, j] + sn[i] * H[i + 1, j]
                    H[i + 1, j] = -sn[i] * H[i, j] + cs[i] * H[i + 1, j]
                    H[i, j] = t
                d = math.hypot(H[j, j], H[j + 1, j])
                if d == 0.0:
                    # the operator annihilated this direction; drop the column
                    stalled = True
                    break
                cs[j], sn[j] = H[j, j] / d, H[j + 1, j] / d
                H[j, j] = d
                H[j + 1, j] = 0.0
                g[j + 1] = -sn[j] * g[j]
                g[j] = cs[j] * g[j]
                rnorm = abs(g[j + 1])
                history.append(rnorm)
                j_last = j
                if rnorm <= tol or breakdown:
                    # a happy breakdown makes the Krylov solve exact; restarting
                    # could only regenerate the same space
                    converged = True
                    break
            if j_last >= 0:
                y = np.zeros(j_last + 1)
                for i in range(j_last, -1, -1):
                    y[i] = (g[i] - H[i, i + 1 : j_last + 1] @ y[i + 1 : j_last + 1]) / H[i, i]
                x += np.dot(y, Z[: j_last + 1], out=work).reshape(shape)
            if converged:
                return x, GMRESInfo(total, rnorm <= tol, history)
            if total >= maxiter:
                return x, GMRESInfo(total, False, history)
            r = b - matvec(x)
            rnorm = weighted_rms(r, weights)
            if rnorm <= tol:
                return x, GMRESInfo(total, True, history)
            if stalled and rnorm >= (1.0 - 1e-12) * cycle_start:
                return x, GMRESInfo(total, False, history)


def eisenstat_walker_eta(
    norm_k: float, norm_km1: float, eta_prev: float, params: NewtonParams
) -> float:
    """Second Eisenstat-Walker forcing term with the standard safeguard."""
    if norm_k <= 0.0 or norm_km1 <= 0.0:
        raise ValueError("residual norms must be positive")
    eta = params.ew_gamma * (norm_k / norm_km1) ** params.ew_alpha
    safeguard = params.ew_gamma * eta_prev**params.ew_alpha
    if safeguard > 0.1:
        eta = max(eta, safeguard)
    return float(np.clip(eta, params.eta_min, params.eta_max))


@dataclass
class NewtonResult:
    u: np.ndarray
    iterations: int
    gmres_iters: int
    residual: float
    gmres_unconverged: int = 0  # linear solves that stopped above their tolerance


def newton_solve(
    residual,
    u0: np.ndarray,
    params: NewtonParams,
    weights: np.ndarray | None = None,
    precond_factory=None,
) -> NewtonResult:
    """Inexact Newton iteration terminating on |G| < tol * |G(u0)|.

    precond_factory, if given, maps the current FD linearization to a
    linear preconditioner callable for GMRES. Raises
    SolverFailure on stagnation or iteration exhaustion.
    """
    u = np.array(u0, copy=True)
    r = residual(u)
    norm0 = weighted_rms(r, weights)
    norms = [norm0]
    gmres_total = 0
    unconverged = 0
    if norm0 == 0.0:
        return NewtonResult(u, 0, 0, 0.0)
    eta = params.eta_initial
    for k in range(params.max_iters):
        lin = FDLinearization(residual, u, r, weights)
        M = precond_factory(lin) if precond_factory is not None else None
        delta, info = gmres_solve(
            lin.matvec,
            -r,
            M=M,
            eta=eta,
            restart=params.gmres_restart,
            maxiter=params.gmres_maxiter,
            weights=weights,
        )
        gmres_total += info.iterations
        if not info.converged:
            unconverged += 1
        u = u + delta
        r = residual(u)
        norms.append(weighted_rms(r, weights))
        if norms[-1] < params.tol * norm0:
            return NewtonResult(u, k + 1, gmres_total, norms[-1], unconverged)
        if len(norms) >= 4 and norms[-1] > (1.0 - 1e-3) * norms[-4]:
            raise SolverFailure(
                f"Newton stagnation: residual {norms[-1]:.3e} after {k + 1} iterations"
            )
        eta = eisenstat_walker_eta(norms[-1], norms[-2], eta, params)
    raise SolverFailure(
        f"Newton did not converge in {params.max_iters} iterations "
        f"(residual {norms[-1]:.3e} vs target {params.tol * norm0:.3e})"
    )


def sdirk2_step(
    f,
    U: np.ndarray,
    t: float,
    dt: float,
    params: NewtonParams | None = None,
    weights: np.ndarray | None = None,
    precond=None,
) -> tuple[np.ndarray, list[StageStats]]:
    """One SDIRK2 step: the new solution value, which is the second stage,
    and the StageStats of the two stages.

    Stage right-hand sides follow the tableau; f(U1) is recovered from the
    solved first stage as (U1 - Ubar1)/(alpha*dt), avoiding an extra
    operator call. precond, if given, preconditions the stage solves:
    precond.begin_step(U, alpha*dt) starts the step and decides whether
    what the preconditioner lags is kept from the steps before or frozen
    anew at U, and precond.factory(lin) builds the preconditioner of each
    Newton iterate's linearization lin. A stage's dg_ops counts its calls
    of f.
    """
    if dt <= 0.0:
        raise ValueError(f"time step must be positive, got {dt}")
    params = params or NewtonParams()
    alpha = SDIRK2_ALPHA
    a_dt = alpha * dt
    stats: list[StageStats] = []
    factory = None
    if precond is not None:
        precond.begin_step(U, a_dt)
        factory = precond.factory

    def solve_stage(stage: int, Ubar: np.ndarray, ts: float) -> np.ndarray:
        calls = 0

        def G(V):
            nonlocal calls
            calls += 1
            return V - a_dt * f(V, ts) - Ubar

        try:
            res = newton_solve(G, Ubar, params, weights, factory)
        except SolverFailure as err:
            raise SolverFailure(f"stage {stage}: {err}") from err
        stats.append(StageStats(ts, stage, res.iterations, res.gmres_iters, calls, res.residual,
                                res.gmres_unconverged))
        return res.u

    U1 = solve_stage(1, U, t + alpha * dt)
    f1 = (U1 - U) / a_dt
    Ubar2 = U + (1.0 - alpha) * dt * f1
    U2 = solve_stage(2, Ubar2, t + dt)
    return U2, stats


def ssprk34_step(f, U: np.ndarray, t: float, dt: float) -> tuple[np.ndarray, list[StageStats]]:
    """One 4-stage, 3rd-order strong-stability-preserving step: the new
    solution value and the StageStats of the step, one row at t + dt whose
    dg_ops counts its four calls of f."""
    u1 = U + 0.5 * dt * f(U, t)
    u2 = u1 + 0.5 * dt * f(u1, t + 0.5 * dt)
    u3 = (2.0 / 3.0) * U + (1.0 / 3.0) * u2 + (dt / 6.0) * f(u2, t + dt)
    return u3 + 0.5 * dt * f(u3, t + 0.5 * dt), [StageStats(t + dt, dg_ops=4)]
