"""Geometric multigrid preconditioner on the FV subgrid.

The preconditioner approximates the inverse of the outer stage Jacobian
as T^-1 q^-1 T: transfer the residual to the piecewise-constant subgrid,
run one multigrid cycle on the low-order linearization, and map the
correction back, optionally wrapped in pseudo-time smoothing sweeps on
the DG system itself. The outer DG system stays Jacobian-free: the DG
sweeps use the Newton iteration's FD linearization. The FV levels use
assembled stencils (fv.FVLinearization), made once per run and
assembled in place by begin_step at each level's hydrostatic background
(a zero perturbation). The solvers evolve perturbations of that
background, and in these low-Mach flows the stiff part of the stage
Jacobian is the background's sound speed and gravity, so one stack
serves the whole run. begin_step re-assembles it only when alpha*dt
changes, since the blocks hold alpha*dt*J and the pseudo steps depend
on it.

The FV cycle runs in float32 on component-major vectors (4, nz, nx):
the residual is copied once into that form when it enters the cycle and
once back into the float64 operand of the inverse transfer when it
leaves; the blocks, the per-cell pseudo steps (nz, nx), the smoother,
restriction and prolongation all stay in float32. That is safe because
gmres_solve keeps the preconditioned vectors Z and updates the iterate
from them, the flexible-GMRES form (Saad, SIAM J. Sci. Comput. 1993),
which tolerates a preconditioner that is linear only to round-off, and
Newton checks the true float64 residual; single-precision multigrid
inside double-precision Krylov solvers is standard practice (Goeddeke,
Strzodka & Turek, IJPEDS 2007). The DG sweeps, the transfers and GMRES
stay float64.

Grid transfers are agglomeration restriction (volume-weighted child
average) and cell-centred bilinear prolongation (weights 9/16, 3/16, 3/16,
1/16; Wesseling, An Introduction to Multigrid Methods, 1992), the usual
pair of transfer orders 1 and 2 on cell-centred grids (Hemker, J. Comput.
Appl. Math. 1990). Prolongation reads one ghost cell per side of the
coarse level, filled by the two physics.FaceAxis objects each level keeps
of its FV level: wrapped on periodic sides, mirrored at slip walls with
the wall-normal momentum negated. The smoother integrates the dual
pseudo-time ODE dw/dtau = (b - g'(u) w)/(alpha dt) with explicit steps;
the per-cell pseudo step

    dtau = pseudo_cfl / (1 + alpha dt * rate)

takes the stiffness rate (|u|+c)/dx + (|w|+c)/dz + 2 mu (1/dx^2 + 1/dz^2)
of physics.stiffness_rate that each operator supplies of its cells
(FVLinearization.assemble; DGOperator.rate, at the spacing h/(2k+1)). It
is the local stability bound of that scaled system (the "+1" is the
identity shift of the implicit stage residual): with pseudo_cfl <= 1 it
keeps z = dtau * lambda of the FV levels in the disc |z - 1| <= 1
(tests/test_mgprecond.py checks the coarse levels of the three cases),
and the alpha*dt -> 0 limit solves the identity system in one Euler step
at pseudo_cfl = 1.

Each FV smoothing step is an RK_STAGES-stage explicit Runge-Kutta
pseudo-time step (the paper smooths with explicit RK pseudo-time
iterations) with the stability polynomial P(z) = (1 - z)^s, i.e. s Euler
sub-steps of the same dtau. By
Bernstein's inequality a degree-s polynomial with P(0) = 1 and |P| <= 1
on that disc has |P'(0)| <= s, with equality only for (1 - z)^s: of all
s-stage schemes stable on the whole disc it damps the slow modes near
z = 0 fastest. The DG sweeps stay one Euler step each.

The cycle runs in a workspace that each Level keeps for the run:
the iterate x, the right-hand side b, a work vector t and prolongation's
buffers. A sub-step writes the stencil product and residual into t in
place, in the order t = x - A x, t = b - t, t *= dtau, x += t, and makes no
array. The restricted residual goes straight into the coarser level's b
and the prolonged correction into t. A visit to a level starts from a
zero iterate on the finest level of each application and on the first of
a coarser level's visits per cycle of the level above. Its first sub-step
then writes x = dtau * b without the operator call, so that no sub-step
probes x for zeros.

The coarsest level is solved exactly, the textbook bottom of a multigrid
cycle (Trottenberg, Oosterlee & Schueller, Multigrid, 2001): begin_step
factors it right after assembling it (Level.factor), probing its matvec on
the level's 4 * cells unit vectors and inverting that matrix in float64,
so the inverse is made once per stack build, and a visit is one float32
GEMV into x. The benchmark stacks bottom out at 40, 200 and 256 unknowns.
A dense inverse does not scale, so a coarsest level of more than
COARSE_SOLVE_MAX unknowns gets no inverse and is smoothed with
max(2, pre+post) RK steps instead.
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .fv import FVLinearization
from .physics import FaceAxis
from .timeint import SolverFailure
from .transfer import TransferOperators

# stages s of each FV smoothing step, whose stability polynomial is (1 - z)^s
RK_STAGES = 3

# the coarsest FV level is solved exactly, with a dense inverse made when
# the stack is built, when it has at most this many unknowns (4 * cells);
# above it, the inverse's set-up and product outgrow the smoothing it
# replaces, and the level is smoothed
COARSE_SOLVE_MAX = 512


class MGConfigError(ValueError):
    pass


@dataclass(frozen=True)
class MGConfig:
    """Smoothing counts and cycle type, parsed from the key 'mg abcdef G'.

    a, b: pre/post Euler sweeps on the DG system; c, d: RK pseudo-time
    steps of RK_STAGES stages on the finest FV level; e, f: on
    intermediate FV levels; cycle: V or W.
    """

    dg_pre: int
    dg_post: int
    fine_pre: int
    fine_post: int
    mid_pre: int
    mid_post: int
    cycle: str
    pseudo_cfl: float = 1.0


def parse_mg_config(text: str, pseudo_cfl: float = 1.0) -> MGConfig:
    """Parse 'mg' + six decimal digits + cycle letter, e.g. 'mg001111V'."""
    if not text.startswith("mg"):
        raise MGConfigError(f"{text!r}: expected prefix 'mg' at position 0")
    if len(text) != 9:
        raise MGConfigError(
            f"{text!r}: expected 'mg' + 6 digits + cycle letter (9 characters, got {len(text)})"
        )
    for pos in range(2, 8):
        if text[pos] not in "0123456789":
            raise MGConfigError(f"{text!r}: expected digit at position {pos}, got {text[pos]!r}")
    if text[8] not in "VW":
        raise MGConfigError(f"{text!r}: expected 'V' or 'W' at position 8, got {text[8]!r}")
    a, b, c, d, e, f = (int(text[i]) for i in range(2, 8))
    return MGConfig(a, b, c, d, e, f, text[8], pseudo_cfl=pseudo_cfl)


def restrict(u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Agglomeration restriction over the last two (z, x) axes: the
    volume-weighted average of the four children (arithmetic mean on
    uniform grids), written into out when given."""
    nz, nx = u.shape[-2:]
    if nz % 2 or nx % 2:
        raise ValueError(f"cannot coarsen a {nz}x{nx} grid")
    # children summed in the order ((a + b) + c) + d, the order numpy's
    # mean over the (2, 2) child axes of the (nz, nx, 4) layout uses
    out = np.add(u[..., 0::2, 0::2], u[..., 0::2, 1::2], out=out)
    out += u[..., 1::2, 0::2]
    out += u[..., 1::2, 1::2]
    out /= 4
    return out


class _BilinearPass:
    """One pass of prolong across the faces of one axis: q holds the input
    between one ghost per side, which a call fills (faces.fill_ghosts);
    children 2I and 2I + 1 of out take 3/4 of parent I and 1/4 of its
    neighbour I - 1 and I + 1, the scaled parents going through centre."""

    def __init__(self, faces: FaceAxis, q, centre, out):
        def at(index):
            return (Ellipsis, index) + (slice(None),) * faces.normal

        self.faces, self.q, self.centre = faces, q, centre
        # (z-index, x-index, component), the layout fill_ghosts reads
        self.sides = [q[at(s)].transpose(1, 2, 0) for s in (slice(None, -1), slice(1, None))]
        self.parents, self.left, self.right = (q[at(s)] for s in (slice(1, -1), slice(None, -2),
                                                                  slice(2, None)))
        self.even, self.odd = out[at(slice(0, None, 2))], out[at(slice(1, None, 2))]

    def __call__(self) -> None:
        self.faces.fill_ghosts(*self.sides)
        self.q *= 0.25
        np.multiply(self.parents, 3, out=self.centre)
        np.add(self.centre, self.left, out=self.even)
        np.add(self.centre, self.right, out=self.odd)


def prolong(u: np.ndarray, level: Level) -> np.ndarray:
    """Cell-centred bilinear prolongation of component-major vectors (4,
    nz, nx) into the work vector t of level, whose face axes fill the
    ghosts.

    Each child takes 9/16 of its parent, 3/16 of each of the parent's two
    neighbours on the child's side and 1/16 of the diagonal one: two
    separable passes of 3/4 parent + 1/4 neighbour, x first, whose ghosts
    physics.FaceAxis.fill_ghosts fills.
    """
    parents, passes = level.prolongation
    np.copyto(parents, u)
    for bilinear in passes:
        bilinear()
    return level.t


def smooth(matvec, x: np.ndarray, b: np.ndarray, n_steps: int, dtau: np.ndarray,
           t: np.ndarray, zero: bool = False) -> np.ndarray:
    """Explicit pseudo-time Euler steps x <- x + dtau * (b - g' x) for the
    system g' x = b, in place on x. matvec(w, out) returns g' w written
    into out, and t is that out, of x's shape. When zero, x is zero on
    entry (its contents are not read), and the first step writes dtau * b
    without the operator call."""
    for _ in range(n_steps):
        if zero:
            np.multiply(dtau, b, out=x)
            zero = False
            continue
        r = matvec(x, t)
        np.subtract(b, r, out=r)
        r *= dtau
        x += r
    return x


class Level:
    """One level of the cycle's stack and the workspace the cycle runs in
    there, made once and kept for the run.

    matvec(w, out) returns g' w of the level's frozen linearization written
    into out; dtau (nz, nx) are its pseudo steps; faces are the (xfaces,
    zfaces) of its FV level, which prolongation onto it reads. x is the
    level's iterate and b its right-hand side; t takes a sub-step's
    operator product and residual, the residual that is restricted and the
    prolonged correction. inverse is the dense inverse of g' that factor
    makes for the coarsest level, or None, where the cycle smooths.
    """

    def __init__(self, matvec: Callable[[np.ndarray, np.ndarray], np.ndarray],
                 dtau: np.ndarray, faces: tuple[FaceAxis, FaceAxis], x: np.ndarray):
        self.matvec = matvec
        self.dtau = dtau
        self.faces = faces
        self.x = x
        self.b = np.empty(x.shape, x.dtype)
        self.t = np.empty(x.shape, x.dtype)
        self.inverse: np.ndarray | None = None

    def factor(self) -> None:
        """Make the dense inverse of g' that the cycle solves this level
        with, when the level has at most COARSE_SOLVE_MAX unknowns; above
        that, set none, so that the level is smoothed. The matrix is probed
        from matvec on the level's unit vectors, each column written into a
        float64 row, so that it is the operator the cycle applies without
        the rounding of a float32 product; it is inverted in float64 and
        stored in the level's dtype. Raises SolverFailure, naming the level
        and its nz x nx, when g' is singular or its inverse is not finite."""
        self.inverse = None
        n = self.x.size
        if n > COARSE_SOLVE_MAX:
            return
        unit = np.zeros(self.x.shape, self.x.dtype)
        flat = unit.reshape(-1)
        columns = np.empty((n, n))  # row j is column j of g'
        for j in range(n):
            flat[j] = 1.0
            self.matvec(unit, columns[j].reshape(self.x.shape))
            flat[j] = 0.0
        _, nz, nx = self.x.shape
        try:
            inverse = np.linalg.inv(columns.T).astype(self.x.dtype)
        except np.linalg.LinAlgError as err:
            raise SolverFailure(f"coarsest FV level 0 ({nz} x {nx} cells): {err}") from err
        if not np.isfinite(inverse).all():
            raise SolverFailure(f"coarsest FV level 0 ({nz} x {nx} cells): "
                                "the inverse of its operator is not finite")
        self.inverse = inverse

    @functools.cached_property
    def prolongation(self) -> tuple[np.ndarray, tuple[_BilinearPass, _BilinearPass]]:
        """prolong's input buffer and its two passes onto this level, made
        by the first prolongation, so that the coarsest level has none. For
        coarse vectors (c, nz, nx), the x pass reads the parents between
        one ghost column per side and writes the interior of the z pass's
        input, which has one ghost row per side; the z pass writes t. Each
        pass has its own centre buffer."""
        t = self.t
        c, nz, nx = t.shape[0], t.shape[1] // 2, t.shape[2] // 2
        qx = np.empty((c, nz, nx + 2), t.dtype)
        qz = np.empty((c, nz + 2, 2 * nx), t.dtype)
        xfaces, zfaces = self.faces
        return qx[..., 1:-1], (
            _BilinearPass(xfaces, qx, np.empty((c, nz, nx), t.dtype), qz[:, 1:-1]),
            _BilinearPass(zfaces, qz, np.empty((c, nz, 2 * nx), t.dtype), t))


def mg_cycle(levels: list[Level], l: int, cfg: MGConfig, zero: bool = False) -> np.ndarray:
    """One V- or W-cycle on the level stack, coarsest first, in place on
    the iterate x of level l for its right-hand side b, both (components,
    nz, nx); dtau (nz, nx) broadcasts over the components. When zero, x is
    zero on entry and its contents are not read. Returns x.

    Pre-smooth, restrict the residual into the b of level l - 1, recurse
    (once for V, twice for W, from a zero iterate the first time), subtract
    the prolonged correction, post-smooth. Each smoothing step is RK_STAGES
    Euler sub-steps. On the coarsest level, x = inverse @ b when the level
    has an inverse (Level.factor), whatever zero and x hold on entry, so a
    W-cycle's second visit repeats the first; otherwise that level makes
    max(2, pre+post) smoothing steps.
    """
    level = levels[l]
    x, b, t, dtau = level.x, level.b, level.t, level.dtau
    finest = len(levels) - 1
    pre, post = (cfg.fine_pre, cfg.fine_post) if l == finest else (cfg.mid_pre, cfg.mid_post)
    if l == 0:
        if level.inverse is not None:
            np.matmul(level.inverse, b.reshape(-1), out=x.reshape(-1))
            return x
        return smooth(level.matvec, x, b, RK_STAGES * max(2, pre + post), dtau, t, zero)
    smooth(level.matvec, x, b, RK_STAGES * pre, dtau, t, zero)
    zero = zero and pre == 0
    if zero:
        x.fill(0.0)
        np.negative(b, out=t)
    else:
        np.subtract(level.matvec(x, t), b, out=t)
    coarse = levels[l - 1]
    restrict(t, out=coarse.b)
    for visit in range(2 if cfg.cycle == "W" else 1):
        mg_cycle(levels, l - 1, cfg, zero=visit == 0)
    x -= prolong(coarse.x, level)
    return smooth(level.matvec, x, b, RK_STAGES * post, dtau, t)


class MultigridPreconditioner:
    """Builds per-Newton-iterate preconditioner applications.

    Holds the FV level of every grid of the cycle (fv.FVLinearization), the
    cycle's Level of each, made once, the DG/FV transfer, and the cycle
    configuration. begin_step(alpha_dt) freezes the FV levels at their
    backgrounds and the coarsest level's inverse at alpha_dt; every
    factory() call of the steps at that alpha_dt, for both stages and
    every Newton iteration, reuses them. The DG side (the outer
    Jacobian-free linearization and its pseudo-time steps) follows the
    current Newton iterate. The returned closure
    applies one cycle per call and returns float64 of its input's shape;
    it is linear to float32 round-off (exactly homogeneous under powers of
    two) and deterministic across calls.
    """

    def __init__(self, dg_op, linearizations: list[FVLinearization],
                 transfer: TransferOperators, cfg: MGConfig, use_massfix: bool = False):
        self.dg_op = dg_op
        self.linearizations = linearizations
        # a visit's iterate starts as zero without being read (mg_cycle)
        self.levels = [Level(lin.matvec, np.empty((lin.nz, lin.nx), np.float32),
                             (lin.xfaces, lin.zfaces), np.empty((4, lin.nz, lin.nx), np.float32))
                       for lin in linearizations]
        self.transfer = transfer
        self.cfg = cfg
        self.forward = transfer.dg_to_fv_massfix if use_massfix else transfer.dg_to_fv
        self.alpha_dt: float | None = None  # of the stack's last assembly

    def begin_step(self, alpha_dt: float) -> None:
        """Start a time step at alpha_dt. Keep the stack unless there is
        none yet or alpha_dt differs from the one it was built at; then
        re-assemble each level's stencil and pseudo steps in place at its
        background and alpha_dt, and factor the coarsest level
        (Level.factor)."""
        if alpha_dt == self.alpha_dt:
            return
        self.alpha_dt = alpha_dt
        for lin, level in zip(self.linearizations, self.levels):
            rate = lin.assemble(np.zeros_like(lin.bg), alpha_dt)
            level.dtau[...] = self.cfg.pseudo_cfl / (1.0 + alpha_dt * rate)
        self.levels[0].factor()

    def factory(self, dg_lin):
        cfg, alpha_dt, levels = self.cfg, self.alpha_dt, self.levels
        finest = len(levels) - 1
        if cfg.dg_pre or cfg.dg_post:
            # The extra 0.5 keeps dtau * eig well below 1: a one-stage Euler
            # sweep at the stability limit nearly annihilates the modes with
            # dtau * eig ~ 1, which makes the preconditioner ill-conditioned
            # and stalls restarted GMRES at tight forcing tolerances.
            rate = self.dg_op.rate(dg_lin.u0)[..., None, None, None]
            dg_dtau = 0.5 * cfg.pseudo_cfl / (1.0 + alpha_dt * rate)
            dg_work = np.empty_like(dg_lin.u0)
        top = levels[finest]

        def precondition(y: np.ndarray) -> np.ndarray:
            if cfg.dg_pre:
                x = smooth(dg_lin.matvec, np.empty_like(y), y, cfg.dg_pre, dg_dtau, dg_work,
                           zero=True)
                r = y - dg_lin.matvec(x)
            else:
                r = y
            np.copyto(top.b, self.forward(r).transpose(2, 0, 1))
            v = mg_cycle(levels, finest, cfg, zero=True)
            if cfg.dg_pre:
                x += self.transfer.fv_to_dg(v.transpose(1, 2, 0))
            else:
                x = self.transfer.fv_to_dg(v.transpose(1, 2, 0))
            if cfg.dg_post:
                smooth(dg_lin.matvec, x, y, cfg.dg_post, dg_dtau, dg_work)
            return x

        return precondition
