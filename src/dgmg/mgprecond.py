"""Geometric multigrid preconditioner on the FV subgrid.

The preconditioner approximates the inverse of the outer stage Jacobian
as T^-1 q^-1 T: transfer the residual to the piecewise-constant subgrid,
run one multigrid cycle on the low-order linearization, and map the
correction back, optionally wrapped in pseudo-time smoothing sweeps on
the DG system itself. The outer DG system stays Jacobian-free: the DG
sweeps use the Newton iteration's FD linearization. The FV levels use
assembled stencils (fv.FVLinearization), lagged to one assembly per time
step (Knoll & Keyes, J. Comput. Phys. 2004): each step's FV level stack
is frozen at the DG state the step starts from.

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
coarse level by the rule the FV operator applies to states: wrapped on
periodic sides, mirrored at slip walls with the wall-normal momentum (rho u
at x-walls, rho w at z-walls) negated. Each level of the stack records
which of its axes are periodic. The smoother integrates the dual
pseudo-time ODE dw/dtau = (b - g'(u) w)/(alpha dt) with explicit steps;
the per-cell pseudo step

    dtau = pseudo_cfl / (1 + alpha dt * ((|u|+c)/dx + (|w|+c)/dz
                                          + 2 mu (1/dx^2 + 1/dz^2)))

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
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import physics
from .fv import FVLinearization, FVOperator
from .transfer import TransferOperators

# stages s of each FV smoothing step, whose stability polynomial is (1 - z)^s
RK_STAGES = 3


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

    def __post_init__(self):
        counts = (self.dg_pre, self.dg_post, self.fine_pre, self.fine_post,
                  self.mid_pre, self.mid_post)
        if any(n < 0 for n in counts):
            raise MGConfigError(f"smoothing counts must be nonnegative, got {counts}")
        if self.cycle not in ("V", "W"):
            raise MGConfigError(f"cycle must be 'V' or 'W', got {self.cycle!r}")


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


def restrict(u: np.ndarray) -> np.ndarray:
    """Agglomeration restriction over the last two (z, x) axes: the
    volume-weighted average of the four children (arithmetic mean on
    uniform grids)."""
    nz, nx = u.shape[-2:]
    if nz % 2 or nx % 2:
        raise ValueError(f"cannot coarsen a {nz}x{nx} grid")
    # children summed in the order ((a + b) + c) + d, the order numpy's
    # mean over the (2, 2) child axes of the (nz, nx, 4) layout uses
    out = u[..., 0::2, 0::2] + u[..., 0::2, 1::2]
    out += u[..., 1::2, 0::2]
    out += u[..., 1::2, 1::2]
    out /= 4
    return out


def prolong(u: np.ndarray, periodic: tuple[bool, bool]) -> np.ndarray:
    """Cell-centred bilinear prolongation of component-major vectors (4,
    nz, nx) on a level whose x and z axes are periodic or not.

    Each child takes 9/16 of its parent, 3/16 of each of the parent's two
    neighbours on the child's side and 1/16 of the diagonal one: two
    separable passes of 3/4 parent + 1/4 neighbour, x first. The ghosts
    are wrapped on periodic sides and mirror the edge cell at slip walls,
    with the wall-normal momentum negated (physics.FaceAxis.fill_ghosts).
    """
    for axis, normal, wrap in ((-1, physics.RHO_U, periodic[0]),
                               (-2, physics.RHO_W, periodic[1])):
        n = u.shape[axis]
        tail = (slice(None),) * (-1 - axis)
        # one ghost per side: take wraps the indices -1 and n around, or
        # clips them to the edge cells
        q = np.take(u, np.arange(-1, n + 1), axis=axis, mode="wrap" if wrap else "clip")
        if not wrap:
            q[(normal, Ellipsis, slice(None, None, n + 1)) + tail] *= -1
        q *= 0.25
        centre = 3 * q[(Ellipsis, slice(1, -1)) + tail]
        shape = list(u.shape)
        shape[axis] = 2 * n
        u = np.empty(shape, dtype=u.dtype)
        np.add(centre, q[(Ellipsis, slice(None, -2)) + tail],
               out=u[(Ellipsis, slice(0, None, 2)) + tail])
        np.add(centre, q[(Ellipsis, slice(2, None)) + tail],
               out=u[(Ellipsis, slice(1, None, 2)) + tail])
    return u


def smooth(matvec, x: np.ndarray, b: np.ndarray, n_steps: int, dtau: np.ndarray) -> np.ndarray:
    """Explicit pseudo-time Euler steps x <- x + dtau * (b - g' x) for the
    system g' x = b. Zero iterates skip the operator call."""
    for _ in range(n_steps):
        r = b - matvec(x) if np.any(x) else b
        x = x + dtau * r
    return x


def _pseudo_dtau(lx, lz, hx, hz, mu, cfl, alpha_dt) -> np.ndarray:
    """The module docstring's pseudo step from wave speeds and spacings."""
    rate = lx / hx + lz / hz
    if mu > 0.0:
        rate = rate + 2.0 * mu * (1.0 / hx**2 + 1.0 / hz**2)
    return cfl / (1.0 + alpha_dt * rate)


class Level(NamedTuple):
    """One level of the cycle's stack: the matvec of its frozen
    linearization, its pseudo steps (nz, nx), and whether its x and z axes
    are periodic, which prolongation onto it reads."""

    matvec: Callable[[np.ndarray], np.ndarray]
    dtau: np.ndarray
    periodic: tuple[bool, bool]


def mg_cycle(levels: list[Level], l: int, x: np.ndarray, b: np.ndarray,
             cfg: MGConfig) -> np.ndarray:
    """One V- or W-cycle on the level stack, coarsest first. x and b are
    (components, nz, nx); dtau (nz, nx) broadcasts over the components.

    Pre-smooth, restrict the residual, recurse (once for V, twice for W),
    subtract the prolonged correction, post-smooth. Each smoothing step
    is RK_STAGES Euler sub-steps; the coarsest level makes max(2,
    pre+post) steps.
    """
    matvec, dtau, periodic = levels[l]
    finest = len(levels) - 1
    pre, post = (cfg.fine_pre, cfg.fine_post) if l == finest else (cfg.mid_pre, cfg.mid_post)
    if l == 0:
        return smooth(matvec, x, b, RK_STAGES * max(2, pre + post), dtau)
    x = smooth(matvec, x, b, RK_STAGES * pre, dtau)
    r = restrict(matvec(x) - b) if np.any(x) else restrict(-b)
    v = np.zeros_like(r)
    for _ in range(2 if cfg.cycle == "W" else 1):
        v = mg_cycle(levels, l - 1, v, r, cfg)
    x = x - prolong(v, periodic)
    return smooth(matvec, x, b, RK_STAGES * post, dtau)


class MultigridPreconditioner:
    """Builds per-Newton-iterate preconditioner applications.

    Holds the FV operators of every hierarchy level, the DG/FV transfer,
    and the cycle configuration. The FV level stack is lagged: the first
    factory() call after begin_step() transfers its Newton iterate, the
    state the time step starts from, to the finest FV level, restricts it
    downward and assembles each level's stencil linearization
    (FVLinearization) and local pseudo-time steps. Later factory() calls
    of the step, for both stages and every Newton iteration, reuse the
    stack; a new alpha_dt rebuilds it. The DG side (the outer
    Jacobian-free linearization and its pseudo-time steps) follows the
    current Newton iterate. The returned closure applies one cycle per
    call and returns float64 of its input's shape; it is linear to
    float32 round-off (exactly homogeneous under powers of two) and
    deterministic across calls.
    """

    def __init__(self, dg_op, fv_operators: list[FVOperator], transfer: TransferOperators,
                 cfg: MGConfig, use_massfix: bool = False):
        self.dg_op = dg_op
        self.fv_operators = fv_operators
        self.transfer = transfer
        self.cfg = cfg
        self.forward = transfer.dg_to_fv_massfix if use_massfix else transfer.dg_to_fv
        self._stack = None  # (alpha_dt, levels)

    def begin_step(self) -> None:
        """Start a time step: the next factory() call rebuilds the FV level
        stack."""
        self._stack = None

    def fv_levels(self, U: np.ndarray, alpha_dt: float) -> list[Level]:
        """The FV level stack of mg_cycle frozen at the DG state U."""
        finest = len(self.fv_operators) - 1
        states: list[np.ndarray | None] = [None] * (finest + 1)
        states[finest] = self.forward(U)
        for l in range(finest, 0, -1):
            # restrict acts on the last two axes; the FV states are (nz, nx, 4)
            states[l - 1] = restrict(states[l].transpose(2, 0, 1)).transpose(1, 2, 0)
        return [
            Level(FVLinearization(op, u, alpha_dt).matvec,
                  _pseudo_dtau(*physics.wave_speeds(u + op.bg, op.constants), op.dx, op.dz,
                               op.constants.mu, self.cfg.pseudo_cfl,
                               alpha_dt).astype(np.float32),
                  (op.xfaces.periodic, op.zfaces.periodic))
            for op, u in zip(self.fv_operators, states)
        ]

    def factory(self, dg_lin, alpha_dt: float):
        cfg = self.cfg
        if self._stack is None or self._stack[0] != alpha_dt:
            self._stack = (alpha_dt, self.fv_levels(dg_lin.u0, alpha_dt))
        levels = self._stack[1]
        finest = len(levels) - 1
        if cfg.dg_pre or cfg.dg_post:
            # effective spacing h/(2k+1) accounts for the DG CFL restriction.
            # The extra 0.5 keeps dtau * eig well below 1: a one-stage Euler
            # sweep at the stability limit nearly annihilates the modes with
            # dtau * eig ~ 1, which makes the preconditioner ill-conditioned
            # and stalls restarted GMRES at tight forcing tolerances.
            op = self.dg_op
            fac = 2 * op.basis.k + 1
            dg_dtau = _pseudo_dtau(*op.max_wave_speeds(dg_lin.u0), op.dx / fac, op.dz / fac,
                                   op.constants.mu, 0.5 * cfg.pseudo_cfl,
                                   alpha_dt)[..., None, None, None]

        def precondition(y: np.ndarray) -> np.ndarray:
            x = np.zeros_like(y)
            if cfg.dg_pre:
                x = smooth(dg_lin.matvec, x, y, cfg.dg_pre, dg_dtau)
                r = y - dg_lin.matvec(x)
            else:
                r = y
            b = np.ascontiguousarray(self.forward(r).transpose(2, 0, 1), dtype=np.float32)
            v = mg_cycle(levels, finest, np.zeros_like(b), b, cfg)
            x = x + self.transfer.fv_to_dg(v.transpose(1, 2, 0))
            if cfg.dg_post:
                x = smooth(dg_lin.matvec, x, y, cfg.dg_post, dg_dtau)
            return x

        return precondition
