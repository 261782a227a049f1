"""Batch driver: config parsing, run orchestration, CSV output.

Configs are line-oriented `key = value` files; command-line flags
override file values. A run integrates one case to its final time,
writing field snapshots at a fixed interval and one statistics row per
implicit stage (or per explicit step). Reruns of the same config
reproduce the statistics log byte for byte.

Exit codes: 0 success, 2 configuration error, 3 solver failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, field, fields
from decimal import Decimal

import numpy as np

from . import cases
from .cases import CaseSetup, build_initial_state
from .dg import DGBasis, DGOperator
from .fv import FVOperator, fv_background
from .mesh import build_hierarchy
from .mgprecond import MGConfig, MGConfigError, MultigridPreconditioner, parse_mg_config
from .physics import InadmissibleStateError
from .timeint import NewtonParams, SolverFailure, StageStats, sdirk2_step, ssprk34_step
from .transfer import TransferOperators

SNAPSHOT_HEADER = "x,z,rho_p,rhou_p,rhow_p,theta_p"
# Most steps a run may take: beyond this, t_final / dt is a mistake, and
# the run would never finish while stats.csv grew by a row per step.
MAX_STEPS = 10**6
# DG fields that build_solver holds at its peak: 9.5 without and 18 with
# multigrid (tracemalloc on the inertia-gravity grids). A grid for which
# ten of them exceed the physical memory cannot even be set up.
SETUP_FIELDS = 10


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    """The run configuration: each field is a key of the config file and a
    flag (`_` written as `-`; the bool `vtk` a bare switch). A field's
    annotation gives its parser, its metadata the flag's choices and help."""

    case: str = field(metadata={"choices": tuple(sorted(cases.CASES))})
    k: int = 3
    level: int = 0
    base_nx: int | None = None
    base_nz: int | None = None
    dx: float | None = field(
        default=None, metadata={"help": "target DG cell size (alternative to base dims)"}
    )
    dt: float | None = None
    t_final: float | None = None
    integrator: str = field(default="implicit", metadata={"choices": ("implicit", "explicit")})
    mg: str = field(default="none", metadata={"help": "multigrid key like mg001111V, or none"})
    transfer: str = field(default="interp", metadata={"choices": ("interp", "massfix")})
    newton_tol: float = 1e-3
    outdir: str = "out"
    output_interval: float | None = None
    log_format: str = field(default="csv", metadata={"choices": ("csv", "jsonl")})
    pseudo_cfl: float = 1.0
    explicit_cfl: float = 0.8
    vtk: bool = False

    def validate(self) -> None:
        for f in fields(self):
            value, choices = getattr(self, f.name), f.metadata.get("choices")
            if choices and value not in choices:
                raise ConfigError(f"{f.name} must be one of {', '.join(choices)}, got {value!r}")
        if self.base_nx is None and self.dx is None:
            raise ConfigError("either base_nx/base_nz or a target dx must be given")
        if (self.base_nx is None) != (self.base_nz is None):
            raise ConfigError("base_nx and base_nz must be given together")
        if self.level < 0:
            raise ConfigError(f"level must be nonnegative, got {self.level}")
        # the FV subgrid nests into the hierarchy only if k + 1 is a power of two
        if self.k < 0 or (self.k + 1) & self.k:
            raise ConfigError(f"k must be nonnegative with k + 1 a power of two, got {self.k}")
        # `not x > 0` also rejects NaN; a step or interval that is not
        # positive would never advance the time loop
        for key in ("base_nx", "base_nz", "dx", "dt", "t_final", "output_interval", "explicit_cfl"):
            value = getattr(self, key)
            if value is not None and not value > 0:
                raise ConfigError(f"{key} must be positive, got {value}")
        # an infinite end time would make the time loop's end test NaN
        if self.t_final is not None and not math.isfinite(self.t_final):
            raise ConfigError(f"t_final must be finite, got {self.t_final}")
        if self.integrator == "implicit" and self.dt is None:
            raise ConfigError("implicit runs need an explicit dt value")
        if not 0 < self.newton_tol < 1:
            raise ConfigError(f"newton_tol must be in (0, 1), got {self.newton_tol}")
        # beyond 1 the FV pseudo steps leave the disc |z - 1| <= 1 that
        # the smoother is stable on (mgprecond)
        if not 0 < self.pseudo_cfl <= 1:
            raise ConfigError(f"pseudo_cfl must be in the stable range (0, 1], got {self.pseudo_cfl}")

    def mg_config(self) -> MGConfig | None:
        if self.mg == "none":
            return None
        try:
            return parse_mg_config(self.mg, pseudo_cfl=self.pseudo_cfl)
        except MGConfigError as err:
            raise ConfigError(str(err)) from err


def _parse_bool(text: str) -> bool:
    if text.lower() not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError(f"expected 1, true, yes, 0, false or no, got {text!r}")
    return text.lower() in ("1", "true", "yes")


# the config file's parser of each key, read from its field's annotation
_PARSERS = {"int": int, "float": float, "str": str, "bool": _parse_bool}
_SCHEMA = {f.name: _PARSERS[f.type.removesuffix(" | None")] for f in fields(RunConfig)}


def parse_config(path: str | None, overrides: dict | None = None) -> RunConfig:
    """Read a key = value file, apply flag overrides, and validate."""
    values: dict = {}
    if path is not None:
        try:
            with open(path) as fh:
                lines = fh.readlines()
        except OSError as err:
            raise ConfigError(f"cannot read config file {path}: {err}") from err
        for lineno, raw in enumerate(lines, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
            key, _, val = (part.strip() for part in line.partition("="))
            if key not in _SCHEMA:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                values[key] = _SCHEMA[key](val)
            except ValueError as err:
                raise ConfigError(f"{path}:{lineno}: bad value for {key}: {err}") from err
    for key, val in (overrides or {}).items():
        if val is not None:
            values[key] = val
    if "case" not in values:
        raise ConfigError("no case selected (key 'case' or flag --case)")
    cfg = RunConfig(**values)
    cfg.validate()
    cfg.mg_config()
    return cfg


@dataclass
class SolverBundle:
    cfg: RunConfig
    case: CaseSetup
    dg_op: DGOperator
    transfer: TransferOperators
    fv_ops: list
    mg: MultigridPreconditioner | None
    params: NewtonParams
    U0: np.ndarray

    def op_counts(self) -> tuple[int, int]:
        return self.dg_op.ncalls, sum(op.ncalls for op in self.fv_ops)


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where the platform cannot say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def _base_grid(cfg: RunConfig, case: CaseSetup) -> tuple[int, int]:
    """The base DG dims of the run, once SETUP_FIELDS fields of its DG grid
    and the z-lifting operand are known to fit in the physical memory. A
    level-L grid has at least 4^L cells of at least 4 floats per field, so
    the level is bounded first, in bits, before any 2^level is formed; the
    sizes stay ints, as a grid too large for a float must not overflow."""
    memory = _physical_memory()
    itemsize = np.dtype(float).itemsize
    if memory is not None:
        top = ((memory // (SETUP_FIELDS * 4 * itemsize)).bit_length() - 1) // 2
        if cfg.level > top:
            raise ConfigError(
                f"level must be at most {top}, got {cfg.level}: {SETUP_FIELDS} fields of "
                f"its at least 4^level DG cells exceed the {memory / 2**30:.3g} GiB of "
                f"physical memory"
            )
    scale, k = 2**cfg.level, cfg.k
    if cfg.base_nx is not None:
        nx, nz = cfg.base_nx * scale, cfg.base_nz * scale
    else:
        nx = round(case.domain.width / cfg.dx)
        nz = round(case.domain.height / cfg.dx)
        for n, axis in ((nx, "x"), (nz, "z")):
            if n < scale or n % scale:
                raise ConfigError(
                    f"target dx={cfg.dx} gives {n} DG cells in {axis}, "
                    f"not divisible by 2^level = {scale}"
                )
    field_bytes = nx * nz * (k + 1) ** 2 * 4 * itemsize
    lift_bytes = 32 * (k + 1) ** 3 * itemsize  # DGOperator.lift_z, kron(lift, I_4(k+1))
    if memory is not None and SETUP_FIELDS * field_bytes + lift_bytes > memory:
        gib = [f"{Decimal(n) / 2**30:.3g}" for n in (field_bytes, lift_bytes, memory)]
        raise ConfigError(
            f"the {nx} x {nz} DG grid at k = {k} needs {gib[0]} GiB per field and {gib[1]} GiB "
            f"for the lifting operand; {SETUP_FIELDS} fields and the operand exceed the "
            f"{gib[2]} GiB of physical memory"
        )
    return nx // scale, nz // scale


def build_solver(cfg: RunConfig) -> SolverBundle:
    cfg.validate()
    case = cases.by_name(cfg.case)
    base_nx, base_nz = _base_grid(cfg, case)
    # validate has refused every level, k and base grid build_hierarchy rejects
    hierarchy, subgrid = build_hierarchy(case.domain, base_nx, base_nz, cfg.level, cfg.k)
    basis = DGBasis(cfg.k)
    mg_cfg = cfg.mg_config()
    # the FV levels come first, so that their set-up temporaries are freed
    # before the DG operator makes the work arrays it keeps
    fv_ops: list[FVOperator] = []
    if mg_cfg is not None:
        fv_ops = [FVOperator(hierarchy, l, case) for l in range(hierarchy.n_levels)]
    dg_op = DGOperator(hierarchy, subgrid, basis, case)
    transfer = TransferOperators(basis, subgrid)
    mg = None if mg_cfg is None else MultigridPreconditioner(
        dg_op, fv_ops, transfer, mg_cfg, use_massfix=cfg.transfer == "massfix")
    params = NewtonParams(tol=cfg.newton_tol)
    U0 = build_initial_state(case, dg_op)
    return SolverBundle(cfg, case, dg_op, transfer, fv_ops, mg, params, U0)


def write_snapshot(field: np.ndarray, bundle: SolverBundle, path: str) -> None:
    """Plot-ready perturbations at the FV subcell centers.

    theta_p is the perturbation of the intensive potential temperature,
    (rho theta)_total / rho_total - theta_bar.
    """
    tr = bundle.transfer
    u = tr.dg_to_fv(field)
    hierarchy = bundle.dg_op.hierarchy
    lvl = tr.subgrid.fv_level
    bgc = fv_background(bundle.case, hierarchy, lvl)
    full = u + bgc
    theta_p = full[..., 3] / full[..., 0] - bgc[..., 3] / bgc[..., 0]
    dx, dz = hierarchy.dx[lvl], hierarchy.dz[lvl]
    xc = hierarchy.domain.x_min + dx * (np.arange(hierarchy.nx[lvl]) + 0.5)
    zc = hierarchy.domain.z_min + dz * (np.arange(hierarchy.nz[lvl]) + 0.5)
    columns = dict(zip(SNAPSHOT_HEADER.split(",")[2:], (u[..., 0], u[..., 1], u[..., 2], theta_p)))
    with open(path, "w") as fh:
        _write_csv(fh, xc, zc, columns)
    if bundle.cfg.vtk:
        with open(path[:-4] + ".vtk", "w") as fh:
            _write_vtk(fh, xc, zc, dx, dz, columns)


_SNAPSHOT_ROW = "%.10g,%.10g" + ",%.12e" * (SNAPSHOT_HEADER.count(",") - 1) + "\n"


def _write_csv(fh, xc, zc, columns):
    """The snapshot CSV: a header, then one row per cell, x fastest. Rows
    are formatted one z-row at a time, since a whole field's .tolist()
    would raise the peak memory."""
    fh.write(SNAPSHOT_HEADER + "\n")
    xs = xc.tolist()
    for j, z in enumerate(zc.tolist()):
        values = zip(*(data[j].tolist() for data in columns.values()))
        fh.writelines(_SNAPSHOT_ROW % (x, z, *row) for x, row in zip(xs, values))


def _write_vtk(fh, xc, zc, dx, dz, columns):
    """The same columns as a legacy-VTK structured-points file."""
    nz, nx = len(zc), len(xc)
    fh.write("# vtk DataFile Version 3.0\nperturbation snapshot\nASCII\n")
    fh.write("DATASET STRUCTURED_POINTS\n")
    fh.write(f"DIMENSIONS {nx} {nz} 1\n")
    fh.write(f"ORIGIN {xc[0]:.10g} {zc[0]:.10g} 0\n")
    fh.write(f"SPACING {dx:.10g} {dz:.10g} 1\n")
    fh.write(f"POINT_DATA {nx * nz}\n")
    for name, data in columns.items():
        fh.write(f"SCALARS {name} double\nLOOKUP_TABLE default\n")
        for row in data:
            fh.writelines("%.12e\n" % value for value in row.tolist())


# each stats column's name and its format, for the CSV and the JSONL log;
# the names are the StageStats fields, in order
_STATS_COLUMNS = (("time", "%.6f"), ("stage", "%d"), ("newton_iters", "%d"), ("gmres_iters", "%d"),
                  ("dg_ops", "%d"), ("fv_ops", "%d"), ("residual", "%.12e"))
STATS_HEADER = ",".join(name for name, _ in _STATS_COLUMNS)
_STATS_ROWS = {
    "csv": ",".join(fmt for _, fmt in _STATS_COLUMNS) + "\n",
    "jsonl": "{" + ", ".join(f'"{name}": {fmt}' for name, fmt in _STATS_COLUMNS) + "}\n",
}


def _stats_writer(fh, fmt: str):
    """Start a stats log in fmt on fh; the returned function appends the
    row of one StageStats and flushes it."""
    row = _STATS_ROWS[fmt]
    if fmt == "csv":
        fh.write(STATS_HEADER + "\n")

    def write(st: StageStats) -> None:
        fh.write(row % (st.time, st.stage, st.newton_iters, st.gmres_iters, st.dg_ops,
                        st.fv_ops, st.residual))
        fh.flush()

    return write


def run(cfg: RunConfig) -> int:
    """Integrate the configured case to its final time, writing outputs."""
    bundle = build_solver(cfg)
    t_final = cfg.t_final if cfg.t_final is not None else bundle.case.t_final
    interval = cfg.output_interval if cfg.output_interval is not None else t_final
    U, t = bundle.U0, 0.0
    # validate demands a dt of implicit runs
    dt = cfg.dt if cfg.dt is not None else bundle.dg_op.stable_dt(U, cfg.explicit_cfl)
    if t_final / dt > MAX_STEPS:
        raise ConfigError(
            f"t_final / dt = {t_final / dt:.3g} steps exceeds the limit of {MAX_STEPS:,}"
        )
    os.makedirs(cfg.outdir, exist_ok=True)

    def snapshot():
        write_snapshot(U, bundle, os.path.join(cfg.outdir, _snap_name(t)))

    with open(os.path.join(cfg.outdir, "stats." + cfg.log_format), "w") as fh:
        log = _stats_writer(fh, cfg.log_format)
        snapshot()
        snapped = True
        next_output = interval
        tol = 1e-9 * max(t_final, 1.0)
        try:
            while t < t_final - tol:
                step_dt = min(dt, t_final - t)
                if t + step_dt == t:
                    raise SolverFailure(f"time step {step_dt:.3g} no longer advances t")
                if cfg.integrator == "implicit":
                    U, stages = sdirk2_step(bundle.dg_op, U, t, step_dt, params=bundle.params,
                                            weights=bundle.dg_op.norm_weights, precond=bundle.mg,
                                            op_counts=bundle.op_counts)
                    for st in stages:
                        log(st)
                        if st.gmres_unconverged:
                            print(f"warning at t = {st.time:.6f}, stage {st.stage}: "
                                  f"{st.gmres_unconverged} GMRES solve(s) stopped above their "
                                  "tolerance", file=sys.stderr)
                else:
                    before = bundle.dg_op.ncalls
                    U = ssprk34_step(bundle.dg_op, U, t, step_dt)
                    log(StageStats(t + step_dt, dg_ops=bundle.dg_op.ncalls - before))
                t += step_dt
                snapped = t >= next_output - tol
                if snapped:
                    snapshot()
                    # the first output time past t, in one update however
                    # many intervals the step spanned
                    next_output = ((t + tol) // interval + 1.0) * interval
        except (SolverFailure, InadmissibleStateError) as err:
            print(f"solver failure at t = {t:.6f}: {err}", file=sys.stderr)
            return 3
        if not snapped:
            snapshot()
    return 0


def _snap_name(t: float) -> str:
    return f"snapshot_t{t:012.4f}.csv"


def _arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="solver",
        description="2D compressible-flow DG solver with multigrid-preconditioned implicit stepping",
    )
    ap.add_argument("--config", help="key = value configuration file")
    for f in fields(RunConfig):
        flag = "--" + f.name.replace("_", "-")
        if f.type == "bool":
            ap.add_argument(flag, action="store_const", const=True, default=None)
        else:
            ap.add_argument(flag, type=_SCHEMA[f.name], choices=f.metadata.get("choices"),
                            help=f.metadata.get("help"))
    return ap


def main(argv=None) -> int:
    args = vars(_arg_parser().parse_args(argv))
    config_path = args.pop("config")
    try:
        return run(parse_config(config_path, overrides=args))
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
