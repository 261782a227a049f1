"""Outside-in span recorder for the traced run.

The traced run wraps the public callables of each dgmg module from here,
without editing the package: every call records a span (name, start, end,
parent span, size) in memory, and `layer_metrics` turns the spans into
the per-layer metrics once the run is over. A layer's self time is its
span durations minus the durations of its direct child spans.

A hook whose target no longer resolves (a later refactor renamed or
deleted it) is reported by name as missing; its metrics read 0 and every
other hook still runs.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np


class Tracer:
    """Spans kept in parallel lists; index -1 as parent means top level."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.sizes: list[float] = []
        self._open = [-1]

    def wrap(self, name: str, fn, size=None, result=None):
        """Return fn recording one span per call.

        size(args, kwargs, out) gives the span's size (faces, level,
        iterations, bytes); result(out) may replace the return value.
        """
        names, parents, starts, ends, sizes = (
            self.names, self.parents, self.starts, self.ends, self.sizes)
        stack = self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            sizes.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if size is not None:
                sizes[idx] = size(args, kwargs, out)
            return out if result is None else result(out)

        return functools.update_wrapper(traced, fn)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("id,name,start,end,parent,size\n")
            for i, (n, s, e, p, z) in enumerate(
                zip(self.names, self.starts, self.ends, self.parents, self.sizes)
            ):
                fh.write(f"{i},{n},{s!r},{e!r},{p},{z}\n")


def _faces(args, kwargs, out) -> int:
    # hllc_flux_axis(UL, UR, ...) and wall_flux_axis(U, ...): one flux per
    # leading index, the last axis holds the four components
    return math.prod(np.shape(out)[:-1])


def _level(args, kwargs, out) -> int:
    return args[0].level


def _newton_iters(args, kwargs, out) -> int:
    return out.iterations


def _gmres_iters(args, kwargs, out) -> int:
    return out[1].iterations


def _file_bytes(args, kwargs, out) -> int:
    path = args[2] if len(args) > 2 else kwargs["path"]
    return os.path.getsize(path)


@dataclass(frozen=True)
class Hook:
    name: str
    module: str
    target: str  # "function" or "Class.method"
    size: Callable | None = None
    wraps_result: str | None = None  # span name for a returned callable


HOOKS = (
    Hook("cli.setup", "dgmg.cli", "build_solver"),
    Hook("cli.step", "dgmg.cli", "sdirk2_step"),
    Hook("cli.step", "dgmg.cli", "ssprk34_step"),
    Hook("cli.snapshot", "dgmg.cli", "write_snapshot", size=_file_bytes),
    Hook("physics.hllc", "dgmg.physics", "hllc_flux_axis", size=_faces),
    Hook("physics.wall", "dgmg.physics", "wall_flux_axis", size=_faces),
    Hook("dg.op", "dgmg.dg", "DGOperator.__call__"),
    Hook("fv.op", "dgmg.fv", "FVOperator.__call__", size=_level),
    Hook("fv.linearization", "dgmg.fv", "FVLinearization.matvec"),
    Hook("transfer.dg_to_fv", "dgmg.transfer", "TransferOperators.dg_to_fv"),
    Hook("transfer.dg_to_fv_massfix", "dgmg.transfer", "TransferOperators.dg_to_fv_massfix"),
    Hook("transfer.fv_to_dg", "dgmg.transfer", "TransferOperators.fv_to_dg"),
    Hook("mgprecond.factory", "dgmg.mgprecond", "MultigridPreconditioner.factory",
         wraps_result="mgprecond.apply"),
    Hook("mgprecond.cycle", "dgmg.mgprecond", "mg_cycle"),
    Hook("mgprecond.smooth", "dgmg.mgprecond", "smooth"),
    Hook("mgprecond.restrict", "dgmg.mgprecond", "restrict"),
    Hook("mgprecond.prolong", "dgmg.mgprecond", "prolong"),
    Hook("timeint.newton", "dgmg.timeint", "newton_solve", size=_newton_iters),
    Hook("timeint.gmres", "dgmg.timeint", "gmres_solve", size=_gmres_iters),
    Hook("timeint.fd_matvec", "dgmg.timeint", "FDLinearization.matvec"),
)


def replace_function(module, attr: str, make_wrapper) -> None:
    """Rebind a module-level function everywhere dgmg holds it.

    Modules that imported the function by name (`from .timeint import
    sdirk2_step`) hold their own reference, so every loaded dgmg module
    binding the same object is rebound to the one wrapper.
    """
    orig = getattr(module, attr)
    wrapper = make_wrapper(orig)
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "dgmg" or name.startswith("dgmg.")):
            continue
        for key, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, key, wrapper)


def install(tracer: Tracer, hooks=HOOKS) -> list[str]:
    """Wrap every hook target; return the hooks that did not resolve."""
    missing = []
    for hook in hooks:
        owner_name, _, attr = hook.target.rpartition(".")
        try:
            module = importlib.import_module(hook.module)
            owner = getattr(module, owner_name) if owner_name else module
            target = getattr(owner, attr)
        except (ImportError, AttributeError):
            target = None
        if not callable(target):
            missing.append(f"{hook.name} ({hook.module}.{hook.target})")
            continue
        result = None
        if hook.wraps_result is not None:
            result = functools.partial(tracer.wrap, hook.wraps_result)

        def make(fn, hook=hook, result=result):
            return tracer.wrap(hook.name, fn, size=hook.size, result=result)

        if owner_name:
            setattr(owner, attr, make(target))
        else:
            replace_function(owner, attr, make)
    return missing


# Per-layer metrics: name -> unit. Every traced run reports all of them; a
# layer the workload bypasses (or a missing hook) reports 0.
FV_LEVELS = 5
LAYER_UNITS = {
    "physics.hllc.calls": "count",
    "physics.hllc.faces": "count",
    "physics.hllc.self_s": "s",
    "physics.hllc.fixed_us": "us",
    "physics.hllc.ns_per_face": "ns",
    "physics.wall.calls": "count",
    "physics.wall.self_s": "s",
    "dg.op.calls": "count",
    "dg.op.self_s": "s",
    "dg.op.ms_per_call": "ms",
    "fv.op.calls": "count",
    "fv.op.self_s": "s",
    **{f"fv.op.l{l}.ms_per_call": "ms" for l in range(FV_LEVELS)},
    "fv.linearization.calls": "count",
    "fv.linearization.self_s": "s",
    "transfer.dg_to_fv.calls": "count",
    "transfer.dg_to_fv.self_s": "s",
    "transfer.dg_to_fv_massfix.calls": "count",
    "transfer.dg_to_fv_massfix.self_s": "s",
    "transfer.fv_to_dg.calls": "count",
    "transfer.fv_to_dg.self_s": "s",
    "mgprecond.factory.calls": "count",
    "mgprecond.factory.self_s": "s",
    "mgprecond.apply.calls": "count",
    "mgprecond.apply.self_s": "s",
    "mgprecond.smooth.calls": "count",
    "mgprecond.smooth.self_s": "s",
    "mgprecond.restrict.self_s": "s",
    "mgprecond.prolong.self_s": "s",
    "mgprecond.fv_ops_per_apply": "calls/apply",
    "timeint.newton.calls": "count",
    "timeint.newton.iters": "count",
    "timeint.gmres.solves": "count",
    "timeint.gmres.iters": "count",
    "timeint.gmres.unconverged": "count",
    "timeint.gmres.self_s": "s",
    "timeint.fd_matvec.calls": "count",
    "timeint.fd_matvec.self_s": "s",
    "cli.snapshot.calls": "count",
    "cli.snapshot.self_s": "s",
    "cli.snapshot.bytes": "B",
    "trace.overhead_share": "share",
}


def fit_fixed_and_slope(sizes: np.ndarray, durations: np.ndarray) -> tuple[float, float]:
    """Intercept and slope of duration against size.

    Each distinct size enters once with the median of its durations, so a
    preempted call does not tilt the line. The fit minimizes relative
    residuals: the per-size cost grows faster than linearly once arrays
    leave the cache, and an absolute fit lets the few largest calls drive
    the intercept negative. Returns (0, 0) when the sizes do not span a
    factor of 4, where intercept and slope cannot be told apart (the
    explicit bubble run calls HLLC on two nearly equal sizes only).
    """
    uniq, inverse = np.unique(sizes, return_inverse=True)
    if len(uniq) < 2 or uniq[-1] < 4 * max(uniq[0], 1):
        return 0.0, 0.0
    med = np.array([np.median(durations[inverse == i]) for i in range(len(uniq))])
    slope, intercept = np.polyfit(uniq.astype(float), med, 1, w=1.0 / np.maximum(med, 1e-12))
    return float(intercept), float(slope)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer counts, self times and derived rates from the spans
    (trace.overhead_share is filled in by the caller)."""
    n = len(tracer.names)
    names = np.array(tracer.names, dtype=object)
    parents = np.array(tracer.parents, dtype=np.int64)
    dur = np.array(tracer.ends) - np.array(tracer.starts)
    sizes = np.array(tracer.sizes, dtype=float)
    child = np.zeros(n)
    has_parent = parents >= 0
    np.add.at(child, parents[has_parent], dur[has_parent])
    self_t = dur - child

    def sel(name):
        return names == name

    def calls(name):
        return int(np.count_nonzero(sel(name)))

    def self_s(name):
        return float(self_t[sel(name)].sum())

    def ms_per_call(mask):
        k = np.count_nonzero(mask)
        return float(dur[mask].sum() / k * 1e3) if k else 0.0

    # fv.op spans nested anywhere under a preconditioner application
    in_apply = np.zeros(n, dtype=bool)
    for i in range(n):
        p = parents[i]
        if p >= 0:
            in_apply[i] = in_apply[p] or names[p] == "mgprecond.apply"
    hllc = sel("physics.hllc")
    fixed_s, per_face_s = fit_fixed_and_slope(sizes[hllc], self_t[hllc])
    fv = sel("fv.op")
    applies = calls("mgprecond.apply")
    gmres = sel("timeint.gmres")

    m = {
        "physics.hllc.calls": calls("physics.hllc"),
        "physics.hllc.faces": int(sizes[hllc].sum()),
        "physics.hllc.self_s": self_s("physics.hllc"),
        "physics.hllc.fixed_us": fixed_s * 1e6,
        "physics.hllc.ns_per_face": per_face_s * 1e9,
        "physics.wall.calls": calls("physics.wall"),
        "physics.wall.self_s": self_s("physics.wall"),
        "dg.op.calls": calls("dg.op"),
        "dg.op.self_s": self_s("dg.op"),
        "dg.op.ms_per_call": ms_per_call(sel("dg.op")),
        "fv.op.calls": calls("fv.op"),
        "fv.op.self_s": self_s("fv.op"),
    }
    for l in range(FV_LEVELS):
        m[f"fv.op.l{l}.ms_per_call"] = ms_per_call(fv & (sizes == l))
    for name in ("fv.linearization", "transfer.dg_to_fv", "transfer.dg_to_fv_massfix",
                 "transfer.fv_to_dg", "mgprecond.factory", "mgprecond.apply",
                 "mgprecond.smooth"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
    m["mgprecond.restrict.self_s"] = self_s("mgprecond.restrict")
    m["mgprecond.prolong.self_s"] = self_s("mgprecond.prolong")
    m["mgprecond.fv_ops_per_apply"] = (
        float(np.count_nonzero(fv & in_apply)) / applies if applies else 0.0)
    m["timeint.newton.calls"] = calls("timeint.newton")
    m["timeint.newton.iters"] = int(sizes[sel("timeint.newton")].sum())
    m["timeint.gmres.solves"] = calls("timeint.gmres")
    m["timeint.gmres.iters"] = int(sizes[gmres].sum())
    m["timeint.gmres.self_s"] = self_s("timeint.gmres")
    m["timeint.fd_matvec.calls"] = calls("timeint.fd_matvec")
    m["timeint.fd_matvec.self_s"] = self_s("timeint.fd_matvec")
    m["cli.snapshot.calls"] = calls("cli.snapshot")
    m["cli.snapshot.self_s"] = self_s("cli.snapshot")
    m["cli.snapshot.bytes"] = int(sizes[sel("cli.snapshot")].sum())
    return m
