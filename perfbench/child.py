"""One workload in one process: repeated `dgmg.cli.run` calls, timed.

Started by run.py with the checkout's `src/` on PYTHONPATH and BLAS pinned
to one thread. The only wrappers of an untraced run sit around
`cli.build_solver` (timing, and scaling the initial anomaly by the seed's
amplitude factor), the step functions `cli` calls (wall time per step,
simulated time) and `timeint.gmres_solve` (unconverged solves). The
host-speed calibration bursts of calibrate.py run between steps and, on
implicit workloads, before the Jacobian-vector products GMRES makes; the
time of the bursts inside a step is taken out of its step time. A traced
run makes a warm-up and an untraced repetition, adds the per-module hooks
of tracing.py and makes one traced repetition.

Every repetition's outputs are checked: exit code 0, a finite final
snapshot that agrees with the stored reference, and, for the explicit
workload, conservation of the DG mass of rho'. The result goes to
<out>/result.json; each repetition's stats.csv is kept as
<out>/stats-<repetition>.csv.
"""

from __future__ import annotations

import argparse
import dataclasses
import glob
import json
import os
import resource
import shutil
import sys
import time
import traceback

import numpy as np

import calibrate
import tracing
from workloads import DEFAULT_SEED, MASS_TOL, REFERENCE_BLOCK, WORKLOADS, amplitude_factor

from dgmg import cli, timeint

SNAPSHOT_HEADER = "x,z,rho_p,rhou_p,rhow_p,theta_p"
# Extra cli.build_solver calls before each repetition and after the last
# one, so that the set-up samples are spread over the whole run.
SETUP_PER_REP = 5


class Probe:
    """The end-to-end wrappers and what they record."""

    def __init__(self, factor: float):
        self.factor = factor
        self.cal = calibrate.Calibrator()
        self.setup_s: list[tuple[float, float]] = []
        self.missing: list[str] = []
        self.begin_rep()
        tracing.replace_function(cli, "build_solver", lambda fn: self._build(fn))
        stepped = [n for n in ("sdirk2_step", "ssprk34_step") if hasattr(cli, n)]
        if not stepped:
            raise SystemExit("dgmg.cli has neither sdirk2_step nor ssprk34_step")
        for name in stepped:
            tracing.replace_function(cli, name, lambda fn: self._step(fn))
        if hasattr(timeint, "gmres_solve"):
            tracing.replace_function(timeint, "gmres_solve", lambda fn: self._gmres(fn))
        else:
            self.missing.append("unconverged-solve count (dgmg.timeint.gmres_solve)")

    def begin_rep(self):
        self.build_end = None
        self.cal_at_build_end = 0.0
        self.bundle = None
        # (seconds less bursts, failed, wall start, wall end) of each step
        self.steps: list[tuple[float, bool, float, float]] = []
        self.sim_s = 0.0
        self.last_U = None
        self.unconverged = 0
        self._step_unconverged = 0

    def _build(self, fn):
        clock = time.perf_counter

        def build_solver(*args, **kwargs):
            t0 = clock()
            bundle = fn(*args, **kwargs)
            t1 = clock()
            self.setup_s.append((t1 - t0, t0))
            bundle.U0 = bundle.U0 * self.factor
            self.bundle = bundle
            self.cal_at_build_end = self.cal.total_s
            self.build_end = clock()
            return bundle

        return build_solver

    def _step(self, fn):
        clock = time.perf_counter

        def step(*args, **kwargs):
            cal = self.cal
            cal.due()
            self._step_unconverged = 0
            t0 = clock()
            cal0 = cal.total_s
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                t1 = clock()
                self.steps.append((t1 - t0 - (cal.total_s - cal0), True, t0, t1))
                raise
            t1 = clock()
            # less the bursts run inside the step (see _gmres)
            self.steps.append((t1 - t0 - (cal.total_s - cal0), self._step_unconverged > 0,
                               t0, t1))
            cal.due()
            self.sim_s += args[3] if len(args) > 3 else kwargs["dt"]
            self.last_U = out[0] if isinstance(out, tuple) else out
            return out

        return step

    def _gmres(self, fn):
        due = self.cal.due

        def gmres_solve(matvec, *args, **kwargs):
            # Bursts before Jacobian-vector products sample the host speed
            # inside long implicit steps.
            def calibrated_matvec(y):
                due()
                return matvec(y)

            x, info = fn(calibrated_matvec, *args, **kwargs)
            if not info.converged:
                self._step_unconverged += 1
                self.unconverged += 1
            return x, info

        return gmres_solve


def snapshot_summary(path: str, block: int) -> dict:
    """Block means and full-resolution RMS of the four snapshot fields."""
    with open(path) as fh:
        header = fh.readline().strip()
    if header != SNAPSHOT_HEADER:
        raise ValueError(f"unexpected snapshot header {header!r}")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    nx = len(np.unique(data[:, 0]))
    nz = data.shape[0] // nx
    fields = data[:, 2:6].reshape(nz, nx, 4)
    finite = bool(np.isfinite(fields).all())
    blocks = fields.reshape(nz // block, block, nx // block, block, 4).mean(axis=(1, 3))
    return {
        "file": os.path.basename(path),
        "shape": [nz, nx],
        "finite": finite,
        "block": block,
        "rms": np.sqrt(np.mean(fields * fields, axis=(0, 1))).tolist(),
        "block_means": blocks.tolist(),
    }


def compare(summary: dict, ref: dict, scale: float, tol: float) -> tuple[float, str | None]:
    """Largest relative deviation from the scaled reference, and a failure
    message or None."""
    if summary["shape"] != ref["shape"] or summary["block"] != ref["block"]:
        return float("inf"), f"snapshot shape {summary['shape']} != reference {ref['shape']}"
    if summary["file"] != ref["file"]:
        return float("inf"), f"final snapshot {summary['file']} != reference {ref['file']}"
    got_b, want_b = np.array(summary["block_means"]), scale * np.array(ref["block_means"])
    got_r, want_r = np.array(summary["rms"]), scale * np.array(ref["rms"])
    errs = []
    for c in range(4):
        nb = np.linalg.norm(want_b[..., c])
        errs.append(np.linalg.norm(got_b[..., c] - want_b[..., c]) / nb if nb
                    else np.linalg.norm(got_b[..., c]))
        errs.append(abs(got_r[c] - want_r[c]) / want_r[c] if want_r[c] else abs(got_r[c]))
    worst = float(np.max(np.nan_to_num(errs, nan=np.inf)))
    if not worst <= tol:
        return worst, f"final snapshot deviates from the reference by {worst:.3e} > {tol:.1e}"
    return worst, None


def dg_mass(U: np.ndarray) -> tuple[float, float]:
    """Sum of rho' and of |rho'| under the Gauss-Legendre mass weights.

    Cells are uniform, so the cell area is a common factor and dropped.
    """
    _, w = np.polynomial.legendre.leggauss(U.shape[2])
    w2 = np.outer(w, w)
    rho = U[..., 0]
    return float(np.einsum("ab,zxab->", w2, rho)), float(np.einsum("ab,zxab->", w2, np.abs(rho)))


def final_snapshot(outdir: str) -> str | None:
    snaps = sorted(glob.glob(os.path.join(outdir, "snapshot_t*.csv")))
    return snaps[-1] if snaps else None


def run_rep(probe: Probe, cfg, outdir: str, run=None) -> dict:
    """One cli.run call; returns its timings and a list of check failures.

    The loop time runs from the return of cli.build_solver to the return
    of cli.run, less the calibration bursts run in between.
    """
    probe.begin_rep()
    cfg = dataclasses.replace(cfg, outdir=outdir)
    problems = []
    t0 = time.perf_counter()
    try:
        rc = (run or cli.run)(cfg)
    except Exception:
        rc = None
        problems.append("cli.run raised:\n" + traceback.format_exc())
    t1 = time.perf_counter()
    if rc not in (0, None):
        problems.append(f"cli.run exited with code {rc}")
    loop_s = None
    if probe.build_end is not None:
        loop_s = t1 - probe.build_end - (probe.cal.total_s - probe.cal_at_build_end)
    return {
        "rc": rc,
        "wall_s": t1 - t0,
        "loop_s": loop_s,
        "loop_t0": probe.build_end,
        "loop_t1": t1,
        "sim_s": probe.sim_s,
        "steps": list(probe.steps),
        "unconverged": probe.unconverged,
        "problems": problems,
    }


def check_outputs(rep: dict, probe: Probe, workload, outdir: str, reference: dict | None):
    """Append output-check failures to rep['problems']."""
    snap = final_snapshot(outdir)
    if snap is None:
        rep["problems"].append("no snapshot written")
        return
    try:
        summary = snapshot_summary(snap, REFERENCE_BLOCK)
    except ValueError as err:
        rep["problems"].append(f"unreadable snapshot {os.path.basename(snap)}: {err}")
        return
    rep["snapshot"] = summary["file"]
    if not summary["finite"]:
        rep["problems"].append(f"non-finite values in {summary['file']}")
    if reference is None:
        rep["problems"].append(f"no stored reference for {workload.name}")
    else:
        scale = probe.factor / reference["amplitude"]
        rep["reference_deviation"], msg = compare(summary, reference, scale, workload.reference_tol)
        if msg:
            rep["problems"].append(msg)
    if not workload.implicit:
        m0, scale = dg_mass(probe.bundle.U0)
        m1, _ = dg_mass(probe.last_U)
        drift = abs(m1 - m0) / scale
        rep["mass_drift"] = drift
        if not drift <= MASS_TOL:
            rep["problems"].append(f"DG mass of rho' drifted by {drift:.3e} > {MASS_TOL:.0e}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--reference", required=True, help="stored reference file")
    ap.add_argument("--write-reference", action="store_true",
                    help="make one repetition and store its final snapshot as the reference")
    args = ap.parse_args(argv)
    if args.write_reference and args.seed != DEFAULT_SEED:
        ap.error(f"references are made at the default seed {DEFAULT_SEED}")

    workload = WORKLOADS[args.workload]
    factor = amplitude_factor(args.seed)
    probe = Probe(factor)
    cfg = cli.RunConfig(**workload.config, outdir=os.path.join(args.out, "rep"))
    cfg.validate()
    reference = None
    if os.path.exists(args.reference):
        with open(args.reference) as fh:
            reference = json.load(fh)

    def build_samples():
        for _ in range(SETUP_PER_REP):
            probe.cal.due()
            cli.build_solver(cfg)
        probe.cal.due()

    def one_rep(label: str, run=None) -> dict:
        outdir = os.path.join(args.out, label)
        rep = run_rep(probe, cfg, outdir, run)
        if args.write_reference:
            write_reference(args.reference, outdir, factor, rep)
        elif rep["rc"] == 0:
            check_outputs(rep, probe, workload, outdir, reference)
        stats = os.path.join(outdir, "stats.csv")
        if os.path.exists(stats):
            shutil.copyfile(stats, os.path.join(args.out, f"stats-{label}.csv"))
        shutil.rmtree(outdir)
        return rep

    result = {
        "workload": workload.name,
        "seed": args.seed,
        "amplitude": factor,
        "config": dataclasses.asdict(cfg) | {"outdir": None},
        "missing": list(probe.missing),
    }
    reps = []
    start = time.perf_counter()
    if args.trace:
        # After a warm-up run, one untraced and one traced run in this
        # process: the pair gives the tracing overhead and the stats.csv
        # transparency check.
        build_samples()
        reps.append(one_rep("warmup"))
        reps.append(one_rep("untraced"))
        tracer = tracing.Tracer()
        result["missing"] += tracing.install(tracer)
        # bursts are spans of their own, so no layer's self time holds them
        probe.cal.burst = tracer.wrap("calibrate.burst", probe.cal.burst)
        reps.append(one_rep("traced", tracer.wrap("cli.run", cli.run)) | {"traced": True})
        layers = tracing.layer_metrics(tracer)
        layers["timeint.gmres.unconverged"] = reps[-1]["unconverged"]
        host = calibrate.HostSpeed(probe.cal.starts, probe.cal.durations)
        plain, traced = (
            r["sim_s"] / host.adjust(r["loop_t0"], r["loop_t1"]) if r["loop_s"] else 0.0
            for r in reps[-2:])
        layers["trace.overhead_share"] = plain / traced - 1.0 if plain and traced else 0.0
        result["layers"] = {k: layers[k] for k in tracing.LAYER_UNITS}
        tracer.write(os.path.join(args.out, "spans.csv"))
    else:
        while True:
            build_samples()
            reps.append(one_rep(f"rep{len(reps)}"))
            elapsed = time.perf_counter() - start
            if args.write_reference or elapsed + max(r["wall_s"] for r in reps) > args.seconds:
                break
        build_samples()

    result["setup_s"] = probe.setup_s
    result["calibration"] = {"starts": probe.cal.starts, "durations": probe.cal.durations}
    result["reps"] = reps
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(os.path.join(args.out, "result.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    return 0


def write_reference(path: str, outdir: str, factor: float, rep: dict) -> None:
    if rep["rc"] != 0:
        raise SystemExit(f"cannot store a reference from a failed run: {rep['problems']}")
    summary = snapshot_summary(final_snapshot(outdir), REFERENCE_BLOCK)
    if not summary["finite"]:
        raise SystemExit("cannot store a reference with non-finite values")
    summary["amplitude"] = factor
    with open(path, "w") as fh:
        json.dump(summary, fh)
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(main())
