"""dgmg benchmark: simulated time per wall second on four reference runs.

    python3 perfbench/run.py --workload bubble-mg --seed 3 --seconds 30 --trace 0

Runs from the root of a checkout. Each workload runs in a fresh
single-process child (child.py) that imports the checkout's own `src/`,
with BLAS pinned to one thread. `--trace 0` repeats the workload for
`--seconds` and prints the end-to-end metrics, with every time scaled to
a reference host speed (calibrate.py). `--trace 1` makes a warm-up,
an untraced and a traced run and prints the per-layer metrics, after
checking that both runs wrote byte-identical stats.csv files.
`--workload all` runs every workload in turn. `--write-reference` stores
the final snapshot of one default-seed repetition as the workload's
reference. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; attempted and failed count
time steps. README.md lists the workloads and defines every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from calibrate import CAL_REF_S, HostSpeed  # noqa: E402
from tracing import LAYER_UNITS  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, amplitude_factor  # noqa: E402

WORK_DIR = os.path.join(ROOT, ".perfbench")
# Wall-time budget of one invocation (one workload), under the 180 s limit.
DEADLINE_S = 170.0
BLAS_PIN = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
}
END_TO_END_UNITS = {
    "sim_s_per_wall_s": "s/s",
    "step_s_p50": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


def git_revision() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """SHA-256 over src/ (names and contents), for checkouts without git."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": BLAS_PIN,
        "git_revision": git_revision(),
        "src_sha256": source_digest(),
        "machine": platform.machine(),
    }


def run_child(workload: str, seed: int, seconds: float, trace: int, out: str,
              deadline: float, write_reference: bool = False) -> dict:
    """Run child.py once and return its result.json."""
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    env = dict(os.environ, **BLAS_PIN)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace),
           "--out", out,
           "--reference", os.path.join(HERE, "reference", workload + ".json")]
    if write_reference:
        cmd.append("--write-reference")
    timeout = deadline - time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{workload}: child did not finish within the {DEADLINE_S:.0f} s budget")
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: child exited with code {proc.returncode}")
    with open(os.path.join(out, "result.json")) as fh:
        return json.load(fh)


def tail_percentile(n: int) -> int | None:
    """Highest whole percentile with at least ten of n samples beyond it."""
    p = int(100 * (1 - 10 / n)) if n > 10 else 0
    return p if p > 50 else None


def summarize(result: dict) -> dict:
    """End-to-end metrics and step accounting of one child's runs.

    Every run counts toward attempted and failed steps; timings come from
    the untraced runs only. Each timing is scaled to the reference host
    speed by the calibration bursts around it (calibrate.py); the raw wall
    figures go to "extra".
    """
    cal = result["calibration"]
    adj = HostSpeed(cal["starts"], cal["durations"]).adjust

    attempted = failed = 0
    steps, raw_steps, rates, raw_rates, problems = [], [], [], [], []
    for rep in result["reps"]:
        rep_steps = rep["steps"] or [[0.0, True, 0.0, 0.0]]  # a run that died before stepping
        attempted += len(rep_steps)
        if rep["problems"]:
            failed += len(rep_steps)
            problems += rep["problems"]
        else:
            failed += sum(1 for step in rep_steps if step[1])
        if rep.get("traced"):
            continue
        for dt, _, t0, t1 in rep["steps"]:
            raw_steps.append(dt)
            steps.append(adj(t0, t1))
        if rep["loop_s"] and rep["sim_s"] > 0:
            raw_rates.append(rep["sim_s"] / rep["loop_s"])
            rates.append(rep["sim_s"] / adj(rep["loop_t0"], rep["loop_t1"]))
    if not rates or not steps:
        raise SystemExit(f"{result['workload']}: no run completed a step: {problems}")
    setups = [adj(t0, t0 + dt) for dt, t0 in result["setup_s"]]
    extra = {
        "runs": len(rates),
        "steps": len(steps),
        "setup_samples": len(setups),
        "bursts": len(cal["durations"]),
        "burst_ms_p50": 1e3 * statistics.median(cal["durations"]),
        "wall_sim_s_per_wall_s": statistics.median(raw_rates),
        "wall_step_s_p50": statistics.median(raw_steps),
        "wall_setup_s": statistics.median(dt for dt, _ in result["setup_s"]),
    }
    tail = tail_percentile(len(steps))
    if tail is not None:
        extra[f"step_s_p{tail}"] = statistics.quantiles(steps, n=100, method="inclusive")[tail - 1]
    return {
        "metrics": {
            "sim_s_per_wall_s": statistics.median(rates),
            "step_s_p50": statistics.median(steps),
            "setup_s": statistics.median(setups),
            "peak_rss_mib": result["peak_rss_mib"],
        },
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "extra": extra,
    }


def bench_workload(name: str, seed: int, seconds: float, trace: int, deadline: float,
                   env: dict) -> dict:
    base = os.path.join(WORK_DIR, f"{name}-seed{seed}-trace{trace}")
    result = run_child(name, seed, seconds, trace, base, deadline)
    out = {"workload": name, "env": env, "result": result, **summarize(result),
           "layers": result.get("layers"), "missing": result["missing"]}
    if trace:
        with open(os.path.join(base, "stats-untraced.csv"), "rb") as fh:
            plain = fh.read()
        with open(os.path.join(base, "stats-traced.csv"), "rb") as fh:
            traced = fh.read()
        out["transparent"] = plain == traced
        if not out["transparent"]:
            out["problems"].append("traced and untraced runs wrote different stats.csv files")
        out["spans"] = os.path.relpath(os.path.join(base, "spans.csv"), ROOT)
    with open(os.path.join(base, "summary.json"), "w") as fh:
        json.dump(out, fh, indent=1)
    return out


def report(out: dict, seed: int) -> None:
    r = out["result"]
    print(f"== {out['workload']}  seed {seed}  amplitude x{r['amplitude']:.6f}  "
          f"{out['extra']['runs']} runs, {out['extra']['steps']} steps")
    print("   config " + json.dumps({k: v for k, v in r["config"].items() if v is not None}))
    m = out["metrics"]
    x = out["extra"]
    print(f"   timings at reference host speed: {x['bursts']} calibration bursts, "
          f"median {x['burst_ms_p50']:.4g} ms against {1e3 * CAL_REF_S:.4g} ms; "
          f"raw wall figures in brackets")
    print(f"   sim_s_per_wall_s   {m['sim_s_per_wall_s']:.6g} s/s  "
          f"(median of {x['runs']} runs)  [{x['wall_sim_s_per_wall_s']:.6g}]")
    print(f"   step_s_p50         {m['step_s_p50']:.6g} s  (n = {x['steps']} steps)  "
          f"[{x['wall_step_s_p50']:.6g}]")
    for key, val in x.items():
        if key.startswith("step_s_p"):
            print(f"   {key:<18} {val:.6g} s  (n = {x['steps']} steps)")
    print(f"   setup_s            {m['setup_s']:.6g} s  "
          f"(median of {x['setup_samples']} builds)  [{x['wall_setup_s']:.6g}]")
    print(f"   peak_rss_mib       {m['peak_rss_mib']:.6g} MiB")
    share = out["failed"] / out["attempted"]
    print(f"   failed_step_share  {share:.6g} share  ({out['failed']}/{out['attempted']} steps)")
    devs = [rep.get("reference_deviation") for rep in r["reps"]]
    devs = [d for d in devs if d is not None]
    if devs:
        print(f"   output check: max deviation from reference {max(devs):.3e}")
    drifts = [rep["mass_drift"] for rep in r["reps"] if "mass_drift" in rep]
    if drifts:
        print(f"   output check: max relative drift of DG rho' mass {max(drifts):.3e}")
    if "transparent" in out:
        print(f"   transparency: stats.csv traced == untraced: {out['transparent']}")
    for name in out["missing"]:
        print(f"   missing hook: {name}")
    if out["layers"] is not None:
        print(f"   spans: {out['spans']}")
        for key, val in out["layers"].items():
            print(f"   {key:<34} {val:.6g} {LAYER_UNITS[key]}")
    for p in out["problems"]:
        print(f"   FAILED CHECK: {p}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="store the default-seed final snapshot of each selected workload")
    args = ap.parse_args(argv)
    if not os.path.exists(os.path.join(ROOT, "src", "dgmg", "cli.py")):
        print(f"no dgmg sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]

    if args.write_reference:
        os.makedirs(os.path.join(HERE, "reference"), exist_ok=True)
        for name in names:
            run_child(name, DEFAULT_SEED, 0.0, 0, os.path.join(WORK_DIR, f"{name}-reference"),
                      time.monotonic() + DEADLINE_S, write_reference=True)
            print(f"stored reference for {name} (amplitude x{amplitude_factor(DEFAULT_SEED)})")
        return 0

    env = environment()
    print("env " + json.dumps(env))
    results = []
    for name in names:
        if len(names) > 1:
            deadline = time.monotonic() + DEADLINE_S
        results.append(bench_workload(name, args.seed, args.seconds, args.trace, deadline, env))
        report(results[-1], args.seed)

    def metrics_of(out):
        if args.trace:
            return {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in out["layers"].items()}
        return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in out["metrics"].items()}

    if len(results) == 1:
        metrics = metrics_of(results[0])
    else:
        metrics = {f"{out['workload']}.{k}": v
                   for out in results for k, v in metrics_of(out).items()}
    print(json.dumps({
        "correct": all(not out["problems"] for out in results),
        "attempted": sum(out["attempted"] for out in results),
        "failed": sum(out["failed"] for out in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
