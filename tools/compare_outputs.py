"""Check that the working tree's src/ writes the same output files as REV's.

Usage: python tools/compare_outputs.py [REV]    (REV defaults to HEAD)

The src/ tree of REV is extracted with `git archive REV src | tar -x` into
a temporary directory. Each configuration of perfbench/workloads.py is run
through dgmg.cli.run twice, once with that tree and once with the working
tree's src/. Each run is a fresh child process with PYTHONPATH=<tree>/src,
BLAS pinned to one thread and PYTHONDONTWRITEBYTECODE=1. A run's stderr,
where the unconverged GMRES solves are reported, is written to stderr.txt
in its output directory. The two output directories (stats.csv, every
snapshot and stderr.txt) are compared byte for byte. The files that differ
are listed, and the exit code is 1 if any do. When a stats.csv differs,
the line under it says whether its newton_iters, gmres_iters and dg_ops
columns are equal in both runs, and gives the largest relative L2
difference over the fields of the final snapshots, ||a - b|| / ||a|| with
a the REV run's field: a change that moves outputs only within the Newton
tolerance keeps the counts and shows a difference of that order. The line totals of
src/dgmg/*.py in both trees are printed too, the count a design change
reports next to its byte-identity check, followed by the line counts of
each module that differs between the trees (such as `mgprecond.py: 353 ->
340`; a module missing from one tree counts 0 lines there), which show
where the lines went. perfbench/ is only read.
"""

from __future__ import annotations

import csv
import filecmp
import glob
import importlib.util
import json
import os
import subprocess
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BLAS_PIN = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
}
# stats.csv columns that count work, equal in two runs that did the same
STATS_COUNTS = ("newton_iters", "gmres_iters", "dg_ops")
# One cli.run of a workload config; refuses a dgmg imported from elsewhere.
CHILD = """
import json, os, sys
from dgmg import cli
src, config, outdir = sys.argv[1:]
if os.path.realpath(cli.__file__) != os.path.realpath(os.path.join(src, "dgmg", "cli.py")):
    sys.exit(f"dgmg was imported from {cli.__file__}, not from {src}")
sys.exit(cli.run(cli.RunConfig(**json.loads(config), outdir=outdir)))
"""


def workloads() -> dict:
    """name -> RunConfig fields of perfbench/workloads.py, imported without
    writing bytecode next to it."""
    sys.dont_write_bytecode = True
    path = os.path.join(ROOT, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return {name: w.config for name, w in module.WORKLOADS.items()}


def run(src: str, config: dict, outdir: str) -> None:
    env = dict(os.environ, **BLAS_PIN, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", CHILD, src, json.dumps(config), outdir],
                          cwd=os.path.dirname(outdir), env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{outdir}: cli.run exited with code {proc.returncode}\n{proc.stderr}")
    with open(os.path.join(outdir, "stderr.txt"), "w") as fh:
        fh.write(proc.stderr)


def differing(a: str, b: str) -> list[str]:
    """Paths, relative to a and b, of the files that are not byte-identical
    in both trees (missing on one side included)."""
    names = set()
    for top in (a, b):
        for dirpath, _, files in os.walk(top):
            names.update(os.path.relpath(os.path.join(dirpath, f), top) for f in files)
    return sorted(n for n in names
                  if not (os.path.isfile(os.path.join(a, n)) and os.path.isfile(os.path.join(b, n))
                          and filecmp.cmp(os.path.join(a, n), os.path.join(b, n), shallow=False)))


def stats_report(a: str, b: str) -> str:
    """Whether the count columns of the stats.csv files in a and b are
    equal, and the largest relative L2 difference over the fields of the
    final snapshots (the last snapshot file of a, read in both)."""
    columns = []
    for top in (a, b):
        with open(os.path.join(top, "stats.csv")) as fh:
            rows = list(csv.DictReader(fh))
        columns.append({name: [row[name] for row in rows] for name in STATS_COUNTS})
    counts = ", ".join(f"{name} {'equal' if columns[0][name] == columns[1][name] else 'DIFFER'}"
                       for name in STATS_COUNTS)
    name = os.path.basename(sorted(glob.glob(os.path.join(a, "snapshot_t*.csv")))[-1])
    if not os.path.isfile(os.path.join(b, name)):
        return f"{counts}; final snapshot {name} missing"
    want, got = (np.loadtxt(os.path.join(top, name), delimiter=",", skiprows=1, ndmin=2)[:, 2:]
                 for top in (a, b))
    diff, scale = np.linalg.norm(got - want, axis=0), np.linalg.norm(want, axis=0)
    rel = np.divide(diff, scale, out=np.where(diff > 0, np.inf, 0.0), where=scale > 0)
    return f"{counts}; final snapshot {name} differs by {rel.max():.3e} (relative L2)"


def module_lines(src: str) -> dict[str, tuple[int, bytes]]:
    """name -> (lines, contents) of the package's modules, the lines as
    `wc -l src/dgmg/*.py` counts them."""
    modules = {}
    for path in glob.glob(os.path.join(src, "dgmg", "*.py")):
        with open(path, "rb") as fh:
            text = fh.read()
        modules[os.path.basename(path)] = (text.count(b"\n"), text)
    return modules


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        raise SystemExit("usage: compare_outputs.py [REV]")
    rev = argv[0] if argv else "HEAD"
    with tempfile.TemporaryDirectory(prefix="compare_outputs-") as tmp:
        base = os.path.join(tmp, "tree")
        os.makedirs(base)
        archive = subprocess.run(["git", "archive", rev, "src"], cwd=ROOT, capture_output=True,
                                 check=True).stdout
        subprocess.run(["tar", "-x", "-C", base], input=archive, check=True)
        trees = {"rev": os.path.join(base, "src"), "work": os.path.join(ROOT, "src")}
        old, new = (module_lines(trees[side]) for side in ("rev", "work"))
        print(f"src/dgmg/*.py: {sum(n for n, _ in old.values())} lines at {rev}, "
              f"{sum(n for n, _ in new.values())} in the working tree")
        for module in sorted(old.keys() | new.keys()):
            before, after = old.get(module, (0, None)), new.get(module, (0, None))
            if before[1] != after[1]:
                print(f"  {module}: {before[0]} -> {after[0]}")
        bad = []
        for name, config in workloads().items():
            outs = {}
            for side, src in trees.items():
                outs[side] = os.path.join(tmp, side, name, "out")
                os.makedirs(os.path.dirname(outs[side]))
                run(src, config, outs[side])
            diff = differing(outs["rev"], outs["work"])
            files = len(os.listdir(outs["work"]))
            print(f"{name}: {files} files, {len(diff)} differ" + "".join(
                f"\n  {name}/{d}" for d in diff))
            if "stats.csv" in diff:
                print("    " + stats_report(outs["rev"], outs["work"]))
            bad += diff
    print(f"{'identical' if not bad else 'DIFFERENT'} to {rev}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
