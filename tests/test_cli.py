import dataclasses
import io
import os
import tempfile
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import references
from dgmg import cases, cli, timeint
from dgmg.cli import (
    ConfigError,
    RunConfig,
    SNAPSHOT_HEADER,
    build_solver,
    main,
    parse_config,
    run,
)
from dgmg.mgprecond import MGConfig
from dgmg.timeint import StageStats


def write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestParseConfig:
    def test_file_values_and_mg_key(self, tmp_path):
        path = write(
            tmp_path,
            """
            case = inertia-gravity
            base_nx = 10
            base_nz = 1
            level = 1
            dt = 25
            mg = mg111111V   # paper's best configuration
            """,
        )
        cfg = parse_config(path)
        assert cfg.case == "inertia-gravity"
        assert cfg.mg_config() == MGConfig(1, 1, 1, 1, 1, 1, "V")

    def test_mg_none_is_identity(self, tmp_path):
        path = write(tmp_path, "case = rising-bubble\nbase_nx = 5\nbase_nz = 10\ndt = 5\nmg = none\n")
        assert parse_config(path).mg_config() is None

    def test_bad_mg_string_is_config_error(self, tmp_path):
        path = write(tmp_path, "case = rising-bubble\nbase_nx = 5\nbase_nz = 10\ndt = 5\nmg = mg11111X\n")
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_unknown_key_reports_line_number(self, tmp_path):
        path = write(tmp_path, "case = rising-bubble\nwhat = 3\n")
        with pytest.raises(ConfigError, match=":2"):
            parse_config(path)

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = write(tmp_path, "case = rising-bubble\njust words\n")
        with pytest.raises(ConfigError, match=":2"):
            parse_config(path)

    def test_flags_override_file(self, tmp_path):
        path = write(tmp_path, "case = rising-bubble\nbase_nx = 5\nbase_nz = 10\ndt = 5\n")
        cfg = parse_config(path, overrides={"dt": 2.5, "outdir": "elsewhere"})
        assert cfg.dt == 2.5
        assert cfg.outdir == "elsewhere"

    @pytest.mark.parametrize(
        "key", [f.name for f in dataclasses.fields(RunConfig) if "choices" in f.metadata]
    )
    def test_value_outside_choices_names_the_key(self, tmp_path, key):
        values = {"case": "rising-bubble", "base_nx": 5, "base_nz": 10, "dt": 5, key: "bogus"}
        path = write(tmp_path, "".join(f"{k} = {v}\n" for k, v in values.items()))
        with pytest.raises(ConfigError, match=f"^{key} must be one of .*'bogus'"):
            parse_config(path)

    @pytest.mark.parametrize("text, value", [("1", True), ("true", True), ("YES", True),
                                             ("0", False), ("False", False), ("nO", False)])
    def test_bool_spellings(self, tmp_path, text, value):
        path = write(tmp_path, f"case = rising-bubble\nbase_nx = 5\nbase_nz = 10\ndt = 5\n"
                               f"vtk = {text}\n")
        assert parse_config(path).vtk is value

    @pytest.mark.parametrize("text", ["on", "off", "2", "y", "", "true false"])
    def test_invalid_bool_exit_code_names_the_key(self, tmp_path, capsys, text):
        # every spelling but 1/true/yes used to parse as False, silently
        path = write(tmp_path, f"case = inertia-gravity\nbase_nx = 10\nbase_nz = 1\ndt = 25\n"
                               f"t_final = 25\nvtk = {text}\n")
        out = str(tmp_path / "out")
        assert main(["--config", path, "--outdir", out]) == 2
        err = capsys.readouterr().err
        assert f"configuration error: {path}:6: bad value for vtk:" in err and repr(text) in err
        assert not os.path.exists(out)

    def test_missing_case_rejected(self, tmp_path):
        path = write(tmp_path, "dt = 5\nbase_nx = 4\nbase_nz = 4\n")
        with pytest.raises(ConfigError, match="case"):
            parse_config(path)

    def test_implicit_requires_dt(self):
        cfg = RunConfig(case="rising-bubble", base_nx=5, base_nz=10)
        with pytest.raises(ConfigError, match="dt"):
            cfg.validate()

    def test_target_dx_derives_base_dims(self):
        cfg = RunConfig(case="rising-bubble", dx=100.0, level=1, dt=5.0)
        bundle = build_solver(cfg)
        h = bundle.dg_op.hierarchy
        assert h.nx[h.dg_level] == 10
        assert h.nz[h.dg_level] == 20

    def test_indivisible_dx_rejected(self):
        cfg = RunConfig(case="rising-bubble", dx=90.9, level=3, dt=5.0)
        with pytest.raises(ConfigError):
            build_solver(cfg)


class TestRuns:
    def test_zero_perturbation_run_stays_zero(self, tmp_path):
        import dataclasses

        cfg = RunConfig(
            case="rising-bubble", base_nx=5, base_nz=10, dt=10.0, t_final=100.0,
            outdir=str(tmp_path / "out"), mg="mg001111V",
        )
        bundle = build_solver(cfg)
        bundle.U0[:] = 0.0
        from dgmg.timeint import sdirk2_step

        U = bundle.U0
        stats_total = 0
        for i in range(10):
            U, st = sdirk2_step(
                bundle.dg_op, U, 10.0 * i, 10.0,
                params=bundle.params, weights=bundle.dg_op.norm_weights,
                precond=bundle.mg,
            )
            stats_total += sum(s.newton_iters for s in st)
        assert np.abs(U).max() <= 1e-10
        assert stats_total == 0  # zero iterations after the residual check

    def test_unconverged_solves_are_reported(self, tmp_path, monkeypatch, capsys):
        # GMRES stopped after two iterations misses the forcing term while
        # Newton still converges; each stage with such solves gets one
        # stderr line with its time, stage and count, and stats.csv keeps
        # its columns
        cfg = RunConfig(case="inertia-gravity", base_nx=10, base_nz=1, level=1, dt=25.0,
                        t_final=50.0, outdir=str(tmp_path / "converged"))
        assert run(cfg) == 0
        assert capsys.readouterr().err == ""

        gmres, newton = timeint.gmres_solve, timeint.newton_solve
        counts = []

        def stopped_gmres(*args, **kwargs):
            return gmres(*args, **{**kwargs, "maxiter": 2})

        def counting_newton(*args, **kwargs):
            res = newton(*args, **kwargs)
            counts.append(res.gmres_unconverged)
            return res

        monkeypatch.setattr(timeint, "gmres_solve", stopped_gmres)
        monkeypatch.setattr(timeint, "newton_solve", counting_newton)
        out = str(tmp_path / "stopped")
        assert run(dataclasses.replace(cfg, outdir=out)) == 0
        with open(os.path.join(out, "stats.csv")) as fh:
            assert fh.readline() == cli.STATS_HEADER + "\n"
            rows = [line.split(",")[:2] for line in fh]
        assert len(rows) == len(counts) == 4 and all(counts)
        expected = "".join(
            f"warning at t = {t}, stage {stage}: {n} GMRES solve(s) stopped above their "
            f"tolerance\n" for (t, stage), n in zip(rows, counts))
        assert capsys.readouterr().err == expected

    def test_run_writes_expected_outputs(self, tmp_path):
        out = str(tmp_path / "out")
        cfg = RunConfig(
            case="inertia-gravity", base_nx=10, base_nz=1, level=1,
            dt=25.0, t_final=50.0, mg="mg001111V", outdir=out, output_interval=25.0,
        )
        assert run(cfg) == 0
        files = sorted(os.listdir(out))
        snaps = [f for f in files if f.startswith("snapshot")]
        assert len(snaps) == 3  # t = 0, 25, 50
        with open(os.path.join(out, snaps[0])) as fh:
            assert fh.readline().strip() == SNAPSHOT_HEADER
        with open(os.path.join(out, "stats.csv")) as fh:
            header = fh.readline().strip()
            assert header == "time,stage,newton_iters,gmres_iters,dg_ops,residual"
            times = [float(line.split(",")[0]) for line in fh]
        assert times == sorted(times)
        assert len(set(times)) == len(times)  # strictly increasing

    def test_stats_log_deterministic_across_reruns(self, tmp_path):
        logs = []
        for tag in ("a", "b"):
            out = str(tmp_path / tag)
            cfg = RunConfig(
                case="inertia-gravity", base_nx=10, base_nz=1, level=1,
                dt=25.0, t_final=50.0, mg="mg111111V", outdir=out,
            )
            assert run(cfg) == 0
            with open(os.path.join(out, "stats.csv"), "rb") as fh:
                logs.append(fh.read())
        assert logs[0] == logs[1]

    def test_viscous_massfix_outputs_repeat_byte_for_byte(self, tmp_path):
        # two runs in one process: nothing an operator keeps between calls
        # may leak from one run's results into the other's
        outputs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            cfg = RunConfig(case="density-current", base_nx=8, base_nz=2, level=1, dt=10.0,
                            t_final=20.0, mg="mg111111V", transfer="massfix", outdir=str(out),
                            output_interval=10.0)
            assert run(cfg) == 0
            outputs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
        assert len(outputs[0]) == 4  # stats.csv and snapshots at t = 0, 10, 20
        assert outputs[0] == outputs[1]

    def test_explicit_run_builds_no_multigrid_stack(self, tmp_path):
        # an explicit run solves no stage system: its mg key is validated,
        # but no FV level is built, and it writes what an mg = none run does
        outputs = {}
        for key in ("mg111111V", "none"):
            out = tmp_path / key
            cfg = RunConfig(case="rising-bubble", base_nx=2, base_nz=4, level=1,
                            integrator="explicit", t_final=1.0, mg=key, outdir=str(out))
            assert build_solver(cfg).mg is None
            assert run(cfg) == 0
            outputs[key] = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
        assert outputs["mg111111V"] == outputs["none"]
        with pytest.raises(ConfigError, match="mg11111X"):
            build_solver(dataclasses.replace(cfg, mg="mg11111X"))

    def test_cut_extraction_workflow(self, tmp_path):
        # a fixed-height cut is a row filter on the snapshot file
        out = str(tmp_path / "out")
        cfg = RunConfig(
            case="inertia-gravity", base_nx=10, base_nz=1, level=1,
            dt=25.0, t_final=25.0, mg="mg001111V", outdir=out,
        )
        assert run(cfg) == 0
        snap = sorted(f for f in os.listdir(out) if f.startswith("snapshot"))[-1]
        rows = []
        with open(os.path.join(out, snap)) as fh:
            fh.readline()
            for line in fh:
                parts = line.split(",")
                rows.append((float(parts[0]), float(parts[1]), float(parts[5])))
        zs = sorted({r[1] for r in rows})
        z_cut = min(zs, key=lambda z: abs(z - 5000.0))
        cut = [(x, th) for x, z, th in rows if z == z_cut]
        assert len(cut) == len({r[0] for r in rows})
        assert max(abs(th) for _, th in cut) > 0.0

    def test_jsonl_stats_format(self, tmp_path):
        import json

        out = str(tmp_path / "out")
        cfg = RunConfig(
            case="inertia-gravity", base_nx=10, base_nz=1, level=1,
            dt=25.0, t_final=25.0, mg="mg001111V", outdir=out, log_format="jsonl",
        )
        assert run(cfg) == 0
        with open(os.path.join(out, "stats.jsonl")) as fh:
            rows = [json.loads(line) for line in fh]
        assert len(rows) == 2
        assert rows[0]["stage"] == 1 and rows[1]["stage"] == 2
        assert rows[0]["gmres_iters"] > 0

    def test_solver_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        from dgmg.timeint import SolverFailure

        def boom(*args, **kwargs):
            raise SolverFailure("stage 1: no convergence")

        monkeypatch.setattr(cli, "sdirk2_step", boom)
        out = str(tmp_path / "out")
        cfg = RunConfig(
            case="rising-bubble", base_nx=5, base_nz=10, dt=10.0, t_final=20.0,
            mg="none", outdir=out,
        )
        assert run(cfg) == 3
        assert "solver failure" in capsys.readouterr().err
        # partial outputs are retained
        assert os.path.exists(os.path.join(out, "stats.csv"))
        assert any(f.startswith("snapshot") for f in os.listdir(out))

    @pytest.mark.parametrize("interval, times", [(30.0, (0.0, 50.0)), (20.0, (0.0, 25.0, 50.0)),
                                                 (100.0, (0.0, 50.0))])
    def test_each_snapshot_written_once(self, tmp_path, monkeypatch, interval, times):
        # the final snapshot is written only if the last step wrote none; a
        # last step past an output time off the interval grid (t = 50 with
        # interval 30) used to write it twice
        written = []
        write_snapshot = cli.write_snapshot

        def recording(U, bundle, path):
            written.append(os.path.basename(path))
            write_snapshot(U, bundle, path)

        monkeypatch.setattr(cli, "write_snapshot", recording)
        cfg = RunConfig(case="inertia-gravity", base_nx=10, base_nz=1, dt=25.0, t_final=50.0,
                        mg="none", output_interval=interval, outdir=str(tmp_path / "out"))
        assert run(cfg) == 0
        assert written == [f"snapshot_t{t:012.4f}.csv" for t in times]

    def test_vtk_flag_writes_legacy_file(self, tmp_path):
        out = str(tmp_path / "out")
        cfg = RunConfig(
            case="rising-bubble", base_nx=5, base_nz=10, dt=10.0, t_final=10.0,
            mg="none", outdir=out, vtk=True,
        )
        assert run(cfg) == 0
        vtks = [f for f in os.listdir(out) if f.endswith(".vtk")]
        assert vtks
        with open(os.path.join(out, vtks[0])) as fh:
            text = fh.read()
        assert "STRUCTURED_POINTS" in text and "theta_p" in text


class TestMain:
    def test_config_error_exit_code(self, tmp_path, capsys):
        assert main(["--case", "rising-bubble"]) == 2  # no grid, no dt
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--output-interval", "0"),  # would loop forever
            ("--output-interval", "-25"),
            ("--output-interval", "nan"),
            ("--explicit-cfl", "0"),  # dt = 0 never advances t
            ("--explicit-cfl", "-0.5"),
            ("--pseudo-cfl", "-1"),
            ("--pseudo-cfl", "0"),
            ("--pseudo-cfl", "2"),
            ("--pseudo-cfl", "1.3"),  # the bubble's coarse FV spectra leave |z - 1| <= 1
            ("--dt", "nan"),  # passed `dt <= 0`, then failed as a solver error
            ("--t-final", "nan"),  # ran no step and exited 0
            ("--t-final", "inf"),  # so did this
            ("--t-final", "-5"),
            ("--t-final", "0"),
        ],
    )
    def test_invalid_numeric_value_exit_code(self, tmp_path, capsys, flag, value):
        out = str(tmp_path / "out")
        rc = main([
            "--case", "inertia-gravity", "--base-nx", "10", "--base-nz", "1",
            "--dt", "25", "--t-final", "25", "--mg", "mg001111V", "--outdir", out,
            flag, value,
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and flag[2:].replace("-", "_") in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("value", ["nan", "0"])
    def test_invalid_dx_exit_code(self, tmp_path, capsys, value):
        # without base dims the grid comes from dx, which crashed on these
        out = str(tmp_path / "out")
        rc = main([
            "--case", "inertia-gravity", "--dx", value, "--dt", "25", "--t-final", "25",
            "--outdir", out,
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "dx" in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("file_keys, flags", [
        ("base_nx = 5\nbase_nz = 10\n", ["--dx", "25"]),
        ("dx = 25\n", ["--base-nx", "5", "--base-nz", "10"]),
        ("base_nx = 5\nbase_nz = 10\ndx = 25\n", []),
    ])
    def test_base_dims_and_dx_together_exit_code(self, tmp_path, capsys, file_keys, flags):
        # neither key may silently win: a --dx flag over a file's base dims
        # would otherwise be ignored, against flags overriding file values
        out = str(tmp_path / "out")
        path = write(tmp_path, "case = rising-bubble\ndt = 5\n" + file_keys)
        assert main(["--config", path, "--outdir", out] + flags) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "base_nx" in err and "dx" in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("interval", ["1e-12", "1e-300"])
    def test_tiny_output_interval_writes_one_snapshot_per_step(self, tmp_path, interval):
        # catching up with the output times one interval at a time ran for
        # t / interval additions, forever once interval no longer moved t
        out = str(tmp_path / "out")
        start = time.perf_counter()
        rc = main([
            "--case", "inertia-gravity", "--level", "0", "--base-nx", "10", "--base-nz", "1",
            "--dt", "25", "--mg", "none", "--t-final", "50", "--output-interval", interval,
            "--outdir", out,
        ])
        assert rc == 0
        assert time.perf_counter() - start < 30.0
        snaps = sorted(f for f in os.listdir(out) if f.startswith("snapshot"))
        assert snaps == [f"snapshot_t{t:012.4f}.csv" for t in (0.0, 25.0, 50.0)]

    def test_step_too_small_to_finish_exit_code(self, tmp_path, capsys):
        # 2.5e301 steps: the run used to step on with stats.csv growing
        out = str(tmp_path / "out")
        start = time.perf_counter()
        rc = main([
            "--case", "inertia-gravity", "--level", "0", "--base-nx", "10", "--base-nz", "1",
            "--integrator", "explicit", "--dt", "1e-300", "--t-final", "25", "--outdir", out,
        ])
        assert rc == 2
        assert time.perf_counter() - start < 10.0
        err = capsys.readouterr().err
        assert "configuration error" in err and "steps exceeds the limit" in err
        assert not os.path.exists(out)

    def test_grid_too_large_to_allocate_exit_code(self, tmp_path, monkeypatch, capsys):
        # 10 * 2^30 x 2^30 DG cells used to die in numpy's allocator with a
        # traceback; DGOperator fails the test instead of allocating them.
        # The grid comes from its base dims: a level that large is refused
        # before the grid is formed (test_level_beyond_memory_exit_code)
        def allocate(*args):
            raise AssertionError("DGOperator built for a grid that cannot be allocated")

        monkeypatch.setattr(cli, "DGOperator", allocate)
        out = str(tmp_path / "out")
        rc = main([
            "--case", "inertia-gravity", "--level", "0", "--base-nx", str(10 * 2**30),
            "--base-nz", str(2**30), "--dt", "25", "--t-final", "25", "--outdir", out,
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and f"{10 * 2**30} x {2**30} DG grid" in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("flag, value", [("--level", "2000"), ("--k", "1023")])
    def test_grid_too_large_for_a_float_or_lift_operand_exit_code(
        self, tmp_path, monkeypatch, capsys, flag, value
    ):
        # level 2000 overflowed a float in GridHierarchy; k = 1023 passed the
        # field count and died allocating DGOperator's 256 GiB lift_z operand
        def allocate(*args):
            raise AssertionError("grid or operator built for a config that cannot be allocated")

        for name in ("GridHierarchy", "DGBasis", "DGOperator"):
            monkeypatch.setattr(cli, name, allocate)
        out = str(tmp_path / "out")
        rc = main([
            "--case", "inertia-gravity", "--base-nx", "10", "--base-nz", "1",
            "--dt", "25", "--t-final", "25", "--outdir", out, flag, value,
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "GiB of physical memory" in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("level", ["30", "15000", "1000000000"])
    def test_level_beyond_memory_exit_code(self, tmp_path, monkeypatch, capsys, level):
        # level 15000 died turning the grid size into text (more than 4,300
        # digits), and 2^level itself grows with the level; the size check
        # bounds the level before any grid size is computed
        def allocate(*args):
            raise AssertionError("grid built for a level beyond the memory")

        for name in ("GridHierarchy", "DGBasis", "DGOperator"):
            monkeypatch.setattr(cli, name, allocate)
        out = str(tmp_path / "out")
        start = time.perf_counter()
        rc = main([
            "--case", "inertia-gravity", "--base-nx", "10", "--base-nz", "1",
            "--dt", "25", "--t-final", "25", "--outdir", out, "--level", level,
        ])
        assert rc == 2
        assert time.perf_counter() - start < 5.0
        err = capsys.readouterr().err
        assert "configuration error: level must be at most" in err and f"got {level}" in err
        assert len(err) < 300
        assert not os.path.exists(out)

    def test_negative_level_names_the_key(self, tmp_path, capsys):
        # reported as the hierarchy's dg_refine_level before
        out = str(tmp_path / "out")
        assert main(["--case", "inertia-gravity", "--base-nx", "10", "--base-nz", "1",
                     "--dt", "25", "--level", "-1", "--outdir", out]) == 2
        assert "configuration error: level must be nonnegative, got -1" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("k", ["-1", "2", "4"])
    def test_invalid_k_exit_code(self, tmp_path, monkeypatch, capsys, k):
        # the hierarchy caught these before, after the size check had
        # sized the grid
        def allocate(*args):
            raise AssertionError("grid built for an invalid k")

        for name in ("_base_grid", "GridHierarchy"):
            monkeypatch.setattr(cli, name, allocate)
        out = str(tmp_path / "out")
        assert main(["--case", "inertia-gravity", "--base-nx", "10", "--base-nz", "1",
                     "--dt", "25", "--k", k, "--outdir", out]) == 2
        err = capsys.readouterr().err
        assert f"configuration error: k must be nonnegative with k + 1 a power of two, got {k}" in err
        assert not os.path.exists(out)

    def test_unknown_flag_case(self):
        with pytest.raises(SystemExit):
            main(["--case", "unknown-case"])

    def test_small_run_through_main(self, tmp_path):
        out = str(tmp_path / "out")
        rc = main([
            "--case", "inertia-gravity", "--base-nx", "10", "--base-nz", "1",
            "--level", "1", "--dt", "25", "--t-final", "25", "--mg", "mg001111V",
            "--outdir", out,
        ])
        assert rc == 0
        assert os.path.exists(os.path.join(out, "stats.csv"))


@st.composite
def sized_grids(draw):
    """A base-dims config, the bytes its set-up needs (None where 4^level
    cells alone exceed any drawn memory) and a memory size, often within a
    byte of the need."""
    level = draw(st.integers(0, 40) | st.integers(41, 10**9))
    base_nx, base_nz = draw(st.integers(1, 2**12)), draw(st.integers(1, 2**12))
    k = draw(st.integers(0, 64))
    cfg = RunConfig(case="inertia-gravity", level=level, base_nx=base_nx, base_nz=base_nz,
                    k=k, dt=1.0)
    need = None
    if level <= 40:
        field_bytes = base_nx * base_nz * 4**level * (k + 1) ** 2 * 4 * 8
        need = cli.SETUP_FIELDS * field_bytes + 32 * (k + 1) ** 3 * 8
    near = st.sampled_from([need - 1, need, need + 1]) if need else st.nothing()
    return cfg, need, draw(st.integers(0, 2**40) | near)


class TestSizeCheck:
    @settings(max_examples=300, deadline=None)
    @given(grid=sized_grids())
    def test_accepts_exactly_the_grids_that_fit(self, grid):
        # SETUP_FIELDS DG fields and the z-lifting operand must fit in the
        # physical memory; a refused level is refused at once, however large
        cfg, need, memory = grid
        case = cases.by_name(cfg.case)
        with mock.patch.object(cli, "_physical_memory", lambda: memory):
            start = time.perf_counter()
            try:
                accepted = cli._base_grid(cfg, case) == (cfg.base_nx, cfg.base_nz)
            except ConfigError as err:
                accepted = False
                assert "GiB of physical memory" in str(err)
            assert time.perf_counter() - start < 1.0
        assert accepted == (need is not None and need <= memory)


class TestConfigKeys:
    def test_schema_fields_and_flags_name_the_same_keys(self):
        fields = {f.name for f in dataclasses.fields(RunConfig)}
        flags = {a.dest for a in cli._arg_parser()._actions} - {"help", "config"}
        assert set(cli._SCHEMA) == fields
        assert flags == fields

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_file_and_flags_parse_alike(self, data):
        values = data.draw(run_configs())
        text = {k: repr(v) if isinstance(v, float) else str(v) for k, v in values.items()}
        flags = []
        for key, val in text.items():
            if key != "vtk":
                flags += ["--" + key.replace("_", "-"), val]
            elif values[key]:
                flags.append("--vtk")
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "run.cfg")
            with open(path, "w") as fh:
                fh.writelines(f"{key} = {val}\n" for key, val in text.items())
            from_file = parse_config(path)
        args = vars(cli._arg_parser().parse_args(flags))
        args.pop("config")
        assert parse_config(None, overrides=args) == from_file


@st.composite
def run_configs(draw):
    """A valid config as {key: value}; keys left out take their defaults."""
    positive = st.floats(1e-6, 1e6)

    def maybe(key, strategy):
        value = draw(st.none() | strategy)
        if value is not None:
            values[key] = value

    integrator = draw(st.sampled_from(["implicit", "explicit"]))
    values = {"case": draw(st.sampled_from(sorted(cases.CASES))), "integrator": integrator}
    if integrator == "implicit":
        values["dt"] = draw(positive)
    else:
        maybe("dt", positive)
    if draw(st.booleans()):
        values["base_nx"], values["base_nz"] = draw(st.integers(1, 64)), draw(st.integers(1, 64))
    else:
        values["dx"] = draw(positive)
    maybe("k", st.sampled_from([0, 1, 3, 7]))
    maybe("level", st.integers(0, 4))
    maybe("t_final", positive)
    maybe("mg", st.just("none") | st.from_regex(r"mg[0-9]{6}[VW]", fullmatch=True))
    maybe("transfer", st.sampled_from(["interp", "massfix"]))
    maybe("newton_tol", st.floats(1e-12, 0.999))
    maybe("outdir", st.text("abz09_./", min_size=1, max_size=12))
    maybe("output_interval", positive)
    maybe("log_format", st.sampled_from(["csv", "jsonl"]))
    maybe("pseudo_cfl", st.floats(1e-6, 1.0))
    maybe("explicit_cfl", positive)
    maybe("vtk", st.booleans())
    return values


# values whose formatting differs most: signed zeros, extremes, subnormals,
# non-finite values and mixed signs
FORMAT_VALUES = st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300, 5e-324, -5e-324,
                                 2.5e-310, -1.25e-315]) | st.floats()


@st.composite
def snapshots(draw):
    """Cell centres, u and theta_p of a small field, and the writers' columns."""
    nz, nx = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    xc = draw(arrays(np.float64, nx, elements=FORMAT_VALUES))
    zc = draw(arrays(np.float64, nz, elements=FORMAT_VALUES))
    u = draw(arrays(np.float64, (nz, nx, 4), elements=FORMAT_VALUES))
    theta_p = draw(arrays(np.float64, (nz, nx), elements=FORMAT_VALUES))
    columns = dict(zip(SNAPSHOT_HEADER.split(",")[2:], (u[..., 0], u[..., 1], u[..., 2], theta_p)))
    return xc, zc, u, theta_p, columns


class TestWriters:
    """The row-formatted writers give the bytes of the f-string oracles."""

    @settings(max_examples=200, deadline=None)
    @given(snapshot=snapshots())
    def test_snapshot_csv_matches_reference(self, snapshot):
        xc, zc, u, theta_p, columns = snapshot
        expected, got = io.StringIO(), io.StringIO()
        references.write_snapshot_csv(expected, xc, zc, u, theta_p)
        cli._write_csv(got, xc, zc, columns)
        assert got.getvalue() == expected.getvalue()

    @settings(max_examples=50, deadline=None)
    @given(nz=st.integers(1, 3), nx=st.integers(1, 64), data=st.data())
    def test_wide_snapshot_rows_match_reference(self, nz, nx, data):
        # a z-row of up to 64 cells is one template, its x and z text
        # formatted once; signed zeros, subnormals and extremes in every
        # column and coordinate
        xc, zc = (data.draw(arrays(np.float64, n, elements=FORMAT_VALUES)) for n in (nx, nz))
        u = data.draw(arrays(np.float64, (nz, nx, 4), elements=FORMAT_VALUES))
        theta_p = data.draw(arrays(np.float64, (nz, nx), elements=FORMAT_VALUES))
        columns = dict(zip(SNAPSHOT_HEADER.split(",")[2:],
                           (u[..., 0], u[..., 1], u[..., 2], theta_p)))
        expected, got = io.StringIO(), io.StringIO()
        references.write_snapshot_csv(expected, xc, zc, u, theta_p)
        cli._write_csv(got, xc, zc, columns)
        assert got.getvalue() == expected.getvalue()

    @settings(max_examples=200, deadline=None)
    @given(snapshot=snapshots(), dx=FORMAT_VALUES, dz=FORMAT_VALUES)
    def test_vtk_matches_reference(self, snapshot, dx, dz):
        xc, zc, u, theta_p, columns = snapshot
        expected, got = io.StringIO(), io.StringIO()
        references.write_vtk(expected, xc, zc, dx, dz, u, theta_p)
        cli._write_vtk(got, xc, zc, dx, dz, columns)
        assert got.getvalue() == expected.getvalue()

    @settings(max_examples=100, deadline=None)
    @given(
        fmt=st.sampled_from(["csv", "jsonl"]),
        rows=st.lists(
            st.tuples(FORMAT_VALUES, *[st.integers(0, 2**63)] * 4, FORMAT_VALUES), max_size=4
        ),
    )
    def test_stats_log_matches_reference(self, fmt, rows):
        got = io.StringIO()
        log = cli._stats_writer(got, fmt)
        for row in rows:
            log(StageStats(*row))
        assert got.getvalue() == references.stats_log(fmt, rows)


class TestCrossSchemeAgreement:
    def test_implicit_matches_explicit_at_coarse_resolution(self, tmp_path):
        # both integrators evolve the rising bubble to t = 50 s on a 10x20
        # mesh; fields are compared in max norm against the 0.5 K amplitude
        from dgmg.transfer import TransferOperators

        results = {}
        for integ, dt in (("explicit", None), ("implicit", 10.0)):
            out = str(tmp_path / integ)
            cfg = RunConfig(
                case="rising-bubble", base_nx=10, base_nz=20, level=0,
                integrator=integ, dt=dt, t_final=50.0,
                mg="mg001111V" if integ == "implicit" else "none",
                outdir=out,
            )
            assert run(cfg) == 0
            snap = sorted(f for f in os.listdir(out) if f.startswith("snapshot"))[-1]
            data = np.loadtxt(os.path.join(out, snap), delimiter=",", skiprows=1)
            results[integ] = data[:, 5]
        diff = np.abs(results["implicit"] - results["explicit"]).max()
        assert diff <= 0.05 * 0.5, diff
