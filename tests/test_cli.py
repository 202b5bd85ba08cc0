import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lagns
import lagns.cli as cli
import lagns.driver as driver
from lagns import parse_timeseries

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# sha256 of (timeseries.csv, snapshot.csv) written by `lagns run` for each
# shipped config; a change that moves any output bit must update these and
# say which bits moved and why
GOLDEN = {
    "alpha0": (
        "be9792f5e2d02c1a9164af0da8422a95cbefe72a13cf43e13f657d3ebbb02e3d",
        "0ca18660b58de225109f3a32eb6dc8723a04e643000b394729b7b37c4e29bedc",
    ),
    "default": (
        "940a691883cc243af925cb7a508596a2d7f050871e891b630601835b09efc0d2",
        "8b70c5a4052d21f8e05544c42596c4ee90d5d0b42b08d4beb0afaf1355cdaf2d",
    ),
    "mms_default": (
        "63c1604d5237ddc5117af3ce56a6aee5143383ec15c7e2718ad6d971f6ae1464",
        "0daea0cc54d66b613dd7ed2df069f58b012d47699dc3b2832ba8659d85ad94bd",
    ),
    "noslip_steady": (
        "8954f3199ac47a433ec62108455fc088edd96d34d2b8de7212d0d730c9877ed1",
        "8a76f8a3721e72ddc2749eccc03a1e15b02ca0e4c6f5f5303c90272d6ff10b5d",
    ),
}


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def small_run_config(tmp_path, **extra):
    payload = {"n_cells": 32, "t_end": 0.2, "output_every": 0.1}
    payload.update(extra)
    return write_config(tmp_path, payload)


class TestCmdRun:
    def test_writes_outputs_and_exits_zero(self, tmp_path, capsys):
        code = cli.cmd_run(small_run_config(tmp_path), str(tmp_path / "out"))
        assert code == 0
        assert (tmp_path / "out" / "timeseries.csv").exists()
        assert (tmp_path / "out" / "snapshot.csv").exists()
        assert "completed" in capsys.readouterr().out

    def test_bad_config_exits_two(self, tmp_path, capsys):
        path = write_config(tmp_path, {"profile": {"amplitudes": {"v_amp": 1.0}}})
        assert cli.cmd_run(path, str(tmp_path / "out")) == 2
        assert "vacuum" in capsys.readouterr().err

    def test_missing_file_exits_two(self, tmp_path):
        assert cli.cmd_run(str(tmp_path / "nope.json"), str(tmp_path)) == 2

    def test_abort_exits_three_with_partial_outputs(self, tmp_path, capsys):
        path = write_config(tmp_path, {
            "bc": "no_slip",
            "profile": {"amplitudes": {"u_amp": 50.0}},
            "n_cells": 32, "t_end": 2.0, "output_every": 2e-3, "dt_min": 2e-3,
            "cfl": 1.0,
        })
        code = cli.cmd_run(path, str(tmp_path / "out"))
        assert code == 3
        assert "aborted" in capsys.readouterr().err
        assert (tmp_path / "out" / "timeseries.csv").exists()

    def test_byte_identical_reruns(self, tmp_path):
        config = small_run_config(tmp_path)
        assert cli.cmd_run(config, str(tmp_path / "a")) == 0
        assert cli.cmd_run(config, str(tmp_path / "b")) == 0
        a = (tmp_path / "a" / "timeseries.csv").read_bytes()
        b = (tmp_path / "b" / "timeseries.csv").read_bytes()
        assert a == b
        a_snap = (tmp_path / "a" / "snapshot.csv").read_bytes()
        b_snap = (tmp_path / "b" / "snapshot.csv").read_bytes()
        assert a_snap == b_snap

    def test_mms_run_byte_identical_across_hash_seeds(self, tmp_path):
        # the manufactured sources are compiled from sympy expressions; their
        # generated code must not depend on the interpreter's string hashing
        src = str(Path(lagns.__file__).resolve().parents[1])
        config = str(CONFIGS / "mms_default.json")
        runs = {}
        for seed in ("1", "2"):
            out = tmp_path / f"seed{seed}"
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            runs[out] = subprocess.Popen(
                [sys.executable, "-m", "lagns", "run", "--config", config,
                 "--out", str(out)],
                env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            )
        outputs = []
        for out, proc in runs.items():
            _, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
            names = ("timeseries.csv", "snapshot.csv")
            outputs.append([(out / name).read_bytes() for name in names])
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("name", sorted(p.stem for p in CONFIGS.glob("*.json")))
    def test_golden_outputs(self, name, tmp_path):
        assert name in GOLDEN, f"configs/{name}.json has no pinned output digests"
        out = tmp_path / name
        assert cli.cmd_run(str(CONFIGS / f"{name}.json"), str(out)) == 0
        for file, want in zip(("timeseries.csv", "snapshot.csv"), GOLDEN[name]):
            got = hashlib.sha256((out / file).read_bytes()).hexdigest()
            assert got == want, f"configs/{name}.json: {file} sha256 {got} != {want}"


class TestCmdVerify:
    @pytest.mark.parametrize("name", [
        "default",
        "alpha0",
        # known defect: the volume representation is derived for stress-free
        # walls; a no-slip gas at rest leaves a residual that grows as t
        pytest.param("noslip_steady", marks=pytest.mark.xfail(
            strict=True, reason="representation check assumes stress-free walls",
        )),
    ])
    def test_default_config_all_pass(self, name, capsys):
        assert cli.cmd_verify(str(CONFIGS / f"{name}.json")) == 0
        out = capsys.readouterr().out
        assert "8/8 checks passed" in out
        assert "FAIL" not in out

    def test_mms_config_rejected_as_usage(self, tmp_path, capsys):
        path = write_config(tmp_path, {"mms": "default", "bc": "no_slip"})
        assert cli.cmd_verify(path) == 2
        assert "manufactured" in capsys.readouterr().err

    def test_broken_invariant_exits_one(self, tmp_path, capsys, monkeypatch):
        # sabotage the closed-form factor so the representation check must
        # fail while everything else stays healthy
        monkeypatch.setattr(
            driver, "representation_residual", lambda *args: 1.0
        )
        assert cli.cmd_verify(small_run_config(tmp_path)) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "7/8 checks passed" in out


class TestCmdConvergence:
    def test_too_few_levels_exits_two(self, tmp_path, capsys):
        path = write_config(tmp_path, {"mms": "default", "bc": "no_slip"})
        assert cli.cmd_convergence(path, 1) == 2
        assert "levels" in capsys.readouterr().err

    def test_non_mms_config_exits_two(self, tmp_path, capsys):
        assert cli.cmd_convergence(small_run_config(tmp_path), 3) == 2
        assert "mms" in capsys.readouterr().err

    def test_constant_case_reports_rounding_floor(self, tmp_path, capsys):
        path = write_config(tmp_path, {
            "mms": "constant", "bc": "no_slip", "profile": {"name": "constant"},
            "n_cells": 8, "t_end": 0.05, "output_every": 0.05,
        })
        assert cli.cmd_convergence(path, 3) == 0
        assert "rounding floor" in capsys.readouterr().out

    def test_default_case_reaches_second_order(self, capsys):
        assert cli.cmd_convergence(str(CONFIGS / "mms_default.json"), 3) == 0
        out = capsys.readouterr().out
        assert "min observed order" in out


class TestCmdSweep:
    def test_grid_of_runs_with_summary(self, tmp_path, capsys):
        config = small_run_config(tmp_path)
        out = tmp_path / "sweep"
        assert cli.cmd_sweep(config, "0,1", "0.5,1,2", str(out)) == 0
        files = sorted(p.name for p in out.glob("run_*.csv"))
        assert files == [
            "run_alpha0_beta0.5.csv",
            "run_alpha0_beta1.csv",
            "run_alpha0_beta2.csv",
            "run_alpha1_beta0.5.csv",
            "run_alpha1_beta1.csv",
            "run_alpha1_beta2.csv",
        ]
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[0] == "alpha,beta,status,min_v,min_theta,repr_residual"
        assert len(summary) == 7
        assert all(line.split(",")[2] == "completed" for line in summary[1:])
        assert "6 runs, 0 aborted" in capsys.readouterr().out
        # each per-pair file is a valid timeseries
        rows = parse_timeseries(out / files[0])
        assert len(rows) == 2

    def test_singleton_lists(self, tmp_path):
        config = small_run_config(tmp_path)
        out = tmp_path / "single"
        assert cli.cmd_sweep(config, "1", "1", str(out)) == 0
        assert (out / "run_alpha1_beta1.csv").exists()

    def test_close_values_get_distinct_files(self, tmp_path):
        config = small_run_config(tmp_path)
        out = tmp_path / "close"
        assert cli.cmd_sweep(config, "0.1,0.10000001", "1", str(out)) == 0
        files = sorted(p.name for p in out.glob("run_*.csv"))
        assert files == ["run_alpha0.10000001_beta1.csv", "run_alpha0.1_beta1.csv"]

    def test_out_of_regime_beta_exits_two(self, tmp_path, capsys):
        config = small_run_config(tmp_path)
        out = tmp_path / "s"
        assert cli.cmd_sweep(config, "0,1", "0,1", str(out)) == 2
        assert "regime" in capsys.readouterr().err
        assert cli.cmd_sweep(config, "nan", "1", str(out)) == 2
        assert "regime" in capsys.readouterr().err
        assert not out.exists()

    def test_garbled_list_exits_two(self, tmp_path, capsys):
        config = small_run_config(tmp_path)
        assert cli.cmd_sweep(config, "1,zap", "1", str(tmp_path / "s")) == 2
        assert "bad alpha list" in capsys.readouterr().err


class TestMain:
    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main([])
        assert excinfo.value.code == 2

    def test_missing_required_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["run"])
        assert excinfo.value.code == 2

    def test_dispatch_run(self, tmp_path):
        config = small_run_config(tmp_path)
        code = cli.main(["run", "--config", config, "--out", str(tmp_path / "o")])
        assert code == 0

    def test_dispatch_verify_via_module_entry(self, tmp_path, capsys):
        config = small_run_config(tmp_path)
        assert cli.main(["verify", "--config", config]) == 0
        assert "checks passed" in capsys.readouterr().out
