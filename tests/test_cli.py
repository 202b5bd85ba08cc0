import hashlib
import json
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import lagns
import lagns.cli as cli
import lagns.driver as driver
from lagns import parse_snapshot, parse_timeseries

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
# the import root of lagns, for PYTHONPATH in subprocesses
SRC = str(Path(lagns.__file__).resolve().parents[1])

# sha256 of (timeseries.csv, snapshot.csv) written by `lagns run` for each
# shipped config; a change that moves any output bit must update these and
# say which bits moved and why
GOLDEN = {
    "alpha0": (
        "ed54390218a05be5eeceea3e4e13cc59b9c90936c713887ab7f473f727d2f55e",
        "f2fe4fb15cb129d4424e6abdcb8bd7809ab991d21062a7e91c4fb75c9bfa241d",
    ),
    "default": (
        "3d3b266d885a439dd352fc9d0cb19c1517d471fa8295a4b81a04aa4657415047",
        "0c8f9e7a6c3436903854737350d607a4f66c5e1ec871d13b719162166b4eec2f",
    ),
    "mms_deep": (
        "2ded89ab92848bfdde35b1913abba3b21364e695a19dd353b0585ae3af6c1e97",
        "e6f92d1baffecea6db454c9260424af74445d165d9f123938877d9c917e776d3",
    ),
    "mms_default": (
        "bf0d4e4c210d712c62a3c8ff38661b4b40963bdf7e26d59a348c7648bdd2c961",
        "12fd78dc64c59973cdb3bf6e0ea0a83f3523592341edacfe31f89d6a17dea1f4",
    ),
    # a gas at rest: every non-constant column is rounding noise, so this
    # digest moves with any reordered arithmetic, and
    # test_noslip_steady_stays_at_rest checks the physics
    "noslip_steady": (
        "ba8322ad8116966f1b575e4ea4122eab7c4365a45039271bb93aa609b64e3304",
        "be566e6ac8bbb785bce5f119be73609ba405374b30f02ea58101f5cb2a20b838",
    ),
}

# sha256 of the stdout of `lagns convergence --config configs/mms_default.json
# --levels 3`: the observed-order contract, pinned to the printed digits
CONVERGENCE_DIGEST = "5636e3109338970ee7b685129435218e75354daf9f419f3c043b943fb25fe60a"

# runs where the cap dt_max binds, which no GOLDEN config does (they are
# CFL-limited) and CONVERGENCE_DIGEST sees only to 4 printed digits:
# sha256 of (timeseries.csv, snapshot.csv) of configs/default.json at
# N = 64 with dt_max = 2/N^2, written as `lagns run` writes them
CAPPED_RUN_DIGESTS = (
    "7f03f91857403fae50dfd5608435e672ba58acac89711c2c1c53300f9328928e",
    "ee91845181224409ea2f3773e32f1950d692c18d184674efe651eb34b90cc8f0",
)
# and sha256 of the float64 bytes of the final v, u and theta of each level
# of `lagns convergence --config configs/mms_default.json --levels 3`
# (dt = dx^2), by n_cells
CAPPED_LEVEL_DIGESTS = {
    16: "73891fe8bcf630759e3dc25614ad763e578dd2d3d31004f041a4ea3bc9d8181c",
    32: "3844c8737a4fbe0ae3040d759cb1f806f6b032c9cf9147d39b9e70490480d204",
    64: "d098f455108c5a6484c43d05d89a6319b94731fb2d5d69977ee6578d67ae0663",
}
# a forced stress-free run, the one kind that imposes a manufactured wall
# stress at every step: sha256 of (timeseries.csv, snapshot.csv) of the
# "default" case at N = 16 with dt_max = 1/256 to t = 0.05
FORCED_STRESS_FREE_DIGESTS = (
    "39e36e58591102e457627110cf320da8d5ae1087ac7c0dcf1e60575260d10a7b",
    "e3ca0bfc2daefbb84477747e5169967591c22cf2761afbcfe5a68d700618b8af",
)
# the exit code and sha256 of the stdout of `lagns verify`, by run: a run is
# a shipped config (or none) updated with top-level keys. Besides the
# physical configs, three runs reach rules no shipped config does: a run
# that records no output row, one whose final state is later than its last
# row, and a hot gas that fails the representation row
VERIFY_PINS = {
    "default": ("default", {}, 0,
                "d86ca3ba49443c469dc37d800b76a24681b95c0a8ebb43f202a02d9e14775890"),
    "alpha0": ("alpha0", {}, 0,
               "799f88b23de27f0b6abe532d2935132b9aa6d44276554c0dfef7acb99271f8a1"),
    "noslip_steady": ("noslip_steady", {}, 1,
                      "81d0fe1d93d91ed400cfb579ba9ca38593ef5d74c1006a7fa4f868c18bfddfd5"),
    "no_output_row": (
        None, {"n_cells": 16, "t_end": 0.05, "output_every": 0.1}, 1,
        "a206e19d473f495bd155b1a9012b2674368cd1396c75750869b7a3451c57a38f",
    ),
    "final_after_last_row": (
        "noslip_steady", {"t_end": 0.0079, "output_every": 0.004}, 1,
        "4533d188d3d1012453299171953eabf7c52d7f681b9c6b1f25f6ee1a4b5a97db",
    ),
    "hot_gas": (
        None,
        {
            "n_cells": 8, "t_end": 0.01, "output_every": 0.005,
            "profile": {"amplitudes": {"theta_base": 1e6, "theta_amp": 0.1}},
        },
        1,
        "59f90ddd78f2f4a64350cf9b5d96de3cbe9cc56b1451873fdaedf5d7d4b722c8",
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

    def test_row_interval_below_dt_min_exits_two(self, tmp_path, capsys):
        # rows this close would force steps below dt_min (h1*h2 underflows
        # in the temperature extrapolation); rejected before any step
        path = write_config(
            tmp_path, {"n_cells": 8, "t_end": 0.5, "output_every": 1e-300}
        )
        assert cli.cmd_run(path, str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: output_every = 1e-300 must be >= dt_min")
        assert "Traceback" not in err

    def test_unusable_out_takes_no_step(self, tmp_path, capsys, monkeypatch):
        steps = []
        monkeypatch.setattr(driver, "step", lambda *args: steps.append(args))
        taken = tmp_path / "taken"
        taken.write_text("")
        assert cli.cmd_run(small_run_config(tmp_path), str(taken)) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert steps == []

    def test_unwritable_output_exits_two(self, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "timeseries.csv").mkdir(parents=True)
        code = cli.main(["run", "--config", small_run_config(tmp_path), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_abort_exits_three_with_partial_outputs(self, tmp_path, capsys):
        path = write_config(tmp_path, {
            "bc": "no_slip",
            "profile": {"amplitudes": {"u_amp": 60.0}},
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
        # a manufactured run and study must not depend on the interpreter's
        # string hashing: the sources are closed-form numpy arithmetic, and
        # nothing on their way to the output may follow dict or set order
        config = str(CONFIGS / "mms_default.json")
        runs, studies = {}, []
        for seed in ("1", "2"):
            out = tmp_path / f"seed{seed}"
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=SRC)
            runs[out] = subprocess.Popen(
                [sys.executable, "-m", "lagns", "run", "--config", config,
                 "--out", str(out)],
                env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            )
            studies.append(subprocess.Popen(
                [sys.executable, "-m", "lagns", "convergence", "--config", config,
                 "--levels", "3"],
                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            ))
        outputs = []
        for out, proc in runs.items():
            _, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
            names = ("timeseries.csv", "snapshot.csv")
            outputs.append([(out / name).read_bytes() for name in names])
        assert outputs[0] == outputs[1]
        for proc in studies:
            stdout, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
            assert hashlib.sha256(stdout).hexdigest() == CONVERGENCE_DIGEST

    @pytest.mark.parametrize("name", sorted(p.stem for p in CONFIGS.glob("*.json")))
    def test_golden_outputs(self, name, tmp_path):
        assert name in GOLDEN, f"configs/{name}.json has no pinned output digests"
        out = tmp_path / name
        assert cli.cmd_run(str(CONFIGS / f"{name}.json"), str(out)) == 0
        for file, want in zip(("timeseries.csv", "snapshot.csv"), GOLDEN[name]):
            got = hashlib.sha256((out / file).read_bytes()).hexdigest()
            assert got == want, f"configs/{name}.json: {file} sha256 {got} != {want}"

    @staticmethod
    def assert_run_digests(scenario, tmp_path, digests):
        """Run the scenario, write its outputs as `lagns run` writes them,
        and check their sha256 against digests."""
        result = lagns.run(scenario)
        assert result.report.status == "completed"
        lagns.emit_timeseries(result.report, tmp_path / "timeseries.csv")
        lagns.emit_snapshot(result.state, result.grid, tmp_path / "snapshot.csv")
        for file, want in zip(("timeseries.csv", "snapshot.csv"), digests):
            got = hashlib.sha256((tmp_path / file).read_bytes()).hexdigest()
            assert got == want, f"{file} sha256 {got} != {want}"

    def test_capped_run_outputs(self, tmp_path):
        # the acoustic limit of the initial state is 15 times the cap
        scenario = replace(
            lagns.load_config(CONFIGS / "default.json"), n_cells=64,
            dt_max=2.0 / 64**2,
        )
        self.assert_run_digests(scenario, tmp_path, CAPPED_RUN_DIGESTS)

    def test_forced_stress_free_outputs(self, tmp_path):
        scenario = lagns.Scenario(
            bc=lagns.BoundaryKind.STRESS_FREE, n_cells=16, t_end=0.05,
            output_every=0.05, mms="default", dt_max=1.0 / 256,
        )
        self.assert_run_digests(scenario, tmp_path, FORCED_STRESS_FREE_DIGESTS)

    def test_noslip_steady_stays_at_rest(self, tmp_path):
        out = tmp_path / "noslip_steady"
        assert cli.cmd_run(str(CONFIGS / "noslip_steady.json"), str(out)) == 0
        _, v, theta, _, u = parse_snapshot(out / "snapshot.csv")
        assert u[0] == u[-1] == 0.0
        np.testing.assert_allclose(v, v[0], rtol=1e-12)
        np.testing.assert_allclose(theta, theta[0], rtol=1e-12)


# each command on a config path, writing any output under out
COMMANDS = {
    "run": lambda path, out: cli.cmd_run(path, out),
    "verify": lambda path, out: cli.cmd_verify(path),
    "convergence": lambda path, out: cli.cmd_convergence(path, 3),
    "sweep": lambda path, out: cli.cmd_sweep(path, "1", "1", out),
}


@pytest.mark.parametrize("command", COMMANDS)
def test_non_utf8_config_exits_two(command, tmp_path, capsys):
    # a config that is not UTF-8 text (here it opens with a UTF-16
    # byte-order mark) is a usage error, reported without a traceback
    path = tmp_path / "cfg.json"
    path.write_bytes(b"\xff\xfe{}")
    assert COMMANDS[command](str(path), str(tmp_path / "out")) == 2
    assert capsys.readouterr().err.startswith("error: config is not valid UTF-8")


@pytest.mark.parametrize("command", COMMANDS)
def test_deeply_nested_config_exits_two(command, tmp_path, capsys):
    # nesting deeper than the JSON decoder can follow is invalid JSON,
    # reported without a traceback
    path = tmp_path / "cfg.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert COMMANDS[command](str(path), str(tmp_path / "out")) == 2
    assert capsys.readouterr().err.startswith("error: config is not valid JSON")


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("name", [[], {}], ids=["list", "object"])
def test_bad_mms_name_exits_two(command, name, tmp_path, capsys):
    # an mms name that is not a string is a config error, not a TypeError
    # from the lookup of the case name
    path = write_config(tmp_path, {"mms": name})
    assert COMMANDS[command](path, str(tmp_path / "out")) == 2
    assert capsys.readouterr().err.startswith("error: unknown mms case")


@pytest.mark.parametrize("command", COMMANDS)
def test_mms_with_profile_exits_two(command, tmp_path, capsys):
    # a manufactured run takes its initial data from the case, so a profile
    # beside it would be silently ignored
    path = write_config(tmp_path, {"mms": "default", "profile": {"name": "cosine"}})
    assert COMMANDS[command](path, str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config sets both 'mms' and 'profile'")


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("digits, message", [
    (401, "error: t_end must be finite, got an integer"),
    (5001, "error: config holds an integer of more than"),
], ids=["beyond_float", "beyond_int"])
def test_huge_integer_exits_two(command, digits, message, tmp_path, capsys):
    # a JSON integer too large for a float, or longer than int() converts,
    # is a config error, not an OverflowError or ValueError traceback
    path = tmp_path / "cfg.json"
    path.write_text('{"t_end": 1' + "0" * (digits - 1) + "}")
    assert COMMANDS[command](str(path), str(tmp_path / "out")) == 2
    assert capsys.readouterr().err.startswith(message)


@pytest.mark.parametrize("command", COMMANDS)
def test_n_cells_beyond_an_array_exits_two(command, tmp_path, capsys):
    # an integer n_cells of 401 digits is no float, but no grid either: it
    # is a config error, not a ValueError traceback from np.arange
    path = tmp_path / "cfg.json"
    path.write_text('{"n_cells": 1' + "0" * 400 + "}")
    assert COMMANDS[command](str(path), str(tmp_path / "out")) == 2
    assert capsys.readouterr().err.startswith("error: n_cells must be <= ")


@pytest.mark.parametrize("command", COMMANDS)
def test_grid_beyond_memory_exits_two(command, tmp_path, capsys):
    # an accepted n_cells whose arrays do not fit in memory is one line on
    # stderr that names it, not a MemoryError traceback; 2**50 cells fail
    # at the first allocation (8 PiB), so no memory is touched
    payload = {"n_cells": 2**50, "dt_min": 1e-40}
    if command == "convergence":
        payload["mms"] = "default"
    path = write_config(tmp_path, payload)
    assert COMMANDS[command](path, str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: n_cells = {2**50}: out of memory")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", COMMANDS)
def test_duplicate_key_exits_two(command, tmp_path, capsys):
    # the decoder would run with the last t_end and record no row
    path = tmp_path / "cfg.json"
    path.write_text(
        '{"n_cells": 8, "t_end": 0.05, "output_every": 0.05, "t_end": 0.01}'
    )
    assert COMMANDS[command](str(path), str(tmp_path / "out")) == 2
    assert capsys.readouterr().err.startswith("error: duplicate key 't_end'")


# finite, positive initial data whose first step overflows the temperature
OVERFLOWING = {
    "material": {"alpha": 0.0},
    "profile": {"name": "cosine", "amplitudes": {
        "v_base": 1e150, "v_amp": 2e149, "theta_base": 1e300, "theta_amp": 1e299,
    }},
    "n_cells": 8, "t_end": 1e-3, "output_every": 1e-3, "dt_min": 1e-6,
}


@pytest.mark.parametrize("command", ["run", "verify"])
def test_overflowing_step_aborts(command, tmp_path):
    # every step would make theta' infinite, so the temperature gate
    # rejects it down to dt_min and the run aborts at t = 0; neither
    # command may report a run that completed with an infinite temperature
    out = tmp_path / "out"
    argv = [sys.executable, "-m", "lagns", command, "--config",
            write_config(tmp_path, OVERFLOWING)]
    proc = subprocess.run(
        argv + (["--out", str(out)] if command == "run" else []),
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == cli.EXIT_ABORT, proc.stdout + proc.stderr
    assert "aborted: non-positive or non-finite temperature at t = 0" in proc.stderr
    assert "Traceback" not in proc.stderr
    if command == "run":
        _, v, theta, _, u = parse_snapshot(out / "snapshot.csv")
        assert np.isfinite(np.concatenate((v, theta, u))).all()


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
        assert "6/6 checks passed" in out
        assert "FAIL" not in out

    @pytest.mark.parametrize("name", sorted(VERIFY_PINS))
    def test_stdout_and_exit_code_pinned(self, name, tmp_path, capsys):
        base, overrides, code, digest = VERIFY_PINS[name]
        payload = json.loads((CONFIGS / f"{base}.json").read_text()) if base else {}
        payload.update(overrides)
        assert cli.cmd_verify(write_config(tmp_path, payload)) == code
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, out

    @pytest.mark.parametrize("material", [
        {"mu_tilde": 2.0},
        {"R": 2.0},
        {"alpha": 0.0, "mu_tilde": 3.0, "R": 0.5},
    ], ids=["mu_tilde2", "R2", "alpha0_mu_tilde3_R0.5"])
    def test_default_config_with_other_material_passes(
        self, material, tmp_path, capsys
    ):
        # the volume representation weighs its factors by the material's
        # R and mu(inf), so it holds for any R and mu_tilde
        payload = json.loads((CONFIGS / "default.json").read_text())
        payload["material"].update(material)
        assert cli.cmd_verify(write_config(tmp_path, payload)) == 0
        assert "6/6 checks passed" in capsys.readouterr().out

    def test_coarse_grid_cold_profile_passes(self, tmp_path, capsys):
        # admissible initial data with a large discrete wall slope at
        # n_cells = 8, which only the initial compatibility row judges
        path = write_config(tmp_path, {
            "n_cells": 8,
            "profile": {
                "name": "cosine",
                "amplitudes": {"theta_base": 0.11, "theta_amp": 0.1},
            },
        })
        assert cli.cmd_verify(path) == 0
        assert "6/6 checks passed" in capsys.readouterr().out

    def test_overflowing_profile_exits_two(self, tmp_path, capsys):
        # the infimum 1.6e308 is fine, the supremum v_base + |v_amp| is not
        path = write_config(tmp_path, {
            "profile": {
                "name": "cosine",
                "amplitudes": {"v_base": 1.7e308, "v_amp": 1e307},
            },
        })
        assert cli.cmd_verify(path) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: profile 'cosine' overflows")
        assert "Traceback" not in err

    def test_overflowing_velocity_amplitude_exits_two(self, tmp_path, capsys):
        # rejected at parse time, before any arithmetic can overflow
        path = write_config(tmp_path, {
            "bc": "no_slip",
            "profile": {"name": "cosine", "amplitudes": {"u_amp": 1e308}},
        })
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli.cmd_verify(path) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: profile 'cosine' overflows: |u_amp|")
        assert "Traceback" not in err

    def test_hot_gas_verifies_without_warnings(self, tmp_path, capsys):
        # sqrt(2 e0)/mu_eff is far above 709 here, which overflowed the
        # deleted velocity-integral band's edge exp(sqrt(2 e0)/mu_eff)
        path = write_config(tmp_path, {
            "n_cells": 8, "t_end": 0.01, "output_every": 0.005,
            "profile": {"amplitudes": {"theta_base": 1e6, "theta_amp": 0.1}},
        })
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli.cmd_verify(path) == 1
        out = capsys.readouterr().out
        # known defect (residual 2.276e-01): the fixed tolerance of the
        # representation row fails this correct hot run (ROADMAP item 16)
        failed = [line.split("  ")[0] for line in out.splitlines() if "FAIL" in line]
        assert failed == ["volume representation"]

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
        assert "5/6 checks passed" in out


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
            "mms": "constant", "bc": "no_slip",
            "n_cells": 8, "t_end": 0.05, "output_every": 0.05,
        })
        assert cli.cmd_convergence(path, 3) == 0
        assert "rounding floor" in capsys.readouterr().out

    def test_default_case_reaches_second_order(self, capsys):
        assert cli.cmd_convergence(str(CONFIGS / "mms_default.json"), 3) == 0
        out = capsys.readouterr().out
        assert "min observed order" in out
        assert hashlib.sha256(out.encode()).hexdigest() == CONVERGENCE_DIGEST

    def test_capped_levels_final_states(self):
        # the levels as cmd_convergence builds them, each stepped by advance
        base = lagns.load_config(CONFIGS / "mms_default.json")
        for n, want in CAPPED_LEVEL_DIGESTS.items():
            dx = 1.0 / n
            _, state, report = lagns.advance(replace(base, n_cells=n, dt_max=dx * dx))
            assert report.status == "completed" and report.halvings == 0
            fields = b"".join(a.tobytes() for a in (state.v, state.u, state.theta))
            assert hashlib.sha256(fields).hexdigest() == want, f"n_cells = {n}"

    def test_four_levels_keep_second_order(self, capsys):
        assert cli.cmd_convergence(str(CONFIGS / "mms_default.json"), 4) == 0
        out = capsys.readouterr().out
        (line,) = [line for line in out.splitlines() if line.startswith("min observed")]
        assert float(line.split()[3]) >= 1.99

    def test_deep_case_reaches_second_order(self, capsys):
        # theta* down to 0.1 with beta = 4: kappa spans 1e-4 ... 13
        assert cli.cmd_convergence(str(CONFIGS / "mms_deep.json"), 3) == 0
        assert "min observed order" in capsys.readouterr().out

    @pytest.mark.parametrize("levels", [20, 10**6])
    def test_level_below_dt_min_exits_two_before_any_run(
        self, monkeypatch, capsys, levels
    ):
        # from N = 16 * 2^13 on, dt_max = dx^2 is below dt_min = 1e-10; the
        # study is refused before its first level runs, and the levels past
        # that one are never built
        def no_run(scenario):
            raise AssertionError(f"ran n_cells = {scenario.n_cells}")

        monkeypatch.setattr(cli, "advance", no_run)
        assert cli.cmd_convergence(str(CONFIGS / "mms_default.json"), levels) == 2
        assert "level n_cells = 131072" in capsys.readouterr().err

    def test_levels_step_without_the_instruments(self, monkeypatch, capsys):
        # a level reads only its final state, so the study builds and folds
        # none of the instruments that run feeds
        def refuse(*args, **kwargs):
            raise AssertionError("a convergence level fed an instrument")

        for name in (
            "make_accumulator", "make_tracker", "update_accumulator",
            "update_bounds", "compatibility_residual",
        ):
            monkeypatch.setattr(driver, name, refuse)
        assert cli.cmd_convergence(str(CONFIGS / "mms_default.json"), 3) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == CONVERGENCE_DIGEST


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

    def test_unusable_out_exits_two(self, tmp_path, capsys):
        config = small_run_config(tmp_path)
        taken = tmp_path / "taken"
        taken.write_text("")
        assert cli.cmd_sweep(config, "1", "1", str(taken / "sub")) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_unwritable_summary_exits_two(self, tmp_path, capsys):
        out = tmp_path / "s"
        (out / "summary.csv").mkdir(parents=True)
        code = cli.main([
            "sweep", "--config", small_run_config(tmp_path),
            "--alpha", "1", "--beta", "1", "--out", str(out),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_summary_matches_joined_writer(self, tmp_path):
        # the f-string lines the summary was once built from are the byte
        # oracle of the shared writer
        config = small_run_config(tmp_path)
        out = tmp_path / "s"
        assert cli.cmd_sweep(config, "0,2", "1", str(out)) == 0
        lines = ["alpha,beta,status,min_v,min_theta,repr_residual"]
        scenario = lagns.load_config(config)
        for a in (0.0, 2.0):
            params = replace(scenario.params, alpha=a, beta=1.0)
            result = lagns.run(replace(scenario, params=params))
            residual = lagns.representation_residual(
                result.state, result.accumulator, result.grid
            )
            lines.append(
                f"{a:.17g},{1.0:.17g},{result.report.status},"
                f"{result.tracker.min_v:.17g},{result.tracker.min_theta:.17g},"
                f"{residual:.17g}"
            )
        assert (out / "summary.csv").read_bytes() == ("\n".join(lines) + "\n").encode()

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

    def test_closed_stdout_exits_without_traceback(self, tmp_path):
        # `lagns verify ... | head -0`: the reader is gone before the first
        # line is written
        proc = subprocess.Popen(
            [sys.executable, "-m", "lagns", "verify", "--config",
             small_run_config(tmp_path)],
            env=dict(os.environ, PYTHONPATH=SRC),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=120) == cli.EXIT_BROKEN_PIPE, err
        assert err == ""


# runs `lagns.cli.main` on each argv of the JSON list in argv[1], in one
# fresh interpreter; prints the exit codes and whether each test-only
# dependency, sympy and scipy, was loaded after `import lagns` and after each
# command
FRESH_MAIN = """
import contextlib, io, json, sys
import lagns, lagns.cli
TEST_ONLY = ("sympy", "scipy")
loaded, codes = {name: [name in sys.modules] for name in TEST_ONLY}, []
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for argv in json.loads(sys.argv[1]):
        codes.append(lagns.cli.main(argv))
        for name in TEST_ONLY:
            loaded[name].append(name in sys.modules)
print(json.dumps({"codes": codes, **loaded}))
"""


def fresh_main(argvs):
    proc = subprocess.run(
        [sys.executable, "-c", FRESH_MAIN, json.dumps(argvs)],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestSympyLoadsOnlyForManufacturedCases:
    """sympy and scipy, test-only dependencies, stay out of every command."""

    def test_physical_commands_leave_sympy_unloaded(self, tmp_path):
        config = str(CONFIGS / "default.json")
        got = fresh_main([
            ["run", "--config", config, "--out", str(tmp_path / "run")],
            ["verify", "--config", config],
            ["sweep", "--config", config, "--alpha", "1", "--beta", "1",
             "--out", str(tmp_path / "sweep")],
        ])
        assert got == {"codes": [0, 0, 0], "sympy": [False] * 4, "scipy": [False] * 4}

    def test_case_name_rejected_at_parse_time_without_sympy(self, tmp_path):
        # an unknown case name is a config error before any run; a physical
        # config is a usage error for convergence
        nope = write_config(tmp_path, {"mms": "nope", "bc": "no_slip"})
        got = fresh_main([
            ["run", "--config", nope, "--out", str(tmp_path / "run")],
            ["convergence", "--config", nope],
            ["convergence", "--config", str(CONFIGS / "default.json")],
        ])
        assert got == {"codes": [2, 2, 2], "sympy": [False] * 4, "scipy": [False] * 4}

    def test_no_command_imports_sympy(self, tmp_path):
        # the manufactured sources are closed form, so neither a forced run
        # nor a study loads sympy
        config = str(CONFIGS / "mms_default.json")
        got = fresh_main([
            ["run", "--config", config, "--out", str(tmp_path / "run")],
            ["convergence", "--config", config],
        ])
        assert got == {"codes": [0, 0], "sympy": [False] * 3, "scipy": [False] * 3}
