import json

import numpy as np
import pytest

from lagns import (
    BoundaryKind,
    ConfigError,
    DiagnosticsReport,
    DiagnosticsRow,
    Grid,
    ProfileSpec,
    Scenario,
    State,
    TIMESERIES_COLUMNS,
    emit_snapshot,
    emit_timeseries,
    load_config,
    parse_config,
    parse_snapshot,
    parse_timeseries,
    run,
)


def make_row(t, **overrides):
    values = {name: 0.0 for name in TIMESERIES_COLUMNS}
    values["t"] = t
    values.update(overrides)
    return DiagnosticsRow(**values)


class TestParseConfig:
    def test_empty_object_gives_defaults(self):
        scenario = parse_config("{}")
        assert scenario.params.R == 1.0
        assert scenario.params.alpha == 1.0
        assert scenario.bc is BoundaryKind.STRESS_FREE
        assert scenario.profile.name == "cosine"
        assert scenario.n_cells == 128
        assert scenario.cfl == 0.8
        assert scenario.t_end == 0.5
        assert scenario.output_every == 0.1
        assert scenario.mms is None
        assert scenario.dt_max is None

    def test_material_overrides(self):
        scenario = parse_config(json.dumps({
            "material": {"R": 2.0, "c_v": 3.0, "alpha": 0.0, "beta": 0.5},
        }))
        assert scenario.params.R == 2.0
        assert scenario.params.c_v == 3.0
        assert scenario.params.alpha == 0.0
        assert scenario.params.beta == 0.5

    def test_zero_beta_rejected_with_regime_message(self):
        with pytest.raises(ConfigError, match="admissible regime"):
            parse_config('{"material": {"beta": 0}}')

    def test_negative_alpha_rejected(self):
        with pytest.raises(ConfigError, match="admissible regime"):
            parse_config('{"material": {"alpha": -0.5}}')

    def test_unknown_top_level_key_listed(self):
        with pytest.raises(ConfigError, match="viscosity"):
            parse_config('{"viscosity": 2.0}')

    def test_unknown_material_key_listed(self):
        with pytest.raises(ConfigError, match="gamma"):
            parse_config('{"material": {"gamma": 1.4}}')

    def test_unknown_amplitude_key_listed(self):
        with pytest.raises(ConfigError, match="w_amp"):
            parse_config('{"profile": {"amplitudes": {"w_amp": 0.1}}}')

    def test_bool_value_rejected(self):
        with pytest.raises(ConfigError, match="must be a number"):
            parse_config('{"material": {"R": true}}')

    def test_string_scalar_rejected(self):
        with pytest.raises(ConfigError, match="must be a number"):
            parse_config('{"cfl": "fast"}')

    def test_non_finite_rejected(self):
        with pytest.raises(ConfigError, match="finite"):
            parse_config('{"t_end": 1e999}')

    def test_n_cells_float_rejected(self):
        with pytest.raises(ConfigError, match="integer"):
            parse_config('{"n_cells": 64.0}')

    def test_n_cells_too_small_rejected(self):
        with pytest.raises(ConfigError, match=">= 8"):
            parse_config('{"n_cells": 4}')

    def test_vacuum_amplitude_rejected(self):
        with pytest.raises(ConfigError, match="vacuum"):
            parse_config('{"profile": {"amplitudes": {"v_amp": 1.0}}}')

    def test_invalid_json_wrapped(self):
        with pytest.raises(ConfigError, match="not valid JSON"):
            parse_config("{nope}")

    def test_non_object_rejected(self):
        with pytest.raises(ConfigError, match="JSON object"):
            parse_config("[1, 2]")

    def test_bad_bc_name(self):
        with pytest.raises(ConfigError, match="boundary"):
            parse_config('{"bc": "slippery"}')

    def test_bad_profile_name(self):
        with pytest.raises(ConfigError, match="unknown profile"):
            parse_config('{"profile": {"name": "sawtooth"}}')
        with pytest.raises(ConfigError, match="unknown profile"):
            parse_config('{"profile": {"name": ["cosine"]}}')

    def test_bad_mms_name(self):
        with pytest.raises(ConfigError, match="mms"):
            parse_config('{"mms": "vortex"}')

    def test_load_config_reads_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"n_cells": 16}')
        assert load_config(path).n_cells == 16

    def test_scenario_rejects_bad_scalars(self):
        with pytest.raises(ConfigError):
            Scenario(cfl=0.0)
        with pytest.raises(ConfigError):
            Scenario(t_end=-1.0)
        with pytest.raises(ConfigError):
            Scenario(output_every=0.0)
        with pytest.raises(ConfigError, match=">= 8"):
            Scenario(n_cells=2)
        with pytest.raises(ConfigError, match=">= 8"):
            Scenario(n_cells=7)
        with pytest.raises(ConfigError, match="dt_max"):
            Scenario(dt_max=-1.0)
        with pytest.raises(ConfigError, match="unknown profile 'bogus'"):
            ProfileSpec(name="bogus")
        with pytest.raises(ConfigError, match="unknown profile.amplitudes key.*w_amp"):
            ProfileSpec(amplitudes=(("w_amp", 1.0),))
        with pytest.raises(ConfigError, match="vacuum"):
            ProfileSpec(amplitudes=(("v_amp", 1.5),))
        with pytest.raises(ConfigError, match="vacuum"):
            ProfileSpec(name="constant", amplitudes=(("theta", float("nan")),))


class TestDiagnosticsReport:
    def test_rows_must_increase_in_time(self):
        rows = (make_row(0.0), make_row(0.1), make_row(0.1))
        with pytest.raises(ValueError, match="strictly increasing"):
            DiagnosticsReport(rows=rows, status="completed")

    def test_unknown_status_rejected(self):
        with pytest.raises(ValueError, match="status"):
            DiagnosticsReport(rows=(), status="exploded")


class TestTimeseriesRoundTrip:
    def test_awkward_floats_survive_bit_exact(self, tmp_path):
        rows = (
            make_row(0.0, energy=1.0 / 3.0, repr_residual=1e-17, dt_current=0.1),
            make_row(1.0 / 3.0, energy=np.nextafter(1.0, 2.0), band_margin=-1e-300),
        )
        report = DiagnosticsReport(rows=rows, status="completed")
        path = tmp_path / "ts.csv"
        emit_timeseries(report, path)
        back = parse_timeseries(path)
        for original, parsed in zip(rows, back):
            for name in TIMESERIES_COLUMNS:
                assert getattr(parsed, name) == getattr(original, name)

    def test_header_only_when_no_rows(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_timeseries(DiagnosticsReport(rows=(), status="completed"), path)
        assert path.read_text() == ",".join(TIMESERIES_COLUMNS) + "\n"
        assert parse_timeseries(path) == ()

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            parse_timeseries(path)

    def test_short_row_rejected(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text(",".join(TIMESERIES_COLUMNS) + "\n1.0,2.0\n")
        with pytest.raises(ValueError, match="columns"):
            parse_timeseries(path)


class TestSnapshotRoundTrip:
    def test_fields_survive_bit_exact(self, tmp_path):
        grid = Grid(16)
        rng = np.random.default_rng(7)
        state = State(
            0.3,
            1.0 + 0.5 * rng.random(grid.n_cells),
            rng.standard_normal(grid.n_nodes),
            1.0 + rng.random(grid.n_cells),
        )
        path = tmp_path / "snap.csv"
        emit_snapshot(state, grid, path)
        xc, v, theta, xn, u = parse_snapshot(path)
        np.testing.assert_array_equal(xc, grid.centers)
        np.testing.assert_array_equal(v, state.v)
        np.testing.assert_array_equal(theta, state.theta)
        np.testing.assert_array_equal(xn, grid.nodes)
        np.testing.assert_array_equal(u, state.u)

    def test_missing_section_tag_rejected(self, tmp_path):
        path = tmp_path / "broken.csv"
        path.write_text("x,v,theta\n0.5,1.0,1.0\n")
        with pytest.raises(ValueError, match="section tag"):
            parse_snapshot(path)


class TestSteadyRunColumns:
    def test_no_slip_constant_rows_are_flat(self):
        scenario = parse_config(json.dumps({
            "bc": "no_slip",
            "profile": {"name": "constant"},
            "n_cells": 32,
            "t_end": 0.3,
            "output_every": 0.1,
        }))
        result = run(scenario)
        rows = result.report.rows
        assert len(rows) == 3
        for row in rows:
            assert row.energy == pytest.approx(rows[0].energy, rel=1e-12)
            assert row.min_v == pytest.approx(1.0, abs=1e-12)
            assert row.max_v == pytest.approx(1.0, abs=1e-12)
            assert row.min_theta == pytest.approx(1.0, abs=1e-12)
            assert row.max_theta == pytest.approx(1.0, abs=1e-12)
            assert abs(row.energy_drift) <= 1e-12
