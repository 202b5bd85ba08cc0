import dataclasses
import json
import tracemalloc
import warnings

import numpy as np
import pytest

from lagns import (
    BoundaryKind,
    ConfigError,
    DiagnosticsReport,
    DiagnosticsRow,
    Grid,
    MaterialParams,
    ProfileSpec,
    Scenario,
    State,
    TIMESERIES_COLUMNS,
    compatibility_residual,
    compatible_initial_data,
    emit_snapshot,
    emit_timeseries,
    load_config,
    make_accumulator,
    make_tracker,
    manufactured_case,
    parse_config,
    parse_snapshot,
    parse_timeseries,
    run,
    with_derived,
)
from lagns.scenario import _U_AMP_MAX


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
        # no profile chosen: the run starts from the default cosine samples
        assert scenario.profile is None
        grid = Grid(16)
        start = scenario.initial_state(grid)
        wave = np.cos(np.pi * grid.centers)
        assert start.v.tobytes() == (1.0 + 0.2 * wave).tobytes()
        assert start.theta.tobytes() == (1.0 + 0.1 * wave).tobytes()
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
        # every MaterialParams field is a material key; only the unknown
        # one is listed
        material = {field.name: 2.0 for field in dataclasses.fields(MaterialParams)}
        assert parse_config(json.dumps({"material": material})).params == (
            MaterialParams(**material)
        )
        with pytest.raises(ConfigError, match=r"material key\(s\): gamma$"):
            parse_config(json.dumps({"material": {**material, "gamma": 1.4}}))

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

    @pytest.mark.parametrize("text, key", [
        ('{"t_end": N}', "t_end"),
        ('{"material": {"alpha": N}}', "material.alpha"),
        ('{"profile": {"amplitudes": {"v_base": N}}}', "profile.amplitudes.v_base"),
    ], ids=["top", "material", "amplitudes"])
    def test_integer_beyond_the_float_range_rejected(self, text, key):
        # a JSON integer is exact, so 10**400 reaches the range checks as an
        # int that no float can hold
        with pytest.raises(ConfigError, match=f"{key} must be finite, got an integer"):
            parse_config(text.replace("N", str(10**400)))

    def test_integer_longer_than_int_converts_rejected(self):
        digits = "1" + "0" * 5000
        with pytest.raises(ConfigError, match="config holds an integer of more than"):
            parse_config(f'{{"t_end": {digits}}}')

    def test_n_cells_float_rejected(self):
        with pytest.raises(ConfigError, match="integer"):
            parse_config('{"n_cells": 64.0}')

    def test_n_cells_too_small_rejected(self):
        with pytest.raises(ConfigError, match=">= 8"):
            parse_config('{"n_cells": 4}')

    def test_vacuum_amplitude_rejected(self):
        with pytest.raises(ConfigError, match="vacuum"):
            parse_config('{"profile": {"amplitudes": {"v_amp": 1.0}}}')

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_largest_velocity_amplitude_sets_up_quietly(self, sign):
        # the largest accepted |u_amp| sets up a no-slip run (wall residual,
        # accumulator, tracker) without overflow; one ulp more is rejected
        u_amp = sign * _U_AMP_MAX
        profile = ProfileSpec(amplitudes=(("u_amp", u_amp),))
        params = MaterialParams()
        for n in (8, 128, 4096):
            grid = Grid(n)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                state = compatible_initial_data(
                    profile, params, BoundaryKind.NO_SLIP, grid
                )
                compatibility_residual(state, params, BoundaryKind.NO_SLIP, grid)
                state = with_derived(state, params, grid)
                acc = make_accumulator(state, grid, params)
                tracker = make_tracker(state, grid, params)
            assert np.isfinite(acc.e0) and np.isfinite(tracker.sup_u_x_sq)
        with pytest.raises(ConfigError, match="u_amp"):
            ProfileSpec(amplitudes=(("u_amp", np.nextafter(u_amp, 2.0 * u_amp)),))

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

    @pytest.mark.parametrize("name", ["[]", "{}", "1", "true"])
    def test_non_string_mms_name(self, name):
        # an unhashable name is rejected before any lookup hashes it
        with pytest.raises(ConfigError, match="unknown mms case"):
            parse_config(f'{{"mms": {name}}}')

    @pytest.mark.parametrize("text, key", [
        ('{"n_cells": 8, "t_end": 0.05, "output_every": 0.05, "t_end": 0.01}', "t_end"),
        ('{"material": {"alpha": 1.0, "alpha": 2.0}}', "alpha"),
        ('{"profile": {"amplitudes": {"v_amp": 0.1, "v_amp": 0.2}}}', "v_amp"),
    ], ids=["top", "material", "amplitudes"])
    def test_duplicate_key_rejected(self, text, key):
        # the decoder would keep the last value without a word
        with pytest.raises(ConfigError, match=f"duplicate key '{key}'"):
            parse_config(text)

    def test_load_config_reads_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"n_cells": 16}')
        assert load_config(path).n_cells == 16

    def test_scenario_rejects_bad_scalars(self):
        with pytest.raises(ConfigError):
            Scenario(cfl=0.0)
        with pytest.raises(ConfigError, match="cfl"):
            Scenario(cfl=1.5)
        with pytest.raises(ConfigError, match="dt_min"):
            Scenario(dt_min=0.0)
        with pytest.raises(ConfigError, match="dt_max"):
            Scenario(dt_max=0.0)
        with pytest.raises(ConfigError):
            Scenario(t_end=-1.0)
        for t_end in (float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="t_end"):
                Scenario(n_cells=16, t_end=t_end)
        with pytest.raises(ConfigError):
            Scenario(output_every=0.0)
        with pytest.raises(ConfigError, match="output_every"):
            Scenario(output_every=float("nan"))
        # a row interval below the smallest step; equal to it is allowed
        with pytest.raises(ConfigError, match="output_every = 1e-11 must be >= dt_min"):
            Scenario(output_every=1e-11)
        assert Scenario(output_every=2e-3, dt_min=2e-3).output_every == 2e-3
        with pytest.raises(ConfigError, match="unknown mms case 'vortex'"):
            Scenario(mms="vortex")
        with pytest.raises(ConfigError, match=">= 8"):
            Scenario(n_cells=2)
        with pytest.raises(ConfigError, match=">= 8"):
            Scenario(n_cells=7)
        for n_cells in (16.5, float("nan"), True):
            with pytest.raises(ConfigError, match="n_cells must be an integer"):
                Scenario(n_cells=n_cells)
        with pytest.raises(ConfigError, match="dt_max"):
            Scenario(dt_max=-1.0)
        # dt_control floors every step at dt_min, so a cap below it cannot hold
        with pytest.raises(ConfigError, match="dt_max = 1e-12 must be >= dt_min"):
            Scenario(dt_min=1e-10, dt_max=1e-12)
        assert Scenario(dt_min=1e-10, dt_max=1e-10).dt_max == 1e-10
        with pytest.raises(ConfigError, match="unknown profile 'bogus'"):
            ProfileSpec(name="bogus")
        with pytest.raises(ConfigError, match="unknown profile.amplitudes key.*w_amp"):
            ProfileSpec(amplitudes=(("w_amp", 1.0),))
        with pytest.raises(ConfigError, match="vacuum"):
            ProfileSpec(amplitudes=(("v_amp", 1.5),))
        with pytest.raises(ConfigError, match="vacuum"):
            ProfileSpec(name="constant", amplitudes=(("theta", float("nan")),))

    @pytest.mark.parametrize("profile", [ProfileSpec("constant"), ProfileSpec()])
    def test_mms_with_a_profile_rejected(self, profile):
        # a manufactured run starts from its case, so any profile beside it,
        # the default one too, would be dropped without a word
        with pytest.raises(ConfigError, match="sets both 'mms' and 'profile'"):
            Scenario(mms="default", profile=profile)

    def test_mms_run_starts_from_its_case(self):
        grid = Grid(16)
        start = Scenario(mms="default").initial_state(grid)
        case = manufactured_case("default", MaterialParams())
        assert start.t == 0.0
        assert start.v.tobytes() == case.v(grid.centers, 0.0).tobytes()
        assert start.u.tobytes() == case.u(grid.nodes, 0.0).tobytes()
        assert start.theta.tobytes() == case.theta(grid.centers, 0.0).tobytes()

    @pytest.mark.parametrize("n", [8, 49, 64, 1000])
    @pytest.mark.parametrize("v, theta", [(1.0, 1.0), (0.3, 7.0), (1e150, 1e300)])
    def test_constant_profile_samples_its_values(self, n, v, theta):
        # the cosine formula at zero amplitude: exactly v, theta and +0
        grid = Grid(n)
        profile = ProfileSpec("constant", (("theta", theta), ("v", v)))
        for x in (grid.centers, grid.nodes):
            v0, theta0, u0 = profile.sample(x)
            assert v0.tobytes() == np.full(x.shape, v).tobytes()
            assert theta0.tobytes() == np.full(x.shape, theta).tobytes()
            assert u0.tobytes() == np.zeros(x.shape).tobytes()


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
            make_row(1.0 / 3.0, energy=np.nextafter(1.0, 2.0), energy_drift=-1e-300),
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


# the join-based writers that write_csv replaced, kept as the byte oracle:
# every line built in a list, joined into one string, written at once
def joined_timeseries(report):
    lines = [",".join(TIMESERIES_COLUMNS)]
    for row in report.rows:
        lines.append(
            ",".join(format(getattr(row, name), ".17g") for name in TIMESERIES_COLUMNS)
        )
    return "\n".join(lines) + "\n"


def joined_snapshot(state, grid):
    lines = ["# cells", "x,v,theta"]
    for x, v, theta in zip(grid.centers, state.v, state.theta):
        lines.append(f"{x:.17g},{v:.17g},{theta:.17g}")
    lines.append("# nodes")
    lines.append("x,u")
    for x, u in zip(grid.nodes, state.u):
        lines.append(f"{x:.17g},{u:.17g}")
    return "\n".join(lines) + "\n"


# values whose 17-digit forms are easy to get wrong: a signed zero, the
# least subnormal, a value near the top of the range, inexact decimals
EDGE_VALUES = np.array([-0.0, 5e-324, 1e308, 0.1, 1.0 / 3.0, -2.5, -1e-300])


class TestStreamedWriterBytes:
    @pytest.mark.parametrize("n", [8, 8192])
    def test_snapshot_matches_joined_writer(self, n, tmp_path):
        grid = Grid(n)
        rng = np.random.default_rng(n)

        def field(size, offset):
            values = rng.standard_normal(size)
            values[: len(EDGE_VALUES)] = np.roll(EDGE_VALUES, offset)
            return values

        state = State(
            1.0 / 3.0,
            field(grid.n_cells, 0),
            -np.abs(field(grid.n_nodes, 1)),
            field(grid.n_cells, 2),
        )
        path = tmp_path / "snap.csv"
        emit_snapshot(state, grid, path)
        assert path.read_bytes() == joined_snapshot(state, grid).encode()

    @pytest.mark.parametrize("n_rows", [0, 3])
    def test_timeseries_matches_joined_writer(self, n_rows, tmp_path):
        edge = EDGE_VALUES.tolist()
        rows = tuple(
            make_row(
                float(k),
                **{
                    name: edge[(i + k) % len(edge)]
                    for i, name in enumerate(TIMESERIES_COLUMNS[1:])
                },
            )
            for k in range(n_rows)
        )
        report = DiagnosticsReport(rows=rows, status="completed")
        path = tmp_path / "ts.csv"
        emit_timeseries(report, path)
        assert path.read_bytes() == joined_timeseries(report).encode()


def test_snapshot_writer_memory_does_not_grow_with_the_file(tmp_path):
    # the joined writer held every line and then one string of the whole
    # file, 26 MB here; streamed, the peak is the coordinate arrays and one
    # block of rows, about 1.1 MB
    grid = Grid(65536)
    state = State(
        0.5, np.full(grid.n_cells, 1.0 / 3.0), np.full(grid.n_nodes, -0.1),
        np.full(grid.n_cells, 0.7),
    )
    tracemalloc.start()
    try:
        emit_snapshot(state, grid, tmp_path / "snap.csv")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


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
