import dataclasses
import hashlib
import json
import math
import re
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from lagns import driver, scheme, verify
from lagns import (
    BoundaryKind,
    Grid,
    MaterialParams,
    Scenario,
    State,
    advance,
    boundary_stress_residual,
    compatible_initial_data,
    forcing,
    load_config,
    make_accumulator,
    make_tracker,
    manufactured_case,
    mms_sources,
    parse_config,
    representation_residual,
    run,
    verification_table,
    with_derived,
)
from lagns.scenario import ProfileSpec

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
# a violent initial velocity drives compression hard enough that halving
# bottoms out at dt_min and the run aborts mid-flight (at t = 0.022),
# keeping the rows recorded before the failure; with dt_max 5e-5 and no
# floor the same run completes
ABORT_SCENARIO = Scenario(
    bc=BoundaryKind.NO_SLIP,
    profile=ProfileSpec(name="cosine", amplitudes=(("u_amp", 60.0),)),
    n_cells=32,
    t_end=2.0,
    output_every=2e-3,
    dt_min=2e-3,
    cfl=1.0,
)

# the same violence with u_amp 50 completes, but the acoustic limit of 999
# of its 1000 steps falls below dt_min (by up to 13.6 times), so they take
# dt_min; its first step, not floored, is halved 3 times
FLOORED_SCENARIO = dataclasses.replace(
    ABORT_SCENARIO,
    profile=ProfileSpec(name="cosine", amplitudes=(("u_amp", 50.0),)),
    output_every=0.5,
)

# a CFL-limited no-slip run in which two step attempts are rejected and
# retried at a halved dt
HALVING_SCENARIO = Scenario(
    bc=BoundaryKind.NO_SLIP,
    profile=ProfileSpec(name="cosine", amplitudes=(("u_amp", 50.0),)),
    n_cells=32, t_end=0.05, output_every=0.01, cfl=1.0,
)
# a refinement run whose cap dt_max = 2/N^2 binds on every step
CAPPED_SCENARIO = Scenario(n_cells=64, t_end=0.1, output_every=0.05, dt_max=2.0 / 64**2)


class TestRun:
    def test_default_scenario_completes(self):
        result = run(Scenario(n_cells=64))
        assert result.report.status == "completed"
        assert result.report.halvings == 0
        times = [row.t for row in result.report.rows]
        np.testing.assert_allclose(times, [0.1, 0.2, 0.3, 0.4, 0.5], atol=1e-12)
        assert result.state.t == pytest.approx(0.5, abs=1e-12)

    def test_output_times_hit_exactly(self):
        # dt is snapped down so rows land on exact multiples of output_every;
        # a t_end that is not a multiple yields no extra row
        result = run(Scenario(n_cells=32, t_end=0.25, output_every=0.1))
        times = [row.t for row in result.report.rows]
        assert times == pytest.approx([0.1, 0.2], abs=1e-14)
        assert result.state.t == pytest.approx(0.25, abs=1e-14)

    @pytest.mark.parametrize("t_end, n_rows", [(5e-12, 50), (1e-12, 10)])
    def test_picosecond_run_reaches_t_end(self, t_end, n_rows):
        # reaching t_end or an output time is judged relative to that time:
        # an absolute 1e-12 stopped these runs, still "completed", at
        # t = 4e-12 with 40 rows and at t = 0 with none
        result = run(parse_config(json.dumps({
            "n_cells": 16, "t_end": t_end, "output_every": 1e-13, "dt_min": 1e-14,
        })))
        assert result.report.status == "completed"
        assert result.state.t == pytest.approx(t_end, rel=1e-12)
        times = [row.t for row in result.report.rows]
        want = [k * 1e-13 for k in range(1, n_rows + 1)]
        assert times == pytest.approx(want, rel=1e-12)

    def test_rows_strictly_increasing(self):
        result = run(Scenario(n_cells=32, t_end=0.3, output_every=0.05))
        times = [row.t for row in result.report.rows]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_no_slip_steady_run_is_exact(self):
        scenario = Scenario(
            bc=BoundaryKind.NO_SLIP,
            profile=ProfileSpec(name="constant"),
            n_cells=64,
            t_end=1.0,
            output_every=0.25,
        )
        result = run(scenario)
        assert result.report.status == "completed"
        for row in result.report.rows:
            assert abs(row.energy_drift) <= 1e-12
        np.testing.assert_allclose(result.state.v, 1.0, atol=1e-12)
        np.testing.assert_allclose(result.state.u, 0.0, atol=1e-12)
        np.testing.assert_allclose(result.state.theta, 1.0, atol=1e-12)

    def test_mms_run_completes(self):
        scenario = Scenario(
            bc=BoundaryKind.NO_SLIP, n_cells=16, t_end=0.1, output_every=0.1,
            mms="default",
        )
        result = run(scenario)
        assert result.report.status == "completed"

    @pytest.mark.parametrize("name", ["noslip_steady", "mms_default"])
    def test_no_slip_walls_exactly_at_rest(self, name):
        # the wall rows are the identity and the rows next to them do not
        # couple to the walls, so the LDL^T solve returns them as exactly 0
        result = run(load_config(CONFIGS / f"{name}.json"))
        assert result.report.status == "completed"
        assert result.state.u[0] == 0.0 and result.state.u[-1] == 0.0
        for row in result.report.rows:
            assert row.boundary_resid_left == row.boundary_resid_right == 0.0

    def test_floored_steps_are_counted(self):
        report = run(FLOORED_SCENARIO).report
        assert report.status == "completed"
        assert (report.floored_steps, report.halvings) == (999, 3)
        assert run(load_config(CONFIGS / "default.json")).report.floored_steps == 0

    def test_abort_keeps_partial_rows(self):
        result = run(ABORT_SCENARIO)
        assert result.report.status == "aborted"
        assert "volume" in result.report.abort_reason
        assert result.state.t < 2.0
        assert len(result.report.rows) > 0
        assert result.report.halvings > 0
        # the abort flushed the open block: the instruments reached the
        # last accepted state
        assert result.accumulator.t == result.state.t
        residual = representation_residual(
            result.state, result.accumulator, result.grid
        )
        assert np.isfinite(residual)


def bits(value):
    """Equal reprs of floats, and equal bytes of arrays, are equal bits."""
    return value.tobytes() if isinstance(value, np.ndarray) else repr(value)


def fold_bits(result):
    """What the instruments' block folds fed into a run's result."""
    acc = result.accumulator
    return {
        "rows": repr(result.report.rows),
        "time_integral": bits(acc.time_integral),
        "last_integrand": bits(acc.last_integrand),
        "t": repr(acc.t),
        **{
            field.name: bits(getattr(result.tracker, field.name))
            for field in dataclasses.fields(verify.BoundTracker)
        },
    }


class TestBlockSize:
    @pytest.mark.parametrize("scenario", [
        pytest.param(Scenario(n_cells=32, t_end=0.2, output_every=0.05), id="short"),
        pytest.param(ABORT_SCENARIO, id="abort"),
        pytest.param(
            Scenario(n_cells=32, t_end=0.25, output_every=0.1), id="t_end_off_rows"
        ),
    ])
    # one step per block, and blocks of 3 steps (99 // 33 nodes) that end
    # out of step with the output rows
    @pytest.mark.parametrize("block_values", [1, 3 * 33])
    def test_results_bit_identical(self, monkeypatch, scenario, block_values):
        expected = fold_bits(run(scenario))
        monkeypatch.setattr(driver, "BLOCK_VALUES", block_values)
        assert fold_bits(run(scenario)) == expected


class TestBlockFold:
    def test_one_cumulative_integral_per_flush(self, monkeypatch):
        # the accumulator takes the velocity exponent of a whole block from
        # one cumulative velocity integral
        calls = []
        per_flush = []
        integral, flush = verify.cumulative_u_integral, driver._Block.flush

        def counted_integral(*args):
            calls.append(args)
            return integral(*args)

        def counted_flush(self, acc, tracker):
            before, pending = len(calls), len(self.states)
            flush(self, acc, tracker)
            if pending:
                per_flush.append((pending, len(calls) - before))

        monkeypatch.setattr(verify, "cumulative_u_integral", counted_integral)
        monkeypatch.setattr(driver._Block, "flush", counted_flush)
        run(Scenario(n_cells=32, t_end=0.2, output_every=0.05))
        assert max(pending for pending, _ in per_flush) > 1
        assert {count for _, count in per_flush} == {1}

    def test_folding_one_large_state_makes_no_copies(self):
        # from N = 2048 on a block holds one state: its rows view the
        # state's arrays and the fold reuses its temporaries, so folding one
        # state at N = 8192 peaks at about 6 arrays of N values; stacking a
        # copy of each of the state's 7 fields peaked at 14
        grid, params = Grid(8192), MaterialParams()
        profile = ProfileSpec(name="cosine")
        first = with_derived(
            compatible_initial_data(profile, params, BoundaryKind.STRESS_FREE, grid),
            params, grid,
        )
        acc = make_accumulator(first, grid, params)
        tracker = make_tracker(first, grid, params)
        later = State(1e-4, first.v * 1.001, first.u + 0.01, first.theta * 0.999)
        block = driver._Block(grid)
        assert block.push(with_derived(later, params, grid), 1e-4)
        tracemalloc.start()
        try:
            block.flush(acc, tracker)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert acc.t == 1e-4
        assert peak < 8 * 8 * grid.n_cells


class TestDerivedFieldsOnce:
    @pytest.mark.parametrize("scenario, halvings", [
        pytest.param(Scenario(n_cells=64, t_end=0.2), 0, id="default"),
        pytest.param(HALVING_SCENARIO, 2, id="halvings"),
    ])
    def test_volume_power_once_per_attempt(self, monkeypatch, scenario, halvings):
        # the volume power v**-alpha is evaluated once per step attempt, by
        # scheme.volume_terms, plus once for the initial state; the momentum
        # step, its retries at a halved dt, and the instruments read the
        # state's derived fields instead of evaluating the laws again
        counts = {"terms": 0, "attempts": 0, "steps": 0}
        law_volumes = []
        terms, advance = scheme.volume_terms, driver.step

        def counted_terms(*args):
            counts["terms"] += 1
            return terms(*args)

        def counted_step(*args, **kwargs):
            counts["attempts"] += 1
            new_state = advance(*args, **kwargs)
            counts["steps"] += 1
            return new_state

        def counted_law(law):
            def counted(*args):
                law_volumes.append(args[0])
                return law(*args)
            return counted

        monkeypatch.setattr(scheme, "volume_terms", counted_terms)
        monkeypatch.setattr(driver, "step", counted_step)
        for module, name in (
            (scheme, "viscosity"), (verify, "viscosity"), (verify, "pressure")
        ):
            monkeypatch.setattr(module, name, counted_law(getattr(module, name)))
        result = run(scenario)
        assert result.report.status == "completed"
        assert result.report.halvings == halvings
        assert counts["attempts"] - counts["steps"] == halvings
        assert counts["steps"] + 1 <= counts["terms"] <= counts["attempts"] + 1
        # the one law evaluated is mu(inf), once per run, which weighs the
        # volume representation
        assert law_volumes == [np.inf]


class TestStateExtrema:
    """The gates of a step find its state's extrema once; dt_control, the
    tracker and the output rows read them."""

    @staticmethod
    def counted(monkeypatch):
        """Count the sound-speed evaluations and the step attempts and
        accepted steps of the runs that follow, and record the accepted
        states with the steps that made them."""
        counts = {"sound_speed": 0, "attempts": 0, "steps": 0}
        states, dts = [], []
        law, advance = scheme.sound_speed, driver.step

        def counted_law(*args):
            counts["sound_speed"] += 1
            return law(*args)

        def counted_step(state, dt, *args, **kwargs):
            counts["attempts"] += 1
            new_state = advance(state, dt, *args, **kwargs)
            counts["steps"] += 1
            if not states:
                states.append(state)
            states.append(new_state)
            dts.append(dt)
            return new_state

        monkeypatch.setattr(scheme, "sound_speed", counted_law)
        monkeypatch.setattr(driver, "step", counted_step)
        return counts, states, dts

    def test_capped_run_evaluates_no_sound_speed(self, monkeypatch):
        counts, _, _ = self.counted(monkeypatch)
        result = run(CAPPED_SCENARIO)
        assert result.report.status == "completed"
        assert counts["steps"] == counts["attempts"] > 200
        assert counts["sound_speed"] == 0

    def test_cfl_limited_run_evaluates_one_per_step(self, monkeypatch):
        # dt_control runs once per accepted step: a rejected attempt is
        # retried at half its dt, which evaluates no limit again
        counts, _, _ = self.counted(monkeypatch)
        result = run(HALVING_SCENARIO)
        assert result.report.status == "completed"
        assert counts["attempts"] - counts["steps"] == result.report.halvings == 2
        assert counts["sound_speed"] == counts["steps"]

    @pytest.mark.parametrize("scenario", [
        pytest.param(CAPPED_SCENARIO, id="capped"),
        pytest.param(HALVING_SCENARIO, id="halvings"),
    ])
    def test_tracker_and_rows_match_a_reduction_of_every_state(
        self, monkeypatch, scenario
    ):
        _, states, dts = self.counted(monkeypatch)
        result = run(scenario)
        assert result.report.status == "completed"
        tracker = result.tracker
        min_v = min_theta = math.inf
        int_max_theta = 0.0
        for state in states:
            min_v = min(min_v, float(np.min(state.v)))
            min_theta = min(min_theta, float(np.min(state.theta)))
        for before, dt in zip(states, dts):
            int_max_theta += dt * float(np.max(before.theta))
        assert repr(tracker.min_v) == repr(min_v)
        assert repr(tracker.min_theta) == repr(min_theta)
        assert repr(tracker.int_max_theta) == repr(int_max_theta)
        at = {state.t: state for state in states}
        for row in result.report.rows:
            state = at[row.t]
            columns = (row.min_v, row.max_v, row.min_theta, row.max_theta)
            want = (
                np.min(state.v), np.max(state.v), np.min(state.theta),
                np.max(state.theta),
            )
            assert list(map(repr, columns)) == list(map(repr, map(float, want)))


def mms_scenario(n_cells):
    """configs/mms_default.json at n_cells, capped at dt_max = dx^2 as the
    levels of a convergence study are."""
    return dataclasses.replace(
        load_config(CONFIGS / "mms_default.json"), n_cells=n_cells,
        dt_max=1.0 / n_cells**2,
    )


# the degenerate deep case (beta = 8) at dt_max = dx/4: at N = 32, 20 step
# attempts are rejected and halved and 33 of the 64 run at the cap
DEEP_DX4 = Scenario(
    params=MaterialParams(beta=8.0), bc=BoundaryKind.NO_SLIP, n_cells=32,
    t_end=0.25, output_every=0.25, mms="deep", dt_max=0.25 / 32,
)
# sha256 of the float64 bytes of DEEP_DX4's final v, u and theta: the one
# pinned run whose capped stretches are cut by halved retries
DEEP_DX4_DIGEST = "72b973a215a7a2d12de39deea063f470d19e4b609a92df457227a820692a4655"


class TestSourceQueue:
    """The run makes the forcing of predicted steps ahead, many times per
    mms_sources call; a row is used only at its exact time and dt."""

    @staticmethod
    def counted(monkeypatch):
        """Count the mms_sources calls, the rows they evaluate and the step
        attempts of the runs that follow."""
        counts = {"calls": 0, "rows": 0, "attempts": 0, "widest": 0}
        sources, advance = driver.mms_sources, driver.step

        def counted_sources(case, grid, times):
            counts["calls"] += 1
            counts["rows"] += np.size(times)
            # the values of the call's widest temporary, a row of N + 1
            # nodes per time
            widest = np.size(times) * grid.n_nodes
            counts["widest"] = max(counts["widest"], widest)
            return sources(case, grid, times)

        def counted_step(*args, **kwargs):
            counts["attempts"] += 1
            return advance(*args, **kwargs)

        monkeypatch.setattr(driver, "mms_sources", counted_sources)
        monkeypatch.setattr(driver, "step", counted_step)
        return counts

    @pytest.mark.parametrize("scenario, halvings", [
        pytest.param(mms_scenario(16), 0, id="default_n16_dx2"),
        pytest.param(mms_scenario(64), 0, id="default_n64_dx2"),
        pytest.param(DEEP_DX4, 20, id="deep_n32_dx4"),
    ])
    def test_run_bit_identical_to_one_call_per_time(
        self, monkeypatch, scenario, halvings
    ):
        def run_bits(result):
            acc, state = result.accumulator, result.state
            return {
                **fold_bits(result),
                **{f"acc.{field.name}": bits(getattr(acc, field.name))
                   for field in dataclasses.fields(verify.RepresentationAccumulator)},
                **{f"state.{name}": bits(getattr(state, name))
                   for name in ("t", "v", "u", "theta")},
            }

        result = run(scenario)
        assert result.report.status == "completed"
        assert result.report.halvings == halvings
        batched = run_bits(result)
        sources = driver.mms_sources

        def one_call_per_time(case, grid, times):
            rows = [sources(case, grid, [t]) for t in times]
            return tuple(np.concatenate(parts) for parts in zip(*rows))

        monkeypatch.setattr(driver, "mms_sources", one_call_per_time)
        assert run_bits(run(scenario)) == batched

    def test_rows_are_keyed_by_time_and_dt(self, monkeypatch):
        # from t = 1 + 2**-40, a capped step of dt_max = 2**-40 and a step of
        # dt' = dt_max (1 - 2**-20) land on one float; the row made ahead for
        # the capped step is dt_max times the sources there, not dt' times
        params = MaterialParams()
        case, grid = manufactured_case("default", params), Grid(16)
        dt_max = 2.0**-40
        t, dt = 1.0 + dt_max, dt_max * (1.0 - 2.0**-20)
        assert dt != dt_max and t + dt == t + dt_max

        def made(time, dt):
            rows = forcing(mms_sources(case, grid, [time]), dt, params)
            return [bits(row[0]) for row in rows]

        counts = self.counted(monkeypatch)
        queue = driver._SourceQueue(case, grid, dt_max)
        assert list(map(bits, queue.at(1.0, dt_max, 2.0))) == made(t, dt_max)
        # the head row is at t + dt', made at dt_max: the step refills
        assert queue.rows[0][0] == t + dt
        assert list(map(bits, queue.at(t, dt, 2.0))) == made(t + dt, dt)
        assert counts["calls"] == 2
        # a capped stretch is still served from one call, row by row
        time = t + dt
        for _ in range(5):
            got = queue.at(time, dt_max, 2.0)
            time += dt_max
            assert list(map(bits, got)) == made(time, dt_max)
        assert counts["calls"] == 3

    def test_deep_dx4_final_state_is_pinned(self):
        _, state, report = advance(DEEP_DX4)
        assert report.status == "completed"
        assert report.halvings == 20
        fields = b"".join(a.tobytes() for a in (state.v, state.u, state.theta))
        assert hashlib.sha256(fields).hexdigest() == DEEP_DX4_DIGEST

    def test_capped_levels_share_their_calls(self, monkeypatch):
        # the levels of a convergence study step at the cap dt_max = dx^2, so
        # one call covers up to BLOCK_VALUES // (N + 1) steps: 240, 124, 63
        # and 31 at N = 16, 32, 64 and 128
        counts = self.counted(monkeypatch)
        calls = []
        for n in (16, 32, 64, 128):
            counts.update(calls=0, rows=0, attempts=0)
            result = run(mms_scenario(n))
            assert result.report.halvings == 0
            # every evaluated row is used, by exactly one step
            assert counts["rows"] == counts["attempts"] == n * n // 4
            calls.append(counts["calls"])
        assert calls == [1, 3, 17, 133]

    @pytest.mark.parametrize("scenario, fills", [
        # the level at N = 16 has 64 steps, fewer than a call can hold
        *(pytest.param(mms_scenario(n), n > 16, id=f"default_n{n}_dx2")
          for n in (16, 32, 64, 128)),
        pytest.param(DEEP_DX4, False, id="deep_n32_dx4"),
    ])
    def test_calls_stay_within_block_values(self, monkeypatch, scenario, fills):
        # every temporary of a call spans N or N + 1 values per time, so the
        # rows of a call times N + 1 are at most BLOCK_VALUES; a level with
        # more capped steps than that fills a call to the cap
        counts = self.counted(monkeypatch)
        run(scenario)
        assert 0 < counts["widest"] <= driver.BLOCK_VALUES
        n_nodes = scenario.n_cells + 1
        if fills:
            assert counts["widest"] == driver.BLOCK_VALUES // n_nodes * n_nodes

    @pytest.mark.parametrize("name, halvings", [
        ("mms_default.json", 0), ("mms_deep.json", 52),
    ])
    def test_cfl_limited_runs_evaluate_one_row_per_attempt(
        self, monkeypatch, name, halvings
    ):
        counts = self.counted(monkeypatch)
        result = run(load_config(CONFIGS / name))
        assert result.report.status == "completed"
        assert result.report.halvings == halvings
        assert counts["calls"] == counts["rows"] == counts["attempts"]


class TestAdvance:
    """advance takes run's steps without the instruments."""

    @pytest.mark.parametrize("scenario, status", [
        *(
            pytest.param(load_config(path), "completed", id=path.stem)
            for path in sorted(CONFIGS.glob("*.json"))
        ),
        # halvings that cross dt_min
        pytest.param(ABORT_SCENARIO, "aborted", id="abort"),
    ])
    def test_bit_identical_to_run(self, scenario, status):
        result = run(scenario)
        grid, state, report = advance(scenario)
        assert grid.n_cells == result.grid.n_cells
        for name in ("t", "v", "u", "theta"):
            assert bits(getattr(state, name)) == bits(getattr(result.state, name)), name
        assert state.derived is None
        assert report.status == result.report.status == status
        assert report.abort_reason == result.report.abort_reason
        assert report.halvings == result.report.halvings
        assert report.floored_steps == result.report.floored_steps
        assert report.rows == ()

    def test_initial_state_is_freed_as_the_run_moves_on(self, monkeypatch):
        # a state is 7 arrays of N values: from the third step on, the run
        # holds only the two states that the next step reads
        made, alive = [], []
        derive, advance_step = driver.with_derived, driver.step

        def recorded(*args):
            state = derive(*args)
            made.append(weakref.ref(state))
            return state

        def checked(*args):
            alive.append(made[0]() is not None)
            return advance_step(*args)

        monkeypatch.setattr(driver, "with_derived", recorded)
        monkeypatch.setattr(driver, "step", checked)
        run(Scenario(n_cells=16, t_end=0.2, output_every=0.1))
        assert len(made) == 1
        assert alive[:3] == [True, True, False]


class TestWallDefects:
    """The t = 0 defect and each row's are one measure, each against the
    wall stress imposed at its own time."""

    def test_forced_stress_free_run_measures_the_imposed_stress(self):
        scenario = Scenario(
            bc=BoundaryKind.STRESS_FREE, n_cells=16, t_end=0.05,
            output_every=0.05, mms="default", dt_max=1.0 / 256,
        )
        result = run(scenario)
        grid, params, bc = result.grid, scenario.params, scenario.bc
        case = manufactured_case(scenario.mms, params)
        start = scenario.initial_state(grid)
        want = boundary_stress_residual(start, params, grid, bc, case.wall_stress(0.0))
        assert bits(result.initial_residual[:2]) == bits(np.array(want))

        (row,) = result.report.rows
        got = np.array([row.boundary_resid_left, row.boundary_resid_right])
        imposed = case.wall_stress(row.t)
        want = boundary_stress_residual(result.state, params, grid, bc, imposed)
        assert bits(got) == bits(np.array(want))
        # the defect against zero stress is O(1) here, not a discretization
        # error, so measuring against it would be a different check
        unforced = boundary_stress_residual(result.state, params, grid, bc)
        assert np.all(got < 0.01) and np.all(np.array(unforced) > 0.5)


class TestVerificationTable:
    def test_default_config_all_pass(self):
        result = run(parse_config("{}"))
        checks = verification_table(result)
        assert len(checks) == 6
        names = [c.name for c in checks]
        assert "volume representation" in names
        assert "energy conservation" in names
        assert all(c.passed for c in checks), [
            (c.name, c.detail) for c in checks if not c.passed
        ]

    def test_readme_lists_the_checks_in_order(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## Verification checks\n", 1)[1].split("\n## ", 1)[0]
        documented = re.findall(r"^- \*\*(.+?)\*\*", section, flags=re.MULTILINE)
        checks = verification_table(run(parse_config("{}")))
        assert documented == [c.name for c in checks]

    @pytest.mark.parametrize("field, name", [
        ("repr_residual", "volume representation"),
        ("energy_drift", "energy conservation"),
        ("boundary_resid_right", "boundary compatibility"),
    ])
    def test_nan_in_a_later_row_fails_its_check(self, field, name):
        result = run(parse_config(
            '{"n_cells": 16, "t_end": 0.2, "output_every": 0.1}'
        ))
        first, second = result.report.rows
        rows = (first, dataclasses.replace(second, **{field: np.nan}))
        result = dataclasses.replace(
            result, report=dataclasses.replace(result.report, rows=rows)
        )
        checks = {c.name: c for c in verification_table(result)}
        assert not checks[name].passed
        assert "nan" in checks[name].detail
        assert [c for c in checks.values() if not c.passed] == [checks[name]]

    def test_alpha_zero_all_pass(self):
        result = run(parse_config('{"material": {"alpha": 0}}'))
        checks = verification_table(result)
        assert all(c.passed for c in checks)

    def test_row_checks_fail_without_rows(self):
        # t_end < output_every records no row: the checks that read rows
        # have checked nothing and must not pass
        result = run(Scenario(n_cells=16, t_end=0.05, output_every=0.1))
        assert result.report.rows == ()
        checks = {c.name: c for c in verification_table(result)}
        row_checks = [check.name for check in verify.CHECKS if check.reads_rows]
        assert row_checks
        for name in row_checks:
            assert not checks[name].passed
            assert checks[name].detail == "no output row was recorded"
        assert checks["positivity floors"].passed

    def test_final_state_after_last_row_is_judged(self):
        # t_end is not a multiple of output_every: the one row (t = 0.004)
        # is inside the tolerance, the final state (t = 0.0079) is not
        scenario = dataclasses.replace(
            load_config(CONFIGS / "noslip_steady.json"),
            t_end=0.0079,
            output_every=0.004,
        )
        result = run(scenario)
        assert [row.t for row in result.report.rows] == pytest.approx([0.004])
        assert result.report.rows[0].repr_residual < 5e-3
        checks = {c.name: c for c in verification_table(result)}
        assert not checks["volume representation"].passed
        assert "max residual 7.900e-03" in checks["volume representation"].detail
        assert checks["energy conservation"].passed

    def test_checks_carry_numeric_detail(self):
        result = run(Scenario(n_cells=32, t_end=0.2, output_every=0.1))
        for check in verification_table(result):
            assert check.name
            assert check.detail
