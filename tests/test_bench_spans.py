import importlib
import importlib.util
import json
import sys
from collections import Counter
from pathlib import Path

import lagns.cli
import lagns.driver
from lagns.driver import RunResult

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_targets_resolve():
    # the traced benchmark wraps each (module, attribute) by name; a refactor
    # that unbinds one would otherwise surface only in a traced bench run
    spans = load_bench_module("spans")
    assert spans.TARGETS
    for module_name, attr, _, _ in spans.TARGETS:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_step_counter_sees_a_cli_run(tmp_path, monkeypatch):
    # cell_steps_per_s of an untraced run counts steps at lagns.driver.step
    # and reads the RunResult captured at lagns.cli.run; a caller that stops
    # calling either through its module global would blind the benchmark;
    # worker.py imports its sibling spans.py as the top-level module "spans"
    monkeypatch.setitem(sys.modules, "spans", load_bench_module("spans"))
    worker = load_bench_module("worker")
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"n_cells": 16, "t_end": 0.05, "output_every": 0.05}))
    step, run = lagns.driver.step, lagns.cli.run
    cells, captured = [], []
    with worker.step_counter(cells, captured):
        assert lagns.cli.cmd_run(str(config), str(tmp_path / "out")) == 0
    assert len(captured) == 1 and isinstance(captured[0], RunResult)
    assert len(cells) > 0 and set(cells) == {16}
    assert lagns.driver.step is step and lagns.cli.run is run


def test_step_counter_sees_a_convergence_study(monkeypatch, capsys):
    # the levels of `lagns convergence` step through lagns.driver.step
    # without going through lagns.cli.run; mms_conv4's cell_steps_per_s is
    # this count
    monkeypatch.setitem(sys.modules, "spans", load_bench_module("spans"))
    worker = load_bench_module("worker")
    config = Path(__file__).resolve().parents[1] / "configs" / "mms_default.json"
    step, run = lagns.driver.step, lagns.cli.run
    cells, captured = [], []
    with worker.step_counter(cells, captured):
        assert lagns.cli.cmd_convergence(str(config), 3) == 0
    # each level takes t_end / dx^2 = N^2 / 4 accepted steps at dt = dx^2
    assert Counter(cells) == {16: 64, 32: 256, 64: 1024}
    assert captured == []
    assert lagns.driver.step is step and lagns.cli.run is run
