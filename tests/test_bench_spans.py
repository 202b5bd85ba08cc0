import ast
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
SRC = Path(__file__).resolve().parents[1] / "src" / "lagns"
# the module-level imports that only the traced benchmark reads: each is
# kept so that a bench/spans.py target resolves, and goes with its target
BENCH_ONLY_IMPORTS = {
    ("lagns.driver", "velocity_band_check"),
    ("lagns.scheme", "stress"),
    ("lagns.scheme", "viscosity"),
    ("lagns.verify", "pressure"),
}


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


def module_imports(tree):
    """The names a module's top-level import statements bind."""
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0]


def module_exports(tree):
    """The names in a module's literal __all__."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def test_every_import_is_used_exported_or_traced():
    # an import a module neither reads nor exports is kept only if the
    # traced benchmark wraps it there, so a bench-only import cannot outlive
    # its target; the package __init__ is exempt, its imports are its
    # re-exports
    spans = load_bench_module("spans")
    targets = {(module, attr) for module, attr, _, _ in spans.TARGETS}
    unexplained, bench_only = [], set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        module = f"lagns.{path.stem}"
        tree = ast.parse(path.read_text(), str(path))
        read = {
            node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        exported = module_exports(tree)
        for name in module_imports(tree):
            if name in read or name in exported:
                continue
            if (module, name) in targets:
                bench_only.add((module, name))
            else:
                unexplained.append(f"{module}.{name}")
    assert unexplained == []
    assert bench_only == BENCH_ONLY_IMPORTS


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
