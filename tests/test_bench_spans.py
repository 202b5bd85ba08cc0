import importlib
import importlib.util
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_targets_resolve():
    # the traced benchmark wraps each (module, attribute) by name; a refactor
    # that unbinds one would otherwise surface only in a traced bench run
    spans = load_spans()
    assert spans.TARGETS
    for module_name, attr, _, _ in spans.TARGETS:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"
