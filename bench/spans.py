"""Span recorder for the traced benchmark run (stdlib only).

Tracing replaces module attributes of lagns with wrappers, at the names the
callers bind (``lagns.driver.step`` is the ``step`` that lagns.driver calls, not
``lagns.scheme.step``). Each call records a span: name, start, end, parent
span, whether it returned, and an optional size. Spans live in per-thread
arrays in memory while the workload runs; aggregation and the one write to
disk happen after the run, and ``restore`` puts every original back.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import threading
import time
from array import array

# (module, attribute, span name, size hook). The span name's prefix before the
# first dot is the layer. A size hook maps (args, result) to an integer.
TARGETS = [
    ("lagns.driver", "run", "driver.run", None),
    ("lagns.cli", "run", "driver.run", None),
    ("lagns.driver", "step", "scheme.step", lambda a, r: a[0].v.shape[0]),
    ("lagns.driver", "dt_control", "scheme.dt_control", None),
    ("lagns.driver", "compatibility_residual", "scheme.compatibility_residual", None),
    ("lagns.scheme", "momentum_step", "scheme.momentum_step", None),
    ("lagns.scheme", "continuity_step", "scheme.continuity_step", None),
    ("lagns.scheme", "temperature_step", "scheme.temperature_step", None),
    ("lagns.scheme", "tridiagonal_solve", "scheme.tridiagonal_solve",
     lambda a, r: a[1].shape[0]),
    ("lagns.scheme", "viscosity", "constitutive.viscosity", None),
    ("lagns.scheme", "conductivity", "constitutive.conductivity", None),
    ("lagns.scheme", "sound_speed", "constitutive.sound_speed", None),
    ("lagns.scheme", "stress", "constitutive.stress", None),
    ("lagns.verify", "viscosity", "constitutive.viscosity", None),
    ("lagns.verify", "pressure", "constitutive.pressure", None),
    ("lagns.verify", "stress", "constitutive.stress", None),
    ("lagns.driver", "make_accumulator", "verify.make_accumulator", None),
    ("lagns.driver", "make_tracker", "verify.make_tracker", None),
    ("lagns.driver", "update_accumulator", "verify.update_accumulator", None),
    ("lagns.driver", "update_bounds", "verify.update_bounds", None),
    ("lagns.driver", "velocity_band_check", "verify.velocity_band_check", None),
    ("lagns.driver", "representation_residual", "verify.representation_residual", None),
    ("lagns.driver", "energy_drift", "verify.energy_drift", None),
    ("lagns.driver", "boundary_stress_residual", "verify.boundary_stress_residual", None),
    ("lagns.cli", "representation_residual", "verify.representation_residual", None),
    ("lagns.verify", "velocity_integral_factor", "verify.velocity_integral_factor", None),
    ("lagns.driver", "mms_sources", "mms.mms_sources", None),
    ("lagns.driver", "manufactured_case", "mms.manufactured_case", None),
    ("lagns.cli", "manufactured_case", "mms.manufactured_case", None),
    ("lagns.cli", "load_config", "scenario.load_config", None),
    ("lagns.cli", "emit_timeseries", "scenario.emit_timeseries",
     lambda a, r: os.path.getsize(a[1])),
    ("lagns.cli", "emit_snapshot", "scenario.emit_snapshot",
     lambda a, r: os.path.getsize(a[2])),
    ("lagns.scenario", "emit_timeseries", "scenario.emit_timeseries",
     lambda a, r: os.path.getsize(a[1])),
    ("lagns.scenario", "emit_snapshot", "scenario.emit_snapshot",
     lambda a, r: os.path.getsize(a[2])),
    ("lagns.cli", "cmd_run", "cli.cmd_run", None),
    ("lagns.cli", "cmd_convergence", "cli.cmd_convergence", None),
    ("lagns.cli", "cmd_sweep", "cli.cmd_sweep", None),
]


class _Buffer:
    """Spans of one thread, as parallel arrays indexed by span id."""

    def __init__(self, thread_id: int) -> None:
        self.thread_id = thread_id
        self.name = array("l")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        self.ok = array("b")
        self.size = array("q")
        self.stack: list[int] = []


class Tracer:
    """Spans of one traced repetition, across the threads that made them."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._buffers: list[_Buffer] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self.restored = False

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _Buffer(threading.get_ident())
            with self._lock:
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def _open(self, nid: int) -> tuple[_Buffer, int]:
        buf = self._buffer()
        idx = len(buf.start)
        buf.name.append(nid)
        buf.parent.append(buf.stack[-1] if buf.stack else -1)
        buf.ok.append(0)
        buf.size.append(0)
        buf.end.append(0)
        buf.stack.append(idx)
        buf.start.append(time.perf_counter_ns())
        return buf, idx

    @staticmethod
    def _close(buf: _Buffer, idx: int) -> None:
        buf.end[idx] = time.perf_counter_ns()
        buf.stack.pop()

    def wrap(self, name: str, fn, size_hook=None):
        nid = self._name_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf, idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(buf, idx)
            buf.ok[idx] = 1
            if size_hook is not None:
                buf.size[idx] = size_hook(args, result)
            return result

        return traced

    def span(self, name: str):
        """Context manager recording a span from the benchmark's own code."""
        return _Span(self, self._name_id(name))

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then put every
        original back; ``restored`` records whether that succeeded."""
        patched = []
        try:
            for module_name, attr, name, size_hook in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                patched.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, size_hook))
            yield self
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)
            self.restored = all(getattr(m, a) is o for m, a, o in patched)

    def spans(self):
        """Yield (thread, id, name, parent, start_ns, end_ns, ok, size)."""
        for buf in self._buffers:
            for i in range(len(buf.start)):
                yield (buf.thread_id, i, self.names[buf.name[i]], buf.parent[i],
                       buf.start[i], buf.end[i], buf.ok[i], buf.size[i])

    def summary(self, into: dict | None = None) -> dict[str, dict]:
        """Per span name: calls, returned calls, inclusive and self seconds,
        summed size, and calls per parent span name; added to ``into``."""
        out: dict[str, dict] = {} if into is None else into
        for buf in self._buffers:
            n = len(buf.start)
            child_ns = [0] * n
            for i in range(n):
                p = buf.parent[i]
                if p >= 0:
                    child_ns[p] += buf.end[i] - buf.start[i]
            for i in range(n):
                name = self.names[buf.name[i]]
                rec = out.setdefault(name, new_record())
                dur = buf.end[i] - buf.start[i]
                rec["calls"] += 1
                rec["ok"] += buf.ok[i]
                rec["incl_s"] += dur * 1e-9
                rec["self_s"] += (dur - child_ns[i]) * 1e-9
                rec["size"] += buf.size[i]
                p = buf.parent[i]
                parent = self.names[buf.name[p]] if p >= 0 else ""
                rec["by_parent"][parent] = rec["by_parent"].get(parent, 0) + 1
        return out


def new_record() -> dict:
    return {"calls": 0, "ok": 0, "incl_s": 0.0, "self_s": 0.0, "size": 0, "by_parent": {}}


class _Span:
    def __init__(self, tracer: Tracer, nid: int) -> None:
        self.tracer = tracer
        self.nid = nid

    def __enter__(self):
        self.buf, self.idx = self.tracer._open(self.nid)
        return self

    def __exit__(self, exc_type, exc, tb):
        self.tracer._close(self.buf, self.idx)
        self.buf.ok[self.idx] = exc_type is None
        return False
