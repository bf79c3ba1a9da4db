"""In-memory spans for the benchmark's traced runs.

Spans are taken in the benchmark's own code, around each call it makes
into a jjshadow module; nothing inside the package is instrumented.  A
span's layer is the module named before the first dot of its name.

Geometry has no entry point the benchmark calls directly, so a traced op
wraps the geometry functions where other modules bound them.  Those calls
run hundreds of thousands of times per op, so each is added to the count
and time of the innermost open span instead of becoming a span itself.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

# (module, name) pairs through which the package reaches geometry.
GEOMETRY_BINDINGS = (
    ("synth", "actual_overlap_area"),
    ("analysis", "actual_overlap_area"),
    ("compensation", "actual_overlap_area"),
    ("cli", "evaluate_field"),
    ("cli", "actual_width_vertical"),
    ("imaging", "actual_width_vertical"),
)


@dataclass
class Span:
    name: str
    op_id: int
    parent: int | None
    start: float
    end: float = 0.0
    geometry_calls: int = 0
    geometry_s: float = 0.0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration_s(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for every op of one run; ops are told apart by op_id."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.op_id = -1

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        s = Span(name, self.op_id, parent, time.perf_counter())
        self.spans.append(s)
        self._open.append(len(self.spans) - 1)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()

    def _wrap(self, fn):
        open_, spans, clock = self._open, self.spans, time.perf_counter

        def wrapped(*args, **kwargs):
            t = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t
                if open_:
                    s = spans[open_[-1]]
                    s.geometry_calls += 1
                    s.geometry_s += dt
        return wrapped

    @contextmanager
    def op(self, op_id: int, name: str):
        """Root span of one op, with the geometry bindings wrapped."""
        self.op_id = op_id
        saved = []
        try:
            for module, attr in GEOMETRY_BINDINGS:
                mod = importlib.import_module(f"jjshadow.{module}")
                saved.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, self._wrap(getattr(mod, attr)))
            with self.span(name) as root:
                yield root
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def op_layers(self, op_id: int) -> dict[str, float]:
        """Per-layer totals of one op: '<layer>.ms', '<layer>.self_ms',
        'geometry.ms' and 'geometry.calls', plus 'op.ms' for the root."""
        mine = [(i, s) for i, s in enumerate(self.spans) if s.op_id == op_id]
        child_s: dict[int, float] = {}
        for _, s in mine:
            if s.parent is not None:
                child_s[s.parent] = child_s.get(s.parent, 0.0) + s.duration_s
        out: dict[str, float] = {"geometry.ms": 0.0, "geometry.calls": 0.0}
        for i, s in mine:
            out["geometry.ms"] += 1e3 * s.geometry_s
            out["geometry.calls"] += s.geometry_calls
            if s.parent is None:
                out["op.ms"] = 1e3 * s.duration_s
                continue
            self_s = s.duration_s - child_s.get(i, 0.0) - s.geometry_s
            for key, value in ((f"{s.layer}.ms", s.duration_s),
                               (f"{s.layer}.self_ms", self_s),
                               (f"{s.name}.ms", s.duration_s)):
                out[key] = out.get(key, 0.0) + 1e3 * value
        return out

    def write_jsonl(self, path, t_origin: float) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "op": s.op_id, "parent": s.parent,
                    "start_ms": 1e3 * (s.start - t_origin),
                    "end_ms": 1e3 * (s.end - t_origin),
                    "geometry_calls": s.geometry_calls,
                    "geometry_ms": 1e3 * s.geometry_s}) + "\n")


class NullTracer:
    """Stands in for Tracer in untraced ops: no spans, no wrapping."""

    def span(self, name: str):
        return nullcontext()

    def op(self, op_id: int, name: str):
        return nullcontext()
