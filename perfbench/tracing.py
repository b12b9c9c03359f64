"""Tracing from outside the program.

The tracer replaces public functions at the name their caller looks up
(stages calls `motion_gate.segment_scenes`, so that attribute is the one
wrapped) and puts the originals back when it exits. Scene-level functions
open a span each; hot per-call functions only add a count and a time to
the innermost open span, which keeps the cost per call small. Spans stay
in memory until the benchmark writes them out at the end.

Times are inclusive: a wrapped function called by another wrapped one is
counted in both, e.g. `stages.read_jsonl` inside `stages.read_trajectories`.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

SCENE = "scene"
HOT = "hot"

_MARK = "_perfbench_wrapper"


def _result_len(args, result):
    return len(result)


def _first_arg_len(args, result):
    return len(args[0])


# (module, attribute the caller looks up, layer name, kind, items counter)
TARGETS = (
    ("crossrisk.synth", "generate", "synth.generate", HOT, None),
    ("crossrisk.synth", "segment_scenes", "synth.segment_scenes", HOT, None),
    ("crossrisk.stages", "parse_detections", "ingest.parse_detections", HOT,
     _result_len),
    ("crossrisk.stages", "parse_spot_config", "ingest.parse_spot_config", HOT,
     None),
    ("crossrisk.geometry", "fit_homography", "geometry.fit_homography", HOT,
     None),
    ("crossrisk.motion_gate", "segment_scenes", "motion_gate.segment_scenes",
     HOT, _result_len),
    ("crossrisk.tracker", "track_scene", "tracker.track_scene", SCENE,
     _first_arg_len),
    ("crossrisk.tracker", "kalman_predict", "tracker.kalman_predict", HOT, None),
    ("crossrisk.tracker", "kalman_update", "tracker.kalman_update", HOT, None),
    ("crossrisk.tracker", "assign", "tracker.assign", HOT, None),
    ("crossrisk.features", "extract_scene_features",
     "features.extract_scene", SCENE, None),
    ("crossrisk.features", "psm", "features.psm", HOT, None),
    ("crossrisk.features", "classify_zones", "features.classify_zones", HOT,
     None),
    ("crossrisk.stages", "write_jsonl", "stages.write_jsonl", HOT, None),
    ("crossrisk.stages", "read_jsonl", "stages.read_jsonl", HOT, None),
    ("crossrisk.stages", "read_trajectories", "stages.read_trajectories", HOT,
     None),
    ("crossrisk.stages", "features_to_record", "stages.features_to_record",
     HOT, None),
    ("crossrisk.stages", "record_to_features", "stages.record_to_features",
     HOT, None),
    ("crossrisk.analytics", "weighted_merge", "analytics.weighted_merge", HOT,
     None),
    ("crossrisk.analytics", "stopping_by_psm_range", "analytics.range_table",
     HOT, None),
    ("crossrisk.analytics", "emit_report", "analytics.emit_report", HOT, None),
)


@dataclass
class Call:
    """Aggregate of one hot function under one span."""

    count: int = 0
    seconds: float = 0.0
    failed: int = 0
    items: int = 0


@dataclass
class Span:
    span_id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    error: str | None = None
    calls: dict[str, Call] = field(default_factory=dict)
    items: int = 0

    @property
    def seconds(self) -> float:
        return self.end - self.start


def installed_wrappers() -> list[str]:
    """Targets that currently carry a tracing wrapper; empty when the
    program runs untouched."""
    return [f"{module}.{attr}" for module, attr, *_ in TARGETS
            if getattr(getattr(importlib.import_module(module), attr), _MARK,
                       False)]


class Tracer:
    """Spans of one traced run. Use as a context manager: entering wraps
    every target, leaving restores the originals."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._originals: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        self._root = self._open("trace")
        for module_name, attr, name, kind, items in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            wrap = self._scene if kind == SCENE else self._hot
            setattr(module, attr, wrap(original, name, items))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()
        self._close(self._root)

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(len(self.spans), parent, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        except Exception as exc:
            span.error = type(exc).__name__
            raise
        finally:
            self._close(span)

    def _scene(self, fn, name, items):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as span:
                if items is not None:
                    span.items = items(args, None)
                return fn(*args, **kwargs)
        setattr(wrapper, _MARK, True)
        return wrapper

    def _hot(self, fn, name, items):
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls = stack[-1].calls
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                call = calls.setdefault(name, Call())
                call.count += 1
                call.failed += 1
                call.seconds += clock() - start
                raise
            call = calls.setdefault(name, Call())
            call.count += 1
            call.seconds += clock() - start
            if items is not None:
                call.items += items(args, result)
            return result
        setattr(wrapper, _MARK, True)
        return wrapper

    def totals(self) -> dict[str, Call]:
        """Every hot function's calls summed over all spans."""
        out: dict[str, Call] = {}
        for span in self.spans:
            for name, call in span.calls.items():
                total = out.setdefault(name, Call())
                total.count += call.count
                total.seconds += call.seconds
                total.failed += call.failed
                total.items += call.items
        return out

    def scene_spans(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def to_json(self) -> dict:
        return {"trace_id": self.trace_id, "spans": [{
            "id": s.span_id, "parent": s.parent, "name": s.name,
            "start": s.start, "end": s.end, "error": s.error, "items": s.items,
            "calls": {k: [c.count, c.seconds, c.failed, c.items]
                      for k, c in sorted(s.calls.items())},
        } for s in self.spans]}
