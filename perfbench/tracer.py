"""In-memory spans for the traced run.

A span records its name, start, end, its parent span's id and the trace
id shared by every span of one workload run.  Spans stay in memory and
are handed to the parent process when the run ends.  Layers are traced
from the benchmark's side: module attributes the CLI calls are replaced
by wrappers, so the code under test is unchanged.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager


# module -> public functions the CLI calls, each traced as one span
TRACED = {
    "graphs": ["generate", "load", "save"],
    "hierarchy": ["build_balanced", "build_grid_blocks", "validate", "load", "save"],
    "routing": ["measure"],
    "fitting": ["fit_alpha_linear", "fit_alpha_ipea", "fit_alpha_eq3"],
    "analytic": ["sweep_curve"],
    "svgplot": ["write_line_chart"],
}


class Tracer:
    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "trace": self.trace_id,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            **attrs,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def patch(self, module, attrs: list[str]) -> None:
        """Wrap module.<attr> for each attr the module still has; a span
        is named <module>.<attr>."""
        prefix = module.__name__.rsplit(".", 1)[-1]
        for attr in attrs:
            if hasattr(module, attr):
                setattr(module, attr, self.wrap(f"{prefix}.{attr}", getattr(module, attr)))


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> dict[str, float]:
    """Per span name: total duration minus the time its child spans cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += duration(s)
    out: dict[str, float] = {}
    for s in spans:
        out[s["name"]] = out.get(s["name"], 0.0) + duration(s) - child[s["id"]]
    return out

