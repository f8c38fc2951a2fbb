"""Outside-in layer tracing: wrap popalloc's public functions, record spans.

Each listed function is replaced at every ``popalloc.*`` module attribute
bound to it, so calls between modules are caught without editing the
package (``cli`` binds ``rank_sessions`` through ``from .allocation import
...``, for example). Spans are kept in memory as
``(name, start, end, parent, op)`` and reduced to per-op counts and self
times after each op, outside its timed region.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# Module -> wrapped functions, named as the metrics name them.
LAYERS = {
    "allocation": [
        "rank_sessions", "popularity_allocate", "equal_share_allocate",
        "equal_share_rate", "classify_regime",
    ],
    "satisfaction": [
        "compare_schemes", "satisfaction_report", "average_satisfaction",
        "session_satisfaction",
    ],
    "layers": ["quantize_allocation"],
    "simulation": ["run_trace", "apply_event", "SimState.from_census"],
    "harness": ["run_sweep", "random_census", "session_ids", "emit_sweep_outputs"],
    "formats": [
        "parse_scenario_document", "parse_trace", "allocation_document",
        "trace_result_document", "snapshot_to_dict", "dump_json",
    ],
    "cli": ["main"],
}


class LayerTracer:
    """Installs and removes the wrappers and holds the current op's spans."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.op = 0
        self._patches: list[tuple[object, str, object, object]] = []
        self._build_patches()

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)

        return traced

    def _build_patches(self) -> None:
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "popalloc" or n.startswith("popalloc."))
        ]
        for module_name, fns in LAYERS.items():
            home = sys.modules[f"popalloc.{module_name}"]
            for fn_name in fns:
                name = f"{module_name}.{fn_name}"
                if "." in fn_name:
                    cls_name, method = fn_name.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[method]
                    wrapped = classmethod(self._wrap(name, original.__func__))
                    self._patches.append((cls, method, original, wrapped))
                    continue
                original = getattr(home, fn_name)
                wrapped = self._wrap(name, original)
                for module in modules:
                    for attr, value in vars(module).items():
                        if value is original:
                            self._patches.append((module, attr, original, wrapped))

    def install(self, op: int) -> None:
        self.op = op
        self.spans.clear()
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def remove(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)


def reduce_spans(spans: list[tuple]) -> tuple[dict[str, int], dict[str, float], float]:
    """Per-name call counts and self seconds, plus the seconds the root
    spans cover. A span's self time is its duration minus its children's."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    covered = 0.0
    for (name, start, end, parent, _), children in zip(spans, child_time):
        calls[name] += 1
        self_s[name] += end - start - children
        if parent < 0:
            covered += end - start
    return calls, self_s, covered
