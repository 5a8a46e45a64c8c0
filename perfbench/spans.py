"""In-memory spans around popsi's layer functions, and their per-name summary.

A span is `[id, name, parent_id, start, end]` with `time.perf_counter()`
times. A span's self-time is its duration minus the durations of its
direct children; spans never overlap siblings because popsi runs on one
thread. Only the standard library is imported here, so loading this
module does not change what `import popsi.cli` costs.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("data", "linalg", "model", "metrics", "baselines")
# one-line `A.T @ B` helpers: their time stays with the caller, so that the
# self-time of `fit` is the core computation
UNTRACED = {"linalg.spmm", "linalg.spmm_t"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        rec = [len(self.spans), name, self._stack[-1] if self._stack else None,
               time.perf_counter(), None]
        self.spans.append(rec)
        self._stack.append(rec[0])
        return rec

    def _close(self, rec: list) -> None:
        rec[4] = time.perf_counter()
        self._stack.pop()

    def add(self, name: str, start: float, end: float) -> None:
        """Record a finished top-level span."""
        self.spans.append([len(self.spans), name, None, start, end])

    @contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)

        return traced

    def install(self) -> None:
        """Wrap every public function of the popsi layer modules, and numpy.linalg.qr.

        Each wrapper replaces the original in every popsi module namespace
        that binds it, because `cli`, `model` and `baselines` import names
        directly. Call after `import popsi.cli`.
        """
        import numpy.linalg

        wrapped: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            module = sys.modules[f"popsi.{layer}"]
            for attr, obj in vars(module).items():
                name = f"{layer}.{attr}"
                if (isinstance(obj, types.FunctionType) and obj.__module__ == module.__name__
                        and not attr.startswith("_") and name not in UNTRACED):
                    wrapped[id(obj)] = (obj, self.wrap(name, obj))
        qr = numpy.linalg.qr
        wrapped[id(qr)] = (qr, self.wrap("linalg.qr", qr))
        for modname, module in list(sys.modules.items()):
            if modname.split(".")[0] != "popsi" and modname != "numpy.linalg":
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])

    def dump(self, path) -> None:
        with open(path, "w") as f:
            json.dump(self.spans, f)


def new_summary() -> defaultdict:
    """Per span name: {"calls", "incl", "self"}; names never seen read as zero."""
    return defaultdict(lambda: {"calls": 0, "incl": 0.0, "self": 0.0})


def summarize(spans: list[list]) -> defaultdict:
    """Per span name: calls, inclusive time and self-time (seconds).

    Two derived names are added: `linalg.svd_mode1` and `linalg.svd_mode2`,
    the first and second `truncated_svd_left` call inside `estimate_subspaces`,
    and `layers`, the time covered by the import span plus the layer calls
    made directly by `cli.main`.
    """
    child_time: dict[int, float] = defaultdict(float)
    for sid, _, parent, start, end in spans:
        if parent is not None:
            child_time[parent] += end - start
    names = {sid: name for sid, name, *_ in spans}
    out = new_summary()

    def add(name: str, sid: int, dur: float) -> None:
        out[name]["calls"] += 1
        out[name]["incl"] += dur
        out[name]["self"] += dur - child_time[sid]

    svd_seen: dict[int, int] = defaultdict(int)
    for sid, name, parent, start, end in sorted(spans, key=lambda s: s[3]):
        dur = end - start
        add(name, sid, dur)
        if name == "linalg.truncated_svd_left" and names.get(parent) == "model.estimate_subspaces":
            svd_seen[parent] += 1
            add(f"linalg.svd_mode{svd_seen[parent]}", sid, dur)
        if name == "cli.import" or names.get(parent) == "cli.main":
            add("layers", sid, dur)
    return out
