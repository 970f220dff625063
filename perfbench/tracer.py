"""Span tracer that times calls into pathsig from outside the package.

``Tracer.wrap(module, attr, name)`` swaps a module attribute for a timing
wrapper.  The attribute patched is the one the *caller* looks up at call
time: ``pathsig.cli`` imported ``assemble_features`` by name, so its calls
go through ``pathsig.cli.assemble_features`` and that is what gets wrapped.
Spans (name, start, end, parent, run id, counts) stay in memory until
``write_jsonl``; ``restore`` puts every original function back.  Single
threaded: the open-span stack gives each span its parent.
"""

from __future__ import annotations

import functools
import json
import time
import types
from contextlib import contextmanager


class Tracer:
    """Records nested spans for one benchmark process."""

    def __init__(self, run_id: str = ""):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        """Time the body as one span; yields the span record for counts."""
        rec = {
            "id": len(self.spans),
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            "counts": {},
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, module, attr: str, name: str, count=None) -> None:
        """Replace ``module.attr`` with a wrapper that records span ``name``.

        ``count(args, kwargs, result)`` returns a dict of computed counts
        for the call; it runs after the span closes, so it adds nothing to
        the span's time.
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name) as rec:
                result = original(*args, **kwargs)
            if count is not None:
                rec["counts"] = count(args, kwargs, result)
            return result

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, original))

    def restore(self) -> None:
        """Undo every ``wrap``, newest first."""
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy_s (inclusive) and summed counts."""
        out: dict[str, dict[str, float]] = {}
        for rec in self.spans:
            agg = out.setdefault(rec["name"], {"calls": 0, "busy_s": 0.0})
            agg["calls"] += 1
            agg["busy_s"] += rec["end"] - rec["start"]
            for key, value in rec["counts"].items():
                agg[key] = agg.get(key, 0) + value
        return out

    def self_times(self) -> dict[str, float]:
        """Per span name: duration minus the time its direct children cover."""
        child_time = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec["parent"] is not None:
                child_time[rec["parent"]] += rec["end"] - rec["start"]
        out: dict[str, float] = {}
        for rec in self.spans:
            own = rec["end"] - rec["start"] - child_time[rec["id"]]
            out[rec["name"]] = out.get(rec["name"], 0.0) + own
        return out

    def busy_under(self, name: str, inside: str, outside: tuple[str, ...]) -> float:
        """Time of ``name`` spans nested in ``inside`` but in none of ``outside``."""
        total = 0.0
        for rec in self.spans:
            if rec["name"] != name:
                continue
            ancestors = set()
            parent = rec["parent"]
            while parent is not None:
                ancestors.add(self.spans[parent]["name"])
                parent = self.spans[parent]["parent"]
            if inside in ancestors and not ancestors.intersection(outside):
                total += rec["end"] - rec["start"]
        return total

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for rec in self.spans:
                f.write(json.dumps(rec) + "\n")


def span_cost_s(calls: int = 20_000) -> float:
    """Seconds a traced call adds to a plain one, measured on a no-op."""
    target = types.SimpleNamespace(noop=lambda: None)
    plain = target.noop
    Tracer().wrap(target, "noop", "noop")
    traced = target.noop
    t0 = time.perf_counter()
    for _ in range(calls):
        plain()
    t1 = time.perf_counter()
    for _ in range(calls):
        traced()
    t2 = time.perf_counter()
    return max((t2 - t1) - (t1 - t0), 0.0) / calls
