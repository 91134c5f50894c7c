"""In-memory spans around calls into spinsense's public functions.

A span is one timed call: name, layer, start and end (``perf_counter_ns``,
which is CLOCK_MONOTONIC on Linux and so comparable across processes), the
id of the span that was open when it started, and the op it belongs to.  The library is measured from
outside: ``instrument`` swaps each public module-level function of a layer
for a timing wrapper and restores the originals on exit, so an untraced run
executes the library untouched.

Only stdlib is imported here, so the traced CLI child can load it before
timing ``import spinsense``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import time

LAYERS = ("import", "spin", "wigner", "metrics", "codes", "sensing", "estimation", "cli")
LIBRARY_LAYERS = LAYERS[1:]


class Recorder:
    """Collects closed spans in memory; ``op`` labels the spans that follow."""

    def __init__(self, op: str = "setup"):
        self.spans: list[dict] = []
        self.op = op
        self.enabled = True
        self._stack: list[int] = []
        self._next_id = 0

    @contextlib.contextmanager
    def span(self, name: str, layer: str | None):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append(
                {
                    "id": sid,
                    "name": name,
                    "layer": layer,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "op": self.op,
                }
            )

    def adopt(self, foreign: list[dict]) -> None:
        """Add spans recorded by a child process under the open span."""
        parent = self._stack[-1] if self._stack else None
        base = self._next_id
        for s in foreign:
            s = dict(s, id=base + s["id"], op=self.op)
            s["parent"] = parent if s["parent"] is None else base + s["parent"]
            self._next_id = max(self._next_id, s["id"] + 1)
            self.spans.append(s)


def span(rec: Recorder | None, name: str, layer: str | None):
    """``rec.span(...)``, or a no-op when the run is untraced."""
    return contextlib.nullcontext() if rec is None else rec.span(name, layer)


def _wrap(rec: Recorder, name: str, layer: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not rec.enabled:
            return fn(*args, **kwargs)
        with rec.span(name, layer):
            return fn(*args, **kwargs)

    return traced


@contextlib.contextmanager
def instrument(rec: Recorder | None):
    """Wrap every public function defined in ``spinsense.<layer>``.

    Calls that go through the module attribute (the CLI, the benchmark, and
    calls inside the same module) are spanned; names another module bound
    with ``from .x import f`` stay unwrapped, so their time counts as the
    caller's layer.
    """
    if rec is None:
        yield
        return
    saved = []
    for layer in LIBRARY_LAYERS:
        mod = importlib.import_module(f"spinsense.{layer}")
        for name, fn in list(vars(mod).items()):
            if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            setattr(mod, name, _wrap(rec, f"{layer}.{name}", layer, fn))
            saved.append((mod, name, fn))
    try:
        yield
    finally:
        for mod, name, fn in saved:
            setattr(mod, name, fn)


def self_times(spans: list[dict]) -> dict[int, int]:
    """Span id -> duration minus the union of its children's intervals (ns)."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered = 0
        cursor = s["start"]
        for a, b in sorted(children.get(s["id"], ())):
            a, b = max(a, cursor), min(b, s["end"])
            if b > a:
                covered += b - a
                cursor = b
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def layer_stats(spans: list[dict], wall_s: float, failed: dict[str, int]) -> dict[str, float]:
    """``<layer>.{calls,busy_s,share,failed}`` for every layer."""
    self_ns = self_times(spans)
    out = {}
    for layer in LAYERS:
        mine = [s for s in spans if s["layer"] == layer]
        busy = sum(self_ns[s["id"]] for s in mine) / 1e9
        out[f"{layer}.calls"] = len(mine)
        out[f"{layer}.busy_s"] = busy
        out[f"{layer}.share"] = busy / wall_s
        out[f"{layer}.failed"] = failed.get(layer, 0)
    return out


def write_jsonl(spans: list[dict], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps(s) + "\n")


def read_jsonl(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def paused(rec: Recorder | None):
    """Stop recording library calls, e.g. while an oracle re-computes a value."""
    if rec is None:
        return contextlib.nullcontext()
    return _paused(rec)


@contextlib.contextmanager
def _paused(rec: Recorder):
    rec.enabled = False
    try:
        yield
    finally:
        rec.enabled = True
