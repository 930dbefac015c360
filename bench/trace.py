"""Tracing from outside the program: boundary spans and a stack sampler.

The benchmark measures the program without editing it.  ``Tracer.install``
replaces public boundary calls -- methods on their class, module
functions at the name the caller imported them under -- with wrappers
that record one span per call: ``[name, start, end, parent, trace]``,
where ``parent`` is the index of the enclosing span (-1 for a root) and
``trace`` is the identifier every span of one tick / cycle shares.  Spans
stay in memory and are written out when the run ends.

A layer's *self time* is its spans' duration minus the part of that
interval their child spans cover.  The program runs in one thread and
spans nest strictly, so children never overlap and the covered part is
the sum of the direct children's durations (clipped to the parent, which
only matters for hand-made inputs).

``StackSampler`` is the complementary instrument for code that cannot be
wrapped without timing the wrapper (``geometry``: millions of
``Rect.area`` calls per tick): a thread that looks at the main thread's
stack every few milliseconds and charges the sample to the innermost
``repro.*`` frame's layer.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
from contextlib import contextmanager
from time import perf_counter

NAME, START, END, PARENT, TRACE = range(5)


class Tracer:
    """Records nested call spans; inert (one attribute check) until active."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.active = False
        self.trace_id = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def wrap(self, fn, name: str, on_result=None):
        """A callable that behaves like ``fn`` and records a span per call.

        ``on_result`` (optional) is called with the return value after the
        span closed -- how counts that only the result carries (which
        route a planner decision took) are recorded at the boundary.
        """
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.trace_id]
            stack.append(len(spans))
            spans.append(record)
            record[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    @contextmanager
    def span(self, name: str, new_trace: bool = False):
        """A span around harness-owned code (one per tick / cycle)."""
        if not self.active:
            yield
            return
        if new_trace:
            self.trace_id += 1
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.trace_id]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[START] = perf_counter()
        try:
            yield
        finally:
            record[END] = perf_counter()
            self._stack.pop()

    # -- patching ------------------------------------------------------

    def install(self, targets) -> None:
        """Patch every ``(module, owner, attribute, span name[, on_result])``.

        ``owner`` is a class name inside ``module`` or ``None`` for a
        module-level function.  Attributes a class merely inherits are
        skipped (the defining class is patched instead); classmethods and
        staticmethods keep their binding.
        """
        for target in targets:
            module_name, owner_name, attr, name = target[:4]
            on_result = target[4] if len(target) > 4 else None
            owner = importlib.import_module(module_name)
            if owner_name is not None:
                owner = getattr(owner, owner_name)
            if attr not in vars(owner):
                continue
            raw = vars(owner)[attr]
            if isinstance(raw, (classmethod, staticmethod)):
                patched = type(raw)(self.wrap(raw.__func__, name, on_result))
            else:
                patched = self.wrap(raw, name, on_result)
            self._undo.append((owner, attr, raw))
            setattr(owner, attr, patched)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------


def self_times(spans) -> list[float]:
    """Per-span self time: duration minus what direct children cover."""
    covered = [0.0] * len(spans)
    for span in spans:
        parent = span[PARENT]
        if parent >= 0:
            lo = max(span[START], spans[parent][START])
            hi = min(span[END], spans[parent][END])
            covered[parent] += max(0.0, hi - lo)
    return [
        max(0.0, span[END] - span[START] - covered[i])
        for i, span in enumerate(spans)
    ]


def fold(spans) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, ``self_s`` and ``inclusive_s``.

    ``inclusive_s`` counts a span only when no ancestor carries the same
    name, so recursion and re-entrant boundaries are not counted twice.
    """
    own = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for i, span in enumerate(spans):
        row = out.setdefault(
            span[NAME], {"calls": 0, "self_s": 0.0, "inclusive_s": 0.0}
        )
        row["calls"] += 1
        row["self_s"] += own[i]
        parent = span[PARENT]
        while parent >= 0 and spans[parent][NAME] != span[NAME]:
            parent = spans[parent][PARENT]
        if parent < 0:
            row["inclusive_s"] += span[END] - span[START]
    return out


def durations(spans, name: str) -> list[float]:
    return [s[END] - s[START] for s in spans if s[NAME] == name]


def write_jsonl(spans, path) -> None:
    """One ``{id, parent, trace, name, start, end}`` object per line."""
    with open(path, "w", encoding="utf-8") as handle:
        for i, (name, start, end, parent, trace) in enumerate(spans):
            handle.write(
                f'{{"id": {i}, "parent": {parent}, "trace": {trace}, '
                f'"name": "{name}", "start": {start:.7f}, "end": {end:.7f}}}\n'
            )


# ----------------------------------------------------------------------
# Stack sampler
# ----------------------------------------------------------------------

#: ``repro.core`` holds three layers; every other package is one layer.
_CORE_LAYERS = {
    "repro.core.anonymizer": "core.anonymizer",
    "repro.core.profiles": "core.anonymizer",
    "repro.core.server": "core.server",
    "repro.core.stores": "core.server",
    "repro.core.system": "core.system",
}


def layer_of(module_name: str) -> str | None:
    """The layer a ``repro.*`` module belongs to (``None`` for others)."""
    if not module_name.startswith("repro."):
        return None
    if module_name in _CORE_LAYERS:
        return _CORE_LAYERS[module_name]
    parts = module_name.split(".")
    return "core.system" if parts[1] == "core" else parts[1]


class StackSampler(threading.Thread):
    """Samples one thread's stack; counts hits per layer while ``active``."""

    def __init__(self, thread_id: int, interval: float = 0.005) -> None:
        super().__init__(daemon=True)
        self.thread_id = thread_id
        self.interval = interval
        self.active = False
        self.counts: dict[str, int] = {}
        self._stop_event = threading.Event()

    def run(self) -> None:
        # With the default 5 ms switch interval the sampler would mostly get
        # the interpreter lock where the main thread gives it up by itself --
        # at file writes -- and charge those layers far too much.
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(self.interval / 10)
        try:
            self._sample_until_stopped()
        finally:
            sys.setswitchinterval(switch_interval)

    def _sample_until_stopped(self) -> None:
        while not self._stop_event.wait(self.interval):
            if not self.active:
                continue
            frame = sys._current_frames().get(self.thread_id)
            layer = "harness"
            while frame is not None:
                found = layer_of(frame.f_globals.get("__name__", ""))
                if found is not None:
                    layer = found
                    break
                frame = frame.f_back
            self.counts[layer] = self.counts.get(layer, 0) + 1

    def stop(self) -> None:
        self._stop_event.set()
        self.join()

    def shares(self) -> dict[str, float]:
        total = sum(self.counts.values())
        return {k: v / total for k, v in self.counts.items()} if total else {}
