"""Span tracing of fiberspec's public functions, installed from outside.

The package source is not changed.  `Tracer.install` replaces every public
module-level function of the traced modules with a wrapper, in every
fiberspec namespace that holds a binding to it: `config.decompose_all_fibers`
is a separate binding from `fiber.decompose_all_fibers`, and both must be
replaced.  Spans are aggregated when they close, per `<module>.<function>`:

- calls: closed spans;
- busy_s: span time summed over threads;
- self_s: busy_s minus the part of each span's interval its child spans cover.

A call made while the same function is already open on the thread (the
recursion of `expr.evaluate`) is not a span of its own.  A span opened on a
worker thread with no open span of its own gets the caller thread's
innermost open span as parent, so thread-pool work is a child of the
`decompose_all_fibers` call that started it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import threading
import time

MODULES = (
    "cli",
    "config",
    "expr",
    "grid",
    "kernel",
    "fiber",
    "calculus",
    "spectrum",
    "csvio",
    "verify",
)

# Called once per written CSV value: a span each would cost more than the
# writer it sits in.
UNTRACED = frozenset({"csvio.format_real"})
# The first decomposition this function returns is kept as `decomposition`.
CAPTURED = "config.decompose"


class _Span:
    __slots__ = ("start", "children")

    def __init__(self, start):
        self.start = start
        self.children = []

    def covered(self):
        """Length of the union of the child intervals; children on pool
        threads can overlap."""
        total = 0.0
        run_start = run_end = None
        for start, end in sorted(self.children):
            if run_end is None or start > run_end:
                if run_end is not None:
                    total += run_end - run_start
                run_start, run_end = start, end
            else:
                run_end = max(run_end, end)
        if run_end is not None:
            total += run_end - run_start
        return total


class Tracer:
    def __init__(self):
        self.stats = {}  # name -> [calls, busy_s, self_s]
        self.counters = {"csvio.rows_written": 0, "csvio.bytes_written": 0}
        self.decomposition = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._caller = None  # state of the thread that installed the tracer
        self._restore = []

    def _state(self):
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = ([], set())
            return state

    def _wrap(self, name, fn):
        tracer = self
        capture = name == CAPTURED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, active = tracer._state()
            if name in active:
                return fn(*args, **kwargs)
            if stack:
                parent = stack[-1]
            else:
                caller = tracer._caller[0]
                parent = caller[-1] if caller and caller is not stack else None
            span = _Span(time.perf_counter())
            stack.append(span)
            active.add(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                active.discard(name)
                busy = end - span.start
                if parent is not None:
                    parent.children.append((span.start, end))
                covered = span.covered()
                with tracer._lock:
                    agg = tracer.stats.setdefault(name, [0, 0.0, 0.0])
                    agg[0] += 1
                    agg[1] += busy
                    agg[2] += busy - covered
            if capture and tracer.decomposition is None:
                tracer.decomposition = result
            return result

        return traced

    def _counting_write_rows(self, write_rows):
        counters = self.counters

        @functools.wraps(write_rows)
        def counted(path, header, rows):
            n = 0

            def each():
                nonlocal n
                for row in rows:
                    n += 1
                    yield row

            try:
                return write_rows(path, header, each())
            finally:
                counters["csvio.rows_written"] += n
                counters["csvio.bytes_written"] += os.path.getsize(path)

        return counted

    def install(self):
        """Wrap the public functions of MODULES in every fiberspec namespace."""
        self._caller = self._state()
        replacements = {}
        for short in MODULES:
            mod = importlib.import_module(f"fiberspec.{short}")
            for attr, fn in vars(mod).items():
                name = f"{short}.{attr}"
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                    or inspect.isgeneratorfunction(fn)
                    or name in UNTRACED
                ):
                    continue
                target = fn
                if name == "csvio.write_rows":
                    target = self._counting_write_rows(fn)
                replacements[id(fn)] = (fn, self._wrap(name, target))
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (
                modname == "fiberspec" or modname.startswith("fiberspec.")
            ):
                continue
            for attr, value in list(vars(mod).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._restore.append((mod, attr, value))

    def uninstall(self):
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()

    def metric(self, name, stat):
        calls, busy, self_time = self.stats.get(name, (0, 0.0, 0.0))
        return {"calls": calls, "busy_s": busy, "self_s": self_time}[stat]
