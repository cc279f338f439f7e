"""Per-layer tracing of skewpoly from outside the program.

The tracer replaces module-level functions of the skewpoly modules
with wrappers, in every module that binds them (the home module and
each module that imported the name), so calls from one module into
another pass through a wrapper.  Each wrapper belongs to a span key
such as "polynomials.g".  A call opens a span unless the innermost
open span already has its key, in which case the call is counted but
its time stays in the enclosing span; so recursion and helpers that
share a key cost one span.  A generator's span is opened each time it
is resumed.

Spans are kept in memory and written out by write_spans() at the end.
A span's self time is its duration minus the durations of the spans
opened inside it; self times add up per key.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.spans: list[tuple[int, int, str, float, float, int]] = []
        self.op = 0
        # open spans: [key, start, child seconds, span id]
        self._stack: list[list] = []
        self._next_id = 1
        self._patched: list[tuple[object, str, object]] = []

    def _enter(self, key: str) -> bool:
        if self._stack and self._stack[-1][0] == key:
            return False
        self._stack.append([key, time.perf_counter(), 0.0, self._next_id])
        self._next_id += 1
        return True

    def _exit(self) -> None:
        end = time.perf_counter()
        key, start, child, span_id = self._stack.pop()
        duration = end - start
        self.self_s[key] += duration - child
        parent = 0
        if self._stack:
            self._stack[-1][2] += duration
            parent = self._stack[-1][3]
        self.spans.append((span_id, parent, key, start, end, self.op))

    def wrap(self, fn, key: str, on_call=None, on_return=None, on_item=None):
        """A traced stand-in for fn.

        on_call(args) runs before the call, on_return(result) after it,
        and on_item(item) for every item a generator function yields.
        """
        tracer = self
        name = f"{fn.__module__}.{fn.__qualname__}"

        if inspect.isgeneratorfunction(fn):

            def drive(gen):
                try:
                    while True:
                        pushed = tracer._enter(key)
                        try:
                            item = next(gen)
                        except StopIteration:
                            return
                        finally:
                            if pushed:
                                tracer._exit()
                        if on_item is not None:
                            on_item(item)
                        yield item
                finally:
                    gen.close()

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                tracer.calls[name] += 1
                if on_call is not None:
                    on_call(args)
                return drive(fn(*args, **kwargs))

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            if on_call is not None:
                on_call(args)
            pushed = tracer._enter(key)
            try:
                result = fn(*args, **kwargs)
            finally:
                if pushed:
                    tracer._exit()
            if on_return is not None:
                on_return(result)
            return result

        return wrapper

    def install(self, modules, plan) -> None:
        """Wrap the functions that plan(module, name, fn) gives a key.

        plan returns None to leave a function alone, or a dict with a
        "key" and optional on_call, on_return and on_item hooks.  Every
        binding of a wrapped function in the given modules is replaced.
        """
        wrapped = {}
        for mod in modules:
            for name, fn in list(vars(mod).items()):
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                spec = plan(mod.__name__.rsplit(".", 1)[-1], name, fn)
                if spec is not None:
                    wrapped[fn] = self.wrap(fn, **spec)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._patched.append((mod, name, value))
                    setattr(mod, name, wrapped[value])

    def uninstall(self) -> None:
        for mod, name, original in reversed(self._patched):
            setattr(mod, name, original)
        self._patched.clear()

    def write_spans(self, path) -> None:
        """Write the recorded spans as gzipped JSON lines."""
        with gzip.open(path, "wt") as out:
            for span_id, parent, key, start, end, op in self.spans:
                out.write(json.dumps(
                    {"id": span_id, "parent": parent, "key": key, "op": op,
                     "start": start, "end": end}) + "\n")
