"""Span tracing of the ``hcoh`` layers from outside the library.

:class:`Tracer` replaces every public function and public method of the
traced ``hcoh`` modules with a wrapper that records a span (name, start,
end, parent) around the call, and puts the originals back on
:meth:`Tracer.uninstall`.  Nothing in ``src/`` is edited: functions are
swapped in every ``hcoh.*`` namespace that imported them, methods on
their classes.  A generator function gets one span per yielded item,
covering only the generator's own work for that item.

Spans are kept in memory as tuples and written once, by :func:`dump`.
The self time of a span is its duration minus the durations of its
direct children (calls run on one thread, so children never overlap).
"""

import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

from spec import LAYERS

NAME, START, END, PARENT, COUNT = range(5)


class Tracer:
    def __init__(self):
        self.spans = []     # [name, start_ns, end_ns, parent_index, count]
        self._stack = []
        self._saved = []    # (owner, attribute, original)

    # --- recording -------------------------------------------------------
    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, None])
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def _close(self, span, result=None):
        span[END] = time.perf_counter_ns()
        self._stack.pop()
        if result is not None and hasattr(result, "__len__"):
            try:
                span[COUNT] = len(result)
            except TypeError:
                pass

    def _wrap(self, name, fn):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            def traced(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    span = tracer._open(name)
                    try:
                        item = next(gen)
                    except StopIteration:
                        tracer._close(span)
                        return
                    except BaseException:
                        tracer._close(span)
                        raise
                    tracer._close(span, item)
                    yield item
        else:
            def traced(*args, **kwargs):
                span = tracer._open(name)
                try:
                    result = fn(*args, **kwargs)
                except BaseException:
                    tracer._close(span)
                    raise
                tracer._close(span, result)
                return result
        traced.__wrapped__ = fn
        return traced

    # --- installing ------------------------------------------------------
    def install(self, layers=LAYERS):
        """Wrap the public callables of ``hcoh.<layer>`` for each layer."""
        modules = {layer: importlib.import_module(f"hcoh.{layer}") for layer in layers}
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if (n == "hcoh" or n.startswith("hcoh.")) and m is not None]
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(f"{layer}.{attr}", obj)
                    for ns in namespaces:
                        if vars(ns).get(attr) is obj:
                            self._swap(ns, attr, wrapped)
                elif inspect.isclass(obj):
                    self._install_class(layer, obj)
        return self

    def _install_class(self, layer, cls):
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(member, classmethod):
                self._swap(cls, attr, classmethod(self._wrap(name, member.__func__)))
            elif inspect.isfunction(member):
                self._swap(cls, attr, self._wrap(name, member))

    def _swap(self, owner, attr, value):
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False


def durations(spans, name):
    """Durations in seconds of every span called ``name``."""
    return [(s[END] - s[START]) * 1e-9 for s in spans if s[NAME] == name]


def with_children(spans):
    """Set of span indices that have at least one child."""
    return {s[PARENT] for s in spans if s[PARENT] >= 0}


def self_times(spans):
    """Per-span self time in seconds (duration minus direct children)."""
    child = [0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [(s[END] - s[START] - c) * 1e-9 for s, c in zip(spans, child)]


def layer_self_seconds(spans):
    """Total self time per layer, keyed by the first part of span names."""
    totals = defaultdict(float)
    for s, own in zip(spans, self_times(spans)):
        totals[s[NAME].split(".", 1)[0]] += own
    return {layer: totals.get(layer, 0.0) for layer in LAYERS}


def dump(path, spans):
    """Write spans as JSON lines: name, start and end (ns), parent, count."""
    with open(path, "w") as fh:
        for s in spans:
            fh.write(json.dumps({"name": s[NAME], "start_ns": s[START],
                                 "end_ns": s[END], "parent": s[PARENT],
                                 "count": s[COUNT]}) + "\n")
