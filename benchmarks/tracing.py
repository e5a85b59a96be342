"""Span tracer that wraps the program's layer functions from outside.

`Tracer.install` replaces every public function of the layer modules with a
timing wrapper, at its defining module and at every other module attribute
bound to it (names taken over with `from ... import`, such as
`correlations.binary_entropy`, `states.kappa` or `fock_oracle.report`).
Each call records a span (id, parent id, request id, name, start, end);
self time is a span's duration minus the time its child spans cover.
Aggregates are kept for every span; the spans themselves are kept in memory
up to `span_cap` and written out when the run ends.
"""

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("special", "states", "correlations", "fock_oracle", "cli")
# Classes whose construction is a traced call.
TRACED_CLASSES = {"states": ("ModelParams",)}
# Calls counted separately when they happen inside a span of this name.
ANCHOR = "correlations.report"


class Tracer:
    def __init__(self, span_cap=50_000):
        self.span_cap = span_cap
        self.spans = []
        self.dropped = 0
        self.calls = defaultdict(int)
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.under_anchor = defaultdict(int)
        self.request_id = 0
        self.nfev = 0
        self._stack = []
        self._next_id = 1
        self._anchor_depth = 0
        self._restore = []

    def _wrap(self, name, fn):
        stack = self._stack
        calls, inclusive, self_time = self.calls, self.inclusive, self.self_time
        spans, clock = self.spans, time.perf_counter
        is_anchor = name == ANCHOR

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            if self._anchor_depth:
                self.under_anchor[name] += 1
            if is_anchor:
                self._anchor_depth += 1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if is_anchor:
                    self._anchor_depth -= 1
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                calls[name] += 1
                inclusive[name] += duration
                self_time[name] += duration - frame[1]
                if len(spans) < self.span_cap:
                    spans.append((span_id, parent[0] if parent else 0, self.request_id, name, start, end))
                else:
                    self.dropped += 1

        return traced

    def span(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) as a root span of a new request."""
        self.request_id += 1
        return self._wrap(name, fn)(*args, **kwargs)

    def install(self, package):
        """Wrap the layer functions of `package` (the imported pacsqc)."""
        modules = {layer: getattr(package, layer) for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
            for cls_name in TRACED_CLASSES.get(layer, ()):
                cls = getattr(module, cls_name)
                self._patch(cls, "__init__", self._wrap(f"{layer}.{cls_name}", cls.__init__))
        for module in [package, *modules.values()]:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(module, attr, wrappers[obj])
        self._count_minimize()

    def _count_minimize(self):
        # Nelder-Mead evaluations, read from the result of the (lazily
        # imported) scipy minimizer; installed only once scipy is loaded.
        optimize = sys.modules.get("scipy.optimize")
        if optimize is None:
            return
        minimize = optimize.minimize

        @functools.wraps(minimize)
        def counted(*args, **kwargs):
            result = minimize(*args, **kwargs)
            self.nfev += int(getattr(result, "nfev", 0))
            return result

        self._patch(optimize, "minimize", counted)

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def layer_self_time(self, layer):
        return sum(t for name, t in self.self_time.items() if name.split(".")[0] == layer)

    def write(self, path):
        """Spans as JSON: one [id, parent, request, name, start_s, end_s] row
        per span, plus the count dropped past `span_cap`."""
        payload = {
            "fields": ["id", "parent", "request", "name", "start_s", "end_s"],
            "dropped": self.dropped,
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
