"""Span tracing of relcomp from outside the package.

Every function defined in a relcomp module, and every plain method or
classmethod of a class defined there, is replaced by a wrapper that
records one span per call: (name, parent span, request id, start, end).
The package binds names across modules with ``from .linrel import ...``,
so a wrapper is rebound under every name in every ``relcomp`` module
namespace that refers to the original object, and the originals are put
back by ``Tracer.uninstall``.  Spans stay in memory until the caller
aggregates or writes them.
"""
from __future__ import annotations

import collections
import contextlib
import functools
import gzip
import inspect
import json
import sys
import time

MODULES = ("linrel", "triplet", "nevanlinna", "extension", "exitspace", "driver")

# Functions reported one by one; every other wrapped callable still counts
# towards its module's self time.
REPORTED = {
    "linrel": ("orth", "null_space", "complement", "intersect"),
    "triplet": ("von_neumann_triplet", "gamma_and_weyl"),
    "extension": ("krein_resolvent", "classify_compression"),
    "exitspace": ("build_exit_space", "direct_compression",
                  "generalized_resolvent_direct", "minimality"),
    "nevanlinna": ("tau_limits",),
    "driver": ("build_problem", "admissible_lambdas"),
}

ROOT = "bench.op"


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "relcomp" or name.startswith("relcomp."))]


class Tracer:
    """Installs span-recording wrappers and aggregates the spans."""

    def __init__(self):
        self.spans = []            # [name, parent, request, start, end]
        self.false_returns = collections.Counter()
        self.request = -1
        self._stack = []
        self._restore = []         # (owner, attribute, original)

    # ------------------------------------------------------------ recording

    def _wrap(self, fn, name):
        spans, stack, false_returns = self.spans, self._stack, self.false_returns
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, stack[-1] if stack else -1, self.request, clock(), 0.0])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][4] = clock()
                stack.pop()
            if result is False:
                false_returns[name] += 1
            return result

        return wrapper

    @contextlib.contextmanager
    def span(self, request):
        """The benchmark's own root span around one op; ``request`` is the
        op's index and is recorded on every span inside it."""
        idx = len(self.spans)
        self.request = request
        self.spans.append([ROOT, -1, request, time.perf_counter(), 0.0])
        self._stack.append(idx)
        try:
            yield
        finally:
            self.spans[idx][4] = time.perf_counter()
            self._stack.pop()
            self.request = -1

    # ------------------------------------------------------------ install

    def install(self):
        """Wrap every relcomp function and method; rebind in all modules."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for short in MODULES:
            mod = sys.modules[f"relcomp.{short}"]
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[obj] = self._wrap(obj, f"{short}.{attr}")
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_methods(obj, f"{short}.{attr}")
        for mod in _package_modules():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def _wrap_methods(self, cls, prefix):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("__"):
                continue
            if inspect.isfunction(obj):
                new = self._wrap(obj, f"{prefix}.{attr}")
            elif isinstance(obj, classmethod):
                new = classmethod(self._wrap(obj.__func__, f"{prefix}.{attr}"))
            else:
                continue
            self._restore.append((cls, attr, obj))
            setattr(cls, attr, new)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # ------------------------------------------------------------ results

    def aggregate(self):
        """Per span name: call count, inclusive seconds and self seconds
        (duration minus the time covered by direct children)."""
        child = [0.0] * len(self.spans)
        for _, parent, _, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls = collections.Counter()
        incl = collections.defaultdict(float)
        self_s = collections.defaultdict(float)
        for (name, _, _, t0, t1), covered in zip(self.spans, child):
            calls[name] += 1
            incl[name] += t1 - t0
            self_s[name] += t1 - t0 - covered
        return calls, incl, self_s

    def write(self, path):
        """Write all spans as gzipped JSON lines [id, parent, request, name,
        start, end], times in seconds from the first span."""
        origin = self.spans[0][3] if self.spans else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for i, (name, parent, request, t0, t1) in enumerate(self.spans):
                fh.write(json.dumps([i, parent, request, name,
                                     round(t0 - origin, 9), round(t1 - origin, 9)]) + "\n")


def snapshot():
    """Identity of every callable bound in relcomp module and class
    namespaces; equal before install and after uninstall."""
    out = {}
    for mod in _package_modules():
        for attr, obj in vars(mod).items():
            if callable(obj):
                out[f"{mod.__name__}.{attr}"] = id(obj)
            if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for cattr, cobj in vars(obj).items():
                    out[f"{mod.__name__}.{attr}.{cattr}"] = id(cobj)
    return out
