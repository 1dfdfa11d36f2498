"""In-process span tracer for the parity_scope layers.

``Tracer.install`` wraps every public function of the package modules and
rebinds the wrapper under every module attribute that holds the original, so
calls made through re-imported names (``evolve`` in ``inference`` and
``cli``) or through module globals (``info_gains`` inside ``optimal_phase``)
are seen as well.  ``scipy.linalg.eigh`` is wrapped on the module object that
``spectral`` calls as ``sla``.  Spans are kept in memory; forked worker
processes record into their own copy, so traced runs use one worker.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

# module -> layer; config wraps the dispersive layer as derive_scenario
LAYER_OF_MODULE = {
    "dispersive": "dispersive",
    "config": "dispersive",
    "spectral": "spectral",
    "dynamics": "dynamics",
    "inference": "inference",
    "cli": "cli",
}
LAYERS = ("dispersive", "spectral", "dynamics", "inference", "cli")
PACKAGE = "parity_scope"


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "info")

    def __init__(self, name, layer, parent):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.info = {}
        self.start = self.end = 0.0

    @property
    def duration(self):
        return self.end - self.start


def _evolve_info(args, kwargs, result):
    """RK4 steps of one evolve call, half-step probe included."""
    t_final = args[2] if len(args) > 2 else kwargs["t_final"]
    probe = args[5] if len(args) > 5 else kwargs.get("probe", True)
    steps = round(t_final / result.step)
    return {"rk4_steps": steps * (3 if probe else 1), "args": (args, kwargs)}


def _info_gains_info(args, kwargs, result):
    check = args[2] if len(args) > 2 else kwargs.get("check", True)
    return {"check": bool(check)}


def _eigh_info(args, kwargs, result):
    matrix = args[0] if args else kwargs["a"]
    return {"dim": int(matrix.shape[0])}


ANNOTATE = {
    "dynamics.evolve": _evolve_info,
    "inference.info_gains": _info_gains_info,
    "spectral.eigh": _eigh_info,
}


class Tracer:
    """Records one span per call into a wrapped function."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []

    def _wrap(self, name, layer, fn):
        annotate = ANNOTATE.get(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, layer, stack[-1] if stack else None)
            spans.append(span)
            stack.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if annotate is not None:
                span.info = annotate(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        modules = {short: importlib.import_module(f"{PACKAGE}.{short}")
                   for short in LAYER_OF_MODULE}
        modules[""] = importlib.import_module(PACKAGE)
        wrappers = {}
        for short, layer in LAYER_OF_MODULE.items():
            module = modules[short]
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == module.__name__):
                    wrappers[id(value)] = (value, self._wrap(f"{short}.{attr}", layer, value))
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._patch(module, attr, wrappers[id(value)][1])
        linalg = importlib.import_module("scipy.linalg")
        if modules["spectral"].sla is not linalg:
            raise RuntimeError("spectral no longer calls scipy.linalg as sla")
        self._patch(linalg, "eigh", self._wrap("spectral.eigh", "spectral", linalg.eigh))
        return self

    def _patch(self, module, attr, value):
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- analysis ----------------------------------------------------------

    def named(self, name, **info):
        return [s for s in self.spans if s.name == name
                and all(s.info.get(k) == v for k, v in info.items())]

    def roots(self):
        return [s for s in self.spans if s.parent is None]

    def self_times(self):
        """Per-layer self time: span duration minus what its children cover."""
        child_time = {}
        for span in self.spans:
            if span.parent is not None:
                key = id(span.parent)
                child_time[key] = child_time.get(key, 0.0) + span.duration
        totals = dict.fromkeys(LAYERS, 0.0)
        for span in self.spans:
            totals[span.layer] += span.duration - child_time.get(id(span), 0.0)
        return totals

    @staticmethod
    def ancestor(span, name):
        """Nearest enclosing span named ``name``, or None."""
        node = span.parent
        while node is not None and node.name != name:
            node = node.parent
        return node

