"""Timing spans around qig's public functions, installed from outside qig.

The traced functions are found, not listed: every function named in
``qig.__all__`` and every public function defined in ``qig.cli``, grouped
into layers by the module that defines it (``qig.born`` -> ``born``).  A
wrapper replaces the function in every qig module namespace that binds it,
because ``from .born import joint_distribution`` copies the binding into
the modules that call it.

Spans are kept in memory (flat arrays) and written out by :meth:`Tracer.dump`.
A span's self time is its duration minus the durations of its direct child
spans.  Work counts are taken at the outermost span of a layer, so a call
nested in a call of the same layer is not counted twice.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("states", "born", "entropy", "geometry", "scenarios", "bitstream", "cli")
COUNTERS = (
    "born.outcomes",
    "entropy.subsets",
    "scenarios.evaluations",
    "scenarios.budget",
    "bitstream.rows",
)


def _record_rows(value) -> int:
    runs = getattr(value, "runs", None)
    return int(runs.shape[0]) if isinstance(runs, np.ndarray) and runs.ndim == 2 else 0


def _count_work(layer: str, signature, args, kwargs, result, counts: dict) -> None:
    """Add the work one outermost call of ``layer`` did to ``counts``."""
    if layer == "born":
        probs = getattr(result, "probs", None)
        if isinstance(probs, np.ndarray):
            counts["born.outcomes"] += probs.size
    elif layer == "entropy":
        if callable(getattr(result, "subsets", None)):
            counts["entropy.subsets"] += len(result.subsets())
    elif layer == "scenarios":
        evaluations = getattr(result, "evaluations", None)
        if isinstance(evaluations, int) and signature is not None:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            counts["scenarios.evaluations"] += evaluations
            counts["scenarios.budget"] += int(bound.arguments.get("budget", 0))
    elif layer == "bitstream":
        rows = _record_rows(result)
        if not rows:
            rows = max([_record_rows(a) for a in (*args, *kwargs.values())], default=0)
        counts["bitstream.rows"] += rows


def discover(qig_module, cli_module) -> list:
    """(layer, name, function) for every function the tracer wraps."""
    found = {}
    candidates = [getattr(qig_module, name) for name in qig_module.__all__]
    candidates += [
        fn
        for name, fn in vars(cli_module).items()
        if inspect.isfunction(fn) and not name.startswith("_")
    ]
    for fn in candidates:
        if not inspect.isfunction(fn):
            continue
        module = getattr(fn, "__module__", "") or ""
        if not module.startswith("qig."):
            continue
        layer = module.split(".", 1)[1]
        if layer in LAYERS:
            found[id(fn)] = (layer, f"{layer}.{fn.__name__}", fn)
    return sorted(found.values(), key=lambda item: item[1])


class Tracer:
    """Spans and per-layer totals for the calls made while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.span_fn = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls = dict.fromkeys(LAYERS, 0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._stack: list[list] = []  # [span index, child time]
        self._depth = dict.fromkeys(LAYERS, 0)
        self._patched: list[tuple] = []

    def _wrap(self, layer: str, index: int, fn):
        try:
            signature = inspect.signature(fn) if layer == "scenarios" else None
        except (TypeError, ValueError):
            signature = None
        clock = time.perf_counter
        stack, depth = self._stack, self._depth

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(self.span_fn)
            self.span_fn.append(index)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            frame = [span, 0.0]
            stack.append(frame)
            outermost = depth[layer] == 0
            depth[layer] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                depth[layer] -= 1
                stack.pop()
                self.span_start[span] = start
                self.span_end[span] = end
                duration = end - start
                self.calls[layer] += 1
                self.self_s[layer] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if outermost:
                _count_work(layer, signature, args, kwargs, result, self.counts)
            return result

        return traced

    def install(self, qig_module, cli_module) -> None:
        """Wrap every discovered function in every qig namespace binding it."""
        targets = discover(qig_module, cli_module)
        originals = {}
        for layer, name, fn in targets:
            originals[id(fn)] = self._wrap(layer, len(self.names), fn)
            self.names.append(name)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "qig" or module_name.startswith("qig.")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def snapshot(self) -> dict:
        """Current per-layer totals, for differencing between passes."""
        out = {f"{layer}.calls": self.calls[layer] for layer in LAYERS}
        out.update({f"{layer}.self_s": self.self_s[layer] for layer in LAYERS})
        out.update(self.counts)
        return out

    def dump(self, path) -> None:
        """Write every span (function, parent span, start, end) to an .npz file."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            function=np.frombuffer(self.span_fn, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )
