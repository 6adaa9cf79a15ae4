"""Layer spans for the traced benchmark run.

``Tracer.install()`` replaces each public function listed in ``WRAPPED`` with
a timing wrapper at every place ``rdlab`` binds it.  Modules import these
functions by name (``from .algebra import convolve``), so the same function
object sits in several module namespaces; patching only the defining module
would miss the calls made from ``rd`` and ``norms``.

Each call records a span: name, start, end, parent span id, the job id the
harness set, and the counts that the function's counter derives from its
arguments and result.  Spans stay in memory until the harness writes them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from pathlib import Path


def _index_elements(arguments, result):
    return {"elements": result.size()}


def _convolve_counts(arguments, result):
    a, b = arguments["a"], arguments["b"]
    return {"updates": len(a.coeffs) * len(b.coeffs),
            "out_support": len(result.coeffs)}


def _radial_terms(arguments, result):
    x, y = arguments["x"], arguments["y"]
    return {"terms": len(x.coeffs) * (len(x.coeffs) + len(y.coeffs))}


def _trace_steps(arguments, result):
    # the ladder rdlab itself asks for: b-exponents 1, 2, 4, ... to the target
    ladder = sys.modules["rdlab.norms"]._trace_exponents(arguments["depth"],
                                                         arguments["exponent"])
    return {"steps_reached": len(result.steps), "steps_requested": len(ladder)}


def _power_iterations(arguments, result):
    return {"iterations": result.iterations}


def _cache_bytes(arguments, result):
    return {"bytes": Path(arguments["path"]).stat().st_size}


# (module, function, counter or None); a counter maps the call's bound
# arguments (defaults applied) and its result to a dict of counts
WRAPPED = [
    ("groups", "enumerate_balls", _index_elements),
    ("algebra", "convolve", _convolve_counts),
    ("algebra", "char_ball", None),
    ("algebra", "char_sphere", None),
    ("algebra", "linear_combine", None),
    ("algebra", "norm", None),
    ("algebra", "pointwise_geq", None),
    ("norms", "radial_convolve", _radial_terms),
    ("norms", "op_norm_trace_power", _trace_steps),
    ("norms", "op_norm_power_iteration", _power_iterations),
    ("norms", "op_norm_positive_amenable", None),
    ("norms", "radial_from_algebra", None),
    ("rd", "ratio_series", None),
    ("rd", "build_report", None),
    ("rd", "ball_product_sweep", None),
    ("rd", "verify_series_product_bound", None),
    ("rd", "build_ball_series", None),
    ("rd", "verify_heredity", None),
    ("rd", "witness_element", None),
    ("cache", "read_ball_cache", _index_elements),
    ("cache", "write_ball_cache", _cache_bytes),
    ("cache", "check_ball_cache", None),
    ("cache", "serialize_index", None),
    ("cache", "sha256_file", None),
    ("cli", "run_command", None),
]

# counts each counter reports, in the order the benchmark lists them
COUNTS = {
    "groups.enumerate_balls": ["elements"],
    "algebra.convolve": ["updates", "out_support"],
    "norms.radial_convolve": ["terms"],
    "norms.op_norm_trace_power": ["steps_reached", "steps_requested"],
    "norms.op_norm_power_iteration": ["iterations"],
    "cache.read_ball_cache": ["elements"],
    "cache.write_ball_cache": ["bytes"],
}


def package_modules():
    """The loaded ``rdlab`` package and its submodules."""
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "rdlab" or name.startswith("rdlab."))]


class Tracer:
    """Owns the wrappers and the spans they record."""

    def __init__(self):
        self.spans = []
        self.job = None
        self._stack = []          # [span id, time covered by child spans]
        self.originals = []       # kept alive, so their ids stay unique
        self._wrappers = {}       # id(original) -> wrapper
        self._patched = []        # (module, attribute, original)
        for module_name, fn_name, count in WRAPPED:
            original = getattr(importlib.import_module("rdlab." + module_name),
                               fn_name)
            self.originals.append(original)
            self._wrappers[id(original)] = self._wrap(f"{module_name}.{fn_name}",
                                                      original, count)

    def install(self):
        """Point every rdlab binding of a wrapped function at its wrapper."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        for module in package_modules():
            for attr, value in list(vars(module).items()):
                wrapper = self._wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, value))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []

    def _wrap(self, name, fn, count):
        spans, stack = self.spans, self._stack
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans[span_id] = {"id": span_id, "parent": parent,
                                  "job": self.job, "name": name,
                                  "start": start, "end": end,
                                  "self": end - start - frame[1]}
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                spans[span_id]["counts"] = count(bound.arguments, result)
            return result
        return wrapper

    def totals(self):
        """Per-function calls, self seconds and summed counts of all spans."""
        out = {f"{m}.{f}": {"calls": 0, "self_s": 0.0} for m, f, _ in WRAPPED}
        for span in self.spans:
            entry = out[span["name"]]
            entry["calls"] += 1
            entry["self_s"] += span["self"]
            for key, value in span.get("counts", {}).items():
                entry[key] = entry.get(key, 0) + value
        return out
