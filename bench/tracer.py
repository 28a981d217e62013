"""Run-time instrumentation of the langmove package, used only by the benchmark.

Nothing in langmove imports this module.  An :class:`Instrument` finds the
functions to wrap when it is installed, so it keeps working when the
package renames or adds functions:

- every function named in a layer module's ``__all__`` (every public
  function, for a module without ``__all__``), credited to the layer of the
  module that defines it;
- the ``value``, ``gradient`` and ``grad_log_pi`` methods of every public
  class of those modules.

Calls at coarse boundaries (studies, simulation, fits, I/O, density maps)
become spans: name, start, end, parent and pass id, kept in memory and
written out at the end of the run.  Per-point calls (the three methods
above, raster interpolation, ``euler_step`` and stream derivation) are too
many to keep one by one; they are summed per (layer, function, parent) into
calls, points and time, so memory stays bounded.  Points are counted from
the point argument's shape, so a call with one point and a call with an
``(n, 2)`` array are both counted correctly.

Three levels:

- ``"off"``: only the outermost simulation and fit calls are wrapped, so a
  pass can count fine steps and check every fit result.  One wrapper per
  track or fit costs nothing measurable; end-to-end metrics use this level.
- ``"spans"``: every coarse function is wrapped.  Inclusive times of coarse
  calls are measured without the cost of per-point wrappers inside them.
- ``"full"``: per-point calls are wrapped too, which gives call and point
  counts and the self time of every layer, at the cost of a wrapper per
  call.  Self times of callers of per-point functions include that cost.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("langevin", "covariates", "raster", "rsf", "inference", "experiments", "seeding")
POINT_METHODS = ("value", "gradient", "grad_log_pi")
POINT_FUNCTION_PREFIXES = ("interpolate", "euler_step", "derive_")
LEVELS = ("off", "spans", "full")


def category(layer: str, name: str) -> str:
    """Group functions whose nested calls must not be counted twice."""
    if layer == "langevin" and name.startswith("simulate"):
        return "simulate"
    if layer == "inference" and name.endswith("fit"):
        return "fit"
    if layer == "inference" and "design" in name:
        return "design"
    return name


def find_callables(package):
    """Yield ``(layer, owner, attribute, function, per_point)`` for every function to wrap."""
    for layer in LAYERS:
        mod = importlib.import_module(f"{package.__name__}.{layer}")
        names = getattr(mod, "__all__", None)
        if names is None:
            names = [n for n in vars(mod) if not n.startswith("_")]
        for name in names:
            obj = getattr(mod, name)
            if getattr(obj, "__module__", None) != mod.__name__:
                continue  # re-exported: credited to the layer that defines it
            if inspect.isclass(obj):
                for meth in POINT_METHODS:
                    if inspect.isfunction(vars(obj).get(meth)):
                        yield layer, obj, meth, vars(obj)[meth], True
            elif inspect.isfunction(obj):
                yield layer, mod, name, obj, name.startswith(POINT_FUNCTION_PREFIXES)


def count_points(args) -> int:
    """Points in the last positional argument: ``(n, 2)`` arrays count n, a point counts 1."""
    p = args[-1] if args else None
    shape = getattr(p, "shape", None)
    if shape is not None:
        return int(shape[0]) if len(shape) == 2 else 1
    if isinstance(p, (list, tuple)) and p and isinstance(p[0], (list, tuple)):
        return len(p)
    return 1


def work_units(args, result) -> dict:
    """Work done by one coarse call, read from its arguments and result."""
    units = {}
    items = result if isinstance(result, (list, tuple)) else [result]
    if items and all(hasattr(r, "clamped") and hasattr(r, "track") for r in items):
        units["steps"] = sum(len(r.track) - 1 for r in items)
        units["clamps"] = sum(len(r.clamped) for r in items)
        units["tracks"] = len(items)
    elif hasattr(result, "n") and hasattr(result, "J"):
        units["n"] = int(result.n)
    elif hasattr(result, "values") and hasattr(result, "geom"):
        units["cells"] = int(result.values.size)
    for obj in (result, args[0] if args else None):
        if hasattr(obj, "times") and hasattr(obj, "xy"):
            units["rows"] = len(obj)
            break
    for a in args:
        if isinstance(a, (str, os.PathLike)) and os.path.isfile(a):
            units["bytes"] = os.path.getsize(a)
    return units


class Span:
    """One coarse call.  ``result`` is kept for fits only, for the output checks."""

    __slots__ = (
        "id", "parent", "pass_id", "layer", "name", "cat", "outer",
        "t0", "t1", "self_s", "units", "error", "result",
    )

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__ if k != "result"}


class Instrument:
    """Wraps langmove functions while installed; records one pass at a time.

    Use as a context manager; leaving it restores every original function.
    """

    def __init__(self, package, level: str):
        if level not in LEVELS:
            raise ValueError(f"level must be one of {LEVELS}, got {level!r}")
        self.package = package
        self.level = level
        self.spans: list[Span] = []
        self.pass_id = None
        self._patches: list[tuple[object, str, object]] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._next_id = 0
        self._stack: list[list] = []
        self.begin_pass(None)

    # -- installation -----------------------------------------------------

    def _wanted(self, layer: str, name: str, per_point: bool) -> bool:
        if self.level == "full":
            return True
        if per_point:
            return False
        return self.level == "spans" or category(layer, name) in ("simulate", "fit")

    def __enter__(self) -> "Instrument":
        originals = {}
        for layer, owner, attr, fn, per_point in find_callables(self.package):
            if not self._wanted(layer, attr, per_point):
                continue
            if inspect.isclass(owner):
                label = f"{owner.__name__}.{attr}"
                wrapper = self._point_wrapper(fn, layer, label)
                self._patches.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
            else:
                maker = self._point_wrapper if per_point else self._span_wrapper
                originals[id(fn)] = (fn, maker(fn, layer, attr))
        prefix = self.package.__name__
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == prefix or mod_name.startswith(prefix + ".")):
                continue
            for attr, val in list(vars(mod).items()):
                hit = originals.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, hit[1])
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, fn, layer: str, name: str):
        cat = category(layer, name)
        depth = self._depth
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            span = Span()
            span.id = self._next_id
            self._next_id += 1
            span.parent = parent[2]
            span.pass_id = self.pass_id
            span.layer, span.name, span.cat = layer, name, cat
            span.outer = depth[cat] == 0
            span.error = span.result = None
            span.units = {}
            frame = [0.0, name, span.id]
            depth[cat] += 1
            stack.append(frame)
            span.t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                span.error = type(err).__name__
                raise
            finally:
                span.t1 = perf_counter()
                stack.pop()
                depth[cat] -= 1
                dur = span.t1 - span.t0
                span.self_s = dur - frame[0]
                parent[0] += dur
                self.layer_self[layer] += span.self_s
                self.spans.append(span)
            span.units = work_units(args, result)
            if cat == "fit":
                span.result = result
            return result

        return wrapper

    def _point_wrapper(self, fn, layer: str, label: str):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, label, parent[2]]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                parent[0] += dur
                own = dur - frame[0]
                key = (layer, label, parent[1])
                rec = self.agg.get(key)
                if rec is None:
                    rec = self.agg[key] = [0, 0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += count_points(args)
                rec[2] += dur
                rec[3] += own
                self.layer_self[layer] += own

        return wrapper

    # -- passes -----------------------------------------------------------

    def begin_pass(self, pass_id) -> None:
        """Start recording a pass; spans of earlier passes are kept."""
        self.pass_id = pass_id
        # A frame is [time spent in wrapped children, name, id of the nearest span].
        self._stack[:] = [[0.0, "pass", None]]
        self.agg: dict[tuple[str, str, str], list] = {}
        self.layer_self: dict[str, float] = defaultdict(float)
        self._first_span = len(self.spans)

    def pass_spans(self) -> list[Span]:
        return self.spans[self._first_span:]
