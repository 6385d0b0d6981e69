"""In-memory span tracing of the ``ictl`` modules, installed from outside.

The tracer replaces module attributes with timing wrappers.  Callers in
``ictl`` look functions up in module globals at call time (for example
``checker.denote`` calls ``subformulas`` and ``gen.find_countermodel``
calls ``denote``), so wrapping every module attribute that holds a traced
function object catches every call made through a name.  ``restore``
puts each original object back.

Spans are aggregated per (function, parent) as call count, inclusive
time and self time, where self time is the inclusive time minus the part
covered by child spans.  Generator functions are timed per ``next()``
call; their yields are counted separately.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from time import perf_counter

# layer (module of ictl) -> public functions traced in that layer
TRACED = {
    "syntax": ["parse_formula", "subformulas"],
    "model": [
        "load_model",
        "build_model",
        "validate_frame",
        "pre_exists",
        "pre_forall",
        "up_interior",
    ],
    "checker": [
        "denote",
        "check",
        "implication_set",
        "exists_next_set",
        "forall_next_set",
        "exists_until_set",
        "exists_release_set",
        "forall_until_set",
        "forall_release_set",
        "lfp",
        "gfp",
    ],
    "oracle": [
        "implication_worlds",
        "exists_next_worlds",
        "forall_next_worlds",
        "exists_until_worlds",
        "exists_release_worlds",
        "forall_until_worlds",
        "forall_release_worlds",
        "oracle_check",
    ],
    "gen": [
        "enumerate_frames",
        "enumerate_models",
        "random_model",
        "find_countermodel",
        "frame_conditions_hold",
    ],
    "harness": ["compile_battery", "scan_models"],
    "cli": ["main"],
}

# modules whose globals are searched for references to traced functions
SCANNED = ["ictl", *(f"ictl.{layer}" for layer in TRACED)]

FIXPOINTS = ("checker.lfp", "checker.gfp")


class Tracer:
    """Wraps the traced functions on ``install`` and unwraps on ``restore``."""

    def __init__(self) -> None:
        # (name, parent name) -> [calls, inclusive s, self s, yields]
        self.agg: dict[tuple[str, str], list] = {}
        self.fixpoint_iterations = 0
        self._stack: list[list] = []  # [name, child seconds]
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------

    def _record(self, name: str, dt: float, yielded: bool) -> None:
        _, child = self._stack.pop()
        parent = self._stack[-1][0] if self._stack else ""
        if self._stack:
            self._stack[-1][1] += dt
        rec = self.agg.get((name, parent))
        if rec is None:
            rec = self.agg[(name, parent)] = [0, 0.0, 0.0, 0]
        rec[0] += 1
        rec[1] += dt
        rec[2] += dt - child
        rec[3] += yielded

    def _count_applications(self, transformer):
        def counted(z):
            self.fixpoint_iterations += 1
            return transformer(z)

        return counted

    def wrap(self, name: str, fn):
        stack = self._stack
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    stack.append([name, 0.0])
                    t0 = perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        self._record(name, perf_counter() - t0, False)
                        return
                    except BaseException:
                        self._record(name, perf_counter() - t0, False)
                        raise
                    self._record(name, perf_counter() - t0, True)
                    yield item

            return gen_wrapper

        count = name in FIXPOINTS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count:
                args = (self._count_applications(args[0]), *args[1:])
            stack.append([name, 0.0])
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._record(name, perf_counter() - t0, False)

        return wrapper

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer, names in TRACED.items():
            module = importlib.import_module(f"ictl.{layer}")
            for fname in names:
                orig = getattr(module, fname)
                wrappers[id(orig)] = (orig, self.wrap(f"{layer}.{fname}", orig))
        for modname in SCANNED:
            module = importlib.import_module(modname)
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def restore(self) -> None:
        while self._patched:
            module, attr, orig = self._patched.pop()
            setattr(module, attr, orig)

    def patched(self) -> list[tuple[object, str, object]]:
        """(module, attribute, original object) for every wrapped attribute."""
        return list(self._patched)

    # -- results --------------------------------------------------------

    def totals(self, name: str, parent: str | None = None) -> list:
        """[calls, inclusive s, self s, yields] summed over parents (or one parent)."""
        out = [0, 0.0, 0.0, 0]
        for (n, p), rec in self.agg.items():
            if n == name and (parent is None or p == parent):
                out = [a + b for a, b in zip(out, rec)]
        return out

    def span_table(self) -> list[dict]:
        return [
            {"function": n, "parent": p, "calls": r[0], "s": r[1], "self_s": r[2], "yields": r[3]}
            for (n, p), r in sorted(self.agg.items())
        ]


def traced_names() -> list[str]:
    return [f"{layer}.{f}" for layer, names in TRACED.items() for f in names]
