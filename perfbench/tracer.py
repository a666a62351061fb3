"""Per-function timing of the srlaguerre modules, measured from outside.

The tracer replaces each public function of the package modules, and a few
class constructors, with a timing wrapper in every ``srlaguerre`` namespace
that holds it: module globals, the package itself, and module-level lookup
tables such as ``bijections._CONJUGATED``.  The modules import each other's
functions with ``from .x import f``, so patching only the defining module
would miss its callers.  ``uninstall`` puts every original back.

Inner calls are aggregated per function into call count, inclusive time and
self time (inclusive time minus the time of wrapped calls made inside it).
Each thread keeps its own call stack and its own totals, because
``run_claim`` sweeps on a thread pool; totals are merged when read.
Generator functions are timed over their iteration, one segment per item.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time

LAYERS = (
    "multiset",
    "histories",
    "involution",
    "perm_stats",
    "bijections",
    "mfs_action",
    "genfun",
    "claims",
)

# Class methods timed besides the modules' public functions.  Building an
# IntMultiset goes through __init__, from_pairs or _unchecked.
CLASS_METHODS = {
    "multiset": {"IntMultiset": ("__init__", "from_pairs", "_unchecked", "__or__", "__sub__")},
    "histories": {"LaguerreHistory": ("__init__",)},
    "perm_stats": {"Permutation": ("__init__",)},
    "genfun": {"MultiPoly": ("add_term",)},
}


class _ThreadState(threading.local):
    def __init__(self, registry: list):
        self.frames: list[float] = []  # child time accumulated per open call
        self.stats: dict[str, list] = {}  # key -> [calls, incl_s, self_s, items]
        registry.append(self.stats)


class Tracer:
    """Install timing wrappers around the package; read totals per function."""

    def __init__(self):
        self._all_stats: list[dict[str, list]] = []
        self._state = _ThreadState(self._all_stats)
        self._patches: list[tuple[object, str, object, bool]] = []

    # -- timing -----------------------------------------------------------

    def _finish(self, key: str, start: float, items: int = 0) -> None:
        dur = time.perf_counter() - start
        state = self._state
        frames = state.frames
        child = frames.pop()
        if frames:
            frames[-1] += dur
        rec = state.stats.get(key)
        if rec is None:
            rec = state.stats[key] = [0, 0.0, 0.0, 0]
        rec[1] += dur
        rec[2] += dur - child
        rec[3] += items

    def _count(self, key: str) -> None:
        stats = self._state.stats
        rec = stats.get(key)
        if rec is None:
            rec = stats[key] = [0, 0.0, 0.0, 0]
        rec[0] += 1

    def call(self, key: str, fn, *args, **kwargs):
        """Call ``fn`` as one span named ``key``."""
        self._count(key)
        self._state.frames.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._finish(key, start)

    def _wrap(self, key: str, fn):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(key, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(key, fn, *args, **kwargs)

        return wrapper

    def _wrap_generator(self, key: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._count(key)
            it = fn(*args, **kwargs)
            try:
                while True:
                    self._state.frames.append(0.0)
                    start = time.perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        self._finish(key, start)
                        return
                    self._finish(key, start, items=1)
                    yield item
            finally:
                it.close()

        return wrapper

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function in every namespace that binds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        package = sys.modules["srlaguerre"]
        modules = [package] + [sys.modules[f"srlaguerre.{name}"] for name in LAYERS]
        wrapped: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules[f"srlaguerre.{layer}"]
            for name, obj in vars(module).items():
                if (
                    not name.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                ):
                    wrapped[id(obj)] = self._wrap(f"{layer}.{name}", obj)
            for cls_name, methods in CLASS_METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name)
                for method in methods:
                    self._patch_method(cls, method, f"{layer}.{cls_name}.{method}")
        for module in modules:
            namespace = vars(module)
            for name, obj in list(namespace.items()):
                if id(obj) in wrapped:
                    self._set(module, name, wrapped[id(obj)], attr=True)
                elif isinstance(obj, dict):
                    for k, v in list(obj.items()):
                        if id(v) in wrapped:
                            self._set(obj, k, wrapped[id(v)], attr=False)
                        elif isinstance(v, tuple) and any(id(x) in wrapped for x in v):
                            new = tuple(wrapped.get(id(x), x) for x in v)
                            self._set(obj, k, new, attr=False)

    def _patch_method(self, cls, method: str, key: str) -> None:
        raw = cls.__dict__[method]
        if isinstance(raw, classmethod):
            new = classmethod(self._wrap(key, raw.__func__))
        else:
            new = self._wrap(key, raw)
        self._set(cls, method, new, attr=True)

    def _set(self, target, key, value, attr: bool) -> None:
        if attr:
            original = (
                target.__dict__[key] if isinstance(target, type) else getattr(target, key)
            )
            self._patches.append((target, key, original, True))
            setattr(target, key, value)
        else:
            self._patches.append((target, key, target[key], False))
            target[key] = value

    def uninstall(self) -> None:
        """Restore every patched binding, last patch first."""
        while self._patches:
            target, key, original, attr = self._patches.pop()
            if attr:
                setattr(target, key, original)
            else:
                target[key] = original

    # -- reading ----------------------------------------------------------

    def totals(self) -> dict[str, list]:
        """Per-function [calls, inclusive_s, self_s, items], all threads merged."""
        return merge(self._all_stats)


def merge(tables) -> dict[str, list]:
    """Sum per-function [calls, inclusive_s, self_s, items] records."""
    merged: dict[str, list] = {}
    for table in tables:
        for key, rec in list(table.items()):
            acc = merged.setdefault(key, [0, 0.0, 0.0, 0])
            for k in range(4):
                acc[k] += rec[k]
    return merged
