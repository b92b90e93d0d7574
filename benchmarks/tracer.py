"""In-memory call tracer for the nadek package, installed from outside it.

The tracer wraps the public callables of every package module (module-level
functions and public methods of the module's classes) and rebinds every
module attribute that is the same object as a wrapped callable, so the
``from .model import forward`` copies in other modules are traced too.
``uninstall`` puts every original back.

Aggregates are kept per thread and keyed by (callable, parent callable):
call count, inclusive time and self time.  Self time is the call's wall
time minus the time spent in wrapped children.  The benchmark runs every
command on one thread; a call made on another thread would be aggregated
with the root as its parent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import threading
from time import perf_counter

PACKAGE = "nadek"
LAYERS = (
    "cli",
    "data",
    "checkpoint",
    "model",
    "training",
    "evaluation",
    "sampling",
    "numerics",
)

# Called once per random number: paper-shape init alone makes ~1.5M calls.
# Their cost stays in the caller's self time.
PER_DRAW_METHODS = frozenset(
    {"Rng.next_uint64", "Rng.next_float", "Rng.next_below", "Rng.uniform", "Rng.bernoulli"}
)

ROOT = "(root)"


def _rows(args, kwargs, index: int, name: str) -> int:
    x = kwargs[name] if name in kwargs else args[index]
    ndim = getattr(x, "ndim", 1)
    return 1 if ndim <= 1 else int(x.shape[0])


def _file_bytes(args, kwargs, name: str = "path") -> int:
    path = kwargs[name] if name in kwargs else args[0]
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


# Extra per-call counters, read from the arguments after the call returns.
COUNTERS = {
    "model.forward": lambda a, kw: _rows(a, kw, 2, "x"),
    "training.backward": lambda a, kw: _rows(a, kw, 3, "x"),
    "data.load_text_matrix": _file_bytes,
    "data.save_text_matrix": _file_bytes,
    "checkpoint.load_checkpoint": _file_bytes,
    "checkpoint.save_checkpoint": _file_bytes,
}


class _Frame:
    """One active span on a thread's stack."""

    __slots__ = ("key", "child_s")

    def __init__(self, key: str):
        self.key = key
        self.child_s = 0.0


def discover() -> dict[str, tuple[object, str, object]]:
    """Traceable callables: key -> (owner, attribute name, raw attribute).

    The owner is the defining module for functions and the class for
    methods; the raw attribute is what ``owner.__dict__`` holds (so
    classmethods keep their descriptor).
    """
    found: dict[str, tuple[object, str, object]] = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"{PACKAGE}.{layer}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                found[f"{layer}.{name}"] = (mod, name, obj)
            elif inspect.isclass(obj):
                for mname, raw in vars(obj).items():
                    key = f"{layer}.{name}.{mname}"
                    if mname.startswith("_") or f"{name}.{mname}" in PER_DRAW_METHODS:
                        continue
                    if inspect.isfunction(raw) or isinstance(raw, (classmethod, staticmethod)):
                        found[key] = (obj, mname, raw)
    return found


class Tracer:
    """Patch, aggregate, restore.  Use as a context manager or call
    ``install``/``uninstall`` explicitly."""

    def __init__(self):
        self._local = threading.local()
        self._thread_stats: list[dict] = []
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []
        self.spans: list[dict] = []

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        targets = discover()
        wrappers: dict[int, object] = {}
        for key, (owner, name, raw) in targets.items():
            if inspect.isclass(owner):
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped = type(raw)(self._wrap(raw.__func__, key))
                else:
                    wrapped = self._wrap(raw, key)
                self._restore.append((owner, name, raw))
                setattr(owner, name, wrapped)
            else:
                wrappers[id(raw)] = (raw, self._wrap(raw, key))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for name, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((mod, name, obj))
                    setattr(mod, name, hit[1])

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- recording --------------------------------------------------------

    def _thread_state(self):
        local = self._local
        try:
            return local.stack, local.stats
        except AttributeError:
            local.stack = [_Frame(ROOT)]
            local.stats = {}
            with self._lock:
                self._thread_stats.append(local.stats)
            return local.stack, local.stats

    def _wrap(self, fn, key: str):
        counter = COUNTERS.get(key)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, stats = self._thread_state()
            parent = stack[-1]
            frame = _Frame(key)
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                parent.child_s += dur
                entry = stats.get((key, parent.key))
                if entry is None:
                    entry = stats[(key, parent.key)] = [0, 0.0, 0.0, 0]
                entry[0] += 1
                entry[1] += dur
                entry[2] += dur - frame.child_s
                if counter is not None:
                    entry[3] += counter(args, kwargs)

        return traced

    def span(self, name: str, start: float, end: float) -> None:
        self.spans.append({"name": name, "start": start, "end": end})

    def aggregates(self) -> dict[tuple[str, str], list]:
        """(callable, parent) -> [calls, inclusive_s, self_s, counter], all threads."""
        merged: dict[tuple[str, str], list] = {}
        with self._lock:
            for stats in self._thread_stats:
                for k, (n, tot, slf, extra) in stats.items():
                    e = merged.setdefault(k, [0, 0.0, 0.0, 0])
                    e[0] += n
                    e[1] += tot
                    e[2] += slf
                    e[3] += extra
        return merged
