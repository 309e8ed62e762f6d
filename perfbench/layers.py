"""Per-layer host-CPU tracing, installed at run time from the benchmark.

:class:`LayerTracer` wraps the public entry points of the simulator's
layers -- every public function and every public method of every public
class defined in the layer's modules, less the clock arithmetic in
:data:`SKIP` -- the same way
``repro.core.trace.trace_filesystem`` wraps a file system's hooks: by
replacing attributes in place and restoring them on :meth:`uninstall`.
Nothing under ``src/`` knows it is being traced.

Accounting.  Each simulated rank is a Python thread, so a span is timed
with ``time.thread_time`` on the thread that runs it.  A layer's *self*
CPU is its span time minus the time of the child-layer spans it encloses;
a call into the layer that is already on top of the thread's span stack
is collapsed into the enclosing span (not counted, not timed twice), so
``<layer>.calls`` counts boundary crossings into the layer.

A few extra counters are kept at specific boundaries:

* ``sim.context_switches`` -- ``SpmdResult.engine.context_switches``
  summed over ``run_spmd`` calls;
* ``iostack.scda.crc_combine`` -- calls and inclusive CPU of
  ``crc32_combine``;
* ``core.digest`` -- inclusive CPU of ``IOTrace.digest`` and
  ``IOTrace.canonical_events``;
* ``mpiio.read`` / ``pfs.read`` -- bytes callers asked ``File.read_at`` /
  ``File.read_at_all`` for, and file-system bytes read while such a call
  is open on the same thread (sieving and two-phase waste shows as the
  difference).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
import threading
import time
from collections import defaultdict
from enum import Enum

__all__ = ["LAYERS", "LayerTracer", "Patches"]

#: layer name -> modules (a package stands for all of its submodules).
#: ``sim`` is the engine's hand-off; the FCFS resource models in
#: ``repro.sim.resources`` are arithmetic for the device models above
#: them and stay in their callers' self time.
LAYERS = {
    "sim": ("repro.sim.engine",),
    "mpi": ("repro.mpi.comm", "repro.mpi.collectives", "repro.mpi.batch",
            "repro.mpi.request"),
    "mpiio": ("repro.mpiio",),
    "pfs": ("repro.pfs",),
    "iostack": ("repro.iostack",),
    "hdf4": ("repro.hdf4",),
    "hdf5": ("repro.hdf5",),
    "aio": ("repro.aio",),
    "enzo": ("repro.enzo",),
    "amr": ("repro.amr",),
    "core": ("repro.core",),
}


#: Clock arithmetic that costs less than a span would; left to the caller.
SKIP = {"Proc.advance", "Proc.advance_to", "MpiWorld.next_seq"}


def _modules(names):
    for name in names:
        module = importlib.import_module(name)
        yield module
        for info in pkgutil.iter_modules(getattr(module, "__path__", [])):
            yield importlib.import_module(f"{name}.{info.name}")


def _traceable(fn) -> bool:
    return inspect.isfunction(fn) and not (
        inspect.isgeneratorfunction(fn)
        or inspect.iscoroutinefunction(fn)
        or inspect.isasyncgenfunction(fn)
    )


class Patches:
    """Attribute and item replacements that :meth:`restore` undoes."""

    def __init__(self):
        self._undo: list[tuple] = []  # (owner, name, original)

    def __bool__(self) -> bool:
        return bool(self._undo)

    def set(self, owner, name: str, value) -> None:
        """``owner.name = value`` (``owner[name]`` for a dict)."""
        if isinstance(owner, dict):
            original = owner[name]
            owner[name] = value
        else:
            original = (vars(owner)[name] if isinstance(owner, type)
                        else getattr(owner, name))
            setattr(owner, name, value)
        self._undo.append((owner, name, original))

    def rebind(self, fn, replacement) -> None:
        """Replace ``fn`` wherever a loaded ``repro`` module binds it."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or mod_name.split(".")[0] != "repro":
                continue
            for name, value in list(vars(module).items()):
                if value is fn:
                    self.set(module, name, replacement)

    def restore(self) -> None:
        for owner, name, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)
        self._undo.clear()


class _ThreadTotals:
    """One thread's span stack and accumulators (merged on report)."""

    def __init__(self):
        self.stack: list[list] = []  # [layer, child-span CPU]
        self.self_cpu = defaultdict(float)
        self.calls = defaultdict(int)
        self.counters = defaultdict(float)
        self.depth = defaultdict(int)  # open boundary spans, by key


class LayerTracer:
    """Install with :meth:`install`; spans are recorded while ``active``."""

    def __init__(self):
        self.active = False
        self._local = threading.local()
        self._threads: list[_ThreadTotals] = []
        self._lock = threading.Lock()
        self._patches = Patches()

    # -- accounting ---------------------------------------------------------

    def _totals(self) -> _ThreadTotals:
        try:
            return self._local.totals
        except AttributeError:
            totals = self._local.totals = _ThreadTotals()
            with self._lock:
                self._threads.append(totals)
            return totals

    def report(self) -> dict:
        """Totals over every thread: self CPU, calls and counters."""
        out = {"self_cpu": defaultdict(float), "calls": defaultdict(int),
               "counters": defaultdict(float)}
        with self._lock:
            threads = list(self._threads)
        for t in threads:
            for key in ("self_cpu", "calls", "counters"):
                for name, value in getattr(t, key).items():
                    out[key][name] += value
        return out

    # -- wrappers -----------------------------------------------------------

    def _layer_span(self, layer: str, fn):
        clock = time.thread_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            t = self._totals()
            stack = t.stack
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            t.calls[layer] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = clock() - start
                stack.pop()
                t.self_cpu[layer] += spent - frame[1]
                if stack:
                    stack[-1][1] += spent
        return traced

    def _boundary(self, key: str, fn, *, nbytes=None, inside=None,
                  after=None):
        """Count outermost calls of ``fn`` under ``key``, with CPU time.

        ``nbytes(args)`` adds to ``<key>.bytes``; ``inside`` restricts
        counting to calls made while that other boundary is open on the
        same thread; ``after(result, counters)`` inspects the result.
        """
        clock = time.thread_time

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            t = self._totals()
            if t.depth[key] or (inside and not t.depth[inside]):
                return fn(*args, **kwargs)
            t.depth[key] += 1
            t.counters[f"{key}.calls"] += 1
            if nbytes is not None:
                t.counters[f"{key}.bytes"] += nbytes(args)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t.counters[f"{key}.cpu_s"] += clock() - start
                t.depth[key] -= 1
            if after is not None:
                after(result, t.counters)
            return result
        return counted

    # -- patching -------------------------------------------------------------

    def _wrap_method(self, cls, name: str, wrap) -> None:
        raw = vars(cls)[name]
        if isinstance(raw, (staticmethod, classmethod)):
            if _traceable(raw.__func__):
                self._patches.set(cls, name, type(raw)(wrap(raw.__func__)))
        elif _traceable(raw):
            self._patches.set(cls, name, wrap(raw))

    def install(self) -> None:
        """Wrap every layer's entry points and the boundary counters."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        seen: set[int] = set()
        for layer, names in LAYERS.items():
            wrap = functools.partial(self._layer_span, layer)
            for module in _modules(names):
                for name, obj in list(vars(module).items()):
                    if (name.startswith("_") or id(obj) in seen
                            or getattr(obj, "__module__", None)
                            != module.__name__):
                        continue
                    seen.add(id(obj))
                    if _traceable(obj):
                        self._patches.rebind(obj, wrap(obj))
                    elif (inspect.isclass(obj)
                          and not issubclass(obj, (BaseException, Enum))):
                        for attr in list(vars(obj)):
                            if not (attr.startswith("_")
                                    or f"{name}.{attr}" in SKIP):
                                self._wrap_method(obj, attr, wrap)
        self._install_boundaries()

    def _install_boundaries(self) -> None:
        from repro.core.trace import IOTrace
        from repro.iostack import scda
        from repro.mpi import runner
        from repro.mpiio.file import File
        from repro.pfs.base import FileSystem

        def switches(result, counters):
            counters["sim.context_switches"] += result.engine.context_switches

        run_spmd = runner.run_spmd
        self._patches.rebind(run_spmd, self._boundary(
            "sim.run_spmd", run_spmd, after=switches))
        crc = scda.crc32_combine
        self._patches.rebind(
            crc, self._boundary("iostack.scda.crc_combine", crc))
        for name in ("digest", "canonical_events"):
            self._wrap_method(IOTrace, name, functools.partial(
                self._boundary, "core.digest"))
        def asked(args):  # File.read_at[_all](self, offset, buf_or_nbytes)
            want = args[2]
            return want if isinstance(want, int) else File._nbytes(want)

        for name in ("read_at", "read_at_all"):
            self._wrap_method(File, name, functools.partial(
                self._boundary, "mpiio.read", nbytes=asked))
        self._wrap_method(FileSystem, "read", functools.partial(
            self._boundary, "pfs.read", inside="mpiio.read",
            nbytes=lambda args: int(args[3])))
        self._wrap_method(FileSystem, "read_list", functools.partial(
            self._boundary, "pfs.read", inside="mpiio.read",
            nbytes=lambda args: sum(int(n) for _off, n in args[2])))

    def uninstall(self) -> None:
        self.active = False
        self._patches.restore()
