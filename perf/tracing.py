"""In-memory span recorder and the outside-in wrappers of a traced child.

A span is (name, parent, thread, start, end) on ``CLOCK_MONOTONIC``, which
every process on the host shares, so the spans of several children line
up in one trace. Each thread keeps its own stack of open spans; a span's
self time is its duration minus the time its children cover. Calls that
end in under :data:`FOLD_BELOW_S` without children are folded into
per-(name, parent) counters instead of becoming events, which keeps
hot leaves like ``parse_config`` cheap to record.

:func:`install` rebinds every callable of :data:`perf.layers.LAYERS` to a
timing wrapper: on its class, in its defining module, in every loaded
``repro`` module that imported it by name, and in the serve ``ENDPOINTS``
table. Nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from contextlib import contextmanager

from perf.layers import LAYERS, PRELOAD

FOLD_BELOW_S = 1e-3


class _ThreadLog:
    __slots__ = ("tid", "stack", "spans", "folded", "events", "root_s",
                 "covered_s")

    def __init__(self, tid: int) -> None:
        self.tid = tid
        #: open spans: [name, start, children's seconds, has children]
        self.stack: list[list] = []
        #: name -> [calls, self seconds, total seconds]
        self.spans: dict[str, list] = {}
        #: (name, parent) -> [calls, total seconds]
        self.folded: dict[tuple[str, str], list] = {}
        self.events: list[tuple[str, str, float, float]] = []
        self.root_s = 0.0
        self.covered_s = 0.0


class Tracer:
    """Records spans per thread; :meth:`export` merges them."""

    def __init__(self, roots=(), clock=time.monotonic) -> None:
        #: span names that are timed calls; coverage is measured under them
        self.roots = frozenset(roots)
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._logs: list[_ThreadLog] = []
        self.counters: dict[str, float] = {}
        #: layers whose target no longer resolves (see :func:`install`)
        self.missing: list[str] = []

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = self._local.log = _ThreadLog(threading.get_ident())
            with self._lock:
                self._logs.append(log)
        return log

    def enter(self, name: str) -> _ThreadLog:
        log = self._log()
        log.stack.append([name, self._clock(), 0.0, False])
        return log

    def exit(self, log: _ThreadLog) -> None:
        end = self._clock()
        name, start, child_s, has_children = log.stack.pop()
        duration = end - start
        parent = ""
        if log.stack:
            frame = log.stack[-1]
            parent = frame[0]
            frame[2] += duration
            frame[3] = True
        agg = log.spans.get(name)
        if agg is None:
            agg = log.spans[name] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += duration - child_s
        agg[2] += duration
        if name in self.roots:
            log.root_s += duration
        elif parent in self.roots:
            log.covered_s += duration
        if duration < FOLD_BELOW_S and not has_children:
            fold = log.folded.get((name, parent))
            if fold is None:
                fold = log.folded[(name, parent)] = [0, 0.0]
            fold[0] += 1
            fold[1] += duration
        else:
            log.events.append((name, parent, start, end))

    @contextmanager
    def span(self, name: str):
        """Record one span around a block (used for step roots)."""
        log = self.enter(name)
        try:
            yield
        finally:
            self.exit(log)

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def export(self) -> dict:
        """Plain-JSON summary of everything recorded, all threads merged."""
        spans: dict[str, list] = {}
        folded: dict[str, list] = {}
        events = []
        root_s = covered_s = 0.0
        with self._lock:
            logs = list(self._logs)
            counters = dict(self.counters)
        for index, log in enumerate(logs):
            for name, (calls, self_s, total_s) in log.spans.items():
                agg = spans.setdefault(name, [0, 0.0, 0.0])
                agg[0] += calls
                agg[1] += self_s
                agg[2] += total_s
            for (name, parent), (calls, total_s) in log.folded.items():
                agg = folded.setdefault(f"{name}<{parent}", [0, 0.0])
                agg[0] += calls
                agg[1] += total_s
            events.extend([name, parent, index, start, end]
                          for name, parent, start, end in log.events)
            root_s += log.root_s
            covered_s += log.covered_s
        return {"spans": spans, "folded": folded, "events": events,
                "counters": counters, "root_s": root_s,
                "covered_s": covered_s, "missing": list(self.missing)}


# -- wrappers -----------------------------------------------------------------


def _resolve(target: str):
    """(owner, attribute, raw attribute, function) for ``module:attr``."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    raw = inspect.getattr_static(owner, attr)
    function = raw.__func__ if isinstance(raw, (classmethod,
                                                staticmethod)) else raw
    return owner, attr, raw, function


def _hooks(tracer: Tracer) -> dict:
    """Per-layer counters read off a call's arguments and result."""
    last_digest: list[str] = []

    def stagecache_load(args, result):
        if result is not None:
            tracer.count("core.stagecache_load.hits")

    def commit(args, result):
        writer = args[0]
        tracer.count("store.shards_written", writer.shards_written)
        tracer.count("store.shards_reused", writer.shards_reused)

    def cache_get(args, result):
        if result is not None:
            tracer.count("serve.cache.hits")

    def current(args, result):
        if last_digest and last_digest[-1] != result.digest:
            tracer.count("serve.reloads")
        last_digest[:] = [result.digest]

    return {"core.stagecache_load": stagecache_load, "store.commit": commit,
            "serve.cache_get": cache_get, "serve.current": current}


def _wrap(tracer: Tracer, name: str, function, hook=None):
    enter, exit_ = tracer.enter, tracer.exit

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        log = enter(name)
        try:
            result = function(*args, **kwargs)
        finally:
            exit_(log)
        if hook is not None:
            hook(args, result)
        return result

    return wrapper


def install(tracer: Tracer) -> None:
    """Rebind every :data:`~perf.layers.LAYERS` callable to a wrapper.

    A callable that no longer resolves (a refactor moved or removed it)
    is skipped: its metrics read zero and the results file lists it,
    instead of the run failing.
    """
    preload()
    hooks = _hooks(tracer)
    rebound: dict[int, tuple[object, object]] = {}
    for layer in LAYERS:
        try:
            owner, attr, raw, function = _resolve(layer.target)
        except (ImportError, AttributeError):
            tracer.missing.append(layer.name)
            continue
        wrapper = _wrap(tracer, layer.name, function, hooks.get(layer.name))
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(wrapper))
        elif isinstance(raw, staticmethod):
            setattr(owner, attr, staticmethod(wrapper))
        else:
            setattr(owner, attr, wrapper)
        rebound[id(function)] = (function, wrapper)

    # names bound by ``from module import function`` elsewhere
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for key, value in list(vars(module).items()):
            entry = rebound.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(module, key, entry[1])
    handlers = sys.modules.get("repro.serve.handlers")
    endpoints = getattr(handlers, "ENDPOINTS", {})
    for path, handler in list(endpoints.items()):
        entry = rebound.get(id(handler))
        if entry is not None and entry[0] is handler:
            endpoints[path] = entry[1]

    # bytes the stage cache writes: StageCache.store is its only caller
    workspace = sys.modules.get("repro.core.workspace")
    write = getattr(workspace, "atomic_write_bytes", None)
    if write is not None:
        def counted_write(path, data, *args, **kwargs):
            tracer.count("core.stagecache_store.bytes", len(data))
            return write(path, data, *args, **kwargs)

        workspace.atomic_write_bytes = counted_write


def preload() -> None:
    """Import :data:`~perf.layers.PRELOAD`, skipping modules that are gone."""
    for module in PRELOAD:
        try:
            importlib.import_module(module)
        except ModuleNotFoundError:
            pass


def chrome_trace(children: list[dict]) -> dict:
    """Chrome trace-event JSON (opens in Perfetto) for traced children."""
    events = []
    folded = {}
    origin = min((event[3] for child in children
                  for event in child["trace"]["events"]), default=0.0)
    for child in children:
        pid = child["pid"]
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "tid": 0, "args": {"name": child["step"]}})
        for name, parent, tid, start, end in child["trace"]["events"]:
            events.append({
                "name": name, "cat": name.split(".")[0], "ph": "X",
                "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
                "pid": pid, "tid": tid, "args": {"parent": parent},
            })
        folded[f"{child['step']}:{pid}"] = child["trace"]["folded"]
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": {"folded_leaves_under_1ms": folded}}
