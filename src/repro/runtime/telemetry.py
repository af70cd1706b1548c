"""Stage-timing telemetry for the pipeline runtime.

Every instrumented stage — each :func:`repro.runtime.pool.parallel_map`
call site and the workspace build — records samples into the
process-wide :data:`TELEMETRY` aggregator: wall-clock seconds, the
number of tasks fanned out, and the worker count actually used (1 when
the stage ran serially). Benchmarks print :meth:`Telemetry.summary`
after the run and, when the ``MPA_TELEMETRY`` environment variable
names a file, dump the machine-readable form via
:meth:`Telemetry.dump_json` so runs at different ``MPA_JOBS`` settings
can be diffed offline.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.util.ioutils import atomic_write_text


@dataclass
class StageStats:
    """Accumulated timing for one named pipeline stage."""

    name: str
    calls: int = 0
    tasks: int = 0
    seconds: float = 0.0
    #: largest worker count any sample of this stage ran with
    max_jobs: int = 1

    def add(self, seconds: float, tasks: int, jobs: int) -> None:
        self.calls += 1
        self.tasks += tasks
        self.seconds += seconds
        self.max_jobs = max(self.max_jobs, jobs)


@dataclass
class CacheStats:
    """Accumulated hit/miss counts for one named result cache."""

    name: str
    hits: int = 0
    misses: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass
class CheckStats:
    """Accumulated pass/fail counts for one named validation check."""

    name: str
    passed: int = 0
    failed: int = 0

    @property
    def ok(self) -> bool:
        return self.failed == 0


@dataclass
class FaultStats:
    """Accumulated fault-handling counters for one named component.

    ``retries`` counts re-attempts after a retryable failure (backoff
    included), ``timeouts`` counts hung tasks reaped by the pool
    watchdog, ``dead_letters`` counts events routed to the streaming
    ingester's dead-letter quarantine after retries were exhausted.
    """

    name: str
    retries: int = 0
    timeouts: int = 0
    dead_letters: int = 0

    @property
    def any(self) -> int:
        return self.retries + self.timeouts + self.dead_letters


@dataclass
class Telemetry:
    """Thread-safe per-process aggregator of stage timings."""

    _stages: dict[str, StageStats] = field(default_factory=dict)
    _caches: dict[str, CacheStats] = field(default_factory=dict)
    _checks: dict[str, CheckStats] = field(default_factory=dict)
    _faults: dict[str, FaultStats] = field(default_factory=dict)
    _notes: dict[str, str] = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def record(self, name: str, seconds: float, tasks: int = 0,
               jobs: int = 1) -> None:
        """Add one sample for ``name`` (stages accumulate across calls)."""
        with self._lock:
            stats = self._stages.get(name)
            if stats is None:
                stats = self._stages[name] = StageStats(name=name)
            stats.add(seconds, tasks, jobs)

    def record_cache(self, name: str, hits: int = 0, misses: int = 0) -> None:
        """Accumulate hit/miss counts for result cache ``name``."""
        with self._lock:
            stats = self._caches.get(name)
            if stats is None:
                stats = self._caches[name] = CacheStats(name=name)
            stats.hits += hits
            stats.misses += misses

    def record_check(self, name: str, passed: bool) -> None:
        """Accumulate one pass/fail sample for validation check ``name``.

        The selfcheck harness (:mod:`repro.analysis.selfcheck`) reports
        every invariant verdict here so check outcomes ride along in the
        same telemetry dump the runtime stages use.
        """
        with self._lock:
            stats = self._checks.get(name)
            if stats is None:
                stats = self._checks[name] = CheckStats(name=name)
            if passed:
                stats.passed += 1
            else:
                stats.failed += 1

    def record_fault(self, name: str, retries: int = 0, timeouts: int = 0,
                     dead_letters: int = 0) -> None:
        """Accumulate fault-handling counters for component ``name``.

        The pool watchdog reports reaped hung tasks here, the retry
        layer reports backoff re-attempts, and the streaming ingester
        reports dead-lettered events — so a run's fault handling shows
        up in the same summary/dump the stages use.
        """
        with self._lock:
            stats = self._faults.get(name)
            if stats is None:
                stats = self._faults[name] = FaultStats(name=name)
            stats.retries += retries
            stats.timeouts += timeouts
            stats.dead_letters += dead_letters

    def note(self, key: str, value: str) -> None:
        """Attach a free-form key/value fact to the run (latest wins)."""
        with self._lock:
            self._notes[key] = value

    @contextmanager
    def stage(self, name: str, tasks: int = 0, jobs: int = 1):
        """Time a block as one sample of stage ``name``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.record(name, time.perf_counter() - start, tasks, jobs)

    def stages(self) -> list[StageStats]:
        """Recorded stages in first-seen order."""
        with self._lock:
            return list(self._stages.values())

    def caches(self) -> list[CacheStats]:
        """Recorded cache counters in first-seen order."""
        with self._lock:
            return list(self._caches.values())

    def checks(self) -> list[CheckStats]:
        """Recorded check counters in first-seen order."""
        with self._lock:
            return list(self._checks.values())

    def faults(self) -> list[FaultStats]:
        """Recorded fault-handling counters in first-seen order."""
        with self._lock:
            return list(self._faults.values())

    def notes(self) -> dict[str, str]:
        with self._lock:
            return dict(self._notes)

    def reset(self) -> None:
        with self._lock:
            self._stages.clear()
            self._caches.clear()
            self._checks.clear()
            self._faults.clear()
            self._notes.clear()

    def as_dict(self) -> dict:
        stages = self.stages()
        data = {
            "total_seconds": sum(s.seconds for s in stages),
            "stages": [asdict(s) for s in stages],
        }
        caches = self.caches()
        if caches:
            data["caches"] = [asdict(c) for c in caches]
        checks = self.checks()
        if checks:
            data["checks"] = [asdict(c) for c in checks]
        faults = self.faults()
        if faults:
            data["faults"] = [asdict(f) for f in faults]
        notes = self.notes()
        if notes:
            data["notes"] = notes
        return data

    def dump_json(self, path: str | Path) -> None:
        """Write :meth:`as_dict` to ``path`` as indented JSON.

        The dump is atomic (temp name + rename, the same pattern the
        workspace cache uses), so a run that crashes mid-dump never
        leaves a truncated JSON file under ``path``.
        """
        atomic_write_text(path, json.dumps(self.as_dict(), indent=2) + "\n")

    def summary(self) -> str:
        """A small human-readable table of all recorded stages."""
        stages = self.stages()
        caches = self.caches()
        checks = self.checks()
        faults = self.faults()
        notes = self.notes()
        if (not stages and not caches and not checks and not faults
                and not notes):
            return "runtime telemetry: no stages recorded"
        lines = []
        if stages:
            lines += ["runtime telemetry (per-stage wall time):",
                      f"  {'stage':<22} {'calls':>6} {'tasks':>7} "
                      f"{'jobs':>5} {'seconds':>9}"]
            for s in stages:
                lines.append(f"  {s.name:<22} {s.calls:>6} {s.tasks:>7} "
                             f"{s.max_jobs:>5} {s.seconds:>9.3f}")
        if caches:
            lines += ["stage cache (hits/misses):",
                      f"  {'cache':<22} {'hits':>7} {'misses':>7} "
                      f"{'rate':>6}"]
            for c in caches:
                lines.append(f"  {c.name:<22} {c.hits:>7} {c.misses:>7} "
                             f"{c.hit_rate:>6.1%}")
        if checks:
            lines += ["validation checks (pass/fail):",
                      f"  {'check':<34} {'pass':>6} {'fail':>6}"]
            for c in checks:
                lines.append(f"  {c.name:<34} {c.passed:>6} {c.failed:>6}")
        if faults:
            lines += ["fault handling (retries/timeouts/dead letters):",
                      f"  {'component':<22} {'retries':>8} {'timeouts':>9} "
                      f"{'dead':>6}"]
            for f in faults:
                lines.append(f"  {f.name:<22} {f.retries:>8} "
                             f"{f.timeouts:>9} {f.dead_letters:>6}")
        for key, value in notes.items():
            lines.append(f"  note: {key} = {value}")
        return "\n".join(lines)


#: Process-wide telemetry singleton used by the runtime and benchmarks.
TELEMETRY = Telemetry()
