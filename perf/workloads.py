"""One repetition of each workload, driven from outside the program.

A repetition copies the fixture parts it needs into its own work dir,
then runs each timed step as a fresh ``python -m perf.child`` process
with ``MPA_JOBS=1`` (single-process program; wrappers in a traced child
could not see pool workers, and the second core stays free for the load
generator). Per child it records:

* set-up: spawn until the timed call starts (for the server: until
  ``/healthz`` answers 200);
* the timed call's wall time, from the child's monotonic stamps;
* peak RSS, the child's own ``VmHWM`` as it exits.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from perf import inputs
from perf.fixtures import (
    INGEST_EVENTS,
    KILLED_EVENTS,
    ROOT,
    FixtureSet,
    child_env,
)
from perf.stats import nearest_rank

CHILD_TIMEOUT_S = 150
SERVE_CLIENTS = 2


@dataclass
class Child:
    """What one finished (or killed) child left behind."""

    step: str
    pid: int
    t_spawn: float
    status: int
    out: dict
    stderr: str

    @property
    def ok(self) -> bool:
        return self.status == 0 and "t_end" in self.out

    @property
    def setup_s(self) -> float:
        return self.out["t_start"] - self.t_spawn

    @property
    def timed_s(self) -> float:
        return self.out["t_end"] - self.out["t_start"]

    def failure(self) -> str:
        how = (f"killed by signal {-self.status}" if self.status < 0
               else f"exit code {self.status}")
        tail = self.stderr.strip().splitlines()[-3:]
        return f"{self.step}: {how}" + (f" ({' | '.join(tail)})"
                                        if tail else "")


@dataclass
class Rep:
    """One repetition's measurements and outputs."""

    wall_s: float = 0.0
    setup_s: float = 0.0
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    #: values the correctness gate checks
    outputs: dict = field(default_factory=dict)
    #: workload-specific named metrics (build_s, serve_p99_ms, ...)
    extra: dict = field(default_factory=dict)
    #: traced children's exports, for per-layer metrics and the trace file
    traces: list[dict] = field(default_factory=list)
    #: a set-up probe: children stop where their timed call would start
    probe: bool = False

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)

    def add(self, child: Child) -> bool:
        """Account one child; True when it finished a timed call."""
        self.attempted += 1
        if not child.ok:
            self.fail(child.failure())
            return False
        self.setup_s += child.setup_s
        if self.probe:
            return False
        self.peak_rss_mb = max(self.peak_rss_mb, child.out["peak_rss_mb"])
        self.wall_s += child.timed_s
        if "trace" in child.out:
            self.traces.append({**child.out, "pid": child.pid,
                                "step": child.step})
        return True


def _reap(proc: subprocess.Popen, timeout: float) -> int:
    """Wait for ``proc``, SIGKILLing it after ``timeout``; its exit status."""
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        proc.wait()
    finally:
        timer.cancel()
    return proc.returncode


class Runner:
    """Spawns the children of one repetition inside its work dir."""

    def __init__(self, fixture: FixtureSet, work: Path, *, traced: bool,
                 probe: bool) -> None:
        self.fixture = fixture
        self.work = work
        self.traced = traced
        self.probe = probe

    def rep(self) -> "Rep":
        return Rep(probe=self.probe)

    def command(self, step: str, request: dict) -> tuple[list[str], Path]:
        result = self.work / f"{step}.result.json"
        request = {**request, "step": step, "trace": self.traced,
                   "setup_only": self.probe, "seed": self.fixture.seed,
                   "result": str(result)}
        command = [sys.executable, "-m", "perf.child", json.dumps(request)]
        return command, result

    def run(self, step: str, request: dict,
            env: dict | None = None) -> Child:
        command, result = self.command(step, request)
        stderr = self.work / f"{step}.stderr"
        with open(stderr, "wb") as err:
            t_spawn = time.monotonic()
            proc = subprocess.Popen(command, cwd=ROOT, env=child_env(env),
                                    stdout=subprocess.DEVNULL, stderr=err)
        status = _reap(proc, CHILD_TIMEOUT_S)
        out = json.loads(result.read_text()) if result.exists() else {}
        return Child(step, proc.pid, t_spawn, status, out,
                     stderr.read_text(errors="replace"))

    def copy(self, source: Path, name: str) -> Path:
        target = self.work / name
        shutil.copytree(source, target)
        return target


# -- build-cold ---------------------------------------------------------------


def rep_build(runner: Runner, context: dict) -> Rep:
    """``Workspace.ensure()`` on a corpus already on disk, caches empty."""
    fixture = runner.fixture
    cache = runner.work / "cache"
    shutil.copytree(fixture.corpus, cache / fixture.workspace_name / "corpus")
    rep = runner.rep()
    child = runner.run("build", {"cache_dir": str(cache)})
    if rep.add(child):
        rep.outputs["manifest_digest"] = child.out["digest"]
        rep.outputs["dataset_digest"] = child.out["dataset_digest"]
        rep.extra["build_s"] = child.timed_s
    return rep


# -- refresh-month ------------------------------------------------------------


def rep_refresh(runner: Runner, context: dict) -> Rep:
    """Extend by a month, ingest 256 arrivals, crash mid-batch, resume."""
    fixture = runner.fixture
    cache = runner.copy(fixture.built, "cache")
    state = runner.copy(fixture.ingest_state, "state")
    events = {"state_dir": str(state), "arrivals": str(fixture.arrivals)}
    rep = runner.rep()

    extend = runner.run("extend", {"cache_dir": str(cache)})
    if rep.add(extend):
        rep.outputs["extend_digest"] = extend.out["digest"]
        rep.outputs["extend_accuracy"] = extend.out["accuracy"]
        rep.extra["extend_s"] = extend.timed_s

    ingest = runner.run("ingest", {**events, "start": 0,
                                   "stop": INGEST_EVENTS})
    if rep.add(ingest):
        rep.outputs["ingest_digest"] = ingest.out["digest"]
        rep.extra["ingest_s"] = ingest.timed_s
        rep.extra["ingest_events_per_s"] = INGEST_EVENTS / ingest.timed_s

    if not rep.probe:
        killed = runner.run(
            "kill", {**events, "start": INGEST_EVENTS,
                     "stop": INGEST_EVENTS + KILLED_EVENTS},
            env={"MPA_FAULT_KILL_AT_POINT": "pre-artifact-save:1"})
        rep.attempted += 1
        if killed.status != -signal.SIGKILL:
            rep.fail(f"kill: expected SIGKILL, got {killed.failure()}")

    resume = runner.run("resume", events)
    if rep.add(resume):
        rep.outputs["resume_digest"] = resume.out["digest"]
        rep.extra["resume_s"] = resume.timed_s
    return rep


# -- analyze ------------------------------------------------------------------


def rep_analyze(runner: Runner, context: dict) -> Rep:
    """``mpa report`` + online accuracy on the built workspace."""
    fixture = runner.fixture
    cache = runner.work / "cache"
    shutil.copytree(fixture.built / fixture.workspace_name,
                    cache / fixture.workspace_name)
    rep = runner.rep()
    child = runner.run("analyze", {"cache_dir": str(cache)})
    if rep.add(child):
        rep.outputs["report_sha256"] = child.out["report_sha256"]
        rep.outputs["accuracy"] = child.out["accuracy"]
        rep.extra["analyze_s"] = child.timed_s
    return rep


# -- serve-mixed --------------------------------------------------------------


def serve_context(fixture: FixtureSet) -> dict:
    """The seeded request sequence over the fixture store's names."""
    from repro.analysis.causal import planted_candidates
    from repro.serve.loadgen import Request
    from repro.store import CorpusStore
    store = CorpusStore.open(fixture.built / fixture.workspace_name
                             / "dataset.mpstore")
    practices = list(store.names)
    universe = inputs.request_universe(
        fixture.seed, practices, list(store.networks), inputs.N_MONTHS,
        [name for name in planted_candidates() if name in practices])
    mix = inputs.build_mix(fixture.seed, universe)
    return {"mix": [Request(r.path, dict(r.params)) for r in mix]}


def _alive(proc: subprocess.Popen) -> bool:
    """True while ``proc`` runs (checks without reaping it)."""
    return os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOHANG
                     | os.WNOWAIT) is None


def _listening_url(proc: subprocess.Popen) -> str:
    """Read the server's startup line; returns its base URL."""
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        for raw in proc.stdout:
            line = raw.decode(errors="replace")
            if "listening on " in line:
                return line.split("listening on ", 1)[1].split()[0]
    finally:
        timer.cancel()
    raise RuntimeError("server exited before listening")


def _wait_healthy(url: str, proc: subprocess.Popen) -> None:
    from urllib.error import URLError

    from repro.serve.loadgen import fetch_json
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    while time.monotonic() < deadline and _alive(proc):
        try:
            if fetch_json(url + "/healthz", timeout=5.0)[0] == 200:
                return
        except (URLError, OSError):
            pass
        time.sleep(0.01)
    raise RuntimeError("server never answered /healthz with 200")


def _check_bodies(records, base_url: str, rotate_at: int,
                  store_digests: tuple[str, str], rep: Rep) -> None:
    """The first ``rotate_at`` records are answered from the base store
    (generation 0) and every later one from the rotated store
    (generation 1); on each generation every distinct request is computed
    once and every cached body equals that miss body. Digests the
    distinct miss bodies."""
    responses: dict[tuple[int, str], list[tuple[bool, str]]] = {}
    for index, (url, status, body, _) in enumerate(records):
        if status != 200:
            continue  # run_load counts it as an error
        meta = body.get("meta", {})
        generation = int(index >= rotate_at)
        if meta.get("store_digest") != store_digests[generation]:
            when = "after" if generation else "before"
            rep.fail(f"{url[len(base_url):]}: answered {when} the rotation "
                     f"from store {meta.get('store_digest')}")
            continue
        canonical = json.dumps({k: v for k, v in body.items() if k != "meta"},
                               sort_keys=True, separators=(",", ":"))
        responses.setdefault((generation, url[len(base_url):]), []).append(
            (bool(meta.get("cached")), canonical))
    digest = hashlib.sha256()
    for (generation, target), bodies in sorted(responses.items()):
        misses = {canonical for cached, canonical in bodies if not cached}
        if len(misses) != 1:
            rep.fail(f"{target}: {len(misses)} distinct miss bodies "
                     f"on store generation {generation}")
            continue
        (miss,) = misses
        if any(canonical != miss for _, canonical in bodies):
            rep.fail(f"{target}: a cached body differs from its miss body")
        digest.update(f"{generation}\t{target}\t{miss}\n".encode())
    rep.outputs["bodies_sha256"] = digest.hexdigest()
    rep.extra["distinct_requests"] = len(responses)


def _latency_extras(records, wall_s: float) -> dict:
    latencies = [ms for _, status, _, ms in records]
    p50, _ = nearest_rank(latencies, 50)
    p99, beyond = nearest_rank(latencies, 99)
    hit = [ms for _, status, body, ms in records
           if status == 200 and body.get("meta", {}).get("cached")]
    miss = [ms for _, status, body, ms in records
            if status == 200 and not body.get("meta", {}).get("cached")]
    return {
        "serve_p50_ms": p50, "serve_p99_ms": p99,
        "serve_p99_beyond": beyond, "serve_samples": len(latencies),
        "serve_qps": len(latencies) / wall_s,
        "serve_cache_hit_ratio": len(hit) / len(latencies),
        "serve_hit_latency_ms": statistics.median(hit) if hit else 0.0,
        "serve_miss_latency_ms": statistics.median(miss) if miss else 0.0,
    }


def rep_serve(runner: Runner, context: dict) -> Rep:
    """``mpa serve`` under the seeded mix, with a store rotation midway."""
    import repro.serve.loadgen as loadgen
    from repro.store import CorpusStore

    fixture = runner.fixture
    cache = runner.work / "cache"
    shutil.copytree(fixture.built / fixture.workspace_name,
                    cache / fixture.workspace_name)
    served = cache / fixture.workspace_name / "dataset.mpstore"
    expected = fixture.expected()
    store_digests = (expected["base_store_digest"],
                     expected["plus1_store_digest"])
    mix = context["mix"]
    rep = Rep(attempted=1, probe=runner.probe)  # the server start
    command, result = runner.command("serve", {})
    env = child_env({"MPA_CACHE_DIR": str(cache),
                     "MPA_SEED": str(fixture.seed)})
    records: list[tuple[str, int, dict, float]] = []
    fetch = loadgen.fetch_json

    def recording_fetch(url, timeout=30.0):
        started = time.perf_counter()
        status, body = fetch(url, timeout=timeout)
        records.append((url, status, body,
                        (time.perf_counter() - started) * 1000.0))
        return status, body

    loads = []
    with open(runner.work / "serve.stderr", "wb") as err:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(command, cwd=ROOT, env=env,
                                stdout=subprocess.PIPE, stderr=err)
    drain = threading.Thread(target=lambda: proc.stdout.read(), daemon=True)
    try:
        base_url = _listening_url(proc)
        drain.start()
        _wait_healthy(base_url, proc)
        rep.setup_s = time.monotonic() - t_spawn
        loadgen.fetch_json = recording_fetch
        try:
            if not rep.probe:
                loads.append(loadgen.run_load(
                    base_url, mix[:inputs.SERVE_ROTATE_AT],
                    total_requests=inputs.SERVE_ROTATE_AT,
                    concurrency=SERVE_CLIENTS))
                # both clients are idle: rotate the served store to +1 month
                rotate_at = len(records)
                CorpusStore.open(fixture.plus1_store).dataset().save(served)
                loads.append(loadgen.run_load(
                    base_url, mix[inputs.SERVE_ROTATE_AT:],
                    total_requests=len(mix) - inputs.SERVE_ROTATE_AT,
                    concurrency=SERVE_CLIENTS))
        finally:
            loadgen.fetch_json = fetch
    except RuntimeError as exc:
        rep.fail(f"serve: {exc}")
    finally:
        if _alive(proc):
            proc.send_signal(signal.SIGTERM)
        status = _reap(proc, 30)
        if drain.is_alive():
            drain.join(timeout=5)
        proc.stdout.close()
    if status != 0:
        rep.fail(f"serve: exit status {status}")
    if len(loads) < 2:
        return rep

    rep.attempted += sum(load.total_requests for load in loads)
    rep.failed += sum(load.errors for load in loads)
    rep.wall_s = sum(load.wall_seconds for load in loads)
    rep.extra.update(_latency_extras(records, rep.wall_s))
    _check_bodies(records, base_url, rotate_at, store_digests, rep)
    if not result.exists():
        rep.fail("serve: no result file")
        return rep
    out = json.loads(result.read_text())
    rep.peak_rss_mb = out["peak_rss_mb"]
    if "trace" in out:
        rep.traces.append({**out, "pid": proc.pid, "step": "serve"})
    return rep


WORKLOADS = {
    "build-cold": rep_build,
    "refresh-month": rep_refresh,
    "analyze": rep_analyze,
    "serve-mixed": rep_serve,
}

#: fixture parts each workload reads
FIXTURE_PARTS = {
    "build-cold": ("corpus", "fused"),
    "refresh-month": ("built", "plus1", "ingest-reference"),
    "analyze": ("built",),
    "serve-mixed": ("built", "plus1"),
}

#: per-workload setup (not timed, not repeated)
CONTEXTS = {"serve-mixed": serve_context}
