"""Parallel-runtime smoke: tiny workspace built under ``MPA_JOBS=2``.

Runs in every benchmark invocation (and via ``make smoke``) so
regressions in the process-pool path — pickling failures, nested-pool
deadlocks, nondeterministic fan-out — surface immediately instead of
only at full scale. Builds a fresh ``tiny`` workspace in a temp cache
with two workers, checks it against the serial result, and prints the
stage telemetry.

Also measures the staged engine's incremental rebuild: the session
corpus extended by one month, rebuilt cold vs. through the stage
cache. The speedup lands in the telemetry summary as a note.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.workspace import Workspace
from repro.metrics.dataset import build_full
from repro.runtime.telemetry import TELEMETRY


def run(ctx):
    """Parallel-vs-serial tiny build plus two +1-month incremental
    rebuilds: one in a scratch cache, one timed on the session workspace.

    The tiny builds run under fresh scratch caches and ``MPA_JOBS`` is
    restored via ``ctx.env``. The timed rebuild extends the session
    corpus through the session stage cache, which only adds units to it.
    """
    import hashlib

    base = ctx.tmp_dir()
    with ctx.env(MPA_JOBS="2"):
        parallel_ws = Workspace(scale="tiny", seed=7,
                                cache_dir=base / "parallel")
        parallel_ws.ensure()
        parallel = parallel_ws.dataset()
    with ctx.env(MPA_JOBS="1"):
        serial_ws = Workspace(scale="tiny", seed=7,
                              cache_dir=base / "serial")
        serial_ws.ensure()
        serial = serial_ws.dataset()
    assert parallel.n_cases == serial.n_cases > 0
    assert parallel.names == serial.names
    assert np.array_equal(parallel.values, serial.values)
    assert np.array_equal(parallel.tickets, serial.tickets)

    # incremental rebuild through the scratch stage cache
    corpus = parallel_ws.corpus()
    cache = parallel_ws.stage_cache()
    build_full(corpus, cache=cache)
    extended_corpus = corpus.extend_months(1)
    incremental = build_full(extended_corpus, cache=cache)
    cold = build_full(extended_corpus)
    assert np.array_equal(incremental.dataset.values,
                          cold.dataset.values)
    assert incremental.quality.to_dict() == cold.quality.to_dict()

    _check_session_rebuild_speedup(ctx.workspace)

    values_sha = hashlib.sha256(
        np.ascontiguousarray(parallel.values).tobytes()).hexdigest()
    return {"n_cases": int(parallel.n_cases),
            "n_metrics": len(parallel.names),
            "values_sha256": values_sha,
            "extended_cases": int(incremental.dataset.n_cases)}


def _check_session_rebuild_speedup(workspace):
    """+1-month extension: cold full rebuild vs. stage-cached rebuild.

    The staged engine's contract: after an extend, the incremental
    rebuild reuses every untouched (network, stage) unit — so it must
    be several times faster than the cold build while producing a
    bit-identical table and quality report.
    """
    corpus = workspace.corpus()
    cache = workspace.stage_cache()
    # make sure the base span's units are present (no-op when
    # workspace.ensure() already wrote them in this cache dir)
    build_full(corpus, cache=cache)

    extended = corpus.extend_months(1)

    start = time.perf_counter()
    incremental = build_full(extended, cache=cache)
    t_incremental = time.perf_counter() - start

    start = time.perf_counter()
    cold = build_full(extended)
    t_cold = time.perf_counter() - start

    assert np.array_equal(incremental.dataset.values, cold.dataset.values)
    assert np.array_equal(incremental.dataset.tickets, cold.dataset.tickets)
    assert incremental.dataset.case_networks == cold.dataset.case_networks
    assert incremental.changes == cold.changes
    assert incremental.quality.to_dict() == cold.quality.to_dict()

    hits = {c.name: c.hits for c in TELEMETRY.caches()}
    assert hits.get("parse", 0) > 0, "extension rebuild reused no units"

    speedup = t_cold / t_incremental if t_incremental else float("inf")
    TELEMETRY.note(
        "incremental_rebuild_speedup",
        f"{speedup:.1f}x (cold {t_cold:.2f}s / "
        f"incremental {t_incremental:.2f}s, +1 month at "
        f"{workspace.scale})",
    )
    # conservative floor (acceptance target is ~5x at small scale; keep
    # slack for loaded CI machines)
    assert speedup >= 2.0


def claims(result):
    # every check here needs values run() does not return (the serial
    # build, wall times), so they are asserts inside run()
    return {}
