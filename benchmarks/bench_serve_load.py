"""``mpa serve`` load bench: queries/sec, tail latency, cache speedup.

Measures the long-lived analytics service end to end — real sockets,
real threads — over a deterministic store built fresh per run:

* **cache speedup** — the median HTTP roundtrip of one repeated ``/top``
  query against a caching server vs the same query against a server
  with the result cache disabled. The serve contract (see ISSUE /
  DESIGN.md) is that a cache hit is at least **10x** faster than
  recomputing; the bench asserts it.
* **throughput + tails** — a mixed read workload (store aggregates, MI
  ranking, health checks) driven by :mod:`repro.serve.loadgen` at small
  concurrency; queries/sec, p50 and p99 land in the telemetry notes.

Wall-times are nondeterministic and stay out of the returned dict; the
golden-guard gets only content: the store digest, response checksums,
and exact request/error counts (the load mix is sequenced per worker,
so its error count is deterministic — zero — even under concurrency).
"""

from __future__ import annotations

import hashlib
import json
import statistics
import threading
import time
from contextlib import contextmanager

import numpy as np

from repro.runtime.telemetry import TELEMETRY
from repro.serve import (
    AnalyticsState,
    Request,
    create_server,
    fetch_json,
    run_load,
)
from repro.store import StoreWriter

#: store shape: big enough that a cold ``/top`` (full MI ranking) costs
#: tens of milliseconds — the cache-speedup ratio then measures the
#: cache, not localhost socket overhead — and small enough that a
#: cold run of the whole bench stays in the low seconds.
N_NETWORKS = 48
N_MONTHS = 18
COLUMNS = [f"practice_{i:02d}" for i in range(12)]

LATENCY_SAMPLES = 15
LOAD_REQUESTS = 60
LOAD_CONCURRENCY = 4

#: the serve acceptance bound: cached median >= this factor faster
MIN_CACHE_SPEEDUP = 10.0


def _build_store(root):
    """Commit a deterministic mid-size store (content-seeded rng)."""
    rng = np.random.default_rng(1729)
    writer = StoreWriter(root)
    for n in range(N_NETWORKS):
        values = rng.random((N_MONTHS, len(COLUMNS))) * 4.0
        tickets = rng.integers(0, 12, N_MONTHS, dtype=np.int64)
        months = np.arange(N_MONTHS, dtype=np.int64)
        writer.append(f"net{n:03d}", COLUMNS, values, tickets, months)
    return writer.commit(COLUMNS, (2011, 1))


@contextmanager
def _serving(state, cache_size):
    """A bound, serving :class:`AnalyticsHTTPServer`, torn down after."""
    server = create_server(state, port=0, cache_size=cache_size)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield server, f"http://{host}:{port}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def _timed_roundtrips(url, n):
    """Median wall-clock of ``n`` sequential GETs (status-checked)."""
    samples = []
    payload = None
    for _ in range(n):
        started = time.perf_counter()
        status, body = fetch_json(url)
        samples.append((time.perf_counter() - started) * 1000.0)
        assert status == 200, body
        payload = body
    return statistics.median(samples), payload


def _payload_sha256(body):
    """Checksum of a response body minus its per-request meta block."""
    content = {k: v for k, v in body.items() if k != "meta"}
    canonical = json.dumps(content, sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def run(ctx):
    """Content digests and request counts of a cache-speedup check and
    a mixed load against ``mpa serve``."""
    root = ctx.tmp_dir() / "dataset.mpstore"
    manifest = _build_store(root)
    top_url = "/top?k=5"

    # -- cache speedup: identical query, cache on vs cache off --------
    with _serving(AnalyticsState(root), cache_size=0) as (_, base):
        cold_ms, cold_body = _timed_roundtrips(base + top_url,
                                               LATENCY_SAMPLES)
    with _serving(AnalyticsState(root), cache_size=256) as (server, base):
        fetch_json(base + top_url)  # prime: the one true cold miss
        warm_ms, warm_body = _timed_roundtrips(base + top_url,
                                               LATENCY_SAMPLES)
        assert warm_body["meta"]["cached"] is True
        speedup = cold_ms / warm_ms if warm_ms else float("inf")
        assert speedup >= MIN_CACHE_SPEEDUP, (
            f"cached /top only {speedup:.1f}x faster than recompute "
            f"({warm_ms:.2f}ms vs {cold_ms:.2f}ms); the serve contract "
            f"requires >= {MIN_CACHE_SPEEDUP:.0f}x"
        )

        # -- mixed-load throughput on the warm caching server ---------
        mix = [
            Request("/query", {"columns": COLUMNS[0],
                               "aggregate": "sum"}),
            Request("/query", {"columns": COLUMNS[1], "aggregate": "mean",
                               "by": "network"}),
            Request("/top", {"k": "5"}),
            Request("/pairs", {"k": "3"}),
            Request("/healthz", {}),
        ]
        load = run_load(base, mix, total_requests=LOAD_REQUESTS,
                        concurrency=LOAD_CONCURRENCY)
        assert load.errors == 0
        stats = server.stats()

    TELEMETRY.note(
        "serve_cache_speedup",
        f"{speedup:.0f}x (median /top {cold_ms:.1f}ms recompute vs "
        f"{warm_ms:.2f}ms cached, {LATENCY_SAMPLES} samples)",
    )
    TELEMETRY.note(
        "serve_load",
        f"{load.queries_per_second:.0f} q/s, p50 {load.p50_ms:.1f}ms, "
        f"p99 {load.p99_ms:.1f}ms ({LOAD_REQUESTS} requests x "
        f"{LOAD_CONCURRENCY} workers, {load.cache_hits} cache hits)",
    )

    # deterministic outputs only: content digests and exact counts
    return {
        "networks": N_NETWORKS,
        "rows": N_NETWORKS * N_MONTHS,
        "store_sha256": manifest.digest(),
        "top_sha256": _payload_sha256(warm_body),
        "top_matches_uncached": _payload_sha256(cold_body)
        == _payload_sha256(warm_body),
        "load_requests": int(load.total_requests),
        "load_ok": int(load.ok_responses),
        "load_errors": int(load.errors),
        "requests_total": int(stats.requests_total),
    }


def claims(result):
    return {
        "serve: the mixed load answers every request without error":
            result["load_errors"] == 0,
        "serve: a cached /top answer equals the recomputed one":
            result["top_matches_uncached"] is True,
    }
