"""The ``mpa serve`` HTTP/JSON front end (stdlib only).

:class:`AnalyticsHTTPServer` is a ``ThreadingHTTPServer`` that keeps an
:class:`~repro.serve.handlers.AnalyticsState` (workspace store +
derived views) and a :class:`~repro.serve.cache.ResultCache` resident
across requests, so repeated queries cost a cache probe instead of a
process start. A bounded semaphore caps in-flight request handlers at
``workers`` without dropping connections (excess requests queue on
their threads).

Endpoints (all GET, all JSON):

* ``/query`` ``/top`` ``/pairs`` ``/causal`` ``/whatif`` ``/predict``
  ``/quality``
  — the analytics surface (see :mod:`repro.serve.handlers`); responses
  carry a ``meta`` object with the serving store digest, whether the
  result came from the cache, and the handler wall time;
* ``/healthz`` — liveness + the current store digest;
* ``/statsz`` — per-endpoint request/error/latency counters, result
  cache hit rates, content-memo stats, uptime, reload count.

Error surface: :class:`~repro.serve.handlers.BadRequest` and
:class:`~repro.errors.StoreError` are 400s with a JSON body naming the
problem; unknown paths are 404s; anything else is a 500 (counted in
``/statsz``, never a hung connection).
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qsl, urlsplit

from repro.errors import StoreError
from repro.metrics.stages import CONTENT_MEMOS
from repro.serve.cache import DEFAULT_CACHE_SIZE, ResultCache
from repro.serve.handlers import ENDPOINTS, AnalyticsState, BadRequest

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8177
DEFAULT_WORKERS = 8


@dataclass
class EndpointStats:
    """Accumulated serving counters for one endpoint path."""

    path: str
    requests: int = 0
    errors: int = 0
    cache_hits: int = 0
    total_ms: float = 0.0

    @property
    def mean_ms(self) -> float:
        return self.total_ms / self.requests if self.requests else 0.0


@dataclass
class ServeStats:
    """Everything ``/statsz`` reports (and ``format_serve_table`` renders)."""

    uptime_seconds: float
    store_digest: str
    namespace: str
    reloads: int
    requests_total: int
    errors_total: int
    cache: dict
    memos: list[dict] = field(default_factory=list)
    endpoints: list[EndpointStats] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "uptime_seconds": self.uptime_seconds,
            "store_digest": self.store_digest,
            "namespace": self.namespace,
            "reloads": self.reloads,
            "requests_total": self.requests_total,
            "errors_total": self.errors_total,
            "cache": self.cache,
            "memos": self.memos,
            "endpoints": [
                {"path": e.path, "requests": e.requests,
                 "errors": e.errors, "cache_hits": e.cache_hits,
                 "mean_ms": e.mean_ms}
                for e in self.endpoints
            ],
        }


class AnalyticsHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer + resident analytics state and result cache."""

    daemon_threads = True
    # a rebound port after restart must not fail on TIME_WAIT sockets
    allow_reuse_address = True

    def __init__(self, address: tuple[str, int], state: AnalyticsState,
                 *, cache_size: int = DEFAULT_CACHE_SIZE,
                 workers: int = DEFAULT_WORKERS, quiet: bool = True) -> None:
        super().__init__(address, _RequestHandler)
        self.state = state
        self.cache = ResultCache(cache_size)
        self.quiet = quiet
        self.started = time.monotonic()
        self._workers = threading.BoundedSemaphore(max(1, workers))
        self._stats_lock = threading.Lock()
        self._endpoints: dict[str, EndpointStats] = {}
        self._cache_namespace: str | None = None

    # -- accounting ----------------------------------------------------------

    def record(self, path: str, *, error: bool, cached: bool,
               elapsed_ms: float) -> None:
        with self._stats_lock:
            stats = self._endpoints.get(path)
            if stats is None:
                stats = self._endpoints[path] = EndpointStats(path=path)
            stats.requests += 1
            stats.errors += int(error)
            stats.cache_hits += int(cached)
            stats.total_ms += elapsed_ms

    def stats(self) -> ServeStats:
        try:
            snapshot = self.state.current()
            digest, namespace = snapshot.digest, snapshot.namespace
        except StoreError:
            digest, namespace = "", ""
        with self._stats_lock:
            endpoints = [
                EndpointStats(path=e.path, requests=e.requests,
                              errors=e.errors, cache_hits=e.cache_hits,
                              total_ms=e.total_ms)
                for e in sorted(self._endpoints.values(),
                                key=lambda e: e.path)
            ]
        memos = [
            {"name": memo.name, "entries": len(memo),
             "capacity": memo.capacity, "hits": memo.stats()[0],
             "misses": memo.stats()[1]}
            for memo in CONTENT_MEMOS
        ]
        return ServeStats(
            uptime_seconds=time.monotonic() - self.started,
            store_digest=digest,
            namespace=namespace,
            reloads=self.state.reloads,
            requests_total=sum(e.requests for e in endpoints),
            errors_total=sum(e.errors for e in endpoints),
            cache=self.cache.info().to_dict(),
            memos=memos,
            endpoints=endpoints,
        )

    # -- request dispatch (called by the handler) ----------------------------

    def dispatch(self, path: str, params: dict) -> tuple[int, dict]:
        """Serve one analytics request; returns (HTTP status, body)."""
        handler = ENDPOINTS.get(path)
        if handler is None:
            return 404, {"error": f"unknown endpoint {path}",
                         "endpoints": sorted(ENDPOINTS) + ["/healthz",
                                                           "/statsz"]}
        started = time.perf_counter()
        cached = False
        error = True
        try:
            with self._workers:
                snapshot = self.state.current()
                if self._cache_namespace != snapshot.namespace:
                    # a fresh namespace (new commit) strands the previous
                    # generation's entries; reclaim them eagerly
                    self.cache.retain(snapshot.namespace)
                    self._cache_namespace = snapshot.namespace
                body = self.cache.get(snapshot.namespace, path, params)
                if body is not None:
                    cached = True
                else:
                    body = handler(snapshot, params)
                    self.cache.put(snapshot.namespace, path, params, body)
            error = False
            elapsed_ms = (time.perf_counter() - started) * 1000.0
            return 200, {
                **body,
                "meta": {"endpoint": path, "cached": cached,
                         "store_digest": snapshot.digest,
                         "elapsed_ms": round(elapsed_ms, 3)},
            }
        except (BadRequest, StoreError) as exc:
            return 400, {"error": str(exc),
                         "error_type": type(exc).__name__}
        except Exception as exc:  # noqa: BLE001 - the 500 surface
            return 500, {"error": f"internal error: {exc}",
                         "error_type": type(exc).__name__}
        finally:
            self.record(path, error=error, cached=cached,
                        elapsed_ms=(time.perf_counter() - started) * 1000.0)


class _RequestHandler(BaseHTTPRequestHandler):
    """Thin HTTP shim: parse, dispatch, emit JSON."""

    server: AnalyticsHTTPServer
    protocol_version = "HTTP/1.1"

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        split = urlsplit(self.path)
        path = split.path.rstrip("/") or "/"
        params = dict(parse_qsl(split.query, keep_blank_values=True))
        if path == "/healthz":
            self._respond(*self._healthz())
            return
        if path == "/statsz":
            self._respond(200, self.server.stats().to_dict())
            return
        self._respond(*self.server.dispatch(path, params))

    def _healthz(self) -> tuple[int, dict]:
        try:
            snapshot = self.server.state.current()
        except StoreError as exc:
            return 503, {"status": "unavailable", "error": str(exc)}
        return 200, {
            "status": "ok",
            "store_digest": snapshot.digest,
            "rows": snapshot.store.n_rows,
            "networks": len(snapshot.store.networks),
            "uptime_seconds": time.monotonic() - self.server.started,
        }

    def _respond(self, status: int, body: dict) -> None:
        blob = json.dumps(body, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(blob)))
        self.end_headers()
        self.wfile.write(blob)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if not self.server.quiet:
            super().log_message(format, *args)


def create_server(state: AnalyticsState, *, host: str = DEFAULT_HOST,
                  port: int = DEFAULT_PORT,
                  cache_size: int = DEFAULT_CACHE_SIZE,
                  workers: int = DEFAULT_WORKERS,
                  quiet: bool = True) -> AnalyticsHTTPServer:
    """Bind (but do not start) the analytics server; ``port=0`` picks a
    free ephemeral port (see ``server.server_address``)."""
    return AnalyticsHTTPServer((host, port), state, cache_size=cache_size,
                               workers=workers, quiet=quiet)


def serve_forever(server: AnalyticsHTTPServer) -> None:
    """Run until SIGTERM/SIGINT, then shut down cleanly.

    Installs signal handlers only in the main thread (tests drive
    ``serve_forever`` on the server object directly instead).
    """
    import signal

    stop = threading.Event()

    def _stop(signum, frame):  # noqa: ARG001 - signal API
        stop.set()
        # shutdown() must come from another thread than serve_forever
        threading.Thread(target=server.shutdown, daemon=True).start()

    signal.signal(signal.SIGTERM, _stop)
    signal.signal(signal.SIGINT, _stop)
    try:
        server.serve_forever(poll_interval=0.1)
    finally:
        server.server_close()
