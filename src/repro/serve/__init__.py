"""Long-lived analytics service: ``mpa serve``.

The interactive query plane over a built workspace: a concurrent
HTTP/JSON server (:mod:`repro.serve.server`) that keeps the mmap'd
columnar store, the materialized dataset, and the analysis facade
resident between requests, with a hash-keyed result cache
(:mod:`repro.serve.cache`) invalidated exactly when the store's content
digest changes. :mod:`repro.serve.handlers` is the socket-free endpoint
surface; :mod:`repro.serve.loadgen` measures it.
"""

from repro.serve.cache import (
    DEFAULT_CACHE_SIZE,
    CacheInfo,
    ResultCache,
    canonical_params,
    result_key,
)
from repro.serve.handlers import (
    ENDPOINTS,
    AnalyticsState,
    BadRequest,
    StoreSnapshot,
)
from repro.serve.loadgen import LoadResult, Request, fetch_json, run_load
from repro.serve.server import (
    DEFAULT_HOST,
    DEFAULT_PORT,
    DEFAULT_WORKERS,
    AnalyticsHTTPServer,
    EndpointStats,
    ServeStats,
    create_server,
    serve_forever,
)

__all__ = [
    "AnalyticsHTTPServer",
    "AnalyticsState",
    "BadRequest",
    "CacheInfo",
    "DEFAULT_CACHE_SIZE",
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "DEFAULT_WORKERS",
    "ENDPOINTS",
    "EndpointStats",
    "LoadResult",
    "Request",
    "ResultCache",
    "ServeStats",
    "StoreSnapshot",
    "canonical_params",
    "create_server",
    "fetch_json",
    "result_key",
    "run_load",
    "serve_forever",
]
