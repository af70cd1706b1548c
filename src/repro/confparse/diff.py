"""Stanza-level configuration diffing (paper Section 2.2, O1/O3).

Two successive snapshots of the same device are compared stanza-by-stanza:
if at least one stanza differs the pair counts as one configuration
change, and every added/removed/updated stanza contributes a change of its
(vendor-agnostic) type.

Diff results are reusable by content: :func:`diff_configs_cached` keys a
pair by the SHA-256 content digests of the two configs (as stamped by
:func:`repro.confparse.registry.parse_config`) in a bounded in-process
memo, optionally backed by a persistent content-addressed store (the
build's :class:`~repro.core.workspace.StageCache`). Consecutive
snapshots share almost all content, so rebuilds that re-encounter a
pair — the cold reference build next to an incremental one, a re-keyed
parse chunk whose snapshot texts did not change — never re-diff it.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass

from repro.confparse.normalize import normalize_type
from repro.confparse.stanza import DeviceConfig, StanzaKey
from repro.util.memo import ContentMemo

#: Version of the diff semantics baked into persistent diff-cache keys;
#: bump whenever :func:`diff_configs` output for the same inputs changes.
DIFF_CODE_VERSION = 1

#: Content-keyed cache of pair diffs (4,096 entries, LRU).
DIFF_MEMO = ContentMemo("diff-memo")


class StanzaChangeKind(enum.Enum):
    """How a stanza differs between two snapshots."""

    ADDED = "added"
    REMOVED = "removed"
    UPDATED = "updated"


@dataclass(frozen=True, slots=True)
class StanzaChange:
    """One stanza-level difference between two configs."""

    key: StanzaKey
    kind: StanzaChangeKind
    agnostic_type: str


@dataclass(frozen=True, slots=True)
class ConfigDiff:
    """All stanza-level differences between two configs of one device."""

    changes: tuple[StanzaChange, ...]

    def __bool__(self) -> bool:
        return bool(self.changes)

    @property
    def changed_types(self) -> tuple[str, ...]:
        """Sorted distinct vendor-agnostic types touched by this diff."""
        return tuple(sorted({change.agnostic_type for change in self.changes}))

    def of_kind(self, kind: StanzaChangeKind) -> tuple[StanzaChange, ...]:
        return tuple(change for change in self.changes if change.kind is kind)


def diff_configs(before: DeviceConfig, after: DeviceConfig) -> ConfigDiff:
    """Stanza diff of two parsed configurations of the *same* device.

    Raises ``ValueError`` when the two configs use different dialects
    (a device cannot change vendor between snapshots).
    """
    if before.dialect != after.dialect:
        raise ValueError(
            f"cannot diff across dialects ({before.dialect} vs {after.dialect})"
        )
    dialect = before.dialect
    before_keys = before.keys()
    after_keys = after.keys()

    changes: list[StanzaChange] = []
    for key in sorted(after_keys - before_keys, key=str):
        changes.append(
            StanzaChange(key, StanzaChangeKind.ADDED,
                         normalize_type(dialect, key.stype))
        )
    for key in sorted(before_keys - after_keys, key=str):
        changes.append(
            StanzaChange(key, StanzaChangeKind.REMOVED,
                         normalize_type(dialect, key.stype))
        )
    for key in sorted(before_keys & after_keys, key=str):
        stanza_before = before.get(key)
        stanza_after = after.get(key)
        assert stanza_before is not None and stanza_after is not None
        if stanza_before.body_fingerprint() != stanza_after.body_fingerprint():
            changes.append(
                StanzaChange(key, StanzaChangeKind.UPDATED,
                             normalize_type(dialect, key.stype))
            )
    return ConfigDiff(changes=tuple(changes))


def diff_pair_key(before_digest: str, after_digest: str) -> str:
    """Persistent cache key of one ordered config pair.

    Folds in :data:`DIFF_CODE_VERSION` so stale entries are missed (not
    reused) after a semantic change to the differ.
    """
    h = hashlib.sha256()
    h.update(f"diff|code={DIFF_CODE_VERSION}|".encode())
    h.update(before_digest.encode())
    h.update(b"\x1f")
    h.update(after_digest.encode())
    return h.hexdigest()


def diff_configs_cached(before: DeviceConfig, after: DeviceConfig,
                        store=None) -> ConfigDiff:
    """:func:`diff_configs`, memoized by the pair's content digests.

    ``store`` is an optional persistent content-addressed cache with the
    ``load(key) -> value | None`` / ``store(key, value)`` protocol of
    :class:`~repro.core.workspace.StageCache`; when given, a pair diffed
    by *any* earlier build sharing the store is reused across processes.
    Configs without a content digest (constructed directly rather than
    via ``parse_config``) fall back to an uncached diff.
    """
    before_digest = getattr(before, "content_digest", None)
    after_digest = getattr(after, "content_digest", None)
    if (before_digest is None or after_digest is None
            or not DIFF_MEMO.enabled):
        return diff_configs(before, after)
    memo_key = (before_digest, after_digest)
    diff = DIFF_MEMO.get(memo_key)
    if diff is not None:
        return diff
    pair_key = None
    if store is not None:
        pair_key = diff_pair_key(before_digest, after_digest)
        diff = store.load(pair_key)
        if diff is not None:
            DIFF_MEMO.put(memo_key, diff)
            return diff
    diff = diff_configs(before, after)
    DIFF_MEMO.put(memo_key, diff)
    if store is not None:
        store.store(pair_key, diff)
    return diff


def changed_stanza_types(before: DeviceConfig, after: DeviceConfig) -> tuple[str, ...]:
    """Convenience wrapper: the distinct agnostic types that changed."""
    return diff_configs(before, after).changed_types
