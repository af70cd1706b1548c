"""Dialect registry: dispatch config text to the right parser.

Parsing is memoized by content: :func:`parse_config` keys its result by
the SHA-256 of ``(dialect, text)`` in a bounded process-wide
:class:`~repro.util.memo.ContentMemo`, so any snapshot text the process
has already parsed (a serial rebuild next to a parallel one, the cold
reference build next to an incremental one, the carry-forward re-parse
at a chunk boundary) is served from memory. Parsed configs are shared
between hits and must be treated as immutable — which every consumer
already does (stanzas are frozen dataclasses). Parse *failures* are
never cached: quarantined snapshots are rare and re-raising through the
real parser keeps error messages exact.
"""

from __future__ import annotations

import hashlib
from collections.abc import Callable

from repro.confparse import eos, ios, junos
from repro.confparse.stanza import DeviceConfig
from repro.errors import ConfigParseError, UnknownVendorError
from repro.util.memo import ContentMemo

_PARSERS: dict[str, Callable[[str], DeviceConfig]] = {
    "ios": ios.parse,
    "junos": junos.parse,
    "eos": eos.parse,
}

#: Content-keyed cache of parsed configs (4,096 entries, LRU).
PARSE_MEMO = ContentMemo("parse-memo")


def available_dialects() -> tuple[str, ...]:
    """Dialects with a registered parser."""
    return tuple(sorted(_PARSERS))


def config_digest(text: str, dialect: str) -> str:
    """The content identity of one config snapshot: SHA-256 over the
    dialect name and the raw text."""
    h = hashlib.sha256()
    h.update(dialect.encode())
    h.update(b"\x1f")
    h.update(text.encode())
    return h.hexdigest()


def parse_config(text: str, dialect: str) -> DeviceConfig:
    """Parse ``text`` using the named dialect's parser.

    Raises :class:`~repro.errors.UnknownVendorError` for unknown dialects
    and :class:`~repro.errors.ConfigParseError` for malformed text.

    This boundary is total: *any* failure inside a dialect parser
    surfaces as :class:`~repro.errors.ConfigParseError` — an internal
    ``IndexError``/``KeyError`` on adversarial input is wrapped (with
    the original as ``__cause__``), never leaked, so callers can
    quarantine bad input by catching one exception type.

    Results are memoized by content (see the module docstring); the
    returned :class:`DeviceConfig` carries its ``content_digest`` so
    downstream content-keyed caches need not re-hash the text.
    """
    try:
        parser = _PARSERS[dialect]
    except KeyError:
        raise UnknownVendorError(dialect) from None
    digest = None
    if PARSE_MEMO.enabled:
        digest = config_digest(text, dialect)
        cached = PARSE_MEMO.get(digest)
        if cached is not None:
            return cached
    try:
        config = parser(text)
    except ConfigParseError:
        raise
    except Exception as exc:
        raise ConfigParseError(
            f"internal parser failure on malformed input: {exc!r}",
            vendor=dialect,
        ) from exc
    if digest is not None:
        config.content_digest = digest
        PARSE_MEMO.put(digest, config)
    return config


def register_dialect(name: str, parser: Callable[[str], DeviceConfig]) -> None:
    """Register an additional dialect parser (extension point)."""
    if name in _PARSERS:
        raise ValueError(f"dialect {name!r} already registered")
    _PARSERS[name] = parser
