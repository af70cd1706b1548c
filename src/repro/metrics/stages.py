"""Staged incremental build engine: per-(network, stage) pure units.

The corpus -> :class:`~repro.metrics.dataset.MetricDataset` pipeline is
an explicit stage graph evaluated independently for every network:

* ``parse`` — one *chunk* per month (plus a ``tail`` chunk for
  out-of-study timestamps): parse the month's snapshots, diff them
  against the config carried in from the previous chunk, and summarize
  the configs in effect at month end.
* ``events`` — group the network's concatenated change records into
  change events with the delta-window heuristic.
* ``metrics`` — the monthly design + operational metric rows.
* ``health`` — the monthly non-maintenance ticket counts.

Every unit is a pure function of its declared inputs, so each result can
be cached under a **content-addressed key**: a SHA-256 over the unit's
inputs, :data:`repro.version.CORPUS_FORMAT_VERSION`, and
:data:`STAGE_CODE_VERSION` (bumped whenever a stage's semantics change).
Parse chunks are *chained* — chunk ``m``'s key folds in chunk ``m-1``'s
key — so a key transitively fingerprints every snapshot that could have
influenced the carried-forward config state. Appending a month (or
mutating a few networks' snapshots) therefore dirties only the affected
chunks and the cheap downstream stages of the affected networks;
everything else is a cache hit.

The cache itself (:class:`repro.core.workspace.StageCache`) is passed in
by the caller; any object with ``load(key) -> value | None`` and
``store(key, value)`` works. ``cache=None`` takes the **fused** path: a
single pass per network that parses, diffs, and summarizes every
snapshot in chronological order and hands the in-memory results straight
to the events/metrics stages — no chunk splitting, no intermediate
serialization. Cached or not, the assembled output is bit-identical —
the incremental-vs-full guarantee the tests pin down.

Content-keyed reuse rides underneath both paths: parsing, feature
extraction, and pair diffing are memoized by snapshot content (see
:mod:`repro.util.memo`), so rebuilding an already-seen corpus — the
serial reference build next to a parallel one, a cold build next to an
incremental one — costs dictionary lookups. Per-unit hit/miss deltas of
these memos surface in :attr:`NetworkUnit.cache_stats` (and from there
in the run telemetry) whenever the unit exercised them.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from dataclasses import dataclass, field

from repro.confparse.diff import DIFF_MEMO, diff_configs_cached
from repro.confparse.registry import PARSE_MEMO, parse_config
from repro.errors import ConfigParseError
from repro.metrics.catalog import metric_names
from repro.metrics.design import (
    FEATURE_MEMO,
    DeviceFeatures,
    config_metrics,
    extract_device_features,
    inventory_metrics,
)
from repro.metrics.events import group_change_events
from repro.metrics.health import modality_from_login, monthly_ticket_count
from repro.metrics.quality import DataQualityReport
from repro.metrics.vectorized import monthly_operational_rows
from repro.synthesis.corpus import Corpus
from repro.types import ChangeEvent, ChangeModality, ChangeRecord, MonthKey
from repro.util.timeutils import MINUTES_PER_MONTH
from repro.version import CORPUS_FORMAT_VERSION

#: Version of the stage implementations baked into every cache key.
#: Bump whenever any stage function's output for the same inputs changes,
#: so stale cached units are missed rather than reused.
STAGE_CODE_VERSION = 1

#: Stage names, as reported in cache-hit/miss telemetry.
STAGE_NAMES = ("parse", "events", "metrics", "health")

#: The content memos whose per-unit activity is reported alongside the
#: stage cache stats (keys appear only when the unit exercised them, so
#: all-hit invariants over ``cache_stats`` stay meaningful).
CONTENT_MEMOS = (PARSE_MEMO, FEATURE_MEMO, DIFF_MEMO)


def _memo_snapshot() -> dict[str, tuple[int, int]]:
    return {memo.name: memo.stats() for memo in CONTENT_MEMOS}


def _memo_deltas(base: dict[str, tuple[int, int]],
                 ) -> dict[str, tuple[int, int]]:
    deltas: dict[str, tuple[int, int]] = {}
    for memo in CONTENT_MEMOS:
        hits0, misses0 = base[memo.name]
        hits1, misses1 = memo.stats()
        if hits1 - hits0 or misses1 - misses0:
            deltas[memo.name] = (hits1 - hits0, misses1 - misses0)
    return deltas


@dataclass
class ParseChunk:
    """Output of one (network, month) parse+diff unit.

    ``features_end`` and ``carry`` are *cumulative* (they fold in every
    earlier chunk), so a chunk loaded from cache is self-contained: the
    next chunk never needs to re-read history, only the carry pointers.
    """

    #: snapshots successfully parsed in this chunk
    n_parsed: int = 0
    #: device id -> quarantine reasons, in snapshot order
    quarantined: dict[str, list[str]] = field(default_factory=dict)
    #: this chunk's device-level changes, sorted by (timestamp, device id)
    changes: list[ChangeRecord] = field(default_factory=list)
    #: device id -> features of the config in effect at chunk end
    features_end: dict[str, DeviceFeatures] = field(default_factory=dict)
    #: device id -> features of the device's first-ever parsable snapshot,
    #: recorded in the chunk where that snapshot appears (for backfilling
    #: months before a device's first snapshot)
    first_features: dict[str, DeviceFeatures] = field(default_factory=dict)
    #: device id -> index (into the corpus snapshot list) of the last
    #: parsable snapshot seen so far — the diff base for the next chunk
    carry: dict[str, int] = field(default_factory=dict)


@dataclass
class NetworkUnit:
    """One network's fully-assembled share of the metric table."""

    network_id: str
    rows: list[list[float]]
    tickets: list[int]
    months: list[int]
    changes: list[ChangeRecord] | None
    quality: DataQualityReport
    #: stage name -> (cache hits, cache misses) for this network's units
    cache_stats: dict[str, tuple[int, int]] = field(default_factory=dict)


# -- content-addressed keys ---------------------------------------------------


def _hasher(label: str) -> "hashlib._Hash":
    h = hashlib.sha256()
    h.update(f"{label}|code={STAGE_CODE_VERSION}"
             f"|corpus={CORPUS_FORMAT_VERSION}|".encode())
    return h


def _update(h: "hashlib._Hash", *parts: object) -> None:
    for part in parts:
        if isinstance(part, bytes):
            h.update(part)
        else:
            h.update(str(part).encode())
        h.update(b"\x1f")


def network_spec_digest(corpus: Corpus, network_id: str) -> str:
    """Fingerprint of everything non-snapshot the parse/metrics stages
    read about a network: its device records, their dialects, and the
    workload count feeding the inventory metrics."""
    h = _hasher("netspec")
    _update(h, network_id,
            corpus.inventory.workload_count(network_id))
    for device in corpus.inventory.devices_in(network_id):
        _update(h, device.device_id, device.vendor, device.model,
                device.role.value, device.firmware,
                corpus.dialects.get(f"{device.vendor}/{device.model}", ""))
    return h.hexdigest()


def _chunk_key(prev_key: str | None, spec_digest: str, label: str,
               corpus: Corpus, devices, slices) -> str:
    """Chained key of one parse chunk: the previous chunk's key (which
    transitively covers all earlier snapshots) plus this chunk's own
    snapshot contents."""
    h = _hasher(f"parse/{label}")
    _update(h, prev_key or spec_digest)
    for device in devices:
        lo, hi = slices[device.device_id][label]
        if lo == hi:
            continue
        snaps = corpus.snapshots[device.device_id]
        for snap in snaps[lo:hi]:
            _update(h, device.device_id, snap.timestamp, snap.login)
            h.update(snap.config_text.encode())
            h.update(b"\x1e")
    return h.hexdigest()


def _events_key(parse_key: str, delta_minutes: int | None) -> str:
    h = _hasher("events")
    _update(h, parse_key, repr(delta_minutes))
    return h.hexdigest()


def _metrics_key(events_key: str, n_months: int) -> str:
    h = _hasher("metrics")
    _update(h, events_key, n_months)
    return h.hexdigest()


def _health_key(corpus: Corpus, network_id: str) -> str:
    h = _hasher("health")
    _update(h, network_id, corpus.epoch.year, corpus.epoch.month,
            corpus.n_months)
    for ticket in corpus.tickets.for_network(network_id):
        _update(h, ticket.ticket_id, ticket.opened_at, ticket.resolved_at,
                ticket.category.value, ticket.impact, ticket.summary)
    return h.hexdigest()


def network_stage_keys(corpus: Corpus, network_id: str,
                       delta_minutes: int | None) -> dict[str, str]:
    """The content-addressed cache key of every stage of one network.

    Computed purely from the corpus (no stage is evaluated): the parse
    key is the final link of the chunk-key chain, and the downstream
    keys derive from it exactly as :func:`compute_network_unit` derives
    them. Two corpora agree on a network's keys iff the stages would
    produce identical outputs — the property ingestion checkpoints
    (:mod:`repro.stream.checkpoint`) rely on to certify that a resumed
    build landed in the same state as an uninterrupted one, without
    re-running anything.
    """
    devices = corpus.inventory.devices_in(network_id)
    parse_devices = _parseable_devices(corpus, devices)
    slices, labels = _month_slices(corpus, parse_devices, corpus.n_months)
    spec_digest = network_spec_digest(corpus, network_id)
    key: str | None = None
    for label in labels:
        key = _chunk_key(key, spec_digest, label, corpus, parse_devices,
                         slices)
    parse_key = key or spec_digest
    events_key = _events_key(parse_key, delta_minutes)
    return {
        "parse": parse_key,
        "events": events_key,
        "metrics": _metrics_key(events_key, corpus.n_months),
        "health": _health_key(corpus, network_id),
    }


# -- the parse stage ----------------------------------------------------------


def _month_slices(corpus: Corpus, devices, n_months: int,
                  ) -> tuple[dict[str, dict[object, tuple[int, int]]],
                             list[object]]:
    """Per-device snapshot index ranges for each chunk label.

    Chunk ``m`` covers timestamps in ``[m*MONTH, (m+1)*MONTH)`` (chunk 0
    additionally absorbs anything earlier); the ``"tail"`` chunk covers
    everything at or past the study end, so arbitrary corpora — even
    unscrubbed ones with out-of-range timestamps — partition exactly.
    """
    labels: list[object] = list(range(n_months)) + ["tail"]
    slices: dict[str, dict[object, tuple[int, int]]] = {}
    for device in devices:
        snaps = corpus.snapshots.get(device.device_id, [])
        keys = [snap.timestamp for snap in snaps]
        per_label: dict[object, tuple[int, int]] = {}
        lo = 0
        for month in range(n_months):
            hi = bisect_left(keys, (month + 1) * MINUTES_PER_MONTH, lo=lo)
            per_label[month] = (lo, hi)
            lo = hi
        per_label["tail"] = (lo, len(snaps))
        slices[device.device_id] = per_label
    return slices, labels


def _compute_chunk(corpus: Corpus, network_id: str, devices, slices,
                   label: object, prev: ParseChunk | None,
                   live_configs: dict | None,
                   diff_store=None,
                   ) -> tuple[ParseChunk, dict]:
    """Parse + diff one chunk's snapshots (the expensive unit body).

    ``live_configs`` carries parsed config objects forward between
    chunks *computed in the same run*, so a cold build parses each
    snapshot exactly once; after a cache hit the chain restarts from the
    stored carry pointers (one re-parse per device, already known to
    succeed).

    ``diff_store`` is an optional persistent pair-diff cache (the stage
    cache) consulted/updated through
    :func:`~repro.confparse.diff.diff_configs_cached`.
    """
    chunk = ParseChunk(
        features_end=dict(prev.features_end) if prev else {},
        carry=dict(prev.carry) if prev else {},
    )
    new_live = dict(live_configs) if live_configs else {}
    for device in devices:
        device_id = device.device_id
        lo, hi = slices[device_id][label]
        if lo == hi:
            continue
        snaps = corpus.snapshots[device_id]
        dialect = corpus.dialect_of(device_id)
        prev_config = new_live.get(device_id)
        if prev_config is None:
            carry_index = chunk.carry.get(device_id)
            if carry_index is not None:
                # the carry snapshot parsed successfully when its own
                # chunk ran, so this re-parse cannot fail
                prev_config = parse_config(
                    snaps[carry_index].config_text, dialect
                )
        parsed_before = device_id in chunk.features_end
        last_features = None
        for index in range(lo, hi):
            snap = snaps[index]
            try:
                config = parse_config(snap.config_text, dialect)
            except ConfigParseError as exc:
                chunk.quarantined.setdefault(device_id, []).append(
                    f"unparsable config: {exc}"
                )
                continue
            chunk.n_parsed += 1
            if prev_config is not None:
                diff = diff_configs_cached(prev_config, config,
                                           store=diff_store)
                if diff:
                    modality = (ChangeModality.AUTOMATED
                                if modality_from_login(snap.login)
                                else ChangeModality.MANUAL)
                    chunk.changes.append(ChangeRecord(
                        device_id=device_id,
                        network_id=network_id,
                        timestamp=snap.timestamp,
                        modality=modality,
                        stanza_types=diff.changed_types,
                        login=snap.login,
                    ))
            last_features = extract_device_features(config)
            if not parsed_before and device_id not in chunk.first_features:
                chunk.first_features[device_id] = last_features
            prev_config = config
            chunk.carry[device_id] = index
        if last_features is not None:
            chunk.features_end[device_id] = last_features
        if prev_config is not None:
            new_live[device_id] = prev_config
    chunk.changes.sort(key=lambda c: (c.timestamp, c.device_id))
    return chunk, new_live


def _run_parse_chunks(corpus: Corpus, network_id: str, devices, cache,
                      stats: dict[str, list[int]],
                      ) -> tuple[list[ParseChunk], str | None]:
    """Evaluate (or load) every parse chunk of one network, in order.

    Returns the chunk list and the final chain key (``None`` without a
    cache), which downstream stage keys build on.

    Recomputed chunks that follow at least one cache hit also read and
    write the persistent pair-diff cache: such chunks are the small
    dirty suffix of an incremental rebuild, where a chained chunk key
    changed but most snapshot *pairs* did not. Fully-cold networks skip
    the pair-diff writes — on a cold build every pair is new, so the
    store traffic would be pure overhead (the in-memory diff memo still
    serves repeats within the process).
    """
    slices, labels = _month_slices(corpus, devices, corpus.n_months)
    spec_digest = network_spec_digest(corpus, network_id) if cache else ""
    chunks: list[ParseChunk] = []
    prev: ParseChunk | None = None
    live: dict | None = {}
    key: str | None = None
    any_hit = False
    for label in labels:
        if cache is not None:
            key = _chunk_key(key, spec_digest, label, corpus, devices, slices)
            cached = cache.load(key)
        else:
            cached = None
        if cached is None:
            chunk, live = _compute_chunk(
                corpus, network_id, devices, slices, label, prev, live,
                diff_store=cache if any_hit else None,
            )
            if cache is not None:
                cache.store(key, chunk)
                stats["parse"][1] += 1
        else:
            chunk = cached
            live = None  # parsed objects not cached; re-derive from carry
            stats["parse"][0] += 1
            any_hit = True
        chunks.append(chunk)
        prev = chunk
    return chunks, key


# -- the fused (uncached) pass ------------------------------------------------


def _fused_network_pass(corpus: Corpus, network_id: str, devices,
                        n_months: int,
                        ) -> tuple[list[ChangeRecord],
                                   list[dict[str, DeviceFeatures]],
                                   ParseChunk]:
    """Single-pass parse+diff+summarize of one network, no chunking.

    Used when no stage cache is in play (``cache=None`` builds and the
    timeline extraction): every device's snapshots are walked once in
    chronological order, producing the change records, the per-month
    features-in-effect, and one synthetic *cumulative* chunk carrying
    the quality-report inputs. Skips all chunk-key hashing, per-chunk
    dict copying, and carry re-parsing.

    Output contract (pinned by ``tests/test_incremental.py``): the
    returned changes, per-month features, and quality fragments are
    bit-identical to running the chunked path on the same corpus —
    chunk boundaries partition each device's timeline into ascending
    disjoint ranges, so a single ordered walk observes exactly the same
    snapshot pairs, and the global ``(timestamp, device_id)`` sort
    equals the chunked path's per-chunk-sorted concatenation.
    """
    chunk = ParseChunk()
    changes: list[ChangeRecord] = []
    features_by_month: list[dict[str, DeviceFeatures]] = [
        {} for _ in range(n_months)
    ]
    for device in devices:
        device_id = device.device_id
        snaps = corpus.snapshots[device_id]
        dialect = corpus.dialect_of(device_id)
        prev_config = None
        last_features: DeviceFeatures | None = None
        first_features: DeviceFeatures | None = None
        index = 0
        n_snaps = len(snaps)
        month_end_features: list[DeviceFeatures | None] = []

        def _consume_until(end_ts: int | None) -> None:
            nonlocal index, prev_config, last_features, first_features
            while index < n_snaps and (
                    end_ts is None or snaps[index].timestamp < end_ts):
                snap = snaps[index]
                try:
                    config = parse_config(snap.config_text, dialect)
                except ConfigParseError as exc:
                    chunk.quarantined.setdefault(device_id, []).append(
                        f"unparsable config: {exc}"
                    )
                    index += 1
                    continue
                chunk.n_parsed += 1
                if prev_config is not None:
                    diff = diff_configs_cached(prev_config, config)
                    if diff:
                        modality = (ChangeModality.AUTOMATED
                                    if modality_from_login(snap.login)
                                    else ChangeModality.MANUAL)
                        changes.append(ChangeRecord(
                            device_id=device_id,
                            network_id=network_id,
                            timestamp=snap.timestamp,
                            modality=modality,
                            stanza_types=diff.changed_types,
                            login=snap.login,
                        ))
                last_features = extract_device_features(config)
                if first_features is None:
                    first_features = last_features
                prev_config = config
                chunk.carry[device_id] = index
                index += 1

        for month in range(n_months):
            _consume_until((month + 1) * MINUTES_PER_MONTH)
            month_end_features.append(last_features)
        _consume_until(None)  # the "tail" past the study window

        if last_features is not None:
            chunk.features_end[device_id] = last_features
        if first_features is not None:
            chunk.first_features[device_id] = first_features
        for month, features in enumerate(month_end_features):
            if features is None:
                features = first_features  # backfill pre-first months
            if features is not None:
                features_by_month[month][device_id] = features
    changes.sort(key=lambda c: (c.timestamp, c.device_id))
    return changes, features_by_month, chunk


# -- assembly helpers ---------------------------------------------------------


def _parseable_devices(corpus: Corpus, devices) -> list:
    """Devices the parse stage can work on (snapshots + known dialect)."""
    usable = []
    for device in devices:
        if not corpus.snapshots.get(device.device_id):
            continue
        try:
            corpus.dialect_of(device.device_id)
        except KeyError:
            continue
        usable.append(device)
    return usable


def _assemble_features(devices, chunks: list[ParseChunk],
                       n_months: int) -> list[dict[str, DeviceFeatures]]:
    """Reconstruct features-in-effect per month from the chunk outputs.

    Months before a device's first parsable snapshot are backfilled with
    that first snapshot's features (the monolithic builder's carry-back
    semantics); insertion order follows the inventory's device order so
    downstream aggregation iterates deterministically.
    """
    first: dict[str, DeviceFeatures] = {}
    for chunk in chunks:
        for device_id, features in chunk.first_features.items():
            first.setdefault(device_id, features)
    features_by_month: list[dict[str, DeviceFeatures]] = []
    for month in range(n_months):
        chunk = chunks[month]
        month_features: dict[str, DeviceFeatures] = {}
        for device in devices:
            device_id = device.device_id
            features = chunk.features_end.get(device_id)
            if features is None:
                features = first.get(device_id)
            if features is not None:
                month_features[device_id] = features
        features_by_month.append(month_features)
    return features_by_month


def _assemble_quality(corpus: Corpus, network_id: str, devices,
                      chunks: list[ParseChunk]) -> DataQualityReport:
    """Fold chunk fragments into the per-network quality report,
    preserving the device-major issue order of the monolithic builder."""
    report = DataQualityReport()
    report.devices_total = len(devices)
    report.snapshots_parsed = sum(chunk.n_parsed for chunk in chunks)
    parsed_any = chunks[-1].features_end if chunks else {}
    for device in devices:
        device_id = device.device_id
        snaps = corpus.snapshots.get(device_id, [])
        if not snaps:
            report.drop_device(device_id, network_id,
                               "no snapshots in corpus")
            continue
        try:
            corpus.dialect_of(device_id)
        except KeyError:
            for _ in snaps:
                report.quarantine_snapshot(
                    device_id, network_id,
                    "no dialect registered for "
                    f"{device.vendor}/{device.model}",
                )
            report.drop_device(
                device_id, network_id,
                f"unknown dialect for model {device.vendor}/{device.model}",
            )
            continue
        for chunk in chunks:
            for reason in chunk.quarantined.get(device_id, ()):
                report.quarantine_snapshot(device_id, network_id, reason)
        if device_id not in parsed_any:
            report.drop_device(device_id, network_id,
                               "zero parsable snapshots")
    return report


# -- downstream stages --------------------------------------------------------


def _stage_events(changes: list[ChangeRecord],
                  delta_minutes: int | None,
                  parse_key: str | None, cache,
                  stats: dict[str, list[int]]) -> list[ChangeEvent]:
    if cache is not None and parse_key is not None:
        key = _events_key(parse_key, delta_minutes)
        cached = cache.load(key)
        if cached is not None:
            stats["events"][0] += 1
            return cached
        stats["events"][1] += 1
    events = group_change_events(changes, delta_minutes) if changes else []
    if cache is not None and parse_key is not None:
        cache.store(key, events)
    return events


def _compute_rows(corpus: Corpus, network_id: str, devices,
                  features_by_month: list[dict[str, DeviceFeatures]],
                  changes: list[ChangeRecord],
                  events: list[ChangeEvent]) -> list[list[float]]:
    """The monthly design + operational metric rows of one network.

    The operational family is inferred for all months in one batch
    (:func:`repro.metrics.vectorized.monthly_operational_rows`) instead
    of re-walking the month buckets per month; the design family still
    aggregates per month (its inputs differ each month).
    """
    names = metric_names()
    n_months = corpus.n_months
    mbox_ids = frozenset(
        d.device_id for d in devices if d.role.is_middlebox
    )
    inv = inventory_metrics(corpus.inventory, network_id)
    op_rows = monthly_operational_rows(
        changes, events, n_months,
        n_network_devices=len(devices),
        mbox_device_ids=mbox_ids,
    )

    rows: list[list[float]] = []
    for month_index in range(n_months):
        config = config_metrics(features_by_month[month_index])
        row_map = {**inv, **config, **op_rows[month_index]}
        rows.append([row_map[name] for name in names])
    return rows


def _stage_health(corpus: Corpus, network_id: str, cache,
                  stats: dict[str, list[int]]) -> list[int]:
    if cache is not None:
        key = _health_key(corpus, network_id)
        cached = cache.load(key)
        if cached is not None:
            stats["health"][0] += 1
            return cached
        stats["health"][1] += 1
    tickets = [
        monthly_ticket_count(
            corpus.tickets, network_id,
            MonthKey.from_index(corpus.epoch.index() + month_index),
            corpus.epoch,
        )
        for month_index in range(corpus.n_months)
    ]
    if cache is not None:
        cache.store(key, tickets)
    return tickets


# -- unit entry points --------------------------------------------------------


def compute_network_unit(corpus: Corpus, network_id: str,
                         delta_minutes: int | None,
                         keep_changes: bool,
                         cache=None) -> NetworkUnit:
    """Run one network through the full stage graph (pool task body).

    With a cache, stages are resolved through their content-addressed
    keys; without one the fused single pass feeds the events/metrics
    stages directly from memory.
    """
    stats: dict[str, list[int]] = {name: [0, 0] for name in STAGE_NAMES}
    memo_base = _memo_snapshot()
    devices = corpus.inventory.devices_in(network_id)
    parse_devices = _parseable_devices(corpus, devices)

    if cache is None:
        changes, features_by_month, fused = _fused_network_pass(
            corpus, network_id, parse_devices, corpus.n_months
        )
        chunks = [fused]
        events = _stage_events(changes, delta_minutes, None, None, stats)
        rows = _compute_rows(corpus, network_id, devices,
                             features_by_month, changes, events)
    else:
        chunks, parse_key = _run_parse_chunks(
            corpus, network_id, parse_devices, cache, stats
        )
        changes = [change for chunk in chunks for change in chunk.changes]
        events = _stage_events(changes, delta_minutes, parse_key, cache,
                               stats)
        metrics_key = _metrics_key(
            _events_key(parse_key, delta_minutes), corpus.n_months
        )
        rows = cache.load(metrics_key)
        stats["metrics"][0 if rows is not None else 1] += 1
        if rows is None:
            features_by_month = _assemble_features(
                parse_devices, chunks, corpus.n_months
            )
            rows = _compute_rows(corpus, network_id, devices,
                                 features_by_month, changes, events)
            cache.store(metrics_key, rows)

    tickets = _stage_health(corpus, network_id, cache, stats)
    quality = _assemble_quality(corpus, network_id, devices, chunks)
    cache_stats = {name: (hits, misses)
                   for name, (hits, misses) in stats.items()}
    cache_stats.update(_memo_deltas(memo_base))
    return NetworkUnit(
        network_id=network_id,
        rows=rows,
        tickets=tickets,
        months=list(range(corpus.n_months)),
        changes=changes if keep_changes else None,
        quality=quality,
        cache_stats=cache_stats,
    )


def compute_network_timeline_parts(corpus: Corpus, network_id: str,
                                   delta_minutes: int | None,
                                   report: DataQualityReport,
                                   ) -> tuple[list[ChangeRecord],
                                              list[ChangeEvent],
                                              list[dict[str, DeviceFeatures]]]:
    """Uncached stage-graph evaluation backing
    :func:`repro.metrics.dataset.build_network_timeline` — served by the
    fused single pass."""
    stats: dict[str, list[int]] = {name: [0, 0] for name in STAGE_NAMES}
    devices = corpus.inventory.devices_in(network_id)
    parse_devices = _parseable_devices(corpus, devices)
    changes, features_by_month, fused = _fused_network_pass(
        corpus, network_id, parse_devices, corpus.n_months
    )
    events = _stage_events(changes, delta_minutes, None, None, stats)
    report.merge(_assemble_quality(corpus, network_id, devices, [fused]))
    return changes, events, features_by_month
