"""The crash-safe streaming event loop: journal → apply → rebuild → checkpoint.

:class:`StreamIngester` turns the batch pipeline into a long-lived
consumer of snapshot-arrival events. Its state directory is the single
source of truth:

.. code-block:: text

    state_dir/
      corpus/           applied corpus as of the last checkpoint
                        (crash-safe Corpus.save swap)
      wal/              append-only event journal (repro.stream.journal)
      cache/            durable StageCache (fsynced content-addressed store)
      checkpoint.json   which WAL prefix the artifacts reflect
      dataset.mpstore/  current metric table (sharded columnar store)
      quality.json      DataQualityReport + dead-letter ledger
      deadletter.jsonl  quarantined events, one JSON object per line
      health.json       rolling health prediction over the newest month

The write ordering is the whole correctness story, in five steps per
batch: (1) **journal** the batch's events and fsync the WAL; (2)
**apply** them to the in-memory corpus, collecting the per-network
dirty set; (3) **rebuild** through the content-addressed stage cache —
clean networks hit, dirty networks recompute — and save the artifacts;
(4) **persist** the applied corpus (crash-safe directory swap) and
**checkpoint** durably; (5) **prune** WAL segments the checkpoint now
covers. A crash at any instant loses at most un-journaled
(= un-acknowledged) events; a restarted ingester loads the persisted
corpus and ledger and replays only the un-checkpointed WAL *suffix*,
and because the rebuild is a pure function of the corpus content, a
resumed run lands **bit-identical** to an uninterrupted one (the chaos
harness, :mod:`repro.stream.chaos`, proves this by killing the process
at randomized WAL offsets and comparing content digests).

Events that can never apply — undecodable payloads, unknown devices,
out-of-window timestamps — are routed to a **dead-letter quarantine**
instead of poisoning the loop: each is recorded in ``deadletter.jsonl``
and as a quarantined snapshot in the run's
:class:`~repro.metrics.quality.DataQualityReport`, so ``mpa quality
--json`` scripts the triage. Dead-lettering is deterministic (a replay
reproduces the same ledger), which keeps resume byte-identical even
when the journal contains garbage. Duplicate deliveries are detected
against the durable state itself — every applied snapshot and
quarantined payload has a recomputable identity — so at-least-once
re-delivery after a crash is idempotent even once the WAL prefix that
carried the original has been pruned.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.workspace import StageCache
from repro.errors import MPAError
from repro.faults.process import hooks_from_env
from repro.metrics.dataset import DEFAULT_DELTA_MINUTES, MetricDataset, build_full
from repro.metrics.stages import network_stage_keys
from repro.runtime.retry import RetryPolicy, call_with_retry
from repro.runtime.telemetry import TELEMETRY
from repro.stream.checkpoint import (
    IngestCheckpoint,
    dataset_digest,
    quality_digest,
)
from repro.stream.journal import WriteAheadLog
from repro.store import CorpusStore, is_store
from repro.synthesis.corpus import Corpus
from repro.types import ChangeModality, ConfigSnapshot
from repro.util.ioutils import atomic_write_text
from repro.util.timeutils import MINUTES_PER_MONTH

#: telemetry component name for ingestion fault counters
FAULT_COMPONENT = "stream-ingest"

DEFAULT_BATCH_SIZE = 64


class IngestError(MPAError):
    """The ingester cannot make progress (bad state dir, bad base)."""


@dataclass(frozen=True)
class ArrivalEvent:
    """One snapshot arrival, the unit the WAL journals.

    The same fields as :class:`~repro.types.ConfigSnapshot`, but as a
    plain wire-format record: ``modality`` is the string value and no
    invariant is enforced at construction — validation happens at apply
    time so that invalid events dead-letter instead of crashing decode.
    """

    device_id: str
    network_id: str
    timestamp: int
    login: str
    modality: str
    config_text: str


def encode_event(event: ArrivalEvent) -> bytes:
    """Canonical JSON encoding (stable key order, no whitespace)."""
    return json.dumps({
        "device_id": event.device_id,
        "network_id": event.network_id,
        "timestamp": event.timestamp,
        "login": event.login,
        "modality": event.modality,
        "config_text": event.config_text,
    }, sort_keys=True, separators=(",", ":")).encode("utf-8")


def decode_event(payload: bytes) -> ArrivalEvent:
    """Inverse of :func:`encode_event`; raises ``ValueError`` on garbage."""
    try:
        data = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"undecodable event payload: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError("event payload is not a JSON object")
    try:
        return ArrivalEvent(
            device_id=str(data["device_id"]),
            network_id=str(data["network_id"]),
            timestamp=int(data["timestamp"]),
            login=str(data["login"]),
            modality=str(data["modality"]),
            config_text=str(data["config_text"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed event payload: {exc}") from exc


def event_identity(payload: bytes) -> str:
    """Stable identity of an event (dedup key): sha256 of its encoding."""
    return hashlib.sha256(payload).hexdigest()


def snapshot_identity(snapshot: ConfigSnapshot) -> str:
    """Identity of the arrival event that would produce ``snapshot``.

    Applying an event and re-encoding the resulting snapshot round-trip
    exactly, so the dedup set can be reseeded from the persisted corpus
    alone — no journal history required.
    """
    return event_identity(encode_event(ArrivalEvent(
        device_id=snapshot.device_id,
        network_id=snapshot.network_id,
        timestamp=snapshot.timestamp,
        login=snapshot.login,
        modality=snapshot.modality.value,
        config_text=snapshot.config_text,
    )))


def read_events_file(path: str | Path) -> list[tuple[int, bytes]]:
    """Parse a JSONL events file into ``(lineno, payload)`` pairs.

    No validation happens here — every non-blank line becomes a payload
    (re-encoded canonically when it parses as JSON, raw bytes when it
    does not), so garbage lines flow through the journal and surface in
    the dead-letter ledger rather than aborting the whole file.
    """
    out: list[tuple[int, bytes]] = []
    with open(path, "rb") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                event = decode_event(line)
            except ValueError:
                out.append((lineno, line))
            else:
                out.append((lineno, encode_event(event)))
    return out


@dataclass(frozen=True)
class DeadLetter:
    """One quarantined event and why it could not be applied."""

    seqno: int
    identity: str
    reason: str
    device_id: str = ""
    network_id: str = ""
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "seqno": self.seqno,
            "identity": self.identity,
            "reason": self.reason,
            "device_id": self.device_id,
            "network_id": self.network_id,
            "detail": self.detail,
        }


@dataclass
class IngestResult:
    """Outcome of one :meth:`StreamIngester.ingest`/``resume`` call."""

    journaled: int = 0
    applied: int = 0
    duplicates: int = 0
    dead_letters: int = 0
    batches: int = 0
    rebuilt: bool = False
    applied_seqno: int = 0
    dataset_digest: str = ""
    dirty_networks: list[str] = field(default_factory=list)


class StreamIngester:
    """The WAL-journaled, checkpoint-resumable event loop.

    Create a state directory once with :meth:`create` (persisting the
    base corpus), then any number of processes — sequentially — can
    ``StreamIngester(state_dir)`` to continue: construction loads the
    corpus and dead-letter ledger as of the last checkpoint and replays
    only the un-checkpointed WAL suffix over them, so the in-memory
    state is always the durable truth regardless of where a predecessor
    died — including after checkpointed WAL segments have been pruned.

    ``fault_hooks`` (chaos testing only) receives ``pre_write`` /
    ``post_write`` around WAL appends and ``point(name)`` at the named
    crash points ``post-journal-batch``, ``pre-artifact-save``,
    ``pre-checkpoint``, ``post-checkpoint``. When not passed
    explicitly, hooks come from the ``MPA_FAULT_*`` environment knobs
    (:func:`repro.faults.hooks_from_env`), so out-of-process harnesses
    can inject faults into an unmodified ``mpa ingest`` / ``resume``.
    """

    def __init__(self, state_dir: str | Path, *,
                 batch_size: int = DEFAULT_BATCH_SIZE,
                 delta_minutes: int | None = DEFAULT_DELTA_MINUTES,
                 retry: RetryPolicy | None = None,
                 fault_hooks=None) -> None:
        self.state_dir = Path(state_dir)
        Corpus.recover_save(self.state_dir / "corpus")
        if not (self.state_dir / "corpus").is_dir():
            raise IngestError(
                f"{self.state_dir} is not an ingestion state dir "
                "(no corpus/; create one with StreamIngester.create)"
            )
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.batch_size = batch_size
        self.delta_minutes = delta_minutes
        self.retry = retry if retry is not None else RetryPolicy.from_env()
        if fault_hooks is None:
            fault_hooks = hooks_from_env()
        self.fault_hooks = fault_hooks
        self.corpus = Corpus.load(self.state_dir / "corpus")
        self.cache = StageCache(self.state_dir / "cache", durable=True)
        # load the checkpoint first: its applied_seqno is the
        # acknowledgment floor, which lets WAL recovery truncate a
        # power-loss-reordered unsynced tail (several records deep)
        # instead of refusing to open, while still treating damage to
        # checkpointed records as real corruption
        self.checkpoint = (IngestCheckpoint.load(self.checkpoint_path)
                           or IngestCheckpoint())
        self.wal = WriteAheadLog(self.state_dir / "wal", hooks=fault_hooks,
                                 trusted_seqno=self.checkpoint.applied_seqno)
        if self.checkpoint.applied_seqno > self.wal.last_seqno:
            raise IngestError(
                f"checkpoint claims seqno {self.checkpoint.applied_seqno} "
                f"but the journal ends at {self.wal.last_seqno} — the WAL "
                "was damaged after checkpointing"
            )
        self._seen: set[str] = set()
        self.dead_letters: list[DeadLetter] = []
        self._dirty: set[str] = set()
        self._study_end = self.corpus.n_months * MINUTES_PER_MONTH
        # reseed dedup + quarantine state from the durable artifacts (the
        # corpus and ledger reflect everything up to the checkpoint; WAL
        # records at or below it may already be pruned), then replay the
        # un-checkpointed suffix
        for snaps in self.corpus.snapshots.values():
            for snap in snaps:
                self._seen.add(snapshot_identity(snap))
        self._load_dead_letters()
        for seqno, payload in self.wal.replay(
                after_seqno=self.checkpoint.applied_seqno):
            self._apply(seqno, payload)

    def _load_dead_letters(self) -> None:
        """Reload the checkpointed prefix of the persisted ledger.

        Letters past the checkpoint are dropped (the ledger file may be
        one rebuild ahead of a crashed checkpoint); suffix replay
        regenerates them identically, keeping the ledger a pure function
        of durable state.
        """
        if self.checkpoint.applied_seqno <= 0:
            return
        try:
            text = self.deadletter_path.read_text()
        except OSError:
            return
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                letter = DeadLetter(**json.loads(line))
            except (ValueError, TypeError):
                continue
            if letter.seqno <= self.checkpoint.applied_seqno:
                self.dead_letters.append(letter)
                self._seen.add(letter.identity)

    # -- paths ---------------------------------------------------------------

    @property
    def checkpoint_path(self) -> Path:
        return self.state_dir / "checkpoint.json"

    @property
    def dataset_path(self) -> Path:
        """The metric table's columnar store (rebuilds write here)."""
        return self.state_dir / "dataset.mpstore"

    @property
    def quality_path(self) -> Path:
        return self.state_dir / "quality.json"

    @property
    def deadletter_path(self) -> Path:
        return self.state_dir / "deadletter.jsonl"

    @property
    def health_path(self) -> Path:
        return self.state_dir / "health.json"

    # -- construction --------------------------------------------------------

    @classmethod
    def create(cls, state_dir: str | Path, corpus: Corpus,
               **kwargs) -> "StreamIngester":
        """Initialize a state directory around ``corpus`` and open it."""
        state_dir = Path(state_dir)
        if (state_dir / "corpus").exists():
            raise IngestError(f"{state_dir} already initialized")
        state_dir.mkdir(parents=True, exist_ok=True)
        corpus.save(state_dir / "corpus")
        return cls(state_dir, **kwargs)

    # -- the event loop ------------------------------------------------------

    def _fault_point(self, name: str) -> None:
        hooks = self.fault_hooks
        if hooks is not None and hasattr(hooks, "point"):
            hooks.point(name)

    def _dead_letter(self, seqno: int, identity: str, reason: str, *,
                     device_id: str = "", network_id: str = "",
                     detail: str = "") -> None:
        self.dead_letters.append(DeadLetter(
            seqno=seqno, identity=identity, reason=reason,
            device_id=device_id, network_id=network_id, detail=detail,
        ))
        TELEMETRY.record_fault(FAULT_COMPONENT, dead_letters=1)

    def _apply(self, seqno: int, payload: bytes) -> bool:
        """Apply one journaled payload to the in-memory corpus.

        Returns True when the event mutated the corpus; every failure
        mode dead-letters instead of raising (the journal may legally
        contain garbage — it was accepted before validation). Networks
        touched past the checkpoint join the dirty set.
        """
        identity = event_identity(payload)
        if identity in self._seen:
            # already reflected in durable state (applied snapshot or
            # quarantined payload): idempotent no-op, not a fault
            return False
        self._seen.add(identity)
        try:
            event = decode_event(payload)
        except ValueError as exc:
            self._dead_letter(seqno, identity, "undecodable", detail=str(exc))
            return False
        try:
            device = self.corpus.inventory.device(event.device_id)
        except KeyError:
            self._dead_letter(
                seqno, identity, "unknown-device",
                device_id=event.device_id, network_id=event.network_id,
            )
            return False
        if device.network_id != event.network_id:
            self._dead_letter(
                seqno, identity, "network-mismatch",
                device_id=event.device_id, network_id=event.network_id,
                detail=f"device belongs to {device.network_id}",
            )
            return False
        if not 0 <= event.timestamp < self._study_end:
            self._dead_letter(
                seqno, identity, "timestamp-out-of-window",
                device_id=event.device_id, network_id=event.network_id,
                detail=f"timestamp {event.timestamp} outside "
                       f"[0, {self._study_end})",
            )
            return False
        try:
            modality = ChangeModality(event.modality)
        except ValueError:
            self._dead_letter(
                seqno, identity, "invalid-modality",
                device_id=event.device_id, network_id=event.network_id,
                detail=f"modality {event.modality!r}",
            )
            return False
        snapshot = ConfigSnapshot(
            device_id=event.device_id,
            network_id=event.network_id,
            timestamp=event.timestamp,
            login=event.login,
            modality=modality,
            config_text=event.config_text,
        )
        snaps = self.corpus.snapshots.setdefault(event.device_id, [])
        position = bisect_right([s.timestamp for s in snaps],
                                snapshot.timestamp)
        snaps.insert(position, snapshot)
        if seqno > self.checkpoint.applied_seqno:
            self._dirty.add(event.network_id)
        return True

    def ingest(self, payloads, *,
               result: IngestResult | None = None) -> IngestResult:
        """Journal + apply + rebuild new event payloads, in batches.

        ``payloads`` is an iterable of canonical event encodings (see
        :func:`encode_event` / :func:`read_events_file`). Duplicates of
        anything already applied or quarantined are counted and skipped
        without journaling (at-least-once sources may re-deliver).
        Each batch is made durable in the WAL before any of it is
        applied, and ends with artifacts + a checkpoint on disk — so a
        crash never loses an acknowledged event and resumes mid-stream.
        A failed durability barrier
        (:class:`~repro.stream.journal.JournalSyncError`) aborts the
        batch by propagating: nothing of it is applied, checkpointed,
        or pruned, because a failed fsync may have already dropped the
        pages and a "successful" retry would acknowledge lost events.
        """
        out = result or IngestResult()
        payloads = list(payloads)
        for start in range(0, len(payloads), self.batch_size):
            batch = payloads[start:start + self.batch_size]
            journaled: list[tuple[int, bytes]] = []
            queued: set[str] = set()
            for payload in batch:
                # idempotent re-delivery: anything already reflected in
                # durable state (or queued earlier in this batch) is
                # counted and skipped, never journaled twice — so the
                # WAL carries each identity at most once
                identity = event_identity(payload)
                if identity in self._seen or identity in queued:
                    out.duplicates += 1
                    continue
                queued.add(identity)
                seqno = call_with_retry(
                    lambda p=payload: self.wal.append(p),
                    policy=self.retry, label="wal-append",
                    telemetry_name=FAULT_COMPONENT,
                )
                journaled.append((seqno, payload))
            self.wal.sync()
            self._fault_point("post-journal-batch")
            out.journaled += len(journaled)
            for seqno, payload in journaled:
                if self._apply(seqno, payload):
                    out.applied += 1
            if journaled or self.wal.last_seqno > self.checkpoint.applied_seqno:
                self._rebuild_and_checkpoint(out)
                out.batches += 1
        if not out.batches and self._needs_rebuild():
            self._rebuild_and_checkpoint(out)
            out.batches += 1
        out.dead_letters = len(self.dead_letters)
        out.applied_seqno = self.checkpoint.applied_seqno
        out.dataset_digest = self.checkpoint.dataset_digest
        return out

    def resume(self) -> IngestResult:
        """Finish whatever a crashed predecessor left incomplete.

        Construction already replayed the full WAL; if records past the
        checkpoint exist (or the saved artifacts do not match the
        checkpoint's digests), rebuild and re-checkpoint. Otherwise
        verify and return without rebuilding — resume is idempotent.
        """
        out = IngestResult()
        if self._needs_rebuild():
            self._rebuild_and_checkpoint(out)
            out.batches = 1
        else:
            # clean resume: still reclaim segments a crash-before-prune
            # predecessor left behind
            self.wal.prune(self.checkpoint.applied_seqno)
        out.dead_letters = len(self.dead_letters)
        out.applied_seqno = self.checkpoint.applied_seqno
        out.dataset_digest = self.checkpoint.dataset_digest
        return out

    # -- rebuild + checkpoint ------------------------------------------------

    def _needs_rebuild(self) -> bool:
        if self.wal.last_seqno > self.checkpoint.applied_seqno:
            return True
        if not self.checkpoint.dataset_digest:
            return True  # never checkpointed: produce the base artifacts
        if not self._dataset_artifact_current():
            return True
        # certify the checkpointed stage keys against the replayed
        # corpus — pure hashing, no stage runs
        for network_id, keys in self.checkpoint.stage_keys.items():
            if network_stage_keys(self.corpus, network_id,
                                  self.delta_minutes) != keys:
                return True
        return False

    def _dataset_artifact_current(self) -> bool:
        """The saved store matches the checkpoint's ``store_digest``.

        The manifest digest transitively covers every shard's sha256,
        so this certifies the whole table with header reads only, no
        column materialization. A checkpoint without a ``store_digest``,
        a missing store or a damaged manifest is not current: resume
        certifies it by rebuilding.
        """
        if not (self.checkpoint.store_digest
                and is_store(self.dataset_path)):
            return False
        try:
            return (CorpusStore.open(self.dataset_path).digest()
                    == self.checkpoint.store_digest)
        except Exception:
            return False  # torn manifest: certify by rebuilding

    def _rebuild_and_checkpoint(self, out: IngestResult) -> None:
        dirty = sorted(self._dirty)
        with TELEMETRY.stage("stream-rebuild", tasks=len(dirty) or 1):
            built = build_full(self.corpus, self.delta_minutes,
                               cache=self.cache)
        report = built.quality
        for letter in self.dead_letters:
            report.quarantine_snapshot(
                letter.device_id or "<unattributed>",
                letter.network_id or "<unattributed>",
                f"dead-letter[{letter.reason}] seqno={letter.seqno}",
            )
        self._fault_point("pre-artifact-save")
        # per-network shard appends + one manifest commit: unchanged
        # networks' shards are content-addressed reuses, not writes
        store_digest = built.dataset.save(self.dataset_path, durable=True)
        quality_doc = report.to_dict()
        quality_doc["dead_letters"] = [
            letter.to_dict() for letter in self.dead_letters
        ]
        atomic_write_text(self.quality_path,
                          json.dumps(quality_doc, sort_keys=True, indent=1)
                          + "\n",
                          durable=True)
        atomic_write_text(self.deadletter_path,
                          "".join(json.dumps(letter.to_dict(),
                                             sort_keys=True) + "\n"
                                  for letter in self.dead_letters),
                          durable=True)
        self._refresh_health(built.dataset)
        # persist the applied corpus BEFORE the checkpoint: once the
        # checkpoint claims a seqno, the WAL prefix below it is
        # prunable, so the corpus on disk must already reflect it
        self.corpus.save(self.state_dir / "corpus", durable=True)
        # recompute every network's keys (not just dirty ones): the
        # checkpoint must certify exactly the corpus that was persisted,
        # and a full recompute self-heals any stale entry
        self.checkpoint.stage_keys = {
            network_id: network_stage_keys(self.corpus, network_id,
                                           self.delta_minutes)
            for network_id in self.corpus.inventory.network_ids
        }
        self.checkpoint.applied_seqno = self.wal.last_seqno
        self.checkpoint.dataset_digest = dataset_digest(built.dataset)
        self.checkpoint.store_digest = store_digest
        self.checkpoint.quality_digest = quality_digest(report)
        self.checkpoint.dead_letters = len(self.dead_letters)
        self._fault_point("pre-checkpoint")
        self.checkpoint.save(self.checkpoint_path)
        self._fault_point("post-checkpoint")
        self.wal.prune(self.checkpoint.applied_seqno)
        self._dirty.clear()
        out.rebuilt = True
        out.dirty_networks = sorted(set(out.dirty_networks) | set(dirty))

    def _refresh_health(self, dataset: MetricDataset) -> None:
        """Rolling health prediction over the newest month (best effort)."""
        from repro.core.online import predict_extension
        from repro.errors import InsufficientDataError
        try:
            rolled = predict_extension(dataset, n_new_months=1)
        except (InsufficientDataError, ValueError) as exc:
            doc = {"status": "insufficient-data", "detail": str(exc)}
        else:
            doc = {
                "status": "ok",
                "history_months": rolled.history_months,
                "evaluated_months": list(rolled.evaluated_months),
                "monthly_accuracy": [float(a)
                                     for a in rolled.monthly_accuracy],
                "mean_accuracy": float(rolled.mean_accuracy),
            }
        atomic_write_text(self.health_path,
                          json.dumps(doc, sort_keys=True, indent=1) + "\n",
                          durable=True)
