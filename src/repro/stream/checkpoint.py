"""Durable ingestion checkpoints: which WAL prefix the artifacts reflect.

A checkpoint is one JSON document, written durably (temp + fsync +
rename + parent-directory fsync) *after* the artifacts it describes, so
its presence certifies them:

* ``applied_seqno`` — every WAL record up to and including this
  sequence number is reflected in the saved dataset/quality artifacts.
  A restarted ingester replays only the suffix past it.
* ``dataset_digest`` / ``quality_digest`` — content digests of the
  artifacts at checkpoint time. Digests cover the *semantic* content
  (metric names, case keys, value bytes, canonical quality JSON), not
  the container files, so they are stable across re-serialization.
* ``stage_keys`` — per-network content-addressed stage keys from
  :func:`repro.metrics.stages.network_stage_keys`, updated for each
  network a batch dirtied. Because those keys are pure functions of the
  corpus content, a resumed ingester can certify "my replayed corpus
  matches the state the checkpoint described" by recomputing keys —
  without re-running any stage.

Crash ordering: events are journaled (and synced) first, then applied,
then artifacts are saved, then the checkpoint. A crash between any two
steps leaves ``applied_seqno`` pointing at the last *completed* batch;
resume replays the rest of the WAL and rebuilds. The rebuild is a pure
function of the replayed corpus (see :mod:`repro.metrics.stages`), so
the resumed run lands bit-identical to an uninterrupted one.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import MPAError
from repro.util.ioutils import atomic_write_text
from repro.version import CORPUS_FORMAT_VERSION

#: Bump on incompatible checkpoint-schema changes; a mismatch is treated
#: as "no checkpoint" (full replay), never as corruption.
CHECKPOINT_FORMAT = 1


class CheckpointError(MPAError):
    """A checkpoint exists but cannot certify the state it describes."""


def dataset_digest(dataset) -> str:
    """Content digest of a :class:`~repro.metrics.dataset.MetricDataset`.

    Hashes the semantic content — names, case keys, the value and
    ticket arrays' raw bytes, the epoch — rather than any serialized
    container, so the digest is identical however the table was
    produced (cold build, incremental, resumed ingest).
    """
    h = hashlib.sha256(b"mpa-dataset-digest-v1")
    meta = json.dumps({
        "names": dataset.names,
        "case_networks": dataset.case_networks,
        "case_month_indices": [int(i) for i in dataset.case_month_indices],
        "epoch": [dataset.epoch.year, dataset.epoch.month],
        "shape": list(dataset.values.shape),
    }, sort_keys=True, separators=(",", ":"))
    h.update(meta.encode())
    h.update(dataset.values.tobytes())
    h.update(dataset.tickets.tobytes())
    return h.hexdigest()


def quality_digest(report) -> str:
    """Content digest of a DataQualityReport (canonical-JSON based)."""
    blob = json.dumps(report.to_dict(), sort_keys=True,
                      separators=(",", ":"))
    h = hashlib.sha256(b"mpa-quality-digest-v1")
    h.update(blob.encode())
    return h.hexdigest()


@dataclass
class IngestCheckpoint:
    """The durable record of a completed ingestion batch."""

    applied_seqno: int = 0
    dataset_digest: str = ""
    quality_digest: str = ""
    #: manifest digest of the columnar store the dataset was saved to
    #: (covers every shard's sha256 transitively). Resume certifies the
    #: saved table with it — header reads only, no column data; an empty
    #: one (a pre-store checkpoint) makes resume rebuild.
    store_digest: str = ""
    #: network id -> stage-key dict (parse/events/metrics/health)
    stage_keys: dict[str, dict[str, str]] = field(default_factory=dict)
    #: dead letters accumulated so far (seqno -> reason), for the ledger
    dead_letters: int = 0
    corpus_format: int = CORPUS_FORMAT_VERSION

    def to_dict(self) -> dict:
        return {
            "format": CHECKPOINT_FORMAT,
            "corpus_format": self.corpus_format,
            "applied_seqno": self.applied_seqno,
            "dataset_digest": self.dataset_digest,
            "quality_digest": self.quality_digest,
            "store_digest": self.store_digest,
            "dead_letters": self.dead_letters,
            "stage_keys": self.stage_keys,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "IngestCheckpoint":
        return cls(
            applied_seqno=int(data["applied_seqno"]),
            dataset_digest=str(data["dataset_digest"]),
            quality_digest=str(data["quality_digest"]),
            stage_keys={
                str(network): {str(k): str(v) for k, v in keys.items()}
                for network, keys in dict(data["stage_keys"]).items()
            },
            store_digest=str(data.get("store_digest", "")),
            dead_letters=int(data.get("dead_letters", 0)),
            corpus_format=int(data.get("corpus_format",
                                       CORPUS_FORMAT_VERSION)),
        )

    def save(self, path: str | Path) -> None:
        """Durably persist (fsync file + parent dir before rename lands)."""
        atomic_write_text(
            Path(path),
            json.dumps(self.to_dict(), sort_keys=True, indent=1) + "\n",
            durable=True,
        )

    @classmethod
    def load(cls, path: str | Path) -> "IngestCheckpoint | None":
        """The checkpoint at ``path``, or ``None`` when absent/unusable.

        An unreadable or format-mismatched checkpoint degrades to a
        full-WAL replay (correct, just slower), never to an error —
        the artifacts it certified will simply be rebuilt.
        """
        path = Path(path)
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        if not isinstance(data, dict):
            return None
        if data.get("format") != CHECKPOINT_FORMAT:
            return None
        if data.get("corpus_format") != CORPUS_FORMAT_VERSION:
            return None
        try:
            return cls.from_dict(data)
        except (KeyError, TypeError, ValueError, AttributeError):
            return None
