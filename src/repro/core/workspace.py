"""Cached build of the synthetic corpus + inferred artifacts.

Benchmarks and examples share one expensive pipeline run per scale:
synthesize the corpus, infer the metric table, and extract the raw change
records. :class:`Workspace` memoizes all three on disk, keyed by scale
and seed, so every ``mpa`` command, ``mpa bench`` and the examples pay
the cost only once per cache directory.

Control knobs (environment variables):

* ``MPA_SCALE``: ``tiny`` / ``small`` / ``medium`` / ``paper``
  (default ``small``; ``medium`` approximates the paper's 11K cases,
  ``paper`` matches Table 2's 850 networks x 17 months).
* ``MPA_CACHE_DIR``: cache directory (default ``<repo>/.mpa_cache``).
* ``MPA_SEED``: corpus seed (default 7).
* ``MPA_JOBS``: worker processes for the build's parallel stages
  (default = cpu count; ``1`` forces the serial path). Output is
  bit-identical at any setting — see :mod:`repro.runtime.pool`.

Cache-format and concurrency guarantees:

* Every artifact (``dataset.mpstore`` — the sharded columnar store of
  :mod:`repro.store`, committed by an atomic manifest rename —
  ``changes.jsonl.gz``, ``summary.json``, ``quality.json`` — the run's
  :class:`~repro.metrics.quality.DataQualityReport` — the corpus
  directory, ``format_version.txt``) is
  written to a temporary name and atomically renamed into place;
  ``format_version.txt`` is written last and acts as the commit marker.
* :meth:`Workspace.ensure` holds an advisory file lock
  (``.build.lock``) for the whole build, so two processes (e.g. pytest
  and a benchmark run) never interleave a build; the loser of the race
  re-checks the cache and returns without rebuilding.
* A single freshness predicate, :meth:`Workspace._cache_is_current`,
  governs *both* the derived artifacts and corpus reuse: the corpus is
  only reused when its recorded ``format_version`` matches
  :data:`repro.version.CORPUS_FORMAT_VERSION` and its seed/months match
  this workspace's spec — a format bump rebuilds the corpus too,
  never re-derives the dataset from a stale corpus.
* Loaders recover from corrupted caches (e.g. an artifact truncated by
  a crash that predates atomic writes): the failure is reported as a
  :class:`RuntimeWarning`, the derived artifacts are invalidated, and
  the workspace is rebuilt once before the load is retried.
"""

from __future__ import annotations

import gzip
import json
import os
import pickle
import struct
import warnings
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from repro.errors import CorpusError
from repro.metrics.dataset import MetricDataset, build_full
from repro.store import CorpusStore, StoreWriter, is_store
from repro.metrics.quality import DataQualityReport
from repro.runtime.telemetry import TELEMETRY
from repro.synthesis.corpus import Corpus
from repro.synthesis.organization import SCALES, OrganizationSynthesizer, SynthesisSpec
from repro.types import ChangeModality, ChangeRecord
from repro.util.ioutils import (
    atomic_write_bytes,
    atomic_write_text,
    gzip_text_writer,
)
from repro.util.memo import ContentMemo
from repro.version import CORPUS_FORMAT_VERSION

#: In-process memo of synthesized corpora, keyed by the full synthesis
#: spec. Synthesis is deterministic (seeded RNG), so two workspaces with
#: the same spec — e.g. the parallel and serial halves of the runtime
#: smoke benchmark, or repeated benchmark iterations — share one corpus
#: object instead of re-rendering every snapshot. Corpora are treated as
#: immutable everywhere (scrubbing and fault injection both copy), which
#: makes the sharing safe. At most four corpora stay resident.
_CORPUS_MEMO = ContentMemo("corpus-memo", capacity=4)

DEFAULT_SCALE = "small"

#: Exceptions that signal an unreadable (truncated/corrupt/stale) artifact.
_ARTIFACT_ERRORS = (
    OSError,  # includes gzip.BadGzipFile
    EOFError,  # truncated gzip stream
    ValueError,  # includes json.JSONDecodeError
    KeyError,  # missing JSON fields
    TypeError,  # JSON fields of the wrong shape
    CorpusError,
)


class StageCache:
    """Content-addressed store for per-(network, stage) pipeline results.

    Keys are SHA-256 hex digests computed by
    :mod:`repro.metrics.stages` over each unit's inputs plus the corpus
    format and stage code versions, so entries never need invalidation:
    a changed input, format bump, or stage rewrite simply misses and
    writes a new entry. That also makes the store safe to **share**
    across workspaces (it lives beside them, not inside one) — an
    extended workspace hits the entries its base build wrote, which is
    what makes a 1-month extension cheap.

    Entries are CRC-guarded: the on-disk format is a magic tag, then the
    pickled payload's length and CRC-32, then the payload. A bare
    ``pickle.load`` silently accepts truncated-then-repickled or
    trailing-garbage files; the framed format makes *any* byte-level
    corruption — torn tail, flipped bit, appended junk, foreign file —
    a detectable mismatch. Values are written to a temp name and
    atomically renamed, the same crash-safety pattern as every other
    workspace artifact; a corrupt or legacy-format entry is treated as
    a miss and overwritten by the recompute (content-addressing means a
    miss is always safe, never wrong).

    ``durable=True`` additionally fsyncs each entry and its parent
    directory on store — the streaming ingester opts in so checkpointed
    stage results survive power loss; batch builds keep the cheap
    default.
    """

    #: on-disk entry format tag; bump on incompatible framing changes
    MAGIC = b"MPSC1\n"
    _HEADER = struct.Struct(">QI")  # payload length, CRC-32

    def __init__(self, root: str | Path, *, durable: bool = False) -> None:
        self.root = Path(root)
        self.durable = durable

    def _path(self, key: str) -> Path:
        # two-level fan-out keeps directory listings small at scale
        return self.root / key[:2] / key

    def load(self, key: str):
        """The stored value for ``key``, or ``None`` on a miss."""
        try:
            with open(self._path(key), "rb") as handle:
                blob = handle.read()
        except OSError:
            return None
        header_end = len(self.MAGIC) + self._HEADER.size
        if not blob.startswith(self.MAGIC) or len(blob) < header_end:
            return None
        length, crc = self._HEADER.unpack_from(blob, len(self.MAGIC))
        payload = blob[header_end:]
        if len(payload) != length or zlib.crc32(payload) != crc:
            return None
        try:
            return pickle.loads(payload)
        except (EOFError, pickle.UnpicklingError, AttributeError,
                ImportError, IndexError, ValueError, TypeError):
            return None

    def store(self, key: str, value) -> None:
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        blob = (self.MAGIC
                + self._HEADER.pack(len(payload), zlib.crc32(payload))
                + payload)
        atomic_write_bytes(path, blob, durable=self.durable)

    def clear(self) -> None:
        """Drop every entry (testing/benchmark helper)."""
        import shutil
        shutil.rmtree(self.root, ignore_errors=True)


def _default_cache_dir() -> Path:
    env = os.environ.get("MPA_CACHE_DIR")
    if env:
        return Path(env)
    return Path(__file__).resolve().parents[3] / ".mpa_cache"


def active_scale() -> str:
    """The scale selected by ``MPA_SCALE`` (validated)."""
    scale = os.environ.get("MPA_SCALE", DEFAULT_SCALE)
    if scale not in SCALES:
        raise ValueError(f"MPA_SCALE={scale!r} not in {sorted(SCALES)}")
    return scale


@contextmanager
def _file_lock(lock_path: Path):
    """Advisory exclusive lock (no-op where ``fcntl`` is unavailable)."""
    try:
        import fcntl
    except ImportError:  # non-POSIX platform: single-process semantics
        yield
        return
    lock_path.parent.mkdir(parents=True, exist_ok=True)
    with open(lock_path, "w") as handle:
        fcntl.flock(handle, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(handle, fcntl.LOCK_UN)


@dataclass
class Workspace:
    """Disk-cached pipeline artifacts for one (scale, seed).

    ``extra_months > 0`` denotes an *extended* workspace: the scale's
    corpus plus that many appended months (see :meth:`extended` and the
    ``mpa extend`` CLI verb). Extended workspaces cache their artifacts
    under their own root but share the stage cache with the base, so
    their build recomputes only the units the new months dirty.
    """

    scale: str
    seed: int
    cache_dir: Path
    extra_months: int = 0

    @classmethod
    def default(cls, scale: str | None = None) -> "Workspace":
        scale = scale or active_scale()
        if scale not in SCALES:
            raise ValueError(f"unknown scale {scale!r}")
        seed = int(os.environ.get("MPA_SEED", SCALES[scale].seed))
        return cls(scale=scale, seed=seed, cache_dir=_default_cache_dir())

    def extended(self, extra_months: int = 1) -> "Workspace":
        """The workspace covering this one's span plus ``extra_months``."""
        if extra_months < 1:
            raise ValueError("extra_months must be positive")
        return Workspace(scale=self.scale, seed=self.seed,
                         cache_dir=self.cache_dir,
                         extra_months=self.extra_months + extra_months)

    @property
    def spec(self) -> SynthesisSpec:
        base = SCALES[self.scale]
        return SynthesisSpec(base.n_networks,
                             base.n_months + self.extra_months, self.seed,
                             base.epoch)

    @property
    def root(self) -> Path:
        suffix = f"-plus{self.extra_months}mo" if self.extra_months else ""
        return self.cache_dir / f"{self.scale}-seed{self.seed}{suffix}"

    def stage_cache(self) -> StageCache:
        """The per-(network, stage) result cache shared by every
        workspace under this cache dir (content-addressed keys make
        sharing safe)."""
        return StageCache(self.cache_dir / "stagecache")

    # -- artifact paths -----------------------------------------------------

    @property
    def corpus_dir(self) -> Path:
        return self.root / "corpus"

    @property
    def dataset_path(self) -> Path:
        """The metric table's sharded columnar store (a directory)."""
        return self.root / "dataset.mpstore"

    @property
    def changes_path(self) -> Path:
        return self.root / "changes.jsonl.gz"

    @property
    def summary_path(self) -> Path:
        return self.root / "summary.json"

    @property
    def quality_path(self) -> Path:
        return self.root / "quality.json"

    @property
    def selfcheck_path(self) -> Path:
        """Persisted :class:`~repro.analysis.selfcheck.SelfCheckReport`.

        Written by ``mpa selfcheck``; the previous report doubles as the
        regression baseline for the next run.
        """
        return self.root / "selfcheck.json"

    @property
    def version_path(self) -> Path:
        return self.root / "format_version.txt"

    @property
    def lock_path(self) -> Path:
        return self.root / ".build.lock"

    # -- freshness ----------------------------------------------------------

    def _corpus_meta(self) -> dict | None:
        try:
            return json.loads((self.corpus_dir / "meta.json").read_text())
        except (OSError, ValueError):
            return None

    def _corpus_is_current(self) -> bool:
        """True when the on-disk corpus was built by the current format
        version for this workspace's seed and month count."""
        meta = self._corpus_meta()
        if meta is None:
            return False
        return (meta.get("format_version") == CORPUS_FORMAT_VERSION
                and meta.get("seed") == self.spec.seed
                and meta.get("n_months") == self.spec.n_months)

    def _dataset_present(self) -> bool:
        """A committed store exists.

        A ``dataset.mpstore`` directory *without* a manifest — an
        interrupted first build — does not count; only the manifest
        commit makes a store real.
        """
        return is_store(self.dataset_path)

    def _cache_is_current(self) -> bool:
        """The single freshness predicate: derived artifacts committed at
        the current format version AND a reusable corpus (same version)."""
        if not (self._dataset_present() and self.changes_path.exists()
                and self.summary_path.exists()
                and self.quality_path.exists()
                and self.version_path.exists()):
            return False
        try:
            version = self.version_path.read_text().strip()
        except OSError:
            return False
        if version != str(CORPUS_FORMAT_VERSION):
            return False
        return self._corpus_is_current()

    # -- building ------------------------------------------------------------

    def ensure(self) -> None:
        """Build and cache everything this workspace serves, if missing or
        built by an older generator version.

        Concurrency-safe: the build runs under an exclusive advisory
        file lock, and a process that loses the race re-checks the
        cache after acquiring the lock instead of rebuilding.
        """
        if self._cache_is_current():
            return
        self.root.mkdir(parents=True, exist_ok=True)
        with _file_lock(self.lock_path):
            if self._cache_is_current():
                return  # another process finished the build meanwhile
            with TELEMETRY.stage("workspace-build"):
                corpus = self._load_or_build_corpus()
                # the store writer rides the build: each network's rows
                # become a shard append as they finish, and the manifest
                # commits inside build_full only after the quality gate
                result = build_full(corpus, cache=self.stage_cache(),
                                    store=StoreWriter(self.dataset_path))
                self._save_changes(result.changes)
                atomic_write_text(self.summary_path,
                                  json.dumps(corpus.summary()))
                atomic_write_text(self.quality_path,
                                  json.dumps(result.quality.to_dict()))
                # commit marker: written last, only after every artifact
                # above has been atomically renamed into place
                atomic_write_text(self.version_path,
                                  str(CORPUS_FORMAT_VERSION))

    def invalidate(self) -> None:
        """Drop the derived artifacts (keeps a current corpus for reuse)."""
        import shutil
        shutil.rmtree(self.dataset_path, ignore_errors=True)
        for path in (self.changes_path, self.summary_path, self.quality_path,
                     self.version_path):
            path.unlink(missing_ok=True)

    def _load_or_build_corpus(self) -> Corpus:
        if self._corpus_is_current():
            try:
                return Corpus.load(self.corpus_dir)
            except _ARTIFACT_ERRORS as exc:
                warnings.warn(
                    f"cached corpus at {self.corpus_dir} is unreadable "
                    f"({exc!r}); rebuilding", RuntimeWarning, stacklevel=2,
                )
        spec = self.spec
        memo_key = (CORPUS_FORMAT_VERSION, spec.n_networks, spec.n_months,
                    spec.seed, spec.epoch.year, spec.epoch.month)
        corpus = _CORPUS_MEMO.get(memo_key) if _CORPUS_MEMO.enabled else None
        if corpus is None:
            if self.extra_months:
                # extended span: append months to the base corpus via RNG
                # replay (bit-identical to a cold synthesis of the full
                # span, but without re-rendering the covered months)
                base = Workspace(scale=self.scale, seed=self.seed,
                                 cache_dir=self.cache_dir)
                corpus = base.corpus().extend_months(self.extra_months)
            else:
                corpus = OrganizationSynthesizer(self.spec).build()
            _CORPUS_MEMO.put(memo_key, corpus)
        corpus.save(self.corpus_dir)
        return corpus

    def _recover(self, artifact: str, exc: Exception) -> None:
        """Corrupted-cache path: warn, drop derived artifacts, rebuild."""
        warnings.warn(
            f"cached {artifact} for workspace {self.scale}-seed{self.seed} "
            f"is unreadable ({exc!r}); rebuilding the cache",
            RuntimeWarning, stacklevel=3,
        )
        self.invalidate()
        self.ensure()

    # -- loading (building on miss) ------------------------------------------

    def corpus(self) -> Corpus:
        """The full corpus (slow to load at large scales)."""
        self.ensure()
        try:
            return Corpus.load(self.corpus_dir)
        except _ARTIFACT_ERRORS as exc:
            self._recover("corpus", exc)
            return Corpus.load(self.corpus_dir)

    def dataset(self) -> MetricDataset:
        """The inferred metric table (cached)."""
        self.ensure()
        try:
            return MetricDataset.load(self.dataset_path)
        except _ARTIFACT_ERRORS as exc:
            self._recover("dataset", exc)
            return MetricDataset.load(self.dataset_path)

    def store(self) -> CorpusStore:
        """The columnar store behind :meth:`dataset` (lazy reader).

        Use this when only a projection is needed — ``store().query()``
        faults in just the touched columns instead of materializing the
        table.
        """
        self.ensure()
        try:
            return CorpusStore.open(self.dataset_path)
        except _ARTIFACT_ERRORS as exc:
            self._recover("dataset store", exc)
            return CorpusStore.open(self.dataset_path)

    def summary(self) -> dict:
        """The corpus size summary (Table 2) without loading the corpus."""
        self.ensure()
        try:
            return json.loads(self.summary_path.read_text())
        except _ARTIFACT_ERRORS as exc:
            self._recover("summary", exc)
            return json.loads(self.summary_path.read_text())

    def quality(self) -> DataQualityReport:
        """The data-quality report of the cached pipeline run."""
        self.ensure()
        try:
            return DataQualityReport.from_dict(
                json.loads(self.quality_path.read_text())
            )
        except _ARTIFACT_ERRORS as exc:
            self._recover("quality report", exc)
            return DataQualityReport.from_dict(
                json.loads(self.quality_path.read_text())
            )

    def changes(self) -> dict[str, list[ChangeRecord]]:
        """All inferred device-level changes, grouped by network."""
        self.ensure()
        try:
            return self._read_changes()
        except _ARTIFACT_ERRORS as exc:
            self._recover("change records", exc)
            return self._read_changes()

    def _read_changes(self) -> dict[str, list[ChangeRecord]]:
        changes: dict[str, list[ChangeRecord]] = {}
        with gzip.open(self.changes_path, "rt") as fh:
            for line in fh:
                row = json.loads(line)
                record = ChangeRecord(
                    device_id=row["d"],
                    network_id=row["n"],
                    timestamp=row["t"],
                    modality=ChangeModality(row["m"]),
                    stanza_types=tuple(row["y"]),
                    login=row.get("l", ""),
                )
                changes.setdefault(record.network_id, []).append(record)
        return changes

    def _save_changes(self, changes: dict[str, list[ChangeRecord]]) -> None:
        tmp = self.changes_path.with_name(
            f"{self.changes_path.name}.tmp-{os.getpid()}"
        )
        # no-timestamp gzip keeps the stream byte-identical across runs
        with gzip_text_writer(tmp) as fh:
            for network_id in sorted(changes):
                for change in changes[network_id]:
                    fh.write(json.dumps({
                        "d": change.device_id,
                        "n": change.network_id,
                        "t": change.timestamp,
                        "m": change.modality.value,
                        "y": list(change.stanza_types),
                        "l": change.login,
                    }) + "\n")
        os.replace(tmp, self.changes_path)
