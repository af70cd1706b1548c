"""On-disk inputs shared by the workloads, built once per (source, seed).

A fixture set lives under ``perf/.fixtures/<key>/`` where the key is a
SHA-256 over every ``src/repro/**/*.py`` file, the seed and the corpus
shape, so two versions of the program never share a built workspace or
store. Parts are built lazily, each only when a workload first needs it,
under an exclusive lock:

* ``corpus`` — the base corpus (``corpus/``) and its one-month-longer
  twin (``corpus-plus1/``), which the extend step loads instead of
  synthesizing;
* ``fused`` — the base table's digest from the program's *fused* build
  path (no stage cache), the reference the workloads' staged builds must
  equal;
* ``built`` — ``built/`` is a workspace cache dir: the cold-built base
  workspace, its stage cache, and the plus-one-month workspace holding
  only its corpus;
* ``plus1`` — the plus-one-month table from the fused path: its digest
  (the reference for ``mpa extend``) and ``plus1.mpstore``, which the
  serve workload commits into the served store mid-run;
* ``ingest`` — ``ingest-state/``, a streaming state dir checkpointed on
  the base corpus minus its last month, and ``arrivals.jsonl``, that
  month's snapshots as arrival events;
* ``ingest-reference`` — the digests an uninterrupted ingest of the
  events the refresh workload delivers reaches.

Fixture building runs the program in a child process
(``python -m perf.fixtures SEED DIGEST PART...``), so the harness that
later drives the workloads stays small; its time is harness time, never a
metric. Every repetition copies what it needs into its own work dir first.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

from perf import inputs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIXTURE_ROOT = Path(__file__).resolve().parent / ".fixtures"

#: refresh-month: events ingested uninterrupted, then the batch the
#: SIGKILL interrupts (default ingest batch size is 64)
INGEST_EVENTS = 256
KILLED_EVENTS = 64

PARTS = ("corpus", "fused", "built", "plus1", "ingest", "ingest-reference")
NEEDS = {"fused": ("corpus",), "built": ("fused",), "plus1": ("corpus",),
         "ingest": ("corpus",), "ingest-reference": ("ingest",)}


def child_env(extra: dict | None = None) -> dict:
    """Environment for a program process: the sources under ``src/``,
    single-process, and no inherited ``MPA_*`` knobs."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("MPA_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["MPA_JOBS"] = "1"
    env.update(extra or {})
    return env


def source_digest(src: Path = SRC) -> str:
    """SHA-256 over the program's Python sources (paths and contents)."""
    h = hashlib.sha256()
    for path in sorted((src / "repro").rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


class FixtureSet:
    """The fixture directory for one (source digest, seed)."""

    def __init__(self, seed: int, digest: str,
                 root: Path = FIXTURE_ROOT) -> None:
        self.seed = seed
        self.digest = digest
        key = hashlib.sha256(
            f"{digest}\n{seed}\n{inputs.SCALE_TAG}".encode()).hexdigest()
        self.dir = root / f"seed{seed}-{key[:16]}"

    # -- layout ---------------------------------------------------------------

    @property
    def workspace_name(self) -> str:
        """Directory name of the base workspace inside a cache dir."""
        return f"{inputs.SCALE}-seed{self.seed}"

    @property
    def corpus(self) -> Path:
        return self.dir / "corpus"

    @property
    def built(self) -> Path:
        return self.dir / "built"

    @property
    def plus1_store(self) -> Path:
        return self.dir / "plus1.mpstore"

    @property
    def ingest_state(self) -> Path:
        return self.dir / "ingest-state"

    @property
    def arrivals(self) -> Path:
        return self.dir / "arrivals.jsonl"

    def expected(self) -> dict:
        """Digests recorded while building the parts (see :meth:`ensure`)."""
        path = self.dir / "expected.json"
        return json.loads(path.read_text()) if path.exists() else {}

    def _record(self, **values) -> None:
        doc = self.expected()
        doc.update(values)
        (self.dir / "expected.json").write_text(
            json.dumps(doc, indent=1, sort_keys=True) + "\n")

    # -- building -------------------------------------------------------------

    @contextmanager
    def _lock(self):
        self.dir.mkdir(parents=True, exist_ok=True)
        with open(self.dir / ".lock", "w") as handle:
            fcntl.flock(handle, fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle, fcntl.LOCK_UN)

    @staticmethod
    def _closure(parts) -> list[str]:
        """``parts`` and everything they depend on, dependencies first."""
        wanted: list[str] = []

        def want(part: str) -> None:
            if part not in PARTS:
                raise ValueError(f"unknown fixture part {part!r}")
            for dep in NEEDS.get(part, ()):
                want(dep)
            if part not in wanted:
                wanted.append(part)

        for part in parts:
            want(part)
        return wanted

    def ensure(self, *parts: str) -> None:
        """Build the named parts (and their dependencies) if missing."""
        if all((self.dir / f"{part}.done").exists()
               for part in self._closure(parts)):
            return
        subprocess.run([sys.executable, "-m", "perf.fixtures",
                        str(self.seed), self.digest, *parts],
                       cwd=ROOT, env=child_env(), check=True)

    def build(self, *parts: str) -> None:
        """Build missing parts in this process, under the fixture lock."""
        with self._lock():
            for part in self._closure(parts):
                marker = self.dir / f"{part}.done"
                if not marker.exists():
                    getattr(self, "_build_" + part.replace("-", "_"))()
                    marker.touch()

    def _fresh(self, path: Path) -> Path:
        shutil.rmtree(path, ignore_errors=True)
        return path

    def _build_corpus(self) -> None:
        inputs.synthesize(self.seed).save(self._fresh(self.corpus))
        inputs.synthesize(self.seed, inputs.N_MONTHS + 1).save(
            self._fresh(self.dir / "corpus-plus1"))

    @staticmethod
    def _fused_build(corpus_dir: Path):
        from repro.metrics.dataset import build_full
        from repro.stream.checkpoint import dataset_digest
        from repro.synthesis.corpus import Corpus
        dataset = build_full(Corpus.load(corpus_dir)).dataset
        return dataset, dataset_digest(dataset)

    def _build_fused(self) -> None:
        _, digest = self._fused_build(self.corpus)
        self._record(base_dataset_digest=digest)

    def _build_built(self) -> None:
        from repro.core.workspace import Workspace
        from repro.stream.checkpoint import dataset_digest
        built = self._fresh(self.built)
        workspace = Workspace(inputs.SCALE, self.seed, built)
        shutil.copytree(self.corpus, workspace.corpus_dir)
        workspace.ensure()
        digest = dataset_digest(workspace.dataset())
        if digest != self.expected()["base_dataset_digest"]:
            raise RuntimeError(f"seed {self.seed}: staged build differs "
                               "from the fused build")
        shutil.copytree(self.dir / "corpus-plus1",
                        workspace.extended(1).corpus_dir)
        self._record(base_store_digest=workspace.store().digest())

    def _build_plus1(self) -> None:
        dataset, digest = self._fused_build(self.dir / "corpus-plus1")
        self._record(plus1_dataset_digest=digest,
                     plus1_store_digest=dataset.save(
                         self._fresh(self.plus1_store)))

    def _build_ingest(self) -> None:
        from repro.stream.chaos import chaos_events
        from repro.stream.ingest import StreamIngester
        from repro.synthesis.corpus import Corpus
        base, payloads = chaos_events(Corpus.load(self.corpus))
        if len(payloads) < INGEST_EVENTS + KILLED_EVENTS:
            raise RuntimeError(
                f"seed {self.seed}: only {len(payloads)} last-month arrivals")
        StreamIngester.create(self._fresh(self.ingest_state), base).resume()
        self.arrivals.write_bytes(b"".join(p + b"\n" for p in payloads))

    def _build_ingest_reference(self) -> None:
        from repro.stream.ingest import StreamIngester, read_events_file
        scratch = self._fresh(self.dir / "ingest-reference")
        shutil.copytree(self.ingest_state, scratch)
        payloads = [p for _, p in read_events_file(self.arrivals)]
        ingester = StreamIngester(scratch)
        first = ingester.ingest(payloads[:INGEST_EVENTS])
        second = ingester.ingest(
            payloads[INGEST_EVENTS:INGEST_EVENTS + KILLED_EVENTS])
        shutil.rmtree(scratch)
        self._record(ingest_digest=first.dataset_digest,
                     uninterrupted_digest=second.dataset_digest)


if __name__ == "__main__":
    inputs.register_scale()
    FixtureSet(int(sys.argv[1]), sys.argv[2]).build(*sys.argv[3:])
