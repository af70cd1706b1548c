"""On-disk format of the sharded columnar corpus store.

One store is a directory:

.. code-block:: text

    <root>/
      manifest.json                  versioned commit marker (written last)
      shards/
        <network>-<digest12>.shard   immutable per-network column file

**Shard files are immutable and content-addressed**: the file name
embeds a prefix of the SHA-256 over the file's bytes, so rewriting a
network whose rows changed creates a *new* file while the old one stays
valid for the manifest that references it (and for any reader that
already mapped it). A commit atomically replaces ``manifest.json`` and
only then garbage-collects unreferenced shard files — a crash at any
instant leaves the previous manifest pointing at fully-intact shards,
the same write-then-rename + fsync discipline as the WAL and ingestion
checkpoints.

Shard file layout (all integers big-endian):

.. code-block:: text

    MPCS1\\n                magic, 6 bytes
    u32                    header length H
    H bytes                header JSON (sorted keys, compact)
    zero padding           to the 64-byte aligned data start
    column blobs           each 64-byte aligned, raw little-endian bytes

The header records ``network``, ``rows``, and per-column
``(name, dtype, offset, nbytes)`` with offsets absolute in the file.
Besides the metric columns (float64) every shard carries two
bookkeeping columns: ``month_index`` (int64, the case's month) and
``tickets`` (int64, the health outcome). The expected file size is
implied by the last column's extent, which lets the loader classify a
size mismatch as *truncated* (file too short) or *trailing garbage*
(file too long) without reading any column data.

Columns are served as **read-only zero-copy views** over an
``mmap.ACCESS_READ`` mapping created lazily on first access: opening a
shard reads only the header, and projecting one column faults in only
that column's pages. Writes to a returned array raise ``ValueError``.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.errors import StoreError
from repro.util.ioutils import atomic_write_bytes

#: Bump on incompatible manifest/shard layout changes; a mismatch is a
#: typed :class:`~repro.errors.StoreError`, never silent misreading.
STORE_FORMAT_VERSION = 1

#: Shard file magic tag (also the format version fence for shard files).
SHARD_MAGIC = b"MPCS1\n"

#: Reserved bookkeeping columns present in every shard next to the
#: metric columns.
MONTH_COLUMN = "month_index"
TICKETS_COLUMN = "tickets"
RESERVED_COLUMNS = (MONTH_COLUMN, TICKETS_COLUMN)

_HEADER_LEN = struct.Struct(">I")
_ALIGN = 64


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def encode_shard(network_id: str, names: list[str],
                 values: np.ndarray, tickets: np.ndarray,
                 months: np.ndarray) -> bytes:
    """Serialize one network's rows into an immutable shard blob.

    ``values`` is the ``(rows, len(names))`` float64 slice of the metric
    table; serialization is column-major so a reader can project one
    metric without touching the rest. Deterministic: the same rows
    always produce byte-identical output (and therefore the same
    content address).
    """
    rows = int(values.shape[0])
    columns = []
    blobs: list[bytes] = []
    specs = [(name, np.ascontiguousarray(values[:, i], dtype="<f8"))
             for i, name in enumerate(names)]
    specs.append((MONTH_COLUMN, np.ascontiguousarray(months, dtype="<i8")))
    specs.append((TICKETS_COLUMN, np.ascontiguousarray(tickets, dtype="<i8")))
    # two passes: offsets depend on the header length, which depends on
    # the offsets' digit widths — so lay out with placeholder offsets
    # first, then fix the header to its final, stable byte length by
    # padding the JSON with spaces (JSON ignores trailing whitespace)
    payloads = [(name, arr.dtype.str, arr.tobytes()) for name, arr in specs]

    def _layout(header_len: int):
        data_start = _align(len(SHARD_MAGIC) + _HEADER_LEN.size + header_len)
        offset = data_start
        laid = []
        for name, dtype, blob in payloads:
            laid.append({"name": name, "dtype": dtype, "offset": offset,
                         "nbytes": len(blob)})
            offset = _align(offset + len(blob))
        return laid

    def _header_bytes(columns_doc) -> bytes:
        return json.dumps(
            {"network": network_id, "rows": rows, "columns": columns_doc},
            sort_keys=True, separators=(",", ":"),
        ).encode("utf-8")

    header = _header_bytes(_layout(0))
    for _ in range(8):  # converges in <= 2 iterations in practice
        columns = _layout(len(header))
        new_header = _header_bytes(columns)
        if len(new_header) <= len(header):
            header = new_header + b" " * (len(header) - len(new_header))
            break
        header = new_header
    else:  # pragma: no cover - the loop above always converges
        raise StoreError(f"shard header layout did not converge for "
                         f"{network_id}")

    out = bytearray()
    out += SHARD_MAGIC
    out += _HEADER_LEN.pack(len(header))
    out += header
    for spec, (_, _, blob) in zip(columns, payloads):
        out += b"\x00" * (spec["offset"] - len(out))
        out += blob
    return bytes(out)


def shard_digest(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def shard_filename(network_id: str, digest: str) -> str:
    return f"{network_id}-{digest[:12]}.shard"


class Shard:
    """One mapped shard file: header eagerly parsed, columns lazy.

    The mmap is created on first column access; every returned array is
    a zero-copy read-only view (writes raise ``ValueError``). A shard
    stays readable after its file is unlinked or superseded — the
    mapping pins the inode — which is what keeps concurrent readers
    consistent across a store commit.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        try:
            with open(self.path, "rb") as handle:
                prefix = handle.read(len(SHARD_MAGIC) + _HEADER_LEN.size)
                if len(prefix) < len(SHARD_MAGIC) + _HEADER_LEN.size:
                    raise StoreError(
                        f"shard {self.path} is truncated "
                        f"({len(prefix)} bytes; not even a header)"
                    )
                if not prefix.startswith(SHARD_MAGIC):
                    raise StoreError(
                        f"shard {self.path} has no {SHARD_MAGIC!r} magic "
                        "(not a shard file, or an incompatible version)"
                    )
                (header_len,) = _HEADER_LEN.unpack(
                    prefix[len(SHARD_MAGIC):]
                )
                header_blob = handle.read(header_len)
        except OSError as exc:
            raise StoreError(f"cannot read shard {self.path}: {exc}") from None
        if len(header_blob) < header_len:
            raise StoreError(
                f"shard {self.path} is truncated mid-header "
                f"({len(header_blob)} of {header_len} header bytes)"
            )
        try:
            header = json.loads(header_blob)
            self.network_id = str(header["network"])
            self.rows = int(header["rows"])
            self._columns = {
                str(col["name"]): (str(col["dtype"]), int(col["offset"]),
                                   int(col["nbytes"]))
                for col in header["columns"]
            }
        except (ValueError, KeyError, TypeError) as exc:
            raise StoreError(
                f"shard {self.path} has a malformed header: {exc}"
            ) from None
        # the writer never emits anything past the last column's final
        # byte, so the on-disk size is fully determined by the header
        expected = max(
            (offset + nbytes
             for _, offset, nbytes in self._columns.values()),
            default=len(SHARD_MAGIC) + _HEADER_LEN.size + header_len,
        )
        actual = self.path.stat().st_size
        if actual < expected:
            raise StoreError(
                f"shard {self.path} is truncated ({actual} bytes on disk, "
                f"{expected} expected — a column file tail is missing)"
            )
        if actual > expected:
            raise StoreError(
                f"shard {self.path} has {actual - expected} byte(s) of "
                f"trailing garbage ({actual} bytes on disk, {expected} "
                "expected)"
            )
        self._mm: mmap.mmap | None = None

    def column_names(self) -> list[str]:
        return list(self._columns)

    def _mapping(self) -> mmap.mmap:
        if self._mm is None:
            with open(self.path, "rb") as handle:
                self._mm = mmap.mmap(handle.fileno(), 0,
                                     access=mmap.ACCESS_READ)
            try:
                # no readahead: faulting one column's pages must not
                # drag the neighbouring columns into memory (that would
                # defeat the point of projecting), so prefetch is
                # opted into per column below instead
                self._mm.madvise(mmap.MADV_RANDOM)
            except (AttributeError, OSError):  # pragma: no cover
                pass  # platform without madvise: readahead heuristics
        return self._mm

    def column(self, name: str) -> np.ndarray:
        """Zero-copy read-only view of one column (lazy page faults)."""
        try:
            dtype, offset, nbytes = self._columns[name]
        except KeyError:
            raise StoreError(
                f"shard {self.path} has no column {name!r} "
                f"(columns: {', '.join(sorted(self._columns))})"
            ) from None
        if self.rows == 0:
            return np.empty(0, dtype=dtype)
        mm = self._mapping()
        try:
            page = mmap.PAGESIZE
            aligned = offset - offset % page
            mm.madvise(mmap.MADV_WILLNEED, aligned,
                       nbytes + (offset - aligned))
        except (AttributeError, OSError, ValueError):  # pragma: no cover
            pass
        view = memoryview(mm)[offset:offset + nbytes]
        return np.frombuffer(view, dtype=dtype)

    def nbytes_of(self, name: str) -> int:
        return self._columns[name][2]

    def close(self) -> None:
        if self._mm is not None:
            self._mm.close()
            self._mm = None


@dataclass
class ShardEntry:
    """One manifest row: where a network's shard lives and its identity."""

    network_id: str
    file: str
    rows: int
    nbytes: int
    sha256: str

    def to_dict(self) -> dict:
        return {"network": self.network_id, "file": self.file,
                "rows": self.rows, "nbytes": self.nbytes,
                "sha256": self.sha256}

    @classmethod
    def from_dict(cls, data: dict) -> "ShardEntry":
        return cls(network_id=str(data["network"]), file=str(data["file"]),
                   rows=int(data["rows"]), nbytes=int(data["nbytes"]),
                   sha256=str(data["sha256"]))


@dataclass
class Manifest:
    """The versioned store manifest — the commit marker of every write.

    Shard order is meaningful: concatenating shards in manifest order
    reproduces the metric table's row order bit-identically.
    """

    names: list[str]
    epoch: tuple[int, int]
    shards: list[ShardEntry] = field(default_factory=list)
    format: int = STORE_FORMAT_VERSION

    def to_dict(self) -> dict:
        return {
            "format": self.format,
            "epoch": list(self.epoch),
            "names": list(self.names),
            "shards": [entry.to_dict() for entry in self.shards],
        }

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    def digest(self) -> str:
        """Content digest of the manifest (and, transitively, of every
        shard it references — their sha256s are part of the document)."""
        h = hashlib.sha256(b"mpa-store-manifest-v1")
        h.update(self.canonical_json().encode())
        return h.hexdigest()

    def save(self, path: str | Path, *, durable: bool = False) -> None:
        atomic_write_bytes(
            Path(path),
            (json.dumps(self.to_dict(), sort_keys=True, indent=1)
             + "\n").encode("utf-8"),
            durable=durable,
        )

    @classmethod
    def load(cls, path: str | Path) -> "Manifest":
        path = Path(path)
        try:
            data = json.loads(path.read_text())
        except FileNotFoundError:
            raise StoreError(f"no store manifest at {path}") from None
        except OSError as exc:
            raise StoreError(
                f"cannot read store manifest {path}: {exc}"
            ) from None
        except ValueError as exc:
            raise StoreError(
                f"store manifest {path} is not valid JSON: {exc}"
            ) from None
        if not isinstance(data, dict):
            raise StoreError(f"store manifest {path} is not a JSON object")
        version = data.get("format")
        if version != STORE_FORMAT_VERSION:
            raise StoreError(
                f"store manifest {path} has format version {version!r}, "
                f"this build reads {STORE_FORMAT_VERSION} — rebuild the "
                "store from its corpus"
            )
        try:
            epoch = data["epoch"]
            return cls(
                names=[str(name) for name in data["names"]],
                epoch=(int(epoch[0]), int(epoch[1])),
                shards=[ShardEntry.from_dict(entry)
                        for entry in data["shards"]],
            )
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise StoreError(
                f"store manifest {path} is missing or mistypes field: {exc}"
            ) from None
