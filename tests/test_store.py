"""Tests for the sharded columnar corpus store (:mod:`repro.store`)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.errors import CorpusError, StoreError
from repro.metrics.dataset import MetricDataset
from repro.store import (
    MONTH_COLUMN,
    STORE_FORMAT_VERSION,
    TICKETS_COLUMN,
    CorpusStore,
    StoreWriter,
    is_store,
)
from repro.store.format import Shard, encode_shard
from repro.types import MonthKey

NAMES = ["alpha", "beta", "gamma"]


def _write_store(root, networks, *, months_per_network=4, seed=0):
    """Commit a store of ``networks`` deterministic shards; returns it."""
    rng = np.random.default_rng(seed)
    writer = StoreWriter(root)
    for network_id in networks:
        values = rng.random((months_per_network, len(NAMES)))
        tickets = rng.integers(0, 9, months_per_network, dtype=np.int64)
        months = np.arange(months_per_network, dtype=np.int64)
        writer.append(network_id, NAMES, values, tickets, months)
    writer.commit(NAMES, (2024, 1))
    return CorpusStore.open(root)


class TestShardFormat:
    def test_round_trip(self, tmp_path):
        values = np.arange(12, dtype=float).reshape(4, 3)
        blob = encode_shard("net", NAMES, values,
                            np.array([1, 2, 3, 4], dtype=np.int64),
                            np.arange(4, dtype=np.int64))
        path = tmp_path / "net.shard"
        path.write_bytes(blob)
        shard = Shard(path)
        assert shard.network_id == "net"
        assert shard.rows == 4
        for i, name in enumerate(NAMES):
            assert np.array_equal(shard.column(name), values[:, i])
        assert np.array_equal(shard.column(TICKETS_COLUMN), [1, 2, 3, 4])
        assert np.array_equal(shard.column(MONTH_COLUMN), range(4))

    def test_deterministic_encoding(self):
        values = np.ones((2, 3))
        args = (NAMES, values, np.zeros(2, dtype=np.int64),
                np.arange(2, dtype=np.int64))
        assert encode_shard("n", *args) == encode_shard("n", *args)

    def test_empty_shard(self, tmp_path):
        """A network with zero cases round-trips as an empty shard."""
        blob = encode_shard("empty", NAMES,
                            np.empty((0, len(NAMES))),
                            np.empty(0, dtype=np.int64),
                            np.empty(0, dtype=np.int64))
        path = tmp_path / "empty.shard"
        path.write_bytes(blob)
        shard = Shard(path)
        assert shard.rows == 0
        assert shard.column("alpha").size == 0
        assert shard.column(MONTH_COLUMN).size == 0

    def test_mmap_views_are_immutable(self, tmp_path):
        store = _write_store(tmp_path / "s", ["net0"])
        col = store.column("net0", "alpha")
        with pytest.raises(ValueError):
            col[0] = 99.0
        gathered = store.query().column("beta")
        with pytest.raises(ValueError):
            gathered[:] = 0.0

    def test_truncated_shard_is_typed_error(self, tmp_path):
        store = _write_store(tmp_path / "s", ["net0"])
        path = store.root / store.manifest.shards[0].file
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(StoreError, match="truncated"):
            CorpusStore.open(store.root).shard("net0")

    def test_trailing_garbage_is_typed_error(self, tmp_path):
        store = _write_store(tmp_path / "s", ["net0"])
        path = store.root / store.manifest.shards[0].file
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(StoreError, match="trailing garbage"):
            CorpusStore.open(store.root).shard("net0")

    def test_not_a_shard_file(self, tmp_path):
        path = tmp_path / "bogus.shard"
        path.write_bytes(b"definitely not a shard file header")
        with pytest.raises(StoreError, match="magic"):
            Shard(path)


class TestManifest:
    def test_version_mismatch_is_corpus_error(self, tmp_path):
        store = _write_store(tmp_path / "s", ["net0"])
        manifest_path = store.root / "manifest.json"
        doc = json.loads(manifest_path.read_text())
        doc["format"] = STORE_FORMAT_VERSION + 1
        manifest_path.write_text(json.dumps(doc))
        with pytest.raises(CorpusError, match="format version"):
            CorpusStore.open(store.root)
        # the message tells the user to rebuild
        with pytest.raises(StoreError, match="rebuild the store"):
            CorpusStore.open(store.root)

    def test_missing_manifest(self, tmp_path):
        (tmp_path / "s").mkdir()
        assert not is_store(tmp_path / "s")
        with pytest.raises(StoreError, match="manifest"):
            CorpusStore.open(tmp_path / "s")

    def test_shard_manifest_crosscheck(self, tmp_path):
        store = _write_store(tmp_path / "s", ["net0", "net1"])
        entries = {e.network_id: e for e in store.manifest.shards}
        # point net0's entry at net1's shard file
        entries["net0"].file = entries["net1"].file
        with pytest.raises(StoreError, match="manifest entry"):
            store.shard("net0")


class TestQuery:
    def test_projection_and_filters(self, tmp_path):
        store = _write_store(tmp_path / "s", ["net0", "net1", "net2"])
        q = store.query().where(networks=["net1"], months=[0, 1])
        assert q.count() == 2
        col = q.column("alpha")
        direct = store.column("net1", "alpha")[:2]
        assert np.array_equal(col, direct)
        table = q.project("alpha", TICKETS_COLUMN).table()
        assert set(table) == {"alpha", TICKETS_COLUMN, "network"}
        assert list(table["network"]) == ["net1", "net1"]

    def test_aggregates(self, tmp_path):
        store = _write_store(tmp_path / "s", ["net0", "net1"])
        full = store.query().column("beta")
        assert store.query().aggregate("mean", "beta") == \
            pytest.approx(float(full.mean()))
        by_net = store.query().aggregate("sum", "beta", by="network")
        assert [n for n, _ in by_net] == ["net0", "net1"]
        by_month = store.query().aggregate("count", "beta", by="month")
        assert by_month == [(m, 2) for m in range(4)]

    def test_empty_scope_aggregates(self, tmp_path):
        """Sum over an empty scope is 0.0 (additive identity); mean and
        the order statistics stay NaN; count is 0."""
        store = _write_store(tmp_path / "s", ["net0", "net1"])
        empty = store.query().where(months=[99])
        assert empty.count() == 0
        assert empty.aggregate("sum", "beta") == 0.0
        assert empty.aggregate("count", "beta") == 0
        for func in ("mean", "min", "max"):
            assert np.isnan(empty.aggregate(func, "beta"))

    def test_empty_scope_aggregates_grouped(self, tmp_path):
        store = _write_store(tmp_path / "s", ["net0", "net1"])
        empty = store.query().where(months=[99])
        by_net = empty.aggregate("sum", "beta", by="network")
        assert by_net == [("net0", 0.0), ("net1", 0.0)]
        by_net_mean = empty.aggregate("mean", "beta", by="network")
        assert [n for n, _ in by_net_mean] == ["net0", "net1"]
        assert all(np.isnan(v) for _, v in by_net_mean)
        # no month survives the filter, so a month grouping has no rows
        assert empty.aggregate("sum", "beta", by="month") == []
        assert empty.aggregate("count", "beta", by="month") == []

    def test_aggregate_unknown_column_fails_fast(self, tmp_path):
        """An unknown aggregate column is a typed StoreError naming the
        column and the nearest valid name, raised before any shard is
        iterated — for every grouping."""
        store = _write_store(tmp_path / "s", ["net0"])
        for by in (None, "network", "month"):
            with pytest.raises(StoreError,
                               match=r"'alpah'.*did you mean 'alpha'"):
                store.query().aggregate("mean", "alpah", by=by)
        # the by= key is validated up front too, even with a bad column
        with pytest.raises(StoreError, match="group key"):
            store.query().aggregate("mean", "alpah", by="device")

    def test_missing_column_is_typed_error(self, tmp_path):
        store = _write_store(tmp_path / "s", ["net0"])
        with pytest.raises(StoreError, match="no_such_metric"):
            store.query().column("no_such_metric")
        with pytest.raises(StoreError, match="available"):
            store.query().project("alpha", "no_such_metric")

    def test_unknown_network_is_typed_error(self, tmp_path):
        store = _write_store(tmp_path / "s", ["net0"])
        with pytest.raises(StoreError, match="net9"):
            store.query().where(networks=["net9"])

    def test_unknown_aggregate_and_group(self, tmp_path):
        store = _write_store(tmp_path / "s", ["net0"])
        with pytest.raises(StoreError, match="median"):
            store.query().aggregate("median", "alpha")
        with pytest.raises(StoreError, match="group key"):
            store.query().aggregate("mean", "alpha", by="device")

    def test_lazy_resident_accounting(self, tmp_path):
        store = _write_store(tmp_path / "s", ["net0", "net1"])
        assert store.info().resident_bytes == 0
        store.query().column("alpha")
        resident = store.info().resident_bytes
        assert 0 < resident < store.info().on_disk_bytes


class TestStoreWriter:
    def test_single_network_corpus(self, tmp_path):
        store = _write_store(tmp_path / "s", ["only"])
        assert store.networks == ["only"]
        assert store.n_rows == 4
        dataset = store.dataset()
        assert dataset.case_networks == ["only"] * 4
        assert dataset.names == NAMES

    def test_content_addressed_reuse(self, tmp_path):
        root = tmp_path / "s"
        _write_store(root, ["net0", "net1"], seed=3)
        # identical rewrite: every shard is a reuse, none written
        rng = np.random.default_rng(3)
        writer = StoreWriter(root)
        for network_id in ["net0", "net1"]:
            values = rng.random((4, len(NAMES)))
            tickets = rng.integers(0, 9, 4, dtype=np.int64)
            writer.append(network_id, NAMES, values, tickets,
                          np.arange(4, dtype=np.int64))
        writer.commit(NAMES, (2024, 1))
        assert writer.shards_written == 0
        assert writer.shards_reused == 2

    def test_garbage_collection_after_commit(self, tmp_path):
        root = tmp_path / "s"
        store = _write_store(root, ["net0", "net1"], seed=1)
        assert len(list((root / "shards").glob("*.shard"))) == 2
        # rewrite net0 with different rows: new shard file, old GC'd
        writer = StoreWriter(root)
        writer.append("net0", NAMES, np.zeros((4, len(NAMES))),
                      np.zeros(4, dtype=np.int64),
                      np.arange(4, dtype=np.int64))
        writer.append("net1", NAMES,
                      np.asarray([store.column("net1", n) for n in NAMES]).T,
                      np.asarray(store.column("net1", TICKETS_COLUMN)),
                      np.asarray(store.column("net1", MONTH_COLUMN)))
        writer.commit(NAMES, (2024, 1))
        assert writer.shards_reused == 1
        assert len(list((root / "shards").glob("*.shard"))) == 2
        assert np.array_equal(
            CorpusStore.open(root).column("net0", "alpha"), np.zeros(4)
        )

    def test_concurrent_reader_survives_rewrite(self, tmp_path):
        """A reader opened before a commit keeps a consistent snapshot.

        Shard files are immutable and the mmap pins the inode, so a
        rewrite + GC under an open reader changes nothing it sees.
        """
        root = tmp_path / "s"
        reader = _write_store(root, ["net0", "net1"], seed=5)
        before = np.array(reader.column("net0", "alpha"))  # maps the shard
        old_manifest = reader.digest()
        writer = StoreWriter(root)
        writer.append("net0", NAMES, np.full((4, len(NAMES)), 7.0),
                      np.zeros(4, dtype=np.int64),
                      np.arange(4, dtype=np.int64))
        writer.append("net1", NAMES, np.full((4, len(NAMES)), 8.0),
                      np.zeros(4, dtype=np.int64),
                      np.arange(4, dtype=np.int64))
        writer.commit(NAMES, (2024, 1))
        # the old reader still serves its snapshot (no crash, same data)
        assert np.array_equal(reader.column("net0", "alpha"), before)
        assert reader.digest() == old_manifest
        # a fresh reader sees the new commit
        fresh = CorpusStore.open(root)
        assert np.array_equal(fresh.column("net0", "alpha"),
                              np.full(4, 7.0))


class TestDatasetIntegration:
    def test_save_load_round_trip(self, tmp_path, tiny_dataset):
        digest_in = tiny_dataset.values.tobytes()
        tiny_dataset.save(tmp_path / "ds.mpstore")
        loaded = MetricDataset.load(tmp_path / "ds.mpstore")
        assert loaded.names == tiny_dataset.names
        assert loaded.case_networks == tiny_dataset.case_networks
        assert loaded.case_month_indices == tiny_dataset.case_month_indices
        assert loaded.values.tobytes() == digest_in
        assert np.array_equal(loaded.tickets, tiny_dataset.tickets)
        assert loaded.epoch == tiny_dataset.epoch

    def test_load_errors_are_corpus_errors(self, tmp_path, tiny_dataset):
        root = tmp_path / "ds.mpstore"
        tiny_dataset.save(root)
        shard = sorted((root / "shards").glob("*.shard"))[0]
        shard.write_bytes(shard.read_bytes()[:100])
        with pytest.raises(CorpusError) as err:
            MetricDataset.load(root)
        assert shard.name in str(err.value)

    def test_store_dir_without_manifest(self, tmp_path):
        (tmp_path / "ds.mpstore").mkdir()
        with pytest.raises(CorpusError, match="no metric dataset"):
            MetricDataset.load(tmp_path / "ds.mpstore")

    def test_interleaved_networks_rejected(self, tmp_path):
        dataset = MetricDataset(
            names=["m"],
            case_networks=["a", "b", "a"],
            case_month_indices=[0, 0, 1],
            values=np.zeros((3, 1)),
            tickets=np.zeros(3, dtype=np.int64),
            epoch=MonthKey(2024, 1),
        )
        with pytest.raises(StoreError, match="not\\s+contiguous"):
            dataset.save(tmp_path / "ds.mpstore")
