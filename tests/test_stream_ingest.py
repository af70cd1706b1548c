"""Streaming ingester: bit-identity, resume, dedup, dead letters."""

import json

import pytest

from repro.faults.process import EioOnSync
from repro.metrics.dataset import MetricDataset, build_full
from repro.stream.chaos import chaos_events
from repro.stream.checkpoint import IngestCheckpoint, dataset_digest
from repro.stream.journal import JournalSyncError
from repro.stream.ingest import (
    ArrivalEvent,
    StreamIngester,
    encode_event,
    event_identity,
    snapshot_identity,
)
from repro.synthesis.organization import OrganizationSynthesizer, SynthesisSpec

SPEC = SynthesisSpec(n_networks=3, n_months=3, seed=5)


@pytest.fixture(scope="module")
def split():
    """(full corpus, base corpus, last-month arrival payloads)."""
    full = OrganizationSynthesizer(SPEC).build()
    base, payloads = chaos_events(full)
    return full, base, payloads


@pytest.fixture()
def state(split, tmp_path):
    _, base, _ = split
    ing = StreamIngester.create(tmp_path / "state", base, batch_size=1000)
    return ing


class TestBitIdentity:
    def test_streamed_equals_direct_build(self, split, state):
        full, _, payloads = split
        result = state.ingest(payloads)
        assert result.applied == len(payloads)
        assert result.dead_letters == 0
        direct = build_full(full, state.delta_minutes)
        assert result.dataset_digest == dataset_digest(direct.dataset)
        saved = MetricDataset.load(state.dataset_path)
        assert dataset_digest(saved) == result.dataset_digest

    def test_batched_run_lands_identical(self, split, tmp_path):
        full, base, payloads = split
        ing = StreamIngester.create(tmp_path / "batched", base, batch_size=7)
        result = ing.ingest(payloads)
        assert result.batches == -(-len(payloads) // 7)
        direct = build_full(full, ing.delta_minutes)
        assert result.dataset_digest == dataset_digest(direct.dataset)


class TestResume:
    def test_clean_resume_is_a_noop(self, split, state):
        _, _, payloads = split
        first = state.ingest(payloads)
        reopened = StreamIngester(state.state_dir)
        assert not reopened._needs_rebuild()
        resumed = reopened.resume()
        assert resumed.batches == 0
        assert resumed.dataset_digest == first.dataset_digest

    def test_reopen_after_prune_replays_only_the_suffix(self, split,
                                                        tmp_path):
        """Regression: checkpointed WAL segments are pruned, so the
        restarted ingester must reconstruct from the persisted corpus +
        suffix — not from full journal history."""
        full, base, payloads = split
        ing = StreamIngester.create(tmp_path / "pruned", base, batch_size=9)
        ing.wal.max_segment_bytes = 2048
        first = ing.ingest(payloads)
        reopened = StreamIngester(tmp_path / "pruned")
        assert reopened.wal.replay is not None
        assert list(reopened.wal.replay(
            after_seqno=reopened.checkpoint.applied_seqno)) == []
        assert not reopened._needs_rebuild()
        # the reloaded corpus is the applied corpus, byte for byte
        rebuilt = build_full(reopened.corpus, reopened.delta_minutes)
        assert dataset_digest(rebuilt.dataset) == first.dataset_digest

    def test_lost_checkpoint_recovers_to_same_digest(self, split, state):
        _, _, payloads = split
        first = state.ingest(payloads)
        state.checkpoint_path.unlink()
        reopened = StreamIngester(state.state_dir)
        assert reopened._needs_rebuild()
        resumed = reopened.resume()
        assert resumed.batches == 1
        assert resumed.dataset_digest == first.dataset_digest

    def test_checkpoint_without_store_digest_rebuilds(self, split, state):
        """A checkpoint with no ``store_digest`` (the shape of a
        pre-store checkpoint) cannot certify the saved table: resume
        rebuilds and lands on the uninterrupted run's digests."""
        _, _, payloads = split
        first = state.ingest(payloads)
        first_quality = state.checkpoint.quality_digest
        checkpoint = IngestCheckpoint.load(state.checkpoint_path)
        checkpoint.store_digest = ""
        checkpoint.save(state.checkpoint_path)
        reopened = StreamIngester(state.state_dir)
        resumed = reopened.resume()
        assert resumed.batches == 1
        assert resumed.dataset_digest == first.dataset_digest
        assert reopened.checkpoint.quality_digest == first_quality
        assert reopened.checkpoint.store_digest

    def test_unjournaled_suffix_triggers_rebuild(self, split, state):
        _, _, payloads = split
        state.ingest(payloads[:-5])
        # a predecessor journaled five more events but died pre-rebuild
        for payload in payloads[-5:]:
            state.wal.append(payload)
        state.wal.sync()
        reopened = StreamIngester(state.state_dir)
        assert reopened._needs_rebuild()
        resumed = reopened.resume()
        assert resumed.batches == 1
        assert resumed.applied_seqno == reopened.wal.last_seqno


class TestSyncFailure:
    def test_failed_barrier_aborts_before_apply_or_checkpoint(
            self, split, state):
        """A failed WAL fsync must abort the batch: nothing applied,
        checkpointed, or pruned — an acknowledged batch must never rest
        on a durability barrier that did not hold."""
        full, _, payloads = split
        state.wal.hooks = EioOnSync(count=10 ** 6)
        with pytest.raises(JournalSyncError):
            state.ingest(payloads)
        assert not state.checkpoint_path.exists()
        assert not state.dataset_path.exists()
        # the journaled-but-unacknowledged batch is not lost history: a
        # healthy successor replays it and lands bit-identical
        reopened = StreamIngester(state.state_dir)
        result = reopened.resume()
        direct = build_full(full, reopened.delta_minutes)
        assert result.dataset_digest == dataset_digest(direct.dataset)


class TestDedup:
    def test_redelivery_is_idempotent(self, split, state):
        _, _, payloads = split
        first = state.ingest(payloads)
        again = StreamIngester(state.state_dir).ingest(payloads)
        assert again.journaled == 0
        assert again.duplicates == len(payloads)
        assert again.batches == 0
        assert again.dataset_digest == first.dataset_digest

    def test_in_batch_duplicates_are_journaled_once(self, split, state):
        _, _, payloads = split
        doubled = [payloads[0], payloads[0], payloads[1]]
        result = state.ingest(doubled)
        assert result.journaled == 2
        assert result.duplicates == 1

    def test_event_identical_to_base_snapshot_is_a_duplicate(self, split,
                                                             state):
        _, base, _ = split
        device_id = next(iter(base.snapshots))
        snap = base.snapshots[device_id][0]
        result = state.ingest([encode_event(ArrivalEvent(
            device_id=snap.device_id, network_id=snap.network_id,
            timestamp=snap.timestamp, login=snap.login,
            modality=snap.modality.value, config_text=snap.config_text,
        ))])
        assert result.duplicates == 1
        assert result.journaled == 0

    def test_snapshot_identity_roundtrips_the_event_encoding(self, split):
        _, base, _ = split
        device_id = next(iter(base.snapshots))
        snap = base.snapshots[device_id][0]
        payload = encode_event(ArrivalEvent(
            device_id=snap.device_id, network_id=snap.network_id,
            timestamp=snap.timestamp, login=snap.login,
            modality=snap.modality.value, config_text=snap.config_text,
        ))
        assert snapshot_identity(snap) == event_identity(payload)


class TestDeadLetters:
    def _event(self, base, **overrides):
        device_id = next(iter(base.snapshots))
        snap = base.snapshots[device_id][0]
        fields = dict(
            device_id=snap.device_id, network_id=snap.network_id,
            timestamp=snap.timestamp + 17, login="ops1",
            modality="manual", config_text="hostname x\n",
        )
        fields.update(overrides)
        return encode_event(ArrivalEvent(**fields))

    def test_every_reason_lands_in_the_ledger(self, split, state):
        _, base, _ = split
        other_net = sorted(base.inventory.network_ids)[-1]
        bad = [
            b"this is not json",
            self._event(base, device_id="no-such-device"),
            self._event(base, network_id=other_net),
            self._event(base, timestamp=10**9),
            self._event(base, modality="telepathy"),
        ]
        result = state.ingest(bad)
        assert result.applied == 0
        assert result.dead_letters == 5
        reasons = {letter.reason for letter in state.dead_letters}
        assert reasons == {"undecodable", "unknown-device",
                           "network-mismatch", "timestamp-out-of-window",
                           "invalid-modality"}
        # persisted: one JSONL line per letter, plus the quality ledger
        lines = state.deadletter_path.read_text().splitlines()
        assert len(lines) == 5
        quality = json.loads(state.quality_path.read_text())
        assert len(quality["dead_letters"]) == 5

    def test_ledger_survives_restart_and_redelivery(self, split, state):
        _, base, _ = split
        garbage = b"\xff\xfe garbage"
        state.ingest([garbage, self._event(base)])
        reopened = StreamIngester(state.state_dir)
        assert len(reopened.dead_letters) == 1
        assert reopened.dead_letters[0].reason == "undecodable"
        # re-delivering the quarantined payload dedups against the ledger
        again = reopened.ingest([garbage])
        assert again.duplicates == 1
        assert again.journaled == 0
        assert len(reopened.dead_letters) == 1

    def test_quarantine_reaches_the_quality_report(self, split, state):
        state.ingest([b"not json either"])
        assert "dead-letter[undecodable]" in state.quality_path.read_text()


class TestCheckpoint:
    def test_checkpoint_roundtrip(self, tmp_path):
        checkpoint = IngestCheckpoint(applied_seqno=41,
                                      dataset_digest="d" * 64,
                                      quality_digest="q" * 64,
                                      stage_keys={"net0": {"parse": "p"}},
                                      dead_letters=3)
        checkpoint.save(tmp_path / "checkpoint.json")
        loaded = IngestCheckpoint.load(tmp_path / "checkpoint.json")
        assert loaded == checkpoint

    def test_corrupt_checkpoint_loads_as_none(self, tmp_path):
        path = tmp_path / "checkpoint.json"
        path.write_text("{torn")
        assert IngestCheckpoint.load(path) is None

    def test_checkpoint_ahead_of_wal_is_refused(self, split, state):
        _, _, payloads = split
        state.ingest(payloads)
        checkpoint = IngestCheckpoint.load(state.checkpoint_path)
        checkpoint.applied_seqno += 100
        checkpoint.save(state.checkpoint_path)
        with pytest.raises(Exception, match="journal ends"):
            StreamIngester(state.state_dir)
