"""Tests for the data-quality layer: report, scrub, persistence, CLI."""

import json

import pytest

from repro.cli import main
from repro.errors import CorpusError, DataError
from repro.faults import FaultPlan, inject_faults
from repro.metrics.dataset import MetricDataset
from repro.metrics.quality import (
    DEFAULT_MAX_BAD_FRACTION,
    DataQualityReport,
    QualityIssue,
    resolve_max_bad_fraction,
    scrub_corpus,
)
from repro.util.ioutils import atomic_write_text


class TestResolveMaxBadFraction:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("MPA_MAX_BAD_FRACTION", raising=False)
        assert resolve_max_bad_fraction() == DEFAULT_MAX_BAD_FRACTION

    def test_argument_wins(self, monkeypatch):
        monkeypatch.setenv("MPA_MAX_BAD_FRACTION", "0.9")
        assert resolve_max_bad_fraction(0.1) == 0.1

    def test_env_variable(self, monkeypatch):
        monkeypatch.setenv("MPA_MAX_BAD_FRACTION", "0.4")
        assert resolve_max_bad_fraction() == 0.4

    def test_bad_env_rejected(self, monkeypatch):
        monkeypatch.setenv("MPA_MAX_BAD_FRACTION", "most")
        with pytest.raises(ValueError, match="MPA_MAX_BAD_FRACTION"):
            resolve_max_bad_fraction()

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            resolve_max_bad_fraction(1.5)


class TestDataQualityReport:
    def test_fresh_report_is_clean(self):
        report = DataQualityReport()
        assert report.is_clean
        assert report.worst_fraction == 0.0
        report.check(0.0)  # nothing to flag

    def test_fractions(self):
        report = DataQualityReport()
        report.snapshots_total = 10
        report.quarantine_snapshot("dev1", "net1", "unparsable")
        report.quarantine_snapshot("dev2", "net1", "duplicate")
        assert report.snapshot_bad_fraction == pytest.approx(0.2)
        assert report.worst_fraction == pytest.approx(0.2)
        assert not report.is_clean

    def test_repairs_do_not_count_toward_threshold(self):
        report = DataQualityReport()
        report.snapshots_total = 4
        report.repair_snapshots("dev1", "net1", "re-sorted")
        assert not report.is_clean
        assert report.worst_fraction == 0.0
        report.check(0.0)

    def test_check_raises_over_threshold(self):
        report = DataQualityReport()
        report.devices_total = 4
        for i in range(3):
            report.drop_device(f"dev{i}", "net1", "zero parsable snapshots")
        with pytest.raises(DataError, match="devices dropped: 75.0%"):
            report.check(0.5)
        report.check(0.75)  # exactly at the threshold is tolerated

    def test_merge_accumulates(self):
        a = DataQualityReport()
        a.snapshots_total = 3
        a.quarantine_snapshot("dev1", "net1", "bad")
        b = DataQualityReport()
        b.snapshots_total = 2
        b.drop_device("dev9", "net2", "gone")
        a.merge(b)
        assert a.snapshots_total == 5
        assert len(a.snapshots_quarantined) == 1
        assert len(a.devices_dropped) == 1

    def test_dict_roundtrip(self):
        report = DataQualityReport()
        report.snapshots_total = 7
        report.snapshots_parsed = 6
        report.quarantine_snapshot("dev1", "net1", "unparsable config")
        report.degrade_network("net2", "inference task failed")
        clone = DataQualityReport.from_dict(
            json.loads(json.dumps(report.to_dict()))
        )
        assert clone.to_dict() == report.to_dict()
        assert clone.snapshots_quarantined[0] == QualityIssue(
            "snapshot", "dev1", "net1", "unparsable config"
        )

    def test_summary_mentions_every_dimension(self):
        report = DataQualityReport()
        text = report.summary()
        for word in ("snapshots", "devices", "networks", "tickets", "clean"):
            assert word in text

    def test_all_issues_attributed(self):
        report = DataQualityReport()
        report.quarantine_snapshot("dev1", "net1", "why1")
        report.drop_device("dev1", "net1", "why2")
        report.degrade_network("net1", "why3")
        report.quarantine_ticket("t1", "net1", "why4")
        report.repair_snapshots("dev2", "net1", "why5")
        issues = report.all_issues()
        assert len(issues) == 5
        assert all(issue.reason for issue in issues)
        assert "snapshot dev1 (net1): why1" in map(str, issues)


class TestScrubCorpus(object):
    def test_clean_corpus_same_object(self, tiny_corpus):
        report = DataQualityReport()
        assert scrub_corpus(tiny_corpus, report) is tiny_corpus
        assert not report.snapshots_quarantined
        assert not report.tickets_quarantined
        assert report.snapshots_total == sum(
            len(s) for s in tiny_corpus.snapshots.values()
        )
        assert report.tickets_total == len(tiny_corpus.tickets)

    def test_scrubbed_corpus_rebuilds_cleanly(self, tiny_corpus):
        injected = inject_faults(
            tiny_corpus,
            FaultPlan(duplicate_snapshot=0.1, out_of_order=0.1,
                      duplicate_ticket=0.1, malformed_ticket=0.1),
            seed=5,
        )
        report = DataQualityReport()
        scrubbed = scrub_corpus(injected.corpus, report)
        assert scrubbed is not injected.corpus
        assert report.snapshots_quarantined or report.snapshots_repaired
        assert report.tickets_quarantined
        # scrubbing the scrubbed corpus finds nothing left to fix
        second = DataQualityReport()
        assert scrub_corpus(scrubbed, second) is scrubbed
        assert not second.snapshots_quarantined
        assert not second.tickets_quarantined


class TestDatasetLoadErrors:
    def test_missing_npz(self, tmp_path):
        """Only a committed store loads: a missing path and a plain file
        each raise a typed error naming that path."""
        missing = tmp_path / "nope"
        plain = tmp_path / "dataset.bin"
        plain.write_bytes(b"not a columnar store")
        for path in (missing, plain):
            with pytest.raises(CorpusError, match=str(path)):
                MetricDataset.load(path)


class TestAtomicWriteText:
    def test_writes_and_replaces(self, tmp_path):
        target = tmp_path / "out.json"
        atomic_write_text(target, "one")
        atomic_write_text(target, "two")
        assert target.read_text() == "two"
        assert list(tmp_path.iterdir()) == [target]


@pytest.fixture()
def workspace_env(tmp_path, monkeypatch):
    monkeypatch.setenv("MPA_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("MPA_SCALE", "tiny")
    return tmp_path


class TestQualityWorkspaceAndCli:
    def test_workspace_caches_quality_report(self, workspace_env):
        from repro.core.workspace import Workspace
        ws = Workspace.default()
        report = ws.quality()
        assert ws.quality_path.exists()
        assert report.is_clean  # synthetic corpora are clean
        assert report.snapshots_parsed == report.snapshots_total > 0
        # a corrupted cached report (cache otherwise current) recovers
        # via the warn-invalidate-rebuild path
        ws.quality_path.write_text("{not json")
        with pytest.warns(RuntimeWarning, match="quality report"):
            recovered = ws.quality()
        assert recovered.to_dict() == report.to_dict()

    def test_cli_synthesize_prints_quality(self, workspace_env, capsys):
        assert main(["synthesize"]) == 0
        out = capsys.readouterr().out
        assert "data quality report:" in out
        assert "corpus is clean" in out

    def test_cli_quality_command(self, workspace_env, capsys):
        assert main(["quality"]) == 0
        out = capsys.readouterr().out
        assert "data quality report:" in out
        assert "parsed" in out

    def test_cli_max_bad_fraction_flag(self, workspace_env, capsys,
                                       monkeypatch):
        monkeypatch.delenv("MPA_MAX_BAD_FRACTION", raising=False)
        assert main(["synthesize", "--max-bad-fraction", "0.5"]) == 0
        import os
        assert os.environ["MPA_MAX_BAD_FRACTION"] == "0.5"
