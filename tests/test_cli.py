"""Tests for the ``mpa`` command-line interface."""

import pytest

from repro.cli import main


@pytest.fixture()
def workspace_env(tmp_path, monkeypatch):
    monkeypatch.setenv("MPA_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("MPA_SCALE", "tiny")
    return tmp_path


class TestCli:
    def test_synthesize_and_summary(self, workspace_env, capsys):
        assert main(["synthesize"]) == 0
        out = capsys.readouterr().out
        assert "workspace ready" in out
        assert main(["summary"]) == 0
        out = capsys.readouterr().out
        assert "networks" in out

    def test_top(self, workspace_env, capsys):
        assert main(["top", "-k", "5"]) == 0
        out = capsys.readouterr().out
        assert "Avg. Monthly MI" in out

    def test_causal(self, workspace_env, capsys):
        assert main(["causal", "--treatment", "n_change_events"]) == 0
        out = capsys.readouterr().out
        assert "Sign test" in out

    def test_evaluate(self, workspace_env, capsys):
        assert main(["evaluate", "--classes", "2", "--variant",
                     "majority"]) == 0
        out = capsys.readouterr().out
        assert "accuracy=" in out

    def test_online(self, workspace_env, capsys):
        assert main(["online", "--history", "2"]) == 0
        out = capsys.readouterr().out
        assert "M (months)" in out

    def test_bad_classes(self, workspace_env):
        with pytest.raises(SystemExit):
            main(["evaluate", "--classes", "3"])

    def test_requires_command(self, workspace_env):
        with pytest.raises(SystemExit):
            main([])


class TestReport:
    def test_report_to_stdout(self, workspace_env, capsys):
        assert main(["report"]) == 0
        out = capsys.readouterr().out
        assert "# Management Plane Analytics report" in out
        assert "## Causal verdicts" in out

    def test_report_to_file(self, workspace_env, tmp_path, capsys):
        target = tmp_path / "org-report.md"
        assert main(["report", "--output", str(target)]) == 0
        text = target.read_text()
        assert "## Predictive model quality" in text
        assert "## Change-intent mix" in text


class TestDriftAndGaps:
    def test_drift_command(self, workspace_env, capsys):
        assert main(["drift", "--threshold", "3.0"]) == 0
        out = capsys.readouterr().out
        assert "drift findings across" in out

    def test_gaps_command(self, workspace_env, capsys):
        assert main(["gaps", "--skip-qed"]) == 0
        out = capsys.readouterr().out
        assert "Operator opinion vs measured impact" in out
        assert "MI rank" in out


class TestExport:
    def test_export_csv(self, workspace_env, tmp_path, capsys):
        target = tmp_path / "metrics.csv"
        assert main(["export", "--output", str(target)]) == 0
        from repro.metrics.export import read_csv
        dataset = read_csv(target)
        assert dataset.n_cases > 0


class TestSelfcheck:
    def test_invariants_only(self, workspace_env, capsys):
        assert main(["selfcheck", "--invariants-only"]) == 0
        out = capsys.readouterr().out
        assert "Estimator invariant checks" in out
        assert "selfcheck passed" in out
        assert "recovery scorecard" not in out

    def test_full_run_writes_report(self, workspace_env, capsys):
        assert main(["selfcheck"]) == 0
        out = capsys.readouterr().out
        assert "recovery scorecard" in out
        report_path = workspace_env / "tiny-seed7" / "selfcheck.json"
        assert report_path.exists()
        import json
        data = json.loads(report_path.read_text())
        assert data["passed"] is True
        assert data["scorecard"]["n_recovered"] == data["scorecard"][
            "n_planted"]
        assert data["scorecard"]["n_spurious"] == 0

    def test_broken_estimator_exits_nonzero(self, workspace_env,
                                            monkeypatch, capsys):
        # deliberately break the MI estimator's symmetry: selfcheck must
        # notice and fail the process
        import sys as _sys
        import repro.analysis.mutual_information  # noqa: F401
        mi_mod = _sys.modules["repro.analysis.mutual_information"]
        orig = mi_mod.mutual_information

        def asymmetric(x, y, bias_correction=False):
            return orig(x, y, bias_correction) + 1e-3 * float(sum(x) % 7)

        monkeypatch.setattr(mi_mod, "mutual_information", asymmetric)
        assert main(["selfcheck", "--invariants-only"]) == 1
        err = capsys.readouterr().err
        assert "REGRESSION" in err
        assert "mi-symmetry" in err

    def test_custom_output_path(self, workspace_env, tmp_path, capsys):
        target = tmp_path / "out" / "sc.json"
        assert main(["selfcheck", "--invariants-only", "--output",
                     str(target)]) == 0
        assert target.exists()


class TestStreamIngestCli:
    """``mpa ingest`` / ``mpa resume`` / ``mpa quality --state-dir``."""

    @pytest.fixture()
    def events_file(self, tmp_path):
        """A small JSONL arrivals file consistent with the tiny corpus
        (one garbage line included, exercising the dead-letter path)."""
        from repro.stream import ArrivalEvent, encode_event
        from repro.synthesis.organization import synthesize
        corpus = synthesize("tiny", seed=7)
        lines = []
        for device_id in sorted(corpus.snapshots)[:6]:
            snap = corpus.snapshots[device_id][-1]
            lines.append(encode_event(ArrivalEvent(
                device_id=snap.device_id, network_id=snap.network_id,
                timestamp=snap.timestamp + 1, login="ops-stream",
                modality=snap.modality.value,
                config_text=snap.config_text,
            )).decode())
        lines.append("this is not an event")
        path = tmp_path / "events.jsonl"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_ingest_resume_quality_roundtrip(self, workspace_env, events_file,
                                             capsys):
        state_dir = workspace_env / "stream-state"
        assert main(["ingest", "--state-dir", str(state_dir),
                     "--events", str(events_file),
                     "--batch-size", "100"]) == 0
        out = capsys.readouterr().out
        assert "journaled" in out
        assert "dead letters (total) : 1" in out
        assert "Fault handling" in out

        # resume over a clean checkpoint is a no-op
        assert main(["resume", "--state-dir", str(state_dir)]) == 0
        out = capsys.readouterr().out
        assert "batches checkpointed : 0" in out

        # re-ingesting the same file only counts duplicates
        assert main(["ingest", "--state-dir", str(state_dir),
                     "--events", str(events_file)]) == 0
        out = capsys.readouterr().out
        assert "duplicates skipped   : 7" in out
        assert "journaled            : 0" in out

        # machine-readable quality report with the dead-letter ledger
        import json as json_mod
        assert main(["quality", "--state-dir", str(state_dir),
                     "--json"]) == 0
        doc = json_mod.loads(capsys.readouterr().out)
        assert len(doc["dead_letters"]) == 1
        assert doc["dead_letters"][0]["reason"] == "undecodable"

        # human-readable form mentions the quarantined event
        assert main(["quality", "--state-dir", str(state_dir)]) == 0
        out = capsys.readouterr().out
        assert "dead-letter seq" in out

    def test_quality_state_dir_without_ingest_fails(self, workspace_env,
                                                    tmp_path, capsys):
        missing = tmp_path / "never-ingested"
        assert main(["quality", "--state-dir", str(missing)]) == 2
        assert "run mpa ingest first" in capsys.readouterr().err


class TestStoreCli:
    def test_corpus_info(self, workspace_env, capsys):
        assert main(["corpus", "info"]) == 0
        out = capsys.readouterr().out
        assert "shards" in out
        assert "resident bytes" in out
        assert "month_index" in out

    def test_corpus_info_state_dir_without_store(self, workspace_env,
                                                 tmp_path, capsys):
        missing = tmp_path / "never-ingested"
        assert main(["corpus", "info", "--state-dir", str(missing)]) == 2
        assert "no columnar store" in capsys.readouterr().err

    def test_query_aggregate_and_rows(self, workspace_env, capsys):
        assert main(["query", "--columns", "n_devices",
                     "--aggregate", "mean", "--by", "month",
                     "--months", "0,1"]) == 0
        out = capsys.readouterr().out
        assert "mean(n_devices) by month" in out
        assert main(["query", "--columns", "n_devices,tickets",
                     "--limit", "2"]) == 0
        out = capsys.readouterr().out
        assert "network" in out
        assert "more (raise --limit)" in out
        assert main(["query", "--count"]) == 0
        assert capsys.readouterr().out.strip().isdigit()

    def test_query_unknown_column_fails_typed(self, workspace_env, capsys):
        assert main(["query", "--columns", "not_a_metric"]) == 2
        err = capsys.readouterr().err
        assert "query failed" in err
        assert "not_a_metric" in err
