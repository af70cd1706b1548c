"""Tests for ``mpa bench``: discovery, the canonical output checksum, pin
and claim verdicts, ``--update-baseline`` and the CLI exit codes.

Every case runs against a temp bench dir with its own ``baseline.json``;
none runs the repo's benches (that is ``mpa bench`` itself).
"""

import json
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.bench import (
    BenchContext,
    BenchProtocolError,
    BenchResult,
    compare_results,
    discover,
    output_checksum,
    run_bench,
    run_suite,
    update_baseline,
)
from repro.bench.compare import verdict_for
from repro.bench.discover import default_bench_dir
from repro.cli import main

REPO_BENCH_COUNT_MIN = 30

CLEAN = """
    def run(ctx):
        return {"total": 123}

    def claims(result):
        return {"Table 0: total is positive": result["total"] > 0}
"""


def write_bench(bench_dir, name, body):
    bench_dir = Path(bench_dir)
    bench_dir.mkdir(parents=True, exist_ok=True)
    path = bench_dir / f"bench_{name}.py"
    path.write_text(textwrap.dedent(body))
    return path


def write_pins(bench_dir, pins):
    path = Path(bench_dir) / "baseline.json"
    path.write_text(json.dumps(pins))
    return path


@pytest.fixture
def bench_dir(tmp_path):
    return tmp_path / "benches"


@pytest.fixture
def ctx():
    with BenchContext("tiny") as context:
        yield context


# -- discovery ---------------------------------------------------------------


class TestDiscovery:
    def test_repo_benches_all_expose_run(self):
        specs = discover()
        assert len(specs) >= REPO_BENCH_COUNT_MIN
        names = [spec.name for spec in specs]
        assert len(names) == len(set(names))
        assert "runtime_smoke" in names
        for spec in specs:
            module = spec.load()
            assert callable(module.run), spec.name
            assert callable(module.claims), spec.name

    def test_default_bench_dir_is_repo_benchmarks(self):
        assert default_bench_dir().name == "benchmarks"
        assert (default_bench_dir() / "bench_runtime_smoke.py").exists()

    def test_discover_sorted_and_named_from_stem(self, bench_dir):
        write_bench(bench_dir, "zeta", CLEAN)
        write_bench(bench_dir, "alpha", CLEAN)
        specs = discover(bench_dir)
        assert [s.name for s in specs] == ["alpha", "zeta"]

    def test_filters_are_substring_or(self, bench_dir):
        for name in ("tab03_mi", "tab04_cmi", "fig02_survey"):
            write_bench(bench_dir, name, CLEAN)
        names = [s.name for s in discover(bench_dir,
                                          filters=["tab0", "survey"])]
        assert names == ["fig02_survey", "tab03_mi", "tab04_cmi"]
        assert [s.name for s in discover(bench_dir,
                                         filters=["cmi"])] == ["tab04_cmi"]

    def test_missing_run_is_protocol_error(self, bench_dir):
        write_bench(bench_dir, "norun", "def claims(result):\n    return {}\n")
        (spec,) = discover(bench_dir)
        with pytest.raises(BenchProtocolError):
            spec.load()

    def test_non_callable_run_is_protocol_error(self, bench_dir):
        write_bench(bench_dir, "notfunc",
                    "run = 42\ndef claims(result):\n    return {}\n")
        (spec,) = discover(bench_dir)
        with pytest.raises(BenchProtocolError):
            spec.load()

    def test_missing_claims_is_protocol_error(self, bench_dir):
        write_bench(bench_dir, "noclaims", "def run(ctx):\n    return 1\n")
        (spec,) = discover(bench_dir)
        with pytest.raises(BenchProtocolError, match="claims"):
            spec.load()


# -- one run per bench -------------------------------------------------------


class TestRunBench:
    def test_hashes_output_and_evaluates_claims(self, bench_dir, ctx):
        write_bench(bench_dir, "shaped", """
            def run(ctx):
                return {"answer": 42, "values": [1.0, 2.5]}

            def claims(result):
                return {"holds": result["answer"] == 42,
                        "fails": result["values"][0] > 2}
        """)
        (spec,) = discover(bench_dir)
        result = run_bench(spec, ctx)
        assert result.error is None
        assert result.output_sha256 == output_checksum(
            {"answer": 42, "values": [1.0, 2.5]})
        assert result.claims == {"holds": True, "fails": False}
        assert result.failed_claims == ["fails"]

    def test_raising_bench_records_traceback(self, bench_dir, ctx):
        write_bench(bench_dir, "boom", """
            def run(ctx):
                raise ValueError("kaboom")

            def claims(result):
                return {}
        """)
        (spec,) = discover(bench_dir)
        result = run_bench(spec, ctx)
        assert result.error is not None
        assert "ValueError: kaboom" in result.error
        assert result.output_sha256 is None

    def test_suite_continues_past_failures(self, bench_dir, ctx):
        write_bench(bench_dir, "a_boom", """
            def run(ctx):
                raise RuntimeError("first")

            def claims(result):
                return {}
        """)
        write_bench(bench_dir, "b_fine", CLEAN)
        seen = []
        results = run_suite(discover(bench_dir), ctx,
                            progress=lambda result: seen.append(result.name))
        assert seen == ["a_boom", "b_fine"]
        assert results[0].error is not None
        assert results[1].error is None


class TestOutputChecksum:
    def test_numpy_and_python_types_agree(self):
        assert output_checksum(np.float64(1.5)) == output_checksum(1.5)
        assert output_checksum(np.int32(3)) == output_checksum(3)
        assert output_checksum(np.array([1.0, 2.0])) == output_checksum(
            [1.0, 2.0])
        assert output_checksum((1, 2)) == output_checksum([1, 2])

    def test_dict_key_order_is_irrelevant(self):
        assert output_checksum({"a": 1, "b": 2}) == output_checksum(
            {"b": 2, "a": 1})

    def test_nan_is_canonical(self):
        assert output_checksum(float("nan")) == output_checksum(None)

    def test_distinct_outputs_distinct_checksums(self):
        assert output_checksum({"x": 1}) != output_checksum({"x": 2})

    def test_non_numeric_output_rejected(self):
        with pytest.raises(TypeError):
            output_checksum(object())


# -- verdicts ----------------------------------------------------------------


def result(name, output=1, claims=None, error=None):
    return BenchResult(name=name,
                       output_sha256=None if error else output_checksum(output),
                       claims=claims or {}, error=error)


class TestCompare:
    def test_matching_pin_is_ok(self):
        verdict = verdict_for(result("a"), {"a": output_checksum(1)})
        assert verdict.pin == "ok" and not verdict.failed

    def test_output_drift_fails(self):
        verdict = verdict_for(result("a", output=2),
                              {"a": output_checksum(1)})
        assert verdict.pin == "drift" and verdict.failed

    def test_failed_claim_fails_a_matching_pin(self):
        verdict = verdict_for(result("a", claims={"ok": True, "bad": False}),
                              {"a": output_checksum(1)})
        assert verdict.pin == "ok" and verdict.failed
        assert verdict.failed_claims == ("bad",)
        assert "claims 1/2" in verdict.line()
        assert "bad" in verdict.line()

    def test_error_result_fails(self):
        verdict = verdict_for(result("a", error="Traceback\nOSError: x\n"),
                              {"a": output_checksum(1)})
        assert verdict.pin == "error" and verdict.failed
        assert verdict.detail == "OSError: x"

    def test_unknown_bench_is_new_not_failure(self):
        verdict = verdict_for(result("fresh"), {})
        assert verdict.pin == "unpinned" and not verdict.failed
        assert verdict_for(result("fresh"), {}, strict=True).failed

    def test_missing_only_checked_when_asked(self):
        pins = {"a": output_checksum(1), "gone": output_checksum(1)}
        assert [v.name for v in compare_results([result("a")], pins)] == ["a"]
        verdicts = compare_results([result("a")], pins, strict=True)
        assert [(v.name, v.pin, v.failed) for v in verdicts] == [
            ("a", "ok", False), ("gone", "missing", True)]

    def test_update_baseline_merges_and_skips_failures(self, tmp_path):
        path = write_pins(tmp_path, {"kept": "k" * 64, "a": "old"})
        pins = update_baseline(
            [result("a", output=7), result("b", error="boom")], path)
        assert pins == {"a": output_checksum(7), "kept": "k" * 64}
        assert json.loads(path.read_text()) == pins


# -- CLI ---------------------------------------------------------------------


class TestCli:
    def run_cli(self, bench_dir, *argv):
        return main(["bench", "--scale", "tiny",
                     "--bench-dir", str(bench_dir), *argv])

    def test_list_prints_names(self, bench_dir, capsys):
        write_bench(bench_dir, "one", CLEAN)
        assert self.run_cli(bench_dir, "--list") == 0
        assert capsys.readouterr().out.strip() == "one"

    def test_no_match_exits_2(self, bench_dir):
        write_bench(bench_dir, "one", CLEAN)
        assert self.run_cli(bench_dir, "--filter", "nothing") == 2

    def test_missing_baseline_exits_2(self, bench_dir, capsys):
        write_bench(bench_dir, "one", CLEAN)
        assert self.run_cli(bench_dir) == 2
        assert "--update-baseline" in capsys.readouterr().err

    def test_clean_tree_exits_0(self, bench_dir, capsys):
        write_bench(bench_dir, "clean", CLEAN)
        write_pins(bench_dir, {"clean": output_checksum({"total": 123})})
        assert self.run_cli(bench_dir) == 0
        out = capsys.readouterr().out
        assert "clean" in out and "pin ok" in out and "claims 1/1" in out
        # the telemetry summary closes every run
        assert "runtime telemetry" in out

    def test_output_drift_exits_1(self, bench_dir, capsys):
        write_bench(bench_dir, "golden", CLEAN)
        write_pins(bench_dir, {"golden": output_checksum({"total": 124})})
        assert self.run_cli(bench_dir) == 1
        captured = capsys.readouterr()
        assert "pin drift" in captured.out
        assert "FAILED: golden" in captured.err

    def test_failed_claim_exits_1_and_is_named(self, bench_dir, capsys):
        write_bench(bench_dir, "shape", """
            def run(ctx):
                return {"two": 0.76, "five": 0.79}

            def claims(result):
                return {"Table 9: 2-class >= 5-class":
                        result["two"] >= result["five"]}
        """)
        write_pins(bench_dir,
                   {"shape": output_checksum({"two": 0.76, "five": 0.79})})
        assert self.run_cli(bench_dir) == 1
        out = capsys.readouterr().out
        assert "pin ok" in out and "claims 0/1" in out
        assert "Table 9: 2-class >= 5-class" in out

    def test_failing_bench_exits_1_without_baseline(self, bench_dir, capsys):
        write_bench(bench_dir, "boom", """
            def run(ctx):
                raise RuntimeError("no")

            def claims(result):
                return {}
        """)
        write_pins(bench_dir, {})
        assert self.run_cli(bench_dir, "--filter", "boom") == 1
        assert "RuntimeError" in capsys.readouterr().err

    def test_unpinned_bench_fails_only_unfiltered_runs(self, bench_dir):
        write_bench(bench_dir, "kept", CLEAN)
        write_bench(bench_dir, "newcomer", CLEAN)
        write_pins(bench_dir, {"kept": output_checksum({"total": 123})})
        assert self.run_cli(bench_dir) == 1
        assert self.run_cli(bench_dir, "--filter", "kept") == 0
        assert self.run_cli(bench_dir, "--filter", "newcomer") == 0

    def test_update_baseline_writes_only_hashes(self, bench_dir, capsys):
        write_bench(bench_dir, "alpha", CLEAN)
        write_bench(bench_dir, "beta", """
            def run(ctx):
                return [1, 2]

            def claims(result):
                return {}
        """)
        assert self.run_cli(bench_dir, "--update-baseline") == 0
        assert "baseline updated" in capsys.readouterr().out
        pins = json.loads((bench_dir / "baseline.json").read_text())
        assert pins == {"alpha": output_checksum({"total": 123}),
                        "beta": output_checksum([1, 2])}
        assert self.run_cli(bench_dir) == 0
