"""``python -m perf run``: run workloads, check outputs, report metrics.

    python -m perf run [--workload W] [--seed S] [--seconds N]
                       [--repeat N] [--trace [0|1]]

Each workload repeats until ``--seconds`` have passed and at least
``--repeat`` repetitions ran. ``--seconds`` is part of the standard
invocation ``--workload W --seed S --seconds N --trace 0|1`` that
benchmark harnesses pass, with N = ``run_seconds`` of ``BENCHMARK.json``
(also the default). End-to-end metrics are medians over the untraced
repetitions. With ``--trace``, traced repetitions alternate with
untraced ones and the per-layer metrics are medians over the traced
ones; ``trace.overhead_pct`` is the median of each traced repetition's
wall time over that of the untraced one just before it. Each workload's
last traced repetition is written as Chrome trace-event JSON.

Every run writes ``perf/results/<run-id>.json`` (metrics, quartiles,
repetitions, outputs, host noise) and prints each metric by name and
unit. The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics, or the
per-layer ones with ``--trace``). Exit status: 0 when every output is
correct, 1 when any check failed, 2 when the program's sources are
missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

from perf import spec
from perf.fixtures import ROOT, SRC, FixtureSet, source_digest
from perf.layers import layer_metrics
from perf.stats import summary
from perf.tracing import chrome_trace
from perf.workloads import CONTEXTS, FIXTURE_PARTS, WORKLOADS, Runner

PERF = Path(__file__).resolve().parent
RESULTS = PERF / "results"
WORK = PERF / ".work"
GOLDENS = PERF / "goldens.json"
#: set-up samples per workload run; set-up probes make up any shortfall
SETUP_SAMPLES = 3

#: workload-specific metrics kept in the results file, with units
WORKLOAD_METRICS = {
    "build_s": "s", "extend_s": "s", "ingest_s": "s",
    "ingest_events_per_s": "1/s", "resume_s": "s", "analyze_s": "s",
    "serve_p50_ms": "ms", "serve_p99_ms": "ms", "serve_p99_beyond": "count",
    "serve_samples": "count", "serve_qps": "1/s",
    "serve_cache_hit_ratio": "ratio", "serve_hit_latency_ms": "ms",
    "serve_miss_latency_ms": "ms", "distinct_requests": "count",
}

#: output -> fixture digest it must equal, for any seed
EXPECTED = {
    "build-cold": {"dataset_digest": "base_dataset_digest"},
    "refresh-month": {"extend_digest": "plus1_dataset_digest",
                      "ingest_digest": "ingest_digest",
                      "resume_digest": "uninterrupted_digest"},
}


def host_info(digest: str) -> dict:
    import numpy
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "source_digest": digest}


def _loadavg(where: str) -> float:
    load = os.getloadavg()[0]
    if where == "start" and load > (os.cpu_count() or 1):
        print(f"warning: 1-minute loadavg {load:.2f} exceeds nproc "
              f"{os.cpu_count()}; timings will be noisy", file=sys.stderr)
    return load


def _median_metrics(rows: list[dict]) -> dict[str, float]:
    keys = sorted({key for row in rows for key in row})
    return {key: statistics.median(row[key] for row in rows if key in row)
            for key in keys}


def _check(name: str, seed: int, reps: list, expected: dict,
           goldens: dict) -> list[str]:
    """Output mismatches: across repetitions, against fixtures, goldens."""
    problems = []
    outputs = reps[0].outputs
    for key in sorted({key for rep in reps for key in rep.outputs}):
        values = {json.dumps(rep.outputs.get(key), sort_keys=True)
                  for rep in reps}
        if len(values) > 1:
            problems.append(f"{key} differs between repetitions")
    for key, reference in EXPECTED.get(name, {}).items():
        if key in outputs and outputs[key] != expected.get(reference):
            problems.append(f"{key} != fixture {reference}")
    for key, value in goldens.get(str(seed), {}).get(name, {}).items():
        if outputs.get(key) != value:
            problems.append(f"{key} != golden for seed {seed}")
    return problems


def run_workload(name: str, seed: int, seconds: float, min_reps: int,
                 trace: bool, digest: str, run_dir: Path,
                 goldens: dict) -> dict:
    fixture = FixtureSet(seed, digest)
    started = time.monotonic()
    fixture.ensure(*FIXTURE_PARTS[name])
    context = CONTEXTS[name](fixture) if name in CONTEXTS else {}
    fixture_s = time.monotonic() - started

    def repetition(index: int, *, traced: bool = False, probe: bool = False):
        work = WORK / f"{os.getpid()}-{name}-{index}"
        work.mkdir(parents=True)
        try:
            return WORKLOADS[name](Runner(fixture, work, traced=traced,
                                          probe=probe), context)
        finally:
            shutil.rmtree(work, ignore_errors=True)

    load_start = _loadavg("start")
    plain, traced, probes = [], [], []
    deadline = time.monotonic() + seconds
    while True:
        is_traced = trace and len(plain) > len(traced)
        rep = repetition(len(plain) + len(traced), traced=is_traced)
        (traced if is_traced else plain).append(rep)
        if (len(plain) >= min_reps and (traced or not trace)
                and time.monotonic() >= deadline):
            break
    while len(plain) + len(probes) < SETUP_SAMPLES:
        probes.append(repetition(len(plain) + len(traced) + len(probes),
                                 probe=True))
    load_end = _loadavg("end")

    reps = plain + traced
    problems = [error for rep in reps + probes for error in rep.errors]
    mismatches = _check(name, seed, reps, fixture.expected(), goldens)
    problems += mismatches
    e2e = {metric: {**summary(getattr(rep, metric) for rep in (
                        plain + probes if metric == "setup_s" else plain)),
                    "unit": unit}
           for metric, (unit, _) in spec.END_TO_END.items()}
    extras = {key: {**summary(rep.extra[key] for rep in plain
                              if key in rep.extra),
                    "unit": WORKLOAD_METRICS[key]}
              for key in WORKLOAD_METRICS
              if any(key in rep.extra for rep in plain)}
    result = {
        "seed": seed, "seconds": seconds, "fixture_s": fixture_s,
        "loadavg": {"start": load_start, "end": load_end},
        "repetitions": len(plain), "traced_repetitions": len(traced),
        "setup_probes": len(probes),
        "end_to_end": e2e, "workload_metrics": extras,
        "correct": not problems,
        "attempted": sum(rep.attempted for rep in reps + probes),
        "failed": sum(rep.failed for rep in reps + probes) + len(mismatches),
        "problems": problems,
        "outputs": plain[0].outputs,
        "runs": [{"traced": index >= len(plain), "wall_s": rep.wall_s,
                  "setup_s": rep.setup_s, "peak_rss_mb": rep.peak_rss_mb,
                  "extra": rep.extra} for index, rep in enumerate(reps)],
    }
    if traced:
        # traced repetition i ran right after untraced repetition i
        pairs = [(rep.wall_s, base.wall_s) for rep, base in zip(traced, plain)
                 if base.wall_s > 0]
        overhead = (100.0 * (statistics.median(t / u for t, u in pairs) - 1.0)
                    if pairs else 0.0)
        result["overhead_pairs"] = len(pairs)
        result["per_layer"] = _median_metrics([
            layer_metrics(rep.traces, rep.wall_s + rep.setup_s, overhead)
            for rep in traced])
        result["missing_layers"] = sorted({
            layer for rep in traced for child in rep.traces
            for layer in child["trace"]["missing"]})
        trace_path = run_dir / f"trace-{name}.json"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        trace_path.write_text(json.dumps(chrome_trace(traced[-1].traces)))
        result["trace_file"] = str(trace_path.relative_to(ROOT))
    return result


def _print_report(name: str, result: dict, units: dict[str, str]) -> None:
    print(f"== {name}: seed {result['seed']}, {result['repetitions']} "
          f"repetition(s), {result['traced_repetitions']} traced ==")
    for metric, s in {**result["end_to_end"],
                      **result["workload_metrics"]}.items():
        print(f"  {metric:<24} {s['median']:>12.4f} {s['unit']:<6} "
              f"q1 {s['q1']:.4f}  q3 {s['q3']:.4f}  n={s['n']}")
    for metric, value in result.get("per_layer", {}).items():
        print(f"  {metric:<48} {value:>14.4f} {units[metric]}")
    verdict = "correct" if result["correct"] else "INCORRECT"
    print(f"  {verdict}: attempted {result['attempted']}, "
          f"failed {result['failed']}")
    for problem in result["problems"]:
        print(f"    - {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perf")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run workloads and report metrics")
    run.add_argument("--workload", choices=spec.WORKLOADS, default=None,
                     help="one workload (default: all four)")
    run.add_argument("--seed", type=int, default=7)
    run.add_argument("--seconds", type=float, default=None,
                     help="measuring time per workload (default: "
                          "run_seconds of BENCHMARK.json)")
    run.add_argument("--repeat", type=int, default=1,
                     help="minimum untraced repetitions per workload")
    run.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                     choices=(0, 1), help="report per-layer metrics")
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"no program sources under {SRC}", file=sys.stderr)
        return 2
    benchmark = spec.load()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))  # the harness imports loadgen and store
    digest = source_digest()
    names = [args.workload] if args.workload else list(spec.WORKLOADS)
    seconds = (benchmark["run_seconds"] if args.seconds is None
               else args.seconds)
    run_id = (time.strftime("%Y%m%dT%H%M%S")
              + f"-{args.workload or 'all'}-seed{args.seed}-{os.getpid()}")
    run_dir = RESULTS / run_id
    goldens = json.loads(GOLDENS.read_text()) if GOLDENS.exists() else {}
    report = {"run_id": run_id, "argv": sys.argv[1:] if argv is None
              else argv, "host": host_info(digest),
              "loadavg_start": os.getloadavg()[0], "workloads": {}}
    for name in names:
        report["workloads"][name] = run_workload(
            name, args.seed, seconds, max(1, args.repeat), bool(args.trace),
            digest, run_dir, goldens)
    report["loadavg_end"] = os.getloadavg()[0]
    RESULTS.mkdir(parents=True, exist_ok=True)
    (RESULTS / f"{run_id}.json").write_text(json.dumps(report, indent=1))

    declared = benchmark["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    metrics = {}
    for name, result in report["workloads"].items():
        _print_report(name, result, units)
        values = (result["per_layer"] if args.trace else
                  {m: s["median"] for m, s in result["end_to_end"].items()})
        prefix = "" if args.workload else f"{name}."
        metrics.update({prefix + metric: {"value": values[metric],
                                          "unit": units[metric]}
                        for metric in units})
    print(f"results: {(RESULTS / f'{run_id}.json').relative_to(ROOT)}")
    correct = all(r["correct"] for r in report["workloads"].values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in report["workloads"].values()),
        "failed": sum(r["failed"] for r in report["workloads"].values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1
