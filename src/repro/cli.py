"""Command-line interface: ``mpa <command>``.

Commands:

* ``mpa synthesize --scale small`` — build + cache the corpus/dataset,
* ``mpa extend --months 1`` — append synthetic months and rebuild the
  table incrementally (stage-cache hits for untouched units), then
  evaluate the rolling prediction on the new months,
* ``mpa summary`` — dataset sizes (Table 2),
* ``mpa quality`` — the run's data-quality report (quarantines/drops),
* ``mpa top`` — top practices by MI (Table 3),
* ``mpa pairs`` — top practice pairs by CMI (Table 4),
* ``mpa causal --treatment n_change_events`` — Tables 5/6 for one practice,
* ``mpa whatif --network N --practice P=v`` — counterfactual what-if:
  the network's matched-control ticket trajectory under the scenario;
  without ``--practice``, ranks candidate root causes for the
  network's detected ticket surge (see :mod:`repro.analysis.causal`),
* ``mpa evaluate --classes 2 --variant dt+ab+os`` — cross-validated model,
* ``mpa online --history 3`` — Table 9-style rolling prediction,
* ``mpa selfcheck`` — statistical self-validation: estimator invariant
  checks plus the planted-truth recovery scorecard; persists
  ``selfcheck.json`` and exits nonzero on any failure or regression,
* ``mpa ingest --state-dir S --events F`` — crash-safe streaming
  ingestion: journal the events file through the WAL, rebuild
  incrementally, checkpoint (initializes the state dir on first use),
* ``mpa resume --state-dir S`` — finish whatever a crashed ingester
  left incomplete (idempotent; safe to run any number of times),
* ``mpa query --columns n_devices --months 0,1,2 --aggregate mean`` —
  typed projections/aggregations straight off the columnar store
  (touches only the projected columns; see :mod:`repro.store`),
* ``mpa serve --port 8177`` — long-lived analytics service: keeps the
  store, dataset, and caches hot and answers every analysis family
  over HTTP/JSON with hash-keyed result caching (see
  :mod:`repro.serve`),
* ``mpa corpus info`` — shard/column/byte accounting of the store,
* ``mpa migrate`` — one-shot conversion of a legacy ``dataset.npz``
  artifact into the sharded columnar store.
"""

from __future__ import annotations

import argparse
import sys

from repro.core.mpa import MPA
from repro.core.prediction import FIVE_CLASS, TWO_CLASS
from repro.core.workspace import Workspace
from repro.reporting.tables import (
    format_causal_table,
    format_class_report,
    format_cmi_table,
    format_invariant_table,
    format_matching_table,
    format_mi_table,
    format_online_table,
    format_scorecard_table,
    format_signtest_table,
)
from repro.util.tables import render_kv


def _add_scale(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", default=None,
                        help="tiny/small/medium/paper (default: MPA_SCALE "
                             "env var or 'small')")


def _scheme(n: int):
    if n == 2:
        return TWO_CLASS
    if n == 5:
        return FIVE_CLASS
    raise SystemExit("--classes must be 2 or 5")


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="mpa", description="Management Plane Analytics (IMC'15 repro)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synthesize", help="build and cache the corpus")
    _add_scale(p)
    p.add_argument("--max-bad-fraction", type=float, default=None,
                   help="hard-fail when more than this fraction of any "
                        "input dimension is quarantined (default: "
                        "MPA_MAX_BAD_FRACTION env var or 0.25)")

    p = sub.add_parser("extend",
                       help="append months and rebuild incrementally")
    _add_scale(p)
    p.add_argument("--months", type=int, default=1,
                   help="months of history to append (default 1)")
    p.add_argument("--history", type=int, default=3,
                   help="training window for the rolling prediction "
                        "over the new months (default 3)")
    p.add_argument("--classes", type=int, default=2)

    p = sub.add_parser("summary", help="dataset sizes (Table 2)")
    _add_scale(p)

    p = sub.add_parser("quality",
                       help="data-quality report of the cached run")
    _add_scale(p)
    p.add_argument("--limit", type=int, default=20,
                   help="max quarantined items to list (default 20)")
    p.add_argument("--json", action="store_true",
                   help="machine-readable report (includes the "
                        "dead-letter ledger with --state-dir)")
    p.add_argument("--state-dir", default=None,
                   help="read the quality report of a streaming-"
                        "ingestion state dir instead of the workspace")

    p = sub.add_parser("ingest",
                       help="journal + apply snapshot-arrival events "
                            "(crash-safe streaming ingestion)")
    _add_scale(p)
    p.add_argument("--state-dir", required=True,
                   help="ingestion state directory (initialized on "
                        "first use with a corpus at --scale)")
    p.add_argument("--events", required=True,
                   help="JSONL file of arrival events (device_id, "
                        "network_id, timestamp, login, modality, "
                        "config_text per line)")
    p.add_argument("--batch-size", type=int, default=None,
                   help="events per journal/rebuild/checkpoint batch")

    p = sub.add_parser("resume",
                       help="recover a streaming-ingestion state dir "
                            "after a crash (idempotent)")
    _add_scale(p)
    p.add_argument("--state-dir", required=True)

    p = sub.add_parser("query",
                       help="filter/project/aggregate over the columnar "
                            "store without materializing the table")
    _add_scale(p)
    p.add_argument("--columns", default=None,
                   help="comma-separated column names to project "
                        "(metric names plus month_index/tickets)")
    p.add_argument("--networks", default=None,
                   help="comma-separated network ids to keep")
    p.add_argument("--months", default=None,
                   help="comma-separated month indices to keep")
    p.add_argument("--aggregate", default=None,
                   choices=("mean", "sum", "min", "max", "count"),
                   help="reduce the projection instead of listing rows")
    p.add_argument("--by", default=None, choices=("network", "month"),
                   help="group the aggregate")
    p.add_argument("--count", action="store_true",
                   help="print the scoped row count only")
    p.add_argument("--limit", type=int, default=20,
                   help="max rows to list without --aggregate "
                        "(default 20)")

    p = sub.add_parser("serve",
                       help="long-lived analytics service: keep the "
                            "store + caches hot and answer queries "
                            "over HTTP/JSON")
    _add_scale(p)
    p.add_argument("--host", default=None,
                   help="bind address (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=None,
                   help="TCP port; 0 picks a free ephemeral port "
                        "(default 8177)")
    p.add_argument("--workers", type=int, default=None,
                   help="max in-flight request handlers (default 8)")
    p.add_argument("--cache-size", type=int, default=None,
                   help="max cached endpoint results (default 256; "
                        "0 disables the result cache)")
    p.add_argument("--memo-size", type=int, default=None,
                   help="resize the process-wide content memos for "
                        "long-lived serving (default: leave the "
                        "MPA_CONTENT_MEMO-derived capacity)")
    p.add_argument("--verbose", action="store_true",
                   help="log each request line to stderr")

    p = sub.add_parser("corpus",
                       help="inspect the columnar corpus store")
    p.add_argument("action", choices=("info",),
                   help="info: shard/column/byte accounting")
    _add_scale(p)
    p.add_argument("--state-dir", default=None,
                   help="inspect a streaming state dir's store instead "
                        "of the workspace's")

    p = sub.add_parser("migrate",
                       help="convert a legacy dataset.npz into the "
                            "sharded columnar store (one-shot)")
    _add_scale(p)
    p.add_argument("--input", default=None,
                   help="legacy .npz artifact (default: the "
                        "workspace's dataset.npz)")
    p.add_argument("--output", default=None,
                   help="store directory to write (default: "
                        "dataset.mpstore next to the input)")
    p.add_argument("--delete-legacy", action="store_true",
                   help="remove the .npz + sidecar after a verified "
                        "conversion")

    p = sub.add_parser("top", help="top practices by MI (Table 3)")
    _add_scale(p)
    p.add_argument("-k", type=int, default=10)

    p = sub.add_parser("pairs", help="top practice pairs by CMI (Table 4)")
    _add_scale(p)
    p.add_argument("-k", type=int, default=10)

    p = sub.add_parser("causal", help="QED causal analysis (Tables 5/6)")
    _add_scale(p)
    p.add_argument("--treatment", required=True)

    p = sub.add_parser("whatif",
                       help="counterfactual what-if / root-cause "
                            "attribution for one network")
    _add_scale(p)
    p.add_argument("--network", required=True,
                   help="network id, or 'worst' to auto-pick the most "
                        "ticketed network")
    p.add_argument("--practice", default=None,
                   help="practice name for the low-reference scenario, "
                        "or NAME=VALUE for an explicit one; omit to "
                        "rank all candidate causes for the surge")
    p.add_argument("--months", default=None,
                   help="comma-separated month indices (default: all "
                        "months for --practice, the auto-detected "
                        "surge window for attribution)")
    p.add_argument("--k", type=int, default=None,
                   help="counterfactual donors matched per case "
                        "(default 5)")
    p.add_argument("--caliper-sd", type=float, default=None,
                   help="propensity caliper in pooled-SD units "
                        "(default: no caliper)")
    p.add_argument("--alpha", type=float, default=None,
                   help="attribution significance bar (default 1e-3)")
    p.add_argument("--limit", type=int, default=12,
                   help="max ranked causes to list (default 12)")

    p = sub.add_parser("evaluate", help="cross-validated model (Section 6.1)")
    _add_scale(p)
    p.add_argument("--classes", type=int, default=2)
    p.add_argument("--variant", default="dt")

    p = sub.add_parser("online", help="rolling prediction (Table 9)")
    _add_scale(p)
    p.add_argument("--history", type=int, default=3)
    p.add_argument("--classes", type=int, default=2)

    p = sub.add_parser("report", help="full organization report (markdown)")
    _add_scale(p)
    p.add_argument("--output", default="-",
                   help="file path, or - for stdout (default)")

    p = sub.add_parser("drift", help="flag practice drift per network")
    _add_scale(p)
    p.add_argument("--threshold", type=float, default=3.5,
                   help="robust z-score cut (default 3.5)")
    p.add_argument("--limit", type=int, default=20)

    p = sub.add_parser("gaps",
                       help="operator opinion vs measured impact")
    _add_scale(p)
    p.add_argument("--skip-qed", action="store_true",
                   help="skip causal verdicts (faster)")

    p = sub.add_parser("export", help="export the metric table as CSV")
    _add_scale(p)
    p.add_argument("--output", required=True, help="CSV file path")

    p = sub.add_parser("bench",
                       help="run every paper benchmark once and check its "
                            "output pin and its paper claims")
    _add_scale(p)
    p.add_argument("--filter", action="append", dest="filters",
                   metavar="SUBSTR",
                   help="only benches whose name contains SUBSTR "
                        "(repeatable; default: all)")
    p.add_argument("--update-baseline", action="store_true",
                   help="record this run's output hashes as the pins in "
                        "the bench dir's baseline.json")
    p.add_argument("--bench-dir", default=None,
                   help="directory holding bench_*.py and baseline.json "
                        "(default: the repo's benchmarks/)")
    p.add_argument("--list", action="store_true",
                   help="list discovered benchmarks and exit")

    p = sub.add_parser("selfcheck",
                       help="statistical self-validation (invariants + "
                            "planted-truth scorecard)")
    _add_scale(p)
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the invariant checks' random draws "
                        "(default 0)")
    p.add_argument("--invariants-only", action="store_true",
                   help="skip the corpus-backed scorecard (fast)")
    p.add_argument("--output", default=None,
                   help="where to write selfcheck.json (default: the "
                        "workspace root)")

    args = parser.parse_args(argv)
    workspace = Workspace.default(args.scale)

    if args.command == "synthesize":
        import os
        if args.max_bad_fraction is not None:
            # the threshold flows to the build through the environment,
            # so the cached path and the build path agree on it
            os.environ["MPA_MAX_BAD_FRACTION"] = str(args.max_bad_fraction)
        workspace.ensure()
        print(f"workspace ready under {workspace.root}")
        print(workspace.quality().summary())
        return 0
    if args.command == "extend":
        from repro.core.online import predict_extension
        from repro.runtime.telemetry import TELEMETRY
        extended = workspace.extended(args.months)
        extended.ensure()
        print(f"extended workspace ready under {extended.root} "
              f"(+{args.months} month(s), "
              f"{extended.spec.n_months} total)")
        print(TELEMETRY.summary())
        scheme = _scheme(args.classes)
        result = predict_extension(extended.dataset(), args.months,
                                   history_months=args.history,
                                   scheme=scheme)
        print(format_online_table([result], [scheme.name]))
        return 0
    if args.command == "summary":
        print(render_kv(sorted(workspace.summary().items()),
                        title="Dataset summary (Table 2)"))
        return 0
    if args.command == "quality":
        import json
        from pathlib import Path
        if args.state_dir:
            # the streaming ingester's quality.json already embeds the
            # dead-letter ledger; report it verbatim
            quality_path = Path(args.state_dir) / "quality.json"
            if not quality_path.exists():
                print(f"no quality report under {args.state_dir} "
                      "(run mpa ingest first)", file=sys.stderr)
                return 2
            doc = json.loads(quality_path.read_text())
            if args.json:
                print(json.dumps(doc, indent=2, sort_keys=True))
                return 0
            from repro.metrics.quality import DataQualityReport
            ledger = doc.pop("dead_letters", [])
            report = DataQualityReport.from_dict(doc)
            print(report.summary())
            for entry in ledger[:args.limit]:
                print(f"  dead-letter seq {entry.get('seqno')}: "
                      f"{entry.get('reason')} "
                      f"({entry.get('device_id') or 'unattributed'})")
            if len(ledger) > args.limit:
                print(f"  ... and {len(ledger) - args.limit} more")
            return 0
        report = workspace.quality()
        if args.json:
            print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
            return 0
        print(report.summary())
        issues = report.all_issues()
        for issue in issues[:args.limit]:
            print(f"  - {issue}")
        if len(issues) > args.limit:
            print(f"  ... and {len(issues) - args.limit} more")
        return 0
    if args.command == "query":
        from repro.errors import CorpusError
        from repro.util.tables import render_table
        try:
            store = workspace.store()
            q = store.query()
            if args.networks:
                q = q.where(networks=[n.strip()
                                      for n in args.networks.split(",")
                                      if n.strip()])
            if args.months:
                q = q.where(months=[int(m)
                                    for m in args.months.split(",")
                                    if m.strip()])
            columns = ([c.strip() for c in args.columns.split(",")
                        if c.strip()] if args.columns else [])
            if columns:
                q = q.project(*columns)
            if args.count or (args.aggregate == "count" and not columns):
                print(q.count())
                return 0
            if args.aggregate:
                if len(columns) != 1:
                    print("--aggregate needs exactly one --columns entry",
                          file=sys.stderr)
                    return 2
                result = q.aggregate(args.aggregate, columns[0], by=args.by)
                if args.by is None:
                    print(result)
                else:
                    print(render_table(
                        [args.by, args.aggregate],
                        [[key, value] for key, value in result],
                        title=f"{args.aggregate}({columns[0]}) "
                              f"by {args.by}",
                    ))
                return 0
            if not columns:
                print("query needs --columns (or --count/--aggregate)",
                      file=sys.stderr)
                return 2
            table = q.table()
            total = len(table["network"])
            rows = [[table["network"][i]]
                    + [table[name][i] for name in columns]
                    for i in range(min(total, args.limit))]
            print(render_table(["network"] + columns, rows,
                               title=f"{total} row(s)"))
            if total > args.limit:
                print(f"... and {total - args.limit} more "
                      "(raise --limit)")
        except (ValueError, CorpusError) as exc:
            print(f"query failed: {exc}", file=sys.stderr)
            return 2
        return 0
    if args.command == "serve":
        from repro.errors import CorpusError
        from repro.reporting.tables import format_serve_table
        from repro.serve import (
            DEFAULT_CACHE_SIZE,
            DEFAULT_HOST,
            DEFAULT_PORT,
            DEFAULT_WORKERS,
            AnalyticsState,
            create_server,
            serve_forever,
            tune_memos,
        )
        try:
            store = workspace.store()  # builds on miss; typed on legacy
        except CorpusError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        if args.memo_size is not None:
            tune_memos(args.memo_size)
        state = AnalyticsState.for_workspace(workspace)
        server = create_server(
            state,
            host=args.host if args.host is not None else DEFAULT_HOST,
            port=args.port if args.port is not None else DEFAULT_PORT,
            cache_size=(args.cache_size if args.cache_size is not None
                        else DEFAULT_CACHE_SIZE),
            workers=(args.workers if args.workers is not None
                     else DEFAULT_WORKERS),
            quiet=not args.verbose,
        )
        host, port = server.server_address[:2]
        print(f"mpa serve: listening on http://{host}:{port} "
              f"(store digest {store.digest()[:16]}..., "
              f"{len(store.networks)} networks x {store.n_rows} rows)",
              flush=True)
        print("endpoints: /query /top /pairs /causal /whatif /predict "
              "/quality /healthz /statsz — SIGTERM or Ctrl-C for a "
              "clean stop",
              flush=True)
        serve_forever(server)
        print()
        print(format_serve_table(server.stats()))
        return 0
    if args.command == "corpus":
        from pathlib import Path

        from repro.errors import CorpusError
        from repro.reporting.tables import format_store_table
        from repro.store import CorpusStore, is_store
        if args.state_dir:
            root = Path(args.state_dir) / "dataset.mpstore"
            if not is_store(root):
                print(f"no columnar store at {root} (run mpa ingest, "
                      "or mpa migrate for a legacy artifact)",
                      file=sys.stderr)
                return 2
            store = CorpusStore.open(root)
        else:
            try:
                store = workspace.store()
            except CorpusError as exc:
                print(str(exc), file=sys.stderr)
                return 2
        print(format_store_table(store.info()))
        return 0
    if args.command == "migrate":
        from pathlib import Path

        from repro.errors import CorpusError
        from repro.metrics.dataset import MetricDataset
        from repro.stream.checkpoint import dataset_digest
        input_path = (Path(args.input) if args.input
                      else workspace.legacy_dataset_path)
        output_path = (Path(args.output) if args.output
                       else input_path.with_name("dataset.mpstore"))
        try:
            dataset = MetricDataset.load(input_path)
        except CorpusError as exc:
            print(f"cannot migrate: {exc}", file=sys.stderr)
            return 2
        before = dataset_digest(dataset)
        dataset.save(output_path)
        after = dataset_digest(MetricDataset.load(output_path))
        if before != after:
            print(f"migration verification FAILED: digest {before[:16]} "
                  f"became {after[:16]} — the store at {output_path} "
                  "does not reproduce the legacy table", file=sys.stderr)
            return 1
        print(f"migrated {input_path} -> {output_path}")
        print(f"dataset digest {before[:16]}... verified identical")
        if args.delete_legacy:
            input_path.unlink(missing_ok=True)
            input_path.with_suffix(".json").unlink(missing_ok=True)
            print(f"legacy artifact {input_path} removed")
        return 0
    if args.command in ("ingest", "resume"):
        from pathlib import Path

        from repro.reporting.tables import format_fault_table
        from repro.runtime.telemetry import TELEMETRY
        from repro.stream import StreamIngester, read_events_file
        state_dir = Path(args.state_dir)
        if args.command == "ingest" and not (state_dir / "corpus").is_dir():
            from repro.synthesis.organization import synthesize
            print(f"initializing {state_dir} with a fresh "
                  f"{workspace.scale} corpus (seed {workspace.seed})...")
            corpus = synthesize(workspace.scale, seed=workspace.seed)
            StreamIngester.create(state_dir, corpus)
        kwargs = {}
        if getattr(args, "batch_size", None):
            kwargs["batch_size"] = args.batch_size
        ingester = StreamIngester(state_dir, **kwargs)
        if ingester.wal.recovery.repaired:
            info = ingester.wal.recovery
            print(f"journal repaired: truncated {info.truncated_bytes} "
                  f"torn tail byte(s)"
                  + (f", dropped {info.dropped_segment}"
                     if info.dropped_segment else ""))
        if args.command == "ingest":
            payloads = [payload for _, payload
                        in read_events_file(args.events)]
            result = ingester.ingest(payloads)
        else:
            result = ingester.resume()
        print(render_kv([
            ("journaled", result.journaled),
            ("applied", result.applied),
            ("duplicates skipped", result.duplicates),
            ("dead letters (total)", result.dead_letters),
            ("batches checkpointed", result.batches),
            ("applied seqno", result.applied_seqno),
            ("dirty networks", len(result.dirty_networks)),
            ("dataset digest", result.dataset_digest[:16] + "..."
             if result.dataset_digest else "-"),
        ], title=f"{args.command}: {state_dir}"))
        print(format_fault_table(TELEMETRY.faults()))
        return 0
    if args.command == "bench":
        import os
        from pathlib import Path

        from repro.bench import (
            BenchContext,
            compare_results,
            discover,
            load_pins,
            run_suite,
            update_baseline,
        )
        from repro.bench.compare import verdict_for
        from repro.bench.discover import default_bench_dir
        from repro.runtime.telemetry import TELEMETRY
        bench_dir = Path(args.bench_dir or default_bench_dir())
        specs = discover(bench_dir, filters=args.filters)
        if args.list:
            for spec in specs:
                print(spec.name)
            return 0
        if not specs:
            print("no benchmarks matched the filter", file=sys.stderr)
            return 2
        baseline_path = bench_dir / "baseline.json"
        if not baseline_path.exists() and not args.update_baseline:
            print(f"baseline {baseline_path} does not exist "
                  "(record one with --update-baseline)", file=sys.stderr)
            return 2
        pins = load_pins(baseline_path) if baseline_path.exists() else {}
        strict = not args.filters

        with BenchContext(args.scale) as ctx:
            print(f"running {len(specs)} benchmark(s) at scale "
                  f"{ctx.scale}")
            results = run_suite(
                specs, ctx=ctx,
                progress=lambda result: print(
                    verdict_for(result, pins, strict).line(), flush=True),
            )
        if args.update_baseline:
            # the lines above showed what changed against the old pins;
            # the exit code judges the run against the recorded ones
            pins = update_baseline(results, baseline_path)
            print(f"baseline updated: {baseline_path} ({len(pins)} pins)")
        verdicts = compare_results(results, pins, strict=strict)
        for verdict in verdicts[len(results):]:
            print(verdict.line())
        print()
        print(TELEMETRY.summary())
        telemetry_path = os.environ.get("MPA_TELEMETRY")
        if telemetry_path:
            TELEMETRY.dump_json(telemetry_path)
        for result in results:
            if result.error:
                print(f"\nbench {result.name} failed:\n{result.error}",
                      file=sys.stderr)
        failed = [v.name for v in verdicts if v.failed]
        if failed:
            print(f"FAILED: {', '.join(failed)}", file=sys.stderr)
        return 1 if failed else 0
    if args.command == "whatif":
        from repro.analysis.causal import (
            ALPHA_ATTRIBUTION,
            DEFAULT_K_DONORS,
            estimate_whatif,
            pick_worst_network,
            rank_causes,
        )
        from repro.errors import InsufficientDataError
        from repro.reporting.tables import (
            format_attribution_table,
            format_whatif_table,
        )
        dataset = workspace.dataset()
        months = ([int(m) for m in args.months.split(",") if m.strip()]
                  if args.months else None)
        network = args.network
        if network == "worst":
            network = pick_worst_network(dataset)
            print(f"auto-picked network {network} (most total tickets)")
        k = args.k if args.k is not None else DEFAULT_K_DONORS
        alpha = args.alpha if args.alpha is not None else ALPHA_ATTRIBUTION
        try:
            if args.practice:
                name, _, raw = args.practice.partition("=")
                value = float(raw) if raw else None
                result = estimate_whatif(
                    dataset, network, name.strip(), value=value,
                    months=months, k=k, caliper_sd=args.caliper_sd,
                )
                print(format_whatif_table(result))
            else:
                report = rank_causes(
                    dataset, network, months=months, alpha=alpha,
                    k=k, caliper_sd=args.caliper_sd,
                )
                print(format_attribution_table(report, limit=args.limit))
        except (KeyError, InsufficientDataError, ValueError) as exc:
            msg = exc.args[0] if exc.args else str(exc)
            print(f"whatif failed: {msg}", file=sys.stderr)
            return 2
        return 0
    if args.command == "selfcheck":
        import json
        from pathlib import Path

        from repro.analysis.selfcheck import SelfCheckReport, run_selfcheck
        from repro.reporting.tables import (
            format_counterfactual_scorecard_table,
        )
        from repro.util.ioutils import atomic_write_text
        dataset = None if args.invariants_only else workspace.dataset()
        report = run_selfcheck(dataset, seed=args.seed)
        print(format_invariant_table(report.invariants))
        if report.scorecard is not None:
            print()
            print(format_scorecard_table(report.scorecard))
        if report.counterfactual is not None:
            print()
            print(format_counterfactual_scorecard_table(report.counterfactual))
        out_path = (Path(args.output) if args.output
                    else workspace.selfcheck_path)
        # the previously persisted report is the regression baseline;
        # an unreadable or missing one degrades to "no baseline" (current
        # failures are still fatal on their own)
        baseline = SelfCheckReport(seed=report.seed, invariants=(),
                                   scorecard=None)
        if out_path.exists():
            try:
                baseline = SelfCheckReport.from_dict(
                    json.loads(out_path.read_text())
                )
            except (OSError, ValueError, KeyError, TypeError):
                pass
        problems = report.regressions_from(baseline)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_text(out_path,
                          json.dumps(report.to_dict(), indent=2) + "\n")
        print(f"\nselfcheck report written to {out_path}")
        if problems:
            for problem in problems:
                print(f"REGRESSION: {problem}", file=sys.stderr)
            return 1
        print("selfcheck passed")
        return 0

    mpa = MPA(workspace.dataset())
    if args.command == "top":
        print(format_mi_table(mpa.top_practices(args.k)))
    elif args.command == "pairs":
        print(format_cmi_table(mpa.dependent_pairs(args.k)))
    elif args.command == "causal":
        experiment = mpa.causal_analysis(args.treatment)
        print(format_matching_table(
            experiment, title=f"Matching for {args.treatment}"
        ))
        print()
        print(format_signtest_table(
            experiment, title=f"Sign test for {args.treatment}"
        ))
        print()
        print(format_causal_table([experiment],
                                  points=("1:2", "2:3", "3:4", "4:5"),
                                  title="All comparison points"))
    elif args.command == "evaluate":
        scheme = _scheme(args.classes)
        report = mpa.evaluate(scheme=scheme, variant=args.variant)
        print(format_class_report(
            report, scheme.labels,
            title=f"{scheme.name} {args.variant}",
        ))
    elif args.command == "online":
        scheme = _scheme(args.classes)
        result = mpa.predict_future(args.history, scheme=scheme)
        print(format_online_table([result], [scheme.name]))
    elif args.command == "report":
        from repro.reporting.report import generate_report
        text = generate_report(workspace)
        if args.output == "-":
            print(text)
        else:
            from pathlib import Path
            Path(args.output).write_text(text)
            print(f"report written to {args.output}")
    elif args.command == "drift":
        from repro.core.drift import detect_drift, summarize_drift
        findings = detect_drift(mpa.dataset, threshold=args.threshold)
        summary = summarize_drift(findings)
        print(f"{summary.n_findings} drift findings across "
              f"{summary.n_networks_affected} networks")
        from repro.util.tables import render_table
        rows = [
            [f.network_id, f.month_index, f.metric, f"{f.value:.1f}",
             f"{f.baseline_median:.1f}", f"{f.robust_z:+.1f}"]
            for f in findings[:args.limit]
        ]
        if rows:
            print(render_table(
                ["network", "month", "metric", "value", "baseline",
                 "robust z"], rows,
            ))
    elif args.command == "export":
        from repro.metrics.export import write_csv
        write_csv(mpa.dataset, args.output)
        print(f"{mpa.dataset.n_cases} cases written to {args.output}")
    elif args.command == "gaps":
        from repro.analysis.opinion_gap import opinion_gaps
        from repro.synthesis.survey import synthesize_survey
        from repro.util.tables import render_table
        gaps = opinion_gaps(mpa.dataset, synthesize_survey(seed=7),
                            run_qed=not args.skip_qed)
        rows = [
            [g.practice, f"{g.mean_opinion:.2f}",
             f"{g.mi_rank}/{g.n_metrics}", g.causal_verdict,
             "MISJUDGED" if g.misjudged else ""]
            for g in sorted(gaps, key=lambda g: g.mi_rank)
        ]
        print(render_table(
            ["survey practice", "opinion (0-3)", "MI rank", "QED (1:2)",
             "gap"], rows,
            title="Operator opinion vs measured impact",
        ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
