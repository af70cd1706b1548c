"""Paper-style table formatting for analysis results."""

from __future__ import annotations

from collections.abc import Sequence

from repro.analysis.causal import AttributionReport, WhatIfResult
from repro.analysis.dependence import DependenceResult, PairDependenceResult
from repro.analysis.qed.experiment import CausalExperiment, ComparisonResult
from repro.analysis.selfcheck.invariants import InvariantResult
from repro.analysis.selfcheck.scorecard import CounterfactualScorecard, Scorecard
from repro.core.online import OnlineResult
from repro.metrics.catalog import display_name
from repro.ml.model_eval import EvalReport
from repro.runtime.telemetry import FaultStats
from repro.util.tables import render_table


def format_mi_table(results: Sequence[DependenceResult],
                    title: str = "Table 3: top practices by avg monthly MI",
                    ) -> str:
    """Render a Table 3-style MI ranking."""
    rows = [
        [display_name(r.practice), f"{r.avg_monthly_mi:.3f}"]
        for r in results
    ]
    return render_table(["Management Practice", "Avg. Monthly MI"], rows,
                        title=title)


def format_cmi_table(results: Sequence[PairDependenceResult],
                     title: str = "Table 4: top practice pairs by CMI",
                     ) -> str:
    """Render a Table 4-style CMI pair ranking."""
    rows = [
        [display_name(r.practice_a), display_name(r.practice_b),
         f"{r.cmi:.3f}"]
        for r in results
    ]
    return render_table(["Practice A", "Practice B", "CMI"], rows,
                        title=title)


def format_matching_table(experiment: CausalExperiment,
                          title: str = "Table 5: propensity-score matching",
                          ) -> str:
    """Render a Table 5-style matching summary per comparison point."""
    rows = []
    for r in experiment.results:
        rows.append([
            r.point_label, r.n_untreated, r.n_treated, r.n_pairs,
            r.n_untreated_matched,
            f"{r.balance.propensity.abs_std_diff_of_means:.4f}",
            f"{r.balance.propensity.ratio_of_variances:.4f}",
        ])
    return render_table(
        ["Comp. Point", "Untreated", "Treated", "Pairs", "Untreated Matched",
         "Abs.Std.Diff (prop.)", "Var.Ratio (prop.)"],
        rows, title=title,
    )


def format_signtest_table(experiment: CausalExperiment,
                          title: str = "Table 6: sign-test significance",
                          ) -> str:
    """Render a Table 6-style sign-test summary per comparison point."""
    rows = []
    for r in experiment.results:
        rows.append([
            r.point_label, r.sign.n_fewer_tickets, r.sign.n_no_effect,
            r.sign.n_more_tickets, f"{r.sign.p_value:.2e}",
            "yes" if r.causal else ("imbal." if r.imbalanced else "no"),
        ])
    return render_table(
        ["Comp. Point", "Fewer Tickets", "No Effect", "More Tickets",
         "p-value", "causal?"],
        rows, title=title,
    )


def _cell_for(result: ComparisonResult | None, skipped: bool) -> str:
    if skipped or result is None:
        return "(too few)"
    if result.imbalanced:
        return "Imbal."
    marker = "*" if result.sign.significant else ""
    return f"{result.sign.p_value:.2e}{marker}"


def format_causal_table(experiments: Sequence[CausalExperiment],
                        points: Sequence[str] = ("1:2",),
                        title: str = "Table 7: causal analysis (1:2)",
                        ) -> str:
    rows = []
    for experiment in experiments:
        row: list[object] = [display_name(experiment.practice)]
        for label in points:
            try:
                result = experiment.result_for(label)
                row.append(_cell_for(result, skipped=False))
            except KeyError:
                row.append(_cell_for(None, skipped=True))
        rows.append(row)
    headers = ["Treatment Practice"] + [f"p ({p})" for p in points]
    return render_table(headers, rows, title=title + "  (* = significant)")


def format_online_table(results: Sequence[OnlineResult],
                        scheme_names: Sequence[str],
                        title: str = "Table 9: online prediction accuracy",
                        ) -> str:
    """Rows = history length M, one accuracy column per scheme.

    ``results`` must be ordered M-major: all schemes for the first M,
    then the next M, ...
    """
    n_schemes = len(scheme_names)
    if n_schemes == 0 or len(results) % n_schemes:
        raise ValueError("results must tile the scheme list")
    rows = []
    for i in range(0, len(results), n_schemes):
        chunk = results[i:i + n_schemes]
        rows.append([chunk[0].history_months]
                    + [f"{r.mean_accuracy:.3f}" for r in chunk])
    return render_table(["M (months)"] + list(scheme_names), rows,
                        title=title)


def format_invariant_table(results: Sequence[InvariantResult],
                           title: str = "Estimator invariant checks",
                           ) -> str:
    """Render the metamorphic/invariant half of a selfcheck run."""
    rows = [
        [r.name, r.paper_section, "pass" if r.passed else "FAIL", r.detail]
        for r in results
    ]
    return render_table(["Invariant", "Paper §", "Verdict", "Detail"], rows,
                        title=title)


def format_scorecard_table(card: Scorecard,
                           title: str = "Planted-truth recovery scorecard",
                           ) -> str:
    """Render the recovery/specificity half of a selfcheck run."""
    rows = []
    for p in card.practices:
        if p.planted_sign == "+":
            verdict = "recovered" if p.recovered else "MISSED"
        else:
            verdict = "SPURIOUS" if p.spurious else "null ok"
        rows.append([
            display_name(p.practice), p.planted_sign, p.observed_sign,
            p.evidence, p.pooled_pairs, f"{p.pooled_p:.2e}",
            f"{p.marginal_corr:+.3f}", verdict,
        ])
    header = (f"{title} ({card.n_recovered}/{card.n_planted} recovered, "
              f"{card.n_spurious} spurious, "
              f"{card.n_cases} cases / {card.n_networks} networks)")
    return render_table(
        ["Practice", "Planted", "Observed", "Evidence", "Pairs", "Pooled p",
         "Corr", "Verdict"],
        rows, title=header,
    )


def format_counterfactual_scorecard_table(
        card: CounterfactualScorecard,
        title: str = "Counterfactual attribution scorecard") -> str:
    """Render the counterfactual channel of a selfcheck run."""
    rows = []
    for p in card.practices:
        if p.planted_sign == "+":
            verdict = "attributed" if p.attributed else "MISSED"
        else:
            verdict = "FALSE ALARM" if p.false_alarm else "null ok"
        rows.append([
            display_name(p.practice), p.planted_sign,
            f"{p.effect:+.2f}",
            f"[{p.interval_low:+.2f}, {p.interval_high:+.2f}]",
            p.n_pairs, f"{p.p_value:.2e}", verdict,
        ])
    header = (f"{title} ({card.n_attributed}/{card.n_planted} attributed, "
              f"{card.n_false_alarms} false alarms, "
              f"alpha={card.alpha:g})")
    return render_table(
        ["Practice", "Planted", "Effect", "Pair interval", "Pairs",
         "One-sided p", "Verdict"],
        rows, title=header,
    )


def format_whatif_table(result: WhatIfResult,
                        title: str | None = None) -> str:
    """Render a what-if scenario: the matched counterfactual trajectory.

    One row per target case (month), with the observed tickets, the
    bias-corrected counterfactual, its donor spread, and the excess;
    the header carries the pooled verdict.
    """
    est = result.estimate
    verdict = ("ATTRIBUTED (raises tickets)" if est.attributable()
               else "not attributed")
    header = title or (
        f"What-if: {result.network_id} with "
        f"{display_name(result.practice)} at "
        f"{result.counterfactual_value:g} (observed "
        f"{result.observed_value:g})"
    )
    header += (f" — effect {est.effect:+.2f} tickets/case, "
               f"excess {est.excess_tickets:+.1f}, p={est.p_value:.2e}, "
               f"{verdict}")
    rows = [
        [point.month_index, f"{point.observed_tickets:.0f}",
         f"{point.counterfactual_tickets:.1f}",
         f"[{point.interval_low:.1f}, {point.interval_high:.1f}]",
         point.n_donors, f"{point.delta:+.1f}"]
        for point in sorted(est.points, key=lambda p: p.month_index)
    ]
    return render_table(
        ["Month", "Observed", "Counterfactual", "Donor range", "Donors",
         "Excess"],
        rows, title=header,
    )


def format_attribution_table(report: AttributionReport,
                             limit: int | None = None,
                             title: str | None = None) -> str:
    """Render ranked candidate causes for a network's ticket surge."""
    window = report.window
    months = ",".join(str(m) for m in window.months)
    detected = "auto-detected" if window.auto_detected else "requested"
    header = title or (
        f"Root-cause attribution: {window.network_id}, {detected} "
        f"window [{months}] — {window.observed_tickets:.0f} tickets vs "
        f"{window.baseline_tickets:.1f}/month baseline"
    )
    scores = report.scores[:limit] if limit else report.scores
    rows = [
        [display_name(s.practice), f"{s.effect:+.2f}",
         f"{s.excess_tickets:+.1f}",
         f"[{s.interval_low:+.2f}, {s.interval_high:+.2f}]",
         s.n_pairs, f"{s.p_value:.2e}",
         "ATTRIBUTED" if s.attributed else ""]
        for s in scores
    ]
    return render_table(
        ["Candidate practice", "Effect", "Excess", "Pair interval",
         "Pairs", "One-sided p", "Verdict"],
        rows, title=header,
    )


def format_class_report(report: EvalReport, class_names: Sequence[str],
                        title: str = "") -> str:
    """Render per-class precision/recall (Figure 8 / Section 6.1 style)."""
    rows = []
    for class_report in report.per_class:
        name = (class_names[class_report.label]
                if class_report.label < len(class_names)
                else str(class_report.label))
        rows.append([
            name, f"{class_report.precision:.3f}",
            f"{class_report.recall:.3f}", class_report.support,
        ])
    header = title or "model quality"
    return render_table(
        ["Class", "Precision", "Recall", "Support"], rows,
        title=f"{header} (accuracy={report.accuracy:.3f})",
    )


def format_fault_table(stats: Sequence[FaultStats],
                       title: str = "Fault handling",
                       ) -> str:
    """Render per-component retry/timeout/dead-letter counters.

    The streaming-ingestion surface of the telemetry: one row per
    component that recorded fault activity (the pool watchdog, the WAL
    retry layer, the ingester's dead-letter quarantine). Components
    with all-zero counters are omitted.
    """
    rows = [
        [s.name, s.retries, s.timeouts, s.dead_letters]
        for s in stats if s.any
    ]
    if not rows:
        return f"{title}: no faults recorded"
    return render_table(["component", "retries", "timeouts", "dead letters"],
                        rows, title=title)


def format_serve_table(stats: "ServeStats",
                       title: str = "mpa serve telemetry",
                       ) -> str:
    """Render the analytics service's ``/statsz`` counters.

    The header block carries process-level facts (uptime, the serving
    store digest, reloads after concurrent commits, result-cache
    health); the table has one row per endpoint with its request,
    error, and cache-hit counters plus the mean handler latency.
    """
    from repro.util.tables import render_kv
    cache = stats.cache
    digest = (f"{stats.store_digest[:16]}..." if stats.store_digest
              else "- (store unavailable)")
    head = render_kv([
        ("uptime", f"{stats.uptime_seconds:.1f}s"),
        ("store digest", digest),
        ("store reloads", stats.reloads),
        ("requests", stats.requests_total),
        ("errors", stats.errors_total),
        ("result cache", f"{cache.get('entries', 0)}/"
                         f"{cache.get('max_entries', 0)} entries, "
                         f"{cache.get('hit_rate', 0.0):.1%} hit rate"),
        ("cache churn", f"{cache.get('evictions', 0)} evicted, "
                        f"{cache.get('invalidations', 0)} invalidated"),
        ("content memos", ", ".join(
            f"{m['name']} {m['hits']}h/{m['misses']}m"
            for m in stats.memos) or "-"),
    ], title=title)
    rows = [
        [e.path, e.requests, e.errors, e.cache_hits, f"{e.mean_ms:.2f}"]
        for e in stats.endpoints
    ]
    if not rows:
        return head
    return head + "\n\n" + render_table(
        ["endpoint", "requests", "errors", "cache hits", "mean ms"], rows,
    )


def _human_bytes(n: int) -> str:
    for unit in ("B", "KB", "MB", "GB"):
        if n < 1024 or unit == "GB":
            return f"{n:.1f}{unit}" if unit != "B" else f"{n}B"
        n /= 1024
    return f"{n}B"  # pragma: no cover - loop always returns


def format_store_table(info: "StoreInfo",
                       title: str = "Columnar corpus store",
                       ) -> str:
    """Render ``mpa corpus info``: shard/column/byte accounting.

    ``resident`` is the column data actually materialized through the
    reporting handle — the lazy-loading counterpoint to the on-disk
    size (a freshly opened store reads headers only, so it shows 0
    until something projects a column).
    """
    from repro.util.tables import render_kv
    head = render_kv([
        ("store", info.root),
        ("shards", info.n_shards),
        ("rows", info.n_rows),
        ("on-disk bytes", f"{info.on_disk_bytes} "
                          f"({_human_bytes(info.on_disk_bytes)})"),
        ("resident bytes", f"{info.resident_bytes} "
                           f"({_human_bytes(info.resident_bytes)})"),
    ], title=title)
    rows = [
        [col.name, col.dtype, col.rows, col.on_disk_bytes]
        for col in info.columns
    ]
    if not rows:
        return head
    return head + "\n\n" + render_table(
        ["column", "dtype", "rows", "on-disk bytes"], rows,
    )
