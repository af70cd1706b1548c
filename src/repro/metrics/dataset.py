"""The metric table: corpus -> one row per (network, month) case.

This is the pipeline the paper describes in Section 2: parse every config
snapshot, diff consecutive snapshots into device-level changes, group
changes into events with the delta-window heuristic, compute design
metrics from the configs in effect at each month's end, operational
metrics from the month's changes/events, and the health metric from the
month's non-maintenance tickets.

A :class:`MetricDataset` is the input to everything in Sections 5-6:
mutual information, QED causal analysis, and predictive modelling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.errors import CorpusError, StoreError
from repro.metrics.catalog import metric_names
from repro.metrics.quality import DataQualityReport, scrub_corpus
from repro.metrics.design import DeviceFeatures
from repro.metrics.events import DEFAULT_DELTA_MINUTES
from repro.metrics.stages import (
    compute_network_timeline_parts,
    compute_network_unit,
)
from repro.runtime.pool import TaskFailure, parallel_map
from repro.runtime.telemetry import TELEMETRY
from repro.store import CorpusStore, StoreWriter, is_store
from repro.synthesis.corpus import Corpus
from repro.types import CaseKey, ChangeEvent, ChangeRecord, MonthKey


@dataclass
class MetricDataset:
    """Case-by-metric table with the health outcome column."""

    names: list[str]
    case_networks: list[str]
    case_month_indices: list[int]
    values: np.ndarray  # shape (n_cases, n_metrics)
    tickets: np.ndarray  # shape (n_cases,)
    epoch: MonthKey

    def __post_init__(self) -> None:
        n_cases = len(self.case_networks)
        if len(self.case_month_indices) != n_cases:
            raise ValueError("case index lists disagree in length")
        if self.values.shape != (n_cases, len(self.names)):
            raise ValueError(
                f"values shape {self.values.shape} != "
                f"({n_cases}, {len(self.names)})"
            )
        if self.tickets.shape != (n_cases,):
            raise ValueError("tickets shape mismatch")

    @property
    def n_cases(self) -> int:
        return len(self.case_networks)

    def column(self, name: str) -> np.ndarray:
        """One metric's values across all cases (a read-only view)."""
        try:
            idx = self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown metric {name!r}") from None
        view = self.values[:, idx]
        view.setflags(write=False)
        return view

    def case_keys(self) -> list[CaseKey]:
        return [
            CaseKey(network, MonthKey.from_index(self.epoch.index() + m))
            for network, m in zip(self.case_networks, self.case_month_indices)
        ]

    def restrict_months(self, month_indices: set[int]) -> "MetricDataset":
        """Subset of cases whose month index is in ``month_indices``."""
        mask = np.array(
            [m in month_indices for m in self.case_month_indices], dtype=bool
        )
        return MetricDataset(
            names=list(self.names),
            case_networks=[n for n, keep in zip(self.case_networks, mask) if keep],
            case_month_indices=[
                m for m, keep in zip(self.case_month_indices, mask) if keep
            ],
            values=self.values[mask],
            tickets=self.tickets[mask],
            epoch=self.epoch,
        )

    # -- persistence -------------------------------------------------------

    def save(self, path: str | Path, *, durable: bool = False) -> str:
        """Persist the dataset as a sharded columnar store at ``path``.

        The store (:mod:`repro.store`) is one immutable per-network
        shard plus a versioned manifest. Each file is written to a
        temporary name and renamed into place, so a crash mid-write
        never leaves a truncated artifact under the final name;
        ``durable=True`` additionally fsyncs.

        Returns the committed store's manifest digest — streaming
        checkpoints record it to certify the saved table on resume.
        """
        path = Path(path)
        writer = StoreWriter(path, durable=durable)
        for network_id, start, stop in self._network_runs():
            writer.append(
                network_id, self.names, self.values[start:stop],
                np.asarray(self.tickets[start:stop], dtype=np.int64),
                np.asarray(self.case_month_indices[start:stop],
                           dtype=np.int64),
            )
        manifest = writer.commit(self.names,
                                 (self.epoch.year, self.epoch.month))
        return manifest.digest()

    def _network_runs(self):
        """Contiguous ``(network_id, start, stop)`` case runs.

        Store shards are per-network, so the case list must group each
        network's rows contiguously (every pipeline product does); an
        interleaved dataset cannot round-trip through the store
        bit-identically and is rejected.
        """
        runs: list[tuple[str, int, int]] = []
        seen: set[str] = set()
        start = 0
        for i in range(1, self.n_cases + 1):
            if i == self.n_cases or self.case_networks[i] != \
                    self.case_networks[start]:
                network_id = self.case_networks[start]
                if network_id in seen:
                    raise StoreError(
                        f"cases of network {network_id!r} are not "
                        "contiguous; cannot shard per network"
                    )
                seen.add(network_id)
                runs.append((network_id, start, i))
                start = i
        return runs

    @classmethod
    def load(cls, path: str | Path) -> "MetricDataset":
        """Load a dataset saved by :meth:`save`.

        Anything that is not a committed store — a missing path, a plain
        file, a store directory whose manifest is gone — and any damage
        inside one (a manifest/shard version mismatch, a truncated or
        trailing-garbage column file) surfaces as
        :class:`~repro.errors.CorpusError` naming the offending path,
        never a bare ``FileNotFoundError``/``KeyError``/crash
        (:class:`~repro.errors.StoreError` is a ``CorpusError``).
        """
        path = Path(path)
        if not is_store(path):
            raise CorpusError(
                f"no metric dataset at {path} (not a committed columnar "
                "store)"
            )
        return CorpusStore.open(path).dataset()


@dataclass
class NetworkTimeline:
    """Intermediate per-network product of the inference pipeline."""

    network_id: str
    changes: list[ChangeRecord]
    events: list[ChangeEvent]
    #: month index -> device id -> features of the config in effect
    features_by_month: list[dict[str, DeviceFeatures]]


def build_network_timeline(corpus: Corpus, network_id: str,
                           delta_minutes: int | None = DEFAULT_DELTA_MINUTES,
                           report: DataQualityReport | None = None,
                           ) -> NetworkTimeline:
    """Parse + diff one network's snapshots into changes, events, features.

    Parse failures degrade instead of aborting: an unparsable snapshot
    is quarantined (recorded in ``report``) and the previously-in-effect
    config carries forward; a device whose dialect is unknown or with
    zero parsable snapshots is dropped from the timeline entirely.

    This is the uncached spelling of the per-network stage graph in
    :mod:`repro.metrics.stages`.
    """
    if report is None:
        report = DataQualityReport()
    changes, events, features_by_month = compute_network_timeline_parts(
        corpus, network_id, delta_minutes, report
    )
    return NetworkTimeline(
        network_id=network_id,
        changes=changes,
        events=events,
        features_by_month=features_by_month,
    )


@dataclass
class PipelineResult:
    """Full output of the inference pipeline."""

    dataset: MetricDataset
    #: network id -> all device-level changes over the whole study period
    changes: dict[str, list[ChangeRecord]]
    #: per-run data-quality provenance (quarantines, drops, degradations)
    quality: DataQualityReport = field(default_factory=DataQualityReport)


def build_full(corpus: Corpus,
               delta_minutes: int | None = DEFAULT_DELTA_MINUTES,
               max_bad_fraction: float | None = None,
               cache=None,
               store: StoreWriter | None = None,
               ) -> PipelineResult:
    """Like :func:`build_dataset` but also returns the raw change records
    (used by the delta-sweep and characterization benches) and the
    :class:`~repro.metrics.quality.DataQualityReport` of the run.

    ``store`` is an optional :class:`~repro.store.StoreWriter`: each
    finished network unit is appended as a shard while later networks
    are still computing, and the manifest commits only after the
    quality gate passes — so persisting the table costs no extra pass
    over it, unchanged networks' shards are reused without a write, and
    an aborted build never publishes a manifest.
    """
    dataset, changes, quality = _build(corpus, delta_minutes,
                                       keep_changes=True,
                                       max_bad_fraction=max_bad_fraction,
                                       cache=cache, store=store)
    return PipelineResult(dataset=dataset, changes=changes, quality=quality)


def build_dataset(corpus: Corpus,
                  delta_minutes: int | None = DEFAULT_DELTA_MINUTES,
                  max_bad_fraction: float | None = None,
                  cache=None,
                  ) -> MetricDataset:
    """Infer the full metric table from a corpus.

    This is the expensive step (it parses every snapshot); see
    :func:`repro.core.workspace` for the cached entry point. Bad input
    degrades the run (quarantined snapshots, dropped devices, degraded
    networks) instead of aborting it; when more than
    ``max_bad_fraction`` of any input dimension had to be discarded
    (default :data:`repro.metrics.quality.DEFAULT_MAX_BAD_FRACTION`,
    overridable via ``MPA_MAX_BAD_FRACTION``), the run raises
    :class:`~repro.errors.DataError` rather than producing garbage.

    ``cache`` is an optional per-(network, stage) result cache (see
    :class:`repro.core.workspace.StageCache`); passing one makes
    rebuilds after small corpus deltas incremental while keeping the
    output bit-identical to a cold build.
    """
    dataset, _, _ = _build(corpus, delta_minutes, keep_changes=False,
                           max_bad_fraction=max_bad_fraction, cache=cache)
    return dataset


def _build(corpus: Corpus, delta_minutes: int | None,
           keep_changes: bool,
           max_bad_fraction: float | None = None,
           cache=None,
           store: StoreWriter | None = None,
           ) -> tuple[MetricDataset, dict, DataQualityReport]:
    names = metric_names()
    report = DataQualityReport()
    # pre-parse scrub: re-sort out-of-order snapshot lists, quarantine
    # duplicate/clock-skewed snapshots and duplicate/malformed tickets.
    # A clean corpus passes through unchanged (bit-identical output).
    corpus = scrub_corpus(corpus, report)
    network_ids = [
        network_id for network_id in corpus.inventory.network_ids
        if corpus.inventory.devices_in(network_id)
    ]
    report.networks_total = len(network_ids)
    per_network = parallel_map(
        lambda network_id: compute_network_unit(
            corpus, network_id, delta_minutes, keep_changes, cache
        ),
        network_ids,
        stage="metric-inference",
        on_error="collect",
    )

    rows: list[list[float]] = []
    tickets: list[int] = []
    case_networks: list[str] = []
    case_months: list[int] = []
    all_changes: dict[str, list[ChangeRecord]] = {}
    cache_totals: dict[str, list[int]] = {}
    for network_id, cases in zip(network_ids, per_network):
        if isinstance(cases, TaskFailure):
            # the whole per-network task blew up on something the
            # quarantine layers did not contain: exclude the network
            # from the table instead of aborting the corpus.
            report.degrade_network(
                network_id,
                f"inference task failed: {cases.error_type}: "
                f"{cases.message}",
            )
            continue
        report.merge(cases.quality)
        rows.extend(cases.rows)
        tickets.extend(cases.tickets)
        case_networks.extend([cases.network_id] * len(cases.rows))
        case_months.extend(cases.months)
        if store is not None:
            # stage output -> shard append, while later networks are
            # still in flight; content addressing makes this a digest
            # (not a write) for networks whose rows did not change
            store.append_rows(cases.network_id, names, cases.rows,
                              cases.tickets, cases.months)
        if keep_changes:
            all_changes[cases.network_id] = cases.changes or []
        for stage_name, (hits, misses) in cases.cache_stats.items():
            totals = cache_totals.setdefault(stage_name, [0, 0])
            totals[0] += hits
            totals[1] += misses

    if cache is not None:
        # pool workers run in forked processes, so their telemetry
        # counters die with them; each unit therefore reports its own
        # hit/miss counts back through the task result and the parent
        # aggregates them here.
        for stage_name, (hits, misses) in cache_totals.items():
            TELEMETRY.record_cache(stage_name, hits=hits, misses=misses)

    report.check(max_bad_fraction)
    dataset = MetricDataset(
        names=names,
        case_networks=case_networks,
        case_month_indices=case_months,
        values=(np.asarray(rows, dtype=float) if rows
                else np.empty((0, len(names)), dtype=float)),
        tickets=np.asarray(tickets, dtype=np.int64),
        epoch=corpus.epoch,
    )
    if store is not None:
        # commit only after the quality gate: a run that raised above
        # leaves at most orphan shard files next to the old manifest
        store.commit(names, (corpus.epoch.year, corpus.epoch.month))
    return dataset, all_changes, report
