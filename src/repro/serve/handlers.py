"""Endpoint implementations for the long-lived analytics service.

The split from :mod:`repro.serve.server` is deliberate: everything here
is plain functions over an :class:`AnalyticsState` — no sockets — so
the full endpoint surface is unit-testable (and reusable by the load
generator) without binding a port.

**Snapshot semantics.** :class:`AnalyticsState.current` returns a
:class:`StoreSnapshot` pinned to one committed manifest. Shard files
are immutable and the reader's mmaps pin their inodes, so a request
that started on snapshot *N* finishes on snapshot *N* even if a
concurrent ``mpa extend``/``mpa ingest`` commits *N+1* mid-request; the
*next* request observes the new manifest (a cheap ``stat`` of
``manifest.json`` — atomic rename gives it a fresh inode on every
commit) and gets a fresh snapshot plus a fresh result-cache namespace.

**Cache namespace.** :attr:`StoreSnapshot.namespace` digests the
manifest digest (which transitively covers every shard's SHA-256), the
stage-code version, and the quality ledger, so a cached response is
reusable exactly as long as every byte it was derived from is
unchanged — see DESIGN.md for the invalidation argument.
"""

from __future__ import annotations

import hashlib
import json
import threading
from pathlib import Path

import numpy as np

from repro.errors import MPAError, StoreError
from repro.metrics.quality import DataQualityReport
from repro.metrics.stages import STAGE_CODE_VERSION
from repro.store import CorpusStore, is_store

MANIFEST_NAME = "manifest.json"


class BadRequest(MPAError):
    """A request the service refuses: malformed or unknown parameters.

    The HTTP layer maps this (and :class:`~repro.errors.StoreError`,
    e.g. an unknown column/network) to a 400 response; everything else
    escaping a handler is a 500.
    """


class StoreSnapshot:
    """One committed store generation plus its lazily-derived views."""

    def __init__(self, store: CorpusStore, quality_doc: dict | None,
                 stat_sig: tuple) -> None:
        self.store = store
        self.digest = store.digest()
        self.quality_doc = quality_doc
        self.stat_sig = stat_sig
        self.namespace = self._namespace()
        self._dataset = None
        self._mpa = None
        self._lock = threading.Lock()

    def _namespace(self) -> str:
        h = hashlib.sha256(b"mpa-serve-namespace-v1\n")
        h.update(self.digest.encode())
        h.update(f"\nstage-code={STAGE_CODE_VERSION}\n".encode())
        quality = json.dumps(self.quality_doc or {}, sort_keys=True,
                             separators=(",", ":"))
        h.update(hashlib.sha256(quality.encode()).hexdigest().encode())
        return h.hexdigest()

    @property
    def dataset(self):
        """The materialized metric table (built once per snapshot)."""
        with self._lock:
            if self._dataset is None:
                self._dataset = self.store.dataset()
            return self._dataset

    @property
    def mpa(self):
        """The analysis facade over :attr:`dataset` (built once)."""
        with self._lock:
            if self._mpa is None:
                from repro.core.mpa import MPA
                self._mpa = MPA(self.store.dataset()
                                if self._dataset is None else self._dataset)
            return self._mpa


class AnalyticsState:
    """The resident state ``mpa serve`` keeps hot between requests."""

    def __init__(self, store_root: str | Path,
                 quality_path: str | Path | None = None) -> None:
        self.store_root = Path(store_root)
        self.quality_path = (Path(quality_path) if quality_path is not None
                             else None)
        self._lock = threading.Lock()
        self._snapshot: StoreSnapshot | None = None
        self.reloads = 0

    @classmethod
    def for_workspace(cls, workspace) -> "AnalyticsState":
        """State over a built workspace's store + quality ledger."""
        return cls(workspace.dataset_path, workspace.quality_path)

    def _stat_sig(self) -> tuple:
        """Change signature of the manifest: the atomic-rename commit
        gives ``manifest.json`` a new inode every time, so an equal
        signature means the same committed generation."""
        stat = (self.store_root / MANIFEST_NAME).stat()
        return (stat.st_ino, stat.st_size, stat.st_mtime_ns)

    def _load_quality(self) -> dict | None:
        if self.quality_path is None:
            return None
        try:
            return json.loads(self.quality_path.read_text())
        except (OSError, ValueError):
            return None

    def current(self) -> StoreSnapshot:
        """The snapshot of the latest committed manifest (reloading —
        and rotating the cache namespace — when a commit happened)."""
        if not is_store(self.store_root):
            raise StoreError(
                f"no committed columnar store at {self.store_root} "
                "(run mpa synthesize to build it)"
            )
        sig = self._stat_sig()
        with self._lock:
            if self._snapshot is not None and self._snapshot.stat_sig == sig:
                return self._snapshot
            snapshot = StoreSnapshot(
                CorpusStore.open(self.store_root),
                self._load_quality(), sig,
            )
            if self._snapshot is not None \
                    and snapshot.digest != self._snapshot.digest:
                self.reloads += 1
            self._snapshot = snapshot
            return snapshot


# -- parameter parsing -------------------------------------------------------


def _int_param(params: dict, name: str, default: int, *,
               minimum: int | None = None,
               maximum: int | None = None) -> int:
    raw = params.get(name)
    if raw is None or raw == "":
        return default
    try:
        value = int(raw)
    except (TypeError, ValueError):
        raise BadRequest(f"{name}={raw!r} is not an integer") from None
    if minimum is not None and value < minimum:
        raise BadRequest(f"{name} must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise BadRequest(f"{name} must be <= {maximum}, got {value}")
    return value


def _csv_param(params: dict, name: str) -> list[str]:
    raw = params.get(name, "")
    return [part.strip() for part in str(raw).split(",") if part.strip()]


def _jsonable(value):
    """Recursively coerce numpy scalars/arrays and NaN into clean JSON
    (NaN/inf become ``None`` — strict JSON has no spelling for them)."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        value = float(value)
    if isinstance(value, float) and not np.isfinite(value):
        return None
    return value


# -- endpoint handlers -------------------------------------------------------


def handle_query(snapshot: StoreSnapshot, params: dict) -> dict:
    """``/query``: filter/project/aggregate over the columnar store."""
    from repro.store.query import AGGREGATES, GROUP_KEYS
    q = snapshot.store.query()
    networks = _csv_param(params, "networks")
    if networks:
        q = q.where(networks=networks)
    months = _csv_param(params, "months")
    if months:
        try:
            q = q.where(months=[int(m) for m in months])
        except ValueError:
            raise BadRequest(
                f"months={params.get('months')!r} must be "
                "comma-separated integers"
            ) from None
    columns = _csv_param(params, "columns")
    if columns:
        q = q.project(*columns)
    aggregate = params.get("aggregate")
    by = params.get("by")
    if by and not aggregate:
        raise BadRequest("by= requires aggregate=")
    if aggregate:
        if aggregate not in AGGREGATES:
            raise BadRequest(
                f"aggregate={aggregate!r} not in {', '.join(AGGREGATES)}"
            )
        if by and by not in GROUP_KEYS:
            raise BadRequest(f"by={by!r} not in {', '.join(GROUP_KEYS)}")
        if len(columns) != 1:
            raise BadRequest("aggregate= needs exactly one columns= entry")
        result = q.aggregate(aggregate, columns[0], by=by)
        return _jsonable({
            "aggregate": aggregate, "column": columns[0], "by": by,
            "result": (result if by is None
                       else [{"key": key, "value": value}
                             for key, value in result]),
        })
    if "count" in params:
        return {"count": q.count()}
    if not columns:
        raise BadRequest("query needs columns= (or aggregate=/count=1)")
    limit = _int_param(params, "limit", 50, minimum=1)
    table = q.table()
    total = len(table["network"])
    rows = [
        {"network": table["network"][i],
         **{name: table[name][i] for name in columns}}
        for i in range(min(total, limit))
    ]
    return _jsonable({"total_rows": total, "returned_rows": len(rows),
                      "columns": columns, "rows": rows})


def handle_top(snapshot: StoreSnapshot, params: dict) -> dict:
    """``/top``: Table 3 — practices ranked by avg monthly MI."""
    k = _int_param(params, "k", 10, minimum=1)
    results = snapshot.mpa.top_practices(k)
    return _jsonable({
        "k": k,
        "practices": [{"practice": r.practice,
                       "avg_monthly_mi": r.avg_monthly_mi}
                      for r in results],
    })


def handle_pairs(snapshot: StoreSnapshot, params: dict) -> dict:
    """``/pairs``: Table 4 — practice pairs ranked by CMI."""
    k = _int_param(params, "k", 10, minimum=1)
    results = snapshot.mpa.dependent_pairs(k)
    return _jsonable({
        "k": k,
        "pairs": [{"practice_a": r.practice_a, "practice_b": r.practice_b,
                   "cmi": r.cmi}
                  for r in results],
    })


def handle_causal(snapshot: StoreSnapshot, params: dict) -> dict:
    """``/causal``: Tables 5/6 — the QED comparison for one treatment."""
    treatment = params.get("treatment")
    if not treatment:
        raise BadRequest("causal needs treatment=<practice>")
    if treatment not in snapshot.store.names:
        raise BadRequest(
            f"unknown treatment {treatment!r} "
            f"(practices: {', '.join(snapshot.store.names)})"
        )
    experiment = snapshot.mpa.causal_analysis(treatment)
    return _jsonable({
        "treatment": treatment,
        "skipped_points": list(experiment.skipped),
        "comparisons": [
            {
                "point": r.point_label,
                "n_treated": r.n_treated,
                "n_untreated": r.n_untreated,
                "n_pairs": r.n_pairs,
                "balanced": not r.imbalanced,
                "p_value": r.sign.p_value,
                "significant": r.sign.significant,
                "causal": r.causal,
                "fewer_tickets": r.sign.n_fewer_tickets,
                "no_effect": r.sign.n_no_effect,
                "more_tickets": r.sign.n_more_tickets,
            }
            for r in experiment.results
        ],
    })


def handle_whatif(snapshot: StoreSnapshot, params: dict) -> dict:
    """``/whatif``: counterfactual scenario or root-cause attribution.

    ``network=<id>`` (or ``worst``) is required. With
    ``practice=<name>`` (plus optional ``value=<float>``) the response
    is the matched-control counterfactual trajectory under the
    scenario; without it, the ranked candidate causes for the network's
    ticket surge. Pure over (snapshot, params), so responses ride the
    namespace-keyed result cache like every other endpoint.
    """
    from repro.analysis.causal import (
        ALPHA_ATTRIBUTION,
        DEFAULT_K_DONORS,
        estimate_whatif,
        pick_worst_network,
        rank_causes,
    )
    from repro.errors import InsufficientDataError
    network = params.get("network")
    if not network:
        raise BadRequest("whatif needs network=<id> (or network=worst)")
    dataset = snapshot.dataset
    if network == "worst":
        network = pick_worst_network(dataset)
    months_raw = _csv_param(params, "months")
    try:
        months = [int(m) for m in months_raw] if months_raw else None
    except ValueError:
        raise BadRequest(
            f"months={params.get('months')!r} must be "
            "comma-separated integers"
        ) from None
    k = _int_param(params, "k", DEFAULT_K_DONORS, minimum=1)
    practice = params.get("practice")
    if practice:
        value_raw = params.get("value")
        try:
            value = float(value_raw) if value_raw not in (None, "") else None
        except (TypeError, ValueError):
            raise BadRequest(
                f"value={value_raw!r} is not a number"
            ) from None
        try:
            result = estimate_whatif(dataset, network, practice,
                                     value=value, months=months, k=k)
        except KeyError as exc:
            raise BadRequest(
                exc.args[0] if exc.args else str(exc)
            ) from None
        except InsufficientDataError as exc:
            raise BadRequest(str(exc)) from None
        est = result.estimate
        return _jsonable({
            "mode": "scenario",
            "network": result.network_id,
            "practice": result.practice,
            "observed_value": result.observed_value,
            "counterfactual_value": result.counterfactual_value,
            "months": list(result.months),
            "effect": est.effect,
            "excess_tickets": est.excess_tickets,
            "interval": [est.interval_low, est.interval_high],
            "p_value": est.p_value,
            "attributed": est.attributable(),
            "n_pairs": est.n_pairs,
            "trajectory": [
                {"month": point.month_index,
                 "observed": point.observed_tickets,
                 "counterfactual": point.counterfactual_tickets,
                 "counterfactual_range": [point.interval_low,
                                          point.interval_high],
                 "n_donors": point.n_donors,
                 "excess": point.delta}
                for point in sorted(est.points,
                                    key=lambda p: p.month_index)
            ],
        })
    limit = _int_param(params, "limit", 12, minimum=1)
    try:
        report = rank_causes(dataset, network, months=months, k=k)
    except KeyError as exc:
        raise BadRequest(exc.args[0] if exc.args else str(exc)) from None
    except InsufficientDataError as exc:
        raise BadRequest(str(exc)) from None
    window = report.window
    return _jsonable({
        "mode": "attribution",
        "network": window.network_id,
        "window": {
            "months": list(window.months),
            "observed_tickets": window.observed_tickets,
            "baseline_tickets": window.baseline_tickets,
            "auto_detected": window.auto_detected,
        },
        "alpha": ALPHA_ATTRIBUTION,
        "causes": [
            {"practice": s.practice,
             "effect": s.effect,
             "excess_tickets": s.excess_tickets,
             "interval": [s.interval_low, s.interval_high],
             "p_value": s.p_value,
             "n_pairs": s.n_pairs,
             "attributed": s.attributed}
            for s in report.scores[:limit]
        ],
    })


def handle_predict(snapshot: StoreSnapshot, params: dict) -> dict:
    """``/predict``: Table 9 — rolling online health prediction."""
    from repro.core.prediction import FIVE_CLASS, TWO_CLASS
    history = _int_param(params, "history", 3, minimum=1)
    classes = _int_param(params, "classes", 2)
    if classes not in (2, 5):
        raise BadRequest(f"classes must be 2 or 5, got {classes}")
    scheme = TWO_CLASS if classes == 2 else FIVE_CLASS
    variant = params.get("variant", "dt+ab+os")
    try:
        result = snapshot.mpa.predict_future(history, scheme=scheme,
                                             variant=variant)
    except ValueError as exc:
        raise BadRequest(str(exc)) from None
    return _jsonable({
        "history_months": result.history_months,
        "scheme": scheme.name,
        "variant": variant,
        "evaluated_months": list(result.evaluated_months),
        "monthly_accuracy": list(result.monthly_accuracy),
        "mean_accuracy": result.mean_accuracy,
    })


def handle_quality(snapshot: StoreSnapshot, params: dict) -> dict:
    """``/quality``: the build's data-quality ledger + summary line."""
    limit = _int_param(params, "limit", 20, minimum=0)
    doc = snapshot.quality_doc
    if doc is None:
        return {"available": False,
                "reason": "no quality ledger beside this store"}
    report = DataQualityReport.from_dict(doc)
    issues = report.all_issues()
    return _jsonable({
        "available": True,
        "summary": report.summary(),
        "report": report.to_dict(),
        "issues": [str(issue) for issue in issues[:limit]],
        "n_issues": len(issues),
    })


#: endpoint path -> handler; every entry here is cacheable (responses
#: are pure functions of the snapshot namespace + params). ``/healthz``
#: and ``/statsz`` live in the HTTP layer: they describe the *process*,
#: not the data, so caching them would be wrong by construction.
ENDPOINTS = {
    "/query": handle_query,
    "/top": handle_top,
    "/pairs": handle_pairs,
    "/causal": handle_causal,
    "/whatif": handle_whatif,
    "/predict": handle_predict,
    "/quality": handle_quality,
}
