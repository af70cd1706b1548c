"""Columnar-store query bench: cold open, projection latency, peak RSS.

The store's value proposition is that a single-column projection never
touches the rest of the table. This bench makes that measurable:

* **cold open** — ``CorpusStore.open`` + first single-column projection
  on a store nothing has mapped yet (header parse + one column's page
  faults);
* **warm projection** — repeated projections against an open store
  (should be near-free: the pages are resident);
* **peak RSS** — delta resident-set growth of a *fresh subprocess*
  doing (a) one single-column projection vs (b) a full
  ``store.dataset()`` materialization, each measured via ``VmHWM``
  after a ``/proc/self/clear_refs`` reset. The store contract is that
  (a) stays **under one third** of (b); the bench asserts it.

The measured store is the bench scale's metric table with its months
tiled out to ~64K rows, so the working set dominates interpreter and
allocator noise at every scale. Wall-times and RSS deltas land in the
telemetry notes; the returned dict carries only deterministic outputs
(row counts and column checksums) for the golden-guard.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from repro.runtime.telemetry import TELEMETRY
from repro.store import CorpusStore, StoreWriter

#: tile each network's months until the store holds about this many
#: rows. Large enough that the kernel's fault-around window (~64KB per
#: touched shard, unavoidable page-table granularity) is small next to
#: the real working set, so the projection-vs-materialization RSS ratio
#: measures the format, not the fault heuristics.
TARGET_ROWS = 128_000

#: the projected metric (any float column works; this one is stable)
PROJECT_COLUMN = "n_devices"

WARM_REPEATS = 50

_CHILD_SCRIPT = r"""
import json, sys
from repro.store import CorpusStore


def _status_kb(field):
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith(field):
                return int(line.split()[1])
    return None


def _reset_peak():
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
        return True
    except OSError:
        return False


mode, root, column = sys.argv[1], sys.argv[2], sys.argv[3]
store = CorpusStore.open(root)  # header reads only; not part of the delta
reset = _reset_peak()
base = _status_kb("VmRSS:")
if mode == "project":
    checksum = float(store.query().column(column).sum())
else:
    dataset = store.dataset()
    checksum = float(dataset.values.sum())
peak = _status_kb("VmHWM:" if reset else "VmRSS:")
delta = (peak - base) if (peak is not None and base is not None) else None
print(json.dumps({"delta_kb": delta, "checksum": checksum,
                  "reset": reset}))
"""


def _build_tiled_store(dataset, root: Path) -> int:
    """Write ``dataset`` with months tiled out to ~TARGET_ROWS rows."""
    n_cases = max(dataset.n_cases, 1)
    tiles = max(2, -(-TARGET_ROWS // n_cases))  # ceil division
    writer = StoreWriter(root)
    months_span = max(dataset.case_month_indices, default=0) + 1
    start = 0
    order: list[tuple[str, int, int]] = []
    for i in range(1, dataset.n_cases + 1):
        if i == dataset.n_cases or \
                dataset.case_networks[i] != dataset.case_networks[start]:
            order.append((dataset.case_networks[start], start, i))
            start = i
    for network_id, lo, hi in order:
        rows = hi - lo
        values = np.tile(dataset.values[lo:hi], (tiles, 1))
        tickets = np.tile(dataset.tickets[lo:hi], tiles)
        months = np.concatenate([
            np.asarray(dataset.case_month_indices[lo:hi], dtype=np.int64)
            + t * months_span
            for t in range(tiles)
        ])
        writer.append(network_id, dataset.names, values,
                      np.asarray(tickets, dtype=np.int64), months)
    writer.commit(dataset.names, (dataset.epoch.year, dataset.epoch.month))
    return tiles


def _measure_child(mode: str, root: Path) -> dict:
    import repro
    env = dict(os.environ)
    src_dir = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", _CHILD_SCRIPT, mode, str(root),
         PROJECT_COLUMN],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout)


def run(ctx):
    """Row counts and column checksums of a tiled store; the RSS
    isolation contract is asserted here."""
    root = ctx.tmp_dir() / "store.mpstore"
    tiles = _build_tiled_store(ctx.dataset, root)

    started = time.perf_counter()
    cold_store = CorpusStore.open(root)
    cold_column = cold_store.query().column(PROJECT_COLUMN)
    t_cold = time.perf_counter() - started

    started = time.perf_counter()
    for _ in range(WARM_REPEATS):
        warm_column = cold_store.query().column(PROJECT_COLUMN)
    t_warm = (time.perf_counter() - started) / WARM_REPEATS
    assert np.array_equal(cold_column, warm_column)

    project = _measure_child("project", root)
    full = _measure_child("full", root)
    assert project["checksum"] == float(cold_column.sum())

    ratio_note = "rss deltas unavailable"
    if project["delta_kb"] is not None and full["delta_kb"] is not None \
            and full["delta_kb"] > 0:
        ratio = project["delta_kb"] / full["delta_kb"]
        ratio_note = (f"project {project['delta_kb']} kB vs full "
                      f"{full['delta_kb']} kB ({ratio:.1%})")
        # the store contract: projecting one column must not cost a
        # materialized table — anything over 1/3 means lazy loading broke
        assert ratio < 1 / 3, (
            f"single-column projection RSS {project['delta_kb']} kB is "
            f"not under 1/3 of full materialization "
            f"{full['delta_kb']} kB"
        )

    n_rows = cold_store.n_rows
    TELEMETRY.note(
        "columnar_query_latency",
        f"cold open+project {t_cold * 1000:.1f}ms, warm project "
        f"{t_warm * 1e6:.0f}us over {n_rows} rows x "
        f"{len(cold_store.column_names())} cols",
    )
    TELEMETRY.note("columnar_query_rss", ratio_note)
    return {
        "rows": int(n_rows),
        "networks": len(cold_store.networks),
        "tiles": int(tiles),
        "projection_checksum": float(cold_column.sum()),
        "full_checksum": full["checksum"],
    }


def claims(result):
    # the store contract needs the child processes' RSS deltas, which
    # stay out of the pinned output; run() asserts it
    return {}
