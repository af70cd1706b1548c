"""``BENCHMARK.json``: the benchmark's declared workloads and metrics.

The file's shape is fixed (exact keys, name and unit syntax, counts,
bounds); :func:`validate` checks all of it plus the parts this package
owns: the workload names it can run, the end-to-end metrics it reports,
and a ``per_layer`` list equal to :func:`perf.layers.per_layer_specs`.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from perf import layers

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

WORKLOADS = ("build-cold", "refresh-month", "analyze", "serve-mixed")
#: end-to-end metric -> (unit, better); every workload reports each one
END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")
MAX_BOUND = 0.25


def load(path: Path = BENCHMARK) -> dict:
    return json.loads(path.read_text())


def _exact_keys(entry, keys: set[str], where: str) -> list[str]:
    if not isinstance(entry, dict) or set(entry) != keys:
        return [f"{where}: keys must be exactly {sorted(keys)}"]
    return []


def validate(doc: dict) -> list[str]:
    """Every way ``doc`` breaks the benchmark contract (empty when valid)."""
    problems = _exact_keys(doc, {"command", "paths", "run_seconds",
                                 "workloads", "end_to_end", "per_layer"},
                           "BENCHMARK.json")
    if problems:
        return problems

    command = doc["command"]
    if not (isinstance(command, list) and 1 <= len(command) <= 32
            and all(isinstance(a, str) and len(a) <= 200 for a in command)):
        problems.append("command: 1-32 strings of at most 200 characters")
    paths = doc["paths"]
    if not (isinstance(paths, list) and 1 <= len(paths) <= 16):
        problems.append("paths: 1-16 directories")
    else:
        for path in paths:
            if (not isinstance(path, str) or not PATH.fullmatch(path)
                    or path.startswith("/") or ".." in path.split("/")):
                problems.append(f"paths: bad path {path!r}")
    seconds = doc["run_seconds"]
    if not (isinstance(seconds, int) and 1 <= seconds <= 60):
        problems.append("run_seconds: a whole number from 1 to 60")

    seen: set[str] = set()

    def name_ok(name, where: str) -> None:
        if not isinstance(name, str) or not NAME.fullmatch(name):
            problems.append(f"{where}: bad name {name!r}")
        elif name in seen:
            problems.append(f"{where}: name {name!r} used twice")
        seen.add(name)

    workloads = doc["workloads"]
    if not (isinstance(workloads, list) and 2 <= len(workloads) <= 8):
        problems.append("workloads: 2 to 8 entries")
        workloads = []
    for entry in workloads:
        if not _exact_keys(entry, {"name", "why"}, "workload"):
            name_ok(entry["name"], "workloads")
            why = entry["why"]
            if not (isinstance(why, str) and why and len(why) <= 200
                    and "\n" not in why):
                problems.append(f"workload {entry['name']}: why must be "
                                "one line of at most 200 characters")
        else:
            problems.append("workloads: entries need exactly name and why")
    if sorted(e.get("name") for e in workloads if isinstance(e, dict)) \
            != sorted(WORKLOADS):
        problems.append(f"workloads: must be {list(WORKLOADS)}")

    def metrics(key: str, lo: int, hi: int, keys: set[str]) -> list[dict]:
        entries = doc[key]
        if not (isinstance(entries, list) and lo <= len(entries) <= hi):
            problems.append(f"{key}: {lo} to {hi} metrics")
            return []
        good = []
        for entry in entries:
            bad = _exact_keys(entry, keys, key)
            if bad:
                problems.extend(bad)
                continue
            name_ok(entry["name"], key)
            if not (isinstance(entry["unit"], str)
                    and UNIT.fullmatch(entry["unit"])):
                problems.append(f"{entry['name']}: bad unit {entry['unit']!r}")
            if entry["better"] not in ("lower", "higher"):
                problems.append(f"{entry['name']}: better must be lower "
                                "or higher")
            good.append(entry)
        return good

    e2e = metrics("end_to_end", 1, 16, {"name", "unit", "better", "bound"})
    bounds = {}
    for entry in e2e:
        bound = entry["bound"]
        if (isinstance(bound, (int, float)) and not isinstance(bound, bool)
                and 0 <= bound <= MAX_BOUND):
            bounds[entry["name"]] = bound
        else:
            problems.append(f"{entry['name']}: bound must be in "
                            f"[0, {MAX_BOUND}]")
    declared = {e["name"]: (e["unit"], e["better"]) for e in e2e}
    if declared != END_TO_END:
        problems.append(f"end_to_end: must declare {END_TO_END}")
    if "setup_s" in bounds and max(bounds.values()) > bounds["setup_s"]:
        problems.append("setup_s must carry the largest bound")

    per_layer = metrics("per_layer", 1, 128, {"name", "unit", "better"})
    if per_layer != layers.per_layer_specs():
        problems.append("per_layer: must equal perf.layers.per_layer_specs()")
    moves = layers.moves()
    for entry in per_layer:
        metric, workload = moves.get(entry["name"], (None, None))
        if metric not in declared or workload not in WORKLOADS:
            problems.append(f"{entry['name']}: names no real end-to-end "
                            "metric and workload")
    return problems
