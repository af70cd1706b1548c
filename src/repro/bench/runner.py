"""In-process benchmark execution: one ``run`` call, checksum, claims.

Each bench runs exactly once. Its output is reduced to canonical JSON
and hashed (:func:`output_checksum`) for the pin check, and the raw
output is handed to the bench's ``claims`` for the paper-shape
verdicts. A bench that raises — in ``run`` or in ``claims`` — is
recorded with its traceback and the suite moves on.
"""

from __future__ import annotations

import hashlib
import json
import math
import traceback
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.bench.context import BenchContext
from repro.bench.discover import BenchSpec

# -- output checksum ---------------------------------------------------------


def _canonical(value: Any) -> Any:
    """Reduce a bench's output to plain JSON types, deterministically.

    numpy scalars/arrays become python scalars/lists, tuples become
    lists, dict keys become strings (sorted at dump time), NaN becomes
    ``None`` (JSON has no NaN and benches use it for "empty bin").
    """
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_canonical(v) for v in value.tolist()]
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, (np.floating, float)):
        value = float(value)
        return None if math.isnan(value) else value
    if value is None or isinstance(value, str):
        return value
    raise TypeError(
        f"bench output must be JSON-serializable numeric data, got "
        f"{type(value).__name__}"
    )


def output_checksum(output: Any) -> str:
    """SHA-256 over the canonical JSON form of a bench's output."""
    canonical = json.dumps(_canonical(output), sort_keys=True,
                           separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(canonical.encode()).hexdigest()


# -- execution ---------------------------------------------------------------


@dataclass
class BenchResult:
    """One bench's output hash and claim verdicts (or its error)."""

    name: str
    output_sha256: str | None = None
    #: claim name -> verdict, in the order the bench states them
    claims: dict[str, bool] = field(default_factory=dict)
    error: str | None = None

    @property
    def failed_claims(self) -> list[str]:
        return [name for name, ok in self.claims.items() if not ok]


def run_bench(spec: BenchSpec, ctx: BenchContext) -> BenchResult:
    """Run one bench once: hash its output and evaluate its claims."""
    result = BenchResult(name=spec.name)
    try:
        bench = spec.load()
        output = bench.run(ctx)
        result.output_sha256 = output_checksum(output)
        result.claims = {name: bool(ok)
                         for name, ok in bench.claims(output).items()}
    except Exception:
        result.error = traceback.format_exc(limit=8)
    return result


def run_suite(specs: list[BenchSpec], ctx: BenchContext,
              progress=None) -> list[BenchResult]:
    """Run every spec against one shared context; never raises per-bench.

    ``progress`` is an optional ``callable(result)`` invoked after each
    bench (the CLI uses it to stream one line per bench).
    """
    results = []
    for spec in specs:
        result = run_bench(spec, ctx)
        results.append(result)
        if progress is not None:
            progress(result)
    return results
