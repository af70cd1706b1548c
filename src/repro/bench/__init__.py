"""The paper benchmarks as one checked suite: ``mpa bench``.

Each ``benchmarks/bench_*.py`` script reproduces one of the paper's
figures or tables and exposes two entry points: ``run(ctx)`` returns
the figure's data, and ``claims(result)`` returns named verdicts that
state the result shape the paper reports. This package runs them:

* :mod:`repro.bench.discover` finds every ``bench_*.py`` script and
  loads its ``run``/``claims`` pair;
* :mod:`repro.bench.context` provides the shared resources a bench
  needs (workspace, dataset, temp dirs);
* :mod:`repro.bench.runner` calls ``run`` once per bench, hashes the
  output canonically and evaluates ``claims``;
* :mod:`repro.bench.compare` checks each hash against its pin in
  ``benchmarks/baseline.json`` and folds pin and claims into a verdict.

Nothing here measures time; ``perf/`` is the repo's only timer.
"""

from repro.bench.compare import (
    BenchVerdict,
    compare_results,
    load_pins,
    update_baseline,
)
from repro.bench.context import BenchContext
from repro.bench.discover import BenchProtocolError, BenchSpec, discover
from repro.bench.runner import (
    BenchResult,
    output_checksum,
    run_bench,
    run_suite,
)

__all__ = [
    "BenchContext",
    "BenchProtocolError",
    "BenchResult",
    "BenchSpec",
    "BenchVerdict",
    "compare_results",
    "discover",
    "load_pins",
    "output_checksum",
    "run_bench",
    "run_suite",
    "update_baseline",
]
