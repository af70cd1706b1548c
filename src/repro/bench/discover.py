"""Benchmark discovery: find ``bench_*.py`` scripts and their entry points.

The bench protocol is deliberately tiny: a benchmark script is any file
matching ``benchmarks/bench_*.py`` that exposes two module-level
functions

.. code-block:: python

    def run(ctx):  # ctx: repro.bench.context.BenchContext
        ...
        return numeric_output  # JSON-serializable figure/table data

    def claims(result):  # result: what run() returned
        return {"Fig. 8: oversampling lifts ...": bool, ...}

``run`` must not leak state into the benches after it: no module-global
caches, no global RNG reseeding, no environment mutation it does not
undo (use ``ctx.env`` and ``ctx.tmp_dir``). ``claims`` reads only its
argument; each claim name cites the paper's table, figure or section.
"""

from __future__ import annotations

import importlib.util
import sys
from dataclasses import dataclass
from pathlib import Path

from repro.errors import MPAError


class BenchProtocolError(MPAError):
    """A benchmark script does not follow the ``run``/``claims`` protocol."""


def default_bench_dir() -> Path:
    """The repo's ``benchmarks/`` directory (next to ``src/``)."""
    repo_root = Path(__file__).resolve().parents[3]
    candidate = repo_root / "benchmarks"
    if candidate.is_dir():
        return candidate
    return Path.cwd() / "benchmarks"


@dataclass(frozen=True)
class BenchSpec:
    """One discovered benchmark script."""

    name: str  # "runtime_smoke" for benchmarks/bench_runtime_smoke.py
    path: Path

    def load(self):
        """Import the script; it must define callable ``run`` and ``claims``."""
        module_name = f"_repro_bench_{self.name}"
        spec = importlib.util.spec_from_file_location(module_name,
                                                      self.path)
        if spec is None or spec.loader is None:
            raise BenchProtocolError(f"cannot import {self.path}")
        module = importlib.util.module_from_spec(spec)
        # register before exec so dataclasses/pickling inside the bench
        # module resolve their __module__
        sys.modules[module_name] = module
        spec.loader.exec_module(module)
        for entry in ("run", "claims"):
            if not callable(getattr(module, entry, None)):
                raise BenchProtocolError(
                    f"{self.path.name} defines no callable {entry}() "
                    "(see repro.bench.discover)"
                )
        return module


def discover(bench_dir: Path | None = None,
             filters: list[str] | None = None) -> list[BenchSpec]:
    """All benchmark scripts under ``bench_dir``, sorted by name.

    ``filters`` keeps a bench when ANY filter is a substring of its
    name (``--filter runtime_smoke --filter tab03``).
    """
    bench_dir = bench_dir or default_bench_dir()
    specs = [
        BenchSpec(name=path.stem[len("bench_"):], path=path)
        for path in sorted(bench_dir.glob("bench_*.py"))
    ]
    if filters:
        specs = [s for s in specs
                 if any(token in s.name for token in filters)]
    return specs
