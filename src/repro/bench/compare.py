"""Pin check: each bench's output hash against ``benchmarks/baseline.json``.

The baseline is a flat ``{bench: output_sha256}`` map — the committed
bit-identity contract of every bench's result. A verdict folds the pin
check and the bench's claims into one line:

========== =============================================== =========
pin        meaning                                         fails?
========== =============================================== =========
ok         output hash equals the pin                      no
drift      output hash differs from the pin                yes
error      ``run`` or ``claims`` raised                    yes
unpinned   no pin for this bench                           unfiltered
missing    a pin whose bench did not run                   unfiltered
========== =============================================== =========

A failed claim fails the verdict whatever the pin says. ``unpinned``
and ``missing`` only fail an unfiltered run (``strict=True``): a bench
outside the contract, or one that vanished from it, is a regression of
the contract itself, while a filtered run checks only what it ran.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.bench.runner import BenchResult
from repro.util.ioutils import atomic_write_text


def load_pins(path: Path) -> dict[str, str]:
    """The ``{bench: output_sha256}`` map stored at ``path``."""
    return json.loads(Path(path).read_text())


@dataclass
class BenchVerdict:
    """One bench's pin status and claim tally."""

    name: str
    pin: str  # ok / drift / error / unpinned / missing
    failed: bool
    n_claims: int = 0
    failed_claims: tuple[str, ...] = ()
    detail: str = ""

    def line(self) -> str:
        """The one status line ``mpa bench`` prints for this bench."""
        passed = self.n_claims - len(self.failed_claims)
        text = (f"  {self.name:<28} pin {self.pin:<9} "
                f"claims {passed}/{self.n_claims}")
        if self.failed_claims:
            text += "  failed: " + "; ".join(self.failed_claims)
        if self.detail:
            text += f"  ({self.detail})"
        return text


def verdict_for(result: BenchResult, pins: dict[str, str],
                strict: bool = False) -> BenchVerdict:
    """Fold one result's pin check and claims into a verdict."""
    pin = pins.get(result.name)
    detail = ""
    if result.error is not None:
        status = "error"
        detail = result.error.strip().splitlines()[-1]
    elif pin is None:
        status = "unpinned"
        detail = "no pin (run --update-baseline)"
    elif result.output_sha256 != pin:
        status = "drift"
        detail = f"output {result.output_sha256[:12]} != pin {pin[:12]}"
    else:
        status = "ok"
    failed_claims = tuple(result.failed_claims)
    failed = (status in ("error", "drift") or bool(failed_claims)
              or (strict and status == "unpinned"))
    return BenchVerdict(name=result.name, pin=status, failed=failed,
                        n_claims=len(result.claims),
                        failed_claims=failed_claims, detail=detail)


def compare_results(results: list[BenchResult], pins: dict[str, str],
                    strict: bool = False) -> list[BenchVerdict]:
    """Verdict for every result, plus ``missing`` pins when ``strict``.

    Pass ``strict=True`` only for unfiltered runs.
    """
    verdicts = [verdict_for(result, pins, strict) for result in results]
    if strict:
        ran = {result.name for result in results}
        verdicts += [BenchVerdict(name=name, pin="missing", failed=True,
                                  detail="pinned but not discovered")
                     for name in sorted(set(pins) - ran)]
    return verdicts


def update_baseline(results: list[BenchResult],
                    path: Path) -> dict[str, str]:
    """Merge ``results``' hashes into the pins at ``path`` (create if absent).

    Benches that raised are skipped; pins of benches that did not run
    are kept untouched.
    """
    path = Path(path)
    pins = load_pins(path) if path.exists() else {}
    for result in results:
        if result.error is None:
            pins[result.name] = result.output_sha256
    atomic_write_text(path, json.dumps(dict(sorted(pins.items())),
                                       indent=2) + "\n")
    return pins
