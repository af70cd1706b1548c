"""One step of a workload in a fresh interpreter.

    python -m perf.child '<request JSON>'

The request names the step and its inputs. The child writes a JSON
result to ``request["result"]``: the ``CLOCK_MONOTONIC`` stamps of its
timed call (``t_start``/``t_end``), the step's outputs for the
correctness gate, the content-memo counters and, when traced, its spans.
Everything before ``t_start`` — interpreter start, imports, wrapper
installation, any open the program does before the verb's call — is the
step's set-up.

Every child imports :data:`perf.layers.PRELOAD` before timing, traced or
not, so a traced child does no extra import work inside its timed call.
A set-up probe (``"setup_only": true``) exits where the timed call would
start.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

from perf import inputs
from perf.layers import SERVE_ROOT
from perf.tracing import Tracer, install, preload


class _SetupOnly(Exception):
    """Raised at the timed call of a set-up probe, which ends there."""


class _Clock:
    """Stamps the timed call; snapshots spans and memo counters at its end,
    so the output digests computed afterwards stay out of the layers."""

    def __init__(self, step: str, tracer, setup_only: bool) -> None:
        self.step = step
        self.tracer = tracer
        self.setup_only = setup_only
        self.stamps: dict[str, float] = {}
        self.snapshot: dict = {}

    @contextmanager
    def timed(self):
        span = (self.tracer.span(f"step.{self.step}") if self.tracer
                else nullcontext())
        self.stamps["t_start"] = time.monotonic()
        if self.setup_only:
            self.stamps["t_end"] = self.stamps["t_start"]
            raise _SetupOnly
        with span:
            yield
        self.stamps["t_end"] = time.monotonic()
        self.snapshot = _snapshot(self.tracer)


def _workspace(request: dict):
    from repro.core.workspace import Workspace
    return Workspace(inputs.SCALE, request["seed"],
                     Path(request["cache_dir"]))


def _events(request: dict) -> list[bytes]:
    from repro.stream.ingest import read_events_file
    payloads = [payload for _, payload in
                read_events_file(request["arrivals"])]
    return payloads[request["start"]:request["stop"]]


def step_build(request: dict, clock: _Clock) -> dict:
    """``mpa synthesize`` with the corpus already on disk."""
    from repro.store import CorpusStore
    from repro.stream.checkpoint import dataset_digest
    workspace = _workspace(request)
    with clock.timed():
        workspace.ensure()
    return {"digest": CorpusStore.open(workspace.dataset_path).digest(),
            "dataset_digest": dataset_digest(workspace.dataset())}


def step_extend(request: dict, clock: _Clock) -> dict:
    """The calls ``mpa extend --months 1`` makes."""
    from repro.core.online import predict_extension
    from repro.stream.checkpoint import dataset_digest
    extended = _workspace(request).extended(1)
    with clock.timed():
        extended.ensure()
        result = predict_extension(extended.dataset(), 1)
    return {"digest": dataset_digest(extended.dataset()),
            "accuracy": list(result.monthly_accuracy)}


def step_ingest(request: dict, clock: _Clock) -> dict:
    """``StreamIngester.ingest`` of a slice of the arrivals (open untimed)."""
    from repro.stream.ingest import StreamIngester
    payloads = _events(request)
    ingester = StreamIngester(request["state_dir"])
    with clock.timed():
        result = ingester.ingest(payloads)
    return {"digest": result.dataset_digest, "batches": result.batches,
            "applied": result.applied}


def step_resume(request: dict, clock: _Clock) -> dict:
    """``mpa resume``: open (WAL replay) plus resume, both timed."""
    from repro.stream.ingest import StreamIngester
    with clock.timed():
        result = StreamIngester(request["state_dir"]).resume()
    return {"digest": result.dataset_digest, "batches": result.batches}


def step_analyze(request: dict, clock: _Clock) -> dict:
    """``mpa report`` plus Table 9 online accuracy at M=3, 2 and 5 classes."""
    from repro.core.online import online_prediction_accuracy
    from repro.core.prediction import FIVE_CLASS, TWO_CLASS
    from repro.reporting.report import generate_report
    workspace = _workspace(request)
    with clock.timed():
        text = generate_report(workspace)
        dataset = workspace.dataset()
        accuracy = [
            list(online_prediction_accuracy(
                dataset, 3, scheme=scheme,
                variant="dt+ab+os").monthly_accuracy)
            for scheme in (TWO_CLASS, FIVE_CLASS)
        ]
    return {"report_sha256": hashlib.sha256(text.encode()).hexdigest(),
            "accuracy": accuracy}


def step_serve(request: dict, clock: _Clock) -> dict:
    """``mpa serve --port 0`` until SIGTERM (the parent times requests)."""
    from repro.cli import main as cli_main
    return {"exit_code": cli_main(["serve", "--scale", inputs.SCALE,
                                   "--port", "0"])}


STEPS = {
    "build": step_build,
    "extend": step_extend,
    "ingest": step_ingest,
    # same call as ingest; the parent sets MPA_FAULT_KILL_AT_POINT
    "kill": step_ingest,
    "resume": step_resume,
    "analyze": step_analyze,
    "serve": step_serve,
}


#: content memos whose (hits, misses) every child reports
MEMOS = {"parse": ("repro.confparse.registry", "PARSE_MEMO"),
         "diff": ("repro.confparse.diff", "DIFF_MEMO"),
         "feature": ("repro.metrics.design", "FEATURE_MEMO")}


def _snapshot(tracer) -> dict:
    """Content-memo counters and, when traced, the spans so far (a memo
    a refactor removed reads as no activity)."""
    memos = {}
    for name, (module, attr) in MEMOS.items():
        memo = getattr(sys.modules.get(module), attr, None)
        memos[name] = memo.stats() if memo is not None else (0, 0)
    out = {"memos": memos}
    if tracer is not None:
        out["trace"] = tracer.export()
    return out


def _peak_rss_mb() -> float:
    """This process's RSS high-water mark since exec (``VmHWM``).

    ``ru_maxrss`` as the parent sees it would also count the parent's
    image the child was forked from, before exec replaced it.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


def main(argv: list[str] | None = None) -> int:
    request = json.loads((sys.argv[1:] if argv is None else argv)[0])
    preload()
    inputs.register_scale()
    step = request["step"]
    tracer = None
    if request["trace"]:
        tracer = Tracer(roots={f"step.{step}", SERVE_ROOT})
        install(tracer)
    clock = _Clock(step, tracer, request.get("setup_only", False))
    try:
        out = STEPS[step](request, clock)
    except _SetupOnly:
        out = {}
    out.update(clock.stamps)
    out.update(clock.snapshot or _snapshot(tracer))
    out["peak_rss_mb"] = _peak_rss_mb()
    Path(request["result"]).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
