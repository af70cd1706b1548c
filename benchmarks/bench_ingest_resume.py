"""Streaming ingestion + crash-recovery latency bench.

Measures the three costs the crash-safe event loop adds on top of the
batch pipeline, on a deterministic small corpus:

* **ingest throughput** — journal + apply + incremental rebuild +
  checkpoint, batched, for a one-month arrival stream;
* **clean-resume latency** — reopening the state directory when nothing
  is outstanding (corpus load + suffix replay + digest certification,
  no rebuild);
* **crash-resume latency** — recovery after a simulated crash that
  journaled a suffix but died before rebuilding (the WAL-replay +
  rebuild path a real restart takes).

Wall-clock numbers land in the telemetry summary as notes; the returned
dict carries only deterministic outputs (digests and counts) so the
perf-regression harness can golden-guard them.
"""

from __future__ import annotations

import time

from repro.stream.chaos import chaos_events
from repro.stream.ingest import StreamIngester
from repro.synthesis.organization import OrganizationSynthesizer, SynthesisSpec
from repro.runtime.telemetry import TELEMETRY

BENCH_SPEC = SynthesisSpec(n_networks=6, n_months=4, seed=13)
BATCH_SIZE = 32


def run(ctx):
    """Digests and counts of an ingest, a clean resume and a crash resume."""
    base, payloads = chaos_events(OrganizationSynthesizer(BENCH_SPEC).build())
    root = ctx.tmp_dir()

    with ctx.env(MPA_JOBS="1"):
        ing = StreamIngester.create(root / "state", base,
                                    batch_size=BATCH_SIZE)
        started = time.perf_counter()
        result = ing.ingest(payloads)
        t_ingest = time.perf_counter() - started
        assert result.applied == len(payloads)
        assert not StreamIngester(root / "state")._needs_rebuild()

        started = time.perf_counter()
        clean = StreamIngester(root / "state")
        clean_resume = clean.resume()
        t_clean = time.perf_counter() - started
        assert clean_resume.batches == 0

        # simulated crash: a predecessor journaled one more batch but
        # died before rebuilding — recovery replays it and re-lands
        fresh = StreamIngester.create(root / "crash", base,
                                      batch_size=BATCH_SIZE)
        fresh.ingest(payloads[:-BATCH_SIZE])
        for payload in payloads[-BATCH_SIZE:]:
            fresh.wal.append(payload)
        fresh.wal.sync()
        started = time.perf_counter()
        recovered = StreamIngester(root / "crash")
        crash_resume = recovered.resume()
        t_crash = time.perf_counter() - started
        assert crash_resume.batches == 1
        assert crash_resume.dataset_digest == result.dataset_digest

    events_per_second = len(payloads) / t_ingest if t_ingest else 0.0
    TELEMETRY.note(
        "ingest_throughput",
        f"{events_per_second:.0f} events/s "
        f"({len(payloads)} events, {result.batches} batches, "
        f"{t_ingest:.2f}s)",
    )
    TELEMETRY.note(
        "resume_latency",
        f"clean {t_clean * 1000:.0f}ms / crash {t_crash * 1000:.0f}ms "
        f"(one-batch WAL suffix)",
    )
    return {
        "events": len(payloads),
        "batches": int(result.batches),
        "dead_letters": int(result.dead_letters),
        "dataset_sha256": result.dataset_digest,
        "crash_resume_batches": int(crash_resume.batches),
    }


def claims(result):
    return {"streaming ingest: a clean arrival stream dead-letters nothing":
            result["dead_letters"] == 0}
