"""Serve smoke check: boot ``mpa serve``, hit every endpoint, stop it.

Launches the real CLI in a subprocess against a throwaway tiny
workspace, parses the listening line for the ephemeral port, and
requires:

1. **every endpoint family answers** — ``/query`` (rows, aggregate,
   count), ``/top``, ``/pairs``, ``/causal``, ``/whatif`` (both
   attribution and scenario modes), ``/predict``, ``/quality``,
   ``/healthz``, ``/statsz`` all return 200 with the expected
   top-level schema;
2. **the result cache works over the wire** — a repeated identical
   query reports ``meta.cached: true`` and ``/statsz`` counts the hit;
3. **errors stay typed** — an unknown column is a 400 naming the
   nearest valid column, never a 500;
4. **shutdown is clean** — SIGTERM drains the server, the process
   exits 0, and the final stats table reaches stdout.

Exercised in CI next to the fused-path smoke; run locally via
``make serve-smoke``.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
BOOT_TIMEOUT = 120.0  # tiny-scale workspace build happens on first boot

#: (path, required top-level keys) — every endpoint family
CHECKS = [
    ("/healthz", {"status", "store_digest", "rows", "networks"}),
    ("/query?columns=n_devices&limit=3",
     {"total_rows", "returned_rows", "columns", "rows"}),
    ("/query?columns=n_devices&aggregate=sum&by=network",
     {"aggregate", "column", "by", "result"}),
    ("/query?count=1", {"count"}),
    ("/top?k=3", {"k", "practices"}),
    ("/pairs?k=2", {"k", "pairs"}),
    ("/causal?treatment=n_change_events",
     {"treatment", "comparisons", "skipped_points"}),
    ("/whatif?network=worst&limit=3",
     {"mode", "network", "window", "alpha", "causes"}),
    ("/whatif?network=worst&practice=n_change_events",
     {"mode", "network", "practice", "effect", "p_value", "trajectory"}),
    ("/predict?history=2",
     {"history_months", "scheme", "monthly_accuracy", "mean_accuracy"}),
    ("/quality", {"available"}),
    ("/statsz", {"cache", "endpoints", "reloads", "requests_total"}),
]


def _fetch(base: str, path: str):
    try:
        with urllib.request.urlopen(base + path, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _fail(proc: subprocess.Popen, message: str) -> int:
    print(f"FAIL: {message}", file=sys.stderr)
    if proc.poll() is None:
        proc.kill()
    out, _ = proc.communicate(timeout=10)
    print("--- server output ---", file=sys.stderr)
    print(out, file=sys.stderr)
    return 1


def run() -> int:
    with tempfile.TemporaryDirectory(prefix="mpa-serve-smoke-") as tmp:
        env = dict(os.environ)
        env["MPA_CACHE_DIR"] = str(Path(tmp) / "cache")
        env["MPA_SCALE"] = "tiny"
        env["PYTHONPATH"] = f"{SRC}{os.pathsep}" + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            # first line after the (possible) build: the listening URL
            deadline = time.monotonic() + BOOT_TIMEOUT
            base = None
            while time.monotonic() < deadline:
                line = proc.stdout.readline()
                if not line:
                    break
                match = re.search(r"listening on (http://[\d.]+:\d+)", line)
                if match:
                    base = match.group(1)
                    break
            if base is None:
                return _fail(proc, "no listening line before timeout")

            for path, required in CHECKS:
                status, body = _fetch(base, path)
                if status != 200:
                    return _fail(proc, f"GET {path} -> {status}: {body}")
                missing = required - set(body)
                if missing:
                    return _fail(proc,
                                 f"GET {path}: missing keys {missing}")
            print(f"ok: {len(CHECKS)} endpoint checks against {base}")

            # repeated identical query must be a cache hit
            status, body = _fetch(base, "/top?k=3")
            if status != 200 or body["meta"]["cached"] is not True:
                return _fail(proc, f"repeat /top not cached: {body}")
            status, stats = _fetch(base, "/statsz")
            if stats["cache"]["hits"] < 1:
                return _fail(proc, f"/statsz shows no cache hit: {stats}")
            print(f"ok: repeat query cached "
                  f"(hits={stats['cache']['hits']})")

            # typed 400, not a 500, on a bad column
            status, body = _fetch(base,
                                  "/query?columns=n_devicez&aggregate=sum")
            if status != 400 or "did you mean" not in body.get("error", ""):
                return _fail(proc, f"bad column -> {status}: {body}")
            print("ok: unknown column is a clean 400 with a suggestion")

            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=30)
            if proc.returncode != 0:
                print(f"FAIL: server exited {proc.returncode} on SIGTERM",
                      file=sys.stderr)
                print(out, file=sys.stderr)
                return 1
            if "mpa serve telemetry" not in out:
                print("FAIL: no final stats table on stdout",
                      file=sys.stderr)
                print(out, file=sys.stderr)
                return 1
            print("ok: SIGTERM -> exit 0 with final stats table")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=10)
    print("serve smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(run())
