"""Shared plumbing for the benchmark workloads.

Paths, the program's import path, set-up probes, percentiles and the
per-run outcome every workload returns.  Nothing here imports ``repro``
at module load: ``run.py`` first checks that the source tree is present.
"""

from __future__ import annotations

import hashlib
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: The checkout root: the benchmark directory's parent.
ROOT = Path(__file__).resolve().parent.parent

#: The program under test, imported from source.
SRC = ROOT / "src"

#: Everything the benchmark writes lives under here (ignored by git).
BUILD = ROOT / ".bench_build" / "perfbench"

#: The benchmark-owned native build cache, warmed before any timed run.
NATIVE_CACHE = BUILD / "native"

#: Set-up probes per run; ``setup_s`` is their median.
SETUP_REPEATS = 5


def child_env() -> dict:
    """Environment for every process the benchmark starts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_NATIVE_CACHE"] = str(NATIVE_CACHE)
    return env


@dataclass
class Outcome:
    """What one workload run produced.

    Attributes:
        attempted: operations attempted (runs, passes, messages).
        failed: operations that errored, were refused, timed out, or
            whose output failed the correctness check.
        metrics: end-to-end metric name -> (value, unit).
        layers: per-layer metric name -> (value, unit); filled by
            traced runs only.
        notes: human-readable lines printed before the JSON result.
    """

    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        """Count one operation; a failed check is recorded and noted."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"CHECK FAILED: {what}")


def percentile(values, q: float) -> float:
    """The *q*-th percentile (0-100), linear interpolation."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values) -> float:
    return float(statistics.median(values))


def peak_rss_mb() -> float:
    """This process's peak resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def probe_setup(workload: str, seed: int) -> list[float]:
    """Seconds from spawning a fresh interpreter to the program being
    ready for *workload* (imports, kernel-tier load, graph/source
    build), ``SETUP_REPEATS`` times."""
    script = Path(__file__).with_name("probe.py")
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(script), workload, str(seed)],
            stdout=subprocess.PIPE,
            env=child_env(),
            text=True,
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
        finally:
            proc.stdout.close()
            code = proc.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe for {workload} failed (exit {code})")
        times.append(elapsed)
    return times
