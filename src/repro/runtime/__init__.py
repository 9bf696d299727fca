"""Parallel campaign execution runtime: sharded trials, pluggable
serial/thread/process backends, store-backed resume, and telemetry.

The paper's evaluation averages every data point over many
independently seeded trials (Figure 5 uses 100 datasets per point).
This subsystem makes that loop a scheduling problem: a
:class:`TrialPlan` derives per-trial seeds via
``SeedSequence.spawn`` and splits them into shards, an
:class:`Executor` backend runs the shards (in-process, across threads,
across a process pool, or across cluster workers), completed shards
are recorded in the runtime's :class:`~repro.cache.ArtifactCache` so
an interrupted campaign resumes where it stopped, and a
:class:`Telemetry` hub reports per-shard timing and throughput.
Results are bit-identical across backends, shard sizes, and
interrupt/resume cycles.

Multi-arm sweeps do not run here directly: they are task graphs
(:func:`repro.dag.add_arm_sweep`) scheduled by
:class:`repro.dag.DagScheduler` on the same :class:`Executor` seam, so
generation and injection run once per trial and every arm scores the
same artifacts.
"""

from repro.runtime.backend import (
    BACKEND_CHOICES,
    Executor,
    ProcessPoolBackend,
    SerialBackend,
    ThreadPoolBackend,
    ShardResult,
    default_start_method,
    resolve_backend,
)
from repro.runtime.executor import TrialRuntime
from repro.runtime.plan import Shard, TrialPlan, default_shard_size
from repro.runtime.telemetry import (
    DagCompleted,
    DagStarted,
    NodeCompleted,
    ProgressPrinter,
    RunCompleted,
    RunStarted,
    ShardCompleted,
    Telemetry,
)

__all__ = [
    "BACKEND_CHOICES",
    "DagCompleted",
    "DagStarted",
    "Executor",
    "NodeCompleted",
    "ProcessPoolBackend",
    "ProgressPrinter",
    "RunCompleted",
    "RunStarted",
    "SerialBackend",
    "ThreadPoolBackend",
    "Shard",
    "ShardCompleted",
    "ShardResult",
    "Telemetry",
    "TrialPlan",
    "TrialRuntime",
    "default_shard_size",
    "default_start_method",
    "resolve_backend",
]
