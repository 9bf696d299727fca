"""Filesystem-recoverable campaign orchestration as a task DAG.

This subsystem runs every multi-arm sweep as a task graph: every
dataset, fault realization, arm score, aggregate, and figure table is
a :class:`TaskNode` with a declared, content-addressed output
artifact, a :class:`TaskGraph` wires them with cycle detection
and derived-key chaining, and a :class:`DagScheduler` walks the graph
in ready-set waves on the :class:`~repro.runtime.Executor` seam.

State is never held in memory between runs: the scheduler reconstructs
completion from the artifact store (one output artifact per node,
payload-hash verified), so a killed campaign resumes exactly at the
frontier and replays bit-identically.  See docs/ORCHESTRATION.md for
the graph model, recovery semantics, and the backend seam.

``repro.dag.report`` (imported explicitly, not re-exported here — it
pulls in every experiment module) materializes the paper's full
reproduction as one graph behind the ``repro report`` CLI.
"""

from repro.dag.build import (
    Arm,
    DatasetSpec,
    FaultSpec,
    add_arm_sweep,
    add_pipeline_nodes,
    aggregate_means,
    aggregate_values,
    json_artifact,
    json_payload,
    pristine_key,
    realization_key,
)
from repro.dag.graph import TaskGraph
from repro.dag.node import NODE_KINDS, TaskContext, TaskNode
from repro.dag.scheduler import DagScheduler, DagSurvey

__all__ = [
    "Arm",
    "DagScheduler",
    "DagSurvey",
    "DatasetSpec",
    "FaultSpec",
    "NODE_KINDS",
    "TaskContext",
    "TaskGraph",
    "TaskNode",
    "add_arm_sweep",
    "add_pipeline_nodes",
    "aggregate_means",
    "aggregate_values",
    "json_artifact",
    "json_payload",
    "pristine_key",
    "realization_key",
]
