"""``report``: a cold ``repro report`` DAG run, then warm replays.

The fig2 + fig4 + motivation report graph (295 nodes) runs serially
through ``build_report_graph`` + ``DagScheduler.run`` into a fresh
on-disk ``ArtifactCache``; then the same graph is replayed ``REPLAYS``
times, each with a fresh cache object on the same store.  A replay is
the path a killed ``repro report`` takes when restarted: a survey that
verifies every artifact, then one load of the panels.

This is the only workload that exercises ``repro.dag`` and the disk tier
of ``repro.cache``; it bypasses ``repro.stream`` and ``repro.serve``.
The campaign is the paper's fixed one (its seeds are the experiments'
defaults), so ``--seed`` does not change its inputs: the panels must
hash to the committed reference every time.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from collections import Counter
from pathlib import Path

from repro.cache import ArtifactCache
from repro.dag import DagScheduler
from repro.dag.report import PANELS_NODE, build_report_graph
from repro.runtime.backend import Executor, SerialBackend
from repro.runtime.telemetry import NodeCompleted, Telemetry

from benchlib import (
    BUILD,
    Outcome,
    median,
    peak_rss_mb,
    percentile,
    probe_setup,
    sha256_bytes,
)
from tracing import (
    Tracer,
    install_attr,
    install_io_counters,
    install_native,
    layer_table,
    native_layers,
    uninstall,
)

#: The experiments in the report graph.
REPORT_IDS = ("fig2", "fig4", "motivation")

#: Warm replays after each cold run; ``resume_ms`` is their median.
REPLAYS = 10

#: Cold runs per run, at least, however short ``--seconds`` is.
MIN_COLD = 3

#: SHA-256 of the canonical panels JSON, recorded by record_reference.py.
REFERENCE = Path(__file__).with_name("reference.json")

NODE_KINDS = ("dataset", "fault", "score", "aggregate", "figure", "experiment")


def build_graph():
    """The report graph, validated (part of set-up)."""
    graph = build_report_graph(REPORT_IDS)
    graph.validate()
    return graph


def panels_sha256(artifact) -> str:
    """Hash of the panels artifact's canonical JSON bytes."""
    return sha256_bytes(bytes(artifact.arrays["json"]))


def reference_sha256() -> str:
    return json.loads(REFERENCE.read_text())["report_panels_sha256"]


class _Nodes:
    """Telemetry subscriber collecting ``NodeCompleted`` events."""

    def __init__(self) -> None:
        self.events = []

    def __call__(self, event) -> None:
        if isinstance(event, NodeCompleted):
            self.events.append(event)


def dag_run(graph, store: Path, backend=None, nodes: _Nodes | None = None):
    """One scheduler run on a fresh cache over *store*; (seconds, panels, cache)."""
    telemetry = None
    if nodes is not None:
        telemetry = Telemetry()
        telemetry.subscribe(nodes)
    cache = ArtifactCache(directory=store)
    scheduler = DagScheduler(
        cache=cache, backend=backend or SerialBackend(), telemetry=telemetry
    )
    t0 = time.perf_counter()
    outputs = scheduler.run(graph, targets=(PANELS_NODE,))
    elapsed = time.perf_counter() - t0
    return elapsed, outputs[PANELS_NODE], cache


class _Traced:
    """The wrappers of a traced iteration, installed on enter."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer

    def __enter__(self):
        t = self.tracer
        self.restores = [
            install_native(t),
            install_io_counters(t),
            install_attr(ArtifactCache, "put", t.wrap(ArtifactCache.put, "cache.put")),
            install_attr(ArtifactCache, "get", t.wrap(ArtifactCache.get, "cache.get")),
            install_attr(
                ArtifactCache,
                "contains",
                t.wrap(ArtifactCache.contains, "cache.contains"),
            ),
            install_attr(
                DagScheduler, "survey", t.wrap(DagScheduler.survey, "dag.survey")
            ),
        ]
        return self

    def __exit__(self, *exc) -> None:
        uninstall(self.restores)


def _count_cache(tracer, cache) -> None:
    for name, value in cache.counters().items():
        tracer.count(f"cache.{name}", value)


def _traced_backend(tracer):
    """A serial backend that records each node's shard as a span."""
    class TracedSerial(Executor):
        def __init__(self) -> None:
            self.inner = SerialBackend()

        def run_shards(self, shard_fn, shards):
            return self.inner.run_shards(tracer.wrap(shard_fn, "dag.node"), shards)

    return TracedSerial()


class _Iterations:
    """Accumulates cold runs and replays, checking every panels hash."""

    def __init__(self, graph, outcome: Outcome, reference: str) -> None:
        self.graph = graph
        self.outcome = outcome
        self.reference = reference
        self.cold_s: list[float] = []
        self.replay_s: list[float] = []
        self.node_s: list[float] = []
        self.n_nodes = 0
        self.traced_events = []
        self.root = BUILD / "report" / f"run-{os.getpid()}"
        self.count = 0

    def one(self, tracers=None) -> float:
        """One cold run plus its replays; returns their summed seconds.

        With *tracers* ``(cold, resume)`` the iteration runs traced and
        its timings are not added to the end-to-end samples.
        """
        self.count += 1
        store = self.root / f"store-{self.count}"
        shutil.rmtree(store, ignore_errors=True)
        nodes = _Nodes()
        try:
            if tracers is None:
                cold, panels, _ = dag_run(self.graph, store, nodes=nodes)
            else:
                with _Traced(tracers[0]), tracers[0].span("report.cold"):
                    cold, panels, cache = dag_run(
                        self.graph, store, _traced_backend(tracers[0]), nodes
                    )
                _count_cache(tracers[0], cache)
            self.outcome.check(
                panels_sha256(panels) == self.reference, "cold panels hash"
            )
            ran = [e for e in nodes.events if not e.from_store]
            self.outcome.check(
                len(ran) == len(nodes.events) > 0, "cold run executed every node"
            )
            replays = []
            for _ in range(REPLAYS):
                if tracers is None:
                    seconds, panels, _ = dag_run(self.graph, store)
                else:
                    with _Traced(tracers[1]), tracers[1].span("report.resume"):
                        seconds, panels, cache = dag_run(
                            self.graph, store, nodes=nodes
                        )
                    _count_cache(tracers[1], cache)
                replays.append(seconds)
                self.outcome.check(
                    panels_sha256(panels) == self.reference, "replay panels hash"
                )
        finally:
            shutil.rmtree(store, ignore_errors=True)
        if tracers is None:
            self.cold_s.append(cold)
            self.replay_s.extend(replays)
            self.node_s.extend(e.elapsed_s for e in ran)
            self.n_nodes = len(ran)
        else:
            self.traced_events += nodes.events
        return cold + sum(replays)

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    """One benchmark run of the ``report`` workload."""
    outcome = Outcome()
    setup = probe_setup("report", seed)
    graph = build_graph()
    iterations = _Iterations(graph, outcome, reference_sha256())
    deadline = time.perf_counter() + seconds
    try:
        if not trace:
            while len(iterations.cold_s) < MIN_COLD or time.perf_counter() < deadline:
                iterations.one()
        else:
            _traced_run(iterations, outcome, deadline, seed)
    finally:
        iterations.close()
    cold = median(iterations.cold_s)
    if not trace:
        outcome.metrics = {
            "setup_s": (median(setup), "s"),
            "throughput_per_s": (
                median([iterations.n_nodes / c for c in iterations.cold_s]),
                "1/s",
            ),
            "p50_ms": (percentile(iterations.node_s, 50) * 1e3, "ms"),
            "resume_ms": (median(iterations.replay_s) * 1e3, "ms"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
    outcome.notes[:0] = [
        f"report: {len(iterations.cold_s)} cold runs of {iterations.n_nodes} nodes, "
        f"cold_s median {cold:.4f}; {len(iterations.replay_s)} replays, "
        f"resume_s median {median(iterations.replay_s):.5f}; "
        f"{len(iterations.node_s)} node latencies, p99 "
        f"{percentile(iterations.node_s, 99) * 1e3:.3f} ms",
    ]
    return outcome


def _traced_run(iterations: _Iterations, outcome: Outcome, deadline, seed) -> None:
    """Alternate untraced and traced iterations; fill the per-layer metrics."""
    cold_tracer = Tracer(f"report-{seed}-cold")
    resume_tracer = Tracer(f"report-{seed}-resume")
    untraced, traced = [], []
    while len(traced) < 2 or time.perf_counter() < deadline:
        untraced.append(iterations.one())
        traced.append(iterations.one((cold_tracer, resume_tracer)))
    n_cold = len(traced)
    n_replay = n_cold * REPLAYS
    cold_totals = cold_tracer.totals()
    resume_totals = resume_tracer.totals()
    cold_self = cold_tracer.self_times()
    lookups = cold_tracer.counters + resume_tracer.counters
    events = iterations.traced_events
    compute = Counter()
    for event in events:
        if not event.from_store:
            compute[event.kind] += event.elapsed_s

    layers = {
        "cache.puts": (cold_totals["cache.put"][0] / n_cold, "count"),
        "cache.put_s": (cold_totals["cache.put"][1] / n_cold, "s"),
        "cache.stat_calls": (cold_tracer.counters["os.stat"] / n_cold, "count"),
        "cache.bytes_written": (
            cold_tracer.counters["io.bytes_written"] / n_cold,
            "bytes",
        ),
        "cache.get_s": (resume_totals["cache.get"][1] / n_replay, "s"),
        # Lookups of one iteration: a cold run (node inputs hit memory)
        # plus its replays (each loads the panels from disk).
        "cache.hits_memory": (lookups["cache.memory_hits"] / n_cold, "count"),
        "cache.hits_disk": (lookups["cache.disk_hits"] / n_cold, "count"),
        "cache.misses": (lookups["cache.misses"] / n_cold, "count"),
        "cache.bytes_read": (
            resume_tracer.counters["io.bytes_read"] / n_replay,
            "bytes",
        ),
        "dag.survey_s": (resume_totals["dag.survey"][1] / n_replay, "s"),
        "dag.nodes_run": (sum(not e.from_store for e in events) / n_cold, "count"),
        "dag.nodes_restored": (sum(e.from_store for e in events) / n_replay, "count"),
        "dag.overhead_s": (cold_self["report.cold"] / n_cold, "s"),
    }
    for kind in NODE_KINDS:
        layers[f"dag.compute_s.{kind}"] = (compute[kind] / n_cold, "s")
    layers.update(native_layers(cold_tracer, n_cold))
    overhead = median(traced) / median(untraced) - 1.0
    layers["trace.overhead_frac"] = (overhead, "frac")
    # From the untraced cold runs of this run.
    layers["latency.p99_ms"] = (percentile(iterations.node_s, 99) * 1e3, "ms")
    outcome.layers = layers
    for tracer in (cold_tracer, resume_tracer):
        tracer.write_jsonl(BUILD / "spans" / f"{tracer.run_id}.jsonl")
    outcome.notes += ["cold run (all traced cold runs):"]
    outcome.notes += layer_table(cold_tracer, "report.cold")
    outcome.notes += ["warm replays (all traced replays):"]
    outcome.notes += layer_table(resume_tracer, "report.resume")
    traced_wall = cold_totals["report.cold"][1] + resume_totals["report.resume"][1]
    outcome.notes.append(
        f"self times sum to {traced_wall / n_cold:.4f} s per iteration (traced); "
        f"untraced iteration median {median(untraced):.4f} s; "
        f"trace.overhead_frac {overhead:+.4f}"
    )

