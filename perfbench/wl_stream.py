"""``stream_small`` and ``stream_large``: one single-threaded StreamPipeline.

Stages: ``SyntheticWalkSource`` -> ``InjectStage(UncorrelatedFaultModel(0.01))``
-> ``VoterStage(stack_frames=32)``, chunk 64, uint16 frames.

* ``stream_small``: 64-coordinate frames.  Per-frame overhead dominates:
  the per-bit draws of ``uncorrelated_flip_mask`` and one
  ``SeedSequence`` per frame in injection and in the source.
* ``stream_large``: 256x256 frames.  The work moves to ``repro.core``
  voting and the ``repro.native`` GRT/unanimous vote kernels.

A run repeats *passes* over the seed's fixed stream of ``PASS_FRAMES``
frames, each through a freshly built pipeline, for ``--seconds``.  Every
pass's output digest and exact Psi pair must equal the ``run_batch``
oracle, computed once per run after the timed work.  Resume: the
pipeline is checkpointed half way (untimed), then restored from its
chunk-boundary ``StreamCheckpoint`` ``RESTORES_PER_PASS`` times after
every pass; one more restored pipeline is run to the end and must also
match the oracle.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import time

import numpy as np
from repro.faults import UncorrelatedFaultModel
from repro.stream import (
    InjectStage,
    StreamCheckpoint,
    StreamPipeline,
    SyntheticWalkSource,
    VoterStage,
    run_batch,
)

from benchlib import BUILD, Outcome, median, peak_rss_mb, percentile, probe_setup
from tracing import (
    Tracer,
    install_attr,
    install_native,
    layer_table,
    native_layers,
    uninstall,
)

SHAPES = {"stream_small": (64,), "stream_large": (256, 256)}

#: Frames per pass: ~1.3 s (small) and ~2 s (large) on a 2-CPU box.
PASS_FRAMES = {"stream_small": 8192, "stream_large": 128}

CHUNK_FRAMES = 64
STACK_FRAMES = 32
GAMMA = 0.01

#: Timed passes per run, at least, however short ``--seconds`` is.
MIN_PASSES = 3

#: Checkpoint restores after each timed pass; ``resume_ms`` is their median.
RESTORES_PER_PASS = 3


def stream_seeds(seed: int) -> tuple[int, int]:
    """(walk seed, inject seed) derived from the workload seed."""
    walk, inject = np.random.SeedSequence(seed).generate_state(2)
    return int(walk), int(inject)


def build_pipeline(workload: str, seed: int, sink=None, checkpoint=None):
    """The workload's pipeline over the seed's fixed stream."""
    walk, inject = stream_seeds(seed)
    source = SyntheticWalkSource(
        SHAPES[workload], seed=walk, n_frames=PASS_FRAMES[workload]
    )
    stages = [
        InjectStage(UncorrelatedFaultModel(GAMMA), seed=inject),
        VoterStage(stack_frames=STACK_FRAMES),
    ]
    return StreamPipeline(
        source, stages, chunk_frames=CHUNK_FRAMES, sink=sink, checkpoint=checkpoint
    )


class _Tap:
    """Pipeline sink: incremental output digest plus per-frame latency.

    A frame's latency runs from the start of the ``step`` that pulled it
    to the sink call that emitted its corrected output.  A tap continuing
    another tap's *digest* (a resumed pipeline) records no latencies.
    """

    def __init__(self, digest=None) -> None:
        self.track = digest is None
        self.digest = hashlib.sha256() if digest is None else digest
        self.pulled_at: list[float] = []
        self.latencies: list[np.ndarray] = []
        self.n_out = 0

    def __call__(self, chunk: np.ndarray) -> None:
        now = time.perf_counter()
        self.digest.update(np.ascontiguousarray(chunk).tobytes())
        k = chunk.shape[0]
        if self.track:
            chunks = np.arange(self.n_out, self.n_out + k) // CHUNK_FRAMES
            self.latencies.append(now - np.asarray(self.pulled_at)[chunks])
        self.n_out += k


def _drive(pipeline, tap: _Tap):
    """Run *pipeline* to exhaustion one step at a time; returns the result."""
    pipeline.resume()
    pipeline.announce()
    while True:
        tap.pulled_at.append(time.perf_counter())
        if pipeline.step() == 0:
            tap.pulled_at.pop()
            break
    return pipeline.finalize()


class _Oracle:
    """``run_batch`` of the same stream and stages: digest and exact Psi."""

    def __init__(self, workload: str, seed: int) -> None:
        pipeline = build_pipeline(workload, seed)
        batch = run_batch(pipeline.source, pipeline.stages)
        self.digest = hashlib.sha256(
            np.ascontiguousarray(batch.output).tobytes()
        ).hexdigest()
        self.psi = (batch.psi_no_preprocessing, batch.psi_algorithm)
        self.n_frames = batch.n_frames

    def matches(self, digest: str, result) -> bool:
        return (
            digest == self.digest
            and (result.psi_no_preprocessing, result.psi_algorithm) == self.psi
            and result.n_frames_out == self.n_frames
        )


def _pass(workload, seed, tracer=None):
    """One timed pass; returns (seconds, tap, result)."""
    tap = _Tap()
    pipeline = build_pipeline(workload, seed, sink=tap)
    restores = []
    if tracer is not None:
        restores = _install(tracer, pipeline, tap)
    try:
        t0 = time.perf_counter()
        if tracer is None:
            result = _drive(pipeline, tap)
        else:
            with tracer.span("stream.pass"):
                result = _drive(pipeline, tap)
        elapsed = time.perf_counter() - t0
    finally:
        uninstall(restores)
    return elapsed, tap, result


def _install(tracer, pipeline, tap):
    """Instance wrappers for a traced pass (plus the kernel dispatch)."""
    inject, voter = pipeline.stages
    return [
        install_native(tracer),
        install_attr(
            pipeline.source, "read", tracer.wrap(pipeline.source.read, "stream.source")
        ),
        install_attr(inject, "process", tracer.wrap(inject.process, "stream.inject")),
        install_attr(voter, "process", tracer.wrap(voter.process, "stream.voter")),
        install_attr(voter, "flush", tracer.wrap(voter.flush, "stream.voter")),
        install_attr(pipeline, "sink", tracer.wrap(tap, "bench.sink")),
    ]


class _Resumer:
    """A pipeline checkpointed half way (untimed), restored on demand.

    The restores are spread between the timed passes: a restore takes a
    few milliseconds, and back to back they share one allocator and
    cache state, which can hold a whole run fast or slow.
    """

    def __init__(self, workload: str, seed: int) -> None:
        self.workload, self.seed = workload, seed
        self.root = BUILD / "stream" / f"run-{os.getpid()}"
        shutil.rmtree(self.root, ignore_errors=True)
        self.checkpoint = StreamCheckpoint(self.root / "checkpoint.jsonl")
        self.head = _Tap(hashlib.sha256())
        self.half = PASS_FRAMES[workload] // CHUNK_FRAMES // 2
        build_pipeline(
            workload, seed, sink=self.head, checkpoint=self.checkpoint
        ).run(limit_chunks=self.half)
        self.times: list[float] = []
        self.restored: list[bool] = []

    def restore(self, finish: bool = False):
        """Time one restore; with *finish*, also run the restored pipeline
        to the end and return its (digest, result), which must equal an
        uninterrupted pass."""
        tail = _Tap(self.head.digest.copy())
        pipeline = build_pipeline(
            self.workload, self.seed, sink=tail, checkpoint=self.checkpoint
        )
        t0 = time.perf_counter()
        frames = pipeline.resume()
        self.times.append(time.perf_counter() - t0)
        self.restored.append(frames == self.half * CHUNK_FRAMES)
        if finish:
            pipeline.checkpoint = None  # write no further records
            result = _drive(pipeline, tail)
            return tail.digest.hexdigest(), result
        return None

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


def run(workload: str, seed: int, seconds: float, trace: bool) -> Outcome:
    """One benchmark run of ``stream_small`` or ``stream_large``.

    Outputs are checked against the oracle after every timing, and after
    the peak RSS is read, so the batch oracle's memory is not counted.
    """
    outcome = Outcome()
    setup = probe_setup(workload, seed)
    n = PASS_FRAMES[workload]
    deadline = time.perf_counter() + seconds
    if trace:
        finished = _traced_run(workload, seed, outcome, deadline)
    else:
        rates, latencies, finished = [], [], []
        resumer = _Resumer(workload, seed)
        try:
            while len(rates) < MIN_PASSES or time.perf_counter() < deadline:
                elapsed, tap, result = _pass(workload, seed)
                rates.append(n / elapsed)
                latencies.extend(tap.latencies)
                finished.append((tap.digest.hexdigest(), result))
                for _ in range(RESTORES_PER_PASS):
                    resumer.restore()
            finished.append(resumer.restore(finish=True))
        finally:
            resumer.close()
        rss = peak_rss_mb()
        resumes = resumer.times
        for ok in resumer.restored:
            outcome.check(ok, f"{workload} restore frame")
    oracle = _Oracle(workload, seed)
    for digest, result in finished:
        outcome.check(oracle.matches(digest, result), f"{workload} run vs run_batch")
    if trace:
        return outcome
    frame_ms = np.concatenate(latencies) * 1e3
    outcome.metrics = {
        "setup_s": (median(setup), "s"),
        "throughput_per_s": (median(rates), "1/s"),
        "p50_ms": (percentile(frame_ms, 50), "ms"),
        "resume_ms": (median(resumes) * 1e3, "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    outcome.notes.append(
        f"{workload}: {len(rates)} passes of {n} frames, frames_per_s median "
        f"{median(rates):.2f}; {frame_ms.size} frame latencies over "
        f"{len(rates) * -(-n // CHUNK_FRAMES)} chunks, p99 "
        f"{percentile(frame_ms, 99):.3f} ms; {len(resumes)} resumes"
    )
    return outcome


def _traced_run(workload, seed, outcome, deadline) -> list:
    """Alternate untraced and traced passes; fill the per-layer metrics.

    Returns every pass's (digest, result) for the oracle check.
    """
    tracer = Tracer(f"{workload}-{seed}")
    untraced, traced, chunks, finished, latencies = [], [], [], [], []
    while len(traced) < 2 or time.perf_counter() < deadline:
        elapsed, tap, result = _pass(workload, seed)
        untraced.append(elapsed)
        latencies.extend(tap.latencies)
        finished.append((tap.digest.hexdigest(), result))
        elapsed, tap, result = _pass(workload, seed, tracer)
        traced.append(elapsed)
        finished.append((tap.digest.hexdigest(), result))
        chunks.append(result.n_chunks)
    n = len(traced)
    totals = tracer.totals()
    selfs = tracer.self_times()

    def inclusive(name):
        return totals.get(name, (0, 0.0))[1] / n

    overhead = median(traced) / median(untraced) - 1.0
    outcome.layers = {
        "stream.source_s": (inclusive("stream.source"), "s"),
        "stream.inject_s": (inclusive("stream.inject"), "s"),
        "stream.voter_s": (inclusive("stream.voter"), "s"),
        "stream.accounting_s": (selfs.get("stream.pass", 0.0) / n, "s"),
        "stream.chunks": (median(chunks), "count"),
        "trace.overhead_frac": (overhead, "frac"),
        # From the untraced passes of this run.
        "latency.p99_ms": (percentile(np.concatenate(latencies) * 1e3, 99), "ms"),
        **native_layers(tracer, n),
    }
    tracer.write_jsonl(BUILD / "spans" / f"{tracer.run_id}.jsonl")
    outcome.notes.append(f"{workload}: {n} traced passes (per-pass means below)")
    outcome.notes += layer_table(tracer, "stream.pass")
    outcome.notes.append(
        f"self times sum to {totals['stream.pass'][1] / n:.4f} s per pass "
        f"(traced); untraced pass median {median(untraced):.4f} s; "
        f"trace.overhead_frac {overhead:+.4f}"
    )
    return finished
