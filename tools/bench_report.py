"""Machine-readable perf trajectory for the kernel and streaming work.

Times every vectorized hot-path kernel against the ``_reference_*``
oracle it replaced (the pre-vectorization implementation, kept in-tree
as the bit-identity witness) and writes the per-kernel before/after
numbers plus an end-to-end campaign throughput figure to
``BENCH_PR2.json``.  A second report, ``BENCH_PR3.json``, covers the
``repro.stream`` subsystem: frames/sec across transport chunk sizes
(with the Ψ value recorded per run — identical by the bit-identity
contract) and peak traced allocation of the streaming path versus the
batch pipeline, demonstrating the O(chunk + window) memory bound (the
streaming peak stays flat as the stream length doubles; the batch peak
scales with it).  A third report, ``BENCH_PR7.json``, covers the
compiled kernel tier: NumPy-vs-native wall-clock per dispatched kernel
(timed by flipping ``repro.native.kernel_tier`` around the same public
entry point), the ≥2x headline-kernel regression gate, end-to-end
campaign and stream deltas per tier, and a ThreadPoolBackend shard run
demonstrating that the GIL-releasing native calls scale across
threads.

Usage::

    PYTHONPATH=src python tools/bench_report.py            # full sizes
    PYTHONPATH=src python tools/bench_report.py --quick    # CI sizes

``--quick`` shrinks problem sizes and repeat counts so the reports run
in seconds; the committed JSON files are generated at full size.
``--repeats N`` / ``--warmup N`` override the best-of-N loop count and
add untimed warmup iterations for noisy hosts.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.baselines.majority import (  # noqa: E402
    _reference_majority_vote_window,
    majority_vote_window,
)
from repro.cache import ArtifactCache  # noqa: E402
from repro.baselines.median import (  # noqa: E402
    _reference_median_smooth_spatial,
    _reference_median_smooth_temporal,
    median_smooth_spatial,
    median_smooth_temporal,
)
from repro.baselines.smoothing import (  # noqa: E402
    _reference_weighted_window_smooth,
    _weighted_window_smooth,
)
from repro.config import (  # noqa: E402
    CorrelatedFaultConfig,
    NGSTConfig,
    NGSTDatasetConfig,
)
from repro.core import bitops  # noqa: E402
from repro.core.algo_ngst import AlgoNGST  # noqa: E402
from repro.core.voter import VoterMatrix, _reference_grt  # noqa: E402
from repro.data.ngst import generate_walk  # noqa: E402
from repro.faults.campaign import Campaign  # noqa: E402
from repro.faults.correlated import (  # noqa: E402
    CorrelatedFaultModel,
    _reference_correlated_flip_grid,
    correlated_flip_grid,
)
from repro.faults.injector import FaultInjector  # noqa: E402
from repro.faults.uncorrelated import UncorrelatedFaultModel  # noqa: E402
from repro.metrics.relative_error import psi  # noqa: E402
from repro.native import kernel_tier, native_available  # noqa: E402
from repro.native import loader as native_loader  # noqa: E402
from repro.runtime import (  # noqa: E402
    ThreadPoolBackend,
    TrialRuntime,
)
from repro.otis.scan import (  # noqa: E402
    ScanConfig,
    _reference_cross_frame_preprocess,
    _reference_mosaic,
    cross_frame_preprocess,
    mosaic,
    scan_scene,
)
from repro.stream import (  # noqa: E402
    InjectStage,
    StreamPipeline,
    SyntheticWalkSource,
    VoterStage,
    run_batch,
)

SCHEMA_VERSION = 1

#: BENCH_PR3.json schema version (streaming report).
STREAM_SCHEMA_VERSION = 1

#: Keys every kernel entry must carry — mirrored by the schema smoke test.
KERNEL_KEYS = ("name", "config", "before_ms", "after_ms", "speedup")

#: Keys every streaming-throughput entry must carry.
STREAM_KEYS = ("chunk_frames", "frames_per_sec", "elapsed_s", "psi_algorithm")

#: BENCH_PR7.json schema version (native kernel tier report).
NATIVE_SCHEMA_VERSION = 1

#: BENCH_PR8.json schema version (DAG orchestrator report).
DAG_SCHEMA_VERSION = 1

#: Keys the DAG-vs-sequential section must carry.
DAG_RUN_KEYS = (
    "experiments",
    "n_nodes",
    "sequential_s",
    "dag_cold_s",
    "dag_warm_s",
    "n_run_cold",
    "n_restored_warm",
    "warm_replay_speedup",
    "bit_identical",
)

#: BENCH_PR9.json schema version (cluster backend report).
CLUSTER_SCHEMA_VERSION = 1

#: Keys every per-worker-count scaling run must carry.
CLUSTER_RUN_KEYS = (
    "workers",
    "elapsed_s",
    "speedup",
    "bit_identical",
    "bytes_sent",
    "bytes_received",
    "artifact_pulls",
    "pulled_bytes",
    "cache_hit_rate",
    "per_worker",
)

#: Keys the per-shard dispatch overhead section must carry.
CLUSTER_OVERHEAD_KEYS = (
    "n_shards",
    "serial_s",
    "cluster_s",
    "per_shard_roundtrip_ms",
    "per_shard_overhead_ms",
    "wire_bytes_per_shard",
)

#: Keys every NumPy-vs-native kernel entry must carry.
NATIVE_KERNEL_KEYS = ("name", "config", "numpy_ms", "native_ms", "speedup")

#: Keys the threaded-shard end-to-end section must carry.
THREADED_KEYS = (
    "threads",
    "n_trials",
    "numpy_serial_s",
    "native_serial_s",
    "numpy_threads_s",
    "native_threads_s",
    "native_thread_scaling",
)

#: The three headline kernels of the ≥2x regression gate.
HEADLINE_KERNELS = ("correlated_flip_grid", "voter_grt", "bit_planes")

#: BENCH_PR10.json schema version (adaptive strategies report).
STRATEGY_SCHEMA_VERSION = 1

#: Keys every static-Γ grid row must carry.
STRATEGY_GRID_KEYS = (
    "gamma",
    "n_repeats",
    "psi_fixed",
    "psi_adaptive",
    "psi_selective",
)

#: Keys the time-varying step-profile section must carry.
STRATEGY_STEP_KEYS = (
    "n_frames",
    "profile",
    "psi_fixed",
    "psi_autotune",
    "improvement",
    "lambda_trajectory",
)

#: Keys the autotuner-overhead section must carry.
STRATEGY_OVERHEAD_KEYS = (
    "n_frames",
    "plain_s",
    "autotune_s",
    "overhead_us_per_frame",
    "overhead_ratio",
)


def _time_once(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _entry(name, config, before_fn, after_fn, repeats, warmup=0):
    # Interleave the two sides so load drift on a shared machine hits
    # both equally; best-of-N discards the contended runs.
    for _ in range(warmup):
        before_fn()
        after_fn()
    before = float("inf")
    after = float("inf")
    for _ in range(repeats):
        before = min(before, _time_once(before_fn))
        after = min(after, _time_once(after_fn))
    before_ms = before * 1e3
    after_ms = after * 1e3
    return {
        "name": name,
        "config": config,
        "before_ms": round(before_ms, 4),
        "after_ms": round(after_ms, 4),
        "speedup": round(before_ms / after_ms, 3) if after_ms else float("inf"),
    }


def _bench_kernels(quick: bool, repeats: int | None = None, warmup: int = 0) -> list[dict]:
    if repeats is None:
        repeats = 3 if quick else 15
    entries = []

    # --- correlated fault grid -------------------------------------------
    side = 128 if quick else 512
    for gamma in (0.3,) if quick else (0.1, 0.3, 0.45):
        entries.append(
            _entry(
                "correlated_flip_grid",
                {"shape": [side, side], "gamma_ini": gamma},
                lambda g=gamma: _reference_correlated_flip_grid(
                    (side, side), g, np.random.default_rng(0)
                ),
                lambda g=gamma: correlated_flip_grid(
                    (side, side), g, np.random.default_rng(0)
                ),
                repeats,
                warmup,
            )
        )

    # --- voter combiners -------------------------------------------------
    n, hw = (16, 64) if quick else (32, 256)
    rng = np.random.default_rng(1)
    pixels = rng.integers(0, 2**16, size=(n, hw, hw), dtype=np.uint16)
    for upsilon in (4, 8):
        matrix = VoterMatrix(pixels, upsilon)
        voters = matrix.pruned(matrix.thresholds(0.75))
        entries.append(
            _entry(
                "voter_grt",
                {"upsilon": upsilon, "stack": [n, hw, hw]},
                lambda v=voters: _reference_grt(v),
                lambda v=voters: VoterMatrix.grt(v),
                repeats,
                warmup,
            )
        )

    # --- bit-plane transforms --------------------------------------------
    words = rng.integers(0, 2**16, size=(32, hw, hw), dtype=np.uint16)
    entries.append(
        _entry(
            "to_bit_planes",
            {"shape": list(words.shape), "dtype": "uint16"},
            lambda: bitops._reference_to_bit_planes(words),
            lambda: bitops.to_bit_planes(words),
            repeats,
            warmup,
        )
    )
    planes = bitops.to_bit_planes(words)
    entries.append(
        _entry(
            "from_bit_planes",
            {"shape": list(words.shape), "dtype": "uint16"},
            lambda: bitops._reference_from_bit_planes(planes, np.uint16),
            lambda: bitops.from_bit_planes(planes, np.uint16),
            repeats,
            warmup,
        )
    )
    values = rng.integers(0, 2**16, size=hw * hw, dtype=np.uint64)
    entries.append(
        _entry(
            "ceil_pow2",
            {"n_values": int(values.size)},
            lambda: bitops._reference_ceil_pow2(values),
            lambda: bitops.ceil_pow2(values),
            repeats,
            warmup,
        )
    )

    # --- sliding-window baselines ----------------------------------------
    stack = rng.integers(0, 2**16, size=(n, hw, hw), dtype=np.uint16)
    entries.append(
        _entry(
            "median_smooth_temporal",
            {"stack": [n, hw, hw], "window": 3},
            lambda: _reference_median_smooth_temporal(stack),
            lambda: median_smooth_temporal(stack),
            repeats,
            warmup,
        )
    )
    field = rng.integers(0, 2**16, size=(hw * 2, hw * 2), dtype=np.uint16)
    entries.append(
        _entry(
            "median_smooth_spatial",
            {"field": list(field.shape), "window": 3},
            lambda: _reference_median_smooth_spatial(field),
            lambda: median_smooth_spatial(field),
            repeats,
            warmup,
        )
    )
    entries.append(
        _entry(
            "majority_vote_window",
            {"stack": [n, hw, hw], "window": 5},
            lambda: _reference_majority_vote_window(stack, 5),
            lambda: majority_vote_window(stack, 5),
            repeats,
            warmup,
        )
    )
    weights = np.exp(-np.abs(np.arange(-2, 3)) / 1.0)
    entries.append(
        _entry(
            "weighted_window_smooth",
            {"stack": [n, hw, hw], "window": 5},
            lambda: _reference_weighted_window_smooth(stack, weights),
            lambda: _weighted_window_smooth(stack, weights),
            repeats,
            warmup,
        )
    )

    # --- overlapping-swath scan ------------------------------------------
    scan_cfg = ScanConfig(frame_rows=32, frame_cols=hw, step_rows=8)
    scene_rows = 256 if quick else 1024
    scene = rng.integers(0, 2**16, size=(scene_rows, hw), dtype=np.uint16)
    frames = scan_scene(scene, scan_cfg)
    entries.append(
        _entry(
            "cross_frame_preprocess",
            {"n_frames": len(frames), "frame": [32, hw]},
            lambda: _reference_cross_frame_preprocess(frames, scan_cfg),
            lambda: cross_frame_preprocess(frames, scan_cfg),
            max(2, repeats // 3),
            warmup,
        )
    )
    entries.append(
        _entry(
            "mosaic",
            {"n_frames": len(frames), "frame": [32, hw]},
            lambda: _reference_mosaic(frames, scan_cfg),
            lambda: mosaic(frames, scan_cfg),
            max(2, repeats // 3),
            warmup,
        )
    )
    return entries


def _bench_campaign(quick: bool) -> dict:
    """End-to-end throughput of the generate → corrupt → smooth → ψ loop."""
    n_trials = 4 if quick else 16
    side = 32 if quick else 64
    campaign = Campaign(
        generate=lambda rng: generate_walk(
            NGSTDatasetConfig(n_variants=16, sigma=25.0), rng, (side, side)
        ),
        fault_model=UncorrelatedFaultModel(0.01),
        metric=psi,
        preprocess=median_smooth_temporal,
    )
    t0 = time.perf_counter()
    summary = campaign.run(n_trials, seed=7)
    elapsed = time.perf_counter() - t0
    return {
        "n_trials": n_trials,
        "dataset": [16, side, side],
        "elapsed_s": round(elapsed, 4),
        "trials_per_s": round(n_trials / elapsed, 3) if elapsed else float("inf"),
        "mean_psi": summary.mean,
    }


def _stream_pipeline(n_frames, coord, chunk, stack_frames=32):
    source = SyntheticWalkSource(shape=coord, seed=3, n_frames=n_frames)
    stages = [
        InjectStage(UncorrelatedFaultModel(0.01), seed=5),
        VoterStage(stack_frames=stack_frames),
    ]
    return source, stages, StreamPipeline(
        source, stages, chunk_frames=chunk
    )


def _bench_stream_throughput(quick: bool) -> list[dict]:
    """Frames/sec per transport chunk size; Ψ recorded to witness identity."""
    n_frames = 1024 if quick else 8192
    coord = (64,)
    chunks = (1, 16, 64, 256) if quick else (1, 16, 64, 256, 1024, 8192)
    entries = []
    for chunk in chunks:
        _, _, pipeline = _stream_pipeline(n_frames, coord, chunk)
        t0 = time.perf_counter()
        result = pipeline.run()
        elapsed = time.perf_counter() - t0
        entries.append(
            {
                "chunk_frames": chunk,
                "n_frames": n_frames,
                "coord_shape": list(coord),
                "frames_per_sec": round(n_frames / elapsed, 2) if elapsed else 0.0,
                "elapsed_s": round(elapsed, 4),
                # Identical across every chunk size by the bit-identity
                # contract; recorded unrounded so drift would be visible.
                "psi_algorithm": result.psi_algorithm,
            }
        )
    return entries


def _traced_peak(fn) -> int:
    """Peak traced allocation (bytes) while running *fn*.

    numpy registers its buffer allocator with ``tracemalloc``, so this
    captures array storage — the footprint that matters here — without
    the noise of whole-process RSS.
    """
    tracemalloc.start()
    tracemalloc.reset_peak()
    fn()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return int(peak)


def _bench_stream_memory(quick: bool) -> dict:
    """Streaming vs batch peak memory on the same workload.

    Two facts demonstrate the O(chunk + window) bound: the streaming
    peak is far below the batch peak at equal stream length, and it
    stays flat when the stream length doubles (the batch peak doubles).
    """
    coord = (64,)
    chunk = 64
    n_small = 2048 if quick else 16384
    n_large = 2 * n_small

    stream_peaks = []
    for n_frames in (n_small, n_large):
        _, _, pipeline = _stream_pipeline(n_frames, coord, chunk)
        stream_peaks.append(
            {
                "n_frames": n_frames,
                "peak_bytes": _traced_peak(pipeline.run),
            }
        )

    def batch():
        source, stages, _ = _stream_pipeline(n_large, coord, chunk)
        run_batch(source, stages)

    batch_peak = _traced_peak(batch)
    total_lag = sum(s.lag for s in _stream_pipeline(n_small, coord, chunk)[1])
    return {
        "coord_shape": list(coord),
        "frame_bytes": int(np.prod(coord)) * 2,  # uint16 frames
        "chunk_frames": chunk,
        "total_stage_lag": total_lag,
        "stream": stream_peaks,
        "batch": {"n_frames": n_large, "peak_bytes": batch_peak},
        # ~1.0 when the bound holds (peak independent of stream length).
        "stream_growth_ratio": round(
            stream_peaks[1]["peak_bytes"] / stream_peaks[0]["peak_bytes"], 3
        ),
        "stream_to_batch_ratio": round(
            stream_peaks[1]["peak_bytes"] / batch_peak, 4
        ),
    }


def _tier_entry(name, config, fn, repeats, warmup=0):
    """Time *fn* under the NumPy tier vs the native tier.

    Both sides call the same public entry point; only the dispatch tier
    differs, so the delta is exactly the compiled kernel's contribution.
    Without the extension the native side falls back to NumPy and the
    speedup reads ~1.0 — the report stays truthful on pure-NumPy hosts.
    """

    def numpy_side():
        with kernel_tier("numpy"):
            fn()

    def native_side():
        with kernel_tier("native"):
            fn()

    timed = _entry(name, config, numpy_side, native_side, repeats, warmup)
    return {
        "name": name,
        "config": config,
        "numpy_ms": timed["before_ms"],
        "native_ms": timed["after_ms"],
        "speedup": timed["speedup"],
    }


def _bench_native_kernels(
    quick: bool, repeats: int | None = None, warmup: int = 0
) -> list[dict]:
    if repeats is None:
        repeats = 3 if quick else 15
    entries = []

    side = 128 if quick else 512
    for gamma in (0.3,) if quick else (0.1, 0.3, 0.45):
        entries.append(
            _tier_entry(
                "correlated_flip_grid",
                {"shape": [side, side], "gamma_ini": gamma},
                lambda g=gamma: correlated_flip_grid(
                    (side, side), g, np.random.default_rng(0)
                ),
                repeats,
                warmup,
            )
        )

    n, hw = (16, 64) if quick else (32, 256)
    rng = np.random.default_rng(1)
    pixels = rng.integers(0, 2**16, size=(n, hw, hw), dtype=np.uint16)
    for upsilon in (4, 8):
        matrix = VoterMatrix(pixels, upsilon)
        voters = matrix.pruned(matrix.thresholds(0.75))
        entries.append(
            _tier_entry(
                "voter_grt",
                {"upsilon": upsilon, "stack": [n, hw, hw]},
                lambda v=voters: VoterMatrix.grt(v),
                repeats,
                warmup,
            )
        )

    words = rng.integers(0, 2**16, size=(32, hw, hw), dtype=np.uint16)
    entries.append(
        _tier_entry(
            "to_bit_planes",
            {"shape": list(words.shape), "dtype": "uint16"},
            lambda: bitops.to_bit_planes(words),
            repeats,
            warmup,
        )
    )
    planes = bitops.to_bit_planes(words)
    entries.append(
        _tier_entry(
            "from_bit_planes",
            {"shape": list(words.shape), "dtype": "uint16"},
            lambda: bitops.from_bit_planes(planes, np.uint16),
            repeats,
            warmup,
        )
    )

    stack = rng.integers(0, 2**16, size=(n, hw, hw), dtype=np.uint16)
    entries.append(
        _tier_entry(
            "majority_vote_window",
            {"stack": [n, hw, hw], "window": 5},
            lambda: majority_vote_window(stack, 5),
            repeats,
            warmup,
        )
    )
    weights = np.exp(-np.abs(np.arange(-2, 3)) / 1.0)
    entries.append(
        _tier_entry(
            "weighted_window_smooth",
            {"stack": [n, hw, hw], "window": 5},
            lambda: _weighted_window_smooth(stack, weights),
            repeats,
            warmup,
        )
    )
    return entries


def _headline_summary(entries: list[dict]) -> dict:
    """The ≥2x-on-≥2-of-3 regression gate over the headline kernels."""
    groups = {
        "correlated_flip_grid": ("correlated_flip_grid",),
        "voter_grt": ("voter_grt",),
        "bit_planes": ("to_bit_planes", "from_bit_planes"),
    }
    best = {}
    for headline, names in groups.items():
        speedups = [e["speedup"] for e in entries if e["name"] in names]
        best[headline] = round(max(speedups), 3) if speedups else 0.0
    at_2x = sorted(name for name, speedup in best.items() if speedup >= 2.0)
    return {
        "best_speedup": best,
        "kernels_at_2x": at_2x,
        "gate_met": len(at_2x) >= 2,
    }


def _bench_native_campaign(quick: bool) -> dict:
    """End-to-end campaign delta: correlated injection + majority vote."""
    n_trials = 4 if quick else 16
    side = 32 if quick else 64
    campaign = Campaign(
        generate=lambda rng: generate_walk(
            NGSTDatasetConfig(n_variants=16, sigma=25.0), rng, (side, side)
        ),
        fault_model=CorrelatedFaultModel(CorrelatedFaultConfig(gamma_ini=0.05)),
        metric=psi,
        preprocess=lambda stack: majority_vote_window(stack, 5),
    )
    out = {"n_trials": n_trials, "dataset": [16, side, side]}
    means = {}
    for tier in ("numpy", "native"):
        with kernel_tier(tier):
            t0 = time.perf_counter()
            summary = campaign.run(n_trials, seed=7)
            out[f"{tier}_s"] = round(time.perf_counter() - t0, 4)
        means[tier] = summary.mean
    out["speedup"] = (
        round(out["numpy_s"] / out["native_s"], 3) if out["native_s"] else 0.0
    )
    out["bit_identical"] = means["numpy"] == means["native"]
    out["mean_psi"] = means["numpy"]
    return out


def _bench_native_stream(quick: bool) -> dict:
    """Streaming-pipeline delta per tier (inject + voter stages)."""
    n_frames = 1024 if quick else 8192
    chunk = 64
    out = {"n_frames": n_frames, "chunk_frames": chunk}
    psis = {}
    for tier in ("numpy", "native"):
        _, _, pipeline = _stream_pipeline(n_frames, (64,), chunk)
        with kernel_tier(tier):
            t0 = time.perf_counter()
            result = pipeline.run()
            out[f"{tier}_s"] = round(time.perf_counter() - t0, 4)
        psis[tier] = result.psi_algorithm
    out["speedup"] = (
        round(out["numpy_s"] / out["native_s"], 3) if out["native_s"] else 0.0
    )
    out["bit_identical"] = psis["numpy"] == psis["native"]
    return out


def _bench_threaded(quick: bool) -> dict:
    """ThreadPoolBackend shards over the correlated-grid trial per tier.

    The tier override is a module-level global, so worker threads
    inherit whatever ``kernel_tier`` the caller holds.  The native C
    scan runs with the GIL released (cffi drops it around every call),
    so native threads_s should drop below native serial_s while the
    NumPy tier stays GIL-bound — on a multi-core host.  ``cpu_count``
    is recorded so a ~1.0x scaling figure on a single-core box reads
    as a host limit, not a GIL artifact.
    """
    import os

    threads = 2 if quick else 4
    n_trials = 8 if quick else 32
    side = 128 if quick else 384

    def trial(rng):
        flips = correlated_flip_grid((side, side), 0.3, rng)
        return float(flips.mean())

    out = {
        "threads": threads,
        "n_trials": n_trials,
        "grid": [side, side],
        "cpu_count": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
    }
    for tier in ("numpy", "native"):
        with kernel_tier(tier):
            t0 = time.perf_counter()
            serial = TrialRuntime().run(trial, n_trials, 11)
            out[f"{tier}_serial_s"] = round(time.perf_counter() - t0, 4)
            t0 = time.perf_counter()
            threaded = TrialRuntime(backend=ThreadPoolBackend(threads)).run(
                trial, n_trials, 11
            )
            out[f"{tier}_threads_s"] = round(time.perf_counter() - t0, 4)
        assert np.asarray(serial).tobytes() == np.asarray(threaded).tobytes()
    out["native_thread_scaling"] = (
        round(out["native_serial_s"] / out["native_threads_s"], 3)
        if out["native_threads_s"]
        else 0.0
    )
    return out


def build_native_report(
    quick: bool, repeats: int | None = None, warmup: int = 0
) -> dict:
    kernels = _bench_native_kernels(quick, repeats, warmup)
    return {
        "schema_version": NATIVE_SCHEMA_VERSION,
        "generated_by": "tools/bench_report.py" + (" --quick" if quick else ""),
        "quick": quick,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "native_available": native_available(),
        "native_origin": native_loader.origin(),
        "kernels": kernels,
        "headline": _headline_summary(kernels),
        "campaign": _bench_native_campaign(quick),
        "stream": _bench_native_stream(quick),
        "threaded": _bench_threaded(quick),
    }


def _bench_dag_report(quick: bool) -> dict:
    """One 3-experiment `repro report` DAG run vs the sequential loop.

    Times the same subset three ways: the historical per-experiment
    sequential loop, a cold single-DAG run into a fresh on-disk store,
    and a warm no-op replay against that store (the resume path a
    killed run takes) — asserting the DAG panels are bit-identical to
    the sequential results inside the benchmark itself.
    """
    import tempfile

    from repro.dag.report import (
        PANELS_NODE,
        build_report_graph,
        quick_overrides,
    )
    from repro.dag.build import json_payload
    from repro.dag.scheduler import DagScheduler
    from repro.experiments.registry import run_experiment
    from repro.runtime import Telemetry
    from repro.runtime.telemetry import DagCompleted

    experiments = ["fig2", "fig4", "motivation"]

    start = time.perf_counter()
    sequential_panels = []
    for experiment_id in experiments:
        overrides = quick_overrides(experiment_id) if quick else {}
        for result in run_experiment(experiment_id, **overrides):
            sequential_panels.append(result.to_dict())
    sequential_s = time.perf_counter() - start

    completions: list = []
    telemetry = Telemetry()
    telemetry.subscribe(
        lambda e: completions.append(e) if isinstance(e, DagCompleted) else None
    )
    with tempfile.TemporaryDirectory() as store:
        graph = build_report_graph(experiments, quick=quick)
        scheduler = DagScheduler(
            cache=ArtifactCache(directory=store), telemetry=telemetry
        )
        start = time.perf_counter()
        outputs = scheduler.run(graph, targets=(PANELS_NODE,))
        dag_cold_s = time.perf_counter() - start
        panels = json_payload(outputs[PANELS_NODE])

        warm_graph = build_report_graph(experiments, quick=quick)
        warm_scheduler = DagScheduler(
            cache=ArtifactCache(directory=store), telemetry=telemetry
        )
        start = time.perf_counter()
        warm_scheduler.run(warm_graph, targets=(PANELS_NODE,))
        dag_warm_s = time.perf_counter() - start

    cold, warm = completions[0], completions[1]
    return {
        "experiments": experiments,
        "n_nodes": cold.n_nodes,
        "sequential_s": round(sequential_s, 4),
        "dag_cold_s": round(dag_cold_s, 4),
        "dag_warm_s": round(dag_warm_s, 4),
        "n_run_cold": cold.n_run,
        "n_restored_warm": warm.n_restored,
        "warm_replay_speedup": round(dag_cold_s / max(dag_warm_s, 1e-9), 2),
        "bit_identical": panels == sequential_panels,
    }


def build_dag_report(quick: bool) -> dict:
    return {
        "schema_version": DAG_SCHEMA_VERSION,
        "generated_by": "tools/bench_report.py" + (" --quick" if quick else ""),
        "quick": quick,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "report_run": _bench_dag_report(quick),
    }


def _cluster_noop_shard_fn(shard):
    # Near-zero compute: the cluster round trip IS the measurement.
    return [float(seed) for seed in shard.seeds]


def _bench_cluster_scaling(quick: bool) -> dict:
    """The report subset over 1/2/4 loopback workers vs serial.

    Every cluster run is byte-compared against the serial panels — the
    bit-identity contract witnessed inside the benchmark, like the
    fused-sweep and DAG sections.  Workers are real forked processes
    crossing the real TCP protocol, so on a single-core container they
    time-slice one CPU and wall-clock speedup is not expected there;
    ``cpu_count`` is recorded so the numbers are interpretable.
    """
    import os

    from repro.cluster import LocalCluster
    from repro.dag.build import json_payload
    from repro.dag.report import PANELS_NODE, build_report_graph
    from repro.dag.scheduler import DagScheduler

    experiments = ["fig2"] if quick else ["fig2", "fig4", "motivation"]
    start = time.perf_counter()
    reference = json_payload(
        DagScheduler(cache=ArtifactCache()).run(
            build_report_graph(experiments, quick=quick),
            targets=(PANELS_NODE,),
        )[PANELS_NODE]
    )
    serial_s = time.perf_counter() - start
    reference_blob = json.dumps(reference, sort_keys=True)

    runs = []
    for n_workers in (1, 2) if quick else (1, 2, 4):
        with LocalCluster(n_workers=n_workers) as cluster:
            backend = cluster.backend(
                heartbeat_interval_s=0.2, heartbeat_timeout_s=10.0
            )
            scheduler = DagScheduler(cache=ArtifactCache(), backend=backend)
            start = time.perf_counter()
            panels = json_payload(
                scheduler.run(
                    build_report_graph(experiments, quick=quick),
                    targets=(PANELS_NODE,),
                )[PANELS_NODE]
            )
            elapsed = time.perf_counter() - start
            stats = [w.as_dict() for w in backend.stats().values()]
            backend.close()
        pulls = sum(w["artifact_pulls"] for w in stats)
        hits = sum(w["local_hits"] for w in stats)
        runs.append(
            {
                "workers": n_workers,
                "elapsed_s": round(elapsed, 4),
                "speedup": round(serial_s / max(elapsed, 1e-9), 2),
                "bit_identical": json.dumps(panels, sort_keys=True)
                == reference_blob,
                "bytes_sent": sum(w["bytes_sent"] for w in stats),
                "bytes_received": sum(w["bytes_received"] for w in stats),
                "artifact_pulls": pulls,
                "pulled_bytes": sum(w["pulled_bytes"] for w in stats),
                "cache_hit_rate": round(hits / max(hits + pulls, 1), 4),
                "per_worker": stats,
            }
        )
    at_two = next((r for r in runs if r["workers"] == 2), runs[-1])
    return {
        "experiments": experiments,
        "serial_s": round(serial_s, 4),
        "runs": runs,
        "speedup_at_2": at_two["speedup"],
        "bit_identical_all": all(r["bit_identical"] for r in runs),
        "cpu_count": os.cpu_count(),
    }


def _bench_cluster_overhead(quick: bool) -> dict:
    """Per-shard dispatch cost over a warm single-worker connection.

    Runs near-empty shards so the measured time is the protocol itself:
    pickle + frame + TCP round trip + result unpack.  The overhead
    column is what a shard must out-compute for remote dispatch to pay
    off on an otherwise idle worker.
    """
    from repro.cluster import LocalCluster
    from repro.runtime import SerialBackend
    from repro.runtime.plan import Shard

    n_shards = 32 if quick else 256
    shards = [
        Shard(index=i, start=i, stop=i + 1, seeds=(i,))
        for i in range(n_shards)
    ]
    start = time.perf_counter()
    list(SerialBackend().run_shards(_cluster_noop_shard_fn, shards))
    serial_s = time.perf_counter() - start

    with LocalCluster(n_workers=1) as cluster:
        backend = cluster.backend(
            heartbeat_interval_s=0.5, heartbeat_timeout_s=10.0
        )
        # Warm run: connect, handshake, and ship the function once so
        # the timed loop sees the steady-state ~O(100B) dispatches.
        list(backend.run_shards(_cluster_noop_shard_fn, shards[:1]))
        warm_bytes = sum(
            w.bytes_sent + w.bytes_received for w in backend.stats().values()
        )
        start = time.perf_counter()
        list(backend.run_shards(_cluster_noop_shard_fn, shards))
        cluster_s = time.perf_counter() - start
        total_bytes = sum(
            w.bytes_sent + w.bytes_received for w in backend.stats().values()
        )
        backend.close()

    return {
        "n_shards": n_shards,
        "serial_s": round(serial_s, 4),
        "cluster_s": round(cluster_s, 4),
        "per_shard_roundtrip_ms": round(cluster_s / n_shards * 1e3, 3),
        "per_shard_overhead_ms": round(
            max(cluster_s - serial_s, 0.0) / n_shards * 1e3, 3
        ),
        "wire_bytes_per_shard": round((total_bytes - warm_bytes) / n_shards),
    }


def build_cluster_report(quick: bool) -> dict:
    import os

    cpu_count = os.cpu_count() or 1
    return {
        "schema_version": CLUSTER_SCHEMA_VERSION,
        "generated_by": "tools/bench_report.py" + (" --quick" if quick else ""),
        "quick": quick,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": cpu_count,
        "single_core_container": cpu_count < 2,
        "note": (
            "generated on a single-core container: loopback workers "
            "time-slice one CPU, so wall-clock speedup over serial is "
            "not expected here; see per_shard_overhead_ms for the "
            "dispatch cost a multi-core deployment amortises"
            if cpu_count < 2
            else ""
        ),
        "scaling": _bench_cluster_scaling(quick),
        "overhead": _bench_cluster_overhead(quick),
    }


def _bench_strategy_grid(quick: bool) -> dict:
    """Ψ for the fixed / adaptive / selective arms over a static-Γ grid.

    The operating point is the lowest Γ of the grid — the nominal
    environment every strategy must not regress at.  The adaptive arm's
    promise is "no worse when nothing is wrong, better when the stack
    is incoherent", so the headline boolean checks the first half here
    (the second half is the step-profile section's job).
    """
    from repro.core.strategies import strategy_arm_config

    shape = (8, 8) if quick else (16, 16)
    n_variants = 32 if quick else 64
    n_repeats = 2 if quick else 8
    gammas = (0.001, 0.05) if quick else (0.001, 0.005, 0.01, 0.05)
    dataset_cfg = NGSTDatasetConfig(n_variants=n_variants, sigma=25.0)
    arms = {
        name: AlgoNGST(strategy_arm_config(name))
        for name in ("fixed", "adaptive", "selective")
    }

    rows = []
    for gamma in gammas:
        sums = dict.fromkeys(arms, 0.0)
        for repeat in range(n_repeats):
            rng = np.random.default_rng(1000 + repeat)
            pristine = generate_walk(dataset_cfg, rng, shape)
            corrupted, _ = FaultInjector(
                UncorrelatedFaultModel(gamma), seed=repeat
            ).inject(pristine)
            for name, algo in arms.items():
                sums[name] += psi(algo(corrupted).corrected, pristine)
        rows.append(
            {
                "gamma": gamma,
                "n_repeats": n_repeats,
                **{
                    f"psi_{name}": total / n_repeats
                    for name, total in sums.items()
                },
            }
        )
    operating = rows[0]
    return {
        "shape": list(shape),
        "n_variants": n_variants,
        "lambda": 50.0,
        "operating_gamma": gammas[0],
        "rows": rows,
        # Exactly-no-worse would be brittle on a 2-repeat quick run;
        # 5% covers seed noise while still catching a real regression.
        "adaptive_no_worse_at_operating_point": (
            operating["psi_adaptive"]
            <= operating["psi_fixed"] * 1.05 + 1e-12
        ),
    }


def _strategy_step_profile(quick: bool):
    from repro.faults.profile import GammaStepProfile

    n_frames = 512 if quick else 2048
    return n_frames, GammaStepProfile(
        base=0.001, elevated=0.08, period=256, duty=0.5
    )


def _bench_strategy_step(quick: bool) -> dict:
    """Autotuned vs fixed Λ under a time-varying Γ step profile.

    Both streams start at Λ=50 over the identical injected stream; the
    tuner's only advantage is reacting to the elevated-Γ windows.  Its
    committed Λ trajectory is recorded so the report shows *when* it
    moved, not just that the aggregate Ψ improved.
    """
    from repro.stream.autotune_stage import AutotuneVoterStage

    n_frames, profile = _strategy_step_profile(quick)

    def source():
        return SyntheticWalkSource(shape=(16,), seed=11, n_frames=n_frames)

    def inject():
        return InjectStage(
            UncorrelatedFaultModel(0.001), seed=3, profile=profile
        )

    fixed = StreamPipeline(
        source(),
        [inject(), VoterStage(NGSTConfig(sensitivity=50.0), stack_frames=32)],
        chunk_frames=64,
    ).run()
    tuner = AutotuneVoterStage(
        NGSTConfig(sensitivity=50.0),
        stack_frames=32,
        window_stacks=2,
        interval_stacks=1,
        min_delta=10.0,
        confirm=2,
    )
    autotuned = StreamPipeline(
        source(), [inject(), tuner], chunk_frames=64
    ).run()
    return {
        "n_frames": n_frames,
        "profile": profile.describe(),
        "starting_lambda": 50.0,
        "psi_fixed": fixed.psi_algorithm,
        "psi_autotune": autotuned.psi_algorithm,
        "improvement": (
            round(fixed.psi_algorithm / autotuned.psi_algorithm, 4)
            if autotuned.psi_algorithm
            else float("inf")
        ),
        "lambda_trajectory": list(tuner.lambda_trajectory),
    }


def _bench_autotune_overhead(quick: bool) -> dict:
    """Per-frame cost of the online estimators over a plain voter.

    Same source, same injection, same stacks — the only delta is the
    σ̂/Γ̂ estimation at each stack boundary, so the per-frame figure is
    exactly what a mission pays to keep the tuner armed.
    """
    from repro.stream.autotune_stage import AutotuneVoterStage

    n_frames = 1024 if quick else 8192
    repeats = 2 if quick else 5

    def run(stage_factory) -> float:
        best = float("inf")
        for _ in range(repeats):
            source = SyntheticWalkSource(
                shape=(64,), seed=3, n_frames=n_frames
            )
            stages = [
                InjectStage(UncorrelatedFaultModel(0.01), seed=5),
                stage_factory(),
            ]
            pipeline = StreamPipeline(source, stages, chunk_frames=64)
            best = min(best, _time_once(pipeline.run))
        return best

    plain_s = run(
        lambda: VoterStage(NGSTConfig(sensitivity=50.0), stack_frames=32)
    )
    autotune_s = run(
        lambda: AutotuneVoterStage(
            NGSTConfig(sensitivity=50.0),
            stack_frames=32,
            window_stacks=2,
            interval_stacks=1,
        )
    )
    return {
        "n_frames": n_frames,
        "coord_shape": [64],
        "stack_frames": 32,
        "plain_s": round(plain_s, 4),
        "autotune_s": round(autotune_s, 4),
        "overhead_us_per_frame": round(
            max(autotune_s - plain_s, 0.0) / n_frames * 1e6, 3
        ),
        "overhead_ratio": round(autotune_s / plain_s, 3) if plain_s else 0.0,
    }


def build_strategies_report(quick: bool) -> dict:
    return {
        "schema_version": STRATEGY_SCHEMA_VERSION,
        "generated_by": "tools/bench_report.py" + (" --quick" if quick else ""),
        "quick": quick,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "psi_grid": _bench_strategy_grid(quick),
        "step_profile": _bench_strategy_step(quick),
        "overhead": _bench_autotune_overhead(quick),
    }


def build_stream_report(quick: bool) -> dict:
    return {
        "schema_version": STREAM_SCHEMA_VERSION,
        "generated_by": "tools/bench_report.py" + (" --quick" if quick else ""),
        "quick": quick,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "throughput": _bench_stream_throughput(quick),
        "memory": _bench_stream_memory(quick),
    }


def build_report(quick: bool, repeats: int | None = None, warmup: int = 0) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "generated_by": "tools/bench_report.py" + (" --quick" if quick else ""),
        "quick": quick,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernels": _bench_kernels(quick, repeats, warmup),
        "campaign": _bench_campaign(quick),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small problem sizes and repeat counts (CI mode)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=REPO_ROOT / "BENCH_PR2.json",
        help="kernel report path (default: repo-root BENCH_PR2.json)",
    )
    parser.add_argument(
        "--stream-out",
        type=Path,
        default=REPO_ROOT / "BENCH_PR3.json",
        help="streaming report path (default: repo-root BENCH_PR3.json)",
    )
    parser.add_argument(
        "--native-out",
        type=Path,
        default=REPO_ROOT / "BENCH_PR7.json",
        help="native-tier report path (default: repo-root BENCH_PR7.json)",
    )
    parser.add_argument(
        "--dag-out",
        type=Path,
        default=REPO_ROOT / "BENCH_PR8.json",
        help="DAG orchestrator report path (default: repo-root BENCH_PR8.json)",
    )
    parser.add_argument(
        "--cluster-out",
        type=Path,
        default=REPO_ROOT / "BENCH_PR9.json",
        help="cluster backend report path (default: repo-root BENCH_PR9.json)",
    )
    parser.add_argument(
        "--strategies-out",
        type=Path,
        default=REPO_ROOT / "BENCH_PR10.json",
        help="adaptive strategies report path "
        "(default: repo-root BENCH_PR10.json)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=None,
        help="best-of-N loop count per kernel (default: 15, or 3 with --quick)",
    )
    parser.add_argument(
        "--warmup",
        type=int,
        default=0,
        help="untimed warmup iterations per kernel side before timing",
    )
    args = parser.parse_args(argv)
    report = build_report(args.quick, args.repeats, args.warmup)
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    width = max(len(k["name"]) for k in report["kernels"])
    for k in report["kernels"]:
        print(
            f"{k['name']:<{width}}  {k['before_ms']:>10.2f}ms -> "
            f"{k['after_ms']:>10.2f}ms  ({k['speedup']:>6.2f}x)  {k['config']}"
        )
    c = report["campaign"]
    print(f"campaign: {c['n_trials']} trials in {c['elapsed_s']}s "
          f"({c['trials_per_s']} trials/s)")
    print(f"wrote {args.out}")

    stream_report = build_stream_report(args.quick)
    args.stream_out.write_text(json.dumps(stream_report, indent=2) + "\n")
    for t in stream_report["throughput"]:
        print(
            f"stream: chunk={t['chunk_frames']:<5}  "
            f"{t['frames_per_sec']:>10.1f} frames/s  "
            f"psi={t['psi_algorithm']:.6g}"
        )
    m = stream_report["memory"]
    print(
        f"stream memory: peak {m['stream'][-1]['peak_bytes'] / 1e6:.2f} MB vs "
        f"batch {m['batch']['peak_bytes'] / 1e6:.2f} MB "
        f"(growth ratio {m['stream_growth_ratio']}x when the stream doubles)"
    )
    print(f"wrote {args.stream_out}")

    native_report = build_native_report(args.quick, args.repeats, args.warmup)
    args.native_out.write_text(json.dumps(native_report, indent=2) + "\n")
    width = max(len(k["name"]) for k in native_report["kernels"])
    for k in native_report["kernels"]:
        print(
            f"native: {k['name']:<{width}}  {k['numpy_ms']:>10.2f}ms -> "
            f"{k['native_ms']:>10.2f}ms  ({k['speedup']:>6.2f}x)  {k['config']}"
        )
    h = native_report["headline"]
    print(
        f"native headline gate: {len(h['kernels_at_2x'])}/{len(HEADLINE_KERNELS)} "
        f"kernels at >=2x {h['kernels_at_2x']}  gate_met={h['gate_met']}  "
        f"(extension: {'loaded' if native_report['native_available'] else 'absent'})"
    )
    nc = native_report["campaign"]
    print(
        f"native campaign: numpy {nc['numpy_s']}s -> native {nc['native_s']}s "
        f"({nc['speedup']}x)  bit_identical={nc['bit_identical']}"
    )
    ns = native_report["stream"]
    print(
        f"native stream:   numpy {ns['numpy_s']}s -> native {ns['native_s']}s "
        f"({ns['speedup']}x)  bit_identical={ns['bit_identical']}"
    )
    nt = native_report["threaded"]
    print(
        f"native threads:  serial {nt['native_serial_s']}s -> "
        f"{nt['threads']} threads {nt['native_threads_s']}s "
        f"({nt['native_thread_scaling']}x scaling; numpy tier "
        f"{nt['numpy_serial_s']}s -> {nt['numpy_threads_s']}s)"
    )
    print(f"wrote {args.native_out}")

    dag_report = build_dag_report(args.quick)
    args.dag_out.write_text(json.dumps(dag_report, indent=2) + "\n")
    d = dag_report["report_run"]
    print(
        f"dag report: {len(d['experiments'])} experiments as {d['n_nodes']} "
        f"nodes  sequential {d['sequential_s']}s -> dag cold {d['dag_cold_s']}s "
        f"-> warm replay {d['dag_warm_s']}s ({d['warm_replay_speedup']}x)  "
        f"bit_identical={d['bit_identical']}"
    )
    print(f"wrote {args.dag_out}")

    cluster_report = build_cluster_report(args.quick)
    args.cluster_out.write_text(json.dumps(cluster_report, indent=2) + "\n")
    s = cluster_report["scaling"]
    for r in s["runs"]:
        print(
            f"cluster: {r['workers']} worker(s)  {r['elapsed_s']}s "
            f"({r['speedup']}x vs serial {s['serial_s']}s)  "
            f"pulls={r['artifact_pulls']} ({r['pulled_bytes']} B)  "
            f"hit rate {r['cache_hit_rate']:.0%}  "
            f"bit_identical={r['bit_identical']}"
        )
    o = cluster_report["overhead"]
    print(
        f"cluster overhead: {o['n_shards']} empty shards  "
        f"{o['per_shard_roundtrip_ms']}ms round trip / "
        f"{o['per_shard_overhead_ms']}ms overhead per shard  "
        f"{o['wire_bytes_per_shard']} B on the wire  "
        f"(cpu_count={cluster_report['cpu_count']})"
    )
    if cluster_report["note"]:
        print(f"cluster note: {cluster_report['note']}")
    print(f"wrote {args.cluster_out}")

    strategies_report = build_strategies_report(args.quick)
    args.strategies_out.write_text(
        json.dumps(strategies_report, indent=2) + "\n"
    )
    g = strategies_report["psi_grid"]
    for row in g["rows"]:
        print(
            f"strategy grid: gamma={row['gamma']:<6}  "
            f"fixed {row['psi_fixed']:.4g}  "
            f"adaptive {row['psi_adaptive']:.4g}  "
            f"selective {row['psi_selective']:.4g}"
        )
    print(
        f"strategy grid: adaptive no worse at gamma="
        f"{g['operating_gamma']}: {g['adaptive_no_worse_at_operating_point']}"
    )
    sp = strategies_report["step_profile"]
    print(
        f"strategy step: fixed psi {sp['psi_fixed']:.4g} -> autotune "
        f"{sp['psi_autotune']:.4g} ({sp['improvement']}x) over "
        f"{sp['profile']} with {len(sp['lambda_trajectory'])} adjustment(s)"
    )
    ov = strategies_report["overhead"]
    print(
        f"strategy overhead: plain {ov['plain_s']}s -> autotune "
        f"{ov['autotune_s']}s ({ov['overhead_us_per_frame']}us/frame, "
        f"{ov['overhead_ratio']}x)"
    )
    print(f"wrote {args.strategies_out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
