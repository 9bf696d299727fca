"""End-to-end bit-identity of graph-scheduled multi-arm sweeps.

A multi-arm sweep (:func:`repro.dag.add_arm_sweep`) fuses its arms onto
one dataset + fault node pair per trial.  The contract: for every
backend, worker count, and cache temperature (none / cold / warm /
reopened disk store), the sweep returns **bit-identical** values
(exact ``==`` plus ``tobytes`` equality) to running each arm as its
own serial :meth:`~repro.runtime.TrialRuntime.run` plan with the
canonical trial protocol.  The scheduler dispatches one node per
shard, so every pooled run here runs at shard size 1.
"""

import multiprocessing

import numpy as np
import pytest

from repro.baselines.median import median_smooth_temporal
from repro.cache import ArtifactCache
from repro.config import NGSTConfig, NGSTDatasetConfig
from repro.core.algo_ngst import AlgoNGST
from repro.dag import Arm, DagScheduler, FaultSpec, TaskGraph, add_arm_sweep
from repro.dag.build import aggregate_values
from repro.experiments.common import walk_dataset
from repro.faults.correlated import CorrelatedFaultModel
from repro.faults.injector import FaultInjector, derive_injector_seed
from repro.metrics.relative_error import psi
from repro.runtime import (
    ProcessPoolBackend,
    SerialBackend,
    ThreadPoolBackend,
    TrialRuntime,
)

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable",
)

N_TRIALS = 6
SEED = 2003
SHAPE = (6, 8, 8)  # (frames, rows, cols) of uint16 NGST walk variants


def _fixture():
    """A small figure-4-style grid point with three preprocessing arms."""
    dataset_config = NGSTDatasetConfig(n_variants=SHAPE[0])
    model = CorrelatedFaultModel(0.05)
    dataset = walk_dataset(dataset_config, SHAPE[1:])
    algo = AlgoNGST(NGSTConfig(sensitivity=80.0))
    arms = [
        Arm("none", lambda corrupted, pristine: psi(corrupted, pristine)),
        Arm(
            "algo_ngst",
            lambda corrupted, pristine, algo=algo: psi(
                algo(corrupted).corrected, pristine
            ),
        ),
        Arm(
            "median_w3",
            lambda corrupted, pristine: psi(
                median_smooth_temporal(corrupted), pristine
            ),
        ),
    ]
    return dataset, model, arms


def _unfused_reference(dataset, model, arms, runtime=None):
    """Each arm as its own plan, canonical trial protocol."""
    runtime = runtime if runtime is not None else TrialRuntime()
    results = {}
    for arm in arms:
        def trial(rng, arm=arm):
            pristine = dataset.build(rng)
            injector = FaultInjector(model, seed=derive_injector_seed(rng))
            corrupted, _ = injector.inject(pristine)
            return arm.evaluate(corrupted, pristine)

        results[arm.name] = runtime.run(trial, N_TRIALS, seed=SEED)
    return results


def _sweep_graph(dataset, model, arms):
    graph = TaskGraph("equivalence")
    aggregate = add_arm_sweep(
        graph, "sweep", arms, dataset, FaultSpec.of(model), N_TRIALS, SEED
    )
    return graph, aggregate


def _run_sweep(scheduler, n_arms=None):
    """The sweep's per-arm trial values, scheduled by *scheduler*."""
    dataset, model, arms = _fixture()
    graph, aggregate = _sweep_graph(dataset, model, arms[:n_arms])
    outputs = scheduler.run(graph, targets=(aggregate,))
    return {
        name: [float(v) for v in values]
        for name, values in aggregate_values(outputs[aggregate]).items()
    }


def _assert_identical(fused, reference):
    assert set(fused) == set(reference)
    for name in reference:
        assert fused[name] == reference[name], f"arm {name} diverged"
        assert np.asarray(fused[name]).tobytes() == np.asarray(
            reference[name]
        ).tobytes()


@pytest.fixture(scope="module")
def reference():
    return _unfused_reference(*_fixture())


class TestSerialEquivalence:
    def test_fused_without_cache(self, reference):
        """A runtime without a cache: the scheduler brings its own."""
        scheduler = DagScheduler.for_runtime(TrialRuntime())
        _assert_identical(_run_sweep(scheduler), reference)

    def test_fused_cold_cache(self, reference):
        cache = ArtifactCache()
        _assert_identical(_run_sweep(DagScheduler(cache=cache)), reference)
        # Cold: every dataset and fault node was produced and stored once.
        assert cache.stats().puts >= 2 * N_TRIALS

    def test_fused_warm_cache(self, reference):
        cache = ArtifactCache()
        _run_sweep(DagScheduler(cache=cache))
        graph, aggregate = _sweep_graph(*_fixture())
        assert DagScheduler(cache=cache).survey(graph).pending() == ()
        puts = cache.stats().puts
        _assert_identical(_run_sweep(DagScheduler(cache=cache)), reference)
        assert cache.stats().puts == puts  # nothing recomputed

    def test_fused_disk_tier_across_processes_simulated(self, reference, tmp_path):
        """A fresh store object (empty memory tier) serving from disk."""
        _run_sweep(DagScheduler(cache=ArtifactCache(directory=tmp_path)))

        reopened = ArtifactCache(directory=tmp_path)
        _assert_identical(_run_sweep(DagScheduler(cache=reopened)), reference)
        assert reopened.stats().disk_hits >= 1
        assert reopened.stats().puts == 0


class TestPoolEquivalence:
    @needs_fork
    @pytest.mark.parametrize("jobs", [2, 3, 4])
    def test_fused_pool_cold(self, reference, jobs):
        scheduler = DagScheduler(
            cache=ArtifactCache(),
            backend=ProcessPoolBackend(jobs, start_method="fork"),
        )
        _assert_identical(_run_sweep(scheduler), reference)

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_fused_threads_cold(self, reference, jobs):
        backend = ThreadPoolBackend(jobs)
        try:
            scheduler = DagScheduler(cache=ArtifactCache(), backend=backend)
            _assert_identical(_run_sweep(scheduler), reference)
        finally:
            backend.shutdown()

    @needs_fork
    def test_fused_pool_warm_cache(self, reference, tmp_path):
        """Pool workers score against dataset and fault artifacts that a
        one-arm serial run left warm in a reopened disk store."""
        _run_sweep(DagScheduler(cache=ArtifactCache(directory=tmp_path)), n_arms=1)
        cache = ArtifactCache(directory=tmp_path)
        scheduler = DagScheduler(
            cache=cache, backend=ProcessPoolBackend(2, start_method="fork")
        )
        _assert_identical(_run_sweep(scheduler), reference)
        # Only the two new arms' scores and the aggregate were computed.
        assert cache.stats().puts == 2 * N_TRIALS + 1

    @needs_fork
    def test_shard_size_does_not_change_values(self):
        """The pooled per-arm reference agrees with the pooled sweep at
        every reference shard size."""
        swept = _run_sweep(
            DagScheduler(
                cache=ArtifactCache(),
                backend=ProcessPoolBackend(2, start_method="fork"),
            )
        )
        for shard_size in (1, 2, N_TRIALS):
            runtime = TrialRuntime(
                backend=ProcessPoolBackend(2, start_method="fork"),
                shard_size=shard_size,
            )
            _assert_identical(swept, _unfused_reference(*_fixture(), runtime))


class TestSpawnLimitation:
    @pytest.mark.skipif(
        "spawn" not in multiprocessing.get_all_start_methods(),
        reason="spawn start method unavailable",
    )
    def test_fused_closures_degrade_to_serial_under_spawn(
        self, reference, monkeypatch
    ):
        """Sweep node functions close over lambda arms; spawn cannot
        pickle them, so the pre-flight check must warn once and run them
        in-process — with values bit-identical to a serial backend."""
        from repro.runtime import backend as backend_mod

        monkeypatch.setattr(backend_mod, "_SPAWN_FALLBACK_WARNED", False)
        scheduler = DagScheduler(
            cache=ArtifactCache(),
            backend=ProcessPoolBackend(2, start_method="spawn"),
        )
        with pytest.warns(RuntimeWarning, match="not picklable"):
            swept = _run_sweep(scheduler)
        _assert_identical(swept, reference)
        serial = _run_sweep(DagScheduler(backend=SerialBackend()))
        _assert_identical(swept, serial)
