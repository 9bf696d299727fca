"""Tests for the sweep vocabulary and key functions of :mod:`repro.dag.build`."""

import numpy as np
import pytest

from repro.cache import ArtifactCache
from repro.config import NGSTDatasetConfig
from repro.dag import (
    Arm,
    DagScheduler,
    FaultSpec,
    TaskGraph,
    add_arm_sweep,
    add_pipeline_nodes,
    pristine_key,
    realization_key,
)
from repro.dag.build import aggregate_values
from repro.exceptions import ConfigurationError
from repro.experiments.common import walk_dataset
from repro.faults.correlated import CorrelatedFaultModel
from repro.faults.injector import FaultInjector, derive_injector_seed
from repro.faults.uncorrelated import UncorrelatedFaultModel


def _dataset(n_variants=8, shape=(4, 4)):
    return walk_dataset(NGSTDatasetConfig(n_variants=n_variants), shape)


def _fault(gamma0=0.05):
    return FaultSpec.of(UncorrelatedFaultModel(gamma0))


class TestFaultSpec:
    def test_of_derives_key_parts_from_model(self):
        spec = FaultSpec.of(CorrelatedFaultModel(0.05))
        assert spec.key_parts

    def test_of_rejects_models_without_key_parts(self):
        class Opaque:
            def corrupt(self, data, rng):
                return data

        with pytest.raises(ConfigurationError, match="cache_key_parts"):
            FaultSpec.of(Opaque())


class TestKeys:
    def test_fingerprints_separate_seeds_and_pipelines(self):
        dataset = _dataset()
        a, b = np.random.SeedSequence(0), np.random.SeedSequence(1)
        assert pristine_key(dataset, a) != pristine_key(dataset, b)
        assert realization_key(dataset, _fault(0.05), a) != realization_key(
            dataset, _fault(0.1), a
        )
        assert pristine_key(dataset, a) != pristine_key(_dataset(n_variants=16), a)
        assert realization_key(dataset, _fault(), a) != realization_key(
            _dataset(n_variants=16), _fault(), a
        )

    def test_keys_are_pinned(self):
        """Stores written before the specs moved next to the DAG
        builders must stay warm: these hex values are the keys the
        earlier code derived for the same spec and seed."""
        dataset, fault = _dataset(), _fault()
        seed = np.random.SeedSequence(3)
        assert pristine_key(dataset, seed) == (
            "268d998d1d60375f78fc1dbdb46bf6ca5762f6c4337e4e65e0a9e8b47240081b"
        )
        assert realization_key(dataset, fault, seed) == (
            "b10fa2dd70cab2ef39acde07009a7e53fed055ab8cff89665bfb1a6ca9e2f3af"
        )
        dataset = walk_dataset(NGSTDatasetConfig(n_variants=6), (8, 8))
        fault = FaultSpec.of(CorrelatedFaultModel(0.05))
        seed = np.random.SeedSequence(2003).spawn(2)[1]
        assert pristine_key(dataset, seed) == (
            "4cea4faf6d8bed0da075e3b183a6dd72fbe91ac7b820df796315556afcfc66cd"
        )
        assert realization_key(dataset, fault, seed) == (
            "278d75363b87c555363d4a2ff37fc2083df0435b741fff5314edd45c153dc2bf"
        )

    def test_pipeline_nodes_store_under_the_key_functions(self):
        graph = TaskGraph("keys")
        dataset, fault = _dataset(), _fault()
        seed = np.random.SeedSequence(3)
        dataset_node, fault_node = add_pipeline_nodes(graph, dataset, fault, seed)
        assert graph.output_key(dataset_node) == pristine_key(dataset, seed)
        assert graph.output_key(fault_node) == realization_key(dataset, fault, seed)


def _trial_artifacts(dataset, fault, seed):
    """The canonical trial protocol's (pristine, corrupted) pair."""
    rng = np.random.default_rng(seed)
    pristine = dataset.build(rng)
    injector = FaultInjector(fault.model, seed=derive_injector_seed(rng))
    corrupted, _ = injector.inject(pristine)
    return pristine, corrupted


def _mean_arm(name="mean"):
    return Arm(name=name, evaluate=lambda corrupted, pristine: float(corrupted.mean()))


def _sweep(
    graph=None,
    arms=None,
    gamma0=0.01,
    n_trials=4,
    seed=0,
    n_variants=8,
    prefix="sweep",
):
    graph = graph if graph is not None else TaskGraph("sweep")
    aggregate = add_arm_sweep(
        graph,
        prefix,
        arms if arms is not None else [_mean_arm()],
        _dataset(n_variants=n_variants),
        _fault(gamma0),
        n_trials,
        seed,
    )
    return graph, aggregate


def _nodes_of_kind(graph, kind):
    return {name for name in graph if graph.node(name).kind == kind}


class TestArmSweep:
    def test_arms_share_one_dataset_and_fault_node_per_trial(self):
        graph, _ = _sweep(arms=[_mean_arm(f"arm-{i}") for i in range(3)])
        assert graph.kind_counts() == {
            "dataset": 4,
            "fault": 4,
            "score": 12,
            "aggregate": 1,
        }

    def test_different_fault_params_share_only_datasets(self):
        graph, _ = _sweep(gamma0=0.01, prefix="a")
        _sweep(graph, gamma0=0.02, prefix="b")
        assert len(_nodes_of_kind(graph, "dataset")) == 4
        assert len(_nodes_of_kind(graph, "fault")) == 8

    def test_different_dataset_config_shares_nothing(self):
        graph, _ = _sweep(n_variants=8, prefix="a")
        _sweep(graph, n_variants=16, prefix="b")
        assert len(_nodes_of_kind(graph, "dataset")) == 8
        assert len(_nodes_of_kind(graph, "fault")) == 8

    def test_different_seed_shares_nothing_and_trial_prefixes_are_shared(self):
        graph, _ = _sweep(seed=0, prefix="a")
        _sweep(graph, seed=1, prefix="b")
        assert len(_nodes_of_kind(graph, "dataset")) == 8
        # Trial i's seed is the i-th spawn child at any trial count, so
        # a longer sweep reuses the shorter one's trials.
        graph, short = _sweep(n_trials=4, prefix="a")
        _, long = _sweep(graph, n_trials=8, prefix="b")
        assert len(_nodes_of_kind(graph, "dataset")) == 8
        assert graph.output_key(short) != graph.output_key(long)

    def test_aggregate_preserves_arm_order(self):
        graph, aggregate = _sweep(arms=[_mean_arm(n) for n in ("c", "a", "b")])
        outputs = DagScheduler().run(graph, targets=(aggregate,))
        assert list(aggregate_values(outputs[aggregate])) == ["c", "a", "b"]

    def test_single_arm_sweep_is_legal(self):
        graph, aggregate = _sweep()
        outputs = DagScheduler().run(graph, targets=(aggregate,))
        assert aggregate_values(outputs[aggregate])["mean"].shape == (4,)

    def test_rejects_bad_trial_count(self):
        with pytest.raises(ConfigurationError, match="n_trials"):
            _sweep(n_trials=0)

    def test_rejects_duplicate_arm_names(self):
        with pytest.raises(ConfigurationError, match="uniquely named"):
            _sweep(arms=[_mean_arm("x"), _mean_arm("x")])

    def test_rejects_empty_arm_list(self):
        with pytest.raises(ConfigurationError, match="uniquely named"):
            _sweep(arms=[])

    def test_aggregate_key_depends_on_arm_names(self):
        """Aggregates over different arm sets never share a stored value."""
        one_graph, one = _sweep(arms=[_mean_arm("a")])
        two_graph, two = _sweep(arms=[_mean_arm("a"), _mean_arm("b")])
        assert one_graph.output_key(one) != two_graph.output_key(two)


class TestArtifactNodes:
    def test_artifacts_match_the_canonical_trial_protocol(self):
        dataset, fault = _dataset(), _fault()
        seed = np.random.SeedSequence(3)
        pristine, corrupted = _trial_artifacts(dataset, fault, seed)
        graph = TaskGraph("protocol")
        nodes = add_pipeline_nodes(graph, dataset, fault, seed)
        outputs = DagScheduler().run(graph, targets=nodes)
        assert outputs[nodes[0]].arrays["pristine"].tobytes() == pristine.tobytes()
        assert outputs[nodes[1]].arrays["corrupted"].tobytes() == corrupted.tobytes()

    def test_outputs_are_read_only(self):
        graph = TaskGraph("read-only")
        nodes = add_pipeline_nodes(
            graph, _dataset(), _fault(), np.random.SeedSequence(3)
        )
        outputs = DagScheduler().run(graph, targets=nodes)
        for array in (
            outputs[nodes[0]].arrays["pristine"],
            outputs[nodes[1]].arrays["corrupted"],
        ):
            with pytest.raises(ValueError):
                array[(0,) * array.ndim] = 0

    def test_cache_hit_is_bit_identical_to_miss(self, tmp_path):
        """Artifacts restored from a reopened store are the bytes a cold
        run computes, and restoring them runs no node."""
        dataset, fault = _dataset(), _fault()
        seed = np.random.SeedSequence(3)
        graph = TaskGraph("hit")
        nodes = add_pipeline_nodes(graph, dataset, fault, seed)
        cold = DagScheduler(cache=ArtifactCache(directory=tmp_path)).run(
            graph, targets=nodes
        )
        store = ArtifactCache(directory=tmp_path)
        warm = DagScheduler(cache=store).run(graph, targets=nodes)
        assert store.stats().puts == 0
        assert store.stats().disk_hits == 2
        for node in nodes:
            for name, array in cold[node].arrays.items():
                assert warm[node].arrays[name].tobytes() == array.tobytes()

    def test_pristine_hit_realization_miss_is_bit_identical(self):
        """The asymmetric case: warm dataset, cold realization.  The
        fault node must restore the captured post-generation RNG state
        so its realization matches the canonical protocol."""
        dataset, fault = _dataset(), _fault()
        seed = np.random.SeedSequence(3)
        _, expected = _trial_artifacts(dataset, fault, seed)

        graph = TaskGraph("asymmetric")
        dataset_node, fault_node = add_pipeline_nodes(graph, dataset, fault, seed)
        cache = ArtifactCache()
        DagScheduler(cache=cache).run(graph)
        # Evict only the realization; the pristine entry stays warm.
        cache._memory.pop(graph.output_key(fault_node))
        survey = DagScheduler(cache=cache).survey(graph)
        assert survey.pending() == (fault_node,)

        outputs = DagScheduler(cache=cache).run(graph, targets=(fault_node,))
        assert outputs[fault_node].arrays["corrupted"].tobytes() == expected.tobytes()

    def test_faultless_pipeline_returns_pristine_twice(self):
        graph = TaskGraph("faultless")
        seed = np.random.SeedSequence(0)
        dataset_node, corrupted_node = add_pipeline_nodes(
            graph, _dataset(), None, seed
        )
        assert corrupted_node == dataset_node

        aggregate = add_arm_sweep(
            graph,
            "pristine",
            [Arm("same", lambda corrupted, pristine: float(corrupted is pristine))],
            _dataset(),
            None,
            n_trials=2,
            seed=0,
        )
        outputs = DagScheduler().run(graph, targets=(aggregate,))
        assert aggregate_values(outputs[aggregate])["same"].tolist() == [1.0, 1.0]
