"""Tests for TrialRuntime: equivalence, store-backed resume, telemetry."""

import numpy as np
import pytest

from repro.cache import ArtifactCache
from repro.dag import json_artifact
from repro.exceptions import ConfigurationError
from repro.runtime import (
    ProcessPoolBackend,
    RunCompleted,
    RunStarted,
    SerialBackend,
    ShardCompleted,
    Telemetry,
    TrialRuntime,
)
from repro.runtime.executor import shard_record_key


def _trial(rng):
    return float(rng.normal())


def _multi_stat_trial(rng):
    draws = rng.normal(size=3)
    return [float(draws.min()), float(draws.max())]


class TestSerialEquivalence:
    def test_matches_plain_spawn_loop(self):
        values = TrialRuntime().run(_trial, 9, seed=13)
        reference = [
            float(np.random.default_rng(s).normal())
            for s in np.random.SeedSequence(13).spawn(9)
        ]
        assert values == reference

    def test_parallel_matches_serial_bitwise(self):
        serial = TrialRuntime(SerialBackend(), shard_size=2).run(_trial, 13, seed=7)
        parallel = TrialRuntime(ProcessPoolBackend(4), shard_size=2).run(
            _trial, 13, seed=7
        )
        assert parallel == serial

    def test_shard_size_does_not_change_values(self):
        runs = [
            TrialRuntime(shard_size=size).run(_trial, 10, seed=5)
            for size in (1, 3, 10, None)
        ]
        assert all(run == runs[0] for run in runs)

    def test_multi_stat_trials(self):
        values = TrialRuntime(shard_size=2).run(_multi_stat_trial, 5, seed=2)
        assert len(values) == 5
        assert all(isinstance(v, list) and len(v) == 2 for v in values)

    def test_closure_trials_run_in_pool(self):
        scale = 3.0
        trial = lambda rng: scale * float(rng.normal())  # noqa: E731
        serial = TrialRuntime(SerialBackend(), shard_size=1).run(trial, 6, seed=1)
        parallel = TrialRuntime(ProcessPoolBackend(2), shard_size=1).run(
            trial, 6, seed=1
        )
        assert parallel == serial


def _store(tmp_path):
    return ArtifactCache(directory=tmp_path / "store")


def _record_key(key, fingerprint, index, scope="exp"):
    return shard_record_key(scope, key, fingerprint, index)


def _resumable(cache, **kwargs):
    return TrialRuntime(checkpoint="exp", cache=cache, **kwargs)


class TestResume:
    def test_interrupted_run_resumes_without_rerunning(self, tmp_path):
        calls = {"n": 0}

        def fragile(rng):
            calls["n"] += 1
            if calls["n"] > 4:
                raise RuntimeError("simulated crash")
            return float(rng.normal())

        with pytest.raises(RuntimeError, match="simulated crash"):
            _resumable(_store(tmp_path), shard_size=2).run(fragile, 10, seed=3)
        # Two full shards (4 trials) were recorded before the crash.
        fingerprint = "n=10;seed=3;shard=2;v1"
        reopened = _store(tmp_path)
        assert [
            reopened.contains(_record_key("run-0000", fingerprint, index))
            for index in range(5)
        ] == [True, True, False, False, False]

        calls["n"] = 0

        def healthy(rng):
            calls["n"] += 1
            return float(rng.normal())

        resumed = _resumable(reopened, shard_size=2).run(healthy, 10, seed=3)
        assert calls["n"] == 6  # only the 3 unfinished shards re-ran
        clean = TrialRuntime(shard_size=2).run(_trial, 10, seed=3)
        assert resumed == clean

    def test_checkpoint_shared_between_serial_and_parallel(self, tmp_path):
        serial = _resumable(
            _store(tmp_path), backend=SerialBackend(), shard_size=2
        ).run(_trial, 9, seed=4)
        calls = {"n": 0}

        def counting(rng):
            calls["n"] += 1
            return float(rng.normal())

        resumed = _resumable(
            _store(tmp_path), backend=ProcessPoolBackend(3), shard_size=2
        ).run(counting, 9, seed=4)
        assert resumed == serial
        assert calls["n"] == 0  # every shard restored, none re-run

    def test_changed_plan_invalidates_checkpoint(self, tmp_path):
        _resumable(_store(tmp_path), shard_size=2).run(_trial, 6, seed=1)
        calls = {"n": 0}

        def counting(rng):
            calls["n"] += 1
            return float(rng.normal())

        _resumable(_store(tmp_path), shard_size=2).run(counting, 6, seed=99)
        assert calls["n"] == 6  # different seed: nothing restored
        calls["n"] = 0
        TrialRuntime(checkpoint="other", cache=_store(tmp_path), shard_size=2).run(
            counting, 6, seed=1
        )
        assert calls["n"] == 6  # different scope: nothing restored

    def test_out_of_range_shard_records_ignored(self, tmp_path):
        cache = _store(tmp_path)
        cache.put(
            _record_key("run-0000", "n=4;seed=0;shard=2;v1", 7),
            json_artifact([1.0, 2.0]),
        )
        values = _resumable(cache, shard_size=2).run(_trial, 4, seed=0)
        assert values == TrialRuntime(shard_size=2).run(_trial, 4, seed=0)

    def test_wrong_length_checkpoint_fails_loudly(self, tmp_path):
        cache = _store(tmp_path)
        cache.put(
            _record_key("run-0000", "n=4;seed=0;shard=2;v1", 0),
            json_artifact([1.0, 2.0, 3.0]),
        )
        with pytest.raises(RuntimeError, match="expected 2"):
            _resumable(cache, shard_size=2).run(_trial, 4, seed=0)

    def test_corrupt_record_reruns_its_shard(self, tmp_path):
        """A torn record fails the store's hash check and is re-run."""
        first = _resumable(_store(tmp_path), shard_size=2).run(_trial, 4, seed=0)
        key = _record_key("run-0000", "n=4;seed=0;shard=2;v1", 1)
        payload = tmp_path / "store" / f"{key}.npz"
        payload.write_bytes(payload.read_bytes()[:-8])
        calls = {"n": 0}

        def counting(rng):
            calls["n"] += 1
            return float(rng.normal())

        resumed = _resumable(_store(tmp_path), shard_size=2).run(counting, 4, seed=0)
        assert calls["n"] == 2
        assert resumed == first

    def test_values_roundtrip_bitwise(self, tmp_path):
        """Restored floats are the recorded floats, bit for bit."""
        first = _resumable(_store(tmp_path), shard_size=3).run(
            _multi_stat_trial, 7, seed=11
        )
        restored = _resumable(_store(tmp_path), shard_size=3).run(
            lambda rng: pytest.fail("every shard should be restored"), 7, seed=11
        )
        assert np.asarray(restored).tobytes() == np.asarray(first).tobytes()

    def test_scope_needs_a_cache(self):
        with pytest.raises(ConfigurationError, match="artifact cache"):
            TrialRuntime(checkpoint="exp")


class TestKeysAndTelemetry:
    def test_auto_keys_are_sequential_per_runtime(self, tmp_path):
        cache = _store(tmp_path)
        runtime = _resumable(cache, shard_size=2)
        runtime.run(_trial, 4, seed=0)
        runtime.run(_trial, 4, seed=0)
        assert cache.contains(_record_key("run-0000", "n=4;seed=0;shard=2;v1", 0))
        assert cache.contains(_record_key("run-0001", "n=4;seed=0;shard=2;v1", 0))

    def test_explicit_key_used_verbatim(self, tmp_path):
        cache = _store(tmp_path)
        _resumable(cache, shard_size=2).run(_trial, 4, seed=0, key="fig5/point-1")
        assert cache.contains(
            _record_key("fig5/point-1", "n=4;seed=0;shard=2;v1", 0)
        )

    def test_event_sequence(self):
        telemetry = Telemetry()
        events = []
        telemetry.subscribe(events.append)
        TrialRuntime(telemetry=telemetry, shard_size=2).run(_trial, 6, seed=1)

        assert isinstance(events[0], RunStarted)
        assert events[0].n_trials == 6
        assert events[0].n_shards == 3
        assert events[0].n_pending == 3

        shard_events = [e for e in events if isinstance(e, ShardCompleted)]
        assert sorted(e.shard_index for e in shard_events) == [0, 1, 2]
        assert not any(e.from_checkpoint for e in shard_events)

        assert isinstance(events[-1], RunCompleted)
        assert events[-1].n_trials == 6
        assert events[-1].n_shards_run == 3
        assert events[-1].n_shards_restored == 0

    def test_restored_shards_flagged_in_telemetry(self, tmp_path):
        _resumable(_store(tmp_path), shard_size=2).run(_trial, 6, seed=1)

        telemetry = Telemetry()
        events = []
        telemetry.subscribe(events.append)
        _resumable(_store(tmp_path), telemetry=telemetry, shard_size=2).run(
            _trial, 6, seed=1
        )
        restored = [
            e for e in events if isinstance(e, ShardCompleted) and e.from_checkpoint
        ]
        assert len(restored) == 3
        assert events[-1].n_shards_run == 0
        assert events[-1].n_shards_restored == 3
