"""ClusterBackend against in-thread workers: equivalence and degradation."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.cluster import (
    ClusterBackend,
    ClusterError,
    Worker,
    parse_worker_list,
)
from repro.cluster.coordinator import WorkerStats
from repro.exceptions import ConfigurationError
from repro.runtime import SerialBackend, resolve_backend
from repro.runtime.plan import Shard, TrialPlan


@pytest.fixture
def worker():
    """A real Worker served from a daemon thread in this process."""
    w = Worker()
    thread = threading.Thread(target=w.serve_forever, daemon=True)
    thread.start()
    yield w
    w.stop()


def _backend(*workers, **overrides) -> ClusterBackend:
    overrides.setdefault("heartbeat_interval_s", 0.1)
    overrides.setdefault("heartbeat_timeout_s", 2.0)
    return ClusterBackend([w.address for w in workers], **overrides)


def _trial_shard_fn(shard: Shard) -> list:
    return [float(np.random.default_rng(seed).normal()) for seed in shard.seeds]


class TestClusterBackend:
    def test_values_match_serial_bit_for_bit(self, worker):
        plan = TrialPlan(n_trials=17, seed=3, shard_size=4)
        serial = [
            r.values
            for r in SerialBackend().run_shards(_trial_shard_fn, plan.shards)
        ]
        with _backend(worker) as backend:
            results = sorted(
                backend.run_shards(_trial_shard_fn, plan.shards),
                key=lambda r: r.index,
            )
        assert [r.values for r in results] == serial

    def test_lambda_shard_fn_ships(self, worker):
        shards = [Shard(index=i, start=i, stop=i + 1, seeds=(i,)) for i in range(4)]
        with _backend(worker) as backend:
            results = sorted(
                backend.run_shards(lambda s: [s.start * 3], shards),
                key=lambda r: r.index,
            )
        assert [r.values for r in results] == [[0], [3], [6], [9]]

    def test_function_blob_sent_once_per_connection(self, worker):
        shards = [Shard(index=i, start=i, stop=i + 1, seeds=(i,)) for i in range(6)]

        def fn(shard):
            return [shard.index]

        with _backend(worker) as backend:
            list(backend.run_shards(fn, shards))
            sent_after_first = backend._links[
                f"{worker.address[0]}:{worker.address[1]}"
            ].channel.bytes_sent
            list(backend.run_shards(fn, shards))
            link = backend._links[f"{worker.address[0]}:{worker.address[1]}"]
            assert len(link.sent_fns) == 1  # same fn_id → no re-send
            resend_bytes = link.channel.bytes_sent - sent_after_first
        # The second run shipped only dispatch headers + Shard blobs.
        assert resend_bytes < sent_after_first

    def test_warm_dispatch_wire_bytes_per_shard(self, worker):
        # On a warm connection a dispatch carries a header and a Shard
        # (keys and seeds), never arrays or the function again: a few
        # hundred bytes per shard.
        plan = TrialPlan(n_trials=24, seed=5, shard_size=3)
        with _backend(worker) as backend:
            list(backend.run_shards(_trial_shard_fn, plan.shards))
            link = backend._links[f"{worker.address[0]}:{worker.address[1]}"]
            cold_bytes = link.channel.bytes_sent
            list(backend.run_shards(_trial_shard_fn, plan.shards))
            warm_bytes = link.channel.bytes_sent - cold_bytes
        per_shard = warm_bytes / len(plan.shards)
        assert 0 < per_shard < 10_000

    def test_shard_error_raises_cluster_error(self, worker):
        def broken(shard):
            raise ValueError("deliberate")

        shards = [Shard(index=0, start=0, stop=1, seeds=(1,))]
        with _backend(worker) as backend:
            with pytest.raises(ClusterError, match="deliberate"):
                list(backend.run_shards(broken, shards))

    def test_unshippable_fn_degrades_to_serial_with_warning(self, worker):
        import repro.cluster.coordinator as coordinator

        lock = threading.Lock()

        def locked(shard):
            with lock:
                return [shard.index]

        shards = [Shard(index=0, start=0, stop=1, seeds=(1,))]
        coordinator._SHIP_FALLBACK_WARNED = False
        try:
            with _backend(worker) as backend:
                with pytest.warns(RuntimeWarning, match="cannot be shipped"):
                    (result,) = list(backend.run_shards(locked, shards))
                assert result.values == [0]
                # Warn-once: a second degraded run stays silent.
                import warnings as warnings_module

                with warnings_module.catch_warnings():
                    warnings_module.simplefilter("error")
                    list(backend.run_shards(locked, shards))
        finally:
            coordinator._SHIP_FALLBACK_WARNED = False

    def test_no_reachable_worker_raises(self):
        backend = ClusterBackend(
            "127.0.0.1:1", connect_timeout_s=0.5
        )  # port 1: nothing listens
        shards = [Shard(index=0, start=0, stop=1, seeds=(1,))]
        with pytest.raises(ClusterError, match="no cluster worker reachable"):
            list(backend.run_shards(lambda s: [0], shards))

    def test_closed_backend_refuses_work(self, worker):
        backend = _backend(worker)
        backend.close()
        with pytest.raises(ClusterError, match="closed"):
            list(
                backend.run_shards(
                    lambda s: [0], [Shard(index=0, start=0, stop=1, seeds=(1,))]
                )
            )

    def test_empty_shards_is_a_noop(self, worker):
        with _backend(worker) as backend:
            assert list(backend.run_shards(lambda s: [0], [])) == []

    def test_heartbeat_validation(self):
        with pytest.raises(ConfigurationError, match="must exceed"):
            ClusterBackend(
                "127.0.0.1:9", heartbeat_interval_s=1.0, heartbeat_timeout_s=0.5
            )


class TestHandshake:
    def test_protocol_mismatch_rejected(self, worker):
        import socket

        from repro.cluster import shipping
        from repro.cluster.protocol import Channel

        sock = socket.create_connection(worker.address, timeout=5.0)
        channel = Channel(sock)
        channel.send(
            {"type": "hello", "protocol": 999, "python": shipping.python_tag()}
        )
        header, _ = channel.recv()
        assert header["type"] == "reject"
        assert "protocol mismatch" in header["reason"]
        channel.close()

    def test_python_mismatch_rejected(self, worker):
        import socket

        from repro.cluster.protocol import PROTOCOL_VERSION, Channel

        sock = socket.create_connection(worker.address, timeout=5.0)
        channel = Channel(sock)
        channel.send(
            {"type": "hello", "protocol": PROTOCOL_VERSION, "python": "cpython-2.7"}
        )
        header, _ = channel.recv()
        assert header["type"] == "reject"
        assert "python mismatch" in header["reason"]
        channel.close()


class TestParseWorkerList:
    def test_parses_comma_separated_addresses(self):
        assert parse_worker_list("a:1, b:2 ,c:3") == [
            ("a", 1),
            ("b", 2),
            ("c", 3),
        ]

    def test_rejects_missing_port(self):
        with pytest.raises(ConfigurationError, match="not host:port"):
            parse_worker_list("nohost")

    def test_rejects_non_integer_port(self):
        with pytest.raises(ConfigurationError, match="non-integer port"):
            parse_worker_list("host:http")

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError, match="at least one"):
            parse_worker_list(" , ")


class TestResolveBackend:
    def test_inference_matches_legacy_flags(self):
        assert resolve_backend(None).describe().startswith("SerialBackend")
        assert resolve_backend(None, threads=3).jobs == 3
        assert resolve_backend(None, jobs=2).describe().startswith(
            "ProcessPoolBackend"
        )

    def test_explicit_names(self):
        assert resolve_backend("serial").jobs == 1
        assert resolve_backend("thread", threads=2).jobs == 2
        assert resolve_backend("process", jobs=2).jobs == 2

    def test_cluster_needs_workers(self):
        with pytest.raises(ConfigurationError, match="--workers"):
            resolve_backend("cluster")

    def test_cluster_resolves(self):
        backend = resolve_backend("cluster", workers="127.0.0.1:9999")
        assert isinstance(backend, ClusterBackend)
        assert backend.jobs == 1

    def test_workers_without_cluster_rejected(self):
        with pytest.raises(ConfigurationError, match="only applies"):
            resolve_backend("serial", workers="127.0.0.1:9999")

    def test_workers_alone_imply_cluster(self):
        assert isinstance(
            resolve_backend(None, workers="127.0.0.1:9999"), ClusterBackend
        )

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown backend"):
            resolve_backend("quantum")


class TestWorkerStats:
    def test_hit_rate(self):
        stats = WorkerStats(address="h:1", local_hits=3, artifact_pulls=1)
        assert stats.cache_hit_rate == 0.75
        assert WorkerStats(address="h:1").cache_hit_rate == 0.0

    def test_as_dict_is_jsonable(self):
        import json

        json.dumps(WorkerStats(address="h:1", elapsed_s=1.23456).as_dict())
