"""The coordinator: :class:`ClusterBackend`, an Executor over TCP workers.

``run_shards`` ships the shard function **once per worker** (content-
addressed by its pickle blob, so repeat waves and repeat runs re-send
nothing a connection already holds), then feeds each worker one shard
at a time: dispatch, await result, dispatch the next — the classic
work-queue that keeps fast workers busy without a partitioning step.
While shards execute the coordinator also answers ``artifact-request``
messages from its bound :class:`~repro.cache.ArtifactCache`, which is
what lets dispatches reference inputs by ~100-byte content key.

Failure model (docs/CLUSTER.md):

* a worker that stops sending (heartbeats flow even mid-shard) past
  ``heartbeat_timeout_s``, or whose connection drops, is declared dead;
  its in-flight shard is **re-dispatched** to a surviving worker —
  shards are deterministic functions of their plan seeds, so a retry
  is bit-identical and publication (always in the parent, always via
  atomic ``os.replace``) stays at-most-once;
* duplicate results (a "dead" worker that was merely slow) are
  dropped by shard index — first result wins, and both are identical
  by construction;
* if **every** worker dies mid-run the remaining shards run serially
  in the coordinator process with a :class:`RuntimeWarning` — the
  campaign still completes, exactly like the process pool's spawn
  fallback;
* a shard function that cannot ship (it closes over a lock, a socket…)
  degrades to in-process serial execution with a warn-once message,
  mirroring :class:`~repro.runtime.ProcessPoolBackend` under spawn.
"""

from __future__ import annotations

import queue
import socket
import threading
import time
import warnings
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field

from repro.cache.store import ArtifactCache
from repro.cluster import shipping
from repro.cluster.protocol import (
    PROTOCOL_VERSION,
    Channel,
    ClusterError,
    pack_artifact,
)
from repro.exceptions import ConfigurationError
from repro.runtime.backend import Executor, SerialBackend, ShardFn, ShardResult
from repro.runtime.plan import Shard

#: Once-per-process latch for the unshippable-shard-function warning.
_SHIP_FALLBACK_WARNED = False


def parse_worker_list(spec: str | Sequence[str]) -> list[tuple[str, int]]:
    """Parse ``"host:port,host:port"`` (or a pre-split list) to addresses."""
    if isinstance(spec, str):
        entries = [entry.strip() for entry in spec.split(",") if entry.strip()]
    else:
        entries = [str(entry).strip() for entry in spec if str(entry).strip()]
    if not entries:
        raise ConfigurationError("need at least one worker address")
    addresses = []
    for entry in entries:
        host, sep, port = entry.rpartition(":")
        if not sep or not host:
            raise ConfigurationError(
                f"worker address {entry!r} is not host:port"
            )
        try:
            addresses.append((host, int(port)))
        except ValueError:
            raise ConfigurationError(
                f"worker address {entry!r} has a non-integer port"
            ) from None
    return addresses


@dataclass
class WorkerStats:
    """Per-worker transfer and execution telemetry.

    Attributes:
        address: ``host:port`` of the worker.
        shards: results this worker delivered (duplicates excluded).
        elapsed_s: summed worker-side shard execution seconds.
        bytes_sent: bytes the coordinator sent this worker (tasks,
            dispatches, artifacts).
        bytes_received: bytes received from it (results, requests).
        artifact_pulls: artifacts the worker JIT-pulled on cache miss.
        pulled_bytes: payload bytes of those pulls.
        local_hits: input keys the worker resolved from its own cache.
        publishes: artifacts the worker published locally.
        redispatches: shards taken away from this worker after it died.
    """

    address: str
    shards: int = 0
    elapsed_s: float = 0.0
    bytes_sent: int = 0
    bytes_received: int = 0
    artifact_pulls: int = 0
    pulled_bytes: int = 0
    local_hits: int = 0
    publishes: int = 0
    redispatches: int = 0

    @property
    def cache_hit_rate(self) -> float:
        """local hits / key resolutions; 1.0 for a fully warm worker."""
        total = self.local_hits + self.artifact_pulls
        return self.local_hits / total if total else 0.0

    def as_dict(self) -> dict:
        out = {f: getattr(self, f) for f in self.__dataclass_fields__}
        out["elapsed_s"] = round(out["elapsed_s"], 4)
        out["cache_hit_rate"] = round(self.cache_hit_rate, 4)
        return out


@dataclass
class _Link:
    """One live worker connection and its coordinator-side state."""

    address: tuple[str, int]
    channel: Channel
    stats: WorkerStats
    sent_fns: set = field(default_factory=set)
    alive: bool = True
    busy_with: Shard | None = None
    last_seen: float = field(default_factory=time.monotonic)

    @property
    def label(self) -> str:
        return f"{self.address[0]}:{self.address[1]}"


class ClusterBackend(Executor):
    """Runs shards across remote workers (see module docstring).

    Args:
        workers: worker addresses — ``"host:port,host:port"``, or a
            sequence of such strings or ``(host, port)`` tuples.
        heartbeat_interval_s: liveness cadence asked of each worker.
        heartbeat_timeout_s: silence past which a worker is declared
            dead and its in-flight shard re-dispatched.
        connect_timeout_s: TCP connect + handshake budget per worker.
        require_all: when True, failing to connect to *any* configured
            worker raises instead of running degraded on the rest.
    """

    def __init__(
        self,
        workers: str | Sequence,
        heartbeat_interval_s: float = 0.5,
        heartbeat_timeout_s: float = 10.0,
        connect_timeout_s: float = 5.0,
        require_all: bool = False,
    ) -> None:
        if heartbeat_timeout_s <= heartbeat_interval_s:
            raise ConfigurationError(
                f"heartbeat_timeout_s ({heartbeat_timeout_s}) must exceed "
                f"heartbeat_interval_s ({heartbeat_interval_s})"
            )
        addresses = []
        for address in (
            parse_worker_list(workers)
            if isinstance(workers, str)
            else [
                a if isinstance(a, tuple) else parse_worker_list(a)[0]
                for a in workers
            ]
        ):
            addresses.append((str(address[0]), int(address[1])))
        if not addresses:
            raise ConfigurationError("need at least one worker address")
        self.addresses = addresses
        self.jobs = len(addresses)
        self.heartbeat_interval_s = heartbeat_interval_s
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.connect_timeout_s = connect_timeout_s
        self.require_all = require_all
        self._links: dict[str, _Link] = {}
        self._incoming: queue.Queue = queue.Queue()
        self._artifact_source: ArtifactCache | None = None
        self._run_id = 0
        self._stats: dict[str, WorkerStats] = {
            f"{host}:{port}": WorkerStats(address=f"{host}:{port}")
            for host, port in addresses
        }
        self._closed = False

    # -- wiring -----------------------------------------------------------

    def bind_artifact_source(self, cache: ArtifactCache | None) -> None:
        """Attach the store worker pulls are served from.

        The DAG scheduler calls this with its own artifact cache
        before dispatching, which is what turns "ship
        the arrays" into "ship the key".
        """
        self._artifact_source = cache

    def describe(self) -> str:
        labels = ",".join(f"{h}:{p}" for h, p in self.addresses)
        return f"ClusterBackend(workers={self.jobs}: {labels})"

    def stats(self) -> dict[str, WorkerStats]:
        """Per-worker telemetry, keyed by ``host:port``."""
        for label, link in self._links.items():
            self._stats[label].bytes_sent = link.channel.bytes_sent
            self._stats[label].bytes_received = link.channel.bytes_received
        return dict(self._stats)

    def close(self) -> None:
        """Send shutdown to every live worker and drop the connections."""
        self._closed = True
        for link in self._links.values():
            if link.alive:
                try:
                    link.channel.send({"type": "shutdown"})
                except OSError:
                    pass
            link.channel.close()
        self._links.clear()

    def __enter__(self) -> "ClusterBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- connection management --------------------------------------------

    def _connect(self, address: tuple[str, int]) -> _Link:
        sock = socket.create_connection(address, timeout=self.connect_timeout_s)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        label = f"{address[0]}:{address[1]}"
        channel = Channel(sock, name=f"worker {label}")
        channel.send(
            {
                "type": "hello",
                "protocol": PROTOCOL_VERSION,
                "python": shipping.python_tag(),
                "heartbeat_interval_s": self.heartbeat_interval_s,
            }
        )
        sock.settimeout(self.connect_timeout_s)
        header, _ = channel.recv()
        if header.get("type") == "reject":
            channel.close()
            raise ClusterError(
                f"worker {label} rejected the session: {header.get('reason')}"
            )
        if header.get("type") != "welcome":
            channel.close()
            raise ClusterError(
                f"worker {label} answered {header.get('type')!r}, not welcome"
            )
        sock.settimeout(None)
        link = _Link(address=address, channel=channel, stats=self._stats[label])
        reader = threading.Thread(
            target=self._reader_loop, args=(link,), daemon=True
        )
        reader.start()
        return link

    def _reader_loop(self, link: _Link) -> None:
        try:
            while True:
                header, blobs = link.channel.recv()
                link.last_seen = time.monotonic()
                if header.get("type") == "heartbeat":
                    continue
                self._incoming.put((link, header, blobs))
        except (ClusterError, OSError):
            self._incoming.put((link, {"type": "__link-lost__"}, ()))

    def _ensure_links(self) -> list[_Link]:
        """Connect (or reconnect) every configured worker; alive links."""
        alive = []
        for address in self.addresses:
            label = f"{address[0]}:{address[1]}"
            link = self._links.get(label)
            if link is not None and link.alive:
                alive.append(link)
                continue
            try:
                link = self._connect(address)
            except (OSError, ClusterError) as exc:
                if self.require_all or isinstance(exc, ClusterError):
                    raise ClusterError(
                        f"cannot use worker {label}: {exc}"
                    ) from exc
                continue
            self._links[label] = link
            alive.append(link)
        return alive

    # -- execution --------------------------------------------------------

    def run_shards(
        self, shard_fn: ShardFn, shards: Sequence[Shard]
    ) -> Iterator[ShardResult]:
        shards = list(shards)
        if not shards:
            return
        if self._closed:
            raise ClusterError("ClusterBackend was closed; create a new one")
        blob = self._ship_blob(shard_fn)
        if blob is None:
            yield from SerialBackend().run_shards(shard_fn, shards)
            return
        links = self._ensure_links()
        if not links:
            raise ClusterError(
                f"no cluster worker reachable (tried "
                f"{[f'{h}:{p}' for h, p in self.addresses]})"
            )
        yield from self._dispatch_loop(shard_fn, shards, blob)

    def _ship_blob(self, shard_fn: ShardFn) -> bytes | None:
        """The shipped form of *shard_fn*, or None → serial fallback."""
        target = shard_fn
        for_cluster = getattr(shard_fn, "for_cluster", None)
        if callable(for_cluster):
            target = for_cluster()
        try:
            return shipping.dumps(target)
        except Exception as exc:
            global _SHIP_FALLBACK_WARNED
            if not _SHIP_FALLBACK_WARNED:
                _SHIP_FALLBACK_WARNED = True
                warnings.warn(
                    f"shard function cannot be shipped to cluster workers "
                    f"({type(exc).__name__}: {exc}); falling back to "
                    f"in-process serial execution — make the shard function "
                    f"and everything it closes over picklable for "
                    f"multi-host speedup",
                    RuntimeWarning,
                    stacklevel=3,
                )
            return None

    def _dispatch_loop(
        self, shard_fn: ShardFn, shards: list[Shard], blob: bytes
    ) -> Iterator[ShardResult]:
        self._run_id += 1
        run_id = self._run_id
        fn_id = shipping.blob_id(blob)
        self._drain_stale()
        for link in self._links.values():
            link.busy_with = None
        pending: list[Shard] = list(shards)
        yielded: set[int] = set()
        n_total = len(shards)

        while len(yielded) < n_total:
            pending = self._reap_dead(pending)
            alive = [l for l in self._links.values() if l.alive]
            if not alive:
                remaining = pending + [
                    s
                    for l in self._links.values()
                    if l.busy_with is not None
                    for s in [l.busy_with]
                ]
                remaining = [s for s in remaining if s.index not in yielded]
                warnings.warn(
                    f"all {self.jobs} cluster worker(s) died; running the "
                    f"remaining {len(remaining)} shard(s) serially in the "
                    f"coordinator process",
                    RuntimeWarning,
                    stacklevel=2,
                )
                for result in SerialBackend().run_shards(shard_fn, remaining):
                    yielded.add(result.index)
                    yield result
                return
            for link in alive:
                if link.busy_with is None and pending:
                    self._dispatch(link, run_id, fn_id, blob, pending.pop(0))
            try:
                link, header, blobs = self._incoming.get(timeout=0.05)
            except queue.Empty:
                continue
            kind = header.get("type")
            if kind == "__link-lost__":
                self._bury(link)
            elif kind == "artifact-request":
                self._serve_artifact(link, header["key"])
            elif kind == "result":
                result = self._accept_result(link, header, blobs, run_id, yielded)
                if result is not None:
                    yielded.add(result.index)
                    yield result
            elif kind == "shard-error":
                if header.get("run_id") == run_id:
                    raise ClusterError(
                        f"worker {link.label} failed shard "
                        f"{header.get('shard_index')}: {header.get('error')}\n"
                        f"{header.get('details', '')}"
                    )
                link.busy_with = None

    def _dispatch(
        self, link: _Link, run_id: int, fn_id: str, blob: bytes, shard: Shard
    ) -> None:
        try:
            if fn_id not in link.sent_fns:
                link.channel.send({"type": "task", "fn_id": fn_id}, (blob,))
                link.sent_fns.add(fn_id)
            link.channel.send(
                {
                    "type": "dispatch",
                    "run_id": run_id,
                    "fn_id": fn_id,
                    "shard_index": shard.index,
                },
                (shipping.dumps(shard),),
            )
            link.busy_with = shard
        except OSError:
            link.busy_with = shard  # _bury re-queues it
            self._bury(link)

    def _accept_result(
        self,
        link: _Link,
        header: dict,
        blobs: tuple[bytes, ...],
        run_id: int,
        yielded: set[int],
    ) -> ShardResult | None:
        link.busy_with = None
        if header.get("run_id") != run_id:
            return None  # stale result from an abandoned run
        index = int(header["shard_index"])
        if index in yielded:
            return None  # duplicate after re-dispatch; first wins
        values = shipping.loads(blobs[0])
        stats = header.get("stats") or {}
        link.stats.shards += 1
        link.stats.elapsed_s += float(header.get("elapsed_s", 0.0))
        link.stats.artifact_pulls += int(stats.get("pulls", 0))
        link.stats.pulled_bytes += int(stats.get("pulled_bytes", 0))
        link.stats.local_hits += int(stats.get("local_hits", 0))
        link.stats.publishes += int(stats.get("publishes", 0))
        return ShardResult(
            index=index,
            values=list(values),
            elapsed_s=float(header.get("elapsed_s", 0.0)),
        )

    def _reap_dead(self, pending: list[Shard]) -> list[Shard]:
        """Re-queue in-flight shards of workers that stopped heartbeating."""
        now = time.monotonic()
        for link in self._links.values():
            if link.alive and now - link.last_seen > self.heartbeat_timeout_s:
                self._bury(link)
        requeued = []
        for link in self._links.values():
            if not link.alive and link.busy_with is not None:
                requeued.append(link.busy_with)
                link.stats.redispatches += 1
                link.busy_with = None
        # Re-dispatched shards go to the front: they are the oldest work.
        return requeued + pending

    def _bury(self, link: _Link) -> None:
        if not link.alive:
            return
        link.alive = False
        link.stats.bytes_sent = link.channel.bytes_sent
        link.stats.bytes_received = link.channel.bytes_received
        link.channel.close()

    def _serve_artifact(self, link: _Link, key: str) -> None:
        artifact = (
            self._artifact_source.get(key)
            if self._artifact_source is not None
            else None
        )
        try:
            if artifact is None:
                link.channel.send({"type": "artifact", "key": key, "found": False})
            else:
                header, payload = pack_artifact(artifact)
                header.update({"type": "artifact", "key": key, "found": True})
                link.channel.send(header, (payload,))
        except OSError:
            self._bury(link)

    def _drain_stale(self) -> None:
        """Drop queued messages from abandoned runs (keep link-lost marks)."""
        backlog = []
        while True:
            try:
                item = self._incoming.get_nowait()
            except queue.Empty:
                break
            if item[1].get("type") in ("__link-lost__", "artifact-request"):
                backlog.append(item)
        for item in backlog:
            self._incoming.put(item)
