"""The coordinator↔worker wire protocol: length-prefixed JSON + blobs.

One message is a small JSON header plus zero or more opaque binary
blobs, each length-prefixed::

    !I header_len | header JSON (UTF-8) | !I n_blobs | (!Q blob_len | blob)*

The header always carries a ``type`` field.  Message families:

=================  =========  ==========================================
type               direction  payload
=================  =========  ==========================================
hello              C → W      protocol/python tags, session id,
                              heartbeat interval
welcome            W → C      worker capabilities (python, pid, host)
reject             W → C      refusal reason (version mismatch, busy)
task               C → W      ``fn_id`` + blob 0 = shipped shard fn
dispatch           C → W      ``run_id``, ``fn_id``, ``shard_index`` +
                              blob 0 = pickled Shard
result             W → C      ``run_id``, ``shard_index``, timings,
                              stats + blob 0 = pickled shard output
shard-error        W → C      ``run_id``, ``shard_index``, error text
artifact-request   W → C      content ``key`` the worker is missing
artifact           C → W      ``key``, ``found`` + blob 0 = payload
heartbeat          W → C      liveness (flows during shard execution)
shutdown           C → W      end the session; worker re-listens
=================  =========  ==========================================

Framing is symmetric; :class:`Channel` wraps a connected socket with a
send lock (the worker's heartbeat thread and execution thread share
one socket) and byte counters for telemetry.  Artifacts cross the wire
as the same ``.npz`` payload + JSON sidecar pair the disk tier stores,
so payload hashing and verification carry over unchanged.
"""

from __future__ import annotations

import io
import json
import socket
import struct
import threading

import numpy as np

from repro.cache.store import CachedArtifact
from repro.exceptions import ReproError

#: Bump on incompatible wire-format changes; exchanged in ``hello``.
PROTOCOL_VERSION = 1

#: Hard cap on a single header or blob (a corrupted length prefix must
#: not trigger a multi-gigabyte allocation).
_MAX_HEADER_BYTES = 16 * 1024 * 1024
_MAX_BLOB_BYTES = 4 * 1024 * 1024 * 1024

_HEADER_LEN = struct.Struct("!I")
_BLOB_COUNT = struct.Struct("!I")
_BLOB_LEN = struct.Struct("!Q")


class ClusterError(ReproError):
    """A cluster-backend failure (protocol, handshake, or all workers lost)."""


class ChannelClosed(ClusterError):
    """The peer closed the connection (EOF mid-message or before one)."""


class Channel:
    """One framed, thread-safe message channel over a connected socket.

    Args:
        sock: a connected TCP socket; the channel owns it.
        name: peer label used in error messages.
    """

    def __init__(self, sock: socket.socket, name: str = "peer") -> None:
        self.sock = sock
        self.name = name
        self.bytes_sent = 0
        self.bytes_received = 0
        self._send_lock = threading.Lock()
        self._closed = False

    def send(self, header: dict, blobs: tuple[bytes, ...] = ()) -> None:
        """Send one message (header dict + binary blobs), atomically."""
        encoded = json.dumps(header, sort_keys=True).encode("utf-8")
        parts = [_HEADER_LEN.pack(len(encoded)), encoded, _BLOB_COUNT.pack(len(blobs))]
        for blob in blobs:
            parts.append(_BLOB_LEN.pack(len(blob)))
            parts.append(blob)
        frame = b"".join(parts)
        with self._send_lock:
            self.sock.sendall(frame)
            self.bytes_sent += len(frame)

    def recv(self) -> tuple[dict, tuple[bytes, ...]]:
        """Receive one message; raises :class:`ChannelClosed` on EOF."""
        header_len = _HEADER_LEN.unpack(self._recv_exactly(_HEADER_LEN.size))[0]
        if header_len > _MAX_HEADER_BYTES:
            raise ClusterError(
                f"{self.name}: header length {header_len} exceeds protocol cap"
            )
        try:
            header = json.loads(self._recv_exactly(header_len).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ClusterError(f"{self.name}: undecodable header: {exc}") from exc
        if not isinstance(header, dict):
            raise ClusterError(f"{self.name}: header is not a JSON object")
        n_blobs = _BLOB_COUNT.unpack(self._recv_exactly(_BLOB_COUNT.size))[0]
        blobs = []
        for _ in range(n_blobs):
            blob_len = _BLOB_LEN.unpack(self._recv_exactly(_BLOB_LEN.size))[0]
            if blob_len > _MAX_BLOB_BYTES:
                raise ClusterError(
                    f"{self.name}: blob length {blob_len} exceeds protocol cap"
                )
            blobs.append(self._recv_exactly(blob_len))
        return header, tuple(blobs)

    def _recv_exactly(self, n: int) -> bytes:
        chunks = []
        remaining = n
        while remaining:
            chunk = self.sock.recv(min(remaining, 1 << 20))
            if not chunk:
                raise ChannelClosed(f"{self.name}: connection closed")
            chunks.append(chunk)
            remaining -= len(chunk)
        self.bytes_received += n
        return b"".join(chunks)

    def close(self) -> None:
        """Close the underlying socket (idempotent, never raises)."""
        if self._closed:
            return
        self._closed = True
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass


# -- artifact wire format ---------------------------------------------------


def pack_artifact(artifact: CachedArtifact) -> tuple[dict, bytes]:
    """Serialise an artifact to its wire form: (meta header, npz blob)."""
    buffer = io.BytesIO()
    np.savez(buffer, **artifact.arrays)
    return {"meta": artifact.meta, "names": sorted(artifact.arrays)}, buffer.getvalue()


def unpack_artifact(header: dict, blob: bytes) -> CachedArtifact:
    """Inverse of :func:`pack_artifact`."""
    with np.load(io.BytesIO(blob), allow_pickle=False) as npz:
        arrays = {name: npz[name] for name in npz.files}
    if sorted(arrays) != header.get("names"):
        raise ClusterError(
            f"artifact arrays {sorted(arrays)} do not match shipped names "
            f"{header.get('names')}"
        )
    return CachedArtifact.build(arrays, header.get("meta") or {})
