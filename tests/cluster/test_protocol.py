"""Wire framing and the artifact wire format."""

from __future__ import annotations

import socket
import threading

import numpy as np
import pytest

from repro.cache.store import CachedArtifact
from repro.cluster.protocol import (
    Channel,
    ChannelClosed,
    ClusterError,
    pack_artifact,
    unpack_artifact,
)


def _channel_pair() -> tuple[Channel, Channel]:
    a, b = socket.socketpair()
    return Channel(a, name="a"), Channel(b, name="b")


class TestChannel:
    def test_header_round_trips(self):
        a, b = _channel_pair()
        a.send({"type": "hello", "n": 3})
        header, blobs = b.recv()
        assert header == {"type": "hello", "n": 3}
        assert blobs == ()
        a.close(), b.close()

    def test_blobs_round_trip_in_order(self):
        a, b = _channel_pair()
        payload = (b"first", b"", b"x" * 100_000)
        a.send({"type": "task"}, payload)
        _, blobs = b.recv()
        assert blobs == payload
        a.close(), b.close()

    def test_eof_raises_channel_closed(self):
        a, b = _channel_pair()
        a.close()
        with pytest.raises(ChannelClosed):
            b.recv()
        b.close()

    def test_mid_message_eof_raises(self):
        a, b = _channel_pair()
        a.sock.sendall(b"\x00\x00\x01")  # truncated length prefix
        a.close()
        with pytest.raises(ChannelClosed):
            b.recv()
        b.close()

    def test_oversized_header_rejected(self):
        a, b = _channel_pair()
        import struct

        a.sock.sendall(struct.pack("!I", 1 << 30))
        with pytest.raises(ClusterError, match="exceeds protocol cap"):
            b.recv()
        a.close(), b.close()

    def test_undecodable_header_rejected(self):
        a, b = _channel_pair()
        import struct

        junk = b"\xff\xfe{no json"
        a.sock.sendall(struct.pack("!I", len(junk)) + junk)
        with pytest.raises(ClusterError, match="undecodable header"):
            b.recv()
        a.close(), b.close()

    def test_non_object_header_rejected(self):
        a, b = _channel_pair()
        import struct

        a.sock.sendall(struct.pack("!I", 2) + b"[]" + struct.pack("!I", 0))
        with pytest.raises(ClusterError, match="not a JSON object"):
            b.recv()
        a.close(), b.close()

    def test_byte_counters_track_traffic(self):
        a, b = _channel_pair()
        a.send({"type": "x"}, (b"1234",))
        b.recv()
        assert a.bytes_sent > 0
        assert b.bytes_received == a.bytes_sent
        a.close(), b.close()

    def test_concurrent_sends_do_not_interleave(self):
        a, b = _channel_pair()
        n_each = 50

        def sender(tag):
            for i in range(n_each):
                a.send({"type": tag, "i": i}, (bytes([i]) * 1000,))

        threads = [
            threading.Thread(target=sender, args=(tag,)) for tag in ("t1", "t2")
        ]
        for t in threads:
            t.start()
        seen = []
        for _ in range(2 * n_each):
            header, blobs = b.recv()
            assert blobs[0] == bytes([header["i"]]) * 1000
            seen.append(header["type"])
        for t in threads:
            t.join()
        assert seen.count("t1") == n_each and seen.count("t2") == n_each
        a.close(), b.close()

    def test_close_is_idempotent(self):
        a, b = _channel_pair()
        a.close()
        a.close()
        b.close()


class TestArtifactWireFormat:
    def _artifact(self) -> CachedArtifact:
        return CachedArtifact.build(
            {
                "pristine": np.arange(12, dtype=np.uint16).reshape(3, 4),
                "noise": np.linspace(0, 1, 5),
            },
            {"kind": "dataset", "seed": 7},
        )

    def test_round_trip_preserves_arrays_and_meta(self):
        artifact = self._artifact()
        header, blob = pack_artifact(artifact)
        out = unpack_artifact(header, blob)
        assert sorted(out.arrays) == sorted(artifact.arrays)
        for name in artifact.arrays:
            np.testing.assert_array_equal(out.arrays[name], artifact.arrays[name])
            assert out.arrays[name].dtype == artifact.arrays[name].dtype
        assert out.meta == artifact.meta

    def test_wire_form_is_deterministic(self):
        artifact = self._artifact()
        header, blob = pack_artifact(artifact)
        header2, blob2 = pack_artifact(unpack_artifact(header, blob))
        assert header2 == header
        assert blob2 == blob

    def test_name_mismatch_rejected(self):
        header, blob = pack_artifact(self._artifact())
        header["names"] = ["tampered"]
        with pytest.raises(ClusterError, match="do not match"):
            unpack_artifact(header, blob)
