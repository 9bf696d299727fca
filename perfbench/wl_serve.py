"""``serve``: a ``repro serve --jobs 2`` subprocess under open-loop load.

The server starts with a fresh checkpoint directory and one durable
tenant registered over ``PUT /tenants/bench`` (Gamma 0.01, Upsilon 4,
stack 16).  One generator (this process, one asyncio thread) drives
``CONNECTIONS`` connections, each streaming 64x64 uint16 frames as
NDJSON ``frames`` messages of ``FRAMES_PER_MESSAGE`` frames.

Open loop: message *k* of a phase is due at ``t0 + k * period``; the
protocol is request-response, so a late ack delays later sends.  A
message's latency runs from its due time to its ack, and the generator
records how late it sent.  Phases:

* the fixed ``MID_RATE``, at least ``MIN_MID_MESSAGES`` messages: the
  latency percentiles;
* the ``LADDER`` of higher fixed rates, ``LADDER_MESSAGES`` each: the
  highest rate whose p99 meets ``LATENCY_LIMIT_MS`` without a growing
  backlog gives the sustained throughput;
* a resume probe: ``RESUMES`` durable streams, each aborted after a few
  messages and re-opened; ``resume_ms`` is hello-to-welcome of the
  re-opens, each restoring the session from its checkpoint.

An unrecorded warm-up phase runs first.

Every stream's outputs and final Psi pair must be bit-identical to
``run_batch`` of the tenant's stages, computed after the server stops.

This is the only workload that exercises ``repro.serve`` (codec,
session, checkpoint and output-log writes); ``repro.dag`` and the disk
tier of ``repro.cache`` are bypassed.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
import urllib.request
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from repro.serve import TenantConfig
from repro.serve.listener import MAX_LINE_BYTES, decode_frames, encode_frames
from repro.stream import ArraySource, SyntheticWalkSource, read_all, run_batch

from benchlib import BUILD, Outcome, child_env, median, percentile
from tracing import Tracer, layer_table

SHAPE = (64, 64)
DTYPE = np.dtype("<u2")
CONNECTIONS = 2
FRAMES_PER_MESSAGE = 4
TENANT = {
    "name": "bench",
    "gamma": 0.01,
    "upsilon": 4,
    "stack_frames": 16,
    "durable": True,
}

#: Offered load of the latency phase, frames/s over all connections:
#: about 40% of the ~600 frames/s this server sustains on a 2-CPU box.
MID_RATE = 250.0
#: The latency phase carries at least this many messages (p99 then has
#: at least ten samples beyond it).
MIN_MID_MESSAGES = 1000
#: Share of ``--seconds`` the latency phase gets (the ladder gets the rest).
MID_SHARE = 0.8

#: Fixed higher rates, frames/s, for the sustained-throughput ladder.
#: Rungs sit well away from the measured capacity, so which rung is the
#: highest to pass does not flip from run to run.
LADDER = (400.0, 800.0, 1200.0)
#: Messages per ladder rung (all connections).
LADDER_MESSAGES = 160
#: p99 due-to-ack limit a ladder rung must meet.
LATENCY_LIMIT_MS = 250.0

#: Streams in the resume probe, each aborted and re-opened once.
RESUMES = 20
#: Messages a resume-probe stream sends before its connection is aborted.
ROUND_MESSAGES = 4

#: Messages of an unrecorded warm-up phase at ``MID_RATE``: the server's
#: first kernel calls and allocations are slow.
WARMUP_MESSAGES = 64

#: Server spawns per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
SERVER_JOBS = 2
#: Seconds any single protocol reply may take before it counts as failed.
REPLY_TIMEOUT_S = 30.0

_LISTENING = re.compile(r"repro-serve listening ingest=(\S+):(\d+) control=(\S+):(\d+)")


# -- server process -------------------------------------------------------


@dataclass
class Server:
    proc: subprocess.Popen
    host: str
    port: int
    control: str
    checkpoint_dir: Path
    log: object

    def http(self, method: str, path: str, body=None):
        data = json.dumps(body).encode() if body is not None else None
        request = urllib.request.Request(self.control + path, data=data, method=method)
        with urllib.request.urlopen(request, timeout=REPLY_TIMEOUT_S) as response:
            return response.status, json.loads(response.read().decode())

    def peak_rss_mb(self) -> float:
        """The server's peak resident set size (``VmHWM``)."""
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if it hangs."""
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
                try:
                    self.proc.wait(timeout=60)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait(timeout=30)
        finally:
            self.proc.stdout.close()
            self.log.close()


def start_server(tenant: dict, root: Path) -> tuple[Server, float]:
    """Spawn ``repro serve``, register *tenant*; (server, set-up seconds)."""
    checkpoint_dir = root / f"ckpt-{time.monotonic_ns()}"
    checkpoint_dir.mkdir(parents=True)
    log = open(checkpoint_dir.with_suffix(".log"), "w")
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--port", "0", "--control-port", "0",
            "--checkpoint-dir", str(checkpoint_dir),
            "--jobs", str(SERVER_JOBS),
        ],
        stdout=subprocess.PIPE,
        stderr=log,
        env=child_env(),
        text=True,
    )
    match = _LISTENING.match(proc.stdout.readline().strip())
    server = Server(
        proc,
        match.group(1) if match else "",
        int(match.group(2)) if match else 0,
        f"http://{match.group(3)}:{match.group(4)}" if match else "",
        checkpoint_dir,
        log,
    )
    try:
        if not match:
            raise RuntimeError(f"repro serve did not start; see {log.name}")
        # urlopen raises for any status but 2xx.
        server.http("PUT", f"/tenants/{tenant['name']}", tenant)
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - t0


# -- the open-loop NDJSON client ------------------------------------------


@dataclass
class StreamRecord:
    """One stream's client-side record."""

    name: str
    conn: int
    n_frames: int
    latency_s: list = field(default_factory=list)
    late_s: list = field(default_factory=list)
    rtt_s: list = field(default_factory=list)
    wire_bytes: int = 0
    failures: int = 0
    messages: int = 0
    outputs: list = field(default_factory=list)
    have: int = 0
    psi: tuple | None = None
    checkpoint_bytes: int = 0
    first_due: float = 0.0
    last_ack: float = 0.0

    def keep(self, start: int, frames: np.ndarray) -> None:
        """Append outputs from global index *start*, dropping any prefix
        already held (a re-opened connection may replay it)."""
        skip = self.have - start
        if skip < 0:
            raise RuntimeError(f"{self.name}: output gap at {self.have}..{start}")
        if skip < frames.shape[0]:
            self.outputs.append(frames[skip:])
            self.have += frames.shape[0] - skip


class BusyError(RuntimeError):
    """The server still holds the stream for an earlier connection."""


class Link:
    """One NDJSON connection with the server's line limit."""

    def __init__(self, reader, writer, record: StreamRecord, tracer=None) -> None:
        self.reader = reader
        self.writer = writer
        self.record = record
        self.tracer = tracer

    @classmethod
    async def open(cls, server: Server, record: StreamRecord, tracer=None):
        reader, writer = await asyncio.open_connection(
            server.host, server.port, limit=MAX_LINE_BYTES
        )
        return cls(reader, writer, record, tracer)

    def _span(self, name):
        return self.tracer.span(name) if self.tracer else nullcontext()

    async def request(self, payload: dict) -> dict:
        """Send one message and read the reply (timed out -> TimeoutError)."""
        line = json.dumps(payload).encode() + b"\n"
        self.writer.write(line)
        await self.writer.drain()
        raw = await asyncio.wait_for(self.reader.readline(), REPLY_TIMEOUT_S)
        self.record.wire_bytes += len(line) + len(raw)
        if not raw:
            raise ConnectionError("server closed the connection")
        return json.loads(raw)

    async def hello(self) -> dict:
        reply = await self.request(
            {
                "type": "hello",
                "tenant": TENANT["name"],
                "stream": self.record.name,
                "shape": list(SHAPE),
                "dtype": DTYPE.str,
                "have_outputs": self.record.have,
            }
        )
        if reply.get("type") == "error" and reply.get("code") == "busy":
            raise BusyError(reply.get("error"))
        if reply.get("type") != "welcome":
            raise RuntimeError(f"{self.record.name}: hello refused: {reply}")
        self._keep(reply)
        return reply

    def _keep(self, reply: dict) -> None:
        with self._span("serve.decode"):
            frames = decode_frames(
                reply["outputs"], int(reply["output_count"]), SHAPE, DTYPE
            )
        self.record.keep(int(reply["output_start"]), frames)

    async def frames(self, frames: np.ndarray, due: float | None = None) -> None:
        """One ``frames`` message; records latency against *due*."""
        record = self.record
        with self._span("serve.message"):
            started = time.perf_counter()
            with self._span("serve.encode"):
                line = json.dumps(
                    {
                        "type": "frames",
                        "count": int(frames.shape[0]),
                        "data": encode_frames(frames),
                    }
                ).encode() + b"\n"
            sent = time.perf_counter()
            with self._span("serve.roundtrip"):
                self.writer.write(line)
                await self.writer.drain()
                raw = await asyncio.wait_for(self.reader.readline(), REPLY_TIMEOUT_S)
            acked = time.perf_counter()
            record.wire_bytes += len(line) + len(raw)
            reply = json.loads(raw) if raw else {"type": "closed"}
            if reply.get("type") != "ack":
                raise RuntimeError(f"{record.name}: frames not acked: {reply}")
            self._keep(reply)
        record.messages += 1
        record.rtt_s.append(acked - sent)
        if due is not None:
            record.late_s.append(started - due)
            record.latency_s.append(acked - due)
            record.last_ack = acked

    async def end(self) -> None:
        reply = await self.request({"type": "end"})
        if reply.get("type") != "result":
            raise RuntimeError(f"{self.record.name}: end refused: {reply}")
        self._keep(reply)
        result = reply["result"]
        self.record.psi = (result["psi_no_preprocessing"], result["psi_algorithm"])

    def abort(self) -> None:
        self.writer.transport.abort()

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except ConnectionError:
            pass


def _checkpoint_bytes(server: Server, stream: str) -> int:
    base = server.checkpoint_dir / TENANT["name"]
    return sum(
        path.stat().st_size
        for path in (base / f"{stream}.jsonl", base / f"{stream}.outputs.jsonl")
        if path.exists()
    )


async def _open_loop(server, record, frames, t0, period, offset, tracer):
    """Stream *frames* on one connection, message k due at t0+(k+offset)*period."""
    try:
        link = await Link.open(server, record, tracer)
        try:
            await link.hello()
            n_messages = frames.shape[0] // FRAMES_PER_MESSAGE
            record.first_due = t0 + offset * period
            for k in range(n_messages):
                due = t0 + (k + offset) * period
                delay = due - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                chunk = frames[k * FRAMES_PER_MESSAGE : (k + 1) * FRAMES_PER_MESSAGE]
                await link.frames(chunk, due)
            record.checkpoint_bytes = _checkpoint_bytes(server, record.name)
            await link.end()
        finally:
            await link.close()
    except (RuntimeError, ConnectionError, OSError, asyncio.TimeoutError) as exc:
        record.failures += 1
        print(f"serve: stream {record.name} failed: {exc!r}", file=sys.stderr)


def run_phase(server, masters, label, rate, n_messages, tracer=None):
    """One fixed-rate open-loop phase over all connections.

    Each connection sends ``n_messages / CONNECTIONS`` messages; the
    connections' schedules interleave so the total offered load is
    *rate* frames/s.  Returns the stream records.
    """
    per_conn = -(-n_messages // CONNECTIONS)
    n_frames = per_conn * FRAMES_PER_MESSAGE
    period = FRAMES_PER_MESSAGE * CONNECTIONS / rate
    records = [
        StreamRecord(f"{label}-c{i}", i, n_frames) for i in range(CONNECTIONS)
    ]

    async def drive():
        t0 = time.perf_counter() + 0.05
        await asyncio.gather(
            *(
                _open_loop(
                    server, rec, masters[rec.conn][:n_frames], t0, period,
                    rec.conn / CONNECTIONS, tracer,
                )
                for rec in records
            )
        )

    asyncio.run(drive())
    return records


def run_resume_probe(server, master):
    """Abort and re-open ``RESUMES`` durable streams, one at a time.

    Each stream sends ``ROUND_MESSAGES`` messages, loses its connection,
    is re-opened (restored from its checkpoint by the server) and ended.
    Returns (records, re-open seconds).
    """
    n_frames = ROUND_MESSAGES * FRAMES_PER_MESSAGE
    records = [StreamRecord(f"resume-{i}", 0, n_frames) for i in range(RESUMES)]
    reopen_s = []

    async def reopen(record):
        for _ in range(50):
            link = await Link.open(server, record)
            t0 = time.perf_counter()
            try:
                await link.hello()
                return link, time.perf_counter() - t0
            except BusyError:
                # The aborted connection has not unwound yet.
                await link.close()
                await asyncio.sleep(0.02)
        raise RuntimeError(f"{record.name} stayed busy after 50 re-opens")

    async def drive(record):
        link = await Link.open(server, record)
        await link.hello()
        for k in range(0, n_frames, FRAMES_PER_MESSAGE):
            await link.frames(master[k : k + FRAMES_PER_MESSAGE])
        link.abort()
        # Let the server see the reset and drop the live session, so the
        # re-open restores it from the checkpoint.
        await asyncio.sleep(0.05)
        link, seconds = await reopen(record)
        reopen_s.append(seconds)
        await link.end()
        await link.close()

    for record in records:
        try:
            asyncio.run(drive(record))
        except (RuntimeError, ConnectionError, OSError, asyncio.TimeoutError) as exc:
            record.failures += 1
            print(f"serve: resume probe {record.name} failed: {exc!r}", file=sys.stderr)
    return records, reopen_s


# -- oracle ----------------------------------------------------------------


class Oracle:
    """``run_batch`` of the tenant's stages, per (connection, length)."""

    def __init__(self, masters, tenant) -> None:
        self.masters = masters
        self.tenant = tenant
        self._memo = {}

    def matches(self, record: StreamRecord) -> bool:
        key = (record.conn, record.n_frames)
        if key not in self._memo:
            batch = run_batch(
                ArraySource(self.masters[record.conn][: record.n_frames]),
                self.tenant.build_stages(),
            )
            self._memo[key] = (
                batch.output.tobytes(),
                (batch.psi_no_preprocessing, batch.psi_algorithm),
            )
        want_bytes, want_psi = self._memo[key]
        got = (
            np.concatenate(record.outputs).tobytes() if record.outputs else b""
        )
        return record.failures == 0 and got == want_bytes and record.psi == want_psi


# -- the workload ------------------------------------------------------------


def _masters(seed: int, n_frames: int) -> list[np.ndarray]:
    seeds = np.random.SeedSequence(seed).generate_state(CONNECTIONS)
    return [
        read_all(SyntheticWalkSource(SHAPE, seed=int(s), n_frames=n_frames))
        for s in seeds
    ]


def _tenant(seed: int) -> dict:
    inject = int(np.random.SeedSequence([seed, 1]).generate_state(1)[0])
    return dict(TENANT, inject_seed=inject)


def _mid_messages(seconds: float) -> int:
    budget = int(MID_SHARE * seconds * MID_RATE / FRAMES_PER_MESSAGE)
    return max(MIN_MID_MESSAGES, budget)


def _backlog_grows(records, rate: float) -> bool:
    """Last-quarter lateness worse than the first quarter's, by more than
    one message period of scheduling jitter."""
    late = sorted(
        (k, value) for rec in records for k, value in enumerate(rec.late_s)
    )
    values = np.array([value for _, value in late])
    q = max(1, values.size // 4)
    period = FRAMES_PER_MESSAGE * CONNECTIONS / rate
    return values[-q:].mean() > values[:q].mean() + period


def _phase_summary(records, rate):
    latency = np.concatenate([r.latency_s for r in records]) * 1e3
    frames = sum(r.messages for r in records) * FRAMES_PER_MESSAGE
    span = max(r.last_ack for r in records) - min(r.first_due for r in records)
    return {
        "rate": rate,
        "messages": int(latency.size),
        "p50_ms": percentile(latency, 50),
        "p99_ms": percentile(latency, 99),
        "late_p99_ms": percentile(np.concatenate([r.late_s for r in records]), 99)
        * 1e3,
        "achieved": frames / span if span > 0 else 0.0,
        "grows": _backlog_grows(records, rate),
        "failures": sum(r.failures for r in records),
    }


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    """One benchmark run of the ``serve`` workload."""
    outcome = Outcome()
    root = BUILD / "serve" / f"run-{os.getpid()}"
    shutil.rmtree(root, ignore_errors=True)
    tenant = _tenant(seed)
    mid = _mid_messages(seconds)
    longest = FRAMES_PER_MESSAGE * max(
        -(-mid // CONNECTIONS),
        -(-LADDER_MESSAGES // CONNECTIONS),
        WARMUP_MESSAGES,
        ROUND_MESSAGES,
    )
    masters = _masters(seed, longest)
    setup, servers = [], []
    try:
        for _ in range(1 if trace else SETUP_REPEATS):
            server, elapsed = start_server(tenant, root)
            servers.append(server)
            setup.append(elapsed)
        for server in servers[:-1]:
            server.stop()
        server = servers[-1]
        if trace:
            records = _traced(server, masters, mid, outcome, seed)
        else:
            records = _untraced(server, masters, mid, outcome, setup)
    finally:
        for server in servers:
            server.stop()
        shutil.rmtree(root, ignore_errors=True)
    oracle = Oracle(masters, TenantConfig.from_dict(tenant))
    for record in records:
        outcome.check(oracle.matches(record), f"serve {record.name} vs run_batch")
        # Messages are operations too: count the ones that never got acked.
        outcome.attempted += record.n_frames // FRAMES_PER_MESSAGE
        outcome.failed += record.n_frames // FRAMES_PER_MESSAGE - record.messages
    return outcome


def _untraced(server, masters, mid, outcome, setup):
    records = run_phase(server, masters, "warm", MID_RATE, WARMUP_MESSAGES)
    mid_records = run_phase(server, masters, "mid", MID_RATE, mid)
    phases = [_phase_summary(mid_records, MID_RATE)]
    records += mid_records
    for rate in LADDER:
        rung = run_phase(server, masters, f"r{int(rate)}", rate, LADDER_MESSAGES)
        records += rung
        phases.append(_phase_summary(rung, rate))
    resume_records, reopen_s = run_resume_probe(server, masters[0])
    records += resume_records
    passing = [
        p for p in phases
        if p["p99_ms"] <= LATENCY_LIMIT_MS and not p["grows"] and not p["failures"]
    ]
    best = max(passing, key=lambda p: p["rate"]) if passing else None
    latency = phases[0]
    outcome.metrics = {
        "setup_s": (median(setup), "s"),
        "throughput_per_s": (best["achieved"] if best else 0.0, "1/s"),
        "p50_ms": (latency["p50_ms"], "ms"),
        "resume_ms": (median(reopen_s) * 1e3 if reopen_s else 0.0, "ms"),
        "peak_rss_mb": (server.peak_rss_mb(), "MB"),
    }
    for p in phases:
        outcome.notes.append(
            f"serve rate {p['rate']:.0f} frames/s: {p['messages']} messages, "
            f"p50 {p['p50_ms']:.2f} ms, p99 {p['p99_ms']:.2f} ms, generator "
            f"late p99 {p['late_p99_ms']:.2f} ms, achieved "
            f"{p['achieved']:.1f} frames/s, backlog "
            f"{'grows' if p['grows'] else 'steady'}, failures {p['failures']}"
        )
    outcome.notes.append(
        f"serve: sustained rate = highest rung with p99 <= {LATENCY_LIMIT_MS} ms "
        f"and no backlog growth: {best['rate'] if best else 'none'}; "
        f"{len(reopen_s)} re-opens for resume_ms"
    )
    return records


def _traced(server, masters, mid, outcome, seed):
    """An untraced latency phase, then a traced one half as long with
    the server's ``/metrics.json`` read around it."""
    warm = run_phase(server, masters, "warm", MID_RATE, WARMUP_MESSAGES)
    untraced = run_phase(server, masters, "mid-u", MID_RATE, mid)
    tracer = Tracer(f"serve-{seed}")
    _, before = server.http("GET", "/metrics.json")
    traced = run_phase(server, masters, "mid-t", MID_RATE, mid // 2, tracer)
    _, after = server.http("GET", "/metrics.json")

    def delta_counter(name):
        return after["counters"][name] - before["counters"][name]

    def delta_mean_ms(name):
        a, b = after["latency"][name], before["latency"][name]
        count = a["count"] - b["count"]
        total = a["mean_s"] * a["count"] - b["mean_s"] * b["count"]
        return total / count * 1e3 if count else 0.0

    messages = sum(r.messages for r in traced)
    frames = messages * FRAMES_PER_MESSAGE
    totals = tracer.totals()
    rtt_ms = np.mean(np.concatenate([r.rtt_s for r in traced])) * 1e3
    ingest = delta_mean_ms("ingest_latency")
    chunk = delta_mean_ms("chunk_latency")
    late = np.concatenate([r.late_s for r in traced]) * 1e3
    untraced_s = np.concatenate([r.latency_s for r in untraced])
    p50_u = percentile(untraced_s, 50)
    p50_t = percentile(np.concatenate([r.latency_s for r in traced]), 50)
    overhead = p50_t / p50_u - 1.0
    outcome.layers = {
        "serve.client_encode_s": (totals["serve.encode"][1] / messages, "s"),
        "serve.client_decode_s": (totals["serve.decode"][1] / messages, "s"),
        "serve.gen_late_p99_ms": (percentile(late, 99), "ms"),
        "serve.ingest_ms_mean": (ingest, "ms"),
        "serve.chunk_ms_mean": (chunk, "ms"),
        "serve.transport_ms": (rtt_ms - ingest, "ms"),
        "serve.persist_ms": (ingest - chunk, "ms"),
        "serve.wire_bytes_per_frame": (
            sum(r.wire_bytes for r in traced) / frames,
            "B/frame",
        ),
        "serve.checkpoint_bytes": (
            sum(r.checkpoint_bytes for r in traced) / frames,
            "B/frame",
        ),
        "serve.messages": (delta_counter("messages"), "count"),
        "serve.refusals": (delta_counter("backpressure_refusals"), "count"),
        "serve.protocol_errors": (delta_counter("protocol_errors"), "count"),
        "trace.overhead_frac": (overhead, "frac"),
        # From the untraced latency phase of this run (>= 1,000 messages).
        "latency.p99_ms": (percentile(untraced_s, 99) * 1e3, "ms"),
    }
    tracer.write_jsonl(BUILD / "spans" / f"{tracer.run_id}.jsonl")
    outcome.notes.append(
        f"serve: traced {MID_RATE:.0f} frames/s phase, {messages} messages "
        f"(per-message means; client spans, server split from /metrics.json)"
    )
    outcome.notes += layer_table(tracer, "serve.message")
    outcome.notes.append(
        f"round trip {rtt_ms:.3f} ms = transport {rtt_ms - ingest:.3f} + server "
        f"ingest {ingest:.3f} (chunk {chunk:.3f} + persist {ingest - chunk:.3f}); "
        f"p50 untraced {p50_u * 1e3:.3f} ms, traced {p50_t * 1e3:.3f} ms"
    )
    return warm + untraced + traced
