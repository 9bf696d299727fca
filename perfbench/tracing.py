"""Trace mode: in-memory spans around calls into each layer.

Traced runs only.  A :class:`Tracer` records spans (name, start, end,
parent, run id) in memory and writes them as JSONL when the run ends;
:meth:`Tracer.self_times` turns them into per-layer self time, a span's
duration minus the part of it that its child spans cover.  The spans
are recorded from this directory's code, around calls into the
program's public functions: the program itself is not edited.

``install_*`` helpers patch one attribute and return a function that
restores it; each workload installs what its layers need and removes it
before returning.
"""

from __future__ import annotations

import contextvars
import functools
import json
import os
import pathlib
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

from repro.native import dispatch, loader
from repro.native.cli import load_all_kernels


class Tracer:
    """Spans and counters for one traced run.

    Args:
        run_id: identifier stamped on every span of this run.
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.counters: Counter = Counter()
        self._ids = 0
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            f"span-{run_id}", default=None
        )

    @contextmanager
    def span(self, name: str):
        """Record the enclosed block as one span, child of the current one."""
        self._ids += 1
        span_id = self._ids
        parent = self._current.get()
        token = self._current.set(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._current.reset(token)
            self.spans.append((span_id, parent, name, start, end))

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] += amount

    def wrap(self, fn, name: str):
        """*fn* wrapped so that every call is recorded as span *name*."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def totals(self) -> dict[str, tuple[int, float]]:
        """Span name -> (count, inclusive seconds)."""
        out: dict[str, list] = {}
        for _, _, name, start, end in self.spans:
            slot = out.setdefault(name, [0, 0.0])
            slot[0] += 1
            slot[1] += end - start
        return {name: (n, s) for name, (n, s) in out.items()}

    def self_times(self) -> dict[str, float]:
        """Span name -> summed self time in seconds."""
        children: dict[int, list[tuple[float, float]]] = {}
        for _, parent, _, start, end in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        out: Counter = Counter()
        for span_id, _, name, start, end in self.spans:
            covered = 0.0
            reach = start
            # Union of the child intervals, clipped to this span: children
            # of an asyncio task may overlap each other.
            for c_start, c_end in sorted(children.get(span_id, ())):
                c_start, c_end = max(c_start, reach, start), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            out[name] += (end - start) - covered
        return dict(out)

    def write_jsonl(self, path: Path) -> None:
        """Every span as one JSON line (times in seconds, monotonic clock)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span_id, parent, name, start, end in sorted(
                self.spans, key=lambda s: s[3]
            ):
                fh.write(
                    json.dumps(
                        {
                            "run": self.run_id,
                            "id": span_id,
                            "parent": parent,
                            "name": name,
                            "start": start,
                            "end": end,
                        }
                    )
                    + "\n"
                )


def layer_table(tracer: Tracer, root: str) -> list[str]:
    """The per-layer table: self time and calls per span name.

    *root* is the span around each timed operation; its self time is the
    remainder no layer span covers.
    """
    totals = tracer.totals()
    selfs = tracer.self_times()
    wall = totals.get(root, (0, 0.0))[1]
    lines = [f"{'layer':<34}{'calls':>10}{'self s':>12}{'share':>9}"]
    for name in sorted(selfs, key=lambda n: -selfs[n]):
        share = selfs[name] / wall if wall else 0.0
        label = f"{name} (remainder)" if name == root else name
        lines.append(
            f"{label:<34}{totals[name][0]:>10}{selfs[name]:>12.4f}{share:>9.1%}"
        )
    lines.append(f"{'sum of self times':<34}{'':>10}{sum(selfs.values()):>12.4f}")
    return lines


def install_attr(owner, attr: str, replacement):
    """Set ``owner.attr`` to *replacement*; returns the restoring function."""
    own = attr in vars(owner)
    original = vars(owner).get(attr)
    setattr(owner, attr, replacement)

    def restore() -> None:
        if own:
            setattr(owner, attr, original)
        else:
            delattr(owner, attr)

    return restore


def uninstall(restores) -> None:
    """Undo ``install_*`` results, last installed first."""
    for undo in reversed(restores):
        undo()


def install_native(tracer: Tracer):
    """Time every kernel dispatch and count the calls sent to the C tier.

    ``native.<kernel>`` spans; counters ``native.<kernel>.calls`` and
    ``native.<kernel>.native`` (calls that ``Kernel.admits`` and the
    loaded extension route to the compiled tier).
    """
    load_all_kernels()
    original = dispatch.call
    registry = dispatch.kernels()

    def call(name, *args, **kwargs):
        tier = dispatch.get_kernel_tier()
        if (
            tier in ("auto", "native")
            and registry[name].admits(*args, **kwargs)
            and loader.available()
        ):
            tracer.count(f"native.{name}.native")
        tracer.count(f"native.{name}.calls")
        with tracer.span(f"native.{name}"):
            return original(name, *args, **kwargs)

    return install_attr(dispatch, "call", call)


def install_io_counters(tracer: Tracer):
    """Count ``os.stat`` calls and bytes read/written through pathlib.

    The artifact store reads and writes its payload and sidecar files
    with ``Path.read_bytes``/``read_text``/``write_bytes``/``write_text``
    (its sidecars are ASCII, so characters are bytes) and stats them with
    ``Path.stat``, which calls ``os.stat``.
    """
    stat = os.stat

    def counted_stat(*args, **kwargs):
        tracer.count("os.stat")
        return stat(*args, **kwargs)

    restores = [install_attr(os, "stat", counted_stat)]
    for attr in ("read_bytes", "read_text"):

        def reader(self, *args, _original=getattr(pathlib.Path, attr), **kwargs):
            data = _original(self, *args, **kwargs)
            tracer.count("io.bytes_read", len(data))
            return data

        restores.append(install_attr(pathlib.Path, attr, reader))
    for attr in ("write_bytes", "write_text"):

        def writer(self, data, *args, _original=getattr(pathlib.Path, attr), **kwargs):
            tracer.count("io.bytes_written", len(data))
            return _original(self, data, *args, **kwargs)

        restores.append(install_attr(pathlib.Path, attr, writer))
    return lambda: uninstall(restores)


def native_layers(tracer: Tracer, n_ops: int) -> dict:
    """``native.<kernel>.{calls,s,native_frac}`` per operation, every kernel."""
    load_all_kernels()
    totals = tracer.totals()
    out = {}
    for name in sorted(dispatch.kernels()):
        calls = tracer.counters[f"native.{name}.calls"]
        native = tracer.counters[f"native.{name}.native"]
        seconds = totals.get(f"native.{name}", (0, 0.0))[1]
        out[f"native.{name}.calls"] = (calls / n_ops, "count")
        out[f"native.{name}.s"] = (seconds / n_ops, "s")
        out[f"native.{name}.native_frac"] = (native / calls if calls else 0.0, "frac")
    return out
