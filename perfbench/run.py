"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload report --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` runs the same workload with the layer wrappers of
``tracing.py`` installed and prints every per-layer metric plus the
per-layer self-time table (a layer the workload bypasses reads 0).  The
last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Before any timed work a child process builds (or loads) the native
kernels in ``.bench_build/perfbench/native``, so no measured process
carries the one-off compile; the environment block printed first
records its time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from benchlib import BUILD, NATIVE_CACHE, ROOT, SRC, child_env  # noqa: E402

WORKLOADS = ("report", "stream_small", "stream_large", "serve")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _native_built() -> bool:
    return any(NATIVE_CACHE.glob("*/repro/native/_repro_native*"))


def _warm_native() -> dict:
    """Load the native tier in a child process, compiling it first if the
    cache is empty, so neither the compile's time nor its memory lands in
    a measured process."""
    built_before = _native_built()
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "from repro.native import loader; loader.load()"],
        env=child_env(),
        check=True,
        timeout=900,
    )
    return {
        "native_warm_s": round(time.perf_counter() - t0, 4),
        "native_compiled_now": _native_built() and not built_before,
    }


def environment(warm: dict) -> dict:
    """nproc, versions, kernel tiers (as ``repro kernels --json``), build origin."""
    import numpy

    from repro.native.cli import status

    kernels = status()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "requested_tier": kernels["requested_tier"],
        "effective_tier": kernels["effective_tier"],
        "kernel_tiers": {k: v["tier"] for k, v in kernels["kernels"].items()},
        "native_origin": kernels["native_origin"],
        "native_unavailable_reason": kernels["native_unavailable_reason"],
        **warm,
    }


def _run_workload(args):
    if args.workload == "report":
        import wl_report

        return wl_report.run(args.seed, args.seconds, bool(args.trace))
    if args.workload == "serve":
        import wl_serve

        return wl_serve.run(args.seed, args.seconds, bool(args.trace))
    import wl_stream

    return wl_stream.run(args.workload, args.seed, args.seconds, bool(args.trace))


def _select(spec: dict, outcome, trace: bool) -> dict:
    """The metrics this mode prints, in ``BENCHMARK.json`` order."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    measured = outcome.layers if trace else outcome.metrics
    unknown = set(measured) - {m["name"] for m in wanted}
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    selected = {}
    for metric in wanted:
        name, unit = metric["name"], metric["unit"]
        if name in measured:
            value, got_unit = measured[name]
            if got_unit != unit:
                raise RuntimeError(f"{name}: unit {got_unit!r}, expected {unit!r}")
        elif trace:
            value = 0.0  # the workload bypasses this layer
        else:
            raise RuntimeError(f"end-to-end metric {name} was not measured")
        selected[name] = {"value": float(value), "unit": unit}
    return selected


def main(argv=None) -> int:
    args = _parse(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print(
            f"perfbench: no program to measure (need {SRC / 'repro'} and "
            f"{spec_path} in the checkout)",
            file=sys.stderr,
        )
        return 2
    spec = json.loads(spec_path.read_text())
    os.environ["REPRO_NATIVE_CACHE"] = str(NATIVE_CACHE)
    sys.path.insert(0, str(SRC))
    env = environment(_warm_native())
    outcome = _run_workload(args)
    metrics = _select(spec, outcome, bool(args.trace))
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    record = BUILD / "results" / f"{args.workload}-{args.seed}-trace{args.trace}.json"
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps({"environment": env, **result}, indent=2) + "\n")
    print("environment: " + json.dumps(env, sort_keys=True))
    for line in outcome.notes:
        print(line)
    failed_frac = outcome.failed / outcome.attempted if outcome.attempted else 0.0
    print(
        f"{args.workload}: attempted {outcome.attempted}, failed {outcome.failed}, "
        f"failed_frac {failed_frac:.4f}"
    )
    for name, metric in metrics.items():
        print(f"{args.workload}  {name:<40}{metric['value']:>16.6f} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
