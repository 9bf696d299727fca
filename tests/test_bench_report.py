"""Schema smoke test for ``tools/bench_report.py``.

Runs the report in quick mode (small problem sizes, sub-minute) and
validates the structure CI and downstream tooling rely on; the timing
values themselves are machine-dependent and deliberately unasserted.
"""

import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

sys.path.insert(0, str(REPO_ROOT / "tools"))

bench_report = pytest.importorskip("bench_report")


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    bench_dir = tmp_path_factory.mktemp("bench")
    out = bench_dir / "report.json"
    stream_out = bench_dir / "stream.json"
    native_out = bench_dir / "native.json"
    dag_out = bench_dir / "dag.json"
    cluster_out = bench_dir / "cluster.json"
    strategies_out = bench_dir / "strategies.json"
    assert (
        bench_report.main(
            [
                "--quick",
                "--warmup",
                "1",
                "--out",
                str(out),
                "--stream-out",
                str(stream_out),
                "--native-out",
                str(native_out),
                "--dag-out",
                str(dag_out),
                "--cluster-out",
                str(cluster_out),
                "--strategies-out",
                str(strategies_out),
            ]
        )
        == 0
    )
    return (
        json.loads(out.read_text()),
        json.loads(stream_out.read_text()),
        json.loads(native_out.read_text()),
        json.loads(dag_out.read_text()),
        json.loads(cluster_out.read_text()),
        json.loads(strategies_out.read_text()),
    )


@pytest.fixture(scope="module")
def report(reports):
    return reports[0]


@pytest.fixture(scope="module")
def stream_report(reports):
    return reports[1]


@pytest.fixture(scope="module")
def native_report(reports):
    return reports[2]


@pytest.fixture(scope="module")
def dag_report(reports):
    return reports[3]


@pytest.fixture(scope="module")
def cluster_report(reports):
    return reports[4]


@pytest.fixture(scope="module")
def strategies_report(reports):
    return reports[5]


def test_report_top_level_schema(report):
    assert report["schema_version"] == bench_report.SCHEMA_VERSION
    assert report["quick"] is True
    assert "bench_report.py" in report["generated_by"]
    assert isinstance(report["kernels"], list) and report["kernels"]
    assert isinstance(report["campaign"], dict)


def test_report_kernel_entries(report):
    for entry in report["kernels"]:
        assert set(bench_report.KERNEL_KEYS) <= set(entry), entry
        assert entry["before_ms"] > 0
        assert entry["after_ms"] > 0
        assert entry["speedup"] == pytest.approx(
            entry["before_ms"] / entry["after_ms"], rel=1e-2
        )
        assert isinstance(entry["config"], dict)


def test_report_covers_the_headline_kernels(report):
    names = {entry["name"] for entry in report["kernels"]}
    assert {
        "correlated_flip_grid",
        "voter_grt",
        "to_bit_planes",
        "from_bit_planes",
        "median_smooth_temporal",
        "majority_vote_window",
        "cross_frame_preprocess",
        "mosaic",
    } <= names


def test_report_campaign_entry(report):
    campaign = report["campaign"]
    assert campaign["n_trials"] >= 1
    assert campaign["elapsed_s"] > 0
    assert campaign["trials_per_s"] > 0


def test_committed_report_is_schema_valid():
    """The checked-in BENCH_PR2.json must parse under the same schema."""
    path = REPO_ROOT / "BENCH_PR2.json"
    committed = json.loads(path.read_text())
    assert committed["schema_version"] == bench_report.SCHEMA_VERSION
    for entry in committed["kernels"]:
        assert set(bench_report.KERNEL_KEYS) <= set(entry)


def test_stream_report_top_level_schema(stream_report):
    assert stream_report["schema_version"] == bench_report.STREAM_SCHEMA_VERSION
    assert stream_report["quick"] is True
    assert isinstance(stream_report["throughput"], list)
    assert stream_report["throughput"]
    assert isinstance(stream_report["memory"], dict)


def test_stream_throughput_entries(stream_report):
    for entry in stream_report["throughput"]:
        assert set(bench_report.STREAM_KEYS) <= set(entry), entry
        assert entry["chunk_frames"] >= 1
        assert entry["frames_per_sec"] > 0
        assert entry["elapsed_s"] > 0


def test_stream_psi_is_chunk_invariant(stream_report):
    """The bit-identity contract, witnessed in the benchmark itself."""
    psis = {entry["psi_algorithm"] for entry in stream_report["throughput"]}
    assert len(psis) == 1


def test_stream_memory_demonstrates_the_bound(stream_report):
    memory = stream_report["memory"]
    small, large = memory["stream"]
    assert large["n_frames"] == 2 * small["n_frames"]
    # Doubling the stream length barely moves the streaming peak...
    assert memory["stream_growth_ratio"] < 1.25
    # ...while the batch pipeline's peak scales with the whole stream.
    assert large["peak_bytes"] < memory["batch"]["peak_bytes"]
    assert memory["total_stage_lag"] >= 0


def test_committed_stream_report_is_schema_valid():
    """The checked-in BENCH_PR3.json must parse under the same schema."""
    committed = json.loads((REPO_ROOT / "BENCH_PR3.json").read_text())
    assert committed["schema_version"] == bench_report.STREAM_SCHEMA_VERSION
    for entry in committed["throughput"]:
        assert set(bench_report.STREAM_KEYS) <= set(entry)
    assert committed["memory"]["stream_growth_ratio"] < 1.25


def test_native_report_top_level_schema(native_report):
    assert native_report["schema_version"] == bench_report.NATIVE_SCHEMA_VERSION
    assert native_report["quick"] is True
    assert isinstance(native_report["native_available"], bool)
    assert isinstance(native_report["kernels"], list) and native_report["kernels"]
    assert isinstance(native_report["headline"], dict)
    assert isinstance(native_report["campaign"], dict)
    assert isinstance(native_report["stream"], dict)
    assert isinstance(native_report["threaded"], dict)


def test_native_kernel_entries(native_report):
    for entry in native_report["kernels"]:
        assert set(bench_report.NATIVE_KERNEL_KEYS) <= set(entry), entry
        assert entry["numpy_ms"] > 0
        assert entry["native_ms"] > 0
        assert entry["speedup"] == pytest.approx(
            entry["numpy_ms"] / entry["native_ms"], rel=1e-2
        )
        assert isinstance(entry["config"], dict)


def test_native_report_covers_dispatched_kernels(native_report):
    names = {entry["name"] for entry in native_report["kernels"]}
    assert {
        "correlated_flip_grid",
        "voter_grt",
        "to_bit_planes",
        "from_bit_planes",
        "majority_vote_window",
        "weighted_window_smooth",
    } <= names


def test_native_headline_summary_is_consistent(native_report):
    headline = native_report["headline"]
    assert set(headline["best_speedup"]) == set(bench_report.HEADLINE_KERNELS)
    assert set(headline["kernels_at_2x"]) <= set(bench_report.HEADLINE_KERNELS)
    for name in headline["kernels_at_2x"]:
        assert headline["best_speedup"][name] >= 2.0
    assert headline["gate_met"] is (len(headline["kernels_at_2x"]) >= 2)


def test_native_e2e_sections_are_bit_identical(native_report):
    """Tier flips must not change results — with or without the
    extension (absent, the native tier falls back to NumPy)."""
    assert native_report["campaign"]["bit_identical"] is True
    assert native_report["stream"]["bit_identical"] is True


def test_native_threaded_entry(native_report):
    threaded = native_report["threaded"]
    assert set(bench_report.THREADED_KEYS) <= set(threaded)
    assert threaded["threads"] >= 2
    assert threaded["n_trials"] >= 1
    for key in ("numpy_serial_s", "native_serial_s",
                "numpy_threads_s", "native_threads_s"):
        assert threaded[key] > 0
    assert threaded["native_thread_scaling"] > 0


def test_committed_native_report_is_schema_valid():
    """The checked-in BENCH_PR7.json must parse under the same schema
    and — having been generated with the extension loaded — show the
    headline result: >= 2x over the NumPy tier on >= 2 of the 3
    headline kernels, every end-to-end section bit-identical."""
    committed = json.loads((REPO_ROOT / "BENCH_PR7.json").read_text())
    assert committed["schema_version"] == bench_report.NATIVE_SCHEMA_VERSION
    for entry in committed["kernels"]:
        assert set(bench_report.NATIVE_KERNEL_KEYS) <= set(entry)
    assert set(bench_report.THREADED_KEYS) <= set(committed["threaded"])
    assert committed["native_available"] is True
    assert committed["campaign"]["bit_identical"] is True
    assert committed["stream"]["bit_identical"] is True
    # CI regenerates the repo-root reports in quick mode before this
    # test runs; the perf gate is only meaningful at full size, where
    # the headline kernels clear 2x with a wide margin.
    if not committed["quick"]:
        headline = committed["headline"]
        assert len(headline["kernels_at_2x"]) >= 2
        assert headline["gate_met"] is True


def test_dag_report_top_level_schema(dag_report):
    assert dag_report["schema_version"] == bench_report.DAG_SCHEMA_VERSION
    assert dag_report["quick"] is True
    assert set(bench_report.DAG_RUN_KEYS) <= set(dag_report["report_run"])


def test_dag_report_run_entry(dag_report):
    run = dag_report["report_run"]
    assert run["n_nodes"] >= len(run["experiments"]) > 0
    assert run["sequential_s"] > 0
    assert run["dag_cold_s"] > 0
    assert run["dag_warm_s"] > 0
    assert run["n_run_cold"] == run["n_nodes"]


def test_dag_report_witnesses_recovery_contract(dag_report):
    """The warm replay is the resume path: every node restored from
    the store, no recomputation, panels bit-identical to sequential."""
    run = dag_report["report_run"]
    assert run["n_restored_warm"] == run["n_nodes"]
    assert run["dag_warm_s"] < run["dag_cold_s"]
    assert run["bit_identical"] is True


def test_committed_dag_report_is_schema_valid():
    """The checked-in BENCH_PR8.json must parse under the same schema
    and witness the orchestrator's headline: the single-DAG report run
    is bit-identical to the sequential loop, and a warm store replays
    the whole run as no-ops."""
    committed = json.loads((REPO_ROOT / "BENCH_PR8.json").read_text())
    assert committed["schema_version"] == bench_report.DAG_SCHEMA_VERSION
    run = committed["report_run"]
    assert set(bench_report.DAG_RUN_KEYS) <= set(run)
    assert run["bit_identical"] is True
    assert run["n_restored_warm"] == run["n_nodes"]
    assert run["dag_warm_s"] < run["dag_cold_s"]


def test_cluster_report_top_level_schema(cluster_report):
    assert (
        cluster_report["schema_version"] == bench_report.CLUSTER_SCHEMA_VERSION
    )
    assert cluster_report["quick"] is True
    assert cluster_report["cpu_count"] >= 1
    assert isinstance(cluster_report["single_core_container"], bool)
    assert isinstance(cluster_report["scaling"], dict)
    assert set(bench_report.CLUSTER_OVERHEAD_KEYS) <= set(
        cluster_report["overhead"]
    )


def test_cluster_report_scaling_runs(cluster_report):
    scaling = cluster_report["scaling"]
    assert scaling["serial_s"] > 0
    assert scaling["runs"]
    for run in scaling["runs"]:
        assert set(bench_report.CLUSTER_RUN_KEYS) <= set(run), run
        assert run["workers"] >= 1
        assert run["elapsed_s"] > 0
        assert run["bytes_sent"] > 0
        assert run["bytes_received"] > 0
        assert len(run["per_worker"]) == run["workers"]


def test_cluster_report_witnesses_bit_identity(cluster_report):
    """Every worker count produces byte-identical report panels —
    the backend-independence contract, witnessed in the benchmark."""
    assert cluster_report["scaling"]["bit_identical_all"] is True
    for run in cluster_report["scaling"]["runs"]:
        assert run["bit_identical"] is True


def test_cluster_report_overhead_entry(cluster_report):
    overhead = cluster_report["overhead"]
    assert overhead["n_shards"] >= 1
    assert overhead["cluster_s"] > 0
    assert overhead["per_shard_roundtrip_ms"] > 0
    assert overhead["per_shard_overhead_ms"] >= 0
    # Warm dispatches carry keys and floats, not arrays or functions.
    assert 0 < overhead["wire_bytes_per_shard"] < 10_000


def test_committed_cluster_report_is_schema_valid():
    """The checked-in BENCH_PR9.json must parse under the same schema
    and meet the acceptance gate: >= 1.7x at two workers, or a
    documented single-core-container caveat with per-shard overhead
    numbers making the dispatch cost inspectable."""
    committed = json.loads((REPO_ROOT / "BENCH_PR9.json").read_text())
    assert committed["schema_version"] == bench_report.CLUSTER_SCHEMA_VERSION
    scaling = committed["scaling"]
    assert scaling["bit_identical_all"] is True
    for run in scaling["runs"]:
        assert set(bench_report.CLUSTER_RUN_KEYS) <= set(run)
    assert set(bench_report.CLUSTER_OVERHEAD_KEYS) <= set(
        committed["overhead"]
    )
    if committed["scaling"]["speedup_at_2"] < 1.7:
        assert committed["single_core_container"] is True
        assert "single-core" in committed["note"]
        assert committed["overhead"]["per_shard_overhead_ms"] >= 0


def test_strategies_report_top_level_schema(strategies_report):
    assert (
        strategies_report["schema_version"]
        == bench_report.STRATEGY_SCHEMA_VERSION
    )
    assert strategies_report["quick"] is True
    assert isinstance(strategies_report["psi_grid"], dict)
    assert set(bench_report.STRATEGY_STEP_KEYS) <= set(
        strategies_report["step_profile"]
    )
    assert set(bench_report.STRATEGY_OVERHEAD_KEYS) <= set(
        strategies_report["overhead"]
    )


def test_strategies_grid_rows(strategies_report):
    grid = strategies_report["psi_grid"]
    assert grid["rows"]
    for row in grid["rows"]:
        assert set(bench_report.STRATEGY_GRID_KEYS) <= set(row), row
        assert row["n_repeats"] >= 1
        for key in ("psi_fixed", "psi_adaptive", "psi_selective"):
            assert row[key] >= 0
    assert grid["operating_gamma"] == grid["rows"][0]["gamma"]
    assert grid["adaptive_no_worse_at_operating_point"] is True


def test_strategies_step_profile_entry(strategies_report):
    """The autotuner's raison d'être: under a time-varying Γ profile it
    must actually move Λ and end no worse than the fixed arm it
    started as."""
    step = strategies_report["step_profile"]
    assert step["n_frames"] >= 1
    assert "step(" in step["profile"]
    assert step["lambda_trajectory"], "the tuner never adjusted"
    for record in step["lambda_trajectory"]:
        assert record["old_sensitivity"] != record["new_sensitivity"]
        assert record["frame_index"] >= 0
    assert step["psi_autotune"] <= step["psi_fixed"]


def test_strategies_overhead_entry(strategies_report):
    overhead = strategies_report["overhead"]
    assert overhead["plain_s"] > 0
    assert overhead["autotune_s"] > 0
    assert overhead["overhead_us_per_frame"] >= 0
    assert overhead["overhead_ratio"] > 0


def test_committed_strategies_report_is_schema_valid():
    """The checked-in BENCH_PR10.json must parse under the same schema
    and show the acceptance result: the adaptive arm no worse than the
    fixed arm at the operating Γ, and the autotuner strictly better
    than its own starting Λ under the time-varying step profile."""
    committed = json.loads((REPO_ROOT / "BENCH_PR10.json").read_text())
    assert (
        committed["schema_version"] == bench_report.STRATEGY_SCHEMA_VERSION
    )
    grid = committed["psi_grid"]
    for row in grid["rows"]:
        assert set(bench_report.STRATEGY_GRID_KEYS) <= set(row)
    assert grid["adaptive_no_worse_at_operating_point"] is True
    step = committed["step_profile"]
    assert set(bench_report.STRATEGY_STEP_KEYS) <= set(step)
    assert step["lambda_trajectory"]
    assert step["psi_autotune"] < step["psi_fixed"]
    assert set(bench_report.STRATEGY_OVERHEAD_KEYS) <= set(
        committed["overhead"]
    )


load_serve = pytest.importorskip("load_serve")


@pytest.fixture(scope="module")
def serve_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("serve") / "serve.json"
    assert load_serve.main(["--quick", "--out", str(out)]) == 0
    return json.loads(out.read_text())


def test_serve_report_top_level_schema(serve_report):
    assert serve_report["schema_version"] == load_serve.SERVE_SCHEMA_VERSION
    assert serve_report["quick"] is True
    assert set(load_serve.THROUGHPUT_KEYS) <= set(serve_report["throughput"])
    assert set(load_serve.CHURN_KEYS) <= set(serve_report["churn"])


def test_serve_report_throughput_entries(serve_report):
    throughput = serve_report["throughput"]
    assert throughput["frames_per_sec"] > 0
    assert throughput["p99_ms"] >= throughput["p50_ms"] > 0
    assert throughput["messages"] > 0
    assert throughput["bit_identical"] is True


def test_serve_report_witnesses_chaos_resume(serve_report):
    """The churn phase proves the resume contract under fire: chaos
    kills plus a mid-load drain/restart, every stream byte-identical."""
    churn = serve_report["churn"]
    assert churn["chaos_kills"] > 0
    assert churn["restarts"] == 1
    assert churn["bit_identical"] is True
    assert churn["psi_exact"] is True


def test_committed_serve_report_is_schema_valid():
    """The checked-in BENCH_PR6.json must parse under the same schema
    and show the headline result: >= 500 concurrent streams sustained,
    and the churn phase byte-identical through kills and a restart."""
    committed = json.loads((REPO_ROOT / "BENCH_PR6.json").read_text())
    assert committed["schema_version"] == load_serve.SERVE_SCHEMA_VERSION
    throughput = committed["throughput"]
    assert set(load_serve.THROUGHPUT_KEYS) <= set(throughput)
    assert throughput["streams"] >= 500
    assert throughput["frames_per_sec"] > 0
    assert throughput["p99_ms"] >= throughput["p50_ms"] > 0
    assert throughput["bit_identical"] is True
    churn = committed["churn"]
    assert set(load_serve.CHURN_KEYS) <= set(churn)
    assert churn["chaos_kills"] > 0
    assert churn["drains"] > 0
    assert churn["bit_identical"] is True
    assert churn["psi_exact"] is True
