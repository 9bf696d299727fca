"""Tests for the command-line interface."""

import json
import re

import pytest

from repro.cli import _QUICK_OVERRIDES, main
from repro.experiments.registry import REGISTRY


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig2" in out and "ablate-layout" in out

    def test_unknown_experiment(self, capsys):
        assert main(["fig99"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_quick_fig2(self, capsys):
        assert main(["fig2", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "fig2" in out
        assert "Gamma0" in out

    def test_json_output(self, tmp_path, capsys):
        path = tmp_path / "out.json"
        assert main(["fig3", "--quick", "--json", str(path)]) == 0
        data = json.loads(path.read_text())
        assert data[0]["experiment_id"] == "fig3"
        assert data[0]["series"]

    def test_quick_ablations(self, capsys):
        assert main(["ablate-windows", "--quick"]) == 0
        assert "full" in capsys.readouterr().out


class TestAllQuickOverrides:
    """Every registered experiment must run under --quick."""

    import pytest as _pytest

    from repro.experiments.registry import REGISTRY as _REGISTRY

    @_pytest.mark.parametrize("experiment_id", sorted(_REGISTRY))
    def test_quick_run(self, experiment_id, capsys):
        assert main([experiment_id, "--quick"]) == 0
        out = capsys.readouterr().out
        assert experiment_id.split("-")[0] in out or experiment_id in out

    def test_overrides_cover_exactly_the_registry(self):
        """A new experiment must ship a --quick override, and overrides
        must not outlive the experiments they tune."""
        assert set(_QUICK_OVERRIDES) == set(REGISTRY)


class TestRuntimeFlags:
    def test_rejects_nonpositive_jobs(self, capsys):
        assert main(["fig2", "--quick", "--jobs", "0"]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_jobs_output_byte_identical_to_serial(self, tmp_path, capsys):
        """`repro fig2 --quick` must produce byte-identical JSON at any
        worker count — the determinism contract of the runtime."""
        serial_path = tmp_path / "serial.json"
        parallel_path = tmp_path / "parallel.json"
        assert main(["fig2", "--quick", "--jobs", "1", "--json", str(serial_path)]) == 0
        assert (
            main(["fig2", "--quick", "--jobs", "4", "--json", str(parallel_path)]) == 0
        )
        capsys.readouterr()
        assert serial_path.read_bytes() == parallel_path.read_bytes()

    def test_parallel_pool_output_byte_identical(self, tmp_path, capsys):
        """fig5 --quick has multi-trial campaigns (n_datasets=3), so
        --jobs 2 genuinely fans out to worker processes."""
        serial_path = tmp_path / "serial.json"
        parallel_path = tmp_path / "parallel.json"
        assert main(["fig5", "--quick", "--json", str(serial_path)]) == 0
        assert (
            main(["fig5", "--quick", "--jobs", "2", "--json", str(parallel_path)]) == 0
        )
        capsys.readouterr()
        assert serial_path.read_bytes() == parallel_path.read_bytes()

    def test_resume_writes_and_reuses_checkpoints(self, tmp_path, capsys):
        store = tmp_path / "store"
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        args = ["fig5", "--quick", "--resume", "--cache-dir", str(store)]
        assert main(args + ["--json", str(first)]) == 0
        recorded = sorted(path.name for path in store.iterdir())
        assert recorded
        assert not list(tmp_path.rglob("*.jsonl"))
        # Second run restores every shard: the store gains nothing and
        # the output is unchanged.
        assert main(args + ["--json", str(second), "--progress"]) == 0
        captured = capsys.readouterr()
        assert sorted(path.name for path in store.iterdir()) == recorded
        assert first.read_bytes() == second.read_bytes()
        assert "restored from checkpoint" in captured.err
        assert re.search(r"; [1-9]\d* shard\(s\) run", captured.err) is None

    def test_interrupted_resume_is_byte_identical(
        self, tmp_path, monkeypatch, capsys
    ):
        """Kill fig5 partway (a trial raises), re-run: finished shards
        come back from the store and every output byte matches."""
        import repro.experiments.figure5 as figure5

        clean_json = tmp_path / "clean.json"
        assert main(["fig5", "--quick", "--json", str(clean_json)]) == 0
        clean_out = capsys.readouterr().out

        store = tmp_path / "store"
        resumed_json = tmp_path / "resumed.json"
        args = ["fig5", "--quick", "--resume", "--cache-dir", str(store)]
        real = figure5.gamut_dataset
        calls = {"n": 0}

        def crashing(*a, **kw):
            calls["n"] += 1
            if calls["n"] > 7:
                raise RuntimeError("simulated crash")
            return real(*a, **kw)

        monkeypatch.setattr(figure5, "gamut_dataset", crashing)
        with pytest.raises(RuntimeError, match="simulated crash"):
            main(args + ["--json", str(resumed_json)])
        monkeypatch.setattr(figure5, "gamut_dataset", real)
        capsys.readouterr()

        assert main(args + ["--json", str(resumed_json), "--progress"]) == 0
        captured = capsys.readouterr()
        assert captured.err.count("restored from checkpoint") == 7
        assert resumed_json.read_bytes() == clean_json.read_bytes()
        tables = lambda out: out.rsplit("wrote ", 1)[0]  # noqa: E731
        assert tables(captured.out) == tables(clean_out)
        assert not list(tmp_path.rglob("*.jsonl"))

    def test_resume_defaults_to_the_report_store(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["fig5", "--quick", "--resume"]) == 0
        capsys.readouterr()
        assert any((tmp_path / ".repro-cache").glob("*.npz"))

    def test_checkpoint_dir_is_gone(self, capsys):
        with pytest.raises(SystemExit):
            main(["fig5", "--quick", "--resume", "--checkpoint-dir", "x"])
        assert "--checkpoint-dir" in capsys.readouterr().err

    def test_progress_prints_telemetry_to_stderr(self, tmp_path, capsys):
        assert main(["fig5", "--quick", "--progress"]) == 0
        captured = capsys.readouterr()
        assert "trial(s)" in captured.err
        assert "done:" in captured.err
