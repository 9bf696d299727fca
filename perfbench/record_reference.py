"""Record the ``report`` workload's correctness reference.

Runs the fig2 + fig4 + motivation report graph cold into a fresh store
and, separately, the sequential ``run_experiment`` loop over the same
experiments; both must give byte-identical canonical panels JSON.  Its
SHA-256 is written to ``reference.json``, which every ``report`` run
then compares against.  Run from the root of a checkout::

    python3 perfbench/record_reference.py
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from benchlib import BUILD, NATIVE_CACHE, SRC, sha256_bytes  # noqa: E402

if __name__ == "__main__":
    os.environ["REPRO_NATIVE_CACHE"] = str(NATIVE_CACHE)
    sys.path.insert(0, str(SRC))
    from repro.dag.build import json_artifact
    from repro.experiments.registry import run_experiment

    import wl_report

    store = BUILD / "record-reference"
    shutil.rmtree(store, ignore_errors=True)
    try:
        _, panels, _ = wl_report.dag_run(wl_report.build_graph(), store)
    finally:
        shutil.rmtree(store, ignore_errors=True)
    dag_sha = wl_report.panels_sha256(panels)
    sequential = [
        result.to_dict()
        for experiment_id in wl_report.REPORT_IDS
        for result in run_experiment(experiment_id)
    ]
    loop_sha = sha256_bytes(bytes(json_artifact(sequential).arrays["json"]))
    if dag_sha != loop_sha:
        sys.exit(f"DAG panels {dag_sha} != sequential loop {loop_sha}")
    wl_report.REFERENCE.write_text(
        json.dumps(
            {
                "experiments": list(wl_report.REPORT_IDS),
                "report_panels_sha256": dag_sha,
            },
            indent=2,
        )
        + "\n"
    )
    print(f"reference {dag_sha} (DAG run == sequential run_experiment loop)")
