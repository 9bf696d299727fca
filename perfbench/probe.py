"""Set-up probe: a fresh interpreter gets ready for one workload.

Run as ``probe.py <workload> <seed>`` with ``PYTHONPATH`` pointing at the
program's source; prints ``ready`` once the program is imported, the
kernel tier is loaded and the workload's graph or source is built.  The
parent times spawn-to-``ready``; that is the ``setup_s`` sample.
"""

import sys

if __name__ == "__main__":
    workload, seed = sys.argv[1], int(sys.argv[2])
    from repro.native import loader

    loader.load()
    if workload == "report":
        import wl_report

        wl_report.build_graph()
    else:
        import wl_stream

        wl_stream.build_pipeline(workload, seed)
    print("ready", flush=True)
