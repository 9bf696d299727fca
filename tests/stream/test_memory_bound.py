"""The streaming path's O(chunk + window) memory bound.

The traced allocation peak of a streaming run does not grow with the
stream length, and even at twice the length it stays below the batch
pipeline's peak.  ``tracemalloc`` sees numpy's array storage, so the
peaks count the frame buffers that the bound is about; they read no
clock.
"""

import tracemalloc

from repro.faults import UncorrelatedFaultModel
from repro.stream import (
    InjectStage,
    StreamPipeline,
    SyntheticWalkSource,
    VoterStage,
    run_batch,
)


def _parts(n_frames):
    source = SyntheticWalkSource(shape=(64,), seed=3, n_frames=n_frames)
    stages = [
        InjectStage(UncorrelatedFaultModel(0.01), seed=5),
        VoterStage(stack_frames=32),
    ]
    return source, stages


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_streaming_peak_is_flat_and_below_batch():
    # A cold first run also carries one-time allocations (about 1.6 MB
    # against a steady ~0.23 MB), which would hide any growth.
    StreamPipeline(*_parts(128), chunk_frames=64).run()

    # The running peak after each output chunk: at frame 1,024 it is
    # the peak of a 1,024-frame stream; at the end, of a 2,048-frame one.
    peak_at = {}

    def sink(_chunk):
        peak_at[pipeline.frames_out] = tracemalloc.get_traced_memory()[1]

    pipeline = StreamPipeline(*_parts(2048), chunk_frames=64, sink=sink)
    stream = _traced_peak(pipeline.run)
    batch = _traced_peak(lambda: run_batch(*_parts(1024)))
    assert stream <= 1.1 * peak_at[1024], (peak_at[1024], stream)
    assert stream < batch, (stream, batch)
