"""Wall-clock side of the §9 integrated-preprocessing claim.

Tier-1 (``tests/ngst/test_integrated.py``) checks the claim
structurally by counting FITS codec passes.  These benches time both
architectures and compare best-of-N wall clock, which is only
meaningful on an otherwise idle host.
"""

import numpy as np
import pytest

from repro.config import NGSTConfig
from repro.faults.injector import FaultInjector
from repro.faults.uncorrelated import UncorrelatedFaultModel
from repro.metrics.overhead import time_callable
from repro.ngst.integrated import integrated_run, layered_run, make_transport
from repro.ngst.ramp import RampModel


@pytest.fixture(scope="module")
def transport_world():
    rng = np.random.default_rng(31)
    ramp = RampModel(n_readouts=16, read_noise=8.0)
    flux = rng.uniform(0.5, 4.0, size=(48, 48))
    stack = ramp.generate(flux, rng)
    corrupted, _ = FaultInjector(UncorrelatedFaultModel(0.01), seed=2).inject(stack)
    return ramp, make_transport(corrupted)


def test_bench_integrated_no_slower_at_full_sensitivity(benchmark, transport_world):
    """At Λ > 0 the algorithm dominates; integration must not cost."""
    ramp, blob = transport_world
    config = NGSTConfig(sensitivity=80)
    benchmark(integrated_run, blob, ramp, config)
    layered_t = time_callable(lambda: layered_run(blob, ramp, config), repeats=3)
    integrated_t = time_callable(
        lambda: integrated_run(blob, ramp, config), repeats=3
    )
    assert integrated_t.best_seconds < layered_t.best_seconds * 1.10


def test_bench_integrated_faster_at_header_only(benchmark, transport_world):
    """At Λ = 0 the separate layer's FITS re-encode/decode round-trip is
    the dominant cost, and the integrated path skips it."""
    ramp, blob = transport_world
    config = NGSTConfig(sensitivity=0)
    benchmark(integrated_run, blob, ramp, config)
    layered_t = time_callable(lambda: layered_run(blob, ramp, config), repeats=9)
    integrated_t = time_callable(
        lambda: integrated_run(blob, ramp, config), repeats=9
    )
    # Best-of-9 with a small tolerance: the structural saving (~14% at
    # this size) must show through scheduler noise.
    assert integrated_t.best_seconds < layered_t.best_seconds * 1.02
