"""Ψ claims of the adaptive strategies (incoherence scoring, arXiv 0811.3816).

* the online autotuner beats a fixed Λ under a time-varying Γ step
  profile, starting from the same Λ over the identical injected stream;
* the ``adaptive`` arm is no worse than ``fixed`` at the nominal Γ,
  where nothing is wrong with the stack.

Both runs are seeded end to end, so the Ψ values are exact on either
kernel tier.
"""

import numpy as np

from repro.config import NGSTConfig, NGSTDatasetConfig
from repro.core.algo_ngst import AlgoNGST
from repro.core.strategies import strategy_arm_config
from repro.data.ngst import generate_walk
from repro.faults import FaultInjector, UncorrelatedFaultModel
from repro.faults.profile import GammaStepProfile
from repro.metrics import psi
from repro.stream import (
    InjectStage,
    StreamPipeline,
    SyntheticWalkSource,
    VoterStage,
)
from repro.stream.autotune_stage import AutotuneVoterStage


def test_autotuner_beats_fixed_lambda_under_gamma_steps():
    profile = GammaStepProfile(base=0.001, elevated=0.08, period=256, duty=0.5)

    def run(voter):
        source = SyntheticWalkSource(shape=(16,), seed=11, n_frames=512)
        inject = InjectStage(
            UncorrelatedFaultModel(0.001), seed=3, profile=profile
        )
        return StreamPipeline(source, [inject, voter], chunk_frames=64).run()

    fixed = run(VoterStage(NGSTConfig(sensitivity=50.0), stack_frames=32))
    tuner = AutotuneVoterStage(
        NGSTConfig(sensitivity=50.0),
        stack_frames=32,
        window_stacks=2,
        interval_stacks=1,
        min_delta=10.0,
        confirm=2,
    )
    autotuned = run(tuner)
    assert autotuned.psi_algorithm < fixed.psi_algorithm
    assert tuner.lambda_trajectory
    for step in tuner.lambda_trajectory:
        assert step["new_sensitivity"] != step["old_sensitivity"]


def test_adaptive_arm_no_worse_than_fixed_at_nominal_gamma():
    dataset_cfg = NGSTDatasetConfig(n_variants=32, sigma=25.0)
    arms = {
        name: AlgoNGST(strategy_arm_config(name))
        for name in ("fixed", "adaptive")
    }
    sums = dict.fromkeys(arms, 0.0)
    for repeat in range(2):
        rng = np.random.default_rng(1000 + repeat)
        pristine = generate_walk(dataset_cfg, rng, (8, 8))
        corrupted, _ = FaultInjector(
            UncorrelatedFaultModel(0.001), seed=repeat
        ).inject(pristine)
        for name, algo in arms.items():
            sums[name] += psi(algo(corrupted).corrected, pristine)
    # Exactly-no-worse would be brittle on two repeats; 5% covers seed
    # noise while still catching a real regression.
    assert sums["adaptive"] <= 1.05 * sums["fixed"]
