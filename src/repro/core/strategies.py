"""Adaptive and application-aware preprocessing strategies.

The paper fixes Υ and Λ per run ("experimentally optimized values", §6);
the related work argues both knobs should move at runtime.  This module
implements the two directions as drop-in strategies behind
:class:`repro.core.algo_ngst.AlgoNGST`, selected by
``NGSTConfig.strategy``:

* ``adaptive`` — **incoherence-scored voting** (after Alagöz,
  arXiv:0811.3816).  Each of the Υ pairing ways is scored per pixel
  column by how incoherent its XOR stream is relative to the other ways,
  using the same adjacent-difference MAD machinery as the σ̂/Γ̂
  estimators in :mod:`repro.core.autotune` (shared ``MAD_SCALE``
  constant, per-way medians normalised by the √|offset| growth a genuine
  Eq. (1) walk exhibits).  The fixed Φ(Λ)-ranked ``V_val`` threshold of a
  way is then *rescaled* by ``2**round(β·log2(score))``: incoherent ways
  (score > 1 — their neighbour stack is turbulent or fault-ridden) get
  their thresholds raised and vote for less, coherent ways (score < 1)
  get them lowered and vote for more.  With ``coherence_prune_ratio``
  set, a way whose score reaches the ratio abstains outright at that
  column (its threshold is pushed to 2**nbits, above every representable
  XOR).  With ``coherence_beta = 0`` every shift rounds to zero and the
  thresholds — hence the whole correction — are byte-identical to the
  ``fixed`` path, which is the degeneracy the strategy-equivalence
  harness gates.

* ``selective`` — **application-aware selective protection** (after
  Wang et al., arXiv:2407.11853).  A per-region sensitivity map built
  from ``margin`` / ``header_rows`` / ``science_fast`` partitions the
  image coordinates: high-sensitivity regions (headers, science
  interior) run the full Algorithm 1 voter; low-sensitivity regions
  (calibration margins, or the science field when only headers matter)
  take a cheap unanimous-vote-only path that skips the GRT combiner and
  the per-coordinate threshold scan.  When the map marks everything
  sensitive (the default field values) the strategy delegates wholesale
  to the ``fixed`` path and is byte-identical by construction.

Both strategies return the same :class:`NGSTResult` as the fixed path,
so they flow through caching, DAG reports, and every runtime
backend unchanged.  The online Λ autotuner — the third adaptive mode —
lives in :mod:`repro.stream.autotune_stage` because it is stateful
across stacks.
"""

from __future__ import annotations

import numpy as np

from repro.config import NGSTConfig, STRATEGY_CHOICES
from repro.core import bitops
from repro.core.algo_ngst import NGSTResult, correct_with_thresholds, run_fixed
from repro.core.autotune import MAD_SCALE
from repro.core.voter import VoterMatrix
from repro.core.windows import BitWindows
from repro.exceptions import ConfigurationError

__all__ = [
    "STRATEGY_CHOICES",
    "incoherence_scores",
    "adaptive_thresholds",
    "region_mask",
    "strategy_arm_config",
    "FixedStrategy",
    "AdaptiveVotingStrategy",
    "SelectiveProtectionStrategy",
    "resolve_strategy",
]


def strategy_arm_config(
    strategy: str, *, upsilon: int = 4, sensitivity: float = 50.0
) -> NGSTConfig:
    """A representative :class:`NGSTConfig` for a named-strategy arm.

    Experiments add strategy arms by name (``repro fig2 --strategy
    adaptive``); this picks the canonical knob settings those arms run
    at, so the arm labels in figures and bench reports always mean the
    same configuration.  ``adaptive`` runs at the default shift gain
    (β = 1); ``selective`` protects a 2-row header and treats a 2-pixel
    border as low-sensitivity margin — the smallest map that actually
    exercises both region kinds.
    """
    if strategy == "adaptive":
        return NGSTConfig(
            upsilon=upsilon, sensitivity=sensitivity, strategy="adaptive"
        )
    if strategy == "selective":
        return NGSTConfig(
            upsilon=upsilon,
            sensitivity=sensitivity,
            strategy="selective",
            margin=2,
            header_rows=2,
        )
    if strategy == "fixed":
        return NGSTConfig(upsilon=upsilon, sensitivity=sensitivity)
    raise ConfigurationError(
        f"strategy must be one of {STRATEGY_CHOICES}, got {strategy!r}"
    )


def incoherence_scores(matrix: VoterMatrix) -> np.ndarray:
    """Per-way, per-column incoherence scores of a voter matrix.

    For each pairing way the median XOR magnitude over the temporal axis
    is a robust scale statistic of that way's disagreement stream — the
    same MAD construction :func:`repro.core.autotune.estimate_sigma`
    applies to adjacent differences, here taken per way and per column.
    Under Eq. (1) the pairing at offset ``d`` differs by a sum of ``|d|``
    i.i.d. increments, so the natural scale grows like ``σ·√|d|``;
    dividing by ``√|d|`` (and the Gaussian ``MAD_SCALE``) puts all Υ ways
    on a common σ̂ footing.  The score of a way is then its normalised
    scale against the cross-way median at the same column::

        score[w, c] = (σ̂[w, c] + 1) / (median_w σ̂[w, c] + 1)

    A way tracking the same coherent walk as its peers scores ≈ 1; a way
    whose neighbour stack carries concentrated faults or decorrelated
    data scores > 1.  The ``+1`` floors keep the ratio finite and pin
    constant (all-zero-XOR) stacks exactly at 1.0, so fault-free
    uniform-coherence inputs produce no threshold adjustment at all.

    Returns:
        float64 array of shape ``(Υ, n_coords)`` (``n_coords = 1`` for
        1-D stacks), scores > 0.
    """
    upsilon = matrix.upsilon
    flat = matrix.xors.reshape(upsilon, matrix.n_variants, -1)
    mag = np.median(flat.astype(np.float64), axis=1)
    scale = np.sqrt(np.abs(np.asarray(matrix.offsets, dtype=np.float64)))
    sigma_w = mag / MAD_SCALE / scale[:, None]
    ref = np.median(sigma_w, axis=0)
    return (sigma_w + 1.0) / (ref[None, :] + 1.0)


def adaptive_thresholds(
    base: np.ndarray,
    scores: np.ndarray,
    *,
    beta: float,
    prune_ratio: float,
    nbits: int,
) -> np.ndarray:
    """Rescale the Φ(Λ) thresholds by incoherence score.

    Each threshold is multiplied by ``2**round(β·log2(score))`` and
    clipped to ``[1, 2**nbits]`` — always a power of two, as the
    bit-window derivation requires.  ``2**nbits`` exceeds every
    representable XOR magnitude, so a way pushed there abstains at that
    column (and, through the window max, narrows window A there: lost
    confidence in a way also tightens the relaxed Υ−1 vote).  All
    arithmetic is exact in float64 (powers of two well below 2**52), so
    ``β = 0`` reproduces ``base`` bit for bit.

    Args:
        base: uint64 thresholds of shape ``(Υ,)`` or ``(Υ,) + coords``.
        scores: from :func:`incoherence_scores`, shape ``(Υ, n_coords)``.
        beta: shift gain; 0 disables the adjustment.
        prune_ratio: score at or above which a way abstains; 0 = off.
        nbits: pixel width in bits.

    Returns:
        uint64 thresholds of shape ``(Υ, n_coords)``.
    """
    upsilon = scores.shape[0]
    base2d = np.asarray(base, dtype=np.uint64).reshape(upsilon, -1)
    shift = np.rint(beta * np.log2(scores)).astype(np.int64)
    shift = np.clip(shift, -nbits, nbits)
    adjusted = base2d.astype(np.float64) * np.exp2(shift.astype(np.float64))
    adjusted = np.clip(adjusted, 1.0, np.exp2(nbits))
    if prune_ratio:
        adjusted = np.where(scores >= prune_ratio, np.exp2(nbits), adjusted)
    return adjusted.astype(np.uint64)


def region_mask(coord_shape: tuple[int, ...], cfg: NGSTConfig) -> np.ndarray | None:
    """Per-region sensitivity map over the image coordinates.

    ``True`` marks high-sensitivity coordinates (full preprocessing),
    ``False`` low-sensitivity ones (cheap unanimous-vote path):

    * ``science_fast`` starts the whole field low-sensitivity;
    * ``margin`` marks a border of that width along every spatial axis
      low-sensitivity (overscan/calibration margins);
    * ``header_rows`` forces the leading rows of the first spatial axis
      back to high sensitivity (telemetry/header region), overriding
      both of the above.

    Returns ``None`` for coordinate-less (1-D temporal) stacks — there
    are no regions to distinguish, so every pixel is sensitive.
    """
    if not coord_shape:
        return None
    mask = np.ones(coord_shape, dtype=bool)
    if cfg.science_fast:
        mask[...] = False
    if cfg.margin > 0:
        for axis, length in enumerate(coord_shape):
            sl = [slice(None)] * len(coord_shape)
            sl[axis] = slice(0, min(cfg.margin, length))
            mask[tuple(sl)] = False
            sl[axis] = slice(max(length - cfg.margin, 0), None)
            mask[tuple(sl)] = False
    if cfg.header_rows > 0:
        sl = [slice(None)] * len(coord_shape)
        sl[0] = slice(0, min(cfg.header_rows, coord_shape[0]))
        mask[tuple(sl)] = True
    return mask


def _unanimous_corrections(pixels: np.ndarray, cfg: NGSTConfig) -> tuple[np.ndarray, BitWindows]:
    """The cheap low-sensitivity path: global thresholds, unanimity only.

    Skips both the per-coordinate threshold scan and the GRT combiner —
    a correction is applied only where *all* Υ pruned voters agree,
    within window B/C bounds (``corr = unanimous & LSB-MASK``; no
    window-A relaxation without the Υ−1 vote).
    """
    matrix = VoterMatrix(pixels, cfg.upsilon)
    thresholds = matrix.thresholds(cfg.sensitivity, per_coordinate=False)
    nbits = bitops.bit_width(pixels.dtype)
    windows = BitWindows.from_thresholds(thresholds, nbits)
    # Prune in the voters' own dtype (as VoterMatrix.pruned does), with
    # the global per-way thresholds broadcast over every trailing axis.
    thr = np.asarray(thresholds, dtype=np.uint64).reshape(
        (cfg.upsilon,) + (1,) * pixels.ndim
    )
    dtype_max = np.uint64(np.iinfo(matrix.xors.dtype).max)
    capped = np.minimum(thr, dtype_max).astype(matrix.xors.dtype)
    pruned = np.where(matrix.xors > capped, matrix.xors, np.zeros_like(matrix.xors))
    unanimous = VoterMatrix.unanimous(
        pruned.reshape(cfg.upsilon, -1).astype(np.uint64)
    )
    lsb = np.asarray(windows.lsb_mask, dtype=np.uint64).reshape(-1)
    corr = (unanimous & lsb[0]).reshape(pixels.shape).astype(pixels.dtype)
    return corr, windows


class FixedStrategy:
    """Algorithm 1 exactly as the paper states it."""

    name = "fixed"

    def run(self, pixels: np.ndarray, cfg: NGSTConfig) -> NGSTResult:
        return run_fixed(pixels, cfg)


class AdaptiveVotingStrategy:
    """Incoherence-scored adaptive voting (see module docstring)."""

    name = "adaptive"

    def run(self, pixels: np.ndarray, cfg: NGSTConfig) -> NGSTResult:
        matrix = VoterMatrix(pixels, cfg.upsilon)
        base = matrix.thresholds(
            cfg.sensitivity, per_coordinate=cfg.per_coordinate_thresholds
        )
        scores = incoherence_scores(matrix)
        adjusted = adaptive_thresholds(
            base,
            scores,
            beta=cfg.coherence_beta,
            prune_ratio=cfg.coherence_prune_ratio,
            nbits=bitops.bit_width(pixels.dtype),
        )
        if pixels.ndim > 1:
            adjusted = adjusted.reshape((cfg.upsilon,) + pixels.shape[1:])
        else:
            adjusted = adjusted.reshape(cfg.upsilon)
        return correct_with_thresholds(pixels, cfg, matrix, adjusted)


class SelectiveProtectionStrategy:
    """Application-aware selective protection (see module docstring)."""

    name = "selective"

    def run(self, pixels: np.ndarray, cfg: NGSTConfig) -> NGSTResult:
        mask = region_mask(pixels.shape[1:], cfg)
        if mask is None or bool(mask.all()):
            # Everything is high-sensitivity: the full path on the intact
            # array, byte-identical to the fixed strategy by construction.
            return run_fixed(pixels, cfg)
        n = pixels.shape[0]
        flat = pixels.reshape(n, -1)
        flat_mask = mask.reshape(-1)
        sens_idx = np.nonzero(flat_mask)[0]
        fast_idx = np.nonzero(~flat_mask)[0]
        corr = np.zeros(flat.shape, dtype=pixels.dtype)
        windows: BitWindows | None = None
        if sens_idx.size:
            # Per-coordinate thresholds are column-independent, so the
            # sensitive columns correct exactly as they would in a
            # full-image run when per_coordinate_thresholds is set.
            full = run_fixed(np.ascontiguousarray(flat[:, sens_idx]), cfg)
            corr[:, sens_idx] = full.correction_vectors
            windows = full.windows
        if fast_idx.size:
            fast_corr, fast_windows = _unanimous_corrections(
                np.ascontiguousarray(flat[:, fast_idx]), cfg
            )
            corr[:, fast_idx] = fast_corr
            if windows is None:
                windows = fast_windows
        corr = corr.reshape(pixels.shape)
        corrected = np.bitwise_xor(pixels, corr)
        assert windows is not None  # sens_idx or fast_idx is non-empty
        return NGSTResult(
            corrected=corrected,
            correction_vectors=corr,
            windows=windows,
            n_pixels_corrected=int(np.count_nonzero(corr)),
            n_bits_corrected=int(bitops.popcount(corr).sum()),
        )


_STRATEGIES = {
    "fixed": FixedStrategy(),
    "adaptive": AdaptiveVotingStrategy(),
    "selective": SelectiveProtectionStrategy(),
}


def resolve_strategy(cfg: NGSTConfig):
    """The strategy object selected by ``cfg.strategy``."""
    try:
        return _STRATEGIES[cfg.strategy]
    except KeyError:
        raise ConfigurationError(
            f"strategy must be one of {STRATEGY_CHOICES}, got {cfg.strategy!r}"
        ) from None
