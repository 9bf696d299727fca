"""Kernel-tier dispatch: native → NumPy-vectorized → ``_reference_*``.

Every hot-path kernel registers its implementations here; call sites go
through :func:`call`, which picks the tier per invocation:

* ``REPRO_KERNEL_TIER`` environment variable, overridden by the
  programmatic knob :func:`set_kernel_tier` (the config surface for
  embedding applications), selects ``auto`` (default), ``native``,
  ``numpy`` or ``reference``.
* ``auto`` and ``native`` use the compiled tier when the extension
  loads (building it on first use — see :mod:`repro.native.loader`)
  *and* the kernel's ``accepts`` predicate admits the arguments;
  otherwise they fall back to the NumPy tier, so pure-NumPy
  environments and unsupported argument shapes are transparently
  served.  ``reference`` runs the in-tree oracles — the ground truth
  the other tiers are property-tested against.

The three tiers of one kernel are bit-identical by contract
(``tests/core/test_kernel_equivalence.py``), so tier selection is a
pure performance decision and every entry point — campaigns, streams,
the serve layer, DAG sweeps — inherits it without code changes.
"""

from __future__ import annotations

import os
import threading
import warnings
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass

from repro.exceptions import ConfigurationError
from repro.native import loader

#: Recognised tier names, ordered fastest first.
TIERS = ("native", "numpy", "reference")

#: Environment variable holding the requested tier.
ENV_VAR = "REPRO_KERNEL_TIER"

_override: str | None = None
_override_lock = threading.Lock()
_warned_native_missing = False


@dataclass(frozen=True)
class Kernel:
    """One dispatchable kernel: its tiers and the native admission test."""

    name: str
    numpy_impl: Callable
    reference_impl: Callable
    native_impl: Callable | None = None
    #: Optional predicate over the call arguments; False sends the call
    #: to the NumPy tier (e.g. window widths the C counter cannot hold).
    accepts: Callable[..., bool] | None = None

    def admits(self, *args, **kwargs) -> bool:
        if self.native_impl is None:
            return False
        if self.accepts is not None and not self.accepts(*args, **kwargs):
            return False
        return True


_REGISTRY: dict[str, Kernel] = {}


def register(
    name: str,
    *,
    numpy_impl: Callable,
    reference_impl: Callable,
    native_impl: Callable | None = None,
    accepts: Callable[..., bool] | None = None,
) -> None:
    """Register (or re-register) a kernel's tier implementations."""
    _REGISTRY[name] = Kernel(name, numpy_impl, reference_impl, native_impl, accepts)


def kernels() -> dict[str, Kernel]:
    """The registered kernels, keyed by name (import side effect: none —
    callers wanting the full set should import the registering modules;
    :func:`repro.native.cli.load_all_kernels` does exactly that)."""
    return dict(_REGISTRY)


def configured_tier() -> str:
    """The requested tier: programmatic override, else env var, else auto."""
    if _override is not None:
        return _override
    raw = os.environ.get(ENV_VAR, "auto").strip().lower()
    return raw or "auto"


def _validate_tier(tier: str) -> str:
    tier = tier.strip().lower()
    if tier not in TIERS + ("auto",):
        raise ConfigurationError(
            f"unknown kernel tier {tier!r}; expected one of "
            f"{('auto',) + TIERS}"
        )
    return tier


def set_kernel_tier(tier: str | None) -> None:
    """Programmatic tier knob; ``None`` restores env-var/auto selection."""
    global _override
    with _override_lock:
        _override = None if tier is None else _validate_tier(tier)


def get_kernel_tier() -> str:
    """The validated tier currently in effect."""
    return _validate_tier(configured_tier())


@contextmanager
def kernel_tier(tier: str | None):
    """Temporarily pin the tier (benchmarks and the property suite)."""
    global _override
    previous = _override
    set_kernel_tier(tier)
    try:
        yield
    finally:
        with _override_lock:
            _override = previous


def _native_usable(explicit: bool) -> bool:
    global _warned_native_missing
    if loader.available():
        return True
    if explicit and not _warned_native_missing:
        warnings.warn(
            "REPRO_KERNEL_TIER=native requested but the compiled extension "
            f"is unavailable ({loader.unavailable_reason()}); falling back "
            "to the NumPy tier",
            RuntimeWarning,
            stacklevel=3,
        )
        _warned_native_missing = True
    return False


def call(name: str, *args, **kwargs):
    """Run kernel *name* on the currently selected tier."""
    kernel = _REGISTRY[name]
    tier = get_kernel_tier()
    if tier == "reference":
        return kernel.reference_impl(*args, **kwargs)
    if tier in ("auto", "native"):
        if kernel.admits(*args, **kwargs) and _native_usable(tier == "native"):
            return kernel.native_impl(*args, **kwargs)
    return kernel.numpy_impl(*args, **kwargs)


def resolve(name: str) -> str:
    """The tier kernel *name* would run on right now (argument-independent
    part only: an ``accepts`` predicate can still demote single calls)."""
    kernel = _REGISTRY[name]
    tier = get_kernel_tier()
    if tier == "reference":
        return "reference"
    if tier in ("auto", "native") and kernel.native_impl is not None:
        if loader.available():
            return "native"
    return "numpy"
