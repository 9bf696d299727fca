"""Tests for the §9 integrated-preprocessing architecture."""

import numpy as np
import pytest

from repro.config import NGSTConfig
from repro.core import preprocessor
from repro.exceptions import HeaderSanityError
from repro.faults.injector import FaultInjector
from repro.faults.uncorrelated import UncorrelatedFaultModel
from repro.fits import file as fits_file
from repro.fits.header import Header
from repro.ngst import integrated as ngst_integrated
from repro.ngst.integrated import integrated_run, layered_run, make_transport
from repro.ngst.ramp import RampModel


@pytest.fixture(scope="module")
def transport_world():
    rng = np.random.default_rng(31)
    ramp = RampModel(n_readouts=16, read_noise=8.0)
    flux = rng.uniform(0.5, 4.0, size=(48, 48))
    stack = ramp.generate(flux, rng)
    corrupted, _ = FaultInjector(UncorrelatedFaultModel(0.01), seed=2).inject(stack)
    return ramp, flux, make_transport(corrupted)


class TestEquivalence:
    def test_same_science_output(self, transport_world):
        ramp, flux, blob = transport_world
        config = NGSTConfig(sensitivity=80)
        layered = layered_run(blob, ramp, config)
        integrated = integrated_run(blob, ramp, config)
        assert np.allclose(layered, integrated.flux)

    def test_corrections_reported(self, transport_world):
        ramp, _, blob = transport_world
        result = integrated_run(blob, ramp, NGSTConfig(sensitivity=80))
        assert result.n_pixels_corrected > 0

    def test_zero_sensitivity_header_only(self, transport_world):
        ramp, _, blob = transport_world
        result = integrated_run(blob, ramp, NGSTConfig(sensitivity=0))
        assert result.n_pixels_corrected == 0
        assert result.flux.shape == (48, 48)

    def test_header_repair_inside_application(self, transport_world):
        ramp, _, blob = transport_world
        damaged = bytearray(blob)
        damaged[80] |= 0x80  # keyword byte of card 2
        result = integrated_run(bytes(damaged), ramp, NGSTConfig(sensitivity=80))
        assert result.n_header_repairs >= 1

    def test_unrecoverable_header_raises(self, transport_world):
        ramp, _, blob = transport_world
        destroyed = blob[:2880].replace(b"END", b"XXX") + blob[2880:]
        with pytest.raises(HeaderSanityError):
            integrated_run(destroyed, ramp, NGSTConfig(sensitivity=80))


#: The unwrapped codec functions, captured before any test patches them.
_DECODE_DATA_UNIT = fits_file.decode_data_unit
_WRITE_HDU = fits_file.write_hdu
_HEADER_TO_BYTES = Header.to_bytes


def _count_codec_passes(monkeypatch, run):
    """FITS codec work done by *run*, counted where the paths look it up.

    ``decodes`` counts data-unit decodes: the integrated path's, the
    preprocessing layer's, and the application's re-read of the layer's
    output (``read_fits_bytes`` → ``repro.fits.file``).  ``encodes``
    counts HDU header serialisations, which every emitted FITS HDU starts
    with — the layer's re-encoded output, with or without a rewritten
    data unit — and ``data_encodes`` counts full ``write_hdu`` calls.
    """
    counts = {"decodes": 0, "encodes": 0, "data_encodes": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module in (fits_file, ngst_integrated, preprocessor):
        monkeypatch.setattr(
            module, "decode_data_unit", counting("decodes", _DECODE_DATA_UNIT)
        )
    monkeypatch.setattr(
        preprocessor, "write_hdu", counting("data_encodes", _WRITE_HDU)
    )
    monkeypatch.setattr(Header, "to_bytes", counting("encodes", _HEADER_TO_BYTES))
    run()
    monkeypatch.undo()
    return counts


class TestOverheadClaim:
    """§9: integration lowers the overhead because the application gets
    the repaired arrays directly instead of re-decoding a re-encoded
    FITS stream.  The claim is checked structurally, by counting codec
    passes; the wall-clock comparison lives in
    ``benchmarks/test_bench_integrated.py``."""

    def test_integrated_no_slower_at_full_sensitivity(
        self, transport_world, monkeypatch
    ):
        """At Λ > 0 the layer re-encodes the whole repaired cube."""
        ramp, _, blob = transport_world
        config = NGSTConfig(sensitivity=80)
        layered = _count_codec_passes(
            monkeypatch, lambda: layered_run(blob, ramp, config)
        )
        integrated = _count_codec_passes(
            monkeypatch, lambda: integrated_run(blob, ramp, config)
        )
        assert integrated["decodes"] < layered["decodes"]
        assert integrated["encodes"] < layered["encodes"]
        assert integrated["data_encodes"] < layered["data_encodes"]

    def test_integrated_faster_at_header_only(self, transport_world, monkeypatch):
        """At Λ = 0 the layer still re-emits the stream and the
        application decodes the data unit a second time."""
        ramp, _, blob = transport_world
        config = NGSTConfig(sensitivity=0)
        layered = _count_codec_passes(
            monkeypatch, lambda: layered_run(blob, ramp, config)
        )
        integrated = _count_codec_passes(
            monkeypatch, lambda: integrated_run(blob, ramp, config)
        )
        assert integrated["decodes"] < layered["decodes"]
        assert integrated["encodes"] < layered["encodes"]
