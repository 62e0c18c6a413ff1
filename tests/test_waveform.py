"""Waveform synthesis: time-domain construction versus the DFT reference."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ifdma.allocator import BinState, Request, admit_multistream
from ifdma.mapping import RadixScheme
from ifdma.waveform import (
    StreamSpec,
    multistream_time,
    specs_for_allocation,
    stream_freq_oracle,
    stream_time,
)

EQUIV_TOL = 1e-9
ENVELOPE_TOL = 1e-12


def random_symbols(rng: np.random.Generator, n: int, psk: bool = False) -> np.ndarray:
    if psk:
        return np.exp(2j * np.pi * rng.random(n))
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


@st.composite
def stream_specs(draw, psk=False, max_m=256):
    m = draw(st.sampled_from([2, 4, 8, 16, 64, 128, max_m]))
    divisors = [n for n in range(1, m + 1) if m % n == 0]
    n = draw(st.sampled_from(divisors))
    d = draw(st.integers(0, m // n - 1))
    seed = draw(st.integers(0, 2**32 - 1))
    symbols = random_symbols(np.random.default_rng(seed), n, psk)
    return StreamSpec(symbols, m, d)


class TestStreamSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            StreamSpec(np.ones(3), 8, 0)           # 3 does not divide 8
        with pytest.raises(ValueError):
            StreamSpec(np.ones(4), 8, 2)           # shift beyond spacing
        with pytest.raises(ValueError):
            StreamSpec(np.ones((2, 2)), 8, 0)      # not 1-d
        with pytest.raises(ValueError):
            StreamSpec(np.ones(0), 8, 0)

    def test_subcarriers(self):
        spec = StreamSpec(np.ones(4), 16, 3)
        assert spec.subcarriers == {3, 7, 11, 15}
        assert spec.block_len == 4


class TestEquivalence:
    def test_identity_when_block_fills_band(self):
        rng = np.random.default_rng(0)
        symbols = random_symbols(rng, 8)
        spec = StreamSpec(symbols, 8, 0)
        assert np.array_equal(stream_time(spec), symbols)

    def test_known_small_case(self):
        # N=1: a single symbol becomes a pure carrier at subcarrier d.
        spec = StreamSpec(np.array([2.0 + 0j]), 4, 3)
        x = stream_time(spec)
        expect = 0.5 * np.exp(2j * np.pi * np.arange(4) * 3 / 4)
        assert np.max(np.abs(x - expect)) < 1e-15

    @given(stream_specs())
    @example(StreamSpec(random_symbols(np.random.default_rng(1), 1), 64, 37))   # N = 1
    @example(StreamSpec(random_symbols(np.random.default_rng(2), 64), 64, 0))   # N = M
    @settings(max_examples=150, deadline=None)
    def test_matches_frequency_oracle(self, spec):
        err = np.max(np.abs(stream_time(spec) - stream_freq_oracle(spec)))
        assert err < EQUIV_TOL

    @given(stream_specs())
    @settings(max_examples=80, deadline=None)
    def test_spectrum_lives_on_declared_subcarriers(self, spec):
        spectrum = np.fft.fft(stream_time(spec))
        off = np.ones(spec.band_size, dtype=bool)
        off[sorted(spec.subcarriers)] = False
        assert np.max(np.abs(spectrum[off]), initial=0.0) < 1e-9

    def test_shift_is_a_phase_ramp(self):
        rng = np.random.default_rng(7)
        symbols = random_symbols(rng, 4)
        base = stream_time(StreamSpec(symbols, 16, 0))
        shifted = stream_time(StreamSpec(symbols, 16, 3))
        ell = np.arange(16)
        ramp = np.exp(2j * np.pi * ell * 3 / 16)
        assert np.max(np.abs(shifted - ramp * base)) < 1e-12


class TestEnvelope:
    @given(stream_specs(psk=True))
    @settings(max_examples=100, deadline=None)
    def test_unit_modulus_symbols_keep_constant_envelope(self, spec):
        mags = np.abs(stream_time(spec))
        target = spec.block_len / spec.band_size
        assert np.max(np.abs(mags - target)) < ENVELOPE_TOL

    def test_gaussian_symbols_do_not(self):
        rng = np.random.default_rng(3)
        spec = StreamSpec(random_symbols(rng, 8), 32, 1)
        mags = np.abs(stream_time(spec))
        assert np.max(mags) - np.min(mags) > 1e-3


class TestMultistream:
    def test_sum_of_disjoint_streams(self):
        rng = np.random.default_rng(5)
        a = StreamSpec(random_symbols(rng, 4), 8, 0)
        b = StreamSpec(random_symbols(rng, 2), 8, 1)
        c = StreamSpec(random_symbols(rng, 2), 8, 3)
        x = multistream_time([a, b, c])
        assert np.max(np.abs(x - (stream_time(a) + stream_time(b) + stream_time(c)))) == 0
        # all eight subcarriers are claimed exactly once
        assert a.subcarriers | b.subcarriers | c.subcarriers == set(range(8))

    def test_rejects_overlap(self):
        a = StreamSpec(np.ones(4), 8, 0)
        b = StreamSpec(np.ones(2), 8, 0)       # subcarrier 0 collides
        with pytest.raises(ValueError):
            multistream_time([a, b])

    def test_rejects_mixed_bands(self):
        with pytest.raises(ValueError):
            multistream_time([StreamSpec(np.ones(2), 8, 0),
                              StreamSpec(np.ones(2), 16, 1)])
        with pytest.raises(ValueError):
            multistream_time([])


class TestSpecsForAllocation:
    def test_gathered_request_becomes_disjoint_streams(self):
        scheme = RadixScheme.power_of_two(3)
        state = BinState(scheme)
        out = admit_multistream(state, Request(0, 7))
        rng = np.random.default_rng(11)
        blocks = [random_symbols(rng, r.size) for r in out.allocation.ranges]
        specs = specs_for_allocation(out.allocation, blocks)
        assert [s.block_len for s in specs] == [4, 2, 1]
        x = multistream_time(specs)
        assert x.shape == (8,)
        claimed = frozenset().union(*(s.subcarriers for s in specs))
        assert claimed == out.allocation.subcarriers

    def test_block_count_must_match(self):
        scheme = RadixScheme.power_of_two(3)
        state = BinState(scheme)
        out = admit_multistream(state, Request(0, 6))
        with pytest.raises(ValueError):
            specs_for_allocation(out.allocation, [np.ones(6)])

    def test_block_sizes_must_match(self):
        scheme = RadixScheme.power_of_two(3)
        state = BinState(scheme)
        out = admit_multistream(state, Request(0, 6))
        with pytest.raises(ValueError):
            specs_for_allocation(out.allocation, [np.ones(4), np.ones(4)])
