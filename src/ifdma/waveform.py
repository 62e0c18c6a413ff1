"""Time-domain synthesis of interleaved subcarrier streams.

A stream that holds the N evenly spaced subcarriers {d + i*M/N} of an
M-subcarrier band transmits its length-N symbol block x as

    x'[l] = (N/M) * exp(2j*pi*l*d/M) * x[l mod N],     0 <= l < M

i.e. N/M-scaled repetition of the block with a phase ramp set by the
offset d.  Because this never mixes symbols, constant-modulus (PSK)
blocks keep a constant envelope.  ``stream_freq_oracle`` computes the
same signal the long way round (DFT of the block, placement on the
interleaved subcarriers, inverse DFT of the band) and is used to
cross-check the direct form to floating-point accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .allocator import Allocation
from .mapping import subcarrier_shift


@dataclass(frozen=True, eq=False)
class StreamSpec:
    """One stream: a symbol block plus its band placement (M total, offset d)."""

    symbols: np.ndarray
    band_size: int
    shift: int

    def __post_init__(self) -> None:
        x = np.asarray(self.symbols, dtype=np.complex128)
        object.__setattr__(self, "symbols", x)
        n = x.shape[0] if x.ndim == 1 else -1
        if n < 1:
            raise ValueError("symbol block must be a non-empty 1-d array")
        if self.band_size < 1 or self.band_size % n:
            raise ValueError(
                f"block length {n} must divide the band size {self.band_size}"
            )
        if not 0 <= self.shift < self.band_size // n:
            raise ValueError(
                f"shift {self.shift} out of range [0, {self.band_size // n}) "
                f"for block length {n}"
            )

    @property
    def block_len(self) -> int:
        return self.symbols.shape[0]

    @property
    def subcarriers(self) -> frozenset[int]:
        spacing = self.band_size // self.block_len
        return frozenset(self.shift + i * spacing for i in range(self.block_len))


def stream_time(spec: StreamSpec) -> np.ndarray:
    """Direct time-domain synthesis: scaled block repetition with a phase ramp.

    Sample l = q*N + r splits its ramp as exp(2j*pi*r*d/M) times
    exp(2j*pi*q*N*d/M), so the signal is the outer product of the M/N
    per-repetition steps with one ramped block, and only N + M/N phases
    are computed.
    """
    n, m, d = spec.block_len, spec.band_size, spec.shift
    block = (n / m) * spec.symbols * np.exp(2j * np.pi * d * np.arange(n) / m)
    step = np.exp(2j * np.pi * n * d * np.arange(m // n) / m)
    return np.outer(step, block).ravel()


def stream_freq_oracle(spec: StreamSpec) -> np.ndarray:
    """Reference synthesis through the frequency domain.

    Forward DFT of the symbol block, coefficients placed on the stream's
    subcarriers, then a 1/M-normalized inverse DFT of the whole band.
    """
    n, m = spec.block_len, spec.band_size
    coeffs = np.fft.fft(spec.symbols)
    band = np.zeros(m, dtype=np.complex128)
    band[spec.shift :: m // n] = coeffs
    return np.fft.ifft(band)


def multistream_time(specs: list[StreamSpec]) -> np.ndarray:
    """Sum of several streams of one band; their subcarrier sets must not overlap."""
    if not specs:
        raise ValueError("need at least one stream")
    m = specs[0].band_size
    if any(s.band_size != m for s in specs):
        raise ValueError("all streams must share one band size")
    total = 0
    claimed: set[int] = set()
    for s in specs:
        subs = s.subcarriers
        if claimed & subs:
            raise ValueError("streams overlap on subcarriers")
        claimed |= subs
        total = total + stream_time(s)
    return total


def specs_for_allocation(alloc: Allocation, symbol_blocks: list[np.ndarray]) -> list[StreamSpec]:
    """Build one StreamSpec per aligned range of an allocation.

    symbol_blocks[i] carries the symbols for ranges[i] and must match its
    size.  The ranges of one allocation occupy disjoint evenly spaced
    subcarrier sets, so the result feeds multistream_time directly.
    """
    scheme = alloc.scheme
    if len(symbol_blocks) != len(alloc.ranges):
        raise ValueError(
            f"got {len(symbol_blocks)} symbol blocks for {len(alloc.ranges)} ranges"
        )
    out = []
    for r, block in zip(alloc.ranges, symbol_blocks):
        block = np.asarray(block, dtype=np.complex128)
        if block.shape != (r.size,):
            raise ValueError(f"symbol block shape {block.shape} does not match range size {r.size}")
        out.append(
            StreamSpec(symbols=block, band_size=scheme.size, shift=subcarrier_shift(r, scheme))
        )
    return out
