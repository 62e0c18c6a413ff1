"""Bin-to-subcarrier index maps for interleaved FDMA.

A band of M subcarriers is addressed through M logical bins.  Bin k is
mapped to a subcarrier by reversing the digits of k in a mixed-radix
positional system.  When M = 2**m every radix is 2 and the map is the
classic bit-reversal permutation; for composite M = p_{T-1} * ... * p_0
it is the digit-reversal permutation of that factorization.

Digit conventions, fixed once here and relied on everywhere else:

* ``radices`` lists the factors most-significant first, so the innermost
  (least-significant) radix p_0 is the *last* entry.
* Bin digits are extracted least-significant first: d_0 = k mod p_0,
  d_1 = (k // p_0) mod p_1, and so on.
* The reversed digit string d_0 d_1 ... d_{T-1} is read back in the
  positional system whose radices are, left to right, p_0, p_1, ...,
  p_{T-1}; digit d_t therefore carries weight prod(p_u for u > t).

With these conventions a contiguous run of bins that starts at a
multiple of an allowed size N maps onto N evenly spaced subcarriers
{d + i*M/N : 0 <= i < N}, which is what makes bin bookkeeping a proxy
for interleaved subcarrier assignment.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

MAX_BAND = 1 << 20  # refuse absurd band sizes before building O(M) tables
MAX_M = MAX_BAND.bit_length() - 1  # largest m whose band 2**m fits the cap


def bit_reverse(k: int, m: int) -> int:
    """Reverse the m-bit binary representation of k."""
    if m < 0:
        raise ValueError(f"bit width must be >= 0, got {m}")
    if not 0 <= k < (1 << m):
        raise ValueError(f"index {k} out of range for {m} bits")
    r = 0
    for _ in range(m):
        r = (r << 1) | (k & 1)
        k >>= 1
    return r


@dataclass(frozen=True)
class RadixScheme:
    """Factorization of the band size M, most-significant radix first."""

    radices: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(p < 2 for p in self.radices):
            raise ValueError(f"radices must all be >= 2, got {self.radices}")
        size = 1
        for p in self.radices:  # stop early: the whole product may be huge
            size *= p
            if size > MAX_BAND:
                raise ValueError(f"band size exceeds cap {MAX_BAND}")

    @classmethod
    def power_of_two(cls, m: int) -> "RadixScheme":
        if not 0 <= m <= MAX_M:
            raise ValueError(f"m must be in 0..{MAX_M} (band size cap {MAX_BAND}), got {m}")
        return cls(radices=(2,) * m)

    @property
    def size(self) -> int:
        """Number of subcarriers M."""
        return self.block_sizes[-1]

    @property
    def levels(self) -> int:
        """Number of digit positions T."""
        return len(self.radices)

    @cached_property
    def is_power_of_two(self) -> bool:
        return all(p == 2 for p in self.radices)

    @cached_property
    def inner_radices(self) -> tuple[int, ...]:
        """Radices least-significant first: (p_0, p_1, ..., p_{T-1})."""
        return tuple(reversed(self.radices))

    @cached_property
    def block_sizes(self) -> tuple[int, ...]:
        """Allowed block sizes in increasing order: (1, p_0, p_0*p_1, ..., M)."""
        sizes = [1]
        for p in self.inner_radices:
            sizes.append(sizes[-1] * p)
        return tuple(sizes)

    @cached_property
    def reversal_weights(self) -> tuple[int, ...]:
        """Weight of digit d_t in the reversed string: prod(p_u for u > t)."""
        weights = [1]
        for p in reversed(self.inner_radices[1:]):
            weights.append(weights[-1] * p)
        weights.reverse()
        return tuple(weights)

    @cached_property
    def _level_by_size(self) -> dict[int, int]:
        return {size: j for j, size in enumerate(self.block_sizes)}

    def level_of(self, size: int) -> int:
        """Index j with block_sizes[j] == size, or ValueError."""
        try:
            return self._level_by_size[size]
        except (KeyError, TypeError):  # TypeError: an unhashable size
            raise ValueError(
                f"size {size} is not fillable under radices {self.radices}; "
                f"allowed sizes are {self.block_sizes}"
            ) from None


def digit_reverse(k: int, scheme: RadixScheme) -> int:
    """Map bin k to its subcarrier by mixed-radix digit reversal."""
    if not 0 <= k < scheme.size:
        raise ValueError(f"bin {k} out of range for band size {scheme.size}")
    s = 0
    for p, w in zip(scheme.inner_radices, scheme.reversal_weights):
        s += (k % p) * w
        k //= p
    return s


def bin_for_subcarrier(s: int, scheme: RadixScheme) -> int:
    """Inverse of digit_reverse: the bin whose image is subcarrier s."""
    if not 0 <= s < scheme.size:
        raise ValueError(f"subcarrier {s} out of range for band size {scheme.size}")
    k = 0
    unit = 1
    for p, w in zip(scheme.inner_radices, scheme.reversal_weights):
        k += ((s // w) % p) * unit
        unit *= p
    return k


def bin_digits(k: int, scheme: RadixScheme) -> tuple[int, ...]:
    """Digits of bin k, most-significant first (as written in an index table)."""
    if not 0 <= k < scheme.size:
        raise ValueError(f"bin {k} out of range for band size {scheme.size}")
    digits = []
    for p in scheme.inner_radices:
        digits.append(k % p)
        k //= p
    return tuple(reversed(digits))


@dataclass(frozen=True)
class AlignedRange:
    """A run of bins [start, start+size) starting on a multiple of its size."""

    start: int
    size: int

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError(f"range size must be >= 1, got {self.size}")
        if self.start < 0:
            raise ValueError(f"range start must be >= 0, got {self.start}")
        if self.start % self.size:
            raise ValueError(f"range start {self.start} not aligned to size {self.size}")

    @property
    def stop(self) -> int:
        return self.start + self.size

    def bins(self) -> range:
        return range(self.start, self.stop)


def validate_range(r: AlignedRange, scheme: RadixScheme) -> None:
    """Check that r is a fillable block of the scheme (size allowed, in band)."""
    scheme.level_of(r.size)
    if r.stop > scheme.size:
        raise ValueError(f"range [{r.start}, {r.stop}) exceeds band size {scheme.size}")


def range_to_subcarriers(r: AlignedRange, scheme: RadixScheme) -> frozenset[int]:
    """Subcarriers hit by an aligned range: {d + i*M/N} with spacing M/N."""
    validate_range(r, scheme)
    return frozenset(digit_reverse(k, scheme) for k in r.bins())


def subcarrier_shift(r: AlignedRange, scheme: RadixScheme) -> int:
    """The offset d of the evenly spaced image {d + i*M/N} of an aligned range."""
    validate_range(r, scheme)
    return digit_reverse(r.start, scheme) % (scheme.size // r.size)
