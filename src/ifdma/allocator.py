"""Bin allocation for an interleaved-FDMA band.

Bins are bookkept as a buddy system over the scheme's allowed block
sizes, with one integer bitmask per level: bit k of level j is set when
the aligned block at ``k * block_sizes[j]`` is a *maximal* free block.
Whenever every child of a parent block is free the children are
coalesced, so the set bits are exactly the maximal free aligned ranges
at all times.  ``BinState.free_starts(level)`` reads one level in
increasing start order.  The bitmasks, ``groups`` (the ranges each
active request holds) and ``blocked`` are the whole state;
``free_count`` is derived from the bitmasks when it is read.

One core serves every policy.  ``BinState._split`` is the only split:
it frees every part of a claimed block except the chain of children
that leads to a target block, setting each level's ``fanout - 1``
sibling bits with one OR.  ``BinState._release_block`` is the only
coalesce; it tests a sibling group with one mask compare.  ``_commit``
is the only place a grant is recorded.

A single-block grant builds nothing.  A band has at most 2*M aligned
blocks, so each block's granted ``AdmissionOutcome`` and its immutable
``Allocation`` are built on the block's first grant and shared by every
later one.  The tables are built once per scheme, in a small cache, and
shared by every band of an equal scheme.  Only a multistream grant
gathered from several blocks builds a fresh record.

Admission policies for a single request of an allowed size:

* ``min_small_change`` takes the smallest adequate free block (ties by
  lowest start, the lowest set bit) and splits it keeping the
  lower-indexed child.
* ``random`` picks uniformly among the maximal free blocks of exactly
  the requested size: the r-th lowest set bit for one ``randrange`` draw
  r, made only when more than one such block is free.  Only when no
  exact-size block exists does it split: it draws one of the larger
  maximal blocks uniformly, in (level, start) order, and walks down with
  a uniform child choice at every level.

``place`` grants a request one given free aligned block.
``allocate_batch_sync`` admits a whole batch through ``min_small_change``,
either in arrival order or, for ``sort_first``, on a clean band in
descending size order, which packs the band left to right.
``admit_multistream`` serves a request of arbitrary size by gathering
several allowed-size blocks, so it never blocks on fragmentation; its
gather finds overload itself, when it runs out of free bins.
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache
from operator import mul
from random import Random
from typing import NamedTuple

from .mapping import (AlignedRange, RadixScheme, bin_for_subcarrier, range_to_subcarriers,
                      validate_range)

MIN_SMALL_CHANGE = "min_small_change"
RANDOM = "random"
SORT_FIRST = "sort_first"


class BatchRejected(Exception):
    """A synchronous batch exceeds capacity (or hit an unplaceable request)."""


class AdmissionStatus(enum.Enum):
    GRANTED = "granted"
    BLOCKED_OVERLOAD = "blocked_overload"
    BLOCKED_FRAGMENTATION = "blocked_fragmentation"


@dataclass(frozen=True, slots=True, eq=False)
class Allocation:
    """Bins granted to a request as aligned ranges; shared by every grant of one block."""

    ranges: tuple[AlignedRange, ...]
    scheme: RadixScheme

    @property
    def size(self) -> int:
        return sum(r.size for r in self.ranges)

    @property
    def subcarriers(self) -> frozenset[int]:
        out: frozenset[int] = frozenset()
        for r in self.ranges:
            out |= range_to_subcarriers(r, self.scheme)
        return out


class AdmissionOutcome(NamedTuple):
    status: AdmissionStatus
    allocation: Allocation | None = None

    @property
    def granted(self) -> bool:
        return self.allocation is not None  # only a grant carries an allocation


_BLOCKED_OVERLOAD = AdmissionOutcome(AdmissionStatus.BLOCKED_OVERLOAD)
_BLOCKED_FRAGMENTATION = AdmissionOutcome(AdmissionStatus.BLOCKED_FRAGMENTATION)


class _GrantTable(dict):
    """The granted outcome of every block of one level, built on first use."""

    __slots__ = ("scheme", "size")

    def __init__(self, scheme: RadixScheme, size: int):
        super().__init__()
        self.scheme = scheme
        self.size = size

    def __missing__(self, start: int) -> AdmissionOutcome:
        g = self[start] = AdmissionOutcome(
            AdmissionStatus.GRANTED, Allocation((AlignedRange(start, self.size),), self.scheme))
        return g


@lru_cache(maxsize=8)
def _grant_tables(scheme: RadixScheme) -> tuple[_GrantTable, ...]:
    """One grant table per level, shared by every band of an equal scheme."""
    return tuple(_GrantTable(scheme, size) for size in scheme.block_sizes)


class BinState:
    """Occupancy of one band: active allocations, blocked bins, free blocks."""

    __slots__ = ("scheme", "groups", "blocked",
                 "_masks", "_sizes", "_fanout", "_top", "_levels", "_grants")

    def __init__(self, scheme: RadixScheme, blocked_bins: tuple[int, ...] = ()):
        self.scheme = scheme
        self._sizes = scheme.block_sizes
        self._fanout = scheme.inner_radices
        self._top = scheme.levels
        self._levels = scheme.level_by_size
        self._grants = _grant_tables(scheme)
        # bit k of _masks[j]: the block at k * sizes[j] is a maximal free block
        self._masks = [0] * self._top + [1]
        self.groups: dict[int, tuple[AlignedRange, ...]] = {}
        self.blocked = frozenset(blocked_bins)
        for b in self.blocked:
            if type(b) is not int:
                raise ValueError(f"blocked bin {b!r} is not an int")
        for b in sorted(self.blocked):
            if not 0 <= b < scheme.size:
                raise ValueError(f"blocked bin {b} out of range for band size {scheme.size}")
            self._carve(b, 0)

    def clone(self) -> "BinState":
        other = BinState.__new__(BinState)
        other.scheme = self.scheme
        other._sizes = self._sizes
        other._fanout = self._fanout
        other._top = self._top
        other._levels = self._levels
        other._grants = self._grants
        other._masks = self._masks.copy()
        other.groups = dict(self.groups)
        other.blocked = self.blocked
        return other

    @property
    def free_count(self) -> int:
        return sum(map(mul, map(int.bit_count, self._masks), self._sizes))

    def free_starts(self, level: int) -> Iterator[int]:
        """Starts of the maximal free blocks of one level, in increasing order."""
        x = self._masks[level]
        size = self._sizes[level]
        while x:
            low = x & -x
            yield (low.bit_length() - 1) * size
            x ^= low

    # -- free-block surgery -----------------------------------------------

    def _carve(self, start: int, level: int) -> None:
        """Claim the aligned block [start, start + sizes[level]) out of free space."""
        sizes = self._sizes
        masks = self._masks
        for j in range(level, self._top + 1):
            bit = 1 << (start // sizes[j])
            if masks[j] & bit:
                masks[j] ^= bit
                self._split(j, level, start)
                return
        raise ValueError(
            f"bins [{start}, {start + sizes[level]}) are not entirely free"
        )

    def _split(self, j: int, level: int, target: int) -> None:
        """Free every part of a claimed level-j block but the level-``level`` one at target."""
        sizes = self._sizes
        fanout = self._fanout
        masks = self._masks
        for k in range(j - 1, level - 1, -1):
            f = fanout[k]
            t = target // sizes[k]  # the kept child; its siblings become free
            masks[k] |= (((1 << f) - 1) << (t - t % f)) ^ (1 << t)

    def _release_block(self, start: int, level: int) -> None:
        """Return one aligned block to the free blocks, coalescing full sibling groups."""
        masks = self._masks
        fanout = self._fanout
        j = level
        i = start // self._sizes[j]  # the block's bit
        while j < self._top:
            f = fanout[j]
            group = ((1 << f) - 1) << (i - i % f)
            x = masks[j] | (1 << i)
            if x & group != group:
                masks[j] = x
                return
            masks[j] = x ^ group
            i //= f
            j += 1
        masks[j] |= 1 << i

    # -- policy search ----------------------------------------------------

    def _take_min(self, n: int) -> int | None:
        masks = self._masks
        for j in range(n, self._top + 1):
            x = masks[j]
            if x:
                low = x & -x
                masks[j] = x ^ low
                start = (low.bit_length() - 1) * self._sizes[j]
                if j != n:
                    self._split(j, n, start)
                return start
        return None

    def _take_random(self, n: int, rng: Random) -> int | None:
        masks = self._masks
        sizes = self._sizes
        x = masks[n]
        if x:
            count = x.bit_count()
            r = rng.randrange(count) if count > 1 else 0
            j = n
        else:  # no exact-size block: draw one of the larger ones, in (level, start) order
            total = sum(masks[j].bit_count() for j in range(n + 1, self._top + 1))
            if not total:
                return None
            r = rng.randrange(total)
            j = n + 1
            while r >= (count := masks[j].bit_count()):
                r -= count
                j += 1
            x = masks[j]
        for _ in range(r):  # clear the r lowest set bits
            x &= x - 1
        low = x & -x
        masks[j] ^= low
        target = (low.bit_length() - 1) * sizes[j]
        if j != n:
            # draw the child of every level top-down first: that is the RNG draw order
            fanout = self._fanout
            for k in range(j - 1, n - 1, -1):
                target += rng.randrange(fanout[k]) * sizes[k]
            self._split(j, n, target)
        return target


def free_subsets(state: BinState) -> list[AlignedRange]:
    """Maximal free aligned ranges, in increasing start order."""
    out = [
        AlignedRange(start, size)
        for j, size in enumerate(state.scheme.block_sizes)
        for start in state.free_starts(j)
    ]
    out.sort(key=lambda r: r.start)
    return out


def _commit(state: BinState, request_id: int, outcome: AdmissionOutcome) -> AdmissionOutcome:
    """Record the grant of already-claimed ranges and return its outcome."""
    state.groups[request_id] = outcome.allocation.ranges
    return outcome


def _level(state: BinState, size: int) -> int:
    """The level of an allowed request size, or a ValueError that says what is wrong."""
    try:
        n = state._levels[size]
    except (KeyError, TypeError):  # TypeError: an unhashable size
        n = state.scheme.level_of(size)  # raises the ValueError that names the sizes
    if type(size) is not int:  # 2.0 and True hash like the sizes 2 and 1
        raise ValueError(f"request size must be an int, got {size!r}")
    return n


def admit(
    state: BinState,
    request_id: int,
    size: int,
    policy: str = MIN_SMALL_CHANGE,
    rng: Random | None = None,
) -> AdmissionOutcome:
    """Place request ``request_id`` of one allowed size, or report why it blocked."""
    n = state._levels.get(size) if type(size) is int else None
    if n is None:
        n = _level(state, size)  # raises the ValueError that says what is wrong
    if request_id in state.groups:
        raise ValueError(f"request id {request_id} is already active")
    if policy == MIN_SMALL_CHANGE:
        start = state._take_min(n)
    elif policy == RANDOM:
        if rng is None:
            raise ValueError("random policy requires an rng")
        start = state._take_random(n, rng)
    else:
        raise ValueError(f"unknown admission policy {policy!r}")
    if start is None:
        if state.free_count < size:
            return _BLOCKED_OVERLOAD
        return _BLOCKED_FRAGMENTATION
    return _commit(state, request_id, state._grants[n][start])


def place(state: BinState, request_id: int, size: int, start: int) -> Allocation:
    """Grant request ``request_id`` exactly the free aligned block of ``size`` at start."""
    if request_id in state.groups:
        raise ValueError(f"request id {request_id} is already active")
    validate_range(AlignedRange(start, size), state.scheme)
    n = state._levels[size]
    state._carve(start, n)
    return _commit(state, request_id, state._grants[n][start]).allocation


def release(state: BinState, request_id: int) -> None:
    """Free all bins held by an active request."""
    ranges = state.groups.pop(request_id, None)
    if ranges is None:
        raise ValueError(f"request id {request_id} is not active")
    levels = state._levels  # every held range has an allowed size
    for r in ranges:
        state._release_block(r.start, levels[r.size])


def admit_multistream(state: BinState, request_id: int, size: int) -> AdmissionOutcome:
    """Serve request ``request_id`` of any size as several allowed-size streams.

    Gathers largest-fitting blocks first (ties by lowest start).  When
    every free block is larger than the remaining need, it takes what
    ``min_small_change`` would for the largest size that fits: the lowest
    of the smallest larger blocks, split keeping its lowest child.
    Grants whenever enough bins are free, so fragmentation never blocks.
    Otherwise it hands back what it gathered, which restores the band exactly.
    """
    if type(size) is not int:
        raise ValueError(f"request size must be an int, got {size!r}")
    sizes = state._sizes
    if not 1 <= size <= sizes[-1]:
        raise ValueError(f"request size {size} out of range for band size {sizes[-1]}")
    if request_id in state.groups:
        raise ValueError(f"request id {request_id} is already active")
    masks = state._masks
    grants = state._grants
    remaining = size
    taken: list[AdmissionOutcome] = []
    while remaining:
        fit = bisect_right(sizes, remaining) - 1  # the largest size <= remaining
        j = fit
        while j >= 0 and not masks[j]:
            j -= 1
        if j < 0:  # only larger blocks are free: split one as min_small_change would
            j = fit
        start = state._take_min(j)
        if start is None:  # no bin is free: fewer than size were
            for g in taken:
                (r,) = g.allocation.ranges
                state._release_block(r.start, state._levels[r.size])
            return _BLOCKED_OVERLOAD
        taken.append(grants[j][start])
        remaining -= sizes[j]
    if len(taken) == 1:
        return _commit(state, request_id, taken[0])
    ranges = sorted((g.allocation.ranges[0] for g in taken), key=lambda r: r.start)
    return _commit(state, request_id, AdmissionOutcome(
        AdmissionStatus.GRANTED, Allocation(tuple(ranges), state.scheme)))


def allocate_batch_sync(
    state: BinState, sizes: list[int], policy: str = SORT_FIRST
) -> list[Allocation]:
    """Place a whole batch on ``state``; request i has size ``sizes[i]`` and id i.

    Returns the allocations in input order.  Both policies admit every
    request through ``min_small_change``.  ``min_small_change`` admits in
    list order, which also works on a band holding blocked bins.
    ``sort_first`` needs a band with no bin in use and admits in
    descending size order (ties by position).  That order packs the band
    left to right: once the larger requests fill [0, pos), pos is a
    multiple of the next size and the maximal free blocks grow from left
    to right, so the smallest adequate block with the lowest start is the
    one at pos.  A batch whose total size exceeds the free capacity raises
    BatchRejected.
    """
    if policy not in (SORT_FIRST, MIN_SMALL_CHANGE):
        raise ValueError(f"unknown batch policy {policy!r}")
    for size in sizes:
        _level(state, size)
    total = sum(sizes)
    free = state.free_count
    if total > free:
        raise BatchRejected(f"batch needs {total} bins but only {free} of "
                            f"{state.scheme.size} are free")
    order = range(len(sizes))
    if policy == SORT_FIRST:
        if free != state.scheme.size:
            raise ValueError("sort_first packs a clean band and cannot honour bins in use")
        order = sorted(order, key=lambda i: -sizes[i])
    out: list[Allocation | None] = [None] * len(sizes)
    for i in order:
        outcome = admit(state, i, sizes[i], MIN_SMALL_CHANGE)
        if outcome.allocation is None:
            raise BatchRejected(f"request {i} of size {sizes[i]} blocked "
                                f"({outcome.status.value}) despite capacity check")
        out[i] = outcome.allocation
    return out


def dcr_state(scheme: RadixScheme, dc_subcarrier: int) -> BinState:
    """A band with the bin that maps to the DC subcarrier pre-blocked."""
    return BinState(scheme, blocked_bins=(bin_for_subcarrier(dc_subcarrier, scheme),))


def check_consistency(state: BinState) -> None:
    """Validate every structural invariant of a BinState (test/debug helper)."""
    scheme = state.scheme
    m_bits = scheme.size
    occ = 0
    for rid, ranges in state.groups.items():
        for r in ranges:
            scheme.level_of(r.size)
            if r.stop > m_bits:
                raise AssertionError(f"group {rid} range {r} exceeds band")
            mask = ((1 << r.size) - 1) << r.start
            if occ & mask:
                raise AssertionError(f"group {rid} range {r} overlaps another allocation")
            occ |= mask
    for b in state.blocked:
        mask = 1 << b
        if occ & mask:
            raise AssertionError(f"blocked bin {b} overlaps an allocation")
        occ |= mask
    seen = 0
    for j, size in enumerate(state._sizes):
        starts = set(state.free_starts(j))
        for start in starts:
            if start + size > m_bits:
                raise AssertionError(f"free block {start}/{size} lies beyond the band")
            mask = ((1 << size) - 1) << start
            if mask & occ:
                raise AssertionError(f"free block {start}/{size} overlaps a held bin")
            if mask & seen:
                raise AssertionError(f"free block {start}/{size} overlaps another free block")
            seen |= mask
            if j < state._top:
                parent = start - start % state._sizes[j + 1]
                siblings = {parent + c * size for c in range(state._fanout[j])}
                if siblings <= starts:
                    raise AssertionError(f"free block {start}/{size} not coalesced")
    if seen | occ != (1 << m_bits) - 1:
        raise AssertionError("free blocks plus held bins do not cover the band")
