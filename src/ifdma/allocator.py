"""Bin allocation for an interleaved-FDMA band.

Bins are bookkept as a buddy system over the scheme's allowed block
sizes.  ``free[j]`` holds the start indexes of the *maximal* free
aligned blocks of size ``block_sizes[j]``: whenever every child of a
parent block is free the children are coalesced, so the free lists are
exactly the maximal free aligned ranges at all times.  The free lists,
``groups`` (the ranges each active request holds) and ``blocked`` are
the whole state, plus ``free_count``, a counter of free bins that
``check_consistency`` verifies against ``groups`` and ``blocked``.

One core serves every policy.  ``BinState._split`` is the only split:
it frees every part of a claimed block except the chain of children
that leads to a target block.  ``BinState._release_block`` is the only
coalesce.  ``_commit`` is the only place a grant is recorded.

A grant builds little per event.  A band has at most 2*M aligned
blocks, so ``BinState`` builds the ``AlignedRange`` of each block the
first time it is granted and hands out that same immutable record
afterwards; clones share the table.  Levels are read from the scheme's
``level_by_size`` map, and an ``AdmissionOutcome`` is a named tuple.

Admission policies for a single request of an allowed size:

* ``min_small_change`` takes the smallest adequate free block (ties by
  lowest start) and splits it keeping the lower-indexed child.
* ``random`` picks uniformly among the maximal free blocks of exactly
  the requested size.  Only when no exact-size block exists does it
  split: it draws one of the larger maximal blocks uniformly and walks
  down with a uniform child choice at every level.

``place`` grants a request one given free aligned block.
``allocate_batch_sync`` admits a whole batch through ``min_small_change``,
either in arrival order or, for ``sort_first``, on a clean band in
descending size order, which packs the band left to right.
``admit_multistream`` serves a request of arbitrary size by gathering
several allowed-size blocks, so it never blocks on fragmentation.
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from random import Random
from typing import NamedTuple

from .mapping import AlignedRange, RadixScheme, bin_for_subcarrier, range_to_subcarriers

MIN_SMALL_CHANGE = "min_small_change"
RANDOM = "random"
SORT_FIRST = "sort_first"


class BatchRejected(Exception):
    """A synchronous batch exceeds capacity (or hit an unplaceable request)."""


class AdmissionStatus(enum.Enum):
    GRANTED = "granted"
    BLOCKED_OVERLOAD = "blocked_overload"
    BLOCKED_FRAGMENTATION = "blocked_fragmentation"


@dataclass(eq=False)
class Allocation:
    """Bins granted to one request, as one or more aligned ranges."""

    request_id: int
    ranges: tuple[AlignedRange, ...]
    scheme: RadixScheme

    @property
    def size(self) -> int:
        return sum(r.size for r in self.ranges)

    @cached_property
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


class _RangeTable(dict):
    """The ``AlignedRange`` of every block of one level, built on first use."""

    __slots__ = ("size",)

    def __init__(self, size: int):
        super().__init__()
        self.size = size

    def __missing__(self, start: int) -> AlignedRange:
        r = self[start] = AlignedRange(start, self.size)
        return r


class BinState:
    """Occupancy of one band: active allocations, blocked bins, free lists."""

    __slots__ = ("scheme", "free", "free_count", "groups", "blocked",
                 "_sizes", "_fanout", "_top", "_levels", "_ranges")

    def __init__(self, scheme: RadixScheme, blocked_bins: tuple[int, ...] = ()):
        self.scheme = scheme
        self._sizes = scheme.block_sizes
        self._fanout = scheme.inner_radices
        self._top = scheme.levels
        self._levels = scheme.level_by_size
        self._ranges = tuple(_RangeTable(size) for size in self._sizes)
        self.free: list[set[int]] = [set() for _ in range(self._top + 1)]
        self.free[self._top].add(0)
        self.free_count = scheme.size
        self.groups: dict[int, tuple[AlignedRange, ...]] = {}
        self.blocked = frozenset(blocked_bins)
        for b in self.blocked:
            if type(b) is not int:
                raise ValueError(f"blocked bin {b!r} is not an int")
        for b in sorted(self.blocked):
            if not 0 <= b < scheme.size:
                raise ValueError(f"blocked bin {b} out of range for band size {scheme.size}")
            self._carve(b, 0)
            self.free_count -= 1

    def clone(self) -> "BinState":
        other = BinState.__new__(BinState)
        other.scheme = self.scheme
        other._sizes = self._sizes
        other._fanout = self._fanout
        other._top = self._top
        other._levels = self._levels
        other._ranges = self._ranges
        other.free = [set(fs) for fs in self.free]
        other.free_count = self.free_count
        other.groups = dict(self.groups)
        other.blocked = self.blocked
        return other

    # -- free-list surgery ------------------------------------------------

    def _carve(self, start: int, level: int) -> None:
        """Claim the aligned block [start, start + sizes[level]) out of free space."""
        sizes = self._sizes
        free = self.free
        for j in range(level, self._top + 1):
            block = start - start % sizes[j]
            if block in free[j]:
                free[j].discard(block)
                self._split(j, block, level, start)
                return
        raise ValueError(
            f"bins [{start}, {start + sizes[level]}) are not entirely free"
        )

    def _split(self, j: int, block: int, level: int, target: int) -> None:
        """Free every part of a claimed level-j block but the level-``level`` one at target."""
        sizes = self._sizes
        fanout = self._fanout
        free = self.free
        s = block
        for k in range(j - 1, level - 1, -1):
            step = sizes[k]
            idx = (target - s) // step
            add = free[k].add
            for c in range(fanout[k]):
                if c != idx:
                    add(s + c * step)
            s += idx * step

    def _release_block(self, start: int, level: int) -> None:
        """Return one aligned block to the free lists, coalescing full sibling sets."""
        free = self.free
        sizes = self._sizes
        fanout = self._fanout
        j = level
        s = start
        while j < self._top:
            parent = s - s % sizes[j + 1]
            fs = free[j]
            step = sizes[j]
            merged = True
            for c in range(fanout[j]):
                sib = parent + c * step
                if sib != s and sib not in fs:
                    merged = False
                    break
            if not merged:
                fs.add(s)
                return
            for c in range(fanout[j]):
                sib = parent + c * step
                if sib != s:
                    fs.discard(sib)
            s = parent
            j += 1
        free[self._top].add(s)

    # -- policy search ----------------------------------------------------

    def _take_min(self, n: int) -> int | None:
        free = self.free
        for j in range(n, self._top + 1):
            fs = free[j]
            if fs:
                start = min(fs)
                fs.discard(start)
                self._split(j, start, n, start)
                return start
        return None

    def _take_random(self, n: int, rng: Random) -> int | None:
        free = self.free
        fs = free[n]
        if fs:
            if len(fs) == 1:
                start = next(iter(fs))
            else:
                start = sorted(fs)[rng.randrange(len(fs))]
            fs.discard(start)
            return start
        pooled = [(j, b) for j in range(n + 1, self._top + 1) for b in sorted(free[j])]
        if not pooled:
            return None
        j, block = pooled[rng.randrange(len(pooled))]
        free[j].discard(block)
        # draw the child of every level top-down first: that is the RNG draw order
        sizes = self._sizes
        fanout = self._fanout
        target = block
        for k in range(j - 1, n - 1, -1):
            target += rng.randrange(fanout[k]) * sizes[k]
        self._split(j, block, n, target)
        return target


def free_subsets(state: BinState) -> list[AlignedRange]:
    """Maximal free aligned ranges, in increasing start order."""
    out = [
        AlignedRange(start, state._sizes[j])
        for j, fs in enumerate(state.free)
        for start in fs
    ]
    out.sort(key=lambda r: r.start)
    return out


def _commit(
    state: BinState, request_id: int, ranges: tuple[AlignedRange, ...], size: int
) -> AdmissionOutcome:
    """Record a grant of already-claimed ranges and build its outcome."""
    state.groups[request_id] = ranges
    state.free_count -= size
    return AdmissionOutcome(
        AdmissionStatus.GRANTED, Allocation(request_id, ranges, state.scheme)
    )


def admit(
    state: BinState,
    request_id: int,
    size: int,
    policy: str = MIN_SMALL_CHANGE,
    rng: Random | None = None,
) -> AdmissionOutcome:
    """Place request ``request_id`` of one allowed size, or report why it blocked."""
    try:
        n = state._levels[size]
    except (KeyError, TypeError):  # TypeError: an unhashable size
        n = state.scheme.level_of(size)  # raises the ValueError that names the sizes
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
    return _commit(state, request_id, (state._ranges[n][start],), size)


def place(state: BinState, request_id: int, size: int, start: int) -> Allocation:
    """Grant request ``request_id`` exactly the free aligned block of ``size`` at start."""
    if request_id in state.groups:
        raise ValueError(f"request id {request_id} is already active")
    r = AlignedRange(start, size)
    state._carve(start, state.scheme.level_of(size))
    return _commit(state, request_id, (r,), size).allocation


def release(state: BinState, request_id: int) -> None:
    """Free all bins held by an active request."""
    ranges = state.groups.pop(request_id, None)
    if ranges is None:
        raise ValueError(f"request id {request_id} is not active")
    levels = state._levels  # every held range has an allowed size
    for r in ranges:
        state.free_count += r.size
        state._release_block(r.start, levels[r.size])


def admit_multistream(state: BinState, request_id: int, size: int) -> AdmissionOutcome:
    """Serve request ``request_id`` of any size as several allowed-size streams.

    Gathers largest-fitting blocks first (ties by lowest start).  When
    every free block is larger than the remaining need, it takes what
    ``min_small_change`` would for the largest size that fits: the lowest
    of the smallest larger blocks, split keeping its lowest child.
    Grants whenever enough bins are free, so fragmentation never blocks.
    """
    if type(size) is not int:
        raise ValueError(f"request size must be an int, got {size!r}")
    if not 1 <= size <= state.scheme.size:
        raise ValueError(f"request size {size} out of range for band size {state.scheme.size}")
    if request_id in state.groups:
        raise ValueError(f"request id {request_id} is already active")
    if state.free_count < size:
        return _BLOCKED_OVERLOAD
    free = state.free
    sizes = state._sizes
    ranges = state._ranges
    remaining = size
    taken: list[AlignedRange] = []
    while remaining:
        fit = bisect_right(sizes, remaining) - 1  # the largest size <= remaining
        j = fit
        while j >= 0 and not free[j]:
            j -= 1
        if j < 0:  # only larger blocks are free: split one as min_small_change would
            j = fit
        start = state._take_min(j)
        taken.append(ranges[j][start])
        remaining -= sizes[j]
    if len(taken) > 1:
        taken.sort(key=lambda r: r.start)
    return _commit(state, request_id, tuple(taken), size)


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
    for size in sizes:
        state.scheme.level_of(size)
    total = sum(sizes)
    if total > state.free_count:
        raise BatchRejected(
            f"batch needs {total} bins but only {state.free_count} of "
            f"{state.scheme.size} are free"
        )
    order = range(len(sizes))
    if policy == SORT_FIRST:
        if state.free_count != state.scheme.size:
            raise ValueError("sort_first packs a clean band and cannot honour bins in use")
        order = sorted(order, key=lambda i: -sizes[i])
    elif policy != MIN_SMALL_CHANGE:
        raise ValueError(f"unknown batch policy {policy!r}")
    out: list[Allocation | None] = [None] * len(sizes)
    for i in order:
        outcome = admit(state, i, sizes[i], MIN_SMALL_CHANGE)
        if outcome.allocation is None:
            raise BatchRejected(
                f"request {i} of size {sizes[i]} blocked "
                f"({outcome.status.value}) despite capacity check"
            )
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
    used = 0
    for rid, ranges in state.groups.items():
        for r in ranges:
            scheme.level_of(r.size)
            if r.stop > m_bits:
                raise AssertionError(f"group {rid} range {r} exceeds band")
            mask = ((1 << r.size) - 1) << r.start
            if occ & mask:
                raise AssertionError(f"group {rid} range {r} overlaps another allocation")
            occ |= mask
            used += r.size
    for b in state.blocked:
        mask = 1 << b
        if occ & mask:
            raise AssertionError(f"blocked bin {b} overlaps an allocation")
        occ |= mask
        used += 1
    if state.free_count != m_bits - used:
        raise AssertionError("free_count disagrees with groups plus blocked bins")
    seen = 0
    for j, fs in enumerate(state.free):
        size = state._sizes[j]
        for start in fs:
            if start % size:
                raise AssertionError(f"free block {start}/{size} misaligned")
            mask = ((1 << size) - 1) << start
            if mask & occ:
                raise AssertionError(f"free block {start}/{size} overlaps a held bin")
            if mask & seen:
                raise AssertionError(f"free block {start}/{size} overlaps another free block")
            seen |= mask
            if j < state._top:
                parent = start - start % state._sizes[j + 1]
                siblings = {parent + c * size for c in range(state._fanout[j])}
                if siblings <= fs:
                    raise AssertionError(f"free block {start}/{size} not coalesced")
    if seen | occ != (1 << m_bits) - 1:
        raise AssertionError("free lists plus held bins do not cover the band")
