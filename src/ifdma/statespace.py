"""State space of a power-of-two band under buddy-style allocation.

A state is a binary tree over the band: a node covers an aligned block,
and is either entirely free (``F``), held by a single allocation
(``O``), or split into two half-blocks.  A split never has two free
children, because free buddies coalesce.  Trees are encoded as strings:
``F``, ``O``, or ``(LR)`` for a split with child encodings L and R.

Two trees that differ only by swapping children (recursively) behave
identically up to relabeling, so they form one super state;
``enumerate_super`` counts them by a canonical form that orders every
child pair lexicographically.  A split's canonical form depends only on
its children's, so each level is built from the distinct forms of the
level below, never from the fine states.

``reachable_states`` searches admit/release transitions from the empty
band once, keying each state by the ranges it holds, and derives the
arrival-only states as the closure of the arrival edges it recorded.

The number of states explodes doubly exponentially:

    f(0) = 2,  f(m) = f(m-1)**2 + 1          (fine states)
    g(0) = 2,  g(m) = g(m-1)(g(m-1)+1)/2 + 1 (super states)

so enumeration is capped at m = 4 and policy reachability at m = 3.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .allocator import MIN_SMALL_CHANGE, RANDOM, BinState, admit, place, release
from .mapping import AlignedRange, RadixScheme

FINE_ENUM_CAP = 4
REACHABLE_CAP = 3

FREE = "F"
OCCUPIED = "O"


def f_rec(m: int) -> int:
    """Fine-state count by recurrence: f(0) = 2, f(m) = f(m-1)**2 + 1."""
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    f = 2
    for _ in range(m):
        f = f * f + 1
    return f


def g_rec(m: int) -> int:
    """Super-state count by recurrence: g(0) = 2, g(m) = g(m-1)(g(m-1)+1)/2 + 1."""
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    g = 2
    for _ in range(m):
        g = g * (g + 1) // 2 + 1
    return g


def fine_states(m: int) -> list[str]:
    """Every valid state tree of depth m, built bottom-up."""
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    if m > FINE_ENUM_CAP:
        raise ValueError(f"enumeration is capped at m={FINE_ENUM_CAP} (f(m) grows as 2**2**m)")
    states = [FREE, OCCUPIED]
    for _ in range(m):
        states = [FREE, OCCUPIED] + [
            f"({l}{r})"
            for l in states
            for r in states
            if not (l == FREE and r == FREE)
        ]
    return states


def enumerate_fine(m: int) -> int:
    """Count fine states by explicit construction (checking for duplicates)."""
    states = fine_states(m)
    distinct = len(set(states))
    if distinct != len(states):
        raise AssertionError("fine-state construction produced duplicates")
    return distinct


def enumerate_super(m: int) -> int:
    """Count super states by building the distinct canonical forms level by level.

    A split of two subtrees with canonical forms a <= b has canonical
    form ``(ab)``, so the forms of depth k + 1 are F, O and every ordered
    pair of depth-k forms except (FF).
    """
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    if m > FINE_ENUM_CAP:
        raise ValueError(f"enumeration is capped at m={FINE_ENUM_CAP}")
    canons = {FREE, OCCUPIED}
    for _ in range(m):
        below = sorted(canons)
        canons = {FREE, OCCUPIED}
        canons.update(f"({a}{b})" for i, a in enumerate(below) for b in below[i:])
        canons.discard(f"({FREE}{FREE})")
    return len(canons)


def state_tree(state: BinState) -> str:
    """Encode a BinState as a state tree (blocked bins count as occupied).

    A node is free iff it is a maximal free block, because the free
    lists hold exactly the maximal free blocks and the encoding stops at
    the first free ancestor.
    """
    scheme = state.scheme
    if not scheme.is_power_of_two:
        raise ValueError("state trees are defined for power-of-two bands")
    held = {r.start: r.size for ranges in state.groups.values() for r in ranges}
    for b in state.blocked:
        held[b] = 1
    free = state.free

    def enc(start: int, level: int) -> str:
        if start in free[level]:
            return FREE
        size = 1 << level
        if held.get(start) == size:
            return OCCUPIED
        half = size // 2
        return f"({enc(start, level - 1)}{enc(start + half, level - 1)})"

    return enc(0, scheme.levels)


@dataclass(frozen=True)
class ReachabilityReport:
    m: int
    policy: str
    total: int
    arrival_reachable: frozenset[str]
    departure_only: frozenset[str]


def _arrivals(state: BinState, policy: str) -> Iterator[AlignedRange]:
    """Admit every size at every placement the policy allows, one at a time.

    Each admission is applied to ``state`` itself and yielded as its
    range, then released before the next one; free lists hold exactly the
    maximal free blocks, so the release restores the state exactly.
    """
    m = state.scheme.levels
    rid = max(state.groups, default=-1) + 1
    if policy == MIN_SMALL_CHANGE:
        for n in range(m + 1):
            outcome = admit(state, rid, 1 << n, MIN_SMALL_CHANGE)
            if outcome.granted:
                yield outcome.allocation.ranges[0]
                release(state, rid)
    elif policy == RANDOM:
        free = state.free
        for n in range(m + 1):
            size = 1 << n
            if free[n]:
                starts = sorted(free[n])
            else:
                # every aligned free block of this size inside a larger free block
                starts = sorted(
                    start + k * size
                    for j in range(n + 1, m + 1)
                    for start in free[j]
                    for k in range(1 << (j - n))
                )
            for start in starts:
                yield place(state, rid, size, start).ranges[0]
                release(state, rid)
    else:
        raise ValueError(f"unknown admission policy {policy!r}")


def reachable_states(m: int, policy: str = MIN_SMALL_CHANGE) -> ReachabilityReport:
    """Search admit/release transitions from the empty band, once.

    A state is keyed by the set of ``(start, size)`` of its held ranges,
    which fixes the tree over the band.  A state is cloned only when a
    transition reaches a new key: an arrival is tried on the state itself
    and undone, and a departure's key is its parent's minus the released
    ranges.  The arrival edges are recorded on the way, and the states an
    arrival-only history can produce are their closure from the empty
    band; the rest need at least one departure.
    """
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    if m > REACHABLE_CAP:
        raise ValueError(f"reachability search is capped at m={REACHABLE_CAP}")
    empty = frozenset()
    states = {empty: BinState(RadixScheme.power_of_two(m))}
    arrival_edges = {}
    todo = [empty]
    while todo:
        key = todo.pop()
        state = states[key]
        edges = arrival_edges[key] = []
        for r in _arrivals(state, policy):
            nxt = key | {(r.start, r.size)}
            edges.append(nxt)
            if nxt not in states:
                states[nxt] = state.clone()
                todo.append(nxt)
        for rid, ranges in state.groups.items():
            nxt = key - {(r.start, r.size) for r in ranges}
            if nxt not in states:
                states[nxt] = after = state.clone()
                release(after, rid)
                todo.append(nxt)
    arrived = {empty}
    todo = [empty]
    while todo:
        for nxt in arrival_edges[todo.pop()]:
            if nxt not in arrived:
                arrived.add(nxt)
                todo.append(nxt)
    trees = {key: state_tree(state) for key, state in states.items()}
    arrivals = frozenset(trees[key] for key in arrived)
    return ReachabilityReport(
        m=m,
        policy=policy,
        total=len(trees),
        arrival_reachable=arrivals,
        departure_only=frozenset(trees.values()) - arrivals,
    )
