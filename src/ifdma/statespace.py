"""State space of a power-of-two band under buddy-style allocation.

A state is a binary tree over the band: a node covers an aligned block,
and is either entirely free (``F``), held by a single allocation
(``O``), or split into two half-blocks.  A split never has two free
children, because free buddies coalesce.  Trees are encoded as strings:
``F``, ``O``, or ``(LR)`` for a split with child encodings L and R.

Two trees that differ only by swapping children (recursively) behave
identically up to relabeling, so they form one super state;
``enumerate_super`` counts them by a canonical form that orders every
child pair lexicographically.

The number of states explodes doubly exponentially:

    f(0) = 2,  f(m) = f(m-1)**2 + 1          (fine states)
    g(1) = 4,  g(m) = g(m-1)(g(m-1)+1)/2 + 1 (super states)

so enumeration is capped at m = 4 and policy reachability at m = 3.
"""

from __future__ import annotations

from dataclasses import dataclass

from .allocator import MIN_SMALL_CHANGE, RANDOM, BinState, Request, admit, place, release
from .mapping import RadixScheme

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
    """Super-state count by recurrence: g(1) = 4, g(m) = g(m-1)(g(m-1)+1)/2 + 1."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    g = 4
    for _ in range(m - 1):
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
    """Count super states by enumerating fine states and deduplicating canonicals."""
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    if m > FINE_ENUM_CAP:
        raise ValueError(f"enumeration is capped at m={FINE_ENUM_CAP}")
    # carry (canonical form per fine state) one level at a time; the fine
    # strings themselves are not needed, only validity (fully-free iff "F")
    canons = [FREE, OCCUPIED]
    for _ in range(m):
        nxt = [FREE, OCCUPIED]
        append = nxt.append
        for a in canons:
            for b in canons:
                if a == FREE and b == FREE:
                    continue
                append(f"({a}{b})" if a <= b else f"({b}{a})")
        canons = nxt
    return len(set(canons))


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


def _arrival_successors(state: BinState, policy: str) -> list[BinState]:
    """Clones one admission ahead, for every size and every placement the policy allows."""
    m = state.scheme.levels
    rid = max(state.groups, default=-1) + 1
    out = []
    if policy == MIN_SMALL_CHANGE:
        for n in range(m + 1):
            nxt = state.clone()
            if admit(nxt, Request(rid, 1 << n), MIN_SMALL_CHANGE).granted:
                out.append(nxt)
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
                nxt = state.clone()
                place(nxt, Request(rid, size), start)
                out.append(nxt)
    else:
        raise ValueError(f"unknown admission policy {policy!r}")
    return out


def _departure_successors(state: BinState) -> list[BinState]:
    out = []
    for rid in state.groups:
        nxt = state.clone()
        release(nxt, rid)
        out.append(nxt)
    return out


def reachable_states(m: int, policy: str = MIN_SMALL_CHANGE) -> ReachabilityReport:
    """BFS over admit/release transitions from the empty band.

    Returns the full reachable set size together with the split between
    states an arrival-only history can produce and states that need at
    least one departure.
    """
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    if m > REACHABLE_CAP:
        raise ValueError(f"reachability search is capped at m={REACHABLE_CAP}")
    scheme = RadixScheme.power_of_two(m)

    def bfs(with_departures: bool) -> frozenset[str]:
        start = BinState(scheme)
        seen = {state_tree(start)}
        frontier = [start]
        while frontier:
            nxt_frontier = []
            for st in frontier:
                succs = _arrival_successors(st, policy)
                if with_departures:
                    succs += _departure_successors(st)
                for succ in succs:
                    enc = state_tree(succ)
                    if enc not in seen:
                        seen.add(enc)
                        nxt_frontier.append(succ)
            frontier = nxt_frontier
        return frozenset(seen)

    full = bfs(with_departures=True)
    arrivals = bfs(with_departures=False)
    return ReachabilityReport(
        m=m,
        policy=policy,
        total=len(full),
        arrival_reachable=arrivals,
        departure_only=full - arrivals,
    )
