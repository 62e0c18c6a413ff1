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
level below, never from the fine states.  One builder serves both
counts: ``enumerate_fine`` pairs the trees of each level in every
order, ``enumerate_super`` pairs the canonical forms only in sorted
order.

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

from .allocator import MIN_SMALL_CHANGE, BinState, admit, release
from .mapping import AlignedRange, RadixScheme

FINE_ENUM_CAP = 4
REACHABLE_CAP = 3

FREE = "F"
OCCUPIED = "O"


def _check_depth(m: int, cap: int | None = None, what: str = "") -> None:
    """Refuse a negative m, and an m above ``cap`` for the work named ``what``."""
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    if cap is not None and m > cap:
        raise ValueError(f"{what} is capped at m={cap}")


def f_rec(m: int) -> int:
    """Fine-state count by recurrence: f(0) = 2, f(m) = f(m-1)**2 + 1."""
    _check_depth(m)
    f = 2
    for _ in range(m):
        f = f * f + 1
    return f


def g_rec(m: int) -> int:
    """Super-state count by recurrence: g(0) = 2, g(m) = g(m-1)(g(m-1)+1)/2 + 1."""
    _check_depth(m)
    g = 2
    for _ in range(m):
        g = g * (g + 1) // 2 + 1
    return g


def _forms(m: int, canonical: bool = False) -> set[str]:
    """Every state tree of depth m, or with ``canonical`` every canonical form.

    The forms of depth k + 1 are F, O and every pair of depth-k forms
    except (FF).  A tree takes every ordered pair.  A split of two subtrees
    with canonical forms a <= b has canonical form ``(ab)``, so a
    canonical form takes only the pairs a <= b.  A set counts each form
    once.
    """
    _check_depth(m, FINE_ENUM_CAP, "enumeration")
    forms = {FREE, OCCUPIED}
    for _ in range(m):
        below = sorted(forms)
        forms = {FREE, OCCUPIED}
        forms.update(f"({a}{b})" for i, a in enumerate(below)
                     for b in (below[i:] if canonical else below))
        forms.discard(f"({FREE}{FREE})")
    return forms


def enumerate_fine(m: int) -> int:
    """Count fine states by building every state tree."""
    return len(_forms(m))


def enumerate_super(m: int) -> int:
    """Count super states by building the distinct canonical forms level by level."""
    return len(_forms(m, canonical=True))


def state_tree(state: BinState) -> str:
    """Encode a BinState as a state tree (blocked bins count as occupied).

    A node is free iff it is a maximal free block, because the band
    keeps exactly the maximal free blocks and the encoding stops at the
    first free ancestor.
    """
    scheme = state.scheme
    if not scheme.is_power_of_two:
        raise ValueError("state trees are defined for power-of-two bands")
    held = {r.start: r.size for ranges in state.groups.values() for r in ranges}
    for b in state.blocked:
        held[b] = 1
    free = [set(state.free_starts(j)) for j in range(scheme.levels + 1)]

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
    arrival_reachable: frozenset[str]
    departure_only: frozenset[str]

    @property
    def total(self) -> int:
        return len(self.arrival_reachable) + len(self.departure_only)


class _Draws:
    """A stand-in rng that makes every sequence of draws once, depth first.

    ``randrange`` replays the choice recorded at its position, or records
    a new draw at choice 0; ``advance`` moves to the next sequence and
    says whether one is left.
    """

    def __init__(self) -> None:
        self.draws: list[list[int]] = []  # [choice, limit] per draw
        self.depth = 0

    def randrange(self, limit: int) -> int:
        if self.depth == len(self.draws):
            self.draws.append([0, limit])
        self.depth += 1
        return self.draws[self.depth - 1][0]

    def advance(self) -> bool:
        self.depth = 0
        while self.draws and self.draws[-1][0] + 1 == self.draws[-1][1]:
            self.draws.pop()  # the last choice of this draw is made
        if self.draws:
            self.draws[-1][0] += 1
        return bool(self.draws)


def _arrivals(state: BinState, policy: str) -> Iterator[AlignedRange]:
    """Admit every size under every sequence of the policy's draws, one at a time.

    Each sequence grants at most one block, and together they cover every
    block the policy can grant.  Each grant is applied to ``state`` itself, yielded
    as its range and released; a band keeps exactly the maximal free
    blocks, so the release restores the state and replayed draws choose
    the same again.  A refusal draws nothing and means no free block is
    that large, so the sizes above it are not tried.
    """
    rid = max(state.groups, default=-1) + 1
    draws = _Draws()
    for n in range(state.scheme.levels + 1):
        more = True
        while more:
            outcome = admit(state, rid, 1 << n, policy, draws)
            if not outcome.granted:
                return
            yield outcome.allocation.ranges[0]
            release(state, rid)
            more = draws.advance()


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
    _check_depth(m, REACHABLE_CAP, "reachability search")
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
        arrival_reachable=arrivals,
        departure_only=frozenset(trees.values()) - arrivals,
    )
