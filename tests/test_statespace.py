"""State-tree enumeration: recurrences, canonical forms, reachability."""

import re
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from ifdma.allocator import (
    MIN_SMALL_CHANGE,
    RANDOM,
    BinState,
    admit,
    admit_multistream,
    check_consistency,
    dcr_state,
    free_subsets,
    place,
    release,
)
from ifdma.mapping import RadixScheme
from ifdma.statespace import (
    FINE_ENUM_CAP,
    REACHABLE_CAP,
    enumerate_fine,
    enumerate_super,
    f_rec,
    fine_states,
    g_rec,
    reachable_states,
    state_tree,
    _arrivals,
)

FINE_COUNTS = {0: 2, 1: 5, 2: 26, 3: 677, 4: 458330}
SUPER_COUNTS = {0: 2, 1: 4, 2: 11, 3: 67, 4: 2279}


class TestRecurrences:
    def test_fine_values(self):
        for m, want in FINE_COUNTS.items():
            assert f_rec(m) == want

    def test_super_values(self):
        for m, want in SUPER_COUNTS.items():
            assert g_rec(m) == want

    def test_domains(self):
        with pytest.raises(ValueError):
            f_rec(-1)
        with pytest.raises(ValueError):
            g_rec(-1)
        assert g_rec(0) == 2

    @given(st.integers(0, 8))
    def test_growth_is_doubly_exponential(self, m):
        # f(m) >= 2**(2**(m-1)) for m >= 1: squaring plus one each level
        if m >= 1:
            assert f_rec(m) > f_rec(m - 1) ** 2
            assert f_rec(m) >= 1 << (1 << (m - 1))


class TestFineEnumeration:
    def test_counts_match_recurrence(self):
        for m in range(4):
            assert enumerate_fine(m) == f_rec(m)

    def test_m1_states_explicit(self):
        assert set(fine_states(1)) == {"F", "O", "(OO)", "(OF)", "(FO)"}

    def test_no_uncoalesced_pair(self):
        for state in fine_states(3):
            assert "(FF)" not in state

    def test_encodings_are_wellformed(self):
        for state in fine_states(2):
            assert re.fullmatch(r"[FO()]+", state)
            assert state.count("(") == state.count(")")

    def test_cap(self):
        with pytest.raises(ValueError):
            fine_states(FINE_ENUM_CAP + 1)
        with pytest.raises(ValueError):
            enumerate_fine(FINE_ENUM_CAP + 1)
        with pytest.raises(ValueError):
            fine_states(-1)


def canonical(tree: str) -> str:
    """Canonical form of one tree encoding: every child pair in lexicographic order."""
    def parse(i: int) -> tuple[str, int]:
        if tree[i] in "FO":
            return tree[i], i + 1
        a, i = parse(i + 1)
        b, i = parse(i)
        assert tree[i] == ")"
        return (f"({a}{b})" if a <= b else f"({b}{a})"), i + 1

    form, end = parse(0)
    assert end == len(tree)
    return form


class TestCanonicalForm:
    def test_counts_match_recurrence(self):
        for m in range(4):
            assert enumerate_super(m) == g_rec(m)

    def test_matches_canonicalized_fine_states(self):
        assert canonical("((OF)(FO))") == canonical("((FO)(OF))") == "((FO)(FO))"
        for m in range(4):
            want = len({canonical(tree) for tree in fine_states(m)})
            assert enumerate_super(m) == want == g_rec(m)


class TestStateTree:
    def test_empty_and_full(self):
        scheme = RadixScheme.power_of_two(2)
        state = BinState(scheme)
        assert state_tree(state) == "F"
        admit(state, 0, 4)
        assert state_tree(state) == "O"

    def test_partial_occupancy(self):
        scheme = RadixScheme.power_of_two(2)
        state = BinState(scheme)
        admit(state, 0, 2)
        admit(state, 1, 1)
        assert state_tree(state) == "(O(OF))"
        release(state, 0)
        assert state_tree(state) == "(F(OF))"

    def test_two_singles_differ_from_one_pair(self):
        scheme = RadixScheme.power_of_two(1)
        pair = BinState(scheme)
        admit(pair, 0, 2)
        singles = BinState(scheme)
        admit(singles, 0, 1)
        admit(singles, 1, 1)
        assert state_tree(pair) == "O"
        assert state_tree(singles) == "(OO)"

    def test_blocked_bin_counts_as_occupied(self):
        state = dcr_state(RadixScheme.power_of_two(2), 0)
        assert state_tree(state) == "((OF)F)"

    def test_composite_band_rejected(self):
        with pytest.raises(ValueError):
            state_tree(BinState(RadixScheme((2, 3))))

    @given(st.lists(st.tuples(st.booleans(), st.integers(0, 3)), max_size=25))
    @settings(max_examples=80)
    def test_trace_produces_valid_encodings(self, ops):
        scheme = RadixScheme.power_of_two(3)
        state = BinState(scheme)
        valid = set(fine_states(3))
        active = []
        next_id = 0
        for is_admit, arg in ops:
            if is_admit:
                if admit(state, next_id, 1 << arg).granted:
                    active.append(next_id)
                    next_id += 1
            elif active:
                release(state, active.pop(arg % len(active)))
            assert state_tree(state) in valid


class TestReachability:
    def test_min_policy_counts(self):
        expect = {1: (5, 4, 1), 2: (26, 12, 14), 3: (677, 80, 597)}
        for m, (total, arrive, dep) in expect.items():
            rep = reachable_states(m, MIN_SMALL_CHANGE)
            assert rep.total == total == f_rec(m)
            assert len(rep.arrival_reachable) == arrive
            assert len(rep.departure_only) == dep

    def test_random_policy_counts(self):
        rep1 = reachable_states(1, RANDOM)
        assert (rep1.total, len(rep1.arrival_reachable)) == (5, 5)
        rep2 = reachable_states(2, RANDOM)
        assert (rep2.total, len(rep2.arrival_reachable)) == (26, 22)
        assert len(rep2.departure_only) == 4

    def test_sets_are_disjoint_and_cover(self):
        rep = reachable_states(2, MIN_SMALL_CHANGE)
        assert not rep.arrival_reachable & rep.departure_only
        assert len(rep.arrival_reachable | rep.departure_only) == rep.total
        assert "F" in rep.arrival_reachable

    def test_min_restricts_next_single(self):
        # From one occupied bin, a size-1 arrival may only take its buddy:
        # the states with a lone single elsewhere need a departure first.
        rep = reachable_states(2, MIN_SMALL_CHANGE)
        assert "((OO)F)" in rep.arrival_reachable
        assert "((OF)(OF))" in rep.departure_only
        assert "((OF)(FO))" in rep.departure_only

    def test_cap(self):
        with pytest.raises(ValueError):
            reachable_states(REACHABLE_CAP + 1)

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            reachable_states(2, "first_fit")


# -- reference model ----------------------------------------------------------
# The encodings below rebuild a bitmap of held bins from groups plus blocked
# bins and scan it, independently of the free lists the library reads.


def held_bitmap(state: BinState) -> int:
    occ = 0
    for ranges in state.groups.values():
        for r in ranges:
            occ |= ((1 << r.size) - 1) << r.start
    for b in state.blocked:
        occ |= 1 << b
    return occ


def reference_tree(state: BinState) -> str:
    occ = held_bitmap(state)
    held = {r.start: r.size for ranges in state.groups.values() for r in ranges}
    for b in state.blocked:
        held[b] = 1

    def enc(start: int, size: int) -> str:
        if occ & (((1 << size) - 1) << start) == 0:
            return "F"
        if held.get(start) == size:
            return "O"
        half = size // 2
        return f"({enc(start, half)}{enc(start + half, half)})"

    return enc(0, state.scheme.size)


def reference_random_starts(state: BinState) -> list[tuple[int, int]]:
    """(size, start) of every random-policy placement, exact-size blocks first."""
    occ = held_bitmap(state)
    out = []
    for n in range(state.scheme.levels + 1):
        size = 1 << n
        starts = list(state.free_starts(n))
        if not starts:
            mask = (1 << size) - 1
            starts = [start for start in range(0, state.scheme.size, size)
                      if occ & (mask << start) == 0]
        out += [(size, start) for start in starts]
    return out


def random_starts(state: BinState) -> list[tuple[int, int]]:
    return [(r.size, r.start) for r in _arrivals(state, RANDOM)]


def snapshot(state: BinState) -> tuple:
    return free_subsets(state), state.free_count, dict(state.groups)


@given(
    st.integers(1, 4),
    st.booleans(),
    st.integers(0, 2**32 - 1),
    st.lists(st.tuples(st.sampled_from(("min", "random", "multi", "release")),
                       st.integers(0, 63)), max_size=30),
)
@settings(max_examples=120, deadline=None)
def test_free_list_readers_match_bitmap_reference(m, dc, seed, ops):
    scheme = RadixScheme.power_of_two(m)
    state = dcr_state(scheme, 0) if dc else BinState(scheme)
    rng = Random(seed)
    next_id = 0
    for kind, arg in ops:
        if kind == "release":
            if state.groups:
                release(state, sorted(state.groups)[arg % len(state.groups)])
        else:
            if kind == "multi":
                out = admit_multistream(state, next_id, arg % scheme.size + 1)
            else:
                policy = MIN_SMALL_CHANGE if kind == "min" else RANDOM
                out = admit(state, next_id, 1 << (arg % (m + 1)), policy, rng)
            next_id += out.granted
        check_consistency(state)
        assert state_tree(state) == reference_tree(state)
        before = snapshot(state)
        assert sorted(random_starts(state)) == reference_random_starts(state)
        assert snapshot(state) == before  # trying every arrival leaves the state as it was


def test_arrivals_run_the_allocators_random_rule(monkeypatch):
    """The search grants what the allocator's rule grants, whatever the rule."""

    def lowest_exact_block(self, n, rng):
        rng.randrange(1)
        start = next(self.free_starts(n), None)
        if start is not None:
            self._carve(start, n)
        return start

    monkeypatch.setattr(BinState, "_take_random", lowest_exact_block)
    state = BinState(RadixScheme.power_of_two(3))
    place(state, 0, 1, 0)
    place(state, 1, 1, 4)  # free: singles 1 and 5, pairs 2 and 6
    before = snapshot(state)
    assert random_starts(state) == [(1, 1), (2, 2)]
    assert snapshot(state) == before


# -- reference search ---------------------------------------------------------
# A breadth-first search over state_tree strings that clones every successor,
# run twice: once with departures (every reachable state) and once without
# (the arrival-reachable ones).  Random placements come from the bitmap scan.


def reference_arrival_successors(state: BinState, policy: str) -> list[BinState]:
    rid = max(state.groups, default=-1) + 1
    out = []
    if policy == MIN_SMALL_CHANGE:
        for n in range(state.scheme.levels + 1):
            nxt = state.clone()
            if admit(nxt, rid, 1 << n).granted:
                out.append(nxt)
    else:
        for size, start in reference_random_starts(state):
            nxt = state.clone()
            place(nxt, rid, size, start)
            out.append(nxt)
    return out


def reference_departure_successors(state: BinState) -> list[BinState]:
    out = []
    for rid in state.groups:
        nxt = state.clone()
        release(nxt, rid)
        out.append(nxt)
    return out


def reference_bfs(m: int, policy: str, with_departures: bool) -> frozenset[str]:
    start = BinState(RadixScheme.power_of_two(m))
    seen = {state_tree(start)}
    frontier = [start]
    while frontier:
        nxt_frontier = []
        for state in frontier:
            succs = reference_arrival_successors(state, policy)
            if with_departures:
                succs += reference_departure_successors(state)
            for succ in succs:
                enc = state_tree(succ)
                if enc not in seen:
                    seen.add(enc)
                    nxt_frontier.append(succ)
        frontier = nxt_frontier
    return frozenset(seen)


@pytest.mark.parametrize("policy", [MIN_SMALL_CHANGE, RANDOM])
@pytest.mark.parametrize("m", range(REACHABLE_CAP + 1))
def test_reachable_states_match_two_pass_reference(m, policy):
    full = reference_bfs(m, policy, with_departures=True)
    arrivals = reference_bfs(m, policy, with_departures=False)
    rep = reachable_states(m, policy)
    assert rep.total == len(full)
    assert rep.arrival_reachable == arrivals
    assert rep.departure_only == full - arrivals
