"""Allocator tests: worked placements, policy semantics, trace invariants."""

import dataclasses
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from ifdma import allocator
from ifdma.allocator import (
    MIN_SMALL_CHANGE,
    RANDOM,
    SORT_FIRST,
    AdmissionStatus,
    BatchRejected,
    BinState,
    admit,
    admit_multistream,
    allocate_batch_sync,
    check_consistency,
    dcr_state,
    free_subsets,
    place,
    release,
)
from ifdma.mapping import AlignedRange, RadixScheme

M8 = RadixScheme.power_of_two(3)
M16 = RadixScheme.power_of_two(4)
M223 = RadixScheme((2, 2, 3))


def occupy(state, *sizes, start_id=0):
    """Admit a run of requests under min_small_change; returns next free id."""
    rid = start_id
    for size in sizes:
        assert admit(state, rid, size).granted
        rid += 1
    return rid


class TestMinSmallChange:
    def test_takes_smallest_adequate_subset(self):
        # Occupy 0, 1 and 8..15 so the free subsets are {2,3} and {4..7}.
        state = BinState(M16)
        occupy(state, 1, 1, 8)
        assert free_subsets(state) == [AlignedRange(2, 2), AlignedRange(4, 4)]
        out = admit(state, 10, 2)
        assert out.granted
        assert out.allocation.ranges == (AlignedRange(2, 2),)
        # A size-4 request in the same starting position goes to {4..7}.
        state2 = BinState(M16)
        occupy(state2, 1, 1, 8)
        out2 = admit(state2, 10, 4)
        assert out2.allocation.ranges == (AlignedRange(4, 4),)

    def test_split_keeps_lower_child(self):
        state = BinState(M8)
        out = admit(state, 0, 1)
        assert out.allocation.ranges == (AlignedRange(0, 1),)
        assert list(state.free_starts(0)) == [1]
        assert list(state.free_starts(1)) == [2]
        assert list(state.free_starts(2)) == [4]

    def test_tie_break_is_lowest_start(self):
        state = BinState(M8)
        occupy(state, 1, 1, 1)            # bins 0,1,2; free {3} and {4..7}
        release(state, 1)                  # free {1}, {3}, {4..7}
        out = admit(state, 9, 1)
        assert out.allocation.ranges == (AlignedRange(1, 1),)

    def test_overload_vs_fragmentation(self):
        state = BinState(RadixScheme.power_of_two(2))
        occupy(state, 1, 1, 1)             # bins 0,1,2
        release(state, 1)                  # free {1}, {3}
        out = admit(state, 9, 2)
        assert out.status is AdmissionStatus.BLOCKED_FRAGMENTATION
        assert not out.granted and out.allocation is None
        out = admit(state, 9, 4)
        assert out.status is AdmissionStatus.BLOCKED_OVERLOAD

    def test_release_coalesces(self):
        state = BinState(RadixScheme.power_of_two(2))
        occupy(state, 1, 1, 1)
        release(state, 1)
        release(state, 0)
        assert free_subsets(state) == [AlignedRange(0, 2), AlignedRange(3, 1)]
        release(state, 2)
        assert free_subsets(state) == [AlignedRange(0, 4)]

    def test_allocation_reports_subcarriers(self):
        state = BinState(M8)
        occupy(state, 4, 2)
        out = admit(state, 7, 2)
        assert out.allocation.ranges == (AlignedRange(6, 2),)
        assert out.allocation.subcarriers == {3, 7}


class TestRandomPolicy:
    def test_requires_rng(self):
        with pytest.raises(ValueError):
            admit(BinState(M8), 0, 1, RANDOM)

    def test_prefers_exact_size_blocks(self):
        # Free subsets {4} (size 1) and {6,7} (size 2): a size-1 request
        # must take bin 4 and never split the pair, whatever the draw.
        for seed in range(40):
            state = BinState(M8)
            occupy(state, 4, 1)
            assert list(state.free_starts(0)) == [5] and list(state.free_starts(1)) == [6]
            out = admit(state, 5, 1, RANDOM, Random(seed))
            assert out.allocation.ranges == (AlignedRange(5, 1),)
            assert list(state.free_starts(1)) == [6]

    def test_uniform_over_exact_blocks(self):
        rng = Random(1234)
        hits = {1: 0, 3: 0}
        for _ in range(2000):
            state = BinState(RadixScheme.power_of_two(2))
            occupy(state, 1, 1, 1)
            release(state, 1)              # free {1} and {3}
            out = admit(state, 9, 1, RANDOM, rng)
            hits[out.allocation.ranges[0].start] += 1
        assert abs(hits[1] / 2000 - 0.5) < 0.05

    def test_splits_uniformly_when_forced(self):
        # Clean 4-bin band, size-1 request: the only free block is the whole
        # band, so the chain of child draws makes each bin equally likely.
        rng = Random(99)
        hits = [0, 0, 0, 0]
        for _ in range(4000):
            state = BinState(RadixScheme.power_of_two(2))
            out = admit(state, 0, 1, RANDOM, rng)
            hits[out.allocation.ranges[0].start] += 1
            check_consistency(state)
        for h in hits:
            assert abs(h / 4000 - 0.25) < 0.04

    def test_blocked_outcomes_match_min(self):
        state = BinState(RadixScheme.power_of_two(2))
        occupy(state, 1, 1, 1)
        release(state, 1)
        out = admit(state, 9, 2, RANDOM, Random(0))
        assert out.status is AdmissionStatus.BLOCKED_FRAGMENTATION


class TestBatchSortFirst:
    def test_bit_reversal_worked_example(self):
        state = BinState(M8)
        allocs = allocate_batch_sync(state, [1, 4, 2], SORT_FIRST)
        assert all(state.groups[i] == allocs[i].ranges for i in range(3))
        assert allocs[1].ranges == (AlignedRange(0, 4),)
        assert allocs[2].ranges == (AlignedRange(4, 2),)
        assert allocs[0].ranges == (AlignedRange(6, 1),)
        assert allocs[1].subcarriers == {0, 2, 4, 6}
        assert allocs[2].subcarriers == {1, 5}
        assert allocs[0].subcarriers == {3}

    def test_digit_reversal_worked_example(self):
        allocs = allocate_batch_sync(BinState(M223), [3, 1, 6], SORT_FIRST)
        assert allocs[2].subcarriers == {0, 4, 8, 2, 6, 10}
        assert allocs[0].subcarriers == {1, 5, 9}
        assert allocs[1].subcarriers == {3}

    def test_size_ties_resolved_by_position(self):
        state = BinState(M8)
        allocs = allocate_batch_sync(state, [2, 2, 4], SORT_FIRST)
        assert all(state.groups[i] == allocs[i].ranges for i in range(3))
        assert allocs[2].ranges == (AlignedRange(0, 4),)
        assert allocs[0].ranges == (AlignedRange(4, 2),)
        assert allocs[1].ranges == (AlignedRange(6, 2),)

    def test_rejects_oversubscription(self):
        with pytest.raises(BatchRejected):
            allocate_batch_sync(BinState(M8), [8, 1], SORT_FIRST)

    def test_rejects_dirty_band(self):
        state = BinState(M8)
        occupy(state, 1)
        with pytest.raises(ValueError):
            allocate_batch_sync(state, [2], SORT_FIRST)

    def test_disallowed_size(self):
        with pytest.raises(ValueError):
            allocate_batch_sync(BinState(M8), [3], SORT_FIRST)

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            allocate_batch_sync(BinState(M8), [1], "first_fit")

    def test_unknown_policy_is_named_before_capacity_is_checked(self):
        state = BinState(M8)
        with pytest.raises(ValueError, match="unknown batch policy 'bogus'"):
            allocate_batch_sync(state, [8, 8], "bogus")
        assert state.groups == {} and state.free_count == 8


class TestDcr:
    def test_blocked_bin_is_preimage_of_dc(self):
        state = dcr_state(M8, 0)
        assert state.blocked == {0}
        state = dcr_state(M8, 4)          # subcarrier 100 -> bin 001
        assert state.blocked == {1}
        check_consistency(state)

    def test_full_band_request_is_rejected(self):
        state = dcr_state(M8, 0)
        out = admit(state, 0, 8)
        assert out.status is AdmissionStatus.BLOCKED_OVERLOAD

    def test_batch_up_to_m_minus_one_fits(self):
        state = dcr_state(M8, 4)
        allocs = allocate_batch_sync(state, [4, 2, 1], MIN_SMALL_CHANGE)
        bins = sorted(b for a in allocs for r in a.ranges for b in r.bins())
        assert len(bins) == 7 and 1 not in bins
        check_consistency(state)

    def test_dc_subcarrier_never_granted(self):
        state = dcr_state(M8, 5)
        allocs = allocate_batch_sync(state, [1] * 7, MIN_SMALL_CHANGE)
        for a in allocs:
            assert 5 not in a.subcarriers


class TestMultistream:
    def test_partition_examples(self):
        # on a clean band the gather takes the fewest allowed blocks
        for size, scheme, parts in ((7, M8, (4, 2, 1)), (8, M8, (8,)),
                                    (5, M16, (4, 1)), (11, M223, (6, 3, 1, 1))):
            out = admit_multistream(BinState(scheme), 0, size)
            got = sorted((r.size for r in out.allocation.ranges), reverse=True)
            assert tuple(got) == parts

    def test_gather_on_clean_band(self):
        state = BinState(M8)
        out = admit_multistream(state, 0, 7)
        assert out.granted
        assert out.allocation.ranges == (
            AlignedRange(0, 4), AlignedRange(4, 2), AlignedRange(6, 1)
        )
        assert out.allocation.subcarriers == {0, 1, 2, 3, 4, 5, 6}
        check_consistency(state)

    def test_gather_splits_when_nothing_fits(self):
        state = BinState(M8)
        occupy(state, 1)                   # free {1}, {2,3}, {4..7}
        out = admit_multistream(state, 9, 2)
        assert out.allocation.ranges == (AlignedRange(2, 2),)
        state2 = BinState(M8)
        occupy(state2, 4, 2, 1)            # only bin 7 free
        out2 = admit_multistream(state2, 9, 1)
        assert out2.allocation.ranges == (AlignedRange(7, 1),)

    def test_never_blocked_by_fragmentation(self):
        state = BinState(M8)
        occupy(state, 1, 1, 1, 1, 1)
        release(state, 1)
        release(state, 3)
        out = admit_multistream(state, 9, 5)
        assert out.granted                # gathered from scattered bins
        check_consistency(state)
        out2 = admit_multistream(state, 10, 1)
        assert out2.status is AdmissionStatus.BLOCKED_OVERLOAD

    def test_size_validation(self):
        with pytest.raises(ValueError):
            admit_multistream(BinState(M8), 0, 0)
        with pytest.raises(ValueError):
            admit_multistream(BinState(M8), 0, 9)


class TestPlace:
    def test_carves_the_given_block(self):
        state = BinState(M8)
        alloc = place(state, 0, 2, 4)
        assert alloc.ranges == (AlignedRange(4, 2),)
        assert free_subsets(state) == [AlignedRange(0, 4), AlignedRange(6, 2)]
        assert state.free_count == 6
        check_consistency(state)
        alloc = place(BinState(M223), 0, 3, 9)
        assert alloc.ranges == (AlignedRange(9, 3),)

    def test_rejects_bad_placements(self):
        state = BinState(M8)
        place(state, 0, 2, 4)
        with pytest.raises(ValueError):
            place(state, 1, 1, 5)          # held
        with pytest.raises(ValueError):
            place(state, 1, 2, 1)          # misaligned
        with pytest.raises(ValueError):
            place(state, 1, 3, 0)          # not an allowed size
        with pytest.raises(ValueError):
            place(state, 0, 1, 0)          # id already active
        check_consistency(state)

    def test_refuses_a_block_past_the_band_before_touching_it(self):
        state = BinState(M8)
        with pytest.raises(ValueError, match="exceeds"):
            place(state, 0, 1, 1 << 24)
        assert free_subsets(state) == [AlignedRange(0, 8)] and not state.groups


class TestOutcomeAndRangeContract:
    """What callers may rely on however cheaply a grant is built."""

    def test_outcomes_are_immutable(self):
        state = BinState(M8)
        granted = admit(state, 0, 1)      # bin 0
        place(state, 1, 1, 4)             # bin 4: 6 bins free, no free block of 4
        frag = admit(state, 2, 4)
        over = admit(state, 3, 8)
        assert (frag.status, over.status) == (AdmissionStatus.BLOCKED_FRAGMENTATION,
                                              AdmissionStatus.BLOCKED_OVERLOAD)
        assert admit(state, 4, 4) is frag  # blocked outcomes are shared
        for out in (granted, frag, over):
            with pytest.raises(AttributeError):
                out.status = AdmissionStatus.GRANTED
            with pytest.raises(AttributeError):
                out.allocation = None
        assert frag.status is AdmissionStatus.BLOCKED_FRAGMENTATION
        assert frag.allocation is None and not frag.granted

    @pytest.mark.parametrize("size", [3, [4]], ids=["disallowed", "unhashable"])
    def test_bad_size_raises_what_level_of_raises(self, size):
        with pytest.raises(ValueError) as expected:
            M8.level_of(size)
        for policy, rng in ((MIN_SMALL_CHANGE, None), (RANDOM, Random(0))):
            with pytest.raises(ValueError) as got:
                admit(BinState(M8), 0, size, policy, rng)
            assert str(got.value) == str(expected.value)

    def test_regrant_carries_an_equal_range(self):
        state = BinState(M223)
        first = admit(state, 0, 3).allocation.ranges
        release(state, 0)
        clone = state.clone()
        again = admit(state, 1, 3).allocation.ranges
        in_clone = admit(clone, 1, 3).allocation.ranges
        assert first == again == in_clone == (AlignedRange(0, 3),)
        release(state, 1)
        assert place(state, 2, 3, 0).ranges == first
        with pytest.raises(ValueError, match="not aligned"):
            place(state, 3, 3, 4)
        check_consistency(state)


class TestIdLifecycle:
    def test_double_admit_same_id(self):
        state = BinState(M8)
        occupy(state, 1)
        with pytest.raises(ValueError):
            admit(state, 0, 1)
        with pytest.raises(ValueError):
            admit_multistream(state, 0, 3)

    def test_release_unknown_id(self):
        with pytest.raises(ValueError):
            release(BinState(M8), 5)

    def test_id_reusable_after_release(self):
        state = BinState(M8)
        occupy(state, 2)
        release(state, 0)
        assert admit(state, 0, 4).granted


class TestSharedRangeTables:
    def test_equal_schemes_hand_out_one_range_object(self):
        first = admit(BinState(RadixScheme((2, 3))), 0, 3).allocation.ranges[0]
        second = admit(BinState(RadixScheme((2, 3))), 0, 3).allocation.ranges[0]
        assert first == AlignedRange(0, 3) and first is second

    def test_cache_holds_no_more_than_its_bound(self):
        info = allocator._grant_tables.cache_info()
        for m in range(info.maxsize + 3):
            assert admit(BinState(RadixScheme.power_of_two(m)), 0, 1).granted
        assert allocator._grant_tables.cache_info().currsize <= info.maxsize

    @pytest.mark.parametrize("scheme", [M8, M223, RadixScheme((3, 2, 5))])
    def test_grant_tables_hold_at_most_two_records_per_bin(self, scheme):
        for n, size in enumerate(scheme.block_sizes):
            state = BinState(scheme)
            rid = occupy(state, *[size] * (scheme.size // size))
            assert len(allocator._grant_tables(scheme)[n]) == rid
        assert sum(map(len, allocator._grant_tables(scheme))) <= 2 * scheme.size


class TestSharedGrants:
    """A single-block grant hands out its block's one immutable outcome."""

    def test_equal_schemes_hand_out_one_outcome(self):
        first = admit(BinState(RadixScheme.power_of_two(3)), 0, 4)
        second = admit(BinState(RadixScheme((2, 2, 2))), 7, 4)
        assert first.allocation.ranges == (AlignedRange(0, 4),) and first is second

    def test_single_block_multistream_grant_is_the_admit_record(self):
        assert admit_multistream(BinState(M8), 0, 4) is admit(BinState(M8), 1, 4)
        gathered = admit_multistream(BinState(M8), 0, 3)
        assert gathered.allocation.ranges == (AlignedRange(0, 2), AlignedRange(2, 1))
        assert gathered is not admit_multistream(BinState(M8), 0, 3)

    def test_allocation_is_frozen(self):
        alloc = admit(BinState(M8), 0, 2).allocation
        with pytest.raises(dataclasses.FrozenInstanceError):
            alloc.ranges = (AlignedRange(4, 2),)
        assert alloc.ranges == (AlignedRange(0, 2),)

    def test_allocation_caches_nothing(self):
        alloc = admit(BinState(M8), 0, 2).allocation
        assert not hasattr(alloc, "__dict__")
        assert alloc.subcarriers == {0, 4} and not hasattr(alloc, "__dict__")

    @pytest.mark.parametrize("grant", [
        lambda state: admit(state, 5, 2),
        lambda state: admit(state, 5, 1, RANDOM, Random(3)),
        lambda state: admit_multistream(state, 5, 2),
        lambda state: admit_multistream(state, 5, 7),
    ])
    def test_groups_hold_the_outcome_ranges(self, grant):
        state = BinState(M8)
        outcome = grant(state)
        assert state.groups[5] is outcome.allocation.ranges

    def test_place_hands_out_the_admit_record(self):
        state = BinState(M8)
        alloc = place(state, 6, 4, 4)
        assert state.groups[6] is alloc.ranges
        assert alloc is admit(BinState(M8, blocked_bins=(0,)), 0, 4).allocation


@pytest.mark.parametrize("level", [0, 2, 3])
def test_consistency_refuses_a_free_bit_beyond_the_band(level):
    state = BinState(M8)
    occupy(state, 1)
    check_consistency(state)
    state._masks[level] |= 1 << (M8.size // M8.block_sizes[level])
    with pytest.raises(AssertionError, match="beyond the band"):
        check_consistency(state)


# -- trace properties ---------------------------------------------------------

scheme_strategy = st.sampled_from([
    RadixScheme.power_of_two(2),
    RadixScheme.power_of_two(3),
    RadixScheme.power_of_two(5),
    RadixScheme((2, 2, 3)),
    RadixScheme((3, 2, 2, 2)),
])


@st.composite
def batches(draw, max_total=None):
    scheme = draw(scheme_strategy)
    total = max_total if max_total is not None else scheme.size
    sizes = []
    budget = scheme.size
    while budget:
        choices = [s for s in scheme.block_sizes if s <= budget]
        s = draw(st.sampled_from(choices))
        sizes.append(s)
        budget -= s
        if draw(st.booleans()) and sum(sizes) >= total // 2:
            break
    return scheme, sizes


@given(batches(), st.sampled_from([SORT_FIRST, MIN_SMALL_CHANGE]))
@settings(max_examples=120)
def test_full_loading_property(batch, policy):
    """Any batch with total size <= M is granted in full, without overlap."""
    scheme, sizes = batch
    state = BinState(scheme)
    allocs = allocate_batch_sync(state, sizes, policy)
    claimed: set[int] = set()
    subs: set[int] = set()
    for i, (size, alloc) in enumerate(zip(sizes, allocs, strict=True)):
        assert state.groups[i] == alloc.ranges
        assert alloc.size == size
        bins = {b for r in alloc.ranges for b in r.bins()}
        assert len(bins) == size and not bins & claimed
        claimed |= bins
        assert not alloc.subcarriers & subs
        subs |= alloc.subcarriers
    assert len(subs) == sum(sizes)


@st.composite
def traces(draw):
    scheme = draw(scheme_strategy)
    n_ops = draw(st.integers(1, 40))
    ops = []
    for _ in range(n_ops):
        if draw(st.booleans()):
            ops.append(("admit", draw(st.integers(0, scheme.levels))))
        else:
            ops.append(("release", draw(st.integers(0, 60))))
    return scheme, ops


def run_trace(scheme, ops, policy, rng=None, multistream=False, blocked=()):
    """Replay admissions/releases, checking consistency after every step."""
    state = BinState(scheme, blocked_bins=blocked)
    active: list[int] = []
    next_id = 0
    for op, arg in ops:
        if op == "admit":
            size = scheme.block_sizes[min(arg, scheme.levels)]
            if multistream:
                out = admit_multistream(state, next_id, size)
            else:
                out = admit(state, next_id, size, policy, rng)
            if out.granted:
                active.append(next_id)
                next_id += 1
            else:
                if state.free_count >= size:
                    assert out.status is AdmissionStatus.BLOCKED_FRAGMENTATION
                else:
                    assert out.status is AdmissionStatus.BLOCKED_OVERLOAD
                if multistream:
                    assert out.status is AdmissionStatus.BLOCKED_OVERLOAD
        elif active:
            release(state, active.pop(arg % len(active)))
        check_consistency(state)
    return state


@given(traces())
@settings(max_examples=120)
def test_trace_consistency_min(trace):
    run_trace(*trace, policy=MIN_SMALL_CHANGE)


@given(traces(), st.integers(0, 2**32 - 1))
@settings(max_examples=120)
def test_trace_consistency_random(trace, seed):
    run_trace(*trace, policy=RANDOM, rng=Random(seed))


@given(traces())
@settings(max_examples=80)
def test_trace_consistency_multistream(trace):
    run_trace(*trace, policy=None, multistream=True)


@given(traces(), st.data())
@settings(max_examples=60)
def test_trace_consistency_with_blocked_bin(trace, data):
    scheme, ops = trace
    blocked = (data.draw(st.integers(0, scheme.size - 1)),)
    run_trace(scheme, ops, policy=MIN_SMALL_CHANGE, blocked=blocked)


@given(traces())
@settings(max_examples=120)
def test_min_bounds_free_subsets_per_size(trace):
    """Arrival-only min filling leaves under fanout-1 free blocks per level.

    For a binary band that is the shape invariant behind rearrangement-free
    packing: at most one maximal free subset of each size.  A radix-p split
    leaves p-1 equal siblings, hence the general bound.
    """
    scheme, ops = trace
    state = BinState(scheme)
    next_id = 0
    for op, arg in ops:
        if op != "admit":
            # Departures may break the invariant; the property is about
            # arrival-only histories, so stop the trace at the first one.
            break
        size = scheme.block_sizes[min(arg, scheme.levels)]
        if admit(state, next_id, size).granted:
            next_id += 1
        for j in range(scheme.levels):
            assert len(list(state.free_starts(j))) <= state._fanout[j] - 1
        assert len(list(state.free_starts(scheme.levels))) <= 1
        if scheme.is_power_of_two:
            sizes = [r.size for r in free_subsets(state)]
            assert len(sizes) == len(set(sizes))


def linear_scan_gather(state, size):
    """Reference gather: scan down from the top level for the largest fit.

    ``state`` is a ``BinState`` or a ``SetBand``; each level is read again
    after every take.
    """
    sizes = state._sizes
    remaining = size
    taken = []
    while remaining:
        fit = state._top
        while sizes[fit] > remaining:
            fit -= 1
        j = next((jj for jj in range(fit, -1, -1)
                  if next(state.free_starts(jj), None) is not None), fit)
        start = state._take_min(j)
        taken.append(AlignedRange(start, sizes[j]))
        remaining -= sizes[j]
    return tuple(sorted(taken, key=lambda r: r.start))


@st.composite
def gather_traces(draw):
    scheme = draw(st.sampled_from(
        [RadixScheme.power_of_two(m) for m in range(1, 6)]
        + [RadixScheme((2, 3, 2)), RadixScheme((3, 2)), RadixScheme((5,))]))
    ops = draw(st.lists(st.one_of(
        st.tuples(st.just("admit"), st.integers(1, scheme.size)),
        st.tuples(st.just("release"), st.integers(0, 60))), max_size=40))
    return scheme, ops


@given(gather_traces())
@settings(max_examples=150)
def test_multistream_matches_linear_scan_gather(trace):
    """Gathers of any size 1..M place exactly what the reference scan places."""
    scheme, ops = trace
    state = BinState(scheme)
    active: list[int] = []
    for rid, (op, arg) in enumerate(ops):
        if op == "admit":
            ref = state.clone()
            out = admit_multistream(state, rid, arg)
            if ref.free_count >= arg:
                assert out.allocation.ranges == linear_scan_gather(ref, arg)
                assert free_subsets(state) == free_subsets(ref)
                active.append(rid)
            else:
                assert out.status is AdmissionStatus.BLOCKED_OVERLOAD
        elif active:
            release(state, active.pop(arg % len(active)))
        check_consistency(state)


class SetBand:
    """The set-based buddy kernel that per-level bitmasks replaced, kept as a
    reference: ``free[j]`` is the set of starts of the level-j maximal free
    blocks.  It names its parts as ``BinState`` does, so ``linear_scan_gather``
    runs on either."""

    def __init__(self, scheme, blocked=()):
        self._sizes = scheme.block_sizes
        self._fanout = scheme.inner_radices
        self._top = scheme.levels
        self.free = [set() for _ in range(self._top + 1)]
        self.free[self._top].add(0)
        for b in sorted(blocked):
            self._carve(b, 0)

    def free_starts(self, level):
        return iter(sorted(self.free[level]))

    def free_ranges(self):
        """What ``free_subsets`` gives for a ``BinState``."""
        return sorted((AlignedRange(start, size)
                       for size, fs in zip(self._sizes, self.free) for start in fs),
                      key=lambda r: r.start)

    def _carve(self, start, level):
        sizes = self._sizes
        free = self.free
        for j in range(level, self._top + 1):
            block = start - start % sizes[j]
            if block in free[j]:
                free[j].discard(block)
                self._split(j, block, level, start)
                return
        raise ValueError(f"bins [{start}, {start + sizes[level]}) are not entirely free")

    def _split(self, j, block, level, target):
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

    def _release_block(self, start, level):
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

    def _take_min(self, n):
        free = self.free
        for j in range(n, self._top + 1):
            fs = free[j]
            if fs:
                start = min(fs)
                fs.discard(start)
                self._split(j, start, n, start)
                return start
        return None

    def _take_random(self, n, rng):
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
        sizes = self._sizes
        fanout = self._fanout
        target = block
        for k in range(j - 1, n - 1, -1):
            target += rng.randrange(fanout[k]) * sizes[k]
        self._split(j, block, n, target)
        return target


@st.composite
def kernel_traces(draw):
    """A band, maybe with one blocked bin, and steps of every policy plus releases."""
    scheme = draw(st.sampled_from(
        [RadixScheme.power_of_two(m) for m in range(1, 7)]
        + [RadixScheme((2, 3, 2)), RadixScheme((3, 2)), RadixScheme((5,))]))
    blocked = draw(st.one_of(st.just(()), st.tuples(st.integers(0, scheme.size - 1))))
    ops = draw(st.lists(st.tuples(
        st.sampled_from([MIN_SMALL_CHANGE, RANDOM, "multistream", "release"]),
        st.integers(0, 63)), max_size=50))
    return scheme, blocked, ops


@given(kernel_traces(), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_bitmask_kernel_matches_set_kernel(trace, seed):
    """Every step places what the set kernel places, draws what it draws and
    leaves the same maximal free blocks."""
    scheme, blocked, ops = trace
    state = BinState(scheme, blocked_bins=blocked)
    ref = SetBand(scheme, blocked)
    rng, ref_rng = Random(seed), Random(seed)
    held: dict[int, tuple[AlignedRange, ...]] = {}
    for rid, (kind, arg) in enumerate(ops):
        if kind == "release":
            if held:
                victim = sorted(held)[arg % len(held)]
                release(state, victim)
                for r in held.pop(victim):
                    ref._release_block(r.start, scheme.level_of(r.size))
            want = None
        elif kind == "multistream":
            size = 1 + arg % scheme.size
            enough = sum(r.size for r in ref.free_ranges()) >= size
            want = linear_scan_gather(ref, size) if enough else None
            got = admit_multistream(state, rid, size).allocation
        else:
            n = arg % (scheme.levels + 1)
            size = scheme.block_sizes[n]
            if kind == MIN_SMALL_CHANGE:
                start = ref._take_min(n)
            else:
                start = ref._take_random(n, ref_rng)
            want = None if start is None else (AlignedRange(start, size),)
            got = admit(state, rid, size, kind, rng).allocation
        if kind != "release":
            assert (got and got.ranges) == want
            if want:
                held[rid] = want
        assert state.groups == held
        assert free_subsets(state) == ref.free_ranges()
        assert state.free_count == scheme.size - len(blocked) - sum(
            r.size for ranges in held.values() for r in ranges)
        assert rng.getstate() == ref_rng.getstate()
        check_consistency(state)


def test_free_count_is_derived_not_stored():
    state = BinState(M8, blocked_bins=(5,))
    with pytest.raises(AttributeError):
        state.free_count = 8
    admit(state, 0, 2, MIN_SMALL_CHANGE)
    assert state.free_count == 5


@st.composite
def overload_traces(draw):
    """A band, maybe with one blocked bin, and admissions of every kind plus releases."""
    scheme = draw(st.sampled_from(
        [RadixScheme.power_of_two(m) for m in range(1, 6)] + [RadixScheme((2, 3, 2))]))
    blocked = draw(st.one_of(st.just(()), st.tuples(st.integers(0, scheme.size - 1))))
    ops = draw(st.lists(st.tuples(
        st.sampled_from([MIN_SMALL_CHANGE, RANDOM, "multistream", "release"]),
        st.integers(0, 60)), max_size=40))
    return scheme, blocked, ops


def assert_overload_changes_nothing(state, rng):
    """Every admission asking for more bins than are free is refused as overload,
    and leaves the free lists, the groups, the free count and the rng as they were."""
    before = (free_subsets(state), dict(state.groups), state.free_count, rng.getstate())
    rid = max(state.groups, default=-1) + 1
    for size in range(state.free_count + 1, state.scheme.size + 1):
        outs = [admit_multistream(state, rid, size)]
        if size in state.scheme.level_by_size:
            outs += [admit(state, rid, size, MIN_SMALL_CHANGE),
                     admit(state, rid, size, RANDOM, rng)]
        for out in outs:
            assert out.status is AdmissionStatus.BLOCKED_OVERLOAD and not out.granted
        assert (free_subsets(state), state.groups, state.free_count,
                rng.getstate()) == before


@given(overload_traces(), st.integers(0, 2**32 - 1))
@settings(max_examples=150)
def test_admission_on_an_overloaded_band_is_a_no_op(trace, seed):
    """The simulator decides overload from its own bin count and skips the
    allocator then; that is sound only because such an admission does nothing."""
    scheme, blocked, ops = trace
    state = BinState(scheme, blocked_bins=blocked)
    rng = Random(seed)
    active: list[int] = []
    for rid, (kind, arg) in enumerate(ops):
        if kind == "release":
            if active:
                release(state, active.pop(arg % len(active)))
        elif kind == "multistream":
            if admit_multistream(state, rid, 1 + arg % scheme.size).granted:
                active.append(rid)
        else:
            size = scheme.block_sizes[arg % len(scheme.block_sizes)]
            if admit(state, rid, size, kind, rng).granted:
                active.append(rid)
        assert_overload_changes_nothing(state, rng)
    check_consistency(state)


@given(st.integers(2, 64), st.integers(0, 2**32 - 1))
@settings(max_examples=80)
def test_multistream_grants_iff_capacity(m_requests, seed):
    scheme = RadixScheme.power_of_two(6)
    rng = Random(seed)
    state = BinState(scheme)
    active = {}
    next_id = 0
    for _ in range(m_requests):
        if active and rng.random() < 0.4:
            rid = rng.choice(sorted(active))
            release(state, rid)
            del active[rid]
            continue
        size = rng.randrange(1, scheme.size + 1)
        free_before = state.free_count
        out = admit_multistream(state, next_id, size)
        assert out.granted == (free_before >= size)
        if out.granted:
            total = sum(r.size for r in out.allocation.ranges)
            assert total == size
            active[next_id] = size
            next_id += 1
        else:
            assert out.status is AdmissionStatus.BLOCKED_OVERLOAD
    check_consistency(state)


# -- non-integer inputs -------------------------------------------------------


def band(state: BinState) -> tuple:
    return free_subsets(state), state.free_count, dict(state.groups), state.blocked


class TestNonIntegerInputs:
    """A size or bin that is not an int is refused before the band is touched."""

    @staticmethod
    def partly_held() -> BinState:
        state = BinState(M8)
        occupy(state, 1)  # free: 1, [2, 4) and [4, 8)
        return state

    @pytest.mark.parametrize("size", [2.5, 2.0, True])
    def test_multistream_size(self, size):
        state = self.partly_held()
        before = band(state.clone())
        with pytest.raises(ValueError, match="must be an int"):
            admit_multistream(state, 1, size)
        assert band(state) == before
        check_consistency(state)

    @pytest.mark.parametrize("policy", [MIN_SMALL_CHANGE, RANDOM])
    @pytest.mark.parametrize("size", [2.0, True])
    def test_admit_size(self, size, policy):
        state = self.partly_held()
        before = band(state.clone())
        rng = Random(0)
        draws = rng.getstate()
        with pytest.raises(ValueError, match="must be an int"):
            admit(state, 1, size, policy, rng)
        assert band(state) == before and rng.getstate() == draws
        check_consistency(state)

    @pytest.mark.parametrize("policy", [MIN_SMALL_CHANGE, SORT_FIRST])
    @pytest.mark.parametrize("sizes", [[1, 2.0], [2, True]])
    def test_batch_sizes(self, sizes, policy):
        state = BinState(M8)
        before = band(state.clone())
        with pytest.raises(ValueError, match="must be an int"):
            allocate_batch_sync(state, sizes, policy)
        assert band(state) == before
        check_consistency(state)

    @pytest.mark.parametrize("size, start", [(2.0, 4), (2, 4.0), (True, 4)])
    def test_place(self, size, start):
        state = self.partly_held()
        before = band(state.clone())
        with pytest.raises(ValueError, match="must be ints"):
            place(state, 1, size, start)
        assert band(state) == before
        check_consistency(state)

    @pytest.mark.parametrize("bins", [(1.5,), (2, 3.0), (True,)])
    def test_blocked_bins(self, bins):
        with pytest.raises(ValueError, match="not an int"):
            BinState(M8, blocked_bins=bins)
