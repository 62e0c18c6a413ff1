"""Allocator tests: worked placements, policy semantics, trace invariants."""

from random import Random

import pytest
from hypothesis import given, settings, strategies as st

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
        assert state.free[0] == {1}
        assert state.free[1] == {2}
        assert state.free[2] == {4}

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
            assert state.free[0] == {5} and state.free[1] == {6}
            out = admit(state, 5, 1, RANDOM, Random(seed))
            assert out.allocation.ranges == (AlignedRange(5, 1),)
            assert state.free[1] == {6}

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
        allocs = allocate_batch_sync([1, 4, 2], SORT_FIRST, M8)
        assert [a.request_id for a in allocs] == [0, 1, 2]
        assert allocs[1].ranges == (AlignedRange(0, 4),)
        assert allocs[2].ranges == (AlignedRange(4, 2),)
        assert allocs[0].ranges == (AlignedRange(6, 1),)
        assert allocs[1].subcarriers == {0, 2, 4, 6}
        assert allocs[2].subcarriers == {1, 5}
        assert allocs[0].subcarriers == {3}

    def test_digit_reversal_worked_example(self):
        allocs = allocate_batch_sync([3, 1, 6], SORT_FIRST, M223)
        assert allocs[2].subcarriers == {0, 4, 8, 2, 6, 10}
        assert allocs[0].subcarriers == {1, 5, 9}
        assert allocs[1].subcarriers == {3}

    def test_size_ties_resolved_by_position(self):
        allocs = allocate_batch_sync([2, 2, 4], SORT_FIRST, M8)
        assert [a.request_id for a in allocs] == [0, 1, 2]
        assert allocs[2].ranges == (AlignedRange(0, 4),)
        assert allocs[0].ranges == (AlignedRange(4, 2),)
        assert allocs[1].ranges == (AlignedRange(6, 2),)

    def test_rejects_oversubscription(self):
        with pytest.raises(BatchRejected):
            allocate_batch_sync([8, 1], SORT_FIRST, M8)

    def test_rejects_dirty_band(self):
        state = BinState(M8)
        occupy(state, 1)
        with pytest.raises(ValueError):
            allocate_batch_sync([2], SORT_FIRST, state=state)

    def test_requires_scheme_xor_state(self):
        with pytest.raises(ValueError):
            allocate_batch_sync([1], SORT_FIRST)
        with pytest.raises(ValueError):
            allocate_batch_sync(
                [1], SORT_FIRST, M8, state=BinState(M8)
            )

    def test_disallowed_size(self):
        with pytest.raises(ValueError):
            allocate_batch_sync([3], SORT_FIRST, M8)

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            allocate_batch_sync([1], "first_fit", M8)


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
        allocs = allocate_batch_sync(
            [4, 2, 1],
            MIN_SMALL_CHANGE,
            state=state,
        )
        bins = sorted(b for a in allocs for r in a.ranges for b in r.bins())
        assert len(bins) == 7 and 1 not in bins
        check_consistency(state)

    def test_dc_subcarrier_never_granted(self):
        state = dcr_state(M8, 5)
        allocs = allocate_batch_sync(
            [1] * 7, MIN_SMALL_CHANGE, state=state
        )
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
    allocs = allocate_batch_sync(sizes, policy, scheme)
    claimed: set[int] = set()
    subs: set[int] = set()
    for i, (size, alloc) in enumerate(zip(sizes, allocs, strict=True)):
        assert alloc.request_id == i
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
            assert len(state.free[j]) <= state._fanout[j] - 1
        assert len(state.free[scheme.levels]) <= 1
        if scheme.is_power_of_two:
            sizes = [r.size for r in free_subsets(state)]
            assert len(sizes) == len(set(sizes))


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
