"""Admission guarantees: thresholds, boundaries, worst cases."""

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
    allocate_batch_sync,
    dcr_state,
    release,
)
from ifdma.mapping import RadixScheme
from ifdma.nonblocking import strict_threshold, worst_case_scenario
from ifdma.statespace import _arrivals, state_tree


def batch_fits(sizes: list[int], state: BinState, policy: str) -> bool:
    try:
        allocate_batch_sync(sizes, policy, state=state)
    except BatchRejected:
        return False
    return True


class TestLoadPredicates:
    def test_full_and_dcr_boundaries(self):
        scheme = RadixScheme.power_of_two(3)
        assert batch_fits([4, 2, 1, 1], BinState(scheme), SORT_FIRST)            # 8
        assert not batch_fits([8, 1], BinState(scheme), SORT_FIRST)              # 9
        assert batch_fits([4, 2, 1], dcr_state(scheme, 4), MIN_SMALL_CHANGE)     # 7
        assert not batch_fits([8], dcr_state(scheme, 4), MIN_SMALL_CHANGE)       # 8

    def test_strict_threshold_values(self):
        # min over n of 2**(m-n) + 2**n, closed form split by parity
        assert strict_threshold(0) == 2
        assert strict_threshold(1) == 3
        assert strict_threshold(2) == 4
        assert strict_threshold(3) == 6
        assert strict_threshold(4) == 8
        assert strict_threshold(10) == 64
        with pytest.raises(ValueError):
            strict_threshold(-1)

    @given(st.integers(0, 40))
    def test_closed_form_matches_minimum(self, m):
        assert strict_threshold(m) == min(
            (1 << (m - n)) + (1 << n) for n in range(m + 1)
        )

    def test_strict_is_strict(self):
        """Over every reachable state, the least blocking load is the threshold."""
        for m in (2, 3):
            band = 1 << m
            start = BinState(RadixScheme.power_of_two(m))
            seen = {state_tree(start)}
            frontier = [start]
            least = None
            while frontier:
                nxt = []
                for state in frontier:
                    for n in range(m + 1):
                        size = 1 << n
                        if not admit(state.clone(), band, size).granted:
                            load = band - state.free_count + size
                            least = load if least is None else min(least, load)
                    # the random policy reaches every placement; clone each
                    # while it is in place
                    succs = [state.clone() for _ in _arrivals(state, RANDOM)]
                    for rid in state.groups:
                        succs.append(state.clone())
                        release(succs[-1], rid)
                    for succ in succs:
                        enc = state_tree(succ)
                        if enc not in seen:
                            seen.add(enc)
                            nxt.append(succ)
                frontier = nxt
            assert least == strict_threshold(m)


class TestWorstCase:
    def test_shape(self):
        bins, size = worst_case_scenario(4, 2)
        assert bins == (0, 4, 8, 12)
        assert size == 4
        with pytest.raises(ValueError):
            worst_case_scenario(3, 4)

    @given(st.integers(0, 9), st.data())
    @settings(max_examples=60)
    def test_pattern_blocks_exactly_at_threshold(self, m, data):
        """Filling the pattern then the request realizes the blocking bound."""
        n = data.draw(st.integers(0, m))
        bins, size = worst_case_scenario(m, n)
        assert size == 1 << n
        assert len(bins) == 1 << (m - n)
        load = len(bins) + size
        assert load == (1 << (m - n)) + (1 << n)
        assert load >= strict_threshold(m)

        # Realize it on a real band: fill everything, then free all bins
        # except the pattern, leaving singles at every multiple of 2**n.
        scheme = RadixScheme.power_of_two(m)
        state = BinState(scheme)
        for k in range(scheme.size):
            assert admit(state, k, 1).granted
        for k in range(scheme.size):
            if k not in bins:
                release(state, k)
        out = admit(state, scheme.size, size)
        assert not out.granted
        free_cnt = (1 << m) - (1 << (m - n))
        if free_cnt >= size:
            # enough bins, but every aligned run holds a pattern single
            assert out.status is AdmissionStatus.BLOCKED_FRAGMENTATION
        else:
            assert out.status is AdmissionStatus.BLOCKED_OVERLOAD
        if load == strict_threshold(m) and 0 < n < m:
            # the minimizing class realizes the bound as a pure
            # fragmentation event, not an overload
            assert out.status is AdmissionStatus.BLOCKED_FRAGMENTATION
