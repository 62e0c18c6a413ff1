"""Structural invariants of a ``BinState``, checked by the tests after each step."""

from ifdma.allocator import BinState


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
