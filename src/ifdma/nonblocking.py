"""Admission guarantees for power-of-two bands.

Three regimes, in decreasing strength:

* full loading: any batch with total size <= 2**m can be packed on a
  clean band, so a synchronous system never blocks below capacity;
* DCR loading: with one bin pre-blocked (the image of the DC
  subcarrier) the same holds up to total size 2**m - 1;
* strict nonblocking: in asynchronous operation, no sequence of
  admissions and departures can block a request as long as the carried
  load plus the new request stays strictly below ``strict_threshold``.

The first two need no predicate of their own: ``allocate_batch_sync``
raises ``BatchRejected`` exactly when a batch exceeds the free bins,
and otherwise grants it in full.

The threshold is tight: ``worst_case_scenario`` gives a reachable
occupancy pattern of 2**(m-n) single bins spaced 2**n apart that
blocks a size-2**n request at a combined load of exactly
2**(m-n) + 2**n.
"""

from __future__ import annotations

from .mapping import RadixScheme


def strict_threshold(m: int) -> int:
    """Smallest combined load at which asynchronous blocking becomes reachable.

    Equals min over n of 2**(m-n) + 2**n: 2**(m//2 + 1) for even m and
    3 * 2**((m-1)//2) for odd m.
    """
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    if m % 2 == 0:
        return 1 << (m // 2 + 1)
    return 3 << ((m - 1) // 2)


def worst_case_scenario(m: int, n: int) -> tuple[tuple[int, ...], int]:
    """Single-bin placements that block a size-2**n request at minimal load.

    Returns (bins, request_size): occupying one bin at every multiple of
    2**n leaves no free aligned run of that size, so a size-2**n request
    blocks with 2**(m-n) + 2**n bins in play.  For n = 0 the pattern
    degenerates to a fully loaded band (pure overload).
    """
    RadixScheme.power_of_two(m)  # refuses an m outside the band cap
    if not 0 <= n <= m:
        raise ValueError(f"size class {n} out of range for m={m}")
    step = 1 << n
    bins = tuple(i * step for i in range(1 << (m - n)))
    return bins, step
