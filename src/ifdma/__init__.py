"""Evenly-spaced subcarrier allocation for interleaved FDMA bands.

The package maps contiguous "bins" to evenly spaced subcarriers by
mixed-radix digit reversal, fills bins under several admission policies
(including a buddy-style allocator with coalescing free lists), decides
nonblocking admission regions, enumerates the Markov state space of a
band, synthesizes and cross-checks the low-PAPR waveform, and simulates
blocking probabilities under Poisson traffic.
"""

from .allocator import (
    MIN_SMALL_CHANGE,
    RANDOM,
    SORT_FIRST,
    AdmissionOutcome,
    AdmissionStatus,
    Allocation,
    BatchRejected,
    BinState,
    Request,
    admit,
    admit_multistream,
    allocate_batch_sync,
    check_consistency,
    dcr_state,
    free_subsets,
    place,
    release,
)
from .mapping import (
    AlignedRange,
    RadixScheme,
    bin_digits,
    bin_for_subcarrier,
    bit_reverse,
    digit_reverse,
    range_to_subcarriers,
    subcarrier_shift,
    validate_range,
)
from .nonblocking import (
    strict_threshold,
    worst_case_scenario,
)
from .sim import (
    CSV_COLUMNS,
    MULTISTREAM,
    OFDMA,
    POLICIES,
    SimConfig,
    SimMetrics,
    TrafficModel,
    build_configs,
    csv_row,
    offered_load,
    run,
    write_csv,
)
from .statespace import (
    FINE_ENUM_CAP,
    REACHABLE_CAP,
    ReachabilityReport,
    enumerate_fine,
    enumerate_super,
    f_rec,
    fine_states,
    g_rec,
    reachable_states,
    state_tree,
)
from .waveform import (
    StreamSpec,
    multistream_time,
    specs_for_allocation,
    stream_freq_oracle,
    stream_time,
)

__version__ = "0.1.0"

__all__ = [
    "AdmissionOutcome",
    "AdmissionStatus",
    "AlignedRange",
    "Allocation",
    "BatchRejected",
    "BinState",
    "CSV_COLUMNS",
    "FINE_ENUM_CAP",
    "MIN_SMALL_CHANGE",
    "MULTISTREAM",
    "OFDMA",
    "POLICIES",
    "RANDOM",
    "REACHABLE_CAP",
    "RadixScheme",
    "ReachabilityReport",
    "Request",
    "SORT_FIRST",
    "SimConfig",
    "SimMetrics",
    "StreamSpec",
    "TrafficModel",
    "admit",
    "admit_multistream",
    "allocate_batch_sync",
    "bin_digits",
    "bin_for_subcarrier",
    "bit_reverse",
    "build_configs",
    "check_consistency",
    "csv_row",
    "dcr_state",
    "digit_reverse",
    "enumerate_fine",
    "enumerate_super",
    "f_rec",
    "fine_states",
    "free_subsets",
    "g_rec",
    "multistream_time",
    "offered_load",
    "place",
    "range_to_subcarriers",
    "reachable_states",
    "release",
    "run",
    "specs_for_allocation",
    "state_tree",
    "stream_freq_oracle",
    "stream_time",
    "strict_threshold",
    "subcarrier_shift",
    "validate_range",
    "worst_case_scenario",
    "write_csv",
]
