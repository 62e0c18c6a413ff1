"""Acceptance suite: end-to-end checks with pinned values and tolerances.

Every test here states its budget (values, bands, runtime) up front and
fails loudly when the package drifts.  The blocking anchors in the two
simulation tests are reference measurements for a 1024-subcarrier band;
their tolerance bands come with the rule that confidence half-widths must
shrink below a third of each band before the comparison is judged, so a
noisy run extends itself rather than passing or failing by luck.
"""

import json
import time
from random import Random

import numpy as np
import pytest

from ifdma.allocator import (
    MIN_SMALL_CHANGE,
    RANDOM,
    SORT_FIRST,
    AdmissionStatus,
    BinState,
    admit,
    admit_multistream,
    allocate_batch_sync,
    dcr_state,
    release,
)
from ifdma.cli import main as cli_main
from ifdma.mapping import RadixScheme
from ifdma.nonblocking import strict_threshold, worst_case_scenario
from ifdma.sim import SimConfig, SimMetrics, TrafficModel, run
from ifdma.statespace import enumerate_fine, enumerate_super, f_rec, g_rec
from ifdma.waveform import StreamSpec, stream_freq_oracle, stream_time

# bin, digit string, reversed string, subcarrier for the 8-bin band
BAND8_TABLE = (
    (0, "000", "000", 0),
    (1, "001", "100", 4),
    (2, "010", "010", 2),
    (3, "011", "110", 6),
    (4, "100", "001", 1),
    (5, "101", "101", 5),
    (6, "110", "011", 3),
    (7, "111", "111", 7),
)

# same, for the 12-bin band factored as 2 x 2 x 3 (last digit fastest)
BAND12_TABLE = (
    (0, "000", "000", 0),
    (1, "001", "100", 4),
    (2, "002", "200", 8),
    (3, "010", "010", 2),
    (4, "011", "110", 6),
    (5, "012", "210", 10),
    (6, "100", "001", 1),
    (7, "101", "101", 5),
    (8, "102", "201", 9),
    (9, "110", "011", 3),
    (10, "111", "111", 7),
    (11, "112", "211", 11),
)

FINE_COUNTS = {2: 26, 3: 677, 4: 458330}
SUPER_COUNTS = {2: 11, 3: 67, 4: 2279}


def parse_table(out: str) -> list[tuple[int, str, str, int]]:
    rows = []
    for line in out.splitlines()[1:]:
        b, digits, rev, sub = line.split()
        rows.append((int(b), digits, rev, int(sub)))
    return rows


def paired_ci(diffs) -> float:
    return 1.96 * float(np.std(diffs, ddof=1)) / len(diffs) ** 0.5


def test_mapping_tables_are_bit_exact(capsys):
    start = time.perf_counter()
    assert cli_main(["map", "--m", "3"]) == 0
    assert tuple(parse_table(capsys.readouterr().out)) == BAND8_TABLE
    assert cli_main(["map", "--radices", "2,2,3"]) == 0
    assert tuple(parse_table(capsys.readouterr().out)) == BAND12_TABLE
    assert time.perf_counter() - start < 1.0


def test_state_counts_match_recurrences():
    start = time.perf_counter()
    for m, count in FINE_COUNTS.items():
        assert f_rec(m) == count
        assert enumerate_fine(m) == count
    for m, count in SUPER_COUNTS.items():
        assert g_rec(m) == count
        assert enumerate_super(m) == count
    assert time.perf_counter() - start < 60.0


def random_size_multiset(rng: Random, m: int, budget: int) -> list[int]:
    """Powers of two summing to at most budget, biased toward full load."""
    sizes = []
    while budget >= 1:
        size = 1 << rng.randrange(m + 1)
        if size > budget:
            if rng.random() < 0.5:
                break
            size = 1
            while size * 2 <= budget:
                size *= 2
        sizes.append(size)
        budget -= size
        if rng.random() < 0.15:
            break
    return sizes or [1]


def test_any_feasible_batch_is_granted_in_full():
    # 10,000 random multisets per band size, every one fully grantable by
    # both batch policies; with one reserved bin the same holds for batches
    # one bin smaller under the min policy.
    start = time.perf_counter()
    rng = Random(20260817)
    for m in (3, 6, 8):
        band = 1 << m
        scheme = RadixScheme.power_of_two(m)
        for _ in range(10_000):
            sizes = random_size_multiset(rng, m, band)
            for policy in (SORT_FIRST, MIN_SMALL_CHANGE):
                allocs = allocate_batch_sync(sizes, policy, scheme=scheme)
                assert len(allocs) == len(sizes)
        for _ in range(10_000):
            sizes = random_size_multiset(rng, m, band - 1)
            state = dcr_state(scheme, rng.randrange(band))
            allocs = allocate_batch_sync(sizes, MIN_SMALL_CHANGE, state=state)
            assert len(allocs) == len(sizes)
    assert time.perf_counter() - start < 60.0


def run_threshold_trace(rng: Random, scheme: RadixScheme, thr: int,
                        policy: str, steps: int) -> None:
    state = BinState(scheme)
    m = scheme.levels
    active = []
    load = 0
    rid = 0
    for _ in range(steps):
        if active and rng.random() < 0.4:
            idx = rng.randrange(len(active))
            dead, size = active[idx]
            active[idx] = active[-1]
            active.pop()
            release(state, dead)
            load -= size
        else:
            size = 1 << rng.randrange(m + 1)
            if load + size >= thr:
                continue
            out = admit(state, rid, size, policy, rng)
            assert out.granted, (
                f"blocked below threshold: m={m} load={load} size={size}")
            active.append((rid, size))
            load += size
            rid += 1


def test_no_blocking_strictly_below_the_threshold():
    # Over a million random admit/release traces across three band sizes:
    # as long as the running load including the new arrival stays under the
    # threshold, no arrival may ever block, whichever policy fills the bins.
    start = time.perf_counter()
    for m, traces in ((2, 400_000), (3, 350_000), (4, 300_000)):
        scheme = RadixScheme.power_of_two(m)
        thr = strict_threshold(m)
        rng = Random(m)
        for t in range(traces):
            policy = MIN_SMALL_CHANGE if t & 1 else RANDOM
            run_threshold_trace(rng, scheme, thr, policy, steps=12)

    # At exactly the threshold the guarantee collapses: the worst-case
    # pattern of scattered singles defeats a request of the minimizing size.
    for m in (2, 3, 4):
        n = m // 2
        pattern, size = worst_case_scenario(m, n)
        assert len(pattern) + size == strict_threshold(m)
        scheme = RadixScheme.power_of_two(m)
        state = BinState(scheme)
        band = 1 << m
        for b in range(band):
            assert admit(state, b, 1, MIN_SMALL_CHANGE).granted
        for b in range(band):
            if b not in pattern:
                release(state, b)
        out = admit(state, band, size, MIN_SMALL_CHANGE)
        assert not out.granted
        assert out.status is AdmissionStatus.BLOCKED_FRAGMENTATION
        assert state.free_count >= size
    assert time.perf_counter() - start < 120.0


def test_multistream_admission_never_fragments():
    # 100,000 random traces with arbitrary sizes on a 64-bin band: gathering
    # may refuse a request only when too few bins are free in total.
    start = time.perf_counter()
    scheme = RadixScheme.power_of_two(6)
    band = 64
    rng = Random(64)
    for _ in range(100_000):
        state = BinState(scheme)
        active = []
        free = band
        rid = 0
        for _ in range(12):
            if active and rng.random() < 0.45:
                idx = rng.randrange(len(active))
                dead, size = active[idx]
                active[idx] = active[-1]
                active.pop()
                release(state, dead)
                free += size
            else:
                size = rng.randrange(1, band + 1)
                out = admit_multistream(state, rid, size)
                if out.granted:
                    active.append((rid, size))
                    free -= size
                    rid += 1
                else:
                    assert out.status is AdmissionStatus.BLOCKED_OVERLOAD
                    assert free < size
    assert time.perf_counter() - start < 60.0


def test_full_mix_blocking_anchors():
    # Reference points for the 1024-bin band under the full size mix at
    # offered load 0.5, as (center, half-width) bands.  The three policies
    # share one seed, so each replication sees identical traffic and the
    # policy gaps can be judged on paired differences.
    bands = {
        "gap_random_min": (0.1721, 0.03),
        "gap_min_ofdma": (0.0256, 0.015),
        "pf_min": (0.0309, 0.015),
        "pf_random": (0.2207, 0.03),
    }
    start = time.perf_counter()
    traffic = TrafficModel.full_mix(10, G=0.5)
    measure = 4000.0
    for _ in range(3):
        metrics: dict[str, SimMetrics] = {
            policy: run(SimConfig(traffic, policy, seed=0, warmup_time=1000,
                                  measure_time=measure, replications=10))
            for policy in (MIN_SMALL_CHANGE, RANDOM, "ofdma")
        }
        mn, rd, of = (metrics[p] for p in (MIN_SMALL_CHANGE, RANDOM, "ofdma"))
        diffs_rm = np.subtract(rd.per_rep_P_B, mn.per_rep_P_B)
        diffs_mo = np.subtract(mn.per_rep_P_B, of.per_rep_P_B)
        estimates = {
            "gap_random_min": (float(np.mean(diffs_rm)), paired_ci(diffs_rm)),
            "gap_min_ofdma": (float(np.mean(diffs_mo)), paired_ci(diffs_mo)),
            "pf_min": (mn.P_f, mn.P_f_ci),
            "pf_random": (rd.P_f, rd.P_f_ci),
        }
        if all(ci < bands[k][1] / 3 for k, (_, ci) in estimates.items()):
            break
        measure *= 2  # too noisy to judge; extend the measurement window
    assert of.P_f == 0.0
    assert all(x == 0 for x in of.r_f)
    for key, (value, ci) in estimates.items():
        center, half = bands[key]
        assert ci < half / 3, f"{key} still too noisy: ci={ci:.4f}"
        assert abs(value - center) < half, (
            f"{key}={value:.4f} outside {center}±{half}")
    assert time.perf_counter() - start < 600.0


def test_limited_mix_blocking_anchors():
    # With no request above 32 bins on the 1024-bin band, heavy load blocks
    # almost entirely through fragmentation, and under light load the min
    # policy is indistinguishable from the free-for-all reference.
    start = time.perf_counter()
    heavy = run(SimConfig(TrafficModel.limited_mix(10, G=0.9), MIN_SMALL_CHANGE,
                          seed=5, warmup_time=500, measure_time=3000,
                          replications=5))
    assert heavy.P_B_ci < 0.02 / 3
    assert 0.0 <= heavy.P_B - heavy.P_f < 0.02
    assert heavy.P_f > 0.0

    light = TrafficModel.limited_mix(10, G=0.3)
    light_min = run(SimConfig(light, MIN_SMALL_CHANGE, seed=5, warmup_time=500,
                              measure_time=3000, replications=5))
    light_of = run(SimConfig(light, "ofdma", seed=5, warmup_time=500,
                             measure_time=3000, replications=5))
    diffs = np.subtract(light_min.per_rep_P_B, light_of.per_rep_P_B)
    assert paired_ci(diffs) < 0.01 / 3
    assert abs(light_min.P_B - light_of.P_B) < 0.01
    assert time.perf_counter() - start < 600.0


def test_waveform_synthesis_matches_oracle_in_bulk():
    # 1000 random (block length, band size <= 256, offset) specs; the direct
    # time-domain form must match the transform reference everywhere, and
    # unit-modulus symbols must keep a flat envelope.
    start = time.perf_counter()
    rng = Random(256)
    gen = np.random.default_rng(256)
    worst_equiv = 0.0
    worst_envelope = 0.0
    for _ in range(1000):
        band = rng.randrange(2, 257)
        divisors = [n for n in range(1, band + 1) if band % n == 0]
        n = rng.choice(divisors)
        d = rng.randrange(band // n)
        symbols = gen.standard_normal(n) + 1j * gen.standard_normal(n)
        spec = StreamSpec(symbols, band, d)
        err = float(np.max(np.abs(stream_time(spec) - stream_freq_oracle(spec))))
        worst_equiv = max(worst_equiv, err)

        psk = np.exp(2j * np.pi * gen.random(n))
        mags = np.abs(stream_time(StreamSpec(psk, band, d)))
        spread = float(np.max(mags) - np.min(mags))
        worst_envelope = max(worst_envelope, spread)
    assert worst_equiv < 1e-9
    assert worst_envelope < 1e-12
    assert time.perf_counter() - start < 30.0


def test_repeat_simulation_runs_are_byte_identical(tmp_path, capsys):
    config = {
        "m": 4, "mix": "full", "G": [0.4, 0.8], "seed": 9,
        "policies": ["min_small_change", "random"],
        "warmup_time": 50, "measure_time": 300, "replications": 3,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(["sim", "--config", str(path), "--out", str(first)]) == 0
    assert cli_main(["sim", "--config", str(path), "--out", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()
    rows = first.read_text().splitlines()
    assert len(rows) == 5
    assert rows[0].startswith("policy,mix,G,")
