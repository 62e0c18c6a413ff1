"""Simulator checks against exact loss-network results and its own contract.

The blocking estimates are validated two independent ways: the ofdma
reference must reproduce the Kaufman-Roberts occupancy recursion (the
band behaves as a single shared link when any subcarrier can serve any
user), and the bin-filling policies at m=2 must reproduce the stationary
distribution of the exact 26-state continuous-time chain, solved
separately with a dense linear solve and frozen here.
"""

import heapq
import io
from dataclasses import replace
from random import Random

import numpy as np
import pytest

import ifdma.sim as sim
from ifdma.allocator import (
    BinState,
    admit,
    admit_multistream,
    free_subsets,
    release,
)
from ifdma.sim import (
    CSV_COLUMNS,
    SimConfig,
    SimMetrics,
    TrafficModel,
    build_configs,
    offered_load,
    run,
    write_csv,
)
from invariants import check_consistency


def kaufman_roberts(m: int, G: float) -> float:
    """Load-weighted blocking of a C=2**m link, classes 0..m, equal bin-load."""
    band = 1 << m
    per_class = G * band / (m + 1)  # lam * holding, the same for every class
    q = [0.0] * (band + 1)
    q[0] = 1.0
    for j in range(1, band + 1):
        acc = 0.0
        for n in range(m + 1):
            size = 1 << n
            if j >= size:
                acc += per_class * q[j - size]
        q[j] = acc / j
    z = sum(q)
    p = [x / z for x in q]
    blocked = [sum(p[band - (1 << n) + 1 :]) for n in range(m + 1)]
    return sum(blocked) / (m + 1)


@pytest.fixture(scope="module")
def min_metrics() -> SimMetrics:
    """One medium-load run shared by the bookkeeping checks below."""
    traffic = TrafficModel.full_mix(4, G=0.7)
    cfg = SimConfig(traffic, "min_small_change", seed=7, warmup_time=300,
                    measure_time=3000, replications=4)
    return run(cfg)


class TestTrafficModel:
    def test_full_mix_classes_and_load(self):
        tm = TrafficModel.full_mix(3, G=0.5)
        assert tm.classes == (0, 1, 2, 3)
        assert tm.mix == "full"
        assert offered_load(tm) == pytest.approx(0.5)

    def test_limited_mix_stops_at_half(self):
        tm = TrafficModel.limited_mix(4, G=0.5)
        assert tm.classes == (0, 1, 2)
        tm = TrafficModel.limited_mix(5, G=1.0)
        assert tm.classes == (0, 1, 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            TrafficModel(-1, 1.0, (0,))
        with pytest.raises(ValueError):
            TrafficModel(3, -0.5, (0, 1))
        with pytest.raises(ValueError):
            TrafficModel(3, 1.0, ())
        with pytest.raises(ValueError):
            TrafficModel(3, 1.0, (1, 0))
        with pytest.raises(ValueError):
            TrafficModel(3, 1.0, (0, 0, 1))
        with pytest.raises(ValueError):
            TrafficModel(3, 1.0, (0, 4))

    def test_zero_rate_is_allowed(self):
        tm = TrafficModel(3, 0.0, (0, 1, 2))
        assert offered_load(tm) == 0.0


class TestSimConfig:
    def test_validation(self):
        traffic = TrafficModel.full_mix(2, G=0.5)
        with pytest.raises(ValueError):
            SimConfig(traffic, "greedy", seed=0)
        with pytest.raises(ValueError):
            SimConfig(traffic, "ofdma", seed=0, warmup_time=-1.0)
        with pytest.raises(ValueError):
            SimConfig(traffic, "ofdma", seed=0, measure_time=0.0)
        with pytest.raises(ValueError):
            SimConfig(traffic, "ofdma", seed=0, replications=0)


class TestDeterminism:
    def test_same_config_same_metrics_and_csv(self):
        traffic = TrafficModel.full_mix(3, G=0.6)
        cfg = SimConfig(traffic, "min_small_change", seed=11, warmup_time=50,
                        measure_time=300, replications=3)
        first, second = run(cfg), run(cfg)
        assert first == second
        a, b = io.StringIO(), io.StringIO()
        write_csv([first], a)
        write_csv([second], b)
        assert a.getvalue() == b.getvalue()

    def test_traffic_is_policy_independent(self):
        traffic = TrafficModel.full_mix(3, G=0.7)
        runs = [
            run(SimConfig(traffic, policy, seed=4, warmup_time=50,
                          measure_time=400, replications=2))
            for policy in ("min_small_change", "random", "ofdma", "multistream")
        ]
        arrivals = {mt.r for mt in runs}
        assert len(arrivals) == 1


class TestExactAnchors:
    def test_single_bin_is_erlang_b(self):
        # m=0: one bin, one class; the loss probability is G / (1 + G).
        traffic = TrafficModel.full_mix(0, G=0.5)
        cfg = SimConfig(traffic, "min_small_change", seed=2, warmup_time=200,
                        measure_time=4000, replications=4)
        mt = run(cfg)
        exact = 0.5 / 1.5
        assert abs(mt.P_B - exact) < 3 * mt.P_B_ci + 0.01
        assert mt.P_f == 0.0

    def test_ofdma_matches_kaufman_roberts(self):
        assert round(kaufman_roberts(10, 0.5), 5) == 0.12900
        traffic = TrafficModel.full_mix(10, G=0.5)
        cfg = SimConfig(traffic, "ofdma", seed=1, warmup_time=500,
                        measure_time=1000, replications=4)
        mt = run(cfg)
        assert abs(mt.P_B - 0.12900) < 3 * mt.P_B_ci + 0.003

    def test_min_policy_matches_exact_chain(self):
        # Band of 4 bins, full mix, G=0.7: stationary solve of the exact
        # 26-state continuous-time chain gives P_B=0.39867, P_f=0.00800
        # (identical for the min and random policies at this band size).
        traffic = TrafficModel.full_mix(2, G=0.7)
        cfg = SimConfig(traffic, "min_small_change", seed=3, warmup_time=500,
                        measure_time=8000, replications=5)
        mt = run(cfg)
        assert abs(mt.P_B - 0.39867) < 3 * mt.P_B_ci + 0.005
        assert abs(mt.P_f - 0.00800) < 3 * mt.P_f_ci + 0.003

    def test_random_policy_matches_exact_chain(self):
        traffic = TrafficModel.full_mix(2, G=0.7)
        cfg = SimConfig(traffic, "random", seed=3, warmup_time=500,
                        measure_time=8000, replications=5)
        mt = run(cfg)
        assert abs(mt.P_B - 0.39867) < 3 * mt.P_B_ci + 0.005
        assert abs(mt.P_f - 0.00800) < 3 * mt.P_f_ci + 0.003


class TestBookkeeping:
    def test_ofdma_never_blocks_on_fragmentation(self):
        traffic = TrafficModel.full_mix(4, G=1.2)
        cfg = SimConfig(traffic, "ofdma", seed=9, warmup_time=100,
                        measure_time=1500, replications=3)
        mt = run(cfg)
        assert mt.P_B > 0.1
        assert mt.P_f == 0.0
        assert all(x == 0 for x in mt.r_f)

    def test_multistream_never_blocks_on_fragmentation(self):
        traffic = TrafficModel.full_mix(4, G=1.2)
        cfg = SimConfig(traffic, "multistream", seed=9, warmup_time=100,
                        measure_time=1500, replications=3)
        mt = run(cfg)
        assert mt.P_B > 0.1
        assert all(x == 0 for x in mt.r_f)

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("doc", [
        {"m": 4, "mix": "full", "G": 1.2},
        {"m": 6, "mix": "limited", "G": 0.9},
        {"m": 8, "mix": "full", "G": 0.5},
        {"m": 5, "classes": [0, 2, 5], "G": 1.0},
    ])
    def test_multistream_loses_exactly_what_ofdma_loses(self, doc, seed):
        # Both grant exactly when enough bins are free, so on one trace every
        # counter and ratio matches, unless multistream misjudges the free
        # count or loses a range of a multi-range grant on release.
        doc = dict(doc, seed=seed, policies=["multistream", "ofdma"],
                   warmup_time=100, measure_time=500, replications=2)
        multistream, ofdma = (run(cfg) for cfg in build_configs(doc))
        assert sum(ofdma.r_B) > 0
        assert replace(multistream, policy="ofdma") == ofdma

    def test_counter_ordering(self, min_metrics):
        mt = min_metrics
        assert all(b <= a for a, b in zip(mt.r, mt.r_B))
        assert all(f <= b for b, f in zip(mt.r_B, mt.r_f))
        assert len(mt.per_rep_P_B) == mt.replications
        assert mt.S == 1.0 - mt.P_B

    def test_measured_load_tracks_offered_load(self, min_metrics):
        assert min_metrics.measured_G == pytest.approx(0.7, rel=0.05)

    def test_occupancy_obeys_littles_law(self, min_metrics):
        # Mean occupied bins = carried bin-load rate x mean holding time.
        mt = min_metrics
        total_time = 4 * 3000.0
        carried = sum((1 << n) * (a - b)
                      for n, (a, b) in enumerate(zip(mt.r, mt.r_B)))
        expect = carried / total_time * 1.0
        assert mt.mean_occupancy == pytest.approx(expect, rel=0.05)

    def test_zero_rate_blocks_nothing(self):
        traffic = TrafficModel(3, 0.0, (0, 1, 2, 3))
        cfg = SimConfig(traffic, "min_small_change", seed=0, warmup_time=10,
                        measure_time=100, replications=2)
        mt = run(cfg)
        assert mt.P_B == 0.0 and mt.P_f == 0.0 and mt.S == 1.0
        assert mt.measured_G == 0.0 and mt.mean_occupancy == 0.0
        assert all(x == 0 for x in mt.r)


# (time, class, hold) of a hand-built trace.  Class TOP stands for m, a
# request for the whole band, so every grant below hinges on what was freed
# just before it.
TOP = -1
ORDER_TRACE = (
    (0.0, TOP, 1.0),  # 0: fills the band until t=1.0 (before the warm-up ends)
    (0.5, 0, 0.1),    # 1: refused, yet its departure time sorts before 0's
    (1.0, TOP, 1.0),  # 2: granted only if 0, departing at exactly 1.0, is freed first
    (2.0, 0, 0.5),    # 3: 2 departs at exactly 2.0
    (2.0, 0, 0.5),    # 4: departs at 2.5 with 3, after it (id order)
    (2.5, TOP, 0.0),  # 5: needs both 3 and 4 freed; a hold of 0.0 ends at 2.5
    (2.5, TOP, 1.0),  # 6: needs 5, granted at this same instant, freed first
    (3.0, 0, 0.0),    # 7: refused: the band is full until 3.5
    (3.5, 0, 0.2),    # 8: 6 departs at exactly 3.5
    (4.0, 0, 3.0),    # 9..13: fill bins, free every other one, then ask
    (4.1, 0, 0.5),    #        for a pair: a fragmentation loss for min
    (4.2, 0, 3.0),
    (4.3, 0, 0.5),
    (5.0, 1, 1.0),
    (6.0, TOP, 1.0),  # 14: refused while 9 and 11 still hold their bins
)


def order_trace(m: int):
    """ORDER_TRACE on a band of 2**m, in the arrays _traffic_trace returns."""
    times, klass, holds = zip(*((t, m if n == TOP else n, h) for t, n, h in ORDER_TRACE))
    return np.array(times), np.array(klass, dtype=np.int64), np.array(holds), 12345


def heap_replication(cfg: SimConfig, trace) -> tuple[dict, BinState | None]:
    """The event loop as a departure heap keyed by (time, arrival index).

    This is the order the simulator is bound to: every departure at or
    before an arrival's time is freed before that arrival, and departures
    at one instant in arrival order.
    """
    times, klass, holds, adm_seed = trace
    m, band, warm = cfg.traffic.m, 1 << cfg.traffic.m, cfg.warmup_time
    horizon = warm + cfg.measure_time
    ofdma = cfg.policy == "ofdma"
    rng = Random(adm_seed) if cfg.policy == "random" else None
    state = None if ofdma else BinState(cfg.traffic.scheme)
    r, r_b, r_f = [0] * (m + 1), [0] * (m + 1), [0] * (m + 1)
    occupied, occ_area, prev_t = 0, 0.0, warm
    heap = []
    for i, (t, n, h) in enumerate(zip(times.tolist(), klass.tolist(), holds.tolist())):
        while heap and heap[0][0] <= t:
            dep_t, rid, sz = heapq.heappop(heap)
            if dep_t > prev_t:
                occ_area += occupied * (dep_t - prev_t)
                prev_t = dep_t
            occupied -= sz
            if not ofdma:
                release(state, rid)
        size = 1 << n
        counted = t >= warm
        r[n] += counted
        fits = occupied + size <= band
        if ofdma or not fits:
            granted = fits
        elif cfg.policy == "multistream":
            granted = admit_multistream(state, i, size).granted
        else:
            granted = admit(state, i, size, cfg.policy, rng).granted
        if granted:
            if t > prev_t:
                occ_area += occupied * (t - prev_t)
                prev_t = t
            occupied += size
            heapq.heappush(heap, (t + h, i, size))
        elif counted:
            r_b[n] += 1
            r_f[n] += fits
    if horizon > prev_t:
        occ_area += occupied * (horizon - prev_t)
    return {"r": r, "r_B": r_b, "r_f": r_f, "occ_area": occ_area}, state


class TestEventOrder:
    @pytest.mark.parametrize("policy", sim.POLICIES)
    @pytest.mark.parametrize("m", [1, 2])
    def test_departures_free_in_heap_order(self, monkeypatch, m, policy):
        trace = order_trace(m)
        monkeypatch.setattr(sim, "_traffic_trace", lambda traffic, horizon, ss: trace)
        states = []

        def keep_state(scheme):
            states.append(BinState(scheme))
            return states[-1]

        monkeypatch.setattr(sim, "BinState", keep_state)
        cfg = SimConfig(TrafficModel.full_mix(m, G=0.5), policy, seed=0,
                        warmup_time=0.25, measure_time=8.0, replications=1)
        got = sim._run_replication(cfg, None)
        want, ref_state = heap_replication(cfg, trace)
        assert got == want
        if policy != "ofdma":
            (state,) = states
            check_consistency(state)
            assert (state.groups, free_subsets(state)) == (ref_state.groups,
                                                           free_subsets(ref_state))

    def test_hand_counted_ofdma_blocks(self, monkeypatch):
        # arrivals 2, 5 and 6 are granted only in heap order; 1, 7, 11, 12,
        # 13 and 14 are refused on a band of 2
        monkeypatch.setattr(sim, "_traffic_trace", lambda traffic, horizon, ss: order_trace(1))
        cfg = SimConfig(TrafficModel.full_mix(1, G=0.5), "ofdma", seed=0,
                        warmup_time=0.25, measure_time=8.0, replications=1)
        got = sim._run_replication(cfg, None)
        assert (got["r"], got["r_B"], got["r_f"]) == ([9, 5], [4, 2], [0, 0])


class TestModuleNames:
    """run() reaches the allocator through sim's own names, which the
    benchmark's traced rounds patch to time each call."""

    @pytest.mark.parametrize("policy, name", [
        ("min_small_change", "admit"),
        ("random", "admit"),
        ("multistream", "admit_multistream"),
    ])
    def test_run_calls_admit_and_release_by_module_name(self, monkeypatch, policy, name):
        calls = {name: 0, "release": 0}

        def counting(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        for key in calls:
            monkeypatch.setattr(sim, key, counting(key, getattr(sim, key)))
        cfg = SimConfig(TrafficModel.full_mix(4, G=0.9), policy, seed=3,
                        warmup_time=5, measure_time=30, replications=1)
        run(cfg)
        assert calls[name] > 0 and calls["release"] > 0

    def test_a_failing_release_stops_run(self, monkeypatch):
        calls = []

        def broken(state, request_id):
            calls.append(request_id)
            raise RuntimeError("release failed")

        monkeypatch.setattr(sim, "release", broken)
        cfg = SimConfig(TrafficModel.full_mix(4, G=0.9), "min_small_change", seed=3,
                        warmup_time=5, measure_time=30, replications=1)
        with pytest.raises(RuntimeError, match="release failed"):
            run(cfg)
        assert len(calls) == 1


class TestBuildConfigs:
    BASE = {"m": 3, "mix": "full", "G": [0.5, 0.7], "seed": 42,
            "policies": ["min_small_change", "ofdma"]}

    def test_expands_policy_by_load_grid(self):
        cfgs = build_configs(dict(self.BASE))
        assert [(c.policy, offered_load(c.traffic)) for c in cfgs] == [
            ("min_small_change", 0.5), ("min_small_change", 0.7),
            ("ofdma", 0.5), ("ofdma", 0.7),
        ]
        assert all(c.seed == 42 for c in cfgs)

    def test_scalar_load_and_single_policy(self):
        cfgs = build_configs({"m": 2, "policies": ["random"], "G": 0.4, "seed": 1})
        assert len(cfgs) == 1
        assert cfgs[0].policy == "random"
        assert cfgs[0].traffic.mix == "full"

    def test_explicit_classes(self):
        cfgs = build_configs({"m": 4, "classes": [0, 2], "G": 0.1875, "seed": 0,
                              "policies": ["ofdma"]})
        assert cfgs[0].traffic.classes == (0, 2)
        assert cfgs[0].traffic.lam == 1.5
        assert cfgs[0].traffic.mix == "custom"

    def test_optional_knobs_pass_through(self):
        doc = dict(self.BASE, warmup_time=5, measure_time=50, replications=2)
        cfg = build_configs(doc)[0]
        assert cfg.warmup_time == 5.0
        assert cfg.measure_time == 50.0
        assert cfg.replications == 2

    def test_integral_floats_count_as_ints(self):
        doc = dict(self.BASE, m=3.0, seed=42.0, replications=2.0, classes=[0.0, 2.0])
        del doc["mix"]
        cfg = build_configs(doc)[0]
        assert (cfg.traffic.m, cfg.seed, cfg.replications) == (3, 42, 2)
        assert cfg.traffic.classes == (0, 2)
        assert all(type(x) is int for x in (cfg.traffic.m, cfg.seed, cfg.replications))

    @pytest.mark.parametrize("mutate", [
        lambda d: d.pop("m"),
        lambda d: d.pop("seed"),
        lambda d: d.pop("policies"),
        lambda d: d.pop("G"),
        lambda d: d.update(lam=1.0),
        lambda d: d.update(classes=[0, 1]),
        lambda d: d.update(mix="bursty"),
        lambda d: d.update(typo=1),
    ])
    def test_rejects_malformed_documents(self, mutate):
        doc = dict(self.BASE)
        mutate(doc)
        with pytest.raises(ValueError):
            build_configs(doc)

    def test_rejects_non_object(self):
        with pytest.raises(ValueError):
            build_configs([1, 2])


class TestCsv:
    def test_header_and_row_shape(self):
        traffic = TrafficModel.full_mix(2, G=0.5)
        cfg = SimConfig(traffic, "ofdma", seed=5, warmup_time=10,
                        measure_time=100, replications=2)
        rows = [run(cfg)]
        buf = io.StringIO()
        write_csv(rows, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 2
        cells = lines[1].split(",")
        assert cells[0] == "ofdma" and cells[1] == "full"
        assert float(cells[2]) == 0.5
        assert float(cells[7]) == 1.0 - float(cells[3])
        assert cells[8] == "5" and cells[9] == "2"
