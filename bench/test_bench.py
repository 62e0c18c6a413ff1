"""Tests of the benchmark's own checks, references, inputs and tracer.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py

Every check must pass the program's real output and fail a deliberately
corrupted copy of it; the statistical checks must hold on many seeds
beyond the default.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402
from ifdma import cli, sim, waveform  # noqa: E402


def cli_json(argv: list[str]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return json.loads(out.getvalue())


# -- simulator references and checks -----------------------------------------


def test_kaufman_roberts_reproduces_the_workload_references():
    full = checks.kaufman_roberts(10, checks.mix_classes(10, "full"), 0.5)
    limited = checks.kaufman_roberts(10, checks.mix_classes(10, "limited"), 0.9)
    assert round(full, 5) == 0.12900
    assert round(limited, 5) == 0.03007


def test_kaufman_roberts_matches_a_brute_force_chain():
    # m=2, classes 0..2: the stationary law of the class-count vector
    m, classes, G = 2, (0, 1, 2), 0.7
    band = 1 << m
    lam = G * band / len(classes)  # per-class lam * holding, holding = 1
    states = [(a, b, c) for a in range(5) for b in range(3) for c in range(2)
              if a + 2 * b + 4 * c <= band]
    index = {s: i for i, s in enumerate(states)}
    q = np.zeros((len(states), len(states)))
    for s, i in index.items():
        for n, size in enumerate((1, 2, 4)):
            up = tuple(x + (j == n) for j, x in enumerate(s))
            if up in index:
                q[i, index[up]] += lam / size
            if s[n]:
                q[i, index[tuple(x - (j == n) for j, x in enumerate(s))]] += s[n]
        q[i, i] = -q[i].sum()
    a = np.vstack([q.T, np.ones(len(states))])
    p = np.linalg.lstsq(a, np.r_[np.zeros(len(states)), 1.0], rcond=None)[0]
    used = np.array([s[0] + 2 * s[1] + 4 * s[2] for s in states])
    blocking = [p[used > band - size].sum() for size in (1, 2, 4)]
    assert checks.kaufman_roberts(m, classes, G) == pytest.approx(np.mean(blocking), abs=1e-12)


SMALL = {"m": 5, "mix": "full", "G": 0.9, "policies": list(checks.SIM_POLICIES),
         "seed": 11, "warmup_time": 10.0, "measure_time": 150.0, "replications": 16}


@pytest.fixture(scope="module")
def small_round():
    return {cfg.policy: sim.run(cfg) for cfg in sim.build_configs(SMALL)}


def problems(results) -> dict[str, list[str]]:
    return {p: v for p, v in checks.check_sim_batch(SMALL, results).items() if v}


def test_real_sim_round_passes(small_round):
    assert problems(small_round) == {}
    assert checks.check_kaufman_roberts(SMALL, [small_round["ofdma"]]) == []
    assert any(small_round["min_small_change"].r_f)  # corruptions below can show


def test_swapped_policy_outputs_fail(small_round):
    swapped = dict(small_round, ofdma=small_round["min_small_change"],
                   min_small_change=small_round["ofdma"])
    assert "ofdma" in problems(swapped)
    swapped = dict(small_round, multistream=small_round["random"])
    assert "multistream" in problems(swapped)


@pytest.mark.parametrize("policy, change", [
    ("random", lambda mt: {"r": (mt.r[0] + 1,) + mt.r[1:]}),
    ("min_small_change", lambda mt: {"r_f": tuple(b + 1 for b in mt.r_B)}),
    ("min_small_change", lambda mt: {"mean_occupancy": mt.mean_occupancy * 1.5}),
    ("multistream", lambda mt: {"r_f": (1,) + mt.r_f[1:]}),
    ("ofdma", lambda mt: {"S": mt.S - 0.01}),
    ("ofdma", lambda mt: {"per_rep_P_B": tuple(x + 0.2 for x in mt.per_rep_P_B),
                          "P_B": mt.P_B + 0.2, "S": mt.S - 0.2}),
    ("random", lambda mt: {"r_B": (mt.r_B[0] + 1,) + mt.r_B[1:]}),
])
def test_corrupted_sim_output_fails(small_round, policy, change):
    mt = small_round[policy]
    corrupted = dict(small_round, **{policy: dataclasses.replace(mt, **change(mt))})
    assert policy in problems(corrupted)


def test_kaufman_roberts_check_fails_shifted_blocking(small_round):
    mt = small_round["ofdma"]
    for shift in (0.1, -0.1):
        moved = dataclasses.replace(mt, per_rep_P_B=tuple(x + shift for x in mt.per_rep_P_B))
        assert checks.check_kaufman_roberts(SMALL, [moved])
    wrong_mix = dict(SMALL, mix="limited")
    assert checks.check_kaufman_roberts(wrong_mix, [mt])


@pytest.mark.parametrize("name", ["sim_full_g05", "sim_limited_g09", "cli_tools"])
def test_statistical_checks_hold_on_many_seeds(name):
    # ofdma alone, three rounds a seed: the occupancy check on every run()
    # and the Kaufman-Roberts check on each seed's pooled replications
    part = workloads.WORKLOADS[name]
    part = part.main if isinstance(part.main, workloads.SimPart) else part.slice
    for seed in range(100, 130):
        results = []
        for k in range(3):
            for b in range(part.batches):
                doc = dict(part.inputs(seed, k, b), policies=["ofdma"])
                (cfg,) = sim.build_configs(doc)
                results.append(sim.run(cfg))
                assert checks.check_sim_batch(doc, {"ofdma": results[-1]}) == {"ofdma": []}
        assert checks.check_kaufman_roberts(part.inputs(seed, 0, 0), results) == [], seed
    for seed in (200, 201):  # every policy, as a run does it
        rounds = [part.round(seed, k, HERE / "work" / "test") for k in range(2)]
        part.check_run(rounds)
        assert [op.problems for r in rounds for op in r.ops] == [[]] * 8 * part.batches, seed


# -- CLI checks --------------------------------------------------------------


def test_map_check(tmp_path):
    for radices in ((2,) * 6, (2, 2, 3), (3, 4, 5, 2, 7)):
        if set(radices) == {2}:
            rows = cli_json(["map", "--m", str(len(radices)), "--json"])
        else:
            rows = cli_json(["map", "--radices", ",".join(map(str, radices)), "--json"])
        assert checks.check_map(rows, radices) == []
        bad = copy.deepcopy(rows)
        bad[1]["subcarrier"], bad[2]["subcarrier"] = bad[2]["subcarrier"], bad[1]["subcarrier"]
        assert checks.check_map(bad, radices)
        bad = copy.deepcopy(rows)
        bad[3]["subcarrier"] = bad[4]["subcarrier"]
        assert checks.check_map(bad, radices)
        assert checks.check_map(rows[:-1], radices)


@pytest.fixture(scope="module")
def alloc_cases(tmp_path_factory):
    ops = workloads.CliPart().inputs(5, 0, tmp_path_factory.mktemp("alloc"))
    return {op.label: (op, cli_json(op.argv)) for op in ops if op.label.startswith("alloc.")}


def test_alloc_check_passes_real_output(alloc_cases):
    assert len(alloc_cases) == 4
    for op, rows in alloc_cases.values():
        assert op.check(rows) == []


def test_alloc_check_fails_corrupted_grants(alloc_cases):
    op, rows = alloc_cases["alloc.sort_first"]
    a, b = next((x, y) for x in rows for y in rows if x is not y and x["size"] == y["size"])
    bad = copy.deepcopy(rows)
    bad[rows.index(b)].update(bins=a["bins"], subcarriers=a["subcarriers"])
    assert op.check(bad)  # overlapping grants
    assert op.check(rows[:-1])  # a request left out
    big = next(r for r in rows if r["size"] >= 4)
    bad = copy.deepcopy(rows)
    moved = bad[rows.index(big)]
    moved["subcarriers"] = sorted(moved["subcarriers"][:-1] + [moved["subcarriers"][-1] + 1])
    assert op.check(bad)  # no longer evenly spaced
    op, rows = alloc_cases["alloc.dc"]
    dc = int(op.argv[op.argv.index("--dc") + 1])
    bad = copy.deepcopy(rows)
    bad[0]["subcarriers"] = [dc] + bad[0]["subcarriers"][1:]
    assert op.check(bad)  # DC subcarrier granted
    op, rows = alloc_cases["alloc.multistream"]
    bad = copy.deepcopy(rows)
    bad[0]["bins"] = bad[0]["bins"][:-1] + [bad[1]["bins"][0]]
    assert op.check(bad)


def test_request_batches_fill_the_band():
    rng = np.random.default_rng(3)
    parts = workloads.split_batch(rng, [1024], 160)
    assert len(parts) == 160 and sum(parts) == 1024
    assert all(p & (p - 1) == 0 for p in parts)
    parts = workloads.split_batch(rng, [1 << j for j in range(10)], 160)
    assert len(parts) == 160 and sum(parts) == 1023
    sizes = workloads.composition(rng, 1024, 60)
    assert len(sizes) == 60 and sum(sizes) == 1024 and min(sizes) >= 1


def test_states_check():
    for argv, m, mode in ((["states", "--m", "3", "--json"], 3, "fine"),
                          (["states", "--m", "3", "--mode", "super", "--json"], 3, "super"),
                          (["states", "--m", "2", "--mode", "reachable", "--json"], 2,
                           "reachable")):
        out = cli_json(argv)
        assert checks.check_states(out, m, mode) == []
        for key in ("recurrence", "enumerated", "total", "departure_only"):
            if key in out:
                assert checks.check_states(dict(out, **{key: out[key] + 1}), m, mode)
    assert checks.f_count(4) == 458330 and checks.g_count(4) == 2279


def test_wave_check():
    argv = ["wave", "--N", "8", "--M", "64", "--d", "3", "--check", "equiv", "--seed", "4",
            "--blocks", "20", "--json"]
    out = cli_json(argv)
    assert checks.check_wave(out, 8, 64, 3, 4, 20, "equiv") == []
    assert checks.check_wave(dict(out, **{"pass": False}), 8, 64, 3, 4, 20, "equiv")
    assert checks.check_wave(out, 8, 64, 2, 4, 20, "equiv")
    rng = np.random.default_rng(0)
    blocks = [np.exp(2j * np.pi * rng.random(8)) for _ in range(3)]

    def real(x, band, shift):
        return waveform.stream_time(waveform.StreamSpec(x, band, shift))

    assert checks.check_wave_samples(real, 8, 64, 3, blocks, True) == []
    assert checks.check_wave_samples(lambda x, b, s: real(x, b, s + 1), 8, 64, 3, blocks, True)
    assert checks.check_wave_samples(lambda x, b, s: 2 * real(x, b, s), 8, 64, 3, blocks, True)


# -- tracer and runner -------------------------------------------------------


def test_self_time_subtracts_direct_children(monkeypatch):
    clock = iter([0.0, 1.0, 2.0, 3.0, 4.0, 6.0, 7.0, 8.0, 9.0, 12.0])
    monkeypatch.setattr(tracer_mod, "perf_counter", lambda: next(clock))
    t = tracer_mod.Tracer()
    with t.span("op.a", op=True):      # 0 .. 12
        with t.span("layer.x"):        # 1 .. 7
            with t.span("inner.y"):    # 2 .. 3
                pass
            with t.span("inner.y"):    # 4 .. 6
                pass
        with t.span("layer.x"):        # 8 .. 9
            pass
    assert t.self_times().tolist() == [5.0, 3.0, 1.0, 2.0, 1.0]
    (op,) = t.ops()
    assert (op.name, op.duration, op.self_time) == ("op.a", 12.0, 5.0)
    assert op.busy("layer") == 4.0 and op.busy("inner") == 3.0
    assert op.calls("layer") == 2 and op.calls("inner") == 2


def test_wrap_records_and_restores():
    t = tracer_mod.Tracer()

    class Box:
        @staticmethod
        def f(x):
            return x + 1

    original = Box.f
    t.wrap(Box, "f", "layer.f")
    with t.span("op.one", op=True):
        assert Box.f(1) == 2
    t.restore()
    assert Box.f is original
    (op,) = t.ops()
    assert op.inner["layer.f"][1] == 1


def test_benchmark_json_matches_the_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert m["unit"] == run.unit_of(m["name"])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_one_round_prints_every_metric(capsys, workload, trace):
    assert run.main(["--workload", workload, "--seconds", "0", "--trace", trace]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    kind = "per_layer" if trace == "1" else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in spec[kind]}
    # every layer is reached; the tracing overhead of a single round is a
    # difference of two noisy times and may come out either way
    assert all(m["value"] > 0 for name, m in result["metrics"].items()
               if name != "trace.overhead_s")
