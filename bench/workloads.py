"""The benchmark's workloads: inputs made from a seed, timed calls, checks.

A workload runs in rounds.  One round calls the program once per
operation on inputs made from (seed, round index) and checks every
output with ``checks``.  Only the calls into the program are timed; making
inputs and checking outputs are not.  ``round`` takes an optional
``Tracer``: with one, the layer boundaries are wrapped for the length of
the round and every call is recorded as a span.

Each workload has a main part, the load it exists for, and a small slice
of the other kind (a short simulation for ``cli_tools``, one pass over
the CLI commands for the simulator workloads), so that every end-to-end
metric has a measured value in every workload.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

import checks
from ifdma import allocator, cli, sim, statespace, waveform
from tracer import OpSpans, Tracer

SIM_POLICIES = checks.SIM_POLICIES
SUBCOMMANDS = ("map", "alloc", "states", "wave")

# Free blocks are counted through free_subsets on every SAMPLE_EVERY-th
# admission of a traced round, inside a span of their own, so that the
# counting cost is not charged to the simulator or the allocator.
SAMPLE_EVERY = 16


def sub_seed(*words: int) -> int:
    """A 32-bit seed that depends on every word given."""
    return int(np.random.SeedSequence(list(words)).generate_state(1)[0])


@dataclass
class Op:
    label: str
    seconds: float
    problems: list[str] = field(default_factory=list)
    error: str | None = None
    arrivals: int = 0
    result: object = None  # the program's SimMetrics, for checks across a run

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.problems)


@dataclass
class Round:
    ops: list[Op]
    stats: dict = field(default_factory=dict)
    peak_mb: float = 0.0  # process peak resident set after the main part

    @property
    def wall(self) -> float:
        return sum(op.seconds for op in self.ops)


def median(xs) -> float:
    xs = list(xs)
    return float(statistics.median(xs)) if xs else 0.0


# -- simulator workloads -----------------------------------------------------


@dataclass(frozen=True)
class SimPart:
    """All four policies on one sim config, at ``batches`` fresh seeds a round.

    Each run() is one operation.  The Kaufman-Roberts test pools the ofdma
    replications of every round of a run (``check_run``).
    """

    mix: str
    G: float
    batches: int
    replications: int
    warmup_time: float
    measure_time: float
    m: int = 10

    def inputs(self, seed: int, k: int, batch: int) -> dict:
        return {"m": self.m, "mix": self.mix, "G": self.G, "policies": list(SIM_POLICIES),
                "seed": sub_seed(seed, k, batch, 1), "warmup_time": self.warmup_time,
                "measure_time": self.measure_time, "replications": self.replications}

    def setup(self, seed: int, workdir: Path) -> None:
        """Parse the first round's configs and run each policy once, briefly.

        ``workdir`` is unused."""
        for b in range(self.batches):
            sim.build_configs(self.inputs(seed, 0, b))
        tiny = dict(self.inputs(seed, 0, 0), replications=1, warmup_time=0.0, measure_time=1.0)
        for cfg in sim.build_configs(tiny):
            sim.run(cfg)

    def round(self, seed: int, k: int, workdir: Path, tracer: Tracer | None = None) -> Round:
        """One policy run per operation; ``workdir`` is unused."""
        stats = {p: {"calls": 0, "grants": 0, "free_blocks": 0, "samples": 0}
                 for p in SIM_POLICIES}
        ops = []
        for b in range(self.batches):
            results = {}
            for cfg in sim.build_configs(self.inputs(seed, k, b)):
                op = Op(f"run.{cfg.policy}", 0.0)
                try:
                    if tracer is None:
                        t0 = perf_counter()
                        mt = sim.run(cfg)
                        op.seconds = perf_counter() - t0
                    else:
                        _trace_sim(tracer, stats[cfg.policy])
                        try:
                            with tracer.span(f"sim.run.{cfg.policy}", op=True) as idx:
                                mt = sim.run(cfg)
                            op.seconds = tracer.end[idx] - tracer.start[idx]
                        finally:
                            tracer.restore()
                except Exception as exc:  # a failed operation is counted, not fatal
                    op.error = f"{type(exc).__name__}: {exc}"
                else:
                    results[cfg.policy] = op.result = mt
                    op.arrivals = sum(mt.r)
                ops.append(op)
            problems = checks.check_sim_batch(self.inputs(seed, k, b), results)
            for op in ops[-len(SIM_POLICIES):]:
                op.problems = problems.get(op.label.split(".", 1)[1], [])
        return Round(ops, stats)

    def check_run(self, rounds: list[Round]) -> None:
        ofdma = [op for r in rounds for op in r.ops if op.label == f"run.{checks.OFDMA}"]
        problems = checks.check_kaufman_roberts(
            self.inputs(0, 0, 0), [op.result for op in ofdma if op.result is not None])
        for op in ofdma:
            op.problems += problems

    def metrics(self, rounds: list[Round]) -> dict[str, float]:
        out = {}
        for p in SIM_POLICIES:
            rates = [op.arrivals / op.seconds for r in rounds for op in r.ops
                     if op.label == f"run.{p}" and not op.failed]
            out[f"arrivals_per_s.{p}"] = median(rates)
        return out

    def layer_metrics(self, rounds: list[Round], spans: list[list[OpSpans]]) -> dict[str, float]:
        out = {}
        for p in SIM_POLICIES:
            runs = [s for ops in spans for s in ops if s.name == f"sim.run.{p}"]
            out[f"sim.self_s.{p}"] = median(s.self_time for s in runs)
            if p == checks.OFDMA:
                continue
            admit = "allocator.admit_multistream" if p == checks.MULTISTREAM else "allocator.admit"
            out[f"allocator.admit_s.{p}"] = median(s.inner.get(admit, (0.0, 0))[0] for s in runs)
            out[f"allocator.release_s.{p}"] = median(
                s.inner.get("allocator.release", (0.0, 0))[0] for s in runs)
            first = rounds[0].stats[p]
            out[f"allocator.grants.{p}"] = first["grants"]
            out[f"allocator.free_blocks.{p}"] = first["free_blocks"] / max(first["samples"], 1)
        return out


def _trace_sim(tracer: Tracer, stats: dict) -> None:
    """Wrap the allocator calls of ``ifdma.sim`` for one policy run."""
    tracer.wrap(sim, "release", "allocator.release")
    begin, finish = tracer.begin, tracer.finish
    sample_id = tracer.name_id("trace.sample")
    free_subsets = allocator.free_subsets

    def make(fn, name):
        nid = tracer.name_id(name)

        def traced(state, *args, **kwargs):
            stats["calls"] += 1
            if stats["calls"] % SAMPLE_EVERY == 0:
                idx = begin(sample_id)
                stats["free_blocks"] += len(free_subsets(state))
                stats["samples"] += 1
                finish(idx)
            idx = begin(nid)
            try:
                out = fn(state, *args, **kwargs)
            finally:
                finish(idx)
            stats["grants"] += out.granted
            return out

        return traced

    tracer.patch(sim, "admit", make(sim.admit, "allocator.admit"))
    tracer.patch(sim, "admit_multistream",
                 make(sim.admit_multistream, "allocator.admit_multistream"))


# -- CLI workload ------------------------------------------------------------

BAND_M = 10
COMPOSITE_RADICES = (2, 3, 4, 5, 7)  # 840 bins; the seed picks their order
BATCH_REQUESTS = 160
MULTISTREAM_REQUESTS = 60
WAVE_BLOCKS = 300
WAVE_SAMPLES = 3


@dataclass
class CliOp:
    label: str  # "<subcommand>.<variant>"
    argv: list[str]
    check: Callable[[object], list[str]]
    after: Callable[[], list[str]] | None = None  # a check that calls the library


def split_batch(rng: np.random.Generator, parts: list[int], count: int) -> list[int]:
    """Halve randomly chosen parts until there are ``count`` powers of two."""
    parts = list(parts)
    while len(parts) < count:
        big = [i for i, s in enumerate(parts) if s > 1]
        i = big[int(rng.integers(len(big)))]
        parts[i] //= 2
        parts.append(parts[i])
    rng.shuffle(parts)
    return parts


def composition(rng: np.random.Generator, total: int, count: int) -> list[int]:
    """``count`` positive sizes summing to ``total``, cut points uniform."""
    cuts = np.sort(rng.choice(np.arange(1, total), size=count - 1, replace=False))
    edges = [0, *cuts.tolist(), total]
    return [b - a for a, b in zip(edges, edges[1:])]


def write_requests(path: Path, sizes: list[int]) -> list[tuple[str, int]]:
    items = [(f"u{i:03d}", s) for i, s in enumerate(sizes)]
    path.write_text(json.dumps([{"name": n, "size": s} for n, s in items]))
    return items


@dataclass(frozen=True)
class CliPart:
    """Every CLI subcommand but ``sim``, in-process through ``ifdma.cli.main``."""

    def inputs(self, seed: int, k: int, workdir: Path) -> list[CliOp]:
        rng = np.random.default_rng([seed, k, 2])
        band = 1 << BAND_M
        m = str(BAND_M)
        radices = tuple(int(p) for p in rng.permutation(COMPOSITE_RADICES))
        dc = int(rng.integers(band))
        workdir.mkdir(parents=True, exist_ok=True)
        full = write_requests(workdir / "batch.json",
                              split_batch(rng, [band], BATCH_REQUESTS))
        min_batch = write_requests(workdir / "min.json",
                               split_batch(rng, [band], BATCH_REQUESTS))
        with_dc = write_requests(workdir / "dc.json", split_batch(
            rng, [1 << j for j in range(BAND_M)], BATCH_REQUESTS))
        gather = write_requests(workdir / "multistream.json",
                                composition(rng, band, MULTISTREAM_REQUESTS))

        ops = [
            CliOp("map.pow2", ["map", "--m", m, "--json"],
                  lambda out: checks.check_map(out, (2,) * BAND_M)),
            CliOp("map.composite", ["map", "--radices", ",".join(map(str, radices)), "--json"],
                  lambda out: checks.check_map(out, radices)),
            CliOp("alloc.sort_first", ["alloc", "--m", m, "--requests",
                                       f"@{workdir / 'batch.json'}", "--json"],
                  lambda out: checks.check_alloc(out, full, BAND_M, None, False)),
            CliOp("alloc.min_small_change", ["alloc", "--m", m, "--requests",
                                             f"@{workdir / 'min.json'}",
                                             "--policy", "min-small-change", "--json"],
                  lambda out: checks.check_alloc(out, min_batch, BAND_M, None, False)),
            CliOp("alloc.dc", ["alloc", "--m", m, "--requests", f"@{workdir / 'dc.json'}",
                               "--dc", str(dc), "--json"],
                  lambda out: checks.check_alloc(out, with_dc, BAND_M, dc, False)),
            CliOp("alloc.multistream", ["alloc", "--m", m, "--requests",
                                        f"@{workdir / 'multistream.json'}",
                                        "--multistream", "--json"],
                  lambda out: checks.check_alloc(out, gather, BAND_M, None, True)),
            CliOp("states.fine", ["states", "--m", "4", "--json"],
                  lambda out: checks.check_states(out, 4, "fine")),
            CliOp("states.super", ["states", "--m", "4", "--mode", "super", "--json"],
                  lambda out: checks.check_states(out, 4, "super")),
        ]
        for policy in ("min-small-change", "random"):
            ops.append(CliOp(f"states.reachable_{policy}",
                             ["states", "--m", "3", "--mode", "reachable",
                              "--policy", policy, "--json"],
                             lambda out: checks.check_states(out, 3, "reachable")))
        for check, n, psk in (("equiv", 32, False), ("envelope", 16, True)):
            shift = int(rng.integers(band // n))
            wave_seed = int(rng.integers(2**31))
            if psk:
                blocks = [np.exp(2j * np.pi * rng.random(n)) for _ in range(WAVE_SAMPLES)]
            else:
                blocks = [rng.standard_normal(n) + 1j * rng.standard_normal(n)
                          for _ in range(WAVE_SAMPLES)]
            ops.append(CliOp(
                f"wave.{check}",
                ["wave", "--N", str(n), "--M", str(band), "--d", str(shift), "--check", check,
                 "--seed", str(wave_seed), "--blocks", str(WAVE_BLOCKS), "--json"],
                lambda out, n=n, s=shift, w=wave_seed, c=check: checks.check_wave(
                    out, n, band, s, w, WAVE_BLOCKS, c),
                lambda n=n, s=shift, b=blocks, psk=psk: checks.check_wave_samples(
                    _synth, n, band, s, b, psk)))
        return ops

    def setup(self, seed: int, workdir: Path) -> None:
        """Make the first round's inputs and call each subcommand once, small."""
        self.inputs(seed, 0, workdir)
        for argv in (["map", "--m", "3", "--json"],
                     ["alloc", "--m", "3", "--requests", "A:1,B:4", "--json"],
                     ["states", "--m", "2", "--json"],
                     ["wave", "--N", "2", "--M", "8", "--seed", "1", "--blocks", "2", "--json"]):
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(argv)

    def round(self, seed: int, k: int, workdir: Path, tracer: Tracer | None = None) -> Round:
        ops = []
        for spec in self.inputs(seed, k, workdir):
            op = Op(spec.label, 0.0)
            out, err = io.StringIO(), io.StringIO()
            if tracer is not None:
                _trace_cli(tracer)
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    if tracer is None:
                        t0 = perf_counter()
                        rc = cli.main(spec.argv)
                        op.seconds = perf_counter() - t0
                    else:
                        with tracer.span(f"cli.{spec.label}", op=True) as idx:
                            rc = cli.main(spec.argv)
                        op.seconds = tracer.end[idx] - tracer.start[idx]
            except Exception as exc:  # a failed operation is counted, not fatal
                op.error = f"{type(exc).__name__}: {exc}"
            else:
                if rc != 0:
                    op.error = f"exit {rc}: {err.getvalue().strip()[:200]}"
            finally:
                if tracer is not None:
                    tracer.restore()
            if op.error is None:
                try:
                    op.problems = spec.check(json.loads(out.getvalue()))
                except (ValueError, TypeError, KeyError, AttributeError) as exc:
                    op.problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
                if not op.problems and spec.after is not None:
                    op.problems = spec.after()
            ops.append(op)
        return Round(ops)

    def metrics(self, rounds: list[Round]) -> dict[str, float]:
        return {f"cmd_s.{c}": median(sum(op.seconds for op in r.ops
                                         if op.label.split(".")[0] == c) for r in rounds)
                for c in SUBCOMMANDS}

    def layer_metrics(self, rounds: list[Round], spans: list[list[OpSpans]]) -> dict[str, float]:
        def per_round(prefix: str, value) -> float:
            """Median over rounds of value summed over the ops labelled prefix*."""
            return median(sum(value(s) for s in ops if s.name.startswith(f"cli.{prefix}"))
                          for ops in spans)

        def busy(layer):
            return lambda s: s.busy(layer)

        def inner(name):
            return lambda s: s.inner.get(name, (0.0, 0))[0]

        out = {f"cli.self_s.{c}": per_round(f"{c}.", lambda s: s.self_time)
               for c in SUBCOMMANDS}
        out.update({
            "mapping.busy_s.map": per_round("map.", busy("mapping")),
            "mapping.calls.map": sum(s.calls("mapping") for s in spans[0]
                                     if s.name.startswith("cli.map.")),
            "mapping.busy_s.alloc": per_round("alloc.", busy("mapping")),
            "allocator.busy_s.alloc": per_round("alloc.", busy("allocator")),
            "statespace.busy_s.fine": per_round("states.fine", busy("statespace")),
            "statespace.busy_s.super": per_round("states.super", busy("statespace")),
            "statespace.busy_s.reachable": per_round("states.reachable", busy("statespace")),
            "allocator.busy_s.reachable": per_round("states.reachable", busy("allocator")),
            "waveform.busy_s.synth": per_round("wave.", inner("waveform.stream_time")),
            "waveform.busy_s.oracle": per_round("wave.", inner("waveform.stream_freq_oracle")),
            "waveform.busy_s.spec": per_round("wave.", inner("waveform.StreamSpec")),
        })
        return out


def _synth(x: np.ndarray, band: int, shift: int) -> np.ndarray:
    return waveform.stream_time(waveform.StreamSpec(x, band, shift))


def _trace_cli(tracer: Tracer) -> None:
    """Wrap each layer's names where ``ifdma.cli`` and its callees bind them."""
    for attr in ("bin_digits", "digit_reverse"):
        tracer.wrap(cli, attr, f"mapping.{attr}")
    for attr in ("range_to_subcarriers", "bin_for_subcarrier"):
        tracer.wrap(allocator, attr, f"mapping.{attr}")
    for attr in ("BinState", "allocate_batch_sync", "admit_multistream", "dcr_state"):
        tracer.wrap(cli, attr, f"allocator.{attr}")
    for attr in ("enumerate_fine", "enumerate_super", "f_rec", "g_rec", "reachable_states"):
        tracer.wrap(cli, attr, f"statespace.{attr}")
    for attr in ("admit", "release"):
        tracer.wrap(statespace, attr, f"allocator.{attr}")
    tracer.wrap(statespace, "state_tree", "statespace.state_tree")
    tracer.wrap(allocator.BinState, "clone", "allocator.clone")
    for attr in ("StreamSpec", "stream_time", "stream_freq_oracle"):
        tracer.wrap(cli, attr, f"waveform.{attr}")


@dataclass(frozen=True)
class Workload:
    name: str
    main: SimPart | CliPart
    slice: SimPart | CliPart

    def setup(self, seed: int, workdir: Path) -> None:
        self.main.setup(seed, workdir)
        self.slice.setup(seed, workdir)

    def round(self, seed: int, k: int, workdir: Path, tracer: Tracer | None = None) -> Round:
        main = self.main.round(seed, k, workdir, tracer)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        extra = self.slice.round(seed, k, workdir, tracer)
        return Round(main.ops + extra.ops, {**main.stats, **extra.stats}, peak)

    def check_run(self, rounds: list[Round]) -> None:
        """Checks that take every round of a run at once."""
        for part in (self.main, self.slice):
            if isinstance(part, SimPart):
                part.check_run(rounds)

    def metrics(self, rounds: list[Round]) -> dict[str, float]:
        # the slice of the other kind runs after the main part, so round 0's
        # peak holds the main part and the set-up only
        return {"wall_s": median(r.wall for r in rounds), "peak_rss_mb": rounds[0].peak_mb,
                **self.main.metrics(rounds), **self.slice.metrics(rounds)}

    def layer_metrics(self, rounds: list[Round], spans: list[list[OpSpans]]) -> dict[str, float]:
        return {**self.main.layer_metrics(rounds, spans),
                **self.slice.layer_metrics(rounds, spans)}


WORKLOADS = {
    w.name: w
    for w in (
        # The paper's operating point: 1024 bins, classes 0..10, G = 0.5.
        Workload("sim_full_g05", SimPart("full", 0.5, batches=6, replications=2,
                                         warmup_time=5.0, measure_time=25.0), CliPart()),
        # 3.2x the arrivals per time unit, ~870 busy bins, fragmentation blocking.
        Workload("sim_limited_g09", SimPart("limited", 0.9, batches=5, replications=2,
                                            warmup_time=5.0, measure_time=4.0), CliPart()),
        # The layers the simulator bypasses, plus a short simulation of a
        # 256-bin band whose size classes (0..4) all arrive often, so that a
        # few replications give a usable blocking estimate.
        Workload("cli_tools", CliPart(), SimPart("limited", 0.9, batches=1, replications=4,
                                                 warmup_time=5.0, measure_time=3.0, m=8)),
    )
}
