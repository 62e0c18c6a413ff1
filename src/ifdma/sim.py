"""Monte-Carlo blocking simulation of one shared band.

Requests of size 2**n arrive in independent Poisson streams, one per
size class n, with rate lam / 2**n each, hold their bins for an
exponential time of mean 1, and are lost if blocked: every time is in
units of the mean holding time.  Scaling class-n arrivals by 2**-n makes
every class offer the same bin-load, so the normalized offered load is

    G = |classes| * lam / 2**m.

Four admission policies are simulated: the two single-stream bin-filling
policies (``min_small_change``, ``random``), ``multistream`` gathering,
and an ``ofdma`` reference that tracks only a busy-bin counter (any
subcarrier may go to any user).

One rule decides overload for every policy: a request is refused as
overload when the busy-bin counter leaves fewer bins free than it asks
for.  Only when enough bins are free is the allocator asked to place
it, and a refusal then is a fragmentation loss, which ofdma never has.

Departures are scheduled from the trace: each replication draws every
arrival's time and holding time up front, sorts the departure times once,
ties broken by arrival index, and frees each granted request in that
order, every departure at or before an arrival's time before that arrival.

Blocking is reported load-weighted: P_B sums 2**n over blocked class-n
arrivals divided by the same sum over all arrivals, and P_f does the
same for the fragmentation losses alone.  Replications differ only in
their seed substream; every metric is deterministic for a given config,
including the CSV output.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import chain
from random import Random
from typing import Iterable, Sequence, TextIO

import numpy as np

from .allocator import (
    MIN_SMALL_CHANGE,
    RANDOM,
    BinState,
    admit,
    admit_multistream,
    release,
)
from .mapping import RadixScheme

OFDMA = "ofdma"
MULTISTREAM = "multistream"
POLICIES = (MIN_SMALL_CHANGE, RANDOM, OFDMA, MULTISTREAM)

CSV_COLUMNS = ("policy", "mix", "G", "P_B", "P_B_ci", "P_f", "P_f_ci", "S",
               "seed", "replications")

# Most arrivals a config may ask for over all its replications: at the
# 50k-760k arrivals/s the simulator reaches on a 2-core machine, 2**31
# arrivals already take hours.
MAX_ARRIVALS = 1 << 31


@dataclass(frozen=True)
class TrafficModel:
    """Poisson size-class mix: class n arrives at lam / 2**n."""

    m: int
    lam: float
    classes: tuple[int, ...]
    mix: str = "custom"

    def __post_init__(self) -> None:
        RadixScheme.power_of_two(self.m)  # refuses m outside 0..MAX_M
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ValueError(f"lam must be finite and >= 0, got {self.lam}")
        cl = tuple(sorted(set(self.classes)))
        if not cl:
            raise ValueError("need at least one size class")
        if cl != tuple(self.classes):
            raise ValueError("classes must be sorted and unique")
        if cl[0] < 0 or cl[-1] > self.m:
            raise ValueError(f"classes {cl} out of range 0..{self.m}")

    @property
    def scheme(self) -> RadixScheme:
        return RadixScheme.power_of_two(self.m)

    @classmethod
    def full_mix(cls, m: int, *, G: float) -> "TrafficModel":
        """All classes 0..m at normalized load G."""
        return _traffic(m, _MIX_CLASSES["full"](m), "full", G)

    @classmethod
    def limited_mix(cls, m: int, *, G: float) -> "TrafficModel":
        """Classes 0..m//2 only (no request larger than sqrt of the band) at load G."""
        return _traffic(m, _MIX_CLASSES["limited"](m), "limited", G)


# size classes of each named mix; a range, so that a huge m is rejected
# before any per-class tuple is built
_MIX_CLASSES = {"full": lambda m: range(m + 1), "limited": lambda m: range(m // 2 + 1)}


def _traffic(m: int, classes: Sequence[int], mix: str, G: float) -> TrafficModel:
    """A TrafficModel at normalized load G: lam = G * 2**m / |classes|."""
    band = RadixScheme.power_of_two(m).size  # refuses m before 2**m is built
    if not math.isfinite(G):
        raise ValueError(f"G must be finite, got {G}")
    lam = G * band / len(classes)
    return TrafficModel(m, lam, tuple(classes), mix)


def offered_load(traffic: TrafficModel) -> float:
    """Normalized offered load G: total offered bin-load over band size."""
    return len(traffic.classes) * traffic.lam / (1 << traffic.m)


@dataclass(frozen=True)
class SimConfig:
    traffic: TrafficModel
    policy: str
    seed: int
    warmup_time: float = 1000.0
    measure_time: float = 20000.0
    replications: int = 10

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}, got {self.policy!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not (math.isfinite(self.warmup_time) and self.warmup_time >= 0
                and math.isfinite(self.measure_time) and self.measure_time > 0):
            raise ValueError("need finite warmup_time >= 0 and measure_time > 0")
        if not 1 <= self.replications <= MAX_ARRIVALS:
            raise ValueError(f"replications must be in 1..{MAX_ARRIVALS}, "
                             f"got {self.replications}")
        tm = self.traffic
        per_rep = 1.0 + ((self.warmup_time + self.measure_time) * tm.lam
                         * sum(2.0 ** -n for n in tm.classes))
        if not self.replications * per_rep <= MAX_ARRIVALS:
            raise ValueError(
                f"expects {self.replications * per_rep:.3g} arrivals, above the cap of "
                f"{MAX_ARRIVALS}: lower replications, warmup_time + measure_time or "
                f"lam (which G sets)")


@dataclass(frozen=True)
class SimMetrics:
    """Aggregated result of one config; counters are summed over replications."""

    policy: str
    mix: str
    G: float
    seed: int
    replications: int
    P_B: float
    P_B_ci: float
    P_f: float
    P_f_ci: float
    S: float
    measured_G: float
    mean_occupancy: float
    r: tuple[int, ...]
    r_B: tuple[int, ...]
    r_f: tuple[int, ...]
    per_rep_P_B: tuple[float, ...]
    per_rep_P_f: tuple[float, ...]
    per_rep_measured_G: tuple[float, ...]


def _traffic_trace(traffic: TrafficModel, horizon: float, rep_ss: np.random.SeedSequence):
    """Arrival times, size classes, and holding times, merged across classes.

    The trace depends only on the seed substream, never on the policy, so
    runs with different policies at one seed see identical traffic.
    """
    *class_seeds, admission_ss = rep_ss.spawn(len(traffic.classes) + 1)
    words = admission_ss.generate_state(4, np.uint32)
    admission_seed = int.from_bytes(words.tobytes(), "little")
    if traffic.lam == 0:
        return np.empty(0), np.empty(0, dtype=np.int64), np.empty(0), admission_seed
    parts_t, parts_h = [], []
    for n, ss in zip(traffic.classes, class_seeds):
        gen = np.random.default_rng(ss)
        scale = (1 << n) / traffic.lam  # mean interarrival of class n
        expect = horizon / scale
        count = int(expect + 6.0 * expect ** 0.5 + 16.0)
        times = np.cumsum(gen.exponential(scale, size=count))
        while times[-1] < horizon:
            more = np.cumsum(gen.exponential(scale, size=max(16, count // 8)))
            times = np.concatenate([times, times[-1] + more])
        k = int(np.searchsorted(times, horizon))
        parts_t.append(times[:k])
        parts_h.append(gen.exponential(1.0, size=k))
    all_t = np.concatenate(parts_t)
    order = np.argsort(all_t, kind="stable")
    klass = np.repeat(np.asarray(traffic.classes, dtype=np.int64), [len(t) for t in parts_t])
    return all_t[order], klass[order], np.concatenate(parts_h)[order], admission_seed


def _run_replication(cfg: SimConfig, rep_ss: np.random.SeedSequence) -> dict:
    """One independent event loop; returns raw per-class counters."""
    tm = cfg.traffic
    m = tm.m
    band = 1 << m
    warm = cfg.warmup_time
    horizon = warm + cfg.measure_time
    times, klass, holds, adm_seed = _traffic_trace(tm, horizon, rep_ss)

    policy = cfg.policy
    ofdma = policy == OFDMA
    multistream = policy == MULTISTREAM
    adm_rng = Random(adm_seed) if policy == RANDOM else None
    state = None if ofdma else BinState(tm.scheme)

    r_blocked = [0] * (m + 1)
    r_frag = [0] * (m + 1)
    occupied = 0
    occ_area = 0.0
    prev_t = warm

    # Every arrival's departure time is known up front, so one stable sort
    # schedules them all in (time, arrival index) order; the loop frees
    # the granted ones and skips the rest.  granted[i] is n + 1 for a
    # granted class-n arrival i and 0 otherwise.  No list holds more than
    # one chunk of arrivals or of departures.
    total = len(times)
    chunk = 1 << 16
    departs = times + holds
    order = np.argsort(departs, kind="stable")
    schedule = chain.from_iterable(
        zip(departs[order[j : j + chunk]].tolist(), order[j : j + chunk].tolist())
        for j in range(0, total, chunk))
    end = (math.inf, total)
    dep_t, dep_i = next(schedule, end)
    granted = bytearray(total)
    sizes = [0] + [1 << n for n in range(m + 1)]  # sizes[n + 1] == 2**n

    for base in range(0, total, chunk):
        ts = times[base : base + chunk].tolist()
        ns = klass[base : base + chunk].tolist()
        for i, t, n in zip(range(base, base + len(ts)), ts, ns):
            # Stop at index i or later too: only a hold that leaves
            # t + hold == t sorts one here, it is not granted yet, and every
            # entry after it has a later index or a later time.
            while dep_t <= t and dep_i < i:
                g = granted[dep_i]
                if g:
                    if dep_t > prev_t:
                        occ_area += occupied * (dep_t - prev_t)
                        prev_t = dep_t
                    occupied -= sizes[g]
                    if not ofdma:
                        release(state, dep_i)
                dep_t, dep_i = next(schedule, end)
            size = 1 << n
            fits = occupied + size <= band
            if ofdma or not fits:
                ok = fits
            elif multistream:
                ok = admit_multistream(state, i, size).granted
            else:
                ok = admit(state, i, size, policy, adm_rng).granted
            if ok:
                if t > prev_t:
                    occ_area += occupied * (t - prev_t)
                    prev_t = t
                occupied += size
                granted[i] = n + 1
            elif t >= warm:
                r_blocked[n] += 1
                if fits:  # enough bins were free: a fragmentation loss
                    r_frag[n] += 1
    if horizon > prev_t:
        occ_area += occupied * (horizon - prev_t)
    # arrivals from the end of the warm-up on are counted, times being sorted
    r = np.bincount(klass[np.searchsorted(times, warm) :], minlength=m + 1).tolist()
    return {"r": r, "r_B": r_blocked, "r_f": r_frag, "occ_area": occ_area}


def _ratio(weights: Sequence[int], num: Sequence[int], den: Sequence[int]) -> float:
    lo = sum(w * x for w, x in zip(weights, num))
    hi = sum(w * x for w, x in zip(weights, den))
    return lo / hi if hi else 0.0


def _ci_half_width(xs: Sequence[float]) -> float:
    if len(xs) < 2:
        return 0.0
    return 1.96 * float(np.std(xs, ddof=1)) / len(xs) ** 0.5


def run(cfg: SimConfig) -> SimMetrics:
    """Run all replications of one config and aggregate."""
    tm = cfg.traffic
    m = tm.m
    weights = [1 << n for n in range(m + 1)]
    root = np.random.SeedSequence(cfg.seed)
    reps = [_run_replication(cfg, ss) for ss in root.spawn(cfg.replications)]

    pb = [_ratio(weights, rep["r_B"], rep["r"]) for rep in reps]
    pf = [_ratio(weights, rep["r_f"], rep["r"]) for rep in reps]
    denom = (1 << m) * cfg.measure_time
    mg = [sum(w * x for w, x in zip(weights, rep["r"])) / denom for rep in reps]
    occ = [rep["occ_area"] / cfg.measure_time for rep in reps]

    def total(key: str) -> tuple[int, ...]:
        return tuple(sum(rep[key][n] for rep in reps) for n in range(m + 1))

    p_b = float(np.mean(pb))
    p_f = float(np.mean(pf))
    return SimMetrics(
        policy=cfg.policy,
        mix=tm.mix,
        G=offered_load(tm),
        seed=cfg.seed,
        replications=cfg.replications,
        P_B=p_b,
        P_B_ci=_ci_half_width(pb),
        P_f=p_f,
        P_f_ci=_ci_half_width(pf),
        S=1.0 - p_b,
        measured_G=float(np.mean(mg)),
        mean_occupancy=float(np.mean(occ)),
        r=total("r"),
        r_B=total("r_B"),
        r_f=total("r_f"),
        per_rep_P_B=tuple(pb),
        per_rep_P_f=tuple(pf),
        per_rep_measured_G=tuple(mg),
    )


def build_configs(doc: dict) -> list[SimConfig]:
    """Expand a JSON config document into a list of SimConfigs.

    Required keys: m (int), G (the normalized load, a number or a list),
    policies (a list) and seed (int).  Optional: mix ("full" | "limited")
    or classes (list of ints), warmup_time, measure_time (both in units
    of the mean holding time) and replications (int).  An integral float
    counts as an int, a bool or string is never a number, and no list may
    be empty.
    """
    if not isinstance(doc, dict):
        raise ValueError("config must be a JSON object")
    known = {"m", "mix", "classes", "G", "policies", "seed",
             "warmup_time", "measure_time", "replications"}
    unknown = set(doc) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")

    def number(key: str, value) -> float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"{key} must be a number, got {value!r}")
        return float(value)

    def integer(key: str, value) -> int:
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{key} must be an integer, got {value!r}")
        return value

    def nonempty(key: str, value) -> list:
        if not isinstance(value, (list, tuple)) or not value:
            raise ValueError(f"{key} must be a non-empty list, got {value!r}")
        return value

    for key in ("m", "seed", "policies", "G"):
        if key not in doc:
            raise ValueError(f"config is missing required key {key!r}")
    m = integer("m", doc["m"])
    seed = integer("seed", doc["seed"])
    policies = nonempty("policies", doc["policies"])
    loads = doc["G"]
    loads = nonempty("G", loads) if isinstance(loads, (list, tuple)) else [loads]

    if "classes" in doc:
        if "mix" in doc:
            raise ValueError("give 'mix' or 'classes', not both")
        mix = "custom"
        classes = [integer("classes", n) for n in nonempty("classes", doc["classes"])]
    else:
        mix = doc.get("mix", "full")
        if not isinstance(mix, str) or mix not in _MIX_CLASSES:
            raise ValueError(f"mix must be 'full' or 'limited', got {mix!r}")
        classes = _MIX_CLASSES[mix](m)

    kwargs = {}
    for key in ("warmup_time", "measure_time"):
        if key in doc:
            kwargs[key] = number(key, doc[key])
    if "replications" in doc:
        kwargs["replications"] = integer("replications", doc["replications"])

    traffics = [_traffic(m, classes, mix, number("G", x)) for x in loads]
    return [SimConfig(traffic=t, policy=str(pol), seed=seed, **kwargs)
            for pol in policies for t in traffics]


def write_csv(metrics: Iterable[SimMetrics], out: TextIO) -> None:
    """Write the contractual result table: one row per config."""
    w = csv.writer(out, lineterminator="\n")
    w.writerow(CSV_COLUMNS)
    w.writerows(csv_row(mt) for mt in metrics)


def csv_row(mt: SimMetrics) -> tuple:
    """The values of one result in CSV_COLUMNS order."""
    return tuple(getattr(mt, column) for column in CSV_COLUMNS)
