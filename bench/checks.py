"""Independent references and output checks for the benchmark.

Nothing here calls the code under test.  Every expected value is
recomputed from the documented contract (the Kaufman-Roberts loss
recursion, bit and digit reversal, the state-count recurrences, an
explicit DFT-matrix synthesis), and every check returns the list of
properties that do not hold, so an empty list means the output is
correct.

The two statistical checks (ofdma blocking against Kaufman-Roberts over a
whole run, and each run()'s occupancy against its carried load) are set
so that a correct program fails them less than once in a million runs;
``test_bench.py`` runs them on many seeds.
"""

from __future__ import annotations

import math
from statistics import fmean

import numpy as np

# Two-sided Student t quantiles at alpha = 1e-6 by degrees of freedom,
# i.e. scipy.stats.t.ppf(1 - 0.5e-6, df).
T_CRIT = {7: 15.77, 11: 9.70, 15: 7.90, 23: 6.59, 31: 6.07, 47: 5.62, 63: 5.42,
          95: 5.23, 127: 5.14, 191: 5.06, 255: 5.01, 383: 4.97, 511: 4.95}

# Bound on |z| for the occupancy check.  At m=10 the z sum is dominated by
# a few grants of up to 512 bins with exponential holding times, so its
# upper tail is a gamma's with about 7 degrees of freedom, not a normal's:
# 10 standard deviations keep a correct run() below one false alarm in
# 10**8 (on 10,800 ofdma runs of sim_full_g05 the largest |z| was 5.1).
Z_OCCUPANCY = 10.0

OFDMA = "ofdma"
MULTISTREAM = "multistream"
SIM_POLICIES = ("min_small_change", "random", OFDMA, MULTISTREAM)


# -- simulator ---------------------------------------------------------------


def mix_classes(m: int, mix: str) -> tuple[int, ...]:
    """Size classes of the documented mixes: full is 0..m, limited 0..m//2."""
    if mix == "full":
        return tuple(range(m + 1))
    if mix == "limited":
        return tuple(range(m // 2 + 1))
    raise ValueError(f"unknown mix {mix!r}")


def kaufman_roberts(m: int, classes: tuple[int, ...], G: float) -> float:
    """Load-weighted blocking of a 2**m-bin shared link.

    Class n requests 2**n bins at rate lam / 2**n, so every class offers
    lam * holding = G * 2**m / |classes| bin-Erlangs.  The occupancy
    distribution q solves j q(j) = sum_n lam*holding * q(j - 2**n); class n
    blocks when more than 2**m - 2**n bins are busy (PASTA).
    """
    band = 1 << m
    per_class = G * band / len(classes)
    sizes = [1 << n for n in classes]
    q = [0.0] * (band + 1)
    q[0] = 1.0
    for j in range(1, band + 1):
        acc = 0.0
        for size in sizes:
            if j >= size:
                acc += q[j - size]
        q[j] = per_class * acc / j
        if q[j] > 1e250:  # rescale; only ratios matter
            q = [x * 1e-250 for x in q]
    z = math.fsum(q)
    p = [x / z for x in q]
    tail = [0.0] * (band + 2)
    for j in range(band, -1, -1):
        tail[j] = tail[j + 1] + p[j]
    return fmean(tail[band - size + 1] for size in sizes)


def _weighted(counts) -> int:
    return sum(c << n for n, c in enumerate(counts))


def check_sim_batch(doc: dict, results: dict) -> dict[str, list[str]]:
    """Check every policy's result at one seed, alone and against ofdma."""
    m = doc["m"]
    classes = mix_classes(m, doc["mix"])
    reps = doc["replications"]
    measure = doc["measure_time"]
    holding = doc.get("holding_mean", 1.0)
    base = results.get(OFDMA)
    out: dict[str, list[str]] = {}
    for policy, mt in results.items():
        bad: list[str] = []
        r, r_b, r_f = list(mt.r), list(mt.r_B), list(mt.r_f)
        if not len(r) == len(r_b) == len(r_f) == m + 1:
            out[policy] = [f"counter length {len(r)}/{len(r_b)}/{len(r_f)}, want {m + 1}"]
            continue
        if any(r[n] for n in range(m + 1) if n not in classes):
            bad.append(f"arrivals in classes outside {classes}: r={r}")
        if not all(0 <= f <= b <= a for a, b, f in zip(r, r_b, r_f)):
            bad.append(f"need 0 <= r_f <= r_B <= r per class: r={r} r_B={r_b} r_f={r_f}")
        if base is not None and r != list(base.r):
            bad.append(f"arrivals differ from ofdma at the same seed: {r} vs {list(base.r)}")
        if len(mt.per_rep_P_B) != reps:
            bad.append(f"{len(mt.per_rep_P_B)} per-replication values, want {reps}")
        elif not math.isclose(mt.P_B, fmean(mt.per_rep_P_B), rel_tol=1e-9, abs_tol=1e-12):
            bad.append(f"P_B {mt.P_B} is not the mean of its replications")
        if not math.isclose(mt.S, 1.0 - mt.P_B, rel_tol=0, abs_tol=1e-12):
            bad.append(f"S {mt.S} != 1 - P_B {1.0 - mt.P_B}")
        scale = (1 << m) * measure / holding
        offered = math.fsum(g * scale for g in mt.per_rep_measured_G)
        blocked = math.fsum(pb * g * scale for pb, g in zip(mt.per_rep_P_B, mt.per_rep_measured_G))
        if not (math.isclose(offered, _weighted(r), rel_tol=1e-9)
                and math.isclose(blocked, _weighted(r_b), rel_tol=1e-9, abs_tol=1e-6)):
            bad.append(f"replications carry {offered:.1f} offered and {blocked:.1f} blocked "
                       f"weighted arrivals, totals say {_weighted(r)} and {_weighted(r_b)}")
        if policy in (OFDMA, MULTISTREAM):
            if any(r_f):
                bad.append(f"{policy} grants whenever enough bins are free, yet r_f={r_f}")
            if policy == MULTISTREAM and base is not None and r_b != list(base.r_B):
                bad.append(f"multistream r_B {r_b} differs from ofdma {list(base.r_B)}")
        # carried load by Little's law against the time-averaged occupancy; the
        # variance is that of the holding times plus the window's two edges
        carried = _weighted(a - b for a, b in zip(r, r_b)) * holding / (reps * measure)
        var = sum((a - b) << (2 * n) for n, (a, b) in enumerate(zip(r, r_b)))
        var *= holding ** 2 * (1.0 + 4.0 * holding / measure) / (reps * measure) ** 2
        z = (mt.mean_occupancy - carried) / math.sqrt(var) if var > 0 else 0.0
        if not abs(z) <= Z_OCCUPANCY:
            bad.append(f"mean occupancy {mt.mean_occupancy:.3f} vs carried load "
                       f"{carried:.3f} (z={z:.2f})")
        out[policy] = bad
    return out


def t_quantile(df: int) -> float:
    """Two-sided Student t quantile at alpha = 1e-6, rounded toward safety."""
    usable = [d for d in T_CRIT if d <= df]
    return T_CRIT[max(usable)] if usable else math.inf


def check_kaufman_roberts(doc: dict, runs: list) -> list[str]:
    """Pooled ofdma blocking of a whole benchmark run against the exact value.

    Every replication contributes its blocked and offered load-weighted
    arrivals (recovered from its P_B and measured G); their ratio of sums
    is compared with Kaufman-Roberts using a delta-method standard error
    over replications.  A ratio of sums has no short-window bias, unlike
    the mean of per-replication ratios.
    """
    m = doc["m"]
    scale = (1 << m) * doc["measure_time"] / doc.get("holding_mean", 1.0)
    num, den = [], []
    for mt in runs:
        for pb, mg in zip(mt.per_rep_P_B, mt.per_rep_measured_G):
            num.append(pb * mg * scale)
            den.append(mg * scale)
    k = len(den)
    if k < 2 or not sum(den) > 0:
        return [f"{k} replications carry no load to compare"]
    ratio = math.fsum(num) / math.fsum(den)
    resid = math.fsum((a - ratio * b) ** 2 for a, b in zip(num, den))
    se = math.sqrt(resid * k / (k - 1)) / math.fsum(den)
    ref = kaufman_roberts(m, mix_classes(m, doc["mix"]), doc["G"])
    half = t_quantile(k - 1) * se
    if not abs(ratio - ref) <= half:
        return [f"pooled ofdma P_B {ratio:.5f} over {k} replications vs "
                f"Kaufman-Roberts {ref:.5f} (tolerance {half:.5f})"]
    return []


# -- map ---------------------------------------------------------------------


def digits_msf(k: int, radices: tuple[int, ...]) -> list[int]:
    """Mixed-radix digits of k, most-significant first (radices msf too)."""
    out = []
    for p in reversed(radices):
        out.append(k % p)
        k //= p
    return out[::-1]


def reversal(k: int, radices: tuple[int, ...]) -> int:
    """Read k's digits backwards in the radix system reversed with them."""
    s = 0
    for d, p in zip(reversed(digits_msf(k, radices)), reversed(radices)):
        s = s * p + d
    return s


def check_map(rows, radices: tuple[int, ...]) -> list[str]:
    band = math.prod(radices)
    if not isinstance(rows, list) or len(rows) != band:
        return [f"want {band} rows, got {len(rows) if isinstance(rows, list) else rows!r}"]
    bad = []
    for k, row in enumerate(rows):
        want = reversal(k, radices)
        digits = "".join(str(d) for d in digits_msf(k, radices))
        if row.get("bin") != k or row.get("subcarrier") != want or row.get("digits") != digits:
            bad.append(f"row {k}: {row}, want subcarrier {want} digits {digits}")
            if len(bad) >= 5:
                break
    if sorted(row.get("subcarrier") for row in rows) != list(range(band)):
        bad.append("subcarrier column is not a permutation of the band")
    return bad


# -- alloc -------------------------------------------------------------------


def aligned_blocks(bins: list[int]) -> list[tuple[int, int]]:
    """Split a sorted bin list into maximal aligned power-of-two blocks."""
    out = []
    i = 0
    while i < len(bins):
        start = bins[i]
        size = 1
        while (start % (2 * size) == 0 and i + 2 * size <= len(bins)
               and bins[i + 2 * size - 1] == start + 2 * size - 1):
            size *= 2
        out.append((start, size))
        i += size
    return out


def check_alloc(rows, requests: list[tuple[str, int]], m: int, dc: int | None,
                multistream: bool) -> list[str]:
    band = 1 << m
    binary = (2,) * m
    if not isinstance(rows, list) or len(rows) != len(requests):
        return [f"{len(requests)} requests, {len(rows) if isinstance(rows, list) else rows!r} grants"]
    bad = []
    used_bins: set[int] = set()
    used_subs: set[int] = set()
    for row, (name, size) in zip(rows, requests):
        bins, subs = row.get("bins"), row.get("subcarriers")
        if row.get("name") != name or row.get("size") != size:
            bad.append(f"grant {row.get('name')}/{row.get('size')} for request {name}/{size}")
            continue
        if len(bins) != size or len(set(bins)) != size or len(set(subs)) != size:
            bad.append(f"{name}: {len(bins)} bins and {len(subs)} subcarriers for size {size}")
            continue
        if not all(0 <= b < band for b in bins):
            bad.append(f"{name}: bins outside the band")
            continue
        if sorted(subs) != sorted(reversal(b, binary) for b in bins):
            bad.append(f"{name}: subcarriers are not the bit reversal of its bins")
        blocks = aligned_blocks(sorted(bins))
        if not multistream and len(blocks) != 1:
            bad.append(f"{name}: bins {sorted(bins)[:8]}... are not one aligned block")
        for start, n in blocks:
            image = sorted(reversal(b, binary) for b in range(start, start + n))
            d = image[0]
            if image != [d + i * (band // n) for i in range(n)]:
                bad.append(f"{name}: block {start}/{n} is not evenly spaced")
        if used_bins & set(bins) or used_subs & set(subs):
            bad.append(f"{name}: overlaps an earlier grant")
        used_bins |= set(bins)
        used_subs |= set(subs)
        if dc is not None and dc in subs:
            bad.append(f"{name}: holds the DC subcarrier {dc}")
    return bad


# -- states ------------------------------------------------------------------


def f_count(m: int) -> int:
    f = 2
    for _ in range(m):
        f = f * f + 1
    return f


def g_count(m: int) -> int:
    g = 4
    for _ in range(m - 1):
        g = g * (g + 1) // 2 + 1
    return g


def check_states(payload, m: int, mode: str) -> list[str]:
    if not isinstance(payload, dict):
        return [f"not a JSON object: {payload!r}"]
    if mode in ("fine", "super"):
        want = f_count(m) if mode == "fine" else g_count(m)
        got = (payload.get("recurrence"), payload.get("enumerated"), payload.get("verdict"))
        if got != (want, want, "AGREE"):
            return [f"{mode} m={m}: recurrence/enumerated/verdict {got}, want {want}"]
        return []
    total = payload.get("total")
    arr, dep = payload.get("arrival_reachable"), payload.get("departure_only")
    bad = []
    if total != f_count(m):
        bad.append(f"reachable total {total}, want f({m}) = {f_count(m)}")
    if not (isinstance(arr, int) and isinstance(dep, int) and arr + dep == total and arr > 0):
        bad.append(f"arrival-reachable {arr} + departure-only {dep} != total {total}")
    return bad


# -- wave --------------------------------------------------------------------

EQUIV_TOL = 1e-9
ENVELOPE_TOL = 1e-12


def dft_matrix_synthesis(x: np.ndarray, band: int, shift: int) -> np.ndarray:
    """Band signal of one stream by explicit DFT matrices (no FFT)."""
    n = x.shape[0]
    i = np.arange(n)
    coeffs = np.exp(-2j * np.pi * np.outer(i, i) / n) @ x
    carriers = shift + i * (band // n)
    ell = np.arange(band)
    return np.exp(2j * np.pi * np.outer(ell, carriers) / band) @ coeffs / band


def check_wave(payload, n: int, band: int, shift: int, seed: int, blocks: int,
               check: str) -> list[str]:
    if not isinstance(payload, dict):
        return [f"not a JSON object: {payload!r}"]
    want = {"N": n, "M": band, "d": shift, "seed": seed, "blocks": blocks}
    got = {k: payload.get(k) for k in want}
    if got != want:
        return [f"echoed arguments {got}, want {want}"]
    result = payload.get("checks", {}).get(check)
    tol = EQUIV_TOL if check == "equiv" else ENVELOPE_TOL
    if payload.get("pass") is not True or not result or result.get("pass") is not True:
        return [f"{check} check did not pass: {payload}"]
    if not 0 <= result.get("max_error", -1) < tol:
        return [f"{check} max error {result.get('max_error')} not below {tol}"]
    return []


def check_wave_samples(synth, n: int, band: int, shift: int, blocks: list[np.ndarray],
                       psk: bool) -> list[str]:
    """``synth(x, band, shift)`` is the program's direct synthesis of one block."""
    bad = []
    for x in blocks:
        got = np.asarray(synth(x, band, shift))
        ref = dft_matrix_synthesis(x, band, shift)
        err = float(np.max(np.abs(got - ref))) if got.shape == ref.shape else math.inf
        if not err < EQUIV_TOL:
            bad.append(f"direct synthesis differs from DFT-matrix synthesis by {err:.3e}")
        elif psk and not float(np.max(np.abs(np.abs(got) - n / band))) < ENVELOPE_TOL:
            bad.append("unit-modulus block lost its constant envelope")
    return bad
