"""Command-line front end for the band-mapping and allocation tools.

Five subcommands: ``map`` prints the bin-to-subcarrier permutation,
``alloc`` places a batch of requests, ``sim`` runs a blocking-probability
sweep from a JSON config into a CSV file, ``states`` counts Markov states,
and ``wave`` cross-checks waveform synthesis.  Exit codes are stable:
0 success, 2 usage or config error, 3 infeasible allocation (``wave``
returns 1 when a numeric check fails).

With ``--json`` every subcommand emits a canonical JSON document
(``indent=2, sort_keys=True``) so that parse + re-render is the identity.
"""

from __future__ import annotations

import argparse
import json
import sys
from random import Random
from typing import Callable, Sequence

import numpy as np

from .allocator import (
    MIN_SMALL_CHANGE,
    SORT_FIRST,
    BatchRejected,
    BinState,
    admit_multistream,
    allocate_batch_sync,
    dcr_state,
)
from .mapping import MAX_BAND, RadixScheme, bin_digits, digit_reverse
from .sim import CSV_COLUMNS, build_configs, csv_row, run, write_csv
from .statespace import (
    FINE_ENUM_CAP,
    REACHABLE_CAP,
    enumerate_fine,
    enumerate_super,
    f_rec,
    g_rec,
    reachable_states,
)
from .waveform import StreamSpec, stream_freq_oracle, stream_time

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_BLOCKED = 3

EQUIV_TOL = 1e-9
ENVELOPE_TOL = 1e-12

# Largest m whose recurrence value prints: f(13) and g(14) have 2,899 and
# 3,131 digits; f(14) and g(15) pass Python's 4,300-digit int-to-str limit.
_RECURRENCE_CAP = {"fine": 13, "super": 14}


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _emit(args: argparse.Namespace, payload, text: Callable[[], str],
          code: int = EXIT_OK) -> int:
    """Print the canonical JSON document under --json, else the text form."""
    print(json.dumps(payload, indent=2, sort_keys=True) if args.json else text())
    return code


def _policy(flag: str) -> str:
    """The library name of a --policy value: dashes become underscores."""
    return flag.replace("-", "_")


def _scheme_from(args: argparse.Namespace) -> RadixScheme:
    if args.radices is not None:
        parts = [p.strip() for p in args.radices.split(",")]
        if not all(p.isascii() and p.isdigit() for p in parts):
            raise ValueError(
                f"--radices needs a comma-separated list of integers, e.g. 2,2,3; "
                f"got {args.radices!r}"
            )
        # int() of a long digit string is slow and errors past 4300 digits
        if any(len(p.lstrip("0")) > len(str(MAX_BAND)) for p in parts):
            raise ValueError(f"--radices entries must not exceed the band size cap "
                             f"{MAX_BAND}, e.g. 2,2,3")
        return RadixScheme(tuple(int(p) for p in parts))
    return RadixScheme.power_of_two(args.m)


# -- map ---------------------------------------------------------------------


def _digit_str(digits: tuple[int, ...]) -> str:
    if not digits:
        return "-"
    if any(d > 9 for d in digits):
        return ".".join(str(d) for d in digits)
    return "".join(str(d) for d in digits)


def _table(rows: list[dict], columns: list[str]) -> str:
    table = [list(columns)] + [[str(r[c]) for c in columns] for r in rows]
    widths = [max(len(row[i]) for row in table) for i in range(len(columns))]
    return "\n".join("  ".join(x.ljust(w) for x, w in zip(row, widths)).rstrip()
                     for row in table)


def cmd_map(args: argparse.Namespace) -> int:
    try:
        scheme = _scheme_from(args)
        if args.index is not None and not 0 <= args.index < scheme.size:
            raise ValueError(
                f"--index {args.index} out of range for band size {scheme.size}"
            )
    except ValueError as exc:
        return _fail(str(exc))
    ks = [args.index] if args.index is not None else list(range(scheme.size))
    rows = []
    for k in ks:
        digits = bin_digits(k, scheme)
        rows.append({
            "bin": k,
            "digits": _digit_str(digits),
            "reversal": _digit_str(digits[::-1]),
            "subcarrier": digit_reverse(k, scheme),
        })
    return _emit(args, rows, lambda: _table(rows, ["bin", "digits", "reversal", "subcarrier"]))


# -- alloc -------------------------------------------------------------------


def _parse_requests(spec: str) -> list[tuple[str, int]]:
    """(name, size) pairs from an inline ``A:1,B:4`` list, or from ``@file``
    holding a JSON list of ``{"name": ..., "size": ...}`` records."""
    if spec.startswith("@"):
        try:
            with open(spec[1:], encoding="utf-8") as fh:
                data = json.load(fh)
        # ValueError: bad JSON, bytes or digits; RecursionError: nesting too deep
        except (OSError, ValueError, RecursionError) as exc:
            raise ValueError(f"cannot read requests file {spec[1:]}: {exc}") from None
        if not (isinstance(data, list) and all(
                isinstance(d, dict) and {"name", "size"} <= d.keys() for d in data)):
            raise ValueError('requests file must hold a list of '
                             '{"name": ..., "size": ...} records')
        items = [(str(d["name"]), d["size"]) for d in data]
    else:
        items = []
        for part in spec.split(","):
            name, sep, size = part.partition(":")
            name, size = name.strip(), size.strip()
            if not (sep and name and size.isascii() and size.isdigit()):
                raise ValueError(f"bad request {part!r}, want name:size with an integer size")
            # int() of a long digit string is slow and errors past 4300 digits
            if len(size.lstrip("0")) > len(str(MAX_BAND)):
                raise ValueError(f"request {name!r} has a size above the band size cap "
                                 f"{MAX_BAND}, want name:size")
            items.append((name, int(size)))
    names = [name for name, _ in items]
    if len(set(names)) != len(names):
        raise ValueError("request names must be unique")
    for name, size in items:
        if isinstance(size, bool) or not isinstance(size, int) or size < 1:
            raise ValueError(f"request {name!r} needs a positive integer size")
    return items


def _range_str(ranges) -> str:
    parts = []
    for r in ranges:
        parts.append(str(r.start) if r.size == 1 else f"{r.start}-{r.stop - 1}")
    return ",".join(parts)


def cmd_alloc(args: argparse.Namespace) -> int:
    try:
        scheme = _scheme_from(args)
        items = _parse_requests(args.requests)
    except (ValueError, OSError) as exc:
        return _fail(str(exc))

    if args.multistream and args.policy:
        return _fail("--multistream gathers blocks itself; drop --policy")
    if args.policy:
        policy = _policy(args.policy)
    else:  # a band with a reserved bin is not clean, which sort-first needs
        policy = SORT_FIRST if args.dc is None else MIN_SMALL_CHANGE
    if args.dc is not None and policy == SORT_FIRST:
        return _fail("sort-first packs a clean band; use min-small-change with --dc")

    try:
        if args.dc is not None:
            state = dcr_state(scheme, args.dc)
        else:
            state = BinState(scheme)
        if args.multistream:
            allocations = []
            for i, (name, size) in enumerate(items):
                outcome = admit_multistream(state, i, size)
                if not outcome.granted:
                    raise BatchRejected(f"request {name!r} of size {size} "
                                        f"blocked ({outcome.status.value})")
                allocations.append(outcome.allocation)
        else:
            allocations = allocate_batch_sync([size for _, size in items], policy,
                                              state=state)
    except BatchRejected as exc:
        _fail(str(exc))
        return EXIT_BLOCKED
    except ValueError as exc:
        return _fail(str(exc))

    rows = [{"name": name, "size": size,
             "bins": sorted(b for r in alloc.ranges for b in r.bins()),
             "subcarriers": sorted(alloc.subcarriers)}
            for (name, size), alloc in zip(items, allocations)]
    return _emit(args, rows, lambda: _table(
        [dict(row, bins=_range_str(alloc.ranges),
              subcarriers=",".join(str(s) for s in row["subcarriers"]))
         for row, alloc in zip(rows, allocations)],
        ["name", "size", "bins", "subcarriers"]))


# -- sim ---------------------------------------------------------------------


def cmd_sim(args: argparse.Namespace) -> int:
    try:
        with open(args.config, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return _fail(f"cannot read config {args.config}: {exc}")
    try:
        configs = build_configs(doc)
    except (ValueError, TypeError) as exc:
        return _fail(f"bad config: {exc}")

    results = [run(cfg) for cfg in configs]
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            write_csv(results, fh)
    except OSError as exc:
        return _fail(f"cannot write {args.out}: {exc}")

    def text() -> str:
        lines = [f"{mt.policy} {mt.mix} G={mt.G:g}: P_B={mt.P_B:.4f}±{mt.P_B_ci:.4f} "
                 f"P_f={mt.P_f:.4f}±{mt.P_f_ci:.4f} S={mt.S:.4f}" for mt in results]
        return "\n".join(lines + [f"wrote {len(results)} rows to {args.out}"])

    return _emit(args, [dict(zip(CSV_COLUMNS, csv_row(mt))) for mt in results], text)


# -- states ------------------------------------------------------------------


def cmd_states(args: argparse.Namespace) -> int:
    m, mode = args.m, args.mode
    if m < 0:
        return _fail(f"m must be >= 0, got {m}")
    payload: dict = {"m": m, "mode": mode}
    if mode == "reachable":
        if m > REACHABLE_CAP:
            payload.update(total=None, verdict="SKIPPED")
            return _emit(args, payload, lambda: f"reachable states m={m}: "
                                                f"search skipped above m={REACHABLE_CAP}")
        policy = _policy(args.policy)
        report = reachable_states(m, policy)
        payload.update(
            policy=policy,
            total=report.total,
            arrival_reachable=len(report.arrival_reachable),
            departure_only=len(report.departure_only),
        )
        return _emit(args, payload, lambda: f"reachable states m={m} policy={policy}: "
                                            f"total {payload['total']}, "
                                            f"arrival-reachable {payload['arrival_reachable']}, "
                                            f"departure-only {payload['departure_only']}")
    if m > _RECURRENCE_CAP[mode]:
        return _fail(f"--m {m} is above {_RECURRENCE_CAP[mode]}, the largest m whose "
                     f"{mode} state count prints in under 4300 digits")
    recurrence = f_rec(m) if mode == "fine" else g_rec(m)
    payload["recurrence"] = recurrence
    if m <= FINE_ENUM_CAP:
        count = enumerate_fine(m) if mode == "fine" else enumerate_super(m)
        verdict = "AGREE" if count == recurrence else "DISAGREE"
        payload.update(enumerated=count, verdict=verdict)
        return _emit(args, payload, lambda: f"{mode} states m={m}: recurrence {recurrence}, "
                                            f"enumerated {count} {verdict}",
                     EXIT_OK if verdict == "AGREE" else EXIT_CHECK_FAILED)
    payload.update(enumerated=None, verdict="SKIPPED")
    return _emit(args, payload, lambda: f"{mode} states m={m}: recurrence {recurrence} "
                                        f"(enumeration skipped above m={FINE_ENUM_CAP})")


# -- wave --------------------------------------------------------------------


def cmd_wave(args: argparse.Namespace) -> int:
    n, m, d = args.N, args.M, args.d
    if m > MAX_BAND:
        return _fail(f"--M {m} is above the band size cap {MAX_BAND}")
    if n < 1 or m < 1 or m % n:
        return _fail(f"N={n} must divide M={m}")
    if not 0 <= d < m // n:
        return _fail(f"d={d} out of range 0..{m // n - 1}")
    if args.blocks < 1:
        return _fail("--blocks must be >= 1")
    if args.seed is not None and args.seed < 0:
        return _fail(f"--seed must be >= 0, got {args.seed}")
    seed = args.seed if args.seed is not None else Random().randrange(2**32)
    gen = np.random.default_rng(seed)

    checks: dict[str, dict] = {}
    for name, tol in (("equiv", EQUIV_TOL), ("envelope", ENVELOPE_TOL)):
        if args.check not in (name, "both"):
            continue
        worst = 0.0
        for _ in range(args.blocks):
            if name == "envelope":
                symbols = np.exp(2j * np.pi * gen.random(n))
            else:
                symbols = gen.standard_normal(n) + 1j * gen.standard_normal(n)
            spec = StreamSpec(symbols, m, d)
            signal = stream_time(spec)
            if name == "equiv":
                err = signal - stream_freq_oracle(spec)
            else:  # unit-modulus symbols give a constant envelope of n / m
                err = np.abs(signal) - n / m
            worst = max(worst, float(np.max(np.abs(err))))
        checks[name] = {"max_error": worst, "threshold": tol, "pass": worst < tol}

    def text() -> str:
        return "\n".join([f"seed: {seed}"] + [
            f"{name} max error = {c['max_error']:.3e}  {'PASS' if c['pass'] else 'FAIL'} "
            f"(< {c['threshold']:g})" for name, c in checks.items()])

    ok = all(c["pass"] for c in checks.values())
    payload = {"N": n, "M": m, "d": d, "seed": seed, "blocks": args.blocks,
               "checks": checks, "pass": ok}
    return _emit(args, payload, text, EXIT_OK if ok else EXIT_CHECK_FAILED)


# -- parser ------------------------------------------------------------------


def _add_scheme_flags(sub: argparse.ArgumentParser) -> None:
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--m", type=int, help="power-of-two band: 2**m bins")
    group.add_argument("--radices", help="composite band, e.g. 2,2,3 (last digit fastest)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ifdma",
        description="Evenly-spaced subcarrier allocation: mapping tables, "
                    "batch placement, blocking simulation, state counts, "
                    "waveform checks.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("map", help="print the bin-to-subcarrier permutation")
    _add_scheme_flags(p)
    p.add_argument("--index", type=int, help="show a single bin row")
    p.set_defaults(func=cmd_map)

    p = subs.add_parser("alloc", help="place a batch of named requests")
    _add_scheme_flags(p)
    p.add_argument("--requests", required=True,
                   help="inline name:size list (A:1,B:4) or @file.json")
    p.add_argument("--policy", choices=("min-small-change", "sort-first"))
    p.add_argument("--dc", type=int, metavar="SUBCARRIER",
                   help="pre-block the bin that maps to this subcarrier")
    p.add_argument("--multistream", action="store_true",
                   help="serve arbitrary sizes by gathering several blocks")
    p.set_defaults(func=cmd_alloc)

    p = subs.add_parser("sim", help="run a blocking-probability sweep")
    p.add_argument("--config", required=True, help="JSON config document")
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(func=cmd_sim)

    p = subs.add_parser("states", help="count Markov states")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--mode", choices=("fine", "super", "reachable"), default="fine")
    p.add_argument("--policy", choices=("min-small-change", "random"),
                   default="min-small-change",
                   help="admission policy for --mode reachable")
    p.set_defaults(func=cmd_states)

    p = subs.add_parser("wave", help="cross-check waveform synthesis")
    p.add_argument("--N", type=int, required=True, help="symbols per block")
    p.add_argument("--M", type=int, required=True, help="band size")
    p.add_argument("--d", type=int, default=0, help="subcarrier offset")
    p.add_argument("--check", choices=("equiv", "envelope", "both"), default="both")
    p.add_argument("--blocks", type=int, default=100)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_wave)

    for p in subs.choices.values():
        p.add_argument("--json", action="store_true")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
