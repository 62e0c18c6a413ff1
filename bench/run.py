"""Benchmark of the ifdma blocking simulator and CLI tools.

    python3 bench/run.py --workload sim_full_g05 --seed 1 --seconds 30 --trace 0

Runs one workload as a closed loop with one client in this single
process, for whole rounds until ``--seconds`` have passed, checks every
output and prints one JSON object as the last line of stdout:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` every round is
run twice, untraced and then with a span at every layer boundary, and
the metrics are the per-layer ones plus the tracing overhead.

The program under test is the ``ifdma`` package in ``src/`` next to this
directory; without it the benchmark exits with status 2.  A record of
each run (machine, settings, every timing) goes to ``bench/records/``
and the spans of a traced run to ``bench/traces/``.
"""

from __future__ import annotations

import os

# one thread per process: numpy's BLAS must not fan out across the cores
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
WORKLOAD_NAMES = ("sim_full_g05", "sim_limited_g09", "cli_tools")

# A fresh interpreter importing the package: what every CLI start pays.
IMPORT_PROBE = "import sys; sys.path.insert(0, sys.argv[1]); import ifdma.cli"


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def load_program() -> None:
    """Put ``src/`` first on the path and check that ifdma comes from there."""
    if not (SRC / "ifdma" / "__init__.py").is_file():
        raise ImportError(f"no ifdma package under {SRC}")
    sys.path.insert(0, str(SRC))
    import ifdma

    if not Path(ifdma.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"ifdma was imported from {ifdma.__file__}, not {SRC}")


def machine() -> dict:
    import numpy as np

    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "platform": platform.platform()}


def setup_once(workload, seed: int, workdir: Path) -> float:
    t0 = perf_counter()
    subprocess.run([sys.executable, "-I", "-c", IMPORT_PROBE, str(SRC)],
                   check=True, timeout=120)
    workload.setup(seed, workdir)
    return perf_counter() - t0


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        load_program()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads
    from tracer import Tracer

    workload = workloads.WORKLOADS[args.workload]
    workdir = HERE / "work" / args.workload
    setup = [setup_once(workload, args.seed, workdir) for _ in range(SETUP_REPEATS)]

    tracer = Tracer() if args.trace else None
    plain, traced = [], []
    deadline = perf_counter() + args.seconds
    k = 0
    while k == 0 or perf_counter() < deadline:
        plain.append(workload.round(args.seed, k, workdir))
        if tracer is not None:
            with tracer.span("bench.round"):
                traced.append(workload.round(args.seed, k, workdir, tracer))
        k += 1
    workload.check_run(plain)
    if traced:
        workload.check_run(traced)

    ops = [op for r in plain + traced for op in r.ops]
    failed = [op for op in ops if op.failed]
    for op in failed[:10]:
        print(f"failed {op.label}: {op.error or '; '.join(op.problems)}", file=sys.stderr)

    if tracer is None:
        values = {"setup_s": workloads.median(setup), **workload.metrics(plain)}
    else:
        spans, rest = [], tracer.ops()
        for r in traced:
            spans.append(rest[:len(r.ops)])
            rest = rest[len(r.ops):]
        values = workload.layer_metrics(traced, spans)
        values["trace.overhead_s"] = workloads.median(
            t.wall - p.wall for p, t in zip(plain, traced))
        tracer.save(HERE / "traces" / f"{args.workload}.npz")
    metrics = {name: {"value": v, "unit": unit_of(name)} for name, v in values.items()}

    result = {"correct": not any(op.problems for op in ops), "attempted": len(ops),
              "failed": len(failed), "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine(), "setup_s": setup,
              "rounds": [[op_record(op) for op in r.ops] for r in plain],
              "traced_rounds": [[op_record(op) for op in r.ops] for r in traced],
              "result": result}
    records = HERE / "records"
    records.mkdir(exist_ok=True)
    (records / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(f"{args.workload} seed {args.seed}: {k} rounds, {len(ops)} operations, "
          f"{len(failed)} failed", file=sys.stderr)
    print(json.dumps(result))
    return 0


def op_record(op) -> dict:
    return {k: v for k, v in vars(op).items() if k != "result"}


def unit_of(name: str) -> str:
    if name == "peak_rss_mb":
        return "MB"
    if name.startswith("arrivals_per_s."):
        return "1/s"
    if ".free_blocks." in name or ".grants." in name or ".calls." in name:
        return "count"
    return "s"


if __name__ == "__main__":
    sys.exit(main())
