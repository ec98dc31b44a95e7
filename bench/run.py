"""ckrig benchmark: one workload per invocation, every metric printed by name with its unit.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a ckrig checkout.  The workload runs in one fresh
process that measures for S seconds, then SETUPS - 1 more fresh processes
that only set up, so set-up is measured SETUPS times and ``setup_s`` is
their median.  Latency and throughput come from the operations of the
measuring process, with each operation's time scaled to a reference
machine speed by the workload's calibration kernel, timed next to it (see
``workloads.calibrate``); the record keeps the unscaled values.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs an
untraced and a traced process for S/2 seconds each, then the per-layer
probe (``sweep.py``), and prints the per-layer metrics, including the
tracing overhead (traced minus untraced) of every end-to-end metric.

Inputs derive from ``--seed`` alone.  Every operation is checked against an
independent reference; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The full record (seed,
versions, BLAS, CPU count, commit, tail percentile and sample counts) and
the span dumps of a traced run are written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

import catalog

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORK = ROOT / ".bench_work"
REQUIRED = ("src/ckrig/__init__.py", "tests/data/example.csv", "tests/data/complex_mean_golden.json")
SETUPS = 3
CHILD_TIMEOUT_S = 170


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
    }


def spawn(workload, seed, budget, trace, work_dir, start=0, setup_only=False) -> dict:
    """Run one workload process and return its result, with its set-up time."""
    work_dir.mkdir(parents=True)
    argv = [
        sys.executable, str(BENCH / "workloads.py"), workload, "--seed", str(seed),
        "--budget", repr(budget), "--start", str(start),
        "--trace", str(trace), "--work-dir", str(work_dir),
    ] + (["--setup-only"] if setup_only else [])
    spawned = perf_counter()
    subprocess.run(argv, cwd=ROOT, check=True, timeout=CHILD_TIMEOUT_S, stdout=subprocess.DEVNULL)
    result = json.loads((work_dir / "result.json").read_text(encoding="utf-8"))
    result["setup_s"] = result["first_op"] - spawned
    result["work_dir"] = work_dir
    return result


def repeat_failures(results) -> int:
    """Monte-Carlo reports of one (noise, seed) must be bit-identical across repeats."""
    first, failures = {}, 0
    for result in results:
        for entry in result["mc_reports"]:
            key = (entry["kind"], entry["seed"])
            failures += first.setdefault(key, entry["report"]) != entry["report"]
    return failures


def end_to_end(timed, setups) -> tuple[dict, dict]:
    """End-to-end metrics from the scaled times; the unscaled ones go in the detail.

    ``timed`` is the measuring process's result, ``setups`` every process's.
    """
    # Operations that failed are left out, unless every one did.
    times = sorted(1e3 * t for t in (timed["times_s"] or timed["failed_times_s"]))
    n = len(times)
    # The highest percentile with ten operations beyond it, but not below the
    # median; with ten operations or fewer, the slowest.
    index = max(n - 11, n // 2) if n > 10 else n - 1
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in setups),
        "peak_rss_mb": max(r["max_rss_kb"] for r in setups) / 1024.0,
        "op_ms.p50": statistics.median(times),
        "op_ms.tail": times[index],
        "work_per_s": timed["work"] / (sum(times) / 1e3),
    }
    raw = sorted(1e3 * t for t in timed["raw_times_s"])
    detail = {
        "operations_timed": n,
        "tail_percentile": 100.0 * (index + 1) / n,
        "setup_s_samples": [r["setup_s"] for r in setups],
        "op_ms_samples": times,
        "calibration_s": timed["calibration_s"],
        "outcomes": timed["outcomes"],
        "unscaled": {
            "op_ms.p50": statistics.median(raw) if raw else None,
            "op_ms.tail": raw[index] if len(raw) == n else None,
            "work_per_s": timed["work"] / (sum(raw) / 1e3) if raw else None,
            "op_ms_samples": raw,
        },
    }
    return metrics, detail


def solve_counts(result) -> dict:
    """Gram and Λ solves per operation, averaged over the operation kinds of the mix."""
    kinds = result["solve_counts"]
    return {
        f"numerics.solve_spd.calls.{name}": statistics.mean(t[col] / t[0] for t in kinds.values())
        for col, name in ((1, "gram"), (2, "lambda"))
    }


def keep_spans(work_dir: Path, name: str) -> None:
    spans = work_dir / "spans.txt"
    if spans.exists():
        shutil.move(str(spans), str(OUT / name))


def measure(args, work_root):
    workload, seed, seconds = args.workload, args.seed, args.seconds
    if not args.trace:
        timed = spawn(workload, seed, seconds, 0, work_root / "timed")
        runs = [timed] + [
            spawn(workload, seed, 0.0, 0, work_root / f"setup-{i}", setup_only=True) for i in range(1, SETUPS)
        ]
        metrics, detail = end_to_end(timed, runs)
        record = {"end_to_end": metrics, "end_to_end_detail": detail}
    else:
        untraced = spawn(workload, seed, seconds / 2, 0, work_root / "untraced")
        traced = spawn(workload, seed, seconds / 2, 1, work_root / "traced", start=untraced["ops"])
        runs = [untraced, traced]
        untraced_metrics, detail = end_to_end(untraced, [untraced])
        traced_metrics, traced_detail = end_to_end(traced, [traced])
        tag = f"{workload}-seed{seed}"
        keep_spans(traced["work_dir"], f"{tag}-spans.txt")
        sweep_dir = work_root / "sweep"
        sweep_dir.mkdir()
        subprocess.run(
            [sys.executable, str(BENCH / "sweep.py"), "--seed", str(seed), "--work-dir", str(sweep_dir)],
            cwd=ROOT, check=True, timeout=CHILD_TIMEOUT_S, stdout=subprocess.DEVNULL,
        )
        keep_spans(sweep_dir, f"{tag}-sweep-spans.txt")
        layer = json.loads((sweep_dir / "result.json").read_text(encoding="utf-8"))
        layer.update(solve_counts(traced))
        for name, value in traced_metrics.items():
            layer[f"trace_overhead.{name}"] = value - untraced_metrics[name]
        metrics = {name: layer[name] for name, *_ in catalog.PER_LAYER}
        record = {
            "end_to_end": untraced_metrics, "end_to_end_detail": detail, "per_layer": metrics,
            "traced_end_to_end": traced_metrics, "traced_detail": traced_detail,
        }
    failed = sum(r["failed"] for r in runs) + repeat_failures(runs)
    attempted = sum(r["ops"] for r in runs)
    return metrics, record, attempted, failed


def print_table(rows) -> None:
    width = max(len(r[0]) for r in rows)
    for name, value, unit, note in rows:
        print(f"  {name.ljust(width)}  {value:>14.6g} {unit:<8} {note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(catalog.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=catalog.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--manifest", action="store_true", help="print BENCHMARK.json and exit")
    args = parser.parse_args(argv)
    if args.manifest:
        print(json.dumps(catalog.manifest(), indent=2))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a ckrig checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    env = environment()
    work_root = WORK / str(os.getpid())
    OUT.mkdir(exist_ok=True)
    try:
        metrics, record, attempted, failed = measure(args, work_root)
    except (subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    operation, unit_of_work = catalog.OPERATION[args.workload]
    record.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        setups=SETUPS, environment=env, attempted=attempted, failed=failed,
        failed_frac=failed / attempted, operation=operation, unit_of_work=unit_of_work,
    )
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=2), encoding="utf-8")

    print(f"ckrig benchmark: workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print("  " + ", ".join(f"{k} {v}" for k, v in env.items()))
    detail = record["end_to_end_detail"]
    print(f"  operation: {operation}; work unit: {unit_of_work}; {detail['operations_timed']} timed, "
          f"tail = p{detail['tail_percentile']:.1f}")
    if args.trace:
        units = {n: (u, moves) for n, u, _, moves in catalog.PER_LAYER}
        print_table([(n, v, units[n][0], units[n][1]) for n, v in metrics.items()])
    else:
        units = {n: u for n, u, *_ in catalog.END_TO_END}
        print_table([(n, v, units[n], "") for n, v in metrics.items()])
    print(f"  failed_frac {failed / attempted:.6g} ({failed} of {attempted}); record in {out_file.relative_to(ROOT)}")

    table = catalog.PER_LAYER if args.trace else catalog.END_TO_END
    unit_of = {row[0]: row[1] for row in table}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": unit_of[n]} for n, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
