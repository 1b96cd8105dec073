"""Record a benchmark trajectory point: ``BENCH_<label>.json`` for one checkout.

    python3 tools/bench_record.py --checkout . --label main

Runs ``python3 benchmarks/run.py`` of the given checkout as a subprocess, once
per workload and seed in ``SEEDS`` (the workloads alternate within each seed),
each run as long as the checkout's ``BENCHMARK.json`` says, then its tier-1
test suite.  It writes, next to this ``tools/`` directory, per metric the
median, the quartiles and the spread between them over the runs, with every
run's value, plus the tier-1 wall time and its three slowest test phases.  The
file also records the checkout's git commit and the tree hashes of its
``src``, ``tests`` and ``benchmarks`` directories (``git rev-parse
<commit>:src`` names the same code in any clone), the numpy and BLAS
versions, ``os.cpu_count()`` and each run's calibration slowdown.  A checkout
with uncommitted changes to tracked files is refused, since no commit names
the code it would measure.

The recorder itself needs only the standard library and numpy; the benchmark
imports the program from the checkout's ``src/``.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

REPO_DIR = Path(__file__).resolve().parent.parent
WORKLOADS = ("xxz-pipeline", "digits")
SEEDS = (1, 2, 3, 4)
TREES = ("src", "tests", "benchmarks")
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "--durations=3", "-p", "no:cacheprovider"]


def git(checkout: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(checkout), *args], capture_output=True, text=True, check=True).stdout.strip()


def blas_info() -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
    except (TypeError, KeyError):  # numpy < 1.26 prints only
        return {}
    return {lib: {k: deps[lib].get(k) for k in ("name", "version")} for lib in ("blas", "lapack") if lib in deps}


def run_benchmark(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run; its JSON result line plus the calibration slowdown it printed."""
    argv = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} -> {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    slowdown = re.search(r"slowdown ([0-9.]+)", proc.stdout)
    result["slowdown"] = float(slowdown.group(1)) if slowdown else None
    return result


def summarize(values: list[float]) -> dict:
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1, "values": values}


def run_tier1(checkout: Path) -> dict:
    """Tier-1 suite wall time, its summary line and its three slowest test phases."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(checkout / "src"), os.environ.get("PYTHONPATH")]))}
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=checkout, capture_output=True, text=True, env=env)
    wall_s = time.perf_counter() - start
    lines = proc.stdout.splitlines()
    slowest = [
        {"seconds": float(m.group(1)), "phase": m.group(2), "test": m.group(3)}
        for m in (re.match(r"\s*([0-9.]+)s (setup|call|teardown)\s+(\S+)", line) for line in lines)
        if m
    ]
    summary = next((line.strip("= ") for line in reversed(lines) if re.search(r"\d+ (passed|failed)", line)), "")
    return {"wall_s": wall_s, "exit_code": proc.returncode, "summary": summary, "slowest": slowest[:3]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--checkout", type=Path, default=REPO_DIR, help="repository checkout to measure")
    parser.add_argument("--label", required=True, help="names the output file BENCH_<label>.json")
    args = parser.parse_args(argv)

    checkout = args.checkout.resolve()
    if git(checkout, "status", "--porcelain", "--untracked-files=no"):
        parser.error(f"{checkout} has uncommitted changes to tracked files; commit them first")
    seconds = json.loads((checkout / "BENCHMARK.json").read_text())["run_seconds"]
    runs = {w: [] for w in WORKLOADS}
    for i, seed in enumerate(SEEDS):
        for workload in WORKLOADS if i % 2 == 0 else WORKLOADS[::-1]:
            result = run_benchmark(checkout, workload, seed, seconds)
            runs[workload].append({"seed": seed, **result})
            print(f"{workload} seed {seed}: correct={result['correct']} slowdown={result['slowdown']}", flush=True)

    record = {
        "label": args.label,
        "git_sha": git(checkout, "rev-parse", "HEAD"),
        "trees": {name: git(checkout, "rev-parse", f"HEAD:{name}") for name in TREES},
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_info(),
        "cpu_count": os.cpu_count(),
        "seconds_per_run": seconds,
        "seeds": list(SEEDS),
        "workloads": {},
    }
    for workload, results in runs.items():
        names = results[0]["metrics"]
        record["workloads"][workload] = {
            "runs": len(results),
            "all_correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "slowdowns": [r["slowdown"] for r in results],
            "metrics": {
                name: {"unit": names[name]["unit"], **summarize([r["metrics"][name]["value"] for r in results])}
                for name in names
            },
        }
    record["tier1"] = run_tier1(checkout)
    out = REPO_DIR / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
