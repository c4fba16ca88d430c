#!/usr/bin/env python3
"""Steadiness report: runs each workload N times with different seeds and
prints, per end-to-end metric, the median, the quartiles and the spread
(Q3 - Q1) / median against the metric's bound in BENCHMARK.json.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1]
                                [--workload NAME ...]

A metric whose spread exceeds its bound is flagged; setup_s is reported but
not held to its bound, since its bound limits drift between medians rather
than run-to-run spread. Exits 1 when any other metric is flagged. Every
run's result is kept in .bench_out/steady-<workload>.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import stats  # noqa: E402


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: run.py exited "
                         f"{proc.returncode}")
    return json.loads(lines[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2 for quartiles")

    flagged = False
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        results = []
        for i in range(args.runs):
            results.append(run_once(workload, args.first_seed + i,
                                    spec["run_seconds"]))
            print(f"# {workload} run {i + 1}/{args.runs} done", flush=True)
        out = ROOT / ".bench_out" / f"steady-{workload}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps(results, indent=1))

        print(f"\n{workload}: {args.runs} runs, seeds "
              f"{args.first_seed}..{args.first_seed + args.runs - 1}")
        print(f"{'metric':<16}{'median':>14}{'q1':>14}{'q3':>14}"
              f"{'spread':>9}{'bound':>7}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = stats.spread(values)
            flag = ""
            if spread > metric["bound"]:
                flag = "  SPREAD > BOUND"
                flagged = flagged or name != "setup_s"
            elif spread > metric["bound"] / 3:
                flag = "  spread > bound/3"
            print(f"{name:<16}{median:>14.6g}{q1:>14.6g}{q3:>14.6g}"
                  f"{spread:>9.4f}{metric['bound']:>7}{flag}")
        if any(not r["correct"] or r["failed"] for r in results):
            print("  some runs failed or mismatched their checksums")
            flagged = True
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
