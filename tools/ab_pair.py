#!/usr/bin/env python3
"""Paired A/B runner: interleaved rounds of two commands printing a number.

Usage:
    ab_pair.py --a "CMD_A" --b "CMD_B" [--rounds 10] [--better higher|lower]

Each command runs through the shell and must print one number as the last
non-empty line of its standard output (pipe a bench's JSON through a short
extractor to get there). Round r runs A then B when r is even and B then A
when r is odd, so a drift of the host over the run (thermal state, a
neighbour's load) falls on both sides alike.

Prints, for each side, the median and the quartiles of its numbers; then
how many rounds B won (by --better); then the median of the per-round
ratios B / A. Exits 1 when any run exits non-zero or prints no number, and
2 on bad arguments.
"""

import argparse
import statistics
import subprocess
import sys


def quartiles(values):
    """(q1, median, q3) by linear interpolation between order statistics."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0], ordered[0], ordered[0]
    q1, median, q3 = statistics.quantiles(ordered, n=4, method="inclusive")
    return q1, median, q3


def run_once(label, command):
    """Runs `command`; returns its number, or None after reporting why not."""
    done = subprocess.run(command, shell=True, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(f"{label}: exit {done.returncode}: {command}\n"
                         f"{done.stderr[-2000:]}")
        return None
    lines = [line for line in done.stdout.splitlines() if line.strip()]
    try:
        return float(lines[-1])
    except (IndexError, ValueError):
        tail = lines[-1] if lines else "(no output)"
        sys.stderr.write(f"{label}: last line is not a number: {tail!r}\n")
        return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--a", required=True, help="command of side A")
    parser.add_argument("--b", required=True, help="command of side B")
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--better", choices=("higher", "lower"),
                        default="higher",
                        help="which direction of the number is a win")
    args = parser.parse_args()
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")

    results = {"A": [], "B": []}
    commands = {"A": args.a, "B": args.b}
    failed = False
    for r in range(args.rounds):
        order = ("A", "B") if r % 2 == 0 else ("B", "A")
        row = {}
        for side in order:
            value = run_once(f"round {r + 1} {side}", commands[side])
            if value is None:
                failed = True
            else:
                row[side] = value
        if len(row) == 2:
            results["A"].append(row["A"])
            results["B"].append(row["B"])
        print(f"round {r + 1:2d} ({order[0]} first): "
              + "  ".join(f"{s}={row.get(s, float('nan')):.6g}"
                          for s in ("A", "B")), flush=True)

    pairs = len(results["A"])
    if pairs == 0:
        print("no complete rounds")
        return 1
    for side in ("A", "B"):
        q1, median, q3 = quartiles(results[side])
        print(f"{side}: median {median:.6g}  quartiles [{q1:.6g}, {q3:.6g}]"
              f"  ({pairs} runs)")
    if args.better == "higher":
        wins = sum(b > a for a, b in zip(results["A"], results["B"]))
    else:
        wins = sum(b < a for a, b in zip(results["A"], results["B"]))
    ratios = [b / a for a, b in zip(results["A"], results["B"]) if a != 0]
    print(f"B wins {wins}/{pairs} ({args.better} is better)")
    if ratios:
        print(f"median B/A ratio {statistics.median(ratios):.4f}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
