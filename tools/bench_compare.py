#!/usr/bin/env python3
"""Bench regression gate: diff fresh bench JSON against a checked-in baseline.

Usage:
    bench_compare.py --baseline BENCH_x.json --fresh fresh_x.json \
                     [--baseline ... --fresh ...] [--threshold 0.5] \
                     [--scaling-floor 8:2] [--predictor-floor 0.05:50]

Walks the baseline document and, for every metric it recognizes, checks the
fresh run against it:

  * keys containing "checksum" must match exactly (simulation outputs are
    deterministic: a mismatch is a correctness bug, never noise);
  * throughput keys (events_per_sec, jobs_per_sec) must satisfy
    fresh >= baseline * (1 - threshold);
  * latency keys (mean, p50, p90, p99, max, wall_seconds) must satisfy
    fresh <= baseline / (1 - threshold).

When both documents carry a top-level "host_cores" and the values differ,
throughput/latency gating is refused for that pair — absolute rates are not
comparable across machines — while checksums stay exact.

Two floors check the fresh run against itself (no baseline needed; --fresh
alone works):

  * --scaling-floor T:R: every swept kernel must reach R x its 1-thread
    throughput at T threads. Skipped (with a note) when the fresh host has
    fewer than max(4, T) cores — thread scaling on an oversubscribed or
    tiny host measures the scheduler, not the kernel;
  * --predictor-floor E:S: a bench_predictor document must stay within the
    model's documented error envelope (corun_err_max and solo_err_max <= E)
    and the analytic screening must beat simulating the pair matrix by at
    least S x (screening_speedup >= S). The speedup is an intra-file ratio —
    both sides ran on the same host — so it is gated even across machines.
    Skipped (with a note) for documents without the predictor fields.

Everything else (speedups, in-run baselines, nondeterministic cost wall
times) is skipped — the walk is baseline-driven, so adding fields to fresh
output never breaks the gate. Lists of objects are aligned by an identity
key (workload / self+peer / name / threads) when one exists, by index
otherwise. Exits 0 when every pair passes, 1 on any regression, 2 on bad
input. Fresh files may carry leading non-JSON lines (bench table output);
the last parseable JSON document wins.
"""

import argparse
import json
import sys

THROUGHPUT_KEYS = {"events_per_sec", "jobs_per_sec"}
LATENCY_KEYS = {"mean", "p50", "p90", "p99", "max", "wall_seconds"}
IDENTITY_KEYS = ("workload", "self", "name", "threads", "bench")


def load_json_lenient(path):
    """Parse `path` as JSON, tolerating leading table output: falls back to
    the last line that parses as a JSON document."""
    with open(path, "r", encoding="utf-8") as f:
        text = f.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        pass
    for line in reversed(text.splitlines()):
        line = line.strip()
        if not line or line[0] not in "[{":
            continue
        try:
            return json.loads(line)
        except json.JSONDecodeError:
            continue
    raise ValueError(f"{path}: no parseable JSON document found")


def identity(item):
    if not isinstance(item, dict):
        return None
    parts = [f"{k}={item[k]}" for k in IDENTITY_KEYS if k in item]
    if "peer" in item:
        parts.append(f"peer={item['peer']}")
    return "/".join(parts) if parts else None


def align(baseline_list, fresh_list):
    """Pairs baseline entries with fresh entries by identity key, falling
    back to positional alignment. Yields (label, baseline_item, fresh_item);
    fresh_item is None when the fresh run is missing the entry."""
    fresh_by_id = {}
    for item in fresh_list:
        key = identity(item)
        if key is not None:
            fresh_by_id.setdefault(key, item)
    for index, base in enumerate(baseline_list):
        key = identity(base)
        if key is not None and key in fresh_by_id:
            yield key, base, fresh_by_id[key]
        elif key is None and index < len(fresh_list):
            yield f"[{index}]", base, fresh_list[index]
        else:
            yield key or f"[{index}]", base, None


def host_cores(doc):
    return doc.get("host_cores") if isinstance(doc, dict) else None


def iter_kernels(doc):
    """Yields (group_label, kernel_dict) from an analysis-perf document
    ({"workloads": [{"kernels": [...]}]}), a corun document
    ({"pairs": [{"kernels": [...]}]}), or a bare list of either."""
    if isinstance(doc, dict):
        groups = doc.get("workloads") or doc.get("pairs")
    else:
        groups = doc
    if not isinstance(groups, list):
        return
    for group in groups:
        if not isinstance(group, dict):
            continue
        if "workload" in group:
            label = group["workload"]
        elif "self" in group:
            label = f"{group['self']} vs {group.get('peer', '?')}"
        else:
            label = "?"
        for kernel in group.get("kernels", []):
            if isinstance(kernel, dict):
                yield label, kernel


class Gate:
    def __init__(self, threshold):
        self.threshold = threshold
        self.failures = []
        self.checked = 0
        self.skipped = 0
        self.notes = []
        # Per-pair: cleared when baseline and fresh ran on different core
        # counts (cross-machine throughput is not comparable).
        self.rates_comparable = True

    def compare(self, path, base, fresh):
        if isinstance(base, dict):
            if not isinstance(fresh, dict):
                self.failures.append(f"{path}: fresh is not an object")
                return
            for key, value in base.items():
                if key in fresh:
                    self.compare_leaf(f"{path}.{key}", key, value, fresh[key])
                elif isinstance(value, (dict, list)) or self.gated(key):
                    self.failures.append(f"{path}.{key}: missing from fresh run")
            return
        if isinstance(base, list):
            if not isinstance(fresh, list):
                self.failures.append(f"{path}: fresh is not a list")
                return
            for label, base_item, fresh_item in align(base, fresh):
                if fresh_item is None:
                    self.failures.append(f"{path}[{label}]: missing from fresh run")
                else:
                    self.compare(f"{path}[{label}]", base_item, fresh_item)

    def gated(self, key):
        return ("checksum" in key or key in THROUGHPUT_KEYS
                or key in LATENCY_KEYS)

    def compare_leaf(self, path, key, base, fresh):
        if isinstance(base, (dict, list)):
            self.compare(path, base, fresh)
            return
        if "checksum" in key:
            self.checked += 1
            if base != fresh:
                self.failures.append(
                    f"{path}: checksum mismatch (baseline {base}, fresh {fresh})")
        elif key in THROUGHPUT_KEYS and isinstance(base, (int, float)):
            if not self.rates_comparable:
                self.skipped += 1
                return
            self.checked += 1
            floor = base * (1.0 - self.threshold)
            if not isinstance(fresh, (int, float)) or fresh < floor:
                self.failures.append(
                    f"{path}: throughput regressed (baseline {base:.4g}, "
                    f"fresh {fresh}, floor {floor:.4g})")
        elif key in LATENCY_KEYS and isinstance(base, (int, float)):
            if not self.rates_comparable:
                self.skipped += 1
                return
            self.checked += 1
            ceiling = base / (1.0 - self.threshold)
            if not isinstance(fresh, (int, float)) or fresh > ceiling:
                self.failures.append(
                    f"{path}: latency regressed (baseline {base:.4g}, "
                    f"fresh {fresh}, ceiling {ceiling:.4g})")
        else:
            self.skipped += 1

    def check_predictor_floor(self, path, doc, max_error, min_speedup):
        """bench_predictor fresh-file check: the analytic model's worst
        predicted-vs-simulated miss-ratio error stays within the documented
        envelope, and screening the pair matrix actually beats simulating
        it. A broken model (wrong capacity units, dropped composition term)
        blows corun_err_max out by an order of magnitude, and a profile-side
        perf regression erodes the speedup — both fail loudly here."""
        if not isinstance(doc, dict) or "corun_err_max" not in doc:
            self.notes.append(
                f"{path}: predictor floor skipped (no corun_err_max field)")
            return
        for key in ("corun_err_max", "solo_err_max"):
            value = doc.get(key)
            self.checked += 1
            if not isinstance(value, (int, float)) or value > max_error:
                self.failures.append(
                    f"{path}.{key}: prediction error {value} above the "
                    f"{max_error} envelope")
        speedup = doc.get("screening_speedup")
        self.checked += 1
        if not isinstance(speedup, (int, float)) or speedup < min_speedup:
            self.failures.append(
                f"{path}.screening_speedup: {speedup} below the "
                f"{min_speedup}x floor")

    def check_scaling_floor(self, path, doc, threads, ratio):
        """Swept kernels reach ratio x their 1-thread throughput at
        `threads` threads; skipped below max(4, threads) host cores."""
        cores = host_cores(doc)
        if cores is None or cores < max(4, threads):
            self.notes.append(
                f"{path}: scaling floor skipped (host_cores="
                f"{cores if cores is not None else 'absent'}, need >= "
                f"{max(4, threads)})")
            return
        for label, kernel in iter_kernels(doc):
            sweep = kernel.get("sweep")
            if not sweep:
                continue
            by_threads = {p.get("threads"): p.get("events_per_sec")
                          for p in sweep}
            narrow, wide = by_threads.get(1), by_threads.get(threads)
            if narrow is None or wide is None or narrow <= 0:
                continue
            self.checked += 1
            if wide < ratio * narrow:
                self.failures.append(
                    f"{path}[{label}].{kernel.get('name', '?')}: "
                    f"{wide:.4g} ev/s at {threads} threads is below "
                    f"{ratio:.2f}x the 1-thread {narrow:.4g} ev/s")


def parse_scaling_floor(text):
    threads, _, ratio = text.partition(":")
    return int(threads), float(ratio)


def parse_predictor_floor(text):
    max_error, _, min_speedup = text.partition(":")
    return float(max_error), float(min_speedup)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", action="append", default=[],
                        help="checked-in baseline JSON (repeatable; may be "
                             "omitted when only floor checks are wanted)")
    parser.add_argument("--fresh", action="append", default=[],
                        help="fresh bench output, paired with --baseline in order")
    parser.add_argument("--threshold", type=float, default=0.5,
                        help="allowed fractional regression in (0, 1); "
                             "throughput floor = baseline*(1-t), latency "
                             "ceiling = baseline/(1-t) (default 0.5)")
    parser.add_argument("--scaling-floor", type=parse_scaling_floor,
                        default=None, metavar="T:R",
                        help="fresh-file check: swept kernels reach R x "
                             "1-thread throughput at T threads (skipped "
                             "below max(4, T) host cores)")
    parser.add_argument("--predictor-floor", type=parse_predictor_floor,
                        default=None, metavar="E:S",
                        help="fresh-file check: predictor documents keep "
                             "corun/solo max abs error <= E and screening "
                             "speedup >= S")
    args = parser.parse_args()

    if not args.fresh:
        print("bench_compare: need at least one --fresh file", file=sys.stderr)
        return 2
    if args.baseline and len(args.baseline) != len(args.fresh):
        print("bench_compare: need matching --baseline/--fresh pairs",
              file=sys.stderr)
        return 2
    if not (0.0 < args.threshold < 1.0):
        print("bench_compare: --threshold must be in (0, 1)", file=sys.stderr)
        return 2

    gate = Gate(args.threshold)
    baselines = args.baseline or [None] * len(args.fresh)
    for baseline_path, fresh_path in zip(baselines, args.fresh):
        try:
            fresh = load_json_lenient(fresh_path)
            baseline = (load_json_lenient(baseline_path)
                        if baseline_path is not None else None)
        except (OSError, ValueError) as err:
            print(f"bench_compare: {err}", file=sys.stderr)
            return 2
        if baseline is not None:
            base_cores, fresh_cores = host_cores(baseline), host_cores(fresh)
            gate.rates_comparable = (base_cores is None or fresh_cores is None
                                     or base_cores == fresh_cores)
            if not gate.rates_comparable:
                gate.notes.append(
                    f"{fresh_path}: throughput/latency not compared "
                    f"(baseline ran on {base_cores} cores, fresh on "
                    f"{fresh_cores}); checksums still gated")
            gate.compare(baseline_path, baseline, fresh)
            gate.rates_comparable = True
        if args.scaling_floor is not None:
            threads, ratio = args.scaling_floor
            gate.check_scaling_floor(fresh_path, fresh, threads, ratio)
        if args.predictor_floor is not None:
            max_error, min_speedup = args.predictor_floor
            gate.check_predictor_floor(fresh_path, fresh, max_error,
                                       min_speedup)

    print(f"bench_compare: {gate.checked} metrics gated, "
          f"{gate.skipped} informational fields skipped, "
          f"threshold {args.threshold}")
    for note in gate.notes:
        print(f"note: {note}")
    for failure in gate.failures:
        print(f"REGRESSION {failure}", file=sys.stderr)
    if gate.failures:
        print(f"bench_compare: {len(gate.failures)} regression(s)",
              file=sys.stderr)
        return 1
    print("bench_compare: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
