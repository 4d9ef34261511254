#!/usr/bin/env python3
"""Compare two sets of causim-perf result files, or summarize one set.

A result file is the stdout of one `bench/perf/run.sh` invocation (one
workload, or a full pass over all of them): metric lines read
`workload metric value unit`, lines starting with `#` carry the machine
fingerprint, and JSON result lines are ignored. Each file holds one run of
each workload in it.

  compare.py --base A/*.txt --change B/*.txt [--benchmark BENCHMARK.json] [--all]
      For every end-to-end metric x workload, prints a verdict:
        improved    the change won >= 9/10 of the paired runs and its median
                    beats the parent's by more than the parent's quartile
                    spread;
        unresolved  either set's quartile spread (as a share of its median)
                    is wider than the metric's bound, and the runs do not
                    separate cleanly;
        regressed   the change's median is worse than the parent's by more
                    than the bound (error_rate: any rise at all);
        unchanged   otherwise.
      Runs are paired in the order given, so list both sets in the order
      they were run, alternating. Exits 1 if anything regressed or is
      unresolved. calib_ms (a fixed CPU loop) is compared as a drift check:
      if the machine itself got faster or slower between the sets, say so
      before blaming the code.

  compare.py --summary RUNS/*.txt [--traced TRACED/*.txt]
      Prints a baseline JSON document: median and quartiles of every metric
      per workload, split into end-to-end and per-layer blocks, with the
      machine fingerprint.
"""

import argparse
import json
import shlex
import statistics
import sys
from pathlib import Path

# error_rate is an end-to-end metric BENCHMARK.json cannot carry (its
# metrics must never read 0); it is gated here on any rise at all.
ERROR_RATE = "error_rate"
CALIBRATION = "calib_ms"
DRIFT_WARN = 0.05
VERDICTS = ("improved", "unchanged", "regressed", "unresolved")


def default_benchmark():
    return Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load_benchmark(path):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    return {m["name"]: m for m in doc["end_to_end"]}


def parse_run(path):
    """One run: ({(workload, metric): value}, {metric: unit}, fingerprint)."""
    values, units, fingerprint = {}, {}, {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if line.startswith("# fingerprint"):
                for item in shlex.split(line[len("# fingerprint"):]):
                    key, _, value = item.partition("=")
                    fingerprint[key] = value
                continue
            if not line or line.startswith(("#", "{")):
                continue
            fields = line.split()
            if len(fields) < 4:
                continue
            try:
                value = float(fields[2])
            except ValueError:
                continue
            values[(fields[0], fields[1])] = value
            units[fields[1]] = fields[3]
    return values, units, fingerprint


def load_set(paths):
    """{(workload, metric): [value per run, in the order given]}, units, fingerprints."""
    series, units, fingerprints = {}, {}, []
    for path in paths:
        values, run_units, fingerprint = parse_run(path)
        for key, value in values.items():
            series.setdefault(key, []).append(value)
        units.update(run_units)
        if fingerprint:
            fingerprints.append(fingerprint)
    return series, units, fingerprints


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def rel(x, base):
    return x / abs(base) if base else (0.0 if x == 0 else float("inf"))


def verdict(base, change, better, bound):
    """The choosing-metrics rule for one metric x workload."""
    sign = 1.0 if better == "higher" else -1.0
    mb, mc = statistics.median(base), statistics.median(change)
    b1, b3 = quartiles(base)
    c1, c3 = quartiles(change)
    gain = sign * (mc - mb)  # > 0: the change reads better
    pairs = list(zip(base, change))
    wins = sum(1 for a, c in pairs if sign * (c - a) > 0)
    all_better = all(sign * (c - a) > 0 for a in base for c in change)
    all_worse = all(sign * (c - a) < 0 for a in base for c in change)
    spread = max(rel(b3 - b1, mb), rel(c3 - c1, mc))
    if pairs and wins >= 0.9 * len(pairs) and gain > b3 - b1:
        return "improved"
    worse = rel(-gain, mb)
    if spread > bound and not all_better:
        return "regressed" if all_worse and worse > bound else "unresolved"
    return "regressed" if worse > bound else "unchanged"


def error_verdict(base, change):
    return "regressed" if max(change) > max(base) else "unchanged"


def fmt(values):
    q1, q3 = quartiles(values)
    return f"{statistics.median(values):.6g} [{q1:.6g}, {q3:.6g}]"


def compare(base_paths, change_paths, gates, show_all=False, out=sys.stdout):
    """Prints the verdict table; returns {verdict: count}."""
    base, units, _ = load_set(base_paths)
    change, change_units, _ = load_set(change_paths)
    units.update(change_units)
    counts = dict.fromkeys(VERDICTS, 0)
    workloads = sorted({w for w, _ in base} | {w for w, _ in change})
    out.write(f"base: {len(base_paths)} result files, change: {len(change_paths)}\n")
    out.write(f"{'workload':10} {'metric':26} {'verdict':11} "
              f"{'base median [q1, q3]':34} {'change median [q1, q3]':34} delta\n")
    for workload in workloads:
        metrics = sorted({m for w, m in base if w == workload} |
                         {m for w, m in change if w == workload})
        for metric in metrics:
            gated = metric in gates or metric == ERROR_RATE
            if not gated and not show_all:
                continue
            b = base.get((workload, metric))
            c = change.get((workload, metric))
            if not b or not c:
                v = "unresolved" if gated else "-"
                if gated:
                    counts[v] += 1
                out.write(f"{workload:10} {metric:26} {v:11} missing in "
                          f"{'base' if not b else 'change'}\n")
                continue
            if metric == ERROR_RATE:
                v = error_verdict(b, c)
            elif gated:
                g = gates[metric]
                v = verdict(b, c, g["better"], g["bound"])
            else:
                v = "-"
            if gated:
                counts[v] += 1
            delta = rel(statistics.median(c) - statistics.median(b), statistics.median(b))
            out.write(f"{workload:10} {metric:26} {v:11} {fmt(b):34} {fmt(c):34} "
                      f"{100 * delta:+.2f}% {units.get(metric, '')}\n")
    calib_b = [v for (_, m), vs in base.items() if m == CALIBRATION for v in vs]
    calib_c = [v for (_, m), vs in change.items() if m == CALIBRATION for v in vs]
    if calib_b and calib_c:
        drift = rel(statistics.median(calib_c) - statistics.median(calib_b),
                    statistics.median(calib_b))
        out.write(f"drift: calib_ms median {statistics.median(calib_b):.4g} -> "
                  f"{statistics.median(calib_c):.4g} ({100 * drift:+.2f}%)\n")
        if abs(drift) > DRIFT_WARN:
            out.write("warning: the machine's own speed moved between the sets; "
                      "re-run them alternating before reading the verdicts\n")
    out.write("summary: " + ", ".join(f"{counts[v]} {v}" for v in VERDICTS) + "\n")
    return counts


def block(series, units):
    doc = {}
    for (workload, metric), values in sorted(series.items()):
        q1, q3 = quartiles(values)
        doc.setdefault(workload, {})[metric] = {
            "median": statistics.median(values), "q1": q1, "q3": q3,
            "runs": len(values), "unit": units.get(metric, "")}
    return doc


def summary(run_paths, traced_paths, gates):
    series, units, fingerprints = load_set(run_paths)
    end_to_end = {k: v for k, v in series.items()
                  if k[1] in gates or k[1] in (ERROR_RATE, CALIBRATION)}
    doc = {
        "schema": "causim.perf.baseline.v1",
        "fingerprint": {k: v for k, v in (fingerprints[0] if fingerprints else {}).items()
                        if k not in ("seed", "trace")},
        "seeds": sorted({int(f["seed"]) for f in fingerprints if "seed" in f}),
        "end_to_end": block(end_to_end, units),
        "diagnostics": block({k: v for k, v in series.items() if k not in end_to_end}, units),
    }
    if traced_paths:
        traced, traced_units, _ = load_set(traced_paths)
        doc["per_layer"] = block(traced, traced_units)
    return doc


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", nargs="+", metavar="FILE")
    parser.add_argument("--change", nargs="+", metavar="FILE")
    parser.add_argument("--summary", nargs="+", metavar="FILE")
    parser.add_argument("--traced", nargs="+", metavar="FILE", default=[])
    parser.add_argument("--benchmark", default=str(default_benchmark()))
    parser.add_argument("--all", action="store_true",
                        help="also list ungated metrics (no verdict)")
    args = parser.parse_args(argv)
    gates = load_benchmark(args.benchmark)
    if args.summary:
        json.dump(summary(args.summary, args.traced, gates), sys.stdout, indent=2)
        sys.stdout.write("\n")
        return 0
    if not args.base or not args.change:
        parser.error("give --base and --change result files, or --summary")
    counts = compare(args.base, args.change, gates, args.all)
    return 1 if counts["regressed"] or counts["unresolved"] else 0


if __name__ == "__main__":
    sys.exit(main())
