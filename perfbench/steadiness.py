"""Run two sets of N runs of one workload and compare them metric by metric.

    python3 perfbench/steadiness.py --workload pcap-flows --runs 10

Set A uses seeds 1..N and set B seeds N+1..2N, each run a fresh
`perfbench/run.py` process of BENCHMARK.json's run length. For every metric
it prints each set's median and quartiles (`statistics.quantiles(n=4)`), the
spread (quartile distance over the median) and the difference of the
medians in the metric's worse direction, against the bound from
BENCHMARK.json. It also compares the share of failed operations. This is the
measurement the bounds were set from; the summary is written to
perfbench/out/steadiness-<workload>-trace<t>.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"seed {seed} failed with code {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarize(values):
    """Median, quartiles and their distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else float("inf")}


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    specs = {m["name"]: m for m in bench["end_to_end" if args.trace == 0 else "per_layer"]}

    sets = {}
    for label, first in (("A", 1), ("B", args.runs + 1)):
        results = []
        for seed in range(first, first + args.runs):
            res = run_once(args.workload, seed, args.seconds, args.trace)
            results.append(res)
            print(f"set {label} seed {seed}: attempted {res['attempted']} "
                  f"failed {res['failed']} correct {res['correct']}", file=sys.stderr)
        sets[label] = results

    summary = {"workload": args.workload, "runs": args.runs, "seconds": args.seconds,
               "trace": args.trace, "metrics": {}, "failed_share": {}}
    print(f"{'metric':<28} {'A median [q1, q3]':>36} {'spread':>7} "
          f"{'B median [q1, q3]':>36} {'spread':>7} {'B worse':>8} {'bound':>6}")
    for name, spec in specs.items():
        row = {}
        for label, results in sets.items():
            row[label] = summarize([r["metrics"][name]["value"] for r in results])
        a, b = row["A"]["median"], row["B"]["median"]
        sign = 1 if spec["better"] == "lower" else -1
        row["b_worse"] = sign * (b - a) / abs(a) if a else 0.0
        bound = spec.get("bound")
        summary["metrics"][name] = row
        cells = " ".join(
            f"{row[s]['median']:>12.6g} [{row[s]['q1']:>9.6g}, {row[s]['q3']:>9.6g}] "
            f"{row[s]['spread']:>7.2%}" for s in "AB")
        print(f"{name:<28} {cells} {row['b_worse']:>8.2%} "
              f"{'' if bound is None else f'{bound:.2f}':>6}")
    for label, results in sets.items():
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        summary["failed_share"][label] = shares
        print(f"set {label}: failed shares {shares}")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"steadiness-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({**summary, "runs_detail": sets}, indent=1) + "\n")


if __name__ == "__main__":
    main()
