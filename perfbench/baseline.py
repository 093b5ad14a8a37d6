"""Record a baseline: every workload untraced over several seeds, plus traced runs.

    python3 perfbench/baseline.py --seeds 1,2,3,4,5,6,7,8,9,10 \
        --out perfbench/baseline.json

With --seeds 1 it is the one command that runs every workload once and
prints every end-to-end metric with its unit.  It stops with a non-zero
status at the first run whose output checks fail.

For each workload and end-to-end metric it reports the median, the
quartiles and the spread (interquartile distance over the median, as
statistics.quantiles(values, n=4) gives the quartiles).  The first three
seeds also run traced; the ratio of traced to untraced medians on those
seeds is the tracing overhead, and the first traced run's per-layer table
and metrics are recorded.  Runs go one at a time, each in its own
process, from the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Traced runs on the first seeds; their end-to-end medians over the
# untraced medians of the same seeds give the tracing overhead.
TRACED_SEEDS = 3


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    out = {"result": json.loads(lines[-1]), "stdout": proc.stdout}
    for line in lines:
        if line.startswith("end-to-end json: "):
            out["e2e"] = json.loads(line[len("end-to-end json: "):])
        elif line.startswith("machine: "):
            out["machine"] = json.loads(line[len("machine: "):])
    return out


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--seconds", type=float, default=None,
                        help="defaults to run_seconds of BENCHMARK.json")
    parser.add_argument("--workloads", default=None, help="comma list; default all")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    seeds = [int(s) for s in args.seeds.split(",")]
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}

    report = {"seconds": seconds, "seeds": seeds, "workloads": {}}
    for name in names:
        runs, traced = [], []
        for i, seed in enumerate(seeds):
            r = run_once(name, seed, seconds, 0)
            runs.append(r)
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in r["result"]["metrics"].items()), flush=True)
            if i < TRACED_SEEDS:
                # Right after its untraced twin, so slow drift of a shared
                # machine's speed stays out of the overhead.
                traced.append(run_once(name, seed, seconds, 1))
        metrics = {}
        for metric in runs[0]["result"]["metrics"]:
            metrics[metric] = summarize([r["result"]["metrics"][metric]["value"] for r in runs])
            metrics[metric]["bound"] = bounds.get(metric)
        overhead = {
            k: statistics.median(t["e2e"][k] for t in traced)
            / statistics.median(r["e2e"][k] for r in runs[:TRACED_SEEDS]) - 1.0
            for k in runs[0]["e2e"]
        }
        report["workloads"][name] = {
            "end_to_end": metrics,
            "per_layer": {k: v["value"] for k, v in traced[0]["result"]["metrics"].items()},
            "tracing_overhead": overhead,
            "traced_stdout": traced[0]["stdout"].splitlines()[:-1],
        }
        report["machine"] = runs[0]["machine"]
        print(f"-- {name}")
        for metric, s in metrics.items():
            flag = "" if s["bound"] is None or s["spread"] < s["bound"] / 3 else "  (above bound/3)"
            print(f"   {metric:<26} median {s['median']:12.4f} {units[metric]:<5}"
                  f" spread {s['spread']:.4f} bound {s['bound']}{flag}")
        print("   tracing overhead: " + ", ".join(f"{k} {v:+.1%}" for k, v in overhead.items()))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
