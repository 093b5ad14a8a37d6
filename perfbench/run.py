"""hybridchat benchmark: one workload per invocation, result on the last line.

    python3 perfbench/run.py --workload chat-desk --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ./src of
that checkout and nowhere else.  --trace 0 prints the end-to-end metrics,
--trace 1 wraps every layer, prints the per-layer table with self times
and reports the per-layer metrics instead.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  The exit
status is 1 when an output check fails and 2 when the run cannot start.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import shutil
import sys
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def metric_units():
    """name -> unit of the end-to-end and the per-layer metrics, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def import_package():
    """The checkout's own hybridchat, or None when ./src does not hold it."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "hybridchat", "__init__.py")):
        return None
    sys.path.insert(0, src)
    names = ["pipeline", "generation", "ranking", "retrieval", "metrics", "textcore", "synth",
             "nncore.autodiff", "nncore.optim", "nncore.checkpoint"]
    mods = {n.split(".")[-1]: importlib.import_module(f"hybridchat.{n}") for n in names}
    if not os.path.abspath(mods["pipeline"].__file__).startswith(src + os.sep):
        return None
    return types.SimpleNamespace(**mods)


def machine_record() -> dict:
    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: deps.get(k) for k in ("name", "version", "openblas configuration")}
    except Exception:   # noqa: BLE001 - older numpy has no dict mode; record what is known
        blas = {"name": "unknown"}
    threads = None
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    threads = int(line.split()[1])
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "threads": threads,
        "commit": commit_id(),
        "source_sha256": source_digest(),
    }


def commit_id() -> str:
    """HEAD of the checkout's git metadata, read without running git."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path, encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (no git metadata; see source_sha256)"


def source_digest() -> str:
    """sha256 over src/ file names and contents: identifies the code without git."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def main(argv=None) -> int:
    # One BLAS thread: the cost is Python and tape overhead, and a single
    # thread keeps other tenants of a shared machine from stalling BLAS calls.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    hc = import_package()
    if hc is None:
        print(f"perfbench: no hybridchat sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    import layers
    import tracing
    import workloads

    if args.workload not in workloads.SPECS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.SPECS)}", file=sys.stderr)
        return 2
    spec = workloads.SPECS[args.workload]
    end_to_end, per_layer = metric_units()
    tracer = tracing.NullTracer()
    if args.trace:
        tracer = tracing.Tracer()
        layers.install(tracer, hc)

    work_root = os.path.join(ROOT, ".bench_work", f"{spec.name}-{args.seed}-{os.getpid()}")
    try:
        result = workloads.run_workload(hc, spec, args.seed, args.seconds, work_root, tracer)
    finally:
        if args.trace:
            tracer.uninstall()
        shutil.rmtree(work_root, ignore_errors=True)

    if args.trace:
        os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
        trace_path = os.path.join(ROOT, ".bench_out", f"trace-{spec.name}-seed{args.seed}.jsonl")
        tracer.write(trace_path)
        values = layers.per_layer_metrics(tracer)
        if set(values) != set(per_layer):
            raise SystemExit(f"perfbench: per-layer metrics differ from BENCHMARK.json: "
                             f"{sorted(set(values) ^ set(per_layer))}")
        result.checks.extend(layers.isolation(values, result.e2e, spec.name))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in per_layer.items()}
    else:
        metrics = {name: {"value": result.e2e.get(name, float("nan")), "unit": unit}
                   for name, unit in end_to_end.items()}

    print(f"== {spec.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for note in result.notes:
        print(f"  {note}")
    print("phases (attempted / succeeded / failed, degraded):")
    for name, p in result.phases.items():
        print(f"  {name:<9} {p.attempted:>6} {p.succeeded:>6} {p.failed:>4}  {p.degraded or ''}")
    print("checks:")
    for name, ok, detail in result.checks:
        print(f"  [{'ok' if ok else 'FAIL'}] {name}" + (f"  ({detail})" if detail else ""))
    print("end-to-end" + (" (traced, for the overhead)" if args.trace else "") + ":")
    for name, unit in end_to_end.items():
        print(f"  {name:<26} {result.e2e.get(name, float('nan')):>14.4f} {unit}")
    if args.trace:
        print(f"per-layer table ({len(tracer.spans)} spans, written to {os.path.relpath(trace_path, ROOT)}):")
        print(f"  {'span':<40} {'calls':>7} {'total s':>9} {'self s':>9} {'median ms':>10}")
        for row in tracer.table():
            print(f"  {row['name']:<40} {row['calls']:>7} {row['total_s']:>9.3f} "
                  f"{row['self_s']:>9.3f} {row['median_ms']:>10.3f}")
        print("per-layer metrics:")
        for name, unit in per_layer.items():
            print(f"  {name:<30} {values[name]:>12.4f} {unit}")
    print("end-to-end json: " + json.dumps(result.e2e, sort_keys=True))
    print("machine: " + json.dumps(machine_record(), sort_keys=True))
    attempted = sum(p.attempted for p in result.phases.values())
    failed = sum(p.failed for p in result.phases.values())
    print(json.dumps({"correct": result.correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    sys.stdout.flush()
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
