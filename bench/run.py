"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from ``src/``.  Every
pass runs in a fresh worker process (``worker.py``), one at a time: one client,
one task at a time, no threads.

``--trace 0`` measures the end-to-end metrics: a fixed number of untraced
passes over the workload's fixed batch, as many as fit in ``--seconds`` at the
pass time measured for the workload when the benchmark was built (at least
three).  The number never depends on how fast the library runs, so every
version is timed over the same number of passes.  The first pass checks every
output and the others must reproduce it exactly.

Every time is scaled to one nominal machine speed: it is multiplied by
``REFERENCE_S`` over the mean time of the reference loop the worker sampled
next to it (see ``worker.Reference``): right after each task and its nearest
neighbours for a task's latency, just before and after set-up for the set-up
time.  Each task's latency is then its median over the passes; ``wall_s`` is
the sum of these per-task medians, and set-up time and peak memory are
medians over the passes.

``--trace 1`` measures the per-layer metrics: one untraced pass, one traced
pass over the same inputs (their outputs must match), and the layer kernels.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it is a
JSON ``detail`` object (tail percentile and sample counts, per-process values,
and every failed task by id).  A process that fails, or a library that cannot
be imported, ends the run with exit code 1 and no result line.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("quotient", "infinity", "symbols", "geometry")

# seconds one worker process takes for each workload's pass, measured on the
# 2-vCPU x86-64 VM the benchmark was built on while it ran slowly; only sets
# the pass count
PASS_S = {"quotient": 5.0, "infinity": 4.2, "symbols": 2.8, "geometry": 2.4}
MIN_PASSES = 3
# the nominal time of one reference sample (``worker.Reference``), about
# what it took on that VM; the reported times are at that machine speed
REFERENCE_S = 100e-6
WORKER_TIMEOUT_S = 150

# the layers each workload is meant to spend its time in; reported as the
# share of traced task time that is self time of those layers' boundaries
MAIN_LAYERS = {
    "quotient": ("poly", "padic", "operator"),
    "infinity": ("series", "torsion", "analytic"),
    "symbols": ("poly", "residues", "reciprocity"),
    "geometry": ("poly", "geometry"),
}


class WorkerFailed(Exception):
    pass


def worker(mode, workload, seed):
    cmd = [sys.executable, WORKER, mode, workload, str(seed)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{mode} pass timed out after {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerFailed(f"{mode} pass exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail_percentile(n):
    """The higher of p99 / p90 with at least ten samples beyond it."""
    for p in (99.0, 90.0):
        if n * (100.0 - p) / 100.0 >= 10:
            return p
    raise ValueError(f"a batch of {n} tasks is too small for a tail percentile")


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(p / 100.0 * len(ordered)) - 1, 0)]


def unexpected(passes):
    """Failed tasks other than instances of a documented defect."""
    return [f for r in passes for f in r["failures"] if f["failure"] == "fail"]


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def pass_count(workload, seconds):
    return max(MIN_PASSES, round(seconds / PASS_S[workload]))


def scaled_latencies(result):
    """A pass's task latencies at the nominal machine speed."""
    return [t * REFERENCE_S / ref for t, ref in zip(result["latencies"], result["reference_local_s"])]


def scaled_setup(result):
    return result["setup_s"] * REFERENCE_S / result["setup_reference_s"]


def end_to_end(workload, seed, seconds):
    # the first pass checks every output; later passes must reproduce it
    passes = [worker("batch", workload, seed)]
    while len(passes) < pass_count(workload, seconds):
        passes.append(worker("timing", workload, seed))
    # on a shared machine the speed comes and goes, in spells from
    # milliseconds to minutes; the reference loop sampled next to each task
    # moves with it, and scaling by it takes most of that out
    setups = [scaled_setup(r) for r in passes]
    n = passes[0]["tasks"]
    p = tail_percentile(n)
    scaled = [scaled_latencies(r) for r in passes]
    latencies = [statistics.median(s[i] for s in scaled) for i in range(n)]
    failed = len(passes[0]["failures"])
    values = {
        "wall_s": sum(latencies),
        "task_p50_ms": statistics.median(latencies) * 1e3,
        "task_tail_ms": percentile(latencies, p) * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in passes),
        "ok_frac": 1.0 - failed / n,
    }
    detail = {
        "workload": workload,
        "seed": seed,
        "passes": len(passes),
        "tasks_per_pass": n,
        "tail_percentile": p,
        "tail_samples_beyond": n - math.ceil(p / 100.0 * n),
        "pass_wall_s": [r["wall_s"] for r in passes],
        "pass_reference_s": [r["reference_s"] for r in passes],
        "setup_s": setups,
        "failed_tasks": passes[0]["failures"],
    }
    consistent = len({r["digest"] for r in passes}) == 1
    correct = consistent and not unexpected(passes[:1])
    return values, detail, correct, n, failed


def per_layer(workload, seed):
    plain = worker("batch", workload, seed)
    traced = worker("traced", workload, seed)
    kern = worker("kernels", workload, seed)
    values = {**traced["layers"], **traced["gauges"], **kern["kernels"]}
    values["trace.overhead_frac"] = sum(scaled_latencies(traced)) / sum(scaled_latencies(plain)) - 1.0
    task_s = sum(traced["latencies"])
    main = [k for k in traced["layers"] if k.endswith(".self_s") and k.split(".")[0] in MAIN_LAYERS[workload]]
    detail = {
        "workload": workload,
        "seed": seed,
        "tasks_per_pass": traced["tasks"],
        "traced_task_s": task_s,
        "main_layers": MAIN_LAYERS[workload],
        "main_layer_self_share": sum(traced["layers"][k] for k in main) / task_s,
        "outputs_match": plain["digest"] == traced["digest"],
        "missing_boundaries": traced["missing_boundaries"],
        "failed_tasks": traced["failures"],
    }
    passes = [plain, traced]
    correct = detail["outputs_match"] and not unexpected(passes)
    attempted = plain["tasks"] + traced["tasks"]
    failed = len(plain["failures"]) + len(traced["failures"])
    return values, detail, correct, attempted, failed


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "carlitz")):
        print("error: src/carlitz not found; run from a checkout of the repository", file=sys.stderr)
        return 1
    try:
        if args.trace:
            values, detail, correct, attempted, failed = per_layer(args.workload, args.seed)
        else:
            values, detail, correct, attempted, failed = end_to_end(args.workload, args.seed, args.seconds)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    wanted = spec()["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
