"""One benchmark process: set-up, one pass over a workload's batch, checks.

    python3 bench/worker.py MODE WORKLOAD SEED

MODE is ``batch`` (untimed input generation, the timed batch, then the
checks), ``timing`` (the same without the checks), ``traced`` (the checked
batch with the layer boundaries wrapped; spans go to ``bench/out/``) or
``kernels`` (the layer kernels).  Every pass reports its set-up time and a
digest of all task outputs.  The last line of standard output is one JSON
object.  ``run.py`` starts a fresh worker for every pass, so each pass sees
cold library caches.

Between tasks the worker times a fixed reference loop (``Reference``) that
does not touch the library.  Its mean time tells ``run.py`` how fast the
machine ran during the pass, so that the pass's times can be scaled to one
nominal machine speed.
"""

import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

# (p, r) of every field a workload builds during set-up
FIELDS = {
    "quotient": ((3, 1), (5, 1)),
    "infinity": ((3, 1),),
    "symbols": ((3, 2),),
    "geometry": ((3, 1), (2, 2), (5, 1)),
}


# the reference work: a product of two fixed degree-23 polynomials over Z/7
# through a field object's table-driven add and mul, the kind of interpreter
# work ``carlitz.poly`` does, in code that no library change can alter
class _Z7:
    def __init__(self):
        self.add_table = [[(i + j) % 7 for j in range(7)] for i in range(7)]
        self.mul_table = [[(i * j) % 7 for j in range(7)] for i in range(7)]

    def add(self, a, b):
        return self.add_table[a][b]

    def mul(self, a, b):
        return self.mul_table[a][b]


_Z = _Z7()
_A = [(5 * i + 3) % 7 for i in range(24)]
_B = [(3 * i + 1) % 7 for i in range(24)]


def _reference_work():
    gf, a, b = _Z, _A, _B
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = gf.add(out[i + j], gf.mul(x, y))
    return out


def _trimmed_mean(samples, trim=0.05):
    """Mean of the samples without the slowest ``trim`` share, where a sample
    was cut by the scheduler."""
    ordered = sorted(samples)
    return statistics.fmean(ordered[: len(ordered) - int(trim * len(ordered))])


class Reference:
    """Samples the machine's speed by timing ``_reference_work``.

    After a task it takes one sample per ``EVERY_S`` of the task's latency
    (at least one), so the samples follow the pass's time rather than its
    task count.  ``mean_s`` gives the speed over the whole pass and
    ``local_s`` the speed around each task: the samples taken after it and
    after its nearest neighbours, at least ``WINDOW`` of them."""

    EVERY_S = 0.002
    WARMUP = 200
    WINDOW = 20

    def __init__(self):
        self.samples = []
        self.after = []
        self.sample(self.WARMUP)
        self.samples.clear()

    def sample(self, n=1):
        clock, work, out = time.perf_counter, _reference_work, self.samples
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(n):
                t0 = clock()
                work()
                out.append(clock() - t0)
        finally:
            if enabled:
                gc.enable()

    def after_task(self, latency):
        start = len(self.samples)
        self.sample(max(1, round(latency / self.EVERY_S)))
        self.after.append(self.samples[start:])

    def mean_s(self):
        return _trimmed_mean(self.samples)

    def local_s(self):
        after, n, out = self.after, len(self.after), []
        for i in range(n):
            near, k = list(after[i]), 1
            while len(near) < self.WINDOW and k < n:
                for j in (i - k, i + k):
                    if 0 <= j < n:
                        near += after[j]
                k += 1
            out.append(_trimmed_mean(near))
        return out


def setup(workload):
    """Import the library, build the workload's fields and force their lazy
    tables; returns (fields, seconds taken).  The benchmark's own imports are
    left out."""
    start = time.perf_counter()
    sys.path.insert(0, SRC)
    import carlitz  # noqa: F401
    import carlitz.cli  # noqa: F401
    from carlitz.gf import GF

    fields = {}
    for p, r in FIELDS[workload]:
        gf = GF(p, r)
        gf.mul(1, 1)
        gf.inv(1)
        fields[gf.q] = gf
    return fields, time.perf_counter() - start


def render(x):
    """A canonical text form of a task output, for comparing two passes."""
    from carlitz.geometry import TreeVertex

    if isinstance(x, (list, tuple)):
        return "(" + ", ".join(render(y) for y in x) + ")"
    if isinstance(x, dict):
        return "{" + ", ".join(f"{k}: {v}" for k, v in sorted(x.items(), key=str)) + "}"
    if isinstance(x, TreeVertex):
        return x.label()
    if hasattr(x, "to_json"):
        return x.to_json()
    return str(x)


def run_batch(tasks, tracer=None, reference=None):
    """Run every task once, closed loop; returns (outputs, latencies, wall).
    With a ``reference``, it is sampled after every task; ``wall`` leaves the
    samples' time out."""
    clock = time.perf_counter
    outputs, latencies = [], []
    start = clock()
    sampling = 0.0
    for i, task in enumerate(tasks):
        if tracer is not None:
            tracer.task = i
        t0 = clock()
        try:
            out = (task.run(), None)
        except Exception as exc:  # a failing task is recorded, the batch goes on
            out = (None, exc)
        t1 = clock()
        latencies.append(t1 - t0)
        outputs.append(out)
        if reference is not None:
            reference.after_task(t1 - t0)
            sampling += clock() - t1
    return outputs, latencies, clock() - start - sampling


def digest(outputs):
    h = hashlib.sha256()
    for out, exc in outputs:
        h.update((f"{type(exc).__name__}: {exc}" if exc is not None else render(out)).encode())
        h.update(b"\n")
    return h.hexdigest()


def judge(tasks, outputs):
    """Check every output; returns the failed tasks."""
    failures = []
    for i, (task, (out, exc)) in enumerate(zip(tasks, outputs)):
        try:
            verdict = task.check(out) if exc is None else task.check_error(exc)
        except Exception as err:  # a check that crashes is a failed task
            verdict = ("fail", f"check raised {type(err).__name__}: {err}")
        if verdict is not None:
            kind, detail = verdict
            failures.append({"task": i, "kind": task.kind, "failure": kind, "label": task.label, "detail": detail})
    return failures


def cache_gauges():
    """Hits, misses and sizes of the library's memo caches, read from outside;
    a cache the library no longer has reads 0."""
    from carlitz import operator, torsion

    out = {}
    for name, fn in (("cache_exact", "_operator_cached"), ("cache_mod", "_operator_coeffs_mod")):
        cached = getattr(operator, fn, None)
        info = cached.cache_info() if hasattr(cached, "cache_info") else None
        out[f"operator.{name}.hits"] = info.hits if info else 0
        out[f"operator.{name}.misses"] = info.misses if info else 0
        out[f"operator.{name}.size"] = info.currsize if info else 0
    out["torsion.vq_cache.size"] = len(getattr(torsion, "_vq_cache", ()))
    return out


def main(argv):
    mode, workload, seed = argv[0], argv[1], int(argv[2])
    reference = Reference()
    reference.sample(Reference.WINDOW)
    fields, setup_s = setup(workload)
    reference.sample(Reference.WINDOW)
    setup_reference_s = _trimmed_mean(reference.samples)
    sys.path.insert(0, HERE)
    if mode == "kernels":
        from kernels import kernels

        return {"kernels": kernels(seed)}

    import workloads

    tasks = workloads.build(workload, seed, fields)
    result = {"setup_s": setup_s, "setup_reference_s": setup_reference_s, "tasks": len(tasks)}
    if mode in ("batch", "timing"):
        outputs, latencies, wall = run_batch(tasks, reference=reference)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    elif mode == "traced":
        from tracer import Tracer

        with Tracer(extra_modules=[workloads]) as tracer:
            outputs, latencies, wall = run_batch(tasks, tracer, reference)
        result["layers"] = tracer.metrics()
        result["gauges"] = cache_gauges()
        result["missing_boundaries"] = tracer.missing
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write_spans(os.path.join(out_dir, f"spans-{workload}-{seed}.jsonl"))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    result["wall_s"] = wall
    result["reference_s"] = reference.mean_s()
    result["reference_local_s"] = reference.local_s()
    result["latencies"] = latencies
    result["digest"] = digest(outputs)
    result["failures"] = [] if mode == "timing" else judge(tasks, outputs)
    return result


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
