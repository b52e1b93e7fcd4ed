"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest bench/tests -q
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from carlitz.analytic import SeriesBudget  # noqa: E402
from carlitz.geometry import TreeVertex  # noqa: E402
from carlitz.padic import PadicElem  # noqa: E402
from carlitz.poly import Poly, RatFn  # noqa: E402
from carlitz.series import Series, VqElem  # noqa: E402
from carlitz.torsion import TorsionSetPadic, TorsionSetVq  # noqa: E402

WORKLOADS = ("quotient", "infinity", "symbols", "geometry")

# the boundaries each workload is documented (README.md) to hit
DOCUMENTED = {
    "quotient": [
        "poly.mul", "poly.divmod", "poly.pow_mod", "poly.is_irreducible", "poly.gcd",
        "padic.mul", "padic.pow", "padic.inverse", "padic.ctx_new", "padic.hensel_lift",
        "operator.carlitz_operator", "operator.carlitz_act", "torsion.torsion_padic",
    ],
    "infinity": [
        "poly.mul", "poly.divmod", "poly.gcd", "poly.ratfn_new",
        "series.mul", "series.inverse", "series.frobenius",
        "operator.carlitz_operator", "operator.carlitz_act",
        "torsion.torsion_vq", "torsion.divide_T", "reciprocity.kummer_solve",
        "analytic.carlitz_exp", "analytic.eisenstein", "analytic.period_partial",
    ],
    "symbols": [
        "poly.mul", "poly.divmod", "poly.gcd", "poly.pow_mod", "poly.is_irreducible",
        "operator.carlitz_operator", "operator.cyclotomic_poly", "residues.ddf",
        "reciprocity.residue_symbol", "reciprocity.check_reciprocity",
        "reciprocity.residue_degree_cyclotomic", "cli.main",
    ],
    "geometry": [
        "poly.mul", "poly.divmod", "poly.gcd", "poly.ratfn_new", "series.mul", "series.inverse",
        "geometry.descartes_form", "geometry.tree_distance",
    ],
}


@pytest.fixture(scope="module")
def built():
    """Fields and the seed-7 batch of every workload."""
    out = {}
    for name in WORKLOADS:
        fields, _ = worker.setup(name)
        out[name] = (fields, workloads.build(name, 7, fields))
    return out


@pytest.fixture(scope="module")
def traced(built):
    """One untraced and one traced pass over every workload."""
    out = {}
    for name, (_, tasks) in built.items():
        plain, _, _ = worker.run_batch(tasks)
        with tracer.Tracer(extra_modules=[workloads]) as tr:
            outputs, latencies, _ = worker.run_batch(tasks, tr)
        out[name] = (plain, outputs, tr, latencies)
    return out


def test_inputs_are_deterministic_per_seed(built):
    for name, (fields, tasks) in built.items():
        again = workloads.build(name, 7, fields)
        other = workloads.build(name, 8, fields)
        assert [t.label for t in again] == [t.label for t in tasks]
        assert [t.label for t in other] != [t.label for t in tasks]


def test_every_output_passes_its_check(traced, built):
    for name, (plain, _, _, _) in traced.items():
        failures = worker.judge(built[name][1], plain)
        assert all(f["failure"] == workloads.KNOWN_DEFECT for f in failures), failures
        if name != "infinity":
            assert not failures


def test_traced_outputs_equal_untraced(traced):
    for name, (plain, outputs, _, _) in traced.items():
        assert worker.digest(plain) == worker.digest(outputs), name


def test_documented_boundaries_record_calls(traced):
    for name, names in DOCUMENTED.items():
        stats = traced[name][2].metrics()
        missing = [b for b in names if stats[f"{b}.calls"] < 1]
        assert not missing, (name, missing)


def test_self_times_add_up_to_at_most_the_task_time(traced):
    for name, (_, _, tr, latencies) in traced.items():
        assert all(self_s >= -1e-9 for _, self_s in tr.stats.values()), name
        assert sum(self_s for _, self_s in tr.stats.values()) <= sum(latencies), name
        assert all(s is not None for s in tr.spans), name


def test_tracer_restores_every_original():
    import carlitz.operator
    import carlitz.poly
    import carlitz.torsion

    before = (Poly.__mul__, Poly.__rmul__, carlitz.torsion.carlitz_act, carlitz.operator.carlitz_act)
    with tracer.Tracer():
        assert Poly.__mul__ is not before[0]
        assert Poly.__rmul__ is Poly.__mul__
        assert carlitz.torsion.carlitz_act is carlitz.operator.carlitz_act is not before[2]
    assert (Poly.__mul__, Poly.__rmul__, carlitz.torsion.carlitz_act, carlitz.operator.carlitz_act) == before


def test_tracer_skips_a_boundary_the_library_lacks(monkeypatch):
    monkeypatch.setitem(tracer.COARSE, "torsion.gone", ("carlitz.torsion", "gone"))
    monkeypatch.setitem(tracer.BOUNDARIES, "torsion.gone", ("carlitz.torsion", "gone"))
    with tracer.Tracer() as tr:
        pass
    assert tr.missing == ["torsion.gone"]
    assert tr.metrics()["torsion.gone.calls"] == 0


# ---------------------------------------------------------------- corruption


def _flip(x):
    """The same kind of value with one digit (or field element) changed."""
    if isinstance(x, bool):
        return not x
    if isinstance(x, int):
        return x + 1
    if isinstance(x, Series):
        k = x.v if x.coeffs else x.prec - 1
        return x + type(x).monomial(x.gf, 1, k, x.prec)
    if isinstance(x, PadicElem):
        return x + x.ctx.one()
    if isinstance(x, Poly):
        return x + Poly.one(x.gf)
    if isinstance(x, RatFn):
        return x + RatFn.from_poly(Poly.one(x.gf))
    if isinstance(x, TorsionSetPadic):
        return TorsionSetPadic(x.ctx, x.order, [_flip(x.points[0])] + x.points[1:])
    if isinstance(x, TorsionSetVq):
        nonzero = [p for p in x.points if not p.is_zero()]
        rest = [p for p in x.points if p is not nonzero[0]]
        return TorsionSetVq(x.order, x.prec, [_flip(nonzero[0])] + rest)
    if isinstance(x, TreeVertex):
        return x.child(1)
    raise TypeError(type(x))


def _corrupt(kind, out):
    if kind in ("axiom_sum", "axiom_product", "exp"):
        return (out[0], _flip(out[1]))
    if kind == "divide_T":
        return ([_flip(out[0][0])] + out[0][1:], out[1])
    if kind == "kummer":
        return (out[0], out[1], _flip(out[2]))
    if kind in ("dirichlet", "period"):
        return (out[0], _flip(out[1]))
    if kind == "eisenstein":
        return (_flip(out[0]), out[1])
    if kind == "law":
        return (out[0] % 8 + 1, out[1], out[2])  # another element of F_9^*
    if kind == "split":
        return (out[0] + 1, out[1], out[2])
    if kind == "cli":
        return (out[0], out[1][:-1] + [out[1][-1].replace("True", "False")])
    if kind == "tree_distance":
        return [out[0] + 1] + out[1:]
    if kind == "ray":
        return out[:-1] + [_flip(out[-1])]
    return _flip(out)


def test_checker_counts_a_corrupted_result_as_failed(built):
    seen = set()
    for name, (_, tasks) in built.items():
        for task in tasks:
            if task.kind in seen:
                continue
            seen.add(task.kind)
            out = task.run()
            assert task.check(out) is None or task.kind == "eisenstein", task.label
            verdict = task.check(_corrupt(task.kind, out))
            assert verdict is not None and verdict[0] == "fail", (task.kind, task.label, verdict)
    assert len(seen) == 17


def test_eisenstein_defect_is_reported_not_hidden(built):
    tasks = [t for t in built["infinity"][1] if t.kind == "eisenstein"]
    verdicts = [t.check(t.run()) for t in tasks]
    assert all(v is None or v[0] == workloads.KNOWN_DEFECT for v in verdicts)
    assert any(v is not None for v in verdicts)


def test_eisenstein_digit_below_the_tail_bound_is_an_ordinary_failure(built):
    # b = s, k = 2, degree_bound 1, precision 48 shows the defect: the result
    # differs from degree_bound 2 at s^44, above the tail bound 12
    gf = built["infinity"][0][3]
    b = VqElem.from_terms(gf, {1: 1})
    task = workloads._eisenstein_task(b, 2, SeriesBudget(degree_bound=1, precision=48))
    value, cert = task.run()
    assert task.check((value, cert))[0] == workloads.KNOWN_DEFECT
    # a wrong digit the enumerated shells determine is an ordinary failure
    assert value.v < workloads.eisenstein_tail_bound(b, 2, 1)
    assert task.check((_flip(value), cert))[0] == "fail"


# ---------------------------------------------------------------- the contract


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_metric_names_and_counts():
    spec = _spec()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS) == list(run.WORKLOADS)
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in spec["end_to_end"])
    assert max(m["bound"] for m in spec["end_to_end"]) <= 0.25


def test_per_layer_names_match_what_the_passes_report(traced):
    spec = _spec()
    wanted = {m["name"] for m in spec["per_layer"]}
    layers = set(traced["quotient"][2].metrics()) | set(worker.cache_gauges())
    kern = {n for n in wanted if n.startswith("kern.")}
    assert layers | kern | {"trace.overhead_frac"} == wanted


def test_kernel_pass_reports_every_kernel():
    from kernels import kernels

    spec = _spec()
    got = kernels(1)
    assert set(got) == {m["name"] for m in spec["per_layer"] if m["name"].startswith("kern.")}
    assert all(v > 0 for v in got.values())


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(100) == 90.0
    assert run.tail_percentile(999) == 90.0
    assert run.tail_percentile(1000) == 99.0
    with pytest.raises(ValueError):
        run.tail_percentile(99)


def test_reference_samples_follow_task_time():
    ref = worker.Reference()
    for latency in (0.0001, 0.010, 0.0001):
        ref.after_task(latency)
    assert [len(a) for a in ref.after] == [1, 5, 1]
    local = ref.local_s()
    assert len(local) == 3 and all(t > 0 for t in local)


def test_times_scale_with_the_reference():
    # a pass on a machine twice as slow takes twice as long and its reference
    # samples do too; both read the same once scaled
    fast = {"latencies": [0.010, 0.002], "reference_local_s": [run.REFERENCE_S] * 2,
            "setup_s": 0.05, "setup_reference_s": run.REFERENCE_S}
    slow = {"latencies": [0.020, 0.004], "reference_local_s": [2 * run.REFERENCE_S] * 2,
            "setup_s": 0.10, "setup_reference_s": 2 * run.REFERENCE_S}
    assert run.scaled_latencies(slow) == pytest.approx(run.scaled_latencies(fast))
    assert run.scaled_latencies(fast) == pytest.approx([0.010, 0.002])
    assert run.scaled_setup(slow) == pytest.approx(run.scaled_setup(fast))


def test_run_fails_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    cmd = [sys.executable, "bench/run.py", "--workload", "symbols", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
