"""Layer kernels: single library operations at fixed sizes, in microseconds per
call.  Inputs come from the seed; each kernel runs a few repeats of a fixed
number of calls and keeps the fastest repeat (``time.perf_counter``).

The ROADMAP's figures for ``Poly`` multiplication at degree 256, 5.4 / 59 /
102 ms for q = 3 / 4 / 9, are sanity references, not gates.  On a shared
2-vCPU x86-64 VM with CPython 3.11 this pass measured about 5.4 / 57 / 79 ms.
"""

from __future__ import annotations

import random
import time

from carlitz.gf import GF
from carlitz.operator import carlitz_operator
from carlitz.padic import PadicCtx
from carlitz.poly import poly_gcd, pow_mod
from carlitz.reciprocity import residue_symbol
from carlitz.series import VqElem
from carlitz.torsion import min_separating_prec, torsion_vq
from workloads import rand_exact_deg, rand_irreducible

FIELD_PR = {3: (3, 1), 4: (2, 2), 9: (3, 2)}


def _time(fn, calls, repeats):
    """Fastest of ``repeats`` runs of ``fn``, which makes ``calls`` calls; in us per call."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best / calls * 1e6


def _series(gf, rng, n):
    return VqElem.from_terms(gf, {k: rng.randrange(gf.q) for k in range(1, n)} | {0: 1}, prec=n)


def _gf_ops(gf, rng, op):
    pairs = [(rng.randrange(gf.q), rng.randrange(gf.q)) for _ in range(2000)]
    f = getattr(gf, op)
    return (lambda: [f(a, b) for a, b in pairs]), len(pairs)


def _distinct_polys(gf, rng, deg, count):
    seen = {}
    while len(seen) < count:
        f = rand_exact_deg(gf, rng, deg)
        seen.setdefault(f.coeffs, f)
    return list(seen.values())


def kernels(seed):
    """Every kernel, as {metric name: microseconds per call}."""
    rng = random.Random(f"kernels:{seed}")
    fields = {q: GF(*pr) for q, pr in FIELD_PR.items()}
    out = {}

    def run(name, fn, calls=1, repeats=3):
        out[name] = _time(fn, calls, repeats)

    for q, gf in fields.items():
        for op in ("add", "mul"):
            fn, calls = _gf_ops(gf, rng, op)
            run(f"kern.gf.{op}.q{q}", fn, calls)

    sizes = [(2048, 3), (32, 3), (256, 3), (32, 4), (256, 4), (32, 9), (256, 9)]
    for deg, q in sizes:
        gf = fields[q]
        a, b = rand_exact_deg(gf, rng, deg), rand_exact_deg(gf, rng, deg)
        c = rand_exact_deg(gf, rng, 2 * deg)
        reps = 2 if deg >= 2048 else 3
        run(f"kern.poly.mul.d{deg}.q{q}", lambda: a * b, repeats=reps)
        run(f"kern.poly.divmod.d{deg}.q{q}", lambda: divmod(c, a), repeats=reps)
    out["kern.gap.poly_mul.d256.q4_over_q3"] = out["kern.poly.mul.d256.q4"] / out["kern.poly.mul.d256.q3"]

    for q in (3, 9):
        gf = fields[q]
        a, b = rand_exact_deg(gf, rng, 256), rand_exact_deg(gf, rng, 256)
        run(f"kern.poly.gcd.d256.q{q}", lambda: poly_gcd(a, b))
        m = rand_exact_deg(gf, rng, 16, monic=True)
        base = rand_exact_deg(gf, rng, 15)
        run(f"kern.poly.pow_mod.d16.q{q}", lambda: pow_mod(base, q ** 16, m))

    for q in (3, 9):
        gf = fields[q]
        ctx = PadicCtx(rand_irreducible(gf, rng, 2), 16)
        x, y = ctx.elem(rand_exact_deg(gf, rng, 31)), ctx.elem(rand_exact_deg(gf, rng, 31))
        while x.valuation_lower() > 0:
            x = x + ctx.one()
        run(f"kern.padic.mul.q{q}", lambda: [x * y for _ in range(20)], calls=20)
        run(f"kern.padic.inverse.q{q}", lambda: [x.inverse() for _ in range(5)], calls=5)

    for q in (3, 9):
        gf = fields[q]
        x, y = _series(gf, rng, 400), _series(gf, rng, 400)
        run(f"kern.series.mul.p400.q{q}", lambda: x * y, repeats=2)
        run(f"kern.series.inverse.p400.q{q}", lambda: x.inverse(), repeats=2)
        if q == 3:
            run("kern.series.frobenius.p400.q3", lambda: [x.frobenius() for _ in range(20)], calls=20)

    for q, count in ((3, 40), (9, 4)):
        # fresh operands for every call and repeat: rho_M is memoized
        Ms = iter(_distinct_polys(fields[q], rng, 5, 3 * count))
        batches = [[next(Ms) for _ in range(count)] for _ in range(3)]
        out[f"kern.operator.build.d5.q{q}"] = min(
            _time(lambda: [carlitz_operator(M) for M in batch], count, 1) for batch in batches
        )

    gf = fields[3]
    Ms = _distinct_polys(gf, rng, 3, 20)
    run("kern.torsion.torsion_vq.d3.q3", lambda: [torsion_vq(M, 2 * min_separating_prec(M)) for M in Ms], calls=20, repeats=2)

    for q in (3, 9):
        gf = fields[q]
        P = rand_irreducible(gf, rng, 4)
        As = [rand_exact_deg(gf, rng, 3) for _ in range(10)]
        run(f"kern.reciprocity.residue_symbol.d4.q{q}", lambda: [residue_symbol(A, P, 2) for A in As], calls=len(As))
    return out
