"""End-to-end checks of the command-line interface: every subcommand runs,
JSON output is well formed, failures map to the documented exit codes, the
parser built for one subcommand answers as the full one, and the
reciprocity sweep prints the rows of per-d symbol calls."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import carlitz
from conftest import field
from carlitz import operator as operator_module
from carlitz import torsion as torsion_module
from carlitz.cli import SUBCOMMANDS, build_parser, main, parse_fraction
from carlitz.errors import DomainError
from carlitz.gf import GF
from carlitz.poly import Poly, RatFn, euler_phi, monic_irreducibles, parse_poly, pow_mod, prime_divisors
from carlitz.reciprocity import check_reciprocity, residue_symbol


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_ok(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return out


# ---------------------------------------------------------------- smoke, one per subcommand


def test_act(capsys):
    out = run_ok(capsys, "act", "--q", "3", "--M", "T", "--u", "T+1")
    assert "T^3" in out


def test_operator(capsys):
    out = run_ok(capsys, "operator", "--q", "3", "--M", "T^2")
    assert "T^3+T" in out


def test_cyclotomic(capsys):
    out = run_ok(capsys, "cyclotomic", "--q", "3", "--P", "T", "--n", "1")
    assert out.strip() == "x^2 + T"


def test_torsion_padic(capsys):
    out = run_ok(capsys, "torsion-padic", "--q", "3", "--P", "T", "--N", "3")
    assert "T^2+T+1" in out


def test_torsion_vq(capsys):
    out = run_ok(capsys, "torsion-vq", "--q", "3", "--M", "T", "--prec", "8")
    assert "s^-1" in out


def test_divide_t(capsys):
    out = run_ok(capsys, "divide-t", "--q", "3", "--u", "s^-1 + O(s^8)")
    assert out.count("\n") == 3  # q branches


@pytest.mark.parametrize(
    "argv",
    [
        ("--q", "3", "--u", "s^-1", "--prec", "1000000000"),
        ("--q", "65537", "--u", "s^-1 + s", "--prec", "10"),
    ],
    ids=["canonical-branch-digits", "branch-digits-in-all"],
)
def test_divide_t_size_caps(capsys, argv):
    # a canonical branch of about 10^9 digits, and 65537 branches of 65547
    # digits each, are refused before any digit list is built
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "divide-t", *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1 and out == ""
    assert err.startswith("error[domain]") and "above the supported maximum" in err
    assert peak < 50 * 2**20


def test_completed_act(capsys):
    run_ok(capsys, "completed-act", "--q", "3", "--M", "T+1", "--u", "s^-1 + O(s^10)")


def test_dirichlet(capsys):
    out = run_ok(capsys, "dirichlet", "--q", "3", "--target", "s^-1 + O(s^12)", "--n", "2")
    assert "s^-1" in out


def test_symbol(capsys):
    out = run_ok(capsys, "symbol", "--q", "3", "--A", "T", "--P", "T+1", "--d", "2")
    assert out.strip().endswith("2")


def test_reciprocity_cmd(capsys):
    out = run_ok(capsys, "reciprocity", "--q", "3", "--P", "T", "--Q", "T+1", "--d", "2")
    assert "True" in out


def test_split_commands(capsys):
    out = run_ok(capsys, "split-kummer", "--q", "3", "--A", "T", "--P", "T+1", "--d", "2")
    assert out.strip().endswith("2")
    out = run_ok(capsys, "split-cyclotomic", "--q", "3", "--P", "T", "--A", "T+1")
    assert out.strip().endswith("2")


def test_split_cyclotomic_unit_modulus(capsys):
    # a constant A leaves the trivial unit group: every P has order 1 there,
    # while A = 0 shares a factor with every nonconstant P
    for A in ("1", "2"):
        assert run_ok(capsys, "split-cyclotomic", "--q", "3", "--P", "T", "--A", A) == "1\n"
        out = run_ok(capsys, "split-cyclotomic", "--q", "3", "--P", "T", "--A", A, "--output", "json")
        assert json.loads(out) == {"residue_degree": 1}
    code, _, err = run(capsys, "split-cyclotomic", "--q", "3", "--P", "T", "--A", "0")
    assert (code, err) == (1, "error[domain]: T is not coprime to 0\n")


def test_xi_and_newton(capsys):
    out = run_ok(capsys, "xi", "--q", "3", "--A", "T^2")
    assert "x^4" in out
    out = run_ok(capsys, "newton", "--q", "3", "--A", "T^2")
    assert "[0, -2]" in out and "[4, 0]" in out


def test_kummer_map_and_solve(capsys):
    out = run_ok(capsys, "kummer", "map", "--q", "3", "--u", "s^-2 + O(s^20)")
    assert out.startswith("T^2")
    run_ok(capsys, "kummer", "solve", "--q", "3", "--M", "T^2")


def test_star(capsys):
    run_ok(capsys, "star", "--q", "3", "--A", "T", "--nu", "T^-2 + O(T^-10)")


def test_tangent_and_family(capsys):
    out = run_ok(capsys, "tangent", "--q", "3", "--f1", "1/T", "--f2", "0")
    assert "true" in out
    out = run_ok(capsys, "family", "--q", "3", "--f1", "1/T", "--f2", "0")
    assert "1/(T+1)" in out


def test_tangent_reads_a_side_that_starts_with_a_coefficient_in_parens(capsys):
    # the outer pair encloses the whole numerator; the inner one is (w+1)
    gf = GF(2, 2)
    assert parse_fraction("((w+1)*T+1)/T", gf) == RatFn(Poly(gf, [1, 3]), Poly.T(gf))
    out = run_ok(capsys, "tangent", "--q", "4", "--f1", "((w+1)*T+1)/T", "--f2", "0")
    assert out == "false\n"


def test_parse_fraction_keeps_parens_that_do_not_enclose_the_side():
    gf = GF(2, 2)
    # the first pair closes before the side ends: nothing is removed
    assert parse_fraction("(w+1)*T+(w+1)/T", gf) == RatFn(Poly(gf, [3, 3]), Poly.T(gf))
    # an unclosed pair is a syntax error, not a cue to drop the last character
    with pytest.raises((ValueError, DomainError)):
        parse_fraction("(T+12/T", gf)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([GF(2, 2), GF(3, 2)]).flatmap(
    lambda gf: st.tuples(*[st.lists(st.integers(0, gf.q - 1), max_size=5).map(lambda c: Poly(gf, c))] * 2)
))
@example((Poly(GF(2, 2), [0, 3]), Poly(GF(2, 2), [0, 1])))  # ((w+1))/T before reduction
@example((Poly(GF(3, 2), [1]), Poly(GF(3, 2), [])))  # inf
def test_parse_fraction_reads_back_printed_fractions(pair):
    num, den = pair
    assume(not (num.is_zero() and den.is_zero()))
    f = RatFn(num, den)
    gf = num.gf
    assert parse_fraction(str(f), gf) == f
    if not f.is_infinity():
        assert parse_fraction(f"({f.num})/({f.den})", gf) == f


def test_descartes_subcommands(capsys):
    out = run_ok(capsys, "descartes", "family", "--q", "3", "--f1", "1/T", "--f2", "0")
    assert "0" in out
    run_ok(capsys, "descartes", "eval", "--q", "3", "--curvatures", "1/T;0;1/(T+1);1/(T+2)")
    run_ok(capsys, "descartes", "sweep", "--q", "3", "--count", "5", "--seed", "2")


def test_both_descartes_sweeps_draw_the_same_families(capsys):
    out = run_ok(capsys, "descartes", "sweep", "--q", "5", "--count", "6", "--seed", "4")
    sweep = run_ok(capsys, "sweep", "--kind", "descartes", "--q", "5", "--count", "6", "--seed", "4")
    rows = [r.split("\t") for r in out.splitlines()]
    assert [r[2] for r in rows] == ["zero"] * 6
    assert [r.split("\t") for r in sweep.splitlines()] == [[m, f, "True"] for m, f, _ in rows]


def test_descartes_form_text_frozen(capsys):
    # Descartes values print as (num)/(den), unlike the members' 1/T form
    out = run_ok(capsys, "descartes", "eval", "--q", "3", "--curvatures", "1/T;1/T^2;1;T")
    assert out == "(2*T^4+2*T^3+T^2+2*T+2)/(T^3)\n"


def test_period_exact_text_frozen(capsys):
    out = run_ok(capsys, "period", "--q", "3", "--N", "2")
    assert out.splitlines()[0] == (
        "exact = (T^30+2*T^28+2*T^12+T^10)/(T^30+2*T^28+T^24+T^22+T^20+T^18"
        "+T^16+T^14+T^12+T^10+T^8+T^6+2*T^2+1)"
    )


def test_soddy(capsys):
    out = run_ok(capsys, "soddy", "--n", "2", "--ks=-1,2,2,3")
    assert out.strip().endswith("0")


def test_soddy_reads_ascii_rationals(capsys):
    assert run_ok(capsys, "soddy", "--n", "2", "--ks=1/2,1/2,1/2,1/2").strip() == "2"
    assert run_ok(capsys, "soddy", "--n", "2", "--ks= -1, 2,2,3").strip() == "0"


@pytest.mark.parametrize(
    "ks",
    ["1_0,2,2,3", "٣,2,2,3", "1/0,1,1,1", "1/-2,1,1,1", "+1,2,2,3", "1.5,2,2,3", ",1,1,1"],
    ids=["underscore", "arabic", "zero-denominator", "signed-denominator", "plus", "decimal", "empty"],
)
def test_soddy_malformed_ks_is_usage_error(capsys, ks):
    # Fraction() read 1_0 as 10 and ٣ as 3, and 1/0 raised ZeroDivisionError
    code, out, err = run(capsys, "soddy", "--n", "2", f"--ks={ks}")
    assert code == 2 and out == ""
    assert err.startswith("error[usage]")


def test_tree_subcommands(capsys):
    out = run_ok(capsys, "tree", "neighbors", "--q", "3", "--vertex", "0;0")
    assert len(out.strip().splitlines()) == 4
    out = run_ok(capsys, "tree", "distance", "--q", "3", "--v1", "0;0", "--v2", "2;T^-1")
    assert out.strip().endswith("2")
    out = run_ok(capsys, "tree", "export", "--q", "3", "--radius", "1")
    assert "graph" in out.lower()


def test_ray(capsys):
    out = run_ok(capsys, "ray", "--q", "3", "--f", "1/T", "--steps", "4")
    assert len(out.strip().splitlines()) == 5


def test_ray_negative_steps_is_domain_error(capsys):
    code, out, err = run(capsys, "ray", "--q", "3", "--f", "inf", "--steps", "-1")
    assert code == 1 and out == ""
    assert err.startswith("error[domain]")


@pytest.mark.parametrize(
    "argv",
    [
        ("descartes", "sweep", "--count", "-2"),
        ("sweep", "--kind", "descartes", "--count", "-1"),
        ("sweep", "--kind", "reciprocity", "--max-deg", "-1"),
        ("tree", "export", "--radius", "-1"),
    ],
    ids=["descartes-count", "sweep-count", "sweep-max-deg", "tree-radius"],
)
def test_negative_count_is_usage_error(capsys, argv):
    # each printed nothing (or only the base vertex) and exited 0
    code, out, err = run(capsys, *argv, "--q", "3")
    assert code == 2 and out == ""
    assert err.startswith("error[usage]") and "is negative" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("torsion-padic", "--P", "T", "--N", "0"),
        ("sweep", "--kind", "torsion", "--N", "0"),
        ("cyclotomic", "--P", "T", "--n", "0"),
    ],
    ids=["torsion-padic-N", "sweep-torsion-N", "cyclotomic-n"],
)
def test_library_refused_count_is_domain_error(capsys, argv):
    # the CLI checks --count, --max-deg and --radius itself (exit 2); these
    # reach the library, which refuses them (exit 1), as ray --steps -1
    code, out, err = run(capsys, *argv, "--q", "3")
    assert code == 1 and out == ""
    assert err.startswith("error[domain]")


def test_cyclotomic_size_cap(capsys, monkeypatch):
    # rho_{P^2}(x) for deg P = 3 over F_9 has about 9^6 x-coefficients of
    # T-degree up to 6*9^3; it is refused before any operator is built
    def refuse(*args):
        raise AssertionError("an operator was built")

    monkeypatch.setattr(operator_module, "carlitz_operator", refuse)
    code, out, err = run(capsys, "cyclotomic", "--q", "9", "--P", "T^3+2*T+1", "--n", "2")
    assert code == 1 and out == ""
    assert err.startswith("error[domain]") and "above the supported size 2^24" in err
    # a reducible P is named as such, however large
    code, out, err = run(capsys, "cyclotomic", "--q", "9", "--P", "T^4", "--n", "2")
    assert code == 1 and err.startswith("error[domain]") and "T^4 is not irreducible" in err


def test_normal_basis(capsys):
    out = run_ok(capsys, "normal-basis", "--q", "3")
    assert "1" in out


def test_exp(capsys):
    out = run_ok(capsys, "exp", "--q", "3", "--z", "s^2 + O(s^30)", "--terms", "6")
    assert "s^2" in out


def test_period(capsys):
    out = run_ok(capsys, "period", "--q", "3", "--N", "2", "--prec", "30")
    assert "T" in out


def test_eisenstein_cmd(capsys):
    out = run_ok(capsys, "eisenstein", "--q", "3", "--basis", "s^-1 + O(s^20)", "--k", "2", "--prec", "20")
    assert "s^4" in out


@pytest.mark.parametrize("kind", ["reciprocity", "descartes", "torsion", "splitting"])
def test_sweeps_pass(capsys, kind):
    code, out, err = run(capsys, "sweep", "--q", "3", "--kind", kind,
                         "--max-deg", "2", "--count", "5", "--N", "3")
    assert code == 0, err
    rows = out.strip().splitlines()
    assert rows == sorted(rows)
    assert all("False" not in r for r in rows)


@pytest.mark.parametrize("max_deg", [1, 2])
@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 9])
def test_reciprocity_sweep_rows_match_per_d_calls(capsys, q, max_deg):
    # the rows as the sweep built them from two residue_symbol calls and
    # one check_reciprocity call per pair and d, in text and in JSON output
    gf = field(q)
    irr = monic_irreducibles(gf, max_deg)
    rows = []
    for i, P in enumerate(irr):
        for Q in irr[i + 1 :]:
            for d in (d for d in range(1, q) if (q - 1) % d == 0):
                pq, qp = residue_symbol(P, Q, d), residue_symbol(Q, P, d)
                _, rhs, holds = check_reciprocity(P, Q, d)
                rows.append("\t".join((str(P), str(Q), str(d), gf.fmt_elem(pq), gf.fmt_elem(qp), gf.fmt_elem(rhs), str(holds))))
    want = "".join(row + "\n" for row in sorted(rows))
    for output in ("text", "json"):
        argv = ["sweep", "--kind", "reciprocity", "--q", str(q), "--max-deg", str(max_deg), "--output", output]
        assert run_ok(capsys, *argv) == want


def test_splitting_sweep_work_cap(capsys, monkeypatch):
    # 45 irreducibles over F_9 give 1980 pairs, about 70 s of ddf: the
    # sweep is refused from the irreducible counts, before any is listed
    import carlitz.cli

    def unreachable(*args):
        raise AssertionError("the sweep enumerated irreducibles")

    monkeypatch.setattr(carlitz.cli, "monic_irreducibles", unreachable)
    code, out, err = run(capsys, "sweep", "--q", "9", "--kind", "splitting", "--max-deg", "2")
    assert code == 2 and out == ""
    assert err.startswith("error[usage]")
    assert "10162944" in err and str(carlitz.cli.MAX_SPLITTING_WORK) in err


def test_reciprocity_sweep_row_cap(capsys, monkeypatch):
    # 65537 irreducibles of degree 1 and the 17 divisors of 2^16 give about
    # 3.6 * 10^10 rows: refused from the counts, before any is listed
    import carlitz.cli

    def unreachable(*args):
        raise AssertionError("the sweep enumerated irreducibles")

    monkeypatch.setattr(carlitz.cli, "monic_irreducibles", unreachable)
    code, out, err = run(capsys, "sweep", "--q", "65537", "--kind", "reciprocity", "--max-deg", "1")
    assert code == 2 and out == ""
    assert err == (
        "error[usage]: sweep 'reciprocity' row count 36507779072 is above the cap "
        f"{carlitz.cli.MAX_RECIPROCITY_ROWS} (lower --max-deg or --q)\n"
    )


def test_normal_basis_cap(capsys, monkeypatch):
    # a 65536 x 65536 matrix is refused before any entry is built
    def unreachable(self):
        raise AssertionError("normal_basis looked for a primitive element")

    monkeypatch.setattr(GF, "primitive_element", unreachable)
    code, out, err = run(capsys, "normal-basis", "--q", "65537")
    assert (code, out) == (1, "")
    assert err == "error[domain]: Galois group order q - 1 = 65536 is above the supported maximum 2^7\n"


# ---------------------------------------------------------------- output and errors


def test_json_output_success(capsys):
    out = run_ok(capsys, "act", "--q", "3", "--output", "json", "--M", "T", "--u", "1")
    json.loads(out)


def test_usage_errors_exit_2(capsys):
    code, _, _ = run(capsys, "act", "--q", "3", "--M", "T")  # missing --u
    assert code == 2
    code, _, _ = run(capsys, "no-such-command")
    assert code == 2


def test_closed_pipe_exits_quietly():
    # the sweep's 160 kB of rows overfill the pipe, so its writes after the
    # reader closes it meet a broken pipe; no traceback reaches stderr
    env = dict(os.environ, PYTHONPATH=str(Path(carlitz.__file__).parents[1]))
    argv = [sys.executable, "-m", "carlitz.cli", "sweep", "--kind", "reciprocity", "--q", "9", "--max-deg", "2"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline() == b"T\tT+(2*w+1)\t1\t1\t1\t1\tTrue\n"
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert (code, err) == (1, b"")


def _parse(capsys, parser, argv):
    """The exit code of parsing argv (None when it parses), stdout and stderr."""
    try:
        parser.parse_args(argv)
        code = None
    except SystemExit as e:
        code = e.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _command_paths(entries=SUBCOMMANDS, prefix=()):
    for name, _, _, nested in entries:
        yield prefix + (name,)
        if nested:
            yield from _command_paths(nested[1], prefix + (name,))


@pytest.mark.parametrize("path", list(_command_paths()), ids=" ".join)
def test_parser_of_one_subcommand_matches_the_full_parser(capsys, path):
    # help; the bare subcommand, a missing required option or nested
    # subcommand where it has one; and an unrecognized argument, whose error
    # prints the top-level usage line with every subcommand
    path = list(path)
    helps = _parse(capsys, build_parser(), path + ["--help"])
    assert helps[0] == 0 and helps[1].startswith(f"usage: carlitz {' '.join(path)} ")
    assert run(capsys, *path, "--help") == (0, helps[1], helps[2])
    bare = _parse(capsys, build_parser(), path)
    assert bare[0] is None or (bare[0] == 2 and "the following arguments are required" in bare[2])
    unknown = _parse(capsys, build_parser(), path + ["--no-such-option"])
    assert unknown[0] == 2
    for argv, want in ((path + ["--help"], helps), (path, bare), (path + ["--no-such-option"], unknown)):
        assert _parse(capsys, build_parser(argv), argv) == want


def test_parser_is_built_only_for_the_named_subcommand(capsys):
    # "act" is not a choice of the parser built for "sweep"
    code, _, err = _parse(capsys, build_parser(["sweep"]), ["act", "--M", "T", "--u", "T"])
    assert code == 2 and "invalid choice: 'act'" in err
    for argv in ([], ["-h"], ["--help"], ["no-such-command"], ["--q", "3", "act"]):
        want = _parse(capsys, build_parser(), argv)
        assert _parse(capsys, build_parser(argv), argv) == want
    code, out, _ = run(capsys, "-h")
    assert code == 0 and all(name in out for name, *_ in SUBCOMMANDS)


def test_domain_errors_exit_1(capsys):
    code, _, err = run(capsys, "symbol", "--q", "3", "--A", "T", "--P", "T^2", "--d", "2")
    assert code == 1
    assert "error" in err


def test_field_size_cap(capsys):
    # a prime q above 2^40 fails before any trial division; one below it is
    # factored by trial division up to sqrt(q), not up to q
    code, _, err = run(capsys, "act", "--q", str(10**30 + 57), "--M", "T", "--u", "T")
    assert code == 1 and "q = 1000000000000000000000000000057 is above the supported maximum 2^40" in err
    code, _, err = run(capsys, "act", "--q", "1024", "--M", "T", "--u", "T")
    assert code == 1 and "extension field order 2^10 is above the supported maximum 2^8" in err
    assert run_ok(capsys, "act", "--q", "4294967311", "--M", "2", "--u", "T+1").strip() == "2*T+2"


# --q and its exit code and stderr, in the order of the checks: the 2^40
# cap, then the prime-power check (a full factorization), then the field
Q_ERRORS = {
    0: (2, "error[usage]: q = 0 is not a prime power"),
    1: (2, "error[usage]: q = 1 is not a prime power"),
    6: (2, "error[usage]: q = 6 is not a prime power"),
    12: (2, "error[usage]: q = 12 is not a prime power"),
    2 * 549755813881: (2, "error[usage]: q = 1099511627762 is not a prime power"),
    2**40: (1, "error[domain]: extension field order 2^40 is above the supported maximum 2^8"),
    2**40 + 1: (1, "error[domain]: q = 1099511627777 is above the supported maximum 2^40"),
}


@pytest.mark.parametrize("q", list(Q_ERRORS))
def test_q_errors(capsys, q):
    code, message = Q_ERRORS[q]
    assert run(capsys, "act", "--q", str(q), "--M", "T", "--u", "T") == (code, "", message + "\n")


def test_a_prime_q_is_trial_divided_once(capsys):
    # --q and then GF's primality check both ask for the primes of q, and
    # each trial division near 2^40 takes a tenth of a second
    prime_divisors.cache_clear()
    assert run_ok(capsys, "act", "--q", "1099511627689", "--M", "2", "--u", "T").strip() == "2*T"
    assert prime_divisors.cache_info().misses == 1


def test_split_kummer_order_at_a_large_prime(capsys):
    # the order of the symbol in F_q^*, q = 2^31 - 1, from the primes of
    # q - 1: stepping through its powers did not finish in 20 s
    argv = ["split-kummer", "--q", "2147483647", "--A", "T+3", "--P", "T", "--d", "2147483646"]
    assert run_ok(capsys, *argv) == "715827882\n"


def test_torsion_vq_size_cap(capsys):
    # 256^6 = 2^48 points are refused before rho_M is built
    code, _, err = run(capsys, "torsion-vq", "--q", "256", "--M", "T^6")
    assert code == 1 and err.startswith("error[domain]")
    assert "above the supported maximum 2^16" in err


def test_torsion_vq_matrix_cap(capsys, monkeypatch):
    # prec 100000 is above the 2^14 cap: refused before the exponential
    def refuse(*args):
        raise AssertionError("the series work began")

    monkeypatch.setattr(torsion_module, "carlitz_exp", refuse)
    code, _, err = run(capsys, "torsion-vq", "--q", "3", "--M", "T^2", "--prec", "100000")
    assert code == 1 and "precision 100000 is above the supported maximum 2^14" in err
    monkeypatch.undo()
    # below the cap, prec 1500 answers and so does prec 1000
    out = run_ok(capsys, "torsion-vq", "--q", "3", "--M", "T^2", "--prec", "1500")
    assert out.count("O(s^1500)") == 9
    out = run_ok(capsys, "torsion-vq", "--q", "3", "--M", "T^2", "--prec", "1000")
    assert out.count("O(s^1000)") == 9


def test_torsion_vq_digit_cap(capsys, monkeypatch):
    # 5^6 points of 9001 digits are above 2^27 digits in all: refused
    # before the exponential
    def refuse(*args):
        raise AssertionError("the series work began")

    monkeypatch.setattr(torsion_module, "carlitz_exp", refuse)
    code, _, err = run(capsys, "torsion-vq", "--q", "5", "--M", "T^6", "--prec", "9000")
    assert code == 1 and "5^6 points of 9001 digits are above the supported maximum of 2^27 digits" in err


def test_dirichlet_reaches_past_listed_torsion(capsys):
    # 3^11 points are above the listing cap, but the basis is 11 rows of 24 digits
    out = run_ok(capsys, "dirichlet", "--q", "3", "--target", "s^-1+s", "--n", "11")
    assert "lambda_n = s^-1 + s + 2*s^21 + O(s^23)" in out
    out = run_ok(capsys, "dirichlet", "--q", "4001", "--target", "s^-1", "--n", "1")
    assert "lambda_n = s^-1 + O(s^4001)" in out
    # one row of 65538 digits is above 2^16, refused before any T-division
    code, _, err = run(capsys, "dirichlet", "--q", "65537", "--target", "s^-1", "--n", "1")
    assert code == 1 and "1 x 65538 digits is above the supported maximum 2^16" in err


def test_torsion_padic_size_cap(capsys):
    # 257^2 points, one over each residue mod P, are refused before the
    # context or rho_{P-1} is built
    code, _, err = run(capsys, "torsion-padic", "--q", "257", "--P", "T^2+254", "--N", "2")
    assert code == 1 and err.startswith("error[domain]")
    assert "257^2 torsion points are above the supported maximum 2^16" in err


def test_unit_group_order_needs_no_trial_division(capsys):
    # the order of (F_q[T]/A)^* comes from A's squarefree parts and their
    # distinct-degree factorization, so no A is refused for the number of
    # monic divisors it has: 1000003 of degree 1 and 9^6 of degree 6 were
    # above the old trial-division cap of 2^16.  T^3 - 1 = (T - 1)(T^2 + T + 1)
    argv = ("split-cyclotomic", "--P", "T", "--A", "T^2+T+1")
    assert run_ok(capsys, *argv, "--q", "1000003").strip() == "3"
    assert run_ok(capsys, *argv, "--q", "10007").strip() == "3"
    assert run_ok(capsys, "split-cyclotomic", "--q", "1000003", "--P", "T", "--A", "T+1").strip() == "2"
    # over F_9, the order f of P mod A of degree 13 divides phi(A), and P^f = 1 mod A
    gf = GF(3, 2)
    P, A = parse_poly("T+1", gf), parse_poly("T^13+(2*w+2)*T+(2*w+2)", gf)
    f = int(run_ok(capsys, "split-cyclotomic", "--q", "9", "--P", str(P), "--A", str(A)))
    assert euler_phi(A) % f == 0
    assert pow_mod(P, f, A) == Poly.one(gf)


def test_frobenius_size_cap(capsys):
    # rho_T(T) = T^q + T^2 needs a q-th power of degree q = 2^32 + 15; it
    # fails before the dense list is allocated
    code, _, err = run(capsys, "act", "--q", "4294967311", "--M", "T", "--u", "T")
    assert code == 1 and err.startswith("error[domain]")
    assert "q-th power of degree 4294967311 is above the supported maximum 2^24" in err
    # the same cap guards the series q-th power: rho_T(u) for a two-digit u
    # spans q exponents
    u = "s^-1 + 1 + O(s^10)"
    code, _, err = run(capsys, "completed-act", "--q", "4294967311", "--M", "T", "--u", u)
    assert code == 1 and err.startswith("error[domain]")
    assert "q-th power of degree 4294967311 is above the supported maximum 2^24" in err
    assert run_ok(capsys, "completed-act", "--q", "4294967311", "--M", "2", "--u", u).strip() == (
        "2*s^-1 + 2 + O(s^10)"
    )


def test_operator_over_a_large_field(capsys):
    # rho_T(x) = x^q + T*x is held by its two coefficients, so nothing of
    # x-degree q = 2^32 + 15 is allocated
    assert run_ok(capsys, "operator", "--q", "4294967311", "--M", "T").strip() == "T; 1"
    assert run_ok(capsys, "xi", "--q", "4294967311", "--A", "T").strip() == "x + T"


def test_json_error_object(capsys):
    code, _, err = run(
        capsys, "symbol", "--q", "3", "--output", "json", "--A", "T", "--P", "T^2", "--d", "2"
    )
    assert code == 1
    obj = json.loads(err)
    assert set(obj) == {"code", "message", "context"}


def test_precision_error_reports_needed(capsys):
    code, _, err = run(
        capsys, "torsion-vq", "--q", "3", "--output", "json", "--M", "T^3", "--prec", "1"
    )
    assert code == 1
    obj = json.loads(err)
    assert obj["context"].get("needed_precision", 0) >= 4


def test_torsion_vq_linear_below_its_lead(capsys):
    # the one basis row of a linear M leads at s^-1, which precision -1 does
    # not reach: min_separating_prec is 0
    message = "precision -1 cannot separate the roots; need at least 0"
    argv = ("torsion-vq", "--q", "3", "--M", "T+1", "--prec", "-1")
    assert run(capsys, *argv) == (1, "", f"error[precision]: {message}\n")
    obj = {"code": "precision", "message": message, "context": {"needed_precision": 0}}
    assert run(capsys, *argv, "--output", "json") == (1, "", json.dumps(obj) + "\n")


@pytest.mark.parametrize(
    "argv, code, kind, message",
    [
        (("act", "--M", "T^2+", "--u", "T"), 1, "domain", "syntax error near position 4 in 'T^2+'"),
        (("divide-t", "--u", "s^"), 1, "domain", "syntax error in term 's^'"),
        (("kummer", "solve", "--M", "T^"), 1, "domain", "syntax error in term 'T^'"),
        (("tangent", "--f1", "(T", "--f2", "0"), 1, "domain", "syntax error in term '('"),
        (("descartes", "eval", "--curvatures", "1/T;(T"), 1, "domain", "syntax error in term '('"),
        (("eisenstein", "--basis", "s^-1;s^"), 1, "domain", "syntax error in term 's^'"),
        (("tree", "distance", "--v1", "x;0", "--v2", "0;0"), 2, "usage", "invalid integer 'x'"),
        (("soddy", "--ks", "1,x"), 2, "usage", "invalid integer 'x'"),
        # the field is built before any option is read in it
        (("act", "--q", "6", "--M", "bad(", "--u", "T"), 2, "usage", "q = 6 is not a prime power"),
    ],
    ids=["poly", "vq", "inf", "fraction", "fractions", "vq-list", "vertex", "rationals", "field-first"],
)
def test_malformed_option_errors(capsys, argv, code, kind, message):
    # one malformed option per reader kind: its exit code and error, as
    # text and as the JSON object
    assert run(capsys, *argv) == (code, "", f"error[{kind}]: {message}\n")
    obj = {"code": kind, "message": message, "context": {}}
    assert run(capsys, *argv, "--output", "json") == (code, "", json.dumps(obj) + "\n")


def test_torsion_sweep_counts_distinct_points(capsys, monkeypatch):
    # a listing of q^(deg P) entries that repeats one point fails its row
    torsion_padic = torsion_module.torsion_padic

    def repeated(P, N):
        ts = torsion_padic(P, N)
        return torsion_module.TorsionSetPadic(ts.ctx, ts.order, [ts.points[1]] * len(ts))

    argv = ("sweep", "--kind", "torsion", "--q", "3", "--max-deg", "1", "--N", "3")
    assert run(capsys, *argv)[:2] == (0, "T\t3\t3\tTrue\nT+1\t3\t3\tTrue\nT+2\t3\t3\tTrue\n")
    monkeypatch.setattr(torsion_module, "torsion_padic", repeated)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "T\t1\t3\tFalse\nT+1\t1\t3\tFalse\nT+2\t1\t3\tFalse\n")
    assert "3 rows violate the law in sweep 'torsion'" in err


def test_normal_basis_q2_json(capsys):
    # q = 2 takes the general Vandermonde path on the one node zeta^0 = 1
    out = run_ok(capsys, "normal-basis", "--q", "2", "--output", "json")
    assert out == '{"conjugates": ["1"], "det_valuation": 0, "matrix": [["1"]], "theta": "1"}\n'


@pytest.mark.parametrize(
    "argv, message",
    [
        (("tree", "export", "--q", "101", "--radius", "3"), "tree export vertex count 1050907"),
        (("tree", "export", "--q", "2", "--radius", "1000000000"), "tree export vertex count at least 393214"),
        (("tree", "neighbors", "--q", "1099511627689", "--vertex", "0;0"), "tree neighbors vertex count 1099511627690"),
        (("sweep", "--kind", "torsion", "--q", "2147483647", "--max-deg", "1"), "sweep 'torsion' point count 4611686014132420609"),
        (("sweep", "--kind", "reciprocity", "--q", "2", "--max-deg", "1000000"), "sweep 'reciprocity' row count at least 278631"),
        (("sweep", "--kind", "splitting", "--q", "2", "--max-deg", "1000000"), "sweep 'splitting' work estimate at least"),
    ],
    ids=["tree-ball", "tree-huge-radius", "tree-neighbors", "sweep-torsion", "sweep-reciprocity-huge", "sweep-splitting-huge"],
)
def test_size_caps_are_counted_before_any_enumeration(capsys, monkeypatch, argv, message):
    # each ran for a minute or more, or looped up to its degree; the count
    # comes from --q and the bound alone, so nothing is listed
    import carlitz.cli

    def unreachable(*args):
        raise AssertionError("the command began to enumerate")

    monkeypatch.setattr(carlitz.cli, "monic_irreducibles", unreachable)
    monkeypatch.setattr(carlitz.cli.geometry, "tree_neighbors", unreachable)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error[usage]: {message}") and "is above the cap" in err


@pytest.mark.parametrize(
    "argv, lines",
    [
        (("torsion-padic", "--q", "2", "--P", "T^7+T+1", "--N", "3"), 128),
        (("tree", "export", "--q", "2", "--radius", "8"), 1533),
        (("sweep", "--kind", "reciprocity", "--q", "2", "--max-deg", "8"), 2485),
        (("sweep", "--kind", "torsion", "--q", "2", "--max-deg", "7", "--N", "2"), 41),
    ],
    ids=["torsion-padic-deg-7", "tree-radius-8", "sweep-reciprocity-deg-8", "sweep-torsion-deg-7"],
)
def test_degree_alone_is_no_cap(capsys, argv, lines):
    # each was refused by a degree cap of 6, though its work is small
    assert len(run_ok(capsys, *argv).splitlines()) == lines


def test_tree_export_ball_matches_the_vertex_count(capsys):
    # 1 + (q+1)(q^r - 1)/(q - 1) vertices, one edge to each but the base
    for q, r in [(2, 0), (2, 5), (3, 3), (4, 2)]:
        out = run_ok(capsys, "tree", "export", "--q", str(q), "--radius", str(r)).splitlines()
        vertices = 1 + (q + 1) * (q**r - 1) // (q - 1)
        assert sum(" -- " not in line for line in out[1:-1]) == vertices
        assert sum(" -- " in line for line in out) == vertices - 1


@pytest.mark.parametrize(
    "argv",
    [
        ("tree", "--q", "5", "neighbors", "--vertex", "0;0"),
        ("descartes", "--q", "5", "sweep"),
        ("kummer", "--q", "5", "map", "--u", "s"),
        ("act", "--q", "3", "--M", "T", "--u", "T", "--prec", "5"),
        ("soddy", "--q", "4", "--ks", "1,1,1,1"),
        ("torsion-padic", "--P", "T", "--seed", "1"),
    ],
    ids=["tree-parent-q", "descartes-parent-q", "kummer-parent-q", "act-prec", "soddy-q", "torsion-padic-seed"],
)
def test_an_option_the_command_does_not_read_is_usage_error(capsys, argv):
    # each was accepted and dropped: tree --q 5 printed the 4 neighbours of q = 3
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "error:" in err

def test_malformed_series_is_domain_error(capsys):
    # "s^-1" is no term in T: a syntax error of the grammar, as "--M T^x" is
    code, _, err = run(capsys, "tree", "distance", "--q", "3", "--v1", "0;0", "--v2", "2;s^-1")
    assert code == 1 and err.startswith("error[domain]")
    code, _, err = run(capsys, "act", "--q", "3", "--M", "T^x", "--u", "T")
    assert code == 1 and err.startswith("error[domain]")


def test_malformed_field_element_is_domain_error(capsys):
    # "w_2" is no power of w: it is refused, not read as w^2
    code, out, err = run(capsys, "act", "--q", "8", "--M", "(w_2+1)*T", "--u", "T")
    assert code == 1 and out == ""
    assert err.startswith("error[domain]")


def test_prec_zero_is_not_the_default(capsys):
    # --prec 0 is a precision, not an unset option: the budget refuses it as
    # it refuses --prec -3
    for argv in [("exp", "--z", "s"), ("eisenstein", "--basis", "s^-1")]:
        for prec in ("0", "-3"):
            code, out, err = run(capsys, *argv, "--q", "3", "--prec", prec)
            assert code == 1 and out == ""
            assert err.strip() == "error[domain]: budget fields must be positive"
    # the period's expansion at precision 0 stops at its leading digit
    out = run_ok(capsys, "period", "--q", "3", "--N", "2", "--prec", "0")
    assert out.splitlines()[1] == "series = 1 + O(T^-1)"


def test_exp_of_exact_argument(capsys):
    out = run_ok(capsys, "exp", "--q", "3", "--z", "s")
    assert out.splitlines()[0] == "s + 2*s^9 + 2*s^13 + 2*s^17 + 2*s^21 + O(s^24)"


@pytest.mark.parametrize(
    "argv, code",
    [
        (("act", "--q", "3", "--M", "T^1_0", "--u", "T"), 1),  # exponent
        (("act", "--q", "3", "--M", "T^٣", "--u", "T"), 1),  # Arabic-Indic three
        (("act", "--q", "11", "--M", "1_0*T", "--u", "T"), 1),  # F_p coefficient
        (("act", "--q", "9", "--M", "(w^١)*T", "--u", "T"), 1),  # power of w
        (("completed-act", "--q", "3", "--M", "T", "--u", "s + O(s^1_0)"), 1),  # tail marker
        (("tree", "distance", "--q", "3", "--v1", "1_0;0", "--v2", "0;0"), 2),  # vertex level
        (("tree", "distance", "--q", "3", "--v1", "١;0", "--v2", "0;0"), 2),
        (("act", "--q", "9", "--modulus", "1,0,1_0", "--M", "T", "--u", "T"), 2),  # modulus
        (("act", "--q", "9", "--modulus", "١,0,1", "--M", "T", "--u", "T"), 2),
        (("act", "--q", "٣", "--M", "T", "--u", "T"), 2),  # integer option
    ],
    ids=["T^1_0", "T^3-arabic", "1_0*T", "w^1-arabic", "O(s^1_0)", "level-1_0", "level-arabic",
         "modulus-1_0", "modulus-arabic", "q-arabic"],
)
def test_integers_are_ascii_digits(capsys, argv, code):
    # each was read by int(), which takes underscores and any Unicode digit;
    # the grammar's sites stay domain errors and the options usage errors
    assert run(capsys, *argv)[0] == code


def test_ascii_integers_still_read(capsys):
    assert run_ok(capsys, "tree", "distance", "--q", "3", "--v1", " 1;0", "--v2=-1;0").strip().endswith("2")
    assert run_ok(capsys, "act", "--q", "9", "--modulus", "1, 0,1", "--M", "T", "--u", "T").strip() == "T^9+T^2"
    assert run_ok(capsys, "act", "--q", "9", "--modulus=-2,0,1", "--M", "T", "--u", "T").strip() == "T^9+T^2"
