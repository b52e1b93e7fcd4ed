"""The one text grammar: every printer's output parses back to the same value
and prints again to the same text.  Malformed field-element terms are tested
in ``test_algebra``."""

import pytest
from conftest import field
from hypothesis import example, given, settings
from hypothesis import strategies as st

from carlitz.errors import BelowPrecision, DomainError
from carlitz.operator import XPoly, cyclotomic_poly
from carlitz.gf import GF
from carlitz.poly import Poly, parse_int, parse_poly, parse_term, split_terms
from carlitz.series import InfLaurent, VqElem, parse_series

QS = [2, 3, 4, 5, 7, 8, 9]


@st.composite
def polys(draw):
    gf = field(draw(st.sampled_from(QS)))
    return Poly(gf, draw(st.lists(st.integers(0, gf.q - 1), max_size=12)))


@st.composite
def series(draw):
    """Exact, truncated and truncated-zero elements with valuations -8..8."""
    gf = field(draw(st.sampled_from(QS)))
    cls = draw(st.sampled_from([InfLaurent, VqElem]))
    v = draw(st.integers(-8, 8))
    coeffs = draw(st.lists(st.integers(0, gf.q - 1), max_size=8))
    prec = draw(st.one_of(st.none(), st.integers(-8, 17)))
    return cls(gf, v, coeffs, prec)


@settings(max_examples=300, deadline=None)
@given(polys())
def test_poly_text_roundtrip(f):
    text = str(f)
    g = parse_poly(text, f.gf)
    assert g == f
    assert str(g) == text


@settings(max_examples=400, deadline=None)
@given(series())
@example(InfLaurent(field(9), 3, [0, 0], 5))  # truncated zero: O(T^-5)
@example(VqElem(field(9), -3, [1], -3))  # truncated to zero: O(s^-3)
def test_series_text_roundtrip(x):
    text = str(x)
    y = parse_series(text, x.gf, type(x))
    assert y == x
    assert str(y) == text


@pytest.mark.parametrize(
    "cls, text, k, position, tail",
    [(InfLaurent, "T + O(T^-3)", 5, "T^-5", "O(T^-3)"), (VqElem, "s^-1 + O(s^3)", 5, "s^5", "O(s^3)")],
    ids=["infinity", "vq"],
)
def test_precision_messages_use_the_text_grammar(cls, text, k, position, tail):
    # a digit past the precision and a truncated zero's valuation name the
    # position and the tail marker as the printer writes them
    x = parse_series(text, field(3), cls)
    with pytest.raises(BelowPrecision) as err:
        x.digit(k)
    assert str(err.value) == f"digit at {position} is beyond {tail}"
    zero = parse_series(tail, field(3), cls)
    with pytest.raises(BelowPrecision) as err:
        zero.valuation()
    assert str(err.value) == f"element is indistinguishable from zero below {tail}"


@pytest.mark.parametrize(
    "parse",
    [
        lambda gf: parse_poly("T^x", gf),  # exponent
        lambda gf: parse_poly("x*T", gf),  # F_p coefficient
        lambda gf: parse_series("T^-1+O(T^x)", gf, InfLaurent),  # tail marker
    ],
    ids=["T^x", "x*T", "O(T^x)"],
)
def test_non_integer_text_is_a_syntax_error(parse):
    # a failed int() is a DomainError, as every other syntax error of the
    # grammar, not a bare ValueError
    with pytest.raises(DomainError, match="syntax error|bad tail marker"):
        parse(field(3))


@pytest.mark.parametrize(
    "parse",
    [
        lambda: parse_poly("T^1_0", field(3)),  # exponent, underscored
        lambda: parse_poly("T^٣", field(3)),  # exponent, Arabic-Indic three
        lambda: parse_poly("T^+3", field(3)),  # exponent, signed
        lambda: parse_poly("1_0*T", GF(11)),  # F_p coefficient
        lambda: parse_poly("٢*T", field(3)),
        lambda: field(9).parse_elem("w^١"),  # power of w
        lambda: field(7).parse_elem("٣"),  # field element
        lambda: parse_series("s^-1_0", field(3), VqElem),  # negative exponent
        lambda: parse_series("s^-٣", field(3), VqElem),
        lambda: parse_series("s+O(s^1_0)", field(3), VqElem),  # tail marker
        lambda: parse_series("T+O(T^-٣)", field(3), InfLaurent),
    ],
    ids=["T^1_0", "T^3-arabic", "T^+3", "1_0*T", "2-arabic*T", "w^1-arabic", "3-arabic",
         "s^-1_0", "s^-3-arabic", "O(s^1_0)", "O(T^-3-arabic)"],
)
def test_integers_are_ascii_digits(parse):
    # int() reads underscores, signs and every Unicode digit; the grammar's
    # integers are ASCII digits, with a leading minus on exponents
    with pytest.raises(DomainError, match="syntax error|bad tail marker"):
        parse()


def test_parse_int():
    assert parse_int("0") == 0 and parse_int("042") == 42
    assert parse_int("-7", signed=True) == -7
    for text, signed in [("-7", False), ("", False), ("-", True), ("--7", True), ("+7", True),
                         (" 7", True), ("7_0", False), ("٧", False), ("²", False), ("0x7", False)]:
        with pytest.raises(ValueError):
            parse_int(text, signed)


@pytest.mark.parametrize("q", QS)
def test_every_field_element_roundtrips(q):
    gf = field(q)
    for a in range(q):
        text = gf.fmt_elem(a)
        assert gf.parse_elem(text) == a
        assert gf.fmt_elem(gf.parse_elem(text)) == text


# str(cyclotomic_poly(P, n)) for these (P, n), frozen before the printers
# shared one term printer
FROZEN_CYCLOTOMIC = {
    (8, "T+w", 1): "x^7 + (T+w)",
    (8, "T^2+w*T+1", 1): "x^63 + (T^8+T+w)*x^7 + (T^2+w*T+1)",
    (8, "T+w^2+1", 2): (
        "x^56 + (T+(w^2+1))*x^49 + (T^2+(w^2+w+1))*x^42 + (T^3+(w^2+1)*T^2+(w^2+w+1)*T+(w^2+w))*x^35"
        " + (T^4+(w+1))*x^28 + (T^5+(w^2+1)*T^4+(w+1)*T+w^2)*x^21"
        " + (T^6+(w^2+w+1)*T^4+(w+1)*T^2+w)*x^14"
        " + (T^7+(w^2+1)*T^6+(w^2+w+1)*T^5+(w^2+w)*T^4+(w+1)*T^3+w^2*T^2+w*T+1)*x^7 + (T+(w^2+1))"
    ),
    (9, "T+w", 1): "x^8 + (T+w)",
    (9, "T^2+T+w", 1): "x^80 + (T^9+T+1)*x^8 + (T^2+T+w)",
    (9, "T+2*w+1", 2): (
        "x^72 + (2*T+(w+2))*x^64 + (T^2+(w+2)*T+w)*x^56 + (2*T^3+(2*w+2))*x^48"
        " + (T^4+(2*w+1)*T^3+(w+1)*T+2)*x^40"
        " + (2*T^5+(2*w+1)*T^4+2*w*T^3+(2*w+2)*T^2+2*T+(2*w+1))*x^32 + (T^6+(2*w+2)*T^3+2*w)*x^24"
        " + (2*T^7+(w+2)*T^6+(w+1)*T^4+2*T^3+w*T+(w+1))*x^16"
        " + (T^8+(w+2)*T^7+w*T^6+(2*w+2)*T^5+2*T^4+(2*w+1)*T^3+2*w*T^2+(w+1)*T+1)*x^8 + (T+(2*w+1))"
    ),
}


def _parse_xpoly(text: str, gf) -> XPoly:
    """x-polynomial text read term by term with the one term parser; a
    coefficient in parentheses is a polynomial in T."""

    def coeff(s):
        return parse_poly(s[1:-1] if s.startswith("(") else s, gf)

    terms = {}
    for term in split_terms("".join(text.split())):
        c, e = parse_term(term, "x", coeff)
        terms[e] = terms.get(e, Poly.zero(gf)) + c
    return XPoly.from_terms(gf, terms)


@pytest.mark.parametrize("key", sorted(FROZEN_CYCLOTOMIC))
def test_cyclotomic_text_is_frozen_and_roundtrips(key):
    q, P, n = key
    gf = field(q)
    psi = cyclotomic_poly(parse_poly(P, gf), n)
    assert str(psi) == FROZEN_CYCLOTOMIC[key]
    assert _parse_xpoly(str(psi), gf) == psi
    assert str(_parse_xpoly(str(psi), gf)) == FROZEN_CYCLOTOMIC[key]
