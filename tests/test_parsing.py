"""The expression and document parsers on arbitrary text, and the
print-parse round trip."""

import pathlib
import tempfile
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from toric_dmod.cli import read_document  # noqa: E402
from toric_dmod.errors import ParseError  # noqa: E402
from toric_dmod import parsing  # noqa: E402
from toric_dmod.parsing import (MAX_COEFF_DIGITS, MAX_EXPONENT, MAX_TERMS,  # noqa: E402
                                parse_terms)
from toric_dmod.weyl import parse_theta_poly, parse_weyl, tp_format  # noqa: E402

# near-grammatical text reaches deeper than uniform unicode does
ALPHABET = "xdth0123456789+-*/^ \t"
texts = st.one_of(st.text(), st.text(alphabet=ALPHABET, max_size=40),
                  st.lists(st.sampled_from(["x1", "d2", "th1", "th3", "^", "*",
                                            "+", "-", "/", "0", "7", "201",
                                            "9" * 5000, " "]),
                           max_size=12).map("".join))


@given(texts)
def test_parsers_return_or_raise_parse_error(text):
    for parse in (parse_terms, lambda t: parse_theta_poly(t, 3),
                  lambda t: parse_weyl(t, 2)):
        try:
            parse(text)
        except ParseError:
            pass


def test_overlong_integer_is_a_parse_error():
    # int() refuses more than 4,300 digits with a ValueError
    for text in ("9" * 5000, "x" + "1" * 5000, "th1^" + "2" * 5000):
        with pytest.raises(ParseError):
            parse_terms(text)


rationals = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12)).filter(bool)


@given(st.integers(1, 3).flatmap(lambda d: st.dictionaries(
    st.tuples(*[st.integers(0, 4)] * d), rationals, max_size=6).map(lambda p: (d, p))))
def test_theta_poly_format_parse_round_trip(case):
    d, p = case
    names = [f"th{i + 1}" for i in range(d)]
    assert parse_theta_poly(tp_format(p, names), d) == p


def test_parse_caps_the_number_of_terms():
    assert len(parse_terms(" + ".join(["th1"] * MAX_TERMS))) == MAX_TERMS
    with pytest.raises(ParseError, match=str(MAX_TERMS)):
        parse_terms(" - ".join(["th1"] * (MAX_TERMS + 1)))


def test_parse_bounds_stop_tokenizing_at_once(monkeypatch):
    # tokens are counted, not timed: a bound must act before the rest of a
    # long input is scanned
    real = parsing._TOKEN
    calls = []

    class CountingToken:
        def match(self, text, pos):
            calls.append(pos)
            return real.match(text, pos)

    monkeypatch.setattr(parsing, "_TOKEN", CountingToken())
    # 240 KB of factors 3: 3^k passes 10^4300 at k = 9,013, two tokens a factor
    with pytest.raises(ParseError, match=str(MAX_COEFF_DIGITS)):
        parse_terms("3*" * 120_000 + "th1")
    assert len(calls) <= 18_100
    calls.clear()
    # 240 KB of factors th1: the exponent sum passes 200 at the 201st factor
    with pytest.raises(ParseError, match=str(MAX_EXPONENT)):
        parse_terms("th1*" * 60_000 + "th1")
    assert len(calls) <= 410
    calls.clear()
    with pytest.raises(ParseError, match=str(MAX_TERMS)):
        parse_terms(" + ".join(["th1"] * 3000))
    assert len(calls) <= 4_010


def _read_text(text: str):
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "doc.txt"
        path.write_text(text, encoding="utf-8")
        return read_document(str(path), ("n", "rays", "max_cones"))


fragments = st.lists(st.sampled_from(["[", "]", "[1, -2]", ",", "'x1*d1'", "\n", "#",
                                      '"', "=", "-" * 4000 + "1", "(" * 200, "9" * 5000]),
                     max_size=8).map("".join)
doc_texts = st.one_of(
    st.text(),
    st.lists(st.builds("{} = {}".format, st.sampled_from(["n", "rays", "side", ""]),
                       fragments), max_size=4).map("\n".join))


@given(doc_texts)
def test_read_document_returns_or_raises_parse_error(text):
    try:
        doc = _read_text(text)
    except ParseError:
        return
    assert isinstance(doc, dict)


def test_deeply_nested_document_value_is_a_parse_error():
    # 3,000 unary minus signs raised RecursionError, 10,000 MemoryError
    for text in ("n = " + "-" * 3000 + "1", "n = " + "-" * 10000 + "1",
                 "rays = " + "[" * 5000 + "]" * 5000):
        with pytest.raises(ParseError, match="bad value"):
            _read_text(text)


def test_format_terms_prints_negative_exponents():
    # an exponent of 0 drops its variable, 1 prints the bare name and any
    # other, negative ones included, prints as name^e
    assert parsing.format_terms([(Fraction(1), [("x1", -1), ("x2", 2)])]) == "x1^-1*x2^2"
    assert parsing.format_terms([(Fraction(-3), [("x1", 0), ("xi2", -2)]),
                                 (Fraction(1, 2), [("x2", 1)])]) == "-3*xi2^-2 + 1/2*x2"
    assert parsing.format_terms([(1, [("x1", 0), ("x2", 0)])]) == "1"


def format_terms_by_fractions(terms) -> str:
    """parsing.format_terms with the sign, magnitude and unit test taken by
    Fraction arithmetic: abs, == 1 and < 0."""
    if not terms:
        return "0"
    chunks = []
    for coeff, vars_ in terms:
        body = "*".join(f"{name}^{e}" if e != 1 else name for name, e in vars_ if e)
        mag = abs(Fraction(coeff))
        if not body:
            text = str(mag)
        elif mag == 1:
            text = body
        else:
            text = f"{mag}*{body}"
        chunks.append((coeff < 0, text))
    first_neg, first = chunks[0]
    out = ("-" if first_neg else "") + first
    for neg, text in chunks[1:]:
        out += (" - " if neg else " + ") + text
    return out


coefficients = st.one_of(st.integers(-12, 12), st.integers(-10 ** 30, 10 ** 30),
                         st.fractions(max_denominator=50), st.sampled_from(
                             [Fraction(1), Fraction(-1), Fraction(0), 1, -1, 0,
                              Fraction(1, 2), Fraction(-7, 3)]))
monomials = st.lists(st.tuples(st.sampled_from(["x1", "d2", "th3", "v1"]),
                               st.integers(-3, 3)), max_size=3)


@given(st.lists(st.tuples(coefficients, monomials), max_size=5))
def test_format_terms_matches_the_fraction_reference(terms):
    # the sign, magnitude and unit test come from the numerator and the
    # denominator: the same bytes as abs, == 1 and < 0 on Fractions, for int
    # and Fraction coefficients, units, zeros and bare constants included
    assert parsing.format_terms(terms) == format_terms_by_fractions(terms)
