"""The expression and document parsers on arbitrary text, against the
readers they replaced, and the print-parse round trip."""

import ast
import json
import pathlib
import re
import tempfile
from fractions import Fraction
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from helpers import (cpu_time_limit, literal_value, parse_terms_by_descent,  # noqa: E402
                     strip_comment_by_loop, sum_terms_by_fractions)
from toric_dmod import cli, parsing  # noqa: E402
from toric_dmod.cli import read_document  # noqa: E402
from toric_dmod.errors import ParseError  # noqa: E402
from toric_dmod.parsing import (MAX_COEFF_DIGITS, MAX_EXPONENT, MAX_TERMS,  # noqa: E402
                                parse_terms)
from toric_dmod.weyl import parse_theta_poly, parse_weyl, tp_format  # noqa: E402

# Python's literal parser reads the JSON escape \/ as a backslash and a slash,
# with a warning
pytestmark = pytest.mark.filterwarnings("ignore:invalid escape sequence")

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


# factors and separators, well and badly formed, so that most draws parse and
# the rest fail at every kind of token
factor_texts = st.one_of(
    st.integers(0, 10 ** 8).map(str),
    st.builds("{}{}/{}{}".format, st.integers(0, 60), st.sampled_from(["", " "]),
              st.sampled_from(["", " "]), st.integers(0, 12)),
    st.builds("{}{}{}".format, st.sampled_from(["x", "d", "th", "xi", "X"]),
              st.integers(0, 4), st.sampled_from(["", "^2", " ^ 3", "^0", "^150", "^201"])),
    st.sampled_from(["9" * 5000, "x" + "1" * 5000, "th1^" + "2" * 5000, "\u0663", "x\u0661",
                     "x 1", "1/", "/2", "x1^", "^2", "2^3", "x1^-1", "3x1", "x1 2", "1.5",
                     "3/4/5", "x1^2^3", "!", "x", "0/0", "x\u00b2"]))
separators = st.sampled_from(["*", "+", "-", " * ", " + ", " - ", "\t*\t", "**", "+-", "*-",
                              "--", "/", "^", "", " "])
expressions = st.builds(
    lambda lead, pairs, tail: lead + "".join(f + sep for f, sep in pairs) + tail,
    st.sampled_from(["", "+", "-", " - ", "*", " ", "\u3000"]),
    st.lists(st.tuples(factor_texts, separators), max_size=8),
    st.sampled_from(["", " ", "\n", "x1", "*"]))


def _outcome(parse, text):
    try:
        return parse(text)
    except ParseError:
        return ParseError


@given(st.one_of(texts, expressions))
def test_parse_terms_matches_recursive_descent(text):
    # the same terms, or a ParseError wherever recursive descent raises one
    assert _outcome(parse_terms, text) == _outcome(parse_terms_by_descent, text)


@given(st.one_of(texts, expressions))
def test_parsed_sums_match_fraction_sums(text):
    # a new key stores its coefficient as parsed; every later one is added
    want = _outcome(lambda t: sum_terms_by_fractions(parse_terms_by_descent(t), 3, ("th",)),
                    text)
    assert _outcome(lambda t: parse_theta_poly(t, 3), text) == want
    want = _outcome(lambda t: sum_terms_by_fractions(parse_terms_by_descent(t), 2, ("x", "d")),
                    text)
    got = _outcome(lambda t: parse_weyl(t, 2).terms, text)
    assert got == (want if want is ParseError
                   else {(e[:2], e[2:]): c for e, c in want.items()})


@pytest.mark.parametrize("text", [
    " + ".join(["th1"] * MAX_TERMS), " - ".join(["th1"] * (MAX_TERMS + 1)),
    " + ".join(["th1"] * MAX_TERMS) + " + !", "3*" * 9012 + "th1", "3*" * 9013 + "th1",
    "1/" + "3*1/" * 9012 + "3", "0*" + "1/3*" * 9013 + "th1", "th1*" * 200, "th1*" * 201,
    "th1^200*th2^0", "th1^100*th2^101", "-0", "+ 0/5*th1", "6/4*th1 - 3/2*th1",
    "3/3*" * 9100 + "th1", "3 / 4*x1 ^ 2", "\t- 1/2 * th1 +th2^ 3\n", "x1 ^2 -3 /6"])
def test_parse_terms_matches_recursive_descent_at_the_bounds_and_spaces(text):
    assert _outcome(parse_terms, text) == _outcome(parse_terms_by_descent, text)


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


def _reference_read(text: str):
    """_read_text with the readers cli used before: each value through
    ast.literal_eval alone and each comment cut by a character loop."""
    with mock.patch.multiple(cli, _value=literal_value, _strip_comment=strip_comment_by_loop):
        return _read_text(text)


def _message(exc) -> str:
    """The text of an exception without the object addresses literal_eval
    names (e.g. <ast.Name object at 0x7f...>)."""
    return re.sub(r" at 0x[0-9a-f]+", "", str(exc))


def _read_outcome(read, text):
    try:
        return "ok", repr(read(text))
    except ParseError as exc:
        # the message starts with the temporary file's path
        return "error", _message(exc).split("doc.txt", 1)[1]


def _python_list(items, sep, trailing):
    return "[" + sep.join(items) + ("," if trailing and items else "") + "]"


# document values: plain JSON, Python literals JSON refuses, and JSON values
# Python's literal parser reads otherwise (or not at all)
SCALARS = ['"left"', "'left'", '"x1*d1 + x2*d2"', "'#'", '"#"', "true", "false", "null", "NaN",
           "Infinity", "-Infinity", "True", "None", "1_0", "01", "00", "-0", "+1", "- 1", "--1",
           "1.5", "1e3", "1E400", '"a\\"b"', "'a\\'b'", '"\\u00e9"', '"\\x41"', '"\\n"',
           "'\\'", '"\ttab"', '"a" "b"', "'a' 'b'", '""', "''", "{}", '{"a": 1}', "()", "(1,)",
           "[1 2]", "9" * 5000, "-" + "9" * 4300, "9" * 4300, "1 # x", "[", "]", "", "\u0663",
           '"\\/"', '"\\ud83d\\ude00"']
scalar_texts = st.one_of(
    st.integers(-10 ** 20, 10 ** 20).map(str),
    st.text(max_size=6).map(lambda t: json.dumps(t, ensure_ascii=False)),
    st.text(max_size=6).map(json.dumps), st.text(max_size=6).map(repr),
    st.sampled_from(SCALARS))
value_texts = st.recursive(
    scalar_texts,
    lambda inner: st.builds(_python_list, st.lists(inner, max_size=4),
                            st.sampled_from([", ", ",", " , ", ",\t"]), st.booleans()),
    max_leaves=12)


def _value_outcome(read, text):
    try:
        return "ok", type(value := read(text)), repr(value)
    except (ValueError, SyntaxError, RecursionError, MemoryError) as exc:
        return "error", type(exc), _message(exc)


@given(value_texts)
def test_document_values_match_literal_eval(text):
    # the same value (repr tells 1 from True and [1] from (1,)), or the same
    # exception from literal_eval, which reads every value JSON does not
    assert _value_outcome(cli._value, text) == _value_outcome(literal_value, text)


@pytest.mark.parametrize("scalar", SCALARS)
def test_each_listed_value_matches_literal_eval(scalar):
    for text in (scalar, f"[{scalar}]", f"[[1], [{scalar}, 2]]"):
        assert _value_outcome(cli._value, text) == _value_outcome(literal_value, text)


@given(st.one_of(st.text(), st.text(alphabet="#'\"ab= \t", max_size=30)))
def test_comment_regex_matches_the_character_loop(line):
    assert cli._strip_comment(line) == strip_comment_by_loop(line)


def _document(keys, values, notes) -> str:
    # a value runs on over the next lines until its brackets balance
    lines = (f"{k} = {v}{note}" for k, v, note in zip(keys, values, notes))
    return "\n".join(line.replace(", ", ",\n  ") for line in lines)


# mostly the three keys once each, so that most documents read to the end
documents = st.builds(
    _document,
    st.one_of(st.permutations(["n", "rays", "max_cones"]),
              st.lists(st.sampled_from(["n", "rays", "max_cones", "side", ""]), max_size=4)),
    st.lists(value_texts, min_size=4, max_size=4),
    st.lists(st.sampled_from(["", " # note", " #'", ' # "x"', "#"]), min_size=4, max_size=4))


@given(st.one_of(doc_texts, documents))
def test_read_document_matches_the_literal_reader(text):
    # the same document, or the same ParseError message
    assert _read_outcome(_read_text, text) == _read_outcome(_reference_read, text)


def _read_rays(value: str):
    return _read_text(f"n = 1\nmax_cones = []\nrays = {value}")["rays"]


def test_document_value_nesting_edges():
    # Python's literal parser reads 200 levels and no more; json.loads reads
    # about 990, and past that raises RecursionError: all three are ParseErrors
    deep = "[" * 200 + "1" + "]" * 200
    assert _read_rays(deep) == ast.literal_eval(deep)
    for depth in (201, 990, 5000):
        for value in ("[" * depth + "]" * depth, "[" * depth + '"x"' + "]" * depth):
            with pytest.raises(ParseError, match="bad value"):
                _read_rays(value)
            # literal_eval's own error, not one from json
            text = f"n = 1\nmax_cones = []\nrays = {value}"
            assert _read_outcome(_read_text, text) == _read_outcome(_reference_read, text)


def test_plain_documents_never_reach_literal_eval(monkeypatch):
    calls = []
    real = ast.literal_eval
    monkeypatch.setattr(cli.ast, "literal_eval", lambda text: calls.append(text) or real(text))
    fixtures = pathlib.Path(__file__).resolve().parent / "fixtures"
    assert cli.load_fan(str(fixtures / "p1p1.fan")).rays == ((1, 0), (-1, 0), (0, 1), (0, -1))
    assert calls == []
    # a trailing comma is not JSON
    assert _read_rays("[[1], [-1],]") == [[1], [-1]]
    assert calls == ["[[1], [-1],]"]


# each text, and how far _TOKEN reads it one factor at a time
WORST_TEXTS = {"digits then a bad character": ("1" * 100_000 + "!", 100_000),
               "60,000 factors": ("x1*" * 60_000, 180_000),
               "spaces": (" " * 200_000, 0)}


@pytest.mark.parametrize("name", WORST_TEXTS)
def test_regexes_take_linear_time_on_worst_case_text(name):
    # each new regex scans the whole text, one match at a time where it
    # stops early, within a CPU-time bound enforced by a timer
    text, end = WORST_TEXTS[name]
    with cpu_time_limit(5, f"scanning {name}"):
        for code in (text, "'" + text + "'", '"' + text + '"'):
            assert cli._strip_comment(code + "#" + text) == code
        assert cli._strip_comment("'" + text + "#") == "'" + text + "#"
        pos = 0
        while (m := parsing._TOKEN.match(text, pos)) and m.end() > pos:
            pos = m.end()
        assert pos == end
        with pytest.raises(ParseError):
            parse_terms(text)
        with pytest.raises(ParseError):
            _read_rays(text)


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
