"""Tiny recursive-descent parser for sums of monomial terms.

Accepted syntax, shared by Weyl expressions and theta polynomials:

    expr   := ['+'|'-'] term { ('+'|'-') term }
    term   := factor { '*' factor }
    factor := INT ['/' INT] | NAME INDEX ['^' INT]

Variables are a letter prefix plus a 1-based index, e.g. ``x1``, ``d2``,
``th1``, ``v2``, ``xi3``.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError

# The largest exponent sum of one term: expanding a power costs time that
# grows with its exponent, so a term of higher degree is a ParseError.
MAX_EXPONENT = 200
# The largest number of terms of one expression: time and memory grow with
# the term count (in `local --g` on P2, 2,000 terms of degree 200 take 0.4 s,
# 20,000 take 3.5 s and 53 MB), so a longer expression is a ParseError.
MAX_TERMS = 2000
# The most decimal digits of the product of one term's coefficient
# numerators, and of its denominators: multiplying a term's coefficient
# factors costs time that grows about quadratically with their number (40,000
# factors of 3 took 0.64 s), so a term whose product grows past this is a
# ParseError. It is also the most digits one integer literal may have, and
# the most Python converts to text, so every parsed coefficient can be printed.
MAX_COEFF_DIGITS = 4300
_COEFF_LIMIT = 10 ** MAX_COEFF_DIGITS

_TOKEN = re.compile(r"\s*(?:(?P<int>\d+)|(?P<var>[a-zA-Z]+)(?P<idx>\d+)|(?P<op>[*^+/\-]))")


def _tokenize(text: str):
    """Yield (kind, value) tokens one at a time, so that a parser bound stops
    a long input before the rest of it is scanned."""
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {text[pos:].lstrip()[0]!r} at offset {pos}")
        try:
            if m.group("int") is not None:
                token = ("int", int(m.group("int")))
            elif m.group("var") is not None:
                token = ("var", (m.group("var"), int(m.group("idx"))))
            else:
                token = ("op", m.group("op"))
        except ValueError:  # more digits than int() converts
            raise ParseError(f"integer too long at offset {pos}") from None
        pos = m.end()
        yield token


def parse_terms(text: str) -> list[tuple[Fraction, list[tuple[str, int, int]]]]:
    """Parse into a list of (coefficient, [(prefix, 1-based index, exponent)])."""
    tokens = _tokenize(text)
    ahead = next(tokens, (None, None))     # the one token of lookahead
    if ahead[0] is None:
        raise ParseError("empty expression")
    pos = 0

    def take(kind, value=None):
        nonlocal ahead, pos
        tk, tv = ahead
        if tk != kind or (value is not None and tv != value):
            raise ParseError(f"unexpected token {tv!r} (token #{pos + 1})")
        pos += 1
        ahead = next(tokens, (None, None))
        return tv

    def parse_factor():
        tk, tv = ahead
        if tk == "int":
            take("int")
            if ahead == ("op", "/"):
                take("op", "/")
                den = take("int")
                if den == 0:
                    raise ParseError("zero denominator")
                return Fraction(tv, den), None
            return Fraction(tv), None
        if tk == "var":
            take("var")
            exp = 1
            if ahead == ("op", "^"):
                take("op", "^")
                exp = take("int")
            return None, (tv[0], tv[1], exp)
        raise ParseError(f"expected a coefficient or variable (token #{pos + 1})")

    def parse_term():
        num = den = 1
        degree = 0
        vars_ = []
        while True:
            c, v = parse_factor()
            if c is not None:
                num *= c.numerator
                den *= c.denominator
                if abs(num) >= _COEFF_LIMIT or den >= _COEFF_LIMIT:
                    raise ParseError("a term's coefficient factors multiply to more "
                                     f"than {MAX_COEFF_DIGITS} digits")
            else:
                vars_.append(v)
                degree += v[2]
                if degree > MAX_EXPONENT:
                    raise ParseError(
                        f"a term has exponents summing to more than {MAX_EXPONENT}")
            if ahead == ("op", "*"):
                take("op", "*")
                continue
            break
        return Fraction(num, den), vars_

    terms = []
    sign = 1
    tk, tv = ahead
    if tk == "op" and tv in "+-":
        sign = -1 if tv == "-" else 1
        take("op")
    while True:
        if len(terms) == MAX_TERMS:
            raise ParseError(f"more than {MAX_TERMS} terms")
        coeff, vars_ = parse_term()
        terms.append((sign * coeff, vars_))
        tk, tv = ahead
        if tk is None:
            break
        if tk == "op" and tv in "+-":
            sign = -1 if tv == "-" else 1
            take("op")
            continue
        raise ParseError(f"unexpected token {tv!r} (token #{pos + 1})")
    return terms


def format_terms(terms: list[tuple[Fraction, list[tuple[str, int]]]]) -> str:
    """Render (coefficient, [(variable name, exponent)]) terms as a sum; an
    exponent of 0 drops the variable, and a negative one is printed as is.
    A coefficient (an int or a Fraction) is read through its numerator and
    denominator: its magnitude prints as |n|/d, or |n| when d = 1."""
    if not terms:
        return "0"
    chunks = []
    for coeff, vars_ in terms:
        body = "*".join(f"{name}^{e}" if e != 1 else name for name, e in vars_ if e)
        num, den = coeff.numerator, coeff.denominator
        mag = str(abs(num)) if den == 1 else f"{abs(num)}/{den}"
        if not body:
            text = mag
        elif mag == "1":
            text = body
        else:
            text = f"{mag}*{body}"
        chunks.append((num < 0, text))
    first_neg, first = chunks[0]
    out = ("-" if first_neg else "") + first
    for neg, text in chunks[1:]:
        out += (" - " if neg else " + ") + text
    return out
