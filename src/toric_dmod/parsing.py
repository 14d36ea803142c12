"""Parser for sums of monomial terms.

Accepted syntax, shared by Weyl expressions and theta polynomials:

    expr   := ['+'|'-'] term { ('+'|'-') term }
    term   := factor { '*' factor }
    factor := INT ['/' INT] | NAME INDEX ['^' INT]

Variables are a letter prefix plus a 1-based index, e.g. ``x1``, ``d2``,
``th1``, ``v2``, ``xi3``. Whitespace may stand between any two tokens, but
not inside a variable.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

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

# One factor and the separator after it ('' at the end of the text): the
# groups are numerator, denominator, name, index, exponent and separator.
# Nothing in it repeats a group, so a match takes time linear in its length.
_TOKEN = re.compile(r"\s*(?:(\d+)(?:\s*/\s*(\d+))?|([a-zA-Z]+)(\d+)(?:\s*\^\s*(\d+))?)"
                    r"\s*([*+\-]?)")


def _offset(text: str, pos: int) -> int:
    """The offset of the first character at or after pos that is not
    whitespace (len(text) if there is none)."""
    return len(text) - len(text[pos:].lstrip())


def parse_terms(text: str) -> list[tuple[Fraction, list[tuple[str, int, int]]]]:
    """Parse into a list of (coefficient, [(prefix, 1-based index, exponent)]).

    Each _TOKEN match reads one factor, so every bound stops a long input at
    the factor that passes it, before the rest of the text is scanned."""
    match = _TOKEN.match
    body = text.lstrip()
    if not body:
        raise ParseError("empty expression")
    pos = len(text) - len(body) + (body[0] in "+-")
    negative = body[0] == "-"
    terms = []
    num = den = 1
    degree = 0
    vars_ = []
    while True:
        m = match(text, pos)
        if m is None:
            raise ParseError(
                f"expected a coefficient or variable at offset {_offset(text, pos)}")
        n, dn, name, idx, exp, sep = m.groups()
        try:
            if name is None:
                n, dn = int(n), (1 if dn is None else int(dn))
            else:
                idx, exp = int(idx), (1 if exp is None else int(exp))
        except ValueError:  # more digits than int() converts
            raise ParseError(f"integer too long at offset {_offset(text, pos)}") from None
        if name is None:
            if dn != 1:     # each factor is reduced, as Fraction(n, dn) would be
                if not dn:
                    raise ParseError("zero denominator")
                g = gcd(n, dn)
                n, dn = n // g, dn // g
            num *= n
            den *= dn
            if num >= _COEFF_LIMIT or den >= _COEFF_LIMIT:
                raise ParseError("a term's coefficient factors multiply to more "
                                 f"than {MAX_COEFF_DIGITS} digits")
        else:
            vars_.append((name, idx, exp))
            degree += exp
            if degree > MAX_EXPONENT:
                raise ParseError(f"a term has exponents summing to more than {MAX_EXPONENT}")
        pos = m.end()
        if sep == "*":
            continue
        if negative:
            num = -num
        terms.append((Fraction(num) if den == 1 else Fraction(num, den), vars_))
        if not sep:
            if pos < len(text):
                raise ParseError(f"unexpected {text[pos]!r} at offset {pos}")
            return terms
        if len(terms) == MAX_TERMS:
            raise ParseError(f"more than {MAX_TERMS} terms")
        negative = sep == "-"
        num = den = 1
        degree = 0
        vars_ = []


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
