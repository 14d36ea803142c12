"""Weyl algebra arithmetic with rational coefficients, and the package's
sparse-polynomial kernel.

The tp_* functions add, scale and multiply dict polynomials {exponent tuple:
Fraction}; Poly and WeylElement do their arithmetic through them, and a
Laurent polynomial is such a dict with negative exponents allowed. Products,
substitutions, evaluations, division by linear factors and the action on
Laurent polynomials run on integer numerators over one common denominator
(tp_numerators) and build one Fraction per output coefficient.
tp_numerator_evaluator and numerator_action are the one evaluator and the
one action: they prepare a fixed polynomial or operator once and then
evaluate or act on integers only, so that a caller walking a box of points
builds no Fraction there. The evaluator keeps the numerators in nested
Horner form with the last variable outermost (grouped by the degree of the
last variable that occurs, each group by the last one before it), so a
point costs one multiply-add per coefficient and no power. Its line entry
point evaluates the coefficient forms of the powers of the last variable
once at the head of a box line and returns a univariate Horner on ints, so
a point on the line costs one multiply-add per power of the last variable.
The action splits f once into diagonal terms x^a d^a, which keep a
monomial's exponent and act on it as one sum, and shifted terms. A
theta-polynomial (diagonal terms only) scales each monomial by its own
eigenvalue, and its line form gives the eigenvalue along a box line as a
sum of falling factorials of the last exponent, with the head's falling
factorials taken once per line; the local checks multiply by it a line at
a time. tp_eval and act are their one-shot forms on Fractions.
tp_linear_product multiplies the linear factors of each variable as a
univariate integer coefficient list and combines the variables once.
tp_divide_linear_product is the one division: synthetic division by each
linear factor on the numerators.
weyl_shift_into is the one normal-ordering expansion, shared by the Weyl
product, the involution and the Weyl Groebner engine; it takes terms split
once into items (shift_items) and returns the keys it added to its output.

Weyl elements are stored in normal order: finitely many terms x^a d^b ->
coeff with a, b in N^d. The module also provides the torus-eigenspace
(theta) form, the action on Laurent polynomials, and the order-reversing
involution.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import groupby, product
from math import comb, lcm, perm, prod
from operator import add, itemgetter, sub

from .errors import ParseError
from .parsing import format_terms, parse_terms

# plain dict polynomials in the commuting theta variables: exps tuple -> Fraction
ThetaDict = dict


def tp_add(p: ThetaDict, q: ThetaDict) -> ThetaDict:
    out = dict(p)
    for e, c in q.items():
        nc = out.get(e, Fraction(0)) + c
        if nc:
            out[e] = nc
        else:
            out.pop(e, None)
    return out


def tp_scale(p: ThetaDict, c) -> ThetaDict:
    c = Fraction(c)
    if not c:
        return {}
    return {e: v * c for e, v in p.items()}


def tp_numerators(p: ThetaDict) -> tuple[int, dict]:
    """(D, {key: D * c}): the least common denominator D of the coefficients
    of p and the integer numerators over it."""
    dens = [c.denominator for c in p.values()]
    den = lcm(*dens)
    return den, {e: c.numerator * (den // q) for (e, c), q in zip(p.items(), dens)}


def _over(den: int, nums: dict) -> ThetaDict:
    """The Fraction dict of integer numerators over den, zeros dropped."""
    return {e: Fraction(c, den) for e, c in nums.items() if c}


def _int_mul(p: dict, q: dict) -> dict:
    """The product of two dicts with int coefficients; zero sums are kept."""
    out: dict = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(map(add, e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return out


def tp_mul(p: ThetaDict, q: ThetaDict) -> ThetaDict:
    dp, nump = tp_numerators(p)
    dq, numq = tp_numerators(q)
    return _over(dp * dq, _int_mul(nump, numq))


def tp_linear_form(u, shift=0) -> ThetaDict:
    """The polynomial sum_i u_i theta_i + shift."""
    d = len(u)
    out = {tuple(int(j == i) for j in range(d)): Fraction(c) for i, c in enumerate(u) if c}
    if shift:
        out[(0,) * d] = Fraction(shift)
    return out


def tp_linear(d: int, i: int, shift) -> ThetaDict:
    """The polynomial theta_i + shift."""
    return tp_linear_form(tuple(int(j == i) for j in range(d)), shift)


def tp_linear_product(d: int, factors) -> ThetaDict:
    """The product of the linear factors (theta_i - m) over (i, m) in factors.

    With m = r / s in lowest terms, (theta_i - m) = (s theta_i - r) / s. The
    factors of each theta_i multiply as a univariate integer coefficient
    list, and the product of those lists over the variables, whose terms
    never collide, is taken once.
    """
    den, rows = 1, {}
    for i, m in factors:
        r, s = m.numerator, m.denominator
        row = rows.get(i, [1])
        rows[i] = [s * hi - r * lo for lo, hi in zip(row + [0], [0] + row)]
        den *= s
    terms = [((), 1)]
    for i in range(d):
        row = rows.get(i)
        if row is None:
            terms = [(e + (0,), c) for e, c in terms]
        else:
            terms = [(e + (k,), c * ck) for e, c in terms for k, ck in enumerate(row) if ck]
    return {e: Fraction(c, den) for e, c in terms}


def _horner(nums: dict, i: int):
    """The numerators nums over the variables 0 .. i-1 in nested Horner
    form: an int when none of them occurs, else (j, coefficients) with j the
    last variable that occurs and coefficients the forms of the powers of
    t_j from the top degree down to 0 (0 where a degree is missing)."""
    if len(nums) == 1:
        (e, c), = nums.items()
        if not any(e[:i]):
            return c
    i -= 1
    while not any(e[i] for e in nums):
        i -= 1
    by_degree: dict = {}
    for e, c in nums.items():
        by_degree.setdefault(e[i], {})[e] = c
    return i, [_horner(by_degree[k], i) if k in by_degree else 0
               for k in range(max(by_degree), -1, -1)]


def _horner_at(form, t) -> int:
    if form.__class__ is int:
        return form
    i, coefficients = form
    x, acc = t[i], 0
    for c in coefficients:
        acc = acc * x + (c if c.__class__ is int else _horner_at(c, t))
    return acc


def tp_numerator_evaluator(p: ThetaDict):
    """(D, f): the least common denominator D of p and the function
    t -> D p(t) at integer points, an integer sum; f.line(head) is the
    function x -> D p(head + (x,)) along the line of the last variable.

    The numerators of p are computed and put in nested Horner form once:
    grouped by the degree of the last variable that occurs, each group by
    the degree of the last one before it that occurs, and so on. At a point
    each coefficient then costs one multiply-add, and no power is taken.
    f.line(head) evaluates the forms of the powers of the last variable at
    head once, so that along the line each point costs one multiply-add per
    power: a univariate Horner on ints.
    """
    den, nums = tp_numerators(p)
    last = len(next(iter(nums), ())) - 1
    form = _horner(nums, last + 1) if nums else 0

    def evaluate(t) -> int:
        return _horner_at(form, t)

    def line(head):
        if form.__class__ is not int and form[0] == last:
            coefficients = [c if c.__class__ is int else _horner_at(c, head)
                            for c in form[1]]
        else:
            coefficients = [_horner_at(form, head)]

        def at(x) -> int:
            acc = 0
            for c in coefficients:
                acc = acc * x + c
            return acc
        return at
    evaluate.line = line
    return den, evaluate


def tp_eval(p: ThetaDict, point) -> Fraction:
    """p at a rational point.

    With the point written as t / s over one denominator and K the largest
    total degree, s^K p(point) = sum_e c_e t^e s^(K - |e|) is the
    homogenised p at the integer point (t, s).
    """
    top = max(map(sum, p), default=0)
    den, at = tp_numerator_evaluator({e + (top - sum(e),): c for e, c in p.items()})
    s = lcm(*(x.denominator for x in point))
    t = [x.numerator * (s // x.denominator) for x in point]
    t.append(s)
    return Fraction(at(t), den * s ** top)


def tp_subst(p: ThetaDict, images: list[ThetaDict], d_out: int) -> ThetaDict:
    """Substitute variable i -> images[i]; images live in a d_out-variable ring.

    With p = sum_e c_e theta^e / D, images[i] = N_i / D_i and K_i the
    largest exponent of variable i, the result is
    sum_e c_e prod_i N_i^e_i D_i^(K_i - e_i) over D prod_i D_i^K_i. Each
    power N_i^k is built once.
    """
    den, nums = tp_numerators(p)
    maxdeg = [max(ks) for ks in zip(*nums)]
    scaled = [tp_numerators(image) for image in images]
    powers = []
    for (_, ni), k in zip(scaled, maxdeg):
        row = [{(0,) * d_out: 1}]
        for _ in range(k):
            row.append(_int_mul(row[-1], ni))
        powers.append(row)
    out: dict = {}
    for e, c in nums.items():
        term = {(0,) * d_out: c * prod(di ** (top - k) for (di, _), k, top
                                       in zip(scaled, e, maxdeg))}
        for row, k in zip(powers, e):
            if k:
                term = _int_mul(term, row[k])
        for ex, v in term.items():
            out[ex] = out.get(ex, 0) + v
    den *= prod(di ** k for (di, _), k in zip(scaled, maxdeg))
    return _over(den, out)


def tp_divide_linear_product(p: ThetaDict, factors) -> ThetaDict | None:
    """The quotient of p by the product of the linear factors (theta_i - m)
    over (i, m) in factors, or None when that product does not divide p.

    Synthetic division on the integer numerators of p. For each run of
    factors on the same theta_i the terms are grouped once into columns, the
    coefficients of theta_i^0..K per monomial in the other variables, and
    every factor of the run divides each column. For m = r / s in lowest
    terms and K the largest degree of theta_i, s^K P(theta_i) = P~(s
    theta_i) with P~(u) = sum_k a_k s^(K-k) u^k an integer polynomial;
    dividing P~ by (u - r) gives quotient coefficients b_j, and P / (theta_i
    - m) = sum_j b_j s^j theta_i^j over s^(K-1). Every column then has
    degree one less, so K drops by one per factor.
    """
    den, nums = tp_numerators(p)
    for i, run in groupby(factors, key=itemgetter(0)):
        if not nums:
            break
        top = max(e[i] for e in nums)
        columns: dict = {}
        for e, c in nums.items():
            columns.setdefault(e[:i] + e[i + 1:], [0] * (top + 1))[e[i]] = c
        for _, m in run:
            r, s = Fraction(m).as_integer_ratio()
            powers = [s ** k for k in range(top + 1)]
            for rest, col in columns.items():
                b = 0
                quotient = [0] * top
                for k in range(top, 0, -1):
                    b = col[k] * powers[top - k] + r * b
                    quotient[k - 1] = b * powers[k - 1]
                if col[0] * powers[top] + r * b:
                    return None
                columns[rest] = quotient
            # at top 0 every column is a nonzero constant, which the test
            # above rejects, so top >= 1 here
            den *= powers[top - 1]
            top -= 1
        nums = {rest[:i] + (k,) + rest[i:]: c
                for rest, col in columns.items() for k, c in enumerate(col) if c}
    return _over(den, nums)


def tp_format(p: ThetaDict, names) -> str:
    items = sorted(p.items(), key=lambda kv: kv[0], reverse=True)
    return format_terms([(c, [(names[i], k) for i, k in enumerate(e) if k])
                         for e, c in items])


def _ff(c: int, k: int) -> int:
    """Falling factorial c (c-1) ... (c-k+1); c may be negative."""
    out = 1
    for j in range(k):
        out *= c - j
    return out


class WeylElement:
    """Normal-ordered element of the d-th Weyl algebra over Q."""

    __slots__ = ("d", "terms")

    def __init__(self, d: int, terms=None):
        self.d = d
        clean = {}
        for (a, b), c in (terms or {}).items():
            c = Fraction(c)
            if c:
                clean[(tuple(a), tuple(b))] = c
        self.terms = clean

    # constructors

    @classmethod
    def zero(cls, d: int) -> "WeylElement":
        return cls(d)

    @classmethod
    def monomial(cls, d: int, a, b, coeff=1) -> "WeylElement":
        return cls(d, {(tuple(a), tuple(b)): Fraction(coeff)})

    # predicates and canonical form

    def is_zero(self) -> bool:
        return not self.terms

    def items(self):
        return sorted(self.terms.items())

    def __eq__(self, other):
        return isinstance(other, WeylElement) and self.d == other.d and self.terms == other.terms

    def __hash__(self):
        return hash((self.d, tuple(self.items())))

    def __repr__(self):
        return f"WeylElement({format_weyl(self)!r})"

    # arithmetic

    def __add__(self, other: "WeylElement") -> "WeylElement":
        if self.d != other.d:
            raise ValueError("rank mismatch")
        return WeylElement(self.d, tp_add(self.terms, other.terms))

    def __neg__(self) -> "WeylElement":
        return self.scale(-1)

    def __sub__(self, other: "WeylElement") -> "WeylElement":
        return self + (-other)

    def scale(self, c) -> "WeylElement":
        return WeylElement(self.d, tp_scale(self.terms, c))

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        return weyl_mul(self, other)


def shift_items(terms: dict) -> list:
    """Terms keyed prefix + (a, b) as the shift's (prefix, a, b, coeff) items."""
    return [(k[:-2], k[-2], k[-1], c) for k, c in terms.items()]


def weyl_shift_into(out: dict, items, c, da, db) -> list:
    """out += c * x^da d^db * items in normal order, in place; returns the
    keys added to out, which it did not hold before the call.

    items are nonzero terms (prefix, a, b, coefficient), keyed prefix + (a,
    b) in out. Uses d^b x^a = sum_k C(b,k) a!/(a-k)! x^(a-k) d^(b-k). A term
    whose a is zero wherever db is not commutes and gives one term; the
    others sum over k only at the indices where db and a overlap. A value
    that cancels stays in out at 0 (a key is never removed): the caller
    drops zeros.
    """
    if not c:
        return []
    hot, shift_a = [i for i, x in enumerate(db) if x], any(da)
    added = []
    for pre, a, b, ct in items:
        na = tuple(map(add, da, a)) if shift_a else a
        nb = tuple(map(add, db, b)) if hot else b
        both = [i for i in hot if a[i]] if hot else ()
        if not both:
            nk = pre + (na, nb)
            nv = out.get(nk)
            if nv is None:
                out[nk] = c * ct
                added.append(nk)
            else:
                out[nk] = nv + c * ct
            continue
        for k in product(*[range(min(db[i], a[i]) + 1) for i in both]):
            v, ea, eb = c * ct, list(na), list(nb)
            for i, ki in zip(both, k):
                if ki:
                    v *= comb(db[i], ki) * perm(a[i], ki)
                    ea[i] -= ki
                    eb[i] -= ki
            nk = pre + (tuple(ea), tuple(eb))
            nv = out.get(nk)
            if nv is None:
                out[nk] = v
                added.append(nk)
            else:
                out[nk] = nv + v
    return added


def weyl_mul(f: WeylElement, g: WeylElement) -> WeylElement:
    """Normal-ordered product."""
    if f.d != g.d:
        raise ValueError("rank mismatch")
    out: dict = {}
    items = shift_items(g.terms)
    for (a, b), c in f.terms.items():
        weyl_shift_into(out, items, c, a, b)
    return WeylElement(f.d, out)


def theta_u(u, shift=0) -> WeylElement:
    """The shifted Euler operator sum_i u_i x_i d_i + shift."""
    return WeylElement(len(u), {(e, e): c for e, c in tp_linear_form(u, shift).items()})


def to_theta_form(f: WeylElement) -> dict:
    """Eigenspace form {c in Z^d: w(theta)}, nonzero w only, meaning the
    element sum_c x^(c+) d^(c-) w(theta): x^a d^b = x^(c+) d^(c-) w(theta)
    with c = a - b and w the product of (theta_i - r) over
    b_i - min(a_i, b_i) <= r < b_i."""
    d = f.d
    entries: dict = {}
    for (a, b), coeff in f.terms.items():
        w = tp_linear_product(d, [(i, r) for i in range(d)
                                  for r in range(b[i] - min(a[i], b[i]), b[i])])
        c = tuple(map(sub, a, b))
        entries[c] = tp_add(entries.get(c, {}), tp_scale(w, coeff))
    return {c: w for c, w in entries.items() if w}


def _stirling_row(k: int) -> list[int]:
    """The Stirling numbers of the second kind S(k, 0), ..., S(k, k)."""
    row = [1]
    for _ in range(k):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, len(row))] + [1]
    return row


def theta_dict_to_weyl(d: int, w: ThetaDict) -> WeylElement:
    """w(theta) in normal order, by theta_i^k = sum_j S(k, j) x_i^j d_i^j."""
    out: dict = {}
    for e, c in w.items():
        rows = [_stirling_row(k) for k in e]
        for j in product(*(range(k + 1) for k in e)):
            v = c * prod(row[ji] for row, ji in zip(rows, j))
            if v:
                out[(j, j)] = out.get((j, j), 0) + v
    return WeylElement(d, out)


def from_theta_form(d: int, tf: dict) -> WeylElement:
    """The element of A_d with eigenspace form tf (see to_theta_form)."""
    out = WeylElement.zero(d)
    for c, w in sorted(tf.items()):
        cp = tuple(max(x, 0) for x in c)
        cm = tuple(max(-x, 0) for x in c)
        out = out + weyl_mul(WeylElement.monomial(d, cp, cm), theta_dict_to_weyl(d, w))
    return out


def numerator_action(f: WeylElement):
    """(D, apply): the least common denominator D of f and the function
    g -> D f . g on integer numerators {exponent: int}, zeros dropped; the
    numerators of f are computed once.

    Natural action: x_i multiplies, d_i differentiates.
    d^b x^e = ff(e, b) x^(e - b) with ff the product of falling factorials;
    it vanishes when 0 <= e_i < b_i, so a variable whose exponents in g are
    nonnegative keeps them nonnegative in f . g.

    The terms of f are split once into diagonal terms (a = b: x^a d^a
    scales x^e by ff(e, a) and keeps its exponent tuple) and shifted ones.
    The diagonal terms act on a monomial of g as one sum, written to the
    output once; when f has no shifted term, as for a theta-polynomial,
    that is the whole output. A first-order factor ff(e_i, 1) is e_i
    itself.

    A theta-polynomial f (no shifted term) also has a line form:
    apply.line(head) is the list of integer pairs (k, c_k), c_k nonzero,
    with D f . y^(head + (x,)) = sum_k c_k ff(x, k) y^(head + (x,)) for
    every integer x. The falling factorials of the head are taken once per
    line, not once per point.
    """
    df, nf = tp_numerators(f.terms)
    diagonal, shifted = [], []
    for (a, b), cf in nf.items():
        lowered = [(i, bi) for i, bi in enumerate(b) if bi]
        if a == b:
            diagonal.append((lowered, cf))
        else:
            shifted.append((tuple(map(sub, a, b)), lowered, cf))

    def diagonal_sum(e) -> int:
        total = 0
        for lowered, cf in diagonal:
            for i, bi in lowered:
                cf *= e[i] if bi == 1 else _ff(e[i], bi)
            total += cf
        return total

    def apply(g: dict) -> dict:
        out = {e: c for e, cg in g.items() if (c := diagonal_sum(e) * cg)} if diagonal else {}
        if not shifted:
            return out
        for shift, lowered, cf in shifted:
            for e, cg in g.items():
                for i, bi in lowered:
                    cg *= e[i] if bi == 1 else _ff(e[i], bi)
                if cg:
                    ne = tuple(map(add, e, shift))
                    out[ne] = out.get(ne, 0) + cf * cg
        return {e: c for e, c in out.items() if c}
    if shifted:
        return df, apply
    last = f.d - 1
    by_last = [(dict(lowered).get(last, 0), [(i, bi) for i, bi in lowered if i != last], cf)
               for lowered, cf in diagonal]

    def line(head) -> list:
        out: dict = {}
        for k, lowered, cf in by_last:
            for i, bi in lowered:
                cf *= head[i] if bi == 1 else _ff(head[i], bi)
            out[k] = out.get(k, 0) + cf
        return [(k, c) for k, c in out.items() if c]
    apply.line = line
    return df, apply


def act(f: WeylElement, g: ThetaDict) -> ThetaDict:
    """f . g on a Laurent polynomial {exponent: Fraction}: numerator_action
    over the common denominator of g."""
    if any(len(e) != f.d for e in g):
        raise ValueError("rank mismatch")
    df, apply = numerator_action(f)
    dg, ng = tp_numerators(g)
    return _over(df * dg, apply(ng))


def tau(f: WeylElement) -> WeylElement:
    """The involution x^a d^b -> (-d)^b x^a, re-expressed in normal order."""
    zero = (0,) * f.d
    out: dict = {}
    for (a, b), c in f.terms.items():
        weyl_shift_into(out, [((), a, zero, 1)], -c if sum(b) % 2 else c, zero, b)
    return WeylElement(f.d, out)


def _parse_sum(text: str, d: int, prefixes: tuple, key) -> dict:
    """The terms of text as {key(e): coefficient}, zeros dropped. e lists
    the exponents of the variables <prefix>1 .. <prefix>d, prefix by prefix
    in the order of prefixes."""
    slots = {pfx: k * d for k, pfx in enumerate(prefixes)}
    out: dict = {}
    for coeff, vars_ in parse_terms(text):
        e = [0] * (len(prefixes) * d)
        for pfx, idx, exp in vars_:
            if pfx not in slots:
                raise ParseError(f"unknown variable prefix {pfx!r}")
            if not 1 <= idx <= d:
                raise ParseError(f"index {idx} out of range 1..{d}")
            e[slots[pfx] + idx - 1] += exp
        k = key(e)
        if k not in out:
            if coeff:
                out[k] = coeff
        elif nc := out[k] + coeff:
            out[k] = nc
        else:
            del out[k]
    return out


def parse_weyl(text: str, d: int) -> WeylElement:
    """Parse expressions like ``3*x1^2*d1 - 1/2*x2*d2^3``."""
    return WeylElement(d, _parse_sum(text, d, ("x", "d"),
                                     lambda e: (tuple(e[:d]), tuple(e[d:]))))


def format_weyl(f: WeylElement) -> str:
    items = sorted(f.terms.items(), reverse=True)
    rendered = []
    for (a, b), c in items:
        vars_ = [(f"x{i + 1}", e) for i, e in enumerate(a) if e]
        vars_ += [(f"d{i + 1}", e) for i, e in enumerate(b) if e]
        rendered.append((c, vars_))
    return format_terms(rendered)


def parse_theta_poly(text: str, d: int) -> ThetaDict:
    """Parse a commutative polynomial in ``th1 .. th<d>``."""
    return _parse_sum(text, d, ("th",), tuple)
