"""Groebner engines over Q: commutative ideals/submodules and filtered
Weyl-algebra submodules for the order filtration, on one reduction kernel.

Commutative polynomials are dicts {exponent tuple: Fraction} attached to a
PolyRing. Bases and normal forms on both sides run on the Weyl kernel
(`_wreduce` on primitive integer elements {(component, a, b): int}). A
commutative term x^e maps to (component, e, ()), with no d-part, and the
Weyl order is then degrevlex. For elimination the front variable t maps to
the d-part of an extra variable whose x-part stays 0, (component, (0,) +
e[1:], e[:1]): t commutes, and the order compares the t-degree first, then
degrevlex on the rest. No function takes a term order. The read side takes
each basis element's divisor from `Poly.divisor`, built once per element,
and a Weyl basis's divisors from `WeylDivisors`, built once per basis;
membership (`ideal_contains`, `weyl_contains`) stops at the first term that
no lead divides.
All reduced bases are canonical (monic, auto-reduced, sorted), so outputs
are reproducible byte-for-byte.
"""

from __future__ import annotations

from array import array
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import combinations
from math import gcd
from operator import add, ge, le, neg, sub

from .lattice import cokernel, dual_lattice_basis
from .parsing import format_terms
from .weyl import (WeylElement, shift_items, tp_add, tp_mul, tp_numerators,
                   tp_scale, weyl_shift_into)

EMPTY_DIM = "empty"


class PolyRing:
    """Commutative polynomial ring descriptor: its variable names. Rings
    with equal names are equal and hash equally."""

    __slots__ = ("names",)

    def __init__(self, names: tuple[str, ...]):
        self.names = names

    def __eq__(self, other):
        if other.__class__ is not PolyRing:
            return NotImplemented
        return self.names == other.names

    def __hash__(self):
        return hash(self.names)

    @property
    def nvars(self) -> int:
        return len(self.names)


class Poly:
    """Commutative polynomial with rational coefficients. Nothing writes
    `terms` after __init__, so `divisor` is built on first use and kept."""

    __slots__ = ("ring", "terms", "_divisor")

    def __init__(self, ring: PolyRing, terms=None):
        self.ring = ring
        clean = {}
        for e, c in (terms or {}).items():
            if c.__class__ is not Fraction:
                c = Fraction(c)
            if c:
                clean[tuple(e)] = c
        self.terms = clean
        self._divisor = None

    def divisor(self) -> _WeylReducer:
        """This polynomial as a divisor of the reduction kernel."""
        if self._divisor is None:
            self._divisor = _WeylReducer(_kernel(self))
        return self._divisor

    @classmethod
    def zero(cls, ring):
        return cls(ring)

    @classmethod
    def constant(cls, ring, c):
        return cls(ring, {(0,) * ring.nvars: Fraction(c)})

    @classmethod
    def variable(cls, ring, i):
        e = tuple(int(j == i) for j in range(ring.nvars))
        return cls(ring, {e: Fraction(1)})

    @classmethod
    def monomial(cls, ring, e, c=1):
        return cls(ring, {tuple(e): Fraction(c)})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, Poly) and self.ring.names == other.ring.names \
            and self.terms == other.terms

    def __add__(self, other):
        if self.ring.names != other.ring.names:
            raise ValueError("ring mismatch")
        return Poly(self.ring, tp_add(self.terms, other.terms))

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if self.ring.names != other.ring.names:
            raise ValueError("ring mismatch")
        return Poly(self.ring, tp_mul(self.terms, other.terms))

    def scale(self, c):
        return Poly(self.ring, tp_scale(self.terms, c))

    def total_degree(self):
        return max((sum(e) for e in self.terms), default=0)

    def __repr__(self):
        return f"Poly({format_poly(self)!r})"


def format_poly(p: Poly) -> str:
    items = sorted(p.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)
    return format_terms([(c, [(p.ring.names[i], k) for i, k in enumerate(e) if k])
                         for e, c in items])


# the commutative side runs on the Weyl kernel below: a term x^e is the
# kernel term (component, e, ()), with no d-part, where the Weyl order is
# degrevlex


def _kernel(p: Poly) -> dict:
    return {(0, e, ()): c for e, c in p.terms.items()}


def groebner_basis(gens: list[Poly], ring: PolyRing) -> list[Poly]:
    """Reduced degrevlex Groebner basis."""
    return [Poly(ring, {a: c for (_, a, _), c in g.items()})
            for g in buchberger([_kernel(g) for g in gens], 1)]


# the read side takes degrevlex bases, the only ones the pipelines build


def _divisors(f: Poly, gb: list[Poly]) -> list[_WeylReducer]:
    """The divisors of the nonzero elements of gb; ValueError unless they
    share f's ring."""
    if any(g.ring.names != f.ring.names for g in gb):
        raise ValueError("ring mismatch")
    return [g.divisor() for g in gb if not g.is_zero()]


def normal_form(f: Poly, gb: list[Poly]) -> Poly:
    """f reduced by the Groebner basis gb; ValueError on a ring mismatch."""
    divisors = _divisors(f, gb)
    if f.is_zero():
        return f
    den, nums = tp_numerators(_kernel(f))
    remainder, scale = _wreduce(nums, divisors)
    return Poly(f.ring, {a: Fraction(c, den * scale) for (_, a, _), c in remainder.items()})


def ideal_contains(gb: list[Poly], gens: list[Poly]) -> bool:
    """Whether every element of gens lies in the ideal of the Groebner basis
    gb, answered at the first term of each that no lead divides; ValueError
    on a ring mismatch."""
    for f in gens:
        divisors = _divisors(f, gb)
        if not f.is_zero() and _wreduce(tp_numerators(_kernel(f))[1], divisors, lead_only=True)[0]:
            return False
    return True


def is_unit_ideal(gb: list[Poly]) -> bool:
    return any(not g.is_zero() and g.total_degree() == 0 for g in gb)


def _lift_front(p: Poly, big: PolyRing) -> Poly:
    return Poly(big, {(0,) + e: c for e, c in p.terms.items()})


def eliminate_front(gens: list[Poly], ring: PolyRing) -> list[Poly]:
    """Reduced GB of (gens) intersected with ring, the subring missing the
    front variable t of the ring of gens.

    The front variable t becomes the d-part of one extra variable whose
    x-part stays 0, so t commutes and the Weyl order compares the t-degree
    first, then degrevlex on the rest: a block order. By the Elimination
    Theorem the t-free elements of that reduced basis are the reduced
    degrevlex basis of the elimination ideal, in the same order.
    """
    gb = buchberger([{(0, (0,) + e[1:], e[:1]): c for e, c in g.terms.items()}
                     for g in gens], 1)
    return [Poly(ring, {a[1:]: c for (_, a, _), c in g.items()})
            for g in gb if not any(b[0] for _, _, b in g)]


def _with_inverse(gens: list[Poly], f: Poly, ring: PolyRing):
    """I + (1 - t f) in the ring with a front variable t, and that ring;
    1 - t f is written term by term, t f having t-degree 1 in every term."""
    big = PolyRing(("t#",) + ring.names)
    lifted = [_lift_front(g, big) for g in gens]
    inverse = {(0,) * big.nvars: Fraction(1)}
    inverse.update(((1,) + e, -c) for e, c in f.terms.items())
    lifted.append(Poly(big, inverse))
    return lifted, big


def saturation(gens: list[Poly], f: Poly, ring: PolyRing) -> list[Poly]:
    """(I : f^infinity) computed by eliminating t from I + (1 - t f)."""
    lifted, _ = _with_inverse(gens, f, ring)
    return eliminate_front(lifted, ring)


def intersect_ideals(i_gens: list[Poly], j_gens: list[Poly], ring: PolyRing) -> list[Poly]:
    big = PolyRing(("t#",) + ring.names)
    t = Poly.variable(big, 0)
    one_minus_t = Poly.constant(big, 1) - t
    lifted = [t * _lift_front(g, big) for g in i_gens]
    lifted += [one_minus_t * _lift_front(g, big) for g in j_gens]
    return eliminate_front(lifted, ring)


def saturation_by_monomials(gens: list[Poly], monomials, ring: PolyRing) -> list[Poly]:
    """(I : b^infinity) for the monomial ideal b with the given exponent
    vectors, at least one: the intersection of the I : x^m^infinity."""
    first, *rest = sorted(monomials)
    result = saturation(gens, Poly.monomial(ring, first), ring)
    for mono in rest:
        sat = saturation(gens, Poly.monomial(ring, mono), ring)
        result = intersect_ideals(result, sat, ring)
    return result


def radical_membership(f: Poly, gens: list[Poly], ring: PolyRing) -> bool:
    """f in the radical of (gens), by the trick with an inverse variable."""
    lifted, big = _with_inverse(gens, f, ring)
    return is_unit_ideal(groebner_basis(lifted, big))


def krull_dimension(gens: list[Poly], ring: PolyRing):
    """Dimension of V(gens); EMPTY_DIM for the unit ideal."""
    return basis_dimension(groebner_basis(gens, ring), ring)


def _leads(gb: list[Poly]) -> list[tuple[int, ...]]:
    """The leading exponents of the nonzero elements of a degrevlex basis."""
    return [min(_kernel(g), key=_lead_key)[1] for g in gb if not g.is_zero()]


def basis_dimension(gb: list[Poly], ring: PolyRing):
    """Dimension of V(gb) for a degrevlex Groebner basis gb: the largest
    variable set independent modulo the initial ideal. Returns EMPTY_DIM for
    the unit ideal. The empty set is independent unless some lead is a
    constant, and then the ideal is the unit ideal, so the scan returns by
    size 0."""
    if is_unit_ideal(gb):
        return EMPTY_DIM
    supports = [frozenset(i for i, e in enumerate(lead) if e) for lead in _leads(gb)]
    nv = ring.nvars
    for size in range(nv, -1, -1):
        for subset in combinations(range(nv), size):
            s = set(subset)
            if not any(sup <= s for sup in supports):
                return size


def regular_monomial(gb: list[Poly], monomials) -> bool:
    """Whether some monomial x^m of the given exponent vectors is proved a
    nonzerodivisor modulo the ideal J of the degrevlex Groebner basis gb by
    its leading ideal L: L : x^m = L, i.e. for every lead u the quotient
    u / gcd(u, x^m) lies in L (some lead divides it).

    That is enough (Bayer-Stillman 1987; Eisenbud 1995, section 15): if
    h x^m lies in J for a nonzero normal form h, then lead(h) x^m lies in L,
    so lead(h) does, which no term of a normal form can. Then J : x^m = J,
    and J : b^infinity = J for every ideal b containing x^m. False proves
    nothing: x^m may be regular modulo J but not modulo L."""
    leads = _leads(gb)
    return any(all(any(_divides(v, tuple(max(x - y, 0) for x, y in zip(u, m)))
                       for v in leads)
                   for u in leads)
               for m in monomials)


# The one engine: free left modules over the Weyl algebra with the
# order-filtration weight. Internally elements are flat dicts {(component, a,
# b): coefficient}; the kernel reduces them as integer dicts (primitive
# elements, or numerators over a known denominator). The public Weyl API
# speaks tuples of WeylElement.


def _module_order_key(cab):
    """The Weyl module order, POT, component 0 highest, over (weight = total
    d-degree, then degrevlex on x,d jointly): the key of the two engines'
    pair queues."""
    comp, a, b = cab
    joint = a + b
    return -comp, sum(b), sum(joint), tuple(map(neg, reversed(joint)))


def _lead_key(cab):
    """Ascending in exactly the reverse of _module_order_key."""
    comp, a, b = cab
    joint = a + b
    return comp, -sum(b), -sum(joint), joint[::-1]


def _rows_to_wdict(vec) -> dict:
    out = {}
    for comp, elt in enumerate(vec):
        for (a, b), c in elt.terms.items():
            out[(comp, a, b)] = c
    return out


def _wdict_to_rows(w: dict, den: int, rank: int, d: int):
    """Rows of WeylElements from integer numerators over den."""
    split = [dict() for _ in range(rank)]
    for (comp, a, b), c in w.items():
        split[comp][(a, b)] = Fraction(c, den)
    return tuple(WeylElement(d, t) for t in split)


class _WeylReducer:
    """A divisor for Weyl reduction: leading component and exponents, the
    positive integer leading coefficient lc, and the whole element as a
    primitive integer dict vec (content removed, lead positive) and as items."""

    __slots__ = ("comp", "a", "b", "ab", "lc", "vec", "items")

    def __init__(self, w: dict):
        _, nums = tp_numerators(w)
        self.comp, self.a, self.b = cab = min(nums, key=_lead_key)
        self.ab = self.a + self.b
        lead = nums[cab]
        content = gcd(*nums.values()) if lead > 0 else -gcd(*nums.values())
        self.vec = {k: c // content for k, c in nums.items()}
        self.lc = lead // content
        self.items = shift_items(self.vec)


def _wreduce(work: dict, reducers: list[_WeylReducer], lead_only: bool = False):
    """(remainder, scale) with scale * work = remainder + a left combination
    of the reducers, remainder irreducible and scale a positive integer. The
    int dict work is consumed in place. Each term c is reduced by the first
    reducer whose leading term divides it, after scaling by lc / gcd(c, lc)
    so the leading terms cancel in integers. Leads come off a min-heap of
    _lead_key with one entry per key of work: a shift makes only terms below
    the lead, and a key leaves work only when it is popped, so a key the
    shift reports as added was never pushed. A term that cancels stays in
    work at 0 until it is popped.

    With lead_only the reduction stops at the first irreducible term and the
    remainder is that term alone: it is the whole remainder's leading term,
    which later steps would only scale by positive integers, so the
    remainder is empty exactly when work reduces to 0 (membership).
    """
    remainder: dict = {}
    scale = 1
    heap = [(_lead_key(k), k) for k in work]
    heapify(heap)
    while heap:
        cab = heappop(heap)[1]
        c = work[cab]
        if not c:
            del work[cab]
            continue
        comp, a, b = cab
        ab = a + b
        for r in reducers:
            if r.comp == comp and all(map(ge, ab, r.ab)):
                break
        else:
            if lead_only:
                return {cab: c}, scale
            remainder[cab] = work.pop(cab)
            continue
        g = gcd(c, r.lc)
        m = r.lc // g
        if m != 1:
            for k in work:
                work[k] *= m
            for k in remainder:
                remainder[k] *= m
            scale *= m
        for k in weyl_shift_into(work, r.items, -(c // g), tuple(map(sub, a, r.a)),
                                 tuple(map(sub, b, r.b))):
            heappush(heap, (_lead_key(k), k))
        del work[cab]
    return remainder, scale


def _s_element(ri: _WeylReducer, rj: _WeylReducer) -> dict:
    """The S-element of two reducers led in one component, in integers
    (with a 0 where terms cancel)."""
    la, lb = tuple(map(max, ri.a, rj.a)), tuple(map(max, ri.b, rj.b))
    g = gcd(ri.lc, rj.lc)
    s: dict = {}
    weyl_shift_into(s, ri.items, rj.lc // g, tuple(map(sub, la, ri.a)),
                    tuple(map(sub, lb, ri.b)))
    weyl_shift_into(s, rj.items, -(ri.lc // g), tuple(map(sub, la, rj.a)),
                    tuple(map(sub, lb, rj.b)))
    return s


def _interreduced(reducers: list[_WeylReducer]) -> list:
    """(element, denominator) of the reduced basis of a Groebner basis given
    as reducers, in ascending order. After a stable sort by the order, which
    respects divisibility, a reducer is kept iff no earlier kept lead divides
    its lead (of equal leads the first). Each kept one is reduced by those
    before it (no larger lead divides a term below its own lead), with its
    lead over the denominator equal to 1."""
    keep: list[_WeylReducer] = []
    for r in sorted(reducers, key=lambda r: _lead_key((r.comp, r.a, r.b)), reverse=True):
        if not any(k.comp == r.comp and _divides(k.ab, r.ab) for k in keep):
            keep.append(r)
    out = []
    for i, r in enumerate(keep):
        h, scale = _wreduce(dict(r.vec), keep[:i])
        out.append((h, r.lc * scale))
    return out


def _divides(a, b) -> bool:
    return all(map(le, a, b))


def buchberger(gens: list[dict], rank: int) -> list[dict]:
    """Reduced Groebner basis, monic and sorted by lead, of the submodule of
    the free module of the given rank generated by gens: {(component, a, b):
    Fraction} whose variables commute (no variable has both an x- and a
    d-part).

    Pairs are managed by the Gebauer-Moeller update as each element is
    inserted: criteria M and F keep one new pair per minimal lcm, criterion B
    drops an old pair when the new leading term divides its lcm and both
    lcms with the new element differ from it, and live elements whose
    leading term the new one divides stop being reducers (their pairs stay
    queued). The product criterion only applies at rank one: in a free
    module it fails, e.g. for x e1 + e2 and y e1. Pairs and divisibility
    never mix components. Pairs are taken by smallest lcm. Inputs are
    reduced before they are inserted.
    """
    elems: list[_WeylReducer] = []     # every inserted element, by index
    live: list[int] = []               # indices of the current reducers
    pairs: list = []                   # heap of (lcm key, i, j, lcm)

    def insert(h: dict):
        r = _WeylReducer(h)
        comp, lead = r.comp, r.ab
        hi = len(elems)
        elems.append(r)
        new = []                       # (lcm, index, product criterion applies)
        for g in live:
            rg = elems[g]
            if rg.comp == comp:
                lcm = tuple(map(max, lead, rg.ab))
                new.append((lcm, g, rank == 1 and lcm == tuple(map(add, lead, rg.ab))))
        kept = []
        for idx, (lcm, g, coprime) in enumerate(new):
            if coprime or not (any(_divides(l2, lcm) for l2, _, _ in new[idx + 1:])
                               or any(_divides(l2, lcm) for l2, _, _ in kept)):
                kept.append((lcm, g, coprime))
        old = [p for p in pairs
               if elems[p[1]].comp != comp or not _divides(lead, p[3])
               or tuple(map(max, elems[p[1]].ab, lead)) == p[3]
               or tuple(map(max, elems[p[2]].ab, lead)) == p[3]]
        n = len(r.a)
        old += [(_module_order_key((comp, lcm[:n], lcm[n:])), g, hi, lcm)
                for lcm, g, coprime in kept if not coprime]
        heapify(old)
        pairs[:] = old
        live[:] = [g for g in live
                   if elems[g].comp != comp or not _divides(lead, elems[g].ab)]
        live.append(hi)

    def remainder(work: dict) -> dict:
        return _wreduce(work, [elems[g] for g in live])[0]

    for g in sorted((g for g in gens if g), key=lambda g: min(map(_lead_key, g)), reverse=True):
        h = remainder(tp_numerators(g)[1])
        if h:
            insert(h)
    while pairs:
        _, i, j, _ = heappop(pairs)
        h = remainder(_s_element(elems[i], elems[j]))
        if h:
            insert(h)
    return [{k: Fraction(c, den) for k, c in h.items()}
            for h, den in _interreduced([elems[g] for g in live])]


def _check_rows(rows, rank: int, d: int):
    """ValueError unless every row has rank entries over A_d."""
    if any(len(g) != rank or any(e.d != d for e in g) for g in rows):
        raise ValueError("rank mismatch")


class WeylDivisors:
    """A Groebner basis of a left submodule of A_d^rank prepared once for
    membership queries (`weyl_contains`): its nonzero rows as divisors of
    the reduction kernel. ValueError on a row of another shape."""

    __slots__ = ("rank", "d", "reducers")

    def __init__(self, basis, rank: int, d: int):
        _check_rows(basis, rank, d)
        self.rank, self.d = rank, d
        self.reducers = [_WeylReducer(w) for w in map(_rows_to_wdict, basis) if w]


def weyl_contains(f, divisors: WeylDivisors) -> bool:
    """Whether the row f lies in the submodule of the prepared basis,
    answered at the first term that no lead divides; ValueError on an empty
    row or one of another shape."""
    if not f:
        raise ValueError("empty row")
    _check_rows((f,), divisors.rank, divisors.d)
    work = _rows_to_wdict(f)
    return not work or not _wreduce(tp_numerators(work)[1], divisors.reducers,
                                    lead_only=True)[0]


def weyl_normal_form(f, basis):
    """Left normal form of a module element against a list of module elements."""
    if not f:
        raise ValueError("empty row")
    rank, d = len(f), f[0].d
    _check_rows((f, *basis), rank, d)
    work = _rows_to_wdict(f)
    wb = [w for w in map(_rows_to_wdict, basis) if w]
    if not work or not wb:
        return tuple(f)
    den, nums = tp_numerators(work)
    remainder, scale = _wreduce(nums, [_WeylReducer(w) for w in wb])
    return _wdict_to_rows(remainder, den * scale, rank, d)


def weyl_buchberger(gens, rank: int, d: int) -> list:
    """Reduced filtered GB of the left submodule of A^rank generated by gens.

    The order refines the order-filtration weight (0 on x, 1 on d) with a
    graded tiebreak, so Buchberger terminates without homogenization. The
    basis is kept as primitive integer elements and made monic at the end.

    Every S-pair (i, j) of two elements led in one component is reduced,
    with no criteria, by ascending (lcm key, i, j). Element j's pairs wait
    in a stream: the indices i < j in a stable sort by key, so by (key, i),
    stored as machine ints (an array, 8 bytes a pair). A heap holds each
    stream's head; popping it pushes the stream's next pair, key recomputed.
    """
    _check_rows(gens, rank, d)
    basis = sorted((_WeylReducer(w) for w in map(_rows_to_wdict, gens) if w),
                   key=lambda r: _lead_key((r.comp, r.a, r.b)), reverse=True)
    heads: list = []                   # heap of (lcm key, i, j, stream, position)

    def pair_key(i, j):
        ri, rj = basis[i], basis[j]
        return _module_order_key((ri.comp, tuple(map(max, ri.a, rj.a)),
                                  tuple(map(max, ri.b, rj.b))))

    def push_head(j, stream, pos):
        heappush(heads, (pair_key(stream[pos], j), stream[pos], j, stream, pos))

    def add_stream(j):
        comp = basis[j].comp
        stream = array("q", sorted((i for i in range(j) if basis[i].comp == comp),
                                   key=lambda i: pair_key(i, j)))
        if stream:
            push_head(j, stream, 0)

    for j in range(len(basis)):
        add_stream(j)
    while heads:
        _, i, j, stream, pos = heappop(heads)
        if pos + 1 < len(stream):
            push_head(j, stream, pos + 1)
        s, _ = _wreduce(_s_element(basis[i], basis[j]), basis)
        if s:
            basis.append(_WeylReducer(s))
            add_stream(len(basis) - 1)
    return [_wdict_to_rows(h, den, rank, d) for h, den in _interreduced(basis)]


def initial_forms(gb) -> list[dict]:
    """Top-weight parts of filtered GB elements as commutative vecs over S'.

    Exponents are laid out x_1..x_d then xi_1..xi_d.
    """
    out = []
    for vec in gb:
        flat = _rows_to_wdict(vec)
        weight = max(sum(b) for (_, _, b) in flat)
        comm: dict = {}
        for (comp, a, b), c in flat.items():
            if sum(b) == weight:
                comm[(comp, a + b)] = c
        out.append(comm)
    return out


def annihilator_of_graded_quotient(init_vecs: list[dict], sprime: PolyRing,
                                   rank: int) -> list[Poly]:
    """Ann_{S'}(S'^rank / <init_vecs>) as a reduced GB.

    init_vecs are the initial forms of a filtered Groebner basis. At rank
    one they are a basis of the ideal for the xi-degree order refined by
    degrevlex (SST 2000, Thm 1.1.6); the ideal is xi-homogeneous, so
    degrevlex picks the same leading terms and inter-reducing them gives its
    reduced basis. Otherwise intersect the component colons, each computed
    by module elimination.
    """
    if rank == 1:
        reducers = [_WeylReducer({(0, e, ()): c for (_, e), c in v.items()})
                    for v in init_vecs if v]
        return [Poly(sprime, {a: Fraction(c, den) for (_, a, _), c in h.items()})
                for h, den in _interreduced(reducers)]
    ann: list[Poly] | None = None
    for i in range(rank):
        # component i renumbered last, so lowest in this position-over-term
        # order: the basis elements led there lie in it and are already the
        # reduced basis of the colon, in order
        place = {comp: k for k, comp in enumerate([j for j in range(rank) if j != i] + [i])}
        gb = buchberger([{(place[comp], e, ()): c for (comp, e), c in v.items()}
                         for v in init_vecs], rank)
        colon = [Poly(sprime, {a: c for (_, a, _), c in g.items()})
                 for g in gb if all(comp == rank - 1 for comp, _, _ in g)]
        ann = colon if ann is None else intersect_ideals(ann, colon, sprime)
    return ann


def toric_ideal(exponent_vectors: list[tuple[int, ...]], ring: PolyRing) -> list[Poly]:
    """Kernel of the monomial map y_j -> z^(E_j) (z exponents may be negative).

    Computed as the lattice ideal of the integer kernel of E, saturated at the
    product of the y variables. That kernel, {u : sum u_j E_j = 0}, is the
    dual of the cokernel of the matrix with rows E_j.
    """
    m = len(exponent_vectors)
    if m != ring.nvars:
        raise ValueError("one ring variable per monomial expected")
    kernel = dual_lattice_basis(cokernel(exponent_vectors))
    if not kernel:
        return []
    gens = []
    for u in kernel:
        plus = tuple(max(x, 0) for x in u)
        minus = tuple(max(-x, 0) for x in u)
        gens.append(Poly.monomial(ring, plus) - Poly.monomial(ring, minus))
    product_all = Poly.monomial(ring, (1,) * m)
    return saturation(gens, product_all, ring)
