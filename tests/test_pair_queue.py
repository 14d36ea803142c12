"""The S-pair queue of `groebner.weyl_buchberger`: one stream of pairs per
basis element, sorted once, with only each stream's head in a heap. It must
take the pairs in the order of one heap holding every queued pair
(`helpers.weyl_buchberger_all_pairs`), and hold exactly the pairs not yet
taken, with no more heap entries than the basis has elements."""

import json
from fractions import Fraction
from itertools import product

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from helpers import (PERFBENCH, all_fixture_fans, grading,  # noqa: E402
                     random_homogeneous_weyl, rng, weyl_buchberger_all_pairs)
from toric_dmod import groebner  # noqa: E402
from toric_dmod.dmod import d_module_left  # noqa: E402
from toric_dmod.weyl import WeylElement  # noqa: E402

# both engines stop after this many S-elements: the order is compared on
# that prefix, so an input whose basis takes long costs no more than this
MAX_PAIRS = 300


class _Enough(Exception):
    pass


def _pair_sequence(engine, gens, rank: int, d: int):
    """(S-elements formed, basis or None when cut): each S-element as both
    reducers' leads and leading coefficients, in the order formed."""
    real = groebner._s_element
    seen = []

    def recording(ri, rj):
        if len(seen) == MAX_PAIRS:
            raise _Enough
        seen.append(((ri.comp, ri.a, ri.b, ri.lc), (rj.comp, rj.a, rj.b, rj.lc)))
        return real(ri, rj)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groebner, "_s_element", recording)
        try:
            basis = engine(gens, rank, d)
        except _Enough:
            basis = None
    return seen, basis


def _assert_same_pairs(gens, rank: int, d: int):
    streamed = _pair_sequence(groebner.weyl_buchberger, gens, rank, d)
    assert streamed == _pair_sequence(weyl_buchberger_all_pairs, gens, rank, d)
    return streamed[0]


@st.composite
def weyl_rows(draw):
    """(rows, rank, d): two or three nonzero rows over A_1 or A_2 of rank 1
    or 2, entries of up to two terms of Bernstein degree at most 2."""
    d, rank = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    exponents = [(a, b) for a in product(range(3), repeat=d) for b in product(range(3), repeat=d)
                 if sum(a) + sum(b) <= 2]
    coefficient = st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(1, 3))
    entry = st.dictionaries(st.sampled_from(exponents), coefficient, max_size=2)
    rows = draw(st.lists(st.tuples(*[entry] * rank).filter(any), min_size=2, max_size=3))
    return [tuple(WeylElement(d, terms) for terms in row) for row in rows], rank, d


@given(weyl_rows())
def test_streams_take_the_pairs_of_the_all_pairs_heap(case):
    _assert_same_pairs(*case)


def test_streams_take_the_pairs_of_the_all_pairs_heap_on_fixture_modules():
    # D(b) on every fixture fan, at the zero twist and at twists of both
    # signs, alone (its Euler rows commute, so few pairs) and with two
    # seeded random homogeneous rows, as in the benchmark's hard tier
    r = rng(57)
    formed = []
    for _, fan in all_fixture_fans():
        gd = grading(fan)
        width = gd.class_group.free_rank
        for coords in [(0,) * width, (1,) * width, (-2,) + (0,) * (width - 1)]:
            rows = d_module_left(gd, coords).left_form_relations()
            extra = [(random_homogeneous_weyl(r, gd, total=3),) for _ in range(2)]
            for gens in (rows, rows + extra):
                formed.append(len(_assert_same_pairs(gens, 1, gd.d)))
    assert sum(formed) > 1000 and max(formed) == MAX_PAIRS


def test_the_queue_holds_the_untaken_pairs_and_one_head_per_stream(monkeypatch):
    # the hard tier's degree-3 module on Hirzebruch 1 (rank 1, so every pair
    # of basis elements is in one component): whenever an S-element is
    # formed, the streams past their heads hold exactly the pairs not yet
    # taken, and the head heap never has more entries than there are elements
    entry = json.loads((PERFBENCH / "data" / "hard_tier.json").read_text())["tier"][10]
    assert (entry["fan"], entry["degree"]) == ("hirzebruch1", 3)
    d = len(entry["relations"][0][0][1])
    rows = [(WeylElement(d, {(tuple(a), tuple(b)): Fraction(c) for c, a, b in terms}),)
            for terms in entry["relations"]]
    made, taken, heads, largest = [], [], [], [0]
    real_reducer, real_s = groebner._WeylReducer, groebner._s_element
    real_push, real_pop = groebner.heappush, groebner.heappop

    def reducer(w):
        made.append(real_reducer(w))
        return made[-1]

    def push(heap, item):
        real_push(heap, item)
        if len(item) == 5:              # a stream's head; _wreduce pushes term pairs
            heads[:] = [heap]
            largest[0] = max(largest[0], len(heap))
            assert len(heap) <= len(made)

    def pop(heap):
        item = real_pop(heap)
        if len(item) == 5:
            taken.append(item[1:3])
        return item

    def queued():
        return [(i, j) for _, _, j, stream, pos in heads[0] for i in stream[pos:]]

    def s_element(ri, rj):
        assert {ri.comp, rj.comp} == {0}
        waiting = queued()
        assert len(set(waiting)) == len(waiting)
        assert set(waiting) | set(taken) == {(i, j) for j in range(len(made)) for i in range(j)}
        assert not set(waiting) & set(taken)
        return real_s(ri, rj)

    for name, patch in (("_WeylReducer", reducer), ("_s_element", s_element),
                        ("heappush", push), ("heappop", pop)):
        monkeypatch.setattr(groebner, name, patch)
    groebner.weyl_buchberger(rows, 1, d)
    assert len(taken) == len(set(taken)) == len(made) * (len(made) - 1) // 2 > 50
    assert not heads[0] and 1 < largest[0] <= len(made)
