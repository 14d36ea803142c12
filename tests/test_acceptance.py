"""Acceptance suite: one test per criterion, exact assertions, timed.

Each test prints a single `ACCEPTANCE <n> <name>: PASS (<seconds>s)` line;
the time budget is asserted as an upper bound.
"""

import pathlib
import subprocess
import sys
import time
from fractions import Fraction
from itertools import product

from helpers import (MacaulayOracle, all_fixture_fans, assert_restriction_agrees,
                     cli_env, delta_module, grading, random_homogeneous_weyl,
                     random_poly, rng, structure_sheaf)
from toric_dmod.charvar import (ZERO_SHEAF, chart_generators, chart_ideal_from_saturated,
                                chart_ring, characteristic_ideal, dimension_report,
                                s_prime_ring, verify_char_containment, z_ideal)
from toric_dmod.dmod import (GradedPresentation, bimodule_identity_check,
                             check_theta_condition, d_module_left,
                             factored_local_action_holds, h_p,
                             i_p_ideal, i_p_matches_y_p,
                             left_right_identity_check, weyl_degree)
from toric_dmod.groebner import (Poly, PolyRing, format_poly, groebner_basis,
                                 ideal_contains, krull_dimension, normal_form,
                                 toric_ideal, weyl_normal_form)
from toric_dmod.weyl import WeylElement, tau, theta_dict_to_weyl, weyl_mul

HERE = pathlib.Path(__file__).parent


def _report(num, name, started, budget):
    elapsed = time.monotonic() - started
    print(f"\nACCEPTANCE {num} {name}: PASS ({elapsed:.2f}s)")
    assert elapsed < budget, f"criterion {num} exceeded {budget}s"


def _twist_box(gd):
    width = gd.class_group.free_rank
    return list(product(range(-2, 3), repeat=width))


def test_acceptance_1_twisted_char_ideals():
    started = time.monotonic()
    expected_dims = {"p1": 3, "p2": 5, "p1p1": 6, "hirzebruch1": 6}
    for name, fan in all_fixture_fans():
        gd = grading(fan)
        ring = s_prime_ring(gd)
        z_red = groebner_basis(list(z_ideal(gd)), ring)
        for coords in _twist_box(gd):
            j = characteristic_ideal(gd, d_module_left(gd, coords))
            assert j == z_red, (name, coords)
            assert krull_dimension(j, ring) == expected_dims[name]
    _report(1, "twisted-module characteristic ideals equal the quadric ideal",
            started, 10.0)


def test_acceptance_2_dimension_theorem():
    started = time.monotonic()
    for name, fan in all_fixture_fans():
        gd = grading(fan)
        d, n = gd.d, gd.n
        rep = dimension_report(gd, structure_sheaf(gd))
        assert (rep.dim, rep.sheaf_dim) == (d, n), name
        rep2 = dimension_report(gd, d_module_left(gd, gd.class_group.zero()))
        assert (rep2.dim, rep2.sheaf_dim) == (d + n, 2 * n), name
        rep3 = dimension_report(gd, delta_module(gd))
        assert rep3.torsion and rep3.sheaf_dim == ZERO_SHEAF, name
    _report(2, "module dimension vs sheaf dimension", started, 10.0)


def _random_theta_module(r, gd):
    """Quotient of a twisted module: its relations, random left multiples of
    them, and extra homogeneous relations."""
    width = gd.class_group.free_rank
    coords = tuple(r.randint(-2, 2) for _ in range(width))
    base = d_module_left(gd, coords)
    rows = list(base.relations)
    d = gd.d
    for row in list(base.relations)[: r.randint(1, 2)]:
        mult = random_homogeneous_weyl(r, gd, total=2)
        rows.append((weyl_mul(mult, row[0]),))
    for _ in range(r.randint(1, 2)):
        rows.append((random_homogeneous_weyl(r, gd, total=2),))
    return GradedPresentation(gd, "left", base.twists, rows)


def test_acceptance_3_char_variety_containment():
    started = time.monotonic()
    r = rng(50)
    for name, fan in all_fixture_fans():
        gd = grading(fan)
        for _ in range(20):
            pres = _random_theta_module(r, gd)
            assert check_theta_condition(pres)[0], name
            assert verify_char_containment(gd, pres), name
    _report(3, "characteristic varieties sit inside the quadric locus",
            started, 60.0)


def test_acceptance_4_local_isomorphism_data():
    started = time.monotonic()
    for name, fan in all_fixture_fans():
        gd = grading(fan)
        for cone in fan.max_cones:
            for p in product(range(-3, 4), repeat=fan.n):
                _, factors = h_p(gd, cone, p)
                assert i_p_matches_y_p(gd, cone, p, i_p_ideal(gd, cone, p)), \
                    (name, cone, p)
                assert factored_local_action_holds(gd, cone, p, factors, 6), \
                    (name, cone, p)
    _report(4, "chart eigenspace ideals and the action identity", started, 30.0)


def test_acceptance_5_weyl_identity_suite():
    started = time.monotonic()
    for r_exp in range(1, 7):
        lhs = WeylElement.monomial(1, (r_exp,), (r_exp,))
        rhs = WeylElement.monomial(1, (0,), (0,))
        for j in range(1, r_exp + 1):
            rhs = weyl_mul(rhs, WeylElement.monomial(1, (1,), (1,))
                           + WeylElement.monomial(1, (0,), (0,)).scale(-(j - 1)))
        assert lhs == rhs
    r = rng(51)
    for name, fan in all_fixture_fans():
        gd = grading(fan)
        group = gd.class_group
        d = gd.d
        one = WeylElement.monomial(d, (0,) * d, (0,) * d)
        for u, shift in zip(gd.dual_basis, gd.e_bar):
            th = WeylElement.zero(d)
            for i, c in enumerate(u):
                if c:
                    e = tuple(int(k == i) for k in range(d))
                    th = th + WeylElement.monomial(d, e, e, c)
            assert tau(th) == (-th) - one.scale(shift)
            assert tau(tau(th)) == th
        for _ in range(200):
            f = random_homogeneous_weyl(r, gd, total=2)
            deg = weyl_degree(gd, f)
            j = r.randrange(len(gd.dual_basis))
            b = tuple(r.randint(-2, 2) for _ in range(group.free_rank))
            assert bimodule_identity_check(gd, f, j, b, deg), name
            a = group.add(deg, group.neg(group.reduce(b)))
            assert left_right_identity_check(gd, f, j, a, b), name
    _report(5, "operator identity suite", started, 30.0)


def test_acceptance_6_nonzerodivisor():
    started = time.monotonic()
    r = rng(52)
    for name, fan in [pair for pair in all_fixture_fans()
                      if pair[0] in ("p1", "p2")]:
        gd = grading(fan)
        d = gd.d
        pres = d_module_left(gd, gd.class_group.zero())
        gb = pres.relation_gb()
        wring = PolyRing(tuple(f"th{i + 1}" for i in range(d)))
        l0_gens = []
        for u in gd.dual_basis:
            terms = {}
            for i, c in enumerate(u):
                if c:
                    terms[tuple(1 if j == i else 0 for j in range(d))] = Fraction(c)
            l0_gens.append(Poly(wring, terms))
        l0 = groebner_basis(l0_gens, wring)
        checked = 0
        while checked < 100:
            g = {}
            for _ in range(2):
                e = tuple(r.randint(0, 1) for _ in range(d))
                g[e] = g.get(e, Fraction(0)) + Fraction(r.randint(-3, 3))
            g = {e: c for e, c in g.items() if c}
            if not g or normal_form(Poly(wring, g), l0).is_zero():
                continue
            checked += 1
            a = tuple(r.randint(-2, 2) for _ in range(d))
            ap = tuple(max(x, 0) for x in a)
            am = tuple(max(-x, 0) for x in a)
            elt = weyl_mul(WeylElement.monomial(d, (1,) * d, (0,) * d),
                           weyl_mul(WeylElement.monomial(d, ap, am),
                                    theta_dict_to_weyl(d, g)))
            nf = weyl_normal_form((elt,), gb)
            assert not all(x.is_zero() for x in nf), (name, a, g)
    _report(6, "multiplication by the product of the variables is injective",
            started, 60.0)


def test_acceptance_7_groebner_vs_macaulay():
    started = time.monotonic()
    r = rng(53)
    for trial in range(10):
        nvars = r.choice((3, 3, 4))
        ring = PolyRing(tuple(f"z{i + 1}" for i in range(nvars)))
        gens = []
        target = r.randint(2, 3)
        while len(gens) < target:
            g = random_poly(r, ring, 2, 3)
            if not g.is_zero() and g.total_degree() >= 1:
                gens.append(g)
        gb = groebner_basis(gens, ring)
        oracle = MacaulayOracle(gens, ring, 8)
        candidates = []
        seen_exps = set()
        for e in product(range(5), repeat=nvars):
            if sum(e) <= 4 and e not in seen_exps:
                seen_exps.add(e)
                candidates.append(Poly.monomial(ring, e))
        for _ in range(10):
            combo = Poly.zero(ring)
            for g in gens:
                combo = combo + random_poly(r, ring, 2, 2) * g
            if combo.total_degree() <= 4:
                candidates.append(combo)
        for _ in range(10):
            candidates.append(random_poly(r, ring, 4, 3))
        for f in candidates:
            if f.is_zero():
                continue
            assert ideal_contains(gb, [f]) == oracle.member(f), (trial, format_poly(f))
    _report(7, "normal-form membership equals linear-algebra membership",
            started, 60.0)


def test_acceptance_8_chart_consistency():
    started = time.monotonic()
    for name, fan in [pair for pair in all_fixture_fans()
                      if pair[0] in ("p1", "p1p1")]:
        gd = grading(fan)
        for pres in (d_module_left(gd, gd.class_group.zero()),
                     structure_sheaf(gd)):
            # the D-module restricted to each chart, against the quotient side
            rep = dimension_report(gd, pres)
            restricted = assert_restriction_agrees(gd, pres, rep)
            assert not rep.torsion, name
            assert max(rc.dimension for rc in restricted) == rep.sheaf_dim \
                == rep.dim - (gd.d - gd.n), name
    gd = grading(dict(all_fixture_fans())["p1"])
    rep = dimension_report(gd, d_module_left(gd, (0,)))
    chart = chart_ideal_from_saturated(gd, rep.saturated, (0,))
    assert [format_poly(g) for g in chart.image_ideal] == ["t1*u1 + u2"]
    exponents = [xe + xie for xe, xie in chart_generators(gd, chart.cone)]
    assert toric_ideal(exponents, chart_ring(gd)) == []
    _report(8, "chart restrictions match the saturation computation", started, 30.0)


def test_acceptance_9_cli_golden_determinism():
    started = time.monotonic()
    fixtures = HERE / "fixtures"
    golden = HERE / "golden"
    zero = {"p1": "0", "p2": "0", "p1p1": "0,0", "hirzebruch1": "0,0"}

    def run(*args):
        proc = subprocess.run([sys.executable, "-m", "toric_dmod.cli", *args],
                              capture_output=True, text=True, env=cli_env())
        assert proc.returncode == 0, args
        return proc.stdout

    for name in ("p1", "p2", "p1p1", "hirzebruch1"):
        fan_path = str(fixtures / f"{name}.fan")
        mod_path = str(golden / f"{name}_dl0.mod")
        for golden_name, args in [
                (f"{name}_fan_info.txt", ("fan-info", fan_path)),
                (f"{name}_dl0.mod", ("dl", fan_path, zero[name])),
                (f"{name}_charvar_dl0.txt",
                 ("charvar", fan_path, mod_path, "--charts", "--saturate"))]:
            first = run(*args)
            second = run(*args)
            assert first == second, golden_name
            assert first == (golden / golden_name).read_text(), golden_name
    _report(9, "byte-identical reports across runs", started, 60.0)
