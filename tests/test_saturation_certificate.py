"""The certified saturation at the irrelevant ideal: the chart certificate
against saturation_by_monomials, its rejections, the fallback, the proof
from the leading ideal that J is already saturated, the number of
eliminations one report does, and a report that needs none."""

import json
import sys

import pytest

from helpers import (PERFBENCH, all_fixture_fans, cpu_time_limit, delta_module,
                     fan_hirzebruch1, fan_p1, fan_p1p1, fan_torsion, grading, load_perfbench,
                     random_homogeneous_weyl, rng, structure_sheaf)
from toric_dmod import charvar, cli, groebner
from toric_dmod.cli import load_fan, load_module
from toric_dmod.charvar import (ZERO_SHEAF, certify_saturation, characteristic_ideal,
                                chart_ideal_from_saturated, chart_ring, dimension_report,
                                generic_irrelevant_element, s_prime_ring,
                                t_invariance_check)
from toric_dmod.dmod import GradedPresentation, d_module_left
from toric_dmod.fan_cox import irrelevant_ideal
from toric_dmod.groebner import (Poly, basis_dimension, groebner_basis, is_unit_ideal,
                                 regular_monomial, saturation, saturation_by_monomials)

FIXTURES = PERFBENCH.parent / "tests" / "fixtures"


def random_module(r, gd):
    """D(0) with two more random homogeneous relations, as in the hard tier."""
    base = d_module_left(gd, gd.class_group.zero())
    rows = list(base.relations) + [(random_homogeneous_weyl(r, gd, total=2),)
                                   for _ in range(2)]
    return GradedPresentation(gd, "left", base.twists, rows)


def b_exponents(gd):
    return [g + (0,) * gd.d for g in irrelevant_ideal(gd.fan)]


def certify(gd, j, candidate):
    charts = [chart_ideal_from_saturated(gd, j, cone) for cone in gd.fan.max_cones]
    return certify_saturation(gd, charts, candidate)


def test_certificate_agrees_with_saturation_by_monomials():
    r = rng(90)
    cases = []
    for name, fan in all_fixture_fans():
        gd = grading(fan)
        mods = [structure_sheaf(gd), d_module_left(gd, gd.class_group.zero()),
                delta_module(gd)] + [random_module(r, gd) for _ in range(2)]
        cases += [(name, gd, pres) for pres in mods]
    moved = 0
    for name, gd, pres in cases:
        ring = s_prime_ring(gd)
        j = characteristic_ideal(gd, pres)
        truth = saturation_by_monomials(j, b_exponents(gd), ring)
        candidate = saturation(j, generic_irrelevant_element(b_exponents(gd), ring), ring)
        # the candidate always contains the truth; the certificate is exact
        assert certify(gd, j, candidate) == (candidate == truth), name
        assert certify(gd, j, truth), name
        report = dimension_report(gd, pres)
        assert report.saturated == truth, name
        # torsion and sheaf-dim come from the chart images; they are those
        # of the saturation
        torsion = is_unit_ideal(truth)
        assert report.torsion == torsion, name
        assert report.sheaf_dim == (ZERO_SHEAF if torsion else
                                    basis_dimension(truth, ring) - (gd.d - gd.n)), name
        moved += truth != j
    # the torsion module on every fan, at least, is moved by the saturation
    assert moved >= 4


def test_certificate_rejects_a_single_cone_saturation():
    # J = x_k * J(D(0)): saturating at one x^sigma-hat that x_k divides
    # removes the factor, which J : b^infinity keeps
    rejected = 0
    for name, fan in all_fixture_fans():
        gd = grading(fan)
        ring = s_prime_ring(gd)
        base = characteristic_ideal(gd, d_module_left(gd, gd.class_group.zero()))
        for k in range(gd.d):
            xk = Poly.variable(ring, k)
            j = groebner_basis([xk * g for g in base], ring)
            truth = saturation_by_monomials(j, b_exponents(gd), ring)
            for mono in b_exponents(gd):
                candidate = saturation(j, Poly.monomial(ring, mono), ring)
                assert certify(gd, j, candidate) == (candidate == truth), (name, k, mono)
                rejected += candidate != truth
    assert rejected > 0
    # the smallest case, spelled out: on P1, x2*(x1*xi1 + x2*xi2) : x2^infinity
    gd = grading(fan_p1())
    ring = s_prime_ring(gd)
    x1, x2, xi1, xi2 = (Poly.variable(ring, i) for i in range(4))
    j = groebner_basis([x2 * (x1 * xi1 + x2 * xi2)], ring)
    candidate = saturation(j, x2, ring)
    assert candidate == groebner_basis([x1 * xi1 + x2 * xi2], ring)
    assert saturation_by_monomials(j, b_exponents(gd), ring) == j
    assert not certify(gd, j, candidate)


def test_certificate_rejects_an_inhomogeneous_candidate():
    gd = grading(fan_p1())
    ring = s_prime_ring(gd)
    j = characteristic_ideal(gd, d_module_left(gd, (0,)))
    x1, xi2 = Poly.variable(ring, 0), Poly.variable(ring, 3)
    assert not certify(gd, j, groebner_basis(j + [x1 + xi2], ring))


def _count_calls(monkeypatch, module, name, counts):
    real = getattr(module, name)

    def counted(*args):
        counts[name] = counts.get(name, 0) + 1
        return real(*args)

    monkeypatch.setattr(module, name, counted)


def test_every_chart_rewrite_input_is_class_homogeneous(monkeypatch):
    # the chart rewrite sets x_i = 1 off the cone, which is the chart image
    # only for a class-homogeneous generator: J, the reduced bases of
    # homogeneous ideals, and a candidate once t_invariance_check passed
    r = rng(92)
    seen, counts = [], {}
    real = charvar._chart_generators

    def spy(ring, cone, gens):
        seen.append(list(gens))
        return real(ring, cone, gens)

    monkeypatch.setattr(charvar, "_chart_generators", spy)
    _count_calls(monkeypatch, charvar, "certify_saturation", counts)
    for _, fan in all_fixture_fans():
        gd = grading(fan)
        mods = [structure_sheaf(gd), d_module_left(gd, gd.class_group.zero()),
                delta_module(gd)] + [random_module(r, gd) for _ in range(2)]
        for pres in mods:
            seen.clear()
            assert dimension_report(gd, pres).saturated is not None
            assert len(seen) >= len(fan.max_cones)
            for gens in seen:
                assert t_invariance_check(gens, gd)
    # some reports rewrite a candidate for the certificate, not only J
    assert counts["certify_saturation"] >= 1
    # a zero generator rewrites to zero in the chart ring
    gd = grading(fan_p1())
    ring = chart_ring(gd)
    assert real(ring, (0,), [Poly.zero(s_prime_ring(gd))]) == [Poly.zero(ring)]


def test_fallback_when_the_certificate_fails(monkeypatch):
    r = rng(91)
    cases = []
    for _, fan in all_fixture_fans():
        gd = grading(fan)
        cases += [(gd, delta_module(gd)), (gd, random_module(r, gd))]
    expected = [dimension_report(gd, pres) for gd, pres in cases]
    # saturated is computed when first read: read it with the real certificate
    for want in expected:
        assert want.saturated is not None
    counts = {}
    monkeypatch.setattr(charvar, "certify_saturation", lambda *args: False)
    _count_calls(monkeypatch, charvar, "saturation_by_monomials", counts)
    for (gd, pres), want in zip(cases, expected):
        ring = s_prime_ring(gd)
        j = characteristic_ideal(gd, pres)
        got = dimension_report(gd, pres)
        assert got.saturated == saturation_by_monomials(j, b_exponents(gd), ring)
        assert got.saturated == want.saturated
        assert (got.torsion, got.sheaf_dim) == (want.torsion, want.sheaf_dim)
        assert [c.image_ideal for c in got.charts] == [c.image_ideal for c in want.charts]
    # the delta module is always moved by the saturation, so it falls back
    assert counts["saturation_by_monomials"] >= 4


def test_fallback_without_a_full_dimensional_cone(monkeypatch):
    gd = grading(fan_torsion())
    assert any(len(cone) != gd.n for cone in gd.fan.max_cones)

    def no_certificate(*args):
        raise AssertionError("certificate used without charts")

    def no_proof(*args):
        raise AssertionError("leading-ideal proof used without charts")

    calls = []

    def counted(*args):
        calls.append(args)
        return saturation_by_monomials(*args)

    monkeypatch.setattr(charvar, "certify_saturation", no_certificate)
    monkeypatch.setattr(charvar, "regular_monomial", no_proof)
    monkeypatch.setattr(charvar, "saturation_by_monomials", counted)
    ring = s_prime_ring(gd)
    b = b_exponents(gd)
    # regular_monomial holds for D(0) and O here and never for delta; without
    # charts every one of them takes the fallback, once, while the report is built
    for pres in (d_module_left(gd, gd.class_group.zero()), structure_sheaf(gd),
                 delta_module(gd)):
        j = characteristic_ideal(gd, pres)
        calls.clear()
        report = dimension_report(gd, pres)
        assert len(calls) == 1
        assert report.saturated == saturation_by_monomials(j, b, ring)
        assert len(calls) == 1
        assert report.charts is None


def test_a_regular_monomial_proves_j_saturated():
    # wherever J's leading ideal proves a generator of b regular modulo J,
    # J is its own saturation by both routes; it holds for O and D(0) on
    # every fan and never for the b-torsion delta
    r = rng(92)
    held = []
    for name, fan in all_fixture_fans() + [("torsion", fan_torsion())]:
        gd = grading(fan)
        ring = s_prime_ring(gd)
        b = b_exponents(gd)
        cases = [("O", structure_sheaf(gd)), ("D(0)", d_module_left(gd, gd.class_group.zero())),
                 ("delta", delta_module(gd))]
        if name != "torsion":
            cases += [("random", random_module(r, gd)) for _ in range(3)]
        for label, pres in cases:
            j = characteristic_ideal(gd, pres)
            if regular_monomial(j, b):
                assert saturation(j, generic_irrelevant_element(b, ring), ring) == j, \
                    (name, label)
                assert saturation_by_monomials(j, b, ring) == j, (name, label)
                held.append((name, label))
            else:
                assert label not in ("O", "D(0)"), name
        assert (name, "delta") not in held
    assert ("torsion", "O") in held and ("torsion", "D(0)") in held
    assert any(label == "random" for _, label in held)


def _tier_module(hardtier, entry, tmp_path):
    gd = grading(load_fan(str(FIXTURES / f"{entry['fan']}.fan")))
    doc = tmp_path / "tier.mod"
    doc.write_text(hardtier.tier_document(entry))
    return gd, load_module(str(doc), gd)


def test_regular_monomial_on_the_first_hard_tier_modules(monkeypatch, tmp_path):
    # the charvar_hard modules tier0-tier3 (perfbench/ is only read): the
    # leading ideal proves J saturated on tier0, tier1 and tier3, and J is
    # then its own saturation by both routes
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    hardtier = load_perfbench("hardtier")
    tier = json.loads(hardtier.DATA.read_text())["tier"]
    held = []
    for k, entry in enumerate(tier[:4]):
        gd, pres = _tier_module(hardtier, entry, tmp_path)
        ring = s_prime_ring(gd)
        b = b_exponents(gd)
        j = characteristic_ideal(gd, pres)
        if regular_monomial(j, b):
            assert saturation(j, generic_irrelevant_element(b, ring), ring) == j, k
            assert saturation_by_monomials(j, b, ring) == j, k
            held.append(k)
    assert held == [0, 1, 3]
    # tier2's J is saturated with no monomial witness: reading saturated
    # still eliminates once, and that candidate is J, so no certificate runs
    gd, pres = _tier_module(hardtier, tier[2], tmp_path)
    j = characteristic_ideal(gd, pres)
    candidates = []
    real = charvar.saturation

    def recorded(*args):
        candidates.append(real(*args))
        return candidates[-1]

    monkeypatch.setattr(charvar, "saturation", recorded)
    counts = {}
    _count_calls(monkeypatch, groebner, "eliminate_front", counts)
    _count_calls(monkeypatch, charvar, "certify_saturation", counts)
    assert dimension_report(gd, pres).saturated == j
    assert candidates == [j] and counts == {"eliminate_front": 1}


@pytest.mark.parametrize("fan", [fan_p1p1, fan_hirzebruch1])
def test_one_elimination_per_report(fan, monkeypatch):
    # the report itself eliminates nothing and tests no monomial; reading
    # saturated tests the generators of b once, then eliminates nothing for
    # D(0) and O, whose J its leading ideal proves saturated, and once for
    # delta; reading it again reuses the result
    gd = grading(fan())
    once = {"regular_monomial": 1}
    for pres, want in ((d_module_left(gd, gd.class_group.zero()), once),
                       (structure_sheaf(gd), once),
                       (delta_module(gd), {**once, "eliminate_front": 1})):
        pres.relation_gb()
        counts = {}
        for name in ("eliminate_front", "intersect_ideals", "saturation_by_monomials"):
            _count_calls(monkeypatch, groebner, name, counts)
        for name in ("saturation_by_monomials", "regular_monomial"):
            _count_calls(monkeypatch, charvar, name, counts)
        report = dimension_report(gd, pres)
        assert counts == {}
        assert report.saturated is report.saturated
        monkeypatch.undo()
        assert counts == want


STAR_FAN = """n = 2
rays = [[1, 0], [0, 1], [-1, -1], [0, -1], [1, -1]]
max_cones = [[1, 2], [1, 5], [2, 3], [3, 4], [4, 5]]
"""
STAR_MODULE = """side = "left"
generator_degrees = [[2, -2, 1]]
relations = [["x1*d1 + x2*d2 + x3*d3 + 2"], ["x2*d2 + x4*d4 - 2"],
             ["x1*d1 - x2*d2 - x5*d5 + 1"], ["-3*d1^2*d2*d3*d5"], ["-3*d2^2*d3^2*d4^2"]]
"""
# CPU seconds; the elimination J : f^infinity alone took over 30 s here
STAR_BOUND_S = 15


def test_star_reproducer_without_saturate_is_fast(tmp_path, monkeypatch, capsys):
    # the star subdivision of P2 and D(2,-2,1) plus two relations: charvar
    # without --saturate reads everything from the chart images of J and
    # does no elimination, within a CPU-time bound enforced by a timer
    (tmp_path / "star.fan").write_text(STAR_FAN)
    (tmp_path / "star.mod").write_text(STAR_MODULE)
    counts = {}
    _count_calls(monkeypatch, groebner, "eliminate_front", counts)

    with cpu_time_limit(STAR_BOUND_S, "charvar"):
        rc = cli.main(["charvar", str(tmp_path / "star.fan"), str(tmp_path / "star.mod"),
                       "--charts"])
    assert rc == 0 and counts == {}
    lines = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
    assert "saturated" not in lines
    assert [lines[key] for key in ("dim", "torsion", "sheaf-dim", "holonomic-module",
                                   "holonomic-sheaf")] == ["6", "no", "3", "no", "no"]
    assert [lines[f"chart-{c}-dim"] for c in ("1,2", "1,5", "2,3", "3,4", "4,5")] == \
        ["3"] * 5
