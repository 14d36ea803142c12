"""The four workloads: their job sets, generated from the seed, and the
reference each output is checked against.

A job is a call through a public entry point of ``toric_dmod``: ``cli.main``
with a command line, or a library function. Library functions are looked up
on their module at call time, so that the tracer's wrappers are seen. Every
reference comes from outside the code under test: the golden files, answers
known by construction, closed forms, or the frozen hard-tier reports (checked
by sympy and invariants when frozen).
"""

from __future__ import annotations

import ast
import io
import json
import pathlib
import random
from contextlib import redirect_stdout
from fractions import Fraction

import hardtier

FANS = ("p1", "p2", "p1p1", "hirzebruch1")
ZERO = {"p1": "0", "p2": "0", "p1p1": "0,0", "hirzebruch1": "0,0"}

# why each workload exists; printed with every run record
WHY = {
    "cli_fixtures": "the 14 golden CLI commands a user types; per-call overhead "
                    "in cli, parsing, lattice and fan_cox dominates",
    "charvar_hard": "charvar --charts --saturate on the frozen hard tier; "
                    "Weyl Buchberger and the irrelevant-ideal saturation dominate",
    "nf_queries": "membership queries against bases built in set-up; the read "
                  "side of groebner (normal forms), no basis builds while timed",
    "local_sweep": "local with and without --g and the factored action check "
                   "at growing |p|; brute-force oracles and Fraction arithmetic, "
                   "no Groebner work",
}

# per-job deadline, in seconds at the reference speed (see worker.SpeedProbe)
DEADLINE_S = 10.0
# a second pass of charvar_hard (its baseline timeouts are not rerun) halves
# the variance of its per-job times, which drift with the machine within a job
MIN_PASSES = {"charvar_hard": 2}


class Job:
    __slots__ = ("name", "run", "check", "baseline_timeout")

    def __init__(self, name, run, check, baseline_timeout=False):
        self.name = name
        self.run = run          # () -> output
        self.check = check      # output -> None, or a message when wrong
        # passed the deadline at the commit the tier was frozen at: run once,
        # not timed; any other job that passes the deadline fails the run
        self.baseline_timeout = baseline_timeout


def _read_doc(path: pathlib.Path) -> dict:
    """key = value lines with Python literals, enough for the fixture fans;
    the closed forms read the rays here, not through the parser under test."""
    doc, key, buf = {}, None, ""
    for line in path.read_text().splitlines():
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if key is None:
            key, _, buf = (s.strip() for s in text.partition("="))
        else:
            buf += " " + text
        if buf.count("[") == buf.count("]"):
            doc[key] = ast.literal_eval(buf)
            key, buf = None, ""
    return doc


def _cli(argv):
    from toric_dmod import cli

    def run():
        out = io.StringIO()
        with redirect_stdout(out):
            rc = cli.main(list(argv))
        return rc, out.getvalue()
    return run


def _expect_text(expected: str):
    def check(output):
        rc, text = output
        if rc != 0:
            return f"exit code {rc}"
        if text != expected:
            return "stdout differs from the reference"
        return None
    return check


# cli_fixtures


def cli_fixtures(root: pathlib.Path, seed: int, scratch: pathlib.Path) -> list[Job]:
    fixtures, golden = root / "tests" / "fixtures", root / "tests" / "golden"
    specs = []
    for name in FANS:
        fan = str(fixtures / f"{name}.fan")
        specs.append((f"{name}_fan_info.txt", ["fan-info", fan]))
        specs.append((f"{name}_dl0.mod", ["dl", fan, ZERO[name]]))
        specs.append((f"{name}_charvar_dl0.txt",
                      ["charvar", fan, str(golden / f"{name}_dl0.mod"),
                       "--charts", "--saturate"]))
    specs.append(("p1_local.txt", ["local", str(fixtures / "p1.fan"), "--cone", "1",
                                   "--p=-1"]))
    specs.append(("p1_swap_dl0.mod", ["swap", str(fixtures / "p1.fan"),
                                      str(golden / "p1_dl0.mod")]))
    random.Random(seed).shuffle(specs)
    return [Job(gname, _cli(argv), _expect_text((golden / gname).read_text()))
            for gname, argv in specs]


# charvar_hard


def charvar_hard(root: pathlib.Path, seed: int, scratch: pathlib.Path) -> list[Job]:
    """The frozen tier. The seed rescales every relation by a nonzero rational
    (the module, hence the reduced report, is unchanged) and orders the jobs."""
    from toric_dmod import cli, fan_cox
    tier = json.loads(hardtier.DATA.read_text())["tier"]
    r = random.Random(seed)
    jobs = []
    for k, entry in enumerate(tier):
        scales = [Fraction(r.choice((-1, 1)) * r.randint(1, 7), r.randint(1, 7))
                  for _ in entry["relations"]]
        doc = scratch / f"tier{k}.mod"
        doc.write_text(hardtier.tier_document(entry, scales))
        fan = str(root / "tests" / "fixtures" / f"{entry['fan']}.fan")
        argv = ["charvar", fan, str(doc), "--charts", "--saturate"]
        if entry["report"] is not None:
            check = _expect_text(entry["report"])
        else:
            gd = fan_cox.grading_data(cli.load_fan(fan))
            check = _invariant_check(gd.d, gd.n, [tuple(u) for u in gd.dual_basis])
        jobs.append(Job(f"tier{k}_{entry['fan']}_deg{entry['degree']}",
                        _cli(argv), check, entry["baseline_timeout"]))
    r.shuffle(jobs)
    return jobs


def _invariant_check(d, n, dual_basis):
    verdicts: dict = {}

    def check(output):
        rc, text = output
        if rc != 0:
            return f"exit code {rc}"
        if text not in verdicts:
            problems, _ = hardtier.invariant_problems(text, d, n, dual_basis)
            verdicts[text] = "; ".join(problems) or None
        return verdicts[text]
    return check


# nf_queries


def _point_value(terms: dict, point) -> Fraction:
    total = Fraction(0)
    for e, c in terms.items():
        v = Fraction(c)
        for x, k in zip(point, e):
            v *= Fraction(x) ** k
        total += v
    return total


def _answer(expected: bool):
    def check(output):
        return None if output is expected else f"answered {output}, expected {expected}"
    return check


def nf_queries(root: pathlib.Path, seed: int, scratch: pathlib.Path) -> list[Job]:
    """Membership queries against bases that set-up builds or loads.

    Weyl side (``contains_relation``), per fixture fan, against the filtered
    basis of the twisted module D(0) built in set-up: members are random left
    combinations of the relations; non-members are x1...xd x^a d^b g(theta)
    with g outside L0, certified by a point of V(L0) where g does not vanish,
    which the nonzerodivisor statement gives as False.

    Commutative side (``normal_form``): against the saturated ideal of D(0)
    built in set-up, members are random combinations of the basis and
    non-members add c*m for a monomial m, certified by a point of V(saturated)
    off the irrelevant locus where m does not vanish. Against the saturated
    ideals of the frozen hard-tier reports that are proper, members are
    random combinations of four basis elements and non-members add a nonzero
    constant.

    Supports (exponents, basis elements, a) come from a fixed salt, so a pass
    costs about the same for every seed; the seed draws the coefficients and
    the job order.
    """
    from toric_dmod import charvar, cli, dmod, fan_cox, groebner, parsing, weyl
    r = random.Random(seed)
    salted = random.Random("nf-queries-0")
    coeff = (-3, -2, -1, 1, 2, 3)
    jobs = []
    gradings = {}

    def combination(ring, basis, count, degree):
        f = groebner.Poly.zero(ring)
        for s in (basis if count is None else salted.sample(basis, min(count, len(basis)))):
            h = {}
            for _ in range(3):
                e = tuple(salted.randint(0, degree) if salted.random() < 0.4 else 0
                          for _ in range(ring.nvars))
                h[e] = Fraction(r.choice(coeff))
            f = f + groebner.Poly(ring, h) * s
        return f

    for name in FANS:
        fan_path = root / "tests" / "fixtures" / f"{name}.fan"
        rays = _read_doc(fan_path)["rays"]
        gd = gradings[name] = fan_cox.grading_data(cli.load_fan(str(fan_path)))
        d, n = gd.d, gd.n
        pres = dmod.d_module_left(gd, gd.class_group.zero())
        pres.relation_gb()
        saturated = charvar.dimension_report(gd, pres).saturated
        ring = charvar.s_prime_ring(gd)

        def rand_weyl(deg=3, nterms=3):
            terms = {}
            for _ in range(nterms):
                a = tuple(salted.randint(0, deg) for _ in range(d))
                b = tuple(salted.randint(0, deg) for _ in range(d))
                terms[(a, b)] = Fraction(r.choice(coeff))
            return weyl.WeylElement(d, terms)

        def torus_point():
            # theta_i = <m, v_i> with every coordinate nonzero
            while True:
                m = [r.randint(-4, 4) for _ in range(n)]
                y = [sum(a * b for a, b in zip(m, v)) for v in rays]
                if all(y):
                    return y

        for _ in range(8):
            elt = weyl.WeylElement.zero(d)
            for row in pres.relations:
                elt = elt + weyl.weyl_mul(rand_weyl(), row[0])
            jobs.append(Job(f"{name}_weyl_member", _contains(pres, elt), _answer(True)))
        for _ in range(8):
            support = {tuple(salted.randint(0, 2) for _ in range(d)) for _ in range(3)}
            while True:
                g = {e: Fraction(r.choice(coeff)) for e in sorted(support)}
                if any(_point_value(g, torus_point()) for _ in range(4)):
                    break
            a = [salted.randint(-3, 3) for _ in range(d)]
            elt = weyl.weyl_mul(
                weyl.WeylElement.monomial(d, (1,) * d, (0,) * d),
                weyl.weyl_mul(weyl.WeylElement.monomial(
                    d, tuple(max(x, 0) for x in a), tuple(max(-x, 0) for x in a)),
                    weyl.theta_dict_to_weyl(d, g)))
            jobs.append(Job(f"{name}_weyl_nonmember", _contains(pres, elt),
                            _answer(False)))

        while True:
            point = [1] * d + torus_point()
            if not any(_point_value(s.terms, point) for s in saturated):
                break
        for k in range(8):
            f = combination(ring, saturated, None, 3)
            member = k % 2 == 0
            if not member:
                e = tuple(salted.randint(0, 2) for _ in range(2 * d))
                f = f + groebner.Poly.monomial(ring, e, r.choice((-2, -1, 1, 2)))
                if _point_value(f.terms, point) == 0:
                    raise RuntimeError("non-member certificate failed")
            jobs.append(Job(f"{name}_nf_{'member' if member else 'nonmember'}",
                            _in_ideal(f, saturated), _answer(member)))

    for k, entry in enumerate(json.loads(hardtier.DATA.read_text())["tier"]):
        report = hardtier.parse_report(entry["report"] or "")
        if report.get("torsion") != "no":
            continue
        ring = charvar.s_prime_ring(gradings[entry["fan"]])
        index = {nm: i for i, nm in enumerate(ring.names)}
        basis = []
        for text in hardtier.ideal_generators(report["saturated"]):
            terms = {}
            for c, vars_ in parsing.parse_terms(text):
                e = [0] * ring.nvars
                for prefix, idx, exp in vars_:
                    e[index[f"{prefix}{idx}"]] += exp
                terms[tuple(e)] = c
            basis.append(groebner.Poly(ring, terms))
        for q in range(8):
            f = combination(ring, basis, 4, 2)
            member = q % 2 == 0
            if not member:
                f = f + groebner.Poly.constant(ring, r.choice((-2, -1, 1, 2)))
            jobs.append(Job(f"tier{k}_nf_{'member' if member else 'nonmember'}",
                            _in_ideal(f, basis), _answer(member)))
    r.shuffle(jobs)
    return jobs


def _contains(pres, elt):
    def run():
        return pres.contains_relation((elt,))
    return run


def _in_ideal(f, basis):
    from toric_dmod import groebner

    def run():
        return groebner.normal_form(f, basis).is_zero()
    return run


# local_sweep

LOCAL_LEVELS = {"p1": (12, 24, 48), "p2": (4, 7, 10), "p1p1": (4, 7, 10),
                "hirzebruch1": (4, 7, 10)}


def _closed_form(rays, cone, p):
    iota = [sum(a * b for a, b in zip(p, v)) for v in rays]
    factors = [(i, m) for i in cone for m in range(0, -iota[i])]
    return iota, sorted(factors)


def _factors_text(factors) -> str:
    if not factors:
        return "1"
    return " * ".join(f"(th{i + 1} - {m})" if m else f"th{i + 1}" for i, m in factors)


def _expand(d, factors, extra):
    """Coefficients of prod (th_i - m) * extra, as a th-expression string."""
    poly = {(0,) * d: Fraction(1)}
    for lin in [{tuple(int(k == i) for k in range(d)): Fraction(1),
                 (0,) * d: Fraction(-m)} for i, m in factors] + [extra]:
        out: dict = {}
        for e1, c1 in poly.items():
            for e2, c2 in lin.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        poly = {e: c for e, c in out.items() if c}
    terms = []
    for e, c in sorted(poly.items(), reverse=True):
        mono = "*".join(f"th{i + 1}^{k}" if k > 1 else f"th{i + 1}"
                        for i, k in enumerate(e) if k)
        body = "*".join(x for x in (str(abs(c)) if abs(c) != 1 or not mono else "", mono) if x)
        terms.append(("-" if c < 0 else "+", body))
    text = "".join(f" {s} {b}" for s, b in terms).strip()
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def local_sweep(root: pathlib.Path, seed: int, scratch: pathlib.Path) -> list[Job]:
    """Per fixture fan and level R, draws of a maximal cone and a lattice
    point p with max_i |<p, v_i>| = R and R factors in h_p; three jobs each:
    ``local``, ``local --g`` with g = h_p * (th_j + c), and
    ``factored_local_action_holds``.

    The cost of a draw depends strongly on how its factors fall on the rays,
    so cones and points come from a fixed salt and a pass costs the same for
    every seed; the seed draws j and c in g and the job order.
    """
    from toric_dmod import cli, fan_cox
    r = random.Random(seed)
    salted = random.Random("local-sweep-0")
    jobs = []
    for name in FANS:
        fan_path = root / "tests" / "fixtures" / f"{name}.fan"
        doc = _read_doc(fan_path)
        rays, cones = doc["rays"], doc["max_cones"]
        n, d = doc["n"], len(rays)
        gd = fan_cox.grading_data(cli.load_fan(str(fan_path)))
        for level in LOCAL_LEVELS[name]:
            while True:
                cone = sorted(i - 1 for i in salted.choice(cones))
                p = [salted.randint(-level, level) for _ in range(n)]
                iota, factors = _closed_form(rays, cone, p)
                if max(abs(v) for v in iota) == level and len(factors) == level:
                    break
            cone_arg = ",".join(str(i + 1) for i in cone)
            p_arg = ",".join(map(str, p))
            base = ["local", str(fan_path), "--cone", cone_arg, f"--p={p_arg}"]
            lines = {
                "iota-p": json.dumps(iota),
                "h_p-factors": _factors_text(factors),
                "oracle": "AGREE",
                "y_p-vanishing": "AGREE",
                "inclusive-bound-variant": "AGREE" if all(iota[i] > 0 for i in cone)
                else "DISAGREE (off-by-one)",
            }
            j = r.randrange(d)
            g = _expand(d, factors, {tuple(int(k == j) for k in range(d)): Fraction(1),
                                     (0,) * d: Fraction(r.randint(1, 5))})
            g_lines = dict(lines)
            g_lines["g-image"] = f"({p_arg};"
            jobs.append(Job(f"{name}_local_R{level}", _cli(base), _local_check(lines)))
            jobs.append(Job(f"{name}_local_g_R{level}", _cli(base + ["--g", g]),
                            _local_check(g_lines)))
            radius = level + 1
            jobs.append(Job(f"{name}_action_R{level}",
                            _action(gd, tuple(cone), tuple(p), factors, radius),
                            _answer(True)))
    r.shuffle(jobs)
    return jobs


def _local_check(expected: dict):
    def check(output):
        rc, text = output
        if rc != 0:
            return f"exit code {rc}"
        got = hardtier.parse_report(text)
        for key, want in expected.items():
            value = got.get(key)
            ok = value is not None and (value.startswith(want) if key == "g-image"
                                        else value == want)
            if not ok:
                return f"{key}: {value!r}, expected {want!r}"
        return None
    return check


def _action(gd, cone, p, factors, radius):
    from toric_dmod import dmod

    def run():
        return dmod.factored_local_action_holds(gd, cone, p, factors, radius)
    return run


BUILDERS = {"cli_fixtures": cli_fixtures, "charvar_hard": charvar_hard,
            "nf_queries": nf_queries, "local_sweep": local_sweep}
