"""The seeded hard tier of module documents, and its frozen reference reports.

A hard-tier module is the twisted module D(0) of a fixture fan plus two
random homogeneous relations of total degree at most 2, 3 or 4, drawn in the
style of ``tests/helpers.random_homogeneous_weyl`` with a fixed salt. The
tier, one module per fan and degree, is drawn once and frozen in
``data/hard_tier.json`` together with the ``charvar --charts --saturate``
report of every module that finished within the freeze deadline. Modules that
did not finish keep no report. A module that did not finish within the
benchmark's per-job deadline is marked ``baseline_timeout``: it stays in the
tier as a baseline failure, run once per run and not timed.

Frozen reports are cross-checked when frozen, and a report that has no frozen
copy is checked at run time, by invariants that do not come from the code
under test:

* ``sympy.groebner`` of the reported characteristic ideal (and of the
  saturated ideal) is the reported reduced basis, in grevlex;
* every generator of the Z ideal lies in the radical of the characteristic
  ideal (``sympy``: 1 is in J + (1 - t z));
* the saturated ideal contains the characteristic ideal;
* the largest chart dimension is the sheaf dimension, and the holonomicity
  flags agree with the dimensions.

``sympy`` runs under a deadline and a check it cannot finish is reported as
skipped. Regenerate the frozen file with::

    python3 perfbench/hardtier.py --freeze
"""

from __future__ import annotations

import argparse
import io
import json
import pathlib
import random
import signal
import sys
import time
from contextlib import contextmanager, redirect_stdout
from fractions import Fraction
from itertools import product

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
DATA = HERE / "data" / "hard_tier.json"
FANS = ("p1", "p2", "p1p1", "hirzebruch1")
DEGREES = (2, 3, 4)
SALT = "hard-tier-0"
FREEZE_DEADLINE_S = 60.0
SYMPY_DEADLINE_S = 20.0


class CheckTimeout(BaseException):
    pass


@contextmanager
def deadline(seconds):
    """Raise CheckTimeout in the block after ``seconds``; the previous
    SIGALRM handler (the benchmark worker's job deadline) is restored."""
    def handler(signum, frame):
        raise CheckTimeout()
    previous = signal.signal(signal.SIGALRM, handler)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# module documents


def weyl_text(terms) -> str:
    """Render [(coefficient, a, b)] as an expression the CLI parses."""
    out = []
    for coeff, a, b in terms:
        c = Fraction(coeff)
        mono = [f"x{i + 1}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(a) if e]
        mono += [f"d{i + 1}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(b) if e]
        mag = abs(c)
        parts = ([] if mag == 1 and mono else [str(mag)]) + mono
        body = "*".join(parts)
        if not out:
            out.append(("-" if c < 0 else "") + body)
        else:
            out.append((" - " if c < 0 else " + ") + body)
    return "".join(out) if out else "0"


def tier_document(entry, scales=None) -> str:
    rows = []
    for k, terms in enumerate(entry["relations"]):
        s = Fraction(1) if scales is None else scales[k]
        rows.append([weyl_text([(Fraction(c) * s, a, b) for c, a, b in terms])])
    return ('side = "left"\n'
            f"generator_degrees = {json.dumps([entry['class']])}\n"
            f"relations = {json.dumps(rows)}\n")


def _random_homogeneous(r: random.Random, gd, total: int, nterms: int = 2):
    """Monomials sharing one class-group degree, random coefficients."""
    d = gd.d
    group = gd.class_group
    buckets: dict = {}
    for a in product(range(total + 1), repeat=d):
        if sum(a) > total:
            continue
        for b in product(range(total + 1 - sum(a)), repeat=d):
            cls = group.add(group.project(a), group.neg(group.project(b)))
            buckets.setdefault(cls, []).append((a, b))
    pool = buckets[r.choice(sorted(buckets))]
    terms: dict = {}
    for _ in range(nterms):
        a, b = pool[r.randrange(len(pool))]
        c = r.randint(-3, 3)
        if c:
            terms[(a, b)] = terms.get((a, b), 0) + c
    terms = {k: c for k, c in terms.items() if c}
    if not terms:
        terms[pool[0]] = 1
    return [[str(c), list(a), list(b)] for (a, b), c in sorted(terms.items())]


def draw_tier(salt: str = SALT) -> list[dict]:
    from toric_dmod.cli import load_fan
    from toric_dmod.dmod import d_module_left
    from toric_dmod.fan_cox import grading_data
    tier = []
    for name in FANS:
        gd = grading_data(load_fan(str(ROOT / "tests" / "fixtures" / f"{name}.fan")))
        zero = list(gd.class_group.zero())
        base = [[[str(c), list(a), list(b)] for (a, b), c in sorted(row[0].terms.items())]
                for row in d_module_left(gd, tuple(zero)).relations]
        for deg in DEGREES:
            r = random.Random(f"{salt}/{name}/{deg}")
            extra = [_random_homogeneous(r, gd, deg) for _ in range(2)]
            tier.append({"fan": name, "degree": deg, "class": zero,
                         "relations": base + extra})
    return tier


# invariant checks


def parse_report(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        key, _, value = line.partition(": ")
        out[key] = value
    return out


def ideal_generators(value: str) -> list[str]:
    inner = value.strip()[1:-1]
    return [] if inner == "0" else [g.strip() for g in inner.split(",")]


def invariant_problems(report_text: str, d: int, n: int,
                       dual_basis) -> tuple[list[str], bool]:
    """Problems found in a charvar report by checks independent of the code
    under test, and whether the sympy checks finished within their deadline
    (they are skipped otherwise)."""
    rep = parse_report(report_text)
    problems = []
    try:
        dim, sheaf = rep["dim"], rep["sheaf-dim"]
        torsion = rep["torsion"] == "yes"
        chart_dims = [v for k, v in rep.items() if k.startswith("chart-") and k.endswith("-dim")]
        char_gens = ideal_generators(rep["char-ideal"])
        sat_gens = ideal_generators(rep["saturated"])
    except KeyError as exc:
        return [f"report lacks line {exc}"], False
    if rep["holonomic-module"] != ("yes" if dim == str(d) else "no"):
        problems.append("holonomic-module flag disagrees with dim")
    if rep["holonomic-sheaf"] != ("yes" if not torsion and sheaf == str(n) else "no"):
        problems.append("holonomic-sheaf flag disagrees with sheaf-dim")
    finite = [int(v) for v in chart_dims if v != "empty"]
    if torsion:
        if finite or sheaf != "zero sheaf":
            problems.append("torsion module with a nonempty chart")
    elif not finite or str(max(finite)) != sheaf:
        problems.append(f"max chart dim {max(finite) if finite else None} != sheaf-dim {sheaf}")

    try:
        with deadline(SYMPY_DEADLINE_S):
            problems += _sympy_problems(d, char_gens, sat_gens, dual_basis)
    except CheckTimeout:
        return problems, False
    return problems, True


def _sympy_problems(d, char_gens, sat_gens, dual_basis) -> list[str]:
    import sympy
    xs = sympy.symbols(" ".join(f"x{i + 1}" for i in range(d)), seq=True)
    xis = sympy.symbols(" ".join(f"xi{i + 1}" for i in range(d)), seq=True)
    gens = tuple(xs) + tuple(xis)
    names = {str(s): s for s in gens}

    def parse(text):
        return sympy.sympify(text.replace("^", "**"), locals=names)

    def grevlex(exprs):
        return sympy.groebner(exprs, *gens, order="grevlex")

    def monic_set(exprs):
        return {sympy.Poly(e, *gens).monic().as_expr() for e in exprs}

    problems = []
    j = [parse(g) for g in char_gens]
    sat = [parse(g) for g in sat_gens]
    if j and monic_set(grevlex(j).exprs) != monic_set(j):
        problems.append("char-ideal is not sympy's reduced grevlex basis")
    if sat:
        gsat = grevlex(sat)
        if monic_set(gsat.exprs) != monic_set(sat):
            problems.append("saturated is not sympy's reduced grevlex basis")
        if any(not gsat.contains(e) for e in j):
            problems.append("saturated ideal does not contain the char ideal")
    t = sympy.Symbol("t_")
    for u in dual_basis:
        z = sum(c * xs[i] * xis[i] for i, c in enumerate(u) if c)
        radical = sympy.groebner(j + [1 - t * z], t, *gens, order="grevlex")
        if list(radical.exprs) != [1]:
            problems.append(f"Z generator {z} is not in the radical of J")
    return problems


# freezing


def run_charvar(fan_path: str, doc_path: str) -> str:
    from toric_dmod.cli import main
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = main(["charvar", fan_path, doc_path, "--charts", "--saturate"])
    if rc != 0:
        raise RuntimeError(f"charvar exited {rc}")
    return buf.getvalue()


def freeze(out_dir: pathlib.Path):
    from toric_dmod.cli import load_fan
    from toric_dmod.fan_cox import grading_data
    from workloads import DEADLINE_S
    out_dir.mkdir(parents=True, exist_ok=True)
    tier = draw_tier()
    for k, entry in enumerate(tier):
        fan_path = str(ROOT / "tests" / "fixtures" / f"{entry['fan']}.fan")
        doc = out_dir / f"tier{k}.mod"
        doc.write_text(tier_document(entry))
        started = time.perf_counter()
        try:
            with deadline(FREEZE_DEADLINE_S):
                report = run_charvar(fan_path, str(doc))
        except CheckTimeout:
            report = None
        elapsed = time.perf_counter() - started
        entry["freeze_seconds"] = round(elapsed, 3)
        entry["report"] = report
        entry["baseline_timeout"] = report is None or elapsed > DEADLINE_S
        status = "timeout" if report is None else "ok"
        if report is not None:
            gd = grading_data(load_fan(fan_path))
            problems, entry["sympy_checked"] = invariant_problems(
                report, gd.d, gd.n, gd.dual_basis)
            if problems:
                raise SystemExit(f"tier {k} ({entry['fan']}, degree {entry['degree']}): "
                                 + "; ".join(problems))
        print(f"tier {k} {entry['fan']} degree {entry['degree']}: {status} "
              f"({elapsed:.2f}s)", flush=True)
    DATA.parent.mkdir(parents=True, exist_ok=True)
    DATA.write_text(json.dumps({"salt": SALT, "freeze_deadline_s": FREEZE_DEADLINE_S,
                                "tier": tier}, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--freeze", action="store_true",
                        help="draw the tier, run it, check and write data/hard_tier.json")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    if args.freeze:
        freeze(ROOT / ".perfbench_out" / "freeze")
        return 0
    parser.print_help()
    return 2


if __name__ == "__main__":
    sys.exit(main())
