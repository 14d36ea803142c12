"""Command-line interface: fan reports, module documents and pipelines.

Exit codes: 0 success, 2 parse/usage error, 3 semantic validation error,
4 precondition violation or a failed internal check in a pipeline.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .errors import InhomogeneousInput, ParseError, ToricDmodError
from .fan_cox import (Fan, GradingData, euler_operators, grading_data,
                      irrelevant_ideal)
from .groebner import format_poly
from .parsing import format_terms
from .weyl import format_weyl, parse_weyl, parse_theta_poly, tp_format
from . import dmod
from . import charvar


# Everything before the first # outside quotes; a quote runs to the same
# quote character, or to the end of the line, with no escapes.
_CODE = re.compile(r"""(?:[^'"#]+|'[^']*'?|"[^"]*"?)*""")
# Python's literal parser refuses lists nested deeper than this
_MAX_NESTING = 200


def _strip_comment(line: str) -> str:
    return _CODE.match(line).group()


def _plain(value) -> bool:
    """Whether a json.loads result holds only ints (no bools), strings and
    lists, nested at most _MAX_NESTING deep. It walks one nesting level at a
    time, so a deep value cannot overflow the stack."""
    level = [value]
    for _ in range(_MAX_NESTING):
        inner = []
        for v in level:
            if type(v) is list:
                inner += v
            elif type(v) is not int and type(v) is not str:
                return False
        if not inner:
            return True
        level = inner
    return all(type(v) is int or type(v) is str for v in level)


def _value(text: str):
    """A document value as ast.literal_eval reads it. Text with no backslash
    (so no escape, where JSON and Python differ) goes through json.loads
    first, and a plain result is the same value literal_eval gives; any
    other result or text goes to literal_eval."""
    if "\\" not in text:
        try:
            value = json.loads(text)
        except (ValueError, RecursionError):
            pass
        else:
            if _plain(value):
                return value
    import ast      # only here: its import is a large part of the CLI's start-up
    return ast.literal_eval(text)


def read_document(path: str, keys) -> dict:
    """Key = value lines; values are Python-literal scalars/lists (read by
    _value), possibly spanning lines until brackets balance. Comments start
    with #. Each of keys must be given, once; any other key, the empty one
    included, is a ParseError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    doc: dict = {}
    pending_key = None
    pending_value = ""
    for lineno, line in enumerate(raw.splitlines(), 1):
        text = _strip_comment(line).strip()
        if not text and pending_key is None:
            continue
        if pending_key is None:
            if "=" not in text:
                raise ParseError(f"{path}:{lineno}: expected 'key = value'")
            key, value = text.split("=", 1)
            pending_key, pending_value = key.strip(), value.strip()
            if pending_key not in keys:
                raise ParseError(f"{path}:{lineno}: unknown key {pending_key!r} "
                                 f"(expected {', '.join(keys)})")
            if pending_key in doc:
                raise ParseError(f"{path}:{lineno}: key {pending_key!r} given twice")
        else:
            pending_value += " " + text
        if pending_value.count("[") == pending_value.count("]"):
            try:
                doc[pending_key] = _value(pending_value)
            # deeply nested values end in RecursionError or, in the
            # compiler, MemoryError
            except (ValueError, SyntaxError, RecursionError, MemoryError) as exc:
                raise ParseError(
                    f"{path}:{lineno}: bad value for {pending_key!r}: {exc}") from exc
            pending_key, pending_value = None, ""
    if pending_key is not None:
        raise ParseError(f"{path}: unterminated value for {pending_key!r}")
    for key in keys:
        if key not in doc:
            raise ParseError(f"{path}: missing key {key!r}")
    return doc


def _is_int(x) -> bool:
    """An int that is not a bool (bool is a subclass of int)."""
    return isinstance(x, int) and not isinstance(x, bool)


def load_fan(path: str) -> Fan:
    doc = read_document(path, ("n", "rays", "max_cones"))
    n, rays, cones = doc["n"], doc["rays"], doc["max_cones"]
    if not _is_int(n) or n <= 0:
        raise ParseError(f"{path}: n must be a positive integer")
    if not isinstance(rays, list) or not rays or \
            not all(isinstance(r, list) and all(map(_is_int, r)) for r in rays):
        raise ParseError(f"{path}: rays must be a nonempty list of integer vectors")
    if not isinstance(cones, list) or \
            not all(isinstance(c, list) and all(map(_is_int, c)) for c in cones):
        raise ParseError(f"{path}: max_cones must be a list of index lists")
    for c in cones:
        for i in c:
            if not 1 <= i <= len(rays):
                raise ParseError(f"{path}: cone index {i} out of range")
    return Fan(n, rays, [[i - 1 for i in c] for c in cones])


def load_module(path: str, grading: GradingData) -> dmod.GradedPresentation:
    doc = read_document(path, ("side", "generator_degrees", "relations"))
    side = doc["side"]
    if side not in ("left", "right"):
        raise ParseError(f"{path}: side must be 'left' or 'right'")
    degs = doc["generator_degrees"]
    group = grading.class_group
    width = group.free_rank + len(group.torsion_orders)
    if not isinstance(degs, list) or not degs or \
            not all(isinstance(t, list) and len(t) == width
                    and all(map(_is_int, t)) for t in degs):
        raise ParseError(
            f"{path}: generator_degrees must be integer vectors of length {width}")
    rel_rows = doc["relations"]
    if not isinstance(rel_rows, list) or \
            not all(isinstance(r, list) and len(r) == len(degs)
                    and all(isinstance(s, str) for s in r) for r in rel_rows):
        raise ParseError(
            f"{path}: relations must be rows of {len(degs)} expression strings")
    rows = []
    for row in rel_rows:
        rows.append(tuple(parse_weyl(s, grading.d) for s in row))
    try:
        return dmod.GradedPresentation(grading, side, [tuple(t) for t in degs], rows)
    except InhomogeneousInput as exc:
        # bad input document, not a pipeline precondition
        raise ToricDmodError(f"{path}: {exc}") from exc


_INTEGER = re.compile(r"[+-]?[0-9]+")


def _read_ints(text: str, what: str) -> tuple[int, ...]:
    """Comma-separated integers, each of the form [+-]?[0-9]+ between
    optional ASCII spaces; int() alone would also take 1_0 and non-ASCII
    digits."""
    parts = [part.strip(" ") for part in text.split(",")]
    if not all(_INTEGER.fullmatch(part) for part in parts):
        raise ParseError(f"bad {what} {text!r}")
    try:
        return tuple(map(int, parts))
    except ValueError:  # more digits than int() converts
        raise ParseError(f"{what} has an integer too long") from None


def parse_class(text: str, grading: GradingData):
    group = grading.class_group
    width = group.free_rank + len(group.torsion_orders)
    # the empty string names the only class of a trivial class group
    coords = _read_ints(text, "class coordinates") if text.strip(" ") else ()
    if len(coords) != width:
        raise ParseError(
            f"class coordinates {text!r} have arity {len(coords)}, expected {width}")
    return group.reduce(coords)


def parse_cone(text: str, fan: Fan):
    idx = tuple(sorted(i - 1 for i in _read_ints(text, "cone")))
    if any(i < 0 or i >= fan.d for i in idx):
        raise ParseError(f"cone {text!r} has a ray index out of range")
    return idx


def parse_point(text: str, n: int):
    p = _read_ints(text, "lattice point")
    if len(p) != n:
        raise ParseError(f"lattice point {text!r} must have {n} coordinates")
    return p


def class_group_name(grading: GradingData) -> str:
    group = grading.class_group
    parts = []
    if group.free_rank == 1:
        parts.append("Z")
    elif group.free_rank > 1:
        parts.append(f"Z^{group.free_rank}")
    parts.extend(f"Z/{k}" for k in group.torsion_orders)
    return " x ".join(parts) if parts else "0"


def _cl_header(grading: GradingData) -> list[tuple[str, str]]:
    return [("cl", class_group_name(grading)),
            ("cl-basis", "coordinates are free part then torsion residues")]


def cmd_fan_info(args, grading: GradingData) -> list[tuple[str, str]]:
    fan = grading.fan
    xnames = [f"x{i + 1}" for i in range(fan.d)]
    bgens = sorted(format_terms([(1, list(zip(xnames, g)))])
                   for g in irrelevant_ideal(fan))
    ops = [format_weyl(t) for t in euler_operators(grading)]
    return [("n", str(fan.n)),
            ("d", str(fan.d)),
            ("rays", json.dumps([list(r) for r in fan.rays])),
            ("max-cones", json.dumps([[i + 1 for i in c] for c in fan.max_cones])),
            *_cl_header(grading),
            ("degrees", json.dumps(list(map(list, grading.class_group.unit_classes())))),
            ("e-bar", json.dumps(list(grading.e_bar))),
            ("dual-basis", json.dumps([list(u) for u in grading.dual_basis])),
            ("irrelevant-ideal", "(" + ", ".join(bgens) + ")"),
            ("euler-operators", "(" + ", ".join(ops) + ")")]


def _module_document(pres: dmod.GradedPresentation, grading: GradingData) -> str:
    rows = [[format_weyl(g) for g in row] for row in pres.relations]
    return ("# toric-dmod module document\n"
            f"# cl = {class_group_name(grading)}"
            " (degree coordinates: free part then torsion residues)\n"
            f"side = {json.dumps(pres.side)}\n"
            f"generator_degrees = {json.dumps([list(t) for t in pres.twists])}\n"
            f"relations = {json.dumps(rows)}\n")


def cmd_twisted(args, grading: GradingData) -> str:
    """dl/dr: the twisted module document on the side chosen by the subcommand."""
    cls = parse_class(args.degree, grading)
    build = dmod.d_module_left if args.side == "left" else dmod.d_module_right
    return _module_document(build(grading, cls), grading)


def cmd_check(args, grading: GradingData) -> list[tuple[str, str]]:
    pres = load_module(args.module, grading)
    ok, cert = dmod.check_theta_condition(pres)
    report = _cl_header(grading)
    report.append(("side", pres.side))
    if ok:
        report.append(("theta-condition", "OK"))
    else:
        report.append(("theta-condition", f"FAIL at generator {cert[0]}, u = u{cert[1]}"))
    return report


def _ideal(gens) -> str:
    """An ideal as its sorted generator list, "(0)" when there is none."""
    if not gens:
        return "(0)"
    return "(" + ", ".join(sorted(format_poly(g) for g in gens)) + ")"


def _yes_no(flag: bool) -> str:
    return "yes" if flag else "no"


def cmd_charvar(args, grading: GradingData) -> list[tuple[str, str]]:
    pres = load_module(args.module, grading)
    if args.charts:
        # fail before the report, not after computing all of it
        for cone in grading.fan.max_cones:
            dmod.require_chart_cone(grading, cone)
    rep = charvar.dimension_report(grading, pres)
    report = _cl_header(grading)
    report.append(("char-ideal", _ideal(rep.char_ideal)))
    report.append(("dim", str(rep.dim)))
    if args.saturate:
        # reading rep.saturated computes the saturation: only when asked
        report.append(("saturated", _ideal(rep.saturated)))
    report.append(("torsion", _yes_no(rep.torsion)))
    report.append(("sheaf-dim", str(rep.sheaf_dim)))
    report.append(("holonomic-module", _yes_no(rep.holonomic_module)))
    report.append(("holonomic-sheaf", _yes_no(rep.holonomic_sheaf)))
    if args.charts:
        names = charvar.s_prime_ring(grading).names
        for chart in rep.charts:
            frame = chart.frame
            rays = ",".join(str(i + 1) for i in frame.cone)
            label = f"chart-{rays}"
            # t_j = x^iota(m_j), and u_i = x^(section of deg x_i) xi_i
            monomials = [list(zip(names, t)) for t in frame.t_exponents]
            monomials += [list(zip(names, s)) + [(names[grading.d + i], 1)]
                          for i, s in enumerate(frame.u_sections)]
            gens = [f"{nm} = " + format_terms([(1, m)])
                    for nm, m in zip(frame.ring.names, monomials)]
            report.append((f"{label}-generators", "; ".join(gens)))
            report.append((f"{label}-window", "degree-zero monomials via the linear "
                           f"section with zero exponents on rays {rays}"))
            # at a smooth full-dimensional cone the chart ring is the polynomial
            # ring on its n + d generators (Cox 1995), so no relation holds
            report.append((f"{label}-presentation", "(0)"))
            report.append((f"{label}-image", _ideal(chart.image_ideal)))
            report.append((f"{label}-dim", str(chart.dimension)))
    return report


def cmd_swap(args, grading: GradingData) -> str:
    pres = load_module(args.module, grading)
    return _module_document(dmod.left_right_swap(pres), grading)


def cmd_local(args, grading: GradingData) -> list[tuple[str, str]]:
    fan = grading.fan
    cone = fan.require_cone(parse_cone(args.cone, fan))
    p = parse_point(args.p, fan.n)
    dmod.require_local_bounds(grading, cone, p)
    iota = grading.iota_of(p)
    report = _cl_header(grading)
    report.append(("cone", ",".join(str(i + 1) for i in cone)))
    report.append(("p", ",".join(str(x) for x in p)))
    report.append(("iota-p", json.dumps(list(iota))))
    hp, factors = dmod.h_p(grading, cone, p)
    thnames = [f"th{i + 1}" for i in range(fan.d)]
    vnames = [f"v{i + 1}" for i in range(fan.n)]
    report.append(("h_p", tp_format(hp, thnames)))
    report.append(("h_p-factors",
                   " * ".join(f"(th{i + 1} - {m})" if m else f"th{i + 1}"
                              for i, m in factors) if factors else "1"))
    # I(p) is generated by rho(h_p): one polynomial, formatted once and
    # printed twice
    ip = dmod.rho(grading, hp)
    ip_text = tp_format(ip, vnames)
    report.append(("rho-h_p", ip_text))
    report.append(("i_p", ip_text))
    # products of linear factors are equal iff their factor lists are
    oracle = dmod.j_p_oracle(grading, cone, p)
    report.append(("oracle", "AGREE" if oracle == factors else "DISAGREE"))
    # h_p with the index range widened by one (0 <= m <= -iota(p)_i)
    alt = [(i, m) for i in cone for m in range(0, -iota[i] + 1)]
    report.append(("inclusive-bound-variant",
                   "AGREE" if alt == oracle else "DISAGREE (off-by-one)"))
    ymatch = dmod.i_p_matches_y_p(grading, cone, p, ip)
    report.append(("y_p-vanishing", "AGREE" if ymatch else "DISAGREE"))
    if args.g is not None:
        g = parse_theta_poly(args.g, fan.d)
        pair = dmod.local_op_image(grading, cone, p, g)
        report.append(("g", tp_format(g, thnames)))
        report.append(("g-image", f"({','.join(str(x) for x in pair[0])}; "
                                  f"{tp_format(pair[1], vnames)})"))
    return report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toric-dmod",
        description="Cox-graded Weyl algebra computations over smooth toric fans")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("plain", "machine"), default="plain")

    p = sub.add_parser("fan-info", help="class group, degrees and Euler operators")
    p.add_argument("fan")
    common(p)
    p.set_defaults(func=cmd_fan_info)

    for name, side in (("dl", "left"), ("dr", "right")):
        p = sub.add_parser(name, help=f"twisted {side} module document")
        p.add_argument("fan")
        p.add_argument("degree", help="comma-separated class coordinates "
                                      "(put -- before a negative first one: "
                                      f"{name} FAN -- -1,0)")
        common(p)
        p.set_defaults(func=cmd_twisted, side=side)

    p = sub.add_parser("check", help="theta-condition membership test")
    p.add_argument("fan")
    p.add_argument("module")
    common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("charvar", help="characteristic ideal and dimensions")
    p.add_argument("fan")
    p.add_argument("module")
    p.add_argument("--charts", action="store_true", help="per-cone chart ideals")
    p.add_argument("--saturate", action="store_true",
                   help="print the saturated ideal generators")
    common(p)
    p.set_defaults(func=cmd_charvar)

    p = sub.add_parser("swap", help="left-right swap of a module document")
    p.add_argument("fan")
    p.add_argument("module")
    common(p)
    p.set_defaults(func=cmd_swap)

    p = sub.add_parser("local", help="chart eigenspace data for a cone and p")
    p.add_argument("fan")
    p.add_argument("--cone", required=True, help="comma-separated 1-based ray indices")
    p.add_argument("--p", required=True, dest="p",
                   help="comma-separated lattice point (use --p=-1,0 for negatives)")
    p.add_argument("--g", help="theta polynomial to map through the chart")
    common(p)
    p.set_defaults(func=cmd_local)

    return parser


_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    """Run one command; may be called repeatedly in one process, and builds
    the parser only on the first call. Every command's first argument is the
    fan: main loads it and prints what the command returns, a module document
    as it is or (key, value) report lines in the chosen format."""
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        out = args.func(args, grading_data(load_fan(args.fan)))
    except ToricDmodError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.exit_code
    if not isinstance(out, str):
        sep = "\t" if args.format == "machine" else ": "
        out = "".join(f"{key}{sep}{value}\n" for key, value in out)
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
