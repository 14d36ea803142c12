"""CLI behaviour: exit codes, document round trips, golden determinism."""

import argparse
import pathlib
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from helpers import class_section, cli_env
from toric_dmod import charvar, cli, dmod, errors, fan_cox, lattice
from toric_dmod.cli import load_fan, load_module, main
from toric_dmod.errors import ParseError
from toric_dmod.fan_cox import grading_data
from toric_dmod.weyl import theta_u

HERE = pathlib.Path(__file__).parent
FIXTURES = HERE / "fixtures"
GOLDEN = HERE / "golden"

FANS = ["p1", "p2", "p1p1", "hirzebruch1"]
ZERO = {"p1": "0", "p2": "0", "p1p1": "0,0", "hirzebruch1": "0,0"}


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "toric_dmod.cli", *args],
                          capture_output=True, text=True, env=cli_env())
    return proc.returncode, proc.stdout, proc.stderr


def test_fan_info_exit_codes(tmp_path):
    rc, out, _ = run_cli("fan-info", str(FIXTURES / "p1.fan"))
    assert rc == 0
    assert "cl: Z" in out
    rc2, _, err = run_cli("fan-info", str(FIXTURES / "nonsmooth.fan"))
    assert rc2 == 3
    assert "cone" in err
    bad = tmp_path / "bad.fan"
    bad.write_text("rays = [[1], [-1]]\n")
    rc3, _, _ = run_cli("fan-info", str(bad))
    assert rc3 == 2
    empty = tmp_path / "empty.fan"
    empty.write_text("n = 1\nrays = []\nmax_cones = []\n")
    rc4, _, _ = run_cli("fan-info", str(empty))
    assert rc4 == 2


def test_dl_bad_arity_exits_2():
    rc, _, _ = run_cli("dl", str(FIXTURES / "p1.fan"), "0,0")
    assert rc == 2


def test_malformed_relation_exits_2(tmp_path):
    mod = tmp_path / "m.mod"
    mod.write_text('side = "left"\ngenerator_degrees = [[0]]\n'
                   'relations = [["x1 ++ d1"]]\n')
    rc, _, _ = run_cli("check", str(FIXTURES / "p1.fan"), str(mod))
    assert rc == 2


def test_check_verdicts(tmp_path):
    mod = tmp_path / "ss.mod"
    mod.write_text('side = "left"\ngenerator_degrees = [[0]]\n'
                   'relations = [["d1"], ["d2"]]\n')
    rc, out, _ = run_cli("check", str(FIXTURES / "p1.fan"), str(mod))
    assert rc == 0 and "theta-condition: OK" in out
    free = tmp_path / "free.mod"
    free.write_text('side = "left"\ngenerator_degrees = [[0]]\nrelations = []\n')
    rc2, out2, _ = run_cli("check", str(FIXTURES / "p1.fan"), str(free))
    assert rc2 == 0 and "FAIL at generator 1, u = u1" in out2


def test_inhomogeneous_module_exits_3(tmp_path):
    mod = tmp_path / "bad.mod"
    mod.write_text('side = "left"\ngenerator_degrees = [[0]]\n'
                   'relations = [["x1 + x1*d1"]]\n')
    rc, _, err = run_cli("check", str(FIXTURES / "p1.fan"), str(mod))
    assert rc == 3
    assert "homogeneous" in err


def test_charvar_precondition_exit_4(tmp_path):
    free = tmp_path / "free.mod"
    free.write_text('side = "left"\ngenerator_degrees = [[0]]\nrelations = []\n')
    rc, _, err = run_cli("charvar", str(FIXTURES / "p1.fan"), str(free))
    assert rc == 4
    assert "theta condition" in err


def test_local_not_in_jp_exit_4():
    rc, _, _ = run_cli("local", str(FIXTURES / "p1.fan"),
                       "--cone", "1", "--p=-1", "--g", "1")
    assert rc == 4
    rc2, out, _ = run_cli("local", str(FIXTURES / "p1.fan"),
                          "--cone", "1", "--p=-1", "--g", "th1")
    assert rc2 == 0 and "g-image: (-1; v1)" in out


def _timed_main(capsys, *args):
    started = time.perf_counter()
    rc = main(list(args))
    elapsed = time.perf_counter() - started
    return rc, elapsed, capsys.readouterr()


def test_oversized_local_point_exits_4_at_once(capsys):
    # measured before the bound: 96 s on P1 and 70.7 s on P2
    for fan, cone, p in (("p1", "1", "-1000"), ("p2", "1,2", "-30,-30")):
        rc, elapsed, cap = _timed_main(capsys, "local", str(FIXTURES / f"{fan}.fan"),
                                       "--cone", cone, f"--p={p}")
        assert rc == 4 and elapsed < 1.0
        assert cap.out == "" and "Traceback" not in cap.err
        assert cap.err.count("\n") == 1 and cap.err.startswith("error: ")


def test_local_bounds_admit_the_documented_range():
    from toric_dmod import dmod
    from toric_dmod.errors import PointTooLarge
    p1 = grading_data(load_fan(str(FIXTURES / "p1.fan")))
    p1p1 = grading_data(load_fan(str(FIXTURES / "p1p1.fan")))
    # 64 factors; then (4 * 15 + 1)^2 = 3721 box points
    dmod.require_local_bounds(p1, (0,), (-dmod.LOCAL_MAX_FACTORS,))
    dmod.require_local_bounds(p1p1, (0, 2), (-14, -14))
    with pytest.raises(PointTooLarge):
        dmod.require_local_bounds(p1, (0,), (-dmod.LOCAL_MAX_FACTORS - 1,))
    with pytest.raises(PointTooLarge):
        dmod.require_local_bounds(p1p1, (0, 2), (-15, -14))
    # no factors, but a box of 4 * 1025 + 1 points
    with pytest.raises(PointTooLarge):
        dmod.require_local_bounds(p1, (0,), (1024,))


def test_y_p_check_walks_the_box_the_bounds_count(monkeypatch):
    # at the two largest local points the y_p check walks exactly the box
    # require_local_bounds counts, (4 local_radius(p) + 1)^n points, and one
    # point further the bound rejects the point
    from toric_dmod import dmod
    from toric_dmod.errors import PointTooLarge
    real = dmod._box_lines
    walked = []

    def counted(fan, cone, p, radius):
        for line in real(fan, cone, p, radius):
            walked.append(2 * radius + 1)
            yield line

    monkeypatch.setattr(dmod, "_box_lines", counted)
    for name, cone, p, past, size, reason in (
            ("p1", (0,), (-64,), (-65,), 261, "linear factors"),
            ("p1p1", (0, 2), (-14, -14), (-15, -14), 3721, "enumerate")):
        gd = grading_data(load_fan(str(FIXTURES / f"{name}.fan")))
        dmod.require_local_bounds(gd, cone, p)
        walked.clear()
        assert dmod.i_p_matches_y_p(gd, cone, p, dmod.i_p_ideal(gd, cone, p))
        box = (4 * dmod.local_radius(gd, p) + 1) ** gd.n
        assert sum(walked) == box == size <= dmod.LOCAL_MAX_BOX, name
        with pytest.raises(PointTooLarge, match=reason):
            dmod.require_local_bounds(gd, cone, past)


def test_over_cap_exponent_exits_2_at_once(capsys):
    # th1^1000000 took 6.3 s before the cap; th1^10000000 ran past 30 s
    for g in ("th1^10000000", "th1^150*th1^51"):
        rc, elapsed, cap = _timed_main(capsys, "local", str(FIXTURES / "p1.fan"),
                                       "--cone", "1", "--p=-1", "--g", g)
        assert rc == 2 and elapsed < 1.0
        assert cap.err.count("\n") == 1 and "200" in cap.err
    rc, _, cap = _timed_main(capsys, "local", str(FIXTURES / "p1.fan"),
                             "--cone", "1", "--p=-1", "--g", "th1^200")
    assert rc == 0 and "g-image: (-1; v1^200)" in cap.out


def _report(text: str) -> dict:
    return dict(line.split(": ", 1) for line in text.splitlines() if ": " in line)


def _ring_term(text: str, gens: dict, field):
    """One printed term such as -3/2*v1^4*v2 as an element of a sympy ring."""
    sign = -1 if text.startswith("-") else 1
    out = field(sign)
    for factor in text.lstrip("-").split("*"):
        name, _, k = factor.partition("^")
        out *= gens[name] ** int(k or 1) if name in gens else field(Fraction(factor))
    return out


def test_many_term_g_images_match_sympy(capsys):
    # before powers were built once per call these took 5.3 s and 45 s
    sympy = pytest.importorskip("sympy")
    from sympy.polys.rings import ring
    ring_, v1, v2 = ring("v1,v2", sympy.QQ)
    many = [(1, 1, k) for k in range(179, 199)]
    full = [(1 + k // 20, 1 + k % 20, 198 - k // 20 - k % 20) for k in range(200)]
    for exps in (many, full):
        g = " + ".join(f"{k + 1}*th1^{a}*th2^{b}*th3^{c}"
                       for k, (a, b, c) in enumerate(exps))
        rc, elapsed, cap = _timed_main(capsys, "local", str(FIXTURES / "p2.fan"),
                                       "--cone", "1,2", "--p=-1,-1", "--g", g)
        assert rc == 0 and elapsed < 2.0
        image = _report(cap.out)["g-image"]
        assert image.startswith("(-1,-1; ") and image.endswith(")")
        body = image[len("(-1,-1; "):-1].replace(" - ", " + -")
        got = sum((_ring_term(t, {"v1": v1, "v2": v2}, sympy.QQ)
                   for t in body.split(" + ")), ring_(0))
        # rho on P2: th1 -> v1, th2 -> v2, th3 -> -v1 - v2
        want = sum(((k + 1) * v1 ** a * v2 ** b * (-v1 - v2) ** c
                    for k, (a, b, c) in enumerate(exps)), ring_(0))
        assert got == want


def test_term_cap_exits_2_at_once(capsys):
    from toric_dmod.parsing import MAX_TERMS
    base = ("local", str(FIXTURES / "p1.fan"), "--cone", "1", "--p=-1", "--g")
    rc, elapsed, cap = _timed_main(capsys, *base,
                                   " + ".join(["th1^2*th2^198"] * (MAX_TERMS + 1)))
    assert rc == 2 and elapsed < 1.0
    assert cap.out == "" and cap.err.count("\n") == 1 and cap.err.startswith("error: ")
    rc, _, cap = _timed_main(capsys, *base, " + ".join(["th1^2*th2^198"] * MAX_TERMS))
    assert rc == 0 and f"g: {MAX_TERMS}*th1^2*th2^198" in cap.out


def test_coefficient_cap_exits_2_at_once(tmp_path, capsys):
    # a module document has no argument size limit; before the cap the
    # factors were multiplied one by one (2.2 s for 80,000 factors of 3)
    from toric_dmod.parsing import MAX_COEFF_DIGITS, parse_terms
    doc = tmp_path / "big.mod"
    doc.write_text('side = "left"\ngenerator_degrees = [[0]]\n'
                   f'relations = [["{"3*" * 80000}x1*d1 + x2*d2"]]\n')
    rc, elapsed, cap = _timed_main(capsys, "check", str(FIXTURES / "p1.fan"), str(doc))
    assert rc == 2 and elapsed < 1.5
    assert cap.out == "" and cap.err.count("\n") == 1
    assert f"more than {MAX_COEFF_DIGITS} digits" in cap.err
    # normal terms still parse, up to the bound
    doc.write_text('side = "left"\ngenerator_degrees = [[0]]\n'
                   f'relations = [["{"3*" * 1000}x1*d1 + {"3*" * 1000}x2*d2"]]\n')
    rc, _, cap = _timed_main(capsys, "check", str(FIXTURES / "p1.fan"), str(doc))
    assert rc == 0 and "theta-condition: OK" in cap.out
    top = "9" * MAX_COEFF_DIGITS
    assert parse_terms(f"{top}*x1 - 1/{top}")[0][0] == int(top)
    assert parse_terms("2/3*3/4*x1")[0][0] == Fraction(1, 2)
    for text in (f"{top}*2*x1", f"1/{top}*1/2", f"x1*{top}*10"):
        with pytest.raises(ParseError, match="digits"):
            parse_terms(text)


def test_largest_local_points_stay_fast(capsys):
    # before the common-denominator kernel these took 0.29 s and 1.85 s
    for fan, cone, p in (("p1", "1", "-64"), ("p1p1", "1,3", "-14,-14")):
        rc, elapsed, cap = _timed_main(capsys, "local", str(FIXTURES / f"{fan}.fan"),
                                       "--cone", cone, f"--p={p}")
        assert rc == 0 and elapsed < 3.0
        report = _report(cap.out)
        assert report["oracle"] == report["y_p-vanishing"] == "AGREE"
        # the widened index range is the negative control
        assert report["inclusive-bound-variant"] == "DISAGREE (off-by-one)"


def test_local_unknown_cone_exit_3():
    rc, _, _ = run_cli("local", str(FIXTURES / "p1.fan"),
                       "--cone", "1,2", "--p=-1")
    assert rc == 3


def test_local_repeated_ray_cone_exits_3(capsys):
    # neither is a cone: the indices of (1, 1) are not distinct, and the
    # distinct rays of (1, 2) span no cone of P1
    for cone in ("1,1", "1,2"):
        assert main(["local", str(FIXTURES / "p1.fan"), "--cone", cone, "--p=-1"]) == 3
        assert "is not in the fan" in capsys.readouterr().err


# (fan document or None for the P1 fixture, module document or None, the
# command's arguments after the fan, exit code, the error line after
# "error: ", with {path} the document it names)
TYPED_ERRORS = {
    "a point, n = 0": ("n = 0\nrays = []\nmax_cones = []\n", None, [], 2,
                       "{path}: n must be a positive integer"),
    "zero ray": ("n = 2\nrays = [[1, 0], [0, 0], [0, 1]]\nmax_cones = [[1, 3]]\n", None,
                 [], 3, "ray 2 is zero"),
    "duplicate rays": ("n = 2\nrays = [[1, 0], [0, 1], [1, 0]]\nmax_cones = [[1, 2]]\n",
                       None, [], 3, "rays are not pairwise distinct"),
    "ray of the wrong length": ("n = 2\nrays = [[1, 0], [0, 1, 0]]\nmax_cones = [[1, 2]]\n",
                                None, [], 3, "ray length does not match ambient rank"),
    "cone index out of range": ("n = 2\nrays = [[1, 0], [0, 1]]\nmax_cones = [[1, 5]]\n",
                                None, [], 2, "{path}: cone index 5 out of range"),
    "--cone past the last ray": (None, None, ["--cone", "3", "--p=-1"], 2,
                                 "cone '3' has a ray index out of range"),
    "--cone before the first ray": (None, None, ["--cone", "0", "--p=-1"], 2,
                                    "cone '0' has a ray index out of range"),
    "--p of the wrong length": (None, None, ["--cone", "1", "--p=-1,0"], 2,
                                "lattice point '-1,0' must have 1 coordinates"),
    "bad side": (None, 'side = "up"\ngenerator_degrees = [[0]]\nrelations = []\n', [], 2,
                 "{path}: side must be 'left' or 'right'"),
    "inhomogeneous relation row": (None, 'side = "left"\ngenerator_degrees = [[0], [0]]\n'
                                         'relations = [["x1", "d1"]]\n', [], 3,
                                   "{path}: relation row is not graded-homogeneous"),
    "relation row of the wrong length": (None, 'side = "left"\ngenerator_degrees = [[0]]\n'
                                               'relations = [["x1", "d1"]]\n', [], 2,
                                         "{path}: relations must be rows of 1 expression "
                                         "strings"),
}


@pytest.mark.parametrize("case", sorted(TYPED_ERRORS))
def test_typed_input_errors_exit_with_one_error_line(case, tmp_path, capsys):
    fan_text, module_text, rest, code, message = TYPED_ERRORS[case]
    fan = str(FIXTURES / "p1.fan")
    path = None
    if fan_text is not None:
        path = fan = str(tmp_path / "bad.fan")
        (tmp_path / "bad.fan").write_text(fan_text)
    if module_text is not None:
        path = str(tmp_path / "bad.mod")
        (tmp_path / "bad.mod").write_text(module_text)
        argv = ["check", fan, path]
    elif rest:
        argv = ["local", fan, *rest]
    else:
        argv = ["fan-info", fan]
    assert main(argv) == code
    cap = capsys.readouterr()
    assert (cap.out, cap.err) == ("", f"error: {message.format(path=path)}\n")


# the exit code of every error type, as the module docstrings document it
EXIT_CODES = {
    "ToricDmodError": 3, "ParseError": 2, "FanValidationError": 3,
    "NonSimplicialCone": 3, "NonSmoothCone": 3, "RaysDoNotSpan": 3,
    "UnknownCone": 3, "PreconditionViolated": 4, "InhomogeneousInput": 4,
    "NotInJp": 4, "ConeNotMaximal": 4, "PointTooLarge": 4,
    "ChartRewriteError": 4,
}


def test_every_error_type_exits_with_its_documented_code(monkeypatch, capsys):
    types = {name: cls for name, cls in vars(errors).items()
             if isinstance(cls, type) and issubclass(cls, errors.ToricDmodError)}
    assert set(types) == set(EXIT_CODES)
    for name, cls in types.items():
        def raising(args, grading, cls=cls):
            raise cls(f"raised {cls.__name__}")
        monkeypatch.setattr(cli, "cmd_fan_info", raising)
        # a fresh parser binds the patched command
        monkeypatch.setattr(cli, "_parser", None)
        assert main(["fan-info", str(FIXTURES / "p1.fan")]) == EXIT_CODES[name], name
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: raised {name}\n")


def test_module_document_round_trip(tmp_path):
    for name in FANS:
        fan_path = str(FIXTURES / f"{name}.fan")
        rc, doc, _ = run_cli("dl", fan_path, ZERO[name])
        assert rc == 0
        path = tmp_path / f"{name}.mod"
        path.write_text(doc)
        grading = grading_data(load_fan(fan_path))
        pres = load_module(str(path), grading)
        rc2, doc2, _ = run_cli("swap", fan_path, str(path))
        assert rc2 == 0
        path2 = tmp_path / f"{name}_sw.mod"
        path2.write_text(doc2)
        swapped = load_module(str(path2), grading)
        from toric_dmod.dmod import left_right_swap
        assert left_right_swap(swapped) == pres


def test_dr_document(tmp_path):
    rc, out, _ = run_cli("dr", str(FIXTURES / "p1.fan"), "-2")
    assert rc == 0
    assert 'side = "right"' in out
    assert '"x1*d1 + x2*d2 + 2"' in out
    path = tmp_path / "dr.mod"
    path.write_text(out)
    grading = grading_data(load_fan(str(FIXTURES / "p1.fan")))
    pres = load_module(str(path), grading)
    assert pres.side == "right" and pres.twists == ((-2,),)


def test_multiline_document_values(tmp_path):
    fan = tmp_path / "wrapped.fan"
    fan.write_text("n = 1\nrays = [[1],\n  [-1]]   # wrapped list\nmax_cones = [[1], [2]]\n")
    rc, out, _ = run_cli("fan-info", str(fan))
    assert rc == 0
    assert "cl: Z" in out


def test_repeated_key_exits_2(tmp_path, capsys):
    # the last value used to win silently
    fan = tmp_path / "twice.fan"
    fan.write_text("n = 1\nrays = [[1], [-1]]\nmax_cones = [[1], [2]]\nn = 2\n")
    mod = tmp_path / "twice.mod"
    mod.write_text('side = "left"\ngenerator_degrees = [[0]]\n'
                   'relations = [["x1*d1 + x2*d2"]]\nside = "right"\n')
    for argv in (["fan-info", str(fan)], ["check", str(FIXTURES / "p1.fan"), str(mod)]):
        rc = main(argv)
        cap = capsys.readouterr()
        assert rc == 2 and cap.out == ""
        assert cap.err.count("\n") == 1 and cap.err.startswith("error: ")
        assert "given twice" in cap.err


def _one_error_line(capsys, argv) -> str:
    rc = main(argv)
    cap = capsys.readouterr()
    assert rc == 2 and cap.out == "", argv
    assert cap.err.count("\n") == 1 and cap.err.startswith("error: ")
    return cap.err


def test_document_not_utf8_exits_2(tmp_path, capsys):
    # a byte that is not UTF-8 used to end in a UnicodeDecodeError traceback
    fan = tmp_path / "p1.fan"
    fan.write_bytes((FIXTURES / "p1.fan").read_bytes() + b"\xff")
    mod = tmp_path / "p1_dl0.mod"
    mod.write_bytes((GOLDEN / "p1_dl0.mod").read_bytes() + b"\xff")
    for path, argv in ((fan, ["fan-info", str(fan)]),
                       (mod, ["check", str(FIXTURES / "p1.fan"), str(mod)])):
        err = _one_error_line(capsys, argv)
        assert err.startswith(f"error: cannot read {path}: 'utf-8' codec can't decode")
    rc, out, err = run_cli("fan-info", str(fan))
    assert (rc, out) == (2, "") and err.count("\n") == 1 and err.startswith("error: ")


def test_unknown_and_empty_document_keys_exit_2(tmp_path, capsys):
    # a misspelt key used to be ignored; the error names the file, the line
    # and the key
    p1 = str(FIXTURES / "p1.fan")
    fan_lines = ["n = 1", "rays = [[1], [-1]]", "max_cones = [[1], [2]]"]
    mod_lines = ['side = "left"', "generator_degrees = [[0]]",
                 'relations = [["x1*d1 + x2*d2"]]']
    cases = []
    for kind, lines in (("fan", fan_lines), ("mod", mod_lines)):
        for key, extra in (("max_cone", "max_cone = [[1]]"), ("", "= 1"),
                           ("Side", 'Side = "left"'), ("n", "n = 1")):
            if kind == "fan" and key == "n":
                continue
            path = tmp_path / f"{kind}{len(cases)}.{kind}"
            path.write_text("\n".join(lines[:1] + [extra] + lines[1:]) + "\n")
            argv = ["fan-info", str(path)] if kind == "fan" else ["check", p1, str(path)]
            cases.append((argv, f"{path}:2: unknown key {key!r}"))
    for argv, message in cases:
        assert message in _one_error_line(capsys, argv)
    # each kind's keys are unknown to the other kind
    mod = tmp_path / "valid.mod"
    mod.write_text("\n".join(mod_lines) + "\n")
    with pytest.raises(ParseError, match="valid.mod:1: unknown key 'side'"):
        load_fan(str(mod))
    with pytest.raises(ParseError, match="p1.fan:2: unknown key 'n'"):
        load_module(p1, grading_data(load_fan(p1)))


def test_integer_arguments_are_ascii_decimal(capsys):
    # int() also read 1_0 as 10 and non-ASCII digits; only [+-]?[0-9]+
    # between ASCII spaces is an integer
    p1 = str(FIXTURES / "p1.fan")
    p1p1 = str(FIXTURES / "p1p1.fan")
    bad = ["1_0", "\u0663", "\uff11", "1.0", "", " ", "+", "1e1", "0x1", "\t1",
           "1\n", "\u00a01", "--1"]
    for text in bad:
        assert "bad lattice point" in _one_error_line(
            capsys, ["local", p1, "--cone", "1", f"--p={text}"])
        assert "bad class coordinates" in _one_error_line(capsys, ["dl", p1p1, f"0,{text}"])
        assert "bad cone" in _one_error_line(
            capsys, ["local", p1, f"--cone={text}", "--p=-1"])
    for p in (" -1", "-1 ", "+0", "-01"):
        assert main(["local", p1, "--cone", " 1 ", f"--p={p}"]) == 0
        assert capsys.readouterr().out.startswith("cl: Z\n")
    assert main(["dl", p1p1, " +1 , -2"]) == 0
    assert "generator_degrees = [[1, -2]]" in capsys.readouterr().out


def test_integer_arguments_longer_than_int_converts_exit_2(capsys):
    # int() refuses more than 4300 digits with a ValueError, which used to
    # end the run with a traceback and exit 1
    p1 = str(FIXTURES / "p1.fan")
    huge = "1" * 5000
    assert "lattice point" in _one_error_line(
        capsys, ["local", p1, "--cone", "1", f"--p=-{huge}"])
    assert "cone" in _one_error_line(capsys, ["local", p1, f"--cone={huge}", "--p=-1"])
    for cmd in ("dl", "dr"):
        assert "class coordinates" in _one_error_line(capsys, [cmd, p1, huge])


def test_boolean_document_values_exit_2(tmp_path, capsys):
    # True and False are ints to Python; they used to be accepted as 1 and 0
    fans = ("n = True\nrays = [[1], [-1]]\nmax_cones = [[1], [2]]\n",
            "n = 1\nrays = [[True], [-1]]\nmax_cones = [[1], [2]]\n",
            "n = 1\nrays = [[1], [-1]]\nmax_cones = [[True], [2]]\n")
    for k, text in enumerate(fans):
        fan = tmp_path / f"bool{k}.fan"
        fan.write_text(text)
        rc = main(["fan-info", str(fan)])
        cap = capsys.readouterr()
        assert rc == 2 and cap.out == "", text
        assert cap.err.count("\n") == 1 and cap.err.startswith("error: ")
    mod = tmp_path / "bool.mod"
    mod.write_text('side = "left"\ngenerator_degrees = [[False]]\n'
                   'relations = [["x1*d1 + x2*d2"]]\n')
    rc = main(["check", str(FIXTURES / "p1.fan"), str(mod)])
    cap = capsys.readouterr()
    assert rc == 2 and cap.err.count("\n") == 1 and cap.err.startswith("error: ")


def test_machine_format_is_tab_separated(capsys):
    # one emitter: a machine report is the plain one with the first ": " of
    # each line a tab, and a module document ignores the format
    reports = []
    for name in FANS:
        fan_path, mod_path = str(FIXTURES / f"{name}.fan"), str(GOLDEN / f"{name}_dl0.mod")
        reports += [("fan-info", fan_path), ("check", fan_path, mod_path),
                    ("charvar", fan_path, mod_path, "--charts", "--saturate")]
    reports.append(("local", str(FIXTURES / "p2.fan"), "--cone", "1,2", "--p=-2,-1",
                    "--g", "th1^2*th2 - th1*th2"))
    p1 = str(FIXTURES / "p1.fan")
    documents = [("dl", p1, "1"), ("dr", p1, "1"), ("swap", p1, str(GOLDEN / "p1_dl0.mod"))]
    for argv in reports + documents:
        rc, plain, _ = _main_in_process(capsys, argv)
        assert rc == 0, argv
        rc, machine, _ = _main_in_process(capsys, argv + ("--format", "machine"))
        assert rc == 0, argv
        if argv in documents:
            assert machine == plain, argv
        else:
            lines = plain.splitlines(keepends=True)
            assert lines and all(": " in line for line in lines), argv
            assert machine == "".join(line.replace(": ", "\t", 1) for line in lines), argv


def _golden_jobs():
    """(golden file, argv) for the 14 golden commands."""
    jobs = []
    for name in FANS:
        fan_path = str(FIXTURES / f"{name}.fan")
        mod_path = str(GOLDEN / f"{name}_dl0.mod")
        jobs.append((f"{name}_fan_info.txt", ("fan-info", fan_path)))
        jobs.append((f"{name}_dl0.mod", ("dl", fan_path, ZERO[name])))
        jobs.append((f"{name}_charvar_dl0.txt",
                     ("charvar", fan_path, mod_path, "--charts", "--saturate")))
    jobs.append(("p1_local.txt",
                 ("local", str(FIXTURES / "p1.fan"), "--cone", "1", "--p=-1")))
    jobs.append(("p1_swap_dl0.mod",
                 ("swap", str(FIXTURES / "p1.fan"), str(GOLDEN / "p1_dl0.mod"))))
    return jobs


def test_golden_reports_and_determinism():
    jobs = _golden_jobs()
    assert len(jobs) == 14
    for golden_name, args in jobs:
        expected = (GOLDEN / golden_name).read_text()
        rc1, out1, _ = run_cli(*args)
        rc2, out2, _ = run_cli(*args)
        assert rc1 == rc2 == 0, golden_name
        assert out1 == out2, f"two runs differ for {golden_name}"
        assert out1 == expected, f"golden mismatch for {golden_name}"


def test_charvar_flag_combinations_match_the_golden(capsys):
    # the golden is the --charts --saturate report: without --saturate its
    # saturated line goes, and without --charts its chart lines
    for name in FANS:
        golden = (GOLDEN / f"{name}_charvar_dl0.txt").read_text().splitlines(keepends=True)
        argv = ("charvar", str(FIXTURES / f"{name}.fan"), str(GOLDEN / f"{name}_dl0.mod"))
        for flags in ((), ("--saturate",), ("--charts",), ("--charts", "--saturate")):
            dropped = ("saturated: ",) * ("--saturate" not in flags) + \
                ("chart-",) * ("--charts" not in flags)
            expected = "".join(line for line in golden if not line.startswith(dropped))
            rc, out, _ = _main_in_process(capsys, argv + flags)
            assert rc == 0 and out == expected, (name, flags)


def test_charvar_of_the_free_module_on_the_affine_plane(tmp_path, capsys):
    # A^2 is one cone with a trivial class group; the free module A has no
    # relation, so every ideal of its report is (0)
    fan = tmp_path / "a2.fan"
    fan.write_text("n = 2\nrays = [[1, 0], [0, 1]]\nmax_cones = [[1, 2]]\n")
    module = tmp_path / "free.mod"
    module.write_text('side = "left"\ngenerator_degrees = [[]]\nrelations = []\n')
    rc, out, err = _main_in_process(
        capsys, ["charvar", str(fan), str(module), "--charts", "--saturate"])
    assert (rc, err) == (0, "")
    lines = out.splitlines()
    for line in ("char-ideal: (0)", "dim: 4", "saturated: (0)", "sheaf-dim: 4",
                 "chart-1,2-presentation: (0)", "chart-1,2-image: (0)",
                 "chart-1,2-dim: 4"):
        assert line in lines


def _main_in_process(capsys, argv):
    """(exit code, stdout, stderr) of main(argv) in this process; argparse
    usage errors end in SystemExit."""
    try:
        rc = main(list(argv))
    except SystemExit as exc:
        rc = exc.code
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def _main_in_fresh_process(argv):
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from toric_dmod.cli import main; sys.exit(main(sys.argv[1:]))",
         *argv], capture_output=True, text=True, env=cli_env())
    return proc.returncode, proc.stdout, proc.stderr


def test_repeated_main_calls_in_one_process(capsys):
    # the parser is built once per process; every later call must behave as
    # the first call of a fresh process does
    p1, p1p1 = str(FIXTURES / "p1.fan"), str(FIXTURES / "p1p1.fan")
    others = [("dl", str(FIXTURES / "p2.fan"), "1"),
              ("dr", p1p1, "1,-1"),
              ("check", p1, str(GOLDEN / "p1_dl0.mod")),
              ("no-such-command", p1),
              ("local", p1, "--p=-1"),
              ("dl", p1, "0,0")]
    fresh = [_main_in_fresh_process(argv) for argv in others]
    assert [rc for rc, _, _ in fresh] == [0, 0, 0, 2, 2, 2]
    for _ in range(2):
        for argv, expected in zip(others, fresh):
            assert _main_in_process(capsys, argv) == expected, argv
        for golden_name, argv in _golden_jobs():
            rc, out, _ = _main_in_process(capsys, argv)
            assert rc == 0 and out == (GOLDEN / golden_name).read_text(), golden_name


def test_main_builds_the_parser_once(monkeypatch, capsys):
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counted_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    p1 = str(FIXTURES / "p1.fan")
    assert main(["fan-info", p1]) == 0
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    for k in range(20):
        argv = ["fan-info", p1] if k % 2 else ["dl", p1, str(k)]
        assert main(argv) == 0
    capsys.readouterr()
    assert built == []


def test_main_callable_directly(capsys):
    rc = main(["fan-info", str(FIXTURES / "p1.fan")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "irrelevant-ideal: (x1, x2)" in out


def test_dl_dr_trivial_class_group_take_empty_class(tmp_path):
    # the affine plane: class group 0, so its only class has no coordinates
    fan = tmp_path / "a2.fan"
    fan.write_text("n = 2\nrays = [[1, 0], [0, 1]]\nmax_cones = [[1, 2]]\n")
    for cmd, side in (("dl", "left"), ("dr", "right")):
        rc, out, _ = run_cli(cmd, str(fan), "")
        assert rc == 0
        assert f'side = "{side}"' in out
        assert "generator_degrees = [[]]" in out
    rc2, _, err = run_cli("dl", str(fan), "0")
    assert rc2 == 2 and "expected 0" in err


def test_negative_class_needs_a_double_dash():
    # a class whose first coordinate is negative reads as an option unless
    # -- ends the options; both exits are pinned, and the help says so
    fan = str(FIXTURES / "p1p1.fan")
    for cmd, side, shift in (("dl", "left", "- 1"), ("dr", "right", "+ 1")):
        rc, out, err = run_cli(cmd, fan, "-1,0")
        assert rc == 2 and out == ""
        assert "the following arguments are required: degree" in err
        rc, out, err = run_cli(cmd, fan, "--", "-1,0")
        assert rc == 0 and err == ""
        assert f'side = "{side}"' in out
        assert "generator_degrees = [[-1, 0]]" in out
        assert f'relations = [["x1*d1 + x2*d2 {shift}"], ["x3*d3 + x4*d4"]]' in out
        rc, out, _ = run_cli(cmd, "--help")
        assert rc == 0 and f"{cmd} FAN -- -1,0" in " ".join(out.split())


def test_local_g_builds_h_p_no_more_often(monkeypatch, capsys):
    # local builds one product of linear factors, h_p: the oracle and the
    # widened variant are compared as factor lists, and --g divides g by
    # h_p's factors without building h_p again
    calls = []
    real = dmod.tp_linear_product

    def counted(d, factors):
        calls.append(len(factors))
        return real(d, factors)

    monkeypatch.setattr(dmod, "tp_linear_product", counted)
    argv = ["local", str(FIXTURES / "p2.fan"), "--cone", "1,2", "--p=-2,-1"]
    assert main(argv) == 0
    assert "h_p: " in capsys.readouterr().out
    assert len(calls) == 1
    calls.clear()
    assert main(argv + ["--g", "th1^2*th2 - th1*th2 + 1/2*th1^2*th2*th3 - 1/2*th1*th2*th3"]) == 0
    assert "g-image: " in capsys.readouterr().out
    assert len(calls) == 1


def test_local_checks_its_cone_once(monkeypatch, capsys):
    # the command checks the cone; the local functions take it as checked
    calls = []
    real = fan_cox.Fan.has_cone

    def counted(self, cone):
        calls.append(cone)
        return real(self, cone)

    monkeypatch.setattr(fan_cox.Fan, "has_cone", counted)
    assert main(["local", str(FIXTURES / "p1.fan"), "--cone", "1", "--p=-1", "--g", "th1"]) == 0
    assert "g-image: " in capsys.readouterr().out
    assert calls == [(0,)]


def test_charvar_charts_fails_before_the_report(tmp_path, monkeypatch, capsys):
    # no full-dimensional cone: --charts must stop before any Groebner work
    from toric_dmod import charvar
    fan = tmp_path / "nofull.fan"
    fan.write_text("n = 2\nrays = [[1, 1], [1, -1]]\nmax_cones = [[1], [2]]\n")
    mod = tmp_path / "m.mod"
    mod.write_text('side = "left"\ngenerator_degrees = [[0]]\n'
                   'relations = [["x1*d1 + x2*d2"]]\n')

    def no_report(*args):
        raise AssertionError("dimension_report ran")

    monkeypatch.setattr(charvar, "dimension_report", no_report)
    rc = main(["charvar", str(fan), str(mod), "--charts"])
    captured = capsys.readouterr()
    assert rc == 4
    assert captured.out == ""
    assert "not a full-dimensional maximal cone" in captured.err
    monkeypatch.undo()
    assert main(["charvar", str(fan), str(mod)]) == 0
    assert "char-ideal: " in capsys.readouterr().out


def test_one_smoothness_test_per_maximal_cone_in_a_charts_job(monkeypatch, capsys):
    # validation settles each cone; the chart code does not ask again
    calls = []
    real = fan_cox.cone_defect

    def counted(fan, cone):
        calls.append(cone)
        return real(fan, cone)

    for module in (fan_cox, dmod, charvar, cli):
        if getattr(module, "cone_defect", None) is real:
            monkeypatch.setattr(module, "cone_defect", counted)
    counts = []
    for name in FANS:
        calls.clear()
        assert main(["charvar", str(FIXTURES / f"{name}.fan"),
                     str(GOLDEN / f"{name}_dl0.mod"), "--charts", "--saturate"]) == 0
        assert "-window: " in capsys.readouterr().out
        counts.append(len(calls))
    maximal = [len(load_fan(str(FIXTURES / f"{name}.fan")).max_cones) for name in FANS]
    assert counts == maximal == [2, 3, 4, 4]


# The chart rewrite checks its own invariants; a failed check is a typed
# error with exit code 4, not a traceback. Each test breaks one invariant.


def _charts_p1(capsys, module=GOLDEN / "p1_dl0.mod"):
    rc = main(["charvar", str(FIXTURES / "p1.fan"), str(module), "--charts"])
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    return rc, err


def _corrupt_frame_sections(monkeypatch, corrupt):
    """Build each chart frame, then replace the section of deg(x_i) by
    corrupt(frame, i, section) for every i."""
    real = charvar.chart_frame

    def fake(grading, cone):
        frame = real(grading, cone)
        sections = tuple(corrupt(frame, i, s) for i, s in enumerate(frame.u_sections))
        return charvar.ChartFrame(frame.cone, frame.ring, frame.t_exponents, sections)

    monkeypatch.setattr(charvar, "chart_frame", fake)


def test_chart_rewrite_not_closing_exits_4(monkeypatch, capsys):
    # the section of each ray off the cone doubled: its cone exponents still
    # vanish, but it no longer has the ray's degree, and in p1_dl0's one
    # generator, x1*xi1 + x2*xi2 of degree 0, the xi-term of that ray leaves
    # a residual
    _corrupt_frame_sections(monkeypatch, lambda frame, i, s:
                            s if i in frame.cone else tuple(2 * x for x in s))
    rc, err = _charts_p1(capsys)
    assert rc == 4 and "failed to close" in err


def test_negative_torus_exponent_exits_4(tmp_path, monkeypatch, capsys):
    # the sections of the cone rays moved by 2 iota(m_j), which has degree 0:
    # on the delta module A(e) / (x1, x2) of P^1 the rewrite of x1 still
    # closes, but with t1^-1
    e_bar = grading_data(load_fan(str(FIXTURES / "p1.fan"))).e_bar
    module = tmp_path / "delta.mod"
    module.write_text(f'side = "left"\ngenerator_degrees = [{list(e_bar)}]\n'
                      'relations = [["x1"], ["x2"]]\n')

    def moved(frame, i, s):
        if i not in frame.cone:
            return s
        shift = frame.t_exponents[frame.cone.index(i)]
        return tuple(x + 2 * y for x, y in zip(s, shift))

    _corrupt_frame_sections(monkeypatch, moved)
    rc, err = _charts_p1(capsys, module)
    assert rc == 4 and "negative torus exponent" in err


def _section_pairing_relation(grading, j, cls, side):
    # the oracle for the shifted Euler operators: <u_j, cls> paired through
    # a lattice representative of cls, not read off its coordinates
    u = grading.dual_basis[j]
    shift = sum(x * y for x, y in zip(u, class_section(grading.class_group, cls)))
    return theta_u(u, shift if side == dmod.LEFT else -shift)


def _twisted_outputs(tmp_path, capsys) -> list:
    """What dl and dr print at two classes on each fixture fan and on the
    torsion fan (Cl = Z/2), and what check prints on each document, on its
    swap and on its relations under the other class's degree, where the
    theta condition fails unless the class group has no free part."""
    torsion = tmp_path / "torsion.fan"
    torsion.write_text("n = 2\nrays = [[1, 1], [1, -1]]\nmax_cones = []\n")
    jobs = [(FIXTURES / "p1.fan", ("3", "-2")), (FIXTURES / "p2.fan", ("1", "-4")),
            (FIXTURES / "p1p1.fan", ("1,-2", "-3,2")),
            (FIXTURES / "hirzebruch1.fan", ("2,-1", "-1,3")), (torsion, ("1", "0"))]
    module = tmp_path / "module.mod"
    outs = []

    def run(argv, document=None):
        if document is not None:
            module.write_text(document)
        rc, out, err = _main_in_process(capsys, argv)
        assert rc == 0 and not err, (argv, err)
        outs.append(out)
        return out

    for fan, classes in jobs:
        for cmd in ("dl", "dr"):
            docs = [run([cmd, str(fan), "--", cls]) for cls in classes]
            degrees = [doc.splitlines()[3] for doc in docs]
            assert all(line.startswith("generator_degrees = ") for line in degrees)
            for k, doc in enumerate(docs):
                check = ["check", str(fan), str(module)]
                run(check, doc)
                run(check, run(["swap", str(fan), str(module)]))
                run(check, doc.replace(degrees[k], degrees[1 - k]))
    return outs


def test_twisted_documents_and_checks_match_the_section_pairing(tmp_path, monkeypatch,
                                                                capsys):
    # the Euler shift <u_j, beta> is beta's j-th free coordinate: every
    # document and report is the one the pairing through section(beta) gives
    got = _twisted_outputs(tmp_path, capsys)
    assert sum("theta-condition: FAIL at generator 1, u = u" in out for out in got) == 16
    monkeypatch.setattr(dmod, "_euler_relation", _section_pairing_relation)
    assert _twisted_outputs(tmp_path, capsys) == got


def test_twisted_documents_and_checks_invert_nothing(tmp_path, monkeypatch, capsys):
    # no command inverts a Smith transform: dl, dr, swap and check read the
    # Euler shifts off the class, and charvar --charts reads the chart
    # sections off the frame. An inversion would run the one eliminator,
    # integer_rref, which the commands call only for the common-face test
    # and once per full-dimensional maximal cone of each fan they validate,
    # whose dual basis is R^-1 when the cone is unimodular
    callers, fans = [], []
    real, real_validate = lattice.integer_rref, fan_cox.validate_smooth_fan

    def counted(rows):
        callers.append(sys._getframe(1).f_code.co_name)
        return real(rows)

    def validate(fan):
        fans.append(fan)
        return real_validate(fan)

    monkeypatch.setattr(lattice, "integer_rref", counted)
    monkeypatch.setattr(fan_cox, "integer_rref", counted)
    monkeypatch.setattr(fan_cox, "validate_smooth_fan", validate)
    assert len(_twisted_outputs(tmp_path, capsys)) == 5 * 2 * 2 * 5
    for name in FANS:
        rc, out, _ = _main_in_process(capsys, ["charvar", str(FIXTURES / f"{name}.fan"),
                                               str(GOLDEN / f"{name}_dl0.mod"), "--charts"])
        assert rc == 0 and "-image: " in out
    assert set(callers) == {"_fm_feasible", "_unimodular_cone_data"}
    assert callers.count("_unimodular_cone_data") == sum(
        len(cone) == fan.n for fan in fans for cone in fan.max_cones) > 0


def test_dl_reduces_each_relation_degree_once(monkeypatch, capsys):
    # one reduce for the class argument, one in d_module_left, one for the
    # twist and one per Euler relation for its degree less the twist: 5 on
    # P1 x P1 and Hirzebruch 1, which have two Euler operators each
    calls = []
    real = lattice.FinitelyGeneratedAbelianGroup.reduce

    def counted(self, cls):
        calls.append(cls)
        return real(self, cls)

    monkeypatch.setattr(lattice.FinitelyGeneratedAbelianGroup, "reduce", counted)
    for name in ("p1p1", "hirzebruch1"):
        calls.clear()
        rc, out, _ = _main_in_process(capsys, ["dl", str(FIXTURES / f"{name}.fan"), "--",
                                               ZERO[name]])
        assert rc == 0 and out == (GOLDEN / f"{name}_dl0.mod").read_text()
        assert len(calls) == 5


def test_fan_info_builds_no_cotangent_ring(monkeypatch, capsys):
    # fan-info names x1..xd itself: S' (2d variables and their degrees) is
    # built only by the commands that compute in it
    def refuse(grading):
        raise AssertionError("fan-info built S'")

    monkeypatch.setattr(charvar, "s_prime_ring", refuse)
    for name in FANS:
        rc, out, _ = _main_in_process(capsys, ["fan-info", str(FIXTURES / f"{name}.fan")])
        assert rc == 0 and out == (GOLDEN / f"{name}_fan_info.txt").read_text()
