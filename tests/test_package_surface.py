"""The package exposes its modules and nothing else, every module-level
function and class has a caller (the names that nothing in the program or
the benchmark uses are exactly the allowlist below, and a test calls each of
them), every method has a caller outside its class, every imported name is
used by the module that imports it, and modules keep no state of their own.
Source is only read here.
"""

import ast
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "toric_dmod"

# Called from tests only, and kept on purpose: the checkers of the paper's
# claims, an independent oracle, and helpers the tests build on.
TEST_ONLY = {
    "bimodule_identity_check", "left_right_identity_check",
    "verify_char_containment",
    "verify_local_action", "k_component",
    "to_theta_form", "from_theta_form",
    "sigma_hat_monomial",
}


def _modules():
    return {path: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}


def _used_names(node) -> set:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
    return names


def test_package_init_binds_only_its_docstring():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    assert len(tree.body) == 1
    assert isinstance(tree.body[0], ast.Expr)
    assert isinstance(tree.body[0].value, ast.Constant)
    assert isinstance(tree.body[0].value.value, str)


def test_every_module_level_definition_has_a_caller():
    # a stale allowlist entry would keep a dead name alive, so the names
    # without a caller in src/ or perfbench/ must be the allowlist exactly
    modules = _modules()
    statements = [(path, stmt) for path, tree in modules.items() for stmt in tree.body]
    bench = "\n".join(path.read_text(encoding="utf-8")
                      for path in sorted((ROOT / "perfbench").glob("*.py")))
    uncalled = set()
    for _, stmt in statements:
        if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            continue
        name = stmt.name
        # uses inside the definition itself (recursion, a class naming
        # itself) do not count
        if any(name in _used_names(other) for _, other in statements if other is not stmt):
            continue
        if re.search(rf"\b{name}\b", bench):
            continue
        uncalled.add(name)
    assert uncalled == TEST_ONLY


def _attributes(node) -> set:
    return {sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)}


def test_every_method_has_a_caller():
    # a method counts as used where it is named as an attribute outside its
    # class (in src/ or perfbench/), or by a used method of its own class;
    # Python calls the dunders. A method named like an attribute read
    # elsewhere passes, so this misses some dead methods but flags no live one
    statements = [(path, stmt) for path, tree in _modules().items() for stmt in tree.body]
    attributes = [_attributes(stmt) for _, stmt in statements]
    bench = "\n".join(path.read_text(encoding="utf-8")
                      for path in sorted((ROOT / "perfbench").glob("*.py")))
    uncalled = []
    for k, (path, cls) in enumerate(statements):
        if not isinstance(cls, ast.ClassDef):
            continue
        methods = {m.name: m for m in cls.body if isinstance(m, ast.FunctionDef)}
        outside = set().union(*attributes[:k], *attributes[k + 1:])
        live = {name for name in methods
                if name.startswith("__") and name.endswith("__") or name in outside
                or re.search(rf"\b{name}\b", bench)}
        while True:
            reached = set().union(*(_attributes(methods[name]) for name in live))
            grown = live | (reached & methods.keys())
            if grown == live:
                break
            live = grown
        uncalled += [f"{path.stem}.{cls.name}.{name}" for name in methods if name not in live]
    assert not uncalled


def test_every_test_only_name_is_called_from_a_test():
    called = set()
    for path in sorted((ROOT / "tests").glob("test_*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                called.add(func.id if isinstance(func, ast.Name) else
                           func.attr if isinstance(func, ast.Attribute) else None)
    assert TEST_ONLY <= called


def test_every_imported_name_is_used():
    # what a deletion leaves behind: an import whose last user is gone
    unused = []
    for path, tree in _modules().items():
        loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in loaded:
                        unused.append(f"{path.stem}: {bound}")
    assert not unused


def _constant_value(node) -> bool:
    """A literal, a name, arithmetic on those, or re.compile of a literal."""
    if isinstance(node, (ast.Constant, ast.Name)):
        return True
    if isinstance(node, ast.BinOp):
        return _constant_value(node.left) and _constant_value(node.right)
    if isinstance(node, ast.UnaryOp):
        return _constant_value(node.operand)
    return (isinstance(node, ast.Call) and ast.unparse(node.func) == "re.compile"
            and all(isinstance(arg, ast.Constant) for arg in node.args))


def test_modules_keep_no_state():
    # a module-level dict, list or object would be state shared by every
    # caller in the process; the CLI parser, built once by cli.main, is the
    # one exception
    mutable, rebinders = [], set()
    for path, tree in _modules().items():
        for stmt in tree.body:
            if isinstance(stmt, ast.AugAssign) or (
                    isinstance(stmt, (ast.Assign, ast.AnnAssign))
                    and stmt.value is not None and not _constant_value(stmt.value)):
                mutable.append(f"{path.stem}:{stmt.lineno}")
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and \
                    any(isinstance(sub, ast.Global) for sub in ast.walk(node)):
                rebinders.add(f"{path.stem}.{node.name}")
    assert not mutable
    assert rebinders <= {"cli.main"}


def test_cli_import_loads_no_heavy_stdlib_module():
    # python -S leaves out site and its hooks, so the modules loaded are the
    # interpreter's own and the CLI's: none of these four, whose import made
    # up about a third of the CLI's (dataclasses and inspect for eight
    # record classes, typing for one annotation, ast for a fallback parser)
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import toric_dmod.cli; "
            "print(' '.join(sorted(set(sys.argv[2:]) & set(sys.modules))))")
    heavy = ["dataclasses", "inspect", "typing", "ast"]
    proc = subprocess.run([sys.executable, "-S", "-c", code, str(ROOT / "src"), *heavy],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
