"""The package exposes its modules and nothing else, every module-level
function and class has a caller (the names that nothing in the program or
the benchmark uses are exactly the allowlist below, and a test calls each of
them), every method has a caller outside its class, every imported name is
used by the module or test module that imports it, modules keep no state of
their own, each module imports only the modules before it in LAYERS, and
every package name the README quotes exists. Source is only read here.
"""

import ast
import builtins
import importlib
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
}

# Each module imports only modules before it.
LAYERS = ("errors", "parsing", "lattice", "weyl", "groebner", "fan_cox", "dmod",
          "charvar", "cli")


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


def _uses(node) -> tuple[set, set]:
    """The attribute names read in node, and those called (x.name(...))."""
    called = {sub.func.attr for sub in ast.walk(node)
              if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute)}
    return _attributes(node), called


def _is_property(method) -> bool:
    return any(ast.unparse(deco) in ("property", "cached_property")
               for deco in method.decorator_list)


def _used(method, read: set, called: set, bench: str) -> bool:
    """A property is used where it is read, a plain method where it is called."""
    name = method.name
    if _is_property(method):
        return name in read or re.search(rf"\.{name}\b", bench) is not None
    return name in called or re.search(rf"\.{name}\(", bench) is not None


def test_every_method_has_a_caller():
    # a plain method counts as used where it is called as x.name(...) outside
    # its class (in src/ or perfbench/), or by a used method of its own
    # class; a property or cached_property where it is read. Python calls
    # the dunders. A method passed uncalled (key=x.name) would be flagged
    statements = [(path, stmt) for path, tree in _modules().items() for stmt in tree.body]
    uses = [_uses(stmt) for _, stmt in statements]
    bench = "\n".join(path.read_text(encoding="utf-8")
                      for path in sorted((ROOT / "perfbench").glob("*.py")))
    uncalled = []
    for k, (path, cls) in enumerate(statements):
        if not isinstance(cls, ast.ClassDef):
            continue
        methods = {m.name: m for m in cls.body if isinstance(m, ast.FunctionDef)}
        others = uses[:k] + uses[k + 1:]
        read = set().union(*(r for r, _ in others))
        called = set().union(*(c for _, c in others))
        live = {name for name, method in methods.items()
                if name.startswith("__") and name.endswith("__")
                or _used(method, read, called, bench)}
        while True:
            inner = [_uses(methods[name]) for name in live]
            read = set().union(*(r for r, _ in inner))
            called = set().union(*(c for _, c in inner))
            grown = live | {name for name, method in methods.items()
                            if _used(method, read, called, "")}
            if grown == live:
                break
            live = grown
        uncalled += [f"{path.stem}.{cls.name}.{name}" for name in methods if name not in live]
    assert not uncalled


def test_modules_import_only_earlier_layers():
    # the order holds, and weyl and groebner know nothing of the grading:
    # the class map of a monomial is class_group.project, read above them
    assert {path.stem for path in _modules()} == set(LAYERS)
    upward, grading = [], []
    for path, tree in _modules().items():
        earlier = set(LAYERS[:LAYERS.index(path.stem)])
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                names = [node.module] if node.module else [a.name for a in node.names]
                upward += [f"{path.stem} imports {name}" for name in names
                           if name not in earlier]
        if path.stem in ("weyl", "groebner"):
            grading += sorted(f"{path.stem} reads .{attr}" for attr in
                              _attributes(tree) & {"class_group", "group", "degrees"})
    assert not upward
    assert not grading


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
    # what a deletion leaves behind: an import whose last user is gone, in
    # the package or in the tests
    unused = []
    tests = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "tests").glob("*.py"))}
    for path, tree in {**_modules(), **tests}.items():
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


def _readme_spans() -> list:
    return re.findall(r"`([^`\n]+)`", (ROOT / "README.md").read_text(encoding="utf-8"))


def test_every_name_the_readme_quotes_exists():
    # a backticked module.name (module one of LAYERS, a trailing * a prefix
    # wildcard) resolves by getattr, and a backticked CamelCase name that is
    # not a builtin is defined in src/: a deletion that leaves the README
    # naming what is gone fails here
    dotted = re.compile(rf"(?<![\w.])({'|'.join(LAYERS)})((?:\.\w+)+)(\*?)")
    camel = re.compile(r"\b[A-Z][a-z0-9]+[A-Z][A-Za-z0-9]*\b")
    # the classes, and the module-level names, of src/
    defined = set()
    for tree in _modules().values():
        defined |= {node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
        defined |= {target.id for stmt in tree.body if isinstance(stmt, ast.Assign)
                    for target in stmt.targets if isinstance(target, ast.Name)}
    missing, quoted = [], set()
    for span in _readme_spans():
        for match in dotted.finditer(span):
            quoted.add(match.group(0))
            obj = importlib.import_module(f"toric_dmod.{match.group(1)}")
            *path, last = match.group(2)[1:].split(".")
            for attr in path:
                obj = getattr(obj, attr, None)
            if match.group(3):
                found = any(name.startswith(last) for name in dir(obj))
            else:
                found = hasattr(obj, last)
            if obj is None or not found:
                missing.append(match.group(0))
        for name in camel.findall(span):
            quoted.add(name)
            if not hasattr(builtins, name) and name not in defined:
                missing.append(name)
    assert not missing
    # the README quotes both kinds, wildcards among them
    assert {"cli.cmd_*", "weyl.tp_*", "dmod.require_chart_cone", "GradingData"} <= quoted
