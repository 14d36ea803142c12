"""The benchmark's span tracer (perfbench/tracer.py, run with --trace 1)
wraps functions of the package by name; a function that moves or is renamed
must not break traced runs. The tracer file is only read here."""

import importlib
import importlib.util
import pathlib

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_a_module_level_callable():
    tracer = _tracer()
    missing = []
    for layer, names in tracer.TRACED.items():
        module = importlib.import_module(f"toric_dmod.{layer}")
        missing += [f"{layer}.{name}" for name in names
                    if not callable(vars(module).get(name))]
    assert not missing


def test_basis_functions_are_traced():
    tracer = _tracer()
    traced = {f"{layer}.{name}" for layer, names in tracer.TRACED.items() for name in names}
    assert tracer.BASIS_FUNCS <= traced
