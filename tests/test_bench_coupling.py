"""The benchmark's tracer (bench/tracing.py) wraps the library's entry points
by name: module functions such as socle.homogeneous_component, the names
cli re-imported, methods such as LeftIdeal.contains and the cached action
tables.  A renamed or removed name breaks every traced benchmark run, so
this test installs the tracer on the imported steinberg modules and checks
that each name it patches exists and gets its original object back."""

import importlib
import importlib.util
from pathlib import Path
from types import SimpleNamespace

MODULES = ("cli", "builders", "groupoid", "algebra", "fields", "linalg",
           "limits", "socle", "oracle", "graphs")


def _tracer_class():
    path = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def _owners(modules):
    """Every module and every class defined in one, with a copy of its dict."""
    owners = []
    for module in modules:
        owners.append(module)
        owners += [v for v in vars(module).values()
                   if isinstance(v, type) and v.__module__ == module.__name__]
    return [(owner, dict(vars(owner))) for owner in owners]


def test_tracer_patches_existing_names_and_restores_them():
    modules = {name: importlib.import_module(f"steinberg.{name}") for name in MODULES}
    before = _owners(modules.values())
    tracer = _tracer_class()()
    try:
        tracer.install(SimpleNamespace(**modules))
        patched = [
            (owner, attr)
            for owner, attrs in before
            for attr, value in attrs.items()
            if vars(owner).get(attr) is not value
        ]
    finally:
        tracer.uninstall()
    names = {f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr in patched}
    assert {"steinberg.socle.homogeneous_component", "LeftIdeal.contains",
            "steinberg.cli.left_ideal", "steinberg.cli.minimal_ideal_generator",
            "EchelonBasis.insert", "SteinbergAlgebra.left_action_table"} <= names
    for owner, attrs in before:
        for attr, value in attrs.items():
            assert vars(owner).get(attr) is value, f"{owner!r}.{attr} was not restored"
        assert set(vars(owner)) == set(attrs), f"{owner!r} gained or lost names"
