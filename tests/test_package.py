"""The package namespace: ``steinberg.__all__`` lists exactly what ``__init__`` binds."""

import types

import steinberg


def test_all_matches_the_public_names_bound_in_init():
    bound = {
        name
        for name, value in vars(steinberg).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(steinberg.__all__) == len(set(steinberg.__all__))
    assert set(steinberg.__all__) == bound
    namespace: dict = {}
    exec("from steinberg import *", namespace)
    assert all(namespace[name] is getattr(steinberg, name) for name in steinberg.__all__)
