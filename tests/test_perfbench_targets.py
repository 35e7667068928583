"""The benchmark tracer wraps eplab functions by name; each must exist."""

import functools
import importlib
import importlib.util
import pathlib


def _traced():
    path = pathlib.Path(__file__).parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TRACED


def test_every_traced_name_resolves():
    missing = []
    for layer, qualname, _ in _traced():
        try:
            functools.reduce(getattr, qualname.split("."), importlib.import_module(f"eplab.{layer}"))
        except AttributeError:
            missing.append(f"{layer}.{qualname}")
    assert missing == []
