"""The benchmark drives eplab by name and pins its outcomes: every traced
function must exist, and every pinned operation must pass."""

import functools
import importlib
import importlib.util
import pathlib
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    """Each TRACED name exists; Tracer.install, which reads it out of its
    owner's namespace and raises KeyError on a missing one, wraps them all,
    and uninstall removes every wrapper, as in a traced benchmark run."""
    tracing = _load("tracing")
    missing = []
    for layer, qualname, _ in tracing.TRACED:
        try:
            functools.reduce(getattr, qualname.split("."), importlib.import_module(f"eplab.{layer}"))
        except AttributeError:
            missing.append(f"{layer}.{qualname}")
    assert missing == []
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert sorted(tracer.stats) == sorted(f"{layer}.{name}" for layer, name, _ in tracing.TRACED)
    finally:
        tracer.uninstall()
    assert tracer.leftover_wrappers() == []


def _snapshot():
    return {path: path.stat().st_mtime_ns for path in PERFBENCH.rglob("*")}


# certify's operations do not depend on the seed
@pytest.mark.parametrize(
    "workload, seeds",
    [("midway", (0, 1)), ("sufficiency", (0, 1)), ("certify", (0,))],
    ids=["midway", "sufficiency", "certify"],
)
def test_every_pinned_operation_passes(workload, seeds, tmp_path, monkeypatch):
    before = _snapshot()
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    workloads = _load("workloads")
    failed = []
    for seed in seeds:
        workdir = tmp_path / str(seed)
        workdir.mkdir()
        for op in workloads.build_ops(workload, seed, workdir):
            ok, _, message = workloads.run_op(op)
            if not ok:
                failed.append(f"{op.name} at seed {seed}: {message}")
    assert failed == []
    assert _snapshot() == before
