"""Self-tests of the benchmark: seeded inputs, pinned-outcome checks and the
per-layer tracer.  Run with ``python3 -m pytest perfbench``."""

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

run._load_eplab()

from eplab import cli, fields, theorems  # noqa: E402


def _report(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(list(argv))
    return rc, json.loads(out.getvalue())["result"]


def test_relabelled_specs_give_canonical_counts(tmp_path):
    for workload in ("midway", "sufficiency"):
        canonical = workloads.build_ops(workload, 0, tmp_path, max_n_cap=2)
        for seed in (1, 2):
            relabelled = workloads.build_ops(workload, seed, tmp_path, max_n_cap=2)
            for a, b in zip(canonical, relabelled):
                assert b.spec["ring"]["kind"] == "table" and a.spec != b.spec
                (rc_a, rep_a), (rc_b, rep_b) = _report(a.argv), _report(b.argv)
                assert rc_a == rc_b == 0, (workload, seed, a.name)
                assert rep_a["result"] == rep_b["result"] == "verified"
                assert rep_a["counts"] == rep_b["counts"], (workload, seed, a.name)


def test_seed_decides_the_inputs(tmp_path):
    def specs(workload, seed):
        workdir = tmp_path / f"{workload}-{seed}"
        workdir.mkdir(exist_ok=True)
        return [op.spec for op in workloads.build_ops(workload, seed, workdir)]

    assert specs("midway", 3) == specs("midway", 3) != specs("midway", 4)
    assert specs("certify", 3) == specs("certify", 0)


def test_wrong_pin_is_a_failed_operation(tmp_path, capsys):
    ops = workloads.build_ops("midway", 0, tmp_path)
    z8 = next(op for op in ops if op.name == "verify-midway Z8")
    ok, _, message = workloads.run_op(z8)
    assert ok and message == ""

    z8.expect = dict(z8.expect, counts=dict(z8.expect["counts"], codes=42))
    ok, _, message = workloads.run_op(z8)
    assert not ok and "counts" in message and "42" in message

    missing = workloads.Op("no spec", ["verify-midway", "--spec", str(tmp_path / "none.json")],
                           "verdict", {"exit": 0, "result": "verified", "counts": {}}, z8.spec)
    summary = run.run_pass([z8, missing], None)
    assert summary["attempted"] == 2 and summary["failed"] == 2
    assert "FAILED verify-midway Z8" in capsys.readouterr().err


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_on_a_synthetic_span_tree():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)

    def leaf():
        clock.now += 1.0

    def middle():
        clock.now += 2.0
        leaf_w()
        clock.now += 0.5
        leaf_w()

    def top():
        clock.now += 3.0
        middle_w()
        leaf_w()
        for _ in gen_w():
            clock.now += 10.0

    def gen():
        for _ in range(4):
            clock.now += 0.25
            yield None

    leaf_w = tracer.wrap("leaf", leaf, "sum")
    middle_w = tracer.wrap("middle", middle, "span")
    top_w = tracer.wrap("top", top, "span")
    gen_w = tracer.wrap("gen", gen, "gen")
    top_w()

    # top runs 3 + middle (2 + 1 + 0.5 + 1) + leaf 1 + gen 4 * 0.25 + 40 = 49.5
    assert tracer.stats["top"] == [1, 3.0 + 40.0]
    assert tracer.stats["middle"] == [1, 2.5]
    assert tracer.stats["leaf"] == [3, 3.0]
    assert tracer.stats["gen"] == [1, 1.0]
    assert tracer.counters["gen"]["maps"] == 4
    (mid_id, mid_parent, *_), (top_id, top_parent, _, start, end, own) = tracer.spans
    assert mid_parent == top_id and top_parent is None
    assert (start, end, own) == (0.0, 49.5, 43.0)
    assert tracer.metric("leaf.calls") == 3 and tracer.metric("middle.self_s") == 2.5


def test_wrappers_cover_imports_and_closures_and_are_removed(tmp_path):
    handler_cell = next(
        cell for cell in cli._HANDLERS["verify-midway"].__closure__
        if cell.cell_contents is theorems.verify_midway
    )
    originals = {
        "cli.main": cli.main,
        "theorems.iter_linear_maps": theorems.iter_linear_maps,
        "Matrix.mul": fields.Matrix.mul,
        "cell": handler_cell.cell_contents,
    }
    z8 = next(op for op in workloads.build_ops("midway", 0, tmp_path)
              if op.name == "verify-midway Z8")
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert cli.main.__wrapped__ is originals["cli.main"]
        assert theorems.iter_linear_maps.__wrapped__ is originals["theorems.iter_linear_maps"]
        assert handler_cell.cell_contents.__wrapped__ is originals["cell"]
        assert fields.Matrix.mul.__wrapped__ is originals["Matrix.mul"]
        assert workloads.run_op(z8)[0]
    finally:
        tracer.uninstall()
    assert tracer.leftover_wrappers() == []
    assert cli.main is originals["cli.main"]
    assert theorems.iter_linear_maps is originals["theorems.iter_linear_maps"]
    assert fields.Matrix.mul is originals["Matrix.mul"]
    assert handler_cell.cell_contents is originals["cell"]
    assert tracer.metric("theorems.verify_midway.calls") == 1
    assert tracer.metric("modules.iter_linear_maps.maps") >= 4104
    assert tracer.metric("theorems.midway_peeling.calls") == 432


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
