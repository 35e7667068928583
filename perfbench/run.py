"""Benchmark for the eplab command line: time to a verdict at a stated scope.

    python3 perfbench/run.py --workload midway --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0

One invocation runs one workload (see README.md) in this interpreter.  It
builds the workload's inputs from --seed, times its set-up, then runs whole
passes over the workload's operations, each checked against pinned outcomes:
at least the workload's MIN_PASSES, then more while they fit in --seconds.
With --trace 1 it runs one plain pass and one traced pass instead and reports
the per-layer metrics.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.  ``--workload all`` runs every
workload, each in a fresh interpreter, and prints their metrics as a table.
"""

import argparse
import ctypes
import gc
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"
SETUP_REPEATS = 10

_malloc_trim = ctypes.CDLL("libc.so.6").malloc_trim
_malloc_trim.argtypes = [ctypes.c_size_t]
_malloc_trim.restype = ctypes.c_int

sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

# (name, unit) of the metrics each mode reports, in BENCHMARK.json order.
END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
]
PER_LAYER = [
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("fields.Matrix.mul.calls", "count"),
    ("fields.Matrix.mul.self_s", "s"),
    ("rings.ring_make.self_s", "s"),
    ("modules.module_make.self_s", "s"),
    ("rings.is_left_pir.self_s", "s"),
    ("rings.principal_generator.calls", "count"),
    ("rings.principal_generator.self_s", "s"),
    ("rings.block_projections.self_s", "s"),
    ("modules.embedding_search.self_s", "s"),
    ("modules.socle_report.self_s", "s"),
    ("theorems.verify_necessity.self_s", "s"),
    ("modules.automorphism_group.calls", "count"),
    ("modules.automorphism_group.self_s", "s"),
    ("modules.is_pseudo_injective.self_s", "s"),
    ("theorems.verify_orbit_lemma.self_s", "s"),
    ("modules.submodule_generated.calls", "count"),
    ("modules.submodule_generated.self_s", "s"),
    ("modules.iter_linear_maps.calls", "count"),
    ("modules.iter_linear_maps.maps", "count"),
    ("modules.iter_linear_maps.self_s", "s"),
    ("codes.weight_profile.calls", "count"),
    ("codes.weight_profile.self_s", "s"),
    ("theorems.midway_peeling.calls", "count"),
    ("theorems.midway_peeling.self_s", "s"),
    ("theorems.midway_peeling.stages", "count"),
    ("codes.map_preserves.calls", "count"),
    ("codes.map_preserves.self_s", "s"),
    ("codes.extension_search.calls", "count"),
    ("codes.extension_search.self_s", "s"),
    ("codes.extension_search.nodes", "count"),
    ("codes.extension_search.found_ratio", "ratio"),
    ("codes.code_generate.self_s", "s"),
    ("codes.code_map_make.self_s", "s"),
    ("theorems.build_counterexample.self_s", "s"),
    ("theorems.build_counterexample.attempts", "count"),
    ("theorems.replay_pack.self_s", "s"),
    ("theorems.verify_midway.self_s", "s"),
    ("theorems.verify_midway.preserving_ratio", "ratio"),
    ("theorems.verify_sufficiency.self_s", "s"),
    ("theorems.verify_sufficiency.swc_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
]


# ---------------------------------------------------------------------------
# environment


def _load_eplab() -> None:
    """Import eplab from this checkout's src/ and nowhere else."""
    if not (SRC / "eplab" / "__init__.py").is_file():
        raise SystemExit(f"error: no eplab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import eplab

    if Path(eplab.__file__).resolve().parent != SRC / "eplab":
        raise SystemExit(f"error: eplab was imported from {eplab.__file__}, not {SRC}")


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    """What a result depends on besides the workload: interpreter, CPUs,
    commit, and a digest of the library sources (a checkout may have no git)."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "eplab").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": _commit(),
        "source_sha256": digest.hexdigest()[:16],
    }


# ---------------------------------------------------------------------------
# measurement


def _settle() -> None:
    """Collect garbage and hand freed heap back to the system, so that each
    operation starts from the same heap and the peak resident memory is that
    of the largest operation, whatever the order."""
    gc.collect()
    _malloc_trim(0)


def setup_once(ops) -> float:
    """Import eplab afresh and build every ring and module the workload's
    operations use; return the seconds taken."""
    for name in [n for n in sys.modules if n == "eplab" or n.startswith("eplab.")]:
        del sys.modules[name]
    _settle()
    start = time.perf_counter()
    importlib.import_module("eplab.cli")
    rings = sys.modules["eplab.rings"]
    modules = sys.modules["eplab.modules"]
    for spec in {json.dumps(op.spec, sort_keys=True): op.spec for op in ops}.values():
        modules.module_make(rings.ring_make(spec["ring"]), spec["module"])
    return time.perf_counter() - start


def run_pass(ops, rng) -> dict:
    """Run every operation once, in an order drawn from rng (canonical when
    rng is None); record each operation's wall and CPU seconds."""
    order = list(ops)
    if rng is not None:
        rng.shuffle(order)
    start = time.perf_counter()
    failed, times = 0, {}
    for op in order:
        _settle()
        cpu = time.process_time()
        ok, seconds, message = workloads.run_op(op)
        times[op.name] = (seconds, time.process_time() - cpu)
        if not ok:
            failed += 1
            print(f"FAILED {op.name}: {message}", file=sys.stderr)
    return {
        "wall": time.perf_counter() - start,
        "times": times,
        "attempted": len(order),
        "failed": failed,
    }


def measure(ops, rng, seconds: float, min_passes: int) -> tuple[list, dict]:
    """At least min_passes whole passes, then more while the next one is
    expected to end within seconds.

    Each operation's time is the fastest of its runs in the passes: a shared
    machine's CPU speed can drift by half for seconds at a time, and the
    minimum over runs spread across the run filters those phases out.
    """
    start = time.perf_counter()
    passes = [run_pass(ops, rng)]
    while (
        len(passes) < min_passes
        or time.perf_counter() - start + passes[-1]["wall"] <= seconds
    ):
        passes.append(run_pass(ops, rng))
    best = [
        tuple(min(p["times"][op.name][i] for p in passes) for i in (0, 1)) for op in ops
    ]
    metrics = {
        "wall_s": sum(wall for wall, _ in best),
        "cpu_s": sum(cpu for _, cpu in best),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return passes, metrics


def measure_traced(ops, rng, trace_path: Path) -> tuple[list, dict]:
    """One plain pass, then the same operations traced; per-layer metrics."""
    plain = run_pass(ops, rng)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        traced = run_pass(ops, rng)
    finally:
        tracer.uninstall()
    leftover = tracer.leftover_wrappers()
    if leftover:
        raise RuntimeError(f"trace wrappers not removed: {leftover}")
    metrics = {"trace.overhead_ratio": traced["wall"] / plain["wall"]}
    metrics.update((name, tracer.metric(name)) for name, _ in PER_LAYER if name not in metrics)
    trace_path.write_text(json.dumps(
        {"environment": environment(), "plain_wall_s": plain["wall"],
         "traced_wall_s": traced["wall"], **tracer.dump()},
        sort_keys=True,
    ))
    return [plain, traced], metrics


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    for key in [k for k in os.environ if k.startswith("EPLAB_MAX_")]:
        del os.environ[key]  # a stray guard would change the verified scope
    _load_eplab()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"{workload}-seed{seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        ops = workloads.build_ops(workload, seed, workdir)
        rng = random.Random(seed) if seed != 0 else None
        if trace:
            trace_path = OUT / f"trace-{workload}-seed{seed}.json"
            passes, metrics = measure_traced(ops, rng, trace_path)
            units = PER_LAYER
        else:
            # half the set-ups before the passes and half after, so that
            # they do not all fall into one slow phase of the machine
            setups = [setup_once(ops) for _ in range(SETUP_REPEATS // 2)]
            passes, metrics = measure(ops, rng, seconds, workloads.MIN_PASSES[workload])
            setups += [setup_once(ops) for _ in range(SETUP_REPEATS // 2)]
            metrics["setup_s"] = statistics.median(setups)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
    }


# ---------------------------------------------------------------------------
# command line


def _print_result(workload: str, result: dict) -> None:
    print(f"{workload}: {len(result['metrics'])} metrics, "
          f"fail_ratio {result['failed'] / result['attempted']} "
          f"({result['failed']} of {result['attempted']} operations failed)")
    for name, metric in result["metrics"].items():
        print(f"  {name:44s} {metric['value']!r:>24} {metric['unit']}")


def run_all(args) -> int:
    """Every workload in its own fresh interpreter."""
    ok = True
    for workload in workloads.WORKLOADS:
        argv = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exited with code {proc.returncode}")
            ok = False
            continue
        print(lines[0])
        result = json.loads(lines[-1])
        _print_result(workload, result)
        ok = ok and result["correct"]
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print("environment " + json.dumps(environment(), sort_keys=True))
    _print_result(args.workload, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
