"""Workload definitions: the eplab commands each workload runs, the spec files
they read, and the outcome every command is pinned to.

Each operation is one call of the `eplab` command line (``eplab.cli.main``)
with its report checked against pinned values; pack operations also reload
the emitted pack from JSON and replay it through ``eplab.theorems.replay_pack``.
The pinned counts are isomorphism invariants, so they hold for every seed.
"""

import contextlib
import dataclasses
import io
import json
import random
import time
import traceback
from typing import Optional

Z4 = {"kind": "mod_n", "n": 4}
Z8 = {"kind": "mod_n", "n": 8}
REGULAR = {"kind": "regular"}
Z2 = {"kind": "mod_m", "m": 2}
KLEIN = {"kind": "direct_sum", "summands": [Z2, Z2]}


def field(q: int) -> dict:
    return {"kind": "matrix", "m": 1, "q": q}


def column(k: int) -> dict:
    return {"kind": "column", "k": k}


# (name, ring descriptor, module descriptor, max_n, pinned counts)
MIDWAY = [
    ("Z4-Z2xZ2", Z4, KLEIN, 3,
     {"codes": 771, "monomorphisms": 2554368, "hamming_preserving": 154653, "peeled": 154653}),
    ("Z4", Z4, REGULAR, 3,
     {"codes": 131, "monomorphisms": 91548, "hamming_preserving": 2011, "peeled": 2011}),
    ("Z8", Z8, REGULAR, 2,
     {"codes": 41, "monomorphisms": 4104, "hamming_preserving": 432, "peeled": 432}),
]

SUFFICIENCY = [
    ("F2", field(2), REGULAR, 5,
     {"codes": 260, "isomorphisms": 153050, "swc_preserving": 5928, "extended": 5928}),
    ("Z4", Z4, REGULAR, 3,
     {"codes": 131, "isomorphisms": 91548, "swc_preserving": 2011, "extended": 2011}),
    ("F4", field(4), REGULAR, 3,
     {"codes": 52, "isomorphisms": 80964, "swc_preserving": 2925, "extended": 2925}),
    ("F8", field(8), REGULAR, 2,
     {"codes": 13, "isomorphisms": 4104, "swc_preserving": 478, "extended": 478}),
    ("F7", field(7), REGULAR, 2,
     {"codes": 12, "isomorphisms": 2408, "swc_preserving": 320, "extended": 320}),
]

# (name, ring, module, socle cyclic, socle order,
#  orbit lemma (result, orbit classes, annihilator classes),
#  necessity counts when the socle is not cyclic)
CERTIFY_ALPHABETS = [
    ("Z4", Z4, REGULAR, True, 2, ("verified", 3, 3), None),
    ("Z4-Z2xZ2", Z4, KLEIN, False, 4, ("verified", 2, 2),
     {"length": 3, "code_size": 4, "socle_blocks": 1}),
    ("Z4-Z2", Z4, Z2, True, 2, ("verified", 2, 2), None),
    ("F2^2", field(2), column(2), False, 4, ("verified", 2, 2),
     {"length": 3, "code_size": 4, "socle_blocks": 1}),
    ("M2F2-2x3", {"kind": "matrix", "m": 2, "q": 2}, column(3), False, 64, ("verified", 5, 5),
     {"length": 15, "code_size": 64, "socle_blocks": 1}),
    ("Z6", {"kind": "mod_n", "n": 6}, REGULAR, True, 6, ("verified", 4, 4), None),
    ("F2^4", field(2), column(4), False, 16, ("verified", 2, 2),
     {"length": 3, "code_size": 4, "socle_blocks": 1}),
    ("F3^3", field(3), column(3), False, 27, ("verified", 2, 2),
     {"length": 4, "code_size": 9, "socle_blocks": 1}),
    ("F4^2", field(4), column(2), False, 16, ("verified", 2, 2),
     {"length": 5, "code_size": 16, "socle_blocks": 1}),
    ("Z8+Z8", Z8, {"kind": "direct_sum", "summands": [REGULAR, REGULAR]}, False, 4,
     ("verified", 4, 4), {"length": 3, "code_size": 4, "socle_blocks": 1}),
    ("Z4+Z2xZ2", Z4, {"kind": "direct_sum", "summands": [REGULAR, Z2, Z2]}, False, 8,
     ("hypotheses-unmet", 4, 3), {"length": 3, "code_size": 4, "socle_blocks": 1}),
]

# (m, k, q) of the subspace counterexample packs; the pinned length is
# prod_{i=1}^{k-1} (1 + q^i) and the code size is q^(m k).
PACKS = [
    ((1, 2, 2), 3), ((1, 2, 3), 4), ((1, 2, 4), 5), ((1, 2, 5), 6), ((1, 2, 7), 8),
    ((1, 2, 8), 9), ((1, 3, 2), 15), ((2, 3, 2), 15), ((1, 3, 3), 40), ((1, 4, 2), 135),
]

WORKLOADS = ("midway", "sufficiency", "certify")

# Fewest passes per run.  Each operation counts with its fastest run, so
# several runs of it are kept where passes are short enough to afford them;
# one midway pass already takes longer than a whole run of the others.
MIN_PASSES = {"midway": 1, "sufficiency": 5, "certify": 2}


@dataclasses.dataclass
class Op:
    """One command line call plus the outcome it is pinned to.

    kind is "verdict" (a verifier report: result and counts), "socle"
    (cyclicity flag and socle order) or "pack" (an emitted pack that must
    replay as verified).
    """

    name: str
    argv: list
    kind: str
    expect: dict
    spec: dict


# ---------------------------------------------------------------------------
# seeded relabelling


def _relabel_perm(rng: random.Random, order: int, zero: int) -> list:
    """A random permutation of range(order) that fixes zero."""
    rest = [x for x in range(order) if x != zero]
    rng.shuffle(rest)
    perm = [0] * order
    perm[zero] = zero
    for old, new in zip((x for x in range(order) if x != zero), rest):
        perm[old] = new
    return perm


def _permute_table(table, row_perm, col_perm, val_perm) -> list:
    out = [[0] * len(col_perm) for _ in row_perm]
    for r, row in enumerate(table):
        for c, v in enumerate(row):
            out[row_perm[r]][col_perm[c]] = val_perm[v]
    return out


def relabelled_spec(ring_desc: dict, module_desc: dict, rng: random.Random) -> dict:
    """The same alphabet as table descriptors, with ring and module elements
    renamed by random permutations that fix zero."""
    from eplab.modules import module_make
    from eplab.rings import ring_make

    ring = ring_make(ring_desc)
    module = module_make(ring, module_desc)
    pr = _relabel_perm(rng, ring.order, ring.zero)
    pm = _relabel_perm(rng, module.order, module.zero)
    return {
        "ring": {
            "kind": "table",
            "add": _permute_table(ring.add_table, pr, pr, pr),
            "mul": _permute_table(ring.mul_table, pr, pr, pr),
        },
        "module": {
            "kind": "table",
            "add": _permute_table(module.add_table, pm, pm, pm),
            "act": _permute_table(module.act_table, pr, pm, pm),
        },
    }


# ---------------------------------------------------------------------------
# operation lists


def build_ops(workload: str, seed: int, workdir, max_n_cap: Optional[int] = None) -> list:
    """The workload's operations in canonical order, with spec files written
    to workdir.  Seed 0 keeps the named descriptors; other seeds relabel the
    midway and sufficiency alphabets.  max_n_cap lowers every sweep's length
    bound and drops the pins that depend on it (used by the self-tests)."""
    rng = random.Random(seed)
    ops = []

    def spec_file(name: str, spec: dict) -> str:
        path = workdir / f"{workload}-{name}.json"
        path.write_text(json.dumps(spec))
        return str(path)

    if workload in ("midway", "sufficiency"):
        command = "verify-" + workload
        for name, ring_desc, module_desc, max_n, counts in (
            MIDWAY if workload == "midway" else SUFFICIENCY
        ):
            if seed == 0:
                spec = {"ring": ring_desc, "module": module_desc}
            else:
                spec = relabelled_spec(ring_desc, module_desc, rng)
            expect = {"exit": 0, "result": "verified", "counts": counts}
            if max_n_cap is not None and max_n > max_n_cap:
                max_n, expect = max_n_cap, {"exit": 0, "result": "verified"}
            argv = [command, "--spec", spec_file(name, spec),
                    "--max-n", str(max_n), "--max-gens", "2"]
            ops.append(Op(f"{command} {name}", argv, "verdict", expect, spec))
    elif workload == "certify":
        for name, ring_desc, module_desc, cyclic, socle_order, lemma, nec in CERTIFY_ALPHABETS:
            spec = {"ring": ring_desc, "module": module_desc}
            path = spec_file(name, spec)
            ops.append(Op(f"socle-report {name}", ["socle-report", "--spec", path], "socle",
                          {"exit": 0, "cyclic": cyclic, "socle_order": socle_order}, spec))
            result, orbit_classes, ann_classes = lemma
            ops.append(Op(
                f"verify-orbit-lemma {name}", ["verify-orbit-lemma", "--spec", path], "verdict",
                {"exit": 0 if result == "verified" else 2, "result": result,
                 "counts": {"orbit_classes": orbit_classes, "annihilator_classes": ann_classes}},
                spec,
            ))
            necessity = (
                {"exit": 2, "result": "hypotheses-unmet", "counts": {}} if nec is None
                else {"exit": 1, "result": "counterexample", "counts": nec}
            )
            ops.append(Op(f"verify-necessity {name}", ["verify-necessity", "--spec", path],
                          "verdict", necessity, spec))
        for (m, k, q), length in PACKS:
            spec = {"ring": {"kind": "matrix", "m": m, "q": q}, "module": column(k)}
            ops.append(Op(
                f"ep-counterexample {m},{k},{q}",
                ["ep-counterexample", "--m", str(m), "--k", str(k), "--q", str(q)],
                "pack", {"exit": 1, "length": length, "code_size": q ** (m * k)}, spec,
            ))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops


# ---------------------------------------------------------------------------
# running and checking one operation


def check_report(op: Op, rc: int, report: Optional[dict]) -> list:
    """Mismatches between a command's exit code and report and its pins.
    A pack, already through a JSON round trip, must also replay as verified."""
    from eplab import theorems

    exp = op.expect
    if rc != exp["exit"]:
        return [f"exit code {rc}, expected {exp['exit']}"]
    result = report["result"]
    if op.kind == "socle":
        got = {"cyclic": result["cyclic"], "socle_order": result["socle_order"]}
    elif op.kind == "pack":
        pack = result["pack"]
        got = {"length": pack["length"], "code_size": pack["params"]["code_size"]}
    else:
        got = {"result": result["result"], "counts": result["counts"]}
    bad = [
        f"{key} is {got[key]!r}, expected {exp[key]!r}"
        for key in exp if key != "exit" and got[key] != exp[key]
    ]
    if not bad and op.kind == "pack":
        verdict = theorems.replay_pack(theorems.pack_from_json(result["pack"]))
        if verdict.result != "verified":
            bad.append(f"pack replays as {verdict.result}: {verdict.details['checks']}")
    return bad


def run_op(op: Op) -> tuple:
    """Run one operation; return (ok, seconds, message).

    A raised exception or any pinned value that differs makes the operation
    fail; the run goes on with the next one.
    """
    from eplab import cli

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(op.argv))
        text = out.getvalue()
        report = json.loads(text) if text else None
        bad = check_report(op, rc, report)
    except Exception:  # an operation that raises is a failed operation
        bad = [traceback.format_exc(limit=3) + err.getvalue()]
    seconds = time.perf_counter() - start
    return not bad, seconds, "; ".join(bad)
