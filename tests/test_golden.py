"""Byte-for-byte stdout of cheap CLI commands, compared against tests/golden/.

Each case writes its spec file to a temporary directory and runs the command
in-process with every EPLAB_MAX_* variable removed, so only the default guards
apply.  Reports echo descriptors but never paths, so the output does not
depend on where the spec file lives.

Regenerate the files (only on purpose, and say why in CHANGES.md) with

    PYTHONPATH=src python tests/test_golden.py [STEM ...]

which rewrites the named files, or every file when no stem is given; the
pack files that ep-counterexample writes with --out (pack-M-K-Q.json) are
rewritten only when no stem is given.
"""

import contextlib
import difflib
import io
import json
import os
import pathlib
import sys
import tempfile

import pytest

from eplab.cli import main

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

Z4 = {"kind": "mod_n", "n": 4}
REGULAR = {"kind": "regular"}
KLEIN = {"kind": "direct_sum", "summands": [{"kind": "mod_m", "m": 2}, {"kind": "mod_m", "m": 2}]}
Z2xZ3 = {"kind": "product", "factors": [{"kind": "mod_n", "n": 2}, {"kind": "mod_n", "n": 3}]}
F2xF2 = {"kind": "product", "factors": [{"kind": "mod_n", "n": 2}, {"kind": "mod_n", "n": 2}]}


def _relabelled_sum(m1: int, m2: int, relabel: tuple) -> dict:
    """Z/m1 (+) Z/m2 over Z/4 as a table module whose element (a, b) gets
    index relabel[m2*a + b]."""
    pairs = [(a, b) for a in range(m1) for b in range(m2)]
    index = {pair: relabel[i] for i, pair in enumerate(pairs)}
    add = [[0] * len(pairs) for _ in pairs]
    act = [[0] * len(pairs) for _ in range(4)]
    for a, b in pairs:
        for c, d in pairs:
            add[index[a, b]][index[c, d]] = index[(a + c) % m1, (b + d) % m2]
        for r in range(4):
            act[r][index[a, b]] = index[(r * a) % m1, (r * b) % m2]
    return {"kind": "table", "add": add, "act": act}


def _f2xf2_simples(factors: tuple) -> dict:
    """T_f1 (+) T_f2 (+) ... over F_2 x F_2 as a table module, where T_f is F_2
    with (a_1, a_2) acting as a_f; summand i is bit len(factors)-1-i."""
    n = len(factors)
    add = [[x ^ y for y in range(2 ** n)] for x in range(2 ** n)]
    act = [
        [
            sum(((r >> (1 - f)) & (x >> (n - 1 - i)) & 1) << (n - 1 - i) for i, f in enumerate(factors))
            for x in range(2 ** n)
        ]
        for r in range(4)
    ]
    return {"kind": "table", "add": add, "act": act}


# the six acceptance alphabets plus the product ring Z/2 x Z/3 over itself
ALPHABETS = {
    "z4": {"ring": Z4, "module": REGULAR},
    "z4-klein": {"ring": Z4, "module": KLEIN},
    "z4-z2": {"ring": Z4, "module": {"kind": "mod_m", "m": 2}},
    "f2-col2": {"ring": {"kind": "matrix", "m": 1, "q": 2}, "module": {"kind": "column", "k": 2}},
    "m2f2-col3": {"ring": {"kind": "matrix", "m": 2, "q": 2}, "module": {"kind": "column", "k": 3}},
    "z6": {"ring": {"kind": "mod_n", "n": 6}, "module": REGULAR},
    "z2xz3": {"ring": Z2xZ3, "module": REGULAR},
}
SPECS = {
    **ALPHABETS,
    "z2xz3-sum": {"ring": Z2xZ3, "module": {"kind": "direct_sum", "summands": [REGULAR, REGULAR]}},
    "z8": {"ring": {"kind": "mod_n", "n": 8}, "module": REGULAR},
    "z9": {"ring": {"kind": "mod_n", "n": 9}, "module": REGULAR},
    "f2": {"ring": {"kind": "matrix", "m": 1, "q": 2}, "module": REGULAR},
    "f4": {"ring": {"kind": "matrix", "m": 1, "q": 4}, "module": REGULAR},
    "f7": {"ring": {"kind": "matrix", "m": 1, "q": 7}, "module": REGULAR},
    "f8": {"ring": {"kind": "matrix", "m": 1, "q": 8}, "module": REGULAR},
    "m2f2": {"ring": {"kind": "matrix", "m": 2, "q": 2}, "module": REGULAR},
    # F_3^2 over M_2(F_3): a non-commutative ring whose 48 units act as GL(2, 3),
    # while Aut(A) is only the scalars 1 and 2
    "m2f3-col1": {"ring": {"kind": "matrix", "m": 2, "q": 3}, "module": {"kind": "column", "k": 1}},
    # zero sits at index 5, not 0, so discovery order, sorted order and
    # group order of the maps all differ
    "z4-z2-table": {"ring": Z4, "module": _relabelled_sum(4, 2, (5, 2, 7, 0, 3, 6, 1, 4))},
    # (Z/2)^2 over Z/4 with zero at index 2
    "z4-klein-table": {"ring": Z4, "module": _relabelled_sum(2, 2, (2, 0, 3, 1))},
    # F_2^3: Aut(A) is GL(3, 2), with 168 elements
    "f2-col3": {"ring": {"kind": "matrix", "m": 1, "q": 2}, "module": {"kind": "column", "k": 3}},
    # F_2^4: Aut(A) is GL(4, 2), with 20,160 elements
    "f2-col4": {"ring": {"kind": "matrix", "m": 1, "q": 2}, "module": {"kind": "column", "k": 4}},
    # F_3^3: Aut(A) is GL(3, 3), with 11,232 elements
    "f3-col3": {"ring": {"kind": "matrix", "m": 1, "q": 3}, "module": {"kind": "column", "k": 3}},
    "f3-col2": {"ring": {"kind": "matrix", "m": 1, "q": 3}, "module": {"kind": "column", "k": 2}},
    # F_2^5: its proper subspaces have 651,961 monomorphisms into it
    "f2-col5": {"ring": {"kind": "matrix", "m": 1, "q": 2}, "module": {"kind": "column", "k": 5}},
    "f3-col4": {"ring": {"kind": "matrix", "m": 1, "q": 3}, "module": {"kind": "column", "k": 4}},
    "f2-col6": {"ring": {"kind": "matrix", "m": 1, "q": 2}, "module": {"kind": "column", "k": 6}},
    "f2-col7": {"ring": {"kind": "matrix", "m": 1, "q": 2}, "module": {"kind": "column", "k": 7}},
    "z4-z2z4": {
        "ring": Z4,
        "module": {"kind": "direct_sum", "summands": [{"kind": "mod_m", "m": 2}, {"kind": "mod_m", "m": 4}]},
    },
    # T_1 (+) T_2 (+) T_2 over F_2 x F_2: two simples of one shape (q, mu) = (2, 1),
    # and only the second factor's block has s > mu
    "f2xf2-t1t2t2": {"ring": F2xF2, "module": _f2xf2_simples((0, 1, 1))},
    # GF(256), the largest field the default field guard admits
    "f256": {"ring": {"kind": "matrix", "m": 1, "q": 256}, "module": REGULAR},
}


# ep-counterexample parameters (m, k, q); (1, 2, 4) is the first pack over a
# field that is not prime
PACKS = ((1, 2, 2), (1, 3, 2), (2, 3, 2), (1, 2, 3), (1, 2, 4))


def _cases() -> dict:
    """Golden file stem -> (argv, spec name or None)."""
    cases = {}
    for name in ALPHABETS:
        for command in ("socle-report", "verify-orbit-lemma"):
            cases[f"{command}-{name}"] = ([command], name)
    cases["ring-info-z2xz3"] = (["ring-info"], "z2xz3")
    # a non-commutative ring: its left ideals are the submodules of R acting on itself
    cases["ring-info-m2f2"] = (["ring-info"], "m2f2")
    for command in ("ring-info", "socle-report"):
        cases[f"{command}-f256"] = ([command, "--max-order", "256"], "f256")
    # a module that is not pseudo-injective, so the orbit lemma's hypotheses fail
    cases["verify-orbit-lemma-z4-z2z4"] = (["verify-orbit-lemma"], "z4-z2z4")
    cases["aut-group-z4-klein"] = (["aut-group"], "z4-klein")
    cases["aut-group-z4-z2-table"] = (["aut-group"], "z4-z2-table")
    cases["aut-group-f2-col3"] = (["aut-group"], "f2-col3")
    # on Z/2 (+) Z/4 the orbits split the annihilator class of 2 into {2} and {4, 6}
    cases["orbits-z4-z2z4"] = (["orbits", "--by", "orbit"], "z4-z2z4")
    cases["orbits-f3-col3"] = (["orbits", "--by", "orbit"], "f3-col3")
    cases["verify-orbit-lemma-f2-col4"] = (["verify-orbit-lemma"], "f2-col4")
    cases["verify-orbit-lemma-f3-col3"] = (["verify-orbit-lemma"], "f3-col3")
    # explicit cases, so that no socle-report goldens come with them; F_3^4
    # has order 81, above the default guard of 64
    cases["verify-orbit-lemma-f2-col5"] = (["verify-orbit-lemma"], "f2-col5")
    cases["verify-orbit-lemma-f3-col4"] = (["verify-orbit-lemma", "--max-order", "81"], "f3-col4")
    # F_2^6 and F_2^7 are decided by Baer's criterion alone: the monomorphism
    # search on F_2^6 does not finish in 300 s
    cases["verify-orbit-lemma-f2-col6"] = (["verify-orbit-lemma"], "f2-col6")
    cases["verify-orbit-lemma-f2-col7"] = (["verify-orbit-lemma", "--max-order", "128"], "f2-col7")
    cases["verify-necessity-f2-col4"] = (["verify-necessity"], "f2-col4")
    for name in ("z4-klein", "f2-col2", "m2f2-col3", "z2xz3-sum", "f2xf2-t1t2t2"):
        cases[f"verify-necessity-{name}"] = (["verify-necessity"], name)
    cases["socle-report-f2xf2-t1t2t2"] = (["socle-report"], "f2xf2-t1t2t2")
    for m, k, q in PACKS:
        argv = ["ep-counterexample", "--m", str(m), "--k", str(k), "--q", str(q)]
        cases[f"ep-counterexample-{m}-{k}-{q}"] = (argv, None)
    cases["verify-midway-z4-klein"] = (["verify-midway", "--max-n", "2"], "z4-klein")
    # the ideal chains of Z/4 and Z/8 give peeling more than one stage
    cases["verify-midway-z4-n3"] = (["verify-midway", "--max-n", "3", "--max-gens", "2"], "z4")
    cases["verify-midway-z8-n2"] = (["verify-midway", "--max-n", "2", "--max-gens", "2"], "z8")
    z8n3 = ["verify-midway", "--max-n", "3", "--max-gens", "2", "--max-order", "512"]
    cases["verify-midway-z8-n3"] = (z8n3, "z8")
    cases["verify-midway-z4-klein-table"] = (["verify-midway", "--max-n", "2"], "z4-klein-table")
    cases["verify-midway-f2-col2-n3"] = (["verify-midway", "--max-n", "3", "--max-gens", "2"], "f2-col2")
    cases["verify-midway-z4-klein-n3"] = (["verify-midway", "--max-n", "3", "--max-gens", "2"], "z4-klein")
    # n = 4 needs an ambient order of 256: 1,282 codes and 31,644,724 monomorphisms on Z/4
    n4 = ["verify-midway", "--max-n", "4", "--max-gens", "2", "--max-order", "256"]
    cases["verify-midway-z4-n4"] = (n4, "z4")
    cases["verify-midway-f2-col2-n4"] = (n4, "f2-col2")
    # every code of length n <= 3 over Z/4 and F_4 needs at most 3 generators
    for name in ("z4", "f4"):
        for command in ("verify-midway", "verify-sufficiency"):
            argv = [command, "--max-n", "3", "--max-gens", "3"]
            cases[f"{command}-{name}-n3-g3"] = (argv, name)
    # gens <= 6 is the full lattice of F_2^6: 2,897 codes and 68,719,542,288
    # monomorphisms over n <= 3, counted by cosets of Aut(C)
    for gens in ("4", "6"):
        argv = ["verify-midway", "--max-n", "3", "--max-gens", gens]
        cases[f"verify-midway-f2-col2-n3-g{gens}"] = (argv, "f2-col2")
    cases["verify-sufficiency-z4"] = (["verify-sufficiency", "--max-n", "2"], "z4")
    cases["verify-sufficiency-z4-n3"] = (["verify-sufficiency", "--max-n", "3", "--max-gens", "2"], "z4")
    cases["verify-sufficiency-f2-n5"] = (["verify-sufficiency", "--max-n", "5", "--max-gens", "2"], "f2")
    cases["verify-sufficiency-f4-n3"] = (["verify-sufficiency", "--max-n", "3", "--max-gens", "2"], "f4")
    # the two sufficiency alphabets of the benchmark with no other golden
    for name in ("f7", "f8"):
        argv = ["verify-sufficiency", "--max-n", "2", "--max-gens", "2"]
        cases[f"verify-sufficiency-{name}-n2"] = (argv, name)
    # gens <= 6 is the full lattice of F_2^n for n <= 6: 3,289 codes
    f2n6 = ["verify-sufficiency", "--max-n", "6", "--max-gens", "6", "--max-order", "64"]
    cases["verify-sufficiency-f2-n6-g6"] = (f2n6, "f2")
    # and of F_2^n for n <= 7: 32,501 codes
    f2n7 = ["verify-sufficiency", "--max-n", "7", "--max-gens", "7", "--max-order", "128"]
    cases["verify-sufficiency-f2-n7-g7"] = (f2n7, "f2")
    cases["verify-midway-f2-n7-g7"] = (["verify-midway", *f2n7[1:]], "f2")
    # every code of F_4^4 and F_8^3: the full lattices
    f4n4 = ["verify-sufficiency", "--max-n", "4", "--max-gens", "4", "--max-order", "256"]
    cases["verify-sufficiency-f4-n4-g4"] = (f4n4, "f4")
    f8n3 = ["verify-sufficiency", "--max-n", "3", "--max-gens", "3", "--max-order", "512"]
    cases["verify-sufficiency-f8-n3-g3"] = (f8n3, "f8")
    z9n3 = ["verify-midway", "--max-n", "3", "--max-gens", "2", "--max-order", "729"]
    cases["verify-midway-z9-n3"] = (z9n3, "z9")
    # F_3^2 at n <= 3 with two generators: 11,553 codes
    cases["verify-midway-f3-col2-n3"] = (z9n3, "f3-col2")
    for command in ("verify-midway", "verify-sufficiency"):
        argv = [command, "--max-n", "2", "--max-gens", "2", "--max-order", "81"]
        cases[f"{command}-m2f3-col1-n2"] = (argv, "m2f3-col1")
    cases["verify-all-z4"] = (["verify-all", "--max-n", "2"], "z4")
    return cases


CASES = _cases()


def run_case(stem: str, workdir: str) -> str:
    argv, spec = CASES[stem]
    argv = list(argv)
    if spec is not None:
        path = os.path.join(workdir, spec + ".json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(SPECS[spec], handle)
        argv += ["--spec", path]
    saved = {k: os.environ.pop(k) for k in list(os.environ) if k.startswith("EPLAB_MAX_")}
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            main(argv)
    finally:
        os.environ.update(saved)
    return out.getvalue()


def run_pack(m: int, k: int, q: int, workdir: str) -> str:
    """The text of the pack file that ep-counterexample writes with --out."""
    path = os.path.join(workdir, "pack.json")
    argv = ["ep-counterexample", "--m", str(m), "--k", str(k), "--q", str(q), "--out", path]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        main(argv)
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _pack_path(m: int, k: int, q: int) -> pathlib.Path:
    return GOLDEN_DIR / f"pack-{m}-{k}-{q}.json"


@pytest.mark.parametrize("stem", sorted(CASES))
def test_stdout_matches_golden(stem, tmp_path):
    expected = (GOLDEN_DIR / f"{stem}.out").read_text(encoding="utf-8")
    actual = run_case(stem, str(tmp_path))
    if actual != expected:
        diff = "".join(
            difflib.unified_diff(
                expected.splitlines(keepends=True),
                actual.splitlines(keepends=True),
                fromfile=f"golden/{stem}.out",
                tofile="actual",
            )
        )
        pytest.fail(f"stdout of {stem} differs from its golden file:\n{diff}")


@pytest.mark.parametrize("params", PACKS, ids=["-".join(map(str, p)) for p in PACKS])
def test_pack_file_matches_golden(params, tmp_path):
    expected = _pack_path(*params).read_text(encoding="utf-8")
    assert run_pack(*params, str(tmp_path)) == expected


def test_every_golden_file_has_a_case():
    assert sorted(p.stem for p in GOLDEN_DIR.glob("*.out")) == sorted(CASES)
    assert sorted(GOLDEN_DIR.glob("pack-*.json")) == sorted(_pack_path(*p) for p in PACKS)


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as workdir:
        for stem in sys.argv[1:] or sorted(CASES):
            (GOLDEN_DIR / f"{stem}.out").write_text(run_case(stem, workdir), encoding="utf-8")
            print(stem, file=sys.stderr)
        if not sys.argv[1:]:
            for params in PACKS:
                _pack_path(*params).write_text(run_pack(*params, workdir), encoding="utf-8")
