"""Acceptance gate: eight end-to-end criteria, each with a timing budget.

Every test prints a single pass/fail line through the `criterion` fixture;
the full list is repeated in the terminal summary after the run.
"""

import contextlib
import io
import json
import math

from eplab.cli import main
from eplab.codes import (
    code_generate,
    code_map_make,
    extension_search,
    map_preserves,
)
from eplab.modules import is_pseudo_injective, module_make, socle_report
from eplab.rings import ring_make
from eplab.theorems import (
    build_counterexample,
    counterexample_length,
    pack_from_json,
    replay_pack,
    verify_midway,
    verify_necessity,
    verify_orbit_lemma,
    verify_sufficiency,
)

Z4_RING = {"kind": "mod_n", "n": 4}
KLEIN = {
    "kind": "direct_sum",
    "summands": [{"kind": "mod_m", "m": 2}, {"kind": "mod_m", "m": 2}],
}

# (label, ring descriptor, module descriptor, expected cyclic socle)
CATALOG = [
    ("Z/4 over itself", Z4_RING, {"kind": "regular"}, True),
    ("(Z/2)^2 over Z/4", Z4_RING, KLEIN, False),
    ("Z/2 over Z/4", Z4_RING, {"kind": "mod_m", "m": 2}, True),
    ("F_2^2 over F_2", {"kind": "matrix", "m": 1, "q": 2}, {"kind": "column", "k": 2}, False),
    (
        "2x3 matrices over M_2(F_2)",
        {"kind": "matrix", "m": 2, "q": 2},
        {"kind": "column", "k": 3},
        False,
    ),
    ("Z/6 over itself", {"kind": "mod_n", "n": 6}, {"kind": "regular"}, True),
]


def make_module(ring_desc, module_desc):
    return module_make(ring_make(ring_desc), module_desc)


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = main(argv)
    return rc, out.getvalue()


def test_criterion_1_counterexample_reproduction(criterion):
    with criterion(
        1,
        "build_counterexample(1,2,2): N=3, profile-preserving bijection, "
        "zero-column split, no extension over the full 3!*6^3 space",
        limit=1.0,
    ):
        pack = build_counterexample(1, 2, 2)
        assert pack.length == 3 == counterexample_length(2, 2)
        assert pack.params["code_size"] == 4
        checks = pack.transcript["checks"]
        assert checks["length_matches_formula"]
        assert checks["codes_bijective_image"]
        assert checks["hamming_preserved"]
        assert checks["swc_preserved"]
        assert checks["plus_zero_column"] and checks["minus_no_zero_column"]
        assert checks["no_extension"]
        assert pack.transcript["certificate"] == "exhaustive-search"

        # independent rebuild and re-search, not trusting the transcript
        ring = ring_make(pack.ring)
        alphabet = module_make(ring, pack.alphabet)
        plus = code_generate(alphabet, pack.length, pack.generators_plus)
        minus = code_generate(alphabet, pack.length, pack.generators_minus)
        assert plus.size == minus.size == 4
        cmap = code_map_make(plus, minus, pack.gen_images)
        assert map_preserves(cmap, "hamming")
        assert map_preserves(cmap, "swc")
        zero_cols = lambda code: [
            j for j in range(code.length) if all(w[j] == alphabet.zero for w in code.elements)
        ]
        assert zero_cols(plus) and not zero_cols(minus)
        search = extension_search(cmap)
        assert search.transform is None
        assert search.group_order == 6
        assert search.candidate_space == math.factorial(3) * 6**3


def test_criterion_2_necessity_pipeline(criterion):
    with criterion(
        2,
        "verify_necessity on (Z/4, (Z/2)^2) emits a verified pullback pack, exit 1",
        limit=5.0,
    ):
        alphabet = make_module(Z4_RING, KLEIN)
        report = verify_necessity(alphabet)
        assert report.result == "counterexample"
        assert report.exit_code == 1
        pack = pack_from_json(report.details["pack"])
        assert pack.construction == "pullback"
        assert pack.transcript["block"] == {
            "q": 2,
            "mu": 1,
            "s": 2,
            "k": 2,
            "embedding": pack.transcript["block"]["embedding"],
            "construction": "subspace",
        }
        assert replay_pack(pack).result == "verified"
        # the pack really lives over the stated alphabet
        rebuilt = make_module(pack.ring, pack.alphabet)
        assert rebuilt.ring.order == 4 and rebuilt.order == 4


def test_criterion_3_cyclic_socle_triple_agreement(criterion):
    with criterion(
        3,
        "six-pair catalog: multiplicity bound, generator search, and "
        "character embedding agree on cyclicity",
        limit=120.0,
    ):
        for label, ring_desc, module_desc, expected in CATALOG:
            report = socle_report(make_module(ring_desc, module_desc))
            assert report.cyclic is expected, label
            assert report.as_json()["methods_agree"] is True, label


def test_criterion_4_orbit_annihilator_partitions(criterion):
    with criterion(
        4,
        "orbit partition equals annihilator partition on pseudo-injective "
        "catalog modules; orbit refines annihilator on all of them",
        limit=60.0,
    ):
        for label, ring_desc, module_desc, _ in CATALOG:
            module = make_module(ring_desc, module_desc)
            report = verify_orbit_lemma(module)
            assert report.details["refinement_holds"] is True, label
            if is_pseudo_injective(module):
                assert report.result == "verified", label
                assert report.details["partitions_equal"] is True, label


def test_criterion_5_midway_sweeps(criterion):
    with criterion(
        5,
        "verify_midway on (F_2, F_2^2) and (Z/4, (Z/2)^2) at max_n=3, "
        "max_gens=2: verified, peeling matches direct aw comparison",
        limit=600.0,
    ):
        pairs = [
            ({"kind": "matrix", "m": 1, "q": 2}, {"kind": "column", "k": 2}),
            (Z4_RING, KLEIN),
        ]
        for ring_desc, module_desc in pairs:
            report = verify_midway(make_module(ring_desc, module_desc), max_n=3, max_gens=2)
            assert report.result == "verified", (ring_desc, module_desc)
            assert report.details["lengths"] == [1, 2, 3]
            assert report.counts["hamming_preserving"] > 0
            assert report.counts["peeled"] == report.counts["hamming_preserving"]


def test_criterion_6_sufficiency_at_desk_scale(criterion):
    with criterion(
        6,
        "verify_sufficiency on (Z/4, Z/4) at max_n=2: every swc-preserving "
        "isomorphism extends monomially, exit 0",
        limit=600.0,
    ):
        report = verify_sufficiency(make_module(Z4_RING, {"kind": "regular"}), max_n=2)
        assert report.result == "verified"
        assert report.exit_code == 0
        assert report.counts["codes"] > 0
        assert report.counts["swc_preserving"] > 0
        assert report.counts["extended"] == report.counts["swc_preserving"]


def test_criterion_7_length_formula_table(criterion):
    with criterion(7, "counterexample_length matches the hand-computed table"):
        table = {(2, 2): 3, (3, 2): 4, (2, 3): 15, (2, 4): 135}
        for (q, k), expected in table.items():
            assert counterexample_length(q, k) == expected, (q, k)


def test_criterion_8_determinism_and_round_trip(criterion, tmp_path):
    spec_paths = {}
    for label, ring_desc, module_desc, _ in CATALOG:
        path = tmp_path / (label.replace("/", "").replace(" ", "_") + ".json")
        path.write_text(json.dumps({"ring": ring_desc, "module": module_desc}))
        spec_paths[label] = str(path)

    commands = [["ep-counterexample", "--m", "1", "--k", "2", "--q", "2"]]
    commands += [["socle-report", "--spec", p] for p in spec_paths.values()]
    commands += [["verify-orbit-lemma", "--spec", p] for p in spec_paths.values()]
    commands += [
        ["verify-necessity", "--spec", spec_paths["(Z/2)^2 over Z/4"]],
        ["verify-midway", "--spec", spec_paths["F_2^2 over F_2"], "--max-n", "3", "--max-gens", "2"],
        ["verify-midway", "--spec", spec_paths["(Z/2)^2 over Z/4"], "--max-n", "3", "--max-gens", "2"],
        ["verify-sufficiency", "--spec", spec_paths["Z/4 over itself"], "--max-n", "2"],
    ]

    with criterion(
        8,
        "re-running every acceptance command gives byte-identical reports; "
        "every emitted pack reloads and re-verifies",
    ):
        packs = []
        for argv in commands:
            rc_first, out_first = run_cli(argv)
            rc_second, out_second = run_cli(argv)
            assert rc_first == rc_second, argv
            assert out_first == out_second, argv
            result = json.loads(out_first)["result"]
            if "pack" in result:
                packs.append(result["pack"])
            details = result.get("details") or {}
            if "pack" in details:
                packs.append(details["pack"])
        assert len(packs) == 2
        for pack_json in packs:
            pack = pack_from_json(json.loads(json.dumps(pack_json)))
            assert replay_pack(pack).result == "verified"
