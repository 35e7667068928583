"""End-to-end checks of the command line: exit codes, report shape,
byte-stable output, and input validation."""

import contextlib
import dataclasses
import io
import itertools
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eplab import cli
from eplab.cli import load_codes, main
from eplab.errors import Guards, InputError
from eplab.modules import AutGroup, automorphism_group
from eplab.theorems import pack_from_json, replay_pack
from test_golden import GOLDEN_DIR, run_case


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def write_json(path, data):
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def z4_spec(tmp_path):
    return write_json(
        tmp_path / "z4.json", {"ring": {"kind": "mod_n", "n": 4}, "module": {"kind": "regular"}}
    )


@pytest.fixture
def klein_spec(tmp_path):
    return write_json(
        tmp_path / "klein.json",
        {
            "ring": {"kind": "mod_n", "n": 4},
            "module": {
                "kind": "direct_sum",
                "summands": [{"kind": "mod_m", "m": 2}, {"kind": "mod_m", "m": 2}],
            },
            "bounds": {"max_n": 2, "max_gens": 2},
        },
    )


@pytest.fixture
def m2f2_spec(tmp_path):
    return write_json(
        tmp_path / "m2f2.json",
        {"ring": {"kind": "matrix", "m": 2, "q": 2}, "module": {"kind": "column", "k": 2}},
    )


@pytest.fixture
def z4_codes(tmp_path, z4_spec):
    return write_json(
        tmp_path / "codes.json",
        {
            "alphabet": "z4.json",
            "length": 2,
            "codes": [
                {"name": "C", "generators": [[1, 2]]},
                {"name": "D", "generators": [[3, 2]]},
                {"name": "E", "generators": [[1, 0]]},
            ],
            "maps": [
                {"from": "C", "to": "D", "gen_images": [[3, 2]]},
                {"from": "C", "to": "E", "gen_images": [[1, 0]]},
            ],
        },
    )


# ---------------------------------------------------------------------------
# structure reports


def test_ring_info_z4(z4_spec):
    rc, out, _ = run(["ring-info", "--spec", z4_spec])
    assert rc == 0
    report = json.loads(out)
    assert report["version"] == "eplab/1"
    assert report["command"] == "ring-info"
    assert report["inputs"]["ring"] == {"kind": "mod_n", "n": 4}
    result = report["result"]
    assert result["order"] == 4
    assert result["unit_count"] == 2
    assert result["radical"] == [0, 2]
    assert result["left_ideal_count"] == 3
    assert result["is_left_pir"] and result["is_right_pir"]
    assert result["wedderburn_blocks"] == [{"mu": 1, "q": 2}]
    assert result["additive_exponent"] == 4


def test_socle_report_klein(klein_spec):
    rc, out, _ = run(["socle-report", "--spec", klein_spec])
    assert rc == 0
    result = json.loads(out)["result"]
    assert result["cyclic"] is False
    assert result["methods_agree"] is True
    assert result["blocks"] == [{"mu": 1, "q": 2, "s": 2, "simple_order": 2}]
    assert result["socle_members"] == [0, 1, 2, 3]


def test_aut_group_z4(z4_spec):
    rc, out, _ = run(["aut-group", "--spec", z4_spec])
    assert rc == 0
    result = json.loads(out)["result"]
    assert result["order"] == 2
    assert result["elements"] == [[0, 1, 2, 3], [0, 3, 2, 1]]


def test_orbits_by_annihilator(z4_spec):
    rc, out, _ = run(["orbits", "--spec", z4_spec, "--by", "annihilator"])
    assert rc == 0
    result = json.loads(out)["result"]
    assert result["kind"] == "annihilator"
    assert result["labels"] == [0, 1, 2, 1]
    assert result["classes"] == {"0": [0], "1": [1, 3], "2": [2]}


def test_weights_profiles(z4_codes):
    rc, out, _ = run(["weights", "--codes", z4_codes, "--kind", "all"])
    assert rc == 0
    result = json.loads(out)["result"]
    by_name = {c["name"]: c for c in result["codes"]}
    assert set(by_name) == {"C", "D", "E"}
    assert by_name["C"]["size"] == 4
    gen = next(w for w in by_name["C"]["words"] if w["word"] == [1, 2])
    assert gen["profiles"]["hamming"] == {"nonzero": 2}
    assert gen["profiles"]["swc"] == {"1": 1, "2": 1}
    assert gen["profiles"]["aw"] == {"1": 1, "2": 1}


def test_weights_single_kind(z4_codes):
    rc, out, _ = run(["weights", "--codes", z4_codes, "--kind", "hamming"])
    assert rc == 0
    result = json.loads(out)["result"]
    word = result["codes"][0]["words"][0]
    assert set(word["profiles"]) == {"hamming"}


def test_codes_file_inline_alphabet(tmp_path):
    path = write_json(
        tmp_path / "inline.json",
        {
            "alphabet": {"ring": {"kind": "mod_n", "n": 4}, "module": {"kind": "regular"}},
            "length": 1,
            "codes": [{"name": "C", "generators": [[2]]}],
        },
    )
    rc, out, _ = run(["weights", "--codes", path])
    assert rc == 0
    assert json.loads(out)["result"]["codes"][0]["size"] == 2


# ---------------------------------------------------------------------------
# counterexample commands


def test_ep_counterexample_emits_replayable_pack(tmp_path):
    out_path = tmp_path / "pack.json"
    rc, out, _ = run(
        ["ep-counterexample", "--m", "1", "--k", "2", "--q", "2", "--out", str(out_path)]
    )
    assert rc == 1
    report = json.loads(out)
    pack_json = report["result"]["pack"]
    assert pack_json["format"] == "eplab-pack/1"
    assert pack_json["length"] == 3
    assert json.loads(out_path.read_text()) == pack_json
    pack = pack_from_json(pack_json)
    assert replay_pack(pack).result == "verified"


# strings made of JSON syntax, escapes, control characters and non-ASCII
_report_strings = st.text(
    st.sampled_from('"\\/[]{},: \n\t\x00\x1f\x7fa1\u00e9\u2028\u2603\ud800\U0001f600')
)
_report_values = st.recursive(
    st.none() | st.booleans() | st.integers() | _report_strings,
    lambda inner: st.lists(inner) | st.lists(inner).map(tuple)
    | st.lists(st.integers() | st.booleans()) | st.dictionaries(_report_strings, inner),
    max_leaves=20,
)


@given(value=_report_values)
@settings(max_examples=200, deadline=None)
def test_dumps_matches_json_dumps(value):
    assert cli._dumps(value) == json.dumps(value, sort_keys=True, indent=2)


# placeholders for one list object each; _report_strings cannot spell them
_SHARED, _INNER = "<shared>", "<inner>"


def _fill(template, mark, value):
    """template with every placeholder mark replaced by the one object value."""
    if template == mark:
        return value
    if isinstance(template, (list, tuple)):
        return type(template)(_fill(x, mark, value) for x in template)
    if isinstance(template, dict):
        return {k: _fill(v, mark, value) for k, v in template.items()}
    return template


def _with_placeholder(mark):
    return st.recursive(
        st.just(mark) | st.integers() | _report_strings,
        lambda inner: st.lists(inner) | st.lists(inner).map(tuple)
        | st.dictionaries(_report_strings, inner),
        max_leaves=8,
    )


@given(
    inner=st.lists(st.integers() | st.lists(st.integers(), max_size=3), min_size=1),
    shared=st.lists(_with_placeholder(_INNER), min_size=1),
    template=_with_placeholder(_SHARED),
)
@settings(max_examples=100, deadline=None)
def test_dumps_writes_a_shared_list_as_json_dumps_does(inner, shared, template):
    """One list object in several places, at one depth, at several depths and
    inside tuples, itself holding another shared list: the memo keyed by
    (id, indent) changes no byte."""
    value = _fill(template, _SHARED, _fill(shared, _INNER, inner))
    assert cli._dumps(value) == json.dumps(value, sort_keys=True, indent=2)


def test_dumps_writes_shared_listings_as_json_dumps_does():
    vector, other = [0, 1], [1, 1]
    listing = [vector, other, vector]
    value = {
        "a": [listing, listing, (listing, [listing])],
        "b": {"c": listing, "d": [{"e": listing, "f": vector}, (vector, listing)]},
        "g": [[listing], listing],
    }
    assert cli._dumps(value) == json.dumps(value, sort_keys=True, indent=2)


@contextlib.contextmanager
def _no_digit_limit():
    """Lift the interpreter's int-to-str digit limit, to read a report back."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def test_dumps_writes_ints_past_the_digit_limit():
    values = [10**5000, -(10**5000) - 1, 7 * 10**4400 + 3, 3**9000, {"n": -(2**20000)}]
    for value in values:
        got = cli._dumps(value)
        with _no_digit_limit():
            assert got == json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize(
    "value",
    [1.5, {1: "a"}, {"a": {3}}, [0, 1, object()], b"x"],
    ids=["float", "int-key", "set", "object", "bytes"],
)
def test_dumps_refuses_types_reports_do_not_hold(value):
    with pytest.raises(TypeError):
        cli._dumps(value)


@pytest.mark.parametrize("target", ["missing/pack.json", "."], ids=["missing-dir", "a-directory"])
def test_ep_counterexample_out_to_an_unwritable_path_exits_4(tmp_path, target):
    path = str(tmp_path / target)
    rc, out, err = run(["ep-counterexample", "--m", "1", "--k", "2", "--q", "2", "--out", path])
    assert (rc, out) == (4, "")
    assert err.startswith(f"error: cannot write {path}: ")
    assert "Traceback" not in err


def test_ep_check_extension_mixed(z4_codes):
    rc, out, _ = run(["ep-check-extension", "--codes", z4_codes])
    assert rc == 1
    maps = json.loads(out)["result"]["maps"]
    assert [m["extends"] for m in maps] == [True, False]
    good = maps[0]
    assert good["preserves"] == {"hamming": True, "swc": True, "aw": True}
    assert good["transform"]["sigma"] == [0, 1]
    assert maps[1]["transform"] is None


def test_ep_check_extension_all_pass(tmp_path):
    path = write_json(
        tmp_path / "codes.json",
        {
            "alphabet": {"ring": {"kind": "mod_n", "n": 4}, "module": {"kind": "regular"}},
            "length": 2,
            "codes": [
                {"name": "C", "generators": [[1, 2]]},
                {"name": "D", "generators": [[3, 2]]},
            ],
            "maps": [{"from": "C", "to": "D", "gen_images": [[3, 2]]}],
        },
    )
    rc, out, _ = run(["ep-check-extension", "--codes", path])
    assert rc == 0
    assert json.loads(out)["result"]["maps"][0]["extends"] is True


def _extension_by_scan(cmap):
    """(transform, group_order, candidate_space) of extension_search by a
    scan of the sorted listing of Aut(A): the first sigma, in lexicographic
    order, for which every target position i has an automorphism sending
    source column sigma[i] to image column i on the generators, with each
    tau the first such one."""
    perms = automorphism_group(cmap.source.alphabet).elements
    n = cmap.source.length
    pairs = list(zip(cmap.source.generators, cmap.gen_images))
    space = math.factorial(n) * len(perms) ** n
    for sigma in itertools.permutations(range(n)):
        taus = [
            next((t for t in perms if all(t[g[j]] == fg[i] for g, fg in pairs)), None)
            for i, j in enumerate(sigma)
        ]
        if None not in taus:
            return {"sigma": list(sigma), "taus": [list(t) for t in taus]}, len(perms), space
    return None, len(perms), space


def test_ep_check_extension_reports_a_candidate_space_past_the_digit_limit(tmp_path):
    """The identity on a length-1000 code over F_2^4 has candidate_space
    1000! * |GL(4, 2)|^1000, about 6,900 digits."""
    word = [15] * 1000
    path = write_json(
        tmp_path / "codes.json",
        {
            "alphabet": {"ring": {"kind": "matrix", "m": 1, "q": 2}, "module": {"kind": "column", "k": 4}},
            "length": 1000,
            "codes": [{"name": "C", "generators": [word]}],
            "maps": [{"from": "C", "to": "C", "gen_images": [word]}],
        },
    )
    rc, out, err = run(["ep-check-extension", "--codes", path])
    assert rc == 0 and err == ""
    with _no_digit_limit():
        report = json.loads(out)["result"]["maps"][0]
    assert report["extends"] is True
    assert report["candidate_space"] == math.factorial(1000) * 20160**1000


def test_ep_check_extension_matches_a_scan_of_the_listing(tmp_path):
    """On Z/2 (+) Z/4 over Z/4 (element 4a + b for (a, b)), where the orbits
    split the annihilator class {2, 4, 6}, one map extends with sigma = [1, 0]
    and a tau that moves 1 to 5, and one does not."""
    path = write_json(
        tmp_path / "codes.json",
        {
            "alphabet": {
                "ring": {"kind": "mod_n", "n": 4},
                "module": {
                    "kind": "direct_sum",
                    "summands": [{"kind": "mod_m", "m": 2}, {"kind": "mod_m", "m": 4}],
                },
            },
            "length": 2,
            "codes": [
                {"name": "C", "generators": [[4, 1]]},
                {"name": "D", "generators": [[5, 4]]},
                {"name": "E", "generators": [[2, 1]]},
            ],
            "maps": [
                {"from": "C", "to": "D", "gen_images": [[5, 4]]},
                {"from": "C", "to": "E", "gen_images": [[2, 1]]},
            ],
        },
    )
    rc, out, _ = run(["ep-check-extension", "--codes", path])
    assert rc == 1
    reported = json.loads(out)["result"]["maps"]
    assert [m["extends"] for m in reported] == [True, False]
    assert reported[0]["transform"]["sigma"] == [1, 0]
    for entry, (_, _, cmap) in zip(reported, load_codes(path, Guards())[3]):
        scan = (entry["transform"], entry["group_order"], entry["candidate_space"])
        assert scan == _extension_by_scan(cmap)


def test_certify_commands_never_list_the_automorphism_group(tmp_path, monkeypatch):
    """The orbit lemma, necessity and the F_2^4 counterexample read Aut(A)
    only through its stabilizer chain: no group they build lists its
    elements."""
    groups = []
    init = AutGroup.__init__

    def recording(self, *args):
        init(self, *args)
        groups.append(self)

    monkeypatch.setattr(AutGroup, "__init__", recording)
    spec = write_json(
        tmp_path / "f2-col4.json",
        {"ring": {"kind": "matrix", "m": 1, "q": 2}, "module": {"kind": "column", "k": 4}},
    )
    assert run(["verify-orbit-lemma", "--spec", spec])[0] == 0
    assert run(["verify-necessity", "--spec", spec])[0] == 1
    assert run(["ep-counterexample", "--m", "1", "--k", "4", "--q", "2"])[0] == 1
    assert 20160 in [g.order for g in groups]
    assert all("elements" not in g.__dict__ for g in groups)


# ---------------------------------------------------------------------------
# verifiers and the exit-code contract


def test_verify_orbit_lemma_exit_zero(klein_spec):
    rc, out, _ = run(["verify-orbit-lemma", "--spec", klein_spec])
    assert rc == 0
    assert json.loads(out)["result"]["result"] == "verified"


def test_verify_sufficiency_unmet_hypotheses(klein_spec):
    rc, out, _ = run(["verify-sufficiency", "--spec", klein_spec])
    assert rc == 2
    result = json.loads(out)["result"]
    assert result["result"] == "hypotheses-unmet"
    assert result["hypotheses"]["socle_cyclic"] is False


def test_verify_sufficiency_z4(z4_spec):
    rc, out, _ = run(["verify-sufficiency", "--spec", z4_spec, "--max-n", "2"])
    assert rc == 0
    result = json.loads(out)["result"]
    assert result["result"] == "verified"
    assert result["counts"]["swc_preserving"] == result["counts"]["extended"] == 60


def test_verify_necessity_finds_counterexample(klein_spec):
    rc, out, _ = run(["verify-necessity", "--spec", klein_spec])
    assert rc == 1
    result = json.loads(out)["result"]
    assert result["result"] == "counterexample"
    pack = pack_from_json(result["details"]["pack"])
    assert pack.construction == "pullback"
    assert replay_pack(pack).result == "verified"


def test_verify_midway_bounds_from_spec(klein_spec):
    rc, out, _ = run(["verify-midway", "--spec", klein_spec])
    assert rc == 0
    result = json.loads(out)["result"]
    assert result["result"] == "verified"
    assert result["details"]["lengths"] == [1, 2]


def test_verify_midway_explicit_bound_is_strict(m2f2_spec):
    rc, _, err = run(["verify-midway", "--spec", m2f2_spec, "--max-n", "10"])
    assert rc == 3
    assert "exceeds guard" in err


def test_verify_midway_flag_overrides_spec_bounds(klein_spec):
    rc, out, _ = run(["verify-midway", "--spec", klein_spec, "--max-n", "1"])
    assert rc == 0
    assert json.loads(out)["result"]["details"]["lengths"] == [1]


def test_spec_bounds_stay_within_their_guards(monkeypatch, tmp_path):
    spec = write_json(
        tmp_path / "f2.json",
        {"ring": {"kind": "matrix", "m": 1, "q": 2}, "module": {"kind": "regular"},
         "bounds": {"max_n": 4}},
    )
    rc, out, err = run(["verify-midway", "--spec", spec])
    assert (rc, out) == (3, "")
    assert "bounds.max_n (4) exceeds guard (3)" in err
    monkeypatch.setenv("EPLAB_MAX_N", "4")
    rc, out, _ = run(["verify-midway", "--spec", spec])
    assert rc == 0
    assert json.loads(out)["result"]["details"]["lengths"] == [1, 2, 3, 4]


def test_reports_under_a_raised_order_guard(tmp_path):
    """F_2^7 and F_128 have order 128: every lattice walk behind the socle
    report and the Wedderburn blocks runs under the raised guard."""
    spec = write_json(
        tmp_path / "f2c7.json",
        {"ring": {"kind": "matrix", "m": 1, "q": 2}, "module": {"kind": "column", "k": 7}},
    )
    rc, out, _ = run(["socle-report", "--spec", spec, "--max-order", "128"])
    assert rc == 0
    assert json.loads(out)["result"] == {
        "blocks": [{"mu": 1, "q": 2, "s": 7, "simple_order": 2}],
        "cyclic": False,
        "methods_agree": True,
        "socle_members": list(range(128)),
        "socle_order": 128,
    }
    spec = write_json(tmp_path / "f128.json", {"ring": {"kind": "matrix", "m": 1, "q": 128}})
    rc, out, _ = run(["ring-info", "--spec", spec, "--max-order", "128"])
    assert rc == 0
    assert json.loads(out)["result"]["wedderburn_blocks"] == [{"mu": 1, "q": 128}]


def test_orbit_lemma_on_f3_4_needs_a_raised_order_guard(tmp_path):
    """F_3^4 has order 81: under the default guard of 64 the orbit lemma
    exits 3 before any search, with this one line on stderr."""
    spec = write_json(
        tmp_path / "f3c4.json",
        {"ring": {"kind": "matrix", "m": 1, "q": 3}, "module": {"kind": "column", "k": 4}},
    )
    assert run(["verify-orbit-lemma", "--spec", spec]) == (
        3, "", "error: module order 3^(1*4) exceeds guard (64)\n"
    )


def test_verify_all_klein(klein_spec):
    rc, out, _ = run(["verify-all", "--spec", klein_spec])
    assert rc == 0
    result = json.loads(out)["result"]
    assert result["result"] == "verified"
    assert result["counts"]["sub_results"]["necessity"] == "counterexample"


def test_guard_flag_tightens_order(m2f2_spec):
    rc, _, err = run(["ring-info", "--spec", m2f2_spec, "--max-order", "8"])
    assert rc == 3
    assert "exceeds guard" in err


def test_guard_env_variable(monkeypatch, m2f2_spec):
    monkeypatch.setenv("EPLAB_MAX_ORDER", "8")
    rc, _, _ = run(["ring-info", "--spec", m2f2_spec])
    assert rc == 3
    # an explicit flag wins over the environment
    rc, _, _ = run(["ring-info", "--spec", m2f2_spec, "--max-order", "64"])
    assert rc == 0


@pytest.mark.parametrize("command", ["verify-midway", "verify-sufficiency"])
def test_sweeps_apply_the_code_size_guard(monkeypatch, z4_spec, command):
    monkeypatch.setenv("EPLAB_MAX_CODE", "4")
    rc, _, err = run([command, "--spec", z4_spec, "--max-n", "3", "--max-gens", "2"])
    assert rc == 3
    assert "code size (8) exceeds guard (4)" in err


def test_a_huge_field_order_hits_the_guard_before_factoring(tmp_path):
    spec = write_json(tmp_path / "big.json", {"ring": {"kind": "matrix", "m": 1, "q": 1000000007}})
    for argv in (
        ["ring-info", "--spec", spec],
        ["ep-counterexample", "--m", "1", "--k", "2", "--q", "1000000007"],
    ):
        start = time.perf_counter()
        rc, out, err = run(argv)
        assert time.perf_counter() - start < 1
        assert (rc, out) == (3, "")
        assert "field order 1000000007 (1000000007) exceeds guard (256)" in err


@pytest.mark.parametrize(
    "m,k,q,code,message",
    [
        (1, 2, 6, 4, "field order must be a prime power, got 6"),
        (1, 2, 0, 4, "field order must be at least 2, got 0"),
        (1, 2, 1, 4, "field order must be at least 2, got 1"),
        (1, 2, -3, 4, "field order must be at least 2, got -3"),
        (1, 2, 512, 3, "field order 512 (512) exceeds guard (256)"),
        (1, 2, 256, 3, "matrix ring order 256^(1*1) exceeds guard (64)"),
        (0, 2, 2, 4, "m must be a positive integer, got 0"),
        (1, 0, 2, 4, "k must be a positive integer, got 0"),
        (2, 2, 2, 4, "the construction requires k > m, got k=2, m=2"),
        (2, 1, 2, 4, "the construction requires k > m, got k=1, m=2"),
        (3, 4, 2, 3, "matrix ring order 2^(3*3) exceeds guard (64)"),
        (1, 7, 2, 3, "module order 2^(1*7) exceeds guard (64)"),
        (1, 2, 9, 3, "module order 9^(1*2) exceeds guard (64)"),
    ],
)
def test_ep_counterexample_rejects_its_arguments_in_order(m, k, q, code, message):
    """m and k first, then the field order as FiniteField checks it, then the
    ring and module orders: each case keeps its exit code and its message."""
    rc, out, err = run(["ep-counterexample", "--m", str(m), "--k", str(k), "--q", str(q)])
    assert (rc, out, err) == (code, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "spec,message",
    [
        # 3^9,000,000 has over four million digits
        ({"ring": {"kind": "matrix", "m": 3000, "q": 3}}, "matrix ring order 3^(3000*3000)"),
        # within max_field, but its multiplication table costs 256^2 products
        ({"ring": {"kind": "matrix", "m": 1, "q": 256}}, "matrix ring order 256^(1*1)"),
        (
            {"ring": {"kind": "matrix", "m": 1, "q": 3}, "module": {"kind": "column", "k": 9000000}},
            "module order 3^(1*9000000)",
        ),
    ],
    ids=["matrix-m3000", "matrix-q256", "column-k9000000"],
)
def test_matrix_orders_hit_the_guard_before_they_are_computed(tmp_path, spec, message):
    path = write_json(tmp_path / "big.json", spec)
    start = time.perf_counter()
    rc, out, err = run(["ring-info", "--spec", path])
    assert time.perf_counter() - start < 1
    assert (rc, out) == (3, "")
    assert f"{message} exceeds guard (64)" in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# input errors


def test_a_table_that_breaks_a_group_axiom_exits_4(tmp_path, broken_additions):
    for message, add in broken_additions:
        n = len(add)
        spec = write_json(
            tmp_path / "bad.json",
            {"ring": {"kind": "table", "add": add, "mul": [[0] * n for _ in add]}},
        )
        rc, out, err = run(["ring-info", "--spec", spec])
        assert (rc, out) == (4, "")
        assert message in err
        assert "Traceback" not in err


def _is_abelian_group(add):
    elems = range(len(add))
    zero = next((z for z in elems if all(add[z][a] == a for a in elems)), None)
    return zero is not None and all(
        zero in add[a]
        and add[a][b] == add[b][a]
        and all(add[add[a][b]][c] == add[a][add[b][c]] for c in elems)
        for a in elems
        for b in elems
    )


def _is_ring_and_module(ring_add, mul, add, act):
    """Brute-force axiom oracle: (ring_add, mul) is a ring with identity and
    (add, act) a unital left module over it."""
    rs, xs = range(len(ring_add)), range(len(add))
    one = next((u for u in rs if all(mul[u][r] == r == mul[r][u] for r in rs)), None)
    return (
        _is_abelian_group(ring_add)
        and _is_abelian_group(add)
        and one is not None
        and all(act[one][a] == a for a in xs)
        and all(
            mul[mul[r][s]][t] == mul[r][mul[s][t]]
            and mul[r][ring_add[s][t]] == ring_add[mul[r][s]][mul[r][t]]
            and mul[ring_add[r][s]][t] == ring_add[mul[r][t]][mul[s][t]]
            for r in rs
            for s in rs
            for t in rs
        )
        and all(act[r][add[a][b]] == add[act[r][a]][act[r][b]] for r in rs for a in xs for b in xs)
        and all(
            act[ring_add[r][s]][a] == add[act[r][a]][act[s][a]]
            and act[mul[r][s]][a] == act[r][act[s][a]]
            for r in rs
            for s in rs
            for a in xs
        )
    )


_Z4_TABLE = {
    "kind": "table",
    "add": [[(a + b) % 4 for b in range(4)] for a in range(4)],
    "mul": [[a * b % 4 for b in range(4)] for a in range(4)],
}
# F_4 with x encoded as 2, and (Z/2)^2 over Z/4 with (a, b) encoded as 2a + b
TABLE_SPECS = {
    "z4": {"ring": _Z4_TABLE},
    "f4": {
        "ring": {
            "kind": "table",
            "add": [[a ^ b for b in range(4)] for a in range(4)],
            "mul": [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 3, 1], [0, 3, 1, 2]],
        }
    },
    "klein-over-z4": {
        "ring": _Z4_TABLE,
        "module": {
            "kind": "table",
            "add": [[a ^ b for b in range(4)] for a in range(4)],
            "act": [[a * (r % 2) for a in range(4)] for r in range(4)],
        },
    },
}


@pytest.mark.parametrize(
    "name,part,table",
    [
        ("z4", "ring", "add"),
        ("z4", "ring", "mul"),
        ("f4", "ring", "add"),
        ("f4", "ring", "mul"),
        ("klein-over-z4", "module", "add"),
        ("klein-over-z4", "module", "act"),
    ],
)
def test_every_single_entry_change_of_a_table_exits_as_the_axiom_oracle_decides(
    tmp_path, name, part, table
):
    """Each entry of the table takes every value, its own included: the
    spec exits 0 exactly when the oracle accepts its tables, and otherwise
    exits 4 with one line on stderr."""
    spec = TABLE_SPECS[name]
    for i, row in enumerate(spec[part][table]):
        for j in range(len(row)):
            for value in range(len(row)):
                changed = json.loads(json.dumps(spec))
                changed[part][table][i][j] = value
                ring = changed["ring"]
                module = changed.get("module", {"add": ring["add"], "act": ring["mul"]})
                ok = _is_ring_and_module(ring["add"], ring["mul"], module["add"], module["act"])
                rc, out, err = run(["ring-info", "--spec", write_json(tmp_path / "spec.json", changed)])
                if ok:
                    assert (rc, err) == (0, "")
                else:
                    assert (rc, out) == (4, "")
                    assert err.endswith("\n") and err.count("\n") == 1
                    assert "Traceback" not in err


def test_missing_file_is_input_error():
    rc, _, err = run(["ring-info", "--spec", "/nonexistent/spec.json"])
    assert rc == 4
    assert "cannot read" in err


@pytest.mark.parametrize(
    "content",
    [
        b"{not json",
        b'{"ring": {"kind": "mod_n", "n": 4}, "note": "\xff"}',
        b'{"ring": {"kind": "mod_n", "n": ' + b"1" * 5000 + b"}}",
        b"[" * 100_000 + b"]" * 100_000,
    ],
    ids=["syntax", "not-utf8", "5000-digit-int", "nested-100000-deep"],
)
def test_invalid_json_is_input_error(tmp_path, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    rc, _, err = run(["ring-info", "--spec", str(path)])
    assert rc == 4
    assert "not valid JSON" in err


def _nested(depth, leaf, wrap):
    for _ in range(depth):
        leaf = wrap(leaf)
    return leaf


def _direct_sums(depth):
    return _nested(depth, {"kind": "mod_m", "m": 2}, lambda d: {"kind": "direct_sum", "summands": [d]})


def test_a_deeply_nested_module_spec_exits_4_without_a_traceback(tmp_path):
    spec = write_json(
        tmp_path / "deep.json", {"ring": {"kind": "mod_n", "n": 2}, "module": _direct_sums(260)}
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(pathlib.Path(cli.__file__).parents[1])] + env.get("PYTHONPATH", "").split(os.pathsep)
    )
    done = subprocess.run(
        [sys.executable, "-m", "eplab.cli", "orbits", "--spec", spec],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 4
    assert done.stdout == ""
    assert "Traceback" not in done.stderr
    assert len(done.stderr.splitlines()) == 1 and "deep" in done.stderr


@pytest.mark.parametrize("kind", ["ring", "codes"])
def test_deeply_nested_documents_exit_4(tmp_path, kind):
    if kind == "ring":
        ring = _nested(400, {"kind": "mod_n", "n": 2}, lambda d: {"kind": "product", "factors": [d]})
        argv = ["ring-info", "--spec", write_json(tmp_path / "deep.json", {"ring": ring})]
    else:
        alphabet = {"ring": {"kind": "mod_n", "n": 2}, "module": _direct_sums(260)}
        codes = {"alphabet": alphabet, "length": 1, "codes": [{"name": "C", "generators": [[1]]}]}
        argv = ["weights", "--codes", write_json(tmp_path / "deep.json", codes)]
    rc, out, err = run(argv)
    assert (rc, out) == (4, "")
    assert "more than 100 deep" in err


def test_nesting_is_bounded_at_the_depth_limit(tmp_path):
    """A spec nested exactly cli.MAX_JSON_DEPTH deep loads; one level more
    is refused."""
    for extra, code in ((0, 0), (1, 4)):
        # the spec object is level 1 and the note's lists the levels below it
        note = _nested(cli.MAX_JSON_DEPTH - 2 + extra, [], lambda d: [d])
        path = write_json(tmp_path / "note.json", {"ring": {"kind": "mod_n", "n": 2}, "note": note})
        rc, _, _ = run(["ring-info", "--spec", path])
        assert rc == code


@pytest.mark.parametrize("number", ["1.5", "NaN", "Infinity", "-Infinity", "1e3"])
def test_a_non_integer_number_in_a_spec_exits_4(tmp_path, number):
    path = tmp_path / "spec.json"
    path.write_text(
        '{"ring": {"kind": "mod_n", "n": 4, "note": %s}, "module": {"kind": "regular"}}' % number
    )
    rc, out, err = run(["socle-report", "--spec", str(path)])
    assert (rc, out) == (4, "")
    assert len(err.splitlines()) == 1 and number in err


@pytest.mark.parametrize("inline", [True, False], ids=["inline", "by-path"])
def test_a_non_integer_number_in_a_codes_alphabet_exits_4(tmp_path, inline):
    alphabet = '{"ring": {"kind": "mod_n", "n": 4}, "module": {"kind": "regular", "w": 0.5}}'
    if not inline:
        (tmp_path / "alphabet.json").write_text(alphabet)
        alphabet = '"alphabet.json"'
    path = tmp_path / "codes.json"
    path.write_text(
        '{"alphabet": %s, "length": 1, "codes": [{"name": "C", "generators": [[1]]}],'
        ' "maps": [{"from": "C", "to": "C", "gen_images": [[3]]}]}' % alphabet
    )
    rc, out, err = run(["ep-check-extension", "--codes", str(path)])
    assert (rc, out) == (4, "")
    assert len(err.splitlines()) == 1 and "0.5" in err


def test_non_object_spec_rejected(tmp_path):
    path = tmp_path / "arr.json"
    path.write_text("[1, 2]")
    assert run(["ring-info", "--spec", str(path)])[0] == 4


def test_spec_without_ring_rejected(tmp_path):
    path = write_json(tmp_path / "s.json", {"module": {"kind": "regular"}})
    assert run(["ring-info", "--spec", str(path)])[0] == 4


@pytest.mark.parametrize(
    "spec",
    [
        {"ring": {"kind": "mod_n", "n": 4}, "module": {"kind": "column", "k": 2}},
        # a bool is not an integer field, though Python's bool is an int
        {"ring": {"kind": "matrix", "m": 1, "q": 2}, "module": {"kind": "column", "k": True}},
        {"ring": {"kind": "matrix", "m": True, "q": 2}, "module": {"kind": "regular"}},
        {"ring": {"kind": "mod_n", "n": True}, "module": {"kind": "regular"}},
        {"ring": {"kind": "mod_n", "n": 2}, "module": {"kind": "mod_m", "m": True}},
    ],
    ids=["column-over-mod-n", "bool-k", "bool-m", "bool-n", "bool-mod-m"],
)
def test_semantic_mismatch_is_input_error(tmp_path, spec):
    path = write_json(tmp_path / "s.json", spec)
    assert run(["socle-report", "--spec", str(path)])[0] == 4


def test_module_required_for_module_commands(tmp_path):
    path = write_json(tmp_path / "s.json", {"ring": {"kind": "mod_n", "n": 4}})
    rc, _, err = run(["socle-report", "--spec", str(path)])
    assert rc == 4
    assert "module" in err


def test_bad_bounds_rejected(tmp_path):
    path = write_json(
        tmp_path / "s.json",
        {"ring": {"kind": "mod_n", "n": 4}, "module": {"kind": "regular"}, "bounds": {"max_n": 0}},
    )
    assert run(["verify-midway", "--spec", str(path)])[0] == 4
    path2 = write_json(
        tmp_path / "s2.json",
        {"ring": {"kind": "mod_n", "n": 4}, "module": {"kind": "regular"}, "bounds": {"depth": 1}},
    )
    assert run(["verify-midway", "--spec", str(path2)])[0] == 4
    path3 = write_json(
        tmp_path / "s3.json",
        {
            "ring": {"kind": "mod_n", "n": 4},
            "module": {"kind": "regular"},
            "bounds": {"max_n": True},
        },
    )
    assert run(["verify-midway", "--spec", str(path3)])[0] == 4


def test_codes_file_validation(tmp_path):
    missing = write_json(tmp_path / "c1.json", {"alphabet": {"ring": {"kind": "mod_n", "n": 4}}})
    assert run(["weights", "--codes", missing])[0] == 4

    base = {
        "alphabet": {"ring": {"kind": "mod_n", "n": 4}, "module": {"kind": "regular"}},
        "length": 1,
    }
    dup = write_json(
        tmp_path / "c2.json",
        dict(base, codes=[{"name": "C", "generators": [[1]]}, {"name": "C", "generators": [[2]]}]),
    )
    assert run(["weights", "--codes", dup])[0] == 4

    ghost = write_json(
        tmp_path / "c3.json",
        dict(
            base,
            codes=[{"name": "C", "generators": [[1]]}],
            maps=[{"from": "C", "to": "X", "gen_images": [[1]]}],
        ),
    )
    assert run(["ep-check-extension", "--codes", ghost])[0] == 4

    no_maps = write_json(tmp_path / "c4.json", dict(base, codes=[{"name": "C", "generators": [[1]]}]))
    assert run(["ep-check-extension", "--codes", no_maps])[0] == 4


@pytest.mark.parametrize(
    "change",
    [
        {"maps": [3]},
        {"maps": 3},
        {"codes": [{"name": "C", "generators": 5}]},
        {"codes": [{"name": "C", "generators": [1]}]},
        {"codes": [{"name": ["C"], "generators": [[1]]}]},
        {"codes": 5},
        {"maps": [{"from": "C", "to": "C", "gen_images": 1}]},
        {"maps": [{"from": ["C"], "to": "C", "gen_images": [[1]]}]},
        {"codes": [{"name": "C", "generators": [[True]]}]},
        {"length": True},
    ],
    ids=[
        "map-is-int", "maps-is-int", "generators-is-int", "generator-word-is-int",
        "name-is-list", "codes-is-int", "gen-images-is-int", "from-is-list",
        "word-entry-is-bool", "length-is-bool",
    ],
)
def test_malformed_codes_file_exits_4(tmp_path, change):
    data = {
        "alphabet": {"ring": {"kind": "mod_n", "n": 4}, "module": {"kind": "regular"}},
        "length": 1,
        "codes": [{"name": "C", "generators": [[1]]}],
        **change,
    }
    path = write_json(tmp_path / "bad.json", data)
    rc, out, err = run(["weights", "--codes", path])
    assert (rc, out) == (4, "")
    assert "Traceback" not in err


def test_alphabet_spec_needs_module(tmp_path):
    path = write_json(
        tmp_path / "c.json",
        {"alphabet": {"ring": {"kind": "mod_n", "n": 4}}, "length": 1,
         "codes": [{"name": "C", "generators": [[1]]}]},
    )
    assert run(["weights", "--codes", str(path)])[0] == 4


def test_bad_command_line(capsys):
    assert main(["no-such-command"]) == 4
    assert main([]) == 4
    assert main(["ring-info"]) == 4  # missing --spec
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_the_parser_is_built_once_and_reused(tmp_path):
    assert cli._build_parser() is cli._build_parser()
    assert run(["ep-counterexample", "--m", "1", "--k", "2"])[:2] == (4, "")
    for stem in ("ring-info-m2f2", "ep-counterexample-1-2-2"):
        expected = (GOLDEN_DIR / f"{stem}.out").read_text(encoding="utf-8")
        assert run_case(stem, str(tmp_path)) == expected


def test_bad_guard_flag_value(z4_spec):
    rc, _, err = run(["ring-info", "--spec", z4_spec, "--max-order", "0"])
    assert rc == 4
    assert "positive" in err


@pytest.mark.parametrize("name, value", [("EPLAB_MAX_N", "0"), ("EPLAB_MAX_ORDER", "-3")])
def test_bad_guard_env_value(monkeypatch, z4_spec, name, value):
    monkeypatch.setenv(name, value)
    rc, out, err = run(["verify-midway", "--spec", z4_spec])
    assert rc == 4
    assert out == ""
    assert "positive" in err


@pytest.mark.parametrize("value", ["3", True, 2.5], ids=["str", "bool", "float"])
def test_guards_reject_values_that_are_not_int(value):
    with pytest.raises(InputError, match="must be an integer"):
        Guards(max_n=value)


def test_readme_lists_every_guard_with_its_default():
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Guards", 1)[1].split("\n#", 1)[0]
    listed = {name: int(value) for name, value in re.findall(r"`(\w+)` (\d+)", section)}
    assert listed == {field.name: field.default for field in dataclasses.fields(Guards)}


# ---------------------------------------------------------------------------
# determinism


def test_reports_are_byte_identical(klein_spec, z4_codes):
    for argv in (
        ["verify-all", "--spec", klein_spec],
        ["weights", "--codes", z4_codes],
        ["ep-counterexample", "--m", "1", "--k", "2", "--q", "2"],
        ["socle-report", "--spec", klein_spec],
    ):
        first = run(argv)
        second = run(argv)
        assert first[1] == second[1]
        assert first[1].endswith("}\n")
