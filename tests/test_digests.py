"""The sha256 of stdout of the benchmark's counterexample operations: every
ep-counterexample pack of perfbench/workloads.PACKS and verify-necessity on
each certify alphabet whose socle is not cyclic, plus one larger pack.  The
reports are too large to commit as golden files (the (1,4,2) pack alone is
385 KB, the (1,5,2) pack 13.7 MB), so only their digests are pinned, and
each of their packs must replay to the checks its own transcript records.
The benchmark's workload list is read by path and nothing is written under
perfbench/.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import pathlib

import pytest

from eplab.cli import main
from eplab.modules import module_make
from eplab.rings import ring_make
from eplab.theorems import build_counterexample, pack_from_json, replay_pack, verify_necessity

PERFBENCH = pathlib.Path(__file__).parents[1] / "perfbench"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _workloads()

PACK_DIGESTS = {
    (1, 2, 2): "f57ff4d1fde44abd0394b56bfea7f1706f35bd2535a8d766940e2eaa45e77284",
    (1, 2, 3): "6e458cd6ca8790b160d875310c3e9ab0abbaca283c91df1bd05a4a6c0554c0a1",
    (1, 2, 4): "c5124cb5c53a01098ea19b22118fb5c70a3389d587ef165780c68404961e8191",
    (1, 2, 5): "b00c1b0309b78d26df17d1889a3a060aea2bed9607653096a37982f696de8e70",
    (1, 2, 7): "bf40ecefd98f57ebbd4b1eea7dbc91143e25c87e3249e78f3363540bf70a9bcb",
    (1, 2, 8): "534401f8f568729a0a64ab3f24ed3f26cd959e1abd77c619b9f78f4e424ddb44",
    (1, 3, 2): "fa9911b9659c88b1caf0db23b1eafb411b1a52f08d25a648d617f6bc016f7ad7",
    (2, 3, 2): "2259593e3481316dcbf8c19013a26a06c667519e1d2fbb698e158488266c7ef4",
    (1, 3, 3): "7ece48c4cec49171c82d3e59e2c7872597a2e4b0cde8e02eb8ff9cb001e72c58",
    (1, 4, 2): "fffbad495f10de4ff78a66857bf5a09fba47ff5cb7951fb4c2a84d332998c37c",
}

# A pack beyond the benchmark's: 374 subspaces against the 67 that the
# largest of PACKS reaches.  Kept apart from PACK_DIGESTS, which must list
# exactly the benchmark's packs.
LARGE_PACK_DIGESTS = {
    (1, 5, 2): "7ec252db48fcde58390764b9a42ac334a00c325c543f081a24ebe0444a780c88",
}

NECESSITY_DIGESTS = {
    "Z4-Z2xZ2": "46c9329bd451c6915d03f7aafe752c24c43c80768ae8e19ba8e15f024f1c7988",
    "F2^2": "969921af52c5da32d81a38e2aec0e2a2c95faaf7a044250eff656a399df38759",
    "M2F2-2x3": "26cd3b7b08051afc5cace900d61422a158895a0067021bf680e80600b021b6f2",
    "F2^4": "fd03a61c14958a0347c60e357dd0c12a3552dd11a85cdb1af0dc2536eca549f0",
    "F3^3": "be7860930fb045ede64a008888857248f572a54887c86d506c7d2d2d71b66a12",
    "F4^2": "43d42fab94d8862d84b319bcd08fed423eea4dde810eb0f9d88112c26db1f2c7",
    "Z8+Z8": "7b9a05b6821d24c345440e4651f01a09e8947c4643f64866b0475e11da612247",
    "Z4+Z2xZ2": "b2da7878cf4d35740ab29eb45915b44bcab6683af248cca77c595acea67b5d12",
}

NON_CYCLIC = [entry for entry in WORKLOADS.CERTIFY_ALPHABETS if not entry[3]]


def _stdout_digest(argv, monkeypatch) -> tuple[int, str]:
    for name in ("MAX_ORDER", "MAX_FIELD", "MAX_N", "MAX_GENS", "MAX_CODE"):
        monkeypatch.delenv(f"EPLAB_{name}", raising=False)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(argv)
    return rc, hashlib.sha256(out.getvalue().encode()).hexdigest()


def test_digests_cover_the_benchmark_operations():
    assert sorted(PACK_DIGESTS) == sorted(params for params, _ in WORKLOADS.PACKS)
    assert sorted(NECESSITY_DIGESTS) == sorted(entry[0] for entry in NON_CYCLIC)


@pytest.mark.parametrize("params", [params for params, _ in WORKLOADS.PACKS], ids=str)
def test_ep_counterexample_stdout_digest(params, monkeypatch):
    m, k, q = params
    argv = ["ep-counterexample", "--m", str(m), "--k", str(k), "--q", str(q)]
    assert _stdout_digest(argv, monkeypatch) == (1, PACK_DIGESTS[params])


@pytest.mark.parametrize("params", sorted(LARGE_PACK_DIGESTS), ids=str)
def test_large_ep_counterexample_stdout_digest(params, monkeypatch):
    m, k, q = params
    argv = ["ep-counterexample", "--m", str(m), "--k", str(k), "--q", str(q)]
    assert _stdout_digest(argv, monkeypatch) == (1, LARGE_PACK_DIGESTS[params])


@pytest.mark.parametrize("entry", NON_CYCLIC, ids=lambda entry: entry[0])
def test_verify_necessity_stdout_digest(entry, tmp_path, monkeypatch):
    name, ring, module = entry[:3]
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"ring": ring, "module": module}))
    argv = ["verify-necessity", "--spec", str(spec)]
    assert _stdout_digest(argv, monkeypatch) == (1, NECESSITY_DIGESTS[name])


def _replays_to_its_transcript(pack_json):
    pack = pack_from_json(json.loads(json.dumps(pack_json)))
    transcript = pack.transcript
    report = replay_pack(pack)
    assert report.result == "verified"
    assert report.details == {
        "checks": transcript["checks"],
        "certificate": transcript["certificate"],
        "search_nodes": transcript["search_nodes"],
    }
    assert transcript["required_checks"] == sorted(transcript["checks"])


@pytest.mark.parametrize("params", [params for params, _ in WORKLOADS.PACKS], ids=str)
def test_ep_counterexample_pack_replays_to_its_transcript(params):
    _replays_to_its_transcript(build_counterexample(*params).as_json())


@pytest.mark.parametrize("entry", NON_CYCLIC, ids=lambda entry: entry[0])
def test_verify_necessity_pack_replays_to_its_transcript(entry):
    _, ring, module = entry[:3]
    report = verify_necessity(module_make(ring_make(ring), module))
    _replays_to_its_transcript(report.details["pack"])
