"""The sha256 of stdout of every benchmark operation, plus one larger pack.

The counterexample reports (every ep-counterexample pack of
perfbench/workloads.PACKS and verify-necessity on each certify alphabet whose
socle is not cyclic) are too large to commit as golden files (the (1,4,2)
pack alone is 385 KB, the (1,5,2) pack 13.7 MB), so only their digests are
pinned, and each of their packs must replay to the checks its own transcript
records.  Every other operation is pinned at the seeds the benchmark runs
with first: certify at seed 0, whose operations do not depend on the seed,
and the midway and sufficiency sweeps at seeds 0, 1 and 2, whose seeds
relabel the alphabets.  The benchmark's workload list is read by path and
nothing is written under perfbench/.
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

# (workload, seed, operation name) -> digest, for every operation of those
# seeds that the two tables above do not pin.
OPERATION_DIGESTS = {
    ("certify", 0, "socle-report Z4"):
        "fda37862714268e567a46bc480af4e4d0a96d7648b0fa19c0969e8745ae30dd3",
    ("certify", 0, "verify-orbit-lemma Z4"):
        "2796e3a37163056f62ac4013deca10746a9e35379026ae05cb030e7a23cc5096",
    ("certify", 0, "verify-necessity Z4"):
        "7e0020766e5d52425bc9cc4cebae63edb0991fc92f0788f9213aac519ba6ca49",
    ("certify", 0, "socle-report Z4-Z2xZ2"):
        "3babb75fdf6e207adccdf6fc4162a910e8637859cad5648de02f6c73001f752b",
    ("certify", 0, "verify-orbit-lemma Z4-Z2xZ2"):
        "5dcc63ba6522d0eb64aeb21278a9441237afd265bbe7c3354e977cb2577743fa",
    ("certify", 0, "socle-report Z4-Z2"):
        "ffae20803bca0d54c12f3ba264a384acd47fc146246f30fb70b7e8dc5f2991a8",
    ("certify", 0, "verify-orbit-lemma Z4-Z2"):
        "0e6a180a0563bd2357cc5eb24c677fb3d183e9e962cb03e0a6fd1a73cee6c77f",
    ("certify", 0, "verify-necessity Z4-Z2"):
        "ffdb2a73a41219e8f78855893f9bbb59139e7ffc17aa9e091f4e6f7ca2bec9ba",
    ("certify", 0, "socle-report F2^2"):
        "ca0a7c8448b8503dac431b9b874b52c629dd571429372b2db0cecc9546cf73b0",
    ("certify", 0, "verify-orbit-lemma F2^2"):
        "1ff36be7ee58c0a74aae5238555ed32bc65494b7c8d546976c86650ad88bd4de",
    ("certify", 0, "socle-report M2F2-2x3"):
        "ecc3e0d7e6375acf1c99d92c8aa4a9a97255baf4970b61647971daa2c2f02feb",
    ("certify", 0, "verify-orbit-lemma M2F2-2x3"):
        "9724d145eec6c21d025d4108f69936970718c2e816b08bb0efdc9627a16d5190",
    ("certify", 0, "socle-report Z6"):
        "72ccbdc298d657895b0e804b810c1d0494a3f847003e69f14fd1d3bafaae7108",
    ("certify", 0, "verify-orbit-lemma Z6"):
        "c367b4e20027305904a8f1cc158be94ad9185d0e489a4ca5903c47a9baa32f0f",
    ("certify", 0, "verify-necessity Z6"):
        "89d1f35fa4f184ffed507bb1e3fdf3f6a5f07c423db6898f82aca8a52b8f6056",
    ("certify", 0, "socle-report F2^4"):
        "dd529795eeae61df5211b2d6390a33124479a57eda1b607d2c58963502e46359",
    ("certify", 0, "verify-orbit-lemma F2^4"):
        "ce33b11e52f2a92cc932d74d03badff16bedf6bc781987f9f81b1d62564c785d",
    ("certify", 0, "socle-report F3^3"):
        "cea17b67fa0b9729be4a0ac75e9f5f947aae9b46d96406faf80675c5fb5d2c94",
    ("certify", 0, "verify-orbit-lemma F3^3"):
        "504bc6301e154e1cb9c97a3de9ca025ae56e90a80a0919f35a6ba1a13d3ea1b7",
    ("certify", 0, "socle-report F4^2"):
        "3677fcc8afa6459d5fd8c94874474ecd73db85c38899b0d0c2c7c9c8299fd4d4",
    ("certify", 0, "verify-orbit-lemma F4^2"):
        "a1ca719cfd863cf59405c06b2440d314a2da8f6546c48df24053164d486875d9",
    ("certify", 0, "socle-report Z8+Z8"):
        "d3aa220ae95d247785544b60e0e11458c3e44000157542a6bbfe19999f41469f",
    ("certify", 0, "verify-orbit-lemma Z8+Z8"):
        "ecdd616245de7304caef51e2561fe72ac5cf520c2fd263d30a7e1631fac2bc41",
    ("certify", 0, "socle-report Z4+Z2xZ2"):
        "bb4379e31fc7cefc230ff466ea76c4f0da0a3ea81ecad32d284f8df072ac07c8",
    ("certify", 0, "verify-orbit-lemma Z4+Z2xZ2"):
        "5c95e41f4194bd41f611c2a98876d3703e6a9731189cf07234125d1423a0dba3",
    ("midway", 0, "verify-midway Z4-Z2xZ2"):
        "b4ea33c4069a4c4fb4251cb7a4040de51f7f2ac7010c47b42fe27abb4c4d5684",
    ("midway", 0, "verify-midway Z4"):
        "070bc3ed619d595740b56c3736f671946d41ef17f78fa6ccf61d8a571fa2d458",
    ("midway", 0, "verify-midway Z8"):
        "cb01418ca68cabf4a9569ab31562905b044d9bbd9ae636db462c15def787ed69",
    ("midway", 1, "verify-midway Z4-Z2xZ2"):
        "9f21ad8b00bf83f1803568940b7403ccd54a04522f726448d1468657c56bbe87",
    ("midway", 1, "verify-midway Z4"):
        "f70836f22f49d46e29e86703e68b0c963875c98568af58f452c5febad5a9650a",
    ("midway", 1, "verify-midway Z8"):
        "4e8ba679b9eff83785215ac881dcc15922190e66f4e943876baf1a65aecc5de3",
    ("midway", 2, "verify-midway Z4-Z2xZ2"):
        "9f21ad8b00bf83f1803568940b7403ccd54a04522f726448d1468657c56bbe87",
    ("midway", 2, "verify-midway Z4"):
        "e480a654c66015b27dc3008ec5a50b0863e9e37714dd8cbd517a71cc90bd1d49",
    ("midway", 2, "verify-midway Z8"):
        "a4981e47a8586f584ac081f9220c875db761f0a2ac61f94a3ab9ad0d30e77539",
    ("sufficiency", 0, "verify-sufficiency F2"):
        "3c4b5f20a1b5126f5d5646941581fd3db7251685631abc0021ed91afd21e1a8a",
    ("sufficiency", 0, "verify-sufficiency Z4"):
        "6f241a7d1bc798db47426a5869f37cecf3bf0c2878e363a3fe92e6f0ff7835ed",
    ("sufficiency", 0, "verify-sufficiency F4"):
        "514e00510508678dc1e26e9c1218b6ad6507b806b0d9e01987691b5d6101c8d9",
    ("sufficiency", 0, "verify-sufficiency F8"):
        "5eac706d64e905731172ee03582d103ccbd442491074d782928241a9a95b7df8",
    ("sufficiency", 0, "verify-sufficiency F7"):
        "a0e64029767707edad12787a847ef1a277d76ef651a312e6ddba6604e8a83c6f",
    ("sufficiency", 1, "verify-sufficiency F2"):
        "5572a0a02ecb618cf328f5f5317a06c23a8fca5ff0003c5eef3e1df864384772",
    ("sufficiency", 1, "verify-sufficiency Z4"):
        "3955418475cb2ea444fc59e15fcccaf23a58afb439ea04389ae3401019ece66d",
    ("sufficiency", 1, "verify-sufficiency F4"):
        "58a7003f9c10a60a595fc5835e7c4868ea8fd1b46f5534d2061ce41d3262e2d9",
    ("sufficiency", 1, "verify-sufficiency F8"):
        "046b43cc7e13257f49a3e8f8452042556fd67beccaa0f75aab8284326ade550c",
    ("sufficiency", 1, "verify-sufficiency F7"):
        "d5c897a93fd24fb9408255aceb9b941d6855aa403fd526588e274ba41b3098e6",
    ("sufficiency", 2, "verify-sufficiency F2"):
        "5572a0a02ecb618cf328f5f5317a06c23a8fca5ff0003c5eef3e1df864384772",
    ("sufficiency", 2, "verify-sufficiency Z4"):
        "b169bed1817c162c7f4f420f6ddd69eaf230492ac2aaabb4d0d94bc9269445c0",
    ("sufficiency", 2, "verify-sufficiency F4"):
        "5b07768d7378d9faf207d18203c19bb4648e747a222e4badd68f8f294a124b42",
    ("sufficiency", 2, "verify-sufficiency F8"):
        "da479c9d6eb5f0be855bad7d2f54280bb698d8ed277a38355597c38c9fbcf0cd",
    ("sufficiency", 2, "verify-sufficiency F7"):
        "2b9921c3a9afcc5d7e85c79edb918ff6ad8ceef97f9ce8202b0d45d1e1e0e9e0",
}

SEEDS = {"certify": (0,), "midway": (0, 1, 2), "sufficiency": (0, 1, 2)}

NON_CYCLIC = [entry for entry in WORKLOADS.CERTIFY_ALPHABETS if not entry[3]]


def _stdout_digest(argv, monkeypatch) -> tuple[int, str]:
    for name in ("MAX_ORDER", "MAX_FIELD", "MAX_N", "MAX_GENS", "MAX_CODE"):
        monkeypatch.delenv(f"EPLAB_{name}", raising=False)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(argv)
    return rc, hashlib.sha256(out.getvalue().encode()).hexdigest()


def _benchmark_ops(workload, seed, workdir) -> dict:
    """The workload's operations at this seed by name, with their spec files
    written to workdir."""
    return {op.name: op for op in WORKLOADS.build_ops(workload, seed, workdir)}


def test_digests_cover_the_benchmark_operations(tmp_path):
    assert sorted(PACK_DIGESTS) == sorted(params for params, _ in WORKLOADS.PACKS)
    assert sorted(NECESSITY_DIGESTS) == sorted(entry[0] for entry in NON_CYCLIC)
    pinned_apart = {f"ep-counterexample {m},{k},{q}" for (m, k, q), _ in WORKLOADS.PACKS}
    pinned_apart |= {f"verify-necessity {entry[0]}" for entry in NON_CYCLIC}
    unpinned = []
    for workload, seeds in SEEDS.items():
        for seed in seeds:
            workdir = tmp_path / f"{workload}-{seed}"
            workdir.mkdir()
            names = set(_benchmark_ops(workload, seed, workdir)) - pinned_apart
            unpinned += [(workload, seed, name) for name in names]
    assert sorted(OPERATION_DIGESTS) == sorted(unpinned)


@pytest.mark.parametrize("key", list(OPERATION_DIGESTS), ids=lambda key: "-".join(map(str, key)))
def test_benchmark_operation_stdout_digest(key, tmp_path, monkeypatch):
    workload, seed, name = key
    op = _benchmark_ops(workload, seed, tmp_path)[name]
    assert _stdout_digest(op.argv, monkeypatch) == (op.expect["exit"], OPERATION_DIGESTS[key])


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
