"""Theorem layer: counterexample packs, peeling, and the bounded verifiers."""

import dataclasses
import functools
import itertools
import json
import math
import random
import time
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eplab import modules, theorems

from eplab.codes import (
    Code,
    CodeMap,
    code_generate,
    code_map_make,
    extension_search,
    fixing_order,
    map_preserves,
    weight_profile,
)
from eplab.errors import (
    GuardExceeded,
    Guards,
    InputError,
    InternalConsistencyError,
    UnsupportedConstruction,
)
from eplab.fields import FiniteField, Matrix, index_to_entries, index_to_matrix, matrix_to_index
from eplab.modules import (
    _validate_module_tables,
    annihilator_sets,
    automorphism_group,
    character_module,
    direct_power,
    embedding_search,
    iter_linear_maps,
    module_generators,
    module_make,
    orbit_lattice,
    partition,
    socle_report,
)
from eplab.rings import (
    Module,
    Submodule,
    exact_exponent,
    is_left_pir,
    principal_generator,
    ring_make,
    submodules_enumerate,
)
from eplab.theorems import (
    CounterexamplePack,
    VerdictReport,
    build_counterexample,
    counterexample_length,
    midway_peeling,
    pack_from_json,
    replay_pack,
    verify_all,
    verify_midway,
    verify_necessity,
    verify_orbit_lemma,
    verify_sufficiency,
)
from eplab.theorems import (
    _code_map_from_tuple,
    _monomial_generators,
    _projection,
    _subspaces,
    _sweep_bounds,
)
from test_codes import column_fingerprint
from test_golden import CASES, SPECS
from test_modules import (
    check_chain_against_the_listing,
    filtered_chain_generators,
    submodule_orbits,
    union_find_least_in_orbit,
)
from test_perfbench_targets import _load
from test_rings import ORACLE_RINGS


def mod_ring(n):
    return ring_make({"kind": "mod_n", "n": n})


def matrix_module(m, q, k):
    ring = ring_make({"kind": "matrix", "m": m, "q": q})
    return module_make(ring, {"kind": "column", "k": k})


def z4_klein():
    return module_make(
        mod_ring(4),
        {"kind": "direct_sum", "summands": [{"kind": "mod_m", "m": 2}, {"kind": "mod_m", "m": 2}]},
    )


def z2_plus_z4():
    return module_make(
        mod_ring(4),
        {"kind": "direct_sum", "summands": [{"kind": "mod_m", "m": 2}, {"kind": "mod_m", "m": 4}]},
    )


def relabelled(module, perm):
    """The same module as a "table" descriptor, element a renamed perm[a]."""
    order = module.order
    add = [[0] * order for _ in range(order)]
    act = [[0] * order for _ in module.ring.elements()]
    for a in module.elements():
        for b in module.elements():
            add[perm[a]][perm[b]] = perm[module.add_table[a][b]]
        for r in module.ring.elements():
            act[r][perm[a]] = perm[module.act_table[r][a]]
    return module_make(module.ring, {"kind": "table", "add": add, "act": act})


def local_xy_ring():
    """F_2[x,y]/(x,y)^2 as a table ring; not a principal ideal ring."""
    def split(i):
        return (i >> 2) & 1, (i >> 1) & 1, i & 1

    def join(a, b, c):
        return a * 4 + b * 2 + c

    add = [[0] * 8 for _ in range(8)]
    mul = [[0] * 8 for _ in range(8)]
    for i in range(8):
        a1, b1, c1 = split(i)
        for j in range(8):
            a2, b2, c2 = split(j)
            add[i][j] = join((a1 + a2) % 2, (b1 + b2) % 2, (c1 + c2) % 2)
            mul[i][j] = join(
                (a1 * a2) % 2, (a1 * b2 + b1 * a2) % 2, (a1 * c2 + c1 * a2) % 2
            )
    return ring_make({"kind": "table", "add": add, "mul": mul})


def _codes_of_length(alphabet, n, max_gens, guards=Guards()):
    """(ambient A^n, its words by index, its codes as _sweep lists them, as
    (members, generators) pairs)."""
    ambient = direct_power(alphabet, n, guards)
    words = [index_to_entries(x, alphabet.order, n) for x in ambient.elements()]
    codes = submodules_enumerate(ambient, guards, max_gens)
    return ambient, words, [(code.members, code.generators) for code in codes]


def _orbit_firsts(alphabet, words, codes):
    """The orbit split of theorems._sweep on a _codes_of_length list."""
    subs = [Submodule(members) for members, _ in codes]
    return submodule_orbits(subs, _monomial_generators(alphabet, words, Guards()))


def _image_code(lattice, fmap):
    """The index in lattice.codes of the code whose members are fmap's images."""
    image = tuple(sorted(fmap))
    return next(k for k, code in enumerate(lattice.codes) if code.members == image)


def _unreduced_sweep(alphabet, max_n, max_gens, counts, onto=False, guards=Guards()):
    """Yield (lattice, i, j, fmap) for every injective linear map fmap from
    lattice.codes[i] onto lattice.codes[j], the codes of A^n, n = 1..max_n,
    counting codes in counts["codes"]: the sweep without orbit reduction,
    the oracle for theorems._sweep.  The lattice's profiles are left empty."""
    for n in range(1, max_n + 1):
        ambient, words, codes = _codes_of_length(alphabet, n, max_gens, guards)
        lattice = theorems._Lattice(
            alphabet, words, [], submodules_enumerate(ambient, guards, max_gens)
        )
        for i, (members, gens) in enumerate(codes):
            counts["codes"] += 1
            targets = [None]
            if onto:
                targets = [frozenset(other) for other, _ in codes if len(other) == len(members)]
            for target in targets:
                for fmap in iter_linear_maps(
                    ambient, ambient, gens, injective=True, target_members=target
                ):
                    yield lattice, i, _image_code(lattice, fmap), fmap


# ---------------------------------------------------------------------------
# length formula and subspace enumeration


def test_counterexample_length_table():
    assert counterexample_length(2, 2) == 3
    assert counterexample_length(3, 2) == 4
    assert counterexample_length(2, 3) == 15
    assert counterexample_length(2, 4) == 135


def test_counterexample_length_k1_is_empty_product():
    for q in (2, 3, 4, 5):
        assert counterexample_length(q, 1) == 1


def test_counterexample_length_validation():
    with pytest.raises(InputError):
        counterexample_length(6, 2)
    with pytest.raises(InputError):
        counterexample_length(2, 0)


def test_subspace_counts():
    # Gaussian binomial totals: sum_d [k choose d]_q
    assert len(_subspaces(matrix_module(1, 2, 2), Guards())[0]) == 5
    assert len(_subspaces(matrix_module(1, 2, 3), Guards())[0]) == 16
    assert len(_subspaces(matrix_module(1, 3, 2), Guards())[0]) == 6


@pytest.mark.parametrize("m,k,q", [(2, 3, 2), (2, 3, 3), (2, 4, 2)])
def test_subspaces_of_a_wider_alphabet_are_those_of_its_rows(m, k, q):
    """For m > 1 the lattice is that of F_q^k, the alphabet of m = 1."""
    guards = Guards(max_order=729)
    ring = ring_make({"kind": "matrix", "m": m, "q": q}, guards)
    wide = module_make(ring, {"kind": "column", "k": k}, guards)
    assert _subspaces(wide, guards) == _subspaces(matrix_module(1, q, k), guards)


def _vector_subspaces(q, k):
    """_subspaces with each member index spelled out as its vector."""
    subspaces, _ = _subspaces(matrix_module(1, q, k), Guards())
    return [tuple(index_to_entries(x, q, k) for x in s) for s in subspaces]


def test_subspaces_are_closed_and_ordered():
    field = FiniteField(2)
    subs = _vector_subspaces(2, 2)
    assert subs[0] == ((0, 0),)
    assert subs[-1] == ((0, 0), (0, 1), (1, 0), (1, 1))
    sizes = [len(s) for s in subs]
    assert sizes == sorted(sizes)
    for sub in subs:
        members = set(sub)
        for u in members:
            for v in members:
                assert tuple(field.add(a, b) for a, b in zip(u, v)) in members


def _vec_add(field, u, v):
    return tuple(field.add(a, b) for a, b in zip(u, v))


def _vec_scale(field, c, v):
    return tuple(field.mul(c, a) for a in v)


def _oracle_subspaces(field, k):
    """All subspaces of F_q^k by closing spans of vectors, ordered by (dim,
    members): the oracle for the module lattice of F_q^k."""
    zero = (0,) * k
    vectors = [tuple(v) for v in itertools.product(range(field.q), repeat=k)]
    seen = {frozenset({zero})}
    frontier = list(seen)
    while frontier:
        grown = []
        for sub in frontier:
            for v in vectors:
                if v in sub:
                    continue
                span = frozenset(
                    _vec_add(field, s, _vec_scale(field, c, v))
                    for s in sub
                    for c in range(field.q)
                )
                if span not in seen:
                    seen.add(span)
                    grown.append(span)
        frontier = grown
    return sorted((tuple(sorted(s)) for s in seen), key=lambda t: (len(t), t))


SUBSPACE_SHAPES = [(2, 2), (3, 2), (4, 2), (5, 2), (7, 2), (8, 2), (2, 3), (3, 3), (2, 4)]


@pytest.mark.parametrize("q,k", SUBSPACE_SHAPES)
def test_subspace_lattice_matches_the_vector_oracle(q, k):
    assert _vector_subspaces(q, k) == _oracle_subspaces(FiniteField(q), k)


def _complement_pairs(q, k, subspaces):
    """(V, W) index pairs of subspaces with F_q^k = V + W direct."""
    return [
        (vi, wi)
        for vi, v in enumerate(subspaces)
        for wi, w in enumerate(subspaces)
        if len(v) * len(w) == q**k and len(set(v) & set(w)) == 1
    ]


@pytest.mark.parametrize("q,k", SUBSPACE_SHAPES)
def test_projection_fixes_its_subspace_and_kills_its_kernel(q, k):
    """P.P = P, P.v = v on V and P.w = 0 on W: together they fix P."""
    field = FiniteField(q)
    subspaces, add = _subspaces(matrix_module(1, q, k), Guards())
    pairs = _complement_pairs(q, k, subspaces)
    # a d-dimensional subspace has q^(d (k - d)) complements
    dims = [exact_exponent(len(v), q) for v in subspaces]
    assert len(pairs) == sum(q ** (d * (k - d)) for d in dims)
    for vi, wi in pairs:
        p = _projection(field, k, add, subspaces[vi], subspaces[wi])
        assert p.mul(p) == p
        for members, fixed in ((subspaces[vi], True), (subspaces[wi], False)):
            for x in members:
                column = Matrix(field, k, 1, index_to_entries(x, q, k))
                assert p.mul(column).entries == (column.entries if fixed else (0,) * k)


# ---------------------------------------------------------------------------
# the basic pack


def test_build_1_2_2_pack_frozen():
    pack = build_counterexample(1, 2, 2)
    assert pack.length == 3
    assert pack.construction == "subspace"
    assert pack.params == {"m": 1, "k": 2, "q": 2, "code_size": 4}
    assert pack.generators_plus == ((0, 1, 1), (0, 2, 2))
    assert pack.generators_minus == ((1, 0, 2), (0, 2, 2))
    assert pack.gen_images == pack.generators_minus
    assert all(pack.transcript["checks"].values())
    assert pack.transcript["certificate"] == "exhaustive-search"

    alphabet = matrix_module(1, 2, 2)
    plus = code_generate(alphabet, 3, pack.generators_plus)
    minus = code_generate(alphabet, 3, pack.generators_minus)
    assert plus.elements == ((0, 0, 0), (0, 1, 1), (0, 2, 2), (0, 3, 3))
    assert minus.elements == ((0, 0, 0), (0, 2, 2), (1, 0, 2), (1, 2, 0))


def test_build_1_2_2_coordinates_listing():
    pack = build_counterexample(1, 2, 2)
    coords = pack.transcript["coordinates"]
    assert [c["dim"] for c in coords["plus"]] == [0, 2, 2]
    assert [c["dim"] for c in coords["minus"]] == [1, 1, 1]
    assert [c["copy"] for c in coords["plus"]] == [0, 0, 1]


@pytest.mark.parametrize(
    "m,k,q,length",
    [(1, 2, 3, 4), (1, 3, 2, 15), (2, 3, 2, 15)],
)
def test_build_larger_packs_verify(m, k, q, length):
    pack = build_counterexample(m, k, q)
    assert pack.length == length
    assert pack.construction == "subspace"
    assert replay_pack(pack).result == "verified"


@pytest.mark.parametrize(
    "m,k,q", [(1, 2, 2), (1, 3, 2), (2, 3, 2), (1, 2, 3), (1, 2, 4), (1, 2, 5)]
)
def test_build_is_a_single_pass(m, k, q):
    pack = build_counterexample(m, k, q)
    assert pack.transcript["attempt"] == 0
    assert pack.transcript["checks"]
    assert all(pack.transcript["checks"].values())
    assert pack.transcript["required_checks"] == sorted(pack.transcript["checks"])


def _logged(real, log):
    def wrapper(*args):
        log.append(real(*args))
        return log[-1]

    return wrapper


@pytest.mark.parametrize("m,k,q", [(1, 2, 2), (1, 3, 2), (2, 3, 2), (1, 2, 4), (1, 3, 3)])
def test_coordinate_tables_match_the_matrix_product_oracle(m, k, q, monkeypatch):
    """Each final table of a -> a.P, the m-fold product of the row table
    x -> x.P, equals the product a.P for every a; there is one per
    (subspace, kernel) pair, and the generator words read the products of
    the pair each coordinate names."""
    projections, tables = [], []
    monkeypatch.setattr(theorems, "_projection", _logged(_projection, projections))
    monkeypatch.setattr(
        theorems, "_coordinate_table", _logged(theorems._coordinate_table, tables)
    )
    pack = build_counterexample(m, k, q)
    field = FiniteField(q)
    mats = [index_to_matrix(field, m, k, a) for a in range(q ** (m * k))]
    for proj, table in zip(projections, tables, strict=True):
        assert table == tuple(matrix_to_index(a.mul(proj)) for a in mats)

    subspaces, add = _subspaces(matrix_module(1, q, k), Guards())
    vectors = _vector_subspaces(q, k)
    members = {json.dumps([list(v) for v in vs]): s for vs, s in zip(vectors, subspaces)}
    gens = module_generators(matrix_module(m, q, k))
    pairs = set()
    for side, words in (("plus", pack.generators_plus), ("minus", pack.generators_minus)):
        coordinates = pack.transcript["coordinates"][side]
        coords = [(json.dumps(c["subspace"]), json.dumps(c["kernel"])) for c in coordinates]
        pairs.update(coords)
        projs = [_projection(field, k, add, members[v], members[w]) for v, w in coords]
        assert words == tuple(tuple(matrix_to_index(mats[g].mul(p)) for p in projs) for g in gens)
    assert len(tables) == len(pairs)


@pytest.mark.parametrize("m,k,q", [(1, 3, 2), (2, 3, 2), (1, 2, 3)])
def test_kernel_choice_never_changes_an_orbit(m, k, q):
    """a.P(V, W) and a.P(V, W') share an orbit for all complements W, W' of V."""
    field = FiniteField(q)
    alphabet = matrix_module(m, q, k)
    labels = partition(alphabet, "orbit")
    mats = [index_to_matrix(field, m, k, a) for a in alphabet.elements()]
    subspaces, add = _subspaces(matrix_module(1, q, k), Guards())
    pairs = _complement_pairs(q, k, subspaces)
    for vi, sub in enumerate(subspaces):
        complements = [wi for v, wi in pairs if v == vi]
        assert complements
        orbit_rows = set()
        for wi in complements:
            proj = _projection(field, k, add, sub, subspaces[wi])
            assert proj.mul(proj) == proj
            orbit_rows.add(tuple(labels[matrix_to_index(a.mul(proj))] for a in mats))
        assert len(orbit_rows) == 1


def test_build_validation_and_guards():
    with pytest.raises(InputError):
        build_counterexample(1, 1, 2)
    with pytest.raises(InputError):
        build_counterexample(1, 2, 6)
    with pytest.raises(InputError):
        build_counterexample(0, 2, 2)
    with pytest.raises(GuardExceeded):
        build_counterexample(2, 3, 3)


def test_pack_json_roundtrip():
    pack = build_counterexample(1, 2, 2)
    restored = pack_from_json(json.loads(json.dumps(pack.as_json())))
    assert restored == pack


def test_packs_replay_through_json_by_exhaustive_search():
    pack = build_counterexample(1, 2, 2)
    report = replay_pack(pack_from_json(json.loads(json.dumps(pack.as_json()))))
    assert report.result == "verified"
    assert report.details["certificate"] == "exhaustive-search"
    assert report.details["search_nodes"] == 0


def test_pack_from_json_rejects_malformed():
    pack = build_counterexample(1, 2, 2).as_json()
    with pytest.raises(InputError):
        pack_from_json({"format": "something-else"})
    broken = dict(pack)
    del broken["generators_plus"]
    with pytest.raises(InputError):
        pack_from_json(broken)


_MISSING = object()


@pytest.mark.parametrize(
    "field,value",
    [
        ("params", 5),
        ("transcript", 3),
        ("length", 2.0),
        ("length", True),
        ("gen_images", [[1.7, 0]]),
        ("generators_plus", [["1", 0]]),
        ("generators_minus", [[True, 0]]),
        ("generators_plus", [1]),
        ("params.q", _MISSING),
        ("params.k", _MISSING),
        ("params.q", 2.0),
        ("params.k", "3"),
        ("transcript.required_checks", 5),
        ("transcript.required_checks", [["no_extension"]]),
    ],
)
def test_pack_from_json_rejects_malformed_fields(field, value):
    pack = build_counterexample(1, 2, 2).as_json()
    *parents, key = field.split(".")
    target = pack
    for parent in parents:
        target = target[parent]
    if value is _MISSING:
        del target[key]
    else:
        target[key] = value
    with pytest.raises(InputError) as info:
        pack_from_json(pack)
    assert info.value.exit_code == 4


@pytest.mark.parametrize("construction", ["search", "", None])
def test_pack_from_json_rejects_unknown_construction(construction):
    pack = build_counterexample(1, 2, 2).as_json()
    pack["construction"] = construction
    with pytest.raises(InputError) as info:
        pack_from_json(pack)
    assert info.value.exit_code == 4


def test_tampered_pack_fails_replay():
    pack = build_counterexample(1, 2, 2)
    tampered = CounterexamplePack(
        ring=pack.ring,
        alphabet=pack.alphabet,
        length=pack.length,
        construction=pack.construction,
        params=pack.params,
        generators_plus=pack.generators_plus,
        generators_minus=pack.generators_plus,
        gen_images=pack.generators_plus,
        transcript=pack.transcript,
    )
    assert replay_pack(tampered).result == "counterexample"
    # the identity map extends; a transcript that leaves out no_extension
    # must not let it replay as verified
    for required in ([], ["hamming_preserved"]):
        transcript = dict(pack.transcript, required_checks=required)
        with pytest.raises(InputError, match="required_checks"):
            replay_pack(dataclasses.replace(tampered, transcript=transcript))


def test_replay_bounds_its_work_on_pack_integers():
    pack = build_counterexample(1, 2, 2)
    start = time.perf_counter()
    with pytest.raises(GuardExceeded, match="field order"):
        replay_pack(dataclasses.replace(pack, params=dict(pack.params, q=1000000007)))
    assert time.perf_counter() - start < 1
    start = time.perf_counter()
    report = replay_pack(dataclasses.replace(pack, params=dict(pack.params, k=3000)))
    assert time.perf_counter() - start < 1
    assert report.result == "counterexample"
    assert report.details["checks"]["length_matches_formula"] is False


# ---------------------------------------------------------------------------
# orbit lemma


def test_orbit_lemma_z4():
    report = verify_orbit_lemma(module_make(mod_ring(4), {"kind": "regular"}))
    assert report.result == "verified"
    assert report.details["orbit_labels"] == [0, 1, 2, 1]
    assert report.details["annihilator_labels"] == [0, 1, 2, 1]
    assert report.counts == {"orbit_classes": 3, "annihilator_classes": 3}


def test_orbit_lemma_f2_square():
    report = verify_orbit_lemma(matrix_module(1, 2, 2))
    assert report.result == "verified"
    assert report.details["orbit_labels"] == [0, 1, 1, 1]


def test_orbit_lemma_unmet_still_refines():
    report = verify_orbit_lemma(z2_plus_z4())
    assert report.result == "hypotheses-unmet"
    assert report.exit_code == 2
    assert report.hypotheses == {"pseudo_injective": False}
    assert report.details["refinement_holds"] is True
    assert report.details["partitions_equal"] is False


# ---------------------------------------------------------------------------
# peeling


def test_peeling_on_basic_counterexample():
    pack = build_counterexample(1, 2, 2)
    alphabet = matrix_module(1, 2, 2)
    plus = code_generate(alphabet, 3, pack.generators_plus)
    minus = code_generate(alphabet, 3, pack.generators_minus)
    cmap = code_map_make(plus, minus, pack.gen_images)
    report = midway_peeling(cmap)
    assert report.result == "verified"
    assert report.counts == {"words": 4, "stages": 7}
    by_word = {tuple(t["word"]): t["steps"] for t in report.details["trace"]}
    assert by_word[(0, 0, 0)] == [
        {"ideal": [0, 1], "generator": 1, "removed_source": 3, "removed_image": 3}
    ]
    assert by_word[(0, 1, 1)] == [
        {"ideal": [0, 1], "generator": 1, "removed_source": 1, "removed_image": 1},
        {"ideal": [0], "generator": 0, "removed_source": 2, "removed_image": 2},
    ]


def test_peeling_trace_z4():
    z4reg = module_make(mod_ring(4), {"kind": "regular"})
    code = code_generate(z4reg, 2, [[1, 2]])
    assert code.elements == ((0, 0), (1, 2), (2, 0), (3, 2))
    cmap = code_map_make(code, code, [[3, 2]])
    report = midway_peeling(cmap)
    assert report.result == "verified"
    by_word = {tuple(t["word"]): t["steps"] for t in report.details["trace"]}
    assert by_word[(1, 2)] == [
        {"ideal": [0, 2], "generator": 2, "removed_source": 1, "removed_image": 1},
        {"ideal": [0], "generator": 0, "removed_source": 1, "removed_image": 1},
    ]
    assert by_word[(2, 0)] == [
        {"ideal": [0, 1, 2, 3], "generator": 1, "removed_source": 1, "removed_image": 1},
        {"ideal": [0, 2], "generator": 2, "removed_source": 1, "removed_image": 1},
    ]


def test_peeling_identity_map_trivial():
    alphabet = matrix_module(1, 2, 2)
    code = code_generate(alphabet, 2, [[1, 3]])
    cmap = code_map_make(code, code, [[1, 3]])
    assert midway_peeling(cmap).result == "verified"


def test_peeling_requires_hamming_preservation():
    z4reg = module_make(mod_ring(4), {"kind": "regular"})
    source = code_generate(z4reg, 2, [[1, 0]])
    target = code_generate(z4reg, 2, [[1, 1]])
    cmap = code_map_make(source, target, [[1, 1]])
    report = midway_peeling(cmap)
    assert report.result == "hypotheses-unmet"
    assert report.hypotheses["hamming_preserved"] is False


def test_peeling_requires_principal_ideals():
    ring = local_xy_ring()
    regular = module_make(ring, {"kind": "regular"})
    code = code_generate(regular, 1, [[2]])
    cmap = code_map_make(code, code, [[2]])
    report = midway_peeling(cmap)
    assert report.result == "hypotheses-unmet"
    assert report.hypotheses["ring_left_pir"] is False


def _peel_word_by_word(cmap, guards=Guards()):
    """The unmemoised peel, one word at a time: the oracle for midway_peeling."""
    claim = "every codeword peels to balanced counts at each principal annihilator stage"
    alphabet = cmap.source.alphabet
    ring = alphabet.ring
    hypotheses = {
        "hamming_preserved": map_preserves(cmap, "hamming", guards=guards),
        "ring_left_pir": is_left_pir(ring, guards),
    }
    if not all(hypotheses.values()):
        return VerdictReport(
            claim, "hypotheses-unmet", hypotheses, {},
            {"note": "peeling applies to Hamming-preserving maps over left principal ideal rings"},
        )
    anns = annihilator_sets(alphabet)
    act = alphabet.act_table
    zero = alphabet.zero
    trace = []
    witness = None
    total_stages = 0
    for word in sorted(cmap.mapping):
        image = cmap.mapping[word]
        rem_w, rem_i = list(word), list(image)
        steps = []
        while rem_w or rem_i:
            present = {anns[x] for x in rem_w} | {anns[y] for y in rem_i}
            maximal = [i for i in present if not any(i < j for j in present)]
            ideal = min(maximal, key=lambda i: tuple(sorted(i)))
            e = principal_generator(ring, Submodule(tuple(sorted(ideal))))
            exact_w = [x for x in rem_w if anns[x] == ideal]
            exact_i = [y for y in rem_i if anns[y] == ideal]
            assert sorted(x for x in rem_w if act[e][x] == zero) == sorted(exact_w)
            assert sorted(y for y in rem_i if act[e][y] == zero) == sorted(exact_i)
            steps.append(
                {
                    "ideal": sorted(ideal),
                    "generator": e,
                    "removed_source": len(exact_w),
                    "removed_image": len(exact_i),
                }
            )
            total_stages += 1
            if len(exact_w) != len(exact_i):
                witness = {"word": list(word), "image": list(image), "stage": len(steps) - 1}
                break
            rem_w = [x for x in rem_w if anns[x] != ideal]
            rem_i = [y for y in rem_i if anns[y] != ideal]
        trace.append({"word": list(word), "image": list(image), "steps": steps})
        if witness is not None:
            break
    if witness is None:
        for word, image in cmap.mapping.items():
            assert weight_profile(alphabet, word, "aw") == weight_profile(alphabet, image, "aw")
    counts = {"words": len(cmap.mapping), "stages": total_stages}
    details = {"trace": trace}
    if witness is not None:
        details["witness"] = witness
        return VerdictReport(claim, "counterexample", hypotheses, counts, details)
    return VerdictReport(claim, "verified", hypotheses, counts, details)


def _same_report(fast, slow):
    assert fast.result == slow.result
    assert fast.hypotheses == slow.hypotheses
    assert fast.counts == slow.counts
    assert fast.details == slow.details


@pytest.mark.parametrize(
    "alphabet",
    [z4_klein(), module_make(mod_ring(4), {"kind": "regular"}),
     module_make(mod_ring(8), {"kind": "regular"}), module_make(mod_ring(6), {"kind": "regular"})],
    ids=["z4-klein", "z4", "z8", "z6"],
)
def test_peeling_matches_the_word_by_word_oracle(alphabet):
    results = {"verified": 0, "hypotheses-unmet": 0}
    for lattice, i, j, fmap in _unreduced_sweep(alphabet, 2, 2, {"codes": 0}):
        cmap = _code_map_from_tuple(lattice, i, j, fmap)
        fast = midway_peeling(cmap)
        _same_report(fast, _peel_word_by_word(cmap))
        results[fast.result] += 1
    assert results["verified"] > 0 and results["hypotheses-unmet"] > 0


def test_peeling_witness_matches_the_oracle():
    # Hamming-preserving but not aw-preserving: Ann(1) = 0 while Ann(2) = 2Z/4.
    z4reg = module_make(mod_ring(4), {"kind": "regular"})
    source = Code(z4reg, 2, ((0, 1),), ((0, 0), (0, 1)))
    target = Code(z4reg, 2, ((0, 2),), ((0, 0), (0, 2)))
    cmap = CodeMap(source, target, target.generators, {(0, 0): (0, 0), (0, 1): (0, 2)})
    identity = CodeMap(source, source, source.generators, {w: w for w in source.elements})
    # a peel made first must not change the witness report that follows
    assert midway_peeling(identity).result == "verified"
    report = midway_peeling(cmap)
    _same_report(report, _peel_word_by_word(cmap))
    assert report.result == "counterexample"
    assert report.details["witness"] == {"word": [0, 1], "image": [0, 2], "stage": 1}


def test_peeling_reports_share_no_state():
    z4reg = module_make(mod_ring(4), {"kind": "regular"})
    code = code_generate(z4reg, 2, [[1, 2]])
    cmap = code_map_make(code, code, [[3, 2]])
    first = midway_peeling(cmap)
    first.details["trace"][1]["steps"][0]["removed_source"] = 99
    first.details["trace"][1]["steps"][0]["ideal"].append(7)
    _same_report(midway_peeling(cmap), _peel_word_by_word(cmap))


def test_peeling_rejects_an_inconsistent_generator(monkeypatch):
    z4reg = module_make(mod_ring(4), {"kind": "regular"})
    code = code_generate(z4reg, 1, [[1]])
    cmap = code_map_make(code, code, [[1]])
    # 1 generates R, not the stage ideal 2Z/4, so it kills nothing there
    monkeypatch.setattr(theorems, "principal_generator", lambda ring, ideal, guards=None: 1)
    with pytest.raises(InternalConsistencyError):
        midway_peeling(cmap)


# ---------------------------------------------------------------------------
# midway sweep


def test_midway_f2_square_bounded():
    report = verify_midway(matrix_module(1, 2, 2), max_n=2, max_gens=2)
    assert report.result == "verified"
    assert report.counts == {
        "codes": 56,
        "monomorphisms": 7592,
        "hamming_preserving": 1184,
        "peeled": 1184,
    }
    assert report.details["lengths"] == [1, 2]


def test_midway_klein_bounded():
    report = verify_midway(z4_klein(), max_n=2, max_gens=2)
    assert report.result == "verified"
    assert report.counts["monomorphisms"] == 7592
    assert report.counts["hamming_preserving"] == report.counts["peeled"]


def test_midway_hypotheses_unmet():
    report = verify_midway(z2_plus_z4(), max_n=2)
    assert report.result == "hypotheses-unmet"
    assert report.hypotheses == {
        "ring_left_pir": True,
        "alphabet_pseudo_injective": False,
    }


def test_midway_strict_bound_exceeds_guard():
    with pytest.raises(GuardExceeded):
        verify_midway(matrix_module(2, 2, 3), max_n=10)


@pytest.mark.parametrize("verify", [verify_midway, verify_sufficiency])
def test_sweeps_apply_the_code_size_guard(verify, monkeypatch):
    z4 = module_make(mod_ring(4), {"kind": "regular"})
    with pytest.raises(GuardExceeded, match="code size"):
        verify(z4, Guards(max_code=4), max_n=3, max_gens=2)

    def search(*args, **kwargs):
        raise AssertionError("a length was searched before its codes were guarded")

    # Z/4 itself is a code of length 1, so no search of length 1 may run
    for name in ("isomorphism_leaders", "stabilizer_chain", "iter_linear_maps"):
        monkeypatch.setattr(theorems, name, search)
    with pytest.raises(GuardExceeded, match=r"code size \(4\) exceeds guard \(2\)"):
        verify(z4, Guards(max_code=2), max_n=1)


def test_midway_default_bound_caps_to_guard():
    report = verify_midway(matrix_module(2, 2, 3))
    assert report.result == "verified"
    assert report.details["lengths"] == [1]


def test_midway_honours_a_raised_order_guard():
    guards = Guards(max_order=128)
    z81 = module_make(ring_make({"kind": "mod_n", "n": 81}, guards), {"kind": "regular"}, guards)
    report = verify_midway(z81, guards, max_n=1)
    assert report.result == "verified"
    assert report.counts == {
        "codes": 5, "monomorphisms": 81, "hamming_preserving": 81, "peeled": 81,
    }


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda z4: verify_midway(z4, max_n=0), "must be positive"),
        (lambda z4: verify_midway(z4, Guards(max_n=0)), "must be positive"),
        (lambda z4: verify_sufficiency(z4, max_gens=0), "must be positive"),
        # the bounds are checked before the hypotheses, which these alphabets fail
        (lambda _: verify_midway(z2_plus_z4(), max_n=0), "must be positive"),
        (lambda _: verify_sufficiency(z4_klein(), max_gens=0), "must be positive"),
        # the type(x) is int rule of Guards: no bool, float or string
        (lambda z4: verify_midway(z4, max_n=True), "must be an integer"),
        (lambda z4: verify_midway(z4, max_n=2.5), "must be an integer"),
        (lambda z4: verify_sufficiency(z4, max_gens="2"), "must be an integer"),
    ],
    ids=[
        "midway-max_n", "midway-guard", "sufficiency-max_gens",
        "midway-unmet-max_n", "sufficiency-unmet-max_gens",
        "midway-bool", "midway-float", "sufficiency-str",
    ],
)
def test_sweeps_reject_non_positive_bounds(call, message):
    with pytest.raises(InputError, match=message):
        call(module_make(mod_ring(4), {"kind": "regular"}))


def _moves_a_word(cmap):
    return any(word != image for word, image in cmap.mapping.items())


def test_a_pair_tallies_its_maps_before_they_are_visited():
    # Z/4 at n = 1 has the codes {0}, {0, 2} and Z/4, each its own orbit and
    # isomorphism class.  Iso(Z/4, Z/4) = {1, 3} adds |Aut(Z/4)| = 2 when the
    # pair starts, so its first map, the identity and the third yield, already
    # sees 1 + 1 + 2 maps tallied.  Each map weighs the pair's orbit weight,
    # here 1 * 1
    counts = {"codes": 0, "maps": 0}
    z4 = module_make(mod_ring(4), {"kind": "regular"})
    sweep = _sweep(z4, Guards(), _sweep_bounds(Guards(), 1, None), counts, {}, "maps", "hamming")
    _, lattice, i, _, fmap, weight = next(itertools.islice(sweep, 2, None))
    assert lattice.codes[i].members == fmap == (0, 1, 2, 3) and weight == 1
    assert counts == {"codes": 3, "maps": 4}


def test_midway_raises_when_orbits_merge_annihilator_classes(monkeypatch):
    real_partition = theorems.partition

    def partition(module, kind, **kwargs):
        # one orbit of every element: 1 and 2 of Z/4 share it, not an annihilator
        found = real_partition(module, kind, **kwargs)
        if kind == "orbit":
            return (0,) * module.order
        return found

    monkeypatch.setattr(theorems, "partition", partition)
    with pytest.raises(InternalConsistencyError, match="do not refine annihilator classes"):
        verify_midway(module_make(mod_ring(4), {"kind": "regular"}), max_n=1)


def _own_orbits(monkeypatch):
    """Give every element its own orbit in theorems.partition."""
    real_partition = theorems.partition

    def partition(module, kind, **kwargs):
        found = real_partition(module, kind, **kwargs)
        if kind == "orbit":
            return tuple(module.elements())
        return found

    monkeypatch.setattr(theorems, "partition", partition)


@pytest.mark.parametrize("m", [4, 8], ids=["z4", "z8"])
def test_sufficiency_raises_when_an_automorphism_moves_an_orbit_label(m, monkeypatch):
    # every automorphism x -> u.x of Z/m but the identity moves 1 to another
    # unit, which this partition keeps apart, so a monomial transform could
    # break swc profiles and the pass by |E(C)| = |Aut(C)| would not hold
    _own_orbits(monkeypatch)
    with pytest.raises(InternalConsistencyError, match="an automorphism moves an element"):
        verify_sufficiency(module_make(mod_ring(m), {"kind": "regular"}), max_n=2, max_gens=2)


def test_midway_reports_a_hamming_swc_mismatch(monkeypatch):
    # every element its own orbit: swapping 1 and 3 of (Z/2)^2 keeps weights
    # but not profiles
    _own_orbits(monkeypatch)
    report = verify_midway(z4_klein(), max_n=2, max_gens=2)
    assert report.as_json() == {
        "claim": "Hamming preservation is equivalent to swc preservation for code monomorphisms",
        "result": "counterexample",
        "hypotheses": {"ring_left_pir": True, "alphabet_pseudo_injective": True},
        "counts": {"codes": 5, "monomorphisms": 16, "hamming_preserving": 11, "peeled": 11},
        "details": {
            "lengths": [1],
            "max_generators": 2,
            "witness": {
                "length": 1,
                "generators": [[1], [2]],
                "gen_images": [[1], [3]],
                "hamming_preserved": True,
                "swc_preserved": False,
            },
        },
    }


def _gaussian_binomial(n, k, q):
    """The number of k-dimensional subspaces of F_q^n."""
    out = 1
    for i in range(k):
        out = out * (q ** (n - i) - 1) // (q ** (i + 1) - 1)
    return out


def _gl_order(k, q):
    return math.prod(q**k - q**i for i in range(k))


@pytest.mark.parametrize(
    "alphabet,q,dims,expected",
    [
        (matrix_module(1, 2, 2), 2, (2, 4, 6), (2897, 68719542288, 1981977)),
        (module_make(ring_make({"kind": "matrix", "m": 1, "q": 4}), {"kind": "regular"}),
         4, (1, 2, 3), (53, 262404, 3087)),
    ],
    ids=["f2-col2", "f4"],
)
def test_full_lattice_counts_match_the_closed_form(alphabet, q, dims, expected):
    # A^n = F_q^N: every code is a subspace, and a k-dimensional one has
    # [N, k]_q images of its dimension and |GL(k, q)| isomorphisms onto each;
    # gens <= N reaches every code, so these counts leave nothing out
    report = verify_midway(alphabet, max_n=3, max_gens=dims[-1])
    codes = sum(_gaussian_binomial(n, k, q) for n in dims for k in range(n + 1))
    monos = sum(
        _gaussian_binomial(n, k, q) ** 2 * _gl_order(k, q) for n in dims for k in range(n + 1)
    )
    assert (codes, monos) == expected[:2]
    assert report.result == "verified"
    assert report.counts == {
        "codes": codes, "monomorphisms": monos,
        "hamming_preserving": expected[2], "peeled": expected[2],
    }


# ---------------------------------------------------------------------------
# orbit reduction against the unreduced sweep


def _unreduced_midway_counts(alphabet, max_n, max_gens, guards=Guards()):
    counts = {"codes": 0, "monomorphisms": 0, "hamming_preserving": 0, "peeled": 0}
    for lattice, i, j, fmap in _unreduced_sweep(alphabet, max_n, max_gens, counts, False, guards):
        counts["monomorphisms"] += 1
        cmap = _code_map_from_tuple(lattice, i, j, fmap)
        hamming_ok = map_preserves(cmap, "hamming")
        assert hamming_ok == map_preserves(cmap, "swc")
        if hamming_ok:
            counts["hamming_preserving"] += 1
            assert midway_peeling(cmap, guards).result == "verified"
            counts["peeled"] += 1
    return counts


def _unreduced_sufficiency_counts(alphabet, max_n, max_gens, guards=Guards()):
    counts = {"codes": 0, "isomorphisms": 0, "swc_preserving": 0, "extended": 0}
    for lattice, i, j, fmap in _unreduced_sweep(
        alphabet, max_n, max_gens, counts, onto=True, guards=guards
    ):
        counts["isomorphisms"] += 1
        cmap = _code_map_from_tuple(lattice, i, j, fmap)
        if map_preserves(cmap, "swc"):
            counts["swc_preserving"] += 1
            assert extension_search(cmap).transform is not None
            counts["extended"] += 1
    return counts


def _sweep_yields(alphabet, max_n, max_gens, key, guards=Guards()):
    counts = {"codes": 0, "maps": 0}
    bounds = _sweep_bounds(guards, max_n, max_gens)
    return sum(1 for _ in _sweep(alphabet, guards, bounds, counts, {}, "maps", key))


MIDWAY_ALPHABETS = [
    z4_klein(), module_make(mod_ring(4), {"kind": "regular"}),
    module_make(mod_ring(8), {"kind": "regular"}), matrix_module(1, 2, 2),
    relabelled(z4_klein(), [2, 0, 3, 1]),
]
MIDWAY_IDS = ["z4-klein", "z4", "z8", "f2-col2", "z4-klein-relabelled"]

# A^2 has 81 elements on both, above the default order guard of 64
WIDE_GUARDS = Guards(max_order=81)


def m2f3_column():
    """F_3^2 over M_2(F_3): its ring is not commutative, and its Aut(A), the
    scalars 1 and 2, is far smaller than the 48 units that act on it."""
    ring = ring_make({"kind": "matrix", "m": 2, "q": 3}, WIDE_GUARDS)
    return module_make(ring, {"kind": "column", "k": 1}, WIDE_GUARDS)


WIDE_ALPHABETS = [module_make(mod_ring(9), {"kind": "regular"}), m2f3_column()]
WIDE_IDS = ["z9", "m2f3-col1"]


@pytest.mark.parametrize(
    "alphabet", MIDWAY_ALPHABETS + WIDE_ALPHABETS, ids=MIDWAY_IDS + WIDE_IDS
)
def test_midway_counts_match_the_unreduced_sweep(alphabet):
    report = verify_midway(alphabet, WIDE_GUARDS, max_n=2, max_gens=2)
    assert report.result == "verified"
    expected = _unreduced_midway_counts(alphabet, 2, 2, WIDE_GUARDS)
    assert report.counts == expected
    yields = _sweep_yields(alphabet, 2, 2, "hamming", WIDE_GUARDS)
    assert yields < expected["hamming_preserving"]


# MIDWAY_ALPHABETS and every alphabet of the benchmark's certify workload, as
# builders of fresh modules, so that no orbit labelling comes from a cache
ORBIT_ALPHABETS = {
    **{name: (lambda a=a: Module(a.ring, a.add_table, a.act_table, a.zero, a.descriptor))
       for name, a in zip(MIDWAY_IDS, MIDWAY_ALPHABETS)},
    **{f"certify-{name}": (lambda r=r, m=m: module_make(ring_make(r), m))
       for name, r, m, *_ in _load("workloads").CERTIFY_ALPHABETS},
}


@pytest.mark.parametrize("name", sorted(ORBIT_ALPHABETS))
def test_every_orbit_labelling_matches_union_find(name, monkeypatch):
    """Each least_in_orbit call that partition(A, "orbit") makes, through
    automorphism_group, that the pseudo-injectivity search makes for its
    monomorphism leaders, and that the submodule_orbits oracle makes on the
    codes of A^n under the monomial group, gives the union-find labels.  n
    runs to 2 while A^n has at most 1,024 elements, so the alphabets of
    order 64 stop at n = 1."""
    sweep = modules.least_in_orbit
    sizes = []

    def checked(size, maps):
        maps = [list(m) for m in maps]
        out = sweep(size, maps)
        assert out == union_find_least_in_orbit(size, maps)
        sizes.append(size)
        return out

    monkeypatch.setattr(modules, "least_in_orbit", checked)
    alphabet = ORBIT_ALPHABETS[name]()
    partition(alphabet, "orbit")
    modules._pseudo_injective_by_search(alphabet)
    guards = Guards(max_order=1024)
    for n in (1, 2):
        if alphabet.order**n > guards.max_order:
            break
        ambient = direct_power(alphabet, n, guards)
        words = [index_to_entries(x, alphabet.order, n) for x in ambient.elements()]
        codes = submodules_enumerate(ambient, guards, 2)
        submodule_orbits(codes, _monomial_generators(alphabet, words, guards))
        assert sizes[-1] == len(codes)
    assert alphabet.order in sizes


# ORBIT_ALPHABETS plus the regular and character modules of every
# ORACLE_RINGS ring
GATE_ALPHABETS = {
    **ORBIT_ALPHABETS,
    **{f"{name}-regular": (lambda r=r: module_make(r(), {"kind": "regular"}))
       for name, r in ORACLE_RINGS.items()},
    **{f"{name}-character": (lambda r=r: character_module(r()))
       for name, r in ORACLE_RINGS.items()},
}


@pytest.mark.parametrize("name", sorted(GATE_ALPHABETS))
def test_an_alphabet_that_passes_baer_is_pseudo_injective_by_search(name):
    """Baer's gate says injective only where the monomorphism search says
    pseudo-injective.  The character module of R is injective, so the gate
    passes it."""
    alphabet = GATE_ALPHABETS[name]()
    injective = modules._is_injective(alphabet)
    assert modules._pseudo_injective_by_search(alphabet) or not injective
    assert injective or not name.endswith("-character")


# ORBIT_ALPHABETS plus the alphabet of every benchmark pack that is not
# already a certify alphabet
CHAIN_ALPHABETS = {
    **ORBIT_ALPHABETS,
    **{f"pack-{m},{k},{q}": (lambda m=m, k=k, q=q: matrix_module(m, q, k))
       for (m, k, q), _ in _load("workloads").PACKS
       if [{"kind": "matrix", "m": m, "q": q}, {"kind": "column", "k": k}]
       not in [[r, a] for _, r, a, *_ in _load("workloads").CERTIFY_ALPHABETS]},
}


@pytest.mark.parametrize("name", sorted(CHAIN_ALPHABETS))
def test_pruned_chain_matches_the_listing_chain(name):
    """On the alphabet, automorphism_group keeps the generators the listing
    chain's filter keeps, tuple for tuple, and every level of the pruned
    chain, on the alphabet and on every code of A^n with at most two
    generators (the benchmark's sweeps use --max-gens 2), counts the listed
    level.  n runs to 2 while A^n has at most 1,024 elements."""
    alphabet = CHAIN_ALPHABETS[name]()
    assert automorphism_group(alphabet).generators == filtered_chain_generators(alphabet)
    sizes = check_chain_against_the_listing(alphabet, module_generators(alphabet))
    assert math.prod(sizes) == automorphism_group(alphabet).order
    guards = Guards(max_order=1024)
    for n in (1, 2):
        if alphabet.order**n > guards.max_order:
            break
        ambient = direct_power(alphabet, n, guards)
        for code in submodules_enumerate(ambient, guards, 2):
            check_chain_against_the_listing(ambient, code.generators)


def _midway_peeling_every_map(alphabet, max_n, max_gens):
    """(result, counts, details) of verify_midway on an alphabet that meets its
    hypotheses, with each map the sweep yields built as a code map and peeled
    by midway_peeling: the oracle for the sweep's peeled tally."""
    counts = {"codes": 0, "monomorphisms": 0, "hamming_preserving": 0, "peeled": 0}
    details = {}
    bounds = _sweep_bounds(Guards(), max_n, max_gens)
    for n, lattice, i, j, fmap, weight in _sweep(
        alphabet, Guards(), bounds, counts, details, "monomorphisms", "hamming"
    ):
        cmap = _code_map_from_tuple(lattice, i, j, fmap)
        assert map_preserves(cmap, "swc")
        counts["hamming_preserving"] += weight
        verdict = midway_peeling(cmap)
        if verdict.result != "verified":
            details["witness"] = theorems._witness(n, cmap, peeling=verdict.as_json())
            return "counterexample", counts, details
        counts["peeled"] += weight
    return "verified", counts, details


@pytest.mark.parametrize("alphabet", MIDWAY_ALPHABETS, ids=MIDWAY_IDS)
def test_the_sweep_peels_as_midway_peeling_does(alphabet):
    report = verify_midway(alphabet, max_n=2, max_gens=2)
    assert (report.result, report.counts, report.details) == _midway_peeling_every_map(
        alphabet, 2, 2
    )


# (alphabet, max_n) of the sufficiency oracles
SUFFICIENCY_ALPHABETS = {
    "f2": (matrix_module(1, 2, 1), 3),
    "z4": (module_make(mod_ring(4), {"kind": "regular"}), 2),
    "f4": (matrix_module(1, 4, 1), 2),
    "f8": (matrix_module(1, 8, 1), 2),
    "f7": (matrix_module(1, 7, 1), 2),
    "z4-relabelled": (relabelled(module_make(mod_ring(4), {"kind": "regular"}), [3, 2, 0, 1]), 2),
    **{name: (alphabet, 2) for name, alphabet in zip(WIDE_IDS, WIDE_ALPHABETS)},
}


@pytest.mark.parametrize("name", list(SUFFICIENCY_ALPHABETS))
def test_sufficiency_counts_match_the_unreduced_sweep(name):
    alphabet, max_n = SUFFICIENCY_ALPHABETS[name]
    report = verify_sufficiency(alphabet, WIDE_GUARDS, max_n=max_n, max_gens=2)
    assert report.result == "verified"
    expected = _unreduced_sufficiency_counts(alphabet, max_n, 2, WIDE_GUARDS)
    assert report.counts == expected
    yields = _sweep_yields(alphabet, max_n, 2, "swc", WIDE_GUARDS)
    assert yields < expected["swc_preserving"]


def _relabelled_table(ring_desc, module_desc, seed):
    """The alphabet as table descriptors, ring and module renamed by the
    benchmark's relabelling with the given seed."""
    spec = _load("workloads").relabelled_spec(ring_desc, module_desc, random.Random(seed))
    return module_make(ring_make(spec["ring"]), spec["module"])


def _relabelled_z9():
    return _relabelled_table({"kind": "mod_n", "n": 9}, {"kind": "regular"}, 9)


def _assert_orbit_lattice_matches_the_walk(alphabet, n, max_gens, guards):
    """orbit_lattice on A^n under the monomial generators against the walk
    submodules_enumerate split by the submodule_orbits oracle: the same
    firsts in the same order, the same orbit sizes, which sum to the walk's
    code count, and for each first a generator tuple that spans it and is
    as long as the walk's."""
    ambient = direct_power(alphabet, n, guards)
    words = [index_to_entries(x, alphabet.order, n) for x in ambient.elements()]
    perms = _monomial_generators(alphabet, words, guards)
    walk = submodules_enumerate(ambient, guards, max_gens)
    sizes = Counter(submodule_orbits(walk, perms))  # keyed by firsts, ascending
    orbits = orbit_lattice(ambient, perms, guards, max_gens)
    assert [(first.members, size) for first, size in orbits] == [
        (walk[i].members, sizes[i]) for i in sizes
    ]
    assert sum(size for _, size in orbits) == len(walk)
    for (first, _), i in zip(orbits, sizes):
        assert len(first.generators) == len(walk[i].generators)
        assert modules.submodule_generated(ambient, first.generators).members == first.members


KLEIN = {"kind": "direct_sum", "summands": [{"kind": "mod_m", "m": 2}] * 2}

# the midway and sufficiency oracle alphabets, Z/9 among them, and table
# copies renamed by the benchmark's relabelling
ORBIT_LATTICE_ALPHABETS = {
    **dict(zip(MIDWAY_IDS, MIDWAY_ALPHABETS)),
    **{f"sufficiency-{name}": alphabet for name, (alphabet, _) in SUFFICIENCY_ALPHABETS.items()},
    "z9-table": _relabelled_z9(),
    "z4-klein-table": _relabelled_table({"kind": "mod_n", "n": 4}, KLEIN, 1),
    "z8-table": _relabelled_table({"kind": "mod_n", "n": 8}, {"kind": "regular"}, 2),
    "f4-table": _relabelled_table({"kind": "matrix", "m": 1, "q": 4}, {"kind": "regular"}, 3),
}


@pytest.mark.parametrize("max_gens", [1, 2, 3, None], ids=["g1", "g2", "g3", "all"])
@pytest.mark.parametrize("name", sorted(ORBIT_LATTICE_ALPHABETS))
def test_orbit_lattice_matches_the_walk_split_into_orbits(name, max_gens):
    """At n <= 3: every alphabet here has at most 9 elements."""
    for n in (1, 2, 3):
        _assert_orbit_lattice_matches_the_walk(
            ORBIT_LATTICE_ALPHABETS[name], n, max_gens, Guards(max_order=729)
        )


@given(
    case=st.sampled_from(
        [({"kind": "mod_n", "n": 4}, {"kind": "regular"}),
         ({"kind": "mod_n", "n": 4}, KLEIN),
         ({"kind": "mod_n", "n": 8}, {"kind": "regular"}),
         ({"kind": "matrix", "m": 1, "q": 4}, {"kind": "regular"}),
         ({"kind": "matrix", "m": 1, "q": 2}, {"kind": "column", "k": 2})]
    ),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 2),
    max_gens=st.sampled_from([1, 2, None]),
)
@settings(max_examples=30, deadline=None)
def test_orbit_lattice_matches_the_walk_on_relabelled_tables(case, seed, n, max_gens):
    alphabet = _relabelled_table(*case, seed)
    _assert_orbit_lattice_matches_the_walk(alphabet, n, max_gens, Guards())


@pytest.mark.parametrize(
    "alphabet,max_n",
    [(module_make(mod_ring(4), {"kind": "regular"}), 3), (matrix_module(1, 4, 1), 3),
     (matrix_module(1, 8, 1), 2), (matrix_module(1, 2, 1), 4)],
    ids=["z4", "f4", "f8", "f2"],
)
def test_shared_codes_extend_as_fresh_codes_do(alphabet, max_n):
    """Every map the sufficiency sweep yields, built on the lattice's shared
    codes, gives the same extension result as the map code_map_make builds on
    codes closed afresh from its generators and their images; each shared
    code's cached fingerprints are column_fingerprint at every position."""
    index = partition(alphabet, "orbit")
    # max_gens = max_n: the full lattice of every length
    bounds = _sweep_bounds(Guards(), max_n, max_n)
    counts = {"codes": 0, "maps": 0}
    maps = 0
    for n, lattice, i, j, fmap, _ in _sweep(alphabet, Guards(), bounds, counts, {}, "maps", "swc"):
        cmap = _code_map_from_tuple(lattice, i, j, fmap)
        assert cmap.source is lattice.code(i) and cmap.target is lattice.code(j)
        fresh = code_map_make(
            code_generate(alphabet, n, cmap.source.generators),
            code_generate(alphabet, n, cmap.gen_images),
            cmap.gen_images,
        )
        assert fresh.source.elements == cmap.source.elements
        assert fresh.target.elements == cmap.target.elements
        assert fresh.mapping == cmap.mapping
        assert extension_search(cmap) == extension_search(fresh)
        for code in (cmap.source, cmap.target):
            assert code.column_fingerprints(index) == tuple(
                column_fingerprint(code, position, index) for position in range(n)
            )
        maps += 1
    assert maps > 0 and counts["codes"] > 0


def _preserves_by_profiles(cmap, kind):
    alphabet = cmap.source.alphabet
    return all(
        weight_profile(alphabet, word, kind) == weight_profile(alphabet, image, kind)
        for word, image in cmap.mapping.items()
    )


def test_map_preserves_matches_the_weight_profile_oracle():
    # on Z/2 (+) Z/4 the orbits split an annihilator class, so swc and aw differ
    table_alphabet = relabelled(z2_plus_z4(), random.Random(5).sample(range(8), 8))
    seen = set()
    for alphabet, max_n, max_gens in ((z4_klein(), 2, 2), (table_alphabet, 2, 1)):
        for lattice, i, j, fmap in _unreduced_sweep(alphabet, max_n, max_gens, {"codes": 0}):
            cmap = _code_map_from_tuple(lattice, i, j, fmap)
            verdicts = tuple(map_preserves(cmap, kind) for kind in ("hamming", "swc", "aw"))
            assert verdicts == tuple(
                _preserves_by_profiles(cmap, kind) for kind in ("hamming", "swc", "aw")
            )
            seen.add(verdicts)
    assert seen == {(True, True, True), (True, False, True), (False, False, False)}
    with pytest.raises(InputError, match="unknown weight kind"):
        map_preserves(cmap, "lee")


def _former_labels(alphabet):
    """The swc and aw labels as each element's least class-mate: its orbit
    under the listing of Aut(A), and its annihilator class."""
    perms = automorphism_group(alphabet).elements
    anns = annihilator_sets(alphabet)
    elements = alphabet.elements()
    return {
        "swc": [min(p[a] for p in perms) for a in elements],
        "aw": [next(b for b in elements if anns[b] == anns[a]) for a in elements],
    }


def _former_profile(alphabet, labels, word, kind):
    """The (key, count) pairs of the former per-kind weight_profile."""
    if kind == "hamming":
        return [("nonzero", sum(1 for x in word if x != alphabet.zero))]
    counts = {}
    for x in word:
        counts[labels[kind][x]] = counts.get(labels[kind][x], 0) + 1
    return [(str(k), v) for k, v in sorted(counts.items())]


def _former_preserves(cmap, labels, kind):
    """The former per-kind map_preserves: equal counts of zeros for Hamming,
    equal sorted labels otherwise."""
    pairs = cmap.mapping.items()
    if kind == "hamming":
        zero = cmap.source.alphabet.zero
        return all(w.count(zero) == v.count(zero) for w, v in pairs)
    lab = labels[kind]
    return all(sorted(lab[x] for x in w) == sorted(lab[x] for x in v) for w, v in pairs)


@pytest.mark.parametrize("relabel", [False, True], ids=["named", "relabelled"])
@pytest.mark.parametrize(
    "alphabet", MIDWAY_ALPHABETS + [z2_plus_z4()], ids=MIDWAY_IDS + ["z2+z4"]
)
def test_weights_keep_their_former_per_kind_definitions(alphabet, relabel):
    """weight_profile and map_preserves read every kind through one label
    table; on random words, and on every injective map of the codes of
    length at most 2 with one generator, they agree with the former code,
    also on table copies whose zero is not element 0.  On Z/2 (+) Z/4 the
    orbits split an annihilator class, so swc and aw differ there."""
    rng = random.Random(f"{alphabet.order}-{relabel}")
    if relabel:
        perm = rng.sample(range(alphabet.order), alphabet.order)
        perm[perm.index(1)], perm[alphabet.zero] = perm[alphabet.zero], 1
        alphabet = relabelled(alphabet, perm)
        assert alphabet.zero == 1
    labels = _former_labels(alphabet)
    kinds = ("hamming", "swc", "aw")
    for _ in range(200):
        word = [rng.randrange(alphabet.order) for _ in range(rng.randint(0, 6))]
        for kind in kinds:
            profile = weight_profile(alphabet, word, kind)
            assert list(profile.items()) == _former_profile(alphabet, labels, word, kind)
    seen = Counter()
    for lattice, i, j, fmap in _unreduced_sweep(alphabet, 2, 1, {"codes": 0}):
        cmap = _code_map_from_tuple(lattice, i, j, fmap)
        verdicts = tuple(map_preserves(cmap, kind) for kind in kinds)
        assert verdicts == tuple(_former_preserves(cmap, labels, kind) for kind in kinds)
        seen[verdicts] += 1
    assert seen[(True, True, True)] and seen[(False, False, False)]


@pytest.mark.parametrize(
    "alphabet",
    [z4_klein(), module_make(mod_ring(8), {"kind": "regular"}),
     relabelled(z4_klein(), [2, 0, 3, 1])],
    ids=["z4-klein", "z8", "z4-klein-relabelled"],
)
def test_orbit_representatives_match_the_whole_monomial_group(alphabet):
    # at n = 2 the group S_2 x| Aut(A)^2 is small enough to apply element by element
    _, words, codes = _codes_of_length(alphabet, 2, 2)
    index = {w: x for x, w in enumerate(words)}
    position = {members: i for i, (members, _) in enumerate(codes)}
    auts = automorphism_group(alphabet).elements
    expected = []
    for members, _ in codes:
        orbit = {
            position[tuple(sorted(index[(s[words[x][i]], t[words[x][1 - i]])] for x in members))]
            for i in (0, 1)
            for s in auts
            for t in auts
        }
        expected.append(min(orbit))
    reps = _orbit_firsts(alphabet, words, codes)
    assert reps == expected
    assert len(set(reps)) < len(codes)


@pytest.mark.parametrize("alphabet", [z4_klein(), matrix_module(1, 2, 2)], ids=["z4-klein", "f2-col2"])
def test_isomorphism_counts_depend_only_on_the_orbit_pair(alphabet):
    # the pair weight |orbit(C)| * |orbit(D)| of _sweep: every code of orbit(C)
    # has as many isomorphisms onto each code of orbit(D)
    ambient, words, codes = _codes_of_length(alphabet, 2, 2)
    reps = _orbit_firsts(alphabet, words, codes)
    pair_counts = {}
    for i, (members, gens) in enumerate(codes):
        for j, (other, _) in enumerate(codes):
            if len(other) == len(members):
                count = sum(1 for _ in iter_linear_maps(
                    ambient, ambient, gens, injective=True, target_members=frozenset(other)
                ))
                assert pair_counts.setdefault((reps[i], reps[j]), count) == count
    assert len(set(reps)) < len(codes)
    assert any(count > 0 for (i, j), count in pair_counts.items() if i != j)


@pytest.mark.parametrize(
    "alphabet",
    [module_make(mod_ring(4), {"kind": "regular"}), module_make(mod_ring(8), {"kind": "regular"}),
     z4_klein()],
    ids=["z4", "z8", "z4-klein"],
)
def test_peeling_is_invariant_under_the_monomial_generators(alphabet):
    # verify_midway tallies one map per orbit pair as peeled on behalf of
    # every g.f, so the peel must not tell g.f from f
    perms = {}
    moved = 0
    for lattice, i, j, fmap in _unreduced_sweep(alphabet, 2, 2, {"codes": 0}):
        cmap = _code_map_from_tuple(lattice, i, j, fmap)
        if not map_preserves(cmap, "hamming"):
            continue
        report = midway_peeling(cmap)
        n = len(lattice.words[0])
        if n not in perms:
            perms[n] = _monomial_generators(alphabet, lattice.words, Guards())
        for perm in perms[n]:
            moved_fmap = [perm[y] for y in fmap]
            image = _code_map_from_tuple(lattice, i, _image_code(lattice, moved_fmap), moved_fmap)
            for peeled in (midway_peeling(image), _peel_word_by_word(image)):
                assert (peeled.result, peeled.counts) == (report.result, report.counts)
            moved += 1
    assert moved > 0 and len(perms[2]) > 2


@pytest.mark.parametrize(
    "alphabet",
    [module_make(mod_ring(4), {"kind": "regular"}), z4_klein(), matrix_module(1, 4, 1),
     matrix_module(1, 2, 2)],
    ids=["z4", "z4-klein", "f4", "f2^2"],
)
def test_monomial_generators_lift_aut_a_to_position_0(alphabet):
    """Each generator sigma of Aut(A) acts on the word indices of A^n by the
    mixed-radix formula x -> sigma[x // place] * place + x % place, with
    place = |A|^(n-1); the transposition and the n-cycle come first."""
    q = alphabet.order
    sigmas = automorphism_group(alphabet, Guards()).generators
    for n in (1, 2, 3):
        words = [index_to_entries(x, q, n) for x in range(q**n)]
        perms = _monomial_generators(alphabet, words, Guards())
        place = q ** (n - 1)
        lifts = [[sigma[x // place] * place + x % place for x in range(q**n)] for sigma in sigmas]
        assert len(perms) == (2 if n > 1 else 0) + len(sigmas)
        assert [list(p) for p in perms[len(perms) - len(sigmas):]] == lifts
        for perm, sigma in zip(perms[len(perms) - len(sigmas):], sigmas):
            assert all(words[perm[x]] == (sigma[w[0]], *w[1:]) for x, w in enumerate(words))


def test_sweep_rejects_a_monomial_generator_that_is_not_r_linear(monkeypatch):
    # at n = 2 over Z/4, swapping the words (0, 1) and (0, 2) is a
    # permutation of A^2 that does not commute with x -> 2x
    alphabet = module_make(mod_ring(4), {"kind": "regular"})
    real = theorems._monomial_generators

    def with_a_swap(alphabet, words, guards):
        perms = real(alphabet, words, guards)
        if len(words[0]) == 2:
            swap = list(range(len(words)))
            swap[1], swap[2] = 2, 1
            perms.append(swap)
        return perms

    monkeypatch.setattr(theorems, "_monomial_generators", with_a_swap)
    with pytest.raises(InternalConsistencyError, match="not an R-linear bijection"):
        verify_midway(alphabet, max_n=2, max_gens=2)


# ---------------------------------------------------------------------------
# sufficiency and necessity


def test_sufficiency_z4_regular():
    report = verify_sufficiency(module_make(mod_ring(4), {"kind": "regular"}), max_n=2)
    assert report.result == "verified"
    assert report.counts == {
        "codes": 18,
        "isomorphisms": 260,
        "swc_preserving": 60,
        "extended": 60,
    }


def test_sufficiency_f2_classical():
    report = verify_sufficiency(matrix_module(1, 2, 1), max_n=3)
    assert report.result == "verified"
    assert report.counts == {
        "codes": 22,
        "isomorphisms": 362,
        "swc_preserving": 63,
        "extended": 63,
    }


def test_sufficiency_reports_a_non_extending_map(monkeypatch):
    real_search = theorems.extension_search
    real_order = theorems._extending_order

    def search(cmap, guards):
        if cmap.source.length == 2 and _moves_a_word(cmap):
            return SimpleNamespace(transform=None, nodes=0)
        return real_search(cmap, guards=guards)

    def order(alphabet, n, *rest):
        # the same fault in group terms: at length 2 only the identity extends
        return 1 if n == 2 else real_order(alphabet, n, *rest)

    monkeypatch.setattr(theorems, "extension_search", search)
    monkeypatch.setattr(theorems, "_extending_order", order)
    # the pairs are taken orbit pair by orbit pair, weighting each tally by
    # the pair; F_2^2 is the first code of length 2 with an automorphism
    # that moves a word, which swaps (0, 1) and (1, 0), so its order check
    # fails and its listing gives the witness.  The 2 + 5 codes of lengths 1
    # and 2 are counted when each length starts
    report = verify_sufficiency(matrix_module(1, 2, 1), max_n=2)
    assert report.as_json() == {
        "claim": "every swc-preserving code isomorphism extends to a monomial transform",
        "result": "counterexample",
        "hypotheses": {"socle_cyclic": True},
        "counts": {"codes": 7, "isomorphisms": 18, "swc_preserving": 10, "extended": 9},
        "details": {
            "lengths": [1, 2],
            "max_generators": 2,
            "witness": {
                "length": 2, "generators": [[0, 1], [1, 0]], "gen_images": [[1, 0], [0, 1]],
            },
        },
    }


def _sweep(alphabet, guards, bounds, counts, details, tally, key):
    """The former listing kernel of both sweeps, the oracle for the sweeps by
    group orders: yield (n, lattice, i, j, fmap, weight) for the
    isomorphisms from lattice.codes[i] onto lattice.codes[j], first codes
    of the orbits of the codes of A^n that _sweep_lengths lists, each map as
    fmap, the images of the members of codes[i] in order, when it keeps the
    key weight of every word.

    For each pair (C, D) of first codes of one isomorphism class, in list
    order, the pair adds |orbit(C)| * |orbit(D)| * |Aut(C)| to counts[tally]
    before its maps are visited: Iso(C, D) is the coset f.Aut(C).  Its maps
    are listed by iter_linear_maps onto the members of D, keyed on the
    weights, and each weighs |orbit(C)| * |orbit(D)| in place of 1.  This is
    exact for tallies invariant under monomial transforms g and h, as
    f -> h.f.g is a bijection from the maps g(C) -> D onto the maps
    C -> h(D)."""
    for n, ambient, lattice, keys, sizes, leader, aut, _ in theorems._sweep_lengths(
        alphabet, guards, bounds, counts, details, key
    ):
        codes = lattice.codes
        for i in range(len(codes)):
            for j in (j for j in leader if leader[j] == leader[i]):
                weight = sizes[i] * sizes[j]
                counts[tally] += weight * aut[leader[i]][0]
                for fmap in iter_linear_maps(
                    ambient, ambient, codes[i].generators, True,
                    target_members=codes[j].members, key=keys,
                ):
                    yield n, lattice, i, j, fmap, weight


def _midway_by_listing(alphabet, guards=Guards(), max_n=None, max_gens=None):
    """The former verify_midway, the oracle for the one by group orders:
    every Hamming-keyed map that _sweep yields is checked for swc profiles,
    and the first that breaks one is the witness.  The alphabet must meet
    the midway hypotheses."""
    claim = "Hamming preservation is equivalent to swc preservation for code monomorphisms"
    bounds = _sweep_bounds(guards, max_n, max_gens)
    hypotheses = {"ring_left_pir": True, "alphabet_pseudo_injective": True}
    assert is_left_pir(alphabet.ring, guards) and modules.is_pseudo_injective(alphabet, guards)
    counts = {"codes": 0, "monomorphisms": 0, "hamming_preserving": 0, "peeled": 0}
    details = {}
    for n, lattice, i, j, fmap, weight in _sweep(
        alphabet, guards, bounds, counts, details, "monomorphisms", "hamming"
    ):
        profiles = lattice.profiles
        if not all(profiles[x] == profiles[y] for x, y in zip(lattice.codes[i].members, fmap)):
            cmap = _code_map_from_tuple(lattice, i, j, fmap)
            details["witness"] = theorems._witness(n, cmap, hamming_preserved=True, swc_preserved=False)
            return VerdictReport(claim, "counterexample", hypotheses, counts, details)
        counts["hamming_preserving"] += weight
        counts["peeled"] += weight
    return VerdictReport(claim, "verified", hypotheses, counts, details)


def _sufficiency_by_listing(alphabet, guards=Guards(), max_n=None, max_gens=None):
    """The former verify_sufficiency, the oracle for the one by group
    orders: every swc-keyed map that _sweep yields goes to extension_search,
    and the first that does not extend is the witness.  The socle gate is
    read through theorems, so that a test can force it open."""
    claim = "every swc-preserving code isomorphism extends to a monomial transform"
    bounds = _sweep_bounds(guards, max_n, max_gens)
    hypotheses = {"socle_cyclic": theorems.socle_report(alphabet, guards).cyclic}
    if not hypotheses["socle_cyclic"]:
        return VerdictReport(
            claim, "hypotheses-unmet", hypotheses, {},
            {"note": "the extension property is only claimed for cyclic socles"},
        )
    counts = {"codes": 0, "isomorphisms": 0, "swc_preserving": 0, "extended": 0}
    details = {}
    for n, lattice, i, j, fmap, weight in _sweep(
        alphabet, guards, bounds, counts, details, "isomorphisms", "swc"
    ):
        counts["swc_preserving"] += weight
        cmap = _code_map_from_tuple(lattice, i, j, fmap)
        if extension_search(cmap, guards=guards).transform is None:
            details["witness"] = theorems._witness(n, cmap)
            return VerdictReport(claim, "counterexample", hypotheses, counts, details)
        counts["extended"] += weight
    return VerdictReport(claim, "verified", hypotheses, counts, details)


@pytest.mark.parametrize(
    "name, max_n, max_gens",
    [*((name, max_n, 2) for name, (_, max_n) in SUFFICIENCY_ALPHABETS.items()), ("f2", 5, 5)],
    ids=[*SUFFICIENCY_ALPHABETS, "f2-n5-full"],
)
def test_sufficiency_by_group_orders_matches_the_listing(name, max_n, max_gens):
    alphabet = SUFFICIENCY_ALPHABETS[name][0]
    report = verify_sufficiency(alphabet, WIDE_GUARDS, max_n=max_n, max_gens=max_gens)
    expected = _sufficiency_by_listing(alphabet, WIDE_GUARDS, max_n=max_n, max_gens=max_gens)
    assert report.result == "verified"
    assert report.as_json() == expected.as_json()


# (alphabet, max_n, max_gens, guards) of the midway oracle: the midway
# alphabets at n <= 3, the benchmark's scope, and F_2 on its full lattice
MIDWAY_LISTING_CASES = {
    **{name: (alphabet, 3, 2, Guards(max_order=512))
       for name, alphabet in zip(MIDWAY_IDS, MIDWAY_ALPHABETS)},
    "f2-n5-full": (matrix_module(1, 2, 1), 5, 5, Guards()),
}


@pytest.mark.parametrize("name", list(MIDWAY_LISTING_CASES))
def test_midway_by_group_orders_matches_the_listing(name):
    alphabet, max_n, max_gens, guards = MIDWAY_LISTING_CASES[name]
    report = verify_midway(alphabet, guards, max_n=max_n, max_gens=max_gens)
    expected = _midway_by_listing(alphabet, guards, max_n=max_n, max_gens=max_gens)
    assert report.result == "verified"
    assert report.as_json() == expected.as_json()


@pytest.mark.parametrize("name", ["z4-klein", "z4", "z8", "f2-col2", "z4-klein-relabelled"])
def test_midway_witness_matches_the_listing_when_every_element_is_its_own_orbit(
    name, monkeypatch
):
    """With every element its own orbit, maps that keep Hamming weights break
    swc profiles.  The witness, its pair and the tallies so far are the
    listing's, also on Z/4 and Z/8, whose units move words: midway reads the
    profiles of each map it lists, so it needs no orbit labels kept."""
    _own_orbits(monkeypatch)
    alphabet, max_n, max_gens, guards = MIDWAY_LISTING_CASES[name]
    report = verify_midway(alphabet, guards, max_n=max_n, max_gens=max_gens)
    expected = _midway_by_listing(alphabet, guards, max_n=max_n, max_gens=max_gens)
    assert report.result == "counterexample"
    assert report.as_json() == expected.as_json()


def test_a_verified_sweep_lists_no_pair(monkeypatch):
    """On the benchmark's midway and sufficiency alphabets, each verified with
    its pinned counts, neither _failing_pair nor extension_search is called."""
    calls = []

    def spy(real):
        def called(*args, **kwargs):
            calls.append(real.__name__)
            return real(*args, **kwargs)
        return called

    for name in ("_failing_pair", "extension_search"):
        monkeypatch.setattr(theorems, name, spy(getattr(theorems, name)))
    workloads = _load("workloads")
    for verify, cases in ((verify_midway, workloads.MIDWAY), (verify_sufficiency, workloads.SUFFICIENCY)):
        for name, ring, module, max_n, counts in cases:
            report = verify(module_make(ring_make(ring), module), max_n=max_n, max_gens=2)
            assert (name, report.result, report.counts) == (name, "verified", counts)
    assert calls == []


@pytest.mark.parametrize(
    "ring, module",
    [({"kind": "mod_n", "n": 1}, {"kind": "regular"}),
     ({"kind": "mod_n", "n": 4}, {"kind": "mod_m", "m": 1})],
    ids=["z1-regular", "z4-on-z1"],
)
def test_sweeps_of_a_zero_alphabet_match_the_listing(ring, module):
    """A^n is {0} at every length, so each length holds only the zero code,
    with one map onto itself: no generator, no chain level, no kept map."""
    alphabet = module_make(ring_make(ring), module)
    midway = verify_midway(alphabet, max_n=3)
    sufficiency = verify_sufficiency(alphabet, max_n=3)
    assert midway.as_json() == _midway_by_listing(alphabet, max_n=3).as_json()
    assert sufficiency.as_json() == _sufficiency_by_listing(alphabet, max_n=3).as_json()
    assert midway.counts == {"codes": 3, "monomorphisms": 3, "hamming_preserving": 3, "peeled": 3}
    assert sufficiency.counts == {"codes": 3, "isomorphisms": 3, "swc_preserving": 3, "extended": 3}


def test_a_verified_sufficiency_sweep_searches_for_no_extension(monkeypatch):
    """On the benchmark's sufficiency alphabets, each verified with its
    pinned counts, extension_search is never called."""
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return extension_search(*args, **kwargs)

    monkeypatch.setattr(theorems, "extension_search", spy)
    for name, ring, module, max_n, counts in _load("workloads").SUFFICIENCY:
        report = verify_sufficiency(module_make(ring_make(ring), module), max_n=max_n, max_gens=2)
        assert (name, report.result, report.counts) == (name, "verified", counts)
    assert calls == []


@pytest.mark.parametrize("alphabet", [matrix_module(1, 2, 2), z4_klein()], ids=["f2-col2", "z4-klein"])
def test_sufficiency_reports_a_map_between_distinct_orbits(alphabet, monkeypatch):
    """With the socle gate forced open, two alphabets whose socles are not
    cyclic have an swc-preserving map between the first codes of two
    orbits at length 3, which no monomial transform extends; the report is
    the listing's, and its witness joins two distinct codes."""
    monkeypatch.setattr(theorems, "socle_report", lambda *args: SimpleNamespace(cyclic=True))
    report = verify_sufficiency(alphabet, max_n=3, max_gens=2)
    assert report.as_json() == _sufficiency_by_listing(alphabet, max_n=3, max_gens=2).as_json()
    assert report.result == "counterexample"
    witness = report.details["witness"]
    source, target = (
        code_generate(alphabet, witness["length"], witness[words])
        for words in ("generators", "gen_images")
    )
    assert source.elements != target.elements


def test_sufficiency_raises_when_the_orders_disagree_but_every_map_extends(monkeypatch):
    # no code has |E(C)| = 0, so the zero code of length 1 fails its order
    # check, and the one map of its listing, the identity, extends
    monkeypatch.setattr(theorems, "_extending_order", lambda *args: 0)
    with pytest.raises(InternalConsistencyError, match="group orders .* disagree"):
        verify_sufficiency(matrix_module(1, 2, 1), max_n=2)


def test_sufficiency_raises_when_an_orbit_does_not_divide_the_group(monkeypatch):
    # on F_2 the monomial group of length n has order n!, which 7 does not
    # divide for n < 7
    monkeypatch.setattr(theorems, "fixing_order", lambda *args: 7)
    with pytest.raises(InternalConsistencyError, match="does not divide"):
        verify_sufficiency(matrix_module(1, 2, 1), max_n=2)


# the alphabets of the brute-force checks of the two group orders
ORDER_ALPHABETS = {
    "z4": lambda: module_make(mod_ring(4), {"kind": "regular"}),
    "f3": lambda: matrix_module(1, 3, 1),
    "f4": lambda: matrix_module(1, 4, 1),
    "z9": lambda: module_make(mod_ring(9), {"kind": "regular"}),
}


@functools.cache
def _full_lattice_lengths(name, key):
    """The alphabet ORDER_ALPHABETS[name] and what _sweep_lengths yields for
    each length n <= 3 of a sweep on its full lattice keyed on the given
    weight."""
    alphabet = ORDER_ALPHABETS[name]()
    guards = Guards(max_order=729)
    lengths = theorems._sweep_lengths(
        alphabet, guards, _sweep_bounds(guards, 3, 3), {"codes": 0}, {}, key
    )
    return alphabet, list(lengths)


def _generated_order(members, perms):
    """The order of the group that perms generate, each the images of the
    sorted members in order, by closing the identity under them."""
    position = {x: p for p, x in enumerate(members)}
    identity = tuple(members)
    seen, queue = {identity}, [identity]
    for f in queue:
        for h in perms:
            g = tuple(h[position[x]] for x in f)
            if g not in seen:
                seen.add(g)
                queue.append(g)
    return len(seen)


@pytest.mark.parametrize("name", sorted(ORDER_ALPHABETS))
def test_fixing_order_counts_the_transforms_that_fix_every_generator(name):
    """|K(C)| against the count of the (sigma, tau) in S_n x| Aut(A)^n, each
    applied to every generator, on every orbit first of length n <= 3."""
    alphabet, lengths = _full_lattice_lengths(name, "swc")
    auts = automorphism_group(alphabet).elements
    codes = 0
    for n, _, lattice, *_ in lengths:
        for code in lattice.codes:
            gens = [lattice.words[g] for g in code.generators]
            fixing = sum(
                all(tau[g[s]] == g[i] for g in gens for i, (s, tau) in enumerate(zip(sigma, taus)))
                for sigma in itertools.permutations(range(n))
                for taus in itertools.product(auts, repeat=n)
            )
            assert fixing_order(alphabet, n, gens) == fixing
            codes += 1
    assert codes > 10


@pytest.mark.parametrize("key", ["hamming", "swc"])
@pytest.mark.parametrize("name", sorted(ORDER_ALPHABETS))
def test_keyed_chain_order_counts_the_keyed_automorphisms(name, key):
    """The order of stabilizer_chain with a key against the listing of the
    automorphisms of the code that keep the key, on every orbit first of
    length n <= 3."""
    smaller = 0
    for _, ambient, lattice, keys, _, leader, aut, keyed in _full_lattice_lengths(name, key)[1]:
        for i, code in enumerate(lattice.codes):
            chain = modules.stabilizer_chain(ambient, code.generators, key=keys)
            listed = iter_linear_maps(
                ambient, ambient, code.generators, True, target_members=code.members, key=keys
            )
            order = math.prod(size for size, _ in chain)
            assert order == len(list(listed))
            # keyed(i), with or without its shortcut, gives that order and
            # generators of that group, as the midway generator test needs
            assert keyed(i)[0] == order == _generated_order(code.members, keyed(i)[1])
            smaller += order < aut[leader[i]][0]
    assert smaller > 0


@pytest.mark.parametrize("key", ["hamming", "swc"])
@pytest.mark.parametrize("name", sorted(ORDER_ALPHABETS))
def test_a_chain_whose_kept_automorphisms_keep_the_key_has_the_keyed_order(name, key):
    """When every automorphism that the unkeyed chain of a code keeps also
    keeps the key, the keyed chain's order is |Aut(C)|, on every leader of
    length n <= 3: the codes whose unkeyed chain the sweep runs."""
    decided = searched = 0
    for _, ambient, lattice, keys, _, _, aut, _ in _full_lattice_lengths(name, key)[1]:
        for i, (whole, kept) in aut.items():
            code = lattice.codes[i]
            if all(theorems._keeps(keys, code.members, h) for h in kept):
                chain = modules.stabilizer_chain(ambient, code.generators, key=keys)
                assert math.prod(size for size, _ in chain) == whole
                decided += 1
            else:
                searched += 1
    assert decided > 0 and searched > 0


@pytest.mark.parametrize("key", ["hamming", "swc"])
@pytest.mark.parametrize("name", sorted(ORDER_ALPHABETS))
def test_a_chain_runs_once_per_code_and_keyed_only_where_the_group_is_smaller(
    name, key, monkeypatch
):
    """A sweep runs each chain, keyed or not, at most once per member tuple:
    a code of length n comes back at n + 1 with a zero first column under
    the same indices.  keyed(i) runs a keyed chain exactly for the new codes
    whose keyed group is smaller than Aut(C), leaders or not: the
    automorphisms kept on the leader, carried over by the class isomorphism,
    generate Aut(C), so they all keep the key exactly when Aut(C) does."""
    chained = []

    def spy(ambient, gens, key=None):
        chained.append((modules.submodule_generated(ambient, gens).members, key is None))
        return modules.stabilizer_chain(ambient, gens, key=key)

    monkeypatch.setattr(theorems, "stabilizer_chain", spy)
    alphabet = ORDER_ALPHABETS[name]()
    guards = Guards(max_order=729)
    lengths = theorems._sweep_lengths(
        alphabet, guards, _sweep_bounds(guards, 3, 3), {"codes": 0}, {}, key
    )
    seen, smaller, carried, again = set(), 0, 0, 0
    for _, _, lattice, _, _, leader, aut, keyed in lengths:
        for i, code in enumerate(lattice.codes):
            before = len(chained)
            order, _ = keyed(i)
            ran = chained[before:] == [(code.members, False)]
            assert ran == (order < aut[leader[i]][0] and code.members not in seen)
            assert len(chained) - before == ran
            smaller += ran
            carried += not ran and leader[i] != i and code.members not in seen
            again += code.members in seen
            seen.add(code.members)
    assert len(set(chained)) == len(chained)
    assert smaller > 0 and carried > 0 and again > 0


@pytest.mark.parametrize("name", sorted(ORDER_ALPHABETS))
def test_a_code_whose_automorphisms_all_extend_has_the_swc_keyed_order(name):
    """When _extending_order equals |Aut(C)|, the swc-keyed chain's order is
    |Aut(C)| too, on every orbit first of length n <= 3: E(C) <= P(C) <=
    Aut(C)."""
    alphabet, lengths = _full_lattice_lengths(name, "swc")
    decided = searched = 0
    for n, ambient, lattice, keys, sizes, leader, aut, _ in lengths:
        for i, code in enumerate(lattice.codes):
            whole = aut[leader[i]][0]
            gen_words = [lattice.words[g] for g in code.generators]
            if theorems._extending_order(alphabet, n, gen_words, sizes[i], Guards()) == whole:
                chain = modules.stabilizer_chain(ambient, code.generators, key=keys)
                assert math.prod(size for size, _ in chain) == whole
                decided += 1
            else:
                searched += 1
    assert decided > 0 and searched > 0


def test_sufficiency_needs_cyclic_socle():
    report = verify_sufficiency(z4_klein())
    assert report.result == "hypotheses-unmet"
    assert report.exit_code == 2


def test_necessity_klein_pipeline():
    report = verify_necessity(z4_klein())
    assert report.result == "counterexample"
    assert report.exit_code == 1
    pack = pack_from_json(report.details["pack"])
    assert pack.length == 3
    assert pack.construction == "pullback"
    assert pack.generators_plus == ((0, 1, 1), (0, 2, 2))
    assert pack.generators_minus == ((1, 0, 2), (0, 2, 2))
    assert pack.transcript["block"]["embedding"] == [0, 1, 2, 3]
    assert all(pack.transcript["checks"].values())
    assert replay_pack(pack).result == "verified"


def test_necessity_builds_the_block_ring_once(monkeypatch):
    """The block pack and the pulled-back block alphabet share one
    M_mu(F_q) and one column module."""
    matrix_rings = []

    def counted(descriptor, *rest):
        if descriptor.get("kind") == "matrix":
            matrix_rings.append(descriptor)
        return ring_make(descriptor, *rest)

    monkeypatch.setattr(theorems, "ring_make", counted)
    assert verify_necessity(z4_klein()).result == "counterexample"
    assert matrix_rings == [{"kind": "matrix", "m": 1, "q": 2}]


def test_necessity_f2_square():
    report = verify_necessity(matrix_module(1, 2, 2))
    assert report.result == "counterexample"
    pack = pack_from_json(report.details["pack"])
    assert pack.length == 3
    assert replay_pack(pack).result == "verified"


def test_necessity_needs_noncyclic_socle():
    report = verify_necessity(module_make(mod_ring(4), {"kind": "regular"}))
    assert report.result == "hypotheses-unmet"
    assert report.exit_code == 2


def test_necessity_unsupported_when_swc_transport_fails():
    with pytest.raises(UnsupportedConstruction):
        verify_necessity(z2_plus_z4())


def test_necessity_unsupported_for_table_rings():
    z4 = mod_ring(4)
    table_ring = ring_make(
        {
            "kind": "table",
            "add": [list(r) for r in z4.add_table],
            "mul": [list(r) for r in z4.mul_table],
        }
    )
    klein = z4_klein()
    klein_over_table = module_make(
        table_ring,
        {
            "kind": "table",
            "add": [list(r) for r in klein.add_table],
            "act": [list(r) for r in klein.act_table],
        },
    )
    with pytest.raises(UnsupportedConstruction):
        verify_necessity(klein_over_table)


@pytest.mark.parametrize("stem", sorted(s for s in CASES if s.startswith("verify-necessity-")))
def test_pulled_block_alphabet_is_the_violating_block(stem, monkeypatch):
    """verify_necessity pulls M_{mu x k}(F_q) back through one block
    projection without checking it.  On every verify-necessity golden spec
    the pulled table satisfies the module axioms, and its socle is k copies
    of the violating simple and nothing else."""
    pulled = []

    def spy(src, *rest):
        pulled.append(src)
        return embedding_search(src, *rest)

    monkeypatch.setattr(theorems, "embedding_search", spy)
    spec = SPECS[CASES[stem][1]]
    ring = ring_make(spec["ring"])
    alphabet = module_make(ring, spec["module"])
    pack = pack_from_json(verify_necessity(alphabet).details["pack"])
    (block,) = pulled
    assert block.descriptor == {"kind": "pullback_block"}
    assert _validate_module_tables(ring, block.add_table, block.act_table) == block.zero
    k = pack.transcript["block"]["k"]
    rows = socle_report(alphabet).rows
    index = next(i for i, row in enumerate(rows) if row[2] > row[1])
    assert [row[2] for row in socle_report(block).rows] == [
        k if i == index else 0 for i in range(len(rows))
    ]


# ---------------------------------------------------------------------------
# aggregate driver


def test_verify_all_cyclic_branch():
    report = verify_all(module_make(mod_ring(6), {"kind": "regular"}))
    assert report.result == "verified"
    assert report.exit_code == 0
    assert report.counts["sub_results"] == {
        "orbit_lemma": "verified",
        "midway": "verified",
        "sufficiency": "verified",
    }


def test_verify_all_noncyclic_branch():
    report = verify_all(z4_klein(), max_n=2)
    assert report.result == "verified"
    assert report.counts["sub_results"] == {
        "orbit_lemma": "verified",
        "midway": "verified",
        "necessity": "counterexample",
    }
    assert "pack" in report.details["reports"]["necessity"]["details"]


def test_verdict_exit_codes():
    report = VerdictReport("c", "verified", {}, {}, {})
    assert report.exit_code == 0
    assert VerdictReport("c", "counterexample", {}, {}, {}).exit_code == 1
    assert VerdictReport("c", "hypotheses-unmet", {}, {}, {}).exit_code == 2
