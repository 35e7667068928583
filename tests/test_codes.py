"""Code layer: closures, weight profiles, monomial transforms, extension search."""

import dataclasses
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eplab.codes import (
    Code,
    CodeMap,
    ExtensionResult,
    code_generate,
    code_map_make,
    extension_search,
    map_preserves,
    MonomialTransform,
    weight_profile,
    word_act,
    word_add,
)
from eplab.errors import GuardExceeded, Guards, InputError, InternalConsistencyError
from eplab.fields import index_to_entries
from eplab.modules import (
    automorphism_group,
    direct_power,
    iter_linear_maps,
    module_make,
    partition,
)
from eplab.rings import ring_make, submodules_enumerate
from eplab.theorems import _Lattice


def monomial_apply(transform, word):
    """The word a monomial transform sends word to: output position i
    receives tau_i applied to input position sigma[i]."""
    return tuple(
        transform.taus[i][word[transform.sigma[i]]] for i in range(len(transform.sigma))
    )


def column_fingerprint(code, position, index):
    """Multiset (sorted tuple) of partition labels in one column of the code,
    the oracle for the fingerprints extension_search computes."""
    if not 0 <= position < code.length:
        raise InputError(f"position {position} outside code of length {code.length}")
    return tuple(sorted(index[w[position]] for w in code.elements))


@dataclasses.dataclass
class SharedLattice(_Lattice):
    """A sweep's _Lattice that builds each of its codes once, the code map
    builder of the listing oracles: code(k) is codes[k] as a Code whose
    elements are the words of its ascending members, and code_map(i, j,
    fmap) the map from code(i) onto code(j) of fmap, the images of the
    members of codes[i] in order, built directly and unchecked.
    theorems._code_map_from_tuple closes both codes and checks every map."""

    built: dict = dataclasses.field(default_factory=dict)

    def code(self, k):
        if k not in self.built:
            words, sub = self.words, self.codes[k]
            self.built[k] = Code(
                self.alphabet,
                len(words[0]),
                tuple(words[g] for g in sub.generators),
                tuple(words[x] for x in sub.members),
            )
        return self.built[k]

    def code_map(self, i, j, fmap):
        source = self.code(i)
        mapping = dict(zip(source.elements, map(self.words.__getitem__, fmap)))
        return CodeMap(source, self.code(j), tuple(mapping[g] for g in source.generators), mapping)


def z4_alphabet():
    ring = ring_make({"kind": "mod_n", "n": 4})
    return module_make(ring, {"kind": "regular"})


def f2sq_alphabet():
    ring = ring_make({"kind": "mod_n", "n": 2})
    return module_make(
        ring, {"kind": "direct_sum", "summands": [{"kind": "regular"}, {"kind": "regular"}]}
    )


def test_code_generate_frozen():
    a = z4_alphabet()
    c = code_generate(a, 2, [(1, 2)])
    assert c.elements == ((0, 0), (1, 2), (2, 0), (3, 2))
    assert c.size == 4
    c2 = code_generate(a, 2, [(1, 0), (0, 2)])
    assert c2.size == 8
    assert (3, 2) in c2.elements
    zero = code_generate(a, 3, [])
    assert zero.elements == ((0, 0, 0),)


def test_code_generate_validation_and_guard():
    a = z4_alphabet()
    with pytest.raises(InputError):
        code_generate(a, 2, [(1, 2, 3)])
    with pytest.raises(InputError):
        code_generate(a, 2, [(1, 7)])
    with pytest.raises(InputError):
        code_generate(a, 0, [])
    with pytest.raises(GuardExceeded):
        code_generate(a, 2, [(1, 0)], guards=Guards(max_code=2))


def test_weight_profiles_frozen():
    a = z4_alphabet()
    # orbits of Z/4 under Aut = {1, 3}: {0}, {1,3}, {2} -> labels (0,1,2,1)
    assert partition(a, "orbit") == (0, 1, 2, 1)
    assert partition(a, "annihilator") == (0, 1, 2, 1)
    w = (0, 1, 2)
    assert weight_profile(a, w, "hamming") == {"nonzero": 2}
    assert weight_profile(a, w, "swc") == {"0": 1, "1": 1, "2": 1}
    assert weight_profile(a, w, "aw") == {"0": 1, "1": 1, "2": 1}
    with pytest.raises(InputError):
        weight_profile(a, w, "lee")


def test_weight_profile_sums_to_length():
    a = z4_alphabet()
    for w in itertools.product(range(4), repeat=3):
        for kind in ("swc", "aw"):
            assert sum(weight_profile(a, w, kind).values()) == 3


@pytest.mark.parametrize("kind", ["hamming", "swc", "aw"])
def test_weight_profile_rejects_a_non_list_word(kind):
    with pytest.raises(InputError):
        weight_profile(z4_alphabet(), 5, kind)


def test_monomial_apply_and_compose():
    neg = (0, 3, 2, 1)
    t = MonomialTransform((1, 0), (neg, tuple(range(4))))
    assert monomial_apply(t, (1, 2)) == (2, 1)


def test_monomial_transforms_preserve_profiles():
    a = f2sq_alphabet()
    g = automorphism_group(a)
    t = MonomialTransform((1, 0), (g.elements[2], g.elements[4]))
    for w in itertools.product(range(4), repeat=2):
        tw = monomial_apply(t, w)
        for kind in ("hamming", "swc", "aw"):
            assert weight_profile(a, w, kind) == weight_profile(a, tw, kind)


def test_code_map_make_and_errors():
    a = z4_alphabet()
    c1 = code_generate(a, 2, [(1, 2)])
    c2 = code_generate(a, 2, [(2, 1)])
    f = code_map_make(c1, c2, [(2, 1)])
    assert f.mapping[(1, 2)] == (2, 1)
    assert f.mapping[(2, 0)] == (0, 2)
    assert (1, 1) not in f.mapping
    # 2*(2,0) = (0,0) but 2*(1,0) = (2,0): not a map
    bad_src = code_generate(a, 2, [(2, 0)])
    tgt = code_generate(a, 2, [(1, 0)])
    with pytest.raises(InputError):
        code_map_make(bad_src, tgt, [(1, 0)])
    # collapses (2,4)->(0,0): not injective
    with pytest.raises(InputError):
        code_map_make(c1, code_generate(a, 2, [(2, 2)]), [(2, 2)])
    # bijective but lands in a different code than declared
    with pytest.raises(InputError):
        code_map_make(c1, code_generate(a, 2, [(1, 1)]), [(1, 3)])
    with pytest.raises(InputError):
        code_map_make(c1, c2, [(2, 1), (0, 0)])


def _closure_code_generate(alphabet, length, generators):
    """The former code_generate closure, one multiple per ring element: the
    oracle for the closure over the distinct multiples."""
    members = {(alphabet.zero,) * length}
    for g in generators:
        scaled = [word_act(alphabet, r, tuple(g)) for r in alphabet.ring.elements()]
        members = {word_add(alphabet, s, sg) for s in members for sg in scaled}
    return tuple(sorted(members))


def _closure_code_map(source, target, gen_images):
    """The former code_map_make, one pair per ring element and mapped word:
    the oracle for the closure over the distinct pairs (r*g, r*f(g))."""
    alphabet = source.alphabet
    zero = (alphabet.zero,) * source.length
    if len(gen_images) != len(source.generators):
        raise InputError(
            f"expected {len(source.generators)} generator images, got {len(gen_images)}"
        )
    mapping = {zero: zero}
    for g, fg in zip(source.generators, gen_images):
        new = {}
        for r in alphabet.ring.elements():
            rg, rfg = word_act(alphabet, r, g), word_act(alphabet, r, tuple(fg))
            for s, fs in mapping.items():
                key, val = word_add(alphabet, s, rg), word_add(alphabet, fs, rfg)
                prev = new.get(key)
                if prev is None:
                    new[key] = val
                elif prev != val:
                    raise InputError("generator images do not define a map")
        mapping = new
    if set(mapping) != set(source.elements):
        raise InputError("generators do not generate the source code")
    values = set(mapping.values())
    if len(values) != len(mapping):
        raise InputError("code map is not injective")
    if values != set(target.elements):
        raise InputError("code map image differs from the target code")
    return mapping


def _outcome(build, *args):
    """build(*args), or the message of the InputError it raises."""
    try:
        return build(*args)
    except InputError as exc:
        return f"raises: {exc}"


CLOSURE_ALPHABETS = {
    "z4": z4_alphabet,
    "z4-klein": lambda: _mod_alphabet(
        4, {"kind": "direct_sum", "summands": [{"kind": "mod_m", "m": 2}] * 2}
    ),
    "f4": lambda: module_make(ring_make({"kind": "matrix", "m": 1, "q": 4}), {"kind": "regular"}),
    "m2f2-col3": lambda: module_make(
        ring_make({"kind": "matrix", "m": 2, "q": 2}), {"kind": "column", "k": 3}
    ),
}


@pytest.mark.parametrize("name", sorted(CLOSURE_ALPHABETS))
def test_closures_over_distinct_multiples_match_the_per_element_closures(name):
    """Seeded random generators at n <= 3, with images that are random words,
    a monomial transform of the generators, or their multiples by one ring
    element r: code_generate gives the per-element closure, and code_map_make
    the same dict, or the same error."""
    alphabet = CLOSURE_ALPHABETS[name]()
    rng = random.Random(name)
    perms = automorphism_group(alphabet).elements
    outcomes = set()
    for n in (1, 2, 3):
        for _ in range(40):
            gens = [
                tuple(rng.randrange(alphabet.order) for _ in range(n))
                for _ in range(rng.randint(1, 2))
            ]
            source = code_generate(alphabet, n, gens)
            assert source.elements == _closure_code_generate(alphabet, n, gens)
            way = rng.choice(["random", "monomial", "multiple"])
            if way == "random":
                images = [tuple(rng.randrange(alphabet.order) for _ in range(n)) for _ in gens]
            elif way == "monomial":
                taus = tuple(rng.choice(perms) for _ in range(n))
                transform = MonomialTransform(tuple(rng.sample(range(n), n)), taus)
                images = [monomial_apply(transform, g) for g in gens]
            else:
                r = rng.randrange(alphabet.ring.order)
                images = [word_act(alphabet, r, g) for g in gens]
            target = code_generate(alphabet, n, images)
            assert target.elements == _closure_code_generate(alphabet, n, images)
            new = _outcome(lambda: code_map_make(source, target, images).mapping)
            assert new == _outcome(_closure_code_map, source, target, images)
            outcomes.add(new if isinstance(new, str) else "map")
    assert "map" in outcomes and "raises: generator images do not define a map" in outcomes


def test_pairs_sharing_a_multiple_of_the_generator_must_share_its_image():
    """Over Z/4, g = (2, 0) with f(g) = (1, 0): r = 1 and r = 3 give the one
    multiple r*g = (2, 0) but the images (1, 0) and (3, 0), and r = 0, 2 give
    r*g = 0 but the images (0, 0) and (2, 0).  Among the distinct pairs both
    clashes remain, and the map is refused as the per-element closure
    refuses it."""
    a = z4_alphabet()
    source = code_generate(a, 2, [(2, 0)])
    target = code_generate(a, 2, [(1, 0)])
    pairs = {(word_act(a, r, (2, 0)), word_act(a, r, (1, 0))) for r in a.ring.elements()}
    assert len(pairs) == 4 and len({rg for rg, _ in pairs}) == 2
    message = "raises: generator images do not define a map"
    assert _outcome(code_map_make, source, target, [(1, 0)]) == message
    assert _outcome(_closure_code_map, source, target, [(1, 0)]) == message


def test_map_preserves_frozen():
    a = z4_alphabet()
    c1 = code_generate(a, 2, [(1, 1)])
    c2 = code_generate(a, 2, [(1, 3)])
    f = code_map_make(c1, c2, [(1, 3)])
    assert map_preserves(f, "hamming")
    assert map_preserves(f, "swc")
    assert map_preserves(f, "aw")
    c3 = code_generate(a, 2, [(1, 0)])
    g = code_map_make(c3, c1, [(1, 1)])
    assert not map_preserves(g, "hamming")


def test_column_fingerprint_frozen():
    a = z4_alphabet()
    c = code_generate(a, 2, [(1, 2)])
    idx = partition(a, "orbit")
    assert column_fingerprint(c, 0, idx) == (0, 1, 1, 2)
    assert column_fingerprint(c, 1, idx) == (0, 0, 2, 2)
    with pytest.raises(InputError):
        column_fingerprint(c, 2, idx)


def test_extension_search_identity_columns():
    a = z4_alphabet()
    c1 = code_generate(a, 2, [(1, 1)])
    c2 = code_generate(a, 2, [(1, 3)])
    f = code_map_make(c1, c2, [(1, 3)])
    res = extension_search(f)
    assert res.transform is not None
    assert res.transform.sigma == (0, 1)
    assert res.transform.taus == ((0, 1, 2, 3), (0, 3, 2, 1))
    assert res.group_order == 2
    assert res.candidate_space == 2 * 4


def test_extension_search_swapped_columns():
    a = z4_alphabet()
    c1 = code_generate(a, 2, [(1, 2)])
    c2 = code_generate(a, 2, [(2, 1)])
    f = code_map_make(c1, c2, [(2, 1)])
    res = extension_search(f)
    assert res.transform is not None
    assert res.transform.sigma == (1, 0)
    assert res.transform.taus[0] == (0, 1, 2, 3)
    for w, fw in f.mapping.items():
        assert monomial_apply(res.transform, w) == fw


def test_extension_search_zero_column_obstruction():
    """The length-3 pair over F_2^2: hamming-preserving map from a code with an
    identically zero column to one without it can have no monomial extension."""
    a = f2sq_alphabet()
    # with (a1, a2) encoded as 2*a1 + a2
    cp = code_generate(a, 3, [(0, 2, 2), (0, 1, 1)])
    cm = code_generate(a, 3, [(2, 0, 1), (0, 1, 1)])
    f = code_map_make(cp, cm, [(2, 0, 1), (0, 1, 1)])
    assert map_preserves(f, "hamming")
    res = extension_search(f)
    assert res.transform is None
    assert res.nodes == 0


def test_extension_search_rejects_a_transform_that_misses_a_word():
    """A map that agrees with the identity on the generators of F_2^3 but
    swaps the images of (1, 1, 0) and (1, 0, 1), two words with one swc
    profile, is not linear: the identity found from the generators must fail
    the check on the whole code."""
    f2 = module_make(ring_make({"kind": "mod_n", "n": 2}), {"kind": "regular"})
    gens = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    code = code_generate(f2, 3, gens)
    identity = code_map_make(code, code, gens)
    assert extension_search(identity).transform.sigma == (0, 1, 2)
    mapping = dict(identity.mapping)
    mapping[(1, 1, 0)], mapping[(1, 0, 1)] = (1, 0, 1), (1, 1, 0)
    assert map_preserves(CodeMap(code, code, identity.gen_images, mapping), "swc")
    with pytest.raises(InternalConsistencyError, match="inconsistent transform"):
        extension_search(CodeMap(code, code, identity.gen_images, mapping))


def _naive_extension(cmap, perms):
    n = cmap.source.length
    for sigma in itertools.permutations(range(n)):
        for taus in itertools.product(perms, repeat=n):
            t = MonomialTransform(sigma, taus)
            if all(monomial_apply(t, w) == fw for w, fw in cmap.mapping.items()):
                return t
    return None


def test_extension_search_matches_naive_enumeration():
    a = z4_alphabet()
    perms = automorphism_group(a).elements
    gens_pool = [(1, 0), (1, 1), (1, 2), (1, 3), (0, 1), (2, 1)]
    codes = [code_generate(a, 2, [g]) for g in gens_pool]
    checked = 0
    for c1 in codes:
        for c2 in codes:
            if c1.size != c2.size:
                continue
            for img in c2.elements:
                try:
                    f = code_map_make(c1, c2, [img])
                except InputError:
                    continue
                checked += 1
                fast = extension_search(f).transform
                naive = _naive_extension(f, perms)
                assert (fast is None) == (naive is None)
                if fast is not None:
                    assert all(
                        monomial_apply(fast, w) == fw for w, fw in f.mapping.items()
                    )
    assert checked > 10


def _dfs_extension(cmap):
    """The backtracking search extension_search replaced, kept as its oracle:
    candidate automorphisms for every position pair, then a depth-first
    search over target positions that counts each (i, j) it tries."""
    alphabet = cmap.source.alphabet
    n = cmap.source.length
    perms = automorphism_group(alphabet).elements
    gens = cmap.source.generators
    images = cmap.gen_images
    orbit_index = partition(alphabet, "orbit")
    fp_src = [column_fingerprint(cmap.source, j, orbit_index) for j in range(n)]
    fp_dst = [column_fingerprint(cmap.target, i, orbit_index) for i in range(n)]
    candidates = {}
    for i in range(n):
        for j in range(n):
            if fp_src[j] != fp_dst[i]:
                continue
            taus = [
                t
                for t, tau in enumerate(perms)
                if all(tau[g[j]] == fg[i] for g, fg in zip(gens, images))
            ]
            if taus:
                candidates[(i, j)] = taus
    candidate_space = math.factorial(n) * len(perms) ** n
    if len({j for _, j in candidates}) < n or len({i for i, _ in candidates}) < n:
        return ExtensionResult(None, 0, candidate_space, len(perms))
    nodes = 0
    sigma = [-1] * n
    used = [False] * n

    def dfs(i):
        nonlocal nodes
        if i == n:
            return True
        for j in range(n):
            if used[j] or (i, j) not in candidates:
                continue
            nodes += 1
            sigma[i] = j
            used[j] = True
            if dfs(i + 1):
                return True
            used[j] = False
        return False

    if not dfs(0):
        return ExtensionResult(None, nodes, candidate_space, len(perms))
    taus = tuple(perms[candidates[(i, sigma[i])][0]] for i in range(n))
    transform = MonomialTransform(tuple(sigma), taus)
    return ExtensionResult(transform, nodes, candidate_space, len(perms))


def _mod_alphabet(n, module=None):
    return module_make(ring_make({"kind": "mod_n", "n": n}), module or {"kind": "regular"})


def _injective_code_maps(alphabet, max_n):
    """Every injective linear map on every code of A^n, n = 1..max_n, with at
    most 2 generators, as a CodeMap onto its image."""
    for n in range(1, max_n + 1):
        ambient = direct_power(alphabet, n)
        words = [index_to_entries(x, alphabet.order, n) for x in ambient.elements()]
        codes = submodules_enumerate(ambient, max_gens=2)
        # the profiles of the words take no part in a code map
        lattice = SharedLattice(alphabet, words, [], codes)
        index = {code.members: k for k, code in enumerate(codes)}
        for i, code in enumerate(codes):
            for fmap in iter_linear_maps(ambient, ambient, code.generators, injective=True):
                yield lattice.code_map(i, index[tuple(sorted(fmap))], fmap)


@pytest.mark.parametrize(
    "alphabet",
    [
        z4_alphabet,
        lambda: _mod_alphabet(
            4, {"kind": "direct_sum", "summands": [{"kind": "mod_m", "m": 2}] * 2}
        ),
        f2sq_alphabet,
        lambda: module_make(ring_make({"kind": "matrix", "m": 1, "q": 4}), {"kind": "regular"}),
        lambda: _mod_alphabet(8),
    ],
    ids=["z4", "z4-klein", "f2-col2", "f4", "z8"],
)
def test_extension_search_matches_the_backtracking_oracle(alphabet):
    """Same verdict, witness, candidate space and group order as the DFS on
    every map; the same node count wherever a transform exists, because the
    DFS then never backtracks."""
    extending = refuted = 0
    for cmap in _injective_code_maps(alphabet(), 2):
        fast, slow = extension_search(cmap), _dfs_extension(cmap)
        assert fast.transform == slow.transform
        assert (fast.candidate_space, fast.group_order) == (slow.candidate_space, slow.group_order)
        if fast.transform is None:
            refuted += 1
            assert fast.nodes == 0
        else:
            extending += 1
            assert fast.nodes == slow.nodes == cmap.source.length
    assert extending > 0 and refuted > 0


def test_extension_search_reports_no_nodes_where_the_dfs_backtracked():
    f2 = module_make(ring_make({"kind": "mod_n", "n": 2}), {"kind": "regular"})
    source = code_generate(f2, 3, [(0, 0, 1)])
    target = code_generate(f2, 3, [(0, 1, 1)])
    cmap = code_map_make(source, target, [(0, 1, 1)])
    assert _dfs_extension(cmap).nodes == 4
    res = extension_search(cmap)
    assert res.transform is None
    assert res.nodes == 0


# ---------------------------------------------------------------------------
# property: monomial transforms never move a word's weight profiles


@given(
    word=st.lists(st.integers(min_value=0, max_value=3), min_size=3, max_size=3),
    sigma=st.permutations(range(3)),
    taus=st.lists(st.integers(min_value=0, max_value=1), min_size=3, max_size=3),
)
@settings(max_examples=200, deadline=None)
def test_weight_profiles_are_monomial_invariants(is_module_automorphism, word, sigma, taus):
    a = z4_alphabet()
    auts = automorphism_group(a).elements
    transform = MonomialTransform(tuple(sigma), tuple(auts[t] for t in taus))
    assert all(is_module_automorphism(a, tau) for tau in transform.taus)
    image = monomial_apply(transform, word)
    for kind in ("hamming", "swc", "aw"):
        assert weight_profile(a, image, kind) == weight_profile(a, word, kind)
