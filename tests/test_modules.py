"""Module layer: socles, simple modules, automorphisms, partitions."""

import functools
import itertools
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eplab import modules, rings
from eplab.errors import GuardExceeded, Guards, InputError, InternalConsistencyError
from eplab.fields import mixed_radix_join, mixed_radix_split
from eplab.modules import (
    AutGroup,
    _greedy_generators,
    _map_from_images,
    annihilator_sets,
    automorphism_group,
    character_module,
    direct_power,
    embedding_search,
    is_pseudo_injective,
    isomorphism_leaders,
    iter_linear_maps,
    least_in_orbit,
    minimal_submodules,
    module_generators,
    module_make,
    orbit_lattice,
    partition,
    socle,
    socle_report,
    stabilizer_chain,
    submodule_generated,
    submodules_enumerate,
)
from eplab.rings import exponent_of_addition, hom_count, ring_make, simple_classes
from test_rings import _closure_minimal_submodules, local_xy_ring


def mod_ring(n):
    return ring_make({"kind": "mod_n", "n": n})


def z4():
    return mod_ring(4)


def z4_regular():
    return module_make(z4(), {"kind": "regular"})


def z2z2_over_z4():
    return module_make(
        z4(), {"kind": "direct_sum", "summands": [{"kind": "mod_m", "m": 2}, {"kind": "mod_m", "m": 2}]}
    )


def z2z4_over_z4():
    """Z/2 + Z/4 with element (a, b) encoded as a*4 + b."""
    return module_make(
        z4(), {"kind": "direct_sum", "summands": [{"kind": "mod_m", "m": 2}, {"kind": "mod_m", "m": 4}]}
    )


def m23_over_m2f2():
    ring = ring_make({"kind": "matrix", "m": 2, "q": 2})
    return module_make(ring, {"kind": "column", "k": 3})


def test_direct_sum_encoding_frozen():
    a = z2z4_over_z4()
    assert a.order == 8
    assert a.zero == 0
    # (1,0) + (1,2) = (0,2)
    assert a.add(4, 6) == 2
    # 3*(1,1) = (1,3)
    assert a.act(3, 5) == 7


def test_column_module_tables():
    a = m23_over_m2f2()
    assert a.order == 64
    assert a.zero == 0
    ring = a.ring
    # identity action
    assert all(a.act(ring.one, x) == x for x in a.elements())
    # swap matrix (0,1;1,0) = 0b0110 acting on e_{1,3} = 0b000001 gives e_{2,3}
    assert a.act(0b0110, 0b000001) == 0b001000


def test_mod_m_requires_divisor():
    with pytest.raises(InputError):
        module_make(z4(), {"kind": "mod_m", "m": 3})
    a = module_make(z4(), {"kind": "mod_m", "m": 2})
    assert a.order == 2
    assert a.act(2, 1) == 0
    assert a.act(3, 1) == 1


def test_table_module_validation(broken_additions):
    r = mod_ring(2)
    for message, add in broken_additions:
        act = [[0] * len(add), list(range(len(add)))]
        with pytest.raises(InputError, match=f"module addition table.*{message}"):
            module_make(r, {"kind": "table", "add": add, "act": act})
    good = module_make(
        r, {"kind": "table", "add": [[0, 1], [1, 0]], "act": [[0, 0], [0, 1]]}
    )
    assert good.order == 2
    with pytest.raises(InputError):
        module_make(r, {"kind": "table", "add": [[0, 1], [1, 0]], "act": [[0, 0], [0, 0]]})
    with pytest.raises(InputError):
        module_make(r, {"kind": "table", "add": [[0, 1], [0, 1]], "act": [[0, 0], [0, 1]]})


def _direct_sum_oracle(ring, summands):
    """Direct-sum tables as an earlier builder made them: split each index
    into mixed-radix digits, act or add in each summand, and join."""
    orders = [s.order for s in summands]
    parts = [mixed_radix_split(i, orders) for i in range(math.prod(orders))]
    add = tuple(
        tuple(
            mixed_radix_join([s.add(x, y) for s, x, y in zip(summands, a, b)], orders)
            for b in parts
        )
        for a in parts
    )
    act = tuple(
        tuple(mixed_radix_join([s.act(r, x) for s, x in zip(summands, a)], orders) for a in parts)
        for r in ring.elements()
    )
    return add, act, mixed_radix_join([s.zero for s in summands], orders)


@pytest.mark.parametrize(
    "ring_desc, summand_descs",
    [
        ({"kind": "mod_n", "n": 4}, [{"kind": "regular"}, {"kind": "mod_m", "m": 2}, {"kind": "regular"}]),
        ({"kind": "mod_n", "n": 4}, [{"kind": "mod_m", "m": 2}] * 3),
        ({"kind": "mod_n", "n": 4}, [{"kind": "character"}, {"kind": "regular"}]),
        ({"kind": "mod_n", "n": 6}, [{"kind": "mod_m", "m": 2}, {"kind": "mod_m", "m": 3}, {"kind": "regular"}]),
        ({"kind": "matrix", "m": 2, "q": 2}, [{"kind": "column", "k": 1}] * 3),
        ({"kind": "matrix", "m": 1, "q": 4}, [{"kind": "column", "k": 1}, {"kind": "column", "k": 2}]),
    ],
    ids=["z4-z2-z4", "z2-cubed", "character-z4", "z2-z3-z6", "m2f2-col1-cubed", "f4-col1-col2"],
)
def test_direct_sum_tables_match_the_mixed_radix_oracle(ring_desc, summand_descs):
    ring = ring_make(ring_desc)
    summed = module_make(ring, {"kind": "direct_sum", "summands": summand_descs})
    oracle = _direct_sum_oracle(ring, [module_make(ring, d) for d in summand_descs])
    assert (summed.add_table, summed.act_table, summed.zero) == oracle


@pytest.mark.parametrize(
    "table",
    [
        [0, 1],
        [[0, 1], 1],
        [[0, 1], [1.0, 0]],
        [[0, "1"], [1, 0]],
        [[0, 1], [True, 0]],
        [[0], [1, 0]],
    ],
    ids=["rows-are-ints", "one-row-is-int", "float-entry", "string-entry", "bool-entry", "ragged"],
)
def test_malformed_table_module_is_input_error(table):
    r = mod_ring(2)
    with pytest.raises(InputError):
        module_make(r, {"kind": "table", "add": table, "act": [[0, 0], [0, 1]]})
    with pytest.raises(InputError):
        module_make(r, {"kind": "table", "add": [[0, 1], [1, 0]], "act": table})


def _is_submodule(module, members):
    ms = set(members)
    if module.zero not in ms:
        return False
    return all(module.add(a, b) in ms for a in ms for b in ms) and all(
        module.act(r, a) in ms for r in module.ring.elements() for a in ms
    )


def test_submodules_of_z2z4_frozen():
    a = z2z4_over_z4()
    assert submodule_generated(a, [5]).members == (0, 2, 5, 7)
    assert submodule_generated(a, [1]).members == (0, 1, 2, 3)
    assert submodule_generated(a, [4]).members == (0, 4)
    subs = submodules_enumerate(a)
    assert [s.members for s in subs] == [
        (0,),
        (0, 2),
        (0, 4),
        (0, 6),
        (0, 1, 2, 3),
        (0, 2, 4, 6),
        (0, 2, 5, 7),
        (0, 1, 2, 3, 4, 5, 6, 7),
    ]
    assert all(_is_submodule(a, s.members) for s in subs)


def test_submodules_of_column_module_match_subspace_count():
    # submodules of M_{2x3}(F_2) over M_2(F_2) correspond to row-space
    # constraints, one per subspace of F_2^3: 1 + 7 + 7 + 1 = 16
    a = m23_over_m2f2()
    assert len(submodules_enumerate(a)) == 16


def test_annihilators_frozen():
    a = z2z4_over_z4()
    anns = annihilator_sets(a)
    assert anns[0] == {0, 1, 2, 3}
    assert anns[4] == {0, 2}
    assert anns[1] == {0}
    assert anns[2] == {0, 2}


def test_socle_frozen():
    assert socle(z4_regular()).members == (0, 2)
    assert socle(z2z4_over_z4()).members == (0, 2, 4, 6)
    assert socle(z2z2_over_z4()).members == (0, 1, 2, 3)
    a = m23_over_m2f2()
    assert socle(a).members == tuple(range(64))
    assert [s.members for s in minimal_submodules(z2z4_over_z4())] == [
        (0, 2),
        (0, 4),
        (0, 6),
    ]


def test_simple_catalog_frozen():
    assert [(t.q, t.mu, t.order) for t in simple_classes(z4())] == [(2, 1, 2)]
    assert [(t.q, t.mu, t.order) for t in simple_classes(mod_ring(6))] == [(2, 1, 2), (3, 1, 3)]
    m2f2 = ring_make({"kind": "matrix", "m": 2, "q": 2})
    assert [(t.q, t.mu, t.order) for t in simple_classes(m2f2)] == [(2, 2, 4)]


def test_semisimple_quotient_is_built_once_per_ring(monkeypatch):
    """simple_classes, and every socle report that reads it, build R/rad(R)
    once per ring."""
    real, calls = rings.ring_quotient, []
    monkeypatch.setattr(rings, "ring_quotient", lambda *a: calls.append(a) or real(*a))
    r = ring_make({"kind": "matrix", "m": 2, "q": 2})
    simple_classes(r)
    socle_report(module_make(r, {"kind": "regular"}))
    socle_report(module_make(r, {"kind": "column", "k": 3}))
    assert len(calls) == 1


def test_hom_counts_from_simple():
    (t,) = simple_classes(z4())
    assert t.ann == frozenset({0, 2})
    assert hom_count(t, z4_regular()) == 2
    assert hom_count(t, z2z2_over_z4()) == 4
    assert hom_count(t, z2z4_over_z4()) == 4


@pytest.mark.parametrize(
    "builder,rows,cyclic",
    [
        (z4_regular, ((2, 1, 1, 2),), True),
        (z2z2_over_z4, ((2, 1, 2, 2),), False),
        (lambda: module_make(z4(), {"kind": "mod_m", "m": 2}), ((2, 1, 1, 2),), True),
        (z2z4_over_z4, ((2, 1, 2, 2),), False),
        (m23_over_m2f2, ((2, 2, 3, 4),), False),
        (lambda: module_make(mod_ring(6), {"kind": "regular"}), ((2, 1, 1, 2), (3, 1, 1, 3)), True),
        (
            lambda: module_make(
                mod_ring(2),
                {"kind": "direct_sum", "summands": [{"kind": "regular"}, {"kind": "regular"}]},
            ),
            ((2, 1, 2, 2),),
            False,
        ),
    ],
)
def test_socle_report_frozen(builder, rows, cyclic):
    rep = socle_report(builder())
    assert rep.rows == rows
    assert rep.cyclic is cyclic
    assert rep.methods_agree


def test_module_generators():
    assert module_generators(z4_regular()) == (1,)
    assert len(module_generators(z2z2_over_z4())) == 2
    assert len(module_generators(z2z4_over_z4())) == 2
    assert len(module_generators(m23_over_m2f2())) == 2


@pytest.mark.parametrize(
    "builder,order",
    [
        (z4_regular, 2),
        (z2z2_over_z4, 6),
        (z2z4_over_z4, 8),
        (m23_over_m2f2, 168),
    ],
)
def test_automorphism_group_orders_frozen(builder, order):
    assert automorphism_group(builder()).order == order


def test_automorphism_group_is_a_group(is_module_automorphism):
    a = z2z4_over_z4()
    g = automorphism_group(a)
    members = set(g.elements)
    assert tuple(a.elements()) in members
    for p in g.elements:
        assert is_module_automorphism(a, p)
        for q in g.elements:
            assert AutGroup.compose(p, q) in members


def _closure(group):
    """Every product of the generators, starting from the identity."""
    reached = {tuple(group.module.elements())}
    frontier = list(reached)
    while frontier:
        x = frontier.pop()
        for g in group.generators:
            y = AutGroup.compose(x, g)
            if y not in reached:
                reached.add(y)
                frontier.append(y)
    return reached


def _orbit_labels_by_listing(group):
    """The orbit labels from every element of Aut(A): each element's label
    is the least member of its orbit {p[a] : p in Aut(A)}."""
    labels = [-1] * group.module.order
    for a in range(len(labels)):
        if labels[a] == -1:
            for x in {p[a] for p in group.elements}:
                labels[x] = a
    return tuple(labels)


def _descriptor_module(ring_desc, module_desc):
    return lambda: module_make(ring_make(ring_desc), module_desc)


def _column(q, k):
    return lambda: module_make(ring_make({"kind": "matrix", "m": 1, "q": q}), {"kind": "column", "k": k})


GENERATOR_ALPHABETS = {
    **{f"z{n}": (lambda n=n: module_make(mod_ring(n), {"kind": "regular"})) for n in range(2, 13)},
    "z4 klein": z2z2_over_z4,
    "z2+z4 over z4": z2z4_over_z4,
    "m23 over m2f2": m23_over_m2f2,
    "f2^3": _column(2, 3),
    "f2^4": _column(2, 4),
    "f3^3": _column(3, 3),
    "z8+z8": _descriptor_module(
        {"kind": "mod_n", "n": 8},
        {"kind": "direct_sum", "summands": [{"kind": "regular"}, {"kind": "regular"}]},
    ),
}


@pytest.mark.parametrize("relabel", [False, True], ids=["named", "relabelled"])
@pytest.mark.parametrize("name", list(GENERATOR_ALPHABETS))
def test_generators_match_the_rebuilt_closure_oracle(name, relabel):
    """The stabilizer chain's generators generate exactly the sorted listing
    of Aut(A), whose length is the chain's order, and give its orbits."""
    module = GENERATOR_ALPHABETS[name]()
    if relabel:
        module = _seeded_relabel(module, random.Random(name))
    group = automorphism_group(module)
    assert _closure(group) == set(group.elements)
    assert group.order == len(group.elements)
    assert 2 ** len(group.generators) <= group.order
    assert partition(module, "orbit") == _orbit_labels_by_listing(group)


@given(name=st.sampled_from(list(GENERATOR_ALPHABETS)), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_chain_agrees_with_the_listing_on_relabelled_alphabets(name, seed):
    """On seeded relabelled copies of the GENERATOR_ALPHABETS (all of order
    at most 64) the chain's order is the listing's length, its generators
    give the listing's orbits, and the orbits refine the annihilator
    classes."""
    module = _seeded_relabel(GENERATOR_ALPHABETS[name](), random.Random(seed))
    group = automorphism_group(module)
    orbits = partition(module, "orbit")
    assert group.order == len(group.elements)
    assert orbits == _orbit_labels_by_listing(group)
    annihilator = partition(module, "annihilator")
    for members in _classes(orbits).values():
        assert len({annihilator[x] for x in members}) == 1


@pytest.mark.parametrize("name", ["z2+z4 over z4", "m23 over m2f2", "f2^3", "z8+z8"])
def test_chain_is_exact_along_every_generator_order(name):
    """The chain needs only a generating tuple, not the greedy one.  Along
    (4, 1) on Z/2 + Z/4 some partial maps do not extend: 4 = (1, 0) -> 2 =
    (0, 2) is injective on its span, but then the image of 1 spans only 4
    elements, so that y must not count towards the orbit of 4."""
    greedy = GENERATOR_ALPHABETS[name]()
    for gens in itertools.permutations(module_generators(greedy)):
        module = GENERATOR_ALPHABETS[name]()
        module._cache["generators"] = gens
        group = automorphism_group(module)
        assert group.order == len(group.elements) == automorphism_group(greedy).order
        assert _closure(group) == set(group.elements)
        assert partition(module, "orbit") == partition(greedy, "orbit")


def union_find_least_in_orbit(size, maps):
    """The former modules.least_in_orbit: union-find over the pairs (j, m[j])
    that keeps the smaller root, the oracle for the breadth-first sweep."""
    parent = list(range(size))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for image in maps:
        for i, j in enumerate(image):
            a, b = find(i), find(j)
            parent[max(a, b)] = min(a, b)
    return [find(i) for i in range(size)]


def submodule_orbits(subs, perms):
    """The former modules.submodule_orbits, the oracle for orbit_lattice:
    modules.least_in_orbit over a submodule list under element
    permutations, out[i] the position of the first submodule in the orbit
    of subs[i].  An image missing from the list raises
    InternalConsistencyError."""
    position = {s.members: i for i, s in enumerate(subs)}

    def image(perm):
        for s in subs:
            j = position.get(tuple(sorted(map(perm.__getitem__, s.members))))
            if j is None:
                raise InternalConsistencyError(
                    f"an image of the submodule {list(s.members)} is not listed"
                )
            yield j

    return modules.least_in_orbit(len(subs), map(image, perms))


def listing_stabilizer_chain(module, gens):
    """The former modules.stabilizer_chain: one search per candidate y of
    every level, each level listed as one automorphism per y, deepest
    first.  The oracle for the orbit-pruned chain."""
    spans = [submodule_generated(module, gens[:i]).members for i in range(len(gens) + 1)]
    target = frozenset(spans[-1])
    search = functools.partial(modules._map_search, module, module, target_members=target)
    for i in reversed(range(len(gens))):
        level = []
        extend = search(gens[i + 1 :], True, spans[i + 1])
        for step in search(gens[i : i + 1], True, spans[i])(list(spans[i])):
            full = next(extend(list(step)), None)
            if full is not None:
                level.append(full)
        yield level


def filtered_chain_generators(module):
    """The former automorphism_group filter over the listing chain: the
    automorphism listed for y joins the generators when y lies outside the
    orbit of g_i under those kept so far."""
    gens, kept = module_generators(module), []
    for g, level in zip(reversed(gens), listing_stabilizer_chain(module, gens)):
        labels = union_find_least_in_orbit(module.order, kept)
        for full in level:
            if labels[full[g]] != labels[g]:
                kept.append(full)
                labels = union_find_least_in_orbit(module.order, kept)
    return tuple(kept)


def check_chain_against_the_listing(module, gens):
    """Each level of the pruned chain counts as many automorphisms as the
    listing chain lists, and keeps only listed ones; returns the sizes."""
    sizes = []
    for (size, kept), level in zip(
        stabilizer_chain(module, gens), listing_stabilizer_chain(module, gens), strict=True
    ):
        assert size == len(level) and set(kept) <= set(level)
        sizes.append(size)
    return sizes


@given(
    case=st.integers(0, 40).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.permutations(range(n)), max_size=4))
    )
)
@settings(max_examples=200, deadline=None)
def test_least_in_orbit_matches_union_find(case):
    size, maps = case
    assert least_in_orbit(size, maps) == union_find_least_in_orbit(size, maps)


@pytest.mark.parametrize(
    "maps",
    [[[0, 0, 2]], [[1, 2, 3]], [[-1, 0, 1]], [[0, 1]], [[0, 1, 2, 0]], [[1, 0, 2], [2, 2, 1]]],
    ids=["repeated-image", "out-of-range", "negative", "short", "long", "second-map"],
)
def test_least_in_orbit_rejects_a_map_that_is_not_a_permutation(maps):
    """Union-find joined whatever pairs a map gave; the sweep follows images
    forward only, which finds the orbit of a permutation but not of any
    other map, so such a map is refused."""
    with pytest.raises(InternalConsistencyError):
        least_in_orbit(3, maps)


def _f4_regular():
    return module_make(ring_make({"kind": "matrix", "m": 1, "q": 4}), {"kind": "regular"})


def _frobenius(module):
    """x -> x^2 on F_4: additive and bijective, but not F_4-linear."""
    return [module.ring.mul_table[x][x] for x in module.elements()]


@pytest.mark.parametrize(
    "build, maps",
    [
        (z4_regular, lambda _: [[0, 1, 1, 3]]),
        (z4_regular, lambda _: [[0, 1, 2]]),
        (z4_regular, lambda _: [[0, 3, 2, 7]]),
        (z4_regular, lambda _: [[1, 2, 3, 0]]),
        (z4_regular, lambda _: [[0, 3, 2, 1], [0, 2, 1, 3]]),
        (_f4_regular, lambda m: [_frobenius(m)]),
    ],
    ids=["repeated-image", "short", "out-of-range", "translation", "second-map", "frobenius"],
)
def test_orbit_lattice_rejects_a_map_that_is_not_an_r_linear_bijection(build, maps):
    module = build()
    with pytest.raises(InternalConsistencyError, match="not an R-linear bijection"):
        orbit_lattice(module, maps(module))


def test_orbit_lattice_lists_orbit_firsts_sizes_and_generators():
    # x -> 3x fixes every ideal of Z/4, and the swap of the summands of
    # (Z/2)^2 joins <(0,1)> = {0, 1} and <(1,0)> = {0, 2} into one orbit
    orbits = orbit_lattice(z4_regular(), [[0, 3, 2, 1]])
    assert [(s.members, s.generators, k) for s, k in orbits] == [
        ((0,), (0,), 1), ((0, 2), (2,), 1), ((0, 1, 2, 3), (1,), 1),
    ]
    orbits = orbit_lattice(z2z2_over_z4(), [[0, 2, 1, 3]], max_gens=1)
    assert [(s.members, s.generators, k) for s, k in orbits] == [
        ((0,), (0,), 1), ((0, 1), (1,), 2), ((0, 3), (3,), 1),
    ]


def _classes(labels):
    """The classes of a partition by label: each label's members, ascending."""
    out = {}
    for a, label in enumerate(labels):
        out.setdefault(label, []).append(a)
    return {label: tuple(members) for label, members in sorted(out.items())}


def test_partition_frozen_z2z4():
    a = z2z4_over_z4()
    orbits = partition(a, "orbit")
    assert orbits == (0, 1, 2, 1, 4, 1, 4, 1)
    ann = partition(a, "annihilator")
    assert ann == (0, 1, 2, 1, 2, 1, 2, 1)
    # orbit classes refine annihilator classes, strictly here
    assert orbits != ann
    assert _classes(orbits)[2] == (2,)
    assert _classes(ann)[2] == (2, 4, 6)


def test_partition_refinement_property():
    for builder in (z4_regular, z2z2_over_z4, z2z4_over_z4, m23_over_m2f2):
        a = builder()
        orbits = partition(a, "orbit")
        ann = partition(a, "annihilator")
        for members in _classes(orbits).values():
            assert len({ann[x] for x in members}) == 1


def test_partition_equal_when_pseudo_injective():
    for builder in (z4_regular, z2z2_over_z4, m23_over_m2f2):
        a = builder()
        assert is_pseudo_injective(a)
        assert partition(a, "orbit") == partition(a, "annihilator")


def test_partition_with_explicit_generators():
    with pytest.raises(InputError):
        partition(z2z2_over_z4(), "weight")


def test_pseudo_injectivity_frozen():
    assert is_pseudo_injective(z4_regular())
    assert is_pseudo_injective(z2z2_over_z4())
    assert not is_pseudo_injective(z2z4_over_z4())


def test_pseudo_injectivity_checks_the_order_guard_before_any_search(monkeypatch):
    """Above max_order, is_pseudo_injective raises GuardExceeded before it
    walks a lattice of the ring or the module, or lists a map."""
    def refused(*args, **kwargs):
        raise AssertionError("searched above the order guard")

    module = _column(2, 4)()
    for name in (
        "submodules_enumerate", "orbit_lattice", "iter_linear_maps", "_map_search", "stabilizer_chain"
    ):
        monkeypatch.setattr(modules, name, refused)
    with pytest.raises(GuardExceeded, match=r"^module order 16 \(16\) exceeds guard \(8\)$"):
        is_pseudo_injective(module, Guards(max_order=8))


def _rest_search(module, members, f):
    """The one endomorphism search that is_pseudo_injective runs for the
    monomorphism f on the submodule members: the first extension, or None."""
    extend = modules._map_search(module, module, _greedy_generators(module, members), False, members)
    return next(extend([f[x] for x in members]), None)


def test_failing_mono_in_z2z4():
    """(0,2) -> (1,0) embeds the order-2 submodule {0, 2} but cannot extend:
    any endomorphism sends 2A = {0, 2} into itself."""
    a = z2z4_over_z4()
    assert _rest_search(a, (0, 2), {0: 0, 2: 4}) is None
    ext = _rest_search(a, (0, 4), {0: 0, 4: 6})
    assert len(ext) == a.order and ext[4] == 6
    assert all(ext[a.add(x, y)] == a.add(ext[x], ext[y]) for x in a.elements() for y in a.elements())
    assert all(ext[a.act(r, x)] == a.act(r, ext[x]) for r in a.ring.elements() for x in a.elements())


def test_iter_monos_matches_annihilator_filter():
    a = z2z4_over_z4()
    monos = list(iter_linear_maps(a, a, (2,), injective=True))
    # 2 = (0,2) can map to any element with annihilator {0,2}: 2, 4, 6; each
    # map is the tuple of images of the span (0, 2)
    assert sorted(f[1] for f in monos) == [2, 4, 6]


def _iter_linear_maps_oracle(src, dst, gens, injective=False, base=None, target_members=None):
    """The former modules.iter_linear_maps: each candidate image extends a
    copy of the map's dict through one pass over {s + r*x}, which checks
    every linearity constraint.  Yields dicts."""
    if base is None:
        base = {src.zero: dst.zero}
    anns_src = annihilator_sets(src)
    anns_dst = annihilator_sets(dst)
    pool = dst.elements() if target_members is None else sorted(target_members)
    candidate_sets = []
    for g in gens:
        if injective:
            cands = [y for y in pool if anns_dst[y] == anns_src[g]]
        else:
            cands = [y for y in pool if anns_src[g] <= anns_dst[y]]
        candidate_sets.append(cands)

    def extend_map(base, x, y):
        new = dict(base)
        for r in src.ring.elements():
            rx, ry = src.act(r, x), dst.act(r, y)
            for s, fs in base.items():
                key, val = src.add(s, rx), dst.add(fs, ry)
                if new.setdefault(key, val) != val:
                    return None
        return new

    def rec(i, current):
        if i == len(gens):
            yield current
            return
        for y in candidate_sets[i]:
            ext = extend_map(current, gens[i], y)
            if ext is None:
                continue
            if injective and len(set(ext.values())) != len(ext):
                continue
            yield from rec(i + 1, ext)

    yield from rec(0, dict(base))


def _assert_kernel_matches_oracle(src, dst, gens, injective=False, base=None, target_members=None):
    """The kernel yields the oracle's maps in the oracle's order, each as
    the tuple of images of the sorted span; returns the number of maps.
    The kernel is iter_linear_maps, or with base, a linear map on a
    submodule, the search _map_search compiles on that submodule."""
    if base is None:
        maps = iter_linear_maps(src, dst, gens, injective, target_members=target_members)
    else:
        search = modules._map_search(
            src, dst, gens, injective, tuple(base), target_members=target_members
        )
        maps = search(list(base.values()))
    span = submodule_generated(src, list(base or [src.zero]) + list(gens)).members
    got = [dict(zip(span, f)) for f in maps]
    assert got == list(_iter_linear_maps_oracle(src, dst, gens, injective, base, target_members))
    return len(got)


def _relabelled_klein():
    """(Z/2)^2 over Z/4 as a table module with its zero at index 2."""
    klein = z2z2_over_z4()
    pm, pr = (2, 0, 3, 1), tuple(klein.ring.elements())
    return module_make(klein.ring, {
        "kind": "table",
        "add": _permute_table(klein.add_table, pm, pm, pm),
        "act": _permute_table(klein.act_table, pr, pm, pm),
    })


KERNEL_ALPHABETS = {
    "z4 klein": z2z2_over_z4,
    "z4": z4_regular,
    "z8": lambda: module_make(mod_ring(8), {"kind": "regular"}),
    "f2 col2": lambda: module_make(
        ring_make({"kind": "matrix", "m": 1, "q": 2}), {"kind": "column", "k": 2}
    ),
    "relabelled klein": _relabelled_klein,
}


@pytest.mark.parametrize(
    "builder",
    [z2z2_over_z4, z2z4_over_z4, _column(2, 3), _relabelled_klein],
    ids=["z4 klein", "z2+z4 over z4", "f2^3", "relabelled klein"],
)
def test_minimal_submodules_match_the_closure_oracle(builder):
    module = builder()
    assert minimal_submodules(module) == _closure_minimal_submodules(module)


def test_minimal_submodules_and_the_socle_take_the_callers_guards():
    guards = Guards(max_order=128)
    f2 = ring_make({"kind": "matrix", "m": 1, "q": 2})
    module = module_make(f2, {"kind": "column", "k": 7}, guards)
    with pytest.raises(GuardExceeded):
        minimal_submodules(module)
    assert len(minimal_submodules(module, guards)) == 127
    assert socle(module, guards).members == tuple(range(128))


@pytest.mark.parametrize("name", sorted(KERNEL_ALPHABETS))
def test_iter_linear_maps_matches_the_oracle_on_every_code(name):
    """Every code at n <= 2 with at most 2 generators: all linear maps, the
    injective ones, and the injective ones onto each code of equal size."""
    alphabet = KERNEL_ALPHABETS[name]()
    for n in (1, 2):
        ambient = direct_power(alphabet, n)
        codes = submodules_enumerate(ambient, max_gens=2)
        for code in codes:
            gens = code.generators
            assert _assert_kernel_matches_oracle(ambient, ambient, gens) >= 1
            assert _assert_kernel_matches_oracle(ambient, ambient, gens, injective=True) >= 1
            for other in codes:
                if len(other) == len(code):
                    _assert_kernel_matches_oracle(
                        ambient, ambient, gens, injective=True,
                        target_members=frozenset(other.members),
                    )


def _level_walk_oracle(ambient, max_gens):
    """The former theorems._enumerate_codes: the submodules needing at most
    max_gens generators as (members, generators) pairs.  Each level tries
    every element against every submodule new at the level before and
    closes each generator tuple from scratch."""
    found, level = {}, {}
    for w in ambient.elements():
        members = frozenset(submodule_generated(ambient, [w]).members)
        if members not in found:
            found[members] = level[members] = (w,)
    for _ in range(1, max_gens):
        grown = {}
        for members, gens in level.items():
            for w in ambient.elements():
                if w in members:
                    continue
                bigger = frozenset(submodule_generated(ambient, gens + (w,)).members)
                if bigger not in found:
                    found[bigger] = grown[bigger] = gens + (w,)
        level = grown
    return sorted(
        ((tuple(sorted(m)), g) for m, g in found.items()),
        key=lambda item: (len(item[0]), item[0]),
    )


def _pairwise_closure_oracle(module):
    """The former rings.submodules_enumerate: the cyclic submodules
    saturated under pairwise sums, in (size, members) order."""
    add = module.add_table
    subs = {frozenset(submodule_generated(module, [a]).members) for a in module.elements()}
    work = list(subs)
    while work:
        current = work.pop()
        for other in list(subs):
            s = frozenset(add[x][y] for x in current for y in other)
            if s not in subs:
                subs.add(s)
                work.append(s)
    return sorted((tuple(sorted(s)) for s in subs), key=lambda t: (len(t), t))


LEVEL_WALK_CASES = [
    ("z4", z4_regular, 3),
    ("z4 klein", z2z2_over_z4, 2),
    ("f2 col2", KERNEL_ALPHABETS["f2 col2"], 2),
    ("relabelled klein", _relabelled_klein, 2),
]


@pytest.mark.parametrize(
    "name,builder,max_n", LEVEL_WALK_CASES, ids=[c[0] for c in LEVEL_WALK_CASES]
)
def test_lattice_walk_keeps_the_members_order_and_generators_of_the_level_oracle(
    name, builder, max_n
):
    alphabet = builder()
    for n in range(1, max_n + 1):
        ambient = direct_power(alphabet, n)
        for max_gens in range(1, n + 1):
            walk = submodules_enumerate(ambient, max_gens=max_gens)
            assert [(s.members, s.generators) for s in walk] == _level_walk_oracle(
                ambient, max_gens
            )


FULL_LATTICE_CASES = {
    "f2^4": lambda: module_make(ring_make({"kind": "matrix", "m": 1, "q": 2}), {"kind": "column", "k": 4}),
    "z8+z8": lambda: module_make(
        mod_ring(8), {"kind": "direct_sum", "summands": [{"kind": "regular"}] * 2}
    ),
    "m2f3": lambda: ring_make({"kind": "matrix", "m": 2, "q": 3}, Guards(max_order=81)),
    "m23 over m2f2": m23_over_m2f2,
}


@pytest.mark.parametrize("name", sorted(FULL_LATTICE_CASES))
def test_full_lattice_matches_the_pairwise_closure(name):
    """The same members in the same order, and each generator tuple is a
    shortest one: the submodules that j elements generate are exactly those
    whose tuple has at most j entries, and the walk cut at max_gens = j."""
    module = FULL_LATTICE_CASES[name]()
    guards = Guards(max_order=81)
    subs = submodules_enumerate(module, guards)
    assert [s.members for s in subs] == _pairwise_closure_oracle(module)
    assert all(submodule_generated(module, s.generators).members == s.members for s in subs)
    most = max(len(s.generators) for s in subs)
    assert most > 1 or name == "m2f3"
    for j in range(1, most + 1):
        within = [s for s in subs if len(s.generators) <= j]
        assert list(submodules_enumerate(module, guards, j)) == within
        reached = {
            submodule_generated(module, gens).members
            for gens in itertools.combinations_with_replacement(module.elements(), j)
        }
        assert reached == {s.members for s in within}


SWEEP_ALPHABETS = {
    "z4 klein": z2z2_over_z4,
    "z8": KERNEL_ALPHABETS["z8"],
    "f4": lambda: module_make(ring_make({"kind": "matrix", "m": 1, "q": 4}), {"kind": "regular"}),
    "f2 col2": KERNEL_ALPHABETS["f2 col2"],
}


def _every_code(name, max_gens=None):
    """(ambient A^n, its codes, the Hamming weight of each ambient word) for
    n = 1, 2 over SWEEP_ALPHABETS[name]."""
    alphabet = SWEEP_ALPHABETS[name]()
    for n in (1, 2):
        ambient = direct_power(alphabet, n)
        words = [mixed_radix_split(x, [alphabet.order] * n) for x in ambient.elements()]
        weights = [sum(1 for c in w if c != alphabet.zero) for w in words]
        yield ambient, submodules_enumerate(ambient, max_gens=max_gens), weights


@pytest.mark.parametrize("name", sorted(SWEEP_ALPHABETS))
def test_keyed_maps_are_the_unkeyed_listing_filtered_by_the_key(name):
    """Keys: Hamming weights, annihilator classes and seeded random 2- and
    3-valued keys.  The identity keeps every key, so no listing is empty."""
    rng = random.Random(name)
    dropped = 0
    for ambient, codes, weights in _every_code(name, max_gens=2):
        keys = [
            weights,
            partition(ambient, "annihilator"),
            [rng.randrange(2) for _ in ambient.elements()],
            [rng.randrange(3) for _ in ambient.elements()],
        ]
        for code in codes:
            # the maps that need not be injective, only where they are few
            for injective in (True, False) if ambient.order <= 16 else (True,):
                maps = list(iter_linear_maps(ambient, ambient, code.generators, injective))
                for key in keys:
                    expected = [
                        f for f in maps if all(key[z] == key[x] for x, z in zip(code.members, f))
                    ]
                    got = list(iter_linear_maps(
                        ambient, ambient, code.generators, injective, key=key
                    ))
                    assert got == expected and code.members in got
                    dropped += len(maps) - len(got)
    assert dropped > 0


@pytest.mark.parametrize("name", sorted(SWEEP_ALPHABETS))
def test_chain_order_counts_every_automorphism_of_every_code(name):
    for ambient, codes, _ in _every_code(name):
        for code in codes:
            gens, members = code.generators, frozenset(code.members)
            listed = iter_linear_maps(ambient, ambient, gens, injective=True, target_members=members)
            sizes = [size for size, _ in stabilizer_chain(ambient, gens)]
            assert math.prod(sizes) == sum(1 for _ in listed)


@pytest.mark.parametrize("name", sorted(SWEEP_ALPHABETS))
def test_isomorphism_leaders_match_the_injective_map_relation(name):
    """C and D are isomorphic exactly when |C| = |D| and some injective
    linear map C -> D exists; the leader of C is the first such D, and the
    isomorphism returned with it is one of those maps, onto the leader."""
    classes = listed = 0
    for ambient, codes, _ in _every_code(name):

        def injections(c, d):
            if len(c) != len(d):
                return []
            return list(iter_linear_maps(
                ambient, ambient, c.generators, injective=True, target_members=frozenset(d.members)
            ))

        leader, isos = isomorphism_leaders(ambient, codes, range(len(codes)))
        for i, code in enumerate(codes):
            assert leader[i] == next(j for j, other in enumerate(codes) if injections(code, other))
            assert isos[i] in injections(code, codes[leader[i]])
            assert leader[i] != i or isos[i] == code.members
        classes += len(set(leader.values()))
        listed += len(codes)
    assert 4 < classes < listed


def _f2xy_module(ring, y_images):
    """F_2^2 + F_2^3 over F_2[x,y]/(x,y)^2, bits v1 v2 w1 w2 w3 from the
    lowest, with x v1 = 0, x v2 = w1, y v_i = y_images[i] and W killed."""
    x_images = (0, 4)

    def times(r, m):
        a, b, c = r & 1, r >> 1 & 1, r >> 2 & 1
        out = m if a else 0
        for i, bit in enumerate((1, 2)):
            if m & bit:
                out ^= (x_images[i] if b else 0) ^ (y_images[i] if c else 0)
        return out

    add = [[m ^ n for n in range(32)] for m in range(32)]
    act = [[times(r, m) for m in range(32)] for r in range(8)]
    return module_make(ring, {"kind": "table", "add": add, "act": act})


def test_isomorphism_leaders_split_a_shape_class():
    """Two submodules with equal annihilator multisets that are not
    isomorphic: rad(R) M1 = <w1, w2> has order 4, rad(R) M2 = W has order 8."""

    def mul(r, s):
        a, b, c = r & 1, r >> 1 & 1, r >> 2 & 1
        d, e, f = s & 1, s >> 1 & 1, s >> 2 & 1
        return a * d | (a * e ^ b * d) << 1 | (a * f ^ c * d) << 2

    ring = ring_make({
        "kind": "table",
        "add": [[r ^ s for s in range(8)] for r in range(8)],
        "mul": [[mul(r, s) for s in range(8)] for r in range(8)],
    })
    m1 = _f2xy_module(ring, (4, 8))
    m2 = _f2xy_module(ring, (8, 16))
    guards = Guards(max_order=1024)
    ambient = module_make(
        ring, {"kind": "direct_sum", "summands": [m1.descriptor, m2.descriptor]}, guards
    )
    # the leftmost summand is most significant: a in M1 is a * 32, b in M2 is b
    subs = [
        rings.Submodule(tuple(a * 32 for a in range(32)), tuple(g * 32 for g in module_generators(m1))),
        rings.Submodule(tuple(range(32)), module_generators(m2)),
    ]
    anns = partition(ambient, "annihilator")
    shapes = [sorted(anns[x] for x in sub.members) for sub in subs]
    assert shapes[0] == shapes[1]
    radicals = [
        {m.act_table[r][a] for r in (2, 4, 6) for a in m.elements()} for m in (m1, m2)
    ]
    assert [len(submodule_generated(m, rad)) for m, rad in zip((m1, m2), radicals)] == [4, 8]
    assert isomorphism_leaders(ambient, subs, range(2))[0] == {0: 0, 1: 1}


@pytest.mark.parametrize("builder", [z4_regular, z2z2_over_z4, z2z4_over_z4, _relabelled_klein])
def test_iter_linear_maps_extends_from_a_submodule_like_the_oracle(builder):
    """Extensions of each monomorphism on a proper submodule, as
    is_pseudo_injective searches them, with and without injectivity."""
    module = builder()
    for sub in submodules_enumerate(module):
        if len(sub) in (1, module.order):
            continue
        rest = _greedy_generators(module, sub.members)
        for f in iter_linear_maps(module, module, sub.generators, injective=True):
            base = dict(zip(sub.members, f))
            for injective in (False, True):
                _assert_kernel_matches_oracle(module, module, rest, injective=injective, base=base)


def _oracle_kernel(src, dst, gens, injective=False, *, target_members=None):
    for f in _iter_linear_maps_oracle(src, dst, gens, injective, None, target_members):
        yield tuple(f[x] for x in sorted(f))


@pytest.mark.parametrize(
    "descriptor",
    [{"kind": "mod_n", "n": n} for n in range(2, 13)] + [{"kind": "matrix", "m": 2, "q": 2}],
    ids=lambda d: json.dumps(d, sort_keys=True),
)
def test_automorphisms_and_characters_match_the_oracle_kernel(descriptor, monkeypatch):
    ring = ring_make(descriptor)
    group = automorphism_group(module_make(ring, {"kind": "regular"}))
    chars = character_module(ring)
    monkeypatch.setattr(modules, "iter_linear_maps", _oracle_kernel)
    ring = ring_make(descriptor)
    assert automorphism_group(module_make(ring, {"kind": "regular"})).elements == group.elements
    by_oracle = character_module(ring)
    assert (by_oracle.add_table, by_oracle.act_table) == (chars.add_table, chars.act_table)


def _extend_mono_oracle(module, members, f):
    """The former modules.extend_mono: check that f is a monomorphism on the
    submodule, then search automorphism extensions first and arbitrary
    endomorphisms second.  The full map as a tuple, or None."""
    add, act = module.add_table, module.act_table
    assert set(f) == set(members) and _is_submodule(module, members)
    assert len(set(f.values())) == len(members)
    for a in members:
        assert all(f[add[a][b]] == add[f[a]][f[b]] for b in members)
        assert all(f[act[r][a]] == act[r][f[a]] for r in module.ring.elements())
    gens_rest = _greedy_generators(module, members)
    for injective in (True, False):
        extend = modules._map_search(module, module, gens_rest, injective, tuple(f))
        found = next(extend(list(f.values())), None)
        if found is not None:
            return found
    return None


def _exhaustive_pseudo_injective(module):
    """The former modules.is_pseudo_injective: every monomorphism of every
    proper nonzero submodule through _extend_mono_oracle."""
    for sub in submodules_enumerate(module):
        if len(sub) in (1, module.order):
            continue
        for f in iter_linear_maps(module, module, sub.generators, injective=True):
            if _extend_mono_oracle(module, sub.members, dict(zip(sub.members, f))) is None:
                return False
    return True


PSEUDO_INJECTIVITY_CASES = [
    ("z4", z4_regular, True),
    ("z2+z2 over z4", z2z2_over_z4, True),
    ("z2+z4 over z4", z2z4_over_z4, False),
    ("m23 over m2f2", m23_over_m2f2, True),
    ("z2 over z4", _descriptor_module({"kind": "mod_n", "n": 4}, {"kind": "mod_m", "m": 2}), True),
    ("z6", _descriptor_module({"kind": "mod_n", "n": 6}, {"kind": "regular"}), True),
    (
        "f2+f2",
        _descriptor_module(
            {"kind": "mod_n", "n": 2},
            {"kind": "direct_sum", "summands": [{"kind": "regular"}, {"kind": "regular"}]},
        ),
        True,
    ),
    ("z8", _descriptor_module({"kind": "mod_n", "n": 8}, {"kind": "regular"}), True),
    (
        "z4+z2+z2 over z4",
        _descriptor_module(
            {"kind": "mod_n", "n": 4},
            {"kind": "direct_sum", "summands": [{"kind": "mod_m", "m": m} for m in (4, 2, 2)]},
        ),
        False,
    ),
    ("f2^3", _descriptor_module({"kind": "matrix", "m": 1, "q": 2}, {"kind": "column", "k": 3}), True),
]


@pytest.mark.parametrize(
    "name,builder,expected", PSEUDO_INJECTIVITY_CASES, ids=[c[0] for c in PSEUDO_INJECTIVITY_CASES]
)
def test_pseudo_injectivity_matches_the_extend_mono_oracle(name, builder, expected):
    assert is_pseudo_injective(builder()) is expected
    assert modules._pseudo_injective_by_search(builder()) is expected
    assert _exhaustive_pseudo_injective(builder()) is expected


def _injective_by_brute_force(module):
    """Injectivity of A, checked on F = R (+) R without Baer: every linear
    map from a submodule S of F into A, listed by the dict-based oracle
    kernel, is the restriction of one of the |A|^2 maps (r, s) -> r*a + s*b.
    Each proper nonzero left ideal I of R sits in F as I (+) 0, so this
    implies Baer's criterion, and an injective A passes it."""
    ring, add, act = module.ring, module.add_table, module.act_table
    free = direct_power(module_make(ring, {"kind": "regular"}), 2)
    for sub in submodules_enumerate(free):
        pairs = [divmod(x, ring.order) for x in sub.members]
        restrictions = {
            tuple(add[act[r][a]][act[s][b]] for r, s in pairs)
            for a in module.elements()
            for b in module.elements()
        }
        for f in _iter_linear_maps_oracle(free, module, sub.generators):
            if tuple(f[x] for x in sub.members) not in restrictions:
                return False
    return True


def _mod_n(n, descriptor):
    return _descriptor_module({"kind": "mod_n", "n": n}, descriptor)


# rings of order at most 8 and modules of order at most 8, injective or not
TINY_INJECTIVITY_CASES = {
    "z4": (z4_regular, True),
    "z2 over z4": (_mod_n(4, {"kind": "mod_m", "m": 2}), False),
    "z2+z2 over z4": (z2z2_over_z4, False),
    "z2+z4 over z4": (z2z4_over_z4, False),
    "z8": (_mod_n(8, {"kind": "regular"}), True),
    "z4 over z8": (_mod_n(8, {"kind": "mod_m", "m": 4}), False),
    "z6": (_mod_n(6, {"kind": "regular"}), True),
    "z2 over z6": (_mod_n(6, {"kind": "mod_m", "m": 2}), True),
    "f2^3": (_column(2, 3), True),
    "f4": (_descriptor_module({"kind": "matrix", "m": 1, "q": 4}, {"kind": "regular"}), True),
    "local-xy": (lambda: module_make(local_xy_ring(), {"kind": "regular"}), False),
    "local-xy character": (lambda: character_module(local_xy_ring()), True),
    "z2 over local-xy": (
        lambda: module_make(local_xy_ring(), {
            "kind": "table", "add": [[0, 1], [1, 0]], "act": [[0, 0]] * 4 + [[0, 1]] * 4,
        }),
        False,
    ),
}


@pytest.mark.parametrize("name", sorted(TINY_INJECTIVITY_CASES))
def test_baer_matches_injectivity_on_r_plus_r(name):
    """Baer's criterion on the left ideals of R says injective exactly when
    every map from a submodule of R (+) R into A extends to R (+) R."""
    builder, expected = TINY_INJECTIVITY_CASES[name]
    assert _injective_by_brute_force(builder()) is expected
    assert modules._is_injective(builder()) is expected


def _zero_fixing_perm(data, order, zero):
    rest = [x for x in range(order) if x != zero]
    drawn = iter(data.draw(st.permutations(rest)))
    return [zero if x == zero else next(drawn) for x in range(order)]


def _permute_table(table, row_perm, col_perm, val_perm):
    out = [[0] * len(col_perm) for _ in row_perm]
    for r, row in enumerate(table):
        for c, v in enumerate(row):
            out[row_perm[r]][col_perm[c]] = val_perm[v]
    return out


def _relabelled_copy(module, pr, pm):
    """module as a table module over a table ring, with ring element r
    renamed pr[r] and module element a renamed pm[a]."""
    ring = module.ring
    table_ring = ring_make({
        "kind": "table",
        "add": _permute_table(ring.add_table, pr, pr, pr),
        "mul": _permute_table(ring.mul_table, pr, pr, pr),
    })
    return module_make(table_ring, {
        "kind": "table",
        "add": _permute_table(module.add_table, pm, pm, pm),
        "act": _permute_table(module.act_table, pr, pm, pm),
    })


def _seeded_relabel(module, rng):
    """_relabelled_copy under permutations drawn from rng that fix zero."""
    def perm(order, zero):
        rest = [x for x in range(order) if x != zero]
        drawn = iter(rng.sample(rest, len(rest)))
        return [zero if x == zero else next(drawn) for x in range(order)]

    return _relabelled_copy(
        module, perm(module.ring.order, module.ring.zero), perm(module.order, module.zero)
    )


@given(case=st.sampled_from(PSEUDO_INJECTIVITY_CASES), data=st.data())
@settings(max_examples=15, deadline=None)
def test_relabelled_pseudo_injectivity_matches_the_oracle(case, data):
    """Table copies whose ring and module elements are renamed by random
    permutations that fix zero keep their verdict, on every check, and keep
    Baer's verdict too, which implies the search's."""
    _, builder, expected = case
    module = builder()
    ring = module.ring
    pr = _zero_fixing_perm(data, ring.order, ring.zero)
    pm = _zero_fixing_perm(data, module.order, module.zero)
    assert is_pseudo_injective(_relabelled_copy(module, pr, pm)) is expected
    assert modules._pseudo_injective_by_search(_relabelled_copy(module, pr, pm)) is expected
    assert _exhaustive_pseudo_injective(_relabelled_copy(module, pr, pm)) is expected
    injective = modules._is_injective(_relabelled_copy(module, pr, pm))
    assert injective is modules._is_injective(module)
    assert expected or not injective


def _orbit_pairs_by_brute_force(module, representatives=None):
    """(verdict, pairs): the (submodule orbit, monomorphism orbit) pairs, with
    orbits taken under every element of Aut(A), in the order of their first
    members, up to the first pair whose first monomorphism does not extend
    by _extend_mono_oracle.  The list representatives, when given, gets the
    members of the first submodule of each orbit reached."""
    perms = automorphism_group(module).elements
    seen, pairs = set(), 0
    for sub in submodules_enumerate(module):
        members = sub.members
        if len(members) in (1, module.order) or members in seen:
            continue
        seen |= {tuple(sorted(p[x] for x in members)) for p in perms}
        if representatives is not None:
            representatives.append(members)
        reached = set()
        for f in iter_linear_maps(module, module, sub.generators, injective=True):
            if f in reached:
                continue
            reached |= {tuple(p[y] for y in f) for p in perms}
            pairs += 1
            if _extend_mono_oracle(module, members, dict(zip(members, f))) is None:
                return False, pairs
    return True, pairs


def _counted_pseudo_injective(module, monkeypatch, check=modules._pseudo_injective_by_search):
    """(verdict of check, the number of extension searches, i.e. applications
    of a search that _map_search compiled on a nonzero submodule).  Aut(A) is
    built first, so the stabilizer chain's own searches are not counted, and
    neither are Baer's maps from left ideals, which extend the zero map."""
    automorphism_group(module)
    searches = []
    compile_search = modules._map_search

    def counting(src, dst, gens, injective, domain, **options):
        search = compile_search(src, dst, gens, injective, domain, **options)
        if len(domain) == 1:
            return search

        def counted(values):
            searches.append(values)
            return search(values)

        return counted

    monkeypatch.setattr(modules, "_map_search", counting)
    return check(module), len(searches)


@pytest.mark.parametrize(
    "name,builder,expected", PSEUDO_INJECTIVITY_CASES, ids=[c[0] for c in PSEUDO_INJECTIVITY_CASES]
)
def test_pseudo_injectivity_searches_once_per_orbit_pair(name, builder, expected, monkeypatch):
    verdict, pairs = _orbit_pairs_by_brute_force(builder())
    assert verdict is expected
    assert _counted_pseudo_injective(builder(), monkeypatch) == (expected, pairs)


@pytest.mark.parametrize(
    "name,builder,expected", PSEUDO_INJECTIVITY_CASES, ids=[c[0] for c in PSEUDO_INJECTIVITY_CASES]
)
def test_pseudo_injectivity_compiles_one_extension_per_submodule_orbit(
    name, builder, expected, monkeypatch
):
    """The search compiles one extension that need not be injective on the
    first submodule of each orbit it reaches, however many monomorphism
    orbits that submodule has.  The two modules that fail, (Z/2)+(Z/4) and
    Z/4+(Z/2)^2 over Z/4, reach fewer submodule orbits than orbit pairs, so
    one compile per pair would not pass."""
    representatives = []
    verdict, pairs = _orbit_pairs_by_brute_force(builder(), representatives)
    assert verdict is expected
    assert expected or pairs > len(representatives)
    domains = []
    compile_search = modules._map_search

    def spy(src, dst, gens, injective, domain, **options):
        if not injective and len(domain) > 1:
            domains.append(domain)
        return compile_search(src, dst, gens, injective, domain, **options)

    monkeypatch.setattr(modules, "_map_search", spy)
    assert modules._pseudo_injective_by_search(builder()) is expected
    assert domains == representatives


@pytest.mark.parametrize(
    "builder", [z4_regular, z2z2_over_z4, z2z4_over_z4, m23_over_m2f2, _relabelled_klein]
)
def test_a_linear_map_is_rebuilt_from_its_generator_images(builder):
    """is_pseudo_injective keeps each monomorphism as its images of
    S.generators and rebuilds the orbit firsts from them."""
    module = builder()
    for sub in submodules_enumerate(module):
        gens = sub.generators
        at = [sub.members.index(g) for g in gens]
        for f in iter_linear_maps(module, module, gens):
            assert _map_from_images(module, module, gens, [f[p] for p in at]) == f


def test_pseudo_injectivity_of_f2_4_takes_three_searches(monkeypatch):
    """GL(4, 2) is transitive on the subspaces of each dimension and on the
    monomorphisms from each of them, so one search per dimension 1, 2, 3."""
    assert _counted_pseudo_injective(_column(2, 4)(), monkeypatch) == (True, 3)
    assert _counted_pseudo_injective(z2z4_over_z4(), monkeypatch)[0] is False


def test_only_a_module_that_fails_baer_takes_the_search(monkeypatch):
    """F_2^4 is injective, so is_pseudo_injective searches nothing on it;
    (Z/2)^2 over Z/4 is not, and takes the search's one search per orbit
    pair."""
    assert modules._is_injective(_column(2, 4)())
    assert _counted_pseudo_injective(_column(2, 4)(), monkeypatch, is_pseudo_injective) == (True, 0)
    assert not modules._is_injective(z2z2_over_z4())
    verdict, pairs = _orbit_pairs_by_brute_force(z2z2_over_z4())
    assert verdict is True and pairs > 0
    counted = _counted_pseudo_injective(z2z2_over_z4(), monkeypatch, is_pseudo_injective)
    assert counted == (True, pairs)


def test_character_module_of_z4():
    r = z4()
    chars = character_module(r)
    assert chars.order == 4
    assert chars.descriptor["exponent"] == 4
    assert chars.zero == 0
    # self-dual: regular module embeds, so socle is cyclic both ways
    assert embedding_search(z4_regular(), chars) is not None
    assert embedding_search(chars, z4_regular()) is not None


def test_character_module_of_m2f2():
    r = ring_make({"kind": "matrix", "m": 2, "q": 2})
    chars = character_module(r)
    assert chars.order == 16
    assert chars.descriptor["exponent"] == 2
    assert embedding_search(module_make(r, {"kind": "regular"}), chars) is not None


def test_character_action_convention():
    """(r.chi)(x) = chi(x*r): over Z/4 the character x -> x scaled by r=2 has
    values (0, 2, 0, 2)."""
    r = z4()
    chars = character_module(r)
    value_tuples = sorted(
        tuple((c * x) % 4 for x in range(4)) for c in range(4)
    )
    idx = {chi: i for i, chi in enumerate(value_tuples)}
    chi_identity = idx[(0, 1, 2, 3)]
    assert chars.act(2, chi_identity) == idx[(0, 2, 0, 2)]


def _character_tables_by_search(ring):
    """The additive characters by a private backtracker over the additive
    generators: the oracle for character_module's tables."""
    n = ring.order
    m = exponent_of_addition(ring)
    add = ring.add_table

    def additive_order(a):
        order, x = 1, a
        while x != ring.zero:
            x = add[x][a]
            order += 1
        return order

    orders = [additive_order(a) for a in range(n)]

    def additive_span(current, a):
        span, x = set(), ring.zero
        for _ in range(orders[a]):
            span |= {add[s][x] for s in current}
            x = add[x][a]
        return frozenset(span)

    gens, covered = [], frozenset({ring.zero})
    while len(covered) < n:
        best = max(
            (a for a in range(n) if a not in covered),
            key=lambda a: (len(additive_span(covered, a)), -a),
        )
        gens.append(best)
        covered = additive_span(covered, best)

    def extend_additive(base, g, c):
        new, x, v = dict(base), ring.zero, 0
        for _ in range(orders[g]):
            for s, fs in base.items():
                key, val = add[s][x], (fs + v) % m
                if new.setdefault(key, val) != val:
                    return None
            x, v = add[x][g], (v + c) % m
        return new

    characters = []

    def rec(i, current):
        if i == len(gens):
            characters.append(tuple(current[x] for x in range(n)))
            return
        for c in range(m):
            if (orders[gens[i]] * c) % m == 0:
                ext = extend_additive(current, gens[i], c)
                if ext is not None:
                    rec(i + 1, ext)

    rec(0, {ring.zero: 0})
    characters.sort()
    index = {chi: i for i, chi in enumerate(characters)}
    add_t = tuple(
        tuple(index[tuple((x + y) % m for x, y in zip(a, b))] for b in characters)
        for a in characters
    )
    act_t = tuple(
        tuple(index[tuple(chi[ring.mul(x, r)] for x in range(n))] for chi in characters)
        for r in ring.elements()
    )
    return add_t, act_t, index[(0,) * n]


def _field(q):
    return {"kind": "matrix", "m": 1, "q": q}


@pytest.mark.parametrize(
    "descriptor",
    [{"kind": "mod_n", "n": n} for n in range(2, 13)]
    + [_field(q) for q in (2, 3, 4, 8, 16, 64)]
    + [
        {"kind": "matrix", "m": 2, "q": 2},
        {"kind": "product", "factors": [{"kind": "mod_n", "n": 2}, {"kind": "mod_n", "n": 3}]},
        {"kind": "product", "factors": [{"kind": "mod_n", "n": 4}, {"kind": "mod_n", "n": 2}]},
        pytest.param(local_xy_ring().descriptor, id="local-xy"),
    ],
    ids=lambda d: json.dumps(d, sort_keys=True),
)
def test_character_module_matches_the_search_oracle(descriptor):
    ring = ring_make(descriptor)
    chars = character_module(ring)
    assert (chars.add_table, chars.act_table, chars.zero) == _character_tables_by_search(ring)


def test_embedding_search():
    r = z4()
    z2 = module_make(r, {"kind": "mod_m", "m": 2})
    emb = embedding_search(z2, z4_regular())
    assert emb == (0, 2)
    assert embedding_search(z4_regular(), z2) is None
    assert embedding_search(z2z2_over_z4(), character_module(r)) is None


def _m2f2():
    return ring_make({"kind": "matrix", "m": 2, "q": 2})


# name -> (object of order 16, call(object, guards)): F_2^4, and M_2(F_2) for
# the two cached on the ring
CACHED_UNDER_GUARDS = {
    "automorphism_group": (_column(2, 4), automorphism_group),
    "submodules_enumerate": (_column(2, 4), submodules_enumerate),
    "partition orbit": (_column(2, 4), lambda m, guards: partition(m, "orbit", guards)),
    "is_pseudo_injective": (_column(2, 4), is_pseudo_injective),
    "socle": (_column(2, 4), socle),
    "socle_report": (_column(2, 4), socle_report),
    "simple_classes": (_m2f2, simple_classes),
    "character_module": (_m2f2, character_module),
}


@pytest.mark.parametrize("name", sorted(CACHED_UNDER_GUARDS))
def test_a_cache_hit_raises_the_guard_a_fresh_call_raises(name):
    """A result cached under looser guards is not returned under tighter
    ones: the call raises the GuardExceeded of a fresh call, message
    included."""
    build, call = CACHED_UNDER_GUARDS[name]
    tight = Guards(max_order=8)
    with pytest.raises(GuardExceeded) as fresh:
        call(build(), tight)
    assert str(fresh.value) in (
        "module order 16 (16) exceeds guard (8)", "ring order 16 (16) exceeds guard (8)"
    )
    cached = build()
    call(cached, Guards())
    with pytest.raises(GuardExceeded) as hit:
        call(cached, tight)
    assert str(hit.value) == str(fresh.value)


def test_socle_guard():
    with pytest.raises(GuardExceeded):
        module_make(
            z4(), {"kind": "direct_sum", "summands": [{"kind": "mod_m", "m": 4}] * 4}
        )
