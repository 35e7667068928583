"""Module layer: socles, simple catalogs, automorphisms, partitions."""

import json

import pytest

from eplab.errors import GuardExceeded, InputError
from eplab.modules import (
    AutGroup,
    annihilator,
    automorphism_group,
    character_module,
    embedding_search,
    embeds_into,
    extend_mono,
    hom_count_from_simple,
    is_module_automorphism,
    is_pseudo_injective,
    is_submodule,
    iter_monos_from_submodule,
    minimal_submodules,
    module_generators,
    module_make,
    partition,
    simple_catalog,
    socle,
    socle_report,
    submodule_generated,
    submodules_enumerate,
)
from eplab.rings import exponent_of_addition, ring_make


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


def test_table_module_validation():
    r = mod_ring(2)
    good = module_make(
        r, {"kind": "table", "add": [[0, 1], [1, 0]], "act": [[0, 0], [0, 1]]}
    )
    assert good.order == 2
    with pytest.raises(InputError):
        module_make(r, {"kind": "table", "add": [[0, 1], [1, 0]], "act": [[0, 0], [0, 0]]})
    with pytest.raises(InputError):
        module_make(r, {"kind": "table", "add": [[0, 1], [0, 1]], "act": [[0, 0], [0, 1]]})


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
    assert all(is_submodule(a, s.members) for s in subs)


def test_submodules_of_column_module_match_subspace_count():
    # submodules of M_{2x3}(F_2) over M_2(F_2) correspond to row-space
    # constraints, one per subspace of F_2^3: 1 + 7 + 7 + 1 = 16
    a = m23_over_m2f2()
    assert len(submodules_enumerate(a)) == 16


def test_annihilators_frozen():
    a = z2z4_over_z4()
    assert annihilator(a, 0).members == (0, 1, 2, 3)
    assert annihilator(a, 4).members == (0, 2)
    assert annihilator(a, 1).members == (0,)
    assert annihilator(a, 2).members == (0, 2)


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
    cat = simple_catalog(z4())
    assert len(cat.entries) == 1
    entry = cat.entries[0]
    assert (entry.endo_order, entry.multiplicity, entry.module.order) == (2, 1, 2)

    cat6 = simple_catalog(mod_ring(6))
    assert [(e.endo_order, e.multiplicity, e.module.order) for e in cat6.entries] == [
        (2, 1, 2),
        (3, 1, 3),
    ]

    catm = simple_catalog(ring_make({"kind": "matrix", "m": 2, "q": 2}))
    assert [(e.endo_order, e.multiplicity, e.module.order) for e in catm.entries] == [
        (2, 2, 4)
    ]


def test_hom_counts_from_simple():
    r = z4()
    t = simple_catalog(r).entries[0].module
    assert hom_count_from_simple(t, z4_regular()) == 2
    assert hom_count_from_simple(t, z2z2_over_z4()) == 4
    assert hom_count_from_simple(t, z2z4_over_z4()) == 4


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


def test_automorphism_group_is_a_group():
    a = z2z4_over_z4()
    g = automorphism_group(a)
    ident = tuple(a.elements())
    assert ident in g.index
    for p in g.elements:
        assert is_module_automorphism(a, p)
        assert g.inverse(p) in g.index
        for q in g.elements:
            assert AutGroup.compose(p, q) in g.index


@pytest.mark.parametrize("builder", [z4_regular, z2z2_over_z4, z2z4_over_z4, m23_over_m2f2])
def test_automorphism_group_generators_generate_it(builder):
    g = automorphism_group(builder())
    assert all(p in g.index for p in g.generators)
    assert 2 ** len(g.generators) <= g.order
    reached = {tuple(g.module.elements())}
    frontier = list(reached)
    while frontier:
        x = frontier.pop()
        for p in g.generators:
            y = AutGroup.compose(x, p)
            if y not in reached:
                reached.add(y)
                frontier.append(y)
    assert reached == set(g.elements)


def test_partition_frozen_z2z4():
    a = z2z4_over_z4()
    orbits = partition(a, "orbit")
    assert orbits.labels == (0, 1, 2, 1, 4, 1, 4, 1)
    ann = partition(a, "annihilator")
    assert ann.labels == (0, 1, 2, 1, 2, 1, 2, 1)
    # orbit classes refine annihilator classes, strictly here
    assert orbits.labels != ann.labels
    assert orbits.classes()[2] == (2,)
    assert ann.classes()[2] == (2, 4, 6)


def test_partition_refinement_property():
    for builder in (z4_regular, z2z2_over_z4, z2z4_over_z4, m23_over_m2f2):
        a = builder()
        orbits = partition(a, "orbit")
        ann = partition(a, "annihilator")
        for members in orbits.classes().values():
            assert len({ann.labels[x] for x in members}) == 1


def test_partition_equal_when_pseudo_injective():
    for builder in (z4_regular, z2z2_over_z4, m23_over_m2f2):
        a = builder()
        assert is_pseudo_injective(a)
        assert partition(a, "orbit").labels == partition(a, "annihilator").labels


def test_partition_with_explicit_generators():
    with pytest.raises(InputError):
        partition(z2z2_over_z4(), "weight")


def test_pseudo_injectivity_frozen():
    assert is_pseudo_injective(z4_regular())
    assert is_pseudo_injective(z2z2_over_z4())
    assert not is_pseudo_injective(z2z4_over_z4())


def test_failing_mono_in_z2z4():
    """(0,2) -> (1,0) embeds the order-2 submodule {0, 2} but cannot extend:
    any endomorphism sends 2A = {0, 2} into itself."""
    a = z2z4_over_z4()
    assert extend_mono(a, (0, 2), {0: 0, 2: 4}) is None
    assert extend_mono(a, (0, 4), {0: 0, 4: 6}) is not None
    ext = extend_mono(a, (0, 4), {0: 0, 4: 6})
    assert ext[4] == 6
    assert is_module_automorphism(a, ext) or all(
        ext[a.add(x, y)] == a.add(ext[x], ext[y]) for x in a.elements() for y in a.elements()
    )


def test_extend_mono_validates_input():
    a = z2z4_over_z4()
    with pytest.raises(InputError):
        extend_mono(a, (0, 2), {0: 0, 2: 2, 4: 4})
    with pytest.raises(InputError):
        extend_mono(a, (0, 2), {0: 0, 2: 0})
    with pytest.raises(InputError):
        extend_mono(a, (0, 4), {0: 0, 4: 1})


def test_iter_monos_matches_annihilator_filter():
    a = z2z4_over_z4()
    monos = list(iter_monos_from_submodule(a, (0, 2)))
    # 2 = (0,2) can map to any element with annihilator {0,2}: 2, 4, 6
    assert sorted(f[2] for f in monos) == [2, 4, 6]


def test_character_module_of_z4():
    r = z4()
    chars = character_module(r)
    assert chars.order == 4
    assert chars.descriptor["exponent"] == 4
    assert chars.zero == 0
    # self-dual: regular module embeds, so socle is cyclic both ways
    assert embeds_into(z4_regular(), chars)
    assert embeds_into(chars, z4_regular())


def test_character_module_of_m2f2():
    r = ring_make({"kind": "matrix", "m": 2, "q": 2})
    chars = character_module(r)
    assert chars.order == 16
    assert chars.descriptor["exponent"] == 2
    assert embeds_into(module_make(r, {"kind": "regular"}), chars)


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
    + [_field(q) for q in (2, 3, 4, 8)]
    + [
        {"kind": "matrix", "m": 2, "q": 2},
        {"kind": "product", "factors": [{"kind": "mod_n", "n": 2}, {"kind": "mod_n", "n": 3}]},
        {"kind": "product", "factors": [{"kind": "mod_n", "n": 4}, {"kind": "mod_n", "n": 2}]},
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
    assert not embeds_into(z2z2_over_z4(), character_module(r))


def test_socle_guard():
    with pytest.raises(GuardExceeded):
        module_make(
            z4(), {"kind": "direct_sum", "summands": [{"kind": "mod_m", "m": 4}] * 4}
        )
