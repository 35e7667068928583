"""Ring layer: frozen oracles for radicals, ideal lattices, simple modules."""

import itertools
import math

import pytest

from eplab.errors import (
    GuardExceeded,
    Guards,
    InputError,
    InternalConsistencyError,
    NotPrincipalError,
    UnsupportedConstruction,
)
from eplab.fields import mixed_radix_join, mixed_radix_split
from eplab.modules import _validate_module_tables, character_module
from eplab.rings import (
    Module,
    Submodule,
    annihilator_sets,
    block_projections,
    exact_exponent,
    exponent_of_addition,
    hom_count,
    is_left_ideal,
    is_left_pir,
    is_right_pir,
    jacobson_radical,
    minimal_submodules,
    opposite_ring,
    principal_generator,
    ring_make,
    ring_quotient,
    simple_classes,
    submodule_generated,
    submodules_enumerate,
    units,
)


def mod_ring(n):
    return ring_make({"kind": "mod_n", "n": n})


def matrix_ring(m, q):
    return ring_make({"kind": "matrix", "m": m, "q": q})


def local_xy_ring():
    """F_2[x,y]/(x,y)^2: elements a + bx + cy encoded as a*4 + b*2 + c.

    Its maximal ideal (x, y) needs two generators, so this ring is not a
    principal-ideal ring.
    """
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


def upper_triangular_ring():
    """2x2 upper triangular matrices over F_2 as a table ring."""
    els = [(a, b, d) for a in range(2) for b in range(2) for d in range(2)]
    index = {e: i for i, e in enumerate(els)}
    add = [
        [index[((a1 + a2) % 2, (b1 + b2) % 2, (d1 + d2) % 2)] for (a2, b2, d2) in els]
        for (a1, b1, d1) in els
    ]
    mul = [
        [index[((a1 * a2) % 2, (a1 * b2 + b1 * d2) % 2, (d1 * d2) % 2)] for (a2, b2, d2) in els]
        for (a1, b1, d1) in els
    ]
    return ring_make({"kind": "table", "add": add, "mul": mul})


def radical_oracle(ring):
    """Independent method: intersect the maximal left ideals."""
    ideals = submodules_enumerate(ring)
    proper = [set(i.members) for i in ideals if len(i.members) < ring.order]
    maximal = [
        i for i in proper if not any(i < j for j in proper)
    ]
    out = set(range(ring.order))
    for m in maximal:
        out &= m
    return tuple(sorted(out))


def test_mod6_frozen_lattice():
    r = mod_ring(6)
    assert units(r) == frozenset({1, 5})
    assert jacobson_radical(r).members == (0,)
    ideals = [i.members for i in submodules_enumerate(r)]
    assert ideals == [(0,), (0, 3), (0, 2, 4), (0, 1, 2, 3, 4, 5)]
    assert is_left_pir(r)
    assert is_right_pir(r)
    assert principal_generator(r, submodules_enumerate(r)[2]) == 2
    assert principal_generator(r, submodules_enumerate(r)[1]) == 3


def test_mod4_frozen():
    r = mod_ring(4)
    assert jacobson_radical(r).members == (0, 2)
    assert [i.members for i in submodules_enumerate(r)] == [(0,), (0, 2), (0, 1, 2, 3)]
    assert is_left_pir(r)
    quotient, proj = ring_quotient(r, jacobson_radical(r))
    assert quotient.order == 2
    assert proj == (0, 1, 0, 1)


def test_matrix_ring_m2f2_frozen():
    r = matrix_ring(2, 2)
    assert r.order == 16
    assert len(units(r)) == 6
    assert jacobson_radical(r).members == (0,)
    ideals = submodules_enumerate(r)
    assert len(ideals) == 5
    assert sorted(len(i.members) for i in ideals) == [1, 4, 4, 4, 16]
    minimals = minimal_submodules(r)
    assert len(minimals) == 3
    assert all(len(m.members) == 4 for m in minimals)
    assert is_left_pir(r)
    assert is_right_pir(r)
    # right ideal lattice has the same shape by column symmetry
    right_ideals = submodules_enumerate(opposite_ring(r))
    assert sorted(len(i.members) for i in right_ideals) == [1, 4, 4, 4, 16]


def test_matrix_ring_identity_encoding():
    r = matrix_ring(2, 2)
    # identity matrix (1,0,0,1) row-major base 2, first entry most significant
    assert r.one == 0b1001
    assert r.zero == 0


def test_product_ring_structure():
    r = ring_make({"kind": "product", "factors": [{"kind": "mod_n", "n": 2}, {"kind": "mod_n", "n": 3}]})
    assert r.order == 6
    assert r.one == 1 * 3 + 1
    # (1,2) + (1,1) = (0,0)
    assert r.add(5, 4) == 0
    assert [(t.mu, t.q) for t in simple_classes(r)] == [(1, 2), (1, 3)]
    assert is_left_pir(r)


def _product_oracle(factors):
    """Product tables as an earlier builder made them: split each index into
    mixed-radix digits, apply each factor, and join the results."""
    orders = [f.order for f in factors]
    parts = [mixed_radix_split(i, orders) for i in range(math.prod(orders))]

    def table(op):
        return tuple(
            tuple(
                mixed_radix_join([op(f, x, y) for f, x, y in zip(factors, a, b)], orders)
                for b in parts
            )
            for a in parts
        )

    return table(lambda f, x, y: f.add(x, y)), table(lambda f, x, y: f.mul(x, y))


@pytest.mark.parametrize(
    "descs",
    [
        [{"kind": "mod_n", "n": 2}, {"kind": "mod_n", "n": 3}, {"kind": "mod_n", "n": 2}],
        [{"kind": "mod_n", "n": 4}, {"kind": "mod_n", "n": 2}, {"kind": "mod_n", "n": 2}],
        [{"kind": "matrix", "m": 1, "q": 4}, {"kind": "mod_n", "n": 2}, {"kind": "mod_n", "n": 3}],
        [{"kind": "matrix", "m": 2, "q": 2}, {"kind": "mod_n", "n": 2}, {"kind": "mod_n", "n": 2}],
        [{"kind": "mod_n", "n": 2}, upper_triangular_ring().descriptor, {"kind": "mod_n", "n": 3}],
        [
            {"kind": "product", "factors": [{"kind": "mod_n", "n": 3}, {"kind": "mod_n", "n": 2}]},
            {"kind": "mod_n", "n": 1},
            {"kind": "matrix", "m": 1, "q": 5},
        ],
    ],
    ids=["z2-z3-z2", "z4-z2-z2", "f4-z2-z3", "m2f2-z2-z2", "z2-upper-z3", "nested-z1-f5"],
)
def test_product_tables_match_the_mixed_radix_oracle(descs):
    ring = ring_make({"kind": "product", "factors": descs})
    assert (ring.add_table, ring.mul_table) == _product_oracle([ring_make(d) for d in descs])


@pytest.mark.parametrize(
    "builder,expected",
    [
        (lambda: mod_ring(4), ((1, 2),)),
        (lambda: mod_ring(6), ((1, 2), (1, 3))),
        (lambda: mod_ring(12), ((1, 2), (1, 3))),
        (lambda: matrix_ring(2, 2), ((2, 2),)),
        (lambda: matrix_ring(1, 4), ((1, 4),)),
        (local_xy_ring, ((1, 2),)),
        (upper_triangular_ring, ((1, 2), (1, 2))),
    ],
)
def test_wedderburn_blocks_frozen(builder, expected):
    assert tuple((t.mu, t.q) for t in simple_classes(builder())) == expected


def test_exact_exponent():
    assert [exact_exponent(count, 2) for count in (1, 2, 8)] == [0, 1, 3]
    assert exact_exponent(16, 4) == 2
    for count, q in ((6, 2), (8, 4), (0, 3)):
        with pytest.raises(InternalConsistencyError):
            exact_exponent(count, q)


RADICAL_BUILDERS = [
    lambda: mod_ring(4),
    lambda: mod_ring(6),
    lambda: mod_ring(8),
    lambda: mod_ring(12),
    lambda: matrix_ring(2, 2),
    local_xy_ring,
    upper_triangular_ring,
]


@pytest.mark.parametrize("builder", RADICAL_BUILDERS)
def test_radical_matches_maximal_ideal_oracle(builder):
    r = builder()
    assert jacobson_radical(r).members == radical_oracle(r)


@pytest.mark.parametrize("builder", RADICAL_BUILDERS)
def test_radical_matches_the_quasi_regular_definition(builder):
    """rad(R) = {r : 1 - s*r is a unit for every s}, read literally: -x off
    the addition table and the units by a search for two-sided inverses."""
    r = builder()
    neg = [row.index(r.zero) for row in r.add_table]
    units = {
        u for u in r.elements() if any(r.mul(u, v) == r.one == r.mul(v, u) for v in r.elements())
    }
    literal = tuple(
        x for x in r.elements() if all(r.add(r.one, neg[r.mul(s, x)]) in units for s in r.elements())
    )
    assert jacobson_radical(r).members == literal


@pytest.mark.parametrize(
    "builder",
    [lambda: mod_ring(8), lambda: mod_ring(9), local_xy_ring, upper_triangular_ring],
)
def test_radical_is_nilpotent_two_sided(builder):
    r = builder()
    rad = set(jacobson_radical(r).members)
    assert is_left_ideal(r, rad)
    assert all(r.mul(a, s) in rad for a in rad for s in r.elements())
    power = rad
    for _ in range(r.order):
        if power == {r.zero}:
            break
        power = {r.mul(a, b) for a in power for b in rad} | {r.zero}
        power = set(submodule_generated(r, sorted(power)).members)
    assert power == {r.zero}
    quotient, _ = ring_quotient(r, jacobson_radical(r))
    assert jacobson_radical(quotient).members == (quotient.zero,)


def test_ideal_lattice_closure_properties():
    for builder in (lambda: mod_ring(12), local_xy_ring, upper_triangular_ring):
        r = builder()
        ideals = submodules_enumerate(r)
        mem = {i.members for i in ideals}
        assert all(is_left_ideal(r, i.members) for i in ideals)
        for a in ideals:
            for b in ideals:
                s = submodule_generated(r, sorted(set(a.members) | set(b.members)))
                inter = tuple(sorted(set(a.members) & set(b.members)))
                assert s.members in mem
                assert inter in mem


def test_local_xy_ring_is_not_pir():
    r = local_xy_ring()
    assert jacobson_radical(r).members == (0, 1, 2, 3)
    assert not is_left_pir(r)
    assert not is_right_pir(r)
    bad = submodule_generated(r, [1, 2])
    assert bad.members == (0, 1, 2, 3)
    with pytest.raises(NotPrincipalError):
        principal_generator(r, bad)


def test_principal_ideals_and_generators():
    r = mod_ring(6)
    assert submodule_generated(r, [2]).members == (0, 2, 4)
    assert submodule_generated(r, [5]).members == (0, 1, 2, 3, 4, 5)
    assert submodule_generated(r, [2, 3]).members == (0, 1, 2, 3, 4, 5)
    r16 = matrix_ring(2, 2)
    for ideal in minimal_submodules(r16):
        g = principal_generator(r16, ideal)
        assert submodule_generated(r16, [g]).members == ideal.members
        assert g == min(x for x in ideal.members if x != 0)


def test_quotient_of_mod12_by_four_multiples():
    r = mod_ring(12)
    ideal = submodule_generated(r, [4])
    assert ideal.members == (0, 4, 8)
    quotient, proj = ring_quotient(r, ideal)
    expected = mod_ring(4)
    assert quotient.add_table == expected.add_table
    assert quotient.mul_table == expected.mul_table
    assert proj == (0, 1, 2, 3) * 3


def test_quotient_requires_two_sided_ideal():
    r = matrix_ring(2, 2)
    ideal = minimal_submodules(r)[0]
    with pytest.raises(InputError):
        ring_quotient(r, ideal)


def test_block_projections_structured():
    r6 = mod_ring(6)
    bps = block_projections(r6)
    assert [(b.mu, b.q) for b in bps] == [(1, 2), (1, 3)]
    assert bps[0].proj == tuple(x % 2 for x in range(6))
    assert bps[1].proj == tuple(x % 3 for x in range(6))

    rm = matrix_ring(2, 2)
    (bp,) = block_projections(rm)
    assert (bp.mu, bp.q) == (2, 2)
    assert bp.proj == tuple(range(16))

    rp = ring_make(
        {"kind": "product", "factors": [{"kind": "mod_n", "n": 3}, {"kind": "mod_n", "n": 2}]}
    )
    bps = block_projections(rp)
    assert [(b.mu, b.q) for b in bps] == [(1, 2), (1, 3)]
    # leftmost factor is most significant: index = a*2 + b for (a mod 3, b mod 2)
    assert bps[0].proj == tuple(i % 2 for i in range(6))
    assert bps[1].proj == tuple(i // 2 for i in range(6))

    with pytest.raises(UnsupportedConstruction):
        block_projections(local_xy_ring())


def test_block_projection_is_ring_map():
    """Every projection is a surjective unital ring homomorphism onto its
    block M_mu(F_q)."""
    z2, z3 = {"kind": "mod_n", "n": 2}, {"kind": "mod_n", "n": 3}
    m2f2 = {"kind": "matrix", "m": 2, "q": 2}
    for desc in (
        {"kind": "mod_n", "n": 12},
        m2f2,
        {"kind": "matrix", "m": 1, "q": 4},
        {"kind": "product", "factors": [z2, z2]},
        {"kind": "product", "factors": [m2f2, z2]},
        {"kind": "product", "factors": [{"kind": "product", "factors": [z3, z2]}, {"kind": "mod_n", "n": 4}]},
    ):
        r = ring_make(desc)
        for bp in block_projections(r):
            block = ring_make({"kind": "matrix", "m": bp.mu, "q": bp.q})
            p = bp.proj
            assert sorted(set(p)) == list(block.elements())
            assert p[r.one] == block.one
            assert p[r.zero] == block.zero
            for a in r.elements():
                for b in r.elements():
                    assert p[r.add(a, b)] == block.add(p[a], p[b])
                    assert p[r.mul(a, b)] == block.mul(p[a], p[b])


def test_opposite_ring_involution():
    r = upper_triangular_ring()
    op = opposite_ring(r)
    assert op.mul(1, 2) == r.mul(2, 1)
    assert units(op) == units(r)


def test_exponent_of_addition():
    assert exponent_of_addition(mod_ring(4)) == 4
    assert exponent_of_addition(mod_ring(6)) == 6
    assert exponent_of_addition(matrix_ring(2, 2)) == 2


def test_table_validation_rejects_bad_input(broken_additions):
    for message, add in broken_additions:
        mul = [[0] * len(add) for _ in add]
        with pytest.raises(InputError, match=f"ring addition table.*{message}"):
            ring_make({"kind": "table", "add": add, "mul": mul})
    with pytest.raises(InputError):
        ring_make({"kind": "table", "add": [[0, 1], [1, 0]], "mul": [[0, 0], [0, 0]]})
    with pytest.raises(InputError):
        ring_make({"kind": "table", "add": [[1, 0], [0, 1]], "mul": [[0, 0], [0, 1]]})
    with pytest.raises(InputError):
        ring_make({"kind": "mod_n"})
    with pytest.raises(InputError):
        ring_make({"kind": "mystery"})


@pytest.mark.parametrize(
    "add",
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
def test_malformed_table_ring_is_input_error(add):
    with pytest.raises(InputError):
        ring_make({"kind": "table", "add": add, "mul": [[0, 0], [0, 1]]})
    with pytest.raises(InputError):
        ring_make({"kind": "table", "add": [[0, 1], [1, 0]], "mul": add})


def test_guards_on_construction():
    with pytest.raises(GuardExceeded):
        ring_make({"kind": "mod_n", "n": 100})
    with pytest.raises(GuardExceeded):
        ring_make({"kind": "matrix", "m": 2, "q": 3})
    with pytest.raises(GuardExceeded):
        ring_make(
            {"kind": "product", "factors": [{"kind": "mod_n", "n": 9}, {"kind": "mod_n", "n": 9}]}
        )


# ---------------------------------------------------------------------------
# an oracle for left ideals computed on the ring side, from the principal
# ideals Rg and sums of additive subgroups, against the module code run on
# the ring acting on itself


def _oracle_principal(ring, g):
    return tuple(sorted({ring.mul(r, g) for r in ring.elements()}))


def _oracle_sum(ring, a, b):
    return frozenset(ring.add(x, y) for x in a for y in b)


def _oracle_generated(ring, gens):
    members = frozenset({ring.zero})
    for g in gens:
        members = _oracle_sum(ring, members, _oracle_principal(ring, g))
    return tuple(sorted(members))


def _oracle_left_ideals(ring):
    ideals = {frozenset(_oracle_principal(ring, g)) for g in ring.elements()}
    work = list(ideals)
    while work:
        current = work.pop()
        for other in list(ideals):
            s = _oracle_sum(ring, current, other)
            if s not in ideals:
                ideals.add(s)
                work.append(s)
    return sorted((tuple(sorted(i)) for i in ideals), key=lambda t: (len(t), t))


def _oracle_minimal_left_ideals(ring):
    principals = {_oracle_principal(ring, g) for g in ring.elements()}
    out = [
        members
        for members in principals
        if len(members) > 1
        and all(_oracle_principal(ring, x) == members for x in members if x != ring.zero)
    ]
    return sorted(out, key=lambda t: (len(t), t))


def _oracle_annihilator(ring, x):
    return frozenset(r for r in ring.elements() if ring.mul(r, x) == ring.zero)


ORACLE_RINGS = {
    **{f"z{n}": (lambda n=n: mod_ring(n)) for n in range(2, 13)},
    "m2f2": lambda: matrix_ring(2, 2),
    "z4xz2": lambda: ring_make(
        {"kind": "product", "factors": [{"kind": "mod_n", "n": 4}, {"kind": "mod_n", "n": 2}]}
    ),
    "z2xz3": lambda: ring_make(
        {"kind": "product", "factors": [{"kind": "mod_n", "n": 2}, {"kind": "mod_n", "n": 3}]}
    ),
    "f4": lambda: matrix_ring(1, 4),
    "f8": lambda: matrix_ring(1, 8),
    "local-xy": local_xy_ring,
}


@pytest.mark.parametrize("opposite", [False, True], ids=["ring", "opposite"])
@pytest.mark.parametrize("name", sorted(ORACLE_RINGS))
def test_module_lattice_matches_the_ring_side_oracle(name, opposite):
    r = ORACLE_RINGS[name]()
    if opposite:
        r = opposite_ring(r)
    assert [i.members for i in submodules_enumerate(r)] == _oracle_left_ideals(r)
    assert [i.members for i in minimal_submodules(r)] == _oracle_minimal_left_ideals(r)
    anns = annihilator_sets(r)
    for x in r.elements():
        assert submodule_generated(r, [x]).members == _oracle_principal(r, x)
        assert anns[x] == _oracle_annihilator(r, x)
    for gens in itertools.combinations(r.elements(), 2):
        assert submodule_generated(r, gens).members == _oracle_generated(r, gens)


@pytest.mark.parametrize("opposite", [False, True], ids=["ring", "opposite"])
@pytest.mark.parametrize("name", sorted(ORACLE_RINGS))
def test_left_pir_matches_the_principal_set_rule(name, opposite):
    """One generator per left ideal from the walk, against: every left
    ideal of the oracle lattice is Rg for some g."""
    r = ORACLE_RINGS[name]()
    if opposite:
        r = opposite_ring(r)
    principals = {_oracle_principal(r, g) for g in r.elements()}
    expected = all(members in principals for members in _oracle_left_ideals(r))
    assert is_left_pir(r) is expected
    assert expected is (name != "local-xy")


# ---------------------------------------------------------------------------
# the former closure-based bodies of minimal_submodules and
# principal_generator, which closed every element from scratch: the oracles
# for the lookups into the lattice walk


def _closure_minimal_submodules(module):
    zero = module.zero
    cyclic = {}
    for a in range(module.order):
        if a == zero:
            continue
        sub = submodule_generated(module, [a])
        if len(sub) > 1:
            cyclic.setdefault(sub.members, sub)
    out = []
    for members, sub in cyclic.items():
        target = set(members)
        if all(
            set(submodule_generated(module, [x]).members) == target
            for x in members
            if x != zero
        ):
            out.append(sub)
    out.sort(key=lambda s: (len(s.members), s.members))
    return tuple(out)


def _closure_principal_generator(ring, ideal):
    target = set(ideal.members)
    for g in ideal.members:
        if set(submodule_generated(ring, [g]).members) == target:
            return g
    raise NotPrincipalError(f"ideal {list(ideal.members)} is not a principal left ideal")


def _generator_or_error(find, ring, ideal):
    try:
        return find(ring, ideal)
    except NotPrincipalError:
        return NotPrincipalError


@pytest.mark.parametrize("opposite", [False, True], ids=["ring", "opposite"])
@pytest.mark.parametrize("name", sorted(ORACLE_RINGS))
def test_walk_lookups_match_the_closure_oracles(name, opposite):
    """Minimal left ideals, and the least generator of every left ideal or
    NotPrincipalError, exactly as the closure-based bodies give them."""
    r = ORACLE_RINGS[name]()
    if opposite:
        r = opposite_ring(r)
    assert minimal_submodules(r) == _closure_minimal_submodules(r)
    verdicts = set()
    for members in _oracle_left_ideals(r):
        ideal = Submodule(members)
        expected = _generator_or_error(_closure_principal_generator, r, ideal)
        assert _generator_or_error(principal_generator, r, ideal) == expected
        verdicts.add(expected is NotPrincipalError)
    assert verdicts == ({False, True} if name == "local-xy" else {False})


# ---------------------------------------------------------------------------
# the former bodies of wedderburn_data and simple_catalog, which built every
# simple as a table module over R pulled back from R/rad(R) and counted homs
# out of it: the oracles for the annihilator catalogue simple_classes


def _pullback_hom_count(simple, target):
    t0 = next(a for a in simple.elements() if a != simple.zero)
    ann_t0 = annihilator_sets(simple)[t0]
    anns = annihilator_sets(target)
    return sum(1 for a in target.elements() if ann_t0 <= anns[a])


def _pullback_simple_catalog(ring):
    """(q, mu, T) per class of simples, T a table module over R, sorted by
    (q, mu, |T|)."""
    rbar, proj = ring_quotient(ring, jacobson_radical(ring))

    def pullback(members):
        pos = {x: i for i, x in enumerate(members)}
        add = tuple(tuple(pos[rbar.add(x, y)] for y in members) for x in members)
        act = tuple(tuple(pos[rbar.mul(proj[r], x)] for x in members) for r in ring.elements())
        return Module(ring, add, act, pos[rbar.zero], {"kind": "simple"})

    regular_bar = Module(
        ring, rbar.add_table,
        tuple(tuple(rbar.mul(proj[r], x) for x in rbar.elements()) for r in ring.elements()),
        rbar.zero, {"kind": "semisimple_quotient"},
    )
    entries = []
    for ideal in minimal_submodules(rbar):
        t_mod = pullback(ideal.members)
        if any(_pullback_hom_count(t_mod, prev) > 1 for _, _, prev in entries):
            continue
        q = _pullback_hom_count(t_mod, t_mod)
        entries.append((q, exact_exponent(_pullback_hom_count(t_mod, regular_bar), q), t_mod))
    entries.sort(key=lambda e: (e[0], e[1], e[2].order))
    return entries


def _wedderburn_blocks(ring):
    """(mu, q) per block of R/rad(R), sorted by (q, mu), from the minimal
    left ideals of the quotient."""
    rbar, _ = ring_quotient(ring, jacobson_radical(ring))
    ann = annihilator_sets(rbar)
    blocks, seen_reps = [], []
    for ideal in minimal_submodules(rbar):
        x0 = next(x for x in ideal.members if x != rbar.zero)
        if any(
            any(ann[rx] <= ann[y] for y in ideal.members if y != rbar.zero)
            for rx in seen_reps
        ):
            continue
        seen_reps.append(x0)
        q = sum(1 for y in ideal.members if ann[x0] <= ann[y])
        homs = sum(1 for y in rbar.elements() if ann[x0] <= ann[y])
        blocks.append((exact_exponent(homs, q), q))
    blocks.sort(key=lambda b: (b[1], b[0]))
    return tuple(blocks)


SIMPLE_ORACLE_RINGS = {
    **ORACLE_RINGS,
    # two simples of one shape (q, mu) = (2, 1), where the order of the
    # catalogue among equal shapes shows
    "upper-triangular": upper_triangular_ring,
    "f2xf2": lambda: ring_make(
        {"kind": "product", "factors": [{"kind": "mod_n", "n": 2}, {"kind": "mod_n", "n": 2}]}
    ),
    "m2f2xf2": lambda: ring_make(
        {"kind": "product", "factors": [{"kind": "matrix", "m": 2, "q": 2}, {"kind": "mod_n", "n": 2}]}
    ),
}


@pytest.mark.parametrize("opposite", [False, True], ids=["ring", "opposite"])
@pytest.mark.parametrize("name", sorted(SIMPLE_ORACLE_RINGS))
def test_simple_classes_match_the_pullback_oracles(name, opposite):
    """The same (q, mu, |T|) list in the same order as the pulled-back table
    modules, the same blocks as the Wedderburn pass, and the same hom counts
    into the regular module, the character module and every pulled simple."""
    r = SIMPLE_ORACLE_RINGS[name]()
    if opposite:
        r = opposite_ring(r)
    simples = simple_classes(r)
    catalog = _pullback_simple_catalog(r)
    assert [(t.q, t.mu, t.order) for t in simples] == [(q, mu, t.order) for q, mu, t in catalog]
    assert tuple((t.mu, t.q) for t in simples) == _wedderburn_blocks(r)
    targets = [r, character_module(r), *(t for _, _, t in catalog)]
    for t, (_, _, t_mod) in zip(simples, catalog):
        assert [hom_count(t, m) for m in targets] == [_pullback_hom_count(t_mod, m) for m in targets]


@pytest.mark.parametrize("opposite", [False, True], ids=["ring", "opposite"])
@pytest.mark.parametrize("name", sorted(SIMPLE_ORACLE_RINGS))
def test_character_module_meets_the_module_axioms(name, opposite):
    """character_module builds its tables without checking them; the full
    axiom check runs here, and the zero character is index 0."""
    r = SIMPLE_ORACLE_RINGS[name]()
    if opposite:
        r = opposite_ring(r)
    chars = character_module(r)
    assert chars.order == r.order
    assert _validate_module_tables(r, chars.add_table, chars.act_table) == chars.zero == 0
