"""Finite left modules over table rings, with socle and symmetry machinery.

A Module (rings.Module; a Ring is its own regular module) stores a full
addition table, a full action table act[r][a], and a descriptor.  Supported
constructions over a ring R:

    {"kind": "regular"}                          # R as a left module
    {"kind": "column", "k": 3}                   # M_{m x k}(F_q) over a matrix ring
    {"kind": "mod_m", "m": 2}                    # Z_m over a mod-n ring, m | n
    {"kind": "direct_sum", "summands": [...]}
    {"kind": "table", "add": [[...]], "act": [[...]]}

Column modules encode a matrix row-major in base q, top-left entry most
significant; direct sums use mixed radix, leftmost summand most significant.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Iterable, Optional, Sequence

from .errors import (
    DEFAULT_GUARDS,
    Guards,
    InputError,
    InternalConsistencyError,
    check_guard,
    check_power_guard,
)
from .fields import matrix_tables, mixed_radix_join, product_map, product_table
from .rings import (
    Module,
    Ring,
    Submodule,
    _validate_module_tables,
    annihilator_sets,
    exact_exponent,
    exponent_of_addition,
    hom_count,
    jacobson_radical,
    lattice_walk,
    minimal_submodules,
    ring_make,
    simple_classes,
    span_step,
    submodule_generated,
    submodules_enumerate,
)


def _module_regular(ring: Ring) -> Module:
    return Module(ring, ring.add_table, ring.mul_table, ring.zero, {"kind": "regular"})


def _module_column(ring: Ring, k: int, guards: Guards) -> Module:
    desc = ring.descriptor
    if desc.get("kind") != "matrix":
        raise InputError("column modules require a matrix ring")
    if k < 1:
        raise InputError(f"column count must be positive, got {k}")
    m, q = desc["m"], desc["q"]
    check_power_guard(q, m * k, guards.max_order, f"module order {q}^({m}*{k})")
    add, act = matrix_tables(ring.field, m, k)
    return Module(ring, add, act, 0, {"kind": "column", "k": k})


def _module_mod_m(ring: Ring, m: int) -> Module:
    desc = ring.descriptor
    if desc.get("kind") != "mod_n":
        raise InputError("mod_m modules require a mod_n ring")
    n = desc["n"]
    if m < 1 or n % m != 0:
        raise InputError(f"mod_m module needs m dividing n, got m={m}, n={n}")
    add = tuple(tuple((a + b) % m for b in range(m)) for a in range(m))
    act = tuple(tuple((r * a) % m for a in range(m)) for r in range(n))
    return Module(ring, add, act, 0, {"kind": "mod_m", "m": m})


def _module_direct_sum(ring: Ring, summands: Sequence[Module], guards: Guards) -> Module:
    if not summands:
        raise InputError("direct sum needs at least one summand")
    orders = [s.order for s in summands]
    total = 1
    for n in orders:
        total *= n
    check_guard(total, guards.max_order, f"module order {total}")

    add = product_table([s.add_table for s in summands])
    act = tuple(map(product_map, zip(*(s.act_table for s in summands))))
    zero = mixed_radix_join([s.zero for s in summands], orders)
    return Module(
        ring, add, act, zero,
        {"kind": "direct_sum", "summands": [s.descriptor for s in summands]},
    )


def direct_power(module: Module, n: int, guards: Guards = DEFAULT_GUARDS) -> Module:
    """The direct sum of n copies of a module, with mixed-radix indexing."""
    if n < 1:
        raise InputError("direct power needs n >= 1")
    return _module_direct_sum(module.ring, [module] * n, guards)


def module_make(ring: Ring, descriptor: dict, guards: Guards = DEFAULT_GUARDS) -> Module:
    if not isinstance(descriptor, dict) or "kind" not in descriptor:
        raise InputError("module descriptor must be an object with a 'kind' field")
    kind = descriptor["kind"]
    if kind == "regular":
        return _module_regular(ring)
    if kind == "column":
        k = descriptor.get("k")
        if type(k) is not int:
            raise InputError("column descriptor needs integer field 'k'")
        return _module_column(ring, k, guards)
    if kind == "mod_m":
        m = descriptor.get("m")
        if type(m) is not int:
            raise InputError("mod_m descriptor needs integer field 'm'")
        return _module_mod_m(ring, m)
    if kind == "direct_sum":
        descs = descriptor.get("summands")
        if not isinstance(descs, list) or not descs:
            raise InputError("direct_sum descriptor needs a nonempty 'summands' list")
        summands = [module_make(ring, d, guards) for d in descs]
        return _module_direct_sum(ring, summands, guards)
    if kind == "character":
        return character_module(ring, guards)
    if kind == "table":
        add = descriptor.get("add")
        act = descriptor.get("act")
        if not isinstance(add, list) or not isinstance(act, list):
            raise InputError("table descriptor needs 'add' and 'act' tables")
        check_guard(len(add), guards.max_order, f"module order {len(add)}")
        zero = _validate_module_tables(ring, add, act)
        add_t = tuple(tuple(row) for row in add)
        act_t = tuple(tuple(row) for row in act)
        desc = {"kind": "table", "add": [list(r) for r in add_t], "act": [list(r) for r in act_t]}
        return Module(ring, add_t, act_t, zero, desc)
    raise InputError(f"unknown module kind {kind!r}")


# ---------------------------------------------------------------------------
# the socle


def socle(module: Module, guards: Guards = DEFAULT_GUARDS) -> Submodule:
    """Largest semisimple submodule: the annihilator of rad(R) in the module.

    Cross-checked against the sum of all minimal submodules; a mismatch is an
    internal error.
    """
    check_guard(module.order, guards.max_order, f"module order {module.order}")
    if "socle" not in module._cache:
        rad = frozenset(jacobson_radical(module.ring).members)
        members = tuple(a for a, ann in enumerate(annihilator_sets(module)) if rad <= ann)
        atoms = minimal_submodules(module, guards)
        union = sorted({x for s in atoms for x in s.members} | {module.zero})
        via_sum = submodule_generated(module, union).members
        if via_sum != members:
            raise InternalConsistencyError(
                "socle methods disagree: radical-annihilator vs sum of minimal submodules"
            )
        module._cache["socle"] = Submodule(members)
    return module._cache["socle"]


# ---------------------------------------------------------------------------
# generators and linear-map search


def _greedy_generators(module: Module, start: Iterable[int]) -> tuple[int, ...]:
    """Greedy generators of the module, starting from the submodule start.

    Each round adds the least element whose span with the current set is
    largest.  Every member of a coset a + current spans the same submodule,
    so each round tries only the first member met of each coset.
    """
    add = module.add_table
    current = frozenset(start)
    gens = []
    while True:
        best_a, best_span = None, current
        seen = set(current)  # the cosets tried so far
        for a in module.elements():
            if a not in seen:
                seen.update(map(add[a].__getitem__, current))
                grown = span_step(module, current, a)
                if len(grown) > len(best_span):
                    best_a, best_span = a, grown
        if best_a is None:
            return tuple(gens)
        gens.append(best_a)
        current = best_span


def module_generators(module: Module) -> tuple[int, ...]:
    """Small generating set by greedy maximal coverage, ties to smaller index."""
    if "generators" not in module._cache:
        module._cache["generators"] = _greedy_generators(module, {module.zero})
    return module._cache["generators"]


def _map_plan(src: Module, gens: tuple[int, ...], domain: tuple[int, ...]):
    """How a linear map on the submodule domain extends along gens, compiled
    once per (gens, domain) and cached on src.  Returns (order, steps).

    The span C grows in discovery order: domain, then for each generator g
    the new elements x = s + r*g in (r, s) order.  f(s + r*g) = f(s) + r*y is
    well defined, and then linear, exactly when d*y = f(d*g) for every d with
    d*g in C.  steps[i] = (checks, new) holds the pairs (d, pos(d*g)) of that
    conductor with d*g != 0 (the candidates' annihilators cover d*g = 0) and
    the triples (pos(s), r, x) of the new elements.  order sorts the positions.
    """
    key = ("map_plan", gens, domain)
    if key not in src._cache:
        span = list(domain)
        pos = {x: p for p, x in enumerate(span)}
        steps = []
        for g in gens:
            col = [row[g] for row in src.act_table]
            checks = tuple((d, pos[x]) for d, x in enumerate(col) if x != src.zero and x in pos)
            new, size = [], len(span)
            for r, x in enumerate(col):
                for p in range(size):
                    s = src.add_table[span[p]][x]
                    if s not in pos:
                        pos[s] = len(span)
                        span.append(s)
                        new.append((p, r, s))
            steps.append((checks, tuple(new)))
        order = tuple(sorted(range(len(span)), key=span.__getitem__))
        src._cache[key] = (order, tuple(steps))
    return src._cache[key]


def _map_from_images(src: Module, dst: Module, gens: tuple[int, ...], images) -> tuple[int, ...]:
    """The linear map on span(gens) sending gens to images, which must
    define one, as iter_linear_maps yields it."""
    order, steps = _map_plan(src, gens, (src.zero,))
    values = [dst.zero]
    for (_, new), y in zip(steps, images):
        values += [dst.add_table[values[p]][dst.act_table[r][y]] for p, r, _ in new]
    return tuple([values[p] for p in order])


def iter_linear_maps(
    src: Module,
    dst: Module,
    gens: Sequence[int],
    injective: bool = False,
    *,
    target_members: Optional[Sequence[int]] = None,
    key: Optional[Sequence] = None,
):
    """Yield all linear maps span(gens) -> dst: the extensions of the zero
    map on the zero submodule, as _map_search compiles them, with its
    options."""
    search = _map_search(
        src, dst, gens, injective, (src.zero,), target_members=target_members, key=key
    )
    yield from search([dst.zero])


def _map_search(src, dst, gens, injective, domain, *, target_members=None, key=None):
    """Compile the extensions along gens of a linear map on the submodule
    domain: a function from the map's images, in domain order, to every
    linear map span(domain, gens) -> dst that extends it, in deterministic
    order, each as the images of the span's ascending members.

    The candidate images of a generator g are the y with Ann(g) <= Ann(y)
    (equality when injective), within target_members when given; the
    conductor checks of _map_plan accept exactly those that extend.  Each
    partial map is linear, so it is injective exactly when no new element
    maps to zero; injective assumes an injective map on domain.  A key, a
    sequence over element indices, drops a partial map as soon as a new
    element x gets an image z with key[z] != key[x], and keeps the order of
    the maps that remain.
    """
    order, steps = _map_plan(src, tuple(gens), domain)
    anns_src, anns_dst = annihilator_sets(src), annihilator_sets(dst)
    pool = dst.elements() if target_members is None else sorted(target_members)
    candidate_sets = [
        [y for y in pool if anns_dst[y] == anns_src[g]] if injective
        else [y for y in pool if anns_src[g] <= anns_dst[y]]
        for g in gens
    ]
    dadd, dact, dzero = dst.add_table, dst.act_table, dst.zero

    def rec(i, values):
        checks, new = steps[i]
        for y in candidate_sets[i]:
            for d, p in checks:
                if dact[d][y] != values[p]:
                    break
            else:
                if key is None:
                    images = [dadd[values[p]][dact[r][y]] for p, r, _ in new]
                else:
                    images = []
                    for p, r, x in new:
                        z = dadd[values[p]][dact[r][y]]
                        if key[z] != key[x]:
                            break
                        images.append(z)
                    if len(images) < len(new):
                        continue
                if injective and dzero in images:
                    continue
                ext = values + images
                if i + 1 < len(steps):
                    yield from rec(i + 1, ext)
                else:
                    yield tuple([ext[p] for p in order])

    return lambda values: rec(0, values) if steps else iter([tuple([values[p] for p in order])])


# ---------------------------------------------------------------------------
# automorphisms, orbit partitions


def least_in_orbit(size: int, maps: Iterable[Sequence[int]]) -> list[int]:
    """out[i] is the first member of i's orbit under the group that the maps
    generate, each a permutation of range(size) with maps[k][j] the image of
    j; a map that is not one raises InternalConsistencyError.  One
    breadth-first sweep per orbit: an i not yet labelled when reached is the
    least of its orbit, and since the maps are permutations of a finite set,
    the images reachable from i make up the whole orbit."""
    maps = [list(m) for m in maps]
    for m in maps:
        hit = bytearray(size)  # hit[y] = 1 once y is an image under m
        if len(m) == size and (not m or 0 <= min(m) and max(m) < size):
            for y in m:
                hit[y] = 1
        if len(m) != size or 0 in hit:
            raise InternalConsistencyError(f"an orbit map is not a permutation of range({size})")
    out = [-1] * size
    for i in range(size):
        if out[i] < 0:
            out[i] = i
            queue = [i]
            for x in queue:
                for m in maps:
                    y = m[x]
                    if out[y] < 0:
                        out[y] = i
                        queue.append(y)
    return out


def orbit_lattice(
    module: Module,
    perms: Iterable[Sequence[int]],
    guards: Guards = DEFAULT_GUARDS,
    max_gens: Optional[int] = None,
) -> list[tuple[Submodule, int]]:
    """lattice_walk(module, perms, max_gens) once every perm is checked to
    be an R-linear bijection of the module (InternalConsistencyError
    otherwise): a bijection p is one exactly when p(y) = r*p(g) and
    p(y + x) = p(y) + p(x) for every x and every y = r*g, r in R and g a
    generator of the module."""
    check_guard(module.order, guards.max_order, f"module order {module.order}")
    add, act = module.add_table, module.act_table
    perms = [tuple(p) for p in perms]
    gens = module_generators(module) if perms else ()
    for p in perms:
        if sorted(p) != list(module.elements()) or any(
            p[y] != z or list(map(p.__getitem__, add[y])) != list(map(add[z].__getitem__, p))
            for y, z in {(row[g], row[p[g]]) for g in gens for row in act}  # (r*g, r*p(g))
        ):
            raise InternalConsistencyError("an orbit map is not an R-linear bijection")
    return lattice_walk(module, perms, max_gens)


def isomorphism_leaders(
    module: Module, subs: Sequence[Submodule]
) -> tuple[dict[int, int], dict[int, tuple[int, ...]]]:
    """(leader, isos): leader[i], for each index i of subs, is the first j
    with subs[j] isomorphic to subs[i], and isos[i] an isomorphism onto it,
    as the images of the members of subs[i].  Isomorphic submodules have
    equal annihilator multisets, and then S is isomorphic to T exactly when
    an injective map S -> T exists: a first-leaf search keyed on them."""
    anns = partition(module, "annihilator")
    leader, isos, classes = {}, {}, {}
    for i in range(len(subs)):
        shape = classes.setdefault(tuple(sorted(anns[x] for x in subs[i].members)), [])
        for j in shape:
            isos[i] = next(iter_linear_maps(
                module, module, subs[i].generators, True, target_members=subs[j].members, key=anns
            ), None)
            if isos[i] is not None:
                leader[i] = j
                break
        else:
            leader[i], isos[i] = i, subs[i].members
            shape.append(i)
    return leader, isos


class AutGroup:
    """Aut(A) as the order and strong generators of a stabilizer chain; the
    sorted listing of every automorphism is built only on demand."""

    def __init__(self, module: Module, order: int, generators: tuple[tuple[int, ...], ...]):
        self.module = module
        self.order = order
        self.generators = generators

    @staticmethod
    def compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
        """(p after q)(x) = p[q[x]]."""
        return tuple([p[x] for x in q])

    @functools.cached_property
    def elements(self) -> tuple[tuple[int, ...], ...]:
        """Every automorphism as a permutation tuple, sorted
        lexicographically, checked to hold the identity, to be closed under
        composition and to number the chain's order."""
        module = self.module
        gens = module_generators(module)
        perms = tuple(sorted(iter_linear_maps(module, module, gens, injective=True)))
        members = set(perms)
        if tuple(module.elements()) not in members:
            raise InternalConsistencyError("automorphism search missed the identity")
        if any(self.compose(p, perms[-1]) not in members for p in perms):
            raise InternalConsistencyError("automorphism set is not closed")
        if len(perms) != self.order:
            raise InternalConsistencyError(
                f"{len(perms)} automorphisms listed, stabilizer chain order {self.order}"
            )
        return perms


def stabilizer_chain(module: Module, gens: Sequence[int], key: Optional[Sequence] = None):
    """Yield (size, kept) for the levels, deepest first, of a stabilizer
    chain (Sims 1970) of the automorphism group of C = span(gens) in the
    module, along gens = (g_1..g_k).  With a key, a sequence over element
    indices, it is the chain of the subgroup of the f with key[f(x)] = key[x]
    for every x in C: both searches keep the key, and "automorphism" below
    means one of that subgroup.  G_i, the automorphisms fixing
    g_1..g_{i-1}, moves g_i to exactly the y for which the identity on
    span(g_1..g_{i-1}) extended by g_i -> y extends to an automorphism; size
    counts those y, so |Aut(C)| is the product of the sizes.  A candidate y
    in the orbit of g_i under the automorphisms kept so far, at this level
    and deeper, all of them in G_i, is counted without a search; any other
    takes one, and the automorphism it finds, as the images of C's ascending
    members, is kept.  The kept ones at levels i..k then generate G_i, by
    orbit-stabilizer, and each at least doubles the group they generate."""
    span, spans = {module.zero}, [(module.zero,)]
    for g in gens:
        span = span_step(module, span, g)
        spans.append(tuple(sorted(span)))
    position = {x: p for p, x in enumerate(spans[-1])}
    search = functools.partial(_map_search, module, module, target_members=spans[-1], key=key)
    kept = []
    for i in reversed(range(len(gens))):
        size, level = 0, []
        steps = search(gens[i : i + 1], True, spans[i])
        extend = search(gens[i + 1 :], True, spans[i + 1])
        at, orbit = spans[i + 1].index(gens[i]), {gens[i]}
        for step in steps(list(spans[i])):
            if step[at] not in orbit:
                full = next(extend(list(step)), None)
                if full is None:
                    continue
                level.append(full)
                kept.append(full)
                queue = list(orbit)  # the orbit of g_i under every kept map
                for x in queue:
                    for h in kept:
                        y = h[position[x]]
                        if y not in orbit:
                            orbit.add(y)
                            queue.append(y)
            size += 1
        yield size, level


def chain_group(chain) -> tuple[int, list]:
    """The order of a stabilizer_chain's group and the kept generators."""
    order, kept = 1, []
    for size, level in chain:
        order, kept = order * size, kept + level
    return order, kept


def automorphism_group(module: Module, guards: Guards = DEFAULT_GUARDS) -> AutGroup:
    """Aut(A) as the stabilizer_chain along module_generators(A): the product
    of its sizes and the automorphisms it kept, at most log2 |Aut(A)|."""
    check_guard(module.order, guards.max_order, f"module order {module.order}")
    if "aut_group" not in module._cache:
        order, kept = chain_group(stabilizer_chain(module, module_generators(module)))
        module._cache["aut_group"] = AutGroup(module, order, tuple(kept))
    return module._cache["aut_group"]


def partition(module: Module, kind: str, guards: Guards = DEFAULT_GUARDS) -> tuple[int, ...]:
    """Partition elements by automorphism orbits ("orbit") or by equal
    annihilator ("annihilator"): labels[a] is the least member of a's class."""
    cache_key = ("partition", kind)
    if kind == "orbit":
        check_guard(module.order, guards.max_order, f"module order {module.order}")
    if cache_key in module._cache:
        return module._cache[cache_key]
    n = module.order
    if kind == "orbit":
        labels = least_in_orbit(n, automorphism_group(module, guards).generators)
    elif kind == "annihilator":
        anns = annihilator_sets(module)
        first: dict[frozenset, int] = {}
        labels = [first.setdefault(anns[a], a) for a in range(n)]
    else:
        raise InputError(f"unknown partition kind {kind!r}")
    module._cache[cache_key] = tuple(labels)
    return module._cache[cache_key]


# ---------------------------------------------------------------------------
# pseudo-injectivity


def _is_injective(module: Module, guards: Guards = DEFAULT_GUARDS) -> bool:
    """Baer's criterion: the module A is injective exactly when every linear
    map f from a left ideal I of R into A is x -> x*a for some a in A.  The
    ideals 0 and R pass for every A, so only the proper nonzero ones are
    checked, each map f as the images of I's ascending members."""
    ring, act = module.ring, module.act_table
    for ideal in submodules_enumerate(ring, guards):
        members = ideal.members
        if len(members) in (1, ring.order):
            continue
        multiplications = {tuple([act[x][a] for x in members]) for a in module.elements()}
        for f in iter_linear_maps(ring, module, ideal.generators):
            if f not in multiplications:
                return False
    return True


def is_pseudo_injective(module: Module, guards: Guards = DEFAULT_GUARDS) -> bool:
    """True when every monomorphism from a submodule into the module extends
    to an endomorphism of the module.

    An injective module is pseudo-injective, and _is_injective decides
    injectivity on the left ideals of R.  Only a module that fails it takes
    the monomorphism search over its own submodules,
    _pseudo_injective_by_search.
    """
    check_guard(module.order, guards.max_order, f"module order {module.order}")
    if "pseudo_injective" not in module._cache:
        module._cache["pseudo_injective"] = (
            _is_injective(module, guards) or _pseudo_injective_by_search(module, guards)
        )
    return module._cache["pseudo_injective"]


def _pseudo_injective_by_search(module: Module, guards: Guards = DEFAULT_GUARDS) -> bool:
    """is_pseudo_injective by search over the submodules of the module.

    For automorphisms a and b, a monomorphism f: S -> A extends exactly when
    a*f*b^-1: b(S) -> A does, so one monomorphism per orbit suffices.  The
    proper nonzero submodules are split into orbits under the generators of
    Aut(A) (orbit_lattice), and on the first submodule S of each orbit
    the monomorphisms, each keyed by its images of S.generators, are split
    into orbits under left composition by the same generators.  The first
    monomorphism f of each orbit, rebuilt on S from those images, then takes
    one search for a linear map that extends f, along greedy generators that
    complete S to the whole module, compiled by _map_search once per S.  The
    search tries, for each of them g, every image y with Ann(g) <= Ann(y), a
    condition every endomorphism meets, so it finds an extension whenever
    one exists.
    """
    autos = automorphism_group(module, guards).generators
    for sub, _ in orbit_lattice(module, autos, guards):
        members, gens = sub.members, sub.generators
        if len(members) in (1, module.order):
            continue
        at = [members.index(g) for g in gens]
        maps = iter_linear_maps(module, module, gens, injective=True)
        monos = [tuple(f[p] for p in at) for f in maps]
        position = {f: k for k, f in enumerate(monos)}
        # a sends the monomorphism with generator images f to the one with
        # images a(f), formed a column of monos at a time
        columns = list(zip(*monos))
        moved = (zip(*(map(a.__getitem__, c) for c in columns)) for a in autos)
        mono_first = least_in_orbit(len(monos), (map(position.__getitem__, f) for f in moved))
        extend = _map_search(module, module, _greedy_generators(module, members), False, members)
        if not all(
            next(extend(list(_map_from_images(module, module, gens, images))), None) is not None
            for k, images in enumerate(monos)
            if mono_first[k] == k
        ):
            return False
    return True


# ---------------------------------------------------------------------------
# character module


def character_module(ring: Ring, guards: Guards = DEFAULT_GUARDS) -> Module:
    """The character module: additive maps chi: R -> Z_m (m the additive
    exponent), with left action (r.chi)(x) = chi(x*r).

    The characters are the Z_m-linear maps from (R, +) to the regular Z_m
    module.  They are indexed by the lexicographic order of their value tuples
    (chi(0), ..., chi(n-1)), so the zero character, all zeros, has index 0,
    and looked up by their values on the generators of (R, +), which fix them.
    The tables meet the module axioms by construction and are not re-checked.
    """
    check_guard(ring.order, guards.max_order, f"ring order {ring.order}")
    if "character_module" in ring._cache:
        return ring._cache["character_module"]
    n = ring.order
    m = exponent_of_addition(ring)
    z_m = ring_make({"kind": "mod_n", "n": m}, guards)
    multiples = [(ring.zero,) * n]  # multiples[c][a] = c*a, for c in Z_m
    for _ in range(1, m):
        multiples.append(tuple(ring.add(x, a) for a, x in enumerate(multiples[-1])))
    additive = Module(z_m, ring.add_table, tuple(multiples), ring.zero, {"kind": "additive"})
    gens = module_generators(additive)
    characters = list(iter_linear_maps(additive, _module_regular(z_m), gens))
    if len(characters) != n:
        raise InternalConsistencyError(
            f"character count {len(characters)} differs from ring order {n}"
        )
    characters.sort()
    values = [tuple(chi[g] for g in gens) for chi in characters]
    index = {v: i for i, v in enumerate(values)}
    # (chi + psi)(g) = chi(g) + psi(g) and (r.chi)(g) = chi(g*r)
    add_t = tuple(
        tuple(index[tuple((x + y) % m for x, y in zip(a, b))] for b in values)
        for a in values
    )
    act_t = tuple(
        tuple(index[tuple(chi[ring.mul(g, r)] for g in gens)] for chi in characters)
        for r in ring.elements()
    )
    out = Module(
        ring, add_t, act_t, 0,
        {"kind": "character", "ring": ring.descriptor, "exponent": m},
    )
    ring._cache["character_module"] = out
    return out


def embedding_search(src: Module, dst: Module) -> Optional[tuple[int, ...]]:
    """First injective linear map src -> dst in search order, as a tuple."""
    if src.order > dst.order:
        return None
    return next(iter_linear_maps(src, dst, module_generators(src), injective=True), None)


# ---------------------------------------------------------------------------
# the socle report


@dataclasses.dataclass(frozen=True)
class SocleReport:
    """Socle decomposition soc(A) = sum s_i T_i and the cyclicity verdict.

    rows hold (endo_order q_i, capacity mu_i, multiplicity s_i, |T_i|); the
    socle is cyclic exactly when s_i <= mu_i for all i, and that verdict is
    cross-checked by a generator search and by an embedding test into the
    character module of R.
    """

    socle: Submodule
    rows: tuple[tuple[int, int, int, int], ...]
    cyclic: bool

    def as_json(self):
        return {
            "socle_order": len(self.socle.members),
            "blocks": [
                {"q": q, "mu": mu, "s": s, "simple_order": t}
                for q, mu, s, t in self.rows
            ],
            "cyclic": self.cyclic,
            # socle_report raises when the three methods disagree
            "methods_agree": True,
        }


def socle_report(module: Module, guards: Guards = DEFAULT_GUARDS) -> SocleReport:
    simples = simple_classes(module.ring, guards)
    soc = socle(module, guards)
    if "socle_report" in module._cache:
        return module._cache["socle_report"]
    rows = []
    size_check = 1
    for t in simples:
        s = exact_exponent(hom_count(t, module), t.q)
        rows.append((t.q, t.mu, s, t.order))
        size_check *= t.order ** s
    if size_check != len(soc.members):
        raise InternalConsistencyError(
            f"socle order {len(soc.members)} differs from multiplicity product {size_check}"
        )
    by_multiplicity = all(s <= mu for _, mu, s, _ in rows)
    by_generator = soc in submodules_enumerate(module, guards, 1)
    characters = character_module(module.ring, guards)
    by_character = embedding_search(module, characters) is not None
    if not (by_multiplicity == by_generator == by_character):
        raise InternalConsistencyError(
            "cyclic-socle tests disagree: "
            f"multiplicity={by_multiplicity} generator={by_generator} "
            f"character={by_character}"
        )
    report = SocleReport(soc, tuple(rows), by_multiplicity)
    module._cache["socle_report"] = report
    return report
