"""Finite unital rings and their modules as explicit operation tables.

A Module stores complete addition and action tables over elements
0..order-1 together with a JSON-ready descriptor of how it was built.  A
Ring is a Module over itself whose action is its multiplication table.
Supported ring constructions:

    {"kind": "mod_n",   "n": 6}
    {"kind": "matrix",  "m": 2, "q": 2}          # M_m(F_q)
    {"kind": "product", "factors": [d1, d2, ...]}
    {"kind": "table",   "add": [[...]], "mul": [[...]]}

Element encodings are fixed so results are reproducible byte for byte:
mod-n rings use residues 0..n-1; matrix rings encode a matrix row-major in
base q with the top-left entry most significant; products use mixed radix
with the leftmost factor most significant.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Iterable, Optional, Sequence

from .errors import (
    DEFAULT_GUARDS,
    Guards,
    InputError,
    InternalConsistencyError,
    NotPrincipalError,
    UnsupportedConstruction,
    check_guard,
    check_power_guard,
)
from .fields import (
    FiniteField,
    Matrix,
    factor_prime_power,
    matrix_tables,
    matrix_to_index,
    mixed_radix_join,
    mixed_radix_split,
    prime_factors,
    product_table,
)


class Module:
    """A left module over a ring: a full addition table, a full action table
    act[r][a] and a JSON-ready descriptor."""

    def __init__(self, ring: "Ring", add, act, zero: int, descriptor: dict):
        self.ring = ring
        self.order = len(add)
        self.add_table = add
        self.act_table = act
        self.zero = zero
        self.descriptor = descriptor
        self._cache = {}

    def add(self, a: int, b: int) -> int:
        return self.add_table[a][b]

    def act(self, r: int, a: int) -> int:
        return self.act_table[r][a]

    def elements(self) -> range:
        return range(self.order)

    def __repr__(self):
        kind = self.descriptor.get("kind", "?")
        return f"{type(self).__name__}(kind={kind}, order={self.order})"


class Ring(Module):
    """A ring, which is also its own regular module: it acts on itself by
    left multiplication, so its left ideals are its submodules.  A matrix
    ring M_m(F_q) keeps its field F_q; other rings have field None."""

    def __init__(self, add, mul, zero, one, descriptor, field: Optional[FiniteField] = None):
        super().__init__(self, add, mul, zero, descriptor)
        self.mul_table = mul
        self.one = one
        self.field = field

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]


@dataclasses.dataclass(frozen=True)
class Submodule:
    """A submodule, or a left ideal, given by its sorted member tuple; the
    generators submodules_enumerate reached it by take no part in equality."""

    members: tuple[int, ...]
    generators: tuple[int, ...] = dataclasses.field(default=(), compare=False)

    def __len__(self):
        return len(self.members)

    def __contains__(self, x):
        return x in self.members


def check_table(table, rows: int, n: int, what: str) -> None:
    """Raise InputError unless table has the given number of rows, each a
    list of n plain ints in 0..n-1."""
    if not isinstance(table, (list, tuple)) or len(table) != rows or not all(
        isinstance(row, (list, tuple))
        and len(row) == n
        and all(type(x) is int and 0 <= x < n for x in row)
        for row in table
    ):
        raise InputError(f"{what} must have {rows} rows of {n} integers in 0..{n - 1}")


def additive_zero(add, what: str) -> int:
    """Check that a square table of plain ints is an abelian group; return
    its identity element."""
    n = len(add)
    zero = next((z for z in range(n) if all(add[z][b] == b for b in range(n))), None)
    if zero is None:
        raise InputError(f"{what} has no identity element")
    for a in range(n):
        if zero not in add[a]:
            raise InputError(f"{what}: element {a} has no inverse")
        for b in range(n):
            if add[a][b] != add[b][a]:
                raise InputError(f"{what} is not commutative")
            for c in range(n):
                if add[add[a][b]][c] != add[a][add[b][c]]:
                    raise InputError(f"{what} is not associative")
    return zero


def _check_action(ring_add, ring_mul, add, act, what: str) -> None:
    """Raise InputError unless act[r][a] is additive in a and in r and
    (rs).a = r.(s.a); a ring is its own regular module, so on the ring's own
    tables these are its distributive and associative laws."""
    elems, scalars = range(len(add)), range(len(ring_add))
    for r in scalars:
        for a in elems:
            for b in elems:
                if act[r][add[a][b]] != add[act[r][a]][act[r][b]]:
                    raise InputError(f"{what} fails r.(a + b) = r.a + r.b")
    for r in scalars:
        for s in scalars:
            for a in elems:
                if act[ring_add[r][s]][a] != add[act[r][a]][act[s][a]]:
                    raise InputError(f"{what} fails (r + s).a = r.a + s.a")
                if act[ring_mul[r][s]][a] != act[r][act[s][a]]:
                    raise InputError(f"{what} fails (rs).a = r.(s.a)")


def _validate_module_tables(ring: Ring, add, act) -> int:
    """Check full module axioms on raw tables; return the zero."""
    n = len(add)
    if n == 0:
        raise InputError("module tables must be nonempty")
    check_table(add, n, n, "module addition table")
    check_table(act, ring.order, n, "module action table")
    zero = additive_zero(add, "module addition table")
    if any(act[ring.one][a] != a for a in range(n)):
        raise InputError("ring identity does not act as the identity map")
    _check_action(ring.add_table, ring.mul_table, add, act, "module action table")
    return zero


def _validate_ring_tables(add, mul) -> tuple[int, int]:
    """Check full ring axioms on raw tables; return (zero, one)."""
    n = len(add)
    if n == 0:
        raise InputError("ring tables must be nonempty")
    check_table(add, n, n, "ring addition table")
    check_table(mul, n, n, "ring multiplication table")
    zero = additive_zero(add, "ring addition table")
    one = None
    for u in range(n):
        if all(mul[u][b] == b and mul[b][u] == b for b in range(n)):
            one = u
            break
    if one is None:
        raise InputError("multiplication table has no identity element")
    _check_action(add, mul, add, mul, "ring multiplication table")
    return zero, one


def _ring_mod_n(n: int) -> Ring:
    if n < 1:
        raise InputError(f"modulus must be positive, got {n}")
    add = tuple(tuple((a + b) % n for b in range(n)) for a in range(n))
    mul = tuple(tuple((a * b) % n for b in range(n)) for a in range(n))
    return Ring(add, mul, 0, 1 % n, {"kind": "mod_n", "n": n})


def _ring_matrix(m: int, q: int, guards: Guards) -> Ring:
    if m < 1:
        raise InputError(f"matrix ring size must be positive, got {m}")
    # q is checked as FiniteField checks it, so a malformed q still exits 4,
    # and the ring order is guarded before the field's tables are built
    check_guard(q, guards.max_field, f"field order {q}")
    factor_prime_power(q)
    check_power_guard(q, m * m, guards.max_order, f"matrix ring order {q}^({m}*{m})")
    field = FiniteField(q, guards)
    add, mul = matrix_tables(field, m, m)
    one = matrix_to_index(Matrix.identity(field, m))
    return Ring(add, mul, 0, one, {"kind": "matrix", "m": m, "q": q}, field)


def _ring_product(factors: Sequence[Ring]) -> Ring:
    if not factors:
        raise InputError("product ring needs at least one factor")
    orders = [f.order for f in factors]
    add = product_table([f.add_table for f in factors])
    mul = product_table([f.mul_table for f in factors])
    zero = mixed_radix_join([f.zero for f in factors], orders)
    one = mixed_radix_join([f.one for f in factors], orders)
    return Ring(add, mul, zero, one, {"kind": "product", "factors": [f.descriptor for f in factors]})


def ring_make(descriptor: dict, guards: Guards = DEFAULT_GUARDS) -> Ring:
    """Build a ring from a descriptor; tables are validated for "table" kind."""
    if not isinstance(descriptor, dict) or "kind" not in descriptor:
        raise InputError("ring descriptor must be an object with a 'kind' field")
    kind = descriptor["kind"]
    if kind == "mod_n":
        n = descriptor.get("n")
        if type(n) is not int:
            raise InputError("mod_n descriptor needs integer field 'n'")
        check_guard(n, guards.max_order, f"ring order {n}")
        return _ring_mod_n(n)
    if kind == "matrix":
        m, q = descriptor.get("m"), descriptor.get("q")
        if type(m) is not int or type(q) is not int:
            raise InputError("matrix descriptor needs integer fields 'm' and 'q'")
        return _ring_matrix(m, q, guards)
    if kind == "product":
        factor_descs = descriptor.get("factors")
        if not isinstance(factor_descs, list) or not factor_descs:
            raise InputError("product descriptor needs a nonempty 'factors' list")
        factors = [ring_make(d, guards) for d in factor_descs]
        total = 1
        for f in factors:
            total *= f.order
        check_guard(total, guards.max_order, f"product ring order {total}")
        return _ring_product(factors)
    if kind == "table":
        add = descriptor.get("add")
        mul = descriptor.get("mul")
        if not isinstance(add, list) or not isinstance(mul, list):
            raise InputError("table descriptor needs 'add' and 'mul' tables")
        check_guard(len(add), guards.max_order, f"ring order {len(add)}")
        zero, one = _validate_ring_tables(add, mul)
        add_t = tuple(tuple(row) for row in add)
        mul_t = tuple(tuple(row) for row in mul)
        desc = {"kind": "table", "add": [list(r) for r in add_t], "mul": [list(r) for r in mul_t]}
        return Ring(add_t, mul_t, zero, one, desc)
    raise InputError(f"unknown ring kind {kind!r}")


def units(ring: Ring) -> frozenset[int]:
    """Two-sided units of the ring."""
    if "units" not in ring._cache:
        out = set()
        for u in ring.elements():
            for v in ring.elements():
                if ring.mul(u, v) == ring.one and ring.mul(v, u) == ring.one:
                    out.add(u)
                    break
        ring._cache["units"] = frozenset(out)
    return ring._cache["units"]


# ---------------------------------------------------------------------------
# the submodule lattice
#
# These functions take a Module; on a Ring, its submodules are its left ideals.


def span_step(module, members: Iterable[int], g: int) -> set[int]:
    """{s + r*g : s in members, r in R}: the span of a submodule and g."""
    add = module.add_table
    return {add[s][row[g]] for s in members for row in module.act_table}


def submodule_generated(module, gens: Iterable[int]) -> Submodule:
    """Smallest submodule containing the generators.

    Because the running set is a submodule at every step, one span_step per
    generator is a full closure, and a generator already in it adds nothing.
    """
    members = {module.zero}
    for g in gens:
        if not 0 <= g < module.order:
            raise InputError(f"generator {g} outside module of order {module.order}")
        if g not in members:
            members = span_step(module, members, g)
    return Submodule(tuple(sorted(members)))


def lattice_walk(
    module, perms: Sequence[Sequence[int]] = (), max_gens: Optional[int] = None
) -> list[tuple[Submodule, int]]:
    """(first, size) for each orbit of the submodules needing at most
    max_gens generators (all when None) under the group that perms, module
    automorphisms as permutations, generate, in the (size, members) order of
    first, the orbit's least member, with a shortest generator tuple.

    Level 1 reaches each cyclic Rw by its least w.  Level k spans S + Rw
    from the first S of each orbit opened at level k-1, in that order, w
    ascending over the least generators of the cyclic submodules, once per
    coset w + S, on which S + Rw alone depends.  A submodule needing k
    generators is p(S) + Rw' for a first S needing k-1 and an automorphism
    p, so its orbit holds S + R p^-1(w').  A sum not met before opens an
    orbit, listed whole by a breadth-first pass over images under perms
    that carries the generators along.  Submodules are keyed by bitmasks
    with element x at bit N-1-x: an orbit's largest mask is its first.
    """
    n, add, act = module.order, module.add_table, module.act_table
    bit = [1 << (n - 1 - x) for x in range(n)]
    moved = [(p, [bit[y] for y in p]) for p in perms]  # bit of p(x) at x
    met, out = set(), []

    def open_orbit(members, gens):
        best = sum(map(bit.__getitem__, members))
        if best in met:
            return
        met.add(best)
        queue, first = [(members, gens)], 0
        for members, gens in queue:
            for p, pbit in moved:
                mask = sum(map(pbit.__getitem__, members))
                if mask not in met:
                    met.add(mask)
                    if mask > best:
                        best, first = mask, len(queue)
                    image = list(map(p.__getitem__, members))
                    queue.append((image, tuple(map(p.__getitem__, gens))))
        members, gens = queue[first]
        out.append((Submodule(tuple(sorted(members)), gens), len(queue)))

    least, cyclic = {}, {}  # mask of Rw -> least w, and least w -> Rw
    for w in range(n):
        rw = {row[w] for row in act}
        if least.setdefault(sum(map(bit.__getitem__, rw)), w) == w:
            cyclic[w] = rw
            open_orbit(rw, (w,))
    level, depth = out[:], 1
    while level and (max_gens is None or depth < max_gens):
        start = len(out)
        for first, _ in level:
            members = first.members
            seen = set(members)  # the cosets w + S spanned so far, S first
            for w, rw in cyclic.items():
                if w not in seen:
                    seen.update(map(add[w].__getitem__, members))
                    bigger = set(members)  # S + Rw as a union of cosets t + S
                    for t in rw:
                        if t not in bigger:
                            bigger.update(map(add[t].__getitem__, members))
                    open_orbit(bigger, first.generators + (w,))
        level, depth = out[start:], depth + 1
    return sorted(out, key=lambda orbit: (len(orbit[0].members), orbit[0].members))


def submodules_enumerate(
    module, guards: Guards = DEFAULT_GUARDS, max_gens: Optional[int] = None
) -> tuple[Submodule, ...]:
    """The lattice_walk without perms, one submodule per orbit, cached per
    max_gens."""
    key = ("submodules", max_gens)
    check_guard(module.order, guards.max_order, f"module order {module.order}")
    if key not in module._cache:
        module._cache[key] = tuple(s for s, _ in lattice_walk(module, (), max_gens))
    return module._cache[key]


def annihilator_sets(module) -> tuple[frozenset, ...]:
    """Annihilator of every element, as frozensets, cached on the module."""
    if "anns" not in module._cache:
        zero = module.zero
        module._cache["anns"] = tuple(
            frozenset(r for r, row in enumerate(module.act_table) if row[a] == zero)
            for a in range(module.order)
        )
    return module._cache["anns"]


def minimal_submodules(module, guards: Guards = DEFAULT_GUARDS) -> tuple[Submodule, ...]:
    """Nonzero submodules containing no smaller nonzero submodule.

    A minimal submodule is cyclic, and every nonzero submodule contains a
    nonzero cyclic one, so level 1 of the lattice walk suffices.
    """
    nonzero = [s for s in submodules_enumerate(module, guards, 1) if len(s) > 1]
    sets = [frozenset(s.members) for s in nonzero]
    return tuple(s for s, m in zip(nonzero, sets) if not any(t < m for t in sets))


# ---------------------------------------------------------------------------
# radical, principal ideals and the Wedderburn blocks


def jacobson_radical(ring: Ring) -> Submodule:
    """rad(R) = {r : 1 - s*r is a unit for every s}, by quasi-regularity;
    s -> -s permutes R, so 1 + s*r may stand for 1 - s*r."""
    if "radical" not in ring._cache:
        us, one_plus, mul = units(ring), ring.add_table[ring.one], ring.mul_table
        members = tuple(r for r in ring.elements() if all(one_plus[row[r]] in us for row in mul))
        ring._cache["radical"] = Submodule(members)
    return ring._cache["radical"]


def is_left_ideal(ring: Ring, members: Iterable[int]) -> bool:
    ms = set(members)
    if ring.zero not in ms:
        return False
    return all(ring.add(a, b) in ms for a in ms for b in ms) and all(
        ring.mul(r, a) in ms for r in ring.elements() for a in ms
    )


def opposite_ring(ring: Ring) -> Ring:
    if "opposite" not in ring._cache:
        mul = tuple(tuple(ring.mul(b, a) for b in ring.elements()) for a in ring.elements())
        ring._cache["opposite"] = Ring(
            ring.add_table, mul, ring.zero, ring.one,
            {"kind": "opposite", "base": ring.descriptor},
        )
    return ring._cache["opposite"]


def is_left_pir(ring: Ring, guards: Guards = DEFAULT_GUARDS) -> bool:
    """True when every left ideal is principal."""
    return all(len(i.generators) == 1 for i in submodules_enumerate(ring, guards))


def is_right_pir(ring: Ring, guards: Guards = DEFAULT_GUARDS) -> bool:
    return is_left_pir(opposite_ring(ring), guards)


def principal_generator(ring: Ring, ideal: Submodule, guards: Guards = DEFAULT_GUARDS) -> int:
    """Smallest g with Rg equal to the ideal; raises if none exists.

    Level 1 of the lattice walk reaches each Rw by its least w.
    """
    members = tuple(sorted(ideal.members))
    for s in submodules_enumerate(ring, guards):
        if s.members == members and len(s.generators) == 1:
            return s.generators[0]
    raise NotPrincipalError(f"ideal {list(ideal.members)} is not a principal left ideal")


def ring_quotient(ring: Ring, ideal: Submodule) -> tuple[Ring, tuple[int, ...]]:
    """Quotient by a two-sided ideal; returns (R/I, projection table).

    Quotient elements are indexed by their smallest coset representative, in
    increasing order.  proj[x] is the quotient index of the coset of x.
    """
    mem = set(ideal.members)
    if not is_left_ideal(ring, mem):
        raise InputError("quotient requires a left ideal")
    if not all(ring.mul(a, r) in mem for a in mem for r in ring.elements()):
        raise InputError("quotient requires a two-sided ideal")
    rep_of = {}
    reps = []
    for x in ring.elements():
        if x in rep_of:
            continue
        coset = sorted(ring.add(x, a) for a in mem)
        r = coset[0]
        reps.append(r)
        for y in coset:
            rep_of[y] = r
    reps.sort()
    index_of = {r: i for i, r in enumerate(reps)}
    proj = tuple(index_of[rep_of[x]] for x in ring.elements())
    n = len(reps)
    add = tuple(tuple(proj[ring.add(reps[a], reps[b])] for b in range(n)) for a in range(n))
    mul = tuple(tuple(proj[ring.mul(reps[a], reps[b])] for b in range(n)) for a in range(n))
    quotient = Ring(
        add, mul, proj[ring.zero], proj[ring.one],
        {"kind": "quotient", "base": ring.descriptor, "ideal": list(ideal.members)},
    )
    return quotient, proj


def exact_exponent(count: int, q: int) -> int:
    """The exponent e with q**e == count, for a count that must be a power of
    q (a hom count over an endomorphism field of order q, or the size of a
    subspace over F_q); any other count is an InternalConsistencyError."""
    e, value = 0, 1
    while value < count:
        value *= q
        e += 1
    if value != count:
        raise InternalConsistencyError(f"count {count} is not a power of {q}")
    return e


@dataclasses.dataclass(frozen=True)
class SimpleClass:
    """One isomorphism class of simple left R-modules T, the block
    M_mu(F_q) of R/rad(R) it belongs to: q = |End(T)|, order = |T| and ann =
    Ann_R(t) for one nonzero t in T, so that T is isomorphic to R/ann."""

    mu: int
    q: int
    order: int
    ann: frozenset[int]


def hom_count(simple: SimpleClass, module) -> int:
    """|Hom(T, M)|: T is R/ann, so a hom is fixed by the image m of t, which
    may be any m with ann <= Ann(m)."""
    return sum(1 for a in annihilator_sets(module) if simple.ann <= a)


def simple_classes(ring: Ring, guards: Guards = DEFAULT_GUARDS) -> tuple[SimpleClass, ...]:
    """The simple left R-modules, one per minimal left ideal class of
    R/rad(R), sorted by (q, mu) and cached on the ring.

    For a minimal left ideal T of R/rad(R), |End(T)| = q and |Hom(T,
    R/rad(R))| = q^mu recover its block M_mu(F_q); the annihilator of a
    nonzero t is pulled back to R through the projection.
    """
    check_guard(ring.order, guards.max_order, f"ring order {ring.order}")
    if "simples" not in ring._cache:
        rbar, proj = ring_quotient(ring, jacobson_radical(ring))
        anns = annihilator_sets(rbar)
        seen, out = [], []
        for ideal in minimal_submodules(rbar, guards):
            nonzero = [y for y in ideal.members if y != rbar.zero]
            # a nonzero hom between simples is an isomorphism, so
            # ann-containment against an earlier class detects a repeat
            if any(ann <= anns[y] for ann in seen for y in nonzero):
                continue
            ann = anns[nonzero[0]]
            seen.append(ann)
            q = sum(1 for y in ideal.members if ann <= anns[y])
            mu = exact_exponent(sum(1 for a in anns if ann <= a), q)
            pulled = frozenset(r for r in ring.elements() if proj[r] in ann)
            out.append(SimpleClass(mu, q, len(ideal), pulled))
        out.sort(key=lambda t: (t.q, t.mu))
        total = math.prod(t.q ** (t.mu * t.mu) for t in out)
        if total != rbar.order:
            raise InternalConsistencyError(
                f"block orders multiply to {total}, semisimple quotient has order {rbar.order}"
            )
        ring._cache["simples"] = tuple(out)
    return ring._cache["simples"]


@dataclasses.dataclass(frozen=True)
class BlockProjection:
    """Projection of R onto one matrix block M_mu(F_q) of R/rad(R).

    proj[r] is the block-ring element index (matrix encoded row-major base q)
    of the image of r.
    """

    mu: int
    q: int
    proj: tuple[int, ...]


def block_projections(ring: Ring, guards: Guards = DEFAULT_GUARDS) -> tuple[BlockProjection, ...]:
    """Explicit projections onto Wedderburn blocks, for structured rings only.

    Supported for mod_n, matrix, and product descriptors; opaque table rings
    are out of scope and raise UnsupportedConstruction.
    """
    desc = ring.descriptor
    kind = desc.get("kind")
    if kind == "mod_n":
        n = desc["n"]
        out = [
            BlockProjection(1, p, tuple(x % p for x in range(n)))
            for p in prime_factors(n)
        ]
        out.sort(key=lambda b: (b.q, b.mu))
        return tuple(out)
    if kind == "matrix":
        return (BlockProjection(desc["m"], desc["q"], tuple(range(ring.order))),)
    if kind == "product":
        factors = [ring_make(d, guards) for d in desc["factors"]]
        orders = [f.order for f in factors]
        parts_of = [mixed_radix_split(idx, orders) for idx in range(ring.order)]
        out = []
        for pos, factor in enumerate(factors):
            for bp in block_projections(factor, guards):
                proj = tuple(bp.proj[parts[pos]] for parts in parts_of)
                out.append(BlockProjection(bp.mu, bp.q, proj))
        out.sort(key=lambda b: (b.q, b.mu, b.proj))
        return tuple(out)
    raise UnsupportedConstruction(
        f"block projections are only available for structured rings, not {kind!r}"
    )


def exponent_of_addition(ring: Ring) -> int:
    """Exponent of the additive group (R, +)."""
    exp = 1
    for a in ring.elements():
        order = 1
        x = a
        while x != ring.zero:
            x = ring.add(x, a)
            order += 1
        exp = math.lcm(exp, order)
    return exp
