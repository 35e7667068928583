"""Counterexample constructions and finite-scope verifiers for the extension
behaviour of weight-preserving code maps.

The centerpiece is a pair of codes C_plus / C_minus over a matrix-module
alphabet, indexed by the subspaces of F_q^k, that are Hamming- and
swc-isometric yet monomially inequivalent.  Around it sit verifiers that
sweep all codes and maps within explicit bounds: the orbit/annihilator
coincidence, the peeling certificate that upgrades Hamming preservation to
full annihilator-weight preservation over principal ideal rings, a midway
sweep that checks Hamming and swc preservation coincide, a sufficiency sweep
for cyclic-socle alphabets, and a necessity pipeline that pulls the matrix
counterexample back into an arbitrary alphabet with non-cyclic socle.

Every construction is verified by machine checks before it is returned;
nothing is emitted on trust.
"""

import dataclasses
import functools
import math
from typing import Optional, Sequence

from .codes import (
    Code,
    CodeMap,
    code_generate,
    code_map_make,
    extension_search,
    fixing_order,
    map_preserves,
    weight_labels,
)
from .errors import (
    DEFAULT_GUARDS,
    GuardExceeded,
    Guards,
    InputError,
    InternalConsistencyError,
    UnsupportedConstruction,
    check_guard,
)
from .fields import (
    FiniteField,
    Matrix,
    entries_to_index,
    factor_prime_power,
    index_to_entries,
    linear_table,
    product_map,
)
from .modules import (
    Module,
    annihilator_sets,
    automorphism_group,
    chain_group,
    direct_power,
    embedding_search,
    is_pseudo_injective,
    isomorphism_leaders,
    iter_linear_maps,
    module_generators,
    module_make,
    orbit_lattice,
    partition,
    socle_report,
    stabilizer_chain,
)
from .rings import (
    Submodule,
    block_projections,
    exact_exponent,
    is_left_pir,
    principal_generator,
    ring_make,
    simple_classes,
    submodules_enumerate,
)

Word = tuple[int, ...]


# ---------------------------------------------------------------------------
# verdict reports


@dataclasses.dataclass(frozen=True)
class VerdictReport:
    """Outcome of one verifier run.

    result is "verified", "counterexample", or "hypotheses-unmet"; hypotheses
    records each checked precondition, counts the enumeration sizes, and
    details carries traces, witnesses, and any emitted pack.
    """

    claim: str
    result: str
    hypotheses: dict
    counts: dict
    details: dict

    @property
    def exit_code(self) -> int:
        return {"verified": 0, "counterexample": 1, "hypotheses-unmet": 2}[self.result]

    def as_json(self) -> dict:
        return {
            "claim": self.claim,
            "result": self.result,
            "hypotheses": self.hypotheses,
            "counts": self.counts,
            "details": self.details,
        }


# ---------------------------------------------------------------------------
# length formula and subspace bookkeeping


def counterexample_length(q: int, k: int) -> int:
    """prod_{i=1}^{k-1} (1 + q^i), the common length of the paired codes."""
    if not isinstance(k, int) or k < 1:
        raise InputError(f"k must be a positive integer, got {k!r}")
    factor_prime_power(q)
    n = 1
    for i in range(1, k):
        n *= 1 + q**i
    return n


def _subspaces(alphabet: Module, guards: Guards) -> tuple[list, tuple]:
    """The subspaces of F_q^k, for the alphabet M_{m x k}(F_q), as sorted
    member-index tuples, ordered by (size, members), and the index add table
    of F_q^k: the submodules of the column module F_q^k over M_1(F_q), which
    is the alphabet itself when m = 1.  Index order is the lex order of
    vectors."""
    space, ring = alphabet, alphabet.ring
    if ring.descriptor["m"] != 1:
        field_ring = ring_make({"kind": "matrix", "m": 1, "q": ring.field.q}, guards)
        space = module_make(field_ring, alphabet.descriptor, guards)
    return [s.members for s in submodules_enumerate(space, guards)], space.add_table


def _projection(field: FiniteField, k: int, add, v: Sequence[int], w: Sequence[int]) -> Matrix:
    """The idempotent P with column space V and kernel W, for F_q^k = V + W
    direct, both given as member indices of the add table of F_q^k.  Each
    vector is x + y for exactly one x in V and y in W, and P sends it to x;
    column j of P is the image of the unit vector e_j, at index q^(k-1-j)."""
    q = field.q
    part = {add[x][y]: x for x in v for y in w}
    cols = [index_to_entries(part[q ** (k - 1 - j)], q, k) for j in range(k)]
    return Matrix(field, k, k, tuple(cols[j][i] for i in range(k) for j in range(k)))


def _coordinate_table(field: FiniteField, m: int, add, p: Matrix) -> tuple[int, ...]:
    """The index table of a -> a.P on M_{m x k}(F_q), for the k x k matrix P
    and the add table of F_q^k.  The rows of P are the images of the unit
    rows, so linear_table gives x -> x.P on F_q^k; the rows of a map
    independently, so the table for a is the mixed-radix product of m copies
    of that one, the first row most significant."""
    row = linear_table(field.mul_table, add, [p.row(j) for j in range(p.rows)])
    return product_map([row] * m)


# ---------------------------------------------------------------------------
# counterexample packs


@dataclasses.dataclass(frozen=True)
class CounterexamplePack:
    """A self-contained, replayable pair of codes with a verified
    weight-preserving but non-extendable isomorphism between them."""

    ring: dict
    alphabet: dict
    length: int
    construction: str
    params: dict
    generators_plus: tuple[Word, ...]
    generators_minus: tuple[Word, ...]
    gen_images: tuple[Word, ...]
    transcript: dict

    def as_json(self) -> dict:
        return {
            "format": "eplab-pack/1",
            "ring": self.ring,
            "alphabet": self.alphabet,
            "length": self.length,
            "construction": self.construction,
            "params": self.params,
            "generators_plus": [list(w) for w in self.generators_plus],
            "generators_minus": [list(w) for w in self.generators_minus],
            "gen_images": [list(w) for w in self.gen_images],
            "transcript": self.transcript,
        }


def pack_from_json(obj: dict) -> CounterexamplePack:
    if not isinstance(obj, dict):
        raise InputError("pack must be a JSON object")
    if obj.get("format") != "eplab-pack/1":
        raise InputError(f"unknown pack format {obj.get('format')!r}")
    if obj.get("construction") not in ("subspace", "pullback"):
        raise InputError(f"unknown pack construction {obj.get('construction')!r}")
    for key in ("params", "transcript"):
        if not isinstance(obj.get(key), dict):
            raise InputError(f"pack field {key!r} must be a JSON object")

    def plain_int(x):
        # bools and floats are rejected, as in codes._validate_word
        if type(x) is not int:
            raise InputError(f"pack entry {x!r} must be an integer")
        return x

    # replay_pack reads these to recompute the length formula and the verdict
    for key in ("q", "k"):
        if key not in obj["params"]:
            raise InputError(f"pack params need {key!r}")
        plain_int(obj["params"][key])
    required = obj["transcript"].get("required_checks", [])
    if not isinstance(required, list) or not all(isinstance(c, str) for c in required):
        raise InputError("pack transcript 'required_checks' must be a list of check names")

    def words(key):
        if not isinstance(obj[key], list) or not all(isinstance(w, list) for w in obj[key]):
            raise InputError(f"pack field {key!r} must be a list of words")
        return tuple(tuple(plain_int(x) for x in w) for w in obj[key])

    try:
        return CounterexamplePack(
            ring=obj["ring"],
            alphabet=obj["alphabet"],
            length=plain_int(obj["length"]),
            construction=str(obj["construction"]),
            params=obj["params"],
            generators_plus=words("generators_plus"),
            generators_minus=words("generators_minus"),
            gen_images=words("gen_images"),
            transcript=obj["transcript"],
        )
    except KeyError as exc:
        raise InputError(f"malformed pack: missing {exc}") from exc


def _zero_columns(code: Code) -> list[int]:
    zero = code.alphabet.zero
    return [
        j for j in range(code.length) if all(w[j] == zero for w in code.elements)
    ]


def _pack_checks(
    pack: CounterexamplePack, alphabet: Module, guards: Guards
) -> tuple[dict, dict, CodeMap]:
    """Run the machine checks of a pack over its alphabet.  The length
    formula comes from params q and k, the expected code size from params
    code_size.  Returns the checks, the non-extension certificate (the
    extension search over Aut(A), which decides without backtracking) and
    the checked code map."""
    q, k = pack.params["q"], pack.params["k"]
    cp = code_generate(alphabet, pack.length, pack.generators_plus, guards)
    cm = code_generate(alphabet, pack.length, pack.generators_minus, guards)
    cmap = code_map_make(cp, cm, pack.gen_images, guards)
    expected = pack.params.get("code_size", cp.size)
    # the formula is at least 2^(k-1), so a k that large cannot match and
    # the product is never computed
    checks = {
        "length_matches_formula": k - 1 <= pack.length.bit_length()
        and pack.length == counterexample_length(q, k)
    }
    checks["codes_bijective_image"] = cp.size == expected and cm.size == expected
    checks["hamming_preserved"] = map_preserves(cmap, "hamming", guards=guards)
    checks["swc_preserved"] = map_preserves(cmap, "swc", guards=guards)
    checks["plus_zero_column"] = len(_zero_columns(cp)) >= 1
    checks["minus_no_zero_column"] = len(_zero_columns(cm)) == 0
    search = extension_search(cmap, guards=guards)
    checks["no_extension"] = search.transform is None
    return checks, {"certificate": "exhaustive-search", "search_nodes": search.nodes}, cmap


def _sealed(
    pack: CounterexamplePack, alphabet: Module, guards: Guards, **fields
) -> tuple[CounterexamplePack, CodeMap]:
    """pack with its transcript, the checks, the certificate and then the
    construction's own fields, once every check passes, and its code map.
    A pulled-back pack that loses swc preservation is outside the verified
    construction; any other failed check is an internal error."""
    checks, certificate, cmap = _pack_checks(pack, alphabet, guards)
    if pack.construction == "pullback" and not checks["swc_preserved"]:
        raise UnsupportedConstruction(
            "the transported codes do not preserve swc over the full alphabet "
            "automorphism group; this alphabet is outside the verified construction"
        )
    if not all(checks.values()):
        raise InternalConsistencyError(f"{pack.construction} pack failed machine checks: {checks}")
    transcript = {"checks": checks, "required_checks": sorted(checks), **certificate, **fields}
    return dataclasses.replace(pack, transcript=transcript), cmap


def build_counterexample(m: int, k: int, q: int, guards: Guards = DEFAULT_GUARDS) -> CounterexamplePack:
    """Construct and machine-verify the paired codes over A = M_{m x k}(F_q)."""
    for name, value in (("m", m), ("k", k)):
        if not isinstance(value, int) or value < 1:
            raise InputError(f"{name} must be a positive integer, got {value!r}")
    if k <= m:
        raise InputError(f"the construction requires k > m, got k={k}, m={m}")
    ring = ring_make({"kind": "matrix", "m": m, "q": q}, guards)
    alphabet = module_make(ring, {"kind": "column", "k": k}, guards)
    return _subspace_pack(alphabet, guards)


def _subspace_pack(alphabet: Module, guards: Guards) -> CounterexamplePack:
    """The verified subspace pack over the column module A = M_{m x k}(F_q).

    Coordinates are indexed by subspaces V <= F_q^k with multiplicity
    q^(d(d-1)/2), even dimensions on the plus side and odd on the minus side;
    each coordinate sends a to a.P for an idempotent P projecting onto V.
    Copy t of V takes the t-th complement of V (cyclically) as the kernel of P.

    The construction is a single deterministic pass.  The kernel cannot affect
    any check: the left null space of a.P, which fixes its automorphism orbit,
    is {y : y.a in V^perp}, so the orbit of a.P depends on a and V alone.  A
    failed machine check is therefore an InternalConsistencyError, never a
    reason to retry.
    """
    ring = alphabet.ring
    field, m, k = ring.field, ring.descriptor["m"], alphabet.descriptor["k"]
    q = field.q

    subspaces, add = _subspaces(alphabet, guards)
    dims = [exact_exponent(len(s), q) for s in subspaces]
    member_sets = [set(sub) for sub in subspaces]
    complements = []
    for members, d in zip(member_sets, dims):
        options = [
            wi
            for wi, other in enumerate(member_sets)
            if dims[wi] == k - d and len(members & other) == 1
        ]
        complements.append(options)

    coords_plus, coords_minus = [], []
    for si in range(len(subspaces)):
        d = dims[si]
        copies = q ** (d * (d - 1) // 2)
        target = coords_plus if d % 2 == 0 else coords_minus
        target.extend((si, t) for t in range(copies))
    if len(coords_plus) != len(coords_minus):
        raise InternalConsistencyError(
            f"coordinate counts {len(coords_plus)}/{len(coords_minus)} differ"
        )

    gens = module_generators(alphabet)
    vectors = [list(index_to_entries(x, q, k)) for x in range(len(add))]
    listings = [[vectors[x] for x in sub] for sub in subspaces]  # one list per subspace

    def assignment(coords):
        return [(si, complements[si][t % len(complements[si])]) for si, t in coords]

    def word_of(a, assign):
        return tuple(tables[pair][a] for pair in assign)

    def coord_json(assign, coords):
        return [
            {"dim": dims[si], "copy": t, "subspace": listings[si], "kernel": listings[wi]}
            for (si, wi), (_, t) in zip(assign, coords)
        ]

    assign_plus = assignment(coords_plus)
    assign_minus = assignment(coords_minus)
    tables = {}  # one table of the linear map a -> a.P per distinct P
    for si, wi in set(assign_plus + assign_minus):
        p = _projection(field, k, add, subspaces[si], subspaces[wi])
        tables[si, wi] = _coordinate_table(field, m, add, p)
    gens_minus = tuple(word_of(g, assign_minus) for g in gens)
    pack = CounterexamplePack(
        ring=ring.descriptor,
        alphabet=alphabet.descriptor,
        length=len(coords_plus),
        construction="subspace",
        params={"m": m, "k": k, "q": q, "code_size": alphabet.order},
        generators_plus=tuple(word_of(g, assign_plus) for g in gens),
        generators_minus=gens_minus,
        gen_images=gens_minus,
        transcript={},
    )
    pack, cmap = _sealed(
        pack, alphabet, guards,
        attempt=0,
        coordinates={
            "plus": coord_json(assign_plus, coords_plus),
            "minus": coord_json(assign_minus, coords_minus),
        },
    )
    sides = (("plus", cmap.source, assign_plus), ("minus", cmap.target, assign_minus))
    for side, code, assign in sides:
        if set(code.elements) != {word_of(a, assign) for a in alphabet.elements()}:
            raise InternalConsistencyError(f"{side} code differs from the full word image")
    return pack


def replay_pack(pack: CounterexamplePack, guards: Guards = DEFAULT_GUARDS) -> VerdictReport:
    """Reload a pack and re-run every machine check; it replays as verified
    only when all of them pass.  A transcript that lists its required checks
    must list exactly these."""
    q = pack.params["q"]
    check_guard(q, guards.max_field, f"field order {q}")
    ring = ring_make(pack.ring, guards)
    alphabet = module_make(ring, pack.alphabet, guards)
    checks, certificate, cmap = _pack_checks(pack, alphabet, guards)
    required = pack.transcript.get("required_checks", sorted(checks))
    if sorted(required) != sorted(checks):
        raise InputError(f"pack transcript 'required_checks' must be {sorted(checks)}")
    return VerdictReport(
        claim="stored pack replays as a verified counterexample",
        result="verified" if all(checks.values()) else "counterexample",
        hypotheses={},
        counts={"code_size": cmap.source.size, "length": pack.length},
        details={"checks": checks, **certificate},
    )


# ---------------------------------------------------------------------------
# orbit lemma


def verify_orbit_lemma(alphabet: Module, guards: Guards = DEFAULT_GUARDS) -> VerdictReport:
    """Check that automorphism orbits coincide with annihilator classes.

    The refinement (orbits sit inside annihilator classes) is asserted
    unconditionally; the coincidence is claimed only under pseudo-injectivity.
    """
    claim = "automorphism orbits coincide with annihilator classes"
    pseudo = is_pseudo_injective(alphabet, guards)
    orbits = partition(alphabet, "orbit", guards=guards)
    anns = partition(alphabet, "annihilator", guards=guards)

    violator = _orbit_refinement_violator(orbits, anns)
    equal = orbits == anns

    hypotheses = {"pseudo_injective": pseudo}
    counts = {"orbit_classes": len(set(orbits)), "annihilator_classes": len(set(anns))}
    details = {
        "refinement_holds": violator is None,
        "partitions_equal": equal,
        "orbit_labels": list(orbits),
        "annihilator_labels": list(anns),
    }
    if violator is not None:
        rep = orbits[violator]
        details["refinement_witness"] = {"element": violator, "orbit_label": rep}
        return VerdictReport(claim, "counterexample", hypotheses, counts, details)
    if not pseudo:
        return VerdictReport(claim, "hypotheses-unmet", hypotheses, counts, details)
    if not equal:
        mism = next(a for a in alphabet.elements() if orbits[a] != anns[a])
        details["witness"] = {"element": mism}
        return VerdictReport(claim, "counterexample", hypotheses, counts, details)
    return VerdictReport(claim, "verified", hypotheses, counts, details)


def _orbit_refinement_violator(orbit: Sequence[int], anns: Sequence[int]) -> Optional[int]:
    """The first element whose annihilator label differs from its orbit
    leader's, or None when automorphism orbits refine annihilator classes."""
    return next((a for a, rep in enumerate(orbit) if anns[a] != anns[rep]), None)


# ---------------------------------------------------------------------------
# peeling


def midway_peeling(cmap: CodeMap, guards: Guards = DEFAULT_GUARDS) -> VerdictReport:
    """Certify annihilator-weight preservation stage by stage.

    For each codeword pair, repeatedly pick a maximal annihilator among the
    remaining components of both words, act by a principal generator of it,
    and check that the counts removed on the two sides balance.
    """
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
        rems, steps = [list(word), list(image)], []
        while any(rems):
            present = {anns[x] for rem in rems for x in rem}
            maximal = [i for i in present if not any(i < j for j in present)]
            ideal = min(maximal, key=sorted)
            members = sorted(ideal)
            e = principal_generator(ring, Submodule(tuple(members)), guards)
            # e generates I, and I is maximal here: e*x = 0 exactly when Ann(x) == I
            exact = [[x for x in rem if anns[x] == ideal] for rem in rems]
            if [[x for x in rem if act[e][x] == zero] for rem in rems] != exact:
                raise InternalConsistencyError(
                    "principal generator does not isolate its maximal annihilator stage"
                )
            source, target = map(len, exact)
            steps.append(
                {"ideal": members, "generator": e,
                 "removed_source": source, "removed_image": target}
            )
            if source != target:
                witness = {"word": list(word), "image": list(image), "stage": len(steps) - 1}
                break
            rems = [[x for x in rem if anns[x] != ideal] for rem in rems]
        total_stages += len(steps)
        trace.append({"word": list(word), "image": list(image), "steps": steps})
        if witness is not None:
            break

    counts = {"words": len(cmap.mapping), "stages": total_stages}
    details: dict = {"trace": trace}
    if witness is not None:
        details["witness"] = witness
        return VerdictReport(claim, "counterexample", hypotheses, counts, details)
    return VerdictReport(claim, "verified", hypotheses, counts, details)


# ---------------------------------------------------------------------------
# the sweep kernel shared by the midway and sufficiency verifiers


@dataclasses.dataclass
class _Lattice:
    """One length n of a sweep: words[x] is the word at ambient index x of
    A^n, profiles[x] an id of its sorted orbit labels, and codes the first
    code of each orbit that orbit_lattice lists.  code(k) builds codes[k]
    as a Code once, shared with its column fingerprints by every map listed
    from or onto it; a code's elements follow its ascending members."""

    alphabet: Module
    words: list[Word]
    profiles: list[int]
    codes: tuple[Submodule, ...]
    built: dict[int, Code] = dataclasses.field(default_factory=dict)

    def code(self, k: int) -> Code:
        if k not in self.built:
            words, sub = self.words, self.codes[k]
            self.built[k] = Code(
                self.alphabet,
                len(words[0]),
                tuple(words[g] for g in sub.generators),
                tuple(words[x] for x in sub.members),
            )
        return self.built[k]


def _code_map_from_tuple(lattice: _Lattice, i: int, j: int, fmap: Sequence[int]) -> CodeMap:
    """The code map from codes[i] onto codes[j] of fmap, the images of the
    members of codes[i] in order.  Only the mapping and the generator images
    are built here; both codes come from the lattice."""
    source = lattice.code(i)
    mapping = dict(zip(source.elements, map(lattice.words.__getitem__, fmap)))
    return CodeMap(source, lattice.code(j), tuple(mapping[g] for g in source.generators), mapping)


def _monomial_generators(alphabet: Module, words: list[Word], guards: Guards) -> list[Sequence[int]]:
    """Generators of the monomial group S_n x| Aut(A)^n as permutations of
    the word indices: the transposition (0 1), the n-cycle and the
    generators of Aut(A) acting on position 0."""
    n = len(words[0])
    q = alphabet.order
    orders = [[1, 0, *range(2, n)], [*range(1, n), 0]] if n > 1 else []
    perms = [[entries_to_index([w[i] for i in order], q) for w in words] for order in orders]
    rest = range(q ** (n - 1))
    for sigma in automorphism_group(alphabet, guards).generators:
        perms.append(product_map([sigma, rest]))
    return perms


def _sweep_bounds(
    guards: Guards, max_n: Optional[int], max_gens: Optional[int]
) -> tuple[int, int, bool]:
    """The sweep bounds (max_n, max_gens, strict).  Each defaults to its guard
    and must be a positive int, as a guard must; strict records that max_n
    was given explicitly."""
    for name, bound in (("max_n", max_n), ("max_gens", max_gens)):
        if bound is None:
            continue
        if type(bound) is not int:
            raise InputError(f"{name} must be an integer, got {bound!r}")
        if bound < 1:
            raise InputError(f"{name} must be positive, got {bound}")
    if max_gens is None:
        max_gens = guards.max_gens
    if max_n is None:
        return guards.max_n, max_gens, False
    return max_n, max_gens, True


def _sweep_lengths(alphabet: Module, guards: Guards, bounds, counts: dict, details: dict, key: str):
    """Yield (n, ambient, lattice, keys, sizes, leader, aut, keyed) for each
    length n = 1..max_n: ambient = A^n; the _Lattice of its words, their
    profiles and the first code of each orbit of its codes that need at most
    max_gens generators, from orbit_lattice under _monomial_generators;
    keys[x], an id of the key weight (a kind of weight_labels) of word x;
    sizes[i], the orbit size of codes[i], summed into counts["codes"] when
    the length starts; leader[i], the first code isomorphic to codes[i]
    (isomorphism_leaders); aut[leader[i]], the _group of codes[i]; and
    keyed(i), that of the automorphisms of codes[i] that keep keys
    (_keyed_group).  A code over the max_code guard raises GuardExceeded
    before its length is searched.  details gets "lengths" and
    "max_generators"; bounds comes from _sweep_bounds.  A length whose
    ambient order overflows the guard ends the sweep, or raises when max_n
    was given explicitly or n = 1."""
    max_n, max_gens, strict = bounds
    details.update(lengths=[], max_generators=max_gens)
    labels = partition(alphabet, "orbit", guards=guards)
    groups: dict = {}
    for n in range(1, max_n + 1):
        if alphabet.order**n > guards.max_order:
            if strict or n == 1:
                raise GuardExceeded(
                    f"ambient order {alphabet.order}^{n} exceeds guard {guards.max_order}"
                )
            return
        details["lengths"].append(n)
        ambient = direct_power(alphabet, n, guards)
        words = [index_to_entries(x, alphabet.order, n) for x in ambient.elements()]
        # one numbering of sorted label tuples: two words get equal ids in
        # either list exactly when they have equal weights of its kind
        ids: dict = {}
        profiles, keys = (
            [ids.setdefault(tuple(sorted(map(table.__getitem__, w))), len(ids)) for w in words]
            for table in (labels, weight_labels(alphabet, key, guards))
        )
        orbits = orbit_lattice(
            ambient, _monomial_generators(alphabet, words, guards), guards, max_gens
        )
        codes, orbit_size = zip(*orbits)
        counts["codes"] += sum(orbit_size)
        for code in codes:
            check_guard(len(code.members), guards.max_code, "code size")
        leader, isos = isomorphism_leaders(ambient, codes, range(len(codes)))
        aut = {i: _group(groups, ambient, codes[i]) for i in set(leader.values())}
        keyed = functools.partial(_keyed_group, groups, ambient, codes, keys, leader, isos, aut)
        lattice = _Lattice(alphabet, words, profiles, codes)
        yield n, ambient, lattice, keys, orbit_size, leader, aut, keyed


def _keeps(table: Sequence, members: Sequence[int], fmap: Sequence[int]) -> bool:
    """Whether fmap, the images of members in order, keeps table on them."""
    return list(map(table.__getitem__, members)) == list(map(table.__getitem__, fmap))


def _group(groups: dict, ambient: Module, code: Submodule, keys=None) -> tuple[int, list]:
    """The chain_group of stabilizer_chain on code, keyed on keys if given,
    once per member tuple: a code of length n comes back at n + 1 as the same
    indices with a zero first column, where tables and weights agree."""
    slot = (code.members, keys is None)
    if slot not in groups:
        groups[slot] = chain_group(stabilizer_chain(ambient, code.generators, key=keys))
    return groups[slot]


def _keyed_group(groups, ambient, codes, keys, leader, isos, aut, i: int) -> tuple[int, list]:
    """The _group of codes[i] keyed on keys, with no keyed chain when the
    automorphisms aut[j] kept, j = leader[i], carried by isos[i] onto
    generators of Aut(codes[i]), all keep keys, so that Aut(codes[i]) does."""
    code, j = codes[i], leader[i]
    if (code.members, False) not in groups:
        back = dict(zip(isos[i], code.members))
        position = {y: p for p, y in enumerate(codes[j].members)}
        kept = [tuple([back[h[position[y]]] for y in isos[i]]) for h in aut[j][1]]
        if all(_keeps(keys, code.members, h) for h in kept):
            groups[code.members, False] = aut[j][0], kept
    return _group(groups, ambient, code, keys)


def _pairs(ambient: Module, codes: Sequence[Submodule], keys, leader: dict):
    """Yield (i, j, first) for the pairs of codes of one isomorphism class, in
    list order: first, the first map codes[i] -> codes[j] that keeps keys,
    or None, is the identity for i = j, else a first-leaf search if the
    multisets of keys agree.  The maps that keep keys are first.Aut_k(C_i)."""
    multisets = [sorted(map(keys.__getitem__, code.members)) for code in codes]
    classes: dict = {}
    for j, first in leader.items():
        classes.setdefault(first, []).append(j)
    for i, code in enumerate(codes):
        for j in classes[leader[i]]:
            first = code.members if i == j else None
            if i != j and multisets[i] == multisets[j]:
                first = next(iter_linear_maps(
                    ambient, ambient, code.generators, True,
                    target_members=codes[j].members, key=keys,
                ), None)
            yield i, j, first


def _failing_pair(ambient: Module, lattice: _Lattice, n: int, i: int, j: int, keys):
    """Yield the isomorphisms lattice.codes[i] -> codes[j] that keep keys, as
    the images of the members of codes[i], for a pair whose group orders show
    a witness; running out of maps raises."""
    yield from iter_linear_maps(
        ambient, ambient, lattice.codes[i].generators, True,
        target_members=lattice.codes[j].members, key=keys,
    )
    raise InternalConsistencyError(f"the group orders at length {n} disagree, yet no map fails")


def _witness(n: int, cmap: CodeMap, **extra) -> dict:
    """The fields every sweep witness shares, followed by extra."""
    return {
        "length": n,
        "generators": [list(w) for w in cmap.source.generators],
        "gen_images": [list(w) for w in cmap.gen_images],
        **extra,
    }


# ---------------------------------------------------------------------------
# the midway equivalence sweep


def verify_midway(
    alphabet: Module,
    guards: Guards = DEFAULT_GUARDS,
    max_n: Optional[int] = None,
    max_gens: Optional[int] = None,
) -> VerdictReport:
    """Sweep all codes and linear monomorphisms within bounds and assert that
    Hamming preservation and swc preservation coincide.

    Each pair (C_i, C_j) of _pairs adds |orbit_i| * |orbit_j| * |Aut(C_i)|
    to "monomorphisms".  Its Hamming-preserving maps are none or the coset
    first.H, H generated by the kept maps of keyed(i); all keep swc exactly
    when first and those do, and then the pair adds |orbit_i| * |orbit_j| *
    |H| to "hamming_preserving" and "peeled".  Unlike sufficiency, it passes
    no code by |E(C)| = |Aut(C)|, which rests on monomial transforms keeping
    swc profiles.  The first pair that fails is listed (_failing_pair)."""
    claim = "Hamming preservation is equivalent to swc preservation for code monomorphisms"
    bounds = _sweep_bounds(guards, max_n, max_gens)
    ring = alphabet.ring
    hypotheses = {
        "ring_left_pir": is_left_pir(ring, guards),
        "alphabet_pseudo_injective": is_pseudo_injective(alphabet, guards),
    }
    if not all(hypotheses.values()):
        return VerdictReport(
            claim, "hypotheses-unmet", hypotheses, {},
            {"note": "the equivalence is claimed for principal ideal rings and pseudo-injective alphabets"},
        )
    orbit = partition(alphabet, "orbit", guards=guards)
    anns = partition(alphabet, "annihilator", guards=guards)
    if _orbit_refinement_violator(orbit, anns) is not None:
        raise InternalConsistencyError("automorphism orbits do not refine annihilator classes")

    counts = {"codes": 0, "monomorphisms": 0, "hamming_preserving": 0, "peeled": 0}
    details: dict = {}
    # 0 is alone in its orbit, so swc preservation implies Hamming
    # preservation: keying on Hamming weights loses no tallied map or witness
    for n, ambient, lattice, keys, sizes, leader, aut, keyed in _sweep_lengths(
        alphabet, guards, bounds, counts, details, "hamming"
    ):
        for i, j, first in _pairs(ambient, lattice.codes, keys, leader):
            weight = sizes[i] * sizes[j]
            counts["monomorphisms"] += weight * aut[leader[i]][0]
            if first is None:
                continue
            order, kept = keyed(i)
            members = lattice.codes[i].members
            # a map tallied counts as peeled: equal orbit profiles give equal
            # annihilator multisets, as orbits refine annihilator classes, and a
            # peel of equal multisets removes equal counts at every stage
            if all(_keeps(lattice.profiles, members, h) for h in (first, *kept)):
                counts["hamming_preserving"] += weight * order
                counts["peeled"] += weight * order
                continue
            for fmap in _failing_pair(ambient, lattice, n, i, j, keys):
                if not _keeps(lattice.profiles, members, fmap):
                    cmap = _code_map_from_tuple(lattice, i, j, fmap)
                    details["witness"] = _witness(n, cmap, hamming_preserved=True, swc_preserved=False)
                    return VerdictReport(claim, "counterexample", hypotheses, counts, details)
                counts["hamming_preserving"] += weight
                counts["peeled"] += weight
    return VerdictReport(claim, "verified", hypotheses, counts, details)


# ---------------------------------------------------------------------------
# sufficiency sweep


def verify_sufficiency(
    alphabet: Module,
    guards: Guards = DEFAULT_GUARDS,
    max_n: Optional[int] = None,
    max_gens: Optional[int] = None,
) -> VerdictReport:
    """For a cyclic-socle alphabet, check that every swc-preserving
    isomorphism between enumerated codes extends to a monomial transform.

    Each pair (C_i, C_j) of _pairs adds |orbit_i| * |orbit_j| * |Aut(C_i)|
    to "isomorphisms".  A transform extending C_i -> C_j maps C_i onto C_j,
    so for i != j the pair's first map is a witness.  For i = j, the
    swc-preserving automorphisms P(C), of the order of keyed(i), all extend
    exactly when |P(C)| = |E(C)| (_extending_order), which holds with no
    keyed chain when |E(C)| = |Aut(C)|, as E(C) <= P(C) <= Aut(C); the pair
    then adds |orbit(C)|^2 * |E(C)| to "swc_preserving" and "extended".  That
    pass rests on monomial transforms keeping swc profiles, so a generator of
    Aut(A) that moves an orbit label raises InternalConsistencyError before
    the first length.  The first pair that fails is listed (_failing_pair)
    for extension_search."""
    claim = "every swc-preserving code isomorphism extends to a monomial transform"
    bounds = _sweep_bounds(guards, max_n, max_gens)
    report = socle_report(alphabet, guards)
    hypotheses = {"socle_cyclic": report.cyclic}
    if not report.cyclic:
        return VerdictReport(
            claim, "hypotheses-unmet", hypotheses, {},
            {"note": "the extension property is only claimed for cyclic socles"},
        )

    labels = partition(alphabet, "orbit", guards=guards)
    for sigma in automorphism_group(alphabet, guards).generators:
        if any(labels[sigma[a]] != labels[a] for a in alphabet.elements()):
            raise InternalConsistencyError("an automorphism moves an element out of its orbit")

    counts = {"codes": 0, "isomorphisms": 0, "swc_preserving": 0, "extended": 0}
    details: dict = {}
    for n, ambient, lattice, keys, sizes, leader, aut, keyed in _sweep_lengths(
        alphabet, guards, bounds, counts, details, "swc"
    ):
        for i, j, first in _pairs(ambient, lattice.codes, keys, leader):
            weight = sizes[i] * sizes[j]
            whole = aut[leader[i]][0]
            counts["isomorphisms"] += weight * whole
            if i == j:
                gen_words = [lattice.words[g] for g in lattice.codes[i].generators]
                extending = _extending_order(alphabet, n, gen_words, sizes[i], guards)
                if extending == whole or extending == keyed(i)[0]:
                    counts["swc_preserving"] += weight * extending
                    counts["extended"] += weight * extending
                    continue
            elif first is None:
                continue
            for fmap in _failing_pair(ambient, lattice, n, i, j, keys):
                counts["swc_preserving"] += weight
                cmap = _code_map_from_tuple(lattice, i, j, fmap)
                if extension_search(cmap, guards=guards).transform is None:
                    details["witness"] = _witness(n, cmap)
                    return VerdictReport(claim, "counterexample", hypotheses, counts, details)
                counts["extended"] += weight
    return VerdictReport(claim, "verified", hypotheses, counts, details)


def _extending_order(
    alphabet: Module, n: int, gen_words: Sequence[Word], orbit_size: int, guards: Guards
) -> int:
    """|E(C)|, the number of automorphisms of the code C spanned by gen_words
    that extend to monomial transforms.  They are the restrictions to C of
    its stabilizer in G = S_n x| Aut(A)^n, of order |G| / |orbit(C)|, and
    two restrict alike exactly when they differ by a transform that fixes C
    pointwise, so |E(C)| = |G| / (|orbit(C)| * |K(C)|).  An orbit size and
    K(C) whose product does not divide |G| raise InternalConsistencyError."""
    whole = math.factorial(n) * automorphism_group(alphabet, guards).order ** n
    fixing = orbit_size * fixing_order(alphabet, n, gen_words, guards)
    if whole % fixing:
        raise InternalConsistencyError(
            f"an orbit of {orbit_size} codes of length {n} does not divide the monomial group"
        )
    return whole // fixing


# ---------------------------------------------------------------------------
# necessity pipeline


def verify_necessity(alphabet: Module, guards: Guards = DEFAULT_GUARDS) -> VerdictReport:
    """For a non-cyclic socle, build a verified counterexample pack over the
    alphabet by pulling the matrix-module construction back through the
    Wedderburn block of the simple whose multiplicity s exceeds mu.  That
    block's projection is the one whose kernel is the simple's two-sided
    annihilator {r : rR <= ann}."""
    claim = "a non-cyclic socle admits a weight-preserving non-extendable code isomorphism"
    ring = alphabet.ring
    report = socle_report(alphabet, guards)
    hypotheses = {"socle_not_cyclic": not report.cyclic}
    if report.cyclic:
        return VerdictReport(
            claim, "hypotheses-unmet", hypotheses, {},
            {"note": "the socle is cyclic, so no counterexample is guaranteed"},
        )

    index = next(i for i, row in enumerate(report.rows) if row[2] > row[1])
    q_block, mu, s, _ = report.rows[index]
    k = mu + 1
    block_ring = ring_make({"kind": "matrix", "m": mu, "q": q_block}, guards)
    block_alphabet = module_make(block_ring, {"kind": "column", "k": k}, guards)
    block_pack = _subspace_pack(block_alphabet, guards)

    ann = simple_classes(ring, guards)[index].ann
    kernel = [r for r in ring.elements() if all(x in ann for x in ring.mul_table[r])]
    chosen = next(
        (bp for bp in block_projections(ring, guards)
         if [r for r, x in enumerate(bp.proj) if x == 0] == kernel),
        None,
    )
    if chosen is None:
        raise InternalConsistencyError("no block projection matches the violating socle block")

    pulled = Module(
        ring, block_alphabet.add_table,
        tuple(block_alphabet.act_table[x] for x in chosen.proj),
        block_alphabet.zero, {"kind": "pullback_block"},
    )
    iota = embedding_search(pulled, alphabet)
    if iota is None:
        raise InternalConsistencyError(
            "socle multiplicity guarantees an embedding of the pulled-back block module"
        )

    def transport(words: tuple[Word, ...]) -> tuple[Word, ...]:
        return tuple(tuple(iota[c] for c in word) for word in words)

    gens_minus = transport(block_pack.generators_minus)
    transported = dataclasses.replace(
        block_pack,
        ring=ring.descriptor,
        alphabet=alphabet.descriptor,
        construction="pullback",
        generators_plus=transport(block_pack.generators_plus),
        generators_minus=gens_minus,
        gen_images=gens_minus,
    )
    pack, cmap = _sealed(
        transported, alphabet, guards,
        coordinates=block_pack.transcript["coordinates"],
        block={
            "q": q_block,
            "mu": mu,
            "s": s,
            "k": k,
            "embedding": list(iota),
            "construction": block_pack.construction,
        },
    )
    counts = {"length": pack.length, "code_size": cmap.source.size, "socle_blocks": len(report.rows)}
    return VerdictReport(
        claim, "counterexample", hypotheses, counts, {"pack": pack.as_json()}
    )


# ---------------------------------------------------------------------------
# the aggregate driver


def verify_all(
    alphabet: Module,
    guards: Guards = DEFAULT_GUARDS,
    max_n: Optional[int] = None,
    max_gens: Optional[int] = None,
) -> VerdictReport:
    """Run the orbit lemma, the midway sweep, and whichever of the
    sufficiency/necessity drivers the socle shape selects; verified when
    every applicable claim lands in its expected state."""
    claim = "all applicable extension-property claims hold at the verified scope"
    report = socle_report(alphabet, guards)
    sub_reports = {
        "orbit_lemma": verify_orbit_lemma(alphabet, guards),
        "midway": verify_midway(alphabet, guards, max_n, max_gens),
    }
    if report.cyclic:
        sub_reports["sufficiency"] = verify_sufficiency(alphabet, guards, max_n, max_gens)
        branch_ok = sub_reports["sufficiency"].result == "verified"
    else:
        sub_reports["necessity"] = verify_necessity(alphabet, guards)
        branch_ok = sub_reports["necessity"].result == "counterexample"

    lemma_ok = all(
        sub_reports[name].result in ("verified", "hypotheses-unmet")
        for name in ("orbit_lemma", "midway")
    )
    hypotheses = {"socle_cyclic": report.cyclic}
    counts = {name: rep.result for name, rep in sub_reports.items()}
    details = {"reports": {name: rep.as_json() for name, rep in sub_reports.items()}}
    ok = lemma_ok and branch_ok
    return VerdictReport(
        claim,
        "verified" if ok else "counterexample",
        hypotheses,
        {"sub_results": counts},
        details,
    )
