"""Linear codes over a finite module alphabet, weights, and extension search.

A code is a materialized submodule of A^n, stored as sorted words (tuples of
module element indices).  Each weight labels the alphabet's elements, and two
words have equal weight exactly when their sorted labels agree:

    hamming  -- 0 for zero, 1 for every other element
    swc      -- the element's orbit under the alphabet's automorphisms
    aw       -- the element's annihilator class

Monomial transforms combine a length-n position permutation with one alphabet
automorphism per position; extension_search decides whether a code map is the
restriction of such a transform, and fixing_order counts the transforms that
fix a code word by word.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from collections import Counter
from typing import Optional, Sequence

from .errors import (
    DEFAULT_GUARDS,
    Guards,
    InputError,
    InternalConsistencyError,
    check_guard,
)
from .modules import Module, automorphism_group, partition

Word = tuple[int, ...]


def _validate_word(alphabet: Module, n: Optional[int], word: Sequence[int]) -> Word:
    """The word as a tuple of alphabet elements; n None accepts any length."""
    if not isinstance(word, (list, tuple)):
        raise InputError(f"word {word!r} must be a list of alphabet elements")
    w = tuple(word)
    if n is not None and len(w) != n:
        raise InputError(f"word length {len(w)} differs from code length {n}")
    for x in w:
        if type(x) is not int or not 0 <= x < alphabet.order:
            raise InputError(f"word entry {x!r} outside alphabet of order {alphabet.order}")
    return w


def _validate_words(alphabet: Module, n: int, words: Sequence[Sequence[int]]) -> tuple[Word, ...]:
    if not isinstance(words, (list, tuple)):
        raise InputError(f"expected a list of words, got {words!r}")
    return tuple(_validate_word(alphabet, n, w) for w in words)


def word_add(alphabet: Module, u: Word, v: Word) -> Word:
    add = alphabet.add_table
    return tuple(add[a][b] for a, b in zip(u, v))


def word_act(alphabet: Module, r: int, u: Word) -> Word:
    row = alphabet.act_table[r]
    return tuple(row[a] for a in u)


@dataclasses.dataclass(frozen=True)
class Code:
    """A left submodule of A^n with its generating words and all elements."""

    alphabet: Module
    length: int
    generators: tuple[Word, ...]
    elements: tuple[Word, ...]

    @property
    def size(self) -> int:
        return len(self.elements)

    @functools.cached_property
    def _members(self) -> frozenset:
        return frozenset(self.elements)

    @functools.cached_property
    def _columns(self) -> tuple[tuple[int, ...], ...]:
        """Column i holds position i of every word, in the order of elements."""
        return tuple(zip(*self.elements))

    def __contains__(self, word):
        return tuple(word) in self._members

    def column_fingerprints(self, labels: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
        """The multiset (sorted tuple) of the labels in each column, computed
        once per code and label tuple."""
        cache = self.__dict__.setdefault("_fingerprints", {})
        if labels not in cache:
            label = labels.__getitem__
            cache[labels] = tuple(tuple(sorted(map(label, c))) for c in self._columns)
        return cache[labels]


def code_generate(
    alphabet: Module,
    length: int,
    generators: Sequence[Sequence[int]],
    guards: Guards = DEFAULT_GUARDS,
) -> Code:
    """Close the generating words under addition and the ring action: the
    members grow by each distinct multiple r*g of one generator at a time."""
    if length < 1:
        raise InputError(f"code length must be positive, got {length}")
    gens = _validate_words(alphabet, length, generators)
    zero = (alphabet.zero,) * length
    members = {zero}
    ring = alphabet.ring
    for g in gens:
        scaled = {word_act(alphabet, r, g) for r in ring.elements()}
        members = {word_add(alphabet, s, sg) for s in members for sg in scaled}
        check_guard(len(members), guards.max_code, "code size")
    return Code(alphabet, length, gens, tuple(sorted(members)))


def weight_labels(alphabet: Module, kind: str, guards: Guards = DEFAULT_GUARDS) -> tuple[int, ...]:
    """The labels of the alphabet's elements that a weight kind compares."""
    if kind == "hamming":
        return tuple(int(a != alphabet.zero) for a in alphabet.elements())
    if kind == "swc":
        return partition(alphabet, "orbit", guards)
    if kind == "aw":
        return partition(alphabet, "annihilator", guards)
    raise InputError(f"unknown weight kind {kind!r}")


def weight_profile(
    alphabet: Module,
    word: Sequence[int],
    kind: str,
    guards: Guards = DEFAULT_GUARDS,
) -> dict[str, int]:
    """The weight of a word as reports print it: the count of each label, by
    label, and for Hamming weight the count of nonzero entries."""
    w = _validate_word(alphabet, None, word)
    labels = sorted(map(weight_labels(alphabet, kind, guards).__getitem__, w))
    if kind == "hamming":
        return {"nonzero": sum(labels)}
    return {str(k): labels.count(k) for k in sorted(set(labels))}


# ---------------------------------------------------------------------------
# monomial transforms


@dataclasses.dataclass(frozen=True)
class MonomialTransform:
    """Position permutation sigma plus one alphabet automorphism per position.

    Output position i receives tau_i applied to input position sigma[i].
    """

    sigma: tuple[int, ...]
    taus: tuple[tuple[int, ...], ...]


def fixing_order(
    alphabet: Module, n: int, gen_words: Sequence[Word], guards: Guards = DEFAULT_GUARDS
) -> int:
    """|K(C)|, the number of monomial transforms (sigma, tau) of A^n that fix
    every word of the code C spanned by gen_words.  Such a transform fixes
    every generator exactly when tau_i sends column sigma[i] of the
    generators, a tuple in A^k, to column i; so sigma permutes the columns
    within their Aut(A)-orbits, freely, and each tau_i is one of the s
    automorphisms in a coset of the column's stabilizer.  A class of m
    columns, of stabilizer order s each, gives m! * s^m.  A zero column,
    and every column of the zero code, has s = |Aut(A)|.  The orbit of each
    column under the generators of Aut(A) is cached on the alphabet."""
    group = automorphism_group(alphabet, guards)
    orbits = alphabet._cache.setdefault("column_orbits", {})
    classes = Counter()
    for column in zip(*gen_words) if gen_words else [()] * n:
        if column not in orbits:
            orbit, queue = {column}, [column]
            for c in queue:
                for t in group.generators:
                    d = tuple([t[a] for a in c])
                    if d not in orbit:
                        orbit.add(d)
                        queue.append(d)
            label = (min(orbit), len(orbit))
            orbits.update(dict.fromkeys(orbit, label))
        classes[orbits[column]] += 1
    return math.prod(
        math.factorial(m) * (group.order // size) ** m for (_, size), m in classes.items()
    )


# ---------------------------------------------------------------------------
# code maps


@dataclasses.dataclass(frozen=True)
class CodeMap:
    """A module isomorphism between two codes of the same length, materialized
    word by word."""

    source: Code
    target: Code
    gen_images: tuple[Word, ...]
    mapping: dict[Word, Word] = dataclasses.field(compare=False)


def code_map_make(
    source: Code,
    target: Code,
    gen_images: Sequence[Sequence[int]],
    guards: Guards = DEFAULT_GUARDS,
) -> CodeMap:
    """Build the linear map sending source generators to the given images.

    Raises InputError when the assignment is not well defined, not injective,
    or its image is not exactly the target code.  Each generator g with image
    f(g) extends the map by the distinct pairs (r*g, r*f(g)); two pairs that
    share r*g but not r*f(g) meet at s = 0 and raise.
    """
    if source.alphabet is not target.alphabet:
        raise InputError("source and target codes must share an alphabet")
    if source.length != target.length:
        raise InputError("source and target codes must share a length")
    alphabet = source.alphabet
    n = source.length
    images = _validate_words(alphabet, n, gen_images)
    if len(images) != len(source.generators):
        raise InputError(
            f"expected {len(source.generators)} generator images, got {len(images)}"
        )
    ring = alphabet.ring
    zero = (alphabet.zero,) * n
    mapping = {zero: zero}
    for g, fg in zip(source.generators, images):
        new = {}
        pairs = {(word_act(alphabet, r, g), word_act(alphabet, r, fg)) for r in ring.elements()}
        for rg, rfg in pairs:
            for s, fs in mapping.items():
                key = word_add(alphabet, s, rg)
                val = word_add(alphabet, fs, rfg)
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
    return CodeMap(source, target, images, mapping)


def map_preserves(
    cmap: CodeMap,
    kind: str,
    guards: Guards = DEFAULT_GUARDS,
) -> bool:
    """Whether each word and its image have equal weights of this kind."""
    label = weight_labels(cmap.source.alphabet, kind, guards).__getitem__
    pairs = cmap.mapping.items()
    return all(sorted(map(label, w)) == sorted(map(label, v)) for w, v in pairs)


# ---------------------------------------------------------------------------
# extension search


@dataclasses.dataclass(frozen=True)
class ExtensionResult:
    """Outcome of an extension search over Aut(A).

    transform is None exactly when no monomial transform restricts to the
    map.  nodes is the code length when a transform is found and 0
    otherwise: the search assigns each target position once and never
    backtracks.
    """

    transform: Optional[MonomialTransform]
    nodes: int
    candidate_space: int
    group_order: int


def extension_search(cmap: CodeMap, guards: Guards = DEFAULT_GUARDS) -> ExtensionResult:
    """Find the lexicographically least monomial transform over Aut(A) that
    agrees with the code map, or show that none exists.

    By linearity a transform agrees with the map on the whole code exactly
    when it agrees on the generators.  Some tau sends source generator column
    j to image column i exactly when the two lie in one Aut(A)-orbit of A^k,
    so the feasible position pairs form disjoint complete bipartite blocks.
    Matching each target position i, in increasing order, to the first free
    source position j of its block therefore never backtracks, finds a
    transform exactly when one exists, and finds the least sigma; tau is the
    first match in the sorted group.  Column fingerprints over the orbit
    partition, which each code computes once, are a necessary condition that
    rules out most pairs cheaply.  A transform found is checked on every word,
    one column at a time: tau_i must send source column sigma[i] to image
    column i.
    """
    source = cmap.source
    n = source.length
    group = automorphism_group(source.alphabet, guards)
    orbits = partition(source.alphabet, "orbit", guards)
    fp_src = source.column_fingerprints(orbits)
    fp_dst = cmap.target.column_fingerprints(orbits)
    candidate_space = math.factorial(n) * group.order ** n
    if sorted(fp_src) != sorted(fp_dst):
        return ExtensionResult(None, 0, candidate_space, group.order)

    perms = group.elements
    gens = source.generators
    images = cmap.gen_images
    sigma: list[int] = []
    taus: list[tuple[int, ...]] = []
    used = [False] * n
    for i in range(n):
        for j in range(n):
            if used[j] or fp_src[j] != fp_dst[i]:
                continue
            column = [(g[j], fg[i]) for g, fg in zip(gens, images)]
            tau = next((t for t in perms if all(t[x] == y for x, y in column)), None)
            if tau is not None:
                sigma.append(j)
                taus.append(tau)
                used[j] = True
                break
        else:
            return ExtensionResult(None, 0, candidate_space, group.order)

    image_columns = tuple(zip(*map(cmap.mapping.__getitem__, source.elements)))
    for tau, j, image in zip(taus, sigma, image_columns):
        if tuple(map(tau.__getitem__, source._columns[j])) != image:
            raise InternalConsistencyError(
                "extension search produced an inconsistent transform"
            )
    transform = MonomialTransform(tuple(sigma), tuple(taus))
    return ExtensionResult(transform, n, candidate_space, group.order)
