"""Field and matrix layer: frozen oracles plus exhaustive axiom checks."""

import itertools
import math
import random

import pytest

from eplab.errors import DEFAULT_GUARDS, InputError
from eplab.fields import (
    FiniteField,
    Matrix,
    entries_to_index,
    factor_prime_power,
    index_to_entries,
    index_to_matrix,
    matrix_to_index,
    minimal_irreducible,
    mixed_radix_join,
    mixed_radix_split,
    prime_factors,
    product_map,
    product_table,
)
from eplab.modules import automorphism_group, module_make
from eplab.rings import ring_make

# Frozen expected values, derived once by hand from the stated conventions.
EXPECTED_MODULI = {
    (2, 1): (0, 1),          # x
    (2, 2): (1, 1, 1),       # x^2 + x + 1
    (2, 3): (1, 0, 1, 1),    # x^3 + x^2 + 1
    (2, 4): (1, 0, 0, 1, 1), # x^4 + x^3 + 1 ((1,0,0,1) precedes (1,1,0,0))
    (3, 2): (1, 0, 1),       # x^2 + 1
}


def test_factor_prime_power():
    assert factor_prime_power(2) == (2, 1)
    assert factor_prime_power(9) == (3, 2)
    assert factor_prime_power(16) == (2, 4)
    assert factor_prime_power(125) == (5, 3)
    with pytest.raises(InputError):
        factor_prime_power(6)
    with pytest.raises(InputError):
        factor_prime_power(12)
    with pytest.raises(InputError):
        factor_prime_power(1)


def test_prime_factors_and_prime_powers_match_trial_division_on_1_to_1000():
    for n in range(1, 1001):
        primes = [p for p in range(2, n + 1) if n % p == 0 and all(p % d for d in range(2, p))]
        assert prime_factors(n) == primes
        if n < 2:
            message = f"field order must be at least 2, got {n}"
        elif len(primes) > 1:
            message = f"field order must be a prime power, got {n}"
        else:
            p = primes[0]
            assert factor_prime_power(n) == (p, next(e for e in range(1, n) if p**e == n))
            continue
        with pytest.raises(InputError) as info:
            factor_prime_power(n)
        assert str(info.value) == message


@pytest.mark.parametrize("pe,expected", sorted(EXPECTED_MODULI.items()))
def test_minimal_irreducible_frozen(pe, expected):
    p, e = pe
    assert minimal_irreducible(p, e) == expected


def test_minimal_irreducible_is_lex_least_among_irreducibles():
    # Independent re-derivation for F_4: walk all monic quadratics over F_2 in
    # constant-term-first lex order and factor them by brute force.
    def reducible(c0, c1):
        # (x + a)(x + b) over F_2 gives x^2 + (a+b)x + ab
        for a in range(2):
            for b in range(2):
                if ((a + b) % 2, (a * b) % 2) == (c1, c0):
                    return True
        return False

    first = next(
        (c0, c1) for c0, c1 in itertools.product(range(2), repeat=2)
        if not reducible(c0, c1)
    )
    assert first == (1, 1)
    assert minimal_irreducible(2, 2) == (1, 1, 1)


def test_f4_multiplication_oracle():
    """In F_4 = F_2[x]/(x^2+x+1) with x encoded as 2: x*x = x+1 = 3."""
    f4 = FiniteField(4)
    assert f4.mul(2, 2) == 3
    assert f4.mul(2, 3) == 1
    assert f4.mul(3, 3) == 2
    assert f4.add(2, 3) == 1


def test_f9_multiplication_oracle():
    """In F_9 = F_3[x]/(x^2+1) with x encoded as 3: x*x = -1 = 2."""
    f9 = FiniteField(9)
    assert f9.mul(3, 3) == 2
    assert f9.add(3, 3) == 6      # x + x = 2x
    assert f9.mul(3, 6) == 1      # x * 2x = 2x^2 = -2 = 1


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16])
def test_field_axioms_exhaustive(q):
    f = FiniteField(q)
    els = range(q)
    for a in els:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.mul(a, 0) == 0
        assert 0 in f.add_table[a]
        if a:
            assert 1 in f.mul_table[a]
        for b in els:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
    for a in els:
        for b in els:
            for c in els:
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("q", [4, 8, 9])
def test_frobenius_is_additive(q):
    f = FiniteField(q)

    def frob(a):
        out = 1
        for _ in range(f.p):
            out = f.mul(out, a)
        # a^p computed as repeated squaring-free product on purpose
        return out

    def power(a, n):
        out = 1
        for _ in range(n):
            out = f.mul(out, a)
        return out

    for a in range(q):
        for b in range(q):
            assert power(f.add(a, b), f.p) == f.add(power(a, f.p), power(b, f.p))
    # multiplicative group order
    for a in range(1, q):
        assert power(a, q - 1) == 1


def _field_add_oracle(f):
    """Addition as the base-p digit loop of an earlier FiniteField built it:
    digits least significant first, added mod p one by one."""
    def digits(a):
        out = []
        for _ in range(f.e):
            out.append(a % f.p)
            a //= f.p
        return out

    def undigits(coeffs):
        out = 0
        for c in reversed(coeffs):
            out = out * f.p + c
        return out

    d = [digits(a) for a in range(f.q)]
    return tuple(
        tuple(undigits([(x + y) % f.p for x, y in zip(d[a], d[b])]) for b in range(f.q))
        for a in range(f.q)
    )


def _prime_powers(limit):
    """The prime powers in 2..limit: q is one when dividing out its least
    prime factor leaves 1."""
    out = []
    for q in range(2, limit + 1):
        p = next(d for d in range(2, q + 1) if q % d == 0)
        r = q
        while r % p == 0:
            r //= p
        if r == 1:
            out.append(q)
    return out


@pytest.mark.parametrize("q", _prime_powers(32))
def test_field_addition_matches_the_digit_loop(q):
    f = FiniteField(q)
    oracle = _field_add_oracle(f)
    assert f.add_table == oracle


def _field_mul_oracle(f):
    """Multiplication as an earlier FiniteField built it: for every pair, the
    product of the digit polynomials (constant term first), reduced modulo
    f.modulus one leading term at a time."""
    p, e = f.p, f.e
    digits = [index_to_entries(a, p, e)[::-1] for a in range(f.q)]

    def product(a, b):
        out = [0] * (2 * e - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        for top in range(2 * e - 2, e - 1, -1):
            lead = out[top] % p
            if lead:
                for i, c in enumerate(f.modulus):
                    out[top - e + i] -= lead * c
        return entries_to_index([c % p for c in reversed(out[:e])], p)

    return tuple(tuple(product(x, y) for y in digits) for x in digits)


# every prime power up to 256 would take the oracle about 5 s
@pytest.mark.parametrize("q", _prime_powers(128) + [243, 256])
def test_field_multiplication_matches_the_polynomial_product(q):
    f = FiniteField(q)
    assert f.mul_table == _field_mul_oracle(f)


def _matrix_tables_oracle(field, m, k):
    """The tables of M_{m x k}(F_q) over M_m(F_q) as earlier ring and column
    builders made them: an entrywise Matrix.add, and Matrix.mul."""
    def add(x, y):
        return Matrix(field, m, k, tuple(field.add(a, b) for a, b in zip(x.entries, y.entries)))

    mats = [index_to_matrix(field, m, k, i) for i in range(field.q ** (m * k))]
    ring_mats = [index_to_matrix(field, m, m, i) for i in range(field.q ** (m * m))]
    add_t = tuple(tuple(matrix_to_index(add(a, b)) for b in mats) for a in mats)
    act_t = tuple(tuple(matrix_to_index(r.mul(a)) for a in mats) for r in ring_mats)
    return add_t, act_t


def _matrix_shapes_within_guards():
    """(m, q, k) with M_m(F_q) and M_{m x k}(F_q) both within max_order."""
    limit = DEFAULT_GUARDS.max_order
    return [
        (m, q, k)
        for m in (1, 2)
        for q in _prime_powers(limit)
        for k in range(1, 7)
        if q ** (m * m) <= limit and q ** (m * k) <= limit
    ]


@pytest.mark.parametrize("m,q,k", _matrix_shapes_within_guards())
def test_matrix_rings_and_column_modules_match_the_matrix_oracle(m, q, k):
    add, act = _matrix_tables_oracle(FiniteField(q), m, k)
    ring = ring_make({"kind": "matrix", "m": m, "q": q})
    column = module_make(ring, {"kind": "column", "k": k})
    assert (column.add_table, column.act_table) == (add, act)
    if k == m:
        assert (ring.add_table, ring.mul_table) == (add, act)
        identity = Matrix(ring.field, m, m, tuple(int(i == j) for i in range(m) for j in range(m)))
        assert ring.one == matrix_to_index(identity)
        assert ring.mul_table[ring.one] == tuple(range(ring.order))


@pytest.mark.parametrize(
    "q,n,expected",
    [(2, 2, 6), (2, 3, 168), (3, 2, 48), (4, 2, 180)],
)
def test_general_linear_group_orders(q, n, expected):
    """Aut(F_q^n) over M_1(F_q) is GL(n, q)."""
    field_ring = ring_make({"kind": "matrix", "m": 1, "q": q})
    assert automorphism_group(module_make(field_ring, {"kind": "column", "k": n})).order == expected


def _matrix(field, rows):
    """The matrix with the given rows, entries row-major."""
    return Matrix(field, len(rows), len(rows[0]), tuple(x for row in rows for x in row))


def test_matrix_arithmetic_matches_field():
    f4 = FiniteField(4)
    a = _matrix(f4, [[2, 1], [0, 3]])
    b = _matrix(f4, [[1, 2], [2, 0]])
    prod = a.mul(b)
    # hand computation: row 0 = (2*1+1*2, 2*2+1*0) = (0, 3); row 1 = (3*2, 0) = (1, 0)
    assert prod == _matrix(f4, [[0, 3], [1, 0]])


def test_entry_encoding_first_entry_most_significant():
    assert entries_to_index((1, 0, 0, 0), 2) == 8
    assert entries_to_index((0, 0, 0, 1), 2) == 1
    assert index_to_entries(8, 2, 4) == (1, 0, 0, 0)
    f2 = FiniteField(2)
    m = _matrix(f2, [[1, 0], [0, 0]])
    assert matrix_to_index(m) == 8
    assert index_to_matrix(f2, 2, 2, 8) == m
    for idx in range(16):
        assert matrix_to_index(index_to_matrix(f2, 2, 2, idx)) == idx


def test_mixed_radix_first_part_most_significant():
    radices = (2, 3, 4)
    assert mixed_radix_join((1, 0, 0), radices) == 12
    assert mixed_radix_join((0, 2, 3), radices) == 11
    assert mixed_radix_split(23, radices) == (1, 2, 3)
    assert [mixed_radix_join(mixed_radix_split(i, radices), radices) for i in range(24)] == list(
        range(24)
    )
    assert index_to_entries(11, 3, 3) == mixed_radix_split(11, (3, 3, 3))


def test_product_map_and_table_match_the_mixed_radix_join_on_random_radices():
    rng = random.Random(0)
    for _ in range(40):
        radices = [rng.randint(1, 5) for _ in range(rng.randint(0, 4))]
        maps = [[rng.randrange(n) for _ in range(n)] for n in radices]
        out = product_map(maps)
        assert len(out) == math.prod(radices)
        for a, image in enumerate(out):
            parts = mixed_radix_split(a, radices)
            assert image == mixed_radix_join([m[x] for m, x in zip(maps, parts)], radices)
        tables = [[[rng.randrange(n) for _ in range(n)] for _ in range(n)] for n in radices]
        table = product_table(tables)
        assert len(table) == math.prod(radices)
        for a, row in enumerate(table):
            assert len(row) == len(table)
            pa = mixed_radix_split(a, radices)
            for b, entry in enumerate(row):
                pb = mixed_radix_split(b, radices)
                join = mixed_radix_join([t[x][y] for t, x, y in zip(tables, pa, pb)], radices)
                assert entry == join


def _product_table_by_rows(tables):
    """The product_map of every row tuple, the oracle for product_table."""
    return tuple(map(product_map, itertools.product(*tables)))


def test_product_table_matches_the_per_row_product_map():
    z2 = FiniteField(2).add_table
    for k in range(9):
        table = product_table([z2] * k)
        assert table == _product_table_by_rows([z2] * k)
        assert all(type(row) is tuple for row in table)
        if 0 < k <= 6:
            assert table == FiniteField(2**k).add_table
    rng = random.Random(1)
    fields = [FiniteField(q) for q in (3, 4, 5, 7, 8)]
    pool = [f.add_table for f in fields] + [f.mul_table for f in fields]
    for _ in range(40):
        tables = []
        while math.prod(map(len, tables)) <= 30:
            n = rng.randint(1, 4)
            random_table = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
            tables.append(rng.choice([random_table, rng.choice(pool)]))
        assert product_table(tables) == _product_table_by_rows(tables)


def test_matrix_shape_errors():
    f2 = FiniteField(2)
    a = _matrix(f2, [[1, 0]])
    b = _matrix(f2, [[1, 0]])
    with pytest.raises(InputError):
        a.mul(b)
