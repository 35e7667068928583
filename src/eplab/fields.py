"""Finite fields GF(p^e) with dense arithmetic tables, and matrices over them.

Field elements are the integers 0..q-1.  The base-p digits of an element,
least-significant digit first, are the coefficients (constant term first) of
its representative polynomial modulo a fixed irreducible polynomial.  The
modulus is the lexicographically smallest monic irreducible polynomial of
degree e over F_p, comparing coefficient tuples constant-term first, so every
field of a given order is byte-for-byte reproducible.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Iterable, Sequence

from .errors import DEFAULT_GUARDS, Guards, InputError, check_guard


def prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n, ascending, by trial division up to
    the square root of n."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def factor_prime_power(q: int) -> tuple[int, int]:
    """Return (p, e) with q = p**e, p prime, or raise InputError."""
    if q < 2:
        raise InputError(f"field order must be at least 2, got {q}")
    primes = prime_factors(q)
    if len(primes) != 1:
        raise InputError(f"field order must be a prime power, got {q}")
    p, e = primes[0], 1
    while p**e < q:
        e += 1
    return p, e


def _poly_trim(coeffs: Sequence[int]) -> tuple[int, ...]:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _poly_mod(a: Sequence[int], m: Sequence[int], p: int) -> tuple[int, ...]:
    """Remainder of a modulo the monic polynomial m, coefficients in F_p."""
    rem = list(a)
    dm = len(m) - 1
    while len(rem) - 1 >= dm and rem:
        lead = rem[-1] % p
        if lead:
            shift = len(rem) - 1 - dm
            for i, mi in enumerate(m):
                rem[shift + i] = (rem[shift + i] - lead * mi) % p
        rem.pop()
    return _poly_trim(rem)


def _is_irreducible(poly: Sequence[int], p: int) -> bool:
    deg = len(poly) - 1
    if deg < 1:
        return False
    for d in range(1, deg // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            divisor = tuple(tail) + (1,)
            if not _poly_mod(poly, divisor, p):
                return False
    return True


def minimal_irreducible(p: int, e: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree e over F_p.

    Coefficient tuples are compared constant-term first.
    """
    for tail in itertools.product(range(p), repeat=e):
        poly = tuple(tail) + (1,)
        if _is_irreducible(poly, p):
            return poly
    raise InputError(f"no irreducible polynomial of degree {e} over F_{p}")


class FiniteField:
    """GF(p^e) with precomputed add/mul tables over elements 0..q-1."""

    def __init__(self, q: int, guards: Guards = DEFAULT_GUARDS):
        # the guard goes first: factoring a large prime takes time linear in its square root
        check_guard(q, guards.max_field, f"field order {q}")
        p, e = factor_prime_power(q)
        self.q = q
        self.p = p
        self.e = e
        self.modulus = minimal_irreducible(p, e)
        self._build_tables()

    def _build_tables(self):
        q, p, e = self.q, self.p, self.e
        # addition is digit-wise mod p; all radices are p, so digit order is immaterial
        z_p = tuple(tuple((x + y) % p for y in range(p)) for x in range(p))
        self.add_table = product_table([z_p] * e)
        # b -> a*b is F_p-linear, so row a is fixed by the images a*x^i, highest
        # i first; polynomial coefficients are the base-p digits, constant term first
        scalars = tuple(tuple(x * y % p for y in range(p)) for x in range(p))
        self.mul_table = tuple(
            linear_table(scalars, self.add_table, [
                _poly_mod((0,) * i + index_to_entries(a, p, e)[::-1], self.modulus, p)[::-1]
                for i in reversed(range(e))
            ])
            for a in range(q)
        )

    def add(self, a: int, b: int) -> int:
        return self.add_table[a][b]

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    def elements(self) -> range:
        return range(self.q)

    def __eq__(self, other):
        return (
            isinstance(other, FiniteField)
            and self.q == other.q
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash(("FiniteField", self.q, self.modulus))

    def __repr__(self):
        return f"FiniteField({self.q})"


@dataclasses.dataclass(frozen=True)
class Matrix:
    """Immutable matrix over a FiniteField, entries row-major."""

    field: FiniteField
    rows: int
    cols: int
    entries: tuple[int, ...]

    def mul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise InputError("matrix shape mismatch in mul")
        f = self.field
        n, k, m = self.rows, self.cols, other.cols
        out = [0] * (n * m)
        for i in range(n):
            base = i * k
            for t in range(k):
                a = self.entries[base + t]
                if a == 0:
                    continue
                obase = t * m
                mrow = f.mul_table[a]
                arow_out = i * m
                for j in range(m):
                    b = other.entries[obase + j]
                    if b:
                        out[arow_out + j] = f.add_table[out[arow_out + j]][mrow[b]]
        return Matrix(f, n, m, tuple(out))

    def __repr__(self):
        c = self.cols
        body = "; ".join(
            " ".join(map(str, self.entries[i * c : (i + 1) * c])) for i in range(self.rows)
        )
        return f"Matrix[{body}]"


def product_map(maps: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """The componentwise map of a product of maps, each from a factor to
    itself: out[a] is the mixed-radix join of maps[i][a_i], first factor most
    significant."""
    out = [0]
    for m in maps:
        n = len(m)
        # out[a] = out[a // n] * n + m[a % n]
        out = [o * n + x for o in out for x in m]
    return tuple(out)


def product_table(tables: Sequence[Sequence[Sequence[int]]]) -> tuple[tuple[int, ...], ...]:
    """The componentwise table of a product of square tables: row a is the
    product_map of the rows tables[i][a_i], built one factor at a time, so
    the rows that share their first i factors share one join of them."""
    rows = [[0]]
    for table in tables:
        n = len(table)
        rows = [[o * n + x for o in row for x in t] for row in rows for t in table]
    return tuple(map(tuple, rows))


def matrix_tables(field: FiniteField, m: int, k: int) -> tuple[tuple, tuple]:
    """(add, act) of the column module M_{m x k}(F_q) over M_m(F_q), both
    indexed as matrix_to_index does; with k = m they are the ring's tables."""
    q = field.q
    add = product_table([field.add_table] * (m * k))
    # a -> r.a is linear, so row r of act is fixed by the images r.E_ij in
    # row-major (i, j) order; column j of r.E_ij is column i of r, the rest 0
    act = tuple(
        linear_table(field.mul_table, add, [
            [r[t * m + i] if c == j else 0 for t in range(m) for c in range(k)]
            for i in range(m)
            for j in range(k)
        ])
        for r in (index_to_entries(x, q, m * m) for x in range(q ** (m * m)))
    )
    return add, act


def linear_table(mul, add, images: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Index table of the F_q-linear map sending unit vector i to images[i],
    both sides numbered as entries_to_index does; mul is the table of F_q,
    so q = len(mul), and add adds in the target."""
    out = [0]
    for image in images:
        # out[v * q + c] = out[v] + c * image: one base-q digit at a time
        scaled = [entries_to_index([c[x] for x in image], len(mul)) for c in mul]
        out = [add[v][w] for v in out for w in scaled]
    return tuple(out)


def mixed_radix_join(parts: Iterable[int], radices: Iterable[int]) -> int:
    """Mixed-radix encoding of parts, first part most significant."""
    out = 0
    for x, n in zip(parts, radices):
        out = out * n + x
    return out


def mixed_radix_split(index: int, radices: Sequence[int]) -> tuple[int, ...]:
    """Inverse of mixed_radix_join: the digits of index, most significant first."""
    out = [0] * len(radices)
    for pos in range(len(radices) - 1, -1, -1):
        out[pos] = index % radices[pos]
        index //= radices[pos]
    return tuple(out)


def entries_to_index(entries: Iterable[int], q: int) -> int:
    """Base-q encoding of an entry sequence, first entry most significant."""
    return mixed_radix_join(entries, itertools.repeat(q))


def index_to_entries(index: int, q: int, count: int) -> tuple[int, ...]:
    return mixed_radix_split(index, (q,) * count)


def matrix_to_index(m: Matrix) -> int:
    return entries_to_index(m.entries, m.field.q)


def index_to_matrix(field: FiniteField, rows: int, cols: int, index: int) -> Matrix:
    return Matrix(field, rows, cols, index_to_entries(index, field.q, rows * cols))
