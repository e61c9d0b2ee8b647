"""Exact integer combinatorics behind the cone expectation formulas.

Four triangular number families parameterize every closed form in this
package: the signless cycle-counting numbers of the first kind, the
set-partition numbers of the second kind, and their signed-permutation
analogues obtained from the odd rising product ``(t+1)(t+3)...(t+2n-1)``
and from a doubled partition sum.  All values are exact Python integers;
rational results elsewhere are built on :class:`fractions.Fraction`.

Every first-kind row, and every block product behind the face and joint
probabilities, is the coefficient list of a product of linear factors
``prod (t + a)`` over a list of integer roots.  The closed forms read only
its lowest coefficients and its values at t = 1 and t = -1, which
:func:`root_product` and :class:`LowOrderProduct` compute in time nearly
linear in the number of factors.  The roots are written once, here:
:func:`bridge_roots` and :func:`walk_roots` for the rows, :func:`block_roots`
for the block products, whose coefficients ``coeff_P`` (walk-terminated)
and ``coeff_Q`` (pure bridge) read.  A :class:`StirlingTables` instance
caches the rows and the block products it has built.  The full triangles
are built by recurrence; they serve as lookups for the small second-kind
rows, and they and the triangle-built block polynomials (``coeff_P_poly``,
``coeff_Q_poly``) are independent oracles for the products.
"""

from __future__ import annotations

import itertools
import math
import operator
import threading
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .errors import DomainError, as_index, as_indices

KINDS = ("first", "second", "first_B", "second_B")

# Each recurrence family grows row n from row n-1 by one rule,
# row[k] = prev[k-1] + w(n, k) * prev[k]; these give w(n, k) for k = 0, 1, ...
_WEIGHTS: dict[str, Callable[[int], Iterable[int]]] = {
    "first": lambda n: itertools.repeat(n - 1),
    "second": lambda n: itertools.count(),
    "first_B": lambda n: itertools.repeat(2 * n - 1),
    "second_B": lambda n: itertools.count(1, 2),
}


class StirlingTables:
    """Grow-on-demand cached triangles of the four Stirling-type families.

    Entry ``(n, k)`` with ``k`` outside ``{0, ..., n}`` reads as 0, and the
    ``(0, 0)`` entry of every family is 1.  Rows are appended once and never
    mutated, so a warm instance can be shared read-only across threads or
    forked worker processes.  The instance also caches low-order products:
    the rows of :meth:`low_row` and the block products of
    :meth:`block_product`, the latter keyed by the multiset of block
    lengths, since the blocks commute.  An entry is only ever replaced by
    an equal or longer one, so two threads racing on it at worst compute it
    twice.  The store is bounded: past ``_STORE_BYTES`` of products, the
    entries stored first are dropped first, and are built again if asked
    for; storing and dropping hold a lock, so the byte count stays exact
    under threads.  A new instance holds no product.
    """

    def __init__(self, max_n: int = 0) -> None:
        self._rows: dict[str, list[list[int]]] = {kind: [[1]] for kind in KINDS}
        self._columns: dict[tuple[str, int], tuple[int, ...]] = {}
        self._products: dict[tuple, LowOrderProduct] = {}
        self._stored = 0  # the _footprint of the entries of _products
        self._store_lock = threading.Lock()
        if max_n > 0:
            self.grow(max_n)

    def grow(self, n: int) -> None:
        """Precompute all four triangles up to row ``n``."""
        if n < 0:
            raise DomainError("table size must be nonnegative")
        for kind in KINDS:
            self._grow(kind, n)

    def _grow(self, kind: str, n: int) -> None:
        rows = self._rows[kind]
        weights = _WEIGHTS[kind]
        while len(rows) <= n:
            prev = rows[-1]
            rows.append([left + w * above
                         for left, w, above in zip([0] + prev, weights(len(rows)), prev + [0])])

    # -- lookups ---------------------------------------------------------

    def first(self, n: int, k: int) -> int:
        """Signless first-kind number: permutations of n elements with k cycles."""
        return self._lookup("first", n, k)

    def second(self, n: int, k: int) -> int:
        """Second-kind number: partitions of an n-set into k nonempty blocks."""
        return self._lookup("second", n, k)

    def first_b(self, n: int, k: int) -> int:
        """Coefficient of t^k in (t+1)(t+3)...(t+2n-1)."""
        return self._lookup("first_B", n, k)

    def second_b(self, n: int, k: int) -> int:
        """Signed-permutation analogue of the second-kind numbers."""
        return self._lookup("second_B", n, k)

    def row(self, kind: str, n: int) -> tuple[int, ...]:
        """Row ``n`` of a family, entries k = 0..n, as a read-only copy."""
        self._lookup(kind, n, 0)
        return tuple(self._rows[kind][n])

    def column(self, kind: str, k: int, length: int) -> tuple[int, ...]:
        """Entries (i, k) of a family for i = 0, 1, ..., at least ``length``
        of them, cached on this instance per (kind, k)."""
        col = self._columns.get((kind, k))
        if col is None or len(col) < length:
            self._grow(kind, length - 1)
            col = self._columns[kind, k] = tuple(row[k] if k < len(row) else 0
                                                 for row in self._rows[kind])
        return col

    def low_row(self, roots: Callable[[int], Sequence[int]], n: int,
                m: int) -> LowOrderProduct:
        """``LowOrderProduct.of(roots(n), m)``, cached on this instance per (roots, n)."""
        # a cached product with at least m coefficients is reused as is
        prod = self._products.get((roots, n))
        if prod is not None and len(prod.coeffs) >= m:
            return prod
        return self._store((roots, n), LowOrderProduct.of(roots(n), m))

    def block_product(self, bridges: Sequence[int], walks: Sequence[int],
                      m: int) -> LowOrderProduct:
        """``LowOrderProduct.of(block_roots(bridges, walks), m)``, cached on this
        instance per multiset of bridge lengths and of walk lengths; blocks
        without roots (bridges of length 1, walks of length 0) are left out."""
        key = (tuple(sorted(filter((1).__lt__, bridges))), tuple(sorted(filter(None, walks))))
        prod = self._products.get(key)
        if prod is not None and len(prod.coeffs) >= m:
            return prod
        return self._store(key, LowOrderProduct.of(block_roots(*key), m))

    def _store(self, key: tuple, prod: LowOrderProduct) -> LowOrderProduct:
        # the new entry goes last; then the oldest go until the store fits
        with self._store_lock:
            old = self._products.pop(key, None)
            self._stored += _footprint(prod) - (0 if old is None else _footprint(old))
            self._products[key] = prod
            while self._stored > _STORE_BYTES and len(self._products) > 1:
                self._stored -= _footprint(self._products.pop(next(iter(self._products))))
        return prod

    def _lookup(self, kind: str, n: int, k: int) -> int:
        if n < 0:
            raise DomainError(f"row index must be nonnegative, got n={n}")
        if k < 0 or k > n:
            return 0
        rows = self._rows[kind]
        if n >= len(rows):
            self._grow(kind, n)
        return rows[n][k]


# A tables instance keeps at most about this many bytes of products: each
# entry counts the bytes of its integers' digits plus _ENTRY_BYTES for its
# objects.  20,000 three-index face probabilities on a bridge with n = 1000
# in R^4 (about 2.2 KB each) left 43.7 MB more peak RSS without a bound.
_STORE_BYTES = 8 << 20
_ENTRY_BYTES = 512


def _footprint(prod: LowOrderProduct) -> int:
    digits = sum(map(int.bit_length, prod.coeffs))
    return _ENTRY_BYTES + (digits + prod.at_one.bit_length() + prod.at_minus_one.bit_length()) // 8


_TABLES = StirlingTables(32)


def default_tables() -> StirlingTables:
    """The shared process-wide table instance."""
    return _TABLES


def stirling(kind: str, n: int, k: int, tables: StirlingTables | None = None) -> int:
    """Exact value of the requested family at (n, k); 0 outside the triangle."""
    if kind not in KINDS:
        raise DomainError(f"unknown family {kind!r}; expected one of {KINDS}")
    return (tables if tables is not None else _TABLES)._lookup(kind, n, k)


def binomial(n: int, k: int) -> int:
    """C(n, k) with the convention that out-of-range k gives 0."""
    if n < 0:
        raise DomainError(f"binomial requires n >= 0, got n={n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


# Most linear factors in one product of roots; a cold bridge fk in d = 3 took 0.05 s
# at n = 10^4, 0.39 s at 3 * 10^4 and 3.8 s at 10^5 (2-core x86; median of 5 runs
# at 10^5, single runs otherwise).
MAX_FACTORS = 100_000
# Most factors times coefficients in one truncated product; a cold bridge fk took
# 3.8 s at n = 10^5, d = 3 (4 coefficients), 3.8 s at n = 2,000, d = 199 (200)
# and 48 s at n = 2,000, d = 1,000 (1,001) (2-core x86).
MAX_PRODUCT_TERMS = 400_000


def _check_factor_count(count: int) -> None:
    if count > MAX_FACTORS:
        raise DomainError(f"a product of {count} linear factors exceeds the cap of {MAX_FACTORS}")


def bridge_roots(n: int) -> range:
    """Roots of t(t+1)...(t+n-1), the first-kind row n."""
    return range(n)


def walk_roots(n: int) -> range:
    """Roots of (t+1)(t+3)...(t+2n-1), the first-kind-B row n."""
    return range(1, 2 * n, 2)


def block_degree(bridges: Sequence[int], walks: Sequence[int] = ()) -> int:
    """Number of roots of a block product (see :func:`block_roots`); more
    than ``MAX_FACTORS`` raise DomainError."""
    count = sum(bridges) - len(bridges) + sum(walks)
    _check_factor_count(count)
    return count


def block_roots(bridges: Sequence[int], walks: Sequence[int] = ()) -> list[int]:
    """Roots of a block product: (t+1)...(t+g-1) per bridge block of length g,
    the bridge row without its factor t, and (t+1)(t+3)...(t+2w-1) per walk
    block of length w.  More than ``MAX_FACTORS`` roots raise DomainError."""
    block_degree(bridges, walks)
    return ([a for g in bridges for a in bridge_roots(g)[1:]]
            + [a for w in walks for a in walk_roots(w)])


def _validated_parts(n: int, parts: Sequence[int],
                     final_bridge: bool = False) -> tuple[tuple[int, ...], int]:
    """The parts as a tuple and the n - sum(parts) steps left after them: every
    part >= 1, and with ``final_bridge`` those steps form a nonempty block."""
    parts = as_indices(parts, "a composition part")
    if parts and min(parts) < 1:
        raise DomainError("composition parts must be integers >= 1")
    total = sum(parts)
    tail = as_index(n, "n") - total
    if tail < 0:
        raise DomainError(f"composition parts sum to {total} > total {n}")
    if final_bridge and tail < 1:
        raise DomainError(
            f"bridge composition needs a nonempty final block: parts {parts} fill n={n}")
    return parts, tail


def poly_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Exact convolution of two integer coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


# Leaves of the binary splitting multiply in this many linear factors one at
# a time; above it the two halves' truncated products are convolved.
_LEAF = 16


def _mul_truncated(a: list[int], b: list[int], m: int) -> list[int]:
    """The first ``m`` coefficients of the product of two coefficient lists."""
    out = [0] * min(len(a) + len(b) - 1, m)
    for i, ai in enumerate(a[:m]):
        if ai:
            for j, bj in enumerate(b[:m - i]):
                out[i + j] += ai * bj
    return out


def _split_product(roots: list[int], lo: int, hi: int, m: int) -> list[int]:
    """The coefficients of prod (t + a) over roots[lo:hi] up to degree
    min(m - 1, hi - lo), for m >= 1."""
    if hi - lo > _LEAF:
        mid = (lo + hi) // 2
        return _mul_truncated(_split_product(roots, lo, mid, m),
                              _split_product(roots, mid, hi, m), m)
    poly = [1]
    for a in roots[lo:hi]:
        if len(poly) < m:
            poly.append(0)
        for i in range(len(poly) - 1, 0, -1):
            poly[i] = a * poly[i] + poly[i - 1]
        poly[0] *= a
    return poly


def root_product(roots: Sequence[int], m: int) -> list[int]:
    """The first ``m`` coefficients of prod (t + a) over ``roots``, lowest first.

    Entries past the degree are 0.  More than ``MAX_PRODUCT_TERMS`` factors
    times coefficients raise DomainError.  Balanced binary splitting: each node
    convolves the truncated products of its two halves, so the operands of
    every big multiplication have about the same size, and a leaf of at most
    ``_LEAF`` roots multiplies in one linear factor at a time.  A product of
    n factors costs O(m^2) multiplications per level of the split instead of
    the O(n^2) entries of a triangle.
    """
    if m < 0:
        raise DomainError(f"coefficient count must be nonnegative, got m={m}")
    roots = list(roots)
    if len(roots) * m > MAX_PRODUCT_TERMS:
        raise DomainError(f"{m} coefficients of a product of {len(roots)} linear factors "
                          f"exceed the cap of {MAX_PRODUCT_TERMS} factors times coefficients")
    if m == 1:
        return [_product_at(roots, 0)]  # the constant coefficient alone
    poly = _split_product(roots, 0, len(roots), m) if m else []
    return poly + [0] * (m - len(poly))


def _product_at(roots: list[int], x: int) -> int:
    """prod (x + a) over ``roots``: 0 at once if a factor is 0, else products of
    chunks of 32 factors multiplied in pairs, so that the big operands of
    every multiplication have about the same size."""
    factors = [x + a for a in roots]
    if 0 in factors:
        return 0
    level = [math.prod(factors[i:i + 32]) for i in range(0, len(factors), 32)]
    while len(level) > 1:
        level = [math.prod(level[i:i + 2]) for i in range(0, len(level), 2)]
    return level[0] if level else 1


@dataclass(frozen=True)
class LowOrderProduct:
    """The low-order view of P(t) = prod (t + a): the coefficients c_r of
    t^r for r < len(coeffs), and the values P(1) and P(-1).

    That is all the closed forms read, and only through the sums below:
    low indices, optionally weighted per index by a sequence read at the
    same indices, from ``coeffs``; upper tails from P(1) = sum of all c_r
    and P(-1) = sum of (-1)^r c_r.  Asking for a coefficient past ``coeffs``,
    or a weight past ``weights``, raises IndexError, not a truncated sum.
    """

    coeffs: list[int]
    at_one: int
    at_minus_one: int

    @classmethod
    def of(cls, roots: Sequence[int], m: int) -> LowOrderProduct:
        """The first ``m`` coefficients and the values at +-1 of prod (t + a)."""
        _check_factor_count(len(roots))
        roots = list(roots)
        return cls(root_product(roots, m), _product_at(roots, 1), _product_at(roots, -1))

    def down(self, start: int, weights: Sequence[int] | None = None) -> int:
        """c_start w_start + c_(start-2) w_(start-2) + ... over nonnegative
        indices, every w_r = 1 without ``weights``."""
        if start < 0:
            return 0
        coeffs = self.coeffs
        if start >= len(coeffs) or weights is not None and start >= len(weights):
            raise IndexError(f"index {start} reads past the coefficients or weights kept")
        if weights is None:
            return sum(coeffs[start::-2])
        return sum(map(operator.mul, coeffs[start::-2], weights[start::-2]))

    def alternating(self, start: int, weights: Sequence[int] | None = None) -> int:
        """c_start w_start - c_(start-1) w_(start-1) + ... down to index 0."""
        return self.down(start, weights) - self.down(start - 1, weights)

    def parity_tail(self, a: int) -> int:
        """Sum of c_r over r >= a with r = a (mod 2), from P(1) and P(-1)."""
        at_minus_one = -self.at_minus_one if a & 1 else self.at_minus_one
        return (self.at_one + at_minus_one) // 2 - self.down(a - 2)

    def tail(self, a: int) -> int:
        """Sum of c_r over r >= a."""
        if a > len(self.coeffs):
            raise IndexError(f"tail from {a} reads past the coefficients kept")
        return self.at_one - sum(self.coeffs[:max(a, 0)])


def bridge_block_poly(j: int, tables: StirlingTables | None = None) -> list[int]:
    """Coefficients of (t+1)(t+2)...(t+j-1); the empty product for j = 1.

    These are the first-kind numbers of row j shifted down by one index,
    read from the triangle.
    """
    if j < 1:
        raise DomainError(f"bridge block length must be >= 1, got {j}")
    t = tables if tables is not None else _TABLES
    return [t.first(j, r + 1) for r in range(j)]


def walk_block_poly(w: int, tables: StirlingTables | None = None) -> list[int]:
    """Coefficients of (t+1)(t+3)...(t+2w-1), read from the triangle; the
    empty product for w = 0."""
    if w < 0:
        raise DomainError(f"walk block length must be >= 0, got {w}")
    t = tables if tables is not None else _TABLES
    return [t.first_b(w, r) for r in range(w + 1)]


def coeff_P_poly(n: int, parts: Sequence[int],
                 tables: StirlingTables | None = None) -> list[int]:
    """Full coefficient list of the walk-terminated block product, from the triangles.

    One factor (t+1)(t+2)...(t+j-1) per bridge block of length j, times the
    odd rising product for the remaining n - sum(parts) walk steps.  The
    degree is n - len(parts).
    """
    parts, tail = _validated_parts(n, parts)
    poly = walk_block_poly(tail, tables)
    for j in parts:
        poly = poly_mul(poly, bridge_block_poly(j, tables))
    return poly


def coeff_Q_poly(n: int, parts: Sequence[int],
                 tables: StirlingTables | None = None) -> list[int]:
    """Full coefficient list of the pure bridge block product, from the triangles.

    The leftover steps form an implicit final bridge block, which must be
    nonempty.  The degree is n - len(parts) - 1.
    """
    parts, tail = _validated_parts(n, parts, final_bridge=True)
    poly = [1]
    for j in parts + (tail,):
        poly = poly_mul(poly, bridge_block_poly(j, tables))
    return poly


def coeff_P(n: int, parts: Sequence[int], r: int,
            tables: StirlingTables | None = None) -> int:
    """Coefficient of t^r in the walk-terminated block product, the one
    ``face_probability`` builds for a walk (0 off-range), read from the
    block products cached on ``tables`` (the default instance if None)."""
    parts, tail = _validated_parts(n, parts)
    return _block_coefficient(parts, (tail,), r, tables)


def coeff_Q(n: int, parts: Sequence[int], r: int,
            tables: StirlingTables | None = None) -> int:
    """Coefficient of t^r in the pure bridge block product, the one
    ``face_probability`` builds for a bridge (0 off-range): the walk-terminated
    product whose last bridge block takes the leftover steps, with an empty
    walk block."""
    parts, tail = _validated_parts(n, parts, final_bridge=True)
    return _block_coefficient(parts + (tail,), (), r, tables)


def _block_coefficient(bridges: tuple[int, ...], walks: tuple[int, ...], r: int,
                       tables: StirlingTables | None) -> int:
    r = as_index(r, "r")
    if not 0 <= r <= block_degree(bridges, walks):
        return 0  # past the degree; no padded product is built for it
    t = tables if tables is not None else _TABLES
    return t.block_product(bridges, walks, r + 1).coeffs[r]


def compositions(total: int, count: int) -> Iterator[tuple[int, ...]]:
    """All ordered tuples of ``count`` integers >= 1 summing to ``total``."""
    total, count = as_index(total, "total"), as_index(count, "count")
    if count < 0 or total < 0:
        raise DomainError("composition enumeration needs nonnegative arguments")
    if count == 0:
        if total == 0:
            yield ()
        return
    if count == 1:
        if total >= 1:
            yield (total,)
        return
    for head in range(1, total - count + 2):
        for rest in compositions(total - head, count - 1):
            yield (head,) + rest
