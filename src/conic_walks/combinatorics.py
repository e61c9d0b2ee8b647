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
and ``coeff_Q`` (pure bridge) read.  The full triangles are built by
recurrence; they serve as lookups for the small second-kind rows, and they
and the triangle-built block polynomials (``coeff_P_poly``,
``coeff_Q_poly``) are independent oracles for the products.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .errors import DomainError

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
    forked worker processes.  The instance also caches the low-order row
    products of :meth:`low_row`; an entry is only ever replaced by an equal
    or longer one, so two threads racing on it at worst compute it twice.
    """

    def __init__(self, max_n: int = 0) -> None:
        self._rows: dict[str, list[list[int]]] = {kind: [[1]] for kind in KINDS}
        self._low_rows: dict[tuple[Callable[[int], Sequence[int]], int], LowOrderProduct] = {}
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

    def low_row(self, roots: Callable[[int], Sequence[int]], n: int,
                m: int) -> LowOrderProduct:
        """``LowOrderProduct.of(roots(n), m)``, cached on this instance per (roots, n).

        A cached product with at least ``m`` coefficients is reused as is.
        """
        key = (roots, n)
        row = self._low_rows.get(key)
        if row is None or len(row.coeffs) < m:
            row = self._low_rows[key] = LowOrderProduct.of(roots(n), m)
        return row

    def _lookup(self, kind: str, n: int, k: int) -> int:
        if n < 0:
            raise DomainError(f"row index must be nonnegative, got n={n}")
        if k < 0 or k > n:
            return 0
        rows = self._rows[kind]
        if n >= len(rows):
            self._grow(kind, n)
        return rows[n][k]


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


def bridge_roots(n: int) -> range:
    """Roots of t(t+1)...(t+n-1), the first-kind row n."""
    return range(n)


def walk_roots(n: int) -> range:
    """Roots of (t+1)(t+3)...(t+2n-1), the first-kind-B row n."""
    return range(1, 2 * n, 2)


def block_roots(bridges: Iterable[int], walks: Iterable[int] = ()) -> list[int]:
    """Roots of a block product: (t+1)...(t+g-1) per bridge block of length g,
    the bridge row without its factor t, and (t+1)(t+3)...(t+2w-1) per walk
    block of length w."""
    return ([a for g in bridges for a in bridge_roots(g)[1:]]
            + [a for w in walks for a in walk_roots(w)])


def _validated_parts(n: int, parts: Sequence[int],
                     final_bridge: bool = False) -> tuple[tuple[int, ...], int]:
    """The parts as a tuple and the n - sum(parts) steps left after them: every
    part >= 1, and with ``final_bridge`` those steps form a nonempty block."""
    parts = tuple(int(p) for p in parts)
    if any(p < 1 for p in parts):
        raise DomainError("composition parts must be integers >= 1")
    tail = n - sum(parts)
    if tail < 0:
        raise DomainError(f"composition parts sum to {sum(parts)} > total {n}")
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

    Entries past the degree are 0.  Balanced binary splitting: each node
    convolves the truncated products of its two halves, so the operands of
    every big multiplication have about the same size, and a leaf of at most
    ``_LEAF`` roots multiplies in one linear factor at a time.  A product of
    n factors costs O(m^2) multiplications per level of the split instead of
    the O(n^2) entries of a triangle.
    """
    if m < 0:
        raise DomainError(f"coefficient count must be nonnegative, got m={m}")
    roots = list(roots)
    poly = _split_product(roots, 0, len(roots), m) if m else []
    return poly + [0] * (m - len(poly))


@dataclass(frozen=True)
class LowOrderProduct:
    """The low-order view of P(t) = prod (t + a): the coefficients c_r of
    t^r for r < len(coeffs), and the values P(1) and P(-1).

    That is all the closed forms read.  Sums over low indices come from
    ``coeffs``; upper tails follow from P(1) = sum of all c_r and
    P(-1) = sum of (-1)^r c_r.  Asking for a coefficient past ``coeffs``
    raises IndexError rather than reading a truncated sum.
    """

    coeffs: list[int]
    at_one: int
    at_minus_one: int

    @classmethod
    def of(cls, roots: Sequence[int], m: int) -> LowOrderProduct:
        """The first ``m`` coefficients and the values at +-1 of prod (t + a)."""
        roots = list(roots)
        return cls(root_product(roots, m), math.prod(a + 1 for a in roots),
                   math.prod(a - 1 for a in roots))

    def down(self, start: int) -> int:
        """c_start + c_(start-2) + ... over nonnegative indices."""
        return sum(self.coeffs[r] for r in range(start, -1, -2))

    def parity_tail(self, a: int) -> int:
        """Sum of c_r over r >= a with r = a (mod 2), from P(1) and P(-1)."""
        half = (self.at_one + (-1) ** a * self.at_minus_one) // 2
        return half - self.down(a - 2)

    def tail(self, a: int) -> int:
        """Sum of c_r over r >= a."""
        return self.at_one - sum(self.coeffs[r] for r in range(a))


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


def _coefficient(roots: list[int], r: int) -> int:
    # past the degree the coefficient is 0; no padded product is built for it
    return root_product(roots, r + 1)[r] if 0 <= r <= len(roots) else 0


def coeff_P(n: int, parts: Sequence[int], r: int) -> int:
    """Coefficient of t^r in the walk-terminated block product, the one
    ``face_probability`` builds for a walk (0 off-range)."""
    parts, tail = _validated_parts(n, parts)
    return _coefficient(block_roots(parts, (tail,)), r)


def coeff_Q(n: int, parts: Sequence[int], r: int) -> int:
    """Coefficient of t^r in the pure bridge block product, the one
    ``face_probability`` builds for a bridge (0 off-range)."""
    parts, tail = _validated_parts(n, parts, final_bridge=True)
    return _coefficient(block_roots(parts + (tail,)), r)


def compositions(total: int, count: int) -> Iterator[tuple[int, ...]]:
    """All ordered tuples of ``count`` integers >= 1 summing to ``total``."""
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
