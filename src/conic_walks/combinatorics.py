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
linear in the number of factors.  The full triangles and the
composition-indexed coefficient polynomials (``coeff_P`` for
walk-terminated block products, ``coeff_Q`` for pure bridge block
products) are built by recurrence instead; they serve as lookups for the
small second-kind rows and as independent oracles for the products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence, Union

from .errors import DomainError

# All probabilities and expectations are carried losslessly as Fractions:
# numerator/denominator pairs of arbitrary-precision integers, stored in
# lowest terms with positive denominator.
ExactRational = Fraction

KINDS = ("first", "second", "first_B", "second_B")


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
        self._first: list[list[int]] = [[1]]
        self._second: list[list[int]] = [[1]]
        self._first_b: list[list[int]] = [[1]]
        self._second_b: list[list[int]] = [[1]]
        self._low_rows: dict[tuple[Callable[[int], Sequence[int]], int], LowOrderProduct] = {}
        if max_n > 0:
            self.grow(max_n)

    @property
    def max_n(self) -> int:
        """Largest row index available in every family without regrowth."""
        return min(len(self._first), len(self._second),
                   len(self._first_b), len(self._second_b)) - 1

    def grow(self, n: int) -> None:
        """Precompute all four triangles up to row ``n``."""
        if n < 0:
            raise DomainError("table size must be nonnegative")
        self._grow_first(n)
        self._grow_second(n)
        self._grow_first_b(n)
        self._grow_second_b(n)

    # -- row builders --------------------------------------------------

    def _grow_first(self, n: int) -> None:
        rows = self._first
        while len(rows) <= n:
            m = len(rows)
            prev = rows[-1]
            row = [0] * (m + 1)
            for k in range(1, m + 1):
                row[k] = prev[k - 1] + (m - 1) * (prev[k] if k < m else 0)
            rows.append(row)

    def _grow_second(self, n: int) -> None:
        rows = self._second
        while len(rows) <= n:
            m = len(rows)
            prev = rows[-1]
            row = [0] * (m + 1)
            for k in range(1, m + 1):
                row[k] = prev[k - 1] + k * (prev[k] if k < m else 0)
            rows.append(row)

    def _grow_first_b(self, n: int) -> None:
        rows = self._first_b
        while len(rows) <= n:
            m = len(rows)
            prev = rows[-1]
            row = [0] * (m + 1)
            for k in range(0, m + 1):
                above = prev[k] if k < m else 0
                left = prev[k - 1] if k >= 1 else 0
                row[k] = left + (2 * m - 1) * above
            rows.append(row)

    def _grow_second_b(self, n: int) -> None:
        # Defined by the sum  sum_m 2^(m-k) C(n,m) {m k}  rather than a
        # recurrence; the recurrence form is only validated in tests.
        rows = self._second_b
        self._grow_second(n)
        while len(rows) <= n:
            m = len(rows)
            row = [
                sum((1 << (i - k)) * math.comb(m, i) * self._second[i][k]
                    for i in range(k, m + 1))
                for k in range(m + 1)
            ]
            rows.append(row)

    # -- lookups ---------------------------------------------------------

    def first(self, n: int, k: int) -> int:
        """Signless first-kind number: permutations of n elements with k cycles."""
        return self._lookup(self._first, self._grow_first, n, k)

    def second(self, n: int, k: int) -> int:
        """Second-kind number: partitions of an n-set into k nonempty blocks."""
        return self._lookup(self._second, self._grow_second, n, k)

    def first_b(self, n: int, k: int) -> int:
        """Coefficient of t^k in (t+1)(t+3)...(t+2n-1)."""
        return self._lookup(self._first_b, self._grow_first_b, n, k)

    def second_b(self, n: int, k: int) -> int:
        """Signed-permutation analogue of the second-kind numbers."""
        return self._lookup(self._second_b, self._grow_second_b, n, k)

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

    @staticmethod
    def _lookup(rows, grow, n: int, k: int) -> int:
        if n < 0:
            raise DomainError(f"row index must be nonnegative, got n={n}")
        if k < 0 or k > n:
            return 0
        if n >= len(rows):
            grow(n)
        return rows[n][k]


_TABLES = StirlingTables(32)


def default_tables() -> StirlingTables:
    """The shared process-wide table instance."""
    return _TABLES


def stirling(kind: str, n: int, k: int, tables: StirlingTables | None = None) -> int:
    """Exact value of the requested family at (n, k); 0 outside the triangle."""
    t = tables if tables is not None else _TABLES
    if kind == "first":
        return t.first(n, k)
    if kind == "second":
        return t.second(n, k)
    if kind == "first_B":
        return t.first_b(n, k)
    if kind == "second_B":
        return t.second_b(n, k)
    raise DomainError(f"unknown family {kind!r}; expected one of {KINDS}")


def binomial(n: int, k: int) -> int:
    """C(n, k) with the convention that out-of-range k gives 0."""
    if n < 0:
        raise DomainError(f"binomial requires n >= 0, got n={n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


@dataclass(frozen=True)
class Composition:
    """Ordered block lengths (each >= 1) placed inside ``total`` steps.

    ``tail`` is the number of steps left over after the listed blocks; the
    walk-terminated coefficient polynomial uses it as the final
    sign-symmetric block, the bridge one requires it to be >= 1.
    """

    parts: tuple[int, ...]
    total: int

    def __post_init__(self) -> None:
        if self.total < 0:
            raise DomainError("composition total must be nonnegative")
        if any((not isinstance(p, int)) or p < 1 for p in self.parts):
            raise DomainError("composition parts must be integers >= 1")
        if sum(self.parts) > self.total:
            raise DomainError(
                f"composition parts sum to {sum(self.parts)} > total {self.total}")

    @property
    def tail(self) -> int:
        return self.total - sum(self.parts)


PartsLike = Union[Composition, Sequence[int]]


def _as_composition(n: int, parts: PartsLike) -> Composition:
    if isinstance(parts, Composition):
        if parts.total != n:
            raise DomainError(f"composition total {parts.total} does not match n={n}")
        return parts
    return Composition(tuple(int(p) for p in parts), n)


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

    These are the first-kind numbers of row j shifted down by one index.
    """
    if j < 1:
        raise DomainError(f"bridge block length must be >= 1, got {j}")
    t = tables if tables is not None else _TABLES
    return [t.first(j, r + 1) for r in range(j)]


def walk_block_poly(w: int, tables: StirlingTables | None = None) -> list[int]:
    """Coefficients of (t+1)(t+3)...(t+2w-1); the empty product for w = 0."""
    if w < 0:
        raise DomainError(f"walk block length must be >= 0, got {w}")
    t = tables if tables is not None else _TABLES
    return [t.first_b(w, r) for r in range(w + 1)]


def coeff_P_poly(n: int, parts: PartsLike,
                 tables: StirlingTables | None = None) -> list[int]:
    """Full coefficient list of the walk-terminated block product.

    One factor (t+1)(t+2)...(t+j-1) per bridge block of length j, times the
    odd rising product for the remaining n - sum(parts) walk steps.  The
    degree is n - len(parts).
    """
    comp = _as_composition(n, parts)
    poly = walk_block_poly(comp.tail, tables)
    for j in comp.parts:
        poly = poly_mul(poly, bridge_block_poly(j, tables))
    return poly


def coeff_Q_poly(n: int, parts: PartsLike,
                 tables: StirlingTables | None = None) -> list[int]:
    """Full coefficient list of the pure bridge block product.

    The leftover steps form an implicit final bridge block, which must be
    nonempty.  The degree is n - len(parts) - 1.
    """
    comp = _as_composition(n, parts)
    if comp.tail < 1:
        raise DomainError(
            f"bridge composition needs a nonempty final block: parts {comp.parts} fill n={n}")
    poly = [1]
    for j in comp.parts + (comp.tail,):
        poly = poly_mul(poly, bridge_block_poly(j, tables))
    return poly


def coeff_P(n: int, parts: PartsLike, r: int,
            tables: StirlingTables | None = None) -> int:
    """Coefficient of t^r in the walk-terminated block product (0 off-range)."""
    poly = coeff_P_poly(n, parts, tables)
    return poly[r] if 0 <= r < len(poly) else 0


def coeff_Q(n: int, parts: PartsLike, r: int,
            tables: StirlingTables | None = None) -> int:
    """Coefficient of t^r in the pure bridge block product (0 off-range)."""
    poly = coeff_Q_poly(n, parts, tables)
    return poly[r] if 0 <= r < len(poly) else 0


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
