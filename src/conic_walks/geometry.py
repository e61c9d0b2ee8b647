"""Exact computational geometry for finitely generated cones.

The cone is always the positive hull of the rows of a generator matrix.
Every verdict reads one sign record per batch of cones (a single cone is a
batch of one): the exact signs of all d x d minors of each cone's
generators, certified by a floating-point filter with an exact integer
fallback, and the facet masks they imply.  A facet is a (d-1)-subset of
generators with every other generator strictly on one side of its span.

In general position (no minor exactly zero) a cone is either all of R^d
or pointed with simplicial facets.  So the cone is full exactly when it
has no facet, it has an apex exactly when it is not full, and a subset of
generators spans a face exactly when it lies inside some facet.  The same
minors decide whether the origin lies in the convex hull of loose points,
and degenerate input, fewer points than dimensions included, takes an
exact descent through supporting hyperplanes, with no tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations
from typing import Sequence

import numpy as np

from .errors import DegenerateInputError, DomainError, SamplingError, as_index, as_indices

DEFAULT_TOL = 1e-9  # relative slack on the residual of the "inside" test of projections


@dataclass(frozen=True)
class ConeSample:
    """Generators of a sampled cone: one partial sum per row.

    Walk cones carry all n partial sums, bridge cones the first n-1.  The
    matrix is frozen read-only after construction.  The general-position,
    full-cone and face tests are exact and read the cone's minor signs,
    computed once on first use.
    """

    generators: np.ndarray

    def __post_init__(self) -> None:
        gens = np.asarray(self.generators, dtype=float)
        if gens.ndim != 2 or gens.shape[0] < 1 or gens.shape[1] < 1:
            raise DomainError("generators must form a nonempty 2-d matrix")
        if not np.all(np.isfinite(gens)):
            raise DomainError("generators must be finite")
        gens = gens.copy()
        gens.flags.writeable = False
        object.__setattr__(self, "generators", gens)

    @property
    def d(self) -> int:
        return self.generators.shape[1]

    @property
    def n_generators(self) -> int:
        return self.generators.shape[0]

    @cached_property
    def _signs(self) -> _SignRecord:
        return _SignRecord.of(self.generators.T[:, :, None])  # a batch of one

    def in_general_position(self) -> bool:
        """There are at least d generators and no d x d minor of them is
        exactly zero.  Raises DomainError when the minor table would exceed
        ``MAX_SUBSETS`` row subsets."""
        return bool(self._signs.general[0])


@dataclass(frozen=True)
class Subspace:
    """A linear subspace given by a d x m matrix with orthonormal columns."""

    basis: np.ndarray

    def __post_init__(self) -> None:
        basis = np.asarray(self.basis, dtype=float)
        if basis.ndim != 2:
            raise DomainError("subspace basis must be a 2-d matrix")
        d, m = basis.shape
        if m > d:
            raise DomainError(f"subspace dimension {m} exceeds ambient dimension {d}")
        if not np.all(np.isfinite(basis)):
            raise DomainError("subspace basis must be finite")
        if m > 0:
            gram_err = np.max(np.abs(basis.T @ basis - np.eye(m)))
            if gram_err > 1e-12:
                raise DomainError(f"basis columns not orthonormal (error {gram_err:.2e})")
        basis = basis.copy()
        basis.flags.writeable = False
        object.__setattr__(self, "basis", basis)

    @property
    def d(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


@dataclass(frozen=True)
class ConeProjection:
    """Metric projection of a point onto a cone.

    ``active_set`` holds the support the projection took: the generators
    whose positive coefficients give the projected point.  Its size is the
    dimension of the face containing the projection, except that a point
    inside the cone reports ``face_dim = d``.
    """

    point: np.ndarray
    active_set: tuple[int, ...]
    face_dim: int


# ---------------------------------------------------------------------------
# origin-in-hull primitive

MAX_SUBSETS = 200_000
"""Most row subsets a minor table may enumerate; larger inputs raise
DomainError before anything is allocated."""

# Filter for the sign of an i x i minor of the points' first i coordinates,
# level i of the expansion; level d holds the d x d minors.  Points are
# first scaled by powers of two so that their largest entry over all d
# coordinates lies in [1/2, 1); that is exact, changes no minor's sign and
# leaves every entry below one.  Level k of the expansion multiplies once
# and adds k terms, so each monomial of an i x i minor passes through at
# most D = 2 + 3 + ... + i = i(i+1)/2 - 1 roundings.  With unit roundoff
# u = 2^-53 the computed minor m~ then satisfies |m~ - m| <= gamma_D * P,
# where gamma_D = D u / (1 - D u) and P, the sum of the absolute values of
# the i! monomials, is below i! because every scaled entry is below one
# (Higham, "Accuracy and Stability of Numerical Algorithms", Lemma 3.1).
# An underflowing product errs by at most 2^-1075 more; later factors have
# magnitude below one, so at most e * i! such errors reach one minor.
# MAX_SUBSETS keeps i <= d <= 17 (2^d - 1 subsets at least), so D u < 2^-45
# and the bound 2 D u i! exceeds gamma_D * i! by more than D u i! / 2, which
# covers those errors and the rounding of the bound itself; level 1, the
# scaled coordinates, is exact, with bound 0.  A minor with |m~| above the
# bound has the sign of m~; the others, and those of a set with a point that
# lost low bits to underflow when scaled, get an exact integer determinant
# (Shewchuk 1997, "Adaptive precision floating-point arithmetic and fast
# robust geometric predicates", filters the same way).  Scaled over all d
# coordinates, a level below d may defer more minors than it would alone.


def origin_in_convex_hull(points: Sequence[Sequence[float]] | np.ndarray) -> bool:
    """Whether the origin is a convex combination of the given points.

    The verdict is exact, with no tolerance.  It is read off the signs of
    the d x d minors of the points (in one dimension, the points' own
    signs), which a floating-point filter certifies and integer arithmetic
    decides where the filter cannot.  Points may be rescaled individually
    without changing the verdict.  Inputs whose minor table would exceed
    ``MAX_SUBSETS`` row subsets raise DomainError.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
        raise DomainError("need at least one point, all of the same dimension >= 1")
    if not np.all(np.isfinite(pts)):
        raise DomainError("points must be finite")
    return _origin_in_hull(pts)


def _origin_in_hull(pts: np.ndarray) -> bool:
    """Exact verdict for any finite 2-d array of points; callers validate.
    In general position the origin is outside exactly when a facet exists;
    other points, fewer than dimensions included, take :func:`_hull_descent`."""
    rec = _SignRecord.of(pts.T[:, :, None])
    if rec.general[0]:
        return not rec.facets[:, 0].any()
    return _hull_descent(pts, rec)


def _hull_descent(pts: np.ndarray, rec: _SignRecord) -> bool:
    """Verdict for one set of points with an exactly zero d x d minor, or
    fewer points than dimensions (``rec`` its sign record).

    A zero point is inside; points with no nonzero d x d minor pass to
    coordinates on which their span maps one-to-one; and full-rank points
    positively span R^d unless some (d-1)-subset spanning a hyperplane has
    every other point weakly on one side, when a convex combination giving
    the origin can use only the points on it.  Each step drops a point or
    a coordinate.
    """
    if not pts.any(axis=1).all():
        return True
    if not rec.signs.any():
        return _origin_in_hull(pts[:, _bareiss(_integer_rows(pts))[0]])
    sides = rec.sides[:, :, 0]
    support = _weakly_supporting(sides)
    if not support.any():
        return True
    t = int(np.argmax(support))
    on_wall = rec.table.facet_others[t][sides[:, t] == 0]
    return _origin_in_hull(pts[np.sort(np.concatenate([rec.table.facet_rows[t], on_wall]))])


class _SignRecord:
    """Exact signs of all d x d minors of S sets of n points each, read as
    geometry.  A single cone is a batch of one.

    The sample axis is last throughout, so every reduction over subsets or
    points adds whole contiguous rows of samples.  ``signs`` has shape
    (T, S), T = C(n, d), and ``general[s]`` says set s has a minor and none
    is zero (n < d gives T = 0).  ``sides[:, t, s]`` holds the side of every
    point outside (d-1)-subset t (``table.facet_others[t]``) relative to the
    hyperplane it spans, 0 on it, and ``facets[t, s]`` marks the subsets
    with every other point strictly on one side; these and ``full`` are
    derived on first use.

    A record made by :meth:`of` keeps its points ``pts``, the estimates
    ``est[i - 1]`` of each level i < d of the expansion and the sets
    ``lost`` that lost bits when scaled, which :meth:`level` reads.
    """

    def __init__(self, table: _MinorTable, signs: np.ndarray, pts: np.ndarray | None = None,
                 est: Sequence[np.ndarray] = (), lost: np.ndarray | None = None) -> None:
        self.table = table
        self.signs = signs
        self.general = signs.all(axis=0) & (signs.shape[0] > 0)
        self.pts, self.est, self.lost = pts, est, lost

    @classmethod
    def of(cls, pts: np.ndarray) -> _SignRecord:
        """The record of the point sets pts, (d, n, S)."""
        d, n, count = pts.shape
        table = _minor_table(n, d)
        if n < d:
            return cls(table, np.zeros((0, count), np.int8), pts, (), np.zeros(count, bool))
        signs, est, lost = _minor_signs(pts, table)
        return cls(table, signs, pts, est[:-1], lost)

    def level(self, i: int) -> _SignRecord:
        """The record of the sets' first i coordinates (1 <= i < d), read
        off level i of this record's expansion.  Sets of fewer points than
        dimensions have no expansion; theirs is made afresh."""
        pts = self.pts[:i]
        if self.pts.shape[1] < self.pts.shape[0]:
            return _SignRecord.of(pts)
        return _SignRecord(_minor_table(self.table.shape[0], i),
                           _level_signs(pts, self.est[i - 1], self.lost)[0],
                           pts, self.est[:i - 1], self.lost)

    def subset_level(self, m: int, i: int, which: np.ndarray) -> tuple[_SignRecord, np.ndarray]:
        """The record of the first i <= m coordinates of each m-subset of
        points that ``which`` (C(n, m), S) marks, in flat order, and its set.
        The signs are gathered by flat position with ``take``, which keeps
        them contiguous, where fancy indexing runs per element."""
        f, s = np.divmod(np.flatnonzero(which), which.shape[1])  # np.nonzero, without its 2-d cost
        signs = self.level(i).signs
        parts = _subset_parts(self.table.shape[0], m, i).take(f, axis=1)
        return _SignRecord(_minor_table(m, i), signs.take(parts * signs.shape[1] + s)), s

    def decided(self, verdicts: np.ndarray) -> np.ndarray:
        """The verdicts as floats, NaN for a set with a zero minor or none."""
        return np.where(self.general, verdicts, np.nan)

    @cached_property
    def sides(self) -> np.ndarray:
        return self.signs[self.table.facet_minor.T] * self.table.facet_parity.T[:, :, None]

    @cached_property
    def facets(self) -> np.ndarray:
        return np.abs(self.sides.sum(axis=0, dtype=np.int32)) == self.sides.shape[0]

    @cached_property
    def full(self) -> np.ndarray:
        """Per set: whether its points positively span R^d, exactly: they
        do when they have rank d and no (d-1)-subset spanning a hyperplane
        has every other point weakly on one side of it; in general position,
        when the set has no facet."""
        full = ~self.facets.any(axis=0)
        odd = ~self.general
        if odd.any():
            full[odd] = (self.signs[:, odd].any(axis=0)
                         & ~_weakly_supporting(self.sides[:, :, odd]).any(axis=0))
        return full

    def faces(self, k: int) -> np.ndarray:
        """Per set in general position, which k-subsets of its points span a
        face of their cone (0 <= k <= d-1): a mask (C(n, k), S) over the
        k-subsets in combinations order.  Such a cone is full or pointed with
        simplicial facets, so a subset spans a face exactly when it lies
        inside a facet: its row ORs the facet rows of the (d-1)-subsets
        holding it.  The apex, k = 0, lies inside every facet of a pointed
        cone."""
        return self.facets[_subset_walls(*self.table.shape, k)].any(axis=1)

    def face(self, rows: Sequence[int]) -> np.ndarray:
        """Row ``rows`` (a sorted k-subset, k >= 1) of :meth:`faces`."""
        at = np.flatnonzero((_subsets(self.table.shape[0], len(rows)) == rows).all(axis=1))[0]
        return self.facets[_subset_walls(*self.table.shape, len(rows))[at]].any(axis=0)


def _weakly_supporting(sides: np.ndarray) -> np.ndarray:
    """Per (d-1)-subset (the second axis; the first holds the other
    points): some other point is off its hyperplane and all other points
    lie weakly on one side of it."""
    off = np.abs(sides).sum(axis=0, dtype=np.int32)
    return (off > 0) & (np.abs(sides.sum(axis=0, dtype=np.int32)) == off)


@dataclass(frozen=True)
class _MinorTable:
    """Index tables for the d x d minors of an n x d matrix.

    ``levels[k - 2]``, k <= min(n, d), holds, for every k-subset R of rows
    in combinations order, its rows, the positions of R without R_i among
    the (k-1)-subsets, and the cofactor signs: the k x k minor on the first
    k columns is sum_i (-1)^(i+k-1) x[R_i, k-1] minor(R without R_i).  The
    rows and positions are stored transposed, one index row per i, so term
    i of a batch gathers one sample row per subset.  For every (d-1)-subset S,
    ``facet_minor`` and ``facet_parity`` turn the minors into
    det[x_S; x_j] for each other row j (in ``facet_others``), the side of
    x_j relative to the hyperplane spanned by S.
    """

    shape: tuple[int, int]
    levels: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]
    facet_rows: np.ndarray
    facet_others: np.ndarray
    facet_minor: np.ndarray
    facet_parity: np.ndarray


def _check_subset_count(n: int, d: int) -> None:
    """Raise DomainError when the row subsets of size 1..d exceed the cap."""
    count = sum(math.comb(n, k) for k in range(1, min(n, d) + 1))
    if count > MAX_SUBSETS:
        raise DomainError(
            f"n={n}, d={d} needs {count} row subsets, above the cap of {MAX_SUBSETS}")


@lru_cache(maxsize=256)
def _subsets(n: int, k: int) -> np.ndarray:
    """The k-subsets of range(n) in combinations order, one per row."""
    rows = np.array(list(combinations(range(n), k)), dtype=np.intp).reshape(math.comb(n, k), k)
    rows.flags.writeable = False
    return rows


@lru_cache(maxsize=256)
def _minor_table(n: int, d: int) -> _MinorTable:
    _check_subset_count(n, d)
    position = {(r,): r for r in range(n)}
    levels = []
    for k in range(2, min(n, d) + 1):
        rows = _subsets(n, k)
        subsets = [tuple(s) for s in rows.tolist()]
        below = [[position[s[:i] + s[i + 1:]] for i in range(k)] for s in subsets]
        cofactor = np.array([(-1.0) ** (i + k - 1) for i in range(k)])
        levels.append((np.ascontiguousarray(rows.T), np.array(below, dtype=np.intp).T.copy(),
                       cofactor))
        position = {s: t for t, s in enumerate(subsets)}
    walls = [tuple(s) for s in _subsets(n, d - 1).tolist()]
    others = [[j for j in range(n) if j not in wall] for wall in walls]
    minor = [[position[tuple(sorted(wall + (j,)))] for j in rest]
             for wall, rest in zip(walls, others)]
    # moving row j from its sorted place to the end passes the rows after it
    parity = [[(-1) ** sum(i > j for i in wall) for j in rest]
              for wall, rest in zip(walls, others)]
    shape = (len(walls), max(n - d + 1, 0))  # kept with no wall or no other row
    return _MinorTable(
        shape=(n, d),
        levels=tuple(levels),
        facet_rows=_subsets(n, d - 1),
        facet_others=np.array(others, dtype=np.intp).reshape(shape),
        facet_minor=np.array(minor, dtype=np.intp).reshape(shape),
        facet_parity=np.array(parity, dtype=np.int8).reshape(shape))


@lru_cache(maxsize=256)
def _subset_walls(n: int, d: int, k: int) -> np.ndarray:
    """The incidence of k-subsets and (d-1)-subsets of range(n): per
    k-subset in combinations order, the positions of the C(n-k, d-1-k)
    (d-1)-subsets holding it, in combinations order."""
    position = {tuple(s): t for t, s in enumerate(_subsets(n, k).tolist())}
    holding: list[list[int]] = [[] for _ in position]
    for w, wall in enumerate(_subsets(n, d - 1).tolist()):
        for c in combinations(wall, k):
            holding[position[c]].append(w)
    walls = np.array(holding, dtype=np.intp).reshape(
        len(holding), math.comb(n - k, d - 1 - k) if k <= n else 0)
    walls.flags.writeable = False
    return walls


@lru_cache(maxsize=256)
def _subset_parts(n: int, m: int, i: int) -> np.ndarray:
    """The positions of the C(m, i) i-subsets of each m-subset of range(n)
    among the i-subsets of range(n), all in combinations order: one column
    per m-subset, (C(m, i), C(n, m))."""
    position = {tuple(s): t for t, s in enumerate(_subsets(n, i).tolist())}
    parts = np.array([[position[c] for c in combinations(s, i)] for s in _subsets(n, m).tolist()],
                     dtype=np.intp).reshape(math.comb(n, m), math.comb(m, i)).T.copy()
    parts.flags.writeable = False
    return parts


def _minor_estimates(x: np.ndarray, table: _MinorTable) -> list[np.ndarray]:
    """Floating-point values of the minors of each set in x, (d, n, S),
    level by level: entry i - 1 holds the i x i minors of the first i
    coordinates, (C(n, i), S), for i = 1..min(n, d); level 1 is x[0].

    The k cofactor terms of a level are added one at a time, each gathering
    whole sample rows, so every temporary has the shape (C(n, k), S) of one
    level.  Stacked k-fold, a batch's products are large enough that the
    allocator maps them afresh, and the kernel faults them in page by page,
    on every batch.
    """
    levels = [x[0]]
    for k, (rows, below, cofactor) in enumerate(table.levels, start=2):
        col, m = x[k - 1], levels[-1]
        level = np.zeros((rows.shape[1], x.shape[2]))
        for r, b, c in zip(rows, below, cofactor):  # c = +-1 adds or subtracts, exactly
            (np.add if c > 0 else np.subtract)(level, col[r] * m[b], out=level)
        levels.append(level)
    return levels


def _minor_signs(pts: np.ndarray, table: _MinorTable) -> tuple[np.ndarray, list, np.ndarray]:
    """Exact signs of all d x d minors of each set in pts, (d, n, S), in
    combinations order, (T, S), by :func:`_level_signs` at level d; with
    every level's estimates and the sets that lost bits when scaled."""
    _, expo = np.frexp(np.abs(pts).max(axis=0))
    scaled = np.ldexp(pts, -expo)
    est = _minor_estimates(scaled, table)
    lost = (np.ldexp(scaled, expo) != pts).any(axis=(0, 1))
    return _level_signs(pts, est[-1], lost)[0], est, lost


def _level_signs(pts: np.ndarray, est: np.ndarray, lost: np.ndarray) -> tuple[np.ndarray, ...]:
    """Exact signs of all i x i minors of each set in pts, (i, n, S), in
    combinations order, (C(n, i), S), from their estimates ``est`` and the
    ``lost`` sets, and the mask of those the filter left to integers."""
    i, n, _ = pts.shape
    bound = (i * (i + 1) // 2 - 1) * math.factorial(i) * 2.0 ** -52
    signs = (est > bound).view(np.int8) - (est < -bound).view(np.int8)  # 0 where unsure
    unsure = signs == 0
    unsure[:, lost] = True
    if not unsure.any():
        return signs, unsure
    subsets = _subsets(n, i)
    for s in np.flatnonzero(unsure.any(axis=0)):
        rows = _integer_rows(pts[:, :, s].T)
        for t in np.flatnonzero(unsure[:, s]):
            det = _bareiss([rows[r] for r in subsets[t]])[1]
            signs[t, s] = (det > 0) - (det < 0)
    return signs, unsure


def _integer_rows(pts: np.ndarray) -> list[list[int]]:
    """Each row times a positive power of two, as exact integers.

    Doubles are dyadic rationals, so this is exact, and it keeps the sign
    of every minor."""
    out = []
    for row in pts.tolist():
        ratios = [x.as_integer_ratio() for x in row]
        den = max(q for _, q in ratios)
        out.append([p * (den // q) for p, q in ratios])
    return out


def _bareiss(rows: list[list[int]]) -> tuple[list[int], int]:
    """Fraction-free (Bareiss) elimination of an integer matrix.

    Returns the pivot columns of its row-echelon form, on which the matrix
    keeps its rank with independent columns, and the determinant, which is
    0 unless the matrix is square and nonsingular.  After each step every
    entry below the pivots is a minor of the input, so every division is
    exact (Bareiss 1968).
    """
    a = [row[:] for row in rows]
    pivots: list[int] = []
    sign = 1
    prev = 1
    for c in range(len(a[0])):
        top = len(pivots)
        if top == len(a):
            break
        p = next((i for i in range(top, len(a)) if a[i][c] != 0), None)
        if p is None:
            continue
        if p != top:
            a[top], a[p] = a[p], a[top]
            sign = -sign
        f = a[top][c]
        for i in range(top + 1, len(a)):
            g = a[i][c]
            a[i] = [(x * f - y * g) // prev for x, y in zip(a[i], a[top])]
        prev = f
        pivots.append(c)
    square = len(pivots) == len(a) == len(a[0])
    return pivots, sign * prev if square else 0


# ---------------------------------------------------------------------------
# cone predicates


def is_full_cone(cone: ConeSample) -> bool:
    """Whether the generators positively span R^d, i.e. the cone is R^d.
    Exact for any input, by the rule of :attr:`_SignRecord.full`; in
    general position it reads: the cone has no facet."""
    return bool(cone._signs.full[0])


def _validated_subset(cone: ConeSample, subset: Sequence[int]) -> tuple[int, ...]:
    idx = as_indices(subset, "a generator index")
    k = len(idx)
    if not 1 <= k <= cone.d - 1:
        raise DomainError(f"face test requires 1 <= k <= d-1, got k={k}, d={cone.d}")
    if len(set(idx)) != k or min(idx) < 0 or max(idx) >= cone.n_generators:
        raise DomainError(
            f"subset must hold distinct generator row indices in [0, {cone.n_generators}), got {idx}")
    return tuple(sorted(idx))


def _full_or_checked(cone: ConeSample) -> bool:
    """Whether the cone is full.  A cone that is not full must have
    independent generators when they are fewer than d, and no exactly zero
    minor otherwise; else DegenerateInputError."""
    n, d = cone.generators.shape
    if n < d and len(_bareiss(_integer_rows(cone.generators))[0]) < n:
        raise DegenerateInputError(
            f"{n} generators in R^{d} are linearly dependent; face test undefined")
    rec = cone._signs
    full = bool(rec.full[0])
    if full or rec.general[0] or n < d:
        return full
    raise DegenerateInputError(
        "the cone is not full and has an exactly zero d x d minor; face test undefined")


def _faces(cone: ConeSample, k: int) -> list[tuple[int, ...]]:
    """The k-subsets of generators (0 <= k <= d-1) that span a face of the
    cone, in combinations order.

    The apex ``()`` is the 0-face of every pointed cone, for any input; a
    cone containing a line has none.  For k >= 1, a full cone has no face.
    Fewer than d independent generators span a simplicial cone, whose every
    subset spans a face.  Otherwise, in general position, a subset spans a
    face exactly when it lies inside a facet.  Other input raises
    DegenerateInputError (see :func:`_full_or_checked`).
    """
    rec = cone._signs
    subsets = _subsets(cone.n_generators, k)
    if rec.general[0]:
        return [tuple(s) for s in subsets[rec.faces(k)[:, 0]].tolist()]
    if k == 0:
        nonzero = cone.generators[cone.generators.any(axis=1)]
        return [] if nonzero.shape[0] and _origin_in_hull(nonzero) else [()]
    if _full_or_checked(cone):
        return []
    return [tuple(s) for s in subsets.tolist()]


def _tangent_base(gens: np.ndarray, face: tuple[int, ...]) -> np.ndarray:
    """The rows of gens (n, d) outside the face's rows (j >= 1 of them,
    sorted), projected onto the orthogonal complement of the face's span
    by one SVD: (n - j, d - j).  Face rows that are numerically
    rank-deficient, with a singular value at most max(j, d) * eps times the
    largest, raise DegenerateInputError."""
    n, d = gens.shape
    _, s, vt = np.linalg.svd(gens[list(face)])
    if s[-1] <= max(len(face), d) * np.finfo(float).eps * s[0]:
        raise DegenerateInputError(f"face generators {face} are numerically rank-deficient")
    return gens[[i for i in range(n) if i not in face]] @ vt[len(face):].T


def is_face(cone: ConeSample, subset: Sequence[int]) -> bool:
    """Whether the selected generators (0-based rows) span a face of the cone.

    Exact, under the contract of the face enumeration: a full cone has no
    proper face; fewer than d independent generators make every subset a
    face; in general position a subset spans a face exactly when it lies
    inside a facet; other input raises DegenerateInputError.
    """
    idx = _validated_subset(cone, subset)
    return idx in _faces(cone, len(idx))


def intersects_subspace(cone: ConeSample, subspace: Subspace) -> bool:
    """Whether the cone meets the subspace in more than the origin.

    A cone without a nonzero generator meets no subspace, and a full cone
    every subspace but {0}.  A pointed cone meets one exactly when the
    origin lies in the hull of its generators projected onto the subspace's
    orthogonal complement.  Any other cone raises DegenerateInputError for
    a subspace of dimension 1 to d-1: its line projects to the origin.
    """
    if subspace.d != cone.d:
        raise DomainError(
            f"subspace lives in dimension {subspace.d}, cone in {cone.d}")
    gens = cone.generators[cone.generators.any(axis=1)]
    if subspace.dim == 0 or gens.shape[0] == 0:
        return False
    if subspace.dim == cone.d:
        return True
    if _faces(cone, 0):  # pointed: project as the tangent base of the basis rows
        rows = np.vstack([subspace.basis.T, gens])
        return _origin_in_hull(_tangent_base(rows, tuple(range(subspace.dim))))
    if is_full_cone(cone):
        return True
    raise DegenerateInputError("the cone contains a line and is not full; subspace test undefined")


def count_k_faces(cone: ConeSample, k: int) -> int:
    """Number of k-dimensional faces, 0 <= k <= d-1.

    A pointed cone has exactly one 0-face, the apex; a cone containing a
    line (a full cone, a half-space, ...) has none.  Faces with k >= 1
    follow the contract of :func:`is_face`.  Inputs whose minor table
    would exceed ``MAX_SUBSETS`` row subsets raise DomainError.
    """
    k = as_index(k, "the face dimension k")
    if not 0 <= k <= cone.d - 1:
        raise DomainError(f"count_k_faces requires 0 <= k <= d-1, got k={k}, d={cone.d}")
    return len(_faces(cone, k))


def tangent_cone_projection_base(cone: ConeSample, subset: Sequence[int]) -> ConeSample:
    """The cone projected onto the orthogonal complement of a face's span.

    The tangent cone at the face is the orthogonal sum of the face's span
    and this projected cone, so quermassintegrals of the tangent cone drop
    indices by the face dimension.  An empty subset returns the cone itself.
    """
    if len(tuple(subset)) == 0:
        return cone
    idx = _validated_subset(cone, subset)
    if idx not in _faces(cone, len(idx)):
        raise DomainError(f"subset {idx} is not a face; tangent cone base undefined")
    return ConeSample(_tangent_base(cone.generators, idx))


def _validated_point(cone: ConeSample, x: Sequence[float]) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (cone.d,):
        raise DomainError(f"point has shape {x.shape}, expected ({cone.d},)")
    if not np.all(np.isfinite(x)):
        raise DomainError("point must be finite")
    return x


def cone_contains(cone: ConeSample, x: Sequence[float]) -> bool:
    """Membership of a finite point of R^d in the positive hull: the point
    is its own projection under :func:`project_onto_cone`, whose contract
    and ``DEFAULT_TOL`` slack apply."""
    return project_onto_cone(x, cone).face_dim == cone.d


# ---------------------------------------------------------------------------
# metric projection


def project_onto_cone(g: Sequence[float], cone: ConeSample) -> ConeProjection:
    """Nearest point of the cone to ``g`` with its face classification.

    The support comes from :func:`_projection_support`.  A residual within
    ``DEFAULT_TOL`` * max(1, |g|), or a full cone, puts g inside
    (``face_dim = d``); otherwise the face dimension is the support's size.
    The cone follows the contract of :func:`is_face`, and the supports obey
    ``MAX_SUBSETS`` like the minor table.  The projection is positively
    homogeneous, so a point of magnitude 1 or more is first scaled down by
    one power of two, which is exact and keeps huge finite points finite.
    """
    g = _validated_point(cone, g)
    _check_subset_count(cone.n_generators, cone.d)
    full = _full_or_checked(cone)
    expo = max(np.frexp(np.abs(g).max())[1], 0)
    unit = np.ldexp(g, -expo)
    support, resid = _projection_support(cone.generators, unit)
    slack = DEFAULT_TOL * max(np.ldexp(1.0, -expo), np.linalg.norm(unit))  # in unit's scale
    if full or np.linalg.norm(resid) <= slack:
        return ConeProjection(point=g.copy(), active_set=support, face_dim=cone.d)
    point = g - np.ldexp(resid, expo)
    return ConeProjection(point=point, active_set=support, face_dim=len(support))


def _projection_support(gens: np.ndarray, g: np.ndarray) -> tuple[tuple[int, ...], np.ndarray]:
    """Support of the metric projection p of the point g (d,) onto the
    positive hull of the rows of gens (n, d), and the residual g - p.

    A projection is the least-squares point of the support whose
    coefficients are all positive and whose residual has a nonpositive
    inner product with every row outside it (Moreau decomposition).  A
    point with no positive inner product with a row takes the empty
    support, with residual g.  The supports of k <= min(n, d) rows are then
    tried by size, each size in one solve over its C(n, k) supports, and the
    first passing one in combinations order is taken; a positive square
    solve of size d puts g inside the cone, with zero residual.  Every
    positive candidate is a point of the cone, so when rounding lets no
    support pass, the one nearest to g is taken (the empty support is one).
    The rows are first scaled by one power of two to keep the Gram products
    finite; that is exact, and LU with partial pivoting is invariant under it.
    """
    n, d = gens.shape
    gens = np.ldexp(gens, -np.frexp(np.abs(gens).max(initial=0.0))[1])
    best, best_resid = (), g
    if (gens @ g <= 0.0).all():
        return best, best_resid
    for k in range(1, min(n, d) + 1):
        rows = _subsets(n, k)
        a = gens[rows]  # (T, k, d)
        if k < d:
            coef = _solve(a @ a.transpose(0, 2, 1), a @ g)
            resid = g - (coef[:, None, :] @ a)[:, 0]
        else:  # g is a combination of the d rows
            coef = _solve(a.transpose(0, 2, 1), np.broadcast_to(g, (len(rows), d)))
            resid = np.zeros((len(rows), d))
        outside = resid @ gens.T
        outside[np.arange(len(rows))[:, None], rows] = 0.0  # rows inside the support
        positive = (coef > 0.0).all(axis=1)
        passing = np.flatnonzero(positive & (outside <= 0.0).all(axis=1))
        if passing.size:
            return tuple(rows[passing[0]].tolist()), resid[passing[0]]
        dist = np.where(positive, (resid * resid).sum(axis=1), np.inf)
        t = int(np.argmin(dist))
        if dist[t] < best_resid @ best_resid:
            best, best_resid = tuple(rows[t].tolist()), resid[t]
    return best, best_resid


def _solve(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Batched solve of lhs[t] x = rhs[t]; a system that rounds to singular
    gets NaN, which is no positive candidate.  A failing stack is halved
    until each singular system stands alone, so one singular system among
    T costs O(log T) solves."""
    try:
        return np.linalg.solve(lhs, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        if len(lhs) == 1:
            return np.full(rhs.shape, np.nan)
        h = len(lhs) // 2
        return np.concatenate([_solve(lhs[:h], rhs[:h]), _solve(lhs[h:], rhs[h:])])


# ---------------------------------------------------------------------------
# subspace sampling


def sample_uniform_subspace(d: int, m: int, rng: np.random.Generator) -> Subspace:
    """Rotation-invariant random m-dimensional subspace of R^d.

    Orthonormalizes a d x m standard Gaussian matrix; numerically
    rank-deficient draws (probability ~0) are resampled.
    """
    d, m = as_index(d, "d"), as_index(m, "m")
    if not 0 <= m <= d:
        raise DomainError(f"subspace dimension must satisfy 0 <= m <= d, got m={m}, d={d}")
    if m == 0:
        return Subspace(np.zeros((d, 0)))
    for _ in range(32):
        gauss = rng.standard_normal((d, m))
        if m == 1:
            nrm = math.sqrt(float(gauss[:, 0] @ gauss[:, 0]))
            if nrm <= 1e-154:
                continue
            return Subspace(gauss / nrm)
        q, r = np.linalg.qr(gauss)
        diag = np.diagonal(r)
        if np.min(np.abs(diag)) <= 1e-12 * max(float(np.abs(diag).max()), 1e-300):
            continue
        return Subspace(q * np.sign(diag))
    raise SamplingError("could not orthonormalize a Gaussian basis after 32 draws")
