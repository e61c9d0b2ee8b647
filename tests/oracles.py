"""Brute-force oracles shared by the geometry, formula and acceptance tests."""

import functools
import itertools
import math
from fractions import Fraction
from itertools import combinations
from typing import Callable, Iterator, Sequence

import numpy as np
from scipy.optimize import linprog

from conic_walks.combinatorics import (
    LowOrderProduct,
    StirlingTables,
    _validated_parts,
    block_roots,
    bridge_block_poly,
    coeff_P_poly,
    coeff_Q_poly,
    default_tables,
    poly_mul,
    root_product,
    walk_block_poly,
)
from conic_walks import geometry, simulation, verify
from conic_walks.errors import DegenerateInputError, DomainError, NumericError, SamplingError
from conic_walks.formulas import FunctionalQuery, Model
from conic_walks.geometry import (DEFAULT_TOL, ConeSample, count_k_faces, is_face, is_full_cone,
                                  origin_in_convex_hull)


def brute_force_is_face(gens, subset, tol=1e-9):
    """Supporting-hyperplane search: the subset spans a face exactly when
    some hyperplane through the span of d-1 generators containing it keeps
    every other generator strictly on one side."""
    n, d = gens.shape
    subset = set(subset)
    others_all = [i for i in range(n) if i not in subset]
    for extra in combinations(others_all, d - 1 - len(subset)):
        wall = sorted(subset | set(extra))
        rows = gens[wall]
        _, _, vt = np.linalg.svd(rows, full_matrices=True)
        normal = vt[-1]
        rest = [i for i in range(n) if i not in wall]
        vals = gens[rest] @ normal
        scale = max(np.abs(vals).max(initial=0.0), 1.0)
        if np.all(vals > tol * scale) or np.all(vals < -tol * scale):
            return True
    return False


def projection_is_face(gens, subset):
    """The projection face test that production used before the facet
    mask replaced it: the subset spans a face exactly when the other
    generators, projected onto the orthogonal complement of the subset's
    span, leave the origin outside their convex hull there (here decided
    by the margin LP below)."""
    gens = np.asarray(gens, dtype=float)
    sel = sorted(subset)
    rest = [i for i in range(gens.shape[0]) if i not in sel]
    _, s, vt = np.linalg.svd(gens[sel], full_matrices=True)
    rank = int(np.sum(s > max(len(sel), gens.shape[1]) * np.finfo(float).eps * s[0]))
    assert rank == len(sel), f"selected generators {sel} are rank-deficient"
    return not rest or not lp_origin_in_hull(gens[rest] @ vt[rank:].T)


def random_cone_generators(rng, n, d, bridge=False, law="gaussian"):
    steps = rng.standard_normal((n, d)) if law == "gaussian" else rng.standard_cauchy((n, d))
    if bridge:
        steps = steps - steps.mean(axis=0)
        return np.cumsum(steps, axis=0)[:-1]
    return np.cumsum(steps, axis=0)


def lp_origin_in_hull(points, tol=1e-9):
    """The margin LP that decided origin-in-hull from dimension three on
    before the exact minor-sign predicate replaced it.

    Points of norm at most 1e-300 are dropped, the rest normalized; the
    origin is outside exactly when some box-bounded functional u reaches a
    margin delta > tol with <u, x_i> <= -delta for every point.
    """
    pts = np.asarray(points, dtype=float)
    norms = np.linalg.norm(pts, axis=1)
    tiny = norms <= 1e-300
    if np.all(tiny):
        return True
    unit = pts[~tiny] / norms[~tiny][:, None]
    n, d = unit.shape
    c = np.zeros(d + 1)
    c[-1] = -1.0
    a_ub = np.hstack([unit, np.ones((n, 1))])
    bounds = [(-1.0, 1.0)] * d + [(0.0, float(d) + 1.0)]
    res = linprog(c, A_ub=a_ub, b_ub=np.zeros(n), bounds=bounds, method="highs")
    assert res.status == 0, res.message
    return not float(res.x[-1]) > tol


def fraction_feasible(a_rows, b):
    """Whether A x = b has a solution x >= 0, by an exact phase-one simplex
    over Fractions with Bland's rule (which cannot cycle)."""
    m, ncols = len(a_rows), len(a_rows[0])
    rows = []
    for i, (coeffs, rhs) in enumerate(zip(a_rows, b)):
        flip = -1 if rhs < 0 else 1
        rows.append([flip * Fraction(v) for v in coeffs]
                    + [Fraction(int(j == i)) for j in range(m)] + [flip * Fraction(rhs)])
    basis = [ncols + i for i in range(m)]
    cost = [0] * ncols + [1] * m
    while True:
        reduced = [cost[j] - sum(cost[basis[i]] * rows[i][j] for i in range(m))
                   for j in range(ncols + m)]
        entering = next((j for j, rc in enumerate(reduced) if rc < 0), None)
        if entering is None:
            break
        # the phase-one objective is bounded below, so some ratio exists
        _, _, leave = min((rows[i][-1] / rows[i][entering], basis[i], i)
                          for i in range(m) if rows[i][entering] > 0)
        pivot = rows[leave][entering]
        rows[leave] = [v / pivot for v in rows[leave]]
        for i in range(m):
            if i != leave and rows[i][entering] != 0:
                f = rows[i][entering]
                rows[i] = [v - f * w for v, w in zip(rows[i], rows[leave])]
        basis[leave] = entering
    return sum(rows[i][-1] for i in range(m) if basis[i] >= ncols) == 0


def fraction_origin_in_hull(points):
    """Exact: some convex combination of the points is the origin."""
    pts = [[Fraction(v) for v in p] for p in np.asarray(points, dtype=float).tolist()]
    d = len(pts[0])
    a_rows = [[p[c] for p in pts] for c in range(d)] + [[1] * len(pts)]
    return fraction_feasible(a_rows, [0] * d + [1])


def fraction_positively_spans(points):
    """Exact: the positive hull of the points is all of R^d, i.e. it holds
    e_1, ..., e_d and -(e_1 + ... + e_d), which positively span R^d."""
    pts = [[Fraction(v) for v in p] for p in np.asarray(points, dtype=float).tolist()]
    d = len(pts[0])
    a_rows = [[p[c] for p in pts] for c in range(d)]
    targets = [[int(c == i) for c in range(d)] for i in range(d)] + [[-1] * d]
    return all(fraction_feasible(a_rows, v) for v in targets)


def fraction_det(rows):
    """Exact determinant of a square matrix of floats, by Gaussian
    elimination over Fractions."""
    a = [[Fraction(v) for v in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][k] != 0), None)
        if p is None:
            return Fraction(0)
        if p != k:
            a[k], a[p] = a[p], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return det


# ---------------------------------------------------------------------------
# integer eliminations
#
# The geometry took determinants and pivot columns from these two
# eliminations before one Bareiss elimination returned both; they are kept
# unchanged as its reference.

def int_det(mat: list[list[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free (Bareiss)
    elimination; every division is exact."""
    a = [row[:] for row in mat]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def pivot_columns(rows: list[list[int]]) -> list[int]:
    """Pivot columns of a row-echelon form of an integer matrix: the
    matrix restricted to them has the same rank, with independent columns."""
    a = [row[:] for row in rows]
    pivots: list[int] = []
    for c in range(len(a[0])):
        top = len(pivots)
        p = next((i for i in range(top, len(a)) if a[i][c] != 0), None)
        if p is None:
            continue
        a[top], a[p] = a[p], a[top]
        for i in range(top + 1, len(a)):
            if a[i][c] != 0:
                f, g = a[top][c], a[i][c]
                a[i] = [x * f - y * g for x, y in zip(a[i], a[top])]
        pivots.append(c)
        if len(pivots) == len(a):
            break
    return pivots


# ---------------------------------------------------------------------------
# closed forms with separate bridge and walk branches
#
# The formula layer evaluated every expectation through these twin
# branches before one parametrised family record replaced them; they are
# kept unchanged as the reference the family form must match exactly.
# They read whole rows of the full triangles and whole block polynomials,
# so they are also the reference for the truncated root products and the
# P(1)/P(-1) tails that replaced those reads.

def _sum_down(f: Callable[[int], int], start: int) -> int:
    """f(start) + f(start-2) + ... over nonnegative indices."""
    total = 0
    i = start
    while i >= 0:
        total += f(i)
        i -= 2
    return total


def _sum_up(f: Callable[[int], int], start: int, stop: int) -> int:
    """f(start) + f(start+2) + ... while the index stays <= stop."""
    total = 0
    i = start
    while i <= stop:
        total += f(i)
        i += 2
    return total


def _sum_alternating_down(f: Callable[[int], int], start: int) -> int:
    """f(start) - f(start-1) + f(start-2) - ... over nonnegative indices."""
    total = 0
    sign = 1
    for i in range(start, -1, -1):
        total += sign * f(i)
        sign = -sign
    return total


# ---------------------------------------------------------------------------
# LowOrderProduct sums with a callable weight
#
# The sums of LowOrderProduct called the weight once per index, and the
# unweighted forms a default weight of 1, before they read coefficient
# slices and a weight sequence; moved unchanged.

def replaced_down(prod: LowOrderProduct, start: int,
                  weight: Callable[[int], int] = lambda r: 1) -> int:
    """c_start w(start) + c_(start-2) w(start-2) + ... over nonnegative indices."""
    return sum(prod.coeffs[r] * weight(r) for r in range(start, -1, -2))


def replaced_alternating(prod: LowOrderProduct, start: int,
                         weight: Callable[[int], int] = lambda r: 1) -> int:
    """c_start w(start) - c_(start-1) w(start-1) + ... down to index 0."""
    return sum((-1) ** (start - r) * prod.coeffs[r] * weight(r)
               for r in range(start, -1, -1))


def replaced_parity_tail(prod: LowOrderProduct, a: int) -> int:
    """Sum of c_r over r >= a with r = a (mod 2), from P(1) and P(-1)."""
    half = (prod.at_one + (-1) ** a * prod.at_minus_one) // 2
    return half - replaced_down(prod, a - 2)


def replaced_tail(prod: LowOrderProduct, a: int) -> int:
    """Sum of c_r over r >= a."""
    return prod.at_one - sum(prod.coeffs[r] for r in range(a))


def _bridge_profile(model: Model, tables: StirlingTables):
    n = model.n
    s1 = lambda i: tables.first(n, i)
    s2 = tables.second
    return n, s1, s2


def _walk_profile(model: Model, tables: StirlingTables):
    n = model.n
    b1 = lambda i: tables.first_b(n, i)
    b2 = tables.second_b
    return n, b1, b2


def nonabsorption_probability(model: Model, tables: StirlingTables | None = None) -> Fraction:
    """P[cone != R^d], equivalently that the origin avoids the path's convex hull."""
    t = tables if tables is not None else default_tables()
    n, d = model.n, model.d
    if model.is_bridge:
        return Fraction(2 * _sum_down(lambda i: t.first(n, i), d), math.factorial(n))
    return Fraction(2 * _sum_down(lambda i: t.first_b(n, i), d - 1),
                    (1 << n) * math.factorial(n))


def absorption_probability(model: Model, tables: StirlingTables | None = None) -> Fraction:
    """P[cone = R^d]."""
    t = tables if tables is not None else default_tables()
    n, d = model.n, model.d
    if model.is_bridge:
        return Fraction(2 * _sum_up(lambda i: t.first(n, i), d + 2, n), math.factorial(n))
    return Fraction(2 * _sum_up(lambda i: t.first_b(n, i), d + 1, n),
                    (1 << n) * math.factorial(n))


def _conditioned(value: Fraction, model: Model, tables: StirlingTables) -> Fraction:
    return value / nonabsorption_probability(model, tables)


# ---------------------------------------------------------------------------
# size functionals


def expected_Y(model: Model, m: int, l: int, conditioned: bool = False,
               tables: StirlingTables | None = None) -> Fraction:
    """Expected sum over m-faces of the l-th conic quermassintegral."""
    t = tables if tables is not None else default_tables()
    d = model.d
    if not 0 <= l < m <= d - 1:
        raise DomainError(f"expected_Y requires 0 <= l < m <= d-1, got m={m}, l={l}, d={d}")
    if model.is_bridge:
        n, s1, s2 = _bridge_profile(model, t)
        edge = _sum_up(lambda i: t.first(m + 1, i), l + 2, m + 1)
        bulk = _sum_down(lambda i: s1(i) * s2(i, m + 1), d)
        value = Fraction(2 * edge * bulk, math.factorial(n))
    else:
        n, b1, b2 = _walk_profile(model, t)
        edge = _sum_up(lambda i: t.first_b(m, i), l + 1, m)
        bulk = _sum_down(lambda i: b1(i) * b2(i, m), d - 1)
        value = Fraction(2 * edge * bulk, (1 << n) * math.factorial(n))
    return _conditioned(value, model, t) if conditioned else value


def expected_Z(model: Model, j: int, k: int, conditioned: bool = False,
               tables: StirlingTables | None = None) -> Fraction:
    """Expected sum over j-faces of the k-th quermassintegral of the tangent cone."""
    t = tables if tables is not None else default_tables()
    d = model.d
    if not 0 <= j <= k <= d:
        raise DomainError(f"expected_Z requires 0 <= j <= k <= d, got j={j}, k={k}, d={d}")
    if model.is_bridge:
        n, s1, s2 = _bridge_profile(model, t)
        tail = lambda x: _sum_down(lambda i: s1(i) * s2(i, j + 1), x)
        value = Fraction(math.factorial(j + 1) * (tail(d) - tail(k)), math.factorial(n))
    else:
        n, b1, b2 = _walk_profile(model, t)
        tail = lambda x: _sum_down(lambda i: b1(i) * b2(i, j), x - 1)
        value = Fraction(math.factorial(j) * (tail(d) - tail(k)),
                         (1 << (n - j)) * math.factorial(n))
    return _conditioned(value, model, t) if conditioned else value


def expected_fk(model: Model, k: int, conditioned: bool = False,
                tables: StirlingTables | None = None) -> Fraction:
    """Expected number of k-dimensional faces, 0 <= k <= d-1.

    k = 0 counts the apex, so the unconditioned value equals the
    nonabsorption probability.
    """
    t = tables if tables is not None else default_tables()
    d = model.d
    if not 0 <= k <= d - 1:
        raise DomainError(f"expected_fk requires 0 <= k <= d-1, got k={k}, d={d}")
    if model.is_bridge:
        n, s1, s2 = _bridge_profile(model, t)
        bulk = _sum_down(lambda i: s1(i) * s2(i, k + 1), d)
        value = Fraction(2 * math.factorial(k + 1) * bulk, math.factorial(n))
    else:
        n, b1, b2 = _walk_profile(model, t)
        bulk = _sum_down(lambda i: b1(i) * b2(i, k), d - 1)
        value = Fraction(2 * math.factorial(k) * bulk, (1 << (n - k)) * math.factorial(n))
    return _conditioned(value, model, t) if conditioned else value


def expected_Uk(model: Model, k: int, conditioned: bool = False,
                tables: StirlingTables | None = None) -> Fraction:
    """Expected k-th conic quermassintegral, 0 <= k <= d.

    The unconditioned value splits on the parity of d-k because the full
    space contributes U_k(R^d) = 1 exactly when d-k is odd; the conditioned
    cone is never R^d, so it has its own ratio formula.
    """
    t = tables if tables is not None else default_tables()
    n, d = model.n, model.d
    if not 0 <= k <= d:
        raise DomainError(f"expected_Uk requires 0 <= k <= d, got k={k}, d={d}")
    if model.is_bridge:
        row = lambda i: t.first(n, i)
        if conditioned:
            full, part = _sum_down(row, d), _sum_down(row, k)
            return Fraction(full - part, 2 * full)
        if (d - k) % 2 == 1:
            total = _sum_up(row, k + 2, n) + _sum_up(row, d + 2, n)
        else:
            total = _sum_up(row, k + 2, d)
        return Fraction(total, math.factorial(n))
    row = lambda i: t.first_b(n, i)
    if conditioned:
        full, part = _sum_down(row, d - 1), _sum_down(row, k - 1)
        return Fraction(full - part, 2 * full)
    if (d - k) % 2 == 1:
        total = _sum_up(row, k + 1, n) + _sum_up(row, d + 1, n)
    else:
        total = _sum_up(row, k + 1, d - 1)
    return Fraction(total, (1 << n) * math.factorial(n))


def expected_vk(model: Model, k: int, conditioned: bool = False,
                tables: StirlingTables | None = None) -> Fraction:
    """Expected k-th conic intrinsic volume, 0 <= k <= d."""
    t = tables if tables is not None else default_tables()
    n, d = model.n, model.d
    if not 0 <= k <= d:
        raise DomainError(f"expected_vk requires 0 <= k <= d, got k={k}, d={d}")
    if model.is_bridge:
        row = lambda i: t.first(n, i)
        if conditioned:
            denom = 2 * _sum_down(row, d)
            num = _sum_alternating_down(row, d) if k == d else row(k + 1)
            return Fraction(num, denom)
        if k == d:
            return Fraction(sum(row(i) for i in range(d + 1, n + 1)), math.factorial(n))
        return Fraction(row(k + 1), math.factorial(n))
    row = lambda i: t.first_b(n, i)
    if conditioned:
        denom = 2 * _sum_down(row, d - 1)
        num = _sum_alternating_down(row, d - 1) if k == d else row(k)
        return Fraction(num, denom)
    if k == d:
        return Fraction(sum(row(i) for i in range(d, n + 1)), (1 << n) * math.factorial(n))
    return Fraction(row(k), (1 << n) * math.factorial(n))


def expected_Lambda(model: Model, k: int, conditioned: bool = False,
                    tables: StirlingTables | None = None) -> Fraction:
    """Expected total solid-angle content of the k-faces, 1 <= k <= d-1."""
    t = tables if tables is not None else default_tables()
    d = model.d
    if not 1 <= k <= d - 1:
        raise DomainError(f"expected_Lambda requires 1 <= k <= d-1, got k={k}, d={d}")
    if model.is_bridge:
        n, s1, s2 = _bridge_profile(model, t)
        value = Fraction(2 * _sum_down(lambda i: s1(i) * s2(i, k + 1), d), math.factorial(n))
    else:
        n, b1, b2 = _walk_profile(model, t)
        value = Fraction(2 * _sum_down(lambda i: b1(i) * b2(i, k), d - 1),
                         (1 << n) * math.factorial(n))
    return _conditioned(value, model, t) if conditioned else value


def expected_face_intrinsic_sum(model: Model, m: int, l: int,
                                tables: StirlingTables | None = None) -> Fraction:
    """Expected sum over m-faces of the l-th conic intrinsic volume."""
    t = tables if tables is not None else default_tables()
    d = model.d
    if not 0 <= l <= m <= d:
        raise DomainError(
            f"expected_face_intrinsic_sum requires 0 <= l <= m <= d, got m={m}, l={l}, d={d}")
    if model.is_bridge:
        n, s1, s2 = _bridge_profile(model, t)
        bulk = _sum_down(lambda i: s1(i) * s2(i, m + 1), d)
        return Fraction(2 * t.first(m + 1, l + 1) * bulk, math.factorial(n))
    n, b1, b2 = _walk_profile(model, t)
    bulk = _sum_down(lambda i: b1(i) * b2(i, m), d - 1)
    return Fraction(2 * t.first_b(m, l) * bulk, (1 << n) * math.factorial(n))


def expected_tangent_intrinsic_sum(model: Model, j: int, k: int,
                                   tables: StirlingTables | None = None) -> Fraction:
    """Expected sum over j-faces of the k-th intrinsic volume of the tangent cone.

    The case k = j gives the internal-angle sum, k = d the external-style
    alternating tail.
    """
    t = tables if tables is not None else default_tables()
    d = model.d
    if not (0 <= j <= d - 1 and j <= k <= d):
        raise DomainError(
            f"expected_tangent_intrinsic_sum requires 0 <= j <= d-1 and j <= k <= d, "
            f"got j={j}, k={k}, d={d}")
    if model.is_bridge:
        n = model.n
        if k == d:
            total = _sum_alternating_down(lambda i: t.first(n, i) * t.second(i, j + 1), d)
        else:
            total = t.first(n, k + 1) * t.second(k + 1, j + 1)
        return Fraction(math.factorial(j + 1) * total, math.factorial(n))
    n = model.n
    if k == d:
        total = _sum_alternating_down(lambda i: t.first_b(n, i) * t.second_b(i, j), d - 1)
    else:
        total = t.first_b(n, k) * t.second_b(k, j)
    return Fraction(math.factorial(j) * total, (1 << (n - j)) * math.factorial(n))


def expected_Y_dual(model: Model, m: int, l: int,
                    tables: StirlingTables | None = None) -> Fraction:
    """Expected sum over m-faces of the dual cone of the l-th quermassintegral.

    Obtained from the duality  Y_{m,l}(dual C) = f_{d-m}(C)/2 - Z_{d-m,d-l}(C)
    for full-dimensional C.
    """
    t = tables if tables is not None else default_tables()
    d = model.d
    if not 0 <= l < m <= d:
        raise DomainError(f"expected_Y_dual requires 0 <= l < m <= d, got m={m}, l={l}, d={d}")
    if model.is_bridge:
        n, s1, s2 = _bridge_profile(model, t)
        bulk = _sum_down(lambda i: s1(i) * s2(i, d - m + 1), d - l)
        return Fraction(math.factorial(d - m + 1) * bulk, math.factorial(n))
    n, b1, b2 = _walk_profile(model, t)
    bulk = _sum_down(lambda i: b1(i) * b2(i, d - m), d - l - 1)
    return Fraction(math.factorial(d - m) * bulk, (1 << (n - d + m)) * math.factorial(n))


def _validated_face_indices(model: Model, indices: Sequence[int]) -> tuple[int, ...]:
    idx = tuple(int(i) for i in indices)
    k = len(idx)
    if not 1 <= k <= model.d - 1:
        raise DomainError(
            f"face probability requires 1 <= len(indices) <= d-1, got {k} with d={model.d}")
    if any(i < 1 for i in idx) or any(a >= b for a, b in zip(idx, idx[1:])):
        raise DomainError(f"indices must be strictly increasing and >= 1, got {idx}")
    if idx[-1] > model.generator_count:
        raise DomainError(
            f"largest index {idx[-1]} exceeds the {model.generator_count} partial sums "
            f"of the {'bridge' if model.is_bridge else 'walk'} model")
    return idx


def face_probability(model: Model, indices: Sequence[int], complement: bool = False,
                     tables: StirlingTables | None = None) -> Fraction:
    """Probability that the partial sums at ``indices`` (1-based) span a face.

    With ``complement=True`` returns the probability that they do not; the
    two always add to one.
    """
    t = tables if tables is not None else default_tables()
    idx = _validated_face_indices(model, indices)
    n, d, k = model.n, model.d, len(idx)
    gaps = tuple(b - a for a, b in zip((0,) + idx, idx))
    tail = n - idx[-1]
    denom = math.prod(math.factorial(g) for g in gaps) * math.factorial(tail)
    if model.is_bridge:
        poly = coeff_Q_poly(n, gaps, t)
    else:
        poly = coeff_P_poly(n, gaps, t)
        denom *= 1 << tail
    if complement:
        total = sum(poly[r] for r in range(d - k + 1, len(poly), 2))
    else:
        total = _sum_down(lambda r: poly[r] if r < len(poly) else 0, d - k - 1)
    return Fraction(2 * total, denom)


def subspace_intersection_probability(model: Model, k: int,
                                      tables: StirlingTables | None = None) -> Fraction:
    """Probability that the cone meets a fixed generic (d-k)-subspace nontrivially."""
    t = tables if tables is not None else default_tables()
    n, d = model.n, model.d
    if not 0 <= k <= d - 1:
        raise DomainError(f"subspace intersection requires 0 <= k <= d-1, got k={k}, d={d}")
    if model.is_bridge:
        return Fraction(2 * _sum_up(lambda i: t.first(n, i), k + 2, n), math.factorial(n))
    return Fraction(2 * _sum_up(lambda i: t.first_b(n, i), k + 1, n),
                    (1 << n) * math.factorial(n))


def joint_absorption_probability(walk_lengths: Sequence[int], bridge_lengths: Sequence[int],
                                 d: int, complement: bool = False,
                                 tables: StirlingTables | None = None) -> Fraction:
    """Joint-hull absorption from the full block polynomial built out of
    table rows, and its upper sum read term by term."""
    t = tables if tables is not None else default_tables()
    walks = tuple(int(x) for x in walk_lengths)
    bridges = tuple(int(x) for x in bridge_lengths)
    poly = [1]
    for w in walks:
        poly = poly_mul(poly, walk_block_poly(w, t))
    for b in bridges:
        poly = poly_mul(poly, bridge_block_poly(b, t))
    denom = math.prod((1 << w) * math.factorial(w) for w in walks)
    denom *= math.prod(math.factorial(b) for b in bridges)
    if complement:
        total = _sum_down(lambda r: poly[r] if r < len(poly) else 0, d - 1)
    else:
        total = sum(poly[r] for r in range(d + 1, len(poly), 2))
    return Fraction(2 * total, denom)


# ---------------------------------------------------------------------------
# per-call block products
#
# face_probability, joint_absorption_probability and coeff_P/coeff_Q built
# a fresh block product from its roots on every call before the tables
# cached one per multiset of block lengths; moved unchanged, tables unread.

def per_call_face_probability(model: Model, indices: Sequence[int],
                              complement: bool = False) -> Fraction:
    idx = _validated_face_indices(model, indices)
    n, d, k = model.n, model.d, len(idx)
    gaps = tuple(b - a for a, b in zip((0,) + idx, idx))
    tail = n - idx[-1]
    roots = block_roots(gaps + (tail,)) if model.is_bridge else block_roots(gaps, (tail,))
    prod = LowOrderProduct.of(roots, d - k)
    total = prod.parity_tail(d - k + 1) if complement else prod.down(d - k - 1)
    return Fraction(2 * total, prod.at_one)


def per_call_joint_absorption_probability(walks: Sequence[int], bridges: Sequence[int],
                                          d: int, complement: bool = False) -> Fraction:
    roots = block_roots(bridges, walks)
    if d >= len(roots):
        return Fraction(int(complement))
    prod = LowOrderProduct.of(roots, d)
    total = prod.down(d - 1) if complement else prod.parity_tail(d + 1)
    return Fraction(2 * total, prod.at_one)


def _per_call_coefficient(roots: list[int], r: int) -> int:
    return root_product(roots, r + 1)[r] if 0 <= r <= len(roots) else 0


def per_call_coeff_P(n: int, parts: Sequence[int], r: int) -> int:
    parts, tail = _validated_parts(n, parts)
    return _per_call_coefficient(block_roots(parts, (tail,)), r)


def per_call_coeff_Q(n: int, parts: Sequence[int], r: int) -> int:
    parts, tail = _validated_parts(n, parts, final_bridge=True)
    return _per_call_coefficient(block_roots(parts + (tail,)), r)


def recursive_compositions(total: int, count: int) -> Iterator[tuple[int, ...]]:
    """All ordered tuples of ``count`` integers >= 1 summing to ``total``, by
    recursion on the first part: the enumeration stars and bars replaced."""
    if count == 0:
        if total == 0:
            yield ()
        return
    if count == 1:
        if total >= 1:
            yield (total,)
        return
    for head in range(1, total - count + 2):
        for rest in recursive_compositions(total - head, count - 1):
            yield (head,) + rest


# ---------------------------------------------------------------------------
# Fraction identity web
#
# The cross-formula identity group as it was before it compared integer
# numerators over n! base^n: every sum, difference and ratio in Fraction
# arithmetic.  Moved unchanged, except that it reads the closed forms from
# verify's namespace, so a closed form patched there reaches both groups.

def fraction_formula_identities(t: StirlingTables, max_n: int, max_d: int) -> None:
    one = Fraction(1)
    # joint hulls specialize to the single-block formulas; checked first and
    # at the largest d first, since they read more coefficients of a block
    # product than the face probabilities below
    for d in range(max_d, 0, -1):
        for n in range(d, max_n + 1):
            walk = Model(verify.B_WALK, n, d)
            assert verify.joint_absorption_probability([n], [], d, tables=t) == \
                verify.absorption_probability(walk, t), f"joint hull of one walk at {walk}"
        for n in range(d + 1, max_n + 1):
            bridge = Model(verify.A_BRIDGE, n, d)
            assert verify.joint_absorption_probability([], [n], d, tables=t) == \
                verify.absorption_probability(bridge, t), f"joint hull of one bridge at {bridge}"
    assert verify.joint_absorption_probability([1], [2], 1, tables=t) == Fraction(1, 2)
    assert verify.joint_absorption_probability([1], [2], 1, complement=True, tables=t) == Fraction(1, 2)

    for model in verify._desk_models(max_n, max_d):
        d = model.d
        absorbed = verify.absorption_probability(model, t)
        survived = verify.nonabsorption_probability(model, t)
        assert absorbed + survived == one, f"absorption split at {model}"
        assert 0 <= absorbed <= 1 and 0 <= survived <= 1, f"probability range at {model}"

        # intrinsic volumes sum to one, conditioned or not
        assert sum(verify.expected_vk(model, k, False, t) for k in range(d + 1)) == one, \
            f"intrinsic volume closure at {model}"
        assert sum(verify.expected_vk(model, k, True, t) for k in range(d + 1)) == one, \
            f"conditioned intrinsic volume closure at {model}"

        # doubling edge sums gives face counts
        for k in range(1, d):
            assert 2 * verify.expected_Y(model, k, 0, False, t) == verify.expected_fk(model, k, False, t), \
                f"edge-sum doubling at {model}, k={k}"

        # conic Crofton at expectation level
        for k in range(d + 1):
            crofton = sum(verify.expected_vk(model, k + j, False, t)
                          for j in range(1, d - k + 1, 2))
            assert verify.expected_Uk(model, k, False, t) == crofton, f"crofton at {model}, k={k}"
            crofton_c = sum(verify.expected_vk(model, k + j, True, t)
                            for j in range(1, d - k + 1, 2))
            assert verify.expected_Uk(model, k, True, t) == crofton_c, \
                f"conditioned crofton at {model}, k={k}"

        # conditioned values divide by the survival probability
        for k in range(d):
            assert verify.expected_fk(model, k, True, t) == verify.expected_fk(model, k, False, t) / survived
            assert verify.expected_vk(model, k, True, t) == verify.expected_vk(model, k, False, t) / survived
        for k in range(1, d):
            assert verify.expected_Lambda(model, k, True, t) == \
                verify.expected_Lambda(model, k, False, t) / survived

        # total face content is the top-index face sum
        for k in range(1, d):
            assert verify.expected_Lambda(model, k, False, t) == verify.expected_Y(model, k, k - 1, False, t)
            assert verify.expected_face_intrinsic_sum(model, k, k, t) == \
                verify.expected_Lambda(model, k, False, t), f"face content vs intrinsic at {model}"

        # duality: dual face sums against primal face counts and tangent sums
        for m in range(1, d + 1):
            for l in range(m):
                dual = verify.expected_Y_dual(model, m, l, t)
                primal = (verify.expected_fk(model, d - m, False, t) / 2
                          - verify.expected_Z(model, d - m, d - l, False, t))
                assert dual == primal, f"duality at {model}, m={m}, l={l}"
            assert 2 * verify.expected_Y_dual(model, m, 0, t) == verify.expected_fk(model, d - m, False, t), \
                f"dual face count at {model}, m={m}"

        # crofton inside the face sums
        for m in range(1, d):
            for l in range(m):
                lhs = sum(verify.expected_face_intrinsic_sum(model, m, l + j, t)
                          for j in range(1, m - l + 1, 2))
                assert lhs == verify.expected_Y(model, m, l, False, t), \
                    f"face-sum crofton at {model}, m={m}, l={l}"

        # tangent sums: differencing, top cases, and closure to face counts
        for j in range(d):
            closure = sum(verify.expected_tangent_intrinsic_sum(model, j, k, t)
                          for k in range(j, d + 1))
            assert closure == verify.expected_fk(model, j, False, t), \
                f"tangent closure at {model}, j={j}"
            assert verify.expected_tangent_intrinsic_sum(model, j, d, t) == \
                verify.expected_Z(model, j, d - 1, False, t), f"top tangent sum at {model}, j={j}"
            if j <= d - 2:
                assert verify.expected_tangent_intrinsic_sum(model, j, d - 1, t) == \
                    verify.expected_Z(model, j, d - 2, False, t), \
                    f"next-to-top tangent sum at {model}, j={j}"
            for k in range(j + 1, d - 1):
                diff = verify.expected_Z(model, j, k - 1, False, t) - verify.expected_Z(model, j, k + 1, False, t)
                assert verify.expected_tangent_intrinsic_sum(model, j, k, t) == diff, \
                    f"tangent differencing at {model}, j={j}, k={k}"

        # tangent sums at the apex against the absorption-corrected quermassintegrals
        for k in range(d + 1):
            correction = absorbed if (d - k) % 2 == 1 and k < d else Fraction(0)
            assert verify.expected_Z(model, 0, k, False, t) == \
                verify.expected_Uk(model, k, False, t) - correction, \
                f"apex tangent sum at {model}, k={k}"
            assert verify.expected_Z(model, k, d, False, t) == 0, f"top tangent vanishes at {model}"

        # subspace intersections against the apex sums
        for k in range(d):
            assert verify.subspace_intersection_probability(model, k, t) == \
                2 * verify.expected_Z(model, 0, k, False, t) + absorbed, \
                f"subspace hit probability at {model}, k={k}"

        # per-tuple face probabilities: complement and aggregation
        gens = model.generator_count
        for k in range(1, d):
            total = Fraction(0)
            for idx in itertools.combinations(range(1, gens + 1), k):
                p_in = verify.face_probability(model, idx, False, t)
                p_out = verify.face_probability(model, idx, True, t)
                assert p_in + p_out == one, f"face probability split at {model}, idx={idx}"
                total += p_in
            assert total == verify.expected_fk(model, k, False, t), \
                f"face probability aggregation at {model}, k={k}"


# ---------------------------------------------------------------------------
# active-set NNLS
#
# The Lawson-Hanson projection the support rule of geometry replaced,
# moved unchanged: a lowest-index pivot, two iteration caps, a banned-column
# set and NumericError when a cap runs out.  The support rule must agree
# with it wherever it converges.

def _nnls_projection(gens: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray, bool]:
    """Residual of the metric projection of g onto the positive hull of the
    rows, the rows whose coefficient exceeds tol = ``DEFAULT_TOL`` times the
    largest (the coefficients are nonnegative, so none when all vanish), and
    whether g lies in the cone: its squared residual is within
    (tol * max(1, |g|))^2."""
    tol = DEFAULT_TOL
    coeff, resid = _nnls_lowest_index(gens.T, g, tol)
    active = np.flatnonzero(coeff > tol * float(coeff.max(initial=0.0)))
    inside = float(resid @ resid) <= (tol * max(1.0, float(np.linalg.norm(g)))) ** 2
    return resid, active, inside


def _nnls_lowest_index(a: np.ndarray, b: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Active-set nonnegative least squares  min ||a x - b||, x >= 0.

    Deterministic pivot: among stationarity violations pick the lowest
    column index, so the recovered support never depends on platform
    reduction order.  Returns the coefficients and the residual b - a x.
    """
    d, m = a.shape
    max_iter = 3 * m + 30
    x = np.zeros(m)
    passive: list[int] = []
    banned: set[int] = set()
    resid = b.astype(float).copy()
    scale = max(float(np.abs(a).max(initial=0.0)), 1.0) * max(float(np.linalg.norm(b)), 1.0)
    w_tol = tol * scale
    for _ in range(max_iter):
        w = a.T @ resid
        entering = -1
        for jdx in range(m):
            if jdx not in passive and jdx not in banned and w[jdx] > w_tol:
                entering = jdx
                break
        if entering < 0:
            return x, resid
        passive.append(entering)
        passive.sort()
        for _inner in range(max_iter):
            sub = a[:, passive]
            z = _least_squares(sub, b)
            if np.all(z > 0.0):
                x.fill(0.0)
                x[passive] = z
                break
            xs = x[passive]
            neg = z <= 0.0
            denom = xs - z
            movable = neg & (denom > 0.0)
            if not np.any(movable):
                # cannot happen in exact arithmetic; freeze the column so the
                # outer loop terminates instead of re-entering it
                passive.remove(entering)
                banned.add(entering)
                x[entering] = 0.0
                break
            alpha = float(np.min(xs[movable] / denom[movable]))
            xs = xs + alpha * (z - xs)
            x[passive] = xs
            keep_cut = 1e-12 * max(float(xs.max(initial=0.0)), 1e-300)
            dropped = [p for p, val in zip(passive, xs) if val <= keep_cut]
            for p in dropped:
                x[p] = 0.0
            passive = [p for p in passive if p not in dropped]
        else:
            raise NumericError("NNLS inner loop failed to converge")
        resid = b - a @ x
    raise NumericError(f"NNLS did not converge within {max_iter} iterations")


def _least_squares(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    gram = a.T @ a
    try:
        return np.linalg.solve(gram, a.T @ b)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(a, b, rcond=None)[0]


# ---------------------------------------------------------------------------
# stacked projection supports, tangent bases and hull verdicts
#
# The batched kernels of geometry before it projected one cone and took one
# face's tangent base at a time, moved unchanged but for their docstrings.
# The one-cone kernels must give the same bits on every cone of a batch
# (S, n, d).

def projection_supports(gens: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rule of geometry._projection_support for the points g (S, d) and
    the cones of gens (S, n, d): supports as masks over the rows (S, n), and
    residuals (S, d).  Each support size is one solve over all supports of
    the sets still undecided, and every product has the shape it has for a
    single set, so a set's support and residual do not depend on the batch.
    """
    count, n, d = gens.shape
    gens = np.ldexp(gens, -np.frexp(np.abs(gens).max(axis=(1, 2), initial=0.0))[1][:, None, None])
    support = np.zeros((count, n), dtype=bool)
    resid = g.copy()
    undecided = ~((gens @ g[:, :, None])[:, :, 0] <= 0.0).all(axis=1)
    for k in range(1, min(n, d) + 1):
        at = np.flatnonzero(undecided)
        if not at.size:
            break
        rows = geometry._subsets(n, k)
        x, y = gens[at], g[at]
        a = x[:, rows]  # (P, T, k, d)
        shape = a.shape[:2]
        if k < d:
            lhs, rhs = a @ a.transpose(0, 1, 3, 2), (a @ y[:, None, :, None])[..., 0]
        else:  # g is a combination of the d rows
            lhs, rhs = a.transpose(0, 1, 3, 2), np.broadcast_to(y[:, None], (*shape, d))
        coef = geometry._solve(lhs.reshape(-1, k, k), rhs.reshape(-1, k)).reshape(*shape, k)
        res = y[:, None] - (coef[..., None, :] @ a)[:, :, 0] if k < d else np.zeros((*shape, d))
        outside = res @ x.transpose(0, 2, 1)
        outside[:, np.arange(len(rows))[:, None], rows] = 0.0  # rows inside the support
        positive = (coef > 0.0).all(axis=2)
        passing = positive & (outside <= 0.0).all(axis=2)
        hit = passing.any(axis=1)
        dist = np.where(positive, (res * res).sum(axis=2), np.inf)
        near = np.argmin(dist, axis=1)
        best = resid[at]
        nearer = dist[np.arange(len(at)), near] < (best[:, None, :] @ best[:, :, None])[:, 0, 0]
        taken = hit | nearer
        t = np.where(hit, np.argmax(passing, axis=1), near)[taken]
        which = at[taken]
        support[which] = False
        support[which[:, None], rows[t]] = True
        resid[which] = res[taken, t]
        undecided[at[hit]] = False
    return support, resid


def tangent_bases(gens: np.ndarray, which: np.ndarray, faces: np.ndarray) -> np.ndarray:
    """geometry._tangent_base of face p, with rows ``faces[p]`` (P, j), of
    the cone gens[which[p]] (gens is (S, n, d)): (P, n - j, d - j), gathered
    by (sample, row) with one stacked SVD.  The apex's base is the cone."""
    n, d = gens.shape[1:]
    p, j = faces.shape
    if j == 0:
        return gens[which]
    _, s, vt = np.linalg.svd(gens[which[:, None], faces])
    low = s[:, -1] <= max(j, d) * np.finfo(float).eps * s[:, 0]
    if low.any():
        face = tuple(faces[np.argmax(low)].tolist())
        raise DegenerateInputError(f"face generators {face} are numerically rank-deficient")
    rest = (np.arange(n) != faces[:, :, None]).all(axis=1)
    others = np.nonzero(rest)[1].reshape(p, n - j)
    return gens[which[:, None], others] @ vt[:, j:].transpose(0, 2, 1)


# ---------------------------------------------------------------------------
# the sign record with the samples first
#
# geometry's sign record before the sample axis moved last, moved unchanged:
# point sets (S, n, d), signs (S, T), sides (S, others, walls), facets and
# face masks (S, subsets).  Its short axes are reduced column by column or
# point by point, as numpy's reductions over them were slow.

def samples_first_minor_estimates(x: np.ndarray, table) -> np.ndarray:
    """Floating-point values of all d x d minors of each set in x, (S, n, d)."""
    m = x[:, :, 0]
    for k, (rows, below, cofactor) in enumerate(table.levels, start=2):
        col = x[:, :, k - 1]
        level = np.zeros((len(x), rows.shape[1]))
        for r, b, c in zip(rows, below, cofactor):
            level += col.take(r, axis=1) * c * m.take(b, axis=1)
        m = level
    return m


def samples_first_filtered_signs(pts: np.ndarray, table) -> tuple[np.ndarray, np.ndarray]:
    """Signs of all d x d minors of each set in pts, (S, n, d), as the
    filter sees them, and the mask of those it cannot certify."""
    d = pts.shape[2]
    # each row's max, column by column
    _, expo = np.frexp(functools.reduce(np.maximum, np.abs(pts).transpose(2, 0, 1)))
    scaled = np.ldexp(pts, -expo[..., None])
    est = samples_first_minor_estimates(scaled, table)
    unsure = ~(np.abs(est) > (d * (d + 1) // 2 - 1) * math.factorial(d) * 2.0 ** -52)
    lost = np.ldexp(scaled, expo[..., None]) != pts
    if lost.any():
        unsure[lost.any(axis=(1, 2))] = True
    return np.sign(est).astype(np.int8), unsure


@functools.lru_cache(maxsize=None)
def _facet_subsets(n: int, d: int, k: int) -> np.ndarray:
    """Per (d-1)-subset of range(n) in combinations order, the positions of
    its k-subsets among all k-subsets of range(n)."""
    position = {tuple(s): t for t, s in enumerate(geometry._subsets(n, k).tolist())}
    walls = geometry._subsets(n, d - 1).tolist()
    return np.array([[position[c] for c in combinations(wall, k)] for wall in walls],
                    dtype=np.intp).reshape(len(walls), math.comb(d - 1, k))


class SamplesFirstRecord:
    """The sign record of point sets pts (S, n, d), samples first: ``signs``
    exact after the integer fallback, ``unsure`` the filter's mask."""

    def __init__(self, pts: np.ndarray) -> None:
        count, n, d = pts.shape
        self.table = geometry._minor_table(n, d)
        if n < d:
            self.signs = np.zeros((count, 0), np.int8)
            self.unsure = np.zeros((count, 0), bool)
        else:
            self.signs, self.unsure = samples_first_filtered_signs(pts, self.table)
            subsets = geometry._subsets(n, d)
            for s in np.flatnonzero(self.unsure.any(axis=1)):
                rows = geometry._integer_rows(pts[s])
                for t in np.flatnonzero(self.unsure[s]):
                    det = geometry._bareiss([rows[i] for i in subsets[t]])[1]
                    self.signs[s, t] = (det > 0) - (det < 0)
        self.general = self.signs.all(axis=1) & (self.signs.shape[1] > 0)

    @functools.cached_property
    def sides(self) -> np.ndarray:
        return self.signs.take(self.table.facet_minor.T, axis=1) * self.table.facet_parity.T

    @functools.cached_property
    def facets(self) -> np.ndarray:
        # point by point
        total = np.zeros((len(self.signs), self.sides.shape[2]), dtype=np.int32)
        return np.abs(functools.reduce(np.add, self.sides.transpose(1, 0, 2), total)) \
            == self.sides.shape[1]

    def full_cones(self) -> np.ndarray:
        full = ~self.facets.any(axis=1)
        odd = ~self.general
        if odd.any():
            sides = self.sides[odd]
            off = np.abs(sides).sum(axis=-2, dtype=np.int32)
            weak = (off > 0) & (np.abs(sides.sum(axis=-2, dtype=np.int32)) == off)
            full[odd] = self.signs[odd].any(axis=1) & ~weak.any(axis=1)
        return full

    def face_masks(self, k: int) -> np.ndarray:
        n, d = self.table.shape
        inside = _facet_subsets(n, d, k)
        mask = np.zeros((len(self.signs), math.comb(n, k)), dtype=bool)
        s, f = np.nonzero(self.facets)
        mask[s[:, None], inside[f]] = True
        return mask


def axis_max_filtered_signs(pts: np.ndarray, table) -> tuple[np.ndarray, np.ndarray]:
    """``samples_first_filtered_signs`` with each row's max as numpy's max
    over the coordinate axis."""
    d = pts.shape[2]
    _, expo = np.frexp(np.abs(pts).max(axis=2))
    scaled = np.ldexp(pts, -expo[..., None])
    est = samples_first_minor_estimates(scaled, table)
    unsure = ~(np.abs(est) > (d * (d + 1) // 2 - 1) * math.factorial(d) * 2.0 ** -52)
    lost = np.ldexp(scaled, expo[..., None]) != pts
    unsure[lost.any(axis=(1, 2))] = True
    return np.sign(est).astype(np.int8), unsure


def axis_sum_facets(rec: SamplesFirstRecord) -> np.ndarray:
    """``SamplesFirstRecord.facets`` as numpy's sum over the other-point axis."""
    return np.abs(rec.sides.sum(axis=1, dtype=np.int32)) == rec.sides.shape[1]


def row_complement(rows: np.ndarray) -> tuple[np.ndarray, int]:
    """Orthonormal columns spanning the orthogonal complement of the row
    span, and the rank of the rows."""
    k, d = rows.shape
    u, s, vt = np.linalg.svd(rows, full_matrices=True)
    cutoff = max(k, d) * np.finfo(float).eps * (s[0] if s.size else 0.0)
    rank = int(np.sum(s > cutoff))
    return vt[rank:].T, rank


def tangent_base(gens: np.ndarray, face: Sequence[int]) -> np.ndarray:
    """The generators outside a face, projected onto the orthogonal
    complement of the face's span, from one SVD of the face's rows.  The
    apex's is ``gens`` itself."""
    if not face:
        return gens
    basis, rank = row_complement(gens[list(face)])
    if rank < len(face):
        raise DegenerateInputError(
            f"face generators {tuple(face)} are numerically rank-deficient")
    rest = [i for i in range(gens.shape[0]) if i not in face]
    return gens[rest] @ basis


def tangent_meets_kernel(gens: np.ndarray, face: Sequence[int], gauss: np.ndarray) -> bool:
    """Whether the tangent cone at a face meets the kernel of gauss^T (a
    d x k matrix) outside the origin, from the face's SVD tangent base: the
    base meets the kernel projected onto the complement of the face's span
    exactly when the origin lies in the hull of the base projected onto
    that projection's orthogonal complement."""
    d = gens.shape[1]
    basis = row_complement(gens[list(face)])[0] if face else np.eye(d)
    kernel = basis.T @ row_complement(gauss.T)[0]  # P_{F-perp}(ker G^T) in basis coordinates
    normal = row_complement(kernel.T)[0]
    return geometry._origin_in_hull(tangent_base(gens, face) @ normal)


# ---------------------------------------------------------------------------
# Gaussian-block measurements
#
# The Crofton rows of simulation.MEASURES before they projected the cones
# onto their first coordinates, moved with the blocks' generator as an
# argument.  Each sample drew a d x c standard Gaussian block G after its
# increments, which all of its faces shared, and a verdict read the
# generators projected by the first i columns of G, whose kernel is a Haar
# subspace of codimension i.  So by the conic Crofton formula each value's
# mean is the cone's own U_i, and on one fixed cone these rows estimate its
# intrinsic volumes, which coordinate projections cannot.  Beside them, the
# projection estimator of v_k that the Crofton difference replaced.

def _haar_columns(low: int, high: int, *counts: int) -> int:
    """The Gaussian columns a measurement reads: the largest of the kernel
    codimensions ``counts`` strictly between low and high, the others being
    decided without a block; 0 if none."""
    return max((i for i in counts if low < i < high), default=0)


def _haar_undecided(verdicts: np.ndarray, rec: "geometry._SignRecord") -> np.ndarray:
    out = verdicts.astype(float)
    out[~rec.general] = np.nan
    return out


def _haar_tangent_u(c, proj: np.ndarray, j: int, i: int) -> np.ndarray:
    """Sum over j-faces F of U_i(T_F C): F is not a face of G_i^T C."""
    d = c.pts.shape[0]
    if i >= d:
        return np.zeros(len(c.full))
    faces = c.faces(j)
    if i <= j:
        return 0.5 * faces.sum(axis=0)
    rec = geometry._SignRecord.of(proj[:i])
    return 0.5 * _haar_undecided((faces & ~rec.faces(j)).sum(axis=0), rec)


def _haar_face_u(c, proj: np.ndarray, m: int, i: int) -> np.ndarray:
    """Sum over m-faces F of U_i(F): the origin is in the hull of G_i^T F."""
    if i >= m:
        return np.zeros(len(c.full))
    faces = c.faces(m)
    if i <= 0:
        return 0.5 * faces.sum(axis=0)
    f, s = np.nonzero(faces)
    rows = geometry._subsets(c.pts.shape[1], m)[f]
    rec = geometry._SignRecord.of(proj[:i, rows.T, s])
    hits = _haar_undecided(~rec.facets.any(axis=0), rec)
    return 0.5 * np.bincount(s, weights=hits, minlength=len(c.full))


def _haar_face_intrinsic(q: FunctionalQuery, c, p: np.ndarray) -> np.ndarray:
    if q.m == 0:
        return (~c.full).astype(float)
    if q.m == c.pts.shape[0]:
        return np.zeros(len(c.full))
    return _haar_face_u(c, p, q.m, q.l - 1) - _haar_face_u(c, p, q.m, q.l + 1)


HAAR_MEASURES = {
    "Uk": (lambda q, c, p: _haar_tangent_u(c, p, 0, q.k)
           + np.where(c.full, float((c.pts.shape[0] - q.k) % 2), 0.0),
           lambda q, d: _haar_columns(0, d, q.k)),
    "vk": (lambda q, c, p: _haar_tangent_u(c, p, 0, q.k - 1) - _haar_tangent_u(c, p, 0, q.k + 1)
           + (c.full & (q.k == c.pts.shape[0])),
           lambda q, d: _haar_columns(0, d, q.k - 1, q.k + 1)),
    "Lambda": (lambda q, c, p: _haar_face_u(c, p, q.k, q.k - 1),
               lambda q, d: _haar_columns(0, q.k, q.k - 1)),
    "Y": (lambda q, c, p: _haar_face_u(c, p, q.m, q.l), lambda q, d: _haar_columns(0, q.m, q.l)),
    "Z": (lambda q, c, p: _haar_tangent_u(c, p, q.j, q.k),
          lambda q, d: _haar_columns(q.j, d, q.k)),
    "face_intrinsic": (_haar_face_intrinsic,
                       lambda q, d: _haar_columns(0, q.m, q.l - 1, q.l + 1)),
    "tangent_intrinsic": (lambda q, c, p: (_haar_tangent_u(c, p, q.j, q.k - 1)
                                           - _haar_tangent_u(c, p, q.j, q.k + 1)),
                          lambda q, d: _haar_columns(q.j, d, q.k - 1, q.k + 1)),
    "subspace_prob": (lambda q, c, p: 2.0 * _haar_tangent_u(c, p, 0, q.k) + c.full,
                      lambda q, d: _haar_columns(0, d, q.k)),
}
"""Per functional whose row read a Gaussian block, its measurement
(query, sign record of the cones, projected generators) -> values and its
block width (query, d) -> c."""


def haar_values(query: FunctionalQuery, chunk: "geometry._SignRecord",
                rng: np.random.Generator) -> np.ndarray:
    """The replaced measurement of a chunk, each sample in turn drawing its
    d x c Gaussian block from ``rng``.  The generators times the blocks,
    (c, N, S), are one stacked matmul over the samples, as the simulator
    took it."""
    value, width = HAAR_MEASURES[query.functional]
    d = chunk.pts.shape[0]
    gauss = rng.standard_normal((len(chunk.full), d, width(query, d)))
    proj = np.ascontiguousarray(chunk.pts.transpose(2, 1, 0)) @ gauss
    return value(query, chunk, np.ascontiguousarray(proj.transpose(2, 1, 0)))


def replaced_v(gens: np.ndarray, k: int, g: np.ndarray) -> np.ndarray:
    """Per sample p, whether the metric projection of the Gaussian point
    g[p] lands in a k-face of the cone of the rows of gens[p] (k = d inside
    it): the projection estimator of v_k."""
    return (projection_supports(gens, g)[0].sum(axis=1) == k).astype(float)


def measured_queries(model: Model, faces=None) -> list[FunctionalQuery]:
    """Every legal query of every per-model row of ``simulation.MEASURES``
    on a model, conditioned variants included; face_prob on the index
    tuples ``faces``, by default on every one."""
    d = model.d
    if faces is None:
        faces = [idx for size in range(1, d)
                 for idx in combinations(range(1, model.generator_count + 1), size)]
    out = [FunctionalQuery("absorption", model), FunctionalQuery("nonabsorption", model)]
    for cond in (False, True):
        out += [FunctionalQuery("fk", model, k=k, conditioned=cond) for k in range(d)]
        out += [FunctionalQuery("Uk", model, k=k, conditioned=cond) for k in range(d + 1)]
        out += [FunctionalQuery("vk", model, k=k, conditioned=cond) for k in range(d + 1)]
        out += [FunctionalQuery("Lambda", model, k=k, conditioned=cond) for k in range(1, d)]
        out += [FunctionalQuery("Y", model, m=m, l=l, conditioned=cond)
                for m in range(1, d) for l in range(m)]
        out += [FunctionalQuery("Z", model, j=j, k=k, conditioned=cond)
                for j in range(d + 1) for k in range(j, d + 1)]
    out += [FunctionalQuery("face_intrinsic", model, m=m, l=l)
            for m in range(d + 1) for l in range(m + 1)]
    out += [FunctionalQuery("tangent_intrinsic", model, j=j, k=k)
            for j in range(d) for k in range(j, d + 1)]
    out += [FunctionalQuery("subspace_prob", model, k=k) for k in range(d)]
    out += [FunctionalQuery("face_prob", model, indices=idx) for idx in faces]
    return out


# ---------------------------------------------------------------------------
# per-sample Monte Carlo loop
#
# The chunk loop of the simulator before one array program decided each
# chunk, moved with its names prefixed and its docstrings dropped.  Every
# sample draws a ConeSample, attempt t from its run of the chunk's stream t
# (``chunk_draws``), redraws until the cone is in general position and,
# under ``conditioned``, until it is not full, then measures it with the
# public single-cone predicates.  A Crofton value reads the cone's
# generators on their first i coordinates, and a projection with an exactly
# zero minor makes the sample draw again.  It draws its increments with
# numpy's own distributions, as the simulator did before it built every
# law from standard normals.  The batched chunks must give the same sums.

def numpy_increments(dist, n: int, rng: np.random.Generator) -> np.ndarray:
    """n increments of the family from numpy's own distributions: the
    replaced family branches of ``simulation.sample_increments``."""
    if dist.family == "gaussian_iid":
        return rng.standard_normal((n, dist.d))
    if dist.family == "heavy_tail_iid":
        return rng.standard_cauchy((n, dist.d))
    scale = rng.lognormal(mean=0.0, sigma=1.0)
    return scale * rng.standard_normal((n, dist.d))


def numpy_draw(dist, lengths: Sequence[int], rng: np.random.Generator) -> np.ndarray:
    """One sample's increments (sum(lengths), d), drawn block by block by
    ``numpy_increments``."""
    return np.concatenate([numpy_increments(dist, n, rng) for n in lengths])


def _loop_walk_generators(steps):
    return np.cumsum(steps, axis=0)


def _loop_bridge_generators(steps):
    centered = steps - functools.reduce(np.add, steps) / len(steps)
    return np.cumsum(centered, axis=0)[:-1]


def _loop_general_position_draw(draw: Callable[[np.random.Generator], np.ndarray],
                                rngs: Iterator[np.random.Generator],
                                what: str) -> tuple[ConeSample, int, np.random.Generator]:
    for attempt in range(simulation._MAX_DRAW_RETRIES):
        rng = next(rngs)
        cone = ConeSample(draw(rng))
        if cone.in_general_position():
            return cone, attempt, rng
    raise SamplingError(f"no {what} in general position after {simulation._MAX_DRAW_RETRIES} attempts")


def _loop_draw_cone(model: Model, dist, rngs: Iterator[np.random.Generator]
                    ) -> tuple[ConeSample, int, np.random.Generator]:
    gens = _loop_bridge_generators if model.is_bridge else _loop_walk_generators
    return _loop_general_position_draw(lambda rng: gens(numpy_draw(dist, [model.n], rng)), rngs,
                                       f"draw ({dist.family}, n={model.n}, d={model.d})")


def _loop_joint_generators(query: FunctionalQuery, dist, rng: np.random.Generator) -> np.ndarray:
    lengths = query.walk_lengths + query.bridge_lengths
    blocks = np.split(numpy_draw(dist, lengths, rng), np.cumsum(lengths)[:-1])
    walks = len(query.walk_lengths)
    return np.vstack([_loop_walk_generators(b) for b in blocks[:walks]]
                     + [_loop_bridge_generators(b) for b in blocks[walks:]])


class SampleDraw(np.random.Generator):
    """numpy's generator on draw ``draw`` of sample ``sample``."""

    def __init__(self, bit_generator, sample: int, draw: int) -> None:
        super().__init__(bit_generator)
        self.sample, self.draw = sample, draw


def chunk_draws(seed: int, samples: range, width: int) -> Iterator[Iterator[SampleDraw]]:
    """Per sample of the chunk, in order, the generators of its draws 0, 1,
    2, ..., built here from the stream rule alone: draw t of the chunk that
    starts at sample s is numpy's Generator over Philox with key (seed, 0)
    and counter (0, 0, t, s), and a sample's draw t stands at the first of
    its ``width`` normals there when it is taken, which the stream then
    moves past.  So the samples that make draw t read stream t in order."""
    streams: dict[int, np.random.Generator] = {}

    def take(i: int, t: int) -> SampleDraw:
        if t not in streams:
            streams[t] = np.random.Generator(np.random.Philox(
                key=np.array([seed, 0], dtype=np.uint64),
                counter=np.array([0, 0, t, samples.start], dtype=np.uint64)))
        row = np.random.Philox(0)
        row.state = streams[t].bit_generator.state
        streams[t].standard_normal(width)
        return SampleDraw(row, i, t)

    for i in samples:
        yield map(functools.partial(take, i), itertools.count())


def loop_draw_sample(query: FunctionalQuery, dist, rngs: Iterator[np.random.Generator]
                     ) -> tuple[ConeSample, int, np.random.Generator]:
    """One sample's cone drawn alone, each attempt from the next of
    ``rngs``; the draws rejected; and the accepted attempt's generator,
    after its increments."""
    if query.model is None:
        return _loop_general_position_draw(lambda rng: _loop_joint_generators(query, dist, rng),
                                           rngs, "joint draw")
    model = query.model
    cone, rejected, rng = _loop_draw_cone(model, dist, rngs)
    if query.conditioned:
        guard = 0
        while is_full_cone(cone):
            guard += 1
            if guard > simulation._MAX_CONDITION_RETRIES:
                raise SamplingError("conditioning on a non-full cone exceeded the retry budget")
            cone, rej, rng = _loop_draw_cone(model, dist, rngs)
            rejected += rej
    return cone, rejected, rng


def _loop_faces(cone: ConeSample, j: int) -> set[tuple[int, ...]]:
    """The j-subsets of generators that span a face (the apex for j = 0)."""
    if j == 0:
        return {()} if count_k_faces(cone, 0) else set()
    return {f for f in combinations(range(cone.n_generators), j) if is_face(cone, f)}


def _loop_tangent_u(cone: ConeSample, j: int, i: int) -> float:
    """Sum over j-faces F of U_i(T_F C) against the kernel of the first i
    coordinates: F is not a face of the projected cone."""
    if i >= cone.d:
        return 0.0
    if i <= j:
        return 0.5 * len(_loop_faces(cone, j))
    projected = ConeSample(cone.generators[:, :i])
    if not projected.in_general_position():
        return math.nan
    return 0.5 * len(_loop_faces(cone, j) - _loop_faces(projected, j))


def _loop_face_u(cone: ConeSample, m: int, i: int) -> float:
    """Sum over m-faces F of U_i(F): the origin is in the hull of the
    face's generators on their first i coordinates."""
    if i >= m:
        return 0.0
    faces = _loop_faces(cone, m)
    if i <= 0:
        return 0.5 * len(faces)
    total = 0.0
    for face in sorted(faces):
        points = cone.generators[list(face), :i]
        if not ConeSample(points).in_general_position():
            return math.nan
        total += 0.5 * origin_in_convex_hull(points)
    return total


def _loop_face_intrinsic(q: FunctionalQuery, cone: ConeSample) -> float:
    if q.m == 0:
        return 0.0 if is_full_cone(cone) else 1.0
    if q.m == cone.d:
        return 0.0
    return _loop_face_u(cone, q.m, q.l - 1) - _loop_face_u(cone, q.m, q.l + 1)


def _loop_full(cone: ConeSample) -> float:
    return 1.0 if is_full_cone(cone) else 0.0


LOOP_MEASURES: dict[str, Callable[[FunctionalQuery, ConeSample], float]] = {
    "absorption": lambda q, cone: _loop_full(cone),
    "nonabsorption": lambda q, cone: 1.0 - _loop_full(cone),
    "fk": lambda q, cone: float(count_k_faces(cone, q.k)),
    "Uk": lambda q, cone: _loop_tangent_u(cone, 0, q.k) + _loop_full(cone) * ((cone.d - q.k) % 2),
    "vk": lambda q, cone: (_loop_tangent_u(cone, 0, q.k - 1) - _loop_tangent_u(cone, 0, q.k + 1)
                           + _loop_full(cone) * (q.k == cone.d)),
    "Lambda": lambda q, cone: _loop_face_u(cone, q.k, q.k - 1),
    "Y": lambda q, cone: _loop_face_u(cone, q.m, q.l),
    "Z": lambda q, cone: _loop_tangent_u(cone, q.j, q.k),
    "face_intrinsic": _loop_face_intrinsic,
    "tangent_intrinsic": lambda q, cone: (_loop_tangent_u(cone, q.j, q.k - 1)
                                          - _loop_tangent_u(cone, q.j, q.k + 1)),
    "face_prob": lambda q, cone: 1.0 if is_face(cone, [i - 1 for i in q.indices]) else 0.0,
    "subspace_prob": lambda q, cone: 2.0 * _loop_tangent_u(cone, 0, q.k) + _loop_full(cone),
    "joint_absorption": lambda q, cone: _loop_full(cone),
}
"""Per functional name, the per-cone measurement (query, cone) -> value."""


def loop_chunk_stats(args: tuple) -> tuple[float, float, int]:
    """(total, total_sq, rejected) of one chunk, one sample at a time."""
    query, dist, seed, start, count = args
    draws = chunk_draws(seed, range(start, start + count),
                        simulation._Sampler(query, dist).draw.n_words)
    measure = LOOP_MEASURES[query.functional]
    total = 0.0
    total_sq = 0.0
    rejected = 0
    for rngs in draws:
        value = math.nan
        while math.isnan(value):  # NaN: a projection out of general position
            sample, rej, _ = loop_draw_sample(query, dist, rngs)
            value = measure(query, sample)
            rejected += rej + math.isnan(value)
        total += value
        total_sq += value * value
    return total, total_sq, rejected
