"""Brute-force oracles shared by the geometry, formula and acceptance tests."""

import math
from fractions import Fraction
from itertools import combinations
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import linprog

from conic_walks.combinatorics import (
    StirlingTables,
    bridge_block_poly,
    coeff_P_poly,
    coeff_Q_poly,
    default_tables,
    poly_mul,
    walk_block_poly,
)
from conic_walks import geometry, simulation
from conic_walks.errors import DomainError, NumericError, SamplingError
from conic_walks.formulas import FunctionalQuery, Model
from conic_walks.geometry import DEFAULT_TOL, ConeSample, count_k_faces, is_face, is_full_cone


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
# active-set NNLS
#
# The Lawson-Hanson projection the support rule of geometry replaced,
# moved unchanged: a lowest-index pivot, two iteration caps, a banned-column
# set and NumericError when a cap runs out.  The face-loop rows below read
# it, so the simulator's rows are compared with it sample by sample.

def _projection_face_dim(gens: np.ndarray, g: np.ndarray) -> int:
    """Dimension of the face the metric projection of g lands in (d if inside)."""
    _, active, inside = _nnls_projection(gens, g)
    return gens.shape[1] if inside else len(active)


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
# per-functional face loops
#
# The Monte Carlo measurements before one face loop and two per-cone kernels
# replaced them, with the apex and the full cone special-cased in each.
# They are kept unchanged, except that the NNLS slack no longer travels on
# the cone, as the reference the registry rows must match sample by sample;
# their projections run the active-set NNLS above.
# Their Haar hits project onto an orthonormal basis, which the simulator
# no longer builds.

def haar_basis(d: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """Orthonormal d x m basis of a rotation-invariant random subspace."""
    if m == 0:
        return np.zeros((d, 0))
    for _ in range(32):
        gauss = rng.standard_normal((d, m))
        if m == 1:
            nrm = math.sqrt(float(gauss[:, 0] @ gauss[:, 0]))
            if nrm <= 1e-154:
                continue
            return gauss / nrm
        q, r = np.linalg.qr(gauss)
        diag = np.diagonal(r)
        if np.min(np.abs(diag)) <= 1e-12 * max(float(np.abs(diag).max()), 1e-300):
            continue
        return q * np.sign(diag)
    raise SamplingError("could not orthonormalize a Gaussian basis after 32 draws")


def _hits_random_subspace(gens: np.ndarray, perp_dim: int, rng: np.random.Generator) -> bool:
    """Whether the cone meets a Haar subspace of codimension ``perp_dim``.

    Sampling the orthogonal complement directly is equivalent (complements
    of Haar subspaces are Haar) and reduces the test to projecting the
    generators onto an orthonormal basis of ``perp_dim`` coordinates.
    """
    if perp_dim == 0:
        return True
    basis = haar_basis(gens.shape[1], perp_dim, rng)
    return geometry._origin_in_hull(gens @ basis)


def _full(query: FunctionalQuery, cone: ConeSample) -> bool:
    # a conditioned query only ever sees cones the sampler found not full
    return not query.conditioned and is_full_cone(cone)


def _face_count(q: FunctionalQuery, cone: ConeSample, rng: np.random.Generator) -> float:
    if q.k == 0:
        return 0.0 if _full(q, cone) else 1.0
    return float(count_k_faces(cone, q.k))


def _intrinsic_volume(q: FunctionalQuery, cone: ConeSample, rng: np.random.Generator) -> float:
    g = rng.standard_normal(cone.d)
    return 1.0 if _projection_face_dim(cone.generators, g) == q.k else 0.0


def _quermassintegral(q: FunctionalQuery, cone: ConeSample, rng: np.random.Generator) -> float:
    d, k = cone.d, q.k
    if _full(q, cone):
        # the full space scores by the subspace convention
        return 1.0 if (d - k) % 2 == 1 else 0.0
    if k == d:
        return 0.0
    return 0.5 if _hits_random_subspace(cone.generators, k, rng) else 0.0


def _face_sum_u(m: int, l: int, cone: ConeSample, rng: np.random.Generator) -> float:
    gens = cone.generators
    total = 0.0
    for face in geometry._faces(cone, m):
        if _hits_random_subspace(gens[list(face)], l, rng):
            total += 0.5
    return total


def _tangent_sum_u(q: FunctionalQuery, cone: ConeSample, rng: np.random.Generator) -> float:
    j, k, d = q.j, q.k, cone.d
    if j == 0:
        if k == d or _full(q, cone):
            return 0.0
        return 0.5 if _hits_random_subspace(cone.generators, k, rng) else 0.0
    if k == d:
        return 0.0  # top quermassintegral of a tangent cone vanishes
    total = 0.0
    for face in geometry._faces(cone, j):
        if _hits_random_subspace(geometry._tangent_base(cone.generators, face), k - j, rng):
            total += 0.5
    return total


def _face_sum_v(q: FunctionalQuery, cone: ConeSample, rng: np.random.Generator) -> float:
    if q.m > cone.d - 1:
        raise DomainError(
            "face_intrinsic simulation enumerates proper faces and requires m <= d-1")
    gens = cone.generators
    total = 0.0
    for face in geometry._faces(cone, q.m):
        g = rng.standard_normal(cone.d)
        if _projection_face_dim(gens[list(face)], g) == q.l:
            total += 1.0
    return total


def _tangent_sum_v(q: FunctionalQuery, cone: ConeSample, rng: np.random.Generator) -> float:
    j, k, d = q.j, q.k, cone.d
    if j == 0:
        if _full(q, cone):
            return 0.0
        g = rng.standard_normal(d)
        return 1.0 if _projection_face_dim(cone.generators, g) == k else 0.0
    total = 0.0
    for face in geometry._faces(cone, j):
        g = rng.standard_normal(d - j)
        base = geometry._tangent_base(cone.generators, face)
        if _projection_face_dim(base, g) == k - j:
            total += 1.0
    return total


FACE_LOOP_MEASURES = {
    "fk": _face_count,
    "Uk": _quermassintegral,
    "vk": _intrinsic_volume,
    "Lambda": lambda q, cone, rng: _face_sum_u(q.k, q.k - 1, cone, rng),
    "Y": lambda q, cone, rng: _face_sum_u(q.m, q.l, cone, rng),
    "Z": _tangent_sum_u,
    "face_intrinsic": _face_sum_v,
    "tangent_intrinsic": _tangent_sum_v,
    "subspace_prob": lambda q, cone, rng: float(_hits_random_subspace(cone.generators, q.k, rng)),
}
"""The replaced rows of ``simulation.MEASURES``, and the orthonormal-basis
reference for its subspace_prob row, by functional name."""


def face_loop_queries(model: Model) -> list[FunctionalQuery]:
    """Every legal query of the face and tangent functionals and of
    subspace_prob on a model, conditioned variants included; face_intrinsic
    stops at m = d-1."""
    d = model.d
    out = []
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
            for m in range(d) for l in range(m + 1)]
    out += [FunctionalQuery("tangent_intrinsic", model, j=j, k=k)
            for j in range(d) for k in range(j, d + 1)]
    out += [FunctionalQuery("subspace_prob", model, k=k) for k in range(d)]
    return out


# ---------------------------------------------------------------------------
# per-sample Monte Carlo loop
#
# The chunk loop of the simulator before one array program decided each
# chunk, moved with its names prefixed and its docstrings dropped.  Every
# sample draws a ConeSample from its own stream, redraws until the cone is
# in general position and, under ``conditioned``, until it is not full,
# then measures it with per-cone kernels that draw their Gaussians when
# they need them.  The batched chunks must give the same sums.

def _loop_walk_generators(dist, n, rng):
    return np.cumsum(simulation.sample_increments(dist, n, rng), axis=0)


def _loop_bridge_generators(dist, n, rng):
    steps = simulation.sample_increments(dist, n, rng)
    centered = steps - steps.mean(axis=0)
    return np.cumsum(centered, axis=0)[:-1]


def _loop_general_position_draw(draw: Callable[[], np.ndarray], what: str) -> tuple[ConeSample, int]:
    for attempt in range(simulation._MAX_DRAW_RETRIES):
        cone = ConeSample(draw())
        if cone.in_general_position():
            return cone, attempt
    raise SamplingError(f"no {what} in general position after {simulation._MAX_DRAW_RETRIES} attempts")


def _loop_draw_cone(model: Model, dist, rng: np.random.Generator) -> tuple[ConeSample, int]:
    draw = _loop_bridge_generators if model.is_bridge else _loop_walk_generators
    return _loop_general_position_draw(lambda: draw(dist, model.n, rng),
                                       f"draw ({dist.family}, n={model.n}, d={model.d})")


def loop_draw_sample(query: FunctionalQuery, dist,
                     rng: np.random.Generator) -> tuple[ConeSample, int]:
    """One sample's cone drawn alone from ``rng``, and the draws rejected."""
    if query.model is None:
        return _loop_general_position_draw(lambda: np.vstack(
            [_loop_walk_generators(dist, n, rng) for n in query.walk_lengths]
            + [_loop_bridge_generators(dist, m, rng) for m in query.bridge_lengths]),
            "joint draw")
    model = query.model
    cone, rejected = _loop_draw_cone(model, dist, rng)
    if query.conditioned:
        guard = 0
        while is_full_cone(cone):
            guard += 1
            if guard > simulation._MAX_CONDITION_RETRIES:
                raise SamplingError("conditioning on a non-full cone exceeded the retry budget")
            cone, rej = _loop_draw_cone(model, dist, rng)
            rejected += rej
    return cone, rejected


def _loop_u(gens: np.ndarray, k: int, rng: np.random.Generator) -> float:
    if k == 0:
        return 0.5
    gauss = rng.standard_normal((gens.shape[1], k))
    return 0.5 if geometry._origin_in_hull(gens @ gauss) else 0.0


def _loop_v(gens: np.ndarray, k: int, rng: np.random.Generator) -> float:
    g = rng.standard_normal(gens.shape[1])
    return 1.0 if len(geometry._projection_support(gens, g)[0]) == k else 0.0


def _loop_face_sum(cone: ConeSample, j: int, tangent: bool,
                   value: Callable[[np.ndarray], float]) -> float:
    gens = cone.generators
    total = 0.0
    for face in geometry._faces(cone, j):
        total += value(geometry._tangent_base(gens, face) if tangent else gens[list(face)])
    return total


def _loop_quermassintegral(q: FunctionalQuery, cone: ConeSample,
                           rng: np.random.Generator) -> float:
    d, k = cone.d, q.k
    if not geometry._faces(cone, 0):
        return 1.0 if (d - k) % 2 == 1 else 0.0
    return 0.0 if k == d else _loop_u(cone.generators, k, rng)


LOOP_MEASURES: dict[str, Callable[[FunctionalQuery, ConeSample, np.random.Generator], float]] = {
    "absorption": lambda q, cone, rng: 1.0 if is_full_cone(cone) else 0.0,
    "nonabsorption": lambda q, cone, rng: 0.0 if is_full_cone(cone) else 1.0,
    "fk": lambda q, cone, rng: float(len(geometry._faces(cone, q.k))),
    "Uk": _loop_quermassintegral,
    "vk": lambda q, cone, rng: _loop_v(cone.generators, q.k, rng),
    "Lambda": lambda q, cone, rng: _loop_face_sum(
        cone, q.k, False, lambda b: _loop_u(b, q.k - 1, rng)),
    "Y": lambda q, cone, rng: _loop_face_sum(cone, q.m, False, lambda b: _loop_u(b, q.l, rng)),
    "Z": lambda q, cone, rng: 0.0 if q.k == cone.d else _loop_face_sum(
        cone, q.j, True, lambda b: _loop_u(b, q.k - q.j, rng)),
    "face_intrinsic": lambda q, cone, rng: _loop_face_sum(
        cone, q.m, False, lambda b: _loop_v(b, q.l, rng)),
    "tangent_intrinsic": lambda q, cone, rng: _loop_face_sum(
        cone, q.j, True, lambda b: _loop_v(b, q.k - q.j, rng)),
    "face_prob": lambda q, cone, rng: 1.0 if is_face(cone, [i - 1 for i in q.indices]) else 0.0,
    "subspace_prob": lambda q, cone, rng: 2.0 * _loop_u(cone.generators, q.k, rng),
    "joint_absorption": lambda q, cone, rng: 1.0 if is_full_cone(cone) else 0.0,
}
"""Per functional name, the replaced per-cone measurement (query, cone, rng) -> value."""


def loop_chunk_stats(args: tuple) -> tuple[float, float, int]:
    """(total, total_sq, rejected) of one chunk, one sample at a time."""
    query, dist, seed, start, count = args
    streams = simulation._SampleStreams(seed)
    measure = LOOP_MEASURES[query.functional]
    total = 0.0
    total_sq = 0.0
    rejected = 0
    for i in range(start, start + count):
        rng = streams.at(i)
        sample, rej = loop_draw_sample(query, dist, rng)
        rejected += rej
        value = measure(query, sample, rng)
        total += value
        total_sq += value * value
    return total, total_sq, rejected
