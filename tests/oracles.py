"""Brute-force oracles shared by the geometry and acceptance tests."""

from fractions import Fraction
from itertools import combinations

import numpy as np
from scipy.optimize import linprog


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


def random_cone_generators(rng, n, d, bridge=False):
    steps = rng.standard_normal((n, d))
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
