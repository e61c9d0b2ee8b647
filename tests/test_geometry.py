"""Cone geometry predicates against brute-force and library oracles."""

import math
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations, permutations, product

import numpy as np
import pytest
import scipy.optimize
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conic_walks import geometry, simulation
from conic_walks.errors import DegenerateInputError, DomainError, NumericError
from conic_walks.formulas import (
    FunctionalQuery,
    Model,
    absorption_probability,
    evaluate_query,
    expected_fk,
    face_probability,
)
from conic_walks.geometry import (
    MAX_SUBSETS,
    ConeSample,
    Subspace,
    cone_contains,
    count_k_faces,
    intersects_subspace,
    is_face,
    is_full_cone,
    origin_in_convex_hull,
    project_onto_cone,
    sample_uniform_subspace,
    tangent_cone_projection_base,
)


from oracles import (
    _nnls_projection,
    SamplesFirstRecord,
    axis_max_filtered_signs,
    axis_sum_facets,
    brute_force_is_face,
    fraction_det,
    fraction_feasible,
    fraction_origin_in_hull,
    fraction_positively_spans,
    int_det,
    lp_origin_in_hull,
    measured_queries,
    pivot_columns,
    projection_is_face,
    projection_supports,
    random_cone_generators,
    row_complement,
    samples_first_filtered_signs,
    tangent_base,
    tangent_bases,
)


def random_cone(rng, n, d, bridge=False, law="gaussian"):
    gens = random_cone_generators(rng, n, d, bridge=bridge, law=law)
    return ConeSample(gens)


class TestOriginInConvexHull:
    def test_symmetric_cross(self):
        assert origin_in_convex_hull([(1, 0), (-1, 0), (0, 1), (0, -1)])

    def test_open_halfplane(self):
        assert not origin_in_convex_hull([(1, 0), (2, 1), (1, 3)])

    def test_one_dimension(self):
        assert origin_in_convex_hull([(1,), (-2,)])
        assert not origin_in_convex_hull([(1,), (2,)])

    def test_three_dimensions_uses_lp(self):
        assert origin_in_convex_hull([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)])
        assert not origin_in_convex_hull([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])

    def test_zero_point_is_inside(self):
        assert origin_in_convex_hull([(0.0, 0.0), (1.0, 2.0)])

    def test_rejects_bad_input(self):
        with pytest.raises(DomainError):
            origin_in_convex_hull(np.zeros((0, 2)))
        with pytest.raises(DomainError):
            origin_in_convex_hull([(np.nan, 0.0)])
        with pytest.raises(DomainError):
            origin_in_convex_hull(np.zeros((3, 0)))  # points with no coordinate

    def test_fast_paths_agree_with_lp_feasibility(self):
        # the sign and angular-gap shortcuts against a plain feasibility LP
        rng = np.random.default_rng(7)
        for _ in range(300):
            d = int(rng.integers(1, 3))
            pts = rng.standard_normal((int(rng.integers(d + 1, 7)), d))
            got = origin_in_convex_hull(pts)
            n = pts.shape[0]
            res = scipy.optimize.linprog(
                c=np.zeros(n),
                A_eq=np.vstack([pts.T, np.ones((1, n))]),
                b_eq=np.r_[np.zeros(d), 1.0],
                bounds=[(0, None)] * n,
                method="highs")
            assert got == (res.status == 0)

    def test_lp_branch_against_linprog_feasibility(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            pts = rng.standard_normal((int(rng.integers(4, 9)), 3))
            got = origin_in_convex_hull(pts)
            n = pts.shape[0]
            res = scipy.optimize.linprog(
                c=np.zeros(n),
                A_eq=np.vstack([pts.T, np.ones((1, n))]),
                b_eq=np.r_[np.zeros(3), 1.0],
                bounds=[(0, None)] * n,
                method="highs")
            assert got == (res.status == 0)


class TestFullCone:
    def test_orthant_is_pointed(self):
        for d in (1, 2, 3):
            assert not is_full_cone(ConeSample(np.eye(d)))

    def test_basis_and_negations_fill_space(self):
        for d in (1, 2, 3):
            gens = np.vstack([np.eye(d), -np.eye(d)])
            assert is_full_cone(ConeSample(gens))

    def test_too_few_generators_never_fill(self):
        assert not is_full_cone(ConeSample(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])[:2]))

    def test_near_antipodal_planar_pair(self):
        # the angle of (-1, 1e-20) rounds to pi; the 2 x 2 minors do not
        assert is_full_cone(ConeSample(np.array([(1.0, 0.0), (-1.0, 1e-20), (0.0, -1.0)])))
        assert not origin_in_convex_hull([(1.0, 0.0), (-1.0, 1e-20), (0.0, 1.0)])


class TestIsFace:
    def test_simplicial_cone_every_subset(self):
        cone = ConeSample(np.eye(3))
        for k in (1, 2):
            for subset in combinations(range(3), k):
                assert is_face(cone, subset)

    def test_interior_ray_is_not_an_edge(self):
        cone = ConeSample(np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
        assert is_face(cone, (0,))
        assert not is_face(cone, (1,))
        assert is_face(cone, (2,))

    def test_full_cone_has_no_faces(self):
        gens = np.vstack([np.eye(2), -np.eye(2)])
        cone = ConeSample(gens)
        assert not any(is_face(cone, (i,)) for i in range(4))

    def test_rank_deficient_subset_rejected(self):
        gens = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(DegenerateInputError):
            is_face(ConeSample(gens), (0, 1))

    def test_pointed_cone_with_a_zero_minor_is_rejected(self):
        # {e1, 2e1, e2, e3, e4}: projecting 2e1 along e1 gave a zero row
        # that the hull test counted as the origin, so e1 was no edge
        cone = ConeSample(np.vstack([np.eye(4)[0], 2.0 * np.eye(4)[0], np.eye(4)[1:]]))
        with pytest.raises(DegenerateInputError):
            is_face(cone, (0,))
        with pytest.raises(DegenerateInputError):
            count_k_faces(cone, 1)
        with pytest.raises(DegenerateInputError):
            tangent_cone_projection_base(cone, (0,))

    def test_fewer_than_d_generators(self):
        cone = ConeSample(np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 3.0]]))
        assert is_face(cone, (0,)) and is_face(cone, (1,)) and is_face(cone, (0, 1))
        assert count_k_faces(cone, 1) == 2
        assert count_k_faces(cone, 2) == 1
        with pytest.raises(DegenerateInputError):
            is_face(ConeSample(np.array([[1.0, 2.0, 0.0], [-2.0, -4.0, 0.0]])), (0,))

    def test_subset_validation(self):
        cone = ConeSample(np.eye(3))
        with pytest.raises(DomainError):
            is_face(cone, ())
        with pytest.raises(DomainError):
            is_face(cone, (0, 1, 2))
        with pytest.raises(DomainError):
            is_face(cone, (0, 0))
        with pytest.raises(DomainError):
            is_face(cone, (5,))
        with pytest.raises(DomainError, match="must be an integer"):
            is_face(cone, [0.7])

    def test_matches_supporting_hyperplane_search(self):
        # the facet mask against the supporting-hyperplane search and the
        # projection test it replaced
        rng = np.random.default_rng(42)
        for d in (2, 3, 4, 5):
            for law in ("gaussian", "cauchy"):
                for bridge in (False, True):
                    for trial in range(6):
                        n = int(rng.integers(d + bridge, d + 4))
                        cone = random_cone(rng, n, d, bridge=bridge, law=law)
                        for k in range(1, d):
                            faces = 0
                            for subset in combinations(range(cone.n_generators), k):
                                want = brute_force_is_face(cone.generators, subset)
                                assert projection_is_face(cone.generators, subset) == want
                                assert is_face(cone, subset) == want, (d, law, bridge, trial, subset)
                                faces += want
                            assert count_k_faces(cone, k) == faces

    def test_face_monotonicity(self):
        # every generator inside a 2-face must itself be an edge
        rng = np.random.default_rng(5)
        for _ in range(100):
            cone = random_cone(rng, 6, 3)
            for subset in combinations(range(6), 2):
                if is_face(cone, subset):
                    assert is_face(cone, (subset[0],))
                    assert is_face(cone, (subset[1],))

    def test_invariance_under_rescaling_and_rotation(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            cone = random_cone(rng, 5, 3)
            scales = rng.uniform(0.1, 10.0, size=5)
            frame = np.linalg.qr(rng.standard_normal((3, 3)))[0]
            transformed = ConeSample((cone.generators * scales[:, None]) @ frame)
            for subset in combinations(range(5), 2):
                assert is_face(cone, subset) == is_face(transformed, subset)
            assert is_full_cone(cone) == is_full_cone(transformed)


class TestSubspaceIntersection:
    def test_full_space_always_meets(self):
        cone = ConeSample(np.eye(3))
        assert intersects_subspace(cone, Subspace(np.eye(3)))

    def test_zero_subspace_never_meets(self):
        cone = ConeSample(np.eye(3))
        assert not intersects_subspace(cone, Subspace(np.zeros((3, 0))))

    def test_orthogonal_line_misses_planar_cone(self):
        cone = ConeSample(np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0]]))
        axis = Subspace(np.array([[0.0], [0.0], [1.0]]))
        assert not intersects_subspace(cone, axis)

    def test_line_through_cone_meets(self):
        cone = ConeSample(np.array([[1.0, 0.0], [0.0, 1.0]]))
        diag = Subspace(np.array([[1.0], [1.0]]) / math.sqrt(2))
        assert intersects_subspace(cone, diag)
        anti = Subspace(np.array([[1.0], [-1.0]]) / math.sqrt(2))
        assert not intersects_subspace(cone, anti)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DomainError):
            intersects_subspace(ConeSample(np.eye(2)), Subspace(np.eye(3)))

    def test_zero_generators_meet_nothing(self):
        e = np.eye(3)
        axis = Subspace(e[:, 2:])
        assert not intersects_subspace(ConeSample(np.array([e[0], np.zeros(3)])), axis)
        assert intersects_subspace(ConeSample(np.array([e[2], np.zeros(3)])), axis)
        assert not intersects_subspace(ConeSample(np.zeros((1, 2))), Subspace(np.eye(2)))
        assert intersects_subspace(ConeSample(np.array([[0.0, 0.0], [1.0, 0.0]])),
                                   Subspace(np.eye(2)))

    def test_projection_matches_the_row_complement(self, monkeypatch):
        # the generators are projected as the tangent base of the basis
        # rows, bit for bit what one SVD complement of those rows gives;
        # every cone is taken for pointed, but one in general position
        # that its own sign record calls full, which projects nothing
        projected = []
        monkeypatch.setattr(geometry, "_origin_in_hull", lambda pts: projected.append(pts) or False)
        rng = np.random.default_rng(61)
        for d in range(2, 6):
            for m in range(1, d):
                for _ in range(300):
                    gens = random_cone_generators(rng, int(rng.integers(1, d + 3)), d)
                    sub = sample_uniform_subspace(d, m, rng)
                    cone = ConeSample(gens)
                    intersects_subspace(cone, sub)
                    if cone.in_general_position() and is_full_cone(cone):
                        continue
                    want = gens @ row_complement(sub.basis.T)[0]
                    assert projected.pop().tobytes() == want.tobytes(), (d, m)

    def test_pointedness_reads_the_cones_own_record(self, monkeypatch):
        # in general position the apex face of the cached record says
        # whether the cone is pointed, so a pointed cone builds one sign
        # record, its projected generators', and a full cone none
        calls = []
        of = geometry._SignRecord.of.__func__

        def counting(cls, pts):
            calls.append(pts.shape)
            return of(cls, pts)

        monkeypatch.setattr(geometry._SignRecord, "of", classmethod(counting))
        rng = np.random.default_rng(7)
        seen = set()
        for _ in range(200):
            cone = ConeSample(rng.standard_normal((5, 4)))
            assert cone.in_general_position()
            full = is_full_cone(cone)
            sub = sample_uniform_subspace(4, 2, rng)
            calls.clear()
            assert intersects_subspace(cone, sub) or not full
            assert calls == ([] if full else [(2, 5, 1)])
            seen.add(full)
        assert seen == {False, True}

    def test_a_line_that_is_not_full_raises(self):
        # the line's positive dependency projects to the origin; span(e1)
        # meets span(e3) only there, and so does the half-plane of e1, -e1, e2
        e = np.eye(3)
        axis = Subspace(e[:, 2:])
        for gens in ([e[0], -e[0]], [e[0], -e[0], e[1]]):
            with pytest.raises(DegenerateInputError, match="contains a line"):
                intersects_subspace(ConeSample(np.array(gens)), axis)
        assert not intersects_subspace(ConeSample(np.array([e[0], -e[0]])), Subspace(e[:, :0]))
        assert intersects_subspace(ConeSample(np.array([e[0], -e[0]])), Subspace(e))

    def test_matches_an_exact_check_on_integer_cones(self):
        # a pointed cone meets a coordinate subspace L exactly when a convex
        # combination of its nonzero generators lies in L; a full cone meets
        # every L; any other cone raises
        rng = np.random.default_rng(67)
        seen = set()
        for d in (2, 3, 4):
            for _ in range(200):
                gens = rng.integers(-1, 2, size=(int(rng.integers(1, d + 3)), d)).astype(float)
                cols = sorted(rng.choice(d, int(rng.integers(1, d)), replace=False).tolist())
                cone, sub = ConeSample(gens), Subspace(np.eye(d)[:, cols])
                nonzero = gens[gens.any(axis=1)]
                if not len(nonzero):
                    assert not intersects_subspace(cone, sub)
                    continue
                if fraction_positively_spans(nonzero):
                    kind, want = "full", True
                elif not fraction_origin_in_hull(nonzero):
                    rows = [nonzero[:, c].tolist() for c in range(d) if c not in cols]
                    rows.append([1.0] * len(nonzero))
                    kind, want = "pointed", fraction_feasible(rows, [0] * (d - len(cols)) + [1])
                else:
                    kind, want = "line", None
                    with pytest.raises(DegenerateInputError):
                        intersects_subspace(cone, sub)
                if want is not None:
                    assert intersects_subspace(cone, sub) == want, (gens, cols)
                seen.add((kind, want))
        assert seen == {("full", True), ("pointed", True), ("pointed", False), ("line", None)}

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_basis_rejected(self, bad):
        with pytest.raises(DomainError):
            Subspace(np.array([[bad], [0.0]]))
        with pytest.raises(DomainError):
            Subspace(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, bad]]))


class TestProjection:
    def test_interior_point_fixed(self):
        cone = ConeSample(np.eye(2))
        proj = project_onto_cone(np.array([1.0, 2.0]), cone)
        assert np.allclose(proj.point, [1.0, 2.0])
        assert proj.face_dim == 2

    def test_polar_point_maps_to_apex(self):
        cone = ConeSample(np.eye(2))
        proj = project_onto_cone(np.array([-1.0, -2.0]), cone)
        assert np.allclose(proj.point, [0.0, 0.0])
        assert proj.face_dim == 0
        assert proj.active_set == ()

    def test_edge_classification(self):
        cone = ConeSample(np.eye(2))
        proj = project_onto_cone(np.array([3.0, -1.0]), cone)
        assert np.allclose(proj.point, [3.0, 0.0])
        assert proj.face_dim == 1
        assert proj.active_set == (0,)

    def test_kkt_optimality_with_scipy_cross_check(self):
        # KKT conditions certify the global optimum of this convex problem;
        # scipy's solver serves as a residual cross-reference (its active-set
        # rewrite can itself terminate early, so only require that we never
        # do worse than it)
        rng = np.random.default_rng(11)
        for _ in range(300):
            d = int(rng.integers(2, 5))
            n = int(rng.integers(d, 9))
            gens = rng.standard_normal((n, d))
            g = rng.standard_normal(d)
            cone = ConeSample(gens)
            proj = project_onto_cone(g, cone)
            residual = g - proj.point
            w = gens @ residual
            ours = np.linalg.norm(residual)
            assert np.all(w <= 1e-7 * max(1.0, np.abs(w).max())), "ascent direction left"
            for i in proj.active_set:
                assert abs(w[i]) <= 1e-7 * max(1.0, ours), "active gradient nonzero"
            x_scipy, _ = scipy.optimize.nnls(gens.T, g)
            theirs = np.linalg.norm(g - gens.T @ x_scipy)
            assert ours <= theirs + 1e-8

    def test_moreau_decomposition(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            d = int(rng.integers(2, 5))
            gens = rng.standard_normal((int(rng.integers(d, 8)), d))
            cone = ConeSample(gens)
            g = rng.standard_normal(d)
            proj = project_onto_cone(g, cone)
            polar_part = g - proj.point
            # orthogonal split, with the residual in the polar cone
            assert abs(polar_part @ proj.point) <= 1e-8 * max(1.0, np.linalg.norm(g) ** 2)
            assert np.all(gens @ polar_part <= 1e-8 * np.linalg.norm(gens, axis=1)
                          * max(1.0, np.linalg.norm(polar_part)))

    def test_membership_helper(self):
        cone = ConeSample(np.eye(2))
        assert cone_contains(cone, np.array([0.5, 0.25]))
        assert not cone_contains(cone, np.array([-0.5, 0.25]))

    def test_points_are_validated(self):
        cone = ConeSample(np.eye(2))
        for bad in ([1.0, 2.0, 3.0], [[1.0, 2.0]], [np.nan, 1.0], [np.inf, 1.0]):
            with pytest.raises(DomainError):
                cone_contains(cone, bad)
            with pytest.raises(DomainError):
                project_onto_cone(bad, cone)


class TestSupportRule:
    def test_matches_the_active_set_nnls(self):
        # wherever the replaced NNLS converges, same face dimension and
        # point; outside the cone the support is unique, so the same active
        # set, and inside it any positive d-subset giving g will do
        rng = np.random.default_rng(29)
        compared = inside = 0
        for law in ("gaussian", "cauchy"):
            for d in range(2, 6):
                for n in range(d, d + 5):
                    for _ in range(25):
                        gens = random_cone_generators(rng, n, d, law=law)
                        g = rng.standard_normal(d)
                        try:
                            resid, active, was_inside = _nnls_projection(gens, g)
                        except NumericError:
                            continue
                        proj = project_onto_cone(g, ConeSample(gens))
                        want = g if was_inside else g - resid
                        scale = max(1.0, float(np.linalg.norm(g)))
                        assert np.linalg.norm(proj.point - want) <= 1e-9 * scale
                        compared += 1
                        if not was_inside:
                            assert proj.face_dim == len(active)
                            assert proj.active_set == tuple(active.tolist())
                            continue
                        inside += 1
                        assert proj.face_dim == d and len(proj.active_set) == d
                        sub = gens[list(proj.active_set)]
                        coef = np.linalg.solve(sub.T, g)
                        assert (coef > 0).all()
        assert compared > 900 and inside > 50

    def test_full_cone_contains_every_point(self):
        cone = ConeSample(np.vstack([np.eye(3), -np.ones((1, 3))]))
        for g in np.random.default_rng(4).standard_normal((50, 3)):
            assert cone_contains(cone, g)
            proj = project_onto_cone(g, cone)
            assert proj.face_dim == 3 and np.array_equal(proj.point, g)

    def test_contract_of_the_face_enumeration(self):
        # fewer than d generators must be independent
        line = ConeSample(np.array([[1.0, 2.0, 0.0], [-2.0, -4.0, 0.0]]))
        with pytest.raises(DegenerateInputError):
            project_onto_cone([1.0, 0.0, 0.0], line)
        # a pointed cone with an exactly zero minor
        flat = ConeSample(np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]]))
        with pytest.raises(DegenerateInputError):
            cone_contains(flat, [1.0, 1.0])
        # fewer than d independent generators project onto a simplicial cone
        pair = ConeSample(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
        proj = project_onto_cone([1.0, -1.0, 3.0], pair)
        assert proj.active_set == (0,) and np.allclose(proj.point, [1.0, 0.0, 0.0])
        # the support count obeys the cap
        wide = ConeSample(np.random.default_rng(0).standard_normal((20, 30)))
        with pytest.raises(DomainError, match=r"n=20, d=30 needs 1048575 row subsets"):
            project_onto_cone(np.ones(30), wide)

    def test_huge_generators_do_not_overflow(self):
        # their Gram products would exceed the double range; the suite turns
        # the overflow warning into an error
        cone = ConeSample(np.array([[1e200, 0.0], [1e200, 1e200]]))
        proj = project_onto_cone([1.0, -1.0], cone)
        assert proj.active_set == (0,) and proj.face_dim == 1
        assert proj.point.tolist() == [1.0, 0.0]
        support, resid = geometry._projection_support(cone.generators, np.array([1.0, -1.0]))
        assert support == (0,) and resid.tolist() == [0.0, -1.0]

    def test_huge_points_do_not_overflow(self):
        # their norms would exceed the double range
        proj = project_onto_cone([1e200, -1e200], ConeSample([[1.0, 0.0], [1.0, 1.0]]))
        assert proj.active_set == (0,) and proj.face_dim == 1
        assert proj.point.tolist() == [1e200, 0.0]
        proj = project_onto_cone([1e300, 1e300], ConeSample(np.eye(2)))
        assert proj.face_dim == 2 and proj.point.tolist() == [1e300, 1e300]
        assert not cone_contains(ConeSample(np.eye(2)), [1e300, -1e300])

    def test_a_support_that_rounds_to_singular_is_no_candidate(self):
        # det = 3 * fl(1/3) - 1 is nonzero, but LU pivots it to exactly zero
        gens = np.array([[3.0, 1.0], [1.0, 1.0 / 3.0]])
        cone = ConeSample(gens)
        assert cone.in_general_position()
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(gens.T, [1.0, 1.0])
        batch = np.stack([gens.T, np.diag([2.0, 1.0])])
        coef = geometry._solve(batch, np.ones((2, 2)))
        assert np.isnan(coef[0]).all() and coef[1].tolist() == [0.5, 1.0]
        for g in ([1.0, 1.0], gens[0] + gens[1], [-1.0, 3.0]):
            assert np.isfinite(project_onto_cone(g, cone).point).all()
        assert cone_contains(cone, gens[0] + gens[1])
        assert not cone_contains(cone, [1.0, 1.0])

    @staticmethod
    def assert_stack_matches_per_cone_rule(gens, g):
        # the replaced stacked solve against the one-cone support search
        support, resid = projection_supports(gens, g)
        for x, y, mask, r in zip(gens, g, support, resid):
            got, got_resid = geometry._projection_support(x, y)
            assert tuple(np.flatnonzero(mask).tolist()) == got
            assert r.tobytes() == np.asarray(got_resid).tobytes()

    def test_stacked_supports_match_the_per_cone_rule(self):
        rng = np.random.default_rng(41)
        for law in ("gaussian", "cauchy", "scaled"):
            for d in range(1, 5):
                for n in range(1, d + 3):
                    gens = np.stack([random_cone_generators(
                        rng, n, d, law="cauchy" if law == "cauchy" else "gaussian")
                        for _ in range(60)])
                    if law == "scaled":
                        gens *= np.exp2(rng.integers(-900, 900, size=(60, 1, 1)))
                    g = rng.standard_normal((60, d))
                    self.assert_stack_matches_per_cone_rule(gens, g)

    def test_stacked_supports_on_the_edge_cases_of_the_rule(self):
        rng = np.random.default_rng(43)
        gens = rng.standard_normal((40, 2, 2))
        g = rng.standard_normal((40, 2))
        # one stack: generators near 1e-200 and near 1e+200
        gens[:10] *= 1e-200
        gens[10:20] *= 1e200
        # no generator has a positive inner product with g: the empty support
        gens[20:24] = np.abs(gens[20:24])
        g[20:24] = -np.abs(g[20:24])
        # det = 3 * fl(1/3) - 1 is nonzero, but LU pivots the square support
        # to exactly zero
        gens[24:27] = [[3.0, 1.0], [1.0, 1.0 / 3.0]]
        g[24:27] = [1.0, 1.0], [4.0, 4.0 / 3.0], [-1.0, 3.0]
        # g on the ray of the first generator: its residual rounds to a
        # positive inner product with the second, and no support passes
        gens[27] = [[1.13, 1.03], [-1.42, 0.15]]
        g[27] = 1.75 * gens[27, 0]
        self.assert_stack_matches_per_cone_rule(gens, g)
        support, resid = projection_supports(gens, g)
        assert not support[20:24].any() and resid[20:24].tobytes() == g[20:24].tobytes()
        assert support[27].tolist() == [True, False] and resid[27] @ gens[27, 1] > 0.0

    def test_one_singular_system_costs_logarithmic_solves(self, monkeypatch):
        rng = np.random.default_rng(47)
        lhs = rng.standard_normal((1000, 2, 2))
        rhs = rng.standard_normal((1000, 2))
        want = geometry._solve(lhs, rhs)
        lhs[613] = [[3.0, 1.0], [1.0, 1.0 / 3.0]]  # rounds to singular under LU
        solve = np.linalg.solve
        calls = []
        monkeypatch.setattr(np.linalg, "solve", lambda *a: calls.append(1) or solve(*a))
        got = geometry._solve(lhs, rhs)
        assert np.isnan(got[613]).all()
        keep = np.arange(1000) != 613
        assert got[keep].tobytes() == want[keep].tobytes()
        assert len(calls) <= 2 * math.ceil(math.log2(1000)) + 1

    def test_batch_temporaries_stay_one_support_level_wide(self):
        # a full batch of the v2/A n=6 d=4 gate: 5 bridge generators in R^4
        rng = np.random.default_rng(53)
        steps = rng.standard_normal((636, 6, 4))
        gens = np.cumsum(steps - steps.mean(axis=1, keepdims=True), axis=1)[:, :-1]
        g = rng.standard_normal((636, 4))
        projection_supports(gens, g)
        tracemalloc.start()
        try:
            projection_supports(gens, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the widest level stacks C(5, 3) supports of 3 rows per sample
        level = 636 * math.comb(5, 3) * 3 * 4 * 8
        assert peak < 2.5 * level


class TestCountFaces:
    def test_simplicial_counts_binomials(self):
        for d in (2, 3, 4):
            cone = ConeSample(np.eye(d))
            for k in range(d):
                assert count_k_faces(cone, k) == math.comb(d, k)

    def test_full_cone_reports_none(self):
        cone = ConeSample(np.vstack([np.eye(2), -np.eye(2)]))
        assert count_k_faces(cone, 0) == 0
        assert count_k_faces(cone, 1) == 0

    def test_full_cone_has_no_face_of_any_dimension(self):
        # one cone in general position, one with exactly zero minors
        generic = np.random.default_rng(4).standard_normal((20, 4))
        degenerate = np.vstack([np.eye(4), -np.eye(4), 2.0 * np.eye(4)[0]])
        for gens in (generic, degenerate):
            cone = ConeSample(gens)
            assert is_full_cone(cone)
            for k in range(4):
                assert count_k_faces(cone, k) == 0
            for k in (1, 2, 3):
                assert not any(is_face(cone, s) for s in combinations(range(len(gens)), k))

    def test_range_checked(self):
        with pytest.raises(DomainError):
            count_k_faces(ConeSample(np.eye(2)), 2)
        with pytest.raises(DomainError, match="must be an integer"):
            count_k_faces(ConeSample(np.eye(3)), 1.5)


# Increment lists drawn in this order from one seeded generator: one
# Gaussian list per model, then Cauchy lists for two of them.
_ORBIT_RNG = np.random.default_rng(20250810)
ORBIT_STEPS = {(model, "gaussian"): _ORBIT_RNG.standard_normal((model.n, model.d)) for model in (
    Model("A", 4, 2), Model("A", 5, 3), Model("B", 3, 2), Model("B", 4, 3), Model("A", 6, 3),
    Model("B", 4, 4), Model("A", 6, 4))}
ORBIT_STEPS.update({(model, "cauchy"): _ORBIT_RNG.standard_cauchy((model.n, model.d))
                    for model in (Model("A", 5, 3), Model("B", 4, 4))})


def orbit_id(case):
    model, law = case
    return f"{model.tag}-n{model.n}-d{model.d}" + ("" if law == "gaussian" else f"-{law}")


def orbit_cones(model, steps):
    """The cones of every permutation of the increments (a bridge, recentred
    by their mean) or every signed permutation (a walk)."""
    if model.is_bridge:
        steps = steps - steps.mean(axis=0)
        return [ConeSample(np.cumsum(steps[list(p)], axis=0)[:-1])
                for p in permutations(range(model.n))]
    signs = [np.array(s)[:, None] for s in product((1.0, -1.0), repeat=model.n)]
    return [ConeSample(np.cumsum(s * steps[list(p)], axis=0))
            for p in permutations(range(model.n)) for s in signs]


def orbit_chunk(case):
    """The whole orbit of a model's increments as one sign record of cones."""
    return geometry._SignRecord.of(np.stack(
        [cone.generators.T for cone in orbit_cones(case[0], ORBIT_STEPS[case])], axis=-1))


class TestOrbitAverages:
    """A uniformly random permutation of fixed increments is exchangeable, and
    a uniformly random signed permutation is also sign-symmetric; the closed
    forms need nothing more.  So over an orbit in general position every
    expectation is a finite average, and it equals its closed form exactly."""

    @pytest.mark.parametrize("case", list(ORBIT_STEPS), ids=orbit_id)
    def test_face_counts_absorption_and_face_probabilities(self, case):
        model = case[0]
        cones = orbit_cones(model, ORBIT_STEPS[case])
        assert all(cone.in_general_position() for cone in cones)

        def average(value):
            return Fraction(sum(value(cone) for cone in cones), len(cones))

        for k in range(model.d):
            assert average(lambda cone: count_k_faces(cone, k)) == expected_fk(model, k)
        assert average(is_full_cone) == absorption_probability(model)
        for size in range(1, model.d):
            for idx in combinations(range(1, model.generator_count + 1), size):
                assert average(lambda cone: is_face(cone, [i - 1 for i in idx])) == \
                    face_probability(model, idx)

    @pytest.mark.parametrize("case", list(ORBIT_STEPS), ids=orbit_id)
    def test_whole_orbit_as_one_batch(self, case):
        # every measurement of the simulator decides the whole orbit at
        # once, the Crofton rows against the fixed subspaces of the last
        # coordinates: the projected increments of an orbit are an orbit
        # too, so the average of every row at every legal index is its
        # closed form, a conditioned row's over the members that are not
        # full.  A joint draw of the one walk or bridge is the model's draw
        model = case[0]
        chunk = orbit_chunk(case)
        assert chunk.general.all()
        pointed = chunk.take(~chunk.full)
        lengths = {"bridge_lengths" if model.is_bridge else "walk_lengths": (model.n,)}
        queries = measured_queries(model) + [
            FunctionalQuery("joint_absorption", d=model.d, **lengths)]
        for q in queries:
            c = pointed if q.conditioned else chunk
            values = simulation.MEASURES[q.functional](q, c)
            assert not np.isnan(values).any(), q
            assert Fraction(float(values.sum())) / len(values) == evaluate_query(q).exact, q
        assert {q.functional for q in queries} == set(simulation.MEASURES)

    def test_conditioned_edge_count_of_a_bridge_orbit(self):
        # the orbit members that are not full, as the conditioned simulator
        # keeps them
        model = Model("A", 6, 3)
        chunk = orbit_chunk((model, "gaussian"))
        pointed = chunk.take(~chunk.full)
        q = FunctionalQuery("fk", model, k=1, conditioned=True)
        edges = simulation.MEASURES["fk"](q, pointed)
        assert Fraction(edges.sum()) / len(edges) == Fraction(90, 23)


class TestTangentBase:
    def test_empty_subset_returns_cone(self):
        cone = ConeSample(np.eye(3))
        assert tangent_cone_projection_base(cone, ()) is cone

    def test_simplicial_projects_to_ray(self):
        cone = ConeSample(np.eye(3))
        base = tangent_cone_projection_base(cone, (0, 1))
        assert base.generators.shape == (1, 1)
        assert abs(abs(base.generators[0, 0]) - 1.0) < 1e-12

    def test_non_face_rejected(self):
        cone = ConeSample(np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
        with pytest.raises(DomainError):
            tangent_cone_projection_base(cone, (1,))

    def test_stacked_bases_match_the_per_face_svd(self):
        rng = np.random.default_rng(59)
        for d in range(2, 5):
            for n in range(d, d + 3):
                for j in range(d):
                    # faces gathered by (sample, row) from 40 cones, in any
                    # order and some twice; the apex's base is the cone
                    gens = np.stack([random_cone_generators(rng, n, d, law="cauchy")
                                     for _ in range(40)])
                    which = rng.integers(0, 40, 60)
                    faces = geometry._subsets(n, j)[rng.integers(0, math.comb(n, j), 60)]
                    bases = tangent_bases(gens, which, faces)
                    assert bases.shape == (60, n - j, d - j)
                    for p, face, base in zip(which, faces.tolist(), bases):
                        one = geometry._tangent_base(gens[p], tuple(face)) if j else gens[p]
                        assert base.tobytes() == one.tobytes()
                        assert base.tobytes() == tangent_base(gens[p], face).tobytes()

    def test_rank_deficient_face_is_named(self):
        gens = np.array([[1.0, 0.0, 0.0], [1.0, 1e-17, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(DegenerateInputError, match=r"\(0, 1\) are numerically rank-deficient"):
            tangent_bases(np.stack([gens, gens]), np.array([1, 0]), np.array([[0, 2], [0, 1]]))
        with pytest.raises(DegenerateInputError, match=r"\(0, 1\) are numerically rank-deficient"):
            geometry._tangent_base(gens, (0, 1))
        with pytest.raises(DegenerateInputError, match=r"\(0, 1\)"):
            tangent_base(gens, (0, 1))


class TestSubspaceSampling:
    def test_orthonormal_columns(self):
        rng = np.random.default_rng(1)
        for d, m in [(3, 1), (4, 2), (5, 5)]:
            sub = sample_uniform_subspace(d, m, rng)
            assert sub.basis.shape == (d, m)
            assert np.allclose(sub.basis.T @ sub.basis, np.eye(m), atol=1e-12)

    def test_degenerate_dimensions(self):
        rng = np.random.default_rng(2)
        assert sample_uniform_subspace(4, 0, rng).dim == 0
        assert sample_uniform_subspace(4, 4, rng).dim == 4
        with pytest.raises(DomainError):
            sample_uniform_subspace(3, 4, rng)
        with pytest.raises(DomainError):
            sample_uniform_subspace(2.5, 1, rng)
        assert sample_uniform_subspace(0, 0, rng).basis.shape == (0, 0)

    def test_projection_lengths_have_trace_mean(self):
        # squared projection of a fixed unit vector onto a Haar m-subspace
        # averages m/d
        rng = np.random.default_rng(31)
        d, m, draws = 3, 2, 100_000
        w = np.array([1.0, 0.0, 0.0])
        total = 0.0
        total_sq = 0.0
        for _ in range(draws):
            basis = sample_uniform_subspace(d, m, rng).basis
            val = float(np.sum((w @ basis) ** 2))
            total += val
            total_sq += val * val
        mean = total / draws
        stderr = math.sqrt(max(total_sq / draws - mean * mean, 0.0) / draws)
        assert abs(mean - m / d) <= 3 * stderr

    def test_orthonormality_validated(self):
        with pytest.raises(DomainError):
            Subspace(np.array([[1.0, 1.0], [0.0, 1.0]]))


class TestConeSampleValidation:
    def test_shape_and_finiteness(self):
        with pytest.raises(DomainError):
            ConeSample(np.zeros((0, 2)))
        with pytest.raises(DomainError):
            ConeSample(np.array([[np.inf, 0.0]]))

    def test_read_only(self):
        cone = ConeSample(np.eye(2))
        with pytest.raises(ValueError):
            cone.generators[0, 0] = 5.0

    def test_general_position_flags_duplicates(self):
        good = ConeSample(np.array([[1.0, 0.0], [0.3, 1.0], [1.0, 1.0]]))
        assert good.in_general_position()
        bad = ConeSample(np.array([[1.0, 0.0], [2.0, 0.0], [1.0, 1.0]]))
        assert not bad.in_general_position()


def exact_minor_signs(pts):
    d = pts.shape[1]
    return [int(np.sign(fraction_det(pts[list(rows)])))
            for rows in combinations(range(pts.shape[0]), d)]


def level_d_signs(x):
    """Exact signs of the d x d minors of the point sets x, (d, n, S), and
    the filter's mask of those it could not certify."""
    d, n, _ = x.shape
    _, est, lost = geometry._minor_signs(x, geometry._minor_table(n, d))
    return geometry._level_signs(x, est[-1], lost)


def filter_signs(pts):
    signs, unsure = level_d_signs(pts.T[:, :, None])
    return signs[:, 0], unsure[:, 0]


def minor_signs(pts):
    n, d = pts.shape
    return geometry._minor_signs(pts.T[:, :, None], geometry._minor_table(n, d))[0][:, 0].tolist()


class TestExactHullPredicate:
    def test_agrees_with_lp_oracle_on_random_cones(self):
        rng = np.random.default_rng(2024)
        for d in (3, 4, 5):
            for law in ("gaussian", "cauchy"):
                for bridge in (False, True):
                    for _ in range(25):
                        n = int(rng.integers(d + 1, d + 6))
                        steps = (rng.standard_normal((n, d)) if law == "gaussian"
                                 else rng.standard_cauchy((n, d)))
                        if bridge:
                            steps = steps - steps.mean(axis=0)
                        gens = np.cumsum(steps, axis=0)[:-1] if bridge else np.cumsum(steps, axis=0)
                        want = lp_origin_in_hull(gens)
                        assert origin_in_convex_hull(gens) == want, (d, law, bridge, gens)
                        assert is_full_cone(ConeSample(gens)) == want, (d, law, bridge, gens)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 4).flatmap(lambda d: st.lists(
        st.lists(st.integers(-2, 2), min_size=d, max_size=d), min_size=1, max_size=7)))
    def test_small_integer_points_against_fraction_oracle(self, rows):
        # small integer coordinates make many minors exactly zero
        pts = np.array(rows, dtype=float)
        assert origin_in_convex_hull(pts) == fraction_origin_in_hull(pts)
        assert is_full_cone(ConeSample(pts)) == fraction_positively_spans(pts)

    def test_degenerate_inputs_take_the_exact_path(self):
        # coplanar points around the origin, in a plane tilted out of the axes
        plane = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [-1.0, -1.0, -2.0]])
        assert origin_in_convex_hull(plane)
        assert not is_full_cone(ConeSample(plane))
        assert not origin_in_convex_hull(plane[:2])
        assert not origin_in_convex_hull(np.vstack([plane[:2], plane[0] + plane[1]]))
        # a collinear pair through the origin hides among generic points
        line = np.array([[2.0, 1.0, 3.0], [-4.0, -2.0, -6.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        assert origin_in_convex_hull(line)
        assert not is_full_cone(ConeSample(line))

    def test_filter_defers_on_last_ulp_rows(self):
        up = np.nextafter(1.0, 2.0)
        pts = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, up], [1.0, up, 1.0], [up, 1.0, 1.0],
                        [1.0, 1.0, 1.0]])
        _, unsure = filter_signs(pts)
        assert unsure.all()
        signs = minor_signs(pts)
        assert signs == exact_minor_signs(pts)
        assert {-1, 0, 1} <= set(signs)

    def test_filter_defers_on_rounded_coplanar_rows(self):
        # a third row rounded from a combination of two others leaves a
        # minor far below the rounding noise of its floating-point value
        rng = np.random.default_rng(21)
        deferred = 0
        for _ in range(40):
            a, b, c = rng.standard_normal((3, 3))
            pts = np.vstack([a, b, 0.3 * a + 0.7 * b, c])
            _, unsure = filter_signs(pts)
            deferred += int(unsure.sum())
            assert minor_signs(pts) == exact_minor_signs(pts)
        assert deferred >= 40

    def test_underflow_range_rows_keep_exact_signs(self):
        rng = np.random.default_rng(8)
        for scale in (1e-300, 1e-305, 1e-310, 5e-324):
            pts = np.vstack([rng.standard_normal((4, 3)), scale * rng.integers(-9, 10, (2, 3))])
            assert minor_signs(pts) == exact_minor_signs(pts)
        # the LP dropped points of norm below 1e-300; the origin is inside here
        tiny = np.vstack([np.eye(3), np.full((1, 3), -1e-305)])
        assert origin_in_convex_hull(tiny)
        assert is_full_cone(ConeSample(tiny))
        assert not lp_origin_in_hull(tiny)

    def test_rows_too_wide_to_scale_go_exact(self):
        pts = np.array([[1e300, 1e-300, 1.0], [1.0, 1e300, -1e-300], [-1e-300, 1.0, 1e300],
                        [-1e300, 3e-300, -1.0]])
        _, unsure = filter_signs(pts)
        assert unsure.all()
        assert minor_signs(pts) == exact_minor_signs(pts)

    def test_certified_signs_match_fraction_determinants(self):
        rng = np.random.default_rng(12)
        for d in (3, 4, 5):
            pts = rng.standard_normal((d + 3, d)) * rng.uniform(1e-3, 1e3, (d + 3, 1))
            signs, unsure = filter_signs(pts)
            exact = exact_minor_signs(pts)
            assert not unsure.any()
            assert signs.tolist() == exact

    def test_batch_temporaries_stay_one_level_wide(self):
        # a level's k cofactor terms are summed one at a time: stacked
        # k-fold, a chunk's products are mapped afresh on every batch
        x = np.random.default_rng(5).standard_normal((3, 9, 128))
        table = geometry._minor_table(9, 3)
        geometry._minor_estimates(x, table)
        tracemalloc.start()
        try:
            est = geometry._minor_estimates(x, table)[-1]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert est.shape == (84, 128)
        assert peak < 6 * est.nbytes


class TestOneSignRecord:
    """Sets of 1-d points, and sets of fewer points than dimensions, read the
    same sign record as every other set; the latter's has no minor."""

    @staticmethod
    def short_sets():
        # points in {-1, 0, 1}^d, each scaled, down to subnormals
        rng = np.random.default_rng(20261019)
        for _ in range(400):
            d = int(rng.integers(1, 6))
            n = int(rng.integers(1, 7)) if d == 1 else int(rng.integers(1, d))
            ints = rng.integers(-1, 2, (n, d))
            if rng.random() < 0.25:
                ints[-1] = ints[0]  # a repeated point
            yield ints, ints * rng.choice([1.0, 3.0, 1e200, 1e-310, 5e-324], (n, 1))

    def test_short_and_one_dimensional_sets_match_the_oracles(self):
        for ints, pts in self.short_sets():
            n, d = pts.shape
            cone = ConeSample(pts)
            assert origin_in_convex_hull(pts) == fraction_origin_in_hull(pts), pts
            assert is_full_cone(cone) == fraction_positively_spans(pts), pts
            assert cone.in_general_position() == (n >= d and ints.all()), pts
            nonzero = pts[ints.any(axis=1)]
            pointed = not len(nonzero) or not fraction_origin_in_hull(nonzero)
            assert count_k_faces(cone, 0) == pointed, pts
            for k in range(1, d):
                if len(pivot_columns(ints.tolist())) == n:
                    assert count_k_faces(cone, k) == math.comb(n, k), pts
                else:
                    with pytest.raises(DegenerateInputError):
                        count_k_faces(cone, k)

    def test_wide_sets_answer_in_milliseconds(self):
        start = time.perf_counter()
        cone = ConeSample(np.ones((1, 3000)))
        assert not cone.in_general_position() and not is_full_cone(cone)
        assert [count_k_faces(cone, k) for k in (0, 1, 2)] == [1, 1, 0]
        assert not origin_in_convex_hull(np.ones((2, 3000)))
        assert origin_in_convex_hull(np.vstack([np.ones(3000), -np.ones(3000)]))
        assert time.perf_counter() - start < 0.1

    def test_short_records_have_no_minor_and_no_level_above_n(self):
        rec = geometry._SignRecord.of(np.ones((3, 2, 4)))
        assert rec.signs.shape == (0, 4) and not rec.general.any()
        misses = geometry._subsets.cache_info().misses
        for n, d in ((1, 2999), (2, 2999), (3, 7)):
            table = geometry._minor_table(n, d)
            assert len(table.levels) == n - 1
            shape = (math.comb(n, d - 1), max(n - d + 1, 0))
            assert table.facet_others.shape == table.facet_minor.shape == shape
            assert table.facet_parity.shape == shape
        assert geometry._subsets.cache_info().misses - misses <= 6


class TestShortAxisReductions:
    """The samples-first record's row max and facet sum run column by column
    and point by point; they give what numpy's axis reductions gave."""

    @staticmethod
    def point_sets():
        rng = np.random.default_rng(20261020)
        for n, d in ((1, 1), (6, 1), (3, 2), (6, 4), (9, 3), (1, 3), (2, 4), (3, 4)):
            pts = rng.standard_normal((64, n, d))
            yield pts
            zero = pts.copy()
            zero[::4, -1] = 0.0  # zero rows
            yield zero
            # entries 2^-1074 to 2^1000 apart in a row: scaled down by the
            # row's max, the small ones lose bits
            yield pts * np.ldexp(1.0, rng.integers(-1074, 1000, pts.shape))

    def test_filtered_signs_match_the_axis_max(self):
        lost = 0
        for pts in self.point_sets():
            table = geometry._minor_table(*pts.shape[1:])
            signs, unsure = samples_first_filtered_signs(pts, table)
            want_signs, want_unsure = axis_max_filtered_signs(pts, table)
            assert signs.tobytes() == want_signs.tobytes()
            assert unsure.tobytes() == want_unsure.tobytes()
            _, expo = np.frexp(np.abs(pts).max(axis=2))
            lost += int((np.ldexp(np.ldexp(pts, -expo[..., None]), expo[..., None]) != pts).sum())
        assert lost > 0

    def test_facets_match_the_axis_sum(self):
        shapes = set()
        for pts in self.point_sets():
            rec = SamplesFirstRecord(pts)
            shapes.add(rec.sides.shape[1])
            assert rec.facets.shape == axis_sum_facets(rec).shape
            assert (rec.facets == axis_sum_facets(rec)).all()
        assert 0 in shapes and max(shapes) > 1  # n < d keeps an empty axis of other points


class TestSampleLastRecord:
    """The sign record with the samples last decides every set as the
    samples-first record it replaced, filter mask included."""

    @staticmethod
    def point_sets():
        rng = np.random.default_rng(20261021)
        for n, d in ((1, 1), (5, 1), (2, 2), (4, 2), (5, 3), (7, 3), (6, 4), (8, 4), (1, 3),
                     (2, 4), (3, 4)):
            yield "gaussian", rng.standard_normal((96, n, d))
            yield "cauchy", rng.standard_cauchy((96, n, d))
            odd = rng.standard_normal((96, n, d))
            odd[::3, -1] = odd[::3, 0]  # a repeated point
            odd[1::3, 0] = 0.0  # a zero point
            yield "zero minors", odd
            tiny = rng.standard_normal((96, n, d))
            tiny[::2, -1] *= 2.0 ** -1060  # a subnormal row
            tiny[1::2, 0, 0] *= 2.0 ** -1060  # scaled by its row's max, an entry loses bits
            yield "underflow", tiny

    def test_matches_the_samples_first_record(self):
        seen = set()
        for kind, pts in self.point_sets():
            _, n, d = pts.shape
            want = SamplesFirstRecord(pts)
            last = np.ascontiguousarray(pts.transpose(2, 1, 0))
            if n >= d:
                _, unsure = level_d_signs(last)
                assert np.array_equal(unsure.T, want.unsure), kind
                _, expo = np.frexp(np.abs(pts).max(axis=2, keepdims=True))
                lost = (np.ldexp(np.ldexp(pts, -expo), expo) != pts).any(axis=(1, 2))
                assert unsure[:, lost].all(), kind
                seen |= {"exact fallback"} if unsure.any() else set()
                seen |= {"lost bits"} if lost.any() else set()
            rec = geometry._SignRecord.of(last)
            assert rec.signs.dtype == want.signs.dtype
            assert np.array_equal(rec.signs.T, want.signs), kind
            assert np.array_equal(rec.general, want.general), kind
            assert np.array_equal(rec.facets.T, want.facets), kind
            assert np.array_equal(rec.full, want.full_cones()), kind
            for k in range(d):
                assert np.array_equal(rec.faces(k).T, want.face_masks(k)), (kind, k)
            seen.add("short" if n < d else "odd" if not rec.general.all() else "general")
        assert seen == {"exact fallback", "lost bits", "short", "odd", "general"}


class TestTake:
    """``take`` gives the selected sets the record that they make alone,
    whether or not this record had derived its masks yet; it carries over
    only the masks already derived."""

    @staticmethod
    def point_sets():
        rng = np.random.default_rng(20261022)
        for n, d in ((4, 1), (5, 2), (6, 3), (7, 4), (1, 2), (2, 4)):
            pts = rng.standard_normal((d, n, 96))
            pts[:, -1, 1::4] = pts[:, 0, 1::4]  # a repeated point
            pts[:, 0, 2::4] = 0.0  # a zero point
            pts[-1, :, 3::4] *= 2.0 ** -1060  # scaled by each point's max, entries lose bits
            yield rng, pts

    @staticmethod
    def assert_same(got, want, kind):
        d = want.table.shape[1]
        assert np.array_equal(got.signs, want.signs), kind
        assert np.array_equal(got.general, want.general), kind
        assert np.array_equal(got.lost, want.lost), kind
        assert np.array_equal(got.full, want.full), kind
        assert np.array_equal(got.facets, want.facets), kind
        for k in range(d):
            assert np.array_equal(got.faces(k), want.faces(k)), (kind, k)
        for i in range(1, d if want.signs.shape[0] else 1):  # a short set has no expansion
            got_i, want_i = got.level(i), want.level(i)
            assert np.array_equal(got_i.signs, want_i.signs), (kind, i)
            assert np.array_equal(got_i.general, want_i.general), (kind, i)
            assert np.array_equal(got_i.facets, want_i.facets), (kind, i)

    def test_matches_the_record_of_the_selected_sets(self):
        seen = set()
        for rng, pts in self.point_sets():
            d, n, count = pts.shape
            for which in (rng.random(count) < 0.5, rng.permutation(count)[:count // 3]):
                want = geometry._SignRecord.of(pts[..., which])
                fresh = geometry._SignRecord.of(pts).take(which)
                assert "full" not in vars(fresh) and "facets" not in vars(fresh)
                self.assert_same(fresh, want, ("fresh", n, d))
                read = geometry._SignRecord.of(pts)
                read.full, read.facets, [read.faces(k) for k in range(d)]  # derived first
                taken = read.take(which)
                assert "full" in vars(taken) and "facets" in vars(taken)
                self.assert_same(taken, want, ("read", n, d))
                seen |= {"short"} if n < d else {"lost"} if want.lost.any() else set()
                seen |= {"zero"} if n >= d and not want.general.all() else set()
                seen |= {"general"} if want.general.any() else set()
        assert seen == {"short", "lost", "zero", "general"}


class TestBareiss:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda c: st.lists(
        st.lists(st.one_of(st.integers(-2, 2), st.integers(-2 ** 70, 2 ** 70)),
                 min_size=c, max_size=c),
        min_size=1, max_size=5)))
    @example([[0, 0], [1, 2]])
    @example([[1, 2, 3], [2, 4, 6], [0, 0, 0]])
    @example([[0, 1, 2], [0, 2, 4]])
    def test_matches_the_replaced_eliminations(self, rows):
        # small entries make many matrices rank-deficient or with zero rows
        pivots, det = geometry._bareiss(rows)
        assert pivots == pivot_columns(rows)
        if len(rows) == len(rows[0]):
            assert det == int_det(rows) == fraction_det(rows)
        else:
            assert det == 0


class TestFullConeDegenerate:
    def test_half_planes_are_not_full(self):
        e = np.eye(3)
        assert not is_full_cone(ConeSample(np.array([e[0], -e[0], e[1]])))
        assert not is_full_cone(ConeSample(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])))

    def test_line_is_not_full(self):
        assert not is_full_cone(ConeSample(np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])))

    def test_zero_generator_does_not_fill(self):
        for d in (1, 2, 3):
            gens = np.vstack([np.zeros(d), np.eye(d)])
            assert not is_full_cone(ConeSample(gens))
            assert count_k_faces(ConeSample(gens), 0) == 1
            full = np.vstack([np.zeros(d), np.eye(d), -np.eye(d)])
            assert is_full_cone(ConeSample(full))

    def test_cones_with_a_line_have_no_apex(self):
        e = np.eye(3)
        assert count_k_faces(ConeSample(np.array([e[0], -e[0], e[1]])), 0) == 0
        assert count_k_faces(ConeSample(np.array([e[0], -e[0]])), 0) == 0


class TestSubsetCap:
    def test_large_hull_query_fails_fast(self):
        pts = np.random.default_rng(0).standard_normal((500, 3))
        with pytest.raises(DomainError, match=r"n=500, d=3 needs 20833750 row subsets"):
            origin_in_convex_hull(pts)
        with pytest.raises(DomainError, match=r"n=500, d=3 needs 20833750 row subsets"):
            ConeSample(pts).in_general_position()

    def test_large_face_count_fails_fast(self):
        # 200 generators in R^5 have 2.6 billion row subsets of size <= 5
        cone = ConeSample(np.random.default_rng(0).standard_normal((200, 5)))
        with pytest.raises(DomainError, match=r"n=200, d=5 needs 2601668490 row subsets"):
            count_k_faces(cone, 4)

    def test_benchmark_shapes_are_far_below_the_cap(self):
        # the largest sampled shape is 10 points in R^3
        assert sum(math.comb(10, k) for k in (1, 2, 3)) * 1000 < MAX_SUBSETS
        assert len(geometry._minor_table(10, 3).facet_minor) == math.comb(10, 2)
