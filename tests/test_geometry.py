"""Cone geometry predicates against brute-force and library oracles."""

import math
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
    brute_force_is_face,
    fraction_det,
    fraction_origin_in_hull,
    fraction_positively_spans,
    int_det,
    lp_origin_in_hull,
    pivot_columns,
    projection_is_face,
    random_cone_generators,
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


# One list of Gaussian increments per model, drawn in this order from one
# seeded generator.
_ORBIT_RNG = np.random.default_rng(20250810)
ORBIT_STEPS = {model: _ORBIT_RNG.standard_normal((model.n, model.d)) for model in (
    Model("A", 4, 2), Model("A", 5, 3), Model("B", 3, 2), Model("B", 4, 3), Model("A", 6, 3))}


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


def orbit_chunk(model):
    """The whole orbit of a model's increments as one chunk of cones."""
    gens = np.stack([cone.generators for cone in orbit_cones(model, ORBIT_STEPS[model])])
    rec = geometry._SignRecord.of(gens)
    return simulation._Chunk(gens, rec, geometry._full_cones(rec), np.empty((len(gens), 0)))


class TestOrbitAverages:
    """A uniformly random permutation of fixed increments is exchangeable, and
    a uniformly random signed permutation is also sign-symmetric; the closed
    forms need nothing more.  So over an orbit in general position every
    expectation is a finite average, and it equals its closed form exactly."""

    @pytest.mark.parametrize("model", list(ORBIT_STEPS), ids=lambda m: f"{m.tag}-n{m.n}-d{m.d}")
    def test_face_counts_absorption_and_face_probabilities(self, model):
        cones = orbit_cones(model, ORBIT_STEPS[model])
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

    @pytest.mark.parametrize("model", list(ORBIT_STEPS), ids=lambda m: f"{m.tag}-n{m.n}-d{m.d}")
    def test_whole_orbit_as_one_batch(self, model):
        # the batched sign record and the simulator's counting measurements
        # decide the whole orbit at once
        chunk = orbit_chunk(model)
        assert chunk.rec.general.all()

        def average(query, c=chunk):
            return Fraction(simulation.MEASURES[query.functional].value(query, c).sum()) \
                / len(c.gens)

        for k in range(model.d):
            assert average(FunctionalQuery("fk", model, k=k)) == expected_fk(model, k)
        assert average(FunctionalQuery("absorption", model)) == absorption_probability(model)
        for size in range(1, model.d):
            for idx in combinations(range(1, model.generator_count + 1), size):
                assert average(FunctionalQuery("face_prob", model, indices=idx)) == \
                    face_probability(model, idx)
        pointed = chunk.take(~chunk.full)
        for k in range(model.d):
            assert average(FunctionalQuery("fk", model, k=k, conditioned=True), pointed) == \
                expected_fk(model, k, conditioned=True)

    def test_conditioned_edge_count_of_a_bridge_orbit(self):
        # the orbit members that are not full, as the conditioned simulator
        # keeps them
        model = Model("A", 6, 3)
        chunk = orbit_chunk(model)
        pointed = chunk.take(~chunk.full)
        q = FunctionalQuery("fk", model, k=1, conditioned=True)
        edges = simulation.MEASURES["fk"].value(q, pointed)
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


def filter_signs(pts):
    n, d = pts.shape
    signs, unsure = geometry._filtered_signs(pts[None], geometry._minor_table(n, d))
    return signs[0], unsure[0]


def minor_signs(pts):
    n, d = pts.shape
    return geometry._minor_signs(pts[None], geometry._minor_table(n, d))[0].tolist()


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
        x = np.random.default_rng(5).standard_normal((128, 9, 3))
        table = geometry._minor_table(9, 3)
        geometry._minor_estimates(x, table)
        tracemalloc.start()
        try:
            est = geometry._minor_estimates(x, table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert est.shape == (128, 84)
        assert peak < 6 * est.nbytes


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
