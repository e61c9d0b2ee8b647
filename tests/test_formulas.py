"""Exact expectation formulas: frozen values and the identity web."""

import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conic_walks as cw
import oracles
from conic_walks import formulas
from conic_walks import (
    FunctionalQuery,
    Model,
    absorption_probability,
    evaluate_query,
    expected_face_intrinsic_sum,
    expected_fk,
    expected_Lambda,
    expected_tangent_intrinsic_sum,
    expected_Uk,
    expected_vk,
    expected_Y,
    expected_Y_dual,
    expected_Z,
    face_probability,
    joint_absorption_probability,
    nonabsorption_probability,
    subspace_intersection_probability,
    wendel_probability,
)
from conic_walks.errors import DomainError

F = Fraction

A32 = Model("A", 3, 2)
A42 = Model("A", 4, 2)
A43 = Model("A", 4, 3)
B21 = Model("B", 2, 1)
B22 = Model("B", 2, 2)
B32 = Model("B", 3, 2)


def small_models(max_n=8, max_d=4):
    out = []
    for d in range(1, max_d + 1):
        for n in range(1, max_n + 1):
            if n >= d + 1:
                out.append(Model("A", n, d))
            if n >= d:
                out.append(Model("B", n, d))
    return out


class TestWendel:
    def test_four_points_three_dims(self):
        assert wendel_probability(4, 3) == F(7, 8)

    def test_saturated_dimension(self):
        for n in range(1, 7):
            assert wendel_probability(n, n) == 1
            assert wendel_probability(n, n + 3) == 1

    def test_two_points_on_a_line(self):
        assert wendel_probability(2, 1) == F(1, 2)

    def test_full_sum_up_to_three_past_the_point_count(self):
        for n in range(1, 9):
            for d in range(1, n + 4):
                want = F(sum(math.comb(n - 1, k) for k in range(d)), 2 ** (n - 1))
                assert wendel_probability(n, d) == want

    def test_huge_dimension_returns_at_once(self):
        start = time.perf_counter()
        assert wendel_probability(4, 10 ** 9) == 1
        assert time.perf_counter() - start < 0.1

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            wendel_probability(0, 3)
        with pytest.raises(DomainError):
            wendel_probability(3, 0)


class TestAbsorption:
    def test_two_step_bridge_never_spans_the_plane(self):
        assert nonabsorption_probability(A32) == 1

    def test_walk_on_the_line(self):
        assert nonabsorption_probability(B21) == F(3, 4)

    def test_four_step_planar_bridge(self):
        assert nonabsorption_probability(A42) == F(11, 12)

    def test_split_sums_to_one(self):
        for model in small_models():
            total = absorption_probability(model) + nonabsorption_probability(model)
            assert total == 1

    def test_simplicial_walk_never_fills(self):
        for d in range(1, 5):
            assert absorption_probability(Model("B", d, d)) == 0


class TestFaceCounts:
    def test_walk_examples(self):
        assert expected_fk(B32, 1) == F(23, 12)

    def test_bridge_example_matches_doubled_survival(self):
        # planar pointed cones have exactly two edges
        assert expected_fk(A42, 1) == F(11, 6)
        assert expected_fk(A42, 1) == 2 * nonabsorption_probability(A42)

    def test_simplicial_walk_counts_subsets(self):
        for d in range(1, 7):
            model = Model("B", d, d)
            for k in range(d):
                assert expected_fk(model, k) == cw.binomial(d, k)

    def test_apex_count_is_survival(self):
        for model in small_models():
            assert expected_fk(model, 0) == nonabsorption_probability(model)

    def test_doubled_edge_sums(self):
        for model in small_models():
            for k in range(1, model.d):
                assert 2 * expected_Y(model, k, 0) == expected_fk(model, k)


class TestSizeFunctionals:
    def test_bridge_Y_example(self):
        assert expected_Y(A43, 2, 1) == F(1, 2)

    def test_walk_Y_example(self):
        assert expected_Y(B32, 1, 0) == F(23, 24)

    def test_bridge_Z_example(self):
        assert expected_Z(A42, 0, 1) == F(5, 24)

    def test_Z_vanishes_at_top_index(self):
        for model in small_models():
            for j in range(model.d + 1):
                assert expected_Z(model, j, model.d) == 0

    def test_apex_Z_is_absorption_corrected_quermassintegral(self):
        for model in small_models():
            absorbed = absorption_probability(model)
            for k in range(model.d + 1):
                correction = absorbed if (model.d - k) % 2 == 1 and k < model.d else 0
                assert expected_Z(model, 0, k) == expected_Uk(model, k) - correction

    def test_index_hypotheses_enforced(self):
        with pytest.raises(DomainError):
            expected_Y(A42, 2, 2)  # needs l < m <= d-1
        with pytest.raises(DomainError):
            expected_Y(A42, 2, 0)  # m must stay below d
        with pytest.raises(DomainError):
            expected_Z(A42, 2, 1)  # needs j <= k


class TestQuermassintegrals:
    def test_conditioned_planar_bridge(self):
        assert expected_Uk(A42, 1, conditioned=True) == F(5, 22)

    def test_crofton_both_variants(self):
        for model in small_models():
            d = model.d
            for k in range(d + 1):
                for conditioned in (False, True):
                    total = sum(expected_vk(model, k + j, conditioned)
                                for j in range(1, d - k + 1, 2))
                    assert expected_Uk(model, k, conditioned) == total

    def test_top_index_vanishes(self):
        for model in small_models():
            assert expected_Uk(model, model.d) == 0
            assert expected_Uk(model, model.d, conditioned=True) == 0


class TestIntrinsicVolumes:
    def test_three_step_planar_bridge(self):
        assert [expected_vk(A32, k) for k in range(3)] == [F(1, 3), F(1, 2), F(1, 6)]

    def test_two_step_planar_walk(self):
        assert [expected_vk(B22, k) for k in range(3)] == [F(3, 8), F(1, 2), F(1, 8)]

    def test_closure_to_one(self):
        for model in small_models():
            for conditioned in (False, True):
                assert sum(expected_vk(model, k, conditioned)
                           for k in range(model.d + 1)) == 1

    def test_conditioned_is_ratio_below_top(self):
        survived = nonabsorption_probability(A42)
        for k in range(2):
            assert expected_vk(A42, k, True) == expected_vk(A42, k) / survived

    def test_conditioned_top_subtracts_absorption(self):
        for model in small_models():
            lhs = expected_vk(model, model.d, True) * nonabsorption_probability(model)
            assert lhs == expected_vk(model, model.d) - absorption_probability(model)


class TestFaceContents:
    def test_equals_top_face_sum(self):
        for model in small_models():
            for k in range(1, model.d):
                assert expected_Lambda(model, k) == expected_Y(model, k, k - 1)

    def test_bridge_example(self):
        assert expected_Lambda(A43, 2) == F(1, 2)

    def test_face_intrinsic_at_equal_indices(self):
        for model in small_models():
            for k in range(1, model.d):
                assert expected_face_intrinsic_sum(model, k, k) == expected_Lambda(model, k)

    def test_face_intrinsic_example(self):
        assert expected_face_intrinsic_sum(A42, 1, 0) == F(11, 12)

    def test_face_intrinsic_crofton(self):
        for model in small_models():
            for m in range(1, model.d):
                for l in range(m):
                    total = sum(expected_face_intrinsic_sum(model, m, l + j)
                                for j in range(1, m - l + 1, 2))
                    assert total == expected_Y(model, m, l)


class TestTangentSums:
    def test_planar_bridge_internal_angles(self):
        assert expected_tangent_intrinsic_sum(A32, 1, 1) == 1

    def test_walk_example(self):
        assert expected_tangent_intrinsic_sum(B22, 0, 1) == F(1, 2)

    def test_closure_to_face_counts(self):
        for model in small_models():
            for j in range(model.d):
                total = sum(expected_tangent_intrinsic_sum(model, j, k)
                            for k in range(j, model.d + 1))
                assert total == expected_fk(model, j)

    def test_top_equals_tangent_quermassintegral(self):
        for model in small_models():
            for j in range(model.d):
                assert expected_tangent_intrinsic_sum(model, j, model.d) == \
                    expected_Z(model, j, model.d - 1)

    def test_differencing_against_Z(self):
        for model in small_models():
            d = model.d
            for j in range(d):
                for k in range(j + 1, d - 1):
                    diff = expected_Z(model, j, k - 1) - expected_Z(model, j, k + 1)
                    assert expected_tangent_intrinsic_sum(model, j, k) == diff
                if j <= d - 2:
                    assert expected_tangent_intrinsic_sum(model, j, d - 1) == \
                        expected_Z(model, j, d - 2)


class TestDuality:
    def test_identity_against_primal(self):
        for model in small_models():
            d = model.d
            for m in range(1, d + 1):
                for l in range(m):
                    assert expected_Y_dual(model, m, l) == \
                        expected_fk(model, d - m) / 2 - expected_Z(model, d - m, d - l)

    def test_bridge_example(self):
        assert expected_Y_dual(A32, 2, 0) == F(1, 2)

    def test_dual_face_counts(self):
        for model in small_models():
            for m in range(1, model.d + 1):
                assert 2 * expected_Y_dual(model, m, 0) == expected_fk(model, model.d - m)


class TestFaceProbabilities:
    def test_simplicial_walk_all_faces(self):
        for d in range(2, 6):
            model = Model("B", d, d)
            assert face_probability(model, (1,)) == 1
            assert face_probability(model, tuple(range(1, d))) == 1

    def test_first_step_is_an_edge(self):
        assert face_probability(B32, (1,)) == F(3, 4)

    def test_in_and_out_sum_to_one(self):
        for model in small_models(max_n=7, max_d=4):
            import itertools
            for k in range(1, model.d):
                for idx in itertools.combinations(range(1, model.generator_count + 1), k):
                    p_in = face_probability(model, idx)
                    p_out = face_probability(model, idx, complement=True)
                    assert p_in + p_out == 1
                    assert 0 <= p_in <= 1

    def test_aggregates_to_face_counts(self):
        import itertools
        for model in small_models(max_n=7, max_d=4):
            for k in range(1, model.d):
                total = sum(face_probability(model, idx)
                            for idx in itertools.combinations(
                                range(1, model.generator_count + 1), k))
                assert total == expected_fk(model, k)

    def test_bad_indices_rejected(self):
        with pytest.raises(DomainError):
            face_probability(B32, (1, 2))  # k must stay below d
        with pytest.raises(DomainError):
            face_probability(B32, (0,))
        with pytest.raises(DomainError):
            face_probability(A42, (4,))  # bridge has n-1 partial sums
        with pytest.raises(DomainError):
            face_probability(Model("B", 5, 3), (2, 2))


class TestSubspaceIntersection:
    def test_full_space_always_meets(self):
        for model in small_models():
            assert subspace_intersection_probability(model, 0) == 1

    def test_walk_example(self):
        assert subspace_intersection_probability(B22, 1) == F(1, 4)

    def test_decomposes_into_apex_sum_and_absorption(self):
        for model in small_models():
            absorbed = absorption_probability(model)
            for k in range(model.d):
                assert subspace_intersection_probability(model, k) == \
                    2 * expected_Z(model, 0, k) + absorbed


class TestJointAbsorption:
    def test_single_blocks_reduce_to_absorption(self):
        for model in small_models():
            if model.is_bridge:
                assert joint_absorption_probability([], [model.n], model.d) == \
                    absorption_probability(model)
            else:
                assert joint_absorption_probability([model.n], [], model.d) == \
                    absorption_probability(model)

    def test_one_walk_step_plus_short_bridge(self):
        assert joint_absorption_probability([1], [2], 1) == F(1, 2)

    def test_complement(self):
        for walks, bridges, d in [((1, 2), (3,), 2), ((2,), (2, 2), 3), ((), (4,), 2)]:
            p = joint_absorption_probability(walks, bridges, d)
            q = joint_absorption_probability(walks, bridges, d, complement=True)
            assert p + q == 1

    def test_oracle_up_to_three_past_the_point_count(self):
        for walks, bridges in [((1,), (2,)), ((2,), (3, 2)), ((), (4,)), ((3, 1), ())]:
            points = sum(walks) + sum(b - 1 for b in bridges)
            for d in range(1, points + 4):
                for complement in (False, True):
                    got = joint_absorption_probability(walks, bridges, d, complement)
                    want = oracles.joint_absorption_probability(walks, bridges, d, complement)
                    assert got == want, (walks, bridges, d, complement)

    def test_huge_dimension_returns_at_once(self):
        for complement, want in ((False, 0), (True, 1)):
            start = time.perf_counter()
            assert joint_absorption_probability([1], [2], 10 ** 9, complement) == want
            assert time.perf_counter() - start < 0.1

    def test_rejects_bad_blocks(self):
        with pytest.raises(DomainError):
            joint_absorption_probability([], [], 2)
        with pytest.raises(DomainError):
            joint_absorption_probability([0], [], 2)
        with pytest.raises(DomainError):
            joint_absorption_probability([], [1], 2)


class TestConditioning:
    def test_plain_division_for_vanishing_functionals(self):
        for model in small_models():
            survived = nonabsorption_probability(model)
            for k in range(model.d):
                assert expected_fk(model, k, True) == expected_fk(model, k) / survived
            for k in range(1, model.d):
                assert expected_Lambda(model, k, True) == expected_Lambda(model, k) / survived
                assert expected_Y(model, k, 0, True) == expected_Y(model, k, 0) / survived
            for k in range(model.d + 1):
                assert expected_Z(model, 0, k, True) == expected_Z(model, 0, k) / survived

    def test_conditioned_flag_rejected_elsewhere(self):
        with pytest.raises(DomainError):
            FunctionalQuery("face_prob", B32, indices=(1,), conditioned=True)


class TestLargeN:
    def test_conditioned_edge_count_approaches_partition_limit(self):
        value = expected_fk(Model("A", 500, 3), 1, conditioned=True)
        assert abs(value / 6 - 1) <= F(1, 10)


class TestModelValidation:
    def test_bridge_needs_one_extra_increment(self):
        with pytest.raises(DomainError):
            Model("A", 2, 2)
        Model("A", 3, 2)

    def test_walk_needs_dimension_many(self):
        with pytest.raises(DomainError):
            Model("B", 1, 2)
        Model("B", 2, 2)

    def test_tag_checked(self):
        with pytest.raises(DomainError):
            Model("C", 3, 2)


class TestQueryLayer:
    def test_decimal_shadow(self):
        res = evaluate_query(FunctionalQuery("wendel", n=4, d=3))
        assert res.exact == F(7, 8)
        assert res.decimal == 0.875

    def test_missing_index_rejected(self):
        with pytest.raises(DomainError, match="requires 'k'"):
            FunctionalQuery("fk", B32)

    def test_unknown_functional_rejected(self):
        with pytest.raises(DomainError):
            FunctionalQuery("volume", B32)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_probability_ranges_and_expectations(data):
    d = data.draw(st.integers(1, 5))
    tag = data.draw(st.sampled_from(["A", "B"]))
    low = d + 1 if tag == "A" else d
    n = data.draw(st.integers(low, low + 7))
    model = Model(tag, n, d)
    for p in (absorption_probability(model), nonabsorption_probability(model)):
        assert 0 <= p <= 1
    k = data.draw(st.integers(0, d))
    assert 0 <= expected_vk(model, k) <= 1
    assert 0 <= expected_Uk(model, k) <= 1
    if k < d:
        assert expected_fk(model, k) >= 0
        assert 0 <= subspace_intersection_probability(model, k) <= 1


def oracle_grid_models():
    for d in range(1, 7):
        for n in list(range(1, 14)) + [40, 97]:
            for tag in "AB":
                if n >= d + (tag == "A"):
                    yield Model(tag, n, d)


def oracle_grid_calls(model, rng):
    """(name, args) of every public closed form over one model: every
    valid index, both conditioned variants, and up to 40 index tuples per
    face dimension for the face probability."""
    d, gens = model.d, model.generator_count
    both = (False, True)
    calls = [("absorption_probability", (model,)), ("nonabsorption_probability", (model,))]
    calls += [("expected_fk", (model, k, c)) for k in range(d) for c in both]
    calls += [(name, (model, k, c)) for name in ("expected_Uk", "expected_vk")
              for k in range(d + 1) for c in both]
    calls += [("expected_Lambda", (model, k, c)) for k in range(1, d) for c in both]
    calls += [("expected_Y", (model, m, l, c)) for m in range(d) for l in range(m) for c in both]
    calls += [("expected_Z", (model, j, k, c))
              for k in range(d + 1) for j in range(k + 1) for c in both]
    calls += [("expected_face_intrinsic_sum", (model, m, l))
              for m in range(d + 1) for l in range(m + 1)]
    calls += [("expected_tangent_intrinsic_sum", (model, j, k))
              for j in range(d) for k in range(j, d + 1)]
    calls += [("expected_Y_dual", (model, m, l)) for m in range(d + 1) for l in range(m)]
    calls += [("subspace_intersection_probability", (model, k)) for k in range(d)]
    for k in range(1, d):
        tuples = {tuple(sorted(rng.sample(range(1, gens + 1), k))) for _ in range(40)}
        calls += [("face_probability", (model, idx, c)) for idx in sorted(tuples) for c in both]
    return calls


def test_family_forms_match_twin_branch_oracle():
    # each closed form, written once over the family record, must equal the
    # separate bridge and walk branches it replaced, exactly
    rng = random.Random(4)
    checked = 0
    for model in oracle_grid_models():
        for name, args in oracle_grid_calls(model, rng):
            got = getattr(formulas, name)(*args)
            want = getattr(oracles, name)(*args)
            assert got == want, f"{name}{args}: {got} != {want}"
            checked += 1
    assert checked > 20_000


def edge_face_tuples(model):
    """Index tuples at the edges of the face block product: every gap 1,
    gaps 1 up to the last generator, a final block of length 1, and gaps 1
    followed by the last generator."""
    n, gens = model.n, model.generator_count
    out = set()
    for k in range(1, model.d):
        out.add(tuple(range(1, k + 1)))
        out.add(tuple(range(gens - k + 1, gens + 1)))
        out.add(tuple(range(n - k, n)))
        out.add(tuple(range(1, k)) + (gens,))
    return sorted(out)


def edge_grid_models():
    """Every model at its smallest legal n (walk n = d, bridge n = d+1) and
    one above it for d <= 10, and n = 300 for a spread of d."""
    for d in range(1, 11):
        for tag in "AB":
            low = d + (tag == "A")
            for n in (low, low + 1):
                yield Model(tag, n, d)
    for d in (1, 2, 3, 5, 10):
        for tag in "AB":
            yield Model(tag, 300, d)


JOINT_BLOCKS = [
    ((1,), ()), ((), (2,)), ((1,), (2,)), ((1, 1), (2, 2)), ((1,) * 5, ()), ((), (2,) * 5),
    ((1, 4), (2,)), ((3,), (2, 6)), ((7,), ()), ((), (9,)), ((100, 50), (80, 70)),
]


def test_low_order_forms_match_full_triangle_oracle_at_the_edges():
    # the truncated root products and the P(1)/P(-1) tails must give the
    # exact value the full-row oracle gives where the products are
    # degenerate or long: smallest legal n, n = 300, all-1 gaps, a final
    # block of length 1, the last generator, walks of length 1 and bridges
    # of length 2, both complements
    rng = random.Random(5)
    checked = 0
    for model in edge_grid_models():
        calls = oracle_grid_calls(model, rng)
        if model.n == 300:  # the oracle's full block polynomials are slow here
            calls = [c for c in calls if c[0] != "face_probability"]
        calls += [("face_probability", (model, idx, c))
                  for idx in edge_face_tuples(model) for c in (False, True)]
        for name, args in calls:
            got = getattr(formulas, name)(*args)
            want = getattr(oracles, name)(*args)
            assert got == want, f"{name}{args}: {got} != {want}"
            checked += 1
    for walks, bridges in JOINT_BLOCKS:
        for d in range(1, 8):
            for complement in (False, True):
                got = joint_absorption_probability(walks, bridges, d, complement)
                want = oracles.joint_absorption_probability(walks, bridges, d, complement)
                assert got == want, f"joint {walks} {bridges} d={d} {complement}: {got} != {want}"
                checked += 1
    assert checked > 10_000


def test_cold_tables_build_no_first_kind_triangle():
    t = cw.StirlingTables()
    for tag in "AB":
        model = Model(tag, 300, 6)
        expected_fk(model, 2, True, t)
        expected_vk(model, 6, False, t)
        face_probability(model, (1, 2, 299), True, t)
    joint_absorption_probability((1, 40), (2, 60), 5, tables=t)
    assert len(t._rows["first"]) == 1 and len(t._rows["first_B"]) == 1
