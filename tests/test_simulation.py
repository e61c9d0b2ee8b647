"""Samplers, estimator plumbing, and the verification harness."""

import math

import numpy as np
import pytest

from conic_walks import geometry, simulation
from conic_walks.errors import DomainError
from conic_walks.formulas import FunctionalQuery, Model
from conic_walks.geometry import count_k_faces, is_full_cone
from conic_walks.simulation import (
    DistributionSpec,
    RunConfig,
    _SampleStreams,
    estimate,
    sample_bridge,
    sample_increments,
    sample_walk,
)
from conic_walks.verify import (
    Gate,
    _gate_seed,
    corrupted_tables,
    default_gates,
    identity_checks,
    report_to_json,
    run_gate,
    verify_suite,
)

from oracles import FACE_LOOP_MEASURES, face_loop_queries, loop_chunk_stats, loop_draw_sample

GAUSS2 = DistributionSpec("gaussian_iid", 2)


def rng_for(seed):
    return np.random.Generator(np.random.Philox(key=seed))


class TestDistributions:
    def test_families_draw_expected_shapes(self):
        rng = rng_for(0)
        for family in ("gaussian_iid", "heavy_tail_iid", "scaled_gaussian_exchangeable"):
            dist = DistributionSpec(family, 3)
            steps = sample_increments(dist, 5, rng)
            assert steps.shape == (5, 3)
            assert np.all(np.isfinite(steps))

    def test_unknown_family_rejected(self):
        with pytest.raises(DomainError):
            DistributionSpec("uniform_ball", 2)

    @pytest.mark.parametrize("build, named", [
        (lambda: DistributionSpec("gaussian_iid", 2.0), "d"),
        (lambda: sample_increments(GAUSS2, 2.5, rng_for(0)), "n"),
        (lambda: RunConfig(query=FunctionalQuery("fk", Model("B", 3, 2), k=1),
                           dist=GAUSS2, samples=100.5, seed=0), "samples"),
        (lambda: RunConfig(query=FunctionalQuery("fk", Model("B", 3, 2), k=1),
                           dist=GAUSS2, samples=100, seed=0.5), "seed"),
        (lambda: RunConfig(query=FunctionalQuery("fk", Model("B", 3, 2), k=1),
                           dist=GAUSS2, samples=100, seed=0, workers=2.0), "workers"),
    ])
    def test_non_integer_arguments_are_rejected(self, build, named):
        with pytest.raises(DomainError, match=f"^{named} must be an integer"):
            build()

    def test_heavy_tails_are_heavy(self):
        rng = rng_for(1)
        steps = sample_increments(DistributionSpec("heavy_tail_iid", 1), 20_000, rng)
        assert np.abs(steps).max() > 100.0  # Cauchy draws stray far out


class TestSamplers:
    def test_walk_rows_are_partial_sums(self):
        rng = rng_for(2)
        cone = sample_walk(GAUSS2, 5, rng)
        assert cone.generators.shape == (5, 2)

    def test_bridge_centering_telescopes(self):
        rng = rng_for(3)
        for _ in range(200):
            dist = DistributionSpec("heavy_tail_iid", 2)
            steps = sample_increments(dist, 6, rng)
            centered = steps - steps.mean(axis=0)
            assert np.linalg.norm(centered.sum(axis=0)) <= 1e-10 * max(
                1.0, np.abs(centered).max())

    def test_bridge_generator_count(self):
        rng = rng_for(4)
        cone = sample_bridge(GAUSS2, 4, rng)
        assert cone.generators.shape == (3, 2)

    def test_three_step_planar_bridge_never_degenerate(self):
        rng = rng_for(5)
        for _ in range(500):
            cone = sample_bridge(GAUSS2, 3, rng)
            assert not is_full_cone(cone)

    def test_square_walk_is_simplicial(self):
        rng = rng_for(6)
        dist = DistributionSpec("gaussian_iid", 3)
        for _ in range(200):
            cone = sample_walk(dist, 3, rng)
            assert not is_full_cone(cone)
            assert count_k_faces(cone, 1) == 3

    def test_samples_respect_general_position(self):
        rng = rng_for(7)
        for _ in range(200):
            assert sample_walk(GAUSS2, 4, rng).in_general_position()


class TestSampleStreams:
    def test_streams_match_fresh_construction(self):
        streams = _SampleStreams(99)
        for idx in (0, 1, 17, 54321):
            expected = np.random.Generator(
                np.random.Philox(key=np.array([99, 0], dtype=np.uint64),
                                 counter=np.array([0, 0, 0, idx], dtype=np.uint64))
            ).standard_normal(6)
            got = streams.at(idx).standard_normal(6)
            assert np.array_equal(expected, got)

    def test_streams_are_disjoint(self):
        streams = _SampleStreams(5)
        a = streams.at(0).standard_normal(4)
        b = streams.at(1).standard_normal(4)
        assert not np.allclose(a, b)


class TestEstimate:
    def test_reproducible_and_worker_invariant(self):
        query = FunctionalQuery("nonabsorption", Model("A", 4, 2))
        base = RunConfig(query=query, dist=GAUSS2, samples=6000, seed=42)
        first = estimate(base)
        again = estimate(base)
        parallel = estimate(RunConfig(query=query, dist=GAUSS2, samples=6000,
                                      seed=42, workers=3))
        assert first == again
        assert first == parallel

    def test_seed_changes_estimate(self):
        query = FunctionalQuery("nonabsorption", Model("A", 4, 2))
        one = estimate(RunConfig(query=query, dist=GAUSS2, samples=4000, seed=1))
        two = estimate(RunConfig(query=query, dist=GAUSS2, samples=4000, seed=2))
        assert one.mean != two.mean

    def test_walk_on_line_nonabsorption(self):
        dist = DistributionSpec("gaussian_iid", 1)
        query = FunctionalQuery("nonabsorption", Model("B", 2, 1))
        est = estimate(RunConfig(query=query, dist=dist, samples=20_000, seed=9))
        assert est.exact_ref == pytest.approx(0.75)
        assert abs(est.z) <= 4

    def test_face_histogram_gate(self):
        query = FunctionalQuery("vk", Model("A", 3, 2), k=1)
        est = estimate(RunConfig(query=query, dist=GAUSS2, samples=20_000, seed=8))
        assert abs(est.z) <= 4

    def test_conditioned_gate(self):
        query = FunctionalQuery("Uk", Model("A", 4, 2), k=1, conditioned=True)
        est = estimate(RunConfig(query=query, dist=GAUSS2, samples=15_000, seed=12))
        assert float(est.exact_ref) == pytest.approx(5 / 22)
        assert abs(est.z) <= 4

    def test_joint_absorption_gate(self):
        dist = DistributionSpec("gaussian_iid", 1)
        query = FunctionalQuery("joint_absorption", walk_lengths=(1,),
                                bridge_lengths=(2,), d=1)
        est = estimate(RunConfig(query=query, dist=dist, samples=20_000, seed=13))
        assert float(est.exact_ref) == 0.5
        assert abs(est.z) <= 4

    def test_deterministic_functional_has_zero_stderr(self):
        # a three-step planar bridge always survives
        query = FunctionalQuery("nonabsorption", Model("A", 3, 2))
        est = estimate(RunConfig(query=query, dist=GAUSS2, samples=2000, seed=3))
        assert est.mean == 1.0
        assert est.stderr == 0.0
        assert est.z is None

    def test_mean_estimates_carry_exact_reference(self):
        query = FunctionalQuery("fk", Model("B", 3, 2), k=1)
        est = estimate(RunConfig(query=query, dist=GAUSS2, samples=3000, seed=4))
        assert est.exact_ref is not None
        assert est.samples == 3000
        assert est.rejected >= 0

    def test_unsupported_functional_rejected(self):
        with pytest.raises(DomainError):
            estimate(RunConfig(query=FunctionalQuery("wendel", n=4, d=3),
                               dist=DistributionSpec("gaussian_iid", 3),
                               samples=100, seed=0))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DomainError):
            RunConfig(query=FunctionalQuery("fk", Model("B", 3, 3), k=1),
                      dist=GAUSS2, samples=100, seed=0)


class TestDistributionFreeness:
    @pytest.mark.parametrize("family", ["heavy_tail_iid", "scaled_gaussian_exchangeable"])
    def test_edge_count_gate_under_other_laws(self, family):
        dist = DistributionSpec(family, 2)
        query = FunctionalQuery("fk", Model("B", 3, 2), k=1)
        est = estimate(RunConfig(query=query, dist=dist, samples=15_000, seed=21))
        assert abs(est.z) <= 4


class TestVerifySuite:
    def test_identities_all_pass(self):
        assert all(c.status == "pass" for c in identity_checks())

    def test_tampering_is_caught(self):
        tampered = identity_checks(tables=corrupted_tables())
        assert any(c.status == "fail" for c in tampered)

    def test_tampering_reaches_the_closed_forms(self):
        tampered = identity_checks(tables=corrupted_tables())
        failed = {c.name for c in tampered if c.status == "fail"}
        assert "cross-formula identities" in failed

    def test_small_budget_skips_mc(self):
        report = verify_suite(budget=100, seed=5)
        assert report["summary"]["overall"] == "pass"
        assert report["summary"]["mc_run"] == 0
        assert all(c["status"] == "skipped" for c in report["mc_checks"])

    @pytest.mark.parametrize("kwargs", [
        {"budget": 100.5}, {"budget": 100, "seed": 0.5}, {"budget": 100, "workers": 0},
        {"budget": 100.5, "seed": 0.5, "workers": 0}, {"budget": -3}])
    def test_bad_arguments_are_rejected_before_anything_runs(self, kwargs):
        with pytest.raises(DomainError):
            verify_suite(**kwargs)

    def test_small_budget_reports_are_byte_identical(self):
        a = report_to_json(verify_suite(budget=100, seed=5))
        b = report_to_json(verify_suite(budget=100, seed=5))
        assert a == b

    def test_tamper_run_fails(self):
        report = verify_suite(budget=100, seed=5, tamper=True)
        assert report["summary"]["overall"] == "fail"

    def test_single_gate_passes(self):
        gate = default_gates()[1]  # walk on the line, cheapest gate
        result = run_gate(gate, "gaussian_iid", 15_000, seed=3)
        assert result["status"] == "pass"
        assert result["exact"]["num"] == "3"

    def test_long_exact_values_serialize(self):
        # the denominator of this exact value has about 18,000 digits, past
        # the interpreter's limit on int-to-str conversion
        gate = Gate("big", FunctionalQuery("nonabsorption", Model("B", 9000, 1)))
        result = run_gate(gate, "gaussian_iid", 4, 0)
        exact = result["exact"]
        assert len(exact["den"]) > 4300
        assert exact["num"].isdigit() and exact["den"].isdigit()


def count_draws(monkeypatch):
    """Record the length of every increment draw."""
    draws = []
    increments = simulation.sample_increments

    def drawing(dist, n, rng):
        draws.append(n)
        return increments(dist, n, rng)

    monkeypatch.setattr(simulation, "sample_increments", drawing)
    return draws


def zero_first_draws(monkeypatch, chosen):
    """Make the first increment draw after positioning the stream of each
    sample in ``chosen`` all zeros: a cone not in general position, which
    the sample must reject and draw again."""
    current = {"index": None}
    at = simulation._SampleStreams.at
    increments = simulation.sample_increments

    def positioned(self, index):
        current["index"] = index
        return at(self, index)

    def drawing(dist, n, rng):
        steps = increments(dist, n, rng)
        if current["index"] in chosen:
            current["index"] = None
            return np.zeros_like(steps)
        return steps

    monkeypatch.setattr(simulation._SampleStreams, "at", positioned)
    monkeypatch.setattr(simulation, "sample_increments", drawing)


class TestConditionedFullConeTest:
    @pytest.mark.parametrize("query", [
        FunctionalQuery("Uk", Model("A", 4, 2), k=1, conditioned=True),
        FunctionalQuery("fk", Model("B", 4, 2), k=0, conditioned=True),
        FunctionalQuery("Z", Model("A", 4, 2), j=0, k=1, conditioned=True),
    ])
    def test_runs_once_per_draw(self, query, monkeypatch):
        # the chunk takes one full-cone verdict per cone, and a replayed
        # sample one per draw; the measurement reads the chunk's verdicts,
        # so it never tests an accepted cone again
        decided = []
        full_cones = geometry._full_cones

        def counting(rec):
            decided.append(len(rec.signs))
            return full_cones(rec)

        monkeypatch.setattr(geometry, "_full_cones", counting)
        draws = count_draws(monkeypatch)
        samples = 64
        est = estimate(RunConfig(query=query, dist=GAUSS2, samples=samples, seed=3))
        assert est.rejected == 0
        assert decided[0] == samples
        assert len(draws) > samples  # some full cones were conditioned away
        assert sum(decided) == len(draws)


class TestSharedMinorTable:
    @pytest.mark.parametrize("gate", ["f1/A n=4 d=2", "Y m=2 l=1/B n=5 d=3"])
    def test_one_minor_table_per_draw(self, gate, monkeypatch):
        # the general-position check and every verdict on the chunk read one
        # sign record, computed in one call for the whole chunk; the Y
        # gate's 1-d Haar projections take the sign test
        calls = []
        signs = geometry._minor_signs

        def counting(pts, table):
            calls.append(pts.shape)
            return signs(pts, table)

        monkeypatch.setattr(geometry, "_minor_signs", counting)
        query = next(g.query for g in default_gates() if g.name == gate)
        dist = DistributionSpec("gaussian_iid", query.dimension)
        est = estimate(RunConfig(query=query, dist=dist, samples=64, seed=3))
        assert est.rejected == 0
        assert calls == [(64, query.model.generator_count, query.dimension)]

    def test_replayed_draws_compute_their_minors_once(self, monkeypatch):
        # a sample whose first draw is rejected is replayed alone: its two
        # draws take one sign record each, after the chunk's one
        calls = []
        signs = geometry._minor_signs

        def counting(pts, table):
            calls.append(pts.shape)
            return signs(pts, table)

        monkeypatch.setattr(geometry, "_minor_signs", counting)
        zero_first_draws(monkeypatch, {5, 40})
        query = FunctionalQuery("fk", Model("A", 4, 2), k=1)
        est = estimate(RunConfig(query=query, dist=GAUSS2, samples=64, seed=3))
        assert est.rejected == 2
        assert calls == [(64, 3, 2)] + [(1, 3, 2)] * 4


class TestHaarHits:
    @pytest.mark.parametrize("query", [
        FunctionalQuery("Uk", Model("B", 6, 4), k=2, conditioned=True),
        FunctionalQuery("Y", Model("A", 7, 4), m=3, l=2),
    ])
    def test_no_orthonormal_basis(self, query, monkeypatch):
        # a hit projects onto the Gaussian matrix itself, even for k >= 2
        def qr(*args, **kwargs):
            raise AssertionError("a Haar hit orthonormalized its subspace")

        monkeypatch.setattr(np.linalg, "qr", qr)
        dist = DistributionSpec("gaussian_iid", 4)
        est = estimate(RunConfig(query=query, dist=dist, samples=64, seed=3))
        assert est.samples == 64


@pytest.mark.slow
class TestFaceLoopOracle:
    @pytest.mark.parametrize("family", simulation.FAMILIES)
    def test_rows_match_the_replaced_face_loops(self, family):
        # every face and tangent row of the batched chunk against the
        # per-functional loop it replaced, at zero tolerance, sample by
        # sample on the same streams
        samples = 64
        for d in (1, 2, 3, 4):
            dist = DistributionSpec(family, d)
            for model in (Model("A", d + 2, d), Model("B", d + 2, d)):
                queries = face_loop_queries(model)
                for conditioned in (False, True):
                    draw = FunctionalQuery("fk", model, k=0, conditioned=conditioned)
                    streams = _SampleStreams(17)
                    drawn = []
                    for i in range(samples):
                        rng = streams.at(i)
                        cone, _ = loop_draw_sample(draw, dist, rng)
                        drawn.append((cone, rng.bit_generator.state))
                    for q in (q for q in queries if q.conditioned == conditioned):
                        got, _ = simulation._Sampler(q, dist).values(streams, range(samples))
                        for i, (cone, state) in enumerate(drawn):
                            rng = streams.at(i)
                            rng.bit_generator.state = state
                            want = FACE_LOOP_MEASURES[q.functional](q, cone, rng)
                            assert got[i] == want, (family, q, i)


def oracle_queries(model):
    """Every legal query of every measured functional on a model,
    conditioned variants included, with two face_prob index tuples."""
    out = face_loop_queries(model) + [FunctionalQuery("absorption", model),
                                      FunctionalQuery("nonabsorption", model)]
    if model.d >= 2:
        out += [FunctionalQuery("face_prob", model, indices=(1,)),
                FunctionalQuery("face_prob", model, indices=tuple(range(2, model.d + 1)))]
    return out


class TestChunkOracle:
    @pytest.mark.slow
    @pytest.mark.parametrize("family", simulation.FAMILIES)
    def test_chunks_match_the_per_sample_loop(self, family):
        # every measurement, on walks and bridges with d = 1..4 and
        # n = d+1, d+2, two seeds, chunks not starting at sample 0
        for d in (1, 2, 3, 4):
            dist = DistributionSpec(family, d)
            queries = [FunctionalQuery("joint_absorption", walk_lengths=(2,),
                                       bridge_lengths=(3,), d=d)]
            for n in (d + 1, d + 2):
                for model in (Model("A", n, d), Model("B", n, d)):
                    queries += oracle_queries(model)
            for q in queries:
                for seed in (1, 77):
                    args = (q, dist, seed, 5, 16)
                    assert simulation._chunk_stats(args) == loop_chunk_stats(args), (q, seed)

    @pytest.mark.parametrize("query", [
        FunctionalQuery("fk", Model("A", 30, 3), k=2, conditioned=True),
        FunctionalQuery("Y", Model("B", 24, 3), m=2, l=1),
    ])
    def test_large_cones_are_decided_in_several_batches(self, query):
        # a chunk whose minor tables would be large is split into batches
        dist = DistributionSpec("gaussian_iid", 3)
        assert simulation._Sampler(query, dist).batch < 40
        args = (query, dist, 2, 3, 40)
        assert simulation._chunk_stats(args) == loop_chunk_stats(args)

    @pytest.mark.parametrize("query", [
        FunctionalQuery("fk", Model("A", 5, 3), k=1, conditioned=True),
        FunctionalQuery("Y", Model("B", 4, 3), m=2, l=1),
        FunctionalQuery("Uk", Model("B", 5, 3), k=2, conditioned=True),
        FunctionalQuery("tangent_intrinsic", Model("A", 4, 2), j=1, k=2),
        FunctionalQuery("joint_absorption", walk_lengths=(2,), bridge_lengths=(3,), d=2),
    ])
    def test_replayed_samples_match_the_per_sample_loop(self, query, monkeypatch):
        # the chosen samples reject their first draw, so they are replayed
        # alone from their streams; the chunk stays bit-identical
        zero_first_draws(monkeypatch, {0, 7, 8, 30})
        dist = DistributionSpec("gaussian_iid", query.dimension)
        args = (query, dist, 11, 0, 32)
        got = simulation._chunk_stats(args)
        assert got == loop_chunk_stats(args)
        assert got[2] == 4


class TestProjectionOnFullCones:
    @pytest.mark.parametrize("family, index", [("gaussian_iid", 39647),
                                               ("scaled_gaussian_exchangeable", 25876)])
    def test_v2_gate_draws_that_aborted_the_nnls(self, family, index):
        # both draws are full cones on which the active-set NNLS ran out its
        # iteration cap; the support rule finds g inside, so v_2 scores 0
        seed = 20_250_810
        gate = next(g for g in default_gates() if g.name == "v2/A n=6 d=4")
        dist = DistributionSpec(family, 4)
        streams = _SampleStreams(_gate_seed(seed, gate.name, family))
        values, _ = simulation._Sampler(gate.query, dist).values(streams, range(index, index + 1))
        assert values[0] == 0.0
        rng = streams.at(index)
        cone, _ = loop_draw_sample(gate.query, dist, rng)
        assert is_full_cone(cone)
        g = rng.standard_normal(4)
        assert geometry.project_onto_cone(g, cone).face_dim == 4
        assert len(geometry._projection_support(cone.generators, g)[0]) == 4
