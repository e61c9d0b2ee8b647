"""Samplers, estimator plumbing, and the verification harness."""

import concurrent.futures
import functools
import hashlib
import io
import itertools
import math
import multiprocessing
import re
from fractions import Fraction

import numpy as np
import pytest

from conic_walks import combinatorics, geometry, simulation, verify
from conic_walks.combinatorics import StirlingTables
from conic_walks.cli import EXIT_NUMERIC, EXIT_USAGE, main
from conic_walks.errors import DomainError, SamplingError
from conic_walks.formulas import FunctionalQuery, Model
from conic_walks.geometry import ConeSample, count_k_faces, is_full_cone
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
    MIN_MC_BUDGET,
    Gate,
    _gate_seed,
    corrupted_tables,
    default_gates,
    identity_checks,
    measurement_gates,
    report_to_json,
    run_gate,
    verify_suite,
    z_summary,
)

import oracles
from oracles import (
    chunk_draws,
    loop_chunk_stats,
    loop_draw_sample,
    measured_queries,
)

GAUSS2 = DistributionSpec("gaussian_iid", 2)


def rng_for(seed):
    return np.random.Generator(np.random.Philox(key=seed))


class InProcessPool:
    """A stand-in for a process pool: it maps in this process and starts
    no process."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables, chunksize=1):
        return map(fn, *iterables)


def record_pools(monkeypatch, pool=InProcessPool):
    """Open every process pool of the package as ``pool`` and return the
    worker counts of the pools opened, in order.  The package imports the
    executor from concurrent.futures where it opens a pool, so that is
    where it is replaced."""
    opened = []

    class Recorder(pool):
        def __init__(self, max_workers):
            opened.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
    return opened


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

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_seeds_outside_the_key_word_are_rejected(self, seed):
        # a seed is the first word of the Philox key, so -1 and 2^64 would
        # alias 2^64 - 1 and 0
        query = FunctionalQuery("fk", Model("B", 3, 2), k=1)
        refused = re.escape(f"seed must be in [0, 2**64), got {seed}")
        with pytest.raises(DomainError, match=refused):
            RunConfig(query=query, dist=GAUSS2, samples=100, seed=seed)
        with pytest.raises(DomainError, match=refused):
            verify_suite(budget=0, seed=seed)

    def test_the_largest_seed_is_accepted(self):
        query = FunctionalQuery("nonabsorption", Model("A", 4, 2))
        runs = [estimate(RunConfig(query=query, dist=GAUSS2, samples=64, seed=seed))
                for seed in (0, 2 ** 64 - 1)]
        assert runs[0].mean != runs[1].mean

    @pytest.mark.parametrize("family", simulation.FAMILIES)
    def test_increments_match_numpys_own_distributions(self, family):
        # runs of 20,000 normals or more, so numpy's ziggurat leaves its
        # fast path (more words read than normals) and takes its tail
        # (|z| past the base strip's edge R) in every run
        R = 3.6541528853610088
        for d in (1, 2, 3, 4):
            dist = DistributionSpec(family, d)
            n = 20_000 // d
            rng = rng_for(d)
            z = rng.standard_normal(simulation._word_count(dist, n))
            assert position(rng)[2] > z.size and (np.abs(z) > R).any()
            got, want = rng_for(d), rng_for(d)
            assert sample_increments(dist, n, got).tobytes() == \
                oracles.numpy_increments(dist, n, want).tobytes()
            assert position(got) == position(want)

    @pytest.mark.parametrize("family", simulation.FAMILIES)
    def test_every_law_is_made_of_standard_normals(self, family, monkeypatch):
        class NormalsOnly(np.random.Generator):
            def standard_cauchy(self, *args, **kwargs):
                raise AssertionError("drew numpy's Cauchy")

            def lognormal(self, *args, **kwargs):
                raise AssertionError("drew numpy's log-normal")

        monkeypatch.setattr(np.random, "Generator", NormalsOnly)
        dist = DistributionSpec(family, 2)
        rng = NormalsOnly(np.random.Philox(key=5))
        assert sample_walk(dist, 4, rng).generators.shape == (4, 2)
        assert sample_bridge(dist, 4, rng).generators.shape == (3, 2)
        # conditioned, so some samples draw again in later rounds
        query = FunctionalQuery("Uk", Model("A", 4, 2), k=1, conditioned=True)
        assert estimate(RunConfig(query=query, dist=dist, samples=64, seed=3)).samples == 64

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


def position(rng):
    """(counter word 3, counter word 2, word) of a Philox generator or bit
    generator: for stream (0, 0, t, s), its chunk start s, its draw t and
    the word it stands before."""
    state = getattr(rng, "bit_generator", rng).state
    counter = state["state"]["counter"]
    return int(counter[3]), int(counter[2]), 4 * int(counter[0]) - 4 + state["buffer_pos"]


def high(bit_generator):
    """The three high words of a Philox bit generator's 256-bit counter."""
    return tuple(int(w) for w in bit_generator.state["state"]["counter"][1:])


def built_philoxes(monkeypatch):
    """Every Philox bit generator built from now on, in order."""
    built = []
    real = np.random.Philox

    def recording(*args, **kwargs):
        built.append(real(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(np.random, "Philox", recording)
    return built


def philox(seed, counter):
    """numpy's generator over the Philox stream with key (seed, 0) and this counter."""
    return np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64),
                                                counter=np.array(counter, dtype=np.uint64)))


KEY = 987654321


def samples_first(steps):
    """A round's increments (S, n_steps, d), from the sampler's (d, n_steps, S)."""
    return steps.transpose(2, 1, 0)


def draws_alone(sampler, samples, draw):
    """Draw ``draw`` of ``sampler`` on the chunk of ``samples`` one sample at
    a time through numpy's own distributions: each sample's increments, from
    the generator ``chunk_draws`` gives that draw."""
    spec = sampler.draw
    steps = np.empty((len(samples), spec.n_steps, spec.dist.d))
    draws = chunk_draws(KEY, samples, spec.n_words)
    for s, rngs in enumerate(draws):
        rng = next(itertools.islice(rngs, draw, None))
        steps[s] = oracles.numpy_draw(spec.dist, [n for n, _ in spec.blocks], rng)
    return steps


class TestBatchedDraws:
    @pytest.mark.parametrize("index", [0, 1, 2 ** 63, 2 ** 64 - 1])
    def test_philox_words_match_numpy(self, index, monkeypatch):
        # 13 words span four blocks; draw t of the chunk at ``index`` reads
        # numpy's Philox words of the stream (0, 0, t, index) from its first
        # one
        built = built_philoxes(monkeypatch)
        streams = _SampleStreams(KEY, index)
        for draw in (0, 1, 2 ** 64 - 1):
            streams.normals(np.arange(0, dtype=np.uint64), 0, draw)  # builds it, reads nothing
            bit = built[-1]
            assert position(bit) == (index, draw, 0)
            want = philox(KEY, [0, 0, draw, index]).bit_generator.random_raw(13)
            assert np.array_equal(bit.random_raw(13), want)

    @pytest.mark.parametrize("family", simulation.FAMILIES)
    def test_first_round_matches_numpy_for_every_block_shape(self, family):
        # every measured functional's increment blocks on walks and bridges
        # in d = 1..4, and a joint draw: the batched draws 0 and 3 have the
        # bytes of numpy's own distributions drawn sample by sample
        samples = range(3, 83)
        for d in (1, 2, 3, 4):
            dist = DistributionSpec(family, d)
            seen = set()
            queries = [FunctionalQuery("joint_absorption", walk_lengths=(2,),
                                       bridge_lengths=(3,), d=d)]
            for model in (Model("A", d + 2, d), Model("B", d + 1, d)):
                queries += oracle_queries(model)
            for q in queries:
                sampler = simulation._Sampler(q, dist)
                if sampler.draw.blocks in seen:
                    continue
                seen.add(sampler.draw.blocks)
                for draw in (0, 3):
                    steps = samples_first(sampler.draws(
                        _SampleStreams(KEY, samples.start), np.array(samples, dtype=np.uint64),
                        draw))
                    want = draws_alone(sampler, samples, draw)
                    # the same bytes, so -0.0 differs from 0.0 and each NaN payload counts
                    assert steps.tobytes() == want.tobytes(), (q, draw)


class TestSampleStreams:
    DRAWS = (0, 1, 2, 2 ** 64 - 1)

    def test_streams_match_fresh_construction(self):
        # draw t of the chunk at s is the stream (0, 0, t, s), read in C
        # order by its batches in turn, whatever the other draws read
        # between them
        for start in (0, 17, 2048, 2 ** 64 - 1):
            streams = _SampleStreams(99, start)
            got = {t: [] for t in self.DRAWS}
            for rows in (3, 1, 5):
                for t in self.DRAWS:
                    got[t].append(streams.normals(np.arange(rows, dtype=np.uint64), 6, t))
            for t in self.DRAWS:
                want = philox(99, [0, 0, t, start]).standard_normal((9, 6))
                assert np.concatenate(got[t]).tobytes() == want.tobytes(), (start, t)

    def test_streams_are_disjoint(self):
        # other draw numbers, chunk starts and seeds read other normals
        one = np.arange(1, dtype=np.uint64)
        runs = [_SampleStreams(seed, start).normals(one, 4, draw)
                for seed, start, draw in ((5, 0, 0), (5, 0, 1), (5, 1, 0), (5, 1, 1), (6, 0, 1))]
        for a, b in itertools.combinations(runs, 2):
            assert not np.allclose(a, b)

    def test_no_counter_is_shared(self, monkeypatch):
        # a stream adds one to its 256-bit counter per block of four words,
        # so while it reads fewer than 2^64 blocks its three high words name
        # it, (0, t, s) for draw t of the chunk at s; the batches of a
        # conditioned chunk build one stream per draw number, at word 0,
        # and each reads a run of 8 normals per sample that makes its draw
        built = built_philoxes(monkeypatch)
        drawn = count_draws(monkeypatch)
        query = FunctionalQuery("Uk", Model("A", 4, 2), k=1, conditioned=True)
        streams = _SampleStreams(7, 2048)
        sampler = simulation._Sampler(query, GAUSS2)
        for lo in range(2048, 4096, sampler.batch):
            sampler.values(streams, range(lo, min(lo + sampler.batch, 4096)))
        rounds = max(t for _, t in drawn) + 1
        assert rounds >= 3
        assert [high(bit) for bit in built] == [(0, t, 2048) for t in range(rounds)]
        for t, bit in enumerate(built):
            assert position(bit)[2] >= 8 * sum(u == t for _, u in drawn)
        streams.normals(np.arange(10_000, dtype=np.uint64), 10, rounds)
        assert high(built[-1]) == (0, rounds, 2048)

    def test_a_chunk_that_draws_nothing_again_builds_one_philox(self, monkeypatch):
        # a chunk builds the stream of a draw number on its first use: one
        # Philox when no sample draws again, one per round otherwise
        built = built_philoxes(monkeypatch)
        drawn = count_draws(monkeypatch)
        for query, redraws in ((FunctionalQuery("fk", Model("A", 4, 2), k=1), False),
                               (FunctionalQuery("Uk", Model("A", 4, 2), k=1, conditioned=True),
                                True)):
            built.clear()
            drawn.clear()
            total, _, rejected = simulation._chunk_stats((query, GAUSS2, 3, 0, 256))
            assert rejected == 0 and total > 0
            rounds = max(t for _, t in drawn) + 1
            assert (rounds > 1) == redraws, query
            assert [high(bit) for bit in built] == [(0, t, 0) for t in range(rounds)], query

    DIGESTS = {"gaussian_iid": "49106bcc2433a81c", "heavy_tail_iid": "82b86bbad127b3b7",
               "scaled_gaussian_exchangeable": "5e35d4b5fe97fc21"}

    @pytest.mark.parametrize("family", simulation.FAMILIES)
    def test_a_chunks_first_draw_is_pinned(self, family):
        # numpy does not promise its Generator's stream across versions (NEP
        # 19): a numpy that draws other normals fails here instead of
        # moving every estimate
        query = FunctionalQuery("Uk", Model("A", 4, 2), k=1)
        sampler = simulation._Sampler(query, DistributionSpec(family, 2))
        samples = np.arange(2048, 4096, dtype=np.uint64)
        steps = samples_first(sampler.draws(_SampleStreams(20_250_810, 2048), samples, 0))
        digest = hashlib.sha256(steps.tobytes()).hexdigest()[:16]
        assert digest == self.DIGESTS[family]

    # one query per MEASURES row, d = 1..4, the coordinate-projected
    # Crofton verdicts of _face_u and _tangent_u included
    VALUE_QUERIES = {
        "absorption": FunctionalQuery("absorption", Model("B", 5, 3)),
        "nonabsorption": FunctionalQuery("nonabsorption", Model("A", 3, 1)),
        "fk": FunctionalQuery("fk", Model("A", 6, 4), k=1, conditioned=True),
        "Uk": FunctionalQuery("Uk", Model("B", 6, 4), k=2, conditioned=True),
        "vk": FunctionalQuery("vk", Model("A", 5, 3), k=1),
        "Lambda": FunctionalQuery("Lambda", Model("B", 5, 3), k=2),
        "Y": FunctionalQuery("Y", Model("A", 6, 4), m=3, l=1),
        "Z": FunctionalQuery("Z", Model("B", 6, 4), j=1, k=3),
        "face_intrinsic": FunctionalQuery("face_intrinsic", Model("A", 6, 4), m=3, l=1),
        "tangent_intrinsic": FunctionalQuery("tangent_intrinsic", Model("B", 6, 4), j=1, k=2),
        "face_prob": FunctionalQuery("face_prob", Model("B", 5, 3), indices=(2, 3)),
        "subspace_prob": FunctionalQuery("subspace_prob", Model("A", 4, 2), k=1),
        "joint_absorption": FunctionalQuery("joint_absorption", walk_lengths=(2,),
                                            bridge_lengths=(3,), d=2),
    }
    VALUE_DIGESTS = {
        "absorption": "f5e27d1b69db6c3b", "nonabsorption": "fe88a2910f067d0b",
        "fk": "dc626946b8776abb", "Uk": "0ec8233d682dc755", "vk": "2b039021644f5230",
        "Lambda": "55acffb3d937ec7d", "Y": "dd9fe80684afbdb4", "Z": "617632af56728212",
        "face_intrinsic": "670bc2ddbac8358c", "tangent_intrinsic": "7d9a5f357e17dc27",
        "face_prob": "7acdfd054c34aab8", "subspace_prob": "9e80c8ff5207569d",
        "joint_absorption": "f43361c279a42747"}

    @pytest.mark.parametrize("name", list(VALUE_QUERIES))
    def test_sample_values_are_pinned(self, name):
        # each law's values and rejected count on the first 256 samples;
        # like the draw pins above, this also fails on a numpy that draws
        # other normals (NEP 19)
        query = self.VALUE_QUERIES[name]
        digest = hashlib.sha256()
        for family in simulation.FAMILIES:
            sampler = simulation._Sampler(query, DistributionSpec(family, query.dimension))
            values, rejected = sampler.values(_SampleStreams(20_250_810, 0), range(256))
            digest.update(values.tobytes() + np.int64(rejected).tobytes())
        assert digest.hexdigest()[:16] == self.VALUE_DIGESTS[name]


class TestDrawNumbers:
    def test_a_redraw_reads_the_philox_stream_of_its_draw_number(self):
        # draw t of the chunk at s is the stream (0, 0, t, s), a run of
        # increments per sample that makes the draw, in sample order: a
        # conditioned sample whose draw 0 is a full cone reads the run of
        # stream 1 after those of the full cones before it, whatever draw 0
        # read, and is measured on it bit for bit
        query = FunctionalQuery("Uk", Model("A", 4, 2), k=1, conditioned=True)
        seed, start, samples = 3, 2048, 128
        indices = np.arange(start, start + samples, dtype=np.uint64)
        sampler = simulation._Sampler(query, GAUSS2)
        got, rejected = sampler.values(_SampleStreams(seed, start), range(start, start + samples))
        assert rejected == 0
        rows = philox(seed, [0, 0, 0, start]).standard_normal((samples, 8))  # 4 steps in R^2
        steps = sampler.draws(_SampleStreams(seed, start), indices, 0)
        gens = sampler.draw.partial_sums(steps)
        assert samples_first(steps).tobytes() == rows.reshape(samples, 4, 2).tobytes()
        full = [p for p in range(samples) if is_full_cone(ConeSample(gens[:, :, p].T))]
        assert len(full) > 5
        steps = samples_first(sampler.draws(_SampleStreams(seed, start), indices[full], 1))
        rows = philox(seed, [0, 0, 1, start]).standard_normal((len(full), 8))
        assert steps.tobytes() == rows.reshape(len(full), 4, 2).tobytes()
        measure = oracles.LOOP_MEASURES["Uk"]
        draws = chunk_draws(seed, range(start, start + samples), 8)
        for p, rngs in enumerate(draws):
            cone, _, rng = loop_draw_sample(query, GAUSS2, rngs)
            assert (rng.draw > 0) == (p in full), p
            assert got[p] == measure(query, cone), p


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

    @pytest.mark.parametrize("query, counts", [
        (FunctionalQuery("nonabsorption", Model("A", 4, 2)), {}),
        (FunctionalQuery("Uk", Model("A", 4, 2), k=1, conditioned=True), {}),
        (FunctionalQuery("Uk", Model("A", 4, 2), k=1, conditioned=True),
         {0: 3, 1: 1, 5: 2, 9: 3, 2047: 1, 2048: 3, 2099: 2}),
    ], ids=["query0", "query1", "redrawn"])
    def test_batch_size_moves_no_estimate(self, query, counts, monkeypatch):
        # the batches of a chunk read each of its streams in turn, so
        # batches of a few samples give the bytes of the default ones; 2,100
        # samples make a full chunk and a short one, the conditioned query
        # redraws full cones in later rounds of every batch, and the zeroed
        # draws make samples of several batches draw again over several
        # rounds
        zero_draws(monkeypatch, counts)
        config = RunConfig(query=query, dist=GAUSS2, samples=2100, seed=42)
        want = estimate(config)
        assert want.rejected == sum(counts.values())
        monkeypatch.setattr(simulation, "_BATCH_ELEMENTS", 100)
        assert simulation._Sampler(query, GAUSS2).batch < 10
        assert estimate(config) == want

    def test_the_pool_has_no_more_workers_than_chunks(self, monkeypatch):
        # a process pool starts all its workers at its first task, so 5,000
        # workers for the two chunks of 4,096 samples would start 5,000
        # processes; the recorder maps in this process and starts none
        opened = record_pools(monkeypatch)
        query = FunctionalQuery("nonabsorption", Model("A", 4, 2))
        want = estimate(RunConfig(query=query, dist=GAUSS2, samples=4096, seed=42))
        for workers, samples, pool in ((5000, 4096, 2), (2, 6000, 2), (3, 2049, 2)):
            got = estimate(RunConfig(query=query, dist=GAUSS2, samples=samples, seed=42,
                                     workers=workers))
            assert opened.pop() == pool and got.samples == samples
            if samples == 4096:
                assert got == want
        code = main(["simulate", "--model", "A", "--functional", "nonabsorption", "--n", "4",
                     "--d", "2", "--samples", "4096", "--workers", "5000"], out=io.StringIO())
        assert code == 0 and opened == [2]

    def test_a_simulate_sweep_opens_one_pool(self, monkeypatch):
        # every query of the sweep samples through one real pool, to the
        # bytes of one worker; a bad index fails before any sampling
        args = ["simulate", "--model", "A", "--functional", "vk", "--n", "4", "--d", "2",
                "--samples", "4096", "--seed", "5", "--k"]
        opened = record_pools(monkeypatch, concurrent.futures.ProcessPoolExecutor)
        serial, pooled, failed = io.StringIO(), io.StringIO(), io.StringIO()
        assert main(args + ["0..2", "--workers", "1"], out=serial) == 0 and opened == []
        assert main(args + ["0..2", "--workers", "2"], out=pooled) == 0 and opened == [2]
        assert pooled.getvalue() == serial.getvalue()
        assert len(serial.getvalue().splitlines()) == 3
        assert main(args + ["0..3", "--workers", "2"], out=failed) == EXIT_USAGE
        assert failed.getvalue() == "" and opened == [2]

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the workers must fork from the process that replaced the draws")
    def test_a_failed_chunk_in_the_pool_reaches_the_caller(self, monkeypatch):
        # sample 5 of every config never draws a cone in general position,
        # in the forked workers too; the error stops the run, and no worker
        # outlives it
        replace_draws(monkeypatch, lambda i, t, steps: 0.0 * steps if i == 5 else steps)
        no_draw = "in general position after 128 attempts"
        with pytest.raises(SamplingError, match=no_draw):
            verify_suite(budget=10_000, seed=1, workers=2)
        assert multiprocessing.active_children() == []
        query = FunctionalQuery("nonabsorption", Model("A", 4, 2))
        with pytest.raises(SamplingError, match=no_draw):
            estimate(RunConfig(query=query, dist=GAUSS2, samples=4096, seed=42, workers=2))
        assert multiprocessing.active_children() == []

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
        # v_1 of a pointed planar cone is 1/2, and a 3-step planar bridge is
        # always pointed: the Crofton difference is the constant 1/2
        query = FunctionalQuery("vk", Model("A", 3, 2), k=1)
        est = estimate(RunConfig(query=query, dist=GAUSS2, samples=20_000, seed=8))
        assert est.mean == est.exact_ref == 0.5
        assert est.stderr == 0.0 and est.z is None
        query = FunctionalQuery("vk", Model("B", 5, 3), k=1)
        est = estimate(RunConfig(query=query, dist=DistributionSpec("gaussian_iid", 3),
                                 samples=20_000, seed=8))
        assert est.stderr > 0 and abs(est.z) <= 4

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

    def test_one_block_product_build_per_multiset_per_pass(self, monkeypatch):
        # the suite visits the largest d first, so every multiset of blocks is
        # built once, at the most coefficients the pass reads from it
        built = []
        roots = combinatorics.block_roots
        monkeypatch.setattr(combinatorics, "block_roots",
                            lambda *blocks: built.append(blocks) or roots(*blocks))
        assert all(c.status == "pass" for c in identity_checks(tables=StirlingTables()))
        assert len(built) == len(set(built)) > 100

    def test_a_poked_block_product_is_caught(self):
        # the block (2, 3) is read by coeff_Q(5, (2,), q) in the composition
        # convolutions and by face_probability(A n=5, (2,)) in the formula
        # web; cached at full length, it is never rebuilt during the run
        t = StirlingTables()
        t.block_product((2, 3), (), 4).coeffs[0] += 1  # test-only: poke one coefficient
        failed = {c.name for c in identity_checks(tables=t) if c.status == "fail"}
        assert {"cross-formula identities", "composition convolutions"} <= failed

    def test_a_verify_run_opens_one_pool(self, monkeypatch):
        # every gate pair's chunks go through one pool; a run that samples
        # in this process or samples nothing opens none
        opened = record_pools(monkeypatch)
        pooled = verify_suite(budget=10_000, seed=1, workers=2)
        assert opened == [2]
        serial = verify_suite(budget=10_000, seed=1, workers=1)
        verify_suite(budget=MIN_MC_BUDGET - 1, seed=1, workers=2)
        verify_suite(budget=10_000, seed=1, workers=2, tamper=True)
        assert opened == [2]
        assert {**pooled, "workers": 1} == serial

    def test_small_budget_skips_mc(self):
        report = verify_suite(budget=100, seed=5)
        assert report["summary"]["overall"] == "pass"
        assert report["summary"]["mc_run"] == 0
        assert report["summary"]["mc_z_count"] == report["summary"]["mc_zero_stderr_count"] == 0
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

    @pytest.mark.slow
    def test_measurement_gates_pass(self):
        # |z| <= 4, or an exact match where the estimate has stderr 0
        for family in simulation.FAMILIES:
            for gate in measurement_gates():
                result = run_gate(gate, family, 20_000, seed=20_250_810)
                assert result["status"] == "pass", result
        assert not {g.name for g in measurement_gates()} & {g.name for g in default_gates()}

    def test_z_summary_of_known_scores(self):
        summary = z_summary([-1.0, 2.0, 0.0])
        assert summary["mc_z_count"] == 3
        assert summary["mc_sum_z2"] == 5.0
        assert summary["mc_max_abs_z"] == 2.0
        # the largest gap is just below z = 2: Phi(2) against 2/3
        assert summary["mc_ks_d"] == pytest.approx(0.9772498680518208 - 2 / 3, abs=1e-15)
        assert z_summary([0.0])["mc_ks_d"] == 0.5
        assert z_summary([]) == {"mc_z_count": 0, "mc_sum_z2": None,
                                 "mc_max_abs_z": None, "mc_ks_d": None}

    def test_long_exact_values_serialize(self):
        # the denominator of this exact value has about 18,000 digits, past
        # the interpreter's limit on int-to-str conversion
        gate = Gate("big", FunctionalQuery("nonabsorption", Model("B", 9000, 1)))
        result = run_gate(gate, "gaussian_iid", 4, 0)
        exact = result["exact"]
        assert len(exact["den"]) > 4300
        assert exact["num"].isdigit() and exact["den"].isdigit()


def denominator(model):
    """n! base^n, the denominator every unconditioned value of the model divides."""
    return math.factorial(model.n) << (0 if model.is_bridge else model.n)


def poke(monkeypatch, name, model, key, offset):
    """Patch the closed form ``name`` in verify's namespace: its value at
    ``model`` with the next positional arguments ``key`` moves by ``offset``."""
    real = getattr(verify, name)

    def poked(*args):
        value = real(*args)
        if args[0] == model and args[1:1 + len(key)] == key:
            value += offset
        return value

    monkeypatch.setattr(verify, name, poked)


def identity_verdicts(tables):
    """The verdicts of the integer-numerator group and of the Fraction oracle,
    each on its own tables from ``tables()``."""
    new = verify._check("new", lambda: verify._check_formula_identities(tables(), 10, 5))
    old = verify._check("oracle", lambda: oracles.fraction_formula_identities(tables(), 10, 5))
    return new.status, old.status


A63, B42, B53 = Model("A", 6, 3), Model("B", 4, 2), Model("B", 5, 3)
ONE_OFF = {
    "vk closure": [("expected_vk", A63, (1, False), 1)],
    "Uk crofton": [("expected_Uk", B42, (1, False), 1)],
    "fk conditioned ratio": [("expected_fk", A63, (2, True), 1)],
    "Y_dual duality": [("expected_Y_dual", A63, (2, 1), -1)],
    "face split": [("face_probability", B42, ((2,), False), 1)],
    "face aggregation": [("face_probability", A63, ((1, 4), False), 1),
                         ("face_probability", A63, ((1, 4), True), -1)],
    # duality at l = 0 holds, 2 Y_dual(2, 0) = f_1 - 2 Z_(1,3); only Z_(k,d) = 0 sees it
    "top tangent": [("expected_Z", B53, (1, 3), 1), ("expected_Y_dual", B53, (2, 0), -1)],
}


class TestIntegerIdentityWeb:
    def test_fresh_and_corrupted_tables_get_the_oracle_verdict(self):
        assert identity_verdicts(StirlingTables) == ("pass", "pass")
        assert identity_verdicts(corrupted_tables) == ("fail", "fail")

    @pytest.mark.parametrize("case", sorted(ONE_OFF))
    def test_a_value_off_by_one_over_the_denominator_fails_both(self, monkeypatch, case):
        for name, model, key, sign in ONE_OFF[case]:
            poke(monkeypatch, name, model, key, Fraction(sign, denominator(model)))
        assert identity_verdicts(StirlingTables) == ("fail", "fail")

    def test_a_value_off_the_denominator_is_named(self, monkeypatch):
        poke(monkeypatch, "expected_vk", A63, (1, False), Fraction(1, 2 * denominator(A63)))
        failed = {c.name: c.detail for c in identity_checks(tables=StirlingTables())
                  if c.status == "fail"}
        assert list(failed) == ["cross-formula identities"]
        assert failed["cross-formula identities"].startswith("denominator of ")
        assert f"does not divide {denominator(A63)} at {A63}" in failed["cross-formula identities"]

    def test_no_fraction_arithmetic(self, monkeypatch):
        # both groups leave only the closed forms' own divisions
        calls = []
        for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__"):
            real = getattr(Fraction, name)
            monkeypatch.setattr(Fraction, name,
                                lambda a, b, real=real: calls.append(a) or real(a, b))
        t = StirlingTables()
        verify._check_composition_convolutions(t, 8)
        verify._check_formula_identities(t, 10, 5)
        new = len(calls)
        oracles.fraction_formula_identities(StirlingTables(), 10, 5)
        monkeypatch.undo()
        assert new == 0
        # the oracle's additions show that the counter sees Fraction arithmetic
        assert len(calls) > 8000


def replace_draws(monkeypatch, replace):
    """Pass every sample's increments through ``replace(sample, t, steps)``,
    where t is the draw number: 0 for the sample's first draw, then 1, 2,
    ... each time it draws again.  The sampler's draws come through one
    seam, ``_Sampler.draws``, which is given the draw number; the
    per-sample loop's through ``oracles.numpy_draw``, from an
    ``oracles.SampleDraw`` that names its sample and draw.  Returns the
    (sample, t) of every draw, in order."""
    drawn = []
    draws = simulation._Sampler.draws
    numpy_draw = oracles.numpy_draw

    def drawing(self, streams, samples, draw):
        steps = draws(self, streams, samples, draw)
        for s, i in enumerate(samples.tolist()):
            drawn.append((i, draw))
            steps[:, :, s] = replace(i, draw, steps[:, :, s].T).T
        return steps

    def numpy_drawing(dist, lengths, rng):
        drawn.append((rng.sample, rng.draw))
        return replace(rng.sample, rng.draw, numpy_draw(dist, lengths, rng))

    monkeypatch.setattr(simulation._Sampler, "draws", drawing)
    monkeypatch.setattr(oracles, "numpy_draw", numpy_drawing)
    return drawn


def count_draws(monkeypatch):
    """Record the (sample, t) of every increment draw, as replace_draws."""
    return replace_draws(monkeypatch, lambda i, t, steps: steps)


def zero_draws(monkeypatch, counts):
    """Zero the first counts[i] draws of each sample i: cones not in
    general position, which the sample must reject and draw again."""
    replace_draws(monkeypatch, lambda i, t, steps: 0.0 * steps if t < counts.get(i, 0) else steps)


class TestRetryCaps:
    FK = FunctionalQuery("fk", Model("A", 4, 2), k=1)
    CONDITIONED = FunctionalQuery("fk", Model("B", 2, 1), k=0, conditioned=True)
    NO_DRAW = "no draw (gaussian_iid, n=4, d=2) in general position after 128 attempts"
    BUDGET = "conditioning on a non-full cone exceeded the retry budget"
    # walk steps in d = 1 whose partial sums 1, -2 span the line, and 1, 2 a ray
    FULL = np.array([[1.0], [-3.0]])
    POINTED = np.array([[1.0], [1.0]])

    def test_draws_never_in_general_position_fail(self, monkeypatch):
        replace_draws(monkeypatch, lambda i, t, steps: 0.0 * steps)
        with pytest.raises(SamplingError, match=re.escape(self.NO_DRAW)):
            estimate(RunConfig(query=self.FK, dist=GAUSS2, samples=8, seed=3))

    def test_cones_always_full_exceed_the_condition_budget(self, monkeypatch):
        replace_draws(monkeypatch, lambda i, t, steps: self.FULL)
        monkeypatch.setattr(simulation, "_MAX_CONDITION_RETRIES", 5)
        with pytest.raises(SamplingError, match=re.escape(self.BUDGET)):
            estimate(RunConfig(query=self.CONDITIONED, dist=DistributionSpec("gaussian_iid", 1),
                               samples=8, seed=3))

    def test_simulate_exits_numeric_when_no_draw_is_in_general_position(self, monkeypatch, capsys):
        replace_draws(monkeypatch, lambda i, t, steps: 0.0 * steps)
        code = main(["simulate", "--model", "A", "--functional", "fk", "--k", "1", "--n", "4",
                     "--d", "2", "--samples", "8"], out=io.StringIO())
        assert code == EXIT_NUMERIC
        assert self.NO_DRAW in capsys.readouterr().err

    def test_joint_draws_too_short_for_general_position_are_refused(self, capsys):
        # one point in R^5 has no 5 x 5 minor: refused before any draw
        query = FunctionalQuery("joint_absorption", walk_lengths=(1,), d=5)
        short = "joint draw of 1 points in R^5: never in general position"
        with pytest.raises(DomainError, match=re.escape(short)):
            estimate(RunConfig(query=query, dist=DistributionSpec("gaussian_iid", 5),
                               samples=8, seed=3))
        code = main(["simulate", "--functional", "joint_absorption", "--walks", "1",
                     "--d", "5", "--samples", "8"], out=io.StringIO())
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert short in err and "Traceback" not in err

    @pytest.mark.parametrize("misses, fails", [(127, False), (128, True)])
    def test_the_draw_cap_counts_misses(self, misses, fails, monkeypatch):
        zero_draws(monkeypatch, {5: misses})
        config = RunConfig(query=self.FK, dist=GAUSS2, samples=8, seed=3)
        if fails:
            with pytest.raises(SamplingError, match=re.escape(self.NO_DRAW)):
                estimate(config)
        else:
            assert estimate(config).rejected == misses

    def test_the_draw_cap_restarts_after_a_full_cone(self, monkeypatch):
        # 100 misses, a full cone, 100 misses: never 128 in a row, and the
        # one full cone is within a condition budget of one; the other
        # samples draw no full cone
        replace_draws(monkeypatch, lambda i, t, steps: self.POINTED if i != 2 else
                      0.0 * steps if t < 100 or 100 < t < 201 else
                      self.FULL if t == 100 else self.POINTED)
        monkeypatch.setattr(simulation, "_MAX_CONDITION_RETRIES", 1)
        est = estimate(RunConfig(query=self.CONDITIONED, dist=DistributionSpec("gaussian_iid", 1),
                                 samples=4, seed=3))
        assert est.rejected == 200

    @pytest.mark.parametrize("full, fails", [(5, False), (6, True)])
    def test_the_condition_cap_counts_full_cones(self, full, fails, monkeypatch):
        replace_draws(monkeypatch, lambda i, t, steps: steps if i != 2 else
                      self.FULL if t < full else self.POINTED)
        monkeypatch.setattr(simulation, "_MAX_CONDITION_RETRIES", 5)
        config = RunConfig(query=self.CONDITIONED, dist=DistributionSpec("gaussian_iid", 1),
                           samples=4, seed=3)
        if fails:
            with pytest.raises(SamplingError, match=re.escape(self.BUDGET)):
                estimate(config)
        else:
            assert estimate(config).rejected == 0


class TestConditionedFullConeTest:
    @pytest.mark.parametrize("query", [
        FunctionalQuery("Uk", Model("A", 4, 2), k=1, conditioned=True),
        FunctionalQuery("fk", Model("B", 4, 2), k=0, conditioned=True),
        FunctionalQuery("Z", Model("A", 4, 2), j=0, k=1, conditioned=True),
    ])
    def test_runs_once_per_draw(self, query, monkeypatch):
        # every round takes one full-cone verdict per cone it draws, and the
        # measurement reads the rounds' verdicts, so it never tests an
        # accepted cone again; every draw comes through the seam once
        decided = []
        full_cones = geometry._SignRecord.full.func

        def counting(rec):
            decided.append(rec.signs.shape[1])
            return full_cones(rec)

        full = functools.cached_property(counting)
        full.__set_name__(geometry._SignRecord, "full")
        monkeypatch.setattr(geometry._SignRecord, "full", full)
        drawn = count_draws(monkeypatch)
        samples = 64
        est = estimate(RunConfig(query=query, dist=GAUSS2, samples=samples, seed=3))
        assert est.rejected == 0
        assert decided[0] == samples
        assert len(set(drawn)) > samples  # some full cones were conditioned away
        assert sum(decided) == len(set(drawn))
        assert len(drawn) == len(set(drawn))


def count_expansions(monkeypatch):
    """Record the point-set shape (d, n, S) of every minor expansion."""
    calls = []
    signs = geometry._minor_signs

    def counting(pts, table):
        calls.append(pts.shape)
        return signs(pts, table)

    monkeypatch.setattr(geometry, "_minor_signs", counting)
    return calls


class TestSharedMinorTable:
    @pytest.mark.parametrize("gate", ["f1/A n=4 d=2", "Y m=2 l=1/B n=5 d=3"])
    def test_one_minor_table_per_draw(self, gate, monkeypatch):
        # the general-position check and every verdict on the chunk read one
        # sign record, computed in one call for the whole chunk; the Y gate
        # takes the first coordinate of the generators of every m-face, and
        # reads their signs off level 1 of that record
        calls = count_expansions(monkeypatch)
        query = next(g.query for g in default_gates() if g.name == gate)
        dist = DistributionSpec("gaussian_iid", query.dimension)
        est = estimate(RunConfig(query=query, dist=dist, samples=64, seed=3))
        assert est.rejected == 0
        assert calls == [(query.dimension, query.model.generator_count, 64)]

    def test_every_row_expands_its_minors_once_per_round(self, monkeypatch):
        # every row of every measured functional in d = 2..4, conditioned
        # rows with their redraws included, runs one minor expansion per
        # round, over the round's draws: every projection of a cone or of
        # its faces reads a level of the cone's own record
        calls = count_expansions(monkeypatch)
        rounds = []
        draws = simulation._Sampler.draws

        def drawing(self, streams, samples, draw):
            rounds.append((self.draw.dist.d, self.draw.n_generators, len(samples)))
            return draws(self, streams, samples, draw)

        monkeypatch.setattr(simulation._Sampler, "draws", drawing)
        measured = set()
        for d in (2, 3, 4):
            dist = DistributionSpec("gaussian_iid", d)
            queries = [FunctionalQuery("joint_absorption", walk_lengths=(2,),
                                       bridge_lengths=(3,), d=d)]
            for model in (Model("A", d + 2, d), Model("B", d + 1, d)):
                queries += oracle_queries(model)
            for q in queries:
                calls.clear()
                rounds.clear()
                assert estimate(RunConfig(query=q, dist=dist, samples=32, seed=3)).samples == 32
                assert calls == rounds, q
                measured.add(q.functional)
        assert measured == set(simulation.MEASURES)

    def test_replayed_draws_compute_their_minors_once(self, monkeypatch):
        # two samples reject their first draw and draw again in round 2:
        # one sign record per round
        calls = count_expansions(monkeypatch)
        zero_draws(monkeypatch, {5: 1, 40: 1})
        query = FunctionalQuery("fk", Model("A", 4, 2), k=1)
        est = estimate(RunConfig(query=query, dist=GAUSS2, samples=64, seed=3))
        assert est.rejected == 2
        assert calls == [(2, 3, 64), (2, 3, 2)]


class TestOnePredicate:
    def test_no_support_solve_tangent_basis_or_svd(self, monkeypatch):
        # every row of every measured functional in d = 2..4 reads sign
        # records only, and every sample's draw asks for its increments'
        # normals and no others
        def refuse(*args, **kwargs):
            raise AssertionError("a measurement solved a support or took an SVD")

        for name in ("_projection_support", "_solve", "_tangent_base"):
            monkeypatch.setattr(geometry, name, refuse)
        monkeypatch.setattr(np.linalg, "solve", refuse)
        monkeypatch.setattr(np.linalg, "svd", refuse)
        asked = []
        normals = _SampleStreams.normals

        def counting(self, samples, count, draw):
            asked.append(count)
            return normals(self, samples, count, draw)

        monkeypatch.setattr(_SampleStreams, "normals", counting)
        measured = set()
        for d in (2, 3, 4):
            dist = DistributionSpec("gaussian_iid", d)
            queries = [FunctionalQuery("joint_absorption", walk_lengths=(2,),
                                       bridge_lengths=(3,), d=d)]
            for model in (Model("A", d + 2, d), Model("B", d + 1, d)):
                queries += oracle_queries(model)
            for q in queries:
                asked.clear()
                assert estimate(RunConfig(query=q, dist=dist, samples=32, seed=3)).samples == 32
                words = simulation._Draw.of(dist, q.model, q.walk_lengths, q.bridge_lengths).n_words
                assert asked and set(asked) == {words}, (q, asked)
                measured.add(q.functional)
        assert measured == set(simulation.MEASURES)


def axis_generator_steps(model):
    """Integer increments of the model whose cone is in general position
    while its first generator lies on the last coordinate axis.  On its
    first i < d coordinates that generator is the origin, so every i x i
    minor of the projected generators that holds it is zero.  The
    increments are integers, so every partial sum, and a bridge's mean, is
    exact."""
    rng = np.random.default_rng(31)
    while True:
        gens = rng.integers(-4, 5, size=(model.generator_count, model.d)).astype(float)
        gens[0, :-1] = 0.0
        if ConeSample(gens).in_general_position():
            break
    steps = np.diff(gens, axis=0, prepend=0.0)
    return np.vstack([steps, -gens[-1:]]) if model.is_bridge else steps


class TestDegenerateProjections:
    @pytest.mark.parametrize("query", [
        FunctionalQuery("Z", Model("A", 5, 3), j=1, k=2),
        FunctionalQuery("vk", Model("A", 6, 4), k=2),
        FunctionalQuery("Y", Model("B", 3, 3), m=2, l=1),
        FunctionalQuery("tangent_intrinsic", Model("B", 5, 3), j=1, k=1),
    ])
    def test_a_zero_minor_draws_again(self, query, monkeypatch):
        # the chosen draws are replaced by a cone in general position whose
        # first generator projects to the origin, so the projection the
        # measurement reads has a zero minor: the sample takes its next
        # draw, as a draw out of general position does, whatever the
        # batch; the per-sample loop agrees bit for bit
        steps = axis_generator_steps(query.model)
        counts = {0: 1, 7: 2, 19: 1}
        replace_draws(monkeypatch, lambda i, t, s: steps if t < counts.get(i, 0) else s)
        dist = DistributionSpec("gaussian_iid", query.dimension)
        args = (query, dist, 11, 0, 32)
        got = simulation._chunk_stats(args)
        assert got[2] == sum(counts.values())
        assert got == loop_chunk_stats(args)
        monkeypatch.setattr(simulation, "_BATCH_ELEMENTS", 1)
        assert simulation._Sampler(query, dist).batch == 1
        assert simulation._chunk_stats(args) == got


class TestLevelRecords:
    """Every projected record the sampler reads, of the cones' first i
    coordinates or of one face's, is read off the cones' own record; the
    standalone records of the projected points, which the sampler built
    before, are the oracle."""

    @staticmethod
    def point_sets():
        rng = np.random.default_rng(20261022)
        count = 48
        for d in (2, 3, 4):
            for model in (Model("A", d + 2, d), Model("B", d + 2, d)):
                draw = simulation._Draw.of(DistributionSpec("gaussian_iid", d), model)
                steps = rng.standard_normal((d, model.n, count))
                yield "gaussian", draw.partial_sums(steps)
                yield "cauchy", draw.partial_sums(rng.standard_cauchy((d, model.n, count)))
                axis = steps.copy()
                axis[:, :, ::3] = axis_generator_steps(model).T[:, :, None]
                yield "zero minors", draw.partial_sums(axis)
                gens = draw.partial_sums(steps)
                n = gens.shape[1]
                # the first d-1 coordinates of one point are 2^-60 of its
                # last, so its minors at the levels 2..d-1 fall below their
                # bounds on the cones' scale, not on their own
                tiny = gens.copy()
                tiny[:-1, rng.integers(0, n, count), np.arange(count)] *= 2.0 ** -60
                yield "tiny", tiny
                # on its first i0 coordinates the last point rounds a
                # combination of the first i0 - 1, so an i0 x i0 minor is
                # below its rounding noise
                near = gens.copy()
                for i0 in range(2, d):
                    base = near[:i0, :i0 - 1, i0::d].transpose(1, 0, 2)
                    mix = rng.uniform(0.1, 0.9, (i0 - 1, 1, base.shape[2]))
                    near[:i0, -1, i0::d] = (mix * base).sum(axis=0)
                yield "near zero", near
                # entries 2^-1074 to 2^1000 apart in a point: scaled down by
                # its largest, the small ones lose bits
                wide = gens.copy()
                wide[:, :, :6] *= np.ldexp(1.0, rng.integers(-1074, 1000, (d, n, 6)))
                yield "underflow", wide

    def test_levels_and_subsets_match_the_standalone_records(self):
        seen = set()
        for kind, pts in self.point_sets():
            d, n, count = pts.shape
            rec = geometry._SignRecord.of(pts)
            seen |= {"lost"} if rec.lost.any() else set()
            for i in range(1, d):
                got = rec.level(i)
                want = geometry._SignRecord.of(np.ascontiguousarray(pts[:i]))
                assert np.array_equal(got.signs, want.signs), (kind, i)
                assert np.array_equal(got.general, want.general), (kind, i)
                seen |= {"zero"} if not got.general.all() else set()
                _, est, lost = geometry._minor_signs(pts[:i], want.table)
                alone = geometry._level_signs(pts[:i], est[-1], lost)[1]
                unsure = geometry._level_signs(pts[:i], rec.est[i - 1], rec.lost)[1]
                seen |= {"level falls back alone"} if (unsure & ~alone).any() else set()
                for m in range(i + 1, n + 1):
                    f, s = np.divmod(np.arange(math.comb(n, m) * count), count)
                    rows = geometry._subsets(n, m)[f]
                    got, sets = rec.subset_level(m, i, np.ones((math.comb(n, m), count), bool))
                    assert np.array_equal(sets, s)
                    want = geometry._SignRecord.of(pts[:i, rows.T, s])
                    assert np.array_equal(got.signs, want.signs), (kind, i, m)
                    assert np.array_equal(got.general, want.general), (kind, i, m)
        assert seen == {"lost", "zero", "level falls back alone"}


class TestTangentConesByProjection:
    @pytest.mark.parametrize("family", simulation.FAMILIES)
    def test_faces_of_the_projection_match_the_svd_tangent_bases(self, family):
        # for every j-face F of every sample, F is not a face of the cone's
        # projection onto its first k coordinates exactly when the SVD
        # tangent base at F meets the kernel of that projection projected
        # onto the complement of F's span; the Z row sums half these
        # verdicts, sample by sample on the same streams
        samples = 48
        for d in (2, 3, 4):
            dist = DistributionSpec(family, d)
            for model in (Model("A", d + 2, d), Model("B", d + 2, d)):
                for j, k in ((j, k) for j in range(d - 1) for k in range(j + 1, d)):
                    query = FunctionalQuery("Z", model, j=j, k=k)
                    sampler = simulation._Sampler(query, dist)
                    got, _ = sampler.values(_SampleStreams(23, 0), range(samples))
                    draws = chunk_draws(23, range(samples), sampler.draw.n_words)
                    for i, rngs in enumerate(draws):
                        cone, _, _ = loop_draw_sample(query, dist, rngs)
                        projected = geometry._faces(ConeSample(cone.generators[:, :k]), j)
                        meets = [oracles.tangent_meets_kernel(cone.generators, face, np.eye(d)[:, :k])
                                 for face in geometry._faces(cone, j)]
                        assert meets == [face not in projected
                                         for face in geometry._faces(cone, j)], (query, i)
                        assert got[i] == 0.5 * sum(meets), (query, i)


class TestHaarOracle:
    # one query per block-reading row, d = 2..4
    QUERIES = [q for name, q in TestSampleStreams.VALUE_QUERIES.items()
               if name in oracles.HAAR_MEASURES]

    @pytest.mark.parametrize("family", simulation.FAMILIES)
    def test_means_match_the_gaussian_blocks(self, family):
        # on the same cones, the coordinate projections and the replaced
        # Gaussian blocks estimate one mean: the mean of their per-sample
        # differences is within four of its standard errors of zero;
        # conditioned rows read the cones that are not full
        assert {q.functional for q in self.QUERIES} == set(oracles.HAAR_MEASURES)
        samples = 8192
        rng = np.random.default_rng(20_261_020)
        for q in self.QUERIES:
            dist = DistributionSpec(family, q.dimension)
            sampler = simulation._Sampler(q, dist)
            gens = sampler.draw.partial_sums(sampler.draws(
                _SampleStreams(5, 0), np.arange(samples, dtype=np.uint64), 0))
            chunk = geometry._SignRecord.of(gens)
            assert chunk.general.all()
            if q.conditioned:
                chunk = chunk.take(~chunk.full)
            diff = simulation.MEASURES[q.functional](q, chunk) - oracles.haar_values(q, chunk, rng)
            assert not np.isnan(diff).any(), q
            se = math.sqrt(diff.var(ddof=1) / len(diff))
            assert abs(diff.mean()) <= 4 * se, (q, diff.mean(), se)


class TestCroftonOnFixedCones:
    WEDGE = 1.0  # the angle of a planar wedge
    CONES = {
        "orthant R^3": (np.eye(3), [math.comb(3, k) / 8 for k in range(4)]),
        "planar wedge": (np.array([[1.0, 0.0], [math.cos(WEDGE), math.sin(WEDGE)]]),
                         [(math.pi - WEDGE) / (2 * math.pi), 0.5, WEDGE / (2 * math.pi)]),
        "full plane": (np.array([[1.0, 0.0], [-1.0, 1.0], [-1.0, -1.0]]), [0.0, 0.0, 1.0]),
        "walk in R^4": (np.cumsum(np.random.default_rng(4).standard_normal((6, 4)), axis=0), None),
    }

    @pytest.mark.parametrize("name", list(CONES))
    def test_crofton_against_the_projection_estimator(self, name):
        # the Crofton difference of the replaced Gaussian blocks and the
        # projection estimator measure the same v_k of one fixed cone, each
        # from its own Gaussians; both agree with each other, and with v_k
        # where it is known.  Coordinate projections give one fixed value
        # per cone, so only the Haar blocks can measure v_k of one cone
        gens, exact = self.CONES[name]
        n, d = gens.shape
        samples = 20_000
        rng = np.random.default_rng(20_250_810)
        batch = np.broadcast_to(gens, (samples, n, d)).copy()
        chunk = geometry._SignRecord.of(batch.transpose(2, 1, 0))
        assert chunk.general.all()
        for k in range(d + 1):
            query = FunctionalQuery("vk", Model("B", n, d), k=k)
            crofton = oracles.haar_values(query, chunk, rng)
            projection = oracles.replaced_v(batch, k, rng.standard_normal((samples, d)))
            assert set(np.unique(crofton)) <= {0.0, 0.5, 1.0}
            se = math.sqrt((crofton.var(ddof=1) + projection.var(ddof=1)) / samples)
            diff = crofton.mean() - projection.mean()
            assert abs(diff) <= 4 * se if se > 0 else diff == 0, (name, k)
            if exact is not None:
                se = math.sqrt(crofton.var(ddof=1) / samples)
                error = crofton.mean() - exact[k]
                assert abs(error) <= 4 * se if se > 0 else abs(error) < 1e-12, (name, k)


def oracle_queries(model):
    """Every legal query of every measured functional on a model,
    conditioned variants included, with two face_prob index tuples."""
    faces = [(1,), tuple(range(2, model.d + 1))] if model.d >= 2 else []
    return measured_queries(model, faces)


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
        # the chosen samples reject their first draw, so they draw again in
        # later rounds; the chunk stays bit-identical
        zero_draws(monkeypatch, {0: 1, 7: 1, 8: 1, 30: 1})
        dist = DistributionSpec("gaussian_iid", query.dimension)
        args = (query, dist, 11, 0, 32)
        got = simulation._chunk_stats(args)
        assert got == loop_chunk_stats(args)
        assert got[2] == 4

    @pytest.mark.parametrize("query", [
        FunctionalQuery("Y", Model("B", 5, 3), m=2, l=1),
        FunctionalQuery("Uk", Model("A", 4, 2), k=1, conditioned=True),
        FunctionalQuery("fk", Model("B", 5, 3), k=1, conditioned=True),
    ])
    def test_samples_redrawn_over_several_rounds_match_the_per_sample_loop(
            self, query, monkeypatch):
        # the first one or three draws of the chosen samples are rejected,
        # so they take two or four rounds, more where a full cone is
        # conditioned away; every zeroed draw counts as rejected
        counts = {0: 3, 4: 1, 7: 3, 8: 1, 19: 3, 30: 1}
        zero_draws(monkeypatch, counts)
        dist = DistributionSpec("gaussian_iid", query.dimension)
        args = (query, dist, 11, 0, 32)
        got = simulation._chunk_stats(args)
        assert got == loop_chunk_stats(args)
        assert got[2] == sum(counts.values())

    def test_rounds_build_no_single_cone(self, monkeypatch):
        # redrawn samples are decided in batches, never as one ConeSample
        def single(*args, **kwargs):
            raise AssertionError("a sample was decided alone")

        zero_draws(monkeypatch, {3: 2, 9: 1})
        monkeypatch.setattr(simulation, "ConeSample", single)
        query = FunctionalQuery("Uk", Model("A", 4, 2), k=1, conditioned=True)
        est = estimate(RunConfig(query=query, dist=GAUSS2, samples=64, seed=3))
        assert est.rejected == 3


class TestProjectionOnFullCones:
    @pytest.mark.parametrize("family, index", [("gaussian_iid", 39647),
                                               ("scaled_gaussian_exchangeable", 25876)])
    def test_v2_gate_draws_that_aborted_the_nnls(self, family, index):
        # both draws are full cones on which the active-set NNLS ran out its
        # iteration cap; the support rule finds g inside, so v_2 scores 0.
        # They were draw 0 of the sample alone, the stream (0, 0, 0, index)
        # that draw 0 of a chunk starting at the sample reads
        seed = _gate_seed(20_250_810, "v2/A n=6 d=4", family)
        gate = next(g for g in default_gates() if g.name == "v2/A n=6 d=4")
        dist = DistributionSpec(family, 4)
        sampler = simulation._Sampler(gate.query, dist)
        samples = range(index, index + 1)
        values, _ = sampler.values(_SampleStreams(seed, index), samples)
        assert values[0] == 0.0
        rngs = next(chunk_draws(seed, samples, sampler.draw.n_words))
        cone, _, rng = loop_draw_sample(gate.query, dist, rngs)
        assert is_full_cone(cone)
        g = rng.standard_normal(4)
        assert geometry.project_onto_cone(g, cone).face_dim == 4
        assert len(geometry._projection_support(cone.generators, g)[0]) == 4
