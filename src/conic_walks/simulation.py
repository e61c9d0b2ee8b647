"""Samplers for exchangeable walks and bridges, and seeded Monte Carlo estimators.

Sampling distributions only need the model's symmetry hypotheses, so three
laws are provided: i.i.d. Gaussian increments, componentwise Cauchy
increments (no mean), and Gaussians multiplied by one standard log-normal
scale per block.  A positive factor shared by a block's generators leaves
the cone and every verdict unchanged, so the scaled law's measurements
equal those of Gaussian cones: it tests the law's transform, not a
dependence that the cone can see.

Estimates are reproducible by construction.  Samples are decided in
chunks of at most _CHUNK, and draw t of the chunk that starts at sample s
(t = 0 first, then 1, 2, ... each time a sample draws again) is numpy's
Generator over the Philox stream with key ``seed`` and counter
(0, 0, t, s): the chunk's samples that make draw t read its standard
normals in C order, one run each, in sample order.  So results depend on
the seed, _CHUNK and which samples of a chunk draw again, not on worker
count, batch size or scheduling, and chunk partial sums are reduced in
fixed chunk order.

So ``--workers`` changes no byte of a result, only where the chunks are
decided.  One :func:`sampling` block (a ``verify`` run, or a ``simulate``
sweep) maps all its chunks through at most one process pool, and
``concurrent.futures`` is imported only when that pool opens, so a
one-worker run never loads ``multiprocessing``.  A second worker pays
only over seconds of sampling: ``verify --budget 100000`` takes about 0.6
of its one-worker time with two workers on two cores, while one gate of
10^5 samples, a tenth of a second on one worker, takes longer on two,
whose fresh processes start cold.

Every law is a fixed transform of i.i.d. standard normals, so a sample's
draw is one run of them, its increments' normals, and nothing else is
random: a Crofton measurement decides the cone against fixed coordinate
subspaces.  ``sample_walk`` and ``sample_bridge`` draw consecutively from
the caller's generator instead.
"""

from __future__ import annotations

import itertools
import math
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from . import geometry
from .errors import DomainError, SamplingError, as_index, as_seed
from .formulas import (
    A_BRIDGE,
    B_WALK,
    FunctionalQuery,
    Model,
    evaluate_query,
)
from .geometry import ConeSample

FAMILIES = ("gaussian_iid", "heavy_tail_iid", "scaled_gaussian_exchangeable")
"""The increment laws.  ``scaled_gaussian_exchangeable`` multiplies a
block's Gaussian increments by one shared positive factor, which leaves
the cone and every verdict unchanged: its measurements are those of the
Gaussian cones of its normals without each block's first."""

_CHUNK = 2048
_MAX_DRAW_RETRIES = 128
_MAX_CONDITION_RETRIES = 200_000
# Rough cap on the array elements of one batch of samples (increments and
# minor products); a chunk is decided in batches this size.
_BATCH_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class DistributionSpec:
    """Increment law for the samplers.

    Every family has a joint density assigning zero mass to affine
    hyperplanes, so sampled partial sums are in general position almost
    surely.
    """

    family: str
    d: int

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise DomainError(f"unknown distribution family {self.family!r}; expected {FAMILIES}")
        object.__setattr__(self, "d", as_index(self.d, "d"))
        if self.d < 1:
            raise DomainError(f"dimension must be >= 1, got d={self.d}")


def sample_increments(dist: DistributionSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n increment vectors in R^d according to the family."""
    n = as_index(n, "n")
    if n < 1:
        raise DomainError(f"need at least one increment, got n={n}")
    return _law(dist, n, rng.standard_normal((_word_count(dist, n), 1)))[:, :, 0].T


def _word_count(dist: DistributionSpec, n: int) -> int:
    """Standard normals that n increments are made of."""
    per = 2 if dist.family == "heavy_tail_iid" else 1
    return per * n * dist.d + (dist.family == "scaled_gaussian_exchangeable")


def _law(dist: DistributionSpec, n: int, z: np.ndarray) -> np.ndarray:
    """Increments (d, n, S) made of runs z (_word_count, S) of standard
    normals, one column per sample, as numpy's own draws of the family make
    them: a Cauchy value is a normal over the next one, and the log-normal
    scale is libm's exp of the run's first normal."""
    if dist.family == "gaussian_iid":
        return z.reshape(n, dist.d, -1).transpose(1, 0, 2)
    if dist.family == "heavy_tail_iid":
        with np.errstate(divide="ignore", invalid="ignore"):
            return (z[0::2] / z[1::2]).reshape(n, dist.d, -1).transpose(1, 0, 2)
    scale = np.fromiter(map(math.exp, z[0].tolist()), float, z.shape[1])
    return scale * z[1:].reshape(n, dist.d, -1).transpose(1, 0, 2)


@dataclass(frozen=True)
class _Draw:
    """How one sample's generators are drawn: blocks of increments drawn in
    order from the sample's stream, each a walk or a bridge, whose partial
    sums are stacked."""

    dist: DistributionSpec
    blocks: tuple[tuple[int, bool], ...]  # (increments, is a bridge)
    what: str

    @classmethod
    def of(cls, dist: DistributionSpec, model: Optional[Model] = None,
           walk_lengths: tuple[int, ...] = (), bridge_lengths: tuple[int, ...] = ()) -> _Draw:
        """A model's walk or bridge, or the walks then the bridges of a joint draw."""
        if model is not None:
            return cls(dist, ((model.n, model.is_bridge),),
                       f"draw ({dist.family}, n={model.n}, d={model.d})")
        blocks = tuple((n, False) for n in walk_lengths) + tuple((m, True) for m in bridge_lengths)
        return cls(dist, blocks, "joint draw")

    @property
    def n_steps(self) -> int:
        return sum(n for n, _ in self.blocks)

    @property
    def n_generators(self) -> int:
        return sum(n - bridge for n, bridge in self.blocks)

    @property
    def n_words(self) -> int:
        """Standard normals one sample's increments are made of."""
        return sum(_word_count(self.dist, n) for n, _ in self.blocks)

    def increments(self, z: np.ndarray) -> np.ndarray:
        """Increments (d, n_steps, S) made of runs z (>= n_words, S) of
        standard normals, one column per sample, block by block."""
        parts, at = [], 0
        for n, _ in self.blocks:
            count = _word_count(self.dist, n)
            parts.append(_law(self.dist, n, z[at:at + count]))
            at += count
        return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)

    def partial_sums(self, steps: np.ndarray) -> np.ndarray:
        """Generators (d, N, S) from increments (d, n_steps, S).

        A walk block keeps all its partial sums.  A bridge block first
        recentres its increments by their mean, which preserves
        exchangeability and forces its last partial sum to vanish, and keeps
        the others.  Each sum, the mean's included, adds the (d, S) slabs
        of its increments in order; numpy's cumsum and mean over the short
        middle axis take several times as long.
        """
        d, _, count = steps.shape
        gens = np.empty((self.n_generators, d, count))  # one slab per generator
        at = row = 0
        for n, bridge in self.blocks:
            x = steps[:, at:at + n]
            at += n
            if bridge:
                total = x[:, 0].copy()
                for k in range(1, n):
                    total += x[:, k]
                x = x - (total / n)[:, None]
            kept = n - bridge
            gens[row:row + kept] = x[:, :kept].transpose(1, 0, 2)
            for k in range(row + 1, row + kept):
                gens[k] += gens[k - 1]
            row += kept
        if not np.isfinite(gens).all():
            raise DomainError("generators must be finite")
        return gens.transpose(1, 0, 2)

    def failed(self) -> SamplingError:
        return SamplingError(f"no {self.what} in general position after {_MAX_DRAW_RETRIES} attempts")

    def accepted(self, rng: np.random.Generator) -> tuple[ConeSample, int]:
        """The first cone drawn from ``rng`` in general position, and the
        number of draws rejected before it."""
        for attempt in range(_MAX_DRAW_RETRIES):
            steps = self.increments(rng.standard_normal((self.n_words, 1)))
            cone = ConeSample(self.partial_sums(steps)[:, :, 0].T)
            if cone.in_general_position():
                return cone, attempt
        raise self.failed()


def sample_walk(dist: DistributionSpec, n: int, rng: np.random.Generator) -> ConeSample:
    """Partial sums S_1..S_n of n increments, rejecting degenerate draws."""
    return _Draw.of(dist, Model(B_WALK, n, dist.d)).accepted(rng)[0]


def sample_bridge(dist: DistributionSpec, n: int, rng: np.random.Generator) -> ConeSample:
    """Centered partial sums S_1..S_{n-1} of a bridge of n increments.

    Increments are recentered by their mean, which preserves
    exchangeability and forces the nth partial sum to vanish.
    """
    return _Draw.of(dist, Model(A_BRIDGE, n, dist.d)).accepted(rng)[0]


# ---------------------------------------------------------------------------
# random streams


class _SampleStreams:
    """The random streams of one chunk of samples, over one Philox key.

    Draw t of the chunk that starts at sample s is one stream, numpy's
    Generator over the Philox sequence with key (seed, 0) and counter
    (0, 0, t, s).  The chunk's samples that make draw t read its standard
    normals in C order, a run of ``count`` each, in sample order, so the
    batches of a chunk read each stream one after another.  A stream adds
    one to its counter per block of four words, and no stream reads 2^64
    blocks, so no two streams share a counter.  Most chunks draw nothing
    again, so a stream's generator is built on its first use.
    """

    def __init__(self, seed: int, start: int) -> None:
        self._key = np.array([seed, 0], dtype=np.uint64)
        self._start = start
        self._draws: dict[int, np.random.Generator] = {}

    def normals(self, samples: int, count: int, draw: int) -> np.ndarray:
        """The next ``count`` normals of stream ``draw`` for each of the
        chunk's next ``samples`` samples to make that draw, in order:
        (samples, count)."""
        if draw not in self._draws:
            self._draws[draw] = np.random.Generator(np.random.Philox(
                key=self._key, counter=np.array([0, 0, draw, self._start], dtype=np.uint64)))
        return self._draws[draw].standard_normal((samples, count))


# ---------------------------------------------------------------------------
# Monte Carlo estimates


@dataclass(frozen=True)
class MCEstimate:
    """Sample mean with its standard error and exact-reference z-score."""

    mean: float
    stderr: float
    samples: int
    exact_ref: Optional[Fraction] = None
    z: Optional[float] = None
    rejected: int = 0


@dataclass(frozen=True)
class RunConfig:
    """One reproducible estimation run.

    The same (config, seed) pair yields bit-identical estimates for any
    worker count.  The seed is the first word of the Philox key, an
    integer in [0, 2^64).
    """

    query: FunctionalQuery
    dist: DistributionSpec
    samples: int
    seed: int
    workers: int = 1

    def __post_init__(self) -> None:
        for key in ("samples", "workers"):
            object.__setattr__(self, key, as_index(getattr(self, key), key))
        object.__setattr__(self, "seed", as_seed(self.seed))
        if self.samples < 1:
            raise DomainError("need at least one sample")
        if self.workers < 1:
            raise DomainError("worker count must be >= 1")
        if self.query.dimension != self.dist.d:
            raise DomainError(
                f"query dimension {self.query.dimension} != distribution dimension {self.dist.d}")


def _tangent_u(rec: geometry._SignRecord, j: int, i: int) -> np.ndarray:
    """Per sample, a value whose mean is the sum over its j-faces F of
    U_i(T_F C), the i-th conic quermassintegral of the tangent cone at F;
    the apex is the 0-face of a pointed cone, and its tangent cone is the
    cone.

    T_F C contains the j-dimensional span of F, so it meets every subspace
    of codimension i <= j, and it is no subspace, so U_i = 0 for i >= d.
    Otherwise the value is half the number of j-faces F whose T_F C meets
    one fixed subspace of codimension i, the kernel of the projection P_i
    onto the first i coordinates.  That happens exactly when F is not a
    face of the projected cone P_i C (Farkas); a projected full cone has
    no face.  By the conic Crofton formula U_i is half the probability of
    meeting a Haar subspace of codimension i; the mean of this value is
    instead half of E f_j(C) - E f_j(P_i C).  P_i C is the cone of the
    projected increments, again an exchangeable, sign-symmetric walk or
    bridge, in R^i, so the closed forms give both terms whatever the law.
    P_i C's record is level i of the cone's own (``_SignRecord.level``),
    and the apex masks are the pointed cones, ``~rec.full``.
    """
    if i >= rec.table.shape[1]:
        return np.zeros(len(rec.general))
    faces = (~rec.full)[None] if j == 0 else rec.faces(j)
    if i <= j:
        return 0.5 * faces.sum(axis=0)
    projected = rec.level(i)
    return 0.5 * projected.decided((faces & ~projected.faces(j)).sum(axis=0))


def _face_u(rec: geometry._SignRecord, m: int, i: int) -> np.ndarray:
    """Per sample, a value whose mean is the sum over its m-faces F of
    U_i(F), the i-th conic quermassintegral of the face itself
    (1 <= m <= d-1).

    F is a pointed m-dimensional cone: it meets every subspace of
    codimension i <= 0 and almost surely none of codimension i >= m.
    Otherwise the value is half the number of m-faces that meet the kernel
    of the projection onto the first i coordinates, that is whose
    generators, so projected, hold the origin in their hull (have no
    facet).  No proof ties its mean to the closed form as for
    :func:`_tangent_u`; the exact orbit averages of the tests do.  Every
    face of a batch is decided in one record, read off level i of the
    cone's record (``_SignRecord.subset_level``).
    """
    if i >= m:
        return np.zeros(len(rec.general))
    faces = rec.faces(m)
    if i <= 0:
        return 0.5 * faces.sum(axis=0)
    projected, s = rec.subset_level(m, i, faces)
    hits = projected.decided(~projected.facets.any(axis=0))
    return 0.5 * np.bincount(s, weights=hits, minlength=len(rec.general))


def _quermassintegral(q: FunctionalQuery, rec: geometry._SignRecord) -> np.ndarray:
    # the full space scores by the subspace convention
    d = rec.table.shape[1]
    return _tangent_u(rec, 0, q.k) + np.where(rec.full, float((d - q.k) % 2), 0.0)


def _intrinsic_volume(q: FunctionalQuery, rec: geometry._SignRecord) -> np.ndarray:
    # Crofton: v_k = U_{k-1} - U_{k+1}, with U_{-1} = 1/2; the nested
    # kernels make each value 0 or 1/2.  A full cone has v_d = 1.
    top = rec.full & (q.k == rec.table.shape[1])
    return _tangent_u(rec, 0, q.k - 1) - _tangent_u(rec, 0, q.k + 1) + top


def _face_intrinsic(q: FunctionalQuery, rec: geometry._SignRecord) -> np.ndarray:
    if q.m == 0:  # the apex {0} is a subspace, with v_0 = 1
        return (~rec.full).astype(float)
    if q.m == rec.table.shape[1]:  # no d-face, as the closed form reads
        return np.zeros(len(rec.general))
    return _face_u(rec, q.m, q.l - 1) - _face_u(rec, q.m, q.l + 1)


MEASURES: dict[str, Callable[[FunctionalQuery, geometry._SignRecord], np.ndarray]] = {
    "absorption": lambda q, rec: rec.full.astype(float),
    "nonabsorption": lambda q, rec: (~rec.full).astype(float),
    "fk": lambda q, rec: rec.faces(q.k).sum(axis=0).astype(float),
    "Uk": _quermassintegral,
    "vk": _intrinsic_volume,
    "Lambda": lambda q, rec: _face_u(rec, q.k, q.k - 1),
    "Y": lambda q, rec: _face_u(rec, q.m, q.l),
    "Z": lambda q, rec: _tangent_u(rec, q.j, q.k),
    "face_intrinsic": _face_intrinsic,
    "tangent_intrinsic": lambda q, rec: (_tangent_u(rec, q.j, q.k - 1)
                                         - _tangent_u(rec, q.j, q.k + 1)),
    # 1-based partial sums -> generator rows
    "face_prob": lambda q, rec: rec.face([i - 1 for i in q.indices]).astype(float),
    "subspace_prob": lambda q, rec: 2.0 * _tangent_u(rec, 0, q.k) + rec.full,
    # in general position the origin is in the points' hull iff they span R^d
    "joint_absorption": lambda q, rec: rec.full.astype(float),
}
"""Per functional name, the measurement (query, sign record) -> one value
per sample whose expectation is the functional, or NaN where a projection
of the sample has an exactly zero minor.  The record is of the cones one
round drew, sample axis last; it may hold sets out of general position,
whose values the sampler discards.  A joint_absorption
cone is spanned by the stacked points of all blocks, every other cone is
drawn from the query's model.  Every verdict reads the full-cone and face
masks of a sign record: of the cones, or of their generators (or a
face's) on their first coordinates, all read off the cone's one minor
expansion.  So a Crofton value is the cone against one fixed subspace,
not the cone's own U_i, and its mean is the functional by
distribution-freeness (:func:`_tangent_u`, :func:`_face_u`)."""


class _Sampler:
    """Draws and decides the samples of one query, a batch at a time."""

    def __init__(self, query: FunctionalQuery, dist: DistributionSpec) -> None:
        self.query = query
        self.draw = _Draw.of(dist, query.model, query.walk_lengths, query.bridge_lengths)
        self.measure = MEASURES[query.functional]
        n, d = self.draw.n_generators, dist.d
        if n < d:  # no d x d minor, so no draw is in general position
            raise DomainError(f"{self.draw.what} of {n} points in R^{d}: never in general position")
        size = self.draw.n_steps * d + sum(math.comb(n, k) * k for k in range(1, d + 1))
        self.batch = max(1, _BATCH_ELEMENTS // size)

    def values(self, streams: _SampleStreams, count: int) -> tuple[np.ndarray, int]:
        """The values of the chunk's next ``count`` samples, and the draws
        rejected on the way.

        Every sample draws its increments, and round t measures draw t of
        every pending sample at once, from the next runs of stream t, on the
        round's whole sign record, sets out of general position included.
        A miss is a draw not in general position, or one whose value is NaN
        (a projection with an exactly zero minor, probability zero) and that
        is not a full cone under ``conditioned``; it counts as a rejected
        draw.  A miss, or a full cone under ``conditioned``, is pending in
        the next round, which overwrites the value it got.
        """
        values = np.empty(count)
        pending = np.ones(count, dtype=bool)
        misses = fulls = 0  # per pending sample: misses in a row, full cones
        rejected = draw = 0
        while pending.any():
            rec = geometry._SignRecord.of(
                self.draw.partial_sums(self.draws(streams, np.count_nonzero(pending), draw)))
            got = values[pending] = self.measure(self.query, rec)
            full = rec.general & (rec.full if self.query.conditioned else False)
            miss = ~rec.general | (np.isnan(got) & ~full)
            rejected += int(np.count_nonzero(miss))
            misses = np.where(miss, misses + 1, 0)
            fulls = fulls + full
            if misses.max() >= _MAX_DRAW_RETRIES:
                raise self.draw.failed()
            if fulls.max() > _MAX_CONDITION_RETRIES:
                raise SamplingError("conditioning on a non-full cone exceeded the retry budget")
            again = miss | full
            misses, fulls = misses[again], fulls[again]
            pending[pending] = again
            draw += 1
        return values, rejected

    def draws(self, streams: _SampleStreams, samples: int, draw: int) -> np.ndarray:
        """The increments (d, n_steps, samples) of the chunk's next
        ``samples`` samples to make draw ``draw``, made of their runs of
        standard normals in stream ``draw`` (``_SampleStreams.normals``),
        turned once to one row per normal."""
        return self.draw.increments(
            streams.normals(samples, self.draw.n_words, draw).T.copy())


def _chunk_stats(args: tuple) -> tuple[float, float, int]:
    query, dist, seed, start, count = args
    streams = _SampleStreams(seed, start)
    sampler = _Sampler(query, dist)
    total = 0.0
    total_sq = 0.0
    rejected = 0
    for lo in range(0, count, sampler.batch):
        values, rej = sampler.values(streams, min(sampler.batch, count - lo))
        # values are integers or halves and their squares quarters, so these
        # sums are exact in any order
        total += float(values.sum())
        total_sq += float(values @ values)
        rejected += rej
    return total, total_sq, rejected


@contextmanager
def sampling(configs: Sequence[RunConfig]) -> Iterator[Callable[[], list[MCEstimate]]]:
    """Decide every chunk of the configs; the context gives a function that,
    called once, returns their estimates, in order, once all are decided.

    Each estimate is the sample mean and standard error, plus the z-score
    against the exact value from the formula layer.  The chunks are decided
    in this process when the function is called or, when a config asks for
    several workers and there are several chunks, in one process pool from
    the start of the block on, so the block can work in this process while
    the pool samples.  The pool has as many workers as the most any config
    asks for, and no more than chunks.  Each config's chunk sums are
    reduced in chunk order, so no estimate depends on the pool.
    """
    for config in configs:
        if config.query.functional not in MEASURES:
            raise DomainError(
                f"functional {config.query.functional!r} has no Monte Carlo measurement; "
                "evaluate it exactly instead")
    exacts = [evaluate_query(config.query).exact for config in configs]
    tasks = [[(c.query, c.dist, c.seed, start, min(_CHUNK, c.samples - start))
              for start in range(0, c.samples, _CHUNK)] for c in configs]
    flat = [task for chunks in tasks for task in chunks]

    def estimates(parts: Iterator[tuple[float, float, int]]) -> list[MCEstimate]:
        return [_reduced(config.samples, exact, itertools.islice(parts, len(chunks)))
                for config, exact, chunks in zip(configs, exacts, tasks)]

    # a pool starts all its workers at its first task, so more workers than
    # tasks would only be idle processes
    workers = min(max((config.workers for config in configs), default=1), len(flat))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a pool's run pays its import

        # a chunk takes about a millisecond, a round trip to a worker a
        # good part of one: send the tasks in runs of 1/32 of a worker's
        # share, so that no worker idles long behind another's last run
        chunksize = max(1, len(flat) // (32 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = pool.map(_chunk_stats, flat, chunksize=chunksize)  # sends every task now
            yield lambda: estimates(parts)
    else:
        yield lambda: estimates(map(_chunk_stats, flat))


def _reduced(n: int, exact: Fraction, parts: Iterable[tuple[float, float, int]]) -> MCEstimate:
    """The estimate of n samples from its chunks' sums, in chunk order."""
    total = 0.0
    total_sq = 0.0
    rejected = 0
    for s, s2, rej in parts:  # fixed chunk order keeps float sums associative
        total += s
        total_sq += s2
        rejected += rej
    mean = total / n
    var = max(total_sq - n * mean * mean, 0.0) / (n - 1) if n > 1 else 0.0
    stderr = math.sqrt(var / n)
    z = (mean - float(exact)) / stderr if stderr > 0 else None
    return MCEstimate(mean=mean, stderr=stderr, samples=n,
                      exact_ref=exact, z=z, rejected=rejected)


def estimate(config: RunConfig) -> MCEstimate:
    """Unbiased Monte Carlo estimate of the queried functional
    (:func:`sampling` of the one config)."""
    with sampling([config]) as estimates:
        return estimates()[0]
