"""Samplers for exchangeable walks and bridges, and seeded Monte Carlo estimators.

Sampling distributions only need the model's symmetry hypotheses, so three
stress levels are provided: i.i.d. Gaussian increments, componentwise
Cauchy increments (no mean), and Gaussians multiplied by one shared
standard log-normal scale (dependent but still exchangeable with symmetric
signs).

Estimates are reproducible by construction: the random stream of sample
``i`` is the Philox stream with key ``seed`` and counter block ``i``, so
results do not depend on worker count or scheduling, and chunk partial
sums are reduced in fixed chunk order.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import geometry
from .errors import DomainError, SamplingError, as_index
from .formulas import (
    A_BRIDGE,
    B_WALK,
    FunctionalQuery,
    Model,
    evaluate_query,
)
from .geometry import ConeSample

FAMILIES = ("gaussian_iid", "heavy_tail_iid", "scaled_gaussian_exchangeable")

_MASK64 = (1 << 64) - 1
_CHUNK = 2048
_MAX_DRAW_RETRIES = 128
_MAX_CONDITION_RETRIES = 200_000
# Rough cap on the array elements of one batch of samples (increments,
# Gaussian block, minor products); a chunk is decided in batches this size.
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
    if dist.family == "gaussian_iid":
        return rng.standard_normal((n, dist.d))
    if dist.family == "heavy_tail_iid":
        return rng.standard_cauchy((n, dist.d))
    scale = rng.lognormal(mean=0.0, sigma=1.0)
    return scale * rng.standard_normal((n, dist.d))



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

    def increments(self, rng: np.random.Generator, out: np.ndarray) -> None:
        """Draw one sample's increments into ``out``, block by block."""
        at = 0
        for n, _ in self.blocks:
            out[at:at + n] = sample_increments(self.dist, n, rng)
            at += n

    def partial_sums(self, steps: np.ndarray) -> np.ndarray:
        """Generators (S, N, d) from increments (S, n_steps, d).

        A walk block keeps all its partial sums.  A bridge block first
        recentres its increments by their mean, which preserves
        exchangeability and forces its last partial sum to vanish, and keeps
        the others.
        """
        parts = []
        at = 0
        for n, bridge in self.blocks:
            x = steps[:, at:at + n]
            at += n
            parts.append(np.cumsum(x - x.mean(axis=1, keepdims=True), axis=1)[:, :-1] if bridge
                         else np.cumsum(x, axis=1))
        gens = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
        if not np.isfinite(gens).all():
            raise DomainError("generators must be finite")
        return gens

    def failed(self) -> SamplingError:
        return SamplingError(f"no {self.what} in general position after {_MAX_DRAW_RETRIES} attempts")

    def accepted(self, rng: np.random.Generator) -> tuple[ConeSample, int]:
        """The first cone drawn from ``rng`` in general position, and the
        number of draws rejected before it."""
        steps = np.empty((1, self.n_steps, self.dist.d))
        for attempt in range(_MAX_DRAW_RETRIES):
            self.increments(rng, steps[0])
            cone = ConeSample(self.partial_sums(steps)[0])
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
# per-sample random streams


class _SampleStreams:
    """Generators addressed by sample index over one Philox key.

    Stream i is the Philox sequence with key ``seed`` and starting counter
    block (0, 0, 0, i); each stream has 2^192 values of room, and resetting
    the counter on one reused bit generator avoids per-sample construction
    cost.
    """

    def __init__(self, seed: int) -> None:
        seed = int(seed) & _MASK64
        self._bg = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
        self._gen = np.random.Generator(self._bg)
        self._state = self._bg.state  # a copy; setting it copies it back
        self._state["buffer_pos"] = 4  # mark the output buffer as drained

    def at(self, index: int) -> np.random.Generator:
        self._state["state"]["counter"][:] = (0, 0, 0, index & _MASK64)
        self._bg.state = self._state
        return self._gen


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
    worker count.
    """

    query: FunctionalQuery
    dist: DistributionSpec
    samples: int
    seed: int
    workers: int = 1

    def __post_init__(self) -> None:
        for key in ("samples", "seed", "workers"):
            object.__setattr__(self, key, as_index(getattr(self, key), key))
        if self.samples < 1:
            raise DomainError("need at least one sample")
        if self.workers < 1:
            raise DomainError("worker count must be >= 1")
        if self.query.dimension != self.dist.d:
            raise DomainError(
                f"query dimension {self.query.dimension} != distribution dimension {self.dist.d}")



@dataclass(frozen=True)
class _Chunk:
    """Samples decided together, all in general position.

    ``gens`` (S, N, d) holds each sample's generators, ``rec`` their sign
    record and ``full`` marks the full cones.  ``gauss`` (S, ...) holds the
    Gaussian block each sample drew right after its increments, of the
    shape its measurement's ``block`` gives.
    """

    gens: np.ndarray
    rec: geometry._SignRecord
    full: np.ndarray
    gauss: np.ndarray

    def take(self, which: np.ndarray) -> _Chunk:
        return _Chunk(self.gens[which], self.rec.take(which), self.full[which], self.gauss[which])


def _haar_hits(gens: np.ndarray, gauss: np.ndarray) -> np.ndarray:
    """Per sample p, whether the cone of the rows of gens[p] meets a Haar
    subspace of codimension k, given a d x k standard Gaussian matrix
    gauss[p]; half this indicator has expectation U_k for a pointed cone.

    The orthogonal complement of a Haar subspace is Haar, and so is the
    column span of a d x k standard Gaussian matrix.  The cone meets the
    subspace exactly when the origin lies in the hull of the generators
    projected onto that span, and any basis of it gives the same verdict:
    bases differ by an invertible map of the k coordinates.  So the
    generators are multiplied by the Gaussian matrix itself.  Every cone
    meets a subspace of codimension 0.
    """
    if gauss.shape[-1] == 0:
        return np.ones(len(gens), dtype=bool)
    return geometry._origin_in_hulls(gens @ gauss)


def _v(gens: np.ndarray, k: int, g: np.ndarray) -> np.ndarray:
    """Per sample p, whether the metric projection of the standard Gaussian
    point g[p] lands in a k-face of the cone of the rows of gens[p] (k = d
    inside it); its expectation is the conic intrinsic volume v_k.  Each
    cone is projected onto alone."""
    return np.array([len(geometry._projection_support(x, y)[0]) == k
                     for x, y in zip(gens, g)], dtype=float)


def _face_sum(c: _Chunk, j: int, tangent: bool,
              value: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> np.ndarray:
    """Per sample, the sum of ``value`` over its j-faces, applied to the
    faces' generators, or with ``tangent`` to the bases of their tangent
    cones, and to the faces' Gaussian blocks.  The apex is the 0-face of a
    pointed cone, and its tangent cone is the cone.  The f-th face of a
    sample, in combinations order, reads block f of its Gaussians, as if
    each face drew its own in turn."""
    mask = geometry._face_masks(c.rec, j)
    s, f = np.nonzero(mask)
    rank = np.cumsum(mask, axis=1)[s, f] - 1
    faces = geometry._subsets(c.gens.shape[1], j)[f]
    if tangent:
        n, d = c.gens.shape[1:]
        bases = np.empty((len(s), n - j, d - j))
        for p, (i, face) in enumerate(zip(s, faces.tolist())):
            bases[p] = geometry._tangent_base(c.gens[i], face)
    else:
        bases = c.gens[s[:, None], faces]
    return np.bincount(s, weights=value(bases, c.gauss[s, rank]), minlength=len(c.gens))


def _half_hits(bases: np.ndarray, gauss: np.ndarray) -> np.ndarray:
    return 0.5 * _haar_hits(bases, gauss)


def _quermassintegral(q: FunctionalQuery, c: _Chunk) -> np.ndarray:
    d = c.gens.shape[2]
    # the full space scores by the subspace convention
    out = np.where(c.full, float((d - q.k) % 2), 0.0)
    if q.k < d:
        pointed = ~c.full
        out[pointed] = _half_hits(c.gens[pointed], c.gauss[pointed])
    return out


def _face_prob(q: FunctionalQuery, c: _Chunk) -> np.ndarray:
    rows = [i - 1 for i in q.indices]  # 1-based partial sums -> generator rows
    at = np.flatnonzero((geometry._subsets(c.gens.shape[1], len(rows)) == rows).all(axis=1))[0]
    return geometry._face_masks(c.rec, len(rows))[:, at].astype(float)


class _Measure(NamedTuple):
    """``value(query, chunk)`` gives one value per sample whose expectation
    is the functional; ``block(query, N, d)`` is the shape of the Gaussian
    block each sample draws for it, for cones of N generators in R^d: the
    largest it could need."""

    value: Callable[[FunctionalQuery, _Chunk], np.ndarray]
    block: Callable[[FunctionalQuery, int, int], tuple[int, ...]] = lambda q, n, d: (0,)


MEASURES: dict[str, _Measure] = {
    "absorption": _Measure(lambda q, c: c.full.astype(float)),
    "nonabsorption": _Measure(lambda q, c: (~c.full).astype(float)),
    "fk": _Measure(lambda q, c: geometry._face_masks(c.rec, q.k).sum(axis=1).astype(float)),
    "Uk": _Measure(_quermassintegral, lambda q, n, d: (d, q.k if q.k < d else 0)),
    "vk": _Measure(lambda q, c: _v(c.gens, q.k, c.gauss), lambda q, n, d: (d,)),
    "Lambda": _Measure(lambda q, c: _face_sum(c, q.k, False, _half_hits),
                       lambda q, n, d: (math.comb(n, q.k), d, q.k - 1)),
    "Y": _Measure(lambda q, c: _face_sum(c, q.m, False, _half_hits),
                  lambda q, n, d: (math.comb(n, q.m), d, q.l)),
    # the top quermassintegral of a tangent cone vanishes
    "Z": _Measure(lambda q, c: np.zeros(len(c.gens)) if q.k == c.gens.shape[2] else _face_sum(
        c, q.j, True, _half_hits),
        lambda q, n, d: (math.comb(n, q.j), d - q.j, q.k - q.j) if q.k < d else (0,)),
    # the face masks hold no d-face, so m = d measures 0, as the closed form reads
    "face_intrinsic": _Measure(lambda q, c: _face_sum(c, q.m, False, lambda b, g: _v(b, q.l, g)),
                               lambda q, n, d: (math.comb(n, q.m), d)),
    "tangent_intrinsic": _Measure(
        lambda q, c: _face_sum(c, q.j, True, lambda b, g: _v(b, q.k - q.j, g)),
        lambda q, n, d: (math.comb(n, q.j), d - q.j)),
    "face_prob": _Measure(_face_prob),
    "subspace_prob": _Measure(lambda q, c: _haar_hits(c.gens, c.gauss).astype(float),
                              lambda q, n, d: (d, q.k)),
    # in general position the origin is in the points' hull iff they span R^d
    "joint_absorption": _Measure(lambda q, c: c.full.astype(float)),
}
"""Per functional name, the measurement over a chunk of cones.  A
joint_absorption cone is spanned by the stacked points of all blocks,
every other cone is drawn from the query's model."""


class _Sampler:
    """Draws and decides the samples of one query, a batch at a time."""

    def __init__(self, query: FunctionalQuery, dist: DistributionSpec) -> None:
        self.query = query
        self.draw = _Draw.of(dist, query.model, query.walk_lengths, query.bridge_lengths)
        self.measure = MEASURES[query.functional]
        n, d = self.draw.n_generators, dist.d
        if n < d:  # no d x d minor, so no draw is in general position
            raise self.draw.failed()
        self.block = self.measure.block(query, n, d)
        size = (self.draw.n_steps * d + math.prod(self.block)
                + sum(math.comb(n, k) * k for k in range(1, d + 1)))
        self.batch = max(1, _BATCH_ELEMENTS // size)

    def values(self, streams: _SampleStreams, indices: range) -> tuple[np.ndarray, int]:
        """Each sample's value, and the draws rejected on the way.

        Every sample draws its increments and then its Gaussian block from
        its own stream; the batch is then decided at once.  A sample whose
        first draw is not in general position, or is a full cone under
        ``conditioned``, is replayed alone.
        """
        steps = np.empty((len(indices), self.draw.n_steps, self.draw.dist.d))
        gauss = np.empty((len(indices), *self.block))
        for s, i in enumerate(indices):
            rng = streams.at(i)
            self.draw.increments(rng, steps[s])
            if gauss.size:
                rng.standard_normal(out=gauss[s])
        gens = self.draw.partial_sums(steps)
        rec = geometry._SignRecord.of(gens)
        chunk = _Chunk(gens, rec, geometry._full_cones(rec), gauss)
        redo = ~rec.general
        if self.query.conditioned:
            redo |= chunk.full
        values = np.empty(len(indices))
        if not redo.all():
            values[~redo] = self.measure.value(
                self.query, chunk.take(~redo) if redo.any() else chunk)
        rejected = 0
        for s in np.flatnonzero(redo):
            values[s], rej = self.replay(streams.at(indices[s]))
            rejected += rej
        return values, rejected

    def replay(self, rng: np.random.Generator) -> tuple[float, int]:
        """One sample drawn and decided alone, for draws that depend on a
        verdict: draws not in general position are rejected and, under
        ``conditioned``, full cones are drawn again."""
        rejected = 0
        for _ in range(_MAX_CONDITION_RETRIES + 1):
            cone, rej = self.draw.accepted(rng)
            rejected += rej
            full = geometry._full_cones(cone._signs)
            if not (self.query.conditioned and full[0]):
                chunk = _Chunk(cone.generators[None], cone._signs, full,
                               rng.standard_normal((1, *self.block)))
                return float(self.measure.value(self.query, chunk)[0]), rejected
        raise SamplingError("conditioning on a non-full cone exceeded the retry budget")


def _chunk_stats(args: tuple) -> tuple[float, float, int]:
    query, dist, seed, start, count = args
    streams = _SampleStreams(seed)
    sampler = _Sampler(query, dist)
    total = 0.0
    total_sq = 0.0
    rejected = 0
    stop = start + count
    for lo in range(start, stop, sampler.batch):
        values, rej = sampler.values(streams, range(lo, min(lo + sampler.batch, stop)))
        # values are integers or halves and their squares quarters, so these
        # sums are exact in any order
        total += float(values.sum())
        total_sq += float(values @ values)
        rejected += rej
    return total, total_sq, rejected


def estimate(config: RunConfig) -> MCEstimate:
    """Unbiased Monte Carlo estimate of the queried functional.

    Returns the sample mean and standard error, plus the z-score against
    the exact value from the formula layer.
    """
    query = config.query
    if query.functional not in MEASURES:
        raise DomainError(
            f"functional {query.functional!r} has no Monte Carlo measurement; "
            "evaluate it exactly instead")
    exact = evaluate_query(query).exact
    n = config.samples
    chunks = [(query, config.dist, config.seed, start, min(_CHUNK, n - start))
              for start in range(0, n, _CHUNK)]
    if config.workers > 1 and len(chunks) > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            parts = list(pool.map(_chunk_stats, chunks, chunksize=1))
    else:
        parts = [_chunk_stats(c) for c in chunks]
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
