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
from typing import Callable, Optional

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
from .geometry import ConeSample, is_face, is_full_cone

FAMILIES = ("gaussian_iid", "heavy_tail_iid", "scaled_gaussian_exchangeable")

_MASK64 = (1 << 64) - 1
_CHUNK = 2048
_MAX_DRAW_RETRIES = 128
_MAX_CONDITION_RETRIES = 200_000


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


def _walk_generators(dist, n, rng):
    return np.cumsum(sample_increments(dist, n, rng), axis=0)


def _bridge_generators(dist, n, rng):
    steps = sample_increments(dist, n, rng)
    centered = steps - steps.mean(axis=0)
    return np.cumsum(centered, axis=0)[:-1]


def _general_position_draw(draw: Callable[[], np.ndarray], what: str) -> tuple[ConeSample, int]:
    """The first cone of generators from ``draw`` that is in general
    position, and the number of draws rejected before it."""
    for attempt in range(_MAX_DRAW_RETRIES):
        cone = ConeSample(draw())
        if cone.in_general_position():
            return cone, attempt
    raise SamplingError(f"no {what} in general position after {_MAX_DRAW_RETRIES} attempts")


def _draw_cone(model: Model, dist: DistributionSpec,
               rng: np.random.Generator) -> tuple[ConeSample, int]:
    draw = _bridge_generators if model.is_bridge else _walk_generators
    return _general_position_draw(lambda: draw(dist, model.n, rng),
                                  f"draw ({dist.family}, n={model.n}, d={model.d})")


def sample_walk(dist: DistributionSpec, n: int, rng: np.random.Generator) -> ConeSample:
    """Partial sums S_1..S_n of n increments, rejecting degenerate draws."""
    cone, _ = _draw_cone(Model(B_WALK, n, dist.d), dist, rng)
    return cone


def sample_bridge(dist: DistributionSpec, n: int, rng: np.random.Generator) -> ConeSample:
    """Centered partial sums S_1..S_{n-1} of a bridge of n increments.

    Increments are recentered by their mean, which preserves
    exchangeability and forces the nth partial sum to vanish.
    """
    cone, _ = _draw_cone(Model(A_BRIDGE, n, dist.d), dist, rng)
    return cone


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
        self._key = np.array([seed, 0], dtype=np.uint64)
        self._bg = np.random.Philox(key=self._key)
        self._gen = np.random.Generator(self._bg)
        self._template = self._bg.state

    def at(self, index: int) -> np.random.Generator:
        state = dict(self._template)
        state["state"] = {
            "counter": np.array([0, 0, 0, index & _MASK64], dtype=np.uint64),
            "key": self._key,
        }
        state["buffer_pos"] = 4  # mark the output buffer as drained
        self._bg.state = state
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


def _u(gens: np.ndarray, k: int, rng: np.random.Generator) -> float:
    """Half the indicator that the cone of the rows meets a Haar subspace of
    codimension k; its expectation is the quermassintegral U_k of a pointed
    cone.

    The orthogonal complement of a Haar subspace is Haar, and so is the
    column span of a d x k standard Gaussian matrix.  The cone meets the
    subspace exactly when the origin lies in the hull of the generators
    projected onto that span, and any basis of it gives the same verdict:
    bases differ by an invertible map of the k coordinates.  So the
    generators are multiplied by the Gaussian matrix itself.
    """
    if k == 0:
        return 0.5
    gauss = rng.standard_normal((gens.shape[1], k))
    return 0.5 if geometry._origin_in_hull(gens @ gauss) else 0.0


def _v(gens: np.ndarray, k: int, rng: np.random.Generator) -> float:
    """Whether the metric projection of a standard Gaussian point lands in a
    k-face of the cone of the rows (k = d inside it); its expectation is the
    conic intrinsic volume v_k."""
    g = rng.standard_normal(gens.shape[1])
    return 1.0 if len(geometry._projection_support(gens, g)[0]) == k else 0.0


def _face_sum(cone: ConeSample, j: int, tangent: bool,
              value: Callable[[np.ndarray], float]) -> float:
    """Sum of ``value`` over the j-faces of the cone, applied to the face's
    generators, or with ``tangent`` to the base of its tangent cone.  The
    apex is the 0-face of a pointed cone, and its tangent cone is the cone."""
    gens = cone.generators
    total = 0.0
    for face in geometry._faces(cone, j):
        total += value(geometry._tangent_base(gens, face) if tangent else gens[list(face)])
    return total


def _quermassintegral(q: FunctionalQuery, cone: ConeSample, rng: np.random.Generator) -> float:
    d, k = cone.d, q.k
    if not geometry._faces(cone, 0):
        # the full space scores by the subspace convention
        return 1.0 if (d - k) % 2 == 1 else 0.0
    return 0.0 if k == d else _u(cone.generators, k, rng)


MEASURES: dict[str, Callable[[FunctionalQuery, ConeSample, np.random.Generator], float]] = {
    "absorption": lambda q, cone, rng: 1.0 if is_full_cone(cone) else 0.0,
    "nonabsorption": lambda q, cone, rng: 0.0 if is_full_cone(cone) else 1.0,
    "fk": lambda q, cone, rng: float(len(geometry._faces(cone, q.k))),
    "Uk": _quermassintegral,
    "vk": lambda q, cone, rng: _v(cone.generators, q.k, rng),
    "Lambda": lambda q, cone, rng: _face_sum(cone, q.k, False, lambda b: _u(b, q.k - 1, rng)),
    "Y": lambda q, cone, rng: _face_sum(cone, q.m, False, lambda b: _u(b, q.l, rng)),
    # the top quermassintegral of a tangent cone vanishes
    "Z": lambda q, cone, rng: 0.0 if q.k == cone.d else _face_sum(
        cone, q.j, True, lambda b: _u(b, q.k - q.j, rng)),
    # _faces lists no d-face, so m = d measures 0, as the closed form reads
    "face_intrinsic": lambda q, cone, rng: _face_sum(cone, q.m, False, lambda b: _v(b, q.l, rng)),
    "tangent_intrinsic": lambda q, cone, rng: _face_sum(
        cone, q.j, True, lambda b: _v(b, q.k - q.j, rng)),
    # 1-based partial sums -> generator rows
    "face_prob": lambda q, cone, rng: 1.0 if is_face(cone, [i - 1 for i in q.indices]) else 0.0,
    "subspace_prob": lambda q, cone, rng: 2.0 * _u(cone.generators, q.k, rng),
    # in general position the origin is in the points' hull iff they span R^d
    "joint_absorption": lambda q, cone, rng: 1.0 if is_full_cone(cone) else 0.0,
}
"""Per functional name, the measurement (query, cone, rng) -> value whose
expectation is the functional.  A joint_absorption cone is spanned by the
stacked points of all blocks, every other cone is drawn from the query's
model."""


def _draw_sample(query: FunctionalQuery, dist: DistributionSpec,
                 rng: np.random.Generator) -> tuple[ConeSample, int]:
    if query.model is None:
        return _general_position_draw(lambda: np.vstack(
            [_walk_generators(dist, n, rng) for n in query.walk_lengths]
            + [_bridge_generators(dist, m, rng) for m in query.bridge_lengths]), "joint draw")
    model = query.model
    cone, rejected = _draw_cone(model, dist, rng)
    if query.conditioned:
        guard = 0
        while is_full_cone(cone):
            guard += 1
            if guard > _MAX_CONDITION_RETRIES:
                raise SamplingError("conditioning on a non-full cone exceeded the retry budget")
            cone, rej = _draw_cone(model, dist, rng)
            rejected += rej
    return cone, rejected


def _chunk_stats(args: tuple) -> tuple[float, float, int]:
    query, dist, seed, start, count = args
    streams = _SampleStreams(seed)
    measure = MEASURES[query.functional]
    total = 0.0
    total_sq = 0.0
    rejected = 0
    for i in range(start, start + count):
        rng = streams.at(i)
        sample, rej = _draw_sample(query, dist, rng)
        rejected += rej
        value = measure(query, sample, rng)
        total += value
        total_sq += value * value
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
