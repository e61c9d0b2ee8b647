"""Samplers for exchangeable walks and bridges, and seeded Monte Carlo estimators.

Sampling distributions only need the model's symmetry hypotheses, so three
stress levels are provided: i.i.d. Gaussian increments, componentwise
Cauchy increments (no mean), and Gaussians multiplied by one shared random
scale (dependent but still exchangeable with symmetric signs).

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
from .errors import DomainError, SamplingError
from .formulas import (
    A_BRIDGE,
    B_WALK,
    FunctionalQuery,
    Model,
    evaluate_query,
)
from .geometry import (
    ConeSample,
    TAG_BRIDGE,
    TAG_WALK,
    count_k_faces,
    is_face,
    is_full_cone,
)

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
    surely.  ``scale_sigma`` is the log-normal sigma of the shared scale in
    the dependent family.
    """

    family: str
    d: int
    scale_sigma: float = 1.0

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise DomainError(f"unknown distribution family {self.family!r}; expected {FAMILIES}")
        if self.d < 1:
            raise DomainError(f"dimension must be >= 1, got d={self.d}")
        if self.scale_sigma <= 0:
            raise DomainError("scale_sigma must be positive")


def sample_increments(dist: DistributionSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n increment vectors in R^d according to the family."""
    if n < 1:
        raise DomainError(f"need at least one increment, got n={n}")
    if dist.family == "gaussian_iid":
        return rng.standard_normal((n, dist.d))
    if dist.family == "heavy_tail_iid":
        return rng.standard_cauchy((n, dist.d))
    scale = rng.lognormal(mean=0.0, sigma=dist.scale_sigma)
    return scale * rng.standard_normal((n, dist.d))


def _walk_generators(dist, n, rng):
    return np.cumsum(sample_increments(dist, n, rng), axis=0)


def _bridge_generators(dist, n, rng):
    steps = sample_increments(dist, n, rng)
    centered = steps - steps.mean(axis=0)
    return np.cumsum(centered, axis=0)[:-1]


def _draw_cone(model: Model, dist: DistributionSpec, rng: np.random.Generator,
               max_retries: int = _MAX_DRAW_RETRIES) -> tuple[ConeSample, int]:
    if dist.d != model.d:
        raise DomainError(f"distribution dimension {dist.d} != model dimension {model.d}")
    draw, tag = ((_bridge_generators, TAG_BRIDGE) if model.is_bridge
                 else (_walk_generators, TAG_WALK))
    for attempt in range(max_retries):
        cone = ConeSample(draw(dist, model.n, rng), tag)
        if cone.in_general_position():
            return cone, attempt
    raise SamplingError(
        f"no draw in general position after {max_retries} attempts "
        f"({dist.family}, n={model.n}, d={model.d})")


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
        if self.samples < 1:
            raise DomainError("need at least one sample")
        if self.workers < 1:
            raise DomainError("worker count must be >= 1")
        if self.query.dimension != self.dist.d:
            raise DomainError(
                f"query dimension {self.query.dimension} != distribution dimension {self.dist.d}")


def _hits_random_subspace(gens: np.ndarray, perp_dim: int, rng: np.random.Generator) -> bool:
    """Whether the cone meets a Haar subspace of codimension ``perp_dim``.

    Sampling the orthogonal complement directly is equivalent (complements
    of Haar subspaces are Haar) and reduces the test to projecting the
    generators onto ``perp_dim`` coordinates.
    """
    if perp_dim == 0:
        return True
    basis = geometry._haar_basis(gens.shape[1], perp_dim, rng)
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
    return 1.0 if geometry._projection_face_dim(cone.generators, g, cone.tol) == q.k else 0.0


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
        if geometry._projection_face_dim(gens[list(face)], g, cone.tol) == q.l:
            total += 1.0
    return total


def _tangent_sum_v(q: FunctionalQuery, cone: ConeSample, rng: np.random.Generator) -> float:
    j, k, d = q.j, q.k, cone.d
    if j == 0:
        if _full(q, cone):
            return 0.0
        g = rng.standard_normal(d)
        return 1.0 if geometry._projection_face_dim(cone.generators, g, cone.tol) == k else 0.0
    total = 0.0
    for face in geometry._faces(cone, j):
        g = rng.standard_normal(d - j)
        base = geometry._tangent_base(cone.generators, face)
        if geometry._projection_face_dim(base, g, cone.tol) == k - j:
            total += 1.0
    return total


MEASURES: dict[str, Callable[[FunctionalQuery, ConeSample, np.random.Generator], float]] = {
    "absorption": lambda q, cone, rng: 1.0 if is_full_cone(cone) else 0.0,
    "nonabsorption": lambda q, cone, rng: 0.0 if is_full_cone(cone) else 1.0,
    "fk": _face_count,
    "Uk": _quermassintegral,
    "vk": _intrinsic_volume,
    "Lambda": lambda q, cone, rng: _face_sum_u(q.k, q.k - 1, cone, rng),
    "Y": lambda q, cone, rng: _face_sum_u(q.m, q.l, cone, rng),
    "Z": _tangent_sum_u,
    "face_intrinsic": _face_sum_v,
    "tangent_intrinsic": _tangent_sum_v,
    # 1-based partial sums -> generator rows
    "face_prob": lambda q, cone, rng: 1.0 if is_face(cone, [i - 1 for i in q.indices]) else 0.0,
    "subspace_prob": lambda q, cone, rng: (
        1.0 if _hits_random_subspace(cone.generators, q.k, rng) else 0.0),
    # in general position the origin is in the points' hull iff they span R^d
    "joint_absorption": lambda q, cone, rng: 1.0 if is_full_cone(cone) else 0.0,
}
"""Per functional name, the measurement (query, cone, rng) -> value whose
expectation is the functional.  A joint_absorption cone is spanned by the
stacked points of all blocks, every other cone is drawn from the query's
model."""


def _draw_joint(query: FunctionalQuery, dist: DistributionSpec,
                rng: np.random.Generator) -> tuple[ConeSample, int]:
    for attempt in range(_MAX_DRAW_RETRIES):
        blocks = [_walk_generators(dist, n, rng) for n in query.walk_lengths]
        blocks += [_bridge_generators(dist, m, rng) for m in query.bridge_lengths]
        cone = ConeSample(np.vstack(blocks))
        if cone.in_general_position():
            return cone, attempt
    raise SamplingError(f"no joint draw in general position after {_MAX_DRAW_RETRIES} attempts")


def _draw_sample(query: FunctionalQuery, dist: DistributionSpec,
                 rng: np.random.Generator) -> tuple[ConeSample, int]:
    if query.model is None:
        return _draw_joint(query, dist, rng)
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
