"""Samplers for exchangeable walks and bridges, and seeded Monte Carlo estimators.

Sampling distributions only need the model's symmetry hypotheses, so three
stress levels are provided: i.i.d. Gaussian increments, componentwise
Cauchy increments (no mean), and Gaussians multiplied by one shared
standard log-normal scale (dependent but still exchangeable with symmetric
signs).

Estimates are reproducible by construction: draw t of sample ``i`` (t = 0
first, then 1, 2, ... each time the sample draws again) is the Philox
stream with key ``seed`` and counter (0, 0, t, i), read from its first
word, so results do not depend on worker count or scheduling, and chunk
partial sums are reduced in fixed chunk order.

Every law is a fixed transform of i.i.d. standard normals, so a sample's
draw is one run of them: its increments' normals, then its Gaussian
block.  Every draw 0 of a batch is computed in arrays, bit for bit as
numpy's Generator draws it, wedge words of the ziggurat included; numpy
redraws from word 0 every run the arrays leave undecided (a tail word, a
near-tie or a try past the words they read), and makes every later draw.
``sample_walk`` and ``sample_bridge`` draw consecutively from the
caller's generator instead.
"""

from __future__ import annotations

import functools
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
_LO32 = 0xFFFFFFFF
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
    return _law(dist, n, rng.standard_normal((1, _word_count(dist, n))))[0]


def _word_count(dist: DistributionSpec, n: int) -> int:
    """Standard normals that n increments are made of."""
    per = 2 if dist.family == "heavy_tail_iid" else 1
    return per * n * dist.d + (dist.family == "scaled_gaussian_exchangeable")


def _law(dist: DistributionSpec, n: int, z: np.ndarray) -> np.ndarray:
    """Increments (S, n, d) made of runs z (S, _word_count) of standard
    normals as numpy's own draws of the family make them: a Cauchy value is
    a normal over the next one, and the log-normal scale is libm's exp of
    the run's first normal."""
    if dist.family == "gaussian_iid":
        return z.reshape(-1, n, dist.d)
    if dist.family == "heavy_tail_iid":
        with np.errstate(divide="ignore", invalid="ignore"):
            return (z[:, 0::2] / z[:, 1::2]).reshape(-1, n, dist.d)
    scale = np.array([math.exp(v) for v in z[:, 0].tolist()])
    return scale[:, None, None] * z[:, 1:].reshape(-1, n, dist.d)


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
        """Increments (S, n_steps, d) made of runs z (S, >= n_words) of
        standard normals, block by block."""
        parts, at = [], 0
        for n, _ in self.blocks:
            count = _word_count(self.dist, n)
            parts.append(_law(self.dist, n, z[:, at:at + count]))
            at += count
        return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)

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
        for attempt in range(_MAX_DRAW_RETRIES):
            steps = self.increments(rng.standard_normal((1, self.n_words)))
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


# Philox4x64-10 (Salmon, Moraes, Dror & Shaw, SC'11): the multipliers of
# counter words 0 and 2, and the Weyl steps of the key words
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_W = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=np.uint64)


def _philox(x: np.ndarray, y: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Philox4x64-10 of the counters with words 0, 2 in x (2, N) and 1, 3
    in y (2, N), which it overwrites; the blocks come back split alike."""
    m = np.repeat(_PHILOX_M, x.shape[1], axis=1)  # full rows: equal shapes skip the broadcast
    m_lo, m_hi = m & _LO32, m >> 32
    x0, x1, t, u = (np.empty_like(x) for _ in range(4))  # every ufunc writes into one of them
    for k in keys:  # x1 becomes the high words of x * m, from 32-bit halves
        np.bitwise_and(x, _LO32, out=x0)
        np.right_shift(x, 32, out=x1)
        np.multiply(x0, m_lo, out=t)
        t >>= 32
        t += np.multiply(x1, m_lo, out=u)  # x1 m_lo + (x0 m_lo >> 32)
        x0 *= m_hi
        x0 += np.bitwise_and(t, _LO32, out=u)
        x0 >>= 32
        x1 *= m_hi
        t >>= 32
        x1 += t
        x1 += x0
        x *= m
        y ^= x1[::-1]
        y ^= k
        x, y = y, x[::-1]
    return x, y


# Words read past a draw-0 run for wedges' U words; 4 cost more than they saved.
_SPARE_WORDS = 2
# The share of exp(-x^2/2) by which the two sides of a wedge test must differ
# to be decided in arrays: many times the error of np.exp, which need not be
# libm's exp as numpy's C code calls it, and of fi, one ulp off at layer 38.
_WEDGE_TIE = 2.0 ** -44


@functools.cache
def _ziggurat_tables() -> tuple[np.ndarray, np.ndarray]:
    """numpy's 256-layer ziggurat (Marsaglia & Tsang, JSS 2000), unexported:
    a word with idx = bits 0-7, sign = bit 8 and rabs = bits 9-60 gives x =
    +-rabs * wi[idx], reading no other word, iff rabs < ki[idx].  Off that
    fast path, layer 0 is the tail, and another reads the next word's top
    53 bits as U and accepts x iff (fi[idx-1] - fi[idx]) U + fi[idx] <
    exp(-x^2/2), with fi from ``_heights``.  numpy gives wi and ki from its
    buffer set to (word, 1, 0, 0): at rabs = 1 the wedge test too accepts
    x = wi[idx], and the next word shows if it took the fast path."""
    bg = np.random.Philox(key=0)
    gen, state = np.random.Generator(bg), bg.state
    buffer = state["buffer"]

    def probe(words, count=1):  # numpy's first normals from these 4 words, and its next word
        buffer[:], state["buffer_pos"] = words, 0
        bg.state = state
        return gen.standard_normal(count), bg.random_raw()

    wi, ki = np.array([probe((i | 1 << 9, 1, 0, 0))[0][0] for i in range(256)]), []
    for i, (w_prev, w) in enumerate(zip(np.roll(wi, 1).tolist(), wi.tolist())):
        (a, b), (c, e) = w_prev.as_integer_ratio(), w.as_integer_ratio()
        g = (a * e << 52) // (b * c)  # 2^52 wi[idx - 1] / wi[idx]: ki is near, then bisect
        lo, hi, tries = -1, 1 << 52, iter((g, g + 1, g - 1, 0))  # rabs lo fast, hi not
        while hi - lo > 1:
            r = next(tries, (lo + hi) // 2)
            if lo < r < hi:
                lo, hi = (r, hi) if probe((i | r << 9, 1, 0, 0))[1] == 1 else (lo, r)
        ki.append(hi)
    ki = np.array(ki, dtype=np.uint64)
    wi.flags.writeable = ki.flags.writeable = False  # cached, so shared by every caller
    # per layer > 0, a word in mid-wedge that its U accepts, and one that
    # its U rejects; fast words follow (layer 2, rabs 1)
    fi, rabs = _heights(wi), (ki[1:] + (1 << 52)) // 2
    tie = (np.exp(-0.5 * (rabs * wi[1:]) ** 2) - fi[1:]) / (fi[:-1] - fi[1:])  # U at lhs = rhs
    wedges = np.full((510, 4), 2 | 1 << 9, dtype=np.uint64)
    wedges[:, 0] = np.tile(np.arange(1, 256, dtype=np.uint64) | rabs << 9, 2)
    wedges[:, 1] = (np.concatenate([tie / 2, (1 + tie) / 2]) * 2.0 ** 53).astype(np.uint64) << 11
    z, done = _runs(wedges, 2, wi, ki)
    bad = not done.all() or any(z[r].tobytes() != probe(w, 2)[0].tobytes()
                                for r, w in enumerate(wedges))
    streams, count = _SampleStreams(1), 13  # and numpy's word layout, on 64 runs
    z, done = _runs(streams.words(np.arange(64, dtype=np.uint64), 16), count, wi, ki)
    if bad or any(streams.at(s).standard_normal(count).tobytes() != z[s].tobytes()
                  for s in np.flatnonzero(done).tolist()):
        raise SamplingError(f"numpy {np.__version__} draws normals unlike the arrays")
    return wi, ki


def _heights(wi: np.ndarray) -> np.ndarray:
    """fi: exp(-x^2/2) at each layer's outer edge x = 2^52 wi[idx], and fi[0] = 1."""
    return np.concatenate([[1.0], np.exp(-0.5 * (wi[1:] * 2.0 ** 52) ** 2)])


def _ziggurat(words: np.ndarray, wi: np.ndarray, ki: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """numpy's x of each word read as the first of a try, and whether it is
    on the fast path, where x is the normal the try gives."""
    layer = (words & 0x1FF).astype(np.intp)  # idx and the sign bit
    rabs = (words >> 9) & ((1 << 52) - 1)
    return rabs.astype(np.float64) * np.concatenate([wi, -wi])[layer], rabs < np.tile(ki, 2)[layer]


def _runs(words: np.ndarray, count: int, wi: np.ndarray,
          ki: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """numpy's first ``count`` normals from each row of words (S, count),
    and whether the arrays decide all of a row's normals; the values of
    the other rows are not numpy's.  A try off the fast path reads the
    next word as its U, so of adjacent words off it every second is a U
    word; a row stops at the first try only numpy decides: the tail, a
    near-tie or a try with no next word."""
    x, fast = _ziggurat(words, wi, ki)
    width = words.shape[1]
    flat = np.flatnonzero(~fast)  # in order along each row; 2-d nonzero is slower
    s, p = np.divmod(flat, width)
    new = (p == 0) | (np.diff(flat, prepend=-2) != 1)  # no word off it just before
    tries = (flat - np.maximum.accumulate(np.where(new, flat, 0))) % 2 == 0
    (rows, s), p = np.unique(s[tries], return_inverse=True), p[tries]
    idx, fi = (words[rows[s], p] & 0xFF).astype(np.intp), _heights(wi)
    lhs = (fi[idx - 1] - fi[idx]) * ((words[rows[s], (p + 1) % width] >> 11) * 2.0 ** -53) + fi[idx]
    rhs = np.exp(-0.5 * x[rows[s], p] * x[rows[s], p])
    sure = (idx > 0) & (p + 1 < width) & (np.abs(lhs - rhs) > _WEDGE_TIE * rhs)
    stop = np.full(len(rows), width)
    np.minimum.at(stop, s[~sure], p[~sure])
    keep = np.arange(width) < stop[:, None]  # the words that give normals
    keep[s[sure], p[sure] + 1] = False
    keep[s[sure & (lhs > rhs)], p[sure & (lhs > rhs)]] = False
    source = np.argsort(~keep, axis=1, kind="stable")[:, :count]  # the word of each normal
    x[rows, :count] = x[rows[:, None], source]
    done = np.ones(len(words), dtype=bool)
    done[rows] = keep.sum(axis=1) >= count
    return x[:, :count], done


class _SampleStreams:
    """Generators addressed by sample index and draw number over one Philox key.

    Draw t of sample i is the Philox sequence with key (seed, 0) and
    starting counter (0, 0, t, i), with 2^130 words of room.  ``at`` resets
    one reused bit generator to the first word of one draw; ``normals``
    makes one draw of many samples, in arrays where it can and through
    ``at`` where it cannot.
    """

    def __init__(self, seed: int) -> None:
        seed = int(seed) & _MASK64
        self._keys = (np.arange(10, dtype=np.uint64)[:, None, None] * _PHILOX_W  # round keys
                      + np.array([[seed], [0]], dtype=np.uint64))
        self._bg = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
        self._gen = np.random.Generator(self._bg)
        self._state = self._bg.state  # a copy; setting it copies it back
        self._state["buffer_pos"] = 4  # mark the output buffer as drained

    def at(self, index: int, draw: int = 0) -> np.random.Generator:
        """numpy's generator at the first word of draw ``draw`` of sample
        ``index``."""
        self._state["state"]["counter"][:] = (0, 0, draw, index & _MASK64)
        self._bg.state = self._state
        return self._gen

    def words(self, samples: np.ndarray, count: int) -> np.ndarray:
        """The first ``count`` words (S, count) of draw 0 of the samples:
        numpy steps the counter before it fills its buffer, so words 4b to
        4b + 3 of sample i are the block of the counter (b + 1, 0, 0, i)."""
        blocks = -(-count // 4)
        x, y = np.zeros((2, 2, len(samples) * blocks), dtype=np.uint64)
        x[0] = np.tile(np.arange(1, blocks + 1, dtype=np.uint64), len(samples))
        y[1] = np.repeat(samples, blocks)
        x, y = _philox(x, y, self._keys)
        return np.stack([x[0], y[0], x[1], y[1]], axis=1).reshape(len(samples), -1)[:, :count]

    def normals(self, samples: np.ndarray, count: int, draw: int) -> np.ndarray:
        """The first ``count`` normals (S, count) of draw ``draw`` of the
        samples, bit for bit as numpy draws them.  The arrays decide whole
        runs of draw 0, each from whole Philox blocks with _SPARE_WORDS
        words or more past it, and numpy redraws every other run from its
        first word.  Later draws stay off the arrays: their rounds are
        small, and an array call's fixed cost is that of 50 to 100 numpy runs."""
        z = np.empty((len(samples), count))
        done = np.zeros(len(samples), dtype=bool)
        if draw == 0:
            blocks = -(-(count + _SPARE_WORDS) // 4)
            step = max(1, 4096 // blocks)  # 4,096 blocks a pass; more leave the cache
            for lo in range(0, len(samples), step):
                at = slice(lo, lo + step)
                z[at], done[at] = _runs(self.words(samples[at], 4 * blocks), count,
                                        *_ziggurat_tables())
        for p in np.flatnonzero(~done):
            self.at(int(samples[p]), draw).standard_normal(out=z[p])
        return z


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
    record and ``full`` marks the full cones.  ``gauss`` (S, d, c) holds the
    Gaussian block each sample drew right after its increments, which all
    of its faces share: by linearity of expectation a sum over faces needs
    no independence between them.
    """

    gens: np.ndarray
    rec: geometry._SignRecord
    full: np.ndarray
    gauss: np.ndarray

    def take(self, which: np.ndarray) -> _Chunk:
        return _Chunk(self.gens[which], self.rec.take(which), self.full[which], self.gauss[which])

    @functools.cached_property
    def proj(self) -> np.ndarray:
        """The generators times the Gaussian block, (S, N, c): their
        coordinates on the Haar c-subspace its columns span.  The first i
        columns give the projection onto a Haar i-subspace, whose
        orthogonal complement, the kernel of those columns, is a Haar
        subspace of codimension i."""
        return self.gens @ self.gauss


def _undecided(verdicts: np.ndarray, rec: geometry._SignRecord) -> np.ndarray:
    """The verdicts as floats, NaN where the projected points ``rec`` have
    an exactly zero minor: such a sample draws again."""
    out = verdicts.astype(float)
    out[~rec.general] = np.nan
    return out


def _tangent_u(c: _Chunk, j: int, i: int) -> np.ndarray:
    """Per sample, the sum over its j-faces F of U_i(T_F C), the i-th conic
    quermassintegral of the tangent cone at F; the apex is the 0-face of a
    pointed cone, and its tangent cone is the cone.

    By the conic Crofton formula, U_i of a cone that is not a subspace is
    half the probability that it meets a Haar subspace of codimension i,
    here the kernel of the first i columns G_i of the Gaussian block.  For
    i > j, T_F C meets that kernel exactly when F is not a face of the
    projected cone G_i^T C (Farkas), so the verdict reads the face masks of
    the projected generators; a projected full cone has no face.  T_F C
    contains the j-dimensional span of F, so it meets every subspace of
    codimension i <= j, and it is no subspace, so U_i = 0 for i >= d.
    """
    d = c.gens.shape[2]
    if i >= d:
        return np.zeros(len(c.gens))
    faces = geometry._face_masks(c.rec, j)
    if i <= j:
        return 0.5 * faces.sum(axis=1)
    rec = geometry._SignRecord.of(c.proj[:, :, :i])
    return 0.5 * _undecided((faces & ~geometry._face_masks(rec, j)).sum(axis=1), rec)


def _face_u(c: _Chunk, m: int, i: int) -> np.ndarray:
    """Per sample, the sum over its m-faces F of U_i(F), the i-th conic
    quermassintegral of the face itself (1 <= m <= d-1).

    F meets the kernel of G_i exactly when the origin lies in the hull of
    its generators projected by G_i, that is when those points have no
    facet.  F is a pointed m-dimensional cone: it meets every subspace of
    codimension i <= 0 and almost surely none of codimension i >= m.  Every
    face of a batch is projected from ``c.proj`` and decided in one record.
    """
    if i >= m:
        return np.zeros(len(c.gens))
    faces = geometry._face_masks(c.rec, m)
    if i <= 0:
        return 0.5 * faces.sum(axis=1)
    s, f = np.nonzero(faces)
    rows = geometry._subsets(c.gens.shape[1], m)[f]
    rec = geometry._SignRecord.of(c.proj[s[:, None], rows, :i])
    hits = _undecided(~rec.facets.any(axis=1), rec)
    return 0.5 * np.bincount(s, weights=hits, minlength=len(c.gens))


def _quermassintegral(q: FunctionalQuery, c: _Chunk) -> np.ndarray:
    # the full space scores by the subspace convention
    return _tangent_u(c, 0, q.k) + np.where(c.full, float((c.gens.shape[2] - q.k) % 2), 0.0)


def _intrinsic_volume(q: FunctionalQuery, c: _Chunk) -> np.ndarray:
    # Crofton: v_k = U_{k-1} - U_{k+1}, with U_{-1} = 1/2; the nested
    # kernels make each value 0 or 1/2.  A full cone has v_d = 1.
    top = c.full & (q.k == c.gens.shape[2])
    return _tangent_u(c, 0, q.k - 1) - _tangent_u(c, 0, q.k + 1) + top


def _face_intrinsic(q: FunctionalQuery, c: _Chunk) -> np.ndarray:
    if q.m == 0:  # the apex {0} is a subspace, with v_0 = 1
        return (~c.full).astype(float)
    if q.m == c.gens.shape[2]:  # no d-face, as the closed form reads
        return np.zeros(len(c.gens))
    return _face_u(c, q.m, q.l - 1) - _face_u(c, q.m, q.l + 1)


def _face_prob(q: FunctionalQuery, c: _Chunk) -> np.ndarray:
    rows = [i - 1 for i in q.indices]  # 1-based partial sums -> generator rows
    at = np.flatnonzero((geometry._subsets(c.gens.shape[1], len(rows)) == rows).all(axis=1))[0]
    return geometry._face_masks(c.rec, len(rows))[:, at].astype(float)


def _columns(low: int, high: int, *counts: int) -> int:
    """The Gaussian columns a measurement reads: the largest of the
    kernel codimensions ``counts`` strictly between low and high, the
    others being decided without a block; 0 if none."""
    return max((i for i in counts if low < i < high), default=0)


class _Measure(NamedTuple):
    """``value(query, chunk)`` gives one value per sample whose expectation
    is the functional, or NaN where a projection of the sample has an
    exactly zero minor; ``block(query, d)`` is the shape (d, c) of the
    Gaussian block each sample draws for it in R^d."""

    value: Callable[[FunctionalQuery, _Chunk], np.ndarray]
    block: Callable[[FunctionalQuery, int], tuple[int, int]] = lambda q, d: (d, 0)


MEASURES: dict[str, _Measure] = {
    "absorption": _Measure(lambda q, c: c.full.astype(float)),
    "nonabsorption": _Measure(lambda q, c: (~c.full).astype(float)),
    "fk": _Measure(lambda q, c: geometry._face_masks(c.rec, q.k).sum(axis=1).astype(float)),
    "Uk": _Measure(_quermassintegral, lambda q, d: (d, _columns(0, d, q.k))),
    "vk": _Measure(_intrinsic_volume, lambda q, d: (d, _columns(0, d, q.k - 1, q.k + 1))),
    "Lambda": _Measure(lambda q, c: _face_u(c, q.k, q.k - 1),
                       lambda q, d: (d, _columns(0, q.k, q.k - 1))),
    "Y": _Measure(lambda q, c: _face_u(c, q.m, q.l), lambda q, d: (d, _columns(0, q.m, q.l))),
    "Z": _Measure(lambda q, c: _tangent_u(c, q.j, q.k), lambda q, d: (d, _columns(q.j, d, q.k))),
    "face_intrinsic": _Measure(_face_intrinsic,
                               lambda q, d: (d, _columns(0, q.m, q.l - 1, q.l + 1))),
    "tangent_intrinsic": _Measure(
        lambda q, c: _tangent_u(c, q.j, q.k - 1) - _tangent_u(c, q.j, q.k + 1),
        lambda q, d: (d, _columns(q.j, d, q.k - 1, q.k + 1))),
    "face_prob": _Measure(_face_prob),
    "subspace_prob": _Measure(lambda q, c: 2.0 * _tangent_u(c, 0, q.k) + c.full,
                              lambda q, d: (d, _columns(0, d, q.k))),
    # in general position the origin is in the points' hull iff they span R^d
    "joint_absorption": _Measure(lambda q, c: c.full.astype(float)),
}
"""Per functional name, the measurement over a chunk of cones.  A
joint_absorption cone is spanned by the stacked points of all blocks,
every other cone is drawn from the query's model.  Every verdict reads the
face masks of a sign record: of the cones, or of their generators (or a
face's) projected by the first columns of their Gaussian block."""


class _Sampler:
    """Draws and decides the samples of one query, a batch at a time."""

    def __init__(self, query: FunctionalQuery, dist: DistributionSpec) -> None:
        self.query = query
        self.draw = _Draw.of(dist, query.model, query.walk_lengths, query.bridge_lengths)
        self.measure = MEASURES[query.functional]
        n, d = self.draw.n_generators, dist.d
        if n < d:  # no d x d minor, so no draw is in general position
            raise DomainError(f"{self.draw.what} of {n} points in R^{d}: never in general position")
        self.block = self.measure.block(query, d)
        size = (self.draw.n_steps * d + math.prod(self.block)
                + sum(math.comb(n, k) * k for k in range(1, d + 1)))
        self.batch = max(1, _BATCH_ELEMENTS // size)

    def values(self, streams: _SampleStreams, indices: range) -> tuple[np.ndarray, int]:
        """Each sample's value, and the draws rejected on the way.

        Every sample draws its increments and then its Gaussian block, and
        round t decides draw t of every pending sample at once.  A sample
        whose draw is not in general position, or is a full cone under
        ``conditioned``, is pending in the next round.  So is a sample whose
        measurement projects points with an exactly zero minor (probability
        zero): that draw counts as one not in general position.
        """
        values = np.empty(len(indices))
        misses, fulls = np.zeros((2, len(indices)), dtype=int)  # misses in a row, full cones
        samples = np.array(indices, dtype=np.uint64)
        pending = np.arange(len(indices))
        rejected = draw = 0
        while pending.size:
            steps, gauss = self.draws(streams, samples[pending], draw)
            gens = self.draw.partial_sums(steps)
            rec = geometry._SignRecord.of(gens)
            chunk = _Chunk(gens, rec, geometry._full_cones(rec), gauss)
            miss = ~rec.general
            redo = miss.copy()
            if self.query.conditioned:
                redo |= chunk.full
                fulls[pending] += chunk.full & rec.general
            kept = np.flatnonzero(~redo)
            if kept.size:
                got = self.measure.value(self.query, chunk.take(kept) if redo.any() else chunk)
                values[pending[kept]] = got
                lost = kept[np.isnan(got)]
                miss[lost] = redo[lost] = True
            rejected += int(np.count_nonzero(miss))
            misses[pending] = np.where(miss, misses[pending] + 1, 0)
            if misses.max() >= _MAX_DRAW_RETRIES:
                raise self.draw.failed()
            if fulls.max() > _MAX_CONDITION_RETRIES:
                raise SamplingError("conditioning on a non-full cone exceeded the retry budget")
            pending = pending[redo]
            draw += 1
        return values, rejected

    def draws(self, streams: _SampleStreams, samples: np.ndarray,
              draw: int) -> tuple[np.ndarray, np.ndarray]:
        """Each sample's increments and Gaussian block, made of the first
        standard normals of its draw ``draw``, bit for bit as numpy draws
        them (``_SampleStreams.normals``)."""
        count = self.draw.n_words
        z = streams.normals(samples, count + math.prod(self.block), draw)
        return self.draw.increments(z), z[:, count:].reshape(len(samples), *self.block)


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
