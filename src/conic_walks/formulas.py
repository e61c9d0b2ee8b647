"""Closed-form expectations for positive hulls of random walks and bridges.

Two model families are supported:

* tag ``"A"`` -- a bridge: n exchangeable increments summing to zero; the
  cone is the positive hull of the first n-1 partial sums and requires
  n >= d+1 for the general-position assumption to be satisfiable.
* tag ``"B"`` -- a walk: n sign-symmetric exchangeable increments; the cone
  is the positive hull of all n partial sums and requires n >= d.

Every function returns an exact :class:`fractions.Fraction`.  Covered
functionals: absorption/nonabsorption (cone = R^d or not), face counts
``f_k``, conic quermassintegrals ``U_k``, conic intrinsic volumes ``v_k``,
solid-angle totals ``Lambda_k``, face sums ``Y_{m,l}`` of quermassintegrals,
tangent-cone sums ``Z_{j,k}``, per-face intrinsic-volume sums, the dual-cone
``Y`` values, per-index-tuple face probabilities, subspace intersection
probabilities, and the absorption probability of joint hulls of several
walks and bridges.

Each closed form is written once, for both models, over a :class:`Family`
record picked by the model tag.  The bridge and walk cases differ only in
its three parameters: the shift ``s`` (1 for a bridge, 0 for a walk), the
second-kind family (``second`` or ``second_B``) and the per-step
denominator ``base`` (1 or 2).  A model reads the first-kind row n over
t^s, the block product of one block of n steps of its kind:
``(t+1)...(t+n-1)`` for a bridge, whose row is ``t(t+1)...(t+n-1)``, and
``(t+1)(t+3)...(t+2n-1)`` for a walk.  So ``s`` indexes no row; it offsets
the second-kind column and the weight.  Every value is a numerator over
``base**n * n!``, the row's value at t = 1; the identity suite of
:mod:`~conic_walks.verify` checks this for every unconditioned value it
reads.  Most expectations are built from the weight ``(j+s)! * base**j``
and ``bulk(j, x) = sum over i = x-1, x-3, ... >= 0 of row[i] * second(i+s, j+s)``.

The closed forms read only the coefficients of index below d of a model's
row, below d-k of a face product and below d of a joint block product, so
these are truncated root products, each a
:class:`~conic_walks.combinatorics.LowOrderProduct` cached on the tables
passed in; no first-kind triangle is built.  Every sum over a row or product
is one of its methods (``down``, ``alternating``, ``parity_tail``, ``tail``),
upper tails read off its values at t = 1 and t = -1.  The second-kind
numbers are read as one column of the tables per sum, at rows i <= d only.

The tables instance also keeps one record per model (tag, n, d), holding
its row, P(1) and the survival numerator 2 down(d-1), and, each under a
key of its own, the sums bulk(j, x) per j and the two values that
``face_probability`` reads off a block product per d - len(indices), so
every index tuple of one gap multiset reads them once built.  All count
against the tables' bounded store, and none refers back to the tables.

Conditioned variants (``conditioned=True``) refer to the cone conditioned
on being a proper subset of R^d; for functionals vanishing on R^d this is
division by the nonabsorption probability, whose numerator over P(1) then
stands in for P(1) as the denominator.  ``U_k`` and the top
intrinsic volume carry dedicated conditioned formulas because they do not
vanish on R^d.

:data:`FUNCTIONALS` is the registry of functional names: per name its
closed form, the query fields it takes and whether it has a conditioned
variant.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields as dataclass_fields
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .combinatorics import (LowOrderProduct, StirlingTables, _check_factor_count, block_degree,
                            default_tables)
from .errors import DomainError, as_index, as_indices

A_BRIDGE = "A"
B_WALK = "B"


@dataclass(frozen=True)
class Model:
    """A cone model: bridge ("A") or walk ("B") with n increments in R^d."""

    tag: str
    n: int
    d: int

    def __post_init__(self) -> None:
        if self.tag not in (A_BRIDGE, B_WALK):
            raise DomainError(f"model tag must be 'A' (bridge) or 'B' (walk), got {self.tag!r}")
        object.__setattr__(self, "n", as_index(self.n, "n"))
        object.__setattr__(self, "d", as_index(self.d, "d"))
        if self.d < 1:
            raise DomainError(f"ambient dimension must be >= 1, got d={self.d}")
        if self.n < self.d + self.is_bridge:
            kind, bound = ("bridge", "d+1") if self.is_bridge else ("walk", "d")
            raise DomainError(f"{kind} model requires n >= {bound} (general position), "
                              f"got n={self.n}, d={self.d}")

    @property
    def is_bridge(self) -> bool:
        return self.tag == A_BRIDGE

    @property
    def generator_count(self) -> int:
        """Number of cone generators: n for a walk, n-1 for a bridge."""
        return self.n - 1 if self.is_bridge else self.n


@dataclass(frozen=True)
class Family:
    """The parameters that turn one closed form into its bridge or walk case."""

    shift: int
    second: str
    base: int

    def row(self, t: StirlingTables, n: int, m: int) -> LowOrderProduct:
        """Row n over t^s to m coefficients: the block product of one block of
        n steps of this kind, keyed as block_product keys it; a bridge row's n
        factors, t included, count against the factor cap.  The face sums
        read the row of an m-face's m + s steps, with m + 1 coefficients."""
        _check_factor_count(n)
        key = ((n,), ()) if self.shift else ((), (n,))
        return t.keyed_block_product(key if n > self.shift else ((), ()), m)

    def weight(self, j: int) -> int:
        """(j+s)! * base**j."""
        return math.factorial(j + self.shift) * self.base ** j


_FAMILY = {
    A_BRIDGE: Family(1, "second", 1),
    B_WALK: Family(0, "second_B", 2),
}


class _Record:
    """What the closed forms of one model read, stored once per tables
    instance under the key (tag, n, d): the row to index d-1, the highest a
    closed form in R^d reads from it, its value ``at_one`` (the denominator
    of every unconditioned value) and the survival numerator 2 down(d-1)
    (that of every conditioned value).  Its sums bulk(j, x) for x = 0..d
    are stored per j, under (key, j), on first use.  It keeps no reference
    to its tables."""

    __slots__ = ("key", "family", "row", "at_one", "survival")

    def __init__(self, t: StirlingTables, key: tuple[str, int, int]) -> None:
        tag, n, d = key
        self.key, self.family = key, _FAMILY[tag]
        self.row = self.family.row(t, n, d)
        self.at_one = self.row.at_one
        self.survival = 2 * self.row.down(d - 1)

    def bulk(self, t: StirlingTables, j: int, x: int) -> int:
        """row[i] * second(i+s, j+s) summed over i = x-1, x-3, ... >= 0."""
        sums = t.stored((self.key, j))
        if sums is None:
            s, d = self.family.shift, self.key[2]
            second = t.column(self.family.second, j + s, d + s)
            # acc[i + 2]: the sum over i, i-2, ... >= 0, for i = -2..d-1
            acc = [0, 0]
            for c, w in zip(self.row.coeffs, second[s:]):
                acc.append(c * w + acc[-2])
            sums = t.store((self.key, j), tuple(acc[1:]))
        return sums[x]

    def value(self, num: int, conditioned: bool) -> Fraction:
        """An unconditioned numerator over P(1), or as conditioned on
        survival: the survival probability's numerator is over P(1) too."""
        return Fraction(num, self.survival if conditioned else self.at_one)


def _record(model: Model, tables: StirlingTables | None) -> tuple[StirlingTables, _Record]:
    t = tables if tables is not None else default_tables()
    key = (model.tag, model.n, model.d)
    rec = t.stored(key)
    return t, (rec if rec is not None else t.store(key, _Record(t, key)))


# ---------------------------------------------------------------------------
# absorption and the origin-in-hull classic


def wendel_probability(n: int, d: int) -> Fraction:
    """Probability that n i.i.d. symmetric points do not positively span R^d.

    Equals 2^-(n-1) * sum_{k<d} C(n-1, k); in particular 7/8 for four
    symmetric points around the origin in dimension three.  For d >= n the
    sum holds every C(n-1, k) and the probability is 1.  The C(n-1, k) are
    the coefficients of (1 + t)^(n-1), so its n - 1 factors are capped, and
    each is the last times (n-1-k)/(k+1), so the sum takes at most n steps.
    """
    n, d = as_index(n, "n"), as_index(d, "d")
    if n < 1 or d < 1:
        raise DomainError(f"wendel probability requires n >= 1 and d >= 1, got n={n}, d={d}")
    _check_factor_count(n - 1)
    total = c = 1
    for k in range(min(d, n) - 1):
        c = c * (n - 1 - k) // (k + 1)
        total += c
    return Fraction(total, 1 << (n - 1))


def nonabsorption_probability(model: Model, tables: StirlingTables | None = None) -> Fraction:
    """P[cone != R^d], equivalently that the origin avoids the path's convex hull."""
    _, rec = _record(model, tables)
    return Fraction(rec.survival, rec.at_one)


def absorption_probability(model: Model, tables: StirlingTables | None = None) -> Fraction:
    """P[cone = R^d]."""
    _, rec = _record(model, tables)
    return Fraction(2 * rec.row.parity_tail(model.d + 1), rec.at_one)


# ---------------------------------------------------------------------------
# size functionals


def expected_Y(model: Model, m: int, l: int, conditioned: bool = False,
               tables: StirlingTables | None = None) -> Fraction:
    """Expected sum over m-faces of the l-th conic quermassintegral."""
    m, l = as_index(m, "m"), as_index(l, "l")
    d = model.d
    if not 0 <= l < m <= d - 1:
        raise DomainError(f"expected_Y requires 0 <= l < m <= d-1, got m={m}, l={l}, d={d}")
    t, rec = _record(model, tables)
    edge = rec.family.row(t, m + rec.family.shift, m + 1).parity_tail(l + 1)
    return rec.value(2 * edge * rec.bulk(t, m, d), conditioned)


def expected_Z(model: Model, j: int, k: int, conditioned: bool = False,
               tables: StirlingTables | None = None) -> Fraction:
    """Expected sum over j-faces of the k-th quermassintegral of the tangent cone."""
    j, k = as_index(j, "j"), as_index(k, "k")
    d = model.d
    if not 0 <= j <= k <= d:
        raise DomainError(f"expected_Z requires 0 <= j <= k <= d, got j={j}, k={k}, d={d}")
    t, rec = _record(model, tables)
    return rec.value(rec.family.weight(j) * (rec.bulk(t, j, d) - rec.bulk(t, j, k)), conditioned)


def expected_fk(model: Model, k: int, conditioned: bool = False,
                tables: StirlingTables | None = None) -> Fraction:
    """Expected number of k-dimensional faces, 0 <= k <= d-1.

    k = 0 counts the apex, so the unconditioned value equals the
    nonabsorption probability.
    """
    k = as_index(k, "k")
    d = model.d
    if not 0 <= k <= d - 1:
        raise DomainError(f"expected_fk requires 0 <= k <= d-1, got k={k}, d={d}")
    t, rec = _record(model, tables)
    return rec.value(2 * rec.family.weight(k) * rec.bulk(t, k, d), conditioned)


def expected_Uk(model: Model, k: int, conditioned: bool = False,
                tables: StirlingTables | None = None) -> Fraction:
    """Expected k-th conic quermassintegral, 0 <= k <= d.

    The unconditioned value splits on the parity of d-k because the full
    space contributes U_k(R^d) = 1 exactly when d-k is odd; the conditioned
    cone is never R^d, so it has its own ratio formula.
    """
    k = as_index(k, "k")
    d = model.d
    if not 0 <= k <= d:
        raise DomainError(f"expected_Uk requires 0 <= k <= d, got k={k}, d={d}")
    _, rec = _record(model, tables)
    full, part = rec.survival >> 1, rec.row.down(k - 1)
    if conditioned:
        return Fraction(full - part, rec.survival)
    if (d - k) % 2 == 1:
        total = rec.row.parity_tail(k + 1) + rec.row.parity_tail(d + 1)
    else:
        total = full - part
    return Fraction(total, rec.at_one)


def expected_vk(model: Model, k: int, conditioned: bool = False,
                tables: StirlingTables | None = None) -> Fraction:
    """Expected k-th conic intrinsic volume, 0 <= k <= d."""
    k = as_index(k, "k")
    d = model.d
    if not 0 <= k <= d:
        raise DomainError(f"expected_vk requires 0 <= k <= d, got k={k}, d={d}")
    _, rec = _record(model, tables)
    row = rec.row
    if conditioned:
        num = row.alternating(d - 1) if k == d else row.coeffs[k]
        return Fraction(num, rec.survival)
    return Fraction(row.tail(d) if k == d else row.coeffs[k], rec.at_one)


def expected_Lambda(model: Model, k: int, conditioned: bool = False,
                    tables: StirlingTables | None = None) -> Fraction:
    """Expected total solid-angle content of the k-faces, 1 <= k <= d-1."""
    k = as_index(k, "k")
    d = model.d
    if not 1 <= k <= d - 1:
        raise DomainError(f"expected_Lambda requires 1 <= k <= d-1, got k={k}, d={d}")
    t, rec = _record(model, tables)
    return rec.value(2 * rec.bulk(t, k, d), conditioned)


def expected_face_intrinsic_sum(model: Model, m: int, l: int,
                                tables: StirlingTables | None = None) -> Fraction:
    """Expected sum over m-faces of the l-th conic intrinsic volume."""
    m, l = as_index(m, "m"), as_index(l, "l")
    d = model.d
    if not 0 <= l <= m <= d:
        raise DomainError(
            f"expected_face_intrinsic_sum requires 0 <= l <= m <= d, got m={m}, l={l}, d={d}")
    t, rec = _record(model, tables)
    face = rec.family.row(t, m + rec.family.shift, m + 1).coeffs[l]
    return Fraction(2 * face * rec.bulk(t, m, d), rec.at_one)


def expected_tangent_intrinsic_sum(model: Model, j: int, k: int,
                                   tables: StirlingTables | None = None) -> Fraction:
    """Expected sum over j-faces of the k-th intrinsic volume of the tangent cone.

    The case k = j gives the internal-angle sum, k = d the external-style
    alternating tail.
    """
    j, k = as_index(j, "j"), as_index(k, "k")
    d = model.d
    if not (0 <= j <= d - 1 and j <= k <= d):
        raise DomainError(
            f"expected_tangent_intrinsic_sum requires 0 <= j <= d-1 and j <= k <= d, "
            f"got j={j}, k={k}, d={d}")
    t, rec = _record(model, tables)
    row, f = rec.row, rec.family
    s = f.shift
    second = t.column(f.second, j + s, d + s)
    total = row.alternating(d - 1, second[s:]) if k == d else row.coeffs[k] * second[k + s]
    return Fraction(f.weight(j) * total, rec.at_one)


def expected_Y_dual(model: Model, m: int, l: int,
                    tables: StirlingTables | None = None) -> Fraction:
    """Expected sum over m-faces of the dual cone of the l-th quermassintegral.

    Obtained from the duality  Y_{m,l}(dual C) = f_{d-m}(C)/2 - Z_{d-m,d-l}(C)
    for full-dimensional C.
    """
    m, l = as_index(m, "m"), as_index(l, "l")
    d = model.d
    if not 0 <= l < m <= d:
        raise DomainError(f"expected_Y_dual requires 0 <= l < m <= d, got m={m}, l={l}, d={d}")
    t, rec = _record(model, tables)
    return Fraction(rec.family.weight(d - m) * rec.bulk(t, d - m, d - l), rec.at_one)


# ---------------------------------------------------------------------------
# face and intersection probabilities


def _face_key(model: Model, indices: Sequence[int]) -> tuple[tuple, int]:
    """The key of the block product behind the face probability of
    ``indices``, as block_product keys it (the sorted bridge lengths >= 2,
    the walk lengths >= 1), and d - len(indices), the coefficients it reads.
    There is one bridge block per gap between the indices, then a final
    block of the model's own kind."""
    idx = as_indices(indices, "a face index")
    k = len(idx)
    if not 1 <= k <= model.d - 1:
        raise DomainError(
            f"face probability requires 1 <= len(indices) <= d-1, got {k} with d={model.d}")
    gaps = list(map(operator.sub, idx, (0,) + idx))
    if min(gaps) < 1:
        raise DomainError(f"indices must be strictly increasing and >= 1, got {idx}")
    tail = model.n - idx[-1]
    if model.tag == A_BRIDGE:
        if tail < 1:
            raise DomainError(f"largest index {idx[-1]} exceeds the {model.n - 1} partial sums "
                              f"of the bridge model")
        gaps.append(tail)
        walks = ()
    elif tail < 0:
        raise DomainError(f"largest index {idx[-1]} exceeds the {model.n} partial sums "
                          f"of the walk model")
    else:
        walks = (tail,) if tail else ()
    gaps.sort()  # every gap is >= 1, so the blocks of length 1 come first
    return (tuple(gaps[gaps.count(1):]), walks), model.d - k


def face_probability(model: Model, indices: Sequence[int], complement: bool = False,
                     tables: StirlingTables | None = None) -> Fraction:
    """Probability that the partial sums at ``indices`` (1-based) span a face.

    With ``complement=True`` returns the probability that they do not; the
    two always add to one.  The block product is read from the products
    cached on ``tables`` (the default instance if None); it depends only on
    the multiset of the gaps between the indices and on the steps after the
    last one.  Both values are stored too, under the product's key and
    d - len(indices).
    """
    key, m = _face_key(model, indices)
    t = tables if tables is not None else default_tables()
    values = t.stored((key, m))
    if values is None:
        # the product's value at t = 1 is prod g! * tail! * base**tail
        prod = t.keyed_block_product(key, m)
        values = t.store((key, m), (Fraction(2 * prod.down(m - 1), prod.at_one),
                                    Fraction(2 * prod.parity_tail(m + 1), prod.at_one)))
    return values[1] if complement else values[0]


def subspace_intersection_probability(model: Model, k: int,
                                      tables: StirlingTables | None = None) -> Fraction:
    """Probability that the cone meets a fixed generic (d-k)-subspace nontrivially."""
    k = as_index(k, "k")
    d = model.d
    if not 0 <= k <= d - 1:
        raise DomainError(f"subspace intersection requires 0 <= k <= d-1, got k={k}, d={d}")
    _, rec = _record(model, tables)
    return Fraction(2 * rec.row.parity_tail(k + 1), rec.at_one)


def joint_absorption_probability(walk_lengths: Sequence[int], bridge_lengths: Sequence[int],
                                 d: int, complement: bool = False,
                                 tables: StirlingTables | None = None) -> Fraction:
    """Probability that the joint convex hull of several walks and bridges
    contains the origin (``complement=True`` for avoiding it).

    A walk of length n contributes its n partial sums, a bridge of length m
    its first m-1; the block coefficient polynomial is the product of one
    odd rising factor per walk and one plain rising factor per bridge, read
    from the products cached on ``tables`` (the default instance if None).
    Its degree is the number of points, and when d reaches it the points
    never positively span R^d.
    """
    walks = as_indices(walk_lengths, "a walk length")
    bridges = as_indices(bridge_lengths, "a bridge length")
    d = as_index(d, "d")
    if not walks and not bridges:
        raise DomainError("joint absorption needs at least one walk or bridge block")
    if any(w < 1 for w in walks):
        raise DomainError(f"walk lengths must be >= 1, got {walks}")
    if any(b < 2 for b in bridges):
        raise DomainError(f"bridge lengths must be >= 2, got {bridges}")
    if d < 1:
        raise DomainError(f"dimension must be >= 1, got d={d}")
    if d >= block_degree(bridges, walks):
        return Fraction(int(complement))
    # the product's value at t = 1 is prod 2**w w! * prod b!
    prod = (tables if tables is not None else default_tables()).block_product(bridges, walks, d)
    total = prod.down(d - 1) if complement else prod.parity_tail(d + 1)
    return Fraction(2 * total, prod.at_one)


# ---------------------------------------------------------------------------
# query layer


@dataclass(frozen=True)
class Functional:
    """One registry row: the closed form behind a functional name.

    ``fields`` names the query fields the functional takes (its model, its
    indices, its block lengths); ``evaluate`` is the closed form, called
    with the values of those fields in that order, ``tables=`` and, on a
    conditionable row, ``conditioned=``.
    """

    evaluate: Callable[..., Fraction]
    fields: tuple[str, ...]
    conditionable: bool = False


FUNCTIONALS: dict[str, Functional] = {
    "absorption": Functional(absorption_probability, ("model",)),
    "nonabsorption": Functional(nonabsorption_probability, ("model",)),
    "wendel": Functional(lambda n, d, tables: wendel_probability(n, d), ("n", "d")),
    "fk": Functional(expected_fk, ("model", "k"), True),
    "Uk": Functional(expected_Uk, ("model", "k"), True),
    "vk": Functional(expected_vk, ("model", "k"), True),
    "Lambda": Functional(expected_Lambda, ("model", "k"), True),
    "Y": Functional(expected_Y, ("model", "m", "l"), True),
    "Z": Functional(expected_Z, ("model", "j", "k"), True),
    "face_intrinsic": Functional(expected_face_intrinsic_sum, ("model", "m", "l")),
    "tangent_intrinsic": Functional(expected_tangent_intrinsic_sum, ("model", "j", "k")),
    "Y_dual": Functional(expected_Y_dual, ("model", "m", "l")),
    "face_prob": Functional(face_probability, ("model", "indices")),
    "subspace_prob": Functional(subspace_intersection_probability, ("model", "k")),
    "joint_absorption": Functional(joint_absorption_probability,
                                   ("walk_lengths", "bridge_lengths", "d")),
}


@dataclass(frozen=True)
class FunctionalQuery:
    """One evaluation request: a functional plus the fields its registry
    row declares.

    A declared field must be set: a model, an index, or a tuple of integers
    (block lengths may be empty).  An undeclared field must be left unset.
    Either mistake, or an index or length that is not an integer, raises
    :class:`DomainError` naming the field.  ``n`` and ``d`` are fields of
    ``wendel`` and ``joint_absorption`` only: a model carries its own size.
    """

    functional: str
    model: Optional[Model] = None
    k: Optional[int] = None
    m: Optional[int] = None
    l: Optional[int] = None
    j: Optional[int] = None
    indices: Optional[tuple[int, ...]] = None
    walk_lengths: tuple[int, ...] = ()
    bridge_lengths: tuple[int, ...] = ()
    n: Optional[int] = None
    d: Optional[int] = None
    conditioned: bool = False

    def __post_init__(self) -> None:
        name = self.functional
        spec = FUNCTIONALS.get(name)
        if spec is None:
            raise DomainError(f"unknown functional {name!r}; expected one of {tuple(FUNCTIONALS)}")
        if self.conditioned and not spec.conditionable:
            raise DomainError(f"functional {name!r} has no conditioned variant")
        for field in dataclass_fields(self)[1:-1]:  # between functional and conditioned
            key, value = field.name, getattr(self, field.name)
            if key not in spec.fields:
                if value is not None and value != ():
                    raise DomainError(f"functional {name!r} takes no {key!r}; "
                                      f"it takes {', '.join(spec.fields)}")
            elif value is None:
                raise DomainError(f"functional {name!r} requires {key!r}")
            elif key != "model":
                object.__setattr__(self, key, as_indices(value, key)
                                   if "tuple" in str(field.type) else as_index(value, key))

    @property
    def dimension(self) -> Optional[int]:
        """Ambient dimension: the model's, else ``d``."""
        return self.model.d if self.model is not None else self.d


@dataclass(frozen=True)
class FormulaResult:
    """An exact value and its float shadow."""

    exact: Fraction

    @property
    def decimal(self) -> float:
        return float(self.exact)


def evaluate_query(query: FunctionalQuery,
                   tables: StirlingTables | None = None) -> FormulaResult:
    """Evaluate a query through its registry row and wrap the exact result."""
    spec = FUNCTIONALS[query.functional]
    flags = {"conditioned": query.conditioned} if spec.conditionable else {}
    return FormulaResult(spec.evaluate(*(getattr(query, key) for key in spec.fields),
                                       tables=tables, **flags))
