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
its four parameters: the index shift ``s`` (1 for a bridge, 0 for a walk),
the roots of the first-kind row (row n is the coefficient list of
``t(t+1)...(t+n-1)`` for a bridge and of ``(t+1)(t+3)...(t+2n-1)`` for a
walk; :func:`~conic_walks.combinatorics.bridge_roots` and
:func:`~conic_walks.combinatorics.walk_roots`), the
second-kind family (``second`` or ``second_B``) and the per-step
denominator ``base`` (1 or 2).  Every value is a numerator over
``base**n * n!``, which is the row's value at t = 1; the identity suite of
:mod:`~conic_walks.verify` checks this for every unconditioned value it
reads.  Most expectations are
built from ``bulk(j, x) = sum over i = x-1+s, x-3+s, ... >= 0 of
row_n[i] * second(i, j+s)`` and the weight ``(j+s)! * base**j``.

The closed forms read only the coefficients of index below d+s of row n,
below d-k of a face product and below d of a joint block product, so rows
and products are built as truncated root products
(:class:`~conic_walks.combinatorics.LowOrderProduct`), rows and block
products cached on the tables instance passed in; no first-kind triangle
is built.  Every sum over a row or product is one of its methods
(``down``, ``alternating``, ``parity_tail``, ``tail``); upper tails come
from the product's values at t = 1 and t = -1.  The second-kind numbers are
read from the tables as one column per sum, at rows i <= d only.

Conditioned variants (``conditioned=True``) refer to the cone conditioned
on being a proper subset of R^d; for functionals vanishing on R^d this is
plain division by the nonabsorption probability, while ``U_k`` and the top
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
                            bridge_roots, default_tables, walk_roots)
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
    roots: Callable[[int], range]
    second: str
    base: int

    def row(self, t: StirlingTables, n: int, d: int) -> LowOrderProduct:
        """Row n to index d-1+s, the highest a closed form in R^d reads from it."""
        return t.low_row(self.roots, n, d + self.shift)

    def full_row(self, t: StirlingTables, n: int) -> LowOrderProduct:
        """All of row n; the face sums read such rows for n <= d+1."""
        return t.low_row(self.roots, n, n + 1)

    def bulk(self, t: StirlingTables, row: LowOrderProduct, j: int, x: int) -> int:
        """row[i] * second(i, j+s) summed over i = x-1+s, x-3+s, ... >= 0."""
        return row.down(x - 1 + self.shift, t.column(self.second, j + self.shift, x + self.shift))

    def weight(self, j: int) -> int:
        """(j+s)! * base**j."""
        return math.factorial(j + self.shift) * self.base ** j


_FAMILY = {
    A_BRIDGE: Family(1, bridge_roots, "second", 1),
    B_WALK: Family(0, walk_roots, "second_B", 2),
}


def _family(model: Model, tables: StirlingTables | None) -> tuple[StirlingTables, Family]:
    return (tables if tables is not None else default_tables()), _FAMILY[model.tag]


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
    t, f = _family(model, tables)
    row = f.row(t, model.n, model.d)
    return Fraction(2 * row.down(model.d - 1 + f.shift), row.at_one)


def absorption_probability(model: Model, tables: StirlingTables | None = None) -> Fraction:
    """P[cone = R^d]."""
    t, f = _family(model, tables)
    row = f.row(t, model.n, model.d)
    return Fraction(2 * row.parity_tail(model.d + 1 + f.shift), row.at_one)


def _conditioned(value: Fraction, model: Model, tables: StirlingTables) -> Fraction:
    return value / nonabsorption_probability(model, tables)


# ---------------------------------------------------------------------------
# size functionals


def expected_Y(model: Model, m: int, l: int, conditioned: bool = False,
               tables: StirlingTables | None = None) -> Fraction:
    """Expected sum over m-faces of the l-th conic quermassintegral."""
    m, l = as_index(m, "m"), as_index(l, "l")
    t, f = _family(model, tables)
    n, d, s = model.n, model.d, f.shift
    if not 0 <= l < m <= d - 1:
        raise DomainError(f"expected_Y requires 0 <= l < m <= d-1, got m={m}, l={l}, d={d}")
    row = f.row(t, n, d)
    edge = f.full_row(t, m + s).parity_tail(l + 1 + s)
    value = Fraction(2 * edge * f.bulk(t, row, m, d), row.at_one)
    return _conditioned(value, model, t) if conditioned else value


def expected_Z(model: Model, j: int, k: int, conditioned: bool = False,
               tables: StirlingTables | None = None) -> Fraction:
    """Expected sum over j-faces of the k-th quermassintegral of the tangent cone."""
    j, k = as_index(j, "j"), as_index(k, "k")
    t, f = _family(model, tables)
    n, d = model.n, model.d
    if not 0 <= j <= k <= d:
        raise DomainError(f"expected_Z requires 0 <= j <= k <= d, got j={j}, k={k}, d={d}")
    row = f.row(t, n, d)
    value = Fraction(f.weight(j) * (f.bulk(t, row, j, d) - f.bulk(t, row, j, k)), row.at_one)
    return _conditioned(value, model, t) if conditioned else value


def expected_fk(model: Model, k: int, conditioned: bool = False,
                tables: StirlingTables | None = None) -> Fraction:
    """Expected number of k-dimensional faces, 0 <= k <= d-1.

    k = 0 counts the apex, so the unconditioned value equals the
    nonabsorption probability.
    """
    k = as_index(k, "k")
    t, f = _family(model, tables)
    n, d = model.n, model.d
    if not 0 <= k <= d - 1:
        raise DomainError(f"expected_fk requires 0 <= k <= d-1, got k={k}, d={d}")
    row = f.row(t, n, d)
    value = Fraction(2 * f.weight(k) * f.bulk(t, row, k, d), row.at_one)
    return _conditioned(value, model, t) if conditioned else value


def expected_Uk(model: Model, k: int, conditioned: bool = False,
                tables: StirlingTables | None = None) -> Fraction:
    """Expected k-th conic quermassintegral, 0 <= k <= d.

    The unconditioned value splits on the parity of d-k because the full
    space contributes U_k(R^d) = 1 exactly when d-k is odd; the conditioned
    cone is never R^d, so it has its own ratio formula.
    """
    k = as_index(k, "k")
    t, f = _family(model, tables)
    n, d, s = model.n, model.d, f.shift
    if not 0 <= k <= d:
        raise DomainError(f"expected_Uk requires 0 <= k <= d, got k={k}, d={d}")
    row = f.row(t, n, d)
    full, part = row.down(d - 1 + s), row.down(k - 1 + s)
    if conditioned:
        return Fraction(full - part, 2 * full)
    if (d - k) % 2 == 1:
        total = row.parity_tail(k + 1 + s) + row.parity_tail(d + 1 + s)
    else:
        total = full - part
    return Fraction(total, row.at_one)


def expected_vk(model: Model, k: int, conditioned: bool = False,
                tables: StirlingTables | None = None) -> Fraction:
    """Expected k-th conic intrinsic volume, 0 <= k <= d."""
    k = as_index(k, "k")
    t, f = _family(model, tables)
    n, d, s = model.n, model.d, f.shift
    if not 0 <= k <= d:
        raise DomainError(f"expected_vk requires 0 <= k <= d, got k={k}, d={d}")
    row = f.row(t, n, d)
    if conditioned:
        num = row.alternating(d - 1 + s) if k == d else row.coeffs[k + s]
        return Fraction(num, 2 * row.down(d - 1 + s))
    return Fraction(row.tail(d + s) if k == d else row.coeffs[k + s], row.at_one)


def expected_Lambda(model: Model, k: int, conditioned: bool = False,
                    tables: StirlingTables | None = None) -> Fraction:
    """Expected total solid-angle content of the k-faces, 1 <= k <= d-1."""
    k = as_index(k, "k")
    t, f = _family(model, tables)
    n, d = model.n, model.d
    if not 1 <= k <= d - 1:
        raise DomainError(f"expected_Lambda requires 1 <= k <= d-1, got k={k}, d={d}")
    row = f.row(t, n, d)
    value = Fraction(2 * f.bulk(t, row, k, d), row.at_one)
    return _conditioned(value, model, t) if conditioned else value


def expected_face_intrinsic_sum(model: Model, m: int, l: int,
                                tables: StirlingTables | None = None) -> Fraction:
    """Expected sum over m-faces of the l-th conic intrinsic volume."""
    m, l = as_index(m, "m"), as_index(l, "l")
    t, f = _family(model, tables)
    n, d, s = model.n, model.d, f.shift
    if not 0 <= l <= m <= d:
        raise DomainError(
            f"expected_face_intrinsic_sum requires 0 <= l <= m <= d, got m={m}, l={l}, d={d}")
    row = f.row(t, n, d)
    face = f.full_row(t, m + s).coeffs[l + s]
    return Fraction(2 * face * f.bulk(t, row, m, d), row.at_one)


def expected_tangent_intrinsic_sum(model: Model, j: int, k: int,
                                   tables: StirlingTables | None = None) -> Fraction:
    """Expected sum over j-faces of the k-th intrinsic volume of the tangent cone.

    The case k = j gives the internal-angle sum, k = d the external-style
    alternating tail.
    """
    j, k = as_index(j, "j"), as_index(k, "k")
    t, f = _family(model, tables)
    n, d, s = model.n, model.d, f.shift
    if not (0 <= j <= d - 1 and j <= k <= d):
        raise DomainError(
            f"expected_tangent_intrinsic_sum requires 0 <= j <= d-1 and j <= k <= d, "
            f"got j={j}, k={k}, d={d}")
    row = f.row(t, n, d)
    second = t.column(f.second, j + s, d + s)
    total = row.alternating(d - 1 + s, second) if k == d else row.coeffs[k + s] * second[k + s]
    return Fraction(f.weight(j) * total, row.at_one)


def expected_Y_dual(model: Model, m: int, l: int,
                    tables: StirlingTables | None = None) -> Fraction:
    """Expected sum over m-faces of the dual cone of the l-th quermassintegral.

    Obtained from the duality  Y_{m,l}(dual C) = f_{d-m}(C)/2 - Z_{d-m,d-l}(C)
    for full-dimensional C.
    """
    m, l = as_index(m, "m"), as_index(l, "l")
    t, f = _family(model, tables)
    n, d = model.n, model.d
    if not 0 <= l < m <= d:
        raise DomainError(f"expected_Y_dual requires 0 <= l < m <= d, got m={m}, l={l}, d={d}")
    row = f.row(t, n, d)
    return Fraction(f.weight(d - m) * f.bulk(t, row, d - m, d - l), row.at_one)


# ---------------------------------------------------------------------------
# face and intersection probabilities


def _validated_face_indices(model: Model, indices: Sequence[int]) -> tuple[int, ...]:
    idx = as_indices(indices, "a face index")
    k = len(idx)
    if not 1 <= k <= model.d - 1:
        raise DomainError(
            f"face probability requires 1 <= len(indices) <= d-1, got {k} with d={model.d}")
    if idx[0] < 1 or not all(map(operator.lt, idx, idx[1:])):
        raise DomainError(f"indices must be strictly increasing and >= 1, got {idx}")
    if idx[-1] > model.generator_count:
        raise DomainError(
            f"largest index {idx[-1]} exceeds the {model.generator_count} partial sums "
            f"of the {'bridge' if model.is_bridge else 'walk'} model")
    return idx


def face_probability(model: Model, indices: Sequence[int], complement: bool = False,
                     tables: StirlingTables | None = None) -> Fraction:
    """Probability that the partial sums at ``indices`` (1-based) span a face.

    With ``complement=True`` returns the probability that they do not; the
    two always add to one.  The block product is read from the products
    cached on ``tables`` (the default instance if None); it depends only on
    the multiset of the gaps between the indices and on the steps after the
    last one.
    """
    idx = _validated_face_indices(model, indices)
    t = tables if tables is not None else default_tables()
    n, d, k = model.n, model.d, len(idx)
    gaps = tuple(map(operator.sub, idx, (0,) + idx))
    tail = n - idx[-1]
    # one bridge block per gap, then a final block of the model's own kind;
    # the product's value at t = 1 is prod g! * tail! * base**tail
    bridges, walks = (gaps + (tail,), ()) if model.is_bridge else (gaps, (tail,))
    prod = t.block_product(bridges, walks, d - k)
    total = prod.parity_tail(d - k + 1) if complement else prod.down(d - k - 1)
    return Fraction(2 * total, prod.at_one)


def subspace_intersection_probability(model: Model, k: int,
                                      tables: StirlingTables | None = None) -> Fraction:
    """Probability that the cone meets a fixed generic (d-k)-subspace nontrivially."""
    k = as_index(k, "k")
    t, f = _family(model, tables)
    n, d = model.n, model.d
    if not 0 <= k <= d - 1:
        raise DomainError(f"subspace intersection requires 0 <= k <= d-1, got k={k}, d={d}")
    row = f.row(t, n, d)
    return Fraction(2 * row.parity_tail(k + 1 + f.shift), row.at_one)


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
