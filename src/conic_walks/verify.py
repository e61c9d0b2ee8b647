"""Self-verification: exact identity suite plus a Monte Carlo gate matrix.

The identity suite holds the combinatorial backbone to account: recurrences
against direct polynomial expansion, row sums, the truncated root products
the closed forms read against the full triangles, signed convolution
identities, the composition convolutions behind the face probabilities,
and the web of exact cross-identities tying every expectation formula to
the others.  The web is stated on integers: every unconditioned value of a
model must be a numerator over D = n! base^n (n! for a bridge, 2^n n! for a
walk), which the suite checks, and every conditioned one a numerator over
the survival probability's numerator; sums and differences compare those
numerators, and ratios cross-multiply.  The composition convolutions read
each composition's block product once, whole, and add integer numerators.
The Monte Carlo matrix then samples cones and checks each estimate against
its exact value at |z| <= 4, per distribution family.

Reports are plain dicts with deterministic serialization: same seed, same
bytes, independent of worker count.
"""

from __future__ import annotations

import itertools
import json
import math
import zlib
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Callable, Iterable

from .combinatorics import (
    LowOrderProduct,
    StirlingTables,
    binomial,
    block_roots,
    compositions,
    default_tables,
    poly_mul,
    root_product,
)
from .errors import DomainError, as_index, as_seed
from .formulas import (
    A_BRIDGE,
    B_WALK,
    FunctionalQuery,
    Model,
    absorption_probability,
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
from .formulas import _FAMILY
from .simulation import FAMILIES, DistributionSpec, MCEstimate, RunConfig, estimate, sampling

SCHEMA_VERSION = 1
Z_GATE = 4.0
MIN_MC_BUDGET = 10_000
MC_PASS_RATE = 0.95


@dataclass
class CheckResult:
    name: str
    status: str  # "pass" | "fail" | "skipped"
    detail: str = ""

    def as_dict(self) -> dict:
        return {"name": self.name, "status": self.status, "detail": self.detail}


def _check(name: str, fn: Callable[[], None]) -> CheckResult:
    try:
        fn()
    except AssertionError as exc:
        return CheckResult(name, "fail", str(exc))
    return CheckResult(name, "pass")


# ---------------------------------------------------------------------------
# exact identity suite


def _expand_product(factors: Iterable[int]) -> list[int]:
    poly = [1]
    for c in factors:
        poly = poly_mul(poly, [c, 1])
    return poly


def _check_recurrences_vs_expansion(t: StirlingTables, max_n: int) -> None:
    for n in range(max_n + 1):
        rising = poly_mul([0, 1], _expand_product(range(1, n))) if n else [1]
        assert rising[:n + 1] == [t.first(n, k) for k in range(n + 1)], f"first kind row {n}"
        odd = _expand_product(range(1, 2 * n, 2))
        assert odd == [t.first_b(n, k) for k in range(n + 1)], f"first kind B row {n}"
        for k in range(n + 1):
            # partition numbers by inclusion-exclusion, independent of the recurrence
            acc = sum((-1) ** i * binomial(k, i) * (k - i) ** n for i in range(k + 1))
            expect = acc // math.factorial(k)
            assert t.second(n, k) == expect, f"second kind ({n},{k})"


def _check_second_b_recurrence(t: StirlingTables, max_n: int) -> None:
    # the rows grown by  B2(n,k) = B2(n-1,k-1) + (2k+1) B2(n-1,k)  must equal
    # the defining sum  sum_i 2^(i-k) C(n,i) {i k}
    for n in range(1, max_n + 1):
        for k in range(n + 1):
            lhs = t.second_b(n, k)
            rhs = sum((1 << (i - k)) * math.comb(n, i) * t.second(i, k) for i in range(k, n + 1))
            assert lhs == rhs, f"second kind B recurrence at ({n},{k}): {lhs} != {rhs}"


def _check_row_sums(t: StirlingTables, max_n: int) -> None:
    for n in range(max_n + 1):
        total = sum(t.first(n, k) for k in range(n + 1))
        assert total == math.factorial(n), f"first-kind row sum at n={n}"
        total_b = sum(t.first_b(n, k) for k in range(n + 1))
        assert total_b == (1 << n) * math.factorial(n), f"first-kind-B row sum at n={n}"
    for n in range(2, max_n + 1):
        odd = sum(t.first(n, k) for k in range(1, n + 1, 2))
        even = sum(t.first(n, k) for k in range(0, n + 1, 2))
        assert odd == even == math.factorial(n) // 2, f"first-kind parity halves at n={n}"
    for n in range(1, max_n + 1):
        odd = sum(t.first_b(n, k) for k in range(1, n + 1, 2))
        even = sum(t.first_b(n, k) for k in range(0, n + 1, 2))
        assert odd == even == (1 << (n - 1)) * math.factorial(n), \
            f"first-kind-B parity halves at n={n}"


def _check_low_order_products(t: StirlingTables, max_n: int) -> None:
    # the closed forms read single-block products instead of the triangles:
    # a bridge's row n without its factor t and a walk's row n.  Built here
    # afresh, never read from the store, their coefficients must be the
    # triangle rows, whole and truncated, and their upper tails from P(1)
    # and P(-1) the direct sums over the row
    for n in range(max_n + 1):
        blocks = [("first_B", block_roots((), (n,)), [t.first_b(n, k) for k in range(n + 1)])]
        if n:
            blocks.append(("first", block_roots((n,)), [t.first(n, k + 1) for k in range(n)]))
        for name, roots, row in blocks:
            size = len(row)
            assert root_product(roots, size) == row, f"{name} product row {n}"
            half = size // 2 + 1
            assert root_product(roots, half) == row[:half], f"{name} truncated row {n}"
            low = LowOrderProduct.of(roots, size)
            # tails[a] = sum(row[a:]) and parity[a] = sum(row[a::2]), summed
            # from the top down, so each a costs one addition
            tails, parity = [0] * (size + 2), [0] * (size + 2)
            for a in range(size - 1, -1, -1):
                tails[a] = row[a] + tails[a + 1]
                parity[a] = row[a] + parity[a + 2]
            for a in range(size + 1):
                assert low.parity_tail(a) == parity[a], f"{name} parity tail ({n},{a})"
                assert low.tail(a) == tails[a], f"{name} tail ({n},{a})"


def _check_convolution_identities(t: StirlingTables, max_n: int) -> None:
    # signed and plain convolutions of first-kind against second-kind rows;
    # the alternating forms degenerate when only the top term survives,
    # hence the n >= j+2 (plain families) and n >= j+1 (B families) ranges.
    # Each row is read once; second(k, j) and second_b(k, j) are 0 for k < j.
    second = [t.row("second", k) for k in range(max_n + 1)]
    second_b = [t.row("second_B", k) for k in range(max_n + 1)]
    for n in range(1, max_n + 1):
        first, first_b = t.row("first", n), t.row("first_B", n)
        for j in range(n):
            terms = [first[k] * second[k][j + 1] for k in range(j + 1, n + 1)]
            expect = math.factorial(n) // math.factorial(j + 1) * binomial(n - 1, j)
            assert sum(terms) == expect, f"plain convolution at (n={n}, j={j})"
            if n >= j + 2:
                # the terms at even k less those at odd k, up to sign
                alt = sum(terms[::2]) - sum(terms[1::2])
                assert alt == 0, f"alternating convolution at (n={n}, j={j})"
        for j in range(n + 1):
            terms_b = [first_b[k] * second_b[k][j] for k in range(j, n + 1)]
            expect_b = ((1 << n) * math.factorial(n) * binomial(n, j)
                        // ((1 << j) * math.factorial(j)))
            assert sum(terms_b) == expect_b, f"plain B convolution at (n={n}, j={j})"
            if n >= j + 1:
                alt_b = sum(terms_b[::2]) - sum(terms_b[1::2])
                assert alt_b == 0, f"alternating B convolution at (n={n}, j={j})"


def _check_composition_convolutions(t: StirlingTables, max_n: int) -> None:
    # walk-terminated blocks: summing the block product that face_probability
    # reads for a walk over all block compositions collapses to a product of
    # the two B families, read from the triangles.  The terms are added as
    # integer numerators over n! 2^n (over n! for bridges), with the
    # multinomial n! / (prod p! * tail!) as the weight.  Each composition's
    # product is read once, to its degree n - m (n - m - 1 for bridges),
    # under the key coeff_P (coeff_Q) reads it by.
    for n in range(1, max_n + 1):
        for m in range(1, n + 1):
            acc = [0] * (n - m + 1)
            for tail in range(0, n - m + 1):
                for parts in compositions(n - tail, m):
                    weight = (math.factorial(n) // math.prod(map(math.factorial, parts))
                              // math.factorial(tail)) << (n - tail)
                    coeffs = t.block_product(parts, (tail,), n - m + 1).coeffs
                    acc = [a + weight * c for a, c in zip(acc, coeffs)]
            for q, num in enumerate(acc):
                # the right side is m! B1(n, q+m) B2(q+m, m) over 2^(n-m) n!
                rhs = math.factorial(m) * t.first_b(n, q + m) * t.second_b(q + m, m)
                assert num == rhs << m, f"walk composition convolution at (n={n}, m={m}, q={q})"
    # pure bridge blocks, the product read for a bridge: same collapse onto
    # the plain families, whose right side is also over n!
    for n in range(2, max_n + 1):
        for m in range(1, n):
            acc = [0] * (n - m)
            for parts in compositions(n, m + 1):
                weight = math.factorial(n) // math.prod(map(math.factorial, parts))
                coeffs = t.block_product(parts, (), n - m).coeffs
                acc = [a + weight * c for a, c in zip(acc, coeffs)]
            for q, num in enumerate(acc):
                rhs = math.factorial(m + 1) * t.first(n, q + m + 1) * t.second(q + m + 1, m + 1)
                assert num == rhs, f"bridge composition convolution at (n={n}, m={m}, q={q})"


def _desk_models(max_n: int, max_d: int) -> list[Model]:
    # largest d first: a closed form in R^d reads one more coefficient of a
    # row or block product than in R^(d-1), so the first request for each
    # asks for the most coefficients the suite reads, and it is built once
    models = []
    for d in range(max_d, 0, -1):
        for n in range(1, max_n + 1):
            if n >= d + 1:
                models.append(Model(A_BRIDGE, n, d))
            if n >= d:
                models.append(Model(B_WALK, n, d))
    return models


def _check_formula_identities(t: StirlingTables, max_n: int, max_d: int) -> None:
    # joint hulls specialize to the single-block formulas; checked first and
    # at the largest d first, since they read more coefficients of a block
    # product than the face probabilities below
    for d in range(max_d, 0, -1):
        for n in range(d, max_n + 1):
            walk = Model(B_WALK, n, d)
            assert joint_absorption_probability([n], [], d, tables=t) == \
                absorption_probability(walk, t), f"joint hull of one walk at {walk}"
        for n in range(d + 1, max_n + 1):
            bridge = Model(A_BRIDGE, n, d)
            assert joint_absorption_probability([], [n], d, tables=t) == \
                absorption_probability(bridge, t), f"joint hull of one bridge at {bridge}"
    assert joint_absorption_probability([1], [2], 1, tables=t) == Fraction(1, 2)
    assert joint_absorption_probability([1], [2], 1, complement=True, tables=t) == Fraction(1, 2)

    for model in _desk_models(max_n, max_d):
        d = model.d
        # every unconditioned value is an integer over D = n! base^n, so each
        # sum and difference below is an integer equation on numerators over D
        D = math.factorial(model.n) << (0 if model.is_bridge else model.n)

        def num(value: Fraction, den: int = D) -> int:
            top, bottom = value.as_integer_ratio()
            q, r = divmod(den, bottom)
            assert r == 0, f"denominator of {value} does not divide {den} at {model}"
            return top * q

        absorbed = num(absorption_probability(model, t))
        survived = num(nonabsorption_probability(model, t))
        assert absorbed + survived == D, f"absorption split at {model}"
        assert 0 <= absorbed <= D and 0 <= survived <= D, f"probability range at {model}"
        assert survived > 0, f"survival probability at {model}"

        vk = [num(expected_vk(model, k, False, t)) for k in range(d + 1)]
        fk = [num(expected_fk(model, k, False, t)) for k in range(d)]
        uk = [num(expected_Uk(model, k, False, t)) for k in range(d + 1)]
        z = {(j, k): num(expected_Z(model, j, k, False, t))
             for j in range(d + 1) for k in range(j, d + 1)}
        # a conditioned value is an integer over the survival numerator, so
        # the conditioned sums are integer equations on numerators over it
        vk_c = [num(expected_vk(model, k, True, t), survived) for k in range(d + 1)]

        # intrinsic volumes sum to one, conditioned or not
        assert sum(vk) == D, f"intrinsic volume closure at {model}"
        assert sum(vk_c) == survived, f"conditioned intrinsic volume closure at {model}"

        # doubling edge sums gives face counts
        for k in range(1, d):
            assert 2 * num(expected_Y(model, k, 0, False, t)) == fk[k], \
                f"edge-sum doubling at {model}, k={k}"

        # conic Crofton at expectation level
        for k in range(d + 1):
            assert uk[k] == sum(vk[k + 1::2]), f"crofton at {model}, k={k}"
            assert num(expected_Uk(model, k, True, t), survived) == sum(vk_c[k + 1::2]), \
                f"conditioned crofton at {model}, k={k}"

        # conditioned values divide by the survival probability: a/b is
        # x / survived exactly when a * survived == b * x; the v_k ratio
        # needs no check of its own, since a fault of at most two values
        # that breaks it breaks a closure or Crofton sum above, or f_0's here
        for k in range(d):
            fk_c = expected_fk(model, k, True, t)
            assert fk_c.numerator * survived == fk_c.denominator * fk[k]
        lam = {k: num(expected_Lambda(model, k, False, t)) for k in range(1, d)}
        for k in range(1, d):
            lam_c = expected_Lambda(model, k, True, t)
            assert lam_c.numerator * survived == lam_c.denominator * lam[k]

        # total face content is the top-index face sum
        for k in range(1, d):
            assert lam[k] == num(expected_Y(model, k, k - 1, False, t))
            assert num(expected_face_intrinsic_sum(model, k, k, t)) == lam[k], \
                f"face content vs intrinsic at {model}"

        # duality: dual face sums against primal face counts and tangent sums
        for m in range(1, d + 1):
            for l in range(m):
                dual = num(expected_Y_dual(model, m, l, t))
                assert 2 * dual == fk[d - m] - 2 * z[d - m, d - l], \
                    f"duality at {model}, m={m}, l={l}"

        # crofton inside the face sums
        for m in range(1, d):
            for l in range(m):
                lhs = sum(num(expected_face_intrinsic_sum(model, m, l + j, t))
                          for j in range(1, m - l + 1, 2))
                assert lhs == num(expected_Y(model, m, l, False, t)), \
                    f"face-sum crofton at {model}, m={m}, l={l}"

        # tangent sums: differencing, top cases, and closure to face counts
        for j in range(d):
            tangent = {k: num(expected_tangent_intrinsic_sum(model, j, k, t))
                       for k in range(j, d + 1)}
            assert sum(tangent.values()) == fk[j], f"tangent closure at {model}, j={j}"
            assert tangent[d] == z[j, d - 1], f"top tangent sum at {model}, j={j}"
            if j <= d - 2:
                assert tangent[d - 1] == z[j, d - 2], \
                    f"next-to-top tangent sum at {model}, j={j}"
            for k in range(j + 1, d - 1):
                assert tangent[k] == z[j, k - 1] - z[j, k + 1], \
                    f"tangent differencing at {model}, j={j}, k={k}"

        # tangent sums at the apex against the absorption-corrected quermassintegrals
        for k in range(d + 1):
            correction = absorbed if (d - k) % 2 == 1 and k < d else 0
            assert z[0, k] == uk[k] - correction, f"apex tangent sum at {model}, k={k}"
            assert z[k, d] == 0, f"top tangent vanishes at {model}"

        # subspace intersections against the apex sums
        for k in range(d):
            assert num(subspace_intersection_probability(model, k, t)) == \
                2 * z[0, k] + absorbed, f"subspace hit probability at {model}, k={k}"

        # per-tuple face probabilities: complement and aggregation
        gens = model.generator_count
        for k in range(1, d):
            total = 0
            for idx in itertools.combinations(range(1, gens + 1), k):
                p_in = num(face_probability(model, idx, False, t))
                p_out = num(face_probability(model, idx, True, t))
                assert p_in + p_out == D, f"face probability split at {model}, idx={idx}"
                total += p_in
            assert total == fk[k], f"face probability aggregation at {model}, k={k}"


def _check_distinguished_values(t: StirlingTables) -> None:
    assert wendel_probability(4, 3) == Fraction(7, 8), "four symmetric points in R^3"
    assert wendel_probability(2, 1) == Fraction(1, 2)
    for n in range(1, 8):
        for d in range(n, n + 3):
            assert wendel_probability(n, d) == 1, "full binomial row"
    assert nonabsorption_probability(Model(A_BRIDGE, 4, 2), t) == Fraction(11, 12)
    assert nonabsorption_probability(Model(B_WALK, 2, 1), t) == Fraction(3, 4)
    assert expected_fk(Model(B_WALK, 3, 2), 1, False, t) == Fraction(23, 12)
    assert expected_fk(Model(A_BRIDGE, 4, 2), 1, False, t) == Fraction(11, 6)
    assert expected_Uk(Model(A_BRIDGE, 4, 2), 1, True, t) == Fraction(5, 22)
    assert [expected_vk(Model(A_BRIDGE, 3, 2), k, False, t) for k in range(3)] == \
        [Fraction(1, 3), Fraction(1, 2), Fraction(1, 6)]
    assert face_probability(Model(B_WALK, 3, 2), (1,), tables=t) == Fraction(3, 4)
    assert expected_Y(Model(A_BRIDGE, 4, 3), 2, 1, False, t) == Fraction(1, 2)
    assert expected_Y(Model(B_WALK, 3, 2), 1, 0, False, t) == Fraction(23, 24)


def _check_large_n_limit(t: StirlingTables) -> None:
    # conditioned expected edge count approaches 2! * (partitions of a
    # 3-set into 2 blocks) = 6 as the bridge length grows
    value = expected_fk(Model(A_BRIDGE, 500, 3), 1, True, t)
    ratio = value / 6
    assert Fraction(9, 10) <= ratio <= Fraction(11, 10), f"large-n ratio {float(ratio):.4f}"


def identity_checks(tables: StirlingTables | None = None,
                    max_n_tables: int = 30,
                    max_n_compositions: int = 8,
                    max_n_formulas: int = 10,
                    max_d_formulas: int = 5,
                    include_large_n: bool = True) -> list[CheckResult]:
    """Run the exact identity suite and return one result per check group."""
    t = tables if tables is not None else default_tables()
    checks = [
        _check("recurrences vs product expansion", lambda: _check_recurrences_vs_expansion(t, 12)),
        _check("doubled partition family recurrence", lambda: _check_second_b_recurrence(t, 12)),
        _check("row sums and parity halves", lambda: _check_row_sums(t, max_n_tables)),
        _check("low-order products vs triangles",
               lambda: _check_low_order_products(t, max_n_tables)),
        _check("signed convolution identities", lambda: _check_convolution_identities(t, max_n_tables)),
        _check("composition convolutions", lambda: _check_composition_convolutions(t, max_n_compositions)),
        _check("cross-formula identities", lambda: _check_formula_identities(t, max_n_formulas, max_d_formulas)),
        _check("distinguished exact values", lambda: _check_distinguished_values(t)),
    ]
    if include_large_n:
        checks.append(_check("large-n conditioned edge count", lambda: _check_large_n_limit(t)))
    return checks


def corrupted_tables() -> StirlingTables:
    """A deliberately damaged table set for mutation-testing the suite."""
    t = StirlingTables(12)
    t._rows["first"][6][3] += 1  # test-only: poke one triangle entry
    # and the same coefficient of the cached product the closed forms read,
    # row 6 over its factor t
    _FAMILY[A_BRIDGE].row(t, 6, 6).coeffs[2] += 1
    return t


# ---------------------------------------------------------------------------
# Monte Carlo gate matrix


@dataclass(frozen=True)
class Gate:
    name: str
    query: FunctionalQuery


def acceptance_gates() -> list[Gate]:
    """The canonical estimate-vs-exact gates: absorption, face counts,
    intrinsic volumes, a face probability, a conditioned quermassintegral,
    a joint hull, and one face-sum and one tangent-sum spot check."""
    a42 = Model(A_BRIDGE, 4, 2)
    a32 = Model(A_BRIDGE, 3, 2)
    a53 = Model(A_BRIDGE, 5, 3)
    b21 = Model(B_WALK, 2, 1)
    b32 = Model(B_WALK, 3, 2)
    b53 = Model(B_WALK, 5, 3)
    return [
        Gate("nonabsorption/A n=4 d=2", FunctionalQuery("nonabsorption", a42)),
        Gate("nonabsorption/B n=2 d=1", FunctionalQuery("nonabsorption", b21)),
        Gate("f1/B n=3 d=2", FunctionalQuery("fk", b32, k=1)),
        Gate("f1/A n=4 d=2", FunctionalQuery("fk", a42, k=1)),
        Gate("v0/A n=3 d=2", FunctionalQuery("vk", a32, k=0)),
        Gate("v1/A n=3 d=2", FunctionalQuery("vk", a32, k=1)),
        Gate("v2/A n=3 d=2", FunctionalQuery("vk", a32, k=2)),
        Gate("face-prob/B n=3 d=2 idx=1", FunctionalQuery("face_prob", b32, indices=(1,))),
        Gate("U1 conditioned/A n=4 d=2", FunctionalQuery("Uk", a42, k=1, conditioned=True)),
        Gate("joint-absorption/walk1+bridge2 d=1",
             FunctionalQuery("joint_absorption", walk_lengths=(1,), bridge_lengths=(2,), d=1)),
        Gate("Y m=2 l=1/B n=5 d=3", FunctionalQuery("Y", b53, m=2, l=1)),
        Gate("Z j=1 k=2/A n=5 d=3", FunctionalQuery("Z", a53, j=1, k=2)),
    ]


def default_gates() -> list[Gate]:
    """Acceptance gates plus desk-scale extras reaching dimension four."""
    a64 = Model(A_BRIDGE, 6, 4)
    return acceptance_gates() + [
        Gate("v2/A n=6 d=4", FunctionalQuery("vk", a64, k=2)),
    ]


def measurement_gates() -> list[Gate]:
    """Gates on the face-sum measurements that no default gate samples:
    Lambda, face_intrinsic, tangent_intrinsic, Z at j = 0 and j = 2, and
    v_1 in dimension three.  ``verify_suite`` does not run them."""
    a53 = Model(A_BRIDGE, 5, 3)
    b53 = Model(B_WALK, 5, 3)
    return [
        Gate("Lambda2/B n=5 d=3", FunctionalQuery("Lambda", b53, k=2)),
        Gate("face-intrinsic m=2 l=0/B n=5 d=3",
             FunctionalQuery("face_intrinsic", b53, m=2, l=0)),
        Gate("tangent-intrinsic j=1 k=1/A n=5 d=3",
             FunctionalQuery("tangent_intrinsic", a53, j=1, k=1)),
        Gate("Z j=0 k=1/A n=5 d=3", FunctionalQuery("Z", a53, j=0, k=1)),
        Gate("Z j=2 k=3/B n=6 d=4", FunctionalQuery("Z", Model(B_WALK, 6, 4), j=2, k=3)),
        Gate("v1/B n=5 d=3", FunctionalQuery("vk", b53, k=1)),
    ]


def _gate_seed(base_seed: int, gate_name: str, family: str) -> int:
    tag = zlib.crc32(f"{gate_name}|{family}".encode())
    return (int(base_seed) + (tag << 16)) & ((1 << 64) - 1)


def _gate_config(gate: Gate, family: str, budget: int, seed: int, workers: int) -> RunConfig:
    return RunConfig(query=gate.query, dist=DistributionSpec(family, gate.query.dimension),
                     samples=budget, seed=_gate_seed(seed, gate.name, family), workers=workers)


def _gate_record(gate: Gate, family: str, est: MCEstimate) -> dict:
    """The report entry of one gate's estimate under one distribution."""
    exact = est.exact_ref
    if est.stderr > 0:
        passed = abs(est.z) <= Z_GATE
    else:
        passed = est.mean == float(exact)
    return {
        "name": gate.name,
        "distribution": family,
        "functional": gate.query.functional,
        "exact": fraction_dict(exact),
        "mean": est.mean,
        "stderr": est.stderr,
        "z": est.z,
        "samples": est.samples,
        "rejected": est.rejected,
        "status": "pass" if passed else "fail",
    }


def run_gate(gate: Gate, family: str, budget: int, seed: int, workers: int = 1) -> dict:
    """Estimate one gate under one distribution and compare to the exact value."""
    return _gate_record(gate, family, estimate(_gate_config(gate, family, budget, seed, workers)))


def fraction_dict(x: Fraction) -> dict:
    """Numerator and denominator as decimal strings, plus the float value.

    Through Decimal, which is exact for integers: at large n the numbers
    outgrow the interpreter's 4300-digit limit on int-to-str conversion."""
    return {"num": str(Decimal(x.numerator)), "den": str(Decimal(x.denominator)),
            "approx": float(x)}


def z_summary(zs: list[float]) -> dict:
    """Aggregate statistics of gate z-scores: their count, the sum of their
    squares (chi-square with that many degrees of freedom when every
    estimate is unbiased), the largest |z|, and the Kolmogorov-Smirnov
    distance of their empirical distribution from N(0, 1); None without
    any z-score."""
    n = len(zs)
    cdf = [0.5 * (1.0 + math.erf(z / math.sqrt(2.0))) for z in sorted(zs)]
    return {
        "mc_z_count": n,
        "mc_sum_z2": math.fsum(z * z for z in zs) if n else None,
        "mc_max_abs_z": max(abs(z) for z in zs) if n else None,
        "mc_ks_d": max(max((i + 1) / n - c, c - i / n) for i, c in enumerate(cdf)) if n else None,
    }


def verify_suite(budget: int = 100_000,
                 seed: int = 0,
                 workers: int = 1,
                 tamper: bool = False) -> dict:
    """Run the identity suite and the gate matrix; return the report dict.

    Budgets below 10^4 samples have too little power for the |z| <= 4 gates,
    so the Monte Carlo matrix is marked skipped and only identities count.
    With ``tamper=True`` the identities run against deliberately corrupted
    tables, which must make at least one of them fail.  Non-integer
    arguments, a negative budget, a seed outside [0, 2^64) or no worker
    raise DomainError at once.
    """
    budget, seed, workers = as_index(budget, "budget"), as_seed(seed), as_index(workers, "workers")
    if budget < 0:
        raise DomainError(f"budget must be nonnegative, got {budget}")
    if workers < 1:
        raise DomainError("worker count must be >= 1")
    pairs = [(gate, family) for family in FAMILIES for gate in default_gates()]
    run_mc = budget >= MIN_MC_BUDGET and not tamper
    configs = [_gate_config(gate, family, budget, seed, workers)
               for gate, family in pairs] if run_mc else []
    # every pair samples in one block, so a run opens one pool, and the
    # identity suite runs in this process while the pool samples
    with sampling(configs) as estimates:
        identities = identity_checks(tables=corrupted_tables() if tamper else None)
        mc = estimates()
    if tamper and all(c.status == "pass" for c in identities):
        identities.append(CheckResult("tamper detection", "fail",
                                      "corrupted tables went unnoticed"))
    if run_mc:
        mc_checks = [_gate_record(gate, family, est) for (gate, family), est in zip(pairs, mc)]
    else:
        skip_note = (f"budget {budget} below the minimum of {MIN_MC_BUDGET}"
                     if budget < MIN_MC_BUDGET else "tampered run checks identities only")
        mc_checks = [{"name": gate.name, "distribution": family,
                      "functional": gate.query.functional,
                      "status": "skipped", "detail": skip_note}
                     for gate, family in pairs]
    id_failed = sum(1 for c in identities if c.status == "fail")
    mc_run = [c for c in mc_checks if c["status"] != "skipped"]
    mc_passed = sum(1 for c in mc_run if c["status"] == "pass")
    rate = (mc_passed / len(mc_run)) if mc_run else None
    overall = "pass" if id_failed == 0 and (rate is None or rate >= MC_PASS_RATE) else "fail"
    return {
        "schema": SCHEMA_VERSION,
        "seed": seed,
        "budget": budget,
        "workers": workers,
        "distributions": list(FAMILIES),
        "tampered": bool(tamper),
        "identities": [c.as_dict() for c in identities],
        "mc_checks": mc_checks,
        "summary": {
            "identities_total": len(identities),
            "identities_failed": id_failed,
            "mc_total": len(mc_checks),
            "mc_run": len(mc_run),
            "mc_passed": mc_passed,
            "mc_pass_rate": rate,
            # a pair with stderr 0 has no z-score: its mean matches exactly or fails
            "mc_zero_stderr_count": sum(1 for c in mc_run if c["z"] is None),
            **z_summary([c["z"] for c in mc_run if c["z"] is not None]),
            "overall": overall,
        },
    }


def report_to_json(report: dict) -> str:
    """Canonical serialization: stable key order, newline-terminated."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"
