"""Self-verification: exact identity suite plus a Monte Carlo gate matrix.

The identity suite holds the combinatorial backbone to account: recurrences
against direct polynomial expansion, row sums, the truncated root products
the closed forms read against the full triangles, signed convolution
identities, the composition convolutions behind the face probabilities,
and the web of exact cross-identities tying every expectation formula to
the others.  The Monte Carlo matrix then samples cones and checks each
estimate against its exact value at |z| <= 4, per distribution family.

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
    bridge_roots,
    coeff_P,
    coeff_Q,
    compositions,
    default_tables,
    poly_mul,
    root_product,
    walk_roots,
)
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
from .simulation import FAMILIES, DistributionSpec, RunConfig, estimate

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
    # the closed forms read truncated root products instead of the triangles:
    # their coefficients must be the triangle rows, whole and truncated, and
    # their upper tails from P(1) and P(-1) the direct sums over the row
    for n in range(max_n + 1):
        for name, roots, lookup in (("first", bridge_roots(n), t.first),
                                    ("first_B", walk_roots(n), t.first_b)):
            row = [lookup(n, k) for k in range(n + 1)]
            assert root_product(roots, n + 1) == row, f"{name} product row {n}"
            half = n // 2 + 1
            assert root_product(roots, half) == row[:half], f"{name} truncated row {n}"
            low = LowOrderProduct.of(roots, n + 1)
            for a in range(n + 2):
                assert low.parity_tail(a) == sum(row[a::2]), f"{name} parity tail ({n},{a})"
                assert low.tail(a) == sum(row[a:]), f"{name} tail ({n},{a})"


def _check_convolution_identities(t: StirlingTables, max_n: int) -> None:
    # signed and plain convolutions of first-kind against second-kind rows;
    # the alternating forms degenerate when only the top term survives,
    # hence the n >= j+2 (plain families) and n >= j+1 (B families) ranges.
    for n in range(1, max_n + 1):
        for j in range(n):
            plain = sum(t.first(n, k) * t.second(k, j + 1) for k in range(n + 1))
            expect = math.factorial(n) // math.factorial(j + 1) * binomial(n - 1, j)
            assert plain == expect, f"plain convolution at (n={n}, j={j})"
            if n >= j + 2:
                alt = sum((-1) ** k * t.first(n, k) * t.second(k, j + 1)
                          for k in range(n + 1))
                assert alt == 0, f"alternating convolution at (n={n}, j={j})"
        for j in range(n + 1):
            plain_b = sum(t.first_b(n, k) * t.second_b(k, j) for k in range(n + 1))
            expect_b = ((1 << n) * math.factorial(n) * binomial(n, j)
                        // ((1 << j) * math.factorial(j)))
            assert plain_b == expect_b, f"plain B convolution at (n={n}, j={j})"
            if n >= j + 1:
                alt_b = sum((-1) ** k * t.first_b(n, k) * t.second_b(k, j)
                            for k in range(n + 1))
                assert alt_b == 0, f"alternating B convolution at (n={n}, j={j})"


def _check_composition_convolutions(t: StirlingTables, max_n: int) -> None:
    # walk-terminated blocks: summing the block product that face_probability
    # builds for a walk over all block compositions collapses to a product of
    # the two B families, read from the triangles
    for n in range(1, max_n + 1):
        for m in range(1, n + 1):
            for q in range(0, n - m + 1):
                acc = Fraction(0)
                for tail in range(0, n - m + 1):
                    for parts in compositions(n - tail, m):
                        denom = math.prod(math.factorial(p) for p in parts)
                        denom *= math.factorial(tail) * (1 << tail)
                        acc += Fraction(coeff_P(n, parts, q), denom)
                rhs = Fraction(math.factorial(m) * t.first_b(n, q + m) * t.second_b(q + m, m),
                               (1 << (n - m)) * math.factorial(n))
                assert acc == rhs, f"walk composition convolution at (n={n}, m={m}, q={q})"
    # pure bridge blocks, the product built for a bridge: same collapse onto
    # the plain families
    for n in range(2, max_n + 1):
        for m in range(1, n):
            for q in range(0, n - m):
                acc = Fraction(0)
                for parts in compositions(n, m + 1):
                    denom = math.prod(math.factorial(p) for p in parts)
                    acc += Fraction(coeff_Q(n, parts[:m], q), denom)
                rhs = Fraction(math.factorial(m + 1) * t.first(n, q + m + 1)
                               * t.second(q + m + 1, m + 1), math.factorial(n))
                assert acc == rhs, f"bridge composition convolution at (n={n}, m={m}, q={q})"


def _desk_models(max_n: int, max_d: int) -> list[Model]:
    models = []
    for d in range(1, max_d + 1):
        for n in range(1, max_n + 1):
            if n >= d + 1:
                models.append(Model(A_BRIDGE, n, d))
            if n >= d:
                models.append(Model(B_WALK, n, d))
    return models


def _check_formula_identities(t: StirlingTables, max_n: int, max_d: int) -> None:
    one = Fraction(1)
    for model in _desk_models(max_n, max_d):
        d = model.d
        absorbed = absorption_probability(model, t)
        survived = nonabsorption_probability(model, t)
        assert absorbed + survived == one, f"absorption split at {model}"
        assert 0 <= absorbed <= 1 and 0 <= survived <= 1, f"probability range at {model}"

        # intrinsic volumes sum to one, conditioned or not
        assert sum(expected_vk(model, k, False, t) for k in range(d + 1)) == one, \
            f"intrinsic volume closure at {model}"
        assert sum(expected_vk(model, k, True, t) for k in range(d + 1)) == one, \
            f"conditioned intrinsic volume closure at {model}"

        # doubling edge sums gives face counts
        for k in range(1, d):
            assert 2 * expected_Y(model, k, 0, False, t) == expected_fk(model, k, False, t), \
                f"edge-sum doubling at {model}, k={k}"

        # conic Crofton at expectation level
        for k in range(d + 1):
            crofton = sum(expected_vk(model, k + j, False, t)
                          for j in range(1, d - k + 1, 2))
            assert expected_Uk(model, k, False, t) == crofton, f"crofton at {model}, k={k}"
            crofton_c = sum(expected_vk(model, k + j, True, t)
                            for j in range(1, d - k + 1, 2))
            assert expected_Uk(model, k, True, t) == crofton_c, \
                f"conditioned crofton at {model}, k={k}"

        # conditioned values divide by the survival probability
        for k in range(d):
            assert expected_fk(model, k, True, t) == expected_fk(model, k, False, t) / survived
            assert expected_vk(model, k, True, t) == expected_vk(model, k, False, t) / survived
        for k in range(1, d):
            assert expected_Lambda(model, k, True, t) == \
                expected_Lambda(model, k, False, t) / survived

        # total face content is the top-index face sum
        for k in range(1, d):
            assert expected_Lambda(model, k, False, t) == expected_Y(model, k, k - 1, False, t)
            assert expected_face_intrinsic_sum(model, k, k, t) == \
                expected_Lambda(model, k, False, t), f"face content vs intrinsic at {model}"

        # duality: dual face sums against primal face counts and tangent sums
        for m in range(1, d + 1):
            for l in range(m):
                dual = expected_Y_dual(model, m, l, t)
                primal = (expected_fk(model, d - m, False, t) / 2
                          - expected_Z(model, d - m, d - l, False, t))
                assert dual == primal, f"duality at {model}, m={m}, l={l}"
            assert 2 * expected_Y_dual(model, m, 0, t) == expected_fk(model, d - m, False, t), \
                f"dual face count at {model}, m={m}"

        # crofton inside the face sums
        for m in range(1, d):
            for l in range(m):
                lhs = sum(expected_face_intrinsic_sum(model, m, l + j, t)
                          for j in range(1, m - l + 1, 2))
                assert lhs == expected_Y(model, m, l, False, t), \
                    f"face-sum crofton at {model}, m={m}, l={l}"

        # tangent sums: differencing, top cases, and closure to face counts
        for j in range(d):
            closure = sum(expected_tangent_intrinsic_sum(model, j, k, t)
                          for k in range(j, d + 1))
            assert closure == expected_fk(model, j, False, t), \
                f"tangent closure at {model}, j={j}"
            assert expected_tangent_intrinsic_sum(model, j, d, t) == \
                expected_Z(model, j, d - 1, False, t), f"top tangent sum at {model}, j={j}"
            if j <= d - 2:
                assert expected_tangent_intrinsic_sum(model, j, d - 1, t) == \
                    expected_Z(model, j, d - 2, False, t), \
                    f"next-to-top tangent sum at {model}, j={j}"
            for k in range(j + 1, d - 1):
                diff = expected_Z(model, j, k - 1, False, t) - expected_Z(model, j, k + 1, False, t)
                assert expected_tangent_intrinsic_sum(model, j, k, t) == diff, \
                    f"tangent differencing at {model}, j={j}, k={k}"

        # tangent sums at the apex against the absorption-corrected quermassintegrals
        for k in range(d + 1):
            correction = absorbed if (d - k) % 2 == 1 and k < d else Fraction(0)
            assert expected_Z(model, 0, k, False, t) == \
                expected_Uk(model, k, False, t) - correction, \
                f"apex tangent sum at {model}, k={k}"
            assert expected_Z(model, k, d, False, t) == 0, f"top tangent vanishes at {model}"

        # subspace intersections against the apex sums
        for k in range(d):
            assert subspace_intersection_probability(model, k, t) == \
                2 * expected_Z(model, 0, k, False, t) + absorbed, \
                f"subspace hit probability at {model}, k={k}"

        # per-tuple face probabilities: complement and aggregation
        gens = model.generator_count
        for k in range(1, d):
            total = Fraction(0)
            for idx in itertools.combinations(range(1, gens + 1), k):
                p_in = face_probability(model, idx, False, t)
                p_out = face_probability(model, idx, True, t)
                assert p_in + p_out == one, f"face probability split at {model}, idx={idx}"
                total += p_in
            assert total == expected_fk(model, k, False, t), \
                f"face probability aggregation at {model}, k={k}"

    # joint hulls specialize to the single-block formulas
    for d in range(1, max_d + 1):
        for n in range(d, max_n + 1):
            walk = Model(B_WALK, n, d)
            assert joint_absorption_probability([n], [], d, tables=t) == \
                absorption_probability(walk, t)
        for n in range(d + 1, max_n + 1):
            bridge = Model(A_BRIDGE, n, d)
            assert joint_absorption_probability([], [n], d, tables=t) == \
                absorption_probability(bridge, t)
    assert joint_absorption_probability([1], [2], 1, tables=t) == Fraction(1, 2)
    assert joint_absorption_probability([1], [2], 1, complement=True, tables=t) == Fraction(1, 2)


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
    # and the same coefficient of the cached product the closed forms read
    _FAMILY[A_BRIDGE].full_row(t, 6).coeffs[3] += 1
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


def _gate_seed(base_seed: int, gate_name: str, family: str) -> int:
    tag = zlib.crc32(f"{gate_name}|{family}".encode())
    return (int(base_seed) + (tag << 16)) & ((1 << 64) - 1)


def run_gate(gate: Gate, family: str, budget: int, seed: int, workers: int = 1) -> dict:
    """Estimate one gate under one distribution and compare to the exact value."""
    dist = DistributionSpec(family, gate.query.dimension)
    config = RunConfig(query=gate.query, dist=dist, samples=budget,
                       seed=_gate_seed(seed, gate.name, family), workers=workers)
    est = estimate(config)
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


def fraction_dict(x: Fraction) -> dict:
    """Numerator and denominator as decimal strings, plus the float value.

    Through Decimal, which is exact for integers: at large n the numbers
    outgrow the interpreter's 4300-digit limit on int-to-str conversion."""
    return {"num": str(Decimal(x.numerator)), "den": str(Decimal(x.denominator)),
            "approx": float(x)}


def verify_suite(budget: int = 100_000,
                 seed: int = 0,
                 workers: int = 1,
                 tamper: bool = False) -> dict:
    """Run the identity suite and the gate matrix; return the report dict.

    Budgets below 10^4 samples have too little power for the |z| <= 4 gates,
    so the Monte Carlo matrix is marked skipped and only identities count.
    With ``tamper=True`` the identities run against deliberately corrupted
    tables, which must make at least one of them fail.
    """
    tables = corrupted_tables() if tamper else None
    identities = identity_checks(tables=tables)
    if tamper and all(c.status == "pass" for c in identities):
        identities.append(CheckResult("tamper detection", "fail",
                                      "corrupted tables went unnoticed"))
    mc_checks: list[dict] = []
    run_mc = budget >= MIN_MC_BUDGET and not tamper
    skip_note = (f"budget {budget} below the minimum of {MIN_MC_BUDGET}"
                 if budget < MIN_MC_BUDGET else "tampered run checks identities only")
    for family in FAMILIES:
        for gate in default_gates():
            if run_mc:
                mc_checks.append(run_gate(gate, family, budget, seed, workers))
            else:
                mc_checks.append({
                    "name": gate.name, "distribution": family,
                    "functional": gate.query.functional,
                    "status": "skipped",
                    "detail": skip_note,
                })
    id_failed = sum(1 for c in identities if c.status == "fail")
    mc_run = [c for c in mc_checks if c["status"] != "skipped"]
    mc_passed = sum(1 for c in mc_run if c["status"] == "pass")
    rate = (mc_passed / len(mc_run)) if mc_run else None
    overall = "pass" if id_failed == 0 and (rate is None or rate >= MC_PASS_RATE) else "fail"
    return {
        "schema": SCHEMA_VERSION,
        "seed": int(seed),
        "budget": int(budget),
        "workers": int(workers),
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
            "overall": overall,
        },
    }


def report_to_json(report: dict) -> str:
    """Canonical serialization: stable key order, newline-terminated."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"
