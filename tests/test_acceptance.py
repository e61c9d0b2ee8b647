"""Acceptance criteria, one test per criterion with a printed verdict line.

Run with  pytest tests/test_acceptance.py -v -s  to see the PASS/FAIL line
of every criterion as it completes.  The Monte Carlo criteria use a fixed
seed and two worker processes; worker count provably does not change any
estimate (criterion 7), so the verdicts are reproducible.
"""

import itertools
import time
from fractions import Fraction

import numpy as np
import pytest

from oracles import brute_force_is_face, random_cone_generators

from conic_walks.combinatorics import StirlingTables
from conic_walks.formulas import Model, expected_fk, wendel_probability
from conic_walks.geometry import ConeSample, is_face
from conic_walks.verify import (
    _check_composition_convolutions,
    _check_convolution_identities,
    _check_formula_identities,
    _check_recurrences_vs_expansion,
    _check_row_sums,
    _check_second_b_recurrence,
    acceptance_gates,
    default_tables,
    report_to_json,
    run_gate,
    verify_suite,
)

ACCEPTANCE_SEED = 20_250_810
GATE_BUDGET = 100_000
WORKERS = 2


def announce(number, label, body):
    started = time.perf_counter()
    try:
        body()
    except BaseException:
        print(f"[FAIL] criterion {number}: {label}")
        raise
    elapsed = time.perf_counter() - started
    print(f"[PASS] criterion {number}: {label} ({elapsed:.1f}s)")


def test_criterion_1_exact_identity_suite():
    def body():
        t = default_tables()
        started = time.perf_counter()
        _check_recurrences_vs_expansion(t, 12)
        _check_second_b_recurrence(t, 12)
        _check_row_sums(t, 30)
        _check_convolution_identities(t, 30)
        _check_composition_convolutions(t, 8)
        assert time.perf_counter() - started < 10.0, "identity suite exceeded 10s"

    announce(1, "exact identity suite (recurrences, row sums, convolutions)", body)


def test_criterion_2_wendel_value():
    def body():
        assert wendel_probability(4, 3) == Fraction(7, 8)

    announce(2, "classic nonabsorption value 7/8 at n=4, d=3", body)


def test_criterion_3_internal_formula_consistency():
    def body():
        started = time.perf_counter()
        _check_formula_identities(default_tables(), 10, 5)
        assert time.perf_counter() - started < 10.0, "formula identities exceeded 10s"

    announce(3, "cross-formula identities for n <= 10, d <= 5, zero tolerance", body)


def test_criterion_4_brute_force_face_oracle():
    def body():
        started = time.perf_counter()
        rng = np.random.Generator(np.random.Philox(key=ACCEPTANCE_SEED))
        instances = 0
        while instances < 1000:
            d = int(rng.integers(2, 4))
            n = int(rng.integers(d, 7))
            bridge = bool(rng.integers(0, 2)) and n >= d + 1
            gens = random_cone_generators(rng, n, d, bridge=bridge)
            cone = ConeSample(gens)
            if not cone.in_general_position():
                continue
            instances += 1
            for k in range(1, d):
                for subset in itertools.combinations(range(cone.n_generators), k):
                    fast = is_face(cone, subset)
                    slow = brute_force_is_face(gens, subset)
                    assert fast == slow, (
                        f"instance {instances}: disagreement at subset {subset}")
        assert time.perf_counter() - started < 120.0, "face oracle exceeded 2 minutes"

    announce(4, "facet-mask face test vs supporting-hyperplane search, 1000 cones", body)


def run_acceptance_gates(family):
    results = [run_gate(g, family, GATE_BUDGET, ACCEPTANCE_SEED, workers=WORKERS)
               for g in acceptance_gates()]
    for res in results:
        z = "None" if res["z"] is None else f"{res['z']:+.2f}"
        print(f"    {res['status']:4s} {family:28s} {res['name']:34s} "
              f"mean={res['mean']:.5f} exact={res['exact']['approx']:.5f} z={z}")
    return results


@pytest.mark.slow
def test_criterion_5_monte_carlo_gates():
    def body():
        started = time.perf_counter()
        print()
        results = run_acceptance_gates("gaussian_iid")
        failed = [r["name"] for r in results if r["status"] != "pass"]
        assert not failed, f"gates outside |z| <= 4: {failed}"
        assert time.perf_counter() - started < 600.0, "Monte Carlo gates exceeded 10 minutes"

    announce(5, "Monte Carlo gates at 10^5 samples, |z| <= 4, Gaussian increments", body)


@pytest.mark.slow
@pytest.mark.parametrize("family", ["heavy_tail_iid", "scaled_gaussian_exchangeable"])
def test_criterion_6_distribution_freeness(family):
    def body():
        print()
        results = run_acceptance_gates(family)
        rate = sum(r["status"] == "pass" for r in results) / len(results)
        assert rate >= 0.95, f"pass rate {rate:.2f} under {family}"

    announce(6, f"distribution-freeness of the gates under {family}", body)


@pytest.mark.slow
def test_criterion_7_reproducibility():
    def body():
        first = report_to_json(verify_suite(budget=10_000, seed=ACCEPTANCE_SEED, workers=1))
        second = report_to_json(verify_suite(budget=10_000, seed=ACCEPTANCE_SEED, workers=1))
        assert first == second, "same-seed reports differ"
        reworked = report_to_json(verify_suite(budget=10_000, seed=ACCEPTANCE_SEED, workers=2))
        assert reworked.replace('"workers": 2', '"workers": 1') == first, \
            "worker count changed an estimate"

    announce(7, "byte-identical verification reports, worker-count invariance", body)


def test_criterion_8_large_n_conditioned_face_count():
    def body():
        started = time.perf_counter()
        fresh = StirlingTables()  # cold tables: the 5s budget includes the table build
        value = expected_fk(Model("A", 500, 3), 1, conditioned=True, tables=fresh)
        assert time.perf_counter() - started < 5.0, "large-n evaluation exceeded 5s"
        assert abs(value / 6 - 1) <= Fraction(1, 10), f"value {float(value):.3f} not within 10% of 6"

    announce(8, "conditioned edge count at n=500, d=3 within 10% of the limit 6", body)
