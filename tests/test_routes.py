"""The two routes to the paper's values share no code path: the Monte Carlo
sampler runs no closed form, and the exact identity suite samples nothing."""

import sys

from conic_walks import simulation, verify
from conic_walks.combinatorics import StirlingTables
from conic_walks.formulas import FunctionalQuery, Model, evaluate_query

MODEL = Model("A", 5, 3)
QUERIES = [
    FunctionalQuery("absorption", MODEL),
    FunctionalQuery("nonabsorption", MODEL),
    FunctionalQuery("fk", MODEL, k=1, conditioned=True),
    FunctionalQuery("Uk", MODEL, k=1),
    FunctionalQuery("vk", MODEL, k=2),
    FunctionalQuery("Lambda", MODEL, k=2),
    FunctionalQuery("Y", MODEL, m=2, l=1),
    FunctionalQuery("Z", MODEL, j=1, k=2, conditioned=True),
    FunctionalQuery("face_intrinsic", MODEL, m=2, l=1),
    FunctionalQuery("tangent_intrinsic", MODEL, j=1, k=2),
    FunctionalQuery("face_prob", MODEL, indices=(1, 3)),
    FunctionalQuery("subspace_prob", MODEL, k=1),
    FunctionalQuery("joint_absorption", walk_lengths=(2,), bridge_lengths=(3,), d=3),
]


def modules_called(run):
    """The package modules whose Python functions ``run()`` calls."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_globals.get("__name__", ""))

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return {name for name in seen if name.startswith("conic_walks")}


def test_the_sampler_runs_no_closed_form():
    assert {q.functional for q in QUERIES} == set(simulation.MEASURES)
    dist = simulation.DistributionSpec("gaussian_iid", 3)
    for query in QUERIES:
        sampler = simulation._Sampler(query, dist)
        called = modules_called(
            lambda: sampler.values(simulation._SampleStreams(5, 0), 256))
        assert {"conic_walks.simulation", "conic_walks.geometry"} <= called, query
        assert not called & {"conic_walks.formulas", "conic_walks.combinatorics"}, query


def test_the_identity_suite_samples_nothing():
    results = []

    def exact():
        results.extend(verify.identity_checks(tables=StirlingTables()))
        evaluate_query(FunctionalQuery("fk", Model("A", 500, 3), k=1, conditioned=True))

    called = modules_called(exact)
    assert [c.status for c in results] == ["pass"] * len(results) and len(results) == 9
    assert {"conic_walks.verify", "conic_walks.formulas", "conic_walks.combinatorics"} <= called
    assert not called & {"conic_walks.geometry", "conic_walks.simulation"}
