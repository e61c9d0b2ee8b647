"""The functional registry drives exact evaluation, the CLI and the simulator."""

import io
import json
import re

import pytest

from conic_walks.cli import EXIT_OK, main
from conic_walks.errors import DomainError
from conic_walks.formulas import FUNCTIONALS, FunctionalQuery, Model, evaluate_query
from conic_walks.simulation import MEASURES, DistributionSpec, RunConfig, estimate

MODEL = Model("B", 5, 3)
INDEX_VALUES = {"k": 1, "m": 2, "l": 1, "j": 1, "indices": (1, 3), "n": 4, "d": 3}
BLOCKS = {"walk_lengths": (2,), "bridge_lengths": (3,)}


def example_query(name, leave_out=None):
    spec = FUNCTIONALS[name]
    kw = {key: INDEX_VALUES[key] for key in spec.indices if key != leave_out}
    return FunctionalQuery(name, MODEL if spec.needs_model else None, **kw, **BLOCKS)


def cli_args(name):
    spec = FUNCTIONALS[name]
    args = ["exact", "--functional", name, "--walks", "2", "--bridges", "3"]
    if spec.needs_model:
        args += ["--model", MODEL.tag, "--n", str(MODEL.n), "--d", str(MODEL.d)]
    for key in spec.indices:
        value = INDEX_VALUES[key]
        args += [f"--{key}", ",".join(map(str, value)) if key == "indices" else str(value)]
    return args


@pytest.mark.parametrize("name", list(FUNCTIONALS))
def test_row_evaluates_through_query_and_cli(name):
    exact = evaluate_query(example_query(name)).exact
    out = io.StringIO()
    assert main(cli_args(name), out=out) == EXIT_OK
    rec = json.loads(out.getvalue())
    assert rec["query"]["functional"] == name
    assert (int(rec["exact"]["num"]), int(rec["exact"]["den"])) == (
        exact.numerator, exact.denominator)


@pytest.mark.parametrize("name, key", [(name, key) for name, spec in FUNCTIONALS.items()
                                       for key in spec.indices])
def test_missing_declared_index_is_named(name, key):
    with pytest.raises(DomainError, match=f"requires index '{key}'"):
        evaluate_query(example_query(name, leave_out=key))


@pytest.mark.parametrize("name, key", [(name, key) for name, spec in FUNCTIONALS.items()
                                       for key in INDEX_VALUES if key not in spec.indices])
def test_undeclared_index_is_rejected(name, key):
    spec = FUNCTIONALS[name]
    kw = {k: INDEX_VALUES[k] for k in spec.indices}
    kw[key] = INDEX_VALUES[key]
    with pytest.raises(DomainError, match=f"takes no index '{key}'"):
        FunctionalQuery(name, MODEL if spec.needs_model else None, **kw)


def test_help_lists_every_functional(capsys):
    assert main(["exact", "--help"]) == EXIT_OK
    text = " ".join(capsys.readouterr().out.split())
    listed = re.search(r"FUNCTIONAL ((?:\w+, )+\w+) \(f1/U2/v0", text).group(1)
    assert listed.split(", ") == list(FUNCTIONALS)


def test_every_measurement_is_registered():
    assert set(MEASURES) <= set(FUNCTIONALS)
    assert set(FUNCTIONALS) - set(MEASURES) == {"wendel", "Y_dual"}


@pytest.mark.parametrize("query", [FunctionalQuery("wendel", n=4, d=2),
                                   FunctionalQuery("Y_dual", Model("B", 3, 2), m=2, l=0)])
def test_estimate_rejects_unmeasured_functionals(query):
    with pytest.raises(DomainError, match="no Monte Carlo measurement"):
        estimate(RunConfig(query=query, dist=DistributionSpec("gaussian_iid", 2),
                           samples=100, seed=0))
