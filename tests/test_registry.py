"""The functional registry drives exact evaluation, the CLI and the simulator."""

import io
import json
import re

import pytest

from conic_walks.cli import EXIT_OK, EXIT_USAGE, main
from conic_walks.errors import DomainError
from conic_walks.formulas import FUNCTIONALS, FunctionalQuery, Model, evaluate_query
from conic_walks.simulation import MEASURES, DistributionSpec, RunConfig, estimate

MODEL = Model("B", 5, 3)
INDEX_VALUES = {"k": 1, "m": 2, "l": 1, "j": 1, "indices": (1, 3), "n": 4, "d": 3}
BLOCKS = {"walk_lengths": (2,), "bridge_lengths": (3,)}


def example_query(name, leave_out=None):
    spec = FUNCTIONALS[name]
    kw = {key: INDEX_VALUES[key] for key in spec.indices if key != leave_out}
    blocks = BLOCKS if spec.blocks else {}
    return FunctionalQuery(name, MODEL if spec.needs_model else None, **kw, **blocks)


def cli_args(name):
    spec = FUNCTIONALS[name]
    args = ["exact", "--functional", name]
    if spec.blocks:
        args += ["--walks", "2", "--bridges", "3"]
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


@pytest.mark.parametrize("name", [name for name, spec in FUNCTIONALS.items()
                                  if not spec.needs_model])
def test_model_is_rejected_where_none_is_needed(name):
    spec = FUNCTIONALS[name]
    kw = {key: INDEX_VALUES[key] for key in spec.indices}
    blocks = BLOCKS if spec.blocks else {}
    with pytest.raises(DomainError, match="takes no model"):
        FunctionalQuery(name, Model("A", 6, 2), **kw, **blocks)


@pytest.mark.parametrize("name, field", [(name, field) for name, spec in FUNCTIONALS.items()
                                         if not spec.blocks for field in BLOCKS])
def test_block_lengths_are_rejected_outside_joint_absorption(name, field):
    spec = FUNCTIONALS[name]
    kw = {key: INDEX_VALUES[key] for key in spec.indices}
    with pytest.raises(DomainError, match="takes no walk or bridge lengths"):
        FunctionalQuery(name, MODEL if spec.needs_model else None, **kw,
                        **{field: BLOCKS[field]})


@pytest.mark.parametrize("args, message", [
    (["--model", "A", "--n", "4", "--d", "2", "--functional", "absorption",
      "--walks", "3", "--bridges", "5"], "takes no walk or bridge lengths"),
    (["--model", "A", "--n", "4", "--d", "3", "--functional", "wendel"], "takes no model"),
])
def test_cli_rejects_stray_fields(args, message, capsys):
    assert main(["exact"] + args, out=io.StringIO()) == EXIT_USAGE
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("build", [
    lambda: FunctionalQuery("fk", Model("A", 4, 2), k=1.5),
    lambda: FunctionalQuery("Y", Model("B", 5, 3), m=2.0, l=1),
    lambda: FunctionalQuery("face_prob", Model("B", 5, 3), indices=(1, 2.5)),
    lambda: FunctionalQuery("wendel", n=4, d=2.5),
    lambda: evaluate_query(FunctionalQuery("joint_absorption", walk_lengths=(1.5,), d=1)),
    lambda: evaluate_query(FunctionalQuery("joint_absorption", bridge_lengths=(2.0,), d=1)),
    lambda: Model("A", 4.5, 2),
    lambda: Model("B", 4, 2.0),
])
def test_non_integer_sizes_and_indices_are_rejected(build):
    with pytest.raises(DomainError, match="must be an integer"):
        build()


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
