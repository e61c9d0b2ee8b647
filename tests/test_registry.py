"""The functional registry drives exact evaluation, the CLI and the simulator."""

import dataclasses
import io
import json
import re

import pytest

from conic_walks.cli import EXIT_OK, EXIT_USAGE, main
from conic_walks.errors import DomainError
from conic_walks.formulas import (
    FUNCTIONALS,
    FunctionalQuery,
    Model,
    absorption_probability,
    evaluate_query,
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
from conic_walks.simulation import MEASURES, DistributionSpec, RunConfig, estimate

MODEL = Model("B", 5, 3)
# one value for every optional FunctionalQuery field
VALUES = {"model": MODEL, "k": 1, "m": 2, "l": 1, "j": 1, "indices": (1, 3),
          "walk_lengths": (2,), "bridge_lengths": (3,), "n": 4, "d": 3}
BLOCK_KEYS = ("walk_lengths", "bridge_lengths")
INDEX_KEYS = tuple(key for key in VALUES if key != "model" and key not in BLOCK_KEYS)
FLAGS = {"walk_lengths": "--walks", "bridge_lengths": "--bridges"}


def example_query(name, **changes):
    kw = {key: VALUES[key] for key in FUNCTIONALS[name].fields}
    return FunctionalQuery(name, **{**kw, **changes})


def cli_args(name):
    args = ["exact", "--functional", name]
    for key in FUNCTIONALS[name].fields:
        value = VALUES[key]
        if key == "model":
            args += ["--model", value.tag, "--n", str(value.n), "--d", str(value.d)]
        elif isinstance(value, tuple):
            args += [FLAGS.get(key, f"--{key}"), ",".join(map(str, value))]
        else:
            args += [f"--{key}", str(value)]
    return args


def undeclared(keys):
    return [(name, key) for name, spec in FUNCTIONALS.items()
            for key in keys if key not in spec.fields]


def test_query_fields_are_the_optional_dataclass_fields():
    names = [f.name for f in dataclasses.fields(FunctionalQuery)]
    assert names == ["functional", *VALUES, "conditioned"]
    assert all(set(spec.fields) <= set(VALUES) for spec in FUNCTIONALS.values())


@pytest.mark.parametrize("name", list(FUNCTIONALS))
def test_row_evaluates_through_query_and_cli(name):
    exact = evaluate_query(example_query(name)).exact
    out = io.StringIO()
    assert main(cli_args(name), out=out) == EXIT_OK
    rec = json.loads(out.getvalue())
    assert rec["query"]["functional"] == name
    assert (int(rec["exact"]["num"]), int(rec["exact"]["den"])) == (
        exact.numerator, exact.denominator)


# each row's public closed form, called directly with the VALUES its row
# declares and the conditioned flag where it has one
DIRECT_CALLS = {
    "absorption": lambda c: absorption_probability(MODEL),
    "nonabsorption": lambda c: nonabsorption_probability(MODEL),
    "wendel": lambda c: wendel_probability(4, 3),
    "fk": lambda c: expected_fk(MODEL, 1, c),
    "Uk": lambda c: expected_Uk(MODEL, 1, c),
    "vk": lambda c: expected_vk(MODEL, 1, c),
    "Lambda": lambda c: expected_Lambda(MODEL, 1, c),
    "Y": lambda c: expected_Y(MODEL, 2, 1, c),
    "Z": lambda c: expected_Z(MODEL, 1, 1, c),
    "face_intrinsic": lambda c: expected_face_intrinsic_sum(MODEL, 2, 1),
    "tangent_intrinsic": lambda c: expected_tangent_intrinsic_sum(MODEL, 1, 1),
    "Y_dual": lambda c: expected_Y_dual(MODEL, 2, 1),
    "face_prob": lambda c: face_probability(MODEL, (1, 3)),
    "subspace_prob": lambda c: subspace_intersection_probability(MODEL, 1),
    "joint_absorption": lambda c: joint_absorption_probability((2,), (3,), 3),
}


@pytest.mark.parametrize("name, conditioned", [
    (name, conditioned) for name, spec in FUNCTIONALS.items()
    for conditioned in sorted({False, spec.conditionable})])
def test_query_equals_a_direct_call_of_the_closed_form(name, conditioned):
    assert set(DIRECT_CALLS) == set(FUNCTIONALS)
    query = example_query(name, conditioned=conditioned)
    assert evaluate_query(query).exact == DIRECT_CALLS[name](conditioned)


@pytest.mark.parametrize("name, key", [(name, key) for name, spec in FUNCTIONALS.items()
                                       for key in spec.fields])
def test_missing_declared_index_is_named(name, key):
    # raised when the query is built, not when it is evaluated
    with pytest.raises(DomainError, match=f"requires '{key}'"):
        example_query(name, **{key: None})


@pytest.mark.parametrize("name, key", undeclared(INDEX_KEYS))
def test_undeclared_index_is_rejected(name, key):
    with pytest.raises(DomainError, match=f"takes no '{key}'"):
        example_query(name, **{key: VALUES[key]})


@pytest.mark.parametrize("name", [name for name, _ in undeclared(["model"])])
def test_model_is_rejected_where_none_is_needed(name):
    with pytest.raises(DomainError, match="takes no 'model'"):
        example_query(name, model=Model("A", 6, 2))


@pytest.mark.parametrize("name, field", undeclared(BLOCK_KEYS))
def test_block_lengths_are_rejected_outside_joint_absorption(name, field):
    with pytest.raises(DomainError, match=f"takes no '{field}'"):
        example_query(name, **{field: VALUES[field]})


def test_block_lengths_may_be_empty():
    query = example_query("joint_absorption", bridge_lengths=())
    assert query.bridge_lengths == ()
    assert evaluate_query(query).exact == 0  # one 2-step walk never absorbs in d = 3


@pytest.mark.parametrize("args, message", [
    (["--model", "A", "--n", "4", "--d", "2", "--functional", "absorption",
      "--walks", "3", "--bridges", "5"], "takes no 'walk_lengths'"),
    (["--model", "A", "--n", "4", "--d", "3", "--functional", "wendel"], "takes no 'model'"),
])
def test_cli_rejects_stray_fields(args, message, capsys):
    assert main(["exact"] + args, out=io.StringIO()) == EXIT_USAGE
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("build", [
    lambda: FunctionalQuery("fk", Model("A", 4, 2), k=1.5),
    lambda: FunctionalQuery("Y", Model("B", 5, 3), m=2.0, l=1),
    lambda: FunctionalQuery("face_prob", Model("B", 5, 3), indices=(1, 2.5)),
    lambda: FunctionalQuery("wendel", n=4, d=2.5),
    lambda: FunctionalQuery("joint_absorption", walk_lengths=(1.5,), d=1),
    lambda: FunctionalQuery("joint_absorption", bridge_lengths=(2.0,), d=1),
    lambda: Model("A", 4.5, 2),
    lambda: Model("B", 4, 2.0),
    lambda: wendel_probability(4.0, 3),
    lambda: wendel_probability(4, 2.5),
    lambda: joint_absorption_probability([2], [3], 2.0),
    # the public closed forms check their indices at entry
    lambda: expected_fk(Model("A", 5, 3), 1.0),
    lambda: expected_Uk(Model("A", 5, 3), 1.0),
    lambda: expected_Z(Model("A", 5, 3), 1.0, 2),
    lambda: expected_face_intrinsic_sum(Model("A", 5, 3), 2, 1.0),
    lambda: subspace_intersection_probability(Model("A", 5, 3), 1.0),
    lambda: expected_vk(Model("A", 5, 3), 1.5),
    lambda: expected_Y(Model("A", 5, 3), 2, 0.0),
    lambda: expected_tangent_intrinsic_sum(Model("A", 5, 3), 1.5, 2),
    lambda: expected_tangent_intrinsic_sum(Model("A", 4, 2), 1, 2.0),
    lambda: expected_Lambda(Model("A", 5, 3), 1.0),
    lambda: expected_Y_dual(Model("A", 5, 3), 2.0, 1),
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
