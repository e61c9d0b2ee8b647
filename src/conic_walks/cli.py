"""Command-line front end: exact queries, Monte Carlo runs, verification.

Exit codes: 0 success, 2 usage error (including violated formula
hypotheses and a report path that cannot be written), 3 numeric or
sampling failure, 4 verification failure.
Records stream as JSON lines or CSV rows; exact values are serialized as
decimal strings since they outgrow doubles quickly.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .errors import DomainError, NumericError, SamplingError
from .formulas import FUNCTIONALS, FunctionalQuery, Model, evaluate_query
from .simulation import DistributionSpec, MCEstimate, RunConfig, sampling
from .verify import fraction_dict, report_to_json, verify_suite

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_VERIFY = 4

SEED_ENV_VAR = "CONIC_WALKS_SEED"

# the keys of a record's "query" and "estimate" dicts, which are also their
# CSV columns, in order
QUERY_COLUMNS = ("functional", "model", "n", "d", "k", "m", "l", "j", "indices",
                 "conditioned", "walks", "bridges")
ESTIMATE_COLUMNS = ("mean", "stderr", "samples", "z", "rejected")
CSV_HEADER = (QUERY_COLUMNS + ("exact_num", "exact_den", "exact_approx")
              + ESTIMATE_COLUMNS + ("status",))

_DIST_NAMES = {
    "gaussian": "gaussian_iid",
    "heavy": "heavy_tail_iid",
    "scaled": "scaled_gaussian_exchangeable",
}

# registry names in any case, and the spellings none of them gives
_FUNCTIONAL_ALIASES = {
    "f_k": "fk", "u_k": "Uk", "v_k": "vk", "lambda_k": "Lambda",
    "face_intrinsic_sum": "face_intrinsic",
    "tangent_intrinsic_sum": "tangent_intrinsic",
    **{name.lower(): name for name in FUNCTIONALS},
}


def _canonical_functional(name: str) -> tuple[str, Optional[int]]:
    """Resolve CLI spellings; shorthand like f1/U2/v0 pins the index."""
    short = re.fullmatch(r"([fuv])(\d+)", name, re.IGNORECASE)
    if short:
        return _FUNCTIONAL_ALIASES[short.group(1).lower() + "k"], int(short.group(2))
    return _FUNCTIONAL_ALIASES.get(name.lower(), name), None


def _parse_int(text: str, source: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise DomainError(f"{source} must be an integer, got {text!r}") from None


def _parse_ints(text: Optional[str], flag: str) -> Optional[tuple[int, ...]]:
    """A comma-separated list of integers, or None for an absent flag."""
    if not text:
        return None
    return tuple(_parse_int(x, f"each entry of {flag}") for x in text.split(","))


def _parse_sweep(text: str, d: Optional[int]) -> Sequence[int]:
    """An index flag is either one integer or an inclusive range ``a..b``;
    the symbol ``d`` stands for the model dimension."""

    def bound(token: str) -> int:
        if token == "d":
            if d is None:
                raise DomainError("range bound 'd' needs a model dimension")
            return d
        return _parse_int(token, "--k")

    if ".." in text:
        lo_txt, hi_txt = text.split("..", 1)
        lo, hi = bound(lo_txt), bound(hi_txt)
        if lo > hi:
            raise DomainError(f"empty index range {text!r}")
        return range(lo, hi + 1)
    return [bound(text)]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conic-walks",
        description="Exact expectations and Monte Carlo checks for cones of random walks and bridges.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_query_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--model", choices=("A", "B"),
                       help="A = bridge of n increments, B = walk of n increments")
        p.add_argument("--n", type=int, help="number of increments")
        p.add_argument("--d", type=int, help="ambient dimension")
        p.add_argument("--functional", required=True,
                       help=", ".join(FUNCTIONALS) + " (f1/U2/v0 shorthand works)")
        p.add_argument("--k", help="index k; sweeps like 0..d are allowed")
        p.add_argument("--m", type=int, help="index m")
        p.add_argument("--l", type=int, help="index l")
        p.add_argument("--j", type=int, help="index j")
        p.add_argument("--indices", help="comma-separated 1-based partial sums, e.g. 1,3")
        p.add_argument("--walks", help="comma-separated walk block lengths")
        p.add_argument("--bridges", help="comma-separated bridge block lengths")
        p.add_argument("--conditioned", action="store_true",
                       help="condition the cone on not being all of R^d")
        p.add_argument("--dual", action="store_true",
                       help="dual cone: --functional Y --dual spells Y_dual")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p_exact = sub.add_parser("exact", help="evaluate closed forms exactly")
    add_query_flags(p_exact)

    p_sim = sub.add_parser("simulate", help="Monte Carlo estimate with exact reference")
    add_query_flags(p_sim)
    p_sim.add_argument("--samples", type=int, default=100_000)
    p_sim.add_argument("--seed", type=int, default=None,
                       help=f"defaults to ${SEED_ENV_VAR} or 0")
    p_sim.add_argument("--dist", choices=tuple(_DIST_NAMES), default="gaussian")
    p_sim.add_argument("--workers", type=int, default=1)

    p_verify = sub.add_parser("verify", help="run the identity suite and MC gate matrix")
    p_verify.add_argument("--budget", type=int, default=100_000,
                          help="samples per MC gate; below 10^4 the gates are skipped")
    p_verify.add_argument("--seed", type=int, default=None,
                          help=f"defaults to ${SEED_ENV_VAR} or 0")
    p_verify.add_argument("--workers", type=int, default=1)
    p_verify.add_argument("--out", default="report.json", help="report file path")
    p_verify.add_argument("--inject-table-corruption", action="store_true",
                          help="test-only: corrupt one table entry; the run must then fail")
    return parser


def _queries_from_args(args: argparse.Namespace) -> Iterator[FunctionalQuery]:
    """The queries the flags ask for, built one at a time, so a sweep that
    reaches an invalid index fails there without building the rest.
    ``exact`` evaluates each query as it is built; ``simulate`` builds all
    of them before it samples any, so a bad index fails before any
    sampling."""
    functional, pinned_k = _canonical_functional(args.functional)
    if args.dual:  # a spelling of Y_dual
        if functional not in ("Y", "Y_dual"):
            raise DomainError("--dual applies only to the Y functional")
        functional = "Y_dual"
    spec = FUNCTIONALS.get(functional)
    if spec is None:
        raise DomainError(f"unknown functional {args.functional!r}; "
                          f"expected one of {tuple(FUNCTIONALS)}")
    model = None
    if "model" in spec.fields or args.model is not None:
        if args.model is None or args.n is None or args.d is None:
            raise DomainError(f"functional {functional!r} requires --model, --n and --d")
        model = Model(args.model, args.n, args.d)
    indices = _parse_ints(args.indices, "--indices")
    walks = _parse_ints(args.walks, "--walks") or ()
    bridges = _parse_ints(args.bridges, "--bridges") or ()
    if pinned_k is not None:
        if args.k is not None:
            raise DomainError(f"{args.functional!r} already sets k; drop --k or use "
                              f"--functional {functional}")
        ks: Sequence[Optional[int]] = [pinned_k]
    elif args.k is not None:
        ks = _parse_sweep(args.k, model.d if model else args.d)
    else:
        ks = [None]
    # with a model, --n and --d are its size, not indices of the functional
    n, d = (None, None) if model else (args.n, args.d)
    return (
        FunctionalQuery(
            functional, model=model, k=k, m=args.m, l=args.l, j=args.j,
            indices=indices, walk_lengths=walks, bridge_lengths=bridges,
            n=n, d=d, conditioned=args.conditioned)
        for k in ks
    )


def _record(query: FunctionalQuery, exact: Fraction, est: Optional[MCEstimate] = None) -> dict:
    """One output record; with a model, n and d are its size."""
    model = query.model
    values = {"model": model.tag if model else None, "n": model.n if model else query.n,
              "d": query.dimension, "indices": query.indices or (),
              "walks": query.walk_lengths, "bridges": query.bridge_lengths}
    return {
        "query": {key: values[key] if key in values else getattr(query, key)
                  for key in QUERY_COLUMNS},
        "exact": fraction_dict(exact),
        "estimate": est and {key: getattr(est, key) for key in ESTIMATE_COLUMNS},
        "status": "ok",
    }


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, tuple):
        return " ".join(map(str, value))
    return str(value)


def _emit(records: list[dict], fmt: str, out) -> None:
    if fmt == "json":
        for rec in records:
            out.write(json.dumps(rec, sort_keys=True) + "\n")
        return
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for rec in records:
        exact, est = rec["exact"], rec["estimate"] or {}
        writer.writerow([_cell(rec["query"][key]) for key in QUERY_COLUMNS]
                        + [_cell(exact[key]) for key in ("num", "den", "approx")]
                        + [_cell(est.get(key)) for key in ESTIMATE_COLUMNS] + [rec["status"]])


def _resolve_seed(value: Optional[int]) -> int:
    if value is not None:
        return value
    env = os.environ.get(SEED_ENV_VAR)
    return _parse_int(env, f"${SEED_ENV_VAR}") if env else 0


def _cmd_exact(args: argparse.Namespace, out) -> int:
    records = [_record(query, evaluate_query(query).exact) for query in _queries_from_args(args)]
    _emit(records, args.format, out)
    return EXIT_OK


def _cmd_simulate(args: argparse.Namespace, out) -> int:
    seed = _resolve_seed(args.seed)
    family = _DIST_NAMES[args.dist]
    configs = [RunConfig(query=query, dist=DistributionSpec(family, query.dimension),
                         samples=args.samples, seed=seed, workers=args.workers)
               for query in _queries_from_args(args)]
    with sampling(configs) as estimates:  # the whole sweep, so a run opens one pool
        records = [_record(config.query, est.exact_ref, est)
                   for config, est in zip(configs, estimates())]
    _emit(records, args.format, out)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace, out) -> int:
    seed = _resolve_seed(args.seed)
    # opened before the run, so a bad path fails at once; a failed run keeps
    # an old report and removes a file it created
    created = not os.path.exists(args.out)
    try:
        fh = open(args.out, "a", encoding="utf-8")
    except OSError as exc:
        raise DomainError(f"cannot write the report to {args.out}: {exc.strerror}") from None
    with fh:
        try:
            report = verify_suite(budget=args.budget, seed=seed, workers=args.workers,
                                  tamper=args.inject_table_corruption)
        except BaseException:
            if created:
                os.remove(args.out)
            raise
        fh.truncate(0)
        fh.write(report_to_json(report))
    summary = report["summary"]
    out.write(f"identities: {summary['identities_total'] - summary['identities_failed']}"
              f"/{summary['identities_total']} passed\n")
    if summary["mc_run"]:
        out.write(f"mc gates: {summary['mc_passed']}/{summary['mc_run']} passed "
                  f"(rate {summary['mc_pass_rate']:.3f})\n")
    else:
        out.write("mc gates: skipped\n")
    out.write(f"overall: {summary['overall']} (report written to {args.out})\n")
    return EXIT_OK if summary["overall"] == "pass" else EXIT_VERIFY


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors already
        return int(exc.code or 0)
    try:
        if args.command == "exact":
            return _cmd_exact(args, out)
        if args.command == "simulate":
            return _cmd_simulate(args, out)
        return _cmd_verify(args, out)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NumericError, SamplingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
