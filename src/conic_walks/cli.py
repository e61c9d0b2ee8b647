"""Command-line front end: exact queries, Monte Carlo runs, verification.

Exit codes: 0 success, 2 usage error (including violated formula
hypotheses), 3 numeric or sampling failure, 4 verification failure.
Records stream as JSON lines or CSV rows; exact values are serialized as
decimal strings since they outgrow doubles quickly.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import sys
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .errors import DomainError, NumericError, SamplingError
from .formulas import FUNCTIONALS, FunctionalQuery, Model, evaluate_query
from .simulation import DistributionSpec, MCEstimate, RunConfig, estimate
from .verify import fraction_dict, report_to_json, verify_suite

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_VERIFY = 4

SEED_ENV_VAR = "CONIC_WALKS_SEED"

CSV_HEADER = (
    "functional", "model", "n", "d", "k", "m", "l", "j", "indices",
    "conditioned", "dual", "walks", "bridges",
    "exact_num", "exact_den", "exact_approx",
    "mean", "stderr", "samples", "z", "rejected", "status",
)

_DIST_NAMES = {
    "gaussian": "gaussian_iid",
    "heavy": "heavy_tail_iid",
    "scaled": "scaled_gaussian_exchangeable",
}

_FUNCTIONAL_ALIASES = {
    "f_k": "fk", "u_k": "Uk", "uk": "Uk", "v_k": "vk",
    "lambda": "Lambda", "lambda_k": "Lambda",
    "y": "Y", "z": "Z", "y_dual": "Y_dual",
    "face_intrinsic_sum": "face_intrinsic",
    "tangent_intrinsic_sum": "tangent_intrinsic",
}


@dataclass
class OutputRecord:
    """One emitted result row; round-trips through JSON and CSV."""

    query: dict
    exact: Optional[dict]
    estimate: Optional[dict]
    status: str = "ok"

    def to_json_line(self) -> str:
        return json.dumps(
            {"query": self.query, "exact": self.exact, "estimate": self.estimate,
             "status": self.status},
            sort_keys=True)

    @classmethod
    def from_json_line(cls, line: str) -> "OutputRecord":
        raw = json.loads(line)
        return cls(query=raw["query"], exact=raw["exact"],
                   estimate=raw["estimate"], status=raw["status"])

    def to_csv_row(self) -> list[str]:
        q, e, s = self.query, self.exact or {}, self.estimate or {}
        fmt = lambda v: "" if v is None else str(v)
        return [
            fmt(q.get("functional")), fmt(q.get("model")), fmt(q.get("n")), fmt(q.get("d")),
            fmt(q.get("k")), fmt(q.get("m")), fmt(q.get("l")), fmt(q.get("j")),
            " ".join(str(i) for i in q.get("indices") or []),
            fmt(q.get("conditioned")), fmt(q.get("dual")),
            " ".join(str(i) for i in q.get("walks") or []),
            " ".join(str(i) for i in q.get("bridges") or []),
            fmt(e.get("num")), fmt(e.get("den")), fmt(e.get("approx")),
            fmt(s.get("mean")), fmt(s.get("stderr")), fmt(s.get("samples")),
            fmt(s.get("z")), fmt(s.get("rejected")), self.status,
        ]

    @classmethod
    def from_csv_row(cls, row: Sequence[str]) -> "OutputRecord":
        get = dict(zip(CSV_HEADER, row)).get
        as_int = lambda v: int(v) if v else None
        as_float = lambda v: float(v) if v else None
        as_bool = lambda v: v == "True" if v else None
        as_ints = lambda v: [int(x) for x in v.split()] if v else []
        query = {
            "functional": get("functional") or None, "model": get("model") or None,
            "n": as_int(get("n")), "d": as_int(get("d")), "k": as_int(get("k")),
            "m": as_int(get("m")), "l": as_int(get("l")), "j": as_int(get("j")),
            "indices": as_ints(get("indices")),
            "conditioned": as_bool(get("conditioned")), "dual": as_bool(get("dual")),
            "walks": as_ints(get("walks")), "bridges": as_ints(get("bridges")),
        }
        exact = None
        if get("exact_num"):
            exact = {"num": get("exact_num"), "den": get("exact_den"),
                     "approx": as_float(get("exact_approx"))}
        est = None
        if get("mean"):
            est = {"mean": as_float(get("mean")), "stderr": as_float(get("stderr")),
                   "samples": as_int(get("samples")), "z": as_float(get("z")),
                   "rejected": as_int(get("rejected"))}
        return cls(query=query, exact=exact, estimate=est, status=get("status") or "ok")


def _estimate_dict(est: MCEstimate) -> dict:
    return {"mean": est.mean, "stderr": est.stderr, "samples": est.samples,
            "z": est.z, "rejected": est.rejected}


def _canonical_functional(name: str) -> tuple[str, Optional[int]]:
    """Resolve CLI spellings; shorthand like f1/U2/v0 pins the index."""
    short = re.fullmatch(r"([fUv])(\d+)", name)
    if short:
        return {"f": "fk", "U": "Uk", "v": "vk"}[short.group(1)], int(short.group(2))
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
        p.add_argument("--dual", action="store_true", help="dual cone (Y only)")
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
    reaches an invalid index fails there without building the rest."""
    functional, pinned_k = _canonical_functional(args.functional)
    model = None
    spec = FUNCTIONALS.get(functional)
    if spec is None or spec.needs_model:
        if args.model is None or args.n is None or args.d is None:
            raise DomainError(f"functional {functional!r} requires --model, --n and --d")
        model = Model(args.model, args.n, args.d)
    indices = _parse_ints(args.indices, "--indices")
    walks = _parse_ints(args.walks, "--walks") or ()
    bridges = _parse_ints(args.bridges, "--bridges") or ()
    if pinned_k is not None:
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
            n=n, d=d, conditioned=args.conditioned, dual=args.dual)
        for k in ks
    )


def _query_dict(q: FunctionalQuery) -> dict:
    return {
        "functional": q.functional,
        "model": q.model.tag if q.model else None,
        "n": q.model.n if q.model else q.n,
        "d": q.dimension,
        "k": q.k, "m": q.m, "l": q.l, "j": q.j,
        "indices": list(q.indices) if q.indices else [],
        "conditioned": q.conditioned, "dual": q.dual,
        "walks": list(q.walk_lengths), "bridges": list(q.bridge_lengths),
    }


def _emit(records: list[OutputRecord], fmt: str, out) -> None:
    if fmt == "json":
        for rec in records:
            out.write(rec.to_json_line() + "\n")
        return
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for rec in records:
        writer.writerow(rec.to_csv_row())


def _resolve_seed(value: Optional[int]) -> int:
    if value is not None:
        return value
    env = os.environ.get(SEED_ENV_VAR)
    return _parse_int(env, f"${SEED_ENV_VAR}") if env else 0


def _cmd_exact(args: argparse.Namespace, out) -> int:
    records = []
    for query in _queries_from_args(args):
        result = evaluate_query(query)
        records.append(OutputRecord(query=_query_dict(query),
                                    exact=fraction_dict(result.exact), estimate=None))
    _emit(records, args.format, out)
    return EXIT_OK


def _cmd_simulate(args: argparse.Namespace, out) -> int:
    seed = _resolve_seed(args.seed)
    records = []
    for query in _queries_from_args(args):
        dist = DistributionSpec(_DIST_NAMES[args.dist], query.dimension)
        config = RunConfig(query=query, dist=dist, samples=args.samples,
                           seed=seed, workers=args.workers)
        est = estimate(config)
        records.append(OutputRecord(query=_query_dict(query),
                                    exact=fraction_dict(est.exact_ref),
                                    estimate=_estimate_dict(est)))
    _emit(records, args.format, out)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace, out) -> int:
    seed = _resolve_seed(args.seed)
    report = verify_suite(budget=args.budget, seed=seed, workers=args.workers,
                          tamper=args.inject_table_corruption)
    payload = report_to_json(report)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(payload)
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
