"""The four benchmark workloads.

Each workload is a closed loop: one process makes one call into the package
at a time and waits for it.  A run is a number of passes over a fixed list
of calls (ops); the number of passes follows from ``--seconds`` and a
reference pass time, so every run of one workload does the same work and a
faster program finishes sooner.  Only the calls themselves are timed; the
output checks run between calls, outside the timed phase.

* ``gate_matrix``: ``verify.run_gate`` over the 13 default gates x the three
  laws, ``workers=1``.  The per-sample Python cost of the sign, angular-gap,
  projection, NNLS and Haar paths in d = 1..4; no LP, no large-n rows.
* ``fullcone_d3``: ``simulation.estimate`` on five queries whose every sample
  runs the full-cone test in d >= 3, so nearly all of it is the LP path.
* ``exact_large_n``: cold ``formulas.evaluate_query`` calls, each on a fresh
  ``StirlingTables()``, at n in {500, 1000, 1500}, plus face and joint
  probabilities at n = 300: O(n^2) bigint rows and Fraction sums.
* ``identities``: repeated ``verify.identity_checks()`` passes on fresh
  tables: the same two modules, as thousands of calls with n <= 30.
"""

from __future__ import annotations

import random
import sys
import time
import traceback
import zlib
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Optional

from conic_walks import formulas, simulation, verify
from conic_walks.combinatorics import StirlingTables
from conic_walks.formulas import FunctionalQuery, Model

import benchmath
from hostref import host_ref_s, host_scale

FAMILIES = simulation.FAMILIES
Z_LIMIT = verify.Z_GATE
_MASK64 = (1 << 64) - 1
# Added to a run seed to give a pair's confirmation estimate its own streams.
_CONFIRM_SALT = 0x9E3779B97F4A7C15

GATE_BUDGET = 1024
FULLCONE_BUDGET = 128
LARGE_NS = (500, 1000, 1500)
EXACT_FUNCTIONALS = ("fk_cond", "vk", "Uk", "absorption")
FACE_N = 300

# The five full-cone queries.  The absorption query uses a 10-step bridge:
# at n = 6 its exact value, 0.042, leaves 128 samples with a few percent
# chance of no hit at all (stderr 0); at n = 10 it is 0.154.
FULLCONE_QUERIES = (
    ("absorption/A n=10 d=3", FunctionalQuery("absorption", Model("A", 10, 3))),
    ("f1 conditioned/B n=5 d=3", FunctionalQuery("fk", Model("B", 5, 3), k=1, conditioned=True)),
    ("U1/A n=5 d=3", FunctionalQuery("Uk", Model("A", 5, 3), k=1)),
    ("U2 conditioned/B n=6 d=4", FunctionalQuery("Uk", Model("B", 6, 4), k=2, conditioned=True)),
    ("joint/walk3+bridge4 d=3",
     FunctionalQuery("joint_absorption", walk_lengths=(3,), bridge_lengths=(4,), d=3)),
)


@dataclass
class Op:
    """One call into the package, with the check of its output."""

    label: str                       # groups repeated ops for the per-op median
    weight: int                      # ops it counts for: samples, or 1
    call: Callable[[Any], Any]       # call(recorder) -> result
    check: Callable[[Any], list[tuple[str, bool, int]]]  # -> [(name, ok, retests)]
    row: Optional[Callable[[Any], tuple]] = None  # result -> digest row
    kind: str = ""                   # exact ops: which functional family
    query: Optional[FunctionalQuery] = None


@dataclass
class Outcome:
    """What one phase of a workload produced."""

    wall_s: float = 0.0
    ops: int = 0
    op_us: dict[str, list[float]] = field(default_factory=dict)
    checks: int = 0
    failed: int = 0
    retests: int = 0
    digests: list[str] = field(default_factory=list)
    rows: list[tuple] = field(default_factory=list)
    ref_s: list[float] = field(default_factory=list)  # host reference before each op

    def us_per_op_p50(self) -> float:
        """Median over op labels of each label's median time per weight unit."""
        return benchmath.p50(benchmath.p50(v) for v in self.op_us.values())

    def host_scale(self) -> float:
        """Factor that brings this phase's times to the reference host speed."""
        return host_scale(self.ref_s)


def _pair_seed(seed: int, label: str, family: str) -> int:
    tag = zlib.crc32(f"{label}|{family}".encode())
    return (int(seed) + (tag << 16)) & _MASK64


def _z_ok(mean: float, stderr: float, z: Optional[float], exact: Fraction) -> bool:
    if stderr > 0:
        return abs(z) <= Z_LIMIT
    return mean == float(exact)


# ---------------------------------------------------------------------------
# Monte Carlo workloads


@dataclass(frozen=True)
class MCPair:
    label: str        # "<gate or query>/<law>"
    name: str         # gate or query label
    family: str
    query: FunctionalQuery
    budget: int
    seed: int

    @property
    def d(self) -> int:
        return self.query.model.d if self.query.model is not None else self.query.d


def run_pair(pair: MCPair, seed: int, workers: int = 1) -> tuple:
    """(mean, stderr, z, rejected, exact) of one (query, law) pair."""
    if pair.name in _GATES:
        res = verify.run_gate(_GATES[pair.name], pair.family, pair.budget, seed, workers)
        exact = Fraction(int(res["exact"]["num"]), int(res["exact"]["den"]))
        return res["mean"], res["stderr"], res["z"], res["rejected"], exact
    config = simulation.RunConfig(query=pair.query,
                                  dist=simulation.DistributionSpec(pair.family, pair.d),
                                  samples=pair.budget, seed=seed, workers=workers)
    est = simulation.estimate(config)
    return est.mean, est.stderr, est.z, est.rejected, est.exact_ref


_GATES = {g.name: g for g in verify.default_gates()}


def gate_pairs(seed: int, budget: int = GATE_BUDGET) -> list[MCPair]:
    # run_gate derives each gate's streams from the run seed itself
    return [MCPair(f"{g.name}/{fam}", g.name, fam, g.query, budget, seed)
            for fam in FAMILIES for g in verify.default_gates()]


def fullcone_pairs(seed: int, budget: int = FULLCONE_BUDGET) -> list[MCPair]:
    return [MCPair(f"{name}/{fam}", name, fam, q, budget, _pair_seed(seed, name, fam))
            for fam in FAMILIES for name, q in FULLCONE_QUERIES]


def _mc_op(pair: MCPair, span_name: str) -> Op:
    tag = benchmath.slug(pair.label)

    def call(rec):
        with rec.span(span_name, tag):
            return run_pair(pair, pair.seed)

    def check(res):
        mean, stderr, z, _rej, exact = res
        if _z_ok(mean, stderr, z, exact):
            return [(pair.label, True, 0)]
        # One confirmation on independent streams.  At these budgets a
        # correct program exceeds |z| = 4 on a pair with probability 1e-4 to
        # 2e-3, so about 1 run in 100 (gate_matrix) or 50 (fullcone_d3) would
        # fail by chance; a bias that shows at this budget shows again.
        mean2, stderr2, z2, _r, _e = run_pair(pair, (pair.seed + _CONFIRM_SALT) & _MASK64)
        ok = _z_ok(mean2, stderr2, z2, exact)
        print(f"retest {pair.label}: z={z} -> {z2} ({'pass' if ok else 'FAIL'})",
              file=sys.stderr)
        return [(pair.label, ok, 1)]

    return Op(label=pair.label, weight=pair.budget, call=call, check=check,
              row=lambda res: (pair.label,) + tuple(res[:4]))


class MCWorkload:
    def __init__(self, name: str, pairs: Callable[[int], list[MCPair]], span_name: str,
                 pass_s: float, warm: Callable[[], None]) -> None:
        self.name = name
        self.pairs = pairs
        self.span_name = span_name
        self.pass_s = pass_s
        self.warm = warm

    def plan(self, seed: int, passes: int) -> list[list[Op]]:
        pairs = self.pairs(seed)
        return [[_mc_op(p, self.span_name) for p in pairs] for _ in range(passes)]

    def run(self, plan: list[list[Op]], rec) -> Outcome:
        out = run_plan(plan, rec)
        per_pass = len(plan[0]) if plan else 0
        for i in range(0, len(out.rows), per_pass):
            out.digests.append(benchmath.estimate_digest(out.rows[i:i + per_pass]))
        return out


def _warm_gates() -> None:
    verify.run_gate(_GATES["nonabsorption/B n=2 d=1"], "gaussian_iid", 8, 0)


def _warm_fullcone() -> None:
    _, query = FULLCONE_QUERIES[0]
    simulation.estimate(simulation.RunConfig(
        query=query, dist=simulation.DistributionSpec("gaussian_iid", 3), samples=2, seed=0))


# ---------------------------------------------------------------------------
# exact workloads


def _exact_checks(kind: str, q: FunctionalQuery, value: Fraction,
                  t: StirlingTables) -> list[tuple[str, bool, int]]:
    """Zero-tolerance identities on a cold result, using the same tables."""
    m = q.model
    label = f"{kind} {m.tag} n={m.n} d={m.d}" if m is not None else kind
    if kind == "absorption":
        ok = value + formulas.nonabsorption_probability(m, t) == 1
    elif kind == "vk":
        ok = sum(formulas.expected_vk(m, k, False, t) for k in range(m.d + 1)) == 1
    elif kind in ("fk_cond", "criterion8"):
        ok = value == (formulas.expected_fk(m, q.k, False, t)
                       / formulas.nonabsorption_probability(m, t))
        if kind == "criterion8":
            ok = ok and Fraction(9, 10) <= value / 6 <= Fraction(11, 10)
    elif kind == "Uk":
        ok = value == sum(formulas.expected_vk(m, q.k + j, False, t)
                          for j in range(1, m.d - q.k + 1, 2))
    elif kind == "face_prob":
        ok = value + formulas.face_probability(m, q.indices, True, t) == 1
    elif kind == "joint":
        ok = value + formulas.joint_absorption_probability(
            q.walk_lengths, q.bridge_lengths, q.d, complement=True, tables=t) == 1
    else:
        raise ValueError(f"no check for {kind!r}")
    return [(label, ok, 0)]


def _exact_op(kind: str, q: FunctionalQuery, pass_index: int) -> Op:
    # the pass index keeps every label unique: the per-op median is then
    # taken over all ops, whatever the seed's dimensions
    m = q.model
    shape = f"{m.tag}-n{m.n}-d{m.d}" if m is not None else f"d{q.d}"
    label = f"p{pass_index}.{kind}.{shape}"

    def call(rec):
        with rec.span("combinatorics.StirlingTables", kind):
            t = StirlingTables()
        with rec.span("formulas.evaluate_query", kind):
            return formulas.evaluate_query(q, t).exact, t

    def check(res):
        value, t = res
        return _exact_checks(kind, q, value, t)

    return Op(label=label, weight=1, call=call, check=check, kind=kind, query=q)


def exact_query(kind: str, model: Model, rng: random.Random) -> FunctionalQuery:
    d = model.d
    if kind == "fk_cond":
        return FunctionalQuery("fk", model, k=rng.randint(0, d - 1), conditioned=True)
    if kind == "vk":
        return FunctionalQuery("vk", model, k=rng.randint(0, d))
    if kind == "Uk":
        return FunctionalQuery("Uk", model, k=rng.randint(0, d))
    return FunctionalQuery("absorption", model)


def exact_plan(seed: int, passes: int) -> list[list[Op]]:
    """Per pass: one cold query per (model, n) with the functional rotating,
    so four passes give every functional on every (model, n); the
    criterion-8 query; one face probability and one joint absorption at
    n = 300.  Dimensions and indices come from the seed."""
    rng = random.Random(seed)
    plan = []
    for p in range(passes):
        ops = []
        for i, (tag, n) in enumerate((tag, n) for n in LARGE_NS for tag in "AB"):
            kind = EXACT_FUNCTIONALS[(p + i) % len(EXACT_FUNCTIONALS)]
            model = Model(tag, n, rng.randint(1, 10))
            ops.append(_exact_op(kind, exact_query(kind, model, rng), p))
        ops.append(_exact_op("criterion8", FunctionalQuery(
            "fk", Model("A", 500, 3), k=1, conditioned=True), p))
        model = Model("AB"[p % 2], FACE_N, rng.randint(2, 10))
        k = rng.randint(1, model.d - 1)
        idx = tuple(sorted(rng.sample(range(1, model.generator_count + 1), k)))
        ops.append(_exact_op("face_prob", FunctionalQuery("face_prob", model, indices=idx), p))
        cuts = sorted(rng.sample(range(2, FACE_N - 1), 3))
        lengths = [b - a for a, b in zip([0] + cuts, cuts + [FACE_N])]
        ops.append(_exact_op("joint", FunctionalQuery(
            "joint_absorption", walk_lengths=tuple(lengths[:2]),
            bridge_lengths=tuple(max(2, x) for x in lengths[2:]), d=rng.randint(1, 10)), p))
        plan.append(ops)
    return plan


def _identity_op() -> Op:
    def call(rec):
        with rec.span("verify.identity_checks"):
            return verify.identity_checks(StirlingTables())

    def check(results):
        return [(c.name, c.status == "pass", 0) for c in results]

    return Op(label="pass", weight=1, call=call, check=check)


class PlainWorkload:
    def __init__(self, name: str, plan: Callable[[int, int], list[list[Op]]], pass_s: float,
                 warm: Callable[[], None]) -> None:
        self.name = name
        self.plan = plan
        self.pass_s = pass_s
        self.warm = warm

    def run(self, plan: list[list[Op]], rec) -> Outcome:
        return run_plan(plan, rec)


def _warm_exact() -> None:
    formulas.evaluate_query(FunctionalQuery("fk", Model("A", 20, 3), k=1, conditioned=True),
                            StirlingTables())


def _warm_identities() -> None:
    verify.identity_checks(StirlingTables(), max_n_tables=4, max_n_compositions=3,
                           max_n_formulas=4, max_d_formulas=2, include_large_n=False)


# ---------------------------------------------------------------------------


def run_plan(plan: list[list[Op]], rec) -> Outcome:
    """Run every op in order, timing only the calls; check each result
    right after its call and drop it before the next one."""
    out = Outcome()
    for ops in plan:
        for op in ops:
            out.ref_s.append(host_ref_s())
            started = time.perf_counter()
            try:
                res = op.call(rec)
            except Exception:  # a failing call is a failed check, not a crash
                elapsed = time.perf_counter() - started
                traceback.print_exc()
                if op.row is not None:
                    out.rows.append((op.label, float("nan"), float("nan"), None, -1))
                out.wall_s += elapsed
                out.checks += 1
                out.failed += 1
                continue
            elapsed = time.perf_counter() - started
            out.wall_s += elapsed
            out.ops += op.weight
            out.op_us.setdefault(op.label, []).append(elapsed * 1e6 / op.weight)
            if op.row is not None:
                out.rows.append(op.row(res))
            for name, ok, retests in op.check(res):
                out.checks += 1
                out.retests += retests
                if not ok:
                    out.failed += 1
                    print(f"check failed: {name}", file=sys.stderr)
            del res
    return out


# Reference pass times, in seconds, on the 2-core box at the seed commit.
# They only fix how many passes a run makes; they never enter a metric.
WORKLOADS = {
    "gate_matrix": MCWorkload("gate_matrix", gate_pairs, "verify.run_gate", 6.6, _warm_gates),
    "fullcone_d3": MCWorkload("fullcone_d3", fullcone_pairs, "simulation.estimate", 6.5,
                              _warm_fullcone),
    "exact_large_n": PlainWorkload("exact_large_n", exact_plan, 3.3, _warm_exact),
    "identities": PlainWorkload("identities", lambda seed, passes: [[_identity_op()]] * passes,
                                0.47, _warm_identities),
}


def guard_determinism(out: Outcome) -> None:
    """Every pass of a Monte Carlo workload repeats the same seeded inputs,
    so every pass must give bit-identical estimates."""
    if not out.digests:
        return
    out.checks += 1
    if len(set(out.digests)) > 1:
        out.failed += 1
        print(f"determinism: pass digests differ: {out.digests}", file=sys.stderr)


def merge(a: Outcome, b: Outcome) -> Outcome:
    op_us = {k: list(v) for k, v in a.op_us.items()}
    for k, v in b.op_us.items():
        op_us.setdefault(k, []).extend(v)
    return Outcome(wall_s=a.wall_s + b.wall_s, ops=a.ops + b.ops, op_us=op_us,
                   checks=a.checks + b.checks, failed=a.failed + b.failed,
                   retests=a.retests + b.retests, digests=a.digests + b.digests,
                   rows=a.rows + b.rows, ref_s=a.ref_s + b.ref_s)


def passes_for(workload, seconds: float, traced: bool) -> int:
    """Passes that take about ``seconds`` at the reference pass time; a
    traced run needs at least one untraced and one traced pass."""
    return max(2 if traced else 1, round(seconds / workload.pass_s))
