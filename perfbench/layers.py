"""Per-layer metrics of the traced run.

Every traced run, whatever its workload, runs the same layer probes and
prints the same metric names.  Each probe calls the package's public
functions one at a time inside a span named ``<module>.<function>``; the
metrics are medians of the spans' self times.  The layers are the package
modules ``combinatorics``, ``formulas``, ``geometry``, ``simulation`` and
``verify``; ``cli`` is a thin argparse wrapper and gets no metric.

The Monte Carlo replay redraws each (query, law) pair's cones through
``sample_walk``/``sample_bridge`` and re-measures them through the public
predicates.  ``estimate`` takes private fast paths, so the replay can cost
more than the estimate itself; ``coverage`` and the residuals report that
as measured.
"""

from __future__ import annotations

import itertools
import statistics
import sys
from typing import Callable

import numpy as np

from conic_walks import combinatorics, formulas, geometry, simulation, verify
from conic_walks.combinatorics import StirlingTables
from conic_walks.errors import DomainError, NumericError, SamplingError
from conic_walks.formulas import FunctionalQuery, Model

import benchmath
import workloads as wl
from hostref import host_ref_s, host_scale

REPLAY_GATE_SAMPLES = 64
REPLAY_FULLCONE_SAMPLES = 8
PROBE_GATE_BUDGET = 128
PROBE_FULLCONE_BUDGET = 16
POOL_BUDGET = 4096          # two estimate chunks, so workers=2 runs both at once
POOL_GATE = "f1/A n=4 d=2"
ROW_CHECKPOINTS = (wl.FACE_N,) + wl.LARGE_NS
BIG_N = wl.LARGE_NS[-1]
GEOMETRY_CALLS = 64
FAMILY_OF = {"A": "first", "B": "first_b"}


def _median_us(rec, name: str, tag: str | None = None) -> float:
    vals = rec.self_s(name, tag)
    if not vals:
        raise ValueError(f"no spans for {name} [{tag}]")
    return benchmath.p50(vals) * 1e6


def model_slug(model: Model) -> str:
    return f"{model.tag}-n{model.n}-d{model.d}"


# ---------------------------------------------------------------------------
# Monte Carlo replay through the public API


class Replay:
    """Redraws and re-measures one pair's samples through public functions."""

    def __init__(self, rec) -> None:
        self.rec = rec
        self.errors = 0

    def _draw(self, model: Model, dist, rng):
        name = "simulation.sample_bridge" if model.is_bridge else "simulation.sample_walk"
        fn = simulation.sample_bridge if model.is_bridge else simulation.sample_walk
        with self.rec.span(name, model_slug(model)):
            return fn(dist, model.n, rng)

    def _geo(self, fn: Callable, tag: str, *args):
        with self.rec.span(f"geometry.{fn.__name__}", tag):
            return fn(*args)

    def _full(self, cone) -> bool:
        return self._geo(geometry.is_full_cone, f"d{cone.d}", cone)

    def _hits(self, cone, dim: int, rng) -> bool:
        d = cone.d
        sub = self._geo(geometry.sample_uniform_subspace, f"{d}x{dim}", d, dim, rng)
        return self._geo(geometry.intersects_subspace, f"d{dim}", cone, sub)

    def _cone(self, q: FunctionalQuery, dist, rng):
        cone = self._draw(q.model, dist, rng)
        if q.conditioned:
            while self._full(cone):
                cone = self._draw(q.model, dist, rng)
        return cone

    def sample(self, q: FunctionalQuery, dist, rng) -> None:
        """Draw and measure one sample of the query, as ``estimate`` would."""
        name = q.functional
        if name == "joint_absorption":
            blocks = [self._draw(Model("B", n, q.d), dist, rng).generators for n in q.walk_lengths]
            blocks += [self._draw(Model("A", n, q.d), dist, rng).generators
                       for n in q.bridge_lengths]
            self._geo(geometry.origin_in_convex_hull, f"d{q.d}", np.vstack(blocks))
            return
        cone = self._cone(q, dist, rng)
        d = cone.d
        try:
            if name in ("absorption", "nonabsorption"):
                self._full(cone)
            elif name == "fk":
                self._geo(geometry.count_k_faces, model_slug(q.model), cone, q.k)
            elif name == "vk":
                self._geo(geometry.project_onto_cone, f"d{d}", rng.standard_normal(d), cone)
            elif name == "face_prob":
                self._geo(geometry.is_face, f"d{d}", cone, tuple(i - 1 for i in q.indices))
            elif name == "Uk":
                if not self._full(cone) and q.k < d:
                    self._hits(cone, d - q.k, rng)
            elif name == "Y":
                for sub in itertools.combinations(range(cone.n_generators), q.m):
                    if self._geo(geometry.is_face, f"d{d}", cone, sub):
                        self._hits(geometry.ConeSample(cone.generators[list(sub)]), d - q.l, rng)
            elif name == "Z":
                for sub in itertools.combinations(range(cone.n_generators), q.j):
                    if self._geo(geometry.is_face, f"d{d}", cone, sub):
                        base = self._geo(geometry.tangent_cone_projection_base, f"d{d}",
                                         cone, sub)
                        self._hits(base, d - q.k, rng)
            else:
                raise ValueError(f"no replay for {name!r}")
        except (DomainError, NumericError, SamplingError, np.linalg.LinAlgError) as exc:
            self.errors += 1
            print(f"geometry error in replay of {name}: {exc!r}", file=sys.stderr)


def replay_pairs(rec, replay: Replay, pairs: list, samples: int,
                 refs: list[float]) -> dict[str, dict]:
    """Per pair: replayed draw and predicate seconds per sample.  Appends a
    host reference time per pair to ``refs``."""
    out = {}
    for pair in pairs:
        refs.append(host_ref_s())
        dist = simulation.DistributionSpec(pair.family, pair.d)
        rng = np.random.Generator(np.random.Philox(key=[pair.seed & wl._MASK64, 7]))
        first = len(rec.spans)
        with rec.span("replay", benchmath.slug(pair.label)):
            for _ in range(samples):
                replay.sample(pair.query, dist, rng)
        spans = rec.spans[first + 1:]
        draw = sum(s["end"] - s["start"] for s in spans if s["name"].startswith("simulation."))
        geo = sum(s["end"] - s["start"] for s in spans if s["name"].startswith("geometry."))
        out[pair.label] = {"draw_s": draw / samples, "geo_s": geo / samples}
    return out


def _probe_pairs(rec, pairs: list, span_name: str) -> tuple[dict, int, int]:
    """Run each pair once at probe budget; per-pair seconds per sample."""
    per_sample, draws, rejected = {}, 0, 0
    for pair in pairs:
        with rec.span(span_name, benchmath.slug(pair.label)) as sp:
            res = wl.run_pair(pair, pair.seed)
        per_sample[pair.label] = (sp["end"] - sp["start"]) / pair.budget
        draws += pair.budget + res[3]
        rejected += res[3]
    return per_sample, draws, rejected


def _by_name(per_pair: dict[str, float], pairs: list) -> dict[str, float]:
    """Median over laws, keyed by gate or query name."""
    groups: dict[str, list[float]] = {}
    for p in pairs:
        groups.setdefault(p.name, []).append(per_pair[p.label])
    return {name: benchmath.p50(v) for name, v in groups.items()}


# ---------------------------------------------------------------------------
# exact layers


def _grow_rows(rec, tag: str) -> tuple[StirlingTables, dict[int, float]]:
    """Cold build of one family's triangle through public lookups; cumulative
    seconds to reach each checkpoint row."""
    fam = FAMILY_OF[tag]
    t = StirlingTables()
    lookup = t.first if tag == "A" else t.first_b
    cum, total = {}, 0.0
    for n in ROW_CHECKPOINTS:
        with rec.span(f"combinatorics.StirlingTables.{fam}", f"n{n}") as sp:
            lookup(n, 1)
        total += sp["end"] - sp["start"]
        cum[n] = total
    return t, cum


SELF_QUERIES = {
    "fk_cond": lambda m: FunctionalQuery("fk", m, k=3, conditioned=True),
    "vk": lambda m: FunctionalQuery("vk", m, k=3),
    "Uk": lambda m: FunctionalQuery("Uk", m, k=2),
    "absorption": lambda m: FunctionalQuery("absorption", m),
}
FACE_INDICES = (37, 150, 299)
JOINT = FunctionalQuery("joint_absorption", walk_lengths=(100, 50), bridge_lengths=(80, 70), d=5)


def _eval_s(rec, q: FunctionalQuery, t: StirlingTables, tag: str) -> float:
    with rec.span("formulas.evaluate_query", tag) as sp:
        formulas.evaluate_query(q, t)
    return sp["end"] - sp["start"]


def exact_layers(rec, metrics: dict, replay_ops: list, refs: list[float]) -> float:
    """Row builds, coefficient products and formula self times.  Also replays
    the given exact workload queries on the grown tables; returns their
    replayed row-build plus formula seconds."""
    replayed = 0.0
    for tag in "AB":
        refs.append(host_ref_s())
        fam = FAMILY_OF[tag]
        t, cum = _grow_rows(rec, tag)
        for n in wl.LARGE_NS:
            metrics[f"combinatorics.row_{fam}_s.n{n}"] = (cum[n], "s")
        if tag == "B":
            bits = sum(t.first_b(n, k).bit_length()
                       for n in range(BIG_N + 1) for k in range(n + 1))
            metrics[f"combinatorics.triangle_mb.first_b.n{BIG_N}"] = (bits / 8 / 1e6, "MB_computed")
        for kind, make in SELF_QUERIES.items():
            q = make(Model(tag, BIG_N, 7))
            metrics[f"formulas.self_s.{kind}.{tag}-n{BIG_N}"] = (_eval_s(rec, q, t, kind), "s")
        face = FunctionalQuery("face_prob", Model(tag, wl.FACE_N, 4), indices=FACE_INDICES)
        metrics[f"formulas.self_s.face_prob.{tag}-n{wl.FACE_N}"] = (
            _eval_s(rec, face, t, "face_prob"), "s")
        if tag == "A":
            gaps = tuple(b - a for a, b in zip((0,) + FACE_INDICES, FACE_INDICES))
            with rec.span("combinatorics.coeff_Q_poly", f"n{wl.FACE_N}") as sp:
                combinatorics.coeff_Q_poly(wl.FACE_N, gaps, t)
            metrics["combinatorics.coeff_poly_s.face_prob"] = (sp["end"] - sp["start"], "s")
        for kind, q in replay_ops:
            if q.model is not None and q.model.tag == tag:
                refs.append(host_ref_s())
                replayed += cum.get(q.model.n, 0.0) + _eval_s(rec, q, t, kind)
        del t  # free this triangle before the next family's is built
    t = StirlingTables()
    t.grow(max(JOINT.walk_lengths + JOINT.bridge_lengths))
    with rec.span("combinatorics.poly_mul", "joint") as sp:
        poly = [1]
        for w in JOINT.walk_lengths:
            poly = combinatorics.poly_mul(poly, combinatorics.walk_block_poly(w, t))
        for b in JOINT.bridge_lengths:
            poly = combinatorics.poly_mul(poly, combinatorics.bridge_block_poly(b, t))
    metrics["combinatorics.coeff_poly_s.joint"] = (sp["end"] - sp["start"], "s")
    metrics[f"formulas.self_s.joint.n{wl.FACE_N}"] = (_eval_s(rec, JOINT, t, "joint"), "s")
    for kind, q in replay_ops:
        if q.model is None:  # joint blocks are short: replay them cold
            fresh = StirlingTables()
            replayed += _eval_s(rec, q, fresh, kind)
    return replayed


def _desk_calls(model: Model, t: StirlingTables) -> dict[str, list[Callable[[], object]]]:
    """Every public closed form over one desk model, at every valid index."""
    d, gens = model.d, model.generator_count
    calls = {
        "wendel_probability": [lambda: formulas.wendel_probability(gens, d)],
        "absorption_probability": [lambda: formulas.absorption_probability(model, t)],
        "nonabsorption_probability": [lambda: formulas.nonabsorption_probability(model, t)],
        "expected_fk": [lambda k=k: formulas.expected_fk(model, k, False, t) for k in range(d)],
        "expected_Uk": [lambda k=k: formulas.expected_Uk(model, k, False, t)
                        for k in range(d + 1)],
        "expected_vk": [lambda k=k: formulas.expected_vk(model, k, False, t)
                        for k in range(d + 1)],
        "expected_Lambda": [lambda k=k: formulas.expected_Lambda(model, k, False, t)
                            for k in range(1, d)],
        "expected_Y": [lambda m=m, l=l: formulas.expected_Y(model, m, l, False, t)
                       for m in range(1, d) for l in range(m)],
        "expected_Z": [lambda j=j, k=k: formulas.expected_Z(model, j, k, False, t)
                       for k in range(d + 1) for j in range(k + 1)],
        "expected_face_intrinsic_sum": [
            lambda m=m, l=l: formulas.expected_face_intrinsic_sum(model, m, l, t)
            for m in range(d + 1) for l in range(m + 1)],
        "expected_tangent_intrinsic_sum": [
            lambda j=j, k=k: formulas.expected_tangent_intrinsic_sum(model, j, k, t)
            for j in range(d) for k in range(j, d + 1)],
        "expected_Y_dual": [lambda m=m, l=l: formulas.expected_Y_dual(model, m, l, t)
                            for m in range(1, d + 1) for l in range(m)],
        "face_probability": [lambda idx=idx: formulas.face_probability(model, idx, False, t)
                             for k in range(1, d) for idx in
                             itertools.combinations(range(1, gens + 1), k)][:8],
        "subspace_intersection_probability": [
            lambda k=k: formulas.subspace_intersection_probability(model, k, t)
            for k in range(d)],
        "joint_absorption_probability": [
            lambda: formulas.joint_absorption_probability(
                [] if model.is_bridge else [model.n], [model.n] if model.is_bridge else [],
                d, tables=t)],
    }
    return calls


def _desk_models(max_n: int, max_d: int) -> list[Model]:
    return [Model(tag, n, d) for d in range(1, max_d + 1) for n in range(1, max_n + 1)
            for tag in "AB" if n >= d + (tag == "A")]


def formula_layers(rec, metrics: dict, refs: list[float]) -> float:
    """Warm cost per call of each public closed form over the desk models
    (n <= 10, d <= 5); returns the total seconds spent."""
    t = combinatorics.default_tables()
    per_fn: dict[str, list[float]] = {}
    total = 0.0
    for model in _desk_models(10, 5):
        refs.append(host_ref_s())
        for fn, calls in _desk_calls(model, t).items():
            if not calls:
                continue
            with rec.span(f"formulas.{fn}", model_slug(model)) as sp:
                for call in calls:
                    call()
            dt = sp["end"] - sp["start"]
            total += dt
            per_fn.setdefault(fn, []).append(dt / len(calls))
    for fn, vals in per_fn.items():
        metrics[f"formulas.{fn}.us_small"] = (benchmath.p50(vals) * 1e6, "us")
    gates = [g.query for g in verify.default_gates()]
    with rec.span("formulas.evaluate_query", "gate_refs") as sp:
        for _ in range(16):
            for q in gates:
                formulas.evaluate_query(q)
    metrics["formulas.evaluate_query.us.gate_refs"] = (
        (sp["end"] - sp["start"]) * 1e6 / (16 * len(gates)), "us")
    return total


# ---------------------------------------------------------------------------
# geometry probes not reached by the replay


def geometry_probes(rec, seed: int) -> int:
    errors = 0
    rng = np.random.Generator(np.random.Philox(key=[seed & wl._MASK64, 11]))
    dist4 = simulation.DistributionSpec("gaussian_iid", 4)
    for _ in range(GEOMETRY_CALLS // 4):
        cone = simulation.sample_bridge(dist4, 6, rng)
        try:
            with rec.span("geometry.is_face", "d4"):
                geometry.is_face(cone, (0, 1))
        except (DomainError, NumericError) as exc:
            errors += 1
            print(f"geometry error in is_face probe: {exc!r}", file=sys.stderr)
    for n, d in ((3, 2), (4, 3), (5, 4), (9, 3)):
        dist = simulation.DistributionSpec("gaussian_iid", d)
        for _ in range(GEOMETRY_CALLS):
            cone = simulation.sample_bridge(dist, n + 1, rng)
            with rec.span("geometry.ConeSample.in_general_position", f"{n}x{d}"):
                cone.in_general_position()
    return errors


# ---------------------------------------------------------------------------


def per_layer(workload: str, seed: int, untraced, traced, plan_a: list, passes_total: int,
              rec) -> tuple[dict, int, int]:
    """All per-layer metrics; returns (metrics, checks attempted, checks failed)."""
    metrics: dict[str, tuple[float, str]] = {}
    checks = failed = 0

    gate_pairs = wl.gate_pairs(seed, PROBE_GATE_BUDGET)
    full_pairs = wl.fullcone_pairs(seed, PROBE_FULLCONE_BUDGET)
    gate_ps, draws_g, rej_g = _probe_pairs(rec, gate_pairs, "verify.run_gate")
    full_ps, draws_f, rej_f = _probe_pairs(rec, full_pairs, "simulation.estimate")
    replay = Replay(rec)
    probe_refs: list[float] = []  # host speed while the replays run
    gate_rp = replay_pairs(rec, replay, gate_pairs, REPLAY_GATE_SAMPLES, probe_refs)
    full_rp = replay_pairs(rec, replay, full_pairs, REPLAY_FULLCONE_SAMPLES, probe_refs)
    geo_errors = replay.errors + geometry_probes(rec, seed)

    gate_us = _by_name({k: v * 1e6 for k, v in gate_ps.items()}, gate_pairs)
    replay_us = _by_name({k: (v["draw_s"] + v["geo_s"]) * 1e6 for k, v in gate_rp.items()},
                         gate_pairs)
    for name, us in gate_us.items():
        metrics[f"verify.run_gate.us_per_sample.{benchmath.slug(name)}"] = (us, "us")
        metrics[f"simulation.residual_us.{benchmath.slug(name)}"] = (
            us - replay_us[name], "us/sample")
    for name, us in _by_name({k: v * 1e6 for k, v in full_ps.items()}, full_pairs).items():
        metrics[f"simulation.estimate.us_per_sample.{benchmath.slug(name)}"] = (us, "us")
    draws, rejected = draws_g + draws_f, rej_g + rej_f
    metrics["simulation.draws"] = (float(draws), "count")
    metrics["simulation.rejected"] = (float(rejected), "count")
    metrics["simulation.reject_share"] = (rejected / draws, "ratio")

    models = sorted({s["tag"] for s in rec.spans
                     if s["name"] in ("simulation.sample_walk", "simulation.sample_bridge")})
    for slug in models:
        per_law = []
        for fam in wl.FAMILIES:
            roots = {i for i, s in enumerate(rec.spans)
                     if s["name"] == "replay" and s["tag"].endswith(benchmath.slug("/" + fam))}
            vals = [s["end"] - s["start"] for s in rec.spans
                    if s["tag"] == slug and s["parent"] in roots
                    and s["name"].startswith("simulation.sample_")]
            if vals:
                per_law.append(benchmath.p50(vals))
        metrics[f"simulation.draw_us.{slug}"] = (statistics.fmean(per_law) * 1e6, "us")

    for name, tags in (("is_full_cone", ("d1", "d2", "d3", "d4")), ("is_face", ("d2", "d3", "d4")),
                       ("count_k_faces", ("B-n3-d2", "A-n4-d2", "B-n5-d3")),
                       ("project_onto_cone", ("d2", "d4")), ("intersects_subspace", ("d1", "d2")),
                       ("sample_uniform_subspace", ("2x1", "3x2", "4x2"))):
        for tag in tags:
            metrics[f"geometry.{name}.us.{tag}"] = (_median_us(rec, f"geometry.{name}", tag), "us")
    for tag in ("3x2", "4x3", "5x4", "9x3"):
        metrics[f"geometry.in_general_position.us.{tag}"] = (
            _median_us(rec, "geometry.ConeSample.in_general_position", tag), "us")
    metrics["geometry.errors"] = (float(geo_errors), "count")

    # determinism across worker counts, and what the pool buys on one gate
    pool_pair = wl.MCPair(f"{POOL_GATE}/gaussian_iid", POOL_GATE, "gaussian_iid",
                          wl._GATES[POOL_GATE].query, POOL_BUDGET, seed)
    rows, times = [], []
    for workers in (1, 2):
        with rec.span("verify.run_gate", f"pool-w{workers}") as sp:
            res = wl.run_pair(pool_pair, seed, workers)
        times.append(sp["end"] - sp["start"])
        rows.append(benchmath.estimate_digest([(pool_pair.label,) + tuple(res[:4])]))
    checks += 1
    if rows[0] != rows[1]:
        failed += 1
        print(f"determinism: workers=1 and workers=2 differ: {rows}", file=sys.stderr)
    metrics["simulation.pool_speedup_w2"] = (times[0] / times[1], "ratio")

    with rec.span("verify.identity_checks", "probe") as sp:
        results = verify.identity_checks(StirlingTables())
    identity_s = sp["end"] - sp["start"]
    metrics["verify.identity_checks.s"] = (identity_s, "s")
    checks += len(results)
    failed += sum(1 for c in results if c.status != "pass")

    exact_ops = ([(op.kind, op.query) for ops in plan_a for op in ops]
                 if workload == "exact_large_n" else [])
    exact_replayed = exact_layers(rec, metrics, exact_ops, probe_refs)
    formula_s = formula_layers(rec, metrics, probe_refs)

    # coverage: replayed per-layer time over the untraced half's wall time
    if workload in ("gate_matrix", "fullcone_d3"):
        rp = gate_rp if workload == "gate_matrix" else full_rp
        layer_s = [(rp[op.label]["draw_s"] + rp[op.label]["geo_s"]) * op.weight
                   for ops in plan_a for op in ops]
    elif workload == "exact_large_n":
        layer_s = [exact_replayed]
    else:
        passes = len(plan_a)
        row_s = metrics[f"combinatorics.row_first_s.n{wl.LARGE_NS[0]}"][0]
        layer_s = [(row_s + formula_s) * passes]
    # replay and workload ran at different moments: compare both at the
    # reference host speed
    probe_scale = host_scale(probe_refs)
    metrics["coverage"] = (benchmath.coverage([s * probe_scale for s in layer_s],
                                               untraced.wall_s * untraced.host_scale()), "ratio")
    # the halves can differ by a pass: compare them per pass, over a whole
    # run, each at the reference host speed
    passes_a, passes_b = len(plan_a), passes_total - len(plan_a)
    metrics["trace.overhead_s"] = (
        (traced.wall_s * traced.host_scale() / passes_b
         - untraced.wall_s * untraced.host_scale() / passes_a) * passes_total, "s")
    ref_s = untraced.ref_s + traced.ref_s
    metrics["host.ref_us"] = (sum(ref_s) / len(ref_s) * 1e6, "us")
    return metrics, checks, failed
