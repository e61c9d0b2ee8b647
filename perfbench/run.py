#!/usr/bin/env python3
"""Benchmark of conic-walks: one workload per run, one JSON result line.

    python3 perfbench/run.py --workload gate_matrix --seed 1 --seconds 18 --trace 0

Run it from any directory; it imports the package from ``src/`` next to
this directory and refuses to run (exit 2, no result) without it.  The run:

1. times ``import conic_walks`` plus one tiny call of the workload's entry
   point in ``SETUPS`` fresh interpreters and reports the median as
   ``setup_s``;
2. warms the same call in this process, then runs the workload's passes
   (``workloads.py``), checking every output between calls;
3. with ``--trace 0`` prints the end-to-end metrics; with ``--trace 1`` runs
   the first half of the passes untraced and the rest traced, then the
   layer probes (``layers.py``), and prints the per-layer metrics.

Timing metrics are scaled to the reference host speed (``hostref.py``):
each measured time is multiplied by the reference unit over the mean time
of a fixed reference kernel run before every timed call.  The unscaled
values are in the detail line.  The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``; ``attempted``/``failed``
count output checks.  A copy of the result with
the environment, and the spans of a traced run, go to ``perfbench/out/``.
``--seed held-out`` selects the held-out seed, which development runs
should not use: a claimed gain is confirmed on it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DEFAULT_SEED = 1
HELD_OUT_SEED = 7_919_113
SETUPS = 3
SETUP_TIMEOUT_S = 120

# Runs in a fresh interpreter: import the package and make the workload's
# tiny warm-up call, timed from the first line of the script; then time the
# host reference, so the set-up time can be scaled like the others.
_SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
workloads.WORKLOADS[sys.argv[3]].warm()
elapsed = time.perf_counter() - t0
from hostref import host_ref_s
refs = sorted(host_ref_s() for _ in range(15))
print(repr(elapsed), repr(refs[len(refs) // 2]))
"""

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "ops_per_s": "ops/s", "us_per_sample_p50": "us",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("gate_matrix", "fullcone_d3", "exact_large_n", "identities"))
    ap.add_argument("--seed", default=str(DEFAULT_SEED),
                    help="integer workload seed, or 'held-out'")
    ap.add_argument("--seconds", type=float, default=18.0,
                    help="intended length of the timed phase; fixes the number of passes")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed == "held-out":
        args.seed = HELD_OUT_SEED
    else:
        try:
            args.seed = int(args.seed)
        except ValueError:
            ap.error(f"--seed must be an integer or 'held-out', got {args.seed!r}")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def measure_setup(workload: str) -> list[float]:
    times = []
    for _ in range(SETUPS):
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, str(SRC), str(HERE), workload],
            cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up run failed:\n{proc.stderr}")
        elapsed, ref = proc.stdout.strip().splitlines()[-1].split()
        times.append((float(elapsed), float(ref)))
    return times


def _git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "commit": _git_commit()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "conic_walks" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import conic_walks
    if Path(conic_walks.__file__).resolve().parent != (SRC / "conic_walks").resolve():
        print(f"error: imported conic_walks from {conic_walks.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import benchmath
    import workloads
    from hostref import host_scale
    from spans import NullRecorder, Recorder

    wl = workloads.WORKLOADS[args.workload]
    setups = measure_setup(args.workload)
    wl.warm()
    passes = workloads.passes_for(wl, args.seconds, bool(args.trace))
    plan = wl.plan(args.seed, passes)
    run_id = f"{args.workload}-s{args.seed}-t{args.trace}"
    detail: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                    "passes": passes, "setup_runs_s": setups}

    if not args.trace:
        out = wl.run(plan, NullRecorder())
        workloads.guard_determinism(out)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        scale = out.host_scale()
        setup_s = benchmath.p50(s * host_scale([ref]) for s, ref in setups)
        values = {
            "setup_s": setup_s,
            "wall_s": out.wall_s * scale,
            "ops_per_s": out.ops / (out.wall_s * scale),
            "us_per_sample_p50": out.us_per_op_p50() * scale,
            "peak_rss_mb": rss_mb,
        }
        detail["raw"] = {"setup_s": benchmath.p50(s for s, _ in setups), "wall_s": out.wall_s,
                         "ops_per_s": out.ops / out.wall_s,
                         "us_per_sample_p50": out.us_per_op_p50()}
        detail["host_scale"] = scale
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        detail["units_in_p50"] = len(out.op_us)
        if isinstance(wl, workloads.MCWorkload):
            by_name: dict[str, list[float]] = {}
            for label, vals in out.op_us.items():
                by_name.setdefault(label.rsplit("/", 1)[0], []).append(benchmath.p50(vals))
            prefix = ("verify.run_gate.us_per_sample." if args.workload == "gate_matrix"
                      else "simulation.estimate.us_per_sample.")
            detail["per_query_us"] = {prefix + benchmath.slug(k): benchmath.p50(v)
                                      for k, v in by_name.items()}
    else:
        import layers
        rec = Recorder(run_id)
        half = passes // 2
        out_a = wl.run(plan[:half], NullRecorder())
        with rec.span(f"bench.{args.workload}"):
            out_b = wl.run(plan[half:], rec)
        out = workloads.merge(out_a, out_b)
        workloads.guard_determinism(out)
        layer_metrics, extra_checks, extra_failed = layers.per_layer(
            args.workload, args.seed, out_a, out_b, plan[:half], passes, rec)
        out.checks += extra_checks
        out.failed += extra_failed
        layer_metrics["checks.failed_share"] = (
            benchmath.failed_share(out.failed, out.checks), "ratio")
        layer_metrics["checks.retests"] = (float(out.retests), "count")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in sorted(layer_metrics.items())}
        detail["untraced_wall_s"] = out_a.wall_s
        detail["traced_wall_s"] = out_b.wall_s
        detail["spans"] = len(rec.spans)
        rec.dump(OUT / f"spans-{run_id}.json")

    detail["checks"] = out.checks
    detail["failed_share"] = benchmath.failed_share(out.failed, out.checks)
    detail["retests"] = out.retests
    detail["digests"] = sorted(set(out.digests))
    result = {"correct": out.failed == 0, "attempted": out.checks, "failed": out.failed,
              "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{run_id}.json").write_text(
        json.dumps({"environment": environment(), "detail": detail, "result": result},
                   indent=1) + "\n")
    for name, m in metrics.items():
        print(f"{name:58s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({"environment": environment(), "detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
