#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, one fresh run per seed.

    python3 perfbench/spread.py --workload gate_matrix --seeds 1-10 --seconds 15

Runs ``run.py --trace 0`` once per seed, one run at a time, and prints for
every metric the median, the quartiles as ``statistics.quantiles(n=4)``
gives them, and their distance as a share of the median, next to the
bound in BENCHMARK.json.  The summary goes to ``perfbench/out/spread-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import benchmath  # noqa: E402


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="'a-b' or a comma list")
    ap.add_argument("--seconds", type=float, default=None,
                    help="default: run_seconds from BENCHMARK.json")
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = []
    for seed in seed_list(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600,
                              check=False)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        raw = json.loads(lines[-2])["detail"]["raw"]
        runs.append({"seed": seed, **result, "raw": raw})
        print(f"seed {seed}: correct={result['correct']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
              flush=True)
    summary = {"workload": args.workload, "seconds": seconds, "runs": runs, "metrics": {}}
    for name in runs[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        share = benchmath.iqr_share(vals)
        summary["metrics"][name] = {"median": statistics.median(vals), "q1": q1, "q3": q3,
                                    "iqr_share": share, "bound": bounds.get(name)}
        print(f"{name:20s} median {statistics.median(vals):12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}"
              f"  spread {share:7.4f}  bound {bounds.get(name)}")
    for name in runs[0]["raw"]:  # before host scaling, for comparison
        vals = [r["raw"][name] for r in runs]
        summary["metrics"][name]["raw_iqr_share"] = benchmath.iqr_share(vals)
        print(f"{name:20s} unscaled spread {benchmath.iqr_share(vals):7.4f}")
    out = HERE / "out" / f"spread-{args.workload}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
