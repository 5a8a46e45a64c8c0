"""Run the benchmark over several seeds and summarize it as a baseline.

    python3 perfbench/baseline.py [--workload NAME ...] [--out FILE]

For each workload: one `--trace 0` run per seed (seeds 1..10) and one
`--trace 1` run on seed 1, all with BENCHMARK.json's `run_seconds`.
Prints, per end-to-end metric, the median, the quartiles and the spread
(quartile distance as a share of the median) next to the metric's bound,
then the traced per-layer numbers. With `--out`, writes the same as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = list(range(1, 11))


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """The result line and the environment record of one benchmark run."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.stdout.strip() else {}
    if proc.returncode != 0 or not result.get("correct"):
        sys.exit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    record = ROOT / ".perfbench" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    return result, json.loads(record.read_text())["env"]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", help="default: every workload")
    ap.add_argument("--out", type=Path, help="write the summary here as JSON")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    summary: dict = {"run_seconds": seconds, "seeds": SEEDS, "workloads": {}}
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        runs, envs = zip(*(run(workload, seed, seconds, 0) for seed in SEEDS))
        e2e = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            e2e[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": med, "q1": q1,
                         "q3": q3, "spread": (q3 - q1) / abs(med), "bound": bound,
                         "values": values}
            print(f"{workload:16} {name:18} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g}"
                  f" spread {e2e[name]['spread']:.4f} bound {bound}")
        traced, env = run(workload, SEEDS[0], seconds, 1)
        for name, m in traced["metrics"].items():
            print(f"{workload:16} {name:36} {m['value']:<12.6g} {m['unit']}")
        summary["workloads"][workload] = {
            "end_to_end": e2e,
            "per_layer": traced["metrics"],
            "loadavg_1min_start": [e["loadavg_start"][0] for e in envs],
        }
        summary["env"] = env
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
