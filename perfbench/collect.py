"""Run the benchmark over several seeds and summarise the spread of each metric.

Run from the root of a checkout:

    python3 perfbench/collect.py --seeds 1-10 --out .perfbench_out/bench.json

Each workload of BENCHMARK.json runs once per seed with --trace 0 (seed-major
order, so slow drift of the host spreads over all workloads alike), then once
with --trace 1 on the first seed.  For every end-to-end metric the summary
gives the values, their median and quartiles as statistics.quantiles(n=4)
computes them, and the spread (Q3 - Q1) / median next to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
RUN = Path(__file__).resolve().parent / "run.py"


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values: list[float], bound: float | None) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "bound": bound}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1-10", help="range 1-10 or list 1,5,9")
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--out", default=".perfbench_out/bench.json")
    args = p.parse_args(argv)

    seeds = _seeds(args.seeds)
    seconds = spec["run_seconds"]
    names = args.workloads.split(",")
    runs: dict[str, list[dict]] = {w: [] for w in names}
    for seed in seeds:
        for w in names:
            res = run_once(w, seed, seconds, 0)
            runs[w].append(res)
            print(f"{w} seed {seed}: correct={res['correct']} "
                  + " ".join(f"{k}={v['value']:.4f}" for k, v in res["metrics"].items()),
                  flush=True)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = {"run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for w in names:
        entry = {
            "correct": all(r["correct"] for r in runs[w]),
            "failed": sum(r["failed"] for r in runs[w]),
            "attempted": sum(r["attempted"] for r in runs[w]),
            "end_to_end": {name: summarise([r["metrics"][name]["value"] for r in runs[w]], bound)
                           for name, bound in bounds.items()},
        }
        traced = run_once(w, seeds[0], seconds, 1)
        entry["traced_seed"] = seeds[0]
        entry["traced_correct"] = traced["correct"]
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        out["workloads"][w] = entry
        for name, s in entry["end_to_end"].items():
            print(f"{w:8s} {name:10s} median {s['median']:.4f}  Q1 {s['q1']:.4f}  "
                  f"Q3 {s['q3']:.4f}  spread {s['spread']:.4f}  bound {s['bound']}")
    facts = ROOT / ".perfbench_out" / f"{names[0]}-seed{seeds[0]}-trace0.json"
    out["facts"] = json.loads(facts.read_text())["facts"]
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
