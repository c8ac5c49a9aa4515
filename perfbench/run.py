"""Benchmark of ringmod: three seeded workloads, end-to-end and per-layer metrics.

Run from the root of a checkout (ringmod is imported from ./src):

    python3 perfbench/run.py --workload modulus --seed 1 --seconds 30 --trace 0

--trace 0 times untraced passes and prints the end-to-end metrics of
BENCHMARK.json, rescaled to full host speed by hostspeed.py; --trace 1 runs
one untraced and two traced passes and prints the per-layer metrics.  The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  Details (machine facts, every pass, the speed samples,
and in traced runs every span) go to .perfbench_out/.  See
perfbench/METRICS.md for the workloads and metrics.
"""

from __future__ import annotations

import os

# BLAS threads are fixed before numpy loads, identically on every commit
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd().resolve()
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
MIN_PASSES = 1           # a verify pass can outlast --seconds on its own

# a fresh interpreter importing ringmod and drawing the workload's inputs; it
# prints the wall time of that and the host's slow-down just before and after
SETUP_PROBE = """
import sys, time
sys.path[:0] = sys.argv[1:3]
import hostspeed
before = hostspeed.kernel_slowdown()
t0 = time.perf_counter()
import workloads
workloads.make_inputs(sys.argv[3], int(sys.argv[4]))
t1 = time.perf_counter()
print(t1 - t0, before, hostspeed.kernel_slowdown())
"""


def _import_ringmod():
    """Import ringmod from ./src only; an installed copy would time the wrong code."""
    if not (SRC / "ringmod" / "__init__.py").is_file():
        raise SystemExit(f"error: no ringmod sources under {SRC}; run from a checkout root")
    sys.path.insert(0, str(SRC))
    import ringmod
    if SRC not in Path(ringmod.__file__).resolve().parents:
        raise SystemExit(f"error: ringmod was imported from {ringmod.__file__}, not {SRC}")


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_facts(args) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def setup_probe(workload: str, seed: int) -> dict:
    """Set-up time of a fresh interpreter, as wall and as reference seconds."""
    out = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(HERE), str(SRC), workload,
                          str(seed)], cwd=ROOT, check=True, capture_output=True, text=True)
    wall, before, after = map(float, out.stdout.split()[-3:])
    return {"wall_s": wall, "slowdown": [before, after],
            "reference_s": wall / (0.5 * (before + after))}


def fastest_calls(passes: list[dict]) -> dict[tuple, float]:
    """Each call's fastest wall time over the passes (the stage times)."""
    best: dict[tuple, float] = {}
    for p in passes:
        for stage, call, seconds in p["calls"]:
            best[stage, call] = min(seconds, best.get((stage, call), math.inf))
    return best


def stage_times(best: dict[tuple, float], stages) -> dict[str, float]:
    return {f"{stage}_s": sum(t for (s, _), t in best.items() if s == stage) for stage in stages}


class Checks:
    """Counts every result check and self-test; failures are kept verbatim."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, attempted: int, failures: list[str]) -> None:
        self.attempted += attempted
        self.failures += failures

    def expect(self, ok: bool, message: str) -> None:
        self.add(1, [] if ok else [message])


def _dump(results) -> str:
    return json.dumps(results, sort_keys=True)


def run_untraced(workloads, hostspeed, args, inp, checks: Checks, detail: dict) -> dict:
    def probe_setup():
        # the sampler pauses, so that it does not share the host with the child
        sampler.stop()
        setup.append(setup_probe(args.workload, args.seed))
        sampler.start()

    sampler = hostspeed.SpeedSampler()
    setup: list[dict] = []
    passes: list[dict] = []
    sampler.start()
    try:
        # one set-up probe before the passes and one after each, spread over the run
        probe_setup()
        workloads.warm_up()
        t_start = time.perf_counter()
        while len(passes) < MIN_PASSES or time.perf_counter() - t_start < args.seconds:
            t0 = time.perf_counter()
            results, calls = workloads.run_pass(args.workload, inp)
            passes.append({"interval": (t0, time.perf_counter()), "calls": calls,
                           "results": results})
            if len(setup) < SETUP_REPEATS:
                t_pause = time.perf_counter()
                probe_setup()
                t_start += time.perf_counter() - t_pause
        while len(setup) < SETUP_REPEATS:
            probe_setup()
    finally:
        sampler.stop()

    for i, p in enumerate(passes):
        attempted, failures, p["accuracy"] = workloads.check(args.workload, inp, p["results"])
        checks.add(attempted, failures)
        if i:
            checks.expect(_dump(p["results"]) == _dump(passes[0]["results"]),
                          f"pass {i} results differ from pass 0")
        p["wall_s"] = p["interval"][1] - p["interval"][0]
        p["reference_s"] = sampler.reference_seconds(*p["interval"])

    info = stage_times(fastest_calls(passes), workloads.STAGES[args.workload])
    info.update(passes[0]["accuracy"])
    info["pass_s.passes"] = len(passes)
    info["pass_s.wall_median"] = statistics.median(p["wall_s"] for p in passes)
    info["setup_s.wall_median"] = statistics.median(s["wall_s"] for s in setup)
    slow = sampler.slowdowns()
    info["host_slowdown.median"] = statistics.median(slow)
    info["host_slowdown.max"] = max(slow)
    detail.update(setup_s_samples=setup, passes=passes, info=info,
                  speed_samples=list(zip(sampler.starts, sampler.ends)))
    return {"setup_s": statistics.median(s["reference_s"] for s in setup),
            "pass_s": statistics.median(p["reference_s"] for p in passes)}


def run_traced(workloads, hostspeed, tracing, args, inp, checks: Checks, detail: dict) -> dict:
    def timed_pass():
        t0 = time.perf_counter()
        results, calls = workloads.run_pass(args.workload, inp)
        return {"interval": (t0, time.perf_counter()), "results": results, "calls": calls}

    sampler = hostspeed.SpeedSampler()
    # spans run on the sampler's clock, so that no sample lands in a span's time
    tracer = tracing.Tracer(clock=sampler.clock)
    sampler.start()
    try:
        workloads.warm_up()
        # the first full-size pass runs slower than later ones, so the second
        # untraced pass is the one the traced passes are held against
        plain = [timed_pass() for _ in range(2)]
        traced = []
        tracer.install()
        try:
            for _ in range(2):
                tracer.reset()
                traced.append(dict(timed_pass(), spans=tracer.spans))
        finally:
            tracer.uninstall()
    finally:
        sampler.stop()

    for p in plain + traced:
        p["wall_s"] = p["interval"][1] - p["interval"][0]
        p["reference_s"] = sampler.reference_seconds(*p["interval"])
    for p in plain:
        attempted, failures, accuracy = workloads.check(args.workload, inp, p["results"])
        checks.add(attempted, failures)
    checks.expect(_dump(plain[1]["results"]) == _dump(plain[0]["results"]),
                  "untraced pass 1 results differ from pass 0")
    for i, t in enumerate(traced):
        t["metrics"] = tracing.layer_metrics(t["spans"])
        attempted, failures, _ = workloads.check(args.workload, inp, t["results"])
        checks.add(attempted, failures)
        checks.expect(_dump(t["results"]) == _dump(plain[0]["results"]),
                      f"traced pass {i} results differ bitwise from the untraced pass")
    first, second = (t["metrics"] for t in traced)
    for name in tracing.COUNT_METRICS:
        checks.expect(first[name] == second[name],
                      f"count {name} did not repeat: {first[name]} then {second[name]}")

    metrics = {k: 0.5 * (first[k] + second[k]) for k in first}
    metrics.update({k: first[k] for k in tracing.COUNT_METRICS})
    metrics.update(stage_times(fastest_calls(plain[1:]),
                               [s for st in workloads.STAGES.values() for s in st]))
    metrics["modulus_rel_err"] = accuracy.get("modulus_rel_err", 0.0)
    metrics["trace.overhead_frac"] = (statistics.mean(t["reference_s"] for t in traced)
                                      / plain[1]["reference_s"] - 1.0)
    detail.update(untraced_passes=plain,
                  traced_passes=[{k: t[k] for k in ("calls", "wall_s", "reference_s", "metrics",
                                                    "spans")} for t in traced],
                  speed_samples=list(zip(sampler.starts, sampler.ends)))
    return metrics


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    _import_ringmod()
    import hostspeed
    import tracing
    import workloads

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    facts = machine_facts(args)
    inp = workloads.make_inputs(args.workload, args.seed)
    checks = Checks()
    detail: dict = {"facts": facts}
    if args.trace:
        measured = run_traced(workloads, hostspeed, tracing, args, inp, checks, detail)
        wanted = spec["per_layer"]
    else:
        measured = run_untraced(workloads, hostspeed, args, inp, checks, detail)
        wanted = spec["end_to_end"]
    measured["fail_frac"] = len(checks.failures) / checks.attempted
    if not args.trace:
        detail["info"]["fail_frac"] = measured["fail_frac"]
    missing = {m["name"] for m in wanted} - set(measured)
    if missing:
        raise SystemExit(f"error: metrics not measured: {sorted(missing)}")

    metrics = {m["name"]: {"value": float(measured[m["name"]]), "unit": m["unit"]} for m in wanted}
    detail.update(metrics=metrics, failures=checks.failures)
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(detail, indent=1, default=float) + "\n")

    print("# facts " + json.dumps(facts, sort_keys=True))
    for key, value in sorted(detail.get("info", {}).items()):
        print(f"# {key} = {value!r}")
    if args.trace:
        # measured metrics that BENCHMARK.json does not list
        for key in sorted(set(measured) - set(metrics)):
            print(f"# {key} = {measured[key]!r}")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']!r} {m['unit']}")
    for msg in checks.failures:
        print(f"# FAILED {msg}")
    print(f"# details in {out.relative_to(ROOT)}")
    print(json.dumps({"correct": not checks.failures, "attempted": checks.attempted,
                      "failed": len(checks.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
