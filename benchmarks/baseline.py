"""Run every workload over several seeds and record the medians and spreads.

Usage (from the root of a checkout)::

    python3 benchmarks/baseline.py --seeds 1-10 --out benchmarks/baseline.json

For each workload it runs ``run.py --trace 0`` once per seed and
``run.py --trace 1`` once (first seed), with ``run_seconds`` from
``BENCHMARK.json``.  It prints, per workload and end-to-end metric, the
median over seeds and the spread: the distance between the first and third
quartiles (``statistics.quantiles(values, n=4)``) as a share of the median,
next to the metric's bound.  The JSON written to ``--out`` keeps every run's
result and metadata, so the file is the recorded baseline of the commit it
was run on.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    started = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return {"seed": seed, "clock_s": time.monotonic() - started,
            "meta": json.loads(lines[-2])["meta"], "result": json.loads(lines[-1])}


def summarize(runs: list[dict], bounds: dict) -> dict:
    out = {}
    for name, bound in bounds.items():
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": median, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / median, "bound": bound}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    report = {"run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    all_correct = True
    for name in names:
        runs = []
        for seed in seeds:
            run = run_once(name, seed, spec["run_seconds"], 0)
            all_correct &= run["result"]["correct"]
            runs.append(run)
            print(f"{name} seed {seed}: {run['clock_s']:.1f}s "
                  f"correct={run['result']['correct']} " + " ".join(
                      f"{k}={m['value']:.5g}" for k, m in run["result"]["metrics"].items()),
                  flush=True)
        traced = run_once(name, seeds[0], spec["run_seconds"], 1)
        all_correct &= traced["result"]["correct"]
        summary = summarize(runs, bounds)
        report["workloads"][name] = {"summary": summary, "runs": runs, "traced": traced}
        for metric, s in summary.items():
            flag = "" if s["spread"] <= s["bound"] else "  OVER BOUND"
            print(f"  {metric:<12} median {s['median']:.5g}  spread {s['spread']:.3f} "
                  f"(bound {s['bound']}){flag}", flush=True)
    first = next(iter(report["workloads"].values()))["runs"][0]["meta"]
    report["machine"] = {k: first[k] for k in ("git_sha", "src_sha256", "python", "nproc")}
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
        print(f"wrote {args.out}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
