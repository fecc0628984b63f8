"""bmwade benchmark: time to verdict on four exact workloads, with per-layer traces.

Usage (from the root of a checkout)::

    python3 benchmarks/run.py --workload verify-spec-E --seed 1 --seconds 20 --trace 0

Workloads are defined in ``workloads.py``.  A run first measures set-up
(``import bmwade`` plus the workload's root systems, and for
``rewrite-A3D4`` also the LK matrices that ``rep_image`` uses) in
``SETUP_REPEATS`` fresh interpreters and keeps the median.  It then runs
passes over the workload's fixed op set, each in fresh worker processes
(one per op for ``verify``, so every verify op starts cold), for as long as
another pass still fits in ``--seconds`` counted from the start of set-up;
at least one pass always runs.

Timings are in seconds at a fixed reference machine speed: each op's wall
time is scaled by ``calibrate.REFERENCE_S`` over the calibration unit's time
measured around that op (see ``calibrate.py``), and set-up likewise by the
calibration taken right after it.  On a shared host this halves the
run-to-run spread.  Raw wall times are in the metadata line; per-layer
times from the traced run are raw, except ``trace.overhead_s``.

Every op's output is checked against ``golden.json``, recorded from the
seed commit by ``record_golden.py``: its verdict must hold, its output
digest must match, and so must its count of T-recursion calls
(``t_coeff``/``t_char``, memo hits included), so that memo state kept from
an earlier op or run cannot pass as a speed-up.  A change that alters the
recursion on purpose re-records the file.  An op that fails any check, or
raises, counts as failed.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one
untraced and one traced pass whatever ``--seconds`` says, and reports the
per-layer metrics, including the tracing overhead (traced minus untraced
``wall_s``); it also writes the spans to ``benchmarks/out/``.  The traced
pass takes about 1.6 times as long as an untraced one, so a traced run of
``verify-generic-AD`` or ``rewrite-A3D4`` takes about 40 s.

The last line of stdout is one JSON object ``{"correct", "attempted",
"failed", "metrics"}``; a JSON line with run metadata and a readable table
come before it.  The exit code is 0 when a result is printed; a checkout
without ``src/bmwade`` exits 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import REFERENCE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
GOLDEN = HERE / "golden.json"
OUT_DIR = HERE / "out"

SETUP_REPEATS = 11
RUN_BUDGET_S = 170.0

END_TO_END = {
    "wall_s": "s",
    "op_s.p50": "s",
    "op_s.p95": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class BenchError(RuntimeError):
    pass


def layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


# -- workers ----------------------------------------------------------------


def run_job(setup: dict, ops: list, trace: str, deadline: float) -> dict:
    """Run one worker process to completion and return its result."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    job = json.dumps({"setup": setup, "ops": ops, "trace": trace})
    try:
        proc = subprocess.run([sys.executable, str(WORKER)], input=job, capture_output=True,
                              text=True, cwd=ROOT, env=env, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out after {remaining:.0f}s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def run_pass(spec: dict, trace: str, deadline: float) -> dict:
    """One pass over the op set; verify ops each get a fresh interpreter."""
    ops = spec["ops"]
    if ops and all(op["kind"] == "verify" for op in ops):
        batches = [[op] for op in ops]
    else:
        batches = [ops]
    started = time.monotonic()
    results = [run_job(spec["setup"], batch, trace, deadline) for batch in batches]
    op_results = [r for res in results for r in res["ops"]]
    for r in op_results:
        r["ref_s"] = r["s"] * REFERENCE_S / r["cal"]
    return {
        "ops": op_results,
        "wall_s": sum(r["ref_s"] for r in op_results),
        "raw_wall_s": sum(r["s"] for r in op_results),
        "clock_s": time.monotonic() - started,
        "rss_kb": max(res["rss_kb"] for res in results),
        "workers": results,
    }


# -- checks -----------------------------------------------------------------


def check_op(r: dict, golden: dict) -> str | None:
    """None when the op is correct, else why it failed."""
    expected = golden.get(r["id"])
    if r["error"]:
        return f"{r['id']}: raised {r['error']}"
    if not r["verdict"]:
        return f"{r['id']}: wrong verdict"
    if expected is None:
        return f"{r['id']}: no recorded digest"
    if r["digest"] != expected["digest"]:
        return f"{r['id']}: output digest differs from the recorded one"
    if r["t_calls"] != expected["t_calls"]:
        return (f"{r['id']}: {r['t_calls']} T-recursion calls, "
                f"{expected['t_calls']} recorded")
    return None


# -- metrics ----------------------------------------------------------------


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(passes: list, setup_samples: list[float]) -> tuple[dict, dict]:
    per_op = [statistics.median(p["ops"][k]["ref_s"] for p in passes)
              for k in range(len(passes[0]["ops"]))]
    n = len(per_op)
    values = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "op_s.p50": statistics.median(per_op),
        "op_s.p95": nearest_rank(per_op, 0.95),
        "peak_rss_mb": max(p["rss_kb"] for p in passes) / 1024,
        "setup_s": statistics.median(setup_samples),
    }
    latency = {
        "samples": n,
        "sample": "per-op median over passes",
        "op_s.p50": "median",
        "op_s.p95": "nearest rank",
        "beyond_p95": n - math.ceil(0.95 * n),
        "setup_s": f"median of {len(setup_samples)} fresh interpreters",
    }
    return values, latency


def per_layer(traced: dict, untraced: dict) -> tuple[dict, dict]:
    from tracer import layer_metrics, layer_self_times, merge

    agg = merge([w["trace"] for w in traced["workers"]])
    values = layer_metrics(agg)
    values["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    return values, layer_self_times(agg)


def write_spans(name: str, seed: int, traced: dict) -> Path:
    """Write the traced pass's ops and spans, with op ids global to the pass."""
    OUT_DIR.mkdir(exist_ok=True)
    ops, spans, op_base, span_base = [], [], 0, 0
    for w in traced["workers"]:
        for r in w["ops"]:
            ops.append({"op": len(ops), "id": r["id"],
                        "start": r["start"], "end": r["end"]})
        for sid, key, start, end, parent, op in w["spans"]:
            spans.append([span_base + sid, key, start, end,
                          None if parent is None else span_base + parent, op_base + op])
        op_base += len(w["ops"])
        span_base += len(w["spans"])
    path = OUT_DIR / f"spans-{name}-seed{seed}.json"
    path.write_text(json.dumps({"workload": name, "seed": seed, "ops": ops,
                                "fields": ["span", "name", "start", "end", "parent", "op"],
                                "spans": spans}))
    return path


# -- metadata ---------------------------------------------------------------


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "bmwade").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


# -- main -------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs of the same shape, for the benchmark's own tests")
    return parser.parse_args(argv)


def _table(rows) -> str:
    width = max(len(r[0]) for r in rows)
    return "\n".join(f"  {name:<{width}}  {value}" for name, value in rows)


def _fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "bmwade" / "__init__.py").is_file():
        print(f"error: no bmwade sources at {SRC / 'bmwade'}; run from a full checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    sys.path.insert(0, str(SRC))
    import workloads

    try:
        spec = workloads.build(args.workload, args.seed, args.smoke)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    golden = json.loads(GOLDEN.read_text())

    try:
        started = time.monotonic()
        setups = [run_job(spec["setup"], [], "count", deadline) for _ in range(SETUP_REPEATS)]
        passes = [run_pass(spec, "count", deadline)]
        if args.trace:
            traced = run_pass(spec, "full", deadline)
        else:
            while time.monotonic() - started + max(p["clock_s"] for p in passes) <= args.seconds:
                passes.append(run_pass(spec, "count", deadline))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    checked = [r for p in passes + ([traced] if args.trace else []) for r in p["ops"]]
    failures = [f for f in (check_op(r, golden) for r in checked) if f]
    attempted = len(checked)

    setup_samples = [r["setup_s"] * REFERENCE_S / r["setup_cal"] for r in setups]
    e2e, latency = end_to_end(passes, setup_samples)
    lines = [f"workload {args.workload}  seed {args.seed}  ops/pass {len(spec['ops'])}  "
             f"passes {len(passes)}{' + 1 traced' if args.trace else ''}"]
    rows = [(k, f"{_fmt(v)} {END_TO_END[k]}") for k, v in e2e.items()]
    rows.append(("raw wall_s", f"{_fmt(statistics.median(p['raw_wall_s'] for p in passes))} s"))
    rows.append(("fail_frac", f"{_fmt(len(failures) / attempted)} ratio "
                              f"({len(failures)}/{attempted})"))
    lines.append(_table(rows))
    if args.trace:
        layers, self_times = per_layer(traced, passes[0])
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}
        spans_path = write_spans(args.workload, args.seed, traced)
        traced_wall = traced["raw_wall_s"]
        rows = [(layer, f"{s:.4f} s  {100 * s / traced_wall:5.1f}%")
                for layer, s in self_times.items()]
        other = traced_wall - sum(self_times.values())
        rows.append(("(unwrapped)", f"{other:.4f} s  {100 * other / traced_wall:5.1f}%"))
        lines.append("self time per layer (traced pass):")
        lines.append(_table(rows))
        lines.append("per-layer metrics:")
        lines.append(_table([(k, f"{_fmt(m['value'])} {m['unit']}") for k, m in metrics.items()]))
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()}
        spans_path = None
    for f in failures[:10]:
        lines.append(f"FAILED {f}")
    print("\n".join(lines))

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "ops_per_pass": len(spec["ops"]),
        "passes": len(passes),
        "latency": latency,
        "setup_samples_s": setup_samples,
        "raw_setup_samples_s": [r["setup_s"] for r in setups],
        "pass_wall_s": [p["wall_s"] for p in passes],
        "raw_pass_wall_s": [p["raw_wall_s"] for p in passes],
        "calibration_s": {"reference": REFERENCE_S,
                          "median": statistics.median(r["cal"] for p in passes
                                                      for r in p["ops"])},
        "fail_frac": len(failures) / attempted,
        "spans": None if spans_path is None else str(spans_path.relative_to(ROOT)),
    }
    if args.trace:
        meta["raw_traced_wall_s"] = traced["raw_wall_s"]
        meta["layer_self_s"] = self_times
    print(json.dumps({"meta": meta}))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
