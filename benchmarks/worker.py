"""Run one batch of benchmark ops in a fresh interpreter.

Reads a job from stdin, prints one JSON result line on stdout::

    {"setup": {"types": [...], "lk": [...]}, "ops": [...], "trace": "count"|"full"}

The worker times ``import bmwade`` plus the set-up (root systems, and the LK
matrices that ``rep_image`` uses where asked), then runs the ops in order,
timing each one.  It reports per-op time, output digest, verdict, error and
T-recursion call count, its set-up time, its peak resident memory, and, in
``full`` trace mode, the tracer's aggregates and spans.  A machine-speed
calibration (``calibrate.py``) is taken after set-up and on a timer while
the ops run; each op reports the calibration around it, and all op times
leave the calibration time out.  Digests are compared by the caller.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _lru_caches(modules):
    """Every functools cache reachable from the bmwade modules' namespaces."""
    seen = {}
    for mod in modules:
        for name, obj in vars(mod).items():
            for owner_name, member in [(name, obj)] + (
                    [(f"{name}.{k}", v) for k, v in vars(obj).items()]
                    if isinstance(obj, type) else []):
                if hasattr(member, "cache_info") and id(member) not in seen:
                    seen[id(member)] = (f"{mod.__name__}.{owner_name}", member)
    return list(seen.values())


def cold_state_problems(setup_types) -> list[str]:
    """Memo state that a fresh ``bmwade`` invocation would not have.

    Only the root systems built during set-up may exist; their own word and
    coset caches must still be empty, and no ``LawrenceKrammer`` may exist.
    """
    from bmwade.rootsys import build_type

    mods = [m for n, m in sorted(sys.modules.items()) if n.startswith("bmwade")]
    problems = [
        f"{name} holds {fn.cache_info().currsize} entries"
        for name, fn in _lru_caches(mods)
        if fn is not build_type and fn.cache_info().currsize
    ]
    for label in setup_types:
        if getattr(build_type(label), "_word_cache", None):
            problems.append(f"root system {label} has cached reduced words")
    return problems


def _run_verify(op, setup_types, tracer, clock):
    from bmwade import cli

    problems = cold_state_problems(setup_types)
    if problems:
        raise RuntimeError("cold-start guard: " + "; ".join(problems))
    out = io.StringIO()
    start = clock()
    with contextlib.redirect_stdout(out):
        try:
            code = cli.main(op["args"])
        except SystemExit as exc:  # an exit is a verdict, as for the installed script
            code = exc.code
    elapsed = clock() - start
    return elapsed, _digest(out.getvalue()), code == 0


def _run_tcoeff(op, setup_types, tracer, clock):
    from bmwade import lkrep

    start = clock()
    t = lkrep.build_lk(op["type"]).t_coeff(op["node"], tuple(op["root"]))
    elapsed = clock() - start
    with tracer.paused():
        digest = _digest(json.dumps(t.to_json_dict(), sort_keys=True))
    return elapsed, digest, True


def _run_rewrite(op, setup_types, tracer, clock):
    from bmwade import lkrep, rootsys, wordalg

    rs = rootsys.build_type(op["type"])
    lk = lkrep.build_lk(op["type"])
    word = tuple((node, kind) for node, kind in op["word"])
    start = clock()
    comb = wordalg.reduce_word(rs, word)
    bound_ok = all(len(w) <= len(rs.positive_roots) for w in comb)
    equal = wordalg.rep_image_word(lk, word) == wordalg.rep_image(lk, comb)
    elapsed = clock() - start
    with tracer.paused():
        items = sorted(comb.items(), key=lambda kv: (len(kv[0]), kv[0]))
        record = {
            "combination": [{"word": wordalg.word_to_text(w).split(), "coeff": c.to_json_dict()}
                            for w, c in items],
            "bound_ok": bound_ok,
            "images_equal": equal,
        }
        digest = _digest(json.dumps(record, sort_keys=True))
    return elapsed, digest, bound_ok and equal


RUNNERS = {"verify": _run_verify, "tcoeff": _run_tcoeff, "rewrite": _run_rewrite}


def main() -> int:
    job = json.load(sys.stdin)
    sys.path.insert(0, str(ROOT / "src"))
    start = perf_counter()
    import bmwade
    from bmwade.lkrep import build_lk
    from bmwade.rootsys import build_type

    for label in job["setup"]["types"]:
        build_type(label)
    for label in job["setup"]["lk"]:
        lk = build_lk(label)
        for i in lk.rs.nodes:
            lk.sigma(i)
            lk.sigma_inv(i)
            lk.e_matrix(i)
    setup_s = perf_counter() - start
    if Path(bmwade.__file__).resolve().parent != ROOT / "src" / "bmwade":
        raise SystemExit(f"imported bmwade from {bmwade.__file__}, not from this checkout")

    from calibrate import Sampler
    from tracer import Tracer

    sampler = Sampler()
    clock = sampler.clock
    setup_cal = sampler.sample()
    tracer = Tracer(clock)
    if job["ops"]:
        tracer.install(job["trace"])
    ops = []
    with sampler.running() if job["ops"] else contextlib.nullcontext():
        for idx, op in enumerate(job["ops"]):
            tracer.op_id = idx
            before = tracer.counters["lkrep.t.calls"]
            t0 = clock()
            try:
                elapsed, digest, verdict = RUNNERS[op["kind"]](
                    op, job["setup"]["types"], tracer, clock)
                error = None
            except Exception:  # an op that raises is a failed op, not a crashed run
                elapsed, digest, verdict = clock() - t0, None, False
                error = traceback.format_exc(limit=3).strip().splitlines()[-1]
            ops.append({"id": op["id"], "s": elapsed, "start": t0, "end": clock(),
                        "digest": digest, "verdict": verdict, "error": error,
                        "t_calls": tracer.counters["lkrep.t.calls"] - before})
    for r in ops:
        r["cal"] = sampler.around(r["start"], r["end"])
    result = {
        "setup_s": setup_s,
        "setup_cal": setup_cal,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "ops": ops,
    }
    if job["trace"] == "full":
        result["trace"] = tracer.snapshot()
        result["spans"] = tracer.spans
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
