"""Per-layer tracing for the bmwade benchmark, installed from outside the package.

``Tracer.install`` replaces public functions and methods of the ``bmwade``
modules with timing wrappers.  Nothing under ``src/`` knows about it; the
wrappers are set on the classes and module namespaces at run time, in the
worker process only, after ``bmwade`` has been imported.

Two kinds of call are distinguished:

* hot calls (``Scalar`` arithmetic, ``RootSystem`` products, Hecke element
  operations, the T recursion, word-search states) are aggregated into a
  count, a total time and a self time per function; a ``Scalar`` or
  ``RootSystem`` call made from inside another call of the same layer is
  passed straight through, so ``scalar.ops`` counts the arithmetic the
  caller asked for, not the additions that a subtraction makes internally;
* coarse calls (``cli.main``, ``run_suite``, each relation suite, sparse
  products, closed forms, rewrites and images) are also kept as span records
  ``(span id, name, start, end, parent span id, op id)`` in memory, written
  out once by the caller when the run ends.

Self time is a call's duration minus the time of the wrapped calls it made.
The ``count`` mode installs only the T-recursion call counter, which the
cold-start guard needs in untraced runs; it adds one integer increment per
``t_coeff``/``t_char`` call and no clock reads.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("scalar", "rootsys", "hecke", "lkrep", "verify", "wordalg", "cli")
SUITES = ("braid", "essential", "eiproj", "table1", "zaction", "tau_monoid")
PAUSED = "<paused>"


class Tracer:
    def __init__(self, clock=perf_counter):
        self.clock = clock
        # frame: [key, layer, start, child_time, span_id]
        self.stack = [["<root>", None, 0.0, 0.0, None]]
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.group_depth = defaultdict(int)
        self.group_outer = defaultdict(float)
        self.counters = defaultdict(int)
        self.maxima = defaultdict(int)
        self.spans: list[tuple] = []
        self.op_id = None
        self._next_span = 0
        self._seen_sigma: set[int] = set()

    # -- wrapper factories ---------------------------------------------------

    def _timed(self, key, layer, fn, *, span=False, group=None, leaf=False,
               before=None, after=None):
        stack = self.stack
        calls, total, self_time = self.calls, self.total, self.self_time
        group_depth, group_outer = self.group_depth, self.group_outer
        spans = self.spans
        clock = self.clock

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if parent[1] is PAUSED or (leaf and parent[1] == layer):
                return fn(*args, **kwargs)
            if before is not None:
                before(args)
            span_id = parent[4]
            if span:
                span_id = self._next_span
                self._next_span += 1
            if group is not None:
                outer = group_depth[group] == 0
                group_depth[group] += 1
            frame = [key, layer, clock(), 0.0, span_id]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[2]
                parent[3] += dur
                calls[key] += 1
                total[key] += dur
                self_time[key] += dur - frame[3]
                if group is not None:
                    group_depth[group] -= 1
                    if outer:
                        group_outer[group] += dur
                if span:
                    spans.append((span_id, key, frame[2], end, parent[4], self.op_id))
            if after is not None:
                after(result, args)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, key, fn, after=None):
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[key] += 1
            result = fn(*args, **kwargs)
            if after is not None:
                after(result, args)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def paused(self):
        """Run the benchmark's own bookkeeping (digests) untraced."""
        self.stack.append([PAUSED, PAUSED, 0.0, 0.0, None])
        try:
            yield
        finally:
            self.stack.pop()

    # -- installation ----------------------------------------------------------

    def _patch(self, owner, name, make):
        """Wrap ``owner.name`` and every alias of it in the bmwade modules.

        A missing target is an error, not a skipped wrapper: a renamed
        function must be traced under its new name, not reported as 0.
        """
        original = getattr(owner, name)
        wrapped = make(original)
        targets = [(owner, name)]
        if not isinstance(owner, type):
            targets += [
                (mod, attr)
                for modname, mod in list(sys.modules.items())
                if modname.startswith("bmwade") and mod is not owner
                for attr, val in list(vars(mod).items())
                if val is original
            ]
        for obj, attr in targets:
            setattr(obj, attr, wrapped)

    def install(self, mode: str):
        """Install wrappers: ``count`` (T calls only) or ``full``."""
        from bmwade import cli, hecke, lkrep, rootsys, scalar, verify, wordalg

        LK, CS = lkrep.LawrenceKrammer, lkrep.CharacterSpecialization
        t_entries = ((LK, "t_coeff"), (CS, "t_char"))
        if mode == "count":
            for owner, name in t_entries:
                self._patch(owner, name, lambda f: self._counted("lkrep.t.calls", f))
            return
        if mode != "full":
            raise ValueError(f"unknown trace mode {mode!r}")

        t = self._timed
        Scalar = scalar.Scalar
        for name in ("__add__", "__sub__", "__neg__", "__mul__", "__truediv__", "scale"):
            self._patch(Scalar, name, lambda f, n=name: t(f"scalar.{n}", "scalar", f, leaf=True))

        RS = rootsys.RootSystem
        for name in ("right_mul_simple", "left_mul_simple", "reduced_word"):
            self._patch(RS, name, lambda f, n=name: t(f"rootsys.{n}", "rootsys", f, leaf=True))

        H = hecke.HeckeElement
        after_terms = self._note_terms
        self._patch(H, "__mul__", lambda f: t("hecke.mul", "hecke", f, after=after_terms))
        self._patch(H, "mul_generator",
                    lambda f: t("hecke.mul_generator", "hecke", f, after=after_terms))
        for name in ("mul_word", "__add__", "__sub__", "__neg__", "scale", "project_subalgebra"):
            self._patch(H, name, lambda f, n=name: t(f"hecke.{n}", "hecke", f))
        for name in ("eval_signed_word", "in_parabolic"):
            self._patch(hecke, name, lambda f, n=name: t(f"hecke.{n}", "hecke", f))

        for owner, name in t_entries:
            self._patch(owner, name, lambda f: t(
                "lkrep.t", "lkrep", f, before=self._count_t_call))
            self._patch(owner, "_t_compute", lambda f: t("lkrep.t_compute", "lkrep", f))
        self._patch(LK, "t_closed_form", lambda f: t(
            "lkrep.closed_form", "lkrep", f, span=True))
        self._patch(lkrep, "_closed_form_eval", lambda f: self._counted(
            "lkrep.closed_form_eval.calls", f, after=self._note_support))
        for owner in (LK, CS):
            for name in ("sigma", "tau", "e_and_f", "sigma_inv", "identity_matrix"):
                after = self._note_sigma if name == "sigma" else None
                self._patch(owner, name, lambda f, n=name, a=after: t(
                    f"lkrep.build.{n}", "lkrep", f, group="build", after=a))
        SM = lkrep.SparseMatrix
        self._patch(SM, "__mul__", lambda f: t(
            "lkrep.sparse_mul", "lkrep", f, span=True, before=self._count_products))
        for name in ("__add__", "__sub__", "__neg__", "scale", "map_entries", "__eq__"):
            self._patch(SM, name, lambda f, n=name: t(f"lkrep.sparse_other.{n}", "lkrep", f))

        self._patch(verify, "run_suite", lambda f: t(
            "verify.run_suite", "verify", f, span=True, after=self._note_checks))
        for name in SUITES:
            verify._SUITE_FNS[name] = t(f"verify.{name}", "verify", verify._SUITE_FNS[name],
                                        span=True)
        self._patch(verify, "_mat_witness", lambda f: t("verify.compare", "verify", f))

        self._patch(wordalg, "reduce_word", lambda f: t(
            "wordalg.reduce", "wordalg", f, span=True, after=self._note_reduce))
        self._patch(wordalg, "_search", lambda f: t(
            "wordalg.search", "wordalg", f, after=self._note_search))
        self._patch(wordalg, "_find_redex", lambda f: self._counted("wordalg.search.states", f))
        for name in ("rep_image", "rep_image_word"):
            self._patch(wordalg, name, lambda f, n=name: t(
                f"wordalg.{n}", "wordalg", f, span=True, group="image"))

        self._patch(cli, "main", lambda f: t("cli.main", "cli", f, span=True))

    # -- hooks -----------------------------------------------------------------

    def _count_t_call(self, args):
        self.counters["lkrep.t.calls"] += 1

    def _note_terms(self, result, args):
        terms = getattr(result, "terms", None)
        if terms is not None and len(terms) > self.maxima["hecke.max_terms"]:
            self.maxima["hecke.max_terms"] = len(terms)

    def _note_support(self, result, args):
        if len(result) > self.maxima["lkrep.closed_form.max_support"]:
            self.maxima["lkrep.closed_form.max_support"] = len(result)

    def _note_sigma(self, result, args):
        if id(result) not in self._seen_sigma:
            self._seen_sigma.add(id(result))
            self.counters["lkrep.sigma.nnz"] += sum(len(c) for c in result.cols.values())

    def _count_products(self, args):
        a, b = args[0], args[1]
        acols = a.cols
        self.counters["lkrep.sparse_mul.entry_products"] += sum(
            len(acols.get(g, ())) for col in b.cols.values() for g in col)

    def _note_checks(self, result, args):
        self.counters["verify.checks"] += len(result.checks)

    def _note_reduce(self, result, args):
        self.counters["wordalg.out_words"] += len(result)

    def _note_search(self, result, args):
        if result[0] == "redex":
            self.counters["wordalg.search.redex"] += 1

    # -- results -----------------------------------------------------------------

    def snapshot(self) -> dict:
        """Plain-data aggregates, summable across workers."""
        return {
            "calls": dict(self.calls),
            "total": dict(self.total),
            "self": dict(self.self_time),
            "outer": dict(self.group_outer),
            "counters": dict(self.counters),
            "maxima": dict(self.maxima),
        }


def merge(snapshots: list[dict]) -> dict:
    out = {"calls": defaultdict(int), "total": defaultdict(float), "self": defaultdict(float),
           "outer": defaultdict(float), "counters": defaultdict(int), "maxima": defaultdict(int)}
    for snap in snapshots:
        for part in ("calls", "total", "self", "outer", "counters"):
            for k, v in snap[part].items():
                out[part][k] += v
        for k, v in snap["maxima"].items():
            out["maxima"][k] = max(out["maxima"][k], v)
    return out


def _prefixed(table: dict, prefix: str) -> float:
    return sum(v for k, v in table.items() if k.startswith(prefix))


def layer_metrics(agg: dict) -> dict:
    """The per-layer metrics, by name, from merged aggregates."""
    calls, total, self_t = agg["calls"], agg["total"], agg["self"]
    counters, maxima, outer = agg["counters"], agg["maxima"], agg["outer"]
    t_calls = counters.get("lkrep.t.calls", 0)
    t_misses = calls.get("lkrep.t_compute", 0)
    searches = calls.get("wordalg.search", 0)
    return {
        "scalar.ops": _prefixed(calls, "scalar."),
        "scalar.s": _prefixed(total, "scalar."),
        "rootsys.ops": _prefixed(calls, "rootsys."),
        "rootsys.s": _prefixed(total, "rootsys."),
        "hecke.mul.calls": calls.get("hecke.mul", 0),
        "hecke.mul_generator.calls": calls.get("hecke.mul_generator", 0),
        "hecke.self_s": _prefixed(self_t, "hecke."),
        "hecke.max_terms": maxima.get("hecke.max_terms", 0),
        "lkrep.t.calls": t_calls,
        "lkrep.t.hit_ratio": (t_calls - t_misses) / t_calls if t_calls else 0.0,
        "lkrep.t.self_s": self_t.get("lkrep.t", 0.0) + self_t.get("lkrep.t_compute", 0.0),
        "lkrep.closed_form.calls": calls.get("lkrep.closed_form", 0),
        "lkrep.closed_form.s": total.get("lkrep.closed_form", 0.0),
        "lkrep.closed_form.max_support": maxima.get("lkrep.closed_form.max_support", 0),
        "lkrep.build.s": outer.get("build", 0.0),
        "lkrep.sigma.nnz": counters.get("lkrep.sigma.nnz", 0),
        "lkrep.sparse_mul.calls": calls.get("lkrep.sparse_mul", 0),
        "lkrep.sparse_mul.entry_products": counters.get("lkrep.sparse_mul.entry_products", 0),
        "lkrep.sparse_mul.self_s": self_t.get("lkrep.sparse_mul", 0.0),
        "lkrep.sparse_other.s": _prefixed(self_t, "lkrep.sparse_other."),
        **{f"verify.{name}.s": total.get(f"verify.{name}", 0.0) for name in SUITES},
        "verify.checks": counters.get("verify.checks", 0),
        "verify.compare.s": total.get("verify.compare", 0.0),
        "wordalg.reduce.s": total.get("wordalg.reduce", 0.0),
        "wordalg.search.calls": searches,
        "wordalg.search.states": counters.get("wordalg.search.states", 0),
        "wordalg.search.redex_ratio":
            counters.get("wordalg.search.redex", 0) / searches if searches else 0.0,
        "wordalg.image.s": outer.get("image", 0.0),
        "wordalg.out_words": counters.get("wordalg.out_words", 0),
        "cli.self_s": total.get("cli.main", 0.0) - total.get("verify.run_suite", 0.0),
    }


def layer_self_times(agg: dict) -> dict:
    """Self time per layer (module), summed over every wrapped function."""
    return {layer: _prefixed(agg["self"], layer + ".") for layer in LAYERS}
