"""Workload definitions: the fixed input set of each workload, made from a seed.

A workload is a list of ops plus the set-up that precedes them.  Ops are
plain dicts (JSON-safe), so the runner can hand them to a worker process:

* ``verify``: one ``bmwade verify --suite all --json`` invocation, run cold
  in its own fresh interpreter;
* ``tcoeff``: one ``LawrenceKrammer.t_coeff(i, beta)`` call on the worker's
  shared, initially cold ``LawrenceKrammer``;
* ``rewrite``: ``reduce_word`` on one word, then the length bound and the
  ``rep_image_word(word) == rep_image(comb)`` check.

Every op has an ``id`` under which its expected output digest is stored in
``golden.json``.  The id names the input, not its position, so a digest
recorded once serves every seed.

Why each workload (see also ``BENCHMARK.json``):

* ``verify-spec-E``: exact-rational sparse matrix products, ``zaction``
  dominated; the ``Scalar`` and Hecke layers do no work here.
* ``verify-generic-AD``: the same suites over ``HeckeElement``/``Scalar``
  entries, where coefficient arithmetic dominates (D5).
* ``tcoeff-E7``: the T recursion and the closed form on large Hecke
  supports, with no matrix products at all.
* ``rewrite-A3D4``: the only workload that runs the word rewriter; latency
  per op is heavy-tailed.

How the seed enters.  The same seed always gives the same inputs.
``verify-spec-E`` draws two specialization points from a fixed pool of
twelve (so each point has a recorded digest).  The other workloads run a
fixed input set and the seed only permutes its order: for ``tcoeff-E7``
within each height, which leaves every op's own work unchanged because all
lower heights are already memoized; for the cold verify ops and the
independent rewrite ops, order does not change the work either.  The
rewrite words are criterion 8's (seed 20260810): drawing new words per seed
made the pass time vary from 8 s to 18 s between seeds, because one word in
a hundred can cost a third of the total.
"""

from __future__ import annotations

import random
from fractions import Fraction

WORKLOADS = ("verify-spec-E", "verify-generic-AD", "tcoeff-E7", "rewrite-A3D4")

DEFAULT_POINT = (Fraction(5, 7), Fraction(3, 2))
POOL_SIZE = 12
TCOEFF_HEIGHT_CAP = 12
WORDS_PER_TYPE = 100
CRITERION8_SEED = 20260810


def point_pool() -> list[tuple[Fraction, Fraction]]:
    """Twelve distinct specialization points, the acceptance test's two first."""
    from bmwade.verify import seeded_points

    pool: list[tuple[Fraction, Fraction]] = []
    for p in seeded_points(3 * POOL_SIZE):
        if p != DEFAULT_POINT and p not in pool:
            pool.append(p)
    return pool[:POOL_SIZE]


def _point_arg(point) -> str:
    return f"l={point[0]},r={point[1]}"


def verify_op(label: str, point=None) -> dict:
    args = ["verify", "--type", label, "--suite", "all", "--json"]
    if point is not None:
        args += ["--specialize", _point_arg(point)]
    mode = "generic" if point is None else _point_arg(point)
    return {"kind": "verify", "type": label, "args": args, "id": f"verify {label} {mode}"}


def tcoeff_ops(label: str, cap: int, rng: random.Random) -> list[dict]:
    from bmwade.rootsys import build_type

    rs = build_type(label)
    ops = []
    for height in range(1, cap + 1):
        level = [
            {"kind": "tcoeff", "type": label, "node": i, "root": list(beta),
             "id": f"tcoeff {label} i={i} beta={','.join(map(str, beta))}"}
            for beta in rs.positive_roots if rs.height(beta) == height
            for i in rs.nodes
        ]
        rng.shuffle(level)
        ops += level
    return ops


def criterion8_words(label: str, count: int) -> list[tuple]:
    """The first ``count`` words of acceptance criterion 8's generator."""
    from bmwade.rootsys import build_type

    rs = build_type(label)
    rng = random.Random(CRITERION8_SEED)
    letters = [(i, k) for i in rs.nodes for k in "gGe"]
    return [tuple(rng.choice(letters) for _ in range(rng.randint(1, 12)))
            for _ in range(count)]


def rewrite_ops(label: str, count: int, rng: random.Random) -> list[dict]:
    from bmwade.wordalg import word_to_text

    ops = [
        {"kind": "rewrite", "type": label, "word": [list(x) for x in word],
         "id": f"rewrite {label} {word_to_text(word)}"}
        for word in criterion8_words(label, count)
    ]
    rng.shuffle(ops)
    return ops


def build(name: str, seed: int, smoke: bool = False) -> dict:
    """The workload's set-up spec and op list for one seed.

    ``smoke`` swaps in tiny inputs of the same shape (A2/A3 suites, height
    cap 3, four words per type) so that the benchmark's own tests run in
    seconds.
    """
    rng = random.Random(seed)
    if name == "verify-spec-E":
        points = rng.sample(point_pool(), 2)
        if smoke:
            ops = [verify_op("A3", DEFAULT_POINT), verify_op("A3", points[0])]
        else:
            ops = [verify_op("E6", DEFAULT_POINT)] + [verify_op("E6", p) for p in points] \
                + [verify_op("E7", DEFAULT_POINT)]
        return {"setup": {"types": sorted({op["type"] for op in ops}), "lk": []}, "ops": ops}
    if name == "verify-generic-AD":
        labels = ["A2", "A3"] if smoke else ["A4", "D4", "D5"]
        ops = [verify_op(label) for label in labels]
        rng.shuffle(ops)
        return {"setup": {"types": labels, "lk": []}, "ops": ops}
    if name == "tcoeff-E7":
        cap = 3 if smoke else TCOEFF_HEIGHT_CAP
        return {"setup": {"types": ["E7"], "lk": []}, "ops": tcoeff_ops("E7", cap, rng)}
    if name == "rewrite-A3D4":
        labels = ["A2", "A3"] if smoke else ["A3", "D4"]
        count = 4 if smoke else WORDS_PER_TYPE
        ops = [op for label in labels for op in rewrite_ops(label, count, rng)]
        return {"setup": {"types": labels, "lk": labels}, "ops": ops}
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
