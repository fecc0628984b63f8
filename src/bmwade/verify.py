"""Relation suites, dimension reports, and the rank-2 dimension reproduction.

Every defining and derived relation of the algebra is checked against the
representation matrices, either exactly over the symbolic coefficient ring
(generic mode, every type of rank at most 8 except E8) or exactly over the
rationals at a specialization point l = l0, r = r0 with the one-dimensional
character z -> 1/r0 (specialized mode, all types including E8).  Each
relation is stated once, whatever the ring: sigma and tau share one braid
loop, and the T table is one walk over (beta, i, j != i), in which rows 4-7
and ``t_both_orthogonal`` are read off j's adjacency to i and the pairings
of alpha_i and alpha_j with beta, and every step of the recursion at (beta,
i) is compared with T.  A check over instances fails at its first instance
whose two sides differ (``_first_bad``), and its witness names it; a matrix
check's witness is the first nonzero residual cell, or ``no cell differs``
when only the matrix type or size does.  A check with no instance on a type
passes vacuously: on A1 rows 1 and 3-7, ``t_both_orthogonal``, both choice
checks and ``zaction_1``; on A2 rows 4-7, ``t_both_orthogonal``, both choice
checks and ``zaction_i``; on A3 and D4 ``t_both_orthogonal`` and
``t_choice_commuting_step``.

The dimension report reproduces the closed-form counts: |Phi+|^2 |W_C| for
the middle layer, the odd double factorial totals for type A with their
per-layer breakdown, and one D_n formula, which gives D4's 1569 (with its
four layers) and is labeled conjectural from D5 on, as this artifact neither
confirms nor denies it.  The rank-2 reproduction ranks word images as sparse
rows {coordinate: rational}: no Weyl group is listed to index them.
"""

from __future__ import annotations

import random
from collections import namedtuple
from fractions import Fraction
from math import factorial, prod

from .lkrep import (
    CharacterSpecialization,
    LawrenceKrammer,
    LKRepresentation,
    SparseMatrix,
    UnsupportedModeError,
    build_lk,
)
from .rootsys import DynkinType, build_type, parabolic_order
from .scalar import _acc
from .wordalg import reduce_word, rep_image_word

DEFAULT_L0 = Fraction(5, 7)
DEFAULT_R0 = Fraction(3, 2)
POINT_SEED = 20260801


CheckResult = namedtuple("CheckResult", "name ok witness", defaults=(None,))


class SuiteReport:
    def __init__(self, suite: str, type_label: str, mode: str):
        self.suite, self.type_label, self.mode = suite, type_label, mode
        self.checks: list[CheckResult] = []

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def sort(self):
        self.checks.sort(key=lambda c: c.name)
        return self

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "type": self.type_label,
            "mode": self.mode,
            "passed": self.passed,
            "checks": [
                {"name": c.name, "status": "pass" if c.ok else "fail", "witness": c.witness}
                for c in self.checks
            ],
        }

    def text_lines(self) -> list[str]:
        lines = [f"suite {self.suite} on {self.type_label} ({self.mode})"]
        for c in self.checks:
            status = "pass" if c.ok else "FAIL"
            extra = "" if c.witness is None else f"  [{c.witness}]"
            lines.append(f"  {status}  {c.name}{extra}")
        return lines


def seeded_points(count: int = 2, seed: int = POINT_SEED) -> list[tuple[Fraction, Fraction]]:
    """Reproducible specialization points beyond the default (5/7, 3/2)."""
    rng = random.Random(seed)
    points = []
    while len(points) < count:
        l0 = Fraction(rng.randint(2, 9), rng.randint(2, 9))
        r0 = Fraction(rng.randint(2, 9), rng.randint(2, 9))
        if l0 == 0 or r0 in (0, 1, -1) or abs(l0) == 1:
            continue
        points.append((l0, r0))
    return points


def _mat_witness(a: SparseMatrix, b: SparseMatrix, rs) -> str | None:
    keys = set()
    for m in (a, b):
        for c, col in m.cols.items():
            keys.update((r, c) for r in col)
    for r, c in sorted(keys):
        va, vb = a.entry(r, c), b.entry(r, c)
        if (va or vb) and va != vb:
            beta, gamma = rs.positive_roots[c], rs.positive_roots[r]
            return f"cell x_{gamma} <- x_{beta}: {va!r} != {vb!r}"
    return None


def _check_eq(out: list, name: str, a: SparseMatrix, b: SparseMatrix, rs):
    # == is the verdict; the walk only names the first differing cell, if any
    ok = a == b
    out.append(CheckResult(name, ok, None if ok else _mat_witness(a, b, rs) or "no cell differs"))


# -- individual suites ------------------------------------------------------
#
# Each suite takes the representation itself (generic or character): its
# matrices, its T lookup, its z and z^-1, and its scalars m, l and the linv
# and x derived from them, which right-multiply entries.


def _braid_checks(rs, M, prefix: str) -> list[CheckResult]:
    """Artin relations of the matrices M(i): braid when adjacent, else commute."""
    out = []
    for i in rs.nodes:
        for j in rs.nodes[i:]:  # nodes are 1..n: every j > i
            if j in rs.neighbors[i]:
                _check_eq(out, f"{prefix}braid_{i}_{j}", M(i) * M(j) * M(i), M(j) * M(i) * M(j), rs)
            else:
                _check_eq(out, f"{prefix}commute_{i}_{j}", M(i) * M(j), M(j) * M(i), rs)
    return out


def _suite_essential(rep: LKRepresentation) -> list[CheckResult]:
    rs, out = rep.rs, []
    m, ident, zero = rep.m, rep.identity_matrix(), rep.matrix(rep.size)
    E, S, G, C = rep.e_matrix, rep.sigma, rep.sigma_inv, rep.matrix.combine
    e_linv = {}
    for i in rs.nodes:
        Si, Ei = S(i), E(i)
        e_linv[i] = Ei.scale(rep.linv)
        _check_eq(out, f"r1_ge_{i}", Si * Ei, e_linv[i], rs)
        _check_eq(out, f"r1_eg_{i}", Ei * Si, e_linv[i], rs)
        _check_eq(out, f"esq_{i}", Ei * Ei, Ei.scale(rep.x), rs)
        _check_eq(out, f"cubic_{i}", rep.e_and_f(i)[1] * C((Si, 1), (ident, -rep.linv)), zero, rs)
        _check_eq(out, f"inverse_{i}", Si * G(i), ident, rs)

    def adjacent_order(i, j, P):
        """The checks of the adjacent order (i, j), given the products P it shares with (j, i)."""
        Ei, Si, Gi, Ej, Sj = E(i), S(i), G(i), E(j), S(j)
        (EiSj, SjEi, EiEj, EiGj), (EjSi, SiEj, EjEi, EjGi) = P[i, j], P[j, i]
        GiEj, SjSiEj, SjEiSj = Gi * Ej, Sj * SiEj, SjEi * Sj
        EjEiSj, SjEiEj = Ej * EiSj, SjEi * Ej
        _check_eq(out, f"r2_{i}_{j}", EiSj * Ei, Ei.scale(rep.l), rs)
        _check_eq(out, f"wenzl_cross_{i}_{j}", EiGj * Ei, e_linv[i], rs)
        _check_eq(out, f"iji_gge_a_{i}_{j}", SjSiEj, EiSj * Si, rs)
        _check_eq(out, f"iji_gge_b_{i}_{j}", SjSiEj, EiEj, rs)
        _check_eq(out, f"iji_geg_a_{i}_{j}", SjEiSj, GiEj * Gi, rs)
        expanded = C((SiEj * Si, 1), (EjSi, m), (EiSj, -m), (SiEj, m), (SjEi, -m),
                     (Ej, m * m), (Ei, -m * m))
        _check_eq(out, f"iji_geg_b_{i}_{j}", SjEiSj, expanded, rs)
        _check_eq(out, f"iji_eeg_a_{i}_{j}", EjEiSj, EjGi, rs)
        _check_eq(out, f"iji_eeg_b_{i}_{j}", EjEiSj, C((EjSi, 1), (Ej, m), (EjEi, -m)), rs)
        _check_eq(out, f"iji_gee_a_{i}_{j}", SjEiEj, GiEj, rs)
        _check_eq(out, f"iji_gee_b_{i}_{j}", SjEiEj, C((SiEj, 1), (Ej, m), (EiEj, -m)), rs)
        _check_eq(out, f"iji_eje_{i}_{j}", EiEj * Ei, Ei, rs)

    for i in rs.nodes:
        for j in rs.nodes[i:]:  # nodes are 1..n: every j > i
            if j in rs.neighbors[i]:  # both orders, on the eight shared products
                P = {(a, b): (E(a) * S(b), S(b) * E(a), E(a) * E(b), E(a) * G(b))
                     for a, b in ((i, j), (j, i))}
                adjacent_order(i, j, P)
                adjacent_order(j, i, P)
                del P  # before the next pair's are built
            else:
                EiSj, SjEi, EiEj = E(i) * S(j), S(j) * E(i), E(i) * E(j)
                _check_eq(out, f"ee_zero_{i}_{j}", EiEj, zero, rs)
                _check_eq(out, f"commute_eg_{i}_{j}", EiSj, SjEi, rs)
                _check_eq(out, f"commute_ee_{i}_{j}", EiEj, E(j) * E(i), rs)
    return out


def _suite_eiproj(rep: LKRepresentation) -> list[CheckResult]:
    rs, out, t, linv = rep.rs, [], rep.t_coeff, rep.linv
    one = rep.unit()
    for i in rs.nodes:
        cols: dict[int, dict[int, object]] = {}
        ai_idx = rs.root_index[rs.alpha(i)]
        for b_idx, beta in enumerate(rs.positive_roots):
            p = rs.pairing_simple(i, beta)
            if p == 2:
                coeff = one * linv * linv + one * rep.m * linv - one
            elif p == 0:
                inner = rep.h_elem(beta, i) + one * rep.m + one * linv
                coeff = t(i, beta) * inner * linv
            elif p == -1:
                coeff = (t(i, rs.add_simple(beta, i)) + t(i, beta) * linv) * linv
            else:
                inner = t(i, beta) * rep.m + t(i, beta) * linv
                coeff = (t(i, rs.sub_simple(beta, i)) + inner) * linv
            if coeff:
                cols[b_idx] = {ai_idx: coeff}
        _check_eq(out, f"eiproj_{i}", rep.e_and_f(i)[1], rep.matrix(rep.size, cols), rs)
    return out


def _first_bad(name: str, instances) -> CheckResult:
    """The check ``name``, failed at the label of its first instance (label,
    lhs, rhs) with lhs != rhs; instances are read only up to that one."""
    label = next((label for label, lhs, rhs in instances if lhs != rhs), None)
    return CheckResult(name, label is None, label)


def _suite_table1(rep: LKRepresentation) -> list[CheckResult]:
    """The rows of the T equation table, restated independently of the recursion,
    and choice independence: every step of the recursion gives T."""
    rs, t, m, h, z_inv, sub = rep.rs, rep.t_coeff, rep.m, rep.h_elem, rep.z_inv, rep.rs.sub_simple
    out = [
        _first_bad("t_row1_zero", ((f"i={i} beta=alpha_{j}", t(i, rs.alpha(j)), rep.zero())
                                   for i in rs.nodes for j in rs.nodes if i != j)),
        _first_bad("t_row2_unit", ((f"i={i}", t(i, rs.alpha(i)), rep.unit()) for i in rs.nodes)),
        _first_bad("t_row3_m", ((f"i={i} j={j}", t(i, rs.add_simple(rs.alpha(i), j)), rep.unit() * m)
                                for i in rs.nodes for j in rs.neighbors[i])),
    ]

    # rows 4-7 by (j adjacent to i, p_i, p_j), p_k = (alpha_k, beta), row 4 at
    # any p_i: each row's check and its two sides at (beta, i, j)
    rows = {
        (False, None, 1): ("t_row4_commuting", lambda beta, i, j: (
            t(i, beta), z_inv(rs.h_node(rs.alpha(i), j)) * t(i, sub(beta, j)))),
        (True, 0, 1): ("t_row5_adjacent0", lambda beta, i, j: (
            t(i, beta), t(j, sub(sub(beta, j), i)) + t(i, sub(beta, j)) * m)),
        (True, -1, 1): ("t_row6_adjacent-1", lambda beta, i, j: (
            t(i, beta), t(j, sub(beta, j)) * h(sub(beta, j), i) + t(i, sub(beta, j)) * m)),
        (True, 1, 0): ("t_row7_pairing1", lambda beta, i, j: (
            t(i, beta), t(j, sub(beta, i)) * z_inv(rs.h_node(beta, j)))),
        (True, 0, 0): ("t_both_orthogonal", lambda beta, i, j: (
            t(i, beta) * h(beta, j), t(j, beta) * h(beta, i))),
    }
    choice = {True: "t_choice_commuting_step", False: "t_choice_adjacent_step"}
    found = {name: [] for name, _ in rows.values()} | {name: [] for name in choice.values()}
    for beta in rs.positive_roots:
        for i in rs.nodes:
            p = rs.pairing_simple(i, beta)
            # the recursion's own steps; at heights one and two every pairing is 2 or 1
            if p in (0, -1) and i in rs.support(beta):
                expected = t(i, beta)
                for j, commuting, value in rep.steps(i, beta):
                    found[choice[commuting]].append((f"i={i} j={j} beta={beta}", value, expected))
            for j in rs.nodes:
                pj = rs.pairing_simple(j, beta)
                row = rows.get((True, p, pj) if j in rs.neighbors[i] else (False, None, pj))
                if j == i or row is None or (p == pj == 0 and j < i):  # (beta, j, i) mirrors it
                    continue
                name, sides = row
                found[name].append((f"i={i} j={j} beta={beta}", *sides(beta, i, j)))
    out += [_first_bad(name, found[name]) for name, _ in rows.values()]

    if isinstance(rep, LawrenceKrammer):
        # l-freeness is a statement about symbolic coefficients; a rational
        # point has no l left to be free of
        ok = all(rep.t_coeff(i, beta).is_l_free() for i in rs.nodes for beta in rs.positive_roots)
        out.append(CheckResult("t_lfree", ok))

    if rs.dtype.label in ("A3", "A4", "D4"):
        # h against its full-type Hecke evaluation, whatever ring is under test
        lk = build_lk(rs.dtype.label)
        out.append(_first_bad("t_hnode_oracle", (
            (f"i={i} beta={beta}", lk.h_oracle(beta, i), lk.h_elem(beta, i))
            for beta in rs.positive_roots for i in rs.nodes if rs.pairing_simple(i, beta) == 0
        )))
    return out + [_first_bad(name, found[name]) for name in choice.values()]


def _suite_zaction(rep: LKRepresentation) -> list[CheckResult]:
    """Column x_{alpha_i} of W(k,i) sigma_j W(i,k) e_i, pushed as a one-column matrix."""
    rs = rep.rs

    def instances(i, a):
        e_col = rep.e_matrix(i) * rep.matrix(rep.size, {a: {a: rep.unit()}})
        for k in rs.nodes:
            far = [j for j in rs.nodes if j != k and j not in rs.neighbors[k]]
            if not far:
                continue
            pushed = rep.word_apply(rs.geodesic_word(i, k), e_col)
            for j in far:
                yield (f"j={j} k={k}", rep.word_apply(rs.geodesic_word(k, i), rep.sigma(j) * pushed),
                       rep.matrix(rep.size, {a: {a: rep.h_elem(rs.alpha(k), j) * rep.x}}))

    return [_first_bad(f"zaction_{i}", instances(i, rs.root_index[rs.alpha(i)])) for i in rs.nodes]


_SUITE_FNS = {
    "braid": lambda rep: _braid_checks(rep.rs, rep.sigma, ""),
    "essential": _suite_essential,
    "eiproj": _suite_eiproj,
    "table1": _suite_table1,
    "zaction": _suite_zaction,
    "tau_monoid": lambda rep: _braid_checks(rep.rs, rep.tau, "tau_"),
}
SUITE_NAMES = tuple(_SUITE_FNS)


def run_suite(suite: str, type_label: str, point=None) -> SuiteReport:
    """Run one suite, or ``"all"``: in generic mode when ``point`` is None,
    else specialized at ``point`` = (l0, r0), which needs l0 != 0 and m != 0.
    ``"a2dim"``, outside ``"all"``, is :func:`a2_dimension_check`, on A2 in
    generic mode only.  What cannot run raises UnsupportedModeError."""
    if suite == "a2dim":
        if DynkinType.parse(type_label).label != "A2":
            raise UnsupportedModeError("the a2dim suite runs on type A2 only")
        if point is not None:
            raise UnsupportedModeError("the a2dim suite has no specialized mode")
        return a2_dimension_check()
    if suite != "all" and suite not in SUITE_NAMES:
        raise UnsupportedModeError(f"unknown suite {suite!r}")
    if point is None:
        rep = build_lk(type_label)
        mode_label = "generic"
    else:
        l0, r0 = Fraction(point[0]), Fraction(point[1])
        if l0 == 0 or r0 in (0, 1, -1):  # m = 0 leaves e_i = (l/m) f_i undefined
            raise UnsupportedModeError("need l0 != 0 and r0 not in {0, 1, -1}")
        rep = CharacterSpecialization(build_type(type_label), l0, r0)
        mode_label = f"specialized l={l0} r={r0}"
    names = SUITE_NAMES if suite == "all" else (suite,)
    report = SuiteReport(suite, type_label, mode_label)
    for name in names:
        report.checks.extend(_SUITE_FNS[name](rep))
    return report.sort()


# -- dimension formulas ---------------------------------------------------------


def _a_layers(n: int) -> list[dict]:
    layers = []
    for i in range(0, (n + 1) // 2 + 1):
        orbit = factorial(n + 1) // (2 ** i * factorial(i) * factorial(n + 1 - 2 * i))
        layers.append({
            "cocliques": i,
            "orbit": orbit,
            "dim": orbit ** 2 * factorial(n + 1 - 2 * i),
        })
    return layers


def dims_report(type_label: str) -> dict:
    rs = build_type(type_label)
    fam, n = rs.dtype.family, rs.dtype.rank
    phi = len(rs.positive_roots)
    wc = parabolic_order(rs, rs.c_nodes)
    report = {
        "type": type_label,
        "phi_plus": phi,
        "c_nodes": list(rs.c_nodes),
        "w_c_order": wc,
        "hecke_dim": parabolic_order(rs, rs.nodes),
        "i1_mod_i2_dim": phi * phi * wc,
        "total_dim": None,
        "total_conjectural": False,
        "layers": None,
    }
    if fam == "A":
        layers = _a_layers(n)
        report["layers"] = layers
        report["total_dim"] = sum(v["dim"] for v in layers)
    elif fam == "D":  # the formula gives D4's 1569, computed layer by layer
        report["total_dim"] = (2 ** n + 1) * prod(range(2 * n - 1, 1, -2)) \
            - (2 ** (n - 1) + 1) * factorial(n)
        report["total_conjectural"] = n > 4
        if n == 4:
            report["layers"] = [
                {"cocliques": 0, "orbit": 1, "dim": 192},
                {"cocliques": 1, "orbit": 12, "dim": 1152},
                {"cocliques": 2, "orbit": 18, "dim": 216},
                {"cocliques": 3, "orbit": 3, "dim": 9},
            ]
    return report


# -- rank-2 dimension reproduction ------------------------------------------------


def rational_rank(rows) -> int:
    """Rank over Q of sparse rows {coordinate: rational}.  Each row is reduced
    by the rows kept so far, in the order kept (a kept row is zero at every
    earlier pivot), and a nonzero rest is kept, scaled to 1 at its pivot."""
    kept = []
    for row in rows:
        row = {k: v for k, v in row.items() if v}
        for pivot, basis in kept:
            if c := row.get(pivot):
                for k, v in basis.items():
                    _acc(row, k, -c * v)
        if row:
            pivot, c = next(iter(row.items()))
            kept.append((pivot, {k: v / Fraction(c) for k, v in row.items()}))
    return len(kept)


def _a2_vector(lk: LawrenceKrammer, word, l0: Fraction, m0: Fraction) -> dict:
    """Coordinates of a word image at (l0, m0): {w: value} for its Hecke
    coefficients and {(r, c, w): value} for the T_w coefficient of cell (r, c)."""
    hecke, mat = rep_image_word(lk, word)
    vec = {w: s.eval_at(l0, m0) for w, s in hecke.coeffs().items()}
    for c, col in mat.cols.items():
        for r, v in col.items():
            vec.update(((r, c, w), s.eval_at(l0, m0)) for w, s in v.coeffs().items())
    return vec


def a2_dimension_check() -> SuiteReport:
    """Pin dim B(A2) = 15: the rewrite closure of 1 has 15 words, independent images."""
    lk = build_lk("A2")
    l0, m0 = DEFAULT_L0, Fraction(3, 2)
    report = SuiteReport("a2dim", "A2", "generic")

    # the two-sided rewrite closure of 1, breadth first, stopped once past 15 words
    words, letters = [()], (((1, "g"),), ((2, "g"),), ((1, "e"),), ((2, "e"),))
    for product in (p for w in words for x in letters for p in (w + x, x + w)):
        words += sorted(v for v in reduce_word(lk.rs, product) if v not in words)
        if len(words) > 15:
            break
    report.checks.append(CheckResult(
        "closure", len(words) == 15,
        None if len(words) == 15 else f"{len(words)} words, the last {words[-1]}"))

    vectors = [_a2_vector(lk, w, l0, m0) for w in words]
    rank = rational_rank(vectors)
    report.checks.append(CheckResult(
        "rank_15", rank == 15, None if rank == 15 else f"rank={rank}"))

    shorter = [v for w, v in zip(words, vectors) if len(w) < 3]
    top = _a2_vector(lk, ((1, "g"), (2, "e"), (1, "g")), l0, m0)
    rank14 = rational_rank(shorter + [top])
    report.checks.append(CheckResult(
        "g1e2g1_independent", rank14 == 14, None if rank14 == 14 else f"rank={rank14}"))
    return report.sort()
