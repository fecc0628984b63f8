"""Relation suites, dimension reports, and the rank-2 dimension reproduction.

Every defining and derived relation of the algebra is checked against the
representation matrices, either exactly over the symbolic coefficient ring
(generic mode, every type of rank at most 8 except E8) or exactly over the
rationals at a specialization point l = l0, r = r0 with the one-dimensional
character z -> 1/r0 (specialized mode, all types including E8).  Each
relation is stated once, whatever the ring: sigma and tau share one braid
loop, and the adjacent-node rows of the T table share one instance walker.
A failing check always carries a concrete witness: the indices involved and
the first nonzero residual cell.

The dimension report reproduces the closed-form counts: |Phi+|^2 |W_C| for
the middle layer, the odd double factorial totals for type A with their
per-layer breakdown, the D4 total 1569 with its four layers, and the
conjectured D_n totals, labeled as conjectural since this artifact neither
confirms nor denies them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial

from .lkrep import (
    CharacterSpecialization,
    LawrenceKrammer,
    LKRepresentation,
    SparseMatrix,
    UnsupportedModeError,
    build_lk,
)
from .rootsys import DynkinType, build_type, enumerate_parabolic, parabolic_order
from .scalar import Scalar
from .wordalg import reduce_word, rep_image_word

SUITE_NAMES = ("braid", "essential", "eiproj", "table1", "zaction", "tau_monoid")
DEFAULT_L0 = Fraction(5, 7)
DEFAULT_R0 = Fraction(3, 2)
POINT_SEED = 20260801


@dataclass
class CheckResult:
    name: str
    ok: bool
    witness: str | None = None


@dataclass
class SuiteReport:
    suite: str
    type_label: str
    mode: str
    checks: list[CheckResult] = field(default_factory=list)

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
    # == is True only when every cell agrees; on False the walk decides (non-canonical forms too)
    w = None if a == b else _mat_witness(a, b, rs)
    out.append(CheckResult(name, w is None, w))


# -- individual suites ------------------------------------------------------
#
# Each suite takes the representation itself (generic or character): its
# matrices, its T lookup, its z and z^-1, and its ground scalars m, l,
# linv, x, which right-multiply entries.


def _braid_checks(rs, M, prefix: str) -> list[CheckResult]:
    """Artin relations of the matrices M(i): braid when adjacent, else commute."""
    out = []
    for i in rs.nodes:
        for j in rs.nodes:
            if j <= i:
                continue
            if j in rs.neighbors[i]:
                _check_eq(out, f"{prefix}braid_{i}_{j}", M(i) * M(j) * M(i), M(j) * M(i) * M(j), rs)
            else:
                _check_eq(out, f"{prefix}commute_{i}_{j}", M(i) * M(j), M(j) * M(i), rs)
    return out


def _suite_braid(rep: LKRepresentation) -> list[CheckResult]:
    return _braid_checks(rep.rs, rep.sigma, "")


def _suite_essential(rep: LKRepresentation) -> list[CheckResult]:
    rs, out = rep.rs, []
    m, ident, zero = rep.m, rep.identity_matrix(), rep.matrix(rep.size)
    e_linv = {}
    for i in rs.nodes:
        S, E = rep.sigma(i), rep.e_matrix(i)
        e_linv[i] = E.scale(rep.linv)
        _check_eq(out, f"r1_ge_{i}", S * E, e_linv[i], rs)
        _check_eq(out, f"r1_eg_{i}", E * S, e_linv[i], rs)
        _check_eq(out, f"esq_{i}", E * E, E.scale(rep.x), rs)
        _check_eq(out, f"cubic_{i}", rep.e_and_f(i)[1] * (S - ident.scale(rep.linv)), zero, rs)
        _check_eq(out, f"inverse_{i}", S * rep.sigma_inv(i), ident, rs)
    for i in rs.nodes:
        Ei, Si = rep.e_matrix(i), rep.sigma(i)
        for j in rs.nodes:
            adjacent = j in rs.neighbors[i]
            if j == i or (not adjacent and j < i):
                continue
            Ej, Sj = rep.e_matrix(j), rep.sigma(j)
            EiSj, SjEi, EiEj = Ei * Sj, Sj * Ei, Ei * Ej
            if not adjacent:
                _check_eq(out, f"ee_zero_{i}_{j}", EiEj, zero, rs)
                _check_eq(out, f"commute_eg_{i}_{j}", EiSj, SjEi, rs)
                _check_eq(out, f"commute_ee_{i}_{j}", EiEj, Ej * Ei, rs)
                continue
            Gi = rep.sigma_inv(i)
            EjSi, SiEj, GiEj = Ej * Si, Si * Ej, Gi * Ej
            SjSiEj, SjEiSj, EjEiSj, SjEiEj = Sj * SiEj, SjEi * Sj, Ej * EiSj, SjEi * Ej
            _check_eq(out, f"r2_{i}_{j}", EiSj * Ei, Ei.scale(rep.l), rs)
            _check_eq(out, f"wenzl_cross_{i}_{j}", Ei * rep.sigma_inv(j) * Ei, e_linv[i], rs)
            _check_eq(out, f"iji_gge_a_{i}_{j}", SjSiEj, EiSj * Si, rs)
            _check_eq(out, f"iji_gge_b_{i}_{j}", SjSiEj, EiEj, rs)
            _check_eq(out, f"iji_geg_a_{i}_{j}", SjEiSj, GiEj * Gi, rs)
            expanded = (SiEj * Si + (EjSi - EiSj + SiEj - SjEi).scale(m)
                        + (Ej - Ei).scale(m * m))
            _check_eq(out, f"iji_geg_b_{i}_{j}", SjEiSj, expanded, rs)
            _check_eq(out, f"iji_eeg_a_{i}_{j}", EjEiSj, Ej * Gi, rs)
            _check_eq(out, f"iji_eeg_b_{i}_{j}", EjEiSj, EjSi + (Ej - Ej * Ei).scale(m), rs)
            _check_eq(out, f"iji_gee_a_{i}_{j}", SjEiEj, GiEj, rs)
            _check_eq(out, f"iji_gee_b_{i}_{j}", SjEiEj, SiEj + (Ej - EiEj).scale(m), rs)
            _check_eq(out, f"iji_eje_{i}_{j}", EiEj * Ei, Ei, rs)
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


def _suite_table1(rep: LKRepresentation) -> list[CheckResult]:
    """The rows of the T equation table, restated independently of the recursion."""
    rs, t, m = rep.rs, rep.t_coeff, rep.m
    out = []

    def run(name, instances):
        for label, lhs, rhs in instances:
            if lhs != rhs:
                out.append(CheckResult(name, False, label))
                return
        out.append(CheckResult(name, True))

    roots = rs.positive_roots

    run("t_row1_zero", (
        (f"i={i} beta=alpha_{j}", t(i, rs.alpha(j)), rep.zero())
        for i in rs.nodes for j in rs.nodes if i != j
    ))
    run("t_row2_unit", (
        (f"i={i}", t(i, rs.alpha(i)), rep.unit()) for i in rs.nodes
    ))
    run("t_row3_m", (
        (f"i={i} j={j}", t(i, rs.add_simple(rs.alpha(i), j)), rep.unit() * m)
        for i in rs.nodes for j in rs.neighbors[i]
    ))

    def row4():
        for beta in roots:
            for i in rs.nodes:
                for j in rs.nodes:
                    if j == i or j in rs.neighbors[i] or rs.pairing_simple(j, beta) != 1:
                        continue
                    hinv = rep.z_inv(rs.h_node(rs.alpha(i), j))
                    yield (f"i={i} j={j} beta={beta}", t(i, beta),
                           hinv * t(i, rs.sub_simple(beta, j)))

    def adjacent(pi, pj):
        """(label, beta, i, j) for j adjacent to i, (alpha_i, beta) = pi, (alpha_j, beta) = pj."""
        for beta in roots:
            for i in rs.nodes:
                if rs.pairing_simple(i, beta) != pi:
                    continue
                for j in rs.neighbors[i]:
                    if rs.pairing_simple(j, beta) == pj:
                        yield f"i={i} j={j} beta={beta}", beta, i, j

    def row5():
        for label, beta, i, j in adjacent(0, 1):
            gamma = rs.sub_simple(beta, j)
            yield label, t(i, beta), t(j, rs.sub_simple(gamma, i)) + t(i, gamma) * m

    def row6():
        for label, beta, i, j in adjacent(-1, 1):
            gamma = rs.sub_simple(beta, j)
            yield label, t(i, beta), t(j, gamma) * rep.h_elem(gamma, i) + t(i, gamma) * m

    run("t_row4_commuting", row4())
    run("t_row5_adjacent0", row5())
    run("t_row6_adjacent-1", row6())
    run("t_row7_pairing1", (
        (label, t(i, beta), t(j, rs.sub_simple(beta, i)) * rep.z_inv(rs.h_node(beta, j)))
        for label, beta, i, j in adjacent(1, 0)
    ))
    run("t_both_orthogonal", (
        (label, t(i, beta) * rep.h_elem(beta, j), t(j, beta) * rep.h_elem(beta, i))
        for label, beta, i, j in adjacent(0, 0) if j > i
    ))

    if isinstance(rep, LawrenceKrammer):
        # l-freeness is a statement about symbolic coefficients; a rational
        # point has no l left to be free of
        ok = all(rep.t_coeff(i, beta).is_l_free() for i in rs.nodes for beta in roots)
        out.append(CheckResult("t_lfree", ok))

    if rs.dtype.label in ("A3", "A4", "D4"):
        # h against its full-type Hecke evaluation, whatever ring is under test
        lk = build_lk(rs.dtype.label)
        run("t_hnode_oracle", (
            (f"i={i} beta={beta}", lk.h_oracle(beta, i), lk.h_elem(beta, i))
            for beta in roots for i in rs.nodes if rs.pairing_simple(i, beta) == 0
        ))
    return out


def _suite_choice(rep: LKRepresentation) -> list[CheckResult]:
    """Choice independence: every commuting-node and adjacent-node step gives T."""
    rs, bad = rep.rs, {True: None, False: None}
    for beta in rs.positive_roots:
        if rs.height(beta) < 3:
            continue
        for i in rs.support(beta):
            if rs.pairing_simple(i, beta) not in (0, -1):
                continue
            expected = rep.t_coeff(i, beta)
            for j, commuting, value in rep.steps(i, beta):
                if value != expected and bad[commuting] is None:
                    bad[commuting] = f"i={i} j={j} beta={beta}"
    return [CheckResult("t_choice_commuting_step", bad[True] is None, bad[True]),
            CheckResult("t_choice_adjacent_step", bad[False] is None, bad[False])]


def _suite_zaction(rep: LKRepresentation) -> list[CheckResult]:
    """The x_{alpha_i} column of W(k,i) sigma_j W(i,k) e_i, pushed through the factors."""
    rs, out = rep.rs, []
    for i in rs.nodes:
        ai_idx = rs.root_index[rs.alpha(i)]
        bad = None
        for k in rs.nodes:
            far = [j for j in rs.nodes if j != k and j not in rs.neighbors[k]]
            if not far:
                continue
            pushed = rep.word_apply(rs.geodesic_word(i, k), rep.e_matrix(i).column(ai_idx))
            for j in far:
                col = rep.word_apply(rs.geodesic_word(k, i), rep.sigma(j).apply(pushed))
                expect = rep.h_elem(rs.alpha(k), j) * rep.x
                good = set(col) <= {ai_idx} and col.get(ai_idx, 0) == expect
                if not good and bad is None:
                    bad = f"j={j} k={k}"
        out.append(CheckResult(f"zaction_{i}", bad is None, bad))
    return out


def _suite_tau(rep: LKRepresentation) -> list[CheckResult]:
    return _braid_checks(rep.rs, rep.tau, "tau_")


_SUITE_FNS = {
    "braid": _suite_braid,
    "essential": _suite_essential,
    "eiproj": _suite_eiproj,
    "table1": lambda rep: _suite_table1(rep) + _suite_choice(rep),
    "zaction": _suite_zaction,
    "tau_monoid": _suite_tau,
}


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


def _double_factorial(k: int) -> int:
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


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
    elif fam == "D" and n == 4:
        report["layers"] = [
            {"cocliques": 0, "orbit": 1, "dim": 192},
            {"cocliques": 1, "orbit": 12, "dim": 1152},
            {"cocliques": 2, "orbit": 18, "dim": 216},
            {"cocliques": 3, "orbit": 3, "dim": 9},
        ]
        report["total_dim"] = 1569
    elif fam == "D":
        report["total_dim"] = (2 ** n + 1) * _double_factorial(2 * n - 1) \
            - (2 ** (n - 1) + 1) * factorial(n)
        report["total_conjectural"] = True
    return report


# -- rank-2 dimension reproduction ------------------------------------------------


A2_MONOMIALS = (
    (),
    ((1, "g"),), ((2, "g"),), ((1, "e"),), ((2, "e"),),
    ((1, "g"), (2, "g")), ((1, "g"), (2, "e")), ((2, "g"), (1, "g")),
    ((2, "g"), (1, "e")), ((1, "e"), (2, "g")), ((1, "e"), (2, "e")),
    ((2, "e"), (1, "g")), ((2, "e"), (1, "e")),
    ((1, "g"), (2, "g"), (1, "g")), ((1, "g"), (2, "e"), (1, "g")),
)


def rational_rank(rows: list[list[Fraction]]) -> int:
    rows = [list(r) for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [v * inv for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                c = rows[r][col]
                rows[r] = [v - c * p for v, p in zip(rows[r], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def _a2_vector(lk: LawrenceKrammer, word, l0: Fraction, m0: Fraction) -> list[Fraction]:
    """Coordinates of a word image: 6 Hecke coefficients and 9 matrix cells."""
    rs = lk.rs
    hecke, mat = rep_image_word(lk, word)
    basis = enumerate_parabolic(rs, rs.nodes)
    vec = [hecke.coeffs().get(w, Scalar.zero()).eval_at(l0, m0) for w in basis]
    ident = rs.identity
    for c in range(lk.size):
        for r in range(lk.size):
            entry = mat.entry(r, c)
            s = Scalar.zero() if entry is None else entry.coeffs().get(ident, Scalar.zero())
            vec.append(s.eval_at(l0, m0))
    return vec


def a2_dimension_check() -> SuiteReport:
    """Pin dim B(A2) = 15: independent images plus closure under generators."""
    lk = build_lk("A2")
    rs = lk.rs
    l0, m0 = DEFAULT_L0, Fraction(3, 2)
    report = SuiteReport("a2dim", "A2", "generic")

    vectors = [_a2_vector(lk, w, l0, m0) for w in A2_MONOMIALS]
    rank = rational_rank(vectors)
    report.checks.append(CheckResult(
        "rank_15", rank == 15, None if rank == 15 else f"rank={rank}"))

    shorter = [v for w, v in zip(A2_MONOMIALS, vectors) if len(w) < 3]
    top = vectors[A2_MONOMIALS.index(((1, "g"), (2, "e"), (1, "g")))]
    rank14 = rational_rank(shorter + [top])
    report.checks.append(CheckResult(
        "g1e2g1_independent", rank14 == 14, None if rank14 == 14 else f"rank={rank14}"))

    allowed = set(A2_MONOMIALS)
    letters = (((1, "g"),), ((2, "g"),), ((1, "e"),), ((2, "e"),))
    bad = None
    for mono in A2_MONOMIALS:
        for letter in letters:
            for product in (mono + letter, letter + mono):
                comb = reduce_word(rs, product)
                outside = [w for w in comb if w not in allowed]
                if outside and bad is None:
                    bad = f"product {product} leaves span via {outside[0]}"
    report.checks.append(CheckResult("closure", bad is None, bad))
    return report.sort()
