import random
import time
from collections import defaultdict
from fractions import Fraction
from math import factorial

import pytest

from bmwade import lkrep, wordalg
from bmwade.lkrep import (
    CharacterSpecialization,
    LawrenceKrammer,
    RationalMatrix,
    SparseMatrix,
    build_lk,
)
from bmwade.rootsys import build_type, parabolic_order
from bmwade.scalar import Scalar
from bmwade.verify import (
    _SUITE_FNS,
    CheckResult,
    UnsupportedModeError,
    _a2_vector,
    _check_eq,
    _mat_witness,
    _suite_table1,
    _suite_zaction,
    a2_dimension_check,
    dims_report,
    rational_rank,
    run_suite,
    seeded_points,
)
from bmwade.wordalg import reduce_word
from test_lkrep import _product_column


@pytest.mark.parametrize("label, point", [
    ("A2", None), ("A3", None), ("D4", None), ("E6", (Fraction(5, 7), Fraction(3, 2))),
], ids=["A2", "A3", "D4", "E6-at-a-point"])
def test_all_suites_pass_with_sorted_unique_names(label, point):
    # the report's order is its names' order: emission order is invisible
    # only while no two checks share a name
    report = run_suite("all", label, point)
    assert report.passed
    names = [c.name for c in report.checks]
    assert names == sorted(set(names))


def test_essential_d4_contains_nonadjacent_annihilation():
    report = run_suite("essential", "D4")
    assert report.passed
    assert any(c.name == "ee_zero_1_3" for c in report.checks)


@pytest.mark.parametrize("label,point,products", [
    ("A3", None, 82),
    ("D4", None, 126),
    ("E6", (Fraction(5, 7), Fraction(3, 2)), 226),
])
def test_essential_builds_each_pair_product_once(count_calls, label, point, products):
    # one order of an adjacent pair makes 19 products, 8 of which the other
    # order reads again; built once per pair, A3, D4 and E6 (2, 3 and 5
    # adjacent pairs) would make 16, 24 and 40 more when built per order.
    # The count includes building sigma, e and sigma^-1 on the fresh representation.
    rs = build_type(label)
    rep = LawrenceKrammer(rs) if point is None else CharacterSpecialization(rs, *point)
    calls = count_calls(SparseMatrix, "__mul__")
    assert all(c.ok for c in _SUITE_FNS["essential"](rep))
    assert len(calls) == products


def test_generic_mode_rejected_for_large_types():
    with pytest.raises(UnsupportedModeError):
        run_suite("braid", "E8")
    with pytest.raises(UnsupportedModeError, match="specialized mode for A9"):
        run_suite("braid", "A9")
    with pytest.raises(UnsupportedModeError):
        run_suite("nonsense", "A2")
    with pytest.raises(UnsupportedModeError, match="unknown suite"):
        run_suite("nonsense", "E8")
    # the rule lives in build_lk, so every caller of the generic ring meets it
    for label in ("E8", "A9", "D9", "A100"):
        with pytest.raises(UnsupportedModeError,
                           match=f"specialized mode for {label} .*--specialize.*--theta lk"):
            build_lk(label)
    assert build_lk("A8").rs.n == 8 and build_lk("D8").rs.n == 8


@pytest.mark.parametrize("label, suite", [("E6", "braid"), ("E6", "table1"), ("E7", "table1")])
def test_generic_e_suite_passes(label, suite):
    # the only tier-1 checks of the non-commuting Hecke factor order on the E types:
    # the character route of the E suites cannot see it
    report = run_suite(suite, label)
    assert report.mode == "generic"
    assert report.checks and report.passed, [c for c in report.checks if not c.ok]


def test_specialized_matches_generic_on_samples():
    # generic pass implies specialized pass at any valid point
    for l0, r0 in [(Fraction(5, 7), Fraction(3, 2))] + seeded_points():
        rep = run_suite("all", "A3", (l0, r0))
        assert rep.passed, [c for c in rep.checks if not c.ok]


def test_specialized_rejects_degenerate_point():
    for l0, r0 in ((Fraction(5, 7), 1), (Fraction(5, 7), -1), (Fraction(5, 7), 0), (0, Fraction(3, 2))):
        with pytest.raises(UnsupportedModeError, match=r"need l0 != 0 and r0 not in \{0, 1, -1\}"):
            run_suite("braid", "A2", (l0, r0))


def test_seeded_points_are_deterministic_and_valid():
    pts = seeded_points()
    assert pts == seeded_points()
    assert len(pts) == 2
    for l0, r0 in pts:
        assert l0 != 0 and r0 not in (0, 1, -1)


def test_report_shapes():
    rep = run_suite("braid", "A2")
    data = rep.to_json_dict()
    assert data["passed"] is True
    assert data["checks"][0]["status"] == "pass"
    assert rep.text_lines()[0].startswith("suite braid on A2")


def test_witness_pinpoints_cell():
    rs = build_lk("A2").rs
    lk = build_lk("A2")
    a = lk.sigma(1)
    b = lk.sigma(2)
    w = _mat_witness(a, b, rs)
    assert w is not None and "x_" in w
    assert _mat_witness(a, a, rs) is None


DIMS = {
    "A2": 9,
    "A3": 72,
    "D4": 1152,
    "E6": 933120,
    "E7": 91445760,
    "E8": 41803776000,
}


@pytest.mark.parametrize("label,expected", sorted(DIMS.items()))
def test_middle_layer_dimensions(label, expected):
    assert dims_report(label)["i1_mod_i2_dim"] == expected


def test_a_type_totals_are_odd_double_factorials():
    for n in range(1, 9):
        rep = dims_report(f"A{n}")
        expect = 1
        for k in range(2 * n + 1, 1, -2):
            expect *= k
        assert rep["total_dim"] == expect
        assert not rep["total_conjectural"]
        assert sum(layer["dim"] for layer in rep["layers"]) == expect


def test_a_layer_formula():
    rep = dims_report("A4")
    layers = {layer["cocliques"]: layer for layer in rep["layers"]}
    assert layers[0]["dim"] == factorial(5)
    assert layers[1]["dim"] == 10 ** 2 * factorial(3)
    assert layers[2]["dim"] == 15 ** 2 * factorial(1)


def test_d4_breakdown():
    rep = dims_report("D4")
    assert [layer["dim"] for layer in rep["layers"]] == [192, 1152, 216, 9]
    assert rep["total_dim"] == 1569
    assert not rep["total_conjectural"]


def test_dn_total_is_flagged_conjectural():
    rep = dims_report("D5")
    assert rep["total_conjectural"]
    assert rep["total_dim"] == (2 ** 5 + 1) * 945 - (2 ** 4 + 1) * factorial(5)
    # the conjectured formula reproduces the computed D4 value
    assert (2 ** 4 + 1) * 105 - (2 ** 3 + 1) * factorial(4) == 1569


def test_e_types_report_no_total():
    rep = dims_report("E8")
    assert rep["total_dim"] is None
    assert rep["hecke_dim"] == 696729600


def test_rational_rank():
    rows = [{0: Fraction(1), 1: Fraction(2)}, {0: 2, 1: 4}, {1: Fraction(1)}]
    assert rational_rank(rows) == 2
    assert rational_rank([{0: Fraction(0)}]) == 0
    assert rational_rank([{}, {"x": Fraction(1, 3)}, {("y", 1): -1}]) == 2
    assert rational_rank([]) == 0


def _dense_rank(rows: list[list[Fraction]]) -> int:
    """Gauss-Jordan over dense rows: the reference for the sparse ``rational_rank``."""
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


def test_rational_rank_matches_dense_elimination():
    rng = random.Random(20261020)

    def entry():
        return Fraction(rng.randint(-3, 3), rng.randint(1, 4))  # zero about one time in seven

    ranks = set()
    for _ in range(300):
        ncols = rng.randint(1, 9)
        rows = [{k: entry() for k in rng.sample(range(ncols), rng.randint(0, ncols))}
                for _ in range(rng.randint(0, 6))]
        for _ in range(rng.randint(0, 3)):  # combinations of the rows so far
            combo = {}
            for row in rows:
                c = entry()
                for k, v in row.items():
                    combo[k] = combo.get(k, 0) + c * v  # zero sums stay as explicit zeros
            rows.append(combo)
        rows += [{}] * rng.randint(0, 1)
        rng.shuffle(rows)
        dense = [[Fraction(row.get(k, 0)) for k in range(ncols)] for row in rows]
        rank = rational_rank(rows)
        assert rank == _dense_rank(dense), rows
        ranks.add((rank, rank < len(rows)))
    # dependent and independent row sets of several ranks were drawn
    assert {(0, True), (3, False), (3, True), (6, True)} <= ranks


def test_a3_rewrite_closure_has_107_words_of_rank_96():
    # the two-sided rewrite closure of the empty word on A3, as a2dim builds
    # A2's; its images span B/I_2, of dimension |W| + |Phi+|^2 |W_C| = 24 + 36 * 2
    start = time.perf_counter()
    lk = build_lk("A3")
    rs = lk.rs
    letters = [((i, kind),) for kind in "ge" for i in rs.nodes]
    words = [()]
    for w in words:  # grows while walked
        for x in letters:
            for product in (w + x, x + w):
                words += sorted(v for v in reduce_word(rs, product) if v not in words)
    assert len(words) == 107

    vectors = (_a2_vector(lk, word, Fraction(5, 7), Fraction(3, 2)) for word in words)
    assert rational_rank(vectors) == 96 == (
        parabolic_order(rs, rs.nodes) + len(rs.positive_roots) ** 2 * parabolic_order(rs, rs.c_nodes))
    assert time.perf_counter() - start <= 10.0


def test_a2_dimension_check():
    rep = a2_dimension_check()
    assert rep.passed
    assert {c.name for c in rep.checks} == {"rank_15", "g1e2g1_independent", "closure"}


def test_a2dim_ranks_catch_a_zeroed_e1(monkeypatch):
    lk = build_lk("A2")
    f = lk.e_and_f(1)[1]
    # a copy of the shared representation's memo, so that nothing built from e_1 stays
    memo = defaultdict(dict, {name: dict(values) for name, values in lk._memo.items()})
    memo["e_and_f"][(1,)] = (lk.matrix(lk.size), f)
    monkeypatch.setattr(lk, "_memo", memo)
    bad = [(c.name, c.witness) for c in a2_dimension_check().checks if not c.ok]
    assert bad == [("g1e2g1_independent", "rank=9"), ("rank_15", "rank=10")]


def test_a2dim_closure_catches_a_missing_braid_move(monkeypatch):
    # without g g g -> g g g, g1 g2 g1 and g2 g1 g2 stay two words
    monkeypatch.delitem(wordalg._MOVES, "ggg")
    bad = [(c.name, c.witness) for c in a2_dimension_check().checks if not c.ok]
    assert bad == [("closure", "16 words, the last ((1, 'g'), (2, 'e'), (1, 'g'))")]


def test_run_suite_owns_the_a2dim_rules():
    assert run_suite("a2dim", "A2").to_json_dict() == a2_dimension_check().to_json_dict()
    with pytest.raises(UnsupportedModeError, match="^the a2dim suite runs on type A2 only$"):
        run_suite("a2dim", "A3")
    with pytest.raises(UnsupportedModeError, match="^the a2dim suite has no specialized mode$"):
        run_suite("a2dim", "A2", (Fraction(5, 7), Fraction(3, 2)))


def test_sparse_matrix_witness_none_for_equal_zero():
    assert _mat_witness(SparseMatrix(3), SparseMatrix(3), build_lk("A2").rs) is None


def test_check_eq_fails_unequal_matrices_whose_cells_all_agree():
    # == is the verdict: a different matrix type or size is no cell's difference
    rs, cols, out = build_type("A2"), {0: {1: Fraction(1, 2)}}, []
    _check_eq(out, "type", SparseMatrix(3, cols), RationalMatrix(3, cols), rs)
    _check_eq(out, "size", SparseMatrix(3, cols), SparseMatrix(4, cols), rs)
    assert out == [CheckResult("type", False, "no cell differs"),
                   CheckResult("size", False, "no cell differs")]


def _corrupt_e6_sigma_1(rep):
    """+1 on sigma_1's diagonal cell at the first root orthogonal to alpha_1; e and f rebuilt."""
    rs = rep.rs
    b_idx = rs.root_index[next(b for b in rs.positive_roots if rs.pairing_simple(1, b) == 0)]
    _corrupt_cell(rep.sigma(1), rep, b_idx, b_idx)
    assert rep.sigma(1).cols[b_idx][b_idx]
    rep._memo["e_and_f"].clear()


def test_zaction_catches_a_corrupted_sigma_cell_on_e6():
    rep = CharacterSpecialization(build_type("E6"), Fraction(5, 7), Fraction(3, 2))
    _corrupt_e6_sigma_1(rep)
    checks = _suite_zaction(rep)
    assert [c.name for c in checks] == [f"zaction_{i}" for i in rep.rs.nodes]
    assert all(not c.ok and c.witness == "j=1 k=6" for c in checks)


def _reference_zaction(rep):
    """The zaction suite over dict columns, pushed by _product_column, each result
    read by its keys and its one value."""
    rs, out = rep.rs, []

    def push(word, col):
        for s in reversed(word):
            col = _product_column(rep.sigma(s), col)
        return col

    for i in rs.nodes:
        ai_idx = rs.root_index[rs.alpha(i)]
        bad = None
        for k in rs.nodes:
            far = [j for j in rs.nodes if j != k and j not in rs.neighbors[k]]
            if not far:
                continue
            pushed = push(rs.geodesic_word(i, k), rep.e_matrix(i).column(ai_idx))
            for j in far:
                col = push(rs.geodesic_word(k, i), _product_column(rep.sigma(j), pushed))
                expect = rep.h_elem(rs.alpha(k), j) * rep.x
                good = set(col) <= {ai_idx} and col.get(ai_idx, 0) == expect
                if not good and bad is None:
                    bad = f"j={j} k={k}"
        out.append(CheckResult(f"zaction_{i}", bad is None, bad))
    return out


@pytest.mark.parametrize("label, point, corrupt", [
    ("A3", None, False),
    ("A4", None, False),
    ("D4", None, False),
    ("E6", (Fraction(5, 7), Fraction(3, 2)), False),
    ("E6", (Fraction(5, 7), Fraction(3, 2)), True),
], ids=["A3", "A4", "D4", "E6", "E6-corrupted"])
def test_zaction_agrees_with_the_dict_column_reference(label, point, corrupt):
    rs = build_type(label)
    rep = LawrenceKrammer(rs) if point is None else CharacterSpecialization(rs, *point)
    if corrupt:
        _corrupt_e6_sigma_1(rep)
    checks = _suite_zaction(rep)
    assert checks == _reference_zaction(rep)
    witness = "j=1 k=6" if corrupt else None
    assert checks == [CheckResult(f"zaction_{i}", not corrupt, witness) for i in rs.nodes]


def _corrupt_cell(mat, rep, row, col):
    """Add exactly 1 to one cell; a RationalMatrix stores it as den over den."""
    one = mat.den if isinstance(mat, RationalMatrix) else rep.unit()
    cell = mat.cols.setdefault(col, {})
    cell[row] = cell[row] + one if row in cell else one


def _t_memo(rep):
    """The T entries of the representation's one memo, keyed (i, beta)."""
    return rep._memo["t_coeff"]


def test_inverse_check_reads_the_cached_sigma_inverse():
    rep = CharacterSpecialization(build_type("A3"), Fraction(5, 7), Fraction(3, 2))
    rs = rep.rs
    a1, a2 = rs.root_index[rs.alpha(1)], rs.root_index[rs.alpha(2)]
    _corrupt_cell(rep.sigma_inv(1), rep, a1, a2)
    checks = {c.name: c for c in _SUITE_FNS["essential"](rep)}
    assert not checks["inverse_1"].ok
    assert checks["inverse_1"].witness.startswith("cell x_")
    assert checks["inverse_2"].ok and checks["inverse_3"].ok


# every failing essential check, in suite order, with its witness, when one
# cell of e_1 is corrupted on generic A3: sharing the products of the suite
# must not move a single witness
ESSENTIAL_WITH_BAD_E1 = [
    ("r1_eg_1", "cell x_(1, 0, 0) <- x_(0, 1, 0): (l^-1 + -m)*1 != (2*l^-1)*1"),
    ("inverse_1", "cell x_(1, 0, 0) <- x_(0, 1, 0): (-m*l^-1)*1 != None"),
    ("wenzl_cross_1_2", "cell x_(1, 0, 0) <- x_(0, 1, 0): (2*l^-1 + -2*m)*1 != (2*l^-1)*1"),
    ("iji_gge_a_1_2", "cell x_(1, 0, 0) <- x_(1, 1, 0): (l^-1 + m)*1 != (2*l^-1 + m)*1"),
    ("iji_gge_b_1_2", "cell x_(1, 0, 0) <- x_(0, 0, 1): (1)*1 != (2)*1"),
    ("iji_geg_a_1_2",
     "cell x_(1, 0, 0) <- x_(0, 0, 1): (-m^2)*1 + (-m)*z2 != (-2*m^2)*1 + (-2*m)*z2"),
    ("iji_geg_b_1_2", "cell x_(1, 1, 0) <- x_(0, 1, 0): (2*l^-1)*1 != (l^-1 + -m)*1"),
    ("iji_eeg_a_1_2", "cell x_(0, 1, 0) <- x_(0, 1, 0): (2*l^-1)*1 != (l^-1 + -m)*1"),
    ("iji_eeg_b_1_2", "cell x_(0, 1, 0) <- x_(0, 1, 0): (2*l^-1)*1 != (l^-1 + -m)*1"),
    ("iji_gee_a_1_2", "cell x_(1, 1, 0) <- x_(0, 0, 1): (2)*1 != (1)*1"),
    ("iji_gee_b_1_2", "cell x_(1, 1, 0) <- x_(0, 0, 1): (2)*1 != (1)*1"),
    ("iji_eje_1_2", "cell x_(1, 0, 0) <- x_(0, 1, 0): (4)*1 != (2)*1"),
    ("wenzl_cross_2_1", "cell x_(0, 1, 0) <- x_(0, 0, 1): (l^-1 + -m)*1 != (l^-1)*1"),
    ("iji_gge_a_2_1", "cell x_(0, 1, 0) <- x_(0, 1, 0): (2)*1 != (1)*1"),
    ("iji_geg_a_2_1", "cell x_(0, 1, 0) <- x_(0, 0, 1): (-m)*z2 != (m^2)*1 + (-m)*z2"),
    ("iji_geg_b_2_1", "cell x_(1, 1, 0) <- x_(0, 1, 0): (l)*1 != (l^-1 + m + l)*1"),
    ("iji_eeg_a_2_1", "cell x_(1, 0, 0) <- x_(0, 0, 1): (2)*z2 != (-m)*1 + (1)*z2"),
    ("iji_eeg_b_2_1", "cell x_(1, 0, 0) <- x_(0, 0, 1): (2)*z2 != (-m)*1 + (1)*z2"),
    ("iji_eje_2_1", "cell x_(0, 1, 0) <- x_(0, 0, 1): (2)*1 != (1)*1"),
    ("commute_eg_1_3", "cell x_(1, 0, 0) <- x_(0, 1, 0): (-m)*1 + (1)*z2 != (2)*z2"),
]


def test_essential_witnesses_for_a_corrupted_e_cell_on_a3():
    rep = LawrenceKrammer(build_type("A3"))
    rs = rep.rs
    _corrupt_cell(rep.e_matrix(1), rep, rs.root_index[rs.alpha(1)],
                        rs.root_index[rs.alpha(2)])
    bad = [(c.name, c.witness) for c in _SUITE_FNS["essential"](rep) if not c.ok]
    assert bad == ESSENTIAL_WITH_BAD_E1


# the same corruption, by +1 at the same cell, on A3 specialized at (5/7, 3/2):
# the same twenty checks fail, with witnesses read as Fractions
ESSENTIAL_WITH_BAD_E1_AT_POINT = [
    ("r1_eg_1", "cell x_(1, 0, 0) <- x_(0, 1, 0): Fraction(17, 30) != Fraction(14, 5)"),
    ("inverse_1", "cell x_(1, 0, 0) <- x_(0, 1, 0): Fraction(-7, 6) != None"),
    ("wenzl_cross_1_2", "cell x_(1, 0, 0) <- x_(0, 1, 0): Fraction(17, 15) != Fraction(14, 5)"),
    ("iji_gge_a_1_2",
     "cell x_(1, 0, 0) <- x_(1, 1, 0): Fraction(67, 30) != Fraction(109, 30)"),
    ("iji_gge_b_1_2", "cell x_(1, 0, 0) <- x_(0, 0, 1): Fraction(1, 1) != Fraction(2, 1)"),
    ("iji_geg_a_1_2", "cell x_(1, 0, 0) <- x_(0, 0, 1): Fraction(-5, 4) != Fraction(-5, 2)"),
    ("iji_geg_b_1_2", "cell x_(1, 1, 0) <- x_(0, 1, 0): Fraction(14, 5) != Fraction(17, 30)"),
    ("iji_eeg_a_1_2", "cell x_(0, 1, 0) <- x_(0, 1, 0): Fraction(14, 5) != Fraction(17, 30)"),
    ("iji_eeg_b_1_2", "cell x_(0, 1, 0) <- x_(0, 1, 0): Fraction(14, 5) != Fraction(17, 30)"),
    ("iji_gee_a_1_2", "cell x_(1, 1, 0) <- x_(0, 0, 1): Fraction(2, 1) != Fraction(1, 1)"),
    ("iji_gee_b_1_2", "cell x_(1, 1, 0) <- x_(0, 0, 1): Fraction(2, 1) != Fraction(1, 1)"),
    ("iji_eje_1_2", "cell x_(1, 0, 0) <- x_(0, 1, 0): Fraction(4, 1) != Fraction(2, 1)"),
    ("wenzl_cross_2_1", "cell x_(0, 1, 0) <- x_(0, 0, 1): Fraction(17, 30) != Fraction(7, 5)"),
    ("iji_gge_a_2_1", "cell x_(0, 1, 0) <- x_(0, 1, 0): Fraction(2, 1) != Fraction(1, 1)"),
    ("iji_geg_a_2_1", "cell x_(0, 1, 0) <- x_(0, 0, 1): Fraction(-5, 9) != Fraction(5, 36)"),
    ("iji_geg_b_2_1",
     "cell x_(1, 1, 0) <- x_(0, 1, 0): Fraction(5, 7) != Fraction(619, 210)"),
    ("iji_eeg_a_2_1", "cell x_(1, 0, 0) <- x_(0, 0, 1): Fraction(4, 3) != Fraction(-1, 6)"),
    ("iji_eeg_b_2_1", "cell x_(1, 0, 0) <- x_(0, 0, 1): Fraction(4, 3) != Fraction(-1, 6)"),
    ("iji_eje_2_1", "cell x_(0, 1, 0) <- x_(0, 0, 1): Fraction(2, 1) != Fraction(1, 1)"),
    ("commute_eg_1_3", "cell x_(1, 0, 0) <- x_(0, 1, 0): Fraction(-1, 6) != Fraction(4, 3)"),
]


def test_essential_witnesses_for_a_corrupted_e_cell_on_a3_at_a_point():
    rep = CharacterSpecialization(build_type("A3"), Fraction(5, 7), Fraction(3, 2))
    rs = rep.rs
    _corrupt_cell(rep.e_matrix(1), rep, rs.root_index[rs.alpha(1)],
                  rs.root_index[rs.alpha(2)])
    bad = [(c.name, c.witness) for c in _SUITE_FNS["essential"](rep) if not c.ok]
    assert [name for name, _ in bad] == [name for name, _ in ESSENTIAL_WITH_BAD_E1]
    assert bad == ESSENTIAL_WITH_BAD_E1_AT_POINT


# negative controls on generic A3: each check must see one corrupted cell of
# the object it tests, so that it cannot pass by comparing a product with itself
def test_braid_catches_a_corrupted_sigma_cell_on_a3():
    rep = LawrenceKrammer(build_type("A3"))
    rs = rep.rs
    _corrupt_cell(rep.sigma(1), rep, rs.root_index[rs.alpha(1)], rs.root_index[rs.alpha(2)])
    checks = {c.name: c for c in _SUITE_FNS["braid"](rep)}
    assert not checks["braid_1_2"].ok
    assert checks["braid_1_2"].witness.startswith("cell x_")


def test_r2_catches_a_corrupted_sigma_cell_on_a3():
    rep = LawrenceKrammer(build_type("A3"))
    rs = rep.rs
    for i in rs.nodes:
        rep.e_matrix(i)
        rep.sigma_inv(i)
    _corrupt_cell(rep.sigma(2), rep, rs.root_index[rs.alpha(2)], rs.root_index[rs.alpha(1)])
    checks = {c.name: c for c in _SUITE_FNS["essential"](rep)}
    assert not checks["r2_1_2"].ok
    assert checks["r2_1_2"].witness.startswith("cell x_")


def test_table1_row6_catches_a_corrupted_t_coeff_on_a3():
    rep = LawrenceKrammer(build_type("A3"))
    rs = rep.rs
    _SUITE_FNS["table1"](rep)
    key = (1, rs.alpha(3))
    _t_memo(rep)[key] += rep.unit()
    checks = {c.name: c for c in _SUITE_FNS["table1"](rep)}
    assert not checks["t_row6_adjacent-1"].ok


def test_eiproj_catches_a_corrupted_t_coeff_on_a3():
    rep = LawrenceKrammer(build_type("A3"))
    rs = rep.rs
    rep.e_and_f(1)  # sigma_1 and f_1 are cached before the corruption
    key = (1, (1, 1, 0))
    _t_memo(rep)[key] += rep.unit()
    checks = {c.name: c for c in _SUITE_FNS["eiproj"](rep)}
    assert not checks["eiproj_1"].ok
    assert checks["eiproj_1"].witness.startswith("cell x_")
    assert checks["eiproj_2"].ok and checks["eiproj_3"].ok


def test_tau_braid_catches_a_corrupted_tau_cell_on_a3():
    rep = LawrenceKrammer(build_type("A3"))
    rs = rep.rs
    _corrupt_cell(rep.tau(1), rep, rs.root_index[rs.alpha(1)], rs.root_index[rs.alpha(2)])
    checks = {c.name: c for c in _SUITE_FNS["tau_monoid"](rep)}
    assert not checks["tau_braid_1_2"].ok
    assert checks["tau_braid_1_2"].witness.startswith("cell x_")
    assert checks["tau_braid_2_3"].ok


# negative controls for the check families ee_zero, commute_ee, esq, cubic,
# commute (sigma) and r1_ge on generic A3: +1 at the cell x_{alpha_row} <-
# x_{alpha_col} of e_1, f_1 or sigma_1, and every check of every suite that
# then fails.  sigma_1 is corrupted before e, f and sigma^-1 are built from it.
FAMILY_CONTROLS = [
    ("e", 1, 3, {"essential": [
        "r1_eg_1", "inverse_1", "iji_gge_a_1_2", "iji_geg_a_1_2", "iji_geg_b_1_2",
        "iji_eeg_a_1_2", "iji_eeg_b_1_2", "iji_gge_a_2_1", "iji_geg_a_2_1", "iji_geg_b_2_1",
        "iji_eeg_a_2_1", "iji_eeg_b_2_1", "ee_zero_1_3", "commute_eg_1_3", "commute_ee_1_3"]}),
    ("e", 1, 1, {"essential": [
        "r1_eg_1", "esq_1", "inverse_1", "r2_1_2", "iji_gge_a_1_2", "iji_geg_a_1_2",
        "iji_geg_b_1_2", "iji_eeg_a_1_2", "iji_eeg_b_1_2", "iji_gge_a_2_1", "iji_geg_a_2_1",
        "iji_geg_b_2_1", "iji_eeg_a_2_1", "iji_eeg_b_2_1"],
        "zaction": ["zaction_1"]}),
    ("f", 1, 1, {"essential": ["cubic_1"], "eiproj": ["eiproj_1"]}),
    ("sigma", 3, 3, {
        "braid": ["braid_1_2", "commute_1_3"],
        "essential": [
            "r1_ge_1", "r1_eg_1", "esq_1", "cubic_1", "inverse_1", "r2_1_2", "wenzl_cross_1_2",
            "iji_gge_a_1_2", "iji_geg_a_1_2", "iji_geg_b_1_2", "iji_eeg_a_1_2", "iji_eeg_b_1_2",
            "iji_eje_1_2", "iji_gge_a_2_1", "iji_gge_b_2_1", "iji_geg_a_2_1", "iji_geg_b_2_1",
            "iji_eeg_a_2_1", "iji_eeg_b_2_1", "iji_gee_a_2_1", "iji_gee_b_2_1", "ee_zero_1_3",
            "commute_eg_1_3", "commute_ee_1_3"],
        "eiproj": ["eiproj_1"],
        "zaction": ["zaction_1", "zaction_2", "zaction_3"]}),
]


@pytest.mark.parametrize("kind, row, col, expect", FAMILY_CONTROLS,
                         ids=[f"{k}1-{r}-{c}" for k, r, c, _ in FAMILY_CONTROLS])
def test_check_families_catch_a_corrupted_cell_on_a3(kind, row, col, expect):
    rep = LawrenceKrammer(build_type("A3"))
    rs = rep.rs
    mat = {"e": rep.e_matrix, "f": lambda i: rep.e_and_f(i)[1], "sigma": rep.sigma}[kind](1)
    _corrupt_cell(mat, rep, rs.root_index[rs.alpha(row)], rs.root_index[rs.alpha(col)])
    bad = {suite: [c.name for c in fn(rep) if not c.ok] for suite, fn in _SUITE_FNS.items()}
    assert {suite: names for suite, names in bad.items() if names} == expect


E6_POINT = (Fraction(5, 7), Fraction(3, 2))


def _at_e6_point(rs):
    return CharacterSpecialization(rs, *E6_POINT)


# negative controls for the T table on generic A4 and D4, and on E6 at E6_POINT
# (the ring the E types are checked over): +1 on one T memo entry of the ring
# made by the factory, after a first table1 run, and every table-1 check that
# fails, in suite order, with its witness
T_MEMO_CONTROLS = [
    ("A4", LawrenceKrammer, (2, (1, 1, 1, 1)), [
        ("t_row4_commuting", "i=2 j=4 beta=(1, 1, 1, 1)"),
        ("t_row5_adjacent0", "i=2 j=1 beta=(1, 1, 1, 1)"),
        ("t_both_orthogonal", "i=2 j=3 beta=(1, 1, 1, 1)"),
        ("t_choice_commuting_step", "i=2 j=4 beta=(1, 1, 1, 1)"),
        ("t_choice_adjacent_step", "i=2 j=1 beta=(1, 1, 1, 1)"),
    ]),
    # every node with pairing one is adjacent to the branch node: no commuting step
    ("D4", LawrenceKrammer, (2, (0, 1, 1, 1)), [
        ("t_row5_adjacent0", "i=2 j=3 beta=(0, 1, 1, 1)"),
        ("t_row6_adjacent-1", "i=2 j=1 beta=(1, 1, 1, 1)"),
        ("t_choice_adjacent_step", "i=2 j=3 beta=(0, 1, 1, 1)"),
    ]),
    # (alpha_2, beta) = 1: the closed-form entry that row 7 reads
    ("A4", LawrenceKrammer, (2, (0, 1, 1, 1)), [
        ("t_row4_commuting", "i=2 j=4 beta=(0, 1, 1, 1)"),
        ("t_row5_adjacent0", "i=2 j=1 beta=(1, 1, 1, 1)"),
        ("t_row7_pairing1", "i=2 j=3 beta=(0, 1, 1, 1)"),
        ("t_choice_adjacent_step", "i=2 j=1 beta=(1, 1, 1, 1)"),
    ]),
    # rows 1-3, the explicit values: zero off the support, 1 at alpha_i, m at height two
    ("A4", LawrenceKrammer, (2, (1, 0, 0, 0)), [
        ("t_row1_zero", "i=2 beta=alpha_1"),
        ("t_row6_adjacent-1", "i=3 j=2 beta=(1, 1, 0, 0)"),
    ]),
    ("A4", LawrenceKrammer, (1, (1, 0, 0, 0)), [
        ("t_row2_unit", "i=1"),
    ]),
    ("A4", LawrenceKrammer, (1, (1, 1, 0, 0)), [
        ("t_row3_m", "i=1 j=2"),
        ("t_row4_commuting", "i=1 j=3 beta=(1, 1, 1, 0)"),
    ]),
    # E6 has instances of every row: rows 4-6, t_both_orthogonal and both steps
    ("E6", _at_e6_point, (4, (0, 0, 1, 1, 1, 1)), [
        ("t_row4_commuting", "i=4 j=6 beta=(0, 0, 1, 1, 1, 1)"),
        ("t_row5_adjacent0", "i=4 j=3 beta=(0, 0, 1, 1, 1, 1)"),
        ("t_row6_adjacent-1", "i=4 j=2 beta=(0, 1, 1, 1, 1, 1)"),
        ("t_both_orthogonal", "i=4 j=5 beta=(0, 0, 1, 1, 1, 1)"),
        ("t_choice_commuting_step", "i=4 j=6 beta=(0, 0, 1, 1, 1, 1)"),
        ("t_choice_adjacent_step", "i=4 j=3 beta=(0, 0, 1, 1, 1, 1)"),
    ]),
    # at height two: row 3 and the row 7 entry above it
    ("E6", _at_e6_point, (4, (0, 0, 1, 1, 0, 0)), [
        ("t_row3_m", "i=4 j=3"),
        ("t_row4_commuting", "i=4 j=1 beta=(1, 0, 1, 1, 0, 0)"),
        ("t_row5_adjacent0", "i=4 j=5 beta=(0, 0, 1, 1, 1, 0)"),
        ("t_row7_pairing1", "i=5 j=4 beta=(0, 0, 1, 1, 1, 0)"),
        ("t_choice_adjacent_step", "i=4 j=5 beta=(0, 0, 1, 1, 1, 0)"),
    ]),
]


@pytest.mark.parametrize("label, ring, key, failing", T_MEMO_CONTROLS, ids=[
    f"{label}{'' if ring is LawrenceKrammer else '-at-a-point'}-{key[0]}-{''.join(map(str, key[1]))}"
    for label, ring, key, _ in T_MEMO_CONTROLS])
def test_table1_catches_a_corrupted_t_memo_entry(label, ring, key, failing):
    rep = ring(build_type(label))
    _SUITE_FNS["table1"](rep)
    _t_memo(rep)[key] += rep.unit()
    bad = [(c.name, c.witness) for c in _SUITE_FNS["table1"](rep) if not c.ok]
    assert bad == failing


def test_t_lfree_catches_an_l_in_a_t_entry_on_a4():
    rep = LawrenceKrammer(build_type("A4"))
    _SUITE_FNS["table1"](rep)
    key = (1, (1, 1, 1, 0))
    _t_memo(rep)[key] *= Scalar.l(1)
    bad = [(c.name, c.witness) for c in _SUITE_FNS["table1"](rep) if not c.ok]
    assert bad == [
        ("t_row4_commuting", "i=1 j=3 beta=(1, 1, 1, 0)"),
        ("t_row7_pairing1", "i=1 j=2 beta=(1, 1, 1, 0)"),
        ("t_lfree", None),
    ]


def test_tau_commute_catches_a_corrupted_tau_cell_on_a3():
    rep = LawrenceKrammer(build_type("A3"))
    rs = rep.rs
    _corrupt_cell(rep.tau(1), rep, rs.root_index[rs.alpha(3)], rs.root_index[rs.alpha(2)])
    bad = [(c.name, c.witness) for c in _SUITE_FNS["tau_monoid"](rep) if not c.ok]
    assert bad == [
        ("tau_braid_1_2", "cell x_(0, 0, 1) <- x_(0, 1, 0): (-m)*z2 != None"),
        ("tau_commute_1_3", "cell x_(0, 0, 1) <- x_(0, 1, 0): (-m)*1 != None"),
    ]


def test_t_hnode_oracle_catches_a_wrong_h_node_on_d4(monkeypatch):
    # h_{beta,1} for beta = (1, 2, 1, 1) moved from node 1 to node 3: the
    # recursion and row 7 read the table, the oracle evaluates d_beta^-1 s_1 d_beta
    rs = build_type("D4")
    assert rs._h_table[(1, 2, 1, 1), 1] == 1
    monkeypatch.setitem(rs._h_table, ((1, 2, 1, 1), 1), 3)
    bad = [(c.name, c.witness) for c in _SUITE_FNS["table1"](LawrenceKrammer(rs)) if not c.ok]
    assert bad == [
        ("t_row7_pairing1", "i=2 j=1 beta=(1, 2, 1, 1)"),
        ("t_hnode_oracle", "i=1 beta=(1, 2, 1, 1)"),
    ]


# the catalogue walk on generic A3 and D4: every check name of --suite all
# fails under at least one corruption of a fixed catalogue, each +1 on one cell
# x_{alpha_i} <- x_{alpha_j} of sigma_i, e_i, f_i or tau_i (before anything is
# built from it), or on one T memo entry after a first table1 run.  The names
# that no corruption fails on either type, each with its reason:
UNCATALOGUED = {
    "t_both_orthogonal": "no instance on A3 or D4; T_MEMO_CONTROLS fails it on A4",
    "t_choice_commuting_step": "no instance on A3 or D4; T_MEMO_CONTROLS fails it on A4",
    "t_hnode_oracle": "reads the cached build_lk, which no corruption of the representation "
                      "under test reaches; its control moves an h node on D4",
    "t_lfree": "+1 puts no l into a T entry; its control multiplies one by l on A4",
}
# On specialized E6 at (5/7, 3/2) the catalogue is the cells of sigma_i and
# tau_i, then the T memo entries, and every name fails; the walk stops there.


@pytest.mark.parametrize("label, point, uncatalogued, budget", [
    ("A3", None, set(UNCATALOGUED), 10.0),
    ("D4", None, set(UNCATALOGUED), 10.0),
    ("E6", E6_POINT, set(), 20.0),
], ids=["A3", "D4", "E6-at-a-point"])
def test_catalogue_walk_fails_every_check_name(label, point, uncatalogued, budget):
    start = time.perf_counter()
    rs = build_type(label)
    names = {c.name for c in run_suite("all", label, point).checks}
    if point is None:
        make = lambda: LawrenceKrammer(rs)
        matrices = (LawrenceKrammer.sigma, LawrenceKrammer.e_matrix,
                    lambda rep, i: rep.e_and_f(i)[1], LawrenceKrammer.tau)
    else:
        make = lambda: CharacterSpecialization(rs, *point)
        matrices = (CharacterSpecialization.sigma, CharacterSpecialization.tau)

    def corrupted():
        for get in matrices:
            for i in rs.nodes:
                for j in rs.nodes:
                    rep = make()
                    _corrupt_cell(get(rep, i), rep, rs.root_index[rs.alpha(i)],
                                  rs.root_index[rs.alpha(j)])
                    yield rep
        first = make()
        _SUITE_FNS["table1"](first)
        for key in _t_memo(first):
            rep = make()
            _SUITE_FNS["table1"](rep)
            _t_memo(rep)[key] += rep.unit()
            yield rep

    failed = set()
    for rep in corrupted():
        failed |= {c.name for fn in _SUITE_FNS.values() for c in fn(rep) if not c.ok}
        if failed >= names:
            break
    assert names - failed == uncatalogued
    assert time.perf_counter() - start <= budget


@pytest.mark.parametrize("label", ["A3", "D4", "A4"])
def test_table1_row3_reads_the_closed_form(monkeypatch, label):
    # one more factor m on every closed-form value: row 3 (T = m at height
    # two) is the one row that compares it with a value stated outside the recursion
    closed_form_eval = lkrep._closed_form_eval
    monkeypatch.setattr(lkrep, "_closed_form_eval", lambda *args: {
        (w, e, k + 1): c for (w, e, k), c in closed_form_eval(*args).items()})
    bad = [(c.name, c.witness) for c in _suite_table1(LawrenceKrammer(build_type(label))) if not c.ok]
    assert bad == [("t_row3_m", "i=1 j=2")]
