from fractions import Fraction
from math import factorial

import pytest

from bmwade.lkrep import (
    CharacterSpecialization,
    LawrenceKrammer,
    RationalMatrix,
    SparseMatrix,
    build_lk,
)
from bmwade.rootsys import build_type
from bmwade.verify import (
    _SUITE_FNS,
    UnsupportedModeError,
    _mat_witness,
    _suite_zaction,
    a2_dimension_check,
    dims_report,
    rational_rank,
    run_suite,
    seeded_points,
)


def test_all_suites_a2_generic():
    report = run_suite("all", "A2")
    assert report.passed
    names = [c.name for c in report.checks]
    assert names == sorted(names)


def test_essential_d4_contains_nonadjacent_annihilation():
    report = run_suite("essential", "D4")
    assert report.passed
    assert any(c.name == "ee_zero_1_3" for c in report.checks)


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
    rows = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)], [Fraction(0), Fraction(1)]]
    assert rational_rank(rows) == 2
    assert rational_rank([[Fraction(0)]]) == 0


def test_a2_dimension_check():
    rep = a2_dimension_check()
    assert rep.passed
    assert {c.name for c in rep.checks} == {"rank_15", "g1e2g1_independent", "closure"}


def test_run_suite_owns_the_a2dim_rules():
    assert run_suite("a2dim", "A2").to_json_dict() == a2_dimension_check().to_json_dict()
    with pytest.raises(UnsupportedModeError, match="^the a2dim suite runs on type A2 only$"):
        run_suite("a2dim", "A3")
    with pytest.raises(UnsupportedModeError, match="^the a2dim suite has no specialized mode$"):
        run_suite("a2dim", "A2", (Fraction(5, 7), Fraction(3, 2)))


def test_sparse_matrix_witness_none_for_equal_zero():
    assert _mat_witness(SparseMatrix(3), SparseMatrix(3), build_lk("A2").rs) is None


def test_zaction_catches_a_corrupted_sigma_cell_on_e6():
    rep = CharacterSpecialization(build_type("E6"), Fraction(5, 7), Fraction(3, 2))
    rs = rep.rs
    beta = next(b for b in rs.positive_roots if rs.pairing_simple(1, b) == 0)
    b_idx = rs.root_index[beta]
    s1 = rep.sigma(1)
    # +1 to the cell: its stored integer is over s1.den
    s1.cols[b_idx][b_idx] = s1.cols[b_idx].get(b_idx, 0) + s1.den
    assert s1.cols[b_idx][b_idx]
    rep._ef.clear()
    checks = _suite_zaction(rep)
    assert [c.name for c in checks] == [f"zaction_{i}" for i in rs.nodes]
    assert all(not c.ok and c.witness == "j=1 k=6" for c in checks)


def _corrupt_cell(mat, rep, row, col):
    """Add exactly 1 to one cell; a RationalMatrix stores it as den over den."""
    one = mat.den if isinstance(mat, RationalMatrix) else rep.unit()
    cell = mat.cols.setdefault(col, {})
    cell[row] = cell[row] + one if row in cell else one


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
    ("commute_eg_1_3", "cell x_(1, 0, 0) <- x_(0, 1, 0): (-m)*1 + (1)*z2 != (2)*z2"),
    ("wenzl_cross_2_1", "cell x_(0, 1, 0) <- x_(0, 0, 1): (l^-1 + -m)*1 != (l^-1)*1"),
    ("iji_gge_a_2_1", "cell x_(0, 1, 0) <- x_(0, 1, 0): (2)*1 != (1)*1"),
    ("iji_geg_a_2_1", "cell x_(0, 1, 0) <- x_(0, 0, 1): (-m)*z2 != (m^2)*1 + (-m)*z2"),
    ("iji_geg_b_2_1", "cell x_(1, 1, 0) <- x_(0, 1, 0): (l)*1 != (l^-1 + m + l)*1"),
    ("iji_eeg_a_2_1", "cell x_(1, 0, 0) <- x_(0, 0, 1): (2)*z2 != (-m)*1 + (1)*z2"),
    ("iji_eeg_b_2_1", "cell x_(1, 0, 0) <- x_(0, 0, 1): (2)*z2 != (-m)*1 + (1)*z2"),
    ("iji_eje_2_1", "cell x_(0, 1, 0) <- x_(0, 0, 1): (2)*1 != (1)*1"),
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
    ("commute_eg_1_3", "cell x_(1, 0, 0) <- x_(0, 1, 0): Fraction(-1, 6) != Fraction(4, 3)"),
    ("wenzl_cross_2_1", "cell x_(0, 1, 0) <- x_(0, 0, 1): Fraction(17, 30) != Fraction(7, 5)"),
    ("iji_gge_a_2_1", "cell x_(0, 1, 0) <- x_(0, 1, 0): Fraction(2, 1) != Fraction(1, 1)"),
    ("iji_geg_a_2_1", "cell x_(0, 1, 0) <- x_(0, 0, 1): Fraction(-5, 9) != Fraction(5, 36)"),
    ("iji_geg_b_2_1",
     "cell x_(1, 1, 0) <- x_(0, 1, 0): Fraction(5, 7) != Fraction(619, 210)"),
    ("iji_eeg_a_2_1", "cell x_(1, 0, 0) <- x_(0, 0, 1): Fraction(4, 3) != Fraction(-1, 6)"),
    ("iji_eeg_b_2_1", "cell x_(1, 0, 0) <- x_(0, 0, 1): Fraction(4, 3) != Fraction(-1, 6)"),
    ("iji_eje_2_1", "cell x_(0, 1, 0) <- x_(0, 0, 1): Fraction(2, 1) != Fraction(1, 1)"),
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
    rep._t_memo[key] = rep._t_memo[key] + rep.unit()
    checks = {c.name: c for c in _SUITE_FNS["table1"](rep)}
    assert not checks["t_row6_adjacent-1"].ok


def test_eiproj_catches_a_corrupted_t_coeff_on_a3():
    rep = LawrenceKrammer(build_type("A3"))
    rs = rep.rs
    rep.e_and_f(1)  # sigma_1 and f_1 are cached before the corruption
    key = (1, (1, 1, 0))
    rep._t_memo[key] = rep._t_memo[key] + rep.unit()
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


# negative controls for the T table on generic A4 and D4: one corrupted T memo
# entry after a first table1 run, and every table-1 check that fails, in suite
# order, with its witness
T_MEMO_CONTROLS = [
    ("A4", (2, (1, 1, 1, 1)), [
        ("t_row4_commuting", "i=2 j=4 beta=(1, 1, 1, 1)"),
        ("t_row5_adjacent0", "i=2 j=1 beta=(1, 1, 1, 1)"),
        ("t_both_orthogonal", "i=2 j=3 beta=(1, 1, 1, 1)"),
        ("t_choice_commuting_step", "i=2 j=4 beta=(1, 1, 1, 1)"),
        ("t_choice_adjacent_step", "i=2 j=1 beta=(1, 1, 1, 1)"),
    ]),
    # every node with pairing one is adjacent to the branch node: no commuting step
    ("D4", (2, (0, 1, 1, 1)), [
        ("t_row5_adjacent0", "i=2 j=3 beta=(0, 1, 1, 1)"),
        ("t_row6_adjacent-1", "i=2 j=1 beta=(1, 1, 1, 1)"),
        ("t_choice_adjacent_step", "i=2 j=3 beta=(0, 1, 1, 1)"),
    ]),
    # (alpha_2, beta) = 1: the closed-form entry that row 7 reads
    ("A4", (2, (0, 1, 1, 1)), [
        ("t_row4_commuting", "i=2 j=4 beta=(0, 1, 1, 1)"),
        ("t_row5_adjacent0", "i=2 j=1 beta=(1, 1, 1, 1)"),
        ("t_row7_pairing1", "i=2 j=3 beta=(0, 1, 1, 1)"),
        ("t_choice_adjacent_step", "i=2 j=1 beta=(1, 1, 1, 1)"),
    ]),
]


@pytest.mark.parametrize("label, key, failing", T_MEMO_CONTROLS,
                         ids=[f"{label}-{key[0]}-{''.join(map(str, key[1]))}"
                              for label, key, _ in T_MEMO_CONTROLS])
def test_table1_catches_a_corrupted_t_memo_entry(label, key, failing):
    rep = LawrenceKrammer(build_type(label))
    _SUITE_FNS["table1"](rep)
    rep._t_memo[key] = rep._t_memo[key] + rep.unit()
    bad = [(c.name, c.witness) for c in _SUITE_FNS["table1"](rep) if not c.ok]
    assert bad == failing
