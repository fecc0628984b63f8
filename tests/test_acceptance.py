"""Acceptance criteria, one test per criterion.

Each test prints a single ``criterion N: PASS`` line with its wall time
(visible under ``pytest -s``) and enforces the stated time budget.  All
comparisons are exact; there are no tolerances anywhere.
"""

import random
import time
from math import factorial

from bmwade.lkrep import build_lk
from bmwade.rootsys import build_type, parabolic_order
from bmwade.scalar import Scalar
from bmwade.verify import (
    DEFAULT_L0,
    DEFAULT_R0,
    a2_dimension_check,
    dims_report,
    run_suite,
    seeded_points,
)
from bmwade.wordalg import reduce_word, rep_image, rep_image_word


class _Stopwatch:
    def __init__(self, number, budget):
        self.number = number
        self.budget = budget
        self.start = time.monotonic()

    def done(self):
        elapsed = time.monotonic() - self.start
        print(f"criterion {self.number}: PASS ({elapsed:.2f}s)", flush=True)
        assert elapsed < self.budget, f"criterion {self.number} exceeded {self.budget}s"


def test_criterion_1_root_census():
    sw = _Stopwatch(1, 1.0)
    expected = {
        "A2": (3, (), 1),
        "A3": (6, (2,), 2),
        "A4": (10, (2, 3), 6),
        "A5": (15, (2, 3, 4), 24),
        "D4": (12, (1, 3, 4), 8),
        "D5": (20, (1, 3, 4, 5), 48),
        "E6": (36, (1, 3, 4, 5, 6), 720),
        "E7": (63, (2, 3, 4, 5, 6, 7), 23040),
        "E8": (120, (1, 2, 3, 4, 5, 6, 7), 2903040),
    }
    for label, (phi, c_nodes, wc) in expected.items():
        rs = build_type(label)
        assert len(rs.positive_roots) == phi, label
        assert rs.c_nodes == c_nodes, label
        assert parabolic_order(rs, rs.c_nodes) == wc, label
    for n in range(2, 6):
        assert parabolic_order(build_type(f"A{n}"), build_type(f"A{n}").c_nodes) \
            == factorial(n - 1)
    sw.done()


def test_criterion_2_dimension_formulas():
    sw = _Stopwatch(2, 1.0)
    middle = {"A2": 9, "A3": 72, "D4": 1152, "E6": 933120,
              "E7": 91445760, "E8": 41803776000}
    for label, dim in middle.items():
        rep = dims_report(label)
        assert rep["i1_mod_i2_dim"] == dim == rep["phi_plus"] ** 2 * rep["w_c_order"], label
    for n in range(1, 9):
        total = dims_report(f"A{n}")["total_dim"]
        expect = 1
        for k in range(2 * n + 1, 1, -2):
            expect *= k
        assert total == expect, f"A{n}"
    d4 = dims_report("D4")
    assert [layer["dim"] for layer in d4["layers"]] == [192, 1152, 216, 9]
    assert d4["total_dim"] == 1569
    sw.done()


def test_criterion_3_generic_relation_suites():
    sw = _Stopwatch(3, 30.0)
    for label in ("A2", "A3", "A4", "A5", "A8", "D4", "D5", "D6", "E6"):
        report = run_suite("all", label)
        bad = [c for c in report.checks if not c.ok]
        assert not bad, (label, bad)
    sw.done()


def test_criterion_4_specialized_suites_e_types():
    sw = _Stopwatch(4, 10.0)
    points = [(DEFAULT_L0, DEFAULT_R0)] + seeded_points()
    for label in ("E6", "E7", "E8"):
        for l0, r0 in points:
            report = run_suite("all", label, (l0, r0))
            bad = [c for c in report.checks if not c.ok]
            assert not bad, (label, l0, r0, bad)
    sw.done()


def test_criterion_5_table1_validation():
    sw = _Stopwatch(5, 10.0)
    for label in ("A4", "D4", "D5"):
        report = run_suite("table1", label)
        bad = [c for c in report.checks if not c.ok]
        assert not bad, (label, bad)
    for label in ("D4", "D5"):
        report = run_suite("table1", label)
        names = {c.name for c in report.checks}
        assert {"t_choice_commuting_step", "t_choice_adjacent_step"} <= names
    sw.done()


def test_criterion_6_oracle_agreement():
    sw = _Stopwatch(6, 10.0)
    for label in ("A3", "A4", "D4"):
        lk = build_lk(label)
        rs = lk.rs
        for beta in rs.positive_roots:
            for i in rs.nodes:
                if rs.pairing_simple(i, beta) == 0:
                    assert lk.h_oracle(beta, i) == lk.h_elem(beta, i), (label, i, beta)
    # the closed form of the pairing-one step agrees with the recursion rows
    # wherever both apply: rows four and seven can recompute a pairing-one
    # value directly, and the exhaustive row validation covers the rows whose
    # right-hand sides consume closed-form values
    m = Scalar.m()
    for label in ("A4", "D4"):
        lk = build_lk(label)
        rs = lk.rs
        unit = lk.unit()
        for beta in rs.positive_roots:
            if rs.height(beta) < 3:
                continue
            for i in rs.nodes:
                if rs.pairing_simple(i, beta) != 1:
                    continue
                closed = lk.t_coeff(i, beta)  # computed by the closed form
                for j in rs.nodes:
                    if j == i:
                        continue
                    if j not in rs.neighbors[i] and rs.pairing_simple(j, beta) == 1:
                        hinv = lk.z(lk.rs.h_node(rs.alpha(i), j)) + unit.scale(m)
                        assert closed == hinv * lk.t_coeff(i, rs.sub_simple(beta, j)), \
                            (label, i, j, beta)
                    if j in rs.neighbors[i] and rs.pairing_simple(j, beta) == 0:
                        hinv = lk.z(lk.rs.h_node(beta, j)) + unit.scale(m)
                        assert closed == lk.t_coeff(j, rs.sub_simple(beta, i)) * hinv, \
                            (label, i, j, beta)
        report = run_suite("table1", label)
        assert report.passed, label
    sw.done()


def test_criterion_7_a2_dimension_reproduction():
    sw = _Stopwatch(7, 10.0)
    report = a2_dimension_check()
    bad = [c for c in report.checks if not c.ok]
    assert not bad, bad
    sw.done()


def test_criterion_8_rewrite_soundness():
    sw = _Stopwatch(8, 5.0)
    for label in ("A3", "D4"):
        rs = build_type(label)
        lk = build_lk(label)
        rng = random.Random(20260810)
        letters = [(i, k) for i in rs.nodes for k in "gGe"]
        bound = len(rs.positive_roots)
        for _ in range(200):
            word = tuple(rng.choice(letters) for _ in range(rng.randint(1, 12)))
            comb = reduce_word(rs, word)
            assert all(len(w) <= bound for w in comb), (label, word)
            lhs = rep_image_word(lk, word)
            rhs = rep_image(lk, comb)
            assert lhs == rhs, (label, word)
    sw.done()


def test_criterion_9_structural_properties():
    sw = _Stopwatch(9, 10.0)
    for label in ("A2", "A3", "A4", "A5", "D4", "D5"):
        lk = build_lk(label)
        rs = lk.rs
        # tau alone is a monoid morphism
        report = run_suite("tau_monoid", label)
        assert report.passed, label
        # sigma of a geodesic word carries x_{alpha_i} to x_{alpha_k}
        for i in rs.nodes:
            a = rs.root_index[rs.alpha(i)]
            for k in rs.nodes:
                col = lk.word_apply(rs.geodesic_word(i, k), lk.matrix(lk.size, {a: {a: lk.unit()}}))
                expect = lk.matrix(lk.size, {a: {rs.root_index[rs.alpha(k)]: lk.unit()}})
                assert col == expect, (label, i, k)
        # every T coefficient is l-free, and f lives in the alpha_i row
        for i in rs.nodes:
            ai = rs.root_index[rs.alpha(i)]
            for beta in rs.positive_roots:
                assert lk.t_coeff(i, beta).is_l_free(), (label, i, beta)
            f = lk.e_and_f(i)[1]
            assert all(set(col) <= {ai} for col in f.cols.values()), (label, i)
    sw.done()


def test_criterion_10_generic_e7_braid():
    sw = _Stopwatch(10, 30.0)
    build_lk.cache_clear()  # time the sigma build as well as the products
    report = run_suite("braid", "E7")
    assert report.checks and report.passed, [c for c in report.checks if not c.ok]
    sw.done()
