import random
from fractions import Fraction

import pytest

from bmwade import wordalg
from bmwade.lkrep import (
    CharacterSpecialization,
    LawrenceKrammer,
    RationalMatrix,
    SparseMatrix,
    UnsupportedModeError,
    build_lk,
)
from bmwade.rootsys import build_type
from bmwade.scalar import Scalar, ScalarDomainError

M = Scalar.m()
L = Scalar.l(1)
LINV = Scalar.l(-1)


def _xs():
    """x as the representation derives it and as the rewrite rule e e = x e reads it."""
    return [LawrenceKrammer(build_type("A2")).x, wordalg._X]


def test_x_formula():
    for x in _xs():
        assert x._terms == {(0, 0): 1, (1, -1): -1, (-1, -1): 1}
        assert M * (Scalar.one() - x) == L - LINV


def test_x_evaluations():
    # independent route: plain Fraction arithmetic
    l0, m0 = Fraction(5, 7), Fraction(3, 2)
    expect = 1 - (l0 - 1 / l0) / m0
    assert expect == Fraction(51, 35)
    for x in _xs():
        assert x.eval_at(1, 1) == 1
        assert x.eval_at(l0, m0) == expect


def test_h_examples():
    lk = build_lk("D4")
    rs = lk.rs
    for i in rs.c_nodes:
        assert lk.rs.h_node(rs.highest_root, i) == i
    with pytest.raises(ValueError):
        lk.rs.h_node(rs.alpha(1), 2)  # pairing is -1, not 0


def test_h_invariance_under_orthogonal_step():
    lk = build_lk("D4")
    rs = lk.rs
    for beta in rs.positive_roots:
        for i in rs.nodes:
            if rs.pairing_simple(i, beta) != 0:
                continue
            for j in rs.nodes:
                if j in rs.neighbors[i] or j == i:
                    continue
                if rs.pairing_simple(j, beta) == -1:
                    assert lk.rs.h_node(rs.add_simple(beta, j), i) == lk.rs.h_node(beta, i)


@pytest.mark.parametrize("label", ["A3", "A4", "D4", "D5", "E6"])
def test_h_matches_full_type_oracle(label):
    lk = build_lk(label)
    rs = lk.rs
    for beta in rs.positive_roots:
        for i in rs.nodes:
            if rs.pairing_simple(i, beta) == 0:
                assert lk.h_oracle(beta, i) == lk.h_elem(beta, i)


def test_t_coeff_base_values():
    lk = build_lk("A3")
    rs = lk.rs
    assert lk.t_coeff(1, rs.alpha(1)) == lk.unit()
    assert lk.t_coeff(2, rs.alpha(1)) == lk.zero()
    assert lk.t_coeff(1, (1, 1, 0)) == lk.unit().scale(M)
    assert lk.t_coeff(3, rs.alpha(1)) == lk.zero()


def test_t_coeff_a3_highest_root_satisfies_rows():
    lk = build_lk("A3")
    rs = lk.rs
    beta = (1, 1, 1)
    # (alpha_1, beta) = 1 and node 3 commutes with 1: row 4 must hold
    lhs = lk.t_coeff(1, beta)
    hinv = lk.z(lk.rs.h_node(rs.alpha(1), 3)) + lk.unit().scale(M)
    assert lhs == hinv * lk.t_coeff(1, (1, 1, 0))
    assert lhs.is_l_free()


def test_sigma_columns():
    lk = build_lk("A2")
    rs = lk.rs
    s1 = lk.sigma(1)
    ai = rs.root_index[rs.alpha(1)]
    # column alpha_1 is l^-1 at the alpha_1 row
    assert s1.column(ai) == {ai: lk.unit().scale(LINV)}
    # column alpha_2 has pairing -1: rows alpha_1+alpha_2 and alpha_2
    a2 = rs.root_index[rs.alpha(2)]
    hi = rs.root_index[(1, 1)]
    col = s1.column(a2)
    assert col[hi] == lk.unit()
    assert col[a2] == lk.unit().scale(-M)
    assert a2 != ai and ai not in col  # T_{1,alpha_2} = 0


@pytest.mark.parametrize("label", ["A3", "D4"])
def test_sigma_word_moves_basis_vectors(label):
    lk = build_lk(label)
    rs = lk.rs
    for i in rs.nodes:
        a = rs.root_index[rs.alpha(i)]
        for k in rs.nodes:
            col = lk.word_apply(rs.geodesic_word(i, k), lk.matrix(lk.size, {a: {a: lk.unit()}}))
            assert col == lk.matrix(lk.size, {a: {rs.root_index[rs.alpha(k)]: lk.unit()}})


def test_f_matrix_values_on_d4():
    lk = build_lk("D4")
    rs = lk.rs
    x = lk.x
    for i in rs.nodes:
        e, f = lk.e_and_f(i)
        ai = rs.root_index[rs.alpha(i)]
        # image confined to the alpha_i row
        assert all(set(col) <= {ai} for col in f.cols.values())
        expect = lk.unit().scale(LINV * LINV + M * LINV - Scalar.one())
        assert f.column(ai) == {ai: expect}
        assert e * e == e.scale(x)
        # f = m l^-1 e
        assert f == e.scale(M * LINV)


def _character(lk, r=None):
    """The character ring with l symbolic and r symbolic, or r = r0."""
    return CharacterSpecialization(
        lk.rs, L, Scalar.m() if r is None else Scalar.from_fraction(r))


def test_gamma_theta_dimensions():
    for label, size in (("A3", 6), ("A2", 3)):
        rep = _character(build_lk(label))
        gammas = [rep.sigma(i) for i in rep.rs.nodes]
        assert len(gammas) == len(rep.rs.nodes) and all(g.size == size for g in gammas)


def test_gamma_specialize_commutes_on_d4():
    lk = build_lk("D4")
    r0, l0 = Fraction(3, 2), Fraction(7, 5)
    sym, num = _character(lk), _character(lk, r0)
    for i in lk.rs.nodes:
        ms, mn = sym.sigma(i), num.sigma(i)
        for c in range(ms.size):
            for r in range(ms.size):
                es, en = ms.entry(r, c), mn.entry(r, c)
                vs = Fraction(0) if es is None else es.eval_at(l0, r0)
                vn = Fraction(0) if en is None else en.eval_at(l0, r0)
                assert vs == vn


def _at_character(helem, l0, r0):
    """A Hecke element under z -> 1/r0 at (l0, r0).

    A Hecke basis element T_w goes to (1/r0)^len(w); its Scalar coefficient
    is evaluated at l = l0, m = r0 - 1/r0.
    """
    m0, c0 = r0 - 1 / r0, 1 / r0
    return sum((coeff.eval_at(l0, m0) * c0 ** len(helem.rs.reduced_word(w))
                for w, coeff in helem.coeffs().items()), Fraction(0))


def _specialize(lk, mat, l0, r0):
    """Reference route: evaluate each generic entry under z -> 1/r0 at (l0, r0)."""
    return mat.map_entries(lambda helem: _at_character(helem, l0, r0))


# A4 and D5 have a non-commutative H_C
@pytest.mark.parametrize("label", ["A3", "D4", "A4", "D5"])
def test_character_route_equals_specialized_generic(label):
    lk = build_lk(label)
    l0, r0 = Fraction(5, 7), Fraction(3, 2)
    spec = CharacterSpecialization(lk.rs, l0, r0)
    sym = _character(lk)
    for i in lk.rs.nodes:
        for name in ("sigma", "e_matrix", "tau", "sigma_inv"):
            generic = getattr(lk, name)(i)
            reference = _specialize(lk, generic, l0, r0)
            assert getattr(spec, name)(i) == RationalMatrix(lk.size, reference.cols), (name, i)
            if name not in ("sigma", "tau"):
                continue
            for point in ((l0, r0), (Fraction(7, 5), Fraction(-2, 5))):
                at_point = getattr(sym, name)(i).map_entries(lambda s: s.eval_at(*point))
                assert at_point == _specialize(lk, generic, *point), (name, i, point)
    # with r symbolic, m = r - 1/r is not a unit of the Laurent ring in l and r
    with pytest.raises(ScalarDomainError):
        sym.x
    with pytest.raises(ScalarDomainError):
        sym.e_matrix(1)


CLOSED_FORM_TYPES = ([f"A{n}" for n in range(2, 13)] + [f"D{n}" for n in range(4, 13)]
                     + ["E6", "E7", "E8"])


def _closed_form_pairs(rs):
    """Every (i, beta) that the recursion hands to the closed form."""
    return [(i, beta) for beta in rs.positive_roots for i in rs.nodes
            if rs.pairing_simple(i, beta) == 1 and beta != rs.alpha(i)]


@pytest.mark.parametrize("label", CLOSED_FORM_TYPES)
def test_character_closed_form_counts_the_word_letters(label):
    # d_{alpha_i}^-1 s_beta^-1 s_i s_beta d_beta: 1/r per positive letter, 1/r + m = r per inverse one
    rs = build_type(label)
    spec = CharacterSpecialization(rs, Fraction(5, 7), Fraction(3, 2))
    ht_theta = rs.height(rs.highest_root)
    for i, beta in _closed_form_pairs(rs):
        s_len, ht = len(rs.s_beta_word(beta)), rs.height(beta)
        pos = 1 + s_len + len(rs.d_beta_word(beta))
        inv = s_len + len(rs.d_beta_word(rs.alpha(i)))
        # so inv - pos = ht beta - 2, whatever i is
        assert (pos, inv) == (ht_theta + ht, 2 * ht + ht_theta - 2), (i, beta)
        assert spec.t_closed_form(i, beta) == spec.m * spec.c0 ** pos * spec.r ** inv


def test_e8_t_table_to_height_10_projects_and_meets_the_character():
    # build_lk refuses E8, so the generic T are built on its root system directly;
    # with 240 root indices, E8 is the type closest to the bytes reach of rootsys
    rs = build_type("E8")
    lk = LawrenceKrammer(rs)
    l0, r0 = Fraction(5, 7), Fraction(3, 2)
    spec = CharacterSpecialization(rs, l0, r0)
    pairs = nonzero = 0
    for beta in rs.positive_roots:
        if rs.height(beta) > 10:
            continue
        for i in rs.nodes:
            t = lk.t_coeff(i, beta)
            assert t.project_subalgebra(lk.c_set) is t
            assert _at_character(t, l0, r0) == spec.t_char(i, beta), (i, beta)
            pairs, nonzero = pairs + 1, nonzero + bool(t)
    assert (pairs, nonzero) == (544, 312)


def test_generic_closed_form_is_m_at_height_two():
    # the recursion has no height-two branch: the closed form gives T = m there
    count = 0
    for label in ("A2", "A3", "A5", "A8", "D4", "D5", "D6", "D8", "E6", "E7"):
        lk = LawrenceKrammer(build_type(label))
        for i, beta in _closed_form_pairs(lk.rs):
            if lk.rs.height(beta) == 2:
                assert lk.t_closed_form(i, beta) == lk.unit() * M, (label, i, beta)
                count += 1
    assert count == 88


def test_character_rejects_degenerate_points():
    lk = build_lk("A2")
    # the ring owns its point: a refusal the CLI maps to exit 2
    with pytest.raises(UnsupportedModeError, match="l must be nonzero"):
        CharacterSpecialization(lk.rs, 0, Fraction(3, 2))
    with pytest.raises(UnsupportedModeError, match="r must be nonzero"):
        CharacterSpecialization(lk.rs, Fraction(5, 7), 0)
    with pytest.raises(UnsupportedModeError, match="r must be nonzero"):
        _character(lk, 0)
    # r = 1 gives m = 0: sigma exists, only x and l/m do not (run_suite
    # rejects the point, see test_verify)
    at_one = CharacterSpecialization(lk.rs, Fraction(5, 7), 1)
    reference = _specialize(lk, lk.sigma(1), Fraction(5, 7), Fraction(1))
    assert at_one.sigma(1) == RationalMatrix(lk.size, reference.cols)
    with pytest.raises(ZeroDivisionError):
        at_one.x


def test_table_rows_spot_sampled_on_e6():
    # exhaustive row validation runs through D5; on E6 a height-bounded
    # sample of the same equations is checked against generic coefficients
    lk = build_lk("E6")
    rs = lk.rs
    unit = lk.unit()
    for beta in rs.positive_roots:
        if rs.height(beta) > 6:
            continue
        for i in rs.nodes:
            p = rs.pairing_simple(i, beta)
            for j in rs.nodes:
                if j == i or rs.pairing_simple(j, beta) != 1 or beta == rs.alpha(j):
                    continue
                gamma = rs.sub_simple(beta, j)
                if j not in rs.neighbors[i]:
                    hinv = lk.z(lk.rs.h_node(rs.alpha(i), j)) + unit.scale(M)
                    assert lk.t_coeff(i, beta) == hinv * lk.t_coeff(i, gamma)
                elif p == 0:
                    assert lk.t_coeff(i, beta) == \
                        lk.t_coeff(j, rs.sub_simple(gamma, i)) + lk.t_coeff(i, gamma).scale(M)
                elif p == -1:
                    assert lk.t_coeff(i, beta) == \
                        lk.t_coeff(j, gamma) * lk.z(lk.rs.h_node(gamma, i)) \
                        + lk.t_coeff(i, gamma).scale(M)


def test_sparse_matrix_algebra():
    one = Fraction(1)
    ident = SparseMatrix.identity(3, one)
    a = SparseMatrix(3, {0: {1: Fraction(2)}, 2: {0: Fraction(1)}})
    assert a * ident == a and ident * a == a
    assert not (a - a)
    assert a
    assert (a + a) == a.scale(Fraction(2))


def _random_columns(rng, size):
    """Sparse Fraction columns, zero entries and negative values included."""
    density = rng.choice((0.0, 0.25, 0.6, 1.0))
    return {c: {r: Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 4, 6, 9)))
                for r in range(size) if rng.random() < density}
            for c in range(size)}


def _cancelling_pair(size):
    """a * b = 0 entrywise by cancellation: a has equal rows, b opposite ones."""
    a = {0: {0: Fraction(3, 4), 1: Fraction(3, 4)}, 1: {0: Fraction(3, 4), 1: Fraction(3, 4)}}
    b = {c: {0: Fraction(c + 1, 5), 1: Fraction(-(c + 1), 5)} for c in range(size)}
    return a, b


def _assert_normal(mat):
    # the arithmetic leaves den unreduced: any positive int, over int entries
    assert type(mat) is RationalMatrix and type(mat.den) is int and mat.den > 0
    values = [v for col in mat.cols.values() for v in col.values()]
    assert all(mat.cols.values()) and all(type(v) is int and v for v in values)


def _combined_cells(size, terms):
    """Reference columns of the sum of mat * s over terms, one Fraction cell at a time."""
    cols = {}
    for c in range(size):
        for r in range(size):
            cell = sum((Fraction(mat.entry(r, c) or 0) * s for mat, s in terms), Fraction(0))
            if cell:
                cols.setdefault(c, {})[r] = cell
    return cols


def _assert_same_cells(rat, ref):
    for c in range(ref.size):
        assert rat.column(c) == ref.column(c), c
        for r in range(ref.size):
            assert rat.entry(r, c) == ref.entry(r, c), (r, c)


def test_rational_matrix_agrees_with_fraction_entries():
    rng = random.Random(20261019)
    cases = []
    for _ in range(40):
        size = rng.randint(1, 8)
        cases.append((size, _random_columns(rng, size), _random_columns(rng, size)))
    for size in (2, 5, 8):
        cases.append((size, *_cancelling_pair(size)))
        cases.append((size, {}, _random_columns(rng, size)))
    unreduced = unequal_den = 0
    for size, acols, bcols in cases:
        a, b = RationalMatrix(size, acols), RationalMatrix(size, bcols)
        fa, fb = SparseMatrix(size, acols), SparseMatrix(size, bcols)
        s = Fraction(rng.randint(-5, 5), rng.randint(1, 7))
        vec = _random_columns(rng, size)[0]
        results = [
            (a, fa), (a * b, fa * fb), (b * a, fb * fa), (a + b, fa + fb),
            (a - b, fa - fb), (a - a, fa - fa), (-a, -fa), (a.scale(s), fa.scale(s)),
            (a + b.scale(-1), fa - fb),
        ]
        if a:  # a sum that cancels a whole column
            c0 = next(iter(a.cols))
            minus = {c0: {r: -v for r, v in a.column(c0).items()}}
            results.append((a + RationalMatrix(size, minus), fa + SparseMatrix(size, minus)))
            assert c0 not in results[-1][0].cols
        results.append((a.scale(0), fa.scale(Fraction(0))))
        assert not results[-1][0]
        # one to seven terms, with +-1, rational and zero coefficients, against a cellwise sum
        pool = [a, b, a * b, b.scale(Fraction(1, 3)), a - b, RationalMatrix(size)]
        for n in range(1, 8):
            terms = [(rng.choice(pool), rng.choice((1, -1, Fraction(-1), s, Fraction(5, 6), 0)))
                     for _ in range(n)]
            ref = SparseMatrix(size, _combined_cells(size, terms))
            results.append((RationalMatrix.combine(*terms), ref))
        ab = a * b
        cancel = ((ab, Fraction(2, 3)), (a, 1), (ab, Fraction(-2, 3)), (a, -1), (b, 0))
        results.append((RationalMatrix.combine(*cancel), SparseMatrix(size)))
        assert not results[-1][0]
        operand_cols = {id(col) for mat in (a, b, fa, fb) for col in mat.cols.values()}
        for rat, ref in results:
            _assert_normal(rat)
            _assert_same_cells(rat, ref)
            reduced = RationalMatrix(size, ref.cols)
            unreduced += rat.den != reduced.den
            assert rat == reduced and reduced == rat
            if rat is not a:  # the trusted constructor owns the columns it is handed
                assert not operand_cols & {id(col) for m in (rat, ref) for col in m.cols.values()}
        int_vec = {r: rng.randint(-4, 4) for r in range(size) if rng.random() < 0.7}
        for v in (vec, int_vec):  # a one-column matrix of mixed denominators, and of plain ints
            c = size - 1
            rv, fv = RationalMatrix(size, {c: v}), SparseMatrix(size, {c: v})
            unequal_den += a.den != rv.den
            _assert_normal(a * rv)
            _assert_same_cells(a * rv, fa * fv)
            assert (a * rv).column(c) == _product_column(fa, v)
            assert all(type(x) is Fraction for x in (a * rv).column(c).values())
        pairs = ((a, b), (a, a.scale(3).scale(Fraction(1, 3))), (a, a.scale(2)), (a * b, b * a),
                 (a - a, RationalMatrix(size)), (a, a + RationalMatrix(size, {0: {0: s}})),
                 (a, a.scale(Fraction(1, 2))), (a * b, RationalMatrix(size, (a * b).cols)))
        for left, right in pairs:
            cellwise = all(left.entry(r, c) == right.entry(r, c)
                           for r in range(size) for c in range(size))
            assert (left == right) == cellwise
    assert unreduced  # == met unequal denominators, an unreduced result against lowest terms
    assert unequal_den  # and * met a one-column operand over another denominator
    a, b = (RationalMatrix(3, cols) for cols in _cancelling_pair(3))
    _assert_normal(a * b)  # the zero product: no empty column left
    assert not a * b


def _product_column(a, vec):
    """Reference a * vec for a column dict vec, one cell at a time, left entry first."""
    out = {}
    for r in range(a.size):
        acc = None
        for g, bval in vec.items():
            aval = a.entry(r, g)
            if aval is not None:
                acc = aval * bval if acc is None else acc + aval * bval
        if acc:
            out[r] = acc
    return out


@pytest.mark.parametrize("label,point", [
    ("A3", None),
    ("A4", None),  # C is of type A2, so the generic entries do not commute
    ("E6", (Fraction(5, 7), Fraction(3, 2))),
])
def test_one_column_product_is_that_column_of_the_product(label, point):
    lk = build_lk(label)
    rep = lk if point is None else CharacterSpecialization(lk.rs, *point)
    i, j = rep.rs.nodes[0], rep.rs.nodes[1]
    mats = [rep.sigma(i), rep.e_matrix(j), rep.sigma_inv(i), rep.sigma(j)]
    for a in mats:
        for b in mats:
            prod = a * b
            for c in range(rep.size):
                col = a * rep.matrix(rep.size, {c: b.column(c)})
                assert set(col.cols) <= {c} and all(col.column(c).values())
                assert col.column(c) == prod.column(c) == _product_column(a, b.column(c)), (label, c)
