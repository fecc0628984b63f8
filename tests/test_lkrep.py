from fractions import Fraction

import pytest

from bmwade.lkrep import CharacterSpecialization, SparseMatrix, build_lk
from bmwade.scalar import Scalar, ScalarDomainError, x_value

M = Scalar.m()
L = Scalar.l(1)
LINV = Scalar.l(-1)


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
        for k in rs.nodes:
            col = lk.word_apply(rs.geodesic_word(i, k), {rs.root_index[rs.alpha(i)]: lk.unit()})
            assert col == {rs.root_index[rs.alpha(k)]: lk.unit()}


def test_f_matrix_values_on_d4():
    lk = build_lk("D4")
    rs = lk.rs
    x = x_value()
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
        lk, L, Scalar.m() if r is None else Scalar.from_fraction(r))


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


def _specialize(lk, mat, l0, r0):
    """Reference route: evaluate each generic entry under z -> 1/r0 at (l0, r0).

    A Hecke basis element T_w goes to (1/r0)^len(w); its Scalar coefficient
    is evaluated at l = l0, m = r0 - 1/r0.
    """
    m0, c0 = r0 - 1 / r0, 1 / r0

    def value(helem):
        return sum((coeff.eval_at(l0, m0) * c0 ** len(lk.rs.reduced_word(w))
                    for w, coeff in helem.coeffs().items()), Fraction(0))

    return mat.map_entries(value)


@pytest.mark.parametrize("label", ["A3", "D4"])
def test_character_route_equals_specialized_generic(label):
    lk = build_lk(label)
    l0, r0 = Fraction(5, 7), Fraction(3, 2)
    spec = CharacterSpecialization(lk, l0, r0)
    sym = _character(lk)
    for i in lk.rs.nodes:
        for name in ("sigma", "e_matrix", "tau", "sigma_inv"):
            generic = getattr(lk, name)(i)
            assert getattr(spec, name)(i) == _specialize(lk, generic, l0, r0), (name, i)
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


def test_character_rejects_degenerate_points():
    lk = build_lk("A2")
    with pytest.raises(ValueError):
        CharacterSpecialization(lk, 0, Fraction(3, 2))
    with pytest.raises(ValueError):
        CharacterSpecialization(lk, Fraction(5, 7), 0)
    with pytest.raises(ValueError):
        _character(lk, 0)
    # r = 1 gives m = 0: sigma exists, only x and l/m do not (run_suite
    # rejects the point, see test_verify)
    at_one = CharacterSpecialization(lk, Fraction(5, 7), 1)
    assert at_one.sigma(1) == _specialize(lk, lk.sigma(1), Fraction(5, 7), Fraction(1))
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


def _product_column(a, b, c):
    """Reference column c of a * b, one cell at a time, left entry first."""
    out = {}
    for r in range(a.size):
        acc = None
        for g, bval in b.column(c).items():
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
def test_apply_is_one_column_of_the_product(label, point):
    lk = build_lk(label)
    rep = lk if point is None else CharacterSpecialization(lk, *point)
    i, j = rep.rs.nodes[0], rep.rs.nodes[1]
    mats = [rep.sigma(i), rep.e_matrix(j), rep.sigma_inv(i), rep.sigma(j)]
    for a in mats:
        for b in mats:
            prod = a * b
            for c in range(rep.size):
                col = a.apply(b.column(c))
                assert all(col.values())
                assert col == prod.column(c) == _product_column(a, b, c), (label, c)
