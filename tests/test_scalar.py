import random
from fractions import Fraction

import pytest

from bmwade.hecke import HeckeElement
from bmwade.rootsys import build_type
from bmwade.scalar import Scalar, ScalarDomainError, _acc

L = Scalar.l(1)
LINV = Scalar.l(-1)
M = Scalar.m()
ONE = Scalar.one()
X = ONE - (L - LINV) / M  # the x of e e = x e


def read(terms):
    """The Scalar presented as ``{lexp: (num, den)}``, num and den polynomials
    in m (the form ``items`` prints), by ring arithmetic: a den that is not a
    unit c*m^k raises on the division."""
    def poly(p):
        return sum((Scalar.from_fraction(c) * M ** k for k, c in enumerate(p)), Scalar.zero())
    return sum((Scalar.l(e) * poly(num) / poly(den) for e, (num, den) in terms.items()),
               Scalar.zero())


def rand_scalar(rng, allow_den=True):
    """A random element of Q[l^+-1, m^+-1]: every denominator is c*m^k."""
    terms = {}
    for _ in range(rng.randint(0, 3)):
        lexp = rng.randint(-3, 3)
        num = tuple(Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(1, 3)))
        if allow_den and rng.random() < 0.4:
            den = (Fraction(0),) * rng.randint(0, 2) + (Fraction(rng.choice((-3, -2, -1, 1, 2, 3))),)
        else:
            den = (1,)
        terms[lexp] = (num, den)
    return read(terms)


def is_unit(a):
    """Whether a is a single term c*l^e*m^k."""
    return len(a._terms) == 1


def test_unit_times_inverse():
    assert L * LINV == ONE


def test_forced_denominator_representation():
    d = (L - LINV) / M
    ((e_lo, (num_lo, den_lo)), (e_hi, (num_hi, den_hi))) = tuple(d.items())
    assert (e_lo, e_hi) == (-1, 1)
    assert den_lo == (0, 1) and den_hi == (0, 1)
    assert num_lo == (Fraction(-1),) and num_hi == (Fraction(1),)


def test_like_term_collection():
    m_sq = M * M
    assert m_sq + M * M == m_sq.scale(2)


def test_eval_examples_and_errors():
    assert (L + LINV).eval_at(2, 1) == Fraction(5, 2)
    inv_m = ONE / M
    with pytest.raises(ScalarDomainError):
        inv_m.eval_at(2, 0)
    with pytest.raises(ScalarDomainError):
        L.eval_at(0, 1)


def test_division_errors():
    with pytest.raises(ScalarDomainError):
        ONE / Scalar.zero()
    with pytest.raises(ScalarDomainError):
        ONE / (L + ONE)  # unit group is monomials only
    with pytest.raises(ScalarDomainError):
        (L * L - ONE) / (L + ONE)  # exact, but L + 1 is not a unit
    with pytest.raises(ScalarDomainError):
        M / (M + ONE)
    rng = random.Random(909)
    for _ in range(60):
        a, b = rand_scalar(rng), rand_scalar(rng)
        if is_unit(b):
            assert (a / b) * b == a
        else:
            with pytest.raises(ScalarDomainError):
                a / b


def test_ring_axioms_randomized():
    rng = random.Random(101)
    for _ in range(60):
        a, b, c = (rand_scalar(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


def test_multiplicative_inverses_where_defined():
    rng = random.Random(202)
    for _ in range(30):
        c = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4))
        k = rng.randint(-2, 2)
        num = (Fraction(0),) * max(k, 0) + (c,)
        den = (Fraction(0),) * max(-k, 0) + (Fraction(1),)
        a = read({rng.randint(-3, 3): (num, den)})
        assert a * (ONE / a) == ONE


def test_canonical_form_bitwise():
    rng = random.Random(303)
    for _ in range(30):
        a, b = rand_scalar(rng), rand_scalar(rng)
        lhs = (a + b) * (a + b)
        rhs = a * a + a * b + a * b + b * b
        assert lhs == rhs
        assert lhs._terms == rhs._terms


def test_eval_is_ring_homomorphism():
    rng = random.Random(404)
    pts = [(Fraction(5, 7), Fraction(3, 2)), (Fraction(2), Fraction(-5, 3))]
    for _ in range(25):
        a, b = rand_scalar(rng, allow_den=False), rand_scalar(rng, allow_den=False)
        for l0, m0 in pts:
            assert (a * b).eval_at(l0, m0) == a.eval_at(l0, m0) * b.eval_at(l0, m0)
            assert (a + b).eval_at(l0, m0) == a.eval_at(l0, m0) + b.eval_at(l0, m0)


def test_l_free_predicate():
    # t_lfree reads l-freeness on Hecke coefficients: m is l-free, x is not
    rs = build_type("D4")
    unit = HeckeElement.unit(rs)
    assert unit.scale(M).is_l_free()
    assert not unit.scale(X).is_l_free()


def _is_canonical(s):
    """Every stored coefficient is nonzero, an int when it is integral and a
    Fraction only when it is not."""
    return all(c and (type(c) is int or type(c) is Fraction and c.denominator != 1)
               for c in s._terms.values())


def test_stored_coefficients_are_ints():
    rng = random.Random(606)
    general = [
        ONE / M,
        ONE / M.scale(3) + ONE / (M * M),
        read({0: ((1,), (2,))}),
        read({0: ((Fraction(1, 2), Fraction(3)), (Fraction(0), Fraction(0), Fraction(5, 3)))}),
        ONE / read({0: ((Fraction(0), Fraction(3, 2)), (Fraction(5, 3),))}),
        (L * L - ONE) / L.scale(2),
        (ONE / M.scale(2)).scale(2),
    ]
    for _ in range(30):
        a, b = rand_scalar(rng), rand_scalar(rng)
        general += [a, a + b, a - b, a * b, -a, a.scale(Fraction(3, 4))]
        if is_unit(b):
            general.append(a / b)
    for s in general:
        assert _is_canonical(s), s
    # integer inputs stay int under +, -, * and division by +-l^e m^k
    for _ in range(30):
        a, b = rand_scalar(rng, allow_den=False), rand_scalar(rng, allow_den=False)
        u = read({rng.randint(-2, 2): ((0,) * rng.randint(0, 2) + (rng.choice((1, -1)),),
                                       (0,) * rng.randint(0, 2) + (1,))})
        for s in (a, a + b, a - b, a * b, -a, a / u, a * u):
            assert all(type(c) is int for c in s._terms.values()), s


def test_acc_adds_keeps_canonical_ints_and_drops_zero_sums():
    rs = build_type("A2")
    half = Fraction(1, 2)
    g1, g2 = HeckeElement.generator(rs, 1), HeckeElement.generator(rs, 2)
    for a, b in ((3, -3), (half, -half), (L, -L), (g1, -g1)):
        terms = {}
        _acc(terms, "k", a)
        assert terms == {"k": a}
        _acc(terms, "k", b)
        assert terms == {}
    terms = {"k": half}
    _acc(terms, "k", half)  # an integral Fraction sum is stored as an int
    assert terms == {"k": 1} and type(terms["k"]) is int
    _acc(terms, "j", Fraction(4, 2))  # and so is an integral Fraction added to no term
    assert terms == {"k": 1, "j": 2} and type(terms["j"]) is int
    terms = {"k": L, "h": g1}
    _acc(terms, "k", M)
    _acc(terms, "h", g2)
    assert terms == {"k": L + M, "h": g1 + g2}


def test_canonical_terms_agree_across_routes():
    seventh = {(0, 0): Fraction(1, 7)}
    a = Scalar.from_fraction(Fraction(1, 7))
    assert a._terms == seventh
    assert (ONE / Scalar.from_fraction(7))._terms == seventh
    assert read({0: ((Fraction(2, 7),), (Fraction(2),))})._terms == seventh
    inv = {(0, -1): Fraction(1, 2)}
    assert (ONE / M.scale(2))._terms == inv
    assert read({0: ((Fraction(-3),), (Fraction(0), Fraction(-6)))})._terms == inv
    poly = {(0, 0): -1, (0, 2): 1}
    assert read({0: ((0, -1, 0, 1), (0, 1))})._terms == (M * M - ONE)._terms == poly
    halved = read({0: ((Fraction(-2), 0, Fraction(2)), (2,))})
    assert halved._terms == poly
    for s in (a, ONE / M.scale(2), M * M - ONE, halved):
        assert _is_canonical(s), s


def test_non_monomial_denominator():
    # the ring is Q[l^+-1, m^+-1]: division refuses a divisor that is not
    # c*l^e*m^k, even where the quotient would cancel to a polynomial
    for num, den in (((1,), (1, 1)), ((-1, 0, 1), (-1, 1)), ((Fraction(1, 2),), (Fraction(2), Fraction(0), Fraction(5, 3)))):
        for e in (0, 1):
            with pytest.raises(ScalarDomainError):
                read({e: (num, (1,))}) / read({0: (den, (1,))})


def test_json_dict_literals():
    assert ((L - LINV) / M).to_json_dict() == {"terms": [
        {"lexp": -1, "num": ["-1"], "den": ["0", "1"]},
        {"lexp": 1, "num": ["1"], "den": ["0", "1"]},
    ]}
    assert X.to_json_dict() == {"terms": [
        {"lexp": -1, "num": ["1"], "den": ["0", "1"]},
        {"lexp": 0, "num": ["1"], "den": ["1"]},
        {"lexp": 1, "num": ["-1"], "den": ["0", "1"]},
    ]}
    # presented Q-monic: the coefficient 1/2 of m^-1 over den = m
    half_inv = ONE / M.scale(2)
    assert half_inv._terms == {(0, -1): Fraction(1, 2)}
    assert half_inv.to_json_dict() == {"terms": [
        {"lexp": 0, "num": ["1/2"], "den": ["0", "1"]},
    ]}


def test_eval_is_ring_homomorphism_with_denominators():
    rng = random.Random(707)
    pts = [(Fraction(5, 7), Fraction(3, 2)), (Fraction(2), Fraction(-5, 3)), (Fraction(-1), Fraction(1))]
    for _ in range(40):
        a, b = rand_scalar(rng), rand_scalar(rng)
        for l0, m0 in pts:
            # a Laurent polynomial has no pole away from l = 0 and m = 0
            av, bv = a.eval_at(l0, m0), b.eval_at(l0, m0)
            assert (a * b).eval_at(l0, m0) == av * bv
            assert (a + b).eval_at(l0, m0) == av + bv


def test_pow_is_repeated_multiplication():
    rng = random.Random(808)
    for _ in range(10):
        a = rand_scalar(rng)
        acc = ONE
        for k in range(7):
            assert a ** k == acc, (a, k)
            acc = acc * a
    assert Scalar.zero() ** 0 == ONE
    assert (ONE / M) ** 3 == ONE / (M * M * M)
    for bad in (-1, Fraction(1, 2), 2.0):
        with pytest.raises(ValueError):
            L ** bad


def test_hash_agrees_with_eq_on_constants():
    assert len({Scalar.one(), 1}) == 1
    assert len({Scalar.zero(), 0}) == 1
    assert len({Scalar.from_fraction(Fraction(-3, 4)), Fraction(-3, 4)}) == 1
    assert len({Scalar.from_fraction(5), 5, Fraction(10, 2)}) == 1
    assert {ONE: "one"}[1] == "one"
    # equal values built by different routes hash alike
    for a, b in ((L * LINV, ONE), ((L + M) * (L - M), L * L - M * M), (ONE / M * M, ONE)):
        assert a == b and hash(a) == hash(b)


def _units():
    """One-term operands c*l^e*m^k, which take the key-shift path."""
    return [read({e: ((0,) * max(k, 0) + (c,), (0,) * max(-k, 0) + (1,))})
            for e in (-2, -1, 0, 1) for k in (-2, 0, 1, 3) for c in (1, -1, 3, Fraction(-2, 3))]


def _general_product(a, b):
    """The terms of a * b by the double loop over both operands."""
    out = {}
    for (x, y), v in a._terms.items():
        for (e, k), c in b._terms.items():
            out[(x + e, y + k)] = out.get((x + e, y + k), 0) + Fraction(v) * c
    return {key: c for key, c in out.items() if c}


def test_unit_fast_path_matches_general_route():
    rng = random.Random(909)
    others = [X, L + M, -LINV / (M * M) + ONE, ONE / M.scale(2) - L,
              -X * M, read({2: ((3, 0, -2), (0, 0, 5))})]
    others += [rand_scalar(rng) for _ in range(20)]
    for s in others[:6]:
        assert len(s._terms) > 1, s
    for u in _units():
        assert len(u._terms) == 1, u
        for s in others + _units():
            if not s:
                continue
            general = _general_product(u, s)
            for prod in (u * s, s * u):
                assert prod._terms == general, (u, s)
                assert _is_canonical(prod), (u, s)
                assert read(dict(prod.items()))._terms == prod._terms, (u, s)
    for s in others:
        for t in others:
            assert (s * t)._terms == _general_product(s, t), (s, t)
