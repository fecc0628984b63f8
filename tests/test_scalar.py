import random
from fractions import Fraction

import pytest

from bmwade.scalar import (
    P_ONE,
    P_VAR,
    Scalar,
    ScalarDomainError,
    x_value,
)

L = Scalar.l(1)
LINV = Scalar.l(-1)
M = Scalar.m()
ONE = Scalar.one()


def rand_scalar(rng, allow_den=True):
    terms = {}
    for _ in range(rng.randint(0, 3)):
        lexp = rng.randint(-3, 3)
        num = tuple(Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(1, 3)))
        if allow_den and rng.random() < 0.4:
            den = tuple(Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(0, 2))) + (Fraction(1),)
        else:
            den = P_ONE
        terms[lexp] = (num, den)
    return Scalar(terms)


def test_unit_times_inverse():
    assert L * LINV == ONE


def test_forced_denominator_representation():
    d = (L - LINV) / M
    ((e_lo, (num_lo, den_lo)), (e_hi, (num_hi, den_hi))) = tuple(d.items())
    assert (e_lo, e_hi) == (-1, 1)
    assert den_lo == P_VAR and den_hi == P_VAR
    assert num_lo == (Fraction(-1),) and num_hi == (Fraction(1),)


def test_like_term_collection():
    m_sq = M * M
    assert m_sq + M * M == m_sq.scale(2)


def test_x_value_formula():
    x = x_value()
    assert x == ONE - (L - LINV) / M
    assert M * (ONE - x) == L - LINV


def test_x_value_evaluations():
    assert x_value().eval_at(1, 1) == 1
    # independent route: plain Fraction arithmetic
    l0, m0 = Fraction(5, 7), Fraction(3, 2)
    expect = 1 - (l0 - 1 / l0) / m0
    assert expect == Fraction(51, 35)
    assert x_value().eval_at(l0, m0) == expect


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
    assert (L * L - ONE) / (L + ONE) == L - ONE


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
        num = tuple(Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(0, 2))) + (Fraction(rng.randint(1, 4)),)
        a = Scalar.from_ratfunc(num, P_ONE, lexp=rng.randint(-3, 3))
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
    assert M.is_l_free()
    assert not x_value().is_l_free()


def test_json_round_trip():
    rng = random.Random(505)
    for _ in range(20):
        a = rand_scalar(rng)
        assert Scalar.from_json_dict(a.to_json_dict()) == a


def test_stored_coefficients_are_ints():
    rng = random.Random(606)
    general = [
        ONE / (M + ONE),
        ONE / (M + ONE) + ONE / (M - ONE),
        Scalar.from_ratfunc((1,), (2,)),
        ONE / Scalar.from_ratfunc((Fraction(1, 2), Fraction(3)), (Fraction(2), Fraction(0), Fraction(5, 3))),
        (L * L - ONE) / (L + ONE),
    ]
    for _ in range(30):
        a, b = rand_scalar(rng), rand_scalar(rng)
        general += [a, a + b, a - b, a * b, -a, a.scale(Fraction(3, 4))]
        if len(b._terms) == 1:
            general.append(a / b)
    for s in general:
        assert all(type(c) is int for num, den in s._terms.values() for c in num + den), s


def test_canonical_terms_agree_across_routes():
    seventh = {0: ((1,), (7,))}
    a = Scalar.from_fraction(Fraction(1, 7))
    assert a._terms == seventh
    assert (ONE / Scalar.from_fraction(7))._terms == seventh
    assert Scalar.from_json_dict(a.to_json_dict())._terms == seventh
    assert Scalar({0: ((Fraction(2, 7),), (Fraction(2),))})._terms == seventh
    inv = {0: ((1,), (1, 1))}
    assert (ONE / (M + ONE))._terms == inv
    assert Scalar.from_ratfunc((Fraction(-3),), (Fraction(-3), Fraction(-3)))._terms == inv
    assert Scalar.from_ratfunc((-1, 0, 1), (-1, 1))._terms == (M + ONE)._terms == {0: ((1, 1), P_ONE)}


def test_non_monomial_denominator():
    assert (ONE / (M + ONE)) * (M + ONE) == ONE
    s = ONE / (M + ONE) + ONE / (M - ONE)
    assert s._terms == {0: ((0, 2), (-1, 0, 1))}
    assert s * (M * M - ONE) == M.scale(2)


def test_json_dict_literals():
    assert ((L - LINV) / M).to_json_dict() == {"terms": [
        {"lexp": -1, "num": ["-1"], "den": ["0", "1"]},
        {"lexp": 1, "num": ["1"], "den": ["0", "1"]},
    ]}
    assert x_value().to_json_dict() == {"terms": [
        {"lexp": -1, "num": ["1"], "den": ["0", "1"]},
        {"lexp": 0, "num": ["1"], "den": ["1"]},
        {"lexp": 1, "num": ["-1"], "den": ["0", "1"]},
    ]}
    # presented Q-monic although stored as 1/(2m + 3)
    assert (ONE / (M.scale(2) + ONE.scale(3))).to_json_dict() == {"terms": [
        {"lexp": 0, "num": ["1/2"], "den": ["3/2", "1"]},
    ]}


def test_eval_is_ring_homomorphism_with_denominators():
    rng = random.Random(707)
    pts = [(Fraction(5, 7), Fraction(3, 2)), (Fraction(2), Fraction(-5, 3)), (Fraction(-1), Fraction(1))]
    checked = 0
    for _ in range(40):
        a, b = rand_scalar(rng), rand_scalar(rng)
        for l0, m0 in pts:
            try:
                av, bv = a.eval_at(l0, m0), b.eval_at(l0, m0)
            except ScalarDomainError:
                continue  # a pole of a or b
            assert (a * b).eval_at(l0, m0) == av * bv
            assert (a + b).eval_at(l0, m0) == av + bv
            checked += 1
    assert checked > 60


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
