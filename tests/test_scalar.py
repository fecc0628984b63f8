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
    """A random element of Q[l^+-1, m^+-1]: every denominator is c*m^k."""
    terms = {}
    for _ in range(rng.randint(0, 3)):
        lexp = rng.randint(-3, 3)
        num = tuple(Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(1, 3)))
        if allow_den and rng.random() < 0.4:
            den = (Fraction(0),) * rng.randint(0, 2) + (Fraction(rng.choice((-3, -2, -1, 1, 2, 3))),)
        else:
            den = P_ONE
        terms[lexp] = (num, den)
    return Scalar(terms)


def is_unit(a):
    """Whether a is a single term c*l^e*m^k."""
    if len(a._terms) != 1:
        return False
    (num, _), = a._terms.values()
    return sum(1 for c in num if c) == 1


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
        a = Scalar.from_ratfunc(num, den, lexp=rng.randint(-3, 3))
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


def test_stored_coefficients_are_ints():
    rng = random.Random(606)
    general = [
        ONE / M,
        ONE / M.scale(3) + ONE / (M * M),
        Scalar.from_ratfunc((1,), (2,)),
        Scalar.from_ratfunc((Fraction(1, 2), Fraction(3)), (Fraction(0), Fraction(0), Fraction(5, 3))),
        ONE / Scalar.from_ratfunc((Fraction(0), Fraction(3, 2)), (Fraction(5, 3),)),
        (L * L - ONE) / L.scale(2),
    ]
    for _ in range(30):
        a, b = rand_scalar(rng), rand_scalar(rng)
        general += [a, a + b, a - b, a * b, -a, a.scale(Fraction(3, 4))]
        if is_unit(b):
            general.append(a / b)
    for s in general:
        assert all(type(c) is int for num, den in s._terms.values() for c in num + den), s


def test_canonical_terms_agree_across_routes():
    seventh = {0: ((1,), (7,))}
    a = Scalar.from_fraction(Fraction(1, 7))
    assert a._terms == seventh
    assert (ONE / Scalar.from_fraction(7))._terms == seventh
    assert Scalar({0: ((Fraction(2, 7),), (Fraction(2),))})._terms == seventh
    inv = {0: ((1,), (0, 2))}
    assert (ONE / M.scale(2))._terms == inv
    assert Scalar.from_ratfunc((Fraction(-3),), (Fraction(0), Fraction(-6)))._terms == inv
    assert Scalar.from_ratfunc((0, -1, 0, 1), (0, 1))._terms == (M * M - ONE)._terms == {0: ((-1, 0, 1), P_ONE)}


def test_non_monomial_denominator():
    # the ring is Q[l^+-1, m^+-1]: every entry point refuses a denominator
    # that is not c*m^k, even where the fraction would cancel to a polynomial
    for num, den in (((1,), (1, 1)), ((-1, 0, 1), (-1, 1)), ((Fraction(1, 2),), (Fraction(2), Fraction(0), Fraction(5, 3)))):
        with pytest.raises(ScalarDomainError):
            Scalar({0: (num, den)})
        with pytest.raises(ScalarDomainError):
            Scalar.from_ratfunc(num, den, lexp=1)
        with pytest.raises(ScalarDomainError):
            Scalar.from_ratfunc(num) / Scalar.from_ratfunc(den)
    with pytest.raises(ScalarDomainError):
        Scalar({0: ((1,), ())})


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
    # presented Q-monic although stored as 1/(2m)
    half_inv = ONE / M.scale(2)
    assert half_inv._terms == {0: ((1,), (0, 2))}
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
    """The signed monomials +-l^e m^k (k >= 0) that take the fast path."""
    return [Scalar.from_ratfunc((0,) * k + (sign,), lexp=e)
            for e in (-2, -1, 0, 1) for k in (0, 1, 3) for sign in (1, -1)]


def test_unit_fast_path_matches_general_route():
    from bmwade.scalar import _make, _mul_terms, _signed_monomial

    rng = random.Random(909)
    others = [x_value(), L / M, -LINV / (M * M), ONE / M.scale(2), -x_value() * M,
              Scalar.from_ratfunc((3, 0, -2), (0, 0, 5), lexp=2), Scalar.from_fraction(Fraction(-2, 3))]
    others += [rand_scalar(rng) for _ in range(20)]
    for s in others[:7]:
        assert _signed_monomial(s._terms) is None, s
    for u in _units():
        assert _signed_monomial(u._terms) is not None, u
        for s in others + _units():
            if not s:
                continue
            general = _make(_mul_terms(u._terms, s._terms))
            for prod in (u * s, s * u):
                assert prod._terms == general._terms, (u, s)
                assert Scalar(dict(prod.items()))._terms == prod._terms, (u, s)
