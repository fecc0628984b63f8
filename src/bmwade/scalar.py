"""Exact arithmetic in the coefficient ring Q(m)[l, l^-1].

A Scalar is a Laurent polynomial in the invertible indeterminate l whose
coefficients are univariate rational functions in m with exact rational
coefficients.  This ring carries every coefficient that appears in the
algebra: the defining parameters l and m live here directly, and the third
parameter x is never stored; it is derived on demand from

    m = (l - l^-1) / (1 - x),

i.e. x = 1 - (l - l^-1)/m, see :func:`x_value`.

Representation invariants (canonical form):

* no term has a zero coefficient, and l-exponent keys are unique;
* each rational function num/den is reduced (gcd is a unit) and den is monic.

Two Scalars are equal as ring elements iff their representations are equal,
so ``==`` is both cheap and exact.  Values are immutable after construction
and all operations are pure, which makes them safe to share between threads.

Polynomials in m are plain tuples of Fractions, ascending degree, with no
trailing zeros; the empty tuple is zero.  The same machinery is reused by
the representation layer with the variable read as r instead of m (the two
are tied by m = r - r^-1); nothing here depends on the variable's name.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator

Poly = tuple  # tuple[Fraction, ...], ascending degree, no trailing zeros

_F0 = Fraction(0)
_F1 = Fraction(1)
P_ZERO: Poly = ()
P_ONE: Poly = (_F1,)
P_VAR: Poly = (_F0, _F1)  # the coefficient variable itself (m, or r)


class ScalarDomainError(ArithmeticError):
    """Division by zero, a non-exact quotient, or evaluation at a pole."""


def _ptrim(cs: list) -> Poly:
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def p_add(a: Poly, b: Poly) -> Poly:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _ptrim(out)


def p_neg(a: Poly) -> Poly:
    return tuple(-c for c in a)


def p_mul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return P_ZERO
    out = [_F0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return _ptrim(out)


def p_divmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    if not b:
        raise ScalarDomainError("polynomial division by zero")
    rem = list(a)
    quot = [_F0] * max(len(a) - len(b) + 1, 0)
    inv_lead = 1 / b[-1]
    for k in range(len(a) - len(b), -1, -1):
        c = rem[k + len(b) - 1] * inv_lead
        if c:
            quot[k] = c
            for j, cb in enumerate(b):
                rem[k + j] -= c * cb
    return _ptrim(quot), _ptrim(rem)


def p_gcd(a: Poly, b: Poly) -> Poly:
    while b:
        a, b = b, p_divmod(a, b)[1]
    return p_monic(a)


def p_monic(a: Poly) -> Poly:
    if not a or a[-1] == 1:
        return a
    inv = 1 / a[-1]
    return tuple(c * inv for c in a)


def p_eval(a: Poly, v: Fraction) -> Fraction:
    acc = _F0
    for c in reversed(a):
        acc = acc * v + c
    return acc


def p_const(q) -> Poly:
    q = Fraction(q)
    return (q,) if q else P_ZERO


def ratfunc(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """Reduce num/den to canonical form (coprime, monic denominator)."""
    num = _ptrim(list(num))
    den = _ptrim(list(den))
    if not den:
        raise ScalarDomainError("rational function with zero denominator")
    if not num:
        return P_ZERO, P_ONE
    if den != P_ONE:
        g = p_gcd(num, den)
        if len(g) > 1:
            num = p_divmod(num, g)[0]
            den = p_divmod(den, g)[0]
        lead = den[-1]
        if lead != 1:
            inv = 1 / lead
            num = tuple(c * inv for c in num)
            den = tuple(c * inv for c in den)
    return num, den


def _rf_add(a, b):
    an, ad = a
    bn, bd = b
    if ad == P_ONE and bd == P_ONE:
        return p_add(an, bn), P_ONE
    return ratfunc(p_add(p_mul(an, bd), p_mul(bn, ad)), p_mul(ad, bd))


def _rf_mul(a, b):
    an, ad = a
    bn, bd = b
    if ad == P_ONE and bd == P_ONE:
        return p_mul(an, bn), P_ONE
    return ratfunc(p_mul(an, bn), p_mul(ad, bd))


def _rf_neg(a):
    return p_neg(a[0]), a[1]


class Scalar:
    """Immutable element of Q(m)[l, l^-1] in canonical form."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict | None = None):
        canon: dict[int, tuple[Poly, Poly]] = {}
        if terms:
            for e, (num, den) in terms.items():
                num, den = ratfunc(num, den)
                if num:
                    canon[e] = (num, den)
        object.__setattr__(self, "_terms", canon)

    def __setattr__(self, name, value):  # pragma: no cover - guards immutability
        raise AttributeError("Scalar is immutable")

    # -- constructors ------------------------------------------------

    @staticmethod
    def zero() -> Scalar:
        return _ZERO

    @staticmethod
    def one() -> Scalar:
        return _ONE

    @staticmethod
    def m() -> Scalar:
        return _M

    @staticmethod
    def l(exp: int = 1) -> Scalar:
        s = Scalar.__new__(Scalar)
        object.__setattr__(s, "_terms", {exp: (P_ONE, P_ONE)})
        return s

    @staticmethod
    def from_fraction(q) -> Scalar:
        q = Fraction(q)
        if not q:
            return _ZERO
        s = Scalar.__new__(Scalar)
        object.__setattr__(s, "_terms", {0: ((q,), P_ONE)})
        return s

    @staticmethod
    def from_ratfunc(num: Poly, den: Poly = P_ONE, lexp: int = 0) -> Scalar:
        return Scalar({lexp: (num, den)})

    # -- structure ---------------------------------------------------

    def items(self) -> Iterator[tuple[int, tuple[Poly, Poly]]]:
        return iter(sorted(self._terms.items()))

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def is_l_free(self) -> bool:
        return all(e == 0 for e in self._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, Scalar):
            return self._terms == other._terms
        if other == 0:
            return not self._terms
        if isinstance(other, (int, Fraction)):
            return self == Scalar.from_fraction(other)
        return NotImplemented

    def __hash__(self):
        return hash(tuple(sorted(self._terms.items())))

    # -- ring operations ---------------------------------------------

    def __add__(self, other: Scalar) -> Scalar:
        if not other._terms:
            return self
        if not self._terms:
            return other
        terms = dict(self._terms)
        for e, rf in other._terms.items():
            cur = terms.get(e)
            if cur is None:
                terms[e] = rf
            else:
                s = _rf_add(cur, rf)
                if s[0]:
                    terms[e] = s
                else:
                    del terms[e]
        s = Scalar.__new__(Scalar)
        object.__setattr__(s, "_terms", terms)
        return s

    def __neg__(self) -> Scalar:
        s = Scalar.__new__(Scalar)
        object.__setattr__(s, "_terms", {e: _rf_neg(rf) for e, rf in self._terms.items()})
        return s

    def __sub__(self, other: Scalar) -> Scalar:
        return self + (-other)

    def __mul__(self, other: Scalar) -> Scalar:
        if not self._terms or not other._terms:
            return _ZERO
        terms: dict[int, tuple[Poly, Poly]] = {}
        for ea, ra in self._terms.items():
            for eb, rb in other._terms.items():
                e = ea + eb
                prod = _rf_mul(ra, rb)
                cur = terms.get(e)
                if cur is None:
                    if prod[0]:
                        terms[e] = prod
                else:
                    s = _rf_add(cur, prod)
                    if s[0]:
                        terms[e] = s
                    else:
                        del terms[e]
        s = Scalar.__new__(Scalar)
        object.__setattr__(s, "_terms", terms)
        return s

    def __truediv__(self, other: Scalar) -> Scalar:
        """Exact division; raises unless the quotient lies in the ring."""
        if not other._terms:
            raise ScalarDomainError("division by zero Scalar")
        if not self._terms:
            return _ZERO
        if len(other._terms) == 1:
            (e, (num, den)), = other._terms.items()
            inv = Scalar({-e: (den, num)})
            return self * inv
        # Long division of Laurent polynomials in l over the field Q(m).
        lo_s = min(self._terms)
        lo_o = min(other._terms)
        a = {e - lo_s: rf for e, rf in self._terms.items()}
        b = {e - lo_o: rf for e, rf in other._terms.items()}
        deg_b = max(b)
        lead_b = b[deg_b]
        quot: dict[int, tuple[Poly, Poly]] = {}
        while a:
            deg_a = max(a)
            if deg_a < deg_b:
                raise ScalarDomainError("quotient does not lie in Q(m)[l, l^-1]")
            c = _rf_mul(a[deg_a], (lead_b[1], lead_b[0]))
            quot[deg_a - deg_b] = c
            for e, rf in b.items():
                k = e + deg_a - deg_b
                cur = a.get(k, (P_ZERO, P_ONE))
                s = _rf_add(cur, _rf_neg(_rf_mul(c, rf)))
                if s[0]:
                    a[k] = s
                else:
                    a.pop(k, None)
        return Scalar({e + lo_s - lo_o: rf for e, rf in quot.items()})

    def scale(self, q) -> Scalar:
        return self * Scalar.from_fraction(q)

    # -- evaluation and substitution ----------------------------------

    def eval_at(self, l0, m0) -> Fraction:
        """Exact value at l = l0, m = m0 (both rational, l0 nonzero)."""
        l0 = Fraction(l0)
        m0 = Fraction(m0)
        if l0 == 0:
            raise ScalarDomainError("cannot evaluate at l = 0")
        acc = _F0
        for e, (num, den) in self._terms.items():
            dv = p_eval(den, m0)
            if dv == 0:
                raise ScalarDomainError(f"denominator vanishes at m = {m0}")
            acc += (p_eval(num, m0) / dv) * l0 ** e
        return acc

    def subst_var(self, num: Poly, den: Poly) -> Scalar:
        """Substitute the coefficient variable by the rational function num/den.

        Used to push m = (r^2 - 1)/r (or a rational constant) into every
        coefficient; the l-part is untouched.
        """
        terms = {}
        for e, (pn, pd) in self._terms.items():
            terms[e] = _rf_mul(_compose(pn, num, den), _rf_inverse(_compose(pd, num, den)))
        return Scalar(terms)

    # -- presentation --------------------------------------------------

    def __repr__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for e, (num, den) in self.items():
            coeff = _poly_str(num)
            if den != P_ONE:
                coeff = f"({coeff})/({_poly_str(den)})"
            elif len([c for c in num if c]) > 1:
                coeff = f"({coeff})"
            if e == 0:
                parts.append(coeff)
            else:
                lpow = "l" if e == 1 else f"l^{e}"
                parts.append(lpow if coeff == "1" else f"{coeff}*{lpow}")
        return " + ".join(parts)

    def to_json_dict(self) -> dict:
        return {
            "terms": [
                {
                    "lexp": e,
                    "num": [str(c) for c in num],
                    "den": [str(c) for c in den],
                }
                for e, (num, den) in self.items()
            ]
        }

    @staticmethod
    def from_json_dict(data: dict) -> Scalar:
        terms = {}
        for t in data["terms"]:
            num = tuple(Fraction(c) for c in t["num"])
            den = tuple(Fraction(c) for c in t["den"])
            terms[int(t["lexp"])] = (num, den)
        return Scalar(terms)


def _rf_inverse(rf):
    num, den = rf
    if not num:
        raise ScalarDomainError("inverting zero rational function")
    return ratfunc(den, num)


def _compose(p: Poly, num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """p(num/den) as a rational function (Horner in the fraction)."""
    if not p:
        return P_ZERO, P_ONE
    acc_n, acc_d = p_const(p[-1]), P_ONE
    for c in reversed(p[:-1]):
        # acc <- acc * (num/den) + c
        acc_n = p_add(p_mul(acc_n, num), p_mul(p_const(c), p_mul(acc_d, den)))
        acc_d = p_mul(acc_d, den)
    return ratfunc(acc_n, acc_d)


_ZERO = Scalar()
_ONE = Scalar({0: (P_ONE, P_ONE)})
_M = Scalar({0: (P_VAR, P_ONE)})


def _poly_str(p: Poly, var: str = "m") -> str:
    if not p:
        return "0"
    parts = []
    for i, c in enumerate(p):
        if not c:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            v = var if i == 1 else f"{var}^{i}"
            if c == 1:
                parts.append(v)
            elif c == -1:
                parts.append(f"-{v}")
            else:
                parts.append(f"{c}*{v}")
    return " + ".join(parts).replace("+ -", "- ")


def x_value() -> Scalar:
    """The derived parameter x = 1 - (l - l^-1)/m."""
    m_inv = (P_ONE, P_VAR)
    return Scalar({0: (P_ONE, P_ONE), 1: _rf_neg(m_inv), -1: m_inv})
