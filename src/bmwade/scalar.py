"""Exact arithmetic in the Laurent ring Q[l^+-1, m^+-1].

A Scalar is a Laurent polynomial in the invertible indeterminates l and m
with exact rational coefficients.  This ring carries every coefficient of
the algebra: the generic sigma_i entries lie in Z[l^+-1, m], and x and the
l/m of e_i = (l/m) f_i add only 1/m.  The parameters l and m live here
directly; x is never stored but derived on demand from

    m = (l - l^-1) / (1 - x),

i.e. x = 1 - (l - l^-1)/m, see :func:`x_value`.

Storage is fraction-free: each coefficient of a power of l is a pair (num,
den) of polynomials in m with ``int`` coefficients, in canonical form:

* no term has a zero coefficient, and l-exponent keys are unique;
* den is a monomial c m^k with c > 0, num and den share no factor m, and
  their joint integer content is 1.

The form is unique, so two Scalars are equal as ring elements iff their
representations are equal, and ``==`` is both cheap and exact; normalizing
costs an m-power strip and one integer gcd.  The units are the single terms
c l^e m^k: dividing by anything else raises :class:`ScalarDomainError`, and
so does any coefficient whose denominator is not a monomial.  Rational
inputs (Fraction or int tuples) are cleared of denominators once, on entry;
``items``, ``repr`` and ``to_json_dict`` present each coefficient Q-monic
(num and den divided by the leading coefficient of den, as Fractions).
Values are immutable and all operations are pure, which makes them safe to
share between threads.

Polynomials in m are plain tuples, ascending degree, with no trailing zeros;
the empty tuple is zero.  The representation layer reuses the same machinery
with the variable read as r (tied to m by m = r - r^-1, which is not a unit
there); nothing here depends on the variable's name.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterator

Poly = tuple  # tuple[int, ...], ascending degree, no trailing zeros

P_ZERO: Poly = ()
P_ONE: Poly = (1,)
P_VAR: Poly = (0, 1)  # the coefficient variable itself (m, or r)


class ScalarDomainError(ArithmeticError):
    """Division by a non-unit, a non-monomial denominator, or evaluation at a pole."""


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
    return tuple([-c for c in a])


def p_mul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return P_ZERO
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return _ptrim(out)


def p_eval(a: Poly, v: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * v + c
    return acc


def _canon(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """Canonical form of num/den: trimmed int tuples, den a nonzero c*m^k."""
    if not num:
        return P_ZERO, P_ONE
    k = 0
    while not num[k] and not den[k]:
        k += 1
    num, den = num[k:], den[k:]
    lead = den[-1]
    if lead != 1:
        g = gcd(*num, *den)
        if lead < 0:
            g = -g
        if g != 1:
            num = tuple(c // g for c in num)
            den = tuple(c // g for c in den)
    return num, den


def _is_monomial(p: Poly) -> bool:
    """Whether the nonzero polynomial p is c*m^k."""
    return p.count(0) == len(p) - 1


def _from_q(num, den) -> tuple[Poly, Poly]:
    """Canonical int pair of num/den given with rational (or int) coefficients."""
    num, den = _ptrim(list(num)), _ptrim(list(den))
    if not den:
        raise ScalarDomainError("rational function with zero denominator")
    if not _is_monomial(den):
        raise ScalarDomainError(f"denominator {_poly_str(den)} is not a monomial c*m^k")
    if not num:
        return P_ZERO, P_ONE
    mult = lcm(*(c.denominator for c in num + den))
    return _canon(tuple((c * mult).numerator for c in num),
                  tuple((c * mult).numerator for c in den))


def _q_add(a, b):
    an, ad = a
    bn, bd = b
    if ad == bd:
        num = p_add(an, bn)
        return (num, ad) if ad == P_ONE else _canon(num, ad)
    return _canon(p_add(p_mul(an, bd), p_mul(bn, ad)), p_mul(ad, bd))


def _q_mul(a, b):
    an, ad = a
    bn, bd = b
    if ad == P_ONE and bd == P_ONE:
        return p_mul(an, bn), P_ONE
    return _canon(p_mul(an, bn), p_mul(ad, bd))


def _merge(terms: dict, e: int, rf) -> None:
    """Add the nonzero coefficient rf into terms[e], dropping a zero sum."""
    cur = terms.get(e)
    s = rf if cur is None else _q_add(cur, rf)
    if s[0]:
        terms[e] = s
    else:
        del terms[e]


def _mul_terms(a: dict, b: dict) -> dict:
    """Canonical terms of a product, by the general route."""
    terms: dict[int, tuple[Poly, Poly]] = {}
    for ea, ra in a.items():
        for eb, rb in b.items():
            _merge(terms, ea + eb, _q_mul(ra, rb))
    return terms


def _signed_monomial(terms: dict):
    """(e, k, sign) when terms is the single term sign * l^e * m^k with k >= 0."""
    if len(terms) == 1:
        (e, (num, den)), = terms.items()
        if den == P_ONE and num[-1] in (1, -1) and num.count(0) == len(num) - 1:
            return e, len(num) - 1, num[-1]
    return None


def _make(terms: dict) -> Scalar:
    """A Scalar over terms already in canonical form."""
    s = Scalar.__new__(Scalar)
    object.__setattr__(s, "_terms", terms)
    return s


class Scalar:
    """Immutable element of Q[l^+-1, m^+-1] in canonical form."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict | None = None):
        canon: dict[int, tuple[Poly, Poly]] = {}
        if terms:
            for e, (num, den) in terms.items():
                rf = _from_q(num, den)
                if rf[0]:
                    canon[e] = rf
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
        return _make({exp: (P_ONE, P_ONE)})

    @staticmethod
    def from_fraction(q) -> Scalar:
        q = Fraction(q)
        if not q:
            return _ZERO
        return _make({0: ((q.numerator,), (q.denominator,))})

    @staticmethod
    def from_ratfunc(num: Poly, den: Poly = P_ONE, lexp: int = 0) -> Scalar:
        return Scalar({lexp: (num, den)})

    # -- structure ---------------------------------------------------

    def items(self) -> Iterator[tuple[int, tuple[Poly, Poly]]]:
        """Sorted terms, each coefficient Q-monic with Fraction entries."""
        for e, (num, den) in sorted(self._terms.items()):
            lead = den[-1]
            yield e, (tuple(Fraction(c, lead) for c in num),
                      tuple(Fraction(c, lead) for c in den))

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
        if all(e == 0 and len(num) == len(den) == 1 for e, (num, den) in self._terms.items()):
            return hash(self.eval_at(1, 0))  # a rational constant hashes as its Fraction
        return hash(tuple(sorted(self._terms.items())))

    # -- ring operations ---------------------------------------------

    def __add__(self, other: Scalar) -> Scalar:
        if not other._terms:
            return self
        if not self._terms:
            return other
        terms = dict(self._terms)
        for e, rf in other._terms.items():
            _merge(terms, e, rf)
        return _make(terms)

    def __neg__(self) -> Scalar:
        return _make({e: (p_neg(num), den) for e, (num, den) in self._terms.items()})

    def __sub__(self, other: Scalar) -> Scalar:
        return self + (-other)

    def __mul__(self, other: Scalar) -> Scalar:
        a, b = self._terms, other._terms
        if not a or not b:
            return _ZERO
        unit = _signed_monomial(b)
        if unit is not None:
            return self._times_unit(*unit)
        unit = _signed_monomial(a)
        if unit is not None:
            return other._times_unit(*unit)
        return _make(_mul_terms(a, b))

    def _times_unit(self, e: int, k: int, sign: int) -> Scalar:
        """self * sign * l^e * m^k, k >= 0, without _canon: each den is c m^j,
        so m^min(j, k) cancels against it and the rest of m^k joins num."""
        if not e and not k and sign == 1:
            return self
        out = {}
        for ex, (num, den) in self._terms.items():
            t = min(k, len(den) - 1)
            out[ex + e] = ((0,) * (k - t) + (p_neg(num) if sign < 0 else num), den[t:])
        return _make(out)

    def __truediv__(self, other: Scalar) -> Scalar:
        """Division by a unit c*l^e*m^k; any other divisor raises."""
        if not other._terms:
            raise ScalarDomainError("division by zero Scalar")
        if len(other._terms) > 1 or not _is_monomial(next(iter(other._terms.values()))[0]):
            raise ScalarDomainError(f"{other!r} is not a unit of Q[l^+-1, m^+-1]")
        (e, (num, den)), = other._terms.items()
        return self * _make({-e: _canon(den, num)})

    def __pow__(self, k: int) -> Scalar:
        """self ** k for an int k >= 0, by repeated squaring."""
        if not isinstance(k, int) or k < 0:
            raise ValueError(f"Scalar power needs an int exponent >= 0, got {k!r}")
        out, base = _ONE, self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def scale(self, q) -> Scalar:
        return self * Scalar.from_fraction(q)

    # -- evaluation ----------------------------------------------------

    def eval_at(self, l0, m0) -> Fraction:
        """Exact value at l = l0, m = m0 (both rational, l0 nonzero)."""
        l0 = Fraction(l0)
        m0 = Fraction(m0)
        if l0 == 0:
            raise ScalarDomainError("cannot evaluate at l = 0")
        acc = Fraction(0)
        for e, (num, den) in self._terms.items():
            dv = p_eval(den, m0)
            if dv == 0:
                raise ScalarDomainError(f"denominator vanishes at m = {m0}")
            acc += (p_eval(num, m0) / dv) * l0 ** e
        return acc

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
    return _make({0: (P_ONE, P_ONE), 1: ((-1,), P_VAR), -1: (P_ONE, P_VAR)})
