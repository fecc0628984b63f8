"""Exact arithmetic in the Laurent ring Q[l^+-1, m^+-1].

A Scalar is a Laurent polynomial in the invertible indeterminates l and m
with exact rational coefficients.  This ring carries every coefficient of
the algebra: the generic sigma_i entries lie in Z[l^+-1, m], and x and the
l/m of e_i = (l/m) f_i add only 1/m.  The parameters l and m live here
directly; x = 1 - (l - l^-1)/m is derived where it is used.

Storage is flat: ``_terms`` maps each monomial l^e m^k, keyed ``(e, k)``,
to its coefficient c, an ``int``, or a ``Fraction`` when c is not an
integer.  No value is zero, so the form is unique: two Scalars are equal as
ring elements iff their dicts are equal, and ``==`` is both cheap and exact.
Every sparse sum of the package, of rationals, Scalars or Hecke elements,
goes through ``_acc``, which keeps that form.  A one-term operand of a
product shifts keys; the general product is one double loop of ``_acc``.  The units are the single terms c l^e m^k: dividing by one
shifts the keys and divides by c, and dividing by anything else raises
:class:`ScalarDomainError`.  Values are immutable and all operations are
pure, which makes them safe to share between threads.

``items``, ``repr`` and ``to_json_dict`` group the keys by l exponent and
present each group Q-monic as num/den, polynomials in m with den = m^k
(k the negated least m exponent, 0 when none is negative).  Polynomials in
m are plain tuples, ascending degree.  The representation layer reuses the
same ring with the variable read as r (tied to m by m = r - r^-1, which is
not a unit there); nothing here depends on the variable's name.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import prod
from typing import Iterator


class ScalarDomainError(ArithmeticError):
    """Division by a non-unit, or evaluation at a pole."""


def _exact(c):
    """c, with an integral Fraction stored as its int numerator; any other value unchanged."""
    return c.numerator if type(c) is Fraction and c.denominator == 1 else c


def _acc(terms: dict, key, c) -> None:
    """Add the nonzero c (a rational, Scalar or HeckeElement) into terms[key],
    dropping the key when the sum is zero."""
    if (s := terms.get(key)) is not None and not (c := s + c):
        del terms[key]
    else:
        terms[key] = _exact(c)


def _make(terms: dict) -> Scalar:
    """A Scalar over terms already in canonical form."""
    s = Scalar.__new__(Scalar)
    object.__setattr__(s, "_terms", terms)
    return s


class Scalar:
    """Immutable element of Q[l^+-1, m^+-1] in canonical form."""

    __slots__ = ("_terms",)

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
        return _make({(exp, 0): 1})

    @staticmethod
    def from_fraction(q) -> Scalar:
        q = Fraction(q)
        return _make({(0, 0): _exact(q)}) if q else _ZERO

    # -- structure ---------------------------------------------------

    def items(self) -> Iterator[tuple[int, tuple[tuple, tuple]]]:
        """Terms by ascending l exponent, each coefficient as (num, den) with
        den = m^k monic, entries int or Fraction."""
        groups: dict[int, dict[int, int | Fraction]] = {}
        for (e, k), c in self._terms.items():
            groups.setdefault(e, {})[k] = c
        for e in sorted(groups):
            coeffs = groups[e]
            shift = max(0, -min(coeffs))
            num = [0] * (max(coeffs) + shift + 1)
            for k, c in coeffs.items():
                num[k + shift] = c
            yield e, (tuple(num), (0,) * shift + (1,))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, Scalar):
            return self._terms == other._terms
        if other == 0:
            return not self._terms
        if isinstance(other, (int, Fraction)):
            return self == Scalar.from_fraction(other)
        return NotImplemented

    def __hash__(self):
        if self._terms.keys() <= {(0, 0)}:
            return hash(self._terms.get((0, 0), 0))  # a rational constant hashes as its value
        return hash(frozenset(self._terms.items()))

    # -- ring operations ---------------------------------------------

    def __add__(self, other: Scalar) -> Scalar:
        if not other._terms:
            return self
        if not self._terms:
            return other
        terms = dict(self._terms)
        for key, c in other._terms.items():
            _acc(terms, key, c)
        return _make(terms)

    def __neg__(self) -> Scalar:
        return _make({key: -c for key, c in self._terms.items()})

    def __sub__(self, other: Scalar) -> Scalar:
        return self + (-other)

    def __mul__(self, other: Scalar) -> Scalar:
        big, small = (self, other) if len(self._terms) >= len(other._terms) else (other, self)
        a, b = big._terms, small._terms
        if not b:
            return _ZERO
        if len(b) == 1:
            ((e, k), c), = b.items()
            if c == 1:
                if not e and not k:
                    return big
                return _make({(x + e, y + k): v for (x, y), v in a.items()})
            return _make({(x + e, y + k): _exact(v * c) for (x, y), v in a.items()})
        terms: dict[tuple[int, int], int | Fraction] = {}
        for (x, y), v in a.items():
            for (e, k), c in b.items():
                _acc(terms, (x + e, y + k), v * c)
        return _make(terms)

    def __truediv__(self, other: Scalar) -> Scalar:
        """Division by a unit c*l^e*m^k; any other divisor raises."""
        if not other._terms:
            raise ScalarDomainError("division by zero Scalar")
        if len(other._terms) > 1:
            raise ScalarDomainError(f"{other!r} is not a unit of Q[l^+-1, m^+-1]")
        ((e, k), c), = other._terms.items()
        return self * _make({(-e, -k): _exact(1 / Fraction(c))})

    def __pow__(self, k: int) -> Scalar:
        """self ** k for an int k >= 0, as k products from the unit."""
        if not isinstance(k, int) or k < 0:
            raise ValueError(f"Scalar power needs an int exponent >= 0, got {k!r}")
        return prod(repeat(self, k), start=_ONE)

    def scale(self, q) -> Scalar:
        return self * Scalar.from_fraction(q)

    # -- evaluation ----------------------------------------------------

    def eval_at(self, l0, m0) -> Fraction:
        """Exact value at l = l0, m = m0 (both rational, l0 nonzero)."""
        l0 = Fraction(l0)
        m0 = Fraction(m0)
        if l0 == 0:
            raise ScalarDomainError("cannot evaluate at l = 0")
        if m0 == 0 and any(k < 0 for _, k in self._terms):
            raise ScalarDomainError(f"denominator vanishes at m = {m0}")
        return sum((c * l0 ** e * m0 ** k for (e, k), c in self._terms.items()), Fraction(0))

    # -- presentation --------------------------------------------------

    def __repr__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for e, (num, den) in self.items():
            coeff = _poly_str(num)
            if len(den) > 1:
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


_ZERO = _make({})
_ONE = _make({(0, 0): 1})
_M = _make({(0, 1): 1})


def _poly_str(p: tuple) -> str:
    parts = []
    for i, c in enumerate(p):
        if not c:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            v = "m" if i == 1 else f"m^{i}"
            if c == 1:
                parts.append(v)
            elif c == -1:
                parts.append(f"-{v}")
            else:
                parts.append(f"{c}*{v}")
    return " + ".join(parts).replace("+ -", "- ")

