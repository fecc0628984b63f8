"""Iwahori-Hecke algebra elements over a parabolic of the fixed ADE type.

An element is a finite Scalar-linear combination of basis elements T_w with
w running over the parabolic subgroup generated by a ``parent`` node set.
Two parents matter in practice: the full node set (the evaluation oracle for
Artin words) and the set C orthogonal to the highest root (the coefficient
algebra of the Lawrence-Krammer module, whose generators are written z_j).

The basis is normalized so that T_s = z_s satisfies z^2 = 1 - m z, hence
z^-1 = z + m, and products follow T_w T_s = T_{ws} when l(ws) > l(w) and
T_{ws} - m T_w otherwise.  The left product by z_s^-1 = z_s + m gives
T_{sw} when l(sw) < l(w) and T_{sw} + m T_w otherwise.  Basis elements are
stored as root indices (see ``rootsys``), so descents are index and table
tests: on the right, whether the index of w(alpha_s) is a negative root's;
on the left, the sign of (alpha_s, w(2 rho)) read from s's pairing table.
No word minimization is ever needed during multiplication.  The parabolic
W_C is never enumerated: only elements that actually arise are
materialized, which keeps E7-sized coefficient algebras usable.

Elements are immutable; all operations return fresh values.
"""

from __future__ import annotations

from .rootsys import RootSystem, Weyl
from .scalar import Scalar

_M = Scalar.m()
_NEG_M = -_M


def _acc(terms: dict, w: Weyl, c: Scalar) -> None:
    """Add the nonzero c into terms[w], dropping the key when the sum is zero."""
    s = terms.get(w)
    if s is not None and not (c := s + c):
        del terms[w]
    else:
        terms[w] = c


def _right_mul(rs: RootSystem, terms: dict, word, inverse: bool = False) -> dict:
    """Nonzero terms of (sum c T_w) times z_j, or z_j^-1, for each j of word."""
    for j in word:
        out: dict[Weyl, Scalar] = {}
        for w, c in terms.items():
            _acc(out, rs.right_mul_simple(w, j), c)
            descent = w[j - 1] >= rs.n_pos
            if descent != inverse:
                _acc(out, w, c * (_NEG_M if descent else _M))
        terms = out
    return terms


def walk_prefixes(items, start, step):
    """Yield (payload, ``start`` stepped by ``step(image, letter)`` along word) for
    (word, payload) items in word order.  Sorted words sharing a prefix are adjacent,
    so keeping just the current chain of prefix images steps each prefix once."""
    chain, prev = [start], ()
    for word, payload in sorted(items, key=lambda item: item[0]):
        keep = 0
        for a, b in zip(prev, word):
            if a != b:
                break
            keep += 1
        del chain[keep + 1:]
        for letter in word[keep:]:
            chain.append(step(chain[-1], letter))
        prev = word
        yield payload, chain[-1]


class ParabolicError(ValueError):
    """A basis element fell outside the requested parabolic subgroup."""

    def __init__(self, message: str, word=None):
        super().__init__(message)
        self.word = word


def in_parabolic(rs: RootSystem, w: Weyl, nodes: frozenset) -> bool:
    """Whether w lies in the standard parabolic generated by ``nodes``.

    Every reduced word of w uses the same letters, and w lies in W_J exactly
    when those letters are in J; the cached canonical word is checked.
    """
    return set(rs.reduced_word(w)) <= nodes


class HeckeElement:
    __slots__ = ("rs", "parent", "terms")

    def __init__(self, rs: RootSystem, parent: frozenset, terms: dict | None = None,
                 nonzero: bool = False):
        self.rs, self.parent = rs, parent
        self.terms: dict[Weyl, Scalar] = (  # nonzero: the caller vouches for every c
            terms if nonzero else {w: c for w, c in (terms or {}).items() if c})

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(rs: RootSystem, parent: frozenset) -> HeckeElement:
        return HeckeElement(rs, parent)

    @staticmethod
    def unit(rs: RootSystem, parent: frozenset) -> HeckeElement:
        return HeckeElement(rs, parent, {rs.identity: Scalar.one()})

    @staticmethod
    def basis(rs: RootSystem, parent: frozenset, w: Weyl) -> HeckeElement:
        if not in_parabolic(rs, w, parent):
            raise ParabolicError(
                f"element {rs.reduced_word(w)} is not in the parabolic on {sorted(parent)}",
                rs.reduced_word(w),
            )
        return HeckeElement(rs, parent, {w: Scalar.one()})

    @staticmethod
    def generator(rs: RootSystem, parent: frozenset, j: int) -> HeckeElement:
        return HeckeElement.basis(rs, parent, rs.simple_reflection(j))

    # -- structure --------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_l_free(self) -> bool:
        return all(c.is_l_free() for c in self.terms.values())

    def __eq__(self, other) -> bool:
        if isinstance(other, HeckeElement):
            return self.terms == other.terms
        if other == 0:
            return not self.terms
        return NotImplemented

    def _check_parent(self, other: HeckeElement):
        if self.parent != other.parent or self.rs is not other.rs:
            raise ParabolicError("parent parabolic mismatch")

    # -- module operations ---------------------------------------------------

    def __add__(self, other: HeckeElement) -> HeckeElement:
        self._check_parent(other)
        terms = dict(self.terms)
        for w, c in other.terms.items():
            _acc(terms, w, c)
        return HeckeElement(self.rs, self.parent, terms, nonzero=True)

    def __neg__(self) -> HeckeElement:
        return HeckeElement(self.rs, self.parent, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other: HeckeElement) -> HeckeElement:
        return self + (-other)

    def scale(self, s: Scalar) -> HeckeElement:
        if not s:
            return HeckeElement(self.rs, self.parent)
        return HeckeElement(self.rs, self.parent, {w: c * s for w, c in self.terms.items()})

    # -- ring operations -------------------------------------------------------

    def mul_generator(self, j: int, inverse: bool = False) -> HeckeElement:
        """Right multiplication by z_j, or by z_j^-1 = z_j + m."""
        terms = _right_mul(self.rs, self.terms, (j,), inverse)
        return HeckeElement(self.rs, self.parent, terms, nonzero=True)

    def left_mul_inverse(self, j: int) -> HeckeElement:
        """Left multiplication by z_j^-1 = z_j + m.

        (z_j + m) T_w is T_{jw} when j is a left descent of w and
        T_{jw} + m T_w otherwise.
        """
        rs = self.rs
        terms: dict[Weyl, Scalar] = {}
        for w, c in self.terms.items():
            _acc(terms, rs.left_mul_simple(j, w), c)
            if not rs.left_descent(j, w):
                _acc(terms, w, _M * c)
        return HeckeElement(rs, self.parent, terms, nonzero=True)

    def mul_word(self, word) -> HeckeElement:
        terms = _right_mul(self.rs, self.terms, word)
        return HeckeElement(self.rs, self.parent, terms, nonzero=True)

    def __mul__(self, other):
        if isinstance(other, Scalar):
            return self.scale(other)
        if not isinstance(other, HeckeElement):
            return NotImplemented
        self._check_parent(other)
        rs = self.rs
        terms: dict[Weyl, Scalar] = {}
        words = [(rs.reduced_word(w), c) for w, c in other.terms.items()]
        # two words share too little to repay the walk's bookkeeping
        prods = (walk_prefixes(words, self.terms, lambda t, j: _right_mul(rs, t, (j,)))
                 if len(words) > 2 else [(c, _right_mul(rs, self.terms, w)) for w, c in words])
        for c, prod in prods:
            for v, d in prod.items():
                _acc(terms, v, d * c)
        return HeckeElement(rs, self.parent, terms, nonzero=True)

    # -- named operations ----------------------------------------------------------

    def project_subalgebra(self, nodes) -> HeckeElement:
        """Re-parent onto a sub-parabolic, or fail naming the offender."""
        nodes = frozenset(nodes)
        for w in self.terms:
            if not in_parabolic(self.rs, w, nodes):
                raise ParabolicError(
                    f"basis element {self.rs.reduced_word(w)} lies outside "
                    f"the parabolic on {sorted(nodes)}",
                    self.rs.reduced_word(w),
                )
        return HeckeElement(self.rs, nodes, dict(self.terms))

    # -- presentation ------------------------------------------------------

    def sorted_terms(self):
        rs = self.rs
        return sorted(
            self.terms.items(), key=lambda kv: (len(rs.reduced_word(kv[0])), rs.reduced_word(kv[0]))
        )

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for w, c in self.sorted_terms():
            word = self.rs.reduced_word(w)
            basis = "1" if not word else "z" + "*z".join(str(j) for j in word)
            parts.append(f"({c!r})*{basis}")
        return " + ".join(parts)

    def to_json_dict(self) -> dict:
        return {
            "terms": [
                {"word": list(self.rs.reduced_word(w)), "coeff": c.to_json_dict()}
                for w, c in self.sorted_terms()
            ]
        }


def eval_signed_word(rs: RootSystem, parent: frozenset, word) -> HeckeElement:
    """Evaluate a signed Artin word left to right.

    Each (j, +1) contributes z_j and each (j, -1) contributes z_j + m, the
    inverse of z_j in the Hecke algebra.
    """
    parent = frozenset(parent)
    out = HeckeElement.unit(rs, parent)
    for j, sign in word:
        if j not in parent:
            raise ParabolicError(f"node {j} is not in the parent parabolic")
        out = out.mul_generator(j, inverse=(sign < 0))
    return out
