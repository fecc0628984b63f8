"""Iwahori-Hecke algebra elements over a parabolic of the fixed ADE type.

An element is a finite linear combination of basis elements T_w with
coefficients in the Laurent ring Q[l^+-1, m^+-1] of ``scalar``, w running
over the parabolic subgroup generated by a ``parent`` node set.  Two parents
matter in practice: the full node set (the evaluation oracle for Artin
words) and the set C orthogonal to the highest root (the coefficient
algebra of the Lawrence-Krammer module, whose generators are written z_j).

Storage is flat: ``terms`` maps each key (w, e, k) to the rational c of the
term c l^e m^k T_w, an ``int``, or a ``Fraction`` when c is not an integer.
No value is zero, so the form is unique and ``==`` compares dicts.  The
kernel builds no Scalar; ``coeffs`` regroups the keys by w into Scalars.

The basis is normalized so that T_s = z_s satisfies z^2 = 1 - m z, hence
z^-1 = z + m.  On the right, T_w z_s = T_{ws} when l(ws) > l(w) and
T_{ws} - m T_w otherwise; on the left, z_s T_w = T_{sw} when l(sw) > l(w)
and T_{sw} - m T_w otherwise (Geck-Pfeiffer 2000, 4.4).  Basis elements are
stored as root indices (see ``rootsys``), so descents are index and table
tests: on the right, whether the index of w(alpha_s) is a negative root's;
on the left, the sign of (alpha_s, w(2 rho)) read from s's tables.  A
product walks the reduced words of whichever factor has fewer terms and
multiplies the other factor by their letters from that side.  No word
minimization is ever needed during multiplication.  The parabolic W_C is
never enumerated: only elements that actually arise are materialized, which
keeps E7-sized coefficient algebras usable.

Elements are immutable, so operations may share a terms dict between them.
"""

from __future__ import annotations

from .rootsys import RootSystem, Weyl
from .scalar import Scalar, _exact, _make


def _acc(terms: dict, key, c) -> None:
    """Add the nonzero rational c into terms[key], dropping the key when the sum is zero."""
    s = terms.get(key)
    if s is None:
        terms[key] = c
    elif s := s + c:
        terms[key] = s if type(s) is int else _exact(s)
    else:
        del terms[key]


def _times(terms: dict, coeff: dict, out: dict | None = None) -> dict:
    """terms times the Scalar terms coeff {(e, k): c}, added into out when given."""
    if out is None:
        if len(coeff) == 1:  # a monomial shifts keys without collisions
            ((e, k), d), = coeff.items()
            if d == 1:
                return terms if not (e or k) else {(w, x + e, y + k): c for (w, x, y), c in terms.items()}
            return {(w, x + e, y + k): _exact(c * d) for (w, x, y), c in terms.items()}
        out = {}
    for (e, k), d in coeff.items():
        for (w, x, y), c in terms.items():
            p = c * d
            _acc(out, (w, x + e, y + k), p if type(p) is int else _exact(p))
    return out


def _by_w(terms: dict) -> dict:
    """The terms grouped as {w: {(e, k): c}}."""
    groups: dict = {}
    for (w, e, k), c in terms.items():
        groups.setdefault(w, {})[(e, k)] = c
    return groups


def _letter(terms: dict, move, inverse: bool) -> dict:
    """One letter: T_w goes to T_v, less m T_w on a descent (plus m T_w off
    one, for the inverse letter z + m), where move(w) = (v, descent).  Each w
    moves once, and v is cached in one of two dicts by descent rather than as
    a pair: fewer live tuples mean fewer garbage collections."""
    out, up, down, extra = {}, {}, {}, []
    for (w, e, k), c in terms.items():
        v = up.get(w)
        if descent := v is None:
            v = down.get(w)
            if v is None:
                v, descent = move(w)
                (down if descent else up)[w] = v
        out[(v, e, k)] = c  # w -> v is one-to-one, so these never collide
        if descent != inverse:
            extra.append(((w, e, k + 1), -c if descent else c))
    for key, c in extra:
        _acc(out, key, c)
    return out


def _right_mul(rs: RootSystem, terms: dict, word, inverse: bool = False) -> dict:
    """Terms of (sum c T_w) times z_j, or z_j^-1, for each j of word in turn."""
    for j in word:
        terms = _letter(terms, lambda w: (rs.right_mul_simple(w, j), w[j - 1] >= rs.n_pos),
                        inverse)
    return terms


def _left_mul(rs: RootSystem, terms: dict, word, inverse: bool = False) -> dict:
    """Terms of z_j, or z_j^-1, times (sum c T_w), for each j of word in turn."""
    for j in word:
        terms = _letter(terms, rs.left_move(j), inverse)
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

    def __init__(self, rs: RootSystem, parent: frozenset, terms: dict | None = None):
        """From flat terms {(w, e, k): c} in canonical form (no zero c)."""
        self.rs, self.parent = rs, parent
        self.terms: dict[tuple[Weyl, int, int], object] = {} if terms is None else terms

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(rs: RootSystem, parent: frozenset) -> HeckeElement:
        return HeckeElement(rs, parent)

    @staticmethod
    def unit(rs: RootSystem, parent: frozenset) -> HeckeElement:
        return HeckeElement(rs, parent, {(rs.identity, 0, 0): 1})

    @staticmethod
    def basis(rs: RootSystem, parent: frozenset, w: Weyl) -> HeckeElement:
        if not in_parabolic(rs, w, parent):
            raise ParabolicError(
                f"element {rs.reduced_word(w)} is not in the parabolic on {sorted(parent)}",
                rs.reduced_word(w),
            )
        return HeckeElement(rs, parent, {(w, 0, 0): 1})

    @staticmethod
    def generator(rs: RootSystem, parent: frozenset, j: int) -> HeckeElement:
        return HeckeElement.basis(rs, parent, rs.simple_reflection(j))

    # -- structure --------------------------------------------------------

    def coeffs(self) -> dict:
        """The coefficient of each T_w, as {w: Scalar}."""
        return {w: _make(g) for w, g in _by_w(self.terms).items()}

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_l_free(self) -> bool:
        return all(e == 0 for _, e, _ in self.terms)

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
        for key, c in other.terms.items():
            _acc(terms, key, c)
        return HeckeElement(self.rs, self.parent, terms)

    def __neg__(self) -> HeckeElement:
        return HeckeElement(self.rs, self.parent, {key: -c for key, c in self.terms.items()})

    def __sub__(self, other: HeckeElement) -> HeckeElement:
        return self + (-other)

    def scale(self, s: Scalar) -> HeckeElement:
        return HeckeElement(self.rs, self.parent, _times(self.terms, s._terms))

    # -- ring operations -------------------------------------------------------

    def mul_generator(self, j: int, inverse: bool = False) -> HeckeElement:
        """Right multiplication by z_j, or by z_j^-1 = z_j + m."""
        return HeckeElement(self.rs, self.parent, _right_mul(self.rs, self.terms, (j,), inverse))

    def mul_word(self, word) -> HeckeElement:
        return HeckeElement(self.rs, self.parent, _right_mul(self.rs, self.terms, word))

    def __mul__(self, other):
        if isinstance(other, Scalar):
            return self.scale(other)
        if not isinstance(other, HeckeElement):
            return NotImplemented
        self._check_parent(other)
        rs = self.rs
        # walk the words of the factor with fewer terms; a left word acts reversed
        left = len(self.terms) < len(other.terms)
        walked, fixed, step = (self, other, _left_mul) if left else (other, self, _right_mul)
        fixed = fixed.terms
        words = [(rs.reduced_word(w)[::-1] if left else rs.reduced_word(w), c)
                 for w, c in _by_w(walked.terms).items()]
        # two words share too little to repay the walk's bookkeeping
        prods = (walk_prefixes(words, fixed, lambda t, j: step(rs, t, (j,)))
                 if len(words) > 2 else [(c, step(rs, fixed, w)) for w, c in words])
        terms = None if len(words) == 1 else {}  # one product needs no accumulator
        for c, prod in prods:
            terms = _times(prod, c, terms)
        return HeckeElement(rs, self.parent, terms)

    # -- named operations ----------------------------------------------------------

    def project_subalgebra(self, nodes) -> HeckeElement:
        """Re-parent onto a sub-parabolic, or fail naming the offender."""
        nodes = frozenset(nodes)
        for w in {w for w, _, _ in self.terms}:
            if not in_parabolic(self.rs, w, nodes):
                raise ParabolicError(
                    f"basis element {self.rs.reduced_word(w)} lies outside "
                    f"the parabolic on {sorted(nodes)}",
                    self.rs.reduced_word(w),
                )
        return HeckeElement(self.rs, nodes, self.terms)

    # -- presentation ------------------------------------------------------

    def sorted_terms(self):
        rs = self.rs
        return sorted(
            self.coeffs().items(),
            key=lambda kv: (len(rs.reduced_word(kv[0])), rs.reduced_word(kv[0])))

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
