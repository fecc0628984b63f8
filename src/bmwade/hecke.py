"""Iwahori-Hecke algebra elements of the fixed ADE type.

An element is a finite linear combination of basis elements T_w with
coefficients in the Laurent ring Q[l^+-1, m^+-1] of ``scalar``, w running
over the Weyl group of the type.  Sums and products
in a parabolic subalgebra, such as the Lawrence-Krammer coefficient algebra
H_C on the nodes C orthogonal to the highest root, are the same as in the
whole algebra, so ``project_subalgebra`` alone checks membership.

Storage is flat: ``terms`` maps each key (w, e, k) to the rational c of the
term c l^e m^k T_w, an ``int``, or a ``Fraction`` when c is not an integer.
No value is zero (sums go through ``scalar._acc``), so the form is unique and
``==`` compares dicts.  The kernel builds no Scalar; ``coeffs`` regroups the
keys by w into Scalars.

The basis is normalized so that T_s = z_s satisfies z^2 = 1 - m z, hence
z^-1 = z + m.  On the right, T_w z_s = T_{ws} when l(ws) > l(w) and
T_{ws} - m T_w otherwise; on the left, z_s T_w = T_{sw} when l(sw) > l(w)
and T_{sw} - m T_w otherwise (Geck-Pfeiffer 2000, 4.4).  Basis elements are
stored as bytes of root indices (see ``rootsys``), so descents are index and
table tests, which ``RootSystem.right_move`` and ``left_move`` make with each
step: on the right, whether the index of w(alpha_s) is a negative root's; on
the left, the sign of (alpha_s, w(2 rho)) read from s's tables.  One letter
loop serves both sides.
Bytes hashes are salted per process, so walks follow dict order, never a
set's.  ``_product``, which ``HeckeElement.__mul__`` wraps and word images
call directly, is the one product on flat terms; it adds into a destination
when handed one.  It walks the reduced words of whichever factor has fewer
terms and multiplies the other factor by their letters from that side.  A
factor c T_1, with c a Scalar, has only the empty word, so on either side it
just scales the other factor (the unit returns it as it is).
No word minimization is ever needed during multiplication.  The parabolic
W_C is never enumerated: only elements that actually arise are
materialized, which keeps E7-sized coefficient algebras usable.

Elements are immutable, so operations may share a terms dict between them.
"""

from __future__ import annotations

from .rootsys import RootSystem, Weyl
from .scalar import Scalar, _acc, _exact, _make


def _times(terms: dict, coeff: dict, out: dict | None = None) -> dict:
    """terms times the Scalar terms coeff {(e, k): c}, added into out when given."""
    if len(coeff) == 1 and not out:  # a monomial shifts keys without collisions
        ((e, k), d), = coeff.items()
        if d != 1:
            terms = {(w, x + e, y + k): _exact(c * d) for (w, x, y), c in terms.items()}
        elif e or k:
            terms = {(w, x + e, y + k): c for (w, x, y), c in terms.items()}
        if out is None:
            return terms
        out.update(terms)  # an empty destination takes the shifted terms whole
        return out
    out = {} if out is None else out
    for (e, k), d in coeff.items():
        for (w, x, y), c in terms.items():
            _acc(out, (w, x + e, y + k), c * d)
    return out


def _by_w(terms: dict) -> dict:
    """The terms grouped as {w: {(e, k): c}}."""
    groups: dict = {}
    for (w, e, k), c in terms.items():
        groups.setdefault(w, {})[(e, k)] = c
    return groups


def _letters(terms: dict, moves, inverse: bool) -> dict:
    """One letter per move in turn: T_w goes to T_v, less m T_w on a descent
    (plus m T_w off one, for the inverse letter z + m), where move(w) = (v,
    descent).  Each w moves once, and v is cached in one of two dicts by
    descent rather than as a pair: fewer live tuples mean fewer garbage
    collections."""
    for move in moves:
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
        terms = out
    return terms


def _right_mul(rs: RootSystem, terms: dict, word, inverse: bool = False) -> dict:
    """Terms of (sum c T_w) times z_j, or z_j^-1, for each j of word in turn."""
    return _letters(terms, map(rs.right_move, word), inverse)


def _left_mul(rs: RootSystem, terms: dict, word, inverse: bool = False) -> dict:
    """Terms of z_j, or z_j^-1, times (sum c T_w), for each j of word in turn."""
    return _letters(terms, map(rs.left_move, word), inverse)


def _product(rs: RootSystem, a: dict, b: dict, out: dict | None = None) -> dict:
    """Terms of a times b, added into out when given.  The reduced words of the
    factor with fewer terms are walked over the other, a left factor's reversed;
    a factor c T_1 only scales the other, checked on both sides before any word
    is read, and a one-term factor is its word's letters, then its coefficient."""
    left = len(a) < len(b)
    walked, fixed = (a, b) if left else (b, a)
    if len(walked) == 1:  # the common one-term factor, grouped without a loop
        ((w, e, k), c), = walked.items()
        groups = {w: {(e, k): c}}
    else:
        groups = _by_w(walked)
    one = rs.identity
    if len(groups) == 1 and one in groups:
        return _times(fixed, groups[one], out)
    if all(w == one for w, _, _ in fixed):
        return _times(walked, {key[1:]: c for key, c in fixed.items()}, out)
    step = _left_mul if left else _right_mul
    if len(groups) == 1:
        (w, c), = groups.items()
        word = rs.reduced_word(w)
        return _times(step(rs, fixed, word[::-1] if left else word), c, out)
    words = [(rs.reduced_word(w)[::-1] if left else rs.reduced_word(w), c)
             for w, c in groups.items()]
    # two words share too little to repay the walk's bookkeeping
    prods = (walk_prefixes(words, fixed, lambda t, j: step(rs, t, (j,)))
             if len(words) > 2 else [(c, step(rs, fixed, w)) for w, c in words])
    out = {} if out is None else out
    for c, prod in prods:
        _times(prod, c, out)
    return out


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
    __slots__ = ("rs", "terms")

    def __init__(self, rs: RootSystem, terms: dict | None = None):
        """From flat terms {(w, e, k): c} in canonical form (no zero c)."""
        self.rs, self.terms = rs, {} if terms is None else terms

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(rs: RootSystem) -> HeckeElement:
        return HeckeElement(rs)

    @staticmethod
    def unit(rs: RootSystem) -> HeckeElement:
        return HeckeElement(rs, {(rs.identity, 0, 0): 1})

    @staticmethod
    def generator(rs: RootSystem, j: int) -> HeckeElement:
        return HeckeElement(rs, {(rs.simple_reflection(j), 0, 0): 1})

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

    def _check_rs(self, other: HeckeElement):
        # root indices of two types mean different elements: a product would be wrong silently
        if self.rs is not other.rs:
            raise ValueError("Hecke elements of two different root systems")

    # -- module operations ---------------------------------------------------

    def __add__(self, other: HeckeElement) -> HeckeElement:
        self._check_rs(other)
        terms = dict(self.terms)
        for key, c in other.terms.items():
            _acc(terms, key, c)
        return HeckeElement(self.rs, terms)

    def __neg__(self) -> HeckeElement:
        return HeckeElement(self.rs, {key: -c for key, c in self.terms.items()})

    def __sub__(self, other: HeckeElement) -> HeckeElement:
        return self + (-other)

    def scale(self, s: Scalar) -> HeckeElement:
        return HeckeElement(self.rs, _times(self.terms, s._terms))

    # -- ring operations -------------------------------------------------------

    def mul_generator(self, j: int, inverse: bool = False) -> HeckeElement:
        """Right multiplication by z_j, or by z_j^-1 = z_j + m."""
        return HeckeElement(self.rs, _right_mul(self.rs, self.terms, (j,), inverse))

    def mul_word(self, word) -> HeckeElement:
        return HeckeElement(self.rs, _right_mul(self.rs, self.terms, word))

    def __mul__(self, other):
        if isinstance(other, Scalar):
            return self.scale(other)
        if not isinstance(other, HeckeElement):
            return NotImplemented
        self._check_rs(other)
        return HeckeElement(self.rs, _product(self.rs, self.terms, other.terms))

    # -- named operations ----------------------------------------------------------

    def project_subalgebra(self, nodes) -> HeckeElement:
        """This element, checked to lie in the parabolic on nodes, or fail naming the offender."""
        nodes = frozenset(nodes)
        for w in dict.fromkeys(w for w, _, _ in self.terms):  # dict order: bytes hashes are salted
            if not in_parabolic(self.rs, w, nodes):
                word = self.rs.reduced_word(w)
                raise ParabolicError(
                    f"basis element {word} lies outside the parabolic on {sorted(nodes)}", word)
        return self

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


def eval_signed_word(rs: RootSystem, word) -> HeckeElement:
    """Evaluate a signed Artin word left to right.

    Each (j, +1) contributes z_j and each (j, -1) contributes z_j + m, the
    inverse of z_j in the Hecke algebra.
    """
    out = HeckeElement.unit(rs)
    for j, sign in word:
        out = out.mul_generator(j, inverse=(sign < 0))
    return out
