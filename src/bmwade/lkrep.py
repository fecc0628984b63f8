"""Generalized Lawrence-Krammer representations over a coefficient ring.

One recursion and one set of matrix builders (:class:`LKRepresentation`)
run over two coefficient rings: the C-parabolic Hecke algebra
(:class:`LawrenceKrammer`, symbolic) and its one-dimensional character
z -> 1/r (:class:`CharacterSpecialization`, exact rationals at a point, or
Scalars in l and r).  A ring states only its unit, z, l, m and closed form.
The module computes, for a fixed ADE root system:

* the elements h_{beta,i} = z_h, with the node h in C read from
  ``RootSystem.h_node``, which the coefficient rings share;
* the coefficient family T_{i,beta} in the C-parabolic Hecke algebra, by a
  memoized recursion over the equation table.  The recursion has four
  branches, keyed by (alpha_i, beta): zero off the support, 1 at height
  one, a closed form at pairing one (m at height two), and the ``steps``
  of the table, of one commuting-node and two adjacent-node kinds; it takes
  the first step, and the choice-independence checks of ``verify`` compare
  them all.  The closed form is evaluated as a signed Artin word in the
  full-type Hecke algebra, positive letters on the right first (they
  collapse to two terms) and then inverse letters on the left, and then
  projected onto the C-parabolic; a projection failure would falsify the
  theory (or a convention) and is a hard error, never silently repaired;
* the representation matrices sigma_i = tau_i + l^-1 T_i on the free right
  module with basis x_beta indexed by the positive roots, together with the
  derived f_i = sigma_i^2 + m sigma_i - 1 and e_i = (l/m) f_i;
* the specialization through that character, with m = r - r^-1: the same
  recursion and builders run in the character's ring, so each sigma_i stays
  a square matrix of size |Phi+|, at a rational point or with l and r
  symbolic.  There the closed form is m r^(ht beta - 2).

Matrix conventions.  A matrix M acts by sigma(x_beta) = sum_gamma x_gamma *
M[gamma][beta] with coefficients on the right, so operator composition is
plain matrix multiplication with left-factor entries multiplied first.
Matrices are stored column-sparse: HeckeElements or Scalars in a
:class:`SparseMatrix`, rationals in a :class:`RationalMatrix` as integers
over one common denominator that the arithmetic never reduces (no gcd; an
entry read reduces its Fraction).  A vector is a one-column matrix, so ``*``
is the one product.  The ring picks the type, ``LKRepresentation.matrix``.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from functools import cached_property, lru_cache, wraps
from math import lcm

from .hecke import HeckeElement, ParabolicError, _left_mul, _right_mul, eval_signed_word
from .rootsys import DynkinType, Root, RootSystem, build_type
from .scalar import Scalar


class UnsupportedModeError(ValueError):
    """A refused request: outside what a coefficient ring computes, or past the rewrite cap."""


class SparseMatrix:
    """Column-sparse square matrix over any ring with +, -, *, unary - and bool.

    Cell (r, c) is ``cols[c][r] / den``; no zero entry or empty column is
    stored.  Here ``den = 1`` is never divided by and a coefficient of 1 or -1
    multiplies nothing, so Hecke elements and Scalars are stored as they are.
    Every sum, difference and scaling is one :meth:`combine`; it and ``*``
    build each result column in one pass for the trusted constructor ``_own``,
    which keeps the fresh dicts; the public one copies.  A subclass with a
    ``den`` of its own supplies ``_split`` and the entry I/O.
    """

    __slots__ = ("size", "cols", "den")

    def __init__(self, size: int, cols: dict | None = None):
        self.size, self.den = size, 1
        self.cols: dict[int, dict[int, object]] = {}
        if cols:
            for c, col in cols.items():
                kept = {r: v for r, v in col.items() if v}
                if kept:
                    self.cols[c] = kept

    @classmethod
    def _own(cls, size: int, cols: dict, den) -> SparseMatrix:
        """The matrix of the fresh dicts ``cols`` over ``den``, uncopied and with zeros dropped."""
        for c in [c for c, col in cols.items() if not all(col.values())]:
            cols[c] = {r: v for r, v in cols[c].items() if v}
            if not cols[c]:
                del cols[c]
        mat = cls.__new__(cls)
        mat.size, mat.cols, mat.den = size, cols, den
        return mat

    @staticmethod
    def _split(s) -> tuple:
        return s, 1

    @classmethod
    def identity(cls, size: int, one) -> SparseMatrix:
        return cls(size, {i: {i: one} for i in range(size)})

    def column(self, c: int) -> dict:
        return self.cols.get(c, {})

    def entry(self, r: int, c: int):
        return self.cols.get(c, {}).get(r)

    def __eq__(self, other) -> bool:
        """Cellwise: ``cols`` over one ``den``, else cross-multiplied entries."""
        if type(other) is not type(self) or self.size != other.size:
            return False
        if (a := other.den) == (b := self.den):
            return self.cols == other.cols
        return self.cols.keys() == other.cols.keys() and all(
            col.keys() == (ocol := other.cols[c]).keys()
            and all(v * a == ocol[r] * b for r, v in col.items())
            for c, col in self.cols.items())

    def __bool__(self) -> bool:
        return bool(self.cols)

    @classmethod
    def combine(cls, *terms) -> SparseMatrix:
        """The sum of mat * s over the (mat, s) terms, s right-multiplying every
        entry, built column by column in one pass over the terms."""
        scaled = [(mat, k, mat.den * d) for mat, s in terms for k, d in [cls._split(s)] if k]
        den, cols = lcm(*(d for *_, d in scaled)), {}
        for mat, k, d in scaled:
            k = k if d == den else k * (den // d)
            one, neg = k == 1, k == -1
            for c, col in mat.cols.items():
                if (tgt := cols.get(c)) is None:
                    cols[c] = dict(col) if one else {r: -v if neg else v * k for r, v in col.items()}
                elif one:
                    for r, v in col.items():
                        tgt[r] = tgt[r] + v if r in tgt else v
                else:
                    for r, v in col.items():
                        v = -v if neg else v * k
                        tgt[r] = tgt[r] + v if r in tgt else v
        return cls._own(terms[0][0].size, cols, den)

    def __add__(self, other: SparseMatrix) -> SparseMatrix:
        return self.combine((self, 1), (other, 1))

    def __neg__(self) -> SparseMatrix:
        return self.combine((self, -1))

    def __sub__(self, other: SparseMatrix) -> SparseMatrix:
        return self.combine((self, 1), (other, -1))

    def _accumulate(self, vec: dict) -> dict:
        """The stored entries of self times vec, left entries first, zeros kept."""
        acc: dict[int, object] = {}
        for g, bval in vec.items():
            if not (acol := self.cols.get(g)):
                continue
            if acc:
                for r, aval in acol.items():
                    acc[r] = acc[r] + aval * bval if r in acc else aval * bval
            else:  # the first entry's terms start their cells
                for r, aval in acol.items():
                    acc[r] = aval * bval
        return acc

    def __mul__(self, other: SparseMatrix) -> SparseMatrix:
        cols = {c: acc for c, bcol in other.cols.items() if (acc := self._accumulate(bcol))}
        return self._own(self.size, cols, self.den * other.den)

    def map_entries(self, fn) -> SparseMatrix:
        """The matrix of fn(entry), over whatever ring fn maps into."""
        return SparseMatrix(self.size, {c: {r: fn(v) for r, v in self.column(c).items()}
                                        for c in self.cols})

    def scale(self, s) -> SparseMatrix:
        """self * s, with s right-multiplying every entry."""
        return self.combine((self, s))

    def to_json_columns(self, entry_json) -> list:
        return [
            [entry_json(self.entry(r, c)) for r in range(self.size)]
            for c in range(self.size)
        ]


class RationalMatrix(SparseMatrix):
    """A matrix over Q: integers over one denominator ``den > 0``.

    The constructor takes Fraction columns and stores them in lowest terms;
    the arithmetic keeps its operands' denominator product (or lcm) as it
    is, so ``==`` cross-multiplies when two ``den`` differ.  ``entry`` and
    ``column`` return reduced Fractions.
    """

    __slots__ = ()

    def __init__(self, size: int, cols: dict | None = None):
        fracs = {c: {r: Fraction(v) for r, v in col.items()} for c, col in (cols or {}).items()}
        # over the lcm of the reduced denominators, gcd(den, every entry) is already 1
        den = lcm(*(v.denominator for col in fracs.values() for v in col.values()))
        super().__init__(size, {c: {r: v.numerator * (den // v.denominator) for r, v in col.items()}
                                for c, col in fracs.items()})
        self.den = den

    @staticmethod
    def _split(s) -> tuple[int, int]:
        s = Fraction(s)
        return s.numerator, s.denominator

    def column(self, c: int) -> dict:
        return {r: Fraction(v, self.den) for r, v in self.cols.get(c, {}).items()}

    def entry(self, r: int, c: int):
        v = self.cols.get(c, {}).get(r)
        return None if v is None else Fraction(v, self.den)


def _memoized(build):
    """The method ``build``, its values kept per argument tuple in the instance's one memo."""
    name = build.__name__

    @wraps(build)
    def lookup(self, *args):
        memo = self._memo[name]
        value = memo.get(args)
        if value is None:
            value = memo[args] = build(self, *args)
        return value
    return lookup


class LKRepresentation:
    """The T recursion and the matrix builders, over a coefficient ring.

    A subclass supplies the ring, ``unit()``, ``z(j)``, ``t_closed_form(i,
    beta)`` and the type ``matrix``, and passes its scalars one, l and m,
    which right-multiply ring elements and matrix entries.  The rest is
    derived here; x and l/m divide by m and are computed on first use.  One
    memo keeps T and the matrices.  Factors are always multiplied in the
    order of the generic equations (z_h^-1 T in the commuting step, T z_h in
    the adjacent step), so a ring with non-commuting elements sees the true
    order.
    """

    matrix = SparseMatrix

    def __init__(self, rs: RootSystem, one, l, m):
        self.rs = rs
        self.size = len(rs.positive_roots)
        self.one, self.l, self.m = one, l, m
        self.linv = one / l
        self._memo: defaultdict[str, dict] = defaultdict(dict)

    def zero(self):
        return self.unit() - self.unit()

    @cached_property
    def x(self):
        """x = 1 - (l - l^-1)/m, so that e_i^2 = x e_i."""
        return self.one - (self.l - self.linv) / self.m

    @cached_property
    def l_over_m(self):
        return self.l / self.m

    @_memoized
    def z_inv(self, j: int):
        """z_j^-1 = z_j + m."""
        return self.z(j) + self.unit() * self.m

    def h_elem(self, beta: Root, i: int):
        return self.z(self.rs.h_node(beta, i))

    # -- T_{i,beta} ----------------------------------------------------------

    @_memoized
    def t_coeff(self, i: int, beta: Root):
        self.rs.require_root(beta)
        return self._t_compute(i, beta)

    def _t_compute(self, i: int, beta: Root):
        rs = self.rs
        if i not in rs.support(beta):
            return self.zero()
        if beta == rs.alpha(i):
            return self.unit()
        if rs.pairing_simple(i, beta) == 1:
            return self.t_closed_form(i, beta)
        for _, _, value in self.steps(i, beta):
            return value
        raise AssertionError(f"no admissible neighbor for T_({i},{beta})")

    def steps(self, i: int, beta: Root):
        """The equation-table steps for T_{i,beta} when (alpha_i, beta) is 0 or -1.

        Yields (j, commuting, value) lazily for each node j with
        (alpha_j, beta) = 1: the commuting nodes first (z_h^-1 T), then the
        adjacent ones (the p = 0 sum, or T z_h + T m at p = -1).
        """
        rs, t = self.rs, self.t_coeff
        ones = [j for j in rs.nodes if rs.pairing_simple(j, beta) == 1]
        for j in ones:
            if j != i and j not in rs.neighbors[i]:
                yield j, True, self.z_inv(rs.h_node(rs.alpha(i), j)) * t(i, rs.sub_simple(beta, j))
        p = rs.pairing_simple(i, beta)
        for j in ones:
            if j in rs.neighbors[i]:
                gamma = rs.sub_simple(beta, j)
                first = t(j, rs.sub_simple(gamma, i)) if p == 0 else t(j, gamma) * self.h_elem(gamma, i)
                yield j, False, first + t(i, gamma) * self.m

    # -- representation matrices ------------------------------------------------

    def _tau_column(self, i: int, b_idx: int, beta: Root) -> dict:
        rs = self.rs
        p = rs.pairing_simple(i, beta)
        if p == 1:
            return {rs.root_index[rs.sub_simple(beta, i)]: self.unit()}
        if p == 0:
            return {b_idx: self.h_elem(beta, i)}
        if p == -1:
            return {rs.root_index[rs.add_simple(beta, i)]: self.unit(),
                    b_idx: self.unit() * -self.m}
        return {}

    @_memoized
    def sigma(self, i: int) -> SparseMatrix:
        """sigma_i = tau_i + l^-1 T_i, with T_{i,beta} l^-1 in row alpha_i of
        column beta; T_{i,alpha_i} = 1 is known without a lookup."""
        ai = self.rs.alpha(i)
        ai_idx = self.rs.root_index[ai]
        row = {}
        for b_idx, beta in enumerate(self.rs.positive_roots):
            t = self.unit() if beta == ai else self.t_coeff(i, beta)
            if t:
                row[b_idx] = {ai_idx: t * self.linv}
        return self.tau(i) + self.matrix(self.size, row)

    @_memoized
    def tau(self, i: int) -> SparseMatrix:
        cols = {b_idx: self._tau_column(i, b_idx, beta)
                for b_idx, beta in enumerate(self.rs.positive_roots)}
        return self.matrix(self.size, cols)

    def identity_matrix(self) -> SparseMatrix:
        return self.matrix.identity(self.size, self.unit())

    @_memoized
    def e_and_f(self, i: int) -> tuple[SparseMatrix, SparseMatrix]:
        """f_i = sigma_i^2 + m sigma_i - 1 and e_i = (l/m) f_i."""
        s = self.sigma(i)
        f = self.matrix.combine((s * s, 1), (s, self.m), (self.identity_matrix(), -1))
        return f.scale(self.l_over_m), f

    def e_matrix(self, i: int) -> SparseMatrix:
        return self.e_and_f(i)[0]

    @_memoized
    def sigma_inv(self, i: int) -> SparseMatrix:
        return self.matrix.combine(  # sigma_i + m (1 - e_i)
            (self.sigma(i), 1), (self.identity_matrix(), self.m), (self.e_matrix(i), -self.m))

    def word_apply(self, word, vec: SparseMatrix) -> SparseMatrix:
        """sigma_{w_1} ... sigma_{w_k} times the one-column matrix vec, last letter first."""
        for i in reversed(word):
            vec = self.sigma(i) * vec
        return vec


class LawrenceKrammer(LKRepresentation):
    """The generic representation: entries in the C-parabolic Hecke algebra."""

    def __init__(self, rs: RootSystem):
        super().__init__(rs, Scalar.one(), Scalar.l(1), Scalar.m())
        self.c_set = frozenset(rs.c_nodes)

    def z(self, j: int) -> HeckeElement:
        return HeckeElement.generator(self.rs, j)

    def unit(self) -> HeckeElement:
        return HeckeElement.unit(self.rs)

    def h_oracle(self, beta: Root, i: int) -> HeckeElement:
        """Full-type evaluation of d_beta^-1 s_i d_beta, projected onto C.

        Independent route to the same element as :meth:`h_elem`; kept as the
        cross-check target, not used by the recursion.
        """
        rs = self.rs
        d = rs.d_beta_word(beta)
        signed = [(a, -1) for a in reversed(d)] + [(i, +1)] + [(a, +1) for a in d]
        return eval_signed_word(rs, signed).project_subalgebra(self.c_set)

    def t_closed_form(self, i: int, beta: Root) -> HeckeElement:
        """m * (d_{alpha_i}^-1 s_beta^-1 s_i s_beta d_beta) in the C-parabolic.

        The word is evaluated in the Hecke algebra of the full type (inverse
        letters contribute z + m), its positive letters on the right and then
        its inverse letters on the left, and the result is projected onto the
        C-parabolic.
        """
        rs = self.rs
        raw = _closed_form_eval(
            rs, i, rs.s_beta_word(beta), rs.d_beta_word(beta),
            rs.d_beta_word(rs.alpha(i)))
        try:
            return HeckeElement(rs, raw).project_subalgebra(self.c_set).scale(self.m)
        except ParabolicError as exc:
            raise ParabolicError(f"T closed form for i={i}, beta={beta}: {exc}", exc.word) from exc


class CharacterSpecialization(LKRepresentation):
    """The representation through the character z -> 1/r of the C-parabolic.

    ``l`` and ``r`` are rationals (a point l = l0, r = r0, in exact Fraction
    arithmetic; the E-type suites of ``verify``) or Scalars (``Scalar.l(1)``,
    with r the coefficient variable read as r, or a rational constant; the
    matrices of ``bmwade matrices --theta lk``).  The ring's one follows the
    type of r, and m = r - 1/r.  The character extends to the full-type
    Hecke algebra (any root c of c^2 + m c - 1 = 0 defines a one-dimensional
    character), so the T recursion, closed-form step included, runs in that
    ring.  Nothing builds the generic coefficients, which are far too large
    on the E types.  Since the base derives x and l/m on first use, sigma
    and tau also exist at r = 1 and r = -1, where m = 0, and with r
    symbolic, where m is not a unit of the Laurent ring and x, l/m, e_i and
    sigma_i^-1 raise ScalarDomainError.
    """

    def __init__(self, rs: RootSystem, l, r):
        if isinstance(r, Scalar):
            one = Scalar.one()
        else:
            l, r, one = Fraction(l), Fraction(r), Fraction(1)
            self.matrix = RationalMatrix
        if not l:
            raise UnsupportedModeError("l must be nonzero")
        if not r:
            raise UnsupportedModeError("r must be nonzero")
        self.r = r
        self.c0 = one / r
        super().__init__(rs, one, l, r - self.c0)

    def z(self, j: int):
        return self.c0

    def unit(self):
        return self.one

    def t_char(self, i: int, beta: Root):
        """T_{i,beta} under the character; the memoized lookup of this ring."""
        return super().t_coeff(i, beta)

    def t_coeff(self, i: int, beta: Root):
        # every lookup, the recursion's own included, enters through t_char
        return self.t_char(i, beta)

    def t_closed_form(self, i: int, beta: Root):
        """The closed-form word under the character, m r^(ht beta - 2): it has
        ht theta + ht beta positive letters (1/r each) and 2 ht beta + ht theta
        - 2 inverse letters (1/r + m = r each), whatever i is."""
        return self.m * self.r ** (self.rs.height(beta) - 2)


def _closed_form_eval(rs: RootSystem, i: int, s_word, d_b_word, d_ai_word) -> dict:
    """Full-type Hecke terms of d_{alpha_i}^-1 s_beta^-1 s_i s_beta d_beta.

    Right then left (the product is associative): z_i times the letters of
    s_beta and then of d_beta collapses to two terms, and the inverse letters
    of s_beta and then of d_{alpha_i} multiply those on the left.  Above
    height two, no support on the way exceeds the result's (checked on
    A3, A5, A8, D4-D8, E6, E7 and E8 to height 14).
    """
    terms = HeckeElement.generator(rs, i).terms
    terms = _right_mul(rs, terms, s_word + d_b_word)
    return _left_mul(rs, terms, s_word + d_ai_word, inverse=True)


@lru_cache(maxsize=None)
def build_lk(label: str) -> LawrenceKrammer:
    """The generic representation; on E8 and above rank 8 only the character finishes."""
    dtype = DynkinType.parse(label)
    if dtype.rank > 8 or dtype.label == "E8":
        raise UnsupportedModeError(
            f"generic mode covers rank <= 8 except E8; use specialized mode for {label}"
            " (verify --specialize, matrices --theta lk)")
    return LawrenceKrammer(build_type(label))
