"""Generalized Lawrence-Krammer representations over a coefficient ring.

One recursion and one set of matrix builders (:class:`LKRepresentation`)
run over two coefficient rings: the C-parabolic Hecke algebra
(:class:`LawrenceKrammer`, symbolic) and its one-dimensional character
z -> 1/r (:class:`CharacterSpecialization`, exact rationals at a point, or
Scalars in l and r).  The module computes, for a fixed ADE root system:

* the elements h_{beta,i} = z_h, with the node h in C read from
  ``RootSystem.h_node``, which the coefficient rings share;
* the coefficient family T_{i,beta} in the C-parabolic Hecke algebra, by a
  memoized recursion over the equation table.  The recursion has five
  branches, keyed by (alpha_i, beta): zero off the support, explicit values
  at heights one and two, a closed form at pairing one, a commuting-node
  step, and two adjacent-node steps.  ``steps`` yields every admissible
  step; the recursion takes the first, and the choice-independence checks
  of ``verify`` compare them all.  The closed form is evaluated as a
  signed Artin word in the full-type Hecke algebra and then projected onto
  the C-parabolic; a projection failure would falsify the theory (or a
  convention) and is a hard error, never silently repaired;
* the representation matrices sigma_i = tau_i + l^-1 T_i on the free right
  module with basis x_beta indexed by the positive roots, together with the
  derived f_i = sigma_i^2 + m sigma_i - 1 and e_i = (l/m) f_i;
* the specialization through that character, with m = r - r^-1: the same
  recursion and builders run in the character's ring, so each sigma_i stays
  a square matrix of size |Phi+|, at a rational point or with l and r
  symbolic.

Matrix conventions.  A matrix M acts by sigma(x_beta) = sum_gamma x_gamma *
M[gamma][beta] with coefficients on the right, so operator composition is
plain matrix multiplication with left-factor entries multiplied first.
Matrices are stored column-sparse: HeckeElements or Scalars in a
:class:`SparseMatrix`, rationals in a :class:`RationalMatrix` as integers
over one common denominator (one gcd per matrix, not one per entry product).
The ring picks the type, ``LKRepresentation.matrix``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm

from .hecke import HeckeElement, ParabolicError, _left_mul, _right_mul, eval_signed_word
from .rootsys import DynkinType, Root, RootSystem, build_type
from .scalar import Scalar, x_value


class UnsupportedModeError(ValueError):
    """A request outside what a coefficient ring computes."""


class SparseMatrix:
    """Column-sparse square matrix over any ring with +, *, unary - and bool.

    Cell (r, c) is ``cols[c][r] / den``; no zero entry or empty column is
    stored.  Here ``den = 1`` is never divided by and a factor of 1
    multiplies nothing, so Hecke elements and Scalars are stored as they are.
    The arithmetic is written once over this form; a subclass with its own
    ``den`` supplies the normal form, ``_split`` and the entry I/O.
    """

    __slots__ = ("size", "cols")
    den = 1

    def __init__(self, size: int, cols: dict | None = None):
        self.size = size
        self.cols: dict[int, dict[int, object]] = {}
        if cols:
            for c, col in cols.items():
                kept = {r: v for r, v in col.items() if v}
                if kept:
                    self.cols[c] = kept

    @classmethod
    def _normal(cls, size: int, cols: dict, den) -> SparseMatrix:
        """The matrix with entries ``cols`` over ``den``, which is 1 here."""
        return cls(size, cols)

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
        return (type(other) is type(self) and self.size == other.size
                and self.den == other.den and self.cols == other.cols)

    def __bool__(self) -> bool:
        return bool(self.cols)

    def _over(self, den) -> dict:
        """A copy of the entries, brought over the multiple ``den`` of self.den."""
        f = den // self.den
        if f == 1:
            return {c: dict(col) for c, col in self.cols.items()}
        return {c: {r: v * f for r, v in col.items()} for c, col in self.cols.items()}

    def __add__(self, other: SparseMatrix) -> SparseMatrix:
        den = lcm(self.den, other.den)
        cols = self._over(den)
        for c, col in other._over(den).items():
            tgt = cols.setdefault(c, {})
            for r, v in col.items():
                tgt[r] = tgt[r] + v if r in tgt else v
        return self._normal(self.size, cols, den)

    def __neg__(self) -> SparseMatrix:
        return self._normal(
            self.size, {c: {r: -v for r, v in col.items()} for c, col in self.cols.items()}, self.den)

    def __sub__(self, other: SparseMatrix) -> SparseMatrix:
        return self + (-other)

    def _accumulate(self, vec: dict) -> dict:
        """The stored entries of self times vec, left entries first, zeros kept."""
        acc: dict[int, object] = {}
        for g, bval in vec.items():
            acol = self.cols.get(g)
            if not acol:
                continue
            for r, aval in acol.items():
                prod = aval * bval
                cur = acc.get(r)
                acc[r] = prod if cur is None else cur + prod
        return acc

    def apply(self, vec: dict) -> dict:
        """The column self * vec, left entries first and without zero entries."""
        return {r: v for r, v in self._accumulate(vec).items() if v}

    def __mul__(self, other: SparseMatrix) -> SparseMatrix:
        return self._normal(
            self.size, {c: self._accumulate(col) for c, col in other.cols.items()},
            self.den * other.den)

    def map_entries(self, fn) -> SparseMatrix:
        """The matrix of fn(entry), over whatever ring fn maps into."""
        return SparseMatrix(self.size, {c: {r: fn(v) for r, v in self.column(c).items()}
                                        for c in self.cols})

    def scale(self, s) -> SparseMatrix:
        """self * s, with s right-multiplying every entry."""
        num, den = self._split(s)
        return self._normal(
            self.size, {c: {r: v * num for r, v in col.items()} for c, col in self.cols.items()},
            self.den * den)

    def to_json_columns(self, entry_json) -> list:
        return [
            [entry_json(self.entry(r, c)) for r in range(self.size)]
            for c in range(self.size)
        ]


class RationalMatrix(SparseMatrix):
    """A matrix over Q: integers over one denominator ``den > 0``, in lowest terms.

    The form is canonical (gcd(den, every entry) = 1), so ``==`` compares
    ``den`` and ``cols``.  The constructor takes Fraction columns, and
    ``entry``, ``column`` and ``apply`` read and return Fractions.
    """

    __slots__ = ("den",)

    def __init__(self, size: int, cols: dict | None = None):
        fracs = {c: {r: Fraction(v) for r, v in col.items()} for c, col in (cols or {}).items()}
        # over the lcm of the reduced denominators, gcd(den, every entry) is already 1
        den = lcm(*(v.denominator for col in fracs.values() for v in col.values()))
        super().__init__(size, {c: {r: v.numerator * (den // v.denominator) for r, v in col.items()}
                                for c, col in fracs.items()})
        self.den = den

    @classmethod
    def _normal(cls, size: int, cols: dict, den: int) -> RationalMatrix:
        mat = cls.__new__(cls)
        SparseMatrix.__init__(mat, size, cols)
        g = gcd(den, *(v for col in mat.cols.values() for v in col.values()))
        if g != 1:
            mat.cols = {c: {r: v // g for r, v in col.items()} for c, col in mat.cols.items()}
        mat.den = den // g
        return mat

    @staticmethod
    def _split(s) -> tuple[int, int]:
        s = Fraction(s)
        return s.numerator, s.denominator

    def column(self, c: int) -> dict:
        return {r: Fraction(v, self.den) for r, v in self.cols.get(c, {}).items()}

    def entry(self, r: int, c: int):
        v = self.cols.get(c, {}).get(r)
        return None if v is None else Fraction(v, self.den)

    def apply(self, vec: dict) -> dict:
        return {r: Fraction(v, self.den) for r, v in self._accumulate(vec).items() if v}


class LKRepresentation:
    """The T recursion and the matrix builders, over a coefficient ring.

    A subclass supplies the ring: ``zero()``, ``unit()``, ``z(j)`` and
    ``t_closed_form(i, beta)``, plus the ground scalars ``m``, ``l``,
    ``linv``, ``x`` and ``l_over_m``, which right-multiply ring elements and
    matrix entries, and the type ``matrix`` of its matrices.  Factors are
    always multiplied in the order of the generic equations (z_h^-1 T in the
    commuting step, T z_h in the adjacent step), so a ring with
    non-commuting elements sees the true order.
    """

    matrix = SparseMatrix

    def __init__(self, rs: RootSystem):
        self.rs = rs
        self.c_set = frozenset(rs.c_nodes)
        self.size = len(rs.positive_roots)
        self._t_memo: dict[tuple[int, Root], object] = {}
        self._sigma: dict[int, SparseMatrix] = {}
        self._sigma_inv: dict[int, SparseMatrix] = {}
        self._tau: dict[int, SparseMatrix] = {}
        self._ef: dict[int, tuple[SparseMatrix, SparseMatrix]] = {}

    def z_inv(self, j: int):
        """z_j^-1 = z_j + m."""
        return self.z(j) + self.unit() * self.m

    def h_elem(self, beta: Root, i: int):
        return self.z(self.rs.h_node(beta, i))

    # -- T_{i,beta} ----------------------------------------------------------

    def t_coeff(self, i: int, beta: Root):
        self.rs.require_root(beta)
        key = (i, beta)
        cached = self._t_memo.get(key)
        if cached is None:
            cached = self._t_compute(i, beta)
            self._t_memo[key] = cached
        return cached

    def _t_compute(self, i: int, beta: Root):
        rs = self.rs
        if i not in rs.support(beta):
            return self.zero()
        if beta == rs.alpha(i):
            return self.unit()
        if rs.height(beta) == 2:
            return self.unit() * self.m
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

    def sigma(self, i: int) -> SparseMatrix:
        """sigma_i = tau_i + l^-1 T_i, with T_{i,beta} l^-1 in row alpha_i of
        column beta; T_{i,alpha_i} = 1 is known without a lookup."""
        cached = self._sigma.get(i)
        if cached is None:
            ai = self.rs.alpha(i)
            ai_idx = self.rs.root_index[ai]
            row = {}
            for b_idx, beta in enumerate(self.rs.positive_roots):
                t = self.unit() if beta == ai else self.t_coeff(i, beta)
                if t:
                    row[b_idx] = {ai_idx: t * self.linv}
            cached = self.tau(i) + self.matrix(self.size, row)
            self._sigma[i] = cached
        return cached

    def tau(self, i: int) -> SparseMatrix:
        cached = self._tau.get(i)
        if cached is None:
            cols = {b_idx: self._tau_column(i, b_idx, beta)
                    for b_idx, beta in enumerate(self.rs.positive_roots)}
            cached = self.matrix(self.size, cols)
            self._tau[i] = cached
        return cached

    def identity_matrix(self) -> SparseMatrix:
        return self.matrix.identity(self.size, self.unit())

    def e_and_f(self, i: int) -> tuple[SparseMatrix, SparseMatrix]:
        """f_i = sigma_i^2 + m sigma_i - 1 and e_i = (l/m) f_i."""
        cached = self._ef.get(i)
        if cached is None:
            s = self.sigma(i)
            f = s * s + s.scale(self.m) - self.identity_matrix()
            cached = (f.scale(self.l_over_m), f)
            self._ef[i] = cached
        return cached

    def e_matrix(self, i: int) -> SparseMatrix:
        return self.e_and_f(i)[0]

    def sigma_inv(self, i: int) -> SparseMatrix:
        cached = self._sigma_inv.get(i)
        if cached is None:
            cached = self.sigma(i) + (self.identity_matrix() - self.e_matrix(i)).scale(self.m)
            self._sigma_inv[i] = cached
        return cached

    def word_apply(self, word, vec: dict) -> dict:
        """sigma_{w_1} ... sigma_{w_k} applied to the column vec, last letter first."""
        for i in reversed(word):
            vec = self.sigma(i).apply(vec)
        return vec


class LawrenceKrammer(LKRepresentation):
    """The generic representation: entries in the C-parabolic Hecke algebra."""

    m = Scalar.m()
    l = Scalar.l(1)
    linv = Scalar.l(-1)
    x = x_value()
    l_over_m = Scalar.l(1) / Scalar.m()

    def __init__(self, rs: RootSystem):
        super().__init__(rs)
        self.full_set = frozenset(rs.nodes)

    def z(self, j: int) -> HeckeElement:
        return HeckeElement.generator(self.rs, self.c_set, j)

    def unit(self) -> HeckeElement:
        return HeckeElement.unit(self.rs, self.c_set)

    def zero(self) -> HeckeElement:
        return HeckeElement.zero(self.rs, self.c_set)

    def h_oracle(self, beta: Root, i: int) -> HeckeElement:
        """Full-type evaluation of d_beta^-1 s_i d_beta, projected onto C.

        Independent route to the same element as :meth:`h_elem`; kept as the
        cross-check target, not used by the recursion.
        """
        rs = self.rs
        d = rs.d_beta_word(beta)
        signed = [(a, -1) for a in reversed(d)] + [(i, +1)] + [(a, +1) for a in d]
        return eval_signed_word(rs, self.full_set, signed).project_subalgebra(self.c_set)

    def t_closed_form(self, i: int, beta: Root) -> HeckeElement:
        """m * (d_{alpha_i}^-1 s_beta^-1 s_i s_beta d_beta) in the C-parabolic.

        The word is evaluated in the Hecke algebra of the full type (inverse
        letters contribute z + m) and the result is projected onto the
        C-parabolic.  The product is assembled as a conjugation followed by
        one-sided letter multiplications, which keeps intermediate supports
        small.
        """
        rs = self.rs
        raw = _closed_form_eval(
            rs, i, rs.s_beta_word(beta), rs.d_beta_word(beta),
            rs.d_beta_word(rs.alpha(i)))
        try:
            projected = HeckeElement(rs, self.full_set, raw).project_subalgebra(self.c_set)
        except ParabolicError as exc:
            raise ParabolicError(f"T closed form for i={i}, beta={beta}: {exc}", exc.word) from exc
        return projected.scale(self.m)


class CharacterSpecialization(LKRepresentation):
    """The representation through the character z -> 1/r of the C-parabolic.

    ``l`` and ``r`` are rationals (a point l = l0, r = r0, in exact Fraction
    arithmetic; the E-type suites of ``verify``) or Scalars (``Scalar.l(1)``,
    with r the coefficient variable read as r, or a rational constant; the
    matrices of ``bmwade matrices --theta lk``).  The ring's one and zero
    follow the type of r, and m = r - 1/r.  The character extends to the
    full-type Hecke algebra (any root c of c^2 + m c - 1 = 0 defines a
    one-dimensional character), so the T recursion, closed-form step
    included, runs in that ring: every evaluated word contributes 1/r per
    positive letter and 1/r + m = r per inverse letter.  Nothing builds the
    generic coefficients, which are far too large on the E types.  x and l/m
    divide by m and are computed on first use, so sigma and tau also exist
    at r = 1 and r = -1, where m = 0, and with r symbolic, where m is not a
    unit of the Laurent ring and x, l/m, e_i and sigma_i^-1 raise
    ScalarDomainError.
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
        super().__init__(rs)
        self._one, self._zero = one, one - one
        self.l, self.r = l, r
        self.c0 = one / r
        self.m = r - self.c0
        self.linv = one / l

    @cached_property
    def x(self):
        return self._one - (self.l - self.linv) / self.m

    @cached_property
    def l_over_m(self):
        return self.l / self.m

    def z(self, j: int):
        return self.c0

    def unit(self):
        return self._one

    def zero(self):
        return self._zero

    def t_char(self, i: int, beta: Root):
        """T_{i,beta} under the character; the memoized lookup of this ring."""
        return super().t_coeff(i, beta)

    def t_coeff(self, i: int, beta: Root):
        # every lookup, the recursion's own included, enters through t_char
        return self.t_char(i, beta)

    def t_closed_form(self, i: int, beta: Root):
        """The closed-form word evaluated letter by letter under the character."""
        rs = self.rs
        s_len = len(rs.s_beta_word(beta))
        pos = 1 + s_len + len(rs.d_beta_word(beta))
        inv = s_len + len(rs.d_beta_word(rs.alpha(i)))
        return self.m * self.c0 ** pos * self.r ** inv


def _closed_form_eval(rs: RootSystem, i: int, s_word, d_b_word, d_ai_word) -> dict:
    """Full-type Hecke terms of d_{alpha_i}^-1 s_beta^-1 s_i s_beta d_beta.

    Three phases: conjugate z_i letterwise through s_beta, right-multiply
    by the d_beta letters, left-multiply by the inverses of the d_{alpha_i}
    letters.  A left inverse letter z_j + m collapses T_w to T_{jw} whenever
    j is a left descent of w, which is where the cancellation lives.
    """
    terms = HeckeElement.generator(rs, frozenset(rs.nodes), i).terms
    for a in s_word:
        terms = _left_mul(rs, _right_mul(rs, terms, (a,)), (a,), inverse=True)
    terms = _right_mul(rs, terms, d_b_word)
    return _left_mul(rs, terms, d_ai_word, inverse=True)


@lru_cache(maxsize=None)
def build_lk(label: str) -> LawrenceKrammer:
    """The generic representation; on E8 and above rank 8 only the character finishes."""
    dtype = DynkinType.parse(label)
    if dtype.rank > 8 or dtype.label == "E8":
        raise UnsupportedModeError(
            f"generic mode covers rank <= 8 except E8; use specialized mode for {label}"
            " (verify --specialize, matrices --theta lk)")
    return LawrenceKrammer(build_type(label))
