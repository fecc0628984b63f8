"""Free words over the algebra generators and the length-reducing rewrite engine.

A word is a tuple of letters (node, kind) with kind one of "g" (generator),
"G" (inverse generator), "e".  A combination maps words to Scalar
coefficients.  ``reduce_word`` rewrites any input into a combination whose
words all have length at most |Phi+|:

* inverse letters are eliminated first through ``_INVERSE``, g^-1 = g + m - m e;
* a window is shortened by ``_PAIR`` (two letters on one node) or
  ``_TRIPLE`` (a b a with b adjacent to a: e g e, e e e, e e g, g e e, g g e,
  e g g), each rule a function of the window's nodes that returns the
  combination the window equals;
* to expose such a window, a word is searched breadth-first under the exact
  length-preserving moves: commutation of letters on non-adjacent nodes and
  ``_MOVES``, the braid move on g g g and the g e g crossing, whose shorter
  side terms are tracked.

The rewriting is not confluent and is never used to decide equality; words
that admit no reachable redex are only normalized to the lexicographically
least form in their move orbit.  Equality of combinations is decided by
``rep_image``, the pair of a Hecke-quotient image (every e goes to zero) and
the Lawrence-Krammer matrix image, which is invariant under every rule used
here.  Past a word's first e its matrix image is one column times one row,
and the image's sums add flat Hecke terms in place (``hecke._product``).
Termination follows from the strictly decreasing (length multiset, word)
measure.  The inverse expansion and the orbit search are capped, and a word
past the cap is refused with ``UnsupportedModeError``.
"""

from __future__ import annotations

from bisect import insort
from collections import deque

from .hecke import HeckeElement, _product, _times, walk_prefixes
from .lkrep import LawrenceKrammer, SparseMatrix, UnsupportedModeError
from .rootsys import RootSystem, ascii_int
from .scalar import Scalar, _acc

Letter = tuple  # (node, kind)
BmwWord = tuple  # tuple[Letter, ...]

_M = Scalar.m()
_L = Scalar.l(1)
_L_INV = Scalar.l(-1)
_ONE = Scalar.one()
_X = _ONE - (_L - _L_INV) / _M

_SEARCH_CAP = 500_000

# Keys spell the kinds of the window's letters.
_PAIR = {  # a a
    "gg": lambda a: {(): _ONE, ((a, "g"),): -_M, ((a, "e"),): _M * _L_INV},
    "ee": lambda a: {((a, "e"),): _X},
    "ge": lambda a: {((a, "e"),): _L_INV},
    "eg": lambda a: {((a, "e"),): _L_INV},
}
_TRIPLE = {
    "ege": lambda a, b: {((a, "e"),): _L},
    "eee": lambda a, b: {((a, "e"),): _ONE},
    "eeg": lambda a, b: {((a, "e"), (b, "g")): _ONE, ((a, "e"),): _M, ((a, "e"), (b, "e")): -_M},
    "gee": lambda a, b: {((b, "g"), (a, "e")): _ONE, ((a, "e"),): _M, ((b, "e"), (a, "e")): -_M},
    "gge": lambda a, b: {((b, "e"), (a, "e")): _ONE},
    "egg": lambda a, b: {((a, "e"), (b, "e")): _ONE},
}
# The first word is the new window, with coefficient 1; the rest are side terms.
_MOVES = {
    "ggg": lambda a, b: {((b, "g"), (a, "g"), (b, "g")): _ONE},
    "geg": lambda a, b: {
        ((b, "g"), (a, "e"), (b, "g")): _ONE,
        ((a, "e"), (b, "g")): _M, ((b, "e"), (a, "g")): -_M,
        ((b, "g"), (a, "e")): _M, ((a, "g"), (b, "e")): -_M,
        ((a, "e"),): _M * _M, ((b, "e"),): -(_M * _M),
    },
}
_INVERSE = lambda a: {((a, "g"),): _ONE, (): _M, ((a, "e"),): -_M}  # g^-1 = g + m - m e


class WordParseError(ValueError):
    pass


class EMatrixShapeError(ArithmeticError):
    """An e_i matrix with an entry off row alpha_i, which ``rep_image`` relies on."""


def parse_word(rs: RootSystem, text: str) -> BmwWord:
    """Parse whitespace-separated tokens g<i>, G<i> (inverse), e<i>."""
    letters = []
    pos = 0
    for token in text.split():
        pos = text.index(token, pos)
        node = ascii_int(token[1:])
        if token[0] not in "gGe" or node is None:
            raise WordParseError(f"bad token {token!r} at position {pos}")
        if node not in rs.nodes:
            raise WordParseError(f"node {node} out of range at position {pos}")
        letters.append((node, token[0]))
        pos += len(token)
    return tuple(letters)


def word_to_text(word: BmwWord) -> str:
    return " ".join(f"{kind}{node}" for node, kind in word)


def _expand_inverses(word: BmwWord) -> dict:
    """Eliminate G letters through ``_INVERSE``."""
    comb = {(): _ONE}
    for node, kind in word:
        if kind != "G":
            comb = {w + ((node, kind),): c for w, c in comb.items()}
            continue
        out: dict[BmwWord, Scalar] = {}
        inverse = _INVERSE(node).items()
        for w, c in comb.items():
            for frag, k in inverse:
                _acc(out, w + frag, c * k)
            if len(out) > _SEARCH_CAP:
                raise UnsupportedModeError(
                    f"inverse expansion cap exceeded on a word of length {len(word)}")
        comb = out
    return comb


def _find_redex(rs: RootSystem, word: BmwWord):
    """The leftmost window of a G-free word that a rule shortens, as
    (position, width, combination), else None."""
    neighbors = rs.neighbors
    for p in range(len(word) - 1):
        (a, ka), (b, kb) = word[p], word[p + 1]
        if a == b:
            return p, 2, _PAIR[ka + kb](a)
        if p + 2 < len(word) and word[p + 2][0] == a and b in neighbors[a]:
            rule = _TRIPLE.get(ka + kb + word[p + 2][1])
            if rule is not None:
                return p, 3, rule(a, b)
    return None


def _neighbors(rs: RootSystem, word: BmwWord):
    """Exact length-preserving moves; the ``_MOVES`` ones carry their side terms."""
    for p in range(len(word) - 1):
        a, _ = word[p]
        b, _ = word[p + 1]
        if a != b and b not in rs.neighbors[a]:
            yield word[:p] + (word[p + 1], word[p]) + word[p + 2 :], ()
    for p in range(len(word) - 2):
        (a, ka), (b, kb), (c, kc) = word[p : p + 3]
        if a != c or b not in rs.neighbors[a]:
            continue
        move = _MOVES.get(ka + kb + kc)
        if move is not None:
            head, tail = word[:p], word[p + 3 :]
            (window, _), *side = move(a, b).items()
            yield head + window + tail, tuple((head + w + tail, k) for w, k in side)


def _search(rs: RootSystem, word: BmwWord):
    """Explore the move orbit of a word.

    Returns ("redex", found_word, window, side) when some reachable word has
    a reducible window, else ("canonical", least_word, None, side); ``side``
    lists the (word, coeff) side terms of the ``_MOVES`` used to reach it.
    """
    start = (word, ())
    seen = {word: ()}
    queue = deque([start])
    while queue:
        cur, side = queue.popleft()
        hit = _find_redex(rs, cur)
        if hit is not None:
            return "redex", cur, hit, side
        if len(seen) > _SEARCH_CAP:
            raise UnsupportedModeError(f"orbit search cap exceeded on a word of length {len(cur)}")
        for nxt, extra in _neighbors(rs, cur):
            if nxt not in seen:
                nset = side + extra
                seen[nxt] = nset
                queue.append((nxt, nset))
    best = min(seen)
    return "canonical", best, None, seen[best]


def reduce_word(rs: RootSystem, word: BmwWord) -> dict:
    """Rewrite a word into a combination of words of length <= |Phi+|."""
    comb = _expand_inverses(word)
    done: set[BmwWord] = set()
    pending = sorted((len(w), w) for w in comb if w)  # stale keys are skipped

    def add(w: BmwWord, c: Scalar):
        if w and w not in comb:  # (re)entering words are queued
            insort(pending, (len(w), w))
        _acc(comb, w, c)

    while pending:
        w = pending.pop()[1]
        if w not in comb or w in done:
            continue
        coeff = comb.pop(w)
        kind, target, hit, side = _search(rs, w)
        for extra_word, extra_coeff in side:
            add(extra_word, coeff * extra_coeff)
        if kind == "redex":
            p, width, repl = hit
            for frag, c in repl.items():
                add(target[:p] + frag + target[p + width :], coeff * c)
        else:
            add(target, coeff)
            done.add(target)
    return comb


def rep_image_word(lk: LawrenceKrammer, word: BmwWord) -> tuple[HeckeElement, SparseMatrix]:
    """Image of a single word in the Hecke quotient and in the LK module."""
    return rep_image(lk, {word: _ONE})


def _row_times(rs: RootSystem, row: dict, mat: SparseMatrix) -> dict:
    """The row vector row * mat over flat Hecke terms, left entries first, no zero entry."""
    out = {}
    for c, col in mat.cols.items():
        acc = {}
        for r, v in col.items():
            if r in row:
                _product(rs, row[r], v.terms, acc)
        if acc:
            out[c] = acc
    return out


def rep_image(lk: LawrenceKrammer, comb: dict) -> tuple[HeckeElement, SparseMatrix]:
    """Linear extension of the image pair to a combination: each distinct prefix
    is multiplied once (``walk_prefixes``), and scaled images add into one dict.

    From a word's first e_i on, its matrix is a (column, row) pair: the prefix
    matrix's column alpha_i, and e_i's row alpha_i carried through the later
    letters as a row vector.  This is exact because e_i's matrix has that single
    nonzero row (``eiproj`` pins it; any other entry raises ``EMatrixShapeError``).
    Scalars are central, so rows sharing a column are summed, then multiplied out.
    The Hecke quotient, rows and cells are flat terms summed in place by ``_times``
    and ``_product``, and each cell becomes a ``HeckeElement`` once, at the end.
    """
    rs = lk.rs

    def step(image, letter):
        (h, mat), (node, kind) = image, letter
        h = HeckeElement.zero(rs) if kind == "e" else h.mul_generator(node, kind == "G")
        right = {"g": lk.sigma, "G": lk.sigma_inv, "e": lk.e_matrix}[kind](node)
        if type(mat) is tuple:
            return h, (mat[0], _row_times(rs, mat[1], right))
        if kind == "e":
            a = rs.root_index[rs.alpha(node)]
            if any(col.keys() != {a} for col in right.cols.values()):
                raise EMatrixShapeError(f"e_{node} has an entry off row alpha_{node}")
            col = {a: lk.unit()} if mat is None else mat.column(a)
            return h, (col, {c: e_col[a].terms for c, e_col in right.cols.items()})
        return h, right if mat is None else mat * right

    hecke, cols, rows = {}, {}, {}
    for coeff, (h, mat) in walk_prefixes(comb.items(), (HeckeElement.unit(rs), None), step):
        _times(h.terms, coeff._terms, hecke)
        if type(mat) is tuple:  # one column object per prefix up to the first e
            acc = rows.setdefault(id(mat[0]), (mat[0], {}))[1]
            for c, v in mat[1].items():
                _times(v, coeff._terms, acc.setdefault(c, {}))
            continue
        for c, col in (lk.identity_matrix() if mat is None else mat).cols.items():
            tgt = cols.setdefault(c, {})
            for r, v in col.items():
                _times(v.terms, coeff._terms, tgt.setdefault(r, {}))
    for col, row in rows.values():
        for c, v in row.items():
            tgt = cols.setdefault(c, {})
            for r, u in col.items():
                _product(rs, u.terms, v, tgt.setdefault(r, {}))
    return HeckeElement(rs, hecke), SparseMatrix(lk.size, {
        c: {r: HeckeElement(rs, t) for r, t in col.items()} for c, col in cols.items()})
