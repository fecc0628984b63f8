import random

import pytest

from fractions import Fraction

from bmwade.hecke import HeckeElement, eval_signed_word, walk_prefixes
from bmwade.lkrep import LawrenceKrammer, SparseMatrix, build_lk
from bmwade.rootsys import build_type
from bmwade.scalar import Scalar, _acc
from bmwade.wordalg import (
    _INVERSE,
    _MOVES,
    _PAIR,
    _TRIPLE,
    _X,
    EMatrixShapeError,
    WordParseError,
    parse_word,
    reduce_word,
    rep_image,
    rep_image_word,
)

M = Scalar.m()
L = Scalar.l(1)
LINV = Scalar.l(-1)


def test_parse_examples():
    rs = build_type("A2")
    assert parse_word(rs, "g1 g2 e1") == ((1, "g"), (2, "g"), (1, "e"))
    rs3 = build_type("A3")
    assert parse_word(rs3, "G3") == ((3, "G"),)
    with pytest.raises(WordParseError):
        parse_word(rs, "g9")
    with pytest.raises(WordParseError):
        parse_word(rs, "g1 q2")
    try:
        parse_word(rs, "g1 g7")
    except WordParseError as exc:
        assert "position 3" in str(exc)


def test_reduce_squares_and_triples():
    rs = build_type("A2")
    assert reduce_word(rs, parse_word(rs, "g1 g1")) == {
        (): Scalar.one(),
        ((1, "g"),): -M,
        ((1, "e"),): M * LINV,
    }
    assert reduce_word(rs, parse_word(rs, "e1 e2 e1")) == {((1, "e"),): Scalar.one()}
    assert reduce_word(rs, parse_word(rs, "e1 e1")) == {((1, "e"),): _X}
    assert reduce_word(rs, parse_word(rs, "e1 g2 e1")) == {((1, "e"),): L}
    assert reduce_word(rs, parse_word(rs, "g1 e1")) == {((1, "e"),): LINV}


def test_inverse_elimination():
    rs = build_type("A2")
    assert reduce_word(rs, parse_word(rs, "G1 g1")) == {(): Scalar.one()}
    comb = reduce_word(rs, parse_word(rs, "G2"))
    assert comb == {
        ((2, "g"),): Scalar.one(),
        (): M,
        ((2, "e"),): -M,
    }


def test_crossing_move_canonicalizes():
    rs = build_type("A2")
    comb = reduce_word(rs, parse_word(rs, "g2 e1 g2"))
    assert comb[((1, "g"), (2, "e"), (1, "g"))] == Scalar.one()
    assert set(comb) <= {
        ((1, "g"), (2, "e"), (1, "g")),
        ((2, "g"), (1, "e")), ((1, "e"), (2, "g")),
        ((1, "g"), (2, "e")), ((2, "e"), (1, "g")),
        ((1, "e"),), ((2, "e"),),
    }


def test_empty_word_and_identity_image():
    rs = build_type("A2")
    lk = build_lk("A2")
    assert reduce_word(rs, ()) == {(): Scalar.one()}
    hecke, mat = rep_image_word(lk, ())
    assert hecke == hecke.unit(lk.rs)
    assert mat == lk.identity_matrix()


def test_rep_image_kills_e_in_hecke_factor():
    lk = build_lk("A2")
    hecke, mat = rep_image_word(lk, ((1, "e"), (2, "g")))
    assert not hecke
    assert mat


def test_rep_image_b4_identity():
    lk = build_lk("A2")
    h1, m1 = rep_image_word(lk, ((1, "e"), (2, "e"), (1, "e")))
    h2, m2 = rep_image_word(lk, ((1, "e"),))
    assert m1 == m2 and h1 == h2  # both Hecke images vanish


@pytest.mark.parametrize("label,n_words,seed", [("A3", 40, 11), ("D4", 25, 12)])
def test_rewrite_soundness_sampled(label, n_words, seed):
    rs = build_type(label)
    lk = build_lk(label)
    rng = random.Random(seed)
    letters = [(i, k) for i in rs.nodes for k in "gGe"]
    bound = len(rs.positive_roots)
    for _ in range(n_words):
        word = tuple(rng.choice(letters) for _ in range(rng.randint(1, 12)))
        comb = reduce_word(rs, word)
        assert all(len(w) <= bound for w in comb)
        assert rep_image(lk, {word: Scalar.one()}) == rep_image(lk, comb)


def _rule_windows(rs):
    """Every rule at every window: (left side, right-hand combination)."""
    for a in rs.nodes:
        yield ((a, "G"),), _INVERSE(a)
        for kinds, rule in _PAIR.items():
            yield tuple(zip((a, a), kinds)), rule(a)
        for b in rs.neighbors[a]:
            for kinds, rule in (*_TRIPLE.items(), *_MOVES.items()):
                yield tuple(zip((a, b, a), kinds)), rule(a, b)


# A4 and D5 have a non-commutative H_C, so they see the order of Hecke factors
@pytest.mark.parametrize("label,n_windows",
                         [("A2", 26), ("A3", 47), ("D4", 68), ("A4", 68), ("D5", 89)])
def test_each_rule_is_an_identity(label, n_windows):
    lk = build_lk(label)
    windows = list(_rule_windows(lk.rs))
    assert len(windows) == n_windows
    for lhs, rhs in windows:
        image = rep_image_word(lk, lhs)
        assert image == rep_image(lk, rhs), lhs
        # negative control: the images see every coefficient of the rule
        for w in rhs:
            assert image != rep_image(lk, {**rhs, w: rhs[w] + Scalar.one()}), (lhs, w)


def test_reduction_is_deterministic():
    rs = build_type("D4")
    word = parse_word(rs, "g1 e2 g3 G2 e4 g2 g1 e3")
    assert reduce_word(rs, word) == reduce_word(rs, word)


def _reference_image(lk, comb):
    """Each word multiplied left to right from the identity, then summed."""
    rs = lk.rs
    letter = {"g": lk.sigma, "G": lk.sigma_inv, "e": lk.e_matrix}
    hecke, mat = HeckeElement.zero(rs), SparseMatrix(lk.size)
    for word, coeff in comb.items():
        m = lk.identity_matrix()
        for node, kind in word:
            m = m * letter[kind](node)
        if any(kind == "e" for _, kind in word):
            h = HeckeElement.zero(rs)
        else:
            h = eval_signed_word(rs, [(node, -1 if kind == "G" else 1) for node, kind in word])
        hecke = hecke + h.scale(coeff)
        mat = mat + m.scale(coeff)
    return hecke, mat


# H_C is commutative on A3 and D4 (H(A1), H(A1^3)) but not on A4 and D5
@pytest.mark.parametrize("label", ["A3", "D4", "A4", "D5"])
def test_rep_image_matches_reference(label):
    lk = build_lk(label)
    rs = lk.rs

    def w(text):
        return parse_word(rs, text)

    comb = {
        (): Scalar.from_fraction(3),
        w("g1"): M,
        w("g1 g2"): LINV,  # a prefix of the next two words
        w("g1 g2 g3"): -M,
        w("g1 g2 e3"): _X,
        w("g1 e2 g3"): L,
        w("G2 g1 G2"): Scalar.one(),
        w("G2 g1"): -Scalar.one(),
        w("e3 g2 e3"): M * M,
        w("e1"): LINV * M,
        w("e2 e1 g3"): L,  # starts with e, two e's
        w("g3 G2 e1 g2"): -M,  # an e right after a G
        w("g3 G2 e1 e2"): LINV,  # same prefix up to the first e, another tail
        w("g1 g2 e3 G1 g2"): Scalar.from_fraction(2),  # the word g1 g2 e3, with a tail
    }
    for word in comb:
        assert rep_image_word(lk, word) == _reference_image(lk, {word: Scalar.one()}), word
    assert rep_image(lk, comb) == _reference_image(lk, comb)
    # insertion order does not matter
    rev = dict(reversed(list(comb.items())))
    assert rep_image(lk, rev) == rep_image(lk, comb)
    # random combinations whose words share prefixes
    rng = random.Random(5)
    letters = [(i, k) for i in rs.nodes for k in "gGe"]
    for _ in range(6):
        stems = [tuple(rng.choice(letters) for _ in range(rng.randint(0, 3))) for _ in range(3)]
        words = {s + tuple(rng.choice(letters) for _ in range(rng.randint(0, 3)))
                 for s in stems for _ in range(3)}
        rand = {word: Scalar.from_fraction(rng.randint(-3, 3)) * rng.choice((Scalar.one(), M, LINV))
                for word in words}
        rand = {word: c for word, c in rand.items() if c}
        assert rep_image(lk, rand) == _reference_image(lk, rand)
    # the first 25 words of acceptance criterion 8, and their rewritings
    rng = random.Random(20260810)
    for _ in range(25):
        word = tuple(rng.choice(letters) for _ in range(rng.randint(1, 12)))
        ref = _reference_image(lk, {word: Scalar.one()})
        assert rep_image_word(lk, word) == ref, word
        assert rep_image(lk, reduce_word(rs, word)) == ref, word


def _reference_rep_image(lk, comb):
    """``rep_image`` as it summed whole ``HeckeElement``s, one new element per
    addition: prefixes shared, each word past its first e one column times one row."""
    rs = lk.rs

    def row_times(row, mat):
        out = {}
        for c, col in mat.cols.items():
            prods = [row[r] * v for r, v in col.items() if r in row]
            if prods and (total := sum(prods[1:], prods[0])):
                out[c] = total
        return out

    def step(image, letter):
        (h, mat), (node, kind) = image, letter
        h = HeckeElement.zero(rs) if kind == "e" else h.mul_generator(node, kind == "G")
        right = {"g": lk.sigma, "G": lk.sigma_inv, "e": lk.e_matrix}[kind](node)
        if type(mat) is tuple:
            return h, (mat[0], row_times(mat[1], right))
        if kind == "e":
            a = rs.root_index[rs.alpha(node)]
            col = {a: lk.unit()} if mat is None else mat.column(a)
            return h, (col, {c: e_col[a] for c, e_col in right.cols.items()})
        return h, right if mat is None else mat * right

    hecke, cols, rows = HeckeElement.zero(rs), {}, {}
    for coeff, (h, mat) in walk_prefixes(comb.items(), (HeckeElement.unit(rs), None), step):
        hecke = hecke + h.scale(coeff)
        if type(mat) is tuple:
            acc = rows.setdefault(id(mat[0]), (mat[0], {}))[1]
            for c, v in mat[1].items():
                _acc(acc, c, v.scale(coeff))
            continue
        for c, col in (lk.identity_matrix() if mat is None else mat).cols.items():
            tgt = cols.setdefault(c, {})
            for r, v in col.items():
                _acc(tgt, r, v.scale(coeff))
    for col, row in rows.values():
        for c, v in row.items():
            tgt = cols.setdefault(c, {})
            for r, u in col.items():
                _acc(tgt, r, u * v)
    return hecke, SparseMatrix(lk.size, cols)


def _canonical_cells(hecke, mat):
    """Whether the Hecke image and every stored cell are canonical ``HeckeElement``s:
    no empty cell, no zero coefficient, no integral ``Fraction``."""
    elements = [hecke] + [v for col in mat.cols.values() for v in col.values()]
    return all(type(h) is HeckeElement for h in elements) and all(
        (h.terms or h is hecke) and all(
            c and not (type(c) is Fraction and c.denominator == 1) for c in h.terms.values())
        for h in elements)


@pytest.mark.parametrize("label", ["A3", "D4", "A4", "D5"])
def test_rep_image_matches_whole_element_sums(label):
    # seeded words with G letters, e-free words and the empty word, alone and in
    # combinations (their rewritings, and a combination with cancelling cells)
    lk = build_lk(label)
    rs = lk.rs
    rng = random.Random(8)
    letters = [(i, k) for i in rs.nodes for k in "gGe"]
    words = [()] + [tuple(rng.choice(letters) for _ in range(rng.randint(1, 9)))
                    for _ in range(12)]
    words += [tuple((rng.choice(rs.nodes), rng.choice("gG")) for _ in range(rng.randint(1, 7)))
              for _ in range(6)]
    assert any("G" in letter for w in words for letter in w)
    combs = [{w: Scalar.one()} for w in words] + [reduce_word(rs, w) for w in words[1:8]]
    c = M * LINV - Scalar.from_fraction(Fraction(1, 2))
    combs.append({w: c for w in words[:6]})
    combs.append({words[1]: c, words[1] + ((1, "g"), (1, "G")): -c})  # cancels to zero
    assert rep_image(lk, combs[-1]) == (HeckeElement.zero(rs), SparseMatrix(lk.size))
    for comb in combs:
        image = rep_image(lk, comb)
        assert image == _reference_rep_image(lk, comb), comb
        assert _canonical_cells(*image), comb


def test_rep_image_refuses_e_off_its_row():
    lk = LawrenceKrammer(build_type("A3"))  # fresh: the cached build_lk must stay intact
    e1 = lk.e_matrix(1)
    a = lk.rs.root_index[lk.rs.alpha(1)]
    off = next(r for r in range(lk.size) if r != a)
    e1.cols.setdefault(0, {})[off] = lk.unit()
    with pytest.raises(EMatrixShapeError):
        rep_image_word(lk, ((2, "g"), (1, "e")))


def test_rep_image_multiplies_no_whole_matrix_after_first_e(count_calls):
    lk = build_lk("D4")
    rs = lk.rs
    for i in rs.nodes:  # build the letter matrices before counting
        lk.sigma_inv(i)
    calls = count_calls(SparseMatrix, "__mul__")
    rng = random.Random(3)
    letters = [(i, k) for i in rs.nodes for k in "gGe"]
    for _ in range(20):
        word = ((rng.choice(rs.nodes), "e"),) + tuple(rng.choice(letters) for _ in range(6))
        rep_image_word(lk, word)
        assert not calls, word
    rep_image_word(lk, parse_word(rs, "g1 g2 e3 g1 G2 e4"))
    assert len(calls) == 1
