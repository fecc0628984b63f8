import hashlib
from itertools import combinations

import pytest

from bmwade.cli import main
from bmwade.rootsys import (
    MAX_RANK,
    MAX_WEYL_ROOTS,
    DynkinType,
    RootSystem,
    build_type,
    parabolic_order,
)
from conftest import enumerate_parabolic

# Reference Weyl-group arithmetic on root tuples: the oracles that the
# root-index tables of RootSystem are checked against.


def pairing(rs, beta, gamma):
    return sum(beta[i] * rs.pairing_simple(i + 1, gamma) for i in range(rs.n) if beta[i])


def act(rs, w, beta):
    """w(beta), from the images w(alpha_1), ..., w(alpha_n) stored in w."""
    acc = [0] * rs.n
    for i, c in enumerate(beta):
        if c:
            img = rs.roots[w[i]]
            for k in range(rs.n):
                acc[k] += c * img[k]
    return tuple(acc)


def compose(rs, u, v):
    """u after v (v acts first)."""
    return bytes(rs.roots.index(act(rs, u, rs.roots[k])) for k in v)


def word_element(rs, word):
    """The element r_{a_1} ... r_{a_k} of a word (a_1, ..., a_k)."""
    out = rs.identity
    for i in word:
        out = rs.right_mul_simple(out, i)
    return out


def invert(rs, w):
    return word_element(rs, tuple(reversed(rs.reduced_word(w))))


def weyl_length(rs, w):
    return sum(1 for b in rs.positive_roots if not rs.is_positive_root(act(rs, w, b)))


CENSUS = {
    "A2": (3, (), 1),
    "A3": (6, (2,), 2),
    "A4": (10, (2, 3), 6),
    "A5": (15, (2, 3, 4), 24),
    "D4": (12, (1, 3, 4), 8),
    "D5": (20, (1, 3, 4, 5), 48),
    "E6": (36, (1, 3, 4, 5, 6), 720),
    "E7": (63, (2, 3, 4, 5, 6, 7), 23040),
    "E8": (120, (1, 2, 3, 4, 5, 6, 7), 2903040),
}


@pytest.mark.parametrize("label", sorted(CENSUS))
def test_census(label):
    phi, c_nodes, wc = CENSUS[label]
    rs = build_type(label)
    assert len(rs.positive_roots) == phi
    assert rs.c_nodes == c_nodes
    assert parabolic_order(rs, rs.c_nodes) == wc


def test_invalid_types():
    for label in ("X9", "D3", "E9", "A0", "E5", "A101", "D101", "A99999999999"):
        with pytest.raises(ValueError):
            DynkinType.parse(label) and build_type(label)
    assert DynkinType.parse("A100").rank == MAX_RANK


def test_weyl_elements_stop_at_the_byte_reach(capsys):
    # A16 has 136 positive roots: its roots are there, its Weyl group elements are not
    rs = RootSystem(DynkinType.parse("A16"))
    assert len(rs.positive_roots) == 136 > MAX_WEYL_ROOTS
    assert main(["roots", "--type", "A16"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 136 + 2 and out[-2] == "highest: " + " ".join("1" * 16)
    limit = rf"A16 has 136 positive roots; .* at most {MAX_WEYL_ROOTS}"
    with pytest.raises(ValueError, match=limit):
        rs.simple_reflection(1)
    with pytest.raises(ValueError, match=limit):
        rs.right_mul_simple(rs.identity, 1)
    assert rs.reduced_word(rs.identity) == ()
    e8 = build_type("E8")  # within reach, with 240 root indices
    assert len(e8.roots) == 240
    w = e8.simple_reflection(8)
    assert w == e8.right_mul_simple(e8.identity, 8) and e8.reduced_word(w) == (8,)


def brute_force_roots(rs):
    """Orbit of the simple roots under all simple reflections."""
    seen = set(rs.simple_roots)
    frontier = list(seen)
    while frontier:
        beta = frontier.pop()
        for i in rs.nodes:
            img = rs.reflect(i, beta)
            if img not in seen:
                seen.add(img)
                frontier.append(img)
    return {b for b in seen if all(c >= 0 for c in b)}


@pytest.mark.parametrize("label", ["A3", "D4", "E6"])
def test_roots_match_reflection_orbit(label):
    rs = build_type(label)
    assert set(rs.positive_roots) == brute_force_roots(rs)


def test_root_order_and_highest():
    rs = build_type("D4")
    heights = [rs.height(b) for b in rs.positive_roots]
    assert heights == sorted(heights)
    assert rs.height(rs.highest_root) == max(heights)
    assert heights.count(max(heights)) == 1


@pytest.mark.parametrize("label", ["A3", "D4", "E6"])
def test_pairing_normalization(label):
    rs = build_type(label)
    for beta in rs.positive_roots:
        assert pairing(rs, beta, beta) == 2
    for i in rs.nodes:
        for j in rs.neighbors[i]:
            assert pairing(rs, rs.alpha(i), rs.alpha(j)) == -1
    for j in rs.c_nodes:
        assert pairing(rs, rs.alpha(j), rs.highest_root) == 0


def test_reflect_examples():
    rs = build_type("A2")
    assert rs.reflect(1, rs.alpha(1)) == (-1, 0)
    assert rs.reflect(1, rs.alpha(2)) == (1, 1)
    rs4 = build_type("D4")
    for i in rs4.nodes:
        for beta in rs4.positive_roots:
            if beta != rs4.alpha(i):
                assert rs4.is_positive_root(rs4.reflect(i, beta))


def test_root_queries():
    rs = build_type("D4")
    a12 = (1, 1, 0, 0)
    assert rs.height(a12) == 2
    assert rs.support(a12) == (1, 2)
    assert rs.require_root(a12) == a12
    with pytest.raises(ValueError):
        rs.require_root((5, 5, 5, 5))


def test_weyl_basics():
    rs = build_type("A2")
    assert weyl_length(rs, rs.identity) == 0
    w = word_element(rs, (1, 2, 1))
    assert rs.reduced_word(w) == (1, 2, 1)
    assert w == word_element(rs, (2, 1, 2))
    assert weyl_length(rs, w) == 3


def test_length_of_inverse_exhaustive_a3():
    rs = build_type("A3")
    for w in enumerate_parabolic(rs, rs.nodes):
        assert weyl_length(rs, w) == weyl_length(rs, invert(rs, w))
        assert compose(rs, w, invert(rs, w)) == rs.identity


@pytest.mark.parametrize("label", ["A3", "A4", "D4"])
def test_left_descent_is_a_length_drop(label):
    # the index tables against the reference arithmetic on root tuples
    rs = build_type(label)
    for w in enumerate_parabolic(rs, rs.nodes):
        length = weyl_length(rs, w)
        for j in rs.nodes:
            rj = rs.simple_reflection(j)
            left, right = rs.left_mul_simple(j, w), rs.right_mul_simple(w, j)
            assert left == compose(rs, rj, w)
            assert right == compose(rs, w, rj)
            # the one-call steps of the Hecke kernel, descent tests included
            assert rs.left_move(j)(w) == (left, weyl_length(rs, left) < length)
            assert rs.right_move(j)(w) == (right, weyl_length(rs, right) < length)


def on_support_half(rs, beta):
    """The left half w of s_beta_word(beta) = w k w^-1, k the first node of
    beta's support: the shortest w with w(alpha_k) = beta."""
    return rs.support(beta)[0], rs.s_beta_word(beta)[:rs.height(beta) - 1]


def test_min_coset_word_examples():
    rs = build_type("A2")
    assert rs.s_beta_word(rs.alpha(1)) == (1,)
    assert on_support_half(rs, rs.alpha(1)) == (1, ())
    assert rs.s_beta_word((1, 1)) == (2, 1, 2)
    assert on_support_half(rs, (1, 1)) == (1, (2,))


def brute_min_coset(rs, beta, i):
    best = None
    for w in enumerate_parabolic(rs, rs.nodes):
        if act(rs, w, rs.alpha(i)) == beta:
            if best is None or weyl_length(rs, w) < weyl_length(rs, best):
                best = w
    return best


@pytest.mark.parametrize("label", ["A2", "A3"])
def test_min_coset_word_is_minimal(label):
    rs = build_type(label)
    for beta in rs.positive_roots:
        k, word = on_support_half(rs, beta)
        w = word_element(rs, word)
        assert act(rs, w, rs.alpha(k)) == beta
        assert w == brute_min_coset(rs, beta, k)
        assert weyl_length(rs, w) == len(word)


@pytest.mark.parametrize("label", ["A4", "D4", "D5", "E6"])
def test_min_coset_word_acts_correctly(label):
    rs = build_type(label)
    for beta in rs.positive_roots:
        k, word = on_support_half(rs, beta)
        assert act(rs, word_element(rs, word), rs.alpha(k)) == beta
        assert weyl_length(rs, word_element(rs, word)) == len(word)


def test_geodesic_conjugation():
    for label in ("A3", "D4"):
        rs = build_type(label)
        for i in rs.nodes:
            for j in rs.nodes:
                w = word_element(rs, rs.geodesic_word(i, j))
                assert w == brute_min_coset(rs, rs.alpha(j), i)
                assert weyl_length(rs, w) == len(rs.geodesic_word(i, j))
                ri = rs.simple_reflection(i)
                assert compose(rs, compose(rs, w, ri), invert(rs, w)) == rs.simple_reflection(j)


def _words_digest(words):
    return hashlib.sha256(repr(list(words)).encode()).hexdigest()


S_BETA_DIGESTS = {
    "A5": "ca80af55b8772e8a858f5f94a2d67f73646af036c5f0379cc441bc9cbff08eed",
    "D6": "57c08b975f8cc0304f6ab221b574a6ecfb9f16f21bfe7ce4f854ce77f948bb52",
    "E6": "3563404837acab72d10c982610d1173001811f157905209205337ff1085e7b55",
    "E7": "2eabbd5cc5503d0710bcbb29c4d84aa51eb2ef4d2a21efe2c375d1ead4170843",
    "E8": "6995a1ec869b18cb42f49f30bfd35c5c7a79ca86e4d370d7ba80f3ade43e494e",
}
GEODESIC_DIGESTS = {
    "D5": "d401ebff5766411f07dbd99a9e1f92d81f4bcc530ddd94b7a3dbf71ae1a027df",
    "E6": "b37ec13ba78ab6cb2191c28a8e221bba1b8126f49dda0045e00f31636ad7ebc7",
}


def test_s_beta_and_geodesic_words_are_pinned():
    # the exact words, not only their elements: s_beta_word feeds the T closed
    # form letter by letter and geodesic_word the zaction suite
    for label, digest in S_BETA_DIGESTS.items():
        rs = build_type(label)
        assert _words_digest(rs.s_beta_word(b) for b in rs.positive_roots) == digest, label
    for label, digest in GEODESIC_DIGESTS.items():
        rs = build_type(label)
        words = (rs.geodesic_word(i, j) for i in rs.nodes for j in rs.nodes)
        assert _words_digest(words) == digest, label


def test_d_beta_properties():
    rs = build_type("A2")
    assert rs.d_beta_word(rs.highest_root) == ()
    assert rs.d_beta_word(rs.alpha(1)) == (2,)
    for label in ("A3", "D4"):
        rsx = build_type(label)
        for beta in rsx.positive_roots:
            word = rsx.d_beta_word(beta)
            assert len(word) == rsx.height(rsx.highest_root) - rsx.height(beta)
            assert act(rsx, word_element(rsx, word), rsx.highest_root) == beta


def d_beta_word_greedy(rs, beta, pick_last):
    letters = []
    gamma = beta
    while gamma != rs.highest_root:
        options = [k for k in rs.nodes if rs.pairing_simple(k, gamma) == -1]
        k = options[-1] if pick_last else options[0]
        gamma = rs.add_simple(gamma, k)
        letters.append(k)
    return tuple(letters)


@pytest.mark.parametrize("label", ["A3", "D4"])
def test_d_beta_choice_independence(label):
    rs = build_type(label)
    for beta in rs.positive_roots:
        a = word_element(rs, d_beta_word_greedy(rs, beta, pick_last=False))
        b = word_element(rs, d_beta_word_greedy(rs, beta, pick_last=True))
        assert a == b


def test_s_beta_is_the_reflection():
    rs = build_type("D4")
    for beta in rs.positive_roots:
        w = word_element(rs, rs.s_beta_word(beta))
        for gamma in rs.positive_roots:
            expect = tuple(
                g - pairing(rs, beta, gamma) * bcomp for g, bcomp in zip(gamma, beta)
            )
            assert act(rs, w, gamma) == expect


def test_weyl_order_formulas():
    for label, order in (("A5", 720), ("D4", 192), ("E6", 51840), ("E7", 2903040),
                         ("E8", 696729600)):
        rs = build_type(label)
        assert parabolic_order(rs, rs.nodes) == order, label


def test_component_classification_via_parabolic_order():
    rs = build_type("E7")
    # C = D6 inside E7
    assert parabolic_order(rs, rs.c_nodes) == 23040
    # a path of four nodes is A4
    assert parabolic_order(rs, (2, 4, 5, 6)) == 120
    assert parabolic_order(rs, ()) == 1


@pytest.mark.parametrize("label", ["A4", "D4", "D5", "E6"])
def test_parabolic_order_counts_the_enumerated_parabolic(label):
    # Macdonald's height product against a breadth-first walk of the group,
    # on every node subset (every proper one on E6)
    rs = build_type(label)
    top = rs.n - 1 if label == "E6" else rs.n
    for k in range(top + 1):
        for nodes in combinations(rs.nodes, k):
            assert parabolic_order(rs, nodes) == len(enumerate_parabolic(rs, nodes)), nodes


H_TYPES = [f"A{n}" for n in range(3, 9)] + [f"D{n}" for n in range(4, 9)] + ["E6", "E7", "E8"]


@pytest.mark.parametrize("label", H_TYPES)
def test_h_node_lands_in_c(label):
    rs = RootSystem(DynkinType.parse(label))
    assert "_h_table" not in vars(rs)  # built on first use, never with the root system
    for beta in rs.positive_roots:
        for i in rs.nodes:
            if rs.pairing_simple(i, beta) == 0:
                assert rs.h_node(beta, i) in rs.c_nodes, (beta, i)
    for i in rs.c_nodes:
        assert rs.h_node(rs.highest_root, i) == i
    with pytest.raises(ValueError, match="h undefined"):
        rs.h_node(rs.alpha(1), 1)
    with pytest.raises(ValueError, match="not a positive root"):
        rs.h_node(tuple(-c for c in rs.alpha(1)), 2)
