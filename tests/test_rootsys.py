from itertools import combinations

import pytest

from bmwade.rootsys import (
    MAX_RANK,
    DynkinType,
    RootSystem,
    build_type,
    enumerate_parabolic,
    parabolic_order,
)

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
        assert rs.pairing(beta, beta) == 2
    for i in rs.nodes:
        for j in rs.neighbors[i]:
            assert rs.pairing(rs.alpha(i), rs.alpha(j)) == -1
    for j in rs.c_nodes:
        assert rs.pairing(rs.alpha(j), rs.highest_root) == 0


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
    assert rs.proj(4, a12) == 2
    with pytest.raises(ValueError):
        rs.proj(4, (5, 5, 5, 5))


def test_weyl_basics():
    rs = build_type("A2")
    assert rs.weyl_length(rs.identity) == 0
    w = rs.word_element((1, 2, 1))
    assert rs.reduced_word(w) == (1, 2, 1)
    assert w == rs.word_element((2, 1, 2))
    assert rs.weyl_length(w) == 3


def test_length_of_inverse_exhaustive_a3():
    rs = build_type("A3")
    for w in enumerate_parabolic(rs, rs.nodes):
        assert rs.weyl_length(w) == rs.weyl_length(rs.invert(w))
        assert rs.compose(w, rs.invert(w)) == rs.identity


@pytest.mark.parametrize("label", ["A3", "A4", "D4"])
def test_left_descent_is_a_length_drop(label):
    # the index tables against the reference arithmetic on root tuples
    rs = build_type(label)
    for w in enumerate_parabolic(rs, rs.nodes):
        length = rs.weyl_length(w)
        for j in rs.nodes:
            rj = rs.simple_reflection(j)
            left, right = rs.left_mul_simple(j, w), rs.right_mul_simple(w, j)
            assert left == rs.compose(rj, w)
            assert right == rs.compose(w, rj)
            assert rs.left_descent(j, w) == (rs.weyl_length(left) < length)
            # the right-descent test of HeckeElement.mul_generator
            assert (w[j - 1] >= rs.n_pos) == (rs.weyl_length(right) < length)


def test_min_coset_word_examples():
    rs = build_type("A2")
    assert rs.min_coset_word(rs.alpha(1), 1) == ()
    assert rs.min_coset_word((1, 1), 1) == (2,)


def brute_min_coset(rs, beta, i):
    best = None
    for w in enumerate_parabolic(rs, rs.nodes):
        if rs.act(w, rs.alpha(i)) == beta:
            if best is None or rs.weyl_length(w) < rs.weyl_length(best):
                best = w
    return best


@pytest.mark.parametrize("label", ["A2", "A3"])
def test_min_coset_word_is_minimal(label):
    rs = build_type(label)
    for beta in rs.positive_roots:
        for i in rs.nodes:
            word = rs.min_coset_word(beta, i)
            w = rs.word_element(word)
            assert rs.act(w, rs.alpha(i)) == beta
            best = brute_min_coset(rs, beta, i)
            assert w == best
            assert rs.weyl_length(w) == len(word)


@pytest.mark.parametrize("label", ["A4", "D4", "D5", "E6"])
def test_min_coset_word_acts_correctly(label):
    rs = build_type(label)
    for beta in rs.positive_roots:
        for i in rs.nodes:
            word = rs.min_coset_word(beta, i)
            assert rs.act(rs.word_element(word), rs.alpha(i)) == beta
            assert rs.weyl_length(rs.word_element(word)) == len(word)


@pytest.mark.parametrize("label", ["A3", "D4"])
def test_min_coset_length_formula(label):
    rs = build_type(label)
    for beta in rs.positive_roots:
        for i in rs.nodes:
            j = rs.proj(i, beta)
            w_ij_len = len(rs.geodesic_word(i, j))
            assert len(rs.min_coset_word(beta, i)) == rs.height(beta) + w_ij_len - 1


def test_geodesic_conjugation():
    for label in ("A3", "D4"):
        rs = build_type(label)
        for i in rs.nodes:
            for j in rs.nodes:
                w = rs.word_element(rs.min_coset_word(rs.alpha(j), i))
                ri = rs.simple_reflection(i)
                assert rs.compose(rs.compose(w, ri), rs.invert(w)) == rs.simple_reflection(j)


def test_d_beta_properties():
    rs = build_type("A2")
    assert rs.d_beta_word(rs.highest_root) == ()
    assert rs.d_beta_word(rs.alpha(1)) == (2,)
    for label in ("A3", "D4"):
        rsx = build_type(label)
        for beta in rsx.positive_roots:
            word = rsx.d_beta_word(beta)
            assert len(word) == rsx.height(rsx.highest_root) - rsx.height(beta)
            assert rsx.act(rsx.word_element(word), rsx.highest_root) == beta


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
        a = rs.word_element(d_beta_word_greedy(rs, beta, pick_last=False))
        b = rs.word_element(d_beta_word_greedy(rs, beta, pick_last=True))
        assert a == b


def test_s_beta_is_the_reflection():
    rs = build_type("D4")
    for beta in rs.positive_roots:
        w = rs.word_element(rs.s_beta_word(beta))
        for gamma in rs.positive_roots:
            expect = tuple(
                g - rs.pairing(beta, gamma) * bcomp for g, bcomp in zip(gamma, beta)
            )
            assert rs.act(w, gamma) == expect


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
