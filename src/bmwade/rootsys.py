"""ADE root systems, Weyl group elements, and the reduced words the T recursion reads.

Conventions, fixed once and used everywhere downstream:

* Nodes are numbered 1..n in the Bourbaki convention.  A_n is the path
  1-2-...-n; D_n is the path 1-2-...-(n-2) with both n-1 and n attached to
  n-2; E_n is the chain 1-3-4-5-6(-7)(-8) with node 2 attached to node 4.
* A root is a tuple of n integer coefficients over the simple roots.
* The 2N roots are indexed once: positive roots at 0..N-1 in
  ``positive_roots`` order, their negatives at N..2N-1.  A Weyl group
  element w is stored as the ``bytes`` of the indices of w(alpha_1), ...,
  w(alpha_n), so multiplying by a simple reflection and testing a descent
  are lookups in tables bounded by the root system and built on first use;
  r_j w is one ``bytes.translate``.  Bytes of one length sort like index
  tuples.  A byte holds an index below 256, so Weyl group elements reach
  ``MAX_WEYL_ROOTS`` = 128 positive roots (E8 has 120); bytes hashes are
  salted per process, so nothing that reaches output walks a set of them.
  A word [a, b, c] denotes r_a r_b r_c, with r_c acting first.
* ``d_beta_word(beta)`` is a reduced word for the inverse of the shortest
  element carrying beta to the highest root; its letters are exactly the
  greedy height-increasing chain from beta up to the highest root.
* ``h_node(beta, i)``, for (alpha_i, beta) = 0, is the node h in C with
  h_{beta,i} = z_h: the recursion that pushes beta toward the highest root,
  read from a table built on first use.
* ``parabolic_order(rs, J)`` is |W_J| from the heights of the roots
  supported on J (Macdonald, Math. Ann. 199, 1972); with J = ``rs.nodes``
  it is |W|, so no table of Weyl group orders is kept.

Ties are always broken toward the smallest node index, so every word
produced here is deterministic; uniqueness of the underlying group elements
is checked by the test suite rather than assumed.

Root systems are immutable after construction and all queries are pure.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property, lru_cache
from math import prod
from operator import add, getitem

Root = tuple  # tuple[int, ...] over the simple roots
Weyl = bytes  # root indices of the images of the simple roots, one byte each
MAX_RANK = 100  # refuse a huge rank up front instead of running out of memory building it
MAX_WEYL_ROOTS = 128  # positive roots a Weyl element reaches: 2N root indices, each one byte


def ascii_int(text: str) -> int | None:
    """An ASCII numeral's value; None for other text and past ``int``'s digit limit."""
    if text.isascii() and text.isdecimal():
        try:
            return int(text)
        except ValueError:
            pass
    return None


class DynkinType(namedtuple("DynkinType", "family rank")):
    __slots__ = ()

    def __new__(cls, family: str, rank: int):
        ok = (
            (family == "A" and rank >= 1)
            or (family == "D" and rank >= 4)
            or (family == "E" and rank in (6, 7, 8))
        )
        if not ok:
            raise ValueError(f"not a simply laced spherical type: {family}{rank}")
        if rank > MAX_RANK:
            raise ValueError(f"rank {rank} is above {MAX_RANK}, the largest rank bmwade builds")
        return super().__new__(cls, family, rank)

    @staticmethod
    def parse(label: str) -> DynkinType:
        label = label.strip()
        rank = ascii_int(label[1:])
        if rank is None or label[0].upper() not in "ADE":
            raise ValueError(f"cannot parse Dynkin type {label!r}")
        return DynkinType(label[0].upper(), rank)

    @property
    def label(self) -> str:
        return f"{self.family}{self.rank}"

    def edges(self) -> list[tuple[int, int]]:
        n = self.rank
        if self.family == "A":
            return [(i, i + 1) for i in range(1, n)]
        if self.family == "D":
            path = [(i, i + 1) for i in range(1, n - 2)]
            return path + [(n - 2, n - 1), (n - 2, n)]
        chain = [1, 3, 4, 5, 6, 7, 8][:n - 1]
        return [(chain[i], chain[i + 1]) for i in range(len(chain) - 1)] + [(2, 4)]


class RootSystem:
    """Positive roots, highest root, and the node set C of a fixed ADE type."""

    def __init__(self, dtype: DynkinType):
        self.dtype = dtype
        n = self.n = dtype.rank
        self.nodes = tuple(range(1, n + 1))
        edges = dtype.edges()
        adj = {i: set() for i in self.nodes}
        for a, b in edges:
            adj[a].add(b)
            adj[b].add(a)
        self.neighbors = {i: tuple(sorted(adj[i])) for i in self.nodes}
        self.simple_roots = tuple(
            tuple(1 if k == i else 0 for k in range(n)) for i in range(n)
        )
        self.positive_roots = self._generate_positive_roots()
        self.root_index = {b: k for k, b in enumerate(self.positive_roots)}
        self.highest_root = self.positive_roots[-1]
        self.two_rho = tuple(map(sum, zip(*self.positive_roots)))
        self.c_nodes = tuple(
            j for j in self.nodes if self.pairing_simple(j, self.highest_root) == 0
        )
        self.n_pos = len(self.positive_roots)
        self.roots = self.positive_roots + tuple(tuple(-c for c in b) for b in self.positive_roots)
        self._index = {b: k for k, b in enumerate(self.roots)}
        self.identity = bytes(self._index[a] for a in self.simple_roots)
        self._word_cache: dict[Weyl, tuple[int, ...]] = {}

    # -- construction --------------------------------------------------

    def _generate_positive_roots(self) -> tuple[Root, ...]:
        found = set(self.simple_roots)
        frontier = list(self.simple_roots)
        while frontier:
            beta = frontier.pop()
            for i in self.nodes:
                if self.pairing_simple(i, beta) == -1:
                    new = self.add_simple(beta, i)
                    if new not in found:
                        found.add(new)
                        frontier.append(new)
        return tuple(sorted(found, key=lambda b: (sum(b), b)))

    # -- root queries ----------------------------------------------------

    def alpha(self, i: int) -> Root:
        return self.simple_roots[i - 1]

    def pairing_simple(self, i: int, beta: Root) -> int:
        return 2 * beta[i - 1] - sum(beta[k - 1] for k in self.neighbors[i])

    def add_simple(self, beta: Root, i: int) -> Root:
        out = list(beta)
        out[i - 1] += 1
        return tuple(out)

    def sub_simple(self, beta: Root, i: int) -> Root:
        out = list(beta)
        out[i - 1] -= 1
        return tuple(out)

    def reflect(self, i: int, beta: Root) -> Root:
        p = self.pairing_simple(i, beta)
        if p == 0:
            return beta
        out = list(beta)
        out[i - 1] -= p
        return tuple(out)

    def is_positive_root(self, beta: Root) -> bool:
        return beta in self.root_index

    def require_root(self, beta: Root) -> Root:
        if beta not in self.root_index:
            raise ValueError(f"{beta} is not a positive root of {self.dtype.label}")
        return beta

    @staticmethod
    def height(beta: Root) -> int:
        return sum(beta)

    @staticmethod
    def support(beta: Root) -> tuple[int, ...]:
        return tuple(i + 1 for i, c in enumerate(beta) if c)

    @cached_property
    def _h_table(self) -> dict[tuple[Root, int], int]:
        """h_{beta,i} for every (beta, i) with (alpha_i, beta) = 0, highest root first.

        h(theta, i) = i.  Below theta, with j the first node of pairing -1,
        (beta, i) takes the value of (beta + alpha_j + alpha_i, j) when j is
        adjacent to i, and of (beta + alpha_j, i) when not; both are higher.
        """
        table = {}
        for beta in reversed(self.positive_roots):
            orthogonal = [i for i in self.nodes if self.pairing_simple(i, beta) == 0]
            if beta == self.highest_root:
                table.update(((beta, i), i) for i in orthogonal)
                continue
            j = next(t for t in self.nodes if self.pairing_simple(t, beta) == -1)
            up = self.add_simple(beta, j)
            for i in orthogonal:
                adjacent = j in self.neighbors[i]
                table[beta, i] = table[self.add_simple(up, i), j] if adjacent else table[up, i]
        return table

    def h_node(self, beta: Root, i: int) -> int:
        """The node h in C with h_{beta,i} = z_h; needs (alpha_i, beta) = 0."""
        self.require_root(beta)
        if self.pairing_simple(i, beta) != 0:
            raise ValueError(f"h undefined: (alpha_{i}, {beta}) != 0")
        return self._h_table[beta, i]

    # -- Weyl group elements ----------------------------------------------

    def _require_byte_indices(self) -> None:
        if self.n_pos > MAX_WEYL_ROOTS:
            raise ValueError(
                f"{self.dtype.label} has {self.n_pos} positive roots; Weyl group elements are "
                f"bytes of root indices, which reach at most {MAX_WEYL_ROOTS}")

    @cached_property
    def _left_tables(self) -> dict:
        """Per node j: the index permutation of the 2N roots under r_j, as a
        256-byte ``translate`` table, and per position i the table k -> 2rho_i
        (alpha_j, root k)."""
        self._require_byte_indices()
        tables = {}
        for j in self.nodes:
            row = [self.pairing_simple(j, b) for b in self.roots]
            perm = bytes(self._index[self.reflect(j, b)] for b in self.roots)
            tables[j] = (perm.ljust(256, b"\0"), [[c * p for p in row] for c in self.two_rho])
        return tables

    @cached_property
    def _sum_index(self) -> dict[tuple[int, int], int]:
        """The index of the sum of two roots, filled by right steps."""
        self._require_byte_indices()
        return {}

    def simple_reflection(self, i: int) -> Weyl:
        return self.left_mul_simple(i, self.identity)

    def right_mul_simple(self, w: Weyl, j: int) -> Weyl:
        """w r_j: negate image j; neighbor i's becomes the root w(alpha_i) + w(alpha_j)."""
        sums = self._sum_index
        imgs = list(w)
        a = w[j - 1]
        n_pos = self.n_pos
        imgs[j - 1] = a - n_pos if a >= n_pos else a + n_pos
        for i in self.neighbors[j]:
            key = (w[i - 1], a)
            s = sums.get(key)
            if s is None:
                s = sums[key] = self._index[tuple(map(add, self.roots[key[0]], self.roots[a]))]
            imgs[i - 1] = s
        return bytes(imgs)

    def right_move(self, j: int):
        """The map w -> (w r_j, whether l(w r_j) < l(w)): a descent when w(alpha_j),
        image j, is a negative root."""
        k, n_pos = j - 1, self.n_pos
        return lambda w: (self.right_mul_simple(w, j), w[k] >= n_pos)

    def left_mul_simple(self, j: int, w: Weyl) -> Weyl:
        """r_j w; permutes every stored image."""
        return w.translate(self._left_tables[j][0])

    def left_move(self, j: int):
        """The map w -> (r_j w, whether l(r_j w) < l(w)), bound to j's tables;
        the descent test is the sign of (alpha_j, w(2 rho)) = 2 ht(w^-1 alpha_j)."""
        perm, rows = self._left_tables[j]
        return lambda w: (w.translate(perm), sum(map(getitem, rows, w)) < 0)

    def reduced_word(self, w: Weyl) -> tuple[int, ...]:
        """Canonical reduced word via right descents, smallest node first."""
        cached = self._word_cache.get(w)
        if cached is not None:
            return cached
        letters = []
        cur = w
        while cur != self.identity:
            for i in self.nodes:
                if cur[i - 1] >= self.n_pos:
                    cur = self.right_mul_simple(cur, i)
                    letters.append(i)
                    break
            else:
                raise ValueError("not a Weyl group element")
        word = tuple(reversed(letters))
        self._word_cache[w] = word
        return word

    # -- reduced words ------------------------------------------------------

    def _climb_word(self, start: Root, beta: Root) -> list[int]:
        """Letters of the shortest element sending start up to beta.

        Both roots must satisfy start <= beta coefficientwise.  Returned in
        application order (first reflection first); the reduced word is the
        reverse.
        """
        letters = []
        gamma = start
        while gamma != beta:
            for k in self.nodes:
                if gamma[k - 1] >= beta[k - 1]:
                    continue
                if self.pairing_simple(k, gamma) == -1:
                    gamma = self.add_simple(gamma, k)
                    letters.append(k)
                    break
            else:
                raise ValueError(f"no chain from {start} to {beta}")
        return letters

    def geodesic_word(self, i: int, j: int) -> tuple[int, ...]:
        """Reduced word of the shortest w with w(alpha_i) = alpha_j.

        Along the diagram path p_0 = i, ..., p_t = j it is
        (p_{t-1} p_t)(p_{t-2} p_{t-1})...(p_0 p_1), which conjugates r_i to r_j.
        """
        toward, queue = {j: j}, [j]  # each node's neighbor one step nearer j
        for node in queue:
            for nb in self.neighbors[node]:
                if nb not in toward:
                    toward[nb] = node
                    queue.append(nb)
        path = [i]
        while path[-1] != j:
            path.append(toward[path[-1]])
        word = []
        for t in range(len(path) - 2, -1, -1):
            word += [path[t], path[t + 1]]
        return tuple(word)

    @lru_cache(maxsize=None)
    def d_beta_word(self, beta: Root) -> tuple[int, ...]:
        """Reduced word for the inverse of the minimal element beta -> alpha_0."""
        self.require_root(beta)
        return tuple(self._climb_word(beta, self.highest_root))

    @lru_cache(maxsize=None)
    def s_beta_word(self, beta: Root) -> tuple[int, ...]:
        """Reduced word of the reflection in beta, of length 2 ht(beta) - 1.

        With k the first node of the support, it is w k w^-1 for w the
        shortest element with w(alpha_k) = beta.
        """
        self.require_root(beta)
        k = self.support(beta)[0]
        climb = self._climb_word(self.alpha(k), beta)
        word = tuple(reversed(climb)) + (k,) + tuple(climb)
        if len(word) != 2 * self.height(beta) - 1:
            raise AssertionError(f"s_beta word for {beta} is not reduced")
        return word

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "type": self.dtype.label,
            "positive_roots": [list(b) for b in self.positive_roots],
            "highest_root": list(self.highest_root),
            "c_nodes": list(self.c_nodes),
        }


@lru_cache(maxsize=None)
def build_type(label: str) -> RootSystem:
    """Shared immutable root system for a type label such as ``D4``."""
    return RootSystem(DynkinType.parse(label))


def parabolic_order(rs: RootSystem, nodes) -> int:
    """Order of the parabolic subgroup generated by the given nodes.

    Macdonald's product over its positive roots, the roots supported on
    ``nodes``: |W_J| = prod (ht beta + 1) / ht beta, exact in integers.
    """
    nodes = set(nodes)
    heights = [sum(beta) for beta in rs.positive_roots if nodes.issuperset(rs.support(beta))]
    return prod(h + 1 for h in heights) // prod(heights)
