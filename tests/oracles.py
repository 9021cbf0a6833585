"""Reference MST builders and a known-exponent tree, for the tests only.

The package builds every tree with one kernel, `mst.prim_batch`. Two
independent references check it here: Kruskal over sorted edges, with
the disjoint sets of `UnionFind`, and an exhaustive oracle for small N.
Both take their edge order from the package's `_pair_key` and
`_ticker_ranks`, so edges are ordered by (weight, ticker pair) in one
place: the minimum tree is unique, and all three builders return
identical edge sets even when weights tie.

`preferential_attachment_tree` grows a random tree whose degree
distribution has a known power-law exponent, and `corrcoef_reference`
is the correlation matrix as numpy's `np.corrcoef` gives it, made
exactly symmetric. `total_weight`, `degree_histogram`,
`normalized_tree_length` and `mean_occupation_layer` read the total
weight, degree histogram, NTL and MOL off a `Tree` directly, its
degrees, edge weights and breadth-first levels, as references for
`mst.prim_batch` and `metrics.summarize_batch`.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from assettree.errors import ConfigurationError, InsufficientDataError, MissingVertexError
from assettree.mst import Tree, _pair_key, _ticker_ranks
from assettree.synth import _tickers

BRUTE_FORCE_MAX_N = 8


def _edge_order(tickers: list[str], d: np.ndarray):
    """Edges i < j with weights w, and their (weight, ticker pair) sort order."""
    rank = _ticker_ranks(tickers)
    iu, ju = np.triu_indices(len(tickers), 1)
    w = d[iu, ju]
    return iu, ju, w, np.lexsort((_pair_key(rank, iu, ju), w))


class UnionFind:
    """Disjoint sets with path compression and union by rank."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.rank = [0] * n

    def find(self, a: int) -> int:
        root = a
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[a] != root:
            self.parent[a], a = root, self.parent[a]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1
        return True


def corrcoef_reference(returns: np.ndarray) -> np.ndarray:
    """np.corrcoef of the rows, its upper triangle mirrored, and a unit diagonal."""
    rho = np.corrcoef(returns)
    upper = np.triu(rho, 1)
    rho = upper + upper.T
    np.fill_diagonal(rho, 1.0)
    return rho


def degree_histogram(tree: Tree) -> np.ndarray:
    """Count of each degree in `tree.degrees()`: row[k] vertices have degree k, for k < N."""
    return np.bincount(tree.degrees(), minlength=tree.n)


def total_weight(tree: Tree) -> float:
    """Sum of the edge weights.

    fsum is exactly rounded, so the total does not depend on edge order
    and coincides across builders returning the same multiset.
    """
    return math.fsum(tree.w.tolist())


def normalized_tree_length(tree: Tree) -> float:
    """Mean edge weight: total tree length over N-1 edges."""
    return total_weight(tree) / (tree.n - 1)


def mean_occupation_layer(tree: Tree, central: str) -> float:
    """Mean hop count from every vertex to `central` (itself at level 0)."""
    try:
        root = tree.tickers.index(central)
    except ValueError:
        raise MissingVertexError("no vertex %r in tree" % central) from None
    return sum(tree.levels(root)) / tree.n


def kruskal_mst(tickers: list[str], d: np.ndarray) -> Tree:
    """Kruskal over all N(N-1)/2 edges with union-find cycle rejection."""
    n = len(tickers)
    if n < 2:
        raise InsufficientDataError("spanning tree needs at least 2 vertices")
    iu, ju, w, order = _edge_order(tickers, d)

    uf = UnionFind(n)
    kept = []
    for e in order.tolist():
        if uf.union(int(iu[e]), int(ju[e])):
            kept.append(e)
            if len(kept) == n - 1:
                break
    return Tree.from_edges(tickers, iu[kept], ju[kept], w[kept])


@functools.lru_cache(maxsize=None)
def _prufer_trees(n: int) -> np.ndarray:
    """Edge table (n^(n-2), n-1, 2) of every labeled tree on n >= 2 vertices.

    Row r is the tree of the r-th Prufer sequence; all sequences are
    decoded in parallel as one batch of array operations. The table
    depends only on n, so it is built once and shared read-only.
    """
    m = n ** (n - 2)
    seqs = np.indices((n,) * (n - 2)).reshape(n - 2, m).T
    rows = np.arange(m)

    deg = np.ones((m, n), dtype=np.int8)
    np.add.at(deg, (rows[:, None], seqs), 1)
    avail = deg == 1
    edges = np.empty((m, n - 1, 2), dtype=np.int8)
    for t in range(n - 2):
        leaf = np.argmax(avail, axis=1)
        parent = seqs[:, t]
        edges[:, t, 0] = leaf
        edges[:, t, 1] = parent
        avail[rows, leaf] = False
        deg[rows, leaf] = 0
        deg[rows, parent] -= 1
        avail[rows, parent] = deg[rows, parent] == 1
    first = np.argmax(avail, axis=1)
    avail[rows, first] = False
    second = np.argmax(avail, axis=1)
    edges[:, n - 2, 0] = first
    edges[:, n - 2, 1] = second
    edges.flags.writeable = False
    return edges


def brute_force_mst(tickers: list[str], d: np.ndarray) -> Tree:
    """Exhaustive minimum over all N^(N-2) labeled trees (N <= 8).

    Edge e gets the bit 2^rank(e), its rank under the (weight, ticker
    pair) order, and each tree scores the sum of its edge bits. A tree
    beats another exactly when the highest-ranked edge they do not share
    belongs to the other, so the unique minimum score is the minimum
    spanning tree under that order, ties in weight included.
    """
    n = len(tickers)
    if n < 2:
        raise InsufficientDataError("spanning tree needs at least 2 vertices")
    if n > BRUTE_FORCE_MAX_N:
        raise ValueError(
            "exhaustive search capped at N=%d, got N=%d" % (BRUTE_FORCE_MAX_N, n)
        )
    iu, ju, _, order = _edge_order(tickers, d)
    bits = np.zeros((n, n), dtype=np.int64)
    bits[iu[order], ju[order]] = np.left_shift(1, np.arange(order.size, dtype=np.int64))
    bits += bits.T
    trees = _prufer_trees(n)
    best = trees[int(np.argmin(bits[trees[..., 0], trees[..., 1]].sum(axis=1)))]
    a, b = best[:, 0], best[:, 1]
    return Tree.from_edges(tickers, a, b, d[a, b])


def preferential_attachment_tree(n: int, seed: int) -> Tree:
    """Random tree grown by degree-proportional attachment, unit weights.

    Keeps the classic repeated-endpoints list: each edge appends both of
    its endpoints, so sampling a uniform position in the list picks an
    existing vertex with probability proportional to its degree.
    """
    if n < 2:
        raise ConfigurationError("tree needs at least 2 vertices")
    rng = np.random.default_rng(seed)
    targets = np.zeros(n - 1, dtype=np.int64)  # vertex v attaches to targets[v - 1]
    endpoints = [0, 1]
    for v in range(2, n):
        target = endpoints[rng.integers(len(endpoints))]
        targets[v - 1] = target
        endpoints += (target, v)
    return Tree.from_edges(_tickers(n), targets, np.arange(1, n), np.ones(n - 1))
