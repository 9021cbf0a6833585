"""Minimal spanning tree construction over complete distance graphs.

Two production algorithms (Prim on a dense matrix, Kruskal over sorted
edges) plus an exhaustive oracle for small N. All three resolve ties the
same way: edges are ordered by (weight, ticker pair), where the ticker
pair is compared lexicographically with the smaller ticker first. That
refinement makes the minimum tree unique, so all three return identical
edge sets even when many weights coincide: the oracle is exact under
ties, not just minimal in total weight.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .correlation import DistanceMatrix
from .errors import InsufficientDataError, InvariantError, SizeLimitError

BRUTE_FORCE_MAX_N = 8


@dataclass
class Tree:
    """Spanning tree: N tickers and N-1 weighted edges with i < j."""

    tickers: list[str]
    edges: list[tuple[int, int, float]]

    @property
    def n(self) -> int:
        return len(self.tickers)

    @property
    def total_weight(self) -> float:
        # fsum is exactly rounded, so the total does not depend on edge
        # order and coincides across algorithms returning the same multiset.
        return math.fsum(w for _, _, w in self.edges)

    def degrees(self) -> np.ndarray:
        deg = np.zeros(self.n, dtype=int)
        for i, j, _ in self.edges:
            deg[i] += 1
            deg[j] += 1
        return deg

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for i, j, _ in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        return adj


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


def _ticker_ranks(tickers: list[str]) -> np.ndarray:
    """rank[v] = position of tickers[v] in sorted ticker order."""
    order = sorted(range(len(tickers)), key=tickers.__getitem__)
    rank = np.empty(len(tickers), dtype=np.int64)
    rank[order] = np.arange(len(tickers))
    return rank


def _edge_order(dist: DistanceMatrix):
    """Edges i < j with weights w, and their (weight, ticker pair) sort order."""
    rank = _ticker_ranks(dist.tickers)
    iu, ju = np.triu_indices(len(dist.tickers), 1)
    w = dist.d[iu, ju]
    lo = np.minimum(rank[iu], rank[ju])
    hi = np.maximum(rank[iu], rank[ju])
    return iu, ju, w, np.lexsort((hi, lo, w))


def _finish(tickers: list[str], raw_edges) -> Tree:
    edges = sorted(
        (min(i, j), max(i, j), float(w)) for i, j, w in raw_edges
    )
    return Tree(list(tickers), edges)


def prim_mst(dist: DistanceMatrix) -> Tree:
    """Dense O(N^2) Prim starting from the lexicographically first ticker."""
    n = len(dist.tickers)
    if n < 2:
        raise InsufficientDataError("spanning tree needs at least 2 vertices")
    d = dist.d
    rank = _ticker_ranks(dist.tickers)
    start = int(np.argmin(rank))

    in_tree = np.zeros(n, dtype=bool)
    in_tree[start] = True
    best_w = d[start].copy()
    best_from = np.full(n, start, dtype=np.int64)
    raw_edges = []
    for _ in range(n - 1):
        w = np.where(in_tree, np.inf, best_w)
        cand = np.flatnonzero(w == w.min())
        if cand.size > 1:
            # Equal-weight frontier edges: take the lexicographically
            # smallest (ticker, ticker) pair, packed as one integer key.
            lo = np.minimum(rank[best_from[cand]], rank[cand])
            hi = np.maximum(rank[best_from[cand]], rank[cand])
            v = int(cand[np.argmin(lo * n + hi)])
        else:
            v = int(cand[0])
        raw_edges.append((int(best_from[v]), v, d[best_from[v], v]))
        in_tree[v] = True

        dv = d[v]
        out = ~in_tree
        better = out & (dv < best_w)
        ties = np.flatnonzero(out & (dv == best_w))
        if ties.size:
            lo_new = np.minimum(rank[v], rank[ties])
            hi_new = np.maximum(rank[v], rank[ties])
            lo_old = np.minimum(rank[best_from[ties]], rank[ties])
            hi_old = np.maximum(rank[best_from[ties]], rank[ties])
            upgrade = lo_new * n + hi_new < lo_old * n + hi_old
            better[ties[upgrade]] = True
        best_from[better] = v
        best_w[better] = dv[better]
    return _finish(dist.tickers, raw_edges)


def kruskal_mst(dist: DistanceMatrix) -> Tree:
    """Kruskal over all N(N-1)/2 edges with union-find cycle rejection."""
    n = len(dist.tickers)
    if n < 2:
        raise InsufficientDataError("spanning tree needs at least 2 vertices")
    iu, ju, w, order = _edge_order(dist)

    uf = UnionFind(n)
    raw_edges = []
    for e in order:
        a, b = int(iu[e]), int(ju[e])
        if uf.union(a, b):
            raw_edges.append((a, b, w[e]))
            if len(raw_edges) == n - 1:
                break
    return _finish(dist.tickers, raw_edges)


@functools.lru_cache(maxsize=None)
def _prufer_trees(n: int) -> np.ndarray:
    """Edge table (n^(n-2), n-1, 2) of every labeled tree on n >= 3 vertices.

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


def brute_force_mst(dist: DistanceMatrix) -> Tree:
    """Exhaustive minimum over all N^(N-2) labeled trees (N <= 8).

    Edge e gets the bit 2^rank(e), its rank under the (weight, ticker
    pair) order, and each tree scores the sum of its edge bits. A tree
    beats another exactly when the highest-ranked edge they do not share
    belongs to the other, so the unique minimum score is the minimum
    spanning tree under that order, ties in weight included.
    """
    n = len(dist.tickers)
    if n < 2:
        raise InsufficientDataError("spanning tree needs at least 2 vertices")
    if n > BRUTE_FORCE_MAX_N:
        raise SizeLimitError(
            "exhaustive search capped at N=%d, got N=%d" % (BRUTE_FORCE_MAX_N, n)
        )
    d = dist.d
    if n == 2:
        return _finish(dist.tickers, [(0, 1, d[0, 1])])

    iu, ju, _, order = _edge_order(dist)
    bits = np.zeros((n, n), dtype=np.int64)
    bits[iu[order], ju[order]] = np.left_shift(1, np.arange(order.size, dtype=np.int64))
    bits += bits.T
    trees = _prufer_trees(n)
    best = trees[int(np.argmin(bits[trees[..., 0], trees[..., 1]].sum(axis=1)))]
    return _finish(dist.tickers, [(int(i), int(j), d[i, j]) for i, j in best])


def check_tree(tree: Tree) -> None:
    """Raise if the edge list is not a spanning tree on its tickers."""
    n = tree.n
    if len(tree.edges) != n - 1:
        raise InvariantError("expected %d edges, got %d" % (n - 1, len(tree.edges)))
    uf = UnionFind(n)
    for i, j, w in tree.edges:
        if not (0 <= i < j < n):
            raise InvariantError("bad edge endpoints (%d, %d)" % (i, j))
        if w < 0:
            raise InvariantError("negative edge weight %r" % w)
        if not uf.union(i, j):
            raise InvariantError("cycle through edge (%d, %d)" % (i, j))
