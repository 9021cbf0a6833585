"""Minimal spanning tree construction over complete distance graphs.

One Prim kernel, `prim_batch`, builds the trees of a stack of B dense
distance matrices in one call; `prim_mst` is its B = 1 call. Two
independent references check it: Kruskal over sorted edges and an
exhaustive oracle for small N. All three resolve ties the same way:
edges are ordered by (weight, ticker pair), where the ticker pair is
compared lexicographically with the smaller ticker first. That
refinement makes the minimum tree unique, so all three return identical
edge sets even when many weights coincide: the oracle is exact under
ties, not just minimal in total weight.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError, InvariantError, SizeLimitError

BRUTE_FORCE_MAX_N = 8


@dataclass
class Tree:
    """Spanning tree: N tickers and N-1 weighted edges as columns.

    Edge e joins vertices i[e] < j[e] with weight w[e]; edges are sorted
    by (i, j). `from_edges` is the one constructor that puts edge arrays
    in that form.
    """

    tickers: list[str]
    i: np.ndarray  # int64
    j: np.ndarray  # int64
    w: np.ndarray  # float64

    @classmethod
    def from_edges(cls, tickers, a, b, w) -> Tree:
        """Tree on `tickers` with edges (a[e], b[e]) of weight w[e], any order."""
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        w = np.asarray(w, dtype=np.float64)
        i, j = np.minimum(a, b), np.maximum(a, b)
        order = np.lexsort((j, i))
        return cls(list(tickers), i[order], j[order], w[order])

    @property
    def n(self) -> int:
        return len(self.tickers)

    @property
    def total_weight(self) -> float:
        # fsum is exactly rounded, so the total does not depend on edge
        # order and coincides across algorithms returning the same multiset.
        return math.fsum(self.w.tolist())

    def degrees(self) -> np.ndarray:
        return np.bincount(np.concatenate((self.i, self.j)), minlength=self.n)


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


def _pair_key(rank: np.ndarray, a, b):
    """Ticker pair of edges (a, b) as one integer, ordered lexicographically."""
    lo = np.minimum(rank[a], rank[b])
    hi = np.maximum(rank[a], rank[b])
    return lo * len(rank) + hi


def _edge_order(tickers: list[str], d: np.ndarray):
    """Edges i < j with weights w, and their (weight, ticker pair) sort order."""
    rank = _ticker_ranks(tickers)
    iu, ju = np.triu_indices(len(tickers), 1)
    w = d[iu, ju]
    return iu, ju, w, np.lexsort((_pair_key(rank, iu, ju), w))


def prim_batch(
    d: np.ndarray, rank: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense O(N^2) Prim on a stack of B distance matrices at once.

    `d` has shape (B, N, N); all B graphs share the vertex ranks `rank`
    (see `_ticker_ranks`), so each tree starts from the lexicographically
    first ticker and breaks ties by (weight, ticker pair). Returns
    (src, dst, w), each of shape (B, N-1): edge e of tree b joins
    src[b, e] and dst[b, e] with weight w[b, e] = d[b, src[b, e], dst[b, e]].
    """
    nb, n, _ = d.shape
    if n < 2:
        raise InsufficientDataError("spanning tree needs at least 2 vertices")
    rows = np.arange(nb)
    start = int(np.argmin(rank))
    # Cheapest known edge into the tree per vertex, NaN once the vertex is
    # in it: NaN never compares true, and fmin skips it.
    best_w = d[:, start].astype(np.float64)
    best_w[:, start] = np.nan
    best_from = np.full((nb, n), start, dtype=np.int64)
    src = np.empty((nb, n - 1), dtype=np.int64)
    dst = np.empty((nb, n - 1), dtype=np.int64)
    for step in range(n - 1):
        cand = best_w == np.fmin.reduce(best_w, axis=1, keepdims=True)
        if np.count_nonzero(cand) > nb:
            # Equal-weight frontier edges: take the smallest ticker pair.
            key = _pair_key(rank, best_from, np.arange(n))
            v = np.where(cand, key, np.iinfo(np.int64).max).argmin(axis=1)
        else:
            v = cand.argmax(axis=1)
        src[:, step] = best_from[rows, v]
        dst[:, step] = v
        best_w[rows, v] = np.nan

        dv = d[rows, v]
        better = dv < best_w
        ties = dv == best_w
        if ties.any():
            tb, tu = np.nonzero(ties)
            better[tb, tu] = _pair_key(rank, v[tb], tu) < _pair_key(rank, best_from[tb, tu], tu)
        np.copyto(best_w, dv, where=better)
        np.copyto(best_from, v[:, None], where=better)
    return src, dst, d[rows[:, None], src, dst]


def prim_mst(tickers: list[str], d: np.ndarray) -> Tree:
    """Prim on the distances d of `tickers`: the B = 1 call of `prim_batch`."""
    src, dst, w = prim_batch(d[None], _ticker_ranks(tickers))
    return Tree.from_edges(tickers, src[0], dst[0], w[0])


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
        raise SizeLimitError(
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


def check_tree(tree: Tree) -> None:
    """Raise if the edges do not form a spanning tree on its tickers."""
    n = tree.n
    if len(tree.i) != n - 1:
        raise InvariantError("expected %d edges, got %d" % (n - 1, len(tree.i)))
    uf = UnionFind(n)
    for i, j, w in zip(tree.i.tolist(), tree.j.tolist(), tree.w.tolist()):
        if not (0 <= i < j < n):
            raise InvariantError("bad edge endpoints (%d, %d)" % (i, j))
        if not 0 <= w < math.inf:
            raise InvariantError("edge weight %r outside [0, inf)" % w)
        if not uf.union(i, j):
            raise InvariantError("cycle through edge (%d, %d)" % (i, j))
