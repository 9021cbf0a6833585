"""Minimal spanning tree construction over complete distance graphs.

Prim is the one builder: `prim_batch` builds the trees of a stack of B
dense distance matrices in one call, and one tree is its B = 1 call on
`d[None]`. Edges are ordered by (weight, ticker pair), where the ticker
pair is compared lexicographically with the smaller ticker first
(`_pair_key`). That refinement makes the minimum tree unique even when
many weights coincide. The tests check Prim edge for edge against
Kruskal and an exhaustive oracle in `tests/oracles.py`, which take the
same order from `_pair_key`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError, InvariantError


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

    def levels(self, root: int) -> list[int]:
        """Hop count from `root` to each vertex, -1 for a vertex it does not reach."""
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for i, j in zip(self.i.tolist(), self.j.tolist()):
            adj[i].append(j)
            adj[j].append(i)
        level = [-1] * self.n
        level[root] = 0
        frontier = [root]
        while frontier:
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if level[v] < 0:
                        level[v] = level[u] + 1
                        nxt.append(v)
            frontier = nxt
        return level


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


def prim_batch(
    tickers: list[str], d: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense O(N^2) Prim on a stack of B distance matrices at once.

    `d` has shape (B, N, N); all B graphs are on `tickers`, so each tree
    starts from the lexicographically first ticker and breaks ties by
    (weight, ticker pair). Returns (src, dst, w), each of shape (B, N-1),
    in join order: edge e of tree b brings in dst[b, e] from src[b, e],
    which joined before it (or is the first ticker), with weight
    w[b, e] = d[b, src[b, e], dst[b, e]].
    """
    nb, n, _ = d.shape
    if n < 2:
        raise InsufficientDataError("spanning tree needs at least 2 vertices")
    rows = np.arange(nb)
    rank = _ticker_ranks(tickers)
    start = int(np.argmin(rank))
    # Cheapest known edge into the tree per vertex, NaN once the vertex is
    # in it: NaN never compares true, and fmin skips it.
    best_w = d[:, start].astype(np.float64)
    best_w[:, start] = np.nan
    best_from = np.full((nb, n), start, dtype=np.int64)
    dst = np.empty((nb, n - 1), dtype=np.int64)
    for step in range(n - 1):
        cand = best_w == np.fmin.reduce(best_w, axis=1, keepdims=True)
        if np.count_nonzero(cand) > nb:
            # Equal-weight frontier edges: take the smallest ticker pair.
            key = _pair_key(rank, best_from, np.arange(n))
            v = np.where(cand, key, np.iinfo(np.int64).max).argmin(axis=1)
        else:
            v = cand.argmax(axis=1)
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
    # A vertex's best_from is frozen once it joins: its NaN best_w never compares true.
    src = best_from[rows[:, None], dst]
    return src, dst, d[rows[:, None], src, dst]


def check_tree(tree: Tree) -> list[int]:
    """Raise if the edges do not form a spanning tree on its tickers.

    This is the package's one structural check of a `Tree`. It returns
    `tree.levels(0)`, the walk it finds a cycle with.
    """
    n = tree.n
    if len(tree.i) != n - 1:
        raise InvariantError("expected %d edges, got %d" % (n - 1, len(tree.i)))
    for i, j, w in zip(tree.i.tolist(), tree.j.tolist(), tree.w.tolist()):
        if not (0 <= i < j < n):
            raise InvariantError("bad edge endpoints (%d, %d)" % (i, j))
        if not 0 <= w < math.inf:
            raise InvariantError("edge weight %r outside [0, inf)" % w)
    # N-1 edges that leave a vertex unreached must close a cycle elsewhere.
    level = tree.levels(0)
    if -1 in level:
        raise InvariantError("cycle: the edges leave %r unreached" % tree.tickers[level.index(-1)])
    return level
