"""Shared builders for synthetic matrices and trees."""

from __future__ import annotations

import numpy as np
import pytest

from assettree.correlation import DistanceMatrix
from assettree.mst import Tree


def tickers_for(n: int) -> list[str]:
    return ["T%02d" % i for i in range(n)]


def dist_from_array(d: np.ndarray, tickers: list[str] | None = None) -> DistanceMatrix:
    n = d.shape[0]
    return DistanceMatrix(tickers or tickers_for(n), np.asarray(d, dtype=float))


def random_dist(rng: np.random.Generator, n: int) -> DistanceMatrix:
    """Symmetric matrix of distinct positive weights, zero diagonal."""
    upper = rng.uniform(0.05, 2.0, size=(n, n))
    d = np.triu(upper, 1)
    d = d + d.T
    return dist_from_array(d)


def edge_list(tree: Tree) -> list[tuple[int, int, float]]:
    """The tree's edges as (i, j, w) tuples, for readable assertions."""
    return list(zip(tree.i.tolist(), tree.j.tolist(), tree.w.tolist()))


def star_tree(n: int, weight: float = 1.0) -> Tree:
    return Tree.from_edges(tickers_for(n), [0] * (n - 1), range(1, n), [weight] * (n - 1))


def path_max_weights(tree: Tree, source: int) -> dict[int, float]:
    """Largest edge weight on the tree path from source to every vertex."""
    adj: dict[int, list[tuple[int, float]]] = {v: [] for v in range(tree.n)}
    for i, j, w in edge_list(tree):
        adj[i].append((j, w))
        adj[j].append((i, w))
    best = {source: 0.0}
    frontier = [source]
    while frontier:
        nxt = []
        for u in frontier:
            for v, w in adj[u]:
                if v not in best:
                    best[v] = max(best[u], w)
                    nxt.append(v)
        frontier = nxt
    return best


def chain_tree(n: int, weight: float = 1.0) -> Tree:
    return Tree.from_edges(tickers_for(n), range(n - 1), range(1, n), [weight] * (n - 1))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)
