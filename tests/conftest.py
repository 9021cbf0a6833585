"""Shared builders for synthetic matrices and trees."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from assettree.mst import Tree, prim_batch
from assettree.rolling import _chunks
from oracles import check_tree


def tickers_for(n: int) -> list[str]:
    return ["T%02d" % i for i in range(n)]


def dist_from_array(
    d: np.ndarray, tickers: list[str] | None = None
) -> tuple[list[str], np.ndarray]:
    """(tickers, d), the arguments of every MST builder."""
    return tickers or tickers_for(d.shape[0]), np.asarray(d, dtype=float)


def random_dist(rng: np.random.Generator, n: int) -> tuple[list[str], np.ndarray]:
    """Symmetric matrix of distinct positive weights, zero diagonal."""
    upper = rng.uniform(0.05, 2.0, size=(n, n))
    d = np.triu(upper, 1)
    d = d + d.T
    return dist_from_array(d)


def prim_mst(tickers: list[str], d: np.ndarray) -> Tree:
    """The Prim tree of one distance matrix: `prim_batch`'s B = 1 call as a `Tree`."""
    src, dst, w = prim_batch(tickers, d[None])
    return Tree.from_edges(tickers, src[0], dst[0], w[0])


def read_tree(path) -> Tree:
    """The tree of an edge-list file such as `tree.edges`, on its sorted tickers, held to `check_tree`.

    Reads `a,b,w` lines and skips `#` lines; the file's `\n` is the only line break.
    """
    lines = Path(path).read_text(encoding="utf-8").split("\n")
    rows = [line.split(",") for line in lines if line and not line.startswith("#")]
    tickers = sorted({t for a, b, _ in rows for t in (a, b)})
    index = {t: k for k, t in enumerate(tickers)}
    tree = Tree.from_edges(tickers, [index[a] for a, _, _ in rows], [index[b] for _, b, _ in rows], [float(w) for *_, w in rows])
    check_tree(tree)
    return tree


def window_trees(panel, spans):
    """Yield (start, end, tree, dropped) per [start, end) column span, in order, from `rolling._chunks`."""
    for tickers, rows, edges in _chunks(panel, spans):
        for (start, end, dropped), *columns in zip(rows, *edges):
            yield start, end, Tree.from_edges(tickers, *columns), dropped


def edge_list(tree: Tree) -> list[tuple[int, int, float]]:
    """The tree's edges as (i, j, w) tuples, for readable assertions."""
    return list(zip(tree.i.tolist(), tree.j.tolist(), tree.w.tolist()))


def degree_row(counts: dict) -> np.ndarray:
    """The degree-count row of {degree: count}: row[k] vertices have degree k, zeros elsewhere."""
    values = np.array(list(counts.values()))
    row = np.zeros(max(counts) + 1, dtype=values.dtype)
    row[list(counts)] = values
    return row


def nonzero_counts(row: np.ndarray) -> dict:
    """{degree: count} of the nonzero entries of a degree-count row."""
    return {k: c for k, c in enumerate(row.tolist()) if c}


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
