import numpy as np
import pytest

from assettree.errors import InvariantError, SizeLimitError
from assettree.mst import (
    Tree,
    UnionFind,
    brute_force_mst,
    check_tree,
    kruskal_mst,
    prim_mst,
)

from conftest import dist_from_array, path_max_weights, random_dist, tickers_for

ALGORITHMS = [prim_mst, kruskal_mst, brute_force_mst]


def triangle():
    d = np.array([[0.0, 0.5, 0.9], [0.5, 0.0, 0.7], [0.9, 0.7, 0.0]])
    return dist_from_array(d, ["A", "B", "C"])


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_three_node_example(algorithm):
    tree = algorithm(triangle())
    assert [(i, j) for i, j, _ in tree.edges] == [(0, 1), (1, 2)]
    assert tree.total_weight == pytest.approx(1.2, abs=1e-12)
    check_tree(tree)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_two_node_tree_is_the_single_edge(algorithm):
    d = dist_from_array(np.array([[0.0, 0.3], [0.3, 0.0]]), ["X", "Y"])
    tree = algorithm(d)
    assert tree.edges == [(0, 1, 0.3)]
    assert tree.total_weight == 0.3


def test_equal_weights_give_valid_tree_with_expected_total():
    n, w = 6, 0.75
    d = np.full((n, n), w)
    np.fill_diagonal(d, 0.0)
    for algorithm in ALGORITHMS:
        tree = algorithm(dist_from_array(d))
        check_tree(tree)
        assert tree.total_weight == pytest.approx((n - 1) * w, abs=1e-12)


def test_equal_weights_resolve_to_star_on_lexicographically_first_ticker():
    # With every weight tied, the ticker-pair order decides everything:
    # all edges touching the smallest ticker win.
    n = 5
    d = np.ones((n, n))
    np.fill_diagonal(d, 0.0)
    tickers = ["D", "A", "C", "B", "E"]
    prim = prim_mst(dist_from_array(d, tickers))
    kruskal = kruskal_mst(dist_from_array(d, tickers))
    brute = brute_force_mst(dist_from_array(d, tickers))
    assert prim.edges == kruskal.edges == brute.edges
    a = tickers.index("A")
    assert all(a in (i, j) for i, j, _ in prim.edges)


def test_star_structured_distances_recover_the_star():
    n = 7
    d = np.full((n, n), 1.0)
    np.fill_diagonal(d, 0.0)
    hub = 4
    d[hub, :] = d[:, hub] = 0.1
    d[hub, hub] = 0.0
    dist = dist_from_array(d)
    for algorithm in ALGORITHMS:
        tree = algorithm(dist)
        assert all(hub in (i, j) for i, j, _ in tree.edges)
    assert prim_mst(dist).edges == brute_force_mst(dist).edges


def test_distinct_weights_give_identical_edge_sets(rng):
    for _ in range(50):
        dist = random_dist(rng, 6)
        prim = prim_mst(dist)
        kruskal = kruskal_mst(dist)
        brute = brute_force_mst(dist)
        assert prim.edges == kruskal.edges == brute.edges
        assert prim.total_weight == kruskal.total_weight == brute.total_weight


def test_edge_weights_are_matrix_entries(rng):
    dist = random_dist(rng, 8)
    for i, j, w in prim_mst(dist).edges:
        assert w == dist.d[i, j]


def test_cut_property(rng):
    for _ in range(20):
        n = int(rng.integers(4, 8))
        dist = random_dist(rng, n)
        tree = prim_mst(dist)
        for skip in range(n - 1):
            uf = UnionFind(n)
            for e, (i, j, _) in enumerate(tree.edges):
                if e != skip:
                    uf.union(i, j)
            i0, j0, w0 = tree.edges[skip]
            side = uf.find(i0)
            left = [v for v in range(n) if uf.find(v) == side]
            right = [v for v in range(n) if uf.find(v) != side]
            crossing = min(dist.d[a, b] for a in left for b in right)
            assert w0 == crossing


def test_subdominant_ultrametric_bound(rng):
    for _ in range(20):
        dist = random_dist(rng, 10)
        tree = prim_mst(dist)
        for i in range(10):
            path_max = path_max_weights(tree, i)
            for j in range(10):
                if i != j:
                    assert path_max[j] <= dist.d[i, j]


def test_trees_are_connected_and_acyclic(rng):
    for _ in range(30):
        n = int(rng.integers(2, 12))
        tree = prim_mst(random_dist(rng, n))
        check_tree(tree)
        assert len(tree.edges) == n - 1


def test_brute_force_size_cap():
    d = np.zeros((9, 9))
    with pytest.raises(SizeLimitError):
        brute_force_mst(dist_from_array(d, tickers_for(9)))


def test_union_find_detects_cycles():
    uf = UnionFind(4)
    assert uf.union(0, 1)
    assert uf.union(2, 3)
    assert uf.union(1, 2)
    assert not uf.union(0, 3)
    assert uf.find(0) == uf.find(3)


def test_check_tree_rejects_a_cycle():
    # Right edge count, but vertex 3 is cut off and 0-1-2 closes a cycle.
    tree = Tree(tickers_for(4), [(0, 1, 0.5), (1, 2, 0.5), (0, 2, 0.5)])
    with pytest.raises(InvariantError, match="cycle"):
        check_tree(tree)
