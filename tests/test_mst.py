import numpy as np
import pytest

from assettree.errors import InsufficientDataError, InvariantError
from assettree.exports import read_tree_edges, write_tree_edges
from assettree.mst import Tree, _ticker_ranks, check_tree, prim_batch

from conftest import dist_from_array, edge_list, path_max_weights, prim_mst, random_dist, tickers_for
from oracles import UnionFind, brute_force_mst, kruskal_mst, preferential_attachment_tree, total_weight

ALGORITHMS = [prim_mst, kruskal_mst, brute_force_mst]


def triangle():
    d = np.array([[0.0, 0.5, 0.9], [0.5, 0.0, 0.7], [0.9, 0.7, 0.0]])
    return dist_from_array(d, ["A", "B", "C"])


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_three_node_example(algorithm):
    tree = algorithm(*triangle())
    assert [(i, j) for i, j, _ in edge_list(tree)] == [(0, 1), (1, 2)]
    assert total_weight(tree) == pytest.approx(1.2, abs=1e-12)
    check_tree(tree)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_two_node_tree_is_the_single_edge(algorithm):
    tree = algorithm(*dist_from_array(np.array([[0.0, 0.3], [0.3, 0.0]]), ["X", "Y"]))
    assert edge_list(tree) == [(0, 1, 0.3)]
    assert total_weight(tree) == 0.3


def test_equal_weights_give_valid_tree_with_expected_total():
    n, w = 6, 0.75
    d = np.full((n, n), w)
    np.fill_diagonal(d, 0.0)
    for algorithm in ALGORITHMS:
        tree = algorithm(*dist_from_array(d))
        check_tree(tree)
        assert total_weight(tree) == pytest.approx((n - 1) * w, abs=1e-12)


def test_equal_weights_resolve_to_star_on_lexicographically_first_ticker():
    # With every weight tied, the ticker-pair order decides everything:
    # all edges touching the smallest ticker win.
    n = 5
    d = np.ones((n, n))
    np.fill_diagonal(d, 0.0)
    tickers = ["D", "A", "C", "B", "E"]
    prim = prim_mst(tickers, d)
    kruskal = kruskal_mst(tickers, d)
    brute = brute_force_mst(tickers, d)
    assert edge_list(prim) == edge_list(kruskal) == edge_list(brute)
    a = tickers.index("A")
    assert all(a in (i, j) for i, j, _ in edge_list(prim))


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_tied_cycle_drops_its_lexicographically_last_pair(algorithm):
    # The cycle A-E-B-C-D-A ties at 0.5. Its last pair is (C, D) in
    # lexicographic order but (B, E) if the larger ticker compared first.
    tickers = ["D", "B", "E", "A", "C"]
    at = tickers.index
    d = np.ones((5, 5))
    np.fill_diagonal(d, 0.0)
    for a, b in ["AE", "BE", "BC", "CD", "AD"]:
        d[at(a), at(b)] = d[at(b), at(a)] = 0.5
    tree = algorithm(tickers, d)
    pairs = {"".join(sorted(tickers[i] + tickers[j])) for i, j, _ in edge_list(tree)}
    assert pairs == {"AE", "BE", "BC", "AD"}


def test_star_structured_distances_recover_the_star():
    n = 7
    d = np.full((n, n), 1.0)
    np.fill_diagonal(d, 0.0)
    hub = 4
    d[hub, :] = d[:, hub] = 0.1
    d[hub, hub] = 0.0
    dist = dist_from_array(d)
    for algorithm in ALGORITHMS:
        tree = algorithm(*dist)
        assert all(hub in (i, j) for i, j, _ in edge_list(tree))
    assert edge_list(prim_mst(*dist)) == edge_list(brute_force_mst(*dist))


def _symmetric(stack):
    upper = np.triu(stack, 1)
    return upper + upper.transpose(0, 2, 1)


def _assert_batched_prim_matches_the_references(tickers, stack):
    src, dst, w = prim_batch(tickers, stack)
    others = sorted(set(range(len(tickers))) - {int(np.argmin(_ticker_ranks(tickers)))})
    for b, d in enumerate(stack):
        assert sorted(dst[b].tolist()) == others  # every vertex but the first joins once
        tree = Tree.from_edges(tickers, src[b], dst[b], w[b])
        references = [kruskal_mst(tickers, d)]
        if len(tickers) <= 8:
            references.append(brute_force_mst(tickers, d))
        for expected in references:
            assert edge_list(tree) == edge_list(expected)
            assert tree.w.tobytes() == expected.w.tobytes()


def test_batched_prim_resolves_ties_like_the_references(rng):
    # Four weight levels tie many frontier edges and many updates at once;
    # the all-equal matrix ties every one. Neither path runs without ties.
    for n in range(3, 41):
        stack = _symmetric(np.concatenate((rng.integers(1, 5, size=(4, n, n)) * 0.25, np.ones((1, n, n)))))
        tickers = ["T%02d" % k for k in rng.permutation(n)]
        _assert_batched_prim_matches_the_references(tickers, stack)


@pytest.mark.parametrize("n", [5, 8, 23])
def test_batched_prim_crosses_infinite_distances_like_the_references(rng, n):
    # Joined vertices sit at +inf in Prim's frontier too. Tree 0 has two
    # blocks that only +inf edges join; in tree 1 the three largest
    # tickers reach everything by +inf only, so the last steps' whole
    # frontier is at +inf and only the ticker pair picks.
    tickers = ["T%02d" % k for k in rng.permutation(n)]
    stack = np.stack((rng.uniform(0.05, 2.0, (n, n)), rng.integers(1, 5, (n, n)) * 0.25))
    part = rng.permutation(n)[: n // 2]
    other = np.setdiff1d(np.arange(n), part)
    stack[0][np.ix_(part, other)] = stack[0][np.ix_(other, part)] = np.inf
    last = np.argsort(tickers)[-3:]
    stack[1][last, :] = stack[1][:, last] = np.inf
    _assert_batched_prim_matches_the_references(tickers, _symmetric(stack))


@pytest.mark.parametrize("n", [6, 40])
def test_batched_prim_resolves_a_tie_in_one_tree_of_three(rng, n):
    # Only tree 1 ties, so the stack takes the tie branch at steps where
    # trees 0 and 2 have one cheapest edge each.
    tickers = ["T%02d" % k for k in rng.permutation(n)]
    stack = np.stack((rng.uniform(0.05, 2.0, (n, n)), rng.integers(1, 5, (n, n)) * 0.25, rng.uniform(0.05, 2.0, (n, n))))
    _assert_batched_prim_matches_the_references(tickers, _symmetric(stack))


def test_batched_prim_needs_two_vertices():
    with pytest.raises(InsufficientDataError, match="^spanning tree needs at least 2 vertices$"):
        prim_batch(["A"], np.zeros((1, 1, 1)))


def test_distinct_weights_give_identical_edge_sets(rng):
    for _ in range(50):
        dist = random_dist(rng, 6)
        prim = prim_mst(*dist)
        kruskal = kruskal_mst(*dist)
        brute = brute_force_mst(*dist)
        assert edge_list(prim) == edge_list(kruskal) == edge_list(brute)
        assert total_weight(prim) == total_weight(kruskal) == total_weight(brute)


def test_edge_weights_are_matrix_entries(rng):
    tickers, d = random_dist(rng, 8)
    for i, j, w in edge_list(prim_mst(tickers, d)):
        assert w == d[i, j]


def test_cut_property(rng):
    for _ in range(20):
        n = int(rng.integers(4, 8))
        tickers, d = random_dist(rng, n)
        tree = prim_mst(tickers, d)
        for skip in range(n - 1):
            uf = UnionFind(n)
            for e, (i, j, _) in enumerate(edge_list(tree)):
                if e != skip:
                    uf.union(i, j)
            i0, j0, w0 = edge_list(tree)[skip]
            side = uf.find(i0)
            left = [v for v in range(n) if uf.find(v) == side]
            right = [v for v in range(n) if uf.find(v) != side]
            crossing = min(d[a, b] for a in left for b in right)
            assert w0 == crossing


def test_subdominant_ultrametric_bound(rng):
    for _ in range(20):
        tickers, d = random_dist(rng, 10)
        tree = prim_mst(tickers, d)
        for i in range(10):
            path_max = path_max_weights(tree, i)
            for j in range(10):
                if i != j:
                    assert path_max[j] <= d[i, j]


def test_trees_are_connected_and_acyclic(rng):
    for _ in range(30):
        n = int(rng.integers(2, 12))
        tree = prim_mst(*random_dist(rng, n))
        check_tree(tree)
        assert len(tree.i) == n - 1


def test_brute_force_size_cap():
    d = np.zeros((9, 9))
    with pytest.raises(ValueError, match="capped at N=8"):
        brute_force_mst(tickers_for(9), d)


def test_union_find_detects_cycles():
    uf = UnionFind(4)
    assert uf.union(0, 1)
    assert uf.union(2, 3)
    assert uf.union(1, 2)
    assert not uf.union(0, 3)
    assert uf.find(0) == uf.find(3)


def test_check_tree_rejects_a_cycle():
    # Right edge count, but vertex 3 is cut off and 0-1-2 closes a cycle.
    tree = Tree.from_edges(tickers_for(4), [0, 1, 0], [1, 2, 2], [0.5, 0.5, 0.5])
    with pytest.raises(InvariantError, match="cycle"):
        check_tree(tree)


def test_check_tree_names_the_vertex_a_duplicated_edge_leaves_unreached():
    tree = Tree.from_edges(["A", "B", "C"], [0, 1], [1, 0], [0.5, 0.5])
    with pytest.raises(InvariantError, match="cycle: the edges leave 'C' unreached"):
        check_tree(tree)


def test_levels_are_hop_counts_with_minus_one_for_unreached_vertices():
    path = Tree.from_edges(tickers_for(4), [0, 1, 2], [1, 2, 3], [0.5, 0.5, 0.5])
    assert path.levels(0) == [0, 1, 2, 3]
    assert path.levels(2) == [2, 1, 0, 1]
    split = Tree.from_edges(tickers_for(4), [0, 2], [1, 3], [0.5, 0.5])
    assert split.levels(1) == [1, 0, -1, -1]
    assert split.levels(3) == [-1, -1, 1, 0]


@pytest.mark.parametrize("weight", [-0.5, float("nan"), float("inf")])
def test_check_tree_rejects_a_weight_outside_zero_to_infinity(weight):
    tree = Tree.from_edges(tickers_for(3), [0, 1], [1, 2], [0.5, weight])
    with pytest.raises(InvariantError, match="edge weight %r" % weight):
        check_tree(tree)


def test_every_builder_returns_canonical_edge_columns(rng, tmp_path):
    # Unsorted tickers, so vertex order and ticker order disagree.
    shuffled = dist_from_array(random_dist(rng, 7)[1], ["G", "C", "A", "F", "B", "E", "D"])
    dist = random_dist(rng, 7)
    write_tree_edges(tmp_path / "tree.edges", prim_mst(*dist), {})
    trees = [
        prim_mst(*shuffled),
        kruskal_mst(*shuffled),
        brute_force_mst(*shuffled),
        preferential_attachment_tree(40, 3),
        read_tree_edges(tmp_path / "tree.edges"),
    ]
    for tree in trees:
        assert tree.i.dtype == tree.j.dtype == np.int64
        assert tree.w.dtype == np.float64
        assert np.all(tree.i < tree.j)
        assert np.all(np.diff(tree.i * tree.n + tree.j) > 0)  # sorted by (i, j)
        check_tree(tree)
    original, reread = prim_mst(*dist), trees[-1]
    assert reread.tickers == original.tickers
    assert np.array_equal(reread.i, original.i)
    assert np.array_equal(reread.j, original.j)
    assert reread.w.tobytes() == original.w.tobytes()
