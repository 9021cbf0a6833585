import math
import re
import signal
import warnings

import numpy as np
import pytest

from assettree import metrics
from assettree.errors import (
    ConfigurationError,
    InvariantError,
    MissingVertexError,
)
from assettree.metrics import (
    PHASE_MULTI_HUB,
    PHASE_POWER_LAW,
    PHASE_SUPERHUB,
    PhaseRule,
    classify_phase,
    fit_power_law,
    summarize_batch,
)
from assettree.mst import Tree, prim_batch
from conftest import chain_tree, degree_row, nonzero_counts, random_dist, star_tree, tickers_for
from oracles import (
    degree_histogram,
    mean_occupation_layer,
    normalized_tree_length,
    preferential_attachment_tree,
    summarize,
)


# Degree histograms shaped like the two market regimes the detector must
# split: one lone dominant vertex over a power-law body, and a body with
# six large degrees none of which dominates the runner-up.
LONE_HUB = {1: 109, 2: 18, 3: 6, 4: 3, 5: 2, 6: 1, 7: 1, 8: 1, 53: 1}
SIX_HUBS = {1: 210, 2: 35, 3: 12, 4: 6, 5: 3, 6: 2, 18: 1, 20: 1, 23: 1, 25: 1, 27: 1, 30: 1}


def test_summary_distribution_of_path():
    dist = summarize(chain_tree(4)).distribution
    assert nonzero_counts(dist) == {1: 2, 2: 2}


def test_summary_distribution_of_large_star():
    summary = summarize(star_tree(142))
    assert nonzero_counts(summary.distribution) == {1: 141, 141: 1}
    assert summary.center == "T00"


@pytest.mark.parametrize("counts", [LONE_HUB, SIX_HUBS], ids=["lone-hub", "six-hubs"])
def test_trailing_zero_counts_change_no_fit_or_label(counts):
    row = degree_row(counts)
    padded = np.zeros(300, dtype=row.dtype)
    padded[: len(row)] = row
    assert repr(fit_power_law(padded)) == repr(fit_power_law(row))
    assert repr(classify_phase(padded)) == repr(classify_phase(row))


def test_lone_hub_frequency_normalization():
    dist = degree_row(LONE_HUB)
    assert dist.sum() == 142
    assert dist[53] / dist.sum() == pytest.approx(0.007, abs=5e-4)


def test_handshake_identity_on_generated_trees():
    for seed in range(10):
        tree = preferential_attachment_tree(200, seed)
        dist = summarize(tree).distribution
        assert sum(k * c for k, c in nonzero_counts(dist).items()) == 2 * (tree.n - 1)
        assert dist.sum() == tree.n


def test_degree_distribution_rejects_wrong_edge_count():
    # The degree distribution is read only through summarize, which leaves the
    # edge count to check_tree.
    tree = Tree.from_edges(tickers_for(4), [0, 1], [1, 2], [1.0, 1.0])
    with pytest.raises(InvariantError, match="^expected 3 edges, got 2$"):
        summarize(tree)


def exact_power_counts(exponent: float, ks, scale: float = 1000.0) -> dict:
    return {k: scale * k**exponent for k in ks}


@pytest.mark.parametrize("exponent", [-2.0, -2.62, -3.0])
def test_fit_recovers_exact_exponent(exponent):
    dist = degree_row(exact_power_counts(exponent, range(1, 21)))
    fit = fit_power_law(dist)
    assert fit.slope == pytest.approx(exponent, abs=1e-6)
    assert fit.slope_stderr == pytest.approx(0.0, abs=1e-9)
    assert fit.excluded_degrees == ()
    assert max(abs(r) for r in fit.residuals.values()) < 1e-9


def test_fit_exact_on_sparse_degree_set():
    dist = degree_row(exact_power_counts(-2.0, [1, 2, 4, 8]))
    fit = fit_power_law(dist)
    assert fit.slope == pytest.approx(-2.0, abs=1e-6)
    assert fit.k_range == (1, 8)


def test_fit_needs_three_distinct_degrees():
    assert fit_power_law(degree_row({1: 141, 141: 1})) is None


@pytest.mark.parametrize(
    "counts, message",
    [
        pytest.param(np.zeros(5, dtype=np.int64), "hold no vertex", id="all-zero"),
        pytest.param(np.array([0, 3, -1, 1]), "not all finite and non-negative", id="negative"),
        pytest.param(np.array([0.0, 2.0, np.nan, 1.0]), "not all finite and non-negative", id="nan"),
        pytest.param(np.ones((2, 3), dtype=np.int64), r"shape \(2, 3\) are not one row", id="two-dimensional"),
    ],
)
def test_a_bad_degree_row_raises_a_typed_error_before_any_warning(counts, message):
    for call in (fit_power_law, classify_phase):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvariantError, match=message):
                call(counts)


@pytest.mark.parametrize("counts", [LONE_HUB, {1: 141, 141: 1}], ids=["fit", "no-fit"])
def test_classify_phase_checks_its_degree_row_once(monkeypatch, counts):
    calls = []
    check = metrics._check_counts
    monkeypatch.setattr(metrics, "_check_counts", lambda row: calls.append(1) or check(row))
    classify_phase(degree_row(counts))
    assert len(calls) == 1


def test_fit_matches_weighted_polyfit_when_nothing_is_dropped():
    counts = {1: 40, 2: 12, 3: 5, 4: 2, 5: 1}
    dist = degree_row(counts)
    fit = fit_power_law(dist)
    assert fit.excluded_degrees == ()
    x = np.log10(list(counts))
    y = np.log10(np.array(list(counts.values())) / dist.sum())
    slope, intercept = np.polyfit(x, y, 1, w=np.sqrt(list(counts.values())))
    assert fit.slope == pytest.approx(slope, abs=1e-10)
    assert fit.intercept == pytest.approx(intercept, abs=1e-10)


def test_fit_excludes_lone_outlier_from_final_line():
    fit = fit_power_law(degree_row(LONE_HUB))
    assert fit.excluded_degrees == (53,)
    assert fit.k_range == (1, 8)
    assert fit.residuals[53] > 0.8


def test_fit_takes_its_drop_threshold_from_the_phase_rule():
    dist = degree_row(LONE_HUB)
    assert fit_power_law(dist, PhaseRule(tau=0.8)).excluded_degrees == (53,)
    residual = fit_power_law(dist).residuals[53]
    kept = fit_power_law(dist, PhaseRule(tau=residual + 1.0))
    assert kept.excluded_degrees == ()
    assert kept.k_range == (1, 53)
    assert classify_phase(dist, PhaseRule(tau=residual + 1.0)).fit == kept


def test_ntl_constant_weights():
    assert normalized_tree_length(star_tree(10)) == pytest.approx(1.0, abs=1e-12)


def test_ntl_mean_of_two_edges():
    tree = Tree.from_edges(tickers_for(3), [0, 1], [1, 2], [0.4, 0.8])
    assert normalized_tree_length(tree) == pytest.approx(0.6, abs=1e-12)


def test_ntl_vanishes_as_correlation_saturates():
    w = math.sqrt(2.0 * (1.0 - 0.999999))
    tree = Tree.from_edges(tickers_for(4), [0, 0, 0], [1, 2, 3], [w, w, w])
    assert normalized_tree_length(tree) < 0.002


def test_mol_star_center():
    n = 11
    assert mean_occupation_layer(star_tree(n), "T00") == pytest.approx(
        (n - 1) / n, abs=1e-12
    )


def test_mol_chain_endpoint():
    n = 9
    assert mean_occupation_layer(chain_tree(n), "T00") == pytest.approx(
        (n - 1) / 2, abs=1e-12
    )


def test_mol_chain_middle():
    assert mean_occupation_layer(chain_tree(3), "T01") == pytest.approx(
        2 / 3, abs=1e-12
    )


def test_mol_unknown_vertex_raises():
    with pytest.raises(MissingVertexError):
        mean_occupation_layer(chain_tree(3), "NOPE")


def test_center_of_star_is_its_hub():
    assert summarize(star_tree(6)).center == "T00"


def test_center_breaks_degree_ties_lexicographically():
    tree = Tree.from_edges(["C", "B", "A", "D"], [0, 1, 2], [1, 2, 3], [1.0, 1.0, 1.0])
    assert summarize(tree).center == "A"


def test_mol_at_dynamic_center_is_bounded_below_by_best_vertex():
    for seed in range(5):
        tree = preferential_attachment_tree(60, seed)
        best = min(mean_occupation_layer(tree, t) for t in tree.tickers)
        dynamic = mean_occupation_layer(tree, summarize(tree).center)
        assert best <= dynamic


@pytest.mark.parametrize("field", ["tau", "gap", "tau_hub"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_phase_rule_rejects_a_non_finite_threshold(field, value):
    with pytest.raises(ConfigurationError, match="^%s must be finite" % field):
        PhaseRule(**{field: value})


def test_lone_dominant_hub_is_a_superhub():
    dist = degree_row(LONE_HUB)
    report = classify_phase(dist)
    assert report.fit == fit_power_law(dist)
    assert report.k_max == 53
    assert report.k_second == 8
    assert report.degree_gap_ratio == pytest.approx(53 / 8)
    assert report.log_residual >= 0.8
    assert report.phase == PHASE_SUPERHUB


def test_six_near_hubs_are_not_a_superhub():
    dist = degree_row(SIX_HUBS)
    label = classify_phase(dist)
    assert label.fit == fit_power_law(dist)
    assert label.k_max == 30
    assert label.k_second == 27
    assert label.degree_gap_ratio < 1.6
    assert label.phase == PHASE_MULTI_HUB
    assert label.n_outlier_hubs == 6


def test_path_graph_is_never_a_superhub():
    dist = summarize(chain_tree(40)).distribution
    report = classify_phase(dist)
    assert report.fit is None
    assert report.phase == PHASE_POWER_LAW


def test_pure_star_classifies_as_superhub_without_a_fit():
    for n in (20, 50, 142):
        dist = summarize(star_tree(n)).distribution
        assert fit_power_law(dist) is None
        report = classify_phase(dist)
        assert report.fit is None
        assert report.phase == PHASE_SUPERHUB


def test_exact_power_law_classifies_as_power_law():
    dist = degree_row(exact_power_counts(-2.62, range(1, 16)))
    label = classify_phase(dist)
    assert label.fit == fit_power_law(dist)
    assert label.phase == PHASE_POWER_LAW
    assert label.n_outlier_hubs == 0


def test_superhub_decision_invariant_under_relabeling():
    tree = preferential_attachment_tree(150, 7)
    renamed = Tree.from_edges(["Z%03d" % (149 - i) for i in range(150)], tree.i, tree.j, tree.w)
    d1, d2 = summarize(tree).distribution, summarize(renamed).distribution
    r1, r2 = classify_phase(d1), classify_phase(d2)
    assert np.array_equal(d1, d2)
    assert (r1.phase == PHASE_SUPERHUB) == (r2.phase == PHASE_SUPERHUB)
    assert r1.degree_gap_ratio == r2.degree_gap_ratio
    assert r1.fit.slope == pytest.approx(r2.fit.slope, abs=1e-12)


@pytest.mark.parametrize(
    "tree",
    [
        star_tree(20),
        preferential_attachment_tree(150, 7),
        chain_tree(30),  # depth N-1 from vertex 0
        Tree.from_edges(tickers_for(12), [7] * 11, [v for v in range(12) if v != 7], [0.5] * 11),
    ],
)
def test_summarize_matches_the_chain_step_by_step(tree):
    summary = summarize(tree)
    dist = degree_histogram(tree)
    label = classify_phase(dist)
    deg = tree.degrees()
    center = min(t for t, k in zip(tree.tickers, deg) if k == deg.max())
    assert summary.distribution.dtype == np.int64  # the row of the tree's np.bincount table
    assert np.array_equal(summary.distribution, dist)
    assert summary.phase.fit == fit_power_law(dist)
    assert repr(summary.phase) == repr(label)  # log_residual is NaN without a fit
    assert summary.center == center
    assert summary.phase.k_max == int(tree.degrees().max())
    assert summary.ntl == normalized_tree_length(tree)
    assert summary.mol_dynamic == mean_occupation_layer(tree, center)


@pytest.mark.parametrize(
    "a, b, message",
    [
        pytest.param([0, 1], [1, 2], "expected 3 edges, got 2", id="a0-b0"),
        pytest.param([0, 1, 0], [1, 2, 2], "cycle: the edges leave 'T03' unreached", id="a1-b1"),
    ],
)
def test_summarize_rejects_edges_that_do_not_span_the_tickers(a, b, message):
    # The messages are check_tree's: summarize judges no structure itself.
    with pytest.raises(InvariantError, match="^%s$" % re.escape(message)):
        summarize(Tree.from_edges(tickers_for(4), a, b, [1.0] * len(a)))


@pytest.mark.parametrize("weight", [math.nan, math.inf, -0.5])
def test_summarize_rejects_a_weight_check_tree_rejects(weight):
    tree = Tree.from_edges(tickers_for(3), [0, 1], [1, 2], [0.5, weight])
    with pytest.raises(InvariantError, match=r"^edge weight %s outside \[0, inf\)$" % re.escape(repr(weight))):
        summarize(tree)


@pytest.fixture
def time_limit():
    """Fail the test body with TimeoutError after 10 s, so a loop that never ends fails."""

    def expire(signum, frame):
        raise TimeoutError("no return within 10 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(10)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize(
    "src, dst, message",
    [
        # 0 <- 1 <- 2 <- 0 closes a cycle, and walking it up never reaches a root.
        pytest.param([[1, 2, 0]], [[0, 1, 2]], "not in join order", id="cycle"),
        # A star on T03 as a Tree's own sorted i, j: T03 is brought in three times.
        pytest.param([[0, 1, 2]], [[3, 3, 3]], "bring a vertex in twice", id="repeated-dst"),
        pytest.param([[3, 3, 4]], [[0, 1, 2]], r"outside 0\.\.3", id="past-n"),
        pytest.param([[3, 3, -1]], [[0, 1, 2]], r"outside 0\.\.3", id="negative"),
        pytest.param([[3, 3]], [[0, 1]], "for 4 vertices", id="too-few-edges"),
    ],
)
def test_summarize_batch_rejects_columns_not_in_join_order(src, dst, message, time_limit):
    with pytest.raises(InvariantError, match=message):
        summarize_batch(tickers_for(4), np.array(src), np.array(dst), np.ones((1, 3)), 0)


# Two stars on 4 vertices, centered on T00 and on T03.
STARS = np.array([[0, 0, 0], [3, 3, 3]]), np.array([[1, 2, 3], [0, 1, 2]])


@pytest.mark.parametrize("static", [4, -1])
def test_summarize_batch_rejects_a_static_vertex_outside_the_trees(static):
    with pytest.raises(MissingVertexError, match=r"static vertex %d outside 0\.\.3" % static):
        summarize_batch(tickers_for(4), *STARS, np.ones((2, 3)), static)


@pytest.mark.parametrize(
    "w, message",
    [
        pytest.param(np.ones((1, 4)), r"shapes \(1, 3\), \(1, 3\), \(1, 4\)", id="long"),
        pytest.param(np.ones((1, 2)), r"shapes \(1, 3\), \(1, 3\), \(1, 2\)", id="short"),
        pytest.param(np.array([[1.0, math.nan, 1.0]]), r"edge weight nan outside \[0, inf\)", id="nan"),
        pytest.param(np.array([[1.0, -1.0, 1.0]]), r"edge weight -1\.0 outside \[0, inf\)", id="negative"),
    ],
)
def test_summarize_batch_rejects_weights_that_check_tree_rejects(w, message):
    src, dst = STARS[0][:1], STARS[1][:1]
    with pytest.raises(InvariantError, match=message):
        summarize_batch(tickers_for(4), src, dst, w, 0)
    if w.shape == src.shape:
        with pytest.raises(InvariantError, match=message):
            summarize(Tree.from_edges(tickers_for(4), src[0], dst[0], w[0]))


def test_summarize_batch_accepts_prim_and_summarize_columns(rng, time_limit):
    tickers, d = random_dist(rng, 9)
    src, dst, w = prim_batch(tickers, np.stack((d, random_dist(rng, 9)[1])))
    for b, (summary, _) in enumerate(summarize_batch(tickers, src, dst, w, 0)):
        single = summarize(Tree.from_edges(tickers, src[b], dst[b], w[b]))
        assert np.array_equal(summary.distribution, single.distribution)
        assert repr(summary.phase) == repr(single.phase)
        assert (summary.center, summary.ntl, summary.mol_dynamic) == (single.center, single.ntl, single.mol_dynamic)
    # The path T00 - T03 - T02 - T01: its edges sorted by (i, j) bring T02
    # in after the edge that leaves it, so `summarize` orders them by level.
    path = Tree.from_edges(tickers_for(4), [0, 1, 2], [3, 2, 3], [0.1, 0.2, 0.3])
    summary = summarize(path)
    assert summary.center == "T02"
    assert summary.mol_dynamic == mean_occupation_layer(path, "T02")
