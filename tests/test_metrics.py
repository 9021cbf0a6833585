import math

import numpy as np
import pytest

from assettree.errors import InvariantError, MissingVertexError, UnderdeterminedFitError
from assettree.metrics import (
    DegreeDistribution,
    PHASE_MULTI_HUB,
    PHASE_POWER_LAW,
    PHASE_SUPERHUB,
    classify_phase,
    degree_distribution,
    detect_superhub,
    fit_power_law,
    max_degree_vertex,
    mean_occupation_layer,
    normalized_tree_length,
    summarize,
)
from assettree.mst import Tree
from assettree.synth import preferential_attachment_tree

from conftest import chain_tree, star_tree, tickers_for


def dist_of(counts: dict, hub: str | None = "HUB") -> DegreeDistribution:
    n = sum(counts.values())
    counts = dict(sorted(counts.items()))
    return DegreeDistribution(n, counts, {k: c / n for k, c in counts.items()}, hub)


# Degree histograms shaped like the two market regimes the detector must
# split: one lone dominant vertex over a power-law body, and a body with
# six large degrees none of which dominates the runner-up.
LONE_HUB = {1: 109, 2: 18, 3: 6, 4: 3, 5: 2, 6: 1, 7: 1, 8: 1, 53: 1}
SIX_HUBS = {1: 210, 2: 35, 3: 12, 4: 6, 5: 3, 6: 2, 18: 1, 20: 1, 23: 1, 25: 1, 27: 1, 30: 1}


def test_degree_distribution_of_path():
    dist = degree_distribution(chain_tree(4))
    assert dist.counts == {1: 2, 2: 2}
    assert dist.f == {1: 0.5, 2: 0.5}


def test_degree_distribution_of_large_star():
    dist = degree_distribution(star_tree(142))
    assert dist.counts == {1: 141, 141: 1}
    assert dist.f[141] == pytest.approx(1 / 142)
    assert dist.hub_ticker == "T00"


def test_lone_hub_frequency_normalization():
    dist = dist_of(LONE_HUB)
    assert dist.n_vertices == 142
    assert dist.f[53] == pytest.approx(1 / 142)
    assert dist.f[53] == pytest.approx(0.007, abs=5e-4)


def test_handshake_identity_on_generated_trees():
    for seed in range(10):
        tree = preferential_attachment_tree(200, seed)
        dist = degree_distribution(tree)
        assert sum(k * c for k, c in dist.counts.items()) == 2 * (tree.n - 1)
        assert sum(dist.counts.values()) == tree.n


def test_degree_distribution_rejects_wrong_edge_count():
    tree = Tree(tickers_for(4), [(0, 1, 1.0), (1, 2, 1.0)])
    with pytest.raises(InvariantError, match="handshake"):
        degree_distribution(tree)


def exact_power_counts(exponent: float, ks, scale: float = 1000.0) -> dict:
    return {k: scale * k**exponent for k in ks}


@pytest.mark.parametrize("exponent", [-2.0, -2.62, -3.0])
def test_fit_recovers_exact_exponent(exponent):
    dist = dist_of(exact_power_counts(exponent, range(1, 21)), hub=None)
    fit = fit_power_law(dist)
    assert fit.slope == pytest.approx(exponent, abs=1e-6)
    assert fit.slope_stderr == pytest.approx(0.0, abs=1e-9)
    assert fit.excluded_degrees == ()
    assert max(abs(r) for r in fit.residuals.values()) < 1e-9


def test_fit_exact_on_sparse_degree_set():
    dist = dist_of(exact_power_counts(-2.0, [1, 2, 4, 8]), hub=None)
    fit = fit_power_law(dist)
    assert fit.slope == pytest.approx(-2.0, abs=1e-6)
    assert fit.k_range == (1, 8)


def test_fit_needs_three_distinct_degrees():
    with pytest.raises(UnderdeterminedFitError):
        fit_power_law(dist_of({1: 141, 141: 1}))


def test_fit_matches_weighted_polyfit_when_nothing_is_dropped():
    counts = {1: 40, 2: 12, 3: 5, 4: 2, 5: 1}
    dist = dist_of(counts)
    fit = fit_power_law(dist)
    assert fit.excluded_degrees == ()
    x = np.log10(list(counts))
    y = np.log10(np.array(list(counts.values())) / dist.n_vertices)
    slope, intercept = np.polyfit(x, y, 1, w=np.sqrt(list(counts.values())))
    assert fit.slope == pytest.approx(slope, abs=1e-10)
    assert fit.intercept == pytest.approx(intercept, abs=1e-10)


def test_fit_excludes_lone_outlier_from_final_line():
    fit = fit_power_law(dist_of(LONE_HUB))
    assert fit.excluded_degrees == (53,)
    assert fit.k_range == (1, 8)
    assert fit.residuals[53] > 0.8


def test_ntl_constant_weights():
    assert normalized_tree_length(star_tree(10)) == pytest.approx(1.0, abs=1e-12)


def test_ntl_mean_of_two_edges():
    tree = Tree(tickers_for(3), [(0, 1, 0.4), (1, 2, 0.8)])
    assert normalized_tree_length(tree) == pytest.approx(0.6, abs=1e-12)


def test_ntl_vanishes_as_correlation_saturates():
    w = math.sqrt(2.0 * (1.0 - 0.999999))
    tree = Tree(tickers_for(4), [(0, v, w) for v in range(1, 4)])
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


def test_max_degree_vertex_of_star_is_center():
    assert max_degree_vertex(star_tree(6)) == "T00"


def test_max_degree_vertex_breaks_ties_lexicographically():
    tree = Tree(["A", "B", "C", "D"], [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
    assert max_degree_vertex(tree) == "B"


def test_mol_at_dynamic_center_is_bounded_below_by_best_vertex():
    for seed in range(5):
        tree = preferential_attachment_tree(60, seed)
        best = min(mean_occupation_layer(tree, t) for t in tree.tickers)
        dynamic = mean_occupation_layer(tree, max_degree_vertex(tree))
        assert best <= dynamic


def test_lone_dominant_hub_is_a_superhub():
    dist = dist_of(LONE_HUB)
    fit = fit_power_law(dist)
    report = detect_superhub(dist, fit)
    assert report.is_superhub
    assert report.k_max == 53
    assert report.k_second == 8
    assert report.degree_gap_ratio == pytest.approx(53 / 8)
    assert report.log_residual >= 0.8
    assert report.hub_ticker == "HUB"
    assert classify_phase(dist, fit, report).phase == PHASE_SUPERHUB


def test_six_near_hubs_are_not_a_superhub():
    dist = dist_of(SIX_HUBS)
    fit = fit_power_law(dist)
    report = detect_superhub(dist, fit)
    assert not report.is_superhub
    assert report.k_max == 30
    assert report.k_second == 27
    assert report.degree_gap_ratio < 1.6
    label = classify_phase(dist, fit, report)
    assert label.phase == PHASE_MULTI_HUB
    assert label.n_outlier_hubs == 6


def test_path_graph_is_never_a_superhub():
    dist = degree_distribution(chain_tree(40))
    report = detect_superhub(dist, None)
    assert not report.is_superhub
    assert classify_phase(dist, None, report).phase == PHASE_POWER_LAW


def test_pure_star_classifies_as_superhub_without_a_fit():
    for n in (20, 50, 142):
        tree = star_tree(n)
        dist = degree_distribution(tree)
        with pytest.raises(UnderdeterminedFitError):
            fit_power_law(dist)
        report = detect_superhub(dist, None)
        assert report.is_superhub
        assert classify_phase(dist, None, report).phase == PHASE_SUPERHUB


def test_exact_power_law_classifies_as_power_law():
    dist = dist_of(exact_power_counts(-2.62, range(1, 16)), hub=None)
    fit = fit_power_law(dist)
    report = detect_superhub(dist, fit)
    assert not report.is_superhub
    label = classify_phase(dist, fit, report)
    assert label.phase == PHASE_POWER_LAW
    assert label.n_outlier_hubs == 0


def test_superhub_decision_invariant_under_relabeling():
    tree = preferential_attachment_tree(150, 7)
    renamed = Tree(["Z%03d" % (149 - i) for i in range(150)], list(tree.edges))
    d1, d2 = degree_distribution(tree), degree_distribution(renamed)
    f1, f2 = fit_power_law(d1), fit_power_law(d2)
    r1, r2 = detect_superhub(d1, f1), detect_superhub(d2, f2)
    assert d1.counts == d2.counts
    assert r1.is_superhub == r2.is_superhub
    assert r1.degree_gap_ratio == r2.degree_gap_ratio
    assert f1.slope == pytest.approx(f2.slope, abs=1e-12)


@pytest.mark.parametrize("tree", [star_tree(20), preferential_attachment_tree(150, 7)])
def test_summarize_matches_the_chain_step_by_step(tree):
    summary = summarize(tree)
    dist = degree_distribution(tree)
    try:
        fit = fit_power_law(dist)
    except UnderdeterminedFitError:
        fit = None
    report = detect_superhub(dist, fit)
    center = max_degree_vertex(tree)
    assert summary.distribution == dist
    assert summary.fit == fit
    assert repr(summary.superhub) == repr(report)  # log_residual is NaN without a fit
    assert summary.phase == classify_phase(dist, fit, report)
    assert summary.center == center
    assert summary.superhub.k_max == int(tree.degrees().max())
    assert summary.ntl == normalized_tree_length(tree)
    assert summary.mol_dynamic == mean_occupation_layer(tree, center)
