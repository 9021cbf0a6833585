"""End-to-end acceptance gates for the whole toolkit.

Each test here is one pass/fail gate over a pinned tolerance. They are
intentionally heavier than the unit tests: exhaustive oracles, many
seeds, full CLI runs.
"""

import json
import math
import time

import numpy as np
import pytest

from assettree.cli import main
from assettree.correlation import to_distance
from assettree.metrics import (
    PHASE_MULTI_HUB,
    PHASE_SUPERHUB,
    classify_phase,
    fit_power_law,
)
from assettree.rolling import WindowSpec, detect_transitions, evolve, windows
from assettree.synth import FactorModelParams, HubRegimeParams, hub_regime_returns

from conftest import (
    chain_tree, degree_row, dist_from_array, edge_list, path_max_weights, prim_mst, random_dist, star_tree,
)
from oracles import (
    brute_force_mst,
    kruskal_mst,
    mean_occupation_layer,
    normalized_tree_length,
    preferential_attachment_tree,
    summarize,
)


def test_mst_algorithms_agree_with_exhaustive_oracle():
    rng = np.random.default_rng(2024)
    started = time.monotonic()
    checked = 0
    for n in range(2, 9):
        for _ in range(150):
            dist = random_dist(rng, n)
            prim = prim_mst(*dist)
            kruskal = kruskal_mst(*dist)
            brute = brute_force_mst(*dist)
            assert edge_list(prim) == edge_list(kruskal) == edge_list(brute)
            checked += 1
    # Tied weights: the (weight, ticker pair) order still picks one tree,
    # and the oracle follows that order exactly.
    levels = np.array([0.25, 0.5, 0.75, 1.0])
    for _ in range(150):
        n = int(rng.integers(3, 9))
        picks = levels[rng.integers(0, len(levels), size=(n, n))]
        d = np.triu(picks, 1)
        d = d + d.T
        dist = dist_from_array(d)
        prim = prim_mst(*dist)
        kruskal = kruskal_mst(*dist)
        brute = brute_force_mst(*dist)
        assert edge_list(prim) == edge_list(kruskal) == edge_list(brute)
        checked += 1
    elapsed = time.monotonic() - started
    assert checked >= 1000
    assert elapsed < 60.0


def test_distance_recipe_fixed_points_and_monotonicity():
    d = to_distance(np.array([[1.0, 1.0, 0.0], [1.0, 1.0, -1.0], [0.0, -1.0, 1.0]]))
    assert abs(d[0, 1] - 0.0) <= 1e-12
    assert abs(d[0, 2] - math.sqrt(2.0)) <= 1e-12
    assert abs(d[1, 2] - 2.0) <= 1e-12
    grid = np.linspace(-1.0, 1.0, 1000)
    dist = to_distance(grid)
    assert np.all(np.diff(dist) < 0.0)


def test_analytic_occupation_layer_and_tree_length_fixtures():
    for n in (5, 20, 142):
        star = star_tree(n)
        assert abs(mean_occupation_layer(star, "T00") - (n - 1) / n) <= 1e-12
        assert abs(normalized_tree_length(star) - 1.0) <= 1e-12
        chain = chain_tree(n)
        assert abs(mean_occupation_layer(chain, "T00") - (n - 1) / 2) <= 1e-12
    for seed in range(10):
        tree = preferential_attachment_tree(300, seed)
        deg = tree.degrees()
        assert deg.sum() == 2 * (tree.n - 1)


@pytest.mark.parametrize("exponent", [-2.0, -2.62, -3.0])
def test_power_law_fit_recovers_known_exponents_exactly(exponent):
    # Float weights: 1000 k^exponent, and k^exponent itself, below 1 past k = 1.
    for scale in (1000.0, 1.0):
        counts = degree_row({k: scale * k**exponent for k in range(1, 21)})
        assert counts.dtype == np.float64
        fit = fit_power_law(counts)
        assert abs(fit.slope - exponent) <= 1e-6


def test_preferential_attachment_exponent_band():
    slopes = []
    for seed in range(20):
        tree = preferential_attachment_tree(10_000, seed)
        fit = fit_power_law(summarize(tree).distribution)
        slopes.append(fit.slope)
    mean_slope = float(np.mean(slopes))
    assert -3.3 <= mean_slope <= -2.7, "mean fitted slope %.3f" % mean_slope


def test_superhub_detector_splits_market_shaped_histograms():
    lone = degree_row({1: 109, 2: 18, 3: 6, 4: 3, 5: 2, 6: 1, 7: 1, 8: 1, 53: 1})
    assert lone.sum() == 142
    assert classify_phase(lone).phase == PHASE_SUPERHUB

    spread = degree_row(
        {1: 210, 2: 35, 3: 12, 4: 6, 5: 3, 6: 2, 18: 1, 20: 1, 23: 1, 25: 1, 27: 1, 30: 1}
    )
    assert spread.sum() == 274
    assert classify_phase(spread).phase == PHASE_MULTI_HUB


REGIME = (250, 500)
E2E_WIDTH = 125


def _crash_series(seed):
    base = FactorModelParams(50, 750, (0.0,) * 50, 1.0, seed)
    panel = hub_regime_returns(HubRegimeParams(base, 7, 0.9, REGIME))
    spec = WindowSpec(E2E_WIDTH, 25)
    return evolve(panel, spec, "V0007"), [start for start, _ in windows(panel, spec)]


def _overlaps(start):
    return start + E2E_WIDTH > REGIME[0] and start < REGIME[1]


def test_end_to_end_crash_detection_over_twenty_seeds():
    started = time.monotonic()
    overlap_hits = ntl_hits = mol_hits = 0
    center_hits = in_regime_windows = 0
    for seed in range(20):
        series, starts = _crash_series(seed)
        report = detect_transitions(series)
        if any(
            _overlaps(starts[a]) or _overlaps(starts[b])
            for a, b, _ in report.superhub_intervals
        ):
            overlap_hits += 1
        if _overlaps(starts[report.ntl_argmin[0]]):
            ntl_hits += 1
        if _overlaps(starts[report.mol_argmin[0]]):
            mol_hits += 1
        for k, start in enumerate(starts):
            if start >= REGIME[0] and start + E2E_WIDTH <= REGIME[1]:
                in_regime_windows += 1
                if series.dynamic_center[k] == "V0007":
                    center_hits += 1
    elapsed = time.monotonic() - started
    assert overlap_hits >= 19, "superhub interval overlap in %d/20 seeds" % overlap_hits
    assert ntl_hits >= 18, "ntl argmin inside regime in %d/20 seeds" % ntl_hits
    assert mol_hits >= 18, "mol argmin inside regime in %d/20 seeds" % mol_hits
    assert center_hits / in_regime_windows >= 0.90
    assert elapsed < 300.0


def test_static_and_dynamic_occupation_layers_coincide_on_shared_center():
    matched_windows = 0
    for seed in range(3):
        base = FactorModelParams(20, 200, (0.0,) * 20, 1.0, seed)
        panel = hub_regime_returns(HubRegimeParams(base, 5, 0.9, (0, 200)))
        series = evolve(panel, WindowSpec(100, 25), "V0005")
        for k in range(len(series)):
            if series.dynamic_center[k] == "V0005":
                matched_windows += 1
                assert series.mol_static[k] == series.mol_dynamic[k]
    assert matched_windows > 0


def test_tree_paths_respect_subdominant_ultrametric_bound():
    rng = np.random.default_rng(77)
    for _ in range(100):
        tickers, d = random_dist(rng, 20)
        tree = prim_mst(tickers, d)
        for i in range(20):
            bound = path_max_weights(tree, i)
            for j in range(20):
                if i != j:
                    assert bound[j] <= d[i, j]


def test_evolve_command_is_byte_deterministic(tmp_path):
    params = tmp_path / "params.txt"
    params.write_text(
        "n_companies = 12\nn_days = 220\nbeta = 0.0\nnoise_sigma = 1.0\n"
        "seed = 13\nhub_index = 4\ngamma = 0.9\nregime_start = 60\nregime_end = 160\n",
        encoding="utf-8",
    )
    assert main(["synth", str(params), "--out", str(tmp_path)]) == 0
    prices = tmp_path / "prices.csv"
    outs = []
    for sub in ("first", "second"):
        out = tmp_path / sub
        assert main(
            ["evolve", str(prices), "--window", "60", "--step", "15", "--out", str(out)]
        ) == 0
        outs.append(out)
    for name in ("series.csv", "transitions.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
