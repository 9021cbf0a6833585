import math

import numpy as np
import pytest

from assettree.correlation import pearson_matrix
from assettree.errors import ConfigurationError
from assettree.synth import FactorModelParams, HubRegimeParams, hub_regime_returns, one_factor_returns

from conftest import edge_list, window_trees
from oracles import check_tree, normalized_tree_length, preferential_attachment_tree


def factor_params(n=10, days=200, beta=1.0, sigma=1.0, seed=0):
    return FactorModelParams(n, days, (beta,) * n, sigma, seed)


def test_same_seed_gives_identical_panels():
    a = one_factor_returns(factor_params(seed=11))
    b = one_factor_returns(factor_params(seed=11))
    assert np.array_equal(a.returns, b.returns)
    assert a.tickers == b.tickers
    assert a.dates == b.dates


def test_different_seeds_differ():
    a = one_factor_returns(factor_params(seed=1))
    b = one_factor_returns(factor_params(seed=2))
    assert not np.array_equal(a.returns, b.returns)


def test_zero_betas_leave_pairs_nearly_uncorrelated():
    flat = 0
    total = 0
    for seed in range(3):
        panel = one_factor_returns(factor_params(n=10, days=1000, beta=0.0, seed=seed))
        rho = pearson_matrix(panel.tickers, panel.returns)
        iu, ju = np.triu_indices(10, 1)
        total += len(iu)
        flat += int(np.count_nonzero(np.abs(rho[iu, ju]) < 0.1))
    assert flat / total >= 0.99


def test_unit_betas_with_tiny_noise_dominate_correlation():
    panel = one_factor_returns(factor_params(n=8, days=500, beta=1.0, sigma=0.01, seed=4))
    rho = pearson_matrix(panel.tickers, panel.returns)
    iu, ju = np.triu_indices(8, 1)
    assert np.all(rho[iu, ju] > 0.99)


def test_parameter_validation():
    with pytest.raises(ConfigurationError):
        FactorModelParams(1, 100, (1.0,), 1.0, 0)
    with pytest.raises(ConfigurationError):
        FactorModelParams(3, 100, (1.0, 1.0), 1.0, 0)
    with pytest.raises(ConfigurationError):
        FactorModelParams(3, 100, (1.0,) * 3, 0.0, 0)
    with pytest.raises(ConfigurationError, match="^n_days must be positive$"):
        FactorModelParams(3, 0, (1.0,) * 3, 1.0, 0)
    # numpy's default_rng raises a bare ValueError on a negative seed.
    with pytest.raises(ConfigurationError, match="^seed must be non-negative, got -1$"):
        FactorModelParams(3, 100, (1.0,) * 3, 1.0, -1)
    for betas, sigma in [((1.0, math.nan, 1.0), 1.0), ((1.0, 1.0, -math.inf), 1.0), ((1.0,) * 3, math.inf)]:
        with pytest.raises(ConfigurationError, match="must be finite"):
            FactorModelParams(3, 100, betas, sigma, 0)
    base = factor_params()
    with pytest.raises(ConfigurationError):
        HubRegimeParams(base, 99, 0.5, (0, 100))
    with pytest.raises(ConfigurationError):
        HubRegimeParams(base, 0, 1.0, (0, 100))
    with pytest.raises(ConfigurationError):
        HubRegimeParams(base, 0, 0.5, (50, 900))


def test_gamma_zero_equals_base_model():
    base = factor_params(seed=21)
    regime = hub_regime_returns(HubRegimeParams(base, 2, 0.0, (50, 150)))
    plain = one_factor_returns(base)
    assert np.array_equal(regime.returns, plain.returns)


def test_coupling_changes_only_the_interval():
    base = factor_params(seed=3)
    regime = hub_regime_returns(HubRegimeParams(base, 2, 0.7, (50, 150)))
    plain = one_factor_returns(base)
    assert np.array_equal(regime.returns[:, :50], plain.returns[:, :50])
    assert np.array_equal(regime.returns[:, 150:], plain.returns[:, 150:])
    assert np.array_equal(regime.returns[2], plain.returns[2])
    assert not np.array_equal(regime.returns[0, 50:150], plain.returns[0, 50:150])


def _regime_panel(seed, n=20, days=280, gamma=0.9, interval=(70, 210)):
    base = FactorModelParams(n, days, (0.0,) * n, 1.0, seed)
    return hub_regime_returns(HubRegimeParams(base, 5, gamma, interval))


def test_strong_coupling_makes_a_star_on_the_hub():
    stars = 0
    for seed in range(20):
        panel = _regime_panel(seed)
        tree = next(window_trees(panel, [(70, 210)]))[2]
        deg = tree.degrees()
        if deg.max() == tree.n - 1 and tree.tickers[int(deg.argmax())] == "V0005":
            stars += 1
    assert stars >= 19


def test_ntl_drops_inside_the_coupled_interval():
    for seed in range(10):
        panel = _regime_panel(seed, days=280, interval=(70, 210))
        inside, outside = (
            normalized_tree_length(tree) for _, _, tree, _ in window_trees(panel, [(70, 210), (0, 70)])
        )
        assert inside < outside


def test_pa_tree_smallest_case_is_single_edge():
    tree = preferential_attachment_tree(2, 0)
    assert edge_list(tree) == [(0, 1, 1.0)]


def test_pa_tree_is_deterministic_and_valid():
    a = preferential_attachment_tree(500, 9)
    b = preferential_attachment_tree(500, 9)
    assert edge_list(a) == edge_list(b)
    check_tree(a)


def test_pa_tree_handshake_for_various_sizes():
    for n, seed in [(2, 0), (5, 1), (37, 2), (400, 3)]:
        tree = preferential_attachment_tree(n, seed)
        deg = tree.degrees()
        assert deg.sum() == 2 * (n - 1)
        assert deg.min() >= 1
