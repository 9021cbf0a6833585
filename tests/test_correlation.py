import math

import numpy as np
import pytest

from assettree.correlation import pearson_matrix, to_distance
from assettree.errors import DegenerateSeriesError, InsufficientDataError


def panel_of(rows):
    """(tickers, returns), the arguments of pearson_matrix."""
    rows = np.asarray(rows, dtype=float)
    return ["R%d" % i for i in range(rows.shape[0])], rows


def test_identical_rows_correlate_to_one():
    row = [0.1, -0.2, 0.05, 0.3]
    rho = pearson_matrix(*panel_of([row, row]))
    assert rho[0, 1] == pytest.approx(1.0, abs=1e-12)
    assert rho[0, 1] <= 1.0


def test_negated_row_correlates_to_minus_one():
    row = np.array([0.1, -0.2, 0.05, 0.3])
    rho = pearson_matrix(*panel_of([row, -row]))
    assert rho[0, 1] == pytest.approx(-1.0, abs=1e-12)
    assert rho[0, 1] >= -1.0


def test_orthogonal_rows_correlate_to_zero():
    rho = pearson_matrix(*panel_of([[1, -1, 1, -1], [1, 1, -1, -1]]))
    assert rho[0, 1] == pytest.approx(0.0, abs=1e-15)


def test_diagonal_is_exactly_one_and_matrix_symmetric(rng):
    rho = pearson_matrix(*panel_of(rng.standard_normal((6, 40))))
    assert np.all(np.diag(rho) == 1.0)
    assert np.array_equal(rho, rho.T)
    assert np.abs(rho).max() <= 1.0


def test_zero_variance_row_raises_with_ticker():
    rows = [[0.1, 0.2, -0.1, 0.3], [5.0, 5.0, 5.0, 5.0]]
    with pytest.raises(DegenerateSeriesError) as err:
        pearson_matrix(*panel_of(rows))
    assert "R1" in str(err.value)
    assert err.value.tickers == ("R1",)


def test_short_window_raises():
    with pytest.raises(InsufficientDataError):
        pearson_matrix(*panel_of([[0.1, 0.2], [0.3, -0.1]]))


def test_affine_invariance_per_row(rng):
    base = rng.standard_normal((5, 60))
    reference = pearson_matrix(*panel_of(base))
    for _ in range(20):
        a = rng.uniform(0.1, 5.0, size=(5, 1))
        b = rng.uniform(-2.0, 2.0, size=(5, 1))
        shifted = pearson_matrix(*panel_of(a * base + b))
        assert np.allclose(shifted, reference, atol=1e-12)


def test_distance_recipe_fixed_points():
    d = to_distance(np.array([[1.0, 1.0, 0.0], [1.0, 1.0, -1.0], [0.0, -1.0, 1.0]]))
    assert d[0, 1] == pytest.approx(0.0, abs=1e-12)
    assert d[0, 2] == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert d[1, 2] == pytest.approx(2.0, abs=1e-12)
    assert np.all(np.diag(d) == 0.0)


def test_distance_monotone_decreasing_in_correlation():
    rho_grid = np.linspace(-1.0, 1.0, 1000)
    d = to_distance(rho_grid)
    assert np.all(np.diff(d) < 0.0)


def test_pipeline_distances_stay_in_range(rng):
    panel = panel_of(rng.standard_normal((8, 50)))
    d = to_distance(pearson_matrix(*panel))
    assert np.all(d >= 0.0)
    assert np.all(d <= 2.0)
    assert np.all(np.diag(d) == 0.0)


def test_ranking_agreement_between_correlation_and_distance(rng):
    panel = panel_of(rng.standard_normal((7, 45)))
    rho = pearson_matrix(*panel)
    d = to_distance(rho)
    iu, ju = np.triu_indices(7, 1)
    rho_pairs = rho[iu, ju]
    d_pairs = d[iu, ju]
    for a in range(len(rho_pairs)):
        for b in range(len(rho_pairs)):
            if rho_pairs[a] > rho_pairs[b]:
                assert d_pairs[a] < d_pairs[b]
