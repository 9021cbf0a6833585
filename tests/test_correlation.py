import math
from datetime import date, timedelta

import numpy as np
import pytest

from assettree.correlation import pearson_matrix, to_distance
from assettree.errors import DegenerateSeriesError, InsufficientDataError
from assettree.ingestion import ParseResult, align_and_filter

from oracles import corrcoef_reference


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


@pytest.mark.parametrize("n, w", [(2, 3), (150, 120), (400, 250)])
def test_pearson_matrix_is_the_corrcoef_reference_to_the_bit(n, w):
    rng = np.random.default_rng(n)
    wide = 0.01 * (rng.standard_normal((n, w + 7)) + rng.standard_normal(w + 7))
    rows = wide[:, 3 : 3 + w]  # a column slice of a panel, as windows take it
    scaled = rows * 10.0 ** rng.choice([-8.0, 8.0], size=(n, 1))
    twin = rows.copy()
    twin[-1] = twin[0] * (1 + 1e-13 * rng.standard_normal(w))  # a near-duplicate row
    tickers = ["R%d" % i for i in range(n)]
    for returns in (rows, scaled, twin):
        expected = corrcoef_reference(returns)
        stack = np.full((3, n, n), np.nan)
        slot = stack[1]
        rho = pearson_matrix(tickers, returns, out=slot)
        assert rho is slot
        assert rho.tobytes() == expected.tobytes() == pearson_matrix(tickers, returns).tobytes()
        assert np.isnan(stack[[0, 2]]).all()
        assert np.array_equal(rho, rho.T) and np.all(np.diag(rho) == 1.0)
        with pytest.raises(DegenerateSeriesError):
            pearson_matrix(tickers, np.ones((n, w)), out=stack[0])
        assert np.isnan(stack[0]).all()
    assert pearson_matrix(tickers, twin)[0, -1] > 1 - 1e-12


def test_zero_variance_row_raises_with_ticker():
    rows = [[0.1, 0.2, -0.1, 0.3], [5.0, 5.0, 5.0, 5.0]]
    with pytest.raises(DegenerateSeriesError) as err:
        pearson_matrix(*panel_of(rows))
    assert "R1" in str(err.value)
    assert err.value.tickers == ("R1",)


@pytest.mark.parametrize("width", [30, 60, 120, 250])
def test_constant_log_return_row_is_flat(rng, width):
    # 100 * 2^t has the same log return every day, but rounding ln p[t+1] -
    # ln p[t] leaves its row a few distinct values and a nonzero variance.
    days = [date(2005, 1, 3) + timedelta(days=t) for t in range(width + 1)]
    walks = 100.0 * np.exp(np.cumsum(0.01 * rng.standard_normal((3, width + 1)), axis=1))
    prices = np.vstack([100.0 * 2.0 ** np.arange(width + 1), walks])
    panel = align_and_filter(ParseResult(["DBL", "A", "B", "C"], days, prices), (days[0], days[-1]))
    assert panel.returns[0].std() > 0
    with pytest.raises(DegenerateSeriesError) as err:
        pearson_matrix(panel.tickers, panel.returns, panel.log_scale)
    assert err.value.tickers == ("DBL",)
    rho = pearson_matrix(panel.tickers[1:], panel.returns[1:], panel.log_scale[1:])
    assert rho.shape == (3, 3)


def test_constant_return_row_is_flat_without_prices():
    # The std of [0.1] * 3 is not exactly 0: their mean rounds away from 0.1.
    with pytest.raises(DegenerateSeriesError) as err:
        pearson_matrix(*panel_of([[0.1, 0.2, -0.1], [0.1, 0.1, 0.1]]))
    assert err.value.tickers == ("R1",)


def test_distance_into_out_matches_the_formula(rng):
    rho = pearson_matrix(*panel_of(rng.standard_normal((40, 30))))
    out = np.empty_like(rho)
    assert to_distance(rho, out=out) is out
    assert out.tobytes() == np.sqrt(2.0 * (1.0 - rho)).tobytes() == to_distance(rho).tobytes()


def test_one_return_row_raises():
    with pytest.raises(InsufficientDataError, match="^need at least 2 return rows$"):
        pearson_matrix(*panel_of([[0.1, 0.2, 0.3]]))


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
