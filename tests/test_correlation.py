import math
import tracemalloc
from datetime import date, timedelta

import numpy as np
import pytest

from assettree.correlation import _FLAT_BLOCK_BYTES, FLAT_EPS, flat_rows, pearson_matrix, to_distance
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


def flat_stretch_panel(width, step, scaled):
    """(tickers, returns, log_scale): eight rows over 250 columns, flat stretches on window edges.

    With s a window start near the middle: R1 is flat over exactly the
    window [s, s + width), R2 from s to the last column of the window two
    steps on, R3 from column 0 and R4 up to the last column. R5 is 0.25
    nudged by 2e-15, flat only at a log_scale of ~10, R6 is zero on
    [s, s + width), flat at any scale, and R7 is the constant log return of
    a doubling price, flat only at its own log_scale. R0 is never flat.
    """
    t = 250
    rng = np.random.default_rng(1000 * width + step)
    returns = 0.01 * rng.standard_normal((8, t))
    s = step * ((t - width) // (2 * step))
    returns[1, s : s + width] = 0.25
    returns[2, s : s + width + 2 * step] = -0.5
    returns[3, : width + 1] = 0.125
    returns[4, t - width - 1 :] = 0.125
    returns[5, s : s + width] = 0.25 + 2e-15 * rng.integers(-1, 2, width)
    returns[6, s : s + width] = 0.0
    logs = np.log(100.0 * 2.0 ** np.arange(t + 1))
    returns[7] = np.diff(logs)
    log_scale = np.zeros(8)
    if scaled:
        log_scale = rng.uniform(5.0, 15.0, 8)
        log_scale[7] = np.abs(logs).max()
    return ["R%d" % k for k in range(8)], returns, log_scale


@pytest.mark.parametrize("scaled", [False, True], ids=["zero-log-scale", "log-scale"])
@pytest.mark.parametrize("step", [1, 3, None], ids=["step1", "step3", "step-width"])
@pytest.mark.parametrize("width", [25, 47, 250])
def test_flat_rows_of_every_span_are_the_per_span_rule(width, step, scaled):
    # 25 divides the 250 columns and 47 does not; 250 is the one full-panel span.
    tickers, returns, log_scale = flat_stretch_panel(width, step or width, scaled)
    spans = [(s, s + width) for s in range(0, 250 - width + 1, step or width)]
    flat = flat_rows(returns, log_scale, spans)
    expected = []
    for start, end in spans:
        high, low = returns[:, start:end].max(axis=1), returns[:, start:end].min(axis=1)
        expected.append(high - low <= FLAT_EPS * (log_scale + np.maximum(high, -low)))
    assert flat.shape == (len(spans), 8)
    assert np.array_equal(flat, expected)
    assert flat[:, 1].sum() == 1 and not flat[:, 0].any()
    assert flat[:, 6].any() and flat[:, 5].any() == flat[:, 7].any() == scaled
    for (start, end), row in zip(spans, flat):
        named = tuple(tickers[k] for k in np.flatnonzero(row))
        if named:
            with pytest.raises(DegenerateSeriesError) as err:
                pearson_matrix(tickers, returns[:, start:end], log_scale)
            assert err.value.tickers == named
        else:
            pearson_matrix(tickers, returns[:, start:end], log_scale)


def test_flat_rows_hold_one_row_block_at_a_time(rng):
    n, t = 400, 2500
    returns = rng.standard_normal((n, t))
    spans = [(s, s + 250) for s in range(0, t - 250 + 1, 5)]
    tracemalloc.start()
    try:
        flat = flat_rows(returns, np.zeros(n), spans)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not flat.any()
    # One row block is one 2,500-column row here; a whole-panel padded copy would be 8 MB.
    block = max(_FLAT_BLOCK_BYTES, 8 * t)
    assert peak < flat.nbytes + 8 * block


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
