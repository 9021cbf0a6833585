"""Metamorphic relations of the whole pipeline: what Pearson's invariances guarantee, beyond bytes.

Pearson is invariant under a per-company scale of the prices, which
shifts that company's log prices, and under reversing time, which
reverses and negates the returns. So price CSVs changed by either
relation, written and parsed back, must give the same trees, degree
counts, labels, centers and MOL as the panel they come from, and NTL
within the rounding the relation brings. That holds only where no tree
is within that rounding of a tie, so the panel's certification margin
is measured and checked against the tolerance rather than assumed.
"""

import math
from datetime import timedelta

import numpy as np

from assettree.correlation import pearson_matrix, to_distance
from assettree.exports import write_price_csv
from assettree.ingestion import align_and_filter, parse_price_table
from assettree.mst import prim_batch
from assettree.rolling import WindowSpec, evolve, period_center, windows
from assettree.synth import FactorModelParams, HubRegimeParams, hub_regime_returns

from conftest import window_trees
from oracles import degree_histogram

N, DAYS, WIDTH = 20, 300, 60
U = 2.0**-53  # the unit roundoff of a double


def _read_back(path, tickers, dates, prices):
    """The return panel of a price CSV that `write_price_csv` writes and the reader parses."""
    write_price_csv(path, tickers, dates, prices)
    with open(path, "rb") as source:
        parsed = parse_price_table(source)
    assert parsed.tickers == tickers and parsed.dates == dates
    assert np.array_equal(parsed.prices, prices)  # %.17g round-trips, at 10**+-100 as well
    return align_and_filter(parsed, (dates[0], dates[-1]))


def _edges(tickers, src, dst):
    return {frozenset((tickers[u], tickers[v])) for u, v in zip(src.tolist(), dst.tolist())}


def _analyze_edges(panel):
    """The edge set of `analyze`'s tree: Pearson over the whole period, distance, Prim."""
    rho = pearson_matrix(panel.tickers, panel.returns, panel.log_scale)
    src, dst, _ = prim_batch(panel.tickers, to_distance(rho)[None])
    return _edges(panel.tickers, src[0], dst[0])


def _windows(panel, center):
    """Per window of `evolve --step 1`: its series row, edge set and degree counts."""
    spec = WindowSpec(WIDTH, 1)
    series = evolve(panel, spec, center)
    rows = zip(series.phase, series.k_max, series.dynamic_center, series.mol_static, series.mol_dynamic)
    trees = window_trees(panel, windows(panel, spec))
    shapes = [(_edges(t.tickers, t.i, t.j), degree_histogram(t).tolist()) for _, _, t, _ in trees]
    return [(*row, *shape) for row, shape in zip(rows, shapes)], series.ntl


def _certificate(panel, spans, eta):
    """(margin, tolerance) of the panel's trees over the spans.

    The margin is the least, over the spans' non-tree pairs (u, v), of
    d(u, v) less the largest weight on the tree path from u to v: no
    tree changes while every distance moves by less than half of it.
    The tolerance bounds how far a distance moves when every return
    moves by at most eta. A row x of width W whose returns move by eta
    moves its centred unit vector by at most 2 sqrt(W) eta / |x - mean|,
    so rho moves by at most the sum of two such terms; each run's Pearson
    rounds by under (3W + 4) u; and d = sqrt(2 (1 - rho)) moves by
    2 |d rho| / d, plus its own rounding, under 4u in each run.
    """
    margin, tolerance = math.inf, 0.0
    for start, end in spans:
        x = panel.returns[:, start:end]
        d = to_distance(pearson_matrix(panel.tickers, x, panel.log_scale))
        src, dst, w = (column[0].tolist() for column in prim_batch(panel.tickers, d[None]))
        top = np.zeros_like(d)  # top[u, v]: the largest weight on the tree path from u to v
        joined = [src[0]]
        for u, v, weight in zip(src, dst, w):
            top[v, joined] = top[joined, v] = np.maximum(top[u, joined], weight)
            joined.append(v)
        tree = np.eye(N, dtype=bool)
        tree[src, dst] = tree[dst, src] = True
        margin = min(margin, (d - top)[~tree].min())
        width = end - start
        norms = np.linalg.norm(x - x.mean(axis=1, keepdims=True), axis=1)
        drho = 4 * math.sqrt(width) * eta / norms.min() + 2 * (3 * width + 4) * U
        tolerance = max(tolerance, 2 * drho / d[~np.eye(N, dtype=bool)].min() + 8 * U)
    return margin, tolerance


def test_scale_and_time_reversal_keep_every_tree_label_and_center(tmp_path):
    base = FactorModelParams(N, DAYS, (0.0,) * N, 1.0, 0)
    panel = hub_regime_returns(HubRegimeParams(base, 5, 0.9, (100, 200)))
    prices = 100.0 * np.exp(np.cumsum(np.hstack([np.zeros((N, 1)), panel.returns]), axis=1))
    dates = [panel.dates[0] - timedelta(days=1)] + panel.dates
    powers = np.linspace(-100, 100, N).round()  # each company's own k, from -100 to 100
    original = _read_back(tmp_path / "prices.csv", panel.tickers, dates, prices)
    scaled = _read_back(tmp_path / "scaled.csv", panel.tickers, dates, prices * 10.0 ** powers[:, None])
    reversed_ = _read_back(tmp_path / "reversed.csv", panel.tickers, dates, prices[:, ::-1].copy())

    # A return is ln p[t+1] - ln p[t]. numpy's SIMD log is within 4 ulps, 2**-50 |ln p|;
    # the scaled price p * 10**k rounds once, which moves its log by under 1.01u (the
    # rounding of 10**k is common to the row and cancels); the difference rounds by
    # u |r|. So a return of either run is within eta of the exact one, which the
    # largest |ln p|, at |k| = 100, sets.
    largest_log = max(original.log_scale.max(), scaled.log_scale.max())
    eta = 16 * U * (original.log_scale.max() + largest_log + np.abs(original.returns).max() + 1)
    spans = windows(original, WindowSpec(WIDTH, 1)) + [(0, DAYS)]
    margin, tolerance = _certificate(original, spans, eta)
    assert margin > 2 * tolerance, (margin, tolerance)

    center = period_center(original)
    rows, ntl = _windows(original, center)
    assert {phase for phase, *_ in rows} >= {"PowerLaw", "SuperhubDecorated"}
    for transformed, order in ((scaled, slice(None)), (reversed_, slice(None, None, -1))):
        assert _analyze_edges(transformed) == _analyze_edges(original)
        assert period_center(transformed) == center
        moved_rows, moved_ntl = _windows(transformed, center)
        assert moved_rows[order] == rows
        # Equal trees, so NTL moves by at most the tolerance, and each run's exactly
        # rounded mean of at most 2 rounds by under 4u.
        assert np.abs(np.array(moved_ntl[order]) - ntl).max() <= tolerance + 8 * U
