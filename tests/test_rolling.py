from collections import Counter
from datetime import date, timedelta
from types import GeneratorType

import numpy as np
import pytest

from assettree.correlation import pearson_matrix, to_distance
from assettree.errors import (
    ConfigurationError,
    InsufficientDataError,
    MissingVertexError,
)
from assettree.ingestion import ReturnPanel
from assettree.metrics import (
    PHASE_MULTI_HUB,
    PHASE_POWER_LAW,
    PHASE_SUPERHUB,
    PhaseRule,
    classify_phase,
    summarize,
)
from assettree.mst import prim_mst
from assettree.rolling import (
    MetricSeries,
    WindowSpec,
    _chunks,
    detect_transitions,
    evolve,
    window_trees,
    windows,
)
from assettree.synth import FactorModelParams, HubRegimeParams, hub_regime_returns, one_factor_returns

from oracles import degree_histogram, kruskal_mst, mean_occupation_layer, normalized_tree_length


def flat_panel(n=5, days=120, seed=0, beta=0.6):
    return one_factor_returns(FactorModelParams(n, days, (beta,) * n, 1.0, seed))


def regime_panel(seed=0, n=20, days=300, interval=(100, 200), gamma=0.9, hub=5, beta=0.0):
    base = FactorModelParams(n, days, (beta,) * n, 1.0, seed)
    return hub_regime_returns(HubRegimeParams(base, hub, gamma, interval))


def one_flat_window_panel():
    """Four companies over 120 days; C is flat over the first 40 only."""
    rng = np.random.default_rng(8)
    returns = rng.standard_normal((4, 120))
    returns[2, :40] = 0.25
    days = [date(2005, 1, 4) + timedelta(days=t) for t in range(120)]
    return ReturnPanel(["A", "B", "C", "D"], days, returns)


def chunked_panel():
    """Six companies over 90 days, vertex order unlike ticker order; E is flat on [40, 75).

    Chunks hold 2 * 90 // 6 = 30 windows; of 61 windows of width 30 and
    step 1, those from 40 to 45 drop E, each a chunk of its own.
    """
    rng = np.random.default_rng(11)
    returns = rng.standard_normal((6, 90))
    returns[4, 40:75] = -0.5
    days = [date(2005, 1, 4) + timedelta(days=t) for t in range(90)]
    return ReturnPanel(["F", "B", "D", "A", "E", "C"], days, returns)


def test_window_arithmetic():
    panel = flat_panel(days=100)
    assert windows(panel, WindowSpec(50, 10)) == [
        (0, 50), (10, 60), (20, 70), (30, 80), (40, 90), (50, 100)
    ]


def test_single_window_when_width_equals_panel():
    panel = flat_panel(days=80)
    assert windows(panel, WindowSpec(80, 10)) == [(0, 80)]


def test_single_window_when_step_overshoots():
    panel = flat_panel(days=100)
    assert windows(panel, WindowSpec(90, 50)) == [(0, 90)]


def test_width_beyond_panel_raises():
    panel = flat_panel(days=60)
    with pytest.raises(ConfigurationError):
        windows(panel, WindowSpec(61, 5))


def test_window_spec_validation():
    with pytest.raises(ConfigurationError):
        WindowSpec(20, 5)
    with pytest.raises(ConfigurationError):
        WindowSpec(50, 0)


def test_evolve_produces_aligned_series():
    panel = flat_panel(n=8, days=150)
    series = evolve(panel, WindowSpec(60, 30), panel.tickers[0])
    assert len(series) == 4
    for attr in ("ntl", "mol_static", "mol_dynamic", "k_max", "phase", "dynamic_center", "dropped"):
        assert len(getattr(series, attr)) == len(series)
    assert all(0.0 <= v <= 2.0 for v in series.ntl)
    assert series.window_end_dates[0] == panel.dates[59]


def test_full_width_window_matches_one_shot_pipeline():
    panel = flat_panel(n=7, days=90)
    tree = prim_mst(panel.tickers, to_distance(pearson_matrix(panel.tickers, panel.returns)))
    center = panel.tickers[2]
    series = evolve(panel, WindowSpec(90, 7), center)
    assert len(series) == 1
    assert series.ntl[0] == normalized_tree_length(tree)
    assert series.mol_static[0] == mean_occupation_layer(tree, center)
    center = summarize(tree).center
    assert series.dynamic_center[0] == center
    assert series.mol_dynamic[0] == mean_occupation_layer(tree, center)
    assert series.k_max[0] == int(tree.degrees().max())


@pytest.mark.parametrize(
    "rule, labels",
    [
        (PhaseRule(), {PHASE_POWER_LAW: 26, PHASE_SUPERHUB: 1}),
        (PhaseRule(gap=1e9), {PHASE_POWER_LAW: 27}),
        (PhaseRule(tau=10.0), {PHASE_POWER_LAW: 27}),
        (PhaseRule(tau_hub=-10.0), {PHASE_MULTI_HUB: 26, PHASE_SUPERHUB: 1}),
    ],
)
def test_evolve_labels_windows_by_the_rule_it_is_given(rule, labels):
    series = evolve(regime_panel(beta=1.0), WindowSpec(40, 10), "V0005", rule)
    assert Counter(series.phase) == labels


def test_missing_static_center_raises():
    panel = flat_panel()
    with pytest.raises(MissingVertexError):
        evolve(panel, WindowSpec(60, 30), "NOPE")


def test_static_equals_dynamic_when_centers_coincide():
    panel = regime_panel(seed=2, days=200, interval=(0, 200))
    series = evolve(panel, WindowSpec(100, 50), "V0005")
    assert all(c == "V0005" for c in series.dynamic_center)
    for s, d in zip(series.mol_static, series.mol_dynamic):
        assert s == d


def test_degenerate_window_drops_company_and_records_it():
    panel = one_flat_window_panel()
    series = evolve(panel, WindowSpec(40, 40), "A")
    assert series.dropped == [("C",), (), ()]
    assert series.k_max[0] <= 2  # only three vertices survive window 0


def test_window_trees_match_the_per_window_pipeline():
    cases = [
        (one_flat_window_panel(), WindowSpec(40, 40), {0: ("C",)}),
        (chunked_panel(), WindowSpec(30, 1), {s: ("E",) for s in range(40, 46)}),
    ]
    for panel, spec, dropped_at in cases:
        trees = window_trees(panel, windows(panel, spec))
        assert isinstance(trees, GeneratorType)
        yielded = list(trees)
        assert [(s, e) for s, e, _, _ in yielded] == windows(panel, spec)
        assert [d for _, _, _, d in yielded] == [dropped_at.get(s, ()) for s, _, _, _ in yielded]
        for start, end, tree, dropped in yielded:
            keep = [k for k, t in enumerate(panel.tickers) if t not in dropped]
            tickers = [panel.tickers[k] for k in keep]
            rho = pearson_matrix(tickers, panel.returns[keep, start:end])
            expected = kruskal_mst(tickers, to_distance(rho))
            assert tree.tickers == expected.tickers
            assert np.array_equal(tree.i, expected.i)
            assert np.array_equal(tree.j, expected.j)
            assert tree.w.tobytes() == expected.w.tobytes()


def test_evolve_rows_equal_the_per_tree_chain_over_three_chunks():
    # 20 companies over 300 days, ticker order the reverse of vertex order,
    # hub vertex 5 coupled on days 100-200, company 9 flat on [130, 175).
    # Chunks hold 2 * 300 // 20 = 30 windows; of 87 windows, 44 and 45
    # (starts 132 and 135) drop company 9, each a chunk of its own.
    base = regime_panel(seed=3, interval=(100, 200))
    returns = base.returns.copy()
    returns[9, 130:175] = -0.5
    panel = ReturnPanel(base.tickers[::-1], base.dates, returns)
    static = panel.tickers[5]
    spec = WindowSpec(40, 3)
    series = evolve(panel, spec, static)
    ties = at_static = 0
    for k, (start, end, tree, dropped) in enumerate(window_trees(panel, windows(panel, spec))):
        dist = degree_histogram(tree)
        deg = tree.degrees()
        top = np.flatnonzero(deg == deg.max())
        hub = min(tree.tickers[v] for v in top)
        row = (series.ntl[k], series.mol_static[k], series.mol_dynamic[k], series.k_max[k],
               series.phase[k], series.dynamic_center[k], series.dropped[k])
        assert row == (
            normalized_tree_length(tree),
            mean_occupation_layer(tree, static),
            mean_occupation_layer(tree, hub),
            max(dist.counts),
            classify_phase(dist).phase,
            hub,
            dropped,
        )
        ties += tree.tickers[top[0]] != hub  # not the first vertex of the top degree
        at_static += hub == static
    assert len(series) == 87
    assert [k for k, d in enumerate(series.dropped) if d] == [44, 45]
    assert ties and at_static


def _assert_rows_match_the_per_tree_chain(panel, spec, static):
    """Hold each evolve row and window_trees tree to the oracles.

    Returns the series and the count of dropped windows whose hub is not
    the first vertex of the top degree.
    """
    series = evolve(panel, spec, static)
    ties = 0
    for k, (start, end, tree, dropped) in enumerate(window_trees(panel, windows(panel, spec))):
        keep = [v for v, t in enumerate(panel.tickers) if t not in dropped]
        tickers = [panel.tickers[v] for v in keep]
        expected = kruskal_mst(tickers, to_distance(pearson_matrix(tickers, panel.returns[keep, start:end])))
        assert (tree.tickers, tree.i.tolist(), tree.j.tolist()) == (tickers, expected.i.tolist(), expected.j.tolist())
        assert tree.w.tobytes() == expected.w.tobytes()
        deg = tree.degrees()
        top = np.flatnonzero(deg == deg.max())
        hub = min(tree.tickers[v] for v in top)
        assert (series.dynamic_center[k], series.dropped[k]) == (hub, dropped)
        assert series.mol_static[k] == mean_occupation_layer(tree, static)
        assert series.mol_dynamic[k] == mean_occupation_layer(tree, hub)
        assert series.ntl[k] == normalized_tree_length(tree)
        ties += bool(dropped) and tree.tickers[top[0]] != hub
    assert len(series) == len(windows(panel, spec))
    return series, ties


def test_windows_that_drop_a_company_match_the_per_tree_chain():
    # Dropping E (vertex 4) moves the static center C from vertex 5 to 4,
    # and vertex order unlike ticker order makes a first-vertex hub wrong.
    series, ties = _assert_rows_match_the_per_tree_chain(chunked_panel(), WindowSpec(30, 1), "C")
    assert [k for k, d in enumerate(series.dropped) if d] == [40, 41, 42, 43, 44, 45]
    assert ties


def test_drops_at_chunk_boundaries_match_the_per_tree_chain():
    # Chunks hold 2 * 90 // 6 = 30 windows. E is flat on [0, 30), A on
    # [31, 62) and B on [60, 90), so windows 0, 31, 32 and 60 of width 30
    # and step 1 drop a company: window 0 opens the first chunk, 31 comes
    # right after a full chunk of 30, 32 right after 31, and 60 closes a
    # running chunk and is the last window.
    panel = chunked_panel()
    panel.returns[4, 40:75] = np.random.default_rng(12).standard_normal(35)
    panel.returns[4, :30] = 0.5
    panel.returns[3, 31:62] = -0.5
    panel.returns[1, 60:] = 0.25
    spec = WindowSpec(30, 1)
    assert [[start for start, _, _ in rows] for _, _, rows, _ in _chunks(panel, windows(panel, spec))] == [
        [0], list(range(1, 31)), [31], [32], list(range(33, 60)), [60]
    ]
    series, _ = _assert_rows_match_the_per_tree_chain(panel, spec, "C")
    assert {k: d for k, d in enumerate(series.dropped) if d} == {0: ("E",), 31: ("A",), 32: ("A",), 60: ("B",)}


def test_window_errors_come_in_window_order():
    # C is flat on [0, 40) and B and C on [40, 80): window 0 drops the
    # center, window 1 has too few companies, and window 0 must go first.
    rng = np.random.default_rng(5)
    returns = rng.standard_normal((3, 80))
    returns[2, :40] = 0.25
    returns[1:, 40:] = -0.5
    days = [date(2005, 1, 4) + timedelta(days=t) for t in range(80)]
    panel = ReturnPanel(["A", "B", "C"], days, returns)
    spec = WindowSpec(40, 40)
    with pytest.raises(MissingVertexError, match=r"window \[0, 40\)"):
        evolve(panel, spec, "C")
    trees = window_trees(panel, windows(panel, spec))
    start, end, tree, dropped = next(trees)
    assert (start, end, tree.tickers, dropped) == (0, 40, ["A", "B"], ("C",))
    with pytest.raises(InsufficientDataError, match=r"window \[40, 80\)"):
        next(trees)


@pytest.mark.parametrize("bad", [(-50, 100), (0, 121), (0, 10**9), (60, 60), (70, 60)])
def test_window_trees_check_every_span_before_the_first_tree(bad):
    panel = one_flat_window_panel()  # 120 return columns
    trees = window_trees(panel, [(0, 40), bad])
    with pytest.raises(ConfigurationError, match=r"window \[%d, %d\)" % bad):
        next(trees)


def test_window_trees_of_any_spans_match_prim_on_their_columns():
    # Chunks of 2 * 90 // 6 = 30 spans: the full period and repeats share one.
    panel = chunked_panel()
    spans = [(0, 90), (10, 40), (10, 40), (40, 75), (0, 90), (5, 88)]
    yielded = list(window_trees(panel, spans))
    assert [(s, e) for s, e, _, _ in yielded] == spans
    for start, end, tree, dropped in yielded:
        keep = [k for k, t in enumerate(panel.tickers) if t not in dropped]
        tickers = [panel.tickers[k] for k in keep]
        expected = prim_mst(tickers, to_distance(pearson_matrix(tickers, panel.returns[keep, start:end])))
        assert (tree.tickers, dropped) == (expected.tickers, ("E",) if (start, end) == (40, 75) else ())
        assert np.array_equal(tree.i, expected.i)
        assert np.array_equal(tree.j, expected.j)
        assert tree.w.tobytes() == expected.w.tobytes()


def test_degenerate_static_center_raises():
    panel = one_flat_window_panel()
    with pytest.raises(MissingVertexError):
        evolve(panel, WindowSpec(40, 40), "C")


def test_window_with_one_usable_company_raises():
    rng = np.random.default_rng(8)
    returns = rng.standard_normal((2, 60))
    returns[1, :] = 1.0
    days = [date(2005, 1, 4) + timedelta(days=t) for t in range(60)]
    panel = ReturnPanel(["A", "B"], days, returns)
    for center in ("A", "B"):  # a flat center too: too few companies is reported first
        with pytest.raises(InsufficientDataError):
            evolve(panel, WindowSpec(60, 10), center)


def test_trailing_columns_only_affect_the_last_window():
    panel = flat_panel(n=6, days=155)
    spec = WindowSpec(60, 5)
    full = evolve(panel, spec, panel.tickers[0])
    trimmed_panel = ReturnPanel(
        list(panel.tickers), list(panel.dates[:-4]), panel.returns[:, :-4]
    )
    trimmed = evolve(trimmed_panel, spec, panel.tickers[0])
    assert len(full) == len(trimmed) + 1
    assert full.ntl[:-1] == trimmed.ntl
    assert full.phase[:-1] == trimmed.phase
    assert full.mol_dynamic[:-1] == trimmed.mol_dynamic


def _manual_series(phases, centers=None, ntl=None, mol=None):
    k = len(phases)
    day0 = date(2006, 1, 2)
    return MetricSeries(
        window_end_dates=[day0 + timedelta(days=i) for i in range(k)],
        ntl=ntl or [1.0] * k,
        mol_static=[2.0] * k,
        mol_dynamic=mol or [3.0] * k,
        k_max=[4] * k,
        phase=list(phases),
        dynamic_center=centers or ["H"] * k,
        dropped=[()] * k,
    )


def test_transitions_of_an_empty_series_raise():
    with pytest.raises(InsufficientDataError, match="^empty metric series$"):
        detect_transitions(_manual_series([]))


def test_transitions_on_unimodal_series():
    ntl = [0.9, 0.7, 0.4, 0.6, 0.8]
    series = _manual_series([PHASE_POWER_LAW] * 5, ntl=ntl)
    report = detect_transitions(series)
    assert report.ntl_argmin[0] == 2
    assert report.ntl_argmin[1] == series.window_end_dates[2]
    assert report.phase_changes == []


def test_transitions_on_constant_series_take_first_index():
    series = _manual_series([PHASE_POWER_LAW] * 4)
    report = detect_transitions(series)
    assert report.ntl_argmin[0] == 0
    assert report.mol_argmin[0] == 0
    assert report.phase_changes == []
    assert report.superhub_intervals == []


def test_transitions_extract_phase_changes_and_superhub_runs():
    phases = [
        PHASE_POWER_LAW,
        PHASE_SUPERHUB,
        PHASE_SUPERHUB,
        PHASE_POWER_LAW,
        PHASE_MULTI_HUB,
        PHASE_SUPERHUB,
    ]
    centers = ["A", "H", "H", "A", "B", "K"]
    series = _manual_series(phases, centers=centers)
    report = detect_transitions(series)
    assert [i for i, _, _ in report.phase_changes] == [1, 3, 4, 5]
    assert report.phase_changes[0] == (1, PHASE_POWER_LAW, PHASE_SUPERHUB)
    assert report.superhub_intervals == [(1, 2, "H"), (5, 5, "K")]


def test_superhub_interval_hub_is_modal_center_first_seen_on_ties():
    phases = [PHASE_SUPERHUB] * 4
    centers = ["X", "Y", "Y", "X"]
    series = _manual_series(phases, centers=centers)
    report = detect_transitions(series)
    assert report.superhub_intervals == [(0, 3, "X")]


def test_injected_hub_panel_minima_fall_inside_the_interval():
    panel = regime_panel(seed=4)
    spec = WindowSpec(60, 20)
    series = evolve(panel, spec, "V0005")
    starts = [s for s, _ in windows(panel, spec)]
    report = detect_transitions(series)
    start, end = 100, 200
    for idx, _ in (report.ntl_argmin, report.mol_argmin):
        w_start = starts[idx]
        assert w_start + 60 > start and w_start < end
    assert any(
        starts[a] + 60 > start and starts[b] < end
        for a, b, _ in report.superhub_intervals
    )
