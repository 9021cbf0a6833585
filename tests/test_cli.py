import csv
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import asdict
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest

from assettree.cli import main
from assettree.exports import write_price_csv
from assettree.ingestion import parse_price_table, align_and_filter
from assettree.metrics import PhaseRule
from assettree.rolling import MetricSeries, detect_transitions
from assettree.synth import FactorModelParams, one_factor_returns

from conftest import read_tree
from oracles import summarize


def write_params(path, **overrides):
    params = {
        "n_companies": 10,
        "n_days": 160,
        "beta": 0.0,
        "noise_sigma": 1.0,
        "seed": 7,
        "hub_index": 3,
        "gamma": 0.9,
        "regime_start": 0,
        "regime_end": 159,
    }
    params.update(overrides)
    path.write_text(
        "".join("%s = %s\n" % (k, v) for k, v in params.items() if v is not None),
        encoding="utf-8",
    )
    return path


def read_series(path) -> MetricSeries:
    """The rows of an `evolve` series.csv, read with `csv`."""
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["end_date", "ntl", "mol_static", "mol_dynamic", "k_max", "phase", "dynamic_center"]
    day, ntl, mol_static, mol_dynamic, k_max, phase, center = zip(*rows)
    return MetricSeries(
        [date.fromisoformat(d) for d in day],
        [float(x) for x in ntl],
        [float(x) for x in mol_static],
        [float(x) for x in mol_dynamic],
        [int(k) for k in k_max],
        list(phase),
        list(center),
    )


@pytest.fixture
def star_prices(tmp_path):
    """Price CSV whose whole span is hub-coupled: the tree is a star."""
    params = write_params(tmp_path / "params.txt")
    assert main(["synth", str(params), "--out", str(tmp_path)]) == 0
    return tmp_path / "prices.csv"


def test_synth_row_count_for_tiny_panel(tmp_path):
    params = write_params(
        tmp_path / "p.txt",
        n_companies=2, n_days=3, beta=1.0,
        hub_index=None, gamma=None, regime_start=None, regime_end=None,
    )
    assert main(["synth", str(params), "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "prices.csv").read_text().splitlines()
    assert lines[0] == "date,ticker,close"
    assert len(lines) == 1 + 6


def test_synth_is_byte_deterministic(tmp_path):
    params = write_params(tmp_path / "p.txt")
    for sub in ("a", "b"):
        assert main(["synth", str(params), "--out", str(tmp_path / sub)]) == 0
    assert (tmp_path / "a" / "prices.csv").read_bytes() == (
        tmp_path / "b" / "prices.csv"
    ).read_bytes()


def test_synth_gamma_zero_matches_one_factor_file(tmp_path):
    shared = dict(n_companies=4, n_days=50, beta=0.8, seed=3)
    write_params(tmp_path / "one.txt",
                 hub_index=None, gamma=None, regime_start=None, regime_end=None,
                 **shared)
    write_params(tmp_path / "hub.txt", hub_index=1, gamma=0.0,
                 regime_start=0, regime_end=49, **shared)
    assert main(["synth", str(tmp_path / "one.txt"), "--out", str(tmp_path / "one")]) == 0
    assert main(["synth", str(tmp_path / "hub.txt"), "--out", str(tmp_path / "hub")]) == 0
    assert (tmp_path / "one" / "prices.csv").read_bytes() == (
        tmp_path / "hub" / "prices.csv"
    ).read_bytes()


def test_synth_round_trips_through_ingestion(tmp_path):
    params = write_params(tmp_path / "p.txt", n_companies=5, n_days=40, regime_end=39)
    assert main(["synth", str(params), "--out", str(tmp_path)]) == 0
    with open(tmp_path / "prices.csv", "rb") as source:
        parsed = parse_price_table(source)
    recovered = align_and_filter(parsed, (parsed.dates[0], parsed.dates[-1]))

    base = FactorModelParams(5, 39, (0.0,) * 5, 1.0, 7)
    from assettree.synth import HubRegimeParams, hub_regime_returns

    expected = hub_regime_returns(HubRegimeParams(base, 3, 0.9, (0, 39)))
    assert recovered.tickers == expected.tickers
    assert recovered.dates == expected.dates
    assert np.abs(recovered.returns - expected.returns).max() < 1e-9


def test_synth_rejects_unknown_parameter(tmp_path):
    path = tmp_path / "p.txt"
    path.write_text("n_companies = 5\nn_days = 40\nbogus = 1\n")
    assert main(["synth", str(path), "--out", str(tmp_path)]) == 2


def test_analyze_names_the_injected_hub(star_prices, tmp_path):
    out = tmp_path / "run"
    assert main(["analyze", str(star_prices), "--out", str(out)]) == 0
    report = json.loads((out / "analysis.json").read_text())
    assert report["phase"] == "SuperhubDecorated"
    assert report["superhub"]["is_superhub"] is True
    assert report["superhub"]["hub_ticker"] == "V0003"
    assert report["dynamic_center"] == "V0003"
    assert (out / "tree.edges").exists()
    assert (out / "tree.dot").exists()


def test_analyze_two_company_panel(tmp_path):
    text = "date,ticker,close\n"
    for day, pa, pb in [
        ("2005-01-03", 10.0, 20.0),
        ("2005-01-04", 10.5, 19.0),
        ("2005-01-05", 10.2, 21.0),
        ("2005-01-06", 10.8, 20.5),
    ]:
        text += "%s,AA,%s\n%s,BB,%s\n" % (day, pa, day, pb)
    src = tmp_path / "two.csv"
    src.write_text(text)
    out = tmp_path / "out"
    assert main(["analyze", str(src), "--out", str(out)]) == 0
    report = json.loads((out / "analysis.json").read_text())
    tree = read_tree(out / "tree.edges")
    assert len(tree.i) == 1
    assert report["ntl"] == tree.w[0]
    assert report["fit"] is None
    assert report["phase"] == "PowerLaw"


def test_analyze_missing_input_exits_3_without_outputs(tmp_path):
    out = tmp_path / "nothing"
    assert main(["analyze", str(tmp_path / "absent.csv"), "--out", str(out)]) == 3
    assert not out.exists()


def test_analyze_correlation_dump_format(star_prices, tmp_path):
    out = tmp_path / "dump"
    assert main(["analyze", str(star_prices), "--out", str(out), "--format", "csv"]) == 0
    lines = (out / "corr.csv").read_text().splitlines()
    tickers = lines[0].split(",")
    assert len(tickers) == 10
    values = [float(v) for v in lines[1].split(",")]
    assert len(values) == 10
    assert values[0] == 1.0


def test_dot_export_is_a_valid_graph(star_prices, tmp_path):
    out = tmp_path / "run"
    assert main(["analyze", str(star_prices), "--out", str(out)]) == 0
    dot = (out / "tree.dot").read_text()
    tree = read_tree(out / "tree.edges")
    assert dot.startswith("graph ") and dot.rstrip().endswith("}")
    nodes = re.findall(r'^  "([^"]+)";$', dot, flags=re.M)
    edges = re.findall(r'^  "([^"]+)" -- "([^"]+)" \[weight=([^\]]+)\];$', dot, flags=re.M)
    assert sorted(nodes) == sorted(tree.tickers)
    assert len(edges) == len(tree.i)
    weights = sorted(float(w) for _, _, w in edges)
    assert weights == sorted(tree.w.tolist())


def test_evolve_outputs_and_reread_argmin_consistency(star_prices, tmp_path):
    out = tmp_path / "evo"
    code = main(
        ["evolve", str(star_prices), "--window", "60", "--step", "20", "--out", str(out)]
    )
    assert code == 0
    series = read_series(out / "series.csv")
    report = json.loads((out / "transitions.json").read_text())
    rebuilt = detect_transitions(series)
    assert rebuilt.ntl_argmin[0] == report["ntl_argmin"]["index"]
    assert rebuilt.ntl_argmin[1].isoformat() == report["ntl_argmin"]["date"]
    assert rebuilt.mol_argmin[0] == report["mol_argmin"]["index"]
    assert [
        {"start": s, "end": e, "hub": h} for s, e, h in rebuilt.superhub_intervals
    ] == report["superhub_intervals"]
    assert report["static_center"] == "V0003"


def test_transitions_json_holds_the_report_of_its_series(tmp_path):
    # Hub coupling on days 150-250 of 400 only, so the windows change phase.
    params = write_params(tmp_path / "p.txt", n_companies=20, n_days=400, regime_start=150, regime_end=250)
    assert main(["synth", str(params), "--out", str(tmp_path)]) == 0
    out = tmp_path / "evo"
    assert main(["evolve", str(tmp_path / "prices.csv"), "--window", "60", "--step", "20", "--out", str(out)]) == 0
    report = json.loads((out / "transitions.json").read_text())
    rebuilt = detect_transitions(read_series(out / "series.csv"))
    assert sorted(report) == [
        "config_hash",
        "dropped_companies",
        "mol_argmin",
        "ntl_argmin",
        "phase_changes",
        "static_center",
        "superhub_intervals",
        "window_drops",
    ]
    assert report["phase_changes"] == [{"index": i, "from": a, "to": b} for i, a, b in rebuilt.phase_changes]
    assert report["phase_changes"]
    for key in ("ntl_argmin", "mol_argmin"):
        index, day = getattr(rebuilt, key)
        assert report[key] == {"index": index, "date": day.isoformat()}
    assert re.fullmatch("[0-9a-f]{12}", report["config_hash"])
    assert (report["dropped_companies"], report["window_drops"]) == ([], {})


def test_an_argument_error_exits_2_through_argparse(tmp_path, capsys):
    # argparse rejects a flag value before any stage runs: usage, then one error line.
    with pytest.raises(SystemExit) as stop:
        main(["evolve", str(tmp_path / "p.csv"), "--window", "abc"])
    assert stop.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].startswith("assettree evolve: error:")


def test_evolve_full_width_matches_analyze(star_prices, tmp_path):
    a_out = tmp_path / "a"
    e_out = tmp_path / "e"
    assert main(["analyze", str(star_prices), "--out", str(a_out)]) == 0
    assert main(
        ["evolve", str(star_prices), "--window", "159", "--step", "30", "--out", str(e_out)]
    ) == 0
    analysis = json.loads((a_out / "analysis.json").read_text())
    series = read_series(e_out / "series.csv")
    assert len(series) == 1
    assert series.ntl[0] == analysis["ntl"]
    assert series.phase[0] == analysis["phase"]
    assert series.dynamic_center[0] == analysis["dynamic_center"]
    assert series.mol_dynamic[0] == analysis["mol_dynamic"]


def unsorted_prices(tmp_path):
    """Price CSV of 12 one-factor companies whose first ticker is not the smallest."""
    panel = one_factor_returns(FactorModelParams(12, 150, (0.5,) * 12, 1.0, 4))
    tickers = ["T%02d" % k for k in np.random.default_rng(4).permutation(12)]
    assert tickers[0] != min(tickers)  # so Prim's root is not vertex 0
    prices = 100.0 * np.exp(np.cumsum(panel.returns, axis=1))
    write_price_csv(tmp_path / "unsorted.csv", tickers, panel.dates, prices)
    return tmp_path / "unsorted.csv"


@pytest.mark.parametrize("prices", ["star", "unsorted"])
def test_analysis_equals_the_summary_of_the_tree_it_writes(star_prices, tmp_path, prices):
    # analyze summarizes Prim's join-order columns; the oracle's summarize
    # walks the tree read back from tree.edges, on sorted tickers, from vertex 0.
    path = star_prices if prices == "star" else unsorted_prices(tmp_path)
    out = tmp_path / "run"
    assert main(["analyze", str(path), "--tau", "0.7", "--gap", "1.5", "--tau-hub", "0.3", "--out", str(out)]) == 0
    report = json.loads((out / "analysis.json").read_text())
    summary = summarize(read_tree(out / "tree.edges"), PhaseRule(0.7, 1.5, 0.3))
    label = summary.phase
    assert (report["ntl"], report["mol_dynamic"], report["dynamic_center"]) == (
        summary.ntl, summary.mol_dynamic, summary.center
    )
    assert report["degree_counts"] == {str(k): c for k, c in enumerate(summary.distribution.tolist()) if c}
    assert report["phase"] == label.phase
    assert report["fit"] == (None if label.fit is None else json.loads(json.dumps(asdict(label.fit))))
    assert report["superhub"] == {
        "is_superhub": label.phase == "SuperhubDecorated",
        "hub_ticker": summary.center,
        "k_max": label.k_max,
        "k_second": label.k_second,
        "log_residual": label.log_residual if math.isfinite(label.log_residual) else None,
        "degree_gap_ratio": label.degree_gap_ratio,
    }
    assert label.fit is not None or prices == "star"


def test_analysis_json_keeps_its_layout(tmp_path):
    # The names are spelled out, not read off the dataclasses, so a renamed
    # or added field of PowerLawFit or of the report fails here.
    assert main(["analyze", str(unsorted_prices(tmp_path)), "--out", str(tmp_path / "run")]) == 0
    report = json.loads((tmp_path / "run" / "analysis.json").read_text())
    assert set(report) == {
        "n_companies", "period", "dropped_companies", "config_hash", "ntl", "mol_dynamic",
        "dynamic_center", "degree_counts", "fit", "superhub", "phase", "n_outlier_hubs",
    }
    assert set(report["period"]) == {"start", "end"}
    assert set(report["superhub"]) == {
        "is_superhub", "hub_ticker", "k_max", "k_second", "log_residual", "degree_gap_ratio",
    }
    assert set(report["fit"]) == {"slope", "intercept", "slope_stderr", "k_range", "residuals", "excluded_degrees"}
    assert len(report["fit"]["k_range"]) == 2
    assert isinstance(report["fit"]["excluded_degrees"], list)


def test_default_thresholds_keep_the_config_hash(star_prices, tmp_path, monkeypatch):
    # config_hash digests the threshold names and values; a renamed PhaseRule field changes it.
    monkeypatch.chdir(tmp_path)
    assert main(["analyze", "prices.csv", "--out", "a"]) == 0
    assert main(["evolve", "prices.csv", "--window", "60", "--step", "20", "--out", "e"]) == 0
    assert json.loads((tmp_path / "a" / "analysis.json").read_text())["config_hash"] == "9b830197c0ac"
    assert json.loads((tmp_path / "e" / "transitions.json").read_text())["config_hash"] == "a3f2579252fc"


def test_evolve_rejects_bad_window(star_prices, tmp_path):
    assert main(
        ["evolve", str(star_prices), "--window", "10", "--out", str(tmp_path / "x")]
    ) == 2


def test_evolve_default_center_leaves_out_a_company_flat_all_period(tmp_path, capsys):
    rng = np.random.default_rng(5)
    prices = 100.0 * np.exp(np.cumsum(0.01 * rng.standard_normal((6, 200)), axis=1))
    prices[3] = 50.0
    days = [date(2005, 1, 3) + timedelta(days=t) for t in range(200)]
    path = tmp_path / "prices.csv"
    path.write_text(
        "date,ticker,close\n"
        + "".join("%s,T%d,%r\n" % (d, k, p) for k, row in enumerate(prices.tolist()) for d, p in zip(days, row))
    )
    spec = ["--window", "60", "--step", "20"]
    assert main(["evolve", str(path), *spec, "--out", str(tmp_path / "auto")]) == 0
    report = json.loads((tmp_path / "auto" / "transitions.json").read_text())
    center = report["static_center"]
    assert center != "T3"
    assert report["window_drops"] == {str(k): ["T3"] for k in range(7)}
    assert main(["evolve", str(path), *spec, "--center", center, "--out", str(tmp_path / "fixed")]) == 0
    for name in ("series.csv", "transitions.json"):
        assert (tmp_path / "auto" / name).read_bytes() == (tmp_path / "fixed" / name).read_bytes()
    capsys.readouterr()
    assert main(["analyze", str(path), "--out", str(tmp_path / "one")]) == 2
    assert capsys.readouterr().err == "correlation: zero-variance return series: T3\n"


def test_a_company_with_a_constant_log_return_is_flat(tmp_path, capsys):
    rng = np.random.default_rng(6)
    prices = 100.0 * np.exp(np.cumsum(0.01 * rng.standard_normal((5, 130)), axis=1))
    prices[2] = 100.0 * 2.0 ** np.arange(130)
    days = [date(2005, 1, 3) + timedelta(days=t) for t in range(130)]
    path = tmp_path / "prices.csv"
    path.write_text(
        "date,ticker,close\n"
        + "".join("%s,T%d,%r\n" % (d, k, p) for k, row in enumerate(prices.tolist()) for d, p in zip(days, row))
    )
    assert main(["analyze", str(path), "--out", str(tmp_path / "one")]) == 2
    assert capsys.readouterr().err == "correlation: zero-variance return series: T2\n"
    assert main(["evolve", str(path), "--window", "60", "--step", "30", "--out", str(tmp_path / "roll")]) == 0
    report = json.loads((tmp_path / "roll" / "transitions.json").read_text())
    assert report["window_drops"] == {str(k): ["T2"] for k in range(3)}


def test_evolve_is_byte_deterministic(star_prices, tmp_path):
    outs = []
    for sub in ("r1", "r2"):
        out = tmp_path / sub
        assert main(
            ["evolve", str(star_prices), "--window", "60", "--step", "20", "--out", str(out)]
        ) == 0
        outs.append(out)
    assert (outs[0] / "series.csv").read_bytes() == (outs[1] / "series.csv").read_bytes()
    assert (outs[0] / "transitions.json").read_bytes() == (
        outs[1] / "transitions.json"
    ).read_bytes()


def test_input_is_one_required_positional(star_prices, tmp_path, capsys):
    assert main(["analyze", str(star_prices), "--out", str(tmp_path / "o1")]) == 0
    # A missing input is an argparse error, like any other bad command line.
    with pytest.raises(SystemExit) as stop:
        main(["analyze", "--out", str(tmp_path / "o2")])
    assert stop.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].startswith("assettree analyze: error:")
    assert not (tmp_path / "o2").exists()
    for command in ("analyze", "evolve"):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert "--input" not in capsys.readouterr().out


FLAT_PRICES = "date,ticker,close\n" + "".join(
    "2005-01-%02d,AA,%s\n2005-01-%02d,BB,%s\n2005-01-%02d,FLAT,5.0\n" % (d, pa, d, pb, d)
    for d, pa, pb in [(3, 10.0, 20.0), (4, 10.5, 19.0), (5, 10.2, 21.0), (6, 10.8, 20.5)]
)

# (arguments, with {tmp} for the test's directory; exit code; stderr stage)
CLI_FAILURES = [
    pytest.param(["analyze", "{tmp}/empty.csv", "--out", "{tmp}/out"], 2, "ingestion", id="analyze-ingestion"),
    pytest.param(["analyze", "{tmp}/flat.csv", "--out", "{tmp}/out"], 2, "correlation", id="analyze-correlation"),
    pytest.param(["analyze", "{tmp}/two.csv", "--out", "{tmp}/empty.csv"], 3, "export", id="analyze-export"),
    pytest.param(["evolve", "{tmp}/absent.csv", "--out", "{tmp}/out"], 3, "ingestion", id="evolve-ingestion"),
    # Thresholds and period bounds are checked before ingestion, so the absent input is never opened.
    pytest.param(["analyze", "{tmp}/absent.csv", "--gap", "nan", "--out", "{tmp}/out"], 2, "setup", id="analyze-nan-gap"),
    pytest.param(
        ["analyze", "{tmp}/absent.csv", "--start", "2005-01-05", "--end", "2005-01-04", "--out", "{tmp}/out"],
        2,
        "setup",
        id="analyze-end-before-start-absent",
    ),
    pytest.param(
        ["evolve", "{tmp}/absent.csv", "--start", "2005x", "--out", "{tmp}/out"], 2, "setup", id="evolve-bad-start"
    ),
    pytest.param(["evolve", "{tmp}/absent.csv", "--tau", "nan", "--out", "{tmp}/out"], 2, "setup", id="evolve-nan-tau"),
    pytest.param(
        ["evolve", "{tmp}/absent.csv", "--tau-hub", "inf", "--out", "{tmp}/out"], 2, "setup", id="evolve-inf-tau-hub"
    ),
    pytest.param(
        ["evolve", "{tmp}/flat.csv", "--center", "ZZZ", "--out", "{tmp}/out"], 2, "rolling", id="evolve-rolling"
    ),
    pytest.param(["synth", "{tmp}/bogus.txt", "--out", "{tmp}/out"], 2, "params", id="synth-params"),
    pytest.param(["synth", "{tmp}/kind.txt", "--out", "{tmp}/out"], 2, "params", id="synth-params-kind"),
    pytest.param(["synth", "{tmp}/short.txt", "--out", "{tmp}/out"], 2, "generate", id="synth-generate"),
    pytest.param(["synth", "{tmp}/beta.txt", "--out", "{tmp}/out"], 2, "generate", id="synth-generate-beta"),
    pytest.param(["synth", "{tmp}/betas.txt", "--out", "{tmp}/out"], 2, "generate", id="synth-generate-betas"),
    pytest.param(["synth", "{tmp}/hub.txt", "--out", "{tmp}/out"], 2, "generate", id="synth-generate-partial-hub"),
    pytest.param(["synth", "{tmp}/nan-beta.txt", "--out", "{tmp}/out"], 2, "generate", id="synth-generate-nan-beta"),
    pytest.param(["synth", "{tmp}/inf-betas.txt", "--out", "{tmp}/out"], 2, "generate", id="synth-generate-inf-betas"),
    pytest.param(["synth", "{tmp}/inf-sigma.txt", "--out", "{tmp}/out"], 2, "generate", id="synth-generate-inf-sigma"),
    pytest.param(["synth", "{tmp}/no-equals.txt", "--out", "{tmp}/out"], 2, "params", id="synth-params-not-key-value"),
    pytest.param(["synth", "{tmp}/repeat.txt", "--out", "{tmp}/out"], 2, "params", id="synth-params-repeated-key"),
    pytest.param(["synth", "{tmp}/one-day.txt", "--out", "{tmp}/out"], 2, "generate", id="synth-generate-one-day"),
    # 39 returns of standard deviation 100 sum past ln(max float) ~ 709; no numpy warning may escape.
    pytest.param(["synth", "{tmp}/overflow.txt", "--out", "{tmp}/out"], 2, "generate", id="synth-generate-overflow"),
    pytest.param(["analyze", "{tmp}/latin1.csv", "--out", "{tmp}/out"], 2, "ingestion", id="analyze-not-utf8"),
    pytest.param(["evolve", "{tmp}/latin1.csv", "--out", "{tmp}/out"], 2, "ingestion", id="evolve-not-utf8"),
    pytest.param(["analyze", "{tmp}/long.csv", "--out", "{tmp}/out"], 2, "ingestion", id="analyze-field-limit"),
]


@pytest.mark.parametrize("argv, code, stage", CLI_FAILURES)
def test_cli_failure_exit_code_and_stage_line(tmp_path, capsys, argv, code, stage):
    (tmp_path / "empty.csv").write_text("date,ticker,close\n")
    (tmp_path / "flat.csv").write_text(FLAT_PRICES)
    (tmp_path / "two.csv").write_text(
        "\n".join(line for line in FLAT_PRICES.splitlines() if ",FLAT," not in line) + "\n"
    )
    (tmp_path / "bogus.txt").write_text("n_companies = 5\nn_days = 40\nbogus = 1\n")
    (tmp_path / "short.txt").write_text("n_companies = 5\n")
    (tmp_path / "beta.txt").write_text("n_companies = 5\nn_days = 40\nbeta = x\n")
    (tmp_path / "betas.txt").write_text("n_companies = 2\nn_days = 40\nbetas = 1,a\n")
    (tmp_path / "kind.txt").write_text("n_companies = 5\nn_days = 40\nkind = one_factor\n")
    (tmp_path / "hub.txt").write_text("n_companies = 5\nn_days = 40\nhub_index = 1\n")
    (tmp_path / "nan-beta.txt").write_text("n_companies = 3\nn_days = 40\nbeta = nan\n")
    (tmp_path / "inf-betas.txt").write_text("n_companies = 2\nn_days = 40\nbetas = 1,inf\n")
    (tmp_path / "inf-sigma.txt").write_text("n_companies = 3\nn_days = 40\nnoise_sigma = inf\n")
    (tmp_path / "no-equals.txt").write_text("n_companies = 5\nn_days 40\n")
    (tmp_path / "repeat.txt").write_text("n_companies = 5\nn_days = 40\nn_companies = 6\n")
    (tmp_path / "one-day.txt").write_text("n_companies = 5\nn_days = 1\n")
    (tmp_path / "overflow.txt").write_text("n_companies = 3\nn_days = 40\nnoise_sigma = 100\n")
    (tmp_path / "latin1.csv").write_bytes(FLAT_PRICES.replace("BB", "B\xe9").encode("latin-1"))
    (tmp_path / "long.csv").write_text(FLAT_PRICES + "2005-01-07,%s,1.0\n" % ("X" * 140_000))
    capsys.readouterr()
    assert main([a.format(tmp=tmp_path) for a in argv]) == code
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(stage + ": "), lines


@pytest.mark.parametrize(
    "name, text, argv, message",
    [
        pytest.param(
            "flat.csv",
            FLAT_PRICES,
            ["analyze", "--start", "2005-01-04", "--end", "2005-01-05"],
            "ingestion: panel needs at least 3 trading days",
            id="analyze-two-trading-days",
        ),
        # Seed 8 draws two returns below -1300, so both prices underflow to 0.
        pytest.param(
            "underflow.txt",
            "n_companies = 2\nn_days = 2\nbeta = 0\nnoise_sigma = 1000\nseed = 8\n",
            ["synth"],
            "generate: 2 prices overflow or underflow the float range",
            id="synth-underflow",
        ),
        # int() alone reads "1_0" as 10.
        pytest.param(
            "under.txt",
            "n_companies = 1_0\nn_days = 20\n",
            ["synth"],
            "generate: not an ASCII decimal number: '1_0'",
            id="synth-underscore-count",
        ),
        # The params file is stripped of ASCII whitespace only, like a price field.
        pytest.param(
            "space.txt",
            "n_companies = 4\u3000\nn_days = 20\n",
            ["synth"],
            "generate: not an ASCII decimal number: '4\\u3000'",
            id="synth-non-ascii-space-in-value",
        ),
        pytest.param(
            "key.txt",
            "n_companies\u3000= 4\nn_days = 20\n",
            ["synth"],
            "params: unknown parameter 'n_companies\\u3000'",
            id="synth-non-ascii-space-in-key",
        ),
        pytest.param(
            "separator.txt",
            "n_companies = 4\u2028n_days = 20\n",
            ["synth"],
            "generate: not an ASCII decimal number: '4\\u2028n_days = 20'",
            id="synth-non-ascii-line-separator",
        ),
        pytest.param(
            "both.txt",
            "n_companies = 4\nn_days = 20\nbeta = 0.6\nbetas = 1,1,1,1\n",
            ["synth"],
            "generate: give beta or betas, not both",
            id="synth-beta-and-betas",
        ),
        pytest.param(
            "seed.txt",
            "n_companies = 5\nn_days = 50\nseed = -1\n",
            ["synth"],
            "generate: seed must be non-negative, got -1",
            id="synth-negative-seed",
        ),
        pytest.param(
            "flat.csv",
            FLAT_PRICES,
            ["analyze", "--start", "2005-01-05", "--end", "2005-01-04"],
            "setup: period end 2005-01-04 before start 2005-01-05",
            id="analyze-end-before-start",
        ),
    ],
)
def test_cli_failure_names_its_cause_and_writes_nothing(tmp_path, capsys, name, text, argv, message):
    (tmp_path / name).write_text(text, encoding="utf-8")
    capsys.readouterr()
    assert main([argv[0], str(tmp_path / name), *argv[1:], "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.splitlines() == [message]
    assert not (tmp_path / "out").exists()


def test_synth_params_comments_blank_lines_and_a_bom_read_alike(tmp_path):
    plain = b"n_companies = 4\nn_days = 30\nseed = 3\n"
    variants = {
        "plain": plain,
        "commented": b"# four companies\n\nn_companies = 4  # a comment\n\nn_days = 30\n   \nseed = 3 #\n",
        "bom": b"\xef\xbb\xbf" + plain,
    }
    for name, data in variants.items():
        (tmp_path / (name + ".txt")).write_bytes(data)
        assert main(["synth", str(tmp_path / (name + ".txt")), "--out", str(tmp_path / name)]) == 0
    expected = (tmp_path / "plain" / "prices.csv").read_bytes()
    assert (tmp_path / "commented" / "prices.csv").read_bytes() == expected
    assert (tmp_path / "bom" / "prices.csv").read_bytes() == expected


@pytest.mark.parametrize("bound", ["20050103", "2005-W01-1", "2005-1-03"])
def test_period_bounds_must_be_yyyy_mm_dd(tmp_path, capsys, bound):
    # The bounds are parsed before the price file is opened.
    (tmp_path / "two.csv").write_text(
        "\n".join(line for line in FLAT_PRICES.splitlines() if ",FLAT," not in line) + "\n"
    )
    capsys.readouterr()
    argv = ["analyze", str(tmp_path / "two.csv"), "--start", bound, "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines() == [
        "setup: bad date %r, expected YYYY-MM-DD" % bound
    ]
    assert not (tmp_path / "out").exists()


def test_analyze_rejects_tickers_its_outputs_cannot_hold(tmp_path, capsys):
    text = "".join(line + "\n" for line in FLAT_PRICES.splitlines() if ",FLAT," not in line)
    bad = [('"C,D"', "C,D"), ('"A""B"', 'A"B')]
    for field, _ in bad:
        text += "".join("2005-01-%02d,%s,%d\n" % (d, field, d) for d in (3, 4, 5, 6))
    (tmp_path / "prices.csv").write_text(text)
    out = tmp_path / "out"
    capsys.readouterr()
    argv = ["analyze", str(tmp_path / "prices.csv"), "--out", str(out)]
    assert main(argv + ["--format", "edges", "--format", "dot", "--format", "csv"]) == 0
    assert capsys.readouterr().err.splitlines() == [
        "ingestion: line %d rejected (unparseable ticker %r)" % (10 + 4 * k + d, ticker)
        for k, (_, ticker) in enumerate(bad)
        for d in range(4)
    ]
    assert [len(line.split(",")) for line in (out / "corr.csv").read_text().splitlines()] == [2, 2, 2]
    assert read_tree(out / "tree.edges").tickers == ["AA", "BB"]


def test_tree_edges_keep_a_non_ascii_space_in_a_ticker(tmp_path):
    text = "".join(line + "\n" for line in FLAT_PRICES.splitlines() if ",FLAT," not in line)
    (tmp_path / "prices.csv").write_text(text.replace(",AA,", ",\u3000AA,"), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["analyze", str(tmp_path / "prices.csv"), "--out", str(out)]) == 0
    assert read_tree(out / "tree.edges").tickers == ["BB", "\u3000AA"]
    vertices = re.findall(r'^  "([^"]+)";$', (out / "tree.dot").read_text(encoding="utf-8"), flags=re.M)
    assert sorted(vertices) == ["BB", "\u3000AA"]


def test_crlf_price_file_reads_like_lf(tmp_path, capsys):
    text = "".join(line + "\n" for line in FLAT_PRICES.splitlines() if ",FLAT," not in line)
    text += "2005-01-07,AA,-1.0\n"
    results = []
    for name, bom, newline in (("lf", b"", "\n"), ("crlf", b"", "\r\n"), ("bom", b"\xef\xbb\xbf", "\n")):
        (tmp_path / (name + ".csv")).write_bytes(bom + text.replace("\n", newline).encode())
        capsys.readouterr()
        assert main(["analyze", str(tmp_path / (name + ".csv")), "--out", str(tmp_path / name)]) == 0
        analysis = json.loads((tmp_path / name / "analysis.json").read_text())
        del analysis["config_hash"]  # hashes the input path
        results.append((capsys.readouterr().err, analysis))
    assert results[0] == results[1] == results[2]
    assert results[0][0] == "ingestion: line 10 rejected (non-positive price -1.0)\n"


def test_analyze_and_evolve_never_import_numpy_ma(tmp_path):
    # Importing `numpy.ma` adds 1.2-1.7 MB to the CLI's peak; a plain
    # `np.unique` would import it, so the parse sorts with `np.sort`.
    panel = one_factor_returns(FactorModelParams(12, 140, (0.6,) * 12, 1.0, 5))
    write_price_csv(tmp_path / "full.csv", panel.tickers, panel.dates, 100.0 * np.exp(np.cumsum(panel.returns, axis=1)))
    header, *lines = (tmp_path / "full.csv").read_text(encoding="utf-8").splitlines(keepends=True)
    hole = "%s,%s," % (panel.dates[70].isoformat(), panel.tickers[4])
    lines = [line for line in lines if not line.startswith(hole)]  # a holed company
    lines.insert(30, "%s,%s,-1.0\n" % (panel.dates[2].isoformat(), panel.tickers[7]))  # a rejected row
    (tmp_path / "prices.csv").write_text(header + "".join(lines), encoding="utf-8")
    runs = [
        ["analyze", "prices.csv", "--format", "csv", "--out", "analyze"],
        ["evolve", "prices.csv", "--window", "60", "--step", "10", "--out", "evolve"],
    ]
    script = "import json, sys\nfrom assettree.cli import main\nprint(json.dumps([[main(a) for a in %r], 'numpy.ma' in sys.modules]))" % runs
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [[0, 0], False]
    assert "rejected (non-positive price -1.0)" in done.stderr
    report = json.loads((tmp_path / "analyze" / "analysis.json").read_text(encoding="utf-8"))
    assert report["dropped_companies"] == [panel.tickers[4]]


def test_optimized_interpreter_writes_the_same_bytes(tmp_path):
    # `python -O` strips `assert` statements, so no check the outputs rest on may be one.
    params = write_params(tmp_path / "params.txt", regime_start=40, regime_end=100)
    assert main(["synth", str(params), "--out", str(tmp_path)]) == 0
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    outputs = []
    for flags in ([], ["-O"]):
        out = tmp_path / ("optimized" if flags else "plain")
        for args in (["analyze", "--format", "csv"], ["evolve", "--window", "40", "--step", "3"]):
            argv = [sys.executable, *flags, "-m", "assettree.cli", *args, "prices.csv", "--out", str(out / args[0])]
            done = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, timeout=120)
            assert (done.returncode, done.stderr) == (0, b"")
        outputs.append({str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()})
    assert sorted(outputs[0]) == ["analyze/analysis.json", "analyze/corr.csv", "evolve/series.csv", "evolve/transitions.json"]
    assert outputs[0] == outputs[1]
