"""Command-line front end.

Subcommands:
  analyze     one-shot pipeline over a whole period, tree + report out
  evolve      rolling-window pipeline, metric series + transition report
  synth       generate an ingestion-compatible synthetic price CSV
  export-dot  convert a saved edge-list tree to DOT

Exit codes: 0 success, 2 validation error, 3 I/O error. Every failure
after parsing prints one `<stage>: <message>` line to stderr. A command
line that argparse rejects prints its usage and one
`assettree <command>: error: ...` line, and exits 2 through SystemExit.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from datetime import date as Date, timedelta
from pathlib import Path

import numpy as np

from . import exports
from .correlation import pearson_matrix, to_distance
from .errors import AssetTreeError, ConfigurationError
from .ingestion import ASCII_WHITESPACE, align_and_filter, ascii_decimal, parse_iso_date, parse_price_table
from .metrics import PHASE_SUPERHUB, PhaseRule, summarize_batch
from .mst import Tree, prim_batch
from .rolling import WindowSpec, detect_transitions, evolve, period_center
from .synth import FactorModelParams, HubRegimeParams, hub_regime_returns, one_factor_returns

DEFAULT_WINDOW = 250
DEFAULT_STEP = 5


@dataclass
class Stage:
    """The pipeline stage a command is in, named in its error line.

    Each cmd_* function advances `name` as it goes and raises on failure;
    `main` maps the error to the exit code.
    """

    name: str = "setup"


def _parse_date(text: str) -> Date:
    try:
        return parse_iso_date(text)
    except ValueError:
        raise ConfigurationError("bad date %r, expected YYYY-MM-DD" % text) from None


def _resolve_input(args) -> str:
    given = [p for p in (args.input_pos, args.input) if p]
    if len(given) != 1:
        raise ConfigurationError("exactly one input path required")
    return given[0]


def _load_run(args, stage: Stage):
    """Check the input path, the thresholds and the period, then read the prices.

    Returns (returns, rule, config); `config` names the run for `config_hash`.
    """
    path = _resolve_input(args)
    rule = PhaseRule(args.tau, args.gap, args.tau_hub)
    bounds = [_parse_date(text) if text else None for text in (args.start, args.end)]
    if None not in bounds and bounds[1] < bounds[0]:
        raise ConfigurationError("period end %s before start %s" % (bounds[1], bounds[0]))
    stage.name = "ingestion"
    with open(path, "rb") as source:
        parsed = parse_price_table(source)
    rejections = ("ingestion: line %d rejected (%s)\n" % (r.line_number, r.reason) for r in parsed.rejected)
    sys.stderr.write("".join(rejections))  # one write for all the rows
    if not parsed.dates:
        raise ConfigurationError("no parseable records in %s" % path)
    start = bounds[0] or parsed.dates[0]
    end = bounds[1] or parsed.dates[-1]
    config = {
        "input": path,
        "start": start.isoformat(),
        "end": end.isoformat(),
        **vars(rule),
    }
    return align_and_filter(parsed, (start, end)), rule, config


def cmd_analyze(args, stage: Stage) -> None:
    panel, rule, config = _load_run(args, stage)
    stage.name = "correlation"
    rho = pearson_matrix(panel.tickers, panel.returns, panel.log_scale)
    src, dst, w = prim_batch(panel.tickers, to_distance(rho)[None])
    summary = summarize_batch(panel.tickers, src, dst, w, 0, rule)[0][0]
    label = summary.phase
    payload = {
        "n_companies": len(panel.tickers),
        "period": {"start": config["start"], "end": config["end"]},
        "dropped_companies": panel.dropped,
        "config_hash": exports.config_hash(config),
        "ntl": summary.ntl,
        "mol_dynamic": summary.mol_dynamic,
        "dynamic_center": summary.center,
        "degree_counts": {str(k): c for k, c in enumerate(summary.distribution.tolist()) if c},
        "fit": None
        if label.fit is None
        else {**vars(label.fit), "residuals": {str(k): r for k, r in label.fit.residuals.items()}},
        "superhub": {
            "is_superhub": label.phase == PHASE_SUPERHUB,
            "hub_ticker": summary.center,
            "k_max": label.k_max,
            "k_second": label.k_second,
            "log_residual": label.log_residual if math.isfinite(label.log_residual) else None,
            "degree_gap_ratio": label.degree_gap_ratio,
        },
        "phase": label.phase,
        "n_outlier_hubs": label.n_outlier_hubs,
    }
    stage.name = "export"
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    meta = {"period": "%(start)s..%(end)s" % config, "config_hash": payload["config_hash"]}
    formats = args.formats or ["edges", "dot"]
    tree = Tree.from_edges(panel.tickers, src[0], dst[0], w[0])
    if "edges" in formats:
        exports.write_tree_edges(out / "tree.edges", tree, meta)
    if "dot" in formats:
        exports.write_dot(out / "tree.dot", tree)
    if "csv" in formats:
        exports.write_correlation_matrix(out / "corr.csv", panel.tickers, rho)
    exports.write_json(out / "analysis.json", payload)


def cmd_evolve(args, stage: Stage) -> None:
    spec = WindowSpec(args.window, args.step)
    returns, rule, config = _load_run(args, stage)
    stage.name = "rolling"
    center = period_center(returns, rule) if args.center is None else args.center
    series = evolve(returns, spec, center, rule)
    report = detect_transitions(series)
    stage.name = "export"
    config.update(window=spec.width, step=spec.step, center=center)
    payload = {
        "ntl_argmin": {"index": report.ntl_argmin[0], "date": report.ntl_argmin[1].isoformat()},
        "mol_argmin": {"index": report.mol_argmin[0], "date": report.mol_argmin[1].isoformat()},
        "phase_changes": [{"index": i, "from": a, "to": b} for i, a, b in report.phase_changes],
        "superhub_intervals": [
            {"start": s, "end": e, "hub": hub} for s, e, hub in report.superhub_intervals
        ],
        "static_center": center,
        "config_hash": exports.config_hash(config),
        "dropped_companies": returns.dropped,
        "window_drops": {str(i): list(t) for i, t in enumerate(series.dropped) if t},
    }
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    exports.write_metric_series_csv(out / "series.csv", series)
    exports.write_json(out / "transitions.json", payload)


_HUB_KEYS = ("hub_index", "gamma", "regime_start", "regime_end")
_PARAM_KEYS = {
    "n_companies",
    "n_days",
    "beta",
    "betas",
    "noise_sigma",
    "seed",
    *_HUB_KEYS,
}


def _parse_params(path: str) -> dict:
    """Flat key=value file; '#' comments, blank lines, a leading BOM and ASCII whitespace ignored."""
    params: dict[str, str] = {}
    # Universal newlines make "\r\n" and "\r" a "\n"; splitlines() would also break at U+2028.
    for line_number, line in enumerate(Path(path).read_text(encoding="utf-8-sig").split("\n"), 1):
        line = line.split("#", 1)[0].strip(ASCII_WHITESPACE)
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError("line %d of %s is not key=value" % (line_number, path))
        key, value = (part.strip(ASCII_WHITESPACE) for part in line.split("=", 1))
        if key not in _PARAM_KEYS:
            raise ConfigurationError("unknown parameter %r" % key)
        if key in params:
            raise ConfigurationError("duplicate parameter %r" % key)
        params[key] = value
    return params


def _synth_panel(params: dict):
    """Build the return panel described by a params mapping."""
    # Any hub key selects the hub-regime generator, which then needs all four.
    hub_regime = any(key in params for key in _HUB_KEYS)
    if "beta" in params and "betas" in params:
        raise ConfigurationError("give beta or betas, not both")
    try:
        params = {key: ascii_decimal(value) for key, value in params.items()}
        n_companies = int(params["n_companies"])
        n_price_days = int(params["n_days"])
        sigma = float(params.get("noise_sigma", "1.0"))
        seed = int(params.get("seed", "0"))
        if "betas" in params:
            betas = tuple(float(b) for b in params["betas"].split(","))
        else:
            betas = (float(params.get("beta", "1.0")),) * n_companies
        if hub_regime:
            hub_index = int(params["hub_index"])
            gamma = float(params["gamma"])
            interval = (int(params["regime_start"]), int(params["regime_end"]))
    except KeyError as err:
        raise ConfigurationError("missing parameter %s" % err) from None
    except ValueError as err:
        raise ConfigurationError(str(err)) from None
    if n_price_days < 2:
        raise ConfigurationError("n_days must be at least 2 price days")
    base = FactorModelParams(n_companies, n_price_days - 1, betas, sigma, seed)
    if not hub_regime:
        return one_factor_returns(base)
    return hub_regime_returns(HubRegimeParams(base, hub_index, gamma, interval))


def cmd_synth(args, stage: Stage) -> None:
    stage.name = "params"
    params = _parse_params(args.params)
    stage.name = "generate"
    with np.errstate(all="ignore"):  # a price outside the float range is caught below
        panel = _synth_panel(params)
        prices = 100.0 * np.exp(np.cumsum(panel.returns, axis=1))
    bad = np.count_nonzero(~((prices > 0) & (prices < np.inf)))
    if bad:
        raise ConfigurationError("%d prices overflow or underflow the float range" % bad)
    prices = np.hstack([np.full((prices.shape[0], 1), 100.0), prices])
    price_dates = [panel.dates[0] - timedelta(days=1)] + list(panel.dates)
    stage.name = "export"
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    exports.write_price_csv(out / "prices.csv", panel.tickers, price_dates, prices)


def cmd_export_dot(args, stage: Stage) -> None:
    path = _resolve_input(args)
    stage.name = "read"
    tree = exports.read_tree_edges(path)
    stage.name = "export"
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    exports.write_dot(out / (Path(path).stem + ".dot"), tree)


def _add_common_io(sub) -> None:
    sub.add_argument("input_pos", nargs="?", metavar="input", help="price CSV path")
    sub.add_argument("--input", help="price CSV path (alternative to positional)")
    sub.add_argument("--start", help="period start, YYYY-MM-DD (default: first observed)")
    sub.add_argument("--end", help="period end, YYYY-MM-DD (default: last observed)")
    sub.add_argument("--tau", type=float, default=PhaseRule.tau, help="superhub residual threshold, decades")
    sub.add_argument("--gap", type=float, default=PhaseRule.gap, help="superhub degree gap ratio")
    sub.add_argument("--tau-hub", type=float, default=PhaseRule.tau_hub, help="hub residual threshold, decades")
    sub.add_argument("--out", default=".", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="assettree",
        description="Correlation-tree analysis of equity return panels",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_analyze = subs.add_parser("analyze", help="one-shot analysis over a period")
    _add_common_io(p_analyze)
    p_analyze.add_argument(
        "--format",
        dest="formats",
        action="append",
        choices=["dot", "edges", "csv"],
        help="tree/matrix outputs (repeatable; default: edges and dot)",
    )
    p_analyze.set_defaults(func=cmd_analyze)

    p_evolve = subs.add_parser("evolve", help="rolling-window metric series")
    _add_common_io(p_evolve)
    p_evolve.add_argument("--window", type=int, default=DEFAULT_WINDOW, help="window width in trading days")
    p_evolve.add_argument("--step", type=int, default=DEFAULT_STEP, help="window step in trading days")
    p_evolve.add_argument("--center", help="static center ticker (default: full-period max-degree vertex)")
    p_evolve.set_defaults(func=cmd_evolve)

    p_synth = subs.add_parser("synth", help="generate a synthetic price CSV")
    p_synth.add_argument("params", help="key=value parameter file")
    p_synth.add_argument("--out", default=".", help="output directory")
    p_synth.set_defaults(func=cmd_synth)

    p_dot = subs.add_parser("export-dot", help="convert an edge-list tree to DOT")
    p_dot.add_argument("input_pos", nargs="?", metavar="input", help="edge-list file")
    p_dot.add_argument("--input", help="edge-list file (alternative to positional)")
    p_dot.add_argument("--out", default=".", help="output directory")
    p_dot.set_defaults(func=cmd_export_dot)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    stage = Stage()
    try:
        args.func(args, stage)
    except OSError as err:
        print("%s: %s" % (stage.name, err), file=sys.stderr)
        return 3
    except AssetTreeError as err:
        print("%s: %s" % (stage.name, err), file=sys.stderr)
        return 2
    except UnicodeDecodeError as err:
        print("%s: input is not UTF-8 text (%s)" % (stage.name, err.reason), file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
