"""Seeded price panels for the benchmark, with the ground truth they plant.

The generators here are the benchmark's own copies of the one-factor and
hub-regime models, so that no change to the program's `synth` module or
its CSV writer can change what the benchmark measures:

    r_i(t) = beta * f(t) + sigma * eps_i(t)                    (one factor)
    r_i(t) = gamma * r_hub(t) + (1 - gamma) * r_i(t)   for t in the regime

Prices start at 100 and compound the returns. The CSV can be written
date-major or ticker-major, with extra malformed rows (bad date, bad
price, wrong field count) and with companies that miss one date. Each
generated file is cached by (parameters, seed) and its sha256 is checked
before it is used; generation is never timed.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass
from datetime import date as Date, timedelta
from pathlib import Path

import numpy as np

EPOCH = Date(2005, 1, 3)
GENERATOR_VERSION = 1
CACHED_SEEDS_PER_PANEL = 3


@dataclass(frozen=True)
class PanelSpec:
    """Everything that determines a generated CSV, apart from the seed."""

    n_companies: int
    n_days: int  # price days; the return panel has n_days - 1 columns
    beta: float = 0.6
    noise_sigma: float = 1.0
    hub_index: int | None = None
    gamma: float = 0.0
    regime: tuple[int, int] = (0, 0)  # return-day interval [start, end)
    row_order: str = "date"  # "date" or "ticker" major
    malformed_share: float = 0.0  # extra rejected rows per valid row
    holed_share: float = 0.0  # share of companies missing one date


@dataclass
class Panel:
    """The generated prices and what the program should find in them."""

    tickers: list[str]
    dates: list[Date]
    prices: np.ndarray  # n_companies x n_days, before holes are cut
    holes: dict[int, int]  # company index -> index of its missing date
    malformed: list[tuple[int, str]]  # (position among data rows, kind)

    def kept_rows(self) -> np.ndarray:
        """Indices of the companies complete over the whole period."""
        return np.array([i for i in range(len(self.tickers)) if i not in self.holes])


def _tickers(n: int) -> list[str]:
    return ["V%04d" % i for i in range(n)]


def generate(spec: PanelSpec, seed: int) -> Panel:
    """Draw the panel for a seed. Draw order is fixed: factor, noise, holes, rows."""
    rng = np.random.default_rng(seed)
    n, t = spec.n_companies, spec.n_days - 1
    factor = rng.standard_normal(t)
    noise = rng.standard_normal((n, t))
    returns = spec.beta * factor[None, :] + spec.noise_sigma * noise
    if spec.hub_index is not None and spec.gamma > 0.0:
        start, end = spec.regime
        window = returns[:, start:end].copy()
        coupled = spec.gamma * window[spec.hub_index] + (1.0 - spec.gamma) * window
        coupled[spec.hub_index] = window[spec.hub_index]
        returns[:, start:end] = coupled
    prices = np.hstack([np.full((n, 1), 100.0), 100.0 * np.exp(np.cumsum(returns, axis=1))])

    n_holed = int(round(spec.holed_share * n))
    holed = sorted(int(i) for i in rng.choice(n, size=n_holed, replace=False))
    holes = {i: int(rng.integers(spec.n_days)) for i in holed}
    n_valid = n * spec.n_days - n_holed
    n_bad = int(round(spec.malformed_share * n_valid))
    positions = sorted(int(p) for p in rng.choice(n_valid + 1, size=n_bad, replace=True))
    kinds = ("date", "price", "fields")
    malformed = [(p, kinds[k % 3]) for k, p in enumerate(positions)]

    tickers = _tickers(n)
    dates = [EPOCH + timedelta(days=d) for d in range(spec.n_days)]
    return Panel(tickers, dates, prices, holes, malformed)


def _bad_row(kind: str, day: str, ticker: str, price: str) -> str:
    if kind == "date":
        return "%s-02-30,%s,%s" % (day[:4], ticker, price)
    if kind == "price":
        return "%s,%s,n/a" % (day, ticker)
    return "%s,%s" % (day, ticker)


def render_csv(spec: PanelSpec, panel: Panel) -> tuple[str, list[int]]:
    """CSV text with a `date,ticker,close` header, and the line numbers of bad rows."""
    days = [d.isoformat() for d in panel.dates]
    n, t = panel.prices.shape
    text = [["%.17g" % v for v in row] for row in panel.prices.tolist()]
    if spec.row_order == "date":
        cells = ((i, d) for d in range(t) for i in range(n))
    else:
        cells = ((i, d) for i in range(n) for d in range(t))
    rows = [
        "%s,%s,%s" % (days[d], panel.tickers[i], text[i][d])
        for i, d in cells
        if panel.holes.get(i) != d
    ]
    lines = ["date,ticker,close"]
    bad_lines = []
    cursor = 0
    for position, kind in panel.malformed:
        lines.extend(rows[cursor:position])
        cursor = position
        i = len(bad_lines) % n
        d = len(bad_lines) % t
        lines.append(_bad_row(kind, days[d], panel.tickers[i], text[i][d]))
        bad_lines.append(len(lines))  # 1-based line number of the row just added
    lines.extend(rows[cursor:])
    return "\n".join(lines) + "\n", bad_lines


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def cached_csv(spec: PanelSpec, seed: int, cache_dir: Path) -> tuple[Path, dict]:
    """Path of the CSV for (spec, seed) and its record, generating it if needed.

    The record holds the file's sha256 and the ground truth. A cached file
    whose sha256 no longer matches its record is generated again. Only the
    most recently used seeds of each spec are kept on disk.
    """
    key_text = json.dumps([GENERATOR_VERSION, asdict(spec)], sort_keys=True)
    key = hashlib.sha256(key_text.encode("utf-8")).hexdigest()[:16]
    spec_dir = cache_dir / key
    csv_path = spec_dir / ("seed%d.csv" % seed)
    meta_path = spec_dir / ("seed%d.json" % seed)
    if csv_path.exists() and meta_path.exists():
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        if sha256_file(csv_path) == meta["sha256"]:
            os.utime(meta_path)
            return csv_path, meta
    spec_dir.mkdir(parents=True, exist_ok=True)
    panel = generate(spec, seed)
    text, bad_lines = render_csv(spec, panel)
    csv_path.write_text(text, encoding="utf-8", newline="\n")
    meta = {
        "spec": asdict(spec),
        "seed": seed,
        "sha256": sha256_file(csv_path),
        "bytes": csv_path.stat().st_size,
        "holed": [panel.tickers[i] for i in sorted(panel.holes)],
        "malformed_lines": bad_lines,
    }
    meta_path.write_text(json.dumps(meta, indent=1) + "\n", encoding="utf-8")
    _prune(spec_dir)
    return csv_path, meta


def _prune(spec_dir: Path) -> None:
    metas = sorted(spec_dir.glob("seed*.json"), key=lambda p: p.stat().st_mtime, reverse=True)
    for meta_path in metas[CACHED_SEEDS_PER_PANEL:]:
        meta_path.with_suffix(".csv").unlink(missing_ok=True)
        meta_path.unlink()
