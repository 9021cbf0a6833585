"""Correctness checks applied to the outputs of every benchmark invocation.

Three kinds, all of which must pass for an invocation to count as good:

- hashes: the sha256 of every output file equals the recorded reference
  for this workload and seed when one exists, and otherwise equals the
  hashes of the first invocation of the run;
- ground truth planted by the generator, which holds for any seed: the
  rejected line numbers on stderr, the dropped companies, the number of
  windows, and for the hub regime the hub of every superhub interval;
- an independent recomputation of a few trees from the generated prices
  (numpy Prim without tie rules, which random prices never need), compared
  within a relative tolerance of 1e-9.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np

from panels import Panel, PanelSpec

REJECT_LINE = re.compile(r"^ingestion: line (\d+) rejected ")
REL_TOL = 1e-9


def output_hashes(out_dir: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
        if p.is_file()
    }


def reference_tree(prices: np.ndarray) -> tuple[list[tuple[int, int]], float, np.ndarray]:
    """MST edges (i < j), normalized tree length and degrees of a price block."""
    returns = np.diff(np.log(prices), axis=1)
    rho = np.clip(np.corrcoef(returns), -1.0, 1.0)
    d = np.sqrt(2.0 * (1.0 - rho))
    n = len(d)
    in_tree = np.zeros(n, dtype=bool)
    in_tree[0] = True
    best = d[0].copy()
    best_from = np.zeros(n, dtype=np.int64)
    edges, weights = [], []
    for _ in range(n - 1):
        v = int(np.argmin(np.where(in_tree, np.inf, best)))
        u = int(best_from[v])
        edges.append((min(u, v), max(u, v)))
        weights.append(d[u, v])
        in_tree[v] = True
        better = ~in_tree & (d[v] < best)
        best[better] = d[v][better]
        best_from[better] = v
    degrees = np.bincount(np.array(edges).ravel(), minlength=n)
    return sorted(edges), math.fsum(weights) / (n - 1), degrees


def _center(tickers: list[str], degrees: np.ndarray) -> str:
    return min(tickers[v] for v in np.flatnonzero(degrees == degrees.max()))


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


class Expectation:
    """What a correct run must produce for one generated panel."""

    def __init__(self, command: str, spec: PanelSpec, panel: Panel, meta: dict, window=None):
        self.command = command
        self.malformed_lines = meta["malformed_lines"]
        self.holed = meta["holed"]
        self.hub = None if spec.hub_index is None else panel.tickers[spec.hub_index]
        kept = panel.kept_rows()
        self.tickers = [panel.tickers[i] for i in kept]
        prices = panel.prices[kept]
        self.edges, self.ntl, degrees = reference_tree(prices)
        self.center = _center(self.tickers, degrees)
        self.windows = {}
        if command == "evolve":
            width, step = window
            n_windows = (spec.n_days - 1 - width) // step + 1
            self.n_windows = n_windows
            for k in sorted({0, n_windows // 2, n_windows - 1}):
                # Window k holds returns [k*step, k*step + width), i.e. one more price.
                block = prices[:, k * step : k * step + width + 1]
                _, ntl, deg = reference_tree(block)
                self.windows[k] = (ntl, int(deg.max()), _center(self.tickers, deg))

    def check(self, out_dir: Path, stderr_text: str) -> list[str]:
        """Descriptions of every way the outputs in out_dir are wrong."""
        problems = []
        rejected = [
            int(m.group(1))
            for m in map(REJECT_LINE.match, stderr_text.splitlines())
            if m
        ]
        if rejected != self.malformed_lines:
            problems.append(
                "stderr names %d rejected lines, %d were injected"
                % (len(rejected), len(self.malformed_lines))
            )
        try:
            report_name = "analysis.json" if self.command == "analyze" else "transitions.json"
            report = json.loads((out_dir / report_name).read_text(encoding="utf-8"))
            # Listed in order of first appearance, which the row order decides.
            if sorted(report["dropped_companies"]) != self.holed:
                problems.append("dropped_companies differs from the holed tickers")
            if self.command == "analyze":
                problems += self._check_analyze(out_dir, report)
            else:
                problems += self._check_evolve(out_dir, report)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as err:
            problems.append("unreadable output: %r" % err)
        return problems

    def _check_analyze(self, out_dir: Path, report: dict) -> list[str]:
        problems = []
        if report["n_companies"] != len(self.tickers):
            problems.append("n_companies %s, expected %d" % (report["n_companies"], len(self.tickers)))
        if not _close(report["ntl"], self.ntl):
            problems.append("ntl %r, reference %r" % (report["ntl"], self.ntl))
        if report["dynamic_center"] != self.center:
            problems.append("dynamic_center %s, reference %s" % (report["dynamic_center"], self.center))
        index = {t: i for i, t in enumerate(self.tickers)}
        edges = []
        for line in (out_dir / "tree.edges").read_text(encoding="utf-8").splitlines():
            if line and not line.startswith("#"):
                a, b, _ = line.split(",")
                edges.append(tuple(sorted((index[a], index[b]))))
        if sorted(edges) != self.edges:
            problems.append("tree.edges differs from the reference tree")
        return problems

    def _check_evolve(self, out_dir: Path, report: dict) -> list[str]:
        problems = []
        if report["static_center"] != self.center:
            problems.append("static_center %s, reference %s" % (report["static_center"], self.center))
        with open(out_dir / "series.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != self.n_windows:
            problems.append("series.csv has %d rows, expected %d" % (len(rows), self.n_windows))
            return problems
        for k, (ntl, k_max, center) in self.windows.items():
            row = rows[k]
            if not _close(float(row["ntl"]), ntl):
                problems.append("window %d ntl %s, reference %r" % (k, row["ntl"], ntl))
            if int(row["k_max"]) != k_max or row["dynamic_center"] != center:
                problems.append("window %d hub %s/%s, reference %s/%d"
                                % (k, row["dynamic_center"], row["k_max"], center, k_max))
        if self.hub is not None:
            hubs = [i["hub"] for i in report["superhub_intervals"]]
            if not hubs or any(h != self.hub for h in hubs):
                problems.append("superhub intervals on %r, planted hub %s" % (hubs, self.hub))
        return problems
