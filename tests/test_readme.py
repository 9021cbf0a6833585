"""The README's Library example runs as written."""

import re
from pathlib import Path

import numpy as np

from assettree.exports import write_price_csv
from assettree.synth import FactorModelParams, one_factor_returns

README = Path(__file__).resolve().parents[1] / "README.md"


def library_block() -> str:
    section = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    return re.search(r"```python\n(.*?)```", section, flags=re.S).group(1)


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    panel = one_factor_returns(FactorModelParams(30, 200, (0.6,) * 30, 1.0, 7))
    prices = 100.0 * np.exp(np.cumsum(panel.returns, axis=1))
    write_price_csv(tmp_path / "prices.csv", panel.tickers, panel.dates, prices)
    monkeypatch.chdir(tmp_path)
    exec(compile(library_block(), str(README), "exec"), {})
    assert (tmp_path / "series.csv").exists()
    assert capsys.readouterr().out
