"""The README's Library example runs as written, its prose names real parameters, and its command block and stage list name the CLI's commands and stages."""

import argparse
import inspect
import re
from pathlib import Path

import numpy as np

import assettree
from assettree import cli
from assettree.cli import build_parser
from assettree.exports import write_price_csv
from assettree.synth import FactorModelParams, one_factor_returns

README = Path(__file__).resolve().parents[1] / "README.md"


def library_block() -> str:
    section = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    return re.search(r"```python\n(.*?)```", section, flags=re.S).group(1)


def test_readme_command_block_names_each_subcommand_of_the_parser():
    # A retired command cannot stay in the README, nor a new one stay out of it.
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = re.search(r"```\n(.*?)```", section, flags=re.S).group(1)
    named = [line.split()[1] for line in block.splitlines() if line.startswith("assettree ")]
    subs = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert sorted(named) == sorted(subs[0].choices)


def test_readme_stage_list_names_each_stage_the_cli_sets():
    # A stage no command sets cannot stay in the README's list, nor a new one stay out of it.
    text = " ".join(README.read_text(encoding="utf-8").split())
    listed = re.findall(r"`(\w+)`", re.search(r"where the stage is (.*?)\.", text).group(1))
    assigned = re.findall(r'stage\.name = "(\w+)"', inspect.getsource(cli))
    assert sorted(listed) == sorted({cli.Stage().name, *assigned})


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    panel = one_factor_returns(FactorModelParams(30, 200, (0.6,) * 30, 1.0, 7))
    prices = 100.0 * np.exp(np.cumsum(panel.returns, axis=1))
    write_price_csv(tmp_path / "prices.csv", panel.tickers, panel.dates, prices)
    monkeypatch.chdir(tmp_path)
    exec(compile(library_block(), str(README), "exec"), {})
    assert (tmp_path / "series.csv").exists()
    assert capsys.readouterr().out


# Calls the README makes to code outside the package.
OUTSIDE_CALLS = {"float", "np.dot", "counts.sum"}


def test_readme_call_spans_name_the_leading_parameters_in_order():
    # `name(a, b, ...)` in the prose names a public callable of the package,
    # or `tree.name(...)` a method of `Tree`, and spells the first
    # parameters of its signature, in order. A span that names nothing
    # fails, so a call to a deleted function cannot stay in the prose.
    checked, wrong = set(), []
    for name, quoted in re.findall(r"`([A-Za-z_][\w.]*)\(([^`()]*)\)`", README.read_text(encoding="utf-8")):
        if name in OUTSIDE_CALLS:
            continue
        skip = int(name.startswith("tree."))  # the `tree.` of a method, and then its `self`
        target = assettree.Tree if skip else assettree
        for part in name.split(".")[skip:]:
            target = getattr(target, part, None)
        if not callable(target):
            wrong.append("%s(%s) names no callable of the package" % (name, quoted))
            continue
        given = [arg.strip() for arg in quoted.split(",")] if quoted.strip() else []
        leading = list(inspect.signature(target).parameters)[skip : skip + len(given)]
        if given != leading:
            wrong.append("%s(%s), signature starts %s" % (name, quoted, leading))
        checked.add(name)
    assert {"prim_batch", "summarize_batch", "Tree.from_edges", "PhaseRule"} <= checked
    assert wrong == []
