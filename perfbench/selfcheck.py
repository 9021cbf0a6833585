"""Self-check of the benchmark harness on tiny panels; runs in seconds.

    python3 perfbench/selfcheck.py

It checks that BENCHMARK.json declares the metrics run.py reports, that
an untraced and a traced run print every end-to-end and per-layer metric
with its unit, that the traced layer self times add up
to the traced wall time, that an altered output file and a missing
rejection diagnostic are reported as failures, and that a directory
holding only the benchmark exits non-zero without printing a result.
Exit code 0 when every check holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import run
from panels import PanelSpec

TINY = {
    "tiny-evolve": run.Workload("evolve", PanelSpec(20, 300), ("--window", "60", "--step", "7")),
    "tiny-analyze": run.Workload(
        "analyze",
        PanelSpec(20, 300, row_order="ticker", malformed_share=0.01, holed_share=0.1),
        ("--format", "edges", "--format", "dot", "--format", "csv"),
    ),
}
SELF_TIME_PARTS = (
    "cli.self_s", "ingestion.s", "correlation.s", "mst.s", "metrics.s",
    "rolling.self_s", "rolling.full_tree_s", "exports.s",
)


def measured(name: str, workload: run.Workload, root: Path, trace: bool, reference=None):
    """Printed text and result object of one short run."""
    bench = run.Bench(workload, 1, root, reference)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        result = run.report(name, 1, 1, trace, bench, bench.measure(1, trace), {}, root)
    return out.getvalue(), result


def check_printed(text: str, result: dict, units: dict) -> list[str]:
    problems = []
    for key, unit in units.items():
        line = next((ln for ln in text.splitlines() if ln.split()[:1] == [key]), "")
        if not line.endswith(" " + unit) or "missing" in line:
            problems.append("%s not printed with unit %s" % (key, unit))
        if result["metrics"].get(key, {}).get("unit") != unit:
            problems.append("%s missing from the result object" % key)
    if "failed_share" not in text:
        problems.append("failed_share not printed")
    if not result["correct"] or result["failed"]:
        problems.append("clean run reported as failed: %s" % text[-500:])
    return problems


def check_trace(name: str, workload: run.Workload, result: dict) -> list[str]:
    values = {k: v["value"] for k, v in result["metrics"].items()}
    problems = []
    parts = sum(values[k] for k in SELF_TIME_PARTS)
    if not math.isclose(parts, values["trace.wall_s"], rel_tol=1e-9):
        problems.append("%s: layer self times sum to %r, traced wall %r" % (name, parts, values["trace.wall_s"]))
    if workload.command == "evolve":
        width, step = workload.window()
        n_windows = (workload.spec.n_days - 1 - width) // step + 1
        if values["rolling.windows"] != n_windows:
            problems.append("%s: rolling.windows %r, expected %d" % (name, values["rolling.windows"], n_windows))
        if values["mst.degrees_calls"] != 4 * n_windows + 1:
            problems.append("%s: mst.degrees_calls %r" % (name, values["mst.degrees_calls"]))
    elif values["ingestion.rows_rejected"] == 0 or values["ingestion.companies_dropped"] == 0:
        problems.append("%s: rejected rows or dropped companies not counted" % name)
    return problems


def check_alterations(name: str, workload: run.Workload, root: Path) -> list[str]:
    """Altered outputs must fail, both against reference hashes and the checks."""
    problems = []
    bench = run.Bench(workload, 1, root, None)
    first = run.Run()
    bench.invoke(first)
    altered = dict(first.hashes)
    victim = sorted(altered)[0]
    altered[victim] = "0" * 64
    reference = {"input": bench.meta["sha256"], "outputs": altered}
    _, result = measured(name, workload, root, False, reference)
    if result["correct"] or result["failed"] == 0:
        problems.append("%s: altered reference hash of %s not reported" % (name, victim))

    out_dir = bench.run_dir / "altered"
    out_dir.mkdir()
    child = run.run_child(
        [sys.executable, "-m", "assettree.cli", *bench.cli_args(out_dir)], root, bench.run_dir / "stderr.txt"
    )
    if child.exit_code != 0 or bench.expect.check(out_dir, child.stderr):
        problems.append("%s: untouched outputs fail the checks" % name)
    # Alter one digit of a tree length: window 0 of series.csv, or analysis.json's ntl.
    target = out_dir / ("series.csv" if workload.command == "evolve" else "analysis.json")
    text = target.read_text(encoding="utf-8")
    digit = text.index(".", text.index("\n" if workload.command == "evolve" else '"ntl": ')) + 1
    target.write_text(text[:digit] + str(int(text[digit]) % 9 + 1) + text[digit + 1 :], encoding="utf-8")
    if not bench.expect.check(out_dir, child.stderr):
        problems.append("%s: altered %s passed the checks" % (name, target.name))
    if bench.expect.malformed_lines and not bench.expect.check(out_dir, ""):
        problems.append("%s: missing rejection lines passed the checks" % name)
    shutil.rmtree(bench.run_dir)
    return problems


def check_declared(root: Path) -> list[str]:
    """BENCHMARK.json declares exactly the workloads and metrics run.py reports."""
    declared = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    if [w["name"] for w in declared["workloads"]] != list(run.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.WORKLOADS")
    for section, units in (("end_to_end", run.END_TO_END_UNITS), ("per_layer", run.PER_LAYER_UNITS)):
        if {m["name"]: m["unit"] for m in declared[section]} != units:
            problems.append("BENCHMARK.json %s differs from what run.py reports" % section)
    return problems


def check_bare_directory(root: Path) -> list[str]:
    """Without src/, the benchmark must exit non-zero and print no result."""
    bare = root / run.WORK_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(root / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "evolve-rolling", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return ["bare directory: exit %d, stdout %r" % (proc.returncode, proc.stdout[-200:])]
    return []


def main() -> int:
    root = Path.cwd().resolve()
    run.check_program(root)
    problems = check_declared(root)
    for name, workload in TINY.items():
        text, result = measured(name, workload, root, False)
        problems += check_printed(text, result, run.END_TO_END_UNITS)
        text, result = measured(name, workload, root, True)
        problems += check_printed(text, result, run.PER_LAYER_UNITS)
        problems += check_trace(name, workload, result)
        problems += check_alterations(name, workload, root)
    problems += check_bare_directory(root)
    for problem in problems:
        print("SELFCHECK FAILED %s" % problem)
    print(json.dumps({"selfcheck": "ok" if not problems else "failed", "problems": len(problems)}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
