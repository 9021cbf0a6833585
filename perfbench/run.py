"""Benchmark of the assettree CLI: end-to-end runs and a traced per-layer run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload evolve-rolling --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn
    python3 perfbench/run.py --workload all --seed 3 --record-reference

Each workload is a price panel that the benchmark generates from the seed
(see panels.py) and one `python -m assettree.cli` command run on it in a
fresh child process, with the input on disk and in the page cache. With
`--trace 0` the run reports `wall_s`, `setup_s` and `peak_rss_mb` as
medians over the invocations it fits into `--seconds`; with `--trace 1`
it alternates traced and untraced invocations and reports the per-layer
metrics of tracing.py. Every invocation's outputs are checked (checks.py);
one that exits non-zero or fails a check counts as failed.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. A full record, with quartiles, sample
counts, output hashes and the numeric environment, is written to
.perfbench-work/results/. The program is the checkout's own `src/`; a
directory without it is an error (exit 2, no result).
"""

from __future__ import annotations

import os

# The BLAS thread count changes the last digit of some outputs, so it is
# pinned for the children and for this process alike. One thread gave the
# steadiest run times on a 2-core machine.
PINNED_ENV = {
    name: "1"
    for name in (
        "OPENBLAS_NUM_THREADS",
        "OMP_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}
os.environ.update(PINNED_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import uuid  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from checks import Expectation, output_hashes  # noqa: E402
from panels import PanelSpec, cached_csv, generate  # noqa: E402
from tracing import layer_metrics  # noqa: E402

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"
WORK_DIR = Path(".perfbench-work")
MIN_INVOCATIONS = 3  # timed CLI invocations per run, whatever --seconds says
SETUP_PROBES_PER_INVOCATION = 3
CHILD_TIMEOUT_S = 150.0
RUN_BUDGET_S = 150.0  # no invocation starts once a run is predicted past this


@dataclass(frozen=True)
class Workload:
    command: str
    spec: PanelSpec
    args: tuple[str, ...]

    def window(self):
        if self.command != "evolve":
            return None
        return int(self.args[self.args.index("--window") + 1]), int(self.args[self.args.index("--step") + 1])


WORKLOADS = {
    # 1080 windows of 150 companies: per-window costs (Prim, Pearson, the
    # metrics) dominate; the hub regime puts the classifier under the checks.
    "evolve-rolling": Workload(
        "evolve",
        PanelSpec(150, 1200, hub_index=17, gamma=0.9, regime=(450, 750)),
        ("--window", "120", "--step", "1"),
    ),
    # The default configuration: 450 windows of 400 companies, so per-window
    # N^2 work and ingestion of a 39 MB file share the time.
    "evolve-wide": Workload("evolve", PanelSpec(400, 2500), ("--window", "250", "--step", "5")),
    # 1.2M ticker-major rows with rejects and holed companies; one tree, so
    # ingestion and the corr.csv writer dominate and rolling is bypassed.
    "analyze-ingest": Workload(
        "analyze",
        PanelSpec(800, 1500, row_order="ticker", malformed_share=0.001, holed_share=0.02),
        ("--format", "edges", "--format", "dot", "--format", "csv"),
    ),
}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "cli.self_s": "s",
    "cli.cpu_s": "s",
    "cli.stderr_lines": "count",
    "ingestion.s": "s",
    "ingestion.parse_s": "s",
    "ingestion.align_s": "s",
    "ingestion.returns_s": "s",
    "ingestion.rows": "count",
    "ingestion.rows_rejected": "count",
    "ingestion.companies_dropped": "count",
    "ingestion.mb_per_s": "MB/s",
    "correlation.s": "s",
    "correlation.pearson_s": "s",
    "correlation.pearson_calls": "count",
    "correlation.pearson_ms_p50": "ms",
    "correlation.pearson_ms_p95": "ms",
    "correlation.distance_s": "s",
    "correlation.degenerate_retries": "count",
    "correlation.gflop_computed": "GFLOP",
    "mst.s": "s",
    "mst.prim_s": "s",
    "mst.prim_calls": "count",
    "mst.prim_ms_p50": "ms",
    "mst.prim_ms_p95": "ms",
    "mst.prim_steps": "count",
    "mst.degrees_calls": "count",
    "mst.degrees_s": "s",
    "metrics.s": "s",
    "metrics.fit_s": "s",
    "metrics.mol_s": "s",
    "metrics.fit_underdetermined": "count",
    "rolling.evolve_s": "s",
    "rolling.self_s": "s",
    "rolling.windows": "count",
    "rolling.full_tree_s": "s",
    "rolling.transitions_s": "s",
    "exports.s": "s",
    "exports.bytes_written": "bytes",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.probe_errors": "count",
}


class SetupError(Exception):
    """The checkout cannot be benchmarked: no program, or a broken harness."""


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int
    stderr: str


@dataclass
class Run:
    """Samples and failures collected during one benchmark run."""

    samples: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    hashes: dict[str, str] | None = None

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_child(argv: list[str], root: Path, stderr_path: Path) -> Child:
    """Run one child to completion; resources come from wait4 on it alone."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv,
            cwd=root,
            env=child_env(root),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=err,
        )
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            # Interrupted or terminated: leave no child running behind.
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        exit_code=proc.returncode,
        stderr=stderr_path.read_text(encoding="utf-8", errors="replace"),
    )


def check_program(root: Path) -> str:
    """Import the checkout's package once (untimed) and return its location."""
    if not (root / "src" / "assettree" / "cli.py").is_file():
        raise SetupError("no src/assettree/cli.py under %s" % root)
    probe = subprocess.run(
        [sys.executable, "-c", "import assettree.cli; print(assettree.cli.__file__)"],
        cwd=root,
        env=child_env(root),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    location = Path(probe.stdout.strip() or "?")
    if probe.returncode != 0 or not location.is_relative_to(root / "src"):
        raise SetupError("assettree.cli did not import from %s/src: %s" % (root, probe.stderr[-500:]))
    return str(location.relative_to(root))


def environment(root: Path, program: str) -> dict:
    revision = "unknown (not a git checkout)"
    if (root / ".git").exists():
        try:
            revision = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
            ).stdout.strip() or revision
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "program": program,
        "child_env": PINNED_ENV,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_revision": revision,
    }


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8")) if REFERENCE_PATH.exists() else {}


class Bench:
    """One workload on one seed: inputs, expectations and invocations."""

    def __init__(self, workload: Workload, seed: int, root: Path, reference: dict | None):
        self.workload = workload
        self.root = root
        self.reference = reference
        self.csv_path, self.meta = cached_csv(workload.spec, seed, root / WORK_DIR / "inputs")
        panel = generate(workload.spec, seed)
        self.expect = Expectation(workload.command, workload.spec, panel, self.meta, workload.window())
        self.run_dir = root / WORK_DIR / "runs" / uuid.uuid4().hex[:12]
        self.run_dir.mkdir(parents=True)
        self.count = 0

    def cli_args(self, out_dir: Path) -> list[str]:
        rel_input = self.csv_path.relative_to(self.root)
        return [self.workload.command, str(rel_input), *self.workload.args, "--out", str(out_dir.relative_to(self.root))]

    def invoke(self, run: Run, traced: bool = False) -> Child:
        """One CLI invocation, checked; returns its resources and timing."""
        self.count += 1
        work = self.run_dir / str(self.count)
        out_dir = work / "out"
        out_dir.mkdir(parents=True)
        if traced:
            argv = [sys.executable, str(HERE.relative_to(self.root) / "tracing.py"),
                    str((work / "spans.json").relative_to(self.root)), "--", *self.cli_args(out_dir)]
        else:
            argv = [sys.executable, "-m", "assettree.cli", *self.cli_args(out_dir)]
        child = run_child(argv, self.root, work / "stderr.txt")
        run.attempted += 1
        problems = [] if child.exit_code == 0 else ["exit code %d: %s" % (child.exit_code, child.stderr[-300:])]
        if not problems:
            problems = self.expect.check(out_dir, child.stderr)
            hashes = output_hashes(out_dir)
            expected = self.reference["outputs"] if self.reference else (run.hashes or hashes)
            run.hashes = run.hashes or hashes
            if hashes != expected:
                bad = sorted(k for k in set(hashes) | set(expected) if hashes.get(k) != expected.get(k))
                problems.append("output hashes differ from the %s: %s"
                                % ("reference" if self.reference else "first invocation", ", ".join(bad)))
        if problems:
            run.failures.append("%s invocation %d: %s" % ("traced" if traced else "cli", self.count, "; ".join(problems)))
        if traced and child.exit_code == 0:
            spans = json.loads((work / "spans.json").read_text(encoding="utf-8"))["spans"]
            for key, value in layer_metrics(spans, self.meta["bytes"]).items():
                run.add(key, value)
            run.add("traced_wall_s", child.wall_s)
        shutil.rmtree(work)
        return child

    def setup_probe(self, run: Run) -> None:
        work = self.run_dir / "setup"
        work.mkdir(exist_ok=True)
        child = run_child([sys.executable, "-c", "import assettree.cli"], self.root, work / "stderr.txt")
        run.attempted += 1
        if child.exit_code != 0:
            run.failures.append("setup probe: exit code %d" % child.exit_code)
        run.add("setup_s", child.wall_s)

    def measure(self, seconds: float, trace: bool) -> Run:
        run = Run()
        if self.reference and self.reference["input"] != self.meta["sha256"]:
            run.failures.append("generated input differs from the reference input (generator or numpy changed)")
        started = time.perf_counter()
        steps: list[float] = []
        while True:
            t0 = time.perf_counter()
            if trace:
                # Alternate which side goes first, so drift hits both alike.
                for traced in ((False, True) if len(steps) % 2 == 0 else (True, False)):
                    child = self.invoke(run, traced)
                    if not traced:
                        run.add("wall_s", child.wall_s)
                        run.add("cli.cpu_s", child.cpu_s)
                        run.add("cli.stderr_lines", len(child.stderr.splitlines()))
            else:
                child = self.invoke(run)
                run.add("wall_s", child.wall_s)
                run.add("peak_rss_mb", child.rss_mb)
                for _ in range(SETUP_PROBES_PER_INVOCATION):
                    self.setup_probe(run)
            steps.append(time.perf_counter() - t0)
            predicted_end = time.perf_counter() - started + statistics.median(steps)
            if predicted_end > RUN_BUDGET_S:
                break
            if len(steps) >= (1 if trace else MIN_INVOCATIONS) and predicted_end > seconds:
                break
        shutil.rmtree(self.run_dir)
        return run


def summary(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def report(name: str, seed: int, seconds: int, trace: bool, bench: Bench, run: Run, env: dict, root: Path) -> dict:
    if trace:
        run.samples["trace.overhead_s"] = [
            statistics.median(run.samples["traced_wall_s"]) - statistics.median(run.samples["wall_s"])
        ] if "traced_wall_s" in run.samples else []
        units = PER_LAYER_UNITS
    else:
        units = END_TO_END_UNITS
    summaries = {key: summary(run.samples[key]) for key in units if run.samples.get(key)}
    failed = len(run.failures)
    correct = failed == 0 and len(summaries) == len(units)
    print("perfbench %s seed=%d trace=%d seconds=%d input=%s (%d bytes)"
          % (name, seed, trace, seconds, bench.csv_path.name, bench.meta["bytes"]))
    print("environment %s" % json.dumps(env, sort_keys=True))
    print("%-32s %12s %12s %12s %4s  %s" % ("metric", "median", "q1", "q3", "n", "unit"))
    for key, unit in units.items():
        s = summaries.get(key)
        if s:
            print("%-32s %12.6g %12.6g %12.6g %4d  %s" % (key, s["median"], s["q1"], s["q3"], s["n"], unit))
        else:
            print("%-32s %12s %12s %12s %4d  %s" % (key, "missing", "", "", 0, unit))
    print("%-32s %12.6g %12s %12s %4d  %s" % ("failed_share", failed / max(run.attempted, 1), "", "", run.attempted, "share"))
    for failure in run.failures:
        print("FAILED %s" % failure)
    record = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "environment": env,
        "input": {"path": str(bench.csv_path.relative_to(root)), "sha256": bench.meta["sha256"]},
        "output_sha256": run.hashes,
        "metrics": {key: dict(summaries[key], unit=units[key]) for key in summaries},
        "failed_share": failed / max(run.attempted, 1),
        "failures": run.failures,
        "samples": run.samples,
    }
    results = root / WORK_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / ("BENCH_%s_seed%d_trace%d.json" % (name, seed, trace))).write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8"
    )
    return {
        "correct": correct,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {key: {"value": s["median"], "unit": units[key]} for key, s in summaries.items()},
    }


def record_reference(name: str, seed: int, root: Path) -> None:
    """Store the input and output hashes of one checked invocation."""
    bench = Bench(WORKLOADS[name], seed, root, None)
    run = Run()
    bench.invoke(run)
    shutil.rmtree(bench.run_dir)
    if run.failures:
        raise SetupError("not recording a failing run: %s" % run.failures)
    reference = load_reference()
    reference.setdefault(name, {})[str(seed)] = {"input": bench.meta["sha256"], "outputs": run.hashes}
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print("recorded %s seed %d: %s" % (name, seed, run.hashes))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="store output hashes for this seed instead of measuring")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # One CPU for this process and every child: no migrations mid-run, and
    # the other CPUs stay free for the rest of the machine. Over ten seeds
    # this narrowed the spread of wall_s on a 2-core VM.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    root = Path.cwd().resolve()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        program = check_program(root)
        if args.record_reference:
            for name in names:
                record_reference(name, args.seed, root)
            return 0
        env = environment(root, program)
        reference = load_reference()
        for name in names:
            bench = Bench(WORKLOADS[name], args.seed, root, reference.get(name, {}).get(str(args.seed)))
            run = bench.measure(args.seconds, bool(args.trace))
            result = report(name, args.seed, args.seconds, bool(args.trace), bench, run, env, root)
            print(json.dumps(result), flush=True)
    except SetupError as err:
        print("perfbench: %s" % err, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
