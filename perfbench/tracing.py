"""Traced in-process run of the assettree CLI, and the per-layer numbers.

Run as a child process:

    python perfbench/tracing.py SPANS.json -- evolve prices.csv --out DIR

It imports `assettree.cli`, wraps every public function of the layer
modules (and `Tree.degrees` on its class) in every `assettree` module
namespace that holds it, calls `cli.main` with the given arguments, and
writes the spans it kept in memory to SPANS.json when the run ends. The
root span covers the import as well, because every invocation pays it.

`layer_metrics` turns those spans into the per-layer metrics. A span's
self time is its duration minus the durations of its child spans; spans
of one thread nest, so children never overlap. Time spent in code that
is not wrapped, including a function a later change stops calling, stays
in the self time of the nearest wrapped caller.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import functools  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import uuid  # noqa: E402

LAYERS = ("cli", "ingestion", "correlation", "mst", "metrics", "rolling", "exports")
# Called once per number written; a span each would cost more than the work.
UNWRAPPED = {"exports.fmt_float"}
# Spans of these layers directly under cmd_evolve build the full-period tree.
FULL_TREE_LAYERS = ("correlation", "mst", "metrics")


def _returns_shape(args, kwargs, result):
    rows, cols = args[0].returns.shape
    return {"n": int(rows), "w": int(cols)}


def _tree_size(args, kwargs, result):
    return {"n": len(args[0].tickers)}


def _parsed_rows(args, kwargs, result):
    accepted = sum(len(s.observations) for s in result.series)
    return {"rows": accepted + len(result.rejected), "rejected": len(result.rejected)}


def _dropped(args, kwargs, result):
    return {"dropped": len(result.dropped)}


def _windows(args, kwargs, result):
    return {"windows": len(result)}


def _bytes_written(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


# Counts read from arguments and results at the layer boundary.
PROBES = {
    "ingestion.parse_price_table": _parsed_rows,
    "ingestion.align_and_filter": _dropped,
    "correlation.pearson_matrix": _returns_shape,
    "mst.prim_mst": _tree_size,
    "rolling.evolve": _windows,
    "exports.write_tree_edges": _bytes_written,
    "exports.write_dot": _bytes_written,
    "exports.write_metric_series_csv": _bytes_written,
    "exports.write_transition_report": _bytes_written,
    "exports.write_correlation_matrix": _bytes_written,
}


class Recorder:
    """Spans of one run, kept in memory as [name, start, end, parent, info]."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.stack: list[int] = []

    def open(self, name: str, start: float) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, start, None, parent, {}])
        self.stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn):
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name, time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                self.spans[index][4]["error"] = type(err).__name__
                raise
            finally:
                self.close(index)
            if probe is not None:
                try:
                    self.spans[index][4].update(probe(args, kwargs, result))
                except (AttributeError, IndexError, TypeError, ValueError, OSError) as err:
                    # A changed signature loses the count, not the run.
                    self.spans[index][4]["probe_error"] = repr(err)
            return result

        return traced

    def dump(self, path: str, exit_code: int) -> None:
        spans = [
            {"name": n, "start": s, "end": e, "parent": p, "run": self.run_id, **info}
            for n, s, e, p, info in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run": self.run_id, "exit_code": exit_code, "spans": spans}, fh)


def install(recorder: Recorder) -> None:
    """Wrap each layer's public functions wherever a module holds them."""
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "assettree"]
    replace = {}
    for layer in LAYERS:
        module = sys.modules["assettree." + layer]
        for attr, obj in vars(module).items():
            name = "%s.%s" % (layer, attr)
            if (
                attr.startswith("_")
                or name in UNWRAPPED
                or not inspect.isfunction(obj)
                or obj.__module__ != module.__name__
            ):
                continue
            replace[id(obj)] = recorder.wrap(name, obj)
    for module in modules:
        for attr, obj in list(vars(module).items()):
            if id(obj) in replace:
                setattr(module, attr, replace[id(obj)])
    tree = sys.modules["assettree.mst"].Tree
    tree.degrees = recorder.wrap("mst.Tree.degrees", tree.degrees)


def main(argv: list[str]) -> int:
    spans_path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracing.py SPANS.json -- CLI-ARGS...")
    recorder = Recorder(uuid.uuid4().hex[:12])
    root = recorder.open("cli.process", _T0)
    exit_code = 1
    try:
        import assettree.cli

        install(recorder)
        exit_code = assettree.cli.main(cli_args)
    finally:
        recorder.close(root)
        recorder.dump(spans_path, exit_code)
    return exit_code


# ---------------------------------------------------------------------------
# Parent side: spans to per-layer metrics.


def _percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(spans: list[dict], input_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced run, before the process-level ones."""
    for span in spans:
        span["dur"] = span["end"] - span["start"]
        span["self"] = span["dur"]
    for span in spans:
        if span["parent"] is not None:
            spans[span["parent"]]["self"] -= span["dur"]

    def bucket(span: dict) -> str:
        layer = span["name"].split(".")[0]
        if layer not in FULL_TREE_LAYERS:
            return layer
        up = span
        while up["parent"] is not None and up["name"].split(".")[0] in FULL_TREE_LAYERS:
            up = spans[up["parent"]]
        return "full_tree" if up["name"] == "cli.cmd_evolve" else layer

    for span in spans:
        span["bucket"] = bucket(span)

    def calls(name: str) -> list[dict]:
        return [s for s in spans if s["name"] == name]

    def self_s(bucket_name: str, name: str | None = None) -> float:
        return sum(
            s["self"]
            for s in spans
            if s["bucket"] == bucket_name and (name is None or s["name"] == name)
        )

    def ms(name: str, q: int) -> float:
        durations = [1e3 * s["dur"] for s in calls(name)]
        return _percentile(durations, q) if durations else 0.0

    def total(name: str, key: str) -> int:
        return sum(s.get(key, 0) for s in calls(name))

    def errors(name: str, error: str) -> int:
        return sum(1 for s in calls(name) if s.get("error") == error)

    pearson = "correlation.pearson_matrix"
    prim = "mst.prim_mst"
    degrees = "mst.Tree.degrees"
    ingestion_s = self_s("ingestion")
    return {
        "cli.self_s": self_s("cli"),
        "ingestion.s": ingestion_s,
        "ingestion.parse_s": self_s("ingestion", "ingestion.parse_price_table"),
        "ingestion.align_s": self_s("ingestion", "ingestion.align_and_filter"),
        "ingestion.returns_s": self_s("ingestion", "ingestion.log_returns"),
        "ingestion.rows": total("ingestion.parse_price_table", "rows"),
        "ingestion.rows_rejected": total("ingestion.parse_price_table", "rejected"),
        "ingestion.companies_dropped": total("ingestion.align_and_filter", "dropped"),
        "ingestion.mb_per_s": input_bytes / 1e6 / ingestion_s if ingestion_s > 0 else 0.0,
        "correlation.s": self_s("correlation"),
        "correlation.pearson_s": self_s("correlation", pearson),
        "correlation.pearson_calls": len(calls(pearson)),
        "correlation.pearson_ms_p50": ms(pearson, 50),
        "correlation.pearson_ms_p95": ms(pearson, 95),
        "correlation.distance_s": self_s("correlation", "correlation.to_distance"),
        "correlation.degenerate_retries": errors(pearson, "DegenerateSeriesError"),
        "correlation.gflop_computed": sum(
            2.0 * s.get("n", 0) ** 2 * s.get("w", 0) for s in calls(pearson)
        ) / 1e9,
        "mst.s": self_s("mst"),
        "mst.prim_s": self_s("mst", prim),
        "mst.prim_calls": len(calls(prim)),
        "mst.prim_ms_p50": ms(prim, 50),
        "mst.prim_ms_p95": ms(prim, 95),
        "mst.prim_steps": sum(max(s.get("n", 1) - 1, 0) for s in calls(prim)),
        "mst.degrees_calls": len(calls(degrees)),
        "mst.degrees_s": self_s("mst", degrees),
        "metrics.s": self_s("metrics"),
        "metrics.fit_s": self_s("metrics", "metrics.fit_power_law"),
        "metrics.mol_s": self_s("metrics", "metrics.mean_occupation_layer"),
        "metrics.fit_underdetermined": errors("metrics.fit_power_law", "UnderdeterminedFitError"),
        "rolling.evolve_s": sum(s["dur"] for s in calls("rolling.evolve")),
        "rolling.self_s": self_s("rolling"),
        "rolling.windows": total("rolling.evolve", "windows"),
        "rolling.full_tree_s": self_s("full_tree"),
        "rolling.transitions_s": sum(s["dur"] for s in calls("rolling.detect_transitions")),
        "exports.s": self_s("exports"),
        "exports.bytes_written": sum(
            s.get("bytes", 0) for s in spans if s["name"].startswith("exports.")
        ),
        "trace.wall_s": sum(s["dur"] for s in spans if s["parent"] is None),
        "trace.probe_errors": sum(1 for s in spans if "probe_error" in s),
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
