"""One benchmark run of one workload, in its own fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --out DIR
        [--setup-only] [--seconds S] [--trace 0|1]

Started by ``run.py`` from the root of a modwave checkout, with
``PYTHONPATH`` pointing at its ``src``. ``--setup-only`` imports modwave,
builds the workload's inputs, prints the seconds that took and exits.
Otherwise the run does one untimed pass whose outputs are checked and
hashed (it also warms caches), then timed passes until ``--seconds`` of
pass time and at least ``MIN_ROWS`` rows, or until the wall-time cap.
Each timed pass is checked too, outside its timing. With ``--trace 1``
the timed passes alternate untraced and traced over the same inputs; the
traced ones give the per-layer figures and the difference gives the
tracing overhead. The result goes to ``DIR/result.json``, spans to
``DIR/spans.json``.
"""

import argparse
import json
import math
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

STARTED = time.perf_counter()

import modwave  # noqa: E402  (set-up time starts before the import)
from tracer import Patches, RowClock, Tracer  # noqa: E402
from workloads import WORKLOADS, trace_layers  # noqa: E402

MIN_ROWS = 100  # p90 then has ten rows beyond it
MAX_WALL_S = 120  # stop timing here even if rows are short; a run must end in 180 s


def percentile(values, q):
    """Nearest-rank percentile; infinite entries (failed rows) rank last."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Run:
    def __init__(self, workload, seconds):
        self.workload = workload
        self.patches = Patches()
        self.problems = []
        self.digests = {}
        self.passes = 0
        self.seconds = seconds
        self.deadline = None

    def done(self, timed_s, rows):
        """Enough pass time and rows, or out of wall time."""
        now = time.perf_counter()
        if self.deadline is None:
            self.deadline = now + min(3 * self.seconds, MAX_WALL_S)
        return now >= self.deadline or (timed_s >= self.seconds and rows >= MIN_ROWS)

    def one_pass(self, clock, unit, tracer=None):
        """Run a pass, check and hash its outputs; returns its seconds."""
        workload = self.workload
        before = len(clock.latencies)
        output, expected = None, 1  # a pass that raises counts as at least one failed row
        if tracer is not None:
            trace_layers(tracer, self.patches)
        workload.hook_rows(self.patches, clock)
        start = time.perf_counter()
        try:
            output, expected = workload.run_pass(unit)
        except Exception:
            self.problems.append(f"pass {self.passes} raised:\n{traceback.format_exc()}")
        finally:
            seconds = time.perf_counter() - start
            self.patches.restore()
        clock.add_missing(max(0, expected - (len(clock.latencies) - before)))
        first = unit not in self.digests
        if output is not None:
            self.problems += workload.check(output, first)
            digest = workload.digest(output)
            if self.digests.setdefault(unit, digest) != digest:
                self.problems.append(f"pass {self.passes}: outputs of unit {unit} changed between passes")
        self.passes += 1
        return seconds


def untraced(run):
    run.one_pass(RowClock(), 0)
    clock = RowClock()
    timed = []
    while not run.done(sum(timed), len(clock.latencies)):
        timed.append(run.one_pass(clock, len(timed) % run.workload.units))
    total = sum(timed)
    attempted = len(clock.latencies)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    metrics = {
        "rows_per_s": (attempted - clock.failed) / total,
        "row_ms_p50": percentile(clock.latencies, 0.5) * 1e3,
        "row_ms_p90": percentile(clock.latencies, 0.9) * 1e3,
        "peak_rss_mb": usage.ru_maxrss / 1024,
    }
    detail = {
        "timed_passes": len(timed),
        "timed_s": total,
        "latency_samples": attempted,
        "error_rate": clock.failed / attempted,
    }
    return metrics, attempted, clock.failed, detail


def traced(run, spec_names, spans_path):
    run.one_pass(RowClock(), 0)
    plain, clock = RowClock(), RowClock()
    tracer = Tracer(clock)
    untraced_s, traced_s = [], []
    while not run.done(sum(untraced_s) + sum(traced_s), len(clock.latencies)):
        unit = len(traced_s) % run.workload.units
        untraced_s.append(run.one_pass(plain, unit))
        traced_s.append(run.one_pass(clock, unit, tracer))
    rows = len(clock.latencies)
    layers = tracer.layers()
    layer_self_s = sum(entry["self_s"] for entry in layers.values())
    derived = {
        "trace.overhead_s": (sum(traced_s) - sum(untraced_s)) / len(traced_s),
        "trace.layer_share": layer_self_s / sum(traced_s),
    }
    metrics = {
        name: derived[name] if name in derived else layer_metric(name, layers, rows)
        for name in spec_names
    }
    if layer_self_s > sum(traced_s):
        run.problems.append(f"layer self times {layer_self_s:.3f} s exceed traced wall time {sum(traced_s):.3f} s")
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump(tracer.columns(), handle)
    detail = {
        "traced_passes": len(traced_s),
        "traced_pass_s": traced_s,
        "untraced_pass_s": untraced_s,
        "traced_rows": rows,
        "layers": layers,
        "computed_counts": {
            name: value for name, value in metrics.items()
            if name.endswith(("calls_per_row", "samples_per_call", ".bytes"))
        },
    }
    return metrics, rows, clock.failed, detail


def layer_metric(name, layers, rows):
    """One per-layer figure; a layer the workload never calls reads 0.

    ``self_s`` and ``bytes`` of the artifact writers are per row, ``bytes``
    of the candidate bank is per call.
    """
    layer, _, stat = name.rpartition(".")
    entry = layers.get(layer, {})
    calls = entry.get("calls", 0)
    self_s = entry.get("self_s", 0.0)
    if stat == "self_s":
        return self_s / rows
    if stat == "calls_per_row":
        return calls / rows
    if stat == "msamples_per_s":
        return entry.get("samples", 0) / self_s / 1e6 if self_s else 0.0
    if stat == "samples_per_call":
        return entry.get("samples", 0) / calls if calls else 0.0
    if stat == "valid_ratio":
        return entry.get("valid", 0) / calls if calls else 0.0
    if stat == "bytes":
        per = calls if layer == "synth.candidate_bank" else rows
        return entry.get("bytes", 0) / per if per else 0.0
    raise KeyError(f"no rule for per-layer metric {name!r}")


def provenance(workload, seed, spec):
    import numpy
    import scipy

    why = {w["name"]: w["why"] for w in spec["workloads"]}
    return {
        "workload": workload.name,
        "why": why[workload.name],
        "seed": seed,
        "inputs": workload.sizes(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "load_model": "closed loop, one caller, synchronous: self time equals busy time",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "modwave": modwave.__version__,
        "modwave_path": modwave.__file__,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    src = Path("src").resolve()
    if Path(modwave.__file__).resolve().parent.parent != src:
        raise SystemExit(f"modwave imported from {modwave.__file__}, not from {src}")
    out = Path(args.out)
    workload = WORKLOADS[args.workload](args.seed, out)
    setup_s = time.perf_counter() - STARTED
    if args.setup_only:
        print(setup_s)
        return 0

    spec = json.loads(Path("BENCHMARK.json").read_text())
    run = Run(workload, args.seconds)
    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        metrics, attempted, failed, detail = traced(run, names, out / "spans.json")
    else:
        metrics, attempted, failed, detail = untraced(run)
    if failed:
        run.problems.append(f"{failed} of {attempted} rows failed")
    result = {
        "correct": not run.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "detail": dict(detail, setup_s=setup_s, passes=run.passes,
                       output_sha256=run.digests.get(0)),
        "problems": run.problems,
        "provenance": provenance(workload, args.seed, spec),
    }
    (out / "result.json").write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
