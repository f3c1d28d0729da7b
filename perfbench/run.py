"""modwave benchmark: one command, three user workloads, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a modwave checkout; it measures the modwave in
``./src`` and refuses to run without one. Workloads, metric names, units
and bounds are in ``BENCHMARK.json``:

* ``reference_table``: ``compare`` over the twelve digital reference
  schemes at 10k symbols and the 2 dB table operating point.
* ``formula_pipeline``: ``generate -n 10 --evaluate``: ten formulas
  sampled from the bundled grammar at T = 0.8 and validated, then
  ``pipeline_run`` over the valid ones on a qam16 base at 2k symbols (the
  16-row candidate bank is 12 MB, three times the 4 MiB L2). Each pass
  draws a new batch.
* ``scheme_artifacts``: ``modwave eval`` in-process for ook, qpsk, qam16,
  gmsk and formula m2 on the multipath preset at 2k symbols, writing the
  report JSON and the PSD, spectrogram and constellation CSVs.

Load model: a closed loop with one caller; each row starts after the
previous one ends. Everything runs synchronously in one process, so no
layer waits on another and a layer's self time is its busy time. Each run
is a fresh worker process (``worker.py``) with BLAS and OpenMP pools capped
at the number of CPUs and a fixed ``PYTHONHASHSEED``, so string hashing,
and with it set and dict layout, is the same in every run. The seed
derives the master seed, the grammar seeds and the bit seeds; modwave only
sees the generated configs and formulas.

``--trace 0`` prints the end-to-end metrics. ``setup_s`` is the median of
three set-ups, each in a fresh process: two that only import modwave and
build the workload's inputs, and the measured run's own. Each is timed
from just before modwave is imported to the inputs being ready. The rest
come from timed passes after one untimed pass that is checked for
correctness: ``rows_per_s`` over the timed passes, ``row_ms_p50`` and
``row_ms_p90`` pooled over their rows (at least 100, a failed row counting
as infinitely slow), and ``peak_rss_mb``, the worker's ``ru_maxrss``. The
error rate is ``failed / attempted`` in the result line; it is 0 on a
correct run, so it is printed in the summary rather than bounded as a
metric.

``--trace 1`` prints the per-layer metrics from a separate run whose
passes alternate untraced and traced over the same inputs (see
``tracer.py``). ``*.self_s`` is self seconds per row; counts such as
``*.calls_per_row``, ``*.samples_per_call`` and the ``*.bytes`` figures
are computed counts that repeat exactly for a given program and seed.

Every run writes ``.bench_out/<workload>-seed<N>-trace<T>/`` with
``result.json`` (metrics, provenance, output sha256, problems) and, when
traced, ``spans.json``. The last line of standard output is the result as
one JSON object.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 2  # plus the measured run itself: three set-ups per run
PROBE_TIMEOUT_S = 30
RUN_TIMEOUT_S = 170
THREAD_CAP_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def child_env(src):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    cpus = str(len(os.sched_getaffinity(0)))
    for name in THREAD_CAP_VARS:
        env[name] = cpus
    env["PYTHONHASHSEED"] = "0"
    return env


def finite_or_none(value):
    return value if isinstance(value, (int, float)) and math.isfinite(value) else None


def main(argv=None):
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "modwave" / "__init__.py").is_file():
        print(f"error: no modwave source under {src}; run from the root of a modwave checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    out = root / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    env = child_env(src)
    worker = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
              "--seed", str(args.seed), "--out", str(out)]

    setup_s = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            probe = subprocess.run(worker + ["--setup-only"], env=env, check=True,
                                   timeout=PROBE_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
            setup_s.append(float(probe.stdout.split()[-1]))
    remaining = RUN_TIMEOUT_S - (time.perf_counter() - started)
    subprocess.run(worker + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                   env=env, check=True, timeout=remaining)

    result = json.loads((out / "result.json").read_text())
    values = dict(result["metrics"])
    if setup_s:
        setup_s.append(result["detail"]["setup_s"])
        values["setup_s"] = statistics.median(setup_s)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: the run did not measure {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": finite_or_none(values[m["name"]]), "unit": m["unit"]} for m in wanted}

    result["provenance"]["thread_caps"] = {name: env[name] for name in THREAD_CAP_VARS}
    result["provenance"]["pythonhashseed"] = env["PYTHONHASHSEED"]
    result["detail"]["setup_samples_s"] = setup_s
    (out / "result.json").write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")

    prov, detail = result["provenance"], result["detail"]
    print(f"workload {args.workload}: {prov['why']}")
    print(f"seed {args.seed}, inputs {json.dumps(prov['inputs'], sort_keys=True)}")
    print(f"python {prov['python']}, numpy {prov['numpy']}, scipy {prov['scipy']}, "
          f"nproc {prov['nproc']}, thread caps {prov['thread_caps']}")
    for name, metric in metrics.items():
        print(f"  {name:<44} {metric['value']!s:>14} {metric['unit']}")
    print(f"  {'error_rate':<44} {result['failed'] / result['attempted']:>14} ratio"
          f"  ({result['failed']} of {result['attempted']} rows)")
    print(f"output sha256 {detail['output_sha256']}")
    for problem in result["problems"]:
        print(f"problem: {problem}")
    print(f"details in {out / 'result.json'}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
