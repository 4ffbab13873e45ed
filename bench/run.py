#!/usr/bin/env python3
"""puriscope benchmark: end-to-end metrics per workload, or a per-layer trace.

    python3 bench/run.py --workload small-payload --seed 1 --seconds 48 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 48    # every workload in turn

Run from anywhere inside a source checkout; the package is imported from
the checkout's ``src/``.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the lines before
it are the human-readable report and the provenance block.  ``--save
FILE`` appends the full record (provenance, per-kind cells, layers) to a
JSON-lines file that ``bench/compare.py`` reads.  The report also prints
``op_p50_ms`` and ``op_tail_ms``, the median over all ops and the highest
percentile with at least ten ops beyond it.  They are not in the result
line: on a 2-CPU shared VM their spread over ten runs reached 0.44 and
0.38 of the median, past the largest bound a metric may have (see
README.md).

With ``--trace 0`` the metrics are the end-to-end ones:

* ``setup_s``: spawn of a fresh interpreter to the end of its warm-up
  pass (``import puriscope`` plus one untimed op of every kind); median
  of three set-ups, two in probe processes and one in the measured
  worker.
* ``ops_per_s``: completed ops over the busy wall time of the timed phase
  (oracle checks excluded).  The phase runs whole cycles of the
  workload's op kinds, in a fixed order, until ``--seconds`` of busy time
  have passed.
* ``kind_mean_ms``: geometric mean, over the workload's op kinds, of each
  kind's mean latency.  Every kind weighs the same, where ``ops_per_s``
  is mostly the costly kinds.
* ``peak_rss_mb``: peak resident memory of the worker or of the largest
  CLI process tree, whichever is higher.

With ``--trace 1`` a fixed number of cycles (set by ``--seconds``) runs
twice on the same inputs, untraced and traced, interleaved cycle by
cycle, and the metrics are per-layer counts and self times, the tracing
overhead, and the CLI's process accounting.  The two passes must produce
bit-identical values.

The exit code is 0 when every op passed its checks, 1 when a check
failed, and 2 when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_tmp"
WORKLOADS = ("small-payload", "large-payload")
SETUP_SAMPLES = 3
DEADLINE_S = 170.0
READY = b"READY\n"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CLI_STATS = ("invocations", "nonzero_exits", "child_cpu_s", "cpu_util", "result_bytes")
STAGE_TOTALS = (
    "measurement.tomography",
    "measurement.bootstrap_stderr",
    "measurement.measure_observable_with_stderr",
    "measurement.measure_in_basis",
)

# Leaf layers whose self time the traced report splits by calling layer.
BY_CALLER = ("core.eigh", "core.Observable.validate", "core.DensityMatrix.validate")

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "kind_mean_ms": "ms",
    "peak_rss_mb": "MB",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"), help="a workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", help="append the full JSON record to this file")
    parser.add_argument("--spans", help="traced runs: write every span to this JSON-lines file")
    parser.add_argument("--role", choices=("probe", "worker"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


# -- worker: runs inside a fresh interpreter with src/ on the path ---------

def _new_run(workload) -> dict:
    from workloads import CliStats

    return {
        "latencies": [], "values": [], "attempted": 0, "failed": 0, "problems": [], "busy_s": 0.0, "cycles": 0,
        "cells": {k.name: {"errors": [], "successes": [], "latencies": [], "gate": k.gate} for k in workload.kinds},
        "cli": CliStats(),
    }


def _run_ops(workload, seed, phase, run=None, *, seconds=None, cycles=None, tracer=None):
    """Run whole cycles of the workload's op kinds and check every result.

    Stops after ``cycles`` cycles, or at the first cycle boundary after
    ``seconds`` of busy time.  Busy time is wall time minus the time
    spent in the benchmark's own oracle checks.  Passing the ``run`` of
    an earlier call continues it: op ``i`` of a run always gets the key
    ``(phase, i)``, so two runs over the same cycles see the same inputs.
    """
    run = run if run is not None else _new_run(workload)
    checking = 0.0
    start = time.perf_counter()
    done = 0
    while True:
        for kind in workload.kinds:
            index = run["attempted"]
            call, check = kind.make(seed, (phase, index))
            span = None
            if tracer is not None:
                tracer.op_id = index
                span = tracer.open(f"op:{kind.name}")
            began = time.perf_counter()
            try:
                result, error = call(), None
            except Exception as exc:  # a raising op is a failed op, not a skip
                result, error = None, f"{type(exc).__name__}: {exc}"
            latency = time.perf_counter() - began
            if span is not None:
                tracer.close(span)
            checked = time.perf_counter()
            outcome = check(result) if error is None else None
            del result
            checking += time.perf_counter() - checked
            problems = outcome.problems if outcome is not None else [error]
            run["attempted"] += 1
            run["latencies"].append(latency)
            cell = run["cells"][kind.name]
            cell["latencies"].append(latency)
            if problems:
                run["failed"] += 1
                run["problems"].extend(f"{kind.name} op {index}: {p}" for p in problems)
            run["values"].append(outcome.values if outcome is not None else None)
            if outcome is not None:
                if outcome.abs_error is not None:
                    cell["errors"].append(outcome.abs_error)
                if "success" in outcome.info:
                    cell["successes"].append(outcome.info["success"])
                if "cli" in outcome.info:
                    run["cli"].add(outcome.info["cli"])
        done += 1
        busy = time.perf_counter() - start - checking
        if (cycles is not None and done >= cycles) or (seconds is not None and busy >= seconds):
            break
    run["busy_s"] += busy
    run["cycles"] += done
    return run


def _cell_report(cells):
    """Per-kind summary, and the failures of the per-cell acceptance gates."""
    report, problems = {}, []
    for name, cell in cells.items():
        row = {"ops": len(cell["latencies"]), "p50_ms": 1e3 * statistics.median(cell["latencies"])}
        if cell["errors"]:
            row["mean_abs_error"] = statistics.fmean(cell["errors"])
            if cell["gate"] is not None:
                row["gate"] = cell["gate"]
                if not row["mean_abs_error"] <= cell["gate"]:
                    problems.append(f"{name}: mean |error| {row['mean_abs_error']:.4f} above the gate {cell['gate']}")
        if cell["successes"]:
            row["success_rate"] = statistics.fmean(cell["successes"])
        report[name] = row
    return report, problems


def _geomean(values):
    return math.exp(statistics.fmean(math.log(v) for v in values))


def _tail(latencies):
    """(value, percentile): the highest percentile with at least ten ops beyond it."""
    ordered = sorted(latencies)
    k = max(len(ordered) - 11, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def _cli_metrics(cli, nproc):
    return {
        "invocations": cli.invocations,
        "nonzero_exits": cli.nonzero_exits,
        "child_cpu_s": cli.child_cpu_s,
        "cpu_util": cli.child_cpu_s / (cli.wall_s * nproc) if cli.wall_s else 0.0,
        "result_bytes": cli.result_bytes,
    }


def _provenance(args):
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        try:
            head = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            )
            commit = head.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
    }


def _worker(args) -> int:
    import resource

    import workloads

    SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH))
    try:
        workload = workloads.build(args.workload, workdir)
        warm = _run_ops(workload, args.seed, 1, cycles=1)
        sys.stdout.buffer.write(READY)
        sys.stdout.flush()
        if args.role == "probe":
            return 0
        record = {"provenance": _provenance(args)}
        if args.trace:
            record.update(_traced(workload, args))
        else:
            record.update(_timed(workload, args))
        record["attempted"] += warm["attempted"]
        record["failed"] += warm["failed"]
        record["problems"] = warm["problems"] + record["problems"]
        cli_maxrss_kb = max(warm["cli"].maxrss_kb, record.pop("cli_maxrss_kb"))
        record["peak_rss_mb"] = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, cli_maxrss_kb) / 1024
        print(json.dumps(record))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass


def _timed(workload, args) -> dict:
    run = _run_ops(workload, args.seed, 0, seconds=args.seconds)
    cells, gate_problems = _cell_report(run["cells"])
    tail, percentile = _tail(run["latencies"])
    return {
        "attempted": run["attempted"],
        "failed": run["failed"],
        "problems": run["problems"] + gate_problems,
        "gates_ok": not gate_problems,
        "ops": len(run["latencies"]),
        "cycles": run["cycles"],
        "busy_s": run["busy_s"],
        "ops_per_s": len(run["latencies"]) / run["busy_s"],
        "kind_mean_ms": 1e3 * _geomean(statistics.fmean(cell["latencies"]) for cell in run["cells"].values()),
        "op_p50_ms": 1e3 * statistics.median(run["latencies"]),
        "op_tail_ms": 1e3 * tail,
        "tail_percentile": percentile,
        "cells": cells,
        "cli": _cli_metrics(run["cli"], os.cpu_count() or 1),
        "cli_maxrss_kb": run["cli"].maxrss_kb,
    }


def _traced(workload, args) -> dict:
    """Untraced and traced passes over the same cycles, interleaved cycle by cycle.

    Interleaving exposes both passes to the same machine state, so the
    overhead is not swamped by slow drifts in CPU speed.
    """
    from tracing import Tracer

    cycles = max(1, math.ceil(args.seconds / (2 * workload.cycle_s)))
    plain, traced, tracer = _new_run(workload), _new_run(workload), Tracer()
    for _ in range(cycles):
        _run_ops(workload, args.seed, 0, plain, cycles=1)
        with tracer:
            _run_ops(workload, args.seed, 0, traced, cycles=1, tracer=tracer)
    tracer.write_spans(args.spans)
    problems = plain["problems"] + traced["problems"]
    identical = plain["values"] == traced["values"]
    if not identical:
        problems.append("traced and untraced passes returned different values for the same inputs")
    cells, gate_problems = _cell_report(traced["cells"])
    return {
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "problems": problems + gate_problems,
        "gates_ok": not gate_problems and identical,
        "cycles": cycles,
        "busy_s": traced["busy_s"],
        "untraced_busy_s": plain["busy_s"],
        "overhead": traced["busy_s"] / plain["busy_s"] - 1.0,
        "layers": tracer.layer_totals(),
        "by_caller": {label: tracer.self_ms_by_caller(label) for label in BY_CALLER},
        "cells": cells,
        "cli": _cli_metrics(traced["cli"], os.cpu_count() or 1),
        "cli_maxrss_kb": traced["cli"].maxrss_kb,
        "spans": len(tracer.names),
    }


# -- orchestrator: spawns the probes and the worker, reports ----------------

class BenchError(RuntimeError):
    pass


def _spawn(args, role, env, deadline):
    """Run one child; return (seconds from spawn to READY, its stdout)."""
    cmd = [
        sys.executable, str(HERE / "run.py"), "--role", role, "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", repr(args.seconds), "--trace", str(args.trace),
    ]
    if args.spans:
        cmd += ["--spans", args.spans]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, start_new_session=True)
    ready_at, data = None, b""
    try:
        fd = proc.stdout.fileno()
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise BenchError(f"{role} did not finish before the {DEADLINE_S:.0f} s deadline")
            if not select.select([fd], [], [], remaining)[0]:
                continue
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                break
            data += chunk
            if ready_at is None and data.startswith(READY):
                ready_at = time.perf_counter() - start
        code = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
    finally:
        proc.stdout.close()
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if code != 0 or ready_at is None:
        raise BenchError(f"{role} exited with code {code}")
    return ready_at, data[len(READY):].decode()


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _report_timed(record, setups):
    setup = statistics.median(setups)
    print(f"setup_s      {setup:10.4f} s    median of {', '.join(f'{s:.3f}' for s in setups)}")
    print(f"ops_per_s    {record['ops_per_s']:10.4f} 1/s  {record['ops']} ops in {record['cycles']} cycles, {record['busy_s']:.2f} s busy")
    print(f"kind_mean_ms {record['kind_mean_ms']:10.3f} ms   geometric mean of {len(record['cells'])} per-kind means")
    print(f"peak_rss_mb  {record['peak_rss_mb']:10.2f} MB")
    print("not gated, and not in the result line: the plain median and tail over all ops")
    print(f"op_p50_ms    {record['op_p50_ms']:10.3f} ms")
    print(
        f"op_tail_ms   {record['op_tail_ms']:10.3f} ms   p{record['tail_percentile']:.1f} of {record['ops']} ops,"
        f" {min(10, record['ops'] - 1)} beyond it"
    )
    metrics = {
        "setup_s": setup,
        "ops_per_s": record["ops_per_s"],
        "kind_mean_ms": record["kind_mean_ms"],
        "peak_rss_mb": record["peak_rss_mb"],
    }
    return {name: _metric(value, END_TO_END_UNITS[name]) for name, value in metrics.items()}


def _layer_metrics(record):
    from tracing import LABELS

    from_stats = {"calls": "count", "self_ms": "ms", "d3_sum": "d3", "shots": "count", "dim_max": "dim"}
    metrics = {}
    for label in LABELS:
        row = record["layers"][label]
        for stat, unit in from_stats.items():
            if stat in row:
                metrics[f"{label}.{stat}"] = _metric(row[stat], unit)
        if label in STAGE_TOTALS:
            metrics[f"{label}.total_ms"] = _metric(row["total_ms"], "ms")
    cli_units = {"invocations": "count", "nonzero_exits": "count", "child_cpu_s": "s", "cpu_util": "ratio", "result_bytes": "bytes"}
    for stat in CLI_STATS:
        metrics[f"cli.main.{stat}"] = _metric(record["cli"][stat], cli_units[stat])
    metrics["tracer.overhead"] = _metric(record["overhead"], "ratio")
    return metrics


def _report_traced(record):
    busy_ms = 1e3 * record["busy_s"]
    print(
        f"traced pass: {record['cycles']} cycles, {record['spans']} spans, {record['busy_s']:.2f} s busy;"
        f" untraced {record['untraced_busy_s']:.2f} s; overhead {100 * record['overhead']:+.2f}%"
    )
    print(f"{'layer':50s} {'calls':>8s} {'self ms':>10s} {'self %':>7s} {'total ms':>10s}")
    harness = {"calls": 0, "self_ms": 0.0, "total_ms": 0.0}
    rows = []
    for label, row in record["layers"].items():
        if label.startswith("op:"):
            for key in harness:
                harness[key] += row[key]
        else:
            rows.append((label, row))
    rows.append(("(op bodies outside traced functions)", harness))
    rows.sort(key=lambda item: -item[1]["self_ms"])
    for label, row in rows:
        if row["calls"]:
            share = 100 * row["self_ms"] / busy_ms
            print(f"{label:50s} {row['calls']:8d} {row['self_ms']:10.1f} {share:6.1f}% {row['total_ms']:10.1f}")
    layers = [(label, row) for label, row in rows if not label.startswith("(") and row["calls"]]
    if layers:
        print(f"largest self-time layer: {layers[0][0]}")
    for label, callers in record["by_caller"].items():
        if callers:
            split = sorted(callers.items(), key=lambda item: -item[1])
            print(f"{label} self ms by caller: " + ", ".join(f"{name} {ms:.1f}" for name, ms in split))
    cli = record["cli"]
    if cli["invocations"]:
        print("cli: " + ", ".join(f"{stat} {cli[stat]:.4g}" for stat in CLI_STATS))


def _bench(args) -> int:
    """Measure one workload and print its report; the last line is the result JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(_spawn(args, "probe", env, deadline)[0])
        ready, output = _spawn(args, "worker", env, deadline)
        setups.append(ready)
        record = json.loads(output.strip().splitlines()[-1])
    except (BenchError, ValueError, IndexError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2

    prov = record["provenance"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {'on' if args.trace else 'off'}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(f"ops_attempted {record['attempted']}  ops_failed {record['failed']}  (attempted includes the warm-up pass)")
    for problem in record["problems"][:20]:
        print(f"  FAIL {problem}")
    for name, cell in record["cells"].items():
        extra = "".join(
            f"  {key} {cell[key]:.4f}" for key in ("mean_abs_error", "gate", "success_rate") if key in cell
        )
        print(f"  {name:36s} {cell['ops']:5d} ops  p50 {cell['p50_ms']:9.2f} ms{extra}")
    if args.trace:
        _report_traced(record)
        metrics = _layer_metrics(record)
    else:
        metrics = _report_timed(record, setups)
        record["setup_samples_s"] = setups
    correct = record["failed"] == 0 and record["gates_ok"]
    if args.save:
        full = dict(record, correct=correct, metrics=metrics)
        with open(args.save, "a") as handle:
            handle.write(json.dumps(full, sort_keys=True) + "\n")
    print(json.dumps({"correct": correct, "attempted": record["attempted"], "failed": record["failed"], "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = _parse(argv)
    if args.role:
        return _worker(args)
    if not (SRC / "puriscope" / "__init__.py").is_file():
        sys.stderr.write(f"error: no puriscope sources at {SRC}; run from a source checkout\n")
        return 2
    if args.workload != "all":
        return _bench(args)
    codes = [_bench(argparse.Namespace(**{**vars(args), "workload": name})) for name in WORKLOADS]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
