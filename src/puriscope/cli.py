"""Batch experiment runner.

Every subcommand resolves its configuration, runs its trials and writes
one JSON result file (plus CSV when requested) with the schema
{experiment, config, results, summary, seed, environment, version,
timestamp}.  The estimator, channel and swap-test trials and the RMSE
trials of separation run in order until they have used ``_POOL_AFTER_S``,
and the rest, if two or more, on up to ``--jobs`` worker processes, so a
small fan-out never forks; the other trials run in order in one process.
Each process runs one BLAS thread unless the caller sets a thread variable.
A CLI process (``run``) freezes the heap its imports built, so the garbage
collector never walks it again; run as ``__main__`` it keeps the collector
off while they load.
Exit codes: 0 success, 2 precondition or numerical failure (a
``LinAlgError`` or ``ZeroDivisionError`` in a trial, or a non-finite
value or stderr), 3 acceptance-threshold failure, 64 usage error.
"""

from __future__ import annotations

import gc
import os
import sys

# No collections while the imports below build a heap that lives until
# exit; ``run`` freezes it and turns the collector back on.
if __name__ == "__main__":
    gc.disable()

# One BLAS thread per CLI process, set before numpy loads: the CLI's
# arrays are small and its parallelism is ``--jobs``, whose forked
# workers inherit this.  A caller's setting of any of the three wins.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if "numpy" not in sys.modules and not any(var in os.environ for var in THREAD_VARS):
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))

import argparse
import datetime
import functools
import json
import time
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import __version__
from .core import DensityMatrix, PAULI_X, _on_qubit0
from .ensembles import (
    SEPARATION_PAIRS,
    EnsembleFamily,
    EnsembleSpec,
    _min_ancilla,
    child_rng,
    haar_unitary,
    purify,
    sample_ensemble,
)
from .errors import GuardError, InsufficientDataError, PuriscopeError
from .estimators import (
    ANCILLA_GUARD,
    PurificationIdentity,
    estimate_moment,
    estimate_pca,
    estimate_qfi,
    estimate_virtual_cooling,
    oracle_identity_check,
)
from .measurement import ShotBudget

IDENTITY_TOLERANCE = 1e-9
ERROR_GATE = 0.1
CHANNEL_GATE = 0.05
BLIND_ROUNDS = 10_000  # crypto-blind's default rounds, at which its gates are set


def _default_weights(rank: int) -> tuple[float, ...]:
    """Geometric ladder 2^(r-1-i), normalized; keeps QFI-style gaps open."""
    raw = np.array([2.0 ** (rank - 1 - i) for i in range(rank)])
    return tuple(raw / raw.sum())


def _ancilla_for(rank: int, requested: Optional[int]) -> int:
    """``--ancilla``, else the fewest qubits (at least one) that hold ``rank``.

    Refused above the estimators' ``ANCILLA_GUARD`` before any trial builds a purification.
    """
    if requested is None:
        return _min_ancilla(rank)
    if requested > ANCILLA_GUARD:
        raise GuardError(f"nB = {requested} exceeds the desk-scale guard {ANCILLA_GUARD}")
    if 2 ** requested < rank:
        raise PuriscopeError(f"--ancilla {requested} cannot hold rank {rank}")
    return requested


def _sample_state(n: int, rank: int, seed: int, trial: int):
    spec = EnsembleSpec(EnsembleFamily.RANDOM_RANK_R, n, rank=rank, weights=_default_weights(rank))
    return sample_ensemble(spec, child_rng(seed, trial))


def _trial_seed(seed: int, trial: int) -> int:
    return int(child_rng(seed, trial, 1).integers(2 ** 31))


def _row(report, trial: int, **extra) -> dict:
    """A trial's result row: its report's JSON without ``extras``, plus the trial index.

    A non-finite value or stderr is an ``InsufficientDataError``: JSON has no NaN.
    """
    if not np.isfinite([report.value, report.stderr]).all():
        raise InsufficientDataError(
            f"value {report.value} or stderr {report.stderr} is not finite; the trial needs more shots"
        )
    row = report.to_json()
    del row["extras"]
    return {**row, "trial": trial, **extra}


def _estimator_trial(payload: tuple) -> dict:
    """One estimator trial; module level so process pools can pickle it."""
    kind, n, rank, ancilla, t, budget, seed, trial = payload
    sample = _sample_state(n, rank, seed, trial)
    psi = purify(sample.rho, ancilla)
    trial_seed = _trial_seed(seed, trial)
    split = ShotBudget.split(budget)
    if kind == "moment":
        report = estimate_moment(psi, t, ShotBudget(tomography_shots=budget), trial_seed)
    elif kind == "cooling":
        report = estimate_virtual_cooling(psi, _on_qubit0(n), t, split, trial_seed)
    elif kind == "pca":
        report = estimate_pca(psi, _on_qubit0(n), split, trial_seed)
    else:
        report = estimate_qfi(psi, _on_qubit0(n, PAULI_X), split, trial_seed)
    return _row(report, trial)


def _channel_trial(payload: tuple) -> dict:
    from . import channels

    kind, n, rank, budget, seed, trial = payload
    rng = child_rng(seed, trial)
    iso = channels.canonicalize(channels.random_channel(n, rank, rng))
    trial_seed = _trial_seed(seed, trial)
    split = ShotBudget.split(budget)
    if kind == "channel-unitarity":
        report = channels.unitarity_estimate(iso, ShotBudget(tomography_shots=budget), trial_seed)
    else:
        d = 2 ** n
        state_vec = np.zeros((d, d), dtype=complex)
        state_vec[0, 0] = 1.0
        rho_in = DensityMatrix(state_vec, n)
        obs = _on_qubit0(n)
        if kind == "channel-distill":
            report = channels.virtual_distillation_estimate(iso, rho_in, obs, split, trial_seed)
        else:
            report = channels.channel_pca_estimate(iso, rho_in, obs, split, trial_seed)
    return _row(report, trial)


def _swap_trial(payload: tuple) -> dict:
    from .baselines import swap_test_moment

    n, rank, t, shots, seed, trial = payload
    sample = _sample_state(n, rank, seed, trial)
    report = swap_test_moment(sample.rho, _on_qubit0(n), t, shots, _trial_seed(seed, trial))
    gap = abs(report.extras["exact_expectation"] - report.truth)
    return _row(report, trial, exact_oracle_gap=gap)


def _rmse_trial(payload: tuple) -> dict:
    from .baselines import _estimate_statistic

    family_value, n, strategy, budget, seed, trial = payload
    spec = EnsembleSpec(EnsembleFamily(family_value), n)
    sample = sample_ensemble(spec, child_rng(seed, trial))
    value = _estimate_statistic(
        sample.rho, spec.declared_rank, "purity", strategy, budget, _trial_seed(seed, trial)
    )
    return {"trial": trial, "error": value - sample.rho.purity()}


# Wall time the trials run in order in this process before the rest, if two
# or more, go to min(jobs, remaining) workers: ski rental, paying per trial
# until the total reaches the price of a pool.  On a 2-CPU VM a pool cost
# 25-35 ms from a process that had run a trial and 75 ms from one that had
# not (its workers import numpy.random again); 0.1 s covers both with a margin.
_POOL_AFTER_S = 0.1


def _parallel_map(fn: Callable, payloads: list, jobs: int) -> list:
    """``fn`` on every payload, in order; the rest go to a pool as ``_POOL_AFTER_S`` says."""
    results = []
    start = time.perf_counter()
    for payload in payloads:
        results.append(fn(payload))
        rest = len(payloads) - len(results)
        if jobs > 1 and rest >= 2 and time.perf_counter() - start > _POOL_AFTER_S:
            from concurrent.futures import ProcessPoolExecutor

            workers = min(jobs, rest)
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results += pool.map(fn, payloads[-rest:], chunksize=max(1, rest // (4 * workers)))
            break
    return results


def _named_trial(fn: Callable, payload: tuple) -> dict:
    """``fn(payload)``; a precondition failure gains the trial index and keeps its class."""
    try:
        return fn(payload)
    except PuriscopeError as exc:
        raise type(exc)(f"trial {payload[-1]}: {exc}") from exc


def _fan_out(fn: Callable, config: tuple, args) -> list:
    """``fn`` on ``(*config, args.seed, trial)`` for every trial, over ``args.jobs`` workers."""
    payloads = [(*config, args.seed, trial) for trial in range(args.trials)]
    return _parallel_map(functools.partial(_named_trial, fn), payloads, args.jobs)


def _environment(jobs: int) -> dict:
    """What the run's speed depends on: versions, BLAS, CPUs and threads."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except TypeError:  # numpy < 1.26: show_config takes no mode
        blas = None
    return {
        "python": "{}.{}.{}".format(*sys.version_info[:3]),
        "numpy": np.__version__,
        "blas": blas,
        "cpu_count": os.cpu_count(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "jobs": jobs,
    }


def _write_outputs(text: str, rows: list, out_path: Path, fmt: str, side_files: list) -> None:
    """The result JSON, its CSV when asked, and ``write(path)`` for each side file's ``.name.jsonl``."""
    out_path.parent.mkdir(parents=True, exist_ok=True)
    for name, write in side_files:
        side_path = out_path.with_suffix(f".{name}.jsonl")
        write(side_path)
        print(f"{name} -> {side_path}")
    out_path.write_text(text + "\n")
    if fmt == "csv":
        import csv

        csv_path = out_path.with_suffix(".csv")
        if rows:
            fieldnames = sorted({key for row in rows for key in row})
            with csv_path.open("w", newline="") as handle:
                writer = csv.DictWriter(handle, fieldnames=fieldnames)
                writer.writeheader()
                for row in rows:
                    writer.writerow({k: row.get(k) for k in fieldnames})
        else:
            csv_path.write_text("")


def _qubit_counts(text: str) -> list[int]:
    """The qubit counts ``N``, ``N..M`` or ``N,M,...`` names; none is a usage error."""
    lo, dots, hi = text.partition("..")
    try:
        counts = list(range(int(lo), int(hi) + 1)) if dots else [int(x) for x in text.split(",")]
    except ValueError:
        counts = []
    if not counts:
        raise argparse.ArgumentTypeError(f"{text!r} names no qubit count (use N, N..M or N,M,...)")
    return counts


def _sweep(text: str) -> str:
    """``separation --n``: checked by ``_qubit_counts`` and kept as given, for ``config``."""
    _qubit_counts(text)
    return text


def _run_identities(args) -> tuple[list, dict, bool]:
    rng_plan = child_rng(args.seed, 0)
    results = []
    worst = {k.value: 0.0 for k in PurificationIdentity}
    for trial in range(args.trials):
        n_a = int(rng_plan.integers(2, 7))
        rank = int(rng_plan.integers(1, 5))
        n_b = _ancilla_for(rank, None)
        sample = _sample_state(n_a, rank, args.seed, trial)
        psi = purify(sample.rho, n_b)
        row = {"trial": trial, "nA": n_a, "rank": rank, "nB": n_b}
        for kind in PurificationIdentity:
            if kind is PurificationIdentity.CROSS_STEERING and rank < 2:
                continue
            dev = oracle_identity_check(psi, kind, t=args.t)
            row[kind.value] = dev
            worst[kind.value] = max(worst[kind.value], dev)
        results.append(row)
    ok = all(v <= IDENTITY_TOLERANCE for v in worst.values())
    return results, {"max_deviation": worst, "tolerance": IDENTITY_TOLERANCE}, ok


def _error_summary(results: list) -> dict:
    errors = [abs(r["abs_error"]) for r in results]
    return {"mean_abs_error": float(np.mean(errors)), "max_abs_error": float(np.max(errors))}


def _run_estimator(args) -> tuple[list, dict, bool]:
    ancilla = _ancilla_for(args.rank, args.ancilla)
    # pca and qfi take no --t
    config = (args.experiment, args.n, args.rank, ancilla, getattr(args, "t", None), args.budget)
    results = _fan_out(_estimator_trial, config, args)
    summary = _error_summary(results)
    return results, summary, summary["mean_abs_error"] <= ERROR_GATE


def _run_channel(args) -> tuple[list, dict, bool]:
    results = _fan_out(_channel_trial, (args.experiment, args.n, args.rank, args.budget), args)
    summary = _error_summary(results)
    return results, summary, summary["max_abs_error"] <= CHANNEL_GATE


def _run_swap(args) -> tuple[list, dict, bool]:
    results = _fan_out(_swap_trial, (args.n, args.rank, args.t, args.budget), args)
    exact_gaps = [r["exact_oracle_gap"] for r in results]
    sampled_z = [
        abs(r["value"] - r["truth"]) / max(r["stderr"], 1e-12) for r in results
    ]
    summary = {
        "max_exact_oracle_gap": float(np.max(exact_gaps)),
        "max_sample_zscore": float(np.max(sampled_z)),
    }
    ok = summary["max_exact_oracle_gap"] <= IDENTITY_TOLERANCE and summary["max_sample_zscore"] <= 5.0
    return results, summary, ok


def _run_separation(args) -> tuple[list, dict, bool]:
    from .baselines import distinguish_experiment

    fam_a, fam_b = SEPARATION_PAIRS[args.task]
    results = []
    for n in _qubit_counts(args.n):
        for strategy in ("purification", "single_copy"):
            pair = (EnsembleSpec(fam_a, n), EnsembleSpec(fam_b, n))
            outcome = distinguish_experiment(pair, strategy, args.budget, args.trials, args.seed)
            row = outcome.to_json()
            del row["trials"], row["statistic"]  # the config's --trials and --task
            if args.task == "purity":
                trials = _fan_out(_rmse_trial, (fam_a.value, n, strategy, args.budget), args)
                row["rmse"] = float(np.sqrt(np.mean(np.square([r["error"] for r in trials]))))
            results.append(row)
    success = [row["success"] for row in results if row["strategy"] == "purification"]
    summary = {"min_purification_success": float(np.min(success))}
    return results, summary, summary["min_purification_success"] >= 0.95


def _run_crypto_verify(args) -> tuple[list, dict, bool]:
    from .crypto import ServerKind, ServerModel, run_verification

    results = []
    rates = {}
    for kind in ServerKind:
        server = ServerModel(kind, args.budget)
        out = run_verification(args.n, server, args.trials, args.seed, client_shots=args.budget)
        results.append(out)
        rates[kind.value] = out["acceptance"]
    gap = rates["honest_unbounded"] - rates["dishonest_constant"]
    summary = {"acceptance": rates, "honest_minus_dishonest": gap}
    return results, summary, gap >= 0.3


def _run_crypto_blind(args) -> tuple[list, dict, bool, tuple]:
    from .crypto import run_blind_estimation, write_transcript

    rng = child_rng(args.seed, 0)
    u = haar_unitary(2 ** args.n, rng)
    obs = _on_qubit0(args.n)
    res = run_blind_estimation(u, obs, args.rounds, args.seed)
    summary = {
        "client_error": abs(res.client_estimate - res.truth),
        "keep_fraction": res.keep_fraction,
    }
    # The gates are set at BLIND_ROUNDS and scale as the shot noise, 1/sqrt(rounds).
    scale = (BLIND_ROUNDS / args.rounds) ** 0.5
    ok = (
        summary["client_error"] <= 0.05 * scale
        and abs(res.keep_fraction - 0.5) <= 0.02 * scale
        and abs(res.all_rounds_mean - res.all_rounds_truth) <= 0.05 * scale
    )
    transcript = functools.partial(write_transcript, result=res)
    return [res.to_json()], summary, ok, ("transcript", transcript)


# Experiment name -> (runner, the flags the runner reads); the order is the
# subcommand order of ``--help``.  A runner returns (result rows, summary
# metrics, pass), then a (name, write) pair for each side file that
# ``_write_outputs`` writes with the result.  Every subcommand also takes
# the RUN_SETTINGS.
EXPERIMENTS: dict[str, tuple[Callable, tuple[str, ...]]] = {
    "identities": (_run_identities, ("t", "trials")),
    "moment": (_run_estimator, ("n", "ancilla", "rank", "t", "budget", "trials")),
    "cooling": (_run_estimator, ("n", "ancilla", "rank", "t", "budget", "trials")),
    "pca": (_run_estimator, ("n", "ancilla", "rank", "budget", "trials")),
    "qfi": (_run_estimator, ("n", "ancilla", "rank", "budget", "trials")),
    "channel-unitarity": (_run_channel, ("n", "rank", "budget", "trials")),
    "channel-distill": (_run_channel, ("n", "rank", "budget", "trials")),
    "channel-pca": (_run_channel, ("n", "rank", "budget", "trials")),
    "separation": (_run_separation, ("n", "budget", "trials", "task")),
    "crypto-verify": (_run_crypto_verify, ("n", "budget", "trials")),
    "crypto-blind": (_run_crypto_blind, ("n", "rounds")),
    "swap-test": (_run_swap, ("n", "rank", "t", "budget", "trials")),
}
RUN_SETTINGS = ("seed", "out", "format", "jobs")


def _int_at_least(low: int) -> Callable[[str], int]:
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return integer


# Flag name, or (subcommand, flag name) for a subcommand's own reading, -> add_argument keywords.
_FLAGS: dict[str | tuple[str, str], dict] = {
    "n": {"type": int, "default": 4, "help": "qubit count, one integer (only separation sweeps)"},
    ("separation", "n"): {
        "type": _sweep, "default": "4", "help": "qubit counts to sweep: N, N..M or N,M,..."
    },
    "ancilla": {"type": int, "default": None, "help": "purification qubits"},
    "rank": {"type": int, "default": 2},
    "t": {"type": int, "default": 2, "help": "moment order"},
    "budget": {"type": int, "default": 20_000, "help": "total shots per trial"},
    "trials": {"type": _int_at_least(1), "default": 20},
    "rounds": {"type": int, "default": BLIND_ROUNDS, "help": "crypto-blind rounds"},
    "task": {"choices": sorted(SEPARATION_PAIRS), "default": "purity"},
    "seed": {"type": _int_at_least(0), "default": None},
    "out": {"type": str, "default": None},
    "format": {"choices": ("json", "csv"), "default": "json"},
    "jobs": {"type": _int_at_least(1), "default": os.cpu_count() or 1},
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(64)


def build_parser(only: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of subcommand ``only`` alone.

    ``main`` passes the subcommand its ``argv`` names: each parser and each
    ``add_argument`` builds help formatters, and a run reads one
    subcommand.  Usage and help list every subcommand either way.
    """
    single = only in EXPERIMENTS
    parser = _Parser(prog="puriscope", description=__doc__)
    sub = parser.add_subparsers(
        dest="experiment",
        parser_class=_Parser,
        metavar="{" + ",".join(EXPERIMENTS) + "}" if single else None,
    )
    for name in [only] if single else EXPERIMENTS:
        # No abbreviations: a flag the subcommand lacks (qfi --t) is a usage
        # error, not a prefix of one it has (--trials).
        p = sub.add_parser(name, allow_abbrev=False)
        for flag in (*EXPERIMENTS[name][1], *RUN_SETTINGS):
            p.add_argument(f"--{flag}", **_FLAGS.get((name, flag), _FLAGS[flag]))
    return parser


def _resolve_seed(parser: argparse.ArgumentParser, seed: Optional[int]) -> int:
    """``--seed``, else ``PURISCOPE_SEED``, else 1234; a bad variable is a usage error."""
    if seed is not None:
        return seed
    env = os.environ.get("PURISCOPE_SEED", "1234")
    try:
        return _int_at_least(0)(env)
    except (ValueError, argparse.ArgumentTypeError):
        parser.error(f"PURISCOPE_SEED={env!r} is not a non-negative integer")


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv else None)
    args = parser.parse_args(argv)
    if args.experiment is None:
        parser.print_usage(sys.stderr)
        return 64

    experiment = args.experiment
    runner = EXPERIMENTS[experiment][0]
    args.seed = _resolve_seed(parser, args.seed)
    args.out = args.out or f"{experiment}_seed{args.seed}.json"

    try:
        results, summary, ok, *side_files = runner(args)
    except PuriscopeError as exc:
        sys.stderr.write(f"precondition failure (seed {args.seed}): {exc}\n")
        return 2
    except (np.linalg.LinAlgError, ZeroDivisionError) as exc:
        sys.stderr.write(f"numerical failure: {type(exc).__name__}: {exc}\n")
        return 2
    except MemoryError as exc:
        sys.stderr.write(f"resource failure (seed {args.seed}): {type(exc).__name__}: {exc}\n")
        return 2

    config = {
        k: v for k, v in sorted(vars(args).items()) if k not in ("experiment", "out")
    }
    payload = {
        "experiment": experiment,
        "config": config,
        "results": results,
        "summary": {"pass": bool(ok), "metrics": summary},
        "seed": args.seed,
        "environment": _environment(args.jobs),
        "version": f"puriscope-{__version__}",
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        sys.stderr.write(f"numerical failure (seed {args.seed}): {exc}\n")
        return 2
    out_path = Path(args.out)
    try:
        _write_outputs(text, results, out_path, args.format, side_files)
    except OSError as exc:
        sys.stderr.write(f"resource failure (seed {args.seed}): cannot write {out_path}: {exc}\n")
        return 2
    print(f"{experiment}: {'pass' if ok else 'FAIL'} -> {out_path}")
    return 0 if ok else 3


def run() -> int:
    """The CLI process's entry: ``main()`` on a frozen import heap.

    ``gc.freeze`` moves every object alive now, most of them the imports',
    out of all later collections, including the ones at exit; a forked
    ``--jobs`` pool inherits the frozen heap, so its workers' collections
    do not write to (and copy) those pages.  The second freeze spares the
    exit collections the run's own objects.
    """
    gc.freeze()
    gc.enable()
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
