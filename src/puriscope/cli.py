"""Batch experiment runner.

Every subcommand resolves its configuration, fans trials out over a
worker pool, and writes one JSON result file (plus CSV when requested)
with the schema {experiment, config, results, summary, seed, version,
timestamp}.  Exit codes: 0 success, 2 precondition failure, 3
acceptance-threshold failure, 64 usage error.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import __version__
from .core import DensityMatrix, Observable, PAULI_X, PAULI_Z, pauli_on
from .ensembles import (
    EnsembleFamily,
    EnsembleSpec,
    child_rng,
    haar_unitary,
    purify,
    sample_ensemble,
)
from .errors import PuriscopeError
from .estimators import (
    PurificationIdentity,
    estimate_moment,
    estimate_pca,
    estimate_qfi,
    estimate_virtual_cooling,
    oracle_identity_check,
)
from .baselines import distinguish_experiment, single_copy_purity_attack, swap_test_moment
from .channels import (
    canonicalize,
    channel_pca_estimate,
    random_channel,
    unitarity_estimate,
    virtual_distillation_estimate,
)
from .crypto import ServerKind, ServerModel, run_blind_estimation, run_verification, write_transcript
from .measurement import ShotBudget

IDENTITY_TOLERANCE = 1e-9
ERROR_GATE = 0.1
CHANNEL_GATE = 0.05

EXPERIMENTS = (
    "identities",
    "moment",
    "cooling",
    "pca",
    "qfi",
    "channel-unitarity",
    "channel-distill",
    "channel-pca",
    "separation",
    "crypto-verify",
    "crypto-blind",
    "swap-test",
)


def _default_weights(rank: int) -> tuple[float, ...]:
    """Geometric ladder 2^(r-1-i), normalized; keeps QFI-style gaps open."""
    raw = np.array([2.0 ** (rank - 1 - i) for i in range(rank)])
    return tuple(raw / raw.sum())


def _ancilla_for(rank: int, requested: Optional[int]) -> int:
    minimal = max(1, int(np.ceil(np.log2(max(rank, 1)))))
    if requested is None:
        return minimal
    if 2 ** requested < rank:
        raise PuriscopeError(f"--ancilla {requested} cannot hold rank {rank}")
    return requested


def _sample_state(n: int, rank: int, seed: int, trial: int):
    spec = EnsembleSpec(EnsembleFamily.RANDOM_RANK_R, n, rank=rank, weights=_default_weights(rank))
    return sample_ensemble(spec, child_rng(seed, trial))


def _estimator_trial(payload: tuple) -> dict:
    """One estimator trial; module level so process pools can pickle it."""
    kind, n, rank, ancilla, t, budget, seed, trial = payload
    sample = _sample_state(n, rank, seed, trial)
    psi = purify(sample.rho, ancilla)
    trial_seed = int(child_rng(seed, trial, 1).integers(2 ** 31))
    split = ShotBudget.split(budget)
    if kind == "moment":
        report = estimate_moment(psi, t, ShotBudget(tomography_shots=budget), trial_seed)
    elif kind == "cooling":
        obs = Observable(pauli_on(n, 0, PAULI_Z))
        report = estimate_virtual_cooling(psi, obs, t, split, trial_seed)
    elif kind == "pca":
        obs = Observable(pauli_on(n, 0, PAULI_Z))
        report = estimate_pca(psi, obs, split, trial_seed)
    else:
        obs = Observable(pauli_on(n, 0, PAULI_X))
        report = estimate_qfi(psi, obs, split, trial_seed)
    out = report.to_json()
    out["trial"] = trial
    out.pop("extras", None)
    return out


def _channel_trial(payload: tuple) -> dict:
    kind, n, rank, budget, seed, trial = payload
    rng = child_rng(seed, trial)
    channel = random_channel(n, rank, rng)
    iso = canonicalize(channel)
    trial_seed = int(child_rng(seed, trial, 1).integers(2 ** 31))
    split = ShotBudget.split(budget)
    if kind == "channel-unitarity":
        report = unitarity_estimate(iso, ShotBudget(tomography_shots=budget), trial_seed)
    else:
        d = 2 ** n
        state_vec = np.zeros((d, d), dtype=complex)
        state_vec[0, 0] = 1.0
        rho_in = DensityMatrix(state_vec, n)
        obs = Observable(pauli_on(n, 0, PAULI_Z))
        if kind == "channel-distill":
            report = virtual_distillation_estimate(iso, rho_in, obs, split, trial_seed)
        else:
            report = channel_pca_estimate(iso, rho_in, obs, split, trial_seed)
    out = report.to_json()
    out["trial"] = trial
    out.pop("extras", None)
    return out


def _swap_trial(payload: tuple) -> dict:
    n, rank, t, shots, seed, trial = payload
    sample = _sample_state(n, rank, seed, trial)
    obs = Observable(pauli_on(n, 0, PAULI_Z))
    trial_seed = int(child_rng(seed, trial, 1).integers(2 ** 31))
    report = swap_test_moment(sample.rho, obs, t, shots, trial_seed)
    exact_gap = abs(report.extras["exact_expectation"] - report.truth)
    out = report.to_json()
    out["trial"] = trial
    out["exact_oracle_gap"] = exact_gap
    out.pop("extras", None)
    return out


def _rmse_trial(payload: tuple) -> dict:
    family_value, n, strategy, budget, seed, trial = payload
    spec = EnsembleSpec(EnsembleFamily(family_value), n)
    sample = sample_ensemble(spec, child_rng(seed, trial))
    trial_seed = int(child_rng(seed, trial, 1).integers(2 ** 31))
    if strategy == "purification":
        psi = purify(sample.rho, 1)
        value = estimate_moment(psi, 2, ShotBudget(tomography_shots=budget), trial_seed).value
    else:
        value = single_copy_purity_attack(sample.rho, budget, trial_seed).value
    return {"trial": trial, "error": value - sample.rho.purity()}


def _parallel_map(fn: Callable, payloads: list, jobs: int) -> list:
    if jobs <= 1 or len(payloads) <= 1:
        return [fn(p) for p in payloads]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, payloads, chunksize=max(1, len(payloads) // (4 * jobs))))


def _version_string() -> str:
    try:
        described = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=5,
        )
        if described.returncode == 0:
            return f"puriscope-{__version__}+{described.stdout.strip()}"
    except (OSError, subprocess.SubprocessError):
        pass
    return f"puriscope-{__version__}"


def _write_outputs(payload: dict, out_path: Path, fmt: str) -> None:
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    if fmt == "csv":
        rows = payload["results"]
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


def _parse_n_range(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    if "," in text:
        return [int(x) for x in text.split(",")]
    return [int(text)]


def _run_identities(args) -> tuple[list, dict, bool]:
    rng_plan = child_rng(args.seed, 0)
    results = []
    worst = {k.value: 0.0 for k in PurificationIdentity}
    for trial in range(args.trials):
        n_a = int(rng_plan.integers(2, 7))
        rank = int(rng_plan.integers(1, 5))
        n_b = max(1, int(np.ceil(np.log2(max(rank, 1)))))
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


def _run_estimator(args, kind: str) -> tuple[list, dict, bool]:
    ancilla = _ancilla_for(args.rank, args.ancilla)
    payloads = [
        (kind, args.n, args.rank, ancilla, args.t, args.budget, args.seed, trial)
        for trial in range(args.trials)
    ]
    results = _parallel_map(_estimator_trial, payloads, args.jobs)
    errors = [abs(r["abs_error"]) for r in results]
    mean_err = float(np.mean(errors))
    summary = {"mean_abs_error": mean_err, "max_abs_error": float(np.max(errors))}
    return results, summary, mean_err <= ERROR_GATE


def _run_channel(args, kind: str) -> tuple[list, dict, bool]:
    payloads = [
        (kind, args.n, args.rank, args.budget, args.seed, trial) for trial in range(args.trials)
    ]
    results = _parallel_map(_channel_trial, payloads, args.jobs)
    errors = [abs(r["abs_error"]) for r in results]
    summary = {"mean_abs_error": float(np.mean(errors)), "max_abs_error": float(np.max(errors))}
    return results, summary, summary["max_abs_error"] <= CHANNEL_GATE


def _run_swap(args) -> tuple[list, dict, bool]:
    payloads = [
        (args.n, args.rank, args.t, args.budget, args.seed, trial) for trial in range(args.trials)
    ]
    results = _parallel_map(_swap_trial, payloads, args.jobs)
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


_SEPARATION_PAIRS = {
    "purity": (EnsembleFamily.PURITY_S1, EnsembleFamily.PURITY_S2),
    "cooling": (EnsembleFamily.VC_PCA_S1, EnsembleFamily.VC_PCA_S2),
    "fisher": (EnsembleFamily.FISHER_S1, EnsembleFamily.FISHER_S2),
}


def _run_separation(args) -> tuple[list, dict, bool]:
    fam_a, fam_b = _SEPARATION_PAIRS[args.task]
    results = []
    purification_success = []
    for n in _parse_n_range(args.n):
        for strategy in ("purification", "single_copy"):
            row = {"n": n, "strategy": strategy, "budget": args.budget}
            if args.task == "purity":
                payloads = [
                    (fam_a.value, n, strategy, args.budget, args.seed, trial)
                    for trial in range(args.trials)
                ]
                errs = [r["error"] for r in _parallel_map(_rmse_trial, payloads, args.jobs)]
                row["rmse"] = float(np.sqrt(np.mean(np.square(errs))))
            pair = (EnsembleSpec(fam_a, n), EnsembleSpec(fam_b, n))
            outcome = distinguish_experiment(pair, strategy, args.budget, args.trials, args.seed)
            row.update(
                {
                    "success": outcome.success,
                    "ci_low": outcome.ci_low,
                    "ci_high": outcome.ci_high,
                    "threshold": outcome.threshold,
                }
            )
            if strategy == "purification":
                purification_success.append(outcome.success)
            results.append(row)
    summary = {"min_purification_success": float(np.min(purification_success))}
    return results, summary, summary["min_purification_success"] >= 0.95


def _run_crypto_verify(args) -> tuple[list, dict, bool]:
    results = []
    rates = {}
    for kind in ServerKind:
        server = ServerModel(kind, ShotBudget(observable_shots=args.budget))
        out = run_verification(args.n, server, args.trials, args.seed, client_shots=args.budget)
        results.append(out)
        rates[kind.value] = out["acceptance"]
    gap = rates["honest_unbounded"] - rates["dishonest_constant"]
    summary = {"acceptance": rates, "honest_minus_dishonest": gap}
    return results, summary, gap >= 0.3


def _run_crypto_blind(args) -> tuple[list, dict, bool]:
    rng = child_rng(args.seed, 0)
    u = haar_unitary(2 ** args.n, rng)
    obs = Observable(pauli_on(args.n, 0, PAULI_Z))
    res = run_blind_estimation(u, obs, args.rounds, args.seed, record_transcript=True)
    transcript_path = Path(args.out).with_suffix(".transcript.jsonl") if args.out else Path(
        f"crypto-blind_seed{args.seed}.transcript.jsonl"
    )
    write_transcript(transcript_path, res.transcript)
    print(f"transcript -> {transcript_path}")
    row = res.to_json()
    ok = (
        abs(res.client_estimate - res.truth) <= 0.05
        and abs(res.keep_fraction - 0.5) <= 0.02
        and abs(res.all_rounds_mean - res.all_rounds_truth) <= 0.05
    )
    summary = {
        "client_error": abs(res.client_estimate - res.truth),
        "keep_fraction": res.keep_fraction,
    }
    return [row], summary, ok


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(64)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="puriscope", description=__doc__)
    sub = parser.add_subparsers(dest="experiment", parser_class=_Parser)
    for name in EXPERIMENTS:
        p = sub.add_parser(name)
        p.add_argument("--n", default="4", help="qubit count (ranges like 2..8 for separation)")
        p.add_argument("--ancilla", type=int, default=None, help="purification qubits")
        p.add_argument("--rank", type=int, default=2)
        p.add_argument("--t", type=int, default=2, help="moment order")
        p.add_argument("--budget", type=int, default=20_000, help="total shots per trial")
        p.add_argument("--trials", type=_positive_int, default=20)
        p.add_argument("--rounds", type=int, default=10_000, help="crypto-blind rounds")
        p.add_argument("--task", choices=sorted(_SEPARATION_PAIRS), default="purity")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    return parser


def _resolve_seed(seed: Optional[int]) -> int:
    if seed is not None:
        return seed
    env = os.environ.get("PURISCOPE_SEED")
    if env is not None:
        return int(env)
    return 1234


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.experiment is None:
        parser.print_usage(sys.stderr)
        return 64

    try:
        n_values = _parse_n_range(args.n)
    except ValueError:
        n_values = []
    if not n_values:
        parser.error(f"--n {args.n!r} names no qubit count (use N, N..M or N,M,...)")

    args.seed = _resolve_seed(args.seed)
    experiment = args.experiment
    if experiment != "separation":
        args.n = n_values[0]

    try:
        if experiment == "identities":
            results, summary, ok = _run_identities(args)
        elif experiment in ("moment", "cooling", "pca", "qfi"):
            results, summary, ok = _run_estimator(args, experiment)
        elif experiment in ("channel-unitarity", "channel-distill", "channel-pca"):
            results, summary, ok = _run_channel(args, experiment)
        elif experiment == "swap-test":
            results, summary, ok = _run_swap(args)
        elif experiment == "separation":
            results, summary, ok = _run_separation(args)
        elif experiment == "crypto-verify":
            results, summary, ok = _run_crypto_verify(args)
        else:
            results, summary, ok = _run_crypto_blind(args)
    except PuriscopeError as exc:
        sys.stderr.write(f"precondition failure: {exc}\n")
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
        "version": _version_string(),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    out_path = Path(args.out) if args.out else Path(f"{experiment}_seed{args.seed}.json")
    _write_outputs(payload, out_path, args.format)
    print(f"{experiment}: {'pass' if ok else 'FAIL'} -> {out_path}")
    return 0 if ok else 3


if __name__ == "__main__":
    sys.exit(main())
