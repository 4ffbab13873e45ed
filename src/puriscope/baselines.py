"""Comparison arms: the memory-based SWAP test and single-copy strategies.

The lower bounds themselves cannot be executed, so the single-copy arm
runs the strongest practical strategy for each statistic (randomized
measurements for purity, plug-in tomography for the cooling value and the
Fisher information) and the harness reports its measured degradation with
qubit count as evidence, not proof.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .core import DensityMatrix, HADAMARD, Observable, PAULI_X, _on_qubit0, matrix_power_trace
from .ensembles import EnsembleSpec, _min_ancilla, child_rng, purify, sample_ensemble, separated_statistic
from .errors import DomainError, GuardError
from .estimators import estimate_moment, estimate_qfi, estimate_virtual_cooling, qfi_oracle
from .measurement import ShotBudget, _mean_stderr, _rm_purity_estimates, measure_in_basis, tomography
from .reports import EstimatorReport

SHOTS_PER_UNITARY = 8  # randomized-measurement depth, constant across n


def swap_test_moment(
    rho: DensityMatrix,
    observable: Observable,
    t: int,
    shots: int,
    seed: int,
) -> EstimatorReport:
    """Generalized SWAP test on t copies, simulated from rho's eigenpairs.

    A control qubit in |+> drives the cyclic permutation of the t copies;
    <X> on the control gives Tr(rho^t) and <X (x) O> on the first copy
    gives Tr(O rho^t).  Only the control and the first copy are measured,
    and their state (I (x) rho + X (x) rho^t) / 2 holds |+> (x) v_j with
    weight (l_j + l_j^t) / 2 and |-> (x) v_j with weight (l_j - l_j^t) / 2
    for each eigenpair (l_j, v_j) of rho.  It is built from those 2r
    columns in O(d r) memory, so no copy is formed and no register cap applies.
    """
    if t < 2:
        raise DomainError(f"the permutation test needs t >= 2, got {t}")
    if observable.dim != rho.dim:
        raise DomainError("observable dimension does not match the state")

    columns, lam = rho.spectral().support()
    w = lam / lam.sum()  # renormalised over the support, as purify renormalises
    plus = columns * np.sqrt((w + w ** t) / 2)
    minus = columns * np.sqrt(np.clip((w - w ** t) / 2, 0.0, None))
    # The control's |0> and |1> blocks, as |+-> = (|0> +- |1>) / sqrt(2); b0 b1^dag is rho^t.
    branch0, branch1 = np.hstack([plus, minus]), np.hstack([plus, -minus])
    reduced = DensityMatrix.from_columns(np.concatenate([branch0, branch1]) / math.sqrt(2), 1 + rho.n)

    # Control in the X eigenbasis: |+> outcome +1, |-> outcome -1.
    counts = measure_in_basis(reduced, (HADAMARD, *observable.basis), shots, child_rng(seed, 0))
    x_signs = np.repeat([1.0, -1.0], rho.dim)
    value, stderr = _mean_stderr(counts, x_signs * np.tile(observable.eigenvalues, 2))
    x_mean = _mean_stderr(counts, x_signs)[0]

    return EstimatorReport(
        value=value,
        truth=observable.expectation(columns, lam ** t),
        shots_used={"swap_test": shots},
        stderr=stderr,
        seed=seed,
        extras={
            "exact_expectation": float(np.real(np.vdot(branch0, observable @ branch1))),
            "moment_estimate": x_mean,
            "moment_truth": matrix_power_trace(rho, t),
            "exact_moment_expectation": float(np.real(np.vdot(branch0, branch1))),
        },
    )


def single_copy_purity_attack(rho: DensityMatrix, total_budget: int, seed: int) -> EstimatorReport:
    """Single-copy purity strategy: global Haar randomized measurements.

    The per-setting depth is held constant across n (more settings, not
    deeper ones), which keeps the comparison in the regime where the
    sqrt(d) sampling cost of basis randomization is visible at desk
    scale; the report records n so scaling sweeps can be assembled
    downstream.
    """
    if rho.n > 10:
        raise GuardError(f"n = {rho.n} exceeds the single-copy guard of 10")
    if total_budget < 2 * SHOTS_PER_UNITARY:
        raise DomainError("budget too small for the pair statistic")
    unitaries = total_budget // SHOTS_PER_UNITARY
    estimates = _rm_purity_estimates(rho, unitaries, SHOTS_PER_UNITARY, child_rng(seed, 0))
    value = float(estimates.mean())
    stderr = float(estimates.std(ddof=1) / math.sqrt(unitaries))
    return EstimatorReport(
        value=value,
        truth=rho.purity(),
        shots_used={"randomized_measurements": unitaries * SHOTS_PER_UNITARY},
        stderr=stderr,
        seed=seed,
        extras={"n": rho.n, "unitaries": unitaries, "shots_per_unitary": SHOTS_PER_UNITARY},
    )


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise DomainError("trials must be positive")
    if not 0 <= successes <= trials:
        raise DomainError(f"successes {successes} outside [0, {trials}]")
    p = successes / trials
    denom = 1 + z ** 2 / trials
    center = (p + z ** 2 / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z ** 2 / (4 * trials ** 2)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def _estimate_statistic(
    rho: DensityMatrix, rank: int, kind: str, strategy: str, budget: int, seed: int
) -> float:
    """Run one strategy on the visible state and its declared rank; hidden data never enters.

    The purification arm purifies into the fewest ancilla qubits that hold ``rank``.
    """
    n = rho.n
    if strategy == "purification":
        psi = purify(rho, _min_ancilla(rank))
        if kind == "purity":
            return estimate_moment(psi, 2, ShotBudget(tomography_shots=budget), seed).value
        if kind == "cooling":
            return estimate_virtual_cooling(psi, _on_qubit0(n), 2, ShotBudget.split(budget), seed).value
        return estimate_qfi(
            psi, _on_qubit0(n, PAULI_X), ShotBudget.split(budget), seed, min_eigenvalue=0.01, min_gap=0.01
        ).value
    if kind == "purity":
        return single_copy_purity_attack(rho, budget, seed).value
    if kind == "cooling":
        if n > 6:
            raise GuardError("plug-in tomography arm is guarded to n <= 6")
        spec = tomography(rho, budget, child_rng(seed, 0)).estimate.spectral()
        return _on_qubit0(n).expectation(spec.eigenvectors, spec.eigenvalues ** 2)  # Tr(rho_hat^2 Z)
    if n > 5:
        raise GuardError("plug-in tomography arm is guarded to n <= 5")
    est = tomography(rho, budget, child_rng(seed, 0)).estimate
    return qfi_oracle(est, _on_qubit0(n, PAULI_X), "support_only")


@dataclass(frozen=True)
class DistinguishResult:
    n: int
    strategy: str
    budget: int
    trials: int
    success: float
    ci_low: float
    ci_high: float
    threshold: float
    kind: str

    def to_json(self) -> dict:
        row = asdict(self)
        row["statistic"] = row.pop("kind")
        return row


def distinguish_experiment(
    family_pair: tuple[EnsembleSpec, EnsembleSpec],
    strategy: str,
    budget: int,
    trials: int,
    seed: int,
) -> DistinguishResult:
    """Hidden-label discrimination between two hard-instance families.

    Each trial draws a label uniformly, samples the corresponding family,
    runs the strategy's estimator for the statistic the pair separates,
    and thresholds at the midpoint of the two analytic means (ties go to
    the second family).  The hidden record is touched only by the scorer.
    """
    if strategy not in ("purification", "single_copy"):
        raise DomainError(f"unknown strategy {strategy!r}")
    spec_a, spec_b = family_pair
    if spec_a.n != spec_b.n:
        raise DomainError("both families must share the qubit count")
    (kind, mean_a), (kind_b, mean_b) = separated_statistic(spec_a), separated_statistic(spec_b)
    if kind_b != kind:
        raise DomainError(
            f"families {spec_a.family.value} / {spec_b.family.value} do not form a "
            "separable pairing"
        )
    threshold = 0.5 * (mean_a + mean_b)

    hits = 0
    for trial in range(trials):
        rng = child_rng(seed, trial)
        pick_b = bool(rng.integers(2))
        spec = spec_b if pick_b else spec_a
        sample = sample_ensemble(spec, rng)
        est = _estimate_statistic(
            sample.rho, spec.declared_rank, kind, strategy, budget, int(rng.integers(2 ** 31))
        )
        if mean_a >= mean_b:
            guess_b = est <= threshold
        else:
            guess_b = est >= threshold
        if guess_b == pick_b:
            hits += 1
    lo, hi = wilson_interval(hits, trials)
    return DistinguishResult(
        n=spec_a.n,
        strategy=strategy,
        budget=budget,
        trials=trials,
        success=hits / trials,
        ci_low=lo,
        ci_high=hi,
        threshold=threshold,
        kind=kind,
    )
