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
from typing import Optional

import numpy as np

from .core import DensityMatrix, HADAMARD, Observable, PAULI_I, PAULI_X, PAULI_Z, matrix_power_trace
from .ensembles import (
    SEPARATION_PAIRS,
    EnsembleFamily,
    EnsembleSpec,
    analytic_mean_purity,
    child_rng,
    purify,
    sample_ensemble,
)
from .errors import DomainError, GuardError
from .estimators import estimate_moment, estimate_qfi, estimate_virtual_cooling, qfi_oracle
from .measurement import ShotBudget, _mean_stderr, _rm_purity_estimates, measure_in_basis, tomography
from .reports import EstimatorReport

SWAP_REGISTER_GUARD = 13  # joint register dimension 2 * 2**(t n) <= 2**13
SHOTS_PER_UNITARY = 8  # randomized-measurement depth, constant across n


def swap_test_moment(
    rho: DensityMatrix,
    observable: Optional[Observable],
    t: int,
    shots: int,
    seed: int,
) -> EstimatorReport:
    """Generalized SWAP test on t copies via a purified statevector.

    A control qubit in |+> drives the cyclic permutation of the system
    registers; <X> on the control gives Tr(rho^t) and <X (x) O> on the
    first copy gives Tr(O rho^t).  The copies are simulated as purified
    statevectors so memory stays linear in the joint dimension.
    """
    if t < 2:
        raise DomainError(f"the permutation test needs t >= 2, got {t}")
    if 1 + t * rho.n > SWAP_REGISTER_GUARD:
        raise GuardError(
            f"joint register 2 * 2**({t} * {rho.n}) exceeds the 2**{SWAP_REGISTER_GUARD} guard"
        )
    if observable is not None and observable.dim != rho.dim:
        raise DomainError("observable dimension does not match the state")

    rank = rho.rank()
    nB = (rank - 1).bit_length()
    psi = purify(rho, nB)
    if observable is None:  # <X (x) I> is Tr(rho^t)
        observable = Observable.from_factors([PAULI_I] * rho.n)
    dA, dB = 2 ** psi.nA, 2 ** psi.nB

    copies = psi.amplitudes
    for _ in range(t - 1):
        copies = np.kron(copies, psi.amplitudes)
    tensor = copies.reshape([dA, dB] * t)
    branch0 = tensor.reshape(dA, -1)
    # Cycle the system registers of the axes (A1, B1, ..., At, Bt), ancillas in place.
    cycle = [axis for i in range(t) for axis in (2 * ((i + 1) % t), 2 * i + 1)]
    branch1 = tensor.transpose(cycle).reshape(dA, -1)
    # Control (x) first system copy, every other register traced out.
    columns = np.concatenate([branch0, branch1]) / math.sqrt(2)
    reduced = DensityMatrix.from_columns(columns, 1 + psi.nA)

    # Control in the X eigenbasis: |+> outcome +1, |-> outcome -1.
    counts = measure_in_basis(reduced, (HADAMARD, *observable.basis), shots, child_rng(seed, 0))
    x_signs = np.repeat([1.0, -1.0], dA)
    value, stderr = _mean_stderr(counts, x_signs * np.tile(observable.eigenvalues, 2))
    x_mean = _mean_stderr(counts, x_signs)[0]

    columns, weights = rho.spectral().support()
    truth = observable.expectation(columns, weights ** t)

    return EstimatorReport(
        value=value,
        truth=truth,
        shots_used={"swap_test": shots},
        stderr=stderr,
        seed=seed,
        extras={
            "exact_expectation": float(np.real(np.vdot(branch0, observable @ branch1))),
            "moment_estimate": x_mean,
            "moment_truth": matrix_power_trace(rho, t),
            "exact_moment_expectation": float(np.real(np.vdot(branch0, branch1))),
            "ancilla_qubits": nB,
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


_FAMILY_GROUP = {family: kind for kind, pair in SEPARATION_PAIRS.items() for family in pair}


def _analytic_statistic_mean(family: EnsembleFamily, n: int, kind: str) -> float:
    if kind == "purity":
        return analytic_mean_purity(EnsembleSpec(family, n))
    if kind == "cooling":
        return 0.125 if family is EnsembleFamily.VC_PCA_S1 else -0.125
    # Support-QFI of the X-flip observable: 1/14 on the structured family,
    # 0 on its Hadamard twin (large-n anchors).
    return 1.0 / 14.0 if family is EnsembleFamily.FISHER_S1 else 0.0


def _estimate_statistic(
    rho: DensityMatrix, kind: str, strategy: str, budget: int, seed: int
) -> float:
    """Run one strategy on the visible state only; hidden data never enters."""
    n = rho.n
    if kind == "purity":
        if strategy == "purification":
            psi = purify(rho, 1)
            return estimate_moment(psi, 2, ShotBudget(tomography_shots=budget), seed).value
        return single_copy_purity_attack(rho, budget, seed).value
    if kind == "cooling":
        z1 = Observable.from_factors([PAULI_Z] + [PAULI_I] * (n - 1))
        if strategy == "purification":
            psi = purify(rho, 2)
            return estimate_virtual_cooling(psi, z1, 2, ShotBudget.split(budget), seed).value
        if n > 6:
            raise GuardError("plug-in tomography arm is guarded to n <= 6")
        spec = tomography(rho, budget, child_rng(seed, 0)).estimate.spectral()
        return z1.expectation(spec.eigenvectors, spec.eigenvalues ** 2)  # Tr(rho_hat^2 Z)
    x1 = Observable.from_factors([PAULI_X] + [PAULI_I] * (n - 1))
    if strategy == "purification":
        psi = purify(rho, 2)
        return estimate_qfi(
            psi, x1, ShotBudget.split(budget), seed, min_eigenvalue=0.01, min_gap=0.01
        ).value
    if n > 5:
        raise GuardError("plug-in tomography arm is guarded to n <= 5")
    est = tomography(rho, budget, child_rng(seed, 0)).estimate
    return qfi_oracle(est, x1, "support_only")


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
    kind = _FAMILY_GROUP.get(spec_a.family)
    if kind is None or _FAMILY_GROUP.get(spec_b.family) != kind:
        raise DomainError(
            f"families {spec_a.family.value} / {spec_b.family.value} do not form a "
            "separable pairing"
        )
    mean_a = _analytic_statistic_mean(spec_a.family, spec_a.n, kind)
    mean_b = _analytic_statistic_mean(spec_b.family, spec_b.n, kind)
    threshold = 0.5 * (mean_a + mean_b)

    hits = 0
    for trial in range(trials):
        rng = child_rng(seed, trial)
        pick_b = bool(rng.integers(2))
        spec = spec_b if pick_b else spec_a
        sample = sample_ensemble(spec, rng)
        est = _estimate_statistic(sample.rho, kind, strategy, budget, int(rng.integers(2 ** 31)))
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
