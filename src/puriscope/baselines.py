"""Comparison arms: the memory-based SWAP test and single-copy strategies.

The lower bounds themselves cannot be executed, so the single-copy arm
runs the strongest practical strategy for each statistic (randomized
measurements for purity, plug-in tomography for the cooling value and the
Fisher information) and the harness reports its measured degradation with
qubit count as evidence, not proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import DensityMatrix, HADAMARD, Observable, PAULI_X, PAULI_Z, pauli_on
from .ensembles import (
    EnsembleFamily,
    EnsembleSpec,
    analytic_mean_purity,
    child_rng,
    purify,
    sample_ensemble,
)
from .errors import DomainError, GuardError
from .estimators import estimate_moment, estimate_qfi, estimate_virtual_cooling, qfi_oracle
from .measurement import ShotBudget, _rm_purity_estimates, measure_in_basis, tomography
from .reports import EstimatorReport

SWAP_REGISTER_GUARD = 13  # joint register dimension 2 * 2**(t n) <= 2**13


def _cycle_a_registers(tensor: np.ndarray, t: int) -> np.ndarray:
    """Cyclically permute the t system registers, leaving ancillas in place.

    ``tensor`` has axes (A1, B1, A2, B2, ..., At, Bt).
    """
    a_axes = list(range(0, 2 * t, 2))
    b_axes = list(range(1, 2 * t, 2))
    new_a = a_axes[1:] + a_axes[:1]
    perm = []
    for i in range(t):
        perm.append(new_a[i])
        perm.append(b_axes[i])
    return np.transpose(tensor, perm)


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
    nB = 0 if rank == 1 else int(math.ceil(math.log2(rank)))
    psi = purify(rho, nB)
    dA, dB = 2 ** psi.nA, 2 ** psi.nB

    copies = psi.amplitudes
    for _ in range(t - 1):
        copies = np.kron(copies, psi.amplitudes)
    tensor = copies.reshape([dA, dB] * t)
    branch0 = tensor.reshape(dA, -1)
    branch1 = _cycle_a_registers(tensor, t).reshape(dA, -1)
    # Control (x) first system copy, every other register traced out.
    columns = np.concatenate([branch0, branch1]) / math.sqrt(2)
    reduced = DensityMatrix(columns @ columns.conj().T, 1 + psi.nA)

    if observable is None:
        obs_values, obs_basis = np.ones(dA), np.eye(dA)
    else:
        spec_o = observable.spectral()
        obs_values, obs_basis = spec_o.eigenvalues, spec_o.eigenvectors
    # Control in the X eigenbasis: |+> outcome +1, |-> outcome -1.
    counts = measure_in_basis(reduced, (HADAMARD, obs_basis), shots, child_rng(seed, 0))
    counts = counts.reshape(2, dA)

    x_signs = np.array([1.0, -1.0])
    xo_values = np.outer(x_signs, obs_values)
    samples_mean = float(np.sum(counts * xo_values) / shots)
    second = float(np.sum(counts * xo_values ** 2) / shots)
    stderr = float(np.sqrt(max(second - samples_mean ** 2, 0.0) / shots))
    x_mean = float(np.sum(counts * x_signs[:, None]) / shots)

    exact_x = float(np.real(np.vdot(branch0, branch1)))

    spec_a = rho.spectral()
    lam = np.clip(spec_a.eigenvalues, 0.0, None)
    moment_truth = float(np.sum(lam ** t))
    if observable is None:
        truth = moment_truth
        value = x_mean
        exact = exact_x
    else:
        power = spec_a.apply(lambda w: np.clip(w, 0.0, None) ** t)
        truth = float(np.vdot(power, observable.matrix).real)  # Tr(O rho^t), power Hermitian
        value = samples_mean
        exact = float(np.real(np.vdot(branch0, observable.matrix @ branch1)))

    return EstimatorReport(
        value=value,
        truth=truth,
        shots_used={"swap_test": shots},
        stderr=stderr,
        seed=seed,
        extras={
            "exact_expectation": exact,
            "moment_estimate": x_mean,
            "moment_truth": moment_truth,
            "exact_moment_expectation": exact_x,
            "ancilla_qubits": nB,
        },
    )


def single_copy_purity_attack(
    rho: DensityMatrix,
    total_budget: int,
    seed: int,
    *,
    shots_per_unitary: int = 8,
) -> EstimatorReport:
    """Single-copy purity strategy: global Haar randomized measurements.

    The per-setting depth is held constant across n (more settings, not
    deeper ones), which keeps the comparison in the regime where the
    sqrt(d) sampling cost of basis randomization is visible at desk
    scale; the report records n so scaling sweeps can be assembled
    downstream.
    """
    if rho.n > 10:
        raise GuardError(f"n = {rho.n} exceeds the single-copy guard of 10")
    if total_budget < 2 * shots_per_unitary:
        raise DomainError("budget too small for the pair statistic")
    shots_per = max(2, shots_per_unitary)
    unitaries = max(2, total_budget // shots_per)
    estimates = _rm_purity_estimates(rho, unitaries, shots_per, child_rng(seed, 0))
    value = float(estimates.mean())
    stderr = float(estimates.std(ddof=1) / math.sqrt(unitaries))
    return EstimatorReport(
        value=value,
        truth=rho.purity(),
        shots_used={"randomized_measurements": unitaries * shots_per},
        stderr=stderr,
        seed=seed,
        extras={"n": rho.n, "unitaries": unitaries, "shots_per_unitary": shots_per},
    )


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise DomainError("trials must be positive")
    p = successes / trials
    denom = 1 + z ** 2 / trials
    center = (p + z ** 2 / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z ** 2 / (4 * trials ** 2)) / denom
    return max(0.0, center - half), min(1.0, center + half)


_FAMILY_GROUP = {
    EnsembleFamily.PURITY_S1: "purity",
    EnsembleFamily.PURITY_S2: "purity",
    EnsembleFamily.VC_PCA_S1: "cooling",
    EnsembleFamily.VC_PCA_S2: "cooling",
    EnsembleFamily.FISHER_S1: "fisher",
    EnsembleFamily.FISHER_S2: "fisher",
}


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
        z1 = Observable(pauli_on(n, 0, PAULI_Z))
        if strategy == "purification":
            psi = purify(rho, 2)
            return estimate_virtual_cooling(psi, z1, 2, ShotBudget.split(budget), seed).value
        if n > 6:
            raise GuardError("plug-in tomography arm is guarded to n <= 6")
        est = tomography(rho, budget, child_rng(seed, 0)).estimate
        return float(np.real(np.trace(est.matrix @ est.matrix @ z1.matrix)))
    x1 = Observable(pauli_on(n, 0, PAULI_X))
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
        return {
            "n": self.n,
            "strategy": self.strategy,
            "budget": self.budget,
            "trials": self.trials,
            "success": self.success,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "threshold": self.threshold,
            "statistic": self.kind,
        }


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
