"""Channel learning through the Stinespring dilation.

A channel's dilation plays the same role for channel learning that a
purification plays for state learning: feeding the maximally mixed state
through the isometry leaves the canonical Kraus weights on the diagonal
of the small environment register, where tomography is cheap.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Union

import numpy as np

from .core import (
    DensityMatrix,
    Observable,
    PAULI_I,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    eigh,
    kron_all,
)
from .errors import DomainError, GapError, GuardError, ValidationError
from .estimators import _principal, _two_stage
from .measurement import ShotBudget
from .reports import EstimatorReport

COMPLETENESS_ATOL = 1e-9
ISOMETRY_ATOL = 1e-9
KRAUS_ORTHO_ATOL = 1e-8
ENV_GUARD = 3


@dataclass(frozen=True)
class QuantumChannel:
    """Completely positive trace-preserving map given by Kraus operators."""

    kraus: tuple[np.ndarray, ...]
    n: int

    def __post_init__(self):
        d = 2 ** self.n
        ops = tuple(np.asarray(k, dtype=complex) for k in self.kraus)
        if not ops:
            raise ValidationError("a channel needs at least one Kraus operator")
        for k in ops:
            if k.shape != (d, d):
                raise ValidationError(f"Kraus shape {k.shape} != ({d}, {d})")
        total = sum(k.conj().T @ k for k in ops)
        if np.abs(total - np.eye(d)).max() > COMPLETENESS_ATOL:
            raise ValidationError("Kraus operators are not trace preserving within 1e-9")
        object.__setattr__(self, "kraus", ops)

    @property
    def dim(self) -> int:
        return 2 ** self.n

    def apply(self, rho: Union[DensityMatrix, np.ndarray]) -> np.ndarray:
        m = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
        out = np.zeros_like(m)
        for k in self.kraus:
            out += k @ m @ k.conj().T
        return out

    def choi(self) -> np.ndarray:
        """Choi state (E (x) I)(|Phi+><Phi+|) with the normalized Bell pair."""
        d = self.dim
        c = np.zeros((d * d, d * d), dtype=complex)
        for k in self.kraus:
            v = k.reshape(-1)
            c += np.outer(v, v.conj())
        return c / d

    def unitarity(self) -> float:
        c = self.choi()
        return float(np.real(np.trace(c @ c)))

    def to_json(self) -> list:
        return [[[z.real, z.imag] for z in k.reshape(-1)] for k in self.kraus]

    @staticmethod
    def from_json(obj: list, n: int) -> "QuantumChannel":
        d = 2 ** n
        ops = []
        for flat in obj:
            arr = np.array([complex(re, im) for re, im in flat]).reshape(d, d)
            ops.append(arr)
        return QuantumChannel(tuple(ops), n)


@dataclass(frozen=True)
class StinespringIsometry:
    """Canonical dilation V = sum_i sqrt(p_i) E_i (x) |i>_B.

    The environment register B sits after the system register; a unitary
    channel gets b = 0 with a dimension-1 identity ancilla so every code
    path stays uniform.
    """

    matrix: np.ndarray
    b: int
    weights: np.ndarray
    canonical_kraus: tuple[np.ndarray, ...]
    n: int

    def __post_init__(self):
        v = np.asarray(self.matrix, dtype=complex)
        d = 2 ** self.n
        dB = 2 ** self.b
        if v.shape != (d * dB, d):
            raise ValidationError(f"isometry shape {v.shape} != ({d * dB}, {d})")
        if np.abs(v.conj().T @ v - np.eye(d)).max() > ISOMETRY_ATOL:
            raise ValidationError("V^dag V deviates from the identity beyond 1e-9")
        w = np.asarray(self.weights, dtype=float)
        if abs(w.sum() - 1.0) > 1e-10:
            raise ValidationError("canonical weights must sum to 1 within 1e-10")
        if np.any(np.diff(w) > 1e-12):
            raise ValidationError("canonical weights must be in descending order")
        ops = tuple(np.asarray(k, dtype=complex) for k in self.canonical_kraus)
        for i, ki in enumerate(ops):
            for j, kj in enumerate(ops):
                want = d if i == j else 0.0
                if abs(np.trace(ki.conj().T @ kj) - want) > KRAUS_ORTHO_ATOL * d:
                    raise ValidationError("canonical Kraus operators are not orthonormal")
        object.__setattr__(self, "matrix", v)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "canonical_kraus", ops)

    @property
    def dim(self) -> int:
        return 2 ** self.n

    @property
    def env_dim(self) -> int:
        return 2 ** self.b

    def output_state(self, rho_in: DensityMatrix) -> DensityMatrix:
        """Joint system-environment state V rho V^dag on n + b qubits."""
        if rho_in.n != self.n:
            raise DomainError(f"input has {rho_in.n} qubits, channel expects {self.n}")
        joint = self.matrix @ rho_in.matrix @ self.matrix.conj().T
        return DensityMatrix(joint, self.n + self.b)

    def env_state(self, rho_in: DensityMatrix) -> DensityMatrix:
        """Environment marginal Tr_A(V rho V^dag); dimension-1 state when b = 0."""
        d, dB = self.dim, self.env_dim
        joint = self.output_state(rho_in).matrix.reshape(d, dB, d, dB)
        return DensityMatrix(np.einsum("abad->bd", joint), self.b)

    def apply(self, rho_in: DensityMatrix) -> np.ndarray:
        """Channel action Tr_B(V rho V^dag) recovered from the dilation."""
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for p, k in zip(self.weights, self.canonical_kraus):
            out += p * (k @ rho_in.matrix @ k.conj().T)
        return out

    def distilled_truth(self, rho_in: DensityMatrix, observable: Observable) -> float:
        """Kraus-sum oracle sum_i p_i^2 Tr(O E_i rho E_i^dag)."""
        total = 0.0
        for p, k in zip(self.weights, self.canonical_kraus):
            total += p ** 2 * float(
                np.real(np.trace(observable.matrix @ k @ rho_in.matrix @ k.conj().T))
            )
        return total

    def principal_truth(self, rho_in: DensityMatrix, observable: Observable) -> float:
        """Kraus oracle Tr(O E_0 rho E_0^dag) for the leading component."""
        k = self.canonical_kraus[0]
        return float(np.real(np.trace(observable.matrix @ k @ rho_in.matrix @ k.conj().T)))


def maximally_mixed(n: int) -> DensityMatrix:
    d = 2 ** n
    return DensityMatrix(np.eye(d) / d, n)


def canonicalize(channel: QuantumChannel, rank_tol: float = 1e-9) -> StinespringIsometry:
    """Canonical Kraus form and dilation from the Choi eigendecomposition.

    Choi eigenvalues below rank_tol (relative) are dropped; the kept
    weights are renormalized and the ancilla takes ceil(log2 rank) qubits.
    """
    choi = channel.choi()
    spec = eigh(choi, rank_tol)
    r = spec.rank
    if r < 1:
        raise ValidationError("channel has an empty Choi support")
    weights = np.clip(spec.eigenvalues[:r], 0.0, None)
    weights = weights / weights.sum()
    d = channel.dim
    kraus = tuple(np.sqrt(d) * spec.eigenvectors[:, i].reshape(d, d) for i in range(r))
    b = int(np.ceil(np.log2(r)))
    dB = 2 ** b
    v = np.zeros((d, dB, d), dtype=complex)  # row index (system, environment)
    for i in range(r):
        v[:, i, :] = np.sqrt(weights[i]) * kraus[i]
    return StinespringIsometry(
        matrix=v.reshape(d * dB, d), b=b, weights=weights, canonical_kraus=kraus, n=channel.n
    )


def _guard_env(iso: StinespringIsometry):
    if iso.b > ENV_GUARD:
        raise GuardError(f"environment register b = {iso.b} exceeds guard {ENV_GUARD}")


def unitarity_estimate(iso: StinespringIsometry, budget: ShotBudget, seed: int) -> EstimatorReport:
    """Estimate sum_i p_i^2 by tomographing the environment of a mixed-input run."""
    _guard_env(iso)
    report = _two_stage(
        iso.env_state(maximally_mixed(iso.n)),
        budget,
        seed,
        spectral=lambda w: np.sum(np.clip(w, 0.0, None) ** 2, axis=-1),
    )[0]
    report.truth = float(np.sum(iso.weights ** 2))
    return report


def virtual_distillation_estimate(
    iso: StinespringIsometry,
    rho_in: DensityMatrix,
    observable: Observable,
    budget: ShotBudget,
    seed: int,
) -> EstimatorReport:
    """Estimate Tr[O E^(2)(rho)] where the distilled channel squares the Choi state.

    Stage 1 calibrates the environment state from a maximally mixed run;
    stage 2 measures O (x) rho_B_hat on the dilated output of rho_in.
    """
    _guard_env(iso)
    if observable.dim != iso.dim:
        raise DomainError("observable dimension does not match the channel")
    report = _two_stage(
        iso.env_state(maximally_mixed(iso.n)),
        budget,
        seed,
        joint=iso.output_state(rho_in),
        observable=observable,
        terms=lambda spec: [(1.0, spec.reconstruct())],
    )[0]
    report.truth = iso.distilled_truth(rho_in, observable)
    return report


def channel_pca_estimate(
    iso: StinespringIsometry,
    rho_in: DensityMatrix,
    observable: Observable,
    budget: ShotBudget,
    seed: int,
    *,
    min_gap: float = 0.05,
) -> EstimatorReport:
    """Estimate Tr(O E_0 rho E_0^dag), the action of the leading Kraus component."""
    _guard_env(iso)
    if observable.dim != iso.dim:
        raise DomainError("observable dimension does not match the channel")
    gap = float(iso.weights[0] - iso.weights[1]) if iso.weights.size > 1 else float(iso.weights[0])
    if gap < min_gap:
        raise GapError(f"leading-weight gap {gap:.4f} below required {min_gap}")
    report = _two_stage(
        iso.env_state(maximally_mixed(iso.n)),
        budget,
        seed,
        joint=iso.output_state(rho_in),
        observable=observable,
        terms=lambda spec: [_principal(spec)],
    )[0]
    report.truth = iso.principal_truth(rho_in, observable)
    return report


def unitary_channel(u: np.ndarray) -> QuantumChannel:
    u = np.asarray(u, dtype=complex)
    n = int(np.log2(u.shape[0]))
    return QuantumChannel((u,), n)


def depolarizing_channel(rate: float, n: int = 1) -> QuantumChannel:
    """Mixes the input with the maximally mixed state at the given rate."""
    if not 0.0 <= rate <= 1.0 + 1e-12:
        raise DomainError("depolarizing rate must lie in [0, 1]")
    d = 2 ** n
    singles = [PAULI_I, PAULI_X, PAULI_Y, PAULI_Z]
    kraus = []
    for combo in itertools.product(range(4), repeat=n):
        p = kron_all(*(singles[i] for i in combo))
        if all(i == 0 for i in combo):
            weight = 1.0 - rate * (d * d - 1) / (d * d)
        else:
            weight = rate / (d * d)
        if weight > 0:
            kraus.append(np.sqrt(weight) * p)
    return QuantumChannel(tuple(kraus), n)


def amplitude_damping_channel(gamma: float) -> QuantumChannel:
    if not 0.0 <= gamma <= 1.0:
        raise DomainError("damping strength must lie in [0, 1]")
    k0 = np.array([[1, 0], [0, np.sqrt(1 - gamma)]], dtype=complex)
    k1 = np.array([[0, np.sqrt(gamma)], [0, 0]], dtype=complex)
    return QuantumChannel((k0, k1), 1)


def random_channel(n: int, choi_rank: int, rng: np.random.Generator) -> QuantumChannel:
    """Haar-random channel of bounded Choi rank from a random isometry."""
    d = 2 ** n
    if not 1 <= choi_rank <= d * d:
        raise DomainError(f"choi rank {choi_rank} outside [1, {d * d}]")
    z = rng.standard_normal((d * choi_rank, d)) + 1j * rng.standard_normal((d * choi_rank, d))
    q, r = np.linalg.qr(z)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    kraus = tuple(q[e * d:(e + 1) * d, :] for e in range(choi_rank))
    return QuantumChannel(kraus, n)
