"""Finite-shot measurement simulation: Born sampling, tomography, purity.

Everything here consumes exact state objects and an explicit generator;
shot noise is the only randomness, so every estimator is reproducible
given (inputs, seed).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from .core import (
    DensityMatrix,
    HADAMARD,
    Observable,
    PureState,
    SpectralDecomposition,
    StateLike,
    eigh,
    kron_all,
)
from .ensembles import haar_unitary
from .errors import DimensionError, DomainError, GuardError, InsufficientDataError, ValidationError

_EIGENBASIS = {
    "X": HADAMARD,
    "Y": np.array([[1, 1], [1j, -1j]], dtype=complex) / np.sqrt(2),
    "Z": np.eye(2, dtype=complex),
}


@dataclass(frozen=True)
class ShotBudget:
    """How many measurement shots each protocol stage may consume."""

    tomography_shots: int = 0
    observable_shots: int = 0
    unitaries: int = 0
    shots_per_unitary: int = 0

    def __post_init__(self):
        values = (
            self.tomography_shots,
            self.observable_shots,
            self.unitaries,
            self.shots_per_unitary,
        )
        if any(v < 0 for v in values):
            raise ValidationError("shot counts must be nonnegative")
        if all(v == 0 for v in values):
            raise ValidationError("at least one stage needs a positive budget")

    @property
    def total(self) -> int:
        return self.tomography_shots + self.observable_shots + self.unitaries * self.shots_per_unitary

    @staticmethod
    def split(total: int, tomography_fraction: float = 0.5) -> "ShotBudget":
        """Two-stage budget with the default 50/50 tomography/observable split."""
        if total < 2:
            raise DomainError("total budget must be at least 2")
        tomo = int(round(total * tomography_fraction))
        tomo = min(max(tomo, 1), total - 1)
        return ShotBudget(tomography_shots=tomo, observable_shots=total - tomo)


def born_probabilities(state: StateLike, basis: np.ndarray) -> np.ndarray:
    """Outcome probabilities for measuring in the given orthonormal basis."""
    basis = np.asarray(basis, dtype=complex)
    if basis.shape[0] != state.dim:
        raise DimensionError(f"basis dimension {basis.shape[0]} != state dimension {state.dim}")
    if isinstance(state, PureState):
        p = np.abs(basis.conj().T @ state.amplitudes) ** 2
    else:
        spec = state.spectral()
        r = max(spec.rank, 1)
        overlaps = np.abs(basis.conj().T @ spec.eigenvectors[:, :r]) ** 2
        p = overlaps @ np.clip(spec.eigenvalues[:r], 0.0, None)
    p = np.clip(p.real, 0.0, None)
    return p / p.sum()


def measure_in_basis(
    state: StateLike, basis: np.ndarray, shots: int, rng: np.random.Generator
) -> np.ndarray:
    """Histogram of computational outcomes after rotating into ``basis``.

    Returns an integer array of length 2**n whose entries sum to ``shots``.
    """
    if shots < 1:
        raise DomainError("shots must be >= 1")
    probs = born_probabilities(state, basis)
    return rng.multinomial(shots, probs)


def histogram_to_json(counts: np.ndarray) -> dict[str, int]:
    """Bitstring-keyed JSON object for an outcome histogram."""
    counts = np.asarray(counts)
    n = int(np.log2(counts.size))
    return {format(k, f"0{n}b"): int(c) for k, c in enumerate(counts) if c}


def measure_observable(
    state: StateLike,
    observable: Union[Observable, np.ndarray],
    shots: int,
    rng: np.random.Generator,
) -> float:
    """Empirical mean of eigenvalue outcomes sampled in the observable's eigenbasis."""
    return measure_observable_with_stderr(state, observable, shots, rng)[0]


def measure_observable_with_stderr(
    state: StateLike,
    observable: Union[Observable, np.ndarray],
    shots: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Mean and standard error of the shot-sampled observable estimate."""
    if not isinstance(observable, Observable):
        observable = Observable(observable)
    if observable.dim != state.dim:
        raise DimensionError(
            f"observable dimension {observable.dim} != state dimension {state.dim}"
        )
    if shots < 1:
        raise DomainError("shots must be >= 1")
    spec = observable.spectral()
    values = spec.eigenvalues
    counts = measure_in_basis(state, spec.eigenvectors, shots, rng)
    mean = float(counts @ values / shots)
    second = float(counts @ (values ** 2) / shots)
    var = max(second - mean ** 2, 0.0)
    return mean, float(np.sqrt(var / shots))


@dataclass(frozen=True)
class TomographyResult:
    """PSD-projected state estimate plus the raw data that produced it.

    ``setting_counts[s, k]`` is how often setting s (the product-Pauli
    settings in ``itertools.product("XYZ", repeat=m)`` order) gave outcome k.
    """

    estimate: DensityMatrix
    raw_shots: int
    basis_settings: int
    linear_inversion: np.ndarray = field(repr=False)
    setting_counts: np.ndarray = field(repr=False)


def _setting_basis(setting: str) -> np.ndarray:
    return kron_all(*(_EIGENBASIS[letter] for letter in setting))


# _SNAPSHOT[letter, bit] = 3|b><b| - I for eigenvector b of X, Y or Z: the
# inverse of the single-qubit measurement channel (classical shadows).
_SNAPSHOT = np.array(
    [
        [3 * np.outer(u[:, b], u[:, b].conj()) - np.eye(2) for b in (0, 1)]
        for u in (_EIGENBASIS["X"], _EIGENBASIS["Y"], _EIGENBASIS["Z"])
    ]
)


def _psd_weights(w: np.ndarray) -> np.ndarray:
    """Eigenvalues with the negative part clipped, renormalized to trace 1."""
    w = np.clip(w, 0.0, None)
    return w / w.sum(axis=-1, keepdims=True)


def _shadow_inverse(counts: np.ndarray) -> np.ndarray:
    """Linear-inversion estimates from a (..., 3**m, 2**m) stack of count tables.

    Averages the product snapshot (x)_i (3|b_i><b_i| - I) over each
    setting's outcomes and then over the settings.  A Pauli string with
    support S is measured by 3**(m - |S|) settings, so this equals
    averaging each Pauli expectation over the settings that measure it and
    inverting the Pauli expansion.  A 0-qubit register estimates to [[1]].
    """
    lead = counts.shape[:-2]
    m = counts.shape[-1].bit_length() - 1
    if m == 0:
        return np.ones(lead + (1, 1), dtype=complex)
    totals = counts.sum(axis=-1, keepdims=True)
    t = (counts / totals).reshape((-1,) + (3,) * m + (2,) * m)
    for i in range(m):
        # contract qubit i's (setting, outcome) pair; its (row, col) pair is appended
        t = np.tensordot(t, _SNAPSHOT, axes=([1, 1 + m - i], [0, 1]))
    rows_then_cols = [0] + list(range(1, 2 * m, 2)) + list(range(2, 2 * m + 1, 2))
    d = 2 ** m
    return t.transpose(rows_then_cols).reshape(lead + (d, d)) / 3 ** m


def tomography(
    state: StateLike,
    shots: int,
    rng: np.random.Generator,
    *,
    max_dim: int = 64,
) -> TomographyResult:
    """Pauli-basis linear-inversion tomography with PSD projection.

    Shots are split evenly over the 3**m product-Pauli settings; the raw
    linear-inversion matrix is kept alongside the projected estimate so
    callers can bootstrap derived functionals.  A 0-qubit state draws no
    shots.
    """
    m = state.n
    d = state.dim
    if d > max_dim:
        raise GuardError(f"dimension {d} exceeds the tomography guard {max_dim}")
    if m and shots < d ** 2:
        raise InsufficientDataError(f"{shots} shots below the d^2 = {d ** 2} floor")
    settings = ["".join(s) for s in itertools.product("XYZ", repeat=m)]
    per, extra = divmod(shots, len(settings))
    counts = np.zeros((len(settings), d), dtype=np.int64)
    for k, setting in enumerate(settings if m else ()):
        basis = _setting_basis(setting)
        n_shots = per + (1 if k < extra else 0)
        counts[k] = measure_in_basis(state, basis, n_shots, rng)
    raw = _shadow_inverse(counts)
    projected = eigh(raw).apply(_psd_weights)
    return TomographyResult(
        estimate=DensityMatrix(projected, m),
        raw_shots=int(counts.sum()),
        basis_settings=len(settings),
        linear_inversion=raw,
        setting_counts=counts,
    )


def bootstrap_stderr(
    result: TomographyResult,
    functional: Callable[[SpectralDecomposition], np.ndarray],
    rng: np.random.Generator,
    resamples: int = 200,
) -> float:
    """Nonparametric bootstrap of a tomography-derived scalar.

    Resamples each setting's outcome counts multinomially, reconstructs
    and PSD-projects all resamples at once, and calls ``functional`` once
    on their spectra: a SpectralDecomposition whose arrays carry a leading
    resample axis (eigenvalues descending).  It returns one value per
    resample.
    """
    counts = result.setting_counts
    totals = counts.sum(axis=1)
    probs = counts / np.maximum(totals, 1)[:, None]
    draws = rng.multinomial(totals, probs, size=(resamples, totals.size))
    w, v = np.linalg.eigh(_shadow_inverse(draws))
    spectra = SpectralDecomposition(_psd_weights(w[..., ::-1]), v[..., ::-1])
    return float(np.std(functional(spectra), ddof=1))


def _haar_frame_probs(
    weights: np.ndarray, d: int, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Outcome probabilities of ``count`` Haar-basis measurements of a rank-r state.

    Rotating the measurement basis by Haar U is distributionally the same
    as rotating the state's support frame, so a d x r Ginibre QR per
    setting replaces the full d x d unitary.
    """
    r = weights.size
    z = rng.standard_normal((count, d, r)) + 1j * rng.standard_normal((count, d, r))
    q, _ = np.linalg.qr(z)
    probs = np.abs(q) ** 2 @ weights
    return probs / probs.sum(axis=1, keepdims=True)


def _rm_purity_estimates(
    state: StateLike,
    unitaries: int,
    shots_per_unitary: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Per-unitary unbiased purity estimates from the collision U-statistic."""
    if unitaries < 2:
        raise DomainError("need at least 2 random unitaries")
    if shots_per_unitary < 2:
        raise InsufficientDataError("the pair statistic needs at least 2 shots per unitary")
    d = state.dim
    m = shots_per_unitary

    if isinstance(state, PureState):
        weights = np.array([1.0])
        low_rank = True
    else:
        spec = state.spectral()
        r = max(spec.rank, 1)
        weights = np.clip(spec.eigenvalues[:r], 0.0, None)
        weights = weights / weights.sum()
        low_rank = r <= d // 2
    if low_rank:
        probs = _haar_frame_probs(weights, d, unitaries, rng)
        counts = np.empty((unitaries, d), dtype=np.int64)
        for k in range(unitaries):
            counts[k] = rng.multinomial(m, probs[k])
        collisions = ((counts * counts).sum(axis=1) - m) / (m * (m - 1))
        return (d + 1) * collisions - 1.0

    estimates = np.empty(unitaries)
    for k in range(unitaries):
        u = haar_unitary(d, rng)
        counts_k = measure_in_basis(state, u, m, rng)
        collisions = (counts_k @ counts_k - m) / (m * (m - 1))
        estimates[k] = (d + 1) * collisions - 1.0
    return estimates


def randomized_measurement_purity(
    state: StateLike,
    unitaries: int,
    shots_per_unitary: int,
    rng: np.random.Generator,
) -> float:
    """Single-copy purity estimate from global Haar randomized measurements.

    For a global Haar basis the collision probability averages to
    (1 + Tr rho^2) / (d + 1), so the pair-coincidence U-statistic gives an
    unbiased purity estimator; its spread carries the sqrt(d) cost.
    """
    return float(_rm_purity_estimates(state, unitaries, shots_per_unitary, rng).mean())
