"""Finite-shot measurement simulation: Born sampling, tomography, purity.

Everything here consumes exact state objects and an explicit generator;
shot noise is the only randomness, so every estimator is reproducible
given (inputs, seed).
"""

from __future__ import annotations

import functools
import itertools
import math
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


def _support(state: StateLike) -> tuple[np.ndarray, np.ndarray]:
    """Columns c_j and weights w_j with state = sum_j w_j |c_j><c_j|."""
    if isinstance(state, PureState):
        return state.amplitudes[:, None], np.ones(1)
    spec = state.spectral()
    r = max(spec.rank, 1)
    return spec.eigenvectors[:, :r], np.clip(spec.eigenvalues[:r], 0.0, None)


def born_probabilities(state: StateLike, basis: Union[np.ndarray, tuple]) -> np.ndarray:
    """Outcome probabilities for measuring in the given orthonormal basis.

    ``basis`` is one unitary or a tuple of tensor factors, leftmost factor
    most significant.  The state's support columns are rotated factor by
    factor, so a product basis is never formed as one matrix.
    """
    factors = basis if isinstance(basis, tuple) else (basis,)
    factors = [np.asarray(f, dtype=complex) for f in factors]
    dims = [f.shape[0] for f in factors]
    if math.prod(dims) != state.dim:
        raise DimensionError(f"basis dimension {math.prod(dims)} != state dimension {state.dim}")
    columns, weights = _support(state)
    t = columns.reshape(dims + [-1])
    for axis, u in enumerate(factors):
        moved = np.moveaxis(t, axis, 0)
        rotated = u.conj().T @ moved.reshape(dims[axis], -1)
        t = np.moveaxis(rotated.reshape(moved.shape), 0, axis)
    p = (np.abs(t) ** 2).reshape(state.dim, -1) @ weights
    p = np.clip(p.real, 0.0, None)
    return p / p.sum()


def measure_in_basis(
    state: StateLike, basis: Union[np.ndarray, tuple], shots: int, rng: np.random.Generator
) -> np.ndarray:
    """Histogram of computational outcomes after rotating into ``basis``.

    ``basis`` is one unitary or a tuple of tensor factors, as in
    :func:`born_probabilities`.  Returns an integer array of length 2**n
    whose entries sum to ``shots``.
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
    observable: Union[Observable, np.ndarray, tuple],
    shots: int,
    rng: np.random.Generator,
) -> float:
    """Empirical mean of eigenvalue outcomes sampled in the observable's eigenbasis."""
    return measure_observable_with_stderr(state, observable, shots, rng)[0]


def measure_observable_with_stderr(
    state: StateLike,
    observable: Union[Observable, np.ndarray, tuple],
    shots: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Mean and standard error of the shot-sampled observable estimate.

    A tuple of factor observables measures their tensor product (leftmost
    factor most significant) in the product of their eigenbases; each
    outcome's value is the product of the factors' eigenvalues.
    """
    factors = observable if isinstance(observable, tuple) else (observable,)
    specs = [(f if isinstance(f, Observable) else Observable(f)).spectral() for f in factors]
    dim = math.prod(spec.eigenvalues.size for spec in specs)
    if dim != state.dim:
        raise DimensionError(f"observable dimension {dim} != state dimension {state.dim}")
    if shots < 1:
        raise DomainError("shots must be >= 1")
    values = functools.reduce(np.multiply.outer, [spec.eigenvalues for spec in specs]).ravel()
    counts = measure_in_basis(state, tuple(spec.eigenvectors for spec in specs), shots, rng)
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


def _rm_purity_estimates(
    state: StateLike,
    unitaries: int,
    shots_per_unitary: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Per-unitary unbiased purity estimates from the collision U-statistic.

    Rotating the measurement basis by Haar U is distributionally the same
    as rotating the state's support frame, so a d x r Ginibre QR per
    setting replaces the full d x d unitary; the QR columns are the first
    r columns of a Haar unitary at any rank r <= d.
    """
    if unitaries < 2:
        raise DomainError("need at least 2 random unitaries")
    if shots_per_unitary < 2:
        raise InsufficientDataError("the pair statistic needs at least 2 shots per unitary")
    d = state.dim
    m = shots_per_unitary
    _, weights = _support(state)
    r = weights.size
    z = rng.standard_normal((unitaries, d, r)) + 1j * rng.standard_normal((unitaries, d, r))
    q, _ = np.linalg.qr(z)
    probs = np.abs(q) ** 2 @ (weights / weights.sum())
    counts = rng.multinomial(m, probs / probs.sum(axis=1, keepdims=True))
    collisions = ((counts * counts).sum(axis=1) - m) / (m * (m - 1))
    return (d + 1) * collisions - 1.0


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
