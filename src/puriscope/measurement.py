"""Finite-shot measurement simulation: Born sampling, tomography, purity.

Everything here consumes exact state objects and an explicit generator;
shot noise is the only randomness, so every estimator is reproducible
given (inputs, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import (
    DensityMatrix,
    HADAMARD,
    Observable,
    SpectralDecomposition,
    StateLike,
    eigh,
    kron_all,
)
from .ensembles import _ginibre
from .errors import DimensionError, DomainError, GuardError, InsufficientDataError, ValidationError

TOMOGRAPHY_GUARD = 64  # largest dimension tomography reconstructs
_BOOTSTRAP_RESAMPLES = 200  # multinomial resamples per bootstrap_stderr call
# Randomized measurements sample one block of frames at a time: per block, the
# real parts, then the imaginary parts of its Ginibre frames, then one uniform
# per shot.  A block holds about _RM_BLOCK bytes of complex frame entries (16
# bytes each) or of shot-outcome comparisons (1 byte each), whichever is more.
_RM_BLOCK = 2 ** 17

# Eigenbases of X, Y and Z (columns), stacked: one qubit's tomography settings.
_PAULI_BASES = np.array(
    [HADAMARD, np.array([[1, 1], [1j, -1j]]) / np.sqrt(2), np.eye(2)], dtype=complex
)


@dataclass(frozen=True)
class ShotBudget:
    """How many measurement shots each protocol stage may consume."""

    tomography_shots: int = 0
    observable_shots: int = 0

    def __post_init__(self):
        if self.tomography_shots < 0 or self.observable_shots < 0:
            raise ValidationError("shot counts must be nonnegative")
        if self.total == 0:
            raise ValidationError("at least one stage needs a positive budget")

    @property
    def total(self) -> int:
        return self.tomography_shots + self.observable_shots

    @staticmethod
    def split(total: int) -> "ShotBudget":
        """Two-stage budget split 50/50 between tomography and the observable (half to even)."""
        if total < 2:
            raise DomainError("total budget must be at least 2")
        tomo = round(total / 2)
        return ShotBudget(tomography_shots=tomo, observable_shots=total - tomo)


def born_probabilities(state: StateLike, basis: tuple) -> np.ndarray:
    """Outcome probabilities for measuring in the given orthonormal basis.

    ``basis`` is a tuple of tensor factors, leftmost factor most
    significant.  A factor may also be a (k, d_i, d_i) stack of
    alternative bases: each stack adds a setting axis of length k to the
    result, in factor order, ahead of the outcome axis.  The state's
    support columns are rotated factor by factor, so a product basis is
    never formed as one matrix.
    """
    factors = [np.asarray(f, dtype=complex) for f in basis]
    settings = tuple(f.shape[0] for f in factors if f.ndim == 3)
    dims = [f.shape[-1] for f in factors]
    if any(f.ndim < 2 for f in factors) or math.prod(dims) != state.dim:
        raise DimensionError(f"basis dimension {math.prod(dims)} != state dimension {state.dim}")
    columns, weights = state.spectral().support()
    t = columns.reshape(dims + [-1])
    for i, f in enumerate(factors):
        # t is (k_{i-1}, d_{i-1}, ..., k_0, d_0, d_i, ..., r); an unstacked factor has k = 1
        t = np.tensordot(f.reshape((-1,) + f.shape[-2:]).conj(), t, axes=([1], [2 * i]))
    m = len(factors)
    p = ((np.abs(t) ** 2).reshape(-1, weights.size) @ weights).reshape(t.shape[:-1])
    # setting axes first, then outcome axes, each with factor 0 leading
    p = p.transpose(list(range(2 * m - 2, -1, -2)) + list(range(2 * m - 1, 0, -2)))
    p = np.clip(p.reshape(settings + (state.dim,)), 0.0, None)
    return p / p.sum(axis=-1, keepdims=True)


def _born_on_grid(state: StateLike, basis: tuple) -> np.ndarray:
    """:func:`born_probabilities` snapped to a 2^-40 grid and renormalised.

    Where they sit on the grid (the hard instances), a roundoff change of the state moves no draw.
    """
    probs = np.round(born_probabilities(state, basis) * 2 ** 40)
    return probs / probs.sum(axis=-1, keepdims=True)


def measure_in_basis(state: StateLike, basis: tuple, shots: int, rng: np.random.Generator) -> np.ndarray:
    """Histogram of computational outcomes after rotating into ``basis``.

    ``basis`` is as in :func:`born_probabilities`.  Returns an integer
    array of the probabilities' shape whose entries sum to ``shots``.  A
    stacked basis splits the shots evenly over its settings, the first
    ``shots % settings`` settings taking one more, and draws every
    setting with one multinomial call on :func:`_born_on_grid`.
    """
    if shots < 1:
        raise DomainError("shots must be >= 1")
    probs = _born_on_grid(state, basis)
    settings = probs.shape[:-1]
    per, extra = divmod(shots, math.prod(settings))
    shares = per + (np.arange(math.prod(settings)) < extra)
    return rng.multinomial(shares.reshape(settings), probs)


def _mean_stderr(counts: np.ndarray, values: np.ndarray) -> tuple[float, float]:
    """Mean of per-outcome ``values`` over an outcome histogram, and its standard error."""
    shots = counts.sum()
    mean = float(counts @ values / shots)
    var = max(float(counts @ (values ** 2) / shots) - mean ** 2, 0.0)
    return mean, float(np.sqrt(var / shots))


def measure_observable_with_stderr(
    state: StateLike,
    observable: tuple[Observable, list],
    shots: int,
    rng: np.random.Generator,
) -> tuple[list[float], list[float], list[int]]:
    """Means, standard errors and shot counts of O (x) g_i for every g_i in one stacked draw.

    ``observable`` is (O, [g_1, ..., g_K]), the g_i Hermitian matrices of
    one dimension.  O's basis factors rotate the state first, so a
    per-qubit O rotates one qubit at a time; the stack of the g_i's
    eigenbases is the last factor, with the shots split evenly over it as
    in :func:`measure_in_basis`.  Each outcome's value is the product of
    O's and g_i's eigenvalues.
    """
    head, gs = observable
    members = [Observable(g) for g in gs]
    if len({g.dim for g in members}) != 1:
        raise DimensionError(f"stacked observables need one dimension, got {[g.dim for g in members]}")
    stack = np.stack([kron_all(*g.basis) for g in members])
    counts = measure_in_basis(state, (*head.basis, stack), shots, rng).reshape(len(members), -1)
    means, stderrs = zip(*(
        _mean_stderr(c, np.multiply.outer(head.eigenvalues, g.eigenvalues).ravel())
        for c, g in zip(counts, members)
    ))
    return list(means), list(stderrs), counts.sum(axis=1).tolist()


@dataclass(frozen=True)
class TomographyResult:
    """PSD-projected state estimate plus the raw data that produced it.

    ``setting_counts[s, k]`` is how often product-Pauli setting s gave
    outcome k, settings in ``itertools.product("XYZ", repeat=m)`` order
    (qubit 0 most significant): one stacked :func:`measure_in_basis` draw.
    """

    estimate: DensityMatrix
    setting_counts: np.ndarray = field(repr=False)


# _SNAPSHOT[letter, bit] = 3|b><b| - I for eigenvector b of X, Y or Z: the
# inverse of the single-qubit measurement channel (classical shadows).
_SNAPSHOT = np.array(
    [
        [3 * np.outer(u[:, b], u[:, b].conj()) - np.eye(2) for b in (0, 1)]
        for u in _PAULI_BASES
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


def tomography(state: StateLike, shots: int, rng: np.random.Generator) -> TomographyResult:
    """Pauli-basis linear-inversion tomography with PSD projection.

    One :func:`measure_in_basis` call on the stack of X, Y and Z eigenbases
    per qubit draws all 3**m product-Pauli settings, the shots split evenly
    over them.  The estimate is the raw linear-inversion matrix's one eigh
    with its eigenvalues clipped at 0 and renormalised; the count table is
    kept alongside so callers can bootstrap derived functionals, and
    ``_shadow_inverse(setting_counts)`` rebuilds the raw matrix.  A
    0-qubit state draws no shots.
    """
    m = state.n
    d = state.dim
    if d > TOMOGRAPHY_GUARD:
        raise GuardError(f"dimension {d} exceeds the tomography guard {TOMOGRAPHY_GUARD}")
    if m and shots < d ** 2:
        raise InsufficientDataError(f"{shots} shots below the d^2 = {d ** 2} floor")
    counts = np.zeros((1, 1), dtype=np.int64)
    if m:
        counts = measure_in_basis(state, (_PAULI_BASES,) * m, shots, rng).reshape(3 ** m, d)
    raw = _shadow_inverse(counts)
    spectrum = eigh(raw)
    return TomographyResult(
        estimate=DensityMatrix.from_spectrum(
            SpectralDecomposition(_psd_weights(spectrum.eigenvalues), spectrum.eigenvectors), m
        ),
        setting_counts=counts,
    )


def bootstrap_stderr(
    result: TomographyResult,
    functional: Callable[[SpectralDecomposition], np.ndarray],
    rng: np.random.Generator,
) -> float:
    """Nonparametric bootstrap of a tomography-derived scalar.

    Resamples each setting's outcome counts multinomially
    ``_BOOTSTRAP_RESAMPLES`` times, reconstructs and PSD-projects all
    resamples at once, and calls ``functional`` once on their spectra: a
    SpectralDecomposition whose arrays carry a leading resample axis
    (eigenvalues descending).  It returns one value per resample.
    """
    counts = result.setting_counts
    totals = counts.sum(axis=1)
    probs = counts / np.maximum(totals, 1)[:, None]
    draws = rng.multinomial(totals, probs, size=(_BOOTSTRAP_RESAMPLES, totals.size))
    w, v = np.linalg.eigh(_shadow_inverse(draws))
    spectra = SpectralDecomposition(_psd_weights(w[..., ::-1]), v[..., ::-1])
    return float(np.std(functional(spectra), ddof=1))


def _rm_purity_estimates(
    state: StateLike,
    unitaries: int,
    shots_per_unitary: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Per-unitary unbiased purity estimates from global Haar randomized measurements.

    For a global Haar basis the collision probability averages to
    (1 + Tr rho^2) / (d + 1), so (d + 1) times the pair-coincidence
    U-statistic, less 1, is an unbiased purity estimate; its spread
    carries the sqrt(d) cost.

    Rotating the measurement basis by Haar U is distributionally the same
    as rotating the state's support frame, so a d x r Ginibre QR per
    setting replaces the full d x d unitary; the QR columns are the first
    r columns of a Haar unitary at any rank r <= d.  Frames are sampled
    in blocks of about ``_RM_BLOCK`` bytes.  Each block draws its frames'
    real parts, then their imaginary parts, then one uniform u per shot;
    a shot's outcome is the first whose cumulative Born weight exceeds
    u times the total (inverse CDF), and the block is reduced to its
    collision counts before the next.  Memory stays bounded at any rank
    and number of unitaries.
    """
    if unitaries < 2:
        raise DomainError("need at least 2 random unitaries")
    if shots_per_unitary < 2:
        raise InsufficientDataError("the pair statistic needs at least 2 shots per unitary")
    d = state.dim
    m = shots_per_unitary
    _, weights = state.spectral().support()
    r = weights.size
    per_block = max(1, _RM_BLOCK // (d * max(16 * r, m)))
    collisions = np.empty(unitaries)
    for start in range(0, unitaries, per_block):
        frames = min(per_block, unitaries - start)
        q, _ = np.linalg.qr(_ginibre((frames, d, r), rng))
        cdf = np.cumsum(np.abs(q) ** 2 @ weights, axis=1)
        u = rng.random((frames, m))
        # A shot's outcome counts the cumulative weights, the last left out,
        # at or below u * total; offsetting frame i's outcomes by i * d lets
        # one bincount tally the whole block.
        outcomes = (cdf[:, None, :-1] <= (u * cdf[:, -1:])[..., None]).sum(axis=2)
        outcomes += d * np.arange(frames)[:, None]
        counts = np.bincount(outcomes.ravel(), minlength=frames * d).reshape(frames, d)
        pairs = np.einsum("ij,ij->i", counts, counts) - m
        collisions[start:start + frames] = pairs / (m * (m - 1))
    return (d + 1) * collisions - 1.0
