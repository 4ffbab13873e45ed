"""Finite-shot measurement simulation: Born sampling, tomography, purity.

Everything here consumes exact state objects and an explicit generator;
shot noise is the only randomness, so every estimator is reproducible
given (inputs, seed).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Union

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
from .errors import DimensionError, DomainError, GuardError, InsufficientDataError, ValidationError

TOMOGRAPHY_GUARD = 64  # largest dimension tomography reconstructs
_BOOTSTRAP_RESAMPLES = 200  # multinomial resamples per bootstrap_stderr call
# Randomized measurements hold one chunk of _FRAME_CHUNK Ginibre frame entries
# at a time, as their real parts (2 MiB) and outcome probabilities, and one QR
# block of _QR_BLOCK entries (256 KiB complex) with its outcome counts.
_FRAME_CHUNK = 2 ** 18
_QR_BLOCK = 2 ** 14

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


def born_probabilities(state: StateLike, basis: Union[np.ndarray, tuple]) -> np.ndarray:
    """Outcome probabilities for measuring in the given orthonormal basis.

    ``basis`` is one unitary or a tuple of tensor factors, leftmost factor
    most significant.  A factor may also be a (k, d_i, d_i) stack of
    alternative bases: each stack adds a setting axis of length k to the
    result, in factor order, ahead of the outcome axis.  The state's
    support columns are rotated factor by factor, so a product basis is
    never formed as one matrix.
    """
    factors = basis if isinstance(basis, tuple) else (basis,)
    factors = [np.asarray(f, dtype=complex) for f in factors]
    settings = tuple(f.shape[0] for f in factors if f.ndim == 3)
    dims = [f.shape[-1] for f in factors]
    if math.prod(dims) != state.dim:
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


def measure_in_basis(
    state: StateLike, basis: Union[np.ndarray, tuple], shots: int, rng: np.random.Generator
) -> np.ndarray:
    """Histogram of computational outcomes after rotating into ``basis``.

    ``basis`` is as in :func:`born_probabilities`.  Returns an integer
    array of the probabilities' shape whose entries sum to ``shots``.  A
    stacked basis splits the shots evenly over its settings, the first
    ``shots % settings`` settings taking one more, and draws every
    setting with one multinomial call.  The probabilities are snapped to
    a 2^-40 grid and renormalised first, so where they sit on the grid
    (the hard instances) a roundoff change of the state moves no count.
    """
    if shots < 1:
        raise DomainError("shots must be >= 1")
    probs = np.round(born_probabilities(state, basis) * 2 ** 40)
    probs /= probs.sum(axis=-1, keepdims=True)
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
    observable: Union[Observable, np.ndarray, tuple],
    shots: int,
    rng: np.random.Generator,
) -> Union[tuple[float, float], tuple[list[float], list[float], list[int]]]:
    """Mean and standard error of the shot-sampled observable estimate.

    A tuple of factor observables measures their tensor product (leftmost
    factor most significant) in the product of their eigenbases, expanded
    into every factor's basis factors, so a per-qubit observable rotates
    one qubit at a time; each outcome's value is the product of the
    factors' eigenvalues.  The tuple's last factor may be a list of K
    observables of one dimension: one stacked draw measures each in its
    own eigenbasis, the shots split evenly over them as in
    :func:`measure_in_basis`, and the call returns the K means, standard
    errors and shot counts as three lists.
    """
    *head, last = observable if isinstance(observable, tuple) else (observable,)
    stacked = isinstance(last, (list, tuple))
    factors = [
        f if isinstance(f, Observable) else Observable(f) for f in (*head, *(last if stacked else [last]))
    ]
    head, members = factors[:len(head)], factors[len(head):]
    if len({g.dim for g in members}) != 1:
        raise DimensionError(f"stacked observables need one dimension, got {[g.dim for g in members]}")
    # The stack is the last factor, so the head rotates the state as an
    # unstacked call does; measure_in_basis checks the shots and dimension.
    tail = (np.stack([kron_all(*g.basis) for g in members]),) if stacked else members[0].basis
    counts = measure_in_basis(state, (*(b for f in head for b in f.basis), *tail), shots, rng)
    counts = counts.reshape(len(members), -1)
    means, stderrs = zip(*(
        _mean_stderr(c, functools.reduce(np.multiply.outer, [f.eigenvalues for f in (*head, g)]).ravel())
        for c, g in zip(counts, members)
    ))
    return (list(means), list(stderrs), counts.sum(axis=1).tolist()) if stacked else (means[0], stderrs[0])


@dataclass(frozen=True)
class TomographyResult:
    """PSD-projected state estimate plus the raw data that produced it.

    ``setting_counts[s, k]`` is how often product-Pauli setting s gave
    outcome k, settings in ``itertools.product("XYZ", repeat=m)`` order
    (qubit 0 most significant): one stacked :func:`measure_in_basis` draw.
    """

    estimate: DensityMatrix
    raw_shots: int
    basis_settings: int
    linear_inversion: np.ndarray = field(repr=False)
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
    with its eigenvalues clipped at 0 and renormalised; the raw matrix is
    kept alongside so callers can bootstrap derived functionals.  A
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
        raw_shots=int(counts.sum()),
        basis_settings=len(counts),
        linear_inversion=raw,
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
    r columns of a Haar unitary at any rank r <= d.  A chunk of
    ``_FRAME_CHUNK`` entries draws its frames' real parts, and each QR
    block of ``_QR_BLOCK`` entries its imaginary parts; after the chunk's
    last block its outcomes are drawn block by block, each reduced to its
    collision counts at once.  The draws consume the generator exactly as
    whole-chunk draws would, and memory stays bounded at any rank and
    budget.
    """
    if unitaries < 2:
        raise DomainError("need at least 2 random unitaries")
    if shots_per_unitary < 2:
        raise InsufficientDataError("the pair statistic needs at least 2 shots per unitary")
    d = state.dim
    m = shots_per_unitary
    _, weights = state.spectral().support()
    r = weights.size
    weights = weights / weights.sum()
    per_draw = max(1, _FRAME_CHUNK // (d * r))
    per_qr = max(1, _QR_BLOCK // (d * r))
    collisions = np.empty(unitaries)
    frames = np.empty((min(per_qr, unitaries), d, r), dtype=complex)
    for start in range(0, unitaries, per_draw):
        real = rng.standard_normal((min(per_draw, unitaries - start), d, r))
        probs = np.empty((len(real), d))
        for block in range(0, len(real), per_qr):
            z = frames[: len(real) - block]
            z.real = real[block:block + len(z)]
            z.imag = rng.standard_normal(z.shape)
            q, _ = np.linalg.qr(z)
            probs[block:block + len(z)] = np.abs(q) ** 2 @ weights
        probs /= probs.sum(axis=1, keepdims=True)
        for block in range(0, len(probs), per_qr):
            counts = rng.multinomial(m, probs[block:block + per_qr])
            pairs = np.einsum("ij,ij->i", counts, counts) - m
            collisions[start + block:start + block + len(counts)] = pairs / (m * (m - 1))
    return (d + 1) * collisions - 1.0
