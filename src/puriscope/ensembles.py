"""Haar-random sampling and the hard-instance state families.

Every sampler is pure given (spec, seed): a master seed plus a sample index
derive an independent child generator, so batches can fan out across
workers in any order and still reproduce bit-identically.

Family parameter ``n`` always counts the qubits of the sampled state
itself.  Each fixed family's ``_FAMILIES`` row lists its rank-one
components: a fixed prefix ket on the leading qubits times a Haar-random
vector on the trailing ones (the two purity families have no prefix and
draw both vectors from the full ``2**n``-dimensional space).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple, Optional

import numpy as np

from .core import DensityMatrix, PureState, basis_state
from .errors import CapacityError, DimensionError, DomainError, ValidationError

_E0, _E1 = basis_state(1, 0), basis_state(1, 1)
_PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)
_MINUS = np.array([1, -1], dtype=complex) / np.sqrt(2)


def child_rng(master_seed: int, *index: int) -> np.random.Generator:
    """Independent generator derived from a master seed and a sample index."""
    return np.random.default_rng(np.random.SeedSequence(entropy=master_seed, spawn_key=index))


def _ginibre(shape: tuple, rng: np.random.Generator) -> np.ndarray:
    """Complex Gaussian entries with N(0, 1) real and imaginary parts, real parts drawn first.

    numpy refuses a draw past the address space with a ValueError; no memory
    could hold it, so it raises the MemoryError of a failed allocation.
    """
    if math.prod(shape) * np.dtype(complex).itemsize > np.iinfo(np.intp).max:
        size = f"2**{shape[0].bit_length() - 1}" if shape[0] & (shape[0] - 1) == 0 else shape[0]
        what = f"{shape[1]} columns of {size}" if len(shape) == 2 else size
        raise MemoryError(f"{what} amplitudes exceed the address space")
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _haar_frame(z: np.ndarray) -> np.ndarray:
    """Orthonormal columns of a Ginibre matrix z: its thin QR's Q with R's diagonal phases fixed."""
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a Ginibre matrix with phase-fixed R."""
    if dim < 1:
        raise DomainError(f"dimension {dim} must be >= 1")
    return _haar_frame(_ginibre((dim, dim), rng) / np.sqrt(2))


def _haar_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = _ginibre((dim,), rng)
    return z / np.linalg.norm(z)


class EnsembleFamily(str, Enum):
    PURITY_S1 = "purity_s1"
    PURITY_S2 = "purity_s2"
    VC_PCA_S1 = "vc_pca_s1"
    VC_PCA_S2 = "vc_pca_s2"
    FISHER_S1 = "fisher_s1"
    FISHER_S2 = "fisher_s2"
    CLASS_CORR_CS1 = "class_corr_cs1"
    CLASS_CORR_CS2 = "class_corr_cs2"
    HAAR_PURE = "haar_pure"
    RANDOM_RANK_R = "random_rank_r"


# Statistic a hidden-label trial separates -> the (first, second) family of its pair.
SEPARATION_PAIRS = {
    "purity": (EnsembleFamily.PURITY_S1, EnsembleFamily.PURITY_S2),
    "cooling": (EnsembleFamily.VC_PCA_S1, EnsembleFamily.VC_PCA_S2),
    "fisher": (EnsembleFamily.FISHER_S1, EnsembleFamily.FISHER_S2),
}


class _Family(NamedTuple):
    """What a family's construction fixes: its qubit floor, components and exact means.

    A component (weight, prefix, draw) is the Kronecker product of the prefix
    kets, leftmost most significant, with the Haar vector named ``draw`` on
    the remaining qubits.  Components naming one draw share its vector, and
    the vectors are drawn in order of first use.  The number of components
    is the family's rank.
    """

    min_qubits: int
    components: tuple[tuple[float, tuple[np.ndarray, ...], str], ...]  # (): random_rank_r
    mean_purity: Optional[Callable[[int], float]]  # E[Tr rho^2] at n; None: sum of the spec's w^2
    statistic_mean: Optional[float] = None  # the cooling or Fisher statistic's exact mean


# Two three-level registers, each level embedded in two qubits as |00>, |01>,
# |10>: level k on both registers is the four-qubit ket |5k>.
_LEVELS = [basis_state(4, 5 * k) for k in range(3)]

# PURITY_S1's second weight is 1.0 - 0.9, not the float 0.1: the pinned draws use it.
_FAMILIES = {
    EnsembleFamily.PURITY_S1: _Family(1, ((0.9, (), "u"), (1.0 - 0.9, (), "v")), lambda n: 0.82 + 0.18 / 2 ** n),
    EnsembleFamily.PURITY_S2: _Family(1, ((0.5, (), "u"), (0.5, (), "v")), lambda n: 0.5 + 0.5 / 2 ** n),
    # Tr(rho^2 Z) on the flag qubit: +-(0.5^2 - 2 * 0.25^2).
    EnsembleFamily.VC_PCA_S1: _Family(
        2, ((0.5, (_E0,), "psi1"), (0.25, (_E1, _E0), "psi2"), (0.25, (_E1, _E1), "psi3")), lambda n: 0.375, 0.125
    ),
    EnsembleFamily.VC_PCA_S2: _Family(
        2, ((0.5, (_E1,), "psi1"), (0.25, (_E0, _E0), "psi2"), (0.25, (_E0, _E1), "psi3")), lambda n: 0.375, -0.125
    ),
    # Support-QFI of the X-flip observable: 1/14 on the structured family,
    # 0 on its Hadamard twin (large-n anchors).
    EnsembleFamily.FISHER_S1: _Family(
        2,
        ((0.5, (_E0,), "u"), (0.375, (_E1,), "u"), (0.125, (_E1,), "v")),
        lambda n: 0.40625 + 0.09375 / 2 ** (n - 1),
        1.0 / 14.0,
    ),
    EnsembleFamily.FISHER_S2: _Family(
        2,
        ((0.5, (_PLUS,), "u"), (0.375, (_MINUS,), "u"), (0.125, (_MINUS,), "v")),
        lambda n: 0.40625 + 0.09375 / 2 ** (n - 1),
        0.0,
    ),
    EnsembleFamily.CLASS_CORR_CS1: _Family(
        5, ((0.5, (_LEVELS[0],), "u"), (0.375, (_LEVELS[1],), "u"), (0.125, (_LEVELS[2],), "v")), lambda n: 0.40625
    ),
    EnsembleFamily.CLASS_CORR_CS2: _Family(
        5, ((0.5, (_LEVELS[0],), "u"), (0.375, (_LEVELS[1],), "v"), (0.125, (_LEVELS[2],), "v")), lambda n: 0.40625
    ),
    EnsembleFamily.HAAR_PURE: _Family(1, ((1.0, (), "u"),), lambda n: 1.0),
    EnsembleFamily.RANDOM_RANK_R: _Family(1, (), None),
}


@dataclass(frozen=True)
class EnsembleSpec:
    """Which family to draw from, at what size."""

    family: EnsembleFamily
    n: int
    rank: Optional[int] = None
    weights: Optional[tuple[float, ...]] = None

    def __post_init__(self):
        family = EnsembleFamily(self.family)
        object.__setattr__(self, "family", family)
        floor = _FAMILIES[family].min_qubits
        if self.n < floor:
            raise DomainError(f"{family.value} requires n >= {floor}, got {self.n}")
        if family is EnsembleFamily.RANDOM_RANK_R:
            if self.rank is None or self.rank < 1:
                raise DomainError("random_rank_r requires rank >= 1")
            if self.rank > 2 ** self.n:
                raise DomainError(f"rank {self.rank} exceeds dimension {2 ** self.n}")
            if self.weights is None:
                raise DomainError("random_rank_r requires explicit weights")
            w = np.asarray(self.weights, dtype=float)
            if w.size != self.rank:
                raise ValidationError(f"{w.size} weights for rank {self.rank}")
            if np.any(w < 0) or not abs(w.sum() - 1.0) <= 1e-12:
                raise ValidationError("weights must be nonnegative and sum to 1 within 1e-12")
            object.__setattr__(self, "weights", tuple(float(x) for x in w))
        elif self.rank is not None or self.weights is not None:
            raise DomainError(f"{family.value} has a fixed rank; rank and weights are for random_rank_r")

    @property
    def declared_rank(self) -> int:
        return int(self.rank) if self.rank is not None else len(_FAMILIES[self.family].components)


@dataclass(frozen=True)
class LabeledSample:
    """A drawn state plus the hidden randomness that produced it.

    The hidden record exists for oracle checks and scoring only; protocol
    code must not look at it.
    """

    rho: DensityMatrix
    hidden: dict


def analytic_mean_purity(spec: EnsembleSpec) -> float:
    """Exact E[Tr rho^2] for a family, from the closed-form cross terms."""
    mean = _FAMILIES[spec.family].mean_purity
    if mean is None:
        return float(np.sum(np.asarray(spec.weights) ** 2))
    return mean(spec.n)


def separated_statistic(spec: EnsembleSpec) -> tuple[str, float]:
    """The SEPARATION_PAIRS task that spec's family belongs to, and its statistic's exact mean.

    The purity task's statistic is Tr rho^2 itself; a family outside every
    pair is a DomainError.
    """
    for task, pair in SEPARATION_PAIRS.items():
        if spec.family in pair:
            if task == "purity":
                return task, analytic_mean_purity(spec)
            return task, _FAMILIES[spec.family].statistic_mean
    raise DomainError(f"{spec.family.value} belongs to no separation pair")


def sample_ensemble(spec: EnsembleSpec, rng: np.random.Generator) -> LabeledSample:
    """Draw one state from the family."""
    n = spec.n
    if spec.family is EnsembleFamily.RANDOM_RANK_R:
        q = _haar_frame(_ginibre((2 ** n, spec.rank), rng))
        parts = list(zip(spec.weights, q.T))
        hidden = {"frame": q}
    else:
        parts, hidden = [], {}
        for weight, prefix, draw in _FAMILIES[spec.family].components:
            if draw not in hidden:
                hidden[draw] = _haar_vector(2 ** n // math.prod(ket.size for ket in prefix), rng)
            vec = hidden[draw]
            # kron(a, kron(b, psi)), not kron(kron(a, b), psi): the two differ in zero signs.
            for ket in reversed(prefix):
                vec = np.kron(ket, vec)
            parts.append((weight, vec))

    hidden["weights"] = tuple(w for w, _ in parts)
    hidden["components"] = tuple(vec for _, vec in parts)
    columns = np.column_stack([np.sqrt(w) * vec for w, vec in parts])
    return LabeledSample(DensityMatrix.from_columns(columns, n), hidden)


def _min_ancilla(rank: int) -> int:
    """The fewest qubits, at least one, whose basis kets hold ``rank`` eigenvectors."""
    return max(1, (rank - 1).bit_length())


def purify(rho: DensityMatrix, nB: int) -> PureState:
    """Canonical purification with the B side in the computational basis.

    The j-th nonzero eigenvalue (descending) pairs its eigenvector with
    the B basis ket |j>, so Schmidt round trips are deterministic.
    """
    if nB < 0:
        raise DomainError("ancilla count must be nonnegative")
    columns, lam = rho.spectral().support()
    r = lam.size
    if 2 ** nB < r:
        raise CapacityError(f"2**{nB} ancilla levels cannot hold rank {r}")
    if rho.dim * 2 ** nB * np.dtype(complex).itemsize > np.iinfo(np.intp).max:
        raise MemoryError(f"2**{rho.n + nB} amplitudes exceed the address space")  # as in _ginibre
    amps = np.zeros((rho.dim, 2 ** nB), dtype=complex)  # row index: A, column: B
    # Add onto +0.0 rather than assign, so no -0.0 entry of the eigenvectors
    # reaches the state (tests compare its bytes with the term-by-term sum).
    amps[:, :r] += columns * np.sqrt(lam)
    amps = amps / np.linalg.norm(amps)
    return PureState(amps, rho.n, nB)


def classical_correlate(rho: DensityMatrix, nB: int) -> DensityMatrix:
    """Incoherent counterpart of the canonical purification.

    Returns sum_j lambda_j |psi_j><psi_j| (x) |j><j|_B, which shares every
    marginal with the purification but carries no cross-basis coherence.
    """
    columns, lam = rho.spectral().support()
    r = lam.size
    if 2 ** nB < r:
        raise CapacityError(f"2**{nB} ancilla levels cannot hold rank {r}")
    lam = lam / lam.sum()
    d, dB = rho.dim, 2 ** nB
    out = np.zeros((d, dB, d, dB), dtype=complex)  # indices (A, B, A', B')
    for j in range(r):
        vec = columns[:, j]
        # Add onto +0.0, as in purify: no -0.0 entries.
        out[:, j, :, j] += lam[j] * np.outer(vec, vec.conj())
    return DensityMatrix(out.reshape(d * dB, d * dB), rho.n + nB)


def verification_state(alpha: float, u_prep: np.ndarray, v_prep: np.ndarray) -> PureState:
    """Client-side state alpha |u>|0>_B + sqrt(1-alpha^2) |v>|1>_B.

    ``u_prep`` and ``v_prep`` are the two same-dimension payload unitaries
    (or already-prepared column vectors); the single B qubit records which
    branch was taken, so the A marginal is the two-term mixture with
    weights alpha^2 and 1 - alpha^2.
    """
    if not 0.0 <= abs(alpha) <= 1.0:
        raise DomainError(f"alpha {alpha} must satisfy |alpha| <= 1")
    u = np.asarray(u_prep, dtype=complex)
    v = np.asarray(v_prep, dtype=complex)
    u_col = u[:, 0] if u.ndim == 2 else u
    v_col = v[:, 0] if v.ndim == 2 else v
    if u_col.shape != v_col.shape:
        raise DimensionError(f"branch dimensions differ: {u_col.shape} vs {v_col.shape}")
    d = u_col.size
    nA = int(np.log2(d))
    if 2 ** nA != d:
        raise DimensionError(f"payload dimension {d} is not a power of two")
    beta = np.sqrt(max(0.0, 1.0 - alpha ** 2))
    amps = alpha * np.kron(u_col, basis_state(1, 0)) + beta * np.kron(v_col, basis_state(1, 1))
    amps = amps / np.linalg.norm(amps)
    return PureState(amps, nA, 1)
