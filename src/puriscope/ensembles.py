"""Haar-random sampling and the hard-instance state families.

Every sampler is pure given (spec, seed): a master seed plus a sample index
derive an independent child generator, so batches can fan out across
workers in any order and still reproduce bit-identically.

Family parameter ``n`` always counts the qubits of the sampled state
itself; the Haar-random components act on the trailing payload qubits
dictated by each family's block structure (the two purity families draw
both components from the full ``2**n``-dimensional space).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .core import DensityMatrix, PureState, basis_state, kron_all
from .errors import CapacityError, DimensionError, DomainError, ValidationError

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


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a Ginibre matrix with phase-fixed R."""
    if dim < 1:
        raise DomainError(f"dimension {dim} must be >= 1")
    z = _ginibre((dim, dim), rng) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _haar_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = _ginibre((dim,), rng)
    return z / np.linalg.norm(z)


def haar_state(n: int, rng: np.random.Generator) -> PureState:
    """Haar-random pure state on n qubits (unsplit register)."""
    if n < 1:
        raise DomainError(f"qubit count {n} must be >= 1")
    return PureState(_haar_vector(2 ** n, rng), n, 0)


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

_MIN_QUBITS = {
    EnsembleFamily.PURITY_S1: 1,
    EnsembleFamily.PURITY_S2: 1,
    EnsembleFamily.VC_PCA_S1: 2,
    EnsembleFamily.VC_PCA_S2: 2,
    EnsembleFamily.FISHER_S1: 2,
    EnsembleFamily.FISHER_S2: 2,
    EnsembleFamily.CLASS_CORR_CS1: 5,
    EnsembleFamily.CLASS_CORR_CS2: 5,
    EnsembleFamily.HAAR_PURE: 1,
    EnsembleFamily.RANDOM_RANK_R: 1,
}

_DECLARED_RANK = {
    EnsembleFamily.PURITY_S1: 2,
    EnsembleFamily.PURITY_S2: 2,
    EnsembleFamily.VC_PCA_S1: 3,
    EnsembleFamily.VC_PCA_S2: 3,
    EnsembleFamily.FISHER_S1: 3,
    EnsembleFamily.FISHER_S2: 3,
    EnsembleFamily.CLASS_CORR_CS1: 3,
    EnsembleFamily.CLASS_CORR_CS2: 3,
    EnsembleFamily.HAAR_PURE: 1,
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
        if self.n < _MIN_QUBITS[family]:
            raise DomainError(f"{family.value} requires n >= {_MIN_QUBITS[family]}, got {self.n}")
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
        if self.family is EnsembleFamily.RANDOM_RANK_R:
            return int(self.rank)
        return _DECLARED_RANK[self.family]

    def to_json(self) -> dict:
        weights = None if self.weights is None else list(self.weights)
        return {**asdict(self), "family": self.family.value, "weights": weights}

    @staticmethod
    def from_json(obj: dict | str) -> "EnsembleSpec":
        """The spec ``to_json`` wrote; ``__post_init__`` restores the family and weight types."""
        if isinstance(obj, str):
            obj = json.loads(obj)
        return EnsembleSpec(obj["family"], int(obj["n"]), obj.get("rank"), obj.get("weights"))


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
    fam = spec.family
    if fam is EnsembleFamily.PURITY_S1:
        return 0.82 + 0.18 / 2 ** spec.n
    if fam is EnsembleFamily.PURITY_S2:
        return 0.5 + 0.5 / 2 ** spec.n
    if fam in (EnsembleFamily.VC_PCA_S1, EnsembleFamily.VC_PCA_S2):
        return 0.375
    if fam in (EnsembleFamily.FISHER_S1, EnsembleFamily.FISHER_S2):
        return 0.40625 + 0.09375 / 2 ** (spec.n - 1)
    if fam in (EnsembleFamily.CLASS_CORR_CS1, EnsembleFamily.CLASS_CORR_CS2):
        return 0.40625
    if fam is EnsembleFamily.HAAR_PURE:
        return 1.0
    return float(np.sum(np.asarray(spec.weights) ** 2))


def sample_ensemble(
    spec: EnsembleSpec,
    rng: np.random.Generator,
    *,
    force_orthogonal: bool = False,
) -> LabeledSample:
    """Draw one state from the family.

    ``force_orthogonal`` constrains the two Haar components of the purity
    families to be exactly orthogonal, pinning the closed-form purity.
    """
    fam = spec.family
    n = spec.n
    dim = 2 ** n

    if fam in (EnsembleFamily.PURITY_S1, EnsembleFamily.PURITY_S2):
        u = _haar_vector(dim, rng)
        v = _haar_vector(dim, rng)
        if force_orthogonal:
            v = v - u * (u.conj() @ v)
            v = v / np.linalg.norm(v)
        w0 = 0.9 if fam is EnsembleFamily.PURITY_S1 else 0.5
        parts = [(w0, u), (1.0 - w0, v)]
        hidden = {"u": u, "v": v}

    elif fam in (EnsembleFamily.VC_PCA_S1, EnsembleFamily.VC_PCA_S2):
        psi1 = _haar_vector(2 ** (n - 1), rng)
        psi2 = _haar_vector(2 ** (n - 2), rng)
        psi3 = _haar_vector(2 ** (n - 2), rng)
        e0 = np.array([1, 0], dtype=complex)
        e1 = np.array([0, 1], dtype=complex)
        flag0 = e0 if fam is EnsembleFamily.VC_PCA_S1 else e1
        flag1 = e1 if fam is EnsembleFamily.VC_PCA_S1 else e0
        parts = [
            (0.5, np.kron(flag0, psi1)),
            (0.25, np.kron(flag1, np.kron(e0, psi2))),
            (0.25, np.kron(flag1, np.kron(e1, psi3))),
        ]
        hidden = {"psi1": psi1, "psi2": psi2, "psi3": psi3}

    elif fam in (EnsembleFamily.FISHER_S1, EnsembleFamily.FISHER_S2):
        u = _haar_vector(2 ** (n - 1), rng)
        v = _haar_vector(2 ** (n - 1), rng)
        if fam is EnsembleFamily.FISHER_S1:
            a, b = np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex)
        else:
            a, b = _PLUS, _MINUS
        parts = [
            (0.5, np.kron(a, u)),
            (0.375, np.kron(b, u)),
            (0.125, np.kron(b, v)),
        ]
        hidden = {"u": u, "v": v}

    elif fam in (EnsembleFamily.CLASS_CORR_CS1, EnsembleFamily.CLASS_CORR_CS2):
        u = _haar_vector(2 ** (n - 4), rng)
        v = _haar_vector(2 ** (n - 4), rng)
        mid = u if fam is EnsembleFamily.CLASS_CORR_CS1 else v
        # Two three-level registers, each level embedded in two qubits as |00>, |01>, |10>.
        parts = [
            (0.5, kron_all(basis_state(2, 0), basis_state(2, 0), u).ravel()),
            (0.375, kron_all(basis_state(2, 1), basis_state(2, 1), mid).ravel()),
            (0.125, kron_all(basis_state(2, 2), basis_state(2, 2), v).ravel()),
        ]
        hidden = {"u": u, "v": v}

    elif fam is EnsembleFamily.HAAR_PURE:
        u = _haar_vector(dim, rng)
        parts = [(1.0, u)]
        hidden = {"u": u}

    else:  # RANDOM_RANK_R
        r = spec.rank
        q, rr = np.linalg.qr(_ginibre((dim, r), rng))
        q = q * (np.diagonal(rr) / np.abs(np.diagonal(rr)))
        weights = np.asarray(spec.weights, dtype=float)
        parts = [(float(w), q[:, i]) for i, w in enumerate(weights)]
        hidden = {"frame": q}

    hidden["weights"] = tuple(w for w, _ in parts)
    hidden["components"] = tuple(vec for _, vec in parts)
    columns = np.column_stack([np.sqrt(w) * vec for w, vec in parts])
    return LabeledSample(DensityMatrix.from_columns(columns, n), hidden)


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
