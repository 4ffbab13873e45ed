"""Dense complex linear algebra and quantum-object primitives.

Conventions used throughout the package:

* Qubit 0 is the leftmost (most significant) tensor factor, so a register
  index ``k`` spells the bitstring ``q0 q1 ... q_{n-1}`` in binary.
* Bipartite registers store system A first, system B last; the amplitude
  vector of a :class:`PureState` reshapes to a ``(2**nA, 2**nB)`` matrix
  whose rows are A indices.
* Every :class:`DensityMatrix` and :class:`Observable` is diagonalised
  once, at construction, by :func:`eigh`, and carries that canonical
  spectrum: eigenvalues descending, each eigenvector's largest-magnitude
  component real and positive, and the columns of a degenerate block in
  lexicographic order, so decompositions are reproducible.
* Ranks count the eigenvalues above the fixed ``DEFAULT_RANK_TOL``
  (1e-9) relative to the largest magnitude.
* ``trace_norm`` is the un-halved trace norm ``sum |eigenvalues|``; all
  perturbation-bound checks use that convention.  ``trace_distance``
  returns the halved distance by default and exposes the un-halved one
  via a flag.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from .errors import DimensionError, DomainError, ValidationError

HERMITICITY_ATOL = 1e-10
TRACE_ATOL = 1e-10
PSD_ATOL = 1e-9
NORM_ATOL = 1e-12
DEFAULT_RANK_TOL = 1e-9

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


def kron_all(*factors: np.ndarray) -> np.ndarray:
    """Kronecker product of all factors, leftmost factor most significant."""
    out = np.array([[1.0 + 0j]])
    for f in factors:
        out = np.kron(out, f)
    return out


def pauli_on(n: int, qubit: int, pauli: np.ndarray) -> np.ndarray:
    """Single-qubit Pauli embedded in an n-qubit register."""
    if not 0 <= qubit < n:
        raise DimensionError(f"qubit {qubit} out of range for n={n}")
    return kron_all(np.eye(2 ** qubit), pauli, np.eye(2 ** (n - qubit - 1)))


def basis_state(n: int, index: int = 0) -> np.ndarray:
    """Computational basis ket |index> on n qubits."""
    v = np.zeros(2 ** n, dtype=complex)
    v[index] = 1.0
    return v


def is_hermitian(m: np.ndarray, atol: float = HERMITICITY_ATOL) -> bool:
    scale = max(1.0, float(np.abs(m).max())) if m.size else 1.0
    return bool(np.abs(m - m.conj().T).max() <= atol * scale)


def _column_phases(v: np.ndarray) -> np.ndarray:
    """Unit phases that make each column's largest-magnitude entry real positive.

    A column whose pivot is below 1e-15 in magnitude keeps phase 1.
    """
    pivots = v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])]
    magnitudes = np.abs(pivots)
    phases = np.ones(v.shape[1], dtype=complex)
    big = magnitudes >= 1e-15
    phases[big] = pivots[big].conj() / magnitudes[big]
    return phases


@dataclass(frozen=True)
class PureState:
    """Normalized amplitude vector over a bipartite (A, B) qubit register.

    nB = 0 is allowed and describes an unsplit register.
    """

    amplitudes: np.ndarray
    nA: int
    nB: int = 0

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if self.nA < 0 or self.nB < 0 or self.nA + self.nB == 0:
            raise DomainError("qubit counts must be nonnegative with nA + nB >= 1")
        if amp.size != 2 ** (self.nA + self.nB):
            raise ValidationError(
                f"amplitude length {amp.size} != 2**(nA+nB) = {2 ** (self.nA + self.nB)}"
            )
        norm = np.linalg.norm(amp)
        if abs(norm - 1.0) > NORM_ATOL:
            raise ValidationError(f"state norm {norm} deviates from 1 beyond {NORM_ATOL}")
        object.__setattr__(self, "amplitudes", _freeze(amp))

    @property
    def n(self) -> int:
        return self.nA + self.nB

    @property
    def dim(self) -> int:
        return 2 ** self.n

    def as_matrix(self) -> np.ndarray:
        """Amplitudes reshaped to (2**nA, 2**nB), rows indexing system A."""
        return self.amplitudes.reshape(2 ** self.nA, 2 ** self.nB)

    def density(self) -> "DensityMatrix":
        rho = np.outer(self.amplitudes, self.amplitudes.conj())
        return DensityMatrix(rho, self.n)

    def resplit(self, nA: int) -> "PureState":
        """Same amplitudes with the A/B cut moved to a new position."""
        if not 0 <= nA <= self.n:
            raise DimensionError(f"cannot place cut at {nA} in an {self.n}-qubit register")
        return PureState(self.amplitudes, nA, self.n - nA)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian PSD trace-1 matrix, diagonalised once at construction."""

    matrix: np.ndarray
    n: int
    _spectrum: "SpectralDecomposition" = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        d = 2 ** self.n
        if m.shape != (d, d):
            raise ValidationError(f"matrix shape {m.shape} != ({d}, {d}) for n={self.n}")
        spectrum = eigh(m)
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > TRACE_ATOL:
            raise ValidationError(f"trace {tr} deviates from 1 beyond {TRACE_ATOL}")
        lo = float(spectrum.eigenvalues[-1])
        if lo < -PSD_ATOL:
            raise ValidationError(f"minimum eigenvalue {lo} below -{PSD_ATOL}")
        object.__setattr__(self, "matrix", _freeze(m))
        object.__setattr__(self, "_spectrum", spectrum)

    @property
    def dim(self) -> int:
        return 2 ** self.n

    def spectral(self) -> "SpectralDecomposition":
        return self._spectrum

    def purity(self) -> float:
        """Tr(rho^2), which for Hermitian rho is sum |rho_ij|^2: O(d^2), no matmul."""
        return float(np.vdot(self.matrix, self.matrix).real)

    def rank(self) -> int:
        return self._spectrum.rank

    def expectation(self, observable: np.ndarray) -> float:
        return float(np.real(np.trace(observable @ self.matrix)))


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues in descending order with phase-fixed eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues", _freeze(np.asarray(self.eigenvalues, dtype=float)))
        object.__setattr__(self, "eigenvectors", _freeze(np.asarray(self.eigenvectors, dtype=complex)))

    @property
    def rank(self) -> int:
        """Number of eigenvalues above DEFAULT_RANK_TOL times the largest magnitude."""
        scale = float(np.abs(self.eigenvalues).max()) if self.eigenvalues.size else 0.0
        if scale == 0.0:
            return 0
        return int(np.sum(self.eigenvalues > DEFAULT_RANK_TOL * scale))

    def support(self, declared_rank: int | None = None) -> np.ndarray:
        """Indices of nonzero eigenvalues, thresholded or by declared rank."""
        if declared_rank is not None:
            if not 1 <= declared_rank <= self.eigenvalues.size:
                raise DomainError(f"declared rank {declared_rank} out of range")
            return np.arange(declared_rank)
        return np.arange(self.rank)

    @property
    def gap(self) -> float:
        """Difference between the largest and second-largest eigenvalues."""
        if self.eigenvalues.size < 2:
            return float(self.eigenvalues[0]) if self.eigenvalues.size else 0.0
        return float(self.eigenvalues[0] - self.eigenvalues[1])

    def apply(self, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """V f(w) V^dag; a leading stack axis on both arrays carries through."""
        v = self.eigenvectors
        return (v * f(self.eigenvalues)[..., None, :]) @ v.conj().swapaxes(-1, -2)

    def reconstruct(self) -> np.ndarray:
        return self.apply(lambda w: w)


def eigh(matrix: np.ndarray) -> SpectralDecomposition:
    """Hermitian eigendecomposition with descending, canonically ordered output.

    The one place that validates and diagonalises a Hermitian matrix:
    :class:`DensityMatrix` and :class:`Observable` call it once, at
    construction, and keep the result.  Eigenvector phases are fixed and,
    inside a degenerate block, columns are ordered lexicographically by
    their interleaved (real, imag) coefficients rounded to 10 decimals, so
    the result is deterministic given the input bytes.  The returned rank
    uses the fixed ``DEFAULT_RANK_TOL``.
    """
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    if not is_hermitian(m, HERMITICITY_ATOL):
        raise ValidationError("matrix is not Hermitian within 1e-10")
    w, v = np.linalg.eigh((m + m.conj().T) / 2)
    v = v.astype(complex)
    order = np.argsort(-w, kind="stable")
    w = w[order]
    v = v[:, order]
    v *= _column_phases(v)

    # Deterministic tie-break inside (near-)degenerate blocks: a block runs
    # while eigenvalues stay within tie_tol of its first one.
    scale = max(1.0, float(np.abs(w).max())) if w.size else 1.0
    tie_tol = 1e-12 * scale
    values = w.tolist()
    start = 0
    while start < len(values):
        stop = start + 1
        while stop < len(values) and abs(values[stop] - values[start]) <= tie_tol:
            stop += 1
        if stop - start > 1:
            block = v[:, start:stop]
            # numpy orders complex keys by (real, imag), so the keys v_0, v_1, ...
            # (lexsort's primary key is its last) compare re(v_0), im(v_0), re(v_1), ...
            v[:, start:stop] = block[:, np.lexsort(np.round(block, 10)[::-1])]
        start = stop
    return SpectralDecomposition(w, v)


@dataclass(frozen=True)
class Observable:
    """Hermitian matrix, diagonalised once at construction for its measurement basis."""

    matrix: np.ndarray
    spectral_norm: float = field(init=False)
    _spectrum: SpectralDecomposition = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError(f"observable must be square, got shape {m.shape}")
        spectrum = eigh(m)
        object.__setattr__(self, "matrix", _freeze(m))
        object.__setattr__(self, "spectral_norm", float(np.abs(spectrum.eigenvalues).max()))
        object.__setattr__(self, "_spectrum", spectrum)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def spectral(self) -> SpectralDecomposition:
        return self._spectrum


StateLike = Union[PureState, DensityMatrix]


def _resolve_keep(state: StateLike, keep) -> tuple[int, ...]:
    n = state.n
    if isinstance(keep, str):
        if not isinstance(state, PureState):
            raise DimensionError("selector 'A'/'B' requires a PureState with a declared split")
        if keep == "A":
            return tuple(range(state.nA))
        if keep == "B":
            return tuple(range(state.nA, state.n))
        raise DimensionError(f"unknown subsystem selector {keep!r}")
    idx = tuple(int(q) for q in keep)
    if len(idx) == 0:
        raise DimensionError("must keep at least one qubit")
    if len(set(idx)) != len(idx):
        raise DimensionError("duplicate qubit in selector")
    if any(q < 0 or q >= n for q in idx):
        raise DimensionError(f"selector {idx} out of range for n={n}")
    return idx


def partial_trace(state: StateLike, keep) -> DensityMatrix:
    """Reduced density matrix on the kept qubits.

    ``keep`` is either an iterable of qubit indices or, for a PureState,
    the string "A" or "B".
    """
    idx = _resolve_keep(state, keep)
    n = state.n

    if isinstance(state, PureState):
        # Fast path for the contiguous A/B split.
        if idx == tuple(range(state.nA)) and state.nA >= 1 and state.nB >= 1:
            c = state.as_matrix()
            return DensityMatrix(c @ c.conj().T, state.nA)
        if idx == tuple(range(state.nA, state.n)) and state.nA >= 1 and state.nB >= 1:
            c = state.as_matrix()
            return DensityMatrix(c.T @ c.conj(), state.nB)
        psi = state.amplitudes.reshape([2] * n)
        rest = [q for q in range(n) if q not in idx]
        psi = np.transpose(psi, list(idx) + rest)
        c = psi.reshape(2 ** len(idx), 2 ** len(rest))
        return DensityMatrix(c @ c.conj().T, len(idx))

    rho = state.matrix.reshape([2] * (2 * n))
    rest = [q for q in range(n) if q not in idx]
    perm = list(idx) + rest + [n + q for q in idx] + [n + q for q in rest]
    rho = np.transpose(rho, perm)
    dk, dr = 2 ** len(idx), 2 ** len(rest)
    rho = rho.reshape(dk, dr, dk, dr)
    reduced = np.einsum("arbr->ab", rho)
    return DensityMatrix(reduced, len(idx))


@dataclass(frozen=True)
class SchmidtDecomposition:
    """Shared Schmidt coefficients with paired A-side and B-side vectors.

    ``a_side.eigenvalues`` and ``b_side.eigenvalues`` are both the
    coefficients lambda_j; column j of one side partners column j of the
    other, so summing sqrt(lambda_j) |a_j> (x) |b_j> rebuilds the state.
    """

    coefficients: np.ndarray
    a_side: SpectralDecomposition
    b_side: SpectralDecomposition

    def reassemble(self) -> np.ndarray:
        amps = np.einsum(
            "j,aj,bj->ab",
            np.sqrt(self.coefficients),
            self.a_side.eigenvectors,
            self.b_side.eigenvectors,
        )
        return amps.reshape(-1)


def schmidt_decompose(state: PureState) -> SchmidtDecomposition:
    """Schmidt decomposition across the declared A/B split.

    Coefficients are the shared marginal eigenvalues, sorted descending;
    the two vector sets are orthonormal and phase-locked so that the
    reassembled amplitude vector matches the input.
    """
    if state.nA < 1 or state.nB < 1:
        raise DomainError("schmidt decomposition needs nA >= 1 and nB >= 1")
    c = state.as_matrix()
    u, s, vh = np.linalg.svd(c, full_matrices=False)
    coeffs = s ** 2
    # The B-side Schmidt vectors are the rows of vh (the eigenvectors of
    # rho_B are the conjugated right singular vectors).  Lock the pair
    # phase: rotating the A column rotates the partner row oppositely,
    # keeping u @ diag(s) @ vh invariant.
    phases = _column_phases(u)
    a = SpectralDecomposition(coeffs, u * phases)
    b = SpectralDecomposition(coeffs, (vh * phases.conj()[:, None]).T)
    return SchmidtDecomposition(_freeze(coeffs), a, b)


def matrix_power_trace(rho: DensityMatrix, t: int) -> float:
    """Exact Tr(rho^t) = sum_j lambda_j^t from the spectral decomposition."""
    if t < 1:
        raise DomainError(f"moment order t={t} must be >= 1")
    if t == 1:
        return 1.0
    w = np.clip(rho.spectral().eigenvalues, 0.0, None)
    return float(np.sum(w ** t))


def trace_norm(m: np.ndarray) -> float:
    """Un-halved trace norm: sum of absolute eigenvalues (singular values)."""
    m = np.asarray(m, dtype=complex)
    if is_hermitian(m, 1e-8):
        return float(np.abs(np.linalg.eigvalsh((m + m.conj().T) / 2)).sum())
    return float(np.linalg.svd(m, compute_uv=False).sum())


def trace_distance(a: StateLike, b: StateLike, *, halved: bool = True) -> float:
    """Trace distance between two states.

    Returns 0.5 * ||a - b||_1 by default; ``halved=False`` gives the
    un-halved trace norm used by the perturbation bounds.
    """
    ma = a.matrix if isinstance(a, DensityMatrix) else a.density().matrix
    mb = b.matrix if isinstance(b, DensityMatrix) else b.density().matrix
    if ma.shape != mb.shape:
        raise DimensionError(f"dimension mismatch {ma.shape} vs {mb.shape}")
    tn = trace_norm(ma - mb)
    return 0.5 * tn if halved else tn


def fidelity(a: DensityMatrix, b: DensityMatrix) -> float:
    """Uhlmann fidelity (Tr sqrt(sqrt(a) b sqrt(a)))^2."""
    if a.dim != b.dim:
        raise DimensionError("dimension mismatch")
    sqrt_a = a.spectral().apply(lambda w: np.sqrt(np.clip(w, 0.0, None)))
    inner = sqrt_a @ b.matrix @ sqrt_a
    vals = np.clip(np.linalg.eigvalsh((inner + inner.conj().T) / 2), 0.0, None)
    # roundoff-scale eigenvalues would otherwise leak sqrt(eps) into the sum
    vals[vals < 1e-14 * max(vals.max(), 1e-300)] = 0.0
    return float(np.sqrt(vals).sum() ** 2)


def steered_operator(psi: PureState, b_operator: np.ndarray) -> np.ndarray:
    """Tr_B[ |psi><psi| (I_A (x) M_B) ] without forming the full projector."""
    c = psi.as_matrix()
    m = np.asarray(b_operator, dtype=complex)
    if m.shape != (2 ** psi.nB, 2 ** psi.nB):
        raise DimensionError("B-side operator dimension mismatch")
    return c @ m.T @ c.conj().T
