"""Dense complex linear algebra and quantum-object primitives.

Conventions used throughout the package:

* Qubit 0 is the leftmost (most significant) tensor factor, so a register
  index ``k`` spells the bitstring ``q0 q1 ... q_{n-1}`` in binary.
* Bipartite registers store system A first, system B last; the amplitude
  vector of a :class:`PureState` reshapes to a ``(2**nA, 2**nB)`` matrix
  whose rows are A indices.
* Every state is read through its canonical spectrum (see :func:`eigh`):
  ``DensityMatrix(matrix, n)`` diagonalises a dense matrix once, at
  construction; ``DensityMatrix.from_columns(C, n)`` builds C C^dag from
  d x k columns with a thin QR and a min(d, k)-square eigh, and forms ``matrix``
  only on first access; ``PureState.spectral()`` is the rank-1 spectrum.
  Partial traces and measurements take one path over spectral columns.
* An :class:`Observable` is carried as its eigenbasis: a tuple of basis
  factors with the eigenvalues in product order.  ``Observable.from_factors``
  takes per-qubit 2x2 factors and never forms the d x d matrix; a dense
  product of 2x2 factors from 7 qubits on (an embedded Pauli) is
  recognised and split the same way.  Consumers rotate into the basis and
  apply ``O @ v`` one qubit at a time.  Every other matrix takes one dense
  :func:`eigh`.  Every exact value Tr(O f(rho)) is read through
  ``Observable.expectation`` on spectral columns; only tests and the
  benchmark read ``Observable.matrix``.
* Ranks count the eigenvalues above the fixed ``DEFAULT_RANK_TOL``
  (1e-9) relative to the largest magnitude.
* ``trace_norm`` is the un-halved trace norm, the sum of singular values; all
  perturbation-bound checks use that convention.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import DimensionError, DomainError, ValidationError

HERMITICITY_ATOL = 1e-10
# Observable treats a dense matrix within this relative Frobenius distance of
# a product of 2x2 factors as that product (Weyl: eigenvalues move <= this *
# ||M||_F), from this many qubits on.  Below that the dense eigh is no slower,
# and small observables keep the dense eigenbasis that fixed-seed stage-2
# draws depend on.
_FACTOR_RTOL = 1e-12
_FACTOR_MIN_QUBITS = 7
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


def _hermitian_part(m: np.ndarray, atol: float) -> np.ndarray | None:
    """(m + m^H) / 2, or None when |m - m^H| exceeds atol * max(1, max |m|)."""
    mh = m.conj().T
    scale = max(1.0, float(np.abs(m).max())) if m.size else 1.0
    return (m + mh) / 2 if np.abs(m - mh).max() <= atol * scale else None


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
        if not abs(norm - 1.0) <= NORM_ATOL:
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

    def spectral(self) -> "SpectralDecomposition":
        """The rank-1 spectrum: eigenvalue 1 on the amplitude column."""
        return SpectralDecomposition(np.ones(1), self.amplitudes[:, None])


class DensityMatrix:
    """Hermitian PSD trace-1 state, carried as its canonical spectrum."""

    def __init__(self, matrix: np.ndarray, n: int):
        self._matrix = matrix
        self.n = n
        self.__post_init__()

    def __post_init__(self):
        m = np.asarray(self._matrix, dtype=complex)
        d = 2 ** self.n
        if m.shape != (d, d):
            raise ValidationError(f"matrix shape {m.shape} != ({d}, {d}) for n={self.n}")
        spectrum = eigh(m)
        tr = complex(np.trace(m))
        if not abs(tr - 1.0) <= TRACE_ATOL:
            raise ValidationError(f"trace {tr} deviates from 1 beyond {TRACE_ATOL}")
        lo = float(spectrum.eigenvalues[-1])
        if lo < -PSD_ATOL:
            raise ValidationError(f"minimum eigenvalue {lo} below -{PSD_ATOL}")
        self._matrix = _freeze(m)
        self._spectrum = spectrum

    @classmethod
    def from_columns(cls, columns: np.ndarray, n: int) -> "DensityMatrix":
        """rho = C C^dag for a d x k block of columns C, in O(d k min(d, k)).

        With the thin QR C = Q R and R R^dag = U diag(w) U^dag, the
        eigenpairs are (w, Q U), put in the canonical form of :func:`eigh`.
        With more columns than rows the QR saves nothing, and Q = I, R = C.
        """
        c = np.asarray(columns, dtype=complex)
        if c.ndim != 2 or c.shape[0] != 2 ** n:
            raise ValidationError(f"columns shape {c.shape} needs {2 ** n} rows for n={n}")
        tr = float(np.vdot(c, c).real)
        if not abs(tr - 1.0) <= TRACE_ATOL:
            raise ValidationError(f"trace {tr} deviates from 1 beyond {TRACE_ATOL}")
        q, r = np.linalg.qr(c) if c.shape[1] <= c.shape[0] else (np.eye(c.shape[0]), c)
        w, u = np.linalg.eigh(r @ r.conj().T)
        return cls.from_spectrum(_canonical(w, q @ u), n)

    @classmethod
    def from_spectrum(cls, spectrum: "SpectralDecomposition", n: int) -> "DensityMatrix":
        """The state with this spectrum, taken as PSD with trace 1; ``matrix`` is formed on first access."""
        state = cls.__new__(cls)
        state._matrix, state.n, state._spectrum = None, n, spectrum
        return state

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            self._matrix = _freeze(self._spectrum.reconstruct())
        return self._matrix

    @property
    def dim(self) -> int:
        return 2 ** self.n

    def spectral(self) -> "SpectralDecomposition":
        return self._spectrum

    def purity(self) -> float:
        """Tr(rho^2) as the sum of squared eigenvalues."""
        return float(np.sum(self._spectrum.eigenvalues ** 2))

    def rank(self) -> int:
        return self._spectrum.rank


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

    def support(self) -> tuple[np.ndarray, np.ndarray]:
        """Columns c_j and weights w_j with state = sum_j w_j |c_j><c_j| over its support.

        The first max(rank, 1) eigenvectors, with their eigenvalues clipped at 0.
        """
        r = max(self.rank, 1)
        return self.eigenvectors[:, :r], np.clip(self.eigenvalues[:r], 0.0, None)

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


def _canonical(w: np.ndarray, v: np.ndarray) -> SpectralDecomposition:
    """Eigenpairs (w, v) sorted descending, phase-fixed and tie-broken (see :func:`eigh`)."""
    order = np.argsort(-w, kind="stable")
    w = w[order]
    v = v[:, order]
    v *= _column_phases(v)

    # Deterministic tie-break inside (near-)degenerate blocks: a block runs
    # while eigenvalues stay within tie_tol of its first one, and each
    # eigenvalue moves with its column, so a block may be out of order by tie_tol.
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
            perm = np.lexsort(np.round(block, 10)[::-1])
            v[:, start:stop], w[start:stop] = block[:, perm], w[start:stop][perm]
        start = stop
    return SpectralDecomposition(w, v)


def eigh(matrix: np.ndarray) -> SpectralDecomposition:
    """Hermitian eigendecomposition with descending, canonically ordered output.

    The one place that validates and diagonalises a dense Hermitian
    matrix: :class:`DensityMatrix` and :class:`Observable` call it once,
    at construction, and keep the result.  Eigenvector phases are fixed
    (largest-magnitude entry real positive) and, inside a degenerate
    block, eigenpairs are ordered lexicographically by their columns'
    interleaved (real, imag) coefficients rounded to 10 decimals, so the
    result is deterministic given the input bytes.
    """
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    h = _hermitian_part(m, HERMITICITY_ATOL)
    if h is None:
        raise ValidationError("matrix is not Hermitian within 1e-10")
    w, v = np.linalg.eigh(h)
    return _canonical(w, v.astype(complex))


class Observable:
    """Hermitian operator carried as its measurement basis.

    ``basis`` is a tuple of unitaries whose Kronecker product (factor 0
    most significant) diagonalises the operator; ``eigenvalues`` are its
    eigenvalues in that product's order.  A dense matrix that is a product
    of 2x2 factors on at least ``_FACTOR_MIN_QUBITS`` qubits (an embedded
    Pauli) gets one 2x2 factor per qubit; any other matrix gets one dense
    factor from :func:`eigh`.  :meth:`from_factors` builds the per-qubit
    form directly: then ``matrix`` is formed only when read, and ``O @ v``
    acts one qubit at a time.
    """

    def __init__(self, matrix: np.ndarray):
        self._matrix = matrix
        self.__post_init__()

    def __post_init__(self):
        m = np.asarray(self._matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError(f"observable must be square, got shape {m.shape}")
        self._matrix, self._factors = _freeze(m), None
        qubits = self._qubit_factors(self._matrix)
        if qubits is None:
            spectrum = eigh(m)
            self._set_basis((spectrum.eigenvectors,), spectrum.eigenvalues)
        else:
            self._set_qubit_basis(qubits)

    @classmethod
    def from_factors(cls, factors) -> "Observable":
        """The Kronecker product of Hermitian 2x2 factors, qubit 0 first, never formed densely."""
        f = np.asarray(factors, dtype=complex)
        if f.ndim != 3 or f.shape[1:] != (2, 2):
            raise ValidationError(f"factors must be a nonempty sequence of 2x2 matrices, got shape {f.shape}")
        h = [_hermitian_part(x, HERMITICITY_ATOL) for x in f]
        if any(x is None for x in h):
            raise ValidationError("matrix is not Hermitian within 1e-10")
        obs = cls.__new__(cls)
        obs._matrix, obs._factors = None, _freeze(np.array(h))
        obs._set_qubit_basis(obs._factors)
        return obs

    def _set_qubit_basis(self, factors: np.ndarray):
        w, v = np.linalg.eigh(factors)
        self._set_basis(tuple(v), functools.reduce(np.multiply.outer, w).reshape(-1))

    def _set_basis(self, basis: tuple, eigenvalues: np.ndarray):
        self.basis = tuple(_freeze(b) for b in basis)
        self.eigenvalues = _freeze(eigenvalues)
        self.spectral_norm = float(np.abs(eigenvalues).max())

    @staticmethod
    def _qubit_factors(m: np.ndarray) -> np.ndarray | None:
        """Hermitian 2x2 factors whose Kronecker product is m, or None.

        The factors are the fibres through the entry with the largest real
        or imaginary part, one per qubit (the rank-1 rearrangement test of
        Van Loan and Pitsianis, 1993).  Their product K is accepted when
        ||m - K||_F is within _FACTOR_RTOL of ||m||_F (by Weyl, the
        eigenvalues move no more) and max |m - K| is within half of eigh's
        Hermiticity tolerance: K is Hermitian, so m then passes eigh's check
        too.  Sizes other than 2^n with n >= _FACTOR_MIN_QUBITS, the zero
        matrix and a matrix with a NaN entry (the pivot is the first NaN)
        return None.
        """
        d = m.shape[0]
        n = d.bit_length() - 1
        if n < _FACTOR_MIN_QUBITS or d != 1 << n:
            return None
        parts = m.reshape(-1).view(float)
        hi, lo = int(parts.argmax()), int(parts.argmin())
        r, c = divmod((hi if parts[hi] >= -parts[lo] else lo) // 2, d)
        pivot = m[r, c]
        if pivot == 0 or not np.isfinite(pivot):
            return None
        bits = 1 << np.arange(n - 1, -1, -1)
        rows = (r & ~bits)[:, None] | bits[:, None] * [0, 1]
        cols = (c & ~bits)[:, None] | bits[:, None] * [0, 1]
        f = m[rows[:, :, None], cols[:, None, :]] / pivot
        # Each f_k is a_k H_k with H_k Hermitian, so sum_ij f_ij f_ji has the
        # phase of a_k^2; dividing out its square root leaves +-H_k.
        s = np.sum(f * f.swapaxes(1, 2), axis=(1, 2))
        if not s.all():
            return None
        phases = np.sqrt(s / np.abs(s))
        f *= phases.conj()[:, None, None]
        f[0] *= (pivot * np.prod(phases)).real
        f = (f + f.conj().swapaxes(1, 2)) / 2
        # Compare a quarter of m at a time (the rows of each setting of the
        # first two qubits): no temporary is as large as m.
        head, tail = kron_all(*f[:2]), kron_all(*f[2:])
        magnitude = np.empty((d // 4, 4, d // 4))
        scale = norm2 = worst = error2 = 0.0
        for row, block in zip(head, m.reshape(4, d // 4, 4, d // 4)):
            np.abs(block, out=magnitude)
            scale, norm2 = max(scale, magnitude.max()), norm2 + np.vdot(magnitude, magnitude)
            residual = tail[:, None, :] * row[None, :, None]
            residual -= block
            np.abs(residual, out=magnitude)
            worst, error2 = max(worst, magnitude.max()), error2 + np.vdot(magnitude, magnitude)
        if np.sqrt(error2) > _FACTOR_RTOL * np.sqrt(norm2) or worst > HERMITICITY_ATOL * max(1.0, scale) / 2:
            return None
        return f

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            self._matrix = _freeze(kron_all(*self._factors))
        return self._matrix

    @property
    def dim(self) -> int:
        return self.eigenvalues.size

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        """O v for a (d,) or (d, k) array; one qubit at a time when built from factors."""
        if self._factors is None:
            return self._matrix @ v
        v = np.asarray(v)
        cols = v.reshape(self.dim, -1)
        t = cols.T.reshape((cols.shape[1],) + (2,) * len(self._factors))
        for f in self._factors:
            # contract the leading qubit axis; its image is appended last
            t = np.tensordot(t, f, axes=([1], [1]))
        return t.reshape(cols.shape[1], -1).T.reshape(v.shape)

    def expectation(self, columns: np.ndarray, weights: float | np.ndarray) -> float:
        """sum_j w_j Re <c_j|O|c_j> over d x k columns, with O applied as ``O @ c``.

        ``weights`` is a scalar or a (k,) vector; with a spectrum's
        eigenvectors and f(eigenvalues) this is Tr(O f(rho)).
        """
        c = np.asarray(columns)
        return float(np.sum(weights * np.real(np.sum(c.conj() * (self @ c), axis=0))))


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
    the string "A" or "B".  The result is sum_j w_j Tr_rest |c_j><c_j|
    over every spectral column c_j with its signed weight w_j.
    """
    idx = _resolve_keep(state, keep)
    n = state.n
    spec = state.spectral()
    k = spec.eigenvalues.size
    rest = [q for q in range(n) if q not in idx]
    cols = np.transpose(spec.eigenvectors.reshape([2] * n + [k]), list(idx) + rest + [n])
    cols = cols.reshape(2 ** len(idx), -1, k)
    weighted = (cols * spec.eigenvalues).reshape(2 ** len(idx), -1)
    reduced = weighted @ cols.reshape(2 ** len(idx), -1).conj().T
    return DensityMatrix(reduced, len(idx))


def schmidt_decompose(state: PureState) -> SpectralDecomposition:
    """A-side Schmidt factor across the declared A/B split.

    The eigenvalues are the Schmidt coefficients lambda_j (the shared
    marginal spectrum), sorted descending; the columns are the matching
    A-side Schmidt vectors, phase-fixed as :func:`eigh` fixes them.
    """
    if state.nA < 1 or state.nB < 1:
        raise DomainError("schmidt decomposition needs nA >= 1 and nB >= 1")
    u, s, _ = np.linalg.svd(state.as_matrix(), full_matrices=False)
    return SpectralDecomposition(s ** 2, u * _column_phases(u))


def matrix_power_trace(rho: DensityMatrix, t: int) -> float:
    """Exact Tr(rho^t) = sum_j lambda_j^t over the support of the spectrum."""
    if t < 1:
        raise DomainError(f"moment order t={t} must be >= 1")
    if t == 1:
        return 1.0
    return float(np.sum(rho.spectral().support()[1] ** t))


def trace_norm(m: np.ndarray) -> float:
    """Un-halved trace norm: the sum of singular values (absolute eigenvalues for a Hermitian m)."""
    return float(np.linalg.svd(np.asarray(m, dtype=complex), compute_uv=False).sum())
