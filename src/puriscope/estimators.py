"""Purification-assisted estimators for moments, cooling, PCA, and QFI.

Each protocol has two faces: an exact identity check (the steering
relations that make the small B register carry the A-side spectrum) and a
finite-shot estimator that performs tomography on B followed by one
observable measurement on the full purified register.  All estimators are
pure functions of (inputs, seed).  Each truth is graded from the A-side
Schmidt factor (one thin SVD of the d_A x d_B amplitudes), never from a
d_A x d_A marginal.
"""

from __future__ import annotations

import itertools
from enum import Enum
from typing import Callable, Optional, Union

import numpy as np

from .core import (
    DEFAULT_RANK_TOL,
    DensityMatrix,
    Observable,
    PureState,
    SpectralDecomposition,
    partial_trace,
    schmidt_decompose,
    trace_norm,
)
from .ensembles import child_rng
from .errors import (
    DomainError,
    GapError,
    GuardError,
    InsufficientDataError,
    PreconditionError,
)
from .measurement import (
    ShotBudget,
    bootstrap_stderr,
    measure_observable_with_stderr,
    tomography,
)
from .reports import EstimatorReport

ANCILLA_GUARD = 3
MOMENT_GUARD = 6
OBSERVABLE_NORM_GUARD = 10.0
DEFAULT_MIN_GAP = 0.05
DEFAULT_MIN_EIGENVALUE = 0.05


class PurificationIdentity(str, Enum):
    """The four exact relations between a purification and its marginals."""

    MARGINAL_PURITY = "marginal_purity"
    MOMENT_STEERING = "moment_steering"
    PRINCIPAL_STEERING = "principal_steering"
    CROSS_STEERING = "cross_steering"


JointState = Union[PureState, DensityMatrix]


def _joint_marginals(state: JointState, nA: Optional[int]) -> tuple[DensityMatrix, DensityMatrix, int, int]:
    nA = state.nA if isinstance(state, PureState) else nA
    if nA is None:
        raise DomainError("a DensityMatrix joint state needs an explicit nA split")
    nB = state.n - nA
    if nA < 1 or nB < 1:
        raise DomainError("split must leave at least one qubit on each side")
    return partial_trace(state, range(nA)), partial_trace(state, range(nA, state.n)), nA, nB


def _blocks(state: JointState, dA: int) -> tuple[np.ndarray, np.ndarray]:
    """Spectral columns as d_A x d_B blocks, shape (d_A, K, d_B), and their signed weights."""
    spec = state.spectral()
    k = spec.eigenvalues.size
    return spec.eigenvectors.reshape(dA, -1, k).transpose(0, 2, 1), spec.eigenvalues


def _steer(state: JointState, nA: int, nB: int, b_operator: np.ndarray) -> np.ndarray:
    """Tr_B[ state (I_A (x) M_B) ] = sum_j w_j C_j M^T C_j^dag over the spectral blocks C_j."""
    dA, dB = 2 ** nA, 2 ** nB
    c, w = _blocks(state, dA)
    m = np.asarray(b_operator, dtype=complex)
    steered = (c.reshape(-1, dB) @ m.T).reshape(c.shape) * w[:, None]
    return steered.reshape(dA, -1) @ c.reshape(dA, -1).conj().T


def _expectation_weights(joint: JointState, a_operator: Union[Observable, np.ndarray]) -> np.ndarray:
    """X = sum_j w_j C_j^dag A C_j, so Tr[joint (A (x) g)] = sum(X * g) for every g."""
    dA = a_operator.dim if isinstance(a_operator, Observable) else len(a_operator)
    c, w = _blocks(joint, dA)
    moved = (a_operator @ c.reshape(dA, -1)).reshape(-1, c.shape[2])
    return (c * w[:, None]).conj().reshape(-1, c.shape[2]).T @ moved


def bipartite_expectation(psi: JointState, a_operator: Union[Observable, np.ndarray], b_operator: np.ndarray) -> float:
    """Tr[ psi (A (x) B) ] for a pure or mixed joint state, without the Kronecker product."""
    x = _expectation_weights(psi, a_operator)
    return float(np.real(np.sum(x * np.asarray(b_operator, dtype=complex))))


def oracle_identity_check(
    state: JointState,
    kind: PurificationIdentity,
    *,
    t: int = 2,
    pair: tuple[int, int] = (0, 1),
    nA: Optional[int] = None,
) -> float:
    """Exact deviation between the two sides of a steering identity.

    Returns a trace-norm (or absolute-value) residual computed with exact
    linear algebra; shot noise never enters.
    """
    kind = PurificationIdentity(kind)
    rho_a, rho_b, nA, nB = _joint_marginals(state, nA)

    if kind is PurificationIdentity.MARGINAL_PURITY:
        return abs(rho_a.purity() - rho_b.purity())

    if kind is PurificationIdentity.MOMENT_STEERING:
        if t < 1:
            raise DomainError("moment order must be >= 1")
        power = rho_b.spectral().apply(lambda w: np.clip(w, 0, None) ** (t - 1))
        lhs = _steer(state, nA, nB, power)
        rhs = rho_a.spectral().apply(lambda w: np.clip(w, 0, None) ** t)
        return trace_norm(lhs - rhs)

    # Principal steering is the (0, 0) case of cross steering:
    # reconstruct |psi_A^k><psi_A^j| from a B-side flip.
    spec_b = rho_b.spectral()
    if kind is PurificationIdentity.PRINCIPAL_STEERING:
        if spec_b.gap <= DEFAULT_RANK_TOL:
            raise GapError(f"principal eigenvalue is degenerate (gap {spec_b.gap})")
        j = k = 0
    else:
        j, k = pair
        r = spec_b.rank
        if not (0 <= j < r and 0 <= k < r and j != k):
            raise DomainError(f"pair {pair} must name two distinct nonzero eigenvalues (rank {r})")
    lam_j, lam_k = spec_b.eigenvalues[j], spec_b.eigenvalues[k]
    flip = np.outer(spec_b.eigenvectors[:, j], spec_b.eigenvectors[:, k].conj())
    lhs = _steer(state, nA, nB, flip) / np.sqrt(lam_j * lam_k)
    spec_a = rho_a.spectral()
    rhs = np.outer(spec_a.eigenvectors[:, k], spec_a.eigenvectors[:, j].conj())
    # The A-side eigenvectors carry their own phase convention; align the
    # one free global phase before differencing.
    overlap = np.trace(rhs.conj().T @ lhs)
    if abs(overlap) > 1e-14:
        rhs = rhs * (overlap / abs(overlap))
    return trace_norm(lhs - rhs)


def _guard_psi(psi: PureState):
    if psi.nA < 1 or psi.nB < 1:
        raise DomainError("purification estimators need nA >= 1 and nB >= 1")
    if psi.nB > ANCILLA_GUARD:
        raise GuardError(f"nB = {psi.nB} exceeds the desk-scale guard {ANCILLA_GUARD}")


def _guard_observable(observable: Observable, dim: int):
    if observable.dim != dim:
        raise DomainError(f"observable dimension {observable.dim} does not match payload {dim}")
    if observable.spectral_norm > OBSERVABLE_NORM_GUARD:
        raise GuardError(
            f"observable norm {observable.spectral_norm} exceeds guard {OBSERVABLE_NORM_GUARD}"
        )


def _outer(ket: np.ndarray, bra: np.ndarray) -> np.ndarray:
    """|ket><bra|, broadcast over leading stack axes."""
    return ket[..., :, None] * bra.conj()[..., None, :]


def _principal(spec: SpectralDecomposition) -> tuple[np.ndarray, np.ndarray]:
    """Stage-2 term of principal-component estimation: (1 / lambda_0, |psi_0><psi_0|)."""
    top = spec.eigenvectors[..., :, 0]
    return 1.0 / spec.eigenvalues[..., 0], _outer(top, top)


def _two_stage(
    rho_b: DensityMatrix,
    budget: ShotBudget,
    seed: int,
    *,
    spectral: Callable[[np.ndarray], np.ndarray] = lambda w: np.zeros(w.shape[:-1]),
    joint: Optional[JointState] = None,
    observable: Optional[Observable] = None,
    terms: Callable[[SpectralDecomposition], list] = lambda spec: [],
    power: int = 1,
) -> tuple[EstimatorReport, SpectralDecomposition, list[float]]:
    """The protocol shared by every purification and dilation estimator.

    Stage 1 tomographs the small register ``rho_b``.  ``terms`` maps its
    spectrum to (coefficient, g) pairs, and stage 2 measures every O (x) g on
    ``joint`` in one stacked draw, the observable shots split evenly over the
    terms, each in its product eigenbasis U_O (x) U_g (a per-qubit O keeps
    its basis factors and rotates one qubit at a time).  The estimate is
    spectral(w) + sum_i coefficient_i * mean_i ** power.  Its stderr is
    the hypot of the propagated shot error and a bootstrap of stage 1,
    which re-evaluates the estimate on resampled spectra with exact
    stage-2 means; a value that is not finite raises
    InsufficientDataError.  ``spectral`` and ``terms`` get PSD-projected
    spectra (eigenvalues >= 0, trace 1) and act on a leading resample axis
    too.  Returns the report, the stage-1 spectrum and the stage-2 means.
    The caller fills in the report's truth afterwards, from the A-side
    Schmidt factor of ``joint``.
    """
    tomo = tomography(rho_b, budget.tomography_shots, child_rng(seed, 0))
    spec = tomo.estimate.spectral()
    measured = terms(spec)
    shots_used = {"tomography": tomo.raw_shots}
    means: list[float] = []
    shot_var = 0.0
    weights = None
    if measured:
        shots_each = budget.observable_shots // len(measured)
        if shots_each < 1:
            raise InsufficientDataError(
                f"{budget.observable_shots} observable shots cannot cover "
                f"{len(measured)} measurements"
            )
        means, ses, drawn = measure_observable_with_stderr(
            joint, (observable, [g for _, g in measured]), shots_each * len(measured), child_rng(seed, 1)
        )
        # a sequential sum: np.sum would reorder eight or more terms
        for (coefficient, _), mean, se in zip(measured, means, ses):
            shot_var += (power * coefficient * mean ** (power - 1) * se) ** 2
        shots_used["observable"] = sum(drawn)
        weights = _expectation_weights(joint, observable)

    def estimate(w: np.ndarray, coefficients: list, values: list) -> np.ndarray:
        return spectral(w) + sum(c * v ** power for c, v in zip(coefficients, values))

    def stage1(spectra: SpectralDecomposition) -> np.ndarray:
        resampled = terms(spectra)
        exact = [np.real(np.sum(weights * g, axis=(-2, -1))) for _, g in resampled]
        return estimate(spectra.eigenvalues, [c for c, _ in resampled], exact)

    se_stage1 = bootstrap_stderr(tomo, stage1, child_rng(seed, 2))
    value = float(estimate(spec.eigenvalues, [c for c, _ in measured], means))
    if not np.isfinite(value):
        raise InsufficientDataError(f"estimate {value} is not finite; stage 1 needs more shots")
    stderr = float(np.hypot(np.sqrt(shot_var), se_stage1))
    report = EstimatorReport(value=value, shots_used=shots_used, stderr=stderr, seed=seed)
    return report, spec, means


def estimate_moment(psi: PureState, t: int, budget: ShotBudget, seed: int) -> EstimatorReport:
    """Estimate Tr(rho_A^t) by tomographing the small marginal.

    The spectra of the two marginals agree, so the full estimate is the
    classical moment of the reconstructed B state; no A-side measurement
    is needed and the cost is independent of nA.
    """
    _guard_psi(psi)
    if not 2 <= t <= MOMENT_GUARD:
        raise DomainError(f"moment order t={t} outside [2, {MOMENT_GUARD}]")
    report = _two_stage(
        partial_trace(psi, "B"),
        budget,
        seed,
        spectral=lambda w: np.sum(w ** t, axis=-1),
    )[0]
    report.truth = float(np.sum(schmidt_decompose(psi).eigenvalues ** t))
    return report


def estimate_virtual_cooling(
    psi: PureState,
    observable: Observable,
    t: int,
    budget: ShotBudget,
    seed: int,
) -> EstimatorReport:
    """Estimate Tr(O rho_A^t) via the B-side power trick.

    Stage 1 reconstructs rho_B; stage 2 measures O (x) rho_B_hat^(t-1) on
    the purified register, whose exact expectation is the target.
    """
    _guard_psi(psi)
    if not 2 <= t <= MOMENT_GUARD:
        raise DomainError(f"moment order t={t} outside [2, {MOMENT_GUARD}]")
    _guard_observable(observable, 2 ** psi.nA)
    report = _two_stage(
        partial_trace(psi, "B"),
        budget,
        seed,
        joint=psi,
        observable=observable,
        terms=lambda spec: [(1.0, spec.apply(lambda w: w ** (t - 1)))],
    )[0]
    a_side = schmidt_decompose(psi)
    report.truth = observable.expectation(a_side.eigenvectors, a_side.eigenvalues ** t)  # Tr(O rho_A^t)
    return report


def estimate_pca(
    psi: PureState,
    observable: Observable,
    budget: ShotBudget,
    seed: int,
) -> EstimatorReport:
    """Estimate Tr(O psi_A^0), the observable on the principal component.

    Requires the marginal spectral gap to clear ``DEFAULT_MIN_GAP``,
    mirroring the protocol's Theta(1)-gap assumption; the estimate divides
    the measured steering expectation by the reconstructed top eigenvalue.
    """
    _guard_psi(psi)
    _guard_observable(observable, 2 ** psi.nA)

    rho_b = partial_trace(psi, "B")
    exact_gap = rho_b.spectral().gap
    if exact_gap < DEFAULT_MIN_GAP:
        raise GapError(f"spectral gap {exact_gap:.4f} below the required {DEFAULT_MIN_GAP}")

    report = _two_stage(
        rho_b, budget, seed, joint=psi, observable=observable, terms=lambda spec: [_principal(spec)]
    )[0]
    report.truth = observable.expectation(schmidt_decompose(psi).eigenvectors[:, :1], 1.0)
    return report


def _qfi_prefactor(lam_j: float, lam_k: float) -> float:
    return (lam_j - lam_k) ** 2 / (lam_j * lam_k * (lam_j + lam_k))


def flip_observables(vec_j: np.ndarray, vec_k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Hermitian pair (|j><k| + h.c., i|j><k| + h.c.) for one eigenpair (or a stack)."""
    raw = _outer(vec_j, vec_k)
    plus = raw + raw.conj().swapaxes(-1, -2)
    minus = 1j * raw + (1j * raw).conj().swapaxes(-1, -2)
    return plus, minus


def eigenstate_factor_exact(
    psi: JointState, observable: Observable, vec_j: np.ndarray, vec_k: np.ndarray
) -> float:
    """Infinite-shot value of the two-copy eigenstate factor.

    The tensor decomposition turns the two-copy expectation into the two
    single-copy expectations M+ and M-, combined as (M+^2 + M-^2) / 2.
    """
    plus, minus = flip_observables(vec_j, vec_k)
    m_plus = bipartite_expectation(psi, observable, plus)
    m_minus = bipartite_expectation(psi, observable, minus)
    return 0.5 * (m_plus ** 2 + m_minus ** 2)


def qfi_oracle(
    rho: DensityMatrix | SpectralDecomposition, observable: Observable, mode: str = "support_only"
) -> float:
    """Exact quantum Fisher information, read from the support columns S of a spectrum.

    ``rho`` is a state or its spectral decomposition, possibly thin (the
    A-side Schmidt factor of a purification).  With S the columns of its
    ``support()``, in O(d^2 |S|) and with no d x d product:

        support_only = 2 sum_{j,k in S} (l_j - l_k)^2 / (l_j + l_k) |O_jk|^2
        full = support_only + 4 sum_{j in S} l_j (|O v_j|^2 - sum_{k in S} |O_kj|^2)

    ``support_only`` is exactly the reach of the purification-assisted
    reformulation.  ``full`` adds the support/null pairs (l_j |O_jk|^2 per
    ordering); the null columns complete S to the identity, so their sum
    is the norm of O v_j that S leaves over.
    """
    if mode not in ("full", "support_only"):
        raise DomainError(f"unknown mode {mode!r}")
    return _qfi_oracles(rho, observable)[mode == "full"]


def _qfi_oracles(rho: DensityMatrix | SpectralDecomposition, observable: Observable) -> tuple[float, float]:
    """Both :func:`qfi_oracle` modes, (support_only, full), from one ``O @ v``."""
    v, lam = (rho if isinstance(rho, SpectralDecomposition) else rho.spectral()).support()
    o_v = observable @ v
    overlap = np.abs(v.conj().T @ o_v) ** 2  # |O_jk|^2 on S x S
    ratio = (lam[:, None] - lam[None, :]) ** 2 / (lam[:, None] + lam[None, :])
    total = 2.0 * np.sum(ratio * overlap)
    leftover = np.sum(np.abs(o_v) ** 2, axis=0) - np.sum(overlap, axis=0)
    return float(total), float(total + 4.0 * np.sum(lam * leftover))


def estimate_qfi(
    psi: PureState,
    observable: Observable,
    budget: ShotBudget,
    seed: int,
    *,
    min_eigenvalue: float = DEFAULT_MIN_EIGENVALUE,
    min_gap: float = DEFAULT_MIN_GAP,
) -> EstimatorReport:
    """Estimate the support-restricted QFI from single-copy measurements.

    After B-side tomography, each nonzero eigenpair contributes a
    prefactor from the reconstructed eigenvalues times an eigenstate
    factor measured through the two flip observables; unordered pairs
    enter with multiplicity 2.  The report's truth is the support-QFI
    oracle, with the full-QFI oracle recorded separately because the
    protocol cannot see support/null cross terms.  ``extras["term_table"]["pairs"]``
    has one row [j, k, lambda_j, lambda_k, prefactor, eigenstate_factor]
    per unordered pair of nonzero eigenvalues; the estimate sums
    2 * prefactor * eigenstate_factor over the rows.
    """
    _guard_psi(psi)
    _guard_observable(observable, 2 ** psi.nA)

    rho_b = partial_trace(psi, "B")
    lam_exact = rho_b.spectral().support()[1]
    r = lam_exact.size
    for j in range(r):
        if lam_exact[j] < min_eigenvalue:
            raise PreconditionError(
                f"eigenvalue {j} = {lam_exact[j]:.4f} below the floor {min_eigenvalue}"
            )
        for k in range(j + 1, r):
            if abs(lam_exact[j] - lam_exact[k]) < min_gap:
                raise PreconditionError(
                    f"eigenvalue pair ({j}, {k}) separated by "
                    f"{abs(lam_exact[j] - lam_exact[k]):.4f} < {min_gap}"
                )

    pairs = list(itertools.combinations(range(r), 2))

    def flips(spec: SpectralDecomposition) -> list:
        w, v = spec.eigenvalues, spec.eigenvectors
        out = []
        for j, k in pairs:
            prefactor = _qfi_prefactor(w[..., j], w[..., k])
            out += [(prefactor, g) for g in flip_observables(v[..., :, j], v[..., :, k])]
        return out

    report, spec, means = _two_stage(
        rho_b, budget, seed, joint=psi, observable=observable, terms=flips, power=2
    )
    report.truth, full = _qfi_oracles(schmidt_decompose(psi), observable)
    lam = spec.eigenvalues
    rows = []
    for (j, k), m_plus, m_minus in zip(pairs, means[0::2], means[1::2]):
        prefactor = float(_qfi_prefactor(lam[j], lam[k]))
        factor = 0.5 * (m_plus ** 2 + m_minus ** 2)
        rows.append([j, k, float(lam[j]), float(lam[k]), prefactor, factor])
    report.extras = {
        "full_qfi_oracle": full,
        "support_rank": r,
        "term_table": {"pairs": rows},
    }
    return report
