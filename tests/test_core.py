import numpy as np
import pytest

from puriscope import (
    DensityMatrix,
    Observable,
    PureState,
    SpectralDecomposition,
    eigh,
    matrix_power_trace,
    partial_trace,
    schmidt_decompose,
    trace_distance,
    trace_norm,
)
from puriscope.core import PAULI_X, PAULI_Z, pauli_on
from puriscope.ensembles import child_rng, haar_state, haar_unitary, purify
from puriscope.errors import DimensionError, DomainError, ValidationError

BELL = PureState(np.array([1, 0, 0, 1]) / np.sqrt(2), 1, 1)


def random_density(n, rank, rng, weights=None):
    d = 2 ** n
    u = haar_unitary(d, rng)
    if weights is None:
        w = rng.dirichlet(np.ones(rank))
    else:
        w = np.asarray(weights, dtype=float)
    return DensityMatrix((u[:, :rank] * w) @ u[:, :rank].conj().T, n)


class TestPureState:
    def test_norm_validation(self):
        with pytest.raises(ValidationError):
            PureState(np.array([1.0, 1.0]), 1, 0)

    def test_length_validation(self):
        with pytest.raises(ValidationError):
            PureState(np.array([1.0, 0, 0]), 1, 1)

    def test_immutable(self):
        with pytest.raises(ValueError):
            BELL.amplitudes[0] = 0.0


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        m = np.array([[0.5, 0.2], [0.1, 0.5]], dtype=complex)
        with pytest.raises(ValidationError):
            DensityMatrix(m, 1)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValidationError):
            DensityMatrix(np.eye(2, dtype=complex), 1)

    def test_rejects_negative(self):
        m = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(ValidationError):
            DensityMatrix(m, 1)

    def test_purity_matches_dense_trace(self):
        rho = random_density(8, 3, child_rng(180))
        assert abs(rho.purity() - float(np.real(np.trace(rho.matrix @ rho.matrix)))) < 1e-14


class TestPartialTrace:
    def test_bell_reduces_to_maximally_mixed(self):
        for side in ("A", "B"):
            red = partial_trace(BELL, side)
            np.testing.assert_allclose(red.matrix, np.eye(2) / 2, atol=1e-12)

    def test_product_state_factorizes(self):
        plus = np.array([1, 1]) / np.sqrt(2)
        psi = PureState(np.kron(np.array([1, 0]), plus), 1, 1)
        red = partial_trace(psi, "A")
        np.testing.assert_allclose(red.matrix, np.diag([1.0, 0.0]), atol=1e-12)

    def test_matches_index_summation_oracle(self):
        rng = child_rng(42)
        psi = haar_state(4, rng).resplit(3)
        reduced = partial_trace(psi, "A").matrix
        # Independent O(dA^2 dB) loop over conjugate-paired amplitudes.
        c = psi.amplitudes.reshape(8, 2)
        brute = np.zeros((8, 8), dtype=complex)
        for a in range(8):
            for ap in range(8):
                for b in range(2):
                    brute[a, ap] += c[a, b] * np.conj(c[ap, b])
        assert np.abs(reduced - brute).max() < 1e-12

    def test_arbitrary_qubit_selector(self):
        rng = child_rng(43)
        psi = haar_state(3, rng)
        rho_02 = partial_trace(psi, [0, 2])
        # Cross-check against tracing out qubit 1 from the full density matrix.
        full = psi.density()
        rho_ref = partial_trace(full, [0, 2])
        assert trace_distance(rho_02, rho_ref, halved=False) < 1e-12

    def test_out_of_range_selector(self):
        with pytest.raises(DimensionError):
            partial_trace(BELL, [0, 5])

    def test_trace_preserved(self):
        rng = child_rng(44)
        rho = random_density(3, 4, rng)
        red = partial_trace(rho, [1, 2])
        assert abs(np.trace(red.matrix) - 1) < 1e-12


class TestSchmidt:
    def test_bell_coefficients(self):
        sd = schmidt_decompose(BELL)
        np.testing.assert_allclose(sd.coefficients, [0.5, 0.5], atol=1e-12)

    def test_product_state(self):
        psi = PureState(np.kron(np.array([1, 0]), np.array([1, 0])), 1, 1)
        sd = schmidt_decompose(psi)
        np.testing.assert_allclose(sd.coefficients, [1.0, 0.0], atol=1e-12)

    def test_round_trip_with_purify(self):
        rng = child_rng(45)
        rho = random_density(2, 2, rng, weights=[0.9, 0.1])
        psi = purify(rho, 1)
        sd = schmidt_decompose(psi)
        np.testing.assert_allclose(sd.coefficients, [0.9, 0.1], atol=1e-10)

    def test_reassembly(self):
        rng = child_rng(46)
        for trial in range(20):
            psi = haar_state(5, child_rng(46, trial)).resplit(3)
            sd = schmidt_decompose(psi)
            assert np.abs(sd.reassemble() - psi.amplitudes).max() < 1e-10
            assert np.all(sd.coefficients[:-1] >= sd.coefficients[1:] - 1e-14)
            assert abs(sd.coefficients.sum() - 1) < 1e-10

    def test_requires_bipartition(self):
        psi = haar_state(2, child_rng(47))
        with pytest.raises(DomainError):
            schmidt_decompose(psi)


class TestEigh:
    def test_pauli_z(self):
        spec = eigh(PAULI_Z)
        np.testing.assert_allclose(spec.eigenvalues, [1.0, -1.0], atol=1e-12)

    def test_maximally_mixed(self):
        spec = eigh(np.eye(2) / 2)
        np.testing.assert_allclose(spec.eigenvalues, [0.5, 0.5], atol=1e-12)

    def test_orthogonal_mixture(self):
        rng = child_rng(48)
        u = haar_unitary(8, rng)
        m = 0.9 * np.outer(u[:, 0], u[:, 0].conj()) + 0.1 * np.outer(u[:, 1], u[:, 1].conj())
        spec = eigh(m)
        np.testing.assert_allclose(spec.eigenvalues[:2], [0.9, 0.1], atol=1e-12)
        np.testing.assert_allclose(spec.eigenvalues[2:], 0, atol=1e-12)

    def test_reconstruction_up_to_dim_256(self):
        for trial, n in enumerate([2, 16, 64, 256]):
            rng = child_rng(49, trial)
            z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            h = (z + z.conj().T) / 2
            spec = eigh(h)
            assert trace_norm(spec.reconstruct() - h) < 1e-9 * max(1, trace_norm(h))
            overlap = spec.eigenvectors.conj().T @ spec.eigenvectors
            assert np.abs(overlap - np.eye(n)).max() < 1e-10

    def test_phase_convention_reproducible(self):
        rng = child_rng(50)
        z = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        h = (z + z.conj().T) / 2
        a, b = eigh(h), eigh(h.copy())
        np.testing.assert_array_equal(a.eigenvectors, b.eigenvectors)
        # largest-magnitude component of each column is real positive
        for col in a.eigenvectors.T:
            pivot = col[np.argmax(np.abs(col))]
            assert abs(pivot.imag) < 1e-12 and pivot.real > 0

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            eigh(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_degenerate_block_order_deterministic(self):
        # A twofold-degenerate block must come back in a canonical column
        # order, identical across byte-identical inputs.
        rng = child_rng(59)
        u = haar_unitary(4, rng)
        m = 0.5 * (np.outer(u[:, 0], u[:, 0].conj()) + np.outer(u[:, 1], u[:, 1].conj()))
        m = (m + m.conj().T) / 2
        a, b = eigh(m), eigh(m.copy())
        np.testing.assert_array_equal(a.eigenvectors, b.eigenvectors)
        keys = [
            tuple(np.round(np.column_stack([col.real, col.imag]).ravel(), 10))
            for col in a.eigenvectors[:, :2].T
        ]
        assert keys == sorted(keys)

    def test_apply_matches_matrix_function_and_broadcasts_over_a_stack(self):
        rhos = [random_density(2, 4, child_rng(58, k)) for k in range(3)]
        specs = [rho.spectral() for rho in rhos]
        for rho, spec in zip(rhos, specs):
            sqrt_rho = spec.apply(np.sqrt)
            assert np.abs(sqrt_rho @ sqrt_rho - rho.matrix).max() < 1e-12
        stack = SpectralDecomposition(
            np.stack([s.eigenvalues for s in specs]), np.stack([s.eigenvectors for s in specs])
        )
        cubes = stack.apply(lambda w: w ** 3)
        for cube, rho in zip(cubes, rhos):
            assert np.abs(cube - np.linalg.matrix_power(rho.matrix, 3)).max() < 1e-12

    def test_declared_rank_mode(self):
        spec = eigh(np.diag([0.7, 0.3, 0.0, 0.0]).astype(complex))
        assert spec.rank == 2
        np.testing.assert_array_equal(spec.support(), [0, 1])
        np.testing.assert_array_equal(spec.support(declared_rank=3), [0, 1, 2])
        with pytest.raises(DomainError):
            spec.support(declared_rank=0)


def _reference_fix_phase(column):
    """Per-column loop form of eigh's phase convention."""
    pivot = column[int(np.argmax(np.abs(column)))]
    if np.abs(pivot) < 1e-15:
        return column
    return column * (pivot.conj() / np.abs(pivot))


def _reference_eigh(matrix):
    """Loop form of eigh: per-column phases, tuple-sorted degenerate blocks."""
    m = np.asarray(matrix, dtype=complex)
    w, v = np.linalg.eigh((m + m.conj().T) / 2)
    v = v.astype(complex)
    order = np.argsort(-w, kind="stable")
    w, v = w[order], v[:, order]
    for j in range(v.shape[1]):
        v[:, j] = _reference_fix_phase(v[:, j])
    tie_tol = 1e-12 * max(1.0, float(np.abs(w).max()))
    start = 0
    while start < w.size:
        stop = start + 1
        while stop < w.size and abs(w[stop] - w[start]) <= tie_tol:
            stop += 1
        block = v[:, start:stop]
        keys = [tuple(np.round(np.column_stack([c.real, c.imag]).ravel(), 10)) for c in block.T]
        v[:, start:stop] = block[:, sorted(range(stop - start), key=lambda j: keys[j])]
        start = stop
    return w, v


def _assert_matches_reference(m):
    spec = eigh(m)
    w, v = _reference_eigh(m)
    np.testing.assert_array_equal(spec.eigenvalues, w)
    np.testing.assert_array_equal(spec.eigenvectors, v)


class TestEighMatchesLoopReference:
    @pytest.mark.parametrize("n", [1, 4, 8])
    @pytest.mark.parametrize("pauli", ["Z", "X"])
    def test_embedded_pauli(self, n, pauli):
        for qubit in sorted({0, n - 1}):
            _assert_matches_reference(pauli_on(n, qubit, PAULI_Z if pauli == "Z" else PAULI_X))

    def test_rank2_density_with_254_fold_null_block(self):
        _assert_matches_reference(random_density(8, 2, child_rng(150), weights=[0.7, 0.3]).matrix)

    def test_maximally_mixed(self):
        _assert_matches_reference(np.eye(4) / 4)

    def test_random_nondegenerate(self):
        z = child_rng(151).standard_normal((32, 32, 2)) @ np.array([1, 1j])
        _assert_matches_reference((z + z.conj().T) / 2)

    def test_schmidt_phase_lock(self):
        psi = haar_state(6, child_rng(152)).resplit(4)
        u, s, vh = np.linalg.svd(psi.as_matrix(), full_matrices=False)
        for j in range(u.shape[1]):
            pivot = u[int(np.argmax(np.abs(u[:, j]))), j]
            phase = pivot.conj() / np.abs(pivot)
            u[:, j] = u[:, j] * phase
            vh[j, :] = vh[j, :] * phase.conj()
        sd = schmidt_decompose(psi)
        np.testing.assert_array_equal(sd.a_side.eigenvectors, u)
        np.testing.assert_array_equal(sd.b_side.eigenvectors, vh.T)
        reference = np.einsum("j,aj,bj->ab", np.sqrt(s ** 2), u, vh.T).reshape(-1)
        np.testing.assert_array_equal(sd.reassemble(), reference)


class TestOneDiagonalisation:
    def test_constructor_diagonalises_once(self, monkeypatch):
        calls = {"eigh": 0, "eigvalsh": 0}
        for name in calls:
            original = getattr(np.linalg, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        rho = random_density(3, 2, child_rng(153))
        obs = Observable(pauli_on(3, 1, PAULI_X))
        assert calls == {"eigh": 2, "eigvalsh": 0}
        for _ in range(3):
            assert rho.spectral() is rho.spectral()
            assert rho.rank() == 2
            assert obs.spectral() is obs.spectral()
            assert obs.spectral_norm == 1.0
        assert calls == {"eigh": 2, "eigvalsh": 0}


class TestMomentTrace:
    def test_maximally_mixed(self):
        rho = DensityMatrix(np.eye(2) / 2, 1)
        assert abs(matrix_power_trace(rho, 2) - 0.5) < 1e-12

    def test_pure_state_any_order(self):
        rho = DensityMatrix(np.diag([1.0, 0, 0, 0]).astype(complex), 2)
        for t in (1, 2, 3, 5):
            assert abs(matrix_power_trace(rho, t) - 1.0) < 1e-12

    def test_power_sum(self):
        rng = child_rng(51)
        rho = random_density(2, 2, rng, weights=[0.9, 0.1])
        assert abs(matrix_power_trace(rho, 3) - 0.73) < 1e-10

    def test_rejects_zero_order(self):
        rho = DensityMatrix(np.eye(2) / 2, 1)
        with pytest.raises(DomainError):
            matrix_power_trace(rho, 0)


class TestDistances:
    def test_identical_states(self):
        rng = child_rng(52)
        rho = random_density(2, 3, rng)
        assert trace_distance(rho, rho) == 0

    def test_orthogonal_pure_states(self):
        a = DensityMatrix(np.diag([1.0, 0]).astype(complex), 1)
        b = DensityMatrix(np.diag([0, 1.0]).astype(complex), 1)
        assert abs(trace_distance(a, b, halved=False) - 2.0) < 1e-12
        assert abs(trace_distance(a, b) - 1.0) < 1e-12

    def test_matches_eigenvalue_sum_oracle(self):
        rng = child_rng(53)
        a = random_density(3, 4, rng)
        b = random_density(3, 2, rng)
        w = np.linalg.eigvalsh(a.matrix - b.matrix)
        assert abs(trace_distance(a, b, halved=False) - np.abs(w).sum()) < 1e-12

    def test_dimension_mismatch(self):
        a = DensityMatrix(np.eye(2) / 2, 1)
        b = DensityMatrix(np.eye(4) / 4, 2)
        with pytest.raises(DimensionError):
            trace_distance(a, b)


class TestFidelity:
    def test_identical_states(self):
        from puriscope import fidelity

        rho = random_density(2, 2, child_rng(58))
        assert abs(fidelity(rho, rho) - 1.0) < 1e-10

    def test_orthogonal_pure_states(self):
        from puriscope import fidelity

        a = DensityMatrix(np.diag([1.0, 0]).astype(complex), 1)
        b = DensityMatrix(np.diag([0, 1.0]).astype(complex), 1)
        assert fidelity(a, b) < 1e-12

    def test_pure_versus_mixed(self):
        from puriscope import fidelity

        a = DensityMatrix(np.diag([1.0, 0]).astype(complex), 1)
        b = DensityMatrix(np.diag([0.7, 0.3]).astype(complex), 1)
        assert abs(fidelity(a, b) - 0.7) < 1e-10


class TestObservable:
    def test_spectral_norm_cached(self):
        obs = Observable(3.0 * PAULI_X)
        assert abs(obs.spectral_norm - 3.0) < 1e-9

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            Observable(np.array([[0, 1], [0.5, 0]], dtype=complex))

    def test_embedded_pauli(self):
        z1 = pauli_on(3, 0, PAULI_Z)
        expected = np.kron(PAULI_Z, np.eye(4))
        np.testing.assert_allclose(z1, expected)


class TestMarginalSpectra:
    def test_nonzero_spectra_agree(self):
        # Spectra of the two marginals of a pure state match on support.
        for trial in range(25):
            rng = child_rng(54, trial)
            n_a = int(rng.integers(1, 5))
            n_b = int(rng.integers(1, 3))
            psi = haar_state(n_a + n_b, rng).resplit(n_a)
            wa = np.sort(np.linalg.eigvalsh(partial_trace(psi, "A").matrix))[::-1]
            wb = np.sort(np.linalg.eigvalsh(partial_trace(psi, "B").matrix))[::-1]
            k = min(len(wa), len(wb))
            assert np.abs(wa[:k] - wb[:k]).max() < 1e-9
            if len(wa) > k:
                assert np.abs(wa[k:]).max() < 1e-9


def _perturbation(dim, eps, rng):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (z + z.conj().T) / 2
    return h * (eps / trace_norm(h))


class TestPerturbationLemmas:
    """Spectral stability bounds used by the PCA and QFI error budgets."""

    def test_top_eigenvalue_shift(self):
        for trial in range(200):
            rng = child_rng(55, trial)
            dim = int(rng.integers(2, 9))
            base = _psd_with_gap(dim, rng)
            gap = np.sort(np.linalg.eigvalsh(base))[::-1]
            delta = gap[0] - gap[1]
            eps = float(rng.uniform(1e-4, delta / 2))
            pert = _perturbation(dim, eps, rng)
            lam, lam_p = np.linalg.eigvalsh(base)[-1], np.linalg.eigvalsh(base + pert)[-1]
            assert abs(lam - lam_p) <= eps + 1e-12

    def test_principal_projector_shift(self):
        for trial in range(200):
            rng = child_rng(56, trial)
            dim = int(rng.integers(2, 9))
            base = _psd_with_gap(dim, rng)
            w = np.sort(np.linalg.eigvalsh(base))[::-1]
            delta = w[0] - w[1]
            eps = float(rng.uniform(1e-4, delta / 2))
            pert = _perturbation(dim, eps, rng)
            proj = _principal_projector(base)
            proj_p = _principal_projector(base + pert)
            assert trace_norm(proj - proj_p) <= 2 * np.sqrt(2 * eps / delta) + 1e-9

    def test_cross_projector_bound(self):
        for trial in range(200):
            rng = child_rng(57, trial)
            dim = int(rng.integers(2, 7))
            v = haar_unitary(dim, rng)
            psi1, psi2 = v[:, 0], v[:, 1] if dim > 1 else (v[:, 0], v[:, 0])
            w = haar_unitary(dim, child_rng(57, trial, 1))
            mix1, mix2 = rng.uniform(0, 0.2), rng.uniform(0, 0.2)
            psi1p = _mix_vectors(psi1, w[:, 0], mix1)
            psi2p = _mix_vectors(psi2, w[:, 1], mix2)
            eps1 = trace_norm(np.outer(psi1, psi1.conj()) - np.outer(psi1p, psi1p.conj()))
            eps2 = trace_norm(np.outer(psi2, psi2.conj()) - np.outer(psi2p, psi2p.conj()))
            p12 = _cross_operator(psi1, psi2)
            p12p = _cross_operator(psi1p, psi2p)
            assert trace_norm(p12 - p12p) <= 2 * (eps1 + eps2) + 1e-9


def _psd_with_gap(dim, rng):
    w = np.sort(rng.uniform(0.05, 1.0, size=dim))[::-1]
    w[0] += 0.3  # keep a workable top gap
    u = haar_unitary(dim, rng)
    return (u * w) @ u.conj().T


def _principal_projector(m):
    w, v = np.linalg.eigh(m)
    top = v[:, -1]
    return np.outer(top, top.conj())


def _mix_vectors(a, b, amount):
    v = a + amount * b
    return v / np.linalg.norm(v)


def _cross_operator(psi1, psi2):
    block = np.kron(np.outer(psi1, psi2.conj()), np.outer(psi2, psi1.conj()))
    return block + block.conj().T
