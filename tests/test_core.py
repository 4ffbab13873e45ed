import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from puriscope import (
    DensityMatrix,
    EnsembleFamily,
    EnsembleSpec,
    Observable,
    PureState,
    QuantumChannel,
    SpectralDecomposition,
    StinespringIsometry,
    eigh,
    matrix_power_trace,
    partial_trace,
    schmidt_decompose,
    trace_norm,
)
from puriscope.core import (
    PAULI_I,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    PSD_ATOL,
    _FACTOR_MIN_QUBITS,
    _canonical,
    kron_all,
    pauli_on,
)
from puriscope.ensembles import _haar_vector, child_rng, haar_unitary, purify
from puriscope.errors import DimensionError, DomainError, ValidationError
from puriscope.estimators import _expectation_weights, _steer, qfi_oracle
from puriscope.measurement import born_probabilities

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
        psi = PureState(_haar_vector(2 ** 4, rng), 3, 1)
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
        psi = PureState(_haar_vector(2 ** 3, rng), 3)
        rho_02 = partial_trace(psi, [0, 2])
        # Cross-check against tracing out qubit 1 from the full density matrix.
        full = DensityMatrix.from_columns(psi.amplitudes[:, None], 3)
        rho_ref = partial_trace(full, [0, 2])
        assert trace_norm(rho_02.spectral().reconstruct() - rho_ref.spectral().reconstruct()) < 1e-12

    def test_out_of_range_selector(self):
        with pytest.raises(DimensionError):
            partial_trace(BELL, [0, 5])

    def test_malformed_selectors(self):
        with pytest.raises(DimensionError, match="requires a PureState"):
            partial_trace(DensityMatrix.from_columns(BELL.amplitudes[:, None], 2), "A")
        with pytest.raises(DimensionError, match="unknown subsystem selector"):
            partial_trace(BELL, "C")
        with pytest.raises(DimensionError, match="at least one qubit"):
            partial_trace(BELL, [])
        with pytest.raises(DimensionError, match="duplicate qubit"):
            partial_trace(BELL, [0, 0])

    def test_trace_preserved(self):
        rng = child_rng(44)
        rho = random_density(3, 4, rng)
        red = partial_trace(rho, [1, 2])
        assert abs(np.trace(red.matrix) - 1) < 1e-12


class TestSchmidt:
    def test_bell_coefficients(self):
        np.testing.assert_allclose(schmidt_decompose(BELL).eigenvalues, [0.5, 0.5], atol=1e-12)

    def test_product_state(self):
        psi = PureState(np.kron(np.array([1, 0]), np.array([1, 0])), 1, 1)
        np.testing.assert_allclose(schmidt_decompose(psi).eigenvalues, [1.0, 0.0], atol=1e-12)

    def test_round_trip_with_purify(self):
        rng = child_rng(45)
        rho = random_density(2, 2, rng, weights=[0.9, 0.1])
        psi = purify(rho, 1)
        np.testing.assert_allclose(schmidt_decompose(psi).eigenvalues, [0.9, 0.1], atol=1e-10)

    def test_reassembly(self):
        for trial in range(20):
            psi = PureState(_haar_vector(2 ** 5, child_rng(46, trial)), 3, 2)
            sd = schmidt_decompose(psi)
            c = psi.as_matrix()
            # row j is sqrt(lambda_j) times the B-side partner of A-side vector j: the
            # pairs rebuild the state, and the partners are orthogonal with squared norms lambda_j
            partners = sd.eigenvectors.conj().T @ c
            assert np.abs(sd.eigenvectors @ partners - c).max() < 1e-10
            assert np.abs(partners @ partners.conj().T - np.diag(sd.eigenvalues)).max() < 1e-10
            assert np.all(sd.eigenvalues[:-1] >= sd.eigenvalues[1:] - 1e-14)
            assert abs(sd.eigenvalues.sum() - 1) < 1e-10

    def test_requires_bipartition(self):
        psi = PureState(_haar_vector(2 ** 2, child_rng(47)), 2)
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

    def test_support_is_the_leading_columns_with_clipped_weights(self):
        spec = eigh(np.diag([0.3, -1e-12, 0.7, 0.0]).astype(complex))
        columns, weights = spec.support()
        assert spec.rank == 2
        np.testing.assert_array_equal(columns, spec.eigenvectors[:, :2])
        np.testing.assert_array_equal(weights, [0.7, 0.3])
        # a spectrum with nothing above the tolerance keeps one column, at weight 0
        flat = SpectralDecomposition(np.array([-0.1, -0.2]), np.eye(2))
        columns, weights = flat.support()
        assert flat.rank == 0
        np.testing.assert_array_equal(columns, np.eye(2)[:, :1])
        np.testing.assert_array_equal(weights, [0.0])


def test_tie_break_keeps_each_eigenvalue_with_its_vector():
    m = np.diag([0.6, 0.4 - 1e-12, 1e-12, 0.0]).astype(complex)
    spec = eigh(m)
    w, v = spec.eigenvalues, spec.eigenvectors
    assert np.linalg.norm(m @ v - v * w, axis=0).max() <= 1e-12
    # swapping the tied pairs (1e-12, 0) misses by exactly the tie tolerance,
    # which the bound above admits; a diagonal matrix's true pairs are exact
    assert np.abs(m @ v - v * w).max() == 0.0


def test_support_readers_drop_an_eigenvalue_below_the_rank_tolerance():
    # eigenvalues 0.6, 0.4 and 1e-12 (below 1e-9 * 0.6) on |00>, |01>, |10>
    rho = DensityMatrix(np.diag([0.6, 0.4 - 1e-12, 1e-12, 0.0]).astype(complex), 2)
    assert rho.rank() == 2
    np.testing.assert_array_equal(born_probabilities(rho, np.eye(4))[2:], 0.0)
    assert purify(rho, 1).nB == 1  # two ancilla levels hold the support
    # X on qubit 0 couples |00> only to |10>, so no support pair sees it
    x0 = Observable.from_factors([PAULI_X, PAULI_I])
    assert qfi_oracle(rho, x0, "support_only") == 0.0
    assert abs(qfi_oracle(rho, x0, "full") - 4.0) < 1e-11
    assert matrix_power_trace(rho, 3) == float(np.sum(np.array([0.6, 0.4 - 1e-12]) ** 3))


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
        perm = sorted(range(stop - start), key=lambda j: keys[j])
        v[:, start:stop], w[start:stop] = block[:, perm], w[start:stop][perm]
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
        psi = PureState(_haar_vector(2 ** 6, child_rng(152)), 4, 2)
        u, s, _ = np.linalg.svd(psi.as_matrix(), full_matrices=False)
        for j in range(u.shape[1]):
            pivot = u[int(np.argmax(np.abs(u[:, j]))), j]
            u[:, j] = u[:, j] * (pivot.conj() / np.abs(pivot))
        sd = schmidt_decompose(psi)
        np.testing.assert_array_equal(sd.eigenvectors, u)
        np.testing.assert_array_equal(sd.eigenvalues, s ** 2)


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
        built = Observable.from_factors([PAULI_I, PAULI_X, PAULI_I])
        assert calls == {"eigh": 3, "eigvalsh": 0}
        for _ in range(3):
            assert rho.spectral() is rho.spectral()
            assert rho.rank() == 2
            for o in (obs, built):
                assert o.spectral_norm == 1.0
                np.testing.assert_array_equal(o @ np.eye(8), o.matrix)
        assert calls == {"eigh": 3, "eigvalsh": 0}


def _dense_eigh(matrix):
    """The dense path: np.linalg.eigh of the Hermitian part, put in canonical form."""
    m = np.asarray(matrix, dtype=complex)
    w, v = np.linalg.eigh((m + m.conj().T) / 2)
    return _canonical(w, v.astype(complex))


def _random_factor(kind, rng):
    """A Hermitian 2x2 factor: random, a scaled identity, or a signed rank-1 projector."""
    if kind == "identity":
        return rng.uniform(0.5, 2.0) * PAULI_I
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    if kind == "rank1":
        return rng.choice([-1.0, 1.0]) * np.outer(z[:, 0], z[:, 0].conj())
    return (z + z.conj().T) / 2


def _embedded(n, qubit, pauli):
    return [pauli if k == qubit else PAULI_I for k in range(n)]


def _value_cdf(values, probs, cuts):
    """P(value <= c) for every cut c of an outcome-value distribution."""
    order = np.argsort(values, kind="stable")
    cdf = np.concatenate([[0.0], np.cumsum(probs[order])])
    return cdf[np.searchsorted(values[order], cuts, side="right")]


def _assert_factor_paths_agree(factors, rng):
    """Observable(dense), Observable.from_factors and the dense eigh agree within 1e-12.

    Checks sorted spectra, spectral_norm, O @ v, and the distribution of the
    value of O (x) g measured in the product eigenbasis on a random pure and
    a random mixed joint state with one B qubit.
    """
    n = len(factors)
    m = kron_all(*factors)
    reference = eigh(m)
    scale = max(1.0, float(np.abs(reference.eigenvalues).max()))
    dense, built = Observable(m), Observable.from_factors(factors)
    assert len(dense.basis) == (n if n >= _FACTOR_MIN_QUBITS else 1)
    assert len(built.basis) == n
    v = rng.standard_normal((2 ** n, 3)) + 1j * rng.standard_normal((2 ** n, 3))
    apply_scale = np.abs(m).sum(axis=1).max() * np.abs(v).max()  # bounds every |(m v)_i|
    for obs in (dense, built):
        assert obs.dim == 2 ** n
        assert np.abs(np.sort(obs.eigenvalues) - np.sort(reference.eigenvalues)).max() <= 1e-12 * scale
        assert abs(obs.spectral_norm - np.abs(reference.eigenvalues).max()) <= 1e-12 * scale
        assert np.abs(obs @ v - m @ v).max() <= 1e-12 * apply_scale
        assert np.abs(obs @ v[:, 0] - m @ v[:, 0]).max() <= 1e-12 * apply_scale
    assert np.abs(built.matrix - m).max() <= 1e-12 * scale

    g = Observable(_random_factor("random", rng))
    columns = rng.standard_normal((2 ** (n + 1), 3)) + 1j * rng.standard_normal((2 ** (n + 1), 3))
    joints = [
        PureState(_haar_vector(2 ** (n + 1), rng), n + 1),
        DensityMatrix.from_columns(columns / np.linalg.norm(columns), n + 1),
    ]
    values = np.multiply.outer(reference.eigenvalues, g.eigenvalues).ravel()
    distinct = np.unique(values)
    gaps = np.diff(distinct) > 1e-9 * scale
    cuts = (distinct[:-1][gaps] + distinct[1:][gaps]) / 2
    for joint in joints:
        want = _value_cdf(values, born_probabilities(joint, (reference.eigenvectors, *g.basis)), cuts)
        for obs in (dense, built):
            got_values = np.multiply.outer(obs.eigenvalues, g.eigenvalues).ravel()
            probs = born_probabilities(joint, (*obs.basis, *g.basis))
            assert np.abs(_value_cdf(got_values, probs, cuts) - want).max() <= 1e-12


@st.composite
def _factor_cases(draw):
    n = draw(st.integers(1, 8))
    kinds = draw(st.lists(st.sampled_from(["random", "identity", "rank1"]), min_size=n, max_size=n))
    return kinds, draw(st.integers(0, 2 ** 31))


class TestFactoredEigh:
    """Observables carried as per-qubit eigenbases against the one dense eigh."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_embedded_paulis_equal_the_dense_path(self, n):
        rng = child_rng(202, n)
        for qubit in range(n):
            for pauli in (PAULI_X, PAULI_Y, PAULI_Z):
                m = pauli_on(n, qubit, pauli)
                _assert_factor_paths_agree(_embedded(n, qubit, pauli), rng)
                if n < _FACTOR_MIN_QUBITS:
                    # below the factor threshold the dense path is unchanged, bytes included
                    obs, reference = Observable(m), _dense_eigh(m)
                    assert obs.eigenvalues.tobytes() == reference.eigenvalues.tobytes()
                    assert obs.basis[0].tobytes() == reference.eigenvectors.tobytes()

    @pytest.mark.parametrize("n", range(1, 9))
    def test_maximally_mixed_equals_the_dense_path(self, n):
        m = np.eye(2 ** n) / 2 ** n
        _assert_factor_paths_agree([PAULI_I / 2] * n, child_rng(203, n))
        spec, reference = DensityMatrix(m, n).spectral(), _dense_eigh(m)
        np.testing.assert_array_equal(spec.eigenvalues, reference.eigenvalues)
        np.testing.assert_array_equal(spec.eigenvectors, reference.eigenvectors)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(_factor_cases())
    def test_products_of_hermitian_factors_match_dense(self, case):
        kinds, seed = case
        rng = child_rng(200, seed)
        _assert_factor_paths_agree([_random_factor(kind, rng) for kind in kinds], rng)

    def test_other_inputs_take_the_dense_path_unchanged(self):
        rng = child_rng(201)
        z = rng.standard_normal((128, 128)) + 1j * rng.standard_normal((128, 128))
        dz = rng.standard_normal((128, 128)) + 1j * rng.standard_normal((128, 128))
        six = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        cases = [
            (z + z.conj().T) / 2,
            pauli_on(7, 1, PAULI_X) + 1e-9 * (dz + dz.conj().T) / 2,
            # within the entrywise bound (5e-11) everywhere, beyond the Frobenius one
            pauli_on(7, 1, PAULI_X) + 4e-11 * np.ones((128, 128)),
            (six + six.conj().T) / 2,
            np.zeros((128, 128), dtype=complex),
        ]
        for m in cases:
            assert Observable._qubit_factors(np.asarray(m, dtype=complex)) is None
            obs, reference = Observable(m), _dense_eigh(m)
            assert len(obs.basis) == 1
            assert obs.eigenvalues.tobytes() == reference.eigenvalues.tobytes()
            assert obs.basis[0].tobytes() == reference.eigenvectors.tobytes()
            assert eigh(m).eigenvectors.tobytes() == reference.eigenvectors.tobytes()

    def test_non_hermitian_product_is_rejected(self):
        rng = child_rng(204)
        dz = rng.standard_normal((128, 128)) + 1j * rng.standard_normal((128, 128))
        # A flat product passes the Frobenius test with one entry 1.2e-8 off
        # (12800 * 1e-12 >= 1.2e-8), but not the entrywise one (100 * 1e-10 / 2).
        flat = kron_all(*[np.ones((2, 2))] * 7) * 100
        flat[5, 3] -= 1.2e-8
        cases = [
            kron_all(PAULI_X, np.array([[0, 1], [0, 0]], dtype=complex)),
            pauli_on(7, 1, PAULI_X) + 1e-9 * dz,
            flat,
        ]
        for m in cases:
            assert Observable._qubit_factors(np.asarray(m, dtype=complex)) is None
            with pytest.raises(ValidationError, match="matrix is not Hermitian within 1e-10"):
                Observable(m)
        with pytest.raises(ValidationError, match="matrix is not Hermitian within 1e-10"):
            Observable.from_factors([PAULI_X, np.array([[0, 1], [0, 0]], dtype=complex)])
        with pytest.raises(ValidationError):
            Observable.from_factors([np.eye(4)])


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
        assert trace_norm(rho.matrix - rho.matrix) == 0

    # trace_norm is un-halved: orthogonal pure states are 2 apart.
    def test_orthogonal_pure_states(self):
        a = DensityMatrix(np.diag([1.0, 0]).astype(complex), 1)
        b = DensityMatrix(np.diag([0, 1.0]).astype(complex), 1)
        assert abs(trace_norm(a.spectral().reconstruct() - b.spectral().reconstruct()) - 2.0) < 1e-12

    def test_matches_eigenvalue_sum_oracle(self):
        rng = child_rng(53)
        a = random_density(3, 4, rng)
        b = random_density(3, 2, rng)
        w = np.linalg.eigvalsh(a.matrix - b.matrix)
        assert abs(trace_norm(a.spectral().reconstruct() - b.spectral().reconstruct()) - np.abs(w).sum()) < 1e-12


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
            psi = PureState(_haar_vector(2 ** (n_a + n_b), rng), n_a, n_b)
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


# -- one spectral path --------------------------------------------------------
# Dense references kept from the einsum implementations that the spectral
# column path replaced: they read the d x d matrix of the state.


def _einsum_partial_trace(matrix, n, keep):
    rest = [q for q in range(n) if q not in keep]
    perm = list(keep) + rest + [n + q for q in keep] + [n + q for q in rest]
    dk, dr = 2 ** len(keep), 2 ** len(rest)
    t = np.transpose(matrix.reshape([2] * (2 * n)), perm).reshape(dk, dr, dk, dr)
    return np.einsum("arbr->ab", t)


def _einsum_steer(matrix, dA, dB, b_operator):
    return np.einsum("abcd,db->ac", matrix.reshape(dA, dB, dA, dB), b_operator)


def _einsum_expectation_weights(matrix, a_operator):
    dA = a_operator.shape[0]
    dB = matrix.shape[0] // dA
    return np.einsum("abcd,ca->db", matrix.reshape(dA, dB, dA, dB), a_operator)


def _random_columns(n, k, inner, rng):
    """d x k columns of rank min(inner, d, k), scaled to unit Frobenius norm."""
    d = 2 ** n
    left = rng.standard_normal((d, inner)) + 1j * rng.standard_normal((d, inner))
    right = rng.standard_normal((inner, k)) + 1j * rng.standard_normal((inner, k))
    c = left @ right
    return c / np.linalg.norm(c)


def _dense_with_small_eigenvalues(n, rng):
    """Full-spectrum state with eigenvalues below the rank tolerance, one of them negative."""
    d = 2 ** n
    w = np.concatenate([rng.dirichlet(np.ones(min(2, d))), np.zeros(max(d - 2, 0))])
    if d > 2:
        w[2] = -0.5 * PSD_ATOL
        w[3:] = 1e-13 * rng.random(d - 3)
    u = haar_unitary(d, rng)
    m = (u * w) @ u.conj().T
    return DensityMatrix(m / np.trace(m).real, n)


@st.composite
def _column_cases(draw):
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, 2 ** n + 2))
    inner = draw(st.integers(1, k))
    return n, k, inner, draw(st.integers(0, 2 ** 31))


class TestFromColumns:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(_column_cases())
    def test_matches_dense_construction(self, case):
        n, k, inner, seed = case
        c = _random_columns(n, k, inner, child_rng(190, seed))
        thin = DensityMatrix.from_columns(c, n)
        dense = DensityMatrix(c @ c.conj().T, n)
        assert np.abs(thin.matrix - dense.matrix).max() < 1e-12
        w_thin, w_dense = thin.spectral().eigenvalues, dense.spectral().eigenvalues
        m = w_thin.size
        assert m == min(2 ** n, k)
        assert np.abs(w_thin - w_dense[:m]).max() < 1e-12
        assert np.abs(w_dense[m:]).max(initial=0.0) < 1e-12
        assert thin.rank() == dense.rank()
        assert abs(thin.purity() - dense.purity()) < 1e-12
        # eigenvectors of eigenvalues well apart from their neighbours span the same lines
        padded = np.concatenate([[np.inf], w_dense, [-np.inf]])
        for j in range(m):
            if min(padded[j] - padded[j + 1], padded[j + 1] - padded[j + 2]) > 1e-6:
                a, b = thin.spectral().eigenvectors[:, j], dense.spectral().eigenvectors[:, j]
                assert np.abs(np.outer(a, a.conj()) - np.outer(b, b.conj())).max() < 1e-10

    def test_matrix_is_formed_on_first_access_only(self, monkeypatch):
        c = _random_columns(4, 3, 3, child_rng(191))
        rho = DensityMatrix.from_columns(c, 4)
        reconstructed = []
        original = SpectralDecomposition.reconstruct
        monkeypatch.setattr(
            SpectralDecomposition,
            "reconstruct",
            lambda self: reconstructed.append(1) or original(self),
        )
        assert rho.rank() == 3
        assert rho.purity() == float(np.sum(rho.spectral().eigenvalues ** 2))
        assert reconstructed == []
        assert rho.matrix is rho.matrix
        assert reconstructed == [1]

    def test_rejects_wrong_rows_and_trace(self):
        with pytest.raises(ValidationError):
            DensityMatrix.from_columns(np.ones((3, 1)) / np.sqrt(3), 2)
        with pytest.raises(ValidationError):
            DensityMatrix.from_columns(np.ones((4, 1)), 2)


class TestOneSpectralPath:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(_column_cases(), st.sampled_from(["pure", "thin", "dense"]))
    def test_reductions_match_einsum_references(self, case, kind):
        n, k, inner, seed = case
        rng = child_rng(192, seed)
        if kind == "pure":
            state = PureState(_random_columns(n, 1, 1, rng)[:, 0], n, 0)
            matrix = np.outer(state.amplitudes, state.amplitudes.conj())
        elif kind == "thin":
            state = DensityMatrix.from_columns(_random_columns(n, k, inner, rng), n)
            matrix = state.matrix
        else:
            state = _dense_with_small_eigenvalues(n, rng)
            matrix = state.matrix
        keep = [int(q) for q in rng.permutation(n)[: int(rng.integers(1, n + 1))]]
        reduced = partial_trace(state, keep).matrix
        assert np.abs(reduced - _einsum_partial_trace(matrix, n, keep)).max() < 1e-12
        if n < 2:
            return
        nA = int(rng.integers(1, n))
        dA, dB = 2 ** nA, 2 ** (n - nA)
        b_op = rng.standard_normal((dB, dB)) + 1j * rng.standard_normal((dB, dB))
        a_op = rng.standard_normal((dA, dA)) + 1j * rng.standard_normal((dA, dA))
        steered = _steer(state, nA, n - nA, b_op)
        assert np.abs(steered - _einsum_steer(matrix, dA, dB, b_op)).max() < 1e-12
        weights = _expectation_weights(state, a_op)
        assert np.abs(weights - _einsum_expectation_weights(matrix, a_op)).max() < 1e-12

    def test_signed_weights_below_rank_tolerance_still_trace_exactly(self):
        rho = _dense_with_small_eigenvalues(3, child_rng(193))
        assert rho.spectral().eigenvalues[-1] < 0 and rho.rank() == 2
        reduced = partial_trace(rho, [0, 2]).matrix
        # dropping the columns below the tolerance would cost about 5e-10
        assert np.abs(reduced - _einsum_partial_trace(rho.matrix, 3, [0, 2])).max() < 1e-12


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: PureState([np.nan, 0], 1), "state norm"),
        (
            lambda: EnsembleSpec(EnsembleFamily.RANDOM_RANK_R, 2, rank=2, weights=(np.nan, np.nan)),
            "weights must be nonnegative",
        ),
        (lambda: DensityMatrix.from_columns([[np.nan], [0]], 1), "trace"),
        (lambda: QuantumChannel(([[np.nan, 0], [0, 1]],), 1), "not trace preserving"),
        (
            lambda: StinespringIsometry([np.nan], (np.eye(2),), 1),
            "weights must sum to 1",
        ),
    ],
    ids=["PureState", "EnsembleSpec", "from_columns", "QuantumChannel", "StinespringIsometry"],
)
def test_tolerance_checks_refuse_nan(build, message):
    # abs(x - 1) > tol is False for NaN; each check must fail NaN instead.
    with pytest.raises(ValidationError, match=message):
        build()
