import hashlib

import numpy as np
import pytest

from puriscope import (
    DensityMatrix,
    EnsembleFamily,
    EnsembleSpec,
    Observable,
    PureState,
    analytic_mean_purity,
    child_rng,
    classical_correlate,
    haar_unitary,
    partial_trace,
    purify,
    qfi_oracle,
    sample_ensemble,
    schmidt_decompose,
    trace_norm,
    verification_state,
)
from puriscope.core import PAULI_X, pauli_on
from puriscope.ensembles import SEPARATION_PAIRS, _haar_vector, separated_statistic
from puriscope.errors import CapacityError, DimensionError, DomainError, ValidationError


def _trace_norm_gap(a, b):
    """The un-halved trace distance of two states, read from their spectra."""
    return trace_norm(a.spectral().reconstruct() - b.spectral().reconstruct())


# Each fixed family's draw at its qubit floor and at n = 6 -> the digest
# test_fixed_family_stream_is_pinned computes.  These are the dense draws'
# digests: a sampler that builds the families another way must match them.
STREAM_DIGESTS = {
    (EnsembleFamily.PURITY_S1, 1): "9a05bd7391334781",
    (EnsembleFamily.PURITY_S1, 6): "5310940c72afb410",
    (EnsembleFamily.PURITY_S2, 1): "5cfba310905ce06e",
    (EnsembleFamily.PURITY_S2, 6): "2027d71a248e0a41",
    (EnsembleFamily.VC_PCA_S1, 2): "efd27b56acdf3b53",
    (EnsembleFamily.VC_PCA_S1, 6): "dec94cead2c5bda8",
    (EnsembleFamily.VC_PCA_S2, 2): "cbdf61ef44503fb4",
    (EnsembleFamily.VC_PCA_S2, 6): "791512fbf7bd4a58",
    (EnsembleFamily.FISHER_S1, 2): "0333d0242626c3e4",
    (EnsembleFamily.FISHER_S1, 6): "8c89e971cf6cf369",
    (EnsembleFamily.FISHER_S2, 2): "16b4a95b48471014",
    (EnsembleFamily.FISHER_S2, 6): "9e67c2458cf3ebb0",
    (EnsembleFamily.CLASS_CORR_CS1, 5): "b8d8fb9f02986a54",
    (EnsembleFamily.CLASS_CORR_CS1, 6): "494d0de0420ada7f",
    (EnsembleFamily.CLASS_CORR_CS2, 5): "f4d72e3038066545",
    (EnsembleFamily.CLASS_CORR_CS2, 6): "b66d0e0e5db5f696",
    (EnsembleFamily.HAAR_PURE, 1): "9371b879ded6b2ae",
    (EnsembleFamily.HAAR_PURE, 6): "1fce0f0d37c028c8",
}


class TestHaarSampling:
    def test_deterministic_given_seed(self):
        a = _haar_vector(8, child_rng(5))
        b = _haar_vector(8, child_rng(5))
        np.testing.assert_array_equal(a, b)

    def test_unitary_is_unitary(self):
        u = haar_unitary(8, child_rng(6))
        assert np.abs(u.conj().T @ u - np.eye(8)).max() < 1e-12

    def test_bloch_vector_centered(self):
        rng = child_rng(7)
        z = rng.standard_normal((10_000, 2)) + 1j * rng.standard_normal((10_000, 2))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        bloch = np.stack(
            [
                2 * np.real(z[:, 0].conj() * z[:, 1]),
                2 * np.imag(z[:, 0].conj() * z[:, 1]),
                np.abs(z[:, 0]) ** 2 - np.abs(z[:, 1]) ** 2,
            ]
        )
        assert np.abs(bloch.mean(axis=1)).max() < 0.05

    def test_mean_overlap_is_inverse_dimension(self):
        rng = child_rng(8)
        z = rng.standard_normal((10_000, 4)) + 1j * rng.standard_normal((10_000, 4))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        overlaps = np.abs(z[:, 0]) ** 2
        assert abs(overlaps.mean() - 0.25) < 0.02

    def test_rotation_invariance(self):
        # A fixed unitary must not shift the overlap distribution.
        rng = child_rng(9)
        w = haar_unitary(8, rng)
        plain = np.array(
            [np.abs(_haar_vector(8, child_rng(9, i))[0]) ** 2 for i in range(2000)]
        )
        rotated = np.array(
            [
                np.abs((w @ _haar_vector(8, child_rng(10, i))))[0] ** 2
                for i in range(2000)
            ]
        )
        assert abs(plain.mean() - rotated.mean()) < 3 * (1 / 8) / np.sqrt(2000) * 3

    def test_zero_qubits_rejected(self):
        with pytest.raises(DomainError):
            haar_unitary(0, child_rng(11))
        with pytest.raises(DomainError):
            PureState(np.ones(1, dtype=complex), 0)


class TestEnsembleSpec:
    def test_family_and_weights_are_normalised(self):
        spec = EnsembleSpec("random_rank_r", 3, rank=2, weights=[0.7, 0.3])
        assert spec == EnsembleSpec(EnsembleFamily.RANDOM_RANK_R, 3, rank=2, weights=(0.7, 0.3))
        assert spec.family is EnsembleFamily.RANDOM_RANK_R
        assert spec.weights == (0.7, 0.3) and all(type(w) is float for w in spec.weights)

    def test_weight_validation(self):
        with pytest.raises(ValidationError):
            EnsembleSpec(EnsembleFamily.RANDOM_RANK_R, 2, rank=2, weights=(0.6, 0.3))

    def test_random_rank_r_needs_rank_and_weights(self):
        family = EnsembleFamily.RANDOM_RANK_R
        for rank in (None, 0, 9):
            with pytest.raises(DomainError, match="rank"):
                EnsembleSpec(family, 3, rank=rank, weights=(1.0,))
        with pytest.raises(DomainError, match="explicit weights"):
            EnsembleSpec(family, 3, rank=2)
        with pytest.raises(ValidationError, match="1 weights for rank 2"):
            EnsembleSpec(family, 3, rank=2, weights=(1.0,))

    def test_fixed_rank_family_rejects_rank_and_weights(self):
        with pytest.raises(DomainError):
            EnsembleSpec(EnsembleFamily.PURITY_S1, 3, rank=5)
        with pytest.raises(DomainError):
            EnsembleSpec(EnsembleFamily.PURITY_S1, 3, weights=(0.9, 0.1))
        assert EnsembleSpec(EnsembleFamily.PURITY_S1, 3).declared_rank == 2

    def test_family_minimum_qubits(self):
        with pytest.raises(DomainError):
            EnsembleSpec(EnsembleFamily.FISHER_S1, 1)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            EnsembleSpec("no_such_family", 2)

    def test_separated_statistic_of_each_pair_family(self):
        for task, pair in SEPARATION_PAIRS.items():
            for family in pair:
                assert separated_statistic(EnsembleSpec(family, 4))[0] == task
        assert separated_statistic(EnsembleSpec(EnsembleFamily.VC_PCA_S2, 4)) == ("cooling", -0.125)
        assert separated_statistic(EnsembleSpec(EnsembleFamily.FISHER_S1, 4)) == ("fisher", 1.0 / 14.0)

    @pytest.mark.parametrize(
        "spec",
        [
            EnsembleSpec(EnsembleFamily.CLASS_CORR_CS1, 5),
            EnsembleSpec(EnsembleFamily.HAAR_PURE, 3),
            EnsembleSpec(EnsembleFamily.RANDOM_RANK_R, 3, rank=2, weights=(0.5, 0.5)),
        ],
        ids=lambda spec: spec.family.value,
    )
    def test_separated_statistic_refuses_a_family_outside_every_pair(self, spec):
        with pytest.raises(DomainError, match="no separation pair"):
            separated_statistic(spec)


class TestSampleEnsemble:
    @pytest.mark.parametrize(
        "family", [f for f in EnsembleFamily if f is not EnsembleFamily.RANDOM_RANK_R], ids=lambda f: f.value
    )
    def test_rank_and_hidden_reconstruction(self, family):
        # Every fixed-rank family, at a size each one allows.
        spec = EnsembleSpec(family, 6)
        sample = sample_ensemble(spec, child_rng(20, list(EnsembleFamily).index(family)))
        assert sample.rho.rank() == spec.declared_rank
        rebuilt = np.zeros_like(sample.rho.matrix)
        for w, vec in zip(sample.hidden["weights"], sample.hidden["components"]):
            rebuilt += w * np.outer(vec, vec.conj())
        assert trace_norm(sample.rho.matrix - rebuilt) < 1e-10
        assert abs(sum(sample.hidden["weights"]) - 1) < 1e-12

    def test_purity_s1_closed_form(self):
        spec = EnsembleSpec(EnsembleFamily.PURITY_S1, 3)
        sample = sample_ensemble(spec, child_rng(22))
        overlap = abs(np.vdot(sample.hidden["u"], sample.hidden["v"])) ** 2
        assert abs(sample.rho.purity() - (0.82 + 0.18 * overlap)) < 1e-10

    def test_vc_pca_cooling_values_exact(self):
        z1 = pauli_on(4, 0, np.diag([1.0, -1.0]).astype(complex))
        for family, expected in [
            (EnsembleFamily.VC_PCA_S1, 0.125),
            (EnsembleFamily.VC_PCA_S2, -0.125),
        ]:
            for trial in range(25):
                s = sample_ensemble(EnsembleSpec(family, 4), child_rng(23, trial))
                val = np.real(np.trace(s.rho.matrix @ s.rho.matrix @ z1))
                assert abs(val - expected) < 1e-10

    def test_fisher_s2_zero_information(self):
        x1 = Observable(pauli_on(4, 0, PAULI_X))
        for trial in range(25):
            s = sample_ensemble(EnsembleSpec(EnsembleFamily.FISHER_S2, 4), child_rng(24, trial))
            assert qfi_oracle(s.rho, x1, "support_only") < 1e-10
            assert qfi_oracle(s.rho, x1, "full") < 1e-10

    def test_fisher_s1_information_floor(self):
        x1 = Observable(pauli_on(8, 0, PAULI_X))
        good = 0
        for trial in range(100):
            s = sample_ensemble(EnsembleSpec(EnsembleFamily.FISHER_S1, 8), child_rng(25, trial))
            good += qfi_oracle(s.rho, x1, "support_only") >= 0.01
        assert good >= 90

    def test_class_corr_support_information(self):
        # System marginal of the correlated composite: the flip observable
        # on the two-qubit level register sees 1/14 exactly on the first
        # family and only the vanishing overlap term on the second.
        flip = np.zeros((4, 4), dtype=complex)
        flip[0, 1] = flip[1, 0] = 1.0
        for trial in range(10):
            s1 = sample_ensemble(EnsembleSpec(EnsembleFamily.CLASS_CORR_CS1, 6), child_rng(26, trial))
            sys_marginal = partial_trace(s1.rho, [0, 1, 4, 5])
            obs = Observable(np.kron(flip, np.eye(4)))
            assert abs(qfi_oracle(sys_marginal, obs, "support_only") - 1.0 / 14.0) < 1e-9
            s2 = sample_ensemble(EnsembleSpec(EnsembleFamily.CLASS_CORR_CS2, 6), child_rng(27, trial))
            sys_marginal2 = partial_trace(s2.rho, [0, 1, 4, 5])
            overlap = abs(np.vdot(s2.hidden["u"], s2.hidden["v"])) ** 2
            assert abs(qfi_oracle(sys_marginal2, obs, "support_only") - overlap / 14.0) < 1e-9

    @pytest.mark.parametrize(
        "family,n,samples",
        [
            (EnsembleFamily.PURITY_S1, 4, 1000),
            (EnsembleFamily.PURITY_S2, 4, 1000),
            (EnsembleFamily.FISHER_S1, 4, 400),
            (EnsembleFamily.VC_PCA_S1, 4, 100),
            (EnsembleFamily.CLASS_CORR_CS1, 5, 50),
        ],
    )
    def test_mean_purity_matches_analytic(self, family, n, samples):
        spec = EnsembleSpec(family, n)
        values = np.array(
            [
                sample_ensemble(spec, child_rng(28, trial)).rho.purity()
                for trial in range(samples)
            ]
        )
        se = values.std(ddof=1) / np.sqrt(samples)
        assert abs(values.mean() - analytic_mean_purity(spec)) <= 3 * max(se, 1e-12)

    @pytest.mark.parametrize(
        "family,n", [pytest.param(f, n, id=f"{f.value}-{n}") for f, n in STREAM_DIGESTS]
    )
    def test_fixed_family_stream_is_pinned(self, family, n):
        # sha256 prefix of the draw's spectrum and components, signed zeros
        # made +0.0: a change to how a family is built keeps its stream.
        sample = sample_ensemble(EnsembleSpec(family, n), child_rng(40, list(EnsembleFamily).index(family), n))
        spectrum = sample.rho.spectral()
        digest = hashlib.sha256()
        for array in (spectrum.eigenvalues, spectrum.eigenvectors, *sample.hidden["components"]):
            digest.update((array + 0.0).tobytes())
        assert digest.hexdigest()[:16] == STREAM_DIGESTS[family, n]


class TestPurify:
    def test_maximally_mixed_gives_maximal_entanglement(self):
        rho = DensityMatrix(np.eye(2) / 2, 1)
        psi = purify(rho, 1)
        np.testing.assert_allclose(schmidt_decompose(psi).eigenvalues, [0.5, 0.5], atol=1e-12)

    def test_pure_input_leaves_ancilla_grounded(self):
        rho = DensityMatrix(np.diag([1.0, 0]).astype(complex), 1)
        psi = purify(rho, 1)
        b_state = partial_trace(psi, "B")
        np.testing.assert_allclose(b_state.matrix, np.diag([1.0, 0]), atol=1e-12)

    def test_round_trip(self):
        for trial in range(20):
            rng = child_rng(29, trial)
            u = haar_unitary(8, rng)
            w = rng.dirichlet(np.ones(3))
            rho = DensityMatrix((u[:, :3] * w) @ u[:, :3].conj().T, 3)
            psi = purify(rho, 2)
            assert _trace_norm_gap(partial_trace(psi, "A"), rho) < 1e-10

    def test_b_side_is_computational_basis(self):
        rng = child_rng(35)
        u = haar_unitary(4, rng)
        rho = DensityMatrix(
            (u[:, :2] * np.array([0.8, 0.2])) @ u[:, :2].conj().T, 2
        )
        # column j of the (A, B) amplitudes, the branch on the B basis ket |j>, is
        # sqrt(lambda_j) times the j-th eigenvector: orthogonal, with squared norm lambda_j
        m = purify(rho, 1).as_matrix()
        np.testing.assert_allclose(m.conj().T @ m, np.diag([0.8, 0.2]), atol=1e-10)

    def test_capacity_error(self):
        rng = child_rng(30)
        u = haar_unitary(8, rng)
        w = rng.dirichlet(np.ones(3))
        rho = DensityMatrix((u[:, :3] * w) @ u[:, :3].conj().T, 3)
        with pytest.raises(CapacityError):
            purify(rho, 1)

    def test_negative_ancilla_rejected(self):
        rho = DensityMatrix(np.diag([1.0, 0]).astype(complex), 1)
        with pytest.raises(DomainError):
            purify(rho, -1)

    def test_register_past_the_address_space_is_a_memory_error(self):
        # as for the draws: numpy's ValueError would name no cause
        rho = DensityMatrix(np.eye(4) / 4, 2)
        with pytest.raises(MemoryError, match="2\\*\\*64 amplitudes exceed the address space"):
            purify(rho, 62)


class TestClassicalCorrelate:
    def test_pure_state_appends_ground_ancilla(self):
        rho = DensityMatrix(np.diag([1.0, 0]).astype(complex), 1)
        out = classical_correlate(rho, 1)
        expected = np.kron(rho.matrix, np.diag([1.0, 0]))
        assert trace_norm(out.matrix - expected) < 1e-12

    def test_maximally_mixed_structure(self):
        rho = DensityMatrix(np.eye(2) / 2, 1)
        out = classical_correlate(rho, 1)
        # diagonal mixture of eigenbasis x marker states
        assert abs(out.purity() - 0.5) < 1e-12
        reduced = partial_trace(out, [0])
        assert _trace_norm_gap(reduced, rho) < 1e-10

    def test_marginal_purity_equality(self):
        for trial in range(20):
            rng = child_rng(31, trial)
            u = haar_unitary(4, rng)
            w = rng.dirichlet(np.ones(2))
            rho = DensityMatrix((u[:, :2] * w) @ u[:, :2].conj().T, 2)
            out = classical_correlate(rho, 1)
            b_marginal = partial_trace(out, [2])
            assert abs(b_marginal.purity() - rho.purity()) < 1e-10
            a_marginal = partial_trace(out, [0, 1])
            assert _trace_norm_gap(a_marginal, rho) < 1e-10


def _kron_sum_purify(rho, nB):
    """Reference purification: sum_j sqrt(lambda_j) |psi_j> (x) |j>, one Kronecker product per term."""
    spec = rho.spectral()
    lam = np.clip(spec.eigenvalues[: spec.rank], 0.0, None)
    amps = np.zeros(rho.dim * 2 ** nB, dtype=complex)
    for j in range(spec.rank):
        ket = np.zeros(2 ** nB, dtype=complex)
        ket[j] = 1.0
        amps += np.sqrt(lam[j]) * np.kron(spec.eigenvectors[:, j], ket)
    return amps / np.linalg.norm(amps)


def _kron_sum_classical_correlate(rho, nB):
    """Reference incoherent state: sum_j lambda_j |psi_j><psi_j| (x) |j><j|, term by term."""
    spec = rho.spectral()
    lam = np.clip(spec.eigenvalues[: spec.rank], 0.0, None)
    lam = lam / lam.sum()
    dB = 2 ** nB
    out = np.zeros((rho.dim * dB, rho.dim * dB), dtype=complex)
    for j in range(spec.rank):
        marker = np.zeros((dB, dB), dtype=complex)
        marker[j, j] = 1.0
        out += lam[j] * np.kron(np.outer(spec.eigenvectors[:, j], spec.eigenvectors[:, j].conj()), marker)
    return out


class TestBlockFillMatchesKronSum:
    # Byte equality, so the sign of every zero entry must match too.
    @pytest.mark.parametrize("case", ["diagonal", "vc_pca", "rank3"])
    def test_bytes_equal(self, case):
        if case == "diagonal":
            rho = DensityMatrix(np.diag([0.0, 0.3, 0.7, 0.0]).astype(complex), 2)
        elif case == "vc_pca":
            rho = sample_ensemble(EnsembleSpec(EnsembleFamily.VC_PCA_S1, 4), child_rng(36)).rho
        else:
            u = haar_unitary(8, child_rng(37))
            rho = DensityMatrix((u[:, :3] * [0.5, 0.3, 0.2]) @ u[:, :3].conj().T, 3)
        for nB in (2, 3):
            assert purify(rho, nB).amplitudes.tobytes() == _kron_sum_purify(rho, nB).tobytes()
            expected = _kron_sum_classical_correlate(rho, nB)
            assert classical_correlate(rho, nB).matrix.tobytes() == expected.tobytes()


class TestVerificationState:
    def test_high_alpha_reduces_to_purity_family_form(self):
        rng = child_rng(32)
        u = haar_unitary(4, rng)
        v = haar_unitary(4, rng)
        psi = verification_state(np.sqrt(0.9), u, v)
        rho_a = partial_trace(psi, "A")
        expected = 0.9 * np.outer(u[:, 0], u[:, 0].conj()) + 0.1 * np.outer(v[:, 0], v[:, 0].conj())
        assert trace_norm(rho_a.matrix - expected) < 1e-10

    def test_alpha_one_is_pure(self):
        rng = child_rng(33)
        u = haar_unitary(4, rng)
        v = haar_unitary(4, rng)
        psi = verification_state(1.0, u, v)
        rho_a = partial_trace(psi, "A")
        assert abs(rho_a.purity() - 1.0) < 1e-10

    def test_balanced_alpha_purity(self):
        rng = child_rng(34)
        u = haar_unitary(4, rng)
        v = haar_unitary(4, rng)
        psi = verification_state(np.sqrt(0.5), u, v)
        overlap = abs(np.vdot(u[:, 0], v[:, 0])) ** 2
        rho_b = partial_trace(psi, "B")
        assert abs(rho_b.purity() - (0.5 + 0.5 * overlap)) < 1e-10

    def test_alpha_domain(self):
        with pytest.raises(DomainError):
            verification_state(1.5, np.eye(2), np.eye(2))

    def test_branch_dimensions(self):
        with pytest.raises(DimensionError, match="branch dimensions differ"):
            verification_state(0.5, np.eye(2), np.eye(4))
        with pytest.raises(DimensionError, match="not a power of two"):
            verification_state(0.5, np.eye(3), np.eye(3))
