import json

import numpy as np
import pytest

from puriscope import (
    DensityMatrix,
    EnsembleFamily,
    EnsembleSpec,
    Observable,
    analytic_mean_purity,
    child_rng,
    classical_correlate,
    haar_state,
    haar_unitary,
    partial_trace,
    purify,
    qfi_oracle,
    sample_ensemble,
    schmidt_decompose,
    trace_distance,
    trace_norm,
    verification_state,
)
from puriscope.core import PAULI_X, pauli_on
from puriscope.errors import CapacityError, DomainError, ValidationError


class TestHaarSampling:
    def test_deterministic_given_seed(self):
        a = haar_state(3, child_rng(5)).amplitudes
        b = haar_state(3, child_rng(5)).amplitudes
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
            [np.abs(haar_state(3, child_rng(9, i)).amplitudes[0]) ** 2 for i in range(2000)]
        )
        rotated = np.array(
            [
                np.abs((w @ haar_state(3, child_rng(10, i)).amplitudes))[0] ** 2
                for i in range(2000)
            ]
        )
        assert abs(plain.mean() - rotated.mean()) < 3 * (1 / 8) / np.sqrt(2000) * 3

    def test_zero_qubits_rejected(self):
        with pytest.raises(DomainError):
            haar_state(0, child_rng(11))


class TestEnsembleSpec:
    def test_json_round_trip(self):
        spec = EnsembleSpec(EnsembleFamily.RANDOM_RANK_R, 3, rank=2, weights=(0.7, 0.3))
        blob = json.dumps(spec.to_json())
        again = EnsembleSpec.from_json(blob)
        assert again == spec

    def test_json_fields(self):
        spec = EnsembleSpec(EnsembleFamily.RANDOM_RANK_R, 3, rank=2, weights=[0.7, 0.3])
        assert spec.to_json() == {"family": "random_rank_r", "n": 3, "rank": 2, "weights": [0.7, 0.3]}
        fixed = EnsembleSpec.from_json({"family": "purity_s1", "n": 3})
        assert fixed.to_json() == {"family": "purity_s1", "n": 3, "rank": None, "weights": None}
        assert type(fixed.to_json()["family"]) is str
        assert EnsembleSpec.from_json(spec.to_json()).weights == (0.7, 0.3)

    def test_weight_validation(self):
        with pytest.raises(ValidationError):
            EnsembleSpec(EnsembleFamily.RANDOM_RANK_R, 2, rank=2, weights=(0.6, 0.3))

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


class TestSampleEnsemble:
    @pytest.mark.parametrize(
        "family,n",
        [
            (EnsembleFamily.PURITY_S1, 3),
            (EnsembleFamily.PURITY_S2, 3),
            (EnsembleFamily.VC_PCA_S1, 4),
            (EnsembleFamily.VC_PCA_S2, 4),
            (EnsembleFamily.FISHER_S1, 4),
            (EnsembleFamily.FISHER_S2, 4),
            (EnsembleFamily.CLASS_CORR_CS1, 6),
            (EnsembleFamily.CLASS_CORR_CS2, 6),
            (EnsembleFamily.HAAR_PURE, 3),
        ],
    )
    def test_rank_and_hidden_reconstruction(self, family, n):
        spec = EnsembleSpec(family, n)
        sample = sample_ensemble(spec, child_rng(20, list(EnsembleFamily).index(family)))
        assert sample.rho.rank() == spec.declared_rank
        rebuilt = np.zeros_like(sample.rho.matrix)
        for w, vec in zip(sample.hidden["weights"], sample.hidden["components"]):
            rebuilt += w * np.outer(vec, vec.conj())
        assert trace_norm(sample.rho.matrix - rebuilt) < 1e-10
        assert abs(sum(sample.hidden["weights"]) - 1) < 1e-12

    def test_purity_s1_forced_orthogonal(self):
        spec = EnsembleSpec(EnsembleFamily.PURITY_S1, 3)
        sample = sample_ensemble(spec, child_rng(21), force_orthogonal=True)
        assert abs(sample.rho.purity() - 0.82) < 1e-10

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


class TestPurify:
    def test_maximally_mixed_gives_maximal_entanglement(self):
        rho = DensityMatrix(np.eye(2) / 2, 1)
        psi = purify(rho, 1)
        sd = schmidt_decompose(psi)
        np.testing.assert_allclose(sd.coefficients, [0.5, 0.5], atol=1e-12)

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
            assert trace_distance(partial_trace(psi, "A"), rho, halved=False) < 1e-10

    def test_b_side_is_computational_basis(self):
        rng = child_rng(35)
        u = haar_unitary(4, rng)
        rho = DensityMatrix(
            (u[:, :2] * np.array([0.8, 0.2])) @ u[:, :2].conj().T, 2
        )
        sd = schmidt_decompose(purify(rho, 1))
        # coefficient j pairs with the B basis ket |j>, up to the locked phase
        for j in range(2):
            col = np.abs(sd.b_side.eigenvectors[:, j])
            expected = np.zeros(2)
            expected[j] = 1.0
            np.testing.assert_allclose(col, expected, atol=1e-10)

    def test_capacity_error(self):
        rng = child_rng(30)
        u = haar_unitary(8, rng)
        w = rng.dirichlet(np.ones(3))
        rho = DensityMatrix((u[:, :3] * w) @ u[:, :3].conj().T, 3)
        with pytest.raises(CapacityError):
            purify(rho, 1)


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
        assert trace_distance(reduced, rho, halved=False) < 1e-10

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
            assert trace_distance(a_marginal, rho, halved=False) < 1e-10


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
