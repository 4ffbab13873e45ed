"""Every exact value Tr(O f(rho)) goes through ``Observable.expectation``.

The first class checks ``expectation`` against the dense trace.  The
second makes any read of ``Observable.matrix`` raise and runs every
protocol that grades against an exact value: none of them may form the
dense observable.
"""

import numpy as np
import pytest

from puriscope import (
    DensityMatrix,
    EnsembleFamily,
    EnsembleSpec,
    Observable,
    ShotBudget,
    canonicalize,
    child_rng,
    distinguish_experiment,
    estimate_pca,
    estimate_qfi,
    estimate_virtual_cooling,
    haar_unitary,
    purify,
    random_channel,
    run_blind_estimation,
    swap_test_moment,
)
from puriscope.core import PAULI_I, PAULI_X, PAULI_Y, PAULI_Z


def _rank2(n, rng, weights=(0.7, 0.3)):
    u = haar_unitary(2 ** n, rng)
    return DensityMatrix.from_columns(u[:, :2] * np.sqrt(weights), n)


def _z_on_qubit0(n):
    return Observable.from_factors([PAULI_Z] + [PAULI_I] * (n - 1))


class TestObservableExpectation:
    @pytest.mark.parametrize("dense", [False, True])
    def test_matches_dense_trace(self, dense):
        rng = child_rng(301)
        factors = [PAULI_X, PAULI_Z, PAULI_Y]
        obs = Observable.from_factors(factors)
        if dense:
            obs = Observable(obs.matrix)
        cols = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
        weights = np.array([0.5, 0.3, -0.2])
        want = sum(w * np.vdot(c, obs.matrix @ c).real for w, c in zip(weights, cols.T))
        assert obs.expectation(cols, weights) == pytest.approx(want, abs=1e-12)
        assert obs.expectation(cols, 2.0) == pytest.approx(
            2.0 * np.real(np.trace(cols.conj().T @ obs.matrix @ cols)), abs=1e-12
        )

    def test_spectral_columns_give_trace_of_function(self):
        rho = _rank2(3, child_rng(302))
        obs = _z_on_qubit0(3)
        spec = rho.spectral()
        want = np.real(np.trace(obs.matrix @ rho.matrix @ rho.matrix))
        assert obs.expectation(spec.eigenvectors, spec.eigenvalues ** 2) == pytest.approx(want, abs=1e-12)


class TestNoDenseObservable:
    @pytest.fixture(autouse=True)
    def forbid_matrix(self, monkeypatch):
        def read(self):
            raise AssertionError("Observable.matrix was read")

        monkeypatch.setattr(Observable, "matrix", property(read))

    def test_estimators(self):
        psi = purify(_rank2(4, child_rng(310)), 1)
        budget = ShotBudget.split(4_000)
        for report in (
            estimate_virtual_cooling(psi, _z_on_qubit0(4), 2, budget, 1),
            estimate_pca(psi, _z_on_qubit0(4), budget, 2),
            estimate_qfi(psi, Observable.from_factors([PAULI_X] + [PAULI_I] * 3), budget, 3),
        ):
            assert np.isfinite(report.truth)

    @pytest.mark.parametrize("with_observable", [False, True])
    def test_swap_test(self, with_observable):
        rho = _rank2(2, child_rng(311))
        report = swap_test_moment(
            rho, _z_on_qubit0(2) if with_observable else Observable.from_factors([PAULI_I] * 2), 2, 2_000, 4
        )
        assert abs(report.extras["exact_expectation"] - report.truth) < 1e-9

    def test_blind_estimation(self):
        u = haar_unitary(8, child_rng(312))
        result = run_blind_estimation(u, _z_on_qubit0(3), 200, 5)
        z = np.kron(PAULI_Z, np.eye(4))
        psi, psi_perp = u[:, 0], u[:, 1]
        assert result.truth == pytest.approx(np.vdot(psi, z @ psi).real, abs=1e-12)
        mixture = 0.5 * (np.outer(psi, psi.conj()) + np.outer(psi_perp, psi_perp.conj()))
        assert result.all_rounds_truth == pytest.approx(np.trace(z @ mixture).real, abs=1e-12)

    def test_cooling_single_copy_arm(self):
        pair = (
            EnsembleSpec(EnsembleFamily.VC_PCA_S1, 3),
            EnsembleSpec(EnsembleFamily.VC_PCA_S2, 3),
        )
        assert distinguish_experiment(pair, "single_copy", 6_000, 2, seed=6).trials == 2

    def test_channel_truths(self):
        iso = canonicalize(random_channel(2, 2, child_rng(313)))
        rho = _rank2(2, child_rng(314))
        obs = _z_on_qubit0(2)
        z = np.kron(PAULI_Z, PAULI_I)
        moved = [np.trace(z @ k @ rho.matrix @ k.conj().T).real for k in iso.canonical_kraus]
        assert iso.distilled_truth(rho, obs) == pytest.approx(np.dot(iso.weights ** 2, moved), abs=1e-12)
        assert iso.principal_truth(rho, obs) == pytest.approx(moved[0], abs=1e-12)
