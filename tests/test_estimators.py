import tracemalloc

import numpy as np
import pytest

from puriscope import (
    DensityMatrix,
    EnsembleFamily,
    EnsembleSpec,
    Observable,
    PureState,
    PurificationIdentity,
    ServerKind,
    ServerModel,
    ShotBudget,
    child_rng,
    classical_correlate,
    estimate_moment,
    estimate_pca,
    estimate_qfi,
    estimate_virtual_cooling,
    haar_unitary,
    oracle_identity_check,
    partial_trace,
    purify,
    qfi_oracle,
    run_verification,
    sample_ensemble,
    schmidt_decompose,
)
from puriscope.core import PAULI_I, PAULI_X, PAULI_Y, PAULI_Z, basis_state, kron_all, pauli_on
from puriscope.errors import (
    DomainError,
    GapError,
    GuardError,
    InsufficientDataError,
    PreconditionError,
)
from puriscope.estimators import (
    bipartite_expectation,
    eigenstate_factor_exact,
    flip_observables,
)
from puriscope import estimators, measurement
from puriscope.measurement import measure_observable_with_stderr, tomography
from puriscope.reports import EstimatorReport

BELL = PureState(np.array([1, 0, 0, 1]) / np.sqrt(2), 1, 1)


def rank2_state(n, rng, weights=(0.9, 0.1)):
    d = 2 ** n
    u = haar_unitary(d, rng)
    w = np.asarray(weights, float)
    return DensityMatrix((u[:, : len(w)] * w) @ u[:, : len(w)].conj().T, n)


def embedded_rank2(n, rng, weights=(0.6, 0.4)):
    """Fixed-spectrum mixture whose eigenvectors differ on the first qubit only."""
    chi = rng.standard_normal(2 ** (n - 1)) + 1j * rng.standard_normal(2 ** (n - 1))
    chi /= np.linalg.norm(chi)
    e0 = np.kron(np.array([1.0, 0]), chi)
    e1 = np.kron(np.array([0, 1.0]), chi)
    m = weights[0] * np.outer(e0, e0.conj()) + weights[1] * np.outer(e1, e1.conj())
    return DensityMatrix(m, n)


class TestIdentities:
    def test_marginal_purity_on_random_purifications(self):
        for trial in range(30):
            rng = child_rng(60, trial)
            rho = rank2_state(int(rng.integers(1, 4)), rng, weights=rng.dirichlet(np.ones(2)))
            psi = purify(rho, 1)
            assert oracle_identity_check(psi, PurificationIdentity.MARGINAL_PURITY) <= 1e-10

    def test_moment_steering_on_bell(self):
        dev = oracle_identity_check(BELL, PurificationIdentity.MOMENT_STEERING, t=2)
        assert dev <= 1e-12

    def test_all_identities_small_sweep(self):
        for trial in range(20):
            rng = child_rng(61, trial)
            n_a = int(rng.integers(2, 5))
            rank = int(rng.integers(2, 5))
            w = rng.dirichlet(np.ones(rank)) * 0.6 + 0.4 * np.arange(rank, 0, -1) / np.arange(
                rank, 0, -1
            ).sum()
            w = np.sort(w)[::-1]
            u = haar_unitary(2 ** n_a, rng)
            rho = DensityMatrix((u[:, :rank] * w) @ u[:, :rank].conj().T, n_a)
            psi = purify(rho, 2)
            for kind in PurificationIdentity:
                if kind is PurificationIdentity.CROSS_STEERING and rank < 2:
                    continue
                for t in (2, 3, 4):
                    dev = oracle_identity_check(psi, kind, t=t, pair=(0, 1))
                    assert dev <= 1e-9, (kind, t, dev)

    def test_cross_steering_matches_outer_product(self):
        rng = child_rng(62)
        rho = rank2_state(3, rng)
        psi = purify(rho, 1)
        dev = oracle_identity_check(psi, PurificationIdentity.CROSS_STEERING, pair=(0, 1))
        assert dev <= 1e-9

    def test_moment_steering_order_domain(self):
        with pytest.raises(DomainError):
            oracle_identity_check(BELL, PurificationIdentity.MOMENT_STEERING, t=0)

    def test_principal_steering_needs_gap(self):
        psi = BELL  # both marginal eigenvalues are 1/2
        with pytest.raises(GapError):
            oracle_identity_check(psi, PurificationIdentity.PRINCIPAL_STEERING)

    def test_cross_steering_needs_support_pair(self):
        rng = child_rng(63)
        rho = rank2_state(2, rng)
        psi = purify(rho, 1)
        with pytest.raises(DomainError):
            oracle_identity_check(psi, PurificationIdentity.CROSS_STEERING, pair=(0, 3))

    @pytest.mark.parametrize("n_a", [0, 2])
    def test_pure_state_needs_both_sides(self, n_a):
        psi = PureState(basis_state(2), n_a, 2 - n_a)
        with pytest.raises(DomainError):
            oracle_identity_check(psi, PurificationIdentity.MARGINAL_PURITY)


class TestEstimateMoment:
    def test_rank2_spectrum(self):
        rng = child_rng(64)
        rho = rank2_state(3, rng)
        psi = purify(rho, 1)
        report = estimate_moment(psi, 2, ShotBudget(tomography_shots=10_000), seed=1)
        assert abs(report.truth - 0.82) < 1e-9
        assert report.abs_error < 0.05
        assert report.stderr > 0

    def test_fixed_seed_values(self):
        # Stage 1 only: the tomography stream is fixed, so the value is too.
        psi = purify(rank2_state(3, child_rng(64)), 1)
        report = estimate_moment(psi, 2, ShotBudget(tomography_shots=10_000), seed=1)
        assert abs(report.value - 0.8314234426293579) < 1e-12
        sample = sample_ensemble(EnsembleSpec(EnsembleFamily.VC_PCA_S1, 4), child_rng(68))
        psi = purify(sample.rho, 2)
        report = estimate_moment(psi, 3, ShotBudget(tomography_shots=20_000), seed=7)
        assert abs(report.value - 0.15292490930701166) < 1e-12

    def test_pure_marginal(self):
        rho = DensityMatrix(np.diag([1.0, 0, 0, 0]).astype(complex), 2)
        psi = purify(rho, 1)
        report = estimate_moment(psi, 2, ShotBudget(tomography_shots=10_000), seed=2)
        assert abs(report.value - 1.0) < 0.05

    def test_moment_guard(self):
        psi = purify(rank2_state(2, child_rng(65)), 1)
        with pytest.raises(DomainError):
            estimate_moment(psi, 7, ShotBudget(tomography_shots=1000), seed=3)

    def test_ancilla_guard(self):
        rng = child_rng(66)
        psi = purify(rank2_state(2, rng), 4)
        with pytest.raises(GuardError):
            estimate_moment(psi, 2, ShotBudget(tomography_shots=10 ** 6), seed=4)


class TestRoundoffStableDraws:
    def test_perturbed_hard_instance_draws_the_same_counts(self):
        """A 1e-15 change of a purification redraws no count and moves no estimate."""
        sample = sample_ensemble(EnsembleSpec(EnsembleFamily.VC_PCA_S1, 4), child_rng(68))
        psi = purify(sample.rho, 2)
        rng = child_rng(70)
        noise = rng.standard_normal(psi.dim) + 1j * rng.standard_normal(psi.dim)
        amplitudes = psi.amplitudes + 1e-15 * noise / np.linalg.norm(noise)
        moved = PureState(amplitudes / np.linalg.norm(amplitudes), psi.nA, psi.nB)
        assert 0 < np.abs(moved.amplitudes - psi.amplitudes).max() < 1e-14
        obs = Observable(pauli_on(4, 0, PAULI_Z))
        for seed in range(4):
            draws = [tomography(partial_trace(s, "B"), 20_000, child_rng(seed)) for s in (psi, moved)]
            np.testing.assert_array_equal(draws[0].setting_counts, draws[1].setting_counts)
            for estimate in (
                lambda s: estimate_moment(s, 3, ShotBudget(tomography_shots=20_000), seed),
                lambda s: estimate_virtual_cooling(s, obs, 2, ShotBudget(10_000, 10_000), seed),
            ):
                a, b = estimate(psi), estimate(moved)
                # stderr's bootstrap term weighs resamples with exact stage-2
                # means of the state itself, so it may move at roundoff
                assert a.value == b.value and abs(a.stderr - b.stderr) < 1e-15, seed


class TestEstimateVirtualCooling:
    def test_identity_reduces_to_moment(self):
        rng = child_rng(67)
        rho = rank2_state(2, rng)
        psi = purify(rho, 1)
        obs = Observable(np.eye(4, dtype=complex))
        report = estimate_virtual_cooling(psi, obs, 2, ShotBudget(20_000, 20_000), seed=5)
        assert abs(report.truth - 0.82) < 1e-9
        assert report.abs_error < 0.05

    def test_bell_truth_is_zero(self):
        obs = Observable(PAULI_Z)
        report = estimate_virtual_cooling(BELL, obs, 2, ShotBudget(5_000, 5_000), seed=6)
        assert abs(report.truth) < 1e-12
        assert abs(report.value) < 0.05

    def test_hard_instance_value(self):
        sample = sample_ensemble(EnsembleSpec(EnsembleFamily.VC_PCA_S1, 4), child_rng(68))
        psi = purify(sample.rho, 2)
        obs = Observable(pauli_on(4, 0, PAULI_Z))
        report = estimate_virtual_cooling(psi, obs, 2, ShotBudget(50_000, 50_000), seed=7)
        assert abs(report.truth - 0.125) < 1e-9
        assert report.abs_error < 0.05

    @pytest.mark.parametrize("t", [1, 7])
    def test_moment_guard(self, t):
        obs = Observable(PAULI_Z)
        with pytest.raises(DomainError):
            estimate_virtual_cooling(BELL, obs, t, ShotBudget(1000, 1000), seed=6)


class TestEstimatePca:
    def test_pure_marginal_recovers_expectation(self):
        rng = child_rng(69)
        u = haar_unitary(4, rng)
        rho = DensityMatrix(np.outer(u[:, 0], u[:, 0].conj()), 2)
        psi = purify(rho, 1)
        obs = Observable(pauli_on(2, 0, PAULI_Z))
        report = estimate_pca(psi, obs, ShotBudget(20_000, 20_000), seed=8)
        truth = float(np.real(u[:, 0].conj() @ obs.matrix @ u[:, 0]))
        assert abs(report.truth - truth) < 1e-9
        assert report.abs_error < 0.1

    def test_projector_observable(self):
        rng = child_rng(70)
        rho = rank2_state(2, rng)
        top = rho.spectral().eigenvectors[:, 0]
        obs = Observable(np.outer(top, top.conj()))
        psi = purify(rho, 1)
        report = estimate_pca(psi, obs, ShotBudget(50_000, 50_000), seed=9)
        assert abs(report.truth - 1.0) < 1e-9
        assert report.value >= 0.9

    def test_hard_instance_principal_component(self):
        sample = sample_ensemble(EnsembleSpec(EnsembleFamily.VC_PCA_S1, 4), child_rng(71))
        psi = purify(sample.rho, 2)
        obs = Observable(pauli_on(4, 0, PAULI_Z))
        report = estimate_pca(psi, obs, ShotBudget(50_000, 50_000), seed=10)
        assert abs(report.truth - 1.0) < 1e-9
        assert report.abs_error < 0.1

    def test_gap_error(self):
        with pytest.raises(GapError):
            estimate_pca(BELL, Observable(PAULI_Z), ShotBudget(5_000, 5_000), seed=11)


class TestQfiOracle:
    def test_identity_observable(self):
        rng = child_rng(72)
        rho = rank2_state(2, rng)
        assert qfi_oracle(rho, Observable(np.eye(4, dtype=complex)), "full") < 1e-12

    def test_pure_state_full_value(self):
        rho = DensityMatrix(np.diag([1.0, 0]).astype(complex), 1)
        assert abs(qfi_oracle(rho, Observable(PAULI_X), "full") - 4.0) < 1e-12
        assert qfi_oracle(rho, Observable(PAULI_X), "support_only") == 0.0

    def test_maximally_mixed(self):
        rho = DensityMatrix(np.eye(2) / 2, 1)
        for mode in ("full", "support_only"):
            assert qfi_oracle(rho, Observable(PAULI_X), mode) < 1e-12

    def test_mode_validation(self):
        rho = DensityMatrix(np.eye(2) / 2, 1)
        with pytest.raises(DomainError):
            qfi_oracle(rho, Observable(PAULI_X), "everything")


class TestEstimateQfi:
    def test_embedded_family(self):
        rng = child_rng(73)
        rho = embedded_rank2(3, rng)
        psi = purify(rho, 1)
        obs = Observable(pauli_on(3, 0, PAULI_X))
        report = estimate_qfi(psi, obs, ShotBudget(20_000, 20_000), seed=12)
        # support pairs: a single (0,1) pair with unit flip element, so
        # F = 4 * (0.6-0.4)^2 / (0.6+0.4) = 0.16
        assert abs(report.truth - 0.16) < 1e-9
        assert report.abs_error < 0.1
        assert report.extras["support_rank"] == 2
        assert abs(report.extras["full_qfi_oracle"] - report.truth) < 1e-9
        table = report.extras["term_table"]
        total = sum(2.0 * row[4] * row[5] for row in table["pairs"])
        assert abs(total - report.value) < 1e-12
        j, k, lam_j, lam_k, prefactor, _ = table["pairs"][0]
        assert abs(prefactor - (lam_j - lam_k) ** 2 / (lam_j * lam_k * (lam_j + lam_k))) < 1e-12

    def test_report_json(self):
        psi = purify(embedded_rank2(3, child_rng(73)), 1)
        report = estimate_qfi(psi, Observable(pauli_on(3, 0, PAULI_X)), ShotBudget(20_000, 20_000), seed=12)
        row = report.to_json()
        assert row == {
            "value": report.value,
            "truth": report.truth,
            "abs_error": abs(report.value - report.truth),
            "shots_used": {"tomography": 20_000, "observable": 20_000},
            "stderr": report.stderr,
            "seed": 12,
            "extras": report.extras,
        }
        assert row["shots_used"] is not report.shots_used
        assert EstimatorReport(value=0.5).to_json()["abs_error"] is None

    def test_stderr_adds_stage1_error_to_shot_error(self):
        rng = child_rng(73)
        psi = purify(embedded_rank2(3, rng), 1)
        obs = Observable(pauli_on(3, 0, PAULI_X))
        seed = 17
        report = estimate_qfi(psi, obs, ShotBudget(4_000, 4_000), seed=seed)
        # the shot-only part, rebuilt from the same streams
        spec = tomography(partial_trace(psi, "B"), 4_000, child_rng(seed, 0)).estimate.spectral()
        lam_j, lam_k = spec.eigenvalues[:2]
        prefactor = (lam_j - lam_k) ** 2 / (lam_j * lam_k * (lam_j + lam_k))
        stage2 = child_rng(seed, 1)
        parts = []
        for flip in flip_observables(spec.eigenvectors[:, 0], spec.eigenvectors[:, 1]):
            mean, se = measure_observable_with_stderr(psi, (obs, flip), 2_000, stage2)
            parts.append(2 * prefactor * mean * se)
        assert np.isfinite(report.stderr)
        assert report.stderr > np.hypot(*parts)

    def test_pure_payload_reports_both_oracles(self):
        rho = DensityMatrix(np.diag([1.0, 0]).astype(complex), 1)
        psi = purify(rho, 1)
        report = estimate_qfi(psi, Observable(PAULI_X), ShotBudget(4_000, 4_000), seed=16)
        # no nonzero pair: the protocol's reach is zero, while the full
        # oracle keeps the support/null cross terms
        assert report.value == 0.0
        assert report.truth == 0.0
        assert abs(report.extras["full_qfi_oracle"] - 4.0) < 1e-12
        assert report.extras["support_rank"] == 1

    def test_fisher_s2_is_null(self):
        sample = sample_ensemble(EnsembleSpec(EnsembleFamily.FISHER_S2, 4), child_rng(74))
        psi = purify(sample.rho, 2)
        obs = Observable(pauli_on(4, 0, PAULI_X))
        report = estimate_qfi(psi, obs, ShotBudget(50_000, 50_000), seed=13)
        assert report.truth < 1e-9
        assert abs(report.value) < 0.1

    def test_precondition_names_pair(self):
        rng = child_rng(75)
        rho = rank2_state(2, rng, weights=(0.51, 0.49))
        psi = purify(rho, 1)
        obs = Observable(pauli_on(2, 0, PAULI_X))
        with pytest.raises(PreconditionError) as err:
            estimate_qfi(psi, obs, ShotBudget(1_000, 1_000), seed=14)
        assert "(0, 1)" in str(err.value)

    def test_small_eigenvalue_rejected(self):
        rng = child_rng(76)
        rho = rank2_state(2, rng, weights=(0.99, 0.01))
        psi = purify(rho, 1)
        obs = Observable(pauli_on(2, 0, PAULI_X))
        with pytest.raises(PreconditionError):
            estimate_qfi(psi, obs, ShotBudget(1_000, 1_000), seed=15)

    def test_clipped_eigenvalue_is_insufficient_data(self):
        # 12 tomography shots reconstruct the 0.03 eigenvalue as exactly 0,
        # so a prefactor divides by zero; the pipeline refuses the inf.
        spec = EnsembleSpec(EnsembleFamily.RANDOM_RANK_R, 2, rank=2, weights=(0.97, 0.03))
        psi = purify(sample_ensemble(spec, child_rng(130)).rho, 1)
        obs = Observable(pauli_on(2, 0, PAULI_X))
        rho_b_hat = tomography(partial_trace(psi, "B"), 12, child_rng(1, 0)).estimate
        assert rho_b_hat.spectral().eigenvalues[1] == 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(InsufficientDataError):
                estimate_qfi(
                    psi, obs, ShotBudget(12, 400), seed=1, min_eigenvalue=0.01, min_gap=0.01
                )


class TestProductStageTwo:
    def test_mean_ignores_roundoff_in_b_operator(self):
        # A roundoff-level change of g barely moves its 2 x 2 eigenbasis, so
        # the product-basis counts stay the same at nB = 1.  The dense eigh
        # of X (x) g picked another basis inside its degenerate blocks.
        rng = child_rng(131)
        psi = purify(rank2_state(3, rng, weights=(0.7, 0.3)), 1)
        obs = Observable(pauli_on(3, 0, PAULI_X))
        for trial in range(10):
            v = haar_unitary(2, rng)
            h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            for g in flip_observables(v[:, 0], v[:, 1]):
                nudged = g + 1e-15 * (h + h.conj().T) / 2
                first = measure_observable_with_stderr(psi, (obs, g), 500, child_rng(132, trial))
                second = measure_observable_with_stderr(psi, (obs, nudged), 500, child_rng(132, trial))
                assert abs(first[0] - second[0]) < 1e-12


def rank3_purification(nA=3, nB=2, seed=133):
    spec = EnsembleSpec(EnsembleFamily.RANDOM_RANK_R, nA, rank=3, weights=(0.5, 0.3, 0.2))
    return purify(sample_ensemble(spec, child_rng(seed)).rho, nB)


def stage_two_estimate(kind, psi, budget, seed):
    """A K = 6 estimate (rank-3 QFI), a K = 2 one (rank-2 QFI) or a K = 1 one (t = 3 cooling)."""
    obs = Observable.from_factors([PAULI_X] + [PAULI_I] * (psi.nA - 1))
    if kind == "qfi":
        return estimate_qfi(psi, obs, budget, seed)
    return estimate_virtual_cooling(psi, obs, 3, budget, seed)


class TestStackedStageTwo:
    @pytest.mark.parametrize("kind, terms", [("qfi", 6), ("cooling", 1)])
    def test_terms_replay_a_sequential_per_term_loop(self, monkeypatch, kind, terms):
        calls = []

        def recorded(state, observable, shots, rng):
            result = measure_observable_with_stderr(state, observable, shots, rng)
            calls.append((state, observable, shots, result))
            return result

        monkeypatch.setattr(estimators, "measure_observable_with_stderr", recorded)
        psi, seed = rank3_purification(), 19
        report = stage_two_estimate(kind, psi, ShotBudget(6_000, 6_001), seed)
        [(state, (obs, gs), shots, (means, stderrs, drawn))] = calls
        each = 6_001 // terms  # any remainder stays unused
        assert len(gs) == terms and shots == each * terms
        assert drawn == [each] * terms and report.shots_used["observable"] == shots
        rng = child_rng(seed, 1)
        for g, mean, stderr in zip(gs, means, stderrs):
            replay = measure_observable_with_stderr(state, (obs, g), each, rng)
            assert (mean.hex(), stderr.hex()) == (replay[0].hex(), replay[1].hex())

    @pytest.mark.parametrize("kind, rank", [("cooling", 3), ("qfi", 2), ("qfi", 3)])
    def test_one_stage_two_draw_at_any_term_count(self, monkeypatch, kind, rank):
        calls = []
        real = measurement.measure_in_basis

        def counted(*args):
            calls.append(args[2])
            return real(*args)

        monkeypatch.setattr(measurement, "measure_in_basis", counted)
        psi = rank3_purification() if rank == 3 else graded_purification(3, 2, 134)
        stage_two_estimate(kind, psi, ShotBudget(4_000, 4_000), seed=20)
        # one tomography draw, then one stacked stage-2 draw
        assert len(calls) == 2 and calls[0] == 4_000

    def test_qfi_applies_the_observable_twice(self, monkeypatch):
        # once for the bootstrap's stage-2 weights, once for both oracles
        calls = []
        real = Observable.__matmul__

        def counted(self, v):
            calls.append(np.shape(v))
            return real(self, v)

        monkeypatch.setattr(Observable, "__matmul__", counted)
        report = stage_two_estimate("qfi", rank3_purification(), ShotBudget(4_000, 4_000), seed=21)
        assert len(calls) == 2
        assert report.extras["full_qfi_oracle"] >= report.truth > 0


# (estimator, nA, nB, value, stderr) on a rank-2 random_rank_r sample with
# weights (2/3, 1/3), purified into nB qubits, at a 1e4/1e4 budget.
STAGE_TWO_PINS = [
    ("cooling", 2, 1, -0.04785935450639816, 0.008825743626612823),
    ("pca", 2, 1, -0.1421647456069164, 0.028823408349913412),
    ("qfi", 2, 1, 0.5250230957505443, 0.05611042933421712),
    ("cooling", 2, 2, 0.17314586642068458, 0.00799499890290605),
    ("pca", 2, 2, 0.5230369693475517, 0.024262216300386687),
    ("qfi", 2, 2, 0.026739043270679726, 0.006011537974721427),
    ("cooling", 3, 1, 0.12204355813927037, 0.007058364891710355),
    ("pca", 3, 1, 0.3252504138997679, 0.019096682969055173),
    ("qfi", 3, 1, 0.07834190763353528, 0.010766794901066785),
    ("cooling", 3, 2, 0.006866158619169573, 0.006624539181294758),
    ("pca", 3, 2, -0.04792600999870727, 0.017219855156214544),
    ("qfi", 3, 2, 0.0037973618771268373, 0.0015588879752184478),
]


class TestStageTwoFixedSeedValues:
    @pytest.mark.parametrize("kind,nA,nB,value,stderr", STAGE_TWO_PINS)
    def test_value_and_stderr(self, kind, nA, nB, value, stderr):
        spec = EnsembleSpec(EnsembleFamily.RANDOM_RANK_R, nA, rank=2, weights=(2 / 3, 1 / 3))
        psi = purify(sample_ensemble(spec, child_rng(160, nA, nB)).rho, nB)
        budget = ShotBudget(10_000, 10_000)
        seed = 10 * nA + nB
        if kind == "cooling":
            report = estimate_virtual_cooling(psi, Observable(pauli_on(nA, 0, PAULI_Z)), 2, budget, seed)
        elif kind == "pca":
            report = estimate_pca(psi, Observable(pauli_on(nA, 0, PAULI_Z)), budget, seed)
        else:
            report = estimate_qfi(psi, Observable(pauli_on(nA, 0, PAULI_X)), budget, seed)
        assert abs(report.value - value) < 1e-12
        assert abs(report.stderr - stderr) < 1e-12


class TestMomentScaleInvariance:
    def test_error_distribution_indistinguishable_across_n(self):
        from scipy.stats import ks_2samp

        def errors(n, trials=80):
            out = []
            for trial in range(trials):
                rng = child_rng(83, n, trial)
                rho = embedded_rank2(n, rng, weights=(0.7, 0.3))
                psi = purify(rho, 1)
                seed = int(child_rng(84, n, trial).integers(2 ** 31))
                rep = estimate_moment(psi, 2, ShotBudget(tomography_shots=20_000), seed)
                out.append(rep.abs_error)
            return np.array(out)

        reference = errors(2)
        for n in (4, 8):
            stat = ks_2samp(reference, errors(n))
            assert stat.pvalue > 0.01, (n, stat)


class TestQfiDecomposition:
    def _direct_two_copy_factor(self, psi, obs, vec_j, vec_k):
        # Assemble Psi (x) Psi and O (x) O (x) P^{jk} explicitly, with the
        # register order (A1, B1, A2, B2).
        two = np.kron(psi.amplitudes, psi.amplitudes)
        jk = np.outer(vec_j, vec_k.conj())
        kj = np.outer(vec_k, vec_j.conj())
        term = kron_all(obs.matrix, jk, obs.matrix, kj)
        op = term + term.conj().T
        return float(np.real(two.conj() @ op @ two))

    def test_product_form_matches_two_copy_expectation(self):
        for trial in range(15):
            rng = child_rng(77, trial)
            rho = rank2_state(2, rng, weights=(0.7, 0.3))
            psi = purify(rho, 1)
            spec_b = partial_trace(psi, "B").spectral()
            z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            obs = Observable((z + z.conj().T) / 2)
            vec_j = spec_b.eigenvectors[:, 0]
            vec_k = spec_b.eigenvectors[:, 1]
            product_factor = eigenstate_factor_exact(psi, obs, vec_j, vec_k)
            direct = self._direct_two_copy_factor(psi, obs, vec_j, vec_k)
            assert abs(product_factor - direct) < 1e-9

    def test_reformulated_sum_matches_support_oracle(self):
        # Summing 2 * prefactor * eigenstate-factor over nonzero pairs must
        # reproduce the support-restricted information exactly.
        for trial in range(15):
            rng = child_rng(78, trial)
            rho = rank2_state(3, rng, weights=(0.65, 0.35))
            psi = purify(rho, 1)
            spec_b = partial_trace(psi, "B").spectral()
            obs = Observable(pauli_on(3, 0, PAULI_X))
            lam = spec_b.eigenvalues
            total = 0.0
            for j in range(2):
                for k in range(j + 1, 2):
                    pref = (lam[j] - lam[k]) ** 2 / (lam[j] * lam[k] * (lam[j] + lam[k]))
                    factor = eigenstate_factor_exact(
                        psi, obs, spec_b.eigenvectors[:, j], spec_b.eigenvectors[:, k]
                    )
                    total += 2 * pref * factor
            oracle = qfi_oracle(partial_trace(psi, "A"), obs, "support_only")
            assert abs(total - oracle) < 1e-9


class TestClassicalCorrelationContrast:
    def test_filtering_identities_survive_decoherence(self):
        # Moment, cooling, and principal-component steering only need the
        # classical correlation, so the incoherent composite satisfies them.
        for trial in range(10):
            rng = child_rng(79, trial)
            rho = rank2_state(2, rng, weights=(0.7, 0.3))
            joint = classical_correlate(rho, 1)
            for kind in (
                PurificationIdentity.MARGINAL_PURITY,
                PurificationIdentity.MOMENT_STEERING,
                PurificationIdentity.PRINCIPAL_STEERING,
            ):
                dev = oracle_identity_check(joint, kind, t=3, nA=2)
                assert dev <= 1e-9, (kind, dev)

    def test_flip_factor_needs_coherence(self):
        # The two-copy eigenstate factor vanishes on the incoherent state,
        # so its value differs from the purified one for most draws.
        hits = 0
        trials = 40
        for trial in range(trials):
            rng = child_rng(80, trial)
            rho = rank2_state(2, rng, weights=(0.6, 0.4))
            psi = purify(rho, 1)
            joint = classical_correlate(rho, 1)
            spec_b = partial_trace(psi, "B").spectral()
            w = haar_unitary(4, rng)
            obs = Observable(w @ np.diag([1.0, 1, -1, -1]) @ w.conj().T)
            coherent = eigenstate_factor_exact(
                psi, obs, spec_b.eigenvectors[:, 0], spec_b.eigenvectors[:, 1]
            )
            incoherent = eigenstate_factor_exact(
                joint, obs, spec_b.eigenvectors[:, 0], spec_b.eigenvectors[:, 1]
            )
            assert incoherent < 1e-12
            hits += abs(coherent - incoherent) > 0.01
        assert hits >= 0.9 * trials


class TestFlipObservables:
    def test_are_hermitian_unit_norm(self):
        rng = child_rng(81)
        u = haar_unitary(4, rng)
        plus, minus = flip_observables(u[:, 0], u[:, 1])
        for m in (plus, minus):
            assert np.abs(m - m.conj().T).max() < 1e-12
            assert abs(np.abs(np.linalg.eigvalsh(m)).max() - 1.0) < 1e-12

    def test_bipartite_expectation_matches_kron(self):
        rng = child_rng(82)
        psi = purify(rank2_state(2, rng), 1)
        z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        a_op = (z + z.conj().T) / 2
        y = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b_op = (y + y.conj().T) / 2
        fast = bipartite_expectation(psi, a_op, b_op)
        full = float(np.real(psi.amplitudes.conj() @ np.kron(a_op, b_op) @ psi.amplitudes))
        assert abs(fast - full) < 1e-12


def dense_qfi_oracle(rho, observable, mode):
    """Reference QFI over every eigenpair of the full d x d spectrum, with V^dag O V."""
    spec = rho.spectral()
    lam = np.clip(spec.eigenvalues, 0.0, None)
    d = lam.size
    tol = 1e-9 * max(lam.max(), 1e-300)
    mat = spec.eigenvectors.conj().T @ observable.matrix @ spec.eigenvectors
    num = (lam[:, None] - lam[None, :]) ** 2
    den = lam[:, None] + lam[None, :]
    ratio = np.divide(num, den, out=np.zeros((d, d)), where=den > tol)
    if mode == "support_only":
        keep = lam > tol
        ratio = ratio * np.outer(keep, keep)
    return float(2.0 * np.sum(ratio * np.abs(mat) ** 2))


def random_hermitian(n, rng):
    z = rng.standard_normal((2 ** n, 2 ** n)) + 1j * rng.standard_normal((2 ** n, 2 ** n))
    return Observable((z + z.conj().T) / (2 * np.sqrt(2 ** n)))


def graded_purification(nA, nB, seed):
    spec = EnsembleSpec(EnsembleFamily.RANDOM_RANK_R, nA, rank=2, weights=(2 / 3, 1 / 3))
    return purify(sample_ensemble(spec, child_rng(seed, nA, nB)).rho, nB)


def record_diagonalised_shapes(monkeypatch) -> list:
    """Trailing shapes of every matrix that reaches eigh, eigvalsh or DensityMatrix validation."""
    shapes = []

    def counted(fn):
        def wrapper(a, *args, **kwargs):
            shapes.append(np.shape(a)[-2:])
            return fn(a, *args, **kwargs)

        return wrapper

    post_init = DensityMatrix.__post_init__

    def counted_post_init(self):
        shapes.append(np.shape(self.matrix)[-2:])
        post_init(self)

    monkeypatch.setattr(np.linalg, "eigh", counted(np.linalg.eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh", counted(np.linalg.eigvalsh))
    monkeypatch.setattr(DensityMatrix, "__post_init__", counted_post_init)
    return shapes


def run_four_estimators(psi, z, x):
    budget = ShotBudget(2_000, 2_000)
    estimate_moment(psi, 2, ShotBudget(tomography_shots=2_000), seed=1)
    estimate_virtual_cooling(psi, z, 2, budget, seed=2)
    estimate_pca(psi, z, budget, seed=3)
    estimate_qfi(psi, x, budget, seed=4)


class TestNoPayloadSizedDenseStep:
    def test_sampling_purification_estimators_and_verification_at_na_10(self, monkeypatch):
        nA = 10
        shapes = record_diagonalised_shapes(monkeypatch)
        purified = {}
        for family in EnsembleFamily:
            if family is EnsembleFamily.RANDOM_RANK_R:
                spec = EnsembleSpec(family, nA, rank=2, weights=(2 / 3, 1 / 3))
            else:
                spec = EnsembleSpec(family, nA)
            sample = sample_ensemble(spec, child_rng(175, list(EnsembleFamily).index(family)))
            purified[family] = purify(sample.rho, 2)
        tracemalloc.start()
        try:
            z = Observable.from_factors([PAULI_Z] + [PAULI_I] * (nA - 1))
            x = Observable.from_factors([PAULI_X] + [PAULI_I] * (nA - 1))
            run_four_estimators(purified[EnsembleFamily.RANDOM_RANK_R], z, x)
            result = run_verification(nA, ServerModel(ServerKind.SINGLE_COPY_LIMITED), 1, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result["acceptance"] in (0.0, 1.0)
        assert shapes, "the counters saw no work"
        assert max(max(shape) for shape in shapes) < 2 ** nA, sorted(set(shapes))
        # below one d_A x d_A complex array, so no such array was allocated
        assert peak < 16 * 4 ** nA, peak / 2 ** 20

    def test_embedded_pauli_observables_at_na_10(self, monkeypatch):
        shapes = record_diagonalised_shapes(monkeypatch)
        for qubit in (0, 9):
            for pauli in (PAULI_X, PAULI_Y, PAULI_Z):
                Observable(pauli_on(10, qubit, pauli))
                Observable.from_factors([pauli if k == qubit else PAULI_I for k in range(10)])
        assert shapes, "the counters saw no work"
        assert max(max(shape) for shape in shapes) <= 2, sorted(set(shapes))


class TestQfiOracleMatchesDenseReference:
    def test_states_of_every_rank(self):
        for n in range(1, 6):
            for rank in sorted({1, 2, 2 ** n // 2, 2 ** n} - {0}):
                rng = child_rng(170, n, rank)
                u = haar_unitary(2 ** n, rng)
                w = rng.dirichlet(np.ones(rank))
                rho = DensityMatrix((u[:, :rank] * w) @ u[:, :rank].conj().T, n)
                obs = random_hermitian(n, rng)
                for mode in ("support_only", "full"):
                    reference = dense_qfi_oracle(rho, obs, mode)
                    assert abs(qfi_oracle(rho, obs, mode) - reference) < 1e-12, (n, rank, mode)

    def test_thin_schmidt_spectrum(self):
        # The A-side Schmidt factor has min(d_A, d_B) columns, some of them
        # outside the support when the rank is below d_B.
        for nA, nB, rank in [(2, 1, 1), (3, 1, 2), (3, 2, 1), (4, 2, 3), (5, 2, 4), (2, 2, 4)]:
            rng = child_rng(171, nA, nB, rank)
            u = haar_unitary(2 ** nA, rng)
            w = rng.dirichlet(np.ones(rank))
            psi = purify(DensityMatrix((u[:, :rank] * w) @ u[:, :rank].conj().T, nA), nB)
            a_side = schmidt_decompose(psi)
            assert a_side.eigenvectors.shape == (2 ** nA, min(2 ** nA, 2 ** nB))
            obs = random_hermitian(nA, rng)
            for mode in ("support_only", "full"):
                reference = dense_qfi_oracle(partial_trace(psi, "A"), obs, mode)
                assert abs(qfi_oracle(a_side, obs, mode) - reference) < 1e-12, (nA, nB, rank, mode)


class TestTruthFromSchmidtFactor:
    @pytest.mark.parametrize("nA", [2, 3, 4, 5])
    @pytest.mark.parametrize("nB", [1, 2])
    def test_truths_match_dense_marginal(self, nA, nB):
        psi = graded_purification(nA, nB, 172)
        rho_a = partial_trace(psi, "A")
        spec_a = rho_a.spectral()
        obs = random_hermitian(nA, child_rng(173, nA))
        budget = ShotBudget(500, 500)
        for t in (2, 3):
            report = estimate_moment(psi, t, ShotBudget(tomography_shots=500), seed=1)
            assert abs(report.truth - float(np.sum(np.clip(spec_a.eigenvalues, 0, None) ** t))) < 1e-12
            report = estimate_virtual_cooling(psi, obs, t, budget, seed=2)
            power = spec_a.apply(lambda w: np.clip(w, 0.0, None) ** t)
            assert abs(report.truth - float(np.real(np.trace(obs.matrix @ power)))) < 1e-12
        top = spec_a.eigenvectors[:, 0]
        report = estimate_pca(psi, obs, budget, seed=3)
        assert abs(report.truth - float(np.real(top.conj() @ obs.matrix @ top))) < 1e-12
        report = estimate_qfi(psi, obs, budget, seed=4)
        assert abs(report.truth - dense_qfi_oracle(rho_a, obs, "support_only")) < 1e-12
        assert abs(report.extras["full_qfi_oracle"] - dense_qfi_oracle(rho_a, obs, "full")) < 1e-12

    def test_no_payload_sized_matrix_is_diagonalised_or_built(self, monkeypatch):
        nA, nB = 6, 1
        psi = graded_purification(nA, nB, 174)
        z = Observable(pauli_on(nA, 0, PAULI_Z))
        x = Observable(pauli_on(nA, 0, PAULI_X))
        shapes = record_diagonalised_shapes(monkeypatch)
        run_four_estimators(psi, z, x)
        assert shapes, "the counters saw no B-side work"
        assert max(max(shape) for shape in shapes) <= 2 ** nB, sorted(set(shapes))

    @pytest.mark.parametrize("estimator", ["moment", "cooling", "pca", "qfi"])
    def test_empty_payload_is_rejected(self, estimator):
        psi = PureState(np.array([1.0, 0.0]), 0, 1)
        obs = Observable(np.eye(1, dtype=complex))
        budget = ShotBudget(1_000, 1_000)
        with pytest.raises(DomainError):
            if estimator == "moment":
                estimate_moment(psi, 2, ShotBudget(tomography_shots=1_000), seed=1)
            elif estimator == "cooling":
                estimate_virtual_cooling(psi, obs, 2, budget, seed=1)
            elif estimator == "pca":
                estimate_pca(psi, obs, budget, seed=1)
            else:
                estimate_qfi(psi, obs, budget, seed=1)
