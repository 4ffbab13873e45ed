import numpy as np
import pytest

from puriscope import (
    DensityMatrix,
    EnsembleFamily,
    EnsembleSpec,
    Observable,
    child_rng,
    distinguish_experiment,
    haar_unitary,
    sample_ensemble,
    single_copy_purity_attack,
    swap_test_moment,
    wilson_interval,
)
from puriscope.core import PAULI_Z, basis_state, pauli_on
from puriscope.errors import DomainError, GuardError


def rank2_state(n, rng, weights=(0.9, 0.1)):
    d = 2 ** n
    u = haar_unitary(d, rng)
    w = np.asarray(weights, float)
    return DensityMatrix((u[:, : len(w)] * w) @ u[:, : len(w)].conj().T, n)


class TestSwapTest:
    def test_pure_state_t2(self):
        rng = child_rng(90)
        u = haar_unitary(4, rng)
        rho = DensityMatrix(np.outer(u[:, 0], u[:, 0].conj()), 2)
        report = swap_test_moment(rho, None, 2, 4000, seed=1)
        assert abs(report.extras["exact_moment_expectation"] - 1.0) < 1e-9
        assert abs(report.value - 1.0) < 0.05

    def test_rank2_spectrum_t2(self):
        rho = rank2_state(2, child_rng(91))
        report = swap_test_moment(rho, None, 2, 10_000, seed=2)
        assert abs(report.truth - 0.82) < 1e-9
        assert abs(report.extras["exact_moment_expectation"] - 0.82) < 1e-9
        assert report.abs_error < 0.03

    def test_exact_matches_oracle_small_sweep(self):
        for trial in range(10):
            rng = child_rng(92, trial)
            n = int(rng.integers(1, 4))
            rho = rank2_state(n, rng, weights=rng.dirichlet(np.ones(2)))
            z = rng.standard_normal((2 ** n, 2 ** n)) + 1j * rng.standard_normal((2 ** n, 2 ** n))
            obs = Observable((z + z.conj().T) / 2)
            for t in (2, 3):
                if 1 + t * n > 13:
                    continue
                report = swap_test_moment(rho, obs, t, 100, seed=trial)
                assert abs(report.extras["exact_expectation"] - report.truth) < 1e-9
                assert abs(report.extras["exact_moment_expectation"] - report.extras["moment_truth"]) < 1e-9

    def test_fixed_seed_values(self):
        rho = rank2_state(2, child_rng(94))
        obs = Observable(pauli_on(2, 0, PAULI_Z))
        report = swap_test_moment(rho, obs, 2, 4000, seed=3)
        assert abs(report.value - 0.262) < 1e-12
        assert abs(report.stderr - 0.015259062880793171) < 1e-12
        assert abs(report.extras["moment_estimate"] - 0.833) < 1e-12
        report = swap_test_moment(rho, None, 3, 4000, seed=4)
        assert abs(report.value - 0.7295) < 1e-12
        assert abs(report.stderr - 0.010814686195169973) < 1e-12

    def test_hard_instance_observable(self):
        sample = sample_ensemble(EnsembleSpec(EnsembleFamily.VC_PCA_S1, 4), child_rng(93))
        obs = Observable(pauli_on(4, 0, PAULI_Z))
        report = swap_test_moment(sample.rho, obs, 2, 10_000, seed=3)
        assert abs(report.truth - 0.125) < 1e-9
        assert report.abs_error < 0.03

    def test_register_guard(self):
        rho = DensityMatrix(np.eye(32) / 32, 5)
        with pytest.raises(GuardError):
            swap_test_moment(rho, None, 3, 100, seed=4)

    def test_sampled_variance_bound(self):
        rho = rank2_state(2, child_rng(94))
        obs = Observable(pauli_on(2, 0, PAULI_Z))
        runs = np.array(
            [swap_test_moment(rho, obs, 2, 400, seed=k).value for k in range(100)]
        )
        bound = (1 + obs.spectral_norm ** 2) / 400
        assert runs.var(ddof=1) <= bound * 1.5


class TestSingleCopyAttack:
    def test_small_system_accuracy(self):
        errs = []
        for k in range(30):
            rho = rank2_state(2, child_rng(95, k))
            report = single_copy_purity_attack(rho, 10_000, seed=k)
            errs.append(report.value - report.truth)
        rmse = float(np.sqrt(np.mean(np.square(errs))))
        assert rmse <= 0.05

    def test_pure_state_converges(self):
        rng = child_rng(96)
        u = haar_unitary(4, rng)
        rho = DensityMatrix(np.outer(u[:, 0], u[:, 0].conj()), 2)
        small = abs(single_copy_purity_attack(rho, 400, seed=1).value - 1.0)
        large = abs(single_copy_purity_attack(rho, 40_000, seed=1).value - 1.0)
        assert large < max(small, 0.05)

    def test_records_qubit_count(self):
        rho = rank2_state(3, child_rng(97))
        report = single_copy_purity_attack(rho, 1000, seed=2)
        assert report.extras["n"] == 3

    def test_guard(self):
        rho = DensityMatrix.from_columns(basis_state(11)[:, None], 11)
        with pytest.raises(GuardError):
            single_copy_purity_attack(rho, 1000, seed=3)


class TestWilson:
    def test_interval_contains_proportion(self):
        lo, hi = wilson_interval(80, 100)
        assert lo < 0.8 < hi

    def test_edge_cases(self):
        lo, hi = wilson_interval(0, 50)
        assert lo == 0.0 and hi > 0
        lo, hi = wilson_interval(50, 50)
        assert hi == 1.0 and lo < 1

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            wilson_interval(0, 0)

    @pytest.mark.parametrize("successes", [-1, 51])
    def test_rejects_successes_outside_trials(self, successes):
        with pytest.raises(DomainError):
            wilson_interval(successes, 50)


class TestDistinguish:
    def test_purity_pair_purification(self):
        pair = (
            EnsembleSpec(EnsembleFamily.PURITY_S1, 4),
            EnsembleSpec(EnsembleFamily.PURITY_S2, 4),
        )
        out = distinguish_experiment(pair, "purification", 4000, 60, seed=5)
        assert out.success >= 0.95
        assert out.kind == "purity"

    def test_same_family_is_chance(self):
        pair = (
            EnsembleSpec(EnsembleFamily.PURITY_S1, 3),
            EnsembleSpec(EnsembleFamily.PURITY_S1, 3),
        )
        out = distinguish_experiment(pair, "purification", 4000, 120, seed=6)
        assert out.ci_low <= 0.5 <= out.ci_high

    def test_unknown_pairing(self):
        pair = (
            EnsembleSpec(EnsembleFamily.PURITY_S1, 3),
            EnsembleSpec(EnsembleFamily.FISHER_S2, 3),
        )
        with pytest.raises(DomainError):
            distinguish_experiment(pair, "purification", 1000, 20, seed=7)

    def test_unknown_strategy(self):
        pair = (
            EnsembleSpec(EnsembleFamily.PURITY_S1, 3),
            EnsembleSpec(EnsembleFamily.PURITY_S2, 3),
        )
        with pytest.raises(DomainError):
            distinguish_experiment(pair, "telepathy", 1000, 20, seed=8)

    def test_cooling_pair_both_strategies(self):
        pair = (
            EnsembleSpec(EnsembleFamily.VC_PCA_S1, 3),
            EnsembleSpec(EnsembleFamily.VC_PCA_S2, 3),
        )
        pur = distinguish_experiment(pair, "purification", 60_000, 30, seed=9)
        assert pur.success >= 0.9
        single = distinguish_experiment(pair, "single_copy", 60_000, 30, seed=10)
        assert single.success >= 0.8  # easy at 3 qubits, degrades with n

    def test_fisher_pair_purification(self):
        pair = (
            EnsembleSpec(EnsembleFamily.FISHER_S1, 3),
            EnsembleSpec(EnsembleFamily.FISHER_S2, 3),
        )
        out = distinguish_experiment(pair, "purification", 200_000, 30, seed=11)
        assert out.success >= 0.8

    def test_json_row(self):
        pair = (
            EnsembleSpec(EnsembleFamily.PURITY_S1, 3),
            EnsembleSpec(EnsembleFamily.PURITY_S2, 3),
        )
        out = distinguish_experiment(pair, "single_copy", 1000, 20, seed=12)
        row = out.to_json()
        assert set(row) >= {"n", "strategy", "budget", "success", "ci_low", "ci_high"}

    def test_json_row_names_the_statistic(self):
        pair = (
            EnsembleSpec(EnsembleFamily.PURITY_S1, 3),
            EnsembleSpec(EnsembleFamily.PURITY_S2, 3),
        )
        out = distinguish_experiment(pair, "single_copy", 1000, 20, seed=12)
        assert out.to_json() == {
            "n": 3,
            "strategy": "single_copy",
            "budget": 1000,
            "trials": 20,
            "success": out.success,
            "ci_low": out.ci_low,
            "ci_high": out.ci_high,
            "threshold": out.threshold,
            "statistic": "purity",
        }
