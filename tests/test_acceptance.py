"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else; helper code computes
independent oracles (exact linear algebra, closed forms, brute force)
before any estimator output is trusted.
"""

import time

import numpy as np
import pytest

from puriscope import (
    DensityMatrix,
    EnsembleFamily,
    EnsembleSpec,
    Observable,
    PurificationIdentity,
    ServerKind,
    ServerModel,
    ShotBudget,
    child_rng,
    classical_correlate,
    distinguish_experiment,
    estimate_moment,
    estimate_pca,
    estimate_qfi,
    estimate_virtual_cooling,
    haar_unitary,
    oracle_identity_check,
    partial_trace,
    purify,
    qfi_oracle,
    random_channel,
    run_blind_estimation,
    run_verification,
    sample_ensemble,
    single_copy_purity_attack,
    swap_test_moment,
    canonicalize,
    channel_pca_estimate,
    unitarity_estimate,
    virtual_distillation_estimate,
    trace_norm,
)
from puriscope.core import PAULI_I, PAULI_X, PAULI_Z, pauli_on
from puriscope.estimators import eigenstate_factor_exact, eigenstate_factor_incoherent


def _report(num, name):
    print(f"\n[acceptance] criterion {num:>2} ({name}): PASS")


def _random_mixed(n, rank, rng, weights=None):
    d = 2 ** n
    u = haar_unitary(d, rng)
    w = np.asarray(weights, float) if weights is not None else np.sort(rng.dirichlet(np.ones(rank)))[::-1]
    return DensityMatrix((u[:, :rank] * w) @ u[:, :rank].conj().T, n)


def _embedded_rank2(n, rng, weights=(0.6, 0.4)):
    chi = rng.standard_normal(2 ** (n - 1)) + 1j * rng.standard_normal(2 ** (n - 1))
    chi /= np.linalg.norm(chi)
    e0 = np.kron(np.array([1.0, 0]), chi)
    e1 = np.kron(np.array([0, 1.0]), chi)
    return DensityMatrix.from_columns(np.column_stack([e0, e1]) * np.sqrt(weights), n)


class TestCriterion1Identities:
    def test_identity_suite(self):
        started = time.monotonic()
        worst = 0.0
        for trial in range(100):
            rng = child_rng(1000, trial)
            n_a = int(rng.integers(2, 9))
            rank = int(rng.integers(2, 5))
            n_b = int(rng.integers(int(np.ceil(np.log2(rank))), 3))
            weights = np.sort(rng.dirichlet(np.ones(rank)))[::-1]
            rho = _random_mixed(n_a, rank, rng, weights)
            psi = purify(rho, n_b)
            t = int(rng.integers(2, 5))
            for kind in PurificationIdentity:
                dev = oracle_identity_check(psi, kind, t=t, pair=(0, 1))
                worst = max(worst, dev)
                assert dev <= 1e-9, (trial, kind, dev)
        elapsed = time.monotonic() - started
        assert elapsed <= 60.0
        _report(1, f"identity suite, max dev {worst:.2e}, {elapsed:.1f}s")


class TestCriterion2ConstantComplexity:
    BUDGET = 20_000
    TRIALS = 100

    def _errors(self, estimator, n_values):
        out = {}
        for n in n_values:
            errs = []
            for trial in range(self.TRIALS):
                rng = child_rng(1100, n, trial)
                rho = _embedded_rank2(n, rng)
                psi = purify(rho, 1)
                seed = int(child_rng(1101, n, trial).integers(2 ** 31))
                errs.append(estimator(psi, n, seed))
            out[n] = float(np.mean(np.abs(errs)))
        return out

    def _check(self, label, means):
        lo, hi = means[min(means)], means[max(means)]
        ratio = hi / lo
        assert 1 / 1.5 <= ratio <= 1.5, (label, means)
        assert max(means.values()) <= 0.1, (label, means)
        return ratio

    def _ratios(self, n_values, on_qubit0):
        budget = ShotBudget.split(self.BUDGET)

        def moment(psi, n, seed):
            rep = estimate_moment(psi, 2, ShotBudget(tomography_shots=self.BUDGET), seed)
            return rep.abs_error

        def cooling(psi, n, seed):
            return estimate_virtual_cooling(psi, on_qubit0(n, PAULI_Z), 2, budget, seed).abs_error

        def pca(psi, n, seed):
            return estimate_pca(psi, on_qubit0(n, PAULI_Z), budget, seed).abs_error

        def qfi(psi, n, seed):
            return estimate_qfi(psi, on_qubit0(n, PAULI_X), budget, seed).abs_error

        ratios = {}
        for label, estimator in [
            ("moment", moment),
            ("cooling", cooling),
            ("pca", pca),
            ("qfi", qfi),
        ]:
            ratios[label] = self._check(label, self._errors(estimator, n_values))
        pretty = ", ".join(f"{k} x{v:.2f}" for k, v in ratios.items())
        _report(2, f"constant sample complexity, error ratios nA={max(n_values)}/nA={min(n_values)}: {pretty}")

    def test_constant_sample_complexity(self):
        self._ratios((2, 8), lambda n, pauli: Observable(pauli_on(n, 0, pauli)))

    def test_constant_sample_complexity_to_na_14(self):
        """The same check up to nA = 14, on factor-built observables."""
        self._ratios((2, 14), lambda n, pauli: Observable.from_factors([pauli] + [PAULI_I] * (n - 1)))


class TestCriterion3HardInstanceValues:
    def test_cooling_instances_exact(self):
        z1 = pauli_on(4, 0, PAULI_Z)
        for family, expected in [
            (EnsembleFamily.VC_PCA_S1, 0.125),
            (EnsembleFamily.VC_PCA_S2, -0.125),
        ]:
            for trial in range(50):
                s = sample_ensemble(EnsembleSpec(family, 4), child_rng(1200, trial))
                val = float(np.real(np.trace(s.rho.matrix @ s.rho.matrix @ z1)))
                assert abs(val - expected) <= 1e-10

    def test_fisher_instances(self):
        x1 = Observable(pauli_on(4, 0, PAULI_X))
        for trial in range(50):
            s = sample_ensemble(EnsembleSpec(EnsembleFamily.FISHER_S2, 4), child_rng(1201, trial))
            assert qfi_oracle(s.rho, x1, "support_only") <= 1e-9
        x1_big = Observable(pauli_on(8, 0, PAULI_X))
        hits = 0
        for trial in range(200):
            s = sample_ensemble(EnsembleSpec(EnsembleFamily.FISHER_S1, 8), child_rng(1202, trial))
            hits += qfi_oracle(s.rho, x1_big, "support_only") >= 0.01
        assert hits >= 0.9 * 200
        _report(3, f"hard-instance values, fisher floor rate {hits / 200:.2f}")


class TestCriterion4EnsembleMeans:
    def test_purity_family_mean(self):
        # The criterion pins the mean at Haar dimension 8 (three payload
        # qubits plus the one canonical purifier); the sampler's n counts
        # the payload, so this draws 3-qubit states.
        spec = EnsembleSpec(EnsembleFamily.PURITY_S1, 3)
        values = np.array(
            [sample_ensemble(spec, child_rng(1300, k)).rho.purity() for k in range(1000)]
        )
        target = 0.82 + 0.18 / 8
        se = values.std(ddof=1) / np.sqrt(values.size)
        assert abs(values.mean() - target) <= 3 * se
        _report(4, f"ensemble mean {values.mean():.4f} vs {target:.4f} (3 SE = {3 * se:.4f})")


class TestCriterion5Separation:
    RMSE_BUDGET = 10_000
    DISTINGUISH_BUDGET = 1_600

    def test_rmse_ratio_and_distinguishability(self):
        spec8 = EnsembleSpec(EnsembleFamily.PURITY_S1, 8)
        pur_errs, single_errs = [], []
        for trial in range(60):
            rng = child_rng(1400, trial)
            sample = sample_ensemble(spec8, rng)
            truth = sample.rho.purity()
            seed = int(rng.integers(2 ** 31))
            psi = purify(sample.rho, 1)
            pur = estimate_moment(psi, 2, ShotBudget(tomography_shots=self.RMSE_BUDGET), seed)
            pur_errs.append(pur.value - truth)
            single = single_copy_purity_attack(sample.rho, self.RMSE_BUDGET, seed)
            single_errs.append(single.value - truth)
        rmse_pur = float(np.sqrt(np.mean(np.square(pur_errs))))
        rmse_single = float(np.sqrt(np.mean(np.square(single_errs))))
        assert rmse_single >= 5 * rmse_pur, (rmse_single, rmse_pur)

        successes = {}
        pur_intervals = []
        for n in (4, 6, 8):
            pair = (
                EnsembleSpec(EnsembleFamily.PURITY_S1, n),
                EnsembleSpec(EnsembleFamily.PURITY_S2, n),
            )
            pur_out = distinguish_experiment(
                pair, "purification", self.DISTINGUISH_BUDGET, 120, seed=1401 + n
            )
            assert pur_out.success >= 0.95, (n, pur_out.success)
            pur_intervals.append((pur_out.ci_low, pur_out.ci_high))
            single_out = distinguish_experiment(
                pair, "single_copy", self.DISTINGUISH_BUDGET, 240, seed=1402 + n
            )
            successes[n] = single_out.success
        assert successes[4] > successes[6] > successes[8], successes
        # purification success is n-independent: all Wilson intervals overlap
        lo = max(interval[0] for interval in pur_intervals)
        hi = min(interval[1] for interval in pur_intervals)
        assert lo <= hi, pur_intervals
        _report(
            5,
            f"separation: RMSE x{rmse_single / rmse_pur:.1f}, "
            f"single-copy success {successes}",
        )


class TestCriterion6SwapEquivalence:
    def test_exact_and_sampled(self):
        for trial in range(12):
            rng = child_rng(1500, trial)
            n = int(rng.integers(2, 5))
            rho = _random_mixed(n, 2, rng, weights=(0.8, 0.2))
            z = rng.standard_normal((2 ** n, 2 ** n)) + 1j * rng.standard_normal((2 ** n, 2 ** n))
            h = (z + z.conj().T) / 2
            obs = Observable(h / np.abs(np.linalg.eigvalsh(h)).max())
            for t in (2, 3):
                if 1 + t * n > 13:
                    continue
                report = swap_test_moment(rho, obs, t, 10_000, seed=trial * 10 + t)
                assert abs(report.extras["exact_expectation"] - report.truth) <= 1e-9
                assert (
                    abs(report.extras["exact_moment_expectation"] - report.extras["moment_truth"])
                    <= 1e-9
                )
                assert report.abs_error <= 3.5 * max(report.stderr, 1e-4)
        _report(6, "swap-test equivalence (exact <= 1e-9, samples within noise)")


class TestCriterion7ChannelSuite:
    def test_channel_suite(self):
        max_roundtrip = 0.0
        max_unitarity = 0.0
        max_distill = 0.0
        max_pca = 0.0
        pca_checked = 0
        for trial in range(50):
            rng = child_rng(1600, trial)
            n = int(rng.integers(1, 3))
            rank = int(rng.integers(1, 5))
            channel = random_channel(n, rank, rng)
            iso = canonicalize(channel)
            d = 2 ** n

            # Stinespring round trip on a Hermitian operator basis.
            for i in range(d):
                for j in range(i, d):
                    op = np.zeros((d, d), dtype=complex)
                    op[i, j] += 1
                    op[j, i] += 1
                    want = channel.apply(op)
                    got = sum(
                        p * (k @ op @ k.conj().T)
                        for p, k in zip(iso.weights, iso.canonical_kraus)
                    )
                    max_roundtrip = max(max_roundtrip, trace_norm(want - got))

            seed = int(rng.integers(2 ** 31))
            unit = unitarity_estimate(iso, ShotBudget(tomography_shots=10_000), seed)
            max_unitarity = max(max_unitarity, unit.abs_error)

            rho_in = np.zeros((d, d), dtype=complex)
            rho_in[0, 0] = 1.0
            rho_in = DensityMatrix(rho_in, n)
            obs = Observable(pauli_on(n, 0, PAULI_Z))
            distill = virtual_distillation_estimate(
                iso, rho_in, obs, ShotBudget(50_000, 50_000), seed + 1
            )
            max_distill = max(max_distill, distill.abs_error)

            # The principal-component protocol assumes a Theta(1) weight
            # gap; check it on the channels that satisfy the assumption.
            gap = iso.weights[0] - iso.weights[1] if iso.weights.size > 1 else 1.0
            if gap >= 0.2:
                pca = channel_pca_estimate(iso, rho_in, obs, ShotBudget(100_000, 50_000), seed + 2)
                max_pca = max(max_pca, pca.abs_error)
                pca_checked += 1

        assert max_roundtrip <= 1e-9
        assert max_unitarity <= 0.05
        assert max_distill <= 0.05
        assert pca_checked >= 15 and max_pca <= 0.05
        _report(
            7,
            f"channel suite: roundtrip {max_roundtrip:.1e}, unitarity {max_unitarity:.3f}, "
            f"distill {max_distill:.3f}, pca {max_pca:.3f} ({pca_checked} gapped channels)",
        )


class TestCriterion8PerturbationLemmas:
    @staticmethod
    def _perturbation(dim, eps, rng):
        z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        h = (z + z.conj().T) / 2
        return h * (eps / trace_norm(h))

    def test_eigenvalue_and_eigenvector_bounds(self):
        for trial in range(200):
            rng = child_rng(1700, trial)
            dim = int(rng.integers(2, 9))
            w = np.sort(rng.uniform(0.05, 1.0, size=dim))[::-1]
            w[0] += 0.3
            u = haar_unitary(dim, rng)
            base = (u * w) @ u.conj().T
            spectrum = np.sort(np.linalg.eigvalsh(base))[::-1]
            delta = spectrum[0] - spectrum[1]
            eps = float(rng.uniform(1e-4, delta / 2))
            pert = self._perturbation(dim, eps, rng)
            lam = np.linalg.eigvalsh(base)[-1]
            lam_p = np.linalg.eigvalsh(base + pert)[-1]
            assert abs(lam - lam_p) <= eps + 1e-12
            top = np.linalg.eigh(base)[1][:, -1]
            top_p = np.linalg.eigh(base + pert)[1][:, -1]
            proj_gap = trace_norm(np.outer(top, top.conj()) - np.outer(top_p, top_p.conj()))
            assert proj_gap <= 2 * np.sqrt(2 * eps / delta) + 1e-9

    def test_cross_projector_bound(self):
        for trial in range(200):
            rng = child_rng(1701, trial)
            dim = int(rng.integers(2, 7))
            v = haar_unitary(dim, rng)
            w = haar_unitary(dim, child_rng(1702, trial))
            pairs = []
            for col, mix in ((0, rng.uniform(0, 0.25)), (1 % dim, rng.uniform(0, 0.25))):
                vec = v[:, col]
                vec_p = vec + mix * w[:, col]
                pairs.append((vec, vec_p / np.linalg.norm(vec_p)))
            (psi1, psi1p), (psi2, psi2p) = pairs
            eps1 = trace_norm(np.outer(psi1, psi1.conj()) - np.outer(psi1p, psi1p.conj()))
            eps2 = trace_norm(np.outer(psi2, psi2.conj()) - np.outer(psi2p, psi2p.conj()))

            def cross(a, b):
                block = np.kron(np.outer(a, b.conj()), np.outer(b, a.conj()))
                return block + block.conj().T

            gap = trace_norm(cross(psi1, psi2) - cross(psi1p, psi2p))
            assert gap <= 2 * (eps1 + eps2) + 1e-9
        _report(8, "perturbation lemmas, 200 instances each, zero violations")


class TestCriterion9MomentBound:
    def test_moment_bound(self):
        for trial in range(500):
            rng = child_rng(1800, trial)
            n = int(rng.integers(1, 4))
            rank = int(rng.integers(1, 2 ** n + 1))
            rho = _random_mixed(n, rank, rng)
            t = int(rng.integers(1, 5))
            eps = float(rng.uniform(1e-4, 0.99 / t))
            z = rng.standard_normal((2 ** n, 2 ** n)) + 1j * rng.standard_normal(
                (2 ** n, 2 ** n)
            )
            h = (z + z.conj().T) / 2
            pert = h * (eps / trace_norm(h))
            lhs = abs(
                np.trace(np.linalg.matrix_power(rho.matrix + pert, t)).real
                - np.trace(np.linalg.matrix_power(rho.matrix, t)).real
            )
            assert lhs <= 2 * eps * t + 1e-12
        _report(9, "moment bound |Tr(rho_hat^t) - Tr(rho^t)| <= 2 eps t on 500 triples")


class TestCriterion10Crypto:
    def test_blind_estimation(self):
        rng = child_rng(1900)
        u = haar_unitary(16, rng)
        obs = Observable(pauli_on(4, 0, PAULI_Z))
        res = run_blind_estimation(u, obs, 10_000, seed=1901)
        assert abs(res.client_estimate - res.truth) <= 0.05
        assert abs(res.keep_fraction - 0.5) <= 0.02
        assert abs(res.all_rounds_mean - res.all_rounds_truth) <= 0.05
        assert res.server_view_deviation <= 1e-12

    def test_verification_gap(self):
        gaps = {}
        for n in (4, 6, 8):
            honest = run_verification(
                n, ServerModel(ServerKind.HONEST_UNBOUNDED), 120, seed=1902 + n
            )
            dishonest = run_verification(
                n, ServerModel(ServerKind.DISHONEST_CONSTANT), 120, seed=1903 + n
            )
            gaps[n] = honest["acceptance"] - dishonest["acceptance"]
            assert gaps[n] >= 0.3, (n, gaps[n])
        _report(10, f"crypto: verification gaps {gaps}")


class TestCriterion11ClassicalCorrelationContrast:
    def test_identities_hold_but_flip_factor_dies(self):
        filtering = (
            PurificationIdentity.MARGINAL_PURITY,
            PurificationIdentity.MOMENT_STEERING,
            PurificationIdentity.PRINCIPAL_STEERING,
        )
        deviated = 0
        trials = 100
        for trial in range(trials):
            rng = child_rng(2000, trial)
            rho = _random_mixed(2, 2, rng, weights=(0.6, 0.4))
            joint = classical_correlate(rho, 1)
            for kind in filtering:
                dev = oracle_identity_check(joint, kind, t=3, nA=2)
                assert dev <= 1e-9, (trial, kind, dev)
            psi = purify(rho, 1)
            spec_b = partial_trace(psi, "B").spectral()
            w = haar_unitary(4, rng)
            obs = Observable(w @ np.diag([1.0, 1, -1, -1]) @ w.conj().T)
            coherent = eigenstate_factor_exact(
                psi, obs, spec_b.eigenvectors[:, 0], spec_b.eigenvectors[:, 1]
            )
            incoherent = eigenstate_factor_incoherent(
                joint, 2, obs, spec_b.eigenvectors[:, 0], spec_b.eigenvectors[:, 1]
            )
            deviated += abs(coherent - incoherent) > 0.01
        assert deviated >= 0.9 * trials
        _report(11, f"classical-correlation contrast, deviation rate {deviated / trials:.2f}")
